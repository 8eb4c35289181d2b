//! Property tests for the decoded-event layer.
//!
//! 1. **Round trip** — any event the writer serializes decodes to a
//!    [`RawEvent`] carrying its universal keys and its fields, each typed
//!    as the writer wrote it, and [`from_events`] (one reused line
//!    buffer) decodes a vector exactly as [`parse_jsonl`] decodes its
//!    dump.
//! 2. **Mutation** — a dump with one edited line decodes, or fails
//!    naming that line with the line's own decode error.

use cibola_forensics::{from_events, parse_jsonl, RawEvent, RawValue};
use cibola_telemetry::{FieldValue, Severity, Subsystem, TelemetryEvent};
use proptest::collection::vec;
use proptest::prelude::*;

/// What generated names, keys and strings are made of: every character
/// the writer escapes and non-ASCII text of every UTF-8 width. No key it
/// spells can be one of the universal keys.
const ALPHABET: [char; 14] = [
    'a', 'Z', '_', '.', ' ', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '€', '😀',
];

const SUBSYSTEMS: [Subsystem; 3] = [Subsystem::Scrub, Subsystem::Mission, Subsystem::Downlink];

/// A generated event: head (t_ns, severity, subsystem), device, span
/// length, name picks, then per field (kind, edge pick, bits, picks).
type EventSpec = (
    (u64, u8, u8),
    (u16, u16, bool),
    (u64, bool),
    (Vec<usize>, Vec<(u8, u8, u64, Vec<usize>)>),
);

fn events() -> impl Strategy<Value = Vec<EventSpec>> {
    vec(
        (
            (any::<u64>(), any::<u8>(), any::<u8>()),
            (any::<u16>(), any::<u16>(), any::<bool>()),
            (any::<u64>(), any::<bool>()),
            (
                vec(0usize..64, 0..8),
                vec(
                    (0u8..5, any::<u8>(), any::<u64>(), vec(0usize..64, 0..8)),
                    0..6,
                ),
            ),
        ),
        1..6,
    )
}

fn text(picks: &[usize]) -> &'static str {
    let s: String = picks
        .iter()
        .map(|&i| ALPHABET[i % ALPHABET.len()])
        .collect();
    Box::leak(s.into_boxed_str())
}

fn event(((t_ns, sev, sub), device, dur_ns, (name, fields)): &EventSpec) -> TelemetryEvent {
    let mut ev = TelemetryEvent::point(
        SUBSYSTEMS[usize::from(*sub) % SUBSYSTEMS.len()],
        Severity::ALL[usize::from(*sev) % 4],
        text(name),
        *t_ns,
    );
    if device.2 {
        ev = ev.with_device(usize::from(device.0), usize::from(device.1));
    }
    if dur_ns.1 {
        ev.dur_ns = Some(dur_ns.0);
    }
    for (kind, pick, bits, picks) in fields {
        let pick = usize::from(*pick);
        let key = text(&picks[..picks.len() / 2]);
        ev.fields.push((
            key,
            match kind % 5 {
                0 => FieldValue::U64([0, u64::MAX, *bits][pick % 3]),
                1 => FieldValue::I64([i64::MIN, -1, *bits as i64][pick % 3]),
                2 => FieldValue::F64(
                    [f64::NAN, f64::NEG_INFINITY, -0.0, f64::from_bits(*bits)][pick % 4],
                ),
                3 => FieldValue::Bool(bits & 1 == 1),
                _ => FieldValue::Str(text(picks)),
            },
        ));
    }
    ev
}

/// `ev` as the reader must see it: non-negative `I64`s read back as
/// `U64`, non-finite floats as `Null`, -0.0 kept by bit pattern.
fn assert_decodes_as_written(raw: &RawEvent, ev: &TelemetryEvent) {
    assert_eq!(raw.t_ns, ev.t_ns);
    assert_eq!(raw.severity(), ev.severity.name());
    assert_eq!(raw.subsystem(), ev.subsystem.name());
    assert_eq!(raw.name(), ev.name);
    assert_eq!(raw.device, ev.device);
    assert_eq!(raw.dur_ns, ev.dur_ns);
    assert_eq!(raw.fields().len(), ev.fields.len());
    for ((key, got), (k, v)) in raw.fields().zip(&ev.fields) {
        assert_eq!(key, *k);
        match (*v, got) {
            (FieldValue::U64(x), RawValue::U64(y)) => assert_eq!(x, y),
            (FieldValue::I64(x), RawValue::U64(y)) if x >= 0 => assert_eq!(x as u64, y),
            (FieldValue::I64(x), RawValue::I64(y)) if x < 0 => assert_eq!(x, y),
            (FieldValue::F64(x), RawValue::F64(y)) if x.is_finite() => {
                assert_eq!(x.to_bits(), y.to_bits())
            }
            (FieldValue::F64(x), RawValue::Null) if !x.is_finite() => {}
            (FieldValue::Bool(x), RawValue::Bool(y)) => assert_eq!(x, y),
            (FieldValue::Str(x), RawValue::Str(y)) => assert_eq!(x, y),
            (v, got) => panic!("{key:?}: wrote {v:?}, read {got:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn raw_events_decode_to_what_was_written(specs in events()) {
        let evs: Vec<TelemetryEvent> = specs.iter().map(event).collect();
        let dump: String = evs.iter().map(|e| e.to_jsonl() + "\n").collect();
        let parsed = parse_jsonl(&dump).unwrap_or_else(|e| panic!("{e} in {dump:?}"));
        prop_assert_eq!(parsed.len(), evs.len());
        for (i, (raw, ev)) in parsed.iter().zip(&evs).enumerate() {
            prop_assert_eq!(raw.line, i + 1);
            assert_decodes_as_written(raw, ev);
        }
        let decoded: Result<Vec<_>, _> = from_events(&evs).collect();
        prop_assert_eq!(decoded.unwrap(), parsed);
    }

    #[test]
    fn parse_jsonl_names_the_mutated_line(
        specs in events(),
        target: usize,
        edit in (any::<usize>(), 0u8..128, 0u8..3),
    ) {
        let mut lines: Vec<String> = specs.iter().map(|s| event(s).to_jsonl()).collect();
        let k = target % lines.len();
        // Line breaks would move the lines after it.
        let byte = if edit.1 == b'\n' || edit.1 == b'\r' { b' ' } else { edit.1 };
        let mut bytes = lines[k].clone().into_bytes();
        let ascii: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii()).collect();
        let at = ascii[edit.0 % ascii.len()];
        match edit.2 {
            0 => bytes[at] = byte,
            1 => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
        lines[k] = String::from_utf8(bytes).expect("ASCII edits keep UTF-8");
        let dump = lines.join("\n");
        match (RawEvent::parse(&lines[k]), parse_jsonl(&dump)) {
            (Err(message), Err(e)) => {
                prop_assert_eq!(e.line, k + 1);
                prop_assert_eq!(e.message, message);
            }
            (Ok(mut ev), Ok(parsed)) => {
                ev.line = k + 1;
                prop_assert_eq!(&parsed[k], &ev)
            }
            (line, dump) => panic!("line {k} decodes to {line:?} but the dump to {dump:?}"),
        }
    }
}

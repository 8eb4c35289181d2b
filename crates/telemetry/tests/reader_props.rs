//! Property tests for the JSONL reader.
//!
//! 1. **Round trip** — any event the writer serializes decodes through
//!    [`FlatObject`] back to its fields, in order, each typed as the
//!    writer wrote it: keys and strings with quotes, backslashes, control
//!    characters and non-ASCII text; `u64::MAX`, `i64::MIN`, NaN and ±inf
//!    (written as `null`) and -0.0.
//! 2. **Truncation and mutation** — on every prefix of a writer line and
//!    on single-byte edits of it, the decoder never panics and rejects
//!    wherever [`validate_json_line`] rejects, at the same byte.
//! 3. **Two edits** — a digit inserted anywhere (inside a 20-digit number
//!    it overflows the number's class) and one more edit: the decoder
//!    rejects wherever the validator rejects, at the same byte or earlier
//!    at such an integer.

use cibola_telemetry::{
    validate_json_line, FieldValue, FlatObject, JsonError, JsonToken, Severity, Subsystem,
    TelemetryEvent,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// What generated keys and strings are made of: every character the
/// writer escapes, a character it must not escape (DEL), and non-ASCII
/// text of every UTF-8 width.
const ALPHABET: [char; 17] = [
    'a', 'Z', '_', '.', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é',
    '€', '😀',
];

const SUBSYSTEMS: [Subsystem; 7] = [
    Subsystem::Port,
    Subsystem::Scrub,
    Subsystem::Mission,
    Subsystem::Ensemble,
    Subsystem::Inject,
    Subsystem::Bist,
    Subsystem::Downlink,
];

/// A generated field: value kind, edge-value pick, raw bits, text picks.
type FieldSpec = (u8, u8, u64, Vec<usize>);

/// Text drawn from [`ALPHABET`], leaked to the `'static` lifetime event
/// names and keys carry.
fn text(picks: &[usize]) -> &'static str {
    let s: String = picks
        .iter()
        .map(|&i| ALPHABET[i % ALPHABET.len()])
        .collect();
    Box::leak(s.into_boxed_str())
}

fn field((kind, pick, bits, picks): &FieldSpec) -> (&'static str, FieldValue) {
    let pick = usize::from(*pick);
    let value = match kind % 5 {
        0 => FieldValue::U64([0, u64::MAX, *bits, bits >> (bits % 64)][pick % 4]),
        1 => FieldValue::I64([i64::MIN, -1, i64::MAX, *bits as i64][pick % 4]),
        2 => FieldValue::F64(
            [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                f64::from_bits(*bits),
                *bits as f64 / 7.0,
            ][pick % 6],
        ),
        3 => FieldValue::Bool(bits & 1 == 1),
        _ => FieldValue::Str(text(picks)),
    };
    (text(&picks[..picks.len() / 2]), value)
}

fn event(
    (t_ns, sev, sub): (u64, u8, u8),
    device: (u16, u16, bool),
    dur_ns: (u64, bool),
    name: &[usize],
    fields: &[FieldSpec],
) -> TelemetryEvent {
    let mut ev = TelemetryEvent::point(
        SUBSYSTEMS[usize::from(sub) % SUBSYSTEMS.len()],
        Severity::ALL[usize::from(sev) % 4],
        text(name),
        t_ns,
    );
    if device.2 {
        ev = ev.with_device(usize::from(device.0), usize::from(device.1));
    }
    if dur_ns.1 {
        ev.dur_ns = Some(dur_ns.0);
    }
    ev.fields = fields.iter().map(field).collect();
    ev
}

/// A field value owned, as the properties compare it.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
    Null,
    Raw(String),
}

fn to_value(token: JsonToken) -> JsonValue {
    match token {
        JsonToken::U64(v) => JsonValue::U64(v),
        JsonToken::I64(v) => JsonValue::I64(v),
        JsonToken::F64(v) => JsonValue::F64(v),
        JsonToken::Bool(v) => JsonValue::Bool(v),
        JsonToken::Str(s) => JsonValue::Str(s.decode().into_owned()),
        JsonToken::Null => JsonValue::Null,
        JsonToken::Raw(r) => JsonValue::Raw(r.to_string()),
    }
}

/// The value a field decodes to: the class its written text has, so a
/// non-negative `I64` (written without a sign) reads back as `U64` and a
/// non-finite float (written `null`) as `Null`.
fn as_written(v: FieldValue) -> JsonValue {
    match v {
        FieldValue::U64(x) => JsonValue::U64(x),
        FieldValue::I64(x) if x >= 0 => JsonValue::U64(x as u64),
        FieldValue::I64(x) => JsonValue::I64(x),
        FieldValue::F64(x) if x.is_finite() => JsonValue::F64(x),
        FieldValue::F64(_) => JsonValue::Null,
        FieldValue::Bool(x) => JsonValue::Bool(x),
        FieldValue::Str(x) => JsonValue::Str(x.to_string()),
    }
}

/// Every field of `ev`'s line, in the writer's order, as written.
fn written_fields(ev: &TelemetryEvent) -> Vec<(String, JsonValue)> {
    let mut out = vec![
        ("t_ns".to_string(), JsonValue::U64(ev.t_ns)),
        (
            "sev".to_string(),
            JsonValue::Str(ev.severity.name().to_string()),
        ),
        (
            "sub".to_string(),
            JsonValue::Str(ev.subsystem.name().to_string()),
        ),
        ("name".to_string(), JsonValue::Str(ev.name.to_string())),
    ];
    if let Some((b, f)) = ev.device {
        out.push(("board".to_string(), JsonValue::U64(b.into())));
        out.push(("fpga".to_string(), JsonValue::U64(f.into())));
    }
    if let Some(d) = ev.dur_ns {
        out.push(("dur_ns".to_string(), JsonValue::U64(d)));
    }
    out.extend(
        ev.fields
            .iter()
            .map(|&(k, v)| (k.to_string(), as_written(v))),
    );
    out
}

/// Equality that tells -0.0 from 0.0: floats compare by bit pattern.
fn same(a: &[(String, JsonValue)], b: &[(String, JsonValue)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ka, va), (kb, vb))| {
            ka == kb
                && match (va, vb) {
                    (JsonValue::F64(x), JsonValue::F64(y)) => x.to_bits() == y.to_bits(),
                    _ => va == vb,
                }
        })
}

/// Read every field of `line` through the decoder.
fn decode(line: &str) -> Result<Vec<(String, JsonValue)>, JsonError> {
    let mut object = FlatObject::new(line);
    let mut fields = Vec::new();
    while let Some((key, value)) = object.next_field()? {
        fields.push((key.decode().into_owned(), to_value(value)));
    }
    Ok(fields)
}

/// The decoder rejects wherever the validator rejects, at the same byte.
/// Where the validator accepts, the decoder may still reject an integer
/// its class cannot hold; a line that opens no object it rejects at its
/// first byte past the whitespace.
fn assert_decoder_agrees(line: &str) {
    let decoded = decode(line);
    let body = line.trim_start_matches([' ', '\t', '\r', '\n']);
    if !body.starts_with('{') {
        let err = decoded.expect_err("a line that opens no object");
        assert_eq!(
            (err.at, err.message.as_str()),
            (line.len() - body.len(), "expected '{'"),
            "{line:?}"
        );
        return;
    }
    match validate_json_line(line) {
        Err(e) => assert_eq!(
            decoded.map_err(|d| d.at),
            Err(e.at),
            "validator: {e} on {line:?}"
        ),
        Ok(_) => {
            if let Err(d) = decoded {
                assert!(
                    d.message.starts_with("integer out of"),
                    "decoder: {d} on a valid {line:?}"
                );
            }
        }
    }
}

/// [`assert_decoder_agrees`], except that the decoder may fail first, at
/// an integer its class cannot hold before the validator's error — the
/// pair two edits can make.
fn assert_decoder_fails_first(line: &str) {
    match (decode(line), validate_json_line(line)) {
        (Err(d), Err(v)) if d.at < v.at && d.message.starts_with("integer out of") => {}
        _ => assert_decoder_agrees(line),
    }
}

/// `line` with one ASCII edit at the `pos`-th candidate position: `op`
/// 0 replaces the byte there with `byte`, 1 deletes it, 2 inserts `byte`
/// before it. Only ASCII bytes are replaced or deleted, so the result
/// stays UTF-8.
fn mutate(line: &str, pos: usize, byte: u8, op: u8) -> String {
    let mut bytes = line.as_bytes().to_vec();
    let candidates: Vec<usize> = match op % 3 {
        2 => (0..=line.len())
            .filter(|&i| line.is_char_boundary(i))
            .collect(),
        _ => (0..line.len()).filter(|&i| bytes[i].is_ascii()).collect(),
    };
    let at = candidates[pos % candidates.len()];
    match op % 3 {
        0 => bytes[at] = byte,
        1 => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, byte),
    }
    String::from_utf8(bytes).expect("ASCII edits keep UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_lines_decode_to_what_was_written(
        head in (any::<u64>(), any::<u8>(), any::<u8>()),
        device in (any::<u16>(), any::<u16>(), any::<bool>()),
        dur_ns in (any::<u64>(), any::<bool>()),
        rest in (vec(0usize..64, 0..12), vec((0u8..5, any::<u8>(), any::<u64>(), vec(0usize..64, 0..12)), 0..8)),
    ) {
        let ev = event(head, device, dur_ns, &rest.0, &rest.1);
        let line = ev.to_jsonl();
        validate_json_line(&line).unwrap_or_else(|e| panic!("{e} on {line:?}"));
        let decoded = decode(&line).unwrap_or_else(|e| panic!("{e} on {line:?}"));
        let written = written_fields(&ev);
        prop_assert!(same(&decoded, &written), "{line:?}\n{decoded:?}\n{written:?}");
    }

    #[test]
    fn every_prefix_is_rejected_where_the_validator_rejects(
        head in (any::<u64>(), any::<u8>(), any::<u8>()),
        device in (any::<u16>(), any::<u16>(), any::<bool>()),
        dur_ns in (any::<u64>(), any::<bool>()),
        rest in (vec(0usize..64, 0..8), vec((0u8..5, any::<u8>(), any::<u64>(), vec(0usize..64, 0..8)), 0..4)),
    ) {
        let line = event(head, device, dur_ns, &rest.0, &rest.1).to_jsonl();
        for end in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            let prefix = &line[..end];
            prop_assert!(validate_json_line(prefix).is_err(), "{prefix:?}");
            assert_decoder_agrees(prefix);
        }
    }

    #[test]
    fn mutated_lines_fail_where_the_validator_fails(
        head in (any::<u64>(), any::<u8>(), any::<u8>()),
        device in (any::<u16>(), any::<u16>(), any::<bool>()),
        rest in (vec(0usize..64, 0..8), vec((0u8..5, any::<u8>(), any::<u64>(), vec(0usize..64, 0..8)), 0..4)),
        edits in vec((any::<usize>(), 0u8..128, 0u8..3), 1..24),
    ) {
        let line = event(head, device, (0, false), &rest.0, &rest.1).to_jsonl();
        for (pos, byte, op) in edits {
            assert_decoder_agrees(&mutate(&line, pos, byte, op));
        }
    }

    #[test]
    fn twice_mutated_lines_fail_where_the_decoder_fails(
        head in (any::<u64>(), any::<u8>(), any::<u8>()),
        device in (any::<u16>(), any::<u16>(), any::<bool>()),
        rest in (vec(0usize..64, 0..8), vec((0u8..5, any::<u8>(), any::<u64>(), vec(0usize..64, 0..8)), 0..4)),
        edits in vec(((any::<usize>(), 0u8..10), (any::<usize>(), 0u8..128, 0u8..3)), 1..24),
    ) {
        let line = event(head, device, (0, false), &rest.0, &rest.1).to_jsonl();
        for ((at, digit), (pos, byte, op)) in edits {
            let once = mutate(&line, at, b'0' + digit, 2);
            let twice = mutate(&once, pos, byte, op);
            assert_decoder_fails_first(&twice);
        }
    }
}

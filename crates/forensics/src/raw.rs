//! The decoded-event layer: one JSONL line → one [`RawEvent`].
//!
//! Forensics never probes substrings. Every line goes through the
//! telemetry crate's own [`FlatObject`] — the read side of the
//! `JsonObject` writer that produced it — so the two sides cannot drift,
//! and an in-memory event vector serialized through `write_jsonl` decodes
//! to exactly what a file round trip would (the `from_events` path pins
//! that). The reader scans each line once: the universal keys are matched
//! borrowed from the line, `sev`, `sub` and `name` decode straight into
//! their strings, and only the other keys and string values allocate.

use cibola_telemetry::{FlatObject, JsonToken, JsonValue, TelemetryEvent};

/// Why a dump failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForensicsError {
    /// 1-based line number within the dump (0 for stream-level errors).
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ForensicsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ForensicsError {}

/// One decoded telemetry record. The universal keys are lifted into
/// typed fields; everything else stays in `fields` in emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct RawEvent {
    /// 1-based line of the dump the record came from (its position in
    /// the event vector for [`from_events`]; 0 from a bare
    /// [`RawEvent::parse`]). Stream errors cite it.
    pub line: usize,
    pub t_ns: u64,
    pub severity: String,
    pub subsystem: String,
    pub name: String,
    /// `(board, fpga)` when the event is tied to one device.
    pub device: Option<(u16, u16)>,
    /// Present iff the record is a span.
    pub dur_ns: Option<u64>,
    pub fields: Vec<(String, JsonValue)>,
}

impl RawEvent {
    /// Decode one JSONL line. A universal key that repeats takes its last
    /// value, and one of the wrong type reads as absent.
    pub fn parse(line: &str) -> Result<RawEvent, String> {
        let mut object = FlatObject::new(line);
        let mut t_ns = None;
        let mut severity = None;
        let mut subsystem = None;
        let mut name = None;
        let mut board = None;
        let mut fpga = None;
        let mut dur_ns = None;
        let mut fields = Vec::new();
        while let Some((key, value)) = object.next_field().map_err(|e| e.to_string())? {
            match &*key.decode() {
                "t_ns" => t_ns = value.as_u64(),
                "sev" => severity = owned_str(value),
                "sub" => subsystem = owned_str(value),
                "name" => name = owned_str(value),
                "board" => board = value.as_u64(),
                "fpga" => fpga = value.as_u64(),
                "dur_ns" => dur_ns = value.as_u64(),
                other => fields.push((other.to_string(), value.to_value())),
            }
        }
        let device = match (board, fpga) {
            (Some(b), Some(f)) => Some((b as u16, f as u16)),
            (None, None) => None,
            _ => return Err("board/fpga must appear together".to_string()),
        };
        Ok(RawEvent {
            line: 0,
            t_ns: t_ns.ok_or("missing t_ns")?,
            severity: severity.ok_or("missing sev")?,
            subsystem: subsystem.ok_or("missing sub")?,
            name: name.ok_or("missing name")?,
            device,
            dur_ns,
            fields,
        })
    }

    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
    }

    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
    }

    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_str())
    }

    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_bool())
    }

    /// The correlation id the event carries, if any, with its id space
    /// keyed by field name.
    pub fn correlation(&self) -> Option<(IdSpace, u64)> {
        if let Some(id) = self.u64_field("upset_id") {
            return Some((IdSpace::Upset, id));
        }
        self.u64_field("sefi_id").map(|id| (IdSpace::Sefi, id))
    }
}

/// The decoded text of a string value, copied once out of the line;
/// `None` for any other value.
fn owned_str(value: JsonToken) -> Option<String> {
    match value {
        JsonToken::Str(s) => Some(s.decode().into_owned()),
        _ => None,
    }
}

/// Which correlation-id space an id lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IdSpace {
    Upset,
    Sefi,
}

impl IdSpace {
    pub fn name(self) -> &'static str {
        match self {
            IdSpace::Upset => "upset",
            IdSpace::Sefi => "sefi",
        }
    }
}

/// Decode a whole JSONL dump, skipping blank lines. Each event, and any
/// error, carries its 1-based line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<RawEvent>, ForensicsError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_line(line, i + 1)?);
    }
    Ok(out)
}

/// Decode line `line` of a dump.
fn parse_line(text: &str, line: usize) -> Result<RawEvent, ForensicsError> {
    RawEvent::parse(text)
        .map(|ev| RawEvent { line, ..ev })
        .map_err(|message| ForensicsError { line, message })
}

/// Decode an in-memory event vector by serializing each event through
/// its own `write_jsonl` — the identical path a file dump takes, so the
/// two entry points can never disagree. One line buffer serves every
/// event.
pub fn from_events(events: &[TelemetryEvent]) -> Result<Vec<RawEvent>, ForensicsError> {
    let mut text = String::new();
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            text.clear();
            ev.write_jsonl(&mut text);
            parse_line(&text, i + 1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cibola_telemetry::{Severity, Subsystem};

    #[test]
    fn round_trips_an_event_through_jsonl() {
        let ev = TelemetryEvent::point(Subsystem::Mission, Severity::Info, "mission.upset", 42)
            .with_device(1, 2)
            .with_u64("upset_id", 7)
            .with_str("cause", "config")
            .with_bool("sensitive", true);
        let raw = RawEvent::parse(&ev.to_jsonl()).unwrap();
        assert_eq!(raw.t_ns, 42);
        assert_eq!(raw.name, "mission.upset");
        assert_eq!(raw.device, Some((1, 2)));
        assert_eq!(raw.correlation(), Some((IdSpace::Upset, 7)));
        assert_eq!(raw.str_field("cause"), Some("config"));
        assert_eq!(raw.bool_field("sensitive"), Some(true));
        assert_eq!(raw.u64_field("missing"), None);
    }

    #[test]
    fn rejects_malformed_and_keyless_lines() {
        assert!(RawEvent::parse("not json").is_err());
        assert!(RawEvent::parse("{\"name\":\"x\"}").is_err(), "missing t_ns");
        assert!(
            RawEvent::parse(
                "{\"t_ns\":1,\"sev\":\"info\",\"sub\":\"scrub\",\"name\":\"x\",\"board\":1}"
            )
            .is_err(),
            "board without fpga"
        );
        let err = parse_jsonl("{\"t_ns\":1,\"sev\":\"a\",\"sub\":\"b\",\"name\":\"c\"}\nbroken")
            .unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn cites_the_first_error_in_byte_order_as_the_lint_does() {
        // An out-of-range `t_ns`, then a missing closing brace.
        let line =
            "{\"t_ns\":99999999999999999999,\"sev\":\"info\",\"sub\":\"scrub\",\"name\":\"x\"";
        let dump = format!("{{\"t_ns\":1,\"sev\":\"a\",\"sub\":\"b\",\"name\":\"c\"}}\n{line}\n");
        let err = parse_jsonl(&dump).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (2, "byte 8: integer out of u64 range")
        );
        let lint = cibola_telemetry::validate_telemetry_line(line).unwrap_err();
        assert_eq!(lint.to_string(), err.message);
    }
}

//! The decoded-event layer and the one reader of a telemetry dump:
//! [`read_jsonl`] decodes each non-blank line of any `BufRead` into a
//! [`RawEvent`] that carries its line number. Every line goes through the
//! telemetry crate's own [`FlatObject`] — the read side of the
//! `JsonObject` writer that produced it — so the two sides cannot drift,
//! and an in-memory event vector serialized through `write_jsonl` decodes
//! to exactly what a file round trip would (the `from_events` path pins
//! that). The reader scans each line once into two allocations: one
//! buffer, the line as read followed by the decoded text of any key or
//! string value that carried an escape, and one list of fields. Every key
//! and string reads through a span of that buffer.

use std::borrow::Cow;
use std::fmt;
use std::io::BufRead;
use std::ops::Range;

use cibola_telemetry::{
    known_event_required_fields, soh_meta_for, FlatObject, JsonStr, JsonToken, TelemetryEvent,
};

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
/// typed fields and accessors; everything else reads through
/// [`fields`](Self::fields) in emission order. Two events are equal when
/// they say the same thing, whatever their buffers hold.
#[derive(Clone)]
pub struct RawEvent {
    /// 1-based line of the dump the record came from (its position in
    /// the event vector for [`from_events`]; 0 from a bare
    /// [`RawEvent::parse`]). Stream errors cite it.
    pub line: usize,
    pub t_ns: u64,
    /// `(board, fpga)` when the event is tied to one device.
    pub device: Option<(u16, u16)>,
    /// Present iff the record is a span.
    pub dur_ns: Option<u64>,
    /// The line as read, then the decoded text of every key or string
    /// value that carried an escape and of every nested value.
    text: Box<str>,
    severity: Span,
    subsystem: Span,
    name: Span,
    fields: Box<[(Span, Slot)]>,
}

/// A byte range of an event's buffer.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// `range` as a span; the reader bounds a line so that every offset
    /// of its buffer fits.
    fn new(range: Range<usize>) -> Span {
        let offset = |at| u32::try_from(at).expect("a decoded line's buffer fits u32 offsets");
        Span {
            start: offset(range.start),
            end: offset(range.end),
        }
    }
}

/// A field value as an event holds it: numbers, bools and null inline,
/// text as a span of the event's buffer.
#[derive(Debug, Clone, Copy)]
enum Slot {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(Span),
    Null,
    Raw(Span),
}

/// A field value borrowed from a [`RawEvent`]. Numbers keep the class
/// their text has: an integer without sign is `U64`, a signed one `I64`,
/// anything with a decimal point or exponent `F64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RawValue<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(&'a str),
    Null,
    /// A nested array or object, as raw JSON text (telemetry events are
    /// flat; nested values appear only in metrics snapshots).
    Raw(&'a str),
}

impl<'a> RawValue<'a> {
    pub fn as_u64(self) -> Option<u64> {
        match self {
            RawValue::U64(v) => Some(v),
            _ => None,
        }
    }

    /// Any numeric class widened to f64.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            RawValue::U64(v) => Some(v as f64),
            RawValue::I64(v) => Some(v as f64),
            RawValue::F64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(self) -> Option<&'a str> {
        match self {
            RawValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(self) -> Option<bool> {
        match self {
            RawValue::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// What decoding reuses from one line to the next: the fields read so
/// far and the text the event keeps past its line.
#[derive(Debug, Default)]
struct Scratch {
    fields: Vec<(Span, Slot)>,
    tail: String,
}

/// The text an event keeps past its line, appended after it in the
/// event's buffer.
struct Tail<'s> {
    line_len: usize,
    text: &'s mut String,
}

impl Tail<'_> {
    fn push(&mut self, text: &str) -> Span {
        let start = self.line_len + self.text.len();
        self.text.push_str(text);
        Span::new(start..start + text.len())
    }

    /// Where the string `s` reads in the buffer: its own bytes of the line
    /// unless it carried an escape, else its decoded text appended.
    fn span(&mut self, s: JsonStr, decoded: Cow<str>) -> Span {
        match decoded {
            Cow::Borrowed(_) => Span::new(s.range()),
            Cow::Owned(text) => self.push(&text),
        }
    }

    fn str_span(&mut self, value: JsonToken) -> Option<Span> {
        match value {
            JsonToken::Str(s) => Some(self.span(s, s.decode())),
            _ => None,
        }
    }

    fn slot(&mut self, value: JsonToken) -> Slot {
        match value {
            JsonToken::U64(v) => Slot::U64(v),
            JsonToken::I64(v) => Slot::I64(v),
            JsonToken::F64(v) => Slot::F64(v),
            JsonToken::Bool(v) => Slot::Bool(v),
            JsonToken::Str(s) => Slot::Str(self.span(s, s.decode())),
            JsonToken::Null => Slot::Null,
            JsonToken::Raw(r) => Slot::Raw(self.push(r)),
        }
    }
}

impl RawEvent {
    /// Decode one JSONL line, then check the per-line half of the emitter
    /// contract: `t_ns` is the first key; `t_ns`, `sev`, `sub` and `name`
    /// are present; a known event carries every field
    /// `known_event_required_fields` lists; an SOH event carries the
    /// severity `SOH_EVENT_META` assigns it. A malformed line fails with
    /// its first error in byte order. A universal key that repeats takes
    /// its last value, and one of the wrong type reads as absent.
    pub fn parse(line: &str) -> Result<RawEvent, String> {
        Self::decode(line, &mut Scratch::default())
    }

    /// [`parse`](Self::parse) through `scratch`, so that the event itself
    /// is the only allocation a line costs.
    fn decode(line: &str, scratch: &mut Scratch) -> Result<RawEvent, String> {
        // The buffer is at most twice the line: decoding only shortens the
        // text it appends, and no byte of the line is appended twice.
        if line.len() > u32::MAX as usize / 2 {
            return Err(format!("line of {} bytes is too long", line.len()));
        }
        let Scratch { fields, tail } = scratch;
        fields.clear();
        tail.clear();
        let mut tail = Tail {
            line_len: line.len(),
            text: tail,
        };
        let mut object = FlatObject::new(line);
        let mut first_is_t_ns = None;
        let mut t_ns = None;
        let mut severity = None;
        let mut subsystem = None;
        let mut name = None;
        let mut board = None;
        let mut fpga = None;
        let mut dur_ns = None;
        while let Some((key, value)) = object.next_field().map_err(|e| e.to_string())? {
            let decoded = key.decode();
            first_is_t_ns.get_or_insert(decoded == "t_ns");
            match &*decoded {
                "t_ns" => t_ns = value.as_u64(),
                "sev" => severity = tail.str_span(value),
                "sub" => subsystem = tail.str_span(value),
                "name" => name = tail.str_span(value),
                "board" => board = value.as_u64(),
                "fpga" => fpga = value.as_u64(),
                "dur_ns" => dur_ns = value.as_u64(),
                _ => {
                    let key = tail.span(key, decoded);
                    fields.push((key, tail.slot(value)));
                }
            }
        }
        if first_is_t_ns == Some(false) {
            return Err("first key must be \"t_ns\"".to_string());
        }
        let device = match (board, fpga) {
            (Some(b), Some(f)) => Some((
                u16::try_from(b).map_err(|_| "board out of u16 range")?,
                u16::try_from(f).map_err(|_| "fpga out of u16 range")?,
            )),
            (None, None) => None,
            _ => return Err("board/fpga must appear together".to_string()),
        };
        let t_ns = t_ns.ok_or("missing t_ns")?;
        let severity = severity.ok_or("missing sev")?;
        let subsystem = subsystem.ok_or("missing sub")?;
        let name = name.ok_or("missing name")?;
        let mut text = String::with_capacity(line.len() + tail.text.len());
        text.push_str(line);
        text.push_str(tail.text);
        let ev = RawEvent {
            line: 0,
            t_ns,
            device,
            dur_ns,
            text: text.into_boxed_str(),
            severity,
            subsystem,
            name,
            fields: fields.as_slice().into(),
        };
        let required = known_event_required_fields(ev.name()).unwrap_or_default();
        if let Some(field) = required.iter().find(|&&f| ev.field(f).is_none()) {
            return Err(format!(
                "event {:?} is missing required field {field:?}",
                ev.name()
            ));
        }
        if let Some(meta) = soh_meta_for(ev.name()) {
            if ev.severity() != meta.severity.name() {
                return Err(format!(
                    "{} severity {:?} != SOH table {:?}",
                    ev.name(),
                    ev.severity(),
                    meta.severity.name()
                ));
            }
        }
        Ok(ev)
    }

    fn text(&self, span: Span) -> &str {
        &self.text[span.start as usize..span.end as usize]
    }

    fn bytes(&self, span: Span) -> &[u8] {
        &self.text.as_bytes()[span.start as usize..span.end as usize]
    }

    fn value(&self, slot: Slot) -> RawValue<'_> {
        match slot {
            Slot::U64(v) => RawValue::U64(v),
            Slot::I64(v) => RawValue::I64(v),
            Slot::F64(v) => RawValue::F64(v),
            Slot::Bool(v) => RawValue::Bool(v),
            Slot::Str(s) => RawValue::Str(self.text(s)),
            Slot::Null => RawValue::Null,
            Slot::Raw(s) => RawValue::Raw(self.text(s)),
        }
    }

    pub fn severity(&self) -> &str {
        self.text(self.severity)
    }

    pub fn subsystem(&self) -> &str {
        self.text(self.subsystem)
    }

    pub fn name(&self) -> &str {
        self.text(self.name)
    }

    /// Every key other than the universal ones, with its value, in
    /// emission order.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = (&str, RawValue<'_>)> + '_ {
        self.fields
            .iter()
            .map(|&(key, value)| (self.text(key), self.value(value)))
    }

    /// The value of the first field named `key`.
    fn field(&self, key: &str) -> Option<RawValue<'_>> {
        let key = key.as_bytes();
        let &(_, value) = self.fields.iter().find(|(k, _)| self.bytes(*k) == key)?;
        Some(self.value(value))
    }

    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.field(key)?.as_u64()
    }

    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.field(key)?.as_f64()
    }

    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.field(key)?.as_str()
    }

    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.field(key)?.as_bool()
    }

    /// The correlation id the event carries, if any, with its id space
    /// keyed by field name.
    pub fn correlation(&self) -> Option<(IdSpace, u64)> {
        [IdSpace::Upset, IdSpace::Sefi]
            .into_iter()
            .find_map(|space| Some((space, self.u64_field(space.key())?)))
    }
}

impl PartialEq for RawEvent {
    fn eq(&self, other: &RawEvent) -> bool {
        self.line == other.line
            && self.t_ns == other.t_ns
            && self.severity() == other.severity()
            && self.subsystem() == other.subsystem()
            && self.name() == other.name()
            && self.device == other.device
            && self.dur_ns == other.dur_ns
            && self.fields().eq(other.fields())
    }
}

impl fmt::Debug for RawEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawEvent")
            .field("line", &self.line)
            .field("t_ns", &self.t_ns)
            .field("severity", &self.severity())
            .field("subsystem", &self.subsystem())
            .field("name", &self.name())
            .field("device", &self.device)
            .field("dur_ns", &self.dur_ns)
            .field("fields", &self.fields().collect::<Vec<_>>())
            .finish()
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

    /// The field that carries an id of this space.
    pub(crate) fn key(self) -> &'static str {
        match self {
            IdSpace::Upset => "upset_id",
            IdSpace::Sefi => "sefi_id",
        }
    }
}

/// Decode a JSONL dump line by line through one reused buffer: one event
/// per non-blank line, each carrying its 1-based line, as is any error.
/// Lines split as `str::lines` splits them (`\n` or `\r\n` ends a line,
/// the last needs no ending), and whitespace-only lines are skipped. A
/// byte that is not UTF-8 fails at its line; an I/O error fails at the
/// line being read and ends the stream.
pub fn read_jsonl(
    mut reader: impl BufRead,
) -> impl Iterator<Item = Result<RawEvent, ForensicsError>> {
    let (mut buf, mut line, mut done) = (Vec::new(), 0, false);
    let mut scratch = Scratch::default();
    std::iter::from_fn(move || {
        while !done {
            buf.clear();
            line += 1;
            let message = match reader.read_until(b'\n', &mut buf) {
                Ok(0) => break,
                Ok(_) => {
                    let text = buf.strip_suffix(b"\n");
                    let text = text.map_or(&buf[..], |l| l.strip_suffix(b"\r").unwrap_or(l));
                    match std::str::from_utf8(text) {
                        Ok(text) if text.trim().is_empty() => continue,
                        Ok(text) => return Some(parse_line(text, line, &mut scratch)),
                        Err(e) => format!("byte {}: invalid UTF-8", e.valid_up_to()),
                    }
                }
                Err(e) => {
                    done = true;
                    e.to_string()
                }
            };
            return Some(Err(ForensicsError { line, message }));
        }
        None
    })
}

/// [`read_jsonl`] over a dump held in memory, collected.
pub fn parse_jsonl(text: &str) -> Result<Vec<RawEvent>, ForensicsError> {
    read_jsonl(text.as_bytes()).collect()
}

/// Decode line `line` of a dump.
fn parse_line(text: &str, line: usize, scratch: &mut Scratch) -> Result<RawEvent, ForensicsError> {
    match RawEvent::decode(text, scratch) {
        Ok(mut ev) => {
            ev.line = line;
            Ok(ev)
        }
        Err(message) => Err(ForensicsError { line, message }),
    }
}

/// Decode an in-memory event vector one event at a time, through each
/// event's own `write_jsonl` — the path a file dump takes — and one line
/// buffer; event `i` reads as line `i + 1`.
pub fn from_events(
    events: &[TelemetryEvent],
) -> impl Iterator<Item = Result<RawEvent, ForensicsError>> + '_ {
    let (mut text, mut scratch) = (String::new(), Scratch::default());
    events.iter().enumerate().map(move |(i, ev)| {
        text.clear();
        ev.write_jsonl(&mut text);
        parse_line(&text, i + 1, &mut scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cibola_telemetry::{JsonError, Severity, Subsystem};

    const LINE: &str = "{\"t_ns\":1,\"sev\":\"a\",\"sub\":\"b\",\"name\":\"c\"}";

    /// The first error a `FlatObject` walk over every field of `line` meets.
    fn walk_error(line: &str) -> JsonError {
        let mut object = FlatObject::new(line);
        std::iter::from_fn(|| object.next_field().transpose())
            .find_map(Result::err)
            .unwrap_or_else(|| panic!("{line:?} reads whole"))
    }

    #[test]
    fn round_trips_an_event_through_jsonl() {
        let ev = TelemetryEvent::point(Subsystem::Mission, Severity::Info, "mission.upset", 42)
            .with_device(1, 2)
            .with_u64("upset_id", 7)
            .with_str("cause", "config")
            .with_bool("sensitive", true)
            .with_bool("repairable", true);
        let raw = RawEvent::parse(&ev.to_jsonl()).unwrap();
        assert_eq!(raw.t_ns, 42);
        assert_eq!(raw.name(), "mission.upset");
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
        // A device index the writer's u16 cannot hold is not truncated.
        let far =
            "{\"t_ns\":1,\"sev\":\"a\",\"sub\":\"b\",\"name\":\"c\",\"board\":65537,\"fpga\":0}";
        assert_eq!(RawEvent::parse(far).unwrap_err(), "board out of u16 range");
        let err = parse_jsonl(&format!("{LINE}\nbroken")).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn cites_the_first_error_in_byte_order_as_the_lint_does() {
        // An out-of-range `t_ns`, then a missing closing brace.
        let line =
            "{\"t_ns\":99999999999999999999,\"sev\":\"info\",\"sub\":\"scrub\",\"name\":\"x\"";
        let err = parse_jsonl(&format!("{LINE}\n{line}\n")).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (2, "byte 8: integer out of u64 range")
        );
        assert_eq!(walk_error(line).to_string(), err.message);
    }

    #[test]
    fn telemetry_line_requires_keys() {
        let shape = |line: &str| RawEvent::parse(line).map(|_| ());
        assert_eq!(shape(LINE), Ok(()));
        assert_eq!(shape("{}"), Err("missing t_ns".to_string()));
        assert_eq!(shape("[1,2]"), Err("byte 0: expected '{'".to_string()));
        // The keys are read, not searched for: `t_ns` must lead, and a
        // nested object's key is no top-level key.
        assert_eq!(
            shape("{\"name\":\"c\",\"t_ns\":1,\"sev\":\"a\",\"sub\":\"b\"}"),
            Err("first key must be \"t_ns\"".to_string())
        );
        assert_eq!(
            shape("{\"t_ns\":1,\"sev\":\"a\",\"sub\":\"b\",\"meta\":{\"name\":\"c\"}}"),
            Err("missing name".to_string())
        );
        assert_eq!(
            shape("{\"t_\\u006es\":1,\"sev\":\"a\",\"sub\":\"b\",\"name\":\"c\"}"),
            Ok(())
        );
    }

    #[test]
    fn telemetry_line_fails_where_the_decoder_fails_first() {
        let at = |line: &str| RawEvent::parse(line).unwrap_err();
        // An integer too large for its class comes before the missing
        // brace, and the decoder meets it first.
        let line = "{\"t_ns\":99999999999999999999,\"name\":\"x\"";
        assert_eq!(at(line), "byte 8: integer out of u64 range");
        assert_eq!(at(line), walk_error(line).to_string());
        // A syntax error outranks the shape of a line that does not read
        // whole; a line that does not open an object fails at its start.
        assert_eq!(at("{\"name\":\"x\",\"t_ns\":1,}"), "byte 21: expected '\"'");
        assert_eq!(at(" [1,2]"), "byte 1: expected '{'");
    }

    #[test]
    fn checks_required_fields_and_soh_severity() {
        let line = |sev: &str, name: &str, rest: &str| {
            format!("{{\"t_ns\":1,\"sev\":\"{sev}\",\"sub\":\"scrub\",\"name\":\"{name}\"{rest}}}")
        };
        assert_eq!(
            RawEvent::parse(&line("info", "strategy.queue_wait", "")).unwrap_err(),
            "event \"strategy.queue_wait\" is missing required field \"rounds\""
        );
        assert!(RawEvent::parse(&line("info", "strategy.queue_wait", ",\"rounds\":2")).is_ok());
        assert_eq!(
            RawEvent::parse(&line("info", "scrub.port_reset", "")).unwrap_err(),
            "scrub.port_reset severity \"info\" != SOH table \"warning\""
        );
        assert!(RawEvent::parse(&line("warning", "scrub.port_reset", "")).is_ok());
    }

    #[test]
    fn reader_splits_lines_as_str_lines_does() {
        let dump = format!("{LINE}\r\n\n \t\r\n{LINE}\n\r\n{LINE}");
        let lines: Vec<usize> = read_jsonl(dump.as_bytes())
            .map(|ev| ev.unwrap().line)
            .collect();
        assert_eq!(lines, [1, 4, 6]);
        let expected: Vec<usize> = dump
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(lines, expected);
        // A bare `\r` ends no line; JSON reads it as trailing whitespace.
        assert_eq!(read_jsonl(format!("{LINE}\r").as_bytes()).count(), 1);
    }

    #[test]
    fn reader_cites_the_line_of_an_undecodable_byte() {
        let mut dump = format!("{LINE}\n\n{LINE}\n").into_bytes();
        dump.extend_from_slice(b"{\"t_ns\":1,\"n\xFF");
        let mut events = read_jsonl(&dump[..]);
        assert_eq!(events.next().unwrap().unwrap().line, 1);
        assert_eq!(events.next().unwrap().unwrap().line, 3);
        let err = events.next().unwrap().unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (4, "byte 12: invalid UTF-8")
        );
    }

    #[test]
    fn reader_cites_an_io_error_at_its_line_and_stops() {
        struct Lost;
        impl std::io::Read for Lost {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("link lost"))
            }
        }
        let dump = format!("{LINE}\n");
        let reader = std::io::BufReader::new(std::io::Read::chain(dump.as_bytes(), Lost));
        let events: Vec<_> = read_jsonl(reader).collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].as_ref().unwrap().line, 1);
        let err = events[1].as_ref().unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (2, "link lost"));
    }
}

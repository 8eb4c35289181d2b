//! Minimal JSON emission and validation.
//!
//! The build environment has no route to a crates registry, so there is no
//! `serde`; the telemetry layer hand-rolls the tiny subset of JSON it
//! needs. Three parts:
//!
//! * [`JsonObject`] — an ordered object writer (the JSONL emitters). It
//!   appends to one buffer, so a whole dump is written without a
//!   per-line or per-number allocation.
//! * [`FlatObject`] — the one-pass reader of a flat object line: each
//!   top-level key and value comes back borrowed from the line, so a
//!   caller allocates only what it keeps.
//! * [`validate_json_line`] — a strict single-value parser the tests use
//!   to prove every emitted line is well-formed, standalone JSON, and the
//!   oracle the reader's property tests hold [`FlatObject`] to.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::ops::Range;

/// Append `s` JSON-escaped (quoted) to `out`. Each run of characters that
/// needs no escape is copied in one push, so a plain name costs one copy.
pub fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append the decimal digits of `v` to `out` without allocating.
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Append `v` as a JSON number, or `null` when it is not finite.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a decimal
        // point or exponent, so integers stay distinguishable from floats.
        write!(out, "{v:?}").expect("writing to a String cannot fail");
    } else {
        out.push_str("null");
    }
}

/// Render an `f64` as a JSON number. JSON has no NaN/Inf; they are mapped
/// to `null` (the lint flags them as values, never as parse errors).
pub fn f64_to_json(v: f64) -> String {
    let mut s = String::new();
    push_f64(&mut s, v);
    s
}

/// An insertion-ordered JSON object writer.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    pub fn new() -> Self {
        Self::extending(String::new())
    }

    /// A writer that appends the object to `buf`; [`finish`](Self::finish)
    /// hands the buffer back with the object closed.
    pub fn extending(mut buf: String) -> Self {
        buf.push('{');
        JsonObject { buf, any: false }
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        escape_into(&mut self.buf, k);
        self.buf.push(':');
    }

    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        escape_into(&mut self.buf, v);
    }

    pub fn num_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        push_u64(&mut self.buf, v);
    }

    pub fn num_i64(&mut self, k: &str, v: i64) {
        self.key(k);
        if v < 0 {
            self.buf.push('-');
        }
        push_u64(&mut self.buf, v.unsigned_abs());
    }

    pub fn num_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        push_f64(&mut self.buf, v);
    }

    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Insert a pre-rendered JSON value verbatim (arrays, nested objects).
    pub fn raw(&mut self, k: &str, json: &str) {
        self.key(k);
        self.buf.push_str(json);
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Render a slice of f64 as a JSON array.
pub fn f64_array(vals: &[f64]) -> String {
    let mut s = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_f64(&mut s, *v);
    }
    s.push(']');
    s
}

/// Render a slice of u64 as a JSON array.
pub fn u64_array(vals: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_u64(&mut s, *v);
    }
    s.push(']');
    s
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Why a line failed JSON validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error within the line.
    pub at: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.at, self.message)
    }
}

#[derive(Debug)]
struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    #[inline]
    fn new(s: &'a str) -> Self {
        Parser {
            s,
            b: s.as_bytes(),
            i: 0,
        }
    }

    fn err<T>(&self, message: &str) -> Result<T, JsonError> {
        Err(JsonError {
            at: self.i,
            message: message.to_string(),
        })
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    #[inline]
    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(drop),
            Some(_) => self.err("expected a JSON value"),
            None => self.err("unexpected end of input"),
        }
    }

    #[inline]
    fn literal(&mut self, lit: &[u8]) -> Result<(), JsonError> {
        if self.b[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(())
        } else {
            self.err("malformed literal")
        }
    }

    fn object(&mut self) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<(), JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    /// Scan the string at the cursor and return its body, borrowed from
    /// the line with escapes unresolved.
    #[inline]
    fn string(&mut self) -> Result<JsonStr<'a>, JsonError> {
        self.expect(b'"')?;
        let start = self.i;
        let mut escaped = false;
        loop {
            // Skip the run of plain characters in one sweep.
            self.i += self.b[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.b.len() - self.i);
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(JsonStr {
                        raw: &self.s[start..self.i - 1],
                        start,
                        escaped,
                    });
                }
                Some(b'\\') => {
                    escaped = true;
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.i += 1,
                                    _ => return self.err("bad \\u escape"),
                                }
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                Some(c) if c < 0x20 => return self.err("raw control character in string"),
                Some(_) => self.i += 1,
            }
        }
    }

    /// Scan the number at the cursor. Returns whether it is integral (no
    /// fraction, no exponent) and its magnitude accumulated from the
    /// integer digits as they are scanned (`None` past `u64::MAX`).
    #[inline]
    fn number(&mut self) -> Result<(bool, Option<u64>), JsonError> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut digits = 0;
        let mut magnitude = Some(0u64);
        while let Some(c @ b'0'..=b'9') = self.peek() {
            magnitude = magnitude
                .and_then(|m| m.checked_mul(10))
                .and_then(|m| m.checked_add(u64::from(c - b'0')));
            self.i += 1;
            digits += 1;
        }
        if digits == 0 {
            return self.err("expected digits");
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.i += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
                frac += 1;
            }
            if frac == 0 {
                return self.err("expected fraction digits");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.i += 1;
                exp += 1;
            }
            if exp == 0 {
                return self.err("expected exponent digits");
            }
        }
        Ok((integral, magnitude))
    }

    /// Scan one value and return it borrowed from the line.
    #[inline]
    fn token(&mut self) -> Result<JsonToken<'a>, JsonError> {
        self.skip_ws();
        let start = self.i;
        let at_start = |message: &str| JsonError {
            at: start,
            message: message.to_string(),
        };
        match self.peek() {
            Some(b'"') => Ok(JsonToken::Str(self.string()?)),
            Some(b't') => {
                self.literal(b"true")?;
                Ok(JsonToken::Bool(true))
            }
            Some(b'f') => {
                self.literal(b"false")?;
                Ok(JsonToken::Bool(false))
            }
            Some(b'n') => {
                self.literal(b"null")?;
                Ok(JsonToken::Null)
            }
            Some(b'{' | b'[') => {
                self.value()?;
                Ok(JsonToken::Raw(&self.s[start..self.i]))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let (integral, magnitude) = self.number()?;
                if !integral {
                    self.s[start..self.i]
                        .parse::<f64>()
                        .map(JsonToken::F64)
                        .map_err(|_| at_start("unparseable float"))
                } else if c == b'-' {
                    // i64::MIN's magnitude is one past i64::MAX.
                    match magnitude {
                        Some(m) if m <= 1 << 63 => Ok(JsonToken::I64((m as i64).wrapping_neg())),
                        _ => Err(at_start("integer out of i64 range")),
                    }
                } else {
                    magnitude
                        .map(JsonToken::U64)
                        .ok_or_else(|| at_start("integer out of u64 range"))
                }
            }
            Some(_) => self.err("expected a JSON value"),
            None => self.err("unexpected end of input"),
        }
    }
}

/// A JSON string borrowed from the line it was read from: the text
/// between the quotes, escapes still unresolved, and where in the line
/// that text starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonStr<'a> {
    raw: &'a str,
    start: usize,
    escaped: bool,
}

impl<'a> JsonStr<'a> {
    /// The byte range of the text between the quotes within the line: the
    /// decoded text itself whenever [`decode`](Self::decode) borrows.
    pub fn range(self) -> Range<usize> {
        self.start..self.start + self.raw.len()
    }

    /// The decoded text, borrowed from the line unless it holds escapes.
    /// A `\u` escape that names no scalar value (a lone surrogate)
    /// decodes to U+FFFD.
    #[inline]
    pub fn decode(self) -> Cow<'a, str> {
        let raw = self.raw;
        if !self.escaped {
            return Cow::Borrowed(raw);
        }
        let b = raw.as_bytes();
        let mut out = String::with_capacity(raw.len());
        let mut run = 0;
        let mut i = 0;
        while i < b.len() {
            if b[i] != b'\\' {
                i += 1;
                continue;
            }
            out.push_str(&raw[run..i]);
            // The scanner admitted only well-formed escapes.
            let (c, len) = match b[i + 1] {
                b'b' => ('\u{0008}', 2),
                b'f' => ('\u{000c}', 2),
                b'n' => ('\n', 2),
                b'r' => ('\r', 2),
                b't' => ('\t', 2),
                b'u' => {
                    let code = u32::from_str_radix(&raw[i + 2..i + 6], 16).unwrap_or(0xFFFD);
                    (char::from_u32(code).unwrap_or('\u{FFFD}'), 6)
                }
                other => (other as char, 2),
            };
            out.push(c);
            i += len;
            run = i;
        }
        out.push_str(&raw[run..]);
        Cow::Owned(out)
    }
}

/// One top-level value borrowed from the line it was read from. Numbers
/// are already decoded and keep their lexical class: an integral token
/// without sign is `U64`, a signed integral token `I64`, anything with a
/// decimal point or exponent `F64` — mirroring how [`JsonObject`] wrote
/// it, so a round trip through [`FlatObject`] is type-faithful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JsonToken<'a> {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(JsonStr<'a>),
    Null,
    /// A nested array or object, as raw JSON text (telemetry events are
    /// flat; nested values appear only in metrics snapshots).
    Raw(&'a str),
}

impl JsonToken<'_> {
    #[inline]
    pub fn as_u64(self) -> Option<u64> {
        match self {
            JsonToken::U64(v) => Some(v),
            _ => None,
        }
    }
}

/// The one-pass reader of a flat telemetry object line — the read side
/// of [`JsonObject`]. Each [`next_field`](Self::next_field) scans one
/// top-level `key: value` pair and returns both borrowed from the line,
/// so a caller allocates only what it keeps. The line must be exactly one
/// JSON object with no trailing garbage; the call that reaches the
/// closing brace checks that, so a caller that reads every field has
/// validated the whole line.
#[derive(Debug)]
pub struct FlatObject<'a> {
    p: Parser<'a>,
    state: FlatState,
}

#[derive(Debug, Clone, Copy)]
enum FlatState {
    /// Before the opening brace.
    Open,
    /// After the opening brace or a field.
    Fields,
    /// Past the closing brace.
    Closed,
}

impl<'a> FlatObject<'a> {
    #[inline]
    pub fn new(line: &'a str) -> Self {
        FlatObject {
            p: Parser::new(line),
            state: FlatState::Open,
        }
    }

    /// The next top-level field in emission order, or `None` once the
    /// object has closed. Inlined, so a caller in another crate scans a
    /// line without a call per field.
    #[inline]
    pub fn next_field(&mut self) -> Result<Option<(JsonStr<'a>, JsonToken<'a>)>, JsonError> {
        let p = &mut self.p;
        match self.state {
            FlatState::Open => {
                p.skip_ws();
                p.expect(b'{')?;
                p.skip_ws();
                self.state = FlatState::Fields;
                if p.peek() == Some(b'}') {
                    p.i += 1;
                    return self.close();
                }
            }
            FlatState::Fields => {
                p.skip_ws();
                match p.peek() {
                    Some(b',') => p.i += 1,
                    Some(b'}') => {
                        p.i += 1;
                        return self.close();
                    }
                    _ => return p.err("expected ',' or '}'"),
                }
            }
            FlatState::Closed => return Ok(None),
        }
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        let value = p.token()?;
        Ok(Some((key, value)))
    }

    fn close<T>(&mut self) -> Result<Option<T>, JsonError> {
        self.state = FlatState::Closed;
        self.p.skip_ws();
        if self.p.i != self.p.b.len() {
            return self.p.err("trailing characters after JSON object");
        }
        Ok(None)
    }
}

/// Validate that `line` is exactly one well-formed JSON value with no
/// trailing garbage. Returns the byte length consumed.
pub fn validate_json_line(line: &str) -> Result<usize, JsonError> {
    let mut p = Parser::new(line);
    p.value()?;
    p.skip_ws();
    if p.i != line.len() {
        return p.err("trailing characters after JSON value");
    }
    Ok(p.i)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A field value owned, as the tests compare it.
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

    impl JsonValue {
        fn as_u64(&self) -> Option<u64> {
            match self {
                JsonValue::U64(v) => Some(*v),
                _ => None,
            }
        }

        fn as_f64(&self) -> Option<f64> {
            match self {
                JsonValue::U64(v) => Some(*v as f64),
                JsonValue::I64(v) => Some(*v as f64),
                JsonValue::F64(v) => Some(*v),
                _ => None,
            }
        }
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

    /// Every top-level field of `line` in emission order, owned; nested
    /// values as [`JsonValue::Raw`].
    fn flat_fields(line: &str) -> Result<Vec<(String, JsonValue)>, JsonError> {
        let mut object = FlatObject::new(line);
        let mut fields = Vec::new();
        while let Some((key, value)) = object.next_field()? {
            fields.push((key.decode().into_owned(), to_value(value)));
        }
        Ok(fields)
    }

    #[test]
    fn object_writer_round_trips_through_validator() {
        let mut o = JsonObject::new();
        o.num_u64("t_ns", u64::MAX);
        o.str("name", "weird \"quoted\"\nname\t\\");
        o.num_i64("delta", -42);
        o.num_f64("ratio", 0.1);
        o.bool("ok", true);
        o.raw("xs", &u64_array(&[1, 2, 3]));
        o.raw("fs", &f64_array(&[0.5, 2.0]));
        let line = o.finish();
        validate_json_line(&line).expect("writer output must parse");
        let fields = flat_fields(&line).expect("writer output decodes");
        assert_eq!(fields[0].0, "t_ns", "the writer's first key");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{'single':1}",
            "{\"a\":01e}",
            "nulls",
            "{\"a\":\u{0007}1}",
        ] {
            assert!(validate_json_line(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn validator_accepts_standard_forms() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "{\"a\":[{\"b\":\"c\\u00e9\"}],\"d\":null}",
            "  {\"x\": 1}  ",
        ] {
            validate_json_line(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
    }

    #[test]
    fn flat_parser_round_trips_writer_output() {
        let mut o = JsonObject::new();
        o.num_u64("t_ns", 42);
        o.str("name", "scrub.port_sefi \"x\"\n");
        o.num_i64("delta", -7);
        o.num_f64("ratio", 0.25);
        o.bool("wedged", true);
        o.raw("xs", &u64_array(&[1, 2]));
        let line = o.finish();
        let fields = flat_fields(&line).expect("writer output parses");
        assert_eq!(fields[0], ("t_ns".to_string(), JsonValue::U64(42)));
        assert_eq!(
            fields[1],
            (
                "name".to_string(),
                JsonValue::Str("scrub.port_sefi \"x\"\n".to_string())
            )
        );
        assert_eq!(fields[2], ("delta".to_string(), JsonValue::I64(-7)));
        assert_eq!(fields[3], ("ratio".to_string(), JsonValue::F64(0.25)));
        assert_eq!(fields[4], ("wedged".to_string(), JsonValue::Bool(true)));
        assert_eq!(
            fields[5],
            ("xs".to_string(), JsonValue::Raw("[1,2]".to_string()))
        );
    }

    #[test]
    fn flat_parser_rejects_non_objects_and_garbage() {
        assert!(flat_fields("[1,2]").is_err());
        assert!(flat_fields("{\"a\":1} x").is_err());
        assert!(flat_fields("{\"a\":}").is_err());
        assert!(flat_fields("{}").unwrap().is_empty());
    }

    #[test]
    fn flat_parser_decodes_escapes_and_classes() {
        let fields = flat_fields(
            "{\"s\":\"a\\u00e9\\tb\",\"big\":18446744073709551615,\"neg\":-1,\"e\":1e3,\"n\":null}",
        )
        .unwrap();
        assert_eq!(fields[0].1, JsonValue::Str("a\u{e9}\tb".to_string()));
        assert_eq!(fields[1].1, JsonValue::U64(u64::MAX));
        assert_eq!(fields[2].1, JsonValue::I64(-1));
        assert_eq!(fields[3].1, JsonValue::F64(1000.0));
        assert_eq!(fields[4].1, JsonValue::Null);
        assert_eq!(fields[3].1.as_f64(), Some(1000.0));
        assert_eq!(fields[1].1.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn f64_rendering_is_json_safe() {
        assert_eq!(f64_to_json(f64::NAN), "null");
        assert_eq!(f64_to_json(f64::INFINITY), "null");
        validate_json_line(&f64_to_json(0.1)).unwrap();
        validate_json_line(&f64_to_json(1e300)).unwrap();
    }
}

//! Minimal deterministic JSON construction.
//!
//! The workspace links no serializer, so telemetry hand-rolls its JSON. Values are built as an explicit tree and written
//! with a stable field order; floats use Rust's shortest-roundtrip `{}` formatting.
//! The result: serializing the same telemetry twice yields the same bytes, which is
//! what makes fixed-seed event logs byte-comparable.

use std::borrow::Cow;
use std::fmt::{self, Write};

/// A JSON value with deterministic serialization.
///
/// Object fields serialize in insertion order — builders keep that order stable
/// (sorted names for registries, fixed per-kind order for events).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`. Also what non-finite floats degrade to, as in `serde_json`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (counters, counts).
    UInt(u64),
    /// A float, written with shortest-roundtrip formatting; non-finite → `null`.
    Num(f64),
    /// A string (escaped on write).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; fields keep insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Build an object from `(key, value)` pairs, preserving order.
    pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Serialize into `out` (compact, no whitespace).
    pub fn write_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::Num(v) => write_f64(*v, out),
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Serialize to a fresh compact string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    /// Numeric view: `Int`/`UInt`/`Num` as `f64`, everything else `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(v) => Some(*v as f64),
            JsonValue::UInt(v) => Some(*v as f64),
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String view (`Str` only).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Object field lookup by key (first match; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(u64::from(v))
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Num(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Arr(v)
    }
}

/// Write a float as a canonical JSON number (or `null` for non-finite values).
///
/// Normalization rules, shared by the NDJSON event log and the exporters so
/// goldens cannot flake on formatting:
/// * non-finite → `null` (as in `serde_json`) — NaN/inf never reach a golden;
/// * `-0.0` → `0` — the sign bit is not observable in sim arithmetic and would
///   otherwise leak platform-dependent rounding into byte-compared logs;
/// * `|v| >= 1e17` or `0 < |v| < 1e-6` → shortest-roundtrip exponent form
///   (`1e300`, `5e-324`) instead of `{}`'s positional expansion, which would
///   print hundreds of digits;
/// * everything else → Rust's shortest-roundtrip `{}` formatting (integral
///   floats print without a decimal point — "3" — still a valid JSON number).
pub fn write_f64(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    if v == 0.0 {
        out.push('0');
        return;
    }
    let magnitude = v.abs();
    if !(1e-6..1e17).contains(&magnitude) {
        let _ = write!(out, "{v:e}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// [`write_f64`] into a fresh string.
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    write_f64(v, &mut out);
    out
}

/// Parse a JSON document into a [`JsonValue`]. Rejects trailing garbage.
///
/// This is the read side of the crate's hand-rolled serializer. It accepts full
/// JSON (nested arrays/objects, escapes, exponent floats) even though the event
/// log emits only flat objects; the log's readers ([`crate::query`],
/// [`mod@crate::diff`]) go through [`Fields::parse`], which shares this parser and
/// builds no tree. Numbers without `.`/`e` parse to `Int`/`UInt` (matching what
/// the writer emitted); everything else becomes `Num`, and a literal that
/// overflows `f64` is a [`ParseError`], not an infinity. Arrays and objects may
/// nest 64 deep; a deeper document is a [`ParseError`], so input from outside
/// the program cannot run the recursive descent out of stack.
pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

/// How deep [`parse`] lets arrays and objects nest. The event log is flat
/// objects, so its readers never come near this.
const MAX_DEPTH: usize = 64;

/// A JSON parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable reason.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// One value of a flat record read by [`Fields::parse`].
#[derive(Clone, Debug, PartialEq)]
pub enum Field<'a> {
    /// A string, borrowed from the line unless it holds an escape.
    Str(Cow<'a, str>),
    /// Any other value, as [`parse`] builds it: a scalar allocates nothing, an
    /// array or object is built by the same recursion.
    Value(JsonValue),
}

impl Field<'_> {
    /// Numeric view, as [`JsonValue::as_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Field::Str(_) => None,
            Field::Value(v) => v.as_f64(),
        }
    }

    /// String view, as [`JsonValue::as_str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            Field::Value(v) => v.as_str(),
        }
    }

    /// Append the value's canonical text: a string unquoted, anything else as
    /// [`JsonValue::render`] writes it.
    pub fn write_text(&self, out: &mut String) {
        match self {
            Field::Str(s) => out.push_str(s),
            Field::Value(v) => v.write_into(out),
        }
    }
}

/// The fields of one flat NDJSON record, read without building a tree: keys and
/// escape-free strings borrow from the line, and the buffer is reused from line
/// to line, so a line whose strings hold no escape costs the allocator nothing.
#[derive(Debug, Default)]
pub struct Fields<'a>(Vec<(Cow<'a, str>, Field<'a>)>);

impl<'a> Fields<'a> {
    /// Read `line` in place of the previous record. Answers exactly as
    /// [`parse`]: the same [`ParseError`] for a line it rejects; `Ok(true)` with
    /// that object's fields, in line order, for an object; `Ok(false)` with no
    /// fields for any other value. The fields are unspecified after an error.
    pub fn parse(&mut self, line: &'a str) -> Result<bool, ParseError> {
        self.0.clear();
        let mut p = Parser::new(line);
        let is_object = p.peek() == Some(b'{');
        if is_object {
            let fields = &mut self.0;
            p.nested(|p| {
                p.object(|p, key| {
                    let value = match p.peek() {
                        Some(b'"') => Field::Str(p.string()?),
                        _ => Field::Value(p.value()?),
                    };
                    fields.push((key, value));
                    Ok(())
                })
            })?;
        } else {
            p.value()?;
        }
        p.finish()?;
        Ok(is_object)
    }

    /// The value of `key`: the first, when the line repeats it (as
    /// [`JsonValue::get`]).
    pub fn get(&self, key: &str) -> Option<&Field<'a>> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Every field, in line order.
    pub fn as_slice(&self) -> &[(Cow<'a, str>, Field<'a>)] {
        &self.0
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the first non-whitespace byte of `text`.
    fn new(text: &'a str) -> Parser<'a> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        p
    }

    /// Reject anything but whitespace after the document.
    fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?.into_owned())),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(|p| {
                let mut fields = Vec::new();
                p.object(|p, key| {
                    fields.push((key.into_owned(), p.value()?));
                    Ok(())
                })?;
                Ok(JsonValue::Obj(fields))
            }),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object, counting it against `MAX_DEPTH`.
    fn nested<T>(
        &mut self,
        container: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// Parse one object, handing each key to `field` to parse its value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    /// A string, borrowed from the input unless it holds an escape; each run of
    /// plain bytes is copied at once. Runs end at an ASCII `"` or `\`, so they
    /// are whole UTF-8 characters of the `&str` input.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            let Some(len) = self.bytes[start..].iter().position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            let run = &self.text[start..start + len];
            self.pos = start + len + 1;
            if self.bytes[start + len] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let escaped = self.escape()?;
            let out = owned.get_or_insert_with(String::new);
            out.push_str(run);
            out.push(escaped);
        }
    }

    /// The character a backslash escape stands for (`pos` just past the `\`).
    fn escape(&mut self) -> Result<char, ParseError> {
        let Some(e) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let Some(hex) = self.bytes.get(self.pos..self.pos + 4) else {
                    return Err(self.err("truncated \\u escape"));
                };
                // Exactly four hex digits: `from_str_radix` would also take a sign.
                let code = hex
                    .iter()
                    .try_fold(0u32, |code, &h| Some(code * 16 + (h as char).to_digit(16)?))
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                self.pos += 4;
                // Surrogates never appear in the writer's output (it emits \u
                // only for C0 controls); map them to the replacement character
                // instead of erroring.
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // JSON's integer part is `0` or starts with 1-9: `01` is not a number.
        if self.peek() == Some(b'0') && self.bytes.get(self.pos + 1).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
            return Err(self.err("leading zero in number"));
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' => {
                    is_float = true;
                    self.pos += 1;
                }
                b'-' if is_float => self.pos += 1, // exponent sign
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            // Keep the writer's integer kinds so parse∘render round-trips.
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(JsonValue::Int(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(v));
            }
        }
        match text.parse::<f64>() {
            // A literal past f64's range parses to infinity, which the writer would
            // re-render as `null` after every sum downstream had carried it.
            Ok(v) if v.is_finite() => Ok(JsonValue::Num(v)),
            Ok(_) => Err(self.err("number overflows f64")),
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

/// Write `s` as a quoted JSON string with the mandatory escapes.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_compactly() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::from(true).render(), "true");
        assert_eq!(JsonValue::from(-3i64).render(), "-3");
        assert_eq!(JsonValue::from(42u64).render(), "42");
        assert_eq!(JsonValue::from(1.5).render(), "1.5");
        assert_eq!(JsonValue::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::from(f64::NAN).render(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).render(), "null");
        assert_eq!(JsonValue::from(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn negative_zero_normalizes_to_zero() {
        assert_eq!(JsonValue::from(-0.0).render(), "0");
        assert_eq!(JsonValue::from(0.0).render(), "0");
    }

    #[test]
    fn exponent_range_values_stay_compact() {
        assert_eq!(JsonValue::from(1e300).render(), "1e300");
        assert_eq!(JsonValue::from(-2.5e200).render(), "-2.5e200");
        assert_eq!(JsonValue::from(1e-300).render(), "1e-300");
        assert_eq!(JsonValue::from(5e-324).render(), "5e-324"); // smallest subnormal
        // Near the cutoffs: ordinary magnitudes keep positional notation.
        assert_eq!(JsonValue::from(1e16).render(), "10000000000000000");
        assert_eq!(JsonValue::from(1e-6).render(), "0.000001");
        assert_eq!(JsonValue::from(9.9e-7).render(), "9.9e-7");
    }

    #[test]
    fn mid_range_floats_keep_shortest_roundtrip_form() {
        assert_eq!(JsonValue::from(0.1).render(), "0.1");
        assert_eq!(JsonValue::from(3.0).render(), "3");
        assert_eq!(fmt_f64(0.30000000000000004), "0.30000000000000004");
    }

    #[test]
    fn strings_escape_control_characters() {
        assert_eq!(JsonValue::from("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(JsonValue::from("\u{1}").render(), "\"\\u0001\"");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let v = JsonValue::obj(vec![
            ("z", JsonValue::from(1u64)),
            ("a", JsonValue::Arr(vec![JsonValue::Null, JsonValue::from(2.0)])),
        ]);
        assert_eq!(v.render(), "{\"z\":1,\"a\":[null,2]}");
    }

    #[test]
    fn parse_round_trips_event_log_lines() {
        for line in [
            "{\"t\":12.5,\"kind\":\"retry\",\"op\":\"s3_get\",\"attempt\":2}",
            "{\"t\":0.30000000000000004,\"kind\":\"queue_wait\",\"wait_secs\":1e-300}",
            "{\"t\":1,\"kind\":\"a\",\"neg\":-3,\"flag\":true,\"nothing\":null}",
            "{\"s\":\"a\\\"b\\\\c\\nd\",\"arr\":[1,2.5,\"x\"],\"obj\":{\"k\":0}}",
            "{}",
            "[]",
        ] {
            let v = parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(v.render(), line, "parse∘render must round-trip");
        }
    }

    #[test]
    fn parse_preserves_number_kinds() {
        let v = parse("{\"u\":3,\"i\":-3,\"f\":3.5}").unwrap();
        assert_eq!(v.get("u"), Some(&JsonValue::UInt(3)));
        assert_eq!(v.get("i"), Some(&JsonValue::Int(-3)));
        assert_eq!(v.get("f"), Some(&JsonValue::Num(3.5)));
        assert_eq!(v.get("u").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1}garbage", "nul", "\"open", "1.2.3"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_rejects_numbers_past_f64_range() {
        for bad in ["1e99999999999999999999", "-1e999", "[1e309]", &"9".repeat(400)] {
            assert_eq!(parse(bad).unwrap_err().message, "number overflows f64", "{bad:?}");
        }
        // The largest finite double, and an integer too wide for u64, still parse.
        assert_eq!(parse("1.7976931348623157e308").unwrap(), JsonValue::Num(f64::MAX));
        assert_eq!(parse("99999999999999999999999").unwrap(), JsonValue::Num(1e23));
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        for nest in [arrays, objects] {
            assert!(parse(&nest(MAX_DEPTH)).is_ok());
            // One past the bound, and a document that recursion could not survive.
            for depth in [MAX_DEPTH + 1, 200_000] {
                let err = parse(&nest(depth)).unwrap_err();
                assert_eq!(err.message, "nesting deeper than 64");
                // ... reported at the bracket that went too deep.
                assert_eq!(err.offset, nest(MAX_DEPTH).find(['1', ']']).unwrap());
            }
        }
        // Unclosed brackets are cut off at the same place, not at end of input.
        assert_eq!(parse(&"[".repeat(200_000)).unwrap_err().message, "nesting deeper than 64");
        // The bound is on depth, not on how many containers a document holds.
        assert!(parse(&format!("[{}[]]", "[],".repeat(1000))).is_ok());
    }

    #[test]
    fn parse_handles_unicode_and_escapes() {
        let v = parse("\"caf\u{e9} \\u0041 \\t\"").unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9} A \t"));
    }

    #[test]
    fn fields_borrow_what_holds_no_escape() {
        let line = r#"{"t":2.5,"kind":"queue_wait","note":"a\"b","n":-3,"arr":[1,{"k":null}],"kind":"x"}"#;
        let mut fields = Fields::default();
        assert_eq!(fields.parse(line), Ok(true));
        assert!(matches!(fields.get("kind"), Some(Field::Str(Cow::Borrowed("queue_wait")))));
        assert!(matches!(fields.get("note"), Some(Field::Str(Cow::Owned(s))) if s == "a\"b"));
        assert!(fields.as_slice().iter().all(|(k, _)| matches!(k, Cow::Borrowed(_))));
        assert_eq!(fields.get("t").and_then(Field::as_f64), Some(2.5));
        assert_eq!(fields.as_slice().len(), 6, "a repeated key is kept, and the first wins");
        let text = |key: &str| {
            let mut out = String::new();
            fields.get(key).unwrap().write_text(&mut out);
            out
        };
        assert_eq!((text("note"), text("n"), text("arr")), ("a\"b".into(), "-3".into(), "[1,{\"k\":null}]".into()));
        assert_eq!(fields.get("missing"), None);
        // A value that is not an object leaves no fields; a rejected line errs as in `parse`.
        assert_eq!(fields.parse(" [1] "), Ok(false));
        assert!(fields.as_slice().is_empty());
        assert_eq!(fields.parse("{\"t\":}"), parse("{\"t\":}").map(|_| true));
        // The record itself counts against the depth bound, as in `parse`.
        let nest = |n: usize| format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
        for depth in [MAX_DEPTH, MAX_DEPTH + 1] {
            let line = nest(depth);
            assert_eq!(Fields::default().parse(&line), parse(&line).map(|_| true), "depth {depth}");
        }
    }

    #[test]
    fn rendering_is_reproducible() {
        let v = JsonValue::obj(vec![("t", JsonValue::from(0.30000000000000004))]);
        assert_eq!(v.render(), v.render());
        assert_eq!(v.render(), "{\"t\":0.30000000000000004}");
    }
}

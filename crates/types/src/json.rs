//! A minimal JSON value model, emitter and parser.
//!
//! The workspace builds fully offline with no third-party crates, so it
//! carries its own ~300-line JSON implementation, shared by the harness
//! result store (JSON-lines records) and the `gps-obs` telemetry exporter
//! (Chrome trace-event files). It supports exactly what those need:
//! objects, arrays, strings with escapes, finite numbers, booleans and
//! null. Numbers are held as `f64`; every count the store persists fits in
//! the 53-bit exact-integer range with room to spare.
//!
//! The parser runs in time linear in its input: a string's plain bytes
//! are copied run by run up to the next `"` or `\`, so multi-megabyte
//! Chrome traces validate in milliseconds. Malformed documents, numbers
//! that overflow to an infinity (`1e400`) and `\u` escapes that are not
//! exactly four hex digits all return an `Err`. Nesting depth is bounded
//! only by the stack; the documents this workspace writes nest only a
//! few levels deep.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved so emission is stable.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64` (must be an exact non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises the value on one line (no trailing newline).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // Rust's shortest-roundtrip Display; JSON has no infinities.
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => emit_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_string(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

fn emit_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next `"` or `\` in one
            // step. Both delimiters are ASCII, so the run ends on a char
            // boundary of the `&str` input and slicing cannot fail.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    // Exactly four hex digits: `from_str_radix` alone would
                    // also accept a leading sign.
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at offset {}", self.pos));
                    }
                    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                    let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                    // Surrogates are not produced by our emitter.
                    out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                    self.pos += 4;
                }
                _ => return Err(format!("bad escape at offset {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            Ok(_) => Err(format!("number out of range {text:?} at offset {start}")),
            Err(_) => Err(format!("bad number {text:?} at offset {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let v = Json::Obj(vec![
            ("s".into(), Json::Str("a \"b\"\n\\c".into())),
            ("n".into(), Json::Num(1.25)),
            ("i".into(), Json::Num(123456789.0)),
            ("b".into(), Json::Bool(true)),
            ("z".into(), Json::Null),
            (
                "a".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Str("x".into())]),
            ),
        ]);
        let text = v.emit();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn accessors_work() {
        let v = Json::parse(r#"{"k": 42, "s": "hi", "a": [1, 2]}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[_]>::len), Some(2));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for f in [0.1, 1.0 / 3.0, 1e-300, 123456.789, -0.0, 2f64.powi(60)] {
            let text = Json::Num(f).emit();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{f} via {text}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "{\"k\" 1}", "tru", "1 2", "{}x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn rejects_non_finite_numbers_and_signed_unicode_escapes() {
        for bad in [
            "1e400",
            "-1e400",
            "[1e999]",
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(Json::parse("1e300").unwrap(), Json::Num(1e300));
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn megabyte_document_roundtrips() {
        // One long string of multi-byte chars and escapes plus many short
        // strings: a parser that rescans the rest of the input per char
        // would take minutes here.
        let long: String = "é€😀\n\"ab\\".repeat(40_000);
        let v = Json::Obj(vec![
            ("long".into(), Json::Str(long)),
            (
                "items".into(),
                Json::Arr((0..50_000).map(|i| Json::Str(format!("s{i}"))).collect()),
            ),
        ]);
        let text = v.emit();
        assert!(text.len() >= 1 << 20, "{} bytes", text.len());
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_and_control_escapes() {
        let v = Json::Str("héllo \u{1} \u{1F600}".into());
        let text = v.emit();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".into()));
    }
}

//! A minimal JSON reader/writer for the analysis-server protocol.
//!
//! The hermetic-build policy (no external crates) rules out `serde`;
//! the protocol needs only a small, strict subset of JSON: objects,
//! arrays, strings with full escape handling, 64-bit integers,
//! booleans and `null`. Non-integer numbers are rejected — no protocol
//! field carries one, and refusing them is safer than silently
//! truncating.

use std::fmt::Write as _;

/// How deeply arrays and objects may nest. Parsing recurses once per
/// level, so an unbounded depth lets one request line overflow the
/// stack; protocol requests nest at most 2 deep.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the only number form the protocol uses).
    Num(i64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer value, if this is a number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nested deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if b == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected character {:?} at byte {}",
                char::from(b),
                self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at byte {start} (not supported)"
            ));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("digits are ASCII")
            .parse::<i64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy unescaped runs wholesale; the input is valid UTF-8,
            // so byte slices between structural characters are too.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("input is UTF-8 and the run breaks on ASCII"),
            );
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape_char()?);
                }
                Some(b) => {
                    return Err(format!(
                        "unescaped control character 0x{b:02x} in string at byte {}",
                        self.pos
                    ))
                }
            }
        }
    }

    fn escape_char(&mut self) -> Result<char, String> {
        let e = self
            .peek()
            .ok_or_else(|| "unterminated escape".to_string())?;
        self.pos += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xd800..0xdc00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if self.peek() != Some(b'\\') {
                        return Err("lone high surrogate".into());
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err("lone high surrogate".into());
                    }
                    self.pos += 1;
                    let lo = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return Err("invalid low surrogate".into());
                    }
                    let c = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                    char::from_u32(c).ok_or("invalid surrogate pair")?
                } else {
                    char::from_u32(hi).ok_or("lone low surrogate")?
                }
            }
            other => {
                return Err(format!(
                    "unknown escape \\{} at byte {}",
                    char::from(other),
                    self.pos - 1
                ))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
        self.pos += 4;
        Ok(v)
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            if !fields.iter().any(|(k, _)| *k == key) {
                fields.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v =
            parse(r#"{"id":3,"op":"analyze","source":"a := 1","options":{"all":true}}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_i64), Some(3));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("analyze"));
        assert_eq!(
            v.get("options")
                .and_then(|o| o.get("all"))
                .and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            parse("[1, -2, 3]").unwrap(),
            Json::Arr(vec![Json::Num(1), Json::Num(-2), Json::Num(3)])
        );
        assert_eq!(parse(" null ").unwrap(), Json::Null);
        assert_eq!(parse("{}").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" back\\slash \u{8} \u{1f} héllo ✓ 𝄞";
        let escaped = escape(original);
        let parsed = parse(&format!("\"{escaped}\"")).unwrap();
        assert_eq!(parsed, Json::Str(original.to_string()));
        // Explicit \u forms, including a surrogate pair.
        assert_eq!(
            parse(r#""\u0041\u00e9\ud834\udd1e""#).unwrap(),
            Json::Str("Aé𝄞".to_string())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "1.5",
            "1e3",
            "tru",
            "\"\\q\"",
            "\"\\ud834\"",
            "\"\\u12\"",
            "{\"a\":1} extra",
            "99999999999999999999",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn nesting_is_limited() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper than 64"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn duplicate_keys_keep_the_first() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn control_characters_escape_as_u_sequences() {
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("\u{7f}"), "\u{7f}".to_string());
    }
}

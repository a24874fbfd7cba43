//! A minimal JSON value, writer and recursive-descent parser.
//!
//! The workspace is offline (no serde); manifests and trace events need
//! only the JSON subset implemented here: objects, arrays, strings,
//! finite numbers, booleans and null. Object member order is preserved,
//! which keeps rendered manifests stable and diffable.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`]: a message and a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Escapes `s` as a JSON string literal, including the quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite `f64` so that it round-trips through [`Json::parse`]
/// (Rust's shortest-round-trip `Display`); non-finite values render as
/// `null` since JSON has no representation for them.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Json {
    /// Looks up `key` in an object; `None` for other variants.
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

    /// The numeric payload as `u64` (must be a non-negative integer).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
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

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Renders compact single-line JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&fmt_f64(*n)),
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(key));
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Renders pretty-printed JSON (two-space indent, one member or
    /// element per line), for documents a person reads.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_pretty_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    for _ in 0..depth + 1 {
                        out.push_str("  ");
                    }
                    item.render_pretty_into(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                for _ in 0..depth {
                    out.push_str("  ");
                }
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in members.iter().enumerate() {
                    for _ in 0..depth + 1 {
                        out.push_str("  ");
                    }
                    out.push_str(&escape(key));
                    out.push_str(": ");
                    value.render_pretty_into(out, depth + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                for _ in 0..depth {
                    out.push_str("  ");
                }
                out.push('}');
            }
            other => other.render_into(out),
        }
    }

    /// Parses one JSON value from `input` (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut parser = Parser {
            text: input,
            bytes,
            at: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.at != bytes.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.at,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.at..];
            let Some(&b) = rest.first() else {
                return Err(self.error("unterminated string"));
            };
            match b {
                b'"' => {
                    self.at += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let escape = rest
                        .get(1)
                        .copied()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.at += 2;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("bad \\u escape"))?;
                            self.at += 4;
                            // Surrogate pairs are not needed by manifests;
                            // map unpaired surrogates to the replacement
                            // character instead of failing.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => {
                    // Copy the run up to the next quote or backslash.
                    // Both are ASCII, so in a `&str` the run ends on a
                    // char boundary.
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.at..self.at + run]);
                    self.at += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.at += 1;
        }
        let token = &self.bytes[start..self.at];
        // At most 15 digits, after an optional `-`, make an integer below
        // 2^53: `as f64` is exact, so these are the bits `str::parse`
        // gives, `-0` included, without its general path.
        let (negative, digits) = match token.strip_prefix(b"-") {
            Some(digits) => (true, digits),
            None => (false, token),
        };
        if (1..=15).contains(&digits.len()) && digits.iter().all(u8::is_ascii_digit) {
            let magnitude = digits.iter().fold(0, |n, &d| n * 10 + u64::from(d - b'0'));
            let value = magnitude as f64;
            return Ok(Json::Num(if negative { -value } else { value }));
        }
        let text = std::str::from_utf8(token).expect("ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        let minus_zero = Json::parse("-0").unwrap().as_f64().map(f64::to_bits);
        assert_eq!(minus_zero, Some((-0.0f64).to_bits()));
        assert_eq!(
            Json::parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":{"d":"e"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("e"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("--5").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let err = Json::parse("nope").unwrap_err();
        assert!(err.to_string().contains("at byte"));
    }

    #[test]
    fn render_round_trips() {
        let text = r#"{"s":"x\"y","n":-1.5,"i":42,"b":true,"z":null,"a":[1,[2]],"o":{}}"#;
        let v = Json::parse(text).unwrap();
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn u64_accessor_guards_fractions_and_sign() {
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(5.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("5".into()).as_u64(), None);
    }

    #[test]
    fn float_display_round_trips_through_parse() {
        for v in [0.1, 1.0 / 3.0, 123456.789012345, 1e-12, 9.87654321e9] {
            let rendered = fmt_f64(v);
            assert_eq!(Json::parse(&rendered).unwrap().as_f64(), Some(v));
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn pretty_rendering_round_trips_and_indents() {
        let v = Json::parse(r#"{"a":[1,{"b":true}],"empty":{},"none":[]}"#).unwrap();
        let pretty = v.render_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": true\n    }\n  ],\n  \"empty\": {},\n  \"none\": []\n}\n"
        );
    }

    #[test]
    fn strings_round_trip_across_runs_and_escapes() {
        for text in [
            "",
            "é",
            "aé",
            "é\"",
            "\\€x",
            "x€\\",
            "日本\n語\t🎉",
            "🎉\"🎉\\🎉",
            "a\u{1}b\u{1f}",
            "\"\"\\\\",
        ] {
            let rendered = escape(text);
            assert_eq!(
                Json::parse(&rendered).unwrap(),
                Json::Str(text.into()),
                "{rendered}"
            );
        }
        // `\u` escapes and `\/` between runs of multi-byte characters.
        assert_eq!(
            Json::parse("\"ü\\u00e9ü\\/ü\"").unwrap(),
            Json::Str("üéü/ü".into())
        );
        // An unterminated run fails at the end of the input.
        assert_eq!(Json::parse("\"abc€").unwrap_err().offset, 7);
    }

    #[test]
    fn a_one_mebibyte_string_round_trips() {
        // Two half-mebibyte runs of two-byte characters around escapes.
        let mut text = "é".repeat(1 << 19);
        text.insert_str(1 << 19, "\"\\\n");
        let rendered = Json::Arr(vec![Json::Str(text.clone())]).render();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed.as_arr().unwrap()[0].as_str(), Some(text.as_str()));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512 })]

        /// Integer tokens of 1–20 digits, short ones through the exact
        /// integer path and long ones through `str::parse`, read as the
        /// bits `str::parse` gives, signed or not, with leading zeros.
        #[test]
        fn integer_tokens_parse_to_the_bits_of_str_parse(
            negative in any::<bool>(),
            zeros in 0usize..4,
            digits in proptest::collection::vec(0u8..10, 1..21),
        ) {
            let mut token = String::from(if negative { "-" } else { "" });
            for (i, &d) in digits.iter().enumerate() {
                token.push(char::from(b'0' + if i < zeros { 0 } else { d }));
            }
            let expected = token.parse::<f64>().unwrap().to_bits();
            let parsed = Json::parse(&token).unwrap().as_f64().map(f64::to_bits);
            prop_assert_eq!(parsed, Some(expected), "{}", token);
        }
    }

    #[test]
    fn escape_handles_control_characters() {
        assert_eq!(escape("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(escape("tab\there"), "\"tab\\there\"");
    }
}

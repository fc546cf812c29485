//! A recursive-descent JSON parser.
//!
//! Accepts standard JSON (RFC 8259). Errors report the byte offset of the
//! failure. Weight snapshots can be tens of megabytes of numbers, so the
//! number fast path avoids allocation, and a fleet shard embeds each
//! device checkpoint as one long escaped string, so strings are copied a
//! run of plain bytes at a time.

use crate::error::JsonError;
use crate::value::Json;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns [`JsonError::Parse`] (with byte offset) on malformed input or
/// trailing garbage.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after top-level value"));
    }
    Ok(value)
}

/// Nesting deeper than this is rejected rather than risking a stack
/// overflow on adversarial input.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError::Parse { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        let out = match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected byte `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        };
        self.depth -= 1;
        out
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // A run of bytes that needs no decoding is copied whole. It
            // stops only at ASCII bytes, which never occur inside a
            // multi-byte scalar, so both ends are char boundaries.
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    /// Parses the 4 hex digits of a `\uXXXX` escape (cursor already past
    /// the `u`), handling surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a low surrogate must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.error("unpaired surrogate"));
                }
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"));
            }
            return Err(self.error("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.error("expected 4 hex digits")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.error("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("expected digits in exponent"));
            }
        }
        let n: f64 = self.text[start..self.pos]
            .parse()
            .map_err(|_| self.error("unparseable number"))?;
        Ok(Json::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use healthmon_check::{run_cases, Gen};

    /// The string decoder before runs were copied whole: one UTF-8
    /// scalar at a time. The property tests pin `Parser::string` to it.
    impl Parser<'_> {
        fn string_reference(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                self.pos += 1;
                                let c = self.unicode_escape()?;
                                out.push(c);
                                continue;
                            }
                            _ => return Err(self.error("invalid escape sequence")),
                        }
                        self.pos += 1;
                    }
                    Some(c) if c < 0x20 => {
                        return Err(self.error("control character in string"))
                    }
                    Some(_) => {
                        let rest = &self.bytes[self.pos..];
                        let ch_len = utf8_len(rest[0]);
                        let s = std::str::from_utf8(&rest[..ch_len])
                            .map_err(|_| self.error("invalid UTF-8 in string"))?;
                        out.push_str(s);
                        self.pos += ch_len;
                    }
                }
            }
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }

    /// Pieces of string source text: plain ASCII (DEL included), every
    /// escape, 2- to 4-byte UTF-8, raw control bytes, paired and lone
    /// surrogate escapes, malformed escapes and an early closing quote.
    const PIECES: &[&str] = &[
        "plain", "a", "0.125,-3e-7", "{}[]:, ", "~\u{7f}", "é", "ж", "€", "中", "😀",
        "\u{10ffff}", "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t",
        "\\u0041", "\\u00e9", "\\u20AC", "\\u0000", "\\u001f", "\\uD83D\\uDE00",
        "\\ud83d\\ude00", "\\uD83D", "\\uDE00", "\\uD83Dx", "\\uD83D\\u0041",
        "\\uD83D\\n", "\\u12G4", "\\x", "\\", "\\u", "\u{0}", "\u{1}", "\n", "\t",
        "\u{1f}", "\"",
    ];

    /// A drawn string source: an opening quote, up to 12 pieces, usually
    /// a closing quote, and sometimes cut at a drawn char boundary.
    fn string_source(g: &mut Gen) -> String {
        let mut text = String::from("\"");
        for _ in 0..g.usize_in(0, 13) {
            text.push_str(PIECES[g.usize_in(0, PIECES.len())]);
        }
        if g.usize_in(0, 4) > 0 {
            text.push('"');
        }
        if g.usize_in(0, 3) == 0 {
            let cut = g.usize_in(0, text.len() + 1);
            let cut = (0..=cut).rev().find(|&i| text.is_char_boundary(i)).unwrap_or(0);
            text.truncate(cut);
        }
        text
    }

    /// Decodes `text` as one string with both decoders; they must agree
    /// on the value or the error, and on where the cursor stops.
    fn assert_decoders_agree(text: &str) -> Result<String, JsonError> {
        let start = |text| Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        let (mut fast, mut reference) = (start(text), start(text));
        let got = fast.string();
        assert_eq!(got, reference.string_reference(), "decoding {text:?}");
        assert_eq!(fast.pos, reference.pos, "cursor after {text:?}");
        got
    }

    #[test]
    fn string_runs_decode_like_the_scalar_reference() {
        run_cases(2048, |g| {
            let _ = assert_decoders_agree(&string_source(g));
        });
    }

    #[test]
    fn string_runs_keep_every_error_kind_and_offset() {
        let cases = [
            ("\"abc", "unterminated string", 4),
            ("\"ab\u{1}c\"", "control character in string", 3),
            ("\"é\nx\"", "control character in string", 3),
            ("\"ab\\x\"", "invalid escape sequence", 4),
            ("\"ab\\", "invalid escape sequence", 4),
            ("\"\\u12G4\"", "expected 4 hex digits", 5),
            ("\"😀\\uD83D\"", "unpaired surrogate", 11),
            ("\"\\uD83D\\u0041\"", "unpaired surrogate", 13),
            ("\"\\uDE00\"", "invalid unicode escape", 7),
        ];
        for (text, message, offset) in cases {
            let expected = JsonError::Parse { offset, message: message.to_owned() };
            assert_eq!(assert_decoders_agree(text), Err(expected), "{text:?}");
        }
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("3").unwrap(), Json::Number(3.0));
        assert_eq!(parse("-2.5e2").unwrap(), Json::Number(-250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::String("hi".into()));
    }

    #[test]
    fn parses_containers() {
        let v = parse("{\"a\": [1, 2, {\"b\": null}], \"c\": false}").unwrap();
        assert_eq!(v.field("c").unwrap(), &Json::Bool(false));
        let arr = v.field("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].field("b").unwrap(), &Json::Null);
    }

    #[test]
    fn parses_empty_containers() {
        assert_eq!(parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Object(vec![]));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        assert_eq!(parse(r#""a\nb\t\"c\"""#).unwrap(), Json::String("a\nb\t\"c\"".into()));
        assert_eq!(parse(r#""é""#).unwrap(), Json::String("é".into()));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(parse(r#""😀""#).unwrap(), Json::String("😀".into()));
        assert_eq!(parse("\"héllo\"").unwrap(), Json::String("héllo".into()));
    }

    #[test]
    fn render_parse_round_trip() {
        let src = Json::Object(vec![
            ("weights".into(), Json::Array(vec![Json::Number(0.125), Json::Number(-3.0)])),
            ("name".into(), Json::String("layer0.weight".into())),
            ("ok".into(), Json::Bool(true)),
        ]);
        assert_eq!(parse(&src.render()).unwrap(), src);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "tru", "[1,", "{\"a\"}", "{\"a\":}", "01x", "\"abc", "[1] extra", "nul"] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn rejects_unpaired_surrogates() {
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83dA""#).is_err());
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn error_reports_offset() {
        match parse("[1, x]") {
            Err(JsonError::Parse { offset, .. }) => assert_eq!(offset, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}

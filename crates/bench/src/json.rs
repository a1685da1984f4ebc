//! A minimal JSON reader for the repo's own artifacts.
//!
//! The repo takes no external dependencies, yet two tools need to *read*
//! JSON the simulator wrote: `metrics_check` (validates a
//! `ce-sim.metrics.v1` document against the checked-in schema) and
//! `bench_compare` (compares two `BENCH_sim.json` snapshots). This is a
//! small recursive-descent parser covering exactly the JSON those
//! documents use — objects, arrays, strings with the common escapes,
//! numbers, booleans, null — with dotted-path lookup ([`Json::at`]).
//!
//! It is a reader for trusted, self-produced files, not a general-purpose
//! parser: surrogate-pair `\u` escapes are not combined. Non-negative
//! integer tokens are held losslessly as `u64` ([`Json::Int`]) — the
//! result store round-trips full-width counters through this reader —
//! while everything else numeric is `f64` ([`Json::Num`]).

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    /// A non-negative integer token, kept exact (`f64` would corrupt
    /// counters above 2^53).
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    /// Object keys sorted (BTreeMap): key order is irrelevant to lookup.
    Obj(BTreeMap<String, Json>),
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included). The writer-side complement of the parser above: everything
/// it emits, [`Json::parse`] reads back verbatim — the experiment service
/// ships CSV contents (embedded newlines and all) through this.
pub fn escape(s: &str) -> String {
    use fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
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

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Looks up a dotted path of object keys and array indices, e.g.
    /// `"config.issue_width"` or `"cells.0.ipc"`. Returns `None` if any
    /// step is missing or the wrong shape.
    pub fn at(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for step in path.split('.') {
            cur = match cur {
                Json::Obj(map) => map.get(step)?,
                Json::Arr(items) => items.get(step.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer (counters), exact for
    /// [`Json::Int`]. `None` for negative, fractional, or non-numeric
    /// values.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// A short name for the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) | Json::Int(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError { offset: self.pos, message: message.to_owned() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the full UTF-8 scalar, not just one byte.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = s.chars().next().expect("nonempty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Plain non-negative integer tokens stay exact; anything signed,
        // fractional, or exponent-form goes through f64.
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
            offset: start,
            message: format!("bad number `{text}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_metrics_document_shape() {
        let doc = r#"{
            "schema": "ce-sim.metrics.v1",
            "machine": "clustered-fifos",
            "config": {"issue_width": 8, "attribution": true},
            "counters": {"cycles": 6950, "issued": 20000},
            "derived": {"ipc": 2.878417},
            "issue_histogram": [1, 2, 3],
            "stall_attribution": null
        }"#;
        let v = Json::parse(doc).expect("parse");
        assert_eq!(v.at("schema").and_then(Json::as_str), Some("ce-sim.metrics.v1"));
        assert_eq!(v.at("config.issue_width").and_then(Json::as_u64), Some(8));
        assert_eq!(v.at("config.attribution").and_then(Json::as_bool), Some(true));
        assert_eq!(v.at("counters.cycles").and_then(Json::as_u64), Some(6950));
        assert_eq!(v.at("issue_histogram.1").and_then(Json::as_u64), Some(2));
        assert_eq!(v.at("stall_attribution"), Some(&Json::Null));
        assert_eq!(v.at("missing.path"), None);
        assert!((v.at("derived.ipc").unwrap().as_f64().unwrap() - 2.878417).abs() < 1e-9);
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#"{"k": "a\"b\\c\ndAé"}"#).expect("parse");
        assert_eq!(v.at("k").and_then(Json::as_str), Some("a\"b\\c\ndAé"));
    }

    /// Whatever [`escape`] writes, the parser reads back verbatim —
    /// including embedded CSVs (newlines, quotes) and raw control bytes.
    #[test]
    fn escape_emits_what_parse_reads() {
        for s in [
            "plain",
            "a,b,c\n1,2,3\n",
            "quote\" backslash\\ tab\t cr\r bell\u{7} é✓",
            "",
        ] {
            let doc = format!("{{\"k\": \"{}\"}}", escape(s));
            let v = Json::parse(&doc).expect("escaped string parses");
            assert_eq!(v.at("k").and_then(Json::as_str), Some(s), "{doc}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": 1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{\"a\": 1} extra").is_err());
        assert!(Json::parse("\"open").is_err());
        let err = Json::parse("nope").unwrap_err();
        assert!(err.to_string().contains("byte 0"), "{err}");
    }

    #[test]
    fn numbers_and_accessors() {
        let v = Json::parse("[-1.5, 3, 2000000, 1e3, true]").expect("parse");
        let items = v.as_arr().expect("array");
        assert_eq!(items[0].as_f64(), Some(-1.5));
        assert_eq!(items[0].as_u64(), None);
        assert_eq!(items[1].as_u64(), Some(3));
        assert_eq!(items[2].as_u64(), Some(2_000_000));
        assert_eq!(items[3].as_u64(), Some(1000));
        assert_eq!(items[4].as_bool(), Some(true));
        assert_eq!(items[4].type_name(), "bool");
    }

    /// Counters above 2^53 must survive exactly — the result store
    /// depends on integer round-trips being lossless.
    #[test]
    fn big_integers_are_exact() {
        let v = Json::parse("[18446744073709551615, 9007199254740993]").expect("parse");
        let items = v.as_arr().expect("array");
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1].as_u64(), Some((1 << 53) + 1));
        assert_eq!(items[0].type_name(), "number");
    }
}

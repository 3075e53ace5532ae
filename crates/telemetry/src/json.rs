//! The workspace's one JSON codec: a value type, a strict parser, a
//! compact renderer, and the string escaper every hand-written JSON
//! document shares (snapshot export, `/health`, incident bundles,
//! audit records, table output).
//!
//! Numbers keep their source text, so 64-bit integers survive exactly
//! (an f64 mantissa would round counters above 2^53). The parser takes
//! exactly one document: trailing bytes, unknown escapes, and nesting
//! deeper than 64 levels are errors, and no input can make it panic.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

/// Deepest nesting [`Json::parse`] accepts.
const MAX_DEPTH: usize = 64;

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err(msg: impl Into<String>) -> JsonError {
    JsonError(msg.into())
}

/// Escape `s` for use inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Json {
    /// Parse one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(err(format!("trailing data at byte {}", parser.pos)));
        }
        Ok(value)
    }

    /// Render compactly (no whitespace between tokens).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).render_into(out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// A field of an object (the first, if the key repeats).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value of a number that is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value of any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, JsonError> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| err("unexpected end of JSON"))
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek()? {
            b'{' | b'[' if self.depth == MAX_DEPTH => Err(err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ))),
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, lit: &str, out: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(out)
        } else {
            Err(err(format!("expected {lit} at byte {}", self.pos)))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        // Only ASCII was consumed. Validate as a number, but keep the
        // exact source text.
        let text = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
        text.parse::<f64>()
            .map_err(|_| err(format!("bad number at byte {start}")))?;
        Ok(Json::Num(text))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc as char),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let code = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| {
                                    err(format!("bad \\u escape at byte {}", self.pos))
                                })?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or_else(|| err("bad codepoint"))?);
                        }
                        other => {
                            return Err(err(format!(
                                "unknown escape \\{} at byte {}",
                                other as char,
                                self.pos - 1
                            )))
                        }
                    }
                }
                b => {
                    // Re-join multi-byte UTF-8 sequences.
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos - 1..self.pos - 1 + len)
                        .ok_or_else(|| err("truncated UTF-8"))?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| err("invalid UTF-8"))?);
                    self.pos += len - 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(err(format!("expected , or ] got '{}'", other as char))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(err(format!("expected , or }} got '{}'", other as char))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    fn num(n: i64) -> Json {
        Json::Num(n.to_string())
    }

    #[test]
    fn roundtrip_flat_object() {
        let obj = Json::Obj(vec![
            ("event".into(), str("CREATE")),
            ("path".into(), str("/gpfs/fs0/data file.bin")),
            ("inode".into(), num(48291)),
            ("fileSize".into(), num(-1)),
            ("openFlags".into(), Json::Bool(true)),
            ("old".into(), Json::Null),
            ("ids".into(), Json::Arr(vec![num(1), num(2)])),
        ]);
        let text = obj.render();
        assert_eq!(Json::parse(&text).unwrap(), obj);
    }

    #[test]
    fn renders_deterministically_sorted_keys() {
        // Compact, and fields keep the order they were given in.
        let obj = Json::Obj(vec![("a".into(), str("1")), ("b".into(), str("2"))]);
        assert_eq!(obj.render(), r#"{"a":"1","b":"2"}"#);
        assert_eq!(
            Json::parse(r#" { "a" : "1" , "b":"2" } "#)
                .unwrap()
                .render(),
            obj.render()
        );
    }

    #[test]
    fn escapes_roundtrip() {
        let obj = Json::Obj(vec![(
            "path".into(),
            str("/dir/with \"quotes\"\\slash\nnewline\ttab\r\u{1}"),
        )]);
        let parsed = Json::parse(&obj.render()).unwrap();
        assert_eq!(
            parsed.get("path").unwrap().as_str().unwrap(),
            "/dir/with \"quotes\"\\slash\nnewline\ttab\r\u{1}"
        );
    }

    #[test]
    fn unicode_escape_and_raw_unicode() {
        let parsed = Json::parse(r#"{"a":"\u0041\u00e9","b":"héllo","c":"\/"}"#).unwrap();
        assert_eq!(parsed.get("a").unwrap().as_str().unwrap(), "Aé");
        assert_eq!(parsed.get("b").unwrap().as_str().unwrap(), "héllo");
        assert_eq!(parsed.get("c").unwrap().as_str().unwrap(), "/");
    }

    #[test]
    fn whitespace_tolerated() {
        let parsed = Json::parse(" { \"a\" : 1 ,\n\t\"b\" : true } \n").unwrap();
        assert_eq!(parsed.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(parsed.get("b"), Some(&Json::Bool(true)));
    }

    #[test]
    fn empty_object() {
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(Vec::new()));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(Vec::new()));
    }

    #[test]
    fn negative_numbers() {
        let parsed = Json::parse(r#"{"n":-42,"f":-0.5,"big":18446744073709551615}"#).unwrap();
        assert_eq!(parsed.get("n").unwrap().as_f64(), Some(-42.0));
        assert_eq!(parsed.get("n").unwrap().as_u64(), None);
        assert_eq!(parsed.get("f").unwrap().as_f64(), Some(-0.5));
        assert_eq!(parsed.get("big").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn malformed_inputs_error_not_panic() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "nope",
            "tru",
            "{\"a\":1} extra",
            "{\"a\":\"unterminated",
            "{\"a\":\"bad\\x\"}",
            "{\"a\":\"bad\\u12\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":--1}",
            "\"\\",
            deep.as_str(),
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        let nested = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&nested).is_ok(), "{MAX_DEPTH} levels parse");
        // Every prefix and every single-byte corruption of a real
        // document is an error or a value, never a panic.
        let doc = r#"{"a":[1,-2.5e3,true,null,"x\"y\u00e9"],"b":{"c":"é"}}"#;
        for end in 0..=doc.len() {
            if let Some(prefix) = doc.get(..end) {
                let _ = Json::parse(prefix);
            }
        }
        for i in 0..doc.len() {
            for b in [0u8, b'"', b'\\', b'{', b']', 0xff] {
                let mut bytes = doc.as_bytes().to_vec();
                bytes[i] = b;
                let _ = Json::parse(&String::from_utf8_lossy(&bytes));
            }
        }
    }

    #[test]
    fn accessors_on_wrong_types_return_none() {
        let v = num(1);
        assert_eq!(v.as_str(), None);
        assert_eq!(v.get("x"), None);
        assert_eq!(str("s").as_u64(), None);
        assert_eq!(str("1").as_f64(), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}

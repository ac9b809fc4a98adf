//! Minimal hand-rolled JSON support: the workspace's one codec, behind
//! the `bsmp-trace/v1` log format, `bsmp-serve/v1` requests, fault-plan
//! files and the bench baseline gate.
//!
//! The workspace is dependency-free by policy, so both the emitter and the
//! parser live here.  The parser is a small recursive-descent reader over
//! objects, arrays, strings, finite numbers, `null` and booleans; numbers
//! are held as `f64`, which is lossless for every integer field we emit
//! (all < 2^53).  Every input is untrusted, so nesting is capped at
//! [`MAX_DEPTH`]: a deeper document is an error, not a stack overflow.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

impl Val {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Val> {
        match self {
            Val::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric field (JSON `null` maps to NaN so degenerate values survive
    /// a round-trip without inventing a finite number).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Val::Num(x) => Some(*x),
            Val::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Non-negative integer field.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Val::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9.007_199_254_740_992e15 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Val]> {
        match self {
            Val::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escape a string for inclusion in a JSON document.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format an `f64` so it round-trips through `str::parse::<f64>` exactly.
/// Non-finite values (degenerate reports) become JSON `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Deepest object/array nesting [`parse`] accepts.  Every document the
/// workspace reads nests at most four levels.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
pub fn parse(src: &str) -> Result<Val, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? != b {
            return Err(format!("expected '{}' at byte {}", char::from(b), self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek()? {
            b'{' | b'[' => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if self.bytes[self.pos] == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Val::Str(self.string()?)),
            b't' => self.literal("true", Val::Bool(true)),
            b'f' => self.literal("false", Val::Bool(false)),
            b'n' => self.literal("null", Val::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Val) -> Result<Val, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Val, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Val::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let v = self.value()?;
            fields.push((key, v));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Val::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Val, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Val::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
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
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                _ => {
                    // Re-assemble multi-byte UTF-8 sequences from the raw bytes.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| "truncated UTF-8".to_string())?;
                    let s = std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Val, String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(format!("expected a value at byte {start}"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Val::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

fn utf8_width(b: u8) -> usize {
    if b < 0x80 {
        1
    } else if b >> 5 == 0b110 {
        2
    } else if b >> 4 == 0b1110 {
        3
    } else {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_numbers() {
        for x in [0.0, 1.5, -2.25, 1e-7, 123456789.125, f64::MAX] {
            let v = parse(&num(x)).unwrap();
            assert_eq!(v.as_f64().unwrap(), x);
        }
        assert_eq!(num(f64::INFINITY), "null");
        assert!(parse("null").unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, "x\ny"], "b": {"c": true}, "d": null}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Val::Bool(true)));
        assert_eq!(v.get("d"), Some(&Val::Null));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "quote\" back\\slash \ttab ünïcode";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(s));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        let deep = "[".repeat(10_000);
        assert!(parse(&deep).unwrap_err().contains("nesting deeper"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }
}

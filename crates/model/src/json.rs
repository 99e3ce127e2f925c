//! The workspace's one JSON writer and reader.
//!
//! Telemetry lines and the daemon's response bodies are assembled by
//! hand (the workspace has no registry dependencies); the two primitives
//! that are easy to get subtly wrong — string escaping and non-finite
//! floats — live here so every writer agrees on them. [`parse`] reads
//! such bodies back (the client's view of the daemon, and the tests that
//! prove every writer emits valid JSON).

// `write!` into a `String` cannot fail, so its results are dropped.
use std::fmt::Write;

/// Appends `s` JSON-escaped (quote, backslash, control characters) to
/// `out`, without the surrounding quotes.
pub fn escape_into(out: &mut String, s: &str) {
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
}

/// Appends `v` as a JSON number; non-finite values become `null` (JSON
/// has no NaN/Infinity). `Display` is shortest-roundtrip and prints
/// integral floats bare (`2`), which is still a valid JSON number.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// One parsed JSON value.
#[derive(Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The first member named `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A number that is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Number(n) if n >= 0.0 && n.fract() == 0.0 && n < u64::MAX as f64 => {
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Nesting deeper than this is refused rather than recursed into: the
/// input may come from a peer, and recursion depth is stack.
const MAX_DEPTH: usize = 128;

/// Parses `s` as exactly one JSON value (whitespace around it allowed).
///
/// A `\u` escape of a UTF-16 surrogate decodes to U+FFFD; the writers
/// above never emit one.
///
/// # Errors
///
/// What was wrong and the byte offset where parsing stopped.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut r = Reader { s, i: 0 };
    let v = r.value(0)?;
    r.ws();
    if r.i != s.len() {
        return Err(format!("trailing bytes at {}", r.i));
    }
    Ok(v)
}

struct Reader<'a> {
    s: &'a str,
    i: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    /// Skips insignificant whitespace (the four characters JSON allows
    /// between tokens).
    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", c as char, self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at {}", self.i));
        }
        self.ws();
        match self.peek().ok_or("eof")? {
            b'{' => self.object(depth),
            b'[' => self.array(depth),
            b'"' => self.string().map(Value::String),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected '{}' at {}", c as char, self.i)),
        }
    }

    /// The members of an object or the items of an array, after its
    /// opening bracket: `item` reads one, then a `,` or `close` follows.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '{}' at {}", close as char, self.i)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.list(b'}', |r| {
            r.ws();
            let key = r.string()?;
            r.ws();
            r.eat(b':')?;
            members.push((key, r.value(depth + 1)?));
            Ok(())
        })?;
        Ok(Value::Object(members))
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.list(b']', |r| {
            items.push(r.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        let mut run = self.i;
        while let Some(c) = self.peek() {
            // Every byte that ends a run is ASCII, so each run is whole
            // UTF-8 characters.
            match c {
                b'"' => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    let e = self.peek().ok_or("eof in escape")?;
                    self.i += 1;
                    out.push(match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let code = self
                                .s
                                .get(self.i..self.i + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at {}", self.i))?;
                            self.i += 4;
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(format!("bad escape at {}", self.i - 1)),
                    });
                    run = self.i;
                }
                c if c < 0x20 => return Err(format!("raw control char at {}", self.i)),
                _ => self.i += 1,
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        let digits = |r: &mut Self| {
            let from = r.i;
            while matches!(r.peek(), Some(b'0'..=b'9')) {
                r.i += 1;
            }
            r.i - from
        };
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if digits(self) == 0 {
            return Err(format!("no digits at {start}"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            digits(self);
        }
        self.s[start..self.i]
            .parse()
            .map(Value::Number)
            .map_err(|_| format!("bad number at {start}"))
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(lit) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\r\te\u{1}\u{1f}é");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\r\\te\\u0001\\u001fé");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let render = |v: f64| {
            let mut s = String::new();
            push_f64(&mut s, v);
            s
        };
        assert_eq!(render(f64::NAN), "null");
        assert_eq!(render(f64::INFINITY), "null");
        assert_eq!(render(2.0), "2");
        assert_eq!(render(-0.125), "-0.125");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{\"a\":1,\"b\":[1,2],\"c\":{\"d\":0.5},\"e\":null}").is_ok());
        assert!(parse("{\"a\":1").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{\"a\":1}x").is_err());
        assert!(parse("{'a':1}").is_err());
        assert!(parse("\"\\x\"").is_err());
        assert!(parse("\"\\u00zz\"").is_err());
        assert!(parse("\"raw\ttab\"").is_err());
        assert!(parse(&"[".repeat(MAX_DEPTH + 2)).is_err(), "nesting is bounded");
    }

    #[test]
    fn parse_reads_back_what_the_writer_escapes() {
        let text = "a\"b\\c\nd\r\te\u{1}\u{1f}é/";
        let mut body = String::from("{\"msg\":\"");
        escape_into(&mut body, text);
        body.push_str("\",\"n\":312000,\"f\":-0.125e1,\"ok\":true,\"xs\":[1,[]]}\n");
        let v = parse(&body).expect("the writer's output parses");
        assert_eq!(v.get("msg").and_then(Value::as_str), Some(text));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(312_000));
        assert_eq!(v.get("f"), Some(&Value::Number(-1.25)));
        assert_eq!(v.get("f").and_then(Value::as_u64), None, "not an integer");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(
            v.get("xs"),
            Some(&Value::Array(vec![Value::Number(1.0), Value::Array(Vec::new())]))
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("\"\\u00e9\\ud800\"").unwrap(), Value::String("é\u{fffd}".into()));
    }
}

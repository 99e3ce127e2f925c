//! The workspace's one JSON writer and reader.
//!
//! Every JSON the workspace emits (telemetry lines, the daemon's
//! response bodies) goes through [`Object`]: it owns member separators,
//! key and string escaping, and non-finite floats, so no caller writes
//! JSON punctuation by hand (the workspace has no registry
//! dependencies). [`parse`] reads such bodies back (the client's view of
//! the daemon, and the tests that prove every writer emits valid JSON).

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

/// One JSON object being written, opened by [`object_into`] or [`body`]:
/// each member method writes `"key":value` in call order, separators
/// and escaping included. A float prints shortest-roundtrip (`2` when
/// integral, still valid JSON), or `null` when not finite.
#[derive(Debug)]
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

/// Appends one object to `out`, its members written by `members`.
pub fn object_into(out: &mut String, members: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    members(&mut Object { out: &mut *out, first: true });
    out.push('}');
}

/// One object as a response body: its own string, newline-terminated.
pub fn body(members: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    object_into(&mut out, members);
    out.push('\n');
    out
}

fn push_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

impl Object<'_> {
    /// Writes the separator and `"key":`; the value goes after it.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        push_str(self.out, key);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        push_str(self.key(key), v);
        self
    }

    /// An integer member.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(key), "{v}");
        self
    }

    /// A float member (`null` when not finite).
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        let out = self.key(key);
        let _ = if v.is_finite() { write!(out, "{v}") } else { out.write_str("null") };
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// An array-of-integers member.
    pub fn u64s(&mut self, key: &str, vs: &[u64]) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, v) in vs.iter().enumerate() {
            let _ = write!(out, "{}{v}", if i > 0 { "," } else { "" });
        }
        out.push(']');
        self
    }

    /// A nested-object member, its members written by `members`.
    pub fn object(&mut self, key: &str, members: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object_into(self.key(key), members);
        self
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
        let out = body(|o| {
            o.f64("nan", f64::NAN).f64("inf", f64::INFINITY).f64("two", 2.0).f64("neg", -0.125);
        });
        assert_eq!(out, "{\"nan\":null,\"inf\":null,\"two\":2,\"neg\":-0.125}\n");
    }

    #[test]
    fn object_writes_separators_and_escapes() {
        let out = body(|o| {
            o.str("k\"", "v\n").u64("n", 7).bool("t", true).u64s("xs", &[1, 2]);
            o.u64s("none", &[]).object("o", |o| {
                o.object("empty", |_| {});
            });
        });
        assert_eq!(
            out,
            "{\"k\\\"\":\"v\\n\",\"n\":7,\"t\":true,\"xs\":[1,2],\"none\":[],\
             \"o\":{\"empty\":{}}}\n"
        );
        let mut s = String::from("[");
        object_into(&mut s, |_| {});
        assert_eq!(s, "[{}");
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
        let body = body(|o| {
            o.str("msg", text).u64("n", 312_000).f64("f", -1.25).bool("ok", true);
            o.object("xs", |o| {
                o.u64s("a", &[1]);
            });
        });
        let v = parse(&body).expect("the writer's output parses");
        assert_eq!(v.get("msg").and_then(Value::as_str), Some(text));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(312_000));
        assert_eq!(v.get("f"), Some(&Value::Number(-1.25)));
        assert_eq!(v.get("f").and_then(Value::as_u64), None, "not an integer");
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let xs = v.get("xs").and_then(|o| o.get("a"));
        assert_eq!(xs, Some(&Value::Array(vec![Value::Number(1.0)])));
        assert_eq!(parse("-0.125e1"), Ok(Value::Number(-1.25)));
        assert_eq!(
            parse("[1,[]]"),
            Ok(Value::Array(vec![Value::Number(1.0), Value::Array(Vec::new())]))
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("\"\\u00e9\\ud800\"").unwrap(), Value::String("é\u{fffd}".into()));
    }
}

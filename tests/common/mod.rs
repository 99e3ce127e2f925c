//! Shared integration-test helpers.
//!
//! A tiny recursive-descent JSON validator, so schema tests can prove the
//! hand-rolled writers emit *valid* JSON without pulling a dependency
//! (telemetry JSONL lines and the daemon's newline-terminated response
//! bodies, so it skips insignificant whitespace).
//! (Each integration-test binary compiles its own copy; helpers unused by
//! a given binary are expected.)

#![allow(dead_code)]

pub struct Json<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Json<'a> {
    /// Validates that `s` is exactly one JSON value.
    pub fn validate(s: &'a str) -> Result<(), String> {
        let mut p = Json { b: s.as_bytes(), i: 0 };
        p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
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

    fn value(&mut self) -> Result<(), String> {
        self.ws();
        match self.peek().ok_or("eof")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string(),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected '{}' at {}", c as char, self.i)),
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.string()?;
            self.ws();
            self.eat(b':')?;
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        while let Some(c) = self.peek() {
            self.i += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => {
                    let e = self.peek().ok_or("eof in escape")?;
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            for _ in 0..4 {
                                let h = self.peek().ok_or("eof in \\u")?;
                                if !h.is_ascii_hexdigit() {
                                    return Err(format!("bad \\u digit at {}", self.i));
                                }
                                self.i += 1;
                            }
                        }
                        _ => return Err(format!("bad escape at {}", self.i)),
                    }
                }
                c if c < 0x20 => return Err(format!("raw control char at {}", self.i)),
                _ => {}
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("no digits at {start}"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        Ok(())
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }
}

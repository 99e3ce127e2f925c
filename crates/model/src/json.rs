//! The workspace's one JSON string/number writer.
//!
//! Telemetry lines and the daemon's response bodies are assembled by
//! hand (the workspace has no registry dependencies); the two primitives
//! that are easy to get subtly wrong — string escaping and non-finite
//! floats — live here so every writer agrees on them.

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
}

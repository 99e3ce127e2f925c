//! The workspace's one strict `key=value` list grammar, read by
//! `--faults`, `--chaos` (items split at `,`) and the daemon's job spec
//! (split at newlines).
//!
//! Items, keys and values are trimmed; empty items are skipped. An item
//! without `=` is *bare*: its whole text is the key and it has no value,
//! so a grammar can take a preset such as `storm` and refuse any other
//! bare word with [`Item::unknown`]. Every refusal is a [`KvError`], one
//! shape per class of mistake whichever grammar made it.

use core::fmt;
use core::str::FromStr;

/// Why a `key=value` list was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum KvError {
    /// The key, or a bare item, is not part of the grammar.
    UnknownKey(String),
    /// The value does not parse, or is out of range, for its key.
    BadValue {
        /// The key whose value was refused.
        key: String,
        /// The refused value text.
        value: String,
    },
    /// A probability was outside `[0, 1]`.
    BadProbability {
        /// The key whose probability was out of range.
        key: String,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::UnknownKey(k) => write!(f, "unknown key '{k}'"),
            KvError::BadValue { key, value } => write!(f, "{key}: bad value '{value}'"),
            KvError::BadProbability { key, value } => {
                write!(f, "{key}: probability {value} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for KvError {}

/// One item of a list: `key=value`, or a bare word (no value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item<'a> {
    /// The trimmed key, or the whole trimmed item when it is bare.
    pub key: &'a str,
    /// The trimmed value; `None` for a bare item.
    pub value: Option<&'a str>,
}

/// The non-empty items of `s`, split at `sep`, in order.
pub fn items(s: &str, sep: char) -> impl Iterator<Item = Item<'_>> {
    s.split(sep).map(str::trim).filter(|i| !i.is_empty()).map(|i| match i.split_once('=') {
        Some((k, v)) => Item { key: k.trim(), value: Some(v.trim()) },
        None => Item { key: i, value: None },
    })
}

impl<'a> Item<'a> {
    /// The refusal for a key (or bare item) the grammar does not know.
    pub fn unknown(&self) -> KvError {
        KvError::UnknownKey(self.key.to_string())
    }

    /// The refusal for a value the caller found out of range.
    pub fn bad(&self) -> KvError {
        KvError::BadValue { key: self.key.to_string(), value: self.value.unwrap_or("").into() }
    }

    /// The value text; a bare item where a value is due is an unknown key.
    pub fn text(&self) -> Result<&'a str, KvError> {
        self.value.ok_or_else(|| self.unknown())
    }

    /// The value parsed as a `T` (any integer or float).
    pub fn num<T: FromStr>(&self) -> Result<T, KvError> {
        self.text()?.parse().map_err(|_| self.bad())
    }

    /// The value parsed as a `T` other than zero.
    pub fn nonzero<T: FromStr + Default + PartialEq>(&self) -> Result<T, KvError> {
        let n: T = self.num()?;
        if n == T::default() {
            return Err(self.bad());
        }
        Ok(n)
    }

    /// The value parsed as a probability in `[0, 1]`.
    pub fn prob(&self) -> Result<f64, KvError> {
        let p: f64 = self.num()?;
        if !(0.0..=1.0).contains(&p) {
            return Err(KvError::BadProbability { key: self.key.to_string(), value: p });
        }
        Ok(p)
    }

    /// The value as a flag: `1`/`true` or `0`/`false`.
    pub fn flag(&self) -> Result<bool, KvError> {
        match self.text()? {
            "1" | "true" => Ok(true),
            "0" | "false" => Ok(false),
            _ => Err(self.bad()),
        }
    }

    /// The value as two numbers joined by `sep` (`2000x500`, `2.1`).
    pub fn pair<A: FromStr, B: FromStr>(&self, sep: char) -> Result<(A, B), KvError> {
        let (a, b) = self.text()?.split_once(sep).ok_or_else(|| self.bad())?;
        Ok((a.parse().map_err(|_| self.bad())?, b.parse().map_err(|_| self.bad())?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_trim_skip_empties_and_hand_back_bare_words() {
        let got: Vec<Item<'_>> = items(" a = 1 ,, storm ,b=,=2 ", ',').collect();
        assert_eq!(
            got,
            [
                Item { key: "a", value: Some("1") },
                Item { key: "storm", value: None },
                Item { key: "b", value: Some("") },
                Item { key: "", value: Some("2") },
            ]
        );
        let lines: Vec<&str> = items("x=1\r\n\n  # note\ny = 2", '\n').map(|i| i.key).collect();
        assert_eq!(lines, ["x", "# note", "y"]);
    }

    #[test]
    fn typed_values_and_their_refusals() {
        let it = |s| items(s, ',').next().unwrap();
        assert_eq!(it("n=42").num::<u64>(), Ok(42));
        assert_eq!(
            it("n=-1").num::<u64>(),
            Err(KvError::BadValue { key: "n".into(), value: "-1".into() })
        );
        assert_eq!(it("n=3").nonzero::<u32>(), Ok(3));
        assert_eq!(
            it("n=0").nonzero::<u32>(),
            Err(KvError::BadValue { key: "n".into(), value: "0".into() })
        );
        assert_eq!(it("p=0.25").prob(), Ok(0.25));
        assert_eq!(
            it("p=1.5").prob(),
            Err(KvError::BadProbability { key: "p".into(), value: 1.5 })
        );
        assert_eq!(it("f=true").flag(), Ok(true));
        assert_eq!(it("f=0").flag(), Ok(false));
        assert!(it("f=maybe").flag().is_err());
        assert_eq!(it("s=2000x500").pair::<u64, u64>('x'), Ok((2000, 500)));
        assert!(it("s=2000").pair::<u64, u64>('x').is_err());
        assert_eq!(it("ce").num::<f64>(), Err(KvError::UnknownKey("ce".into())));
        assert_eq!(it("ce").prob().unwrap_err().to_string(), "unknown key 'ce'");
        assert_eq!(it("n=x").bad().to_string(), "n: bad value 'x'");
        assert_eq!(it("p=2").prob().unwrap_err().to_string(), "p: probability 2 outside [0, 1]");
    }
}

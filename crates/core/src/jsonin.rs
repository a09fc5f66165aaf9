//! The one JSON value model of the tree: a strict reader ([`parse`]) and
//! one writer (`Display`) over the same [`Value`].
//!
//! Every `--json` output, every `chls serve` wire line and every request
//! is built as a [`Value`] (usually with the [`obj!`](crate::obj) macro)
//! and rendered by `Display`. Two properties keep the writer byte-stable:
//!
//! * objects keep insertion order ([`Map`]), so fields print in the order
//!   a verb builds them;
//! * numbers keep their text ([`Number`]): a parsed number prints exactly
//!   as it was read, and a built one with the precision it was built with
//!   ([`Value::fixed`]).
//!
//! Together they make `parse(s)?.to_string() == s` for every document
//! the writer produced. The parser is strict recursive descent over the
//! whole of JSON, with no dependency. Duplicate keys are kept in order;
//! lookups see the last one, matching what every mainstream parser does.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(Number),
    Str(String),
    Arr(Vec<Value>),
    Obj(Map),
}

/// A JSON number, held as its (always valid) JSON text so it prints back
/// byte for byte. Equality is textual: `1` and `1.0` differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

impl Number {
    pub fn as_f64(&self) -> f64 {
        self.0
            .parse()
            .expect("a Number holds valid JSON number text")
    }
}

/// A JSON object's members, in insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map(Vec<(String, Value)>);

impl Map {
    /// The value of `key`; the last one if the key repeats.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.0.iter().map(|(k, _)| k)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// Appends a member.
    pub fn push(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.0.push((key.into(), value.into()));
    }
}

/// Builds an object [`Value`] with members in the written order; each
/// value goes through `Value::from`.
///
/// ```
/// let v = chls::obj! { "entry": "gcd", "jobs": 2_usize, "jit": false };
/// assert_eq!(v.to_string(), r#"{"entry":"gcd","jobs":2,"jit":false}"#);
/// ```
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {{
        #[allow(unused_mut)]
        let mut m = $crate::jsonin::Map::default();
        $(m.push($key, $value);)*
        $crate::jsonin::Value::Obj(m)
    }};
}

impl Value {
    /// `x` printed with exactly `digits` fractional digits (`{:.N}`), the
    /// precision every float in the output contract is specified with.
    /// Infinities and NaN have no JSON spelling and become `null`.
    pub fn fixed(x: f64, digits: usize) -> Value {
        if x.is_finite() {
            Value::Num(Number(format!("{x:.digits$}")))
        } else {
            Value::Null
        }
    }

    /// An array of `items`, each through `Value::from`.
    pub fn arr<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Integers that fit exactly: integer text, or any number whose value
    /// is a whole number within ±2^53.
    pub fn as_u64(&self) -> Option<u64> {
        let Value::Num(n) = self else { return None };
        n.0.parse().ok().or_else(|| {
            let x = n.as_f64();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            (x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53)).then_some(x as u64)
        })
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// `get` + `as_str`, the most common wire access.
    pub fn str_of(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::Str(s.clone())
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(Number(n.to_string()))
            }
        }
    )*};
}
from_integer!(u16, u32, u64, usize, i64);

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Arr(items)
    }
}

impl fmt::Display for Value {
    /// Compact JSON: no whitespace, members in insertion order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => f.write_str(&n.0),
            Value::Str(s) => write_str(f, s),
            Value::Arr(items) => {
                f.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    v.fmt(f)?;
                }
                f.write_char(']')
            }
            Value::Obj(m) => {
                f.write_char('{')?;
                for (i, (k, v)) in m.0.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    f.write_char(':')?;
                    v.fmt(f)?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` as a JSON string literal: `"` and `\` escaped, `\n` `\r`
/// `\t` by name, other control characters as `\u00XX`, everything else
/// (including non-ASCII) verbatim.
fn write_str(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_char('"')?;
    let mut start = 0;
    // Every escaped character is ASCII, so byte indices are char
    // boundaries.
    for (i, b) in s.bytes().enumerate() {
        let named = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        f.write_str(&s[start..i])?;
        if named.is_empty() {
            write!(f, "\\u{b:04x}")?;
        } else {
            f.write_str(named)?;
        }
        start = i + 1;
    }
    f.write_str(&s[start..])?;
    f.write_char('"')
}

/// A parse failure, with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one complete JSON document; trailing garbage is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        b: input.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            offset: self.i,
            message: msg.to_string(),
        }
    }

    fn ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut m = Map::default();
        self.ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(m));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            m.push(key, v);
            self.ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b'}')?;
            return Ok(Value::Obj(m));
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Ok(Value::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            if self.eat(b',') {
                continue;
            }
            self.expect(b']')?;
            return Ok(Value::Arr(v));
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.b.get(self.i).ok_or_else(|| self.err("bad escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{0008}'),
                        b'f' => s.push('\u{000C}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            s.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(&c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str: always valid).
                    let start = self.i;
                    self.i += 1;
                    while self.b.get(self.i).is_some_and(|c| c & 0xC0 == 0x80) {
                        self.i += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.b[start..self.i]).expect("valid utf8"));
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self.b.get(self.i).ok_or_else(|| self.err("bad \\u"))?;
            let d = (*c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad hex digit"))?;
            v = v * 16 + d;
            self.i += 1;
        }
        Ok(v)
    }

    /// One number, validated against JSON's grammar (`-? int frac? exp?`)
    /// so a [`Number`] only ever holds text that parses as `f64`.
    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        let _ = self.eat(b'-');
        let digits = |p: &mut Self| {
            let from = p.i;
            while p.b.get(p.i).is_some_and(u8::is_ascii_digit) {
                p.i += 1;
            }
            p.i > from
        };
        let int_start = self.i;
        if !digits(self) || (self.b[int_start] == b'0' && self.i - int_start > 1) {
            return Err(self.err("invalid number"));
        }
        if self.eat(b'.') && !digits(self) {
            return Err(self.err("invalid number"));
        }
        if self.b.get(self.i).is_some_and(|c| *c == b'e' || *c == b'E') {
            self.i += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            if !digits(self) {
                return Err(self.err("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        Ok(Value::Num(Number(text.to_string())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -42 ").unwrap().as_f64(), Some(-42.0));
        assert_eq!(parse("2.5e2").unwrap().as_f64(), Some(250.0));
        assert_eq!(parse("2.5e2").unwrap().as_u64(), Some(250));
        assert_eq!(parse(r#""a\nb""#).unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(v.str_of("c"), Some("x"));
        let a = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[2].get("b"), Some(&Value::Null));
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""A""#).unwrap(), Value::Str("A".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert_eq!(
            parse("\"héllo—🦀\"").unwrap(),
            Value::Str("héllo—🦀".into())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,]", r#"{"a"}"#, "tru", "1 2", r#""\q""#, "01x", "-", "1.", "1e", "01",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn objects_keep_insertion_order_and_last_duplicate_wins() {
        let v = parse(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        let Value::Obj(m) = &v else { panic!("object") };
        assert_eq!(
            m.keys().map(String::as_str).collect::<Vec<_>>(),
            ["z", "a", "z"]
        );
        assert_eq!(v.get("z").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn writer_round_trips_byte_for_byte() {
        for doc in [
            r#"{"tool":"chls","seconds":0.000030244,"area":1234.0,"rate":0.5000,"n":-7,"e":2.5e-5}"#,
            r#"[null,true,false,"a\"b\\c\n\r\t\u0001é",[],{}]"#,
            r#"{"z":{"y":[1,{"x":null}]},"a":"—🦀"}"#,
        ] {
            assert_eq!(parse(doc).unwrap().to_string(), doc);
        }
    }

    #[test]
    fn builders_fix_precision_and_map_options() {
        let v = crate::obj! {
            "area": Value::fixed(19788.0, 1),
            "clock_ns": Value::fixed(3.3, 3),
            "inf": Value::fixed(f64::INFINITY, 1),
            "ret": Some(12_i64),
            "cycles": None::<u64>,
            "arrays": Value::arr(["x", "y"]),
        };
        assert_eq!(
            v.to_string(),
            r#"{"area":19788.0,"clock_ns":3.300,"inf":null,"ret":12,"cycles":null,"arrays":["x","y"]}"#
        );
    }

    #[test]
    fn strings_escape_like_the_contract() {
        let s = Value::from("a\"b\n\u{7}\\").to_string();
        assert_eq!(s, r#""a\"b\n\u0007\\""#);
        assert_eq!(parse(&s).unwrap(), Value::from("a\"b\n\u{7}\\"));
    }
}

//! The workspace's JSON: a recursive-descent reader and the two writer
//! helpers every hand-written document uses. Dependency-free like the
//! rest of the crate. The reader accepts any JSON document nested at most
//! [`MAX_DEPTH`] deep; callers map the [`Value`] tree onto their own
//! types.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`parse`] accepts. Text from a peer
/// reaches the reader (a rank's `ObsReport`), so deeper input fails
/// closed instead of recursing until the stack overflows. The documents
/// this workspace writes nest three levels deep.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text so 64-bit integers read back
    /// exactly; the accessors convert.
    Number(String),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; a repeated key keeps its last value.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a float, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.number()?.parse().ok()
    }

    /// The number, if this is an integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.number()?.parse().ok()
    }

    /// The number, if this is an integer that fits an `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        self.number()?.parse().ok()
    }

    fn number(&self) -> Option<&str> {
        match self {
            Value::Number(n) => Some(n),
            _ => None,
        }
    }
}

/// Parses one JSON document; `None` on malformed input, trailing bytes,
/// or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Option<Value> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    (pos == bytes.len()).then_some(value)
}

/// `s` as a JSON string literal, quotes included.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number that reads back as a float (always a decimal
/// point or an exponent); `null` when `v` is not finite.
pub fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".into();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, b: u8) -> Option<()> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

/// `depth` counts the arrays and objects that enclose this value.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' | b'[' if depth == MAX_DEPTH => None,
        b'{' => parse_object(bytes, pos, depth + 1),
        b'[' => parse_array(bytes, pos, depth + 1),
        b'"' => parse_string(bytes, pos).map(Value::String),
        b't' => parse_lit(bytes, pos, b"true", Value::Bool(true)),
        b'f' => parse_lit(bytes, pos, b"false", Value::Bool(false)),
        b'n' => parse_lit(bytes, pos, b"null", Value::Null),
        _ => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Value) -> Option<Value> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).ok()?;
    text.parse::<f64>().ok()?;
    Some(Value::Number(text.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    eat(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // copy the raw UTF-8 run up to the next quote/escape
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).ok()?);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    eat(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Array(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    eat(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Value::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        eat(bytes, pos, b':')?;
        map.insert(key, parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Object(map));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_every_kind_of_value() {
        let v = parse(r#" {"a": [1, -2.5e3, true, false, null], "b": "x\"A\n"} "#).expect("valid");
        let top = v.as_object().expect("object");
        let a = top["a"].as_array().expect("array");
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[1].as_i64(), None, "a float is not an integer");
        assert_eq!(a[2], Value::Bool(true));
        assert_eq!(a[4], Value::Null);
        assert_eq!(top["b"].as_str(), Some("x\"A\n"));
    }

    #[test]
    fn integers_read_back_exactly() {
        let v = parse(&format!("[{}, {}]", u64::MAX, i64::MIN)).expect("valid");
        let a = v.as_array().expect("array");
        assert_eq!(a[0].as_u64(), Some(u64::MAX));
        assert_eq!(a[1].as_i64(), Some(i64::MIN));
        assert_eq!(a[1].as_u64(), None);
    }

    #[test]
    fn malformed_input_is_none() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"open",
            "-",
            "{1: 2}",
        ] {
            assert!(parse(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nested(MAX_DEPTH)).is_some());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_none());
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_none());
    }

    #[test]
    fn writers_emit_what_the_reader_reads() {
        let s = "tab\there \"q\" back\\slash";
        assert_eq!(parse(&quote(s)).expect("valid").as_str(), Some(s));
        assert_eq!(fmt_f64(2.0), "2.0");
        assert_eq!(fmt_f64(0.125), "0.125");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(parse(&fmt_f64(1e-7)).and_then(|v| v.as_f64()), Some(1e-7));
    }
}

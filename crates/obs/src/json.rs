//! The workspace's dependency-free JSON value model ([`Value`]).
//!
//! A recursive-descent parser and deterministic writer for full JSON
//! documents (objects keep insertion order), used by the `comdml-exp`
//! scenario-spec files, sweep reports, sharded *partial* reports, the
//! `BENCH_*.json` records, and this crate's own JSONL trace sink. Numbers
//! render in Rust's shortest round-trip representation, so
//! `parse ∘ render` preserves every `f64` bit-exactly — the property that
//! lets `sweep_merge` reassemble partial reports into a document
//! byte-identical to a single-process run.
//!
//! This model lives in `comdml-obs` (the bottom of the dependency graph)
//! so every crate — including the trace sink below the sweep and bench
//! layers — can share one writer.

/// A JSON document: the dependency-free value model behind the scenario
/// spec files. Objects preserve insertion order, so `parse` → `render` is
/// deterministic and round-trips byte for byte (modulo whitespace).
///
/// # Example
///
/// ```
/// use comdml_obs::Value;
///
/// let v = Value::parse(r#"{"name": "smoke", "seeds": [1, 2, 3]}"#).unwrap();
/// assert_eq!(v.get("name").and_then(Value::as_str), Some("smoke"));
/// assert_eq!(v.get("seeds").and_then(Value::as_array).map(|a| a.len()), Some(3));
/// let again = Value::parse(&v.render()).unwrap();
/// assert_eq!(again, v);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses a JSON document (objects, arrays, strings with the common
    /// escapes, numbers, booleans, null). Trailing content after the first
    /// value is an error.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and description of the first syntax error.
    pub fn parse(s: &str) -> Result<Self, String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(v)
    }

    /// Renders the value as pretty-printed JSON (two-space indent, `\n`
    /// newlines) — deterministic, so spec files and sweep reports are
    /// byte-comparable across runs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value on a single line with no whitespace — the JSONL
    /// form the trace sink emits, one document per line. Numbers use the
    /// same shortest round-trip printing as [`Value::render`].
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact_into(&mut out);
        out
    }

    fn render_compact_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&render_number(*n)),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_compact_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape_json(k));
                    out.push_str("\":");
                    v.render_compact_into(out);
                }
                out.push('}');
            }
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = |n: usize| "  ".repeat(n);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&render_number(*n)),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape_json(s));
                out.push('"');
            }
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad(indent + 1));
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad(indent));
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(&pad(indent + 1));
                    out.push('"');
                    out.push_str(&escape_json(k));
                    out.push_str("\": ");
                    v.render_into(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad(indent));
                out.push('}');
            }
        }
    }

    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as usize, if this is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= usize::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The number as u64, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Renders an `f64` so that integers look like integers and everything
/// round-trips through Rust's shortest-representation float printing.
fn render_number(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    // Work on char boundaries: collect raw bytes then decode escapes.
    let s = std::str::from_utf8(&b[*pos..]).map_err(|e| format!("invalid utf-8: {e}"))?;
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'b')) => out.push('\u{8}'),
                Some((_, 'f')) => out.push('\u{c}'),
                Some((j, 'u')) => {
                    let hex = s.get(j + 1..j + 5).ok_or("truncated \\u escape")?;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                    // Consume the four hex digits.
                    for _ in 0..4 {
                        chars.next();
                    }
                    if (0xd800..=0xdbff).contains(&code) {
                        // High surrogate: a \uXXXX low surrogate must
                        // follow; the pair decodes to one supplementary
                        // character (JSON strings are UTF-16-escaped).
                        if s.get(j + 5..j + 7) != Some("\\u") {
                            return Err("unpaired high surrogate in \\u escape".into());
                        }
                        let lo_hex = s.get(j + 7..j + 11).ok_or("truncated \\u escape")?;
                        let lo =
                            u32::from_str_radix(lo_hex, 16).map_err(|_| "invalid \\u escape")?;
                        if !(0xdc00..=0xdfff).contains(&lo) {
                            return Err("unpaired high surrogate in \\u escape".into());
                        }
                        let combined = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
                        out.push(char::from_u32(combined).ok_or("invalid surrogate pair")?);
                        // Consume the `\uXXXX` of the low surrogate.
                        for _ in 0..6 {
                            chars.next();
                        }
                    } else if (0xdc00..=0xdfff).contains(&code) {
                        return Err("unpaired low surrogate in \\u escape".into());
                    } else {
                        out.push(char::from_u32(code).expect("non-surrogate BMP code point"));
                    }
                }
                other => return Err(format!("unsupported escape {:?}", other.map(|(_, c)| c))),
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    debug_assert_eq!(b[*pos], b'[');
    *pos += 1;
    let mut items = Vec::new();
    loop {
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {}
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    debug_assert_eq!(b[*pos], b'{');
    *pos += 1;
    let mut fields = Vec::new();
    loop {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            Some(b'"') => {}
            _ => return Err(format!("expected key or `}}` at byte {pos}", pos = *pos)),
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {}
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_parses_nested_documents() {
        let v = Value::parse(
            r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\"y\\z\nw"}"#,
        )
        .unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].as_f64(), Some(-300.0));
        assert_eq!(v.get("b").and_then(|b| b.get("c")).and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("b").and_then(|b| b.get("d")), Some(&Value::Null));
        assert_eq!(v.get("e").and_then(Value::as_str), Some("x\"y\\z\nw"));
    }

    #[test]
    fn value_render_round_trips() {
        let src = r#"{"name":"sweep","n":[0,1,{"k":[]},{}],"f":0.125,"neg":-7,"u":"é"}"#;
        let v = Value::parse(src).unwrap();
        let rendered = v.render();
        let again = Value::parse(&rendered).unwrap();
        assert_eq!(again, v);
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(v.render(), rendered);
    }

    #[test]
    fn compact_render_is_single_line_and_round_trips() {
        let src = r#"{"t":"span","name":"fleet.pairing","ms":1.25,"tags":["a","b"],"n":null}"#;
        let v = Value::parse(src).unwrap();
        let compact = v.render_compact();
        assert_eq!(compact, src, "compact rendering matches minified JSON");
        assert!(!compact.contains('\n'));
        assert_eq!(Value::parse(&compact).unwrap(), v);
    }

    #[test]
    fn value_rejects_malformed_input() {
        for bad in ["{", "[1,", "\"unterminated", "{\"k\" 1}", "12 34", "{'k': 1}", ""] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn value_decodes_unicode_escapes_and_surrogate_pairs() {
        // Raw UTF-8 passes through; \u BMP escapes decode; a surrogate
        // pair (ASCII-only writers escape non-BMP this way) combines into
        // one character.
        assert_eq!(Value::parse(r#""café 🚀""#).unwrap().as_str(), Some("café 🚀"));
        assert_eq!(Value::parse("\"\\u00e9 x\"").unwrap().as_str(), Some("é x"));
        assert_eq!(Value::parse("\"\\ud83d\\ude80\"").unwrap().as_str(), Some("🚀"));
        for bad in [r#""\ud83d""#, r#""\ud83d x""#, r#""\ud83dA""#, r#""\ude80""#] {
            assert!(Value::parse(bad).is_err(), "{bad} must reject unpaired surrogates");
        }
    }

    #[test]
    fn value_integer_rendering_is_exact() {
        let v = Value::Arr(vec![Value::Num(1e15), Value::Num(0.1), Value::Num(-0.0)]);
        let s = v.render();
        assert!(s.contains("1000000000000000"), "{s}");
        assert!(s.contains("0.1"), "{s}");
        assert_eq!(Value::parse(&s).unwrap(), v);
    }

    #[test]
    fn value_float_round_trip_is_bit_exact() {
        // The shard-merge byte-identity contract: any finite f64 that a
        // report can carry must survive render ∘ parse with the same bits.
        // Shortest round-trip float printing guarantees it; pin a spread
        // of awkward values (non-terminating binary fractions, extremes of
        // the integer-rendered range, subnormals, huge magnitudes).
        let values = [
            0.1 + 0.2,
            1.0 / 3.0,
            2.0f64.powi(-1074), // smallest subnormal
            f64::MIN_POSITIVE,
            1e300,
            -123456.78901234567,
            8.9e15, // just inside the integer-rendered range
            9.1e15, // just outside it
            0.0,
            -0.0,
        ];
        for &v in &values {
            let rendered = Value::Num(v).render();
            let back = Value::parse(&rendered).unwrap();
            let b = back.as_f64().unwrap();
            assert!(
                b == v || (b == 0.0 && v == 0.0),
                "{v:?} rendered as {rendered:?} parsed back as {b:?}"
            );
            // And a second render is byte-identical to the first.
            assert_eq!(back.render(), rendered);
        }
    }

    #[test]
    fn value_as_usize_guards_fractions_and_sign() {
        assert_eq!(Value::Num(5.0).as_usize(), Some(5));
        assert_eq!(Value::Num(5.5).as_usize(), None);
        assert_eq!(Value::Num(-1.0).as_usize(), None);
        assert_eq!(Value::Str("5".into()).as_usize(), None);
    }
}

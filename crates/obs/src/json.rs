//! Minimal JSON writing and parsing, so the exporters and the schema
//! validator need no external crates.
//!
//! The writer emits deterministic output: strings are escaped the same
//! way every time and floats use Rust's shortest-roundtrip formatting
//! (stable across platforms). Non-finite floats serialize as `null` —
//! JSON has no representation for them and the recorders drop them
//! before they get here anyway.
//!
//! The parser is a small recursive-descent JSON reader sufficient to
//! validate our own exports (objects, arrays, strings with `\uXXXX`
//! escapes, numbers, booleans, null). Nesting is capped at
//! [`MAX_DEPTH`], so hostile input is an error, never a stack overflow.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key/value pairs in document order (duplicate keys preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an integer, if the document's number is one
    /// exactly. Numbers are held as `f64`, which keeps every integer of
    /// magnitude below 2^53 apart from its neighbours; from 2^53 up,
    /// several decimal integers round to the same `f64`, so those
    /// magnitudes are rejected rather than read back as a different
    /// number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0 => {
                Some(*v as i64)
            }
            _ => None,
        }
    }

    /// The value as a non-negative integer, under the rule of
    /// [`Json::as_i64`].
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_obj(&self) -> bool {
        matches!(self, Json::Obj(_))
    }
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    // Copy each run between bytes that need escaping with one push, so a
    // string without any is copied whole. Those bytes are all ASCII, so
    // every run ends on a char boundary.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escaped {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Formats an `f64` as a JSON token: shortest-roundtrip decimal, or
/// `null` for non-finite values.
pub fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// The deepest nesting of arrays and objects [`parse_json`] accepts.
/// Our own documents nest a few levels; the cap bounds the recursion,
/// so a line of a million `[` is an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document. Trailing whitespace is allowed;
/// trailing garbage and nesting deeper than [`MAX_DEPTH`] are errors.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(input, bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, inside `depth` open arrays and objects.
fn parse_value(input: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(input, bytes, pos, depth + 1),
        Some(b'[') => parse_arr(input, bytes, pos, depth + 1),
        Some(b'"') => parse_str(input, bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(input, bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(input: &str, bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let token = &input[start..*pos];
    // An integer of at most 15 digits is below 2^53, so accumulating it
    // in a u64 and converting once is exact: the value the general
    // decimal parser would give, without its cost.
    let digits = token.strip_prefix('-').unwrap_or(token);
    if (1..=15).contains(&digits.len()) && digits.bytes().all(|b| b.is_ascii_digit()) {
        let n = digits
            .bytes()
            .fold(0u64, |n, b| n * 10 + u64::from(b - b'0')) as f64;
        return Ok(Json::Num(if digits.len() < token.len() { -n } else { n }));
    }
    token
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

fn parse_str(input: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash with one push.
        // Both are ASCII, so the run ends on a char boundary.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| "unterminated string".to_owned())?;
        let text = &input[*pos..*pos + run];
        *pos += run + 1;
        if bytes[*pos - 1] == b'"' {
            if out.is_empty() {
                return Ok(text.to_owned());
            }
            out.push_str(text);
            return Ok(out);
        }
        out.push_str(text);
        let Some(&esc) = bytes.get(*pos) else {
            return Err("unterminated escape".to_owned());
        };
        *pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hex = input
                    .get(*pos..*pos + 4)
                    .ok_or_else(|| "truncated \\u escape".to_owned())?;
                // Exactly four hex digits: `from_str_radix` alone would
                // also take a sign, reading `\u+041` as `A`.
                let code = u32::from_str_radix(hex, 16)
                    .ok()
                    .filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or_else(|| format!("bad \\u escape `{hex}`"))?;
                *pos += 4;
                // Surrogate pairs are not produced by our writer;
                // map lone surrogates to the replacement char.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            other => return Err(format!("bad escape `\\{}`", other as char)),
        }
    }
}

fn parse_arr(input: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(input, bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(input: &str, bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_str(input, bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(input, bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The writer's escaping rule applied one char at a time: the run
    /// copy in `write_json_str` must emit exactly these bytes.
    fn escape_per_char(s: &str) -> String {
        let mut out = String::from('"');
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
        out.push('"');
        out
    }

    #[test]
    fn round_trips_escaped_strings() {
        let cases = [
            "a\"b\\c\nd\te\u{1}",
            "",
            "a plain run with nothing to escape",
            "héllo wörld — 日本語 🦀",
            "\u{0}\u{1f}\u{7f}\r\u{8}\u{c}\u{1b}[0m",
            "\"quoted at both ends\"",
            "run\\\"run\nrun\u{1}run",
            "🦀\n🦀\\🦀\"é",
            "\\",
        ];
        for s in cases {
            let mut out = String::new();
            write_json_str(&mut out, s);
            assert_eq!(out, escape_per_char(s), "writer bytes for {s:?}");
            assert_eq!(parse_json(&out).unwrap(), Json::Str(s.to_owned()), "{s:?}");
        }
        // Escapes the writer never emits still decode; a lone surrogate
        // maps to the replacement char.
        assert_eq!(
            parse_json(r#""a\/b\u00e9\u0041\b\f\ud800z""#).unwrap(),
            Json::Str("a/béA\u{8}\u{c}\u{fffd}z".to_owned())
        );
        // A raw control char inside a string is accepted as it always was.
        assert_eq!(
            parse_json("\"a\u{1}b\"").unwrap(),
            Json::Str("a\u{1}b".to_owned())
        );
    }

    #[test]
    fn numbers_parse_to_the_value_of_the_general_parser() {
        let mut tokens: Vec<String> = [
            "0",
            "-0",
            "00",
            "007",
            "-007",
            "999999999999999",
            "-999999999999999",
            "000000000000001",
            "0000000000000001",
            "9007199254740992",
            "9007199254740993",
            "18446744073709551616",
            "1.5",
            "-2.5e3",
            "1e999",
            "+1",
        ]
        .map(str::to_owned)
        .to_vec();
        for digits in 1..=17 {
            let ten = 10u128.pow(digits);
            for n in [ten / 10, ten - 1, ten / 3] {
                tokens.push(n.to_string());
                tokens.push(format!("-{n}"));
            }
        }
        for t in &tokens {
            let want = t.parse::<f64>().unwrap();
            let got = parse_json(t).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{t}");
        }
        for t in ["-", "--1", "1-", "1e", ".", "-+1", "0x10", "1_000"] {
            assert!(parse_json(t).is_err(), "{t}");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            parse_json(r#""\u0041\u00Ff""#).unwrap(),
            Json::Str("Aÿ".to_owned())
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004g""#,
            r#""\u004""#,
            r#""\u00""#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        let e = parse_json(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.contains("nesting deeper than 128"), "{e}");
        assert!(parse_json(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x"}"#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\" 1}").is_err());
        assert!(parse_json("12 34").is_err());
        assert!(parse_json("\"abc").is_err());
    }

    #[test]
    fn u64_extraction_is_exact() {
        let num = |t: &str| parse_json(t).unwrap();
        assert_eq!(num("42").as_u64(), Some(42));
        assert_eq!(num("42.5").as_u64(), None);
        assert_eq!(num("-1").as_u64(), None);
        assert_eq!(num("-1").as_i64(), Some(-1));
        assert_eq!(num("-0").as_u64(), Some(0));
        // 2^53 − 1 is the largest magnitude that no other integer
        // rounds to, so it is the largest one read back.
        assert_eq!(
            num("9007199254740991").as_u64(),
            Some(9_007_199_254_740_991)
        );
        assert_eq!(
            num("-9007199254740991").as_i64(),
            Some(-9_007_199_254_740_991)
        );
        // From 2^53 up the f64 is shared: 2^53 + 1 parses to 2^53, and
        // 2^64 to a value that used to saturate to u64::MAX.
        for t in [
            "9007199254740992",
            "9007199254740993",
            "18446744073709551615",
            "18446744073709551616",
            "1e300",
        ] {
            assert_eq!(num(t).as_u64(), None, "{t}");
            assert_eq!(num(t).as_i64(), None, "{t}");
            assert_eq!(num(&format!("-{t}")).as_i64(), None, "-{t}");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut out = String::new();
        write_json_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        let mut out = String::new();
        write_json_f64(&mut out, 1.5);
        assert_eq!(out, "1.5");
    }
}

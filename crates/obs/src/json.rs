//! Minimal JSON writing and parsing, so the exporters and the schema
//! validator need no external crates.
//!
//! The writer emits deterministic output: strings are escaped the same
//! way every time and floats use Rust's shortest-roundtrip formatting
//! (stable across platforms). Non-finite floats serialize as `null` —
//! JSON has no representation for them and the recorders drop them
//! before they get here anyway.
//!
//! There is one parser, [`JsonReader`]: a recursive descent sufficient
//! to read our own exports (objects, arrays, strings with `\uXXXX`
//! escapes, numbers, booleans, null) that builds no tree. It parses a
//! document into a vector of slots it reuses from one document to the
//! next, and hands back a [`JsonView`] that borrows its strings from the
//! input, so the schema validator and replay read a trace line by line
//! without allocating. [`parse_json`] copies a view into an owned
//! [`Json`] tree for callers that keep the document. Nesting is capped
//! at [`MAX_DEPTH`], so hostile input is an error, never a stack
//! overflow.

use std::cell::RefCell;
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
            Json::Num(v) => exact_i64(*v),
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

thread_local! {
    /// The reader [`parse_json`] reuses on this thread, so its slot
    /// vector and side string stop growing once they have held the
    /// largest document.
    static READER: RefCell<JsonReader> = RefCell::new(JsonReader::default());
}

/// Parses a complete JSON document. Trailing whitespace is allowed;
/// trailing garbage and nesting deeper than [`MAX_DEPTH`] are errors.
/// This is [`JsonReader::read`], on a reader reused per thread, with the
/// result copied into an owned [`Json`] tree.
pub fn parse_json(input: &str) -> Result<Json, String> {
    READER.with(|reader| Ok(reader.borrow_mut().read(input)?.to_json()))
}

/// The integer `v` holds exactly, under the 2^53 rule of
/// [`Json::as_i64`].
fn exact_i64(v: f64) -> Option<i64> {
    (v.fract() == 0.0 && v.abs() < 9_007_199_254_740_992.0).then_some(v as i64)
}

/// Where a key's or string's text lives: a byte range of the document,
/// or of the reader's side string when it had escapes to decode. The
/// default is the empty key of an array element or of the document.
#[derive(Debug, Clone, Copy, Default)]
struct Text {
    start: usize,
    end: usize,
    decoded: bool,
}

/// One parsed value, without its children.
#[derive(Debug, Clone, Copy)]
enum Node {
    Null,
    Bool(bool),
    Num(f64),
    Str(Text),
    /// An array or object, and how many slots its subtree takes after
    /// its own.
    Arr(usize),
    Obj(usize),
}

impl Node {
    fn below(self) -> usize {
        match self {
            Node::Arr(n) | Node::Obj(n) => n,
            _ => 0,
        }
    }
}

/// A value and the key it sits under. A document is its slots in
/// document order, each container followed by its subtree.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: Text,
    node: Node,
}

/// A JSON reader that builds no tree. [`read`](Self::read) parses a
/// document into a vector of slots the reader keeps, and returns a
/// borrowed [`JsonView`] of it. Keys and strings without escapes are
/// byte ranges of the input; escaped ones are decoded into one side
/// string the reader also keeps. A reader fed line after line stops
/// allocating once its slot vector and side string have grown to the
/// largest line.
///
/// The grammar is JSON's, with three leniencies kept for compatibility
/// with earlier readers of our exports: a raw control character inside
/// a string, a leading `+` and leading zeros in a number are accepted.
/// `\u` takes exactly four hex digits, and a lone surrogate decodes to
/// U+FFFD.
#[derive(Debug, Default)]
pub struct JsonReader {
    slots: Vec<Slot>,
    side: String,
}

impl JsonReader {
    /// Parses the complete document `input`, as [`parse_json`] does, and
    /// returns a view of it that lives until the next read.
    ///
    /// # Errors
    ///
    /// The first syntax error, with its byte offset where it has one.
    pub fn read<'a>(&'a mut self, input: &'a str) -> Result<JsonView<'a>, String> {
        self.slots.clear();
        self.side.clear();
        let mut parser = Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            slots: &mut self.slots,
            side: &mut self.side,
        };
        parser.value(Text::default(), 0)?;
        parser.skip_ws();
        if parser.pos != input.len() {
            return Err(format!("trailing data at byte {}", parser.pos));
        }
        Ok(JsonView {
            input,
            side: &self.side,
            slots: &self.slots,
        })
    }
}

/// One value of a document a [`JsonReader`] read, borrowed from the
/// reader and the input. The accessors mean what [`Json`]'s mean.
#[derive(Debug, Clone, Copy)]
pub struct JsonView<'a> {
    input: &'a str,
    side: &'a str,
    /// This value's slot, then its subtree's.
    slots: &'a [Slot],
}

impl<'a> JsonView<'a> {
    fn node(self) -> Node {
        self.slots[0].node
    }

    fn text(self, text: Text) -> &'a str {
        let from = if text.decoded { self.side } else { self.input };
        &from[text.start..text.end]
    }

    /// The keys and values of an object, or the elements of an array
    /// under empty keys, in document order.
    fn children(self) -> impl Iterator<Item = (Text, JsonView<'a>)> {
        let mut rest = &self.slots[1..];
        std::iter::from_fn(move || {
            let slot = rest.first()?;
            let (slots, after) = rest.split_at(1 + slot.node.below());
            rest = after;
            Some((slot.key, JsonView { slots, ..self }))
        })
    }

    /// Looks up `key` in an object (first occurrence).
    pub fn get(self, key: &str) -> Option<JsonView<'a>> {
        if !self.is_obj() {
            return None;
        }
        // A plain loop, lengths compared before bytes: replay looks up a
        // dozen keys on every line, and runs about a tenth faster with
        // this than with a search over `children`.
        let mut at = 1;
        while let Some(slot) = self.slots.get(at) {
            let next = at + 1 + slot.node.below();
            let k = slot.key;
            if k.end - k.start == key.len() && self.text(k) == key {
                return Some(JsonView {
                    slots: &self.slots[at..next],
                    ..self
                });
            }
            at = next;
        }
        None
    }

    pub fn as_f64(self) -> Option<f64> {
        match self.node() {
            Node::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an integer, under the 2^53 rule of [`Json::as_i64`].
    pub fn as_i64(self) -> Option<i64> {
        self.as_f64().and_then(exact_i64)
    }

    /// The value as a non-negative integer, under the rule of
    /// [`Json::as_i64`].
    pub fn as_u64(self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    pub fn as_str(self) -> Option<&'a str> {
        match self.node() {
            Node::Str(text) => Some(self.text(text)),
            _ => None,
        }
    }

    pub fn as_bool(self) -> Option<bool> {
        match self.node() {
            Node::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The elements of an array, in document order.
    pub fn as_arr(self) -> Option<impl Iterator<Item = JsonView<'a>>> {
        match self.node() {
            Node::Arr(_) => Some(self.children().map(|(_, v)| v)),
            _ => None,
        }
    }

    pub fn is_obj(self) -> bool {
        matches!(self.node(), Node::Obj(_))
    }

    pub fn is_null(self) -> bool {
        matches!(self.node(), Node::Null)
    }

    /// The value copied into an owned tree.
    fn to_json(self) -> Json {
        // Each container's vector is sized once: counting the children
        // is cheaper than growing it.
        fn collect<'a, T>(view: JsonView<'a>, f: impl Fn(Text, JsonView<'a>) -> T) -> Vec<T> {
            let mut items = Vec::with_capacity(view.children().count());
            items.extend(view.children().map(|(k, v)| f(k, v)));
            items
        }
        match self.node() {
            Node::Null => Json::Null,
            Node::Bool(b) => Json::Bool(b),
            Node::Num(v) => Json::Num(v),
            Node::Str(text) => Json::Str(self.text(text).to_owned()),
            Node::Arr(_) => Json::Arr(collect(self, |_, v| v.to_json())),
            Node::Obj(_) => Json::Obj(collect(self, |k, v| (self.text(k).to_owned(), v.to_json()))),
        }
    }
}

/// One [`JsonReader::read`] in progress: a recursive descent that
/// appends each value to `slots` in document order.
struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    slots: &'a mut Vec<Slot>,
    side: &'a mut String,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    /// Parses the value at `pos`, under `key`, inside `depth` open
    /// arrays and objects.
    fn value(&mut self, key: Text, depth: usize) -> Result<(), String> {
        self.skip_ws();
        let node = match self.bytes.get(self.pos) {
            None => return Err("unexpected end of input".to_owned()),
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} at byte {}",
                    self.pos
                ))
            }
            Some(b'{') => return self.obj(key, depth + 1),
            Some(b'[') => return self.arr(key, depth + 1),
            Some(b'"') => Node::Str(self.string()?),
            Some(b't') => self.lit("true", Node::Bool(true))?,
            Some(b'f') => self.lit("false", Node::Bool(false))?,
            Some(b'n') => self.lit("null", Node::Null)?,
            Some(_) => self.num()?,
        };
        self.slots.push(Slot { key, node });
        Ok(())
    }

    fn lit(&mut self, lit: &str, node: Node) -> Result<Node, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(node)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn num(&mut self) -> Result<Node, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let token = &self.input[start..self.pos];
        // An integer of at most 15 digits is below 2^53, so accumulating it
        // in a u64 and converting once is exact: the value the general
        // decimal parser would give, without its cost.
        let digits = token.strip_prefix('-').unwrap_or(token);
        if (1..=15).contains(&digits.len()) && digits.bytes().all(|b| b.is_ascii_digit()) {
            let n = digits
                .bytes()
                .fold(0u64, |n, b| n * 10 + u64::from(b - b'0')) as f64;
            return Ok(Node::Num(if digits.len() < token.len() { -n } else { n }));
        }
        token
            .parse::<f64>()
            .map(Node::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }

    /// Parses the string at `pos`. Text without escapes stays where it
    /// is in the input; text with escapes is decoded onto the side
    /// string.
    fn string(&mut self) -> Result<Text, String> {
        debug_assert_eq!(self.bytes[self.pos], b'"');
        self.pos += 1;
        let start = self.pos;
        // Where this string's decoded text begins on the side string,
        // once it has an escape.
        let mut decoded = None;
        loop {
            // Find the run up to the next quote or backslash. Both are
            // ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_owned())?;
            let text = &self.input[self.pos..self.pos + run];
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                let Some(from) = decoded else {
                    return Ok(Text {
                        start,
                        end: self.pos - 1,
                        decoded: false,
                    });
                };
                self.side.push_str(text);
                return Ok(Text {
                    start: from,
                    end: self.side.len(),
                    decoded: true,
                });
            }
            decoded.get_or_insert(self.side.len());
            self.side.push_str(text);
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err("unterminated escape".to_owned());
            };
            self.pos += 1;
            let c = match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self
                        .input
                        .get(self.pos..self.pos + 4)
                        .ok_or_else(|| "truncated \\u escape".to_owned())?;
                    // Exactly four hex digits: `from_str_radix` alone would
                    // also take a sign, reading `\u+041` as `A`.
                    let code = u32::from_str_radix(hex, 16)
                        .ok()
                        .filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .ok_or_else(|| format!("bad \\u escape `{hex}`"))?;
                    self.pos += 4;
                    // Surrogate pairs are not produced by our writer;
                    // map lone surrogates to the replacement char.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                other => return Err(format!("bad escape `\\{}`", other as char)),
            };
            self.side.push(c);
        }
    }

    /// Opens a container slot under `key`; [`close`](Self::close) sets
    /// its subtree length.
    fn open(&mut self, key: Text, node: Node) -> usize {
        self.pos += 1; // '[' or '{'
        self.slots.push(Slot { key, node });
        self.slots.len() - 1
    }

    fn close(&mut self, at: usize, node: fn(usize) -> Node) {
        self.pos += 1; // ']' or '}'
        self.slots[at].node = node(self.slots.len() - at - 1);
    }

    fn arr(&mut self, key: Text, depth: usize) -> Result<(), String> {
        let at = self.open(key, Node::Arr(0));
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.close(at, Node::Arr);
            return Ok(());
        }
        loop {
            self.value(Text::default(), depth)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.close(at, Node::Arr);
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn obj(&mut self, key: Text, depth: usize) -> Result<(), String> {
        let at = self.open(key, Node::Obj(0));
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.close(at, Node::Obj);
            return Ok(());
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(format!("expected `:` at byte {}", self.pos));
            }
            self.pos += 1;
            self.value(key, depth)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close(at, Node::Obj);
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
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
    fn views_read_what_the_tree_holds() {
        let mut reader = JsonReader::default();
        let doc = r#"{"a":[1,"x\ty",{"b":null}],"k":"first","k":"second","n":-0.5,"t":true}"#;
        let view = reader.read(doc).unwrap();
        assert!(view.is_obj());
        // Duplicate keys: the first occurrence wins, as in `Json::get`.
        assert_eq!(view.get("k").and_then(JsonView::as_str), Some("first"));
        assert_eq!(view.get("n").and_then(JsonView::as_f64), Some(-0.5));
        assert_eq!(view.get("t").and_then(JsonView::as_bool), Some(true));
        assert_eq!(view.get("missing").map(|_| ()), None);
        let items: Vec<JsonView<'_>> = view.get("a").unwrap().as_arr().unwrap().collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_str(), Some("x\ty"));
        assert!(items[2].get("b").unwrap().is_null());
        assert!(view.as_arr().is_none() && items[0].as_arr().is_none());
        // An empty container has no children, and the value after it
        // is still found.
        let view = reader.read(r#"{"e":{},"f":[],"g":7}"#).unwrap();
        assert_eq!(view.get("e").unwrap().as_arr().map(Iterator::count), None);
        assert_eq!(
            view.get("f").unwrap().as_arr().map(Iterator::count),
            Some(0)
        );
        assert_eq!(view.get("g").and_then(JsonView::as_i64), Some(7));
        // The 2^53 rule holds on the view too.
        let view = reader
            .read("[9007199254740991,9007199254740992,-1]")
            .unwrap();
        let ints: Vec<_> = view.as_arr().unwrap().map(JsonView::as_i64).collect();
        assert_eq!(ints, [Some(9_007_199_254_740_991), None, Some(-1)]);
        let ints: Vec<_> = view.as_arr().unwrap().map(JsonView::as_u64).collect();
        assert_eq!(ints, [Some(9_007_199_254_740_991), None, None]);
    }

    #[test]
    fn a_reused_reader_reads_each_document_afresh() {
        let docs = [
            r#"{"key\u00e9":"v\"1","z":[[],{"q":"\\"}]}"#,
            r#"{"seq":0,"name":"plain"}"#,
            r#"["a\nb",{"c":"d\u0041"},1e2,false,null]"#,
            r#""just a string""#,
            "[[[[]]]]",
        ];
        let mut reader = JsonReader::default();
        for _ in 0..2 {
            for doc in docs {
                let tree = reader.read(doc).unwrap().to_json();
                assert_eq!(Ok(tree), parse_json(doc), "{doc}");
            }
        }
        assert_eq!(
            reader.read(docs[2]).unwrap().to_json(),
            Json::Arr(vec![
                Json::Str("a\nb".to_owned()),
                Json::Obj(vec![("c".to_owned(), Json::Str("dA".to_owned()))]),
                Json::Num(100.0),
                Json::Bool(false),
                Json::Null,
            ])
        );
        let view = reader.read(docs[0]).unwrap();
        assert_eq!(
            view.get("key\u{e9}").and_then(JsonView::as_str),
            Some("v\"1")
        );
        // An error leaves the reader usable for the next line.
        assert!(reader.read(r#"{"a":"\x"}"#).is_err());
        let view = reader.read(docs[1]).unwrap();
        assert_eq!(view.get("name").and_then(JsonView::as_str), Some("plain"));
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

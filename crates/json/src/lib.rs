//! Minimal JSON support for dynaplace: a value model, a strict parser,
//! a pretty-printer, explicit conversion traits, and the field-table
//! macro that describes the workspace's wire format.
//!
//! This crate is the workspace's one JSON codec. Its needs are small and
//! concrete: read scenario specifications (`scenarios/*.json`), write
//! result artifacts (`results/*.json`), round-trip the Experiment Two
//! sweep cache, and print decision traces. Types convert through
//! explicit [`ToJson`]/[`FromJson`] implementations; a struct whose wire
//! form is an object keyed by its field names gets both from one
//! [`json_object!`] table, which states every key, read default and
//! omission rule exactly once, and a tagged enum gets both, plus its
//! name accessor, from one [`json_enum!`] variant table (unit names,
//! an external single-key tag, or an internal tag key; each form has an
//! example there). Keeping the format in code that runs
//! makes the on-disk format an intentional, reviewed surface rather
//! than a derive side effect.
//!
//! Numbers are stored as `f64` (JSON's number model); printing uses
//! Rust's shortest round-trip formatting, so `parse(print(x)) == x` for
//! every finite value. Integer types decode strictly: a fractional,
//! negative or out-of-range number is an error naming the value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as written.
    Obj(Vec<(String, Json)>),
}

/// Error raised by parsing or by typed extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description with position context.
    pub message: String,
}

impl JsonError {
    /// An error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }

    /// Prefixes the message with where the error happened.
    pub fn context(self, context: impl fmt::Display) -> Self {
        JsonError::new(format!("{context}: {}", self.message))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, JsonError>;

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Prints the value on a single line with no whitespace, for line-
    /// oriented formats (JSONL) where one value per line is the contract.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&format_number(*x)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&format_number(*x)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Typed field extraction: `obj.field::<f64>("cpu_mhz")`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T> {
        self.field_with(key, T::from_json)
    }

    /// Field extraction through `read`; an error names the key.
    pub fn field_with<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Result<T>,
    ) -> Result<T> {
        match self.get(key) {
            Some(v) => read(v).map_err(|e| e.context(format_args!("field '{key}'"))),
            None => Err(JsonError::new(format!("missing field '{key}'"))),
        }
    }

    /// Typed optional field: absent and `null` both give `default()`.
    pub fn field_or_else<T: FromJson>(&self, key: &str, default: impl FnOnce() -> T) -> Result<T> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(default()),
            Some(_) => self.field(key),
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats a finite f64 with shortest round-trip precision; integral
/// values keep a trailing `.0` so the type survives a round trip
/// visually (1.0, not 1).
fn format_number(x: f64) -> String {
    if !x.is_finite() {
        // JSON has no Inf/NaN; print `null`, as serde_json does.
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        JsonError::new(format!("{msg} (line {line}, byte {})", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let unit = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate followed by `\u` + low
                            // surrogate decodes as one UTF-16 pair; a
                            // lone surrogate maps to the replacement
                            // character rather than failing the parse.
                            let code = if (0xD800..=0xDBFF).contains(&unit)
                                && self.bytes.get(self.pos + 1) == Some(&b'\\')
                                && self.bytes.get(self.pos + 2) == Some(&b'u')
                            {
                                let low = self.hex4(self.pos + 3)?;
                                if (0xDC00..=0xDFFF).contains(&low) {
                                    self.pos += 6;
                                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    unit
                                }
                            } else {
                                unit
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume the run of plain bytes up to the next quote
                    // or escape, validating only that run: validating the
                    // whole remaining document per character made parsing
                    // quadratic in the document size.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    /// Parses the 4 hex digits of a `\u` escape starting at `at`,
    /// without advancing the cursor.
    fn hex4(&self, at: usize) -> Result<u32> {
        let Some(digits) = self.bytes.get(at..at + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        let hex = std::str::from_utf8(digits).map_err(|_| self.err("invalid \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))
    }

    fn array(&mut self) -> Result<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

/// Conversion into [`Json`].
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion from [`Json`].
pub trait FromJson: Sized {
    /// Parses from a JSON value.
    fn from_json(v: &Json) -> Result<Self>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self> {
        Ok(v.clone())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_f64()
            .ok_or_else(|| JsonError::new("expected a number"))
    }
}

/// Integers decode strictly: a negative, fractional or out-of-range
/// number is an error naming the value, never a saturated or truncated
/// integer (`"count": 2.7` used to decode as 2, `"app": -1` as app 0).
macro_rules! int_conv {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self> {
                let x = f64::from_json(v)?;
                if x.fract() != 0.0 {
                    return Err(JsonError::new(format!("expected an integer, got {x}")));
                }
                // `MAX as f64 + 1.0` is exactly 2^bits (2^(bits-1) when
                // signed) for every type listed: the bound is exclusive.
                if x < <$t>::MIN as f64 || x >= <$t>::MAX as f64 + 1.0 {
                    return Err(JsonError::new(format!(
                        "{x} is out of range for {}",
                        stringify!($t)
                    )));
                }
                Ok(x as $t)
            }
        }
    )*};
}
int_conv!(u64, u32, usize, i64, i32);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_bool()
            .ok_or_else(|| JsonError::new("expected a boolean"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self> {
        string(v).map(str::to_string)
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_arr()
            .ok_or_else(|| JsonError::new("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::new("expected a pair"))?;
        if items.len() != 2 {
            return Err(JsonError::new(format!(
                "expected a 2-element array, got {}",
                items.len()
            )));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
                .collect(),
            _ => Err(JsonError::new("expected an object")),
        }
    }
}

/// Builds an object from explicit fields, preserving order.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Reads a string that must be one of `words`, returning the table's
/// own `&'static str`; any other string is an error listing the words.
pub fn one_of(v: &Json, words: &[&'static str]) -> Result<&'static str> {
    let word = string(v)?;
    words
        .iter()
        .copied()
        .find(|w| *w == word)
        .ok_or_else(|| unknown_name(word, words))
}

/// The value as a string slice, or an error.
#[doc(hidden)]
pub fn string(v: &Json) -> Result<&str> {
    v.as_str()
        .ok_or_else(|| JsonError::new("expected a string"))
}

/// The error for a name outside a closed table.
#[doc(hidden)]
pub fn unknown_name(name: &str, names: &[&str]) -> JsonError {
    JsonError::new(format!(
        "unknown name {name:?}, expected one of {}",
        names.join("|")
    ))
}

/// The one key of an externally tagged object and its value.
#[doc(hidden)]
pub fn single_key<'a>(v: &'a Json, names: &[&str]) -> Result<(&'a str, &'a Json)> {
    match v {
        Json::Obj(fields) if fields.len() == 1 => Ok((&fields[0].0, &fields[0].1)),
        _ => Err(JsonError::new(format!(
            "expected an object with exactly one key of {}, got {}",
            names.join("|"),
            v.compact()
        ))),
    }
}

/// Runs `read`, prefixing any error with `context` (a variant's name).
#[doc(hidden)]
pub fn within<T>(context: &str, read: impl FnOnce() -> Result<T>) -> Result<T> {
    read().map_err(|e| e.context(context))
}

/// Derives [`ToJson`] and [`FromJson`] for a struct whose wire form is
/// an object keyed by its field names, from one ordered field table.
/// The table is the single description of the format: each entry names
/// a field (its name is its key), states how it is read and how it is
/// written, and table order is wire order. Every field of the struct
/// must appear, or the generated struct literal does not compile.
///
/// An entry is one of:
///
/// - `field` — required on read; always written.
/// - `field: default` — absent or `null` reads as `Default::default()`.
/// - `field: default(expr)` — absent or `null` reads as `expr`.
/// - `field: flatten` — the field's own object is spliced inline: its
///   keys are written in place of `field`, and it reads from the
///   enclosing object.
/// - `field: one_of(WORDS)` — a `&'static str` field that reads only a
///   word of the `&[&'static str]` table `WORDS` (see [`one_of`]).
///
/// A defaulted entry may add a write rule, `omit_if none` (skip the key
/// when the value is `None`), `omit_if empty` (when `is_empty()`), or
/// `omit_if default` (when equal to `Default::default()`). Writing
/// `Type: Default { field, ... }` instead defaults every field from the
/// struct's own `Default` impl and always writes them all.
///
/// `read_via = path` puts a step in front of the table on read: `path`
/// is a `fn(&Json) -> Cow<'_, Json>` that may rewrite the object before
/// its fields are read (legacy layouts), borrowing it unchanged
/// otherwise.
///
/// The same entries describe the fields of each variant in a
/// [`json_enum!`] table.
///
/// ```
/// use dynaplace_json::{json_object, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Group {
///     count: usize,
///     name: Option<String>,
///     tasks: u32,
///     tags: Vec<String>,
/// }
///
/// json_object!(Group {
///     count,
///     name: default omit_if none,
///     tasks: default(1),
///     tags: default omit_if empty,
/// });
///
/// let group = Group::from_json(&Json::parse(r#"{"count": 2}"#).unwrap()).unwrap();
/// assert_eq!(group, Group { count: 2, name: None, tasks: 1, tags: vec![] });
/// assert_eq!(group.to_json().compact(), r#"{"count":2.0,"tasks":1.0}"#);
/// ```
#[macro_export]
macro_rules! json_object {
    ($ty:ty: Default { $($field:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![$(
                    (stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)),
                )*])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> $crate::Result<Self> {
                let d = <Self as Default>::default();
                Ok(Self {
                    $($field: v.field_or_else(stringify!($field), || d.$field)?,)*
                })
            }
        }
    };
    ($ty:ty $(, read_via = $pre:path)? { $($entries:tt)* }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let mut fields = Vec::new();
                let $crate::__json_body!(pattern (Self) value { $($entries)* }) = self;
                $crate::__json_body!(write_into fields { $($entries)* });
                $crate::Json::Obj(fields)
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> $crate::Result<Self> {
                $(let v: &$crate::Json = &$pre(v);)?
                Ok($crate::__json_body!(read (Self) v { $($entries)* }))
            }
        }
    };
}

/// Derives the codec of an enum from one ordered variant table, in one
/// of three forms. Each table row is `Variant = "name"`, where `"name"`
/// is the variant's wire name; a struct variant adds its fields in
/// braces, written with the [`json_object!`] entry grammar (table order
/// is wire order, and every field must appear), and a newtype variant
/// adds its type in parentheses.
///
/// - **Unit-variant name table**, `Enum { Variant = "name", ... }`: the
///   value is its name as a JSON string. Derives `name(self)` and
///   `from_name(&str) -> Option<Self>` alongside [`ToJson`] and
///   [`FromJson`]; the enum must be `Copy`.
/// - **External single-key tag**, `Enum { Variant = "name" { fields },
///   Other = "other" (Type), ... }`: a struct variant is
///   `{"name": {fields}}` and a newtype variant `{"name": value}`. An
///   object with zero or several keys is an error listing the names.
/// - **Internal tag**, `Enum, tag = "key", name = accessor { Variant =
///   "name" { fields }, ... }`: one flat object, the tag key first and
///   then the variant's fields. Derives `accessor(&self)`, the
///   variant's wire name.
///
/// Decoding errors in a variant's fields are prefixed with its name,
/// and an unknown name is an error listing the known ones.
///
/// ```
/// use dynaplace_json::{json_enum, FromJson, Json, ToJson};
///
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Level {
///     Low,
///     High,
/// }
///
/// json_enum!(Level { Low = "low", High = "high" });
///
/// assert_eq!(Level::High.name(), "high");
/// assert_eq!(Level::from_name("low"), Some(Level::Low));
/// assert_eq!(Level::High.to_json().compact(), r#""high""#);
/// assert!(Level::from_json(&Json::Str("medium".into())).is_err());
/// ```
///
/// ```
/// use dynaplace_json::{json_enum, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// enum Arrivals {
///     Periodic { every_secs: f64 },
///     At(Vec<f64>),
/// }
///
/// json_enum!(Arrivals {
///     Periodic = "periodic" { every_secs },
///     At = "at" (Vec<f64>),
/// });
///
/// let periodic = Arrivals::Periodic { every_secs: 15.0 };
/// assert_eq!(periodic.to_json().compact(), r#"{"periodic":{"every_secs":15.0}}"#);
/// let at = Json::parse(r#"{"at": [0, 30]}"#).unwrap();
/// assert_eq!(Arrivals::from_json(&at).unwrap(), Arrivals::At(vec![0.0, 30.0]));
/// let both = Json::parse(r#"{"at": [0], "periodic": {"every_secs": 1}}"#).unwrap();
/// assert!(Arrivals::from_json(&both).is_err());
/// ```
///
/// ```
/// use dynaplace_json::{json_enum, FromJson, Json, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// enum Event {
///     Start { time: f64, cycle: u64 },
///     Span { time: f64, wall_secs: f64 },
/// }
///
/// json_enum!(Event, tag = "ev", name = kind {
///     Start = "start" { time, cycle },
///     Span = "span" { time, wall_secs: default },
/// });
///
/// let start = Event::Start { time: 1.5, cycle: 2 };
/// assert_eq!(start.kind(), "start");
/// assert_eq!(start.to_json().compact(), r#"{"ev":"start","time":1.5,"cycle":2.0}"#);
/// let span = Json::parse(r#"{"ev": "span", "time": 3}"#).unwrap();
/// assert_eq!(Event::from_json(&span).unwrap(), Event::Span { time: 3.0, wall_secs: 0.0 });
/// let bad = Json::parse(r#"{"ev": "start", "time": 0, "cycle": 1.5}"#).unwrap();
/// assert!(Event::from_json(&bad).is_err());
/// ```
#[macro_export]
macro_rules! json_enum {
    ($ty:ident, tag = $tag:literal, name = $accessor:ident {
        $($var:ident = $name:literal $body:tt),+ $(,)?
    }) => {
        impl $ty {
            #[doc = concat!("The variant's wire name, its `\"", $tag, "\"` tag.")]
            pub fn $accessor(&self) -> &'static str {
                match self {
                    $($ty::$var { .. } => $name,)+
                }
            }
        }

        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let mut fields = vec![(
                    $tag.to_string(),
                    $crate::Json::Str(self.$accessor().to_string()),
                )];
                match self {
                    $($crate::__json_body!(pattern ($ty::$var) value $body) => {
                        $crate::__json_body!(write_into fields $body);
                    })+
                }
                $crate::Json::Obj(fields)
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> $crate::Result<Self> {
                let tag = v.field_with($tag, $crate::string)?;
                match tag {
                    $($name => $crate::within($name, || {
                        Ok($crate::__json_body!(read ($ty::$var) v $body))
                    }),)+
                    other => Err($crate::unknown_name(other, &[$($name),+])
                        .context(format_args!("field '{}'", $tag))),
                }
            }
        }
    };
    ($ty:ident { $($var:ident = $name:literal),+ $(,)? }) => {
        impl $ty {
            /// Stable wire name.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$var => $name,)+
                }
            }

            /// Parses a wire name; `None` for a name no variant has.
            pub fn from_name(name: &str) -> Option<Self> {
                match name {
                    $($name => Some($ty::$var),)+
                    _ => None,
                }
            }
        }

        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Str(self.name().to_string())
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> $crate::Result<Self> {
                let name = $crate::string(v)?;
                Self::from_name(name).ok_or_else(|| $crate::unknown_name(name, &[$($name),+]))
            }
        }
    };
    ($ty:ident { $($var:ident = $name:literal $body:tt),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let (name, value) = match self {
                    $($crate::__json_body!(pattern ($ty::$var) value $body) => {
                        ($name, $crate::__json_body!(write value $body))
                    })+
                };
                $crate::Json::Obj(vec![(name.to_string(), value)])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Json) -> $crate::Result<Self> {
                const NAMES: &[&str] = &[$($name),+];
                let (name, inner) = $crate::single_key(v, NAMES)?;
                match name {
                    $($name => $crate::within($name, || {
                        Ok($crate::__json_body!(read ($ty::$var) inner $body))
                    }),)+
                    other => Err($crate::unknown_name(other, NAMES)),
                }
            }
        }
    };
}

/// One body of a [`json_object!`] or [`json_enum!`] table: a struct's
/// or struct variant's `{ entries }`, or a newtype variant's `(Type)`.
/// Gives the body's pattern (binding each field, or the newtype's value
/// to `$value`), its written value or fields, and its read from `$v`.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_body {
    (pattern ($($path:tt)*) $value:ident
        { $($field:ident $(: $rule:ident $(($arg:expr))? $(omit_if $omit:ident)?)?),* $(,)? }) => {
        $($path)* { $($field),* }
    };
    (pattern ($($path:tt)*) $value:ident ($t:ty)) => {
        $($path)*($value)
    };
    (write_into $fields:ident
        { $($field:ident $(: $rule:ident $(($arg:expr))? $(omit_if $omit:ident)?)?),* $(,)? }) => {
        $(
            if !$crate::__json_omit!($field $($(, $omit)?)?) {
                $crate::__json_write!($fields, $field, $field $(, $rule)?);
            }
        )*
    };
    (write $value:ident { $($entries:tt)* }) => {{
        let mut fields = Vec::new();
        $crate::__json_body!(write_into fields { $($entries)* });
        $crate::Json::Obj(fields)
    }};
    (write $value:ident ($t:ty)) => {
        $crate::ToJson::to_json($value)
    };
    (read ($($path:tt)*) $v:ident
        { $($field:ident $(: $rule:ident $(($arg:expr))? $(omit_if $omit:ident)?)?),* $(,)? }) => {
        $($path)* {
            $($field: $crate::__json_read!($v, $field $(, $rule $(, $arg)?)?),)*
        }
    };
    (read ($($path:tt)*) $v:ident ($t:ty)) => {
        $($path)*(<$t as $crate::FromJson>::from_json($v)?)
    };
}

/// The read rule of one [`json_object!`] entry.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_read {
    ($v:ident, $field:ident) => {
        $v.field(stringify!($field))?
    };
    ($v:ident, $field:ident, default) => {
        $v.field_or_else(stringify!($field), Default::default)?
    };
    ($v:ident, $field:ident, default, $default:expr) => {
        $v.field_or_else(stringify!($field), || $default)?
    };
    ($v:ident, $field:ident, flatten) => {
        $crate::FromJson::from_json($v)?
    };
    ($v:ident, $field:ident, one_of, $words:expr) => {
        $v.field_with(stringify!($field), |word| $crate::one_of(word, $words))?
    };
}

/// The write rule of one [`json_object!`] entry, given a reference to
/// the field's value.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_write {
    ($fields:ident, $field:ident, $value:expr, flatten) => {
        if let $crate::Json::Obj(inner) = $crate::ToJson::to_json($value) {
            $fields.extend(inner);
        }
    };
    ($fields:ident, $field:ident, $value:expr $(, $rule:ident)?) => {
        $fields.push((
            stringify!($field).to_string(),
            $crate::ToJson::to_json($value),
        ))
    };
}

/// The omission rule of one [`json_object!`] entry, given a reference
/// to the field's value: whether to skip it.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_omit {
    ($value:expr) => {
        false
    };
    ($value:expr, none) => {
        Option::is_none($value)
    };
    ($value:expr, empty) => {
        $value.is_empty()
    };
    ($value:expr, default) => {
        *$value == Default::default()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
    }

    #[test]
    fn strings_mix_multibyte_runs_and_escapes() {
        assert_eq!(
            Json::parse(r#""h\u00e9 \"wörld\" ✓\n""#).unwrap(),
            Json::Str("h\u{e9} \"w\u{f6}rld\" \u{2713}\n".to_string())
        );
        assert!(Json::parse(r#""unterminated é"#).is_err());
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{'a': 1}").is_err());
    }

    #[test]
    fn compact_is_single_line_and_round_trips() {
        let v = Json::parse(
            r#"{"seed": 42, "xs": [1.5, 2, 0.000012054], "s": "hi \"there\"", "n": null}"#,
        )
        .unwrap();
        let text = v.compact();
        assert!(!text.contains('\n'));
        assert!(!text.contains(' ') || text.contains("\"hi"));
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(obj([]).compact(), "{}");
        assert_eq!(Json::Arr(vec![]).compact(), "[]");
    }

    #[test]
    fn pretty_round_trips() {
        let v = Json::parse(
            r#"{"seed": 42, "xs": [1.5, 2, 0.000012054], "s": "hi \"there\"", "n": null}"#,
        )
        .unwrap();
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for &x in &[
            0.0,
            -0.0,
            1.0,
            0.1,
            1e-12,
            123456789.123456,
            f64::MIN_POSITIVE,
        ] {
            let text = format_number(x);
            let back: f64 = text.parse().unwrap();
            assert_eq!(back, x, "{text}");
        }
    }

    #[test]
    fn typed_fields_extract() {
        let v = Json::parse(r#"{"count": 3, "name": "x", "opt": null}"#).unwrap();
        assert_eq!(v.field::<usize>("count").unwrap(), 3);
        assert_eq!(v.field::<String>("name").unwrap(), "x");
        assert_eq!(v.field_or_else::<u64>("missing", || 7).unwrap(), 7);
        assert_eq!(
            v.field_or_else::<Option<f64>>("opt", || Some(1.0)).unwrap(),
            Some(1.0)
        );
        assert!(v.field::<f64>("missing").is_err());
    }

    #[test]
    fn integers_decode_strictly() {
        let int = |x: f64| Json::Num(x);
        assert_eq!(u32::from_json(&int(4_294_967_295.0)).unwrap(), u32::MAX);
        assert_eq!(i32::from_json(&int(-2_147_483_648.0)).unwrap(), i32::MIN);
        assert_eq!(i64::from_json(&int(-1.0)).unwrap(), -1);
        assert_eq!(usize::from_json(&int(0.0)).unwrap(), 0);

        let rejects = |err: JsonError, needle: &str| {
            assert!(err.message.contains(needle), "{needle}: {}", err.message);
        };
        // Non-integral.
        rejects(usize::from_json(&int(2.7)).unwrap_err(), "2.7");
        rejects(i64::from_json(&int(-0.5)).unwrap_err(), "-0.5");
        rejects(u32::from_json(&int(f64::INFINITY)).unwrap_err(), "inf");
        // Negative into an unsigned type.
        rejects(
            u32::from_json(&int(-1.0)).unwrap_err(),
            "-1 is out of range for u32",
        );
        rejects(
            u64::from_json(&int(-1.0)).unwrap_err(),
            "out of range for u64",
        );
        // Beyond the type's range.
        rejects(
            u32::from_json(&int(4_294_967_296.0)).unwrap_err(),
            "4294967296",
        );
        rejects(
            u64::from_json(&int(2f64.powi(64))).unwrap_err(),
            "out of range for u64",
        );
        rejects(
            usize::from_json(&int(2f64.powi(64))).unwrap_err(),
            "out of range",
        );
        rejects(
            i32::from_json(&int(2_147_483_648.0)).unwrap_err(),
            "out of range",
        );
        rejects(
            i32::from_json(&int(-2_147_483_649.0)).unwrap_err(),
            "out of range",
        );
        // Not a number at all.
        rejects(
            u32::from_json(&Json::Null).unwrap_err(),
            "expected a number",
        );
        // Floats are unchanged.
        assert_eq!(f64::from_json(&int(2.7)).unwrap(), 2.7);
    }

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Counters {
        hits: u64,
        misses: u64,
    }

    json_object!(Counters: Default { hits, misses });

    #[derive(Debug, Clone, PartialEq)]
    struct Record {
        id: u32,
        label: Option<String>,
        weight: f64,
        tags: BTreeMap<String, f64>,
        counters: Counters,
    }

    /// Hoists a legacy `legacy_weight` key into `weight`.
    fn legacy_weight(v: &Json) -> std::borrow::Cow<'_, Json> {
        match (v, v.get("legacy_weight")) {
            (Json::Obj(fields), Some(weight)) => {
                let mut fields = fields.clone();
                fields.push(("weight".to_string(), weight.clone()));
                std::borrow::Cow::Owned(Json::Obj(fields))
            }
            _ => std::borrow::Cow::Borrowed(v),
        }
    }

    json_object!(Record, read_via = legacy_weight {
        id,
        label: default omit_if none,
        weight: default(1.5),
        tags: default omit_if empty,
        counters: default omit_if default,
    });

    const MOODS: &[&str] = &["calm", "wild"];

    #[derive(Debug, Clone, PartialEq)]
    enum Event {
        Tick {
            time: f64,
            mood: &'static str,
        },
        Stats {
            time: f64,
            counters: Counters,
            wall_secs: f64,
        },
    }

    json_enum!(Event, tag = "ev", name = kind {
        Tick = "tick" { time, mood: one_of(MOODS) },
        Stats = "stats" { time, counters: flatten, wall_secs: default },
    });

    #[derive(Debug, Clone, PartialEq)]
    enum Goal {
        Factor(f64),
        Window { from: u32, to: u32 },
    }

    json_enum!(Goal {
        Factor = "factor" (f64),
        Window = "window" { from, to },
    });

    fn read<T: FromJson>(text: &str) -> Result<T> {
        T::from_json(&Json::parse(text).unwrap())
    }

    #[test]
    fn enum_tables_read_and_write_by_their_rules() {
        let stats = Event::Stats {
            time: 1.0,
            counters: Counters { hits: 2, misses: 3 },
            wall_secs: 0.5,
        };
        let text = stats.to_json().compact();
        assert_eq!(
            text,
            r#"{"ev":"stats","time":1.0,"hits":2.0,"misses":3.0,"wall_secs":0.5}"#
        );
        assert_eq!(read::<Event>(&text).unwrap(), stats);
        assert_eq!(stats.kind(), "stats");
        // A defaulted field may be stripped; a flattened one reads its
        // own keys from the enclosing object.
        let stripped = read::<Event>(r#"{"ev":"stats","time":1.0,"hits":2,"misses":3}"#);
        assert!(matches!(stripped, Ok(Event::Stats { wall_secs, .. }) if wall_secs == 0.0));

        let tick = Event::Tick {
            time: 2.0,
            mood: "wild",
        };
        assert_eq!(read::<Event>(&tick.to_json().compact()).unwrap(), tick);
        let err = read::<Event>(r#"{"ev":"tick","time":2.0,"mood":"sad"}"#).unwrap_err();
        assert_eq!(
            err.message,
            r#"tick: field 'mood': unknown name "sad", expected one of calm|wild"#
        );
        let err = read::<Event>(r#"{"ev":"tock","time":2.0}"#).unwrap_err();
        assert_eq!(
            err.message,
            r#"field 'ev': unknown name "tock", expected one of tick|stats"#
        );
        let err = read::<Event>(r#"{"ev":"stats","time":1.0,"hits":-2,"misses":3}"#).unwrap_err();
        assert_eq!(
            err.message,
            "stats: field 'hits': -2 is out of range for u64"
        );

        for goal in [Goal::Factor(2.5), Goal::Window { from: 1, to: 4 }] {
            assert_eq!(read::<Goal>(&goal.to_json().compact()).unwrap(), goal);
        }
        assert_eq!(Goal::Factor(2.5).to_json().compact(), r#"{"factor":2.5}"#);
        let err = read::<Goal>(r#"{"factor":2.5,"window":{"from":1,"to":2}}"#).unwrap_err();
        assert_eq!(
            err.message,
            r#"expected an object with exactly one key of factor|window, got {"factor":2.5,"window":{"from":1.0,"to":2.0}}"#
        );
        let err = read::<Goal>(r#"{"window":{"from":1}}"#).unwrap_err();
        assert_eq!(err.message, "window: missing field 'to'");
        let err = read::<Goal>(r#"{"span":1}"#).unwrap_err();
        assert_eq!(
            err.message,
            r#"unknown name "span", expected one of factor|window"#
        );
    }

    #[test]
    fn field_table_reads_and_writes_by_its_rules() {
        let minimal = Record::from_json(&Json::parse(r#"{"id": 3}"#).unwrap()).unwrap();
        assert_eq!(
            minimal,
            Record {
                id: 3,
                label: None,
                weight: 1.5,
                tags: BTreeMap::new(),
                counters: Counters::default(),
            }
        );
        // Omitted keys stay omitted; the rest print in table order.
        assert_eq!(minimal.to_json().compact(), r#"{"id":3.0,"weight":1.5}"#);

        let full = Record {
            id: 4,
            label: Some("x".to_string()),
            weight: 2.0,
            tags: BTreeMap::from([("a".to_string(), 1.0)]),
            counters: Counters { hits: 1, misses: 0 },
        };
        let text = full.to_json().compact();
        assert_eq!(
            text,
            r#"{"id":4.0,"label":"x","weight":2.0,"tags":{"a":1.0},"counters":{"hits":1.0,"misses":0.0}}"#
        );
        assert_eq!(
            Record::from_json(&Json::parse(&text).unwrap()).unwrap(),
            full
        );

        // `null` reads as the default; a missing required key is named.
        let nulls = Json::parse(r#"{"id": 5, "weight": null, "counters": {"hits": 2}}"#).unwrap();
        let decoded = Record::from_json(&nulls).unwrap();
        assert_eq!(decoded.weight, 1.5);
        assert_eq!(decoded.counters, Counters { hits: 2, misses: 0 });
        let err = Record::from_json(&Json::parse("{}").unwrap()).unwrap_err();
        assert_eq!(err.message, "missing field 'id'");
        let err = Record::from_json(&Json::parse(r#"{"id": -1}"#).unwrap()).unwrap_err();
        assert!(
            err.message.starts_with("field 'id': -1 is out of range"),
            "{}",
            err.message
        );

        // The read-side step runs in front of the table.
        let legacy = Json::parse(r#"{"id": 6, "legacy_weight": 9.0}"#).unwrap();
        assert_eq!(Record::from_json(&legacy).unwrap().weight, 9.0);
    }
}

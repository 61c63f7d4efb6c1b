//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this crate provides
//! the subset of serde this workspace relies on: [`Serialize`] /
//! [`Deserialize`] traits that stream JSON text directly, with no
//! intermediate tree, and derive macros (re-exported from
//! `serde_derive`) that implement them for plain structs and enums using
//! serde's default externally-tagged representation. A serializer
//! appends compact JSON to a `String`; a deserializer pulls tokens from
//! a borrowed [`Reader`]. `serde_json` (the sibling shim) wraps both in
//! `to_string` / `from_str`, and builds the generic [`Value`] tree for
//! callers that want a document rather than a type.
//!
//! Supported derive shapes: named-field structs, unit enum variants,
//! tuple variants, struct variants, the `#[serde(skip)]` field attribute
//! (skipped on serialize, `Default`-filled on deserialize) and the
//! `#[serde(deny_unknown_fields)]` container attribute.
//!
//! Shape errors are reported as a tree decoder would report them: an
//! unknown key (under `deny_unknown_fields`) wins over any bad field
//! value, and among the fields the first in declaration order that is
//! missing or fails to decode names the error. The first of two equal
//! keys wins and the second is skipped unread.

use std::borrow::Cow;
use std::fmt::Write as _;

pub use serde_derive::{Deserialize, Serialize};

/// An owned JSON-like value tree: the generic-document form that
/// `serde_json::parse_value` returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Negative integers (and any integer parsed with a sign).
    Int(i64),
    /// Non-negative integers.
    UInt(u64),
    /// Floating-point numbers.
    Float(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Array(Vec<Value>),
    /// Objects, insertion-ordered.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// Numeric value as `i64`, if this is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::UInt(u) if u <= i64::MAX as u64 => Some(u as i64),
            _ => None,
        }
    }
}

/// (De)serialization error: a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn msg(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

/// Types that write themselves as JSON.
pub trait Serialize {
    /// Appends `self` as compact JSON to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the value contains a non-finite float;
    /// `out` then holds a partial document.
    fn serialize_json(&self, out: &mut String) -> Result<(), Error>;
}

/// Types that read themselves from JSON.
pub trait Deserialize: Sized {
    /// Reads one JSON value from `reader`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when the text is malformed or its shape does not
    /// match `Self`. After an error the reader's position is unspecified.
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error>;
}

// ---------------------------------------------------------------- reading

/// Deepest array/object nesting a [`Reader`] accepts, as upstream
/// `serde_json`'s recursion limit: a decoder recurses once per level, so
/// an unbounded depth would let a small document overflow the stack.
pub const RECURSION_LIMIT: usize = 128;

/// A JSON number token, classified as the tree decoder classifies it: an
/// integer token is an integer (`-0` included) whenever it fits, and a
/// float only otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A token without `.`, `e`, `E`, `+` or inner `-` that fits `u64`.
    UInt(u64),
    /// A `-`-prefixed integer token that fits `i64`.
    Int(i64),
    /// Any other number token.
    Float(f64),
}

/// A cursor over borrowed JSON text.
///
/// The tokenizer behind both the typed decoders and
/// `serde_json::parse_value`: both report the same message for the same
/// malformed text. A reader is `Copy`, so a decoder can rewind by
/// restoring an earlier copy.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

/// A shape error recorded while an object was read, with the position
/// (in declaration order) of the field it belongs to.
pub type Deferred = Option<(usize, Error)>;

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// Succeeds when only whitespace is left.
    ///
    /// # Errors
    ///
    /// Returns the position of the first trailing character.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(Error::msg(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// The next non-whitespace byte, not consumed.
    ///
    /// # Errors
    ///
    /// Returns an error at the end of the text.
    pub fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes()
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::msg("unexpected end of JSON"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// Consumes the literal `text` (`null`, `true` or `false`).
    ///
    /// # Errors
    ///
    /// Returns an error when the text does not continue with it.
    pub fn literal(&mut self, text: &str) -> Result<(), Error> {
        if self.bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    /// Reads a string token, borrowed from the text unless it holds an
    /// escape.
    ///
    /// # Errors
    ///
    /// Returns an error on a missing quote or a bad escape.
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let bytes = self.bytes();
        let mut owned: Option<String> = None;
        let mut run = self.pos;
        loop {
            // The text is UTF-8 and `"` and `\` never occur inside a
            // multi-byte character, so runs split only at char boundaries.
            self.pos += bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::msg("unterminated string"))?;
            match bytes[self.pos] {
                b'"' => {
                    let text = &self.text[run..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        Some(mut out) => {
                            out.push_str(text);
                            Cow::Owned(out)
                        }
                        None => Cow::Borrowed(text),
                    });
                }
                _ => {
                    // A backslash.
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    let esc = *bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::msg("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let code = hex_escape(self.text, &mut self.pos)?;
                            // UTF-16 surrogate pair: a high half must be
                            // followed by `\uXXXX` with a low half
                            // (JSON's only encoding for non-BMP chars).
                            let code = if (0xD800..0xDC00).contains(&code) {
                                if bytes.get(self.pos) != Some(&b'\\')
                                    || bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(Error::msg("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = hex_escape(self.text, &mut self.pos)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(Error::msg("invalid low surrogate"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(Error::msg("unknown escape")),
                    }
                    run = self.pos;
                }
            }
        }
    }

    /// Reads a number token.
    ///
    /// # Errors
    ///
    /// Returns an error when the token is empty or not a number.
    pub fn number(&mut self) -> Result<Number, Error> {
        self.skip_ws();
        let bytes = self.bytes();
        let start = self.pos;
        let negative = bytes.get(self.pos) == Some(&b'-');
        if negative {
            self.pos += 1;
        }
        // The value of the digits read so far, while it fits a `u64`.
        let mut digits = Some(0u64);
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {
                    digits =
                        digits.and_then(|d| d.checked_mul(10)?.checked_add(u64::from(b - b'0')));
                    self.pos += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(Error::msg(format!("invalid number at byte {start}")));
        }
        if !is_float {
            match (negative, digits) {
                (false, Some(u)) => return Ok(Number::UInt(u)),
                // `u as i64` wraps 2^63 to `i64::MIN`, which negates to
                // itself.
                (true, Some(u)) if u <= i64::MAX as u64 + 1 => {
                    return Ok(Number::Int((u as i64).wrapping_neg()))
                }
                _ => {}
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }

    /// Reads a number where a scalar of a numeric type is expected:
    /// any non-number value is the shape error `expected`.
    fn number_or(&mut self, expected: &'static str) -> Result<Number, Error> {
        match self.peek()? {
            b'n' | b't' | b'f' | b'"' | b'[' | b'{' => Err(Error::msg(expected)),
            _ => self.number(),
        }
    }

    /// Enters an array or object opened by `open`, one level deeper.
    fn enter(&mut self, open: u8) -> Result<(), Error> {
        self.peek()?;
        if self.depth == RECURSION_LIMIT {
            return Err(Error::msg(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.expect(open)?;
        self.depth += 1;
        Ok(())
    }

    /// Reads an array, calling `item` at each element; any non-array
    /// value is the shape error `not_array`.
    ///
    /// # Errors
    ///
    /// Returns the first error of the text or of `item`.
    pub fn seq(
        &mut self,
        not_array: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.peek()? != b'[' {
            return Err(Error::msg(not_array));
        }
        self.enter(b'[')?;
        if self.peek()? == b']' {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// Reads an object, calling `entry` with each key, positioned at its
    /// value; any non-object value is the shape error `not_object`.
    ///
    /// # Errors
    ///
    /// Returns the first error of the text or of `entry`.
    pub fn map(
        &mut self,
        not_object: &'static str,
        mut entry: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.peek()? != b'{' {
            return Err(Error::msg(not_object));
        }
        self.enter(b'{')?;
        if self.peek()? == b'}' {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            entry(self, key)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// Reads and discards one value, checking it as strictly as a decoder
    /// that keeps it.
    ///
    /// # Errors
    ///
    /// Returns the first error of the text.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek()? {
            b'n' => self.literal("null"),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'"' => self.string().map(drop),
            b'[' => self.seq("", Self::skip_value),
            b'{' => self.map("", |r, _| r.skip_value()),
            _ => self.number().map(drop),
        }
    }

    /// Reads the object of a struct whose keys are `fields`, calling
    /// `field` with the index of each field's first occurrence; later
    /// occurrences are skipped.
    ///
    /// A key naming no field is skipped, or with `deny_unknown` is an
    /// ``unknown field `…` `` error at once. A shape error from `field`
    /// is held back: the reader rewinds, skips the value and goes on, so
    /// that an unknown key later in the object still wins. The held-back
    /// error with the lowest field index is returned; [`take_field`]
    /// reports it when the caller reaches that field.
    ///
    /// # Errors
    ///
    /// Returns an error for a non-object (`not_object`), an unknown key
    /// under `deny_unknown`, or malformed text.
    pub fn read_struct(
        &mut self,
        not_object: &'static str,
        fields: &[&str],
        deny_unknown: bool,
        mut field: impl FnMut(&mut Self, usize) -> Result<(), Error>,
    ) -> Result<Deferred, Error> {
        debug_assert!(fields.len() <= 64);
        let mut seen = 0u64;
        let mut deferred: Deferred = None;
        self.map(not_object, |r, key| {
            let Some(index) = fields.iter().position(|f| *f == key) else {
                if deny_unknown {
                    let expected: Vec<String> = fields.iter().map(|f| format!("`{f}`")).collect();
                    return Err(Error::msg(format!(
                        "unknown field `{key}`, expected one of {}",
                        expected.join(", ")
                    )));
                }
                return r.skip_value();
            };
            if seen & (1 << index) != 0 {
                return r.skip_value();
            }
            seen |= 1 << index;
            let start = *r;
            if let Err(e) = field(r, index) {
                if deferred.as_ref().is_none_or(|(at, _)| index < *at) {
                    deferred = Some((index, e));
                }
                *r = start;
                r.skip_value()?;
            }
            Ok(())
        })?;
        Ok(deferred)
    }

    /// Reads an array of exactly `n` elements, calling `item` with each
    /// element's index. A non-array is the shape error `not_array`, and
    /// any other length is `wrong_len`, which wins over an element's own
    /// shape error as it would if the length were checked first.
    ///
    /// # Errors
    ///
    /// Returns the first of those errors, an error of `item`, or an error
    /// of the text.
    pub fn read_tuple(
        &mut self,
        n: usize,
        not_array: &'static str,
        wrong_len: &'static str,
        mut item: impl FnMut(&mut Self, usize) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let start = *self;
        let mut len = 0;
        let read = self.seq(not_array, |r| {
            if len >= n {
                return Err(Error::msg(wrong_len));
            }
            len += 1;
            item(r, len - 1)
        });
        match read {
            Ok(()) if len == n => Ok(()),
            Ok(()) => Err(Error::msg(wrong_len)),
            Err(e) => {
                *self = start;
                let mut len = 0;
                self.seq(not_array, |r| {
                    len += 1;
                    r.skip_value()
                })?;
                Err(if len == n { e } else { Error::msg(wrong_len) })
            }
        }
    }

    /// Reads an externally tagged enum value: a string naming one of
    /// `unit` (returned through `unit_value`), or a one-key object whose
    /// key names one of `tagged` (decoded by `payload`, positioned at the
    /// value). A name that is no variant at all is an ``unknown variant
    /// `…` `` error listing the variants, unit ones first; anything else
    /// is `unrecognized`.
    ///
    /// # Errors
    ///
    /// Returns an unknown-variant error, `unrecognized`, an error of
    /// `payload`, or an error of the text.
    pub fn read_enum<T>(
        &mut self,
        unit: &[&str],
        tagged: &[&str],
        unrecognized: &'static str,
        unit_value: impl FnOnce(usize) -> T,
        payload: impl FnOnce(&mut Self, usize) -> Result<T, Error>,
    ) -> Result<T, Error> {
        match self.peek()? {
            b'"' => {
                let name = self.string()?;
                match unit.iter().position(|u| *u == name) {
                    Some(index) => Ok(unit_value(index)),
                    None if tagged.iter().any(|t| *t == name) => Err(Error::msg(unrecognized)),
                    None => Err(unknown_variant(&name, unit, tagged)),
                }
            }
            b'{' => {
                self.enter(b'{')?;
                if self.peek()? == b'}' {
                    return Err(Error::msg(unrecognized));
                }
                let tag = self.string()?;
                self.expect(b':')?;
                let Some(index) = tagged.iter().position(|t| *t == tag) else {
                    if unit.iter().any(|u| *u == tag) {
                        return Err(Error::msg(unrecognized));
                    }
                    return Err(unknown_variant(&tag, unit, tagged));
                };
                let start = *self;
                let value = payload(self, index);
                if value.is_err() {
                    *self = start;
                    self.skip_value()?;
                }
                match self.peek()? {
                    b'}' => {
                        self.pos += 1;
                        self.depth -= 1;
                        value
                    }
                    b',' => Err(Error::msg(unrecognized)),
                    _ => Err(Error::msg(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    ))),
                }
            }
            _ => Err(Error::msg(unrecognized)),
        }
    }
}

/// The error for an enum tag `name` that names none of the variants
/// `unit` and `tagged`, worded like the unknown-field error.
fn unknown_variant(name: &str, unit: &[&str], tagged: &[&str]) -> Error {
    let expected: Vec<String> = unit
        .iter()
        .chain(tagged)
        .map(|v| format!("`{v}`"))
        .collect();
    Error::msg(format!(
        "unknown variant `{name}`, expected one of {}",
        expected.join(", ")
    ))
}

/// Reads the four hex digits at `*pos`, just after a `\u`.
fn hex_escape(text: &str, pos: &mut usize) -> Result<u32, Error> {
    let hex = text
        .as_bytes()
        .get(*pos..*pos + 4)
        .ok_or_else(|| Error::msg("truncated \\u escape"))?;
    *pos += 4;
    u32::from_str_radix(
        std::str::from_utf8(hex).map_err(|_| Error::msg("bad \\u escape"))?,
        16,
    )
    .map_err(|_| Error::msg("bad \\u escape"))
}

/// A struct field after [`Reader::read_struct`]: its held-back error if
/// it has one, else its value, else ``missing``.
///
/// # Errors
///
/// Returns the held-back error or `missing`.
pub fn take_field<T>(
    slot: Option<T>,
    index: usize,
    deferred: &mut Deferred,
    missing: &'static str,
) -> Result<T, Error> {
    if deferred.as_ref().is_some_and(|(at, _)| *at == index) {
        if let Some((_, e)) = deferred.take() {
            return Err(e);
        }
    }
    slot.ok_or_else(|| Error::msg(missing))
}

// ---------------------------------------------------------------- writing

/// Appends `s` as a JSON string literal.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends the decimal digits of `n`.
fn write_u64(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(char::from(d));
    }
}

/// Appends a finite float, always with a `.` (`1.0`, not `1`).
fn write_f64(f: f64, out: &mut String) -> Result<(), Error> {
    if !f.is_finite() {
        return Err(Error::msg("non-finite float in JSON"));
    }
    let start = out.len();
    let _ = write!(out, "{f}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
    Ok(())
}

/// Appends `items` as a JSON array.
fn write_seq<'t, T: Serialize + 't>(
    items: impl IntoIterator<Item = &'t T>,
    out: &mut String,
) -> Result<(), Error> {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.serialize_json(out)?;
    }
    out.push(']');
    Ok(())
}

// ---------------------------------------------------------- std impls

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
                write_u64(*self as u64, out);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
                let expected = concat!("expected ", stringify!($t));
                let u = match reader.number_or(expected)? {
                    Number::UInt(u) => u,
                    Number::Int(i) if i >= 0 => i as u64,
                    _ => return Err(Error::msg(expected)),
                };
                <$t>::try_from(u)
                    .map_err(|_| Error::msg(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
                let i = *self as i64;
                if i < 0 {
                    out.push('-');
                }
                write_u64(i.unsigned_abs(), out);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
                let expected = concat!("expected ", stringify!($t));
                let i = match reader.number_or(expected)? {
                    Number::Int(i) => i,
                    Number::UInt(u) if u <= i64::MAX as u64 => u as i64,
                    _ => return Err(Error::msg(expected)),
                };
                <$t>::try_from(i)
                    .map_err(|_| Error::msg(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);
impl_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        write_f64(*self, out)
    }
}

impl Deserialize for f64 {
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match reader.number_or("expected number")? {
            Number::UInt(u) => u as f64,
            Number::Int(i) => i as f64,
            Number::Float(f) => f,
        })
    }
}

impl Serialize for f32 {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        write_f64(f64::from(*self), out)
    }
}

impl Deserialize for f32 {
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        f64::deserialize_json(reader).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        out.push_str(if *self { "true" } else { "false" });
        Ok(())
    }
}

impl Deserialize for bool {
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        match reader.peek()? {
            b't' => reader.literal("true").map(|()| true),
            b'f' => reader.literal("false").map(|()| false),
            _ => Err(Error::msg("expected bool")),
        }
    }
}

impl Serialize for String {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        write_str(self, out);
        Ok(())
    }
}

impl Deserialize for String {
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        if reader.peek()? != b'"' {
            return Err(Error::msg("expected string"));
        }
        reader.string().map(Cow::into_owned)
    }
}

impl Serialize for &str {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        write_str(self, out);
        Ok(())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        match self {
            Some(x) => x.serialize_json(out),
            None => {
                out.push_str("null");
                Ok(())
            }
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        if reader.peek()? == b'n' {
            reader.literal("null").map(|()| None)
        } else {
            T::deserialize_json(reader).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        write_seq(self, out)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let mut items = Vec::new();
        reader.seq("expected array", |r| {
            items.push(T::deserialize_json(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: Serialize> Serialize for &[T] {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        write_seq(*self, out)
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        (**self).serialize_json(out)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize_json(reader).map(Box::new)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        out.push('[');
        self.0.serialize_json(out)?;
        out.push(',');
        self.1.serialize_json(out)?;
        out.push(']');
        Ok(())
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut a, mut b) = (None, None);
        let msg = "expected 2-tuple";
        reader.read_tuple(2, msg, msg, |r, i| {
            match i {
                0 => a = Some(A::deserialize_json(r)?),
                _ => b = Some(B::deserialize_json(r)?),
            }
            Ok(())
        })?;
        a.zip(b).ok_or_else(|| Error::msg(msg))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        out.push('[');
        self.0.serialize_json(out)?;
        out.push(',');
        self.1.serialize_json(out)?;
        out.push(',');
        self.2.serialize_json(out)?;
        out.push(']');
        Ok(())
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut a, mut b, mut c) = (None, None, None);
        let msg = "expected 3-tuple";
        reader.read_tuple(3, msg, msg, |r, i| {
            match i {
                0 => a = Some(A::deserialize_json(r)?),
                1 => b = Some(B::deserialize_json(r)?),
                _ => c = Some(C::deserialize_json(r)?),
            }
            Ok(())
        })?;
        match (a, b, c) {
            (Some(a), Some(b), Some(c)) => Ok((a, b, c)),
            _ => Err(Error::msg(msg)),
        }
    }
}

impl Serialize for std::time::Duration {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        let _ = write!(
            out,
            "{{\"secs\":{},\"nanos\":{}}}",
            self.as_secs(),
            self.subsec_nanos()
        );
        Ok(())
    }
}

impl Deserialize for std::time::Duration {
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let msg = "expected duration object";
        let (mut secs, mut nanos) = (None, None);
        let deferred = reader
            .read_struct(msg, &["secs", "nanos"], false, |r, i| {
                let value = u64::deserialize_json(r)?;
                *(if i == 0 { &mut secs } else { &mut nanos }) = Some(value);
                Ok(())
            })
            .map_err(|_| Error::msg(msg))?;
        match (deferred, secs, nanos) {
            (None, Some(secs), Some(nanos)) => {
                let nanos = nanos as u32;
                // `Duration::new` panics when the carried seconds
                // overflow; that is a malformed duration here.
                secs.checked_add(u64::from(nanos / 1_000_000_000))
                    .map(|_| std::time::Duration::new(secs, nanos))
                    .ok_or_else(|| Error::msg(msg))
            }
            _ => Err(Error::msg(msg)),
        }
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize_json(&self, out: &mut String) -> Result<(), Error> {
        out.push('[');
        for (i, (k, v)) in self.iter().enumerate() {
            out.push_str(if i > 0 { ",[" } else { "[" });
            k.serialize_json(out)?;
            out.push(',');
            v.serialize_json(out)?;
            out.push(']');
        }
        out.push(']');
        Ok(())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for std::collections::BTreeMap<K, V> {
    fn deserialize_json(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let mut map = std::collections::BTreeMap::new();
        reader.seq("expected map entries", |r| {
            let (k, v) = <(K, V)>::deserialize_json(r)?;
            map.insert(k, v);
            Ok(())
        })?;
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Serialize + Deserialize>(value: &T) -> T {
        let mut text = String::new();
        value.serialize_json(&mut text).unwrap();
        let mut reader = Reader::new(&text);
        let back = T::deserialize_json(&mut reader).unwrap();
        reader.finish().unwrap();
        back
    }

    fn read<T: Deserialize>(text: &str) -> Result<T, Error> {
        T::deserialize_json(&mut Reader::new(text))
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(round_trip(&42u32), 42);
        assert_eq!(round_trip(&-5i64), -5);
        assert_eq!(round_trip(&1.5f64), 1.5);
        assert!(round_trip(&true));
        assert_eq!(round_trip(&"hi".to_string()), "hi");
    }

    #[test]
    fn float_accepts_integral_value() {
        assert_eq!(read::<f64>("3").unwrap(), 3.0);
        assert_eq!(read::<f64>("-3").unwrap(), -3.0);
        assert_eq!(read::<f64>("-0").unwrap().to_bits(), 0);
    }

    #[test]
    fn option_and_vec() {
        assert_eq!(read::<Option<u32>>("null").unwrap(), None);
        let xs = vec![1u32, 2, 3];
        assert_eq!(round_trip(&xs), xs);
        assert_eq!(round_trip(&(7u32, -2i64)), (7, -2));
    }

    #[test]
    fn object_lookup() {
        let v = Value::Object(vec![("a".into(), Value::UInt(1))]);
        assert_eq!(v.get("a"), Some(&Value::UInt(1)));
        assert_eq!(v.get("b"), None);
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(
            read::<u8>("300").unwrap_err().to_string(),
            "u8 out of range"
        );
        assert_eq!(read::<u32>("-1").unwrap_err().to_string(), "expected u32");
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        assert!(matches!(
            Reader::new("\"plain\"").string().unwrap(),
            Cow::Borrowed("plain")
        ));
        assert_eq!(Reader::new(r#""a\nbé""#).string().unwrap(), "a\nbé");
        let mut out = String::new();
        write_str("q\"\u{1}\\", &mut out);
        assert_eq!(out, r#""q\"\u0001\\""#);
    }

    #[test]
    fn tuple_length_wins_over_element_errors() {
        let err = read::<(u32, u32)>(r#"["x",1,2]"#).unwrap_err();
        assert_eq!(err.to_string(), "expected 2-tuple");
        let err = read::<(u32, u32)>(r#"["x",1]"#).unwrap_err();
        assert_eq!(err.to_string(), "expected u32");
    }

    #[test]
    fn durations_round_trip() {
        let d = std::time::Duration::new(3, 250);
        assert_eq!(round_trip(&d), d);
        let overflow = format!("{{\"secs\":{},\"nanos\":4000000000}}", u64::MAX);
        assert!(read::<std::time::Duration>(&overflow).is_err());
    }
}

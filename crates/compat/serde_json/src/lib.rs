//! Offline stand-in for `serde_json`.
//!
//! Streams values straight to and from JSON text through the serde
//! shim's [`Serialize`] / [`Deserialize`] traits, exposing the
//! `to_string` / `to_string_pretty` / `from_str` entry points this
//! workspace uses, plus [`parse_value`] for callers that want a generic
//! [`Value`] document.
//!
//! [`from_str`] reads its input once when it succeeds. When it fails,
//! the text is parsed again as a plain document, and a syntax error
//! found there is reported in place of the typed decoder's error: a
//! malformed document gets the same message whatever type was asked
//! for, including the recursion limit and trailing characters.

use serde::{Deserialize, Number, Reader, Serialize};
pub use serde::{Error, Value, RECURSION_LIMIT};

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Returns [`Error`] when the value contains a non-finite float.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.serialize_json(&mut out)?;
    Ok(out)
}

/// Serializes a value to pretty-printed JSON (2-space indent): the
/// compact form with a line per array element and object entry.
///
/// # Errors
///
/// Returns [`Error`] when the value contains a non-finite float.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    to_string(value).map(|compact| indent(&compact))
}

/// Parses JSON text into any deserializable type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut reader = Reader::new(s);
    T::deserialize_json(&mut reader)
        .and_then(|value| reader.finish().map(|()| value))
        .map_err(|shape| parse_value(s).err().unwrap_or(shape))
}

/// Re-indents compact JSON (as [`to_string`] writes it: no whitespace
/// outside strings) with two spaces per level, `": "` after keys and
/// empty arrays and objects kept on one line.
fn indent(compact: &str) -> String {
    let bytes = compact.as_bytes();
    let mut out = String::with_capacity(compact.len() * 2);
    let mut level = 0usize;
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', 2 * level));
    };
    let mut run = 0;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
            }
            b'[' | b'{' if !matches!(bytes.get(i + 1), Some(b']' | b'}')) => {
                out.push_str(&compact[run..=i]);
                level += 1;
                newline(&mut out, level);
                run = i + 1;
            }
            b'[' | b'{' => i += 1,
            b']' | b'}' => {
                out.push_str(&compact[run..i]);
                level -= 1;
                newline(&mut out, level);
                run = i;
            }
            b',' => {
                out.push_str(&compact[run..=i]);
                newline(&mut out, level);
                run = i + 1;
            }
            b':' => {
                out.push_str(&compact[run..=i]);
                out.push(' ');
                run = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    out.push_str(&compact[run..]);
    out
}

/// Parses a complete JSON document into a [`Value`].
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON, trailing garbage, or nesting
/// deeper than [`RECURSION_LIMIT`].
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut reader = Reader::new(s);
    let value = value(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

fn value(r: &mut Reader<'_>) -> Result<Value, Error> {
    Ok(match r.peek()? {
        b'n' => r.literal("null").map(|()| Value::Null)?,
        b't' => r.literal("true").map(|()| Value::Bool(true))?,
        b'f' => r.literal("false").map(|()| Value::Bool(false))?,
        b'"' => Value::Str(r.string()?.into_owned()),
        b'[' => {
            let mut items = Vec::new();
            r.seq("", |r| {
                items.push(value(r)?);
                Ok(())
            })?;
            Value::Array(items)
        }
        b'{' => {
            let mut pairs = Vec::new();
            r.map("", |r, key| {
                pairs.push((key.into_owned(), value(r)?));
                Ok(())
            })?;
            Value::Object(pairs)
        }
        _ => match r.number()? {
            Number::UInt(u) => Value::UInt(u),
            Number::Int(i) => Value::Int(i),
            Number::Float(f) => Value::Float(f),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&"a\"b".to_string()).unwrap(), "\"a\\\"b\"");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("2.0").unwrap(), 2.0);
        assert_eq!(from_str::<f64>("2").unwrap(), 2.0);
        assert_eq!(from_str::<String>("\"a\\nb\"").unwrap(), "a\nb");
    }

    #[test]
    fn vectors_and_options() {
        let xs = vec![1u32, 2, 3];
        let text = to_string(&xs).unwrap();
        assert_eq!(text, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&text).unwrap(), xs);
        assert_eq!(to_string(&Option::<u32>::None).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("7").unwrap(), Some(7));
    }

    #[test]
    fn nested_value_parses() {
        let v = parse_value(r#"{"a": [1, 2.5, "x"], "b": {"c": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
    }

    #[test]
    fn pretty_printing_is_parseable() {
        let value = (
            vec![1u32, 2],
            (Vec::<u32>::new(), "a,\"[b]\":{".to_string()),
        );
        let pretty = to_string_pretty(&value).unwrap();
        assert_eq!(
            pretty,
            "[\n  [\n    1,\n    2\n  ],\n  [\n    [],\n    \"a,\\\"[b]\\\":{\"\n  ]\n]"
        );
        assert_eq!(
            from_str::<(Vec<u32>, (Vec<u32>, String))>(&pretty).unwrap(),
            value
        );
    }

    #[test]
    fn malformed_rejected() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("01x").is_err());
        assert!(parse_value("\"abc").is_err());
        assert!(parse_value("{} extra").is_err());
    }

    #[test]
    fn syntax_errors_win_over_shape_errors() {
        let syntax = parse_value("[\"x\", 1,]").unwrap_err();
        assert_eq!(from_str::<Vec<u32>>("[\"x\", 1,]").unwrap_err(), syntax);
        assert_eq!(
            from_str::<Vec<u32>>("[\"x\"]").unwrap_err().to_string(),
            "expected u32"
        );
        assert_eq!(
            from_str::<u32>("7 8").unwrap_err().to_string(),
            "trailing characters at byte 2"
        );
    }

    #[test]
    fn nesting_is_limited_to_128_levels() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_value(&nested(RECURSION_LIMIT)).is_ok());
        let err = parse_value(&nested(RECURSION_LIMIT + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        let objects = format!("{}1{}", "{\"a\":".repeat(129), "}".repeat(129));
        assert!(parse_value(&objects).is_err());
        // A million levels fail on the limit, not on the stack, also
        // where a typed decoder skips the value.
        assert!(parse_value(&"[".repeat(1_000_000)).is_err());
        let skipped = format!("[1,{}]", "[".repeat(1_000_000));
        let err = from_str::<(u32, u32)>(&skipped).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    }

    #[test]
    fn unicode_survives() {
        let s = "héllo ✓".to_string();
        let text = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&text).unwrap(), s);
        assert_eq!(from_str::<String>("\"\\u0041\"").unwrap(), "A");
    }

    #[test]
    fn surrogate_pairs_decode() {
        // "😀" as JSON.stringify / Python json.dumps emit it.
        assert_eq!(from_str::<String>("\"\\ud83d\\ude00\"").unwrap(), "😀");
        assert!(from_str::<String>("\"\\ud83d\"").is_err()); // unpaired high
        assert!(from_str::<String>("\"\\ud83d\\u0041\"").is_err()); // bad low
        assert!(from_str::<String>("\"\\ud83dx\"").is_err()); // no escape
    }

    #[test]
    fn non_finite_floats_error() {
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&f64::INFINITY).is_err());
    }
}

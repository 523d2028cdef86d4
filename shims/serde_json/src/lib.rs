//! Offline stand-in for `serde_json`.
//!
//! Renders and parses JSON text over the shim `serde` crate's [`Value`]
//! tree. Supports the workspace's usage: [`to_string`],
//! [`to_string_pretty`], [`from_str`], and the [`json!`] macro.

#![forbid(unsafe_code)]

use std::fmt;

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// JSON serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error::new(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value as compact JSON.
///
/// # Errors
///
/// Never fails in the shim (serialization is total); the `Result` matches
/// the real crate's signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(value.to_value().to_string())
}

/// Serializes a value as human-readable JSON (two-space indent).
///
/// # Errors
///
/// Never fails in the shim; the `Result` matches the real crate.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&value.to_value(), 0, &mut out);
    Ok(out)
}

/// Parses JSON text into any deserializable type.
///
/// # Errors
///
/// Fails on malformed JSON or on a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let value = parse_value(text)?;
    Ok(T::from_value(&value)?)
}

/// Lowers any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Rebuilds a typed value from a [`Value`] tree.
///
/// # Errors
///
/// Fails on a shape mismatch with `T`.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    Ok(T::from_value(value)?)
}

// ---------------------------------------------------------------------------
// json! macro

/// Builds a [`Value`] from a JSON-shaped literal with interpolation.
///
/// Keys may be string literals or identifiers naming in-scope `&str`/
/// `String` expressions (the subset the workspace uses).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(::std::vec![ $( $crate::value_of(&$elem) ),* ])
    };
    ({ $($key:tt : $val:expr),* $(,)? }) => {
        $crate::Value::Object(::std::vec![ $( ($crate::key_of($key), $crate::value_of(&$val)) ),* ])
    };
    ($other:expr) => { $crate::value_of(&$other) };
}

/// Support function for [`json!`]: lowers an interpolated expression.
pub fn value_of<T: Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

/// Support function for [`json!`]: accepts literal and identifier keys.
pub fn key_of(k: impl Into<String>) -> String {
    k.into()
}

// ---------------------------------------------------------------------------
// Pretty printer

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    const STEP: &str = "  ";
    match v {
        Value::Array(elems) if !elems.is_empty() => {
            out.push_str("[\n");
            for (i, e) in elems.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&STEP.repeat(indent + 1));
                write_pretty(e, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&STEP.repeat(indent + 1));
                out.push_str(&Value::Str(k.clone()).to_string());
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&STEP.repeat(indent));
            out.push('}');
        }
        leaf => out.push_str(&leaf.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Parser

fn parse_value(text: &str) -> Result<Value> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_at(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_at(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut elems = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(elems));
            }
            loop {
                elems.push(parse_at(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(elems));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::new(format!("expected `:` at byte {pos}")));
                }
                *pos += 1;
                let value = parse_at(bytes, pos)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(Error::new(format!("invalid token at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                        // Surrogate pairs are not produced by the writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(Error::new("invalid escape sequence")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| Error::new("unterminated string"))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error::new("invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(Error::new(format!("invalid number at byte {start}")));
    }
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| Error::new(format!("invalid number `{text}` at byte {start}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"a":[1,2.5,null,true],"b":{"c":"x\ny"},"d":-7}"#;
        let v: Value = from_str::<Value>(text).expect("parses");
        let re = to_string(&v).expect("prints");
        let v2: Value = from_str::<Value>(&re).expect("reparses");
        assert_eq!(v, v2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("not json at all").is_err());
        assert!(from_str::<Value>("{\"a\":}").is_err());
        assert!(from_str::<Value>("[1,2").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    #[test]
    fn pretty_output_reparses() {
        let v = json!({ "k": [1, 2, 3], "s": "hi" });
        let pretty = to_string_pretty(&v).expect("prints");
        assert_eq!(from_str::<Value>(&pretty).expect("parses"), v);
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Counters {
        built: u64,
        #[serde(default)]
        added_later: u64,
    }

    #[test]
    fn default_fields_read_back_when_absent() {
        let old: Counters = from_str(r#"{"built":3}"#).expect("old record parses");
        assert_eq!(
            old,
            Counters {
                built: 3,
                added_later: 0
            }
        );
        let new = Counters {
            built: 1,
            added_later: 2,
        };
        let text = to_string(&new).expect("prints");
        assert_eq!(from_str::<Counters>(&text).expect("parses"), new);
        // Only the marked field may be missing.
        assert!(from_str::<Counters>(r#"{"added_later":1}"#).is_err());
    }
}

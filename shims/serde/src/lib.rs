//! Offline stand-in for `serde`.
//!
//! The build environment has no crates.io access, so this crate provides
//! the subset of serde the workspace uses: `Serialize`/`Deserialize`
//! traits and the derive macros, modelled over a JSON-shaped [`Value`]
//! tree instead of serde's streaming visitors. The externally-tagged enum
//! representation matches serde's default, so artifacts stay
//! human-readable and stable across the shim/real-serde boundary.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// Self-describing data model every [`Serialize`] type lowers into.
///
/// Matches the JSON data model; `serde_json` renders and parses it.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON booleans.
    Bool(bool),
    /// Signed integers (covers every integer the workspace serializes).
    Int(i64),
    /// Unsigned integers above `i64::MAX`.
    UInt(u64),
    /// Floating-point numbers.
    Float(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Array(Vec<Value>),
    /// Objects, in insertion order (stable output for diffing).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(elems) => Some(elems),
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

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Interprets a single-entry object as an externally-tagged enum
    /// variant: `{"Name": payload}`.
    pub fn as_variant(&self) -> Option<(&str, &Value)> {
        match self.as_object() {
            Some([(name, payload)]) => Some((name.as_str(), payload)),
            _ => None,
        }
    }

    /// A short noun for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Compact JSON rendering (used by `serde_json` and `json!(...).to_string()`).
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::UInt(u) => write!(f, "{u}"),
            Value::Float(x) => {
                if x.is_finite() {
                    // Keep a fractional part so floats survive a round trip
                    // as floats rather than re-parsing as integers.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    // JSON has no NaN/Infinity; serde_json maps them to null.
                    f.write_str("null")
                }
            }
            Value::Str(s) => write_json_string(f, s),
            Value::Array(elems) => {
                f.write_str("[")?;
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("]")
            }
            Value::Object(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_json_string(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_json_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            '\u{8}' => f.write_str("\\b")?,
            '\u{c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Serialization/deserialization error: a message, as in `serde::de::Error`.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// An error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }

    /// "expected X while deserializing Y"-shaped error.
    pub fn expected(what: &str, context: &str) -> Error {
        Error {
            msg: format!("expected {what} while deserializing {context}"),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Types that can lower themselves into a [`Value`].
pub trait Serialize {
    /// Lowers `self` into the data model.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self`, or explains why the value has the wrong shape.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Owned-deserialization alias used by `serde_json::from_str` bounds.
pub trait DeserializeOwned: Deserialize {}
impl<T: Deserialize> DeserializeOwned for T {}

// ---------------------------------------------------------------------------
// Helpers the derive macros call (public, but not part of the facade API).

/// Fetches and deserializes a named struct field.
///
/// A missing key falls back to deserializing from [`Value::Null`], so
/// `Option<T>` fields added after data was written read back as `None`
/// (serde's `#[serde(default)]`-for-`Option` convention); any type that
/// rejects null still reports the field as missing.
pub fn field<T: Deserialize>(
    entries: &[(String, Value)],
    name: &str,
    context: &str,
) -> Result<T, Error> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => {
            T::from_value(v).map_err(|e| Error::custom(format!("{context}.{name}: {e}")))
        }
        None => T::from_value(&Value::Null)
            .map_err(|_| Error::custom(format!("missing field `{name}` in {context}"))),
    }
}

/// Like [`field`], but a missing key reads back as `T::default()`: the
/// derive's expansion of a field marked `#[serde(default)]`.
pub fn field_or_default<T: Deserialize + Default>(
    entries: &[(String, Value)],
    name: &str,
    context: &str,
) -> Result<T, Error> {
    if entries.iter().any(|(k, _)| k == name) {
        field(entries, name, context)
    } else {
        Ok(T::default())
    }
}

/// Builds an externally-tagged enum variant value: `{"Name": payload}`.
pub fn variant(name: &str, payload: Value) -> Value {
    Value::Object(vec![(name.to_string(), payload)])
}

// ---------------------------------------------------------------------------
// Primitive impls.

macro_rules! ser_de_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Int(*self as i64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let wide: i128 = match v {
                    Value::Int(i) => *i as i128,
                    Value::UInt(u) => *u as i128,
                    other => return Err(Error::expected("integer", other.kind())),
                };
                <$t>::try_from(wide)
                    .map_err(|_| Error::custom(format!("integer {wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! ser_de_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u128;
                if wide <= i64::MAX as u128 { Value::Int(wide as i64) } else { Value::UInt(wide as u64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Int(i) if *i >= 0 => <$t>::try_from(*i as u64)
                        .map_err(|_| Error::custom(format!("integer {i} out of range for {}", stringify!($t)))),
                    Value::Int(i) => Err(Error::custom(format!("negative integer {i} for {}", stringify!($t)))),
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| Error::custom(format!("integer {u} out of range for {}", stringify!($t)))),
                    other => Err(Error::expected("integer", other.kind())),
                }
            }
        }
    )*};
}

ser_de_signed!(i8, i16, i32, i64, isize);
ser_de_unsigned!(u8, u16, u32, u64, usize);

macro_rules! ser_de_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::Float(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Float(x) => Ok(*x as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    // Non-finite floats serialize as null (JSON has no NaN).
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(Error::expected("number", other.kind())),
                }
            }
        }
    )*};
}

ser_de_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other.kind())),
        }
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v
            .as_str()
            .ok_or_else(|| Error::expected("string", v.kind()))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom(format!("expected single char, got {s:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::expected("string", v.kind()))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("array", v.kind()))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of {N} elements, got {len}")))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Null
    }
}

impl Deserialize for () {
    fn from_value(_: &Value) -> Result<Self, Error> {
        Ok(())
    }
}

macro_rules! ser_de_tuple {
    ($(($($name:ident : $idx:tt),+),)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let elems = v.as_array().ok_or_else(|| Error::expected("array", v.kind()))?;
                let arity = [$($idx),+].len();
                if elems.len() != arity {
                    return Err(Error::custom(format!("expected {arity}-tuple, got {} elements", elems.len())));
                }
                Ok(($($name::from_value(&elems[$idx])?,)+))
            }
        }
    )*};
}

ser_de_tuple! {
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort for stable output; HashMap iteration order is arbitrary.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::expected("object", v.kind()))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::expected("object", v.kind()))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::expected("array", v.kind()))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

//! Stable, versioned content keys and checksums for the durable tier.
//!
//! The in-memory store used to key artifacts by FNV-1a over the `Debug`
//! form of their configuration structs. That is fragile in exactly the way
//! a *persistent* cache cannot afford: reordering two fields in a derive,
//! renaming a variant, or a `Debug` formatting change in a future toolchain
//! silently changes every key and invalidates (or worse, aliases) every
//! entry written by an older binary.
//!
//! [`stable_key`] replaces it with a canonical binary encoding over the
//! serde [`Value`] tree:
//!
//! * every node is emitted as a one-byte type tag followed by a
//!   fixed-endian payload (lengths and integers little-endian);
//! * object entries are **sorted by key** before encoding, so two structs
//!   with the same fields produce the same key regardless of declaration
//!   order (see the derive-reorder test below);
//! * the encoding is prefixed by [`KEY_FORMAT_VERSION`], so an intentional
//!   format change is an explicit version bump that misses cleanly on
//!   every old entry instead of aliasing any of them.
//!
//! [`crc32`] is the IEEE CRC-32 used for per-entry and per-line checksums
//! by the disk store and the journal; its table is built in a `const`
//! context so the hot path is a plain lookup loop.

use serde::{Serialize, Value};

/// Version of the canonical key encoding. Bump this when the encoding
/// itself changes meaning; every existing disk entry then misses cleanly.
pub const KEY_FORMAT_VERSION: u32 = 1;

/// One-byte type tags of the canonical encoding, in [`Value`] order.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_UINT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_ARRAY: u8 = 6;
const TAG_OBJECT: u8 = 7;

/// Appends the canonical encoding of `value` to `out`.
fn encode(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::UInt(u) => {
            out.push(TAG_UINT);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            out.extend_from_slice(&(items.len() as u64).to_le_bytes());
            for item in items {
                encode(item, out);
            }
        }
        Value::Object(entries) => {
            // Canonical form: entries sorted by key, so declaration order
            // in a derive is not part of the key.
            let mut sorted: Vec<&(String, Value)> = entries.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            out.push(TAG_OBJECT);
            out.extend_from_slice(&(sorted.len() as u64).to_le_bytes());
            for (key, item) in sorted {
                out.extend_from_slice(&(key.len() as u64).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                encode(item, out);
            }
        }
    }
}

/// The FNV-1a offset basis: where a fresh [`fnv1a_fold`] starts.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a folded over `bytes`, continuing from `h`.
pub(crate) fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The stable content key of `value` under encoding version `version`.
fn stable_key_versioned<T: Serialize + ?Sized>(value: &T, version: u32) -> u64 {
    let mut buf = Vec::with_capacity(128);
    encode(&value.to_value(), &mut buf);
    let h = fnv1a_fold(FNV_OFFSET, &version.to_le_bytes());
    fnv1a_fold(h, &buf)
}

/// The stable, versioned content key of any serializable value.
///
/// Two values with equal serde trees always key identically — across
/// field reorderings, across processes, and across binaries built from
/// the same encoding version.
pub fn stable_key<T: Serialize + ?Sized>(value: &T) -> u64 {
    stable_key_versioned(value, KEY_FORMAT_VERSION)
}

/// IEEE CRC-32 lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (the zlib/PNG polynomial, reflected).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use serde::{Deserialize, Serialize};

    use super::*;

    #[derive(Serialize)]
    struct Declared {
        alpha: u32,
        beta: f64,
        gamma: String,
        nested: Vec<u32>,
    }

    // The same fields as `Declared`, deliberately declared in a different
    // order: a stand-in for a refactor reordering a config struct's fields.
    #[derive(Serialize)]
    struct Reordered {
        nested: Vec<u32>,
        gamma: String,
        alpha: u32,
        beta: f64,
    }

    #[test]
    fn derive_reordering_does_not_change_keys() {
        let a = Declared {
            alpha: 7,
            beta: 2.5,
            gamma: "acrobat".into(),
            nested: vec![1, 2, 3],
        };
        let b = Reordered {
            nested: vec![1, 2, 3],
            gamma: "acrobat".into(),
            alpha: 7,
            beta: 2.5,
        };
        assert_eq!(stable_key(&a), stable_key(&b));
    }

    #[test]
    fn distinct_values_key_distinctly() {
        let base = Declared {
            alpha: 7,
            beta: 2.5,
            gamma: "acrobat".into(),
            nested: vec![1, 2, 3],
        };
        let tweaked = Declared {
            alpha: 8,
            ..Declared {
                alpha: 7,
                beta: 2.5,
                gamma: "acrobat".into(),
                nested: vec![1, 2, 3],
            }
        };
        assert_ne!(stable_key(&base), stable_key(&tweaked));
        assert_ne!(stable_key(&1u32), stable_key(&"1"));
        assert_ne!(
            stable_key(&Vec::<u32>::new()),
            stable_key(&Option::<u32>::None)
        );
    }

    #[test]
    fn a_version_bump_changes_every_key() {
        let value = Declared {
            alpha: 7,
            beta: 2.5,
            gamma: "acrobat".into(),
            nested: vec![1, 2, 3],
        };
        assert_ne!(
            stable_key_versioned(&value, KEY_FORMAT_VERSION),
            stable_key_versioned(&value, KEY_FORMAT_VERSION + 1),
        );
    }

    #[test]
    fn keys_are_stable_across_serde_round_trips() {
        // A value that survives a JSON round trip must key identically on
        // both sides: the disk tier looks entries up by the key computed
        // from the *request*, but wrote them under the key computed from
        // the value originally built.
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct Config {
            window: u64,
            scale: f64,
            label: Option<String>,
        }
        let config = Config {
            window: 128,
            scale: 0.75,
            label: Some("cone".into()),
        };
        let json = serde_json::to_string(&config).expect("serializes");
        let back: Config = serde_json::from_str(&json).expect("round trips");
        assert_eq!(back, config);
        assert_eq!(stable_key(&config), stable_key(&back));
    }

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }
}

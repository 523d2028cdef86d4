//! The persistent spill tier of the [`crate::store::ArtifactStore`].
//!
//! Expensive, serializable artifacts (profiles and baseline simulations)
//! are spilled to one file per entry under a cache directory, so a warm
//! campaign survives process restart — the gap between a batch CLI and the
//! long-lived service of ROADMAP item 3. The design goals, in order:
//!
//! 1. **Never serve a wrong artifact.** Entries are addressed by
//!    [`crate::keys::stable_key`] and carry a header binding the entry
//!    format version, the key-encoding version, the artifact class, and a
//!    CRC-32 of the payload. Any mismatch — torn write, bit rot, a stale
//!    format — fails closed into a rebuild.
//! 2. **Never crash on a bad entry.** Corruption *quarantines* the file
//!    (renamed aside with a `.quarantine` suffix for post-mortems), emits
//!    one `critic-obs` [`EventKind::Quarantine`] event, and reports a
//!    miss. A half-written cache must cost time, not correctness.
//! 3. **Never tear an entry.** Saves write to a unique temp file, fsync
//!    it, then atomically rename into place, so a crash at any instant
//!    leaves either the old state or the new — the kill-anywhere drill
//!    aborts mid-save and checks exactly this.
//! 4. **Stay bounded.** An optional byte budget evicts least-recently-used
//!    entries after each save ([`EventKind::Evict`]).
//!
//! Every filesystem failure maps into a typed [`StoreError`]; nothing in
//! this module panics on I/O.
//!
//! # On-disk entry format (version 1)
//!
//! ```text
//! offset  size  field
//!      0     4  magic "CRAS"
//!      4     2  entry format version, u16 LE   (= 1)
//!      6     4  key-encoding version, u32 LE   (= KEY_FORMAT_VERSION)
//!     10     1  artifact class code
//!     11     1  reserved (0)
//!     12     8  payload length in bytes, u64 LE
//!     20     4  CRC-32 (IEEE) of the payload, u32 LE
//!     24     —  payload: the artifact as canonical JSON
//! ```
//!
//! The 64-bit stable key is the file name (`<class>-<key:016x>.art`), not
//! a header field: lookups never open the wrong entry, and the header's
//! class byte cross-checks the name against the bytes inside.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use critic_obs::{EventKind, Telemetry};
use serde::{Deserialize, Serialize};

use crate::keys::{crc32, KEY_FORMAT_VERSION};
use crate::lock_clean;

/// Magic bytes opening every entry file.
pub const ENTRY_MAGIC: [u8; 4] = *b"CRAS";

/// Version of the on-disk entry layout (header + payload framing).
pub const ENTRY_FORMAT_VERSION: u16 = 1;

/// Size of the fixed entry header in bytes.
pub const ENTRY_HEADER_LEN: usize = 24;

/// The artifact classes the disk tier persists. Worlds, cone vectors and
/// oracle executions hold interior `Arc` graphs that are cheaper to
/// regenerate deterministically than to serialize; profiles and baseline
/// simulations are the expensive, plain-data artifacts worth spilling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactClass {
    /// A [`critic_profiler::Profile`].
    Profile,
    /// A baseline [`crate::runner::RunOutcome`].
    Baseline,
}

impl ArtifactClass {
    /// The class code stored in the entry header.
    pub fn code(self) -> u8 {
        match self {
            ArtifactClass::Profile => 2,
            ArtifactClass::Baseline => 3,
        }
    }

    /// The file-name prefix of the class.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactClass::Profile => "profile",
            ArtifactClass::Baseline => "baseline",
        }
    }

    /// The inverse of [`ArtifactClass::name`], used when a class crosses
    /// the wire as text (the `fetch_artifact` verb).
    pub fn parse(name: &str) -> Option<ArtifactClass> {
        match name {
            "profile" => Some(ArtifactClass::Profile),
            "baseline" => Some(ArtifactClass::Baseline),
            _ => None,
        }
    }

    /// Every persistable class, for index walks.
    pub const ALL: [ArtifactClass; 2] = [ArtifactClass::Profile, ArtifactClass::Baseline];
}

/// A typed failure of the persistent store tier. Every I/O error carries
/// the operation and path it failed on; nothing here ever panics.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The operation that failed (e.g. `"create-dir"`, `"rename"`).
        op: &'static str,
        /// The path it failed on.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// An entry's bytes contradict its header (or the header itself is
    /// malformed). Returned only by strict readers; the store's own load
    /// path converts this into a quarantine + miss.
    Corrupt {
        /// The entry file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "store {op} failed on {}: {source}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt store entry {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt { .. } => None,
        }
    }
}

/// Builds the 24-byte header for a payload of `class` (see the module
/// docs for the layout). Golden-tested byte for byte.
pub fn entry_header(class: ArtifactClass, payload: &[u8]) -> [u8; ENTRY_HEADER_LEN] {
    let mut header = [0u8; ENTRY_HEADER_LEN];
    header[0..4].copy_from_slice(&ENTRY_MAGIC);
    header[4..6].copy_from_slice(&ENTRY_FORMAT_VERSION.to_le_bytes());
    header[6..10].copy_from_slice(&KEY_FORMAT_VERSION.to_le_bytes());
    header[10] = class.code();
    header[11] = 0;
    header[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[20..24].copy_from_slice(&crc32(payload).to_le_bytes());
    header
}

/// Checks `bytes` against the version-1 entry layout for `class` and
/// returns the payload on success.
fn verify_entry(class: ArtifactClass, path: &Path, bytes: &[u8]) -> Result<Vec<u8>, StoreError> {
    let corrupt = |detail: String| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    if bytes.len() < ENTRY_HEADER_LEN {
        return Err(corrupt(format!(
            "{} bytes is shorter than the header",
            bytes.len()
        )));
    }
    let (header, payload) = bytes.split_at(ENTRY_HEADER_LEN);
    if header[0..4] != ENTRY_MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let entry_version = u16::from_le_bytes([header[4], header[5]]);
    if entry_version != ENTRY_FORMAT_VERSION {
        return Err(corrupt(format!(
            "entry format {entry_version} != {ENTRY_FORMAT_VERSION}"
        )));
    }
    let key_version = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if key_version != KEY_FORMAT_VERSION {
        return Err(corrupt(format!(
            "key format {key_version} != {KEY_FORMAT_VERSION}"
        )));
    }
    if header[10] != class.code() {
        return Err(corrupt(format!("class {} != {}", header[10], class.code())));
    }
    let len = u64::from_le_bytes(
        header[12..20].try_into().unwrap_or([0; 8]), // length checked above; unreachable
    );
    if len != payload.len() as u64 {
        return Err(corrupt(format!(
            "payload {} bytes, header says {len}",
            payload.len()
        )));
    }
    let want = u32::from_le_bytes(header[20..24].try_into().unwrap_or([0; 4]));
    let got = crc32(payload);
    if want != got {
        return Err(corrupt(format!(
            "payload crc {got:08x} != header crc {want:08x}"
        )));
    }
    Ok(payload.to_vec())
}

/// LRU bookkeeping: file name → size, plus recency order (front oldest).
#[derive(Default)]
struct LruIndex {
    sizes: HashMap<String, u64>,
    order: Vec<String>,
    bytes: u64,
}

impl LruIndex {
    fn touch(&mut self, name: &str) {
        if let Some(pos) = self.order.iter().position(|n| n == name) {
            let name = self.order.remove(pos);
            self.order.push(name);
        }
    }

    fn insert(&mut self, name: String, size: u64) {
        if let Some(old) = self.sizes.insert(name.clone(), size) {
            self.bytes = self.bytes.saturating_sub(old);
            if let Some(pos) = self.order.iter().position(|n| *n == name) {
                self.order.remove(pos);
            }
        }
        self.bytes += size;
        self.order.push(name);
    }

    fn remove(&mut self, name: &str) {
        if let Some(size) = self.sizes.remove(name) {
            self.bytes = self.bytes.saturating_sub(size);
        }
        if let Some(pos) = self.order.iter().position(|n| n == name) {
            self.order.remove(pos);
        }
    }
}

/// Serializable counters of the disk tier, surfaced through
/// `critic stats --json` and the bench report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskStoreStats {
    /// Entries currently on disk.
    pub entries: u64,
    /// Bytes currently on disk (headers + payloads).
    pub bytes: u64,
    /// Loads served from disk.
    pub disk_hits: u64,
    /// Loads that found no entry.
    pub disk_misses: u64,
    /// Entries written.
    pub saves: u64,
    /// Entries evicted by the byte-budget LRU policy.
    pub evictions: u64,
    /// Corrupt or torn entries quarantined.
    pub quarantines: u64,
    /// Loads that failed with a filesystem error (not corruption).
    pub load_errors: u64,
    /// Saves that failed with a filesystem error.
    pub save_errors: u64,
}

/// The persistent tier: one directory of checksummed entry files with
/// atomic writes, quarantine-on-corruption, and LRU byte-budget eviction.
pub struct DiskStore {
    dir: PathBuf,
    budget: Option<u64>,
    index: Mutex<LruIndex>,
    temp_counter: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    saves: AtomicU64,
    evictions: AtomicU64,
    quarantines: AtomicU64,
    load_errors: AtomicU64,
    save_errors: AtomicU64,
    telemetry: Mutex<Telemetry>,
}

impl fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DiskStore({}, {:?})", self.dir.display(), self.stats())
    }
}

impl DiskStore {
    /// Opens (creating if needed) the store under `dir` with an optional
    /// byte budget. Existing entries are indexed oldest-first by
    /// modification time so eviction order survives restart.
    pub fn open(dir: &Path, budget: Option<u64>) -> Result<DiskStore, StoreError> {
        fs::create_dir_all(dir).map_err(|source| StoreError::Io {
            op: "create-dir",
            path: dir.to_path_buf(),
            source,
        })?;
        let mut found: Vec<(String, u64, std::time::SystemTime)> = Vec::new();
        let entries = fs::read_dir(dir).map_err(|source| StoreError::Io {
            op: "read-dir",
            path: dir.to_path_buf(),
            source,
        })?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(".art") {
                continue;
            }
            if let Ok(meta) = entry.metadata() {
                let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                found.push((name, meta.len(), mtime));
            }
        }
        found.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut index = LruIndex::default();
        for (name, size, _) in found {
            index.insert(name, size);
        }
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            budget,
            index: Mutex::new(index),
            temp_counter: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            saves: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            load_errors: AtomicU64::new(0),
            save_errors: AtomicU64::new(0),
            telemetry: Mutex::new(Telemetry::off()),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arms the telemetry handle used for eviction/quarantine events.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        *lock_clean(&self.telemetry) = telemetry;
    }

    fn event(&self, kind: EventKind) {
        lock_clean(&self.telemetry).event(kind);
    }

    fn file_name(class: ArtifactClass, key: u64) -> String {
        format!("{}-{key:016x}.art", class.name())
    }

    /// The inverse of the file-name scheme: `profile-00ab....art` →
    /// `(Profile, 0xab)`. `None` for temp files, quarantined entries, and
    /// anything else living in the directory.
    pub fn parse_entry_name(name: &str) -> Option<(ArtifactClass, u64)> {
        let stem = name.strip_suffix(".art")?;
        for class in ArtifactClass::ALL {
            if let Some(hex) = stem
                .strip_prefix(class.name())
                .and_then(|s| s.strip_prefix('-'))
            {
                if hex.len() == 16 {
                    if let Ok(key) = u64::from_str_radix(hex, 16) {
                        return Some((class, key));
                    }
                }
            }
        }
        None
    }

    /// Whether (`class`, `key`) is present in the index (no disk I/O and
    /// no counter movement — a peer-rebuild pre-check, not a load).
    pub fn contains(&self, class: ArtifactClass, key: u64) -> bool {
        let name = DiskStore::file_name(class, key);
        lock_clean(&self.index).sizes.contains_key(&name)
    }

    /// Every (`class`, `key`) currently indexed, in deterministic order.
    /// This is what a shard's `list_artifacts` wire verb serves so a
    /// rebuilding peer can diff its own index against ours.
    pub fn entries(&self) -> Vec<(ArtifactClass, u64)> {
        let mut entries: Vec<(ArtifactClass, u64)> = lock_clean(&self.index)
            .sizes
            .keys()
            .filter_map(|name| DiskStore::parse_entry_name(name))
            .collect();
        entries.sort_unstable_by_key(|(class, key)| (class.code(), *key));
        entries
    }

    /// Loads the payload of (`class`, `key`). `Ok(None)` covers both a
    /// plain miss and a corrupt entry — the latter is quarantined (renamed
    /// aside), counted, and reported as one [`EventKind::Quarantine`]
    /// event, so callers always just rebuild.
    pub fn load(&self, class: ArtifactClass, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let name = DiskStore::file_name(class, key);
        let path = self.dir.join(&name);
        let mut bytes = Vec::new();
        match fs::File::open(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Err(source) => {
                self.load_errors.fetch_add(1, Ordering::Relaxed);
                return Err(StoreError::Io {
                    op: "open",
                    path,
                    source,
                });
            }
            Ok(mut file) => {
                if let Err(source) = file.read_to_end(&mut bytes) {
                    self.load_errors.fetch_add(1, Ordering::Relaxed);
                    return Err(StoreError::Io {
                        op: "read",
                        path,
                        source,
                    });
                }
            }
        }
        match verify_entry(class, &path, &bytes) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                lock_clean(&self.index).touch(&name);
                Ok(Some(payload))
            }
            Err(_) => {
                self.quarantine(&name);
                Ok(None)
            }
        }
    }

    /// Renames a bad entry aside (best effort — removed outright if the
    /// rename itself fails) and counts the quarantine.
    fn quarantine(&self, name: &str) {
        let path = self.dir.join(name);
        let aside = self.dir.join(format!("{name}.quarantine"));
        if fs::rename(&path, &aside).is_err() {
            let _ = fs::remove_file(&path);
        }
        lock_clean(&self.index).remove(name);
        self.quarantines.fetch_add(1, Ordering::Relaxed);
        self.event(EventKind::Quarantine);
    }

    /// Persists `payload` under (`class`, `key`): unique temp file, fsync,
    /// atomic rename, then LRU eviction down to the byte budget. A key
    /// that is already on disk is only touched (entries are
    /// content-addressed: same key, same bytes).
    pub fn save(&self, class: ArtifactClass, key: u64, payload: &[u8]) -> Result<(), StoreError> {
        let name = DiskStore::file_name(class, key);
        let path = self.dir.join(&name);
        if path.exists() {
            lock_clean(&self.index).touch(&name);
            return Ok(());
        }
        let io_err = |op: &'static str, path: PathBuf, source: std::io::Error| {
            self.save_errors.fetch_add(1, Ordering::Relaxed);
            StoreError::Io { op, path, source }
        };
        let tag = self.temp_counter.fetch_add(1, Ordering::Relaxed);
        let temp = self
            .dir
            .join(format!(".tmp-{name}.{}.{tag}", std::process::id()));
        let mut file = match fs::File::create(&temp) {
            Ok(file) => file,
            Err(source) => return Err(io_err("create-temp", temp, source)),
        };
        let header = entry_header(class, payload);
        let write = file
            .write_all(&header)
            .and_then(|()| file.write_all(payload))
            .and_then(|()| file.sync_all());
        if let Err(source) = write {
            let _ = fs::remove_file(&temp);
            return Err(io_err("write-temp", temp, source));
        }
        drop(file);
        if let Err(source) = fs::rename(&temp, &path) {
            let _ = fs::remove_file(&temp);
            return Err(io_err("rename", path, source));
        }
        // Best-effort directory sync so the rename itself is durable.
        if let Ok(dir) = fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        self.saves.fetch_add(1, Ordering::Relaxed);
        let size = (ENTRY_HEADER_LEN + payload.len()) as u64;
        let evict = {
            let mut index = lock_clean(&self.index);
            index.insert(name, size);
            self.over_budget(&mut index)
        };
        for victim in evict {
            let _ = fs::remove_file(self.dir.join(&victim));
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.event(EventKind::Evict);
        }
        Ok(())
    }

    /// Pops LRU victims until the index fits the budget, always keeping
    /// the newest entry so a single oversized artifact still persists.
    fn over_budget(&self, index: &mut LruIndex) -> Vec<String> {
        let mut victims = Vec::new();
        if let Some(budget) = self.budget {
            while index.bytes > budget && index.order.len() > 1 {
                let name = index.order.remove(0);
                if let Some(size) = index.sizes.remove(&name) {
                    index.bytes = index.bytes.saturating_sub(size);
                }
                victims.push(name);
            }
        }
        victims
    }

    /// Chaos hook: flips one payload bit of the entry in place (a
    /// non-atomic rewrite, deliberately), so the next load must detect the
    /// corruption and quarantine it. Returns whether an entry existed.
    pub fn corrupt_entry(&self, class: ArtifactClass, key: u64) -> Result<bool, StoreError> {
        let path = self.dir.join(DiskStore::file_name(class, key));
        let mut bytes = match fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(source) => {
                return Err(StoreError::Io {
                    op: "read",
                    path,
                    source,
                })
            }
            Ok(bytes) => bytes,
        };
        if let Some(byte) = bytes.get_mut(ENTRY_HEADER_LEN) {
            *byte ^= 0x01;
        } else if let Some(byte) = bytes.last_mut() {
            *byte ^= 0x01;
        }
        fs::write(&path, &bytes).map_err(|source| StoreError::Io {
            op: "write",
            path,
            source,
        })?;
        Ok(true)
    }

    /// Snapshot of the disk-tier counters.
    pub fn stats(&self) -> DiskStoreStats {
        let index = lock_clean(&self.index);
        DiskStoreStats {
            entries: index.order.len() as u64,
            bytes: index.bytes,
            disk_hits: self.hits.load(Ordering::Relaxed),
            disk_misses: self.misses.load(Ordering::Relaxed),
            saves: self.saves.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            load_errors: self.load_errors.load(Ordering::Relaxed),
            save_errors: self.save_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "critic-disk-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entry_header_bytes_are_golden() {
        // The exact version-1 header for a 5-byte payload. If this test
        // fails, ENTRY_FORMAT_VERSION must be bumped, not the test fixed:
        // old binaries would otherwise misread new entries.
        let header = entry_header(ArtifactClass::Profile, b"hello");
        let expected: [u8; ENTRY_HEADER_LEN] = [
            0x43, 0x52, 0x41, 0x53, // "CRAS"
            0x01, 0x00, // entry format 1
            0x01, 0x00, 0x00, 0x00, // key format 1
            0x02, // class: profile
            0x00, // reserved
            0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // payload len 5
            0x86, 0xa6, 0x10, 0x36, // crc32("hello") = 0x3610a686 LE
        ];
        assert_eq!(header, expected);
        assert_eq!(crc32(b"hello"), 0x3610_a686);
    }

    #[test]
    fn save_load_round_trips_and_survives_reopen() {
        let dir = temp_dir("roundtrip");
        let store = DiskStore::open(&dir, None).expect("open");
        store
            .save(ArtifactClass::Profile, 0xabcd, b"{\"x\":1}")
            .expect("save");
        let back = store.load(ArtifactClass::Profile, 0xabcd).expect("load");
        assert_eq!(back.as_deref(), Some(b"{\"x\":1}".as_slice()));
        assert_eq!(
            store.load(ArtifactClass::Baseline, 0xabcd).expect("miss"),
            None
        );
        drop(store);

        // A second process (here: a second handle) sees the entry.
        let reopened = DiskStore::open(&dir, None).expect("reopen");
        let back = reopened.load(ArtifactClass::Profile, 0xabcd).expect("load");
        assert_eq!(back.as_deref(), Some(b"{\"x\":1}".as_slice()));
        let stats = reopened.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.quarantines, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_quarantine_instead_of_crashing() {
        let dir = temp_dir("quarantine");
        let store = DiskStore::open(&dir, None).expect("open");
        store
            .save(ArtifactClass::Baseline, 7, b"{\"cycles\":123}")
            .expect("save");
        assert!(store
            .corrupt_entry(ArtifactClass::Baseline, 7)
            .expect("corrupt"));
        // The bad entry reads back as a miss, never an error or a panic.
        assert_eq!(store.load(ArtifactClass::Baseline, 7).expect("load"), None);
        let stats = store.stats();
        assert_eq!(stats.quarantines, 1);
        assert_eq!(stats.entries, 0);
        // The original bytes are preserved aside for post-mortems.
        let aside: Vec<_> = fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".quarantine"))
            .collect();
        assert_eq!(aside.len(), 1);
        // A rebuild re-saves cleanly under the same key.
        store
            .save(ArtifactClass::Baseline, 7, b"{\"cycles\":123}")
            .expect("re-save");
        assert!(store
            .load(ArtifactClass::Baseline, 7)
            .expect("load")
            .is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writes_are_detected() {
        let dir = temp_dir("torn");
        let store = DiskStore::open(&dir, None).expect("open");
        store
            .save(ArtifactClass::Profile, 1, b"{\"payload\":\"full\"}")
            .expect("save");
        // Simulate a torn write: truncate the file mid-payload.
        let path = dir.join(DiskStore::file_name(ArtifactClass::Profile, 1));
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 4]).expect("truncate");
        assert_eq!(store.load(ArtifactClass::Profile, 1).expect("load"), None);
        assert_eq!(store.stats().quarantines, 1);
        // A header shorter than 24 bytes is also just a quarantine.
        fs::write(&path, b"CR").expect("stub");
        assert_eq!(store.load(ArtifactClass::Profile, 1).expect("load"), None);
        assert_eq!(store.stats().quarantines, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_budget_evicts_oldest_first() {
        let dir = temp_dir("lru");
        // Each entry is 24 + 8 = 32 bytes; budget fits two.
        let store = DiskStore::open(&dir, Some(64)).expect("open");
        store
            .save(ArtifactClass::Profile, 1, b"11111111")
            .expect("a");
        store
            .save(ArtifactClass::Profile, 2, b"22222222")
            .expect("b");
        // Touch 1 so 2 becomes the LRU victim.
        assert!(store
            .load(ArtifactClass::Profile, 1)
            .expect("touch")
            .is_some());
        store
            .save(ArtifactClass::Profile, 3, b"33333333")
            .expect("c");
        let stats = store.stats();
        assert_eq!(stats.evictions, 1, "{stats:?}");
        assert_eq!(stats.entries, 2, "{stats:?}");
        assert!(store
            .load(ArtifactClass::Profile, 2)
            .expect("evicted")
            .is_none());
        assert!(store
            .load(ArtifactClass::Profile, 1)
            .expect("kept")
            .is_some());
        assert!(store
            .load(ArtifactClass::Profile, 3)
            .expect("kept")
            .is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_oversized_entry_still_persists() {
        let dir = temp_dir("oversize");
        let store = DiskStore::open(&dir, Some(16)).expect("open");
        store
            .save(ArtifactClass::Profile, 9, b"way-over-the-budget-payload")
            .expect("save");
        assert!(store
            .load(ArtifactClass::Profile, 9)
            .expect("load")
            .is_some());
        assert_eq!(store.stats().entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_sees_evictions_and_quarantines() {
        let dir = temp_dir("telemetry");
        let store = DiskStore::open(&dir, Some(64)).expect("open");
        let telemetry = Telemetry::enabled();
        store.set_telemetry(telemetry.clone());
        store
            .save(ArtifactClass::Profile, 1, b"11111111")
            .expect("a");
        store
            .save(ArtifactClass::Profile, 2, b"22222222")
            .expect("b");
        store
            .save(ArtifactClass::Profile, 3, b"33333333")
            .expect("c");
        store
            .corrupt_entry(ArtifactClass::Profile, 3)
            .expect("corrupt");
        let _ = store.load(ArtifactClass::Profile, 3).expect("load");
        let snap = telemetry.snapshot().expect("snapshot").durability();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.quarantines, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

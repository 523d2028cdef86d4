//! The durable campaign journal: checksummed JSONL lines in bounded
//! segments, periodic checkpoint records, segment compaction, and
//! torn-tail recovery.
//!
//! The journal is the campaign's crash-consistency contract. Every cell
//! record is one JSON line carrying a CRC-32 of its own body as a trailing
//! `"crc32"` key — derived deserializers ignore unknown keys, so the same
//! line still parses as a plain [`CellRecord`] and journals written before
//! checksums existed (bare JSON lines) still replay. When the active file
//! reaches `segment_max_lines` cell records it is *rolled*: renamed to
//! `<journal>.segNNNN`, a fresh active file is started with a *checkpoint*
//! line summarizing the newest record per cell, and — once the checkpoint
//! is durable — every segment file it covers is deleted (compaction).
//! Replay therefore reads segments in numeric order, then the active file,
//! with newest-wins semantics per `(app, scheme)` key, so a compacted
//! journal resumes cell-for-cell identically to the full line history.
//!
//! Recovery never fails a resume over a half-written tail: an
//! unclassifiable final line of the active file is the signature of a
//! process killed mid-append, so [`Journal::open`] truncates it, emits one
//! [`EventKind::TornRecovery`], and reruns the cell that line would have
//! acknowledged. Unparseable *mid-file* garbage (e.g. an injected torn
//! write that merged with its successor) is skipped and counted instead —
//! rebuild, never crash.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use critic_obs::{EventKind, Telemetry, TelemetrySnapshot};
use critic_workloads::{SysFault, SysInjector, SysOp};
use serde::{Deserialize, Serialize};

use crate::campaign::{CampaignStoreRecord, CampaignTelemetryRecord, CellRecord, CellStatus};
use crate::keys::crc32;
use crate::lock_clean;
use crate::store::StoreStats;

/// A typed journal filesystem error. Replay *tolerates* corruption (bad
/// lines are skipped or truncated, never fatal); only I/O failures that
/// make the journal unusable — an unopenable path, an unreadable segment —
/// surface as errors.
#[derive(Debug)]
pub enum JournalError {
    /// A filesystem operation on the journal failed.
    Io {
        /// The operation that failed (e.g. `open`, `read-segment`).
        op: &'static str,
        /// The path it failed on.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
}

impl JournalError {
    fn io(op: &'static str, path: &Path, source: io::Error) -> JournalError {
        JournalError::Io {
            op,
            path: path.to_path_buf(),
            source,
        }
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, path, source } => {
                write!(f, "journal {op} failed on {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
        }
    }
}

/// The checkpoint line a segment roll writes at the top of each fresh
/// active file: the newest record per `(app, scheme)` across everything
/// the journal has seen, under a key no [`CellRecord`] has (so pre-segment
/// readers skip it like any other foreign line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    /// The checkpoint body.
    pub checkpoint: CheckpointBody,
}

/// Body of a [`CheckpointRecord`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointBody {
    /// Monotonic checkpoint sequence number (rolls so far).
    pub seq: u64,
    /// Newest record per cell at checkpoint time, in key order.
    pub records: Vec<CellRecord>,
}

/// Per-run-tag summary of a replayed journal. Service-era journals
/// interleave records from many invocations (the live server stamps its
/// [`run_tag`] on every cell, a restarted server stamps the next); rolling
/// them into one blended summary hides exactly the restart boundary the
/// recovery story cares about, so `critic stats` reports one rollup per
/// tag instead.
///
/// [`run_tag`]: crate::campaign::CampaignSpec::run_tag
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunRollup {
    /// The run tag (`None` groups untagged/legacy records).
    pub run: Option<u64>,
    /// Newest-wins records carrying this tag.
    pub cells: usize,
    /// Of those, cells journaled Ok.
    pub ok: usize,
    /// Cells journaled Failed/TimedOut/Panicked.
    pub failed: usize,
    /// Cells journaled Shed.
    pub shed: usize,
    /// Summed final-attempt wall-clock, milliseconds.
    pub total_millis: u64,
}

/// Everything a journal replay recovered, for resume and for `critic
/// stats`.
#[derive(Debug, Default)]
pub struct ReplayedJournal {
    /// Newest record per `(app, scheme)`, in key order, across segments,
    /// checkpoints, and the active file. *Not* filtered to any grid — the
    /// caller filters; checkpoints must cover everything ever journaled.
    pub records: Vec<CellRecord>,
    /// The last campaign-telemetry trailer, if any survived compaction.
    pub telemetry_trailer: Option<CampaignTelemetryRecord>,
    /// The last persistent-store trailer, if any survived compaction.
    pub store_trailer: Option<CampaignStoreRecord>,
    /// Checkpoint lines encountered.
    pub checkpoints: usize,
    /// Unclassifiable non-final lines skipped (torn merges, corruption).
    pub skipped_lines: usize,
    /// Whether the active file ended in a torn line (truncated by
    /// [`Journal::open`]; merely reported by [`Journal::replay`]).
    pub torn_tail: bool,
    /// Next segment sequence number (internal: seeds [`Journal::open`]).
    pub(crate) next_seq: u64,
    /// Cell-record lines currently in the active file (internal: seeds the
    /// roll threshold).
    pub(crate) active_lines: usize,
}

impl ReplayedJournal {
    /// Groups the newest-wins records by run tag: the untagged group
    /// first, then ascending tags — one [`RunRollup`] per distinct tag.
    pub fn run_rollups(&self) -> Vec<RunRollup> {
        let mut groups: BTreeMap<Option<u64>, RunRollup> = BTreeMap::new();
        for record in &self.records {
            let rollup = groups.entry(record.run).or_insert_with(|| RunRollup {
                run: record.run,
                cells: 0,
                ok: 0,
                failed: 0,
                shed: 0,
                total_millis: 0,
            });
            rollup.cells += 1;
            match record.status {
                CellStatus::Ok => rollup.ok += 1,
                CellStatus::Shed => rollup.shed += 1,
                _ => rollup.failed += 1,
            }
            rollup.total_millis += record.millis;
        }
        groups.into_values().collect()
    }
}

/// Internal classification of one journal line.
enum Line {
    Cell(CellRecord),
    Checkpoint(CheckpointBody),
    TelemetryTrailer(CampaignTelemetryRecord),
    StoreTrailer(CampaignStoreRecord),
    Invalid,
}

/// Mutable journal state behind one lock: the active file handle, its
/// cell-line count, the next segment number, and the newest record per
/// cell (the checkpoint source).
struct Active {
    file: File,
    /// The file ends in a torn fragment with no newline: the next write
    /// terminates it first so the fragment stays one invalid line instead
    /// of swallowing the line written after it.
    unterminated: bool,
    lines: usize,
    seq: u64,
    newest: BTreeMap<(String, String), CellRecord>,
}

impl Active {
    /// Ends a torn fragment an earlier write left behind with a newline.
    /// Returns whether the file is now at a line boundary.
    fn end_fragment(&mut self) -> bool {
        if self.unterminated && self.file.write_all(b"\n").is_ok() {
            self.unterminated = false;
        }
        !self.unterminated
    }
}

/// The append side of the journal. One instance per campaign run; all
/// appends go through the systemic-fault tap so the chaos harness can
/// drop, tear, or crash any write or fsync.
pub struct Journal {
    path: PathBuf,
    segment_max_lines: usize,
    telemetry: Telemetry,
    active: Mutex<Active>,
}

/// Appends `,"crc32":"<8 hex>"` (CRC-32 of the bare JSON body) as the last
/// key of a serialized JSON object, producing the journal's line format.
/// Non-object payloads are passed through unchecksummed.
pub fn checksum_line(json: &str) -> String {
    if json.len() < 3 || !json.starts_with('{') || !json.ends_with('}') {
        return json.to_string();
    }
    let crc = crc32(json.as_bytes());
    format!("{},\"crc32\":\"{crc:08x}\"}}", &json[..json.len() - 1])
}

/// The checksum suffix is `,"crc32":"xxxxxxxx"}` — 20 ASCII bytes.
const CRC_SUFFIX_LEN: usize = 20;

/// Splits a line into its bare JSON body and its CRC, when the checksum
/// suffix is present. Returns `None` for legacy (unchecksummed) lines.
fn split_crc(line: &str) -> Option<(String, u32)> {
    let bytes = line.as_bytes();
    if bytes.len() < CRC_SUFFIX_LEN + 1 {
        return None;
    }
    let tail = &bytes[bytes.len() - CRC_SUFFIX_LEN..];
    if !tail.starts_with(b",\"crc32\":\"") || !tail.ends_with(b"\"}") {
        return None;
    }
    let hex = std::str::from_utf8(&tail[10..18]).ok()?;
    let crc = u32::from_str_radix(hex, 16).ok()?;
    let body = format!("{}}}", &line[..line.len() - CRC_SUFFIX_LEN]);
    Some((body, crc))
}

/// Classifies one journal line: checksum verification first (a mismatched
/// CRC is corruption, whatever the body parses as), then shape. Legacy
/// lines without a checksum are classified on shape alone.
fn classify(line: &str) -> Line {
    if let Some((body, crc)) = split_crc(line) {
        if crc32(body.as_bytes()) != crc {
            return Line::Invalid;
        }
    }
    // Extra keys (the crc32 suffix) are ignored by derived deserializers,
    // so the full line parses directly. Shapes are disjoint: each record
    // type requires a key the others lack.
    if let Ok(cp) = serde_json::from_str::<CheckpointRecord>(line) {
        return Line::Checkpoint(cp.checkpoint);
    }
    if let Ok(record) = serde_json::from_str::<CellRecord>(line) {
        return Line::Cell(record);
    }
    if let Ok(trailer) = serde_json::from_str::<CampaignTelemetryRecord>(line) {
        return Line::TelemetryTrailer(trailer);
    }
    if let Ok(trailer) = serde_json::from_str::<CampaignStoreRecord>(line) {
        return Line::StoreTrailer(trailer);
    }
    Line::Invalid
}

/// The segment path for sequence number `seq`: `<journal>.segNNNN`.
fn segment_path(path: &Path, seq: u64) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".seg{seq:04}"));
    path.with_file_name(name)
}

/// Existing segment files for a journal, sorted by sequence number.
fn segment_paths(path: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let base = match path.file_name() {
        Some(n) => n.to_string_lossy().into_owned(),
        None => return Ok(Vec::new()),
    };
    let prefix = format!("{base}.seg");
    let mut segments = Vec::new();
    if !parent.exists() {
        return Ok(Vec::new());
    }
    for entry in fs::read_dir(parent)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(digits) = name.strip_prefix(&prefix) {
            if let Ok(seq) = digits.parse::<u64>() {
                segments.push((seq, entry.path()));
            }
        }
    }
    segments.sort();
    Ok(segments)
}

/// Best-effort directory fsync so a rename/create/delete is durable.
fn sync_dir(path: &Path) {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if let Ok(dir) = File::open(parent) {
        let _ = dir.sync_all();
    }
}

/// Replays one file's bytes into the accumulating state. Returns the byte
/// offset of a torn final line (active file only) for the caller to
/// truncate at.
fn replay_file(
    bytes: &[u8],
    is_active: bool,
    newest: &mut BTreeMap<(String, String), CellRecord>,
    out: &mut ReplayedJournal,
) -> Option<u64> {
    // Split into (offset, line) pairs by newline, keeping byte offsets so
    // a torn tail can be truncated in place.
    let mut lines: Vec<(usize, &[u8])> = Vec::new();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            lines.push((start, &bytes[start..i]));
            start = i + 1;
        }
    }
    if start < bytes.len() {
        lines.push((start, &bytes[start..]));
    }
    let last_nonempty = lines
        .iter()
        .rposition(|(_, l)| !l.iter().all(|b| b.is_ascii_whitespace()));
    let mut torn_offset = None;
    for (idx, (offset, raw)) in lines.iter().enumerate() {
        let text = String::from_utf8_lossy(raw);
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        match classify(text) {
            Line::Cell(record) => {
                newest.insert((record.app.clone(), record.scheme.clone()), record);
                if is_active {
                    out.active_lines += 1;
                }
            }
            Line::Checkpoint(body) => {
                out.checkpoints += 1;
                out.next_seq = out.next_seq.max(body.seq);
                for record in body.records {
                    newest.insert((record.app.clone(), record.scheme.clone()), record);
                }
            }
            Line::TelemetryTrailer(trailer) => out.telemetry_trailer = Some(trailer),
            Line::StoreTrailer(trailer) => out.store_trailer = Some(trailer),
            Line::Invalid => {
                if is_active && Some(idx) == last_nonempty {
                    // The torn tail a kill mid-append leaves behind.
                    out.torn_tail = true;
                    torn_offset = Some(*offset as u64);
                } else {
                    out.skipped_lines += 1;
                }
            }
        }
    }
    torn_offset
}

/// Shared replay walk: segments in order, then the active file. Returns
/// the accumulated state plus the torn-tail truncation offset (if any).
fn replay_walk(
    path: &Path,
    telemetry: &Telemetry,
) -> Result<(ReplayedJournal, Option<u64>), JournalError> {
    let mut out = ReplayedJournal::default();
    let mut newest: BTreeMap<(String, String), CellRecord> = BTreeMap::new();
    let segments = segment_paths(path).map_err(|e| JournalError::io("scan-segments", path, e))?;
    if let Some((max_seq, _)) = segments.last() {
        out.next_seq = max_seq + 1;
    }
    for (_, segment) in &segments {
        let bytes = fs::read(segment).map_err(|e| JournalError::io("read-segment", segment, e))?;
        replay_file(&bytes, false, &mut newest, &mut out);
    }
    let mut torn_offset = None;
    if path.exists() {
        let bytes = fs::read(path).map_err(|e| JournalError::io("read", path, e))?;
        torn_offset = replay_file(&bytes, true, &mut newest, &mut out);
    }
    if out.torn_tail {
        telemetry.event(EventKind::TornRecovery);
    }
    out.records = newest.into_values().collect();
    Ok((out, torn_offset))
}

impl Journal {
    /// Opens (creating if absent) the journal for appending, after running
    /// recovery: segments and the active file are replayed, a torn final
    /// line is truncated away (one [`EventKind::TornRecovery`] per
    /// recovery), and the checkpoint state is seeded from *every*
    /// parseable record so a later compaction covers records outside the
    /// current grid too.
    ///
    /// `segment_max_lines` bounds cell records per segment; `0` disables
    /// rolling (one unbounded file — the pre-segmentation format).
    pub fn open(
        path: &Path,
        segment_max_lines: usize,
        telemetry: Telemetry,
    ) -> Result<(Journal, ReplayedJournal), JournalError> {
        let (replayed, torn_offset) = replay_walk(path, &telemetry)?;
        if let Some(offset) = torn_offset {
            let file = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| JournalError::io("open-truncate", path, e))?;
            file.set_len(offset)
                .map_err(|e| JournalError::io("truncate", path, e))?;
            file.sync_all()
                .map_err(|e| JournalError::io("sync-truncate", path, e))?;
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| JournalError::io("open", path, e))?;
        let newest = replayed
            .records
            .iter()
            .map(|r| ((r.app.clone(), r.scheme.clone()), r.clone()))
            .collect();
        let journal = Journal {
            path: path.to_path_buf(),
            segment_max_lines,
            telemetry,
            active: Mutex::new(Active {
                file,
                unterminated: false,
                lines: replayed.active_lines,
                seq: replayed.next_seq,
                newest,
            }),
        };
        Ok((journal, replayed))
    }

    /// Read-only replay (for `critic stats` and the recovery drill): same
    /// walk as [`Journal::open`] but nothing is truncated or created; a
    /// torn tail is only reported.
    pub fn replay(path: &Path, telemetry: &Telemetry) -> Result<ReplayedJournal, JournalError> {
        replay_walk(path, telemetry).map(|(out, _)| out)
    }

    /// Appends one cell record (checksummed), updates the checkpoint
    /// state, and rolls the segment when full. Appends are best-effort by
    /// contract — a failed write costs at most a rerun of this cell on
    /// resume, which is strictly better than failing the campaign. Returns
    /// whether the whole line reached the file, so a caller that
    /// acknowledges the record to someone can append it again first.
    pub fn append_cell(&self, record: &CellRecord, sys: Option<&Arc<SysInjector>>) -> bool {
        let Ok(json) = serde_json::to_string(record) else {
            return false;
        };
        let line = checksum_line(&json);
        let mut active = lock_clean(&self.active);
        active
            .newest
            .insert((record.app.clone(), record.scheme.clone()), record.clone());
        let written = self.write_line(&mut active, &line, sys);
        active.lines += 1;
        if self.segment_max_lines > 0 && active.lines >= self.segment_max_lines {
            self.roll(&mut active);
        }
        written
    }

    /// Appends one trailer line (checksummed): a campaign-telemetry or
    /// store-stats aggregate. Trailers do not count toward the segment
    /// roll threshold and are not carried into checkpoints — a resumed
    /// campaign recomputes and re-appends its own.
    pub fn append_trailer(&self, json: &str, sys: Option<&Arc<SysInjector>>) {
        let line = checksum_line(json);
        let mut active = lock_clean(&self.active);
        self.write_line(&mut active, &line, sys);
    }

    /// Appends a finished run's trailers after its cell records: the store
    /// counters (persistent stores only), then the telemetry aggregate,
    /// which downstream tooling reads as the journal's last line.
    pub(crate) fn append_trailers(
        &self,
        store: StoreStats,
        telemetry: Option<TelemetrySnapshot>,
        sys: Option<&Arc<SysInjector>>,
    ) {
        if store.disk.is_some() {
            let record = CampaignStoreRecord {
                campaign_store: store,
            };
            if let Ok(line) = serde_json::to_string(&record) {
                self.append_trailer(&line, sys);
            }
        }
        if let Some(snapshot) = telemetry {
            let record = CampaignTelemetryRecord {
                campaign_telemetry: snapshot,
            };
            if let Ok(line) = serde_json::to_string(&record) {
                self.append_trailer(&line, sys);
            }
        }
    }

    /// One tapped line write: an injected `JournalWrite` drops the line,
    /// `JournalTorn` writes half of it with no newline, `JournalFsync`
    /// (at either tap) skips the durability sync, and a `Crash` planted on
    /// the append or sync op aborts the process — the kill-anywhere drill's
    /// seeded crash points. Returns whether the whole line was written.
    fn write_line(&self, active: &mut Active, line: &str, sys: Option<&Arc<SysInjector>>) -> bool {
        let mut write_line = true;
        let mut fsync = true;
        let mut torn = false;
        if let Some(sys) = sys {
            for fault in sys.advance_or_crash(SysOp::JournalAppend) {
                self.telemetry.event(EventKind::SysFault);
                match fault {
                    SysFault::JournalWrite => write_line = false,
                    SysFault::JournalFsync => fsync = false,
                    SysFault::JournalTorn => torn = true,
                    _ => {}
                }
            }
        }
        if !write_line {
            return false;
        }
        if torn {
            let mut half = line.len() / 2;
            while half > 0 && !line.is_char_boundary(half) {
                half -= 1;
            }
            if active.end_fragment() {
                let _ = active.file.write_all(&line.as_bytes()[..half]);
                let _ = active.file.flush();
                active.unterminated = true;
            }
            return false;
        }
        let written = active.end_fragment() && writeln!(active.file, "{line}").is_ok();
        let _ = active.file.flush();
        if let Some(sys) = sys {
            for fault in sys.advance_or_crash(SysOp::JournalSync) {
                self.telemetry.event(EventKind::SysFault);
                if fault == SysFault::JournalFsync {
                    fsync = false;
                }
            }
        }
        if fsync {
            let _ = active.file.sync_all();
        }
        written
    }

    /// Writes a durable checkpoint line into the active file without
    /// rolling a segment — the graceful-drain hook: a draining server
    /// checkpoints the newest record per cell so the replay after a
    /// subsequent crash reads one line instead of the whole tail. Replay
    /// accepts checkpoint lines anywhere in a file; only cell lines count
    /// toward the roll threshold, so this never perturbs segmentation.
    pub fn checkpoint(&self) {
        let mut active = lock_clean(&self.active);
        let body = CheckpointRecord {
            checkpoint: CheckpointBody {
                seq: active.seq,
                records: active.newest.values().cloned().collect(),
            },
        };
        let Ok(json) = serde_json::to_string(&body) else {
            return;
        };
        let line = checksum_line(&json);
        if !active.end_fragment() || writeln!(active.file, "{line}").is_err() {
            return;
        }
        let _ = active.file.flush();
        if active.file.sync_all().is_ok() {
            self.telemetry.event(EventKind::Checkpoint);
        }
    }

    /// Rolls the active file into a segment and starts a fresh one headed
    /// by a checkpoint. Compaction (deleting covered segments) happens
    /// only after the checkpoint is durable, so a crash at any step leaves
    /// a replayable journal:
    ///
    /// 1. fsync + rename active → `<journal>.segNNNN` (records safe in the
    ///    segment);
    /// 2. create the new active file, write + fsync the checkpoint line
    ///    (records now *also* safe in the checkpoint);
    /// 3. delete every segment file — all are covered by the checkpoint.
    ///
    /// Every step is best-effort: a failure leaves the journal in the
    /// previous (still-consistent) state and the roll is retried on the
    /// next append.
    fn roll(&self, active: &mut Active) {
        let _ = active.file.sync_all();
        let segment = segment_path(&self.path, active.seq);
        if fs::rename(&self.path, &segment).is_err() {
            return;
        }
        sync_dir(&self.path);
        let file = match OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
        {
            Ok(file) => file,
            Err(_) => {
                // Undo the rename so appends keep landing in one file.
                let _ = fs::rename(&segment, &self.path);
                return;
            }
        };
        active.file = file;
        active.unterminated = false;
        active.lines = 0;
        active.seq += 1;
        let body = CheckpointRecord {
            checkpoint: CheckpointBody {
                seq: active.seq,
                records: active.newest.values().cloned().collect(),
            },
        };
        let Ok(json) = serde_json::to_string(&body) else {
            return;
        };
        let line = checksum_line(&json);
        if writeln!(active.file, "{line}").is_err() {
            return;
        }
        let _ = active.file.flush();
        if active.file.sync_all().is_err() {
            return;
        }
        self.telemetry.event(EventKind::Checkpoint);
        // The checkpoint is durable and covers everything ever seen:
        // every segment file is now redundant.
        if let Ok(segments) = segment_paths(&self.path) {
            for (_, path) in segments {
                let _ = fs::remove_file(path);
            }
            sync_dir(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CellMetrics, CellStatus};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn record(app: &str, scheme: &str, millis: u64) -> CellRecord {
        CellRecord {
            app: app.to_string(),
            scheme: scheme.to_string(),
            status: CellStatus::Ok,
            attempts: 1,
            millis,
            fault: None,
            metrics: Some(CellMetrics {
                speedup: 1.25,
                cpu_energy_saving: 0.1,
                thumb_dyn_frac: 0.5,
                dyn_insns: 1000,
            }),
            error: None,
            validation: None,
            spans: None,
            degraded: None,
            run: Some(0),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("critic-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn checksummed_lines_round_trip() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("j.jsonl");
        let (journal, replayed) = Journal::open(&path, 0, Telemetry::off()).expect("open");
        assert!(replayed.records.is_empty());
        journal.append_cell(&record("a", "s1", 10), None);
        journal.append_cell(&record("b", "s1", 20), None);
        drop(journal);
        let text = fs::read_to_string(&path).expect("read");
        for line in text.lines() {
            let (body, crc) = split_crc(line).expect("crc suffix present");
            assert_eq!(crc32(body.as_bytes()), crc);
        }
        let replayed = Journal::replay(&path, &Telemetry::off()).expect("replay");
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.records[0], record("a", "s1", 10));
        assert_eq!(replayed.skipped_lines, 0);
        assert!(!replayed.torn_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_records_newest_wins() {
        let dir = temp_dir("newest");
        let path = dir.join("j.jsonl");
        let (journal, _) = Journal::open(&path, 0, Telemetry::off()).expect("open");
        journal.append_cell(&record("a", "s1", 10), None);
        journal.append_cell(&record("a", "s1", 99), None);
        drop(journal);
        let replayed = Journal::replay(&path, &Telemetry::off()).expect("replay");
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[0].millis, 99);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_roll_checkpoints_and_compacts() {
        let dir = temp_dir("roll");
        let path = dir.join("j.jsonl");
        let telemetry = Telemetry::enabled();
        let (journal, _) = Journal::open(&path, 2, telemetry.clone()).expect("open");
        for i in 0..5 {
            journal.append_cell(&record(&format!("app{i}"), "s1", i), None);
        }
        drop(journal);
        // Two rolls happened (after lines 2 and 4); compaction deleted the
        // segments each durable checkpoint covered.
        assert!(segment_paths(&path).expect("scan").is_empty());
        let text = fs::read_to_string(&path).expect("read");
        assert!(text.contains("\"checkpoint\""));
        let replayed = Journal::replay(&path, &Telemetry::off()).expect("replay");
        assert_eq!(replayed.records.len(), 5, "checkpoint covers all records");
        assert!(replayed.checkpoints >= 1);
        let snapshot = telemetry.snapshot().expect("snapshot");
        assert_eq!(snapshot.durability().checkpoints, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_once_with_one_event() {
        let dir = temp_dir("torn");
        let path = dir.join("j.jsonl");
        let (journal, _) = Journal::open(&path, 0, Telemetry::off()).expect("open");
        journal.append_cell(&record("a", "s1", 10), None);
        drop(journal);
        // Simulate a kill mid-append: half a line, no newline.
        let full = checksum_line(&serde_json::to_string(&record("b", "s1", 20)).expect("json"));
        let mut file = OpenOptions::new().append(true).open(&path).expect("open");
        file.write_all(&full.as_bytes()[..full.len() / 2])
            .expect("tear");
        drop(file);
        let telemetry = Telemetry::enabled();
        let (journal, replayed) = Journal::open(&path, 0, telemetry.clone()).expect("recover");
        assert!(replayed.torn_tail);
        assert_eq!(replayed.records.len(), 1, "torn cell reruns");
        let snapshot = telemetry.snapshot().expect("snapshot");
        assert_eq!(snapshot.durability().torn_recoveries, 1);
        drop(journal);
        // The tail is gone from disk: a second recovery sees nothing torn.
        let replayed = Journal::replay(&path, &Telemetry::off()).expect("replay");
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.records.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_bare_lines_still_replay() {
        let dir = temp_dir("legacy");
        let path = dir.join("j.jsonl");
        let json = serde_json::to_string(&record("a", "s1", 10)).expect("json");
        fs::write(&path, format!("{json}\n")).expect("write");
        let replayed = Journal::replay(&path, &Telemetry::off()).expect("replay");
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.skipped_lines, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retried_line_after_a_torn_write_survives_replay() {
        let dir = temp_dir("torn-retry");
        let path = dir.join("j.jsonl");
        let (journal, _) = Journal::open(&path, 0, Telemetry::off()).expect("open");
        let sys = Arc::new(SysInjector::new(vec![critic_workloads::SysFaultSpec {
            fault: SysFault::JournalTorn,
            at: 0,
        }]));
        assert!(!journal.append_cell(&record("a", "s1", 10), Some(&sys)));
        assert!(journal.append_cell(&record("a", "s1", 10), Some(&sys)));
        assert!(journal.append_cell(&record("b", "s1", 20), Some(&sys)));
        drop(journal);
        let replayed = Journal::replay(&path, &Telemetry::off()).expect("replay");
        assert_eq!(
            replayed.records,
            vec![record("a", "s1", 10), record("b", "s1", 20)]
        );
        assert_eq!(replayed.skipped_lines, 1, "only the fragment is lost");
        assert!(!replayed.torn_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_mid_file_line_is_skipped_not_fatal() {
        let dir = temp_dir("corrupt");
        let path = dir.join("j.jsonl");
        let (journal, _) = Journal::open(&path, 0, Telemetry::off()).expect("open");
        journal.append_cell(&record("a", "s1", 10), None);
        journal.append_cell(&record("b", "s1", 20), None);
        journal.append_cell(&record("c", "s1", 30), None);
        drop(journal);
        let text = fs::read_to_string(&path).expect("read");
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        // Flip a payload byte in the middle line: the CRC now mismatches.
        lines[1] = lines[1].replace("\"millis\":20", "\"millis\":21");
        fs::write(&path, format!("{}\n", lines.join("\n"))).expect("rewrite");
        let replayed = Journal::replay(&path, &Telemetry::off()).expect("replay");
        assert_eq!(replayed.skipped_lines, 1);
        assert_eq!(replayed.records.len(), 2, "corrupt cell reruns");
        assert!(replayed.records.iter().all(|r| r.app != "b"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Satellite: property test — a compacted journal resumes exactly like
    /// the full line history. Random append schedules (duplicate keys,
    /// varying segment bounds) are written twice, with and without
    /// rolling; replay must agree cell-for-cell.
    #[test]
    fn compaction_preserves_resume_semantics() {
        let dir = temp_dir("prop");
        for case in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0x5eed ^ case);
            let appends: Vec<CellRecord> = (0..rng.gen_range(1..40))
                .map(|i| {
                    record(
                        &format!("app{}", rng.gen_range(0..6)),
                        &format!("s{}", rng.gen_range(0..3)),
                        i,
                    )
                })
                .collect();
            let segment_max = rng.gen_range(1..8);
            let full = dir.join(format!("full-{case}.jsonl"));
            let compacted = dir.join(format!("compacted-{case}.jsonl"));
            let (j_full, _) = Journal::open(&full, 0, Telemetry::off()).expect("open full");
            let (j_comp, _) =
                Journal::open(&compacted, segment_max, Telemetry::off()).expect("open comp");
            for r in &appends {
                j_full.append_cell(r, None);
                j_comp.append_cell(r, None);
            }
            drop((j_full, j_comp));
            let r_full = Journal::replay(&full, &Telemetry::off()).expect("replay full");
            let r_comp = Journal::replay(&compacted, &Telemetry::off()).expect("replay comp");
            assert_eq!(
                r_full.records, r_comp.records,
                "case {case}: segment_max={segment_max} diverged from the full history"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_rollups_group_by_tag() {
        let dir = temp_dir("rollups");
        let path = dir.join("j.jsonl");
        let (journal, _) = Journal::open(&path, 0, Telemetry::off()).expect("open");
        let mut r0 = record("a", "s1", 10);
        r0.run = Some(0);
        let mut r1 = record("b", "s1", 20);
        r1.run = Some(1);
        r1.status = CellStatus::Failed;
        r1.metrics = None;
        let mut r2 = record("c", "s1", 0);
        r2.run = Some(1);
        r2.status = CellStatus::Shed;
        r2.metrics = None;
        let mut legacy = record("d", "s1", 5);
        legacy.run = None;
        for r in [&r0, &r1, &r2, &legacy] {
            journal.append_cell(r, None);
        }
        drop(journal);
        let replayed = Journal::replay(&path, &Telemetry::off()).expect("replay");
        let rollups = replayed.run_rollups();
        assert_eq!(rollups.len(), 3);
        // Untagged group first, then ascending tags.
        assert_eq!(rollups[0].run, None);
        assert_eq!(rollups[0].cells, 1);
        assert_eq!(rollups[1].run, Some(0));
        assert_eq!(rollups[1].ok, 1);
        assert_eq!(rollups[1].total_millis, 10);
        assert_eq!(rollups[2].run, Some(1));
        assert_eq!(rollups[2].cells, 2);
        assert_eq!(rollups[2].failed, 1);
        assert_eq!(rollups[2].shed, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_checkpoint_is_replayable_midfile() {
        let dir = temp_dir("drain-cp");
        let path = dir.join("j.jsonl");
        let telemetry = Telemetry::enabled();
        let (journal, _) = Journal::open(&path, 0, telemetry.clone()).expect("open");
        journal.append_cell(&record("a", "s1", 10), None);
        journal.checkpoint();
        journal.append_cell(&record("b", "s1", 20), None);
        drop(journal);
        let snapshot = telemetry.snapshot().expect("snapshot");
        assert_eq!(snapshot.durability().checkpoints, 1);
        let replayed = Journal::replay(&path, &Telemetry::off()).expect("replay");
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(replayed.checkpoints, 1);
        assert_eq!(replayed.skipped_lines, 0);
        // Reopen appends cleanly after the mid-file checkpoint.
        let (journal, replayed) = Journal::open(&path, 0, Telemetry::off()).expect("reopen");
        assert_eq!(replayed.records.len(), 2);
        journal.append_cell(&record("c", "s1", 30), None);
        drop(journal);
        let replayed = Journal::replay(&path, &Telemetry::off()).expect("replay");
        assert_eq!(replayed.records.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_after_compaction_resumes_and_keeps_covering() {
        let dir = temp_dir("reopen");
        let path = dir.join("j.jsonl");
        let (journal, _) = Journal::open(&path, 2, Telemetry::off()).expect("open");
        for i in 0..4 {
            journal.append_cell(&record(&format!("a{i}"), "s1", i), None);
        }
        drop(journal);
        // Reopen: the checkpoint seeds the newest map, so further rolls
        // keep covering the first generation of records.
        let (journal, replayed) = Journal::open(&path, 2, Telemetry::off()).expect("reopen");
        assert_eq!(replayed.records.len(), 4);
        for i in 4..8 {
            journal.append_cell(&record(&format!("a{i}"), "s1", i), None);
        }
        drop(journal);
        let replayed = Journal::replay(&path, &Telemetry::off()).expect("replay");
        assert_eq!(replayed.records.len(), 8);
        let _ = fs::remove_dir_all(&dir);
    }
}

//! Streaming trace expansion with bounded memory.
//!
//! [`TraceStream`] produces the same dynamic stream as [`Trace::expand`](crate::Trace::expand) —
//! entry-for-entry, fanout-for-fanout — while holding only a bounded
//! look-ahead ring instead of the whole trace. It drives the same
//! [`ExpandCursor`](crate::trace) the materialized expander uses, so the
//! entries are identical by construction; the work is in making the two
//! *derived* per-instruction quantities exact under a bounded horizon:
//!
//! * **Direct fanout** ([`Trace::compute_fanout`](crate::Trace::compute_fanout)) needs every future
//!   consumer of an instruction. Consumers resolve through the last-writer
//!   tables, so all of a producer's consumers appear before its register is
//!   overwritten — usually within a few hundred dynamic instructions (the
//!   paper's chain-spread bound, ≤ ~540), but not provably within any fixed
//!   window. The stream counts consumers in a `lookahead`-deep ring and
//!   runs a lightweight dependence-only *prepass* over the path that
//!   records the rare producers with a consumer beyond the look-ahead,
//!   together with their exact final count. At emission the ring count is
//!   used unless the producer heads the exception queue — making the
//!   streamed fanout exact for every window and look-ahead, not just ones
//!   larger than the observed spread.
//! * **Cone fanout** ([`Trace::compute_cone_fanout`](crate::Trace::compute_cone_fanout)) is windowed by
//!   definition (the ROB horizon `w` ≤ 128): an entry's cone counts its
//!   transitive dependents among its next `w` successors. The stream runs
//!   the batch algorithm itself — a backward pass propagating descendant
//!   masks — over each emitted window plus the `w` successors after it.
//!   Truncating the pass at that horizon only drops mask bits for
//!   positions past it (a bit keeps its absolute position through every
//!   hop's shift), and no emitted entry's cone reaches that far, so the
//!   cones agree exactly, including at `dist == window` and the
//!   `dist == 128` shift boundary. The `w` successors are in the ring
//!   once a look-ahead ≥ the cone window is filled ([`TraceStream::new`]
//!   clamps it); they are re-walked by the next window, `w` extra steps
//!   per window.
//!
//! Peak memory is O(`lookahead` + `window` + static program), reported
//! exactly by [`TraceStream::resident_bytes`]; the trace is never resident.

use std::sync::Arc;

use crate::path::ExecutionPath;
use crate::program::Program;
use crate::trace::{sets_flags, AddrStream, DynInsn, ExpandCursor, NO_DEP};

/// Default entries per emitted window (the `--stream-window` default).
pub const DEFAULT_STREAM_WINDOW: usize = 4096;

/// Default look-ahead depth: comfortably past the paper's observed
/// dependence spread (≤ ~540 dynamic instructions) so the fanout exception
/// queue stays near-empty, and ≥ the 128-entry ROB cone window.
pub const DEFAULT_LOOKAHEAD: usize = 512;

/// How a [`TraceStream`] windows and finalizes the dynamic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Entries per window handed to consumers (≥ 1; clamped).
    pub window: usize,
    /// Look-ahead ring depth for direct-fanout finalization. Clamped up to
    /// the cone window when a cone is requested.
    pub lookahead: usize,
    /// Compute the transitive cone fanout over this horizon (1..=128), or
    /// skip the cone work entirely.
    pub cone_window: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            window: DEFAULT_STREAM_WINDOW,
            lookahead: DEFAULT_LOOKAHEAD,
            cone_window: None,
        }
    }
}

impl StreamConfig {
    /// The default configuration with a caller-chosen window size.
    pub fn with_window(window: usize) -> StreamConfig {
        StreamConfig {
            window,
            ..StreamConfig::default()
        }
    }

    /// The look-ahead a stream opened with this configuration runs at:
    /// [`StreamConfig::lookahead`], clamped to ≥ 1 and to the cone window
    /// (cones are only final once that many successors are visible). A
    /// [`StreamPrep`] serves the stream only if built at this depth.
    pub fn effective_lookahead(&self) -> usize {
        self.lookahead.max(1).max(self.cone_window.unwrap_or(0))
    }
}

/// What a stream over one `(program, path)` pair computes before its first
/// entry: the program's block start addresses (its code layout, as far as
/// a sequential walk needs it), the size of its per-uid address tables
/// ([`Program::uid_bound`]), and the fanout prepass's exception list at
/// one look-ahead depth. All three are pure functions of the pair (and the
/// depth), not of the window or the cone, so one prep, built once, serves
/// every stream over the pair through [`TraceStream::recycled`].
#[derive(Debug)]
pub struct StreamPrep {
    block_addrs: Vec<u64>,
    uids: usize,
    lookahead: usize,
    /// Producers whose fanout the ring cannot see completely (a consumer
    /// lies beyond the look-ahead), with their exact final counts, in
    /// emission order.
    exceptions: Vec<(u32, u32)>,
    total_len: usize,
}

impl StreamPrep {
    /// The prep of `(program, path)` for streams at `lookahead`
    /// ([`StreamConfig::effective_lookahead`]).
    pub fn new(program: &Program, path: &ExecutionPath, lookahead: usize) -> StreamPrep {
        let lookahead = lookahead.max(1);
        StreamPrep {
            block_addrs: program.layout().into_block_addrs(),
            uids: program.uid_bound(),
            lookahead,
            exceptions: fanout_exceptions(program, path, lookahead),
            total_len: path.dyn_insns(program),
        }
    }

    /// Dynamic instructions of the pair: the length of every stream over it.
    pub fn total_len(&self) -> usize {
        self.total_len
    }
}

/// The growable buffers of one [`TraceStream`]: its look-ahead rings,
/// window copies, cone masks and per-uid address tables. A caller that
/// opens many streams recycles one set through [`TraceStream::recycled`]
/// and [`TraceStream::into_buffers`], so a warm stream allocates nothing.
/// The contents carry no state between streams: every buffer is cleared or
/// written before it is read.
#[derive(Debug, Default)]
pub struct StreamBuffers {
    ring: Vec<DynInsn>,
    fanout_ring: Vec<u32>,
    cone_masks: Vec<u128>,
    win_entries: Vec<DynInsn>,
    win_fanout: Vec<u32>,
    win_cone: Vec<u32>,
    addrs: AddrStream,
}

/// One finalized window of the stream, borrowed from the stream's reused
/// buffers (valid until the next `next_window` call).
#[derive(Debug)]
pub struct StreamWindow<'a> {
    /// Absolute index of `entries[0]` in the full dynamic stream.
    pub base: usize,
    /// The window's dynamic instructions, in fetch order.
    pub entries: &'a [DynInsn],
    /// Exact direct fanout of each entry ([`Trace::compute_fanout`](crate::Trace::compute_fanout)).
    pub fanout: &'a [u32],
    /// Exact cone fanout of each entry ([`Trace::compute_cone_fanout`](crate::Trace::compute_cone_fanout));
    /// empty when [`StreamConfig::cone_window`] is `None`.
    pub cone: &'a [u32],
}

/// Streaming producer of `(entry, direct fanout, cone fanout)` triples,
/// bit-identical to the materialized `Trace` path at bounded memory.
pub struct TraceStream<'a> {
    cursor: ExpandCursor<'a>,
    prep: Arc<StreamPrep>,
    window: usize,
    lookahead: usize,
    cone_window: Option<usize>,
    cone_keep: u128,
    mask: usize,
    cap: usize,
    ring: Vec<DynInsn>,
    fanout_ring: Vec<u32>,
    /// Descendant masks of the cone pass over the current window and its
    /// horizon, indexed from the window's base.
    cone_masks: Vec<u128>,
    /// Entries produced by the cursor so far (absolute).
    filled: u32,
    /// Next absolute index to emit.
    emit_pos: u32,
    /// Set once the cursor is exhausted (== the final length).
    finished: Option<u32>,
    /// The next of `prep`'s exceptions to patch in.
    next_exception: usize,
    total_len: usize,
    thumb: u64,
    name: String,
    win_entries: Vec<DynInsn>,
    win_fanout: Vec<u32>,
    win_cone: Vec<u32>,
}

impl<'a> TraceStream<'a> {
    /// Opens a stream over `(program, path)`, computing its own
    /// [`StreamPrep`] and buffers.
    ///
    /// # Panics
    ///
    /// Panics if [`StreamConfig::cone_window`] is outside 1..=128 (the
    /// same contract as [`Trace::compute_cone_fanout`](crate::Trace::compute_cone_fanout)).
    pub fn new(
        program: &'a Program,
        path: &'a ExecutionPath,
        cfg: StreamConfig,
    ) -> TraceStream<'a> {
        let prep = StreamPrep::new(program, path, cfg.effective_lookahead());
        TraceStream::recycled(program, path, cfg, Arc::new(prep), StreamBuffers::default())
    }

    /// Opens a stream over `(program, path)` with a prep built for the pair
    /// and recycled buffers: the same stream [`TraceStream::new`] opens,
    /// without its set-up.
    ///
    /// # Panics
    ///
    /// As [`TraceStream::new`], and if `prep` was built at another
    /// look-ahead than the configuration's, or for a pair of another
    /// length. (A prep of another pair of the same length is not caught:
    /// the caller keeps each prep with its pair.)
    pub fn recycled(
        program: &'a Program,
        path: &'a ExecutionPath,
        cfg: StreamConfig,
        prep: Arc<StreamPrep>,
        buffers: StreamBuffers,
    ) -> TraceStream<'a> {
        if let Some(w) = cfg.cone_window {
            assert!(
                (1..=128).contains(&w),
                "cone window must be 1..=128 (u128 masks)"
            );
        }
        let window = cfg.window.max(1);
        let lookahead = cfg.effective_lookahead();
        assert_eq!(
            prep.lookahead, lookahead,
            "stream prep built for another look-ahead"
        );
        let total_len = prep.total_len;
        assert_eq!(
            total_len,
            path.dyn_insns(program),
            "stream prep built for another program or path"
        );
        // The ring spans [emit_pos, filled]: a full window awaiting bulk
        // emission, its `lookahead` of finalizing successors, and the one
        // being filled. A window larger than the trace holds the trace.
        let cap = (window.min(total_len) + lookahead + 2).next_power_of_two();
        let cone_keep = match cfg.cone_window {
            Some(128) => u128::MAX,
            Some(w) => (1u128 << w) - 1,
            None => 0,
        };
        let StreamBuffers {
            mut ring,
            mut fanout_ring,
            cone_masks,
            mut win_entries,
            mut win_fanout,
            mut win_cone,
            addrs,
        } = buffers;
        ring.clear();
        ring.reserve(cap);
        // Every slot is zeroed as it is filled (`fill_one`).
        fanout_ring.resize(cap, 0);
        win_entries.clear();
        win_fanout.clear();
        win_cone.clear();
        let cursor = ExpandCursor::new(program, path, &prep.block_addrs, addrs.reset(prep.uids));
        TraceStream {
            cursor,
            window,
            lookahead,
            cone_window: cfg.cone_window,
            cone_keep,
            mask: cap - 1,
            cap,
            ring,
            fanout_ring,
            cone_masks,
            filled: 0,
            emit_pos: 0,
            finished: None,
            next_exception: 0,
            total_len,
            thumb: 0,
            name: program.name.clone(),
            win_entries,
            win_fanout,
            win_cone,
            prep,
        }
    }

    /// Ends the stream, handing back its buffers for the next one.
    pub fn into_buffers(self) -> StreamBuffers {
        StreamBuffers {
            ring: self.ring,
            fanout_ring: self.fanout_ring,
            cone_masks: self.cone_masks,
            win_entries: self.win_entries,
            win_fanout: self.win_fanout,
            win_cone: self.win_cone,
            addrs: self.cursor.into_addrs(),
        }
    }

    /// The workload name (copied from the program, like `Trace::name`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total dynamic instructions the stream will produce — known upfront
    /// from the path, without expanding anything.
    pub fn total_len(&self) -> usize {
        self.total_len
    }

    /// Entries emitted so far.
    pub fn emitted(&self) -> usize {
        self.emit_pos as usize
    }

    /// 16-bit entries emitted so far.
    pub fn thumb_count(&self) -> u64 {
        self.thumb
    }

    /// Fraction of emitted dynamic instructions in the 16-bit format; after
    /// the stream is drained this equals [`Trace::thumb_fraction`](crate::Trace::thumb_fraction) exactly
    /// (same integer counts, same division).
    pub fn thumb_fraction(&self) -> f64 {
        if self.emit_pos == 0 {
            return 0.0;
        }
        self.thumb as f64 / f64::from(self.emit_pos)
    }

    /// The configured window size (after clamping).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Bytes resident in the stream's rings, buffers, and cursor — the
    /// quantity the memory-ceiling regression gates on. O(lookahead +
    /// window + static program), independent of the trace length (the
    /// exception queue is bounded by the count of producers with consumers
    /// beyond the look-ahead, near zero at the default depth).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ring.capacity() * size_of::<DynInsn>()
            + self.fanout_ring.capacity() * size_of::<u32>()
            + self.cone_masks.capacity() * size_of::<u128>()
            + self.prep.exceptions.capacity() * size_of::<(u32, u32)>()
            + self.cursor.resident_bytes()
            + self.win_entries.capacity() * size_of::<DynInsn>()
            + self.win_fanout.capacity() * size_of::<u32>()
            + self.win_cone.capacity() * size_of::<u32>()
    }

    /// Expands one more entry into the ring, wiring its dependence edges
    /// into the pending fanout accumulators.
    fn fill_one(&mut self) {
        let Some(entry) = self.cursor.next(&self.prep.block_addrs) else {
            self.finished = Some(self.filled);
            return;
        };
        let j = self.filled as usize;
        let slot = j & self.mask;
        if self.ring.len() < self.cap {
            debug_assert_eq!(self.ring.len(), slot);
            self.ring.push(entry);
        } else {
            self.ring[slot] = entry;
        }
        self.fanout_ring[slot] = 0;

        for d in entry.deps_iter() {
            let dist = (j as u32 - d) as usize;
            if dist <= self.lookahead {
                // In-ring producer: count the direct-fanout edge unless the
                // producer is a flag-setting compare (control, not value,
                // fan-out — the same exclusion as `compute_fanout`).
                // Producers with any consumer beyond the look-ahead are
                // covered by the exception queue instead.
                let ds = (d as usize) & self.mask;
                if !sets_flags(self.ring[ds].op) {
                    self.fanout_ring[ds] += 1;
                }
            }
        }
        self.filled += 1;
    }

    /// Fills `win_cone` with the cones of `[base, emit_end)`: the batch
    /// backward mask pass of [`Trace::compute_cone_fanout`](crate::Trace::compute_cone_fanout), run over the
    /// window and the `w` ring entries after it (or up to the end of the
    /// stream).
    fn window_cones(&mut self, w: usize, base: usize, emit_end: usize) {
        let horizon = (emit_end + w).min(self.filled as usize);
        self.cone_masks.clear();
        self.cone_masks.resize(horizon - base, 0);
        self.win_cone.resize(emit_end - base, 0);
        for c in (base..horizon).rev() {
            let cmask = self.cone_masks[c - base] & self.cone_keep;
            if c < emit_end {
                self.win_cone[c - base] = cmask.count_ones();
            }
            for d in self.ring[c & self.mask].deps_iter() {
                let dist = c - d as usize;
                if dist <= w && d as usize >= base {
                    // At dist == 128 the consumer's own cone shifts fully
                    // out of the horizon; only the direct-dependent bit
                    // remains.
                    let shifted = if dist < 128 { cmask << dist } else { 0 };
                    self.cone_masks[d as usize - base] |= shifted | (1u128 << (dist - 1));
                }
            }
        }
    }

    /// Yields the next window (up to [`StreamConfig::window`] entries), or
    /// `None` once the stream is drained. The returned view borrows the
    /// stream's reused window buffers.
    ///
    /// The whole window is finalized in bulk: fill until `lookahead`
    /// successors are visible past the window's end (so every entry's
    /// fanout and cone are closed), copy the ring span out with at most
    /// two slice copies, patch the exception queue over it, and run the
    /// cone pass over the window.
    pub fn next_window(&mut self) -> Option<StreamWindow<'_>> {
        self.win_entries.clear();
        self.win_fanout.clear();
        self.win_cone.clear();
        let base = self.emit_pos as usize;
        // `filled` reaching this makes every window entry final.
        let target = base
            .saturating_add(self.window)
            .saturating_add(self.lookahead);
        while self.finished.is_none() && (self.filled as usize) < target {
            self.fill_one();
        }
        let filled = self.filled as usize;
        let emit_end = match self.finished {
            Some(_) => filled.min(base + self.window),
            // Not at EOF: exactly `base + window`, but derive it from the
            // emission rule (`p` is final iff `filled >= p + lookahead + 1`)
            // so the bound stays correct if the fill loop ever changes.
            None => (filled - self.lookahead).min(base + self.window),
        };
        if emit_end == base {
            return None;
        }
        let mut start = base;
        while start < emit_end {
            let slot = start & self.mask;
            let run = (emit_end - start).min(self.cap - slot);
            self.win_entries
                .extend_from_slice(&self.ring[slot..slot + run]);
            self.win_fanout
                .extend_from_slice(&self.fanout_ring[slot..slot + run]);
            start += run;
        }
        if let Some(w) = self.cone_window {
            self.window_cones(w, base, emit_end);
        }
        while let Some(&(idx, count)) = self.prep.exceptions.get(self.next_exception) {
            if (idx as usize) >= emit_end {
                break;
            }
            self.win_fanout[idx as usize - base] = count;
            self.next_exception += 1;
        }
        self.thumb += self
            .win_entries
            .iter()
            .filter(|entry| entry.bytes == 2)
            .count() as u64;
        self.emit_pos = emit_end as u32;
        Some(StreamWindow {
            base,
            entries: &self.win_entries,
            fanout: &self.win_fanout,
            cone: &self.win_cone,
        })
    }
}

impl std::fmt::Debug for TraceStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStream")
            .field("name", &self.name)
            .field("window", &self.window)
            .field("lookahead", &self.lookahead)
            .field("cone_window", &self.cone_window)
            .field("emitted", &self.emit_pos)
            .field("filled", &self.filled)
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

/// The dependence-only prepass: re-resolves every dependence edge without
/// materializing entries, memory addresses, or branch outcomes, and records
/// each producer whose register survives long enough to be read more than
/// `lookahead` instructions later — the only producers whose ring count
/// would be short — together with its exact total fanout.
///
/// Consumers resolve through the last-writer tables, so a producer's edge
/// set is closed the moment its register is overwritten (or at EOF); each
/// register therefore needs just one open `(producer, count, overflow)`
/// slot, credited *directly* by source-register index. The edge walk
/// mirrors [`resolve_deps`] exactly — same per-instruction producer dedup,
/// same three-edge cap — but skips its output array and the flags edge:
/// predication's flags producer is appended after the register edges (so it
/// never displaces one), and flag-setting compares are excluded from fanout
/// and own no register slot, exactly as in `compute_fanout`.
fn fanout_exceptions(program: &Program, path: &ExecutionPath, lookahead: usize) -> Vec<(u32, u32)> {
    // Per register: (producer index, edges counted, consumer beyond the
    // look-ahead seen). `slots[r].0 == last_writer[r]` throughout.
    let mut slots: [(u32, u32, bool); 16] = [(NO_DEP, 0, false); 16];
    let mut out: Vec<(u32, u32)> = Vec::new();
    let mut idx: u32 = 0;
    for &bid in &path.blocks {
        for tagged in &program.block(bid).insns {
            let insn = &tagged.insn;
            let mut taken = [NO_DEP; 3];
            let mut nd = 0usize;
            for src in insn.srcs().iter() {
                let r = src.index() as usize;
                let (p, count, overflow) = &mut slots[r];
                if *p != NO_DEP && !taken[..nd].contains(p) && nd < 3 {
                    taken[nd] = *p;
                    nd += 1;
                    *count += 1;
                    if u64::from(idx) > u64::from(*p) + lookahead as u64 {
                        *overflow = true;
                    }
                }
            }
            if let Some(dst) = insn.dst() {
                let r = dst.index() as usize;
                let (p, count, overflow) = slots[r];
                if overflow {
                    out.push((p, count));
                }
                slots[r] = (idx, 0, false);
            }
            idx += 1;
        }
    }
    for &(p, count, overflow) in &slots {
        if overflow {
            out.push((p, count));
        }
    }
    // Slots finalize in overwrite order, not producer order; emission
    // consumes the queue front-to-back by producer index.
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::ProgramGenerator;
    use crate::ids::{BlockId, FuncId, InsnUid};
    use crate::params::GenParams;
    use crate::program::{BasicBlock, Function, TaggedInsn, Terminator};
    use crate::trace::Trace;
    use critic_isa::{Insn, Opcode, Reg};

    fn generated(seed: u64, len: usize) -> (Program, ExecutionPath) {
        let mut p = GenParams::mobile(seed);
        p.num_functions = 20;
        let program = ProgramGenerator::new(p).generate();
        let path = ExecutionPath::generate(&program, seed ^ 1, len);
        (program, path)
    }

    /// One basic block program executed `reps` times.
    fn looped_program(insns: Vec<TaggedInsn>, reps: usize) -> (Program, ExecutionPath) {
        let program = Program {
            name: "stream-pin".into(),
            suite: crate::suite::Suite::Mobile,
            functions: vec![Function {
                id: FuncId(0),
                name: "f".into(),
                blocks: vec![BlockId(0)],
            }],
            blocks: vec![BasicBlock {
                id: BlockId(0),
                func: FuncId(0),
                insns,
                terminator: Terminator::Exit,
            }],
            mem: crate::params::MemProfile::default(),
            load_hints: Default::default(),
        };
        let path = ExecutionPath {
            blocks: vec![BlockId(0); reps],
            seed: 0,
        };
        (program, path)
    }

    fn drain(
        program: &Program,
        path: &ExecutionPath,
        cfg: StreamConfig,
    ) -> (Vec<DynInsn>, Vec<u32>, Vec<u32>) {
        let mut stream = TraceStream::new(program, path, cfg);
        let mut entries = Vec::new();
        let mut fanout = Vec::new();
        let mut cone = Vec::new();
        while let Some(w) = stream.next_window() {
            assert_eq!(w.base, entries.len(), "windows must be contiguous");
            assert!(w.entries.len() <= cfg.window.max(1));
            entries.extend_from_slice(w.entries);
            fanout.extend_from_slice(w.fanout);
            cone.extend_from_slice(w.cone);
        }
        assert_eq!(entries.len(), stream.total_len());
        assert_eq!(stream.emitted(), stream.total_len());
        (entries, fanout, cone)
    }

    fn assert_stream_matches_materialized(
        program: &Program,
        path: &ExecutionPath,
        cfg: StreamConfig,
    ) {
        let trace = Trace::expand(program, path);
        let (entries, fanout, cone) = drain(program, path, cfg);
        assert_eq!(entries, trace.entries, "streamed entries diverge");
        assert_eq!(fanout, trace.compute_fanout(), "streamed fanout diverges");
        if let Some(w) = cfg.cone_window {
            assert_eq!(
                cone,
                trace.compute_cone_fanout(w),
                "streamed cone diverges at window {w}"
            );
        }
    }

    #[test]
    fn streaming_matches_materialized_on_generated_apps() {
        let (program, path) = generated(11, 6_000);
        for cfg in [
            StreamConfig {
                window: 1,
                lookahead: 128,
                cone_window: Some(128),
            },
            StreamConfig {
                window: 17,
                lookahead: 140,
                cone_window: Some(128),
            },
            StreamConfig {
                window: 4096,
                lookahead: 512,
                cone_window: Some(128),
            },
            StreamConfig {
                window: usize::MAX / 2,
                lookahead: 512,
                cone_window: Some(64),
            },
            StreamConfig {
                window: 256,
                lookahead: 1,
                cone_window: None,
            },
        ] {
            assert_stream_matches_materialized(&program, &path, cfg);
        }
    }

    #[test]
    fn lookahead_at_cone_boundary_is_exact() {
        // Look-ahead exactly equal to the cone window: the tightest legal
        // ring — an entry is emitted on the very cycle its cone closes.
        let (program, path) = generated(12, 4_000);
        for w in [1usize, 2, 64, 128] {
            let cfg = StreamConfig {
                window: 33,
                lookahead: w,
                cone_window: Some(w),
            };
            assert_stream_matches_materialized(&program, &path, cfg);
        }
    }

    #[test]
    fn thumb_fraction_matches_materialized() {
        let (program, path) = generated(13, 3_000);
        let trace = Trace::expand(&program, &path);
        let mut stream = TraceStream::new(&program, &path, StreamConfig::with_window(100));
        while stream.next_window().is_some() {}
        assert_eq!(stream.thumb_fraction(), trace.thumb_fraction());
        assert_eq!(stream.name(), trace.name);
    }

    /// Satellite: pin the windowed cone at the exact window boundary — a
    /// dependence pointing exactly `window` back is *inside* the cone
    /// (`dist <= window`), one further is outside, and the streamed
    /// incremental result matches the batch implementation bit-for-bit
    /// even when the cone straddles two emitted stream windows.
    #[test]
    fn cone_pins_dependence_exactly_window_back() {
        // A self-recurrence at distance exactly `block_len` per iteration:
        // r0 += r0 every 4 instructions.
        let insns = vec![
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R0, &[Reg::R0, Reg::R7]),
                InsnUid(0),
            ),
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R1, &[Reg::R7, Reg::R7]),
                InsnUid(1),
            ),
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R2, &[Reg::R7, Reg::R7]),
                InsnUid(2),
            ),
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R3, &[Reg::R7, Reg::R7]),
                InsnUid(3),
            ),
        ];
        let (program, path) = looped_program(insns, 12);
        let trace = Trace::expand(&program, &path);
        // dist(r0 -> r0) == 4. window == 4 keeps it, window == 3 drops it.
        let at_window = trace.compute_cone_fanout(4);
        let below_window = trace.compute_cone_fanout(3);
        assert_eq!(at_window[0], 1, "dep exactly `window` back is in-cone");
        assert_eq!(below_window[0], 0, "dep `window + 1` back is out");
        for w in [3usize, 4, 5] {
            // Stream window 3 vs block length 4: every cone straddles two
            // emitted windows.
            let cfg = StreamConfig {
                window: 3,
                lookahead: w,
                cone_window: Some(w),
            };
            assert_stream_matches_materialized(&program, &path, cfg);
        }
    }

    /// Satellite: the `dist == 128` shift boundary (`cmask << 128` would
    /// overflow; both implementations keep only the direct-dependent bit).
    #[test]
    fn cone_pins_distance_128_shift_boundary() {
        let mut insns = vec![TaggedInsn::new(
            Insn::alu(Opcode::Add, Reg::R0, &[Reg::R7, Reg::R7]),
            InsnUid(0),
        )];
        for i in 1..128 {
            insns.push(TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R1, &[Reg::R1, Reg::R7]),
                InsnUid(i),
            ));
        }
        // Reader of r0 at distance exactly 128.
        insns.push(TaggedInsn::new(
            Insn::alu(Opcode::Add, Reg::R2, &[Reg::R0, Reg::R7]),
            InsnUid(128),
        ));
        let (program, path) = looped_program(insns, 2);
        let trace = Trace::expand(&program, &path);
        assert_eq!(trace.compute_cone_fanout(128)[0], 1);
        assert_eq!(trace.compute_cone_fanout(127)[0], 0);
        for cfg in [
            StreamConfig {
                window: 50,
                lookahead: 128,
                cone_window: Some(128),
            },
            StreamConfig {
                window: 129,
                lookahead: 200,
                cone_window: Some(127),
            },
        ] {
            assert_stream_matches_materialized(&program, &path, cfg);
        }
    }

    /// A register read far beyond the look-ahead exercises the exception
    /// queue: the ring count alone would be short.
    #[test]
    fn consumers_beyond_lookahead_are_exact_via_exceptions() {
        let mut insns = vec![TaggedInsn::new(
            Insn::alu(Opcode::Add, Reg::R0, &[Reg::R7, Reg::R7]),
            InsnUid(0),
        )];
        for i in 1..40 {
            insns.push(TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R1, &[Reg::R1, Reg::R7]),
                InsnUid(i),
            ));
        }
        // Two readers of r0 at distances 40 and 41 — far past lookahead 8.
        insns.push(TaggedInsn::new(
            Insn::alu(Opcode::Add, Reg::R2, &[Reg::R0, Reg::R7]),
            InsnUid(40),
        ));
        insns.push(TaggedInsn::new(
            Insn::alu(Opcode::Add, Reg::R3, &[Reg::R0, Reg::R7]),
            InsnUid(41),
        ));
        let (program, path) = looped_program(insns, 3);
        let cfg = StreamConfig {
            window: 5,
            lookahead: 8,
            cone_window: Some(8),
        };
        let stream = TraceStream::new(&program, &path, cfg);
        assert!(
            !stream.prep.exceptions.is_empty(),
            "the far readers must be prepass exceptions"
        );
        drop(stream);
        assert_stream_matches_materialized(&program, &path, cfg);
    }

    #[test]
    fn resident_memory_is_bounded_by_lookahead_not_trace() {
        let (program, path) = generated(14, 12_000);
        let cfg = StreamConfig {
            window: 64,
            lookahead: 256,
            cone_window: Some(128),
        };
        let mut stream = TraceStream::new(&program, &path, cfg);
        let mut peak = stream.resident_bytes();
        while stream.next_window().is_some() {
            peak = peak.max(stream.resident_bytes());
        }
        let trace = Trace::expand(&program, &path);
        let materialized = trace.entries.capacity() * std::mem::size_of::<DynInsn>();
        assert!(
            peak * 4 < materialized,
            "streaming peak {peak} not ≪ materialized {materialized}"
        );
    }
}

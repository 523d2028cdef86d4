//! The streamed column source: bounded memory, bit-identical results.
//!
//! [`Simulator::run_streamed`] runs the one cycle loop
//! (`Simulator::run_source`) over a `Ring` fed window-at-a-time from a
//! [`TraceStream`], instead of over a materialized
//! [`critic_workloads::Trace`] + `DecodedTrace` pair. Decoded columns,
//! fanout and per-instruction timestamp tables live in power-of-two
//! *rings* sized to the live span of the pipeline — the range between the
//! oldest un-committed instruction and the fetch frontier plus one stream
//! window — so peak memory is O(window + look-ahead + ROB), independent of
//! the trace length.
//!
//! # Why the results are bit-identical
//!
//! The stages are the materialized run's own; only the source differs,
//! and every way a ring could differ from the whole trace is a property of
//! `Ring`:
//!
//! * **Columns**: every entry is decoded by the same
//!   `DecodedTrace::decode_at` the materialized decode uses, and the stream's entries and
//!   fanout values are themselves bit-identical to the materialized
//!   expansion (asserted by `critic-workloads`' own differential tests).
//! * **Ring reads**: the cycle loop only ever indexes instructions in the
//!   live span — ROB entries, fetch-queue entries, and the fetch frontier
//!   are all ≥ the eviction floor — except dependence lookups, which may
//!   point arbitrarily far back. (The issue queue's wake lists and ready
//!   bits live in a ring of their own over the in-flight span, the same
//!   for both sources.) `done_of` is not read by a per-cycle scan of
//!   waiting entries but at two events per entry: at dispatch, to link
//!   the entry onto the wake list of each producer whose completion time
//!   is still `UNSET`, and when the last of those producers issues, to
//!   take the `max` of the dependences' completion times (at dispatch if
//!   none was pending). For these reads `Ring::done_of` substitutes `0`
//!   for any dependence older than the floor: an evicted dependence is
//!   *committed*, so its true completion time is ≤ `now` at every
//!   subsequent read. Substituting `0` therefore changes neither the
//!   `UNSET` test (evicted instructions always have a completion time, so
//!   they are never linked and never hold a resolution back) nor the `max`
//!   when that max is in the future (a future completion can only come
//!   from a live, in-ring dependence), and a `max` ≤ `now` sends the entry
//!   to the ready pool either way. So the `max`, taken one cycle before
//!   the entry is scheduled, schedules it exactly as a rescan in that
//!   cycle would (a debug assertion in the issue stage checks this on
//!   every resolution). The wakeup schedule is therefore cycle-exact.
//!   The materialized source keeps its timestamps in the same kind of
//!   ring and answers below its floor the same way (`Flat::done_of`).
//! * **Eviction floor**: advanced only by `Ring::feed`, to the ROB head
//!   (or the dispatch frontier when the ROB is empty, i.e. everything
//!   older has committed). Slots are only overwritten during a feed, and
//!   the capacity check guarantees the overwritten index is below the
//!   floor just computed, so no live slot is ever clobbered.
//!
//! The format-switch CDP pseudo-instructions never enter the ROB, so the
//! distance between the ROB head and the fetch frontier is *not* bounded
//! by the ROB capacity alone; the rings grow by doubling (re-placing the
//! live span under the new mask) in the rare case a CDP-dense region
//! stretches the span past the initial capacity.

use std::sync::Arc;

use critic_obs::CycleLedger;
use critic_workloads::{
    ExecutionPath, Program, StreamBuffers, StreamConfig, StreamPrep, TraceStream,
};

use crate::sim::{regrow, Cols, DecodedTrace, Queues, Simulator, Source, Stamps};
use crate::stats::SimResult;

/// Bytes per ring slot across every column and timestamp ring (used for
/// capacity-based accounting: `Vec` capacity × element size, summed).
const BYTES_PER_SLOT: usize = 1 + 4 + 1 + 1 + 12 + 8 + 8 + 8 + 1 // decoded columns
    + 4 // fanout
    + 8 + 4 + 8 + 8 + 8 + 8 + 8; // timestamp tables

/// Memory accounting for one streamed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamRunStats {
    /// Peak bytes resident across the run: ring capacities, pipeline
    /// queues, and the stream's own expansion state. Sampled at every feed
    /// (where the rings grow) and once more when the run returns, so queue
    /// capacity grown after the last feed is counted too.
    pub peak_resident_bytes: usize,
    /// Final ring capacity in slots.
    pub ring_capacity: usize,
}

/// Reusable working memory for [`Simulator::run_streamed`]: the ring
/// counterpart of [`crate::SimScratch`]. Keep one per worker and reuse it
/// across runs; rings are recycled, never reallocated once warm.
#[derive(Debug, Default)]
pub struct StreamScratch {
    /// Decoded columns, ring-indexed by `i & mask`: a `DecodedTrace` whose
    /// length is the ring capacity.
    cols: DecodedTrace,
    fanout: Vec<u32>,
    /// Timestamp tables, ring-indexed like the columns; the eviction
    /// substitution lives in `Ring::done_of`.
    stamps: Stamps,
    queues: Queues,
    /// The buffers of the stream the next run reads, recycled through
    /// [`StreamScratch::open`] and [`StreamScratch::recycle`].
    buffers: StreamBuffers,
}

impl StreamScratch {
    /// Empty scratch; rings grow on first use and are then recycled.
    pub fn new() -> StreamScratch {
        StreamScratch::default()
    }

    /// Opens a stream over `(program, path)` on this scratch's recycled
    /// stream buffers, with `prep` built for the pair
    /// ([`TraceStream::recycled`]). Hand the stream back with
    /// [`StreamScratch::recycle`] once the run is read out, so the next
    /// stream reuses its buffers.
    pub fn open<'a>(
        &mut self,
        program: &'a Program,
        path: &'a ExecutionPath,
        cfg: StreamConfig,
        prep: Arc<StreamPrep>,
    ) -> TraceStream<'a> {
        let buffers = std::mem::take(&mut self.buffers);
        TraceStream::recycled(program, path, cfg, prep, buffers)
    }

    /// Keeps a finished stream's buffers for the next [`StreamScratch::open`].
    pub fn recycle(&mut self, stream: TraceStream<'_>) {
        self.buffers = stream.into_buffers();
    }
}

/// Bytes a streamed run holds: ring capacity across every column and
/// timestamp table, the pipeline queues, and the stream's expansion state.
fn footprint(fanout: &Vec<u32>, q: &Queues, stream: &TraceStream<'_>) -> usize {
    fanout.capacity() * BYTES_PER_SLOT + q.resident_bytes() + stream.resident_bytes()
}

/// Grows every ring to `cap` slots (a power of two), re-placing the live
/// span `[lo, hi)` under the new mask.
fn grow_rings(
    cols: &mut DecodedTrace,
    fanout: &mut Vec<u32>,
    st: &mut Stamps,
    cap: usize,
    lo: usize,
    hi: usize,
) {
    let old_mask = fanout.len().wrapping_sub(1);
    cols.regrow(old_mask, cap, lo, hi);
    regrow(fanout, old_mask, cap, lo, hi);
    st.regrow(old_mask, cap, lo, hi);
}

/// The streamed source: columns, fanout and timestamp tables in rings
/// indexed by `i & mask`, fed one stream window at a time.
struct Ring<'a, 's> {
    stream: &'a mut TraceStream<'s>,
    cols: &'a mut DecodedTrace,
    fanout: &'a mut Vec<u32>,
    n: usize,
    mask: usize,
    /// Entries decoded into the rings so far (absolute).
    filled: usize,
    /// Ring indices below this are committed and may be overwritten.
    evict_floor: usize,
    /// How far the decode frontier runs ahead of fetch: one fetch group.
    feed_ahead: usize,
    stats: StreamRunStats,
}

impl Ring<'_, '_> {
    fn sample_peak(&mut self, q: &Queues) {
        let resident = footprint(self.fanout, q, self.stream);
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(resident);
    }
}

impl Source for Ring<'_, '_> {
    fn len(&self) -> usize {
        self.n
    }

    /// Keeps the decode frontier one fetch group ahead of fetch. This is
    /// the only point slots are overwritten or the rings grow, so the
    /// floor advance, the capacity check, and the per-feed peak sample all
    /// live here.
    #[inline]
    fn feed(&mut self, fetch_idx: usize, fq_head: usize, st: &mut Stamps, q: &Queues) {
        let feed_target = self.n.min(fetch_idx + self.feed_ahead);
        if self.filled >= feed_target {
            return;
        }
        self.evict_floor = self.evict_floor.max(q.oldest(fq_head));
        while self.filled < feed_target {
            let Some(w) = self.stream.next_window() else {
                unreachable!(
                    "stream ended at {} before its total_len {}",
                    self.filled, self.n
                );
            };
            let need = self.filled + w.entries.len() - self.evict_floor;
            if need > self.fanout.len() {
                // Mid-window growth: re-place the live span. (Borrow note:
                // `w` borrows the stream, not the rings, so the rings are
                // free to move.)
                let (cap, lo, hi) = (need.next_power_of_two(), self.evict_floor, self.filled);
                grow_rings(self.cols, self.fanout, st, cap, lo, hi);
                self.mask = cap - 1;
                self.stats.ring_capacity = cap;
            }
            for (k, e) in w.entries.iter().enumerate() {
                let s = self.filled & self.mask;
                self.cols.decode_at(s, e);
                self.fanout[s] = w.fanout[k];
                self.filled += 1;
            }
        }
        self.sample_peak(q);
    }

    #[inline]
    fn cols(&self) -> Cols<'_> {
        self.cols.cols(self.fanout)
    }

    #[inline]
    fn slot(&self, i: usize) -> usize {
        i & self.mask
    }

    /// The timestamp ring shares the columns' slots.
    #[inline]
    fn stamp(&self, i: usize) -> usize {
        i & self.mask
    }

    /// Completion-time lookup through the ring for a *shifted* dependence
    /// index (`0` = always-done sentinel, insn `i` = `i + 1`), with the
    /// eviction substitution documented in the module header.
    #[inline]
    fn done_of(&self, done_at: &[u64], d: u32) -> u64 {
        if d == 0 {
            return 0;
        }
        let i = (d - 1) as usize;
        if i < self.evict_floor {
            0
        } else {
            done_at[i & self.mask]
        }
    }
}

impl Simulator {
    /// Runs a [`TraceStream`] to completion with bounded memory, returning
    /// the timing result, the per-cycle ledger, and the run's memory
    /// accounting. Results are bit-identical to decoding the materialized
    /// trace and calling [`Simulator::run_decoded`] (asserted by this
    /// module's differential tests and the repo-level battery).
    ///
    /// The stream supplies both entries and their exact direct fanout, so
    /// no caller-side `compute_fanout` pass (or trace materialization) is
    /// needed. Cone fanout is not consumed here — open sim-bound streams
    /// with [`critic_workloads::StreamConfig::cone_window`] `= None` to
    /// skip that work.
    ///
    /// # Panics
    ///
    /// Panics if the stream has already emitted entries (the run must see
    /// the whole trace).
    pub fn run_streamed(
        &self,
        stream: &mut TraceStream<'_>,
        scratch: &mut StreamScratch,
    ) -> (SimResult, CycleLedger, StreamRunStats) {
        assert_eq!(stream.emitted(), 0, "run_streamed requires a fresh stream");
        let cfg = self.cpu_config();
        let n = stream.total_len();
        let feed_ahead = cfg.fetch_width as usize * 2;
        let StreamScratch {
            cols,
            fanout,
            stamps,
            queues,
            ..
        } = scratch;
        // Initial ring capacity: the steady-state live span (one stream
        // window ahead of fetch, the fetch buffer, the ROB) plus headroom
        // for the ROB-invisible CDPs interleaved in it. A window larger
        // than the trace contributes at most the trace.
        let cap = (stream.window().min(n) + cfg.fetch_buffer + cfg.rob_entries + feed_ahead + 64)
            .next_power_of_two();
        if fanout.len() < cap {
            grow_rings(cols, fanout, stamps, cap, 0, 0);
        }
        let mut ring = Ring {
            stream,
            cols,
            mask: fanout.len() - 1,
            stats: StreamRunStats {
                ring_capacity: fanout.len(),
                ..StreamRunStats::default()
            },
            fanout,
            n,
            filled: 0,
            evict_floor: 0,
            feed_ahead,
        };
        let (result, ledger) = self.run_source(&mut ring, stamps, queues);
        // The queues can grow between the last feed and the end of the run.
        ring.sample_peak(queues);
        (result, ledger, ring.stats)
    }
}

#[cfg(test)]
mod tests {
    use critic_mem::MemConfig;
    use critic_workloads::{GenParams, ProgramGenerator, Trace};

    use super::*;
    use crate::config::CpuConfig;
    use crate::sim::{DecodedTrace, SimScratch};

    fn workload(seed: u64, len: usize) -> (Program, ExecutionPath) {
        let mut p = GenParams::mobile(seed);
        p.num_functions = 20;
        let program = ProgramGenerator::new(p).generate();
        let path = ExecutionPath::generate(&program, seed ^ 0xBEEF, len);
        (program, path)
    }

    fn materialized(
        sim: &Simulator,
        program: &Program,
        path: &ExecutionPath,
    ) -> (SimResult, CycleLedger) {
        let trace = Trace::expand(program, path);
        let fanout = trace.compute_fanout();
        let mut decoded = DecodedTrace::new();
        decoded.decode_into(&trace);
        let mut scratch = SimScratch::new();
        sim.run_decoded(&decoded, &fanout, &mut scratch)
    }

    fn stream_cfg(window: usize) -> StreamConfig {
        StreamConfig {
            window,
            lookahead: critic_workloads::DEFAULT_LOOKAHEAD,
            cone_window: None,
        }
    }

    #[test]
    fn streamed_run_is_bit_identical_across_window_sizes() {
        let (program, path) = workload(7, 12_000);
        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        let want = materialized(&sim, &program, &path);
        let mut scratch = StreamScratch::new();
        for window in [1, 63, 4096, usize::MAX / 2] {
            let mut stream = TraceStream::new(&program, &path, stream_cfg(window));
            let (result, ledger, _) = sim.run_streamed(&mut stream, &mut scratch);
            assert_eq!((result, ledger), want, "window={window}");
        }
    }

    #[test]
    fn streamed_run_matches_under_contended_configs() {
        let (program, path) = workload(11, 9_000);
        // Small structures force back-pressure, ring wrap, and CDP stalls;
        // the prioritized + imperfect-branch config exercises the critical
        // table and the branch-blocked fetch path.
        let mut cpu = CpuConfig::google_tablet();
        cpu.rob_entries = 16;
        cpu.iq_entries = 8;
        cpu.fetch_buffer = 6;
        cpu.prioritize_critical = true;
        cpu.cdp_bubble = 2;
        let sim = Simulator::new(cpu, MemConfig::google_tablet());
        let want = materialized(&sim, &program, &path);
        // The streamed and materialized runs share one cycle loop; the
        // scalar oracle shares none of it.
        let trace = Trace::expand(&program, &path);
        let oracle = sim.run_reference(&trace, &trace.compute_fanout());
        assert_eq!(want, oracle, "materialized run diverges from the oracle");
        let mut scratch = StreamScratch::new();
        let mut stream = TraceStream::new(&program, &path, stream_cfg(256));
        let (result, ledger, _) = sim.run_streamed(&mut stream, &mut scratch);
        assert_eq!((result, ledger), want);
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let (program, path) = workload(3, 6_000);
        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        let mut scratch = StreamScratch::new();
        let mut first = None;
        for _ in 0..3 {
            let mut stream = TraceStream::new(&program, &path, stream_cfg(512));
            let out = sim.run_streamed(&mut stream, &mut scratch);
            match &first {
                None => first = Some(out),
                Some(want) => assert_eq!(&out, want),
            }
        }
    }

    /// The reported peak covers the footprint the run ends with: nothing
    /// that grows after the last feed escapes the accounting.
    #[test]
    fn peak_covers_the_footprint_at_return() {
        let (program, path) = workload(9, 20_000);
        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        for window in [1, 256, 4096] {
            let mut scratch = StreamScratch::new();
            let mut stream = TraceStream::new(&program, &path, stream_cfg(window));
            let (_, _, stats) = sim.run_streamed(&mut stream, &mut scratch);
            let at_return = footprint(&scratch.fanout, &scratch.queues, &stream);
            assert!(
                stats.peak_resident_bytes >= at_return,
                "window={window}: peak {} < footprint at return {at_return}",
                stats.peak_resident_bytes
            );
        }
    }

    #[test]
    fn peak_memory_is_bounded_by_window_not_trace() {
        let (program, path) = workload(5, 60_000);
        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        let mut scratch = StreamScratch::new();
        let mut stream = TraceStream::new(&program, &path, stream_cfg(1024));
        let (result, _, stats) = sim.run_streamed(&mut stream, &mut scratch);
        assert!(result.cycles > 0);
        // The materialized path keeps the whole trace + decode + fanout +
        // timestamp tables resident: ≥ 100 bytes per dynamic instruction.
        let materialized_floor = 60_000 * 100;
        assert!(
            stats.peak_resident_bytes * 4 < materialized_floor,
            "peak {} not O(window) vs materialized floor {}",
            stats.peak_resident_bytes,
            materialized_floor
        );
    }
}

//! The column ring every run reads: bounded memory, bit-identical results.
//!
//! The one cycle loop (`Simulator::run_source`) reads its decoded
//! columns, fanout and per-instruction timestamp tables from a `Ring`:
//! power-of-two rings sized to the live span of the pipeline — the range
//! between the oldest un-committed instruction and the fetch frontier plus
//! one fill window — so a run's memory is O(window + look-ahead + ROB),
//! independent of the trace length. Only the ring's feed varies, with
//! three fills (`Fill`):
//!
//! * **Stream windows** ([`Simulator::run_streamed`]): a [`TraceStream`]
//!   expands, fanout-annotates and hands over one window at a time; no
//!   trace is ever materialized.
//! * **Slices of a materialized trace** plus its fanout
//!   ([`Simulator::run_with_ledger`], [`Simulator::run`]).
//! * **Slices of already-decoded columns** ([`Simulator::run_decoded`]),
//!   copied into the ring.
//!
//! # Why the results are bit-identical
//!
//! Every run shares the stages and the ring; the fills differ only in
//! where an entry comes from, and every way the ring could differ from a
//! whole-trace table is a property of `Ring`:
//!
//! * **Columns**: the stream and trace fills decode every entry with the
//!   same `DecodedTrace::decode_at` a whole-trace decode uses, and the
//!   decoded fill copies that decode's columns; the stream's entries and
//!   fanout values are themselves bit-identical to the materialized
//!   expansion (asserted by `critic-workloads`' own differential tests).
//! * **Ring reads**: the cycle loop only ever indexes instructions in the
//!   live span — ROB entries, fetch-queue entries, and the fetch frontier
//!   are all ≥ the eviction floor — except dependence lookups, which may
//!   point arbitrarily far back. (The issue queue's wake lists and ready
//!   bits live in a ring of their own over the in-flight span.)
//!   `Cols::done_of` is not read by a per-cycle scan of waiting entries
//!   but at two events per entry: at dispatch, to link the entry onto the
//!   wake list of each producer whose completion time is still `UNSET`,
//!   and when the last of those producers issues, to take the `max` of
//!   the dependences' completion times (at dispatch if none was pending).
//!   For these reads it substitutes `0` for any dependence older than the
//!   floor: an evicted dependence is *committed*, so its true completion
//!   time is ≤ `now` at every subsequent read. Substituting `0` therefore
//!   changes neither the `UNSET` test (evicted instructions always have a
//!   completion time, so they are never linked and never hold a
//!   resolution back) nor the `max` when that max is in the future (a
//!   future completion can only come from a live, in-ring dependence),
//!   and a `max` ≤ `now` sends the entry to the ready pool either way. So
//!   the `max`, taken one cycle before the entry is scheduled, schedules
//!   it exactly as a rescan in that cycle would (a debug assertion in the
//!   issue stage checks this on every resolution). The wakeup schedule is
//!   therefore cycle-exact, whatever the fill window.
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
    DynInsn, ExecutionPath, Program, StreamConfig, StreamPrep, Trace, TraceStream,
};

use crate::config::CpuConfig;
use crate::sim::{copy_wrapped, regrow, Cols, DecodedTrace, Queues, SimScratch, Simulator, Stamps};
use crate::stats::SimResult;

/// Bytes per ring slot across every column and timestamp ring (used for
/// capacity-based accounting: `Vec` capacity × element size, summed).
const BYTES_PER_SLOT: usize = 1 + 4 + 1 + 1 + 12 + 8 + 8 + 8 + 1 // decoded columns
    + 4 // fanout
    + 8 + 4 + 8 + 8 + 8 + 8 + 8; // timestamp tables

/// Entries a materialized fill hands the ring at a time.
const FILL_WINDOW: usize = 1024;

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

/// The one scratch type under its streaming name: every run, streamed or
/// not, works in a [`SimScratch`].
pub type StreamScratch = SimScratch;

impl SimScratch {
    /// Opens a stream over `(program, path)` on this scratch's recycled
    /// stream buffers, with `prep` built for the pair
    /// ([`TraceStream::recycled`]). Hand the stream back with
    /// [`SimScratch::recycle`] once the run is read out, so the next
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

    /// Keeps a finished stream's buffers for the next [`SimScratch::open`].
    pub fn recycle(&mut self, stream: TraceStream<'_>) {
        self.buffers = stream.into_buffers();
    }
}

/// Where the ring's entries come from.
pub(crate) enum Fill<'a, 's> {
    /// One stream window at a time.
    Stream(&'a mut TraceStream<'s>),
    /// [`FILL_WINDOW`]-entry slices of a materialized trace, decoded as
    /// they enter the ring.
    Trace { trace: &'a Trace, fanout: &'a [u32] },
    /// [`FILL_WINDOW`]-entry slices of a whole-trace decode, copied.
    Decoded {
        decoded: &'a DecodedTrace,
        fanout: &'a [u32],
    },
}

impl Fill<'_, '_> {
    /// Instructions in the whole run.
    fn len(&self) -> usize {
        match self {
            Fill::Stream(stream) => stream.total_len(),
            Fill::Trace { trace, .. } => trace.len(),
            Fill::Decoded { decoded, .. } => decoded.len(),
        }
    }

    /// The most entries one fill step hands the ring.
    fn window(&self) -> usize {
        match self {
            Fill::Stream(stream) => stream.window(),
            Fill::Trace { .. } | Fill::Decoded { .. } => FILL_WINDOW,
        }
    }
}

/// Bytes a run holds: ring capacity across every column and timestamp
/// table, the pipeline queues, and the stream's expansion state.
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

/// The column source: columns, fanout and timestamp tables in rings
/// indexed by `i & mask`, fed one fill window at a time.
pub(crate) struct Ring<'a> {
    cols: &'a mut DecodedTrace,
    fanout: &'a mut Vec<u32>,
    n: usize,
    mask: usize,
    /// Entries placed in the rings so far (absolute).
    filled: usize,
    /// Ring indices below this are committed and may be overwritten.
    evict_floor: usize,
    /// How far the fill frontier runs ahead of fetch: one fetch group.
    feed_ahead: usize,
    pub(crate) stats: StreamRunStats,
}

impl<'a> Ring<'a> {
    /// A ring for `fill`'s run on `cpu`, in the scratch's recycled
    /// tables. The initial capacity is the steady-state live span (one
    /// fill window ahead of fetch, the fetch buffer, the ROB) plus
    /// headroom for the ROB-invisible CDPs interleaved in it; a window
    /// larger than the trace contributes at most the trace.
    pub(crate) fn new(
        fill: &Fill<'_, '_>,
        cpu: &CpuConfig,
        cols: &'a mut DecodedTrace,
        fanout: &'a mut Vec<u32>,
        st: &mut Stamps,
    ) -> Ring<'a> {
        let n = fill.len();
        let feed_ahead = cpu.fetch_width as usize * 2;
        let cap = (fill.window().min(n) + cpu.fetch_buffer + cpu.rob_entries + feed_ahead + 64)
            .next_power_of_two();
        if fanout.len() < cap {
            grow_rings(cols, fanout, st, cap, 0, 0);
        }
        Ring {
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
        }
    }

    /// Instructions in the whole run.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The ring as one cycle's [`Cols`].
    #[inline]
    pub(crate) fn cols(&self) -> Cols<'_> {
        self.cols.cols(self.fanout, self.mask, self.evict_floor)
    }

    /// Keeps the fill frontier one fetch group ahead of fetch; runs at the
    /// top of every cycle. `fq_head` is the dispatch frontier.
    #[inline]
    pub(crate) fn feed(
        &mut self,
        fill: &mut Fill<'_, '_>,
        fetch_idx: usize,
        fq_head: usize,
        st: &mut Stamps,
        q: &Queues,
    ) {
        let target = self.n.min(fetch_idx + self.feed_ahead);
        if self.filled < target {
            self.refill(fill, target, fq_head, st, q);
        }
    }

    /// Fills the rings up to `target`. This is the only point slots are
    /// overwritten or the rings grow, so the floor advance, the capacity
    /// check, and the per-feed peak sample all live here.
    fn refill(
        &mut self,
        fill: &mut Fill<'_, '_>,
        target: usize,
        fq_head: usize,
        st: &mut Stamps,
        q: &Queues,
    ) {
        self.evict_floor = self.evict_floor.max(q.oldest(fq_head));
        while self.filled < target {
            let from = self.filled;
            match fill {
                Fill::Stream(stream) => {
                    let Some(w) = stream.next_window() else {
                        unreachable!("stream ended at {from} before its total_len {}", self.n);
                    };
                    self.reserve(w.entries.len(), st);
                    self.decode(w.entries, w.fanout);
                }
                Fill::Trace { trace, fanout } => {
                    let to = self.n.min(from + FILL_WINDOW);
                    self.reserve(to - from, st);
                    self.decode(&trace.entries[from..to], &fanout[from..to]);
                }
                Fill::Decoded { decoded, fanout } => {
                    let to = self.n.min(from + FILL_WINDOW);
                    self.reserve(to - from, st);
                    self.cols.copy_span(decoded, from, to, self.mask);
                    copy_wrapped(self.fanout, &fanout[from..to], from & self.mask);
                    self.filled = to;
                }
            }
        }
        self.sample_peak(fill, q);
    }

    /// Makes room for `len` more entries past the fill frontier: grows the
    /// rings, re-placing the live span, when they would overrun it.
    fn reserve(&mut self, len: usize, st: &mut Stamps) {
        let need = self.filled + len - self.evict_floor;
        if need > self.fanout.len() {
            let cap = need.next_power_of_two();
            grow_rings(
                self.cols,
                self.fanout,
                st,
                cap,
                self.evict_floor,
                self.filled,
            );
            self.mask = cap - 1;
            self.stats.ring_capacity = cap;
        }
    }

    /// Decodes `entries`, with their `fanout`, into the slots from the
    /// fill frontier on.
    fn decode(&mut self, entries: &[DynInsn], fanout: &[u32]) {
        for (k, e) in entries.iter().enumerate() {
            self.cols.decode_at((self.filled + k) & self.mask, e);
        }
        copy_wrapped(self.fanout, fanout, self.filled & self.mask);
        self.filled += entries.len();
    }

    /// Folds the run's current footprint into its peak; only a streamed
    /// run reports one.
    pub(crate) fn sample_peak(&mut self, fill: &Fill<'_, '_>, q: &Queues) {
        if let Fill::Stream(stream) = fill {
            let resident = footprint(self.fanout, q, stream);
            self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(resident);
        }
    }
}

impl Simulator {
    /// Runs a [`TraceStream`] to completion with bounded memory, returning
    /// the timing result, the per-cycle ledger, and the run's memory
    /// accounting. Results are bit-identical to
    /// [`Simulator::run_with_ledger`] on the materialized trace (asserted
    /// by this module's differential tests and the repo-level battery).
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
        self.run_source(Fill::Stream(stream), scratch)
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
        // The three fills share one cycle loop; the scalar oracle shares
        // none of it.
        let trace = Trace::expand(&program, &path);
        let fanout = trace.compute_fanout();
        let oracle = sim.run_reference(&trace, &fanout);
        assert_eq!(want, oracle, "decoded run diverges from the oracle");
        let ledgered = sim.run_with_ledger(&trace, &fanout, &mut SimScratch::new());
        assert_eq!(ledgered, oracle, "trace run diverges from the oracle");
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

//! Memory-regression battery for the streaming trace pipeline: a
//! workbench cell's measured heap and a streamed campaign cell's charged
//! allocations both fit one long-trace budget, the streaming simulator's
//! *measured* peak is bounded by the window, not the trace, a streamed
//! campaign's measured peak live heap stays flat in the trace length, and
//! so does the heap a simulator scratch keeps after a materialized run.
//!
//! Every workbench streams its data-oriented runs, so the materialized
//! side of each comparison is a [`Workbench`] on [`SimEngine::Reference`],
//! which walks the app's world and an expanded variant trace, measured
//! through this binary's global allocator. The budget half rides the
//! existing [`SysFault::AllocBudget`] meter: `run_cell_body` charges each
//! attempt's dominant allocations against the injected budget (O(window)
//! bytes for a streamed cell). The charges are a model, though: they never
//! saw the store-resident world a streamed campaign used to hold. The
//! measured half counts every heap byte, so nothing resident can hide
//! from it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use critics::core::campaign::{
    run_campaign, run_campaign_with_store, CampaignSpec, CellMetrics, CellStatus, Scheme,
};
use critics::core::design::DesignPoint;
use critics::core::runner::Workbench;
use critics::core::store::{ArtifactStore, StoreStats};
use critics::mem::MemConfig;
use critics::pipeline::{CpuConfig, SimEngine, SimScratch, Simulator, StreamScratch};
use critics::workloads::suite::Suite;
use critics::workloads::{
    AppSpec, ExecutionPath, StreamConfig, SysFault, SysFaultSpec, SysInjector, Trace, TraceStream,
    DEFAULT_LOOKAHEAD,
};

/// Counts live heap bytes and their high-water mark for the whole binary.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes of blocks that were actually handed out or returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Every test in this binary holds this lock, so no other test's
/// allocations land inside a measured peak.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` and returns its result with the peak live heap it added above
/// the live heap at entry, in bytes.
fn peak_heap_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

/// Long enough that the materialized footprint dwarfs every windowed one:
/// a materialized cell holds the trace (64 B/insn), its fanout and a
/// variant trace — well over 11 MB here — while a 4 Ki window charges
/// ~0.5 MB.
const LONG_TRACE: usize = 120_000;

/// Above the streamed charge (~0.5 MB) and far below the materialized
/// heap (> 11 MB).
const BUDGET_BYTES: u64 = 2_000_000;

/// A workbench cell's measured heap at the default window: its scratch
/// keeps 8192-slot simulator rings (100 B a slot) and the stream's
/// buffers, ~3.2 MB at every trace length, against the reference
/// engine's 27 MB at [`LONG_TRACE`].
const CELL_BUDGET_BYTES: u64 = 4_000_000;

const WINDOW: usize = 4_096;

/// The battery's app: a small static program keeps generation fast; the
/// *dynamic* trace stays long, which is what the budget meters.
fn app() -> AppSpec {
    let mut app: AppSpec = Suite::Mobile.apps().remove(0);
    app.params.num_functions = 16;
    app
}

fn one_cell_spec(stream_window: Option<usize>) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        vec![app()],
        vec![Scheme::new("critic", DesignPoint::critic())],
        LONG_TRACE,
    );
    spec.workers = 1;
    spec.stream_window = stream_window;
    spec.sys = Some(Arc::new(SysInjector::new(vec![SysFaultSpec {
        fault: SysFault::AllocBudget {
            bytes: BUDGET_BYTES,
        },
        at: 0,
    }])));
    spec
}

/// The `critic` cell of [`app`] at `trace_len` on a fresh workbench
/// running `engine`: its metrics and the peak live heap it added.
fn workbench_cell(trace_len: usize, engine: SimEngine) -> (CellMetrics, usize) {
    peak_heap_of(|| {
        let mut bench = Workbench::try_new(&app(), trace_len).expect("workbench");
        bench.set_engine(engine);
        let base = bench.run(&DesignPoint::baseline());
        let run = bench.run(&DesignPoint::critic());
        CellMetrics {
            speedup: run.sim.speedup_over(&base.sim),
            cpu_energy_saving: run.energy.cpu_saving(&base.energy),
            thumb_dyn_frac: run.thumb_dyn_frac,
            dyn_insns: run.dyn_insns,
        }
    })
}

/// A workbench streams every data-oriented run and profile from its
/// trace-free recording, so a `try_new` cell's measured heap (store,
/// recording, profile, scratch and both runs) is window-sized: it fits one
/// fixed budget at [`LONG_TRACE`] and at four times that.
#[test]
fn workbench_long_trace_cell_fits_a_window_sized_budget() {
    let _serial = serial();
    for trace_len in [LONG_TRACE, 4 * LONG_TRACE] {
        let (_, peak) = workbench_cell(trace_len, SimEngine::DataOriented);
        assert!(
            (peak as u64) < CELL_BUDGET_BYTES,
            "a {trace_len}-instruction workbench cell held {peak} B, over the \
             {CELL_BUDGET_BYTES} B budget"
        );
    }
}

/// The streamed path charges O(window) bytes and sails under the same
/// budget — producing a real result, not a degraded one — at an explicit
/// window and at the default one.
#[test]
fn streamed_long_trace_fits_the_same_alloc_budget() {
    let _serial = serial();
    for window in [Some(WINDOW), None] {
        let summary = run_campaign(&one_cell_spec(window)).expect("campaign runs");
        let record = &summary.records[0];
        assert_eq!(record.status, CellStatus::Ok, "{}", summary.render());
        assert_eq!(record.attempts, 1, "no retry/degradation was needed");
        let metrics = record.metrics.as_ref().expect("ok cell has metrics");
        assert!(metrics.dyn_insns >= LONG_TRACE / 2, "{metrics:?}");
    }
}

/// The streamed campaign cell, at an explicit window and at the default
/// one, agrees with the reference engine's cell when the budget is not in
/// the way: same speedup, energy, and instruction counts, bit for bit.
#[test]
fn streamed_campaign_cell_is_bit_identical_to_materialized() {
    let _serial = serial();
    let (materialized, _) = workbench_cell(LONG_TRACE, SimEngine::Reference);
    for window in [Some(WINDOW), None] {
        let mut streamed = one_cell_spec(window);
        streamed.sys = None;
        let summary = run_campaign(&streamed).expect("streamed campaign");
        assert!(summary.all_ok(), "{}", summary.render());
        assert_eq!(
            summary.records[0].metrics.as_ref(),
            Some(&materialized),
            "streaming at {window:?} changed a campaign cell's results"
        );
    }
}

/// The measured peak of a streamed long-trace simulation sits under a hard
/// window-derived byte ceiling, far below what materializing the same
/// trace costs — the direct (non-charge-model) half of the regression
/// tripwire. Three windows share one trace, and the largest window also
/// runs a trace four times longer under the same ceiling.
#[test]
fn streamed_peak_bytes_are_window_bounded_not_trace_bounded() {
    let _serial = serial();
    let app = app();
    let program = app.generate_program();
    let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
    let mut scratch = StreamScratch::new();
    for (trace_len, window) in [
        (LONG_TRACE, 256),
        (LONG_TRACE, 1_024),
        (LONG_TRACE, WINDOW),
        (4 * LONG_TRACE, WINDOW),
    ] {
        let path = ExecutionPath::generate(&program, app.path_seed(), trace_len);
        let mut stream = TraceStream::new(&program, &path, StreamConfig::with_window(window));
        let (result, ledger, stats) = sim.run_streamed(&mut stream, &mut scratch);
        ledger.check(result.cycles).expect("ledger partitions");

        // A fixed O(window) ceiling: 2 KiB per (window + look-ahead) slot,
        // independent of the trace length.
        let ceiling = ((window + DEFAULT_LOOKAHEAD) * 2048) as u64;
        let peak = stats.peak_resident_bytes as u64;
        assert!(
            peak <= ceiling,
            "window {window}, {trace_len} insns: streamed peak {peak} B exceeds \
             the O(window) ceiling {ceiling} B"
        );
        // Materializing holds ~164 B per dynamic instruction (entries plus
        // decoded columns); the streamed peak must be far below that.
        let materialized_estimate = (trace_len as u64) * 164;
        assert!(
            peak * 4 < materialized_estimate,
            "window {window}, {trace_len} insns: streamed peak {peak} B is not \
             clearly below the materialized footprint {materialized_estimate} B"
        );
    }
}

/// The live heap a fresh scratch still holds after one
/// `run_with_ledger` over [`app`]'s `trace_len`-instruction trace.
fn heap_kept_by_scratch(trace_len: usize) -> usize {
    let app = app();
    let program = app.generate_program();
    let path = ExecutionPath::generate(&program, app.path_seed(), trace_len);
    let trace = Trace::expand(&program, &path);
    let fanout = trace.compute_fanout();
    let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
    let before = LIVE.load(Ordering::Relaxed);
    let mut scratch = SimScratch::new();
    let (result, ledger) = sim.run_with_ledger(&trace, &fanout, &mut scratch);
    let kept = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    ledger.check(result.cycles).expect("ledger partitions");
    drop(scratch);
    kept
}

/// A materialized run decodes its trace slice by slice into the scratch's
/// ring, so the scratch keeps the same heap after a run four times longer:
/// no trace-length decode (44 B per instruction) stays behind.
#[test]
fn scratch_heap_after_a_materialized_run_is_flat_in_trace_length() {
    let _serial = serial();
    const SLACK: usize = 1 << 20;
    let short = heap_kept_by_scratch(LONG_TRACE);
    let long = heap_kept_by_scratch(4 * LONG_TRACE);
    assert!(
        long.abs_diff(short) < SLACK,
        "the scratch kept {short} B after {LONG_TRACE} instructions but {long} B \
         after {}",
        4 * LONG_TRACE
    );
}

/// One store-backed one-app campaign at `trace_len` with the default
/// spec, without the budget fault: its store counters and the peak live
/// heap it added.
fn measured_campaign(trace_len: usize) -> (StoreStats, usize) {
    let mut spec = one_cell_spec(None);
    spec.sys = None;
    spec.trace_len = trace_len;
    let ((summary, stats), peak) = peak_heap_of(|| {
        let store = Arc::new(ArtifactStore::new());
        let summary = run_campaign_with_store(&spec, &store).expect("campaign runs");
        let stats = store.stats();
        (summary, stats)
    });
    assert!(summary.all_ok(), "{}", summary.render());
    (stats, peak)
}

/// The measured tripwire: a default campaign streams, holding the app's
/// trace-free recording, never its world, so quadrupling the trace leaves
/// its peak live heap within a small constant, while a materialized
/// (reference-engine) cell's peak grows with the trace.
#[test]
fn streamed_campaign_peak_heap_is_flat_in_trace_length() {
    let _serial = serial();
    const SHORT: usize = 120_000;
    const LONG: usize = 480_000;
    const SLACK: usize = 2 << 20;

    let (short_stats, streamed_short) = measured_campaign(SHORT);
    let (long_stats, streamed_long) = measured_campaign(LONG);
    for stats in [short_stats, long_stats] {
        assert!(
            stats.worlds_built == 0 && stats.cones_built == 0,
            "a streamed campaign materialized a world: {stats:?}"
        );
        assert_eq!(stats.recordings_built, 1, "{stats:?}");
    }
    assert!(
        streamed_long <= streamed_short + SLACK,
        "streamed peak heap grew with the trace: {streamed_short} B at {SHORT} \
         vs {streamed_long} B at {LONG}"
    );

    let (_, materialized_short) = workbench_cell(SHORT, SimEngine::Reference);
    let (_, materialized_long) = workbench_cell(LONG, SimEngine::Reference);
    assert!(
        materialized_long >= 3 * materialized_short,
        "materialized peak heap should scale with the trace: \
         {materialized_short} B at {SHORT} vs {materialized_long} B at {LONG}"
    );
    assert!(
        streamed_long * 4 < materialized_long,
        "streamed peak {streamed_long} B is not clearly below the \
         materialized {materialized_long} B"
    );
}

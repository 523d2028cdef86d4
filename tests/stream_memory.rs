//! Memory-regression battery for the streaming trace pipeline: the same
//! long-trace allocation budget that kills a materialized campaign cell
//! admits a streamed one, the streaming simulator's *measured* peak is
//! bounded by the window, not the trace, and a streamed campaign's measured
//! peak live heap stays flat in the trace length.
//!
//! The budget half rides the existing [`SysFault::AllocBudget`] meter:
//! `run_cell_body` charges each attempt's dominant allocations against the
//! injected budget (O(trace) bytes on the materialized path, O(window) on
//! the streamed one), so a budget between the two footprints is a
//! tripwire on the charge model. The charges are a model, though: they
//! never saw the store-resident world a streamed campaign used to hold.
//! The measured half counts every heap byte through this binary's global
//! allocator, so nothing resident can hide from it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use critics::core::campaign::{
    run_campaign, run_campaign_with_store, CampaignSpec, CellStatus, Scheme,
};
use critics::core::design::DesignPoint;
use critics::core::error::RunError;
use critics::core::store::{ArtifactStore, StoreStats};
use critics::mem::MemConfig;
use critics::pipeline::{CpuConfig, Simulator, StreamScratch};
use critics::workloads::suite::Suite;
use critics::workloads::{
    AppSpec, ExecutionPath, StreamConfig, SysFault, SysFaultSpec, SysInjector, TraceStream,
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
/// the charges are 64 B/insn for expansion plus 2 × 16 B/insn for the two
/// simulations — ~11.5 MB here — while a 4 Ki window charges ~0.5 MB.
const LONG_TRACE: usize = 120_000;

/// Between the streamed footprint (~0.5 MB) and the materialized one
/// (~11.5 MB), with an order of magnitude of slack on both sides.
const BUDGET_BYTES: u64 = 2_000_000;

const WINDOW: usize = 4_096;

fn one_cell_spec(stream_window: Option<usize>) -> CampaignSpec {
    let mut app: AppSpec = Suite::Mobile.apps().remove(0);
    // A small static program keeps world generation fast; the *dynamic*
    // trace stays long, which is what the budget meters.
    app.params.num_functions = 16;
    let mut spec = CampaignSpec::new(
        vec![app],
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

/// The materialized path charges O(trace) bytes and blows the budget.
#[test]
fn materialized_long_trace_blows_the_alloc_budget() {
    let _serial = serial();
    let summary = run_campaign(&one_cell_spec(None)).expect("campaign runs");
    let record = &summary.records[0];
    assert_eq!(record.status, CellStatus::Failed, "{}", summary.render());
    match &record.error {
        Some(RunError::Sys(SysFault::AllocBudget { bytes })) => {
            assert_eq!(*bytes, BUDGET_BYTES)
        }
        other => panic!("expected an AllocBudget failure, got {other:?}"),
    }
}

/// The streamed path charges O(window) bytes and sails under the same
/// budget — producing a real result, not a degraded one.
#[test]
fn streamed_long_trace_fits_the_same_alloc_budget() {
    let _serial = serial();
    let summary = run_campaign(&one_cell_spec(Some(WINDOW))).expect("campaign runs");
    let record = &summary.records[0];
    assert_eq!(record.status, CellStatus::Ok, "{}", summary.render());
    assert_eq!(record.attempts, 1, "no retry/degradation was needed");
    let metrics = record.metrics.as_ref().expect("ok cell has metrics");
    assert!(metrics.dyn_insns >= LONG_TRACE / 2, "{metrics:?}");
}

/// The streamed and materialized campaign cells agree on the metrics when
/// the budget is not in the way: same speedup, energy, and instruction
/// counts, bit for bit.
#[test]
fn streamed_campaign_cell_is_bit_identical_to_materialized() {
    let _serial = serial();
    let mut materialized = one_cell_spec(None);
    materialized.sys = None;
    let mut streamed = one_cell_spec(Some(WINDOW));
    streamed.sys = None;
    let a = run_campaign(&materialized).expect("materialized campaign");
    let b = run_campaign(&streamed).expect("streamed campaign");
    assert!(a.all_ok() && b.all_ok());
    assert_eq!(
        a.records[0].metrics, b.records[0].metrics,
        "streaming changed a campaign cell's results"
    );
}

/// The measured peak of a streamed long-trace simulation sits under a hard
/// window-derived byte ceiling, far below what materializing the same
/// trace costs — the direct (non-charge-model) half of the regression
/// tripwire. Three windows share one trace, and the largest window also
/// runs a trace four times longer under the same ceiling.
#[test]
fn streamed_peak_bytes_are_window_bounded_not_trace_bounded() {
    let _serial = serial();
    let mut app: AppSpec = Suite::Mobile.apps().remove(0);
    app.params.num_functions = 16;
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

/// One store-backed one-app campaign at `trace_len`, without the budget
/// fault: its store counters and the peak live heap it added.
fn measured_campaign(stream_window: Option<usize>, trace_len: usize) -> (StoreStats, usize) {
    let mut spec = one_cell_spec(stream_window);
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

/// The measured tripwire: a streamed campaign holds the app's trace-free
/// recording, never its world, so quadrupling the trace leaves its peak
/// live heap within a small constant, while the materialized campaign's
/// peak grows with the trace.
#[test]
fn streamed_campaign_peak_heap_is_flat_in_trace_length() {
    let _serial = serial();
    const SHORT: usize = 120_000;
    const LONG: usize = 480_000;
    const SLACK: usize = 2 << 20;

    let (short_stats, streamed_short) = measured_campaign(Some(WINDOW), SHORT);
    let (long_stats, streamed_long) = measured_campaign(Some(WINDOW), LONG);
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

    let (_, materialized_short) = measured_campaign(None, SHORT);
    let (_, materialized_long) = measured_campaign(None, LONG);
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

//! Property tests for the observability layer: the cycle-accounting
//! ledger's single-attribution invariant (bucket sum == total cycles,
//! exactly) across randomized cores and workloads, bit-for-bit
//! reproducibility of same-seed runs, and the zero-perturbation guarantee
//! of campaign telemetry.

use critics::core::campaign::{self, CampaignSpec, Scheme};
use critics::core::design::DesignPoint;
use critics::core::runner::Workbench;
use critics::mem::MemConfig;
use critics::obs::Telemetry;
use critics::pipeline::{CpuConfig, SimScratch, Simulator};
use critics::workloads::suite::Suite;
use critics::workloads::AppSpec;
use proptest::prelude::*;

fn all_apps() -> Vec<AppSpec> {
    Suite::ALL.iter().flat_map(|s| s.apps()).collect()
}

/// A randomized core: Table I's Google-Tablet with the structure sizes and
/// front-end penalties perturbed across the plausible design space.
fn arb_cpu() -> impl Strategy<Value = CpuConfig> {
    (
        1u32..=4,      // width
        2usize..=24,   // fetch buffer
        16usize..=192, // ROB entries
        4usize..=48,   // IQ entries
        0u32..=3,      // taken-branch bubble
        1u32..=10,     // redirect penalty
        0u32..=2,      // CDP bubble
        any::<bool>(), // perfect branching
        any::<bool>(), // critical-first issue
    )
        .prop_map(
            |(width, fetch_buffer, rob, iq, taken, redirect, cdp, perfect, prio)| {
                let mut cpu = CpuConfig::google_tablet();
                cpu.width = width;
                cpu.fetch_width = width;
                cpu.fetch_buffer = fetch_buffer;
                cpu.rob_entries = rob;
                cpu.iq_entries = iq;
                cpu.taken_bubble = taken;
                cpu.redirect_penalty = redirect;
                cpu.cdp_bubble = cdp;
                cpu.perfect_branch = perfect;
                cpu.prioritize_critical = prio;
                cpu
            },
        )
}

proptest! {
    // Each case builds a world and simulates it; keep the case count low
    // enough for debug-mode CI while still sweeping the design space.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant: for any core configuration and any Table II
    /// workload, every simulated cycle lands in exactly one ledger bucket.
    #[test]
    fn ledger_partitions_cycles_for_any_core(
        cpu in arb_cpu(),
        app_idx in 0usize..26,
        trace_len in 2_000usize..8_000,
    ) {
        let app = all_apps()[app_idx].clone();
        let bench = Workbench::new(&app, trace_len);
        let sim = Simulator::new(cpu, MemConfig::google_tablet());
        let mut scratch = SimScratch::new();
        let (result, ledger) =
            sim.run_with_ledger(bench.baseline_trace(), bench.baseline_fanout(), &mut scratch);
        prop_assert!(result.cycles > 0);
        if let Err(msg) = ledger.check(result.cycles) {
            prop_assert!(false, "{}: {msg}", app.name);
        }
        // The legacy stall counters are a projection of the ledger, not a
        // second bookkeeping that could drift or double-count.
        prop_assert_eq!(result.fetch_stalls.icache, ledger.fetch_stall_icache);
        prop_assert_eq!(result.fetch_stalls.branch, ledger.fetch_stall_branch);
        prop_assert_eq!(
            result.fetch_stalls.backpressure,
            ledger.fetch_stall_backpressure
        );
    }

    /// Simulation is a pure function of (config, trace): running the same
    /// app through two independently-built worlds gives bit-identical
    /// results and ledgers, and the ledger-returning entry point agrees
    /// exactly with the plain one.
    #[test]
    fn same_seed_runs_are_bit_for_bit_identical(
        app_idx in 0usize..26,
        trace_len in 2_000usize..6_000,
    ) {
        let app = all_apps()[app_idx].clone();
        let point = DesignPoint::baseline();
        let first = Workbench::new(&app, trace_len);
        let second = Workbench::new(&app, trace_len);
        let sim = Simulator::new(point.cpu_config(), point.mem_config());
        let mut scratch = SimScratch::new();
        let (r1, l1) =
            sim.run_with_ledger(first.baseline_trace(), first.baseline_fanout(), &mut scratch);
        let (r2, l2) =
            sim.run_with_ledger(second.baseline_trace(), second.baseline_fanout(), &mut scratch);
        let plain = sim
            .run_with_ledger(first.baseline_trace(), first.baseline_fanout(), &mut scratch)
            .0;
        prop_assert_eq!(&r1, &r2);
        prop_assert_eq!(l1, l2);
        prop_assert_eq!(&r1, &plain);
    }
}

/// Telemetry is observation, not simulation: the same campaign with spans
/// on and off produces identical metrics for every cell.
#[test]
fn telemetry_does_not_perturb_campaign_metrics() {
    let apps: Vec<AppSpec> = Suite::Mobile.apps().into_iter().take(3).collect();
    let schemes = vec![
        Scheme::new("critic", DesignPoint::critic()),
        Scheme::new("hoist", DesignPoint::hoist()),
    ];

    let mut silent = CampaignSpec::new(apps.clone(), schemes.clone(), 4_000);
    silent.telemetry = Telemetry::off();
    let mut traced = CampaignSpec::new(apps, schemes, 4_000);
    traced.telemetry = Telemetry::enabled();

    let silent = campaign::run_campaign(&silent).expect("silent campaign");
    let traced = campaign::run_campaign(&traced).expect("traced campaign");
    assert!(silent.telemetry.is_none());
    let aggregate = traced.telemetry.expect("traced campaign aggregates spans");
    assert!(aggregate.sim.count > 0);

    assert_eq!(silent.records.len(), traced.records.len());
    for (s, t) in silent.records.iter().zip(&traced.records) {
        assert_eq!(s.app, t.app);
        assert_eq!(s.scheme, t.scheme);
        assert_eq!(s.status, t.status);
        assert_eq!(s.metrics, t.metrics, "{}/{}", s.app, s.scheme);
        assert!(s.spans.is_none(), "silent cells journal no spans");
        assert!(t.spans.is_some(), "traced cells journal spans");
    }
}

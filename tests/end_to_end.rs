//! End-to-end integration: workload generation → profiling → compilation →
//! simulation → energy, across every crate through the facade.

use critics::compiler::{apply_critic_pass, CriticPassOptions};
use critics::core::design::DesignPoint;
use critics::core::runner::Workbench;
use critics::energy::EnergyModel;
use critics::mem::MemConfig;
use critics::pipeline::{CpuConfig, Simulator};
use critics::profiler::{Profiler, ProfilerConfig};
use critics::workloads::suite::Suite;
use critics::workloads::{ExecutionPath, Trace};

fn small_app(suite: Suite, index: usize) -> critics::workloads::AppSpec {
    let mut app = suite.apps()[index].clone();
    app.params.num_functions = app.params.num_functions.min(60);
    app
}

#[test]
fn full_stack_pipeline_runs_for_every_suite() {
    for suite in Suite::ALL {
        let app = small_app(suite, 0);
        let program = app.generate_program();
        let path = ExecutionPath::generate(&program, app.path_seed(), 20_000);
        let trace = Trace::expand(&program, &path);
        let fanout = trace.compute_fanout();
        let result = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet())
            .run(&trace, &fanout);
        assert_eq!(result.committed + result.cdp_switches, trace.len() as u64);
        let energy = EnergyModel::default().evaluate(&result);
        assert!(energy.system_nj() > 0.0);
    }
}

#[test]
fn profile_compile_simulate_round_trip() {
    let app = small_app(Suite::Mobile, 0);
    let program = app.generate_program();
    let path = ExecutionPath::generate(&program, app.path_seed(), 30_000);
    let trace = Trace::expand(&program, &path);
    let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &path, &trace);
    assert!(!profile.chains.is_empty());

    let mut optimized = program.clone();
    let report = apply_critic_pass(&mut optimized, &profile, CriticPassOptions::default());
    assert!(report.chains_applied > 0);

    // The rewritten binary replays the identical input.
    let rewritten = Trace::expand(&optimized, &path);
    assert!(rewritten.len() >= trace.len(), "CDPs only add instructions");
    assert!(
        rewritten.fetch_bytes() < trace.fetch_bytes(),
        "and yet fewer bytes"
    );

    let fanout = rewritten.compute_fanout();
    let result = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet())
        .run(&rewritten, &fanout);
    assert!(result.thumb_fetched > 0);
    assert_eq!(
        result.cdp_switches as usize,
        rewritten.iter().filter(|e| e.is_cdp()).count()
    );
}

#[test]
fn workbench_matches_manual_composition() {
    let app = small_app(Suite::Mobile, 1);
    let mut bench = Workbench::new(&app, 20_000);
    let manual = {
        let trace = bench.baseline_trace().clone();
        let fanout = trace.compute_fanout();
        Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet()).run(&trace, &fanout)
    };
    let base = bench.run(&DesignPoint::baseline());
    assert_eq!(
        base.sim, manual,
        "the workbench adds nothing to a baseline run"
    );
}

#[test]
fn all_design_points_run_without_panicking() {
    let app = small_app(Suite::Mobile, 2);
    let mut bench = Workbench::new(&app, 15_000);
    let points = [
        DesignPoint::baseline(),
        DesignPoint::critical_load_prefetch(),
        DesignPoint::critical_prioritization(),
        DesignPoint::hoist(),
        DesignPoint::critic(),
        DesignPoint::critic_branch_switch(),
        DesignPoint::critic_ideal(),
        DesignPoint::double_fd(),
        DesignPoint::quad_icache(),
        DesignPoint::efetch(),
        DesignPoint::perfect_branch(),
        DesignPoint::all_hw(),
        DesignPoint::all_hw().with_critic(),
        DesignPoint::opp16(),
        DesignPoint::compress(),
        DesignPoint::opp16_plus_critic(),
        DesignPoint::critic_exact_len(4),
        DesignPoint::critic_profile_fraction(0.33),
    ];
    for point in points {
        let run = bench.run(&point);
        assert!(run.sim.cycles > 0, "{} produced no cycles", point.label());
        assert!(run.sim.ipc() > 0.05, "{} IPC collapsed", point.label());
    }
}

#[test]
fn serde_round_trips_through_the_stack() {
    let app = small_app(Suite::Mobile, 0);
    let program = app.generate_program();
    let json = serde_json::to_string(&program).expect("program serializes");
    let back: critics::workloads::Program = serde_json::from_str(&json).expect("deserializes");
    // f64 JSON round trips can differ in the last ulp (branch
    // probabilities), so compare the integer-exact structure.
    let _ = json;
    assert_eq!(program.functions, back.functions);
    assert_eq!(program.load_hints, back.load_hints);
    assert_eq!(program.blocks.len(), back.blocks.len());
    for (a, b) in program.blocks.iter().zip(&back.blocks) {
        assert_eq!(
            a.insns, b.insns,
            "instructions of {} must round-trip exactly",
            a.id
        );
    }

    let path = ExecutionPath::generate(&program, 3, 5_000);
    let trace = Trace::expand(&program, &path);
    let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &path, &trace);
    let json = serde_json::to_string(&profile).expect("profile serializes");
    let back: critics::profiler::Profile = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(profile.chains.len(), back.chains.len());
    for (a, b) in profile.chains.iter().zip(&back.chains) {
        assert_eq!(
            (a.block, &a.uids, a.dynamic_count),
            (b.block, &b.uids, b.dynamic_count)
        );
    }
}

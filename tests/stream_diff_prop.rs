//! Differential property battery for the streaming trace pipeline.
//!
//! The chunked [`TraceStream`] producer, the sliding-window profiler fold,
//! and the streaming simulator front-end must be *bit-identical* to the
//! materialized path — same expanded entries, same direct and cone fanout,
//! same [`Profile`], same [`SimResult`] and [`CycleLedger`] — for any app,
//! core, memory system, and window size. These properties drive randomized
//! points through both paths and diff every output, including the ledger
//! partition invariant (`sum == cycles`). The streamed and materialized
//! simulations share one cycle loop, so both are also diffed against the
//! frozen scalar oracle ([`Simulator::run_reference`]), which shares no
//! code with that loop. Degenerate geometries are pinned explicitly:
//! window = 1, window ≥ trace length, and a look-ahead sitting exactly at
//! the cone-window boundary.

use critics::compiler::apply_opp16;
use critics::compiler::opp16::OPP16_MIN_RUN;
use critics::mem::MemConfig;
use critics::pipeline::{CpuConfig, DecodedTrace, SimScratch, Simulator};
use critics::profiler::{Profiler, ProfilerConfig};
use critics::workloads::suite::Suite;
use critics::workloads::{
    AppSpec, ExecutionPath, Program, StreamConfig, Trace, TraceStream, DEFAULT_LOOKAHEAD,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A randomized core, mirroring the engine differential suite's ranges.
fn random_cpu(rng: &mut TestRng) -> CpuConfig {
    let mut cpu = CpuConfig::google_tablet();
    cpu.width = 2 + (rng.next_u64() % 3) as u32;
    cpu.fetch_width = (1 + (rng.next_u64() % 4) as u32).max(cpu.width / 2);
    cpu.rob_entries = 16 + (rng.next_u64() % 81) as usize;
    cpu.iq_entries = 8 + (rng.next_u64() % 41) as usize;
    cpu.fetch_buffer = (4 + (rng.next_u64() % 13) as usize).max(cpu.fetch_width as usize);
    cpu.fetch_bytes_per_cycle = [8, 16, 32][(rng.next_u64() % 3) as usize];
    cpu.taken_bubble = (rng.next_u64() % 3) as u32;
    cpu.redirect_penalty = 2 + (rng.next_u64() % 9) as u32;
    cpu.cdp_bubble = (rng.next_u64() % 3) as u32;
    cpu.perfect_branch = rng.next_u64().is_multiple_of(4);
    cpu.prioritize_critical = rng.next_u64().is_multiple_of(3);
    cpu.crit_threshold = 2 + (rng.next_u64() % 11) as u32;
    cpu
}

/// A randomized memory system over the Fig. 11 knobs.
fn random_mem(rng: &mut TestRng) -> MemConfig {
    let mut mem = MemConfig::google_tablet();
    if rng.next_u64().is_multiple_of(3) {
        mem = mem.with_4x_icache();
    }
    if rng.next_u64().is_multiple_of(3) {
        mem = mem.with_clpt();
    }
    if rng.next_u64().is_multiple_of(3) {
        mem = mem.with_efetch();
    }
    mem
}

/// A randomized app world: real generated program, random function count,
/// path seed, and trace length.
fn random_world(rng: &mut TestRng) -> (Program, ExecutionPath) {
    let apps: Vec<AppSpec> = Suite::Mobile.apps();
    let mut app = apps[(rng.next_u64() as usize) % apps.len()].clone();
    app.params.num_functions = 8 + (rng.next_u64() % 25) as u32;
    let program = app.generate_program();
    let seed = 1 + rng.next_u64() % 1_000;
    let len = 800 + (rng.next_u64() % 2_200) as usize;
    let path = ExecutionPath::generate(&program, seed, len);
    (program, path)
}

/// A randomized stream geometry, biased toward the degenerate corners the
/// issue pins: window 1, window ≥ trace length, look-ahead exactly at the
/// cone-window boundary, plus arbitrary mid-range values.
fn random_stream_config(rng: &mut TestRng, trace_len: usize, cone: Option<usize>) -> StreamConfig {
    let window = match rng.next_u64() % 5 {
        0 => 1,
        1 => trace_len + 1 + (rng.next_u64() % 64) as usize,
        2 => trace_len.max(1),
        _ => 1 + (rng.next_u64() as usize) % trace_len.max(2),
    };
    let lookahead = match rng.next_u64() % 4 {
        // Exactly at the cone horizon: the clamp keeps it sound, and any
        // off-by-one in the boundary shows up as a fanout diff.
        0 => cone.unwrap_or(DEFAULT_LOOKAHEAD),
        1 => 1,
        2 => DEFAULT_LOOKAHEAD,
        _ => 1 + (rng.next_u64() as usize) % 256,
    };
    StreamConfig {
        window,
        lookahead,
        cone_window: cone,
    }
}

/// Collects the whole stream back into materialized vectors.
fn drain(
    program: &Program,
    path: &ExecutionPath,
    cfg: StreamConfig,
) -> (Vec<critics::workloads::DynInsn>, Vec<u32>, Vec<u32>, usize) {
    let mut stream = TraceStream::new(program, path, cfg);
    let mut entries = Vec::new();
    let mut fanout = Vec::new();
    let mut cone = Vec::new();
    let mut windows = 0usize;
    while let Some(w) = stream.next_window() {
        assert_eq!(w.base, entries.len(), "windows must tile the stream");
        assert!(w.entries.len() <= cfg.window.max(1));
        entries.extend_from_slice(w.entries);
        fanout.extend_from_slice(w.fanout);
        cone.extend_from_slice(w.cone);
        windows += 1;
    }
    assert_eq!(stream.total_len(), entries.len());
    (entries, fanout, cone, windows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streamed expansion reproduces the materialized trace exactly —
    /// entries, direct fanout, and cone fanout — for any window geometry.
    #[test]
    fn streamed_expansion_matches_materialized(seed: u64) {
        let mut rng = TestRng::new(seed);
        let (program, path) = random_world(&mut rng);
        let trace = Trace::expand(&program, &path);
        let fanout = trace.compute_fanout();
        let cone_window = [1, 2, 64, 127, 128][(rng.next_u64() % 5) as usize];
        let cone = trace.compute_cone_fanout(cone_window);
        let cfg = random_stream_config(&mut rng, trace.len(), Some(cone_window));

        let (s_entries, s_fanout, s_cone, windows) = drain(&program, &path, cfg);
        prop_assert_eq!(&s_entries, &trace.entries, "entries diverge");
        prop_assert_eq!(&s_fanout, &fanout, "direct fanout diverges");
        prop_assert_eq!(&s_cone, &cone, "cone fanout diverges");
        prop_assert_eq!(windows, trace.len().div_ceil(cfg.window.max(1)));
    }

    /// The sliding-window profiler fold produces the same [`Profile`] as
    /// the materialized analysis, for random profile fractions too.
    #[test]
    fn streamed_profile_matches_materialized(seed: u64) {
        let mut rng = TestRng::new(seed);
        let (program, path) = random_world(&mut rng);
        let trace = Trace::expand(&program, &path);
        let config = ProfilerConfig {
            profile_fraction: [0.1, 0.25, 0.5, 1.0][(rng.next_u64() % 4) as usize],
            ..ProfilerConfig::default()
        };
        let profiler = Profiler::new(config);
        let materialized = profiler
            .try_build_profile(&program, &path, &trace)
            .expect("materialized profile");

        // The profiler's contract: ROB-horizon cone, any window/look-ahead.
        let mut cfg = random_stream_config(&mut rng, trace.len(), Some(128));
        cfg.lookahead = [1, 127, 128, DEFAULT_LOOKAHEAD][(rng.next_u64() % 4) as usize];
        let mut stream = TraceStream::new(&program, &path, cfg);
        let streamed = profiler
            .try_build_profile_streamed(&program, &mut stream)
            .expect("streamed profile");
        prop_assert_eq!(&streamed, &materialized, "profiles diverge");
    }

    /// The streaming simulator front-end is bit-identical to the
    /// materialized data-oriented engine and to the scalar oracle — result
    /// and ledger — on random (core, memory, world, window) points, and
    /// the ledger partitions the run.
    #[test]
    fn streamed_simulation_matches_materialized(seed: u64) {
        let mut rng = TestRng::new(seed);
        let cpu = random_cpu(&mut rng);
        let mem = random_mem(&mut rng);
        let (program, path) = random_world(&mut rng);
        let trace = Trace::expand(&program, &path);
        let fanout = trace.compute_fanout();
        let sim = Simulator::new(cpu, mem);

        let (oracle, oracle_ledger) = sim.run_reference(&trace, &fanout);
        let mut scratch = SimScratch::new();
        let (mat, mat_ledger) = sim.run_with_ledger(&trace, &fanout, &mut scratch);
        prop_assert!(mat_ledger.check(mat.cycles).is_ok());
        prop_assert_eq!(&mat, &oracle, "materialized sim diverges from the oracle");
        prop_assert_eq!(&mat_ledger, &oracle_ledger, "materialized ledger diverges from the oracle");

        for _ in 0..2 {
            let cfg = random_stream_config(&mut rng, trace.len(), None);
            let mut stream = TraceStream::new(&program, &path, cfg);
            let (streamed, streamed_ledger, stats) =
                sim.run_streamed(&mut stream, &mut scratch);
            prop_assert!(streamed_ledger.check(streamed.cycles).is_ok());
            prop_assert_eq!(&streamed, &mat, "streamed sim diverges (window {})", cfg.window);
            prop_assert_eq!(&streamed_ledger, &mat_ledger, "streamed ledger diverges");
            prop_assert_eq!(&streamed, &oracle, "streamed sim diverges from the oracle");
            prop_assert_eq!(&streamed_ledger, &oracle_ledger, "streamed ledger diverges from the oracle");
            prop_assert!(stats.peak_resident_bytes > 0);
        }
    }
}

/// The degenerate geometries, pinned deterministically on one world so a
/// corner regression cannot hide behind proptest's random draw: window 1
/// (every entry is its own window), window ≥ trace length (one window, the
/// materialized case re-derived), and look-ahead exactly at the cone
/// boundary on both sides.
#[test]
fn degenerate_windows_are_exact() {
    let app = &Suite::Mobile.apps()[0];
    let program = app.generate_program();
    let path = ExecutionPath::generate(&program, 7, 3_000);
    let trace = Trace::expand(&program, &path);
    let fanout = trace.compute_fanout();
    let cone = trace.compute_cone_fanout(128);
    let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
    let (oracle, oracle_ledger) = sim.run_reference(&trace, &fanout);
    let mut scratch = SimScratch::new();
    let (mat, mat_ledger) = sim.run_with_ledger(&trace, &fanout, &mut scratch);
    assert_eq!(mat, oracle, "materialized sim diverges from the oracle");
    assert_eq!(
        mat_ledger, oracle_ledger,
        "materialized ledger diverges from the oracle"
    );

    for (window, lookahead) in [
        (1, 1),
        (1, 128),
        (trace.len(), 127),
        (trace.len() + 4096, 128),
        (trace.len() / 3, 129),
    ] {
        let cfg = StreamConfig {
            window,
            lookahead,
            cone_window: Some(128),
        };
        let (entries, s_fanout, s_cone, _) = drain(&program, &path, cfg);
        assert_eq!(entries, trace.entries, "w={window} la={lookahead}");
        assert_eq!(s_fanout, fanout, "w={window} la={lookahead}");
        assert_eq!(s_cone, cone, "w={window} la={lookahead}");

        let mut stream = TraceStream::new(&program, &path, cfg);
        let (streamed, streamed_ledger, _) = sim.run_streamed(&mut stream, &mut scratch);
        streamed_ledger.check(streamed.cycles).expect("partition");
        assert_eq!(streamed, mat, "w={window} la={lookahead}");
        assert_eq!(streamed_ledger, mat_ledger, "w={window} la={lookahead}");
        assert_eq!(streamed, oracle, "oracle, w={window} la={lookahead}");
        assert_eq!(
            streamed_ledger, oracle_ledger,
            "oracle, w={window} la={lookahead}"
        );
    }
}

/// The wake-up stress leg: tiny issue queues (down to one entry) behind an
/// eight-entry ROB, single unpipelined dividers, critical-first selection
/// and a three-cycle CDP bubble, over OPP16 variants, whose CDP-dense code
/// stalls dispatch often. Dispatch then runs into a full issue queue most
/// cycles, so any change in the cycle an entry leaves its producers' wake
/// lists shifts the schedule.
#[test]
fn wakeup_stress_under_tiny_queues_is_exact() {
    for app in Suite::Mobile.apps().iter().take(3) {
        let program = app.generate_program();
        let mut variant = program.clone();
        apply_opp16(&mut variant, OPP16_MIN_RUN);
        let path = ExecutionPath::generate(&program, app.path_seed(), 3_000);
        let trace = Trace::expand(&variant, &path);
        let fanout = trace.compute_fanout();
        let mut decoded = DecodedTrace::new();
        decoded.decode_into(&trace);
        for iq_entries in [1, 2, 8] {
            let mut cpu = CpuConfig::google_tablet();
            cpu.iq_entries = iq_entries;
            cpu.rob_entries = 8;
            cpu.fu.int_div = 1;
            cpu.fu.float_div = 1;
            cpu.prioritize_critical = true;
            cpu.cdp_bubble = 3;
            let sim = Simulator::new(cpu, MemConfig::google_tablet());
            let oracle = sim.run_reference(&trace, &fanout);
            assert!(oracle.0.cdp_switches > 0, "{}: no CDPs", app.name);
            let mut scratch = SimScratch::new();
            let mat = sim.run_decoded(&decoded, &fanout, &mut scratch);
            assert_eq!(mat, oracle, "{} iq={iq_entries}: decoded", app.name);
            let ledgered = sim.run_with_ledger(&trace, &fanout, &mut scratch);
            assert_eq!(ledgered, oracle, "{} iq={iq_entries}: trace", app.name);
            for window in [1, 64] {
                let cfg = StreamConfig {
                    window,
                    lookahead: DEFAULT_LOOKAHEAD,
                    cone_window: None,
                };
                let mut stream = TraceStream::new(&variant, &path, cfg);
                let (result, ledger, _) = sim.run_streamed(&mut stream, &mut scratch);
                assert_eq!(
                    (result, ledger),
                    oracle,
                    "{} iq={iq_entries} window={window}: streamed",
                    app.name
                );
            }
        }
    }
}

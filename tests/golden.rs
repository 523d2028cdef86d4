//! Golden snapshot tests for the `figures` outputs: the Fig. 3
//! critical-instruction breakdown and the Fig. 13 headline speedup table,
//! rendered from fixed-seed runs and compared byte-for-byte against
//! committed fixtures.
//!
//! When a change legitimately moves the numbers, regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! and review the fixture diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use critics::core::experiments as exp;

const TRACE_LEN: usize = 10_000;
const APPS: usize = 2;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `rendered` against the committed fixture, printing the first
/// diverging line on mismatch; `UPDATE_GOLDEN=1` rewrites the fixture
/// instead.
fn assert_matches_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, rendered).expect("write golden fixture");
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden to create it",
            path.display()
        )
    });
    if rendered == expected {
        return;
    }
    for (lineno, (got, want)) in rendered.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "{name}:{}: first diverging line (got vs golden); \
             rerun with UPDATE_GOLDEN=1 if the change is intended",
            lineno + 1
        );
    }
    panic!(
        "{name}: line count changed ({} vs {} lines); \
         rerun with UPDATE_GOLDEN=1 if the change is intended",
        rendered.lines().count(),
        expected.lines().count()
    );
}

/// Fig. 3a/3b: where critical instructions spend their time, per suite.
#[test]
fn fig3_breakdown_matches_golden() {
    let rows = exp::fig3(&exp::FigureRun::new(TRACE_LEN), APPS);
    let mut out = String::new();
    writeln!(out, "fig3 trace_len={TRACE_LEN} apps_per_suite={APPS}").unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:10} fetch {:.4} decode {:.4} issue {:.4} execute {:.4} rob {:.4} | \
             stall_for_i {:.4} stall_for_rd {:.4} | latency {:.4}/{:.4}/{:.4}",
            r.suite,
            r.stage_shares[0],
            r.stage_shares[1],
            r.stage_shares[2],
            r.stage_shares[3],
            r.stage_shares[4],
            r.stall_for_i,
            r.stall_for_rd,
            r.latency_mix[0],
            r.latency_mix[1],
            r.latency_mix[2],
        )
        .unwrap();
    }
    assert_matches_golden("fig3.golden", &out);
}

/// Fig. 13: the headline speedup table — conversion schemes vs baseline.
#[test]
fn fig13_speedup_table_matches_golden() {
    let rows = exp::fig13(&exp::FigureRun::new(TRACE_LEN), APPS);
    let mut out = String::new();
    writeln!(out, "fig13 trace_len={TRACE_LEN} apps={APPS}").unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:14} speedup {:.4} converted_frac {:.4}",
            r.scheme, r.speedup, r.converted_frac
        )
        .unwrap();
    }
    assert_matches_golden("fig13.golden", &out);
}

/// Per-(app, scheme) [`SimResult`] and [`CycleLedger`] snapshot for the
/// data-oriented engine, with the scalar reference run in the loop as an
/// oracle: every row is asserted bit-identical across all four paths
/// (reference walk, data-oriented core, interleaved runs over one recycled
/// decode and scratch, and the chunked streaming front-end) *before* it is
/// rendered, so the fixture
/// can only ever record numbers all engines agree on — and any legitimate
/// change to the model shows up as an exact integer diff in review.
#[test]
fn sim_engine_snapshot_matches_golden() {
    use critics::core::{campaign::default_schemes, DesignPoint, Workbench};
    use critics::pipeline::{DecodedTrace, SimScratch, Simulator};
    use critics::workloads::{StreamConfig, Suite, Trace, TraceStream};

    let apps: Vec<_> = Suite::Mobile.apps().into_iter().take(APPS).collect();
    let mut out = String::new();
    writeln!(out, "engines trace_len={TRACE_LEN} apps={APPS}").unwrap();
    for app in &apps {
        let mut wb = Workbench::try_new(app, TRACE_LEN).expect("workbench");
        let base_trace = wb.baseline_trace().clone();
        let base_fanout = wb.baseline_fanout().to_vec();
        let mut scratch = SimScratch::new();
        let mut decoded = DecodedTrace::new();
        let mut decoded_fanout = Vec::new();
        // Baseline plus every default scheme, plus one hardware-only
        // point (2xFD) to pin the config-sensitive baseline replay.
        let mut points = vec![("baseline".to_string(), DesignPoint::baseline())];
        points.extend(default_schemes().into_iter().map(|s| (s.name, s.point)));
        points.push(("hw-2xfd".to_string(), DesignPoint::double_fd()));
        for (name, point) in points {
            let is_baseline = matches!(point.software, critics::core::Software::Baseline);
            let (program, trace, fanout) = if is_baseline {
                (
                    (*wb.program).clone(),
                    base_trace.clone(),
                    base_fanout.clone(),
                )
            } else {
                let (program, _pass) = wb.try_variant(&point.software).expect("variant");
                let trace = Trace::expand(&program, &wb.path);
                let fanout = trace.compute_fanout();
                (program, trace, fanout)
            };
            let sim = Simulator::new(point.cpu_config(), point.mem_config());
            let (res_ref, led_ref) = sim.run_reference(&trace, &fanout);
            let (res_dec, led_dec) = sim.run_with_ledger(&trace, &fanout, &mut scratch);
            led_ref
                .check(res_ref.cycles)
                .expect("ledger partitions the run");
            assert_eq!(
                res_dec, res_ref,
                "{}/{name}: data-oriented diverges",
                app.name
            );
            assert_eq!(
                led_dec, led_ref,
                "{}/{name}: data-oriented ledger diverges",
                app.name
            );
            // Two interleaved passes — base, this point, base, this point —
            // through one recycled decode, fanout buffer and scratch, the
            // way one workbench scratch serves every run.
            let runs: Vec<_> = [&base_trace, &trace, &base_trace, &trace]
                .into_iter()
                .map(|t| {
                    decoded.decode_into(t);
                    decoded.compute_fanout_into(&mut decoded_fanout);
                    sim.run_decoded(&decoded, &decoded_fanout, &mut scratch)
                })
                .collect();
            assert_eq!(
                runs[0],
                sim.run_reference(&base_trace, &base_fanout),
                "{}/{name}: recycled base diverges",
                app.name
            );
            let (res_run, led_run) = &runs[1];
            assert_eq!(*res_run, res_ref, "{}/{name}: recycled diverges", app.name);
            assert_eq!(
                *led_run, led_ref,
                "{}/{name}: recycled ledger diverges",
                app.name
            );
            assert_eq!(runs[2], runs[0], "{}/{name}: base run leaked", app.name);
            assert_eq!(runs[3], runs[1], "{}/{name}: run leaked", app.name);
            // Fourth engine: the bounded-memory streaming front-end,
            // re-expanding (program, path) in 512-instruction windows.
            let mut stream = TraceStream::new(&program, &wb.path, StreamConfig::with_window(512));
            let (res_str, led_str, _) = sim.run_streamed(&mut stream, &mut scratch);
            assert_eq!(res_str, res_ref, "{}/{name}: streamed diverges", app.name);
            assert_eq!(
                led_str, led_ref,
                "{}/{name}: streamed ledger diverges",
                app.name
            );
            writeln!(
                out,
                "{:12} {:14} cycles {} committed {} cdp {} thumb {} misp {} icm {} dcm {} | \
                 ledger i {} br {} bp {} dec {} iss {} exe {} mem {} com {} idle {}",
                app.name,
                name,
                res_run.cycles,
                res_run.committed,
                res_run.cdp_switches,
                res_run.thumb_fetched,
                res_run.bpu.mispredicts,
                res_run.mem.icache.misses,
                res_run.mem.dcache.misses,
                led_run.fetch_stall_icache,
                led_run.fetch_stall_branch,
                led_run.fetch_stall_backpressure,
                led_run.decode,
                led_run.issue,
                led_run.execute,
                led_run.mem,
                led_run.commit,
                led_run.squash_idle,
            )
            .unwrap();
        }
    }
    assert_matches_golden("engines.golden", &out);
}

/// Per-(app, scheme, window) snapshot of the streaming pipeline: each row
/// is rendered only after the streamed run was asserted bit-identical to
/// the materialized data-oriented run on both result and ledger, so the
/// fixture records window-invariance as reviewable fact — every window of
/// the same (app, scheme) must print the same numbers, and a windowing
/// bug shows up as an exact integer diff.
#[test]
fn stream_snapshot_matches_golden() {
    use critics::core::{campaign::default_schemes, DesignPoint, Workbench};
    use critics::pipeline::{SimScratch, Simulator};
    use critics::workloads::{StreamConfig, Suite, Trace, TraceStream};

    const WINDOWS: [usize; 3] = [64, 4_096, 2 * TRACE_LEN];

    let apps: Vec<_> = Suite::Mobile.apps().into_iter().take(APPS).collect();
    let mut out = String::new();
    writeln!(out, "stream trace_len={TRACE_LEN} apps={APPS}").unwrap();
    let mut scratch = SimScratch::new();
    for app in &apps {
        let mut wb = Workbench::try_new(app, TRACE_LEN).expect("workbench");
        let mut points = vec![("baseline".to_string(), DesignPoint::baseline())];
        points.extend(default_schemes().into_iter().map(|s| (s.name, s.point)));
        for (name, point) in points {
            let is_baseline = matches!(point.software, critics::core::Software::Baseline);
            let (program, trace, fanout) = if is_baseline {
                let trace = wb.baseline_trace().clone();
                let fanout = wb.baseline_fanout().to_vec();
                ((*wb.program).clone(), trace, fanout)
            } else {
                let (program, _pass) = wb.try_variant(&point.software).expect("variant");
                let trace = Trace::expand(&program, &wb.path);
                let fanout = trace.compute_fanout();
                (program, trace, fanout)
            };
            let sim = Simulator::new(point.cpu_config(), point.mem_config());
            let (mat, mat_ledger) = sim.run_with_ledger(&trace, &fanout, &mut scratch);
            mat_ledger
                .check(mat.cycles)
                .expect("ledger partitions the run");
            for window in WINDOWS {
                let mut stream =
                    TraceStream::new(&program, &wb.path, StreamConfig::with_window(window));
                let (streamed, streamed_ledger, stats) =
                    sim.run_streamed(&mut stream, &mut scratch);
                assert_eq!(
                    streamed, mat,
                    "{}/{name} w={window}: streamed diverges",
                    app.name
                );
                assert_eq!(
                    streamed_ledger, mat_ledger,
                    "{}/{name} w={window}: streamed ledger diverges",
                    app.name
                );
                writeln!(
                    out,
                    "{:12} {:14} window {:5} cycles {} committed {} thumb {} misp {} \
                     icm {} dcm {} | i {} br {} bp {} dec {} iss {} exe {} mem {} com {} \
                     idle {}",
                    app.name,
                    name,
                    window,
                    streamed.cycles,
                    streamed.committed,
                    streamed.thumb_fetched,
                    streamed.bpu.mispredicts,
                    streamed.mem.icache.misses,
                    streamed.mem.dcache.misses,
                    streamed_ledger.fetch_stall_icache,
                    streamed_ledger.fetch_stall_branch,
                    streamed_ledger.fetch_stall_backpressure,
                    streamed_ledger.decode,
                    streamed_ledger.issue,
                    streamed_ledger.execute,
                    streamed_ledger.mem,
                    streamed_ledger.commit,
                    streamed_ledger.squash_idle,
                )
                .unwrap();
                assert_eq!(stats.ring_capacity.count_ones(), 1, "pow2 ring");
            }
        }
    }
    assert_matches_golden("stream.golden", &out);
}

/// The cycle ledger itself is part of the snapshot: exact per-bucket
/// counts for the mobile suite's first apps, so any attribution change is
/// visible in review rather than silently reshaping Fig. 3.
#[test]
fn ledger_audit_matches_golden() {
    let rows = exp::ledger_audit(&exp::FigureRun::new(TRACE_LEN), APPS);
    let mut out = String::new();
    writeln!(out, "ledger trace_len={TRACE_LEN} apps_per_suite={APPS}").unwrap();
    for r in &rows {
        assert!(r.balanced, "{}: unbalanced ledger", r.app);
        writeln!(
            out,
            "{:12} {:10} cycles {} i {} br {} bp {} dec {} iss {} exe {} mem {} com {} idle {}",
            r.app,
            r.suite,
            r.cycles,
            r.ledger.fetch_stall_icache,
            r.ledger.fetch_stall_branch,
            r.ledger.fetch_stall_backpressure,
            r.ledger.decode,
            r.ledger.issue,
            r.ledger.execute,
            r.ledger.mem,
            r.ledger.commit,
            r.ledger.squash_idle,
        )
        .unwrap();
    }
    assert_matches_golden("ledger.golden", &out);
}

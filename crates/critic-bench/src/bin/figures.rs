//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! figures [--quick] [--json] [TARGET...]
//! TARGET: table1 table2 fig1a fig1b fig3 fig5a fig5b fig8 fig10 fig11
//!         fig12a fig12b fig13 ledger all   (default: all)
//! ```
//!
//! `--quick` runs 3 apps per suite on 100k-instruction traces; the default
//! runs every app of every suite on 240k-instruction traces (about 15 s
//! on two cores).

use critic_core::experiments as exp;
use critic_core::DEFAULT_TRACE_LEN;

struct Opts {
    quick: bool,
    json: bool,
    targets: Vec<String>,
}

const TARGETS: [&str; 15] = [
    "table1", "table2", "fig1a", "fig1b", "fig3", "fig5a", "fig5b", "fig8", "fig10", "fig11",
    "fig12a", "fig12b", "fig13", "ledger", "all",
];

fn parse_args() -> Opts {
    let mut opts = Opts {
        quick: false,
        json: false,
        targets: Vec::new(),
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--json" => opts.json = true,
            "--help" | "-h" => {
                eprintln!("usage: figures [--quick] [--json] [TARGET...]");
                std::process::exit(0);
            }
            other if TARGETS.contains(&other) => opts.targets.push(other.to_string()),
            other => {
                eprintln!(
                    "figures: unknown target `{other}`; valid: {}",
                    TARGETS.join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    if opts.targets.is_empty() {
        opts.targets.push("all".into());
    }
    opts
}

/// Runs one figure target behind the campaign's panic isolation boundary:
/// a panic in one target is reported and the remaining targets still run.
fn isolate_target(failures: &mut Vec<String>, name: &str, f: impl FnOnce()) {
    if let Err(e) = critic_core::campaign::isolate(name, f) {
        eprintln!("figures: target {name} failed: {e}");
        failures.push(name.to_string());
    }
}

fn main() {
    let opts = parse_args();
    let (len, apps) = if opts.quick {
        (100_000, 3)
    } else {
        (DEFAULT_TRACE_LEN, 10)
    };
    // One executor for every target: each app's world, profiles and
    // baselines are built once however many figures read them.
    let run = exp::FigureRun::new(len);
    let wants = |t: &str| opts.targets.iter().any(|x| x == t || x == "all");
    let emit = |name: &str, value: &dyn erased_fmt::Emit| {
        if opts.json {
            println!("{}", value.to_json(name));
        } else {
            println!("{}", value.to_text(name));
        }
    };
    let mut failures: Vec<String> = Vec::new();

    if wants("table1") {
        println!("== Table I: baseline simulation configuration ==");
        println!("{}\n", exp::table1());
    }
    if wants("table2") {
        println!("== Table II: workloads ==");
        for row in exp::table2() {
            println!(
                "  {:12} {:10} {:22} {}",
                row.name, row.suite, row.domain, row.activity
            );
        }
        println!();
    }
    if wants("fig1a") {
        isolate_target(&mut failures, "fig1a", || {
            let rows = exp::fig1a(&run, apps);
            emit(
                "fig1a",
                &rows_wrap(
                    &rows,
                    |r: &exp::Fig1aRow| {
                        format!(
                            "  {:10} prefetch {:+.2}%  prioritize {:+.2}%  critical insns {:.1}%",
                            r.suite,
                            (r.prefetch_speedup - 1.0) * 100.0,
                            (r.prioritize_speedup - 1.0) * 100.0,
                            r.critical_frac * 100.0
                        )
                    },
                    "Fig. 1a: single-instruction criticality optimizations",
                ),
            );
        });
    }
    if wants("fig1b") {
        isolate_target(&mut failures, "fig1b", || {
            let rows = exp::fig1b(&run, apps);
            emit(
                "fig1b",
                &rows_wrap(
                    &rows,
                    |r: &exp::Fig1bRow| {
                        format!(
                            "  {:10} none {:.2}  gaps(0..5+) {:?}",
                            r.suite,
                            r.none_frac,
                            r.gap_fracs.map(|g| (g * 100.0).round() / 100.0)
                        )
                    },
                    "Fig. 1b: low-fanout gaps between dependent criticals",
                ),
            );
        });
    }
    if wants("fig3") {
        isolate_target(&mut failures, "fig3", || {
            let rows = exp::fig3(&run, apps);
            emit(
                "fig3",
                &rows_wrap(
                    &rows,
                    |r: &exp::Fig3Row| {
                        format!(
                "  {:10} stages[fetch,dec,issue,exec,rob] {:?}  F.StallForI {:.3}  F.StallForR+D {:.3}  latency[s,m,l] {:?}",
                r.suite,
                r.stage_shares.map(|s| (s * 100.0).round() / 100.0),
                r.stall_for_i,
                r.stall_for_rd,
                r.latency_mix.map(|s| (s * 100.0).round() / 100.0)
            )
                    },
                    "Fig. 3: critical-instruction pipeline profile",
                ),
            );
        });
    }
    if wants("fig5a") {
        isolate_target(&mut failures, "fig5a", || {
            let rows = exp::fig5a(&run, apps);
            emit(
                "fig5a",
                &rows_wrap(
                    &rows,
                    |r: &exp::Fig5aRow| {
                        format!(
                "  {:10} max len {:5}  p99 len {:4}  mean len {:5.1} | max spread {:6}  p99 spread {:5}",
                r.suite, r.shape.max_len, r.shape.p99_len, r.shape.mean_len,
                r.shape.max_spread, r.shape.p99_spread
            )
                    },
                    "Fig. 5a: IC length and spread",
                ),
            );
        });
    }
    if wants("fig5b") {
        isolate_target(&mut failures, "fig5b", || {
            let rows = exp::fig5b(&run, apps);
            emit(
                "fig5b",
                &rows_wrap(
                    &rows,
                    |r: &exp::Fig5bRow| {
                        format!(
                "  {:12} unique {:5}  critical {:4}  convertible {:.1}%  coverage {:.1}%",
                r.app, r.unique_chains, r.critical_chains,
                r.convertible_frac * 100.0, r.coverage * 100.0
            )
                    },
                    "Fig. 5b: unique CritICs and Thumb convertibility",
                ),
            );
        });
    }
    if wants("fig8") || wants("fig10") {
        isolate_target(&mut failures, "fig10", || {
            let rows = exp::fig10(&run, apps);
            emit(
                "fig10",
                &rows_wrap(
                    &rows,
                    |r: &exp::Fig10Row| {
                        format!(
                "  {:12} hoist {:+.2}%  critic {:+.2}%  ideal {:+.2}%  branch-switch {:+.2}% | fetch-stall saved {:+.2}pp | energy: cpu {:+.2}% system {:+.2}% (icache {:+.2}pp)",
                r.app,
                (r.hoist - 1.0) * 100.0,
                (r.critic - 1.0) * 100.0,
                (r.critic_ideal - 1.0) * 100.0,
                (r.branch_switch - 1.0) * 100.0,
                r.fetch_stall_saving * 100.0,
                r.cpu_energy_saving * 100.0,
                r.system_energy_saving * 100.0,
                r.icache_component * 100.0
            )
                    },
                    "Figs. 8 & 10: CritIC design space (per app)",
                ),
            );
            let mean = |f: fn(&exp::Fig10Row) -> f64| {
                rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64
            };
            println!(
            "  MEAN         hoist {:+.2}%  critic {:+.2}%  ideal {:+.2}%  branch-switch {:+.2}% | energy cpu {:+.2}% system {:+.2}%\n",
            (mean(|r| r.hoist) - 1.0) * 100.0,
            (mean(|r| r.critic) - 1.0) * 100.0,
            (mean(|r| r.critic_ideal) - 1.0) * 100.0,
            (mean(|r| r.branch_switch) - 1.0) * 100.0,
            mean(|r| r.cpu_energy_saving) * 100.0,
            mean(|r| r.system_energy_saving) * 100.0,
        );
        });
    }
    if wants("fig11") {
        isolate_target(&mut failures, "fig11", || {
            let rows = exp::fig11(&run, apps);
            emit(
                "fig11",
                &rows_wrap(
                    &rows,
                    |r: &exp::Fig11Row| {
                        format!(
                "  {:12} speedup {:+.2}%  with CritIC {:+.2}%  dF.StallForI {:+.2}pp  dF.StallForR+D {:+.2}pp",
                r.mechanism,
                (r.speedup - 1.0) * 100.0,
                (r.with_critic - 1.0) * 100.0,
                r.d_stall_i * 100.0,
                r.d_stall_rd * 100.0
            )
                    },
                    "Fig. 11: hardware fetch mechanisms vs (and with) CritIC",
                ),
            );
        });
    }
    if wants("fig12a") {
        isolate_target(&mut failures, "fig12a", || {
            let rows = exp::fig12a(&run, apps, &[2, 3, 4, 5, 7, 9]);
            emit(
                "fig12a",
                &rows_wrap(
                    &rows,
                    |r: &exp::Fig12aRow| {
                        format!(
                            "  n={:2}  speedup {:+.2}%  fetch-stall saved {:+.2}pp",
                            r.n,
                            (r.speedup - 1.0) * 100.0,
                            r.fetch_saving * 100.0
                        )
                    },
                    "Fig. 12a: sensitivity to CritIC length",
                ),
            );
        });
    }
    if wants("fig12b") {
        isolate_target(&mut failures, "fig12b", || {
            let rows = exp::fig12b(&run, apps, &[0.2, 0.33, 0.5, 0.72, 1.0]);
            emit(
                "fig12b",
                &rows_wrap(
                    &rows,
                    |r: &exp::Fig12bRow| {
                        format!(
                            "  profiled {:3.0}%  speedup {:+.2}%",
                            r.fraction * 100.0,
                            (r.speedup - 1.0) * 100.0
                        )
                    },
                    "Fig. 12b: sensitivity to profiling coverage",
                ),
            );
        });
    }
    if wants("fig13") {
        isolate_target(&mut failures, "fig13", || {
            let rows = exp::fig13(&run, apps);
            emit(
                "fig13",
                &rows_wrap(
                    &rows,
                    |r: &exp::Fig13Row| {
                        format!(
                            "  {:14} speedup {:+.2}%  dynamic 16-bit {:4.1}%",
                            r.scheme,
                            (r.speedup - 1.0) * 100.0,
                            r.converted_frac * 100.0
                        )
                    },
                    "Fig. 13: criticality-aware vs opportunistic conversion",
                ),
            );
        });
    }

    if wants("ledger") {
        isolate_target(&mut failures, "ledger", || {
            let rows = exp::ledger_audit(&run, apps);
            emit(
                "ledger",
                &rows_wrap(
                    &rows,
                    |r: &exp::LedgerRow| {
                        format!(
                            "  {:12} {:10} {:>9} cycles = I {:>7} + R+D {:>7} + dec {:>6} + iss {:>6} \
                             + exe {:>7} + mem {:>7} + com {:>7} + idle {:>6}  [{}]",
                            r.app,
                            r.suite,
                            r.cycles,
                            r.ledger.stall_for_i(),
                            r.ledger.stall_for_rd(),
                            r.ledger.decode,
                            r.ledger.issue,
                            r.ledger.execute,
                            r.ledger.mem,
                            r.ledger.commit,
                            r.ledger.squash_idle,
                            if r.balanced { "balanced" } else { "UNBALANCED" }
                        )
                    },
                    "Cycle-accounting audit: every cycle in exactly one bucket",
                ),
            );
            let broken: Vec<&str> = rows
                .iter()
                .filter(|r| !r.balanced)
                .map(|r| r.app.as_str())
                .collect();
            assert!(broken.is_empty(), "unbalanced ledgers: {broken:?}");
        });
    }

    if !failures.is_empty() {
        eprintln!(
            "figures: {} target(s) failed: {}",
            failures.len(),
            failures.join(", ")
        );
        std::process::exit(1);
    }
}

// -- tiny formatting plumbing ------------------------------------------------

mod erased_fmt {
    pub trait Emit {
        fn to_text(&self, name: &str) -> String;
        fn to_json(&self, name: &str) -> String;
    }
}

struct RowsWrap<'a, T> {
    rows: &'a [T],
    fmt: fn(&T) -> String,
    title: &'static str,
}

fn rows_wrap<'a, T>(rows: &'a [T], fmt: fn(&T) -> String, title: &'static str) -> RowsWrap<'a, T> {
    RowsWrap { rows, fmt, title }
}

impl<'a, T: serde::Serialize> erased_fmt::Emit for RowsWrap<'a, T> {
    fn to_text(&self, _name: &str) -> String {
        let mut out = format!("== {} ==\n", self.title);
        for row in self.rows {
            out.push_str(&(self.fmt)(row));
            out.push('\n');
        }
        out
    }

    fn to_json(&self, name: &str) -> String {
        serde_json::json!({ name: self.rows }).to_string()
    }
}

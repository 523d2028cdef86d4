//! Smoke-scale checks of the paper's headline directional claims. The full
//! numbers live in EXPERIMENTS.md; these tests pin the *orderings* the
//! reproduction preserves so regressions are caught.
//!
//! Every figure here runs over one shared [`FigureRun`], so each app's
//! world, profiles and baselines are built once per test binary.

use std::sync::LazyLock;

use critics::core::design::DesignPoint;
use critics::core::experiments::{self, FigureRun};
use critics::core::runner::Workbench;
use critics::workloads::suite::Suite;

const LEN: usize = 60_000;

static RUN: LazyLock<FigureRun> = LazyLock::new(|| FigureRun::new(LEN));

#[test]
fn critic_beats_baseline_on_mobile_apps() {
    // Paper Fig. 10a: every app speeds up under CritIC.
    let mut wins = 0;
    for app in Suite::Mobile.apps().iter().take(4) {
        let mut bench = Workbench::new(app, LEN);
        let base = bench.run(&DesignPoint::baseline());
        let critic = bench.run(&DesignPoint::critic());
        if critic.sim.speedup_over(&base.sim) > 1.0 {
            wins += 1;
        }
    }
    assert!(
        wins >= 3,
        "CritIC should beat baseline on most apps, won {wins}/4"
    );
}

#[test]
fn prefetching_helps_spec_more_than_mobile() {
    // Paper Fig. 1a: critical-load prefetching is a SPEC optimization.
    let rows = experiments::fig1a(&RUN, 2);
    let mobile = rows
        .iter()
        .find(|r| r.suite == "Android")
        .expect("android row");
    let float = rows
        .iter()
        .find(|r| r.suite == "SPEC.float")
        .expect("float row");
    assert!(
        float.prefetch_speedup > mobile.prefetch_speedup,
        "SPEC.float prefetch {:.4} should exceed Android {:.4}",
        float.prefetch_speedup,
        mobile.prefetch_speedup
    );
}

#[test]
fn mobile_has_the_most_critical_instructions() {
    // Paper Fig. 1a right axis. Averaged over three apps per suite: single
    // hot loops can give one SPEC program an idiosyncratic critical spike.
    let rows = experiments::fig1a(&RUN, 3);
    let mobile = rows
        .iter()
        .find(|r| r.suite == "Android")
        .expect("android row");
    for row in &rows {
        if row.suite != "Android" {
            assert!(
                mobile.critical_frac > row.critical_frac,
                "Android {:.4} should exceed {} {:.4}",
                mobile.critical_frac,
                row.suite,
                row.critical_frac
            );
        }
    }
}

#[test]
fn mobile_criticals_are_fetch_side_spec_backend_side() {
    // Paper Fig. 3a: the bottleneck shifts from rear to front.
    let rows = experiments::fig3(&RUN, 2);
    let mobile = rows
        .iter()
        .find(|r| r.suite == "Android")
        .expect("android row");
    let int = rows
        .iter()
        .find(|r| r.suite == "SPEC.int")
        .expect("int row");
    let fetch = |r: &experiments::Fig3Row| r.stage_shares[0] + r.stage_shares[1];
    let backend = |r: &experiments::Fig3Row| r.stage_shares[3] + r.stage_shares[4];
    assert!(
        fetch(mobile) > fetch(int),
        "mobile fetch share must exceed SPEC.int's"
    );
    assert!(
        backend(int) > backend(mobile),
        "SPEC.int backend share must exceed mobile's"
    );
}

#[test]
fn spec_chains_dwarf_mobile_chains() {
    // Paper Fig. 5a: SPEC ICs reach kilo-instruction lengths.
    let rows = experiments::fig5a(&RUN, 2);
    let mobile = rows
        .iter()
        .find(|r| r.suite == "Android")
        .expect("android row");
    let float = rows
        .iter()
        .find(|r| r.suite == "SPEC.float")
        .expect("float row");
    assert!(float.shape.max_len > 3 * mobile.shape.max_len);
}

#[test]
fn critic_converts_fewer_instructions_than_opp16() {
    // Paper Fig. 13b.
    let rows = experiments::fig13(&RUN, 2);
    let critic = rows.iter().find(|r| r.scheme == "CritIC").expect("critic");
    let opp = rows.iter().find(|r| r.scheme == "OPP16").expect("opp16");
    let compress = rows
        .iter()
        .find(|r| r.scheme == "Compress")
        .expect("compress");
    assert!(critic.converted_frac < opp.converted_frac);
    assert!(opp.converted_frac < compress.converted_frac);
}

#[test]
fn profiling_more_of_the_execution_never_hurts_much() {
    // Paper Fig. 12b: speedup grows with profile coverage.
    let rows = experiments::fig12b(&RUN, 2, &[0.2, 1.0]);
    assert!(
        rows[1].speedup >= rows[0].speedup - 0.005,
        "full profiling {:.4} should be at least partial {:.4}",
        rows[1].speedup,
        rows[0].speedup
    );
}

#[test]
fn ideal_upper_bound_is_close_to_realistic_critic() {
    // Paper Sec. IV-E: the gap between CritIC and CritIC.Ideal is small.
    let rows = experiments::fig10(&RUN, 3);
    for row in &rows {
        assert!(
            (row.critic_ideal - row.critic).abs() < 0.05,
            "{}: ideal {:.4} vs critic {:.4}",
            row.app,
            row.critic_ideal,
            row.critic
        );
    }
}

#[test]
fn fig12a_has_an_interior_optimum_length() {
    // Paper Fig. 12a: too-short chains save little fetch bandwidth and
    // too-long ones are rare, so the best length lies in between.
    let rows = experiments::fig12a(&RUN, 3, &[2, 3, 9]);
    let speedup = |n: usize| rows.iter().find(|r| r.n == n).expect("length row").speedup;
    assert!(
        speedup(3) > speedup(2) && speedup(3) > speedup(9),
        "n=3 {:.4} should beat n=2 {:.4} and n=9 {:.4}",
        speedup(3),
        speedup(2),
        speedup(9)
    );
}

#[test]
fn cpu_energy_saving_exceeds_system_saving() {
    // Paper Fig. 10c: CritIC saves energy in the CPU; the rest of the
    // system dilutes the saving but does not cancel it.
    let rows = experiments::fig10(&RUN, 3);
    let mean =
        |f: fn(&experiments::Fig10Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    let cpu = mean(|r| r.cpu_energy_saving);
    let system = mean(|r| r.system_energy_saving);
    assert!(
        cpu > system && system > 0.0,
        "cpu saving {cpu:.4} should exceed system saving {system:.4} > 0"
    );
}

#[test]
fn prefetching_helps_spec_int_more_than_mobile() {
    // Paper Fig. 1a: the same claim as for SPEC.float, on SPEC.int.
    let rows = experiments::fig1a(&RUN, 3);
    let suite = |label: &str| rows.iter().find(|r| r.suite == label).expect("suite row");
    let (int, mobile) = (suite("SPEC.int"), suite("Android"));
    assert!(
        int.prefetch_speedup > mobile.prefetch_speedup,
        "SPEC.int prefetch {:.4} should exceed Android {:.4}",
        int.prefetch_speedup,
        mobile.prefetch_speedup
    );
}

#[test]
fn mobile_fetch_stalls_are_mostly_for_instructions() {
    // Paper Fig. 3b: on mobile apps, fetch waits for instructions
    // (F.StallForI) more than for registers and dispatch (F.StallForR+D).
    let rows = experiments::fig3(&RUN, 3);
    let mobile = rows
        .iter()
        .find(|r| r.suite == "Android")
        .expect("android row");
    assert!(
        mobile.stall_for_i > mobile.stall_for_rd,
        "F.StallForI {:.4} should exceed F.StallForR+D {:.4}",
        mobile.stall_for_i,
        mobile.stall_for_rd
    );
}

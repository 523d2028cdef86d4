//! Integration drills for the chaos harness: whole-invocation
//! reproducibility, hand-crafted schedule probes, and — behind the
//! `chaos-planted-bug` feature — proof that the minimizer isolates a real
//! planted supervision bug down to the single responsible fault.
//!
//! Run the feature-gated half with:
//!
//! ```text
//! cargo test -p critic-bench --features chaos-planted-bug --test chaos
//! ```

#[cfg(feature = "chaos-planted-bug")]
use critic_bench::audit::minimize;
use critic_bench::chaos::{probe_schedule, run_chaos, ChaosConfig, ScheduleEntry};
use critic_workloads::{SysFault, SysFaultSpec};

fn tiny_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        cells: 4,
        smoke: true,
        minimize: false,
    }
}

/// The schedule the planted-bug drill runs: two journal decoys around the
/// store-write fault the planted bug keys on.
fn planted_bug_schedule() -> Vec<ScheduleEntry> {
    vec![
        ScheduleEntry::Sys(SysFaultSpec {
            fault: SysFault::JournalFsync,
            at: 0,
        }),
        ScheduleEntry::Sys(SysFaultSpec {
            fault: SysFault::StoreWrite,
            at: 1,
        }),
        ScheduleEntry::Sys(SysFaultSpec {
            fault: SysFault::JournalWrite,
            at: 2,
        }),
    ]
}

/// The whole invocation — schedule, per-cell records, violations — is
/// bit-reproducible from the seed.
#[test]
fn chaos_runs_are_bit_reproducible_per_seed() {
    let first = run_chaos(&tiny_config(5)).expect("chaos runs");
    let second = run_chaos(&tiny_config(5)).expect("chaos runs");
    assert_eq!(first, second);
    assert!(
        first.ok(),
        "seed 5 must pass on a healthy runner: {:?}",
        first.violations
    );
}

/// Without the planted bug, the drill schedule is absorbed: one attempt
/// fails on the store-write, the retry heals, the journal decoys are
/// resume-tolerated, and every invariant holds.
#[cfg(not(feature = "chaos-planted-bug"))]
#[test]
fn planted_bug_schedule_is_harmless_on_a_healthy_runner() {
    let violations = probe_schedule(&tiny_config(0), &planted_bug_schedule()).expect("probe runs");
    assert!(violations.is_empty(), "{violations:?}");
}

/// With the planted bug compiled in (a worker silently drops a finished
/// record after a store-write fault), the accounting invariant breaks —
/// and ddmin isolates exactly the store-write entry out of the three.
#[cfg(feature = "chaos-planted-bug")]
#[test]
fn minimizer_isolates_the_planted_supervision_bug() {
    let config = tiny_config(0);
    let schedule = planted_bug_schedule();
    let violations = probe_schedule(&config, &schedule).expect("probe runs");
    assert!(
        violations.iter().any(|v| v.invariant == "accounting"),
        "the planted record drop must break accounting: {violations:?}"
    );

    let minimal = minimize(&schedule, |subset| {
        probe_schedule(&config, subset)
            .map(|vs| vs.iter().any(|v| v.invariant == "accounting"))
            .unwrap_or(false)
    });
    assert_eq!(
        minimal,
        vec![ScheduleEntry::Sys(SysFaultSpec {
            fault: SysFault::StoreWrite,
            at: 1,
        })],
        "ddmin must isolate the single responsible fault"
    );
}

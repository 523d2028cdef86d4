//! End-to-end campaign acceptance tests: the full Mobile suite with fault
//! injection on one cell completes, journals every cell, reports the
//! failed cell without aborting, and resumes from the journal; a batched
//! campaign equals per-cell runs of the scalar reference engine exactly;
//! and a workbench decodes each software variant once and nothing else.

use std::fs;
use std::io::Write;
use std::sync::Arc;

use critic_core::campaign::default_schemes;
use critic_core::{
    run_campaign, run_campaign_with_store, ArtifactStore, CampaignSpec, CellMetrics, CellStatus,
    DesignPoint, PlannedFault, RunError, Scheme, Software, Workbench,
};
use critic_obs::Telemetry;
use critic_pipeline::SimEngine;
use critic_workloads::{Fault, Suite};

fn shrink(mut apps: Vec<critic_workloads::AppSpec>) -> Vec<critic_workloads::AppSpec> {
    for app in &mut apps {
        app.params.num_functions = app.params.num_functions.min(16);
    }
    apps
}

#[test]
fn full_mobile_suite_campaign_with_fault_injection() {
    let dir = std::env::temp_dir().join("critic_campaign_e2e");
    let _ = fs::create_dir_all(&dir);
    let journal = dir.join("mobile.jsonl");
    let _ = fs::remove_file(&journal);

    let apps = shrink(Suite::Mobile.apps());
    let n_apps = apps.len();
    assert!(n_apps >= 10, "full Mobile suite expected, got {n_apps}");
    let schemes = vec![
        Scheme::new("critic", DesignPoint::critic()),
        Scheme::new("opp16", DesignPoint::opp16()),
    ];
    let victim = apps[3].name.clone();

    let mut spec = CampaignSpec::new(apps.clone(), schemes.clone(), 6_000);
    spec.journal = Some(journal.clone());
    spec.faults.push(PlannedFault {
        app: victim.clone(),
        scheme: "critic".into(),
        fault: Fault::IllegalImmediate,
        seed: 42,
    });

    let summary = run_campaign(&spec).expect("campaign itself must not abort");

    // Every cell of the grid is accounted for and journaled.
    assert_eq!(summary.records.len(), n_apps * schemes.len());
    let journaled = fs::read_to_string(&journal).expect("journal exists");
    let trailer = usize::from(spec.telemetry.is_enabled());
    assert_eq!(
        journaled.lines().count(),
        n_apps * schemes.len() + trailer,
        "one line per cell, plus the telemetry trailer when CRITIC_TELEMETRY is set"
    );

    // Exactly the fault-injected cell failed, with a typed error — the
    // corruption was caught by validation, not by a trapped panic.
    let failed = summary.failed();
    assert_eq!(failed.len(), 1, "{}", summary.render());
    assert_eq!(
        (failed[0].app.as_str(), failed[0].scheme.as_str()),
        (victim.as_str(), "critic")
    );
    assert_eq!(failed[0].status, CellStatus::Failed);
    assert!(
        matches!(failed[0].error, Some(RunError::Program(_))),
        "expected a validation error, got {:?}",
        failed[0].error
    );
    assert!(!summary.all_ok());
    assert!(summary.render().contains("FAILED"));

    // Kill/restart: drop the journal's last full cell line (as if the
    // process died before finishing that cell — the telemetry trailer,
    // when present, dies with it), append a torn line, resume.
    let mut lines: Vec<&str> = journaled
        .lines()
        .filter(|l| !l.contains("campaign_telemetry"))
        .collect();
    lines.pop();
    let mut truncated = lines.join("\n");
    truncated.push('\n');
    fs::write(&journal, &truncated).expect("truncate journal");
    {
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .expect("open journal");
        write!(f, "{{\"app\":\"torn-mid-wr").expect("append torn line");
    }

    let mut resumed_spec = CampaignSpec::new(apps, schemes, 6_000);
    resumed_spec.journal = Some(journal.clone());
    resumed_spec.resume = true;
    resumed_spec.faults = spec.faults.clone();
    let resumed = run_campaign(&resumed_spec).expect("resume succeeds");

    assert_eq!(resumed.records.len(), n_apps * 2);
    // Only Ok-journaled cells replay; the dropped cell and the journaled
    // failure both rerun (the fault is still planned, so it fails again).
    let ok_journaled = truncated
        .lines()
        .filter(|l| l.contains("\"status\":\"Ok\""))
        .count();
    assert_eq!(
        resumed.resumed, ok_journaled,
        "exactly the Ok-journaled cells replayed"
    );
    assert!(resumed.resumed >= n_apps * 2 - 2, "{}", resumed.render());
    assert_eq!(
        resumed.failed().len(),
        1,
        "fault-injected cell fails again on retry"
    );

    let _ = fs::remove_file(&journal);
}

/// The paper's software schemes (the default grid plus the Fig. 12
/// chain-length and profile-fraction points) followed by the Fig. 11
/// hardware points, whose software stays baseline.
fn sensitivity_grid() -> Vec<Scheme> {
    let mut schemes = default_schemes();
    for n in [2, 3, 4] {
        schemes.push(Scheme::new(
            &format!("critic-len{n}"),
            DesignPoint::critic_exact_len(n),
        ));
    }
    for f in [0.25, 0.5] {
        schemes.push(Scheme::new(
            &format!("critic-pf{f}"),
            DesignPoint::critic_profile_fraction(f),
        ));
    }
    schemes.push(Scheme::new("hw-2xfd", DesignPoint::double_fd()));
    schemes.push(Scheme::new("hw-4xic", DesignPoint::quad_icache()));
    schemes.push(Scheme::new("hw-efetch", DesignPoint::efetch()));
    schemes.push(Scheme::new("hw-perfbr", DesignPoint::perfect_branch()));
    schemes.push(Scheme::new("hw-prio", DesignPoint::backend_prio()));
    schemes.push(Scheme::new("hw-all", DesignPoint::all_hw()));
    schemes
}

/// The batched cold campaign (shared store, one decode per app, recycled
/// scratch) and the scalar reference pipeline (a fresh workbench per cell
/// on `SimEngine::Reference`) agree on every cell's metrics bit for bit,
/// over a grid slice that reaches past the software schemes into the
/// hardware points.
#[test]
fn scalar_reference_and_batched_campaign_agree_exactly() {
    let apps: Vec<_> = Suite::Mobile.apps().into_iter().take(2).collect();
    let schemes: Vec<_> = sensitivity_grid().into_iter().take(14).collect();
    let mut spec = CampaignSpec::new(apps, schemes, 4_000);
    spec.telemetry = Telemetry::off();
    spec.workers = 1;
    let summary =
        run_campaign_with_store(&spec, &Arc::new(ArtifactStore::new())).expect("campaign runs");
    assert!(summary.all_ok(), "{}", summary.render());
    assert_eq!(summary.records.len(), 28);

    for record in &summary.records {
        let app = spec
            .apps
            .iter()
            .find(|a| a.name == record.app)
            .expect("app");
        let scheme = spec
            .schemes
            .iter()
            .find(|s| s.name == record.scheme)
            .expect("scheme");
        let mut bench = Workbench::try_new(app, spec.trace_len).expect("workbench");
        bench.set_engine(SimEngine::Reference);
        let base = bench.try_run(&DesignPoint::baseline()).expect("baseline");
        let run = bench.try_run(&scheme.point).expect("scheme");
        let scalar = CellMetrics {
            speedup: run.sim.speedup_over(&base.sim),
            cpu_energy_saving: run.energy.cpu_saving(&base.energy),
            thumb_dyn_frac: run.thumb_dyn_frac,
            dyn_insns: run.dyn_insns,
        };
        assert_eq!(
            record.metrics.as_ref(),
            Some(&scalar),
            "{}:{} batched and scalar reference disagree",
            record.app,
            record.scheme
        );
    }
}

/// One workbench decodes each software variant exactly once per run and
/// serves the baseline and every hardware-only point from its one base
/// decode: hardware points add runs but no decodes.
#[test]
fn workbench_decodes_each_software_variant_and_nothing_else() {
    let app = &Suite::Mobile.apps()[0];
    let mut bench = Workbench::try_new(app, 4_000).expect("workbench");
    let (hardware, software): (Vec<Scheme>, Vec<Scheme>) = sensitivity_grid()
        .into_iter()
        .partition(|s| matches!(s.point.software, Software::Baseline));
    assert!(!hardware.is_empty() && !software.is_empty());

    bench.try_run(&DesignPoint::baseline()).expect("baseline");
    for scheme in &hardware {
        bench.try_run(&scheme.point).expect("hardware point");
    }
    let stats = bench.batch_stats();
    assert_eq!(stats.runs, 1 + hardware.len() as u64);
    assert_eq!(
        stats.variant_decodes, 0,
        "hardware points decoded a variant"
    );

    for scheme in &software {
        bench.try_run(&scheme.point).expect("software scheme");
    }
    bench
        .try_run(&DesignPoint::baseline())
        .expect("baseline again");
    let stats = bench.batch_stats();
    assert_eq!(stats.runs, 2 + (hardware.len() + software.len()) as u64);
    assert_eq!(
        stats.variant_decodes,
        software.len() as u64,
        "one decode per software scheme"
    );
}

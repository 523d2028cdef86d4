//! End-to-end campaign acceptance tests: the full Mobile suite with fault
//! injection on one cell completes, journals every cell, reports the
//! failed cell without aborting, and resumes from the journal; a batched
//! campaign equals per-cell runs of the scalar reference engine exactly; a
//! default campaign streams every cell and equals a workbench per app on
//! the reference engine exactly; and a workbench builds each shared
//! artifact once.

use std::collections::HashSet;
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
use critic_profiler::ProfilerConfig;
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

/// The cold campaign (shared store, streamed cells, recycled stream
/// buffers and simulator rings) and the
/// scalar reference pipeline (a fresh workbench per cell on
/// `SimEngine::Reference`, baselines included) agree on every cell's
/// metrics bit for bit,
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

/// A campaign at its defaults streams every clean cell: over two apps × the
/// 18-point grid it records each app and builds no world and no cone, and
/// every cell equals the cell one workbench per app computes on the
/// reference engine, which walks the materialized trace.
#[test]
fn default_campaign_streams_and_matches_the_reference_engine() {
    let apps = shrink(Suite::Mobile.apps().into_iter().take(2).collect());
    let mut spec = CampaignSpec::new(apps, sensitivity_grid(), 6_000);
    spec.telemetry = Telemetry::off();
    assert_eq!(spec.stream_window, None);
    let store = Arc::new(ArtifactStore::new());
    let summary = run_campaign_with_store(&spec, &store).expect("campaign runs");
    assert!(summary.all_ok(), "{}", summary.render());
    assert_eq!(summary.records.len(), 36);
    let stats = store.stats();
    assert_eq!(stats.worlds_built + stats.cones_built, 0, "{stats:?}");
    assert_eq!(stats.recordings_built, 2, "{stats:?}");
    assert_eq!(
        stats.folds_built, 6,
        "three fold lengths per app: {stats:?}"
    );

    for app in &spec.apps {
        let mut bench = Workbench::try_new(app, spec.trace_len).expect("workbench");
        bench.set_engine(SimEngine::Reference);
        let base = bench.try_run(&DesignPoint::baseline()).expect("baseline");
        for scheme in &spec.schemes {
            let run = bench.try_run(&scheme.point).expect("scheme");
            let materialized = CellMetrics {
                speedup: run.sim.speedup_over(&base.sim),
                cpu_energy_saving: run.energy.cpu_saving(&base.energy),
                thumb_dyn_frac: run.thumb_dyn_frac,
                dyn_insns: run.dyn_insns,
            };
            let record = summary
                .records
                .iter()
                .find(|r| r.app == app.name && r.scheme == scheme.name)
                .expect("cell");
            assert_eq!(
                record.metrics.as_ref(),
                Some(&materialized),
                "{}:{} streamed campaign and reference workbench disagree",
                app.name,
                scheme.name
            );
        }
    }
}

/// The profiler configuration a software scheme consumes, if any.
fn profiler_config(software: &Software) -> Option<ProfilerConfig> {
    match *software {
        Software::Baseline | Software::Opp16 | Software::Compress => None,
        Software::Hoist | Software::CritIcBranchSwitch | Software::Opp16PlusCritIc => {
            Some(ProfilerConfig::default())
        }
        Software::CritIc {
            profile_fraction,
            max_len,
            ..
        } => Some(ProfilerConfig {
            profile_fraction,
            max_chain_len: max_len,
            ..ProfilerConfig::default()
        }),
        Software::CritIcIdeal => Some(ProfilerConfig::ideal()),
    }
}

/// One workbench over an explicit store builds each shared artifact once:
/// the baseline, every hardware point and every software scheme of the
/// grid cost exactly one recording (of the world the test built), no
/// cone, one baseline per distinct (cpu, mem) pair and one profile per
/// distinct profiler configuration. The workbench streams, so the world is
/// the only one built.
#[test]
fn workbench_builds_each_shared_artifact_once() {
    let app = &Suite::Mobile.apps()[0];
    let store = Arc::new(ArtifactStore::new());
    let world = store.world(app, 4_000).expect("world");
    let mut bench = Workbench::from_world(app, world, Arc::clone(&store));
    let mut hardware = HashSet::new();
    let mut profiles = HashSet::new();
    let points = sensitivity_grid().into_iter().map(|s| s.point);
    for point in std::iter::once(DesignPoint::baseline()).chain(points) {
        if let Err(e) = bench.try_run(&point) {
            panic!("{}: {e}", point.label());
        }
        if matches!(point.software, Software::Baseline) {
            hardware.insert(format!("{:?}", (point.cpu_config(), point.mem_config())));
        }
        if let Some(config) = profiler_config(&point.software) {
            profiles.insert(format!("{config:?}"));
        }
    }
    assert!(hardware.len() > 1 && profiles.len() > 1);

    let stats = store.stats();
    assert_eq!(stats.worlds_built, 1, "{stats:?}");
    assert_eq!(stats.recordings_built, 1, "{stats:?}");
    assert_eq!(stats.cones_built, 0, "{stats:?}");
    assert_eq!(stats.baselines_built, hardware.len() as u64, "{stats:?}");
    assert_eq!(stats.profiles_built, profiles.len() as u64, "{stats:?}");
    // Seven profiler configurations profile three prefixes (72%, 25%, 50%).
    assert_eq!(stats.folds_built, 3, "{stats:?}");
    assert_eq!(stats.baseline_execs_built, 0, "{stats:?}");
}

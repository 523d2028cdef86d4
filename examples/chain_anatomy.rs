//! Chain anatomy: walk the paper's Sec. II/III concepts on a real trace —
//! critical instructions, the Fig. 1b gap histogram, IC extraction, the
//! average-fanout criticality metric, and Thumb convertibility.
//!
//! ```text
//! cargo run --release --example chain_anatomy
//! ```

use critics::profiler::{
    chains::extract_dynamic_ics, CriticalitySummary, Dfg, GapHistogram, Profiler, ProfilerConfig,
};
use critics::workloads::suite::Suite;
use critics::workloads::{ExecutionPath, Trace};

fn main() {
    let app = &Suite::Mobile.apps()[5]; // Maps: the paper's dataflow-heaviest app
    let program = app.generate_program();
    let path = ExecutionPath::generate(&program, app.path_seed(), 80_000);
    let trace = Trace::expand(&program, &path);
    let fanout = trace.compute_fanout();

    // Critical instructions (Sec. II-A): fanout >= 8.
    let summary = CriticalitySummary::measure(&trace, &fanout, 8);
    println!(
        "{}: {} dynamic instructions, {:.1}% critical (max fanout {})",
        app.name,
        summary.instructions,
        summary.critical_frac() * 100.0,
        summary.max_fanout
    );

    // Fig. 1b: gaps between dependent criticals.
    let dfg = Dfg::build(&trace);
    let hist = GapHistogram::measure(&dfg, &fanout, 8);
    println!("gap histogram: none {:.2}, gaps 0..5+:", hist.none_frac());
    for g in 0..=5 {
        println!(
            "  {} low-fanout instructions in between: {:.1}%",
            g,
            hist.gap_frac(g) * 100.0
        );
    }

    // Fig. 5a: dynamic ICs.
    let chains = extract_dynamic_ics(&trace, &dfg, &fanout, 8192, 4096);
    let longest = chains.iter().max_by_key(|c| c.len()).expect("chains exist");
    println!(
        "{} dynamic ICs; longest has {} members spread over {} instructions",
        chains.len(),
        longest.len(),
        longest.spread()
    );

    // CritIC selection (Sec. III-A): average fanout per instruction.
    let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &path, &trace);
    println!(
        "profile: {} CritICs selected, {:.1}% dynamic coverage, {:.1}% thumb-convertible",
        profile.chains.len(),
        profile.dynamic_coverage * 100.0,
        profile.stats.convertible_frac * 100.0
    );
    if let Some(top) = profile.chains.first() {
        println!(
            "hottest CritIC (block {}, avg fanout {:.1}):",
            top.block, top.avg_fanout
        );
        let block = program.block(top.block);
        for &uid in &top.uids {
            let pos = block.position_of(uid).expect("uid in block");
            println!("  {}", block.insns[pos].insn);
        }
    }
}

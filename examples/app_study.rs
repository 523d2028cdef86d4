//! App study: the Fig. 10 design space over every Table II mobile app.
//!
//! ```text
//! cargo run --release --example app_study [trace_len]
//! ```

use critics::core::experiments;

fn main() {
    let trace_len = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120_000);
    println!("running the CritIC design space over 10 mobile apps ({trace_len} insns each)…\n");
    let rows = experiments::fig10(&experiments::FigureRun::new(trace_len), 10);
    println!(
        "{:12} {:>8} {:>8} {:>8} {:>14} {:>10} {:>10}",
        "app", "hoist", "critic", "ideal", "branch-switch", "cpu-E", "system-E"
    );
    for r in &rows {
        println!(
            "{:12} {:>7.2}% {:>7.2}% {:>7.2}% {:>13.2}% {:>9.2}% {:>9.2}%",
            r.app,
            (r.hoist - 1.0) * 100.0,
            (r.critic - 1.0) * 100.0,
            (r.critic_ideal - 1.0) * 100.0,
            (r.branch_switch - 1.0) * 100.0,
            r.cpu_energy_saving * 100.0,
            r.system_energy_saving * 100.0
        );
    }
    let mean =
        |f: fn(&experiments::Fig10Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    println!(
        "\nmean: critic {:+.2}% (paper: +12.65%), system energy {:+.2}% (paper: +4.6%)",
        (mean(|r| r.critic) - 1.0) * 100.0,
        mean(|r| r.system_energy_saving) * 100.0
    );
    println!("see EXPERIMENTS.md for the paper-vs-measured discussion");
}

//! Hardware comparison (paper Fig. 11): conventional fetch mechanisms vs
//! the software-only CritIC, and their synergy.
//!
//! ```text
//! cargo run --release --example hardware_comparison [trace_len]
//! ```

use critics::core::experiments;

fn main() {
    let trace_len = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120_000);
    println!("comparing hardware fetch mechanisms on 5 mobile apps…\n");
    let rows = experiments::fig11(&experiments::FigureRun::new(trace_len), 5);
    println!(
        "{:14} {:>9} {:>12} {:>12} {:>12}",
        "mechanism", "speedup", "with CritIC", "dStallForI", "dStallForR+D"
    );
    for r in &rows {
        println!(
            "{:14} {:>8.2}% {:>11.2}% {:>11.2}pp {:>11.2}pp",
            r.mechanism,
            (r.speedup - 1.0) * 100.0,
            (r.with_critic - 1.0) * 100.0,
            r.d_stall_i * 100.0,
            r.d_stall_rd * 100.0
        );
    }
    println!("\nthe paper's point: CritIC needs no hardware yet composes with all of these");
}

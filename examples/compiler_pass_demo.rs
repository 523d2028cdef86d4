//! Compiler-pass demo (paper Fig. 9): show a basic block before and after
//! the CritIC instrumentation pass — hoisted members, 16-bit encodings, and
//! the CDP format switch — plus the binary-level encodings of Fig. 6.
//!
//! ```text
//! cargo run --release --example compiler_pass_demo
//! ```

use critics::compiler::{apply_critic_pass, CriticPassOptions};
use critics::isa::{encode, Insn, Opcode, Reg};
use critics::profiler::{Profiler, ProfilerConfig};
use critics::workloads::suite::Suite;
use critics::workloads::{ExecutionPath, Trace};

fn main() {
    // Fig. 6: the two encodings and the CDP switch.
    println!("== Fig. 6: instruction formats ==");
    let add = Insn::alu(Opcode::Add, Reg::R1, &[Reg::R2, Reg::R3]);
    let word = encode::encode(&add).expect("arm32 encodes");
    println!("  32-bit ARM   {}  =>  {}", add, word);
    let half = encode::encode(&add.to_thumb().expect("convertible")).expect("thumb encodes");
    println!("  16-bit Thumb {}  =>  {}", add, half);
    let cdp = Insn::cdp(5);
    println!(
        "  switch       {}  =>  {}",
        cdp,
        encode::encode(&cdp).expect("cdp encodes")
    );

    // Fig. 9: code generation on a profiled app.
    let app = &Suite::Mobile.apps()[0];
    let program = app.generate_program();
    let path = ExecutionPath::generate(&program, app.path_seed(), 80_000);
    let trace = Trace::expand(&program, &path);
    let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &path, &trace);
    let spec = profile.chains.first().expect("profile has chains").clone();

    println!("\n== Fig. 9: block {} before the pass ==", spec.block);
    for t in &program.block(spec.block).insns {
        let marker = if spec.uids.contains(&t.uid) { "*" } else { " " };
        println!("  {marker} {}", t.insn);
    }

    let mut optimized = program.clone();
    let report = apply_critic_pass(&mut optimized, &profile, CriticPassOptions::default());
    println!(
        "\n== after the pass ({} chains applied overall) ==",
        report.chains_applied
    );
    for t in &optimized.block(spec.block).insns {
        let marker = if spec.uids.contains(&t.uid) {
            "*"
        } else if t.insn.op().is_format_switch() {
            ">"
        } else {
            " "
        };
        println!("  {marker} {} [{}]", t.insn, t.insn.width());
    }
    println!(
        "\nbinary: {} -> {} bytes ({} instructions to 16-bit)",
        program.code_bytes(),
        optimized.code_bytes(),
        report.insns_converted
    );
}

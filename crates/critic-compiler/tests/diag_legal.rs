use critic_profiler::{Profiler, ProfilerConfig};
use critic_workloads::suite::Suite;
use critic_workloads::{ExecutionPath, Trace};

#[test]
#[ignore]
fn diag_legal() {
    let app = Suite::Mobile.apps()[0].clone();
    let program = app.generate_program();
    let path = ExecutionPath::generate(&program, app.path_seed(), 240_000);
    let trace = Trace::expand(&program, &path);
    let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &path, &trace);
    let mut shown = 0;
    for spec in &profile.chains {
        let block = program.block(spec.block);
        let positions: Option<Vec<usize>> =
            spec.uids.iter().map(|&u| block.position_of(u)).collect();
        let Some(pos) = positions else { continue };
        // replicate legality check and find the conflict
        let member_set: std::collections::HashSet<usize> = pos.iter().copied().collect();
        let last = *pos.last().unwrap();
        'outer: for x in pos[0]..=last {
            if member_set.contains(&x) {
                continue;
            }
            let xi = &block.insns[x].insn;
            for &p in pos.iter().filter(|&&p| p > x) {
                let m = &block.insns[p].insn;
                let mut reason = "";
                if let Some(md) = m.dst() {
                    if xi.srcs().iter().any(|s| s == md) {
                        reason = "X reads m.dst";
                    }
                    if xi.dst() == Some(md) {
                        reason = "X.dst == m.dst";
                    }
                }
                if let Some(xd) = xi.dst() {
                    if m.srcs().iter().any(|s| s == xd) {
                        reason = "m reads X.dst";
                    }
                }
                let wf = |i: &critic_isa::Insn| {
                    matches!(
                        i.op(),
                        critic_isa::Opcode::Cmp
                            | critic_isa::Opcode::Cmn
                            | critic_isa::Opcode::Tst
                            | critic_isa::Opcode::Vcmp
                    )
                };
                if wf(xi) && m.is_predicated() {
                    reason = "flags: cmp X, pred m";
                }
                if wf(m) && xi.is_predicated() {
                    reason = "flags: pred X, cmp m";
                }
                if !reason.is_empty() && shown < 10 {
                    shown += 1;
                    eprintln!(
                        "block {} chain {:?}: conflict [{}] X@{}={} vs m@{}={}",
                        spec.block, pos, reason, x, xi, p, m
                    );
                    break 'outer;
                }
            }
        }
    }
}

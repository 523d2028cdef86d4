//! Fresh uid allocation for compiler-inserted instructions.

use critic_workloads::{InsnUid, Program};

/// Hands out uids above everything already in the program.
///
/// Inserted CDPs and switch branches need identities for the trace
/// expander; original instructions keep theirs, so memory-address streams
/// survive the rewrite.
#[derive(Debug, Clone)]
pub struct UidAllocator {
    next: u32,
}

impl UidAllocator {
    /// Starts at [`Program::uid_bound`], just after the program's largest
    /// existing uid (at 1 for a program with no instructions), so a
    /// rewritten program's uids stay dense.
    pub fn for_program(program: &Program) -> UidAllocator {
        UidAllocator {
            next: program.uid_bound().max(1) as u32,
        }
    }

    /// A fresh uid.
    pub fn fresh(&mut self) -> InsnUid {
        let uid = InsnUid(self.next);
        self.next += 1;
        uid
    }
}

#[cfg(test)]
mod tests {
    use critic_workloads::{GenParams, ProgramGenerator};

    use super::*;

    #[test]
    fn fresh_uids_do_not_collide() {
        let mut p = GenParams::mobile(3);
        p.num_functions = 8;
        let program = ProgramGenerator::new(p).generate();
        let mut existing: std::collections::HashSet<InsnUid> = program
            .blocks
            .iter()
            .flat_map(|b| &b.insns)
            .map(|t| t.uid)
            .collect();
        let mut alloc = UidAllocator::for_program(&program);
        for _ in 0..100 {
            assert!(existing.insert(alloc.fresh()), "fresh uid collided");
        }
    }

    #[test]
    fn empty_program_starts_at_one() {
        let program = Program {
            name: "empty".into(),
            suite: critic_workloads::suite::Suite::Mobile,
            functions: Vec::new(),
            blocks: Vec::new(),
            mem: Default::default(),
            load_hints: Default::default(),
        };
        let mut alloc = UidAllocator::for_program(&program);
        assert_eq!(alloc.fresh(), InsnUid(1));
    }
}

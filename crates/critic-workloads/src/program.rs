//! The static program model: functions, basic blocks, tagged instructions,
//! terminators, and binary layout.

use critic_isa::{Insn, Width};
use serde::{Deserialize, Serialize};

use crate::ids::{BlockId, FuncId, InsnRef, InsnUid};
use crate::params::MemProfile;
use crate::suite::Suite;

/// An instruction plus the stable identity the trace expander keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaggedInsn {
    /// The instruction itself.
    pub insn: Insn,
    /// Stable identity preserved across compiler rewrites. Instructions the
    /// compiler *inserts* (CDP switches, switch branches) get fresh uids.
    pub uid: InsnUid,
}

impl TaggedInsn {
    /// Pairs an instruction with its uid.
    pub fn new(insn: Insn, uid: InsnUid) -> TaggedInsn {
        TaggedInsn { insn, uid }
    }
}

/// How control leaves a basic block.
///
/// The terminator is semantic CFG metadata; when it implies an actual branch
/// instruction (conditional branch, call, return), that instruction is also
/// present as the block's last [`TaggedInsn`] so it occupies fetch bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Fall through to the next block — no branch instruction.
    Fallthrough(BlockId),
    /// Conditional branch: `taken` with probability `prob_taken`, else
    /// `not_taken`.
    Branch {
        /// Target when the branch is taken.
        taken: BlockId,
        /// Fallthrough block.
        not_taken: BlockId,
        /// Ground-truth probability the branch is taken, used by the path
        /// generator (the pipeline's predictor sees only outcomes).
        prob_taken: f64,
    },
    /// Unconditional jump.
    Jump(BlockId),
    /// Call into `callee`'s entry block; execution resumes at `return_to`.
    Call {
        /// The called function.
        callee: FuncId,
        /// Block control returns to after the callee returns.
        return_to: BlockId,
    },
    /// Return to the caller (pops the path generator's call stack).
    Return,
    /// End of program.
    Exit,
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BasicBlock {
    /// This block's id in the program arena.
    pub id: BlockId,
    /// The function the block belongs to.
    pub func: FuncId,
    /// Instructions in program order (including the terminator's branch
    /// instruction, if any).
    pub insns: Vec<TaggedInsn>,
    /// How control leaves the block.
    pub terminator: Terminator,
}

impl BasicBlock {
    /// Bytes the block occupies, honouring each instruction's width.
    pub fn byte_size(&self) -> u64 {
        self.insns.iter().map(|t| t.insn.fetch_bytes()).sum()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the block has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Looks up an instruction by uid.
    pub fn position_of(&self, uid: InsnUid) -> Option<usize> {
        self.insns.iter().position(|t| t.uid == uid)
    }
}

/// A function: a name and the blocks it owns (ids into the program arena).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// This function's id.
    pub id: FuncId,
    /// Human-readable name (e.g. `f12`).
    pub name: String,
    /// Blocks in layout order; `blocks[0]` is the entry.
    pub blocks: Vec<BlockId>,
}

impl Function {
    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.blocks[0]
    }
}

/// A whole static program (one "app binary").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Workload name (e.g. `Acrobat`).
    pub name: String,
    /// The suite this program models.
    pub suite: Suite,
    /// Functions; `functions[0]` is the program entry.
    pub functions: Vec<Function>,
    /// Arena of all basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<BasicBlock>,
    /// Data-memory behaviour baked in by the generator; the trace expander
    /// uses it to attach identical address streams to every compiled variant
    /// of this binary.
    pub mem: MemProfile,
    /// Uids of critical (chain) loads, whose address class follows
    /// [`MemProfile::critical_load_stride`].
    pub load_hints: std::collections::BTreeSet<u32>,
}

impl Program {
    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (program construction guarantees
    /// validity).
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Mutable access for compiler passes.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// The instruction at `r`.
    pub fn insn(&self, r: InsnRef) -> &TaggedInsn {
        &self.block(r.block).insns[r.index as usize]
    }

    /// The entry block of the entry function.
    pub fn entry(&self) -> BlockId {
        self.functions[0].entry()
    }

    /// Total static instruction count.
    pub fn static_insn_count(&self) -> usize {
        self.blocks.iter().map(BasicBlock::len).sum()
    }

    /// One past the largest uid (0 for a program with no instructions):
    /// the length of every flat per-uid table. [`Program::validate`]
    /// keeps it below `2 * static_insn_count() + 64`, so such a table is
    /// O(static program).
    pub fn uid_bound(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|block| &block.insns)
            .map(|tagged| tagged.uid.0 as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Total code bytes under the current encoding widths.
    pub fn code_bytes(&self) -> u64 {
        self.blocks.iter().map(BasicBlock::byte_size).sum()
    }

    /// Fraction of static instructions currently in 16-bit Thumb format.
    pub fn thumb_fraction(&self) -> f64 {
        let total = self.static_insn_count();
        if total == 0 {
            return 0.0;
        }
        let thumbed = self
            .blocks
            .iter()
            .flat_map(|b| &b.insns)
            .filter(|t| t.insn.width() == Width::Thumb16)
            .count();
        thumbed as f64 / total as f64
    }

    /// Computes the binary layout (byte address of every block and
    /// instruction) under the current encoding widths.
    ///
    /// Layout is recomputed after every compiler pass: converting a chain to
    /// Thumb moves every later instruction, exactly as relinking a real
    /// binary would.
    pub fn layout(&self) -> Layout {
        let mut block_addr = vec![0u64; self.blocks.len()];
        let mut insn_addr: Vec<Vec<u64>> = Vec::with_capacity(self.blocks.len());
        insn_addr.resize_with(self.blocks.len(), Vec::new);
        let mut cursor = CODE_BASE;
        for function in &self.functions {
            // Functions are aligned to 16 bytes, as a linker would.
            cursor = align_up(cursor, 16);
            for &bid in &function.blocks {
                let block = self.block(bid);
                block_addr[bid.index()] = cursor;
                let addrs = &mut insn_addr[bid.index()];
                addrs.reserve(block.insns.len());
                for tagged in &block.insns {
                    addrs.push(cursor);
                    cursor += tagged.insn.fetch_bytes();
                }
            }
        }
        Layout {
            block_addr,
            insn_addr,
            code_end: cursor,
        }
    }
}

/// Base virtual address of the code segment.
pub const CODE_BASE: u64 = 0x0001_0000;

fn align_up(addr: u64, align: u64) -> u64 {
    (addr + align - 1) & !(align - 1)
}

/// Byte addresses of every block and instruction (see [`Program::layout`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Layout {
    block_addr: Vec<u64>,
    insn_addr: Vec<Vec<u64>>,
    code_end: u64,
}

impl Layout {
    /// The start address of every block, by block id: all the layout a
    /// sequential walk needs, since an instruction's address is its
    /// block's plus the sizes of the instructions before it.
    pub(crate) fn into_block_addrs(self) -> Vec<u64> {
        self.block_addr
    }

    /// Start address of a block.
    pub fn block_addr(&self, id: BlockId) -> u64 {
        self.block_addr[id.index()]
    }

    /// Address of one instruction.
    pub fn insn_addr(&self, r: InsnRef) -> u64 {
        self.insn_addr[r.block.index()][r.index as usize]
    }

    /// Total code-segment bytes (footprint), excluding the base offset.
    pub fn code_bytes(&self) -> u64 {
        self.code_end - CODE_BASE
    }
}

#[cfg(test)]
mod tests {
    use critic_isa::{Opcode, Reg};

    use super::*;

    fn tiny_program() -> Program {
        let b0 = BasicBlock {
            id: BlockId(0),
            func: FuncId(0),
            insns: vec![
                TaggedInsn::new(
                    Insn::alu(Opcode::Add, Reg::R0, &[Reg::R1, Reg::R2]),
                    InsnUid(0),
                ),
                TaggedInsn::new(Insn::load(Opcode::Ldr, Reg::R3, Reg::R0, 4), InsnUid(1)),
            ],
            terminator: Terminator::Fallthrough(BlockId(1)),
        };
        let b1 = BasicBlock {
            id: BlockId(1),
            func: FuncId(0),
            insns: vec![TaggedInsn::new(
                Insn::alu(Opcode::Sub, Reg::R4, &[Reg::R3, Reg::R0]),
                InsnUid(2),
            )],
            terminator: Terminator::Exit,
        };
        Program {
            name: "tiny".into(),
            suite: Suite::Mobile,
            functions: vec![Function {
                id: FuncId(0),
                name: "main".into(),
                blocks: vec![BlockId(0), BlockId(1)],
            }],
            blocks: vec![b0, b1],
            mem: MemProfile::default(),
            load_hints: Default::default(),
        }
    }

    #[test]
    fn layout_is_contiguous_and_width_aware() {
        let mut program = tiny_program();
        let layout = program.layout();
        assert_eq!(layout.block_addr(BlockId(0)), CODE_BASE);
        assert_eq!(layout.insn_addr(InsnRef::new(BlockId(0), 0)), CODE_BASE);
        assert_eq!(layout.insn_addr(InsnRef::new(BlockId(0), 1)), CODE_BASE + 4);
        assert_eq!(layout.block_addr(BlockId(1)), CODE_BASE + 8);
        assert_eq!(layout.code_bytes(), 12);

        // Thumb the first instruction: everything after it shifts down.
        let thumbed = program.blocks[0].insns[0].insn.to_thumb().unwrap();
        program.blocks[0].insns[0].insn = thumbed;
        let layout = program.layout();
        assert_eq!(layout.insn_addr(InsnRef::new(BlockId(0), 1)), CODE_BASE + 2);
        assert_eq!(layout.code_bytes(), 10);
        assert!(program.thumb_fraction() > 0.3);
    }

    #[test]
    fn program_accessors() {
        let program = tiny_program();
        assert_eq!(program.static_insn_count(), 3);
        assert_eq!(program.uid_bound(), 3);
        assert_eq!(program.code_bytes(), 12);
        assert_eq!(program.entry(), BlockId(0));
        let r = InsnRef::new(BlockId(1), 0);
        assert_eq!(program.insn(r).uid, InsnUid(2));
        assert_eq!(program.block(BlockId(0)).position_of(InsnUid(1)), Some(1));
        assert_eq!(program.block(BlockId(0)).position_of(InsnUid(9)), None);
    }

    #[test]
    fn function_alignment_pads_layout() {
        let mut program = tiny_program();
        // Add a second function whose entry should be 16-byte aligned.
        program.blocks.push(BasicBlock {
            id: BlockId(2),
            func: FuncId(1),
            insns: vec![TaggedInsn::new(Insn::nop(), InsnUid(3))],
            terminator: Terminator::Return,
        });
        program.functions.push(Function {
            id: FuncId(1),
            name: "callee".into(),
            blocks: vec![BlockId(2)],
        });
        let layout = program.layout();
        assert_eq!(layout.block_addr(BlockId(2)) % 16, 0);
        assert!(layout.block_addr(BlockId(2)) >= CODE_BASE + 12);
    }
}

impl Program {
    /// Renders a human-readable disassembly listing of one function.
    ///
    /// ```
    /// # use critic_workloads::suite::Suite;
    /// let mut app = Suite::Mobile.apps()[0].clone();
    /// app.params.num_functions = 4;
    /// let program = app.generate_program();
    /// let listing = program.disassemble_function(critic_workloads::FuncId(0));
    /// assert!(listing.contains("f0:"));
    /// ```
    pub fn disassemble_function(&self, func: FuncId) -> String {
        let layout = self.layout();
        let function = &self.functions[func.index()];
        let mut out = format!("{}:\n", function.name);
        for &bid in &function.blocks {
            let block = self.block(bid);
            out.push_str(&format!("  {}:            ; {:?}\n", bid, block.terminator));
            for (index, tagged) in block.insns.iter().enumerate() {
                let addr = layout.insn_addr(InsnRef::new(bid, index as u32));
                let width = match tagged.insn.width() {
                    Width::Arm32 => "  ",
                    Width::Thumb16 => ".n",
                };
                out.push_str(&format!("    {addr:06x}{width} {}\n", tagged.insn));
            }
        }
        out
    }

    /// Renders the whole binary's disassembly.
    pub fn disassemble(&self) -> String {
        self.functions
            .iter()
            .map(|f| self.disassemble_function(f.id))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod disasm_tests {
    use crate::generate::ProgramGenerator;
    use crate::params::GenParams;

    #[test]
    fn disassembly_lists_every_instruction() {
        let mut p = GenParams::mobile(17);
        p.num_functions = 6;
        let program = ProgramGenerator::new(p).generate();
        let text = program.disassemble();
        let lines = text
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .count();
        assert_eq!(lines, program.static_insn_count());
        assert!(text.contains("f0:"));
        assert!(text.contains("bb0:"));
    }

    #[test]
    fn thumb_instructions_are_marked() {
        let mut p = GenParams::mobile(18);
        p.num_functions = 4;
        let mut program = ProgramGenerator::new(p).generate();
        // Thumb one instruction and look for the `.n` suffix.
        'outer: for block in &mut program.blocks {
            for t in &mut block.insns {
                if let Ok(thumbed) = t.insn.to_thumb() {
                    t.insn = thumbed;
                    break 'outer;
                }
            }
        }
        assert!(program.disassemble().contains(".n "));
    }
}

//! A small architectural-state interpreter for the model ISA.
//!
//! The interpreter exists for *translation validation*: the differential
//! oracle in `critic-compiler::validate` executes the baseline and the
//! CritIC-transformed variant of a program over identical, deterministically
//! seeded inputs and compares the architectural state they compute. The
//! machine model is therefore deliberately abstract where real hardware
//! detail would make equal-by-construction comparisons impossible:
//!
//! * **Loads** do not read the sparse memory image. Their results are
//!   supplied by the caller (seeded from `(seed, uid, visit)` via
//!   [`seeded_input`]), because the synthetic address streams are keyed on
//!   instruction identity, not on a coherent points-to model — two variants
//!   of one program must see the same input values, not whatever happened
//!   to land at a colliding synthetic address.
//! * **Calls** write a caller-supplied abstract link token to `lr` instead
//!   of a layout-dependent return address, so re-encoding an instruction
//!   (which moves every subsequent PC) cannot masquerade as a dataflow
//!   divergence.
//! * **The PC** is never materialised as a register value; control flow is
//!   replayed from the recorded execution path, not computed.
//!
//! Everything else — ALU arithmetic, NZCV flag generation, predication,
//! store bytes landing in the sparse memory image — follows ARM semantics
//! closely enough that any real operand or ordering bug changes observable
//! state.

use std::collections::BTreeMap;
use std::fmt;

use crate::cond::Cond;
use crate::insn::Insn;
use crate::op::Opcode;
use crate::reg::Reg;

/// The NZCV condition flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Negative: bit 31 of the last flag-setting result.
    pub n: bool,
    /// Zero: the last flag-setting result was zero.
    pub z: bool,
    /// Carry (no-borrow for subtraction).
    pub c: bool,
    /// Signed overflow.
    pub v: bool,
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bit = |b: bool, ch: char| if b { ch } else { '-' };
        write!(
            f,
            "{}{}{}{}",
            bit(self.n, 'N'),
            bit(self.z, 'Z'),
            bit(self.c, 'C'),
            bit(self.v, 'V')
        )
    }
}

impl Flags {
    /// Evaluates an ARM condition code against these flags.
    pub fn passes(&self, cond: Cond) -> bool {
        match cond {
            Cond::Eq => self.z,
            Cond::Ne => !self.z,
            Cond::Cs => self.c,
            Cond::Cc => !self.c,
            Cond::Mi => self.n,
            Cond::Pl => !self.n,
            Cond::Vs => self.v,
            Cond::Vc => !self.v,
            Cond::Hi => self.c && !self.z,
            Cond::Ls => !self.c || self.z,
            Cond::Ge => self.n == self.v,
            Cond::Lt => self.n != self.v,
            Cond::Gt => !self.z && self.n == self.v,
            Cond::Le => self.z || self.n != self.v,
            Cond::Al => true,
        }
    }
}

/// Per-step inputs the interpreter cannot derive from the instruction alone.
///
/// The oracle fills these from the dynamic trace (`mem_addr`) and from
/// deterministic seeding (`load_value`, `link_value`); see the module docs
/// for why loads and links are externalised.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepIo {
    /// Data address for a load or store (from the trace's uid-keyed stream).
    pub mem_addr: Option<u64>,
    /// The value a load receives.
    pub load_value: Option<u32>,
    /// The abstract token a call writes to the link register.
    pub link_value: Option<u32>,
}

/// What executing one instruction did to architectural state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEffect {
    /// Whether the instruction's predicate passed (unpredicated ⇒ `true`).
    pub executed: bool,
    /// Register written this step, with the value.
    pub reg_write: Option<(Reg, u32)>,
    /// Memory bytes written this step.
    pub mem_write: Option<MemWrite>,
    /// Whether the NZCV flags were (re)computed this step.
    pub flags_written: bool,
}

impl StepEffect {
    /// The effect of a predicated-false or effect-free instruction.
    pub fn none(executed: bool) -> StepEffect {
        StepEffect {
            executed,
            reg_write: None,
            mem_write: None,
            flags_written: false,
        }
    }
}

/// A store's footprint: address, value as written (masked to width), bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemWrite {
    /// Byte address of the first byte written.
    pub addr: u64,
    /// The stored value, masked to the access width.
    pub value: u32,
    /// Access width in bytes (1, 2, or 4).
    pub bytes: u8,
}

/// Why a step could not be taken.
///
/// These are *usage* errors — the caller failed to supply an input the
/// instruction needs — not program divergences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepError {
    /// A memory instruction was stepped without [`StepIo::mem_addr`].
    MissingAddress(Opcode),
    /// A load was stepped without [`StepIo::load_value`].
    MissingLoadValue(Opcode),
    /// A call was stepped without [`StepIo::link_value`].
    MissingLinkValue,
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::MissingAddress(op) => {
                write!(f, "memory instruction {op} stepped without an address")
            }
            StepError::MissingLoadValue(op) => {
                write!(f, "load {op} stepped without an input value")
            }
            StepError::MissingLinkValue => f.write_str("call stepped without a link token"),
        }
    }
}

impl std::error::Error for StepError {}

/// Deterministic input seeding: the value the `visit`-th dynamic execution
/// of instruction `uid` observes (initial register images, load results,
/// link tokens all come from this one stream).
///
/// Uses the same splitmix64 finalizer as the trace expander so values are
/// well mixed even for adjacent uids/visits.
pub fn seeded_input(seed: u64, uid: u64, visit: u64) -> u32 {
    let mut x = seed ^ uid.rotate_left(17) ^ visit.rotate_left(43);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 16) as u32
}

/// Sparse byte-granular memory image organised as aligned 64-byte pages.
///
/// The interpreter's hot path executes a store every few steps, and a flat
/// `BTreeMap<u64, u8>` pays a tree probe (and a possible node allocation)
/// per *byte*. Pages amortise that to one probe per store — consecutive
/// stores overwhelmingly hit an already-allocated page, making the common
/// case allocation-free — while a `written` bitmask per page distinguishes
/// "never stored" from "stored zero", preserving exact byte-map semantics
/// for equality and lookups.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct SparseMem {
    pages: BTreeMap<u64, Page>,
}

/// One aligned 64-byte region. Unwritten bytes stay zero forever, so the
/// derived equality over `(written, data)` matches byte-map equality: two
/// pages are equal exactly when the same bytes were stored with the same
/// values.
#[derive(Clone, PartialEq, Eq)]
struct Page {
    written: u64,
    data: [u8; 64],
}

impl SparseMem {
    const PAGE: u64 = 64;

    /// The byte stored at `addr`, or `None` if nothing was ever stored there.
    #[must_use]
    pub fn get(&self, addr: u64) -> Option<u8> {
        let page = self.pages.get(&(addr & !(Self::PAGE - 1)))?;
        let bit = addr % Self::PAGE;
        ((page.written >> bit) & 1 == 1).then_some(page.data[bit as usize])
    }

    /// Stores one byte at `addr`.
    pub fn insert(&mut self, addr: u64, byte: u8) {
        let page = self.pages.entry(addr & !(Self::PAGE - 1)).or_insert(Page {
            written: 0,
            data: [0; 64],
        });
        let bit = addr % Self::PAGE;
        page.written |= 1 << bit;
        page.data[bit as usize] = byte;
    }

    /// Stores the low `bytes` bytes of `value` little-endian at `addr` —
    /// byte for byte what `bytes` calls to [`SparseMem::insert`] store, with
    /// one page probe when the access stays inside one 64-byte page (an
    /// access crossing a page boundary falls back to per-byte inserts).
    pub fn store(&mut self, addr: u64, value: u32, bytes: u8) {
        let offset = addr % Self::PAGE;
        if offset + u64::from(bytes) > Self::PAGE {
            for i in 0..u64::from(bytes) {
                self.insert(addr + i, (value >> (8 * i)) as u8);
            }
            return;
        }
        let page = self.pages.entry(addr - offset).or_insert(Page {
            written: 0,
            data: [0; 64],
        });
        for i in 0..usize::from(bytes) {
            let bit = offset as usize + i;
            page.written |= 1 << bit;
            page.data[bit] = (value >> (8 * i)) as u8;
        }
    }

    /// Number of distinct addresses ever stored to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pages
            .values()
            .map(|p| p.written.count_ones() as usize)
            .sum()
    }

    /// Whether no byte was ever stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // Pages are only created by `insert`, which always sets a bit.
        self.pages.is_empty()
    }

    /// Written addresses in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(addr, _)| addr)
    }

    /// `(address, byte)` pairs in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.pages.iter().flat_map(|(base, page)| {
            (0..Self::PAGE).filter_map(move |i| {
                ((page.written >> i) & 1 == 1).then_some((base + i, page.data[i as usize]))
            })
        })
    }
}

impl fmt::Debug for SparseMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Architectural state: 16 registers, NZCV flags, and a sparse byte-granular
/// memory image populated by stores.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MachineState {
    /// The sixteen architected registers, indexed by [`Reg::index`].
    pub regs: [u32; 16],
    /// The condition flags.
    pub flags: Flags,
    /// Sparse memory: only bytes that stores have written are present.
    pub mem: SparseMem,
}

impl MachineState {
    /// A machine with every register seeded deterministically from `seed`.
    pub fn seeded(seed: u64) -> MachineState {
        let mut regs = [0u32; 16];
        for (i, slot) in regs.iter_mut().enumerate() {
            *slot = seeded_input(seed, u64::MAX - i as u64, 0);
        }
        MachineState {
            regs,
            flags: Flags::default(),
            mem: SparseMem::default(),
        }
    }

    /// Reads a register.
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[usize::from(reg.index())]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        self.regs[usize::from(reg.index())] = value;
    }

    /// Whether an instruction with condition `cond` would execute now.
    pub fn cond_passes(&self, cond: Cond) -> bool {
        self.flags.passes(cond)
    }

    /// Executes one instruction against this state.
    ///
    /// Control-flow instructions only affect dataflow state (a call writes
    /// the link register); actual redirection is the trace replayer's job.
    ///
    /// # Errors
    ///
    /// Returns a [`StepError`] when `io` is missing an input the
    /// instruction requires (an oracle bug, never a program divergence).
    #[inline]
    pub fn step(&mut self, insn: &Insn, io: &StepIo) -> Result<StepEffect, StepError> {
        if !self.cond_passes(insn.cond()) {
            return Ok(StepEffect::none(false));
        }
        let op = insn.op();

        if op.is_store() {
            let addr = io.mem_addr.ok_or(StepError::MissingAddress(op))?;
            let value = insn.srcs().get(0).map(|r| self.reg(r)).unwrap_or(0);
            let bytes: u8 = match op {
                Opcode::Strb => 1,
                Opcode::Strh => 2,
                _ => 4,
            };
            let masked = mask_to_width(value, bytes);
            self.mem.store(addr, masked, bytes);
            return Ok(StepEffect {
                executed: true,
                reg_write: None,
                mem_write: Some(MemWrite {
                    addr,
                    value: masked,
                    bytes,
                }),
                flags_written: false,
            });
        }

        if op.is_load() {
            io.mem_addr.ok_or(StepError::MissingAddress(op))?;
            let raw = io.load_value.ok_or(StepError::MissingLoadValue(op))?;
            let bytes: u8 = match op {
                Opcode::Ldrb => 1,
                Opcode::Ldrh => 2,
                _ => 4,
            };
            let value = mask_to_width(raw, bytes);
            return Ok(self.write_dst(insn, value));
        }

        if op.is_branch() {
            // BL defines lr with an abstract, layout-independent token.
            if op.is_call() {
                let token = io.link_value.ok_or(StepError::MissingLinkValue)?;
                return Ok(self.write_dst(insn, token));
            }
            return Ok(StepEffect::none(true));
        }

        match op {
            Opcode::Cmp | Opcode::Cmn | Opcode::Tst | Opcode::Vcmp => {
                let lhs = insn.srcs().get(0).map(|r| self.reg(r)).unwrap_or(0);
                let rhs = self.second_operand(insn, 1);
                match op {
                    Opcode::Cmp | Opcode::Vcmp => self.set_flags_sub(lhs, rhs),
                    Opcode::Cmn => self.set_flags_add(lhs, rhs),
                    _ => {
                        let r = lhs & rhs;
                        self.flags.n = r & 0x8000_0000 != 0;
                        self.flags.z = r == 0;
                    }
                }
                Ok(StepEffect {
                    executed: true,
                    reg_write: None,
                    mem_write: None,
                    flags_written: true,
                })
            }
            Opcode::Cdp | Opcode::Nop => Ok(StepEffect::none(true)),
            _ => {
                let value = self.alu_value(insn);
                Ok(self.write_dst(insn, value))
            }
        }
    }

    /// Computes the result of a register-writing ALU/multiply/FP-model op.
    fn alu_value(&self, insn: &Insn) -> u32 {
        let op = insn.op();
        let a = insn.srcs().get(0).map(|r| self.reg(r)).unwrap_or(0);
        let b = self.second_operand(insn, 1);
        let c = insn.srcs().get(2).map(|r| self.reg(r)).unwrap_or(0);
        match op {
            Opcode::Add | Opcode::Vadd => a.wrapping_add(b),
            Opcode::Sub | Opcode::Vsub => a.wrapping_sub(b),
            Opcode::Rsb => b.wrapping_sub(a),
            Opcode::And => a & b,
            Opcode::Orr => a | b,
            Opcode::Eor => a ^ b,
            Opcode::Bic => a & !b,
            // `mov` has no first source; its single operand is in slot 0 or
            // the immediate, which is what `a`/`second_operand(.., 0)` find.
            Opcode::Mov => self.second_operand(insn, 0),
            Opcode::Mvn => !self.second_operand(insn, 0),
            Opcode::Lsl => shift_lsl(a, b),
            Opcode::Lsr => shift_lsr(a, b),
            Opcode::Asr => shift_asr(a, b),
            Opcode::Ror => a.rotate_right(b % 32),
            Opcode::Mul | Opcode::Vmul => a.wrapping_mul(b),
            Opcode::Mla => a.wrapping_mul(b).wrapping_add(c),
            Opcode::Smull => (i64::from(a as i32).wrapping_mul(i64::from(b as i32))) as u64 as u32,
            Opcode::Sdiv => {
                let (a, b) = (a as i32, b as i32);
                if b == 0 {
                    0 // ARM sdiv: division by zero yields zero.
                } else {
                    a.wrapping_div(b) as u32
                }
            }
            // ARM udiv: division by zero yields zero.
            Opcode::Udiv | Opcode::Vdiv => a.checked_div(b).unwrap_or(0),
            Opcode::Vsqrt => integer_sqrt(self.second_operand(insn, 0)),
            // Remaining opcodes (mem/branch/compare/pseudo) never reach
            // here; produce the first operand so the arm stays total.
            _ => a,
        }
    }

    /// The operand in source slot `slot`, falling back to the immediate.
    fn second_operand(&self, insn: &Insn, slot: usize) -> u32 {
        match insn.srcs().get(slot) {
            Some(reg) => self.reg(reg),
            None => insn.imm().unwrap_or(0) as u32,
        }
    }

    fn write_dst(&mut self, insn: &Insn, value: u32) -> StepEffect {
        match insn.dst() {
            Some(dst) => {
                self.set_reg(dst, value);
                StepEffect {
                    executed: true,
                    reg_write: Some((dst, value)),
                    mem_write: None,
                    flags_written: false,
                }
            }
            None => StepEffect::none(true),
        }
    }

    fn set_flags_sub(&mut self, a: u32, b: u32) {
        let r = a.wrapping_sub(b);
        self.flags.n = r & 0x8000_0000 != 0;
        self.flags.z = r == 0;
        self.flags.c = a >= b; // no borrow
        self.flags.v = ((a ^ b) & (a ^ r)) & 0x8000_0000 != 0;
    }

    fn set_flags_add(&mut self, a: u32, b: u32) {
        let (r, carry) = a.overflowing_add(b);
        self.flags.n = r & 0x8000_0000 != 0;
        self.flags.z = r == 0;
        self.flags.c = carry;
        self.flags.v = (!(a ^ b) & (a ^ r)) & 0x8000_0000 != 0;
    }
}

fn mask_to_width(value: u32, bytes: u8) -> u32 {
    match bytes {
        1 => value & 0xFF,
        2 => value & 0xFFFF,
        _ => value,
    }
}

fn shift_lsl(a: u32, amount: u32) -> u32 {
    if amount >= 32 {
        0
    } else {
        a << amount
    }
}

fn shift_lsr(a: u32, amount: u32) -> u32 {
    if amount >= 32 {
        0
    } else {
        a >> amount
    }
}

fn shift_asr(a: u32, amount: u32) -> u32 {
    let amount = amount.min(31);
    ((a as i32) >> amount) as u32
}

fn integer_sqrt(x: u32) -> u32 {
    let mut r = (x as f64).sqrt() as u32;
    // Float rounding can land one off in either direction; fix up exactly.
    while r.checked_mul(r).is_none_or(|sq| sq > x) {
        r -= 1;
    }
    while (r + 1).checked_mul(r + 1).is_some_and(|sq| sq <= x) {
        r += 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> MachineState {
        MachineState::seeded(42)
    }

    #[test]
    fn seeding_is_deterministic_and_seed_sensitive() {
        assert_eq!(MachineState::seeded(7), MachineState::seeded(7));
        assert_ne!(MachineState::seeded(7).regs, MachineState::seeded(8).regs);
        assert_eq!(seeded_input(1, 2, 3), seeded_input(1, 2, 3));
        assert_ne!(seeded_input(1, 2, 3), seeded_input(1, 2, 4));
        assert_ne!(seeded_input(1, 2, 3), seeded_input(1, 3, 3));
    }

    #[test]
    fn alu_ops_compute_arm_results() {
        let mut m = fresh();
        m.set_reg(Reg::R1, 10);
        m.set_reg(Reg::R2, 3);
        let io = StepIo::default();
        let cases = [
            (Opcode::Add, 13u32),
            (Opcode::Sub, 7),
            (Opcode::Rsb, u32::MAX - 6), // 3 - 10
            (Opcode::And, 2),
            (Opcode::Orr, 11),
            (Opcode::Eor, 9),
            (Opcode::Bic, 8),
            (Opcode::Mul, 30),
            (Opcode::Lsl, 80),
            (Opcode::Lsr, 1),
        ];
        for (op, expected) in cases {
            let insn = Insn::alu(op, Reg::R0, &[Reg::R1, Reg::R2]);
            let effect = m.step(&insn, &io).expect("alu step");
            assert_eq!(effect.reg_write, Some((Reg::R0, expected)), "{op}");
        }
    }

    #[test]
    fn immediate_operands_take_the_second_slot() {
        let mut m = fresh();
        m.set_reg(Reg::R3, 100);
        let insn = Insn::alu_imm(Opcode::Sub, Reg::R3, Reg::R3, 1);
        let effect = m.step(&insn, &StepIo::default()).expect("sub imm");
        assert_eq!(effect.reg_write, Some((Reg::R3, 99)));
        let mov = Insn::mov_imm(Reg::R5, 42);
        m.step(&mov, &StepIo::default()).expect("mov imm");
        assert_eq!(m.reg(Reg::R5), 42);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        let mut m = fresh();
        m.set_reg(Reg::R1, 99);
        m.set_reg(Reg::R2, 0);
        for op in [Opcode::Sdiv, Opcode::Udiv] {
            let insn = Insn::alu(op, Reg::R0, &[Reg::R1, Reg::R2]);
            let effect = m.step(&insn, &StepIo::default()).expect("div step");
            assert_eq!(effect.reg_write, Some((Reg::R0, 0)), "{op}");
        }
    }

    #[test]
    fn oversized_shifts_saturate() {
        let mut m = fresh();
        m.set_reg(Reg::R1, 0x8000_0001);
        m.set_reg(Reg::R2, 40);
        let lsl = Insn::alu(Opcode::Lsl, Reg::R0, &[Reg::R1, Reg::R2]);
        assert_eq!(
            m.step(&lsl, &StepIo::default()).unwrap().reg_write,
            Some((Reg::R0, 0))
        );
        let asr = Insn::alu(Opcode::Asr, Reg::R0, &[Reg::R1, Reg::R2]);
        assert_eq!(
            m.step(&asr, &StepIo::default()).unwrap().reg_write,
            Some((Reg::R0, u32::MAX)),
            "asr fills with the sign bit"
        );
    }

    #[test]
    fn compare_sets_flags_and_predication_reads_them() {
        let mut m = fresh();
        m.set_reg(Reg::R1, 5);
        m.set_reg(Reg::R2, 5);
        let cmp = Insn::compare(Opcode::Cmp, Reg::R1, Reg::R2);
        let effect = m.step(&cmp, &StepIo::default()).expect("cmp");
        assert!(effect.flags_written);
        assert!(m.flags.z && !m.flags.n && m.flags.c && !m.flags.v);
        assert!(m.cond_passes(Cond::Eq));
        assert!(!m.cond_passes(Cond::Ne));
        assert!(m.cond_passes(Cond::Ge));

        // A predicated-false instruction has no effect.
        let mov = Insn::mov_imm(Reg::R0, 7).with_cond(Cond::Ne);
        let before = m.reg(Reg::R0);
        let effect = m.step(&mov, &StepIo::default()).expect("movne");
        assert!(!effect.executed);
        assert_eq!(m.reg(Reg::R0), before);
    }

    #[test]
    fn signed_conditions_follow_overflow() {
        let mut m = fresh();
        m.set_reg(Reg::R1, 0x8000_0000); // i32::MIN
        m.set_reg(Reg::R2, 1);
        let cmp = Insn::compare(Opcode::Cmp, Reg::R1, Reg::R2);
        m.step(&cmp, &StepIo::default()).expect("cmp");
        // i32::MIN - 1 overflows: N clear... result 0x7FFFFFFF, V set.
        assert!(m.flags.v);
        assert!(m.cond_passes(Cond::Lt), "MIN < 1 signed");
        assert!(m.cond_passes(Cond::Cs), "MIN >= 1 unsigned");
    }

    #[test]
    fn stores_land_in_sparse_memory() {
        let mut m = fresh();
        m.set_reg(Reg::R1, 0xAABB_CCDD);
        let io = StepIo {
            mem_addr: Some(0x1000),
            ..StepIo::default()
        };
        let st = Insn::store(Opcode::Str, Reg::R1, Reg::R2, 0);
        let effect = m.step(&st, &io).expect("str");
        assert_eq!(
            effect.mem_write,
            Some(MemWrite {
                addr: 0x1000,
                value: 0xAABB_CCDD,
                bytes: 4
            })
        );
        assert_eq!(m.mem.get(0x1000), Some(0xDD));
        assert_eq!(m.mem.get(0x1003), Some(0xAA));

        let stb = Insn::store(Opcode::Strb, Reg::R1, Reg::R2, 0);
        let io2 = StepIo {
            mem_addr: Some(0x2000),
            ..StepIo::default()
        };
        let effect = m.step(&stb, &io2).expect("strb");
        assert_eq!(
            effect.mem_write.map(|w| (w.value, w.bytes)),
            Some((0xDD, 1))
        );
        assert_eq!(m.mem.len(), 5);
    }

    #[test]
    fn sparse_mem_distinguishes_stored_zero_from_never_stored() {
        let mut a = SparseMem::default();
        let b = SparseMem::default();
        a.insert(0x40, 0);
        assert_eq!(a.get(0x40), Some(0));
        assert_eq!(b.get(0x40), None);
        assert_ne!(a, b, "a stored zero; b stored nothing");
        assert_eq!(a.len(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn sparse_mem_iterates_in_address_order_across_pages() {
        let mut m = SparseMem::default();
        for addr in [0x203, 0x13F, 0x200, 0x07] {
            m.insert(addr, (addr & 0xFF) as u8);
        }
        m.insert(0x200, 0xEE); // overwrite keeps one entry
        let pairs: Vec<(u64, u8)> = m.iter().collect();
        assert_eq!(
            pairs,
            vec![(0x07, 0x07), (0x13F, 0x3F), (0x200, 0xEE), (0x203, 0x03)]
        );
        assert_eq!(
            m.keys().collect::<Vec<u64>>(),
            vec![0x07, 0x13F, 0x200, 0x203]
        );
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn store_matches_per_byte_inserts_at_every_page_offset() {
        let value = 0xA1B2_C3D4u32;
        for bytes in [1u8, 2, 4] {
            for offset in 0..64u64 {
                // A prior byte in the neighbouring page and one in the
                // stored page check that `store` merges, not replaces.
                let addr = 0x1000 + offset;
                let mut stored = SparseMem::default();
                let mut inserted = SparseMem::default();
                for m in [&mut stored, &mut inserted] {
                    m.insert(0x1000 + (offset + 32) % 64, 0x5A);
                    m.insert(0x1040 + offset, 0xA5);
                }
                stored.store(addr, value, bytes);
                for i in 0..u64::from(bytes) {
                    inserted.insert(addr + i, (value >> (8 * i)) as u8);
                }
                let at = format!("{bytes}-byte store at page offset {offset}");
                assert_eq!(stored, inserted, "{at}");
                assert_eq!(
                    stored.iter().collect::<Vec<_>>(),
                    inserted.iter().collect::<Vec<_>>(),
                    "{at}"
                );
                assert_eq!(stored.len(), inserted.len(), "{at}");
                for probe in 0xFC0..0x10C0 {
                    assert_eq!(
                        stored.get(probe),
                        inserted.get(probe),
                        "{at}: byte {probe:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn loads_take_the_seeded_input_not_memory() {
        let mut m = fresh();
        m.mem.insert(0x1000, 0x99);
        let io = StepIo {
            mem_addr: Some(0x1000),
            load_value: Some(0x1234_5678),
            ..StepIo::default()
        };
        let ld = Insn::load(Opcode::Ldr, Reg::R0, Reg::R2, 0);
        let effect = m.step(&ld, &io).expect("ldr");
        assert_eq!(effect.reg_write, Some((Reg::R0, 0x1234_5678)));
        let ldb = Insn::load(Opcode::Ldrb, Reg::R0, Reg::R2, 0);
        let effect = m.step(&ldb, &io).expect("ldrb");
        assert_eq!(effect.reg_write, Some((Reg::R0, 0x78)), "byte loads mask");
    }

    #[test]
    fn missing_io_is_a_typed_error() {
        let mut m = fresh();
        let ld = Insn::load(Opcode::Ldr, Reg::R0, Reg::R2, 0);
        assert_eq!(
            m.step(&ld, &StepIo::default()),
            Err(StepError::MissingAddress(Opcode::Ldr))
        );
        let io = StepIo {
            mem_addr: Some(0),
            ..StepIo::default()
        };
        assert_eq!(
            m.step(&ld, &io),
            Err(StepError::MissingLoadValue(Opcode::Ldr))
        );
        let bl = Insn::branch(Opcode::Bl, 4);
        assert_eq!(
            m.step(&bl, &StepIo::default()),
            Err(StepError::MissingLinkValue)
        );
    }

    #[test]
    fn calls_write_the_link_token_and_branches_do_nothing() {
        let mut m = fresh();
        let io = StepIo {
            link_value: Some(0xBEEF),
            ..StepIo::default()
        };
        let bl = Insn::branch(Opcode::Bl, 16);
        let effect = m.step(&bl, &io).expect("bl");
        assert_eq!(effect.reg_write, Some((Reg::LR, 0xBEEF)));
        let b = Insn::branch(Opcode::B, -4);
        let effect = m.step(&b, &StepIo::default()).expect("b");
        assert_eq!(effect, StepEffect::none(true));
        let cdp = Insn::cdp(3);
        assert_eq!(
            m.step(&cdp, &StepIo::default()).unwrap(),
            StepEffect::none(true)
        );
    }

    #[test]
    fn width_does_not_change_semantics() {
        // The whole point of validation: re-encoding must be meaning-
        // preserving, so the interpreter must treat widths identically.
        let insn = Insn::alu_imm(Opcode::Add, Reg::R4, Reg::R4, 5);
        let thumbed = insn.to_thumb().expect("convertible");
        let mut a = fresh();
        let mut b = fresh();
        a.step(&insn, &StepIo::default()).expect("arm step");
        b.step(&thumbed, &StepIo::default()).expect("thumb step");
        assert_eq!(a, b);
    }

    #[test]
    fn integer_sqrt_is_exact() {
        for x in [0u32, 1, 2, 3, 4, 15, 16, 17, 24, 25, u32::MAX] {
            let r = integer_sqrt(x);
            assert!(u64::from(r) * u64::from(r) <= u64::from(x));
            assert!((u64::from(r) + 1) * (u64::from(r) + 1) > u64::from(x));
        }
    }
}

//! Dynamic traces: the instruction stream a (program, path) pair produces.
//!
//! The expander resolves register (and flag) dependences with a last-writer
//! scan, attaches memory addresses keyed on each instruction's stable
//! [`InsnUid`] (so data behaviour is identical across compiled variants),
//! and records branch outcomes. The result is the flat format every timing
//! and profiling component consumes.

use critic_isa::{FuKind, Insn, Opcode};
use serde::{Deserialize, Serialize};

use crate::ids::{BlockId, InsnRef, InsnUid};
use crate::params::MemProfile;
use crate::path::ExecutionPath;
use crate::program::{Program, TaggedInsn};

/// Sentinel dependence slot value: no producer.
pub const NO_DEP: u32 = u32::MAX;

/// Base virtual address of the data segment.
pub const DATA_BASE: u64 = 0x1000_0000;

/// Outcome of a dynamic branch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchOutcome {
    /// Whether the branch redirected (unconditional branches always do).
    pub taken: bool,
    /// Byte address control transferred to (the next instruction's address
    /// for a not-taken branch).
    pub target_pc: u64,
}

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynInsn {
    /// Stable identity of the static instruction.
    pub uid: InsnUid,
    /// Static position.
    pub at: InsnRef,
    /// Byte address fetched from.
    pub pc: u64,
    /// Opcode.
    pub op: Opcode,
    /// Fetch bytes (2 for Thumb, 4 for ARM).
    pub bytes: u8,
    /// Whether the instruction carries a non-AL condition.
    pub predicated: bool,
    /// Producers of this instruction's register/flag inputs, as indices into
    /// the trace ([`NO_DEP`] marks empty slots).
    pub deps: [u32; 3],
    /// Data address for loads/stores.
    pub mem_addr: Option<u64>,
    /// Branch outcome for control-flow instructions.
    pub branch: Option<BranchOutcome>,
}

impl DynInsn {
    /// Iterates over the real (non-sentinel) dependence indices.
    pub fn deps_iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.deps.iter().copied().filter(|&d| d != NO_DEP)
    }

    /// Whether this is the CDP decoder format switch.
    pub fn is_cdp(&self) -> bool {
        self.op.is_format_switch()
    }

    /// Whether this instruction reads memory.
    pub fn is_load(&self) -> bool {
        self.op.is_load()
    }

    /// The functional unit the instruction executes on.
    pub fn fu_kind(&self) -> FuKind {
        self.op.fu_kind()
    }
}

/// A dynamic instruction stream plus bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Workload name (copied from the program).
    pub name: String,
    /// The dynamic instructions in fetch order.
    pub entries: Vec<DynInsn>,
}

impl Trace {
    /// Expands a block path over a program variant into the dynamic stream.
    ///
    /// The same `path` expands differently over differently-compiled
    /// variants of the same binary: instruction PCs shift with the layout,
    /// inserted CDPs/switch branches appear, and hoisting changes dependence
    /// *distances* — while memory addresses and branch outcomes stay fixed,
    /// because they key on [`InsnUid`]s and the path respectively.
    pub fn expand(program: &Program, path: &ExecutionPath) -> Trace {
        let mut trace = Trace {
            name: String::new(),
            entries: Vec::new(),
        };
        Trace::expand_into(program, path, &mut trace);
        trace
    }

    /// Allocation-reusing form of [`Trace::expand`]: re-expands into `out`,
    /// recycling its entry buffer. Campaign workbenches re-expand one
    /// variant trace per (app, scheme) cell; reusing the multi-megabyte
    /// entry vector keeps that off the allocator's hot path.
    pub fn expand_into(program: &Program, path: &ExecutionPath, out: &mut Trace) {
        out.name.clear();
        out.name.push_str(&program.name);
        let entries = &mut out.entries;
        entries.clear();
        entries.reserve(path.dyn_insns(program));
        // The materialized expansion and the streaming expansion
        // ([`crate::stream::TraceStream`]) share one cursor, so they are
        // identical entry-for-entry by construction.
        let block_addrs = program.layout().into_block_addrs();
        let addrs = AddrStream::for_program(program);
        let mut cursor = ExpandCursor::new(program, path, &block_addrs, addrs);
        while let Some(entry) = cursor.next(&block_addrs) {
            entries.push(entry);
        }
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the dynamic instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, DynInsn> {
        self.entries.iter()
    }

    /// Computes each dynamic instruction's fanout: the number of later
    /// dynamic instructions that consume its result directly.
    ///
    /// This is the criticality raw material of the paper (Sec. II-A):
    /// instructions whose fanout exceeds a threshold get marked critical.
    pub fn compute_fanout(&self) -> Vec<u32> {
        let mut fanout = Vec::new();
        self.compute_fanout_into(&mut fanout);
        fanout
    }

    /// Allocation-reusing form of [`Trace::compute_fanout`].
    pub fn compute_fanout_into(&self, fanout: &mut Vec<u32>) {
        let n = self.entries.len();
        fanout.clear();
        fanout.resize(n, 0u32);
        // Flag-setting compares produce no forwardable value; their
        // predication "readers" are control, not dataflow, so they do not
        // make a compare critical (Sec. II-A reasons about value fan-out).
        // Dependences point strictly backwards, so the compare flags can be
        // forward-filled in the same pass: by the time an entry consults
        // `is_compare[dep]` its producer has already been classified. That
        // keeps each dep lookup inside a dense bit table instead of
        // random-accessing the much larger `DynInsn` records.
        let mut is_compare = vec![false; n];
        for (i, entry) in self.entries.iter().enumerate() {
            for dep in entry.deps_iter() {
                if !is_compare[dep as usize] {
                    fanout[dep as usize] += 1;
                }
            }
            is_compare[i] = sets_flags(entry.op);
        }
    }

    /// Computes each dynamic instruction's *cone* fanout: the number of
    /// later instructions within a `window`-instruction horizon (the ROB)
    /// that transitively require its output before they can begin — the
    /// paper's Sec. II-A phrasing of the ROB-observed criticality metric.
    ///
    /// Direct fanout ([`Trace::compute_fanout`]) is the right measure for
    /// the per-instruction critical/non-critical classification (Fig. 2's
    /// example reasons about direct dependents); the cone is the right
    /// measure for the *chain-level* criticality aggregate, whose coverage
    /// arithmetic is otherwise impossible (total direct reads are ~1.3 per
    /// instruction, so 30% of the stream cannot average 8 direct readers).
    ///
    /// # Panics
    ///
    /// Panics if `window` exceeds 128.
    pub fn compute_cone_fanout(&self, window: usize) -> Vec<u32> {
        assert!(
            (1..=128).contains(&window),
            "cone window must be 1..=128 (u128 masks)"
        );
        let n = self.entries.len();
        let mut cones = vec![0u32; n];
        // masks[i]: bit k set ⇔ instruction i + 1 + k transitively depends
        // on i. Built backwards: by the time we visit i, every consumer has
        // contributed its own (shifted) cone.
        let mut masks = vec![0u128; n];
        let keep: u128 = if window == 128 {
            u128::MAX
        } else {
            (1u128 << window) - 1
        };
        for c in (0..n).rev() {
            let cmask = masks[c] & keep;
            cones[c] = cmask.count_ones();
            for d in self.entries[c].deps_iter() {
                let dist = (c as u32 - d) as usize;
                if dist <= window {
                    // At dist == 128 the consumer's own cone shifts fully
                    // out of the horizon; only the direct-dependent bit
                    // remains.
                    let shifted = if dist < 128 { cmask << dist } else { 0 };
                    masks[d as usize] |= shifted | (1u128 << (dist - 1));
                }
            }
        }
        cones
    }

    /// Total bytes fetched for the whole stream.
    pub fn fetch_bytes(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.bytes)).sum()
    }

    /// Fraction of dynamic instructions in the 16-bit format.
    pub fn thumb_fraction(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let thumbed = self.entries.iter().filter(|e| e.bytes == 2).count();
        thumbed as f64 / self.entries.len() as f64
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a DynInsn;
    type IntoIter = std::slice::Iter<'a, DynInsn>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Whether `op` is a flag-setting compare (produces no forwardable value;
/// its predication readers are control, not dataflow).
#[inline]
pub(crate) fn sets_flags(op: Opcode) -> bool {
    matches!(op, Opcode::Cmp | Opcode::Cmn | Opcode::Tst | Opcode::Vcmp)
}

/// Resolves one instruction's dependence slots against the current
/// last-writer tables: register sources first, then the flags producer for
/// predicated instructions and conditional branches. Shared verbatim by the
/// materialized expansion, the streaming expansion, and the streaming
/// fanout prepass, so all three resolve identical edges (including the
/// dedupe and the 3-slot truncation quirks).
#[inline]
pub(crate) fn resolve_deps(insn: &Insn, last_writer: &[u32; 16], flags_writer: u32) -> [u32; 3] {
    let mut deps = [NO_DEP; 3];
    let mut nd = 0usize;
    for src in insn.srcs().iter() {
        let producer = last_writer[src.index() as usize];
        if producer != NO_DEP && !deps[..nd].contains(&producer) && nd < 3 {
            deps[nd] = producer;
            nd += 1;
        }
    }
    if insn.is_predicated()
        && flags_writer != NO_DEP
        && nd < 3
        && !deps[..nd].contains(&flags_writer)
    {
        deps[nd] = flags_writer;
    }
    deps
}

/// The single-instruction expansion state machine both trace producers
/// drive: [`Trace::expand_into`] materializes every yielded entry,
/// [`crate::stream::TraceStream`] holds only a bounded ring of them.
///
/// The cursor owns all expansion state — last-writer tables, the uid-keyed
/// address stream, and the block/instruction position — so one `next` call
/// yields exactly the entry the materialized loop would have pushed next.
/// The program's block start addresses are the caller's
/// ([`Layout`](crate::Layout)'s, by block id), passed to every call, so a stream can
/// share them with every other stream over the program; an instruction's
/// PC is its block's address plus the sizes of the instructions before it,
/// exactly as [`Program::layout`] places it.
pub(crate) struct ExpandCursor<'a> {
    program: &'a Program,
    path: &'a ExecutionPath,
    // Last dynamic writer of each architected register, plus the flags.
    last_writer: [u32; 16],
    flags_writer: u32,
    addrs: AddrStream,
    step: usize,
    index: usize,
    /// The PC of the instruction at (`step`, `index`).
    pc: u64,
    next_block_pc: Option<u64>,
    emitted: u32,
}

impl<'a> ExpandCursor<'a> {
    /// A cursor at the start of `path`; `block_addrs` must be `program`'s
    /// block start addresses, and `addrs` sized for it
    /// ([`AddrStream::for_program`]).
    pub(crate) fn new(
        program: &'a Program,
        path: &'a ExecutionPath,
        block_addrs: &[u64],
        addrs: AddrStream,
    ) -> ExpandCursor<'a> {
        let addr_of = |step: usize| path.blocks.get(step).map(|b| block_addrs[b.index()]);
        ExpandCursor {
            program,
            path,
            last_writer: [NO_DEP; 16],
            flags_writer: NO_DEP,
            addrs,
            step: 0,
            index: 0,
            pc: addr_of(0).unwrap_or(0),
            next_block_pc: addr_of(1),
            emitted: 0,
        }
    }

    /// Hands back the address tables for the next cursor over a program.
    pub(crate) fn into_addrs(self) -> AddrStream {
        self.addrs
    }

    /// Bytes resident in the cursor's own state (the visit counters are
    /// O(static program), not O(trace)).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.addrs.resident_bytes()
    }

    /// Yields the next dynamic instruction, or `None` once the path is
    /// exhausted. `block_addrs` are the ones the cursor was opened with.
    #[inline]
    pub(crate) fn next(&mut self, block_addrs: &[u64]) -> Option<DynInsn> {
        loop {
            let &bid = self.path.blocks.get(self.step)?;
            let block = self.program.block(bid);
            if self.index >= block.insns.len() {
                self.step += 1;
                self.index = 0;
                // The block now at `step` starts where the previous one
                // said its successor does.
                self.pc = self.next_block_pc.unwrap_or(0);
                self.next_block_pc = self
                    .path
                    .blocks
                    .get(self.step + 1)
                    .map(|next| block_addrs[next.index()]);
                continue;
            }
            let last_index = block.insns.len() - 1;
            let index = self.index;
            let tagged = &block.insns[index];
            let insn = &tagged.insn;
            let op = insn.op();
            let idx = self.emitted;
            let pc = self.pc;

            let deps = resolve_deps(insn, &self.last_writer, self.flags_writer);

            let mem_addr = self.addrs.next(self.program, tagged);

            // Branch outcome.
            let branch = if op.is_branch() {
                let fallthrough_pc = pc + insn.fetch_bytes();
                if index == last_index {
                    match self.next_block_pc {
                        Some(target_pc) => Some(BranchOutcome {
                            taken: target_pc != fallthrough_pc,
                            target_pc,
                        }),
                        None => Some(BranchOutcome {
                            taken: false,
                            target_pc: fallthrough_pc,
                        }),
                    }
                } else {
                    // Mid-block branch: a compiler-inserted format-switch
                    // branch whose target is the next instruction
                    // (paper Sec. IV-A).
                    Some(BranchOutcome {
                        taken: true,
                        target_pc: fallthrough_pc,
                    })
                }
            } else {
                None
            };

            let entry = DynInsn {
                uid: tagged.uid,
                at: InsnRef::new(bid, index as u32),
                pc,
                op,
                bytes: insn.fetch_bytes() as u8,
                predicated: insn.is_predicated(),
                deps,
                mem_addr,
                branch,
            };

            // Update writer tables.
            if let Some(dst) = insn.dst() {
                self.last_writer[dst.index() as usize] = idx;
            }
            if sets_flags(op) {
                self.flags_writer = idx;
            }
            self.emitted += 1;
            self.index += 1;
            self.pc = pc + insn.fetch_bytes();
            return Some(entry);
        }
    }
}

/// The uid-keyed data-address stream of one program: per-uid visit
/// counters over the program's memory profile and load hints.
/// [`ExpandCursor`] and [`ArchWalk`] both draw their addresses from it, so
/// the traced and the architectural walks of one (program, path) pair
/// touch identical addresses by construction.
#[derive(Debug, Default)]
pub(crate) struct AddrStream {
    // Per-uid visit counters of memory instructions. A valid program's
    // uids are dense, so a flat vector sized once per program by
    // `Program::uid_bound` replaces hashing on this hottest expansion path.
    visits: Vec<u64>,
    // Per-uid address class (`CLASS_*`), load-hint override applied, filled
    // on the uid's first visit: every later visit skips the hint lookup and
    // the classification.
    classes: Vec<u8>,
}

/// [`AddrStream::classes`] values.
const CLASS_UNSET: u8 = 0;
const CLASS_STRIDE: u8 = 1;
const CLASS_HOT: u8 = 2;
const CLASS_RANDOM: u8 = 3;

impl AddrStream {
    /// Fresh tables for a program whose uids are below `uids`
    /// ([`Program::uid_bound`]), recycling `self`'s buffers.
    pub(crate) fn reset(mut self, uids: usize) -> AddrStream {
        self.visits.clear();
        self.visits.resize(uids, 0);
        self.classes.clear();
        self.classes.resize(uids, CLASS_UNSET);
        self
    }

    /// Fresh tables sized for `program`.
    pub(crate) fn for_program(program: &Program) -> AddrStream {
        AddrStream::default().reset(program.uid_bound())
    }

    /// The data address this execution of `tagged` touches (`None` for a
    /// non-memory instruction), advancing its uid's visit count. `program`
    /// must be the program `tagged` belongs to, on every call, and the
    /// tables sized for it.
    #[inline]
    fn next(&mut self, program: &Program, tagged: &TaggedInsn) -> Option<u64> {
        if !tagged.insn.op().is_mem() {
            return None;
        }
        let slot = tagged.uid.0 as usize;
        let profile = &program.mem;
        let h = splitmix(u64::from(tagged.uid.0) ^ profile.seed);
        if self.classes[slot] == CLASS_UNSET {
            let hinted = program.load_hints.contains(&tagged.uid.0);
            self.classes[slot] = addr_class(profile, h, hinted);
        }
        let visit = self.visits[slot];
        self.visits[slot] += 1;
        Some(class_address(profile, h, self.classes[slot], visit))
    }

    pub(crate) fn resident_bytes(&self) -> usize {
        self.visits.capacity() * std::mem::size_of::<u64>() + self.classes.capacity()
    }
}

/// One dynamic instruction of an [`ArchWalk`].
#[derive(Debug, Clone, Copy)]
pub struct ArchStep<'a> {
    /// Static position.
    pub at: InsnRef,
    /// The static instruction executed, with its stable uid.
    pub tagged: &'a TaggedInsn,
    /// Data address for loads/stores, identical to the
    /// [`DynInsn::mem_addr`] [`Trace::expand`] records for this step.
    pub mem_addr: Option<u64>,
}

/// The architectural walk of a (program, path) pair: every dynamic
/// instruction's static instruction and data address, in fetch order.
///
/// It is [`Trace::expand`] without the timing model's bookkeeping — no
/// dependence slots, PCs, branch outcomes or materialized entries — for
/// consumers that only execute the stream, such as the differential
/// oracle. Both draw addresses from one private address stream, so the
/// `(uid, at, mem_addr)` sequences agree exactly.
pub struct ArchWalk<'a> {
    program: &'a Program,
    blocks: std::slice::Iter<'a, BlockId>,
    block: BlockId,
    insns: std::iter::Enumerate<std::slice::Iter<'a, TaggedInsn>>,
    addrs: AddrStream,
}

impl<'a> ArchWalk<'a> {
    /// Starts a walk at the first block of `path`.
    pub fn new(program: &'a Program, path: &'a ExecutionPath) -> ArchWalk<'a> {
        ArchWalk {
            program,
            blocks: path.blocks.iter(),
            block: BlockId(0),
            insns: [].iter().enumerate(),
            addrs: AddrStream::for_program(program),
        }
    }
}

impl<'a> Iterator for ArchWalk<'a> {
    type Item = ArchStep<'a>;

    #[inline]
    fn next(&mut self) -> Option<ArchStep<'a>> {
        loop {
            if let Some((index, tagged)) = self.insns.next() {
                return Some(ArchStep {
                    at: InsnRef::new(self.block, index as u32),
                    tagged,
                    mem_addr: self.addrs.next(self.program, tagged),
                });
            }
            let &bid = self.blocks.next()?;
            self.block = bid;
            self.insns = self.program.block(bid).insns.iter().enumerate();
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The address class of a uid with hash `h` — `mem_address`'s
/// classification, with the critical-load hint applied.
fn addr_class(profile: &MemProfile, h: u64, critical_hint: bool) -> u8 {
    // Critical (chain) loads have a suite-determined class: SPEC's stream,
    // mobile's stay hot (Fig. 3c). The hinted values land in the stride
    // and hot branches below by the same comparisons as the hashed ones.
    let class = if critical_hint {
        if profile.critical_load_stride {
            0.0
        } else {
            profile.stride_frac + 1e-9
        }
    } else {
        (h >> 32) as f64 / f64::from(u32::MAX)
    };
    if class < profile.stride_frac {
        CLASS_STRIDE
    } else if class < profile.stride_frac + profile.hot_frac {
        CLASS_HOT
    } else {
        CLASS_RANDOM
    }
}

/// The `visit`-th address of a uid with hash `h` and class `class`:
/// `mem_address`'s per-class arithmetic.
#[inline]
fn class_address(profile: &MemProfile, h: u64, class: u8, visit: u64) -> u64 {
    let ws = profile.working_set_bytes.max(64);
    let addr = match class {
        // Streaming: a fixed per-uid base walking the working set.
        CLASS_STRIDE => (h % ws).wrapping_add(visit * 8) % ws,
        // Hot: the same location every visit.
        CLASS_HOT => h % profile.hot_bytes.max(64),
        // Cold/random: a new pseudo-random location each visit.
        _ => splitmix(h ^ visit) % ws,
    };
    DATA_BASE + (addr & !3)
}

/// The address an instruction's `visit`-th execution touches, in closed
/// form: what [`AddrStream`]'s cached classes must reproduce.
///
/// Each static memory instruction gets a *class* (hot / streaming / random)
/// hashed from its uid, then a per-class address stream — the standard
/// synthetic-trace technique for producing controlled cache behaviour.
#[cfg(test)]
fn mem_address(profile: &MemProfile, uid: InsnUid, visit: u64, critical_hint: bool) -> u64 {
    let h = splitmix(u64::from(uid.0) ^ profile.seed);
    let mut class = (h >> 32) as f64 / f64::from(u32::MAX);
    if critical_hint {
        // Critical (chain) loads have a suite-determined class: SPEC's
        // high-fanout loads stream (prefetchable, miss-prone); mobile's
        // stay in the hot set (short latency, Fig. 3c).
        class = if profile.critical_load_stride {
            0.0 // stride branch below
        } else {
            profile.stride_frac + 1e-9 // hot branch below
        };
    }
    let ws = profile.working_set_bytes.max(64);
    let addr = if class < profile.stride_frac {
        // Streaming: a fixed per-uid base walking the working set with a
        // word-ish stride (several accesses per cache line, like a real
        // array sweep).
        (h % ws).wrapping_add(visit * 8) % ws
    } else if class < profile.stride_frac + profile.hot_frac {
        // Hot: the same location every visit.
        h % profile.hot_bytes.max(64)
    } else {
        // Cold/random: a new pseudo-random location each visit.
        splitmix(h ^ visit) % ws
    };
    DATA_BASE + (addr & !3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::ProgramGenerator;
    use crate::params::GenParams;
    use crate::suite::Suite;

    fn trace_for(seed: u64, len: usize) -> (Program, ExecutionPath, Trace) {
        let mut p = GenParams::mobile(seed);
        p.num_functions = 20;
        let program = ProgramGenerator::new(p).generate();
        let path = ExecutionPath::generate(&program, seed ^ 1, len);
        let trace = Trace::expand(&program, &path);
        (program, path, trace)
    }

    #[test]
    fn expansion_covers_the_path() {
        let (program, path, trace) = trace_for(1, 5_000);
        assert_eq!(trace.len(), path.dyn_insns(&program));
        assert!(trace.len() >= 5_000);
    }

    #[test]
    fn deps_point_backwards() {
        let (_, _, trace) = trace_for(2, 5_000);
        for (i, e) in trace.iter().enumerate() {
            for d in e.deps_iter() {
                assert!((d as usize) < i, "dep {d} of insn {i} points forward");
            }
        }
    }

    #[test]
    fn deps_match_register_semantics() {
        let (program, _, trace) = trace_for(3, 3_000);
        // Re-derive the last-writer relation and spot-check.
        let mut last_writer: [Option<usize>; 16] = [None; 16];
        for (i, e) in trace.iter().enumerate() {
            let insn = &program.insn(e.at).insn;
            for src in insn.srcs().iter() {
                if let Some(w) = last_writer[src.index() as usize] {
                    assert!(
                        e.deps_iter().any(|d| d as usize == w),
                        "insn {i} misses dep on writer {w} of {src}"
                    );
                }
            }
            if let Some(dst) = insn.dst() {
                last_writer[dst.index() as usize] = Some(i);
            }
        }
    }

    #[test]
    fn fanout_counts_consumers() {
        let (_, _, trace) = trace_for(4, 8_000);
        let fanout = trace.compute_fanout();
        // Every dependence edge counts toward its producer's fanout except
        // edges into flag-setting compares (control, not value, fan-out).
        let value_deps: u32 = trace
            .iter()
            .map(|e| {
                e.deps_iter()
                    .filter(|&d| {
                        !matches!(
                            trace.entries[d as usize].op,
                            Opcode::Cmp | Opcode::Cmn | Opcode::Tst | Opcode::Vcmp
                        )
                    })
                    .count() as u32
            })
            .sum();
        let total_fanout: u32 = fanout.iter().sum();
        assert_eq!(value_deps, total_fanout);
        // The planted chains must produce genuinely high-fanout instructions.
        let max = fanout.iter().copied().max().unwrap_or(0);
        assert!(max >= 8, "expected planted fanout >= 8, max={max}");
    }

    #[test]
    fn memory_addresses_are_stable_across_variants() {
        let (mut program, path, trace) = trace_for(5, 4_000);
        // "Recompile": flip every convertible instruction to Thumb.
        for block in &mut program.blocks {
            for t in &mut block.insns {
                if let Ok(thumbed) = t.insn.to_thumb() {
                    t.insn = thumbed;
                }
            }
        }
        let recompiled = Trace::expand(&program, &path);
        assert_eq!(trace.len(), recompiled.len());
        for (a, b) in trace.iter().zip(recompiled.iter()) {
            assert_eq!(a.uid, b.uid);
            assert_eq!(a.mem_addr, b.mem_addr, "data behaviour must not change");
        }
        // But the fetch stream must have shrunk.
        assert!(recompiled.fetch_bytes() < trace.fetch_bytes());
        assert!(recompiled.thumb_fraction() > 0.4);
    }

    #[test]
    fn branch_outcomes_align_with_path() {
        let (program, path, trace) = trace_for(6, 4_000);
        let layout = program.layout();
        let mut cursor = 0usize;
        for (step, &bid) in path.blocks.iter().enumerate() {
            let block = program.block(bid);
            let block_entries = &trace.entries[cursor..cursor + block.len()];
            if let Some(next) = path.blocks.get(step + 1) {
                if let Some(last) = block_entries.last() {
                    if let Some(outcome) = last.branch {
                        assert_eq!(outcome.target_pc, layout.block_addr(*next));
                    }
                }
            }
            cursor += block.len();
        }
    }

    #[test]
    fn hot_loads_repeat_their_address() {
        let mut p = GenParams::mobile(9);
        p.num_functions = 8;
        p.mem.hot_frac = 1.0;
        p.mem.stride_frac = 0.0;
        let program = ProgramGenerator::new(p).generate();
        let path = ExecutionPath::generate(&program, 2, 6_000);
        let trace = Trace::expand(&program, &path);
        let mut seen: std::collections::HashMap<InsnUid, u64> = std::collections::HashMap::new();
        for e in trace.iter().filter(|e| e.mem_addr.is_some()) {
            let addr = e.mem_addr.unwrap();
            if let Some(&prev) = seen.get(&e.uid) {
                assert_eq!(prev, addr, "hot accesses must be stable per uid");
            }
            seen.insert(e.uid, addr);
        }
    }

    #[test]
    fn suite_is_recorded_on_programs() {
        for suite in Suite::ALL {
            let mut app = suite.apps()[0].clone();
            app.params.num_functions = app.params.num_functions.min(16);
            let program = app.generate_program();
            assert_eq!(program.suite, suite);
            assert_eq!(program.name, app.name);
        }
    }

    #[test]
    fn pcs_are_monotone_within_blocks() {
        let (program, _, trace) = trace_for(8, 2_000);
        let layout = program.layout();
        for e in trace.iter() {
            assert_eq!(e.pc, layout.insn_addr(e.at));
        }
    }
}

#[cfg(test)]
mod cone_tests {
    use super::*;
    use crate::generate::ProgramGenerator;
    use crate::params::GenParams;

    #[test]
    fn cone_dominates_direct_fanout() {
        let mut p = GenParams::mobile(13);
        p.num_functions = 16;
        let program = ProgramGenerator::new(p).generate();
        let path = ExecutionPath::generate(&program, 13, 5_000);
        let trace = Trace::expand(&program, &path);
        let direct = trace.compute_fanout();
        let cone = trace.compute_cone_fanout(128);
        assert_eq!(cone.len(), trace.len());
        for (i, &cone_i) in cone.iter().enumerate() {
            // Within-window direct consumers are a subset of the cone; the
            // cone can only miss direct consumers beyond the window.
            let within: u32 = trace
                .entries
                .iter()
                .skip(i + 1)
                .take(128)
                .filter(|e| e.deps.contains(&(i as u32)))
                .count() as u32;
            assert!(
                cone_i >= within,
                "cone {cone_i} < windowed direct {within} at {i}"
            );
            assert!(cone_i <= 128);
            let _ = direct;
        }
    }

    #[test]
    fn cone_counts_transitive_dependents() {
        // Hand-build a 3-deep dependence chain: each member's cone includes
        // everything downstream.
        use crate::ids::{BlockId, FuncId, InsnUid};
        use crate::program::{BasicBlock, Function, TaggedInsn, Terminator};
        use critic_isa::{Insn, Opcode, Reg};
        let insns = vec![
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R0, &[Reg::R7, Reg::R7]),
                InsnUid(0),
            ),
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R1, &[Reg::R0, Reg::R7]),
                InsnUid(1),
            ),
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R2, &[Reg::R1, Reg::R7]),
                InsnUid(2),
            ),
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R3, &[Reg::R2, Reg::R7]),
                InsnUid(3),
            ),
        ];
        let program = Program {
            name: "chain".into(),
            suite: crate::suite::Suite::Mobile,
            functions: vec![Function {
                id: FuncId(0),
                name: "f".into(),
                blocks: vec![BlockId(0)],
            }],
            blocks: vec![BasicBlock {
                id: BlockId(0),
                func: FuncId(0),
                insns,
                terminator: Terminator::Exit,
            }],
            mem: crate::params::MemProfile::default(),
            load_hints: Default::default(),
        };
        let path = ExecutionPath {
            blocks: vec![BlockId(0)],
            seed: 0,
        };
        let trace = Trace::expand(&program, &path);
        let direct = trace.compute_fanout();
        let cone = trace.compute_cone_fanout(128);
        assert_eq!(
            direct,
            vec![1, 1, 1, 0],
            "each member has one direct reader"
        );
        assert_eq!(cone, vec![3, 2, 1, 0], "cones are transitive");
    }

    #[test]
    fn cone_respects_the_window() {
        use crate::ids::{BlockId, FuncId, InsnUid};
        use crate::program::{BasicBlock, Function, TaggedInsn, Terminator};
        use critic_isa::{Insn, Opcode, Reg};
        // r0 defined once, read 3 instructions later — outside a window of 2.
        let insns = vec![
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R0, &[Reg::R7, Reg::R7]),
                InsnUid(0),
            ),
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R1, &[Reg::R7, Reg::R7]),
                InsnUid(1),
            ),
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R2, &[Reg::R7, Reg::R7]),
                InsnUid(2),
            ),
            TaggedInsn::new(
                Insn::alu(Opcode::Add, Reg::R3, &[Reg::R0, Reg::R7]),
                InsnUid(3),
            ),
        ];
        let program = Program {
            name: "window".into(),
            suite: crate::suite::Suite::Mobile,
            functions: vec![Function {
                id: FuncId(0),
                name: "f".into(),
                blocks: vec![BlockId(0)],
            }],
            blocks: vec![BasicBlock {
                id: BlockId(0),
                func: FuncId(0),
                insns,
                terminator: Terminator::Exit,
            }],
            mem: crate::params::MemProfile::default(),
            load_hints: Default::default(),
        };
        let path = ExecutionPath {
            blocks: vec![BlockId(0)],
            seed: 0,
        };
        let trace = Trace::expand(&program, &path);
        assert_eq!(trace.compute_cone_fanout(128)[0], 1);
        assert_eq!(
            trace.compute_cone_fanout(2)[0],
            0,
            "reader at distance 3 is outside"
        );
    }
}

#[cfg(test)]
mod addr_tests {
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    use super::*;
    use crate::generate::ProgramGenerator;
    use crate::params::GenParams;
    use crate::suite::Suite;

    /// Draws 64 visits of every memory uid of `program` through one
    /// [`AddrStream`] and checks each against [`mem_address`]. Returns how
    /// many of those uids carry a load hint.
    fn assert_stream_matches_closed_form(program: &Program) -> usize {
        let mem: Vec<&TaggedInsn> = program
            .blocks
            .iter()
            .flat_map(|b| &b.insns)
            .filter(|t| t.insn.op().is_mem())
            .collect();
        assert!(
            !mem.is_empty(),
            "{} has no memory instructions",
            program.name
        );
        let mut stream = AddrStream::for_program(program);
        for visit in 0..64 {
            for tagged in &mem {
                let hinted = program.load_hints.contains(&tagged.uid.0);
                let want = mem_address(&program.mem, tagged.uid, visit, hinted);
                assert_eq!(
                    stream.next(program, tagged),
                    Some(want),
                    "{} uid {} visit {visit} (hinted {hinted})",
                    program.name,
                    tagged.uid
                );
            }
        }
        mem.iter()
            .filter(|t| program.load_hints.contains(&t.uid.0))
            .count()
    }

    #[test]
    fn cached_classes_match_the_closed_form_on_every_suite_app() {
        for suite in Suite::ALL {
            let mut hinted = 0;
            for app in suite.apps() {
                let mut program = app.generate_program();
                for stride in [false, true] {
                    program.mem.critical_load_stride = stride;
                    hinted += assert_stream_matches_closed_form(&program);
                }
            }
            assert!(hinted > 0, "{suite} has no hinted loads to check");
        }
    }

    /// A fraction in `[0, 1]`, biased toward the class boundaries.
    fn fraction(rng: &mut TestRng) -> f64 {
        match rng.next_u64() % 4 {
            0 => 0.0,
            1 => 1.0,
            2 => 0.5,
            _ => rng.next_f64(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random memory profiles (class fractions at and between the
        /// boundaries, either critical-load class) over random programs.
        #[test]
        fn cached_classes_match_the_closed_form_for_any_profile(seed: u64) {
            let mut rng = TestRng::new(seed);
            let mut p = GenParams::mobile(rng.next_u64() % 1_000);
            p.num_functions = 6;
            let mut program = ProgramGenerator::new(p).generate();
            program.mem = MemProfile {
                seed: rng.next_u64(),
                working_set_bytes: rng.next_u64() % (1 << 24),
                hot_bytes: rng.next_u64() % (1 << 16),
                stride_frac: fraction(&mut rng),
                hot_frac: fraction(&mut rng),
                critical_load_stride: rng.next_u64().is_multiple_of(2),
            };
            assert_stream_matches_closed_form(&program);
        }
    }
}

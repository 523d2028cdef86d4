//! Translation validation: the differential oracle.
//!
//! The CritIC pass rewrites hot programs aggressively — it hoists chain
//! members across other instructions and re-encodes them in the 16-bit
//! format. Nothing about that is *obviously* meaning-preserving, and a
//! legality-check bug would silently corrupt every downstream speedup and
//! energy figure. This module proves each transformation after the fact:
//! it executes the baseline and the transformed variant over identical,
//! deterministically seeded inputs on the [`critic_isa`
//! interpreter](critic_isa::MachineState) and compares
//!
//! * the **per-instruction register dataflow** — the sequence of `(register,
//!   value)` writes each original instruction (by stable uid) performs over
//!   the whole run;
//! * the **per-address store order** — the `(uid, value)` sequence landing
//!   at every data address;
//! * the **final architectural state** — registers and the sparse memory
//!   image;
//! * **decode coverage** — every 16-bit instruction in the variant must be
//!   covered by a preceding CDP format switch, or the decoder would
//!   misparse the byte stream (checked only for CDP-mode variants).
//!
//! A divergence is reported as a typed [`ValidationError`] naming the
//! offending chain (by profile rank), the instruction uid, and the first
//! diverging register or address — precise enough for the pass to *demote*
//! exactly the guilty chain and re-try, rather than aborting the run. When
//! several effects diverge, the one earliest in *execution order* is
//! reported: the corrupted write runs strictly before every consumer that
//! propagates it, so the report stays on the root cause (a chain member)
//! instead of an innocent downstream reader with a smaller uid.
//!
//! The comparison is layout-independent by construction: load results and
//! call link tokens are seeded from `(seed, uid, visit)` rather than read
//! from a memory image or a return address, so re-encoding (which moves
//! every subsequent PC) and legal hoists (which may reorder loads across
//! unrelated stores) cannot produce false positives. See the
//! [`critic_isa::interp`] module docs for the full argument.

use std::fmt;

use critic_isa::{seeded_input, MachineState, Reg, StepError, StepIo, Width};
use critic_profiler::ChainSpec;
use critic_workloads::{ArchWalk, ExecutionPath, InsnUid, Program};

/// Salt distinguishing the link-token stream from the load-value stream.
const LINK_SALT: u64 = 0x6C69_6E6B_746F_6B65; // "linktoke"

/// What diverged between the baseline and the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// An instruction wrote registers in the baseline but never executed a
    /// write in the variant (e.g. a dropped chain member).
    MissingInsn,
    /// An instruction present in the baseline *program* wrote registers in
    /// the variant but never in the baseline run (e.g. a flipped
    /// predicate). Pass-inserted helpers (uids the baseline program does
    /// not contain, such as Compress's two-address `mov` expansion) are
    /// exempt: their effects are judged through the original instructions'
    /// streams, the store sequences, and the final state.
    ExtraInsn,
    /// The `index`-th register write of one instruction differs.
    RegisterWrite {
        /// Which dynamic write of this uid diverged (0-based).
        index: usize,
        /// The baseline's write, if it performed one at this index.
        baseline: Option<(Reg, u32)>,
        /// The variant's write, if it performed one at this index.
        variant: Option<(Reg, u32)>,
    },
    /// The `index`-th store to `addr` differs in writer or value.
    StoreSequence {
        /// The diverging data address.
        addr: u64,
        /// Which store to that address diverged (0-based).
        index: usize,
        /// The baseline's `(writer uid, value)` at this index.
        baseline: Option<(InsnUid, u32)>,
        /// The variant's `(writer uid, value)` at this index.
        variant: Option<(InsnUid, u32)>,
    },
    /// A register holds different values after the full run.
    FinalRegister {
        /// The diverging register.
        reg: Reg,
        /// Its final baseline value.
        baseline: u32,
        /// Its final variant value.
        variant: u32,
    },
    /// A memory byte differs after the full run.
    FinalMemory {
        /// The diverging byte address.
        addr: u64,
        /// The baseline byte, if written.
        baseline: Option<u8>,
        /// The variant byte, if written.
        variant: Option<u8>,
    },
    /// A 16-bit instruction in the variant is not covered by a CDP format
    /// switch (or a CDP covers a 32-bit instruction): the decoder would
    /// misparse the byte stream.
    DecodeGap,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceKind::MissingInsn => f.write_str("writes in baseline only"),
            DivergenceKind::ExtraInsn => f.write_str("writes in variant only"),
            DivergenceKind::RegisterWrite {
                index,
                baseline,
                variant,
            } => write!(
                f,
                "register write #{index} diverges: baseline {baseline:?}, variant {variant:?}"
            ),
            DivergenceKind::StoreSequence {
                addr,
                index,
                baseline,
                variant,
            } => write!(
                f,
                "store #{index} to {addr:#x} diverges: baseline {baseline:?}, variant {variant:?}"
            ),
            DivergenceKind::FinalRegister {
                reg,
                baseline,
                variant,
            } => write!(
                f,
                "final {reg} diverges: baseline {baseline:#x}, variant {variant:#x}"
            ),
            DivergenceKind::FinalMemory {
                addr,
                baseline,
                variant,
            } => write!(
                f,
                "final memory at {addr:#x} diverges: baseline {baseline:?}, variant {variant:?}"
            ),
            DivergenceKind::DecodeGap => {
                f.write_str("16-bit instruction not covered by a format switch")
            }
        }
    }
}

/// A validation failure: the variant does not compute what the baseline
/// computes (or could not be decoded), attributed to a chain when possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    /// Rank of the offending chain in the profile (`None` when the
    /// divergence could not be attributed to any chain).
    pub chain: Option<usize>,
    /// The first diverging instruction, by stable uid.
    pub uid: Option<InsnUid>,
    /// What diverged.
    pub kind: DivergenceKind,
    /// Interpreter-level failure text, set only when the oracle itself
    /// could not step an instruction (a harness bug, not a miscompile).
    pub internal: Option<String>,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.chain {
            Some(rank) => write!(f, "chain #{rank}")?,
            None => f.write_str("unattributed")?,
        }
        if let Some(uid) = self.uid {
            write!(f, " (insn {uid})")?;
        }
        write!(f, ": {}", self.kind)?;
        if let Some(internal) = &self.internal {
            write!(f, " [{internal}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for ValidationError {}

/// What a clean validation run covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Chains in the profile the variant was validated against.
    pub chains: usize,
    /// Dynamic instructions executed on the baseline.
    pub baseline_steps: u64,
    /// Dynamic instructions executed on the variant.
    pub variant_steps: u64,
}

/// One program's observable behaviour over a seeded run, as flat logs.
///
/// Each recorded effect carries the dynamic step at which it happened.
/// Steps never participate in *equality* (re-encoding inserts format
/// switches and hoisting reorders, so step indices legitimately differ) —
/// they only order divergences, so the report lands on the execution-
/// earliest one, which is the root cause.
struct Execution {
    state: MachineState,
    /// Every register write, grouped by uid in ascending uid order and in
    /// execution order within a group.
    writes: Vec<RegWrite>,
    /// The non-empty groups of `writes`: `(uid, end)`, each group starting
    /// where the previous one ends.
    group_ends: Vec<(InsnUid, u32)>,
    /// Every store, stably sorted by address: execution order within an
    /// address.
    stores: Vec<StoreRec>,
    steps: u64,
}

/// One register write: the step that performed it and what it wrote.
#[derive(Clone, Copy)]
struct RegWrite {
    step: u64,
    reg: Reg,
    value: u32,
}

/// One store: where, when, by whom and what.
#[derive(Clone, Copy)]
struct StoreRec {
    addr: u64,
    step: u64,
    uid: InsnUid,
    value: u32,
}

impl Execution {
    /// `(uid, writes)` per written uid, uids ascending.
    fn write_groups(&self) -> impl Iterator<Item = (InsnUid, &[RegWrite])> {
        let mut start = 0usize;
        self.group_ends.iter().map(move |&(uid, end)| {
            let group = &self.writes[start..end as usize];
            start = end as usize;
            (uid, group)
        })
    }

    /// `(addr, stores)` per stored-to address, addresses ascending.
    fn store_groups(&self) -> impl Iterator<Item = (u64, &[StoreRec])> {
        self.stores
            .chunk_by(|a, b| a.addr == b.addr)
            .map(|group| (group[0].addr, group))
    }
}

/// Dense keys for one program's uids, in uid order.
///
/// Uids below `direct` key themselves. The few far above the program's
/// static size — marker uids that fault injection plants — are ranked
/// after them, so every flat per-uid table stays O(static program)
/// whatever the uids.
struct UidKeys {
    direct: u32,
    /// Bit `u` set ⇔ uid `u` (< `direct`) occurs in the program.
    present: Vec<u64>,
    /// The program's uids ≥ `direct`, sorted and deduplicated.
    outliers: Vec<u32>,
}

impl UidKeys {
    fn for_program(program: &Program) -> UidKeys {
        let limit = u32::try_from(2 * program.static_insn_count() + 64).unwrap_or(u32::MAX);
        let mut present = vec![0u64; (limit as usize).div_ceil(64)];
        let mut outliers = Vec::new();
        let mut direct = 0;
        for block in &program.blocks {
            for tagged in &block.insns {
                let uid = tagged.uid.0;
                if uid < limit {
                    present[uid as usize / 64] |= 1 << (uid % 64);
                    direct = direct.max(uid + 1);
                } else {
                    outliers.push(uid);
                }
            }
        }
        present.truncate((direct as usize).div_ceil(64));
        outliers.sort_unstable();
        outliers.dedup();
        UidKeys {
            direct,
            present,
            outliers,
        }
    }

    /// Number of keys: the size of a flat per-uid table.
    fn len(&self) -> usize {
        self.direct as usize + self.outliers.len()
    }

    /// The key of a uid that occurs in the program.
    #[inline]
    fn key(&self, uid: InsnUid) -> usize {
        if uid.0 < self.direct {
            uid.0 as usize
        } else {
            let rank = self.outliers.binary_search(&uid.0);
            debug_assert!(rank.is_ok(), "{uid} is not in the program");
            self.direct as usize + rank.unwrap_or_else(|r| r)
        }
    }

    /// The uid keyed by `key`.
    fn uid(&self, key: usize) -> InsnUid {
        match key.checked_sub(self.direct as usize) {
            None => InsnUid(key as u32),
            Some(rank) => InsnUid(self.outliers[rank]),
        }
    }

    /// Whether `uid` occurs in the program.
    fn contains(&self, uid: InsnUid) -> bool {
        if uid.0 < self.direct {
            self.present[uid.0 as usize / 64] & (1 << (uid.0 % 64)) != 0
        } else {
            self.outliers.binary_search(&uid.0).is_ok()
        }
    }
}

/// A baseline execution captured once and replayed against many variants.
///
/// The demotion loop of a validated run re-validates after every demoted
/// chain, and a campaign validates every scheme of an app against the same
/// baseline — re-interpreting the (identical) baseline each time is pure
/// waste. Capture it once with [`BaselineExecution::capture`], then call
/// [`BaselineExecution::validate_variant`] per variant.
pub struct BaselineExecution {
    exec: Execution,
    /// Uids present in the baseline *program* (executed or not). A variant
    /// write from a uid outside this set comes from a pass-inserted helper
    /// (e.g. Compress's two-address `mov` expansion); such a write is not a
    /// divergence in itself — any observable effect it has flows through an
    /// original instruction's write stream, a store sequence, or the final
    /// state, all of which are still compared.
    program_uids: UidKeys,
    seed: u64,
}

impl std::fmt::Debug for BaselineExecution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BaselineExecution(seed={}, steps={})",
            self.seed, self.exec.steps
        )
    }
}

impl BaselineExecution {
    /// Interprets `baseline` over the path with inputs seeded from `seed`,
    /// recording every observable effect.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidationError`] with `internal` set if the oracle
    /// itself cannot step an instruction — a harness bug, not a miscompile.
    pub fn capture(
        baseline: &Program,
        path: &ExecutionPath,
        seed: u64,
    ) -> Result<BaselineExecution, ValidationError> {
        let program_uids = UidKeys::for_program(baseline);
        let exec = execute(baseline, &program_uids, path, seed)
            .map_err(|(uid, e)| internal_error(uid, e))?;
        Ok(BaselineExecution {
            exec,
            program_uids,
            seed,
        })
    }

    /// Validates `variant` against this captured baseline; see
    /// [`validate_transform`] for the comparison and error-selection rules.
    ///
    /// # Errors
    ///
    /// Exactly as [`validate_transform`].
    pub fn validate_variant(
        &self,
        variant: &Program,
        path: &ExecutionPath,
        chains: &[ChainSpec],
    ) -> Result<ValidationReport, ValidationError> {
        validate_against(self, variant, path, chains)
    }
}

/// Validates that `variant` computes the same thing as `baseline` over the
/// recorded execution path, using inputs seeded from `seed`.
///
/// `chains` is the profile the variant was built from, used only to
/// *attribute* a divergence to the responsible chain; pass `&[]` when
/// validating a chain-free rewrite (OPP16, Compress).
///
/// # Errors
///
/// Returns one [`ValidationError`], chosen deterministically: the static
/// decode-coverage check runs first; then, among all register-dataflow and
/// store-sequence divergences, the one that happened *earliest in
/// execution order* is reported — a corrupted write executes strictly
/// before every consumer that propagates it, so this keeps the report (and
/// the chain attribution) on the faulty rewrite rather than on an innocent
/// downstream reader that merely has a smaller uid. Final registers and
/// final memory are checked last.
pub fn validate_transform(
    baseline: &Program,
    variant: &Program,
    path: &ExecutionPath,
    chains: &[ChainSpec],
    seed: u64,
) -> Result<ValidationReport, ValidationError> {
    let base = BaselineExecution::capture(baseline, path, seed)?;
    validate_against(&base, variant, path, chains)
}

/// The comparison proper, against an already-captured baseline.
fn validate_against(
    baseline: &BaselineExecution,
    variant: &Program,
    path: &ExecutionPath,
    chains: &[ChainSpec],
) -> Result<ValidationReport, ValidationError> {
    // Decode coverage is static and is the only detector for a CDP whose
    // cover count undershoots its chain, so it runs first.
    check_decode_coverage(variant, chains)?;

    let base = &baseline.exec;
    let seed = baseline.seed;
    let var = execute(variant, &UidKeys::for_program(variant), path, seed)
        .map_err(|(uid, e)| internal_error(uid, e))?;

    // Collect the execution-earliest divergence across register dataflow
    // and store sequences. The root cause (the rewritten instruction that
    // first computed a wrong value) always executes before anything that
    // propagates it, so the minimum-step divergence is the attributable
    // one; scanning in uid or address order instead can land on a consumer
    // in a chain-less block and defeat attribution. Ties keep the first
    // divergence considered: uids ascending, then addresses ascending.
    let mut earliest: Option<(u64, Option<InsnUid>, DivergenceKind)> = None;

    // Per-uid register dataflow. A group is never empty, so an empty side
    // means the uid wrote nothing in that run.
    merge_join(base.write_groups(), var.write_groups(), |uid, b, v| {
        match (b.first(), v.first()) {
            (Some(first), None) => {
                consider(
                    &mut earliest,
                    first.step,
                    Some(uid),
                    DivergenceKind::MissingInsn,
                );
            }
            (None, Some(first)) => {
                if baseline.program_uids.contains(uid) {
                    consider(
                        &mut earliest,
                        first.step,
                        Some(uid),
                        DivergenceKind::ExtraInsn,
                    );
                }
            }
            _ => {
                let strip = |w: Option<&RegWrite>| w.map(|w| (w.reg, w.value));
                for index in 0..b.len().max(v.len()) {
                    let (bw, vw) = (b.get(index), v.get(index));
                    if strip(bw) != strip(vw) {
                        let step = bw.into_iter().chain(vw).map(|w| w.step).min();
                        consider(
                            &mut earliest,
                            step.unwrap_or(u64::MAX),
                            Some(uid),
                            DivergenceKind::RegisterWrite {
                                index,
                                baseline: strip(bw),
                                variant: strip(vw),
                            },
                        );
                        break; // later writes of this uid are downstream
                    }
                }
            }
        }
    });

    // Per-address store order and values.
    merge_join(base.store_groups(), var.store_groups(), |addr, b, v| {
        let strip = |s: Option<&StoreRec>| s.map(|s| (s.uid, s.value));
        for index in 0..b.len().max(v.len()) {
            let (bs, vs) = (b.get(index), v.get(index));
            if strip(bs) != strip(vs) {
                let step = bs.into_iter().chain(vs).map(|s| s.step).min();
                let uid = strip(vs).or(strip(bs)).map(|(uid, _)| uid);
                consider(
                    &mut earliest,
                    step.unwrap_or(u64::MAX),
                    uid,
                    DivergenceKind::StoreSequence {
                        addr,
                        index,
                        baseline: strip(bs),
                        variant: strip(vs),
                    },
                );
                break; // later stores to this address are downstream
            }
        }
    });

    if let Some((_, uid, kind)) = earliest {
        return Err(attribute(variant, chains, uid, kind));
    }

    // Final architectural state.
    for i in 0..16 {
        if base.state.regs[i] != var.state.regs[i] {
            let Some(reg) = Reg::from_index(i as u8) else {
                continue;
            };
            return Err(attribute(
                variant,
                chains,
                None,
                DivergenceKind::FinalRegister {
                    reg,
                    baseline: base.state.regs[i],
                    variant: var.state.regs[i],
                },
            ));
        }
    }
    if base.state.mem != var.state.mem {
        let mut keys: Vec<u64> = base.state.mem.keys().chain(var.state.mem.keys()).collect();
        keys.sort_unstable();
        keys.dedup();
        for addr in keys {
            let b = base.state.mem.get(addr);
            let v = var.state.mem.get(addr);
            if b != v {
                return Err(attribute(
                    variant,
                    chains,
                    None,
                    DivergenceKind::FinalMemory {
                        addr,
                        baseline: b,
                        variant: v,
                    },
                ));
            }
        }
    }

    Ok(ValidationReport {
        chains: chains.len(),
        baseline_steps: base.steps,
        variant_steps: var.steps,
    })
}

/// Runs one program over the path, recording every observable effect.
///
/// `keys` must be `program`'s own [`UidKeys`]: they index the dense
/// per-uid visit counters and the counting sort that groups the register
/// writes by uid.
fn execute(
    program: &Program,
    keys: &UidKeys,
    path: &ExecutionPath,
    seed: u64,
) -> Result<Execution, (InsnUid, StepError)> {
    let mut state = MachineState::seeded(seed);
    let mut visits = vec![0u32; keys.len()];
    // Register writes in execution order, with their uid keys, and the
    // number of writes per key: the counting sort's first pass.
    let mut log: Vec<(u32, RegWrite)> = Vec::new();
    let mut ends = vec![0u32; keys.len()];
    let mut stores: Vec<StoreRec> = Vec::new();
    let mut steps = 0u64;
    for s in ArchWalk::new(program, path) {
        let uid = s.tagged.uid;
        let insn = &s.tagged.insn;
        let key = keys.key(uid);
        let visit = u64::from(visits[key]);
        visits[key] += 1;
        let op = insn.op();
        let io = StepIo {
            mem_addr: s.mem_addr,
            load_value: op
                .is_load()
                .then(|| seeded_input(seed, u64::from(uid.0), visit)),
            link_value: op
                .is_call()
                .then(|| seeded_input(seed ^ LINK_SALT, u64::from(uid.0), visit)),
        };
        let effect = state.step(insn, &io).map_err(|err| (uid, err))?;
        let step = steps;
        steps += 1;
        if let Some((reg, value)) = effect.reg_write {
            log.push((key as u32, RegWrite { step, reg, value }));
            ends[key] += 1;
        }
        if let Some(w) = effect.mem_write {
            stores.push(StoreRec {
                addr: w.addr,
                step,
                uid,
                value: w.value,
            });
        }
    }

    // The rest of the counting sort by key: after placement `ends[k]` is
    // where key `k`'s group ends. Placement walks the log in order, so each
    // group keeps execution order.
    let mut next = 0u32;
    let mut group_ends = Vec::new();
    for (key, end) in ends.iter_mut().enumerate() {
        let count = *end;
        *end = next; // the group's start, until placement advances it
        next += count;
        if count > 0 {
            group_ends.push((keys.uid(key), next));
        }
    }
    let mut writes = vec![
        RegWrite {
            step: 0,
            reg: Reg::R0,
            value: 0,
        };
        log.len()
    ];
    for &(key, w) in &log {
        let at = &mut ends[key as usize];
        writes[*at as usize] = w;
        *at += 1;
    }

    stores.sort_by_key(|s| s.addr);
    Ok(Execution {
        state,
        writes,
        group_ends,
        stores,
        steps,
    })
}

/// Visits the union of two key-sorted group sequences in ascending key
/// order, passing an empty slice for the side a key is missing from.
fn merge_join<'a, K: Ord + Copy, T: 'a>(
    a: impl Iterator<Item = (K, &'a [T])>,
    b: impl Iterator<Item = (K, &'a [T])>,
    mut visit: impl FnMut(K, &'a [T], &'a [T]),
) {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    loop {
        match (a.peek().copied(), b.peek().copied()) {
            (None, None) => return,
            (Some((ka, ga)), Some((kb, gb))) if ka == kb => {
                visit(ka, ga, gb);
                a.next();
                b.next();
            }
            (Some((ka, ga)), Some((kb, _))) if ka < kb => {
                visit(ka, ga, &[]);
                a.next();
            }
            (Some((ka, ga)), None) => {
                visit(ka, ga, &[]);
                a.next();
            }
            (_, Some((kb, gb))) => {
                visit(kb, &[], gb);
                b.next();
            }
        }
    }
}

/// Static decode-coverage check: in a CDP-mode variant every 16-bit
/// instruction must sit under a format switch whose cover reaches it, and
/// no switch may cover a 32-bit instruction.
///
/// Variants with no CDP at all (baseline, hoist-only, branch-pair mode) are
/// exempt: the branch-pair mechanism brackets regions with real branches
/// and needs no cover accounting.
fn check_decode_coverage(variant: &Program, chains: &[ChainSpec]) -> Result<(), ValidationError> {
    let has_cdp = variant
        .blocks
        .iter()
        .flat_map(|b| &b.insns)
        .any(|t| t.insn.cdp_covered_len().is_some());
    if !has_cdp {
        return Ok(());
    }
    for block in &variant.blocks {
        let mut cover = 0usize;
        for tagged in &block.insns {
            if let Some(covered) = tagged.insn.cdp_covered_len() {
                cover = covered;
                continue;
            }
            match tagged.insn.width() {
                Width::Thumb16 if cover == 0 => {
                    return Err(attribute(
                        variant,
                        chains,
                        Some(tagged.uid),
                        DivergenceKind::DecodeGap,
                    ));
                }
                Width::Arm32 if cover > 0 => {
                    return Err(attribute(
                        variant,
                        chains,
                        Some(tagged.uid),
                        DivergenceKind::DecodeGap,
                    ));
                }
                _ => cover = cover.saturating_sub(1),
            }
        }
    }
    Ok(())
}

/// Keeps `best` pointing at the divergence with the smallest step.
fn consider(
    best: &mut Option<(u64, Option<InsnUid>, DivergenceKind)>,
    step: u64,
    uid: Option<InsnUid>,
    kind: DivergenceKind,
) {
    if best.as_ref().is_none_or(|&(s, ..)| step < s) {
        *best = Some((step, uid, kind));
    }
}

fn internal_error(uid: InsnUid, err: StepError) -> ValidationError {
    ValidationError {
        chain: None,
        uid: Some(uid),
        kind: DivergenceKind::MissingInsn,
        internal: Some(err.to_string()),
    }
}

/// Names the chain responsible for a divergence at `uid`.
///
/// Direct attribution: the uid is a member of a chain. Fallback: the
/// nearest chain member (by position) in the same variant block — a
/// divergence observed at an innocent bystander is still almost always
/// caused by the chain that was rewritten around it.
fn attribute(
    variant: &Program,
    chains: &[ChainSpec],
    uid: Option<InsnUid>,
    kind: DivergenceKind,
) -> ValidationError {
    let chain = uid.and_then(|uid| attribute_uid(variant, chains, uid));
    ValidationError {
        chain,
        uid,
        kind,
        internal: None,
    }
}

fn attribute_uid(variant: &Program, chains: &[ChainSpec], uid: InsnUid) -> Option<usize> {
    if let Some(rank) = chains.iter().position(|c| c.uids.contains(&uid)) {
        return Some(rank);
    }
    // The uid is not a member; find its block and the nearest member.
    let (block, position) = variant
        .blocks
        .iter()
        .find_map(|b| b.position_of(uid).map(|p| (b.id, p)))?;
    let mut best: Option<(usize, usize)> = None; // (distance, rank)
    for (rank, chain) in chains.iter().enumerate() {
        if chain.block != block {
            continue;
        }
        let block_ref = variant.block(block);
        for &member in &chain.uids {
            let Some(p) = block_ref.position_of(member) else {
                continue;
            };
            let distance = p.abs_diff(position);
            if best.is_none_or(|(d, _)| distance < d) {
                best = Some((distance, rank));
            }
        }
    }
    best.map(|(_, rank)| rank)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use critic_profiler::{Profiler, ProfilerConfig};
    use critic_workloads::suite::Suite;
    use critic_workloads::{inject_variant, BlockId, Fault, Trace};

    use super::*;
    use crate::critic_pass::{apply_critic_pass, CriticPassOptions};

    fn setup(len: usize) -> (Program, ExecutionPath, Trace, critic_profiler::Profile) {
        setup_app(0, len)
    }

    fn setup_app(
        app_index: usize,
        len: usize,
    ) -> (Program, ExecutionPath, Trace, critic_profiler::Profile) {
        let mut app = Suite::Mobile.apps()[app_index].clone();
        app.params.num_functions = 40;
        let program = app.generate_program();
        let path = ExecutionPath::generate(&program, 21, len);
        let trace = Trace::expand(&program, &path);
        let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &trace);
        (program, path, trace, profile)
    }

    #[test]
    fn clean_critic_variant_validates() {
        let (program, path, _, profile) = setup(20_000);
        let mut variant = program.clone();
        let report = apply_critic_pass(&mut variant, &profile, CriticPassOptions::default());
        assert!(report.chains_applied > 0);
        let vr = validate_transform(&program, &variant, &path, &profile.chains, 7)
            .expect("legal transform must validate");
        assert_eq!(vr.chains, profile.chains.len());
        assert!(vr.baseline_steps > 0);
        // Hoisting neither adds nor removes executed original instructions;
        // CDP switches add fetches.
        assert!(vr.variant_steps >= vr.baseline_steps);
    }

    #[test]
    fn all_pass_modes_validate_clean() {
        let (program, path, trace, profile) = setup(15_000);
        let modes = [
            ("critic", CriticPassOptions::default(), profile.clone()),
            ("hoist", CriticPassOptions::hoist_only(), profile.clone()),
            (
                "branch-pair",
                CriticPassOptions::branch_switch(),
                profile.clone(),
            ),
            (
                "ideal",
                CriticPassOptions::ideal(),
                Profiler::new(ProfilerConfig::ideal()).build_profile(&program, &trace),
            ),
        ];
        for (name, opts, prof) in modes {
            let mut variant = program.clone();
            apply_critic_pass(&mut variant, &prof, opts);
            validate_transform(&program, &variant, &path, &prof.chains, 7)
                .unwrap_or_else(|e| panic!("{name} variant failed validation: {e}"));
        }
    }

    #[test]
    fn opp16_and_compress_validate_without_chains() {
        let (program, path, _, _) = setup(15_000);
        let mut opp = program.clone();
        crate::apply_opp16(&mut opp, 3);
        validate_transform(&program, &opp, &path, &[], 7).expect("opp16 must validate");
        let mut comp = program.clone();
        crate::apply_compress(&mut comp);
        validate_transform(&program, &comp, &path, &[], 7).expect("compress must validate");
    }

    #[test]
    fn validation_is_deterministic_in_the_seed() {
        let (program, path, _, profile) = setup(10_000);
        let mut variant = program.clone();
        apply_critic_pass(&mut variant, &profile, CriticPassOptions::default());
        let a = validate_transform(&program, &variant, &path, &profile.chains, 11).unwrap();
        let b = validate_transform(&program, &variant, &path, &profile.chains, 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_miscompile_fault_is_caught_and_attributed() {
        // Youtube: its converted chains include immediate-form members, so
        // every miscompile kind (including WrongThumbImmediate) has a site.
        let (program, path, _, profile) = setup_app(9, 20_000);
        let executed: HashSet<BlockId> = path.blocks.iter().copied().collect();
        for (i, fault) in Fault::MISCOMPILES.iter().copied().enumerate() {
            let mut variant = program.clone();
            let report = apply_critic_pass(&mut variant, &profile, CriticPassOptions::default());
            assert!(report.chains_applied > 0);
            // Sanity: the un-faulted variant validates.
            validate_transform(&program, &variant, &path, &profile.chains, 7)
                .expect("clean variant validates");
            inject_variant(&mut variant, fault, 100 + i as u64, &executed)
                .expect("miscompile site exists in a transformed Mobile app");
            let err = validate_transform(&program, &variant, &path, &profile.chains, 7)
                .expect_err(&format!("miscompile {fault} escaped the oracle"));
            assert!(
                err.chain.is_some(),
                "miscompile {fault} not attributed to a chain: {err}"
            );
            assert!(err.chain.unwrap() < profile.chains.len());
            assert!(
                err.internal.is_none(),
                "{fault} tripped an internal error: {err}"
            );
        }
    }

    #[test]
    fn error_display_names_chain_uid_and_divergence() {
        let err = ValidationError {
            chain: Some(3),
            uid: Some(InsnUid(42)),
            kind: DivergenceKind::RegisterWrite {
                index: 0,
                baseline: Some((Reg::R1, 7)),
                variant: Some((Reg::R2, 7)),
            },
            internal: None,
        };
        let text = err.to_string();
        assert!(text.contains("chain #3"), "{text}");
        assert!(text.contains("42"), "{text}");
        assert!(text.contains("register write #0"), "{text}");
    }

    #[test]
    fn uid_keys_stay_dense_and_ordered_with_far_uids() {
        let (mut program, path, _, profile) = setup(5_000);
        // Plant two marker uids far above the program, as fault injection
        // does, on instructions the path executes.
        let far = [InsnUid(0xF000_0002), InsnUid(0xF000_0001)];
        for (&bid, uid) in path.blocks.iter().zip(far) {
            program.block_mut(bid).insns[0].uid = uid;
        }
        let keys = UidKeys::for_program(&program);
        let mut uids: Vec<InsnUid> = program
            .blocks
            .iter()
            .flat_map(|b| b.insns.iter().map(|t| t.uid))
            .collect();
        uids.sort_unstable();
        uids.dedup();
        assert!(keys.len() <= 2 * program.static_insn_count() + 64 + far.len());
        for pair in uids.windows(2) {
            assert!(
                keys.key(pair[0]) < keys.key(pair[1]),
                "keys follow uid order"
            );
        }
        for &uid in &uids {
            assert!(keys.contains(uid));
            assert_eq!(keys.uid(keys.key(uid)), uid);
        }
        assert!(!keys.contains(InsnUid(0xF000_0003)));
        assert!(!keys.contains(InsnUid(keys.direct)));
        let report = validate_transform(&program, &program, &path, &profile.chains, 3).unwrap();
        assert_eq!(report.baseline_steps, report.variant_steps);
    }

    /// A one-block program over `insns` (uid, instruction), and its path.
    fn straight_line(insns: &[(u32, critic_isa::Insn)]) -> (Program, ExecutionPath) {
        use critic_workloads::{BasicBlock, FuncId, Function, TaggedInsn, Terminator};
        let program = Program {
            name: "straight".into(),
            suite: Suite::Mobile,
            functions: vec![Function {
                id: FuncId(0),
                name: "f".into(),
                blocks: vec![BlockId(0)],
            }],
            blocks: vec![BasicBlock {
                id: BlockId(0),
                func: FuncId(0),
                insns: insns
                    .iter()
                    .map(|&(uid, insn)| TaggedInsn::new(insn, InsnUid(uid)))
                    .collect(),
                terminator: Terminator::Exit,
            }],
            mem: Default::default(),
            load_hints: Default::default(),
        };
        let path = ExecutionPath {
            blocks: vec![BlockId(0)],
            seed: 0,
        };
        (program, path)
    }

    #[test]
    fn equal_step_divergences_keep_the_first_visited() {
        use critic_isa::{Insn, Opcode};
        // Both uids diverge, and the variant swaps them, so each
        // divergence's earliest step is 0: the tie goes to the lower uid.
        let (base, path) = straight_line(&[
            (0, Insn::mov_imm(Reg::R0, 1)),
            (1, Insn::mov_imm(Reg::R1, 2)),
        ]);
        let (var, _) = straight_line(&[
            (1, Insn::mov_imm(Reg::R1, 3)),
            (0, Insn::mov_imm(Reg::R0, 5)),
        ]);
        let err = validate_transform(&base, &var, &path, &[], 1).unwrap_err();
        assert_eq!(err.uid, Some(InsnUid(0)), "{err}");
        assert_eq!(
            err.kind,
            DivergenceKind::RegisterWrite {
                index: 0,
                baseline: Some((Reg::R0, 1)),
                variant: Some((Reg::R0, 5)),
            }
        );
        // A register write and a store diverging at the same step: the
        // register write is visited first and wins, even from a higher uid.
        let (base, path) = straight_line(&[
            (0, Insn::store(Opcode::Str, Reg::R2, Reg::R3, 0)),
            (1, Insn::mov_imm(Reg::R1, 2)),
        ]);
        let (var, _) = straight_line(&[
            (1, Insn::mov_imm(Reg::R1, 3)),
            (0, Insn::store(Opcode::Strb, Reg::R2, Reg::R3, 0)),
        ]);
        let err = validate_transform(&base, &var, &path, &[], 1).unwrap_err();
        assert_eq!(err.uid, Some(InsnUid(1)), "{err}");
        assert!(
            matches!(err.kind, DivergenceKind::RegisterWrite { index: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn identical_programs_always_validate() {
        let (program, path, _, profile) = setup(5_000);
        let report = validate_transform(&program, &program, &path, &profile.chains, 3).unwrap();
        assert_eq!(report.baseline_steps, report.variant_steps);
    }
}

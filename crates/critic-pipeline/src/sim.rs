//! The trace-driven cycle loop.
//!
//! Stage order within a cycle is commit → issue → dispatch → fetch, each
//! stage reading the state its predecessors left; each stage is one method
//! of `Pipeline`, the value that carries every register, queue and model
//! from one cycle to the next. The fetch stage follows
//! the committed path of the trace; control-flow costs (taken-branch
//! bubbles, misprediction stalls until resolution plus a redirect penalty)
//! and supply costs (i-cache misses) stall it, and a full fetch buffer
//! blocks it — producing the paper's two fetch-stall categories.
//!
//! Every cycle is classified exactly once at the end of the stage sequence
//! and charged to one [`CycleLedger`] bucket; the [`FetchStalls`] taxonomy
//! in the returned [`SimResult`] is *derived* from that partition, so the
//! stall counters cannot drift from (or double-count against) total
//! cycles. See [`critic_obs::ledger`] for the attribution order.
//!
//! # Data-oriented core
//!
//! The cycle loop never touches [`critic_workloads::DynInsn`] records:
//! a one-pass decode
//! ([`DecodedTrace`]) folds every per-instruction fact the stages consume
//! into flat struct-of-arrays columns — folded functional-unit kind,
//! execution latency, a flag byte (load/CDP/branch/taken/sequential-
//! target/call), padded dependence indices, pc, memory address, and branch
//! target — so the hot loops are tight array walks with no enum matching
//! or `Option` chasing. The decode is a pure function of the trace and is
//! *shareable*: the baseline decode is computed once per app and every
//! scheme variant copies the columns of its common prefix with the base
//! trace ([`DecodedTrace::decode_with_base`]) instead of re-deriving them,
//! which is the per-app "single shared trace decode" the batch runner
//! builds on. Pipeline queues are index structures, not `VecDeque`s: the
//! fetch queue is the contiguous index range `[fq_head, fetch_idx)` (fetch
//! delivers trace order, so no buffer is needed at all) and the ROB is a
//! power-of-two index ring (`IndexRing`).
//!
//! # One loop, two column sources
//!
//! There is exactly one cycle loop (`Simulator::run_source`), generic over
//! a `Source` that owns where the columns live and how an instruction
//! index maps to a column and timestamp slot. [`Simulator::run_decoded`]
//! runs it over `Flat` — a whole [`DecodedTrace`] plus its fanout, slot
//! `i` = insn `i`, nothing to feed — and [`Simulator::run_streamed`] over
//! the bounded-memory ring of [`crate::stream_sim`]. Monomorphization
//! gives each source its own copy of the loop, so the materialized path
//! pays nothing for the ring's masking. Each cycle takes the columns once
//! as a `Cols` of plain slices.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use critic_isa::{FuKind, Opcode};
use critic_mem::{MemConfig, MemSystem};
use critic_obs::{CycleClass, CycleLedger};
use critic_workloads::{DynInsn, Trace, NO_DEP};

use crate::bpu::Bpu;
use crate::config::CpuConfig;
use crate::crit::CritTable;
use crate::stats::{FetchStalls, SimResult, StageBreakdown};

/// Why the fetch stage is currently unable to supply instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SupplyStall {
    None,
    ICacheMiss,
    Branch,
}

pub(crate) const UNSET: u64 = u64::MAX;

/// Which simulation engine a harness routes its runs through. Both engines
/// produce bit-identical [`SimResult`]s and [`CycleLedger`]s (asserted by
/// the differential suites); they differ only in speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimEngine {
    /// The data-oriented core: struct-of-arrays decode (shareable across
    /// schemes), recycled scratch and models, idle-window skipping.
    #[default]
    DataOriented,
    /// The preserved scalar loop ([`Simulator::run_reference`]): the
    /// differential oracle every optimized path is diffed against.
    /// Deliberately not optimized.
    Reference,
}

/// Flag bits of [`DecodedTrace::flags`].
pub(crate) const F_LOAD: u8 = 1 << 0;
pub(crate) const F_CDP: u8 = 1 << 1;
pub(crate) const F_MEM: u8 = 1 << 2;
pub(crate) const F_BRANCH: u8 = 1 << 3;
pub(crate) const F_TAKEN: u8 = 1 << 4;
/// Branch whose target is the next sequential pc (the Sec. IV-A format
/// switch): folds to an ALU op at issue, ends the fetch group without a
/// redirect bubble.
pub(crate) const F_SEQ: u8 = 1 << 5;
/// `Bl` with a recorded outcome: commit reports the call target to the
/// EFetch hook.
pub(crate) const F_CALL: u8 = 1 << 6;
/// Flag-setting compare (`Cmp`/`Cmn`/`Tst`/`Vcmp`): produces no
/// forwardable value, so it never accrues dataflow fan-out.
pub(crate) const F_CMP: u8 = 1 << 7;

/// Branch-prediction dispatch class of [`DecodedTrace::br_class`] (only
/// meaningful when `F_BRANCH` is set).
pub(crate) const BR_OTHER: u8 = 0;
pub(crate) const BR_COND: u8 = 1;
pub(crate) const BR_CALL: u8 = 2;
pub(crate) const BR_RET: u8 = 3;

/// Folds a functional-unit kind to its index in `Pipeline::fu_cap`.
fn fu_code(kind: FuKind) -> u8 {
    match kind {
        // FuKind::None issues on the integer ALU pool.
        FuKind::IntAlu | FuKind::None => 0,
        FuKind::IntMult => 1,
        FuKind::IntDiv => 2,
        FuKind::Mem => 3,
        FuKind::Branch => 4,
        FuKind::FloatAdd => 5,
        FuKind::FloatMul => 6,
        FuKind::FloatDiv => 7,
    }
}

/// One-pass struct-of-arrays decode of a trace: every per-instruction fact
/// the cycle loop consumes, precomputed into flat columns so the stage
/// loops are branch-light array walks.
///
/// A `DecodedTrace` is a pure function of its [`Trace`] — no configuration
/// leaks in — so one decode serves every simulator configuration of the
/// same trace, and the baseline decode of an app is shared across all of
/// its schemes' variant decodes through
/// [`DecodedTrace::decode_with_base`].
#[derive(Debug, Default, Clone)]
pub struct DecodedTrace {
    len: usize,
    /// Folded functional-unit kind (`fu_code`): statically-sequential
    /// switch branches already fold to `IntAlu` here, so issue never
    /// re-derives it.
    kind: Vec<u8>,
    /// Execution latency for non-load kinds (stores carry the store-buffer
    /// latency; loads resolve through the memory system at issue).
    lat: Vec<u32>,
    /// `F_*` flag bits.
    flags: Vec<u8>,
    /// Instruction size in bytes (2 = Thumb, 4 = ARM).
    bytes: Vec<u8>,
    /// Dependence indices *shifted by one* (`0` is the always-done
    /// sentinel, insn `i` is slot `i + 1`), so the ready check is three
    /// unconditional loads regardless of how many real deps exist — and
    /// the encoding is independent of the trace length, which is what
    /// makes prefix copying across differently-sized variants sound.
    deps: Vec<[u32; 3]>,
    /// Program counter.
    pc: Vec<u64>,
    /// Effective address for memory ops (0 otherwise).
    mem_addr: Vec<u64>,
    /// Branch target (0 when not a branch).
    target: Vec<u64>,
    /// Branch-prediction dispatch class (`BR_*`).
    br_class: Vec<u8>,
}

impl DecodedTrace {
    /// An empty decode; fill it with [`DecodedTrace::decode_into`].
    pub fn new() -> DecodedTrace {
        DecodedTrace::default()
    }

    /// The number of decoded instructions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the decode is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decodes `trace` from scratch, recycling this decode's buffers.
    pub fn decode_into(&mut self, trace: &Trace) {
        self.decode_from(trace, 0);
    }

    /// Decodes `trace` sharing work with an already-decoded base trace:
    /// the columns of the longest common entry prefix are copied from
    /// `base_decoded` (one memcpy per column) and only the divergent tail
    /// — where a scheme's transformed program departs from the baseline at
    /// its first hoisted/converted region — is decoded instruction by
    /// instruction. Returns the number of instructions served from the
    /// shared prefix.
    ///
    /// The dependence encoding is length-independent (see
    /// `DecodedTrace::deps`), so sharing is sound even though variants
    /// and base differ in length.
    pub fn decode_with_base(
        &mut self,
        trace: &Trace,
        base: &Trace,
        base_decoded: &DecodedTrace,
    ) -> usize {
        let shared = trace
            .entries
            .iter()
            .zip(&base.entries)
            .take(base_decoded.len)
            .take_while(|(a, b)| a == b)
            .count();
        self.decode_from(trace, shared);
        self.kind[..shared].copy_from_slice(&base_decoded.kind[..shared]);
        self.lat[..shared].copy_from_slice(&base_decoded.lat[..shared]);
        self.flags[..shared].copy_from_slice(&base_decoded.flags[..shared]);
        self.bytes[..shared].copy_from_slice(&base_decoded.bytes[..shared]);
        self.deps[..shared].copy_from_slice(&base_decoded.deps[..shared]);
        self.pc[..shared].copy_from_slice(&base_decoded.pc[..shared]);
        self.mem_addr[..shared].copy_from_slice(&base_decoded.mem_addr[..shared]);
        self.target[..shared].copy_from_slice(&base_decoded.target[..shared]);
        self.br_class[..shared].copy_from_slice(&base_decoded.br_class[..shared]);
        shared
    }

    /// Computes the per-instruction direct fan-out from the decoded
    /// columns, bit-identical to [`Trace::compute_fanout`] on the trace
    /// this decode came from: dependences point strictly backwards and
    /// the compare classification is a pure function of the opcode, so
    /// checking the producer's `F_CMP` flag here matches the reference's
    /// forward-filled `is_compare` table exactly. On the batched path
    /// this replaces a second walk over the multi-megabyte `DynInsn`
    /// records with a walk over two already-hot decoded columns.
    pub fn compute_fanout_into(&self, fanout: &mut Vec<u32>) {
        fanout.clear();
        fanout.resize(self.len, 0u32);
        for deps in &self.deps {
            for &d in deps {
                if d == 0 {
                    continue;
                }
                let dep = (d - 1) as usize;
                if self.flags[dep] & F_CMP == 0 {
                    fanout[dep] += 1;
                }
            }
        }
    }

    /// The columns as plain slices, beside `fanout`: one cycle's view.
    #[inline]
    pub(crate) fn cols<'a>(&'a self, fanout: &'a [u32]) -> Cols<'a> {
        let n = self.len;
        Cols {
            kind: &self.kind[..n],
            lat: &self.lat[..n],
            flags: &self.flags[..n],
            bytes: &self.bytes[..n],
            deps: &self.deps[..n],
            pc: &self.pc[..n],
            mem_addr: &self.mem_addr[..n],
            target: &self.target[..n],
            br_class: &self.br_class[..n],
            fanout: &fanout[..n],
        }
    }

    /// Resizes every column to a `cap`-slot ring, re-placing the live span
    /// `[lo, hi)` from the old ring (mask `old_mask`) under the new mask.
    pub(crate) fn regrow(&mut self, old_mask: usize, cap: usize, lo: usize, hi: usize) {
        regrow(&mut self.kind, old_mask, cap, lo, hi);
        regrow(&mut self.lat, old_mask, cap, lo, hi);
        regrow(&mut self.flags, old_mask, cap, lo, hi);
        regrow(&mut self.bytes, old_mask, cap, lo, hi);
        regrow(&mut self.deps, old_mask, cap, lo, hi);
        regrow(&mut self.pc, old_mask, cap, lo, hi);
        regrow(&mut self.mem_addr, old_mask, cap, lo, hi);
        regrow(&mut self.target, old_mask, cap, lo, hi);
        regrow(&mut self.br_class, old_mask, cap, lo, hi);
        self.len = cap;
    }

    /// Decodes `trace.entries[from..]` into slots `from..`, sizing the
    /// columns to the trace.
    fn decode_from(&mut self, trace: &Trace, from: usize) {
        self.resize(trace.entries.len());
        for (i, e) in trace.entries.iter().enumerate().skip(from) {
            self.decode_at(i, e);
        }
    }

    /// Sets every column's length to `n`, keeping the slots below it.
    fn resize(&mut self, n: usize) {
        self.kind.resize(n, 0);
        self.lat.resize(n, 0);
        self.flags.resize(n, 0);
        self.bytes.resize(n, 0);
        self.deps.resize(n, [0; 3]);
        self.pc.resize(n, 0);
        self.mem_addr.resize(n, 0);
        self.target.resize(n, 0);
        self.br_class.resize(n, 0);
        self.len = n;
    }

    /// Decodes one dynamic instruction into slot `s`: the one per-entry
    /// decode, shared by the materialized columns and the streamed ring
    /// (which keeps its ring in a `DecodedTrace` whose length is the ring
    /// size). Keeping the body in one place is what makes the streamed
    /// columns identical to the materialized ones by construction.
    #[inline]
    pub(crate) fn decode_at(&mut self, s: usize, e: &DynInsn) {
        let mut kind = e.op.fu_kind();
        let mut flags = 0u8;
        if e.op.is_load() {
            flags |= F_LOAD;
        }
        if e.is_cdp() {
            flags |= F_CDP;
        }
        if kind == FuKind::Mem {
            flags |= F_MEM;
        }
        if matches!(e.op, Opcode::Cmp | Opcode::Cmn | Opcode::Tst | Opcode::Vcmp) {
            flags |= F_CMP;
        }
        let mut target = 0u64;
        let mut br_class = BR_OTHER;
        if let Some(outcome) = e.branch {
            flags |= F_BRANCH;
            if outcome.taken {
                flags |= F_TAKEN;
            }
            if outcome.target_pc == e.pc + u64::from(e.bytes) {
                flags |= F_SEQ;
                if kind == FuKind::Branch {
                    // Statically-sequential switch branches fold to
                    // ALU no-ops; they never contend for the single
                    // branch port.
                    kind = FuKind::IntAlu;
                }
            }
            target = outcome.target_pc;
            br_class = match e.op {
                Opcode::B if e.predicated => BR_COND,
                Opcode::Bl => {
                    flags |= F_CALL;
                    BR_CALL
                }
                Opcode::Bx => BR_RET,
                _ => BR_OTHER,
            };
        }
        let lat = if kind == FuKind::Mem && !e.op.is_load() {
            // Stores retire through the store buffer at L1 speed.
            Opcode::Str.exec_latency()
        } else {
            e.op.exec_latency()
        };
        self.kind[s] = fu_code(kind);
        self.lat[s] = lat;
        self.flags[s] = flags;
        self.bytes[s] = e.bytes;
        self.deps[s] = e.deps.map(|d| if d == NO_DEP { 0 } else { d + 1 });
        self.pc[s] = e.pc;
        self.mem_addr[s] = e.mem_addr.unwrap_or(0);
        self.target[s] = target;
        self.br_class[s] = br_class;
    }
}

/// A fixed-capacity power-of-two index ring — the reorder buffer. Pushes
/// are guarded by the configured occupancy check before they happen, so
/// the ring itself never has to grow or wrap-check beyond the mask.
#[derive(Debug, Default)]
pub(crate) struct IndexRing {
    buf: Vec<u32>,
    head: usize,
    len: usize,
    mask: usize,
}

impl IndexRing {
    /// Clears the ring, sizing it to hold at least `cap` entries.
    pub(crate) fn reset(&mut self, cap: usize) {
        let cap = cap.max(1).next_power_of_two();
        if self.buf.len() != cap {
            self.buf = vec![0; cap];
        }
        self.head = 0;
        self.len = 0;
        self.mask = cap - 1;
    }

    #[inline]
    pub(crate) fn front(&self) -> Option<u32> {
        if self.len > 0 {
            Some(self.buf[self.head])
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn pop_front(&mut self) {
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    #[inline]
    pub(crate) fn push_back(&mut self, v: u32) {
        self.buf[(self.head + self.len) & self.mask] = v;
        self.len += 1;
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes held by the ring's backing storage.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<u32>()
    }
}

/// The seven per-instruction timestamp tables one run fills.
///
/// The tables are indexed by the run's [`Source`]: `Source::slot` for
/// every table but `done_at`, which is indexed by `Source::done_slot` and
/// read for dependences through `Source::done_of`. Neither layout ever
/// bulk-fills a table: every slot is written before it is read — fetch
/// stamps `fetched_at`/`supply_stall`/`blocked_at_fetch`, dispatch stamps
/// `decoded_at`/`blocked_at_decode` and seeds the `issued_at`/`done_at`
/// slots with `UNSET` (dependences always point at earlier instructions,
/// which dispatch strictly in order, so a dependence slot is seeded before
/// any wakeup scan can read it). A warm table therefore pays no O(n)
/// memset per run.
#[derive(Debug, Default)]
pub(crate) struct Stamps {
    fetched_at: Vec<u64>,
    supply_stall: Vec<u32>,
    blocked_at_fetch: Vec<u64>,
    blocked_at_decode: Vec<u64>,
    decoded_at: Vec<u64>,
    issued_at: Vec<u64>,
    done_at: Vec<u64>,
}

impl Stamps {
    /// Sizes the tables for an `n`-instruction materialized run: slot `i`
    /// is insn `i`, except `done_at`, which is *shifted by one* — slot 0
    /// is the always-done sentinel the padded dependence encoding points
    /// at, insn `i` lives in slot `i + 1`.
    fn reset_flat(&mut self, n: usize) {
        grow(&mut self.fetched_at, n);
        grow(&mut self.supply_stall, n);
        grow(&mut self.blocked_at_fetch, n);
        grow(&mut self.blocked_at_decode, n);
        grow(&mut self.decoded_at, n);
        grow(&mut self.issued_at, n);
        grow(&mut self.done_at, n + 1);
        self.done_at[0] = 0;
    }

    /// Resizes every table to a `cap`-slot ring, re-placing the live span
    /// `[lo, hi)` from the old ring (mask `old_mask`) under the new mask.
    pub(crate) fn regrow(&mut self, old_mask: usize, cap: usize, lo: usize, hi: usize) {
        regrow(&mut self.fetched_at, old_mask, cap, lo, hi);
        regrow(&mut self.supply_stall, old_mask, cap, lo, hi);
        regrow(&mut self.blocked_at_fetch, old_mask, cap, lo, hi);
        regrow(&mut self.blocked_at_decode, old_mask, cap, lo, hi);
        regrow(&mut self.decoded_at, old_mask, cap, lo, hi);
        regrow(&mut self.issued_at, old_mask, cap, lo, hi);
        regrow(&mut self.done_at, old_mask, cap, lo, hi);
    }
}

/// The pipeline queues, the divider timers and the recycled models: the
/// working memory whose shape does not depend on the column source.
#[derive(Debug, Default)]
pub(crate) struct Queues {
    /// Issue-queue entries with at least one dependence still lacking a
    /// completion time; rescanned each cycle (`UNSET` propagates through
    /// the dependence `max` until every dep has issued).
    waiting: Vec<u32>,
    /// Issue-queue entries with a known future wakeup time, keyed by it:
    /// popped — never rescanned — when their cycle arrives.
    wake: BinaryHeap<Reverse<(u64, u32)>>,
    /// Issue-queue entries whose dependences have all completed, kept in
    /// program order (ascending index); entries persist here across cycles
    /// while blocked on functional units.
    ready_pool: Vec<u32>,
    rob: IndexRing,
    ready: Vec<u32>,
    int_div_free: Vec<u64>,
    float_div_free: Vec<u64>,
    /// Recycled model state (memory hierarchy, branch predictor,
    /// criticality table): each run resets them in place to the cold state
    /// a fresh construction would produce, avoiding the ~1 MB of cache-line
    /// allocation a `MemSystem::new` performs per run.
    models: Option<(MemSystem, Bpu, CritTable)>,
}

impl Queues {
    /// The oldest instruction still in flight: the ROB head, or the
    /// dispatch frontier `fq_head` when the ROB is empty (everything older
    /// has committed).
    pub(crate) fn oldest(&self, fq_head: usize) -> usize {
        self.rob.front().map_or(fq_head, |head| head as usize)
    }

    /// Bytes held by the queues' backing storage.
    pub(crate) fn resident_bytes(&self) -> usize {
        (self.waiting.capacity() + self.ready_pool.capacity() + self.ready.capacity()) * 4
            + self.wake.capacity() * 16
            + self.rob.resident_bytes()
            + (self.int_div_free.capacity() + self.float_div_free.capacity()) * 8
    }
}

/// Reusable per-run working memory for the materialized cycle loop.
///
/// One `run` fills seven per-instruction timestamp tables plus the
/// issue/reorder queues and a decoded-trace column set; across a campaign
/// the simulator runs thousands of times on same-length traces, so callers
/// on the hot path keep one `SimScratch` per worker and pass it to
/// [`Simulator::run_with_scratch`] — every table is then recycled
/// (cleared and refilled, never reallocated once warm).
#[derive(Debug, Default)]
pub struct SimScratch {
    stamps: Stamps,
    queues: Queues,
    /// Owned decode for the entry points that take a plain [`Trace`];
    /// `Option` so it can be moved out while the scratch is borrowed.
    decoded: Option<DecodedTrace>,
}

impl SimScratch {
    /// Empty scratch; buffers grow on first use and are then recycled.
    pub fn new() -> SimScratch {
        SimScratch::default()
    }
}

/// `clear` + `resize`: refills in place, reallocating only to grow.
fn fill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// Sets a table's length without initializing its contents: stale values
/// from a previous run are deliberately left in place because every slot is
/// written before it is read (see [`Stamps`]).
fn grow<T: Default + Clone>(v: &mut Vec<T>, n: usize) {
    if v.len() < n {
        v.resize(n, T::default());
    } else {
        v.truncate(n);
    }
}

/// Copies the live ring span `[lo, hi)` into a freshly-sized ring.
pub(crate) fn regrow<T: Copy + Default>(
    v: &mut Vec<T>,
    old_mask: usize,
    new_cap: usize,
    lo: usize,
    hi: usize,
) {
    let mut next = vec![T::default(); new_cap];
    if !v.is_empty() {
        let new_mask = new_cap - 1;
        for i in lo..hi {
            next[i & new_mask] = v[i & old_mask];
        }
    }
    *v = next;
}

/// Inserts `i` into an ascending index list (the ready pool stays in
/// program order). The pool holds a handful of entries, so a binary search
/// plus shift beats any cleverer structure.
#[inline]
fn insert_sorted(pool: &mut Vec<u32>, i: u32) {
    let pos = pool.partition_point(|&x| x < i);
    pool.insert(pos, i);
}

thread_local! {
    /// Worker-owned scratch behind [`Simulator::run`]: every plain `run`
    /// call on a thread recycles the same tables instead of allocating a
    /// fresh `SimScratch` per call (the satellite audit found `figures`,
    /// the validation oracle path, and the store's baseline builder all
    /// paying that allocation).
    static THREAD_SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Runs `f` with this thread's recycled [`SimScratch`] — the worker-owned
/// scratch used by [`Simulator::run`] and by call sites (store baseline
/// builds, figure regeneration) that have no natural scratch owner.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut SimScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Re-entrant use (a caller already holds the thread scratch):
        // fall back to a fresh scratch rather than panicking.
        Err(_) => f(&mut SimScratch::new()),
    })
}

/// Where the cycle loop's instructions come from: the whole decoded trace
/// ([`Flat`]) or a ring fed window by window from a stream
/// (`stream_sim::Ring`). The source owns the slot layout of the columns
/// and the timestamp tables; the loop never indexes either without it.
pub(crate) trait Source {
    /// Instructions in the whole run.
    fn len(&self) -> usize;
    /// Makes the instructions fetch can reach this cycle readable; runs at
    /// the top of every cycle. `fq_head` is the dispatch frontier. A source
    /// that holds the whole trace has nothing to feed.
    fn feed(&mut self, _fetch_idx: usize, _fq_head: usize, _st: &mut Stamps, _q: &Queues) {}
    /// The columns, hoisted once per cycle.
    fn cols(&self) -> Cols<'_>;
    /// The column and timestamp slot of instruction `i`.
    fn slot(&self, i: usize) -> usize;
    /// The `done_at` slot of instruction `i`: its other slot unless the
    /// source shifts `done_at`.
    fn done_slot(&self, i: usize) -> usize {
        self.slot(i)
    }
    /// The completion time of a shifted dependence index (`0` = none).
    fn done_of(&self, done_at: &[u64], d: u32) -> u64;
}

/// One cycle's view of the decoded columns and the fanout, as plain
/// slices indexed by [`Source::slot`].
pub(crate) struct Cols<'a> {
    kind: &'a [u8],
    lat: &'a [u32],
    flags: &'a [u8],
    bytes: &'a [u8],
    deps: &'a [[u32; 3]],
    pc: &'a [u64],
    mem_addr: &'a [u64],
    target: &'a [u64],
    br_class: &'a [u8],
    fanout: &'a [u32],
}

/// The materialized source: a whole decoded trace and its fanout. Slot `i`
/// is insn `i`, and `done_at` is shifted by one (see
/// [`Stamps::reset_flat`]).
struct Flat<'a> {
    decoded: &'a DecodedTrace,
    fanout: &'a [u32],
}

impl Source for Flat<'_> {
    fn len(&self) -> usize {
        self.decoded.len
    }

    #[inline]
    fn cols(&self) -> Cols<'_> {
        self.decoded.cols(self.fanout)
    }

    #[inline]
    fn slot(&self, i: usize) -> usize {
        i
    }

    #[inline]
    fn done_slot(&self, i: usize) -> usize {
        i + 1
    }

    /// Slot 0 is the always-done sentinel, so three unconditional loads
    /// replace the variable-length dependence walk.
    #[inline]
    fn done_of(&self, done_at: &[u64], d: u32) -> u64 {
        done_at[d as usize]
    }
}

/// A configured simulator; call [`Simulator::run`] per trace.
#[derive(Debug, Clone)]
pub struct Simulator {
    cpu: CpuConfig,
    mem_config: MemConfig,
}

impl Simulator {
    /// Binds a core configuration and memory configuration.
    pub fn new(cpu: CpuConfig, mem_config: MemConfig) -> Simulator {
        Simulator { cpu, mem_config }
    }

    /// The core configuration.
    pub fn cpu_config(&self) -> &CpuConfig {
        &self.cpu
    }

    /// Runs the trace to completion and returns the timing result.
    ///
    /// `fanout` must be `trace.compute_fanout()` for the same trace; it
    /// feeds the criticality-table training (the paper trains from ROB
    /// observations — the true dynamic fanout is the converged version of
    /// that) and the critical-instruction stage aggregation of Fig. 3a.
    ///
    /// Working memory comes from the calling thread's recycled scratch
    /// ([`with_thread_scratch`]), so repeated `run` calls on one thread
    /// allocate nothing once warm.
    ///
    /// # Panics
    ///
    /// Panics if `fanout.len() != trace.len()`.
    pub fn run(&self, trace: &Trace, fanout: &[u32]) -> SimResult {
        with_thread_scratch(|scratch| self.run_with_scratch(trace, fanout, scratch))
    }

    /// [`Simulator::run`] with caller-owned working memory: behaviour and
    /// results are identical, but the per-instruction tables and pipeline
    /// queues are recycled from `scratch` instead of allocated per run.
    ///
    /// # Panics
    ///
    /// Panics if `fanout.len() != trace.len()`.
    pub fn run_with_scratch(
        &self,
        trace: &Trace,
        fanout: &[u32],
        scratch: &mut SimScratch,
    ) -> SimResult {
        self.run_with_ledger(trace, fanout, scratch).0
    }

    /// [`Simulator::run_with_scratch`] returning the per-cycle accounting
    /// ledger alongside the result. The ledger is maintained on every run
    /// (one bucket increment per cycle — it *is* the stall bookkeeping, not
    /// an extra layer); this entry point merely hands the partition back
    /// instead of reducing it to [`FetchStalls`].
    ///
    /// Invariant: `ledger.total() == result.cycles`, enforced by a debug
    /// assertion here and by the observability test suite.
    ///
    /// # Panics
    ///
    /// Panics if `fanout.len() != trace.len()`.
    pub fn run_with_ledger(
        &self,
        trace: &Trace,
        fanout: &[u32],
        scratch: &mut SimScratch,
    ) -> (SimResult, CycleLedger) {
        assert_eq!(
            trace.len(),
            fanout.len(),
            "fanout slice must match the trace"
        );
        // Move the owned decode out so the rest of the scratch can be
        // borrowed mutably while the decode is borrowed.
        let mut decoded = scratch.decoded.take().unwrap_or_default();
        decoded.decode_into(trace);
        let out = self.run_decoded(&decoded, fanout, scratch);
        scratch.decoded = Some(decoded);
        out
    }

    /// Runs the preserved scalar loop (see [`crate::reference`]): the
    /// differential oracle the data-oriented core is diffed against. Not a
    /// hot path.
    pub fn run_reference(&self, trace: &Trace, fanout: &[u32]) -> (SimResult, CycleLedger) {
        crate::reference::run_reference(&self.cpu, &self.mem_config, trace, fanout)
    }

    /// The data-oriented core: runs an already-decoded trace. This is the
    /// batch entry point — the caller owns the decode and may share it (or
    /// its common prefix) across schemes and configurations.
    ///
    /// # Panics
    ///
    /// Panics if `fanout.len() != decoded.len()`.
    pub fn run_decoded(
        &self,
        decoded: &DecodedTrace,
        fanout: &[u32],
        scratch: &mut SimScratch,
    ) -> (SimResult, CycleLedger) {
        assert_eq!(
            decoded.len(),
            fanout.len(),
            "fanout slice must match the decoded trace"
        );
        scratch.stamps.reset_flat(decoded.len());
        let mut flat = Flat { decoded, fanout };
        self.run_source(&mut flat, &mut scratch.stamps, &mut scratch.queues)
    }

    /// The cycle loop, over any column source whose slot layout `st` was
    /// sized for. Stage order within a cycle is commit → issue → dispatch →
    /// fetch, each stage reading the state its predecessors left; then the
    /// cycle is classified, and an idle cycle skips ahead.
    pub(crate) fn run_source<S: Source>(
        &self,
        src: &mut S,
        st: &mut Stamps,
        q: &mut Queues,
    ) -> (SimResult, CycleLedger) {
        let n = src.len();
        let mut p = Pipeline::new(&self.cpu, &self.mem_config, n, st, q);
        let hard_cap = (n as u64).saturating_mul(1000).max(1_000_000);
        while p.fetch_idx < n || p.fq_head < p.fetch_idx || !p.q.rob.is_empty() {
            src.feed(p.fetch_idx, p.fq_head, p.st, p.q);
            let c = src.cols();
            let commits = p.commit(src, &c);
            let issued = p.issue(src, &c);
            let fq_was = p.fq_head;
            let (dispatched, backend_blocked) = p.dispatch(src, &c);
            let fetch_was = p.fetch_idx;
            let fetch_stall = p.fetch(src, &c, dispatched);
            let class = p.classify(src, &c, fetch_stall, commits, dispatched);
            p.ledger.charge(class);
            // A cycle that made no progress at all (no commit, no issue, no
            // dispatch or CDP consumption, no fetch delivery) may open an
            // idle window; see `Pipeline::skip_idle`.
            if commits == 0
                && !issued
                && dispatched == 0
                && p.fq_head == fq_was
                && p.fetch_idx == fetch_was
                && p.q.ready_pool.is_empty()
            {
                p.skip_idle(src, class, backend_blocked);
            }
            p.now += 1;
            if p.now > hard_cap {
                panic!("simulation exceeded the cycle cap: deadlock in the pipeline model");
            }
        }
        p.finish()
    }
}

/// The cross-cycle state of one run — models, timestamp tables, queues,
/// and every register a stage carries into the next cycle — with one
/// method per stage.
struct Pipeline<'r> {
    cfg: &'r CpuConfig,
    n: usize,
    st: &'r mut Stamps,
    q: &'r mut Queues,
    mem: MemSystem,
    bpu: Bpu,
    crit_table: CritTable,
    /// Functional units per folded kind (`fu_code` order).
    fu_cap: [u32; 8],
    now: u64,
    head_since: u64,
    /// Cumulative count of backend-blocked cycles, sampled at fetch time;
    /// lets commit attribute each instruction's buffer time between
    /// "genuine fetch residency" and "ROB back-pressure".
    blocked_cum: u64,
    /// Issue-queue occupancy: waiting + wake + ready_pool entries.
    iq_len: usize,
    fetch_idx: usize,
    /// The fetch queue is the contiguous range [fq_head, fetch_idx):
    /// fetch delivers trace order, so the "queue" is two counters.
    fq_head: usize,
    current_line: Option<u64>,
    fetch_resume_at: u64,
    resume_reason: SupplyStall,
    fetch_blocked_on: Option<u32>,
    pending_supply: u32,
    dispatch_block_until: u64,
    ledger: CycleLedger,
    stage_all: StageBreakdown,
    stage_critical: StageBreakdown,
    committed: u64,
    cdp_switches: u64,
    thumb_fetched: u64,
}

impl<'r> Pipeline<'r> {
    /// A cold pipeline over recycled queues and models.
    fn new(
        cfg: &'r CpuConfig,
        mem_config: &MemConfig,
        n: usize,
        st: &'r mut Stamps,
        q: &'r mut Queues,
    ) -> Pipeline<'r> {
        let (mem, bpu, crit_table) = match q.models.take() {
            Some((mut mem, mut bpu, mut crit_table)) => {
                mem.reset_to(mem_config);
                bpu.reset_to(cfg.bpu_entries, cfg.bpu_history_bits, cfg.ras_depth);
                crit_table.reset_to(cfg.bpu_entries, cfg.crit_threshold);
                (mem, bpu, crit_table)
            }
            None => (
                MemSystem::new(mem_config),
                Bpu::new(cfg.bpu_entries, cfg.bpu_history_bits, cfg.ras_depth),
                CritTable::new(cfg.bpu_entries, cfg.crit_threshold),
            ),
        };
        q.waiting.clear();
        q.wake.clear();
        q.ready_pool.clear();
        q.rob.reset(cfg.rob_entries);
        q.ready.clear();
        fill(&mut q.int_div_free, cfg.fu.int_div as usize, 0);
        fill(&mut q.float_div_free, cfg.fu.float_div as usize, 0);
        Pipeline {
            cfg,
            n,
            st,
            q,
            mem,
            bpu,
            crit_table,
            fu_cap: [
                cfg.fu.int_alu,
                cfg.fu.int_mult,
                cfg.fu.int_div,
                cfg.fu.mem_ports,
                cfg.fu.branch,
                cfg.fu.float_add,
                cfg.fu.float_mul,
                cfg.fu.float_div,
            ],
            now: 0,
            head_since: 0,
            blocked_cum: 0,
            iq_len: 0,
            fetch_idx: 0,
            fq_head: 0,
            current_line: None,
            fetch_resume_at: 0,
            resume_reason: SupplyStall::None,
            fetch_blocked_on: None,
            pending_supply: 0,
            dispatch_block_until: 0,
            ledger: CycleLedger::new(),
            stage_all: StageBreakdown::default(),
            stage_critical: StageBreakdown::default(),
            committed: 0,
            cdp_switches: 0,
            thumb_fetched: 0,
        }
    }

    /// Retires up to `width` completed instructions from the ROB head,
    /// charging their stage residencies. Returns how many retired.
    #[inline]
    fn commit<S: Source>(&mut self, src: &S, c: &Cols<'_>) -> u32 {
        let now = self.now;
        let st = &*self.st;
        let mut commits = 0;
        while commits < self.cfg.width {
            let Some(head) = self.q.rob.front() else {
                break;
            };
            let hi = head as usize;
            let done = st.done_at[src.done_slot(hi)];
            if done > now {
                break;
            }
            let s = src.slot(hi);
            self.q.rob.pop_front();
            commits += 1;
            self.committed += 1;
            let flags = c.flags[s];
            // Aggregate stage residencies. Fetch-buffer time that passed
            // while dispatch was blocked on a full ROB/IQ is *backend*
            // back-pressure, not fetch-stage time — gem5 charges it to
            // rename-blocked-on-ROB, the paper to "ROB queue
            // residencies" — so it lands in the commit bucket.
            let buffer_total = st.decoded_at[s]
                .saturating_sub(st.fetched_at[s])
                .saturating_sub(1);
            let buffer_blocked =
                (st.blocked_at_decode[s] - st.blocked_at_fetch[s]).min(buffer_total);
            let buffer = buffer_total - buffer_blocked;
            let issue_wait = st.issued_at[s].saturating_sub(st.decoded_at[s]);
            let execute = done.saturating_sub(st.issued_at[s]);
            // Head-blocking time plus backend-blocked buffer time: the
            // ROB bucket charges culprits and back-pressure, not every
            // instruction queued behind them.
            let commit_wait = now.saturating_sub(done.max(self.head_since)) + buffer_blocked;
            self.head_since = now;
            let supply = u64::from(st.supply_stall[s]);
            self.stage_all
                .add(supply, buffer, 1, issue_wait, execute, commit_wait);
            let fanout = c.fanout[s];
            if fanout >= self.cfg.crit_threshold {
                self.stage_critical
                    .add(supply, buffer, 1, issue_wait, execute, commit_wait);
            }
            // Criticality training (predictor-table hardware, Sec. II-A).
            self.crit_table.train(c.pc[s], fanout);
            if flags & F_LOAD != 0 {
                self.mem.train_load_criticality(c.pc[s], fanout);
            }
            // EFetch hook: observe committed calls.
            if flags & F_CALL != 0 {
                self.mem.observe_call(c.target[s], now);
            }
        }
        commits
    }

    /// Wakes issue-queue entries whose dependences completed and issues up
    /// to `width` of them to free functional units. Returns whether any
    /// issued.
    #[inline]
    fn issue<S: Source>(&mut self, src: &S, c: &Cols<'_>) -> bool {
        if self.iq_len == 0 {
            return false;
        }
        let now = self.now;
        let cfg = self.cfg;
        let st = &mut *self.st;
        let Queues {
            waiting,
            wake,
            ready_pool,
            ready,
            int_div_free,
            float_div_free,
            ..
        } = &mut *self.q;
        // Wakeup scoreboard: entries whose dependences have all issued
        // carry a fixed wakeup time (completion times are written once), so
        // they are scheduled into a time-keyed heap exactly once and never
        // rescanned. Only entries still waiting on an *unissued* dependence
        // — `UNSET` propagates through the max — are rescanned per cycle.
        if !waiting.is_empty() {
            let done_at = &st.done_at;
            waiting.retain(|&i| {
                let d = c.deps[src.slot(i as usize)];
                let ra = src
                    .done_of(done_at, d[0])
                    .max(src.done_of(done_at, d[1]))
                    .max(src.done_of(done_at, d[2]));
                if ra == UNSET {
                    return true;
                }
                if ra <= now {
                    insert_sorted(ready_pool, i);
                } else {
                    wake.push(Reverse((ra, i)));
                }
                false
            });
        }
        while let Some(&Reverse((ra, i))) = wake.peek() {
            if ra > now {
                break;
            }
            wake.pop();
            insert_sorted(ready_pool, i);
        }
        // The pool is kept in ascending (program) order, matching the
        // per-cycle rebuild of the scalar path; prioritization stable-sorts
        // a scratch copy so the pool's canonical order survives for later
        // cycles.
        let selection: &[u32] = if cfg.prioritize_critical {
            ready.clear();
            ready.extend_from_slice(ready_pool);
            // Critical-first, stable within each class (program order).
            let crit_table = &self.crit_table;
            ready.sort_by_key(|&i| !crit_table.is_critical(c.pc[src.slot(i as usize)]));
            ready
        } else {
            ready_pool
        };
        let mut issued_count = 0u32;
        let mut used = [0u32; 8];
        for &i in selection {
            if issued_count >= cfg.width {
                break;
            }
            let hi = i as usize;
            let s = src.slot(hi);
            let kind = c.kind[s];
            // An unpipelined divider also needs a unit that is free now.
            let div_busy = match kind {
                K_INT_DIV => !int_div_free.iter().any(|&f| f <= now),
                K_FLOAT_DIV => !float_div_free.iter().any(|&f| f <= now),
                _ => false,
            };
            if div_busy || used[kind as usize] >= self.fu_cap[kind as usize] {
                continue;
            }
            used[kind as usize] += 1;
            // Latency.
            let latency = if kind == K_MEM {
                let addr = c.mem_addr[s];
                if c.flags[s] & F_LOAD != 0 {
                    let lat = self.mem.data_access(addr, now);
                    self.mem.observe_load(c.pc[s], addr, now);
                    lat
                } else {
                    // Stores retire through the store buffer at L1 speed;
                    // the access is still performed for traffic/energy
                    // accounting.
                    let _ = self.mem.data_access(addr, now);
                    u64::from(c.lat[s])
                }
            } else {
                u64::from(c.lat[s])
            };
            st.issued_at[s] = now;
            let done = now + latency;
            st.done_at[src.done_slot(hi)] = done;
            // Occupy unpipelined units.
            if kind == K_INT_DIV {
                if let Some(free) = int_div_free.iter_mut().find(|f| **f <= now) {
                    *free = done;
                }
            } else if kind == K_FLOAT_DIV {
                if let Some(free) = float_div_free.iter_mut().find(|f| **f <= now) {
                    *free = done;
                }
            }
            // Resolve a blocking mispredicted branch.
            if self.fetch_blocked_on == Some(i) {
                self.fetch_blocked_on = None;
                self.fetch_resume_at = done + u64::from(cfg.redirect_penalty);
                self.resume_reason = SupplyStall::Branch;
            }
            issued_count += 1;
        }
        if issued_count == 0 {
            return false;
        }
        // An entry issued this cycle iff its issue stamp is set: the pool
        // only ever holds unissued entries.
        ready_pool.retain(|&i| st.issued_at[src.slot(i as usize)] == UNSET);
        self.iq_len -= issued_count as usize;
        true
    }

    /// Decodes and renames up to `width` fetch-queue entries into the ROB
    /// and issue queue. Returns how many dispatched (CDPs excluded) and
    /// whether a full ROB/IQ blocked dispatch outright.
    #[inline]
    fn dispatch<S: Source>(&mut self, src: &S, c: &Cols<'_>) -> (u32, bool) {
        let now = self.now;
        if now < self.dispatch_block_until {
            return (0, false);
        }
        let cfg = self.cfg;
        let st = &mut *self.st;
        let mut dispatched = 0;
        let mut backend_blocked = false;
        while dispatched < cfg.width && self.fq_head < self.fetch_idx {
            let hi = self.fq_head;
            let s = src.slot(hi);
            if now < st.fetched_at[s] + 1 {
                break; // still in the decode pipe
            }
            if c.flags[s] & F_CDP != 0 {
                // The format switch is a decoder *prefix*: the mode flip
                // closed timing at 160 ps in the paper's 45 nm synthesis,
                // so it is absorbed by the pipelined decoder — it consumes
                // fetch bytes and a fetch-queue entry but no dispatch slot,
                // and never enters the ROB (Sec. IV-B). The paper's
                // conservative +1 decode cycle is a latency (pipeline-fill)
                // effect with no steady-state bandwidth cost.
                self.fq_head += 1;
                st.decoded_at[s] = now;
                st.blocked_at_decode[s] = self.blocked_cum;
                st.done_at[src.done_slot(hi)] = now;
                self.cdp_switches += 1;
                // The paper conservatively charges one extra decode cycle;
                // a pipelined decoder hides it, so only the cycles *beyond*
                // the first stall dispatch (the knob matters for the
                // ablation sweep).
                self.dispatch_block_until = now + u64::from(cfg.cdp_bubble.saturating_sub(1));
                continue;
            }
            if self.q.rob.len() >= cfg.rob_entries || self.iq_len >= cfg.iq_entries {
                backend_blocked = dispatched == 0;
                break;
            }
            self.fq_head += 1;
            st.decoded_at[s] = now;
            st.blocked_at_decode[s] = self.blocked_cum;
            // Seed the lazily-initialized issue/completion slots (the
            // tables are not bulk-filled; see `Stamps`).
            st.issued_at[s] = UNSET;
            st.done_at[src.done_slot(hi)] = UNSET;
            self.q.rob.push_back(hi as u32);
            self.q.waiting.push(hi as u32);
            self.iq_len += 1;
            dispatched += 1;
        }
        if backend_blocked {
            self.blocked_cum += 1;
        }
        (dispatched, backend_blocked)
    }

    /// The fetch stage: follows the committed path of the trace, stalled
    /// by control-flow costs (taken-branch bubbles, misprediction until
    /// resolution plus a redirect penalty) and supply costs (i-cache
    /// misses), and blocked by a full fetch buffer. Returns the fetch-side
    /// stall this cycle is charged to, if any.
    #[inline]
    fn fetch<S: Source>(&mut self, src: &S, c: &Cols<'_>, dispatched: u32) -> Option<CycleClass> {
        if self.fetch_idx >= self.n {
            return None;
        }
        if self.fetch_blocked_on.is_some() {
            self.pending_supply += 1;
            return Some(CycleClass::FetchStallBranch);
        }
        let now = self.now;
        if now < self.fetch_resume_at {
            self.pending_supply += 1;
            return match self.resume_reason {
                SupplyStall::ICacheMiss => Some(CycleClass::FetchStallICache),
                SupplyStall::Branch => Some(CycleClass::FetchStallBranch),
                SupplyStall::None => None,
            };
        }
        let cfg = self.cfg;
        let st = &mut *self.st;
        let mut stall: Option<CycleClass> = None;
        let icache_hit = 2u64; // L1I hit latency from MemConfig geometry
        let mut bytes = cfg.fetch_bytes_per_cycle;
        // Fetch is *byte*-limited: one 16-byte access per cycle delivers 4
        // ARM words or up to 8 Thumb half-words — this is exactly the
        // "nearly doubles the fetch bandwidth" effect the 16-bit format
        // buys (Sec. III-B). The instruction cap models the fetch buffer's
        // half-word-granular write ports.
        let insn_cap = cfg.fetch_width * 2;
        let mut delivered = 0u32;
        while delivered < insn_cap && self.fetch_idx < self.n {
            if self.fetch_idx - self.fq_head >= cfg.fetch_buffer {
                // Count back-pressure only when the pipe is truly blocked:
                // buffer full *and* decode moved nothing this cycle. A full
                // buffer with decode draining at full width is steady-state
                // flow, not a stall.
                if delivered == 0 && dispatched == 0 {
                    stall = Some(CycleClass::FetchStallBackpressure);
                }
                break;
            }
            let idx = self.fetch_idx;
            let s = src.slot(idx);
            let pc = c.pc[s];
            let insn_bytes = c.bytes[s];
            let flags = c.flags[s];
            let line = pc & !63;
            if self.current_line != Some(line) {
                let latency = self.mem.ifetch(pc, now);
                // The line will be resident once the miss returns; remember
                // it so we do not re-access on resume.
                self.current_line = Some(line);
                if latency > icache_hit {
                    self.fetch_resume_at = now + latency;
                    self.resume_reason = SupplyStall::ICacheMiss;
                    if delivered == 0 {
                        stall = Some(CycleClass::FetchStallICache);
                        self.pending_supply += 1;
                    }
                    break;
                }
            }
            if u64::from(insn_bytes) > bytes {
                break; // per-cycle fetch bandwidth exhausted
            }
            bytes -= u64::from(insn_bytes);
            st.fetched_at[s] = now;
            st.blocked_at_fetch[s] = self.blocked_cum;
            // Every instruction delivered in this cycle waited out the same
            // supply stall (they sat in the missed line / post-redirect
            // shadow together); the counter clears at end of cycle.
            st.supply_stall[s] = self.pending_supply;
            if insn_bytes == 2 {
                self.thumb_fetched += 1;
            }
            self.fetch_idx += 1;
            delivered += 1;

            if flags & F_BRANCH == 0 {
                continue;
            }
            let taken = flags & F_TAKEN != 0;
            if cfg.perfect_branch {
                if taken {
                    self.current_line = None; // discontinuity, but no bubble
                }
                continue;
            }
            let correct = match c.br_class[s] {
                BR_COND => self.bpu.predict_conditional(pc, taken),
                BR_CALL => {
                    self.bpu.push_return(pc + u64::from(insn_bytes));
                    true
                }
                BR_RET => self.bpu.predict_return(c.target[s]),
                _ => true,
            };
            if !correct {
                // Fetch stops until the branch resolves in execute.
                self.fetch_blocked_on = Some(idx as u32);
                self.current_line = None;
                break;
            }
            if taken {
                if flags & F_SEQ != 0 {
                    // A branch to the very next instruction (the format
                    // switch of Sec. IV-A): the "redirect" is sequential, so
                    // the fetch group merely ends early — the branch still
                    // costs its fetch bytes, a ROB slot, and a branch unit.
                    break;
                }
                // Correctly-predicted taken branch: redirect bubble.
                self.fetch_resume_at = now + 1 + u64::from(cfg.taken_bubble);
                self.resume_reason = SupplyStall::Branch;
                self.current_line = None;
                break;
            }
        }
        if delivered > 0 {
            self.pending_supply = 0;
        }
        stall
    }

    /// Classifies this cycle, exactly once: fetch-side stalls first
    /// (attribution order documented in `critic_obs::ledger`), then backend
    /// progress by what the ROB head was doing, then front-end-only
    /// progress, then drain.
    #[inline]
    fn classify<S: Source>(
        &self,
        src: &S,
        c: &Cols<'_>,
        fetch_stall: Option<CycleClass>,
        commits: u32,
        dispatched: u32,
    ) -> CycleClass {
        if let Some(stall) = fetch_stall {
            stall
        } else if commits > 0 {
            CycleClass::Commit
        } else if let Some(head) = self.q.rob.front() {
            let s = src.slot(head as usize);
            if self.st.issued_at[s] != UNSET {
                if c.flags[s] & F_MEM != 0 {
                    CycleClass::Mem
                } else {
                    CycleClass::Execute
                }
            } else {
                CycleClass::Issue
            }
        } else if self.fq_head < self.fetch_idx || dispatched > 0 {
            CycleClass::Decode
        } else {
            CycleClass::SquashIdle
        }
    }

    /// The idle-window skip, after a cycle that made no progress: with
    /// nothing poised to become ready, the pipeline state is frozen, and
    /// every following cycle repeats this one's classification verbatim
    /// until the next scheduled event. Jump straight to that event,
    /// bulk-charging the skipped cycles to the same ledger bucket — the
    /// partition is unchanged because each skipped cycle is counted exactly
    /// once, with the classification it would have received. Events that
    /// can end the window: the ROB head's completion, the wake heap's next
    /// ready time, fetch-supply resumption, the CDP dispatch stall
    /// expiring, and the decode pipe delivering the next fetch-queue entry.
    /// A non-empty ready pool disqualifies the window (a div-unit-blocked
    /// entry wakes on unit availability, which is not in the event set).
    #[inline]
    fn skip_idle<S: Source>(&mut self, src: &S, class: CycleClass, backend_blocked: bool) {
        let now = self.now;
        let mut next = UNSET;
        if let Some(head) = self.q.rob.front() {
            let done = self.st.done_at[src.done_slot(head as usize)];
            if done != UNSET {
                next = next.min(done);
            }
        }
        if let Some(&Reverse((ra, _))) = self.q.wake.peek() {
            next = next.min(ra);
        }
        let fetching = self.fetch_idx < self.n;
        if fetching && self.fetch_blocked_on.is_none() && self.fetch_resume_at > now {
            next = next.min(self.fetch_resume_at);
        }
        if now < self.dispatch_block_until {
            next = next.min(self.dispatch_block_until);
        }
        if self.fq_head < self.fetch_idx
            && self.q.rob.len() < self.cfg.rob_entries
            && self.iq_len < self.cfg.iq_entries
            && now >= self.dispatch_block_until
        {
            // Dispatch is waiting only on the decode pipe.
            next = next.min(self.st.fetched_at[src.slot(self.fq_head)] + 1);
        }
        if next != UNSET && next > now + 1 {
            let skipped = next - now - 1;
            self.ledger.charge_many(class, skipped);
            // Replay the per-cycle side counters the skipped cycles would
            // have bumped: supply-stall residency while fetch is
            // branch-blocked or inside a miss/redirect window, and the
            // backend-blocked accumulator while dispatch is stuck on a full
            // ROB/IQ.
            if fetching && (self.fetch_blocked_on.is_some() || now + 1 < self.fetch_resume_at) {
                self.pending_supply += skipped as u32;
            }
            if backend_blocked {
                self.blocked_cum += skipped;
            }
            self.now += skipped;
        }
    }

    /// Ends the run: hands the models back for recycling and reduces the
    /// counters to the result.
    fn finish(self) -> (SimResult, CycleLedger) {
        let cycles = self.now;
        let ledger = self.ledger;
        debug_assert!(
            ledger.check(cycles).is_ok(),
            "cycle ledger must partition the run: {:?}",
            ledger.check(cycles)
        );
        // The Fig. 3b stall taxonomy is a projection of the ledger — the
        // same audited partition feeds figures and EXPERIMENTS.md.
        let fetch_stalls = FetchStalls {
            icache: ledger.fetch_stall_icache,
            branch: ledger.fetch_stall_branch,
            backpressure: ledger.fetch_stall_backpressure,
        };
        let result = SimResult {
            cycles,
            committed: self.committed,
            cdp_switches: self.cdp_switches,
            fetch_stalls,
            stage_all: self.stage_all,
            stage_critical: self.stage_critical,
            bpu: self.bpu.stats(),
            mem: self.mem.stats(),
            thumb_fetched: self.thumb_fetched,
        };
        self.q.models = Some((self.mem, self.bpu, self.crit_table));
        (result, ledger)
    }
}

/// Folded-kind byte constants the issue loop branches on.
const K_INT_DIV: u8 = 2;
const K_MEM: u8 = 3;
const K_FLOAT_DIV: u8 = 7;

#[cfg(test)]
mod tests {
    use critic_workloads::{ExecutionPath, GenParams, ProgramGenerator, Trace};

    use super::*;

    fn mobile_trace(seed: u64, len: usize) -> (Trace, Vec<u32>) {
        let mut p = GenParams::mobile(seed);
        p.num_functions = 24;
        let program = ProgramGenerator::new(p).generate();
        let path = ExecutionPath::generate(&program, seed ^ 0xF00, len);
        let trace = Trace::expand(&program, &path);
        let fanout = trace.compute_fanout();
        (trace, fanout)
    }

    fn spec_trace(seed: u64, len: usize) -> (Trace, Vec<u32>) {
        let mut p = GenParams::spec_int(seed);
        p.num_functions = 8;
        let program = ProgramGenerator::new(p).generate();
        let path = ExecutionPath::generate(&program, seed ^ 0xF00, len);
        let trace = Trace::expand(&program, &path);
        let fanout = trace.compute_fanout();
        (trace, fanout)
    }

    fn run(trace: &Trace, fanout: &[u32]) -> SimResult {
        Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet()).run(trace, fanout)
    }

    #[test]
    fn commits_every_instruction() {
        let (trace, fanout) = mobile_trace(1, 8_000);
        let result = run(&trace, &fanout);
        assert_eq!(result.committed + result.cdp_switches, trace.len() as u64);
        assert!(result.cycles > 0);
    }

    #[test]
    fn ipc_is_plausible_for_a_4_wide_core() {
        let (trace, fanout) = mobile_trace(2, 20_000);
        let result = run(&trace, &fanout);
        let ipc = result.ipc();
        assert!(ipc > 0.2 && ipc < 4.0, "ipc={ipc}");
    }

    #[test]
    fn simulation_is_deterministic() {
        let (trace, fanout) = mobile_trace(3, 6_000);
        let a = run(&trace, &fanout);
        let b = run(&trace, &fanout);
        assert_eq!(a, b);
    }

    #[test]
    fn prepared_decode_matches_fresh_decode() {
        // run_decoded over a caller-owned decode is the same simulation as
        // the trace entry points — bit for bit, ledger included.
        let (trace, fanout) = mobile_trace(17, 10_000);
        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        let mut scratch = SimScratch::new();
        let (fresh, fresh_ledger) = sim.run_with_ledger(&trace, &fanout, &mut scratch);
        let mut decoded = DecodedTrace::new();
        decoded.decode_into(&trace);
        let (prepared, prepared_ledger) = sim.run_decoded(&decoded, &fanout, &mut scratch);
        assert_eq!(fresh, prepared);
        assert_eq!(fresh_ledger, prepared_ledger);
    }

    #[test]
    fn prefix_shared_decode_is_bit_identical() {
        // Decoding a trace against itself shares everything; against a
        // different trace it shares the common prefix — either way the
        // simulation must be bit-identical to a fresh decode.
        let (base, base_fanout) = mobile_trace(18, 10_000);
        let (other, other_fanout) = mobile_trace(19, 9_000);
        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        let mut scratch = SimScratch::new();
        let mut base_decoded = DecodedTrace::new();
        base_decoded.decode_into(&base);

        let mut shared = DecodedTrace::new();
        let full = shared.decode_with_base(&base, &base, &base_decoded);
        assert_eq!(full, base.len(), "identical traces share every entry");
        let (a, la) = sim.run_decoded(&shared, &base_fanout, &mut scratch);
        let (b, lb) = sim.run_with_ledger(&base, &base_fanout, &mut scratch);
        assert_eq!(a, b);
        assert_eq!(la, lb);

        let _ = shared.decode_with_base(&other, &base, &base_decoded);
        let (c, lc) = sim.run_decoded(&shared, &other_fanout, &mut scratch);
        let (d, ld) = sim.run_with_ledger(&other, &other_fanout, &mut scratch);
        assert_eq!(c, d);
        assert_eq!(lc, ld);
    }

    #[test]
    fn data_oriented_core_matches_the_scalar_reference() {
        // The scalar `VecDeque` loop preserved in `reference.rs` and the
        // struct-of-arrays core must agree bit for bit — result and ledger
        // — across workload families and scheme-relevant configs.
        for (seed, len, spec) in [
            (1u64, 8_000usize, false),
            (23, 12_000, false),
            (5, 9_000, true),
        ] {
            let (trace, fanout) = if spec {
                spec_trace(seed, len)
            } else {
                mobile_trace(seed, len)
            };
            for cpu in [
                CpuConfig::google_tablet(),
                CpuConfig::google_tablet().with_critical_prioritization(),
                CpuConfig::google_tablet().with_perfect_branch(),
            ] {
                let sim = Simulator::new(cpu, MemConfig::google_tablet());
                let (want, want_ledger) = sim.run_reference(&trace, &fanout);
                let mut scratch = SimScratch::new();
                let (got, got_ledger) = sim.run_with_ledger(&trace, &fanout, &mut scratch);
                assert_eq!(want, got, "SimResult diverged from the scalar path");
                assert_eq!(want_ledger, got_ledger, "CycleLedger diverged");
            }
        }
    }

    #[test]
    fn stage_residencies_cover_critical_instructions() {
        let (trace, fanout) = mobile_trace(4, 20_000);
        let result = run(&trace, &fanout);
        assert!(
            result.stage_critical.count > 0,
            "planted chains must yield critical insns"
        );
        assert!(result.stage_critical.count < result.stage_all.count);
        assert!(result.stage_all.total() > 0);
    }

    #[test]
    fn perfect_branching_is_never_slower() {
        let (trace, fanout) = mobile_trace(5, 15_000);
        let base = run(&trace, &fanout);
        let perfect = Simulator::new(
            CpuConfig::google_tablet().with_perfect_branch(),
            MemConfig::google_tablet(),
        )
        .run(&trace, &fanout);
        assert!(perfect.cycles <= base.cycles);
        assert_eq!(perfect.bpu.mispredicts, 0);
        assert_eq!(perfect.fetch_stalls.branch, 0);
    }

    #[test]
    fn double_fd_is_never_slower() {
        let (trace, fanout) = mobile_trace(6, 15_000);
        let base = run(&trace, &fanout);
        let wide = Simulator::new(
            CpuConfig::google_tablet().with_double_fd(),
            MemConfig::google_tablet().with_half_icache_latency(),
        )
        .run(&trace, &fanout);
        assert!(wide.cycles <= base.cycles);
    }

    #[test]
    fn bigger_icache_reduces_icache_stalls() {
        let (trace, fanout) = mobile_trace(7, 30_000);
        let base = run(&trace, &fanout);
        let big = Simulator::new(
            CpuConfig::google_tablet(),
            MemConfig::google_tablet().with_4x_icache(),
        )
        .run(&trace, &fanout);
        assert!(
            big.fetch_stalls.icache <= base.fetch_stalls.icache,
            "4x i-cache must not increase i-stalls"
        );
    }

    #[test]
    fn mobile_baseline_shows_fetch_side_stalls() {
        // The paper's core observation (Fig. 3b): mobile executions lose a
        // significant share of cycles to fetch stalls.
        let (trace, fanout) = mobile_trace(8, 40_000);
        let result = run(&trace, &fanout);
        let frac_i = result.stall_for_i_frac();
        let frac_rd = result.stall_for_rd_frac();
        assert!(frac_i > 0.02, "expected visible F.StallForI, got {frac_i}");
        assert!(
            frac_rd > 0.01,
            "expected visible F.StallForR+D, got {frac_rd}"
        );
    }

    #[test]
    fn spec_commits_and_exercises_dram() {
        let (trace, fanout) = spec_trace(9, 20_000);
        let result = run(&trace, &fanout);
        assert_eq!(result.committed + result.cdp_switches, trace.len() as u64);
        assert!(
            result.mem.dram.accesses > 0,
            "SPEC working sets must reach DRAM"
        );
    }

    #[test]
    fn prioritization_changes_schedule_without_breaking() {
        let (trace, fanout) = mobile_trace(10, 15_000);
        let base = run(&trace, &fanout);
        let prio = Simulator::new(
            CpuConfig::google_tablet().with_critical_prioritization(),
            MemConfig::google_tablet(),
        )
        .run(&trace, &fanout);
        assert_eq!(prio.committed, base.committed);
        // Not asserting direction: the paper's whole point is that this
        // helps SPEC much more than mobile.
    }

    #[test]
    fn thumb_trace_fetches_are_counted() {
        let (trace, fanout) = mobile_trace(11, 5_000);
        let result = run(&trace, &fanout);
        assert_eq!(result.thumb_fetched, 0, "baseline binaries are all-ARM");
    }

    #[test]
    fn ledger_partitions_every_cycle() {
        for seed in [1u64, 7, 13] {
            let (trace, fanout) = mobile_trace(seed, 12_000);
            let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
            let mut scratch = SimScratch::new();
            let (result, ledger) = sim.run_with_ledger(&trace, &fanout, &mut scratch);
            ledger
                .check(result.cycles)
                .expect("buckets must sum to total cycles");
            assert!(ledger.commit > 0, "a committing run must charge commit");
        }
    }

    #[test]
    fn fetch_stalls_are_a_projection_of_the_ledger() {
        let (trace, fanout) = mobile_trace(21, 15_000);
        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        let mut scratch = SimScratch::new();
        let (result, ledger) = sim.run_with_ledger(&trace, &fanout, &mut scratch);
        assert_eq!(result.fetch_stalls.icache, ledger.fetch_stall_icache);
        assert_eq!(result.fetch_stalls.branch, ledger.fetch_stall_branch);
        assert_eq!(
            result.fetch_stalls.backpressure,
            ledger.fetch_stall_backpressure
        );
        assert_eq!(result.fetch_stalls.stall_for_i(), ledger.stall_for_i());
        assert_eq!(result.fetch_stalls.stall_for_rd(), ledger.stall_for_rd());
    }

    /// A cycle where fetch is supply-stalled while the fetch buffer is also
    /// full must be charged once, to F.StallForI — never to both buckets.
    ///
    /// The classifier makes double-counting structurally impossible (one
    /// `CycleClass` per cycle), and the priority order resolves the overlap
    /// in favor of the upstream supply stall: during an in-flight i-cache
    /// miss or branch-recovery window fetch never reaches the buffer-full
    /// check, so back-pressure can only be charged on cycles where fetch
    /// actually attempted supply. This test pins that ordering: shrinking
    /// the fetch buffer (more back-pressure opportunities) must not change
    /// total supply-stall attribution on the same trace beyond what the
    /// slower drain itself causes, and the partition must stay exact.
    #[test]
    fn supply_stall_wins_over_cooccurring_backpressure() {
        let (trace, fanout) = mobile_trace(5, 15_000);
        let mut tiny = CpuConfig::google_tablet();
        tiny.fetch_buffer = 4; // force frequent buffer-full windows
        let sim = Simulator::new(tiny, MemConfig::google_tablet());
        let mut scratch = SimScratch::new();
        let (result, ledger) = sim.run_with_ledger(&trace, &fanout, &mut scratch);
        ledger
            .check(result.cycles)
            .expect("partition must hold under heavy back-pressure");
        assert!(
            ledger.fetch_stall_backpressure > 0,
            "a 4-entry fetch buffer must exhibit back-pressure"
        );
        // Exhaustive partition: both stall families plus every backend
        // bucket still sum exactly — no cycle counted in two buckets.
        let fetch_side = ledger.stall_for_i() + ledger.stall_for_rd();
        let backend = ledger.decode
            + ledger.issue
            + ledger.execute
            + ledger.mem
            + ledger.commit
            + ledger.squash_idle;
        assert_eq!(fetch_side + backend, result.cycles);
    }
}

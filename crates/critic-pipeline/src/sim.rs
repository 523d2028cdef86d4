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
//! or `Option` chasing. The decode is a pure function of the trace, so one
//! decode serves every simulator configuration of that trace. Pipeline
//! queues are index structures, not `VecDeque`s: the
//! fetch queue is the contiguous index range `[fq_head, fetch_idx)` (fetch
//! delivers trace order, so no buffer is needed at all) and the ROB is a
//! power-of-two index ring (`IndexRing`).
//!
//! # One loop, one column source
//!
//! There is exactly one cycle loop (`Simulator::run_source`) and one
//! column source: the ring of [`crate::stream_sim`], whose decoded
//! columns, fanout and timestamp tables hold only the live span of the
//! run and are indexed by `i & mask`. What varies is how the ring is fed:
//! [`Simulator::run_streamed`] fills it window by window from a stream,
//! [`Simulator::run_with_ledger`] decodes slices of a materialized trace
//! into it, and [`Simulator::run_decoded`] copies slices of an
//! already-decoded trace. Each cycle takes the ring once as a `Cols` of
//! plain slices.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use critic_isa::{FuKind, Opcode};
use critic_mem::{MemConfig, MemSystem};
use critic_obs::{CycleClass, CycleLedger};
use critic_workloads::{DynInsn, StreamBuffers, Trace, NO_DEP};

use crate::bpu::Bpu;
use crate::config::CpuConfig;
use crate::crit::CritTable;
use crate::stats::{FetchStalls, SimResult, StageBreakdown};
use crate::stream_sim::{Fill, Ring, StreamRunStats};

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
/// same trace.
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
    /// Dependence indices *shifted by one* (`0` is no dependence, insn
    /// `i` is `i + 1`), so every entry carries three dependence slots
    /// regardless of how many real deps exist — and
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
    ///
    /// Only the repository benchmark calls this, to measure how much of a
    /// variant's decode the base could share (`pipeline.prefix_shared_frac`);
    /// every simulation path decodes in full with
    /// [`DecodedTrace::decode_into`].
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
    /// forward-filled `is_compare` table exactly. A `Workbench` variant
    /// run uses it in place of a second walk over the multi-megabyte
    /// `DynInsn` records, reading two already-hot decoded columns.
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

    /// The columns as plain slices, beside `fanout`, with the ring
    /// geometry they are read through: one cycle's view.
    #[inline]
    pub(crate) fn cols<'a>(&'a self, fanout: &'a [u32], mask: usize, floor: usize) -> Cols<'a> {
        Cols {
            kind: &self.kind,
            lat: &self.lat,
            flags: &self.flags,
            bytes: &self.bytes,
            deps: &self.deps,
            pc: &self.pc,
            mem_addr: &self.mem_addr,
            target: &self.target,
            br_class: &self.br_class,
            fanout,
            mask,
            floor,
        }
    }

    /// Copies `src`'s entries `[from, to)` into this ring's slots under
    /// `mask`; the span must fit the ring.
    pub(crate) fn copy_span(&mut self, src: &DecodedTrace, from: usize, to: usize, mask: usize) {
        copy_wrapped(&mut self.kind, &src.kind[from..to], from & mask);
        copy_wrapped(&mut self.lat, &src.lat[from..to], from & mask);
        copy_wrapped(&mut self.flags, &src.flags[from..to], from & mask);
        copy_wrapped(&mut self.bytes, &src.bytes[from..to], from & mask);
        copy_wrapped(&mut self.deps, &src.deps[from..to], from & mask);
        copy_wrapped(&mut self.pc, &src.pc[from..to], from & mask);
        copy_wrapped(&mut self.mem_addr, &src.mem_addr[from..to], from & mask);
        copy_wrapped(&mut self.target, &src.target[from..to], from & mask);
        copy_wrapped(&mut self.br_class, &src.br_class[from..to], from & mask);
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
    /// decode, shared by [`DecodedTrace::decode_into`] and every fill of
    /// the ring (which keeps its columns in a `DecodedTrace` whose length
    /// is the ring size). Keeping the body in one place is what makes the
    /// ring's columns identical to a whole-trace decode by construction.
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
/// The tables are a ring over the live span of the run, from the oldest
/// instruction in flight to the decode frontier, sharing the columns'
/// slots (`i & mask`) and read for dependences through `Cols::done_of`:
/// a run holds O(ROB + fetch buffer + fill window) stamps, not O(trace).
/// No table is ever bulk-filled: every slot is written before it is
/// read — fetch stamps `fetched_at`/`supply_stall`/`blocked_at_fetch`,
/// dispatch stamps `decoded_at`/`blocked_at_decode` and seeds the
/// `issued_at`/`done_at` slots with `UNSET` (dependences always point at
/// earlier instructions, which dispatch strictly in order, so a
/// dependence slot is seeded before any wakeup scan can read it). A warm
/// table therefore pays no O(n) memset per run.
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

/// One in-flight instruction's wake-list links.
///
/// Wake lists are intrusive singly-linked lists threaded through the
/// consumers. As a producer, an entry's `head` is the first consumer
/// waiting for it to issue — an absolute instruction index, so the links
/// survive a ring regrow — and [`NO_WAITER`] ends a list. As a consumer,
/// `next[k]` continues the list of its `k`-th dependence's producer; a
/// consumer is linked once per distinct unissued producer, at the first
/// `k` naming it.
#[derive(Debug, Default, Clone, Copy)]
struct WakeLinks {
    head: u32,
    next: [u32; 3],
}

/// The issue queue's wake-up state: each in-flight instruction's
/// [`WakeLinks`] and the ready pool as a bitset, both indexed by
/// `i & mask`.
///
/// Every issue-queue entry, and every producer one waits for, is in the
/// ROB, so the ring only has to hold the in-flight span from the oldest
/// instruction to the dispatch frontier — not the fill window the column
/// ring also holds. It grows by doubling when
/// dispatch would overrun it (the CDPs, which never enter the ROB, can
/// stretch the span past the ROB's capacity). Dispatch writes an entry's
/// links and clears its bit before anything reads them, so the ring is
/// never bulk-cleared.
#[derive(Debug, Default)]
pub(crate) struct WakeRing {
    links: Vec<WakeLinks>,
    /// Bit `i & mask` is set while entry `i` has its wakeup time behind it
    /// and waits only for a functional unit.
    ready_bits: Vec<u64>,
    mask: usize,
}

impl WakeRing {
    /// Sizes the ring to hold at least `cap` in-flight instructions.
    fn reset(&mut self, cap: usize) {
        let cap = cap.max(64).next_power_of_two();
        if self.links.len() < cap {
            self.links.resize(cap, WakeLinks::default());
            self.ready_bits.resize(cap / 64, 0);
        }
        self.mask = self.links.len() - 1;
    }

    /// Makes room for dispatching entry `hi` while `oldest` is in flight.
    #[inline]
    fn fit(&mut self, oldest: usize, hi: usize) {
        if hi - oldest > self.mask {
            self.grow(oldest, hi);
        }
    }

    /// Doubles the ring until `[lo, hi]` fits, re-placing `[lo, hi)`.
    #[cold]
    fn grow(&mut self, lo: usize, hi: usize) {
        let old_mask = self.mask;
        let cap = (hi - lo + 1).next_power_of_two();
        let links = std::mem::replace(&mut self.links, vec![WakeLinks::default(); cap]);
        let bits = std::mem::replace(&mut self.ready_bits, vec![0; cap / 64]);
        self.mask = cap - 1;
        for i in lo..hi {
            let (old, new) = (i & old_mask, i & self.mask);
            self.links[new] = links[old];
            self.ready_bits[new / 64] |= ((bits[old / 64] >> (old % 64)) & 1) << (new % 64);
        }
    }

    #[inline]
    fn links(&mut self, i: usize) -> &mut WakeLinks {
        &mut self.links[i & self.mask]
    }

    #[inline]
    fn set_ready(&mut self, i: usize) {
        let s = i & self.mask;
        self.ready_bits[s / 64] |= 1 << (s % 64);
    }

    #[inline]
    fn clear_ready(&mut self, i: usize) {
        let s = i & self.mask;
        self.ready_bits[s / 64] &= !(1 << (s % 64));
    }

    /// The ready bits of the 64 entries from `base`, a multiple of 64.
    #[inline]
    fn ready_word(&self, base: usize) -> u64 {
        self.ready_bits[(base & self.mask) / 64]
    }

    fn resident_bytes(&self) -> usize {
        self.links.capacity() * std::mem::size_of::<WakeLinks>() + self.ready_bits.capacity() * 8
    }
}

/// End of a wake list.
const NO_WAITER: u32 = u32::MAX;

/// The pipeline queues, the divider timers and the recycled models: the
/// working memory whose shape does not depend on the fill window.
#[derive(Debug, Default)]
pub(crate) struct Queues {
    /// Issue-queue entries whose last unissued producer issued (or that
    /// had none at dispatch) this cycle, with their wakeup time: next
    /// cycle's issue stage moves them to the ready pool or `wake`. Entries
    /// still waiting on an unissued producer sit only on its wake list (see
    /// [`WakeLinks`]).
    resolved: Vec<(u64, u32)>,
    /// Issue-queue entries with a known future wakeup time, keyed by it:
    /// popped — never rescanned — when their cycle arrives.
    wake: BinaryHeap<Reverse<(u64, u32)>>,
    /// Size of the ready pool: issue-queue entries whose dependences have
    /// all completed, one bit each in `wake_ring`; entries persist there
    /// across cycles while blocked on functional units.
    ready_len: usize,
    wake_ring: WakeRing,
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

    /// Admits `hi`, the entry dispatch is taking, to the wake ring's
    /// in-flight span with its ready bit clear.
    fn seat(&mut self, hi: usize) {
        let oldest = self.oldest(hi);
        self.wake_ring.fit(oldest, hi);
        self.wake_ring.clear_ready(hi);
    }

    /// Bytes held by the queues' backing storage.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.ready.capacity() * 4
            + (self.resolved.capacity() + self.wake.capacity()) * 16
            + self.wake_ring.resident_bytes()
            + self.rob.resident_bytes()
            + (self.int_div_free.capacity() + self.float_div_free.capacity()) * 8
    }
}

/// Reusable working memory for every run of the cycle loop: the column
/// ring, its fanout and timestamp tables, the pipeline queues and models,
/// and the buffers of the stream a streamed run reads.
///
/// Across a campaign the simulator runs thousands of times, so callers on
/// the hot path keep one `SimScratch` per worker and pass it to every run
/// ([`Simulator::run_with_ledger`], [`Simulator::run_streamed`],
/// [`Simulator::run_decoded`]): every table is then recycled (cleared and
/// refilled, never reallocated once warm). The ring holds the live span
/// of a run, so what a scratch keeps does not grow with the trace.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Decoded columns, ring-indexed by `i & mask`: a `DecodedTrace` whose
    /// length is the ring capacity.
    pub(crate) cols: DecodedTrace,
    /// Direct fanout, ring-indexed like the columns.
    pub(crate) fanout: Vec<u32>,
    /// Timestamp tables, ring-indexed like the columns.
    pub(crate) stamps: Stamps,
    /// Pipeline queues and recycled models.
    pub(crate) queues: Queues,
    /// The buffers of the stream the next streamed run reads, recycled
    /// through [`SimScratch::open`] and [`SimScratch::recycle`].
    pub(crate) buffers: StreamBuffers,
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

/// Copies `src` into the ring `ring` from slot `at`, wrapping at its end;
/// `src` must fit the ring.
pub(crate) fn copy_wrapped<T: Copy>(ring: &mut [T], src: &[T], at: usize) {
    let first = src.len().min(ring.len() - at);
    ring[at..at + first].copy_from_slice(&src[..first]);
    ring[..src.len() - first].copy_from_slice(&src[first..]);
}

/// One cycle's view of the ring: the decoded columns and the fanout as
/// plain slices, all indexed by [`Cols::slot`], and the eviction floor
/// dependence lookups answer below.
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
    mask: usize,
    floor: usize,
}

impl Cols<'_> {
    /// The column and timestamp slot of instruction `i`.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        i & self.mask
    }

    /// The completion time of a shifted dependence index (`0` = none),
    /// with `0` for a dependence below the eviction floor (see the
    /// `stream_sim` module docs).
    #[inline]
    fn done_of(&self, done_at: &[u64], d: u32) -> u64 {
        if d == 0 {
            return 0;
        }
        let i = (d - 1) as usize;
        if i < self.floor {
            0
        } else {
            done_at[i & self.mask]
        }
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
    /// Working memory is a fresh [`SimScratch`]; callers that run many
    /// traces pass a recycled one to [`Simulator::run_with_ledger`].
    ///
    /// # Panics
    ///
    /// Panics if `fanout.len() != trace.len()`.
    pub fn run(&self, trace: &Trace, fanout: &[u32]) -> SimResult {
        self.run_with_ledger(trace, fanout, &mut SimScratch::new())
            .0
    }

    /// [`Simulator::run`] with caller-owned working memory, returning the
    /// per-cycle accounting ledger alongside the result. The trace is
    /// decoded slice by slice into the scratch's ring as fetch reaches it,
    /// so no trace-length decode is built. The ledger is maintained on
    /// every run (one bucket increment per cycle — it *is* the stall
    /// bookkeeping, not an extra layer); this entry point merely hands the
    /// partition back instead of reducing it to [`FetchStalls`].
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
        let (result, ledger, _) = self.run_source(Fill::Trace { trace, fanout }, scratch);
        (result, ledger)
    }

    /// Runs the preserved scalar loop (see [`crate::reference`]): the
    /// differential oracle the data-oriented core is diffed against. Not a
    /// hot path.
    pub fn run_reference(&self, trace: &Trace, fanout: &[u32]) -> (SimResult, CycleLedger) {
        crate::reference::run_reference(&self.cpu, &self.mem_config, trace, fanout)
    }

    /// Runs an already-decoded trace, copying its columns into the
    /// scratch's ring slice by slice; bit-identical to
    /// [`Simulator::run_with_ledger`] on the trace it was decoded from.
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
        let (result, ledger, _) = self.run_source(Fill::Decoded { decoded, fanout }, scratch);
        (result, ledger)
    }

    /// The cycle loop, over the scratch's ring fed by `fill`. Stage order
    /// within a cycle is commit → issue → dispatch → fetch, each stage
    /// reading the state its predecessors left; then the cycle is
    /// classified, and an idle cycle skips ahead.
    pub(crate) fn run_source(
        &self,
        mut fill: Fill<'_, '_>,
        scratch: &mut SimScratch,
    ) -> (SimResult, CycleLedger, StreamRunStats) {
        let SimScratch {
            cols,
            fanout,
            stamps,
            queues,
            ..
        } = scratch;
        let mut ring = Ring::new(&fill, &self.cpu, cols, fanout, stamps);
        let n = ring.len();
        let mut p = Pipeline::new(&self.cpu, &self.mem_config, n, stamps, queues);
        let hard_cap = (n as u64).saturating_mul(1000).max(1_000_000);
        while p.fetch_idx < n || p.fq_head < p.fetch_idx || !p.q.rob.is_empty() {
            ring.feed(&mut fill, p.fetch_idx, p.fq_head, p.st, p.q);
            let c = ring.cols();
            let commits = p.commit(&c);
            let issued = p.issue(&c);
            let fq_was = p.fq_head;
            let (dispatched, backend_blocked) = p.dispatch(&c);
            let fetch_was = p.fetch_idx;
            let fetch_stall = p.fetch(&c, dispatched);
            let class = p.classify(&c, fetch_stall, commits, dispatched);
            p.ledger.charge(class);
            // A cycle that made no progress at all (no commit, no issue, no
            // dispatch or CDP consumption, no fetch delivery) may open an
            // idle window; see `Pipeline::skip_idle`.
            if commits == 0
                && !issued
                && dispatched == 0
                && p.fq_head == fq_was
                && p.fetch_idx == fetch_was
                && p.q.ready_len == 0
            {
                p.skip_idle(&c, class, backend_blocked);
            }
            p.now += 1;
            if p.now > hard_cap {
                panic!("simulation exceeded the cycle cap: deadlock in the pipeline model");
            }
        }
        let (result, ledger) = p.finish();
        // The queues can grow between the last feed and the end of the run.
        ring.sample_peak(&fill, queues);
        (result, ledger, ring.stats)
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
    /// Issue-queue occupancy: entries on a wake list, in `resolved` or
    /// `wake`, or in the ready pool.
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
        q.resolved.clear();
        // `resolved` holds issue-queue entries only; sizing it up front keeps
        // its capacity (part of a streamed run's resident bytes) independent
        // of when the run's largest burst of resolutions happens.
        q.resolved.reserve(cfg.iq_entries);
        q.wake.clear();
        q.ready_len = 0;
        // The in-flight span holds the ROB plus the CDPs between its
        // entries; twice the ROB rarely needs to grow.
        q.wake_ring.reset(2 * cfg.rob_entries);
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
    fn commit(&mut self, c: &Cols<'_>) -> u32 {
        let now = self.now;
        let st = &*self.st;
        let mut commits = 0;
        while commits < self.cfg.width {
            let Some(head) = self.q.rob.front() else {
                break;
            };
            let hi = head as usize;
            let s = c.slot(hi);
            let done = st.done_at[s];
            if done > now {
                break;
            }
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
    fn issue(&mut self, c: &Cols<'_>) -> bool {
        if self.iq_len == 0 {
            return false;
        }
        let now = self.now;
        let cfg = self.cfg;
        // Every issue-queue entry lies in the in-flight span [lo, hi).
        let (lo, hi) = (self.q.oldest(self.fq_head), self.fq_head);
        let st = &mut *self.st;
        let Queues {
            resolved,
            wake,
            ready_len,
            wake_ring,
            ready,
            int_div_free,
            float_div_free,
            ..
        } = &mut *self.q;
        // Wakeup scoreboard: an entry whose producers have all issued
        // carries a fixed wakeup time (completion times are written once),
        // so it is scheduled into a time-keyed heap exactly once. An entry
        // joins `resolved` in the cycle its last unissued producer issues
        // (or in its dispatch cycle, if none was pending) and is scheduled
        // here one cycle later: the first cycle in which a rescan of every
        // waiting entry would have found no `UNSET` dependence.
        for &(ra, i) in resolved.iter() {
            // `ra` read the completion times a cycle ago; a rescan reads
            // them now, with producers evicted since then at 0. Both give
            // the same schedule (see the `stream_sim` module docs).
            debug_assert!({
                let d = c.deps[c.slot(i as usize)];
                let scan = c
                    .done_of(&st.done_at, d[0])
                    .max(c.done_of(&st.done_at, d[1]))
                    .max(c.done_of(&st.done_at, d[2]));
                if ra > now {
                    scan == ra
                } else {
                    scan <= now
                }
            });
            if ra <= now {
                wake_ring.set_ready(i as usize);
                *ready_len += 1;
            } else {
                wake.push(Reverse((ra, i)));
            }
        }
        resolved.clear();
        while let Some(&Reverse((ra, i))) = wake.peek() {
            if ra > now {
                break;
            }
            wake.pop();
            wake_ring.set_ready(i as usize);
            *ready_len += 1;
        }
        let width = cfg.width;
        let mut issued_count = 0u32;
        let mut used = [0u32; 8];
        let fu_cap = &self.fu_cap;
        let mem = &mut self.mem;
        let fetch_blocked_on = &mut self.fetch_blocked_on;
        let fetch_resume_at = &mut self.fetch_resume_at;
        let resume_reason = &mut self.resume_reason;
        // Issues ready entry `i` if a functional unit is free for it;
        // returns whether it issued.
        let mut try_issue = |i: u32, wake_ring: &mut WakeRing| -> bool {
            let hi = i as usize;
            let s = c.slot(hi);
            let kind = c.kind[s];
            // An unpipelined divider also needs a unit that is free now.
            let div_busy = match kind {
                K_INT_DIV => !int_div_free.iter().any(|&f| f <= now),
                K_FLOAT_DIV => !float_div_free.iter().any(|&f| f <= now),
                _ => false,
            };
            if div_busy || used[kind as usize] >= fu_cap[kind as usize] {
                return false;
            }
            used[kind as usize] += 1;
            // Latency.
            let latency = if kind == K_MEM {
                let addr = c.mem_addr[s];
                if c.flags[s] & F_LOAD != 0 {
                    let lat = mem.data_access(addr, now);
                    mem.observe_load(c.pc[s], addr, now);
                    lat
                } else {
                    // Stores retire through the store buffer at L1 speed;
                    // the access is still performed for traffic/energy
                    // accounting.
                    let _ = mem.data_access(addr, now);
                    u64::from(c.lat[s])
                }
            } else {
                u64::from(c.lat[s])
            };
            st.issued_at[s] = now;
            wake_ring.clear_ready(hi);
            let done = now + latency;
            st.done_at[s] = done;
            // Walk this producer's wake list: a consumer none of whose
            // dependences is still unissued resolves next cycle.
            let me = i + 1;
            let mut w = wake_ring.links(hi).head;
            while w != NO_WAITER {
                let ws = c.slot(w as usize);
                let d = c.deps[ws];
                let ra = c
                    .done_of(&st.done_at, d[0])
                    .max(c.done_of(&st.done_at, d[1]))
                    .max(c.done_of(&st.done_at, d[2]));
                if ra != UNSET {
                    resolved.push((ra, w));
                }
                let k = if d[0] == me {
                    0
                } else if d[1] == me {
                    1
                } else {
                    2
                };
                w = wake_ring.links(w as usize).next[k];
            }
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
            if *fetch_blocked_on == Some(i) {
                *fetch_blocked_on = None;
                *fetch_resume_at = done + u64::from(cfg.redirect_penalty);
                *resume_reason = SupplyStall::Branch;
            }
            true
        };
        // Selection visits the pool in ascending (program) order, matching
        // the per-cycle rebuild of the scalar path, and stops after `width`
        // issues.
        if cfg.prioritize_critical {
            // Critical-first, stable within each class (program order):
            // list the pool, then stable-sort it.
            ready.clear();
            let mut base = lo & !63;
            while base < hi && ready.len() < *ready_len {
                let mut word = wake_ring.ready_word(base);
                if base < lo {
                    word &= u64::MAX << (lo - base);
                }
                if hi - base < 64 {
                    word &= (1 << (hi - base)) - 1;
                }
                while word != 0 {
                    ready.push((base + word.trailing_zeros() as usize) as u32);
                    word &= word - 1;
                }
                base += 64;
            }
            debug_assert_eq!(ready.len(), *ready_len, "the pool lies in [lo, hi)");
            let crit_table = &self.crit_table;
            ready.sort_by_key(|&i| !crit_table.is_critical(c.pc[c.slot(i as usize)]));
            for &i in ready.iter() {
                if issued_count >= width {
                    break;
                }
                issued_count += u32::from(try_issue(i, wake_ring));
            }
        } else {
            // In program order the ready bits are the selection list: walk
            // them in place. Each word is read before any of its entries
            // issues, and issuing only clears the issued entry's own bit.
            let mut seen = 0;
            let mut base = lo & !63;
            'walk: while base < hi && seen < *ready_len {
                let mut word = wake_ring.ready_word(base);
                if base < lo {
                    word &= u64::MAX << (lo - base);
                }
                if hi - base < 64 {
                    word &= (1 << (hi - base)) - 1;
                }
                while word != 0 {
                    if issued_count >= width {
                        break 'walk;
                    }
                    let i = (base + word.trailing_zeros() as usize) as u32;
                    word &= word - 1;
                    seen += 1;
                    issued_count += u32::from(try_issue(i, wake_ring));
                }
                base += 64;
            }
        }
        if issued_count == 0 {
            return false;
        }
        *ready_len -= issued_count as usize;
        self.iq_len -= issued_count as usize;
        true
    }

    /// Decodes and renames up to `width` fetch-queue entries into the ROB
    /// and issue queue. Returns how many dispatched (CDPs excluded) and
    /// whether a full ROB/IQ blocked dispatch outright.
    #[inline]
    fn dispatch(&mut self, c: &Cols<'_>) -> (u32, bool) {
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
            let s = c.slot(hi);
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
                st.done_at[s] = now;
                self.q.seat(hi);
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
            st.done_at[s] = UNSET;
            self.q.seat(hi);
            // Link the entry onto the wake list of each distinct producer
            // that has not issued; with none, it resolves next cycle.
            let d = c.deps[s];
            let mut links = WakeLinks {
                head: NO_WAITER,
                next: [NO_WAITER; 3],
            };
            let mut ra = 0;
            for k in 0..3 {
                let dk = d[k];
                let done = c.done_of(&st.done_at, dk);
                if done != UNSET || d[..k].contains(&dk) {
                    ra = ra.max(done);
                    continue;
                }
                let producer = self.q.wake_ring.links(dk as usize - 1);
                links.next[k] = producer.head;
                producer.head = hi as u32;
                // Pending: the last of its producers to issue resolves it.
                ra = UNSET;
            }
            *self.q.wake_ring.links(hi) = links;
            if ra != UNSET {
                self.q.resolved.push((ra, hi as u32));
            }
            self.q.rob.push_back(hi as u32);
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
    fn fetch(&mut self, c: &Cols<'_>, dispatched: u32) -> Option<CycleClass> {
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
            let s = c.slot(idx);
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
    fn classify(
        &self,
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
            let s = c.slot(head as usize);
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
    fn skip_idle(&mut self, c: &Cols<'_>, class: CycleClass, backend_blocked: bool) {
        // Only this cycle's issue or dispatch fills `resolved`, and a cycle
        // that did either is not idle.
        debug_assert!(self.q.resolved.is_empty());
        let now = self.now;
        let mut next = UNSET;
        if let Some(head) = self.q.rob.front() {
            let done = self.st.done_at[c.slot(head as usize)];
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
            next = next.min(self.st.fetched_at[c.slot(self.fq_head)] + 1);
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

    /// CDPs never enter the ROB, so a run of them behind missing loads
    /// stretches the in-flight span past the wake ring's initial size: the
    /// ring must grow mid-run, keeping every live wake list and ready bit.
    #[test]
    fn wake_ring_grows_under_a_cdp_run_behind_misses() {
        let (base, _) = mobile_trace(4, 3_000);
        let mut entries: Vec<DynInsn> = Vec::new();
        let mut moved = Vec::with_capacity(base.len());
        for (j, e) in base.entries.iter().enumerate() {
            let mut e = *e;
            e.deps = e
                .deps
                .map(|d| if d == NO_DEP { d } else { moved[d as usize] });
            moved.push(entries.len() as u32);
            entries.push(e);
            if j % 500 != 499 {
                continue;
            }
            // Loads to never-touched lines queue on the one memory port
            // (ready-pool entries); an add waits for the first load's data
            // and a second add for the first (a live wake list); then the
            // CDPs.
            let first = entries.len() as u32;
            let mut insn = e;
            insn.branch = None;
            insn.bytes = 4;
            for k in 0..40 {
                insn.op = Opcode::Ldr;
                insn.deps = [NO_DEP; 3];
                insn.mem_addr = Some(0x7000_0000 + 4096 * (64 * j + k) as u64);
                entries.push(insn);
            }
            insn.op = Opcode::Add;
            insn.mem_addr = None;
            insn.deps = [first, NO_DEP, NO_DEP];
            entries.push(insn);
            insn.deps = [entries.len() as u32 - 1, NO_DEP, NO_DEP];
            entries.push(insn);
            insn.op = Opcode::Cdp;
            insn.bytes = 2;
            insn.deps = [NO_DEP; 3];
            entries.extend(std::iter::repeat_n(insn, 600));
        }
        let trace = Trace {
            name: base.name.clone(),
            entries,
        };
        let fanout = trace.compute_fanout();
        let mut cpu = CpuConfig::google_tablet();
        cpu.cdp_bubble = 0;
        cpu.fu.mem_ports = 1;
        let sim = Simulator::new(cpu, MemConfig::google_tablet());
        let mut scratch = SimScratch::new();
        let got = sim.run_with_ledger(&trace, &fanout, &mut scratch);
        assert_eq!(got, sim.run_reference(&trace, &fanout));
        assert!(
            scratch.queues.wake_ring.links.len() > 2 * cpu.rob_entries,
            "the CDP runs never outgrew the initial wake ring"
        );
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

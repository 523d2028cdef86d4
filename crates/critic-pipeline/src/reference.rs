//! The scalar reference pipeline — the pre-data-oriented cycle loop,
//! preserved verbatim as a differential oracle.
//!
//! [`run_reference`] walks the raw [`DynInsn`] records with `VecDeque`
//! queues and per-entry dependence iterators, exactly as the original
//! `Simulator::run` did before the struct-of-arrays rewrite in
//! [`crate::sim`]. It exists as a **correctness gate**: the data-oriented
//! core must be *bit-identical* to this path — every `SimResult` field and
//! every `CycleLedger` bucket. The property suite diffs randomized cores
//! and traces through both loops, the golden fixtures pin the outputs of
//! both, and a campaign test diffs a whole batched grid against per-cell
//! reference runs. The repository benchmark (`bench/`) also times it as
//! `pipeline.reference_minsts_per_s`.
//!
//! It is deliberately *not* optimized; do not "fix" its performance.

use std::collections::VecDeque;

use critic_isa::{FuKind, Opcode};
use critic_mem::{MemConfig, MemSystem};
use critic_obs::{CycleClass, CycleLedger};
use critic_workloads::{DynInsn, Trace};

use crate::bpu::Bpu;
use crate::config::CpuConfig;
use crate::crit::CritTable;
use crate::stats::{FetchStalls, SimResult, StageBreakdown};

/// Why the fetch stage is currently unable to supply instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SupplyStall {
    None,
    ICacheMiss,
    Branch,
}

const UNSET: u64 = u64::MAX;

/// Reusable per-run working memory for the cycle loop.
///
/// One `run` allocates seven per-instruction timestamp tables plus the
/// fetch/issue/reorder queues; across a campaign the simulator runs
/// thousands of times on same-length traces, so callers on the hot path
/// keep one `SimScratch` per worker and pass it to
/// [`Simulator::run_with_scratch`] — every table is then recycled
/// (cleared and refilled, never reallocated once warm).
#[derive(Debug, Default)]
struct ReferenceScratch {
    fetched_at: Vec<u64>,
    supply_stall: Vec<u32>,
    blocked_at_fetch: Vec<u64>,
    blocked_at_decode: Vec<u64>,
    decoded_at: Vec<u64>,
    issued_at: Vec<u64>,
    done_at: Vec<u64>,
    fetch_queue: VecDeque<u32>,
    iq: Vec<u32>,
    rob: VecDeque<u32>,
    ready: Vec<u32>,
    issued_set: Vec<u32>,
    int_div_free: Vec<u64>,
    float_div_free: Vec<u64>,
}

impl ReferenceScratch {
    /// Empty scratch; buffers grow on first use and are then recycled.
    fn new() -> ReferenceScratch {
        ReferenceScratch::default()
    }

    /// Re-initializes every table for an `n`-instruction run.
    fn reset(&mut self, n: usize, cfg: &CpuConfig) {
        fill(&mut self.fetched_at, n, UNSET);
        fill(&mut self.supply_stall, n, 0);
        fill(&mut self.blocked_at_fetch, n, 0);
        fill(&mut self.blocked_at_decode, n, 0);
        fill(&mut self.decoded_at, n, UNSET);
        fill(&mut self.issued_at, n, UNSET);
        fill(&mut self.done_at, n, UNSET);
        self.fetch_queue.clear();
        self.iq.clear();
        self.rob.clear();
        self.ready.clear();
        self.issued_set.clear();
        fill(&mut self.int_div_free, cfg.fu.int_div as usize, 0);
        fill(&mut self.float_div_free, cfg.fu.float_div as usize, 0);
    }
}

/// `clear` + `resize`: refills in place, reallocating only to grow.
fn fill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

/// Runs `trace` through the preserved scalar loop and returns the result
/// and cycle ledger. Allocates its own working memory per call — this is
/// the "fresh `SimScratch` per cell" behaviour of the original path, which
/// is part of what the bench measures against.
///
/// # Panics
///
/// Panics if `fanout.len() != trace.len()`.
pub fn run_reference(
    cpu: &CpuConfig,
    mem_config: &MemConfig,
    trace: &Trace,
    fanout: &[u32],
) -> (SimResult, CycleLedger) {
    let scratch = &mut ReferenceScratch::new();
    {
        assert_eq!(
            trace.len(),
            fanout.len(),
            "fanout slice must match the trace"
        );
        let cfg = cpu;
        let mut mem = MemSystem::new(mem_config);
        let mut bpu = Bpu::new(cfg.bpu_entries, cfg.bpu_history_bits, cfg.ras_depth);
        let mut crit_table = CritTable::new(cfg.bpu_entries, cfg.crit_threshold);

        let n = trace.len();
        let entries = &trace.entries;
        scratch.reset(n, cfg);
        // Destructure for disjoint borrows across the stage loops.
        let ReferenceScratch {
            fetched_at,
            supply_stall,
            blocked_at_fetch,
            blocked_at_decode,
            decoded_at,
            issued_at,
            done_at,
            fetch_queue,
            iq,
            rob,
            ready,
            issued_set,
            int_div_free,
            float_div_free,
        } = scratch;
        // Cumulative count of backend-blocked cycles, sampled at fetch time;
        // lets commit attribute each instruction's buffer time between
        // "genuine fetch residency" and "ROB back-pressure".
        let mut blocked_cum = 0u64;

        let mut fetch_idx = 0usize;
        let mut current_line: Option<u64> = None;
        let mut fetch_resume_at = 0u64;
        let mut resume_reason = SupplyStall::None;
        let mut fetch_blocked_on: Option<u32> = None;
        let mut pending_supply = 0u32;
        let mut dispatch_block_until = 0u64;

        let mut now = 0u64;
        let mut head_since = 0u64;
        let mut ledger = CycleLedger::new();
        let mut stage_all = StageBreakdown::default();
        let mut stage_critical = StageBreakdown::default();
        let mut committed = 0u64;
        let mut cdp_switches = 0u64;
        let mut thumb_fetched = 0u64;

        let hard_cap = (n as u64).saturating_mul(1000).max(1_000_000);

        while fetch_idx < n || !fetch_queue.is_empty() || !rob.is_empty() {
            // ---- commit ----
            let mut commits = 0;
            while commits < cfg.width {
                let Some(&head) = rob.front() else { break };
                let hi = head as usize;
                if done_at[hi] > now {
                    break;
                }
                rob.pop_front();
                commits += 1;
                committed += 1;
                let e = &entries[hi];
                // Aggregate stage residencies. Fetch-buffer time that passed
                // while dispatch was blocked on a full ROB/IQ is *backend*
                // back-pressure, not fetch-stage time — gem5 charges it to
                // rename-blocked-on-ROB, the paper to "ROB queue
                // residencies" — so it lands in the commit bucket.
                let buffer_total = decoded_at[hi]
                    .saturating_sub(fetched_at[hi])
                    .saturating_sub(1);
                let buffer_blocked =
                    (blocked_at_decode[hi] - blocked_at_fetch[hi]).min(buffer_total);
                let buffer = buffer_total - buffer_blocked;
                let issue_wait = issued_at[hi].saturating_sub(decoded_at[hi]);
                let execute = done_at[hi].saturating_sub(issued_at[hi]);
                // Head-blocking time plus backend-blocked buffer time: the
                // ROB bucket charges culprits and back-pressure, not every
                // instruction queued behind them.
                let commit_wait = now.saturating_sub(done_at[hi].max(head_since)) + buffer_blocked;
                head_since = now;
                stage_all.add(
                    u64::from(supply_stall[hi]),
                    buffer,
                    1,
                    issue_wait,
                    execute,
                    commit_wait,
                );
                if fanout[hi] >= cfg.crit_threshold {
                    stage_critical.add(
                        u64::from(supply_stall[hi]),
                        buffer,
                        1,
                        issue_wait,
                        execute,
                        commit_wait,
                    );
                }
                // Criticality training (predictor-table hardware, Sec. II-A).
                crit_table.train(e.pc, fanout[hi]);
                if e.is_load() {
                    mem.train_load_criticality(e.pc, fanout[hi]);
                }
                // EFetch hook: observe committed calls.
                if e.op == Opcode::Bl {
                    if let Some(outcome) = e.branch {
                        mem.observe_call(outcome.target_pc, now);
                    }
                }
            }

            // ---- issue ----
            if !iq.is_empty() {
                ready.clear();
                ready.extend(iq.iter().copied().filter(|&i| {
                    entries[i as usize]
                        .deps_iter()
                        .all(|d| done_at[d as usize] != UNSET && done_at[d as usize] <= now)
                }));
                if cfg.prioritize_critical {
                    // Critical-first, stable within each class (program order).
                    ready.sort_by_key(|&i| !crit_table.is_critical(entries[i as usize].pc));
                }
                let mut issued_count = 0u32;
                let mut used = FuUse::default();
                issued_set.clear();
                for &i in ready.iter() {
                    if issued_count >= cfg.width {
                        break;
                    }
                    let e = &entries[i as usize];
                    let mut kind = e.fu_kind();
                    if kind == FuKind::Branch {
                        if let Some(outcome) = e.branch {
                            if outcome.target_pc == e.pc + u64::from(e.bytes) {
                                // Statically-sequential switch branches fold
                                // to ALU no-ops; they never contend for the
                                // single branch port.
                                kind = FuKind::IntAlu;
                            }
                        }
                    }
                    if !used.try_take(kind, &cfg.fu, now, int_div_free, float_div_free) {
                        continue;
                    }
                    // Latency.
                    let latency = match kind {
                        FuKind::Mem => {
                            let addr = e.mem_addr.unwrap_or(0);
                            if e.is_load() {
                                let lat = mem.data_access(addr, now);
                                mem.observe_load(e.pc, addr, now);
                                lat
                            } else {
                                // Stores retire through the store buffer at
                                // L1 speed; the access is still performed
                                // for traffic/energy accounting.
                                let _ = mem.data_access(addr, now);
                                u64::from(Opcode::Str.exec_latency())
                            }
                        }
                        _ => u64::from(e.op.exec_latency()),
                    };
                    issued_at[i as usize] = now;
                    let done = now + latency;
                    done_at[i as usize] = done;
                    // Occupy unpipelined units.
                    match kind {
                        FuKind::IntDiv => {
                            if let Some(free) = int_div_free.iter_mut().find(|f| **f <= now) {
                                *free = done;
                            }
                        }
                        FuKind::FloatDiv => {
                            if let Some(free) = float_div_free.iter_mut().find(|f| **f <= now) {
                                *free = done;
                            }
                        }
                        _ => {}
                    }
                    // Resolve a blocking mispredicted branch.
                    if fetch_blocked_on == Some(i) {
                        fetch_blocked_on = None;
                        fetch_resume_at = done + u64::from(cfg.redirect_penalty);
                        resume_reason = SupplyStall::Branch;
                    }
                    issued_set.push(i);
                    issued_count += 1;
                }
                if !issued_set.is_empty() {
                    iq.retain(|i| !issued_set.contains(i));
                }
            }

            // ---- dispatch (decode + rename) ----
            let mut dispatched_this_cycle = 0u32;
            let mut backend_blocked = false;
            if now >= dispatch_block_until {
                let mut dispatched = 0;
                while dispatched < cfg.width {
                    let Some(&head) = fetch_queue.front() else {
                        break;
                    };
                    let hi = head as usize;
                    if now < fetched_at[hi] + 1 {
                        break; // still in the decode pipe
                    }
                    let e = &entries[hi];
                    if e.is_cdp() {
                        // The format switch is a decoder *prefix*: the mode
                        // flip closed timing at 160 ps in the paper's 45 nm
                        // synthesis, so it is absorbed by the pipelined
                        // decoder — it consumes fetch bytes and a fetch-queue
                        // entry but no dispatch slot, and never enters the
                        // ROB (Sec. IV-B). The paper's conservative +1 decode
                        // cycle is a latency (pipeline-fill) effect with no
                        // steady-state bandwidth cost.
                        fetch_queue.pop_front();
                        decoded_at[hi] = now;
                        blocked_at_decode[hi] = blocked_cum;
                        done_at[hi] = now;
                        cdp_switches += 1;
                        // The paper conservatively charges one extra decode
                        // cycle; a pipelined decoder hides it, so only the
                        // cycles *beyond* the first stall dispatch (the
                        // knob matters for the ablation sweep).
                        dispatch_block_until = now + u64::from(cfg.cdp_bubble.saturating_sub(1));
                        continue;
                    }
                    if rob.len() >= cfg.rob_entries || iq.len() >= cfg.iq_entries {
                        backend_blocked = dispatched == 0;
                        break;
                    }
                    fetch_queue.pop_front();
                    decoded_at[hi] = now;
                    blocked_at_decode[hi] = blocked_cum;
                    rob.push_back(head);
                    iq.push(head);
                    dispatched += 1;
                }
                dispatched_this_cycle = dispatched;
            }
            if backend_blocked {
                blocked_cum += 1;
            }

            // ---- fetch ----
            let fetch_stall: Option<CycleClass> = if fetch_idx < n {
                if fetch_blocked_on.is_some() {
                    pending_supply += 1;
                    Some(CycleClass::FetchStallBranch)
                } else if now < fetch_resume_at {
                    pending_supply += 1;
                    match resume_reason {
                        SupplyStall::ICacheMiss => Some(CycleClass::FetchStallICache),
                        SupplyStall::Branch => Some(CycleClass::FetchStallBranch),
                        SupplyStall::None => None,
                    }
                } else {
                    fetch_cycle(
                        cfg,
                        entries,
                        &mut fetch_idx,
                        now,
                        &mut mem,
                        &mut bpu,
                        fetch_queue,
                        fetched_at,
                        supply_stall,
                        &mut pending_supply,
                        &mut current_line,
                        &mut fetch_resume_at,
                        &mut resume_reason,
                        &mut fetch_blocked_on,
                        &mut thumb_fetched,
                        dispatched_this_cycle,
                        blocked_cum,
                        blocked_at_fetch,
                    )
                }
            } else {
                None
            };

            // ---- ledger: classify this cycle, exactly once ----
            // Fetch-side stalls first (attribution order documented in
            // `critic_obs::ledger`), then backend progress by what the ROB
            // head was doing, then front-end-only progress, then drain.
            let class = if let Some(stall) = fetch_stall {
                stall
            } else if commits > 0 {
                CycleClass::Commit
            } else if let Some(&head) = rob.front() {
                let hi = head as usize;
                if issued_at[hi] != UNSET {
                    if entries[hi].fu_kind() == FuKind::Mem {
                        CycleClass::Mem
                    } else {
                        CycleClass::Execute
                    }
                } else {
                    CycleClass::Issue
                }
            } else if !fetch_queue.is_empty() || dispatched_this_cycle > 0 {
                CycleClass::Decode
            } else {
                CycleClass::SquashIdle
            };
            ledger.charge(class);

            now += 1;
            if now > hard_cap {
                panic!("simulation exceeded the cycle cap: deadlock in the pipeline model");
            }
        }

        debug_assert!(
            ledger.check(now).is_ok(),
            "cycle ledger must partition the run: {:?}",
            ledger.check(now)
        );
        // The Fig. 3b stall taxonomy is a projection of the ledger — the
        // same audited partition feeds figures and EXPERIMENTS.md.
        let fetch_stalls = FetchStalls {
            icache: ledger.fetch_stall_icache,
            branch: ledger.fetch_stall_branch,
            backpressure: ledger.fetch_stall_backpressure,
        };
        let result = SimResult {
            cycles: now,
            committed,
            cdp_switches,
            fetch_stalls,
            stage_all,
            stage_critical,
            bpu: bpu.stats(),
            mem: mem.stats(),
            thumb_fetched,
        };
        (result, ledger)
    }
}

#[allow(clippy::too_many_arguments)]
fn fetch_cycle(
    cfg: &CpuConfig,
    entries: &[DynInsn],
    fetch_idx: &mut usize,
    now: u64,
    mem: &mut MemSystem,
    bpu: &mut Bpu,
    fetch_queue: &mut VecDeque<u32>,
    fetched_at: &mut [u64],
    supply_stall: &mut [u32],
    pending_supply: &mut u32,
    current_line: &mut Option<u64>,
    fetch_resume_at: &mut u64,
    resume_reason: &mut SupplyStall,
    fetch_blocked_on: &mut Option<u32>,
    thumb_fetched: &mut u64,
    dispatched_this_cycle: u32,
    blocked_cum: u64,
    blocked_at_fetch: &mut [u64],
) -> Option<CycleClass> {
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
    while delivered < insn_cap && *fetch_idx < entries.len() {
        if fetch_queue.len() >= cfg.fetch_buffer {
            // Count back-pressure only when the pipe is truly blocked:
            // buffer full *and* decode moved nothing this cycle. A full
            // buffer with decode draining at full width is steady-state
            // flow, not a stall.
            if delivered == 0 && dispatched_this_cycle == 0 {
                stall = Some(CycleClass::FetchStallBackpressure);
            }
            break;
        }
        let idx = *fetch_idx;
        let e = &entries[idx];
        let line = e.pc & !63;
        if *current_line != Some(line) {
            let latency = mem.ifetch(e.pc, now);
            // The line will be resident once the miss returns; remember
            // it so we do not re-access on resume.
            *current_line = Some(line);
            if latency > icache_hit {
                *fetch_resume_at = now + latency;
                *resume_reason = SupplyStall::ICacheMiss;
                if delivered == 0 {
                    stall = Some(CycleClass::FetchStallICache);
                    *pending_supply += 1;
                }
                break;
            }
        }
        if u64::from(e.bytes) > bytes {
            break; // per-cycle fetch bandwidth exhausted
        }
        bytes -= u64::from(e.bytes);
        fetched_at[idx] = now;
        blocked_at_fetch[idx] = blocked_cum;
        // Every instruction delivered in this cycle waited out the same
        // supply stall (they sat in the missed line / post-redirect
        // shadow together); the counter clears at end of cycle.
        supply_stall[idx] = *pending_supply;
        fetch_queue.push_back(idx as u32);
        if e.bytes == 2 {
            *thumb_fetched += 1;
        }
        *fetch_idx += 1;
        delivered += 1;

        let Some(outcome) = e.branch else { continue };
        if cfg.perfect_branch {
            if outcome.taken {
                *current_line = None; // discontinuity, but no bubble
            }
            continue;
        }
        let correct = match e.op {
            Opcode::B if e.predicated => bpu.predict_conditional(e.pc, outcome.taken),
            Opcode::B => true, // unconditional direct: BTB hit
            Opcode::Bl => {
                bpu.push_return(e.pc + u64::from(e.bytes));
                true
            }
            Opcode::Bx => bpu.predict_return(outcome.target_pc),
            _ => true,
        };
        if !correct {
            // Fetch stops until the branch resolves in execute.
            *fetch_blocked_on = Some(idx as u32);
            *current_line = None;
            break;
        }
        if outcome.taken {
            if outcome.target_pc == e.pc + u64::from(e.bytes) {
                // A branch to the very next instruction (the format
                // switch of Sec. IV-A): the "redirect" is sequential, so
                // the fetch group merely ends early — the branch still
                // costs its fetch bytes, a ROB slot, and a branch unit.
                break;
            }
            // Correctly-predicted taken branch: redirect bubble.
            *fetch_resume_at = now + 1 + u64::from(cfg.taken_bubble);
            *resume_reason = SupplyStall::Branch;
            *current_line = None;
            break;
        }
    }
    if delivered > 0 {
        *pending_supply = 0;
    }
    stall
}

/// Per-cycle functional-unit usage tracking.
#[derive(Debug, Default)]
struct FuUse {
    int_alu: u32,
    int_mult: u32,
    int_div: u32,
    mem: u32,
    branch: u32,
    float_add: u32,
    float_mul: u32,
    float_div: u32,
}

impl FuUse {
    fn try_take(
        &mut self,
        kind: FuKind,
        pool: &crate::config::FuPool,
        now: u64,
        int_div_free: &[u64],
        float_div_free: &[u64],
    ) -> bool {
        match kind {
            FuKind::IntAlu | FuKind::None => take(&mut self.int_alu, pool.int_alu),
            FuKind::IntMult => take(&mut self.int_mult, pool.int_mult),
            FuKind::IntDiv => {
                int_div_free.iter().any(|&f| f <= now) && take(&mut self.int_div, pool.int_div)
            }
            FuKind::Mem => take(&mut self.mem, pool.mem_ports),
            FuKind::Branch => take(&mut self.branch, pool.branch),
            FuKind::FloatAdd => take(&mut self.float_add, pool.float_add),
            FuKind::FloatMul => take(&mut self.float_mul, pool.float_mul),
            FuKind::FloatDiv => {
                float_div_free.iter().any(|&f| f <= now)
                    && take(&mut self.float_div, pool.float_div)
            }
        }
    }
}

fn take(used: &mut u32, cap: u32) -> bool {
    if *used < cap {
        *used += 1;
        true
    } else {
        false
    }
}

//! CritIC selection: from profiled fanout to the compiler-facing profile.
//!
//! Mirrors the paper's offline aggregation (Sec. III-C, "Identifying
//! CritICs"): observe per-instruction ROB fanout over the profiled part of
//! the execution, extract the independently-schedulable chains of each
//! basic block from the (optimized) DFG, keep those whose average fanout
//! per instruction crosses the threshold (8), rank by dynamic coverage, and
//! hand the compiler a compact profile ("relatively concise (~10 KB) to
//! account for ~30% of dynamic coverage").
//!
//! Chain identity is *static* — a basic block plus an instruction-uid
//! sequence — exactly what the ART-style compiler pass needs; the trace
//! contributes each static instruction's average dynamic fanout and each
//! block's execution count.
//!
//! Two knobs reproduce the paper's design points:
//!
//! * `max_chain_len = Some(5)` and `require_thumb = true` → the realistic
//!   **CritIC** scheme; setting both off (`None` / `false`) is
//!   **CritIC.Ideal** (Sec. IV-D);
//! * `profile_fraction` reproduces Fig. 12b's profiling-coverage
//!   sensitivity; the paper's headline results profile 72% of execution.

use critic_workloads::{BasicBlock, BlockId, DynInsn, InsnUid, Program, Trace, TraceStream};

use crate::error::ProfileError;
#[allow(unused_imports)]
use critic_workloads::trace as _trace_docs;
use serde::{Deserialize, Serialize};

/// Profiler configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfilerConfig {
    /// Fanout threshold marking an instruction critical (paper: 8).
    pub fanout_threshold: u32,
    /// Average-fanout-per-instruction threshold marking an IC a CritIC
    /// (paper: 8).
    ///
    /// The chain metric uses the ROB *cone* fanout
    /// ([`Trace::compute_cone_fanout`]): dependents that transitively
    /// "require its output before they can begin" (Sec. II-A). Direct-reader
    /// fanout cannot arithmetically support the paper's reported chain
    /// coverage (total register reads are ~1.3 per instruction), so the
    /// cone is the consistent reading of the ROB-observed heuristic.
    pub chain_avg_threshold: f64,
    /// Length cap on selected chains (`None` = unbounded, CritIC.Ideal).
    /// Longer chains contribute their prefix, since any sub-path of an IC
    /// is an IC.
    pub max_chain_len: Option<usize>,
    /// Keep only chains whose every instruction is Thumb-convertible
    /// (the all-or-nothing rule; `false` = CritIC.Ideal).
    pub require_thumb: bool,
    /// Fraction of the execution that is profiled (Fig. 12b). The paper's
    /// headline configuration profiles 72%.
    pub profile_fraction: f64,
    /// Keep at most this many chains, by descending coverage.
    pub max_chains: usize,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            fanout_threshold: 8,
            chain_avg_threshold: 8.0,
            max_chain_len: Some(5),
            require_thumb: true,
            profile_fraction: 0.72,
            max_chains: 2048,
        }
    }
}

impl ProfilerConfig {
    /// The CritIC.Ideal configuration: no length cap, no Thumb filter.
    pub fn ideal() -> ProfilerConfig {
        ProfilerConfig {
            max_chain_len: None,
            require_thumb: false,
            ..ProfilerConfig::default()
        }
    }

    /// Instructions profiled out of a `trace_len`-instruction execution:
    /// the length of the [`ProfileFold`] this configuration scores.
    pub fn fold_len(&self, trace_len: usize) -> usize {
        ((trace_len as f64) * self.profile_fraction.clamp(0.0, 1.0)) as usize
    }
}

/// One selected CritIC: a static chain the compiler will hoist and convert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChainSpec {
    /// The basic block containing the chain.
    pub block: BlockId,
    /// Member instructions, by stable uid, in dependence order.
    pub uids: Vec<InsnUid>,
    /// Dynamic instances observed in the profiled window.
    pub dynamic_count: u64,
    /// Mean member fanout (per-uid average dynamic fanout).
    pub avg_fanout: f64,
    /// Whether every member passed the Thumb conversion predicate.
    pub thumb_convertible: bool,
}

impl ChainSpec {
    /// Chain length in instructions.
    pub fn len(&self) -> usize {
        self.uids.len()
    }

    /// Whether the chain is empty (never true for emitted specs).
    pub fn is_empty(&self) -> bool {
        self.uids.is_empty()
    }

    /// Dynamic instructions this chain accounts for in the profile window.
    pub fn dynamic_instructions(&self) -> u64 {
        self.dynamic_count * self.uids.len() as u64
    }
}

/// Population counters from a profiling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileStats {
    /// Dynamic instructions in the profiled window.
    pub profiled_insns: u64,
    /// Distinct static chains observed (before criticality filtering).
    pub unique_chains: u64,
    /// Chains passing the average-fanout threshold.
    pub critical_chains: u64,
    /// Of the critical chains, the fraction that is fully
    /// Thumb-convertible (Fig. 5b reports ~95.5%).
    pub convertible_frac: f64,
}

/// The profiler output the compiler consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    /// Selected chains, ranked by dynamic coverage (descending).
    pub chains: Vec<ChainSpec>,
    /// Fraction of the profiled dynamic stream the selected chains cover.
    pub dynamic_coverage: f64,
    /// Population counters.
    pub stats: ProfileStats,
}

impl Profile {
    /// An empty profile (the baseline compiler input).
    pub fn empty() -> Profile {
        Profile {
            chains: Vec::new(),
            dynamic_coverage: 0.0,
            stats: ProfileStats::default(),
        }
    }
}

/// The offline profiler.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    config: ProfilerConfig,
}

impl Profiler {
    /// Creates a profiler with the given configuration.
    pub fn new(config: ProfilerConfig) -> Profiler {
        Profiler { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    /// Runs the full analysis over one (program, trace) pair.
    ///
    /// # Panics
    ///
    /// Panics if the trace references blocks or instructions outside the
    /// program — i.e. the trace was not expanded from this program. Use
    /// [`Profiler::try_build_profile`] to get a [`ProfileError`] instead.
    pub fn build_profile(&self, program: &Program, trace: &Trace) -> Profile {
        match self.try_build_profile(program, trace) {
            Ok(profile) => profile,
            Err(e) => panic!("profiling failed: {e}"),
        }
    }

    /// Fallible variant of [`Profiler::build_profile`]: validates the
    /// program structurally and the trace against the program before any
    /// analysis, so mismatched or corrupted inputs yield a typed
    /// [`ProfileError`] instead of an out-of-bounds panic mid-analysis.
    pub fn try_build_profile(
        &self,
        program: &Program,
        trace: &Trace,
    ) -> Result<Profile, ProfileError> {
        program.validate()?;
        trace.validate(program)?;
        let cone = trace.compute_cone_fanout(128);
        let len = self.config.fold_len(trace.len());
        Ok(self.score(program, &ProfileFold::of_trace(program, trace, &cone, len)))
    }

    /// Streaming variant of [`Profiler::try_build_profile`]: folds the
    /// chain/CritIC statistics over a [`TraceStream`]'s windows without
    /// ever holding the trace, and produces a bit-identical [`Profile`]
    /// (the fold accumulates the same integer sums in the same order, and
    /// the scoring is shared code).
    ///
    /// # Panics
    ///
    /// As [`ProfileFold::of_stream`].
    pub fn try_build_profile_streamed(
        &self,
        program: &Program,
        stream: &mut TraceStream<'_>,
    ) -> Result<Profile, ProfileError> {
        program.validate()?;
        let len = self.config.fold_len(stream.total_len());
        Ok(self.score(program, &ProfileFold::of_stream(program, stream, len)))
    }

    /// The selection/ranking half of the analysis: scores each executed
    /// block's static chains against the fold's per-instruction averages and
    /// assembles the ranked profile. Every front-end — materialized,
    /// streamed, or a fold memoized for several configurations — ends
    /// here.
    ///
    /// The caller guarantees that `fold` was taken over an execution of
    /// `program` ([`ProfileFold::of_trace`] / [`ProfileFold::of_stream`])
    /// at this configuration's [`ProfilerConfig::fold_len`]; a fold of
    /// another program may panic mid-analysis.
    pub fn score(&self, program: &Program, fold: &ProfileFold) -> Profile {
        let cfg = &self.config;
        let window = fold.len;

        let mut unique_chains = 0u64;
        let mut critical_chains = 0u64;
        let mut convertible_count = 0u64;
        let mut specs: Vec<ChainSpec> = Vec::new();
        // The entered blocks in ascending-BlockId order, the same
        // deterministic iteration the sorted map produced; each block's
        // averages follow the previous block's.
        let mut next = 0;
        for &(block_id, visits) in &fold.blocks {
            let block = program.block(block_id);
            let avgs = &fold.avgs[next..next + block.insns.len()];
            next += block.insns.len();
            for chain in block_static_chains(block, avgs) {
                unique_chains += 1;
                let mut positions: &[usize] = &chain;
                if let Some(cap) = cfg.max_chain_len {
                    positions = &positions[..positions.len().min(cap)];
                }
                if positions.len() < 2 {
                    continue;
                }
                let avg_fanout =
                    positions.iter().map(|&p| avgs[p]).sum::<f64>() / positions.len() as f64;
                if avg_fanout < cfg.chain_avg_threshold {
                    continue;
                }
                critical_chains += 1;
                let thumb_convertible = positions
                    .iter()
                    .all(|&p| block.insns[p].insn.thumb_convertible().is_ok());
                if thumb_convertible {
                    convertible_count += 1;
                }
                if cfg.require_thumb && !thumb_convertible {
                    continue; // all-or-nothing: the whole chain stays 32-bit
                }
                specs.push(ChainSpec {
                    block: block_id,
                    uids: positions.iter().map(|&p| block.insns[p].uid).collect(),
                    dynamic_count: u64::from(visits),
                    avg_fanout,
                    thumb_convertible,
                });
            }
        }

        specs.sort_by(|a, b| {
            b.dynamic_instructions()
                .cmp(&a.dynamic_instructions())
                .then_with(|| a.block.cmp(&b.block))
                .then_with(|| a.uids.cmp(&b.uids))
        });
        specs.truncate(cfg.max_chains);

        let covered: u64 = specs.iter().map(ChainSpec::dynamic_instructions).sum();
        Profile {
            dynamic_coverage: covered as f64 / window.max(1) as f64,
            stats: ProfileStats {
                profiled_insns: window as u64,
                unique_chains,
                critical_chains,
                convertible_frac: if critical_chains == 0 {
                    0.0
                } else {
                    convertible_count as f64 / critical_chains as f64
                },
            },
            chains: specs,
        }
    }
}

/// The trace-side half of the analysis: each entered block's execution
/// count and its instructions' mean cone fanout over the first `len`
/// instructions of an execution. It depends on the execution and the fold
/// length only, not on the rest of the [`ProfilerConfig`], so every
/// configuration with the same [`ProfilerConfig::fold_len`] scores one
/// fold ([`Profiler::score`]).
///
/// Only the blocks the fold entered are kept, with one mean per
/// instruction — the one value scoring reads, computed by the same
/// division scoring used to do — so a memoized fold costs 8 bytes per
/// *executed* static instruction. A mobile app's profiled prefix enters
/// 5–30% of its code, so that is a fraction of a dense per-uid table.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileFold {
    len: usize,
    /// Entered blocks, ascending by id, with their entry counts.
    blocks: Vec<(BlockId, u32)>,
    /// Mean cone fanout of each entered block's instructions by position,
    /// block after block in `blocks` order.
    avgs: Vec<f64>,
}

impl ProfileFold {
    /// Folds the first `len` instructions of `trace`, an execution of
    /// `program`, with their cone fanout (`trace.compute_cone_fanout(128)`).
    ///
    /// # Panics
    ///
    /// Panics if `cone` is shorter than the fold.
    pub fn of_trace(program: &Program, trace: &Trace, cone: &[u32], len: usize) -> ProfileFold {
        let len = len.min(trace.len());
        assert!(cone.len() >= len, "cone fanout does not cover the fold");
        let mut acc = FoldAcc::default();
        for (entry, &c) in trace.entries[..len].iter().zip(cone) {
            acc.observe(entry, c);
        }
        acc.finish(program, len)
    }

    /// Folds the first `len` instructions of a fresh, cone-enabled stream
    /// over `program` (`StreamConfig::cone_window == Some(128)`, the
    /// profiler's ROB horizon); only that prefix is consumed.
    ///
    /// # Panics
    ///
    /// Panics if the stream has already emitted entries or was opened
    /// without a cone window.
    pub fn of_stream(program: &Program, stream: &mut TraceStream<'_>, len: usize) -> ProfileFold {
        assert_eq!(stream.emitted(), 0, "profiling requires a fresh stream");
        let len = len.min(stream.total_len());
        let mut acc = FoldAcc::default();
        let mut seen = 0usize;
        while seen < len {
            let Some(w) = stream.next_window() else {
                break;
            };
            assert_eq!(
                w.cone.len(),
                w.entries.len(),
                "profiling requires a cone-enabled stream"
            );
            let take = (len - seen).min(w.entries.len());
            for (entry, &c) in w.entries[..take].iter().zip(w.cone) {
                acc.observe(entry, c);
            }
            seen += take;
        }
        acc.finish(program, len)
    }

    /// Instructions folded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was folded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A fold in progress: per-uid `(cone sum, count)` and per-block entry
/// counts, lazily grown. Entry counts fit in `u32`: dependence indices are
/// `u32`, so no trace is longer.
#[derive(Debug, Default)]
struct FoldAcc {
    uid_fanout: Vec<(u64, u64)>,
    block_visits: Vec<u32>,
}

impl FoldAcc {
    /// Folds one profiled dynamic instruction and its cone fanout.
    #[inline]
    fn observe(&mut self, entry: &DynInsn, cone: u32) {
        let slot = entry.uid.0 as usize;
        if self.uid_fanout.len() <= slot {
            self.uid_fanout.resize(slot + 1, (0, 0));
        }
        let agg = &mut self.uid_fanout[slot];
        agg.0 += u64::from(cone);
        agg.1 += 1;
        if entry.at.index == 0 {
            let bslot = entry.at.block.0 as usize;
            if self.block_visits.len() <= bslot {
                self.block_visits.resize(bslot + 1, 0);
            }
            self.block_visits[bslot] += 1;
        }
    }

    /// The compact fold of `len` instructions of `program`. Every block
    /// execution starts at its first instruction, so every instruction
    /// the fold saw lies in an entered block.
    fn finish(self, program: &Program, len: usize) -> ProfileFold {
        let avg_of = |uid: InsnUid| -> f64 {
            self.uid_fanout
                .get(uid.0 as usize)
                .map_or(0.0, |&(sum, count)| sum as f64 / count.max(1) as f64)
        };
        let mut blocks = Vec::new();
        let mut avgs = Vec::new();
        for (bslot, &visits) in self.block_visits.iter().enumerate() {
            if visits == 0 {
                continue;
            }
            let block_id = BlockId(bslot as u32);
            blocks.push((block_id, visits));
            avgs.extend(program.block(block_id).insns.iter().map(|t| avg_of(t.uid)));
        }
        blocks.shrink_to_fit();
        avgs.shrink_to_fit();
        ProfileFold { len, blocks, avgs }
    }
}

/// Extracts the disjoint, self-contained chains of one static basic block,
/// given each instruction's average fanout by position in `scores`.
///
/// Local def-use edges come from a last-writer scan over the block;
/// dependences on values defined before the block are external inputs.
/// Greedy growth starts from the highest-fanout heads and prefers
/// continuations that lead toward further critical members.
pub fn block_static_chains(block: &BasicBlock, scores: &[f64]) -> Vec<Vec<usize>> {
    let n = block.insns.len();
    // Local producer of each instruction's sources.
    let mut last_writer: [Option<usize>; 16] = [None; 16];
    let mut producers: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, tagged) in block.insns.iter().enumerate() {
        for src in tagged.insn.srcs().iter() {
            if let Some(w) = last_writer[src.index() as usize] {
                if !producers[i].contains(&w) {
                    producers[i].push(w);
                    consumers[w].push(i);
                }
            }
        }
        if let Some(dst) = tagged.insn.dst() {
            last_writer[dst.index() as usize] = Some(i);
        }
    }

    let score = |i: usize| -> f64 { scores[i] };
    let mut heads: Vec<usize> = (0..n).collect();
    heads.sort_by(|&a, &b| {
        score(b)
            .partial_cmp(&score(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut claimed = vec![false; n];
    let mut chains: Vec<Vec<usize>> = Vec::new();
    for head in heads {
        if claimed[head] {
            continue;
        }
        let mut members = vec![head];
        let mut in_chain = vec![false; n];
        in_chain[head] = true;
        let mut cur = head;
        loop {
            let mut best: Option<(usize, f64)> = None;
            for &cand in &consumers[cur] {
                if claimed[cand] || in_chain[cand] {
                    continue;
                }
                // Self-contained: all local producers must be members.
                if !producers[cand].iter().all(|&p| in_chain[p]) {
                    continue;
                }
                // Score with one-hop lookahead toward criticals, counting
                // only continuations that would themselves be eligible —
                // otherwise a dead-end consumer with a lucky neighbour
                // outranks the genuine chain link.
                let ahead = consumers[cand]
                    .iter()
                    .filter(|&&c2| {
                        !claimed[c2] && producers[c2].iter().all(|&p| in_chain[p] || p == cand)
                    })
                    .map(|&c| score(c))
                    .fold(0.0f64, f64::max);
                let s = score(cand) + 2.0 * ahead;
                match best {
                    Some((_, bs)) if bs >= s => {}
                    _ => best = Some((cand, s)),
                }
            }
            let Some((next, _)) = best else { break };
            in_chain[next] = true;
            members.push(next);
            cur = next;
        }
        if members.len() >= 2 {
            for &m in &members {
                claimed[m] = true;
            }
            chains.push(members);
        }
    }
    chains.sort();
    chains
}

#[cfg(test)]
mod tests {
    use critic_workloads::suite::Suite;
    use critic_workloads::{ExecutionPath, Trace};

    use super::*;

    fn mobile_setup(len: usize) -> (Program, Trace) {
        let mut app = Suite::Mobile.apps()[0].clone();
        app.params.num_functions = 40;
        let program = app.generate_program();
        let path = ExecutionPath::generate(&program, 21, len);
        let trace = Trace::expand(&program, &path);
        (program, trace)
    }

    #[test]
    fn profile_selects_chains_with_high_avg_fanout() {
        let (program, trace) = mobile_setup(40_000);
        let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &trace);
        assert!(!profile.chains.is_empty());
        for chain in &profile.chains {
            assert!(chain.avg_fanout >= 8.0, "selected chain below threshold");
            assert!(
                chain.len() >= 2 && chain.len() <= 5,
                "length cap violated: {}",
                chain.len()
            );
            assert!(chain.thumb_convertible, "require_thumb filter violated");
            assert!(chain.dynamic_count >= 1);
        }
        // Ranking is by coverage.
        for pair in profile.chains.windows(2) {
            assert!(pair[0].dynamic_instructions() >= pair[1].dynamic_instructions());
        }
    }

    #[test]
    fn chain_members_form_a_dependence_path_in_the_block() {
        let (program, trace) = mobile_setup(30_000);
        let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &trace);
        assert!(!profile.chains.is_empty());
        for chain in &profile.chains {
            let block = program.block(chain.block);
            let positions: Vec<usize> = chain
                .uids
                .iter()
                .map(|&uid| block.position_of(uid).expect("uid in block"))
                .collect();
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "members in program order"
            );
            for w in positions.windows(2) {
                let producer = &block.insns[w[0]].insn;
                let consumer = &block.insns[w[1]].insn;
                let dst = producer.dst().expect("chain member defines a value");
                assert!(
                    consumer.srcs().iter().any(|s| s == dst),
                    "chain link is not a local def-use pair: {} -> {}",
                    producer,
                    consumer
                );
            }
        }
    }

    #[test]
    fn ideal_mode_keeps_longer_and_unconvertible_chains() {
        let (program, trace) = mobile_setup(40_000);
        let real = Profiler::new(ProfilerConfig::default()).build_profile(&program, &trace);
        let ideal = Profiler::new(ProfilerConfig::ideal()).build_profile(&program, &trace);
        assert!(
            ideal.dynamic_coverage >= real.dynamic_coverage,
            "ideal coverage {:.3} must be >= real {:.3}",
            ideal.dynamic_coverage,
            real.dynamic_coverage
        );
    }

    #[test]
    fn most_critical_chains_are_thumb_convertible() {
        // Fig. 5b: ~95.5% of unique CritIC sequences convert as-is.
        let (program, trace) = mobile_setup(40_000);
        let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &trace);
        assert!(
            profile.stats.convertible_frac > 0.80,
            "convertible fraction {:.3} too low",
            profile.stats.convertible_frac
        );
    }

    #[test]
    fn smaller_profile_fraction_sees_less() {
        let (program, trace) = mobile_setup(40_000);
        let full = Profiler::new(ProfilerConfig {
            profile_fraction: 1.0,
            ..Default::default()
        })
        .build_profile(&program, &trace);
        let third = Profiler::new(ProfilerConfig {
            profile_fraction: 0.33,
            ..Default::default()
        })
        .build_profile(&program, &trace);
        assert!(third.stats.profiled_insns < full.stats.profiled_insns);
        let count = |p: &Profile| p.chains.iter().map(|c| c.dynamic_count).sum::<u64>();
        assert!(count(&third) < count(&full));
    }

    #[test]
    fn coverage_is_meaningful() {
        // The paper's selected CritICs account for ~30% of the dynamic
        // stream; our synthetic apps should land in the same region.
        let (program, trace) = mobile_setup(60_000);
        let profile = Profiler::new(ProfilerConfig {
            profile_fraction: 1.0,
            ..Default::default()
        })
        .build_profile(&program, &trace);
        assert!(
            profile.dynamic_coverage > 0.08 && profile.dynamic_coverage < 0.8,
            "coverage {:.3} outside plausible band",
            profile.dynamic_coverage
        );
    }

    #[test]
    fn static_chain_extraction_is_self_contained() {
        let (program, trace) = mobile_setup(10_000);
        // Exercise the raw extractor on every block the trace touched.
        let mut visited = std::collections::HashSet::new();
        for e in trace.iter() {
            visited.insert(e.at.block);
        }
        for &bid in visited.iter().take(50) {
            let block = program.block(bid);
            let chains = block_static_chains(block, &vec![1.0; block.insns.len()]);
            let mut seen = std::collections::HashSet::new();
            for chain in &chains {
                assert!(chain.len() >= 2);
                for &m in chain {
                    assert!(seen.insert(m), "member {m} in two chains of {bid}");
                }
            }
        }
    }

    #[test]
    fn streamed_profile_is_bit_identical() {
        use critic_workloads::{StreamConfig, TraceStream};
        let mut app = Suite::Mobile.apps()[0].clone();
        app.params.num_functions = 40;
        let program = app.generate_program();
        let path = ExecutionPath::generate(&program, 21, 20_000);
        let trace = Trace::expand(&program, &path);
        for config in [ProfilerConfig::default(), ProfilerConfig::ideal()] {
            let profiler = Profiler::new(config);
            let materialized = profiler.build_profile(&program, &trace);
            for window in [1usize, 777, 100_000] {
                let mut stream = TraceStream::new(
                    &program,
                    &path,
                    StreamConfig {
                        window,
                        lookahead: 128,
                        cone_window: Some(128),
                    },
                );
                let streamed = profiler
                    .try_build_profile_streamed(&program, &mut stream)
                    .expect("stream profiles");
                assert_eq!(streamed, materialized, "window {window}");
            }
        }
    }

    #[test]
    fn empty_profile_is_well_formed() {
        let p = Profile::empty();
        assert!(p.chains.is_empty());
        assert_eq!(p.dynamic_coverage, 0.0);
    }

    #[test]
    fn foreign_trace_is_a_typed_error() {
        // A trace expanded from app A profiled against app B's program:
        // the old code indexed A's block ids into B's arena and panicked.
        let (program_a, trace_a) = mobile_setup(5_000);
        let mut app_b = Suite::SpecInt.apps()[0].clone();
        app_b.params.num_functions = 4;
        let program_b = app_b.generate_program();
        let err = Profiler::new(ProfilerConfig::default())
            .try_build_profile(&program_b, &trace_a)
            .expect_err("foreign trace must be rejected");
        assert!(
            matches!(err, crate::ProfileError::InvalidTrace(_)),
            "wrong error: {err}"
        );
        // The matching pair still profiles.
        assert!(Profiler::new(ProfilerConfig::default())
            .try_build_profile(&program_a, &trace_a)
            .is_ok());
    }

    #[test]
    fn injected_trace_faults_are_typed_errors() {
        use critic_workloads::{inject_trace, Fault, FaultTarget};
        let (program, pristine) = mobile_setup(5_000);
        for (i, fault) in Fault::ALL.iter().copied().enumerate() {
            if fault.target() != FaultTarget::Trace {
                continue;
            }
            let mut trace = pristine.clone();
            inject_trace(&mut trace, fault, 3000 + i as u64).expect("fault has a site");
            let invalid = trace.validate(&program).is_err();
            let result =
                Profiler::new(ProfilerConfig::default()).try_build_profile(&program, &trace);
            if invalid {
                assert!(
                    matches!(result, Err(crate::ProfileError::InvalidTrace(_))),
                    "fault {fault} not rejected: got Ok profile"
                );
            } else {
                // Validator-clean corruption (e.g. a duplicated tail that
                // stays under the length cap) must profile without a panic.
                assert!(result.is_ok(), "fault {fault} should be tolerated");
            }
        }
    }
}

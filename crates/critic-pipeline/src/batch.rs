//! Lockstep multi-scheme batch simulation: all schemes of one app share a
//! single base-trace decode and one set of recycled working memory.
//!
//! A campaign cell grid evaluates many software schemes over the *same*
//! recorded input. Per-cell simulation decodes the trace from scratch each
//! time and allocates (or thread-caches) its own [`SimScratch`]; across an
//! app's row of schemes that repeats a trace walk per cell. The batch
//! simulator hoists the shared work to per-app scope:
//!
//! * the **base trace** is decoded into struct-of-arrays form exactly once
//!   ([`DecodedTrace::decode_into`]);
//! * each **variant trace** (a scheme's transformed binary replayed over
//!   the same input) is decoded against that base via
//!   [`DecodedTrace::decode_with_base`], which serves the longest common
//!   entry prefix with column memcpys and only decodes the divergent tail;
//! * one [`SimScratch`] — per-instruction tables, pipeline queues, and the
//!   recycled memory-system/BPU/criticality models — is reused across
//!   every scheme in the batch.
//!
//! Results are bit-identical to per-cell simulation by construction: the
//! decode is a pure per-entry function (prefix sharing copies what a fresh
//! decode would recompute), and scratch recycling resets every table the
//! core reads (see `Stamps` in `sim` and the model `reset_to`s). The
//! differential suites assert this against the preserved scalar reference.

use critic_obs::CycleLedger;
use critic_workloads::Trace;

use crate::sim::{DecodedTrace, SimScratch, Simulator};
use crate::stats::SimResult;

/// Work counters for one batch, reported by [`BatchSimulator::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Simulations run through this batch (base + variants).
    pub runs: u64,
    /// Variant decodes performed.
    pub variant_decodes: u64,
}

/// Shared-decode simulation context for one app's row of schemes.
///
/// One batch is bound to one base trace (the app's recorded baseline
/// execution); every simulation run through it recycles the same scratch
/// and models. The batch itself is stateless between runs — any sequence
/// of [`BatchSimulator::run_base`] / [`BatchSimulator::run_variant`] calls
/// produces results identical to fresh per-run simulation.
#[derive(Debug, Default)]
pub struct BatchSimulator {
    base_decoded: DecodedTrace,
    base_ready: bool,
    variant_decoded: DecodedTrace,
    variant_fanout: Vec<u32>,
    scratch: SimScratch,
    stats: BatchStats,
}

impl BatchSimulator {
    /// An empty batch; the base decode happens lazily on first use.
    pub fn new() -> BatchSimulator {
        BatchSimulator::default()
    }

    /// Work counters so far.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    fn ensure_base(&mut self, base: &Trace) {
        if !self.base_ready {
            self.base_decoded.decode_into(base);
            self.base_ready = true;
        }
    }

    /// Simulates the base trace itself (the baseline design points), using
    /// the batch's cached decode.
    ///
    /// # Panics
    ///
    /// Panics if `fanout.len() != base.len()`.
    pub fn run_base(
        &mut self,
        sim: &Simulator,
        base: &Trace,
        fanout: &[u32],
    ) -> (SimResult, CycleLedger) {
        self.ensure_base(base);
        self.stats.runs += 1;
        sim.run_decoded(&self.base_decoded, fanout, &mut self.scratch)
    }

    /// Simulates a scheme's variant trace, decoding it against the batch's
    /// base so the common prefix is copied instead of re-decoded. The
    /// criticality fan-out is computed from the decoded columns
    /// ([`DecodedTrace::compute_fanout_into`]) into a recycled buffer, so
    /// the variant's `DynInsn` records are walked exactly once (by the
    /// divergent-tail decode) per run.
    pub fn run_variant(
        &mut self,
        sim: &Simulator,
        trace: &Trace,
        base: &Trace,
    ) -> (SimResult, CycleLedger) {
        self.ensure_base(base);
        self.variant_decoded
            .decode_with_base(trace, base, &self.base_decoded);
        self.variant_decoded
            .compute_fanout_into(&mut self.variant_fanout);
        self.stats.runs += 1;
        self.stats.variant_decodes += 1;
        sim.run_decoded(
            &self.variant_decoded,
            &self.variant_fanout,
            &mut self.scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use critic_mem::MemConfig;
    use critic_workloads::suite::Suite;
    use critic_workloads::ExecutionPath;

    use super::*;
    use crate::config::CpuConfig;

    fn base_trace() -> Trace {
        let mut app = Suite::Mobile.apps()[0].clone();
        app.params.num_functions = 24;
        let program = app.generate_program();
        let path = ExecutionPath::generate(&program, 1, 6_000);
        Trace::expand(&program, &path)
    }

    /// A synthetic "variant": same prefix, then a perturbed tail — the
    /// shape a scheme's transformed binary produces.
    fn perturbed(base: &Trace, from: usize) -> Trace {
        let mut t = base.clone();
        for e in t.entries.iter_mut().skip(from) {
            e.pc ^= 0x40;
        }
        t
    }

    #[test]
    fn batch_matches_per_run_simulation() {
        let base = base_trace();
        let fanout = base.compute_fanout();
        let variant = perturbed(&base, base.len() / 2);
        let vfanout = variant.compute_fanout();
        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());

        let mut batch = BatchSimulator::new();
        let (b0, l0) = batch.run_base(&sim, &base, &fanout);
        let (v0, lv0) = batch.run_variant(&sim, &variant, &base);
        // Interleave again: batch state must not leak across runs.
        let (b1, l1) = batch.run_base(&sim, &base, &fanout);
        assert_eq!(b0, b1);
        assert_eq!(l0, l1);

        let (rb, rlb) = sim.run_reference(&base, &fanout);
        let (rv, rlv) = sim.run_reference(&variant, &vfanout);
        assert_eq!(b0, rb, "batched base diverges from the scalar reference");
        assert_eq!(l0, rlb);
        assert_eq!(v0, rv, "batched variant diverges from the scalar reference");
        assert_eq!(lv0, rlv);
    }

    #[test]
    fn decoded_fanout_matches_trace_fanout() {
        let base = base_trace();
        let variant = perturbed(&base, base.len() / 3);
        let mut decoded = DecodedTrace::new();
        let mut soa = Vec::new();
        for t in [&base, &variant] {
            decoded.decode_into(t);
            decoded.compute_fanout_into(&mut soa);
            assert_eq!(
                soa,
                t.compute_fanout(),
                "SoA fan-out diverges for {}",
                t.name
            );
        }
    }

    #[test]
    fn prefix_sharing_is_counted() {
        let base = base_trace();
        let split = base.len() / 2;
        let variant = perturbed(&base, split);
        let mut base_decoded = DecodedTrace::new();
        base_decoded.decode_into(&base);
        let shared = DecodedTrace::new().decode_with_base(&variant, &base, &base_decoded);
        assert_eq!(shared, split, "the unperturbed half is the shared prefix");

        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        let mut batch = BatchSimulator::new();
        let _ = batch.run_variant(&sim, &variant, &base);
        let stats = batch.stats();
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.variant_decodes, 1);
    }

    #[test]
    fn identical_variant_is_served_entirely_from_the_prefix() {
        let base = base_trace();
        let fanout = base.compute_fanout();
        let mut base_decoded = DecodedTrace::new();
        base_decoded.decode_into(&base);
        let shared = DecodedTrace::new().decode_with_base(&base.clone(), &base, &base_decoded);
        assert_eq!(
            shared,
            base.len(),
            "an identical variant shares every entry"
        );

        let sim = Simulator::new(CpuConfig::google_tablet(), MemConfig::google_tablet());
        let mut batch = BatchSimulator::new();
        let (direct, _) = batch.run_base(&sim, &base, &fanout);
        let (via_variant, _) = batch.run_variant(&sim, &base.clone(), &base);
        assert_eq!(direct, via_variant);
    }
}

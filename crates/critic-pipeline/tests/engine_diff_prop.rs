//! Differential property suite for the simulation engines.
//!
//! The data-oriented core ([`Simulator::run`]), also when one recycled
//! [`SimScratch`] serves interleaved runs of a base trace and a variant,
//! must be *bit-identical* to the preserved scalar reference loop
//! ([`Simulator::run_reference`]) — every [`SimResult`] field and every
//! [`CycleLedger`] bucket — for any core configuration, memory
//! configuration, and trace. These properties drive randomized cores and
//! traces through every path and diff the outputs, including the ledger
//! partition invariant (`sum == cycles`) the observability layer gates on.

use critic_mem::MemConfig;
use critic_pipeline::{DecodedTrace, SimScratch, Simulator};
use critic_workloads::suite::Suite;
use critic_workloads::{AppSpec, ExecutionPath, Trace};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// A randomized core: the Table I Google-Tablet configuration with every
/// structure size, penalty, and feature knob perturbed within the ranges
/// the design-point sweeps exercise.
fn random_cpu(rng: &mut TestRng) -> critic_pipeline::CpuConfig {
    let mut cpu = critic_pipeline::CpuConfig::google_tablet();
    cpu.width = 2 + (rng.next_u64() % 3) as u32;
    cpu.fetch_width = (1 + (rng.next_u64() % 4) as u32).max(cpu.width / 2);
    cpu.rob_entries = 16 + (rng.next_u64() % 81) as usize;
    cpu.iq_entries = 8 + (rng.next_u64() % 41) as usize;
    cpu.fetch_buffer = (4 + (rng.next_u64() % 13) as usize).max(cpu.fetch_width as usize);
    cpu.fetch_bytes_per_cycle = [8, 16, 32][(rng.next_u64() % 3) as usize];
    cpu.bpu_entries = [256, 512, 1024, 2048][(rng.next_u64() % 4) as usize];
    cpu.bpu_history_bits = 2 + (rng.next_u64() % 7) as u32;
    cpu.ras_depth = 4 + (rng.next_u64() % 13) as usize;
    cpu.taken_bubble = (rng.next_u64() % 3) as u32;
    cpu.redirect_penalty = 2 + (rng.next_u64() % 9) as u32;
    cpu.cdp_bubble = (rng.next_u64() % 3) as u32;
    cpu.perfect_branch = rng.next_u64().is_multiple_of(4);
    cpu.prioritize_critical = rng.next_u64().is_multiple_of(3);
    cpu.crit_threshold = 2 + (rng.next_u64() % 11) as u32;
    cpu
}

/// A randomized memory system: the Table I hierarchy with the Fig. 11
/// geometry/latency/prefetcher knobs applied at random.
fn random_mem(rng: &mut TestRng) -> MemConfig {
    let mut mem = MemConfig::google_tablet();
    if rng.next_u64().is_multiple_of(3) {
        mem = mem.with_4x_icache();
    }
    if rng.next_u64().is_multiple_of(3) {
        mem = mem.with_half_icache_latency();
    }
    if rng.next_u64().is_multiple_of(3) {
        mem = mem.with_clpt();
    }
    if rng.next_u64().is_multiple_of(3) {
        mem = mem.with_efetch();
    }
    mem.clpt_threshold = 2 + (rng.next_u64() % 13) as u8;
    mem
}

/// A randomized trace: a real generated app (random workload, function
/// count, path seed, and length), expanded the way every campaign cell
/// expands its binary.
fn random_trace(rng: &mut TestRng) -> Trace {
    let apps: Vec<AppSpec> = Suite::Mobile.apps();
    let mut app = apps[(rng.next_u64() as usize) % apps.len()].clone();
    app.params.num_functions = 8 + (rng.next_u64() % 25) as u32;
    let program = app.generate_program();
    let seed = 1 + rng.next_u64() % 1_000;
    let len = 800 + (rng.next_u64() % 2_200) as usize;
    let path = ExecutionPath::generate(&program, seed, len);
    Trace::expand(&program, &path)
}

/// A synthetic scheme variant: the base trace with a perturbed tail — the
/// shape a transformed binary's replay has (shared prefix, divergent
/// suffix).
fn random_variant(rng: &mut TestRng, base: &Trace) -> Trace {
    let mut variant = base.clone();
    if base.entries.is_empty() {
        return variant;
    }
    let split = (rng.next_u64() as usize) % base.entries.len();
    for e in variant.entries.iter_mut().skip(split) {
        e.pc ^= 0x40;
        if rng.next_u64().is_multiple_of(4) {
            if let Some(addr) = e.mem_addr.as_mut() {
                *addr ^= 0x1000;
            }
        }
    }
    if rng.next_u64().is_multiple_of(4) {
        // Variants also legitimately differ in length.
        let keep = variant.entries.len() - (rng.next_u64() as usize) % (base.entries.len() / 4 + 1);
        variant.entries.truncate(keep.max(1));
    }
    variant
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every engine path agrees exactly — result and ledger — on a random
    /// (core, memory, trace) point, and the ledger partitions the run.
    #[test]
    fn engines_are_bit_identical_on_random_points(seed: u64) {
        let mut rng = TestRng::new(seed);
        let cpu = random_cpu(&mut rng);
        let mem = random_mem(&mut rng);
        let base = random_trace(&mut rng);
        let variant = random_variant(&mut rng, &base);
        let base_fanout = base.compute_fanout();
        let variant_fanout = variant.compute_fanout();
        let sim = Simulator::new(cpu, mem);

        // Scalar reference: the preserved pre-data-oriented loop.
        let (ref_base, ref_base_ledger) = sim.run_reference(&base, &base_fanout);
        let (ref_var, ref_var_ledger) = sim.run_reference(&variant, &variant_fanout);
        prop_assert!(ref_base_ledger.check(ref_base.cycles).is_ok());
        prop_assert!(ref_var_ledger.check(ref_var.cycles).is_ok());

        // Data-oriented core with caller-owned scratch, decoded fresh.
        let mut scratch = SimScratch::new();
        let (dec_base, dec_base_ledger) =
            sim.run_with_ledger(&base, &base_fanout, &mut scratch);
        let (dec_var, dec_var_ledger) =
            sim.run_with_ledger(&variant, &variant_fanout, &mut scratch);
        prop_assert_eq!(&dec_base, &ref_base, "decoded base diverges from reference");
        prop_assert_eq!(&dec_base_ledger, &ref_base_ledger);
        prop_assert_eq!(&dec_var, &ref_var, "decoded variant diverges from reference");
        prop_assert_eq!(&dec_var_ledger, &ref_var_ledger);

        // Two interleaved passes — base, variant, base, variant — through
        // one recycled decode, fanout buffer and scratch, the way one
        // workbench scratch serves every run: no state may leak between
        // runs.
        let mut decoded = DecodedTrace::new();
        let mut fanout = Vec::new();
        let runs: Vec<_> = [&base, &variant, &base, &variant]
            .into_iter()
            .map(|trace| {
                decoded.decode_into(trace);
                decoded.compute_fanout_into(&mut fanout);
                sim.run_decoded(&decoded, &fanout, &mut scratch)
            })
            .collect();
        let reference_base = (ref_base, ref_base_ledger);
        let reference_var = (ref_var, ref_var_ledger);
        prop_assert_eq!(&runs[0], &reference_base, "recycled base diverges from reference");
        prop_assert_eq!(&runs[1], &reference_var, "recycled variant diverges from reference");
        prop_assert_eq!(&runs[2], &runs[0], "state leaked into the second base run");
        prop_assert_eq!(&runs[3], &runs[1], "state leaked into the second variant run");
    }

    /// The struct-of-arrays fan-out computation matches the reference
    /// trace-walk computation exactly on random traces and variants.
    #[test]
    fn decoded_fanout_matches_reference_fanout(seed: u64) {
        let mut rng = TestRng::new(seed);
        let base = random_trace(&mut rng);
        let variant = random_variant(&mut rng, &base);
        let mut decoded = critic_pipeline::DecodedTrace::new();
        let mut soa = Vec::new();
        for t in [&base, &variant] {
            decoded.decode_into(t);
            decoded.compute_fanout_into(&mut soa);
            prop_assert_eq!(&soa, &t.compute_fanout());
        }
    }
}

//! Property-based tests (proptest) on the core data structures and
//! invariants: ISA encode/decode round trips, cache behaviour, chain
//! extraction, and compiler semantics preservation, across arbitrary
//! inputs and generator seeds.

use critics::isa::{encode, Cond, Insn, Opcode, Reg, Width};
use critics::mem::{Cache, CacheConfig};
use critics::profiler::{Profiler, ProfilerConfig};
use critics::workloads::{ExecutionPath, GenParams, ProgramGenerator, Trace};
use proptest::prelude::*;

fn arb_low_reg() -> impl Strategy<Value = Reg> {
    (0u8..8).prop_map(|i| Reg::from_index(i).expect("low register"))
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..15).prop_map(|i| Reg::from_index(i).expect("register below pc"))
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop::sample::select(Cond::ALL.to_vec())
}

fn arb_alu_op() -> impl Strategy<Value = Opcode> {
    prop::sample::select(vec![
        Opcode::Add,
        Opcode::Sub,
        Opcode::And,
        Opcode::Orr,
        Opcode::Eor,
        Opcode::Lsl,
        Opcode::Lsr,
    ])
}

proptest! {
    /// Every ARM-encodable ALU instruction decodes back to itself.
    #[test]
    fn arm32_alu_round_trips(
        op in arb_alu_op(),
        cond in arb_cond(),
        dst in arb_reg(),
        a in arb_reg(),
        b in arb_reg(),
    ) {
        let insn = Insn::alu(op, dst, &[a, b]).with_cond(cond);
        let encoded = encode::encode(&insn).expect("alu reg form encodes");
        let decoded = match encoded {
            encode::Encoded::Word(w) => encode::decode_arm32(w).expect("decodes"),
            encode::Encoded::Half(_) => unreachable!("arm32 width"),
        };
        prop_assert_eq!(decoded, insn);
    }

    /// ARM immediates round-trip across the full 9-bit signed field.
    #[test]
    fn arm32_imm_round_trips(
        dst in arb_reg(),
        src in arb_reg(),
        imm in encode::ARM_IMM_MIN..=encode::ARM_IMM_MAX,
    ) {
        let insn = Insn::alu_imm(Opcode::Add, dst, src, imm);
        let encoded = encode::encode(&insn).expect("imm form encodes");
        let decoded = match encoded {
            encode::Encoded::Word(w) => encode::decode_arm32(w).expect("decodes"),
            encode::Encoded::Half(_) => unreachable!("arm32 width"),
        };
        prop_assert_eq!(decoded, insn);
    }

    /// Every Thumb-convertible instruction's 16-bit form decodes back to the
    /// same semantics.
    #[test]
    fn thumb_round_trips_when_convertible(
        op in arb_alu_op(),
        dst in arb_low_reg(),
        a in arb_low_reg(),
        b in arb_low_reg(),
    ) {
        let insn = Insn::alu(op, dst, &[a, b]);
        prop_assume!(insn.thumb_convertible().is_ok());
        let thumbed = insn.to_thumb().expect("checked");
        let encoded = encode::encode(&thumbed).expect("thumb encodes");
        prop_assert_eq!(encoded.bytes(), 2);
        let decoded = match encoded {
            encode::Encoded::Half(h) => encode::decode_thumb16(h).expect("decodes"),
            encode::Encoded::Word(_) => unreachable!("thumb width"),
        };
        prop_assert_eq!(decoded.to_arm32(), insn);
    }

    /// Conversion to Thumb and back never changes an instruction.
    #[test]
    fn thumb_conversion_is_lossless(
        op in arb_alu_op(),
        cond in arb_cond(),
        dst in arb_reg(),
        a in arb_reg(),
    ) {
        let insn = Insn::alu(op, dst, &[a]).with_cond(cond);
        if let Ok(thumbed) = insn.to_thumb() {
            prop_assert_eq!(thumbed.to_arm32(), insn);
            prop_assert_eq!(thumbed.fetch_bytes(), 2);
        }
    }

    /// A cache access immediately repeated always hits, whatever came first.
    #[test]
    fn cache_rereference_hits(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cache = Cache::new(CacheConfig::new(4096, 2, 64, 2));
        for &addr in &addrs {
            let _ = cache.access(addr);
            prop_assert!(cache.access(addr), "immediate re-reference must hit");
        }
    }

    /// Cache statistics stay consistent: misses never exceed accesses.
    #[test]
    fn cache_stats_are_consistent(addrs in prop::collection::vec(0u64..100_000, 1..300)) {
        let mut cache = Cache::new(CacheConfig::new(1024, 2, 64, 2));
        for &addr in &addrs {
            let _ = cache.access(addr);
        }
        let stats = cache.stats();
        prop_assert!(stats.misses <= stats.accesses);
        prop_assert_eq!(stats.accesses, addrs.len() as u64 * 2 / 2);
    }

    /// The cone fanout dominates the windowed direct fanout and respects
    /// its bound, for arbitrary generated workloads.
    #[test]
    fn cone_fanout_brackets(seed in 0u64..500) {
        let mut params = GenParams::mobile(seed);
        params.num_functions = 10;
        let program = ProgramGenerator::new(params).generate();
        let path = ExecutionPath::generate(&program, seed ^ 0xF0, 2_000);
        let trace = Trace::expand(&program, &path);
        let cone = trace.compute_cone_fanout(128);
        for &c in &cone {
            prop_assert!(c <= 128);
        }
    }

    /// Profiles select only dependence-linked, block-local chains, for
    /// arbitrary seeds.
    #[test]
    fn profile_chains_are_well_formed(seed in 0u64..200) {
        let mut params = GenParams::mobile(seed);
        params.num_functions = 16;
        let program = ProgramGenerator::new(params).generate();
        let path = ExecutionPath::generate(&program, seed ^ 0xAB, 8_000);
        let trace = Trace::expand(&program, &path);
        let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &path, &trace);
        for chain in &profile.chains {
            let block = program.block(chain.block);
            let positions: Vec<usize> = chain
                .uids
                .iter()
                .map(|&uid| block.position_of(uid).expect("uid present"))
                .collect();
            prop_assert!(positions.windows(2).all(|w| w[0] < w[1]));
            for w in positions.windows(2) {
                let producer = block.insns[w[0]].insn;
                let consumer = block.insns[w[1]].insn;
                let dst = producer.dst().expect("members define values");
                prop_assert!(consumer.srcs().iter().any(|s| s == dst));
            }
        }
    }

    /// The CritIC pass preserves the per-uid memory-address streams for
    /// arbitrary seeds (data behaviour never changes).
    #[test]
    fn compiler_preserves_memory_streams(seed in 0u64..100) {
        let mut params = GenParams::mobile(seed);
        params.num_functions = 16;
        let program = ProgramGenerator::new(params).generate();
        let path = ExecutionPath::generate(&program, seed ^ 0xCD, 6_000);
        let trace = Trace::expand(&program, &path);
        let profile = Profiler::new(ProfilerConfig::default()).build_profile(&program, &path, &trace);
        let mut optimized = program.clone();
        critics::compiler::apply_critic_pass(
            &mut optimized,
            &profile,
            critics::compiler::CriticPassOptions::default(),
        );
        let rewritten = Trace::expand(&optimized, &path);
        let mems = |t: &Trace| -> Vec<(u32, u64)> {
            let mut v: Vec<(u32, u64)> =
                t.iter().filter_map(|e| e.mem_addr.map(|a| (e.uid.0, a))).collect();
            v.sort();
            v
        };
        prop_assert_eq!(mems(&trace), mems(&rewritten));
    }

    /// Thumb width halves fetch bytes, exactly.
    #[test]
    fn widths_have_exact_sizes(op in arb_alu_op(), dst in arb_low_reg(), a in arb_low_reg()) {
        let insn = Insn::alu(op, dst, &[a, Reg::R0]);
        prop_assert_eq!(insn.fetch_bytes(), 4);
        if let Ok(t) = insn.to_thumb() {
            prop_assert_eq!(t.fetch_bytes(), 2);
            prop_assert_eq!(t.width(), Width::Thumb16);
        }
    }
}

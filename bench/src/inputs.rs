//! The four workloads' inputs, all derived from the run's `--seed`.
//!
//! The seed drives inputs only. Campaign workloads keep every Table II
//! app's flavour parameters and XOR its generator seed with
//! `splitmix64(seed)`; the service workload keeps the Table II apps (the
//! wire names them) and draws its (app, scheme) mix and Poisson arrival
//! times from the seed.

use critic_core::campaign::{default_schemes, Scheme};
use critic_core::DesignPoint;
use critic_workloads::{AppSpec, Suite};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A cold in-memory sensitivity grid: world build, decode and cycle loop.
    GridCold,
    /// Long streamed traces: `TraceStream` and the streamed cycle loop.
    StreamLong,
    /// Short validated cells over a journal and a persistent store, cold
    /// then restart-warm.
    DurableShort,
    /// Open-loop Poisson requests over TCP to a journaled service.
    ServiceOpen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::GridCold,
        Workload::StreamLong,
        Workload::DurableShort,
        Workload::ServiceOpen,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCold => "grid-cold",
            Workload::StreamLong => "stream-long",
            Workload::DurableShort => "durable-short",
            Workload::ServiceOpen => "service-open",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is what `BENCHMARK.json` measures;
/// [`Scale::smoke`] keeps the same shapes small enough for a debug build.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Mobile apps every workload draws on.
    pub apps: usize,
    /// Schemes taken from [`sensitivity_grid`], in order.
    pub grid_schemes: usize,
    /// grid-cold trace length.
    pub grid_len: usize,
    /// stream-long trace length.
    pub stream_len: usize,
    /// stream-long window.
    pub stream_window: usize,
    /// durable-short trace length.
    pub durable_len: usize,
    /// Set-up campaigns run at this fraction of the workload's trace length.
    pub warmup_div: usize,
    /// service-open trace length.
    pub service_len: usize,
    /// Light-phase arrival rate, requests/s.
    pub light_rate: f64,
    /// Heavy-phase arrival rate, requests/s.
    pub heavy_rate: f64,
    /// Apps and schemes per app the traced layer walk covers.
    pub walk_apps: usize,
    /// Schemes per walked app.
    pub walk_schemes: usize,
}

impl Scale {
    /// The measured configuration.
    pub fn full() -> Scale {
        Scale {
            apps: 10,
            grid_schemes: 18,
            grid_len: 240_000,
            stream_len: 800_000,
            stream_window: 4096,
            durable_len: 40_000,
            warmup_div: 10,
            service_len: 120_000,
            light_rate: 8.0,
            heavy_rate: 20.0,
            walk_apps: 2,
            walk_schemes: 6,
        }
    }

    /// Tiny inputs for `cargo test` (debug build) and quick checks.
    pub fn smoke() -> Scale {
        Scale {
            apps: 2,
            grid_schemes: 14,
            grid_len: 3_000,
            stream_len: 12_000,
            stream_window: 1024,
            durable_len: 2_000,
            warmup_div: 2,
            service_len: 2_000,
            light_rate: 20.0,
            heavy_rate: 40.0,
            walk_apps: 1,
            walk_schemes: 3,
        }
    }
}

/// SplitMix64 finalizer: a well-mixed 64-bit value from any seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator (SplitMix64 sequence) for the
/// benchmark's own choices: sampled cells, request mixes, arrival gaps.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one run (`seed`).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// `k` distinct indices of `0..n`, in ascending order.
    pub fn choose(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut picked = self.shuffled(n, k);
        picked.sort_unstable();
        picked
    }

    /// The first `k` of a random permutation of `0..n`.
    pub fn shuffled(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k.min(n));
        pool
    }
}

/// The first `n` Table II mobile apps with their generator seeds perturbed
/// by the run seed (program and recorded path both follow `params.seed`).
pub fn seeded_apps(seed: u64, n: usize) -> Vec<AppSpec> {
    let mix = splitmix64(seed);
    Suite::Mobile
        .apps()
        .into_iter()
        .take(n)
        .map(|mut app| {
            app.params.seed ^= mix;
            app
        })
        .collect()
}

/// The 18-scheme sensitivity grid: the seven Fig. 10/13 software schemes,
/// CritIC at exact chain lengths 2–4 and at 25%/50% profiling coverage,
/// then the six Fig. 11 hardware points over the baseline binary.
pub fn sensitivity_grid() -> Vec<Scheme> {
    let mut schemes = default_schemes();
    for n in [2, 3, 4] {
        schemes.push(Scheme::new(
            &format!("critic-len{n}"),
            DesignPoint::critic_exact_len(n),
        ));
    }
    for f in [0.25, 0.5] {
        schemes.push(Scheme::new(
            &format!("critic-pf{f}"),
            DesignPoint::critic_profile_fraction(f),
        ));
    }
    schemes.extend([
        Scheme::new("hw-2xfd", DesignPoint::double_fd()),
        Scheme::new("hw-4xic", DesignPoint::quad_icache()),
        Scheme::new("hw-efetch", DesignPoint::efetch()),
        Scheme::new("hw-perfbr", DesignPoint::perfect_branch()),
        Scheme::new("hw-prio", DesignPoint::backend_prio()),
        Scheme::new("hw-all", DesignPoint::all_hw()),
    ]);
    schemes
}

/// Schemes resolvable by name over the wire ([`DesignPoint::named`]).
pub fn named_schemes(names: &[&str]) -> Vec<Scheme> {
    names
        .iter()
        .map(|name| {
            let point = DesignPoint::named(name).expect("scheme names are wire names");
            Scheme::new(name, point)
        })
        .collect()
}

/// stream-long's schemes.
pub const STREAM_SCHEMES: [&str; 3] = ["critic", "opp16", "hoist"];

/// service-open's request mix (each app equally likely, each scheme too).
pub const SERVICE_SCHEMES: [&str; 6] = [
    "critic",
    "opp16",
    "hoist",
    "compress",
    "ideal",
    "branch-switch",
];

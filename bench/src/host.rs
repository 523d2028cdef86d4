//! Host-speed scaling of the time-based end-to-end metrics.
//!
//! On a shared host other tenants' work slows the simulator by a third for
//! minutes at a time, and by nearly half for an hour at a time, far beyond
//! any useful regression bound. A fixed kernel owned by the benchmark is
//! timed between the timed operations (three times before every campaign
//! rep and after the last; twelve times before and twelve times after the
//! service's schedule).
//! Its median time over [`REFERENCE_S`] is the host's slowdown during the
//! run, and the time-based end-to-end metrics are scaled by it.
//!
//! The kernel has two halves. A dependent chain of integer hashes follows
//! the clock. Eight independent hash lanes updating a 256 KiB table behind
//! data-dependent branches keep the core as busy as the simulator does, so
//! they also slow when another tenant shares the physical core. The chain
//! alone tracked rep-to-rep changes but moved less than the simulator when
//! the host changed speed; the lanes alone followed such changes but were
//! noisy from sample to sample.

use std::hint::black_box;
use std::time::Instant;

use crate::inputs::splitmix64;
use crate::metrics::Values;
use crate::stats::median;

/// Steps of the dependent chain per sample.
const CHAIN_STEPS: u64 = 3_000_000;

/// Rounds of the eight lanes per sample.
const LANE_ROUNDS: u64 = 400_000;

/// The lanes' table: 64 Ki `u32`, 256 KiB.
const TABLE_ENTRIES: usize = 1 << 16;

/// Kernel runs per [`HostSpeed::sample`]. Over a five-minute grid-cold run,
/// three runs before each rep instead of one cut the spread of host-scaled
/// rep throughput from 0.14 to 0.11 of its median.
const PROBE_RUNS: usize = 3;

/// The kernel's median time on the 2-vCPU Xeon (2.1 GHz) the bounds were set
/// on, in seconds. Scaled metrics read as if measured there.
const REFERENCE_S: f64 = 0.05;

/// The kernel's table and its timings over one run.
pub struct HostSpeed {
    table: Vec<u32>,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// A kernel with no samples yet.
    pub fn new() -> HostSpeed {
        HostSpeed {
            table: vec![0; TABLE_ENTRIES],
            samples: Vec::new(),
        }
    }

    /// Times the kernel [`PROBE_RUNS`] times.
    pub fn sample(&mut self) {
        for _ in 0..PROBE_RUNS {
            let secs = self.time_kernel();
            self.samples.push(secs);
        }
    }

    fn time_kernel(&mut self) -> f64 {
        let started = Instant::now();
        let mut chain = black_box(7u64);
        for _ in 0..CHAIN_STEPS {
            chain = splitmix64(chain);
            if chain & 1 == 0 {
                chain = chain.rotate_left(3);
            }
        }
        let mut lanes = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
        for _ in 0..LANE_ROUNDS {
            for lane in &mut lanes {
                *lane = splitmix64(*lane);
                let slot = &mut self.table[(*lane >> 48) as usize];
                *slot = slot.wrapping_add(*lane as u32);
                if *slot & 1 == 0 {
                    *lane ^= 0x55;
                }
            }
        }
        black_box((chain, lanes));
        started.elapsed().as_secs_f64()
    }

    /// Median kernel time over [`REFERENCE_S`]: above 1 when this host ran
    /// slower than the reference.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / REFERENCE_S
    }
}

/// Scales the time-based end-to-end metrics in `values` by `slowdown` to
/// the reference host and keeps each measured value as `raw.<name>`.
pub fn normalize(values: &mut Values, slowdown: f64) {
    values.set("host.slowdown", slowdown);
    for (name, per_second) in [
        ("setup_s", false),
        ("p50_ms", false),
        ("sim_minsts_per_s", true),
    ] {
        if let Some(raw) = values.get(name) {
            values.set(&format!("raw.{name}"), raw);
            let scaled = if per_second {
                raw * slowdown
            } else {
                raw / slowdown
            };
            values.set(name, scaled);
        }
    }
}

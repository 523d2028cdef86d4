//! The evaluated design space, as composable design points.

use critic_mem::MemConfig;
use critic_pipeline::CpuConfig;
use serde::{Deserialize, Serialize};

/// The software (compiler) half of a design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Software {
    /// Unmodified binary.
    Baseline,
    /// CritIC chains hoisted but left 32-bit (Fig. 10's `Hoist`).
    Hoist,
    /// The full CritIC scheme: hoist + Thumb + CDP switch (Sec. IV-B).
    CritIc {
        /// Fraction of execution profiled (0.72 = paper headline).
        profile_fraction: f64,
        /// Chain length cap (paper: 5).
        max_len: Option<usize>,
        /// Keep only chains of *exactly* `max_len` (Fig. 12a's per-n
        /// study).
        exact_len: bool,
    },
    /// CritIC with the branch-pair switch — approach 1, stock hardware
    /// (Fig. 8).
    CritIcBranchSwitch,
    /// Hypothetical conversion of every CritIC regardless of length or
    /// Thumb encodability (Fig. 10's `CritIC.Ideal`).
    CritIcIdeal,
    /// Opportunistic conversion of every convertible run ≥ 3 (Sec. V).
    Opp16,
    /// Fine-Grained Thumb Conversion \[78\] (Sec. V's `Compress`).
    Compress,
    /// CritIC first, then OPP16 over the rest (Sec. V's best scheme).
    Opp16PlusCritIc,
}

impl Software {
    /// Display label matching the paper.
    pub fn label(&self) -> String {
        match self {
            Software::Baseline => "Base".into(),
            Software::Hoist => "Hoist".into(),
            Software::CritIc {
                profile_fraction,
                max_len,
                exact_len,
            } => {
                let mut s = String::from("CritIC");
                if *exact_len {
                    s.push_str(&format!("(n={})", max_len.unwrap_or(0)));
                } else if *max_len != Some(5) {
                    s.push_str(&format!("(len<={:?})", max_len));
                }
                if (*profile_fraction - 0.72).abs() > 1e-9 {
                    s.push_str(&format!("@{:.0}%", profile_fraction * 100.0));
                }
                s
            }
            Software::CritIcBranchSwitch => "CritIC.BranchSwitch".into(),
            Software::CritIcIdeal => "CritIC.Ideal".into(),
            Software::Opp16 => "OPP16".into(),
            Software::Compress => "Compress".into(),
            Software::Opp16PlusCritIc => "OPP16+CritIC".into(),
        }
    }

    /// The paper's headline CritIC configuration.
    pub fn critic_default() -> Software {
        Software::CritIc {
            profile_fraction: 0.72,
            max_len: Some(5),
            exact_len: false,
        }
    }
}

/// One evaluated configuration: a software scheme plus hardware toggles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Software scheme.
    pub software: Software,
    /// Enable the CLPT critical-load prefetcher (Fig. 1a "prefetching").
    pub clpt: bool,
    /// Enable critical-first issue (Fig. 1a "prioritizing" /
    /// Fig. 11 `BackendPrio`).
    pub prioritize: bool,
    /// Fig. 11 `2×FD`.
    pub double_fd: bool,
    /// Fig. 11 `4×i-cache`.
    pub quad_icache: bool,
    /// Fig. 11 `EFetch`.
    pub efetch: bool,
    /// Fig. 11 `PerfectBr`.
    pub perfect_branch: bool,
}

/// A scheme name and the constructor of its design point.
pub type NamedScheme = (&'static str, fn() -> DesignPoint);

impl DesignPoint {
    fn plain(software: Software) -> DesignPoint {
        DesignPoint {
            software,
            clpt: false,
            prioritize: false,
            double_fd: false,
            quad_icache: false,
            efetch: false,
            perfect_branch: false,
        }
    }

    /// Table I baseline.
    pub fn baseline() -> DesignPoint {
        DesignPoint::plain(Software::Baseline)
    }

    /// Fig. 1a critical-load prefetching (HPCA'09 \[18\]).
    pub fn critical_load_prefetch() -> DesignPoint {
        DesignPoint {
            clpt: true,
            ..DesignPoint::baseline()
        }
    }

    /// Fig. 1a critical-instruction ALU prioritization (\[32\], \[33\]).
    pub fn critical_prioritization() -> DesignPoint {
        DesignPoint {
            prioritize: true,
            ..DesignPoint::baseline()
        }
    }

    /// Fig. 10 `Hoist`.
    pub fn hoist() -> DesignPoint {
        DesignPoint::plain(Software::Hoist)
    }

    /// The headline CritIC scheme.
    pub fn critic() -> DesignPoint {
        DesignPoint::plain(Software::critic_default())
    }

    /// Fig. 8's approach 1 on stock hardware.
    pub fn critic_branch_switch() -> DesignPoint {
        DesignPoint::plain(Software::CritIcBranchSwitch)
    }

    /// Fig. 10 `CritIC.Ideal`.
    pub fn critic_ideal() -> DesignPoint {
        DesignPoint::plain(Software::CritIcIdeal)
    }

    /// Fig. 11 `2×FD`.
    pub fn double_fd() -> DesignPoint {
        DesignPoint {
            double_fd: true,
            ..DesignPoint::baseline()
        }
    }

    /// Fig. 11 `4×i-cache`.
    pub fn quad_icache() -> DesignPoint {
        DesignPoint {
            quad_icache: true,
            ..DesignPoint::baseline()
        }
    }

    /// Fig. 11 `EFetch`.
    pub fn efetch() -> DesignPoint {
        DesignPoint {
            efetch: true,
            ..DesignPoint::baseline()
        }
    }

    /// Fig. 11 `PerfectBr`.
    pub fn perfect_branch() -> DesignPoint {
        DesignPoint {
            perfect_branch: true,
            ..DesignPoint::baseline()
        }
    }

    /// Fig. 11 `BackendPrio` (same mechanism as Fig. 1a prioritization).
    pub fn backend_prio() -> DesignPoint {
        DesignPoint::critical_prioritization()
    }

    /// Fig. 11 `AllHW`: every hardware mechanism at once.
    pub fn all_hw() -> DesignPoint {
        DesignPoint {
            quad_icache: true,
            efetch: true,
            perfect_branch: true,
            prioritize: true,
            ..DesignPoint::baseline()
        }
    }

    /// Fig. 13 `OPP16`.
    pub fn opp16() -> DesignPoint {
        DesignPoint::plain(Software::Opp16)
    }

    /// Fig. 13 `Compress`.
    pub fn compress() -> DesignPoint {
        DesignPoint::plain(Software::Compress)
    }

    /// Fig. 13 `OPP16+CritIC`.
    pub fn opp16_plus_critic() -> DesignPoint {
        DesignPoint::plain(Software::Opp16PlusCritIc)
    }

    /// Every scheme the `critic` CLI and the service resolve by name, in
    /// the order of the default campaign grid (the paper's Fig. 13
    /// conversion-scheme comparison).
    pub const NAMED: [NamedScheme; 7] = [
        ("hoist", DesignPoint::hoist),
        ("critic", DesignPoint::critic),
        ("ideal", DesignPoint::critic_ideal),
        ("branch-switch", DesignPoint::critic_branch_switch),
        ("opp16", DesignPoint::opp16),
        ("compress", DesignPoint::compress),
        ("opp16+critic", DesignPoint::opp16_plus_critic),
    ];

    /// Resolves a CLI/wire scheme name through [`DesignPoint::NAMED`].
    /// `None` for an unknown name — the single naming authority shared by
    /// the `critic` CLI and the service submission path.
    pub fn named(name: &str) -> Option<DesignPoint> {
        let (_, point) = DesignPoint::NAMED
            .iter()
            .find(|(known, _)| *known == name)?;
        Some(point())
    }

    /// Adds the CritIC software on top of this (hardware) point — the
    /// "with CritIC" bars of Fig. 11.
    #[must_use]
    pub fn with_critic(mut self) -> DesignPoint {
        self.software = Software::critic_default();
        self
    }

    /// Fig. 12a: CritIC restricted to chains of exactly length `n`.
    pub fn critic_exact_len(n: usize) -> DesignPoint {
        DesignPoint::plain(Software::CritIc {
            profile_fraction: 0.72,
            max_len: Some(n),
            exact_len: true,
        })
    }

    /// Fig. 12b: CritIC with a given profiling coverage.
    pub fn critic_profile_fraction(fraction: f64) -> DesignPoint {
        DesignPoint::plain(Software::CritIc {
            profile_fraction: fraction,
            max_len: Some(5),
            exact_len: false,
        })
    }

    /// Human-readable name.
    pub fn label(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        match self.software {
            Software::Baseline => {}
            ref sw => parts.push(sw.label()),
        }
        if self.clpt {
            parts.push("Prefetch".into());
        }
        if self.prioritize {
            parts.push("BackendPrio".into());
        }
        if self.double_fd {
            parts.push("2xFD".into());
        }
        if self.quad_icache {
            parts.push("4xICache".into());
        }
        if self.efetch {
            parts.push("EFetch".into());
        }
        if self.perfect_branch {
            parts.push("PerfectBr".into());
        }
        if parts.is_empty() {
            "Base".into()
        } else {
            parts.join("+")
        }
    }

    /// The CPU configuration this point implies.
    pub fn cpu_config(&self) -> CpuConfig {
        let mut cfg = CpuConfig::google_tablet();
        if self.double_fd {
            cfg = cfg.with_double_fd();
        }
        if self.perfect_branch {
            cfg = cfg.with_perfect_branch();
        }
        if self.prioritize {
            cfg = cfg.with_critical_prioritization();
        }
        cfg
    }

    /// The memory configuration this point implies.
    pub fn mem_config(&self) -> MemConfig {
        let mut cfg = MemConfig::google_tablet();
        if self.clpt {
            cfg = cfg.with_clpt();
        }
        if self.quad_icache {
            cfg = cfg.with_4x_icache();
        }
        if self.double_fd {
            cfg = cfg.with_half_icache_latency();
        }
        if self.efetch {
            cfg = cfg.with_efetch();
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_meaningful() {
        assert_eq!(DesignPoint::baseline().label(), "Base");
        assert_eq!(DesignPoint::critic().label(), "CritIC");
        assert_eq!(
            DesignPoint::all_hw().label(),
            "BackendPrio+4xICache+EFetch+PerfectBr"
        );
        assert!(DesignPoint::all_hw()
            .with_critic()
            .label()
            .contains("CritIC"));
        assert_eq!(DesignPoint::critic_exact_len(7).label(), "CritIC(n=7)");
        assert_eq!(
            DesignPoint::critic_profile_fraction(0.33).label(),
            "CritIC@33%"
        );
    }

    #[test]
    fn hardware_toggles_reach_the_configs() {
        let p = DesignPoint::all_hw();
        let cpu = p.cpu_config();
        assert!(cpu.perfect_branch && cpu.prioritize_critical);
        let mem = p.mem_config();
        assert!(mem.efetch_enabled);
        assert_eq!(mem.icache.size_bytes, 128 * 1024);
        let d = DesignPoint::double_fd();
        assert_eq!(d.cpu_config().fetch_width, 8);
        assert_eq!(d.mem_config().icache.hit_latency, 1);
    }

    #[test]
    fn with_critic_preserves_hardware() {
        let p = DesignPoint::perfect_branch().with_critic();
        assert!(p.perfect_branch);
        assert_eq!(p.software, Software::critic_default());
    }

    #[test]
    fn design_points_serialize() {
        let p = DesignPoint::critic();
        let json = serde_json::to_string(&p).expect("serialize");
        let back: DesignPoint = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(p, back);
    }
}

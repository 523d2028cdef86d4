//! Workload catalogs reproducing the paper's Table II.
//!
//! Ten popular Play-Store apps spanning document readers to video streaming,
//! plus eight SPEC.int and eight SPEC.float programs. Each entry binds a
//! name, its domain and the activity the paper performed, and a
//! [`GenParams`] preset with a per-app seed and light per-app flavour
//! adjustments (so apps differ the way real apps do, not just by seed).

use serde::{Deserialize, Serialize};

use crate::generate::ProgramGenerator;
use crate::params::GenParams;
use crate::program::Program;

/// The three workload suites of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// Ten Play-Store Android apps (Table II, top).
    Mobile,
    /// Eight SPEC CPU2006 integer programs.
    SpecInt,
    /// Eight SPEC CPU2006 floating-point programs.
    SpecFloat,
}

impl Suite {
    /// All suites in evaluation order.
    pub const ALL: [Suite; 3] = [Suite::Mobile, Suite::SpecInt, Suite::SpecFloat];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Suite::Mobile => "Android",
            Suite::SpecInt => "SPEC.int",
            Suite::SpecFloat => "SPEC.float",
        }
    }

    /// The workload catalog of this suite.
    pub fn apps(self) -> Vec<AppSpec> {
        match self {
            Suite::Mobile => mobile_apps(),
            Suite::SpecInt => spec_int_apps(),
            Suite::SpecFloat => spec_float_apps(),
        }
    }

    /// The app named `name` (case-insensitively) in any suite.
    pub fn find_app(name: &str) -> Option<AppSpec> {
        Suite::ALL
            .iter()
            .flat_map(|s| s.apps())
            .find(|a| a.name.eq_ignore_ascii_case(name))
    }
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One workload: a Table II row bound to generator parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Workload name (`Acrobat`, `bzip2`, …).
    pub name: String,
    /// The suite it belongs to.
    pub suite: Suite,
    /// Domain column of Table II.
    pub domain: String,
    /// "Activities performed" column of Table II.
    pub activity: String,
    /// Generator parameters (seeded per app).
    pub params: GenParams,
}

impl AppSpec {
    /// Generates this workload's static binary.
    pub fn generate_program(&self) -> Program {
        let mut program = ProgramGenerator::new(self.params.clone()).generate();
        program.name = self.name.clone();
        program.suite = self.suite;
        program
    }

    /// Seed for the execution-path walk (distinct from the binary seed so
    /// code layout and user input vary independently).
    pub fn path_seed(&self) -> u64 {
        self.params
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xA5A5)
    }
}

fn app(name: &str, suite: Suite, domain: &str, activity: &str, params: GenParams) -> AppSpec {
    AppSpec {
        name: name.to_string(),
        suite,
        domain: domain.to_string(),
        activity: activity.to_string(),
        params,
    }
}

/// The ten Play-Store apps of Table II.
pub fn mobile_apps() -> Vec<AppSpec> {
    let base = |seed: u64| GenParams::mobile(seed);
    let mut acrobat = base(0xA001);
    // Document rendering: slightly longer blocks, strong chain presence.
    acrobat.chain_density = 0.029;
    acrobat.insns_per_block = crate::params::SpanRange::new(9, 23);

    let mut angrybirds = base(0xA002);
    // Physics engine: a little more FP and multiply work.
    angrybirds.float_frac = 0.05;
    angrybirds.mul_frac = 0.06;

    let mut browser = base(0xA003);
    // Web interface: biggest code base, most functions touched.
    browser.num_functions = 480;
    browser.call_density = 0.42;

    let mut facebook = base(0xA004);
    facebook.call_density = 0.40;
    facebook.branch_bias = 0.88;

    let mut email = base(0xA005);
    email.num_functions = 320;

    let mut maps = base(0xA006);
    // Navigation: heavier dataflow between criticals (most F.StallForR+D).
    maps.chain_density = 0.030;
    maps.high_fanout = crate::params::SpanRange::new(22, 38);

    let mut music = base(0xA007);
    // Audio decode loop: smallest benefit in the paper (9%).
    music.num_functions = 260;
    music.loop_prob = 0.35;
    music.chain_density = 0.018;

    let mut office = base(0xA008);
    office.insns_per_block = crate::params::SpanRange::new(8, 21);

    let mut photogallery = base(0xA009);
    photogallery.load_frac = 0.26;
    photogallery.mem.stride_frac = 0.30;

    let mut youtube = base(0xA00A);
    // Video streaming: strong dataflow pressure (26.7% F.StallForR+D).
    youtube.chain_density = 0.030;
    youtube.chain_spacing = crate::params::SpanRange::new(1, 6);

    vec![
        app(
            "Acrobat",
            Suite::Mobile,
            "Document readers",
            "View, add comment",
            acrobat,
        ),
        app(
            "Angrybirds",
            Suite::Mobile,
            "Physics games",
            "1 level of game",
            angrybirds,
        ),
        app(
            "Browser",
            Suite::Mobile,
            "Web interfaces",
            "Search and load pages",
            browser,
        ),
        app(
            "Facebook",
            Suite::Mobile,
            "Instant messengers",
            "RT-texting",
            facebook,
        ),
        app(
            "Email",
            Suite::Mobile,
            "Email clients",
            "Send, receive mail",
            email,
        ),
        app(
            "Maps",
            Suite::Mobile,
            "Navigation",
            "Search directions",
            maps,
        ),
        app(
            "Music",
            Suite::Mobile,
            "Music/audio players",
            "2 minutes song",
            music,
        ),
        app(
            "Office",
            Suite::Mobile,
            "Interactive displays",
            "Slide edit, present",
            office,
        ),
        app(
            "PhotoGallery",
            Suite::Mobile,
            "Image browsing",
            "Browse images",
            photogallery,
        ),
        app(
            "Youtube",
            Suite::Mobile,
            "Video streaming",
            "HQ video stream",
            youtube,
        ),
    ]
}

/// The eight SPEC.int programs of Table II.
pub fn spec_int_apps() -> Vec<AppSpec> {
    let names = [
        "bzip2",
        "hmmer",
        "libquantum",
        "mcf",
        "gcc",
        "gobmk",
        "sjeng",
        "h264ref",
    ];
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut params = GenParams::spec_int(0xB000 + i as u64);
            match *name {
                // mcf: pointer chasing, huge working set, low IPC.
                "mcf" => {
                    params.mem.working_set_bytes = 32 << 20;
                    params.mem.stride_frac = 0.10;
                    params.mem.hot_frac = 0.10;
                }
                // libquantum: streaming kernels.
                "libquantum" => {
                    params.mem.stride_frac = 0.85;
                    params.loop_trips = crate::params::SpanRange::new(100, 400);
                }
                // gcc: bigger code base than the rest of SPEC.
                "gcc" => {
                    params.num_functions = 90;
                    params.call_density = 0.15;
                }
                // gobmk/sjeng: branchy search.
                "gobmk" | "sjeng" => {
                    params.branch_bias = 0.84;
                    params.cond_branch_prob = 0.55;
                }
                _ => {}
            }
            app(
                name,
                Suite::SpecInt,
                "SPEC CPU2006 int",
                "ref input",
                params,
            )
        })
        .collect()
}

/// The eight SPEC.float programs of Table II.
pub fn spec_float_apps() -> Vec<AppSpec> {
    let names = [
        "sperand", "namd", "gromacs", "calculix", "lbm", "milc", "dealII", "leslie3d",
    ];
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut params = GenParams::spec_float(0xC200 + i as u64);
            match *name {
                // lbm/leslie3d: stream-dominated stencil codes.
                "lbm" | "leslie3d" => {
                    params.mem.stride_frac = 0.9;
                    params.float_frac = 0.40;
                }
                // namd/gromacs: molecular dynamics, multiply heavy.
                "namd" | "gromacs" => {
                    params.mul_frac = 0.05;
                    params.float_frac = 0.38;
                }
                _ => {}
            }
            app(
                name,
                Suite::SpecFloat,
                "SPEC CPU2006 float",
                "ref input",
                params,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_match_table_ii() {
        let mobile = mobile_apps();
        assert_eq!(mobile.len(), 10);
        let names: Vec<&str> = mobile.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "Acrobat",
                "Angrybirds",
                "Browser",
                "Facebook",
                "Email",
                "Maps",
                "Music",
                "Office",
                "PhotoGallery",
                "Youtube"
            ]
        );
        assert_eq!(spec_int_apps().len(), 8);
        assert_eq!(spec_float_apps().len(), 8);
    }

    #[test]
    fn seeds_are_unique_across_the_evaluation() {
        let mut seeds = std::collections::HashSet::new();
        for suite in Suite::ALL {
            for app in suite.apps() {
                assert!(
                    seeds.insert(app.params.seed),
                    "duplicate seed for {}",
                    app.name
                );
            }
        }
    }

    #[test]
    fn suite_labels_match_figures() {
        assert_eq!(Suite::Mobile.label(), "Android");
        assert_eq!(Suite::SpecInt.to_string(), "SPEC.int");
    }

    #[test]
    fn every_app_belongs_to_its_suite() {
        for suite in Suite::ALL {
            for app in suite.apps() {
                assert_eq!(app.suite, suite, "{}", app.name);
            }
        }
    }

    #[test]
    fn path_seed_differs_from_binary_seed() {
        for app in mobile_apps() {
            assert_ne!(app.path_seed(), app.params.seed);
        }
    }
}

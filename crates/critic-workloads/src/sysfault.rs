//! Deterministic *systemic* fault injection for the campaign runner.
//!
//! [`crate::fault`] corrupts the data flowing through the pipeline —
//! programs, traces, compiled variants. This module corrupts the *system
//! around* the pipeline: journal writes, artifact-store requests, attempt
//! scheduling, and campaign lifetime. Each [`SysFault`] is one
//! environmental failure, armed at a deterministic operation index within
//! its operation class ([`SysOp`]) so an entire chaos schedule replays
//! bit-identically from its JSON form alone.
//!
//! | fault          | op class       | effect at the tap point               |
//! |----------------|----------------|---------------------------------------|
//! | `JournalWrite` | `JournalAppend`| the journal line is lost (write error)|
//! | `JournalFsync` | `JournalAppend`| the fsync is skipped (durability loss)|
//! | `JournalTorn`  | `JournalAppend`| only a line prefix reaches the file   |
//! | `StoreRead`    | `StoreRequest` | the store request fails (read error)  |
//! | `StoreWrite`   | `StoreRequest` | the store request fails (write error) |
//! | `AllocBudget`  | `AttemptStart` | the attempt runs under a byte budget  |
//! | `WorkerStall`  | `AttemptStart` | the attempt sleeps before starting    |
//! | `Kill`         | `CellDone`     | graceful shutdown is requested        |
//! | `DiskRead`     | `DiskRequest`  | a disk-store load fails (read error)  |
//! | `DiskWrite`    | `DiskRequest`  | a disk-store save fails (write error) |
//! | `DiskCorrupt`  | `DiskRequest`  | the loaded entry arrives corrupted    |
//! | `Crash`        | (embedded op)  | the process aborts at the tap point   |
//!
//! The injector is *consume-once*: each armed spec fires at most one time,
//! so a retried attempt observes a healed environment — exactly the
//! transient-failure shape supervision policies exist to absorb.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// One kind of environmental failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SysFault {
    /// A journal append fails: the cell's line never reaches the file.
    JournalWrite,
    /// A journal fsync fails: the line is written but not made durable.
    JournalFsync,
    /// A journal append is torn mid-line (the classic kill-during-write).
    JournalTorn,
    /// An artifact-store request fails on the read side.
    StoreRead,
    /// An artifact-store request fails on the publish side.
    StoreWrite,
    /// The attempt runs under an allocation budget of `bytes`; charging
    /// past it aborts the attempt (an OOM in miniature).
    AllocBudget {
        /// Budget in bytes.
        bytes: u64,
    },
    /// The worker stalls for `millis` before the attempt body starts —
    /// under a deadline this manifests as a clock overrun.
    WorkerStall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// A graceful-shutdown request lands mid-campaign: queued cells are
    /// shed, in-flight attempts drain, the journal trailer still flushes.
    Kill,
    /// A persistent-store load fails on the read side: the entry is
    /// treated as a miss and rebuilt.
    DiskRead,
    /// A persistent-store save fails on the write side: the entry is not
    /// persisted (the in-memory tier still serves it).
    DiskWrite,
    /// The next persistent-store entry loaded arrives bit-flipped: the
    /// checksum must catch it and quarantine the entry.
    DiskCorrupt,
    /// The process aborts (`SIGABRT`) at the tap point of the embedded
    /// operation class — the kill-anywhere drill's crash primitive. Unlike
    /// [`SysFault::Kill`] nothing drains and nothing flushes: whatever is
    /// durable at that instant is all a restart gets.
    Crash {
        /// The operation class at whose tap the process aborts.
        op: SysOp,
    },
}

impl SysFault {
    /// The operation class whose counter triggers this fault.
    pub fn op(self) -> SysOp {
        match self {
            SysFault::JournalWrite | SysFault::JournalFsync | SysFault::JournalTorn => {
                SysOp::JournalAppend
            }
            SysFault::StoreRead | SysFault::StoreWrite => SysOp::StoreRequest,
            SysFault::AllocBudget { .. } | SysFault::WorkerStall { .. } => SysOp::AttemptStart,
            SysFault::Kill => SysOp::CellDone,
            SysFault::DiskRead | SysFault::DiskWrite | SysFault::DiskCorrupt => SysOp::DiskRequest,
            SysFault::Crash { op } => op,
        }
    }

    /// The kebab-case name used in schedules, journals, and reports.
    pub fn name(self) -> &'static str {
        match self {
            SysFault::JournalWrite => "journal-write",
            SysFault::JournalFsync => "journal-fsync",
            SysFault::JournalTorn => "journal-torn",
            SysFault::StoreRead => "store-read",
            SysFault::StoreWrite => "store-write",
            SysFault::AllocBudget { .. } => "alloc-budget",
            SysFault::WorkerStall { .. } => "worker-stall",
            SysFault::Kill => "kill",
            SysFault::DiskRead => "disk-read",
            SysFault::DiskWrite => "disk-write",
            SysFault::DiskCorrupt => "disk-corrupt",
            SysFault::Crash { .. } => "crash",
        }
    }
}

impl fmt::Display for SysFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysFault::AllocBudget { bytes } => write!(f, "alloc-budget({bytes}B)"),
            SysFault::WorkerStall { millis } => write!(f, "worker-stall({millis}ms)"),
            SysFault::Crash { op } => write!(f, "crash({})", op.name()),
            other => f.write_str(other.name()),
        }
    }
}

/// The instrumented operation classes of the campaign runner. Each class
/// has its own monotone counter in the [`SysInjector`], so a fault's
/// trigger index is stable under schedule minimization: removing a journal
/// fault never shifts when a store fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SysOp {
    /// One cell line (or the trailer) appended to the campaign journal.
    JournalAppend,
    /// One artifact-store request (world / profile / baseline / oracle).
    StoreRequest,
    /// One cell attempt starting.
    AttemptStart,
    /// One cell finishing (any terminal status).
    CellDone,
    /// One journal fsync, tapped *between* the write and the `sync_all`
    /// — the window where a crash leaves a written-but-not-durable line.
    JournalSync,
    /// One persistent-store disk operation (load or save).
    DiskRequest,
}

impl SysOp {
    /// Every operation class.
    pub const ALL: [SysOp; 6] = [
        SysOp::JournalAppend,
        SysOp::StoreRequest,
        SysOp::AttemptStart,
        SysOp::CellDone,
        SysOp::JournalSync,
        SysOp::DiskRequest,
    ];

    /// The kebab-case name used in schedules and the `--sys crash:<op>@N`
    /// CLI syntax.
    pub fn name(self) -> &'static str {
        match self {
            SysOp::JournalAppend => "journal-append",
            SysOp::StoreRequest => "store-request",
            SysOp::AttemptStart => "attempt-start",
            SysOp::CellDone => "cell-done",
            SysOp::JournalSync => "journal-sync",
            SysOp::DiskRequest => "disk-request",
        }
    }

    /// Parses a [`SysOp::name`] back into the op class.
    pub fn parse(name: &str) -> Option<SysOp> {
        SysOp::ALL.into_iter().find(|op| op.name() == name)
    }

    fn index(self) -> usize {
        match self {
            SysOp::JournalAppend => 0,
            SysOp::StoreRequest => 1,
            SysOp::AttemptStart => 2,
            SysOp::CellDone => 3,
            SysOp::JournalSync => 4,
            SysOp::DiskRequest => 5,
        }
    }
}

/// One armed systemic fault: fire `fault` on the `at`-th operation
/// (0-based) of its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SysFaultSpec {
    /// What fails.
    pub fault: SysFault,
    /// The 0-based index within the fault's [`SysOp`] class at which it
    /// fires.
    pub at: u64,
}

impl SysFaultSpec {
    /// Parses the CLI's `--sys NAME[:PARAM]@AT` syntax, e.g.
    /// `journal-write@0`, `alloc-budget:65536@1`, `worker-stall:200@0`,
    /// `crash:journal-append@4`. The inverse of [`SysFaultSpec::render`].
    pub fn parse(value: &str) -> Option<SysFaultSpec> {
        let (head, at) = value.rsplit_once('@')?;
        let (name, param) = match head.split_once(':') {
            Some((name, param)) => (name, Some(param)),
            None => (head, None),
        };
        let fault = match (name, param) {
            ("crash", Some(op)) => SysFault::Crash {
                op: SysOp::parse(op)?,
            },
            ("alloc-budget", Some(bytes)) => SysFault::AllocBudget {
                bytes: bytes.parse().ok()?,
            },
            ("worker-stall", Some(millis)) => SysFault::WorkerStall {
                millis: millis.parse().ok()?,
            },
            (name, None) => [
                SysFault::JournalWrite,
                SysFault::JournalFsync,
                SysFault::JournalTorn,
                SysFault::StoreRead,
                SysFault::StoreWrite,
                SysFault::Kill,
                SysFault::DiskRead,
                SysFault::DiskWrite,
                SysFault::DiskCorrupt,
            ]
            .into_iter()
            .find(|f| f.name() == name)?,
            _ => return None,
        };
        Some(SysFaultSpec {
            fault,
            at: at.parse().ok()?,
        })
    }

    /// Renders the spec in the `--sys NAME[:PARAM]@AT` syntax
    /// [`SysFaultSpec::parse`] reads.
    pub fn render(&self) -> String {
        let name = self.fault.name();
        match self.fault {
            SysFault::AllocBudget { bytes } => format!("{name}:{bytes}@{}", self.at),
            SysFault::WorkerStall { millis } => format!("{name}:{millis}@{}", self.at),
            SysFault::Crash { op } => format!("{name}:{}@{}", op.name(), self.at),
            _ => format!("{name}@{}", self.at),
        }
    }
}

impl fmt::Display for SysFaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.fault, self.at)
    }
}

/// The consume-once systemic fault injector threaded through a campaign.
///
/// Tap points call [`SysInjector::advance`] with their operation class;
/// the injector increments that class's counter and returns whichever
/// armed faults fire at the pre-increment index. Counters are atomics so
/// concurrent workers stay safe; with a single worker the op sequence —
/// and therefore the entire fault schedule — is fully deterministic.
#[derive(Debug, Default)]
pub struct SysInjector {
    specs: Vec<SysFaultSpec>,
    fired: Vec<AtomicBool>,
    counters: [AtomicU64; 6],
}

impl SysInjector {
    /// An injector armed with `specs`.
    pub fn new(specs: Vec<SysFaultSpec>) -> SysInjector {
        let fired = specs.iter().map(|_| AtomicBool::new(false)).collect();
        SysInjector {
            specs,
            fired,
            counters: Default::default(),
        }
    }

    /// The armed specs, in arming order.
    pub fn specs(&self) -> &[SysFaultSpec] {
        &self.specs
    }

    /// Records one operation of class `op` and returns the faults firing
    /// at it. Each spec fires at most once over the injector's lifetime.
    pub fn advance(&self, op: SysOp) -> Vec<SysFault> {
        let index = self.counters[op.index()].fetch_add(1, Ordering::Relaxed);
        self.specs
            .iter()
            .enumerate()
            .filter(|(i, spec)| {
                spec.fault.op() == op
                    && spec.at == index
                    && !self.fired[*i].swap(true, Ordering::Relaxed)
            })
            .map(|(_, spec)| spec.fault)
            .collect()
    }

    /// [`SysInjector::advance`], with the kill-anywhere drill's crash
    /// semantics on top: if a [`SysFault::Crash`] fires at this operation
    /// the process aborts on the spot (`SIGABRT`, no unwinding, no
    /// flushing) — the supervisor observes the signal and restarts.
    /// Returns the non-crash faults for the tap site to apply.
    pub fn advance_or_crash(&self, op: SysOp) -> Vec<SysFault> {
        let fired = self.advance(op);
        if fired.iter().any(|f| matches!(f, SysFault::Crash { .. })) {
            std::process::abort();
        }
        fired
    }

    /// How many armed specs have fired so far.
    pub fn fired_count(&self) -> usize {
        self.fired
            .iter()
            .filter(|f| f.load(Ordering::Relaxed))
            .count()
    }

    /// How many operations of class `op` have been observed.
    pub fn observed(&self, op: SysOp) -> u64 {
        self.counters[op.index()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_at_their_index_and_only_once() {
        let injector = SysInjector::new(vec![
            SysFaultSpec {
                fault: SysFault::JournalWrite,
                at: 1,
            },
            SysFaultSpec {
                fault: SysFault::StoreRead,
                at: 0,
            },
        ]);
        assert!(injector.advance(SysOp::JournalAppend).is_empty());
        assert_eq!(
            injector.advance(SysOp::JournalAppend),
            vec![SysFault::JournalWrite]
        );
        assert!(injector.advance(SysOp::JournalAppend).is_empty());
        assert_eq!(
            injector.advance(SysOp::StoreRequest),
            vec![SysFault::StoreRead]
        );
        assert_eq!(injector.fired_count(), 2);
        assert_eq!(injector.observed(SysOp::JournalAppend), 3);
    }

    #[test]
    fn classes_count_independently() {
        let injector = SysInjector::new(vec![SysFaultSpec {
            fault: SysFault::Kill,
            at: 2,
        }]);
        // Journal and store traffic never advance the CellDone counter.
        for _ in 0..10 {
            assert!(injector.advance(SysOp::JournalAppend).is_empty());
            assert!(injector.advance(SysOp::StoreRequest).is_empty());
        }
        assert!(injector.advance(SysOp::CellDone).is_empty());
        assert!(injector.advance(SysOp::CellDone).is_empty());
        assert_eq!(injector.advance(SysOp::CellDone), vec![SysFault::Kill]);
    }

    #[test]
    fn two_specs_may_share_an_index() {
        let injector = SysInjector::new(vec![
            SysFaultSpec {
                fault: SysFault::JournalFsync,
                at: 0,
            },
            SysFaultSpec {
                fault: SysFault::JournalTorn,
                at: 0,
            },
        ]);
        let fired = injector.advance(SysOp::JournalAppend);
        assert_eq!(fired, vec![SysFault::JournalFsync, SysFault::JournalTorn]);
    }

    #[test]
    fn specs_round_trip_through_serde() {
        let specs = vec![
            SysFaultSpec {
                fault: SysFault::AllocBudget { bytes: 65_536 },
                at: 3,
            },
            SysFaultSpec {
                fault: SysFault::WorkerStall { millis: 250 },
                at: 0,
            },
            SysFaultSpec {
                fault: SysFault::Kill,
                at: 7,
            },
        ];
        for spec in specs {
            let value = serde::Serialize::to_value(&spec);
            let back: SysFaultSpec = serde::Deserialize::from_value(&value).expect("round trips");
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn names_and_display_are_stable() {
        assert_eq!(SysFault::JournalTorn.name(), "journal-torn");
        assert_eq!(SysFault::AllocBudget { bytes: 4096 }.name(), "alloc-budget");
        assert_eq!(
            SysFaultSpec {
                fault: SysFault::WorkerStall { millis: 9 },
                at: 4
            }
            .to_string(),
            "worker-stall(9ms)@4"
        );
        assert_eq!(SysFault::DiskCorrupt.name(), "disk-corrupt");
        assert_eq!(
            SysFaultSpec {
                fault: SysFault::Crash {
                    op: SysOp::JournalSync
                },
                at: 2
            }
            .to_string(),
            "crash(journal-sync)@2"
        );
    }

    #[test]
    fn disk_and_crash_faults_map_to_their_op_classes() {
        assert_eq!(SysFault::DiskRead.op(), SysOp::DiskRequest);
        assert_eq!(SysFault::DiskWrite.op(), SysOp::DiskRequest);
        assert_eq!(SysFault::DiskCorrupt.op(), SysOp::DiskRequest);
        for op in SysOp::ALL {
            assert_eq!(SysFault::Crash { op }.op(), op);
            assert_eq!(SysOp::parse(op.name()), Some(op));
        }
        assert_eq!(SysOp::parse("no-such-op"), None);
    }

    #[test]
    fn cli_syntax_round_trips_for_every_fault() {
        let mut faults = vec![
            SysFault::JournalWrite,
            SysFault::JournalFsync,
            SysFault::JournalTorn,
            SysFault::StoreRead,
            SysFault::StoreWrite,
            SysFault::AllocBudget { bytes: 65_536 },
            SysFault::WorkerStall { millis: 200 },
            SysFault::Kill,
            SysFault::DiskRead,
            SysFault::DiskWrite,
            SysFault::DiskCorrupt,
        ];
        faults.extend(SysOp::ALL.map(|op| SysFault::Crash { op }));
        for (at, fault) in faults.into_iter().enumerate() {
            let spec = SysFaultSpec {
                fault,
                at: at as u64,
            };
            assert_eq!(SysFaultSpec::parse(&spec.render()), Some(spec), "{spec}");
        }
        for (rendered, spec) in [
            (
                "crash:journal-append@4",
                SysFaultSpec {
                    fault: SysFault::Crash {
                        op: SysOp::JournalAppend,
                    },
                    at: 4,
                },
            ),
            (
                "disk-corrupt@1",
                SysFaultSpec {
                    fault: SysFault::DiskCorrupt,
                    at: 1,
                },
            ),
            (
                "alloc-budget:64@0",
                SysFaultSpec {
                    fault: SysFault::AllocBudget { bytes: 64 },
                    at: 0,
                },
            ),
        ] {
            assert_eq!(spec.render(), rendered);
            assert_eq!(SysFaultSpec::parse(rendered), Some(spec));
        }
        for bad in [
            "kill",
            "kill@x",
            "kill:1@0",
            "alloc-budget@1",
            "alloc-budget:lots@1",
            "crash:no-such-op@1",
            "no-such-fault@0",
        ] {
            assert_eq!(SysFaultSpec::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn crash_specs_round_trip_through_serde() {
        for op in SysOp::ALL {
            let spec = SysFaultSpec {
                fault: SysFault::Crash { op },
                at: 5,
            };
            let value = serde::Serialize::to_value(&spec);
            let back: SysFaultSpec = serde::Deserialize::from_value(&value).expect("round trips");
            assert_eq!(back, spec);
        }
    }
}

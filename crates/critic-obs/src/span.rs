//! Span-based campaign telemetry: timed pipeline stages and structured
//! event counts, behind a zero-cost-when-disabled handle.
//!
//! The design is a sink with a no-op default: [`Telemetry`] wraps an
//! `Option<Arc<Recorder>>`. Disabled (the default) every call is a branch
//! on `None` — [`Telemetry::time`] runs its closure without touching the
//! clock, so instrumented hot paths (the PR-3 warm campaign) are
//! unperturbed. Enabled, spans and events accumulate into relaxed atomics
//! and snapshot into the serializable [`TelemetrySnapshot`] that campaign
//! journals and `critic stats` consume.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// The timed stages of one campaign cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanKind {
    /// World generation: program + path + trace + fanout.
    WorldBuild,
    /// Profiler runs (chain selection).
    Profile,
    /// Compiler passes building a scheme variant.
    Passes,
    /// Translation validation (oracle capture, replay, demotion loop).
    Validate,
    /// Pipeline simulation.
    Sim,
    /// One service request, admission to final response (`critic serve`).
    Request,
}

impl SpanKind {
    /// Every span kind, in pipeline order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::WorldBuild,
        SpanKind::Profile,
        SpanKind::Passes,
        SpanKind::Validate,
        SpanKind::Sim,
        SpanKind::Request,
    ];

    /// Short human-readable label (stats tables).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::WorldBuild => "world-build",
            SpanKind::Profile => "profile",
            SpanKind::Passes => "passes",
            SpanKind::Validate => "validate",
            SpanKind::Sim => "sim",
            SpanKind::Request => "request",
        }
    }
}

/// Counted campaign events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A planned fault was injected into a cell.
    Fault,
    /// A cell attempt failed and was retried.
    Retry,
    /// The validation oracle demoted a miscompiled chain.
    Demotion,
    /// A systemic fault (journal/store/alloc/stall/kill) fired.
    SysFault,
    /// The supervisor degraded a cell one ladder step before retrying.
    Degrade,
    /// A circuit breaker tripped (once per breaker key).
    Trip,
    /// A cell was shed — by an open breaker or a draining shutdown —
    /// instead of run.
    Shed,
    /// A disk-store entry was evicted by the LRU byte-budget policy.
    Evict,
    /// A corrupt or torn disk-store entry was quarantined (renamed aside
    /// and rebuilt) instead of crashing the campaign.
    Quarantine,
    /// A journal checkpoint record was written at a segment roll.
    Checkpoint,
    /// A torn journal tail line was detected by its checksum and
    /// truncated during resume.
    TornRecovery,
    /// A service request passed admission control and was queued.
    Admit,
    /// A service request was rejected by admission control (token bucket,
    /// client window, or queue capacity) with a `retry_after` hint.
    Reject,
    /// An open circuit breaker let one half-open probe cell through.
    Probe,
    /// A half-open probe succeeded and closed its circuit breaker.
    Reset,
}

impl EventKind {
    /// Every event kind.
    pub const ALL: [EventKind; 15] = [
        EventKind::Fault,
        EventKind::Retry,
        EventKind::Demotion,
        EventKind::SysFault,
        EventKind::Degrade,
        EventKind::Trip,
        EventKind::Shed,
        EventKind::Evict,
        EventKind::Quarantine,
        EventKind::Checkpoint,
        EventKind::TornRecovery,
        EventKind::Admit,
        EventKind::Reject,
        EventKind::Probe,
        EventKind::Reset,
    ];

    /// Short human-readable label (stats tables).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Fault => "faults",
            EventKind::Retry => "retries",
            EventKind::Demotion => "demotions",
            EventKind::SysFault => "sys-faults",
            EventKind::Degrade => "degrades",
            EventKind::Trip => "trips",
            EventKind::Shed => "sheds",
            EventKind::Evict => "evictions",
            EventKind::Quarantine => "quarantines",
            EventKind::Checkpoint => "checkpoints",
            EventKind::TornRecovery => "torn-recoveries",
            EventKind::Admit => "admits",
            EventKind::Reject => "rejects",
            EventKind::Probe => "probes",
            EventKind::Reset => "resets",
        }
    }
}

/// Supervision-layer event counts — the PR-5 additions to
/// [`TelemetrySnapshot`], grouped in one optional struct so journals
/// written before the supervision layer existed (no `supervision` key)
/// still deserialize (`None`) instead of rejecting the whole line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SupervisionEvents {
    /// Systemic faults fired (journal/store/alloc/stall/kill).
    pub sys_faults: u64,
    /// Degradation-ladder steps taken before retries.
    pub degrades: u64,
    /// Circuit-breaker trips.
    pub trips: u64,
    /// Cells shed by an open breaker or a draining shutdown.
    pub sheds: u64,
}

impl SupervisionEvents {
    fn absorb(&mut self, other: &SupervisionEvents) {
        self.sys_faults += other.sys_faults;
        self.degrades += other.degrades;
        self.trips += other.trips;
        self.sheds += other.sheds;
    }

    fn is_empty(&self) -> bool {
        *self == SupervisionEvents::default()
    }
}

/// Durability-layer event counts — the PR-6 additions to
/// [`TelemetrySnapshot`], grouped in one optional struct (the same
/// back-compat shape as [`SupervisionEvents`]) so journals written before
/// the persistent tier existed still deserialize (`None`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityEvents {
    /// Disk-store entries evicted by the LRU byte-budget policy.
    pub evictions: u64,
    /// Corrupt or torn disk-store entries quarantined and rebuilt.
    pub quarantines: u64,
    /// Journal checkpoint records written at segment rolls.
    pub checkpoints: u64,
    /// Torn journal tail lines truncated during resume.
    pub torn_recoveries: u64,
}

impl DurabilityEvents {
    fn absorb(&mut self, other: &DurabilityEvents) {
        self.evictions += other.evictions;
        self.quarantines += other.quarantines;
        self.checkpoints += other.checkpoints;
        self.torn_recoveries += other.torn_recoveries;
    }

    fn is_empty(&self) -> bool {
        *self == DurabilityEvents::default()
    }
}

/// Service-layer counters — the PR-7 additions to [`TelemetrySnapshot`]
/// behind `critic serve`, grouped in one optional struct (the same
/// back-compat shape as [`SupervisionEvents`]) so journals written before
/// the service existed still deserialize (`None`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceEvents {
    /// Per-request spans: admission to final response.
    pub requests: SpanStats,
    /// Requests that passed admission control and were queued.
    pub admits: u64,
    /// Requests rejected by admission control (token bucket, client
    /// window, or queue capacity) with a `retry_after` hint.
    pub rejects: u64,
    /// Half-open breaker probe cells let through.
    pub probes: u64,
    /// Breakers closed again by a successful probe.
    pub resets: u64,
    /// Deepest work-pool queue observed (a high-water gauge, merged by
    /// max, not sum).
    pub peak_queue_depth: u64,
}

impl ServiceEvents {
    fn absorb(&mut self, other: &ServiceEvents) {
        self.requests.absorb(&other.requests);
        self.admits += other.admits;
        self.rejects += other.rejects;
        self.probes += other.probes;
        self.resets += other.resets;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
    }

    fn is_empty(&self) -> bool {
        *self == ServiceEvents::default()
    }
}

/// Aggregate of one span kind: how many times it ran and for how long.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanStats {
    /// Spans recorded.
    pub count: u64,
    /// Summed wall-clock, nanoseconds.
    pub total_nanos: u64,
    /// Longest single span, nanoseconds.
    pub max_nanos: u64,
}

impl SpanStats {
    /// Mean span duration in milliseconds (0 when nothing was recorded).
    pub fn mean_millis(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_nanos as f64 / self.count as f64 / 1e6
        }
    }

    /// Summed wall-clock in milliseconds.
    pub fn total_millis(&self) -> f64 {
        self.total_nanos as f64 / 1e6
    }

    fn absorb(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

/// The mutable accumulation point behind an enabled [`Telemetry`] handle.
///
/// All counters are relaxed atomics: spans from concurrent campaign
/// workers interleave without locks, and the snapshot is a plain read
/// (exact once the workers have joined, which is when campaigns read it).
#[derive(Debug, Default)]
pub struct Recorder {
    span_count: [AtomicU64; SpanKind::ALL.len()],
    span_total: [AtomicU64; SpanKind::ALL.len()],
    span_max: [AtomicU64; SpanKind::ALL.len()],
    events: [AtomicU64; EventKind::ALL.len()],
    peak_queue_depth: AtomicU64,
}

impl Recorder {
    /// A zeroed recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Records one completed span of `kind`.
    pub fn record_span(&self, kind: SpanKind, nanos: u64) {
        let i = kind as usize;
        self.span_count[i].fetch_add(1, Ordering::Relaxed);
        self.span_total[i].fetch_add(nanos, Ordering::Relaxed);
        self.span_max[i].fetch_max(nanos, Ordering::Relaxed);
    }

    /// Counts `n` occurrences of `kind`.
    pub fn count_events(&self, kind: EventKind, n: u64) {
        self.events[kind as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Updates the queue-depth high-water mark (a `fetch_max` gauge).
    pub fn record_queue_depth(&self, depth: u64) {
        self.peak_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Reads every counter into a serializable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let span = |kind: SpanKind| {
            let i = kind as usize;
            SpanStats {
                count: self.span_count[i].load(Ordering::Relaxed),
                total_nanos: self.span_total[i].load(Ordering::Relaxed),
                max_nanos: self.span_max[i].load(Ordering::Relaxed),
            }
        };
        let event = |kind: EventKind| self.events[kind as usize].load(Ordering::Relaxed);
        TelemetrySnapshot {
            world_build: span(SpanKind::WorldBuild),
            profile: span(SpanKind::Profile),
            passes: span(SpanKind::Passes),
            validate: span(SpanKind::Validate),
            sim: span(SpanKind::Sim),
            faults: event(EventKind::Fault),
            retries: event(EventKind::Retry),
            demotions: event(EventKind::Demotion),
            supervision: Some(SupervisionEvents {
                sys_faults: event(EventKind::SysFault),
                degrades: event(EventKind::Degrade),
                trips: event(EventKind::Trip),
                sheds: event(EventKind::Shed),
            }),
            durability: Some(DurabilityEvents {
                evictions: event(EventKind::Evict),
                quarantines: event(EventKind::Quarantine),
                checkpoints: event(EventKind::Checkpoint),
                torn_recoveries: event(EventKind::TornRecovery),
            }),
            service: Some(ServiceEvents {
                requests: span(SpanKind::Request),
                admits: event(EventKind::Admit),
                rejects: event(EventKind::Reject),
                probes: event(EventKind::Probe),
                resets: event(EventKind::Reset),
                peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            }),
        }
    }
}

/// A serializable point-in-time read of a [`Recorder`]: per-stage span
/// aggregates plus event counts. Journaled per campaign cell and as the
/// campaign-level trailer line; `critic stats` re-aggregates them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// World-generation spans.
    pub world_build: SpanStats,
    /// Profiler spans.
    pub profile: SpanStats,
    /// Compiler-pass spans.
    pub passes: SpanStats,
    /// Translation-validation spans.
    pub validate: SpanStats,
    /// Simulation spans.
    pub sim: SpanStats,
    /// Planned faults injected.
    pub faults: u64,
    /// Attempt retries consumed.
    pub retries: u64,
    /// Chains demoted by the validation oracle.
    pub demotions: u64,
    /// Supervision-layer event counts. `None` when the snapshot was read
    /// from a journal written before the supervision layer existed; use
    /// [`TelemetrySnapshot::supervision`] for a zero-defaulted view.
    pub supervision: Option<SupervisionEvents>,
    /// Durability-layer event counts. `None` when the snapshot was read
    /// from a journal written before the persistent tier existed; use
    /// [`TelemetrySnapshot::durability`] for a zero-defaulted view.
    pub durability: Option<DurabilityEvents>,
    /// Service-layer counters. `None` when the snapshot was read from a
    /// journal written before `critic serve` existed; use
    /// [`TelemetrySnapshot::service`] for a zero-defaulted view.
    pub service: Option<ServiceEvents>,
}

impl TelemetrySnapshot {
    /// The span aggregate for `kind`.
    pub fn span(&self, kind: SpanKind) -> SpanStats {
        match kind {
            SpanKind::WorldBuild => self.world_build,
            SpanKind::Profile => self.profile,
            SpanKind::Passes => self.passes,
            SpanKind::Validate => self.validate,
            SpanKind::Sim => self.sim,
            SpanKind::Request => self.service().requests,
        }
    }

    /// The event count for `kind`.
    pub fn events(&self, kind: EventKind) -> u64 {
        let supervision = self.supervision();
        let durability = self.durability();
        let service = self.service();
        match kind {
            EventKind::Fault => self.faults,
            EventKind::Retry => self.retries,
            EventKind::Demotion => self.demotions,
            EventKind::SysFault => supervision.sys_faults,
            EventKind::Degrade => supervision.degrades,
            EventKind::Trip => supervision.trips,
            EventKind::Shed => supervision.sheds,
            EventKind::Evict => durability.evictions,
            EventKind::Quarantine => durability.quarantines,
            EventKind::Checkpoint => durability.checkpoints,
            EventKind::TornRecovery => durability.torn_recoveries,
            EventKind::Admit => service.admits,
            EventKind::Reject => service.rejects,
            EventKind::Probe => service.probes,
            EventKind::Reset => service.resets,
        }
    }

    /// The supervision-event counts, zero-defaulted when the snapshot
    /// predates the supervision layer.
    pub fn supervision(&self) -> SupervisionEvents {
        self.supervision.unwrap_or_default()
    }

    /// The durability-event counts, zero-defaulted when the snapshot
    /// predates the persistent tier.
    pub fn durability(&self) -> DurabilityEvents {
        self.durability.unwrap_or_default()
    }

    /// The service-layer counters, zero-defaulted when the snapshot
    /// predates `critic serve`.
    pub fn service(&self) -> ServiceEvents {
        self.service.unwrap_or_default()
    }

    /// Whether anything at all was recorded.
    pub fn is_empty(&self) -> bool {
        SpanKind::ALL.iter().all(|&k| self.span(k).count == 0)
            && EventKind::ALL.iter().all(|&k| self.events(k) == 0)
    }

    /// Merges another snapshot into this one (summing counts and totals,
    /// taking the max of maxima) — how per-cell snapshots roll up into a
    /// campaign aggregate.
    pub fn absorb(&mut self, other: &TelemetrySnapshot) {
        self.world_build.absorb(&other.world_build);
        self.profile.absorb(&other.profile);
        self.passes.absorb(&other.passes);
        self.validate.absorb(&other.validate);
        self.sim.absorb(&other.sim);
        self.faults += other.faults;
        self.retries += other.retries;
        self.demotions += other.demotions;
        self.supervision = match (self.supervision, other.supervision) {
            (None, None) => None,
            (a, b) => {
                let mut sum = a.unwrap_or_default();
                sum.absorb(&b.unwrap_or_default());
                Some(sum)
            }
        };
        self.durability = match (self.durability, other.durability) {
            (None, None) => None,
            (a, b) => {
                let mut sum = a.unwrap_or_default();
                sum.absorb(&b.unwrap_or_default());
                Some(sum)
            }
        };
        self.service = match (self.service, other.service) {
            (None, None) => None,
            (a, b) => {
                let mut sum = a.unwrap_or_default();
                sum.absorb(&b.unwrap_or_default());
                Some(sum)
            }
        };
    }

    /// Renders the fixed-width human table `critic stats` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("  span          count   total ms    mean ms     max ms\n");
        for kind in SpanKind::ALL {
            let s = self.span(kind);
            out.push_str(&format!(
                "  {:<12} {:>6} {:>10.2} {:>10.3} {:>10.3}\n",
                kind.label(),
                s.count,
                s.total_millis(),
                s.mean_millis(),
                s.max_nanos as f64 / 1e6,
            ));
        }
        out.push_str(&format!(
            "  events: {} faults, {} retries, {} demotions",
            self.faults, self.retries, self.demotions
        ));
        let supervision = self.supervision();
        if !supervision.is_empty() {
            out.push_str(&format!(
                "\n  supervision: {} sys-faults, {} degrades, {} trips, {} sheds",
                supervision.sys_faults, supervision.degrades, supervision.trips, supervision.sheds
            ));
        }
        let durability = self.durability();
        if !durability.is_empty() {
            out.push_str(&format!(
                "\n  durability: {} evictions, {} quarantines, {} checkpoints, {} torn-recoveries",
                durability.evictions,
                durability.quarantines,
                durability.checkpoints,
                durability.torn_recoveries
            ));
        }
        let service = self.service();
        if !service.is_empty() {
            out.push_str(&format!(
                "\n  service: {} admits, {} rejects, {} probes, {} resets, peak queue {}",
                service.admits,
                service.rejects,
                service.probes,
                service.resets,
                service.peak_queue_depth
            ));
        }
        out
    }
}

/// The cloneable telemetry handle threaded through campaigns, workbenches,
/// and the store. Disabled by default; every clone shares one recorder.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    recorder: Option<Arc<Recorder>>,
}

impl Telemetry {
    /// The no-op handle: nothing is recorded, nothing is timed.
    pub fn off() -> Telemetry {
        Telemetry { recorder: None }
    }

    /// A live handle over a fresh recorder.
    pub fn enabled() -> Telemetry {
        Telemetry {
            recorder: Some(Arc::new(Recorder::new())),
        }
    }

    /// Enabled iff the `CRITIC_TELEMETRY` environment variable is set to a
    /// non-empty value other than `0` — how CI runs the whole tier-1 suite
    /// with telemetry on without touching every call site.
    pub fn from_env() -> Telemetry {
        match std::env::var("CRITIC_TELEMETRY") {
            Ok(v) if !v.is_empty() && v != "0" => Telemetry::enabled(),
            _ => Telemetry::off(),
        }
    }

    /// Whether a recorder is attached.
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Runs `f`, recording its wall-clock as one span of `kind` when
    /// enabled. Disabled, this is a direct call: no clock read, no
    /// recording — the zero-cost path `bench/` measures.
    #[inline]
    pub fn time<T>(&self, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        match &self.recorder {
            None => f(),
            Some(recorder) => {
                let started = Instant::now();
                let result = f();
                recorder.record_span(kind, started.elapsed().as_nanos() as u64);
                result
            }
        }
    }

    /// Counts one event of `kind` (no-op when disabled).
    pub fn event(&self, kind: EventKind) {
        self.events(kind, 1);
    }

    /// Counts `n` events of `kind` (no-op when disabled).
    pub fn events(&self, kind: EventKind, n: u64) {
        if let Some(recorder) = &self.recorder {
            if n > 0 {
                recorder.count_events(kind, n);
            }
        }
    }

    /// Updates the queue-depth high-water gauge (no-op when disabled).
    pub fn queue_depth(&self, depth: u64) {
        if let Some(recorder) = &self.recorder {
            recorder.record_queue_depth(depth);
        }
    }

    /// Merges a finished snapshot into this handle's recorder (no-op when
    /// disabled) — campaigns roll per-cell telemetry up this way.
    pub fn absorb(&self, snapshot: &TelemetrySnapshot) {
        if let Some(recorder) = &self.recorder {
            for kind in SpanKind::ALL {
                let s = snapshot.span(kind);
                if s.count > 0 {
                    let i = kind as usize;
                    recorder.span_count[i].fetch_add(s.count, Ordering::Relaxed);
                    recorder.span_total[i].fetch_add(s.total_nanos, Ordering::Relaxed);
                    recorder.span_max[i].fetch_max(s.max_nanos, Ordering::Relaxed);
                }
            }
            for kind in EventKind::ALL {
                let n = snapshot.events(kind);
                if n > 0 {
                    recorder.count_events(kind, n);
                }
            }
            recorder.record_queue_depth(snapshot.service().peak_queue_depth);
        }
    }

    /// Reads the current counters; `None` when disabled.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.recorder.as_ref().map(|r| r.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_index_their_arrays_in_declaration_order() {
        for (i, kind) in SpanKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let telemetry = Telemetry::off();
        assert!(!telemetry.is_enabled());
        let out = telemetry.time(SpanKind::Sim, || 41 + 1);
        assert_eq!(out, 42);
        telemetry.event(EventKind::Fault);
        assert!(telemetry.snapshot().is_none());
    }

    #[test]
    fn enabled_handle_times_spans_and_counts_events() {
        let telemetry = Telemetry::enabled();
        assert!(telemetry.is_enabled());
        for _ in 0..3 {
            telemetry.time(SpanKind::Profile, || std::hint::black_box(7u64.pow(5)));
        }
        telemetry.event(EventKind::Retry);
        telemetry.events(EventKind::Demotion, 4);
        let snap = telemetry.snapshot().expect("enabled handles snapshot");
        assert_eq!(snap.profile.count, 3);
        assert!(snap.profile.max_nanos <= snap.profile.total_nanos);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.demotions, 4);
        assert_eq!(snap.sim.count, 0);
        assert!(!snap.is_empty());
    }

    #[test]
    fn clones_share_one_recorder() {
        let telemetry = Telemetry::enabled();
        let clone = telemetry.clone();
        clone.time(SpanKind::Sim, || ());
        clone.event(EventKind::Fault);
        let snap = telemetry.snapshot().expect("snapshot");
        assert_eq!(snap.sim.count, 1);
        assert_eq!(snap.faults, 1);
    }

    #[test]
    fn snapshots_absorb_into_aggregates() {
        let a = TelemetrySnapshot {
            sim: SpanStats {
                count: 2,
                total_nanos: 100,
                max_nanos: 70,
            },
            faults: 1,
            ..Default::default()
        };
        let b = TelemetrySnapshot {
            sim: SpanStats {
                count: 1,
                total_nanos: 50,
                max_nanos: 50,
            },
            demotions: 2,
            ..Default::default()
        };
        let mut sum = a;
        sum.absorb(&b);
        assert_eq!(sum.sim.count, 3);
        assert_eq!(sum.sim.total_nanos, 150);
        assert_eq!(sum.sim.max_nanos, 70);
        assert_eq!(sum.faults, 1);
        assert_eq!(sum.demotions, 2);

        let campaign = Telemetry::enabled();
        campaign.absorb(&sum);
        let snap = campaign.snapshot().expect("snapshot");
        assert_eq!(snap.sim.count, 3);
        assert_eq!(snap.sim.max_nanos, 70);
        assert_eq!(snap.demotions, 2);
    }

    #[test]
    fn render_lists_every_span_and_event() {
        let telemetry = Telemetry::enabled();
        telemetry.time(SpanKind::WorldBuild, || ());
        telemetry.event(EventKind::Fault);
        let text = telemetry.snapshot().expect("snapshot").render();
        for kind in SpanKind::ALL {
            assert!(text.contains(kind.label()), "{text}");
        }
        assert!(text.contains("1 faults"), "{text}");
    }

    #[test]
    fn pre_supervision_snapshots_still_deserialize() {
        // A journal line written before the supervision counters existed
        // has no `supervision` key; it must parse to `None` (reading 0 via
        // the accessor), not reject the line.
        let telemetry = Telemetry::enabled();
        telemetry.event(EventKind::Retry);
        let snap = telemetry.snapshot().expect("snapshot");
        let mut value = serde::Serialize::to_value(&snap);
        if let serde::Value::Object(map) = &mut value {
            map.retain(|(k, _)| k != "supervision");
        }
        let back: TelemetrySnapshot =
            serde::Deserialize::from_value(&value).expect("old snapshot parses");
        assert_eq!(back.supervision, None);
        assert_eq!(back.events(EventKind::Trip), 0);
        assert_eq!(back.retries, 1);

        // Absorbing a modern snapshot revives the counters.
        let mut sum = back;
        telemetry.event(EventKind::Shed);
        sum.absorb(&telemetry.snapshot().expect("snapshot"));
        assert_eq!(sum.events(EventKind::Shed), 1);
    }

    #[test]
    fn supervision_events_count_and_render() {
        let telemetry = Telemetry::enabled();
        telemetry.event(EventKind::SysFault);
        telemetry.events(EventKind::Degrade, 2);
        telemetry.event(EventKind::Trip);
        telemetry.events(EventKind::Shed, 3);
        let snap = telemetry.snapshot().expect("snapshot");
        let supervision = snap.supervision();
        assert_eq!(supervision.sys_faults, 1);
        assert_eq!(supervision.degrades, 2);
        assert_eq!(supervision.trips, 1);
        assert_eq!(supervision.sheds, 3);
        assert!(!snap.is_empty());
        let text = snap.render();
        assert!(text.contains("1 sys-faults"), "{text}");
        assert!(text.contains("3 sheds"), "{text}");
    }

    #[test]
    fn pre_durability_snapshots_still_deserialize() {
        // A journal line written before the persistent tier existed has no
        // `durability` key; it must parse to `None` (reading 0 via the
        // accessor), not reject the line.
        let telemetry = Telemetry::enabled();
        telemetry.event(EventKind::Evict);
        let snap = telemetry.snapshot().expect("snapshot");
        let mut value = serde::Serialize::to_value(&snap);
        if let serde::Value::Object(map) = &mut value {
            map.retain(|(k, _)| k != "durability");
        }
        let back: TelemetrySnapshot =
            serde::Deserialize::from_value(&value).expect("old snapshot parses");
        assert_eq!(back.durability, None);
        assert_eq!(back.events(EventKind::Evict), 0);

        // Absorbing a modern snapshot revives the counters.
        let mut sum = back;
        sum.absorb(&telemetry.snapshot().expect("snapshot"));
        assert_eq!(sum.events(EventKind::Evict), 1);
    }

    #[test]
    fn durability_events_count_and_render() {
        let telemetry = Telemetry::enabled();
        telemetry.events(EventKind::Evict, 2);
        telemetry.event(EventKind::Quarantine);
        telemetry.event(EventKind::Checkpoint);
        telemetry.events(EventKind::TornRecovery, 3);
        let snap = telemetry.snapshot().expect("snapshot");
        let durability = snap.durability();
        assert_eq!(durability.evictions, 2);
        assert_eq!(durability.quarantines, 1);
        assert_eq!(durability.checkpoints, 1);
        assert_eq!(durability.torn_recoveries, 3);
        assert!(!snap.is_empty());
        let text = snap.render();
        assert!(text.contains("2 evictions"), "{text}");
        assert!(text.contains("3 torn-recoveries"), "{text}");
    }

    #[test]
    fn pre_service_snapshots_still_deserialize() {
        // A journal line written before `critic serve` existed has no
        // `service` key; it must parse to `None` (reading 0 via the
        // accessor), not reject the line.
        let telemetry = Telemetry::enabled();
        telemetry.event(EventKind::Admit);
        let snap = telemetry.snapshot().expect("snapshot");
        let mut value = serde::Serialize::to_value(&snap);
        if let serde::Value::Object(map) = &mut value {
            map.retain(|(k, _)| k != "service");
        }
        let back: TelemetrySnapshot =
            serde::Deserialize::from_value(&value).expect("old snapshot parses");
        assert_eq!(back.service, None);
        assert_eq!(back.events(EventKind::Admit), 0);

        // Absorbing a modern snapshot revives the counters.
        let mut sum = back;
        sum.absorb(&telemetry.snapshot().expect("snapshot"));
        assert_eq!(sum.events(EventKind::Admit), 1);
    }

    #[test]
    fn service_events_count_and_render() {
        let telemetry = Telemetry::enabled();
        telemetry.time(SpanKind::Request, || ());
        telemetry.events(EventKind::Admit, 5);
        telemetry.events(EventKind::Reject, 2);
        telemetry.event(EventKind::Probe);
        telemetry.event(EventKind::Reset);
        telemetry.queue_depth(7);
        telemetry.queue_depth(3);
        let snap = telemetry.snapshot().expect("snapshot");
        let service = snap.service();
        assert_eq!(service.requests.count, 1);
        assert_eq!(service.admits, 5);
        assert_eq!(service.rejects, 2);
        assert_eq!(service.probes, 1);
        assert_eq!(service.resets, 1);
        assert_eq!(service.peak_queue_depth, 7);
        assert!(!snap.is_empty());
        let text = snap.render();
        assert!(text.contains("5 admits"), "{text}");
        assert!(text.contains("2 rejects"), "{text}");
        assert!(text.contains("peak queue 7"), "{text}");

        // The high-water gauge survives a roll-up by max, not sum.
        let aggregate = Telemetry::enabled();
        aggregate.queue_depth(4);
        aggregate.absorb(&snap);
        aggregate.absorb(&snap);
        let merged = aggregate.snapshot().expect("snapshot").service();
        assert_eq!(merged.admits, 10);
        assert_eq!(merged.peak_queue_depth, 7);
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let telemetry = Telemetry::enabled();
        telemetry.time(SpanKind::Validate, || ());
        telemetry.events(EventKind::Demotion, 3);
        let snap = telemetry.snapshot().expect("snapshot");
        let value = serde::Serialize::to_value(&snap);
        let back: TelemetrySnapshot = serde::Deserialize::from_value(&value).expect("round trips");
        assert_eq!(back, snap);
    }
}

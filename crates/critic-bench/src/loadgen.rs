//! The load generator behind `critic loadgen`: N concurrent clients
//! submitting a seeded app × scheme mix at an open-loop rate, reporting
//! latency percentiles, shed/reject counts, and degradation occupancy.
//!
//! Open-loop means each client sends on its own schedule (`rate` requests
//! per second from connect time) regardless of how fast the server
//! answers — the standard way to expose queueing collapse, since a
//! closed-loop client would politely slow down exactly when the server is
//! drowning. A client that falls behind its schedule sends immediately
//! without re-pacing.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use critic_core::campaign::{CellMetrics, CellStatus};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::audit::BenchError;
use crate::lock_clean;
use crate::serve::{parse_reply, send_line, Reply, Request, SubmitBody};

/// One load-generation run's parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server addresses, `host:port`; client `i` connects to
    /// `addrs[i % addrs.len()]`, so one run can spread over a fleet.
    pub addrs: Vec<String>,
    /// Concurrent clients (each on its own connection).
    pub clients: usize,
    /// Submissions per client.
    pub requests_per_client: usize,
    /// Open-loop submissions per second per client; 0 sends flat-out.
    pub rate: f64,
    /// Per-request deadline forwarded to the server, if any.
    pub deadline_ms: Option<u64>,
    /// Seed for the app × scheme mix (client `i` derives `seed + i`).
    pub seed: u64,
    /// App-name pool for the mix.
    pub apps: Vec<String>,
    /// Scheme-name pool for the mix.
    pub schemes: Vec<String>,
    /// When non-empty, the mix draws whole (app, scheme) pairs from this
    /// pool instead of crossing `apps` × `schemes` — how the sharded soak
    /// replays exactly the cells it saw acked earlier.
    pub pairs: Vec<(String, String)>,
    /// Resubmissions allowed per request after a `rejected` reply. Each
    /// retry honours the server's `retry_after_ms` hint (a blind 10 ms
    /// pause when the hint is 0). 0 — the default, and what the
    /// accounting-exactness tests rely on — never retries.
    pub retries: u32,
    /// How long to wait for outstanding responses after the last send.
    pub drain_timeout: Duration,
}

impl LoadgenConfig {
    /// A small default mix against `addr`: 8 clients × 8 requests at
    /// 16/s over the first four Mobile apps and three schemes.
    pub fn new(addr: &str) -> LoadgenConfig {
        LoadgenConfig {
            addrs: vec![addr.to_string()],
            clients: 8,
            requests_per_client: 8,
            rate: 16.0,
            deadline_ms: None,
            seed: 0,
            apps: ["Acrobat", "Angrybirds", "Browser", "Facebook"]
                .into_iter()
                .map(String::from)
                .collect(),
            schemes: ["critic", "opp16", "hoist"]
                .into_iter()
                .map(String::from)
                .collect(),
            pairs: Vec::new(),
            retries: 0,
            drain_timeout: Duration::from_secs(120),
        }
    }
}

/// One acknowledged (`done`) cell, as the client observed it. The soak
/// compares this set against the journal after a `SIGKILL`: every entry
/// here must have survived.
#[derive(Debug, Clone, Serialize)]
pub struct AckedCell {
    /// The submission's correlation id.
    pub id: u64,
    /// App name as echoed in the record.
    pub app: String,
    /// Scheme name as echoed in the record.
    pub scheme: String,
    /// Terminal status.
    pub status: CellStatus,
    /// When the `done` arrived, milliseconds since the run started — what
    /// the sharded soak compares against its kill offset to know which
    /// acks predate the shard kill.
    pub acked_at_ms: u64,
    /// Degradation level of the record (0 when unreported).
    pub degraded: u8,
    /// The record's metrics, kept so two runs of the same mix can be
    /// compared bit-for-bit (the sharded soak's single-process oracle).
    pub metrics: Option<CellMetrics>,
}

/// Aggregated latency and outcome counters for one loadgen run,
/// printed by `critic loadgen` and serialised into the soak report.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LoadgenReport {
    /// Clients that ran.
    pub clients: usize,
    /// Submissions actually written to a socket.
    pub requests: u64,
    /// `accepted` replies observed.
    pub accepted: u64,
    /// `rejected` replies observed.
    pub rejected: u64,
    /// `done` replies observed.
    pub done: u64,
    /// `done` records with `Ok` status.
    pub ok: u64,
    /// `done` records with `Shed` status (open breaker).
    pub shed: u64,
    /// `done` records that failed, timed out, or panicked.
    pub failed: u64,
    /// Submissions with neither a `rejected` nor a `done` by the drain
    /// timeout (or before the connection was cut).
    pub unanswered: u64,
    /// Retries sent after waiting out a non-zero `retry_after_ms` hint.
    pub hinted_retries: u64,
    /// Retries sent after a blind pause because the hint was 0.
    pub blind_retries: u64,
    /// Clients that could not connect at all.
    pub connect_failures: u64,
    /// Median submit→done latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, milliseconds.
    pub p999_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
    /// Mean `retry_after_ms` across rejections (0 when none).
    pub mean_retry_after_ms: f64,
    /// `done` records by degradation level 0..=3 — the ladder's occupancy
    /// under this load.
    pub degraded: [u64; 4],
}

/// What one run produced: the serialisable report plus the raw acked set
/// (kept out of the JSON; the soak consumes it directly).
#[derive(Debug, Clone, Default)]
pub struct LoadgenOutcome {
    /// The aggregated report.
    pub report: LoadgenReport,
    /// Every `done` the clients observed.
    pub acked: Vec<AckedCell>,
}

/// Per-client tallies merged into the final report.
#[derive(Default)]
struct ClientOutcome {
    requests: u64,
    accepted: u64,
    rejected: u64,
    retry_after_sum: u64,
    unanswered: u64,
    hinted_retries: u64,
    blind_retries: u64,
    connect_failed: bool,
    latencies_micros: Vec<u64>,
    acked: Vec<AckedCell>,
    degraded: [u64; 4],
    shed: u64,
    ok: u64,
    failed: u64,
}

/// One submission awaiting its terminal reply.
struct Pending {
    sent: Instant,
    body: SubmitBody,
    retries_left: u32,
}

/// One rejected submission waiting out its retry delay.
struct RetryItem {
    due: Instant,
    body: SubmitBody,
    retries_left: u32,
    hinted: bool,
}

/// Shared between one client's writer (pacing) side and reader thread.
#[derive(Default)]
struct ClientState {
    /// id -> in-flight submission, removed on a terminal reply.
    pending: HashMap<u64, Pending>,
    /// Rejected submissions scheduled for resend; the writer flushes the
    /// due ones between paced sends and during the drain wait.
    retries: Vec<RetryItem>,
}

fn percentile_ms(sorted_micros: &[u64], fraction: f64) -> f64 {
    if sorted_micros.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_micros.len() as f64) * fraction).ceil() as usize;
    let index = rank.clamp(1, sorted_micros.len()) - 1;
    sorted_micros[index] as f64 / 1e3
}

/// Writes one submission line; false when the stream is gone.
fn send_submit(writer: &mut TcpStream, body: &SubmitBody) -> bool {
    send_line(writer, &Request::Submit(body.clone())).is_ok()
}

/// Re-sends every retry whose delay has elapsed. Returns false when the
/// stream died mid-send (the writer stops sending then).
fn flush_due_retries(
    writer: &mut TcpStream,
    state: &Arc<Mutex<ClientState>>,
    outcome: &mut ClientOutcome,
) -> bool {
    loop {
        let now = Instant::now();
        let item = {
            let mut state = lock_clean(state);
            let due = state.retries.iter().position(|r| r.due <= now);
            due.map(|index| state.retries.swap_remove(index))
        };
        let Some(item) = item else {
            return true;
        };
        let id = item.body.id;
        lock_clean(state).pending.insert(
            id,
            Pending {
                sent: Instant::now(),
                body: item.body.clone(),
                retries_left: item.retries_left,
            },
        );
        if send_submit(writer, &item.body) {
            outcome.requests += 1;
            if item.hinted {
                outcome.hinted_retries += 1;
            } else {
                outcome.blind_retries += 1;
            }
        } else {
            lock_clean(state).pending.remove(&id);
            return false;
        }
    }
}

/// One client's full run: connect, pace `requests_per_client` submissions,
/// collect replies until everything is answered or the drain timeout
/// passes. `epoch` is the whole run's start instant, shared across clients
/// so ack timestamps are comparable.
fn run_client(config: &LoadgenConfig, client_index: usize, epoch: Instant) -> ClientOutcome {
    let mut outcome = ClientOutcome::default();
    let addr = &config.addrs[client_index % config.addrs.len()];
    // The server may still be mid-bind when the first client starts; a
    // short retry loop absorbs that without hiding a dead server.
    let mut stream = None;
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
    let Some(stream) = stream else {
        outcome.connect_failed = true;
        return outcome;
    };
    let Ok(read_half) = stream.try_clone() else {
        outcome.connect_failed = true;
        return outcome;
    };

    let state = Arc::new(Mutex::new(ClientState::default()));
    let results = Arc::new(Mutex::new(ClientOutcome::default()));
    let reader_state = Arc::clone(&state);
    let reader_results = Arc::clone(&results);
    let reader = thread::spawn(move || {
        use std::io::BufRead;
        let mut reader = BufReader::new(read_half);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            let Some(reply) = parse_reply(&line) else {
                continue;
            };
            let mut results = lock_clean(&reader_results);
            match reply {
                Reply::Accepted(_) => results.accepted += 1,
                Reply::Rejected(body) => {
                    results.rejected += 1;
                    results.retry_after_sum += body.retry_after_ms;
                    let mut state = lock_clean(&reader_state);
                    if let Some(pending) = state.pending.remove(&body.id) {
                        if pending.retries_left > 0 {
                            // Honour the server's hint; a zero hint means
                            // "don't retry as-is", so back off blindly and
                            // briefly instead of hammering.
                            let hinted = body.retry_after_ms > 0;
                            let delay = if hinted { body.retry_after_ms } else { 10 };
                            state.retries.push(RetryItem {
                                due: Instant::now() + Duration::from_millis(delay),
                                body: pending.body,
                                retries_left: pending.retries_left - 1,
                                hinted,
                            });
                        }
                    }
                }
                Reply::Done(body) => {
                    let sent = lock_clean(&reader_state).pending.remove(&body.id);
                    if let Some(pending) = sent {
                        results
                            .latencies_micros
                            .push(pending.sent.elapsed().as_micros() as u64);
                    }
                    let level = body.record.degraded.unwrap_or(0).min(3) as usize;
                    results.degraded[level] += 1;
                    match body.record.status {
                        CellStatus::Ok => results.ok += 1,
                        CellStatus::Shed => results.shed += 1,
                        _ => results.failed += 1,
                    }
                    results.acked.push(AckedCell {
                        id: body.id,
                        app: body.record.app,
                        scheme: body.record.scheme,
                        status: body.record.status,
                        acked_at_ms: epoch.elapsed().as_millis() as u64,
                        degraded: body.record.degraded.unwrap_or(0),
                        metrics: body.record.metrics,
                    });
                }
                _ => {}
            }
        }
    });

    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(client_index as u64));
    let mut writer = stream;
    let start = Instant::now();
    for k in 0..config.requests_per_client {
        if config.rate > 0.0 {
            let target = start + Duration::from_secs_f64(k as f64 / config.rate);
            let now = Instant::now();
            if now < target {
                thread::sleep(target - now);
            }
        }
        if !flush_due_retries(&mut writer, &state, &mut outcome) {
            break;
        }
        let (app, scheme) = if config.pairs.is_empty() {
            (
                config.apps[rng.gen_range(0..config.apps.len())].clone(),
                config.schemes[rng.gen_range(0..config.schemes.len())].clone(),
            )
        } else {
            config.pairs[rng.gen_range(0..config.pairs.len())].clone()
        };
        let id = (client_index as u64) * 1_000_000 + k as u64;
        let body = SubmitBody {
            id,
            app,
            scheme,
            deadline_ms: config.deadline_ms,
        };
        // Register before writing: the reply can beat the map update
        // otherwise.
        lock_clean(&state).pending.insert(
            id,
            Pending {
                sent: Instant::now(),
                body: body.clone(),
                retries_left: config.retries,
            },
        );
        if !send_submit(&mut writer, &body) {
            // Server gone (soak SIGKILL): stop sending; whatever is
            // pending becomes unanswered.
            lock_clean(&state).pending.remove(&id);
            break;
        }
        outcome.requests += 1;
    }

    // Wait out the in-flight tail (flushing retries as their delays
    // elapse), then cut the stream to free the reader.
    let deadline = Instant::now() + config.drain_timeout;
    loop {
        if !flush_due_retries(&mut writer, &state, &mut outcome) {
            break;
        }
        let outstanding = {
            let state = lock_clean(&state);
            state.pending.len() + state.retries.len()
        };
        if outstanding == 0 || Instant::now() >= deadline || reader.is_finished() {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    let _ = writer.shutdown(Shutdown::Both);
    let _ = reader.join();

    let mut results = lock_clean(&results);
    outcome.accepted = results.accepted;
    outcome.rejected = results.rejected;
    outcome.retry_after_sum = results.retry_after_sum;
    outcome.latencies_micros = std::mem::take(&mut results.latencies_micros);
    outcome.acked = std::mem::take(&mut results.acked);
    outcome.degraded = results.degraded;
    outcome.shed = results.shed;
    outcome.ok = results.ok;
    outcome.failed = results.failed;
    outcome.unanswered = lock_clean(&state).pending.len() as u64;
    outcome
}

/// Runs the full mix: `clients` threads, each its own connection, pacing
/// and collecting independently; merges the tallies.
///
/// # Errors
///
/// Returns [`BenchError::Io`] only when the configuration is unusable
/// (no apps/schemes in the mix); connection failures are counted in the
/// report instead, because the soak *expects* them mid-kill.
pub fn run_loadgen(config: &LoadgenConfig) -> Result<LoadgenOutcome, BenchError> {
    if config.pairs.is_empty() && (config.apps.is_empty() || config.schemes.is_empty()) {
        return Err(BenchError::Io(
            "loadgen needs at least one app and one scheme in the mix".to_string(),
        ));
    }
    if config.addrs.is_empty() {
        return Err(BenchError::Io(
            "loadgen needs at least one server address".to_string(),
        ));
    }
    let epoch = Instant::now();
    let outcomes: Vec<ClientOutcome> = thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|i| scope.spawn(move || run_client(config, i, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let mut report = LoadgenReport {
        clients: config.clients.max(1),
        ..LoadgenReport::default()
    };
    let mut all_latencies = Vec::new();
    let mut acked = Vec::new();
    for mut outcome in outcomes {
        report.requests += outcome.requests;
        report.accepted += outcome.accepted;
        report.rejected += outcome.rejected;
        report.ok += outcome.ok;
        report.shed += outcome.shed;
        report.failed += outcome.failed;
        report.unanswered += outcome.unanswered;
        report.hinted_retries += outcome.hinted_retries;
        report.blind_retries += outcome.blind_retries;
        report.connect_failures += u64::from(outcome.connect_failed);
        report.mean_retry_after_ms += outcome.retry_after_sum as f64;
        for (level, count) in outcome.degraded.iter().enumerate() {
            report.degraded[level] += count;
        }
        all_latencies.append(&mut outcome.latencies_micros);
        acked.append(&mut outcome.acked);
    }
    report.done = acked.len() as u64;
    report.mean_retry_after_ms = if report.rejected > 0 {
        report.mean_retry_after_ms / report.rejected as f64
    } else {
        0.0
    };
    all_latencies.sort_unstable();
    report.p50_ms = percentile_ms(&all_latencies, 0.50);
    report.p99_ms = percentile_ms(&all_latencies, 0.99);
    report.p999_ms = percentile_ms(&all_latencies, 0.999);
    report.max_ms = all_latencies.last().copied().unwrap_or(0) as f64 / 1e3;
    Ok(LoadgenOutcome { report, acked })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let micros: Vec<u64> = (1..=1000).map(|n| n * 1000).collect();
        assert_eq!(percentile_ms(&micros, 0.50), 500.0);
        assert_eq!(percentile_ms(&micros, 0.99), 990.0);
        assert_eq!(percentile_ms(&micros, 0.999), 999.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(percentile_ms(&[7_000], 0.999), 7.0);
    }

    #[test]
    fn loadgen_against_nothing_counts_connect_failures() {
        // Port 1 is essentially never listening; every client must fail
        // to connect and the report must say so rather than error out.
        let mut config = LoadgenConfig::new("127.0.0.1:1");
        config.clients = 2;
        config.requests_per_client = 1;
        config.drain_timeout = Duration::from_millis(50);
        let outcome = run_loadgen(&config).expect("report, not error");
        assert_eq!(outcome.report.connect_failures, 2);
        assert_eq!(outcome.report.done, 0);
    }

    #[test]
    fn mix_is_deterministic_per_seed() {
        let config = LoadgenConfig::new("127.0.0.1:1");
        let mut a = StdRng::seed_from_u64(config.seed.wrapping_add(3));
        let mut b = StdRng::seed_from_u64(config.seed.wrapping_add(3));
        for _ in 0..32 {
            assert_eq!(
                a.gen_range(0..config.apps.len()),
                b.gen_range(0..config.apps.len())
            );
        }
    }
}

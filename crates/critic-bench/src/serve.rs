//! The wire tier: the line-delimited-JSON protocol behind `critic serve`
//! and `critic router`, the TCP front end over [`CampaignService`], and
//! the client and child-process plumbing the router and the drills share.
//!
//! One request or reply per line, each a JSON object whose top-level key
//! names its kind:
//!
//! ```text
//! {"submit":{"id":7,"app":"Acrobat","scheme":"critic","deadline_ms":2000}}
//! {"router_stats":true}
//! {"stats":true}
//! {"ping":true}
//! {"heartbeat":true}
//! {"fetch_artifact":{"class":"profile","key":1234}}
//! {"list_artifacts":true}
//! {"shutdown":true}
//! ```
//!
//! Replies:
//!
//! ```text
//! {"done":{"id":7,"record":{...CellRecord...}}}
//! {"accepted":{"id":7}}
//! {"rejected":{"id":7,"reason":"rate limited","retry_after_ms":31}}
//! {"stats_reply":{...}}
//! {"pong":true}
//! {"draining":true}
//! {"heartbeat_reply":{"shard":2,"draining":false}}
//! {"artifact":{"class":"profile","key":1234,"found":true,"payload":"...","crc32":987}}
//! {"artifact_index":[{"class":"profile","key":1234},...]}
//! {"error":"..."}
//! {"router_stats_reply":{...}}
//! ```
//!
//! [`Request::parse`] and [`parse_reply`] classify a line with one parse:
//! a line carrying several known keys is the kind whose key comes first
//! in the lists above. A shard serves every request but `router_stats`;
//! the router (see [`crate::router`]) serves `submit`, `router_stats`,
//! `stats` (with the router's reply), `ping` and `shutdown`. Any other line
//! is answered with `error`.
//!
//! `heartbeat` is the router's liveness probe (answered even while
//! draining, unlike new submissions), and `fetch_artifact`/`list_artifacts`
//! are the peer-rebuild path — a restarted shard diffs a live peer's
//! artifact index against its own disk and pulls what it is missing,
//! CRC-checked on receipt, instead of re-simulating.
//!
//! Ordering: `accepted` is written after the submission is admitted, but
//! the terminal `done` is written by a worker thread and may overtake it
//! on a fast cell. Clients must correlate by `id`, not by line order.
//!
//! The `done` line is written only *after* the record's journal append has
//! been fsynced ([`CampaignService`]'s ack-follows-fsync invariant), so
//! every `done` a client observed survives a `SIGKILL` of the server.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::lock_clean;
use crate::router::RouterStats;
use critic_core::campaign::CellRecord;
use critic_core::disk::ArtifactClass;
use critic_core::keys::crc32;
use critic_core::service::{CampaignService, SubmitOutcome};
use critic_core::store::ArtifactStore;
use serde::{Deserialize, Serialize};

/// Set by the binary's `SIGTERM` handler; the accept loop polls it and
/// begins a graceful drain when it goes true.
pub static TERM: AtomicBool = AtomicBool::new(false);

/// How long a client exchange ([`Wire::request_reply`]) waits on any one
/// read before it gives up with an error.
pub const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(10);

/// `{"submit":{...}}` — submit one campaign cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// The submission body.
    pub submit: SubmitBody,
}

/// The body of a `submit` request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitBody {
    /// Client-chosen correlation id, echoed on every reply to this
    /// submission.
    pub id: u64,
    /// App name (case-insensitive).
    pub app: String,
    /// Scheme name (`critic`, `opp16`, `hoist`, ...).
    pub scheme: String,
    /// Optional per-request deadline; the server clamps it against its own.
    pub deadline_ms: Option<u64>,
}

/// One (class, key) reference into a shard's persistent store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactRef {
    /// Artifact class name (`profile` or `baseline`).
    pub class: String,
    /// The stable artifact key.
    pub key: u64,
}

/// An id-only reply body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IdBody {
    /// The echoed correlation id.
    pub id: u64,
}

/// The body of a `rejected` reply: admission control refused the
/// submission; nothing was queued and no `done` will follow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RejectedBody {
    /// The echoed correlation id.
    pub id: u64,
    /// Why admission control refused (`rate limited`, `queue full`, ...).
    pub reason: String,
    /// Earliest sensible retry, milliseconds (0 = don't retry as-is).
    pub retry_after_ms: u64,
}

/// The body of a `done` reply: the terminal result of an accepted
/// submission, written after its journal fsync.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DoneBody {
    /// The echoed correlation id.
    pub id: u64,
    /// The terminal cell record (may be a `Shed` record from an open
    /// breaker).
    pub record: CellRecord,
}

/// Server-side counters, the body of a `stats_reply`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Cells queued but not yet claimed by a worker.
    pub queue_depth: u64,
    /// Cells currently executing.
    pub in_flight: u64,
    /// Requests accepted (admitted or synchronously shed) so far.
    pub accepted: u64,
    /// Terminal responses delivered so far.
    pub responded: u64,
    /// Whether a drain has begun.
    pub draining: bool,
    /// Persistent-store disk hits so far (0 without a `--store-dir`).
    pub disk_hits: u64,
    /// Which shard this server is, when it runs under a router.
    pub shard: Option<u64>,
    /// Artifacts pulled from peers during rebuild (the soak's disk-warm
    /// gate: a restarted shard must show this > 0).
    pub fetched_artifacts: u64,
    /// Profiles materialized so far — disk-warm loads included, since the
    /// in-memory memo counts its closure runs.
    pub profiles_built: u64,
    /// Baselines materialized so far, same accounting.
    pub baselines_built: u64,
    /// Persistent-store entries written. A from-scratch build always
    /// saves and a disk-warm load never does, so the soak's
    /// zero-re-simulation gate watches the delta of this counter.
    pub disk_saves: u64,
}

/// The body of a `heartbeat_reply`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeartbeatBody {
    /// The shard id the server was started with, if any.
    pub shard: Option<u64>,
    /// Whether a drain has begun (a draining shard is alive but should
    /// get no new work).
    pub draining: bool,
}

/// The body of an `artifact` reply. `payload` is the artifact's JSON
/// text carried as a JSON string; `crc32` is over the payload bytes so the
/// receiver verifies integrity *before* trusting its own disk write (the
/// store's on-disk CRC then re-protects it at rest).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArtifactBody {
    /// Artifact class name (`profile` or `baseline`).
    pub class: String,
    /// The stable artifact key.
    pub key: u64,
    /// Whether the serving shard had the artifact.
    pub found: bool,
    /// The artifact's JSON text, when found.
    pub payload: Option<String>,
    /// CRC-32 of the payload bytes (0 when not found).
    pub crc32: u32,
}

/// One request line, classified.
#[derive(Debug, Clone)]
pub enum Request {
    /// `{"submit":{...}}` — submit one campaign cell.
    Submit(SubmitBody),
    /// `{"router_stats":true}` — the router's shard status and routing
    /// counters.
    RouterStats,
    /// `{"stats":true}` — the server-side counters.
    Stats,
    /// `{"ping":true}` — liveness probe.
    Ping,
    /// `{"heartbeat":true}` — the router's liveness probe; unlike `ping`,
    /// the reply carries the shard's identity, so a supervisor can detect
    /// a port reused by a stranger.
    Heartbeat,
    /// `{"fetch_artifact":{...}}` — one persistent artifact from a peer.
    FetchArtifact(ArtifactRef),
    /// `{"list_artifacts":true}` — a peer's full artifact index.
    ListArtifacts,
    /// `{"shutdown":true}` — begin a graceful drain (same path as
    /// `SIGTERM`).
    Shutdown,
}

/// Every request key as an optional field, so one parse reads whichever
/// keys a line carries.
#[derive(Deserialize)]
struct RequestKeys {
    submit: Option<SubmitBody>,
    router_stats: Option<bool>,
    stats: Option<bool>,
    ping: Option<bool>,
    heartbeat: Option<bool>,
    fetch_artifact: Option<ArtifactRef>,
    list_artifacts: Option<bool>,
    shutdown: Option<bool>,
}

impl Request {
    /// Classifies one request line; `None` when it is no known request.
    pub fn parse(line: &str) -> Option<Request> {
        let keys: RequestKeys = serde_json::from_str(line.trim()).ok()?;
        let flag = |key: Option<bool>, request: Request| key.map(|_| request);
        keys.submit
            .map(Request::Submit)
            .or(flag(keys.router_stats, Request::RouterStats))
            .or(flag(keys.stats, Request::Stats))
            .or(flag(keys.ping, Request::Ping))
            .or(flag(keys.heartbeat, Request::Heartbeat))
            .or(keys.fetch_artifact.map(Request::FetchArtifact))
            .or(flag(keys.list_artifacts, Request::ListArtifacts))
            .or(flag(keys.shutdown, Request::Shutdown))
    }

    /// The request as one newline-terminated line.
    ///
    /// # Errors
    ///
    /// Propagates a serialisation failure as `InvalidData`.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        match self {
            Request::Submit(body) => keyed_line("submit", body),
            Request::RouterStats => keyed_line("router_stats", &true),
            Request::Stats => keyed_line("stats", &true),
            Request::Ping => keyed_line("ping", &true),
            Request::Heartbeat => keyed_line("heartbeat", &true),
            Request::FetchArtifact(want) => keyed_line("fetch_artifact", want),
            Request::ListArtifacts => keyed_line("list_artifacts", &true),
            Request::Shutdown => keyed_line("shutdown", &true),
        }
    }
}

/// One reply line, classified.
#[derive(Debug, Clone)]
pub enum Reply {
    /// `{"accepted":{...}}` — the submission passed admission control.
    Accepted(IdBody),
    /// `{"rejected":{...}}`.
    Rejected(RejectedBody),
    /// `{"done":{...}}`.
    Done(Box<DoneBody>),
    /// `{"stats_reply":{...}}`.
    Stats(ServeStats),
    /// `{"pong":true}`.
    Pong,
    /// `{"draining":true}` — the answer to `shutdown`.
    Draining,
    /// `{"heartbeat_reply":{...}}`.
    Heartbeat(HeartbeatBody),
    /// `{"artifact":{...}}`.
    Artifact(Box<ArtifactBody>),
    /// `{"artifact_index":[...]}` — every (class, key) on the serving
    /// shard's disk, in deterministic order.
    ArtifactIndex(Vec<ArtifactRef>),
    /// `{"error":"..."}` — the request line was no request this tier
    /// serves.
    Error(String),
    /// `{"router_stats_reply":{...}}`.
    RouterStats(RouterStats),
}

/// Every reply key as an optional field (see [`RequestKeys`]).
#[derive(Deserialize)]
struct ReplyKeys {
    done: Option<DoneBody>,
    accepted: Option<IdBody>,
    rejected: Option<RejectedBody>,
    stats_reply: Option<ServeStats>,
    pong: Option<bool>,
    draining: Option<bool>,
    heartbeat_reply: Option<HeartbeatBody>,
    artifact: Option<ArtifactBody>,
    artifact_index: Option<Vec<ArtifactRef>>,
    error: Option<String>,
    router_stats_reply: Option<RouterStats>,
}

impl Reply {
    /// The reply as one newline-terminated line.
    ///
    /// # Errors
    ///
    /// Propagates a serialisation failure as `InvalidData`.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        match self {
            Reply::Accepted(body) => keyed_line("accepted", body),
            Reply::Rejected(body) => keyed_line("rejected", body),
            Reply::Done(body) => keyed_line("done", &**body),
            Reply::Stats(stats) => keyed_line("stats_reply", stats),
            Reply::Pong => keyed_line("pong", &true),
            Reply::Draining => keyed_line("draining", &true),
            Reply::Heartbeat(body) => keyed_line("heartbeat_reply", body),
            Reply::Artifact(body) => keyed_line("artifact", &**body),
            Reply::ArtifactIndex(index) => keyed_line("artifact_index", index),
            Reply::Error(message) => keyed_line("error", message),
            Reply::RouterStats(stats) => keyed_line("router_stats_reply", stats),
        }
    }

    /// The correlation id of a reply to a submission.
    pub(crate) fn id_mut(&mut self) -> Option<&mut u64> {
        match self {
            Reply::Accepted(IdBody { id }) | Reply::Rejected(RejectedBody { id, .. }) => Some(id),
            Reply::Done(body) => Some(&mut body.id),
            _ => None,
        }
    }
}

/// Classifies one reply line; `None` when it is no known reply.
pub fn parse_reply(line: &str) -> Option<Reply> {
    let keys: ReplyKeys = serde_json::from_str(line.trim()).ok()?;
    let flag = |key: Option<bool>, reply: Reply| key.map(|_| reply);
    keys.done
        .map(|body| Reply::Done(Box::new(body)))
        .or(keys.accepted.map(Reply::Accepted))
        .or(keys.rejected.map(Reply::Rejected))
        .or(keys.stats_reply.map(Reply::Stats))
        .or(flag(keys.pong, Reply::Pong))
        .or(flag(keys.draining, Reply::Draining))
        .or(keys.heartbeat_reply.map(Reply::Heartbeat))
        .or(keys.artifact.map(|body| Reply::Artifact(Box::new(body))))
        .or(keys.artifact_index.map(Reply::ArtifactIndex))
        .or(keys.error.map(Reply::Error))
        .or(keys.router_stats_reply.map(Reply::RouterStats))
}

/// The `error` reply to a line this tier does not serve.
pub(crate) fn unparseable(text: &str) -> Reply {
    Reply::Error(format!("unparseable request: {text}"))
}

fn invalid_data(e: serde_json::Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// One wire line: `value`'s JSON and its terminating newline in one
/// buffer. A line written as two writes (the JSON, then `\n`) leaves the
/// newline behind Nagle's algorithm until the peer's delayed ACK arrives,
/// which stalls every request-reply exchange by tens of milliseconds.
///
/// # Errors
///
/// Propagates a serialisation failure as `InvalidData`.
pub fn encode_line<T: Serialize>(value: &T) -> io::Result<Vec<u8>> {
    let mut line = serde_json::to_string(value)
        .map_err(invalid_data)?
        .into_bytes();
    line.push(b'\n');
    Ok(line)
}

/// `{"<key>":<body>}` as one line: the shape of every request and reply.
fn keyed_line<T: Serialize>(key: &str, body: &T) -> io::Result<Vec<u8>> {
    let body = serde_json::to_string(body).map_err(invalid_data)?;
    Ok(format!("{{\"{key}\":{body}}}\n").into_bytes())
}

/// Writes `request` as one line with a single `write_all`, then flushes.
///
/// # Errors
///
/// Propagates serialisation and write errors.
pub fn send_line<W: Write>(writer: &mut W, request: &Request) -> io::Result<()> {
    writer.write_all(&request.encode()?)?;
    writer.flush()
}

/// A connection's write half, shared by every thread that answers on it.
pub(crate) type LineWriter = Arc<Mutex<TcpStream>>;

/// Writes one encoded line under the stream lock; false when encoding or
/// the write failed. Servers ignore the result: a client that hung up
/// mid-reply is that client's problem, never the server's.
pub(crate) fn write_line(stream: &LineWriter, line: io::Result<Vec<u8>>) -> bool {
    let Ok(line) = line else {
        return false;
    };
    let mut guard = lock_clean(stream);
    guard.write_all(&line).is_ok() && guard.flush().is_ok()
}

/// The connections one accept loop took, cut and joined by
/// [`Connections::close`] once their server has drained.
#[derive(Default)]
pub(crate) struct Connections {
    accepted: u64,
    /// Each open connection's stream, kept to cut it, and its line loop.
    open: Vec<(TcpStream, thread::JoinHandle<()>)>,
}

impl Connections {
    /// Cuts every open connection, so each line loop sees EOF, and joins
    /// the loops. Returns how many connections were accepted in all.
    pub(crate) fn close(self) -> u64 {
        for (stream, _) in &self.open {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, thread) in self.open {
            let _ = thread.join();
        }
        self.accepted
    }
}

/// The accept loop `critic serve` and `critic router` share: until
/// `stop()` holds, each accepted connection gets a thread that hands
/// `handle` every non-empty line (trimmed) with the connection's number,
/// counting from 1, and its shared write half.
pub(crate) fn accept_lines<H>(
    listener: &TcpListener,
    stop: impl Fn() -> bool,
    handle: H,
) -> Connections
where
    H: Fn(u64, &str, &LineWriter) + Clone + Send + 'static,
{
    let _ = listener.set_nonblocking(true);
    let mut connections = Connections::default();
    while !stop() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // A finished line loop's peer has hung up: drop its stream
                // (replies still owed go out through the write half), so
                // a long-lived server holds one descriptor per open
                // connection, not per connection ever accepted.
                connections.open.retain(|(_, thread)| !thread.is_finished());
                let (Ok(raw), Ok(write_half)) = (stream.try_clone(), stream.try_clone()) else {
                    continue;
                };
                connections.accepted += 1;
                let client = connections.accepted;
                let handle = handle.clone();
                let thread = thread::spawn(move || {
                    let writer = Arc::new(Mutex::new(write_half));
                    let mut reader = BufReader::new(stream);
                    let mut line = String::new();
                    while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                        let text = line.trim();
                        if !text.is_empty() {
                            handle(client, text, &writer);
                        }
                        line.clear();
                    }
                });
                connections.open.push((raw, thread));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    connections
}

/// What one serve session handled, returned by [`serve_on`] after the
/// drain completes.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServeSummary {
    /// Connections accepted over the session.
    pub connections: u64,
    /// Requests accepted (admitted or synchronously shed).
    pub accepted: u64,
    /// Terminal responses delivered.
    pub responded: u64,
}

/// What distinguishes one shard's serve loop from a standalone server:
/// its identity and the peer-rebuild counter. [`Default`] is the
/// standalone case (no shard id, nothing fetched), which is what every
/// pre-existing call site wants.
#[derive(Debug, Clone, Default)]
pub struct ShardContext {
    /// The shard id, when running under a router.
    pub shard: Option<u64>,
    /// Artifacts pulled from peers during rebuild; shared with the
    /// connection threads so `stats` can report it live.
    pub fetched_artifacts: Arc<AtomicU64>,
}

/// Snapshot of the service counters for a `stats_reply`.
fn serve_stats(service: &CampaignService, ctx: &ShardContext) -> ServeStats {
    let store = service.store_stats();
    ServeStats {
        queue_depth: service.queue_depth() as u64,
        in_flight: service.in_flight() as u64,
        accepted: service.accepted(),
        responded: service.responded(),
        draining: service.is_draining(),
        disk_hits: store.disk.map(|d| d.disk_hits).unwrap_or(0),
        shard: ctx.shard,
        fetched_artifacts: ctx.fetched_artifacts.load(Ordering::Relaxed),
        profiles_built: store.profiles_built,
        baselines_built: store.baselines_built,
        disk_saves: store.disk.map(|d| d.saves).unwrap_or(0),
    }
}

/// Answers one `fetch_artifact` from the service's persistent store.
/// Absent disk tier, unknown class, and missing key all answer
/// `found:false` — a rebuilding peer treats them identically.
fn fetch_artifact_body(service: &CampaignService, want: &ArtifactRef) -> ArtifactBody {
    let loaded = ArtifactClass::parse(&want.class)
        .zip(service.store().disk())
        // Not found and quarantined-corrupt both answer `found:false`.
        .and_then(|(class, disk)| disk.load(class, want.key).ok().flatten())
        .and_then(|bytes| Some((crc32(&bytes), String::from_utf8(bytes).ok()?)));
    ArtifactBody {
        class: want.class.clone(),
        key: want.key,
        found: loaded.is_some(),
        crc32: loaded.as_ref().map_or(0, |(checksum, _)| *checksum),
        payload: loaded.map(|(_, payload)| payload),
    }
}

/// Every (class, key) on the service's disk; empty without a disk tier.
fn artifact_index(service: &CampaignService) -> Vec<ArtifactRef> {
    let Some(disk) = service.store().disk() else {
        return Vec::new();
    };
    disk.entries()
        .into_iter()
        .map(|(class, key)| ArtifactRef {
            class: class.name().to_string(),
            key,
        })
        .collect()
}

/// Answers one request line from connection `client`.
fn answer(
    service: &CampaignService,
    ctx: &ShardContext,
    shutdown: &AtomicBool,
    client: u64,
    text: &str,
    writer: &LineWriter,
) {
    let reply = match Request::parse(text) {
        Some(Request::Submit(submit)) => {
            let id = submit.id;
            let done_writer = Arc::clone(writer);
            let outcome = service.submit(
                client,
                &submit.app,
                &submit.scheme,
                submit.deadline_ms,
                move |record| {
                    let done = Reply::Done(Box::new(DoneBody { id, record }));
                    write_line(&done_writer, done.encode());
                },
            );
            match outcome {
                SubmitOutcome::Accepted => Reply::Accepted(IdBody { id }),
                SubmitOutcome::Rejected {
                    reason,
                    retry_after_ms,
                } => Reply::Rejected(RejectedBody {
                    id,
                    reason,
                    retry_after_ms,
                }),
            }
        }
        Some(Request::Stats) => Reply::Stats(serve_stats(service, ctx)),
        Some(Request::Ping) => Reply::Pong,
        Some(Request::Heartbeat) => Reply::Heartbeat(HeartbeatBody {
            shard: ctx.shard,
            draining: service.is_draining(),
        }),
        Some(Request::FetchArtifact(want)) => {
            Reply::Artifact(Box::new(fetch_artifact_body(service, &want)))
        }
        Some(Request::ListArtifacts) => Reply::ArtifactIndex(artifact_index(service)),
        Some(Request::Shutdown) => {
            shutdown.store(true, Ordering::SeqCst);
            Reply::Draining
        }
        Some(Request::RouterStats) | None => unparseable(text),
    };
    write_line(writer, reply.encode());
}

/// Runs the accept loop over an already-bound listener until `shutdown`,
/// [`static@TERM`], or an injected kill ([`CampaignService::is_draining`])
/// asks for a drain; then drains the service (finishing every in-flight
/// cell, checkpointing the journal) and cuts the client connections.
///
/// Split out from [`run_serve`] so tests and the in-process service bench
/// can run a server on an ephemeral port without spawning a process.
pub fn serve_on(
    listener: TcpListener,
    service: &CampaignService,
    shutdown: &Arc<AtomicBool>,
    ctx: &ShardContext,
) -> ServeSummary {
    let stop =
        || TERM.load(Ordering::SeqCst) || shutdown.load(Ordering::SeqCst) || service.is_draining();
    let handle = {
        let (service, ctx, shutdown) = (service.clone(), ctx.clone(), Arc::clone(shutdown));
        move |client: u64, text: &str, writer: &LineWriter| {
            answer(&service, &ctx, &shutdown, client, text, writer);
        }
    };
    let connections = accept_lines(&listener, stop, handle);
    // Finish every queued and in-flight cell (their `done` lines are
    // written by the drain), then cut the streams so client read loops
    // observe EOF instead of hanging.
    service.drain();
    ServeSummary {
        connections: connections.close(),
        accepted: service.accepted(),
        responded: service.responded(),
    }
}

/// Prints `listening on ADDR` on stdout: the line a supervising parent
/// ([`launch`]) reads to learn that the server is up and where.
pub(crate) fn print_banner(listener: &TcpListener) -> io::Result<()> {
    println!("listening on {}", listener.local_addr()?);
    io::stdout().flush()
}

/// Binds `127.0.0.1:port` (0 = ephemeral), prints its banner, and serves
/// until shutdown.
///
/// # Errors
///
/// Returns the bind error verbatim; everything after the bind is
/// best-effort and surfaces through the summary instead.
pub fn run_serve(
    port: u16,
    service: &CampaignService,
    ctx: &ShardContext,
) -> io::Result<ServeSummary> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    print_banner(&listener)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let summary = serve_on(listener, service, &shutdown, ctx);
    eprintln!(
        "critic serve: drained after {} connection(s), {} accepted, {} responded",
        summary.connections, summary.accepted, summary.responded
    );
    Ok(summary)
}

/// What one peer-rebuild pass did, per peer and in total.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RebuildReport {
    /// Peers successfully consulted (index listed).
    pub peers_consulted: u64,
    /// Artifacts pulled and saved locally.
    pub fetched: u64,
    /// Artifacts offered by a peer but rejected on receipt (CRC mismatch
    /// or malformed reply) — never written to disk.
    pub rejected: u64,
}

/// Pulls every artifact present on `peers` but missing from this shard's
/// own disk, so a restarted shard rejoins disk-warm instead of
/// re-simulating. Run *before* binding the listener: the router marks a
/// shard up only once it prints its banner, by which point rebuild is done.
///
/// Per-peer failures (connect refused, peer died mid-transfer) are
/// skipped, not fatal — rebuild is an optimisation, and the shard serves
/// correctly from an empty disk too. Every received payload is CRC-checked
/// against the wire checksum before [`critic_core::DiskStore::save`]
/// re-frames it with the at-rest CRC; a mismatch drops the artifact.
pub fn rebuild_from_peers(
    store: &ArtifactStore,
    peers: &[String],
    fetched_counter: &AtomicU64,
) -> RebuildReport {
    let mut report = RebuildReport::default();
    let Some(disk) = store.disk() else {
        return report;
    };
    for peer in peers {
        let Some(mut wire) = Wire::connect(peer) else {
            continue;
        };
        let index = match wire.request_reply(&Request::ListArtifacts) {
            Ok(Reply::ArtifactIndex(index)) => index,
            _ => continue,
        };
        report.peers_consulted += 1;
        for wanted in index {
            let Some(class) = ArtifactClass::parse(&wanted.class) else {
                continue;
            };
            if disk.contains(class, wanted.key) {
                continue;
            }
            let body = match wire.request_reply(&Request::FetchArtifact(wanted.clone())) {
                Ok(Reply::Artifact(body)) => body,
                // Peer hung up mid-transfer: move on to the next peer.
                _ => break,
            };
            if !body.found {
                continue;
            }
            let Some(payload) = body.payload else {
                report.rejected += 1;
                continue;
            };
            if crc32(payload.as_bytes()) != body.crc32 {
                report.rejected += 1;
                continue;
            }
            if disk.save(class, wanted.key, payload.as_bytes()).is_ok() {
                report.fetched += 1;
                fetched_counter.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    report
}

/// A client connection for request-reply exchanges, shared by the
/// router's client helpers, peer rebuild and the drills. Every read on it
/// waits at most [`EXCHANGE_TIMEOUT`], so a server that accepted the
/// connection but never answers (one that is draining, say) cannot hang
/// the caller.
pub struct Wire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> Option<Wire> {
        let stream = TcpStream::connect(addr).ok()?;
        stream.set_read_timeout(Some(EXCHANGE_TIMEOUT)).ok()?;
        let reader = BufReader::new(stream.try_clone().ok()?);
        Some(Wire { stream, reader })
    }

    /// Writes `request` and reads reply lines until one answers it: the
    /// first that is not the `done` of some earlier submission.
    ///
    /// # Errors
    ///
    /// Propagates stream I/O errors, a read timeout included; EOF before
    /// an answer is `UnexpectedEof`.
    pub fn request_reply(&mut self, request: &Request) -> io::Result<Reply> {
        send_line(&mut self.stream, request)?;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server hung up before replying",
                ));
            }
            match parse_reply(&line) {
                Some(Reply::Done(_)) | None => {}
                Some(reply) => return Ok(reply),
            }
        }
    }

    /// One `{"stats":true}` exchange.
    pub fn stats(&mut self) -> Option<ServeStats> {
        match self.request_reply(&Request::Stats) {
            Ok(Reply::Stats(stats)) => Some(stats),
            _ => None,
        }
    }
}

/// Spawns `command` with stdout piped and reads that stdout up to the
/// `listening on ADDR` banner that [`run_serve`] and `critic router` print,
/// then keeps draining it on a thread so the child never blocks on a full
/// pipe. Returns the child
/// and the banner's address; a child that exits before its banner is
/// reaped and reported as `UnexpectedEof`.
///
/// # Errors
///
/// Propagates the spawn error; see above for a child without a banner.
pub(crate) fn launch(command: &mut Command) -> io::Result<(Child, String)> {
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let banner = (&mut reader)
        .lines()
        .map_while(Result::ok)
        .find_map(|line| Some(line.trim().strip_prefix("listening on ")?.to_string()));
    let Some(addr) = banner else {
        reap(&mut child, Instant::now());
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "exited before its banner",
        ));
    };
    thread::spawn(move || io::copy(&mut reader, &mut io::sink()));
    Ok((child, addr))
}

/// Waits for `child` to exit until `deadline`, then kills it, and reaps
/// it either way. Returns its exit code (`None` when a signal ended it).
pub(crate) fn reap(child: &mut Child, deadline: Instant) -> Option<i32> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.code(),
            Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                return child.wait().ok().and_then(|status| status.code());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardRow;

    fn submit() -> SubmitBody {
        SubmitBody {
            id: 7,
            app: "Acrobat".into(),
            scheme: "critic".into(),
            deadline_ms: Some(2_000),
        }
    }

    fn line(encoded: io::Result<Vec<u8>>) -> String {
        String::from_utf8(encoded.expect("encode")).expect("utf-8")
    }

    #[test]
    fn wire_types_round_trip_and_classify_disjointly() {
        let want = ArtifactRef {
            class: "profile".into(),
            key: 1234,
        };
        let cases = [
            (
                Request::Submit(submit()),
                r#"{"submit":{"id":7,"app":"Acrobat","scheme":"critic","deadline_ms":2000}}"#,
            ),
            (Request::RouterStats, r#"{"router_stats":true}"#),
            (Request::Stats, r#"{"stats":true}"#),
            (Request::Ping, r#"{"ping":true}"#),
            (Request::Heartbeat, r#"{"heartbeat":true}"#),
            (
                Request::FetchArtifact(want),
                r#"{"fetch_artifact":{"class":"profile","key":1234}}"#,
            ),
            (Request::ListArtifacts, r#"{"list_artifacts":true}"#),
            (Request::Shutdown, r#"{"shutdown":true}"#),
        ];
        for (request, text) in cases {
            assert_eq!(line(request.encode()), format!("{text}\n"));
            let back = Request::parse(text).expect("classifies");
            assert_eq!(line(back.encode()), line(request.encode()));
            assert!(parse_reply(text).is_none(), "{text} is no reply");
        }
        // The bench's own submit encoding is the same line.
        let bench = encode_line(&SubmitRequest { submit: submit() });
        assert_eq!(line(bench), line(Request::Submit(submit()).encode()));
        assert!(Request::parse("not json at all").is_none());
        assert!(Request::parse(r#"{"stats":"yes"}"#).is_none());
    }

    #[test]
    fn several_known_keys_take_the_first_in_protocol_order() {
        let cases = [
            (
                r#"{"shutdown":true,"submit":{"id":1,"app":"A","scheme":"b"}}"#,
                "submit",
            ),
            (r#"{"stats":true,"router_stats":true}"#, "router_stats"),
            (r#"{"ping":true,"stats":false}"#, "stats"),
            (r#"{"list_artifacts":true,"heartbeat":true}"#, "heartbeat"),
            (
                r#"{"shutdown":true,"list_artifacts":true}"#,
                "list_artifacts",
            ),
        ];
        for (text, key) in cases {
            let request = Request::parse(text).expect("classifies");
            assert!(
                line(request.encode()).starts_with(&format!("{{\"{key}\"")),
                "{text}"
            );
        }
        let reply = parse_reply(r#"{"error":"x","pong":true,"draining":true}"#);
        assert!(matches!(reply, Some(Reply::Pong)), "{reply:?}");
        let stats = r#"{"shards":[],"forwarded":0,"rerouted":0,"redispatched":0,"rejected_no_shard":0,"restarts":0}"#;
        let reply = parse_reply(&format!(r#"{{"router_stats_reply":{stats},"error":"x"}}"#));
        assert!(matches!(reply, Some(Reply::Error(_))), "{reply:?}");
    }

    #[test]
    fn only_replies_to_a_submission_carry_an_id() {
        let mut replies = [
            Reply::Accepted(IdBody { id: 1 }),
            Reply::Rejected(RejectedBody {
                id: 1,
                reason: "queue full".into(),
                retry_after_ms: 5,
            }),
            Reply::Pong,
            Reply::RouterStats(RouterStats {
                shards: vec![ShardRow {
                    shard: 0,
                    addr: None,
                    pid: None,
                    up: false,
                    generation: 0,
                }],
                ..RouterStats::default()
            }),
        ];
        for reply in &mut replies[..2] {
            *reply.id_mut().expect("a submission reply") = 9;
            assert!(line(reply.encode()).contains(r#""id":9"#));
        }
        assert!(replies[2..].iter_mut().all(|r| r.id_mut().is_none()));
    }

    /// Counts the writes a line costs.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_is_one_newline_terminated_write() {
        let line = Request::Ping.encode().expect("encode");
        assert_eq!(line.last(), Some(&b'\n'));
        assert_eq!(line.iter().filter(|&&b| b == b'\n').count(), 1);
        let text = std::str::from_utf8(&line).expect("utf-8");
        assert!(matches!(Request::parse(text), Some(Request::Ping)));

        let mut writer = CountingWriter::default();
        send_line(&mut writer, &Request::Ping).expect("send");
        send_line(&mut writer, &Request::Ping).expect("send");
        assert_eq!(writer.writes, 2, "one write per line");
        assert_eq!(writer.bytes, [line.clone(), line].concat());
    }

    #[test]
    fn deadline_is_optional_on_the_wire() {
        let line = "{\"submit\":{\"id\":1,\"app\":\"Maps\",\"scheme\":\"opp16\"}}";
        let Some(Request::Submit(body)) = Request::parse(line) else {
            panic!("a submit line is a submit");
        };
        assert_eq!(body.deadline_ms, None);
    }

    #[test]
    fn the_accept_loop_holds_only_connections_still_open() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let server = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let pong = |_: u64, _: &str, writer: &LineWriter| {
                    write_line(writer, Reply::Pong.encode());
                };
                accept_lines(&listener, || stop.load(Ordering::SeqCst), pong)
            })
        };
        // One exchange per connection, each hung up before the next.
        for _ in 0..20 {
            let mut wire = Wire::connect(&addr).expect("connect");
            let reply = wire.request_reply(&Request::Ping);
            assert!(matches!(reply, Ok(Reply::Pong)), "{reply:?}");
        }
        stop.store(true, Ordering::SeqCst);
        let connections = server.join().expect("accept loop");
        assert!(connections.open.len() < 20, "closed connections were kept");
        assert_eq!(connections.close(), 20);
    }

    #[test]
    fn an_exchange_with_a_silent_server_errors_instead_of_blocking() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        // Accepts and reads, but never answers: the connection stays open
        // until the client gives up and hangs up.
        let silent = thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                line.clear();
            }
        });
        let mut wire = Wire::connect(&addr).expect("connect");
        let timeout = wire.stream.read_timeout().expect("timeout readable");
        assert_eq!(timeout, Some(EXCHANGE_TIMEOUT));
        wire.stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("short timeout");
        let started = Instant::now();
        let outcome = wire.request_reply(&Request::Stats);
        assert!(outcome.is_err(), "{outcome:?}");
        assert!(started.elapsed() < Duration::from_secs(5));
        drop(wire);
        silent.join().expect("listener thread");
    }
}

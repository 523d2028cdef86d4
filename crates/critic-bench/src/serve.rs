//! The line-delimited-JSON TCP front end behind `critic serve`: a thin,
//! dependency-free wire layer over [`CampaignService`].
//!
//! One request or reply per line. Requests (disjoint top-level keys,
//! which is how the parser classifies them):
//!
//! ```text
//! {"submit":{"id":7,"app":"Acrobat","scheme":"critic","deadline_ms":2000}}
//! {"stats":true}
//! {"ping":true}
//! {"shutdown":true}
//! {"heartbeat":true}
//! {"fetch_artifact":{"class":"profile","key":1234}}
//! {"list_artifacts":true}
//! ```
//!
//! Replies:
//!
//! ```text
//! {"accepted":{"id":7}}
//! {"rejected":{"id":7,"reason":"rate limited","retry_after_ms":31}}
//! {"done":{"id":7,"record":{...CellRecord...}}}
//! {"stats_reply":{...}}
//! {"pong":true}
//! {"draining":true}
//! {"heartbeat_reply":{"shard":2,"draining":false}}
//! {"artifact":{"class":"profile","key":1234,"found":true,"payload":"...","crc32":987}}
//! {"artifact_index":[{"class":"profile","key":1234},...]}
//! {"error":"..."}
//! ```
//!
//! The last three verbs are the shard-fleet surface: `heartbeat` is the
//! router's liveness probe (answered even while draining, unlike new
//! submissions), and `fetch_artifact`/`list_artifacts` are the peer-rebuild
//! path — a restarted shard diffs a live peer's artifact index against its
//! own disk and pulls what it is missing, CRC-checked on receipt, instead
//! of re-simulating.
//!
//! Ordering: `accepted` is written after the submission is admitted, but
//! the terminal `done` is written by a worker thread and may overtake it
//! on a fast cell. Clients must correlate by `id`, not by line order.
//!
//! The `done` line is written only *after* the record's journal append has
//! been fsynced ([`CampaignService`]'s ack-follows-fsync invariant), so
//! every `done` a client observed survives a `SIGKILL` of the server.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::lock_clean;
use critic_core::campaign::CellRecord;
use critic_core::disk::ArtifactClass;
use critic_core::keys::crc32;
use critic_core::service::{CampaignService, SubmitOutcome};
use critic_core::store::ArtifactStore;
use serde::{Deserialize, Serialize};

/// Set by the binary's `SIGTERM` handler; the accept loop polls it and
/// begins a graceful drain when it goes true.
pub static TERM: AtomicBool = AtomicBool::new(false);

/// `{"submit":{...}}` — submit one campaign cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// The submission body.
    pub submit: SubmitBody,
}

/// The body of a [`SubmitRequest`].
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

/// `{"stats":true}` — ask for the server-side counters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsRequest {
    /// Always `true`; the key is the request.
    pub stats: bool,
}

/// `{"ping":true}` — liveness probe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PingRequest {
    /// Always `true`; the key is the request.
    pub ping: bool,
}

/// `{"shutdown":true}` — begin a graceful drain (same path as `SIGTERM`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShutdownRequest {
    /// Always `true`; the key is the request.
    pub shutdown: bool,
}

/// `{"heartbeat":true}` — the router's liveness probe. Unlike `ping`, the
/// reply carries the shard's identity so a supervisor can detect a port
/// reused by a stranger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeartbeatRequest {
    /// Always `true`; the key is the request.
    pub heartbeat: bool,
}

/// `{"fetch_artifact":{"class":"profile","key":N}}` — ask a peer shard for
/// one persistent artifact by (class, key).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FetchArtifactRequest {
    /// Which artifact.
    pub fetch_artifact: ArtifactRef,
}

/// `{"list_artifacts":true}` — ask a peer shard for its full artifact
/// index, so a rebuilding shard can diff it against its own disk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ListArtifactsRequest {
    /// Always `true`; the key is the request.
    pub list_artifacts: bool,
}

/// One (class, key) reference into a shard's persistent store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactRef {
    /// Artifact class name (`profile` or `baseline`).
    pub class: String,
    /// The stable artifact key.
    pub key: u64,
}

/// `{"accepted":{"id":N}}` — the submission passed admission control.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AcceptedReply {
    /// The echoed correlation id.
    pub accepted: IdBody,
}

/// An id-only reply body.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IdBody {
    /// The echoed correlation id.
    pub id: u64,
}

/// `{"rejected":{...}}` — admission control refused the submission;
/// nothing was queued and no `done` will follow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RejectedReply {
    /// The rejection body.
    pub rejected: RejectedBody,
}

/// The body of a [`RejectedReply`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RejectedBody {
    /// The echoed correlation id.
    pub id: u64,
    /// Why admission control refused (`rate limited`, `queue full`, ...).
    pub reason: String,
    /// Earliest sensible retry, milliseconds (0 = don't retry as-is).
    pub retry_after_ms: u64,
}

/// `{"done":{...}}` — the terminal result of an accepted submission,
/// written after its journal fsync.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DoneReply {
    /// The completion body.
    pub done: DoneBody,
}

/// The body of a [`DoneReply`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DoneBody {
    /// The echoed correlation id.
    pub id: u64,
    /// The terminal cell record (may be a `Shed` record from an open
    /// breaker).
    pub record: CellRecord,
}

/// `{"stats_reply":{...}}` — answer to a [`StatsRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsReply {
    /// The counters body.
    pub stats_reply: ServeStats,
}

/// Server-side counters, serialised on demand.
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

/// `{"pong":true}` — answer to a [`PingRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PongReply {
    /// Always `true`.
    pub pong: bool,
}

/// `{"draining":true}` — answer to a [`ShutdownRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrainingReply {
    /// Always `true`.
    pub draining: bool,
}

/// `{"heartbeat_reply":{...}}` — answer to a [`HeartbeatRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeartbeatReply {
    /// The heartbeat body.
    pub heartbeat_reply: HeartbeatBody,
}

/// The body of a [`HeartbeatReply`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeartbeatBody {
    /// The shard id the server was started with, if any.
    pub shard: Option<u64>,
    /// Whether a drain has begun (a draining shard is alive but should
    /// get no new work).
    pub draining: bool,
}

/// `{"artifact":{...}}` — answer to a [`FetchArtifactRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArtifactReply {
    /// The artifact body.
    pub artifact: ArtifactBody,
}

/// The body of an [`ArtifactReply`]. `payload` is the artifact's JSON
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

/// `{"artifact_index":[...]}` — answer to a [`ListArtifactsRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArtifactIndexReply {
    /// Every (class, key) on the serving shard's disk, in deterministic
    /// order.
    pub artifact_index: Vec<ArtifactRef>,
}

/// `{"error":"..."}` — the request line did not parse as any request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorReply {
    /// What went wrong.
    pub error: String,
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

/// One wire line: `value`'s JSON and its terminating newline in one
/// buffer. A line written as two writes (the JSON, then `\n`) leaves the
/// newline behind Nagle's algorithm until the peer's delayed ACK arrives,
/// which stalls every request-reply exchange by tens of milliseconds.
///
/// # Errors
///
/// Propagates a serialisation failure as `InvalidData`.
pub fn encode_line<T: Serialize>(value: &T) -> std::io::Result<Vec<u8>> {
    let json = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut line = json.into_bytes();
    line.push(b'\n');
    Ok(line)
}

/// Writes `value` as one line with a single `write_all`, then flushes.
///
/// # Errors
///
/// Propagates serialisation and write errors.
pub fn send_line<W: Write, T: Serialize>(writer: &mut W, value: &T) -> std::io::Result<()> {
    writer.write_all(&encode_line(value)?)?;
    writer.flush()
}

/// Serialises `reply` and writes it as one line under the stream lock.
/// Write errors are swallowed: a client that hung up mid-reply is that
/// client's problem, never the server's.
fn write_line<T: Serialize>(stream: &Arc<Mutex<TcpStream>>, reply: &T) {
    let Ok(line) = encode_line(reply) else {
        return;
    };
    let mut guard = lock_clean(stream);
    let _ = guard.write_all(&line);
    let _ = guard.flush();
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

/// Snapshot of the service counters for a [`StatsReply`].
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

/// Answers one [`FetchArtifactRequest`] from the service's persistent
/// store. Absent disk tier, unknown class, and missing key all answer
/// `found:false` — a rebuilding peer treats them identically.
fn fetch_artifact_body(service: &CampaignService, want: &ArtifactRef) -> ArtifactBody {
    let missing = ArtifactBody {
        class: want.class.clone(),
        key: want.key,
        found: false,
        payload: None,
        crc32: 0,
    };
    let Some(class) = ArtifactClass::parse(&want.class) else {
        return missing;
    };
    let Some(disk) = service.store().disk() else {
        return missing;
    };
    match disk.load(class, want.key) {
        Ok(Some(bytes)) => {
            let checksum = crc32(&bytes);
            match String::from_utf8(bytes) {
                Ok(payload) => ArtifactBody {
                    class: want.class.clone(),
                    key: want.key,
                    found: true,
                    payload: Some(payload),
                    crc32: checksum,
                },
                Err(_) => missing,
            }
        }
        // Not found and quarantined-corrupt both answer `found:false`.
        Ok(None) | Err(_) => missing,
    }
}

/// One connection's request loop. Returns when the peer hangs up or the
/// server cuts the stream after draining.
fn handle_client(
    stream: TcpStream,
    service: CampaignService,
    client: u64,
    shutdown: Arc<AtomicBool>,
    ctx: ShardContext,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        if let Ok(request) = serde_json::from_str::<SubmitRequest>(text) {
            let id = request.submit.id;
            let done_writer = Arc::clone(&writer);
            let outcome = service.submit(
                client,
                &request.submit.app,
                &request.submit.scheme,
                request.submit.deadline_ms,
                move |record| {
                    write_line(
                        &done_writer,
                        &DoneReply {
                            done: DoneBody { id, record },
                        },
                    );
                },
            );
            match outcome {
                SubmitOutcome::Accepted => write_line(
                    &writer,
                    &AcceptedReply {
                        accepted: IdBody { id },
                    },
                ),
                SubmitOutcome::Rejected {
                    reason,
                    retry_after_ms,
                } => write_line(
                    &writer,
                    &RejectedReply {
                        rejected: RejectedBody {
                            id,
                            reason,
                            retry_after_ms,
                        },
                    },
                ),
            }
        } else if serde_json::from_str::<StatsRequest>(text).is_ok() {
            write_line(
                &writer,
                &StatsReply {
                    stats_reply: serve_stats(&service, &ctx),
                },
            );
        } else if serde_json::from_str::<PingRequest>(text).is_ok() {
            write_line(&writer, &PongReply { pong: true });
        } else if serde_json::from_str::<HeartbeatRequest>(text).is_ok() {
            write_line(
                &writer,
                &HeartbeatReply {
                    heartbeat_reply: HeartbeatBody {
                        shard: ctx.shard,
                        draining: service.is_draining(),
                    },
                },
            );
        } else if let Ok(request) = serde_json::from_str::<FetchArtifactRequest>(text) {
            write_line(
                &writer,
                &ArtifactReply {
                    artifact: fetch_artifact_body(&service, &request.fetch_artifact),
                },
            );
        } else if serde_json::from_str::<ListArtifactsRequest>(text).is_ok() {
            let artifact_index = service
                .store()
                .disk()
                .map(|disk| {
                    disk.entries()
                        .into_iter()
                        .map(|(class, key)| ArtifactRef {
                            class: class.name().to_string(),
                            key,
                        })
                        .collect()
                })
                .unwrap_or_default();
            write_line(&writer, &ArtifactIndexReply { artifact_index });
        } else if serde_json::from_str::<ShutdownRequest>(text).is_ok() {
            shutdown.store(true, Ordering::SeqCst);
            write_line(&writer, &DrainingReply { draining: true });
        } else {
            write_line(
                &writer,
                &ErrorReply {
                    error: format!("unparseable request: {text}"),
                },
            );
        }
    }
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
    let _ = listener.set_nonblocking(true);
    let mut handles = Vec::new();
    let mut raw_streams: Vec<TcpStream> = Vec::new();
    let mut connections = 0u64;
    loop {
        if TERM.load(Ordering::SeqCst) || shutdown.load(Ordering::SeqCst) || service.is_draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                connections += 1;
                let client = connections;
                if let Ok(raw) = stream.try_clone() {
                    raw_streams.push(raw);
                }
                let service = service.clone();
                let shutdown = Arc::clone(shutdown);
                let ctx = ctx.clone();
                handles.push(thread::spawn(move || {
                    handle_client(stream, service, client, shutdown, ctx);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    // Finish every queued and in-flight cell (their `done` lines are
    // written by the drain), then cut the streams so client read loops
    // observe EOF instead of hanging.
    service.drain();
    for stream in &raw_streams {
        let _ = stream.shutdown(Shutdown::Both);
    }
    for handle in handles {
        let _ = handle.join();
    }
    ServeSummary {
        connections,
        accepted: service.accepted(),
        responded: service.responded(),
    }
}

/// Binds `127.0.0.1:port` (0 = ephemeral), prints
/// `listening on 127.0.0.1:PORT` on stdout (the line a supervising parent
/// reads to discover the port), and serves until shutdown.
///
/// # Errors
///
/// Returns the bind error verbatim; everything after the bind is
/// best-effort and surfaces through the summary instead.
pub fn run_serve(
    port: u16,
    service: &CampaignService,
    ctx: &ShardContext,
) -> std::io::Result<ServeSummary> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();
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
        let Ok(stream) = TcpStream::connect(peer.as_str()) else {
            continue;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let Ok(mut writer) = stream.try_clone() else {
            continue;
        };
        let mut reader = BufReader::new(stream);
        let index = match request_reply(
            &mut writer,
            &mut reader,
            &ListArtifactsRequest {
                list_artifacts: true,
            },
            |reply| matches!(reply, Reply::ArtifactIndex(_)),
            |_| {},
        ) {
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
            let body = match request_reply(
                &mut writer,
                &mut reader,
                &FetchArtifactRequest {
                    fetch_artifact: wanted.clone(),
                },
                |reply| matches!(reply, Reply::Artifact(_)),
                |_| {},
            ) {
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

/// Reads reply lines off a client-side stream. Thin helper shared by
/// `critic loadgen` and the soak: classifies one line into whichever reply
/// type it is.
#[derive(Debug, Clone)]
pub enum Reply {
    /// `{"accepted":{...}}`.
    Accepted(IdBody),
    /// `{"rejected":{...}}`.
    Rejected(RejectedBody),
    /// `{"done":{...}}`.
    Done(Box<DoneBody>),
    /// `{"stats_reply":{...}}`.
    Stats(ServeStats),
    /// `{"pong":true}`.
    Pong,
    /// `{"draining":true}`.
    Draining,
    /// `{"heartbeat_reply":{...}}`.
    Heartbeat(HeartbeatBody),
    /// `{"artifact":{...}}`.
    Artifact(Box<ArtifactBody>),
    /// `{"artifact_index":[...]}`.
    ArtifactIndex(Vec<ArtifactRef>),
    /// `{"error":"..."}`.
    Error(String),
}

/// Classifies one reply line; `None` when it parses as nothing known.
pub fn parse_reply(line: &str) -> Option<Reply> {
    let text = line.trim();
    if text.is_empty() {
        return None;
    }
    if let Ok(reply) = serde_json::from_str::<DoneReply>(text) {
        return Some(Reply::Done(Box::new(reply.done)));
    }
    if let Ok(reply) = serde_json::from_str::<AcceptedReply>(text) {
        return Some(Reply::Accepted(reply.accepted));
    }
    if let Ok(reply) = serde_json::from_str::<RejectedReply>(text) {
        return Some(Reply::Rejected(reply.rejected));
    }
    if let Ok(reply) = serde_json::from_str::<StatsReply>(text) {
        return Some(Reply::Stats(reply.stats_reply));
    }
    if serde_json::from_str::<PongReply>(text).is_ok() {
        return Some(Reply::Pong);
    }
    if serde_json::from_str::<DrainingReply>(text).is_ok() {
        return Some(Reply::Draining);
    }
    if let Ok(reply) = serde_json::from_str::<HeartbeatReply>(text) {
        return Some(Reply::Heartbeat(reply.heartbeat_reply));
    }
    if let Ok(reply) = serde_json::from_str::<ArtifactReply>(text) {
        return Some(Reply::Artifact(Box::new(reply.artifact)));
    }
    if let Ok(reply) = serde_json::from_str::<ArtifactIndexReply>(text) {
        return Some(Reply::ArtifactIndex(reply.artifact_index));
    }
    if let Ok(reply) = serde_json::from_str::<ErrorReply>(text) {
        return Some(Reply::Error(reply.error));
    }
    None
}

/// Blocking helper for request/reply exchanges on a client stream: writes
/// one request line and reads lines until `want` picks a reply (skipping
/// interleaved `done` lines, which the caller sees via `on_other`).
///
/// # Errors
///
/// Propagates stream I/O errors; EOF before a matching reply is
/// `UnexpectedEof`.
pub fn request_reply<R: Read, T: Serialize>(
    writer: &mut TcpStream,
    reader: &mut BufReader<R>,
    request: &T,
    mut want: impl FnMut(&Reply) -> bool,
    mut on_other: impl FnMut(Reply),
) -> std::io::Result<Reply> {
    send_line(writer, request)?;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server hung up before replying",
            ));
        }
        if let Some(reply) = parse_reply(&line) {
            if want(&reply) {
                return Ok(reply);
            }
            on_other(reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_types_round_trip_and_classify_disjointly() {
        let submit = SubmitRequest {
            submit: SubmitBody {
                id: 7,
                app: "Acrobat".into(),
                scheme: "critic".into(),
                deadline_ms: Some(2_000),
            },
        };
        let line = serde_json::to_string(&submit).expect("serialise");
        let back: SubmitRequest = serde_json::from_str(&line).expect("deserialise");
        assert_eq!(back.submit.id, 7);
        assert_eq!(back.submit.deadline_ms, Some(2_000));
        // Disjoint top-level keys: a submit line is not any other request.
        assert!(serde_json::from_str::<StatsRequest>(&line).is_err());
        assert!(serde_json::from_str::<PingRequest>(&line).is_err());
        assert!(serde_json::from_str::<ShutdownRequest>(&line).is_err());

        let rejected = RejectedReply {
            rejected: RejectedBody {
                id: 9,
                reason: "rate limited".into(),
                retry_after_ms: 31,
            },
        };
        let line = serde_json::to_string(&rejected).expect("serialise");
        match parse_reply(&line) {
            Some(Reply::Rejected(body)) => {
                assert_eq!(body.id, 9);
                assert_eq!(body.retry_after_ms, 31);
            }
            other => panic!("misclassified: {other:?}"),
        }
        assert!(matches!(parse_reply("{\"pong\":true}"), Some(Reply::Pong)));
        assert!(parse_reply("not json at all").is_none());
    }

    /// Counts the writes a line costs.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_is_one_newline_terminated_write() {
        let ping = PingRequest { ping: true };
        let line = encode_line(&ping).expect("encode");
        assert_eq!(line.last(), Some(&b'\n'));
        assert_eq!(line.iter().filter(|&&b| b == b'\n').count(), 1);
        let text = std::str::from_utf8(&line).expect("utf-8");
        let back: PingRequest = serde_json::from_str(text.trim_end()).expect("parses");
        assert!(back.ping);

        let mut writer = CountingWriter::default();
        send_line(&mut writer, &ping).expect("send");
        send_line(&mut writer, &ping).expect("send");
        assert_eq!(writer.writes, 2, "one write per line");
        assert_eq!(writer.bytes, [line.clone(), line].concat());
    }

    #[test]
    fn deadline_is_optional_on_the_wire() {
        let line = "{\"submit\":{\"id\":1,\"app\":\"Maps\",\"scheme\":\"opp16\"}}";
        let back: SubmitRequest = serde_json::from_str(line).expect("deserialise");
        assert_eq!(back.submit.deadline_ms, None);
    }
}

//! Pins the wire protocol byte for byte: the exact line of every request
//! and reply kind, the reply kind each reply line classifies to, the reply
//! a live server writes for each request line, and the request lines the
//! repo's own clients write.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Arc;
use std::thread;

use critic_bench::audit::{Scratch, Server, Wire};
use critic_bench::router::fetch_router_stats;
use critic_bench::serve::{self, encode_line, parse_reply, Reply, SubmitBody, SubmitRequest};
use critic_core::service::{CampaignService, ServiceConfig};
use critic_core::store::ArtifactStore;
use critic_obs::Telemetry;

const SUBMIT: &str = r#"{"submit":{"id":7,"app":"Acrobat","scheme":"critic","deadline_ms":2000}}"#;
const STATS: &str = r#"{"stats":true}"#;
const ROUTER_STATS: &str = r#"{"router_stats":true}"#;
const PING: &str = r#"{"ping":true}"#;
const HEARTBEAT: &str = r#"{"heartbeat":true}"#;
const FETCH_ARTIFACT: &str = r#"{"fetch_artifact":{"class":"profile","key":1234}}"#;
const LIST_ARTIFACTS: &str = r#"{"list_artifacts":true}"#;
const SHUTDOWN: &str = r#"{"shutdown":true}"#;

const ACCEPTED: &str = r#"{"accepted":{"id":7}}"#;
const REJECTED: &str = r#"{"rejected":{"id":7,"reason":"rate limited","retry_after_ms":31}}"#;
const DONE: &str = concat!(
    r#"{"done":{"id":7,"record":{"app":"Acrobat","scheme":"critic","status":"Ok","#,
    r#""attempts":1,"millis":5,"fault":null,"metrics":{"speedup":1.25,"#,
    r#""cpu_energy_saving":0.5,"thumb_dyn_frac":0.25,"dyn_insns":1000},"#,
    r#""error":null,"validation":null,"spans":null,"degraded":0,"run":3}}}"#
);
const STATS_REPLY: &str = concat!(
    r#"{"stats_reply":{"queue_depth":0,"in_flight":0,"accepted":0,"responded":0,"#,
    r#""draining":false,"disk_hits":0,"shard":null,"fetched_artifacts":0,"#,
    r#""profiles_built":0,"baselines_built":0,"disk_saves":0}}"#
);
const ROUTER_STATS_REPLY: &str = concat!(
    r#"{"router_stats_reply":{"shards":[{"shard":0,"addr":"127.0.0.1:1","pid":42,"#,
    r#""up":true,"generation":1}],"forwarded":7,"rerouted":1,"redispatched":2,"#,
    r#""rejected_no_shard":0,"restarts":3}}"#
);
const PONG: &str = r#"{"pong":true}"#;
const DRAINING: &str = r#"{"draining":true}"#;
const HEARTBEAT_REPLY: &str = r#"{"heartbeat_reply":{"shard":2,"draining":false}}"#;
/// `crc32` is the CRC-32 of the payload's bytes, `{"a":1}`.
const ARTIFACT: &str = concat!(
    r#"{"artifact":{"class":"profile","key":1234,"found":true,"#,
    r#""payload":"{\"a\":1}","crc32":1444654255}}"#
);
const ARTIFACT_INDEX: &str = r#"{"artifact_index":[{"class":"profile","key":1234}]}"#;
const ERROR: &str = r#"{"error":"unparseable request: junk"}"#;

/// The serve-tier reply kind a line classifies to.
fn kind(line: &str) -> &'static str {
    #[allow(unreachable_patterns)]
    match parse_reply(line) {
        Some(Reply::Accepted(_)) => "accepted",
        Some(Reply::Rejected(_)) => "rejected",
        Some(Reply::Done(_)) => "done",
        Some(Reply::Stats(_)) => "stats_reply",
        Some(Reply::Pong) => "pong",
        Some(Reply::Draining) => "draining",
        Some(Reply::Heartbeat(_)) => "heartbeat_reply",
        Some(Reply::Artifact(_)) => "artifact",
        Some(Reply::ArtifactIndex(_)) => "artifact_index",
        Some(Reply::Error(_)) => "error",
        _ => "no serve reply",
    }
}

/// `{"<key>":<payload>}`, the shape of every line.
fn keyed(key: &str, payload: String) -> String {
    format!("{{\"{key}\":{payload}}}")
}

/// The line rebuilt from what [`parse_reply`] extracted from it.
fn reencoded(line: &str) -> Option<String> {
    let json = |r: serde_json::Result<String>| r.expect("serialise");
    Some(match parse_reply(line)? {
        Reply::Accepted(body) => keyed("accepted", json(serde_json::to_string(&body))),
        Reply::Rejected(body) => keyed("rejected", json(serde_json::to_string(&body))),
        Reply::Done(body) => keyed("done", json(serde_json::to_string(&*body))),
        Reply::Stats(body) => keyed("stats_reply", json(serde_json::to_string(&body))),
        Reply::Pong => PONG.to_string(),
        Reply::Draining => DRAINING.to_string(),
        Reply::Heartbeat(body) => keyed("heartbeat_reply", json(serde_json::to_string(&body))),
        Reply::Artifact(body) => keyed("artifact", json(serde_json::to_string(&*body))),
        Reply::ArtifactIndex(body) => keyed("artifact_index", json(serde_json::to_string(&body))),
        Reply::Error(body) => keyed("error", json(serde_json::to_string(&body))),
        #[allow(unreachable_patterns)]
        _ => return None,
    })
}

#[test]
fn every_reply_line_classifies_to_its_kind_and_round_trips() {
    let cases = [
        (ACCEPTED, "accepted"),
        (REJECTED, "rejected"),
        (DONE, "done"),
        (STATS_REPLY, "stats_reply"),
        (PONG, "pong"),
        (DRAINING, "draining"),
        (HEARTBEAT_REPLY, "heartbeat_reply"),
        (ARTIFACT, "artifact"),
        (ARTIFACT_INDEX, "artifact_index"),
        (ERROR, "error"),
    ];
    for (line, want) in cases {
        assert_eq!(kind(line), want, "{line}");
        assert_eq!(kind(&format!("{line}\n")), want, "{line} with its newline");
        assert_eq!(reencoded(line).as_deref(), Some(line), "{line} round trip");
    }
    // The router's reply is no serve-tier reply.
    assert_eq!(kind(ROUTER_STATS_REPLY), "no serve reply");
    // No request line is a reply.
    for line in [
        SUBMIT,
        STATS,
        ROUTER_STATS,
        PING,
        HEARTBEAT,
        FETCH_ARTIFACT,
        LIST_ARTIFACTS,
        SHUTDOWN,
    ] {
        assert_eq!(kind(line), "no serve reply", "{line}");
    }
    assert_eq!(kind(""), "no serve reply");
    assert_eq!(kind("not json at all"), "no serve reply");
}

#[test]
fn submit_encodes_to_its_pinned_line() {
    let request = SubmitRequest {
        submit: SubmitBody {
            id: 7,
            app: "Acrobat".into(),
            scheme: "critic".into(),
            deadline_ms: Some(2_000),
        },
    };
    let line = encode_line(&request).expect("encode");
    assert_eq!(line, format!("{SUBMIT}\n").into_bytes());
}

fn tiny_service() -> CampaignService {
    let mut config = ServiceConfig::new(400);
    config.workers = 1;
    config.queue_capacity = 16;
    config.admission_rate = 0;
    config.breaker_threshold = 0;
    config.telemetry = Telemetry::off();
    CampaignService::open(config).expect("in-memory service opens")
}

/// Writes `request` and reads `replies` lines back, newline stripped.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
    replies: usize,
) -> Vec<String> {
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("write request");
    (0..replies)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read reply");
            assert!(line.ends_with('\n'), "reply {line:?} is one whole line");
            line.trim_end().to_string()
        })
        .collect()
}

#[test]
fn a_live_server_answers_every_request_line_with_its_pinned_reply() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let service = tiny_service();
    let server = {
        let shutdown = Arc::clone(&shutdown);
        thread::spawn(move || {
            serve::serve_on(
                listener,
                &service,
                &shutdown,
                &serve::ShardContext::default(),
            )
        })
    };
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ask = |request: &str, replies| exchange(&mut stream, &mut reader, request, replies);

    assert_eq!(ask(STATS, 1)[0], STATS_REPLY);
    assert_eq!(ask(PING, 1)[0], PONG);
    assert_eq!(
        ask(HEARTBEAT, 1)[0],
        r#"{"heartbeat_reply":{"shard":null,"draining":false}}"#
    );
    assert_eq!(
        ask(FETCH_ARTIFACT, 1)[0],
        r#"{"artifact":{"class":"profile","key":1234,"found":false,"payload":null,"crc32":0}}"#
    );
    assert_eq!(ask(LIST_ARTIFACTS, 1)[0], r#"{"artifact_index":[]}"#);
    assert_eq!(
        ask(ROUTER_STATS, 1)[0],
        r#"{"error":"unparseable request: {\"router_stats\":true}"}"#
    );
    assert_eq!(ask("junk", 1)[0], ERROR);
    assert_eq!(
        ask(&SUBMIT.replace("Acrobat", "NoSuchApp"), 1)[0],
        r#"{"rejected":{"id":7,"reason":"unknown app `NoSuchApp`","retry_after_ms":0}}"#
    );
    // `done` may overtake `accepted`; correlate by kind, not order.
    let mut lines = ask(SUBMIT, 2);
    lines.sort_by_key(|line| kind(line) != "accepted");
    assert_eq!(lines[0], ACCEPTED);
    assert!(
        lines[1].starts_with(
            r#"{"done":{"id":7,"record":{"app":"Acrobat","scheme":"critic","status":"Ok","#
        ),
        "{}",
        lines[1]
    );
    assert_eq!(reencoded(&lines[1]).as_deref(), Some(lines[1].as_str()));
    assert_eq!(ask(SHUTDOWN, 1)[0], DRAINING);
    server.join().expect("server thread");
}

/// A one-connection peer that records each request line it reads and
/// answers it with the next of `replies`.
fn fake_peer(replies: Vec<String>) -> (String, thread::JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let peer = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut seen = Vec::new();
        for reply in replies {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            seen.push(line);
            stream
                .write_all(format!("{reply}\n").as_bytes())
                .expect("reply");
        }
        seen
    });
    (addr, peer)
}

#[test]
fn the_repos_clients_write_the_pinned_request_lines() {
    let (addr, peer) = fake_peer(vec![STATS_REPLY.to_string()]);
    let stats = Wire::connect(&addr).and_then(|mut wire| wire.stats());
    assert_eq!(stats.map(|s| s.queue_depth), Some(0));
    assert_eq!(peer.join().expect("peer"), [format!("{STATS}\n")]);

    let (addr, peer) = fake_peer(vec![ROUTER_STATS_REPLY.to_string()]);
    let stats = fetch_router_stats(&addr).expect("router stats");
    assert_eq!((stats.forwarded, stats.shards[0].pid), (7, Some(42)));
    assert_eq!(peer.join().expect("peer"), [format!("{ROUTER_STATS}\n")]);

    let scratch = Scratch::new("wire_test").expect("scratch");
    let store = ArtifactStore::persistent(&scratch.join("store"), None, Telemetry::off())
        .expect("store opens");
    let (addr, peer) = fake_peer(vec![ARTIFACT_INDEX.to_string(), ARTIFACT.to_string()]);
    let fetched = AtomicU64::new(0);
    let report = serve::rebuild_from_peers(&store, &[addr], &fetched);
    assert_eq!((report.peers_consulted, report.fetched), (1, 1));
    assert_eq!(
        peer.join().expect("peer"),
        [format!("{LIST_ARTIFACTS}\n"), format!("{FETCH_ARTIFACT}\n")]
    );

    // A child whose banner names the fake peer: shutting it down writes
    // the wire `shutdown` there.
    let (addr, peer) = fake_peer(vec![DRAINING.to_string()]);
    let script = format!("echo listening on {addr}; sleep 1");
    let args = ["-c".to_string(), script];
    let mut server = Server::spawn(&PathBuf::from("/bin/sh"), &args).expect("spawn");
    assert_eq!(server.addr, addr);
    assert_eq!(server.shutdown(), Some(0));
    assert_eq!(peer.join().expect("peer"), [format!("{SHUTDOWN}\n")]);
}

//! End-to-end service tests: an in-process server driven by the real
//! loadgen client over a loopback socket, the wire protocol spoken by
//! hand, and — behind the real binary — a smoke soak with SIGKILL,
//! restart, and the no-lost-ack audit.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use critic_bench::audit::Server;
use critic_bench::loadgen::{run_loadgen, LoadgenConfig};
use critic_bench::serve::{self, Reply};
use critic_bench::soak::{run_sharded_soak, run_soak, ShardedSoakConfig, SoakConfig};
use critic_core::service::{CampaignService, ServiceConfig};
use critic_obs::Telemetry;

fn tiny_service(queue_capacity: usize) -> CampaignService {
    let mut config = ServiceConfig::new(400);
    config.workers = 2;
    config.queue_capacity = queue_capacity;
    config.degrade_watermarks = [2, 4, 8];
    config.admission_rate = 0;
    config.breaker_threshold = 0;
    config.telemetry = Telemetry::off();
    CampaignService::open(config).expect("in-memory service opens")
}

/// Binds an ephemeral loopback port, serves `service` on a background
/// thread, and hands the address plus the switch that stops the accept
/// loop to the test body.
fn with_server(
    service: CampaignService,
    body: impl FnOnce(&str),
) -> (CampaignService, serve::ServeSummary) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr").to_string();
    let shutdown = Arc::new(AtomicBool::new(false));
    let service = Arc::new(service);
    let thread_service = Arc::clone(&service);
    let thread_shutdown = Arc::clone(&shutdown);
    let server = std::thread::spawn(move || {
        serve::serve_on(
            listener,
            &thread_service,
            &thread_shutdown,
            &serve::ShardContext::default(),
        )
    });
    body(&addr);
    shutdown.store(true, Ordering::SeqCst);
    let summary = server.join().expect("server thread panicked");
    let service = Arc::try_unwrap(service)
        .unwrap_or_else(|_| panic!("server thread still holds the service"));
    (service, summary)
}

#[test]
fn loadgen_round_trips_through_a_live_server() {
    let (service, summary) = with_server(tiny_service(256), |addr| {
        let mut config = LoadgenConfig::new(addr);
        config.clients = 3;
        config.requests_per_client = 4;
        config.rate = 64.0;
        config.seed = 11;
        let outcome = run_loadgen(&config).expect("loadgen runs");
        assert_eq!(outcome.report.done, 12, "every submission answered");
        assert_eq!(outcome.report.unanswered, 0);
        assert_eq!(outcome.report.connect_failures, 0);
        assert_eq!(outcome.acked.len(), 12, "one acked cell per done reply");
        assert!(outcome.report.p50_ms > 0.0);
        assert!(outcome.report.p99_ms >= outcome.report.p50_ms);
    });
    assert_eq!(summary.connections, 3);
    assert_eq!(summary.accepted, 12);
    assert_eq!(summary.responded, 12);
    assert_eq!(service.responded(), 12);
}

#[test]
fn wire_protocol_answers_ping_stats_and_rejects_after_shutdown() {
    let (_service, summary) = with_server(tiny_service(256), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut line = String::new();

        stream.write_all(b"{\"ping\":true}\n").expect("write ping");
        reader.read_line(&mut line).expect("read pong");
        assert!(
            matches!(serve::parse_reply(&line), Some(Reply::Pong)),
            "expected pong, got {line:?}"
        );

        line.clear();
        stream
            .write_all(b"{\"stats\":true}\n")
            .expect("write stats");
        reader.read_line(&mut line).expect("read stats");
        let Some(Reply::Stats(stats)) = serve::parse_reply(&line) else {
            panic!("expected stats_reply, got {line:?}");
        };
        assert!(!stats.draining);
        assert_eq!(stats.accepted, 0);

        line.clear();
        stream.write_all(b"not json at all\n").expect("write junk");
        reader.read_line(&mut line).expect("read error");
        assert!(
            matches!(serve::parse_reply(&line), Some(Reply::Error(_))),
            "expected error reply, got {line:?}"
        );

        line.clear();
        stream
            .write_all(b"{\"shutdown\":true}\n")
            .expect("write shutdown");
        reader.read_line(&mut line).expect("read draining");
        assert!(
            matches!(serve::parse_reply(&line), Some(Reply::Draining)),
            "expected draining ack, got {line:?}"
        );
    });
    assert_eq!(summary.connections, 1);
    assert_eq!(summary.accepted, 0);
}

#[test]
fn overloaded_server_rejects_with_retry_hints_instead_of_queueing() {
    // One worker, a two-deep queue, and a burst far beyond both: the
    // server must shed the excess synchronously with retry hints, not
    // grow the queue.
    let mut config = ServiceConfig::new(400);
    config.workers = 1;
    config.queue_capacity = 2;
    config.degrade_watermarks = [1, 2, 0];
    config.admission_rate = 0;
    config.client_window = 0;
    config.breaker_threshold = 0;
    config.telemetry = Telemetry::off();
    let service = CampaignService::open(config).expect("service opens");

    let (service, _summary) = with_server(service, |addr| {
        let mut config = LoadgenConfig::new(addr);
        config.clients = 4;
        config.requests_per_client = 8;
        config.rate = 1_000.0; // effectively "all at once"
        config.seed = 5;
        let outcome = run_loadgen(&config).expect("loadgen runs");
        assert_eq!(outcome.report.unanswered, 0, "every request got a verdict");
        assert!(
            outcome.report.rejected > 0,
            "a 32-deep burst into a 2-deep queue must reject"
        );
        assert!(
            outcome.report.mean_retry_after_ms > 0.0,
            "rejects must carry retry hints"
        );
        assert_eq!(
            outcome.report.done + outcome.report.rejected,
            outcome.report.requests
        );
    });
    assert!(service.queue_depth() == 0 && service.in_flight() == 0);
}

#[test]
fn shard_wire_verbs_answer_heartbeat_fetch_and_index() {
    let (_service, _summary) = with_server(tiny_service(256), |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut line = String::new();

        stream
            .write_all(b"{\"heartbeat\":true}\n")
            .expect("write heartbeat");
        reader.read_line(&mut line).expect("read heartbeat reply");
        let Some(Reply::Heartbeat(beat)) = serve::parse_reply(&line) else {
            panic!("expected heartbeat_reply, got {line:?}");
        };
        assert_eq!(beat.shard, None, "no --shard flag, no shard id");
        assert!(!beat.draining);

        // No persistent store behind this service: the index is empty and
        // any fetch answers found:false — a rebuilding peer just moves on.
        line.clear();
        stream
            .write_all(b"{\"list_artifacts\":true}\n")
            .expect("write list");
        reader.read_line(&mut line).expect("read index");
        let Some(Reply::ArtifactIndex(index)) = serve::parse_reply(&line) else {
            panic!("expected artifact_index, got {line:?}");
        };
        assert!(index.is_empty());

        line.clear();
        stream
            .write_all(b"{\"fetch_artifact\":{\"class\":\"profile\",\"key\":42}}\n")
            .expect("write fetch");
        reader.read_line(&mut line).expect("read artifact");
        let Some(Reply::Artifact(body)) = serve::parse_reply(&line) else {
            panic!("expected artifact reply, got {line:?}");
        };
        assert!(!body.found);
        assert!(body.payload.is_none());
    });
}

#[test]
fn peer_rebuild_pulls_artifacts_crc_checked() {
    let scratch = std::env::temp_dir().join(format!("critic_rebuild_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    // Server A: disk-backed, runs one cell so its store holds a profile
    // and a baseline.
    let mut config = ServiceConfig::new(400);
    config.workers = 1;
    config.queue_capacity = 16;
    config.admission_rate = 0;
    config.breaker_threshold = 0;
    config.telemetry = Telemetry::off();
    config.store_dir = Some(scratch.join("a"));
    let service_a = CampaignService::open(config).expect("service A opens");
    let (_service_a, _summary) = with_server(service_a, |addr| {
        let mut config = LoadgenConfig::new(addr);
        config.clients = 1;
        config.requests_per_client = 2;
        config.rate = 64.0;
        let outcome = run_loadgen(&config).expect("loadgen runs");
        assert_eq!(outcome.report.done, 2, "seed cells must complete");

        // Server B: fresh disk in the same fleet, rebuilds from A.
        let mut config = ServiceConfig::new(400);
        config.telemetry = Telemetry::off();
        config.store_dir = Some(scratch.join("b"));
        let service_b = CampaignService::open(config).expect("service B opens");
        let fetched = std::sync::atomic::AtomicU64::new(0);
        let report = serve::rebuild_from_peers(service_b.store(), &[addr.to_string()], &fetched);
        assert_eq!(report.peers_consulted, 1);
        assert!(report.fetched > 0, "B must pull A's artifacts");
        assert_eq!(report.rejected, 0, "clean payloads never reject");
        assert_eq!(fetched.load(Ordering::SeqCst), report.fetched);

        // A second rebuild is a no-op: everything is already local.
        let again = serve::rebuild_from_peers(service_b.store(), &[addr.to_string()], &fetched);
        assert_eq!(again.fetched, 0, "rebuild is idempotent");
    });
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn loadgen_retries_rejected_cells_with_hints() {
    // Same shedding setup as the overload test, but with retries armed:
    // rejected cells come back and the hinted counter proves the client
    // used the server's retry_after_ms rather than blind backoff.
    let mut config = ServiceConfig::new(400);
    config.workers = 1;
    config.queue_capacity = 2;
    config.degrade_watermarks = [1, 2, 0];
    config.admission_rate = 0;
    config.client_window = 0;
    config.breaker_threshold = 0;
    config.telemetry = Telemetry::off();
    let service = CampaignService::open(config).expect("service opens");

    let (_service, _summary) = with_server(service, |addr| {
        let mut config = LoadgenConfig::new(addr);
        config.clients = 4;
        config.requests_per_client = 8;
        config.rate = 1_000.0;
        config.seed = 5;
        config.retries = 3;
        let outcome = run_loadgen(&config).expect("loadgen runs");
        assert_eq!(outcome.report.unanswered, 0, "every request got a verdict");
        assert!(
            outcome.report.rejected > 0,
            "the burst must shed before retries drain it"
        );
        assert!(
            outcome.report.hinted_retries > 0,
            "server hints must drive the retries: {:?}",
            outcome.report
        );
        // Retries re-submit, so done + finally-rejected can exceed the
        // original request count; completion of the bulk is the signal.
        assert!(
            outcome.report.done > 0,
            "retries must convert some rejects into completions"
        );
    });
}

/// The drills' child guard: a `critic serve` child drains to exit 9 once
/// (a second shutdown does not wait again), and a child that dies before
/// its banner is reaped and reported instead of waited on forever.
#[test]
fn server_guard_drains_once_and_reports_a_missing_banner() {
    let binary = std::path::PathBuf::from(env!("CARGO_BIN_EXE_critic"));
    let args: Vec<String> = ["serve", "--port", "0", "--trace-len", "400"]
        .map(String::from)
        .to_vec();
    let mut server = Server::spawn(&binary, &args).expect("serve prints its banner");
    assert!(server.addr.starts_with("127.0.0.1:"), "{}", server.addr);
    assert_eq!(server.shutdown(), Some(9));
    assert_eq!(server.shutdown(), None);
    assert!(Server::spawn(&binary, &["no-such-command".to_string()]).is_err());
}

#[test]
fn smoke_soak_survives_sigkill_restart_and_overload() {
    let config = SoakConfig {
        seconds: 4,
        clients: 3,
        rate: 3.0,
        kill: true,
        sys: vec![critic_workloads::SysFaultSpec::parse("journal-write@3").expect("valid spec")],
        smoke: true,
        seed: 9,
        binary: Some(std::path::PathBuf::from(env!("CARGO_BIN_EXE_critic"))),
    };
    let report = run_soak(&config).expect("soak orchestration runs");
    assert!(
        report.ok(),
        "soak invariants broken: {:?}",
        report.violations
    );
    assert!(report.killed);
    assert!(report.acked_before_kill > 0);
    assert!(report.disk_hits_after_restart > 0);
    assert_eq!(report.server_exit_code, Some(9));
    assert!(report.phase_overload.rejected > 0);
}

#[test]
fn sharded_smoke_soak_kills_a_shard_and_rejoins_disk_warm() {
    let config = ShardedSoakConfig {
        seconds: 6,
        clients: 4,
        rate: 4.0,
        shards: 3,
        smoke: true,
        seed: 7,
        binary: Some(std::path::PathBuf::from(env!("CARGO_BIN_EXE_critic"))),
        max_p99_ms: None,
    };
    let report = run_sharded_soak(&config).expect("sharded soak orchestration runs");
    assert!(
        report.ok(),
        "sharded soak invariants broken: {:?}",
        report.violations
    );
    assert!(report.killed_shard.is_some());
    assert!(report.acked_before_kill > 0);
    assert!(
        report.fetched_artifacts > 0,
        "the restarted shard must rejoin warm via peer fetch"
    );
    assert_eq!(report.resimulated, 0, "nothing acked pre-kill re-simulates");
    assert_eq!(
        report.oracle_mismatches, 0,
        "sharding never changes results"
    );
    assert!(report.oracle_compared > 0);
    assert_eq!(report.router_exit_code, Some(9));
}

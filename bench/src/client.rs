//! The benchmark's own open-loop client and the in-process server it talks
//! to. One TCP connection, two threads: the pacer sends each request when it
//! is due, the reader timestamps every reply. Requests are timed from their
//! due time, so a stall that delays later sends is charged to them.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use critic_bench::serve::{parse_reply, serve_on, Reply, ShardContext, SubmitBody, SubmitRequest};
use critic_core::service::{CampaignService, ServiceConfig};
use critic_core::{CellRecord, CellStatus};

use crate::spans::SpanLog;

/// A campaign service behind `serve_on` on an ephemeral loopback port.
pub struct LiveService {
    /// Where it listens.
    pub addr: SocketAddr,
    /// The service itself (for its store counters).
    pub service: CampaignService,
    shutdown: Arc<AtomicBool>,
    server: JoinHandle<()>,
}

impl LiveService {
    /// Opens the service and starts accepting connections.
    pub fn start(config: ServiceConfig) -> Result<LiveService, String> {
        let service = CampaignService::open(config).map_err(|e| format!("service open: {e}"))?;
        let listener =
            TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind 127.0.0.1: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = {
            let service = service.clone();
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || {
                serve_on(listener, &service, &shutdown, &ShardContext::default());
            })
        };
        Ok(LiveService {
            addr,
            service,
            shutdown,
            server,
        })
    }

    /// Drains the service (every accepted cell finishes) and joins the
    /// server thread.
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.server
            .join()
            .map_err(|_| "server thread panicked".to_string())
    }
}

/// One request of a schedule.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Wire id, unique within the run; the ids of one schedule are
    /// consecutive.
    pub id: u64,
    /// When it is due, from the schedule's start.
    pub due: Duration,
    /// Table II app name.
    pub app: String,
    /// Wire scheme name.
    pub scheme: String,
    /// Load phase (0 = light, 1 = heavy).
    pub phase: usize,
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    /// When the request was due.
    pub due: Option<Instant>,
    /// When the request was written.
    pub sent: Option<Instant>,
    /// When `accepted` arrived.
    pub accepted: Option<Instant>,
    /// Admission refused it.
    pub rejected: bool,
    /// When `done` arrived.
    pub done: Option<Instant>,
    /// The terminal record.
    pub record: Option<CellRecord>,
}

/// A finished schedule.
#[derive(Default)]
pub struct Drive {
    /// One answer per planned request, in plan order.
    pub answers: Vec<Answer>,
    /// Every reply line, when kept.
    pub lines: Vec<String>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Drive {
    /// Appends the answers of a schedule sent after this one.
    pub fn append(&mut self, mut later: Drive) {
        self.answers.append(&mut later.answers);
        self.lines.append(&mut later.lines);
    }

    /// Milliseconds from the request's due time to its `done` reply.
    pub fn latency_ms(&self, i: usize) -> Option<f64> {
        let a = &self.answers[i];
        Some(ms(a.done?.saturating_duration_since(a.due?)))
    }

    /// Milliseconds the pacer wrote the request after it was due.
    pub fn late_ms(&self, i: usize) -> Option<f64> {
        let a = &self.answers[i];
        Some(ms(a.sent?.saturating_duration_since(a.due?)))
    }

    /// Milliseconds from writing the request to its `accepted` reply.
    pub fn admit_ms(&self, i: usize) -> Option<f64> {
        let a = &self.answers[i];
        Some(ms(a.accepted?.saturating_duration_since(a.sent?)))
    }

    /// Whether the request finished `Ok` below degradation level 3 (level 3
    /// swaps in the baseline design point, so its result is not the one
    /// asked for).
    pub fn ok(&self, i: usize) -> bool {
        self.answers[i].record.as_ref().is_some_and(|r| {
            r.status == CellStatus::Ok && r.metrics.is_some() && r.degraded.unwrap_or(0) < 3
        })
    }
}

/// Sends `plan` over one connection to `addr` and collects every reply,
/// waiting at most `drain` after the last send for outstanding answers.
/// With `spans`, every request with an even id is traced live by the reader
/// (odd ones are the untraced control for the tracing overhead).
pub fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    drain: Duration,
    keep_lines: bool,
    spans: Option<&SpanLog>,
) -> Result<Drive, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    read_half
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(20);
    let answers = Mutex::new(
        plan.iter()
            .map(|req| Answer {
                due: Some(start + req.due),
                ..Answer::default()
            })
            .collect::<Vec<_>>(),
    );
    let stop = AtomicBool::new(false);
    let reader = Reader {
        answers: &answers,
        stop: &stop,
        plan,
        spans,
        keep_lines,
    };
    let reader = &reader;
    let lines = thread::scope(|scope| -> Result<Vec<String>, String> {
        let handle = scope.spawn(move || reader.run(read_half));
        let mut writer = &stream;
        let mut sent = Ok(());
        for (i, req) in plan.iter().enumerate() {
            let due = start + req.due;
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let request = SubmitRequest {
                submit: SubmitBody {
                    id: req.id,
                    app: req.app.clone(),
                    scheme: req.scheme.clone(),
                    deadline_ms: None,
                },
            };
            let line = match serde_json::to_string(&request) {
                Ok(json) => json + "\n",
                Err(e) => {
                    sent = Err(e.to_string());
                    break;
                }
            };
            answers.lock().expect("answer lock poisoned")[i].sent = Some(Instant::now());
            if let Err(e) = writer.write_all(line.as_bytes()) {
                sent = Err(format!("send: {e}"));
                break;
            }
        }
        let deadline = Instant::now() + drain;
        while !handle.is_finished() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        let lines = handle
            .join()
            .map_err(|_| "reply reader panicked".to_string())?;
        sent.map(|()| lines)
    })?;
    let answers = answers.into_inner().expect("answer lock poisoned");
    Ok(Drive { answers, lines })
}

/// The reader thread's view of one schedule.
struct Reader<'a> {
    answers: &'a Mutex<Vec<Answer>>,
    stop: &'a AtomicBool,
    plan: &'a [Planned],
    spans: Option<&'a SpanLog>,
    keep_lines: bool,
}

impl Reader<'_> {
    /// Timestamps replies until every request has a terminal answer, the
    /// server hangs up, or `stop` is raised.
    fn run(&self, stream: TcpStream) -> Vec<String> {
        let mut reader = BufReader::new(stream);
        let mut lines = Vec::new();
        let mut terminal = 0;
        let mut line = String::new();
        // A reply's slot in the plan: the ids of one plan are consecutive.
        let first = self.plan.first().map_or(0, |p| p.id);
        let slot = |id: u64| id.checked_sub(first).map(|i| i as usize);
        while terminal < self.plan.len() && !self.stop.load(Ordering::SeqCst) {
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {}
                // A timed-out read keeps what it consumed of a line in `line`;
                // the next read completes it.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue
                }
                Err(_) => break,
            }
            let now = Instant::now();
            let mut answers = self.answers.lock().expect("answer lock poisoned");
            match parse_reply(&line) {
                Some(Reply::Accepted(body)) => {
                    if let Some(a) = slot(body.id).and_then(|i| answers.get_mut(i)) {
                        a.accepted = Some(now);
                    }
                }
                Some(Reply::Rejected(body)) => {
                    if let Some(a) = slot(body.id).and_then(|i| answers.get_mut(i)) {
                        a.rejected = true;
                        terminal += 1;
                    }
                }
                Some(Reply::Done(body)) => {
                    if let Some(a) = slot(body.id).and_then(|i| answers.get_mut(i)) {
                        a.done = Some(now);
                        a.record = Some(body.record);
                        terminal += 1;
                        if body.id.is_multiple_of(2) {
                            self.trace(body.id, a);
                        }
                    }
                }
                _ => {}
            }
            drop(answers);
            if self.keep_lines {
                lines.push(std::mem::take(&mut line));
            } else {
                line.clear();
            }
        }
        lines
    }

    /// Spans of one finished request: due → done, split into the pacer's
    /// lateness, admission (send → accepted) and service (accepted → done).
    fn trace(&self, id: u64, answer: &Answer) {
        let (Some(spans), Some(due), Some(sent), Some(done)) =
            (self.spans, answer.due, answer.sent, answer.done)
        else {
            return;
        };
        let key = format!("request-{id}");
        let due = spans.at_us(due);
        let parent = Some(spans.record(None, "request", &key, due, spans.at_us(done), 1.0));
        spans.record(parent, "request.late", &key, due, spans.at_us(sent), 0.0);
        if let Some(accepted) = answer.accepted {
            let accepted = spans.at_us(accepted);
            spans.record(
                parent,
                "request.admit",
                &key,
                spans.at_us(sent),
                accepted,
                0.0,
            );
            spans.record(
                parent,
                "request.serve",
                &key,
                accepted,
                spans.at_us(done),
                0.0,
            );
        }
    }
}

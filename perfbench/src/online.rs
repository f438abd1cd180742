//! The online path: the `flowtimed` binary over loopback TCP with a
//! write-ahead log under the default fsync policy and snapshot cadence.
//!
//! One round, on a fresh daemon and WAL directory:
//!
//! 1. requests paced at a fixed rate with at most one in flight:
//!    workflow and ad-hoc submits in arrival order, a `tick` every
//!    `TICK_GAP` slots, and a `status` or `query` after every `READ_EVERY`
//!    submits, each timed from its due time, so a stall delays every
//!    request due during it;
//! 2. the rest of the submits as one pipelined burst, ending on a
//!    snapshot point;
//! 3. `status` reads open-loop at the same rate, which show the daemon's
//!    Nagle-delayed acks once two replies are in flight;
//! 4. stop, then `RESTARTS` restarts, each from a fresh copy of the WAL
//!    directory made outside the timed span;
//! 5. `drain`, then `outcome`, which must equal byte for byte a batch
//!    replay (`Engine::from_log`) of the log the benchmark rebuilds from
//!    its own requests and acks.
//!
//! The client is two threads (writer and reader) on one connection.

use crate::batch::{self, Timed, WORKFLOW_SEED};
use crate::checks;
use crate::spans::{self, enter};
use crate::stats::{median, peak_rss_mb, percentile, secs};
use crate::Report;
use flowtime::schedulers::{FlowTimeConfig, FlowTimeScheduler};
use flowtime_daemon::protocol::parse_request;
use flowtime_daemon::{handle_line, snapshot, wal, Session, SessionConfig, WalConfig, WalRecord};
use flowtime_sim::{
    certify_log, AdhocSubmission, ClusterConfig, Engine, LogEntry, Scheduler, SubmissionLog,
    WorkflowSubmission,
};
use flowtime_workload::Trace;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

const CORES: u64 = 64;
const MAX_SLOTS: u64 = 100_000;
/// `flowtimed`'s default periodic snapshot cadence, mirrored in process.
const SNAPSHOT_EVERY: u64 = 256;
const WORKFLOWS: usize = 3;
const JOBS_PER_WORKFLOW: usize = 18;
/// Tight deadlines on a 64-core cluster: FlowTime misses about 11 of the
/// 54 deadline jobs, and ad-hoc jobs queue behind the workflows.
const LOOSENESS: f64 = 2.5;
const ADHOC_JOBS: usize = 940;
const ADHOC_RATE: f64 = 0.2;
/// Submits sent as the pipelined burst (the last ones in arrival order).
/// It is aligned to end on a snapshot point, so it times the request path
/// (parse, WAL append and fsync, apply) between two periodic snapshots;
/// snapshot stalls show in the paced phase's `op_p99_ms` and in restarts.
const BURST: usize = 250;
/// Paced request rate: well under the ~700 req/s one fsync per request
/// allows, and low enough that the daemon is idle between the replans
/// and snapshots that stall it.
const RATE_PER_S: f64 = 250.0;
/// `status` reads sent open-loop after the burst. With the requests
/// around them, fewer than a snapshot interval, so they trigger no
/// snapshot before the stop.
const PROBE: usize = 240;
const TICK_GAP: u64 = 25;
const READ_EVERY: usize = 3;
const RESTARTS: usize = 2;
/// Extra fresh spawns per round, so `setup_s` is a median of about a
/// hundred: with five, its spread between runs reached 0.42.
const FRESH_SPAWNS: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Submit,
    Tick,
    Read,
}

struct Req {
    kind: Kind,
    line: String,
}

enum Sub {
    Workflow(WorkflowSubmission),
    Adhoc(AdhocSubmission),
}

impl Sub {
    fn jobs(&self) -> usize {
        match self {
            Sub::Workflow(w) => w.workflow.len(),
            Sub::Adhoc(_) => 1,
        }
    }
}

/// The request stream of one round, built from the seed alone.
struct Plan {
    paced: Vec<Req>,
    burst_pad: usize,
    burst: Vec<Req>,
    probe: Vec<Req>,
    /// Every submission, in the order it is sent.
    subs: Vec<Sub>,
    cluster: ClusterConfig,
}

fn cluster() -> ClusterConfig {
    batch::cluster(CORES)
}

fn build_plan(seed: u64) -> Plan {
    let _s = enter("online.plan");
    let shape = batch::Shape {
        cores: CORES,
        workflows: WORKFLOWS,
        jobs_per_workflow: JOBS_PER_WORKFLOW,
        looseness: LOOSENESS,
        adhoc_jobs: ADHOC_JOBS,
        adhoc_rate: ADHOC_RATE,
    };
    let mut trace = {
        let _s = enter("workload.synthesize_production");
        Trace::synthesize_production(cluster(), &batch::workflow_config(&shape), WORKFLOW_SEED)
    };
    batch::attach_milestones(&mut trace);
    let mut subs: Vec<(u64, Sub)> = trace
        .workload
        .workflows
        .into_iter()
        .map(|w| (w.workflow.submit_slot(), Sub::Workflow(w)))
        .collect();
    // The seed draws the ad-hoc jobs' sizes; their arrivals are evenly
    // spaced, so every seed sends the same request timeline and the
    // daemon's replan and snapshot stalls land at the same points of it.
    subs.extend(
        batch::adhoc_stream(ADHOC_RATE, ADHOC_JOBS, seed)
            .into_iter()
            .map(|a| (a.arrival_slot, Sub::Adhoc(a))),
    );
    subs.sort_by_key(|(arrival, _)| *arrival);

    let submit_line = |sub: &Sub| match sub {
        Sub::Workflow(w) => format!(
            "{{\"req\":\"submit_workflow\",\"submission\":{}}}",
            serde_json::to_string(w).expect("submission serializes")
        ),
        Sub::Adhoc(a) => format!(
            "{{\"req\":\"submit_adhoc\",\"submission\":{}}}",
            serde_json::to_string(a).expect("submission serializes")
        ),
    };
    let paced_count = subs.len() - BURST;
    let mut paced = Vec::new();
    let mut burst = Vec::new();
    let mut last_tick = 0;
    for (i, (arrival, sub)) in subs.iter().enumerate() {
        let line = submit_line(sub);
        if i >= paced_count {
            burst.push(Req {
                kind: Kind::Submit,
                line,
            });
            continue;
        }
        // Ticks land on fixed slots, so the engine work each one does
        // depends on the workflow set, not on the seed's arrivals.
        while *arrival >= last_tick + TICK_GAP {
            last_tick += TICK_GAP;
            paced.push(Req {
                kind: Kind::Tick,
                line: format!("{{\"req\":\"tick\",\"to\":{last_tick}}}"),
            });
        }
        paced.push(Req {
            kind: Kind::Submit,
            line,
        });
        let submitted = i + 1;
        if submitted % READ_EVERY == 0 {
            let line = if (submitted / READ_EVERY).is_multiple_of(2) {
                "{\"req\":\"status\"}".to_string()
            } else {
                format!("{{\"req\":\"query\",\"sub\":{}}}", submitted / 2)
            };
            paced.push(Req {
                kind: Kind::Read,
                line,
            });
        }
    }
    // The daemon counts every request line: the spawn's `status`, the
    // paced requests and one `status` come before the burst. `burst_pad`
    // more `status` requests make the burst's last submit land on a
    // snapshot point.
    let before = paced.len() + 2 + BURST;
    let every = SNAPSHOT_EVERY as usize;
    Plan {
        burst_pad: (every - before % every) % every,
        paced,
        burst,
        probe: (0..PROBE)
            .map(|_| Req {
                kind: Kind::Read,
                line: "{\"req\":\"status\"}".to_string(),
            })
            .collect(),
        subs: subs.into_iter().map(|(_, s)| s).collect(),
        cluster: trace.cluster,
    }
}

/// A running `flowtimed`; killed and reaped on drop.
struct Daemon {
    child: Child,
    stderr: BufReader<ChildStderr>,
    conn: Conn,
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn send(&mut self, line: &str) {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes).expect("request written");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("response read");
        assert!(n > 0, "daemon closed the connection");
        line.truncate(line.trim_end().len());
        line
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

impl Daemon {
    /// Spawns `flowtimed` on `wal_dir` and returns it with the time from
    /// spawn to its first accepted request, and that request's reply (a
    /// `status`).
    fn spawn(bin: &Path, wal_dir: &Path) -> (Daemon, f64, String) {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--scheduler", "flowtime"])
            .args(["--cores", &CORES.to_string()])
            .args(["--mem-mb", &(CORES * 4096).to_string()])
            .args(["--max-slots", &MAX_SLOTS.to_string()])
            .arg("--wal-dir")
            .arg(wal_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("flowtimed starts");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line).expect("daemon stderr") == 0 {
                let _ = child.wait();
                panic!("flowtimed exited before listening");
            }
            if let Some(addr) = line.trim().strip_prefix("flowtimed: listening on ") {
                break addr.to_string();
            }
        };
        let stream = TcpStream::connect(&addr).expect("daemon accepts");
        stream.set_nodelay(true).expect("nodelay");
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone().expect("stream clones")),
            writer: stream,
        };
        let status = conn.request("{\"req\":\"status\"}");
        let setup = secs(t);
        assert!(
            status.starts_with("{\"ok\":"),
            "first status failed: {status}"
        );
        (
            Daemon {
                child,
                stderr,
                conn,
            },
            setup,
            status,
        )
    }

    /// Sends `shutdown` and waits for the process to exit cleanly.
    fn shutdown(mut self) {
        let ack = self.conn.request("{\"req\":\"shutdown\"}");
        assert_eq!(ack, "{\"ok\":{\"shutdown\":true}}", "shutdown refused");
        let status = self.child.wait().expect("daemon reaped");
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stderr, &mut rest);
        assert!(status.success(), "flowtimed exited with {status}: {rest}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// How the writer thread paces its requests.
#[derive(Clone, Copy)]
enum Pace {
    /// `rate` per second, each request sent only once the previous reply
    /// is in, as a synchronous client sends: at most one in flight.
    Serial(f64),
    /// `rate` per second, whether or not earlier replies are in; the
    /// first two together, so two replies are in flight from the start.
    Open(f64),
    /// All at once.
    Burst,
}

/// Sends `reqs` from one writer thread while this thread reads the
/// replies. Returns each reply with its latency from due time (ms), how
/// late the writer ran (ms), and the seconds from start to last reply.
fn send_paced(conn: &mut Conn, reqs: &[Req], pace: Pace) -> (Vec<(String, f64)>, f64, f64) {
    let mut writer = conn.writer.try_clone().expect("stream clones");
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| match pace {
        Pace::Serial(r) => start + Duration::from_secs_f64(i as f64 / r),
        Pace::Open(r) => start + Duration::from_secs_f64(i.saturating_sub(1) as f64 / r),
        Pace::Burst => start,
    };
    let serial = matches!(pace, Pace::Serial(_));
    let (replied, reply_in) = std::sync::mpsc::channel::<()>();
    let mut out = Vec::with_capacity(reqs.len());
    let late_ms = std::thread::scope(|s| {
        let w = s.spawn(move || {
            let mut late = Duration::ZERO;
            let mut buf = Vec::new();
            for (i, r) in reqs.iter().enumerate() {
                if serial && i > 0 {
                    reply_in.recv().expect("reader thread");
                }
                let d = due(i);
                let ready = Instant::now();
                if d > ready {
                    std::thread::sleep(d - ready);
                }
                // A serial request sent after its due time waited for a
                // late reply, not for the writer.
                if !serial || d > ready {
                    late = late.max(Instant::now().saturating_duration_since(d));
                }
                buf.clear();
                buf.extend_from_slice(r.line.as_bytes());
                buf.push(b'\n');
                writer.write_all(&buf).expect("request written");
            }
            late.as_secs_f64() * 1e3
        });
        for i in 0..reqs.len() {
            let line = conn.recv();
            let latency = Instant::now().saturating_duration_since(due(i));
            out.push((line, latency.as_secs_f64() * 1e3));
            // The writer may have finished; a closed channel is fine.
            let _ = replied.send(());
        }
        w.join().expect("writer thread")
    });
    let span_s = secs(start);
    (out, late_ms, span_s)
}

/// The `"sub":N` of a submit ack.
fn ack_seq(line: &str) -> u64 {
    let v = serde_json::parse(line).expect("ack is JSON");
    match v.get("ok").and_then(|o| o.get("sub")) {
        Some(serde_json::Value::U64(n)) => *n,
        _ => panic!("submit ack without a sequence number: {line}"),
    }
}

/// `(now, logged, pending)` of an accepting session's `status` reply.
fn status_key(line: &str) -> (u64, u64, u64) {
    let v = serde_json::parse(line).expect("status is JSON");
    let ok = v.get("ok").expect("status ok");
    let num = |x: Option<&serde_json::Value>| match x {
        Some(serde_json::Value::U64(n)) => *n,
        other => panic!("status field is not a count: {other:?} in {line}"),
    };
    (
        num(ok.get("engine").and_then(|e| e.get("now"))),
        num(ok.get("logged")),
        num(ok.get("pending")),
    )
}

/// The drained outcome must be the batch replay's, byte for byte.
fn same_outcome(drained: &str, replayed: &str) -> Result<(), String> {
    match drained
        .bytes()
        .zip(replayed.bytes())
        .position(|(a, b)| a != b)
    {
        None if drained.len() == replayed.len() => Ok(()),
        at => Err(format!(
            "drained outcome differs from the batch replay at byte {}",
            at.unwrap_or(drained.len().min(replayed.len()))
        )),
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    setups: Vec<f64>,
    lat: Vec<(Kind, f64)>,
    late_ms: f64,
    burst_acks_per_s: f64,
    pipelined_read_ms: f64,
    restarts: Vec<f64>,
    rss_mb: f64,
    requests: u64,
    outcome: String,
    /// The submission log rebuilt from the requests and their acks.
    log: SubmissionLog,
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("copy target");
    for e in std::fs::read_dir(from).expect("wal dir lists") {
        let e = e.expect("dir entry");
        std::fs::copy(e.path(), to.join(e.file_name())).expect("wal file copies");
    }
}

fn round(bin: &Path, plan: &Plan, dir: &Path) -> Round {
    let _s = enter("online.round");
    let mut r = Round::default();
    let wal_dir = dir.join("wal");
    let (mut d, setup, _) = Daemon::spawn(bin, &wal_dir);
    r.setups.push(setup);
    r.requests += 1;

    let (paced, late_ms, _) = send_paced(&mut d.conn, &plan.paced, Pace::Serial(RATE_PER_S));
    // Round trips first, so the burst starts on an idle daemon at the
    // planned point of its snapshot cadence.
    for _ in 0..=plan.burst_pad {
        let idle = d.conn.request("{\"req\":\"status\"}");
        assert!(idle.starts_with("{\"ok\":"), "status failed: {idle}");
    }
    let (burst, _, burst_s) = send_paced(&mut d.conn, &plan.burst, Pace::Burst);
    // Reads at the same rate, not waiting for replies, once the snapshot
    // the burst ended on is written (a round trip waits it out). With two
    // replies in flight the daemon's Nagle-delayed acks show: each waits
    // for the next request to carry the client's ACK. The median is over
    // the second half, when that has settled.
    let idle = d.conn.request("{\"req\":\"status\"}");
    assert!(idle.starts_with("{\"ok\":"), "status failed: {idle}");
    let (probe, probe_late_ms, _) = send_paced(&mut d.conn, &plan.probe, Pace::Open(RATE_PER_S));
    for (line, _) in &probe {
        assert!(line.starts_with("{\"ok\":"), "probe read failed: {line}");
    }
    let settled: Vec<f64> = probe[PROBE / 2..].iter().map(|(_, l)| *l).collect();
    r.pipelined_read_ms = median(&settled);
    r.late_ms = late_ms.max(probe_late_ms);
    r.burst_acks_per_s = plan.burst.len() as f64 / burst_s;
    r.requests += (paced.len() + 1 + plan.burst_pad + burst.len() + 1 + probe.len()) as u64;

    // Every reply is `ok`, and submits got contiguous sequence numbers;
    // rebuild the submission log from the requests and acks.
    let mut subs = plan.subs.iter();
    let mut now = 0;
    let reqs = plan.paced.iter().chain(&plan.burst);
    for (req, (line, _)) in reqs.zip(paced.iter().chain(&burst)) {
        assert!(line.starts_with("{\"ok\":"), "request failed: {line}");
        match req.kind {
            Kind::Submit => {
                let seq = ack_seq(line);
                assert_eq!(seq, r.log.entries.len() as u64, "sequence numbers skip");
                let entry = match subs.next().expect("one submission per submit") {
                    Sub::Workflow(w) => LogEntry::Workflow {
                        seq,
                        at: now,
                        submission: w.clone(),
                    },
                    Sub::Adhoc(a) => LogEntry::Adhoc {
                        seq,
                        at: now,
                        submission: a.clone(),
                    },
                };
                r.log.entries.push(entry);
            }
            Kind::Tick => {
                let v = serde_json::parse(line).expect("tick ack is JSON");
                now = match v.get("ok").and_then(|o| o.get("now")) {
                    Some(serde_json::Value::U64(n)) => *n,
                    _ => panic!("tick ack without now: {line}"),
                };
            }
            Kind::Read => {}
        }
    }
    r.lat = plan
        .paced
        .iter()
        .zip(&paced)
        .map(|(q, (_, l))| (q.kind, *l))
        .collect();

    let before = status_key(&d.conn.request("{\"req\":\"status\"}"));
    r.rss_mb = peak_rss_mb(&d.child.id().to_string());
    d.shutdown();
    r.requests += 2;

    let mut last = None;
    for i in 0..RESTARTS {
        let copy = dir.join(format!("restart-{i}"));
        copy_dir(&wal_dir, &copy);
        let (d, restart_s, status) = Daemon::spawn(bin, &copy);
        r.restarts.push(restart_s);
        r.requests += 1;
        assert_eq!(
            status_key(&status),
            before,
            "restart {i} did not recover the stopped session"
        );
        if i + 1 < RESTARTS {
            d.shutdown();
            r.requests += 1;
        } else {
            last = Some(d);
        }
    }
    let mut d = last.expect("at least one restart");
    let drained = d.conn.request("{\"req\":\"drain\"}");
    assert!(
        drained.contains("\"complete\":true"),
        "drain incomplete: {drained}"
    );
    let outcome = d.conn.request("{\"req\":\"outcome\"}");
    r.outcome = outcome
        .strip_prefix("{\"ok\":{\"outcome\":")
        .and_then(|s| s.strip_suffix("}}"))
        .unwrap_or_else(|| panic!("outcome reply malformed"))
        .to_string();
    d.shutdown();
    r.requests += 3;

    for i in 0..FRESH_SPAWNS {
        let (d, setup, _) = Daemon::spawn(bin, &dir.join(format!("fresh-{i}")));
        r.setups.push(setup);
        d.shutdown();
        r.requests += 2;
    }
    r
}

/// The batch replay of a round's log: certified, recounted, and returned
/// with its serialized outcome and the wrapped scheduler.
fn replay(cluster: &ClusterConfig, log: &SubmissionLog) -> Replay {
    let _s = enter("online.replay");
    let (engine, handle) = {
        let _s = enter("engine.new");
        Engine::from_log(cluster.clone(), log, MAX_SLOTS)
            .expect("log replays")
            .with_trace(flowtime_sim::DEFAULT_TRACE_CAPACITY)
    };
    let mut sched = Timed::new(FlowTimeScheduler::new(
        cluster.clone(),
        FlowTimeConfig::default(),
    ));
    let outcome = {
        let _s = enter("engine.run");
        engine.run(&mut sched).expect("replay runs")
    };
    let decisions = handle.take();
    let report = {
        let _s = enter("audit.certify");
        certify_log(cluster, log, &outcome, &decisions)
    };
    assert!(
        report.is_certified(),
        "replay not certified: {}",
        report.summary()
    );
    let rows = checks::log_table(log);
    let quality = checks::recount(cluster, &rows, &outcome, &decisions).expect("replay recount");
    Replay {
        bytes: serde_json::to_string(&outcome).expect("outcome serializes"),
        quality,
        sched,
        trace_events: decisions.recorded(),
        outcome,
    }
}

struct Replay {
    bytes: String,
    quality: checks::Quality,
    sched: Timed<FlowTimeScheduler>,
    trace_events: u64,
    outcome: flowtime_sim::SimOutcome,
}

pub fn run(bin: &Path, seed: u64, seconds: f64, out_dir: &Path, report: &mut Report) {
    let traced = spans::enabled();
    let plan = build_plan(seed);
    let work = out_dir.join(format!("online-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);

    // Whole rounds only, as many as fit in `seconds`.
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut last = 0.0;
    while rounds.is_empty() || secs(start) + last <= seconds {
        spans::set_scope("round", rounds.len() as u64);
        let dir = work.join(format!("round-{}", rounds.len()));
        let t = Instant::now();
        rounds.push(round(bin, &plan, &dir));
        last = secs(t);
        std::fs::remove_dir_all(&dir).expect("round directory removed");
    }

    spans::set_scope("replay", 0);
    let Replay {
        bytes,
        quality,
        sched,
        trace_events,
        outcome,
    } = replay(&plan.cluster, &rounds[0].log);
    for (i, r) in rounds.iter().enumerate() {
        same_outcome(&r.outcome, &bytes).unwrap_or_else(|e| panic!("round {i}: {e}"));
    }

    let lat = |k: Kind| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| r.lat.iter())
            .filter(|(kind, _)| *kind == k)
            .map(|(_, l)| *l)
            .collect()
    };
    let setups: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.setups.iter().copied())
        .collect();
    let restarts: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.restarts.iter().copied())
        .collect();
    let burst: Vec<f64> = rounds.iter().map(|r| r.burst_acks_per_s).collect();
    let slot_s = plan.cluster.slot_seconds();
    report.attempted = rounds.iter().map(|r| r.requests).sum();
    report.e2e("setup_s", median(&setups));
    report.e2e(
        "peak_rss_mb",
        median(&rounds.iter().map(|r| r.rss_mb).collect::<Vec<_>>()),
    );
    // A restart re-simulates the whole session (snapshot load, then a
    // replay of the log through the engine): the online path's jobs
    // carried to a recovered state per second. The pipelined burst is
    // fsync-bound and moved 2x between minutes of the same run on this
    // host, so it stays a per-layer figure.
    let jobs = plan.subs.iter().map(Sub::jobs).sum::<usize>() as f64;
    report.e2e(
        "jobs_per_s",
        median(&restarts.iter().map(|s| jobs / s).collect::<Vec<_>>()),
    );
    // Per-round percentiles (each round times over 1,000 requests), then
    // the median over rounds: one disturbed round cannot move it.
    let per_round = |q: f64| -> Vec<f64> {
        rounds
            .iter()
            .map(|r| percentile(&r.lat.iter().map(|x| x.1).collect::<Vec<_>>(), q))
            .collect()
    };
    report.e2e("op_p50_ms", median(&per_round(0.5)));
    report.e2e("op_p99_ms", median(&per_round(0.99)));
    report.e2e("adhoc_tat_mean_s", quality.adhoc_tat_mean_slots() * slot_s);
    report.e2e("deadline_jobs_met", quality.deadline_jobs_met as f64);
    report.note(format!(
        "online: {} rounds, {} requests ({} paced at {RATE_PER_S}/s, {} burst), {} jobs ({} ad-hoc, {} deadline met), restarts median {:.4} s, late max {:.3} ms",
        rounds.len(),
        report.attempted,
        plan.paced.len(),
        plan.burst.len(),
        outcome.metrics.jobs.len(),
        quality.adhoc_jobs,
        quality.deadline_jobs_met,
        median(&restarts),
        rounds.iter().map(|r| r.late_ms).fold(0.0, f64::max),
    ));

    for r in &rounds {
        let l: Vec<f64> = r.lat.iter().map(|x| x.1).collect();
        report.note(format!(
            "round: burst {:.1} acks/s, open-loop read p50 {:.3} ms, op p50 {:.3} ms, p99 {:.1} ms, restarts {:?} s, setup median {:.5} s",
            r.burst_acks_per_s,
            r.pipelined_read_ms,
            percentile(&l, 0.5),
            percentile(&l, 0.99),
            r.restarts,
            median(&r.setups)
        ));
    }
    if traced {
        report.layer("client.requests", report.attempted as f64);
        report.layer(
            "client.late_ms_max",
            rounds.iter().map(|r| r.late_ms).fold(0.0, f64::max),
        );
        report.layer(
            "client.submit_ack_p50_ms",
            percentile(&lat(Kind::Submit), 0.5),
        );
        report.layer(
            "client.submit_ack_p99_ms",
            percentile(&lat(Kind::Submit), 0.99),
        );
        report.layer("client.tick_ack_p50_ms", percentile(&lat(Kind::Tick), 0.5));
        report.layer("client.tick_ack_p99_ms", percentile(&lat(Kind::Tick), 0.99));
        report.layer("client.read_ack_p50_ms", percentile(&lat(Kind::Read), 0.5));
        report.layer("client.read_ack_p99_ms", percentile(&lat(Kind::Read), 0.99));
        report.layer(
            "client.pipelined_read_ack_p50_ms",
            median(
                &rounds
                    .iter()
                    .map(|r| r.pipelined_read_ms)
                    .collect::<Vec<_>>(),
            ),
        );
        report.layer("client.saturated_acks_per_s", median(&burst));
        report.layer("client.restart_s", median(&restarts));
        report.layer("scheduler.plan_calls", sched.calls as f64);
        report.layer("scheduler.s", sched.total_s);
        report.layer("scheduler.replan_slots", sched.replan_slots as f64);
        report.layer("scheduler.replan_s", sched.replan_s);
        report.layer("scheduler.steady_s", sched.total_s - sched.replan_s);
        report.solver(&sched.telemetry().unwrap_or_default());
        report.engine(&outcome.engine_telemetry);
        report.layer("workload.jobs", outcome.metrics.jobs.len() as f64);
        report.layer("trace.events", trace_events as f64);
        // Tracing overhead: the replay with spans on against spans off.
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for i in 1..=3 {
            spans::set_scope("replay", i);
            let t = Instant::now();
            replay(&plan.cluster, &rounds[0].log);
            on.push(secs(t));
            spans::set_enabled(false);
            let t = Instant::now();
            replay(&plan.cluster, &rounds[0].log);
            off.push(secs(t));
            spans::set_enabled(true);
        }
        report.layer(
            "trace.overhead_pct",
            100.0 * (median(&on) / median(&off) - 1.0),
        );
        in_process(
            &plan,
            &work.join("in-process"),
            percentile(&lat(Kind::Submit), 0.5),
            report,
        );
        let spans_all = spans::take();
        // Set-up spans carry the default scope; the first replay is the
        // one checked against the daemon, the others time the overhead.
        let setup = spans::totals(&spans_all, |s| s.scope.0 == "run");
        let first = spans::totals(&spans_all, |s| s.scope == ("replay", 0));
        let self_s = |t: &spans::Totals, n: &str| t.get(n).map_or(0.0, |v| v.self_s);
        report.layer(
            "workload.synthesize_s",
            self_s(&setup, "workload.synthesize_production"),
        );
        report.layer("decompose.s", self_s(&setup, "decompose.decompose"));
        report.layer(
            "decompose.calls",
            setup.get("decompose.decompose").map_or(0, |v| v.count) as f64,
        );
        report.layer(
            "engine.self_s",
            self_s(&first, "engine.new") + self_s(&first, "engine.run"),
        );
        report.layer("audit.s", self_s(&first, "audit.certify"));
        report.spans = spans_all;
    }
    let _ = std::fs::remove_dir_all(&work);
}

/// Per-layer figures for the daemon's layers, from the same request lines
/// fed through `server::handle_line` to an in-process session whose WAL
/// sits in `dir` under the same fsync policy and snapshot cadence.
fn in_process(plan: &Plan, dir: &Path, client_submit_p50: f64, report: &mut Report) {
    spans::set_scope("in-process", 0);
    let config = SessionConfig {
        cluster: plan.cluster.clone(),
        scheduler: "flowtime".into(),
        max_slots: MAX_SLOTS,
        trace_capacity: 4096,
        snapshot_path: None,
        pods: 0,
        placer: None,
    };
    let wal_dir = dir.join("wal");
    let (mut session, _) = {
        let _s = enter("session.recover");
        Session::recover(config.clone(), WalConfig::new(&wal_dir), None).expect("fresh session")
    };
    // The daemon's handled order up to the burst's end: the spawn's
    // `status`, the paced phase, the alignment `status` requests, the burst.
    let status = Req {
        kind: Kind::Read,
        line: "{\"req\":\"status\"}".to_string(),
    };
    let reqs: Vec<&Req> = std::iter::once(&status)
        .chain(&plan.paced)
        .chain(std::iter::repeat_n(&status, plan.burst_pad + 1))
        .chain(&plan.burst)
        .collect();
    let mut parse_us = Vec::new();
    for r in &reqs {
        let _s = enter("protocol.parse_request");
        let t = Instant::now();
        parse_request(&r.line).expect("request parses");
        parse_us.push(secs(t) * 1e6);
    }
    let mut by_kind: Vec<(Kind, f64)> = Vec::new();
    let mut snaps = Vec::new();
    for (handled, r) in reqs.iter().enumerate() {
        let t = Instant::now();
        let (resp, _) = {
            let _s = enter("server.handle_line");
            handle_line(&mut session, &r.line)
        };
        by_kind.push((r.kind, secs(t) * 1e3));
        assert!(
            resp.starts_with("{\"ok\":"),
            "in-process request failed: {resp}"
        );
        if (handled as u64 + 1).is_multiple_of(SNAPSHOT_EVERY) {
            let t = Instant::now();
            let _s = enter("session.write_snapshot");
            let resp = session.write_snapshot().expect("snapshot written");
            snaps.push((secs(t), resp));
        }
    }
    let lat = |k: Kind| -> Vec<f64> {
        by_kind
            .iter()
            .filter(|(kind, _)| *kind == k)
            .map(|(_, l)| *l)
            .collect()
    };
    let submit_p50 = percentile(&lat(Kind::Submit), 0.5);
    report.layer("protocol.parse_us_p50", percentile(&parse_us, 0.5));
    report.layer("session.submit_ms_p50", submit_p50);
    report.layer("session.tick_ms_p50", percentile(&lat(Kind::Tick), 0.5));
    report.layer("session.tick_ms_p99", percentile(&lat(Kind::Tick), 0.99));
    report.layer("session.read_ms_p50", percentile(&lat(Kind::Read), 0.5));
    report.layer("server.overhead_ms_p50", client_submit_p50 - submit_p50);

    // Snapshots: count, the largest, and what writing, rendering and
    // loading one costs.
    let largest = snaps
        .iter()
        .map(|(_, resp)| {
            let v = serde_json::parse(resp).expect("snapshot reply is JSON");
            match v.get("bytes") {
                Some(serde_json::Value::U64(n)) => *n,
                _ => panic!("snapshot reply without bytes: {resp}"),
            }
        })
        .max()
        .unwrap_or(0);
    report.layer("snapshot.count", snaps.len() as f64);
    report.layer("snapshot.bytes", largest as f64);
    report.layer(
        "snapshot.write_s",
        snaps.iter().map(|(s, _)| s).sum::<f64>(),
    );
    let newest = std::fs::read_dir(&wal_dir)
        .expect("wal dir lists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .max();
    if let Some(path) = newest {
        let t = Instant::now();
        let body = {
            let _s = enter("snapshot.load");
            snapshot::load(&path).expect("snapshot loads")
        };
        report.layer("snapshot.load_s", secs(t));
        let t = Instant::now();
        {
            let _s = enter("snapshot.render");
            snapshot::render(&body).expect("snapshot renders");
        }
        report.layer("snapshot.render_s", secs(t));
    }

    // Recovery of the whole directory, as a restart pays it.
    let copy = dir.join("recover");
    copy_dir(&wal_dir, &copy);
    let t = Instant::now();
    let (recovered, rep) = {
        let _s = enter("session.recover");
        Session::recover(config.clone(), WalConfig::new(&copy), None).expect("recovers")
    };
    report.layer("recover.s", secs(t));
    report.layer("recover.records_replayed", rep.records_replayed as f64);
    assert_eq!(recovered.now(), session.now(), "recovery lost virtual time");
    assert_eq!(recovered.log(), session.log(), "recovery lost submissions");

    // WAL appends of the same records into a scratch log.
    let mut records = vec![WalRecord::Genesis { config }];
    let mut entries = session.log().entries.iter();
    for r in &reqs {
        match r.kind {
            Kind::Submit => records.push(WalRecord::Entry {
                entry: entries.next().expect("one entry per submit").clone(),
                request_id: None,
            }),
            Kind::Tick => {
                let to = match parse_request(&r.line) {
                    Ok(flowtime_daemon::Request::Tick(to)) => to,
                    _ => unreachable!("tick lines parse as ticks"),
                };
                records.push(WalRecord::Tick { to });
            }
            Kind::Read => {}
        }
    }
    let scratch: PathBuf = dir.join("scratch-wal");
    let mut w = wal::create(WalConfig::new(&scratch), None).expect("scratch wal");
    let mut append_ms = Vec::new();
    for rec in &records {
        let t = Instant::now();
        let _s = enter("wal.append");
        w.append(rec).expect("append");
        append_ms.push(secs(t) * 1e3);
    }
    let bytes: u64 = std::fs::read_dir(&scratch)
        .expect("scratch wal lists")
        .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
        .sum();
    report.layer("wal.appends", w.appends() as f64);
    report.layer("wal.bytes", bytes as f64);
    report.layer("wal.append_ms_p50", percentile(&append_ms, 0.5));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small log: one workflow and 30 ad-hoc jobs, as a session records it.
    fn small_log() -> (ClusterConfig, SubmissionLog) {
        let shape = batch::Shape {
            cores: 32,
            workflows: 1,
            jobs_per_workflow: 6,
            looseness: 6.0,
            adhoc_jobs: 30,
            adhoc_rate: 0.2,
        };
        let mut trace = Trace::synthesize_production(
            batch::cluster(shape.cores),
            &batch::workflow_config(&shape),
            WORKFLOW_SEED,
        );
        batch::attach_milestones(&mut trace);
        let mut log = SubmissionLog::new();
        for w in trace.workload.workflows {
            let seq = log.entries.len() as u64;
            log.entries.push(LogEntry::Workflow {
                seq,
                at: 0,
                submission: w,
            });
        }
        for a in batch::adhoc_stream(0.2, 30, 5) {
            let seq = log.entries.len() as u64;
            log.entries.push(LogEntry::Adhoc {
                seq,
                at: 0,
                submission: a,
            });
        }
        (trace.cluster, log)
    }

    #[test]
    fn outcome_check_rejects_a_flipped_byte() {
        let (cluster, log) = small_log();
        let replayed = replay(&cluster, &log).bytes;
        assert_eq!(same_outcome(&replayed, &replayed), Ok(()));
        let mut flipped = replayed.clone().into_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        let flipped = String::from_utf8(flipped).expect("ASCII stays UTF-8");
        assert!(same_outcome(&flipped, &replayed).is_err());
        assert!(same_outcome(&replayed[..mid], &replayed).is_err());
    }

    #[test]
    fn acks_and_status_are_read_apart() {
        assert_eq!(ack_seq("{\"ok\":{\"sub\":7,\"arrival\":3,\"jobs\":1}}"), 7);
        let status = |now: u64, logged: u64| {
            format!(
                "{{\"ok\":{{\"phase\":\"accepting\",\"engine\":{{\"now\":{now}}},\"pending\":2,\"logged\":{logged}}}}}"
            )
        };
        assert_eq!(status_key(&status(40, 9)), (40, 9, 2));
        assert_ne!(status_key(&status(40, 9)), status_key(&status(39, 9)));
        assert_ne!(status_key(&status(40, 9)), status_key(&status(40, 8)));
    }
}

//! The batch path: a synthetic production trace carried through JSONL,
//! milestone decomposition and a certified FlowTime run (`Engine::run`
//! with the decision trace on, then `certify`), repeated inside one
//! process so one run reports the median of many iterations.

use crate::checks::{self, JobRow, Quality};
use crate::spans::{self, enter};
use crate::stats::{median, percentile, secs};
use crate::Report;
use flowtime::decompose::decompose;
use flowtime::schedulers::{FlowTimeConfig, FlowTimeScheduler};
use flowtime::DecomposeConfig;
use flowtime_dag::{JobId, ResourceVec};
use flowtime_sim::{
    certify, Allocation, ClusterConfig, Engine, Scheduler, SimState, SolverTelemetry,
    DEFAULT_TRACE_CAPACITY,
};
use flowtime_workload::trace::ProductionTraceConfig;
use flowtime_workload::{AdhocStream, Trace};
use std::time::Instant;

/// Engine slot bound, as `flowtime-cli simulate` uses.
const MAX_SLOTS: u64 = 10_000_000;
/// Set-ups per run after the first; `setup_s` is their median.
const SETUPS: usize = 15;
/// Iterations every run measures at least, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;

/// Seed of the workflow set every batch run uses. The `--seed` drives
/// the ad-hoc stream only: workflow submit offsets alone move replan cost
/// by 2x from one seed to the next (0.99-2.01 s per iteration over six
/// seeds), a spread no regression bound could sit above.
pub const WORKFLOW_SEED: u64 = 1;

/// The input shape of one batch workload.
pub struct Shape {
    pub cores: u64,
    pub workflows: usize,
    pub jobs_per_workflow: usize,
    pub looseness: f64,
    /// Exactly this many ad-hoc jobs: the stream from `--seed`, cut off
    /// after its first `adhoc_jobs` arrivals.
    pub adhoc_jobs: usize,
    pub adhoc_rate: f64,
}

/// `batch-deadline`: a deadline-heavy trace where replanning is nearly
/// all of the run. The deadlines are tight enough that FlowTime misses
/// some (about 24 of 216), so the count can move both ways.
pub const DEADLINE: Shape = Shape {
    cores: 160,
    workflows: 12,
    jobs_per_workflow: 18,
    looseness: 3.5,
    adhoc_jobs: 2_200,
    adhoc_rate: 0.2,
};

/// `batch-adhoc`: three workflows under a long ad-hoc stream, where the
/// engine's own per-slot work dominates. Tight deadlines: FlowTime misses
/// one or two of the 54.
pub const ADHOC: Shape = Shape {
    cores: 160,
    workflows: 3,
    jobs_per_workflow: 18,
    looseness: 2.5,
    adhoc_jobs: 10_000,
    adhoc_rate: 0.2,
};

pub fn cluster(cores: u64) -> ClusterConfig {
    ClusterConfig::new(ResourceVec::new([cores, cores * 4096]), 10.0)
}

/// The workflow part of the production trace (its own ad-hoc stream is
/// switched off; [`adhoc_stream`] supplies one of fixed length).
pub fn workflow_config(shape: &Shape) -> ProductionTraceConfig {
    ProductionTraceConfig {
        workflows: shape.workflows,
        jobs_per_workflow: shape.jobs_per_workflow,
        looseness: shape.looseness,
        adhoc_horizon: 0,
        ..ProductionTraceConfig::default()
    }
}

/// Exactly `jobs` ad-hoc submissions: sizes from the seeded stream,
/// arrivals evenly spaced at its mean rate. Poisson arrivals moved
/// replan cost and mean turnaround by up to 15% from one seed to the
/// next; with fixed arrivals every seed loads the cluster on the same
/// timeline and only the job sizes differ.
pub fn adhoc_stream(rate: f64, jobs: usize, seed: u64) -> Vec<flowtime_sim::AdhocSubmission> {
    let stream = AdhocStream {
        rate_per_slot: rate,
        ..AdhocStream::default()
    };
    // Twice the expected horizon: short by chance is practically never.
    let horizon = (2.0 * jobs as f64 / rate).ceil() as u64;
    let mut out = stream.generate(horizon, seed);
    assert!(out.len() >= jobs, "ad-hoc stream ran short");
    out.truncate(jobs);
    let spacing = (1.0 / rate).round() as u64;
    for (i, a) in out.iter_mut().enumerate() {
        a.arrival_slot = i as u64 * spacing;
    }
    out
}

/// Attaches decomposed milestone deadlines to every workflow, as
/// `flowtime-cli simulate` does before a run. Returns the call count.
pub fn attach_milestones(trace: &mut Trace) -> u64 {
    let cfg = DecomposeConfig::new(trace.cluster.capacity());
    let mut calls = 0;
    for sub in &mut trace.workload.workflows {
        let _s = enter("decompose.decompose");
        calls += 1;
        let d = decompose(&sub.workflow, &cfg).expect("synthetic workflows decompose");
        sub.job_deadlines = Some(d.job_deadlines());
    }
    calls
}

/// Synthesis, a JSONL round trip and decomposition: what a batch user
/// pays before the first simulation.
fn set_up(shape: &Shape, seed: u64) -> (Trace, u64) {
    let _s = enter("batch.setup");
    let synthesized = {
        let _s = enter("workload.synthesize_production");
        let mut t = Trace::synthesize_production(
            cluster(shape.cores),
            &workflow_config(shape),
            WORKFLOW_SEED,
        );
        t.workload.adhoc = adhoc_stream(shape.adhoc_rate, shape.adhoc_jobs, seed);
        t
    };
    let mut bytes = Vec::new();
    {
        let _s = enter("workload.write_jsonl");
        synthesized
            .write_jsonl(&mut bytes)
            .expect("in-memory write");
    }
    let mut trace = {
        let _s = enter("workload.read_jsonl");
        Trace::read_jsonl(bytes.as_slice()).expect("the trace just written reads back")
    };
    assert_eq!(trace, synthesized, "JSONL round trip changed the trace");
    let calls = attach_milestones(&mut trace);
    (trace, calls)
}

/// A pass-through scheduler that times every `plan_slot` call from the
/// outside and classifies it as a replan slot when the solver's replan
/// counter rose during the call.
pub struct Timed<S> {
    inner: S,
    last_start: Option<Instant>,
    /// Wall time between successive scheduling decisions: one engine slot
    /// step, planning included.
    pub step_ms: Vec<f64>,
    pub calls: u64,
    pub total_s: f64,
    pub replan_slots: u64,
    pub replan_s: f64,
}

impl<S: Scheduler> Timed<S> {
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            last_start: None,
            step_ms: Vec::new(),
            calls: 0,
            total_s: 0.0,
            replan_slots: 0,
            replan_s: 0.0,
        }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn plan_slot(&mut self, state: &SimState) -> Allocation {
        let replans = |s: &S| s.telemetry().map_or(0, |t| t.replans);
        let before = replans(&self.inner);
        let _s = enter("scheduler.plan_slot");
        let t = Instant::now();
        if let Some(prev) = self.last_start {
            self.step_ms.push((t - prev).as_secs_f64() * 1e3);
        }
        self.last_start = Some(t);
        let alloc = self.inner.plan_slot(state);
        let d = secs(t);
        self.calls += 1;
        self.total_s += d;
        if replans(&self.inner) > before {
            self.replan_slots += 1;
            self.replan_s += d;
        }
        alloc
    }

    fn telemetry(&self) -> Option<SolverTelemetry> {
        self.inner.telemetry()
    }

    fn on_failure(&mut self, state: &SimState, job: JobId, attempt: u32) {
        self.inner.on_failure(state, job, attempt);
    }

    fn decision_tag(&self) -> &'static str {
        self.inner.decision_tag()
    }
}

/// One certified simulation and what it measured.
pub struct Iteration {
    pub wall_s: f64,
    pub jobs: usize,
    pub quality: Quality,
    pub scheduler: Timed<FlowTimeScheduler>,
    pub solver: SolverTelemetry,
    pub engine: flowtime_sim::EngineTelemetry,
    pub trace_events: u64,
}

/// Runs one certified simulation of `trace` and checks it apart from the
/// program. Panics on any failed check: a wrong result is never timed.
pub fn iterate(trace: &Trace, rows: &[JobRow]) -> Iteration {
    let cluster = &trace.cluster;
    let _it = enter("batch.iteration");
    let t0 = Instant::now();
    let (engine, handle) = {
        let _s = enter("engine.new");
        Engine::new(cluster.clone(), trace.workload.clone(), MAX_SLOTS)
            .expect("synthetic workload is well formed")
            .with_trace(DEFAULT_TRACE_CAPACITY)
    };
    let mut scheduler = Timed::new(FlowTimeScheduler::new(
        cluster.clone(),
        FlowTimeConfig::default(),
    ));
    let outcome = {
        let _s = enter("engine.run");
        engine.run(&mut scheduler).expect("engine run succeeds")
    };
    let decisions = {
        let _s = enter("trace.take");
        handle.take()
    };
    let report = {
        let _s = enter("audit.certify");
        certify(cluster, &trace.workload, &outcome, &decisions)
    };
    let wall_s = secs(t0);
    drop(_it);
    assert!(
        report.is_certified(),
        "auditor rejected the run: {}",
        report.summary()
    );
    assert!(outcome.is_complete(), "run left jobs unfinished");
    let quality = {
        let _s = enter("check.recount");
        checks::recount(cluster, rows, &outcome, &decisions).expect("independent recount")
    };
    Iteration {
        wall_s,
        jobs: outcome.metrics.jobs.len(),
        quality,
        solver: scheduler.telemetry().unwrap_or_default(),
        scheduler,
        engine: outcome.engine_telemetry,
        trace_events: decisions.recorded(),
    }
}

/// Runs a batch workload for `seconds` after one warm-up iteration. In
/// the traced run every other iteration records spans, so the untraced
/// ones give the tracing overhead.
pub fn run(shape: &Shape, seed: u64, seconds: f64, report: &mut Report) {
    let traced = spans::enabled();
    spans::set_scope("warmup", 0);
    let (trace, decompose_calls) = set_up(shape, seed);
    let rows = checks::job_table(&trace.workload);
    let warm = iterate(&trace, &rows);
    // Timed once the process is warm: the first set-ups of a fresh
    // process spread 0.28 between runs.
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        spans::set_scope("setup", i as u64);
        let t = Instant::now();
        let (again, _) = set_up(shape, seed);
        setups.push(secs(t));
        assert_eq!(again, trace, "set-up is not deterministic");
    }
    let start = Instant::now();
    let mut iters = Vec::new();
    let mut untraced_walls = Vec::new();
    // Whole iterations only, as many as fit in `seconds`.
    while iters.len() < MIN_ITERATIONS || secs(start) + warm.wall_s <= seconds {
        spans::set_scope("iteration", iters.len() as u64);
        let it = iterate(&trace, &rows);
        assert_eq!(
            it.quality, warm.quality,
            "iterations disagree on the schedule"
        );
        iters.push(it);
        if traced {
            spans::set_enabled(false);
            untraced_walls.push(iterate(&trace, &rows).wall_s);
            spans::set_enabled(true);
        }
    }

    let walls: Vec<f64> = iters.iter().map(|i| i.wall_s).collect();
    // Per-iteration percentiles, then the median over iterations.
    let steps = |q: f64| -> Vec<f64> {
        iters
            .iter()
            .map(|i| percentile(&i.scheduler.step_ms, q))
            .collect()
    };
    let q = warm.quality;
    let slot_s = trace.cluster.slot_seconds();
    report.attempted = iters.len() as u64;
    report.e2e("setup_s", median(&setups));
    report.e2e("peak_rss_mb", crate::stats::peak_rss_mb("self"));
    report.e2e("jobs_per_s", warm.jobs as f64 / median(&walls));
    report.e2e("op_p50_ms", median(&steps(0.5)));
    report.e2e("op_p99_ms", median(&steps(0.99)));
    report.e2e("adhoc_tat_mean_s", q.adhoc_tat_mean_slots() * slot_s);
    report.e2e("deadline_jobs_met", q.deadline_jobs_met as f64);
    report.note(format!(
        "batch: {} jobs ({} ad-hoc, {} deadline met), {} iterations, median {:.4} s, {} steps each",
        warm.jobs,
        q.adhoc_jobs,
        q.deadline_jobs_met,
        iters.len(),
        median(&walls),
        warm.scheduler.step_ms.len()
    ));
    if !traced {
        return;
    }

    let n = iters.len() as f64;
    let mean = |f: &dyn Fn(&Iteration) -> f64| iters.iter().map(f).sum::<f64>() / n;
    let all = spans::take();
    let per_setup = spans::totals(&all, |s| s.scope.0 == "setup");
    let per_iter = spans::totals(&all, |s| s.scope.0 == "iteration");
    let self_s = |t: &spans::Totals, name: &str| t.get(name).map_or(0.0, |v| v.self_s);
    let iter_s = per_iter.get("batch.iteration").map_or(0.0, |v| v.total_s) / n;
    let sched_s = self_s(&per_iter, "scheduler.plan_slot") / n;
    let engine_s = (self_s(&per_iter, "engine.new") + self_s(&per_iter, "engine.run")) / n;
    let audit_s = self_s(&per_iter, "audit.certify") / n;
    let setups_n = SETUPS as f64;
    report.layer(
        "workload.synthesize_s",
        self_s(&per_setup, "workload.synthesize_production") / setups_n,
    );
    report.layer(
        "workload.read_jsonl_s",
        self_s(&per_setup, "workload.read_jsonl") / setups_n,
    );
    report.layer("workload.jobs", rows.len() as f64);
    report.layer(
        "decompose.s",
        self_s(&per_setup, "decompose.decompose") / setups_n,
    );
    report.layer("decompose.calls", decompose_calls as f64);
    report.layer("iteration.s", iter_s);
    report.layer("scheduler.plan_calls", warm.scheduler.calls as f64);
    report.layer("scheduler.s", sched_s);
    report.layer("scheduler.replan_slots", warm.scheduler.replan_slots as f64);
    report.layer("scheduler.replan_s", mean(&|i| i.scheduler.replan_s));
    report.layer(
        "scheduler.steady_s",
        mean(&|i| i.scheduler.total_s - i.scheduler.replan_s),
    );
    report.layer("scheduler.share_pct", 100.0 * sched_s / iter_s);
    report.solver(&warm.solver);
    report.layer("engine.self_s", engine_s);
    report.layer("engine.share_pct", 100.0 * engine_s / iter_s);
    report.engine(&warm.engine);
    report.layer("trace.events", warm.trace_events as f64);
    report.layer("audit.s", audit_s);
    report.layer(
        "trace.overhead_pct",
        100.0 * (median(&walls) / median(&untraced_walls) - 1.0),
    );
    report.spans = all;
}

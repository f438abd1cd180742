//! Output checks computed apart from the program.
//!
//! A certified run is recounted from the scenario and the decision
//! trace's `Grant` events alone: the job table is rebuilt with the
//! engine's documented dense id order, and completion
//! slots, turnaround percentiles and deadline hits are derived from the
//! grants, then compared with what the engine reported.

use crate::stats::percentile_u64;
use flowtime_dag::ResourceVec;
use flowtime_sim::{
    ClusterConfig, DecisionTrace, EffectiveSubmission, LogEntry, SimOutcome, SimWorkload,
    SubmissionLog, TraceEvent,
};

/// One job as the scenario defines it.
pub struct JobRow {
    per_task: ResourceVec,
    actual_work: u64,
    arrival_slot: u64,
    deadline_slot: Option<u64>,
    preds: Vec<usize>,
    adhoc: bool,
}

/// Builds the dense job table from submissions in id order.
fn table<'a>(subs: impl Iterator<Item = EffectiveSubmission<'a>>) -> Vec<JobRow> {
    let mut rows = Vec::new();
    for sub in subs {
        match sub {
            EffectiveSubmission::Workflow(sub) => {
                let wf = &sub.workflow;
                let base = rows.len();
                for (node, spec) in wf.jobs().iter().enumerate() {
                    rows.push(JobRow {
                        per_task: spec.per_task(),
                        actual_work: sub.actual_work.as_ref().map_or(spec.work(), |v| v[node]),
                        arrival_slot: wf.submit_slot(),
                        deadline_slot: sub.job_deadlines.as_ref().map(|v| v[node]),
                        preds: wf
                            .dag()
                            .predecessors(node)
                            .iter()
                            .map(|p| base + p)
                            .collect(),
                        adhoc: false,
                    });
                }
            }
            EffectiveSubmission::Adhoc(job) => rows.push(JobRow {
                per_task: job.spec.per_task(),
                actual_work: job.spec.work(),
                arrival_slot: job.arrival_slot,
                deadline_slot: None,
                preds: Vec::new(),
                adhoc: true,
            }),
        }
    }
    rows
}

/// The job table of a batch scenario: workflow nodes in submission and
/// node order, then ad-hoc jobs in submission order.
pub fn job_table(workload: &SimWorkload) -> Vec<JobRow> {
    table(
        workload
            .workflows
            .iter()
            .map(EffectiveSubmission::Workflow)
            .chain(workload.adhoc.iter().map(EffectiveSubmission::Adhoc)),
    )
}

/// The job table of a cancel-free submission log, in `(arrival slot,
/// sequence)` order.
pub fn log_table(log: &SubmissionLog) -> Vec<JobRow> {
    let mut subs: Vec<EffectiveSubmission> = log
        .entries
        .iter()
        .map(|e| match e {
            LogEntry::Workflow { submission, .. } => EffectiveSubmission::Workflow(submission),
            LogEntry::Adhoc { submission, .. } => EffectiveSubmission::Adhoc(submission),
            LogEntry::Cancel { .. } => panic!("the benchmark never cancels"),
        })
        .collect();
    // Entries are in sequence order; a stable sort keeps it within a slot.
    subs.sort_by_key(|s| match s {
        EffectiveSubmission::Workflow(w) => w.workflow.submit_slot(),
        EffectiveSubmission::Adhoc(a) => a.arrival_slot,
    });
    table(subs.into_iter())
}

/// The schedule-quality figures a run is judged by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub adhoc_tat_sum_slots: u64,
    pub adhoc_tat_p99_slots: u64,
    pub adhoc_jobs: usize,
    pub deadline_jobs_met: u64,
}

fn quality(rows: &[JobRow], completion: &[u64]) -> Quality {
    let tats: Vec<u64> = rows
        .iter()
        .zip(completion)
        .filter(|(r, _)| r.adhoc)
        .map(|(r, &c)| c - r.arrival_slot)
        .collect();
    let met = rows
        .iter()
        .zip(completion)
        .filter(|(r, &c)| r.deadline_slot.is_some_and(|d| c <= d))
        .count() as u64;
    Quality {
        adhoc_tat_sum_slots: tats.iter().sum(),
        adhoc_tat_p99_slots: percentile_u64(&tats, 0.99),
        adhoc_jobs: tats.len(),
        deadline_jobs_met: met,
    }
}

impl Quality {
    /// Mean ad-hoc turnaround, the paper's ad-hoc metric.
    pub fn adhoc_tat_mean_slots(&self) -> f64 {
        self.adhoc_tat_sum_slots as f64 / self.adhoc_jobs as f64
    }
}

/// Quality as the engine reported it in `outcome`.
pub fn reported_quality(rows: &[JobRow], outcome: &SimOutcome) -> Result<Quality, String> {
    let mut completion = vec![u64::MAX; rows.len()];
    for j in &outcome.metrics.jobs {
        let id = j.id.as_u64() as usize;
        if id >= rows.len() {
            return Err(format!("outcome names unknown job {id}"));
        }
        completion[id] = j.completion_slot;
    }
    if let Some(id) = completion.iter().position(|&c| c == u64::MAX) {
        return Err(format!("job {id} has no completion in the outcome"));
    }
    Ok(quality(rows, &completion))
}

/// Recounts a run from the scenario and the trace's grants; returns the
/// recomputed quality, or the first discrepancy found.
pub fn recount(
    cluster: &ClusterConfig,
    rows: &[JobRow],
    outcome: &SimOutcome,
    trace: &DecisionTrace,
) -> Result<Quality, String> {
    if trace.dropped() > 0 {
        return Err(format!("decision trace dropped {} events", trace.dropped()));
    }
    let n = rows.len();
    let mut granted = vec![0u64; n];
    let mut first_grant = vec![u64::MAX; n];
    let mut completion = vec![u64::MAX; n];
    let mut load: Vec<ResourceVec> = Vec::new();
    for ev in trace.events() {
        let TraceEvent::Grant { slot, job, tasks } = *ev else {
            continue;
        };
        let j = job.as_u64() as usize;
        let row = rows.get(j).ok_or(format!("grant to unknown job {j}"))?;
        if slot < row.arrival_slot {
            return Err(format!("job {j} granted at slot {slot} before arrival"));
        }
        if completion[j] != u64::MAX {
            return Err(format!("job {j} granted at slot {slot} after finishing"));
        }
        first_grant[j] = first_grant[j].min(slot);
        granted[j] += tasks;
        if granted[j] >= row.actual_work {
            completion[j] = slot + 1;
        }
        let s = slot as usize;
        if load.len() <= s {
            load.resize(s + 1, ResourceVec::zero());
        }
        load[s] += row.per_task * tasks;
    }
    for (j, row) in rows.iter().enumerate() {
        if granted[j] != row.actual_work {
            return Err(format!(
                "job {j} granted {} task-slots for {} of work",
                granted[j], row.actual_work
            ));
        }
        for &p in &row.preds {
            if first_grant[j] < completion[p] {
                return Err(format!(
                    "job {j} ran at slot {} before predecessor {p} finished at {}",
                    first_grant[j], completion[p]
                ));
            }
        }
    }
    let cap = cluster.capacity();
    for (slot, l) in load.iter().enumerate() {
        if !l.fits_within(&cap) {
            return Err(format!("slot {slot} load {l:?} exceeds capacity {cap:?}"));
        }
    }
    let recomputed = quality(rows, &completion);
    let reported = reported_quality(rows, outcome)?;
    if recomputed != reported {
        return Err(format!(
            "recounted quality {recomputed:?} differs from reported {reported:?}"
        ));
    }
    for j in &outcome.metrics.jobs {
        if completion[j.id.as_u64() as usize] != j.completion_slot {
            return Err(format!(
                "job {} completes at {} by the grants but {} by the outcome",
                j.id.as_u64() as usize,
                completion[j.id.as_u64() as usize],
                j.completion_slot
            ));
        }
    }
    Ok(recomputed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch;
    use flowtime::schedulers::{FlowTimeConfig, FlowTimeScheduler};
    use flowtime_sim::Engine;
    use flowtime_workload::Trace;

    /// A small certified run: two workflows and 60 ad-hoc jobs.
    fn small_run() -> (Trace, SimOutcome, DecisionTrace) {
        let shape = batch::Shape {
            cores: 32,
            workflows: 2,
            jobs_per_workflow: 6,
            looseness: 6.0,
            adhoc_jobs: 60,
            adhoc_rate: 0.2,
        };
        let mut trace = Trace::synthesize_production(
            batch::cluster(shape.cores),
            &batch::workflow_config(&shape),
            batch::WORKFLOW_SEED,
        );
        trace.workload.adhoc = batch::adhoc_stream(shape.adhoc_rate, shape.adhoc_jobs, 7);
        batch::attach_milestones(&mut trace);
        let (engine, handle) = Engine::new(trace.cluster.clone(), trace.workload.clone(), 100_000)
            .unwrap()
            .with_trace(1 << 16);
        let mut sched = FlowTimeScheduler::new(trace.cluster.clone(), FlowTimeConfig::default());
        let outcome = engine.run(&mut sched).unwrap();
        (trace, outcome, handle.take())
    }

    fn grants(trace: &DecisionTrace) -> Vec<usize> {
        trace
            .events()
            .enumerate()
            .filter(|(_, e)| matches!(e, TraceEvent::Grant { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn accepts_the_engines_run() {
        let (t, outcome, trace) = small_run();
        let rows = job_table(&t.workload);
        let q = recount(&t.cluster, &rows, &outcome, &trace).unwrap();
        assert_eq!(q, reported_quality(&rows, &outcome).unwrap());
        assert_eq!(q.adhoc_jobs, 60);
    }

    #[test]
    fn rejects_a_dropped_grant() {
        let (t, outcome, mut trace) = small_run();
        let g = grants(&trace)[0];
        trace.events_mut().remove(g);
        let err = recount(&t.cluster, &job_table(&t.workload), &outcome, &trace).unwrap_err();
        assert!(err.contains("task-slots"), "{err}");
    }

    #[test]
    fn rejects_an_overloaded_slot() {
        let (mut t, outcome, trace) = small_run();
        t.cluster = batch::cluster(1);
        let err = recount(&t.cluster, &job_table(&t.workload), &outcome, &trace).unwrap_err();
        assert!(err.contains("exceeds capacity"), "{err}");
    }

    #[test]
    fn rejects_a_job_run_before_its_predecessor() {
        let (t, outcome, mut trace) = small_run();
        let rows = job_table(&t.workload);
        // Move a successor's first grant back to its predecessor's first.
        let first = |trace: &DecisionTrace, job: usize| {
            trace.events().position(
                |e| matches!(e, TraceEvent::Grant { job: j, .. } if j.as_u64() as usize == job),
            )
        };
        let (succ, pred) = rows
            .iter()
            .enumerate()
            .find_map(|(j, r)| r.preds.first().map(|&p| (j, p)))
            .expect("workflows have edges");
        let pred_slot = trace
            .events()
            .nth(first(&trace, pred).unwrap())
            .unwrap()
            .slot();
        let i = first(&trace, succ).unwrap();
        if let TraceEvent::Grant { slot, .. } = &mut trace.events_mut()[i] {
            *slot = pred_slot;
        }
        let err = recount(&t.cluster, &rows, &outcome, &trace).unwrap_err();
        assert!(err.contains("before predecessor"), "{err}");
    }

    #[test]
    fn rejects_a_misreported_completion() {
        let (t, mut outcome, trace) = small_run();
        outcome.metrics.jobs[0].completion_slot += 1;
        assert!(recount(&t.cluster, &job_table(&t.workload), &outcome, &trace).is_err());
    }
}

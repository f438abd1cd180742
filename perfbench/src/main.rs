//! FlowTime end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--daemon PATH] [--out-dir DIR]
//! ```
//!
//! Workloads: `batch-deadline`, `batch-adhoc` (the batch path, in
//! process) and `online-daemon` (the `flowtimed` binary at `--daemon`
//! over loopback TCP). Inputs are generated from `--seed` only. Every
//! output is checked apart from the program; a failed check panics, so a
//! result line is only ever printed for a correct run. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones from a run that records spans).

mod batch;
mod checks;
mod online;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("adhoc_tat_mean_s", "s"),
    ("deadline_jobs_met", "count"),
];

/// Per-layer metrics. A layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.synthesize_s", "s"),
    ("workload.read_jsonl_s", "s"),
    ("workload.jobs", "count"),
    ("decompose.s", "s"),
    ("decompose.calls", "count"),
    ("iteration.s", "s"),
    ("scheduler.plan_calls", "count"),
    ("scheduler.s", "s"),
    ("scheduler.replan_slots", "count"),
    ("scheduler.replan_s", "s"),
    ("scheduler.steady_s", "s"),
    ("scheduler.share_pct", "%"),
    ("solver.replans", "count"),
    ("solver.flow_solves", "count"),
    ("solver.cold_solves", "count"),
    ("solver.warm_solves", "count"),
    ("solver.cache_hits", "count"),
    ("solver.degraded_replans", "count"),
    ("engine.self_s", "s"),
    ("engine.share_pct", "%"),
    ("engine.slots", "count"),
    ("engine.events", "count"),
    ("engine.heap_ops", "count"),
    ("engine.peak_live_jobs", "count"),
    ("trace.events", "count"),
    ("audit.s", "s"),
    ("protocol.parse_us_p50", "us"),
    ("session.submit_ms_p50", "ms"),
    ("session.tick_ms_p50", "ms"),
    ("session.tick_ms_p99", "ms"),
    ("session.read_ms_p50", "ms"),
    ("server.overhead_ms_p50", "ms"),
    ("wal.appends", "count"),
    ("wal.bytes", "bytes"),
    ("wal.append_ms_p50", "ms"),
    ("snapshot.count", "count"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.write_s", "s"),
    ("snapshot.render_s", "s"),
    ("snapshot.load_s", "s"),
    ("recover.s", "s"),
    ("recover.records_replayed", "count"),
    ("client.requests", "count"),
    ("client.late_ms_max", "ms"),
    ("client.submit_ack_p50_ms", "ms"),
    ("client.submit_ack_p99_ms", "ms"),
    ("client.tick_ack_p50_ms", "ms"),
    ("client.tick_ack_p99_ms", "ms"),
    ("client.read_ack_p50_ms", "ms"),
    ("client.read_ack_p99_ms", "ms"),
    ("client.pipelined_read_ack_p50_ms", "ms"),
    ("client.saturated_acks_per_s", "1/s"),
    ("client.restart_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// What a workload run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    pub spans: Vec<spans::Span>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.layers.insert(name, value);
    }

    pub fn solver(&mut self, t: &flowtime_sim::SolverTelemetry) {
        self.layer("solver.replans", t.replans as f64);
        self.layer("solver.flow_solves", t.flow_solves as f64);
        self.layer("solver.cold_solves", t.cold_solves as f64);
        self.layer("solver.warm_solves", t.warm_solves as f64);
        self.layer("solver.cache_hits", t.cache_hits() as f64);
        self.layer("solver.degraded_replans", t.degraded_replans as f64);
    }

    pub fn engine(&mut self, t: &flowtime_sim::EngineTelemetry) {
        self.layer("engine.slots", t.slots_simulated as f64);
        self.layer("engine.events", t.events_processed as f64);
        self.layer("engine.heap_ops", t.heap_ops as f64);
        self.layer("engine.peak_live_jobs", t.peak_live_jobs as f64);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{key}`"))?;
        let value = it.next().ok_or(format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| flags.get(k).ok_or(format!("--{k} is required"));
    let parse = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    for k in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "daemon", "out-dir"].contains(&k.as_str()) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    let trace = match parse("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let seconds = parse("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: parse("seed")?,
        seconds: seconds as f64,
        trace,
        daemon: flags.get("daemon").map(PathBuf::from),
        out_dir: PathBuf::from(flags.get("out-dir").map_or(".perfbench-out", |s| s)),
    })
}

fn json_metrics(values: &BTreeMap<&'static str, f64>, table: &[(&str, &str)]) -> String {
    let parts: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                values.get(name).copied().unwrap_or(0.0)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = stats::HostProbe::start();
    spans::set_enabled(args.trace);
    let mut report = Report::default();
    match args.workload.as_str() {
        "batch-deadline" => batch::run(&batch::DEADLINE, args.seed, args.seconds, &mut report),
        "batch-adhoc" => batch::run(&batch::ADHOC, args.seed, args.seconds, &mut report),
        "online-daemon" => {
            let Some(daemon) = &args.daemon else {
                eprintln!("perfbench: online-daemon needs --daemon PATH");
                std::process::exit(2);
            };
            online::run(daemon, args.seed, args.seconds, &args.out_dir, &mut report);
        }
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    }
    spans::set_enabled(false);
    let (steal_pct, load) = host.finish();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    for n in &report.notes {
        println!("# {n}");
    }
    println!("# host: {cores} cores, steal {steal_pct:.1}% of CPU time during the run, load average {load:.2}");
    let metrics = if args.trace {
        let spans_path = args
            .out_dir
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        spans::write_jsonl(&spans_path, &report.spans).expect("span file is writable");
        println!(
            "# traced run: {} spans written to {}",
            report.spans.len(),
            spans_path.display()
        );
        let totals = spans::totals(&report.spans, |_| true);
        println!("# span self time by name (all scopes):");
        for (name, t) in &totals {
            println!(
                "#   {name:<34} self {:>10.4} s  incl {:>10.4} s  n {}",
                t.self_s, t.total_s, t.count
            );
        }
        println!("# per-layer metrics:");
        for (name, unit) in PER_LAYER {
            println!(
                "#   {name:<30} {} {unit}",
                report.layers.get(name).copied().unwrap_or(0.0)
            );
        }
        json_metrics(&report.layers, PER_LAYER)
    } else {
        for (name, unit) in END_TO_END {
            let v = report
                .e2e
                .get(name)
                .unwrap_or_else(|| panic!("workload did not measure {name}"));
            println!("# {name:<20} {v} {unit}");
        }
        json_metrics(&report.e2e, END_TO_END)
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {metrics}}}",
        report.attempted
    );
}

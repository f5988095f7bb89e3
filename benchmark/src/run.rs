//! One run of one workload: the measured reps (`--trace 0`) or the ladder
//! plus the traced rep (`--trace 1`), the oracle either way, and the
//! document that comes out.

use std::path::{Path, PathBuf};

use crate::ladder::{self, Ladder};
use crate::load::{run_rep, RepOutcome, RepPlan, Segment};
use crate::metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use crate::oracle::{self, Expected};
use crate::spans::{self, Span, SpanLog};
use crate::sysinfo;
use crate::util::{json_number, json_string, median, percentile, sorted};
use crate::workload::{self, Sizes, Workload, CANONICAL_SECONDS, REPS, TRACED_SHARE};

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Written into the document so a smoke run is never compared
    /// against a full one.
    pub smoke: bool,
    /// Where the full document goes; default
    /// `benchmark/target/results/<workload>[.traced].json`.
    pub out: Option<PathBuf>,
}

pub struct RunResult {
    pub correct: bool,
    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub result_line: String,
}

/// `benchmark/target`: build outputs, state dirs and results, all
/// git-ignored.
pub fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

pub fn results_dir() -> PathBuf {
    target_dir().join("results")
}

pub fn run_workload(args: &RunArgs) -> RunResult {
    let w = args.workload;
    let state_root = target_dir().join("state");
    std::fs::create_dir_all(&state_root).expect("create benchmark/target/state");
    let state_fs = sysinfo::fs_type(&state_root);
    if state_fs == "tmpfs" && w.uses_wal() {
        println!(
            "WARNING: {} is on tmpfs: fsync is free there and the write-ahead-log \
             numbers are not comparable with a run on a disk",
            state_root.display()
        );
    }
    // Counted before the process is confined: afterwards `nproc` is the
    // number of CPUs kept.
    let nproc = sysinfo::nproc();
    let workers = workload::workers();
    let cpus = sysinfo::confine_to_cpus(workers);
    let share = if args.traced { TRACED_SHARE } else { 1.0 };
    let sizes = w.sizes(args.seconds, share);

    // The oracle: one reference run per pool entry.
    let pool = w.corpus(args.seed, sizes.pool);
    let expected: Vec<Expected> = pool
        .iter()
        .map(|sub| {
            let report = oracle::reference(sub).expect("corpus runs through the reference engine");
            oracle::expected_of(&report)
        })
        .collect();

    let plan = |spans| RepPlan {
        workload: w,
        seed: args.seed,
        sizes,
        workers,
        expected: &expected,
        spans,
        state_root: &state_root,
    };
    let mut values = Values::default();
    let (defs, reps): (&[MetricDef], Vec<RepOutcome>) = if args.traced {
        let scratch = state_root.join(format!("{}-{}-ladder", w.name(), std::process::id()));
        std::fs::create_dir_all(&scratch).expect("create ladder scratch dir");
        let ladder = ladder::run(w, &pool, &scratch, if w.journals() { 3 } else { 9 });
        let _ = std::fs::remove_dir_all(&scratch);
        // The traced rep between two untraced ones of the same size, so
        // that a drift in machine speed does not read as tracing overhead.
        let before = run_rep(&plan(None), 0);
        let log = SpanLog::new();
        let traced = run_rep(&plan(Some(log.clone())), 1);
        let after = run_rep(&plan(None), 2);
        let spans_path = results_dir().join(format!("{}.spans.jsonl", w.name()));
        let spans = log.snapshot();
        spans::write_jsonl(&spans, &spans_path).expect("write spans.jsonl");
        println!("spans: {}", spans_path.display());
        let untraced_per_s = (throughput(&before) + throughput(&after)) / 2.0;
        per_layer_values(
            &mut values,
            w,
            workers,
            &ladder,
            untraced_per_s,
            &traced,
            &spans,
        );
        (&PER_LAYER, vec![before, traced, after])
    } else {
        let reps: Vec<RepOutcome> = (0..REPS).map(|k| run_rep(&plan(None), k)).collect();
        end_to_end_values(&mut values, &reps);
        (&END_TO_END, reps)
    };

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let problems: Vec<&String> = reps.iter().flat_map(|r| &r.problems).collect();
    let correct = failed == 0 && attempted > 0;

    println!(
        "workload {} seed {} seconds {} {} — {} reps, workers {workers} on cpus {cpus:?}, state on {state_fs}",
        w.name(),
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" },
        reps.len()
    );
    for d in defs {
        let v = values.get(d.name).expect("every metric is measured");
        let reps: Vec<String> = v.reps.iter().map(|r| format!("{r:.4}")).collect();
        println!(
            "  {:<38} {:>16.4} {:<6} n={}{}",
            d.name,
            v.value,
            d.unit,
            v.n,
            if reps.is_empty() {
                String::new()
            } else {
                format!(" reps=[{}]", reps.join(", "))
            }
        );
    }
    println!("  attempted {attempted} failed {failed} correct {correct}");
    for p in &problems {
        println!("  problem: {p}");
    }

    let document = format!(
        "{{\n  \"workload\": {},\n  \"traced\": {},\n  \"smoke\": {},\n  \"seed\": {},\n  \
         \"seconds\": {},\n  \"reps\": {},\n  \"correct\": {correct},\n  \
         \"attempted\": {attempted},\n  \"failed\": {failed},\n  \"problems\": [{}],\n  \
         \"sizes\": {},\n  \"env\": {},\n  \"metrics\": {}\n}}\n",
        json_string(w.name()),
        args.traced,
        args.smoke,
        args.seed,
        args.seconds,
        reps.len(),
        problems
            .iter()
            .map(|p| json_string(p))
            .collect::<Vec<_>>()
            .join(", "),
        sizes_json(&sizes, workers),
        env_json(nproc, workers, &cpus, &state_fs),
        values.to_json(defs, true),
    );
    let out = args.out.clone().unwrap_or_else(|| {
        results_dir().join(format!(
            "{}{}.json",
            w.name(),
            if args.traced { ".traced" } else { "" }
        ))
    });
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(&out, document).expect("write result document");

    RunResult {
        correct,
        result_line: format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {}}}",
            values.to_json(defs, false)
        ),
    }
}

fn sizes_json(s: &Sizes, workers: usize) -> String {
    format!(
        "{{\"pool\": {}, \"closed_jobs\": {}, \"open_rate_per_s\": {}, \"open_s\": {}, \
         \"outstanding\": {}, \"max_in_flight\": {}, \"queue_capacity\": {}, \"workers\": {workers}, \
         \"canonical_seconds\": {CANONICAL_SECONDS}}}",
        s.pool,
        s.closed_jobs,
        json_number(s.open_rate_per_s),
        json_number(s.open_s),
        workload::OUTSTANDING,
        workload::MAX_IN_FLIGHT,
        workload::QUEUE_CAPACITY,
    )
}

fn env_json(nproc: usize, workers: usize, cpus: &[usize], state_fs: &str) -> String {
    format!(
        "{{\"nproc\": {nproc}, \"workers\": {workers}, \"cpus\": {cpus:?}, \"rustc\": {}, \"commit\": {}, \"state_fs\": {}}}",
        json_string(env!("GWBENCH_RUSTC")),
        json_string(&sysinfo::commit()),
        json_string(state_fs),
    )
}

/// The six end-to-end metrics: each the median of the reps.
fn end_to_end_values(values: &mut Values, reps: &[RepOutcome]) {
    let jobs: u64 = reps.iter().map(|r| r.closed_jobs as u64).sum();
    let samples: u64 = reps.iter().map(|r| r.latency_ms.len() as u64).sum();
    let per_rep = |f: &dyn Fn(&RepOutcome) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    values.set_reps("throughput_per_s", per_rep(&throughput), jobs);
    values.set_reps(
        "cpu_us_per_item",
        per_rep(&|r| over_segments(r, |s| s.cpu_s * s.speed * 1e6 / s.jobs.max(1) as f64)),
        jobs,
    );
    let latency = |q: f64| per_rep(&|r| percentile(&sorted(r.latency_ms.clone()), q));
    values.set_reps("latency_p50_ms", latency(0.5), samples);
    values.set_reps("latency_p90_ms", latency(0.9), samples);
    values.set("peak_rss_mb", sysinfo::peak_rss_mb(), 1);
    values.set_reps("setup_s", per_rep(&|r| r.setup_s), reps.len() as u64);
}

/// A rep's value of a closed-phase metric: the median of its stretches.
fn over_segments(rep: &RepOutcome, f: impl Fn(&Segment) -> f64) -> f64 {
    median(&rep.segments.iter().map(f).collect::<Vec<f64>>())
}

/// Items per second at reference speed.
fn throughput(rep: &RepOutcome) -> f64 {
    over_segments(rep, |s| s.jobs as f64 / (s.wall_s * s.speed))
}

/// Every per-layer metric, from the ladder `l`, the traced rep `t` and its
/// spans, and the closed-phase throughput of same-size untraced reps (for
/// the tracing overhead).
fn per_layer_values(
    values: &mut Values,
    w: Workload,
    workers: usize,
    l: &Ladder,
    untraced_per_s: f64,
    t: &RepOutcome,
    spans: &[Span],
) {
    for (&name, &value) in &l.values {
        values.set(name, value, l.jobs as u64);
    }

    // Counters cover every job the traced service saw, warm-up included.
    let jobs = t.attempted.max(1);
    let per_job = |count: u64| count as f64 / jobs as f64;
    values.set(
        "detect.presumed_dead_per_job",
        per_job(t.service.presumed_dead),
        jobs,
    );
    values.set(
        "detect.false_suspicions_per_job",
        per_job(t.service.false_suspicions),
        jobs,
    );
    values.set(
        "detect.zombie_completions_per_job",
        per_job(t.service.zombie_completions),
        jobs,
    );
    values.set(
        "serve.task_retries_per_job",
        per_job(t.service.task_retries),
        jobs,
    );
    values.set(
        "serve.steered_retries_per_job",
        per_job(t.service.steered_retries),
        jobs,
    );
    values.set(
        "serve.items_dead_lettered_per_job",
        per_job(t.service.items_dead_lettered),
        jobs,
    );
    values.set("serve.recovered_jobs", t.service.recovered as f64, jobs);
    values.set("serve.submit_rejects", t.submit_rejects as f64, jobs);
    values.set("serve.start_s", t.start_s, 1);
    values.set("serve.drain_s", t.drain_s, 1);

    let pct = |v: &[f64], q: f64| percentile(&sorted(v.to_vec()), q);
    let submit = spans::durations_us(spans, "serve.submit");
    values.set(
        "serve.submit_us_p50",
        pct(&submit, 0.5),
        submit.len() as u64,
    );
    values.set(
        "serve.submit_us_p90",
        pct(&submit, 0.9),
        submit.len() as u64,
    );
    values.set(
        "serve.submit_self_us_p50",
        pct(&spans::self_times_us(spans, "serve.submit"), 0.5),
        submit.len() as u64,
    );
    values.set(
        "serve.submit_busy_s",
        submit.iter().sum::<f64>() / 1e6,
        submit.len() as u64,
    );
    let staged = t.queue_wait_ms.len() as u64;
    values.set(
        "serve.queue_wait_ms_p50",
        pct(&t.queue_wait_ms, 0.5),
        staged,
    );
    values.set(
        "serve.queue_wait_ms_p90",
        pct(&t.queue_wait_ms, 0.9),
        staged,
    );
    values.set("serve.run_wall_us_p50", pct(&t.run_wall_us, 0.5), staged);
    values.set("serve.run_wall_us_p90", pct(&t.run_wall_us, 0.9), staged);
    values.set(
        "serve.commit_wait_ms_p50",
        pct(&t.commit_wait_ms, 0.5),
        staged,
    );
    values.set(
        "serve.commit_wait_ms_p90",
        pct(&t.commit_wait_ms, 0.9),
        staged,
    );
    values.set(
        "serve.sat_latency_p99_ms",
        pct(&t.closed_sojourn_ms, 0.99),
        t.closed_sojourn_ms.len() as u64,
    );

    // Worker-time one job costs in the closed phase, against what the
    // layers charge for it in isolation.
    let measured_us = t.closed_wall_s * 1e6 * workers as f64 / t.closed_jobs.max(1) as f64;
    let ladder_us = l.per_job_sum_us(w);
    values.set(
        "serve.overhead_us_per_job",
        measured_us - ladder_us,
        t.closed_jobs as u64,
    );
    values.set(
        "bench.ladder_coverage",
        ladder_us / measured_us,
        t.closed_jobs as u64,
    );
    values.set(
        "bench.trace_overhead_share",
        1.0 - throughput(t) / untraced_per_s,
        t.closed_jobs as u64,
    );
    values.set(
        "bench.generator_late_ms_p90",
        pct(&t.late_ms, 0.9),
        t.late_ms.len() as u64,
    );

    let applies: Vec<&Span> = spans.iter().filter(|s| s.name == "storage.apply").collect();
    let apply_us = spans::durations_us(spans, "storage.apply");
    let calls = applies.len() as u64;
    values.set("storage.apply_calls_per_job", per_job(calls), jobs);
    values.set(
        "storage.ops_per_apply",
        applies.iter().map(|s| s.ops).sum::<u64>() as f64 / calls.max(1) as f64,
        calls,
    );
    values.set("storage.apply_us_p50", pct(&apply_us, 0.5), calls);
    values.set("storage.apply_us_p90", pct(&apply_us, 0.9), calls);
    values.set("storage.apply_us_p99", pct(&apply_us, 0.99), calls);
    values.set(
        "storage.apply_busy_s",
        apply_us.iter().sum::<f64>() / 1e6,
        calls,
    );
    // Busy share over the closed phase only: the applies that began
    // inside a `bench.closed` span, over those spans' length.
    let (mut busy, mut phase_ns) = (0u64, 0u64);
    for phase in spans.iter().filter(|s| s.name == "bench.closed") {
        busy += applies
            .iter()
            .filter(|s| s.start_ns >= phase.start_ns && s.start_ns < phase.end_ns)
            .map(|s| s.duration_ns())
            .sum::<u64>();
        phase_ns += phase.duration_ns();
    }
    let share = busy as f64 / phase_ns.max(1) as f64;
    values.set("storage.apply_busy_share", share, calls);
    values.set("storage.apply_errors", t.apply_errors as f64, calls);
    values.set(
        "storage.group_commits_per_job",
        per_job(t.storage.group_commits),
        jobs,
    );
    values.set(
        "storage.wal_appends_per_job",
        per_job(t.storage.wal_appends),
        jobs,
    );
    values.set(
        "storage.bytes_logged_per_job",
        per_job(t.storage.bytes_logged),
        jobs,
    );
    values.set("storage.compactions", t.storage.compactions as f64, 1);
    values.set(
        "storage.recovery_replayed_records",
        t.storage.recovery_replayed_records as f64,
        1,
    );
    let reads = spans::durations_us(spans, "storage.read");
    values.set(
        "storage.read_calls_per_job",
        per_job(reads.len() as u64),
        jobs,
    );
    values.set("storage.read_us_p50", pct(&reads, 0.5), reads.len() as u64);
    let lists = spans::durations_us(spans, "storage.list");
    values.set(
        "storage.list_us",
        lists.iter().sum::<f64>() / lists.len().max(1) as f64,
        lists.len() as u64,
    );
}

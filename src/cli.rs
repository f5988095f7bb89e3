//! The `gridwfs` command-line tool.
//!
//! What a downstream user actually touches: validate a WPDL file, render
//! it as Graphviz, or execute it on a configured simulated Grid —
//! optionally with engine checkpointing and resume, exactly the §7
//! deployment story.
//!
//! ```text
//! gridwfs validate workflow.xml
//! gridwfs dot      workflow.xml > wf.dot
//! gridwfs run      workflow.xml --grid grid.json [--seed N]
//!                  [--checkpoint state.xml] [--resume state.xml]
//!                  [--timeline] [--verbose] [--json report.json]
//!                  [--trace trace.jsonl] [--detector phi:8]
//!                  [--scheduler resilient]
//! gridwfs resume   state.xml --grid grid.json [run options]
//! gridwfs serve    wf1.xml wf2.xml ... --grid grid.json [--workers N]
//!                  [--queue N] [--state-dir DIR] [--deadline S]
//!                  [--paced SCALE] [--metrics metrics.json]
//!                  [--trace-dir DIR]
//! ```
//!
//! The Grid configuration is a JSON inventory of hosts (speed, MTTF, mean
//! downtime), an optional link model, and per-program behaviour profiles
//! (checkpoint emission, software-crash MTTF, exception injection) — the
//! knobs of [`grid_wfs::sim_executor`].  It parses straight into the
//! service's [`GridSpec`] (see [`GridSpec::from_json`]), so `run`,
//! `resume` and `serve` share one grid model and one engine configuration.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use grid_wfs::checkpoint;
use grid_wfs::engine::{Engine, LogKind, Report};
use grid_wfs::sim_executor::SimGrid;
use grid_wfs::TraceSink;
use gridwfs_serve::json::{json_number, json_string};
use gridwfs_serve::{
    recover, Backend, DetectorSpec, ExecMode, FaultPlan, GridSpec, JobId, JobState, Op,
    SchedulerSpec, Service, ServiceConfig, Storage, Submission, SubmitError, WalStorage, WAL_FILE,
};
use gridwfs_trace::JsonlSink;
use gridwfs_wpdl::validate::validate;
use gridwfs_wpdl::{dot, parse};

/// Errors surfaced to the CLI user (message-only; the binary prints them).
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

// ------------------------------------------------------- grid config ---

/// Reads and parses a `--grid` file into the one grid model
/// ([`GridSpec::from_json`]) plus the file's seed.
fn read_grid(path: Option<&PathBuf>, cmd: &str) -> Result<(GridSpec, u64), CliError> {
    let path = path.ok_or_else(|| CliError(format!("{cmd} requires --grid <config.json>")))?;
    GridSpec::from_json(&read(path)?).map_err(CliError)
}

// --------------------------------------------------------- commands ---

fn read(path: &Path) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError(format!("{}: {e}", path.display())))
}

/// `gridwfs validate <workflow.xml>`: parse + static validation; returns a
/// human report, errors if the document is invalid.
pub fn cmd_validate(workflow_path: &Path) -> Result<String, CliError> {
    let workflow = parse::from_str(&read(workflow_path)?).map_err(|e| CliError(e.to_string()))?;
    let name = workflow.name.clone();
    match validate(workflow) {
        Ok(v) => {
            let mut out = String::new();
            let _ = writeln!(out, "workflow '{name}' is valid");
            let _ = writeln!(
                out,
                "  activities: {} ({} dummies)",
                v.workflow().activities.len(),
                v.workflow()
                    .activities
                    .iter()
                    .filter(|a| a.is_dummy())
                    .count()
            );
            let _ = writeln!(out, "  transitions: {}", v.workflow().transitions.len());
            let _ = writeln!(out, "  execution order: {:?}", v.topological_order());
            Ok(out)
        }
        Err(issues) => {
            let mut msg = format!("workflow '{name}' has {} issue(s):\n", issues.len());
            for i in &issues {
                let _ = writeln!(msg, "  - {i}");
            }
            err(msg)
        }
    }
}

/// `gridwfs dot <workflow.xml>`: Graphviz DOT on stdout.
pub fn cmd_dot(workflow_path: &Path) -> Result<String, CliError> {
    let workflow = parse::from_str(&read(workflow_path)?).map_err(|e| CliError(e.to_string()))?;
    Ok(dot::to_dot(&workflow))
}

/// Options for `gridwfs run`.
#[derive(Debug, Default)]
pub struct RunOptions {
    /// WPDL file to execute (ignored when resuming).
    pub workflow: Option<PathBuf>,
    /// Grid config JSON.
    pub grid: Option<PathBuf>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Engine-checkpoint output path.
    pub checkpoint: Option<PathBuf>,
    /// Resume from a previously saved engine checkpoint.
    pub resume: Option<PathBuf>,
    /// Render the ASCII timeline.
    pub timeline: bool,
    /// Include the full engine log.
    pub verbose: bool,
    /// Run the workflow this many times over consecutive seeds and report
    /// success rate + makespan statistics (a mini Monte-Carlo evaluator).
    pub repeat: Option<u32>,
    /// Write a machine-readable JSON report to this path.
    pub json: Option<PathBuf>,
    /// Write the flight-recorder journal (JSONL, one event per line) to
    /// this path.  Byte-identical across re-runs with the same seed.
    pub trace: Option<PathBuf>,
    /// Enable the per-host circuit breaker with this consecutive-failure
    /// threshold (decorrelated-jitter backoff, half-open probes).
    pub breaker: Option<u32>,
    /// Crash-presumption policy: `phi:<threshold>` or
    /// `timeout[:<tolerance>]` (overrides the grid config's `detector`).
    pub detector: Option<String>,
    /// Placement policy: `oblivious` or `resilient` (overrides the grid
    /// config's `scheduler`).
    pub scheduler: Option<String>,
}

/// The grid a `run` executes on: the `--grid` file with `--detector` and
/// `--scheduler` applied over its own `detector`/`scheduler`, and the
/// file's seed.
fn run_grid(opts: &RunOptions) -> Result<(GridSpec, u64), CliError> {
    let (mut spec, seed) = read_grid(opts.grid.as_ref(), "run")?;
    if let Some(d) = &opts.detector {
        spec.detector = Some(DetectorSpec::parse(d).map_err(CliError)?);
    }
    if let Some(s) = &opts.scheduler {
        spec.scheduler = Some(SchedulerSpec::parse(s).map_err(CliError)?);
    }
    Ok((spec, seed))
}

/// The engine one run executes — a single `run`, a `resume`, or one
/// `--repeat` repetition: the workflow (or the checkpoint to resume) on
/// `spec`'s simulated Grid at `seed`, configured by
/// [`GridSpec::engine_config`] plus the two settings only the CLI has,
/// the checkpoint file and the circuit breaker.
fn build_engine(
    spec: &GridSpec,
    seed: u64,
    opts: &RunOptions,
) -> Result<Engine<SimGrid>, CliError> {
    let grid = spec.build_sim(seed);
    let engine = match (&opts.resume, &opts.workflow) {
        (Some(resume), _) => {
            let instance = checkpoint::load(resume).map_err(|e| CliError(e.to_string()))?;
            Engine::from_instance(instance, grid)
        }
        (None, Some(wf_path)) => {
            let workflow = parse::from_str(&read(wf_path)?).map_err(|e| CliError(e.to_string()))?;
            let validated = validate(workflow).map_err(|issues| {
                CliError(
                    issues
                        .iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join("\n"),
                )
            })?;
            Engine::new(validated, grid)
        }
        (None, None) => return err("run requires a workflow file (or --resume)"),
    };
    let mut config = spec.engine_config();
    if let Some(threshold) = opts.breaker {
        if threshold == 0 {
            return err("--breaker threshold must be >= 1");
        }
        config.breaker = Some(grid_wfs::BreakerConfig {
            threshold,
            ..grid_wfs::BreakerConfig::default()
        });
    }
    let engine = engine.with_config(config);
    Ok(match &opts.checkpoint {
        Some(path) => engine.with_checkpointing(path),
        None => engine,
    })
}

/// Renders a [`Report`] as machine-readable JSON (schema 1): outcome,
/// makespan, per-activity final status, per-activity submission counts,
/// cancellations, and evaluation warnings.
pub fn report_to_json(report: &Report) -> String {
    let mut submissions: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for span in &report.spans {
        *submissions.entry(span.activity.as_str()).or_default() += 1;
    }
    let cancellations = report
        .log
        .iter()
        .filter(|e| e.kind == LogKind::Cancel)
        .count();
    let mut s = String::from("{\n  \"schema\": 1,\n");
    let _ = writeln!(
        s,
        "  \"outcome\": {},",
        json_string(&format!("{:?}", report.outcome))
    );
    let _ = writeln!(s, "  \"success\": {},", report.is_success());
    let _ = writeln!(
        s,
        "  \"aborted\": {},",
        report
            .aborted
            .as_deref()
            .map_or("null".to_string(), json_string)
    );
    let _ = writeln!(s, "  \"makespan\": {},", json_number(report.makespan));
    let _ = writeln!(s, "  \"finished_at\": {},", json_number(report.finished_at));
    let _ = writeln!(s, "  \"cancellations\": {cancellations},");
    s.push_str("  \"activities\": [\n");
    for (i, (name, status)) in report.node_status.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": {}, \"status\": {}, \"submissions\": {}}}",
            json_string(name),
            json_string(&status.to_string()),
            submissions.get(name.as_str()).copied().unwrap_or(0)
        );
        s.push_str(if i + 1 < report.node_status.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n  \"eval_errors\": [");
    for (i, e) in report.eval_errors.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&json_string(e));
    }
    s.push_str("]\n}\n");
    s
}

/// `gridwfs run --repeat N`: Monte-Carlo over consecutive seeds.
pub fn cmd_run_repeat(opts: &RunOptions, n: u32) -> Result<String, CliError> {
    if n == 0 {
        return err("--repeat requires at least 1 run");
    }
    let (spec, _) = run_grid(opts)?;
    let base_seed = opts.seed.unwrap_or(0);
    // Repetitions report statistics only: no checkpoint file, no journal.
    let one = RunOptions {
        workflow: opts.workflow.clone(),
        resume: opts.resume.clone(),
        breaker: opts.breaker,
        ..RunOptions::default()
    };
    let mut successes = 0u32;
    let mut makespans: Vec<f64> = Vec::new();
    for i in 0..n {
        let report = build_engine(&spec, base_seed + i as u64, &one)?.run();
        if report.is_success() {
            successes += 1;
            makespans.push(report.makespan);
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "runs:         {n} (seeds {base_seed}..{})",
        base_seed + n as u64 - 1
    );
    let _ = writeln!(
        out,
        "success rate: {:.1}% ({successes}/{n})",
        100.0 * successes as f64 / n as f64
    );
    if !makespans.is_empty() {
        makespans.sort_by(f64::total_cmp);
        let mean = makespans.iter().sum::<f64>() / makespans.len() as f64;
        let _ = writeln!(
            out,
            "makespan (successful runs): mean {:.2}, min {:.2}, median {:.2}, max {:.2}",
            mean,
            makespans[0],
            makespans[makespans.len() / 2],
            makespans[makespans.len() - 1],
        );
    }
    Ok(out)
}

/// `gridwfs run`: execute a workflow on the configured Grid.  Returns the
/// rendered report; `Err` only for setup problems — an unsuccessful
/// *workflow* is still an `Ok` report (the binary maps it to exit code 1).
pub fn cmd_run(opts: &RunOptions) -> Result<(Report, String), CliError> {
    let (spec, file_seed) = run_grid(opts)?;
    let mut engine = build_engine(&spec, opts.seed.unwrap_or(file_seed), opts)?;
    let trace_sink = match &opts.trace {
        Some(path) => {
            let sink = Arc::new(
                JsonlSink::create(path)
                    .map_err(|e| CliError(format!("{}: {e}", path.display())))?,
            );
            engine = engine.with_trace_sink(sink.clone() as Arc<dyn TraceSink>);
            Some(sink)
        }
        None => None,
    };
    let report = engine.run();

    let mut out = String::new();
    let _ = writeln!(out, "outcome:  {:?}", report.outcome);
    let _ = writeln!(out, "makespan: {:.3}", report.makespan);
    let _ = writeln!(out, "final states:");
    for (name, status) in &report.node_status {
        let _ = writeln!(out, "  {name:<24} {status}");
    }
    if opts.timeline {
        let _ = writeln!(out, "\n{}", report.timeline(72));
    }
    if opts.verbose {
        let _ = writeln!(out, "engine log:");
        for e in &report.log {
            let _ = writeln!(out, "  [{:>10.3}] {:?}: {}", e.at, e.kind, e.message);
        }
    }
    for e in &report.eval_errors {
        let _ = writeln!(out, "warning: {e}");
    }
    if let Some(path) = &opts.json {
        std::fs::write(path, report_to_json(&report))
            .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
        let _ = writeln!(out, "report JSON written to {}", path.display());
    }
    if let (Some(path), Some(sink)) = (&opts.trace, &trace_sink) {
        // The engine flushed the sink at end of run; surface any latched
        // I/O error instead of silently shipping a truncated journal.
        if let Some(e) = sink.error() {
            return Err(CliError(format!("{}: {e}", path.display())));
        }
        let _ = writeln!(out, "trace JSONL written to {}", path.display());
    }
    Ok((report, out))
}

// ------------------------------------------------------------ serve ---

/// Options for `gridwfs serve`.
#[derive(Debug)]
pub struct ServeOptions {
    /// Workflow files to submit.
    pub workflows: Vec<PathBuf>,
    /// Grid config JSON.
    pub grid: Option<PathBuf>,
    /// Worker threads (concurrent engine instances).
    pub workers: usize,
    /// Jobs each worker admits concurrently (cooperative stepping).
    pub inflight: usize,
    /// Admission-queue capacity.
    pub queue: usize,
    /// Crash-recovery state directory.
    pub state_dir: Option<PathBuf>,
    /// Storage backend for the state directory (`wal` | `memory`).
    pub backend: gridwfs_serve::Backend,
    /// Per-job deadline (executor seconds).
    pub deadline: Option<f64>,
    /// Run paced (wall-clock) instead of virtual-time, with this
    /// nominal-seconds → wall-seconds scale.
    pub paced: Option<f64>,
    /// Base seed override (per-job seeds are base + job index).
    pub seed: Option<u64>,
    /// Write the final metrics JSON snapshot to this path.
    pub metrics: Option<PathBuf>,
    /// Flight-recorder directory: each job writes `job-<id>.trace.jsonl`.
    pub trace_dir: Option<PathBuf>,
    /// Chaos fault-plan spec (e.g. `seed=7,panic=0.1,torn=0.2`); the whole
    /// batch runs under seeded fault injection (see `gridwfs-chaos`).
    pub chaos: Option<String>,
    /// Replica identity for federated serve: every admitted job is owned
    /// via an expiring lease record, peers sharing the state dir take
    /// over jobs whose lease lapses.
    pub replica_id: Option<String>,
    /// Lease time-to-live in wall seconds (federated serve only).
    pub lease_ttl: Option<f64>,
    /// This replica's position in the fleet (`0..fleet_size`): strides
    /// job-id allocation so replicas sharing a state dir never mint the
    /// same id (federated serve only; default 0).
    pub replica_index: Option<usize>,
    /// Number of replicas sharing the state dir — the id-allocation
    /// stride (federated serve only; default 1).
    pub fleet_size: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workflows: Vec::new(),
            grid: None,
            workers: 4,
            inflight: 1,
            queue: 64,
            state_dir: None,
            backend: gridwfs_serve::Backend::default(),
            deadline: None,
            paced: None,
            seed: None,
            metrics: None,
            trace_dir: None,
            chaos: None,
            replica_id: None,
            lease_ttl: None,
            replica_index: None,
            fleet_size: None,
        }
    }
}

/// `gridwfs serve`: run the workflow service over a batch of submissions
/// and report per-job outcomes plus the metrics snapshot.  Exit code 0
/// iff every job finished `Done`.
pub fn cmd_serve(opts: &ServeOptions) -> Result<(i32, String), CliError> {
    let (mut spec, file_seed) = read_grid(opts.grid.as_ref(), "serve")?;
    if opts.workflows.is_empty() && opts.state_dir.is_none() {
        return err("serve requires workflow files (or --state-dir with unfinished jobs)");
    }
    if opts.workers == 0 || opts.queue == 0 {
        return err("serve requires --workers and --queue >= 1");
    }
    if opts.inflight == 0 {
        return err("serve requires --inflight >= 1");
    }
    spec.mode = match opts.paced {
        Some(scale) if scale > 0.0 => ExecMode::Paced { scale },
        Some(bad) => return err(format!("--paced scale {bad} must be positive")),
        None => ExecMode::Virtual,
    };
    let chaos = match &opts.chaos {
        Some(s) => Some(FaultPlan::parse(s).map_err(CliError)?),
        None => None,
    };
    if opts.replica_id.is_none() && opts.lease_ttl.is_some() {
        return err("--lease-ttl only applies to federated serve (--replica-id)");
    }
    if opts.replica_id.is_none() && (opts.replica_index.is_some() || opts.fleet_size.is_some()) {
        return err("--replica-index/--fleet-size only apply to federated serve (--replica-id)");
    }
    let lease_ttl = match opts.lease_ttl {
        Some(s) if s > 0.0 => Duration::from_secs_f64(s),
        Some(bad) => return err(format!("--lease-ttl {bad} must be positive")),
        None => ServiceConfig::default().lease_ttl,
    };
    // Job-id striding: replicas sharing a state dir must each run with a
    // distinct index under the common fleet size, or they would mint
    // colliding job ids (the service's admission guard then rejects the
    // collision rather than clobbering the peer's job — but a correctly
    // configured fleet never hits it).
    let fleet_size = opts.fleet_size.unwrap_or(1);
    if fleet_size == 0 {
        return err("--fleet-size must be >= 1");
    }
    let replica_index = opts.replica_index.unwrap_or(0);
    if replica_index >= fleet_size {
        return err(format!(
            "--replica-index {replica_index} out of range: the fleet has \
             {fleet_size} replica(s) (indexes 0..{fleet_size})"
        ));
    }
    if opts.replica_id.is_some() && opts.state_dir.is_none() {
        return err("--replica-id requires --state-dir (the shared lease store)");
    }
    let service = Service::start(ServiceConfig {
        workers: opts.workers,
        max_in_flight: opts.inflight,
        queue_capacity: opts.queue,
        state_dir: opts.state_dir.clone(),
        backend: opts.backend,
        default_deadline: opts.deadline,
        trace_dir: opts.trace_dir.clone(),
        chaos: chaos.clone(),
        replica_id: opts.replica_id.clone(),
        lease_ttl,
        replica_index,
        fleet_size,
        ..ServiceConfig::default()
    })
    .map_err(CliError)?;
    let base_seed = opts.seed.unwrap_or(file_seed);
    let mut backpressure_retries = 0u64;
    let mut out_faults = String::new();
    for (i, wf) in opts.workflows.iter().enumerate() {
        let sub = Submission {
            name: wf
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| format!("job-{i}")),
            workflow_xml: read(wf)?,
            grid: spec.clone(),
            seed: base_seed + i as u64,
            deadline: None,
        };
        loop {
            match service.submit(sub.clone()) {
                Ok(_) => break,
                Err(SubmitError::QueueFull) => {
                    // Backpressure: hold the batch until a slot frees up.
                    backpressure_retries += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                // An injected persistence fault is the point of a chaos
                // run: the rejection is loud, deterministic, and retrying
                // would hit it again — report it and keep going.
                Err(SubmitError::Io(e)) if chaos.is_some() => {
                    let _ = writeln!(
                        out_faults,
                        "{}: rejected by injected fault: {e}",
                        wf.display()
                    );
                    break;
                }
                Err(e) => return err(format!("{}: {e}", wf.display())),
            }
        }
    }
    if !service.wait_all_terminal(Duration::from_secs(3600)) {
        return err("service did not reach quiescence within an hour");
    }
    let metrics_json = service.metrics_json();
    let records = service.drain();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<20} {:<10} {:>9} {:>9}  detail",
        "job", "name", "state", "makespan", "latency"
    );
    for r in &records {
        let _ = writeln!(
            out,
            "{:<8} {:<20} {:<10} {:>9} {:>9}  {}",
            r.id.to_string(),
            r.name,
            r.state.as_str(),
            r.makespan.map_or("-".into(), |m| format!("{m:.2}")),
            r.latency().map_or("-".into(), |l| format!("{l:.2}s")),
            r.detail.as_deref().unwrap_or(""),
        );
    }
    out.push_str(&out_faults);
    if backpressure_retries > 0 {
        let _ = writeln!(
            out,
            "backpressure: {backpressure_retries} submit retries while the queue was full"
        );
    }
    if let Some(plan) = &chaos {
        let _ = writeln!(out, "chaos: ran under fault plan '{plan}'");
    }
    match &opts.metrics {
        Some(path) => {
            std::fs::write(path, &metrics_json)
                .map_err(|e| CliError(format!("{}: {e}", path.display())))?;
            let _ = writeln!(out, "metrics JSON written to {}", path.display());
        }
        None => {
            let _ = writeln!(out, "metrics: {metrics_json}");
        }
    }
    let all_done = !records.is_empty() && records.iter().all(|r| r.state == JobState::Done);
    Ok((if all_done { 0 } else { 1 }, out))
}

// ------------------------------------------------------- dead letters ---

/// Opens a service state dir for offline inspection (`dlq list|retry`).
/// The memory backend keeps nothing across processes, so there is nothing
/// offline to open.
fn open_state_dir(dir: &Path, backend: Backend) -> Result<Arc<dyn Storage>, CliError> {
    match backend {
        Backend::Wal => {
            // `WalStorage::open` creates what it does not find.  Inspection
            // must not: a mistyped path would report an empty queue and
            // leave a fresh log behind.
            let log = dir.join(WAL_FILE);
            if !log.is_file() {
                return err(format!(
                    "{}: no write-ahead log — not a gridwfs state dir (the per-file \
                     layout of the removed 'dir' backend is no longer read)",
                    log.display()
                ));
            }
            let st =
                WalStorage::open(dir).map_err(|e| CliError(format!("{}: {e}", dir.display())))?;
            Ok(Arc::new(st))
        }
        Backend::Memory => err("the memory backend keeps no state across processes; \
             dlq needs a wal state dir"),
    }
}

/// Accepts `job-7` (the display form) or a bare `7`.
fn parse_job_id(s: &str) -> Result<JobId, CliError> {
    s.strip_prefix("job-")
        .unwrap_or(s)
        .parse()
        .map(JobId)
        .map_err(|_| {
            CliError(format!(
                "'{s}' is not a job id (expected 'job-<n>' or '<n>')"
            ))
        })
}

/// `gridwfs dlq list`: every dead-lettered `<Foreach>` item across every
/// job in the state dir, one row per item.
pub fn cmd_dlq_list(st: &dyn Storage) -> Result<(i32, String), CliError> {
    let mut jobs: Vec<JobId> = st
        .list()
        .map_err(|e| CliError(format!("state dir: {e}")))?
        .into_iter()
        .filter_map(|n| {
            n.strip_prefix("job-")
                .and_then(|rest| rest.strip_suffix(".dlq"))
                .and_then(|id| id.parse().ok())
                .map(JobId)
        })
        .collect();
    jobs.sort();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<16} {:>5} {:>8}  {:<24} item",
        "job", "activity", "item#", "attempts", "reason"
    );
    let mut total = 0usize;
    for id in &jobs {
        for e in recover::read_dlq(st, *id).map_err(CliError)? {
            let _ = writeln!(
                out,
                "{:<8} {:<16} {:>5} {:>8}  {:<24} {}",
                id.to_string(),
                e.activity,
                e.index,
                e.attempts,
                e.reason,
                e.item.replace('\n', "\\n"),
            );
            total += 1;
        }
    }
    let _ = writeln!(
        out,
        "{total} dead-lettered item(s) across {} job(s)",
        jobs.len()
    );
    Ok((0, out))
}

/// `gridwfs dlq retry <job>`: flip the job's dead-lettered items back to
/// pending in its checkpoint and clear the terminal marker, all in one
/// group commit.  The next `serve --state-dir` run re-admits the job and
/// its engine reprocesses exactly those items — everything already settled
/// stays settled, and the elapsed ledger is left alone so the resumed
/// incarnation inherits the remaining deadline budget, not a fresh one.
///
/// The dead-letter record is read first: a job whose last run parked
/// nothing had its checkpoint purged when it settled, and answers "no
/// dead-lettered items" (exit 1) rather than a missing-checkpoint error.
pub fn cmd_dlq_retry(st: &dyn Storage, job: &str) -> Result<(i32, String), CliError> {
    let id = parse_job_id(job)?;
    if !st.exists(&recover::meta_name(id)) {
        return err(format!("{id}: no such job in this state dir"));
    }
    if recover::read_dlq(st, id).map_err(CliError)?.is_empty() {
        return Ok((1, format!("{id}: no dead-lettered items to retry\n")));
    }
    let ckpt_name = recover::checkpoint_name(id);
    let xml = st
        .read_to_string(&ckpt_name)
        .map_err(|e| CliError(format!("{id}: no checkpoint to reprocess from: {e}")))?;
    let (reset, count) =
        checkpoint::reset_dead_letters(&xml).map_err(|e| CliError(format!("{id}: {e}")))?;
    if count == 0 {
        return Ok((1, format!("{id}: no dead-lettered items to retry\n")));
    }
    let mut errors = st.apply(vec![
        Op::Put(ckpt_name, reset.into_bytes()),
        Op::Del(recover::result_name(id)),
        Op::Del(recover::dlq_name(id)),
    ]);
    if !errors.is_empty() {
        let (name, e) = errors.swap_remove(0);
        return err(format!("{id}: reset did not commit ({name}: {e})"));
    }
    Ok((
        0,
        format!(
            "{id}: {count} dead-lettered item(s) reset to pending; \
             restart serve --state-dir to reprocess them\n"
        ),
    ))
}

/// Usage text.
pub const USAGE: &str = "\
gridwfs — Grid-WFS workflow engine (HPDC'03 reproduction)

USAGE:
  gridwfs validate <workflow.xml>
  gridwfs dot      <workflow.xml>
  gridwfs run      <workflow.xml> --grid <grid.json> [options]
  gridwfs run      --resume <state.xml> --grid <grid.json> [options]
  gridwfs resume   <state.xml> --grid <grid.json> [options]
  gridwfs serve    <wf1.xml> [wf2.xml ...] --grid <grid.json> [serve options]
  gridwfs dlq      list --state-dir <dir> [--backend <name>]
  gridwfs dlq      retry <job-id> --state-dir <dir> [--backend <name>]

RUN OPTIONS:
  --grid <file>        Grid configuration (JSON: hosts, link, profiles);
                       a jittering link turns on the reorder buffer
  --seed <n>           override the config's RNG seed
  --checkpoint <file>  save the engine checkpoint after every task event
  --resume <file>      resume navigation from a saved checkpoint
  --repeat <n>         Monte-Carlo over n consecutive seeds; print statistics
  --breaker <n>        per-host circuit breaker: n consecutive failures open
                       a host (jittered backoff, half-open probes)
  --detector <spec>    crash-presumption policy: phi:<threshold> (adaptive
                       φ-accrual) or timeout[:<tolerance>] (fixed timeout);
                       overrides the grid config's \"detector\" field
  --scheduler <name>   placement policy: oblivious (cycle declared options,
                       the default) or resilient (score hosts by live
                       failure evidence — φ, breaker state, failure rate —
                       plus MTTF priors from the grid config); overrides
                       the grid config's \"scheduler\" field
  --timeline           render an ASCII Gantt of all attempts
  --verbose            include the full engine log
  --json <file>        also write a machine-readable JSON report
  --trace <file>       write the flight-recorder journal (JSONL); runs with
                       the same seed produce byte-identical journals

SERVE OPTIONS:
  --grid <file>        Grid configuration (JSON: hosts, link, profiles)
  --workers <n>        worker threads (default 4)
  --inflight <n>       jobs each worker steps cooperatively at once
                       (default 1; raise for paced jobs that mostly wait)
  --queue <n>          admission-queue capacity (default 64)
  --state-dir <dir>    persist jobs + checkpoints for crash recovery
  --backend <name>     storage engine for --state-dir: wal (group-commit
                       write-ahead log, default) or memory (tests/benches;
                       nothing survives)
  --deadline <s>       per-job deadline in executor seconds
  --paced <scale>      run on real threads, scale wall-seconds per unit
  --seed <n>           base seed (job i runs with seed base+i)
  --metrics <file>     write the final metrics JSON snapshot here
  --trace-dir <dir>    per-job flight-recorder journals (job-<id>.trace.jsonl);
                       recovered incarnations append to the same journal
  --chaos <spec>       seeded fault injection for the whole batch, e.g.
                       seed=7,panic=0.1,torn=0.2,stall=0.1 (see gridwfs-chaos)
  --replica-id <id>    join a federation: every admitted job is owned via an
                       expiring lease record in the (shared) --state-dir;
                       peers take over jobs whose lease lapses, and the
                       late writes of a deposed owner are fenced
  --lease-ttl <s>      lease time-to-live in wall seconds (default 2);
                       renewed at ttl/4 by a heartbeat thread, which also
                       sweeps for expired peers once per ttl; pick a ttl
                       much larger than the fleet's wall-clock skew
  --replica-index <k>  this replica's position in the fleet (0-based,
                       default 0): strides job-id allocation so replicas
                       sharing a state dir never mint the same id — every
                       replica of a fleet needs a distinct index
  --fleet-size <m>     number of replicas sharing the state dir (the id
                       stride, default 1); must be the same on every
                       replica

DLQ OPTIONS:
  dlq list             print every dead-lettered <Foreach> item in the
                       state dir, one row per parked item
  dlq retry <job>      flip a job's dead-lettered items back to pending and
                       clear its terminal marker (one group commit); the
                       next serve --state-dir run re-admits the job and
                       reprocesses only those items, with the elapsed
                       deadline ledger carried across incarnations
  --state-dir <dir>    the service's persistence root (required); must
                       already hold a wal.log — dlq never creates one
  --backend <name>     storage engine of the state dir: wal (default);
                       memory keeps nothing across processes
";

/// The value after a flag, parsed; `msg` is the error when it is missing
/// or malformed.
fn flag_value<'a, T: std::str::FromStr>(
    rest: &mut impl Iterator<Item = &'a String>,
    msg: &str,
) -> Result<T, CliError> {
    rest.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CliError(msg.into()))
}

/// Parses the shared `run`/`resume` option set.  With `resume_first` the
/// leading positional argument is the checkpoint to resume (the `resume`
/// subcommand); otherwise it is the workflow file.
fn parse_run_opts<'a>(
    rest: impl Iterator<Item = &'a String>,
    resume_first: bool,
) -> Result<RunOptions, CliError> {
    let mut opts = RunOptions::default();
    let mut rest = rest.peekable();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--grid" => opts.grid = rest.next().map(PathBuf::from),
            "--seed" => opts.seed = Some(flag_value(&mut rest, "--seed requires an integer")?),
            "--checkpoint" => opts.checkpoint = rest.next().map(PathBuf::from),
            "--resume" => opts.resume = rest.next().map(PathBuf::from),
            "--repeat" => {
                opts.repeat = Some(flag_value(&mut rest, "--repeat requires an integer")?)
            }
            "--breaker" => {
                opts.breaker = Some(flag_value(
                    &mut rest,
                    "--breaker requires an integer threshold",
                )?)
            }
            "--detector" => {
                let msg = "--detector requires phi:<threshold> or timeout[:<tolerance>]";
                opts.detector = Some(flag_value(&mut rest, msg)?)
            }
            "--scheduler" => {
                let msg = "--scheduler requires oblivious or resilient";
                opts.scheduler = Some(flag_value(&mut rest, msg)?)
            }
            "--timeline" => opts.timeline = true,
            "--verbose" => opts.verbose = true,
            "--json" => opts.json = rest.next().map(PathBuf::from),
            "--trace" => opts.trace = rest.next().map(PathBuf::from),
            other if !other.starts_with("--") && resume_first && opts.resume.is_none() => {
                opts.resume = Some(PathBuf::from(other))
            }
            other if !other.starts_with("--") && !resume_first && opts.workflow.is_none() => {
                opts.workflow = Some(PathBuf::from(other))
            }
            other => return err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    if resume_first && opts.resume.is_none() {
        return err("resume requires a saved checkpoint file");
    }
    Ok(opts)
}

fn dispatch_run(opts: RunOptions) -> Result<(i32, String), CliError> {
    if let Some(n) = opts.repeat {
        let out = cmd_run_repeat(&opts, n)?;
        Ok((0, out))
    } else {
        let (report, out) = cmd_run(&opts)?;
        Ok((if report.is_success() { 0 } else { 1 }, out))
    }
}

/// Parses argv (without the program name) and executes.  Returns
/// `(exit_code, output)`.
pub fn main_with_args(args: &[String]) -> (i32, String) {
    let mut it = args.iter();
    let cmd = match it.next() {
        Some(c) => c.as_str(),
        None => return (2, USAGE.to_string()),
    };
    let result: Result<(i32, String), CliError> = match cmd {
        "validate" => match it.next() {
            Some(p) => cmd_validate(Path::new(p)).map(|s| (0, s)),
            None => err("validate requires a workflow file"),
        },
        "dot" => match it.next() {
            Some(p) => cmd_dot(Path::new(p)).map(|s| (0, s)),
            None => err("dot requires a workflow file"),
        },
        "run" => parse_run_opts(it.clone(), false).and_then(dispatch_run),
        "resume" => parse_run_opts(it.clone(), true).and_then(dispatch_run),
        "serve" => (|| {
            let mut opts = ServeOptions::default();
            let mut rest = it.clone();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--grid" => opts.grid = rest.next().map(PathBuf::from),
                    "--workers" => {
                        opts.workers = flag_value(&mut rest, "--workers requires an integer")?
                    }
                    "--inflight" => {
                        opts.inflight = flag_value(&mut rest, "--inflight requires an integer")?
                    }
                    "--queue" => opts.queue = flag_value(&mut rest, "--queue requires an integer")?,
                    "--state-dir" => opts.state_dir = rest.next().map(PathBuf::from),
                    "--backend" => match rest.next() {
                        Some(name) => match gridwfs_serve::Backend::parse(name) {
                            Ok(b) => opts.backend = b,
                            Err(e) => return err(format!("{e}\n\n{USAGE}")),
                        },
                        None => return err(format!("--backend needs a value\n\n{USAGE}")),
                    },
                    "--deadline" => {
                        opts.deadline = Some(flag_value(&mut rest, "--deadline requires a number")?)
                    }
                    "--paced" => {
                        opts.paced = Some(flag_value(&mut rest, "--paced requires a number")?)
                    }
                    "--seed" => {
                        opts.seed = Some(flag_value(&mut rest, "--seed requires an integer")?)
                    }
                    "--metrics" => opts.metrics = rest.next().map(PathBuf::from),
                    "--trace-dir" => opts.trace_dir = rest.next().map(PathBuf::from),
                    "--chaos" => opts.chaos = rest.next().cloned(),
                    "--replica-id" => {
                        opts.replica_id = Some(flag_value(&mut rest, "--replica-id needs a value")?)
                    }
                    "--lease-ttl" => {
                        opts.lease_ttl =
                            Some(flag_value(&mut rest, "--lease-ttl requires a number")?)
                    }
                    "--replica-index" => {
                        opts.replica_index = Some(flag_value(
                            &mut rest,
                            "--replica-index requires an integer",
                        )?)
                    }
                    "--fleet-size" => {
                        opts.fleet_size =
                            Some(flag_value(&mut rest, "--fleet-size requires an integer")?)
                    }
                    other if !other.starts_with("--") => opts.workflows.push(PathBuf::from(other)),
                    other => return err(format!("unknown argument '{other}'\n\n{USAGE}")),
                }
            }
            cmd_serve(&opts)
        })(),
        "dlq" => (|| {
            let mut action: Option<String> = None;
            let mut job: Option<String> = None;
            let mut state_dir: Option<PathBuf> = None;
            let mut backend = Backend::default();
            let mut rest = it.clone();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--state-dir" => state_dir = rest.next().map(PathBuf::from),
                    "--backend" => match rest.next() {
                        Some(name) => match Backend::parse(name) {
                            Ok(b) => backend = b,
                            Err(e) => return err(format!("{e}\n\n{USAGE}")),
                        },
                        None => return err(format!("--backend needs a value\n\n{USAGE}")),
                    },
                    other if !other.starts_with("--") && action.is_none() => {
                        action = Some(other.to_string())
                    }
                    other if !other.starts_with("--") && job.is_none() => {
                        job = Some(other.to_string())
                    }
                    other => return err(format!("unknown argument '{other}'\n\n{USAGE}")),
                }
            }
            let dir = state_dir.ok_or_else(|| CliError("dlq requires --state-dir <dir>".into()))?;
            let st = open_state_dir(&dir, backend)?;
            match action.as_deref() {
                Some("list") => cmd_dlq_list(st.as_ref()),
                Some("retry") => {
                    let job = job.ok_or_else(|| CliError("dlq retry requires a job id".into()))?;
                    cmd_dlq_retry(st.as_ref(), &job)
                }
                Some(other) => err(format!("unknown dlq action '{other}' (list | retry)")),
                None => err(format!("dlq requires an action: list | retry\n\n{USAGE}")),
            }
        })(),
        "help" | "--help" | "-h" => Ok((0, USAGE.to_string())),
        other => err(format!("unknown command '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok((code, out)) => (code, out),
        Err(e) => (2, format!("error: {e}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the CLI on `args` (without the program name).
    fn cli(args: &[&str]) -> (i32, String) {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        main_with_args(&v)
    }

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gridwfs-cli-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const WF: &str = r#"
<Workflow name='cli-test'>
  <Activity name='a' max_tries='3' interval='1'><Implement>p</Implement></Activity>
  <Activity name='b'><Implement>p</Implement></Activity>
  <Program name='p' duration='5'><Option hostname='h1'/><Option hostname='h2'/></Program>
  <Transition from='a' to='b'/>
</Workflow>"#;

    const GRID: &str = r#"{
  "seed": 7,
  "hosts": [
    {"hostname": "h1", "speed": 1.0},
    {"hostname": "h2", "speed": 2.0, "mttf": 50.0, "downtime": 3.0}
  ],
  "profiles": {"p": {"checkpoint_period": 1.0}}
}"#;

    /// Writes the `WF` document as `wf.xml` in `dir`.
    fn write_wf(dir: &Path) -> PathBuf {
        let path = dir.join("wf.xml");
        std::fs::write(&path, WF).unwrap();
        path
    }

    /// Writes `json` as `grid.json` in `dir`.
    fn write_grid(dir: &Path, json: &str) -> PathBuf {
        let path = dir.join("grid.json");
        std::fs::write(&path, json).unwrap();
        path
    }

    #[test]
    fn validate_command_reports_structure() {
        let dir = tmpdir();
        let wf = write_wf(&dir);
        let out = cmd_validate(&wf).unwrap();
        assert!(out.contains("'cli-test' is valid"));
        assert!(out.contains("activities: 2"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_command_rejects_bad_workflows() {
        let dir = tmpdir();
        let wf = dir.join("bad.xml");
        std::fs::write(
            &wf,
            "<Workflow><Activity name='a'><Implement>ghost</Implement></Activity></Workflow>",
        )
        .unwrap();
        let e = cmd_validate(&wf).unwrap_err();
        assert!(e.to_string().contains("ghost"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dot_command_emits_graphviz() {
        let dir = tmpdir();
        let wf = write_wf(&dir);
        let out = cmd_dot(&wf).unwrap();
        assert!(out.starts_with("digraph"));
        assert!(out.contains("\"a\" -> \"b\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_command_end_to_end() {
        let dir = tmpdir();
        let wf = write_wf(&dir);
        let grid = write_grid(&dir, GRID);
        let (code, out) = cli(&[
            "run",
            wf.to_str().unwrap(),
            "--grid",
            grid.to_str().unwrap(),
            "--timeline",
            "--verbose",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("outcome:  Success"), "{out}");
        assert!(out.contains("timeline"), "{out}");
        assert!(out.contains("engine log"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_checkpoint_then_resume() {
        let dir = tmpdir();
        let wf = dir.join("wf.xml");
        let grid_ok = dir.join("grid.json");
        let grid_broken = dir.join("broken.json");
        let state = dir.join("state.xml");
        std::fs::write(&wf, WF).unwrap();
        std::fs::write(&grid_ok, GRID).unwrap();
        // A grid missing both hosts: every submission bounces, run fails.
        std::fs::write(&grid_broken, r#"{"hosts": [{"hostname": "unrelated"}]}"#).unwrap();
        let (code, out) = cli(&[
            "run",
            wf.to_str().unwrap(),
            "--grid",
            grid_broken.to_str().unwrap(),
            "--checkpoint",
            state.to_str().unwrap(),
        ]);
        assert_eq!(code, 1, "workflow failure exit code: {out}");
        assert!(state.exists(), "checkpoint written");
        // Repair the state (operator resets failures, and the edge the
        // failure killed) and resume on the healthy grid.
        let text = std::fs::read_to_string(&state)
            .unwrap()
            .replace("status='failed'", "status='pending'")
            .replace("status='skipped'", "status='pending'")
            .replace("edges='d'", "edges='p'");
        std::fs::write(&state, text).unwrap();
        let (code, out) = cli(&[
            "run",
            "--resume",
            state.to_str().unwrap(),
            "--grid",
            grid_ok.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Success"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_repeat_reports_statistics() {
        let dir = tmpdir();
        let wf = write_wf(&dir);
        let grid = write_grid(&dir, GRID);
        let (code, out) = cli(&[
            "run",
            wf.to_str().unwrap(),
            "--grid",
            grid.to_str().unwrap(),
            "--repeat",
            "5",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("success rate"), "{out}");
        assert!(out.contains("runs:         5"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_repeat_builds_every_repetition_like_a_single_run() {
        let dir = tmpdir();
        let wf = write_wf(&dir);
        // The first declared option crashes within a task length, so the
        // resilient scheduler's placements (and outcomes) differ from
        // oblivious cycling: a repetition that dropped the flags shows.
        let grid = write_grid(
            &dir,
            r#"{"hosts": [{"hostname": "h1", "mttf": 4.0, "downtime": 3.0}, {"hostname": "h2"}]}"#,
        );
        let opts = |seed: u64, repeat: Option<u32>| RunOptions {
            workflow: Some(wf.clone()),
            grid: Some(grid.clone()),
            seed: Some(seed),
            repeat,
            detector: Some("phi:6".into()),
            scheduler: Some("resilient".into()),
            ..RunOptions::default()
        };
        let repeated = cmd_run_repeat(&opts(20, Some(3)), 3).unwrap();
        let mut makespans = Vec::new();
        for seed in 20..23 {
            let (report, _) = cmd_run(&opts(seed, None)).unwrap();
            if report.is_success() {
                makespans.push(report.makespan);
            }
        }
        assert!(!makespans.is_empty(), "no seed in 20..23 succeeded");
        let successes = makespans.len();
        assert!(repeated.contains(&format!("({successes}/3)")), "{repeated}");
        makespans.sort_by(f64::total_cmp);
        let mean = makespans.iter().sum::<f64>() / successes as f64;
        let stats = format!(
            "mean {mean:.2}, min {:.2}, median {:.2}, max {:.2}",
            makespans[0],
            makespans[successes / 2],
            makespans[successes - 1]
        );
        assert!(repeated.contains(&stats), "want {stats}:\n{repeated}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_json_report_written() {
        let dir = tmpdir();
        let wf = write_wf(&dir);
        let grid = write_grid(&dir, GRID);
        let json = dir.join("report.json");
        let (code, out) = cli(&[
            "run",
            wf.to_str().unwrap(),
            "--grid",
            grid.to_str().unwrap(),
            "--json",
            json.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("report JSON written"), "{out}");
        let text = std::fs::read_to_string(&json).unwrap();
        assert!(text.contains("\"schema\": 1"), "{text}");
        assert!(text.contains("\"success\": true"), "{text}");
        assert!(text.contains("\"aborted\": null"), "{text}");
        assert!(text.contains("\"name\": \"a\""), "{text}");
        assert!(text.contains("\"eval_errors\": []"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_trace_is_deterministic_and_structured() {
        let dir = tmpdir();
        let wf = write_wf(&dir);
        let grid = write_grid(&dir, GRID);
        let run_with_trace = |path: &Path| {
            let opts = RunOptions {
                workflow: Some(wf.clone()),
                grid: Some(grid.clone()),
                trace: Some(path.to_path_buf()),
                ..RunOptions::default()
            };
            cmd_run(&opts).unwrap()
        };
        let t1 = dir.join("t1.jsonl");
        let t2 = dir.join("t2.jsonl");
        let (report, out) = run_with_trace(&t1);
        assert!(report.is_success(), "{out}");
        assert!(out.contains("trace JSONL written"), "{out}");
        run_with_trace(&t2);
        let a = std::fs::read_to_string(&t1).unwrap();
        let b = std::fs::read_to_string(&t2).unwrap();
        assert_eq!(a, b, "same seed must give a byte-identical journal");
        assert!(a.contains("\"kind\":\"task_submit\""), "{a}");
        assert!(a.contains("\"kind\":\"node_state\""), "{a}");
        assert!(
            a.lines().all(|l| l.starts_with("{\"at\":")),
            "every line is one JSON event: {a}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_trace_dir_writes_per_job_journals() {
        let dir = tmpdir();
        let trace_dir = dir.join("traces");
        let mut workflows = Vec::new();
        for i in 0..2 {
            let path = dir.join(format!("wf{i}.xml"));
            std::fs::write(&path, WF).unwrap();
            workflows.push(path);
        }
        let opts = ServeOptions {
            workflows,
            grid: Some(write_grid(&dir, GRID)),
            workers: 2,
            queue: 8,
            trace_dir: Some(trace_dir.clone()),
            ..ServeOptions::default()
        };
        let (code, out) = cmd_serve(&opts).unwrap();
        assert_eq!(code, 0, "{out}");
        for id in 1..=2u64 {
            let journal =
                std::fs::read_to_string(trace_dir.join(format!("job-{id}.trace.jsonl"))).unwrap();
            assert!(journal.contains("\"kind\":\"job_admit\""), "{journal}");
            assert!(
                journal.contains("\"kind\":\"job_start\"") && journal.contains("\"incarnation\":0"),
                "{journal}"
            );
            assert!(journal.contains("\"kind\":\"task_submit\""), "{journal}");
            assert!(
                journal.contains("\"kind\":\"job_settle\"")
                    && journal.contains("\"state\":\"done\""),
                "{journal}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_subcommand_continues_a_run() {
        let dir = tmpdir();
        let wf = dir.join("wf.xml");
        let grid_ok = dir.join("grid.json");
        let grid_broken = dir.join("broken.json");
        let state = dir.join("state.xml");
        std::fs::write(&wf, WF).unwrap();
        std::fs::write(&grid_ok, GRID).unwrap();
        std::fs::write(&grid_broken, r#"{"hosts": [{"hostname": "unrelated"}]}"#).unwrap();
        let (code, _) = cli(&[
            "run",
            wf.to_str().unwrap(),
            "--grid",
            grid_broken.to_str().unwrap(),
            "--checkpoint",
            state.to_str().unwrap(),
        ]);
        assert_eq!(code, 1);
        let text = std::fs::read_to_string(&state)
            .unwrap()
            .replace("status='failed'", "status='pending'")
            .replace("status='skipped'", "status='pending'")
            .replace("edges='d'", "edges='p'");
        std::fs::write(&state, text).unwrap();
        // The dedicated subcommand: positional checkpoint, no --resume flag.
        let (code, out) = cli(&[
            "resume",
            state.to_str().unwrap(),
            "--grid",
            grid_ok.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Success"), "{out}");
        let (code, out) = cli(&["resume", "--grid", grid_ok.to_str().unwrap()]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("checkpoint"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_runs_a_batch() {
        let dir = tmpdir();
        let metrics = dir.join("metrics.json");
        let mut workflows = Vec::new();
        for i in 0..3 {
            let path = dir.join(format!("wf{i}.xml"));
            std::fs::write(&path, WF).unwrap();
            workflows.push(path);
        }
        let grid = write_grid(
            &dir,
            r#"{"seed": 11, "hosts": [{"hostname": "h1"}, {"hostname": "h2", "speed": 2.0}]}"#,
        );
        let opts = ServeOptions {
            workflows,
            grid: Some(grid),
            workers: 2,
            queue: 8,
            metrics: Some(metrics.clone()),
            ..ServeOptions::default()
        };
        let (code, out) = cmd_serve(&opts).unwrap();
        assert_eq!(code, 0, "{out}");
        assert_eq!(out.matches(" done ").count(), 3, "{out}");
        let snapshot = std::fs::read_to_string(&metrics).unwrap();
        assert!(snapshot.contains("\"completed\": 3"), "{snapshot}");
        assert!(snapshot.contains("\"rejected\": 0"), "{snapshot}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_option_validation() {
        let dir = tmpdir();
        let grid = Some(write_grid(
            &dir,
            r#"{"seed": 1, "hosts": [{"hostname": "h1"}]}"#,
        ));
        let no_grid = ServeOptions {
            workflows: vec![PathBuf::from("x.xml")],
            ..ServeOptions::default()
        };
        let e = cmd_serve(&no_grid).unwrap_err();
        assert!(e.to_string().contains("serve requires --grid"), "{e}");
        let no_work = ServeOptions {
            grid: grid.clone(),
            ..ServeOptions::default()
        };
        assert!(cmd_serve(&no_work).is_err());
        let bad_scale = ServeOptions {
            workflows: vec![PathBuf::from("x.xml")],
            grid,
            paced: Some(0.0),
            ..ServeOptions::default()
        };
        assert!(cmd_serve(&bad_scale).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_federated_flags_validate_and_run() {
        let dir = tmpdir();
        let grid = Some(write_grid(&dir, GRID));
        // Federation needs a shared lease store; a TTL needs a federation.
        let orphan_ttl = ServeOptions {
            workflows: vec![PathBuf::from("x.xml")],
            grid: grid.clone(),
            lease_ttl: Some(1.0),
            ..ServeOptions::default()
        };
        assert!(cmd_serve(&orphan_ttl).is_err());
        let no_store = ServeOptions {
            workflows: vec![PathBuf::from("x.xml")],
            grid: grid.clone(),
            replica_id: Some("r0".into()),
            ..ServeOptions::default()
        };
        assert!(cmd_serve(&no_store).is_err());

        // Fleet striding flags need a federation too, and the index must
        // fit the fleet.
        let orphan_index = ServeOptions {
            workflows: vec![PathBuf::from("x.xml")],
            grid: grid.clone(),
            replica_index: Some(1),
            ..ServeOptions::default()
        };
        assert!(cmd_serve(&orphan_index).is_err());

        let wf = write_wf(&dir);
        let bad_ttl = ServeOptions {
            workflows: vec![wf.clone()],
            grid: grid.clone(),
            state_dir: Some(dir.join("state")),
            replica_id: Some("r0".into()),
            lease_ttl: Some(0.0),
            ..ServeOptions::default()
        };
        assert!(cmd_serve(&bad_ttl).is_err());
        let index_out_of_range = ServeOptions {
            workflows: vec![wf.clone()],
            grid: grid.clone(),
            state_dir: Some(dir.join("state")),
            replica_id: Some("r2".into()),
            replica_index: Some(2),
            fleet_size: Some(2),
            ..ServeOptions::default()
        };
        assert!(cmd_serve(&index_out_of_range).is_err());
        let zero_fleet = ServeOptions {
            workflows: vec![wf.clone()],
            grid: grid.clone(),
            state_dir: Some(dir.join("state")),
            replica_id: Some("r0".into()),
            fleet_size: Some(0),
            ..ServeOptions::default()
        };
        assert!(cmd_serve(&zero_fleet).is_err());

        // A single-replica federation still runs the batch end to end and
        // reports the lease traffic in the metrics snapshot.
        let opts = ServeOptions {
            workflows: vec![wf.clone()],
            grid: grid.clone(),
            workers: 1,
            queue: 8,
            state_dir: Some(dir.join("state")),
            replica_id: Some("r0".into()),
            lease_ttl: Some(1.0),
            ..ServeOptions::default()
        };
        let (code, out) = cmd_serve(&opts).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"takeovers\": 0"), "{out}");
        assert!(out.contains("\"fenced_writes\": 0"), "{out}");

        // Fleet striding reaches the id allocator: replica 1 of a fleet
        // of 3 mints ids in its own residue class (first id = 2).
        let strided = ServeOptions {
            workflows: vec![wf],
            grid: grid.clone(),
            workers: 1,
            queue: 8,
            state_dir: Some(dir.join("state-strided")),
            replica_id: Some("r1".into()),
            replica_index: Some(1),
            fleet_size: Some(3),
            lease_ttl: Some(1.0),
            ..ServeOptions::default()
        };
        let (code, out) = cmd_serve(&strided).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("job-2"), "strided first id: {out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_chaos_flag_injects_a_panic_and_reports_it() {
        // Keep the injected panic from spraying a backtrace over the
        // test output; everything else still reaches the default hook.
        static QUIET: std::sync::Once = std::sync::Once::new();
        QUIET.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let is_injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.contains("chaos:"));
                if !is_injected {
                    default(info);
                }
            }));
        });
        let dir = tmpdir();
        let mut workflows = Vec::new();
        for i in 0..2 {
            let path = dir.join(format!("wf{i}.xml"));
            std::fs::write(&path, WF).unwrap();
            workflows.push(path);
        }
        let grid = Some(write_grid(&dir, GRID));
        // Job i runs with seed base+i; the plan targets exactly seed 101,
        // so the second workflow fails and the first is untouched.
        let opts = ServeOptions {
            workflows,
            grid: grid.clone(),
            workers: 1,
            queue: 8,
            seed: Some(100),
            chaos: Some("seed=1,panic_seed=101".into()),
            ..ServeOptions::default()
        };
        let (code, out) = cmd_serve(&opts).unwrap();
        assert_eq!(code, 1, "{out}");
        assert_eq!(out.matches(" done ").count(), 1, "{out}");
        assert!(out.contains("workflow panicked"), "{out}");
        assert!(out.contains("chaos: ran under fault plan"), "{out}");
        assert!(out.contains("\"jobs_panicked\": 1"), "{out}");
        let bad = ServeOptions {
            workflows: vec![dir.join("wf0.xml")],
            grid,
            chaos: Some("seed=1,panic=nope".into()),
            ..ServeOptions::default()
        };
        assert!(cmd_serve(&bad).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_detector_flag_selects_the_policy() {
        let dir = tmpdir();
        let wf = write_wf(&dir);
        let grid = Some(write_grid(&dir, GRID));
        for spec in ["phi:8", "timeout:4"] {
            let opts = RunOptions {
                workflow: Some(wf.clone()),
                grid: grid.clone(),
                detector: Some(spec.into()),
                ..RunOptions::default()
            };
            let (report, out) = cmd_run(&opts).unwrap();
            assert!(report.is_success(), "{spec}: {out}");
        }
        let bad = RunOptions {
            workflow: Some(wf),
            grid,
            detector: Some("phi".into()),
            ..RunOptions::default()
        };
        assert!(cmd_run(&bad).is_err());
        // Arg-parse path: a bare --detector is rejected.
        let (code, out) = cli(&["run", "wf.xml", "--detector"]);
        assert_eq!(code, 2);
        assert!(out.contains("--detector"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_scheduler_flag_selects_the_policy() {
        let dir = tmpdir();
        let wf = write_wf(&dir);
        let grid = Some(write_grid(&dir, GRID));
        // The default and an explicit --scheduler oblivious must produce
        // byte-identical journals: resilient scheduling is opt-in.
        let mut journals = Vec::new();
        for (i, scheduler) in [None, Some("oblivious".to_string())]
            .into_iter()
            .enumerate()
        {
            let trace = dir.join(format!("sched-{i}.trace.jsonl"));
            let opts = RunOptions {
                workflow: Some(wf.clone()),
                grid: grid.clone(),
                scheduler,
                trace: Some(trace.clone()),
                ..RunOptions::default()
            };
            let (report, out) = cmd_run(&opts).unwrap();
            assert!(report.is_success(), "{out}");
            journals.push(std::fs::read(&trace).unwrap());
        }
        assert_eq!(journals[0], journals[1]);
        // Resilient runs succeed and journal their placement decisions.
        let trace = dir.join("sched-resilient.trace.jsonl");
        let opts = RunOptions {
            workflow: Some(wf.clone()),
            grid: grid.clone(),
            scheduler: Some("resilient".into()),
            trace: Some(trace.clone()),
            ..RunOptions::default()
        };
        let (report, out) = cmd_run(&opts).unwrap();
        assert!(report.is_success(), "{out}");
        let journal = std::fs::read_to_string(&trace).unwrap();
        assert!(journal.contains("\"placement_scored\""), "{journal}");
        // ... and a bad spec is rejected politely.
        let bad = RunOptions {
            workflow: Some(wf),
            grid,
            scheduler: Some("voodoo".into()),
            ..RunOptions::default()
        };
        assert!(cmd_run(&bad).is_err());
        let (code, out) = cli(&["run", "wf.xml", "--scheduler"]);
        assert_eq!(code, 2);
        assert!(out.contains("--scheduler"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_breaker_flag_parses_and_runs() {
        let dir = tmpdir();
        let wf = write_wf(&dir);
        let grid = Some(write_grid(&dir, GRID));
        let opts = RunOptions {
            workflow: Some(wf.clone()),
            grid: grid.clone(),
            breaker: Some(2),
            ..RunOptions::default()
        };
        let (report, out) = cmd_run(&opts).unwrap();
        assert!(report.is_success(), "{out}");
        let bad = RunOptions {
            workflow: Some(wf),
            grid,
            breaker: Some(0),
            ..RunOptions::default()
        };
        assert!(cmd_run(&bad).is_err());
        // Arg-parse path: a non-integer threshold is rejected before
        // anything touches the filesystem.
        let (code, out) = cli(&["run", "wf.xml", "--breaker", "soon"]);
        assert_eq!(code, 2);
        assert!(out.contains("--breaker"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fan-out whose items fail through a *recoverable* declared
    /// exception (injected by the grid profile below), so a reprocessed
    /// item can succeed where its first attempt did not.
    const DLQ_WF: &str = r#"
<Workflow name='mapred'>
  <Exception name='flaky' fatal='false' description='transient item failure'/>
  <Activity name='map'>
    <Implement>m</Implement>
    <Foreach max_parallel='2' max_attempts='1' on_item_failure='dlq'>
      <Item>alpha</Item><Item>beta</Item><Item>gamma</Item><Item>delta</Item>
    </Foreach>
  </Activity>
  <Activity name='reduce'><Implement>r</Implement></Activity>
  <Transition from='map' to='reduce'/>
  <Program name='m' duration='4'><Option hostname='h1'/></Program>
  <Program name='r' duration='2'><Option hostname='h1'/></Program>
</Workflow>"#;

    /// One reliable host; program `m` raises the recoverable `flaky`
    /// exception probabilistically, so which items park is seed-driven.
    const FLAKY_GRID: &str = r#"{
  "seed": 1,
  "hosts": [{"hostname": "h1"}],
  "profiles": {"m": {"exception": {"name": "flaky", "checks": 1, "prob": 0.4}}}
}"#;

    #[test]
    fn dlq_retry_reprocesses_only_the_parked_items() {
        let base = tmpdir().join("dlq-cycle");
        std::fs::create_dir_all(&base).unwrap();
        let wf = base.join("mapred.xml");
        std::fs::write(&wf, DLQ_WF).unwrap();
        let grid = write_grid(&base, FLAKY_GRID);
        let serve = |state: &Path, trace: &Path, submit: bool, seed: u64| {
            let opts = ServeOptions {
                workflows: if submit { vec![wf.clone()] } else { vec![] },
                grid: Some(grid.clone()),
                workers: 1,
                queue: 8,
                state_dir: Some(state.to_path_buf()),
                trace_dir: Some(trace.to_path_buf()),
                seed: Some(seed),
                ..ServeOptions::default()
            };
            cmd_serve(&opts).unwrap()
        };
        let parked = |state: &Path| -> usize {
            let (code, out) = cli(&["dlq", "list", "--state-dir", state.to_str().unwrap()]);
            assert_eq!(code, 0, "{out}");
            let summary = out
                .lines()
                .rfind(|l| l.contains("dead-lettered item(s)"))
                .expect("list prints a summary")
                .to_string();
            summary.split(' ').next().unwrap().parse().unwrap()
        };
        // The per-item exception draws are seed-deterministic; scan for a
        // base seed whose first run parks at least one item and whose
        // retry cycle converges (draws are per-attempt, so a reprocessed
        // item can succeed — unless a seed pins the same failing draw on
        // the same item forever, which the scan simply skips).
        let mut converged = false;
        'seeds: for seed in 0..32u64 {
            let state = base.join(format!("state-{seed}"));
            let traces = base.join(format!("traces-{seed}"));
            let (_, first) = serve(&state, &traces, true, seed);
            let initially_parked = parked(&state);
            if initially_parked == 0 {
                continue;
            }
            assert!(first.contains("job-1"), "first run admits the job: {first}");
            for _round in 0..6 {
                let (code, out) = cli(&[
                    "dlq",
                    "retry",
                    "job-1",
                    "--state-dir",
                    state.to_str().unwrap(),
                ]);
                assert_eq!(code, 0, "{out}");
                assert!(out.contains("reset to pending"), "{out}");
                // The reset job is re-admitted from the state dir alone.
                let (_, resumed) = serve(&state, &traces, false, seed);
                assert!(resumed.contains("job-1"), "retry re-admits: {resumed}");
                if parked(&state) == 0 {
                    // Everything settled: the journal shows the reprocess
                    // events, and retrying again has nothing to do.
                    let journal =
                        std::fs::read_to_string(traces.join("job-1.trace.jsonl")).unwrap();
                    assert!(journal.contains("\"kind\":\"item_reprocess\""), "{journal}");
                    assert!(journal.contains("\"kind\":\"item_dlq\""), "{journal}");
                    let (code, out) = cli(&[
                        "dlq",
                        "retry",
                        "job-1",
                        "--state-dir",
                        state.to_str().unwrap(),
                    ]);
                    assert_eq!(code, 1, "{out}");
                    assert!(out.contains("no dead-lettered items"), "{out}");
                    converged = true;
                    break 'seeds;
                }
            }
        }
        assert!(converged, "no seed in 0..32 exercised the dlq retry cycle");
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn dlq_argument_errors() {
        let (code, out) = cli(&["dlq", "list"]);
        assert_eq!(code, 2);
        assert!(out.contains("--state-dir"), "{out}");
        let dir = tmpdir().join("dlq-args");
        drop(WalStorage::open(&dir).unwrap());
        let d = dir.to_str().unwrap();
        let (code, out) = cli(&["dlq", "--state-dir", d]);
        assert_eq!(code, 2);
        assert!(out.contains("list | retry"), "{out}");
        let (code, out) = cli(&["dlq", "prune", "--state-dir", d]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown dlq action"), "{out}");
        let (code, out) = cli(&["dlq", "retry", "--state-dir", d]);
        assert_eq!(code, 2);
        assert!(out.contains("requires a job id"), "{out}");
        let (code, out) = cli(&["dlq", "retry", "job-x", "--state-dir", d]);
        assert_eq!(code, 2);
        assert!(out.contains("not a job id"), "{out}");
        let (code, out) = cli(&["dlq", "retry", "9", "--state-dir", d]);
        assert_eq!(code, 2);
        assert!(out.contains("no such job"), "{out}");
        let (code, out) = cli(&["dlq", "list", "--state-dir", d, "--backend", "memory"]);
        assert_eq!(code, 2);
        assert!(out.contains("memory backend"), "{out}");
        let (code, out) = cli(&["dlq", "list", "--state-dir", d, "--backend", "dir"]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown storage backend"), "{out}");
        // An empty log lists an empty queue rather than erroring.
        let (code, out) = cli(&["dlq", "list", "--state-dir", d]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("0 dead-lettered item(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dlq_refuses_a_dir_without_a_wal_and_creates_nothing() {
        let base = tmpdir().join("dlq-typo");
        // A mistyped path: nothing there, and nothing there afterwards.
        let typo = base.join("stat-dir");
        for action in [&["list"][..], &["retry", "job-1"]] {
            let mut args = vec!["dlq"];
            args.extend_from_slice(action);
            args.extend_from_slice(&["--state-dir", typo.to_str().unwrap()]);
            let (code, out) = cli(&args);
            assert_eq!(code, 2, "{out}");
            assert!(out.contains(typo.join(WAL_FILE).to_str().unwrap()), "{out}");
            assert!(!typo.exists(), "dlq {action:?} created {}", typo.display());
        }
        // A state dir left by the removed per-file backend looks the same
        // — records, no log — and is refused untouched, with a hint.
        let legacy = base.join("per-file");
        std::fs::create_dir_all(&legacy).unwrap();
        std::fs::write(legacy.join("job-1.meta"), "name old\n").unwrap();
        let (code, out) = cli(&["dlq", "list", "--state-dir", legacy.to_str().unwrap()]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("per-file"), "{out}");
        assert!(!legacy.join(WAL_FILE).exists());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn cli_error_paths() {
        let (code, out) = cli(&[]);
        assert_eq!(code, 2);
        assert!(out.contains("USAGE"));
        let (code, _) = cli(&["frobnicate"]);
        assert_eq!(code, 2);
        let (code, out) = cli(&["run", "nope.xml"]);
        assert_eq!(code, 2);
        assert!(out.contains("--grid"), "{out}");
        let (code, _) = cli(&["validate"]);
        assert_eq!(code, 2);
        let (code, out) = cli(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("gridwfs"));
    }
}

//! Per-job lifecycle: engine construction, the flight-recorder journal,
//! and settlement.
//!
//! This module used to *be* the worker — one blocking `Engine::run()` per
//! popped job.  The run loop now lives in [`crate::sched`], which steps
//! many paused engines per OS thread; what remains here is everything a
//! scheduler slice needs around the engine itself:
//!
//! * [`build_engine`] — parse/validate (or checkpoint-load) the workflow
//!   and wire up a steppable [`AnyEngine`] from the Grid's
//!   [`GridSpec::engine_config`](crate::GridSpec::engine_config) plus its
//!   stop flag, deadline budget, and trace fanout;
//! * [`open_journal`] — the per-job journal with its incarnation header;
//! * [`settle`] — apply a finished run's outcome to the job record, the
//!   metrics registry, and the storage backend.  The record turns
//!   terminal in the table here; its marker (with the dead-letter record,
//!   the lease release and the purge of the records a finished job no
//!   longer needs) is only *staged* on the scheduler's
//!   [`StateBatch`] and becomes durable when the commit window closes
//!   (see [`crate::sched`]), at most a window plus one slice later.  A
//!   crash in between re-runs the job from its last committed checkpoint;
//! * [`note_panic`] / [`panic_message`] — a workflow closure that panics
//!   must not take its scheduler thread down; the catch sites in
//!   [`crate::sched`] route the payload here so the panicking job settles
//!   as `Failed`, a `job_panicked` event lands in its journal and the
//!   service ring, and the `jobs_panicked` counter bumps.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use grid_wfs::engine::{CheckpointSink, Engine, EngineConfig, Report, StepOutcome};
use grid_wfs::{checkpoint, InjectedTaskFault, Instance, SimGrid, ThreadExecutor};
use gridwfs_trace::{FanoutSink, JsonlSink, TraceEvent, TraceKind, TraceSink};
use gridwfs_wpdl::parse;
use gridwfs_wpdl::validate::validate;

use crate::gridspec::ExecMode;
use crate::job::{JobId, JobState, Submission};
use crate::metrics::{Metrics, TraceMetricsSink};
use crate::recover;
use crate::sched::StateBatch;
use crate::service::Shared;

/// Dirty flag between an engine's [`CheckpointSink`] and the scheduler:
/// the sink only sets it at every checkpoint the engine takes, encoding
/// nothing; after a slice that set it the worker encodes the instance
/// once, as it stands at the end of the slice, and stages that document
/// on its [`StateBatch`] — unless the slice's settle staged the purge that
/// deletes it, or the slice panicked.
pub(crate) type CheckpointCell = Arc<AtomicBool>;

/// A steppable engine on whichever executor the submission's Grid spec
/// asked for.  Boxed: a `Run` moves between deques and the sleeper heap,
/// and the engines are large.
pub(crate) enum AnyEngine {
    /// Deterministic virtual time; never reports `Idle`.
    Virtual(Box<Engine<SimGrid>>),
    /// Real threads on the wall clock; `Idle` between notifications.
    Paced(Box<Engine<ThreadExecutor>>),
}

impl AnyEngine {
    pub(crate) fn step(&mut self) -> StepOutcome {
        match self {
            AnyEngine::Virtual(e) => e.step(),
            AnyEngine::Paced(e) => e.step(),
        }
    }

    /// The checkpoint document of the instance as it stands now.
    pub(crate) fn checkpoint_xml(&self) -> String {
        match self {
            AnyEngine::Virtual(e) => e.checkpoint_xml(),
            AnyEngine::Paced(e) => e.checkpoint_xml(),
        }
    }

    /// Current executor-clock time (for converting `Idle` wake times to
    /// wall instants).
    pub(crate) fn now(&self) -> f64 {
        match self {
            AnyEngine::Virtual(e) => e.now(),
            AnyEngine::Paced(e) => e.now(),
        }
    }
}

/// Renders a panic payload as the detail string the job settles with.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Records a workflow panic in the job's journal, the service ring, and
/// the `jobs_panicked` counter.
pub(crate) fn note_panic(shared: &Shared, id: JobId, journal: Option<&Arc<JsonlSink>>, msg: &str) {
    Metrics::incr(&shared.metrics.counters.jobs_panicked);
    if let Some(journal) = journal {
        journal.record(&TraceEvent {
            at: 0.0,
            kind: TraceKind::JobPanicked {
                job: id.0,
                detail: msg.to_string(),
            },
        });
        journal.flush();
    }
    shared.trace(TraceKind::JobPanicked {
        job: id.0,
        detail: msg.to_string(),
    });
}

/// Opens the job's flight-recorder journal (append: a recovered job's
/// later incarnations extend the same file) and stamps the incarnation
/// header.  Journal timestamps are the engine's executor clock, which
/// restarts at 0 per incarnation — the `job_start` header is what keeps
/// the segments apart.
pub(crate) fn open_journal(shared: &Shared, id: JobId, sub: &Submission) -> Option<Arc<JsonlSink>> {
    let dir = shared.cfg.trace_dir.as_ref()?;
    let path = recover::trace_path(dir, id);
    let incarnation = recover::count_incarnations(&path);
    match JsonlSink::append(&path) {
        Ok(sink) => {
            sink.record(&TraceEvent {
                at: 0.0,
                kind: TraceKind::JobStarted {
                    job: id.0,
                    incarnation,
                    seed: sub.seed,
                },
            });
            Some(Arc::new(sink))
        }
        Err(e) => {
            eprintln!("gridwfs-serve: {id}: cannot open trace journal: {e}");
            None
        }
    }
}

/// Builds the instance (fresh, or from the persisted engine checkpoint)
/// and wires it to the submission's Grid as a steppable engine, plus the
/// dirty flag its [`CheckpointSink`] sets (named after the record the
/// scheduler commits the checkpoint to).  Runs inside the scheduler's
/// `catch_unwind` region: the chaos hooks here inject exactly the panic a
/// buggy workflow closure would raise.  Both chaos decisions are keyed by
/// the submission seed, so they replay identically whatever worker picks
/// the job up.
///
/// Only a `recovered` job (re-admitted from storage, or taken over from a
/// peer) can have a checkpoint or an elapsed ledger: a job this process
/// admitted had both deleted by its admission batch, so it skips both
/// reads (the checkpoint probe waits on the WAL's append lock).
pub(crate) fn build_engine(
    shared: &Shared,
    id: JobId,
    sub: &Submission,
    recovered: bool,
    stop: Arc<AtomicBool>,
    journal: Option<Arc<JsonlSink>>,
) -> Result<(AnyEngine, Option<(String, CheckpointCell)>), String> {
    if let Some(plan) = &shared.chaos {
        if let Some(pause) = plan.worker_stall(sub.seed) {
            std::thread::sleep(pause);
        }
        if plan.job_panics(sub.seed) {
            panic!("chaos: injected workflow panic (job seed {})", sub.seed);
        }
    }
    let ckpt_name = recover::checkpoint_name(id);
    let stored = shared.storage.as_deref().filter(|_| recovered);
    let instance = match stored {
        Some(st) if st.exists(&ckpt_name) => {
            let xml = st.read_to_string(&ckpt_name).map_err(|e| e.to_string())?;
            checkpoint::from_xml(&xml).map_err(|e| e.to_string())?
        }
        _ => {
            let workflow = parse::from_str(&sub.workflow_xml).map_err(|e| e.to_string())?;
            let validated = validate(workflow).map_err(|issues| {
                issues
                    .iter()
                    .map(|i| i.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            })?;
            Instance::new(validated)
        }
    };
    // The engine's deadline is relative to each run start, so hand a
    // resumed job its *remaining* budget: total minus the executor time
    // already consumed in earlier incarnations (the `.elapsed` ledger).
    // An exhausted budget still runs with deadline 0 — the engine aborts
    // on its first step and the job settles as a deadline failure.
    let deadline = sub.deadline.or(shared.cfg.default_deadline).map(|total| {
        let consumed = stored.map_or(0.0, |st| recover::read_elapsed(st, id));
        (total - consumed).max(0.0)
    });
    // With a storage backend, a checkpoint only marks the job dirty: the
    // scheduler encodes the instance once per slice and group-commits it
    // (one durability point per commit window) instead of the engine step
    // paying an encode, a file write and an fsync per checkpoint.
    let checkpoint = shared.storage.as_ref().map(|_| {
        let cell: CheckpointCell = Arc::new(AtomicBool::new(false));
        (ckpt_name, cell)
    });
    let checkpoint_sink = checkpoint.as_ref().map(|(_, cell)| {
        let cell = cell.clone();
        CheckpointSink::deferred(move |_| {
            cell.store(true, Ordering::Relaxed);
            Ok(())
        })
    });
    let config = EngineConfig {
        checkpoint_sink,
        stop: Some(stop),
        deadline,
        ..sub.grid.engine_config()
    };
    // The engine's trace stream always feeds the metrics registry; with a
    // trace directory it also feeds the job's journal.
    let metrics_sink: Arc<dyn TraceSink> = Arc::new(TraceMetricsSink::new(shared.metrics.clone()));
    let sink: Arc<dyn TraceSink> = match journal {
        Some(journal) => Arc::new(FanoutSink::new(vec![journal, metrics_sink])),
        None => metrics_sink,
    };
    match sub.grid.mode {
        ExecMode::Virtual => Ok((
            AnyEngine::Virtual(Box::new(
                Engine::from_instance(instance, sub.grid.build_sim(sub.seed))
                    .with_config(config)
                    .with_trace_sink(sink),
            )),
            checkpoint,
        )),
        ExecMode::Paced { scale } => {
            let mut executor = sub.grid.build_paced(instance.workflow(), scale);
            // Paced mode runs real threads, so the stall fault can starve
            // real heartbeats: the executor hook decides per task attempt.
            if let Some(plan) = &shared.chaos {
                let plan = plan.clone();
                let seed = sub.seed;
                executor.set_fault_hook(Arc::new(move |req: &grid_wfs::SubmitRequest| {
                    plan.task_stall(seed, req.task.0)
                        .map(|d| InjectedTaskFault::Stall(d.as_secs_f64()))
                }));
            }
            Ok((
                AnyEngine::Paced(Box::new(
                    Engine::from_instance(instance, executor)
                        .with_config(config)
                        .with_trace_sink(sink),
                )),
                checkpoint,
            ))
        }
    }
}

/// Applies the run's outcome to the job record, the metrics registry, and
/// the storage backend.  Terminal markers and elapsed ledgers are staged
/// on the scheduler's [`StateBatch`] (group-committed per commit window)
/// instead of paying one durability point each: the record is terminal
/// when this returns, the marker durable up to a window later.
///
/// A terminal run with a report stages the purge of its workflow,
/// checkpoint and elapsed ledger ([`recover::purge_names`]) on the same
/// batch as its result marker, so storage keeps only `meta` and `result`
/// of a finished job.  A run that parked dead-lettered items keeps all
/// three for `dlq retry`; a run without a report (engine build failure,
/// panic) keeps them for post-mortem.
pub(crate) fn settle(
    shared: &Shared,
    id: JobId,
    result: Result<Report, String>,
    run_wall: f64,
    journal: Option<Arc<JsonlSink>>,
    batch: &mut StateBatch,
) {
    let c = &shared.metrics.counters;
    let (state, detail, report) = match result {
        Err(msg) => (JobState::Failed, msg, None),
        Ok(report) => match report.aborted.as_deref() {
            Some("stop") => {
                let cancel_requested = shared
                    .table
                    .shard(id.0)
                    .jobs
                    .get(&id.0)
                    .is_some_and(|r| r.cancel_requested);
                if cancel_requested {
                    (JobState::Cancelled, "cancelled".to_string(), Some(report))
                } else {
                    // Service shutdown, not a client cancel: back to
                    // `Queued` so the next incarnation resumes it from the
                    // checkpoint of the aborted instance, which the
                    // scheduler encodes and stages after this settle.  Bank the
                    // executor time this incarnation consumed so the resume
                    // gets the remaining deadline budget, not a fresh one.
                    // (The batch is flushed before the worker exits, which
                    // is always before the next incarnation can start.)
                    if let Some(st) = shared.storage.as_deref() {
                        let consumed = recover::read_elapsed(st, id) + report.makespan;
                        batch.stage(
                            recover::elapsed_name(id),
                            recover::elapsed_payload(consumed),
                        );
                    }
                    if let Some(journal) = &journal {
                        journal.record(&TraceEvent {
                            at: report.finished_at,
                            kind: TraceKind::JobAborted {
                                job: id.0,
                                reason: "service-shutdown".into(),
                            },
                        });
                        journal.flush();
                    }
                    let mut shard = shared.table.shard(id.0);
                    if let Some(rec) = shard.jobs.get_mut(&id.0) {
                        rec.state = JobState::Queued;
                        rec.started_at = None;
                    }
                    return;
                }
            }
            Some("deadline") => {
                Metrics::incr(&c.deadline_exceeded);
                (
                    JobState::Failed,
                    "deadline exceeded".to_string(),
                    Some(report),
                )
            }
            _ => {
                let state = if report.is_success() {
                    JobState::Done
                } else {
                    JobState::Failed
                };
                (state, format!("{:?}", report.outcome), Some(report))
            }
        },
    };
    if let Some(journal) = &journal {
        journal.record(&TraceEvent {
            // Anchor on the engine clock (0.0 when the run died before
            // producing a report) — journals stay wall-clock-free.
            at: report.as_ref().map(|r| r.finished_at).unwrap_or(0.0),
            kind: TraceKind::JobSettled {
                job: id.0,
                state: state.as_str().into(),
                detail: detail.clone(),
            },
        });
        journal.flush();
        if let Some(e) = journal.error() {
            eprintln!("gridwfs-serve: {id}: trace journal write failed: {e}");
        }
    }
    match state {
        JobState::Done => Metrics::incr(&c.completed),
        JobState::Cancelled => Metrics::incr(&c.cancelled),
        _ => Metrics::incr(&c.failed),
    }
    let latency = {
        let mut shard = shared.table.shard(id.0);
        let Some(rec) = shard.jobs.get_mut(&id.0) else {
            return;
        };
        rec.state = state;
        rec.finished_at = Some(shared.now());
        rec.run_wall = Some(run_wall);
        rec.detail = Some(detail.clone());
        if let Some(report) = &report {
            rec.makespan = Some(report.makespan);
            rec.task_submissions = report
                .trace
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::TaskSubmitted { .. }))
                .count() as u64;
        }
        rec.latency()
    };
    if state != JobState::Cancelled {
        if let Some(latency) = latency {
            shared.metrics.observe_latency(latency);
        }
    }
    if shared.storage.is_some() {
        // The dead-letter record rides the same group commit as the
        // terminal marker: a job is never terminal without its DLQ, and
        // a reprocess run that drained the queue clears the stale record
        // in the same durability point that settles it.
        if let Some(report) = &report {
            if report.dlq.is_empty() {
                batch.stage_del(recover::dlq_name(id));
                // Nothing left to restart: the scheduler reads the purge
                // off the batch and encodes no final checkpoint (it would
                // replace one carried from an earlier slice).
                for name in recover::purge_names(id) {
                    batch.stage_del(name);
                }
            } else {
                batch.stage(recover::dlq_name(id), recover::dlq_payload(&report.dlq));
            }
        }
        // A federated terminal settle releases the job's lease in the
        // same group commit as the result marker: peers see either a
        // live lease or a finished job, never an orphan window.
        if shared.federate.is_some() {
            batch.stage_del(recover::lease_name(id));
        }
        batch.stage(
            recover::result_name(id),
            recover::result_payload(state, &detail),
        );
    }
}

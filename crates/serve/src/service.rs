//! The multi-tenant workflow service.
//!
//! [`Service::start`] spawns a pool of worker threads that drain a bounded
//! admission queue and drive one [`grid_wfs::Engine`] instance per job.
//! The service owns:
//!
//! * **admission** — [`Service::submit`] either admits a job (it will
//!   reach a terminal state) or rejects it loudly (queue full / shutting
//!   down); nothing is ever dropped silently;
//! * **per-job fault isolation** — each job gets its own engine, executor
//!   and RNG stream; a failing workflow is just a `Failed` record;
//! * **deadlines & cancellation** — the engine's cooperative stop flag and
//!   executor-clock deadline (`EngineConfig::{stop, deadline}`);
//! * **crash recovery** — with a state directory, admitted jobs persist
//!   their submission and engine checkpoints through the one
//!   [`Storage`] seam (the write-ahead log, or memory for tests); a
//!   restarted service re-admits unfinished jobs and their engines resume
//!   from checkpoint;
//! * **metrics** — a [`Metrics`] registry snapshot-able as JSON.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gridwfs_chaos::{relock, FaultPlan};
use gridwfs_storage::{
    is_fence_conflict, Backend, ChaosStorage, MemStorage, Op, Storage, WalStorage,
};
use gridwfs_trace::{JsonlSink, RingSink, TraceEvent, TraceKind, TraceSink};

use crate::job::{JobId, JobRecord, JobState, Submission};
use crate::metrics::Metrics;
use crate::queue::{BoundedQueue, PushError};
use crate::recover;
use crate::sched::SchedState;
use crate::table::JobTable;

/// Capacity of the service-level trace ring (admissions, rejections,
/// recoveries — the events that happen outside any one job's journal).
const SERVICE_RING: usize = 1024;

/// Service tuning knobs.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Worker threads (concurrent engine instances).
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Persistence root for crash recovery; `None` = in-memory only.
    pub state_dir: Option<PathBuf>,
    /// Which storage engine backs the state dir: the group-committed
    /// write-ahead log (the durable default) or a process-local in-memory
    /// table.
    pub backend: Backend,
    /// Pre-built storage override: tests and benches inject a backend
    /// directly (e.g. one shared `MemStorage` across restarts).  When
    /// set, `state_dir`/`backend` only label the configuration — the
    /// override is used as-is (chaos wrapping still applies).
    pub storage: Option<Arc<dyn Storage>>,
    /// Deadline applied to submissions that do not carry their own.
    pub default_deadline: Option<f64>,
    /// Flight-recorder root: every job writes `job-<id>.trace.jsonl`
    /// here; recovered incarnations append to the same journal.  `None`
    /// keeps tracing in-memory only (the service ring).
    pub trace_dir: Option<PathBuf>,
    /// Fault-injection plan.  `None` (the default) disables chaos
    /// entirely; with a plan, storage is wrapped in [`ChaosStorage`]
    /// (record-level fault injection, identical decisions on every
    /// backend) and workers inject the plan's panics and stalls.
    pub chaos: Option<FaultPlan>,
    /// Engine instances one worker thread multiplexes concurrently.  The
    /// default of 1 reproduces the classic one-job-per-worker behaviour;
    /// raising it lets each worker interleave that many paused engines
    /// (paced jobs spend most of their life waiting, so tens per worker
    /// is cheap — this is the knob behind the loadgen headline).
    pub max_in_flight: usize,
    /// Federated serve: this replica's stable identity.  `Some` turns on
    /// the lease discipline — every job this replica admits or recovers
    /// is owned through an expiring `job-<id>.lease` record, every state
    /// batch is fenced on the lease epoch, and a heartbeat thread renews
    /// owned leases and takes over expired peers.  `None` (the default)
    /// is the classic single-owner service.
    pub replica_id: Option<String>,
    /// Lease validity window for federated serve; a replica silent for
    /// this long loses its jobs to the surviving fleet.
    pub lease_ttl: Duration,
    /// This replica's position in the fleet (`0..fleet_size`); with
    /// `fleet_size`, it strides job-id allocation so replicas sharing a
    /// backend can never mint the same id.
    pub replica_index: usize,
    /// Number of replicas sharing the backend (id-allocation stride).
    pub fleet_size: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            state_dir: None,
            backend: Backend::default(),
            storage: None,
            default_deadline: None,
            trace_dir: None,
            chaos: None,
            max_in_flight: 1,
            replica_id: None,
            lease_ttl: Duration::from_secs(2),
            replica_index: 0,
            fleet_size: 1,
        }
    }
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("workers", &self.workers)
            .field("queue_capacity", &self.queue_capacity)
            .field("state_dir", &self.state_dir)
            .field("backend", &self.backend)
            .field("default_deadline", &self.default_deadline)
            .field("trace_dir", &self.trace_dir)
            .field("chaos", &self.chaos)
            .field("max_in_flight", &self.max_in_flight)
            .field("replica_id", &self.replica_id)
            .field("lease_ttl", &self.lease_ttl)
            .field("replica_index", &self.replica_index)
            .field("fleet_size", &self.fleet_size)
            .finish_non_exhaustive()
    }
}

/// Why a submission was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Backpressure: the admission queue is at capacity.  Retry later.
    QueueFull,
    /// The service is draining or shut down.
    ShuttingDown,
    /// The submission could not be persisted to the state directory.
    Io(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => f.write_str("admission queue full"),
            SubmitError::ShuttingDown => f.write_str("service is shutting down"),
            SubmitError::Io(e) => write!(f, "state directory: {e}"),
        }
    }
}
impl std::error::Error for SubmitError {}

/// State shared between the service handle and its workers.
pub(crate) struct Shared {
    pub(crate) cfg: ServiceConfig,
    /// The *effective* storage: the configured backend, wrapped in
    /// [`ChaosStorage`] when the chaos plan injects state faults.
    /// `None` = no persistence (no state dir, no override).
    pub(crate) storage: Option<Arc<dyn Storage>>,
    /// The chaos plan workers consult for panic/stall injection.
    pub(crate) chaos: Option<Arc<FaultPlan>>,
    pub(crate) queue: BoundedQueue<JobId>,
    /// The sharded job table: records, submissions, and stop flags keyed
    /// by `id % SHARDS`, one lock per shard.
    pub(crate) table: JobTable,
    /// Work-stealing scheduler state: one run-queue slot per worker.
    pub(crate) sched: SchedState,
    pub(crate) metrics: Arc<Metrics>,
    /// Service-level flight recorder: admissions, rejections, recoveries.
    /// Wall-clock timestamps — the per-job journals carry the
    /// deterministic ones.
    pub(crate) trace_ring: RingSink,
    pub(crate) accepting: AtomicBool,
    /// Hard-shutdown latch: workers drop popped jobs back into `Queued`
    /// (their manifests survive for the next incarnation) instead of
    /// running them.
    pub(crate) aborting: AtomicBool,
    /// Federated-serve state (lease ownership, fencing epochs) when the
    /// config names a replica; `None` is the classic single owner.
    pub(crate) federate: Option<Arc<crate::federate::Federation>>,
    epoch: Instant,
    next_id: AtomicU64,
    /// Job-id allocation stride: 1 standalone, `fleet_size` federated,
    /// so replicas sharing a backend mint disjoint id residues.
    id_stride: u64,
    /// Ids whose submission was rolled back before becoming observable
    /// (queue full / IO error).  Reused by the next submit so the
    /// submission→id mapping — and with it the per-job journal file names
    /// — stays independent of backpressure timing.
    free_ids: Mutex<Vec<u64>>,
}

impl Shared {
    /// Seconds on the service clock.
    pub(crate) fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records a service-level event in the trace ring at service time.
    pub(crate) fn trace(&self, kind: TraceKind) {
        self.trace_ring.record(&TraceEvent {
            at: self.now(),
            kind,
        });
    }
}

/// A running workflow service.  Dropping the handle aborts the workers
/// (prefer [`Service::drain`] for a graceful stop).
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// The federation heartbeat (lease renewal + takeover scanning);
    /// joined after the workers so leases stay live through a drain.
    federation: Option<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Starts the service: recovers unfinished jobs from the state
    /// directory (if configured), then spawns the worker pool.
    pub fn start(cfg: ServiceConfig) -> Result<Service, String> {
        assert!(cfg.workers > 0, "need at least one worker");
        let chaos = cfg.chaos.clone().map(Arc::new);
        let base: Option<Arc<dyn Storage>> = if let Some(st) = cfg.storage.clone() {
            Some(st)
        } else if let Some(dir) = &cfg.state_dir {
            Some(match cfg.backend {
                Backend::Wal => {
                    Arc::new(WalStorage::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?)
                }
                Backend::Memory => Arc::new(MemStorage::new()),
            })
        } else {
            None
        };
        let storage = base.map(|st| match &cfg.chaos {
            Some(plan) if plan.has_fs_faults() => {
                Arc::new(ChaosStorage::new(st, plan.clone())) as Arc<dyn Storage>
            }
            _ => st,
        });
        let federate = cfg
            .replica_id
            .clone()
            .map(|r| Arc::new(crate::federate::Federation::new(r, cfg.lease_ttl)));
        // A chaos-killed replica models a box that wedged right after
        // accepting work: admission (and its lease minting) still runs,
        // but no worker ever picks a job up and no heartbeat ever renews
        // — its leases expire and the surviving fleet takes over.
        let killed = match (&chaos, &cfg.replica_id) {
            (Some(plan), Some(r)) => plan.replica_killed(r),
            _ => false,
        };
        let id_stride = cfg.fleet_size.max(1) as u64;
        let shared = Arc::new(Shared {
            storage,
            chaos,
            queue: BoundedQueue::new(cfg.queue_capacity),
            table: JobTable::new(),
            sched: SchedState::new(cfg.workers),
            metrics: Arc::new(Metrics::new()),
            trace_ring: RingSink::new(SERVICE_RING),
            accepting: AtomicBool::new(true),
            aborting: AtomicBool::new(false),
            federate,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            id_stride,
            free_ids: Mutex::new(Vec::new()),
            cfg,
        });
        if let Some(dir) = &shared.cfg.trace_dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut max_id = 0;
        if let Some(st) = shared.storage.clone() {
            let scanned = recover::scan(st.as_ref())?;
            shared
                .metrics
                .counters
                .quarantined
                .fetch_add(scanned.quarantined, Ordering::Relaxed);
            // Seed id allocation from every persisted job record —
            // terminal jobs included — so a reused id can never pick up
            // a stale checkpoint or result marker.
            max_id = recover::max_job_id(st.as_ref())?;
            if shared.federate.is_some() {
                // Federated restarts re-admit under the lease discipline:
                // reclaim our own jobs (epoch bumped, fencing our previous
                // incarnation), take over expired peers, skip live ones.
                // A chaos-killed replica adopts nothing.
                if !killed {
                    crate::federate::admit_scanned(&shared, scanned)?;
                }
            } else {
                for (id, sub) in scanned.jobs {
                    let mut record = JobRecord::new(id, sub.name.clone(), shared.now(), true);
                    record.recovered = true;
                    let mut shard = shared.table.shard(id.0);
                    shard.jobs.insert(id.0, record);
                    shard.subs.insert(id.0, sub);
                    drop(shard);
                    // Refusing previously-admitted work would break the
                    // admission contract, so recovery bypasses the capacity
                    // check.
                    shared
                        .queue
                        .force_push(id)
                        .map_err(|_| "queue closed during recovery".to_string())?;
                    Metrics::incr(&shared.metrics.counters.recovered);
                    Metrics::incr(&shared.metrics.counters.submitted);
                    shared.trace(TraceKind::JobRecovered { job: id.0 });
                }
            }
        }
        // First free id at or above `max_id + 1` in this replica's
        // residue class (`(id - 1) % stride == replica_index`).
        let k = (shared.cfg.replica_index as u64) % id_stride;
        let mut first = max_id + 1;
        first += (k + id_stride - ((first - 1) % id_stride)) % id_stride;
        shared.next_id.store(first, Ordering::Relaxed);
        let workers = if killed {
            Vec::new()
        } else {
            (0..shared.cfg.workers)
                .map(|i| {
                    let shared = shared.clone();
                    std::thread::Builder::new()
                        .name(format!("gridwfs-serve-worker-{i}"))
                        .spawn(move || crate::sched::worker_loop(shared, i))
                        .expect("spawn worker")
                })
                .collect()
        };
        let federation = (!killed && shared.federate.is_some()).then(|| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("gridwfs-serve-lease".into())
                .spawn(move || crate::federate::heartbeat_loop(shared))
                .expect("spawn federation heartbeat")
        });
        Ok(Service {
            shared,
            workers,
            federation,
        })
    }

    /// Submits a workflow.  On `Ok` the job is admitted and will reach a
    /// terminal state; on `Err` nothing of it remains in the service.
    pub fn submit(&self, sub: Submission) -> Result<JobId, SubmitError> {
        if !self.shared.accepting.load(Ordering::Relaxed) {
            self.reject(&sub.name, "shutting-down");
            return Err(SubmitError::ShuttingDown);
        }
        let id = match relock(&self.shared.free_ids).pop() {
            Some(freed) => JobId(freed),
            None => JobId(
                self.shared
                    .next_id
                    .fetch_add(self.shared.id_stride, Ordering::Relaxed),
            ),
        };
        let label = sub.name.clone();
        let record = JobRecord::new(id, label.clone(), self.shared.now(), false);
        if let Some(st) = &self.shared.storage {
            // Federated admission mints the job's lease (epoch 1) in the
            // same group commit as the submission records: the job is
            // never durable without an owner.
            let lease = self
                .shared
                .federate
                .as_ref()
                .map(|fed| fed.lease_payload(1));
            let mut ops = recover::write_submission_ops(id, &sub, lease);
            if self.shared.federate.is_some() {
                // A correctly strided fleet (`replica_index`/`fleet_size`)
                // never mints the same id twice — but the id allocator is
                // per-process configuration, and a misconfigured fleet
                // (two replicas with the same index, or stride 1) would
                // otherwise *silently overwrite* a peer's live job: the
                // submission batch commits Dels+Puts over the peer's
                // lease, meta, and workflow.  Guard the batch so a
                // collision rejects atomically instead of clobbering.
                ops.insert(0, Op::CheckAbsent(recover::lease_name(id)));
                ops.insert(0, Op::CheckAbsent(recover::meta_name(id)));
            }
            let errors = st.apply(ops);
            if errors.iter().any(|(_, e)| is_fence_conflict(e)) {
                // The records at this id belong to another job (a peer's
                // admission, live or settled).  The batch was rejected
                // before any mutation, so there is nothing of ours in
                // storage to roll back — and `remove_submission` would
                // delete the *peer's* records.  Burn the id: recycling it
                // would collide again.
                self.reject(&label, "id-collision");
                return Err(SubmitError::Io(format!(
                    "{id}: id already in use in shared storage — fleet \
                     misconfigured? (every replica needs a distinct \
                     --replica-index and the common --fleet-size)"
                )));
            }
            if let Some((name, e)) = errors.into_iter().next() {
                self.rollback(id);
                self.reject(&label, "io");
                return Err(SubmitError::Io(format!("{name}: {e}")));
            }
            if let Some(fed) = &self.shared.federate {
                fed.adopt(id.0, 1);
            }
        }
        // The submission moves into the table, which holds it until a
        // worker picks the job up.
        {
            let mut shard = self.shared.table.shard(id.0);
            shard.jobs.insert(id.0, record);
            shard.subs.insert(id.0, sub);
        }
        // Open the job's journal before it becomes poppable, so a worker's
        // `append` can never race the truncating `create`.  The admission
        // anchor is t=0.0: per-job journals carry the deterministic
        // executor clock, not the service's wall clock.
        if let Some(dir) = &self.shared.cfg.trace_dir {
            let created = JsonlSink::create(recover::trace_path(dir, id))
                .map_err(|e| e.to_string())
                .and_then(|sink| {
                    sink.record(&TraceEvent {
                        at: 0.0,
                        kind: TraceKind::JobAdmitted {
                            job: id.0,
                            name: label.clone(),
                        },
                    });
                    sink.flush();
                    sink.error().map_or(Ok(()), Err)
                });
            if let Err(e) = created {
                self.rollback(id);
                self.reject(&label, "io");
                return Err(SubmitError::Io(e));
            }
        }
        match self.shared.queue.try_push(id) {
            Ok(()) => {
                Metrics::incr(&self.shared.metrics.counters.submitted);
                self.shared.trace(TraceKind::JobAdmitted {
                    job: id.0,
                    name: label,
                });
                Ok(id)
            }
            Err(e) => {
                self.rollback(id);
                let (err, reason) = match e {
                    PushError::Full(_) => (SubmitError::QueueFull, "queue-full"),
                    PushError::Closed(_) => (SubmitError::ShuttingDown, "shutting-down"),
                };
                self.reject(&label, reason);
                Err(err)
            }
        }
    }

    fn reject(&self, name: &str, reason: &str) {
        Metrics::incr(&self.shared.metrics.counters.rejected);
        self.shared.trace(TraceKind::JobRejected {
            name: name.to_string(),
            reason: reason.to_string(),
        });
    }

    fn rollback(&self, id: JobId) {
        if let Some(fed) = &self.shared.federate {
            fed.disown(id.0);
        }
        {
            let mut shard = self.shared.table.shard(id.0);
            shard.jobs.remove(&id.0);
            shard.subs.remove(&id.0);
        }
        if let Some(st) = &self.shared.storage {
            if let Err(e) = recover::remove_submission(st.as_ref(), id) {
                // The staged workflow/meta records may still be durable.
                // Recycling the id now would hand a future submission an id
                // whose storage slot a restart will resurrect as *this*
                // rolled-back job.  Burn the id instead, and tombstone the
                // slot with a terminal marker so the restart scan skips it
                // (best-effort: if the tombstone also fails, the burned id
                // still keeps live state and stale records disjoint).
                eprintln!("gridwfs-serve: rollback of {id} left staged records: {e}");
                let _ = recover::write_result(st.as_ref(), id, "failed", "rolled-back");
                return;
            }
        }
        if let Some(dir) = &self.shared.cfg.trace_dir {
            let _ = std::fs::remove_file(recover::trace_path(dir, id));
        }
        relock(&self.shared.free_ids).push(id.0);
    }

    /// Snapshot of one job's record.
    pub fn status(&self, id: JobId) -> Option<JobRecord> {
        self.shared.table.shard(id.0).jobs.get(&id.0).cloned()
    }

    /// Snapshot of every job, ascending by id.
    pub fn jobs(&self) -> Vec<JobRecord> {
        self.shared.table.all_jobs()
    }

    /// Requests cancellation.  Queued jobs become `Cancelled` immediately;
    /// running jobs get their engine's stop flag set and settle as
    /// `Cancelled` shortly after.  Returns false for unknown or already
    /// terminal jobs.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut shard = self.shared.table.shard(id.0);
        let Some(rec) = shard.jobs.get_mut(&id.0) else {
            return false;
        };
        match rec.state {
            JobState::Queued => {
                rec.cancel_requested = true;
                rec.state = JobState::Cancelled;
                rec.finished_at = Some(self.shared.now());
                rec.detail = Some("cancelled while queued".into());
                shard.subs.remove(&id.0);
                drop(shard);
                Metrics::incr(&self.shared.metrics.counters.cancelled);
                // The same terminal write a settled run commits: the
                // marker plus the purge of the records it no longer needs.
                if let Some(st) = &self.shared.storage {
                    match &self.shared.federate {
                        // Fenced: the terminal write and the lease
                        // removal commit together, gated on ownership.
                        Some(fed) => crate::federate::write_result_fenced(
                            &self.shared,
                            fed,
                            id,
                            "cancelled",
                            "cancelled while queued",
                        ),
                        None => {
                            let _ = st.apply(recover::terminal_ops(
                                id,
                                "cancelled",
                                "cancelled while queued",
                            ));
                        }
                    }
                }
                true
            }
            JobState::Running => {
                rec.cancel_requested = true;
                // The stop flag lives in the same shard, registered in the
                // same critical section that made the job `Running` — if
                // we saw `Running`, the flag is here.
                if let Some(stop) = shard.stops.get(&id.0) {
                    stop.store(true, Ordering::Relaxed);
                }
                true
            }
            _ => false,
        }
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// JSON snapshot of the metrics registry, including the storage
    /// engine's counters when the service persists state.
    pub fn metrics_json(&self) -> String {
        let storage = self
            .shared
            .storage
            .as_ref()
            .map(|st| (st.backend_name(), st.counters()));
        self.shared
            .metrics
            .snapshot_json_with_storage(self.queue_depth(), storage)
    }

    /// Snapshot of the service-level flight recorder: admissions,
    /// rejections, and recoveries, oldest first, wall-clock timestamps.
    /// (Per-job engine events go to the job's journal in the trace
    /// directory, not here.)
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared.trace_ring.events()
    }

    /// Polls until every known job is terminal (true) or `timeout`
    /// elapses (false).
    pub fn wait_all_terminal(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.table.all_terminal() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Test/maintenance hook for federated serve: a paused replica stops
    /// renewing its leases and scanning for takeovers, so a peer claims
    /// its jobs once the TTL lapses — the zombie drill.  No-op for a
    /// standalone service.
    pub fn pause_federation(&self, paused: bool) {
        if let Some(fed) = &self.shared.federate {
            fed.set_paused(paused);
        }
    }

    fn halt(&mut self, abort: bool) {
        self.shared.accepting.store(false, Ordering::Relaxed);
        if abort {
            self.shared.aborting.store(true, Ordering::Relaxed);
            self.shared.table.stop_all();
        }
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Stop the heartbeat only after the workers are done: a graceful
        // drain needs the leases renewed until the last job settles.
        if let Some(fed) = &self.shared.federate {
            fed.request_stop();
        }
        if let Some(h) = self.federation.take() {
            let _ = h.join();
        }
    }

    /// Test hook: stops the worker threads (a graceful halt) and hands out
    /// the shared state, so a scheduler test can play the workers itself,
    /// one deterministic step at a time.
    #[cfg(test)]
    pub(crate) fn retire_workers(&mut self) -> Arc<Shared> {
        self.halt(false);
        self.shared.clone()
    }

    /// Graceful shutdown: stop accepting, drain the queue, wait for every
    /// worker to finish, return the final records.
    pub fn drain(mut self) -> Vec<JobRecord> {
        self.halt(false);
        self.jobs()
    }

    /// Hard shutdown: stop accepting, abort running engines (their
    /// checkpoints persist), leave queued jobs queued on disk, and return
    /// the records as they stood.  With a state directory, a later
    /// [`Service::start`] re-admits everything non-terminal.
    pub fn shutdown_now(mut self) -> Vec<JobRecord> {
        self.halt(true);
        self.jobs()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.halt(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridspec::GridSpec;

    #[test]
    fn queries_survive_a_poisoned_jobs_mutex() {
        crate::test_support::quiet_expected_panics();
        let svc = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let id = svc
            .submit(Submission {
                name: "poison-probe".into(),
                workflow_xml: "<Workflow name='w'>\
                   <Activity name='a'><Implement>p</Implement></Activity>\
                   <Program name='p' duration='5'><Option hostname='h1'/></Program>\
                 </Workflow>"
                    .into(),
                grid: GridSpec::virtual_grid().with_host("h1", 1.0),
                seed: 1,
                deadline: None,
            })
            .unwrap();
        assert!(svc.wait_all_terminal(Duration::from_secs(10)));
        let shared = svc.shared.clone();
        let poisoned_id = id;
        let _ = std::thread::spawn(move || {
            let _guard = shared.table.shard(poisoned_id.0);
            panic!("chaos: poison the job's shard");
        })
        .join();
        // Queries, cancellation, and snapshots all answer from the
        // recovered shard lock instead of propagating the poison.
        assert_eq!(svc.status(id).unwrap().state, JobState::Done);
        assert_eq!(svc.jobs().len(), 1);
        assert!(!svc.cancel(id), "terminal job: cancel refused, no panic");
        assert!(svc.metrics_json().contains("\"completed\": 1"));
        let records = svc.drain();
        assert_eq!(records.len(), 1);
    }
}

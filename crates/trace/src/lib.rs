//! The flight recorder: a structured journal of every recovery-relevant
//! decision the system makes.
//!
//! The paper's thesis is that failure handling lives in the *workflow
//! structure* — retries, replicas, alternative tasks, exception handlers.
//! The flight recorder makes those decisions observable: the engine (and
//! the serving layer above it) emit one [`TraceEvent`] per decision into a
//! [`TraceSink`], and the JSONL rendering of that stream is both a
//! debugging journal (WRATH-style execution recording) and a correctness
//! oracle — the simulator is deterministic, so identical seeds must yield
//! **byte-identical** journals regardless of worker/thread count.
//!
//! Determinism rules the encoders follow:
//!
//! * fields are written in a fixed order with no whitespace;
//! * floats use Rust's shortest-round-trip `Display` (stable for equal
//!   bits);
//! * events carry no sequence numbers or wall-clock times — line order
//!   *is* the order, and timestamps are executor-clock (virtual seconds
//!   on the simulated Grid).
//!
//! The crate is dependency-free on purpose: it sits below `core` and
//! `serve` in the crate DAG and must build in the offline stub workspace.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// Poison-tolerant lock: sinks must keep recording even if some thread
/// panicked while holding the buffer (a chaos-injected workflow panic must
/// not silence the journal that exists to record it).
fn relock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// How a task attempt ended, as recorded in [`TraceKind::TaskSettled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOutcome {
    /// Finished its work successfully.
    Completed,
    /// Crashed (including heartbeat-presumed crashes).
    Crashed,
    /// Raised a user-defined exception.
    Exception,
    /// Cancelled by the engine (losing replica, node settled, abort).
    Cancelled,
}

impl TaskOutcome {
    /// Stable wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            TaskOutcome::Completed => "completed",
            TaskOutcome::Crashed => "crashed",
            TaskOutcome::Exception => "exception",
            TaskOutcome::Cancelled => "cancelled",
        }
    }
}

/// One recovery-relevant decision.  Engine-level kinds carry executor-clock
/// context in the enclosing [`TraceEvent::at`]; serve-level job events use
/// deterministic anchors (0.0 at admission, the report's `finished_at` at
/// settlement) so per-job journals are reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// An activity changed navigation state (`running`, `done`, `failed`,
    /// `exception:<name>`, `skipped`).
    NodeState {
        /// Activity name.
        activity: String,
        /// New state string.
        state: String,
    },
    /// A do-while loop re-queued its activity for another iteration.
    LoopIteration {
        /// Activity name.
        activity: String,
        /// 1-based iteration about to run.
        iteration: u32,
    },
    /// A task attempt was handed to the executor.
    TaskSubmitted {
        /// Owning activity.
        activity: String,
        /// Replica slot (0 for simple policy).
        slot: usize,
        /// 1-based attempt number within the slot.
        attempt: u32,
        /// Engine task id.
        task: u64,
        /// Target host.
        host: String,
        /// Checkpoint flag handed back to the task, when resuming.
        resume: Option<String>,
    },
    /// A task attempt reached a terminal classification.
    TaskSettled {
        /// Owning activity.
        activity: String,
        /// Engine task id.
        task: u64,
        /// Terminal classification.
        outcome: TaskOutcome,
        /// Why (`task-end`, `done-without-task-end`, `heartbeat-loss`,
        /// exception name, `sibling-settled`, `abort`, ...).
        reason: String,
    },
    /// Task-level recovery scheduled a retry timer.
    RetryScheduled {
        /// Activity being retried.
        activity: String,
        /// Replica slot.
        slot: usize,
        /// 1-based attempt number the timer will launch.
        attempt: u32,
        /// Absolute executor time the retry fires.
        fire_at: f64,
    },
    /// Task-level recovery gave up (all slots exhausted); the failure
    /// surfaces to the workflow level.
    RecoveryExhausted {
        /// Activity whose masking failed.
        activity: String,
    },
    /// An alternative task is starting because its predecessor failed
    /// (an `on="failed"` edge fired — paper Figure 4).
    AlternativeTask {
        /// Failed predecessor.
        from: String,
        /// Alternative now starting.
        to: String,
    },
    /// An exception handler is starting (`on="exception:<name>"` edge
    /// fired — paper Figure 6).
    HandlerFired {
        /// Activity that raised.
        from: String,
        /// Handler now starting.
        to: String,
        /// Exception name the edge matched.
        exception: String,
    },
    /// A task recorded a checkpoint flag; the engine stores it and hands
    /// it back on the slot's next attempt (§4.3 round-trip).
    CheckpointFlag {
        /// Owning activity.
        activity: String,
        /// Engine task id.
        task: u64,
        /// Opaque recovery cookie.
        flag: String,
    },
    /// The engine persisted (or failed to persist) its navigation
    /// checkpoint after a settlement.
    EngineCheckpoint {
        /// Whether the write succeeded.
        ok: bool,
    },
    /// A heartbeat watch was re-registered for a task the monitor already
    /// knew — recorded because silently reviving a presumed-dead attempt
    /// is exactly the bug this journal exists to catch.
    WatchReplaced {
        /// Engine task id.
        task: u64,
        /// Prior liveness: `true` if the replaced watch had already
        /// presumed the task dead.
        was_presumed_dead: bool,
    },
    /// Navigation aborted before a natural terminal state
    /// (`stop` / `deadline` / `max_settlements`).
    EngineAborted {
        /// Abort reason.
        reason: String,
    },
    /// The engine declared an activity stalled (no notifications, no
    /// timers, nothing can make progress).
    EngineStalled {
        /// Stalled activity.
        activity: String,
    },
    /// serve: a submission was admitted.
    JobAdmitted {
        /// Job id.
        job: u64,
        /// Client label.
        name: String,
    },
    /// serve: a submission was rejected at the door.
    JobRejected {
        /// Client label.
        name: String,
        /// `queue-full` or `shutting-down`.
        reason: String,
    },
    /// serve: a recovered job was re-admitted by a later service
    /// incarnation's state-dir scan.
    JobRecovered {
        /// Job id.
        job: u64,
    },
    /// serve: a worker started (an incarnation of) a job.
    JobStarted {
        /// Job id.
        job: u64,
        /// 0-based incarnation: how many `JobStarted` events precede this
        /// one in the job's journal.
        incarnation: u32,
        /// Simulation seed the engine ran with.
        seed: u64,
    },
    /// serve: a job run was interrupted and went back to the queue (the
    /// resume path: service shutdown, not a client cancel).
    JobAborted {
        /// Job id.
        job: u64,
        /// Abort reason.
        reason: String,
    },
    /// serve: a job reached a terminal state.
    JobSettled {
        /// Job id.
        job: u64,
        /// Terminal state (`done` / `failed` / `cancelled`).
        state: String,
        /// Human detail (outcome, error, `deadline exceeded`, ...).
        detail: String,
    },
    /// serve: the job's workflow closure panicked inside a worker; the
    /// worker caught the unwind, failed the job, and survived.
    JobPanicked {
        /// Job id.
        job: u64,
        /// Panic payload (message), best-effort stringified.
        detail: String,
    },
    /// serve (federated): the owning replica renewed the job's lease on a
    /// heartbeat tick.
    LeaseRenewed {
        /// Job id.
        job: u64,
        /// Lease epoch at renewal (unchanged by a renewal).
        epoch: u64,
    },
    /// serve (federated): a takeover scanner observed an expired lease on
    /// a job it does not own.
    LeaseExpired {
        /// Job id.
        job: u64,
        /// The expired lease's epoch.
        epoch: u64,
    },
    /// serve (federated): a replica claimed an expired (or absent) lease,
    /// bumping the epoch, and re-admitted the job locally.
    LeaseTakeover {
        /// Job id.
        job: u64,
        /// The new lease epoch after the claim.
        epoch: u64,
    },
    /// serve (federated): a batch of job-record writes was rejected by the
    /// storage layer because the writer no longer holds the job's lease —
    /// the zombie-fencing event.
    WriteFenced {
        /// Job id.
        job: u64,
        /// The stale epoch the writer held.
        epoch: u64,
    },
    /// engine: the per-host circuit breaker opened after consecutive
    /// failures; no new attempts target the host until `until`.
    BreakerOpen {
        /// Host whose breaker opened.
        host: String,
        /// Executor time at which the breaker allows a half-open probe.
        until: f64,
    },
    /// engine: a submission to a host with an open breaker went ahead as a
    /// half-open probe (backoff elapsed, or every candidate host was open).
    BreakerProbe {
        /// Host being probed.
        host: String,
    },
    /// engine: a success on a probed host closed its breaker.
    BreakerClosed {
        /// Host whose breaker closed.
        host: String,
    },
    /// engine: the failure detector presumed an attempt crashed from
    /// heartbeat silence.  Distinct from the `task_settle` that follows:
    /// this event records what the detector *knew* — the silence and (for
    /// φ-accrual) the suspicion level — so false suspicions can be audited
    /// against it.
    SuspicionRaised {
        /// Owning activity.
        activity: String,
        /// Engine task id.
        task: u64,
        /// Heartbeat silence at presumption time.
        silence: f64,
        /// Suspicion level φ (`null` under the fixed-timeout detector).
        phi: Option<f64>,
    },
    /// engine: a terminal message (`done` / `exception`) arrived from an
    /// attempt already presumed dead — the suspicion was false, the
    /// message is discarded, and the node it belonged to is *not*
    /// re-settled.  At most one per attempt.
    ZombieCompletion {
        /// Owning activity.
        activity: String,
        /// Engine task id of the zombie attempt.
        task: u64,
        /// What arrived: `done` or `exception`.
        body: String,
    },
    /// engine: a best-effort cancel was sent to a superseded attempt
    /// (presumed dead, or replaced by a retry).  Delivery is not
    /// guaranteed — the link may drop or delay it like any other message.
    OrphanCancelled {
        /// Owning activity.
        activity: String,
        /// Engine task id the cancel targets.
        task: u64,
    },
    /// engine: a heartbeat arrived from an attempt already presumed dead —
    /// evidence the suspicion was false (the attempt stays dead).
    LateHeartbeat {
        /// Owning activity.
        activity: String,
        /// Engine task id.
        task: u64,
        /// Heartbeat sequence number.
        seq: u64,
    },
    /// engine: a `foreach` activity started fanning out over its item set.
    ForeachStarted {
        /// Owning activity.
        activity: String,
        /// Total instantiated items.
        items: usize,
        /// Items still pending (smaller than `items` when resuming: done
        /// and dead-lettered items are not re-run).
        pending: usize,
    },
    /// engine: a `foreach` item reached a terminal state other than the
    /// dead-letter queue.  Exactly one `item_settle` *or* `item_dlq` is
    /// recorded per item per job completion — never both, never neither.
    ItemSettled {
        /// Owning activity.
        activity: String,
        /// 0-based item index (the slot of its task submissions).
        item: usize,
        /// `done`, `skipped`, `cancelled`, or `failed`.
        outcome: String,
        /// Attempts consumed, across primary and failover programs.
        attempts: u32,
    },
    /// engine: a `foreach` item exhausted its recovery budget and was
    /// recorded in the job's dead-letter queue.
    ItemDeadLettered {
        /// Owning activity.
        activity: String,
        /// 0-based item index.
        item: usize,
        /// Attempts consumed before giving up.
        attempts: u32,
        /// Last failure classification.
        reason: String,
    },
    /// engine: an exhausted item switched to its failover program with a
    /// fresh attempt budget.
    ItemFailover {
        /// Owning activity.
        activity: String,
        /// 0-based item index.
        item: usize,
        /// Failover program now implementing the item.
        program: String,
    },
    /// engine: a previously dead-lettered item is being re-run after a
    /// `dlq retry` reset its state in the checkpoint.
    ItemReprocessed {
        /// Owning activity.
        activity: String,
        /// 0-based item index.
        item: usize,
    },
    /// engine: the resilience-aware scheduler scored the candidate hosts
    /// and picked one.  `steered` is true when the choice differs from
    /// the oblivious cycling base — the evidence changed the placement.
    PlacementScored {
        /// Owning activity.
        activity: String,
        /// Replica slot (or foreach item index).
        slot: usize,
        /// 1-based attempt number within the slot.
        attempt: u32,
        /// Chosen host.
        host: String,
        /// The chosen host's score (lower is healthier).
        score: f64,
        /// True when the scorer moved the attempt off the cycling base.
        steered: bool,
    },
    /// engine: a live replica was pre-emptively moved off a host whose
    /// suspicion level crossed the re-replication threshold.
    Rereplicate {
        /// Owning activity.
        activity: String,
        /// Replica slot being moved.
        slot: usize,
        /// Host the replica is leaving.
        from: String,
        /// Host the replacement attempt targets.
        to: String,
        /// φ level that triggered the move.
        phi: f64,
    },
    /// engine: the per-host adaptive checkpoint interval changed —
    /// Young's approximation √(2·C·MTTF) over the observed MTTF.
    CkptIntervalAdapted {
        /// Host the interval applies to.
        host: String,
        /// New checkpoint interval (nominal task seconds).
        interval: f64,
        /// Observed MTTF the interval was derived from.
        mttf: f64,
    },
}

impl TraceKind {
    /// Stable wire tag for the `kind` JSON field.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceKind::NodeState { .. } => "node_state",
            TraceKind::LoopIteration { .. } => "loop_iteration",
            TraceKind::TaskSubmitted { .. } => "task_submit",
            TraceKind::TaskSettled { .. } => "task_settle",
            TraceKind::RetryScheduled { .. } => "retry_scheduled",
            TraceKind::RecoveryExhausted { .. } => "recovery_exhausted",
            TraceKind::AlternativeTask { .. } => "alternative_task",
            TraceKind::HandlerFired { .. } => "handler_fired",
            TraceKind::CheckpointFlag { .. } => "checkpoint_flag",
            TraceKind::EngineCheckpoint { .. } => "engine_checkpoint",
            TraceKind::WatchReplaced { .. } => "watch_replaced",
            TraceKind::EngineAborted { .. } => "engine_aborted",
            TraceKind::EngineStalled { .. } => "engine_stalled",
            TraceKind::JobAdmitted { .. } => "job_admit",
            TraceKind::JobRejected { .. } => "job_reject",
            TraceKind::JobRecovered { .. } => "job_recovered",
            TraceKind::JobStarted { .. } => "job_start",
            TraceKind::JobAborted { .. } => "job_abort",
            TraceKind::JobSettled { .. } => "job_settle",
            TraceKind::JobPanicked { .. } => "job_panicked",
            TraceKind::LeaseRenewed { .. } => "lease_renew",
            TraceKind::LeaseExpired { .. } => "lease_expire",
            TraceKind::LeaseTakeover { .. } => "lease_takeover",
            TraceKind::WriteFenced { .. } => "write_fenced",
            TraceKind::BreakerOpen { .. } => "breaker_open",
            TraceKind::BreakerProbe { .. } => "breaker_probe",
            TraceKind::BreakerClosed { .. } => "breaker_closed",
            TraceKind::SuspicionRaised { .. } => "suspicion_raised",
            TraceKind::ZombieCompletion { .. } => "zombie_completion",
            TraceKind::OrphanCancelled { .. } => "orphan_cancelled",
            TraceKind::LateHeartbeat { .. } => "late_heartbeat",
            TraceKind::ForeachStarted { .. } => "foreach_start",
            TraceKind::ItemSettled { .. } => "item_settle",
            TraceKind::ItemDeadLettered { .. } => "item_dlq",
            TraceKind::ItemFailover { .. } => "item_failover",
            TraceKind::ItemReprocessed { .. } => "item_reprocess",
            TraceKind::PlacementScored { .. } => "placement_scored",
            TraceKind::Rereplicate { .. } => "rereplicate",
            TraceKind::CkptIntervalAdapted { .. } => "ckpt_interval_adapted",
        }
    }
}

/// One line of the flight journal.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event time.  Executor clock for engine events; deterministic
    /// anchors for serve-level job events (see [`TraceKind`]).
    pub at: f64,
    /// What happened.
    pub kind: TraceKind,
}

/// Appends `s` to `out` as a JSON string literal (quotes, backslash and
/// control characters escaped) — the workspace's one JSON string writer.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    // Shortest round-trip `Display`; always containing a decimal point or
    // exponent would be nice-to-have but plain `{}` is deterministic,
    // which is the property the journal actually needs.
    out.push_str(&format!("{v}"));
}

impl TraceEvent {
    /// Renders the event as one deterministic JSON object (no trailing
    /// newline).  Field order is fixed: `at`, `kind`, then kind-specific
    /// fields in declaration order.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(96);
        o.push_str("{\"at\":");
        push_f64(&mut o, self.at);
        o.push_str(",\"kind\":\"");
        o.push_str(self.kind.tag());
        o.push('"');
        match &self.kind {
            TraceKind::NodeState { activity, state } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(",\"state\":");
                push_escaped(&mut o, state);
            }
            TraceKind::LoopIteration {
                activity,
                iteration,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"iteration\":{iteration}"));
            }
            TraceKind::TaskSubmitted {
                activity,
                slot,
                attempt,
                task,
                host,
                resume,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(
                    ",\"slot\":{slot},\"attempt\":{attempt},\"task\":{task},\"host\":"
                ));
                push_escaped(&mut o, host);
                o.push_str(",\"resume\":");
                match resume {
                    Some(flag) => push_escaped(&mut o, flag),
                    None => o.push_str("null"),
                }
            }
            TraceKind::TaskSettled {
                activity,
                task,
                outcome,
                reason,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(
                    ",\"task\":{task},\"outcome\":\"{}\"",
                    outcome.as_str()
                ));
                o.push_str(",\"reason\":");
                push_escaped(&mut o, reason);
            }
            TraceKind::RetryScheduled {
                activity,
                slot,
                attempt,
                fire_at,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(
                    ",\"slot\":{slot},\"attempt\":{attempt},\"fire_at\":"
                ));
                push_f64(&mut o, *fire_at);
            }
            TraceKind::RecoveryExhausted { activity } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
            }
            TraceKind::AlternativeTask { from, to } => {
                o.push_str(",\"from\":");
                push_escaped(&mut o, from);
                o.push_str(",\"to\":");
                push_escaped(&mut o, to);
            }
            TraceKind::HandlerFired {
                from,
                to,
                exception,
            } => {
                o.push_str(",\"from\":");
                push_escaped(&mut o, from);
                o.push_str(",\"to\":");
                push_escaped(&mut o, to);
                o.push_str(",\"exception\":");
                push_escaped(&mut o, exception);
            }
            TraceKind::CheckpointFlag {
                activity,
                task,
                flag,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"task\":{task},\"flag\":"));
                push_escaped(&mut o, flag);
            }
            TraceKind::EngineCheckpoint { ok } => {
                o.push_str(&format!(",\"ok\":{ok}"));
            }
            TraceKind::WatchReplaced {
                task,
                was_presumed_dead,
            } => {
                o.push_str(&format!(
                    ",\"task\":{task},\"was_presumed_dead\":{was_presumed_dead}"
                ));
            }
            TraceKind::EngineAborted { reason } => {
                o.push_str(",\"reason\":");
                push_escaped(&mut o, reason);
            }
            TraceKind::EngineStalled { activity } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
            }
            TraceKind::JobAdmitted { job, name } => {
                o.push_str(&format!(",\"job\":{job},\"name\":"));
                push_escaped(&mut o, name);
            }
            TraceKind::JobRejected { name, reason } => {
                o.push_str(",\"name\":");
                push_escaped(&mut o, name);
                o.push_str(",\"reason\":");
                push_escaped(&mut o, reason);
            }
            TraceKind::JobRecovered { job } => {
                o.push_str(&format!(",\"job\":{job}"));
            }
            TraceKind::JobStarted {
                job,
                incarnation,
                seed,
            } => {
                o.push_str(&format!(
                    ",\"job\":{job},\"incarnation\":{incarnation},\"seed\":{seed}"
                ));
            }
            TraceKind::JobAborted { job, reason } => {
                o.push_str(&format!(",\"job\":{job},\"reason\":"));
                push_escaped(&mut o, reason);
            }
            TraceKind::JobSettled { job, state, detail } => {
                o.push_str(&format!(",\"job\":{job},\"state\":"));
                push_escaped(&mut o, state);
                o.push_str(",\"detail\":");
                push_escaped(&mut o, detail);
            }
            TraceKind::JobPanicked { job, detail } => {
                o.push_str(&format!(",\"job\":{job},\"detail\":"));
                push_escaped(&mut o, detail);
            }
            TraceKind::LeaseRenewed { job, epoch }
            | TraceKind::LeaseExpired { job, epoch }
            | TraceKind::LeaseTakeover { job, epoch }
            | TraceKind::WriteFenced { job, epoch } => {
                o.push_str(&format!(",\"job\":{job},\"epoch\":{epoch}"));
            }
            TraceKind::BreakerOpen { host, until } => {
                o.push_str(",\"host\":");
                push_escaped(&mut o, host);
                o.push_str(",\"until\":");
                push_f64(&mut o, *until);
            }
            TraceKind::BreakerProbe { host } => {
                o.push_str(",\"host\":");
                push_escaped(&mut o, host);
            }
            TraceKind::BreakerClosed { host } => {
                o.push_str(",\"host\":");
                push_escaped(&mut o, host);
            }
            TraceKind::SuspicionRaised {
                activity,
                task,
                silence,
                phi,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"task\":{task},\"silence\":"));
                push_f64(&mut o, *silence);
                o.push_str(",\"phi\":");
                match phi {
                    Some(level) => push_f64(&mut o, *level),
                    None => o.push_str("null"),
                }
            }
            TraceKind::ZombieCompletion {
                activity,
                task,
                body,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"task\":{task},\"body\":"));
                push_escaped(&mut o, body);
            }
            TraceKind::OrphanCancelled { activity, task } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"task\":{task}"));
            }
            TraceKind::LateHeartbeat {
                activity,
                task,
                seq,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"task\":{task},\"seq\":{seq}"));
            }
            TraceKind::ForeachStarted {
                activity,
                items,
                pending,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"items\":{items},\"pending\":{pending}"));
            }
            TraceKind::ItemSettled {
                activity,
                item,
                outcome,
                attempts,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"item\":{item},\"outcome\":"));
                push_escaped(&mut o, outcome);
                o.push_str(&format!(",\"attempts\":{attempts}"));
            }
            TraceKind::ItemDeadLettered {
                activity,
                item,
                attempts,
                reason,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(
                    ",\"item\":{item},\"attempts\":{attempts},\"reason\":"
                ));
                push_escaped(&mut o, reason);
            }
            TraceKind::ItemFailover {
                activity,
                item,
                program,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"item\":{item},\"program\":"));
                push_escaped(&mut o, program);
            }
            TraceKind::ItemReprocessed { activity, item } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"item\":{item}"));
            }
            TraceKind::PlacementScored {
                activity,
                slot,
                attempt,
                host,
                score,
                steered,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"slot\":{slot},\"attempt\":{attempt},\"host\":"));
                push_escaped(&mut o, host);
                o.push_str(",\"score\":");
                push_f64(&mut o, *score);
                o.push_str(&format!(",\"steered\":{steered}"));
            }
            TraceKind::Rereplicate {
                activity,
                slot,
                from,
                to,
                phi,
            } => {
                o.push_str(",\"activity\":");
                push_escaped(&mut o, activity);
                o.push_str(&format!(",\"slot\":{slot},\"from\":"));
                push_escaped(&mut o, from);
                o.push_str(",\"to\":");
                push_escaped(&mut o, to);
                o.push_str(",\"phi\":");
                push_f64(&mut o, *phi);
            }
            TraceKind::CkptIntervalAdapted {
                host,
                interval,
                mttf,
            } => {
                o.push_str(",\"host\":");
                push_escaped(&mut o, host);
                o.push_str(",\"interval\":");
                push_f64(&mut o, *interval);
                o.push_str(",\"mttf\":");
                push_f64(&mut o, *mttf);
            }
        }
        o.push('}');
        o
    }
}

/// Renders a slice of events as a JSONL document (one event per line,
/// trailing newline included when non-empty).
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

/// A destination for trace events.
///
/// Methods take `&self` (interior mutability) so an `Arc<dyn TraceSink>`
/// can be shared between the serving layer and the engine it hosts.
pub trait TraceSink: Send + Sync {
    /// Records one event.  Must not panic; sinks swallow I/O errors and
    /// surface them through [`TraceSink::error`].
    fn record(&self, event: &TraceEvent);

    /// Flushes buffered output, if any.
    fn flush(&self) {}

    /// First I/O error encountered, if any.
    fn error(&self) -> Option<String> {
        None
    }
}

/// Keeps the last `capacity` events in memory — the service's always-on
/// black box.
pub struct RingSink {
    buf: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

impl RingSink {
    /// A ring holding at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
        }
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        relock(&self.buf).iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        relock(&self.buf).len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: &TraceEvent) {
        let mut buf = relock(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(event.clone());
    }
}

/// Collects every event in memory — the engine's default recorder and the
/// test suite's workhorse.
#[derive(Default)]
pub struct VecSink {
    buf: Mutex<Vec<TraceEvent>>,
}

impl VecSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        relock(&self.buf).clone()
    }
}

impl TraceSink for VecSink {
    fn record(&self, event: &TraceEvent) {
        relock(&self.buf).push(event.clone());
    }
}

struct JsonlInner {
    out: BufWriter<File>,
    error: Option<String>,
}

/// Appends events to a JSONL file, one object per line.
pub struct JsonlSink {
    inner: Mutex<JsonlInner>,
}

impl JsonlSink {
    /// Creates (truncating) `path` and streams events into it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::from_file(File::create(path)?))
    }

    /// Opens `path` for appending — the recovered-incarnation path: a
    /// resumed job's journal continues where the previous incarnation's
    /// stopped.
    pub fn append(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::from_file(
            OpenOptions::new().create(true).append(true).open(path)?,
        ))
    }

    fn from_file(file: File) -> Self {
        JsonlSink {
            inner: Mutex::new(JsonlInner {
                out: BufWriter::new(file),
                error: None,
            }),
        }
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let mut inner = relock(&self.inner);
        if inner.error.is_some() {
            return;
        }
        let line = event.to_json();
        if let Err(e) = writeln!(inner.out, "{line}") {
            inner.error = Some(e.to_string());
        }
    }

    fn flush(&self) {
        let mut inner = relock(&self.inner);
        if inner.error.is_some() {
            return;
        }
        if let Err(e) = inner.out.flush() {
            inner.error = Some(e.to_string());
        }
    }

    fn error(&self) -> Option<String> {
        relock(&self.inner).error.clone()
    }
}

/// Duplicates every event to several sinks (e.g. a JSONL file plus the
/// metrics deriver).
pub struct FanoutSink {
    sinks: Vec<std::sync::Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// A sink writing to all of `sinks` in order.
    pub fn new(sinks: Vec<std::sync::Arc<dyn TraceSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn record(&self, event: &TraceEvent) {
        for s in &self.sinks {
            s.record(event);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }

    fn error(&self) -> Option<String> {
        self.sinks.iter().find_map(|s| s.error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(at: f64, kind: TraceKind) -> TraceEvent {
        TraceEvent { at, kind }
    }

    #[test]
    fn json_field_order_is_fixed() {
        let e = ev(
            1.5,
            TraceKind::TaskSubmitted {
                activity: "a".into(),
                slot: 0,
                attempt: 1,
                task: 7,
                host: "h1".into(),
                resume: None,
            },
        );
        assert_eq!(
            e.to_json(),
            r#"{"at":1.5,"kind":"task_submit","activity":"a","slot":0,"attempt":1,"task":7,"host":"h1","resume":null}"#
        );
    }

    #[test]
    fn resume_flag_rendered_when_present() {
        let e = ev(
            2.0,
            TraceKind::TaskSubmitted {
                activity: "a".into(),
                slot: 1,
                attempt: 3,
                task: 9,
                host: "h".into(),
                resume: Some("ckpt-4".into()),
            },
        );
        assert!(e.to_json().ends_with(r#""resume":"ckpt-4"}"#));
    }

    #[test]
    fn strings_are_escaped() {
        let e = ev(
            0.0,
            TraceKind::EngineAborted {
                reason: "line\nbreak \"quoted\" \\slash\u{1}".into(),
            },
        );
        assert_eq!(
            e.to_json(),
            r#"{"at":0,"kind":"engine_aborted","reason":"line\nbreak \"quoted\" \\slash\u0001"}"#
        );
    }

    #[test]
    fn settle_event_uses_outcome_wire_strings() {
        for (outcome, s) in [
            (TaskOutcome::Completed, "completed"),
            (TaskOutcome::Crashed, "crashed"),
            (TaskOutcome::Exception, "exception"),
            (TaskOutcome::Cancelled, "cancelled"),
        ] {
            let e = ev(
                3.25,
                TraceKind::TaskSettled {
                    activity: "x".into(),
                    task: 2,
                    outcome,
                    reason: "r".into(),
                },
            );
            assert!(e.to_json().contains(&format!("\"outcome\":\"{s}\"")));
        }
    }

    #[test]
    fn lease_kinds_have_stable_wire_forms() {
        let cases = [
            (
                ev(0.0, TraceKind::LeaseRenewed { job: 4, epoch: 2 }),
                r#"{"at":0,"kind":"lease_renew","job":4,"epoch":2}"#,
            ),
            (
                ev(0.0, TraceKind::LeaseExpired { job: 4, epoch: 2 }),
                r#"{"at":0,"kind":"lease_expire","job":4,"epoch":2}"#,
            ),
            (
                ev(0.0, TraceKind::LeaseTakeover { job: 4, epoch: 3 }),
                r#"{"at":0,"kind":"lease_takeover","job":4,"epoch":3}"#,
            ),
            (
                ev(0.0, TraceKind::WriteFenced { job: 4, epoch: 2 }),
                r#"{"at":0,"kind":"write_fenced","job":4,"epoch":2}"#,
            ),
        ];
        for (event, want) in cases {
            assert_eq!(event.to_json(), want);
        }
    }

    #[test]
    fn chaos_and_breaker_kinds_have_stable_wire_forms() {
        let cases = [
            (
                ev(
                    0.0,
                    TraceKind::JobPanicked {
                        job: 3,
                        detail: "boom".into(),
                    },
                ),
                r#"{"at":0,"kind":"job_panicked","job":3,"detail":"boom"}"#,
            ),
            (
                ev(
                    12.5,
                    TraceKind::BreakerOpen {
                        host: "h1".into(),
                        until: 19.25,
                    },
                ),
                r#"{"at":12.5,"kind":"breaker_open","host":"h1","until":19.25}"#,
            ),
            (
                ev(19.25, TraceKind::BreakerProbe { host: "h1".into() }),
                r#"{"at":19.25,"kind":"breaker_probe","host":"h1"}"#,
            ),
            (
                ev(20.0, TraceKind::BreakerClosed { host: "h1".into() }),
                r#"{"at":20,"kind":"breaker_closed","host":"h1"}"#,
            ),
        ];
        for (event, wire) in cases {
            assert_eq!(event.to_json(), wire);
        }
    }

    #[test]
    fn detection_kinds_have_stable_wire_forms() {
        let cases = [
            (
                ev(
                    4.0,
                    TraceKind::SuspicionRaised {
                        activity: "a".into(),
                        task: 3,
                        silence: 3.5,
                        phi: Some(8.25),
                    },
                ),
                r#"{"at":4,"kind":"suspicion_raised","activity":"a","task":3,"silence":3.5,"phi":8.25}"#,
            ),
            (
                ev(
                    4.0,
                    TraceKind::SuspicionRaised {
                        activity: "a".into(),
                        task: 3,
                        silence: 3.5,
                        phi: None,
                    },
                ),
                r#"{"at":4,"kind":"suspicion_raised","activity":"a","task":3,"silence":3.5,"phi":null}"#,
            ),
            (
                ev(
                    9.5,
                    TraceKind::ZombieCompletion {
                        activity: "a".into(),
                        task: 3,
                        body: "done".into(),
                    },
                ),
                r#"{"at":9.5,"kind":"zombie_completion","activity":"a","task":3,"body":"done"}"#,
            ),
            (
                ev(
                    4.25,
                    TraceKind::OrphanCancelled {
                        activity: "a".into(),
                        task: 3,
                    },
                ),
                r#"{"at":4.25,"kind":"orphan_cancelled","activity":"a","task":3}"#,
            ),
            (
                ev(
                    5.0,
                    TraceKind::LateHeartbeat {
                        activity: "a".into(),
                        task: 3,
                        seq: 7,
                    },
                ),
                r#"{"at":5,"kind":"late_heartbeat","activity":"a","task":3,"seq":7}"#,
            ),
        ];
        for (event, wire) in cases {
            assert_eq!(event.to_json(), wire);
        }
    }

    #[test]
    fn foreach_kinds_have_stable_wire_forms() {
        let cases = [
            (
                ev(
                    0.0,
                    TraceKind::ForeachStarted {
                        activity: "map".into(),
                        items: 5,
                        pending: 3,
                    },
                ),
                r#"{"at":0,"kind":"foreach_start","activity":"map","items":5,"pending":3}"#,
            ),
            (
                ev(
                    7.5,
                    TraceKind::ItemSettled {
                        activity: "map".into(),
                        item: 2,
                        outcome: "done".into(),
                        attempts: 1,
                    },
                ),
                r#"{"at":7.5,"kind":"item_settle","activity":"map","item":2,"outcome":"done","attempts":1}"#,
            ),
            (
                ev(
                    9.0,
                    TraceKind::ItemDeadLettered {
                        activity: "map".into(),
                        item: 4,
                        attempts: 3,
                        reason: "crashed".into(),
                    },
                ),
                r#"{"at":9,"kind":"item_dlq","activity":"map","item":4,"attempts":3,"reason":"crashed"}"#,
            ),
            (
                ev(
                    4.25,
                    TraceKind::ItemFailover {
                        activity: "map".into(),
                        item: 1,
                        program: "backup".into(),
                    },
                ),
                r#"{"at":4.25,"kind":"item_failover","activity":"map","item":1,"program":"backup"}"#,
            ),
            (
                ev(
                    0.0,
                    TraceKind::ItemReprocessed {
                        activity: "map".into(),
                        item: 4,
                    },
                ),
                r#"{"at":0,"kind":"item_reprocess","activity":"map","item":4}"#,
            ),
        ];
        for (event, wire) in cases {
            assert_eq!(event.to_json(), wire);
        }
    }

    #[test]
    fn scheduler_kinds_have_stable_wire_forms() {
        let cases = [
            (
                ev(
                    2.5,
                    TraceKind::PlacementScored {
                        activity: "a".into(),
                        slot: 0,
                        attempt: 2,
                        host: "h2".into(),
                        score: 0.75,
                        steered: true,
                    },
                ),
                r#"{"at":2.5,"kind":"placement_scored","activity":"a","slot":0,"attempt":2,"host":"h2","score":0.75,"steered":true}"#,
            ),
            (
                ev(
                    8.0,
                    TraceKind::Rereplicate {
                        activity: "a".into(),
                        slot: 1,
                        from: "h1".into(),
                        to: "h3".into(),
                        phi: 2.5,
                    },
                ),
                r#"{"at":8,"kind":"rereplicate","activity":"a","slot":1,"from":"h1","to":"h3","phi":2.5}"#,
            ),
            (
                ev(
                    10.0,
                    TraceKind::CkptIntervalAdapted {
                        host: "h1".into(),
                        interval: 7.75,
                        mttf: 30.0,
                    },
                ),
                r#"{"at":10,"kind":"ckpt_interval_adapted","host":"h1","interval":7.75,"mttf":30}"#,
            ),
        ];
        for (event, wire) in cases {
            assert_eq!(event.to_json(), wire);
        }
    }

    #[test]
    fn sinks_survive_a_poisoned_buffer() {
        let ring = Arc::new(RingSink::new(4));
        let r2 = Arc::clone(&ring);
        let _ = std::thread::spawn(move || {
            let _g = r2.buf.lock().unwrap();
            panic!("poison the ring");
        })
        .join();
        ring.record(&ev(1.0, TraceKind::JobRecovered { job: 1 }));
        assert_eq!(ring.len(), 1, "poisoned ring still records");
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let events = vec![
            ev(
                0.0,
                TraceKind::JobAdmitted {
                    job: 1,
                    name: "n".into(),
                },
            ),
            ev(
                5.0,
                TraceKind::JobSettled {
                    job: 1,
                    state: "done".into(),
                    detail: "Success".into(),
                },
            ),
        ];
        let doc = to_jsonl(&events);
        assert_eq!(doc.lines().count(), 2);
        assert!(doc.ends_with('\n'));
    }

    #[test]
    fn ring_sink_evicts_oldest() {
        let ring = RingSink::new(2);
        for i in 0..5u64 {
            ring.record(&ev(i as f64, TraceKind::JobRecovered { job: i }));
        }
        let kept: Vec<f64> = ring.events().iter().map(|e| e.at).collect();
        assert_eq!(kept, vec![3.0, 4.0]);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn jsonl_sink_roundtrip_and_append() {
        let dir = std::env::temp_dir().join(format!("gridwfs-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let e1 = ev(1.0, TraceKind::JobRecovered { job: 1 });
        let e2 = ev(2.0, TraceKind::JobRecovered { job: 2 });
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(&e1);
            sink.flush();
            assert!(sink.error().is_none());
        }
        {
            let sink = JsonlSink::append(&path).unwrap();
            sink.record(&e2);
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, to_jsonl(&[e1, e2]), "append continues the journal");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fanout_duplicates_and_propagates_errors() {
        let a = Arc::new(VecSink::new());
        let b = Arc::new(RingSink::new(8));
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        fan.record(&ev(0.5, TraceKind::EngineCheckpoint { ok: true }));
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.len(), 1);
        assert!(fan.error().is_none());
    }

    #[test]
    fn sinks_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RingSink>();
        assert_send_sync::<VecSink>();
        assert_send_sync::<JsonlSink>();
        assert_send_sync::<FanoutSink>();
        let sink: Arc<dyn TraceSink> = Arc::new(VecSink::new());
        let s2 = sink.clone();
        std::thread::spawn(move || {
            s2.record(&TraceEvent {
                at: 0.0,
                kind: TraceKind::EngineCheckpoint { ok: false },
            });
        })
        .join()
        .unwrap();
    }
}

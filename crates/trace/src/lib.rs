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
//! Each kind's fields are listed once, in the `trace_kinds!` declaration
//! of [`TraceKind`]: its wire tag and fields in wire order.  One walk over
//! those `(name, value)` pairs renders both the JSON line
//! ([`TraceEvent::to_json`]) and the readable line ([`TraceKind::line`])
//! that the engine's report log shows.
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
use std::fmt::Write as _;
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

/// Declares [`TraceKind`] once: each kind's wire tag and its fields in
/// wire order.  The enum, [`TraceKind::tag`] and the field walk that both
/// renderings ([`TraceEvent::to_json`], [`TraceKind::line`]) are built on
/// all come from that one list, so the two can never disagree.
macro_rules! trace_kinds {
    (
        $(#[$doc:meta])*
        pub enum TraceKind {
            $(
                $(#[$kind_doc:meta])*
                $kind:ident = $tag:literal {
                    $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq)]
        pub enum TraceKind {
            $(
                $(#[$kind_doc])*
                $kind { $( $(#[$field_doc])* $field: $ty, )* },
            )*
        }

        impl TraceKind {
            /// Stable wire tag for the `kind` JSON field.
            pub fn tag(&self) -> &'static str {
                match self {
                    $( TraceKind::$kind { .. } => $tag, )*
                }
            }

            /// Visits the kind's fields as `(name, value)` pairs, in wire
            /// order.
            fn walk(&self, mut visit: impl FnMut(&'static str, &dyn Field)) {
                match self {
                    $( TraceKind::$kind { $($field),* } => {
                        $( visit(stringify!($field), $field); )*
                    } )*
                }
            }
        }
    };
}

trace_kinds! {
    /// One recovery-relevant decision.  Engine-level kinds carry executor-clock
    /// context in the enclosing [`TraceEvent::at`]; serve-level job events use
    /// deterministic anchors (0.0 at admission, the report's `finished_at` at
    /// settlement) so per-job journals are reproducible.
    pub enum TraceKind {
        /// An activity changed navigation state (`running`, `done`, `failed`,
        /// `exception:<name>`, `skipped`).
        NodeState = "node_state" {
            /// Activity name.
            activity: String,
            /// New state string.
            state: String,
        },
        /// A do-while loop re-queued its activity for another iteration.
        LoopIteration = "loop_iteration" {
            /// Activity name.
            activity: String,
            /// 1-based iteration about to run.
            iteration: u32,
        },
        /// A task attempt was handed to the executor.
        TaskSubmitted = "task_submit" {
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
        TaskSettled = "task_settle" {
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
        RetryScheduled = "retry_scheduled" {
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
        RecoveryExhausted = "recovery_exhausted" {
            /// Activity whose masking failed.
            activity: String,
        },
        /// An alternative task is starting because its predecessor failed
        /// (an `on="failed"` edge fired — paper Figure 4).
        AlternativeTask = "alternative_task" {
            /// Failed predecessor.
            from: String,
            /// Alternative now starting.
            to: String,
        },
        /// An exception handler is starting (`on="exception:<name>"` edge
        /// fired — paper Figure 6).
        HandlerFired = "handler_fired" {
            /// Activity that raised.
            from: String,
            /// Handler now starting.
            to: String,
            /// Exception name the edge matched.
            exception: String,
        },
        /// A task recorded a checkpoint flag; the engine stores it and hands
        /// it back on the slot's next attempt (§4.3 round-trip).
        CheckpointFlag = "checkpoint_flag" {
            /// Owning activity.
            activity: String,
            /// Engine task id.
            task: u64,
            /// Opaque recovery cookie.
            flag: String,
        },
        /// The engine persisted (or failed to persist) its navigation
        /// checkpoint after a settlement.
        EngineCheckpoint = "engine_checkpoint" {
            /// Whether the write succeeded.
            ok: bool,
        },
        /// A heartbeat watch was re-registered for a task the monitor already
        /// knew — recorded because silently reviving a presumed-dead attempt
        /// is exactly the bug this journal exists to catch.
        WatchReplaced = "watch_replaced" {
            /// Engine task id.
            task: u64,
            /// Prior liveness: `true` if the replaced watch had already
            /// presumed the task dead.
            was_presumed_dead: bool,
        },
        /// Navigation aborted before a natural terminal state
        /// (`stop` / `deadline` / `max_settlements`).
        EngineAborted = "engine_aborted" {
            /// Abort reason.
            reason: String,
        },
        /// The engine declared an activity stalled (no notifications, no
        /// timers, nothing can make progress).
        EngineStalled = "engine_stalled" {
            /// Stalled activity.
            activity: String,
        },
        /// serve: a submission was admitted.
        JobAdmitted = "job_admit" {
            /// Job id.
            job: u64,
            /// Client label.
            name: String,
        },
        /// serve: a submission was rejected at the door.
        JobRejected = "job_reject" {
            /// Client label.
            name: String,
            /// `queue-full`, `shutting-down`, `io`, `id-collision` or
            /// `bad-grid` (a Grid `GridSpec::validate` refuses, which the
            /// job's meta record could not store).
            reason: String,
        },
        /// serve: a recovered job was re-admitted by a later service
        /// incarnation's state-dir scan.
        JobRecovered = "job_recovered" {
            /// Job id.
            job: u64,
        },
        /// serve: a worker started (an incarnation of) a job.
        JobStarted = "job_start" {
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
        JobAborted = "job_abort" {
            /// Job id.
            job: u64,
            /// Abort reason.
            reason: String,
        },
        /// serve: a job reached a terminal state.
        JobSettled = "job_settle" {
            /// Job id.
            job: u64,
            /// Terminal state (`done` / `failed` / `cancelled`).
            state: String,
            /// Human detail (outcome, error, `deadline exceeded`, ...).
            detail: String,
        },
        /// serve: the job's workflow closure panicked inside a worker; the
        /// worker caught the unwind, failed the job, and survived.
        JobPanicked = "job_panicked" {
            /// Job id.
            job: u64,
            /// Panic payload (message), best-effort stringified.
            detail: String,
        },
        /// serve (federated): the owning replica renewed the job's lease on a
        /// heartbeat tick.
        LeaseRenewed = "lease_renew" {
            /// Job id.
            job: u64,
            /// Lease epoch at renewal (unchanged by a renewal).
            epoch: u64,
        },
        /// serve (federated): a takeover scanner observed an expired lease on
        /// a job it does not own.
        LeaseExpired = "lease_expire" {
            /// Job id.
            job: u64,
            /// The expired lease's epoch.
            epoch: u64,
        },
        /// serve (federated): a replica claimed an expired (or absent) lease,
        /// bumping the epoch, and re-admitted the job locally.
        LeaseTakeover = "lease_takeover" {
            /// Job id.
            job: u64,
            /// The new lease epoch after the claim.
            epoch: u64,
        },
        /// serve (federated): a batch of job-record writes was rejected by the
        /// storage layer because the writer no longer holds the job's lease —
        /// the zombie-fencing event.
        WriteFenced = "write_fenced" {
            /// Job id.
            job: u64,
            /// The stale epoch the writer held.
            epoch: u64,
        },
        /// engine: the per-host circuit breaker opened after consecutive
        /// failures; no new attempts target the host until `until`.
        BreakerOpen = "breaker_open" {
            /// Host whose breaker opened.
            host: String,
            /// Executor time at which the breaker allows a half-open probe.
            until: f64,
        },
        /// engine: a submission to a host with an open breaker went ahead as a
        /// half-open probe (backoff elapsed, or every candidate host was open).
        BreakerProbe = "breaker_probe" {
            /// Host being probed.
            host: String,
        },
        /// engine: a success on a probed host closed its breaker.
        BreakerClosed = "breaker_closed" {
            /// Host whose breaker closed.
            host: String,
        },
        /// engine: the failure detector presumed an attempt crashed from
        /// heartbeat silence.  Distinct from the `task_settle` that follows:
        /// this event records what the detector *knew* — the silence and (for
        /// φ-accrual) the suspicion level — so false suspicions can be audited
        /// against it.
        SuspicionRaised = "suspicion_raised" {
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
        ZombieCompletion = "zombie_completion" {
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
        OrphanCancelled = "orphan_cancelled" {
            /// Owning activity.
            activity: String,
            /// Engine task id the cancel targets.
            task: u64,
        },
        /// engine: a heartbeat arrived from an attempt already presumed dead —
        /// evidence the suspicion was false (the attempt stays dead).
        LateHeartbeat = "late_heartbeat" {
            /// Owning activity.
            activity: String,
            /// Engine task id.
            task: u64,
            /// Heartbeat sequence number.
            seq: u64,
        },
        /// engine: a `foreach` activity started fanning out over its item set.
        ForeachStarted = "foreach_start" {
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
        ItemSettled = "item_settle" {
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
        ItemDeadLettered = "item_dlq" {
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
        ItemFailover = "item_failover" {
            /// Owning activity.
            activity: String,
            /// 0-based item index.
            item: usize,
            /// Failover program now implementing the item.
            program: String,
        },
        /// engine: a previously dead-lettered item is being re-run after a
        /// `dlq retry` reset its state in the checkpoint.
        ItemReprocessed = "item_reprocess" {
            /// Owning activity.
            activity: String,
            /// 0-based item index.
            item: usize,
        },
        /// engine: the resilience-aware scheduler scored the candidate hosts
        /// and picked one.  `steered` is true when the choice differs from
        /// the oblivious cycling base — the evidence changed the placement.
        PlacementScored = "placement_scored" {
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
        Rereplicate = "rereplicate" {
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
        CkptIntervalAdapted = "ckpt_interval_adapted" {
            /// Host the interval applies to.
            host: String,
            /// New checkpoint interval (nominal task seconds).
            interval: f64,
            /// Observed MTTF the interval was derived from.
            mttf: f64,
        },
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
    let mut rest = s;
    // Every byte that needs escaping is ASCII, so the clean runs between
    // them are copied whole and `i + 1` stays on a char boundary.
    while let Some(i) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// A field value, written the same way by both renderings: strings as
/// escaped JSON literals, numbers and booleans in Rust's `Display`
/// (shortest round-trip for floats — deterministic, which is what the
/// journal needs), `None` as `null`.
trait Field {
    fn write(&self, out: &mut String);
}

impl Field for String {
    fn write(&self, out: &mut String) {
        push_escaped(out, self);
    }
}

impl Field for TaskOutcome {
    fn write(&self, out: &mut String) {
        push_escaped(out, self.as_str());
    }
}

impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
}

macro_rules! display_fields {
    ($($ty:ty),*) => {
        $( impl Field for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        } )*
    };
}
display_fields!(u32, u64, usize, f64, bool);

impl TraceKind {
    /// The kind as one readable line: its tag, then `name=value` for each
    /// field in wire order, values written as in the JSON — e.g.
    /// `task_submit activity="a" slot=0 attempt=1 task=7 host="h1" resume=null`.
    pub fn line(&self) -> String {
        let mut o = String::with_capacity(96);
        o.push_str(self.tag());
        self.walk(|name, value| {
            o.push(' ');
            o.push_str(name);
            o.push('=');
            value.write(&mut o);
        });
        o
    }
}

impl TraceEvent {
    /// Renders the event as one deterministic JSON object (no trailing
    /// newline).  Field order is fixed: `at`, `kind`, then kind-specific
    /// fields in declaration order.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(96);
        o.push_str("{\"at\":");
        self.at.write(&mut o);
        o.push_str(",\"kind\":\"");
        o.push_str(self.kind.tag());
        o.push('"');
        self.kind.walk(|name, value| {
            o.push_str(",\"");
            o.push_str(name);
            o.push_str("\":");
            value.write(&mut o);
        });
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

    /// A sample event and its wire line, rendered by the hand-written
    /// encoder that preceded the field walk: the walk must reproduce every
    /// line byte for byte.
    type Golden = (f64, TraceKind, &'static str);

    fn s(v: &str) -> String {
        v.to_string()
    }

    /// Navigation, task, engine and job lifecycle kinds.
    fn core_golden() -> Vec<Golden> {
        use TraceKind as K;
        vec![
            (
                0.5,
                K::NodeState {
                    activity: s("a"),
                    state: s("exception:oom"),
                },
                r#"{"at":0.5,"kind":"node_state","activity":"a","state":"exception:oom"}"#,
            ),
            (
                3.0,
                K::LoopIteration {
                    activity: s("refine"),
                    iteration: 2,
                },
                r#"{"at":3,"kind":"loop_iteration","activity":"refine","iteration":2}"#,
            ),
            (
                1.5,
                K::TaskSubmitted {
                    activity: s("a"),
                    slot: 0,
                    attempt: 1,
                    task: 7,
                    host: s("h1"),
                    resume: None,
                },
                r#"{"at":1.5,"kind":"task_submit","activity":"a","slot":0,"attempt":1,"task":7,"host":"h1","resume":null}"#,
            ),
            (
                2.0,
                K::TaskSubmitted {
                    activity: s("a"),
                    slot: 1,
                    attempt: 3,
                    task: 9,
                    host: s("h"),
                    resume: Some(s("ckpt-4")),
                },
                r#"{"at":2,"kind":"task_submit","activity":"a","slot":1,"attempt":3,"task":9,"host":"h","resume":"ckpt-4"}"#,
            ),
            (
                3.25,
                K::TaskSettled {
                    activity: s("x"),
                    task: 2,
                    outcome: TaskOutcome::Crashed,
                    reason: s("heartbeat-loss"),
                },
                r#"{"at":3.25,"kind":"task_settle","activity":"x","task":2,"outcome":"crashed","reason":"heartbeat-loss"}"#,
            ),
            (
                4.0,
                K::RetryScheduled {
                    activity: s("a"),
                    slot: 0,
                    attempt: 2,
                    fire_at: 14.125,
                },
                r#"{"at":4,"kind":"retry_scheduled","activity":"a","slot":0,"attempt":2,"fire_at":14.125}"#,
            ),
            (
                9.0,
                K::RecoveryExhausted { activity: s("a") },
                r#"{"at":9,"kind":"recovery_exhausted","activity":"a"}"#,
            ),
            (
                9.0,
                K::AlternativeTask {
                    from: s("a"),
                    to: s("b"),
                },
                r#"{"at":9,"kind":"alternative_task","from":"a","to":"b"}"#,
            ),
            (
                9.5,
                K::HandlerFired {
                    from: s("a"),
                    to: s("fix"),
                    exception: s("oom"),
                },
                r#"{"at":9.5,"kind":"handler_fired","from":"a","to":"fix","exception":"oom"}"#,
            ),
            (
                2.5,
                K::CheckpointFlag {
                    activity: s("a"),
                    task: 3,
                    flag: s("ckpt:10"),
                },
                r#"{"at":2.5,"kind":"checkpoint_flag","activity":"a","task":3,"flag":"ckpt:10"}"#,
            ),
            (
                2.5,
                K::EngineCheckpoint { ok: false },
                r#"{"at":2.5,"kind":"engine_checkpoint","ok":false}"#,
            ),
            (
                1.0,
                K::WatchReplaced {
                    task: 4,
                    was_presumed_dead: true,
                },
                r#"{"at":1,"kind":"watch_replaced","task":4,"was_presumed_dead":true}"#,
            ),
            (
                0.0,
                K::EngineAborted {
                    reason: s("line\nbreak \"quoted\" \\slash\u{1}"),
                },
                r#"{"at":0,"kind":"engine_aborted","reason":"line\nbreak \"quoted\" \\slash\u0001"}"#,
            ),
            (
                12.0,
                K::EngineStalled { activity: s("a") },
                r#"{"at":12,"kind":"engine_stalled","activity":"a"}"#,
            ),
            (
                0.0,
                K::JobAdmitted {
                    job: 1,
                    name: s("n"),
                },
                r#"{"at":0,"kind":"job_admit","job":1,"name":"n"}"#,
            ),
            (
                0.0,
                K::JobRejected {
                    name: s("n"),
                    reason: s("queue-full"),
                },
                r#"{"at":0,"kind":"job_reject","name":"n","reason":"queue-full"}"#,
            ),
            (
                0.0,
                K::JobRecovered { job: 2 },
                r#"{"at":0,"kind":"job_recovered","job":2}"#,
            ),
            (
                0.0,
                K::JobStarted {
                    job: 2,
                    incarnation: 1,
                    seed: 2003,
                },
                r#"{"at":0,"kind":"job_start","job":2,"incarnation":1,"seed":2003}"#,
            ),
            (
                6.5,
                K::JobAborted {
                    job: 2,
                    reason: s("stop"),
                },
                r#"{"at":6.5,"kind":"job_abort","job":2,"reason":"stop"}"#,
            ),
            (
                5.0,
                K::JobSettled {
                    job: 1,
                    state: s("done"),
                    detail: s("Success"),
                },
                r#"{"at":5,"kind":"job_settle","job":1,"state":"done","detail":"Success"}"#,
            ),
        ]
    }

    /// Federated lease kinds.
    fn lease_golden() -> Vec<Golden> {
        use TraceKind as K;
        vec![
            (
                0.0,
                K::LeaseRenewed { job: 4, epoch: 2 },
                r#"{"at":0,"kind":"lease_renew","job":4,"epoch":2}"#,
            ),
            (
                0.0,
                K::LeaseExpired { job: 4, epoch: 2 },
                r#"{"at":0,"kind":"lease_expire","job":4,"epoch":2}"#,
            ),
            (
                0.0,
                K::LeaseTakeover { job: 4, epoch: 3 },
                r#"{"at":0,"kind":"lease_takeover","job":4,"epoch":3}"#,
            ),
            (
                0.0,
                K::WriteFenced { job: 4, epoch: 2 },
                r#"{"at":0,"kind":"write_fenced","job":4,"epoch":2}"#,
            ),
        ]
    }

    /// Worker-panic and circuit-breaker kinds.
    fn chaos_and_breaker_golden() -> Vec<Golden> {
        use TraceKind as K;
        vec![
            (
                0.0,
                K::JobPanicked {
                    job: 3,
                    detail: s("boom"),
                },
                r#"{"at":0,"kind":"job_panicked","job":3,"detail":"boom"}"#,
            ),
            (
                12.5,
                K::BreakerOpen {
                    host: s("h1"),
                    until: 19.25,
                },
                r#"{"at":12.5,"kind":"breaker_open","host":"h1","until":19.25}"#,
            ),
            (
                19.25,
                K::BreakerProbe { host: s("h1") },
                r#"{"at":19.25,"kind":"breaker_probe","host":"h1"}"#,
            ),
            (
                20.0,
                K::BreakerClosed { host: s("h1") },
                r#"{"at":20,"kind":"breaker_closed","host":"h1"}"#,
            ),
        ]
    }

    /// Failure-detector kinds.
    fn detection_golden() -> Vec<Golden> {
        use TraceKind as K;
        vec![
            (
                4.0,
                K::SuspicionRaised {
                    activity: s("a"),
                    task: 3,
                    silence: 3.5,
                    phi: Some(8.25),
                },
                r#"{"at":4,"kind":"suspicion_raised","activity":"a","task":3,"silence":3.5,"phi":8.25}"#,
            ),
            (
                4.0,
                K::SuspicionRaised {
                    activity: s("a"),
                    task: 3,
                    silence: 3.5,
                    phi: None,
                },
                r#"{"at":4,"kind":"suspicion_raised","activity":"a","task":3,"silence":3.5,"phi":null}"#,
            ),
            (
                9.5,
                K::ZombieCompletion {
                    activity: s("a"),
                    task: 3,
                    body: s("done"),
                },
                r#"{"at":9.5,"kind":"zombie_completion","activity":"a","task":3,"body":"done"}"#,
            ),
            (
                4.25,
                K::OrphanCancelled {
                    activity: s("a"),
                    task: 3,
                },
                r#"{"at":4.25,"kind":"orphan_cancelled","activity":"a","task":3}"#,
            ),
            (
                5.0,
                K::LateHeartbeat {
                    activity: s("a"),
                    task: 3,
                    seq: 7,
                },
                r#"{"at":5,"kind":"late_heartbeat","activity":"a","task":3,"seq":7}"#,
            ),
        ]
    }

    /// Fan-out kinds.
    fn foreach_golden() -> Vec<Golden> {
        use TraceKind as K;
        vec![
            (
                0.0,
                K::ForeachStarted {
                    activity: s("map"),
                    items: 5,
                    pending: 3,
                },
                r#"{"at":0,"kind":"foreach_start","activity":"map","items":5,"pending":3}"#,
            ),
            (
                7.5,
                K::ItemSettled {
                    activity: s("map"),
                    item: 2,
                    outcome: s("done"),
                    attempts: 1,
                },
                r#"{"at":7.5,"kind":"item_settle","activity":"map","item":2,"outcome":"done","attempts":1}"#,
            ),
            (
                9.0,
                K::ItemDeadLettered {
                    activity: s("map"),
                    item: 4,
                    attempts: 3,
                    reason: s("crashed"),
                },
                r#"{"at":9,"kind":"item_dlq","activity":"map","item":4,"attempts":3,"reason":"crashed"}"#,
            ),
            (
                4.25,
                K::ItemFailover {
                    activity: s("map"),
                    item: 1,
                    program: s("backup"),
                },
                r#"{"at":4.25,"kind":"item_failover","activity":"map","item":1,"program":"backup"}"#,
            ),
            (
                0.0,
                K::ItemReprocessed {
                    activity: s("map"),
                    item: 4,
                },
                r#"{"at":0,"kind":"item_reprocess","activity":"map","item":4}"#,
            ),
        ]
    }

    /// Resilience-aware scheduler kinds.
    fn scheduler_golden() -> Vec<Golden> {
        use TraceKind as K;
        vec![
            (
                2.5,
                K::PlacementScored {
                    activity: s("a"),
                    slot: 0,
                    attempt: 2,
                    host: s("h2"),
                    score: 0.75,
                    steered: true,
                },
                r#"{"at":2.5,"kind":"placement_scored","activity":"a","slot":0,"attempt":2,"host":"h2","score":0.75,"steered":true}"#,
            ),
            (
                8.0,
                K::Rereplicate {
                    activity: s("a"),
                    slot: 1,
                    from: s("h1"),
                    to: s("h3"),
                    phi: 2.5,
                },
                r#"{"at":8,"kind":"rereplicate","activity":"a","slot":1,"from":"h1","to":"h3","phi":2.5}"#,
            ),
            (
                10.0,
                K::CkptIntervalAdapted {
                    host: s("h1"),
                    interval: 7.75,
                    mttf: 30.0,
                },
                r#"{"at":10,"kind":"ckpt_interval_adapted","host":"h1","interval":7.75,"mttf":30}"#,
            ),
        ]
    }

    fn assert_golden(rows: Vec<Golden>) {
        for (at, kind, wire) in rows {
            assert_eq!(ev(at, kind).to_json(), wire);
        }
    }

    /// One sample event per kind (two for each optional field).
    #[test]
    fn every_kind_has_a_golden_wire_line() {
        let rows: Vec<Golden> = [
            core_golden(),
            lease_golden(),
            chaos_and_breaker_golden(),
            detection_golden(),
            foreach_golden(),
            scheduler_golden(),
        ]
        .concat();
        let tags: std::collections::BTreeSet<_> = rows.iter().map(|(_, k, _)| k.tag()).collect();
        assert_eq!(tags.len(), 39, "one sample per kind");
        assert_golden(rows);
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
    fn lease_kinds_have_stable_wire_forms() {
        assert_golden(lease_golden());
    }

    #[test]
    fn chaos_and_breaker_kinds_have_stable_wire_forms() {
        assert_golden(chaos_and_breaker_golden());
    }

    #[test]
    fn detection_kinds_have_stable_wire_forms() {
        assert_golden(detection_golden());
    }

    #[test]
    fn foreach_kinds_have_stable_wire_forms() {
        assert_golden(foreach_golden());
    }

    #[test]
    fn scheduler_kinds_have_stable_wire_forms() {
        assert_golden(scheduler_golden());
    }

    #[test]
    fn the_readable_line_walks_the_same_fields() {
        let e = TraceKind::TaskSubmitted {
            activity: "a".into(),
            slot: 0,
            attempt: 1,
            task: 7,
            host: "h1".into(),
            resume: None,
        };
        assert_eq!(
            e.line(),
            r#"task_submit activity="a" slot=0 attempt=1 task=7 host="h1" resume=null"#
        );
        assert_eq!(
            TraceKind::EngineCheckpoint { ok: false }.line(),
            "engine_checkpoint ok=false"
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
        // Multi-byte characters next to escapes are copied whole.
        let mut out = String::new();
        push_escaped(&mut out, "φ\"é\t→\r");
        assert_eq!(out, r#""φ\"é\t→\r""#);
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

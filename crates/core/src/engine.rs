//! The workflow engine: navigation + two-level failure recovery.
//!
//! The engine is the paper's §7 component: it walks the validated parse
//! tree, submits ready tasks through an [`Executor`], classifies their fate
//! with the generic failure [`Detector`], and applies the recovery policy
//! the workflow structure encodes:
//!
//! * **task level** (masking, §4) — retrying with `max_tries`/`interval`
//!   (cycling through the program's resource options), replication across
//!   all options with first-success-wins and cancellation of the losers,
//!   and checkpoint-flag round-tripping so retries resume rather than
//!   restart;
//! * **workflow level** (non-masking, §5) — once the task level has spoken,
//!   one pure decision, `settle_decision`, says what the node does, and the
//!   [`Instance`] edge table says where the settlement leads:
//!   alternative-task edges, OR-join redundancy, user-defined exception
//!   handlers.
//!
//! Task-level recovery is one mechanism, whatever it recovers: a plain
//! activity's try, one replica, and one `<Foreach>` item are all *slots*
//! with the same attempt lifecycle.  One `submit` places an attempt
//! (scorer first, then option cycling that skips open breakers; replicas
//! pinned to their own option) and submits it; a failed attempt is charged
//! to the slot's counter and one pure decision, `recovery`, picks retry
//! after a delay, failover (items only) or exhaustion; one
//! `schedule_retry` arms the timer, tagged with the node's loop iteration
//! so it cannot fire into a later one.
//!
//! A slot's attempt ends `Done` or `Spent` (nothing left to try).  The end
//! is recorded where the slot keeps state — an item settles and is
//! checkpointed — and then `settle_decision` maps the node's slots or items
//! to one verdict:
//!
//! | lanes | after | verdict |
//! |---|---|---|
//! | slots | success | settle `done` |
//! | slots | fatal exception (§5.3) | settle `exception:<n>` at once |
//! | slots | a replica spent, siblings racing | wait |
//! | slots | the last slot spent | settle `failed` / `exception:<n>` |
//! | items | a `stop` item | settle `failed` |
//! | items | `max_failures` / `failure_threshold` breached | settle `failed` |
//! | items | every item terminal (dead letters do not block) | settle `done` |
//! | items | otherwise | launch more items |
//!
//! Only the lookups that know where a slot's counter lives (`spent`,
//! `charge`, `record_end`) and pre-emptive re-replication (plain slots
//! only) tell a fan-out from a plain node; every settlement goes through
//! `settle_node`, a do-while's loop-limit failure included.
//!
//! The engine itself is fault tolerant: after every task termination it can
//! hand the annotated parse tree as XML ([`crate::checkpoint`]) to a
//! [`CheckpointSink`] — [`Engine::with_checkpointing`] installs one that
//! writes a file — and a restarted engine resumes navigation from where it
//! left off.
//!
//! Every decision is recorded once, as a [`TraceEvent`] in the flight
//! journal ([`Report::trace`]).  [`Report::spans`] and [`Report::log`] are
//! views of it, derived when the run finishes: the log is the journal as
//! readable lines, filed by [`LogKind::of`].

use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gridwfs_detect::detector::{CrashReason, Detection, Detector, DetectorPolicy};
use gridwfs_detect::exception::{ExceptionDef, ExceptionRegistry, Severity};
use gridwfs_detect::heartbeat::Liveness;
use gridwfs_detect::notify::TaskId;
use gridwfs_detect::transport::ReorderBuffer;
use gridwfs_trace::{TaskOutcome, TraceEvent, TraceKind, TraceSink};
use gridwfs_wpdl::ast::{Activity, ForeachSpec, ItemAction, Policy, Program, Trigger};
use gridwfs_wpdl::validate::Validated;

use crate::executor::{Executor, Polled, SubmitRequest};
use crate::instance::{
    CompleteResult, EdgeState, Instance, ItemProgress, ItemState, NodeStatus, Outcome,
};
use crate::sched_score::Placement;
use crate::timeline::{Span, SpanOutcome};

/// The category of a journal event, as [`Report::log`] files it (see
/// [`LogKind::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogKind {
    /// An attempt was submitted (`task_submit`, and nothing else).
    Submit,
    /// Failure evidence and what it says about hosts: an attempt's
    /// classification, a suspicion, a zombie or late message, a breaker
    /// transition, a host score or checkpoint interval; a lease event.
    Detect,
    /// Navigation moved: an activity started, settled or was skipped, an
    /// alternative task or handler took over, a fan-out or item settled; a
    /// job was admitted, started or settled.
    Settle,
    /// Task-level recovery acted: a retry, exhaustion, failover, dead
    /// letter, reprocess or re-replication.
    Recovery,
    /// An attempt was cancelled or orphaned; a submission was refused or a
    /// write fenced.
    Cancel,
    /// A checkpoint flag was recorded or the engine checkpoint written.
    Checkpoint,
    /// Navigation stalled or was aborted.
    Stall,
    /// A do-while loop re-queued its activity.
    Loop,
}

impl LogKind {
    /// The category of one journal event: a total table over
    /// [`TraceKind`].
    pub fn of(kind: &TraceKind) -> LogKind {
        use TraceKind as K;
        match kind {
            K::TaskSubmitted { .. } => LogKind::Submit,
            K::TaskSettled {
                outcome: TaskOutcome::Cancelled,
                ..
            }
            | K::OrphanCancelled { .. }
            | K::JobRejected { .. }
            | K::WriteFenced { .. } => LogKind::Cancel,
            K::TaskSettled { .. }
            | K::SuspicionRaised { .. }
            | K::ZombieCompletion { .. }
            | K::LateHeartbeat { .. }
            | K::WatchReplaced { .. }
            | K::BreakerOpen { .. }
            | K::BreakerProbe { .. }
            | K::BreakerClosed { .. }
            | K::PlacementScored { .. }
            | K::CkptIntervalAdapted { .. }
            | K::LeaseRenewed { .. }
            | K::LeaseExpired { .. }
            | K::LeaseTakeover { .. } => LogKind::Detect,
            K::NodeState { .. }
            | K::AlternativeTask { .. }
            | K::HandlerFired { .. }
            | K::ForeachStarted { .. }
            | K::ItemSettled { .. }
            | K::JobAdmitted { .. }
            | K::JobRecovered { .. }
            | K::JobStarted { .. }
            | K::JobSettled { .. } => LogKind::Settle,
            K::RetryScheduled { .. }
            | K::RecoveryExhausted { .. }
            | K::ItemFailover { .. }
            | K::ItemDeadLettered { .. }
            | K::ItemReprocessed { .. }
            | K::Rereplicate { .. } => LogKind::Recovery,
            K::CheckpointFlag { .. } | K::EngineCheckpoint { .. } => LogKind::Checkpoint,
            K::EngineStalled { .. }
            | K::EngineAborted { .. }
            | K::JobAborted { .. }
            | K::JobPanicked { .. } => LogKind::Stall,
            K::LoopIteration { .. } => LogKind::Loop,
        }
    }
}

/// One entry of [`Report::log`]: a journal event as a readable line.
#[derive(Debug, Clone)]
pub struct LogEntry {
    /// Executor time of the event.
    pub at: f64,
    /// Category.
    pub kind: LogKind,
    /// The event's readable line ([`TraceKind::line`]).
    pub message: String,
}

/// One item of a `<Foreach>` fan-out that exhausted every recovery avenue
/// (retries, then failover) and was parked for offline reprocessing.
#[derive(Debug, Clone, PartialEq)]
pub struct DlqEntry {
    /// The fan-out activity the item belongs to.
    pub activity: String,
    /// Zero-based index into the activity's `<Item>` list.
    pub index: usize,
    /// The item payload, verbatim.
    pub item: String,
    /// Attempts consumed before the item was parked.
    pub attempts: u32,
    /// Terminal classification of the last attempt
    /// (`heartbeat-loss`, `exception:<name>`, ...).
    pub reason: String,
}

/// Result of a completed engine run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Success/failure with diagnostics.
    pub outcome: Outcome,
    /// `Some(reason)` when navigation was aborted before the workflow
    /// reached a natural terminal state: `"stop"` (cooperative
    /// cancellation), `"deadline"` (time budget exhausted) or
    /// `"max_settlements"` (simulated engine crash).  `None` for runs that
    /// terminated on their own.
    pub aborted: Option<String>,
    /// Executor time when navigation finished.
    pub finished_at: f64,
    /// Wall (executor) time from start to finish.
    pub makespan: f64,
    /// Final status of every activity, in topological order.
    pub node_status: Vec<(String, String)>,
    /// The journal as readable lines, one entry per `trace` event.
    /// Derived from `trace`, like `spans`.
    pub log: Vec<LogEntry>,
    /// One span per task attempt (for timeline rendering and accounting).
    /// Derived from `trace` — the flight journal is the single source of
    /// truth for attempt lifetimes.
    pub spans: Vec<Span>,
    /// The flight journal: every recovery-relevant decision, in order.
    pub trace: Vec<TraceEvent>,
    /// Guard-evaluation problems (empty in healthy runs).
    pub eval_errors: Vec<String>,
    /// Dead-lettered `<Foreach>` items, in (topological activity, item
    /// index) order — the host persists these so `dlq retry` can
    /// reprocess exactly the failed slice of the fan-out.
    pub dlq: Vec<DlqEntry>,
}

impl Report {
    /// Convenience: did the workflow succeed?
    pub fn is_success(&self) -> bool {
        self.outcome == Outcome::Success
    }

    /// Final status string of one activity.
    pub fn status_of(&self, name: &str) -> Option<&str> {
        self.node_status
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.as_str())
    }

    /// Attempts submitted for an activity: its `task_submit` events.
    pub fn submissions_of(&self, name: &str) -> usize {
        self.trace
            .iter()
            .filter(|e| matches!(&e.kind, TraceKind::TaskSubmitted { activity, .. } if activity == name))
            .count()
    }

    /// Attempts the engine cancelled (losing replicas etc.).
    pub fn cancellations(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| s.outcome == SpanOutcome::Cancelled)
            .count()
    }

    /// Renders the execution as an ASCII timeline (see [`crate::timeline`]).
    pub fn timeline(&self, width: usize) -> String {
        crate::timeline::render(self, width)
    }

    /// The flight journal rendered as JSONL (one event per line).  For a
    /// fixed workflow and seed this string is byte-identical across runs
    /// and thread counts — the determinism oracle.
    pub fn trace_jsonl(&self) -> String {
        gridwfs_trace::to_jsonl(&self.trace)
    }

    /// Busy time per host, derived from the attempt spans (sorted by
    /// hostname).  Redundancy strategies buy latency with exactly this
    /// extra CPU consumption — the §5.2 trade-off, quantified.
    pub fn host_utilization(&self) -> Vec<(String, f64)> {
        let mut busy: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
        for s in &self.spans {
            *busy.entry(s.host.as_str()).or_default() += s.end - s.start;
        }
        busy.into_iter().map(|(h, t)| (h.to_string(), t)).collect()
    }
}

/// Where the engine hands finished checkpoint XML: a file writer
/// ([`Engine::with_checkpointing`]) or a host that owns durability.  The
/// callback runs on the engine's thread at every checkpoint, so a host's
/// must be cheap (the serve worker just replaces a staging cell); an error
/// is journalled as a failed `engine_checkpoint`.
#[derive(Clone)]
pub struct CheckpointSink(Arc<dyn Fn(String) -> std::io::Result<()> + Send + Sync>);

impl CheckpointSink {
    pub fn new(f: impl Fn(String) -> std::io::Result<()> + Send + Sync + 'static) -> Self {
        CheckpointSink(Arc::new(f))
    }

    /// Offer one serialized checkpoint to the host.
    pub fn save(&self, xml: String) -> std::io::Result<()> {
        (self.0)(xml)
    }
}

impl fmt::Debug for CheckpointSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CheckpointSink(..)")
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hand an engine checkpoint to this sink after every task
    /// termination (paper §7's engine fault tolerance).
    /// [`Engine::with_checkpointing`] installs one that writes a file
    /// atomically; the serve worker's stages the XML into the scheduler's
    /// group-committed state batch, so checkpoint durability costs one
    /// shared fsync per tick instead of a private tmp→rename→fsync per
    /// settlement.
    pub checkpoint_sink: Option<CheckpointSink>,
    /// Safety cap on do-while iterations per activity.
    pub max_loop_iterations: u32,
    /// Hold notifications this long and deliver them in send order —
    /// protects the `Done`-without-`Task End` crash rule from transport
    /// reordering (see [`gridwfs_detect::transport`]).  `None` = deliver
    /// immediately (the prototype's behaviour).
    pub reorder_settle: Option<f64>,
    /// Extension: when an OR-join becomes ready, cancel still-running
    /// sibling branches whose only remaining consumer is that join — the
    /// Figure 5 redundancy then stops paying for the slow branch the
    /// moment the fast one wins.  The paper's prototype (and the default)
    /// lets redundant branches run to completion.
    pub cancel_redundant: bool,
    /// Abort navigation after this many activity settlements (testing
    /// hook: simulates the engine host dying mid-run, so the §7 restart
    /// path can be exercised at arbitrary cut points).  In-flight attempts
    /// are abandoned exactly as a crashed engine would abandon them.
    pub max_settlements: Option<u64>,
    /// Cooperative cancellation: a service hosting this engine sets the
    /// flag and the run loop aborts at its next iteration, cancelling
    /// live attempts.  Node statuses are left as-is, so a checkpointed
    /// engine can be resumed later (the service shutdown/cancel path).
    pub stop: Option<Arc<AtomicBool>>,
    /// Executor-clock budget from run start: once `now() - start` reaches
    /// this, the run aborts with reason `"deadline"`.  Virtual seconds for
    /// the simulated Grid, wall seconds for the thread executor.
    pub deadline: Option<f64>,
    /// Per-host circuit breaker (see [`crate::breaker`]): consecutive
    /// failures open a host's breaker and simple-policy option cycling
    /// skips it until a decorrelated-jitter backoff elapses and a
    /// half-open probe succeeds.  `None` (the default) disables breakers
    /// entirely and leaves existing traces byte-identical.
    pub breaker: Option<crate::breaker::BreakerConfig>,
    /// Crash-presumption policy (see [`gridwfs_detect::detector::DetectorPolicy`]):
    /// the classic fixed timeout (`interval × tolerance`, the default — keeps
    /// existing traces byte-identical) or adaptive φ-accrual suspicion that
    /// learns the observed heartbeat inter-arrival distribution and resists
    /// false presumptions under jittery, lossy links.
    pub detector: DetectorPolicy,
    /// Placement policy (see [`crate::sched_score`]): `Oblivious` (the
    /// default — blind option cycling plus breaker-skip, byte-identical
    /// journals to engines built before the scorer existed) or
    /// `Resilient`, which scores every candidate host from live failure
    /// evidence, steers retries away from suspected hosts, decorrelates
    /// replica placement, pre-emptively re-replicates when φ rises, and
    /// adapts per-host checkpoint intervals to observed MTTF.
    pub scheduler: crate::sched_score::SchedulerPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            checkpoint_sink: None,
            max_loop_iterations: 10_000,
            reorder_settle: None,
            cancel_redundant: false,
            max_settlements: None,
            stop: None,
            deadline: None,
            breaker: None,
            detector: DetectorPolicy::default(),
            scheduler: crate::sched_score::SchedulerPolicy::default(),
        }
    }
}

/// What one non-blocking [`Engine::step`] accomplished.
#[derive(Debug)]
pub enum StepOutcome {
    /// The engine did work (delivered a notification, fired timers, swept
    /// the detector, or launched tasks): step again soon.
    Progressed,
    /// Nothing is deliverable yet.  `wake_at` is the executor-clock instant
    /// by which the engine wants to be stepped again (its next timer /
    /// detector / deadline edge), and is only reported when that instant
    /// is a *safe* park bound — no in-flight completion can arrive
    /// earlier.  `None` means "poll again soon": the engine is waiting on
    /// in-flight work that may deliver at any moment.
    Idle {
        /// Executor-clock re-step deadline, if one exists.
        wake_at: Option<f64>,
    },
    /// Navigation terminated; the report is final.  The engine must not be
    /// stepped again.
    Finished(Box<Report>),
}

/// Per-run navigation state, created lazily on the first step so that
/// `started_at` (and hence the deadline clamp) matches what `run()` always
/// measured: the executor clock at entry.
#[derive(Debug)]
struct RunState {
    started_at: f64,
    deadline_abs: Option<f64>,
    reorder: Option<ReorderBuffer>,
    done: bool,
}

/// One attempt lane of a running node: a plain activity's single slot, one
/// replica, or one `<Foreach>` item.  Every kind goes through the same
/// lifecycle — submit, settle, and on failure retry or exhaust — and differs
/// only in where its attempt counter lives (see [`Engine::spent`]).
#[derive(Debug, Default)]
struct Slot {
    /// Failed tries of a plain slot or replica.  Items count attempts in
    /// their durable [`crate::instance::ItemProgress`] instead.
    tries_used: u32,
    live: Option<TaskId>,
    exhausted: bool,
    ckpt_flag: Option<String>,
    /// A retry timer is pending for this slot.  For a `<Foreach>` item it
    /// also keeps holding its `max_parallel` token, so the fan-out never
    /// runs more than the bound when the timer fires.
    waiting: bool,
}

#[derive(Debug)]
struct NodeRt {
    slots: Vec<Slot>,
    loop_iterations: u32,
}

/// The option oblivious cycling starts from: a replica's own, otherwise
/// the attempts spent so far modulo the program's option count.
fn cycling_base(policy: Policy, slot: usize, spent: u32, options: usize) -> usize {
    match policy {
        Policy::Replica => slot,
        Policy::Simple => spent as usize % options,
    }
}

/// What task-level recovery does after a failed attempt: the masking step
/// of §4 (the Prodigy flowchart's "attempts left?"), one decision for
/// slots, replicas and fan-out items alike.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Recovery {
    /// Resubmit on the same program after `delay`.
    Retry { delay: f64 },
    /// A fan-out item switches to its failover program on a fresh
    /// `max_attempts` budget.
    Failover,
    /// Nothing is left to try at task level.
    Exhausted,
}

/// The recovery decision for a failed attempt of `act`.  `attempts` is
/// the number spent, this one included; `maskable` is false for fatal
/// exceptions, which retrying the same program cannot mask, so the rest
/// of the budget is forfeited; `failed_over` says a fan-out item already
/// runs its failover program.
///
/// A slot or replica retries while `attempts < max_tries`, waiting
/// `retry_interval × retry_backoff^(attempts-1)`.  An item retries while
/// `attempts < max_attempts` (twice that once failed over) at a constant
/// `retry_interval`, then fails over once if it declares a failover
/// program.
fn recovery(act: &Activity, attempts: u32, maskable: bool, failed_over: bool) -> Recovery {
    let (budget, interval, backoff, can_fail_over) = match &act.foreach {
        None => (act.max_tries, act.retry_interval, act.retry_backoff, false),
        Some(spec) if failed_over => (
            spec.max_attempts.saturating_mul(2),
            spec.retry_interval,
            1.0,
            false,
        ),
        Some(spec) => (
            spec.max_attempts,
            spec.retry_interval,
            1.0,
            spec.failover.is_some(),
        ),
    };
    if maskable && attempts < budget {
        Recovery::Retry {
            delay: interval * backoff.powi(attempts as i32 - 1),
        }
    } else if can_fail_over {
        Recovery::Failover
    } else {
        Recovery::Exhausted
    }
}

/// How a slot's attempt ended, as its node sees it.
#[derive(Debug, Clone, PartialEq)]
enum End {
    /// The attempt completed.
    Done,
    /// Task-level recovery has nothing left for the slot: `fatal` after a
    /// fatal exception; `settle_as` is what a plain node settles as
    /// (`failed`, or `exception:<name>` so a handler edge still catches
    /// it).
    Spent { fatal: bool, settle_as: NodeStatus },
}

/// A running node's attempt lanes, as [`settle_decision`] reads them.
#[derive(Debug)]
enum Lanes<'a> {
    /// A plain activity's slot or its replicas, after one slot's attempt
    /// ended.
    Slots(&'a [Slot], &'a End),
    /// A `<Foreach>` fan-out's items, with its failure caps.
    Items(&'a ForeachSpec, &'a [ItemProgress]),
}

/// What a node does once one of its slots or items ended: the workflow
/// level's node table.
#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    /// Settle the node now with this status.
    Settle(NodeStatus),
    /// Every replica is spent: journal `recovery_exhausted`, then settle.
    Exhausted(NodeStatus),
    /// Other replicas are still racing.
    Wait,
    /// Launch the next pending items.
    Pump,
}

/// The node verdict: the workflow-level table in the module docs, one row
/// per arm.  Dead-lettered items count as failures for the caps but do not
/// block completion; they are reported for offline reprocessing.
fn settle_decision(lanes: Lanes<'_>) -> Verdict {
    match lanes {
        Lanes::Slots(_, End::Done) => Verdict::Settle(NodeStatus::Done),
        Lanes::Slots(slots, End::Spent { fatal, settle_as }) => {
            match (fatal, slots.iter().all(|s| s.exhausted)) {
                (true, _) => Verdict::Settle(settle_as.clone()),
                (false, true) => Verdict::Exhausted(settle_as.clone()),
                (false, false) => Verdict::Wait,
            }
        }
        Lanes::Items(spec, items) => {
            use ItemState::{DeadLettered, Failed, Skipped};
            let total = items.len();
            let failures = items
                .iter()
                .filter(|p| matches!(p.state, DeadLettered | Skipped | Failed))
                .count();
            let stopped = items.iter().any(|p| p.state == Failed);
            let breached = spec.max_failures.is_some_and(|m| failures > m as usize)
                || spec
                    .failure_threshold
                    .is_some_and(|t| failures as f64 / total as f64 > t);
            if stopped || breached {
                Verdict::Settle(NodeStatus::Failed)
            } else if items.iter().all(|p| p.state.is_terminal()) {
                Verdict::Settle(NodeStatus::Done)
            } else {
                Verdict::Pump
            }
        }
    }
}

/// Timer heap key: earliest time first, FIFO within a time.
#[derive(Debug, PartialEq)]
struct TimerKey(f64, u64);

impl Eq for TimerKey {}
impl PartialOrd for TimerKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for the max-heap: smallest time pops first.
        other
            .0
            .total_cmp(&self.0)
            .then_with(|| other.1.cmp(&self.1))
    }
}

/// A pending retry of `slot`.  Keys are unique, so the derived order is
/// the key's.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Timer {
    key: TimerKey,
    activity: String,
    slot: usize,
    /// The node's `loop_iterations` when the retry was scheduled: a timer
    /// left over from a finished do-while iteration is dropped.
    iteration: u32,
}

/// The Grid-WFS workflow engine.
pub struct Engine<X: Executor> {
    executor: X,
    detector: Detector,
    instance: Instance,
    nodes: HashMap<String, NodeRt>,
    attempts: HashMap<TaskId, (String, usize)>,
    attempt_hosts: HashMap<TaskId, String>,
    /// Activity of each attempt presumed dead by the detector — post-mortem
    /// evidence from such an attempt (a zombie completion, a late heartbeat)
    /// is journalled under this name even though the attempt has long been
    /// removed from `attempts`.
    presumed: HashMap<TaskId, String>,
    breakers: Option<crate::breaker::HostBreakers>,
    /// The resilience-aware host scorer (`Some` only under
    /// `SchedulerPolicy::Resilient`; `None` leaves every placement path
    /// byte-identical to the oblivious engine).
    scorer: Option<crate::sched_score::HostScorer>,
    /// Pre-emptive moves consumed per `(activity, slot)` — bounded by
    /// `ScorerConfig::max_rereplications` so a flapping φ cannot thrash.
    rereplications: HashMap<(String, usize), u32>,
    /// Last adaptive checkpoint interval journalled per host (dedup for
    /// `ckpt_interval_adapted` events).
    ckpt_hints: HashMap<String, f64>,
    timers: BinaryHeap<Timer>,
    timer_seq: u64,
    next_task: u64,
    trace: Vec<TraceEvent>,
    sink: Option<Arc<dyn TraceSink>>,
    open_attempts: std::collections::HashSet<TaskId>,
    settlements: u64,
    config: EngineConfig,
    run_state: Option<RunState>,
}

impl<X: Executor> Engine<X> {
    /// Builds an engine for a validated workflow.
    pub fn new(validated: Validated, executor: X) -> Self {
        Self::from_instance(Instance::new(validated), executor)
    }

    /// Builds an engine around an existing instance — the restart path:
    /// [`crate::checkpoint::load`] reconstructs the instance from the saved
    /// parse tree and navigation resumes from where it left off.
    pub fn from_instance(instance: Instance, executor: X) -> Self {
        let mut registry = ExceptionRegistry::new();
        for e in &instance.workflow().exceptions {
            let def = if e.fatal {
                ExceptionDef::fatal(e.name.clone(), e.description.clone())
            } else {
                ExceptionDef::recoverable(e.name.clone(), e.description.clone())
            };
            registry.register(def).expect("validated: unique names");
        }
        Engine {
            executor,
            detector: Detector::with_registry(registry),
            instance,
            nodes: HashMap::new(),
            attempts: HashMap::new(),
            attempt_hosts: HashMap::new(),
            presumed: HashMap::new(),
            breakers: None,
            scorer: None,
            rereplications: HashMap::new(),
            ckpt_hints: HashMap::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            next_task: 1,
            trace: Vec::new(),
            sink: None,
            open_attempts: std::collections::HashSet::new(),
            settlements: 0,
            config: EngineConfig::default(),
            run_state: None,
        }
    }

    /// Sets the configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.breakers = config
            .breaker
            .clone()
            .map(crate::breaker::HostBreakers::new);
        self.detector.set_policy(config.detector.clone());
        self.scorer = match &config.scheduler {
            crate::sched_score::SchedulerPolicy::Resilient(cfg) => {
                Some(crate::sched_score::HostScorer::new(cfg.clone()))
            }
            crate::sched_score::SchedulerPolicy::Oblivious => None,
        };
        self.config = config;
        self
    }

    /// Enables engine checkpointing to the file `path`, replaced atomically
    /// (tmp → fsync → rename) at every checkpoint, as
    /// [`crate::checkpoint::save`] does.  Call it after
    /// [`Self::with_config`], which replaces the whole configuration.
    pub fn with_checkpointing(self, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        self.with_checkpoint_sink(CheckpointSink::new(move |xml| {
            gridwfs_chaos::write_atomic(&gridwfs_chaos::RealFs, &path, xml.as_bytes())
        }))
    }

    /// Enables engine checkpointing through a host-owned sink (see
    /// [`CheckpointSink`]).  Call it after [`Self::with_config`].
    pub fn with_checkpoint_sink(mut self, sink: CheckpointSink) -> Self {
        self.config.checkpoint_sink = Some(sink);
        self
    }

    /// Streams trace events into `sink` as they are recorded, in addition
    /// to the journal returned in [`Report::trace`].  The sink sees events
    /// live (a serve worker tees them into the job's JSONL file and the
    /// metrics deriver); it is deliberately not part of [`EngineConfig`],
    /// which stays `Clone + Debug`.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    fn trace(&mut self, kind: TraceKind) {
        let event = TraceEvent {
            at: self.executor.now(),
            kind,
        };
        if let Some(sink) = &self.sink {
            sink.record(&event);
        }
        self.trace.push(event);
    }

    fn fresh_task(&mut self) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        id
    }

    // ------------------------------------------------------- submission ---

    /// Launches every ready activity; dummies complete instantly, which can
    /// ready further activities, so this loops to a fixpoint.
    fn launch_ready(&mut self) {
        loop {
            let ready = self.instance.ready_nodes();
            if ready.is_empty() {
                return;
            }
            for name in ready {
                let act = self.instance.workflow().activity(&name);
                if act.expect("ready node exists").is_dummy() {
                    self.instance.mark_running(&name);
                    self.trace_launch(&name);
                    self.settle_node(&name, NodeStatus::Done);
                } else {
                    self.start_activity(&name);
                }
            }
        }
    }

    /// Launches an activity with one slot per replica (one under the simple
    /// policy) or per `<Foreach>` item.  Items restored from a checkpoint
    /// keep their terminal state (their slots start exhausted); the rest
    /// launch in index order under the `max_parallel` bound.  Routing a
    /// fan-out's launch through [`settle_decision`] makes a fresh start, a
    /// restart and a dead-letter reprocess the same code path — including
    /// the case where the checkpoint already holds a settled item set and
    /// the node must settle without submitting anything.
    fn start_activity(&mut self, name: &str) {
        let act = self
            .instance
            .workflow()
            .activity(name)
            .expect("known activity");
        let slots: Vec<Slot> = match (self.instance.items(name), act.policy) {
            (Some(items), _) => items
                .iter()
                .map(|p| Slot {
                    exhausted: p.state.is_terminal(),
                    ..Slot::default()
                })
                .collect(),
            (None, Policy::Simple) => vec![Slot::default()],
            (None, Policy::Replica) => {
                let program = self
                    .instance
                    .workflow()
                    .program(act.implement.as_deref().expect("non-dummy"))
                    .expect("validated reference");
                program.options.iter().map(|_| Slot::default()).collect()
            }
        };
        let n_slots = slots.len();
        let loop_iterations = self.nodes.get(name).map_or(0, |n| n.loop_iterations);
        self.nodes.insert(
            name.to_string(),
            NodeRt {
                slots,
                loop_iterations,
            },
        );
        self.instance.mark_running(name);
        self.trace_launch(name);
        match self.instance.items(name) {
            Some(items) => {
                let pending = items.iter().filter(|p| !p.state.is_terminal()).count();
                self.trace(TraceKind::ForeachStarted {
                    activity: name.to_string(),
                    items: n_slots,
                    pending,
                });
                let items = self.instance.items(name).expect("foreach activity");
                let verdict = settle_decision(Lanes::Items(self.foreach_spec(name), items));
                self.apply(name, verdict);
            }
            None => {
                for slot in 0..n_slots {
                    self.submit(name, slot, None);
                }
            }
        }
    }

    /// Records why an activity is starting: a plain `running` transition,
    /// preceded by an `alternative_task` event for every incoming
    /// `on="failed"` edge that fired (Figure 4's switchover) and a
    /// `handler_fired` event for every fired `on="exception:<name>"` edge
    /// (Figure 6's handler).
    fn trace_launch(&mut self, name: &str) {
        let mut switchovers: Vec<TraceKind> = Vec::new();
        for (i, t) in self.instance.workflow().transitions.iter().enumerate() {
            if t.to != name || self.instance.edge_state(i) != EdgeState::Fired {
                continue;
            }
            match &t.trigger {
                Trigger::Failed => switchovers.push(TraceKind::AlternativeTask {
                    from: t.from.clone(),
                    to: name.to_string(),
                }),
                Trigger::Exception(exc) => switchovers.push(TraceKind::HandlerFired {
                    from: t.from.clone(),
                    to: name.to_string(),
                    exception: exc.clone(),
                }),
                _ => {}
            }
        }
        for kind in switchovers {
            self.trace(kind);
        }
        self.trace(TraceKind::NodeState {
            activity: name.to_string(),
            state: "running".to_string(),
        });
    }

    // ---------------------------------------------- resilient placement ---

    /// Live evidence snapshot per host: the max φ and jitter over attempts
    /// currently watched on each host.  Max-aggregation is
    /// order-independent, so the engine's `HashMap` iteration order cannot
    /// leak into placement.
    fn host_health(&self, now: f64) -> gridwfs_detect::HostHealth {
        let mut health = gridwfs_detect::HostHealth::new();
        for (task, host) in &self.attempt_hosts {
            health.observe(
                host,
                self.detector.phi_level(*task, now),
                self.detector.jitter(*task),
            );
        }
        health
    }

    /// Hosts this node's *other* live slots run on — the exclusion set
    /// that keeps a replica set failure-decorrelated.
    fn sibling_hosts(&self, name: &str, slot: usize) -> Vec<String> {
        let Some(rt) = self.nodes.get(name) else {
            return Vec::new();
        };
        rt.slots
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != slot)
            .filter_map(|(_, s)| s.live)
            .filter_map(|t| self.attempt_hosts.get(&t).cloned())
            .collect()
    }

    /// Scores `program`'s options from live evidence (breaker state, φ,
    /// jitter, windowed failure rate, simulator priors) and asks the
    /// scorer for a placement.  `None` when the scorer is disabled or
    /// abstains because every candidate is blocked, suspect or excluded —
    /// the caller then degrades to oblivious cycling.
    fn scored_option(
        &self,
        program: &gridwfs_wpdl::ast::Program,
        base: usize,
        exclude: &[String],
    ) -> Option<crate::sched_score::Placement> {
        let scorer = self.scorer.as_ref()?;
        let now = self.executor.now();
        let health = self.host_health(now);
        let candidates: Vec<(&str, crate::sched_score::HostEvidence)> = program
            .options
            .iter()
            .map(|o| {
                let host = o.hostname.as_str();
                let sig = health.signal(host);
                (
                    host,
                    crate::sched_score::HostEvidence {
                        blocked: self
                            .breakers
                            .as_ref()
                            .is_some_and(|b| b.is_blocked(host, now)),
                        half_open: self.breakers.as_ref().is_some_and(|b| b.is_half_open(host)),
                        phi: sig.phi,
                        jitter: sig.jitter,
                    },
                )
            })
            .collect();
        let exclude: Vec<&str> = exclude.iter().map(String::as_str).collect();
        scorer.choose_excluding(&candidates, base, program.nominal_duration, &exclude)
    }

    /// The adaptive checkpoint hint for `host` — Young's √(2·C·MTTF) over
    /// the scorer's observed MTTF — journalling `ckpt_interval_adapted`
    /// whenever a host's interval changes.  `None` (keep the executor's
    /// own cadence) under the oblivious scheduler or when no failure
    /// evidence or prior exists for the host.
    fn adapt_checkpoint_hint(&mut self, host: &str) -> Option<f64> {
        let (interval, mttf) = {
            let sc = self.scorer.as_ref()?;
            (
                sc.checkpoint_interval(host)?,
                sc.observed_mttf(host).unwrap_or(0.0),
            )
        };
        if self.ckpt_hints.get(host) != Some(&interval) {
            self.ckpt_hints.insert(host.to_string(), interval);
            self.trace(TraceKind::CkptIntervalAdapted {
                host: host.to_string(),
                interval,
                mttf,
            });
        }
        Some(interval)
    }

    // ---------------------------------------------------------- attempts ---

    /// Attempts `slot` has spent and whether it runs its failover program.
    /// A fan-out item keeps both in its durable
    /// [`crate::instance::ItemProgress`], so option cycling and budgets
    /// survive engine restarts; a plain slot or replica counts its failed
    /// tries in memory and never fails over.
    fn spent(&self, name: &str, slot: usize) -> (u32, bool) {
        match self.instance.items(name) {
            Some(items) => (items[slot].attempts, items[slot].failover),
            None => (self.nodes[name].slots[slot].tries_used, false),
        }
    }

    /// Where an attempt runs when nothing forces the choice.  The resilient
    /// scheduler scores every option from live evidence; replicas also
    /// exclude their live siblings' hosts so the replica set stays
    /// failure-decorrelated.  When the scorer is off or abstains (every
    /// candidate blocked or suspect), replicas stay pinned to their own
    /// option and everything else cycles from `base` ("retrying on
    /// different resources by simply defining multiple Grid resources",
    /// Figure 2 caption), skipping hosts whose breaker is open — unless
    /// every candidate is open, in which case the cycled choice goes ahead
    /// as a forced probe (a breaker degrades placement, it never deadlocks
    /// it).
    fn place(
        &self,
        name: &str,
        slot: usize,
        program: &Program,
        policy: Policy,
        base: usize,
    ) -> (usize, Option<Placement>) {
        if self.scorer.is_some() {
            let exclude = match policy {
                Policy::Replica => self.sibling_hosts(name, slot),
                Policy::Simple => Vec::new(),
            };
            if let Some(p) = self.scored_option(program, base, &exclude) {
                return (p.index, Some(p));
            }
        }
        let index = match (&self.breakers, policy) {
            (Some(br), Policy::Simple) => {
                let now = self.executor.now();
                let n = program.options.len();
                (0..n)
                    .map(|k| (base + k) % n)
                    .find(|&i| !br.is_blocked(&program.options[i].hostname, now))
                    .unwrap_or(base)
            }
            _ => base,
        };
        (index, None)
    }

    /// Submits the next attempt of `slot` — a plain activity's try, one
    /// replica, or one fan-out item, all on this one path.  The program is
    /// the activity's own, or the item's failover program once it failed
    /// over; placement cycles from the attempts [`Self::spent`].
    /// `forced_option` pins the placement to one resource option — used by
    /// pre-emptive re-replication, whose target the scorer already chose
    /// (and whose decision the `rereplicate` trace event already journals,
    /// so no `placement_scored` is emitted for it).
    fn submit(&mut self, name: &str, slot: usize, forced_option: Option<usize>) {
        let (spent, failed_over) = self.spent(name, slot);
        let act = self
            .instance
            .workflow()
            .activity(name)
            .expect("known activity");
        let (policy, heartbeat_interval, heartbeat_tolerance) =
            (act.policy, act.heartbeat_interval, act.heartbeat_tolerance);
        let program_name = match &act.foreach {
            Some(spec) if failed_over => spec
                .failover
                .as_deref()
                .expect("failover only when declared"),
            _ => act.implement.as_deref().expect("non-dummy"),
        };
        let program = self
            .instance
            .workflow()
            .program(program_name)
            .expect("validated reference")
            .clone();
        let task = self.fresh_task();
        let now = self.executor.now();
        let flag = {
            let s = &mut self.nodes.get_mut(name).expect("runtime exists").slots[slot];
            s.live = Some(task);
            s.waiting = false;
            s.ckpt_flag.clone()
        };
        let (option_index, scored) = match forced_option {
            Some(i) => (i, None),
            None => {
                let base = cycling_base(policy, slot, spent, program.options.len());
                self.place(name, slot, &program, policy, base)
            }
        };
        let option = &program.options[option_index];
        let attempt = spent + 1;
        let is_probe = match &mut self.breakers {
            Some(br) => br.on_submit(&option.hostname, now),
            None => false,
        };
        self.attempts.insert(task, (name.to_string(), slot));
        self.attempt_hosts.insert(task, option.hostname.clone());
        let replaced = self.detector.register_task(
            task,
            heartbeat_interval,
            heartbeat_tolerance,
            self.executor.now(),
        );
        let checkpoint_hint = self.adapt_checkpoint_hint(&option.hostname);
        let req = SubmitRequest {
            task,
            activity: name.to_string(),
            program: program.name.clone(),
            hostname: option.hostname.clone(),
            service: option.service.clone(),
            nominal_duration: program.nominal_duration,
            checkpoint_flag: flag.clone(),
            heartbeat_interval,
            checkpoint_hint,
        };
        let host = option.hostname.clone();
        self.open_attempts.insert(task);
        self.executor.submit(req);
        if let Some(liveness) = replaced {
            // Task ids are fresh per attempt, so this cannot fire in the
            // engine's own flow — it journals the heartbeat monitor's
            // re-registration disclosure (a silently revived presumed-dead
            // attempt is exactly the bug the disclosure exists to catch).
            self.trace(TraceKind::WatchReplaced {
                task: task.0,
                was_presumed_dead: liveness == Liveness::PresumedDead,
            });
        }
        if is_probe {
            self.trace(TraceKind::BreakerProbe { host: host.clone() });
        }
        if let Some(p) = &scored {
            self.trace(TraceKind::PlacementScored {
                activity: name.to_string(),
                slot,
                attempt,
                host: host.clone(),
                score: p.score,
                steered: p.steered,
            });
        }
        self.trace(TraceKind::TaskSubmitted {
            activity: name.to_string(),
            slot,
            attempt,
            task: task.0,
            host,
            resume: flag,
        });
    }

    // ----------------------------------------------------------- foreach ---

    fn foreach_spec(&self, name: &str) -> &ForeachSpec {
        self.instance
            .workflow()
            .activity(name)
            .and_then(|a| a.foreach.as_ref())
            .expect("foreach activity")
    }

    fn is_foreach(&self, name: &str) -> bool {
        self.instance.items(name).is_some()
    }

    /// Launches unlaunched pending items in index order while the fan-out
    /// has `max_parallel` tokens free (0 = unbounded).  A slot waiting on
    /// a retry timer keeps holding its token, so firing timers never push
    /// the fan-out over the bound.
    fn pump_foreach(&mut self, name: &str) {
        let max_parallel = self.foreach_spec(name).max_parallel;
        loop {
            let idx = {
                let rt = self.nodes.get(name).expect("runtime exists");
                let active = rt
                    .slots
                    .iter()
                    .filter(|s| s.live.is_some() || s.waiting)
                    .count();
                if max_parallel != 0 && active >= max_parallel {
                    return;
                }
                let items = self.instance.items(name).expect("foreach activity");
                rt.slots.iter().zip(items.iter()).position(|(s, p)| {
                    s.live.is_none() && !s.waiting && !s.exhausted && p.state == ItemState::Pending
                })
            };
            let Some(idx) = idx else { return };
            let p = &self.instance.items(name).expect("foreach activity")[idx];
            // A `dlq retry` reset: journal it before its first attempt.
            if p.reprocess && p.attempts == 0 {
                self.trace(TraceKind::ItemReprocessed {
                    activity: name.to_string(),
                    item: idx,
                });
            }
            self.submit(name, idx, None);
        }
    }

    /// Settles item `idx` as `state` — done, skipped, failed (the `stop`
    /// action) or cancelled — and journals it.
    fn settle_item(&mut self, name: &str, idx: usize, state: ItemState) {
        let p = self.instance.item_mut(name, idx);
        p.state = state;
        let attempts = p.attempts;
        self.trace(TraceKind::ItemSettled {
            activity: name.to_string(),
            item: idx,
            outcome: state.wire_str().to_string(),
            attempts,
        });
    }

    /// Marks every non-terminal item of a settling fan-out `cancelled` —
    /// the one funnel every node-settling route (stop items, breached
    /// budgets, stalls, redundant-branch pruning) passes through, so the
    /// per-item accounting invariant (every instantiated item reaches
    /// exactly one terminal state) holds no matter why the node settled.
    fn cancel_foreach_items(&mut self, name: &str) {
        let n = self.instance.items(name).map_or(0, |it| it.len());
        for idx in 0..n {
            if !self.instance.items(name).expect("foreach activity")[idx]
                .state
                .is_terminal()
            {
                self.settle_item(name, idx, ItemState::Cancelled);
            }
        }
    }

    // -------------------------------------------------------- settlement ---

    /// Closes attempt `task` of `name`: it leaves the live-attempt maps,
    /// and its terminal classification is journalled exactly once (the
    /// `open_attempts` guard absorbs duplicate settlement paths;
    /// [`Report::spans`] derives from these events).  Returns the host it
    /// ran on.
    fn close_attempt(
        &mut self,
        name: &str,
        task: TaskId,
        outcome: TaskOutcome,
        reason: &str,
    ) -> Option<String> {
        self.attempts.remove(&task);
        let host = self.attempt_hosts.remove(&task);
        if self.open_attempts.remove(&task) {
            self.trace(TraceKind::TaskSettled {
                activity: name.to_string(),
                task: task.0,
                outcome,
                reason: reason.to_string(),
            });
        }
        host
    }

    /// Feeds an attempt's outcome on `host` — success, or a crash or
    /// presumed death — to the host scorer and the breaker registry (if
    /// enabled), and journals any breaker transition it caused.
    fn host_outcome(&mut self, host: Option<&str>, ok: bool) {
        use crate::breaker::BreakerEvent;
        let Some(host) = host else { return };
        let now = self.executor.now();
        match self.scorer.as_mut() {
            Some(sc) if ok => sc.record_success(host),
            Some(sc) => sc.record_failure(host, now),
            None => {}
        }
        let event = match self.breakers.as_mut() {
            Some(br) if ok => br.record_success(host),
            Some(br) => br.record_failure(host, now),
            None => None,
        };
        match event {
            Some(BreakerEvent::Opened { host, until }) => {
                self.trace(TraceKind::BreakerOpen { host, until })
            }
            Some(BreakerEvent::Closed { host }) => self.trace(TraceKind::BreakerClosed { host }),
            None => {}
        }
    }

    /// Pre-emptive re-replication: when a live attempt's host shows a φ
    /// level at or above [`crate::sched_score::ScorerConfig::rereplicate_phi`],
    /// evacuate the attempt to the best failure-decorrelated host *before*
    /// the presumption fires — the replacement resumes from the slot's
    /// last checkpoint flag instead of losing the work to a crash.
    /// Budgeted per slot by `max_rereplications`, and the move consumes no
    /// retry (`tries_used` is untouched: nothing has failed yet).  Only
    /// the φ-accrual detector produces a live suspicion level, so this is
    /// a no-op under the fixed-timeout policy.
    fn preemptive_rereplicate(&mut self) {
        let Some(cfg) = self.scorer.as_ref().map(|s| s.config().clone()) else {
            return;
        };
        let now = self.executor.now();
        // Deterministic visiting order: ascending task id.
        let mut live: Vec<(TaskId, String, usize)> = self
            .attempts
            .iter()
            .map(|(t, (name, slot))| (*t, name.clone(), *slot))
            .collect();
        live.sort_by_key(|(t, _, _)| t.0);
        for (task, name, slot) in live {
            if self.is_foreach(&name) {
                continue;
            }
            let Some(phi) = self.detector.phi_level(task, now) else {
                continue;
            };
            if phi < cfg.rereplicate_phi {
                continue;
            }
            let key = (name.clone(), slot);
            if self.rereplications.get(&key).copied().unwrap_or(0) >= cfg.max_rereplications {
                continue;
            }
            let Some(from) = self.attempt_hosts.get(&task).cloned() else {
                continue;
            };
            let act = self
                .instance
                .workflow()
                .activity(&name)
                .expect("known activity");
            let program = self
                .instance
                .workflow()
                .program(act.implement.as_deref().expect("non-dummy"))
                .expect("validated reference")
                .clone();
            let base = cycling_base(
                act.policy,
                slot,
                self.spent(&name, slot).0,
                program.options.len(),
            );
            // Exclude the suspected host and every sibling's host; if no
            // healthy decorrelated target exists, stay put — the detector
            // will presume in its own time and the ordinary retry path
            // takes over.
            let mut exclude = self.sibling_hosts(&name, slot);
            exclude.push(from.clone());
            let Some(placement) = self.scored_option(&program, base, &exclude) else {
                continue;
            };
            let to = program.options[placement.index].hostname.clone();
            self.close_attempt(&name, task, TaskOutcome::Cancelled, "rereplicate");
            self.nodes.get_mut(&name).expect("runtime exists").slots[slot].live = None;
            self.executor.cancel(task);
            self.trace(TraceKind::Rereplicate {
                activity: name.clone(),
                slot,
                from,
                to,
                phi,
            });
            *self.rereplications.entry(key).or_insert(0) += 1;
            self.submit(&name, slot, Some(placement.index));
        }
    }

    fn cancel_live(&mut self, name: &str) {
        if let Some(rt) = self.nodes.get_mut(name) {
            let live: Vec<TaskId> = rt.slots.iter_mut().filter_map(|s| s.live.take()).collect();
            for task in live {
                self.close_attempt(name, task, TaskOutcome::Cancelled, "node-settled");
                self.executor.cancel(task);
            }
        }
    }

    /// Settles `name` as `status`: cancels what still runs for it, lets the
    /// instance resolve its edges, and journals the settlement and every
    /// skip it cascaded.  A do-while that holds re-queues the node instead;
    /// past `max_loop_iterations` the node fails, through the same tail.
    fn settle_node(&mut self, name: &str, mut status: NodeStatus) {
        self.settlements += 1;
        self.cancel_foreach_items(name);
        self.cancel_live(name);
        let (result, mut skipped) = self.instance.settle(name, status.clone());
        if result == CompleteResult::LoopAgain {
            let rt = self.nodes.get_mut(name).expect("looped node ran");
            rt.loop_iterations += 1;
            let iterations = rt.loop_iterations;
            if iterations < self.config.max_loop_iterations {
                self.trace(TraceKind::LoopIteration {
                    activity: name.to_string(),
                    iteration: iterations + 1,
                });
                self.write_checkpoint();
                return;
            }
            self.trace(TraceKind::EngineStalled {
                activity: name.to_string(),
            });
            // The node is Pending again; settle it as failed so the
            // workflow terminates deterministically.
            status = NodeStatus::Failed;
            skipped = self.instance.settle(name, NodeStatus::Failed).1;
        }
        let state = match &status {
            NodeStatus::Exception(n) => format!("exception:{n}"),
            other => other.as_expr_str().to_string(),
        };
        self.trace(TraceKind::NodeState {
            activity: name.to_string(),
            state,
        });
        for s in skipped {
            self.trace(TraceKind::NodeState {
                activity: s,
                state: "skipped".to_string(),
            });
        }
        if self.config.cancel_redundant {
            self.prune_redundant_branches();
        }
        self.write_checkpoint();
    }

    /// Extension (`cancel_redundant`): running activities whose every
    /// outgoing edge leads into an OR-join that is already satisfied (or a
    /// node already settled) contribute nothing further — cancel them and
    /// settle them as skipped.
    fn prune_redundant_branches(&mut self) {
        loop {
            let victim: Option<String> = self
                .instance
                .workflow()
                .activities
                .iter()
                .filter(|a| self.instance.status(&a.name) == &NodeStatus::Running)
                .find(|a| {
                    let mut outgoing = self.instance.workflow().outgoing(&a.name).peekable();
                    if outgoing.peek().is_none() {
                        return false; // sinks always matter
                    }
                    outgoing.all(|t| {
                        let target = self.instance.workflow().activity(&t.to).expect("validated");
                        let target_status = self.instance.status(&t.to);
                        // The edge is pointless if its target already fired
                        // past Pending (an OR-join that went ready/settled
                        // without this branch).
                        target.join == gridwfs_wpdl::ast::JoinMode::Or
                            && *target_status != NodeStatus::Pending
                    })
                })
                .map(|a| a.name.clone());
            match victim {
                Some(name) => self.settle_node(&name, NodeStatus::Skipped),
                None => return,
            }
        }
    }

    fn write_checkpoint(&mut self) {
        let Some(sink) = self.config.checkpoint_sink.clone() else {
            return;
        };
        let ok = sink.save(crate::checkpoint::to_xml(&self.instance)).is_ok();
        self.trace(TraceKind::EngineCheckpoint { ok });
    }

    // ---------------------------------------------------------- recovery ---

    /// Task-level recovery for a failed attempt of `slot` — a crash, or an
    /// exception that `maskable` says retrying may mask — the same for
    /// plain slots, replicas and fan-out items: charge the attempt, ask
    /// [`recovery`] what is left, then retry, fail over or end the slot
    /// as [`End::Spent`].
    fn attempt_failed(
        &mut self,
        name: &str,
        slot: usize,
        reason: &str,
        maskable: bool,
        settle_as: NodeStatus,
    ) {
        let (spent, failed_over) = self.charge(name, slot, reason);
        let act = self
            .instance
            .workflow()
            .activity(name)
            .expect("known activity");
        match recovery(act, spent, maskable, failed_over) {
            Recovery::Retry { delay } => self.schedule_retry(name, slot, delay),
            Recovery::Failover => self.fail_over(name, slot),
            Recovery::Exhausted => {
                let fatal = !maskable;
                self.end_slot(name, slot, End::Spent { fatal, settle_as });
            }
        }
    }

    /// Charges one failed attempt to `slot`'s counter (see [`Self::spent`]);
    /// an item also records why, for the dead-letter queue.  Returns the
    /// new [`Self::spent`].
    fn charge(&mut self, name: &str, slot: usize, reason: &str) -> (u32, bool) {
        if self.is_foreach(name) {
            let p = self.instance.item_mut(name, slot);
            p.attempts += 1;
            p.reason = reason.to_string();
        } else {
            self.nodes.get_mut(name).expect("runtime exists").slots[slot].tries_used += 1;
        }
        self.spent(name, slot)
    }

    /// Records how `slot`'s attempt ended where its lane keeps state (see
    /// [`Self::spent`]).  A plain slot or replica retires — except after a
    /// fatal exception, whose attempt keeps holding the slot so that
    /// settling the node cancels it along with any replica still racing.
    /// A fan-out item settles `done` or takes its exhaustion action, and is
    /// checkpointed: that is what makes item settlement exactly-once across
    /// engine incarnations.  Item settlements count toward
    /// `max_settlements`, so the simulated engine crash can land in the
    /// middle of a fan-out.
    fn record_end(&mut self, name: &str, slot: usize, end: &End) {
        let is_item = self.instance.items(name).is_some();
        let fatal = matches!(end, End::Spent { fatal: true, .. });
        if is_item || !fatal {
            let s = &mut self.nodes.get_mut(name).expect("runtime exists").slots[slot];
            s.live = None;
            s.exhausted = true;
        }
        if !is_item {
            return;
        }
        self.settlements += 1;
        match end {
            End::Done => {
                let p = self.instance.item_mut(name, slot);
                p.attempts += 1;
                p.reason.clear();
                self.settle_item(name, slot, ItemState::Done);
            }
            End::Spent { .. } => match self.foreach_spec(name).on_exhausted {
                ItemAction::DeadLetter => {
                    let p = self.instance.item_mut(name, slot);
                    p.state = ItemState::DeadLettered;
                    let (attempts, reason) = (p.attempts, p.reason.clone());
                    self.trace(TraceKind::ItemDeadLettered {
                        activity: name.to_string(),
                        item: slot,
                        attempts,
                        reason,
                    });
                }
                ItemAction::Skip => self.settle_item(name, slot, ItemState::Skipped),
                ItemAction::Stop => self.settle_item(name, slot, ItemState::Failed),
            },
        }
        self.write_checkpoint();
    }

    /// `slot`'s attempt ended as `end`: record it, then carry out the
    /// node's [`settle_decision`].
    fn end_slot(&mut self, name: &str, slot: usize, end: End) {
        self.record_end(name, slot, &end);
        let verdict = match self.instance.items(name) {
            Some(items) => settle_decision(Lanes::Items(self.foreach_spec(name), items)),
            None => settle_decision(Lanes::Slots(&self.nodes[name].slots, &end)),
        };
        self.apply(name, verdict);
    }

    /// Carries out a node verdict (see [`settle_decision`]).
    fn apply(&mut self, name: &str, verdict: Verdict) {
        match verdict {
            Verdict::Settle(status) => self.settle_node(name, status),
            Verdict::Exhausted(status) => {
                self.trace(TraceKind::RecoveryExhausted {
                    activity: name.to_string(),
                });
                self.settle_node(name, status);
            }
            Verdict::Wait => {}
            Verdict::Pump => self.pump_foreach(name),
        }
    }

    /// Arms `slot`'s retry timer.  The slot stops being live and waits (an
    /// item keeps its `max_parallel` token meanwhile); the timer carries
    /// the node's loop iteration so it cannot fire into a later one.
    fn schedule_retry(&mut self, name: &str, slot: usize, delay: f64) {
        let at = self.executor.now() + delay;
        let seq = self.timer_seq;
        self.timer_seq += 1;
        let rt = self.nodes.get_mut(name).expect("runtime exists");
        rt.slots[slot].live = None;
        rt.slots[slot].waiting = true;
        let iteration = rt.loop_iterations;
        self.timers.push(Timer {
            key: TimerKey(at, seq),
            activity: name.to_string(),
            slot,
            iteration,
        });
        let attempt = self.spent(name, slot).0 + 1;
        self.trace(TraceKind::RetryScheduled {
            activity: name.to_string(),
            slot,
            attempt,
            fire_at: at,
        });
    }

    /// Switches a fan-out item to its failover program on a fresh
    /// `max_attempts` budget and schedules its first attempt there.
    fn fail_over(&mut self, name: &str, idx: usize) {
        let spec = self.foreach_spec(name);
        let program = spec.failover.clone().expect("failover only when declared");
        let (max_attempts, delay) = (spec.max_attempts, spec.retry_interval);
        let p = self.instance.item_mut(name, idx);
        p.failover = true;
        // Forfeit any unused primary budget (non-maskable path) so the
        // failover phase is always attempts max+1 ..= 2*max.
        p.attempts = p.attempts.max(max_attempts);
        self.trace(TraceKind::ItemFailover {
            activity: name.to_string(),
            item: idx,
            program,
        });
        self.schedule_retry(name, idx, delay);
    }

    /// The activity a presumed-dead attempt belonged to, for journalling
    /// its post-mortem evidence.
    fn presumed_activity(&self, task: TaskId) -> String {
        self.presumed
            .get(&task)
            .cloned()
            .unwrap_or_else(|| "?".into())
    }

    fn handle(&mut self, detection: Detection) {
        let task = detection.task();
        // Post-mortem evidence from presumed-dead attempts is handled before
        // the `attempts` lookup: the attempt was removed at presumption, so
        // these would otherwise vanish as "stale".  The attempt stays settled
        // — fencing means the evidence is journalled and discarded, never
        // allowed to re-settle a node or resurrect a cancelled replica.
        match &detection {
            Detection::Zombie { body, .. } => {
                let activity = self.presumed_activity(task);
                self.trace(TraceKind::ZombieCompletion {
                    activity,
                    task: task.0,
                    body: (*body).to_string(),
                });
                return;
            }
            Detection::LateHeartbeat { seq, .. } => {
                let activity = self.presumed_activity(task);
                self.trace(TraceKind::LateHeartbeat {
                    activity,
                    task: task.0,
                    seq: *seq,
                });
                return;
            }
            _ => {}
        }
        let Some(&(ref name, slot)) = self.attempts.get(&task) else {
            return; // stale: attempt was cancelled or node already settled
        };
        let name = name.clone();
        match detection {
            Detection::Completed { .. } => {
                let host = self.close_attempt(&name, task, TaskOutcome::Completed, "task-end");
                self.host_outcome(host.as_deref(), true);
                // The winner retires before its node settles, so settling
                // cancels only the losing replicas.
                self.end_slot(&name, slot, End::Done);
            }
            Detection::Crashed { reason, .. } => {
                let reason_str = match reason {
                    CrashReason::DoneWithoutTaskEnd => "done-without-task-end",
                    CrashReason::HeartbeatLoss => "heartbeat-loss",
                };
                if reason == CrashReason::HeartbeatLoss {
                    // A presumption, not an observation: the attempt may be
                    // alive behind a flaky link.  Journal the evidence that
                    // convicted it and remember its activity so post-mortem
                    // messages can be attributed when they surface later.
                    let suspicion = self.detector.suspicion(task);
                    self.trace(TraceKind::SuspicionRaised {
                        activity: name.clone(),
                        task: task.0,
                        silence: suspicion.map(|s| s.silence).unwrap_or(0.0),
                        phi: suspicion.and_then(|s| s.phi),
                    });
                    self.presumed.insert(task, name.clone());
                }
                let host = self.close_attempt(&name, task, TaskOutcome::Crashed, reason_str);
                if reason == CrashReason::HeartbeatLoss {
                    // Best-effort cancel to the possibly-alive orphan — it
                    // travels the same unreliable network, so it may be lost
                    // and messages already in flight still arrive.
                    self.executor.orphan_cancel(task);
                    self.trace(TraceKind::OrphanCancelled {
                        activity: name.clone(),
                        task: task.0,
                    });
                }
                self.host_outcome(host.as_deref(), false);
                self.attempt_failed(&name, slot, reason_str, true, NodeStatus::Failed);
            }
            Detection::ExceptionRaised { name: exc, .. } => {
                // Exceptions are application-level outcomes, not host
                // flakiness: they neither trip nor reset the host breaker.
                self.close_attempt(&name, task, TaskOutcome::Exception, &exc);
                // Recoverable exceptions are maskable: retrying may
                // encounter a different environment (§2.1's transient
                // failures).  Fatal (and undeclared) ones are not: a slot
                // goes straight to the workflow level (§5.3), an item
                // straight to failover or its exhaustion action.
                let maskable = self
                    .detector
                    .registry()
                    .get(&exc)
                    .is_some_and(|d| d.severity == Severity::Recoverable);
                let reason = format!("exception:{exc}");
                self.attempt_failed(&name, slot, &reason, maskable, NodeStatus::Exception(exc));
            }
            Detection::CheckpointRecorded { flag, .. } => {
                if let Some(rt) = self.nodes.get_mut(&name) {
                    rt.slots[slot].ckpt_flag = Some(flag.clone());
                }
                self.trace(TraceKind::CheckpointFlag {
                    activity: name,
                    task: task.0,
                    flag,
                });
            }
            Detection::Zombie { .. } | Detection::LateHeartbeat { .. } => {
                unreachable!("post-mortem evidence is handled before the attempts lookup")
            }
        }
    }

    // -------------------------------------------------------------- loop ---

    fn next_deadline(&self, reorder: Option<&ReorderBuffer>) -> Option<f64> {
        [
            self.timers.peek().map(|t| t.key.0),
            self.detector.next_deadline(),
            reorder.and_then(|b| b.next_due()),
        ]
        .into_iter()
        .flatten()
        .min_by(f64::total_cmp)
    }

    fn observe(&mut self, env: &gridwfs_detect::notify::Envelope, at: f64) {
        let detections = self.detector.observe(env, at);
        for d in detections {
            self.handle(d);
        }
    }

    /// Fires all timers due at or before `now`.  Returns how many fired.
    fn fire_timers(&mut self, now: f64) -> usize {
        let mut fired = 0;
        while self.timers.peek().is_some_and(|t| t.key.0 <= now) {
            let t = self.timers.pop().expect("peeked");
            // Skip stale timers: the node settled since the retry was
            // scheduled (e.g. a sibling replica won), or it looped and the
            // timer belongs to a finished iteration.
            let current = self.instance.status(&t.activity) == &NodeStatus::Running
                && self.nodes[&t.activity].loop_iterations == t.iteration;
            if current {
                self.submit(&t.activity, t.slot, None);
                fired += 1;
            }
        }
        fired
    }

    /// Abandons every live attempt (service-side abort): cancels them on
    /// the executor so real threads stop, closes their spans, and writes a
    /// final checkpoint so a later resume sees current state.  Node
    /// statuses are untouched — running nodes checkpoint as `pending` and
    /// are resubmitted on restart, exactly like a crashed engine.
    fn abort_live(&mut self) {
        let mut live: Vec<(TaskId, String)> = self
            .attempts
            .iter()
            .map(|(t, (n, _))| (*t, n.clone()))
            .collect();
        // Ascending task id, not hash-map order: the journal is
        // deterministic.
        live.sort_by_key(|(t, _)| t.0);
        for (task, name) in live {
            self.close_attempt(&name, task, TaskOutcome::Cancelled, "abort");
            self.executor.cancel(task);
        }
        self.write_checkpoint();
    }

    fn fail_stalled(&mut self) {
        let running: Vec<String> = self
            .instance
            .statuses()
            .filter(|(_, s)| **s == NodeStatus::Running)
            .map(|(n, _)| n.to_string())
            .collect();
        for name in running {
            self.trace(TraceKind::EngineStalled {
                activity: name.clone(),
            });
            self.settle_node(&name, NodeStatus::Failed);
        }
    }

    /// Runs the workflow to completion and returns the report.
    ///
    /// A thin blocking driver over the same slice of work [`Engine::step`]
    /// performs: each iteration is exactly one turn of the historical event
    /// loop, with the executor allowed to park inside `next_notification`,
    /// so the trace (and therefore the JSONL journal) is byte-identical to
    /// what the monolithic loop produced.
    pub fn run(mut self) -> Report {
        loop {
            match self.step_inner(true) {
                StepOutcome::Finished(report) => return *report,
                StepOutcome::Progressed => {}
                StepOutcome::Idle { .. } => unreachable!("blocking step never reports Idle"),
            }
        }
    }

    /// Performs one bounded slice of navigation without blocking.
    ///
    /// Where [`Engine::run`] parks the calling thread inside the executor's
    /// `next_notification`, `step` polls ([`Executor::poll_notification`])
    /// and hands control back with [`StepOutcome::Idle`] instead — the hook
    /// a cooperative scheduler needs to multiplex many engines over a few
    /// worker threads.  `Idle::wake_at` is on the executor's clock; convert
    /// with [`Engine::now`].  Stepping again after
    /// [`StepOutcome::Finished`] panics.
    pub fn step(&mut self) -> StepOutcome {
        self.step_inner(false)
    }

    /// Current executor-clock time (virtual seconds for the simulated Grid,
    /// wall seconds since construction for the thread executor) — the clock
    /// [`StepOutcome::Idle`]'s `wake_at` is expressed in.
    pub fn now(&self) -> f64 {
        self.executor.now()
    }

    /// Why navigation ends before this step, if it must: the simulated
    /// engine crash (`max_settlements`), a cooperative `stop`, or the
    /// `deadline`.
    fn abort_reason(&self, deadline_abs: Option<f64>) -> Option<&'static str> {
        if self
            .config
            .max_settlements
            .is_some_and(|limit| self.settlements >= limit)
        {
            return Some("max_settlements");
        }
        if let Some(true) = self.config.stop.as_ref().map(|f| f.load(Ordering::Relaxed)) {
            return Some("stop");
        }
        deadline_abs
            .filter(|&d| self.executor.now() >= d)
            .map(|_| "deadline")
    }

    fn step_inner(&mut self, block: bool) -> StepOutcome {
        if self.run_state.is_none() {
            let started_at = self.executor.now();
            self.run_state = Some(RunState {
                started_at,
                deadline_abs: self.config.deadline.map(|d| started_at + d),
                reorder: self.config.reorder_settle.map(ReorderBuffer::new),
                done: false,
            });
        }
        let state = self.run_state.as_ref().expect("just initialised");
        assert!(!state.done, "Engine stepped after StepOutcome::Finished");
        let deadline_abs = state.deadline_abs;
        if let Some(reason) = self.abort_reason(deadline_abs) {
            self.trace(TraceKind::EngineAborted {
                reason: reason.to_string(),
            });
            // A crashed engine abandons its attempts; a stopped one cancels
            // them.
            if reason != "max_settlements" {
                self.abort_live();
            }
            return self.finish(Some(reason.to_string()));
        }
        self.launch_ready();
        if self.instance.is_finished() {
            return self.finish(None);
        }
        // Clamp the wait so the engine wakes up (and aborts) at the
        // deadline even if no notification ever arrives.
        let deadline = {
            let reorder = self.run_state.as_ref().expect("stepping").reorder.as_ref();
            match (self.next_deadline(reorder), deadline_abs) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };
        let polled = if block {
            match self.executor.next_notification(deadline) {
                Some((t, env)) => Polled::Delivered(t, env),
                None => Polled::TimedOut,
            }
        } else {
            self.executor.poll_notification(deadline)
        };
        match polled {
            Polled::Pending { wake_at } => return StepOutcome::Idle { wake_at },
            Polled::Delivered(t, env) => {
                // The buffer is lifted out of `run_state` while its releases
                // are observed (observe needs `&mut self`), then put back.
                let mut reorder = self.run_state.as_mut().expect("stepping").reorder.take();
                match &mut reorder {
                    Some(buf) => {
                        buf.accept(env, t);
                        for e in buf.release(t) {
                            self.observe(&e, t);
                        }
                    }
                    None => self.observe(&env, t),
                }
                self.run_state.as_mut().expect("stepping").reorder = reorder;
                self.preemptive_rereplicate();
            }
            Polled::TimedOut => {
                let now = self.executor.now();
                let mut released = 0;
                let mut reorder = self.run_state.as_mut().expect("stepping").reorder.take();
                if let Some(buf) = &mut reorder {
                    for e in buf.release(now) {
                        released += 1;
                        self.observe(&e, now);
                    }
                }
                self.run_state.as_mut().expect("stepping").reorder = reorder;
                let fired = self.fire_timers(now);
                let swept = self.detector.sweep(now);
                let any_swept = !swept.is_empty();
                for d in swept {
                    self.handle(d);
                }
                self.preemptive_rereplicate();
                if fired == 0
                    && !any_swept
                    && released == 0
                    && deadline.is_none()
                    && self.executor.is_idle()
                {
                    self.fail_stalled();
                }
            }
        }
        StepOutcome::Progressed
    }

    /// Seals the run and builds the final report (the tail of the old
    /// monolithic `run`): flushes the sink, then moves the trace out of the
    /// engine — deriving `spans` and `log` from it — so `step` can return
    /// [`StepOutcome::Finished`] without consuming `self`.
    fn finish(&mut self, aborted: Option<String>) -> StepOutcome {
        let state = self.run_state.as_mut().expect("stepping");
        state.done = true;
        let started_at = state.started_at;
        let finished_at = self.executor.now();
        if let Some(sink) = &self.sink {
            sink.flush();
        }
        let trace = std::mem::take(&mut self.trace);
        let mut dlq = Vec::new();
        for (name, items) in self.instance.items_iter() {
            let Some(spec) = self
                .instance
                .workflow()
                .activity(name)
                .and_then(|a| a.foreach.as_ref())
            else {
                continue;
            };
            for (idx, p) in items.iter().enumerate() {
                if p.state == ItemState::DeadLettered {
                    dlq.push(DlqEntry {
                        activity: name.to_string(),
                        index: idx,
                        item: spec.items[idx].clone(),
                        attempts: p.attempts,
                        reason: p.reason.clone(),
                    });
                }
            }
        }
        StepOutcome::Finished(Box::new(Report {
            outcome: self.instance.outcome(),
            aborted,
            finished_at,
            makespan: finished_at - started_at,
            spans: crate::timeline::spans_from_trace(&trace),
            node_status: self
                .instance
                .statuses()
                .map(|(n, s)| {
                    let s = match s {
                        NodeStatus::Exception(e) => format!("exception:{e}"),
                        other => other.as_expr_str().to_string(),
                    };
                    (n.to_string(), s)
                })
                .collect(),
            log: trace
                .iter()
                .map(|e| LogEntry {
                    at: e.at,
                    kind: LogKind::of(&e.kind),
                    message: e.kind.line(),
                })
                .collect(),
            trace,
            eval_errors: self.instance.eval_errors().to_vec(),
            dlq,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_key_orders_earliest_first_fifo_ties() {
        let mut heap = BinaryHeap::new();
        for (i, t) in [(0u64, 5.0), (1, 1.0), (2, 5.0), (3, 3.0)] {
            heap.push(Timer {
                key: TimerKey(t, i),
                activity: format!("a{i}"),
                slot: 0,
                iteration: 0,
            });
        }
        let order: Vec<String> = std::iter::from_fn(|| heap.pop().map(|t| t.activity)).collect();
        assert_eq!(
            order,
            vec!["a1", "a3", "a0", "a2"],
            "time asc, FIFO at ties"
        );
    }

    #[test]
    fn recovery_decision_table() {
        // A slot: 4 tries, 2 s apart, the pause tripling per retry.
        let mut slot = Activity::new("a", "p");
        slot.max_tries = 4;
        slot.retry_interval = 2.0;
        slot.retry_backoff = 3.0;
        // Items: 2 attempts 1.5 s apart, then the exhaustion action; the
        // `fo` variant first fails over to `q`.
        let item = |action: ItemAction, failover: Option<&str>| {
            let mut a = Activity::new("m", "p");
            let mut spec = ForeachSpec::new(vec!["x".into()]);
            spec.max_attempts = 2;
            spec.retry_interval = 1.5;
            spec.on_exhausted = action;
            spec.failover = failover.map(str::to_string);
            a.foreach = Some(spec);
            a
        };
        let dlq = item(ItemAction::DeadLetter, None);
        let skip = item(ItemAction::Skip, None);
        let stop = item(ItemAction::Stop, None);
        let fo = item(ItemAction::DeadLetter, Some("q"));
        let retry = |delay| Recovery::Retry { delay };
        // (case, activity, attempts spent, maskable, failed over, decision)
        let rows: [(&str, &Activity, u32, bool, bool, Recovery); 13] = [
            ("slot, first retry", &slot, 1, true, false, retry(2.0)),
            ("slot, backoff", &slot, 3, true, false, retry(18.0)),
            (
                "slot, out of budget",
                &slot,
                4,
                true,
                false,
                Recovery::Exhausted,
            ),
            ("slot, fatal", &slot, 1, false, false, Recovery::Exhausted),
            ("item, within budget", &dlq, 1, true, false, retry(1.5)),
            ("item, fails over", &fo, 2, true, false, Recovery::Failover),
            (
                "item, fatal fails over",
                &fo,
                1,
                false,
                false,
                Recovery::Failover,
            ),
            ("item, retries its failover", &fo, 3, true, true, retry(1.5)),
            (
                "item, failover spent",
                &fo,
                4,
                true,
                true,
                Recovery::Exhausted,
            ),
            (
                "item, fatal on failover",
                &fo,
                3,
                false,
                true,
                Recovery::Exhausted,
            ),
            ("item, dlq", &dlq, 2, true, false, Recovery::Exhausted),
            ("item, skip", &skip, 2, true, false, Recovery::Exhausted),
            ("item, stop", &stop, 2, true, false, Recovery::Exhausted),
        ];
        for (case, act, attempts, maskable, failed_over, want) in rows {
            assert_eq!(
                recovery(act, attempts, maskable, failed_over),
                want,
                "{case}"
            );
        }
    }

    #[test]
    fn node_verdict_table() {
        use NodeStatus::{Done, Failed};
        let slots = |exhausted: &[bool]| -> Vec<Slot> {
            exhausted
                .iter()
                .map(|&exhausted| Slot {
                    exhausted,
                    ..Slot::default()
                })
                .collect()
        };
        let spent = |fatal, settle_as| End::Spent { fatal, settle_as };
        let oom = || NodeStatus::Exception("oom".into());
        // (case, slots exhausted after the end was recorded, end, verdict)
        let slot_rows = [
            ("success", slots(&[true]), End::Done, Verdict::Settle(Done)),
            (
                "replica wins the race",
                slots(&[true, false]),
                End::Done,
                Verdict::Settle(Done),
            ),
            (
                "fatal exception settles at once",
                slots(&[false, false]),
                spent(true, oom()),
                Verdict::Settle(oom()),
            ),
            (
                "replica spent while siblings race",
                slots(&[true, false]),
                spent(false, Failed),
                Verdict::Wait,
            ),
            (
                "last slot spent",
                slots(&[true]),
                spent(false, Failed),
                Verdict::Exhausted(Failed),
            ),
            (
                "last replica spent on an exception",
                slots(&[true, true]),
                spent(false, oom()),
                Verdict::Exhausted(oom()),
            ),
        ];
        for (case, slots, end, want) in slot_rows {
            assert_eq!(settle_decision(Lanes::Slots(&slots, &end)), want, "{case}");
        }

        use ItemState::{Cancelled, DeadLettered as Dlq, Done as D, Pending as P, Skipped};
        let caps = |max_failures, failure_threshold| ForeachSpec {
            max_failures,
            failure_threshold,
            ..ForeachSpec::new(Vec::new())
        };
        // (case, max_failures, failure_threshold, item states, verdict)
        let item_rows: [(&str, ForeachSpec, &[ItemState], Verdict); 9] = [
            (
                "stop item",
                caps(None, None),
                &[ItemState::Failed, P],
                Verdict::Settle(Failed),
            ),
            (
                "stop item beats a breach",
                caps(Some(0), None),
                &[ItemState::Failed, Dlq],
                Verdict::Settle(Failed),
            ),
            (
                "max_failures breached",
                caps(Some(1), None),
                &[Dlq, Skipped, P],
                Verdict::Settle(Failed),
            ),
            (
                "max_failures reached",
                caps(Some(1), None),
                &[Dlq, P],
                Verdict::Pump,
            ),
            (
                "failure_threshold breached",
                caps(None, Some(0.5)),
                &[Dlq, Dlq, D],
                Verdict::Settle(Failed),
            ),
            (
                "failure_threshold reached",
                caps(None, Some(0.5)),
                &[Dlq, D],
                Verdict::Settle(Done),
            ),
            (
                "all terminal: dead letters do not block",
                caps(None, None),
                &[D, Dlq, Skipped, Cancelled],
                Verdict::Settle(Done),
            ),
            ("items left", caps(None, None), &[D, P], Verdict::Pump),
            (
                "nothing settled yet",
                caps(None, None),
                &[P, P],
                Verdict::Pump,
            ),
        ];
        for (case, spec, states, want) in item_rows {
            let items: Vec<ItemProgress> = states
                .iter()
                .map(|&state| ItemProgress {
                    state,
                    ..ItemProgress::default()
                })
                .collect();
            assert_eq!(settle_decision(Lanes::Items(&spec, &items)), want, "{case}");
        }
    }

    #[test]
    fn log_kind_table() {
        let settle = |outcome| TraceKind::TaskSettled {
            activity: "a".into(),
            task: 1,
            outcome,
            reason: "r".into(),
        };
        let a = || "a".to_string();
        // (event, category): the rows whose choice is not obvious from the
        // kind's name.
        let rows = [
            (
                TraceKind::TaskSubmitted {
                    activity: a(),
                    slot: 0,
                    attempt: 1,
                    task: 1,
                    host: "h".into(),
                    resume: None,
                },
                LogKind::Submit,
            ),
            (
                TraceKind::PlacementScored {
                    activity: a(),
                    slot: 0,
                    attempt: 1,
                    host: "h".into(),
                    score: 0.5,
                    steered: false,
                },
                LogKind::Detect,
            ),
            (settle(TaskOutcome::Completed), LogKind::Detect),
            (settle(TaskOutcome::Crashed), LogKind::Detect),
            (settle(TaskOutcome::Exception), LogKind::Detect),
            (settle(TaskOutcome::Cancelled), LogKind::Cancel),
            (
                TraceKind::OrphanCancelled {
                    activity: a(),
                    task: 1,
                },
                LogKind::Cancel,
            ),
            (
                TraceKind::ItemReprocessed {
                    activity: a(),
                    item: 0,
                },
                LogKind::Recovery,
            ),
            (
                TraceKind::AlternativeTask {
                    from: a(),
                    to: "b".into(),
                },
                LogKind::Settle,
            ),
            (
                TraceKind::EngineCheckpoint { ok: false },
                LogKind::Checkpoint,
            ),
            (
                TraceKind::EngineAborted {
                    reason: "stop".into(),
                },
                LogKind::Stall,
            ),
        ];
        for (kind, want) in rows {
            assert_eq!(LogKind::of(&kind), want, "{}", kind.line());
        }
    }

    #[test]
    fn config_defaults_match_paper_behaviour() {
        let c = EngineConfig::default();
        assert!(c.checkpoint_sink.is_none());
        assert!(
            c.reorder_settle.is_none(),
            "prototype delivered immediately"
        );
        assert!(
            !c.cancel_redundant,
            "prototype let redundant branches finish"
        );
        assert!(c.breaker.is_none(), "breakers are opt-in");
        assert!(
            matches!(c.scheduler, crate::sched_score::SchedulerPolicy::Oblivious),
            "resilient scheduling is opt-in: default journals stay byte-identical"
        );
        assert!(c.max_loop_iterations >= 1000);
    }

    #[test]
    fn report_helpers() {
        let report = Report {
            outcome: Outcome::Success,
            aborted: None,
            finished_at: 10.0,
            makespan: 10.0,
            node_status: vec![("a".into(), "done".into())],
            log: vec![],
            spans: vec![crate::timeline::Span {
                activity: "a".into(),
                task: 1,
                host: "h".into(),
                start: 0.0,
                end: 10.0,
                outcome: crate::timeline::SpanOutcome::Completed,
            }],
            trace: ["a", "ab", "a b"]
                .map(|activity| TraceEvent {
                    at: 0.0,
                    kind: TraceKind::TaskSubmitted {
                        activity: activity.into(),
                        slot: 0,
                        attempt: 1,
                        task: 1,
                        host: "h".into(),
                        resume: None,
                    },
                })
                .to_vec(),
            eval_errors: vec![],
            dlq: vec![],
        };
        assert!(report.is_success());
        assert_eq!(report.status_of("a"), Some("done"));
        assert_eq!(report.status_of("zz"), None);
        for name in ["a", "ab", "a b"] {
            assert_eq!(report.submissions_of(name), 1, "{name}: exact match only");
        }
        assert_eq!(report.cancellations(), 0);
        assert_eq!(report.host_utilization(), vec![("h".to_string(), 10.0)]);
    }
}

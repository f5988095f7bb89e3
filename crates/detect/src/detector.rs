//! The failure classifier.
//!
//! [`Detector`] consumes the notification stream for a set of task attempts
//! and produces [`Detection`]s — the classified outcomes the workflow engine
//! acts on.  The classification rules come straight from the paper:
//!
//! * `Done` **with** a preceding `Task End` ⇒ the attempt **completed**;
//! * `Done` **without** `Task End` ⇒ **task crash** (§4.1: "by receiving
//!   Done without Task End notification");
//! * `Exception{name}` ⇒ **user-defined exception**;
//! * heartbeat silence past the tolerance ⇒ **presumed crash** (host crash,
//!   network partition, reboot — indistinguishable and treated alike);
//! * `Checkpoint{flag}` ⇒ the attempt is checkpoint-enabled; the flag is
//!   reported so the engine can hand it back on restart (§4.3).

use std::collections::HashMap;

use crate::exception::ExceptionRegistry;
use crate::heartbeat::HeartbeatMonitor;
use crate::notify::{Envelope, Notification, TaskId};
use crate::phi::PhiConfig;
use crate::state::{TaskState, TaskStateMachine};

/// Which presumption margin the detector's [`HeartbeatMonitor`] runs.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorPolicy {
    /// Classic fixed timeout: presume a crash after `tolerance × interval`
    /// of silence.  `tolerance: None` uses each activity's own tolerance;
    /// `Some(t)` overrides it globally (the CLI's `--detector timeout:t`).
    FixedTimeout {
        /// Optional global tolerance override.
        tolerance: Option<f64>,
    },
    /// Adaptive φ-accrual detection (see [`crate::phi`]).
    PhiAccrual(PhiConfig),
}

impl Default for DetectorPolicy {
    fn default() -> Self {
        DetectorPolicy::FixedTimeout { tolerance: None }
    }
}

/// What the detector knew at the instant it presumed a crash — journalled
/// by the engine as `suspicion_raised`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuspicionInfo {
    /// Heartbeat silence at presumption time.
    pub silence: f64,
    /// Suspicion level φ at presumption time (`None` under fixed timeout).
    pub phi: Option<f64>,
}

/// Why a crash was declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashReason {
    /// The job manager reported process exit but the task never emitted
    /// `Task End` — it died mid-computation.
    DoneWithoutTaskEnd,
    /// Heartbeats stopped arriving (host crash / partition / reboot).
    HeartbeatLoss,
}

/// A classified task outcome delivered to the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Detection {
    /// The attempt finished its work successfully.
    Completed {
        /// Which attempt.
        task: TaskId,
        /// Detection time.
        at: f64,
    },
    /// The attempt crashed.
    Crashed {
        /// Which attempt.
        task: TaskId,
        /// Detection time.
        at: f64,
        /// How the crash was inferred.
        reason: CrashReason,
    },
    /// The attempt raised a user-defined exception.
    ExceptionRaised {
        /// Which attempt.
        task: TaskId,
        /// Detection time.
        at: f64,
        /// Exception name.
        name: String,
        /// Free-form detail from the task.
        detail: String,
        /// Whether the name was registered in the workflow's registry.
        known: bool,
    },
    /// The attempt recorded a checkpoint (informational; the engine stores
    /// the flag for restart).
    CheckpointRecorded {
        /// Which attempt.
        task: TaskId,
        /// Detection time.
        at: f64,
        /// Opaque recovery cookie.
        flag: String,
    },
    /// A terminal message (`Done` or `Exception`) arrived from an attempt
    /// *already presumed dead* — the presumption was false and the attempt
    /// is a zombie.  Reported once per attempt (informational: the engine
    /// journals it as `zombie_completion` and discards it; the attempt
    /// stays settled and the node must never settle twice through it).
    Zombie {
        /// Which attempt.
        task: TaskId,
        /// Arrival time of the zombie message.
        at: f64,
        /// What arrived: `"done"` or `"exception"`.
        body: &'static str,
    },
    /// A heartbeat arrived from an attempt already presumed dead —
    /// evidence the suspicion was false (informational; journalled as
    /// `late_heartbeat`).
    LateHeartbeat {
        /// Which attempt.
        task: TaskId,
        /// Arrival time.
        at: f64,
        /// Heartbeat sequence number.
        seq: u64,
    },
}

impl Detection {
    /// The attempt this detection concerns.
    pub fn task(&self) -> TaskId {
        match self {
            Detection::Completed { task, .. }
            | Detection::Crashed { task, .. }
            | Detection::ExceptionRaised { task, .. }
            | Detection::CheckpointRecorded { task, .. }
            | Detection::Zombie { task, .. }
            | Detection::LateHeartbeat { task, .. } => *task,
        }
    }

    /// True for detections that settle the attempt (no further events
    /// expected).
    pub fn is_terminal(&self) -> bool {
        !matches!(
            self,
            Detection::CheckpointRecorded { .. }
                | Detection::Zombie { .. }
                | Detection::LateHeartbeat { .. }
        )
    }
}

#[derive(Debug)]
struct TaskRecord {
    machine: TaskStateMachine,
    saw_task_end: bool,
    /// Settled by heartbeat-loss presumption (not by observed messages).
    presumed_dead: bool,
    /// A zombie terminal message has already been reported for this attempt.
    zombie_reported: bool,
    /// What the detector knew at presumption time.
    suspicion: Option<SuspicionInfo>,
}

impl TaskRecord {
    fn new() -> Self {
        TaskRecord {
            machine: TaskStateMachine::new(),
            saw_task_end: false,
            presumed_dead: false,
            zombie_reported: false,
            suspicion: None,
        }
    }
}

/// Failure detection service instance (one per workflow engine).
#[derive(Debug, Default)]
pub struct Detector {
    records: HashMap<TaskId, TaskRecord>,
    monitor: HeartbeatMonitor,
    registry: ExceptionRegistry,
}

impl Detector {
    /// A detector with no registered exceptions.
    pub fn new() -> Self {
        Self::default()
    }

    /// A detector using the workflow's exception registry.
    pub fn with_registry(registry: ExceptionRegistry) -> Self {
        Detector {
            records: HashMap::new(),
            monitor: HeartbeatMonitor::default(),
            registry,
        }
    }

    /// Replaces the presumption policy with a fresh [`HeartbeatMonitor`]
    /// built for it.  Call before any task is registered: existing
    /// heartbeat watches are dropped, not carried over.
    ///
    /// # Panics
    /// Panics on an invalid [`PhiConfig`] (see [`HeartbeatMonitor::new`]).
    pub fn set_policy(&mut self, policy: DetectorPolicy) {
        self.monitor = HeartbeatMonitor::new(policy);
    }

    /// The exception registry in use.
    pub fn registry(&self) -> &ExceptionRegistry {
        &self.registry
    }

    /// Total late heartbeats (beats from presumed-dead attempts) seen.
    pub fn late_beats(&self) -> u64 {
        self.monitor.late_beats()
    }

    /// What the detector knew when it presumed this attempt crashed
    /// (`None` if the attempt was never presumed dead).
    pub fn suspicion(&self, task: TaskId) -> Option<SuspicionInfo> {
        self.records.get(&task).and_then(|r| r.suspicion)
    }

    /// *Live* suspicion level φ for a watched attempt at `now` — available
    /// before any presumption, which is what makes pre-emptive decisions
    /// possible.  `None` under the fixed-timeout policy or for unwatched
    /// attempts.
    pub fn phi_level(&self, task: TaskId, now: f64) -> Option<f64> {
        self.monitor.phi(task, now)
    }

    /// Heartbeat-interval standard deviation for a watched attempt —
    /// the jitter term of the resilience-aware host score.  `None` under
    /// the fixed-timeout policy or before the window has samples.
    pub fn jitter(&self, task: TaskId) -> Option<f64> {
        self.monitor.jitter(task)
    }

    /// Registers a task attempt before submission.  `hb_interval` /
    /// `hb_tolerance` configure crash presumption; pass `hb_interval = 0`
    /// to disable heartbeat watching for this attempt.  An unwatched
    /// registration drops any watch a prior registration of the same id
    /// left, so the attempt can never be presumed crashed by its
    /// predecessor's silence.  The record lasts until [`Detector::forget`].
    pub fn register_task(&mut self, task: TaskId, hb_interval: f64, hb_tolerance: f64, now: f64) {
        self.records.insert(task, TaskRecord::new());
        if hb_interval > 0.0 {
            self.monitor.watch(task, hb_interval, hb_tolerance, now);
        } else {
            self.monitor.unwatch(task);
        }
    }

    /// Current observed state of an attempt (`None` if unregistered).
    pub fn state(&self, task: TaskId) -> Option<TaskState> {
        self.records.get(&task).map(|r| r.machine.current())
    }

    /// Drops an attempt's record and its heartbeat watch: nothing it sends
    /// later is classified, and it never holds a deadline again.  The
    /// engine forgets every attempt it closes except one presumed dead,
    /// whose record turns its post-mortem messages into
    /// [`Detection::Zombie`] and [`Detection::LateHeartbeat`].
    pub fn forget(&mut self, task: TaskId) {
        self.records.remove(&task);
        self.monitor.unwatch(task);
    }

    /// Earliest heartbeat deadline across live attempts — the next time the
    /// caller should invoke [`Detector::sweep`].  `None` when nothing is
    /// being watched.  Asks the monitor, which holds a watch only for a
    /// registered attempt not yet settled, forgotten or presumed dead.
    pub fn next_deadline(&self) -> Option<f64> {
        self.monitor.next_deadline()
    }

    fn mark_active(record: &mut TaskRecord) {
        if record.machine.current() == TaskState::Inactive {
            record
                .machine
                .transition(TaskState::Active)
                .expect("Inactive -> Active is legal");
        }
    }

    /// Processes one delivered notification.  `now` is the delivery time
    /// (send time plus transport delay).  Returns the detections (0 or 1;
    /// a `Vec` for uniformity with [`Detector::sweep`]).
    pub fn observe(&mut self, env: &Envelope, now: f64) -> Vec<Detection> {
        let Some(record) = self.records.get_mut(&env.task) else {
            return Vec::new(); // unknown attempt: stale or misrouted
        };
        if record.machine.is_settled() {
            // Late message after terminal classification.  When the attempt
            // was settled by *presumption* (not by an observed terminal
            // message), later evidence means the suspicion was false: the
            // attempt is a zombie, and the engine must get to journal that
            // instead of the message vanishing silently.  The attempt stays
            // settled either way — fencing, not revival.
            if record.presumed_dead {
                match &env.body {
                    Notification::Heartbeat { seq } => {
                        self.monitor.beat(env.task, *seq, now); // counted as Late
                        return vec![Detection::LateHeartbeat {
                            task: env.task,
                            at: now,
                            seq: *seq,
                        }];
                    }
                    Notification::Done | Notification::Exception { .. }
                        if !record.zombie_reported =>
                    {
                        record.zombie_reported = true;
                        let body = match &env.body {
                            Notification::Done => "done",
                            _ => "exception",
                        };
                        return vec![Detection::Zombie {
                            task: env.task,
                            at: now,
                            body,
                        }];
                    }
                    _ => {}
                }
            }
            return Vec::new();
        }
        match &env.body {
            Notification::Heartbeat { seq } => {
                Self::mark_active(record);
                self.monitor.beat(env.task, *seq, now);
                Vec::new()
            }
            Notification::TaskStart => {
                Self::mark_active(record);
                Vec::new()
            }
            Notification::TaskEnd => {
                Self::mark_active(record);
                record.saw_task_end = true;
                Vec::new()
            }
            Notification::Checkpoint { flag } => {
                Self::mark_active(record);
                vec![Detection::CheckpointRecorded {
                    task: env.task,
                    at: now,
                    flag: flag.clone(),
                }]
            }
            Notification::Exception { name, detail } => {
                record
                    .machine
                    .transition(TaskState::Exception)
                    .expect("non-terminal -> Exception is legal");
                self.monitor.unwatch(env.task);
                vec![Detection::ExceptionRaised {
                    task: env.task,
                    at: now,
                    name: name.clone(),
                    detail: detail.clone(),
                    known: self.registry.is_known(name),
                }]
            }
            Notification::Done => {
                let det = if record.saw_task_end {
                    record
                        .machine
                        .transition(TaskState::Done)
                        .expect("non-terminal -> Done is legal");
                    Detection::Completed {
                        task: env.task,
                        at: now,
                    }
                } else {
                    record
                        .machine
                        .transition(TaskState::Failed)
                        .expect("non-terminal -> Failed is legal");
                    Detection::Crashed {
                        task: env.task,
                        at: now,
                        reason: CrashReason::DoneWithoutTaskEnd,
                    }
                };
                self.monitor.unwatch(env.task);
                vec![det]
            }
        }
    }

    /// Checks heartbeat deadlines at time `now`, declaring presumed crashes.
    pub fn sweep(&mut self, now: f64) -> Vec<Detection> {
        let expired = self.monitor.expired(now);
        let mut out = Vec::with_capacity(expired.len());
        for task in expired {
            let silence = now - self.monitor.last_seen(task).unwrap_or(now);
            let phi = self.monitor.phi(task, now);
            let record = self
                .records
                .get_mut(&task)
                .expect("watched tasks are registered");
            if record.machine.is_settled() {
                continue;
            }
            record
                .machine
                .transition(TaskState::Failed)
                .expect("non-terminal -> Failed is legal");
            record.presumed_dead = true;
            record.suspicion = Some(SuspicionInfo { silence, phi });
            out.push(Detection::Crashed {
                task,
                at: now,
                reason: CrashReason::HeartbeatLoss,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exception::ExceptionDef;

    const T: TaskId = TaskId(1);

    fn env(body: Notification, at: f64) -> Envelope {
        Envelope::new(T, "host", at, body)
    }

    fn detector() -> Detector {
        let mut d = Detector::new();
        d.register_task(T, 1.0, 3.0, 0.0);
        d
    }

    #[test]
    fn task_end_then_done_is_completed() {
        let mut d = detector();
        assert!(d
            .observe(&env(Notification::TaskStart, 0.1), 0.1)
            .is_empty());
        assert!(d.observe(&env(Notification::TaskEnd, 5.0), 5.0).is_empty());
        let dets = d.observe(&env(Notification::Done, 5.1), 5.1);
        assert_eq!(dets, vec![Detection::Completed { task: T, at: 5.1 }]);
        assert_eq!(d.state(T), Some(TaskState::Done));
    }

    #[test]
    fn done_without_task_end_is_crash() {
        let mut d = detector();
        d.observe(&env(Notification::TaskStart, 0.1), 0.1);
        let dets = d.observe(&env(Notification::Done, 3.0), 3.0);
        assert_eq!(
            dets,
            vec![Detection::Crashed {
                task: T,
                at: 3.0,
                reason: CrashReason::DoneWithoutTaskEnd
            }]
        );
        assert_eq!(d.state(T), Some(TaskState::Failed));
    }

    #[test]
    fn heartbeat_loss_presumes_crash() {
        let mut d = detector();
        d.observe(&env(Notification::Heartbeat { seq: 0 }, 1.0), 1.0);
        assert!(d.sweep(3.9).is_empty());
        let dets = d.sweep(4.0);
        assert_eq!(
            dets,
            vec![Detection::Crashed {
                task: T,
                at: 4.0,
                reason: CrashReason::HeartbeatLoss
            }]
        );
        assert_eq!(d.state(T), Some(TaskState::Failed));
    }

    #[test]
    fn heartbeats_defer_presumption() {
        let mut d = detector();
        for i in 0..10 {
            d.observe(&env(Notification::Heartbeat { seq: i }, i as f64), i as f64);
            assert!(d.sweep(i as f64 + 0.5).is_empty());
        }
        assert!(d.sweep(11.9).is_empty());
        assert_eq!(d.sweep(12.0).len(), 1);
    }

    #[test]
    fn exception_classified_with_registry_knowledge() {
        let mut reg = ExceptionRegistry::new();
        reg.register(ExceptionDef::fatal("disk_full", "")).unwrap();
        let mut d = Detector::with_registry(reg);
        d.register_task(T, 1.0, 3.0, 0.0);
        let dets = d.observe(
            &env(
                Notification::Exception {
                    name: "disk_full".into(),
                    detail: "x".into(),
                },
                2.0,
            ),
            2.0,
        );
        match &dets[0] {
            Detection::ExceptionRaised { name, known, .. } => {
                assert_eq!(name, "disk_full");
                assert!(known);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(d.state(T), Some(TaskState::Exception));
    }

    #[test]
    fn unknown_exception_flagged() {
        let mut d = detector();
        let dets = d.observe(
            &env(
                Notification::Exception {
                    name: "tyop".into(),
                    detail: String::new(),
                },
                1.0,
            ),
            1.0,
        );
        match &dets[0] {
            Detection::ExceptionRaised { known, .. } => assert!(!known),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn checkpoint_flag_survives_crash() {
        let mut d = detector();
        let dets = d.observe(
            &env(
                Notification::Checkpoint {
                    flag: "ckpt-3".into(),
                },
                2.0,
            ),
            2.0,
        );
        assert_eq!(
            dets,
            vec![Detection::CheckpointRecorded {
                task: T,
                at: 2.0,
                flag: "ckpt-3".into()
            }]
        );
        d.observe(&env(Notification::Done, 3.0), 3.0); // crash
        assert_eq!(d.state(T), Some(TaskState::Failed));
    }

    #[test]
    fn later_checkpoint_replaces_earlier() {
        let mut d = detector();
        d.observe(
            &env(Notification::Checkpoint { flag: "c1".into() }, 1.0),
            1.0,
        );
        let dets = d.observe(
            &env(Notification::Checkpoint { flag: "c2".into() }, 2.0),
            2.0,
        );
        assert_eq!(
            dets,
            vec![Detection::CheckpointRecorded {
                task: T,
                at: 2.0,
                flag: "c2".into()
            }]
        );
    }

    #[test]
    fn late_messages_after_terminal_ignored() {
        let mut d = detector();
        d.observe(&env(Notification::Done, 1.0), 1.0); // crash classification
        let dets = d.observe(&env(Notification::TaskEnd, 1.1), 1.1);
        assert!(dets.is_empty());
        let dets = d.observe(&env(Notification::Done, 1.2), 1.2);
        assert!(dets.is_empty(), "duplicate Done ignored");
        assert_eq!(
            d.state(T),
            Some(TaskState::Failed),
            "classification is sticky"
        );
    }

    #[test]
    fn unknown_task_messages_ignored() {
        let mut d = Detector::new();
        let dets = d.observe(&env(Notification::Done, 1.0), 1.0);
        assert!(dets.is_empty());
        assert_eq!(d.state(T), None);
    }

    #[test]
    fn sweep_after_done_reports_nothing() {
        let mut d = detector();
        d.observe(&env(Notification::TaskEnd, 0.5), 0.5);
        d.observe(&env(Notification::Done, 0.6), 0.6);
        assert!(
            d.sweep(100.0).is_empty(),
            "completed task not presumed dead"
        );
    }

    #[test]
    fn tasks_without_heartbeat_watching() {
        let mut d = Detector::new();
        d.register_task(T, 0.0, 1.0, 0.0); // no watching
        assert!(d.sweep(1e9).is_empty());
        assert_eq!(d.next_deadline(), None);
    }

    #[test]
    fn an_unwatched_reregistration_drops_the_prior_watch() {
        let mut d = detector();
        d.register_task(T, 0.0, 1.0, 0.5);
        assert_eq!(d.next_deadline(), None);
        assert!(
            d.sweep(10.0).is_empty(),
            "an attempt that asked not to be watched is never presumed crashed"
        );
    }

    #[test]
    fn a_forgotten_attempt_is_neither_watched_nor_classified() {
        let mut d = detector();
        d.register_task(TaskId(2), 1.0, 3.0, 0.0);
        d.forget(T);
        assert_eq!(d.state(T), None);
        assert_eq!(d.next_deadline(), Some(3.0), "the other attempt's watch");
        d.forget(TaskId(2));
        assert_eq!(d.next_deadline(), None);
        assert!(d.sweep(1e9).is_empty());
        for body in [
            Notification::Heartbeat { seq: 0 },
            Notification::Checkpoint { flag: "c".into() },
            Notification::TaskEnd,
            Notification::Done,
        ] {
            assert!(d.observe(&env(body, 2.0), 2.0).is_empty());
        }
        assert_eq!(d.late_beats(), 0, "a forgotten attempt's beat is not late");
    }

    #[test]
    fn a_presumed_attempt_kept_yields_zombie_once_and_late_heartbeats() {
        let mut d = detector();
        d.register_task(TaskId(2), 1.0, 3.0, 0.0);
        assert_eq!(d.sweep(3.0).len(), 2, "both presumed");
        d.forget(TaskId(2));
        assert_eq!(d.next_deadline(), None, "a presumed watch has no deadline");
        assert_eq!(
            d.observe(&env(Notification::Heartbeat { seq: 4 }, 3.5), 3.5),
            vec![Detection::LateHeartbeat {
                task: T,
                at: 3.5,
                seq: 4
            }]
        );
        assert_eq!(
            d.observe(&env(Notification::Done, 4.0), 4.0),
            vec![Detection::Zombie {
                task: T,
                at: 4.0,
                body: "done"
            }]
        );
        assert!(d.observe(&env(Notification::Done, 4.1), 4.1).is_empty());
        for body in [Notification::Heartbeat { seq: 5 }, Notification::Done] {
            let forgotten = Envelope::new(TaskId(2), "host", 4.2, body);
            assert!(
                d.observe(&forgotten, 4.2).is_empty(),
                "forgotten: no evidence"
            );
        }
        assert_eq!(d.late_beats(), 1, "only the kept attempt's beat is late");
    }

    #[test]
    fn next_deadline_tracks_earliest() {
        let mut d = Detector::new();
        d.register_task(TaskId(1), 1.0, 3.0, 0.0);
        d.register_task(TaskId(2), 5.0, 2.0, 0.0);
        assert_eq!(d.next_deadline(), Some(3.0));
        d.observe(
            &Envelope::new(TaskId(1), "h", 2.0, Notification::Heartbeat { seq: 0 }),
            2.0,
        );
        assert_eq!(d.next_deadline(), Some(5.0), "task 1 deferred past task 2");
    }

    #[test]
    fn detection_accessors() {
        let c = Detection::Completed { task: T, at: 1.0 };
        assert_eq!(c.task(), T);
        assert!(c.is_terminal());
        let k = Detection::CheckpointRecorded {
            task: T,
            at: 1.0,
            flag: "f".into(),
        };
        assert!(!k.is_terminal());
        let z = Detection::Zombie {
            task: T,
            at: 1.0,
            body: "done",
        };
        assert_eq!(z.task(), T);
        assert!(!z.is_terminal(), "zombies never settle anything");
        let l = Detection::LateHeartbeat {
            task: T,
            at: 1.0,
            seq: 3,
        };
        assert!(!l.is_terminal());
    }

    #[test]
    fn zombie_done_after_presumption_surfaces_once() {
        let mut d = detector();
        d.observe(&env(Notification::Heartbeat { seq: 0 }, 1.0), 1.0);
        assert_eq!(d.sweep(4.0).len(), 1, "presumed dead");
        // The delayed terminal stream now straggles in.
        assert!(
            d.observe(&env(Notification::TaskEnd, 5.0), 5.0).is_empty(),
            "TaskEnd alone is not a completion"
        );
        let dets = d.observe(&env(Notification::Done, 5.1), 5.1);
        assert_eq!(
            dets,
            vec![Detection::Zombie {
                task: T,
                at: 5.1,
                body: "done"
            }]
        );
        assert!(
            d.observe(&env(Notification::Done, 5.2), 5.2).is_empty(),
            "a zombie is reported once per attempt"
        );
        assert_eq!(
            d.state(T),
            Some(TaskState::Failed),
            "the zombie never un-settles the attempt"
        );
    }

    #[test]
    fn zombie_exception_after_presumption_surfaces() {
        let mut d = detector();
        assert_eq!(d.sweep(3.0).len(), 1);
        let dets = d.observe(
            &env(
                Notification::Exception {
                    name: "late".into(),
                    detail: String::new(),
                },
                4.0,
            ),
            4.0,
        );
        assert_eq!(
            dets,
            vec![Detection::Zombie {
                task: T,
                at: 4.0,
                body: "exception"
            }]
        );
    }

    #[test]
    fn late_heartbeat_after_presumption_surfaces_and_counts() {
        let mut d = detector();
        assert_eq!(d.sweep(3.0).len(), 1);
        let dets = d.observe(&env(Notification::Heartbeat { seq: 7 }, 3.5), 3.5);
        assert_eq!(
            dets,
            vec![Detection::LateHeartbeat {
                task: T,
                at: 3.5,
                seq: 7
            }]
        );
        assert_eq!(d.late_beats(), 1);
        assert_eq!(
            d.observe(&env(Notification::Heartbeat { seq: 8 }, 3.6), 3.6)
                .len(),
            1,
            "every late beat surfaces"
        );
        assert_eq!(d.late_beats(), 2);
    }

    #[test]
    fn duplicate_done_after_real_completion_is_not_a_zombie() {
        let mut d = detector();
        d.observe(&env(Notification::TaskEnd, 1.0), 1.0);
        assert_eq!(d.observe(&env(Notification::Done, 1.1), 1.1).len(), 1);
        assert!(
            d.observe(&env(Notification::Done, 1.2), 1.2).is_empty(),
            "a duplicated Done after observed completion is mere noise"
        );
    }

    #[test]
    fn suspicion_info_recorded_at_presumption() {
        let mut d = detector();
        d.observe(&env(Notification::Heartbeat { seq: 0 }, 1.0), 1.0);
        assert_eq!(d.suspicion(T), None, "no suspicion before presumption");
        d.sweep(4.5);
        let info = d.suspicion(T).expect("recorded at presumption");
        assert!(
            (info.silence - 3.5).abs() < 1e-9,
            "silence {}",
            info.silence
        );
        assert_eq!(info.phi, None, "fixed timeout has no phi level");
    }

    #[test]
    fn phi_policy_end_to_end() {
        let mut d = Detector::new();
        d.set_policy(DetectorPolicy::PhiAccrual(PhiConfig {
            threshold: 4.0,
            window: 16,
            min_samples: 4,
        }));
        d.register_task(T, 1.0, 3.0, 0.0);
        let mut t = 0.0;
        for k in 0..10u64 {
            t += 1.0;
            d.observe(&env(Notification::Heartbeat { seq: k }, t), t);
        }
        // Warm window of regular beats: deadline is adaptive, tighter than
        // the fixed 3.0 tolerance would allow.
        let dl = d.next_deadline().expect("watched");
        assert!(dl < t + 3.0, "adaptive deadline {dl} tightens on {t}+3");
        let dets = d.sweep(dl);
        assert_eq!(dets.len(), 1, "silence past the phi deadline presumes");
        let info = d.suspicion(T).expect("suspicion recorded");
        let phi = info.phi.expect("phi policy records the level");
        assert!(phi > 2.0, "phi at presumption: {phi}");
    }

    #[test]
    fn fixed_timeout_tolerance_override() {
        let mut d = Detector::new();
        d.set_policy(DetectorPolicy::FixedTimeout {
            tolerance: Some(10.0),
        });
        d.register_task(T, 1.0, 3.0, 0.0);
        assert_eq!(
            d.next_deadline(),
            Some(10.0),
            "override wins over the per-activity tolerance"
        );
    }
}

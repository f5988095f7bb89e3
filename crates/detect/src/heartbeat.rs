//! Heartbeat-based crash presumption: the one monitor behind both
//! presumption policies.
//!
//! A host crash, a network partition, and a machine rebooted by its owner
//! all look the same from the engine's desk: heartbeats stop.  The monitor
//! declares an attempt *presumed crashed* once its heartbeats have been
//! silent for the watch's *margin*.  The margin comes from the
//! [`DetectorPolicy`]:
//!
//! * [`DetectorPolicy::FixedTimeout`], the paper's §3 service: the margin is
//!   `interval × tolerance`, with the policy's global tolerance override
//!   applied when the watch starts.  A fixed watch keeps no window.
//! * [`DetectorPolicy::PhiAccrual`] (see [`crate::phi`]): the watch windows
//!   its heartbeat inter-arrival times and, once `min_samples` are in, the
//!   margin becomes `(mean + std·z).max(interval)`.  A cold φ watch *is* a
//!   fixed watch: until it warms, its margin is `interval × tolerance`.
//!
//! Either way a watch's deadline is `last_seen + margin`.  The margin is
//! cached per watch and refreshed only by a beat that moves the window, so
//! the engine's per-step questions cost a lookup, not a pass over it.
//!
//! A late heartbeat after presumption does not revive the attempt (the
//! engine has already started recovery; the original system relied on the
//! job manager to reap orphans), but it is *evidence the presumption was
//! false* — [`HeartbeatMonitor::beat`] reports it as [`BeatOutcome::Late`]
//! and counts it, so false suspicions are observable rather than silently
//! discarded.

use std::collections::{HashMap, VecDeque};

use crate::detector::DetectorPolicy;
use crate::notify::TaskId;
use crate::phi;

/// Per-task heartbeat bookkeeping.
#[derive(Debug, Clone)]
struct Watch {
    interval: f64,
    last_seen: f64,
    last_seq: Option<u64>,
    presumed_dead: bool,
    /// Silence budget from `last_seen` to presumption.
    margin: f64,
    /// Inter-arrival times; a fixed watch's stays empty.
    window: VecDeque<f64>,
    /// `(mean, std)` of the window; `None` while it is empty.
    stats: Option<(f64, f64)>,
}

impl Watch {
    fn deadline(&self) -> Option<f64> {
        (!self.presumed_dead).then_some(self.last_seen + self.margin)
    }

    fn liveness(&self) -> Liveness {
        if self.presumed_dead {
            Liveness::PresumedDead
        } else {
            Liveness::Live
        }
    }
}

/// Liveness of a watch at the moment it was replaced or dropped (see
/// [`HeartbeatMonitor::watch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// The prior watch had not (yet) presumed the task crashed.
    Live,
    /// The prior watch had already presumed the task crashed — replacing
    /// it revives the task, and the caller must decide whether that is
    /// intended.
    PresumedDead,
}

/// Outcome of recording one heartbeat (see [`HeartbeatMonitor::beat`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeatOutcome {
    /// The beat was recorded; the watch's deadline moved forward.
    Accepted,
    /// The task was already presumed dead: the beat does not revive it,
    /// but it proves the presumption was false.  Counted by the monitor.
    Late,
    /// No watch exists for this task; the beat was ignored.
    Unwatched,
}

impl BeatOutcome {
    /// True only for [`BeatOutcome::Accepted`].
    pub fn is_accepted(self) -> bool {
        self == BeatOutcome::Accepted
    }
}

/// Watches heartbeat streams and reports tasks whose stream went silent.
/// The default monitor runs the fixed timeout with no override.
#[derive(Debug, Clone, Default)]
pub struct HeartbeatMonitor {
    policy: DetectorPolicy,
    /// Under φ-accrual, z with P(silence ≥ mean + z·std) = 10^-threshold.
    z: f64,
    watches: HashMap<TaskId, Watch>,
    late_beats: u64,
}

impl HeartbeatMonitor {
    /// An empty monitor presuming by `policy`.
    ///
    /// # Panics
    /// Panics on a [`PhiConfig`](crate::phi::PhiConfig) whose threshold is
    /// not finite and positive, whose `min_samples` is 0, or whose window
    /// holds fewer than `min_samples` intervals.
    pub fn new(policy: DetectorPolicy) -> Self {
        let z = match &policy {
            DetectorPolicy::FixedTimeout { .. } => 0.0,
            DetectorPolicy::PhiAccrual(config) => config.z(),
        };
        HeartbeatMonitor {
            policy,
            z,
            watches: HashMap::new(),
            late_beats: 0,
        }
    }

    /// Starts watching a task.  `interval` is the expected heartbeat period;
    /// the task is presumed crashed after `tolerance * interval` of silence
    /// (measured from `now` or from the last heartbeat) — under φ-accrual
    /// only until the window warms up, after which `interval` just floors
    /// the margin and the deviation.  A fixed policy's override replaces
    /// `tolerance`.
    ///
    /// Re-registration is explicit: if the task was already watched, the
    /// prior watch is replaced and its [`Liveness`] returned — in
    /// particular [`Liveness::PresumedDead`] when the replaced watch had
    /// already presumed the task crashed, so a re-watch can never *silently*
    /// revive an attempt the engine believes is dead.  Returns `None` for a
    /// fresh registration.
    ///
    /// # Panics
    /// Panics unless `interval > 0` and `tolerance >= 1`.
    pub fn watch(
        &mut self,
        task: TaskId,
        interval: f64,
        tolerance: f64,
        now: f64,
    ) -> Option<Liveness> {
        let (tolerance, window) = match &self.policy {
            DetectorPolicy::FixedTimeout { tolerance: global } => {
                (global.unwrap_or(tolerance), VecDeque::new())
            }
            DetectorPolicy::PhiAccrual(c) => (tolerance, VecDeque::with_capacity(c.window)),
        };
        assert!(interval > 0.0, "heartbeat interval must be positive");
        assert!(tolerance >= 1.0, "tolerance below one interval is nonsense");
        let watch = Watch {
            interval,
            last_seen: now,
            last_seq: None,
            presumed_dead: false,
            margin: interval * tolerance,
            window,
            stats: None,
        };
        self.watches.insert(task, watch).map(|w| w.liveness())
    }

    /// Stops watching (attempt reached a terminal state through other
    /// means), returning the dropped watch's [`Liveness`], if there was one.
    pub fn unwatch(&mut self, task: TaskId) -> Option<Liveness> {
        self.watches.remove(&task).map(|w| w.liveness())
    }

    /// Records a heartbeat.  Out-of-order sequence numbers are tolerated
    /// but do not move `last_seen` backwards; under φ-accrual a beat that
    /// moves `last_seen` feeds the window and refreshes the margin.  A beat
    /// from a presumed-dead task is reported as [`BeatOutcome::Late`] and
    /// counted (the watch stays dead); a beat for an unknown task is
    /// [`BeatOutcome::Unwatched`].
    pub fn beat(&mut self, task: TaskId, seq: u64, now: f64) -> BeatOutcome {
        let Some(w) = self.watches.get_mut(&task) else {
            return BeatOutcome::Unwatched;
        };
        if w.presumed_dead {
            self.late_beats += 1;
            return BeatOutcome::Late;
        }
        if w.last_seq.is_none_or(|s| seq >= s) {
            w.last_seq = Some(seq);
        }
        if now > w.last_seen {
            if let DetectorPolicy::PhiAccrual(c) = &self.policy {
                if w.window.len() == c.window {
                    w.window.pop_front();
                }
                w.window.push_back(now - w.last_seen);
                let (mean, std) = phi::window_stats(&w.window, w.interval);
                w.stats = Some((mean, std));
                if w.window.len() >= c.min_samples {
                    w.margin = (mean + std * self.z).max(w.interval);
                }
            }
            w.last_seen = now;
        }
        BeatOutcome::Accepted
    }

    /// Number of late beats seen (heartbeats from tasks already presumed
    /// dead) — each one is a presumption proven false after the fact.
    pub fn late_beats(&self) -> u64 {
        self.late_beats
    }

    /// Deadline at which this task will be presumed crashed if no further
    /// heartbeat arrives: `last_seen + margin`.  `None` if unwatched or
    /// already presumed dead.
    pub fn deadline(&self, task: TaskId) -> Option<f64> {
        self.watches.get(&task)?.deadline()
    }

    /// Earliest [`HeartbeatMonitor::deadline`] over the watches not yet
    /// presumed dead; `None` when there is none.
    pub fn next_deadline(&self) -> Option<f64> {
        self.watches
            .values()
            .filter_map(Watch::deadline)
            .min_by(f64::total_cmp)
    }

    /// Sweeps all watches at time `now`, returning the tasks newly presumed
    /// crashed (each is reported exactly once).
    pub fn expired(&mut self, now: f64) -> Vec<TaskId> {
        let mut out: Vec<TaskId> = self
            .watches
            .iter_mut()
            .filter(|(_, w)| w.deadline().is_some_and(|d| now >= d))
            .map(|(task, w)| {
                w.presumed_dead = true;
                *task
            })
            .collect();
        out.sort_unstable(); // deterministic report order
        out
    }

    /// True if the task is currently watched and not presumed dead.
    pub fn is_live(&self, task: TaskId) -> bool {
        self.watches.get(&task).is_some_and(|w| !w.presumed_dead)
    }

    /// Time of the last heartbeat (or the watch start), even after the
    /// task has been presumed dead — the silence at presumption time is
    /// `now - last_seen`.
    pub fn last_seen(&self, task: TaskId) -> Option<f64> {
        self.watches.get(&task).map(|w| w.last_seen)
    }

    /// Highest sequence number seen for a task.
    pub fn last_seq(&self, task: TaskId) -> Option<u64> {
        self.watches.get(&task).and_then(|w| w.last_seq)
    }

    /// Current suspicion level φ for a task at `now`.  A cold window scales
    /// the fixed margin onto the φ axis (φ = threshold exactly at the fixed
    /// deadline), so the level is comparable across both regimes.  `None`
    /// under the fixed timeout or if the task is unwatched.
    pub fn phi(&self, task: TaskId, now: f64) -> Option<f64> {
        let DetectorPolicy::PhiAccrual(c) = &self.policy else {
            return None;
        };
        let w = self.watches.get(&task)?;
        let elapsed = (now - w.last_seen).max(0.0);
        if w.window.len() < c.min_samples {
            return Some(c.threshold * elapsed / w.margin);
        }
        let stats = w.stats.expect("a warm window is not empty");
        Some(phi::level(elapsed, stats))
    }

    /// Number of inter-arrival samples currently windowed for a task (0
    /// under the fixed timeout).
    pub fn samples(&self, task: TaskId) -> usize {
        self.watches.get(&task).map_or(0, |w| w.window.len())
    }

    /// Windowed inter-arrival standard deviation for a task — the
    /// heartbeat *jitter*, an early-warning signal (a host whose beats
    /// grow erratic is often about to miss them entirely).  `None` under
    /// the fixed timeout, which keeps no window, and until the window has
    /// a sample.
    pub fn jitter(&self, task: TaskId) -> Option<f64> {
        self.watches.get(&task)?.stats.map(|(_, std)| std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T1: TaskId = TaskId(1);
    const T2: TaskId = TaskId(2);

    #[test]
    fn silence_triggers_presumption() {
        let mut m = HeartbeatMonitor::default();
        m.watch(T1, 1.0, 3.0, 0.0);
        assert!(m.expired(2.9).is_empty());
        assert_eq!(m.expired(3.0), vec![T1]);
    }

    #[test]
    fn heartbeats_push_deadline_forward() {
        let mut m = HeartbeatMonitor::default();
        m.watch(T1, 1.0, 3.0, 0.0);
        assert!(m.beat(T1, 0, 1.0).is_accepted());
        assert!(m.beat(T1, 1, 2.0).is_accepted());
        assert_eq!(m.deadline(T1), Some(5.0));
        assert!(m.expired(4.9).is_empty());
        assert_eq!(m.expired(5.0), vec![T1]);
    }

    #[test]
    fn presumption_reported_once() {
        let mut m = HeartbeatMonitor::default();
        m.watch(T1, 1.0, 2.0, 0.0);
        assert_eq!(m.expired(10.0), vec![T1]);
        assert!(m.expired(20.0).is_empty(), "no duplicate reports");
        assert!(!m.is_live(T1));
    }

    #[test]
    fn late_heartbeat_after_presumption_is_distinct_and_counted() {
        let mut m = HeartbeatMonitor::default();
        m.watch(T1, 1.0, 2.0, 0.0);
        m.expired(10.0);
        assert_eq!(m.beat(T1, 5, 10.5), BeatOutcome::Late);
        assert_eq!(m.beat(T1, 6, 11.5), BeatOutcome::Late);
        assert_eq!(m.late_beats(), 2, "each late beat is counted");
        assert!(!m.is_live(T1), "a late beat never revives the attempt");
        assert_eq!(m.deadline(T1), None, "still no deadline after late beats");
    }

    #[test]
    fn rewatch_returns_prior_liveness_instead_of_silent_revival() {
        let mut m = HeartbeatMonitor::default();
        assert_eq!(m.watch(T1, 1.0, 3.0, 0.0), None, "fresh watch: no prior");
        assert_eq!(
            m.watch(T1, 1.0, 3.0, 1.0),
            Some(Liveness::Live),
            "re-watch of a live task discloses it was already watched"
        );
        assert_eq!(m.expired(10.0), vec![T1]);
        assert_eq!(
            m.watch(T1, 1.0, 3.0, 10.0),
            Some(Liveness::PresumedDead),
            "re-watch of a presumed-dead task must surface the prior \
             presumption, not silently revive the attempt"
        );
        assert!(m.is_live(T1), "the replacement watch is live going forward");
        assert_eq!(
            m.expired(20.0),
            vec![T1],
            "the replacement watch expires on its own schedule"
        );
    }

    #[test]
    fn unwatch_stops_reports() {
        let mut m = HeartbeatMonitor::default();
        m.watch(T1, 1.0, 2.0, 0.0);
        m.unwatch(T1);
        assert!(m.expired(100.0).is_empty());
        assert!(!m.is_live(T1));
    }

    #[test]
    fn multiple_tasks_tracked_independently() {
        let mut m = HeartbeatMonitor::default();
        m.watch(T1, 1.0, 2.0, 0.0);
        m.watch(T2, 5.0, 2.0, 0.0);
        m.beat(T2, 0, 1.0);
        assert_eq!(
            m.expired(3.0),
            vec![T1],
            "only the silent short-interval task"
        );
        assert!(m.is_live(T2));
        assert_eq!(m.expired(11.0), vec![T2]);
    }

    #[test]
    fn expired_reports_in_task_order() {
        let mut m = HeartbeatMonitor::default();
        m.watch(TaskId(9), 1.0, 1.0, 0.0);
        m.watch(TaskId(3), 1.0, 1.0, 0.0);
        m.watch(TaskId(5), 1.0, 1.0, 0.0);
        assert_eq!(m.expired(2.0), vec![TaskId(3), TaskId(5), TaskId(9)]);
    }

    #[test]
    fn seq_tracking_tolerates_reordering() {
        let mut m = HeartbeatMonitor::default();
        m.watch(T1, 1.0, 3.0, 0.0);
        m.beat(T1, 2, 1.0);
        m.beat(T1, 1, 1.5); // late, lower seq
        assert_eq!(m.last_seq(T1), Some(2));
        assert_eq!(m.deadline(T1), Some(4.5), "time still advanced");
    }

    #[test]
    fn beat_for_unwatched_task_rejected() {
        let mut m = HeartbeatMonitor::default();
        assert_eq!(m.beat(T1, 0, 1.0), BeatOutcome::Unwatched);
        assert_eq!(m.late_beats(), 0, "unwatched beats are not late beats");
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        HeartbeatMonitor::default().watch(T1, 0.0, 2.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "tolerance below one interval")]
    fn sub_one_tolerance_rejected() {
        HeartbeatMonitor::default().watch(T1, 1.0, 0.5, 0.0);
    }
}

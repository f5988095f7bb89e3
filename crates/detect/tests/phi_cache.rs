//! Every watch of the one heartbeat monitor caches its presumption
//! margin, and a φ watch its window statistics too, refreshed only when a
//! beat changes the window.  These properties check the cache against a
//! reference that recomputes every answer from the window on every
//! question, with the formulas kept here: `deadline`, `phi`, `jitter`,
//! `expired` and `next_deadline` must agree bit for bit (`f64::to_bits`),
//! over random configurations and random `watch`/`beat`/`unwatch`/`expired`
//! sequences — out-of-order sequence numbers, beats at equal or earlier
//! times, beats after presumption.  Both run under all three policies:
//! the fixed timeout, the fixed timeout with a global tolerance override,
//! and φ-accrual; the second checks `Detector::next_deadline`.

use std::collections::{HashMap, VecDeque};

use gridwfs_detect::notify::{Envelope, Notification, TaskId};
use gridwfs_detect::phi::{normal_cdf, normal_quantile};
use gridwfs_detect::{
    BeatOutcome, Detector, DetectorPolicy, HeartbeatMonitor, Liveness, PhiConfig,
};
use gridwfs_sim::check::{self, forall};
use gridwfs_sim::rng::Rng;

/// One watch of the reference monitor.
struct RefWatch {
    interval: f64,
    tolerance: f64,
    window: VecDeque<f64>,
    last_seen: f64,
    last_seq: Option<u64>,
    dead: bool,
}

impl RefWatch {
    fn stats(&self) -> (f64, f64) {
        let n = self.window.len() as f64;
        let mean = self.window.iter().sum::<f64>() / n;
        let var = self.window.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt().max(self.interval * 0.1))
    }
}

/// A monitor that derives every answer from the raw window each time it
/// is asked: the fixed timeout when `phi` is `None`, else φ-accrual.
struct Reference {
    phi: Option<PhiConfig>,
    /// The fixed policy's global tolerance override.
    tolerance: Option<f64>,
    watches: HashMap<TaskId, RefWatch>,
    late: u64,
}

impl Reference {
    fn new(phi: Option<PhiConfig>, tolerance: Option<f64>) -> Self {
        Reference {
            phi,
            tolerance,
            watches: HashMap::new(),
            late: 0,
        }
    }

    fn watch(&mut self, task: TaskId, interval: f64, tolerance: f64, now: f64) -> Option<Liveness> {
        let tolerance = self.tolerance.unwrap_or(tolerance);
        let prior = self.unwatch(task);
        self.watches.insert(
            task,
            RefWatch {
                interval,
                tolerance,
                window: VecDeque::new(),
                last_seen: now,
                last_seq: None,
                dead: false,
            },
        );
        prior
    }

    fn unwatch(&mut self, task: TaskId) -> Option<Liveness> {
        let w = self.watches.remove(&task)?;
        Some(if w.dead {
            Liveness::PresumedDead
        } else {
            Liveness::Live
        })
    }

    fn beat(&mut self, task: TaskId, seq: u64, now: f64) -> BeatOutcome {
        let cap = self.phi.as_ref().map(|c| c.window);
        match self.watches.get_mut(&task) {
            Some(w) if !w.dead => {
                if w.last_seq.is_none_or(|s| seq >= s) {
                    w.last_seq = Some(seq);
                }
                if now > w.last_seen {
                    if let Some(cap) = cap {
                        if w.window.len() == cap {
                            w.window.pop_front();
                        }
                        w.window.push_back(now - w.last_seen);
                    }
                    w.last_seen = now;
                }
                BeatOutcome::Accepted
            }
            Some(_) => {
                self.late += 1;
                BeatOutcome::Late
            }
            None => BeatOutcome::Unwatched,
        }
    }

    fn margin(&self, w: &RefWatch) -> f64 {
        match &self.phi {
            Some(c) if w.window.len() >= c.min_samples => {
                let (mean, std) = w.stats();
                let z = -normal_quantile(10f64.powf(-c.threshold));
                (mean + std * z).max(w.interval)
            }
            _ => w.interval * w.tolerance,
        }
    }

    fn deadline(&self, task: TaskId) -> Option<f64> {
        let w = self.watches.get(&task).filter(|w| !w.dead)?;
        Some(w.last_seen + self.margin(w))
    }

    fn phi(&self, task: TaskId, now: f64) -> Option<f64> {
        let c = self.phi.as_ref()?;
        let w = self.watches.get(&task)?;
        let elapsed = (now - w.last_seen).max(0.0);
        if w.window.len() < c.min_samples {
            return Some(c.threshold * elapsed / (w.interval * w.tolerance));
        }
        let (mean, std) = w.stats();
        let p_later = 1.0 - normal_cdf((elapsed - mean) / std);
        Some(-(p_later.max(1e-15)).log10())
    }

    fn jitter(&self, task: TaskId) -> Option<f64> {
        self.phi.as_ref()?;
        let w = self.watches.get(&task).filter(|w| !w.window.is_empty())?;
        Some(w.stats().1)
    }

    fn expired(&mut self, now: f64) -> Vec<TaskId> {
        let due: Vec<TaskId> = self
            .watches
            .iter()
            .filter(|(_, w)| !w.dead && now >= w.last_seen + self.margin(w))
            .map(|(t, _)| *t)
            .collect();
        for t in &due {
            self.watches.get_mut(t).expect("due").dead = true;
        }
        let mut out = due;
        out.sort_unstable();
        out
    }

    /// The minimum over `tasks` of their deadlines — the historical
    /// `Detector::next_deadline`, which asked every registered attempt.
    fn next_deadline(&self, tasks: impl Iterator<Item = TaskId>) -> Option<f64> {
        tasks
            .filter_map(|t| self.deadline(t))
            .min_by(|a, b| a.partial_cmp(b).expect("deadlines are finite"))
    }
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

fn config(rng: &mut Rng) -> PhiConfig {
    let min_samples = check::between(rng, 1..12);
    PhiConfig {
        threshold: rng.range_f64(0.5, 14.0),
        window: min_samples + rng.index(20),
        min_samples,
    }
}

/// Policy `kind` — 0 φ-accrual, 1 the fixed timeout, 2 the fixed timeout
/// with a global tolerance override — with a random configuration, and
/// the reference that models it.
fn policy(rng: &mut Rng, kind: usize) -> (DetectorPolicy, Reference) {
    match kind {
        0 => {
            let cfg = config(rng);
            (
                DetectorPolicy::PhiAccrual(cfg.clone()),
                Reference::new(Some(cfg), None),
            )
        }
        1 => (
            DetectorPolicy::FixedTimeout { tolerance: None },
            Reference::new(None, None),
        ),
        _ => {
            let tolerance = rng.range_f64(1.0, 8.0);
            (
                DetectorPolicy::FixedTimeout {
                    tolerance: Some(tolerance),
                },
                Reference::new(None, Some(tolerance)),
            )
        }
    }
}

/// The next event time: mostly forward, sometimes the same instant (an
/// equal-time beat), sometimes a little earlier (a beat that arrived
/// behind one already seen).
fn advance(rng: &mut Rng, t: f64) -> (f64, f64) {
    let t = t + match rng.index(5) {
        0 => 0.0,
        _ => rng.range_f64(0.0, 2.5),
    };
    let at = if rng.index(8) == 0 {
        t - rng.range_f64(0.0, 1.0)
    } else {
        t
    };
    (t, at)
}

/// A sequence number around `next`, sometimes repeated or behind.
fn seq(rng: &mut Rng, next: &mut u64) -> u64 {
    *next += 1;
    next.saturating_sub(rng.index(4) as u64)
}

#[test]
fn the_phi_cache_answers_like_a_recomputation() {
    // Every policy runs the same 300 seeds.
    for kind in 0..3 {
        forall(300, &[], |rng| {
            let (policy, mut reference) = policy(rng, kind);
            let label = format!("{policy:?}");
            let mut det = HeartbeatMonitor::new(policy);
            let tasks: Vec<TaskId> = (1..=1 + rng.index(4) as u64).map(TaskId).collect();
            let (mut t, mut next_seq) = (0.0, 0u64);
            for _ in 0..check::between(rng, 10..200) {
                let (now, at) = advance(rng, t);
                t = now;
                let task = tasks[rng.index(tasks.len())];
                match rng.index(20) {
                    0..=1 => {
                        let (interval, tolerance) =
                            (rng.range_f64(0.2, 3.0), rng.range_f64(1.0, 6.0));
                        assert_eq!(
                            det.watch(task, interval, tolerance, at),
                            reference.watch(task, interval, tolerance, at)
                        );
                    }
                    2 => assert_eq!(det.unwatch(task), reference.unwatch(task)),
                    3..=4 => {
                        assert_eq!(det.expired(now), reference.expired(now), "expired({now})")
                    }
                    _ => {
                        let s = seq(rng, &mut next_seq);
                        assert_eq!(det.beat(task, s, at), reference.beat(task, s, at));
                    }
                }
                for &task in &tasks {
                    assert_eq!(
                        bits(det.deadline(task)),
                        bits(reference.deadline(task)),
                        "{label}: deadline({task:?})"
                    );
                    for probe in [now, now + 0.5, now + 4.0] {
                        assert_eq!(
                            bits(det.phi(task, probe)),
                            bits(reference.phi(task, probe)),
                            "{label}: phi({task:?}, {probe})"
                        );
                    }
                    assert_eq!(bits(det.jitter(task)), bits(reference.jitter(task)));
                    let w = reference.watches.get(&task);
                    assert_eq!(det.is_live(task), w.is_some_and(|w| !w.dead));
                    assert_eq!(det.samples(task), w.map_or(0, |w| w.window.len()));
                    assert_eq!(det.last_seq(task), w.and_then(|w| w.last_seq));
                }
                assert_eq!(
                    bits(det.next_deadline()),
                    bits(reference.next_deadline(tasks.iter().copied())),
                    "{label}: next_deadline"
                );
                assert_eq!(det.late_beats(), reference.late);
            }
        });
    }
}

/// What the reference detector knows of a registered attempt.
#[derive(Default)]
struct RefRecord {
    settled: bool,
    presumed: bool,
}

#[test]
fn detector_next_deadline_asks_only_live_watches_and_answers_the_same() {
    forall(300, &[], |rng| {
        let kind = rng.index(3);
        let (policy, mut reference) = policy(rng, kind);
        let mut det = Detector::new();
        det.set_policy(policy);
        let mut records: HashMap<TaskId, RefRecord> = HashMap::new();
        let (mut t, mut next_seq) = (0.0, 0u64);
        let mut next_task = 1u64;
        for _ in 0..check::between(rng, 10..200) {
            let (now, at) = advance(rng, t);
            t = now;
            let mut known: Vec<TaskId> = records.keys().copied().collect();
            known.sort_unstable(); // the seed alone picks the attempt
            let pick = |rng: &mut Rng| known.get(rng.index(known.len().max(1))).copied();
            match rng.index(20) {
                0..=2 => {
                    // A fresh attempt, or (rarely) a re-registration; an
                    // interval of 0 registers the attempt unwatched and
                    // drops any watch its predecessor left.
                    let task = match pick(rng) {
                        Some(task) if rng.index(6) == 0 => task,
                        _ => {
                            next_task += 1;
                            TaskId(next_task)
                        }
                    };
                    let interval = if rng.index(6) == 0 {
                        0.0
                    } else {
                        rng.range_f64(0.2, 3.0)
                    };
                    let tolerance = rng.range_f64(1.0, 6.0);
                    det.register_task(task, interval, tolerance, at);
                    records.insert(task, RefRecord::default());
                    if interval > 0.0 {
                        reference.watch(task, interval, tolerance, at);
                    } else {
                        reference.unwatch(task);
                    }
                }
                3..=4 => {
                    if let Some(task) = pick(rng) {
                        det.observe(&Envelope::new(task, "h", at, Notification::TaskEnd), at);
                        det.observe(&Envelope::new(task, "h", at, Notification::Done), at);
                        let r = records.get_mut(&task).expect("known");
                        if !r.settled {
                            r.settled = true;
                            reference.unwatch(task);
                        }
                    }
                }
                5..=6 => {
                    let swept: Vec<TaskId> = det.sweep(now).iter().map(|d| d.task()).collect();
                    let mut want = Vec::new();
                    for task in reference.expired(now) {
                        let r = records
                            .get_mut(&task)
                            .expect("watched tasks are registered");
                        if !r.settled {
                            r.settled = true;
                            r.presumed = true;
                            want.push(task);
                        }
                    }
                    assert_eq!(swept, want, "sweep({now})");
                }
                _ => {
                    if let Some(task) = pick(rng) {
                        let s = seq(rng, &mut next_seq);
                        det.observe(
                            &Envelope::new(task, "h", at, Notification::Heartbeat { seq: s }),
                            at,
                        );
                        let r = &records[&task];
                        if !r.settled || r.presumed {
                            reference.beat(task, s, at);
                        }
                    }
                }
            }
            assert_eq!(
                bits(det.next_deadline()),
                bits(reference.next_deadline(records.keys().copied())),
                "next_deadline at {now}"
            );
            assert_eq!(det.late_beats(), reference.late);
        }
    });
}

//! Seeded properties of the φ-accrual detector, on
//! `gridwfs_sim::check::forall`: every run sees the same heartbeat
//! histories, and a failure names the seed that reproduces it.
//!
//! * Raising the threshold can only *remove* false suspicions — the
//!   presumption margin `mean + std·z(threshold)` is monotone in the
//!   threshold, so for a fixed arrival history the suspected set shrinks.
//! * A sender that really crashes is always presumed eventually, whatever
//!   the link did to its heartbeats beforehand.

use gridwfs_detect::notify::TaskId;
use gridwfs_detect::phi::PhiConfig;
use gridwfs_detect::{BeatOutcome, DetectorPolicy, HeartbeatMonitor};
use gridwfs_sim::check::forall;
use gridwfs_sim::rng::Rng;

/// Heartbeat arrival times for one trial: beats every interval, each
/// dropped with probability `drop_p`, survivors delayed by `U[0, jitter)`.
fn arrivals(rng: &mut Rng, beats: usize, drop_p: f64, jitter: f64) -> Vec<f64> {
    let mut out: Vec<f64> = (1..=beats)
        .filter_map(|k| {
            let dropped = rng.bernoulli(drop_p);
            let delay = rng.range_f64(0.0, jitter);
            (!dropped).then_some(k as f64 + delay)
        })
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Runs one live-sender trial and reports whether the detector falsely
/// suspected it before the horizon.
fn falsely_suspects(threshold: f64, history: &[f64], horizon: f64) -> bool {
    let task = TaskId(1);
    let mut det = HeartbeatMonitor::new(DetectorPolicy::PhiAccrual(PhiConfig {
        threshold,
        window: 32,
        min_samples: 8,
    }));
    det.watch(task, 1.0, 8.0, 0.0);
    for (seq, &at) in history.iter().enumerate() {
        if det.deadline(task).is_some_and(|d| d < at && d < horizon) {
            return true;
        }
        det.beat(task, seq as u64 + 1, at);
    }
    det.deadline(task).is_some_and(|d| d < horizon)
}

#[test]
fn false_suspicion_rate_is_monotone_non_increasing_in_threshold() {
    let thresholds = [1.0, 2.0, 4.0, 6.0, 8.0, 12.0];
    let trials = 200;
    // Generate each trial's history once so every threshold judges the
    // exact same lossy, jittery stream.
    let histories: Vec<Vec<f64>> = (0..trials)
        .map(|seed| arrivals(&mut Rng::seed_from_u64(seed), 140, 0.15, 0.6))
        .collect();
    let rates: Vec<usize> = thresholds
        .iter()
        .map(|&th| {
            histories
                .iter()
                .filter(|h| falsely_suspects(th, h, 120.0))
                .count()
        })
        .collect();
    for pair in rates.windows(2) {
        assert!(
            pair[0] >= pair[1],
            "raising the threshold must not add suspicions: {rates:?}"
        );
    }
    // The sweep is not degenerate: the tightest threshold suspects
    // someone, the loosest almost nobody.
    assert!(rates[0] > rates[rates.len() - 1], "{rates:?}");
}

#[test]
fn every_trial_is_monotone_not_just_the_aggregate() {
    // Stronger than the rate check: on each individual history, a tighter
    // threshold suspecting nobody implies the looser one does not either.
    forall(100, &[], |rng| {
        let history = arrivals(rng, 100, 0.2, 0.8);
        let mut prior = true;
        for th in [1.0, 3.0, 6.0, 9.0, 12.0] {
            let now = falsely_suspects(th, &history, 90.0);
            assert!(
                prior || !now,
                "threshold {th} suspects where a tighter one did not"
            );
            prior = now;
        }
    });
}

#[test]
fn a_real_crash_is_always_detected() {
    forall(200, &[], |rng| {
        let drop_p = rng.range_f64(0.0, 0.4);
        let jitter = rng.range_f64(0.0, 1.5);
        let crash_at = rng.range_f64(20.0, 60.0);
        let history = arrivals(rng, crash_at.floor() as usize, drop_p, jitter);
        let trial = format!("drop {drop_p:.2}, jitter {jitter:.2}");

        let task = TaskId(9);
        let mut det =
            HeartbeatMonitor::new(DetectorPolicy::PhiAccrual(PhiConfig::with_threshold(8.0)));
        det.watch(task, 1.0, 8.0, 0.0);
        for (seq, &at) in history.iter().enumerate() {
            det.beat(task, seq as u64 + 1, at);
        }
        let deadline = det
            .deadline(task)
            .expect("a watched task always has a deadline");
        assert!(deadline.is_finite(), "{trial}: infinite deadline");
        assert_eq!(det.expired(deadline - 1e-9), vec![], "{trial}: too early");
        assert_eq!(det.expired(deadline), vec![task], "{trial}");
        assert!(!det.is_live(task), "{trial}: still live after expiry");
        // Presumption is sticky: a wandering zombie beat is Late, and the
        // task is never reported expired twice.
        assert_eq!(
            det.beat(task, 10_000, deadline + 1.0),
            BeatOutcome::Late,
            "{trial}"
        );
        assert_eq!(det.expired(deadline + 2.0), vec![], "{trial}");
    });
}

#[test]
fn a_task_that_never_beats_falls_back_to_the_fixed_budget() {
    let task = TaskId(3);
    let mut det = HeartbeatMonitor::new(DetectorPolicy::PhiAccrual(PhiConfig::with_threshold(8.0)));
    det.watch(task, 2.0, 3.0, 10.0);
    // Cold window: the deadline is exactly interval × tolerance away.
    assert_eq!(det.deadline(task), Some(16.0));
    assert_eq!(det.expired(16.0), vec![task]);
}

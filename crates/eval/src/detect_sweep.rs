//! Failure-detection study (extension): fixed timeout vs φ-accrual.
//!
//! The paper's generic failure detection service (§3) presumes a crash
//! after a fixed silence budget.  Over a lossy, jittery link that constant
//! is always wrong in one direction; the φ-accrual margin policy adapts the
//! deadline to the inter-arrival times the link actually delivers.  Each
//! trial drives the one [`HeartbeatMonitor`], built for the policy under
//! study, through a single watch.  This module quantifies the trade on a
//! drop-probability × jitter grid with three metrics per policy:
//!
//! * **false-suspicion rate** — probability that a *live* sender is
//!   presumed crashed within the observation horizon;
//! * **mean detection latency** — time from a real crash to presumption;
//! * **mean completion time** — a task of fixed work restarted from
//!   scratch on every false suspicion (the engine's recovery model) until
//!   one attempt survives.
//!
//! The heartbeat channel is modelled directly (each beat dropped with
//! probability `drop_p`, else delayed by `base_delay + U[0, jitter)`, with
//! reordering allowed), so a cell costs microseconds and the sweep can run
//! at Monte-Carlo depth.  Everything is seeded: per-trial RNG substreams
//! come from [`Rng::split`], so results are bit-identical across runs.

use gridwfs_detect::heartbeat::HeartbeatMonitor;
use gridwfs_detect::notify::TaskId;
use gridwfs_detect::phi::PhiConfig;
use gridwfs_detect::DetectorPolicy;
use gridwfs_sim::rng::Rng;

/// The detection policy under study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorKind {
    /// Presume after `tolerance × interval` of silence, always.
    FixedTimeout {
        /// Silence budget in heartbeat intervals.
        tolerance: f64,
    },
    /// Presume once the accrual suspicion level reaches `threshold`.
    Phi {
        /// The φ threshold.
        threshold: f64,
    },
}

impl DetectorKind {
    /// Short label for tables and series legends.
    pub fn label(&self) -> String {
        match self {
            DetectorKind::FixedTimeout { tolerance } => format!("timeout x{tolerance}"),
            DetectorKind::Phi { threshold } => format!("phi {threshold}"),
        }
    }
}

/// The heartbeat link being traversed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Probability each heartbeat is dropped outright.
    pub drop_p: f64,
    /// Uniform extra delay bound per surviving beat (`U[0, jitter)`).
    pub jitter: f64,
}

/// Scenario constants shared by every cell of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectParams {
    /// Heartbeat emission interval.
    pub interval: f64,
    /// Fixed propagation delay applied to every surviving beat.
    pub base_delay: f64,
    /// Beats observed per liveness trial (the horizon is
    /// `horizon_beats × interval`).
    pub horizon_beats: usize,
    /// When the sender crashes in detection trials.
    pub crash_at: f64,
    /// Work units of the restart-model task.
    pub work: f64,
    /// Dead time charged per false restart.
    pub restart_cost: f64,
}

impl Default for DetectParams {
    fn default() -> Self {
        DetectParams {
            interval: 1.0,
            base_delay: 0.05,
            horizon_beats: 120,
            crash_at: 30.0,
            work: 30.0,
            restart_cost: 1.0,
        }
    }
}

/// One cell of the sweep: a (policy, link) pair's measured metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectPoint {
    /// Fraction of live-sender trials ending in presumption.
    pub false_suspicion_rate: f64,
    /// Mean time from crash to presumption.
    pub mean_detection_latency: f64,
    /// Mean completion time of the restart-model task.
    pub mean_completion_time: f64,
}

/// The one task each trial watches.
const TASK: TaskId = TaskId(1);

/// A monitor for `kind`, watching [`TASK`] from time 0.
fn watched(kind: DetectorKind, p: &DetectParams) -> HeartbeatMonitor {
    let (policy, tolerance) = match kind {
        DetectorKind::FixedTimeout { tolerance } => (DetectorPolicy::default(), tolerance),
        // A deep window and a generous cold-phase budget, so the measured
        // behaviour is the *warm adaptive* regime: a barely-warm window
        // that has not yet sampled a drop-induced gap under-estimates the
        // tail and fires on the first one.
        DetectorKind::Phi { threshold } => {
            let config = PhiConfig {
                threshold,
                window: 64,
                min_samples: 16,
            };
            (DetectorPolicy::PhiAccrual(config), 8.0)
        }
    };
    let mut monitor = HeartbeatMonitor::new(policy);
    monitor.watch(TASK, p.interval, tolerance, 0.0);
    monitor
}

/// Heartbeats surviving the link, as `(send_index, arrival_time)` sorted
/// by arrival (drops removed; reordering possible under jitter).
fn surviving_arrivals(
    link: &LinkParams,
    p: &DetectParams,
    beats: usize,
    rng: &mut Rng,
) -> Vec<(u64, f64)> {
    let mut out = Vec::with_capacity(beats);
    for k in 1..=beats {
        if link.drop_p > 0.0 && rng.bernoulli(link.drop_p) {
            continue;
        }
        let jitter = if link.jitter > 0.0 {
            rng.range_f64(0.0, link.jitter)
        } else {
            0.0
        };
        let sent = k as f64 * p.interval;
        out.push((k as u64, sent + p.base_delay + jitter));
    }
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    out
}

/// Feeds `arrivals` to a fresh detector and returns the first presumption
/// time, if the deadline ever passes without a saving beat.  After the last
/// arrival the final deadline is returned (there are no more beats to beat
/// it), so crash trials always detect.
fn first_presumption(kind: DetectorKind, p: &DetectParams, arrivals: &[(u64, f64)]) -> Option<f64> {
    let mut monitor = watched(kind, p);
    for &(seq, at) in arrivals {
        if let Some(d) = monitor.deadline(TASK) {
            if d < at {
                return Some(d);
            }
        }
        monitor.beat(TASK, seq, at);
    }
    monitor.deadline(TASK)
}

/// One liveness trial: the sender never crashes and keeps beating past the
/// horizon; any presumption before the horizon is false.  Returns the
/// false-suspicion time, if any.
fn liveness_trial(
    kind: DetectorKind,
    link: &LinkParams,
    p: &DetectParams,
    rng: &mut Rng,
) -> Option<f64> {
    // Generate beats past the horizon so end-of-stream silence (an artifact
    // of the trial, not of the link) cannot masquerade as a suspicion.
    let slack = 16;
    let horizon = p.horizon_beats as f64 * p.interval;
    let arrivals = surviving_arrivals(link, p, p.horizon_beats + slack, rng);
    first_presumption(kind, p, &arrivals).filter(|&t| t < horizon)
}

/// One detection trial: the sender crashes at `crash_at`; beats sent
/// before the crash still travel the link.  Returns presumption − crash,
/// or `None` when a false suspicion fired *before* the crash — that trial
/// is the false-suspicion metric's business, and folding its (negative)
/// latency in would reward trigger-happy detectors.
fn detection_trial(
    kind: DetectorKind,
    link: &LinkParams,
    p: &DetectParams,
    rng: &mut Rng,
) -> Option<f64> {
    let beats = (p.crash_at / p.interval).floor() as usize;
    let arrivals = surviving_arrivals(link, p, beats, rng);
    let detected = first_presumption(kind, p, &arrivals)
        .expect("a crashed sender is always eventually presumed");
    (detected >= p.crash_at).then_some(detected - p.crash_at)
}

/// One completion trial: a task of `work` units restarts from scratch on
/// every false suspicion until an attempt survives.  Returns the total
/// wall time (attempt count is capped; the cap is never reached at the
/// parameters this crate sweeps).
fn completion_trial(kind: DetectorKind, link: &LinkParams, p: &DetectParams, rng: &mut Rng) -> f64 {
    let attempt = DetectParams {
        horizon_beats: (p.work / p.interval).ceil() as usize,
        ..*p
    };
    let mut t = 0.0;
    for _ in 0..100 {
        match liveness_trial(kind, link, &attempt, rng) {
            Some(suspected_at) => t += suspected_at + p.restart_cost,
            None => return t + p.work,
        }
    }
    t + p.work
}

/// Measures one (policy, link) cell at Monte-Carlo depth `runs`.  Each
/// trial draws from its own [`Rng::split`] substream, so the point is
/// bit-identical for a given `seed` regardless of call order.
pub fn evaluate(
    kind: DetectorKind,
    link: LinkParams,
    p: &DetectParams,
    runs: usize,
    seed: u64,
) -> DetectPoint {
    assert!(runs > 0, "a zero-run estimate is meaningless");
    let root = Rng::seed_from_u64(seed);
    let (mut falses, mut completion) = (0usize, 0.0);
    let (mut latency, mut detections) = (0.0, 0usize);
    for i in 0..runs {
        let mut rng = root.split(i as u64);
        if liveness_trial(kind, &link, p, &mut rng).is_some() {
            falses += 1;
        }
        if let Some(l) = detection_trial(kind, &link, p, &mut rng) {
            latency += l;
            detections += 1;
        }
        completion += completion_trial(kind, &link, p, &mut rng);
    }
    DetectPoint {
        false_suspicion_rate: falses as f64 / runs as f64,
        // Conditional on the detector still trusting the sender at crash
        // time; NaN when no trial got that far (tighten the parameters).
        mean_detection_latency: latency / detections as f64,
        mean_completion_time: completion / runs as f64,
    }
}

/// The φ threshold whose mean detection latency is closest to the fixed
/// policy's, searched over `candidates` — the "matched latency" comparison
/// the dominance claim is stated at.  Returns the winning threshold and
/// its measured point.
pub fn matched_phi(
    fixed_latency: f64,
    candidates: &[f64],
    link: LinkParams,
    p: &DetectParams,
    runs: usize,
    seed: u64,
) -> (f64, DetectPoint) {
    assert!(!candidates.is_empty(), "need at least one candidate");
    candidates
        .iter()
        .map(|&th| {
            let point = evaluate(DetectorKind::Phi { threshold: th }, link, p, runs, seed);
            (th, point)
        })
        .min_by(|a, b| {
            let da = (a.1.mean_detection_latency - fixed_latency).abs();
            let db = (b.1.mean_detection_latency - fixed_latency).abs();
            da.total_cmp(&db)
        })
        .expect("candidates is non-empty")
}

/// The default sweep grid: drop probability × jitter (in intervals).
pub const DROP_GRID: [f64; 4] = [0.0, 0.1, 0.2, 0.3];
/// Jitter bounds of the default grid, in units of the heartbeat interval.
pub const JITTER_GRID: [f64; 3] = [0.0, 0.5, 1.0];

#[cfg(test)]
mod tests {
    use super::*;

    const RUNS: usize = 300;
    const SEED: u64 = 0xDE7EC7;

    fn lossy() -> LinkParams {
        LinkParams {
            drop_p: 0.2,
            jitter: 0.5,
        }
    }

    #[test]
    fn clean_link_suspects_nobody() {
        let p = DetectParams::default();
        let clean = LinkParams {
            drop_p: 0.0,
            jitter: 0.0,
        };
        for kind in [
            DetectorKind::FixedTimeout { tolerance: 3.0 },
            DetectorKind::Phi { threshold: 8.0 },
        ] {
            let point = evaluate(kind, clean, &p, RUNS, SEED);
            assert_eq!(point.false_suspicion_rate, 0.0, "{}", kind.label());
            assert!(point.mean_detection_latency > 0.0, "{}", kind.label());
            assert_eq!(point.mean_completion_time, p.work, "{}", kind.label());
        }
    }

    #[test]
    fn crashes_are_always_detected_with_positive_latency_on_a_clean_link() {
        let p = DetectParams::default();
        let clean = LinkParams {
            drop_p: 0.0,
            jitter: 0.0,
        };
        let fixed = evaluate(
            DetectorKind::FixedTimeout { tolerance: 3.0 },
            clean,
            &p,
            RUNS,
            SEED,
        );
        // Silence budget is 3 intervals from the last beat before the crash.
        assert!(fixed.mean_detection_latency > p.interval);
        assert!(fixed.mean_detection_latency < 5.0 * p.interval);
    }

    #[test]
    fn evaluate_is_deterministic_per_seed() {
        let p = DetectParams::default();
        let kind = DetectorKind::Phi { threshold: 6.0 };
        let a = evaluate(kind, lossy(), &p, RUNS, SEED);
        let b = evaluate(kind, lossy(), &p, RUNS, SEED);
        let c = evaluate(kind, lossy(), &p, RUNS, SEED + 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tighter_fixed_timeouts_suspect_more() {
        let p = DetectParams::default();
        let tight = evaluate(
            DetectorKind::FixedTimeout { tolerance: 2.0 },
            lossy(),
            &p,
            RUNS,
            SEED,
        );
        let loose = evaluate(
            DetectorKind::FixedTimeout { tolerance: 6.0 },
            lossy(),
            &p,
            RUNS,
            SEED,
        );
        assert!(tight.false_suspicion_rate > loose.false_suspicion_rate);
        assert!(tight.mean_detection_latency < loose.mean_detection_latency);
    }

    #[test]
    fn phi_dominates_fixed_at_matched_latency_on_the_lossy_cell() {
        // The acceptance-criterion grid point: drop_p 0.2, jitter 0.5.  At
        // the φ threshold whose detection latency matches the fixed x3
        // budget, the accrual detector must pay a strictly lower
        // false-suspicion rate.
        let p = DetectParams::default();
        let fixed = evaluate(
            DetectorKind::FixedTimeout { tolerance: 3.0 },
            lossy(),
            &p,
            RUNS,
            SEED,
        );
        let (threshold, phi) = matched_phi(
            fixed.mean_detection_latency,
            &[4.0, 6.0, 8.0, 10.0, 12.0],
            lossy(),
            &p,
            RUNS,
            SEED,
        );
        assert!(
            phi.false_suspicion_rate < fixed.false_suspicion_rate,
            "phi {threshold}: {} vs fixed {}",
            phi.false_suspicion_rate,
            fixed.false_suspicion_rate
        );
        // Matched means matched: within one heartbeat interval.
        assert!(
            (phi.mean_detection_latency - fixed.mean_detection_latency).abs() <= p.interval,
            "latencies diverge: phi {} vs fixed {}",
            phi.mean_detection_latency,
            fixed.mean_detection_latency
        );
        // And the restart model feels it.
        assert!(phi.mean_completion_time <= fixed.mean_completion_time);
    }
}

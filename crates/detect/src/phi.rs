//! Adaptive φ-accrual failure detection (Hayashibara et al., SRDS 2004):
//! the configuration and the math of the φ margin policy that
//! [`HeartbeatMonitor`](crate::heartbeat::HeartbeatMonitor) runs under
//! [`DetectorPolicy::PhiAccrual`](crate::detector::DetectorPolicy::PhiAccrual).
//!
//! The fixed-timeout policy presumes a crash after `tolerance × interval`
//! of silence, no matter what the network is doing.  Over a lossy or
//! jittery link that constant is always wrong in one direction: too tight
//! and every delay spike becomes a false suspicion, too loose and real
//! crashes take ages to detect.  The accrual policy instead keeps a
//! sliding window of observed heartbeat *inter-arrival* times per task and
//! expresses suspicion as a continuous level
//!
//! ```text
//! φ(t) = -log10( P(next heartbeat arrives later than t) )
//! ```
//!
//! under a normal approximation of the windowed inter-arrival distribution.
//! φ = 1 means the silence would be exceeded by chance one time in ten,
//! φ = 8 one time in 10⁸.  Crossing a configurable threshold presumes the
//! crash.  Because the window tracks what the link actually delivers, the
//! deadline automatically stretches under jitter and drop-induced gaps and
//! tightens on quiet links — the adaptivity the paper's generic failure
//! detection service (§3) leaves to the transport.
//!
//! While the window is *cold* (fewer than `min_samples` observed
//! intervals) a φ watch *is* a fixed watch: its margin is the
//! `tolerance × interval` it was watched with, so a task that dies before
//! ever heartbeating is still detected promptly.  Once warm, the
//! presumption instant is computed *analytically* — the time at which φ
//! reaches the threshold is `last_seen + mean + std · z(threshold)` with
//! `z` the standard-normal quantile — so the engine's deadline-driven
//! sweep scheduling works unchanged and stays deterministic.  `z` depends
//! on the threshold alone and is computed once per monitor; the monitor
//! caches each watch's window statistics and margin, refreshed only by a
//! beat that moves the window.

use std::collections::VecDeque;

/// Tuning knobs for the φ-accrual policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PhiConfig {
    /// Suspicion threshold: presume a crash once φ ≥ `threshold`.
    pub threshold: f64,
    /// Sliding-window capacity (number of inter-arrival samples kept).
    pub window: usize,
    /// Below this many samples the window is cold and the watch keeps
    /// the fixed `tolerance × interval` margin.
    pub min_samples: usize,
}

impl Default for PhiConfig {
    fn default() -> Self {
        PhiConfig {
            threshold: 8.0,
            window: 32,
            min_samples: 8,
        }
    }
}

impl PhiConfig {
    /// A config with the given threshold and default window sizing.
    ///
    /// # Panics
    /// Panics unless `threshold` is finite and positive.
    pub fn with_threshold(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "phi threshold must be finite and > 0"
        );
        PhiConfig {
            threshold,
            ..PhiConfig::default()
        }
    }

    /// The standard-normal quantile `z` with
    /// P(silence ≥ mean + z·std) = 10^-threshold: the one constant of a
    /// warm margin.
    ///
    /// # Panics
    /// Panics unless `threshold` is finite and positive, `min_samples` is
    /// at least 1 (an empty window has no statistics to be warm with) and
    /// `window` holds at least `min_samples` intervals (a smaller window
    /// never warms up).
    pub(crate) fn z(&self) -> f64 {
        assert!(
            self.threshold.is_finite() && self.threshold > 0.0,
            "PhiConfig::threshold must be finite and > 0"
        );
        assert!(
            self.min_samples > 0,
            "PhiConfig::min_samples must be at least 1"
        );
        assert!(
            self.window >= self.min_samples,
            "PhiConfig::window must hold at least min_samples intervals"
        );
        -normal_quantile(10f64.powf(-self.threshold))
    }
}

/// Windowed mean and standard deviation, with the deviation floored at a
/// tenth of the expected `interval` so a perfectly regular stream does not
/// collapse the distribution to a point (and one delayed beat to a certain
/// crash).  The window must not be empty.
pub(crate) fn window_stats(window: &VecDeque<f64>, interval: f64) -> (f64, f64) {
    let n = window.len() as f64;
    let mean = window.iter().sum::<f64>() / n;
    let var = window.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt().max(interval * 0.1))
}

/// φ of a silence of `elapsed` under a normal `(mean, std)` inter-arrival
/// model, capped at 15.
pub(crate) fn level(elapsed: f64, (mean, std): (f64, f64)) -> f64 {
    let p_later = 1.0 - normal_cdf((elapsed - mean) / std);
    -(p_later.max(1e-15)).log10()
}

/// Standard normal CDF via the Abramowitz & Stegun 7.1.26 erf
/// approximation (|ε| < 1.5·10⁻⁷) — pure arithmetic, fully deterministic.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal quantile (inverse CDF) via Acklam's rational
/// approximation (relative error < 1.15·10⁻⁹ over (0,1)).
///
/// # Panics
/// Panics unless `0 < p < 1`.
#[allow(clippy::excessive_precision)] // Acklam's published coefficients, verbatim
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::DetectorPolicy;
    use crate::heartbeat::{BeatOutcome, HeartbeatMonitor, Liveness};
    use crate::notify::TaskId;

    const T1: TaskId = TaskId(1);

    fn phi_monitor(config: PhiConfig) -> HeartbeatMonitor {
        HeartbeatMonitor::new(DetectorPolicy::PhiAccrual(config))
    }

    fn warm(det: &mut HeartbeatMonitor, interval: f64, beats: usize) -> f64 {
        det.watch(T1, interval, 3.0, 0.0);
        let mut t = 0.0;
        for k in 0..beats {
            t = (k + 1) as f64 * interval;
            assert!(det.beat(T1, k as u64, t).is_accepted());
        }
        t
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!(normal_cdf(-8.0) < 1e-14);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let z = normal_quantile(p);
            assert!((normal_cdf(z) - p).abs() < 1e-6, "p={p} z={z}");
        }
        // Deep tail: z for 10^-8 is about -5.61.
        let z = normal_quantile(1e-8);
        assert!((-5.7..-5.5).contains(&z), "z={z}");
    }

    #[test]
    fn cold_window_uses_fixed_timeout() {
        let mut det = phi_monitor(PhiConfig::default());
        det.watch(T1, 1.0, 3.0, 0.0);
        assert_eq!(det.deadline(T1), Some(3.0), "interval 1 x tolerance 3");
        assert!(det.expired(2.9).is_empty());
        assert_eq!(det.expired(3.0), vec![T1]);
    }

    #[test]
    fn warm_window_adapts_deadline_to_observed_regularity() {
        let mut det = phi_monitor(PhiConfig::with_threshold(8.0));
        let t = warm(&mut det, 1.0, 12);
        // Perfectly regular beats: margin = mean + z*std_floor
        //   = 1 + 5.61*0.1 ~ 1.56, i.e. tighter than the fixed 3.0.
        let d = det.deadline(T1).unwrap();
        assert!(
            d > t + 1.0 && d < t + 2.0,
            "regular stream tightens the deadline: {d} vs last {t}"
        );
    }

    #[test]
    fn jitter_widens_the_deadline() {
        let regular = {
            let mut det = phi_monitor(PhiConfig::with_threshold(8.0));
            let t = warm(&mut det, 1.0, 12);
            det.deadline(T1).unwrap() - t
        };
        let jittery = {
            let mut det = phi_monitor(PhiConfig::with_threshold(8.0));
            det.watch(T1, 1.0, 3.0, 0.0);
            // Alternating 0.5 / 1.5 inter-arrivals: same mean, high variance.
            let mut t = 0.0;
            for k in 0..12u64 {
                t += if k % 2 == 0 { 0.5 } else { 1.5 };
                det.beat(T1, k, t);
            }
            det.deadline(T1).unwrap() - t
        };
        assert!(
            jittery > regular + 1.0,
            "jitter must widen the margin: jittery {jittery} vs regular {regular}"
        );
    }

    #[test]
    fn deadline_margin_monotone_in_threshold() {
        let margin_at = |threshold: f64| {
            let mut det = phi_monitor(PhiConfig::with_threshold(threshold));
            det.watch(T1, 1.0, 3.0, 0.0);
            let mut t = 0.0;
            for k in 0..16u64 {
                t += if k % 3 == 0 { 1.4 } else { 0.8 };
                det.beat(T1, k, t);
            }
            det.deadline(T1).unwrap() - t
        };
        let mut prev = 0.0;
        for threshold in [1.0, 2.0, 4.0, 8.0, 12.0] {
            let m = margin_at(threshold);
            assert!(m >= prev, "threshold {threshold}: margin {m} < {prev}");
            prev = m;
        }
    }

    #[test]
    fn phi_grows_with_silence_and_crosses_threshold_at_deadline() {
        let mut det = phi_monitor(PhiConfig::with_threshold(8.0));
        let t = warm(&mut det, 1.0, 12);
        let d = det.deadline(T1).unwrap();
        let phi_early = det.phi(T1, t + 0.5).unwrap();
        let phi_mid = det.phi(T1, (t + d) / 2.0).unwrap();
        let phi_at_deadline = det.phi(T1, d).unwrap();
        assert!(phi_early < phi_mid && phi_mid < phi_at_deadline);
        // The analytic deadline and the φ level agree to approximation error.
        assert!(
            (phi_at_deadline - 8.0).abs() < 0.75,
            "phi at deadline {phi_at_deadline}"
        );
    }

    #[test]
    fn real_crash_is_always_detected() {
        let mut det = phi_monitor(PhiConfig::with_threshold(8.0));
        let t = warm(&mut det, 1.0, 20);
        // Stream stops.  Some finite deadline exists and expires.
        let d = det.deadline(T1).unwrap();
        assert!(d.is_finite() && d > t);
        assert!(det.expired(d - 1e-9).is_empty());
        assert_eq!(det.expired(d), vec![T1]);
        assert_eq!(det.beat(T1, 99, d + 1.0), BeatOutcome::Late);
        assert_eq!(det.late_beats(), 1);
    }

    #[test]
    fn rewatch_discloses_prior_liveness() {
        let mut det = phi_monitor(PhiConfig::default());
        assert_eq!(det.watch(T1, 1.0, 2.0, 0.0), None);
        assert_eq!(det.watch(T1, 1.0, 2.0, 0.5), Some(Liveness::Live));
        det.expired(10.0);
        assert_eq!(det.watch(T1, 1.0, 2.0, 10.0), Some(Liveness::PresumedDead));
    }

    fn config(threshold: f64, window: usize, min_samples: usize) -> PhiConfig {
        PhiConfig {
            threshold,
            window,
            min_samples,
        }
    }

    #[test]
    #[should_panic(expected = "PhiConfig::min_samples must be at least 1")]
    fn an_empty_window_cannot_be_warm() {
        // With no minimum, an empty window read as warm: its NaN mean
        // was folded away by `max`, the margin became one interval
        // whatever the tolerance, and φ read 15 for any silence.
        phi_monitor(config(8.0, 32, 0));
    }

    #[test]
    #[should_panic(expected = "PhiConfig::window must hold at least min_samples intervals")]
    fn a_window_smaller_than_min_samples_is_rejected() {
        phi_monitor(config(8.0, 4, 8));
    }

    #[test]
    #[should_panic(expected = "PhiConfig::window must hold at least min_samples intervals")]
    fn a_zero_window_is_rejected() {
        // `len() == 0` is false once a sample is in, so a zero-capacity
        // window never evicted and grew without bound.
        phi_monitor(config(8.0, 0, 1));
    }

    #[test]
    fn a_bad_threshold_is_rejected_by_new_as_by_with_threshold() {
        for threshold in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = std::panic::catch_unwind(|| phi_monitor(config(threshold, 32, 8)))
                .expect_err("bad threshold accepted");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(
                msg, "PhiConfig::threshold must be finite and > 0",
                "{threshold}"
            );
        }
    }

    #[test]
    fn the_shipped_configs_stay_legal() {
        for cfg in [
            PhiConfig::default(),
            config(4.0, 16, 4),
            config(8.0, 32, 8),
            config(8.0, 64, 16),
        ] {
            let mut det = phi_monitor(cfg);
            det.watch(T1, 1.0, 3.0, 0.0);
            assert_eq!(det.deadline(T1), Some(3.0), "cold until warm");
        }
    }

    #[test]
    fn window_is_bounded() {
        let mut det = phi_monitor(PhiConfig {
            window: 4,
            min_samples: 2,
            threshold: 8.0,
        });
        warm(&mut det, 1.0, 50);
        assert_eq!(det.samples(T1), 4);
    }
}

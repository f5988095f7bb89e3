//! The machine-speed reference.
//!
//! The sandbox gives the VM one core's worth of a shared host, and that
//! core's speed changes by up to a quarter for anything from a tenth of a
//! second to minutes (a neighbour on the sibling hyperthread, most
//! likely).  A time measured in one run is then not comparable with the
//! same time measured in the next.  So every timed stretch is bracketed by
//! two *slices* of a fixed kernel, and its times are scaled to what they
//! would have been had the kernel taken [`NOMINAL_S`]: a stretch measured
//! while the machine ran 20 % fast is reported 20 % longer.  Every
//! end-to-end time is reported at this reference speed; the per-layer
//! metrics are as measured.
//!
//! The kernel is register arithmetic only.  One that allocates, formats
//! and walks an ordered map as the service does tracked the service's
//! speed no better (correlation 0.70 against 0.71 over the stretches of a
//! run) and its own time was twice as noisy.

use std::time::Instant;

use crate::util::median;

/// What one kernel pass takes at reference speed: its median on the seed
/// commit's sandbox in that machine's usual mode.
pub const NOMINAL_S: f64 = 0.00435;
/// Passes per slice; the slice reports their median, so one pass that was
/// pre-empted does not count.
const PASSES: usize = 5;
const KERNEL_ROUNDS: u64 = 2_000_000;

fn kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..KERNEL_ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(std::hint::black_box(i));
    }
    x
}

/// Seconds one kernel pass takes right now.  Call it while the service is
/// idle: it is timed by the wall clock.
pub fn slice() -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let began = Instant::now();
            std::hint::black_box(kernel());
            began.elapsed().as_secs_f64()
        })
        .collect();
    median(&passes)
}

/// The factor that scales a time measured between two slices to reference
/// speed: above 1 when the machine ran faster than the reference.
pub fn speed(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_positive_and_speed_is_its_inverse() {
        assert!(slice() > 0.0);
        assert!((speed(NOMINAL_S, NOMINAL_S) - 1.0).abs() < 1e-12);
        assert!(speed(NOMINAL_S / 2.0, NOMINAL_S / 2.0) > 1.9);
    }
}

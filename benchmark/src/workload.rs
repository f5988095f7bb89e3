//! The workloads and their fixed sizes.
//!
//! No size is derived from a measurement at run time: job counts and
//! open-phase rates are the constants below, chosen once on the seed
//! commit (see README.md, "Fixed sizes") and scaled only by the
//! `--seconds` argument, so a run is the same length on a parent commit
//! and on a change, and `peak_rss_mb` does not drift with speed.

use gridwfs_serve::Submission;

use crate::corpus;
use crate::sysinfo;

/// `run_seconds` in BENCHMARK.json: the sizes below are per rep at this
/// value and scale linearly with `--seconds`.
pub const CANONICAL_SECONDS: u64 = 30;
/// Fresh service + fresh storage per rep; every metric is the median of
/// this many reps.
pub const REPS: usize = 6;
/// Closed phase: the generator keeps exactly this many jobs outstanding.
/// Below `QUEUE_CAPACITY + MAX_IN_FLIGHT`, so `QueueFull` never fires in a
/// healthy run.
pub const OUTSTANDING: usize = 128;
pub const MAX_IN_FLIGHT: usize = 64;
pub const QUEUE_CAPACITY: usize = 256;
const _: () = assert!(OUTSTANDING < QUEUE_CAPACITY + MAX_IN_FLIGHT);
/// The closed phase is timed in this many stretches and the open phase in
/// [`OPEN_PARTS`], a machine-speed reference slice either side of each
/// (see `calib.rs`).  A stretch is a closed loop of its own: it fills the
/// window, runs its share of the jobs and waits for the last to settle.
pub const SEGMENTS: usize = 4;
pub const OPEN_PARTS: usize = 6;
/// Untimed warm-up before the closed phase, as a share of its job count.
pub const WARMUP_SHARE: f64 = 0.05;
/// An open-phase job not terminal this long after the last due time
/// counts as failed.
pub const OPEN_GRACE_S: f64 = 5.0;
/// The traced run is one rep at this share of the full size.
pub const TRACED_SHARE: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChainMem,
    ChainWal,
    RecoveryMix,
    RestartWal,
}

/// Per-rep sizes of one workload at one `--seconds` value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Distinct submissions in the corpus pool.
    pub pool: usize,
    /// Closed-phase job count (`restart_wal`: jobs filled, then recovered).
    pub closed_jobs: usize,
    /// Open-phase Poisson arrival rate, jobs per second (0 = no open phase).
    pub open_rate_per_s: f64,
    /// Open-phase length in seconds.
    pub open_s: f64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ChainMem,
        Workload::ChainWal,
        Workload::RecoveryMix,
        Workload::RestartWal,
    ];
    /// The workloads BENCHMARK.json lists, whose end-to-end metrics gate a
    /// change.  `restart_wal` is not among them: its timed phase is three
    /// quarters `fsync` of the recovered jobs' results and 2 % recovery,
    /// and in the driver's check every time it reports spread by 30–40 %
    /// of its median between runs of the same code.
    pub const GATED: [Workload; 3] = [
        Workload::ChainMem,
        Workload::ChainWal,
        Workload::RecoveryMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainMem => "chain_mem",
            Workload::ChainWal => "chain_wal",
            Workload::RecoveryMix => "recovery_mix",
            Workload::RestartWal => "restart_wal",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown workload '{s}' (expected one of: {})",
                    Workload::ALL.map(Workload::name).join(", ")
                )
            })
    }

    /// Does the service persist through the write-ahead log?
    pub fn uses_wal(self) -> bool {
        matches!(self, Workload::ChainWal | Workload::RestartWal)
    }

    /// Does every job write a flight-recorder journal?
    pub fn journals(self) -> bool {
        self == Workload::RecoveryMix
    }

    pub fn corpus(self, seed: u64, n: usize) -> Vec<Submission> {
        match self {
            Workload::RecoveryMix => corpus::recovery_mix(seed, n),
            _ => corpus::chain(seed, n),
        }
    }

    /// Sizes at [`CANONICAL_SECONDS`], per rep.  Chosen on the seed commit
    /// so that a closed phase lasts about two seconds and the open rate is
    /// at most 30 % of the closed-phase throughput measured there.
    fn canonical(self) -> Sizes {
        match self {
            Workload::ChainMem => Sizes {
                pool: 4096,
                closed_jobs: 48_000,
                open_rate_per_s: 1_000.0,
                open_s: 2.4,
            },
            Workload::ChainWal => Sizes {
                pool: 4096,
                closed_jobs: 5_200,
                open_rate_per_s: 300.0,
                open_s: 2.4,
            },
            Workload::RecoveryMix => Sizes {
                pool: 224,
                closed_jobs: 1_000,
                open_rate_per_s: 120.0,
                // Longer than the others': the rate is low, and p90 wants
                // its samples.
                open_s: 3.0,
            },
            Workload::RestartWal => Sizes {
                pool: 4096,
                closed_jobs: 6_000,
                open_rate_per_s: 0.0,
                open_s: 0.0,
            },
        }
    }

    /// Sizes for a run of `seconds`, times `share` (1 for a measured rep,
    /// [`TRACED_SHARE`] for the traced one).
    pub fn sizes(self, seconds: u64, share: f64) -> Sizes {
        let c = self.canonical();
        let scale = seconds as f64 / CANONICAL_SECONDS as f64 * share;
        Sizes {
            pool: c.pool,
            // At least a full window, so the closed loop reaches its
            // steady state even in a smoke run.
            closed_jobs: ((c.closed_jobs as f64 * scale).round() as usize).max(2 * OUTSTANDING),
            open_rate_per_s: c.open_rate_per_s,
            open_s: c.open_s * scale,
        }
    }
}

/// Service worker threads: one core is left to the generator.
pub fn workers() -> usize {
    (sysinfo::nproc().saturating_sub(1)).clamp(1, 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_sizes_scale() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
            let full = w.sizes(CANONICAL_SECONDS, 1.0);
            assert_eq!(full, w.canonical());
            let smoke = w.sizes(1, 1.0);
            assert!(smoke.closed_jobs >= 2 * OUTSTANDING && smoke.closed_jobs < full.closed_jobs);
        }
        assert!(Workload::parse("nope").is_err());
    }
}

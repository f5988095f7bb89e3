//! Resilience-aware scheduling study (extension): oblivious vs resilient
//! placement on a heterogeneous 32-host grid.
//!
//! The paper's recovery techniques (§5) all react *after* a failure; the
//! scorer in [`grid_wfs::hosts`] uses the failure signals the
//! stack already produces — simulator priors (λ, D per host), windowed
//! failure rates, live φ levels — to place work where it is least likely
//! to be lost.  This module quantifies the difference on a failure
//! intensity sweep with two headline metrics per cell:
//!
//! * **mean completion time** — the engine makespan of a fan-out of
//!   independent tasks (failed runs included: a run that exhausts its
//!   retries still took the time it took);
//! * **mean wasted work** — task-seconds burned in attempts that did not
//!   complete (crashed, excepted or cancelled spans), i.e. work the grid
//!   paid for and threw away.
//!
//! Both schedulers run the *same* workflows on the *same* seeded grids
//! with the same φ-accrual detector — the only difference is the
//! `scheduler` knob, so any gap is attributable to placement.  At
//! intensity 0 every host is reliable, the scorer sees zero evidence and
//! zero-λ priors, and its tie-breaking reproduces the oblivious choice —
//! completion times must match to within noise (asserted in the tests).

use grid_wfs::engine::{Engine, EngineConfig};
use grid_wfs::sim_executor::{SimGrid, TaskProfile};
use grid_wfs::timeline::SpanOutcome;
use grid_wfs::{HostPrior, SchedulerPolicy};
use gridwfs_detect::detector::DetectorPolicy;
use gridwfs_detect::phi::PhiConfig;
use gridwfs_sim::resource::ResourceSpec;
use gridwfs_trace::TraceKind;
use gridwfs_wpdl::builder::WorkflowBuilder;
use gridwfs_wpdl::validate::Validated;

use crate::stats::OnlineStats;

/// The placement policy under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Blind option cycling plus breaker-skip (the pre-existing engine).
    Oblivious,
    /// Evidence-driven scoring with simulator priors.
    Resilient,
}

impl SchedKind {
    /// Short label for tables and series legends.
    pub fn label(&self) -> &'static str {
        match self {
            SchedKind::Oblivious => "oblivious",
            SchedKind::Resilient => "resilient",
        }
    }
}

/// Scenario constants shared by every cell of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedParams {
    /// Grid size (the headline experiment uses 32).
    pub hosts: usize,
    /// Every `flaky_every`-th host is failure-prone (the rest are solid).
    pub flaky_every: usize,
    /// Independent tasks in the fan-out workflow.
    pub jobs: usize,
    /// Nominal duration of each task.
    pub duration: f64,
    /// Flaky-host MTTF at intensity 1.0 (scaled as `mttf_base/intensity`).
    pub mttf_base: f64,
    /// Flaky-host mean downtime after a crash.
    pub downtime: f64,
    /// Application checkpoint period (work survives crashes up to this).
    pub ckpt_period: f64,
    /// Task-level retry budget per job.
    pub retries: u32,
    /// Retry interval.
    pub retry_interval: f64,
    /// Heartbeat interval / tolerance (crash detection).
    pub hb_interval: f64,
    /// Heartbeat tolerance in intervals.
    pub hb_tolerance: f64,
}

impl Default for SchedParams {
    fn default() -> Self {
        SchedParams {
            hosts: 32,
            flaky_every: 4,
            jobs: 12,
            duration: 20.0,
            mttf_base: 15.0,
            downtime: 5.0,
            ckpt_period: 4.0,
            retries: 6,
            retry_interval: 1.0,
            hb_interval: 1.0,
            hb_tolerance: 3.0,
        }
    }
}

/// One cell of the sweep: mean completion time, mean wasted work, and the
/// scheduler-action counters aggregated over every run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Mean engine makespan over all runs.
    pub completion: f64,
    /// Standard error of the completion mean.
    pub completion_stderr: f64,
    /// Mean task-seconds in non-completed spans per run.
    pub wasted: f64,
    /// Runs that exhausted their retries (failed workflows).
    pub failed_runs: u32,
    /// `placement_scored` events with `steered: true` across all runs.
    pub steered: u64,
    /// `rereplicate` events across all runs.
    pub rereplications: u64,
}

fn host_name(i: usize) -> String {
    format!("h{i:02}.grid")
}

fn is_flaky(i: usize, p: &SchedParams, intensity: f64) -> bool {
    intensity > 0.0 && i.is_multiple_of(p.flaky_every)
}

/// The seeded heterogeneous grid for one trial.
fn build_grid(p: &SchedParams, intensity: f64, seed: u64) -> SimGrid {
    let mut grid = SimGrid::new(seed);
    for i in 0..p.hosts {
        let name = host_name(i);
        let spec = if is_flaky(i, p, intensity) {
            ResourceSpec::unreliable(&name, p.mttf_base / intensity, p.downtime)
        } else {
            ResourceSpec::reliable(&name)
        };
        grid.add_host(spec);
    }
    for j in 0..p.jobs {
        grid.set_profile(
            format!("p{j}"),
            TaskProfile::reliable().with_checkpoints(p.ckpt_period),
        );
    }
    grid
}

/// The fan-out workflow: `jobs` independent activities, each cycling a
/// rotated view of the full host list so the oblivious first attempts
/// spread across the whole grid (including its flaky quarter).
fn build_workflow(p: &SchedParams) -> Validated {
    let hosts: Vec<String> = (0..p.hosts).map(host_name).collect();
    let mut b = WorkflowBuilder::new("sched-sweep");
    for j in 0..p.jobs {
        let rotated: Vec<&str> = (0..p.hosts)
            .map(|k| hosts[(j * 5 + k) % p.hosts].as_str())
            .collect();
        b = b.program(format!("p{j}"), p.duration, &rotated);
    }
    for j in 0..p.jobs {
        b.activity(format!("a{j}"), format!("p{j}"))
            .retry(p.retries, p.retry_interval)
            .heartbeat(p.hb_interval, p.hb_tolerance);
    }
    b.build().expect("sweep workflow validates")
}

/// Engine configuration for one arm.  Both arms share the φ-accrual
/// detector (so live suspicion levels exist for the resilient arm to act
/// on); only the `scheduler` knob differs.
fn build_config(kind: SchedKind, grid: &SimGrid) -> EngineConfig {
    let detector = DetectorPolicy::PhiAccrual(PhiConfig::default());
    let scheduler = match kind {
        SchedKind::Oblivious => SchedulerPolicy::Oblivious,
        SchedKind::Resilient => {
            let priors = grid
                .host_priors()
                .into_iter()
                .map(|(host, lambda, downtime)| HostPrior {
                    host,
                    lambda,
                    downtime,
                })
                .collect();
            SchedulerPolicy::Resilient(priors)
        }
    };
    EngineConfig {
        detector,
        scheduler,
        ..EngineConfig::default()
    }
}

/// Runs one cell of the sweep: `runs` seeded trials of `kind` at the
/// given failure intensity.  Fully deterministic — trial `i` always uses
/// grid seed `seed + i·0x9E37`, whatever the caller's loop structure.
pub fn evaluate(
    kind: SchedKind,
    intensity: f64,
    p: &SchedParams,
    runs: u32,
    seed: u64,
) -> CellResult {
    let mut completion = OnlineStats::new();
    let mut wasted = OnlineStats::new();
    let mut failed_runs = 0u32;
    let mut steered = 0u64;
    let mut rereplications = 0u64;
    for i in 0..runs {
        let trial_seed = seed + u64::from(i) * 0x9E37;
        let grid = build_grid(p, intensity, trial_seed);
        let config = build_config(kind, &grid);
        let report = Engine::new(build_workflow(p), grid)
            .with_config(config)
            .run();
        if !report.is_success() {
            failed_runs += 1;
        }
        completion.push(report.makespan);
        wasted.push(
            report
                .spans
                .iter()
                .filter(|s| s.outcome != SpanOutcome::Completed)
                .map(|s| s.end - s.start)
                .sum(),
        );
        for e in &report.trace {
            match &e.kind {
                TraceKind::PlacementScored { steered: true, .. } => steered += 1,
                TraceKind::Rereplicate { .. } => rereplications += 1,
                _ => {}
            }
        }
    }
    let c = completion.estimate();
    CellResult {
        completion: c.mean,
        completion_stderr: c.stderr,
        wasted: wasted.estimate().mean,
        failed_runs,
        steered,
        rereplications,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNS: u32 = 24;
    const SEED: u64 = 0x5C4ED;

    fn small() -> SchedParams {
        // A 16-host, 6-job slice of the headline experiment: the same
        // structure at CI-friendly cost.
        SchedParams {
            hosts: 16,
            jobs: 6,
            ..SchedParams::default()
        }
    }

    #[test]
    fn zero_failure_cell_is_placement_identical() {
        let p = small();
        let obl = evaluate(SchedKind::Oblivious, 0.0, &p, 8, SEED);
        let res = evaluate(SchedKind::Resilient, 0.0, &p, 8, SEED);
        // No failures, zero-λ priors, zero evidence: the scorer's
        // tie-breaking reproduces the oblivious placement exactly.
        assert_eq!(obl.completion, res.completion);
        assert_eq!(obl.wasted, 0.0);
        assert_eq!(res.wasted, 0.0);
        assert_eq!(res.steered, 0, "nothing to steer away from");
        assert_eq!(res.rereplications, 0);
        assert_eq!(obl.failed_runs + res.failed_runs, 0);
    }

    #[test]
    fn resilient_dominates_wasted_work_at_high_intensity() {
        let p = small();
        let obl = evaluate(SchedKind::Oblivious, 2.0, &p, RUNS, SEED);
        let res = evaluate(SchedKind::Resilient, 2.0, &p, RUNS, SEED);
        assert!(
            res.wasted < obl.wasted,
            "resilient wasted {} must beat oblivious {}",
            res.wasted,
            obl.wasted
        );
        assert!(res.steered > 0, "steering is where the saving comes from");
        assert!(
            res.completion <= obl.completion,
            "avoiding flaky hosts must not slow completion: {} vs {}",
            res.completion,
            obl.completion
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let p = small();
        let a = evaluate(SchedKind::Resilient, 1.0, &p, 6, SEED);
        let b = evaluate(SchedKind::Resilient, 1.0, &p, 6, SEED);
        assert_eq!(a, b);
    }
}

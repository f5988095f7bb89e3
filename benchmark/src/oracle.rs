//! The correctness oracle: what the service must report for a job is
//! what the engine reports when the same `(workflow_xml, grid, seed)` is
//! run directly, with no service around it.

use grid_wfs::engine::{EngineConfig, LogKind, Report};
use grid_wfs::{Engine, Instance, SimGrid};
use gridwfs_serve::{JobRecord, JobState, Submission};
use gridwfs_wpdl::parse;
use gridwfs_wpdl::validate::{validate, Validated};

/// The fields of a terminal `JobRecord` the reference run predicts.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub state: JobState,
    pub makespan: f64,
    pub task_submissions: u64,
}

pub fn parse_validated(sub: &Submission) -> Result<Validated, String> {
    let workflow = parse::from_str(&sub.workflow_xml).map_err(|e| e.to_string())?;
    validate(workflow).map_err(|issues| {
        issues
            .iter()
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    })
}

/// The engine a service worker would build for `sub`, minus the
/// service-side plumbing (stop flag, checkpoint mailbox, trace sinks).
pub fn engine_for(sub: &Submission, validated: Validated) -> Engine<SimGrid> {
    Engine::from_instance(Instance::new(validated), sub.grid.build_sim(sub.seed)).with_config(
        EngineConfig {
            detector: sub.grid.detector_policy(),
            scheduler: sub.grid.scheduler_policy(),
            ..EngineConfig::default()
        },
    )
}

pub fn task_submissions(report: &Report) -> u64 {
    report
        .log
        .iter()
        .filter(|e| e.kind == LogKind::Submit)
        .count() as u64
}

pub fn expected_of(report: &Report) -> Expected {
    Expected {
        state: if report.is_success() {
            JobState::Done
        } else {
            JobState::Failed
        },
        makespan: report.makespan,
        task_submissions: task_submissions(report),
    }
}

/// Runs `sub` through `Engine::run()` directly.
pub fn reference(sub: &Submission) -> Result<Report, String> {
    Ok(engine_for(sub, parse_validated(sub)?).run())
}

/// Why `record` is not what the reference predicts, if it is not.  A job
/// that ends `Failed` exactly as predicted is a correct outcome.
pub fn mismatch(record: &JobRecord, expected: &Expected) -> Option<String> {
    if record.state != expected.state {
        return Some(format!(
            "state {} (reference {}; detail {:?})",
            record.state.as_str(),
            expected.state.as_str(),
            record.detail
        ));
    }
    if record.makespan != Some(expected.makespan) {
        return Some(format!(
            "makespan {:?} (reference {})",
            record.makespan, expected.makespan
        ));
    }
    if record.task_submissions != expected.task_submissions {
        return Some(format!(
            "task_submissions {} (reference {})",
            record.task_submissions, expected.task_submissions
        ));
    }
    None
}

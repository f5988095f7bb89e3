//! Property tests for the flight recorder: across randomized workflows on
//! a fault-injecting Grid, the journal stays internally consistent — time
//! never runs backwards, every settlement closes a real attempt exactly
//! once, retries fire in the future, and the derived spans agree with the
//! raw event stream.  Identical seeds always reproduce identical journals.

use grid_wfs::engine::{Engine, EngineConfig, StepOutcome};
use grid_wfs::sim_executor::{SimGrid, TaskProfile};
use grid_wfs::timeline;
use grid_wfs::SchedulerPolicy;
use gridwfs_sim::check::{self, forall};
use gridwfs_sim::dist::Dist;
use gridwfs_sim::resource::ResourceSpec;
use gridwfs_sim::rng::Rng;
use gridwfs_trace::TraceKind;
use gridwfs_wpdl::ast::{Activity, Policy, Program, Transition, Trigger, Workflow};
use gridwfs_wpdl::validate::validate;

fn workflow(rng: &mut Rng) -> Workflow {
    let n = check::between(rng, 3..8);
    let mut w = Workflow::new("journalled");
    w.programs
        .push(Program::new("p", 3.0 + rng.index(10) as f64, "h1").option("h2"));
    for i in 0..n {
        let mut a = if rng.index(4) == 0 {
            Activity::dummy(format!("t{i}"))
        } else {
            Activity::new(format!("t{i}"), "p")
        };
        if !a.is_dummy() {
            a.max_tries = 1 + rng.index(3) as u32;
            if rng.index(5) == 0 {
                a.policy = Policy::Replica;
            }
        }
        w.activities.push(a);
    }
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n + rng.index(n) {
        let from = rng.index(n - 1);
        let to = from + 1 + rng.index(n - from - 1);
        let trig = if rng.index(4) == 0 {
            Trigger::Failed
        } else {
            Trigger::Done
        };
        if seen.insert((from, to, trig.clone())) {
            w.transitions
                .push(Transition::new(format!("t{from}"), format!("t{to}")).on(trig));
        }
    }
    w
}

fn grid(seed: u64) -> SimGrid {
    let mut g = SimGrid::new(seed);
    g.add_host(ResourceSpec::reliable("h1"));
    g.add_host(ResourceSpec::unreliable("h2", 20.0, 1.0));
    g.set_profile(
        "p",
        TaskProfile::reliable().with_soft_crash(Dist::exponential_mean(30.0)),
    );
    g
}

/// The journal is an internally consistent account of the run.
#[test]
fn journal_is_internally_consistent() {
    forall(40, &[], |rng| {
        let w = workflow(rng);
        let seed = rng.next_u64();
        let validated = validate(w).expect("generated workflows validate");
        let report = Engine::new(validated, grid(seed)).run();

        // Time never runs backwards, and retry timers fire in the future.
        let mut prev = 0.0f64;
        for e in &report.trace {
            assert!(e.at >= prev, "time went backwards: {:?}", e);
            prev = e.at;
            if let TraceKind::RetryScheduled { fire_at, .. } = &e.kind {
                assert!(*fire_at >= e.at, "retry fires in the past: {:?}", e);
            }
        }

        // Every settlement closes a previously submitted attempt, exactly
        // once; the engine ran to a natural finish (no EngineAborted), so
        // nothing stays open.
        let mut open = std::collections::HashSet::new();
        let mut submitted = 0usize;
        for e in &report.trace {
            match &e.kind {
                TraceKind::TaskSubmitted { task, .. } => {
                    assert!(open.insert(*task), "task id {task} reused while open");
                    submitted += 1;
                }
                TraceKind::TaskSettled { task, .. } => {
                    assert!(open.remove(task), "settled unknown task {task}");
                }
                TraceKind::EngineAborted { .. } => {
                    panic!("nothing requested an abort: {:?}", e);
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "attempts left open at finish: {open:?}");

        // The derived spans are exactly the settled attempts, each a
        // forward interval, and the report carries the same derivation.
        let spans = timeline::spans_from_trace(&report.trace);
        assert_eq!(spans.len(), submitted);
        for s in &spans {
            assert!(s.start <= s.end, "span runs backwards: {:?}", s);
        }
        assert_eq!(&spans, &report.spans);

        // Every terminal node state the trace announced matches the
        // report's final word on that activity.
        for e in &report.trace {
            if let TraceKind::NodeState { activity, state } = &e.kind {
                if ["done", "failed", "skipped"].contains(&state.as_str())
                    || state.starts_with("exception:")
                {
                    // Later loop iterations may overwrite, so only the
                    // last announcement must agree.
                    let last = report
                        .trace
                        .iter()
                        .rev()
                        .find_map(|e2| match &e2.kind {
                            TraceKind::NodeState {
                                activity: a,
                                state: s,
                            } if a == activity => Some(s.clone()),
                            _ => None,
                        })
                        .unwrap();
                    assert_eq!(report.status_of(activity), Some(last.as_str()));
                }
            }
        }
    });
}

/// Identical seeds reproduce identical journals, byte for byte.
#[test]
fn journal_is_deterministic() {
    forall(40, &[], |rng| {
        let w = workflow(rng);
        let seed = rng.next_u64();
        let first = Engine::new(validate(w.clone()).unwrap(), grid(seed)).run();
        let second = Engine::new(validate(w).unwrap(), grid(seed)).run();
        assert_eq!(first.trace_jsonl(), second.trace_jsonl());
    });
}

/// The resilient scheduler holds no RNG: identical seeds reproduce
/// identical journals byte for byte, and a default (oblivious) engine
/// never journals the scorer's event kinds — existing journals stay
/// byte-identical unless the knob is turned.
#[test]
fn resilient_journal_is_deterministic_and_opt_in() {
    forall(40, &[], |rng| {
        let w = workflow(rng);
        let seed = rng.next_u64();
        let config = || EngineConfig {
            scheduler: SchedulerPolicy::Resilient(Vec::new()),
            ..EngineConfig::default()
        };
        let first = Engine::new(validate(w.clone()).unwrap(), grid(seed))
            .with_config(config())
            .run();
        let second = Engine::new(validate(w.clone()).unwrap(), grid(seed))
            .with_config(config())
            .run();
        assert_eq!(first.trace_jsonl(), second.trace_jsonl());
        let default_run = Engine::new(validate(w).unwrap(), grid(seed)).run();
        for e in &default_run.trace {
            assert!(
                !matches!(
                    &e.kind,
                    TraceKind::PlacementScored { .. }
                        | TraceKind::Rereplicate { .. }
                        | TraceKind::CkptIntervalAdapted { .. }
                ),
                "scheduler kind in a default journal: {:?}",
                e
            );
        }
    });
}

/// Driving a fresh engine through the non-blocking `step()` API yields
/// the same journal (byte for byte) and the same report as the
/// blocking `run()` driver — the scheduler in `gridwfs-serve` stands
/// on this equivalence.
#[test]
fn step_and_run_are_byte_identical() {
    forall(40, &[], |rng| {
        let w = workflow(rng);
        let seed = rng.next_u64();
        let ran = Engine::new(validate(w.clone()).unwrap(), grid(seed)).run();
        let mut engine = Engine::new(validate(w).unwrap(), grid(seed));
        let stepped = loop {
            match engine.step() {
                StepOutcome::Finished(report) => break *report,
                StepOutcome::Progressed => {}
                StepOutcome::Idle { .. } => {
                    panic!("virtual grids never report Idle");
                }
            }
        };
        assert_eq!(ran.trace_jsonl(), stepped.trace_jsonl());
        assert_eq!(
            format!("{:?}", ran.outcome),
            format!("{:?}", stepped.outcome)
        );
        assert_eq!(ran.makespan, stepped.makespan);
        assert_eq!(&ran.spans, &stepped.spans);
        assert_eq!(ran.log.len(), stepped.log.len());
    });
}

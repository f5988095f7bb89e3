//! Zombie safety end-to-end: a falsely-presumed-dead attempt whose delayed
//! messages surface later must never double-settle its node, resurrect a
//! cancelled replica, or race the retry that superseded it.  The engine
//! journals the post-mortem evidence (`zombie_completion`, `late_heartbeat`)
//! and discards it — fencing, not revival.

use grid_wfs::engine::{Engine, EngineConfig};
use grid_wfs::sim_executor::SimGrid;
use grid_wfs::{DetectorPolicy, PhiConfig, TraceKind};
use gridwfs_sim::net::LinkModel;
use gridwfs_sim::resource::ResourceSpec;
use gridwfs_wpdl::builder::WorkflowBuilder;
use gridwfs_wpdl::validate::Validated;

fn build(b: WorkflowBuilder) -> Validated {
    b.build().expect("test workflow validates")
}

/// The canonical zombie: h1 delivers everything with a 10-unit delay, so the
/// attempt's heartbeats never arrive before the 2-unit fixed timeout.  The
/// engine presumes it dead at t=2 and retries on the clean h2, which
/// completes at t=7 — then the zombie's whole stream (heartbeats, `Task
/// End`, `Done`) surfaces between t=10 and t=15 while a long parallel
/// activity keeps the run alive.
fn zombie_workflow() -> (Validated, SimGrid) {
    let mut b = WorkflowBuilder::new("zombie")
        .program("p", 5.0, &["h1", "h2"])
        .program("long", 25.0, &["h2"]);
    b.activity("a", "p").retry(2, 0.0).heartbeat(1.0, 2.0);
    b.activity("keepalive", "long").heartbeat(0.0, 3.0);
    let mut grid = SimGrid::new(21).with_host_link("h1", LinkModel::lossy(10.0, 0.0));
    grid.add_host(ResourceSpec::reliable("h1"));
    grid.add_host(ResourceSpec::reliable("h2"));
    (build(b), grid)
}

#[test]
fn delayed_done_after_presumption_settles_node_exactly_once() {
    let (wf, grid) = zombie_workflow();
    let report = Engine::new(wf, grid).run();
    assert!(report.is_success());
    assert_eq!(report.status_of("a"), Some("done"));
    assert_eq!(report.submissions_of("a"), 2, "presumption forced a retry");

    // The node settled exactly once (the retry's completion); the zombie's
    // Done did not settle it a second time.
    let done_settles = report
        .trace
        .iter()
        .filter(|e| {
            matches!(&e.kind, TraceKind::NodeState { activity, state }
                if activity == "a" && state == "done")
        })
        .count();
    assert_eq!(done_settles, 1, "zombie Done must not re-settle the node");

    // Each attempt's terminal classification was journalled exactly once:
    // attempt 1 crashed (presumed), attempt 2 completed.
    let settled: Vec<String> = report
        .trace
        .iter()
        .filter_map(|e| match &e.kind {
            TraceKind::TaskSettled {
                activity, reason, ..
            } if activity == "a" => Some(reason.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(settled, vec!["heartbeat-loss", "task-end"]);

    // The full fencing story is in the journal: the suspicion that convicted
    // attempt 1, the orphan cancel sent after it, the zombie completion
    // discarded exactly once, and the late heartbeats that preceded it.
    let count =
        |pred: &dyn Fn(&TraceKind) -> bool| report.trace.iter().filter(|e| pred(&e.kind)).count();
    assert_eq!(
        count(&|k| matches!(k, TraceKind::SuspicionRaised { activity, .. } if activity == "a")),
        1
    );
    assert_eq!(
        count(&|k| matches!(k, TraceKind::OrphanCancelled { activity, .. } if activity == "a")),
        1
    );
    assert_eq!(
        count(
            &|k| matches!(k, TraceKind::ZombieCompletion { activity, body, .. }
            if activity == "a" && body == "done")
        ),
        1,
        "the delayed Done is journalled as a zombie exactly once"
    );
    assert!(
        count(&|k| matches!(k, TraceKind::LateHeartbeat { activity, .. } if activity == "a")) >= 1,
        "the zombie's delayed heartbeats are journalled as late"
    );
}

#[test]
fn orphan_cancel_suppresses_what_the_orphan_had_not_yet_sent() {
    // Same shape, but the orphan's link delay (3) is short enough that the
    // cancel (sent at presumption time 2, arriving at 5) lands *before* the
    // 20-unit task would have sent Done — so no zombie completion ever
    // surfaces, only the late heartbeats already in flight.
    let mut b = WorkflowBuilder::new("orphan")
        .program("p", 20.0, &["h1", "h2"])
        .program("long", 40.0, &["h2"]);
    b.activity("a", "p").retry(2, 0.0).heartbeat(1.0, 2.0);
    b.activity("keepalive", "long").heartbeat(0.0, 3.0);
    let mut grid = SimGrid::new(22).with_host_link("h1", LinkModel::lossy(3.0, 0.0));
    grid.add_host(ResourceSpec::reliable("h1"));
    grid.add_host(ResourceSpec::reliable("h2"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert!(
        !report
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::ZombieCompletion { .. })),
        "the cancel reached the orphan before it could complete"
    );
    assert!(
        report
            .trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::LateHeartbeat { .. })),
        "heartbeats sent before the cancel landed still surface late"
    );
}

#[test]
fn phi_policy_end_to_end_journals_suspicion_level() {
    // A host that crashes mid-task goes silent; under the φ-accrual policy
    // the presumption that recovers the activity journals its φ level.
    let mut b = WorkflowBuilder::new("phi").program("p", 1000.0, &["bad", "good"]);
    b.activity("a", "p").retry(2, 0.0).heartbeat(1.0, 3.0);
    let mut grid = SimGrid::new(23);
    grid.add_host(ResourceSpec::unreliable("bad", 30.0, 10.0));
    grid.add_host(ResourceSpec::reliable("good"));
    let config = EngineConfig {
        detector: DetectorPolicy::PhiAccrual(PhiConfig::with_threshold(6.0)),
        ..EngineConfig::default()
    };
    let report = Engine::new(build(b), grid).with_config(config).run();
    assert!(
        report.trace.iter().any(|e| matches!(&e.kind,
            TraceKind::TaskSettled { reason, .. } if reason == "heartbeat-loss")),
        "the silent host crash was presumed"
    );
    let phi = report
        .trace
        .iter()
        .find_map(|e| match &e.kind {
            TraceKind::SuspicionRaised { phi, .. } => Some(*phi),
            _ => None,
        })
        .expect("presumption journals suspicion_raised");
    let phi = phi.expect("phi policy journals the suspicion level");
    assert!(phi.is_finite() && phi > 0.0, "phi at presumption: {phi}");
}

#[test]
fn lossy_run_journal_is_byte_identical_per_seed() {
    let run = |seed: u64| {
        let mut b = WorkflowBuilder::new("det")
            .program("p", 8.0, &["h1", "h2"])
            .program("q", 12.0, &["h2"]);
        b.activity("a", "p").retry(3, 0.5).heartbeat(1.0, 2.0);
        b.activity("b", "q").heartbeat(1.0, 4.0);
        let b = b.edge("a", "b");
        let mut grid = SimGrid::new(seed)
            .with_link(LinkModel::jittered(0.1, 0.4, 0.15).with_duplicates(0.05))
            .with_host_link("h1", LinkModel::jittered(0.5, 2.0, 0.3));
        grid.add_host(ResourceSpec::reliable("h1"));
        grid.add_host(ResourceSpec::reliable("h2"));
        Engine::new(build(b), grid).run().trace_jsonl()
    };
    assert_eq!(run(31), run(31), "same seed, byte-identical journal");
    assert_eq!(run(77), run(77));
    assert_ne!(run(31), run(77), "different seeds genuinely diverge");
}

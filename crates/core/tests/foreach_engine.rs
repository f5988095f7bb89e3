//! End-to-end `<Foreach>` fan-out tests on the simulated Grid: dynamic
//! instantiation under `max_parallel`, per-item retry budgets, failover,
//! the three exhaustion actions, failure budgets over the item set, and
//! the dead-letter reprocess cycle through `checkpoint::reset_dead_letters`.

use grid_wfs::checkpoint;
use grid_wfs::engine::{Engine, EngineConfig};
use grid_wfs::sim_executor::SimGrid;
use grid_wfs::TraceKind;
use gridwfs_sim::resource::ResourceSpec;
use gridwfs_wpdl::ast::{ForeachSpec, ItemAction};
use gridwfs_wpdl::builder::WorkflowBuilder;
use gridwfs_wpdl::validate::Validated;

fn items(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("shard-{i}")).collect()
}

/// A map/reduce shape: `map` fans out over `n` items, `reduce` follows.
fn mapred(n: usize, tweak: impl FnOnce(&mut ForeachSpec)) -> Validated {
    let mut spec = ForeachSpec::new(items(n));
    tweak(&mut spec);
    let mut b = WorkflowBuilder::new("mapred")
        .program("p", 4.0, &["h"])
        .program("alt", 2.0, &["alt.host"]);
    b.activity("map", "p").foreach(spec);
    b.activity("reduce", "alt");
    b.edge("map", "reduce").build().expect("validates")
}

fn reliable_grid(seed: u64) -> SimGrid {
    let mut g = SimGrid::new(seed);
    g.add_host(ResourceSpec::reliable("h"));
    g.add_host(ResourceSpec::reliable("alt.host"));
    g
}

/// A grid where program `p`'s only option bounces instantly (the host is
/// unknown to the grid), so every primary attempt fails deterministically.
fn primary_dead_grid(seed: u64) -> SimGrid {
    let mut g = SimGrid::new(seed);
    g.add_host(ResourceSpec::reliable("alt.host"));
    g
}

fn count<'a>(report: &'a grid_wfs::Report, f: impl Fn(&'a TraceKind) -> bool) -> usize {
    report.trace.iter().filter(|e| f(&e.kind)).count()
}

fn settled_with(report: &grid_wfs::Report, want: &str) -> usize {
    count(
        report,
        |k| matches!(k, TraceKind::ItemSettled { outcome, .. } if outcome == want),
    )
}

#[test]
fn fan_out_completes_every_item() {
    let report = Engine::new(mapred(5, |_| {}), reliable_grid(1)).run();
    assert!(report.is_success(), "{:?}", report.outcome);
    assert_eq!(report.status_of("map"), Some("done"));
    assert_eq!(report.status_of("reduce"), Some("done"));
    assert_eq!(report.submissions_of("map"), 5, "one attempt per item");
    assert_eq!(settled_with(&report, "done"), 5);
    assert!(report.dlq.is_empty());
    assert_eq!(
        count(&report, |k| matches!(
            k,
            TraceKind::ForeachStarted {
                items: 5,
                pending: 5,
                ..
            }
        )),
        1
    );
}

#[test]
fn max_parallel_bounds_concurrent_items() {
    let report = Engine::new(mapred(6, |s| s.max_parallel = 2), reliable_grid(2)).run();
    assert!(report.is_success());
    // All six attempts ran on the same 4-unit program with bound 2: three
    // full waves.
    assert_eq!(report.makespan, 3.0 * 4.0 + 2.0, "3 map waves + reduce");
    let map_spans: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.activity == "map")
        .collect();
    assert_eq!(map_spans.len(), 6);
    for s in &map_spans {
        let overlapping = map_spans
            .iter()
            .filter(|o| o.start < s.end && s.start < o.end)
            .count();
        assert!(overlapping <= 2, "bound breached: {overlapping} overlap");
    }
}

#[test]
fn exhausted_items_dead_letter_without_failing_the_workflow() {
    let report = Engine::new(
        mapred(3, |s| {
            s.max_attempts = 2;
            s.retry_interval = 1.0;
        }),
        primary_dead_grid(3),
    )
    .run();
    // Dead-lettered items park for reprocessing; the fan-out itself (and
    // the workflow) still completes.
    assert!(report.is_success(), "{:?}", report.outcome);
    assert_eq!(report.status_of("map"), Some("done"));
    assert_eq!(report.submissions_of("map"), 6, "2 attempts x 3 items");
    assert_eq!(report.dlq.len(), 3);
    for (i, e) in report.dlq.iter().enumerate() {
        assert_eq!(e.activity, "map");
        assert_eq!(e.index, i);
        assert_eq!(e.item, format!("shard-{i}"));
        assert_eq!(e.attempts, 2);
        assert!(!e.reason.is_empty());
    }
    assert_eq!(
        count(&report, |k| matches!(k, TraceKind::ItemDeadLettered { .. })),
        3
    );
}

#[test]
fn skip_action_tolerates_exhausted_items() {
    let report = Engine::new(
        mapred(2, |s| s.on_exhausted = ItemAction::Skip),
        primary_dead_grid(4),
    )
    .run();
    assert!(report.is_success());
    assert!(report.dlq.is_empty(), "skip does not dead-letter");
    assert_eq!(settled_with(&report, "skipped"), 2);
}

#[test]
fn stop_action_fails_the_fan_out_and_cancels_the_rest() {
    let report = Engine::new(
        mapred(4, |s| {
            s.on_exhausted = ItemAction::Stop;
            s.max_parallel = 1;
        }),
        primary_dead_grid(5),
    )
    .run();
    assert!(!report.is_success());
    assert_eq!(report.status_of("map"), Some("failed"));
    assert_eq!(report.status_of("reduce"), Some("skipped"));
    assert_eq!(
        settled_with(&report, "failed"),
        1,
        "first item stops the node"
    );
    assert_eq!(settled_with(&report, "cancelled"), 3, "rest never ran");
}

#[test]
fn failure_budget_breach_fails_the_workflow() {
    let report = Engine::new(
        mapred(4, |s| {
            s.max_parallel = 1;
            s.max_failures = Some(1);
        }),
        primary_dead_grid(6),
    )
    .run();
    // Items dead-letter one at a time; the second dead letter exceeds
    // max_failures=1 and fails the node.
    assert!(!report.is_success());
    assert_eq!(report.status_of("map"), Some("failed"));
    assert_eq!(report.dlq.len(), 2);
    assert_eq!(settled_with(&report, "cancelled"), 2);
}

#[test]
fn failover_reruns_items_on_the_alternative_program() {
    let report = Engine::new(
        mapred(3, |s| {
            s.failover = Some("alt".into());
            s.retry_interval = 0.5;
        }),
        primary_dead_grid(7),
    )
    .run();
    assert!(report.is_success(), "{:?}", report.outcome);
    assert!(report.dlq.is_empty());
    assert_eq!(
        count(&report, |k| matches!(
            k,
            TraceKind::ItemFailover { program, .. } if program == "alt"
        )),
        3
    );
    assert_eq!(settled_with(&report, "done"), 3);
    assert_eq!(
        report.submissions_of("map"),
        6,
        "one dead primary + one failover attempt per item"
    );
}

#[test]
fn engine_crash_mid_fan_out_resumes_without_resettling_items() {
    let dir = std::env::temp_dir().join(format!("gridwfs-foreach-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("mapred.ckpt.xml");
    let config = EngineConfig {
        max_settlements: Some(3),
        ..EngineConfig::default()
    };
    let first = Engine::new(mapred(5, |s| s.max_parallel = 1), reliable_grid(8))
        .with_config(config)
        .with_checkpointing(&ckpt)
        .run();
    assert_eq!(first.aborted.as_deref(), Some("max_settlements"));
    assert_eq!(settled_with(&first, "done"), 3);

    let instance = checkpoint::load(&ckpt).expect("checkpoint readable");
    let resumed = Engine::from_instance(instance, reliable_grid(9))
        .with_checkpointing(&ckpt)
        .run();
    assert!(resumed.is_success(), "{:?}", resumed.outcome);
    assert_eq!(
        count(&resumed, |k| matches!(
            k,
            TraceKind::ForeachStarted {
                items: 5,
                pending: 2,
                ..
            }
        )),
        1,
        "three checkpointed items survive the crash"
    );
    assert_eq!(
        settled_with(&resumed, "done"),
        2,
        "only pending items re-ran"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dead_letter_reprocess_banks_prior_attempts_and_settles_items_once() {
    let dir = std::env::temp_dir().join(format!("gridwfs-dlqcycle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("mapred.ckpt.xml");
    // Round 1: the primary host is dead, every item dead-letters.
    let first = Engine::new(mapred(3, |s| s.max_attempts = 2), primary_dead_grid(10))
        .with_checkpointing(&ckpt)
        .run();
    assert_eq!(first.dlq.len(), 3);

    // `dlq retry`: flip dead-lettered items back to pending...
    let text = std::fs::read_to_string(&ckpt).unwrap();
    let (reset, n) = checkpoint::reset_dead_letters(&text).expect("reset applies");
    assert_eq!(n, 3);
    std::fs::write(&ckpt, reset).unwrap();

    // ...and resume on a grid where the host is back.
    let instance = checkpoint::load(&ckpt).expect("checkpoint readable");
    let resumed = Engine::from_instance(instance, reliable_grid(11))
        .with_checkpointing(&ckpt)
        .run();
    assert!(resumed.is_success(), "{:?}", resumed.outcome);
    assert!(resumed.dlq.is_empty(), "reprocessed items settled");
    assert_eq!(
        count(&resumed, |k| matches!(k, TraceKind::ItemReprocessed { .. })),
        3,
        "every retried item journals its reprocess"
    );
    assert_eq!(settled_with(&resumed, "done"), 3);
    assert_eq!(
        resumed.submissions_of("map"),
        3,
        "a reprocess is one attempt per item, not two"
    );
    // The final checkpoint holds exactly one terminal state per item.
    let final_text = std::fs::read_to_string(&ckpt).unwrap();
    let final_instance = checkpoint::from_xml(&final_text).unwrap();
    let states = final_instance.items("map").unwrap();
    assert!(states.iter().all(|p| p.state == grid_wfs::ItemState::Done));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journals_are_deterministic_per_seed() {
    let run = |seed| {
        Engine::new(
            mapred(4, |s| {
                s.max_parallel = 2;
                s.max_attempts = 2;
                s.retry_interval = 1.0;
            }),
            reliable_grid(seed),
        )
        .run()
        .trace_jsonl()
    };
    assert_eq!(run(12), run(12), "same seed, same journal");
}

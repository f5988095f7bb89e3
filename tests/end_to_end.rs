//! Full-stack integration: WPDL text → parser → validation → engine →
//! simulated Grid → report, plus the broker-driven construction path and
//! the real threaded executor.

use gridwfs::catalog::{
    Broker, BrokerPolicy, Implementation, ResourceCatalog, ResourceEntry, SoftwareCatalog,
};
use gridwfs::core::{Engine, SimGrid, TaskProfile, TaskResult, ThreadExecutor, TraceKind};
use gridwfs::sim::resource::ResourceSpec;
use gridwfs::wpdl::{parse, validate, WorkflowBuilder};

/// The complete Figure 6 workflow as a WPDL document (what a user would
/// actually write), end to end.
#[test]
fn figure6_from_xml_text_to_report() {
    let wpdl = r#"
<?xml version='1.0'?>
<Workflow name='fig6'>
  <Exception name='disk_full' fatal='true' description='scratch exhausted'/>
  <Activity name='fast'><Implement>fast_impl</Implement></Activity>
  <Activity name='slow'><Implement>slow_impl</Implement></Activity>
  <Activity name='join' join='or'/>
  <Program name='fast_impl' duration='30'><Option hostname='volunteer.org'/></Program>
  <Program name='slow_impl' duration='150'><Option hostname='condor.org'/></Program>
  <Transition from='fast' to='join'/>
  <Transition from='fast' to='slow' on='exception:disk_full'/>
  <Transition from='slow' to='join'/>
</Workflow>"#;
    let validated = validate::validate(parse::from_str(wpdl).unwrap()).unwrap();
    let mut grid = SimGrid::new(6);
    grid.add_host(ResourceSpec::reliable("volunteer.org"));
    grid.add_host(ResourceSpec::reliable("condor.org"));
    grid.set_profile(
        "fast_impl",
        TaskProfile::reliable().with_exception("disk_full", 5, 1.0),
    );
    let report = Engine::new(validated, grid).run();
    assert!(report.is_success());
    assert_eq!(report.status_of("fast"), Some("exception:disk_full"));
    assert_eq!(report.status_of("slow"), Some("done"));
    assert_eq!(report.makespan, 156.0);
}

/// Catalog → broker → workflow construction → engine, the Figure 7
/// architecture path.
#[test]
fn broker_driven_placement_runs() {
    let mut sw = SoftwareCatalog::new();
    for host in ["a.org", "b.org", "c.org"] {
        sw.add_implementation("work", Implementation::new(host, "/bin/", "work"));
    }
    let mut rc = ResourceCatalog::new();
    rc.upsert(ResourceEntry::new("a.org").reliability(10.0, 50.0)); // flaky
    rc.upsert(ResourceEntry::new("b.org").reliability(900.0, 5.0)); // solid
    rc.upsert(ResourceEntry::new("c.org").reliability(100.0, 20.0));
    let broker = Broker::new(sw, rc);
    let hosts: Vec<String> = broker
        .select_replicas("work", BrokerPolicy::Reliability, 2)
        .unwrap()
        .into_iter()
        .map(|c| c.hostname)
        .collect();
    assert_eq!(hosts, vec!["b.org", "c.org"], "flakiest host excluded");

    let host_refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
    let mut b = WorkflowBuilder::new("brokered").program("work", 10.0, &host_refs);
    b.activity("w", "work").replicate();
    let mut grid = SimGrid::new(1);
    for h in &hosts {
        grid.add_host(ResourceSpec::reliable(h));
    }
    let report = Engine::new(b.build().unwrap(), grid).run();
    assert!(report.is_success());
    assert_eq!(
        report.submissions_of("w"),
        2,
        "one replica per brokered host"
    );
}

/// The same engine drives real OS threads through the same API.
#[test]
fn threaded_executor_end_to_end_with_recovery() {
    use std::sync::atomic::{AtomicU32, Ordering};
    static CALLS: AtomicU32 = AtomicU32::new(0);

    let mut exec = ThreadExecutor::new();
    exec.register("flaky", |ctx| {
        ctx.heartbeat();
        if CALLS.fetch_add(1, Ordering::SeqCst) == 0 {
            TaskResult::Crash
        } else {
            TaskResult::Success
        }
    });
    exec.register("after", |_| TaskResult::Success);

    let mut b = WorkflowBuilder::new("threads")
        .program("flaky", 0.05, &["localhost"])
        .program("after", 0.05, &["localhost"]);
    b.activity("a", "flaky").retry(3, 0.01).heartbeat(0.1, 10.0);
    b.activity("b", "after").heartbeat(0.1, 10.0);
    let report = Engine::new(b.edge("a", "b").build().unwrap(), exec).run();
    assert!(report.is_success(), "{:?}", report.outcome);
    assert_eq!(report.submissions_of("a"), 2, "crash then retry");
    assert!(report.trace.iter().any(|e| matches!(&e.kind,
        TraceKind::TaskSettled { reason, .. } if reason == "done-without-task-end")));
}

/// Policy typos never reach the Grid: the validation front line.
#[test]
fn invalid_workflows_are_rejected_before_submission() {
    // Undeclared exception in a handler edge.
    let wpdl = r#"
<Workflow name='bad'>
  <Activity name='a'><Implement>p</Implement></Activity>
  <Activity name='b'><Implement>p</Implement></Activity>
  <Program name='p'><Option hostname='h'/></Program>
  <Transition from='a' to='b' on='exception:tyop'/>
</Workflow>"#;
    let workflow = parse::from_str(wpdl).unwrap();
    let issues = validate::validate(workflow).unwrap_err();
    assert!(issues.iter().any(|i| i.message.contains("tyop")));
}

/// WPDL written by the builder is byte-for-byte reparseable and produces
/// the identical engine behaviour (serialisation is not lossy in ways that
/// change recovery semantics).
#[test]
fn serialized_workflow_behaves_identically() {
    let build = || {
        let mut b = WorkflowBuilder::new("roundtrip").program("p", 10.0, &["g", "h"]);
        b.activity("a", "p").retry(2, 1.0);
        b.activity("alt", "p");
        b.dummy("end").or_join();
        b.edge("a", "end")
            .on_failure("a", "alt")
            .edge("alt", "end")
            .build_unchecked()
    };
    let original = build();
    let xml = gridwfs::wpdl::writer::to_string(&original);
    let reparsed = parse::from_str(&xml).unwrap();
    assert_eq!(reparsed, original);

    let run = |w: gridwfs::wpdl::Workflow| {
        let mut grid = SimGrid::new(99);
        grid.add_host(ResourceSpec::reliable("h"));
        // 'g' unknown: first try bounces, retry moves to 'h'.
        Engine::new(validate::validate(w).unwrap(), grid).run()
    };
    let r1 = run(original);
    let r2 = run(reparsed);
    assert_eq!(r1.outcome, r2.outcome);
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.node_status, r2.node_status);
}

/// Determinism across the whole stack: same seed, same report.
#[test]
fn whole_stack_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut b = WorkflowBuilder::new("det").program("p", 20.0, &["x", "y"]);
        b.activity("a", "p").retry(3, 1.0);
        let mut grid = SimGrid::new(seed);
        grid.add_host(ResourceSpec::unreliable("x", 15.0, 5.0));
        grid.add_host(ResourceSpec::unreliable("y", 15.0, 5.0));
        let r = Engine::new(b.build().unwrap(), grid).run();
        (
            format!("{:?}", r.outcome),
            r.makespan,
            r.log.iter().map(|e| e.message.clone()).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(1234), run(1234));
    // And different seeds genuinely explore different histories.
    let histories: std::collections::HashSet<String> =
        (0..10).map(|s| format!("{:?}", run(s))).collect();
    assert!(histories.len() > 1);
}

/// Concurrency stress on the real executor: a 12-way fan-out of threaded
/// tasks with mixed outcomes, retries, and replication, all running
/// simultaneously — the engine's bookkeeping must survive true parallelism.
#[test]
fn threaded_executor_parallel_fanout_stress() {
    use gridwfs::core::{TaskResult, ThreadExecutor};
    use std::sync::atomic::{AtomicU32, Ordering};
    static FLAKY_CALLS: AtomicU32 = AtomicU32::new(0);

    let mut exec = ThreadExecutor::new();
    exec.register("steady", |ctx| {
        ctx.work_for(0.03, 0.01);
        TaskResult::Success
    });
    exec.register("flaky", |ctx| {
        ctx.heartbeat();
        // Every third call crashes.
        if FLAKY_CALLS.fetch_add(1, Ordering::SeqCst).is_multiple_of(3) {
            TaskResult::Crash
        } else {
            ctx.work_for(0.02, 0.01);
            TaskResult::Success
        }
    });

    let mut b = WorkflowBuilder::new("stress")
        .program("steady", 0.03, &["localhost"])
        .program("flaky", 0.03, &["l1", "l2"]);
    b.dummy("split");
    b.dummy("join");
    let mut bb = b;
    for i in 0..12 {
        let (name, prog) = if i % 2 == 0 {
            (format!("s{i}"), "steady")
        } else {
            (format!("f{i}"), "flaky")
        };
        let a = bb.activity(&name, prog);
        let a = a.heartbeat(0.05, 20.0);
        if prog == "flaky" {
            a.retry(5, 0.005);
        }
        bb = bb.edge("split", &name).edge(&name, "join");
    }
    let report = Engine::new(bb.build().unwrap(), exec).run();
    assert!(
        report.is_success(),
        "{:?}\n{:?}",
        report.outcome,
        report.node_status
    );
    // All 12 branches done.
    let done = report
        .node_status
        .iter()
        .filter(|(n, s)| (n.starts_with('s') || n.starts_with('f')) && s == "done")
        .count();
    assert_eq!(done, 12 + 1 /* split is 's'-prefixed */);
    // The flaky branches needed retries.
    assert!(
        report.spans.len() > 14,
        "retries occurred: {}",
        report.spans.len()
    );
}

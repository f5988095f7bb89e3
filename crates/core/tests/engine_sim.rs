//! End-to-end engine tests on the simulated Grid: every failure-handling
//! strategy the paper describes, driven through the real navigator.

use grid_wfs::engine::{Engine, EngineConfig, Report};
use grid_wfs::sim_executor::{SimGrid, TaskProfile};
use grid_wfs::{TaskOutcome, TraceKind};
use gridwfs_sim::dist::Dist;
use gridwfs_sim::resource::ResourceSpec;
use gridwfs_wpdl::builder::{figure4, figure5, figure6, WorkflowBuilder};
use gridwfs_wpdl::validate::{validate, Validated};

fn build(b: WorkflowBuilder) -> Validated {
    b.build().expect("test workflow validates")
}

fn validate_wf(w: gridwfs_wpdl::ast::Workflow) -> Validated {
    validate(w).expect("test workflow validates")
}

/// One journalled `task_submit`.
struct Submit<'a> {
    at: f64,
    activity: &'a str,
    host: &'a str,
    resume: Option<&'a str>,
}

/// Every `task_submit` in the journal, in order.
fn submits(report: &Report) -> Vec<Submit<'_>> {
    report
        .trace
        .iter()
        .filter_map(|e| match &e.kind {
            TraceKind::TaskSubmitted {
                activity,
                host,
                resume,
                ..
            } => Some(Submit {
                at: e.at,
                activity,
                host,
                resume: resume.as_deref(),
            }),
            _ => None,
        })
        .collect()
}

/// Times at which the journal settled an attempt as `outcome` for `reason`.
fn settled(report: &Report, outcome: TaskOutcome, reason: &str) -> Vec<f64> {
    report
        .trace
        .iter()
        .filter(|e| {
            matches!(&e.kind, TraceKind::TaskSettled { outcome: o, reason: r, .. }
                if *o == outcome && r == reason)
        })
        .map(|e| e.at)
        .collect()
}

/// Time of the first journal event of `tag` whose readable line contains
/// `needle`.
fn first_at(report: &Report, tag: &str, needle: &str) -> Option<f64> {
    report
        .trace
        .iter()
        .find(|e| e.kind.tag() == tag && e.kind.line().contains(needle))
        .map(|e| e.at)
}

// ------------------------------------------------------------- basics ---

#[test]
fn single_reliable_task_completes() {
    let mut b = WorkflowBuilder::new("single").program("p", 10.0, &["h"]);
    b.activity("a", "p");
    let mut grid = SimGrid::new(1);
    grid.add_host(ResourceSpec::reliable("h"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.makespan, 10.0);
    assert_eq!(report.status_of("a"), Some("done"));
    assert_eq!(report.submissions_of("a"), 1);
}

#[test]
fn submissions_count_exact_activity_names() {
    // One activity's name is a prefix of the other's, up to a space.
    let mut b = WorkflowBuilder::new("names").program("p", 1.0, &["h"]);
    b.activity("a", "p");
    b.activity("a b", "p");
    let mut grid = SimGrid::new(1);
    grid.add_host(ResourceSpec::reliable("h"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.submissions_of("a"), 1);
    assert_eq!(report.submissions_of("a b"), 1);
}

#[test]
fn linear_chain_executes_in_order() {
    let mut b = WorkflowBuilder::new("chain").program("p", 5.0, &["h"]);
    b.activity("a", "p");
    b.activity("b", "p");
    b.activity("c", "p");
    let b = b.edge("a", "b").edge("b", "c");
    let mut grid = SimGrid::new(2);
    grid.add_host(ResourceSpec::reliable("h"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.makespan, 15.0, "three sequential 5-unit tasks");
    let submit_order: Vec<&str> = submits(&report).iter().map(|s| s.activity).collect();
    assert_eq!(submit_order, vec!["a", "b", "c"]);
}

#[test]
fn fan_out_runs_in_parallel() {
    let mut b = WorkflowBuilder::new("fan").program("p", 10.0, &["h"]);
    b.dummy("split");
    b.activity("x", "p");
    b.activity("y", "p");
    b.dummy("join");
    let b = b
        .edge("split", "x")
        .edge("split", "y")
        .edge("x", "join")
        .edge("y", "join");
    let mut grid = SimGrid::new(3);
    grid.add_host(ResourceSpec::reliable("h"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.makespan, 10.0, "parallel branches overlap fully");
}

// ------------------------------------------------- task-level: retrying ---

#[test]
fn retry_masks_transient_crashes() {
    // Soft crash at 2.5 into a 10-unit task on the first two attempts, then
    // success: a deterministic "transient" failure via a crash distribution
    // that the profile draws per attempt from a decreasing sequence is not
    // expressible with Dist alone, so instead use a constant crash and
    // verify exhaustion; the success-after-retry path is covered by the
    // two-option test below.
    let mut b = WorkflowBuilder::new("retry").program("p", 10.0, &["h"]);
    b.activity("a", "p").retry(3, 2.0);
    let mut grid = SimGrid::new(4);
    grid.add_host(ResourceSpec::reliable("h"));
    grid.set_profile(
        "p",
        TaskProfile::reliable().with_soft_crash(Dist::constant(2.5)),
    );
    let report = Engine::new(build(b), grid).run();
    assert!(
        !report.is_success(),
        "crash is deterministic; retries exhaust"
    );
    assert_eq!(report.submissions_of("a"), 3, "exactly max_tries attempts");
    // Makespan: 2.5 + 2 + 2.5 + 2 + 2.5 = 11.5 (two retry intervals).
    assert_eq!(report.makespan, 11.5);
    assert_eq!(report.status_of("a"), Some("failed"));
}

#[test]
fn retry_cycles_to_a_working_resource() {
    // First option is an unknown host (instant bounce); retry moves to the
    // good host — the Figure 2 caption's "retrying on different resources".
    let mut b = WorkflowBuilder::new("cycle").program("p", 10.0, &["ghost.host", "good.host"]);
    b.activity("a", "p").retry(2, 1.0);
    let mut grid = SimGrid::new(5);
    grid.add_host(ResourceSpec::reliable("good.host"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.submissions_of("a"), 2);
    assert_eq!(report.makespan, 11.0, "bounce at 0 + interval 1 + run 10");
    let hosts: Vec<&str> = submits(&report).iter().map(|s| s.host).collect();
    assert_eq!(hosts, vec!["ghost.host", "good.host"]);
}

#[test]
fn single_try_failure_propagates_immediately() {
    let mut b = WorkflowBuilder::new("once").program("p", 10.0, &["ghost"]);
    b.activity("a", "p");
    let grid = SimGrid::new(6);
    let report = Engine::new(build(b), grid).run();
    assert!(!report.is_success());
    assert_eq!(report.submissions_of("a"), 1);
}

// ---------------------------------------------- task-level: replication ---

#[test]
fn replication_first_success_wins_and_cancels() {
    let mut b =
        WorkflowBuilder::new("replica").program("p", 10.0, &["slow.host", "fast.host", "mid.host"]);
    b.activity("a", "p").replicate();
    let mut grid = SimGrid::new(7);
    grid.add_host(ResourceSpec::reliable("slow.host").with_speed(0.5));
    grid.add_host(ResourceSpec::reliable("fast.host").with_speed(2.0));
    grid.add_host(ResourceSpec::reliable("mid.host"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.makespan, 5.0, "fast replica finishes at 10/2");
    assert_eq!(report.submissions_of("a"), 3, "all replicas submitted");
    let cancels = settled(&report, TaskOutcome::Cancelled, "node-settled");
    assert_eq!(cancels.len(), 2, "two losing replicas cancelled");
}

#[test]
fn replication_tolerates_losing_all_but_one() {
    let mut b = WorkflowBuilder::new("replica").program("p", 10.0, &["ghost1", "ghost2", "good"]);
    b.activity("a", "p").replicate();
    let mut grid = SimGrid::new(8);
    grid.add_host(ResourceSpec::reliable("good"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.makespan, 10.0);
}

#[test]
fn replication_fails_only_when_all_replicas_fail() {
    let mut b = WorkflowBuilder::new("replica").program("p", 10.0, &["ghost1", "ghost2"]);
    b.activity("a", "p").replicate();
    let grid = SimGrid::new(9);
    let report = Engine::new(build(b), grid).run();
    assert!(!report.is_success());
    assert_eq!(report.status_of("a"), Some("failed"));
}

#[test]
fn replication_combined_with_retry() {
    // §6: "users can specify each replica to be retried when it fails" —
    // each replica slot retries on its own option.
    let mut b = WorkflowBuilder::new("rpk").program("p", 10.0, &["ghost1", "good"]);
    b.activity("a", "p").replicate().retry(2, 0.5);
    let mut grid = SimGrid::new(10);
    grid.add_host(ResourceSpec::reliable("good"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    // ghost replica bounced twice (resubmitted once), good one completed.
    assert_eq!(report.submissions_of("a"), 3);
}

// -------------------------------------------- task-level: checkpointing ---

#[test]
fn checkpoint_resume_makes_progress_across_crashes() {
    // 10 units of work, checkpoint every 2, deterministic soft crash 5
    // units into every attempt:
    //   attempt 1: crashes at 5 with flag ckpt:4
    //   attempt 2: resumes at 4, crashes at 5 more (progress 9), flag ckpt:8
    //   attempt 3: resumes at 8, only 2 remain -> completes.
    let mut b = WorkflowBuilder::new("ckpt").program("p", 10.0, &["h"]);
    b.activity("a", "p").retry(5, 0.0);
    let mut grid = SimGrid::new(11);
    grid.add_host(ResourceSpec::reliable("h"));
    grid.set_profile(
        "p",
        TaskProfile::reliable()
            .with_checkpoints(2.0)
            .with_soft_crash(Dist::constant(5.0)),
    );
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.submissions_of("a"), 3);
    assert_eq!(report.makespan, 12.0, "5 + 5 + 2");
    let resumes: Vec<&str> = submits(&report).iter().filter_map(|s| s.resume).collect();
    assert_eq!(resumes, vec!["ckpt:4", "ckpt:8"]);
}

#[test]
fn without_checkpoints_the_same_crash_never_completes() {
    // The same scenario minus checkpointing exhausts its retries: the
    // paper's point that checkpointing is the only masking technique that
    // makes progress against deterministic mid-task crashes.
    let mut b = WorkflowBuilder::new("nock").program("p", 10.0, &["h"]);
    b.activity("a", "p").retry(5, 0.0);
    let mut grid = SimGrid::new(12);
    grid.add_host(ResourceSpec::reliable("h"));
    grid.set_profile(
        "p",
        TaskProfile::reliable().with_soft_crash(Dist::constant(5.0)),
    );
    let report = Engine::new(build(b), grid).run();
    assert!(!report.is_success());
    assert_eq!(report.submissions_of("a"), 5);
}

// -------------------------------------------------- heartbeat detection ---

#[test]
fn host_crash_detected_by_heartbeat_loss_and_retried_elsewhere() {
    // Host crashes (silence); detection takes hb_interval * tolerance; the
    // retry goes to the good host.
    let mut b = WorkflowBuilder::new("hb").program("p", 10.0, &["dying.host", "good.host"]);
    b.activity("a", "p").retry(2, 0.0).heartbeat(1.0, 3.0);
    let mut grid = SimGrid::new(13);
    // MTTF so small the first attempt dies almost immediately.
    grid.add_host(ResourceSpec::unreliable("dying.host", 0.001, 1000.0));
    grid.add_host(ResourceSpec::reliable("good.host"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert!(!settled(&report, TaskOutcome::Crashed, "heartbeat-loss").is_empty());
    // Crash at ~0, presumed at ~3 (tolerance), then 10 units of work.
    assert!(
        (report.makespan - 13.0).abs() < 0.1,
        "makespan {}",
        report.makespan
    );
}

#[test]
fn stalled_workflow_terminates_with_failure() {
    // Heartbeats disabled + host crash = eternal silence; the engine's
    // stall detector must still terminate the run.
    let mut b = WorkflowBuilder::new("stall").program("p", 10.0, &["dying.host"]);
    b.activity("a", "p").heartbeat(0.0, 3.0);
    let mut grid = SimGrid::new(14);
    grid.add_host(ResourceSpec::unreliable("dying.host", 0.001, 1000.0));
    let report = Engine::new(build(b), grid).run();
    assert!(!report.is_success());
    assert!(first_at(&report, "engine_stalled", "activity=\"a\"").is_some());
}

// ------------------------------------------- workflow-level: Figure 4/5/6 ---

fn two_host_grid(seed: u64) -> SimGrid {
    let mut grid = SimGrid::new(seed);
    grid.add_host(ResourceSpec::reliable("volunteer.example.org"));
    grid.add_host(ResourceSpec::reliable("condor.example.org"));
    grid
}

#[test]
fn figure4_alternative_task_on_success() {
    let grid = two_host_grid(15);
    let report = Engine::new(validate_wf(figure4(30.0, 150.0)), grid).run();
    assert!(report.is_success());
    assert_eq!(report.status_of("fast_task"), Some("done"));
    assert_eq!(report.status_of("slow_task"), Some("skipped"));
    assert_eq!(report.makespan, 30.0);
}

#[test]
fn figure4_alternative_task_on_failure() {
    let mut grid = two_host_grid(16);
    grid.set_profile(
        "fast_impl",
        TaskProfile::reliable().with_soft_crash(Dist::constant(3.0)),
    );
    let report = Engine::new(validate_wf(figure4(30.0, 150.0)), grid).run();
    assert!(report.is_success(), "degraded but continued execution");
    assert_eq!(report.status_of("fast_task"), Some("failed"));
    assert_eq!(report.status_of("slow_task"), Some("done"));
    assert_eq!(report.makespan, 153.0, "3 (crash) + 150 (alternative)");
}

#[test]
fn figure5_redundancy_returns_at_fastest_success() {
    let mut grid = two_host_grid(17);
    // Fast branch crashes; redundancy still completes via slow branch.
    grid.set_profile(
        "fast_impl",
        TaskProfile::reliable().with_soft_crash(Dist::constant(3.0)),
    );
    let report = Engine::new(validate_wf(figure5(30.0, 150.0)), grid).run();
    assert!(report.is_success());
    assert_eq!(report.makespan, 150.0, "branches started together");
}

#[test]
fn figure5_fast_branch_wins_when_healthy() {
    let grid = two_host_grid(18);
    let report = Engine::new(validate_wf(figure5(30.0, 150.0)), grid).run();
    assert!(report.is_success());
    // OR-join fires at the fast branch; the workflow still waits for the
    // slow branch to settle before declaring completion.
    assert_eq!(report.status_of("join_task"), Some("done"));
    assert_eq!(report.makespan, 150.0);
    // But the join itself completed at t=30.
    let join_done = first_at(
        &report,
        "node_state",
        r#"activity="join_task" state="done""#,
    );
    assert_eq!(join_done, Some(30.0), "join settles");
}

#[test]
fn figure6_exception_handler_routes_to_alternative() {
    let mut grid = two_host_grid(19);
    grid.set_profile(
        "fast_impl",
        TaskProfile::reliable().with_exception("disk_full", 5, 1.0),
    );
    let report = Engine::new(validate_wf(figure6(30.0, 150.0)), grid).run();
    assert!(report.is_success());
    assert_eq!(report.status_of("fast_task"), Some("exception:disk_full"));
    assert_eq!(report.status_of("slow_task"), Some("done"));
    assert_eq!(report.makespan, 156.0, "exception at first check (6) + 150");
}

#[test]
fn figure6_no_exception_skips_handler() {
    let mut grid = two_host_grid(20);
    grid.set_profile(
        "fast_impl",
        TaskProfile::reliable().with_exception("disk_full", 5, 0.0),
    );
    let report = Engine::new(validate_wf(figure6(30.0, 150.0)), grid).run();
    assert!(report.is_success());
    assert_eq!(report.status_of("slow_task"), Some("skipped"));
    assert_eq!(report.makespan, 30.0);
}

#[test]
fn undeclared_exception_is_fatal_and_unhandled() {
    let mut b = WorkflowBuilder::new("undeclared").program("p", 10.0, &["h"]);
    b.activity("a", "p").retry(3, 0.0);
    let mut grid = SimGrid::new(21);
    grid.add_host(ResourceSpec::reliable("h"));
    grid.set_profile(
        "p",
        TaskProfile::reliable().with_exception("mystery", 2, 1.0),
    );
    let report = Engine::new(build(b), grid).run();
    assert!(!report.is_success());
    assert_eq!(report.submissions_of("a"), 1, "fatal: no retry attempted");
    assert_eq!(report.status_of("a"), Some("exception:mystery"));
}

#[test]
fn recoverable_exception_is_retried_at_task_level() {
    let mut b = WorkflowBuilder::new("recoverable")
        .exception("net_congestion", false)
        .program("p", 10.0, &["h"]);
    b.activity("a", "p").retry(3, 1.0);
    let mut grid = SimGrid::new(22);
    grid.add_host(ResourceSpec::reliable("h"));
    grid.set_profile(
        "p",
        TaskProfile::reliable().with_exception("net_congestion", 2, 1.0),
    );
    let report = Engine::new(build(b), grid).run();
    assert!(
        !report.is_success(),
        "deterministic exception exhausts retries"
    );
    assert_eq!(report.submissions_of("a"), 3, "recoverable: retried");
    assert_eq!(report.status_of("a"), Some("exception:net_congestion"));
}

#[test]
fn recoverable_exception_exhaustion_still_reaches_handler() {
    // Combination: task-level retry for the recoverable exception, and a
    // workflow-level handler when masking fails — the "fail to mask" arrow
    // of the paper's Figure 1.
    let mut b = WorkflowBuilder::new("combo")
        .exception("net_congestion", false)
        .program("p", 10.0, &["h"])
        .program("alt", 20.0, &["h"]);
    b.activity("a", "p").retry(2, 0.0);
    b.activity("fallback", "alt");
    b.dummy("done").or_join();
    let b = b
        .edge("a", "done")
        .on_exception("a", "net_congestion", "fallback")
        .edge("fallback", "done");
    let mut grid = SimGrid::new(23);
    grid.add_host(ResourceSpec::reliable("h"));
    grid.set_profile(
        "p",
        TaskProfile::reliable().with_exception("net_congestion", 2, 1.0),
    );
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.submissions_of("a"), 2, "masking tried first");
    assert_eq!(report.status_of("fallback"), Some("done"));
}

// ------------------------------------------------------- loops & guards ---

#[test]
fn do_while_loop_runs_expected_iterations() {
    let mut b = WorkflowBuilder::new("loop").program("p", 5.0, &["h"]);
    b.activity("a", "p");
    b.activity("after", "p");
    let b = b.edge("a", "after").do_while("a", "runs('a') < 4");
    let mut grid = SimGrid::new(24);
    grid.add_host(ResourceSpec::reliable("h"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.submissions_of("a"), 4);
    assert_eq!(report.makespan, 25.0, "4 iterations + downstream task");
}

#[test]
fn runaway_loop_is_capped() {
    let mut b = WorkflowBuilder::new("runaway").program("p", 1.0, &["h"]);
    b.activity("a", "p");
    let b = b.do_while("a", "true");
    let mut grid = SimGrid::new(25);
    grid.add_host(ResourceSpec::reliable("h"));
    let config = EngineConfig {
        max_loop_iterations: 10,
        ..EngineConfig::default()
    };
    let report = Engine::new(build(b), grid).with_config(config).run();
    assert!(!report.is_success());
    assert!(first_at(&report, "engine_stalled", "activity=\"a\"").is_some());
}

#[test]
fn a_loop_limit_failure_settles_like_any_other() {
    // `x` readies the OR-join `j` at t=1; `r` is its slower second input.
    // The runaway loop `l` fails at its third iteration, t=3: that is a
    // settlement like any other — journalled, and followed by the
    // redundant-branch pruning that cancels `r`.
    let mut b = WorkflowBuilder::new("capped")
        .program("px", 1.0, &["h"])
        .program("pj", 100.0, &["h"])
        .program("pr", 50.0, &["h"])
        .program("pl", 1.0, &["h"]);
    b.activity("x", "px");
    b.activity("j", "pj").or_join();
    b.activity("r", "pr");
    b.activity("l", "pl");
    let b = b.edge("x", "j").edge("r", "j").do_while("l", "true");
    let mut grid = SimGrid::new(25);
    grid.add_host(ResourceSpec::reliable("h"));
    let config = EngineConfig {
        cancel_redundant: true,
        max_loop_iterations: 3,
        ..EngineConfig::default()
    };
    let report = Engine::new(build(b), grid).with_config(config).run();
    let at = |tag: &str, fields: &str| first_at(&report, tag, fields);
    assert_eq!(at("engine_stalled", r#"activity="l""#), Some(3.0));
    assert_eq!(
        at("node_state", r#"activity="l" state="failed""#),
        Some(3.0)
    );
    assert_eq!(
        at("node_state", r#"activity="r" state="skipped""#),
        Some(3.0)
    );
    assert_eq!(at("task_settle", r#"activity="r""#), Some(3.0));
    assert_eq!(report.status_of("l"), Some("failed"));
    assert_eq!(report.status_of("r"), Some("skipped"));
    assert_eq!(report.status_of("j"), Some("done"));
    assert_eq!(report.cancellations(), 1, "only r's attempt");
}

#[test]
fn conditional_transitions_route_on_runtime_state() {
    let mut b = WorkflowBuilder::new("route").program("p", 2.0, &["h"]);
    b.activity("probe", "p");
    b.activity("expensive", "p");
    b.activity("cheap", "p");
    let b = b
        .edge_if("probe", "expensive", "runs('probe') > 1")
        .edge_if("probe", "cheap", "runs('probe') <= 1");
    let mut grid = SimGrid::new(26);
    grid.add_host(ResourceSpec::reliable("h"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.status_of("cheap"), Some("done"));
    assert_eq!(report.status_of("expensive"), Some("skipped"));
}

// --------------------------------------------------- engine checkpointing ---

#[test]
fn engine_checkpoint_restart_resumes_navigation() {
    use grid_wfs::checkpoint;
    let dir = std::env::temp_dir().join(format!("gridwfs-engine-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.xml");

    // Phase 1: run a chain a -> b -> c where b's program always crashes, so
    // the run ends in failure after recording a's completion.
    let mk = |crash: bool, seed: u64| {
        let mut b = WorkflowBuilder::new("restartable")
            .program("pa", 5.0, &["h"])
            .program("pb", 5.0, &["h"])
            .program("pc", 5.0, &["h"]);
        b.activity("a", "pa");
        b.activity("b", "pb");
        b.activity("c", "pc");
        let b = b.edge("a", "b").edge("b", "c");
        let mut grid = SimGrid::new(seed);
        grid.add_host(ResourceSpec::reliable("h"));
        if crash {
            grid.set_profile(
                "pb",
                TaskProfile::reliable().with_soft_crash(Dist::constant(1.0)),
            );
        }
        (b, grid)
    };
    let (b, grid) = mk(true, 27);
    let report = Engine::new(build(b), grid).with_checkpointing(&path).run();
    assert!(!report.is_success());

    // Phase 2: "the engine creates a parse tree from the saved XML file...
    // and begins navigation from where it left off".  The Grid is healthy
    // now; a restarted engine must NOT rerun a.
    let restored = checkpoint::load(&path).unwrap();
    assert_eq!(restored.status("a").as_expr_str(), "done");
    // b was settled failed in the checkpoint — the failure is sticky; to
    // resume after an unrecoverable failure users fix the workflow. Here we
    // test the mid-run case instead: craft a checkpoint where b is pending.
    let mut mid = checkpoint::from_xml(&checkpoint::to_xml(&restored)).unwrap();
    // Reset b/c to pending by rebuilding from a hand-edited document; b's
    // outgoing edge goes back to pending with it.
    let text = checkpoint::to_xml(&mid)
        .replace("status='failed'", "status='pending'")
        .replace("status='skipped'", "status='pending'")
        .replace("edges='fd'", "edges='fp'");
    mid = checkpoint::from_xml(&text).unwrap();
    let (_, grid2) = mk(false, 28);
    let report2 = Engine::from_instance(mid, grid2).run();
    assert!(report2.is_success());
    assert_eq!(report2.submissions_of("a"), 0, "a's completion was reused");
    assert_eq!(report2.submissions_of("b"), 1);
    assert_eq!(report2.submissions_of("c"), 1);
    assert_eq!(report2.makespan, 10.0, "only b and c execute");
    std::fs::remove_dir_all(&dir).ok();
}

// ----------------------------------------------- §6 flexibility claims ---

#[test]
fn strategy_swap_changes_behaviour_without_touching_programs() {
    // Same two implementations; three §5 strategies; behaviour differs in
    // exactly the way the paper claims, with zero program changes.
    let crash_profile = || TaskProfile::reliable().with_soft_crash(Dist::constant(3.0));

    // Figure 4 (alternative task): serial — slow runs only after failure.
    let mut g4 = two_host_grid(29);
    g4.set_profile("fast_impl", crash_profile());
    let r4 = Engine::new(validate_wf(figure4(30.0, 150.0)), g4).run();

    // Figure 5 (redundancy): parallel — slow was already running.
    let mut g5 = two_host_grid(30);
    g5.set_profile("fast_impl", crash_profile());
    let r5 = Engine::new(validate_wf(figure5(30.0, 150.0)), g5).run();

    assert!(r4.is_success() && r5.is_success());
    assert_eq!(
        r4.makespan, 153.0,
        "alternative task pays the failure first"
    );
    assert_eq!(r5.makespan, 150.0, "redundancy hides the failure entirely");
}

#[test]
fn task_level_and_workflow_level_techniques_combine() {
    // §6: make the Fast_Unreliable_Task more tolerant by adding task-level
    // retrying inside the Figure 4 structure.
    let mut w = figure4(30.0, 150.0);
    // fast crashes deterministically; with 3 tries it still fails, but the
    // workflow survives via the alternative; with a transient crash on only
    // the 'volunteer' host and a second option, retry alone saves it.
    if let Some(a) = w.activities.iter_mut().find(|a| a.name == "fast_task") {
        a.max_tries = 2;
        a.retry_interval = 1.0;
    }
    if let Some(p) = w.programs.iter_mut().find(|p| p.name == "fast_impl") {
        p.options
            .push(gridwfs_wpdl::ast::ProgramOption::host("backup.example.org"));
    }
    let mut grid = two_host_grid(31);
    grid.add_host(ResourceSpec::reliable("backup.example.org"));
    // volunteer.example.org dies instantly; backup is fine.
    let mut grid2 = SimGrid::new(32);
    grid2.add_host(ResourceSpec::unreliable(
        "volunteer.example.org",
        0.001,
        1e6,
    ));
    grid2.add_host(ResourceSpec::reliable("condor.example.org"));
    grid2.add_host(ResourceSpec::reliable("backup.example.org"));
    let report = Engine::new(validate_wf(w), grid2).run();
    assert!(report.is_success());
    assert_eq!(
        report.status_of("fast_task"),
        Some("done"),
        "task-level retry on the backup host masked the crash"
    );
    assert_eq!(report.status_of("slow_task"), Some("skipped"));
}

#[test]
fn retry_backoff_spaces_attempts_exponentially() {
    // interval=2, backoff=2: retries wait 2, 4, 8 after failures at 0 cost
    // (instant bounce on an unknown host).
    let mut b = WorkflowBuilder::new("backoff").program("p", 10.0, &["ghost"]);
    b.activity("a", "p").retry(4, 2.0).backoff(2.0);
    let grid = SimGrid::new(33);
    let report = Engine::new(build(b), grid).run();
    assert!(!report.is_success());
    assert_eq!(report.submissions_of("a"), 4);
    let submit_times: Vec<f64> = submits(&report).iter().map(|s| s.at).collect();
    assert_eq!(submit_times, vec![0.0, 2.0, 6.0, 14.0], "gaps 2, 4, 8");
}

// ----------------------------------------------------- lossy transport ---

#[test]
fn dropped_task_end_causes_spurious_retry_but_workflow_completes() {
    // A lossy link can drop the Task End notification: the engine then sees
    // Done without Task End and — correctly per the §4.1 rule — declares a
    // crash.  The retry policy absorbs the misclassification: the second
    // attempt's messages get through and the workflow still succeeds.
    // We engineer the drop deterministically with a link that loses ~40%
    // of messages and a retry budget large enough to cover it.
    use gridwfs_sim::net::LinkModel;
    let mut b = WorkflowBuilder::new("lossy").program("p", 5.0, &["h"]);
    // Heartbeats off: the only messages are TaskStart/TaskEnd/Done, so
    // drops target exactly the classification-relevant messages.
    b.activity("a", "p").retry(50, 1.0).heartbeat(0.0, 3.0);
    let mut found_spurious = false;
    for seed in 0..50u64 {
        let mut grid = SimGrid::new(seed).with_link(LinkModel::lossy(0.0, 0.4));
        grid.add_host(ResourceSpec::reliable("h"));
        let report = Engine::new(build(b.clone()), grid).run();
        if !report.is_success() {
            continue; // Done itself can be dropped -> stall-failure; fine
        }
        if report.submissions_of("a") > 1 {
            found_spurious = true;
            assert!(!settled(&report, TaskOutcome::Crashed, "done-without-task-end").is_empty());
            break;
        }
    }
    assert!(
        found_spurious,
        "across 50 seeds at 40% loss, at least one run must show the \
         dropped-TaskEnd spurious-retry-then-success pattern"
    );
}

#[test]
fn fully_partitioned_link_fails_cleanly() {
    use gridwfs_sim::net::LinkModel;
    let mut b = WorkflowBuilder::new("partitioned").program("p", 5.0, &["h"]);
    b.activity("a", "p").heartbeat(1.0, 3.0);
    let mut grid = SimGrid::new(1).with_link(LinkModel::partitioned());
    grid.add_host(ResourceSpec::reliable("h"));
    let report = Engine::new(build(b), grid).run();
    assert!(!report.is_success());
    // Nothing ever arrived, so detection came from heartbeat silence.
    assert!(!settled(&report, TaskOutcome::Crashed, "heartbeat-loss").is_empty());
}

// ------------------------------------ engine as the Figure 13 retry curve ---

#[test]
fn engine_retry_strategy_reproduces_fig13_retry_model() {
    // The Figure 13 "Retrying" curve, driven through the actual engine:
    // a recoverable disk_full exception with an effectively unbounded
    // retry budget restarts the fast task from scratch — the engine's
    // mean makespan must match the closed-form retry expectation.
    use gridwfs_eval::exception_dag::{retry_expected, DagParams};
    use gridwfs_eval::stats::OnlineStats;
    let p = 0.4;
    let runs = 300;
    let mut stats = OnlineStats::new();
    for i in 0..runs {
        let mut b = WorkflowBuilder::new("fig13-rt")
            .exception("disk_full", false) // recoverable => task-level retry
            .program("fu", 30.0, &["h"]);
        b.activity("fu", "fu").retry(100_000, 0.0);
        let mut grid = SimGrid::new(0xF13 + i);
        grid.add_host(ResourceSpec::reliable("h"));
        grid.set_profile(
            "fu",
            TaskProfile::reliable().with_exception("disk_full", 5, p),
        );
        let report = Engine::new(b.build().unwrap(), grid).run();
        assert!(report.is_success());
        stats.push(report.makespan);
    }
    let model = retry_expected(&DagParams {
        fu: 30.0,
        sr: 150.0,
        dj: 0.0,
        checks: 5,
        p,
        c: 0.5,
        r: 0.5,
    });
    let e = stats.estimate();
    assert!(
        (e.mean - model).abs() <= 5.0 * e.stderr,
        "engine {} vs model {model} (stderr {})",
        e.mean,
        e.stderr
    );
}

#[test]
fn reorder_buffer_prevents_spurious_crash_classification() {
    // A jittery link (delay ~ U[0, 2)) can deliver Done before Task End.
    // Without the buffer the engine retries a task that succeeded; with
    // reorder_settle >= the jitter bound, classification is always right.
    use gridwfs_sim::dist::Dist;
    use gridwfs_sim::net::LinkModel;
    let jittery = || LinkModel {
        delay: Dist::uniform(0.0, 2.0),
        drop_p: 0.0,
        dup_p: 0.0,
    };
    let wf = || {
        let mut b = WorkflowBuilder::new("jitter").program("p", 5.0, &["h"]);
        b.activity("a", "p").retry(3, 0.5).heartbeat(0.0, 3.0);
        build(b)
    };
    // Find a seed where the plain engine misclassifies (spurious retry).
    let mut reorder_seed = None;
    for seed in 0..200u64 {
        let mut grid = SimGrid::new(seed).with_link(jittery());
        grid.add_host(ResourceSpec::reliable("h"));
        let report = Engine::new(wf(), grid).run();
        if !settled(&report, TaskOutcome::Crashed, "done-without-task-end").is_empty() {
            reorder_seed = Some(seed);
            break;
        }
    }
    let seed = reorder_seed.expect("200 seeds at U[0,2) jitter must reorder at least once");

    // Same seed, buffered engine: no misclassification, single attempt.
    let mut grid = SimGrid::new(seed).with_link(jittery());
    grid.add_host(ResourceSpec::reliable("h"));
    let config = EngineConfig {
        reorder_settle: Some(2.0), // >= jitter bound
        ..EngineConfig::default()
    };
    let report = Engine::new(wf(), grid).with_config(config).run();
    assert!(report.is_success());
    assert_eq!(report.submissions_of("a"), 1, "no spurious retry");
    assert!(settled(&report, TaskOutcome::Crashed, "done-without-task-end").is_empty());
}

// --------------------------------------- cancel_redundant extension ---

#[test]
fn cancel_redundant_stops_the_losing_branch_of_figure5() {
    // Paper behaviour: figure 5 waits for the slow branch even after the
    // OR-join fired (makespan 150).  With cancel_redundant the engine
    // kills the slow branch at t=30.
    let grid = || {
        let mut g = SimGrid::new(40);
        g.add_host(ResourceSpec::reliable("volunteer.example.org"));
        g.add_host(ResourceSpec::reliable("condor.example.org"));
        g
    };
    let default_run = Engine::new(validate_wf(figure5(30.0, 150.0)), grid()).run();
    assert_eq!(
        default_run.makespan, 150.0,
        "paper default: both branches finish"
    );

    let config = EngineConfig {
        cancel_redundant: true,
        ..EngineConfig::default()
    };
    let pruned = Engine::new(validate_wf(figure5(30.0, 150.0)), grid())
        .with_config(config)
        .run();
    assert!(pruned.is_success());
    assert_eq!(pruned.makespan, 30.0, "slow branch cancelled at the join");
    assert_eq!(pruned.status_of("slow_task"), Some("skipped"));
    assert_eq!(pruned.cancellations(), 1);
    // CPU accounting shows the saving: condor burned 30 instead of 150.
    let util = pruned.host_utilization();
    let condor = util
        .iter()
        .find(|(h, _)| h == "condor.example.org")
        .unwrap();
    assert_eq!(condor.1, 30.0);
}

#[test]
fn cancel_redundant_never_kills_branches_that_feed_pending_and_joins() {
    // A branch also feeding an AND-join (or a pending OR-join) must not be
    // pruned.
    let mut b = WorkflowBuilder::new("mixed").program("p", 10.0, &["h"]);
    b.activity("fast", "p");
    b.activity("slow", "p");
    b.dummy("or").or_join();
    b.dummy("and"); // AND-join over both branches
    let b = b
        .edge("fast", "or")
        .edge("slow", "or")
        .edge("fast", "and")
        .edge("slow", "and");
    let mut grid = SimGrid::new(41);
    grid.add_host(ResourceSpec::reliable("h"));
    let config = EngineConfig {
        cancel_redundant: true,
        ..EngineConfig::default()
    };
    let report = Engine::new(build(b), grid).with_config(config).run();
    assert!(report.is_success());
    assert_eq!(
        report.status_of("slow"),
        Some("done"),
        "needed by the AND-join"
    );
    assert_eq!(report.status_of("and"), Some("done"));
    assert_eq!(report.cancellations(), 0);
}

#[test]
fn host_utilization_accounts_all_spans() {
    let mut b = WorkflowBuilder::new("util").program("p", 10.0, &["h1", "h2"]);
    b.activity("a", "p").replicate();
    let mut grid = SimGrid::new(42);
    grid.add_host(ResourceSpec::reliable("h1").with_speed(2.0)); // wins at 5
    grid.add_host(ResourceSpec::reliable("h2"));
    let report = Engine::new(build(b), grid).run();
    let util = report.host_utilization();
    assert_eq!(
        util,
        vec![("h1".to_string(), 5.0), ("h2".to_string(), 5.0)],
        "winner ran 5; loser was cancelled at 5"
    );
}

#[test]
fn engine_checkpoint_strategy_reproduces_fig13_checkpointing_model() {
    // The Figure 13 "Checkpointing" curve through the engine: the task
    // checkpoints at every check boundary (period 6 over duration 30), so
    // a recoverable exception at check i resumes from 6(i-1) and only the
    // failed segment is re-drawn.  With zero checkpoint/recovery overhead
    // the closed form is E[T] = checks·step/(1-p) = 30/(1-p).
    use gridwfs_eval::stats::OnlineStats;
    let p = 0.4;
    let runs = 300;
    let mut stats = OnlineStats::new();
    for i in 0..runs {
        let mut b = WorkflowBuilder::new("fig13-ck")
            .exception("disk_full", false)
            .program("fu", 30.0, &["h"]);
        b.activity("fu", "fu").retry(100_000, 0.0);
        let mut grid = SimGrid::new(0xC13 + i * 31);
        grid.add_host(ResourceSpec::reliable("h"));
        grid.set_profile(
            "fu",
            TaskProfile::reliable()
                .with_checkpoints(6.0)
                .with_exception("disk_full", 5, p),
        );
        let report = Engine::new(b.build().unwrap(), grid).run();
        assert!(report.is_success());
        stats.push(report.makespan);
    }
    let model = 30.0 / (1.0 - p);
    let e = stats.estimate();
    assert!(
        (e.mean - model).abs() <= 5.0 * e.stderr,
        "engine {} vs model {model} (stderr {})",
        e.mean,
        e.stderr
    );
}

// ------------------------------------------- combined-policy corners ---

#[test]
fn replica_slots_keep_their_own_checkpoint_flags() {
    // Two replicas on hosts of different speeds, both checkpoint-enabled,
    // both soft-crashing: each slot must resume from ITS OWN flag (wall
    // progress differs with speed), not a shared one — checkpoint files
    // are host-local in the real system.
    let mut b = WorkflowBuilder::new("slotckpt").program("p", 20.0, &["fast.h", "slow.h"]);
    b.activity("a", "p").replicate().retry(4, 0.0);
    let mut grid = SimGrid::new(77);
    grid.add_host(ResourceSpec::reliable("fast.h").with_speed(2.0));
    grid.add_host(ResourceSpec::reliable("slow.h"));
    // Soft crash is a *nominal-time* process scaled by host speed: the
    // fast host crashes at wall 7 (nominal 14, last flag ckpt:12); the
    // slow host would crash at wall 14 but is cancelled before that.
    grid.set_profile(
        "p",
        TaskProfile::reliable()
            .with_checkpoints(2.0)
            .with_soft_crash(Dist::constant(14.0)),
    );
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success(), "{:?}", report.outcome);
    // fast.h attempt 2: resumes at nominal 12, remaining 8 -> wall 4,
    // finishing at 7 + 4 = 11 before its next crash (wall 14).
    assert_eq!(
        report.makespan, 11.0,
        "fast replica resumed from its own flag"
    );
    let resumes: Vec<&str> = submits(&report).iter().filter_map(|s| s.resume).collect();
    assert_eq!(
        resumes,
        vec!["ckpt:12"],
        "only the fast slot retried, from ITS flag"
    );
    // The slow slot meanwhile recorded different (unused) flags of its own
    // — per-slot isolation, not a shared activity-level flag.
    assert!(
        first_at(&report, "checkpoint_flag", r#"task=2 flag="ckpt:10""#).is_some(),
        "slow slot's own progression was tracked"
    );
}

#[test]
fn loop_with_retry_inside_each_iteration() {
    // A do-while loop whose body needs task-level retries in every
    // iteration: runs('a') counts completions, not attempts.
    let mut b = WorkflowBuilder::new("loopretry").program("p", 4.0, &["ghost", "h"]);
    b.activity("a", "p").retry(2, 0.0);
    let b = b.do_while("a", "runs('a') < 3");
    let mut grid = SimGrid::new(78);
    grid.add_host(ResourceSpec::reliable("h"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    // Each iteration: bounce on ghost, succeed on h -> 2 submissions x 3.
    assert_eq!(report.submissions_of("a"), 6);
    assert_eq!(report.makespan, 12.0);
}

#[test]
fn a_retry_timer_does_not_leak_into_the_next_loop_iteration() {
    // The ghost replica is waiting on its t=6 retry when the h replica
    // wins at t=4 and the loop goes round: that timer belongs to the
    // finished iteration and must not fire into the next one, where it
    // would spend a retry and resubmit over the live slot.
    let mut b = WorkflowBuilder::new("loopreplica").program("p", 4.0, &["ghost", "h"]);
    b.activity("a", "p").replicate().retry(3, 3.0);
    let b = b.do_while("a", "runs('a') < 2");
    let mut grid = SimGrid::new(78);
    grid.add_host(ResourceSpec::reliable("h"));
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success(), "{:?}", report.outcome);
    let ghost_submits: Vec<f64> = submits(&report)
        .iter()
        .filter(|s| s.host == "ghost")
        .map(|s| s.at)
        .collect();
    // Iteration 1: t=0 and its retry at 3; iteration 2: t=4 and its retry
    // at 7 — nothing at 6.
    assert_eq!(ghost_submits, vec![0.0, 3.0, 4.0, 7.0]);
    assert_eq!(report.submissions_of("a"), 6);
    assert_eq!(report.makespan, 8.0);
}

#[test]
fn a_deadline_abort_journals_its_cancellations_in_task_order() {
    // Four replicas are live when the deadline aborts the run: the abort
    // must cancel them in a fixed order, or the journal of a deadline run
    // would depend on hash-map iteration order.
    let run = || {
        let mut b = WorkflowBuilder::new("abort").program("p", 50.0, &["h1", "h2", "h3", "h4"]);
        b.activity("a", "p").replicate();
        let mut grid = SimGrid::new(82);
        for h in ["h1", "h2", "h3", "h4"] {
            grid.add_host(ResourceSpec::reliable(h));
        }
        let config = EngineConfig {
            deadline: Some(5.0),
            ..EngineConfig::default()
        };
        Engine::new(build(b), grid).with_config(config).run()
    };
    let first = run();
    assert_eq!(first.aborted.as_deref(), Some("deadline"));
    let cancelled: Vec<u64> = first
        .trace
        .iter()
        .filter_map(|e| match &e.kind {
            TraceKind::TaskSettled { task, reason, .. } if reason == "abort" => Some(*task),
            _ => None,
        })
        .collect();
    assert_eq!(cancelled, [1, 2, 3, 4]);
    for _ in 0..8 {
        assert_eq!(run().trace_jsonl(), first.trace_jsonl());
    }
}

#[test]
fn exception_handler_chain_cascades() {
    // a raises oom -> handler b raises disk_full -> handler c completes:
    // workflow-level handlers can themselves be handled.
    let mut b = WorkflowBuilder::new("chain")
        .exception("oom", true)
        .exception("disk_full", true)
        .program("pa", 5.0, &["h"])
        .program("pb", 5.0, &["h"])
        .program("pc", 5.0, &["h"]);
    b.activity("a", "pa");
    b.activity("b", "pb");
    b.activity("c", "pc");
    b.dummy("end").or_join();
    let b = b
        .edge("a", "end")
        .on_exception("a", "oom", "b")
        .edge("b", "end")
        .on_exception("b", "disk_full", "c")
        .edge("c", "end");
    let mut grid = SimGrid::new(79);
    grid.add_host(ResourceSpec::reliable("h"));
    grid.set_profile("pa", TaskProfile::reliable().with_exception("oom", 1, 1.0));
    grid.set_profile(
        "pb",
        TaskProfile::reliable().with_exception("disk_full", 1, 1.0),
    );
    let report = Engine::new(build(b), grid).run();
    assert!(report.is_success());
    assert_eq!(report.status_of("a"), Some("exception:oom"));
    assert_eq!(report.status_of("b"), Some("exception:disk_full"));
    assert_eq!(report.status_of("c"), Some("done"));
    assert_eq!(
        report.makespan, 15.0,
        "exceptions at 5 and 10, c finishes at 15"
    );
}

#[test]
fn abort_via_max_settlements_leaves_resumable_state() {
    // Direct test of the simulated-engine-crash hook.
    use grid_wfs::checkpoint;
    let dir = std::env::temp_dir().join(format!("gridwfs-abort-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("s.xml");
    let mk = || {
        let mut b = WorkflowBuilder::new("abortable").program("p", 5.0, &["h"]);
        b.activity("a", "p");
        b.activity("b", "p");
        b.activity("c", "p");
        b.edge("a", "b").edge("b", "c").build().unwrap()
    };
    let mut grid = SimGrid::new(80);
    grid.add_host(ResourceSpec::reliable("h"));
    let config = EngineConfig {
        max_settlements: Some(1),
        ..EngineConfig::default()
    };
    let phase1 = Engine::new(mk(), grid)
        .with_config(config)
        .with_checkpointing(&ckpt)
        .run();
    assert!(!phase1.is_success(), "aborted mid-run");
    assert_eq!(phase1.status_of("a"), Some("done"));

    let restored = checkpoint::load(&ckpt).unwrap();
    let mut grid2 = SimGrid::new(81);
    grid2.add_host(ResourceSpec::reliable("h"));
    let phase2 = Engine::from_instance(restored, grid2).run();
    assert!(phase2.is_success());
    assert_eq!(phase2.submissions_of("a"), 0);
    assert_eq!(phase2.makespan, 10.0, "b and c only");
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------ resilient scheduling ---

#[test]
fn resilient_retries_migrate_off_a_targeted_dying_host() {
    use grid_wfs::timeline::SpanOutcome;
    use grid_wfs::{SchedulerPolicy, ScorerConfig};
    // A mini sweep over seeds: the first option's host dies almost
    // immediately (a targeted failure), heartbeat loss detects it, and the
    // scorer must steer every retry to the healthy hosts — the activity
    // settles exactly once, with exactly one burnt attempt on the doomed
    // host (the zero-evidence first placement).
    for seed in 0..8u64 {
        let mut b = WorkflowBuilder::new("steer").program(
            "p",
            10.0,
            &["doomed.host", "ok1.host", "ok2.host"],
        );
        b.activity("a", "p").retry(4, 1.0).heartbeat(1.0, 3.0);
        let mut grid = SimGrid::new(seed);
        grid.add_host(ResourceSpec::unreliable("doomed.host", 0.001, 1e6));
        grid.add_host(ResourceSpec::reliable("ok1.host"));
        grid.add_host(ResourceSpec::reliable("ok2.host"));
        let config = EngineConfig {
            scheduler: SchedulerPolicy::Resilient(ScorerConfig::default()),
            ..EngineConfig::default()
        };
        let report = Engine::new(build(b), grid).with_config(config).run();
        assert!(report.is_success(), "seed {seed}");
        let completed: Vec<_> = report
            .spans
            .iter()
            .filter(|s| s.outcome == SpanOutcome::Completed)
            .collect();
        assert_eq!(completed.len(), 1, "seed {seed}: settled exactly once");
        assert_ne!(completed[0].host, "doomed.host", "seed {seed}");
        let doomed_attempts = report
            .spans
            .iter()
            .filter(|s| s.host == "doomed.host")
            .count();
        assert_eq!(
            doomed_attempts, 1,
            "seed {seed}: retries migrated off the doomed host"
        );
        // The utilization histogram tells the same story: the doomed host
        // only ever held the lost first attempt, never a full task.
        let doomed_busy = report
            .host_utilization()
            .into_iter()
            .find(|(h, _)| h == "doomed.host")
            .map(|(_, t)| t)
            .unwrap_or(0.0);
        assert!(
            doomed_busy < 10.0,
            "seed {seed}: doomed host busy {doomed_busy} — ran a task to completion?"
        );
    }
}

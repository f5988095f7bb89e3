//! Restore equivalence: at every step of a run, the instance decoded from
//! its checkpoint navigates exactly like the live one.  Workflows mix every
//! trigger the paper's workflow level uses (`done`, `failed` alternative
//! tasks, `exception:<name>` handlers, `always` cleanups), AND and OR joins,
//! and guards over `status()`, `runs()` and `$vars` that the run keeps
//! changing, so a guard re-evaluated at restore time would read a different
//! state than the one it was resolved against.

use grid_wfs::checkpoint;
use grid_wfs::instance::{Instance, NodeStatus};
use gridwfs_sim::check::{self, forall};
use gridwfs_sim::rng::Rng;
use gridwfs_wpdl::ast::{
    Activity, ExceptionDecl, JoinMode, LoopSpec, Program, Transition, Trigger, VarDecl, Workflow,
};
use gridwfs_wpdl::expr::{self, Value};
use gridwfs_wpdl::validate::validate;

fn guard(rng: &mut Rng, n: usize) -> String {
    let k = rng.index(n);
    match rng.index(5) {
        0 => format!("status('t{k}') == 'done'"),
        1 => format!("status('t{k}') != 'pending'"),
        2 => format!("runs('t{k}') >= 1"),
        3 => "$x > 1".to_string(),
        _ => "$flag".to_string(),
    }
}

fn workflow(rng: &mut Rng) -> Workflow {
    let n = check::between(rng, 3..9);
    let mut w = Workflow::new("restorable");
    w.programs.push(Program::new("p", 1.0, "h"));
    w.exceptions.push(ExceptionDecl {
        name: "e1".into(),
        fatal: false,
        description: String::new(),
    });
    w.variables.push(VarDecl {
        name: "x".into(),
        value: Value::Num(0.0),
    });
    w.variables.push(VarDecl {
        name: "flag".into(),
        value: Value::Bool(false),
    });
    for i in 0..n {
        let mut a = Activity::new(format!("t{i}"), "p");
        if rng.index(3) == 0 {
            a.join = JoinMode::Or;
        }
        w.activities.push(a);
    }
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n + rng.index(2 * n) {
        let from = rng.index(n - 1);
        let to = from + 1 + rng.index(n - from - 1);
        let trigger = match rng.index(6) {
            0 => Trigger::Failed,
            1 => Trigger::Exception("e1".into()),
            2 => Trigger::Always,
            _ => Trigger::Done,
        };
        if !seen.insert((from, to, trigger.clone())) {
            continue;
        }
        let mut t = Transition::new(format!("t{from}"), format!("t{to}")).on(trigger);
        if rng.index(2) == 0 {
            t = t.when(expr::parse(&guard(rng, n)).unwrap());
        }
        w.transitions.push(t);
    }
    if rng.index(3) == 0 {
        let i = rng.index(n);
        w.loops.push(LoopSpec {
            activity: format!("t{i}"),
            condition: expr::parse(&format!("runs('t{i}') < 2")).unwrap(),
        });
    }
    w
}

/// Checks the decoded instance against the live one: same edge states,
/// same outcome, and the same activities to launch — a running activity
/// is checkpointed as pending, so the decoded one offers it again.
fn assert_restores(live: &Instance, step: usize) {
    let back = checkpoint::from_xml(&checkpoint::to_xml(live)).unwrap();
    let edges = |i: &Instance| {
        (0..i.workflow().transitions.len())
            .map(|e| i.edge_state(e))
            .collect::<Vec<_>>()
    };
    assert_eq!(edges(&back), edges(live), "edge states at step {step}");
    let ready = live.ready_nodes();
    let relaunch: Vec<String> = live
        .statuses()
        .filter(|(n, s)| **s == NodeStatus::Running || ready.iter().any(|r| r == n))
        .map(|(n, _)| n.to_string())
        .collect();
    assert_eq!(back.ready_nodes(), relaunch, "ready set at step {step}");
    assert_eq!(back.outcome(), live.outcome(), "outcome at step {step}");
}

#[test]
fn a_decoded_checkpoint_navigates_like_the_live_instance() {
    forall(300, &[], |rng| {
        let mut inst =
            Instance::new(validate(workflow(rng)).expect("generated workflows validate"));
        assert_restores(&inst, 0);
        for step in 1..200 {
            let ready = inst.ready_nodes();
            let running: Vec<String> = inst
                .statuses()
                .filter(|(_, s)| **s == NodeStatus::Running)
                .map(|(n, _)| n.to_string())
                .collect();
            if ready.is_empty() && running.is_empty() {
                break;
            }
            if running.is_empty() || (!ready.is_empty() && rng.index(2) == 0) {
                inst.mark_running(&ready[rng.index(ready.len())]);
            } else {
                let name = &running[rng.index(running.len())];
                let status = match rng.index(5) {
                    0 => NodeStatus::Failed,
                    1 => NodeStatus::Exception("e1".into()),
                    _ => NodeStatus::Done,
                };
                inst.settle(name, status);
            }
            match rng.index(4) {
                0 => inst.set_var("x", Value::Num(rng.index(3) as f64)),
                1 => inst.set_var("flag", Value::Bool(rng.index(2) == 0)),
                _ => {}
            }
            assert_restores(&inst, step);
        }
        assert!(inst.is_finished(), "the walk reaches a terminal state");
    });
}

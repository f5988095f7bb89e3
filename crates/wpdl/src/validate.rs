//! Static validation of workflow definitions.
//!
//! The engine refuses to navigate a definition that fails these checks —
//! the whole point of a high-level recovery-policy specification is that a
//! policy typo is caught before anything is submitted to the Grid, not
//! discovered as a hung workflow at 3am.  Validation returns *all* issues,
//! not just the first, and computes the topological order the engine's
//! navigator uses.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::ast::{Policy, Trigger, Workflow};

/// One validation problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Issue {
    /// Machine-matchable category.
    pub kind: IssueKind,
    /// Human explanation.
    pub message: String,
}

/// Categories of validation problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// The workflow has no activities.
    Empty,
    /// A name is declared twice.
    DuplicateName,
    /// A reference points at a name that does not exist.
    DanglingReference,
    /// A policy combination is meaningless (e.g. replica on a dummy).
    BadPolicy,
    /// The transition graph contains a cycle.
    Cycle,
    /// An edge is degenerate (self-loop or exact duplicate).
    BadEdge,
}

impl std::fmt::Display for Issue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.message)
    }
}

/// A workflow that passed validation, with its topological order.
#[derive(Debug, Clone, PartialEq)]
pub struct Validated {
    workflow: Workflow,
    topo: Vec<String>,
}

impl Validated {
    /// The validated definition.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// Activity names in a topological order of the transition DAG
    /// (ties broken by declaration order, so the order is deterministic).
    pub fn topological_order(&self) -> &[String] {
        &self.topo
    }

    /// Consumes the wrapper.
    pub fn into_workflow(self) -> Workflow {
        self.workflow
    }
}

fn check_unique<'a>(
    names: impl Iterator<Item = &'a str>,
    what: &str,
    issues: &mut Vec<Issue>,
) -> HashSet<&'a str> {
    let mut seen = HashSet::new();
    for n in names {
        if !seen.insert(n) {
            issues.push(Issue {
                kind: IssueKind::DuplicateName,
                message: format!("{what} '{n}' is declared more than once"),
            });
        }
    }
    seen
}

/// Validates a workflow, returning it wrapped with its topological order,
/// or every issue found.
pub fn validate(workflow: Workflow) -> Result<Validated, Vec<Issue>> {
    let mut issues = Vec::new();
    let w = &workflow;

    if w.activities.is_empty() {
        issues.push(Issue {
            kind: IssueKind::Empty,
            message: "workflow declares no activities".into(),
        });
    }

    let activity_names = check_unique(
        w.activities.iter().map(|a| a.name.as_str()),
        "activity",
        &mut issues,
    );
    let program_names = check_unique(
        w.programs.iter().map(|p| p.name.as_str()),
        "program",
        &mut issues,
    );
    let exception_names = check_unique(
        w.exceptions.iter().map(|e| e.name.as_str()),
        "exception",
        &mut issues,
    );
    check_unique(
        w.variables.iter().map(|v| v.name.as_str()),
        "variable",
        &mut issues,
    );

    for a in &w.activities {
        if let Some(f) = &a.foreach {
            if a.implement.is_none() {
                issues.push(Issue {
                    kind: IssueKind::BadPolicy,
                    message: format!(
                        "dummy activity '{}' cannot use <Foreach> (nothing to instantiate)",
                        a.name
                    ),
                });
            }
            if a.policy == Policy::Replica {
                issues.push(Issue {
                    kind: IssueKind::BadPolicy,
                    message: format!(
                        "activity '{}' combines <Foreach> with policy='replica' (pick one fan-out)",
                        a.name
                    ),
                });
            }
            if w.loop_for(&a.name).is_some() {
                issues.push(Issue {
                    kind: IssueKind::BadPolicy,
                    message: format!(
                        "activity '{}' combines <Foreach> with <Loop> (iterate items, not the node)",
                        a.name
                    ),
                });
            }
            if let Some(alt) = &f.failover {
                if w.program(alt).is_none() {
                    issues.push(Issue {
                        kind: IssueKind::DanglingReference,
                        message: format!(
                            "activity '{}' fails over to unknown program '{alt}'",
                            a.name
                        ),
                    });
                }
            }
        }
        match &a.implement {
            Some(prog) => match w.program(prog) {
                None => issues.push(Issue {
                    kind: IssueKind::DanglingReference,
                    message: format!("activity '{}' implements unknown program '{prog}'", a.name),
                }),
                Some(p) => {
                    if a.policy == Policy::Replica && p.options.len() < 2 {
                        issues.push(Issue {
                                kind: IssueKind::BadPolicy,
                                message: format!(
                                    "activity '{}' uses policy='replica' but program '{}' offers only {} resource(s)",
                                    a.name, prog, p.options.len()
                                ),
                            });
                    }
                }
            },
            None => {
                if a.policy == Policy::Replica {
                    issues.push(Issue {
                        kind: IssueKind::BadPolicy,
                        message: format!("dummy activity '{}' cannot use policy='replica'", a.name),
                    });
                }
                if a.max_tries > 1 {
                    issues.push(Issue {
                        kind: IssueKind::BadPolicy,
                        message: format!(
                            "dummy activity '{}' cannot specify max_tries (nothing to retry)",
                            a.name
                        ),
                    });
                }
                if w.loop_for(&a.name).is_some() {
                    issues.push(Issue {
                        kind: IssueKind::BadPolicy,
                        message: format!(
                            "dummy activity '{}' cannot loop (nothing to re-run)",
                            a.name
                        ),
                    });
                }
            }
        }
    }

    let _ = program_names; // uniqueness already recorded

    let mut seen_edges = HashSet::new();
    for t in &w.transitions {
        for end in [&t.from, &t.to] {
            if !activity_names.contains(end.as_str()) {
                issues.push(Issue {
                    kind: IssueKind::DanglingReference,
                    message: format!(
                        "transition {} -> {} references unknown activity '{end}'",
                        t.from, t.to
                    ),
                });
            }
        }
        if t.from == t.to {
            issues.push(Issue {
                kind: IssueKind::BadEdge,
                message: format!("self-transition on '{}' (use <Loop> for iteration)", t.from),
            });
        }
        if !seen_edges.insert((t.from.clone(), t.to.clone(), t.trigger.clone())) {
            issues.push(Issue {
                kind: IssueKind::BadEdge,
                message: format!(
                    "duplicate transition {} -> {} on='{}'",
                    t.from,
                    t.to,
                    t.trigger.render()
                ),
            });
        }
        if let Trigger::Exception(name) = &t.trigger {
            if !exception_names.contains(name.as_str()) {
                issues.push(Issue {
                    kind: IssueKind::DanglingReference,
                    message: format!(
                        "transition {} -> {} handles undeclared exception '{name}'",
                        t.from, t.to
                    ),
                });
            }
        }
    }

    for l in &w.loops {
        if !activity_names.contains(l.activity.as_str()) {
            issues.push(Issue {
                kind: IssueKind::DanglingReference,
                message: format!("loop references unknown activity '{}'", l.activity),
            });
        }
    }

    // Kahn's algorithm over the transition graph (all triggers count as
    // edges: even a failure edge orders recovery after its source).
    // Declaration order breaks ties for determinism.
    let order_index: HashMap<&str, usize> = w
        .activities
        .iter()
        .enumerate()
        .map(|(i, a)| (a.name.as_str(), i))
        .collect();
    let mut indegree: HashMap<&str, usize> =
        w.activities.iter().map(|a| (a.name.as_str(), 0)).collect();
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for t in &w.transitions {
        if t.from != t.to
            && activity_names.contains(t.from.as_str())
            && activity_names.contains(t.to.as_str())
        {
            adj.entry(t.from.as_str()).or_default().push(t.to.as_str());
            *indegree.get_mut(t.to.as_str()).expect("known name") += 1;
        }
    }
    let mut ready: Vec<&str> = indegree
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    ready.sort_by_key(|n| order_index[n]);
    let mut queue: VecDeque<&str> = ready.into();
    let mut topo = Vec::with_capacity(w.activities.len());
    while let Some(n) = queue.pop_front() {
        topo.push(n.to_string());
        let mut next: Vec<&str> = Vec::new();
        if let Some(succs) = adj.get(n) {
            for &s in succs {
                let d = indegree.get_mut(s).expect("known name");
                *d -= 1;
                if *d == 0 {
                    next.push(s);
                }
            }
        }
        next.sort_by_key(|n| order_index[n]);
        for s in next {
            queue.push_back(s);
        }
    }
    if topo.len() != indegree.len() {
        let mut cyclic: Vec<&str> = indegree
            .iter()
            .filter(|&(_, &d)| d > 0)
            .map(|(&n, _)| n)
            .collect();
        cyclic.sort_by_key(|n| order_index[n]);
        issues.push(Issue {
            kind: IssueKind::Cycle,
            message: format!("transition graph is cyclic through: {}", cyclic.join(", ")),
        });
    }

    if issues.is_empty() {
        Ok(Validated { workflow, topo })
    } else {
        Err(issues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Activity, JoinMode, Program, Transition, Workflow};
    use crate::expr;

    fn base() -> Workflow {
        let mut w = Workflow::new("t");
        w.programs.push(Program::new("p", 10.0, "h1").option("h2"));
        w.activities.push(Activity::new("a", "p"));
        w.activities.push(Activity::new("b", "p"));
        w.transitions.push(Transition::new("a", "b"));
        w
    }

    fn kinds(issues: &[Issue]) -> Vec<IssueKind> {
        issues.iter().map(|i| i.kind).collect()
    }

    #[test]
    fn valid_workflow_passes_with_topo_order() {
        let v = validate(base()).unwrap();
        assert_eq!(v.topological_order(), &["a".to_string(), "b".to_string()]);
        assert_eq!(v.workflow().name, "t");
    }

    #[test]
    fn empty_workflow_rejected() {
        let issues = validate(Workflow::new("e")).unwrap_err();
        assert!(kinds(&issues).contains(&IssueKind::Empty));
    }

    #[test]
    fn duplicate_names_detected() {
        let mut w = base();
        w.activities.push(Activity::new("a", "p"));
        w.programs.push(Program::new("p", 1.0, "h"));
        let issues = validate(w).unwrap_err();
        let dups = issues
            .iter()
            .filter(|i| i.kind == IssueKind::DuplicateName)
            .count();
        assert_eq!(dups, 2, "both the activity and the program duplicate");
    }

    #[test]
    fn dangling_program_reference() {
        let mut w = base();
        w.activities.push(Activity::new("c", "ghost"));
        let issues = validate(w).unwrap_err();
        assert!(issues
            .iter()
            .any(|i| i.kind == IssueKind::DanglingReference && i.message.contains("ghost")));
    }

    #[test]
    fn dangling_transition_endpoints() {
        let mut w = base();
        w.transitions.push(Transition::new("a", "ghost"));
        let issues = validate(w).unwrap_err();
        assert!(issues
            .iter()
            .any(|i| i.kind == IssueKind::DanglingReference && i.message.contains("'ghost'")));
    }

    #[test]
    fn undeclared_exception_trigger() {
        use crate::ast::Trigger;
        let mut w = base();
        w.transitions
            .push(Transition::new("a", "b").on(Trigger::Exception("oom".into())));
        let issues = validate(w).unwrap_err();
        assert!(issues
            .iter()
            .any(|i| i.message.contains("undeclared exception 'oom'")));
    }

    #[test]
    fn declared_exception_trigger_ok() {
        use crate::ast::{ExceptionDecl, Trigger};
        let mut w = base();
        w.exceptions.push(ExceptionDecl {
            name: "oom".into(),
            fatal: false,
            description: String::new(),
        });
        // Use a distinct target so the edge is not a duplicate of a->b done.
        w.activities.push(Activity::new("c", "p"));
        w.transitions
            .push(Transition::new("a", "c").on(Trigger::Exception("oom".into())));
        assert!(validate(w).is_ok());
    }

    #[test]
    fn replica_needs_multiple_options() {
        let mut w = base();
        w.programs.push(Program::new("single", 1.0, "only-host"));
        let mut r = Activity::new("r", "single");
        r.policy = Policy::Replica;
        w.activities.push(r);
        let issues = validate(w).unwrap_err();
        assert!(issues
            .iter()
            .any(|i| i.kind == IssueKind::BadPolicy && i.message.contains("only 1 resource")));
    }

    #[test]
    fn replica_with_enough_options_ok() {
        let mut w = base();
        let mut r = Activity::new("r", "p");
        r.policy = Policy::Replica;
        w.activities.push(r);
        assert!(validate(w).is_ok());
    }

    #[test]
    fn dummy_with_task_level_policy_rejected() {
        let mut w = base();
        let mut d = Activity::dummy("d");
        d.policy = Policy::Replica;
        d.max_tries = 3;
        w.activities.push(d);
        w.loops.push(crate::ast::LoopSpec {
            activity: "d".into(),
            condition: expr::parse("runs('d') < 3").unwrap(),
        });
        let issues = validate(w).unwrap_err();
        assert_eq!(
            issues
                .iter()
                .filter(|i| i.kind == IssueKind::BadPolicy)
                .count(),
            3
        );
        assert!(issues
            .iter()
            .any(|i| i.message == "dummy activity 'd' cannot loop (nothing to re-run)"));
    }

    #[test]
    fn foreach_rules_enforced() {
        use crate::ast::{ForeachSpec, LoopSpec};
        // Valid: implemented activity, failover resolves.
        let mut w = base();
        let mut m = Activity::new("m", "p");
        let mut f = ForeachSpec::new(vec!["x".into(), "y".into()]);
        f.failover = Some("p".into());
        m.foreach = Some(f);
        w.activities.push(m);
        assert!(validate(w).is_ok());

        // Dummy foreach, replica combo, loop combo, dangling failover.
        let mut w = base();
        let mut d = Activity::dummy("d");
        d.foreach = Some(ForeachSpec::new(vec!["x".into()]));
        w.activities.push(d);
        let mut r = Activity::new("r", "p");
        r.policy = Policy::Replica;
        let mut f = ForeachSpec::new(vec!["x".into()]);
        f.failover = Some("ghost".into());
        r.foreach = Some(f);
        w.activities.push(r);
        let mut l = Activity::new("l", "p");
        l.foreach = Some(ForeachSpec::new(vec!["x".into()]));
        w.activities.push(l);
        w.loops.push(LoopSpec {
            activity: "l".into(),
            condition: expr::parse("runs('l') < 2").unwrap(),
        });
        let issues = validate(w).unwrap_err();
        assert!(issues
            .iter()
            .any(|i| i.message.contains("cannot use <Foreach>")));
        assert!(issues
            .iter()
            .any(|i| i.message.contains("policy='replica' (pick one fan-out)")));
        assert!(issues
            .iter()
            .any(|i| i.message.contains("<Foreach> with <Loop>")));
        assert!(issues
            .iter()
            .any(|i| i.message.contains("fails over to unknown program 'ghost'")));
    }

    #[test]
    fn self_loop_rejected() {
        let mut w = base();
        w.transitions.push(Transition::new("a", "a"));
        let issues = validate(w).unwrap_err();
        assert!(kinds(&issues).contains(&IssueKind::BadEdge));
    }

    #[test]
    fn duplicate_edge_rejected_but_different_trigger_ok() {
        use crate::ast::Trigger;
        let mut w = base();
        w.transitions
            .push(Transition::new("a", "b").on(Trigger::Failed));
        assert!(
            validate(w.clone()).is_ok(),
            "same endpoints, different trigger"
        );
        w.transitions.push(Transition::new("a", "b"));
        let issues = validate(w).unwrap_err();
        assert!(issues
            .iter()
            .any(|i| i.kind == IssueKind::BadEdge && i.message.contains("duplicate")));
    }

    #[test]
    fn cycles_detected_with_members() {
        let mut w = base();
        w.activities.push(Activity::new("c", "p"));
        w.transitions.push(Transition::new("b", "c"));
        w.transitions.push(Transition::new("c", "a"));
        let issues = validate(w).unwrap_err();
        let cycle = issues.iter().find(|i| i.kind == IssueKind::Cycle).unwrap();
        assert!(cycle.message.contains('a'), "{}", cycle.message);
        assert!(cycle.message.contains('b'));
        assert!(cycle.message.contains('c'));
    }

    #[test]
    fn loop_spec_is_not_a_structural_cycle() {
        use crate::ast::LoopSpec;
        let mut w = base();
        w.loops.push(LoopSpec {
            activity: "a".into(),
            condition: expr::parse("runs('a') < 3").unwrap(),
        });
        assert!(validate(w).is_ok());
    }

    #[test]
    fn loop_on_unknown_activity_rejected() {
        use crate::ast::LoopSpec;
        let mut w = base();
        w.loops.push(LoopSpec {
            activity: "ghost".into(),
            condition: expr::parse("true").unwrap(),
        });
        let issues = validate(w).unwrap_err();
        assert!(issues
            .iter()
            .any(|i| i.message.contains("loop references unknown")));
    }

    #[test]
    fn topo_order_is_deterministic_and_respects_edges() {
        // Diamond: a -> (b, c) -> d, with declaration order a,b,c,d.
        let mut w = Workflow::new("diamond");
        w.programs.push(Program::new("p", 1.0, "h"));
        for n in ["a", "b", "c", "d"] {
            w.activities.push(Activity::new(n, "p"));
        }
        w.transitions.push(Transition::new("a", "b"));
        w.transitions.push(Transition::new("a", "c"));
        w.transitions.push(Transition::new("b", "d"));
        w.transitions.push(Transition::new("c", "d"));
        let v = validate(w).unwrap();
        assert_eq!(v.topological_order(), &["a", "b", "c", "d"]);
    }

    #[test]
    fn figure5_or_join_redundancy_validates() {
        // Dummy split -> (fast, slow) -> OR join.
        let mut w = Workflow::new("fig5");
        w.programs
            .push(Program::new("fastp", 30.0, "h1").option("h2"));
        w.programs.push(Program::new("slowp", 150.0, "h3"));
        w.activities.push(Activity::dummy("split"));
        w.activities.push(Activity::new("fast", "fastp"));
        w.activities.push(Activity::new("slow", "slowp"));
        let mut join = Activity::dummy("join");
        join.join = JoinMode::Or;
        w.activities.push(join);
        w.transitions.push(Transition::new("split", "fast"));
        w.transitions.push(Transition::new("split", "slow"));
        w.transitions.push(Transition::new("fast", "join"));
        w.transitions.push(Transition::new("slow", "join"));
        let v = validate(w).unwrap();
        assert_eq!(v.topological_order()[0], "split");
        assert_eq!(v.topological_order()[3], "join");
    }

    #[test]
    fn all_issues_reported_together() {
        let mut w = Workflow::new("mess");
        w.activities.push(Activity::new("a", "ghost"));
        w.activities.push(Activity::new("a", "ghost"));
        w.transitions.push(Transition::new("a", "a"));
        let issues = validate(w).unwrap_err();
        assert!(issues.len() >= 3, "got {issues:?}");
    }
}

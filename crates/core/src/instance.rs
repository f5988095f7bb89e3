//! Runtime state of one workflow execution.
//!
//! [`Instance`] is the annotated parse tree of the paper's §7: the static
//! [`Workflow`] plus, per activity, a runtime status, and per transition, an
//! edge state.  The engine's navigator asks the instance two questions —
//! *which activities are ready?* and *is the workflow finished, and how did
//! it end?* — and informs it of one kind of fact: *this activity settled
//! with this terminal status*.  Both answers read only the node statuses
//! and the edge states; every write to those advances the instance's
//! generation, so the engine asks again only after the generation moved.
//!
//! ## Edge-firing semantics
//!
//! Every transition starts `Pending`.  When its source activity settles,
//! the edge is resolved once, by `resolve_edge`: it **fires** when its
//! trigger matches the outcome (`fires`: `done`, `failed` for an
//! alternative task, `exception:<name>` for a handler, `always`; a skipped
//! source fires nothing) and the guard condition, if any, evaluates true
//! against the state at that moment; otherwise it **dies**.  A
//! [`crate::checkpoint`] carries the resolved states, so a restored
//! instance never re-decides an edge.  An activity's join (`join`) is:
//!
//! * **ready** when it is satisfied — AND: every incoming edge fired;
//!   OR: at least one fired (Figure 5's OR relationship); the activity
//!   runs if it is still `Pending`;
//! * **impossible** when it can no longer be satisfied — AND: any edge
//!   died; OR: every edge died.  A pending activity is then skipped, and
//!   skipping cascades;
//! * **waiting** otherwise.
//!
//! This is exactly the semantics the paper's figures rely on: in Figure 4
//! the `on='failed'` edge to the alternative task dies when the fast task
//! succeeds (so the alternative is skipped), and fires when it fails
//! terminally (so the alternative runs and the OR-join still completes).
//!
//! ## Workflow outcome
//!
//! The workflow **succeeds** when every sink activity is `Done` or
//! `Skipped` and at least one sink is `Done`.  It **fails** when all
//! activities are settled (or unreachable) and that condition does not
//! hold — the diagnostic lists every unhandled terminal failure.

use std::collections::HashMap;
use std::sync::OnceLock;

use gridwfs_wpdl::ast::{JoinMode, Trigger, Workflow};
use gridwfs_wpdl::expr::{Env, EvalError, Value};
use gridwfs_wpdl::validate::Validated;
use gridwfs_wpdl::{writer, xml};

/// Runtime status of an activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeStatus {
    /// Not yet ready or not yet submitted.
    Pending,
    /// Submitted; attempts are in flight.
    Running,
    /// Completed successfully.
    Done,
    /// Crashed terminally (task-level masking exhausted).
    Failed,
    /// Raised the named user-defined exception (terminally).
    Exception(String),
    /// Never ran because its triggers died (e.g. an alternative task whose
    /// primary succeeded).
    Skipped,
}

impl NodeStatus {
    /// True for statuses that admit no further change.
    pub fn is_settled(&self) -> bool {
        !matches!(self, NodeStatus::Pending | NodeStatus::Running)
    }

    /// The `status('name')` string exposed to condition expressions.
    pub fn as_expr_str(&self) -> &'static str {
        match self {
            NodeStatus::Pending => "pending",
            NodeStatus::Running => "running",
            NodeStatus::Done => "done",
            NodeStatus::Failed => "failed",
            NodeStatus::Exception(_) => "exception",
            NodeStatus::Skipped => "skipped",
        }
    }
}

/// Runtime state of one `foreach` item.  `Pending` covers everything
/// non-terminal (unlaunched, in flight, waiting on a retry timer) — the
/// distinction is engine-local and deliberately not checkpointed: an
/// in-flight attempt interrupted by a crash is simply re-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ItemState {
    /// Not yet settled.
    #[default]
    Pending,
    /// Completed successfully.
    Done,
    /// Exhausted recovery under `on_item_failure='skip'`.
    Skipped,
    /// Exhausted recovery and landed in the dead-letter queue.
    DeadLettered,
    /// Cancelled because the activity failed (threshold breach or `stop`).
    Cancelled,
    /// The item whose exhaustion tripped `on_item_failure='stop'`.
    Failed,
}

impl ItemState {
    /// True once the item can no longer change state (this run).
    pub fn is_terminal(self) -> bool {
        self != ItemState::Pending
    }

    /// Stable wire string used in checkpoints and DLQ records.
    pub fn wire_str(self) -> &'static str {
        match self {
            ItemState::Pending => "pending",
            ItemState::Done => "done",
            ItemState::Skipped => "skipped",
            ItemState::DeadLettered => "dlq",
            ItemState::Cancelled => "cancelled",
            ItemState::Failed => "failed",
        }
    }

    /// Parses the wire string back.
    pub fn parse_wire(s: &str) -> Option<ItemState> {
        use ItemState::*;
        [Pending, Done, Skipped, DeadLettered, Cancelled, Failed]
            .into_iter()
            .find(|state| state.wire_str() == s)
    }
}

/// Per-item progress of a `foreach` activity.  Checkpointed with the
/// instance so restarts neither re-run settled items nor forget banked
/// attempts, and so `dlq retry` can flip dead-lettered items back to
/// pending without touching anything else.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ItemProgress {
    /// Current state.
    pub state: ItemState,
    /// Attempts consumed (primary + failover), surviving restarts up to
    /// the last checkpoint.
    pub attempts: u32,
    /// True once the item switched to the failover program.
    pub failover: bool,
    /// True when a `dlq retry` reset this item; the engine records an
    /// `item_reprocess` trace event on its first re-submission.
    pub reprocess: bool,
    /// Last failure classification (dead-lettered items).
    pub reason: String,
}

/// State of one transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeState {
    /// Source not settled yet.
    Pending,
    /// Trigger matched; the dependency is satisfied.
    Fired,
    /// Trigger can never match (or guard was false).
    Dead,
}

/// Whether a transition with `trigger` fires when its source settles as
/// `outcome` — the workflow level's trigger table.  `done` is the plain
/// dependency, `failed` the alternative task (Figure 4),
/// `exception:<name>` the handler (Figure 6) and `always` the cleanup
/// edge; a skipped source fires nothing.
fn fires(trigger: &Trigger, outcome: &NodeStatus) -> bool {
    match (trigger, outcome) {
        (_, NodeStatus::Skipped) => false,
        (Trigger::Done, NodeStatus::Done) | (Trigger::Failed, NodeStatus::Failed) => true,
        (Trigger::Exception(want), NodeStatus::Exception(got)) => want == got,
        (Trigger::Always, _) => true,
        _ => false,
    }
}

/// Where an activity's join stands, from the states of its incoming edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Join {
    /// Satisfied: the activity may run.  Roots are always ready.
    Ready,
    /// Not decided until more sources settle.
    Waiting,
    /// Can never be satisfied: a pending activity is skipped.
    Impossible,
}

impl Join {
    /// The join table: AND needs every incoming edge fired and dies with
    /// any; OR needs one fired and dies only with all.
    fn of(mode: JoinMode, incoming: impl Iterator<Item = EdgeState>) -> Join {
        let (mut n, mut fired, mut dead) = (0, 0, 0);
        for e in incoming {
            n += 1;
            match e {
                EdgeState::Fired => fired += 1,
                EdgeState::Dead => dead += 1,
                EdgeState::Pending => {}
            }
        }
        match mode {
            _ if n == 0 => Join::Ready,
            JoinMode::And if fired == n => Join::Ready,
            JoinMode::And if dead > 0 => Join::Impossible,
            JoinMode::Or if fired > 0 => Join::Ready,
            JoinMode::Or if dead == n => Join::Impossible,
            _ => Join::Waiting,
        }
    }
}

/// How an activity's completion interacted with its loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteResult {
    /// The do-while condition held: the activity was reset and must run again.
    LoopAgain,
    /// The activity settled as `Done` and its outgoing edges were resolved.
    Settled,
}

/// Final outcome of a workflow execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every sink finished or was legitimately bypassed, and at least one
    /// sink produced a result.
    Success,
    /// The workflow cannot complete; diagnostics list terminal failures
    /// that no workflow-level handler consumed.
    Failure {
        /// `(activity, status-string)` of each unhandled terminal failure.
        unhandled: Vec<(String, String)>,
    },
}

/// Runtime instance: static workflow + runtime annotations.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Never mutated after [`Instance::new`] (there is no mutable accessor):
    /// `workflow_xml` below relies on it.
    workflow: Workflow,
    /// The `<Workflow>` element as it stands inside a checkpoint document,
    /// rendered on the first checkpoint and reused by every later one — an
    /// eager checkpoint sink encodes after every settlement, the serve
    /// scheduler once per slice, and the definition is most of the
    /// document.  A clone carries the rendered text along.
    workflow_xml: OnceLock<String>,
    topo: Vec<String>,
    status: HashMap<String, NodeStatus>,
    edges: Vec<EdgeState>,
    runs: HashMap<String, u32>,
    vars: HashMap<String, Value>,
    items: HashMap<String, Vec<ItemProgress>>,
    /// Expression-evaluation problems encountered while resolving guards
    /// (logged, and the offending edge dies).
    eval_errors: Vec<String>,
    /// Bumped by every mutator of `status` or `edges` — the only state
    /// [`Instance::ready_nodes`] and [`Instance::is_finished`] read — so
    /// the navigator can tell that their answers cannot have changed.
    generation: u64,
}

impl Instance {
    /// Builds a fresh instance from a validated workflow.
    pub fn new(validated: Validated) -> Self {
        let topo = validated.topological_order().to_vec();
        let workflow = validated.into_workflow();
        let status = workflow
            .activities
            .iter()
            .map(|a| (a.name.clone(), NodeStatus::Pending))
            .collect();
        let runs = workflow
            .activities
            .iter()
            .map(|a| (a.name.clone(), 0u32))
            .collect();
        let vars = workflow
            .variables
            .iter()
            .map(|v| (v.name.clone(), v.value.clone()))
            .collect();
        let edges = vec![EdgeState::Pending; workflow.transitions.len()];
        let items = workflow
            .activities
            .iter()
            .filter_map(|a| {
                a.foreach
                    .as_ref()
                    .map(|f| (a.name.clone(), vec![ItemProgress::default(); f.items.len()]))
            })
            .collect();
        Instance {
            workflow,
            workflow_xml: OnceLock::new(),
            topo,
            status,
            edges,
            runs,
            vars,
            items,
            eval_errors: Vec::new(),
            generation: 0,
        }
    }

    /// The underlying definition.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// The definition as the `<Workflow>` child of a checkpoint document
    /// (nesting depth 1, trailing newline).
    pub(crate) fn workflow_xml(&self) -> &str {
        self.workflow_xml.get_or_init(|| {
            let mut out = String::new();
            xml::write_element(&mut out, &writer::to_element(&self.workflow), 1);
            out
        })
    }

    /// Advances whenever `status` or `edges` is written: between two equal
    /// generations [`Instance::ready_nodes`] and [`Instance::is_finished`]
    /// answer the same.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Topological order of activities.
    pub fn topological_order(&self) -> &[String] {
        &self.topo
    }

    /// Current status of an activity.
    ///
    /// # Panics
    /// Panics on an unknown activity name (engine-internal misuse).
    pub fn status(&self, name: &str) -> &NodeStatus {
        self.status
            .get(name)
            .unwrap_or_else(|| panic!("unknown activity '{name}'"))
    }

    /// Completion count of an activity (drives `runs('name')` and loops).
    pub fn runs(&self, name: &str) -> u32 {
        self.runs.get(name).copied().unwrap_or(0)
    }

    /// Reads a workflow variable.
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// Sets a workflow variable (engine extension: tasks may export values).
    pub fn set_var(&mut self, name: impl Into<String>, value: Value) {
        self.vars.insert(name.into(), value);
    }

    /// Guard-evaluation problems encountered so far.
    pub fn eval_errors(&self) -> &[String] {
        &self.eval_errors
    }

    /// State of edge `i` (index into `workflow().transitions`).
    pub fn edge_state(&self, i: usize) -> EdgeState {
        self.edges[i]
    }

    /// Where `name`'s join stands (see [`Join::of`]).
    fn join(&self, name: &str) -> Join {
        let mode = self.workflow.activity(name).expect("known activity").join;
        let incoming = self
            .workflow
            .transitions
            .iter()
            .zip(&self.edges)
            .filter(|(t, _)| t.to == name)
            .map(|(_, e)| *e);
        Join::of(mode, incoming)
    }

    /// Pending activities whose join is `want`, in topological order.
    fn pending_with(&self, want: Join) -> impl Iterator<Item = &String> {
        self.topo
            .iter()
            .filter(move |n| self.status[n.as_str()] == NodeStatus::Pending && self.join(n) == want)
    }

    /// Activities that are `Pending` with a satisfied join, in topological
    /// order.  The engine submits these (or completes them instantly if
    /// they are dummies).
    pub fn ready_nodes(&self) -> Vec<String> {
        self.pending_with(Join::Ready).cloned().collect()
    }

    /// Marks an activity as submitted.
    ///
    /// # Panics
    /// Panics unless the activity is `Pending`.
    pub fn mark_running(&mut self, name: &str) {
        let s = self.status.get_mut(name).expect("known activity");
        assert_eq!(
            *s,
            NodeStatus::Pending,
            "mark_running on non-pending '{name}'"
        );
        *s = NodeStatus::Running;
        self.generation += 1;
    }

    /// Settles an activity with a terminal status, resolving its outgoing
    /// edges and cascading skips.  Returns the names of activities newly
    /// `Skipped` as a consequence (callers log them).
    ///
    /// For `Done` with an attached do-while loop whose condition holds, the
    /// activity is *reset* instead (status back to `Pending`, `runs`
    /// incremented, outgoing edges untouched) and `CompleteResult::LoopAgain`
    /// is returned with no skips.
    pub fn settle(&mut self, name: &str, status: NodeStatus) -> (CompleteResult, Vec<String>) {
        assert!(status.is_settled(), "settle() requires a terminal status");
        {
            let s = self.status.get_mut(name).expect("known activity");
            assert!(
                !s.is_settled(),
                "activity '{name}' is already settled as {s:?}"
            );
            *s = status.clone();
        }
        self.generation += 1;
        if status == NodeStatus::Done {
            *self.runs.get_mut(name).expect("known activity") += 1;
            if let Some(l) = self.workflow.loop_for(name) {
                let cond = l.condition.clone();
                match cond.eval_bool(&EnvView { instance: self }) {
                    Ok(true) => {
                        *self.status.get_mut(name).expect("known") = NodeStatus::Pending;
                        return (CompleteResult::LoopAgain, Vec::new());
                    }
                    Ok(false) => {}
                    Err(e) => {
                        // A broken loop condition stops iteration (logged);
                        // the completion still settles normally.
                        self.eval_errors
                            .push(format!("loop condition on '{name}': {e}"));
                    }
                }
            }
        }
        for i in 0..self.edges.len() {
            if self.workflow.transitions[i].from == name {
                debug_assert_eq!(self.edges[i], EdgeState::Pending, "edge resolved twice");
                self.resolve_edge(i, &status);
            }
        }
        // Cascade skips until a fixpoint (one pass per wave is enough
        // because we re-scan from the start after each settle).
        let mut skipped = Vec::new();
        loop {
            let next = self.pending_with(Join::Impossible).next().cloned();
            match next {
                Some(n) => {
                    let (_, mut more) = self.settle(&n, NodeStatus::Skipped);
                    skipped.push(n);
                    skipped.append(&mut more);
                }
                None => break,
            }
        }
        (CompleteResult::Settled, skipped)
    }

    /// Resolves edge `i` for its source's terminal `outcome`: `Fired` when
    /// the trigger [`fires`] and the guard, if any, holds against the
    /// current state; `Dead` otherwise.  A guard that fails to evaluate
    /// kills the edge and is recorded in [`Instance::eval_errors`].
    pub(crate) fn resolve_edge(&mut self, i: usize, outcome: &NodeStatus) {
        let t = &self.workflow.transitions[i];
        let guard = match &t.condition {
            _ if !fires(&t.trigger, outcome) => Ok(false),
            Some(cond) => cond.eval_bool(&EnvView { instance: self }),
            None => Ok(true),
        };
        let fired = guard.unwrap_or_else(|e| {
            self.eval_errors.push(format!(
                "condition on transition {} -> {}: {e}",
                t.from, t.to
            ));
            false
        });
        self.edges[i] = if fired {
            EdgeState::Fired
        } else {
            EdgeState::Dead
        };
        self.generation += 1;
    }

    /// True when no activity is `Pending`-and-reachable or `Running` —
    /// i.e. navigation has nothing left to do.
    pub fn is_finished(&self) -> bool {
        self.status.values().all(|s| s.is_settled())
    }

    /// Final outcome.  Meaningful once [`Instance::is_finished`] is true.
    pub fn outcome(&self) -> Outcome {
        let sinks = self.workflow.sinks();
        let any_done = sinks
            .iter()
            .any(|a| self.status[&a.name] == NodeStatus::Done);
        let all_ok = sinks
            .iter()
            .all(|a| matches!(self.status[&a.name], NodeStatus::Done | NodeStatus::Skipped));
        if any_done && all_ok {
            Outcome::Success
        } else {
            // An unhandled failure is a terminal failure/exception none of
            // whose outgoing edges fired.
            let mut unhandled = Vec::new();
            for a in &self.workflow.activities {
                let st = &self.status[&a.name];
                let is_failure = matches!(st, NodeStatus::Failed | NodeStatus::Exception(_));
                if is_failure {
                    let handled = self
                        .workflow
                        .transitions
                        .iter()
                        .enumerate()
                        .any(|(i, t)| t.from == a.name && self.edges[i] == EdgeState::Fired);
                    if !handled {
                        unhandled.push((a.name.clone(), st.as_expr_str().to_string()));
                    }
                }
            }
            Outcome::Failure { unhandled }
        }
    }

    /// Snapshot of all node statuses (for reports and checkpointing).
    pub fn statuses(&self) -> impl Iterator<Item = (&str, &NodeStatus)> {
        self.topo
            .iter()
            .map(move |n| (n.as_str(), &self.status[n.as_str()]))
    }

    /// Per-item progress of a `foreach` activity, indexed like its item
    /// list.  `None` for ordinary activities.
    pub fn items(&self, name: &str) -> Option<&[ItemProgress]> {
        self.items.get(name).map(|v| v.as_slice())
    }

    /// `foreach` activities with their item progress, in topological order
    /// (for checkpointing and report building).
    pub fn items_iter(&self) -> impl Iterator<Item = (&str, &[ItemProgress])> {
        self.topo.iter().filter_map(move |n| {
            self.items
                .get(n.as_str())
                .map(|v| (n.as_str(), v.as_slice()))
        })
    }

    /// Mutable per-item progress (engine bookkeeping).
    ///
    /// # Panics
    /// Panics if the activity has no `foreach` or the index is out of range.
    pub(crate) fn item_mut(&mut self, name: &str, idx: usize) -> &mut ItemProgress {
        &mut self
            .items
            .get_mut(name)
            .unwrap_or_else(|| panic!("activity '{name}' has no foreach items"))[idx]
    }

    /// Restores one item's progress (engine-checkpoint restart path).
    pub(crate) fn force_item(&mut self, name: &str, idx: usize, progress: ItemProgress) {
        if let Some(v) = self.items.get_mut(name) {
            if idx < v.len() {
                v[idx] = progress;
            }
        }
    }

    /// Restores a node's status directly (engine-checkpoint restart path).
    /// Unlike [`Instance::settle`] this does not touch edges — the caller
    /// restores those with [`Instance::force_edge`].
    pub(crate) fn force_status(&mut self, name: &str, status: NodeStatus) {
        *self.status.get_mut(name).expect("known activity") = status;
        self.generation += 1;
    }

    /// Restores the state of edge `i` (engine-checkpoint restart path).
    pub(crate) fn force_edge(&mut self, i: usize, state: EdgeState) {
        self.edges[i] = state;
        self.generation += 1;
    }

    /// Restores a run counter (engine-checkpoint restart path).
    pub(crate) fn force_runs(&mut self, name: &str, runs: u32) {
        *self.runs.get_mut(name).expect("known activity") = runs;
    }

    /// Workflow variables in sorted-name order (for checkpointing).
    pub fn vars_iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        let mut pairs: Vec<(&str, &Value)> =
            self.vars.iter().map(|(k, v)| (k.as_str(), v)).collect();
        pairs.sort_by_key(|(k, _)| *k);
        pairs.into_iter()
    }
}

/// `Env` view for condition evaluation.
struct EnvView<'a> {
    instance: &'a Instance,
}

impl Env for EnvView<'_> {
    fn var(&self, name: &str) -> Option<Value> {
        self.instance.vars.get(name).cloned()
    }

    fn call(&self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        let activity_arg = |args: &[Value]| -> Result<String, EvalError> {
            match args {
                [Value::Str(s)] => Ok(s.clone()),
                _ => Err(EvalError::Type(format!(
                    "{name}() takes one activity-name string"
                ))),
            }
        };
        match name {
            "status" => {
                let a = activity_arg(args)?;
                match self.instance.status.get(&a) {
                    Some(s) => Ok(Value::Str(s.as_expr_str().to_string())),
                    None => Err(EvalError::Type(format!("status(): unknown activity '{a}'"))),
                }
            }
            "runs" => {
                let a = activity_arg(args)?;
                if self.instance.status.contains_key(&a) {
                    Ok(Value::Num(self.instance.runs(&a) as f64))
                } else {
                    Err(EvalError::Type(format!("runs(): unknown activity '{a}'")))
                }
            }
            other => Err(EvalError::UnknownFn(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwfs_wpdl::builder::{figure4, figure5, figure6, WorkflowBuilder};
    use gridwfs_wpdl::validate::validate;

    fn instance(w: Workflow) -> Instance {
        Instance::new(validate(w).expect("test workflows validate"))
    }

    fn fig4() -> Instance {
        instance(figure4(30.0, 150.0))
    }

    #[test]
    fn trigger_table() {
        use NodeStatus::{Done, Exception, Failed, Skipped};
        let exc = |n: &str| Trigger::Exception(n.into());
        let raised = |n: &str| Exception(n.into());
        // (case, trigger, source outcome, fires)
        let rows = [
            ("dependency", Trigger::Done, Done, true),
            ("dependency, source failed", Trigger::Done, Failed, false),
            (
                "dependency, source raised",
                Trigger::Done,
                raised("e"),
                false,
            ),
            ("alternative task", Trigger::Failed, Failed, true),
            ("alternative, primary done", Trigger::Failed, Done, false),
            (
                "alternative, primary raised",
                Trigger::Failed,
                raised("e"),
                false,
            ),
            ("handler", exc("e"), raised("e"), true),
            ("handler, other exception", exc("e"), raised("f"), false),
            ("handler, plain failure", exc("e"), Failed, false),
            ("cleanup after done", Trigger::Always, Done, true),
            ("cleanup after failure", Trigger::Always, Failed, true),
            (
                "cleanup after exception",
                Trigger::Always,
                raised("e"),
                true,
            ),
            ("skipped source: dependency", Trigger::Done, Skipped, false),
            (
                "skipped source: alternative",
                Trigger::Failed,
                Skipped,
                false,
            ),
            ("skipped source: handler", exc("e"), Skipped, false),
            ("skipped source: cleanup", Trigger::Always, Skipped, false),
        ];
        for (case, trigger, outcome, want) in rows {
            assert_eq!(fires(&trigger, &outcome), want, "{case}");
        }
    }

    #[test]
    fn join_table() {
        use EdgeState::{Dead as D, Fired as F, Pending as P};
        use JoinMode::{And, Or};
        // (case, mode, incoming edge states, join)
        let rows: [(&str, JoinMode, &[EdgeState], Join); 11] = [
            ("AND root", And, &[], Join::Ready),
            ("OR root", Or, &[], Join::Ready),
            ("AND all fired", And, &[F, F], Join::Ready),
            ("AND one pending", And, &[F, P], Join::Waiting),
            ("AND one dead", And, &[F, D], Join::Impossible),
            ("AND dead before the rest", And, &[P, D], Join::Impossible),
            ("OR nothing yet", Or, &[P, P], Join::Waiting),
            ("OR one dead, one pending", Or, &[D, P], Join::Waiting),
            ("OR first fired wins", Or, &[D, F, P], Join::Ready),
            ("OR all dead", Or, &[D, D], Join::Impossible),
            ("OR single fired", Or, &[F], Join::Ready),
        ];
        for (case, mode, incoming, want) in rows {
            assert_eq!(Join::of(mode, incoming.iter().copied()), want, "{case}");
        }
    }

    #[test]
    fn roots_are_ready_initially() {
        let inst = fig4();
        assert_eq!(inst.ready_nodes(), vec!["fast_task"]);
        assert_eq!(*inst.status("fast_task"), NodeStatus::Pending);
    }

    #[test]
    fn figure4_success_path_skips_alternative() {
        let mut inst = fig4();
        inst.mark_running("fast_task");
        let (r, skipped) = inst.settle("fast_task", NodeStatus::Done);
        assert_eq!(r, CompleteResult::Settled);
        assert_eq!(skipped, vec!["slow_task"], "alternative is bypassed");
        assert_eq!(inst.ready_nodes(), vec!["join_task"], "OR-join ready");
        inst.mark_running("join_task");
        inst.settle("join_task", NodeStatus::Done);
        assert!(inst.is_finished());
        assert_eq!(inst.outcome(), Outcome::Success);
    }

    #[test]
    fn figure4_failure_path_activates_alternative() {
        let mut inst = fig4();
        inst.mark_running("fast_task");
        let (_, skipped) = inst.settle("fast_task", NodeStatus::Failed);
        assert!(
            skipped.is_empty(),
            "nothing skipped: alternative takes over"
        );
        assert_eq!(inst.ready_nodes(), vec!["slow_task"]);
        inst.mark_running("slow_task");
        inst.settle("slow_task", NodeStatus::Done);
        assert_eq!(inst.ready_nodes(), vec!["join_task"]);
        inst.mark_running("join_task");
        inst.settle("join_task", NodeStatus::Done);
        assert_eq!(inst.outcome(), Outcome::Success, "failure was handled");
    }

    #[test]
    fn figure4_double_failure_is_unhandled() {
        let mut inst = fig4();
        inst.mark_running("fast_task");
        inst.settle("fast_task", NodeStatus::Failed);
        inst.mark_running("slow_task");
        let (_, skipped) = inst.settle("slow_task", NodeStatus::Failed);
        assert_eq!(skipped, vec!["join_task"], "join unreachable");
        assert!(inst.is_finished());
        match inst.outcome() {
            Outcome::Failure { unhandled } => {
                assert_eq!(
                    unhandled,
                    vec![("slow_task".to_string(), "failed".to_string())]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn figure5_redundancy_first_success_wins() {
        let mut inst = instance(figure5(30.0, 150.0));
        assert_eq!(inst.ready_nodes(), vec!["split_task"]);
        inst.mark_running("split_task");
        inst.settle("split_task", NodeStatus::Done);
        assert_eq!(inst.ready_nodes(), vec!["fast_task", "slow_task"]);
        inst.mark_running("fast_task");
        inst.mark_running("slow_task");
        inst.settle("fast_task", NodeStatus::Done);
        // OR-join is ready even though slow_task is still running.
        assert_eq!(inst.ready_nodes(), vec!["join_task"]);
        inst.mark_running("join_task");
        inst.settle("join_task", NodeStatus::Done);
        inst.settle("slow_task", NodeStatus::Done);
        assert_eq!(inst.outcome(), Outcome::Success);
    }

    #[test]
    fn figure5_one_branch_may_fail() {
        let mut inst = instance(figure5(30.0, 150.0));
        inst.mark_running("split_task");
        inst.settle("split_task", NodeStatus::Done);
        inst.mark_running("fast_task");
        inst.mark_running("slow_task");
        inst.settle("fast_task", NodeStatus::Failed);
        assert!(inst.ready_nodes().is_empty(), "join waits for slow branch");
        inst.settle("slow_task", NodeStatus::Done);
        assert_eq!(inst.ready_nodes(), vec!["join_task"]);
        inst.mark_running("join_task");
        inst.settle("join_task", NodeStatus::Done);
        assert_eq!(inst.outcome(), Outcome::Success);
    }

    #[test]
    fn figure6_exception_routes_to_handler() {
        let mut inst = instance(figure6(30.0, 150.0));
        inst.mark_running("fast_task");
        inst.settle("fast_task", NodeStatus::Exception("disk_full".into()));
        assert_eq!(inst.ready_nodes(), vec!["slow_task"]);
        inst.mark_running("slow_task");
        inst.settle("slow_task", NodeStatus::Done);
        inst.mark_running("join_task");
        inst.settle("join_task", NodeStatus::Done);
        assert_eq!(inst.outcome(), Outcome::Success);
    }

    #[test]
    fn figure6_wrong_exception_name_is_unhandled() {
        let mut inst = instance(figure6(30.0, 150.0));
        inst.mark_running("fast_task");
        let (_, skipped) = inst.settle("fast_task", NodeStatus::Exception("oom".into()));
        // Handler edge requires disk_full; everything downstream dies.
        assert_eq!(skipped.len(), 2);
        match inst.outcome() {
            Outcome::Failure { unhandled } => {
                assert_eq!(unhandled[0].0, "fast_task");
                assert_eq!(unhandled[0].1, "exception");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn and_join_waits_for_all() {
        let mut b = WorkflowBuilder::new("and");
        b.activity("a", "p");
        b.activity("b", "p");
        b.dummy("j");
        let w = b.edge("a", "j").edge("b", "j").build_unchecked();
        let mut w2 = w;
        w2.programs
            .push(gridwfs_wpdl::ast::Program::new("p", 1.0, "h"));
        let mut inst = instance(w2);
        inst.mark_running("a");
        inst.mark_running("b");
        inst.settle("a", NodeStatus::Done);
        assert!(inst.ready_nodes().is_empty());
        inst.settle("b", NodeStatus::Done);
        assert_eq!(inst.ready_nodes(), vec!["j"]);
    }

    #[test]
    fn and_join_dies_on_any_failure() {
        let mut b = WorkflowBuilder::new("and");
        b.activity("a", "p");
        b.activity("b", "p");
        b.dummy("j");
        let mut w = b.edge("a", "j").edge("b", "j").build_unchecked();
        w.programs
            .push(gridwfs_wpdl::ast::Program::new("p", 1.0, "h"));
        let mut inst = instance(w);
        inst.mark_running("a");
        inst.mark_running("b");
        let (_, skipped) = inst.settle("a", NodeStatus::Failed);
        assert_eq!(skipped, vec!["j"]);
        inst.settle("b", NodeStatus::Done);
        assert!(matches!(inst.outcome(), Outcome::Failure { .. }));
    }

    #[test]
    fn conditional_edge_routes_if_then_else() {
        let mut b = WorkflowBuilder::new("cond").variable("big", Value::Bool(true));
        b.activity("a", "p");
        b.activity("yes", "p");
        b.activity("no", "p");
        let mut w = b
            .edge_if("a", "yes", "$big")
            .edge_if("a", "no", "!$big")
            .build_unchecked();
        w.programs
            .push(gridwfs_wpdl::ast::Program::new("p", 1.0, "h"));
        let mut inst = instance(w);
        inst.mark_running("a");
        let (_, skipped) = inst.settle("a", NodeStatus::Done);
        assert_eq!(skipped, vec!["no"]);
        assert_eq!(inst.ready_nodes(), vec!["yes"]);
    }

    #[test]
    fn broken_condition_kills_edge_and_is_logged() {
        let mut b = WorkflowBuilder::new("bad");
        b.activity("a", "p");
        b.activity("b", "p");
        let mut w = b.edge_if("a", "b", "$undefined_var").build_unchecked();
        w.programs
            .push(gridwfs_wpdl::ast::Program::new("p", 1.0, "h"));
        let mut inst = instance(w);
        inst.mark_running("a");
        let (_, skipped) = inst.settle("a", NodeStatus::Done);
        assert_eq!(skipped, vec!["b"]);
        assert_eq!(inst.eval_errors().len(), 1);
        assert!(inst.eval_errors()[0].contains("undefined_var"));
    }

    #[test]
    fn do_while_loops_until_condition_false() {
        let mut b = WorkflowBuilder::new("loop");
        b.activity("a", "p");
        b.activity("b", "p");
        let mut w = b
            .edge("a", "b")
            .do_while("a", "runs('a') < 3")
            .build_unchecked();
        w.programs
            .push(gridwfs_wpdl::ast::Program::new("p", 1.0, "h"));
        let mut inst = instance(w);
        for expected_runs in 1..=2 {
            inst.mark_running("a");
            let (r, _) = inst.settle("a", NodeStatus::Done);
            assert_eq!(r, CompleteResult::LoopAgain);
            assert_eq!(inst.runs("a"), expected_runs);
            assert_eq!(inst.ready_nodes(), vec!["a"], "a re-queued");
        }
        inst.mark_running("a");
        let (r, _) = inst.settle("a", NodeStatus::Done);
        assert_eq!(r, CompleteResult::Settled);
        assert_eq!(inst.runs("a"), 3);
        assert_eq!(inst.ready_nodes(), vec!["b"], "downstream released");
    }

    #[test]
    fn loop_does_not_rerun_on_failure() {
        let mut b = WorkflowBuilder::new("loop");
        b.activity("a", "p");
        let mut w = b.do_while("a", "true").build_unchecked();
        w.programs
            .push(gridwfs_wpdl::ast::Program::new("p", 1.0, "h"));
        let mut inst = instance(w);
        inst.mark_running("a");
        let (r, _) = inst.settle("a", NodeStatus::Failed);
        assert_eq!(r, CompleteResult::Settled, "failures are not looped");
        assert!(inst.is_finished());
    }

    #[test]
    fn always_edge_fires_on_any_terminal() {
        for terminal in [
            NodeStatus::Done,
            NodeStatus::Failed,
            NodeStatus::Exception("e".into()),
        ] {
            let mut b = WorkflowBuilder::new("w").exception("e", false);
            b.activity("a", "p");
            b.activity("cleanup", "p");
            let mut w = b.always("a", "cleanup").build_unchecked();
            w.programs
                .push(gridwfs_wpdl::ast::Program::new("p", 1.0, "h"));
            let mut inst = instance(w);
            inst.mark_running("a");
            inst.settle("a", terminal.clone());
            assert_eq!(
                inst.ready_nodes(),
                vec!["cleanup"],
                "cleanup must follow {terminal:?}"
            );
        }
    }

    #[test]
    fn skip_cascades_through_chains() {
        let mut b = WorkflowBuilder::new("chain");
        for n in ["a", "b", "c", "d"] {
            b.activity(n, "p");
        }
        let mut w = b
            .edge("a", "b")
            .edge("b", "c")
            .edge("c", "d")
            .build_unchecked();
        w.programs
            .push(gridwfs_wpdl::ast::Program::new("p", 1.0, "h"));
        let mut inst = instance(w);
        inst.mark_running("a");
        let (_, skipped) = inst.settle("a", NodeStatus::Failed);
        assert_eq!(skipped, vec!["b", "c", "d"]);
        assert!(inst.is_finished());
    }

    #[test]
    fn status_function_visible_to_conditions() {
        let mut b = WorkflowBuilder::new("w");
        b.activity("a", "p");
        b.activity("b", "p");
        b.activity("c", "p");
        let mut w = b
            .edge("a", "b")
            .edge_if("b", "c", "status('a') == 'done'")
            .build_unchecked();
        w.programs
            .push(gridwfs_wpdl::ast::Program::new("p", 1.0, "h"));
        let mut inst = instance(w);
        inst.mark_running("a");
        inst.settle("a", NodeStatus::Done);
        inst.mark_running("b");
        inst.settle("b", NodeStatus::Done);
        assert_eq!(inst.ready_nodes(), vec!["c"]);
    }

    #[test]
    #[should_panic(expected = "already settled")]
    fn double_settle_panics() {
        let mut inst = fig4();
        inst.mark_running("fast_task");
        inst.settle("fast_task", NodeStatus::Done);
        inst.settle("fast_task", NodeStatus::Done);
    }

    #[test]
    #[should_panic(expected = "mark_running on non-pending")]
    fn mark_running_twice_panics() {
        let mut inst = fig4();
        inst.mark_running("fast_task");
        inst.mark_running("fast_task");
    }

    #[test]
    fn settling_from_pending_is_allowed() {
        // A submission that fails before the node was ever marked running
        // (e.g. unknown host) settles straight from Pending.
        let mut inst = fig4();
        let (_, _) = inst.settle("fast_task", NodeStatus::Failed);
        assert_eq!(*inst.status("fast_task"), NodeStatus::Failed);
    }

    #[test]
    fn outcome_requires_at_least_one_done_sink() {
        // Single activity that fails: no sink done -> failure.
        let mut b = WorkflowBuilder::new("w");
        b.activity("only", "p");
        let mut w = b.build_unchecked();
        w.programs
            .push(gridwfs_wpdl::ast::Program::new("p", 1.0, "h"));
        let mut inst = instance(w);
        inst.mark_running("only");
        inst.settle("only", NodeStatus::Failed);
        assert!(matches!(inst.outcome(), Outcome::Failure { .. }));
    }

    #[test]
    fn variables_readable_and_writable() {
        let mut inst = fig4();
        assert!(inst.var("x").is_none());
        inst.set_var("x", Value::Num(5.0));
        assert_eq!(inst.var("x"), Some(&Value::Num(5.0)));
    }
}

//! The WPDL abstract syntax tree.
//!
//! A workflow process definition is a DAG of **activities** connected by
//! **transitions**, plus the **programs** that implement the activities on
//! concrete Grid resources.  Failure-handling policy lives entirely in this
//! structure — that is the paper's core idea:
//!
//! * task-level policy sits on the [`Activity`] (`max_tries`, `interval`,
//!   `policy='replica'` — Figures 2 and 3);
//! * workflow-level policy is expressed by [`Transition`] triggers
//!   (`on='failed'` for alternative tasks, Figure 4; `on='exception:name'`
//!   for user-defined exception handling, Figure 6) and by OR-joins
//!   ([`JoinMode::Or`]) for workflow-level redundancy, Figure 5;
//! * conditional transitions and do-while loops (§7) use the
//!   [`expr::Expr`](crate::expr::Expr) condition language.

use crate::expr::{Expr, Value};

/// Task-level recovery policy of an activity (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// One submission at a time; `max_tries` / `interval` drive retries.
    #[default]
    Simple,
    /// Submit simultaneously to every `<Option>` of the implementing
    /// program; the first success wins and the rest are cancelled
    /// (`policy='replica'`, Figure 3).
    Replica,
}

/// Join semantics over an activity's incoming transitions (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinMode {
    /// Ready when *all* incoming transitions have fired.
    #[default]
    And,
    /// Ready when *any* incoming transition has fired (Figure 5's OR
    /// relationship).
    Or,
}

/// What makes a transition fire (the label on a workflow edge).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Trigger {
    /// Source completed successfully (the ordinary dependency edge).
    #[default]
    Done,
    /// Source crashed terminally (task-level masking exhausted) — the
    /// alternative-task edge of Figure 4.
    Failed,
    /// Source raised the named user-defined exception — Figure 6.
    Exception(String),
    /// Fires on any terminal outcome of the source (cleanup edges).
    Always,
}

impl Trigger {
    /// Parses the `on=` attribute syntax: `done`, `failed`, `always`,
    /// `exception:<name>`.
    pub fn parse(s: &str) -> Option<Trigger> {
        match s {
            "done" => Some(Trigger::Done),
            "failed" => Some(Trigger::Failed),
            "always" => Some(Trigger::Always),
            _ => s
                .strip_prefix("exception:")
                .filter(|n| !n.is_empty())
                .map(|n| Trigger::Exception(n.to_string())),
        }
    }

    /// Renders back to the `on=` attribute syntax.
    pub fn render(&self) -> String {
        match self {
            Trigger::Done => "done".to_string(),
            Trigger::Failed => "failed".to_string(),
            Trigger::Always => "always".to_string(),
            Trigger::Exception(n) => format!("exception:{n}"),
        }
    }
}

/// A user-defined exception declaration (paper §2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExceptionDecl {
    /// Name referenced by `on='exception:<name>'` and the task-side API.
    pub name: String,
    /// `true` ⇒ retrying can never succeed; only a handler helps.
    pub fatal: bool,
    /// Human description.
    pub description: String,
}

/// What happens to a `foreach` item once it exhausts its recovery budget
/// (primary retries plus any failover budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ItemAction {
    /// Record the item in the job's dead-letter queue and continue with the
    /// remaining items; the DLQ can be reprocessed later.
    #[default]
    DeadLetter,
    /// Drop the item (settled as skipped) and continue.
    Skip,
    /// Fail the whole activity immediately; in-flight and pending items are
    /// cancelled.
    Stop,
}

impl ItemAction {
    /// Parses the `on_item_failure=` attribute syntax: `dlq|skip|stop`.
    pub fn parse(s: &str) -> Option<ItemAction> {
        match s {
            "dlq" => Some(ItemAction::DeadLetter),
            "skip" => Some(ItemAction::Skip),
            "stop" => Some(ItemAction::Stop),
            _ => None,
        }
    }

    /// Renders back to the `on_item_failure=` attribute syntax.
    pub fn render(&self) -> &'static str {
        match self {
            ItemAction::DeadLetter => "dlq",
            ItemAction::Skip => "skip",
            ItemAction::Stop => "stop",
        }
    }
}

/// MapReduce-style fan-out over a data list: the activity's program is
/// instantiated once per item, with bounded concurrency and a *per-item*
/// error policy (the unit of recovery is the item, not the activity).
#[derive(Debug, Clone, PartialEq)]
pub struct ForeachSpec {
    /// The item payloads, in instantiation order.
    pub items: Vec<String>,
    /// Maximum items in flight at once; 0 = unbounded.
    pub max_parallel: usize,
    /// Per-item attempt budget on the primary program (≥ 1).
    pub max_attempts: u32,
    /// Pause before each per-item retry.
    pub retry_interval: f64,
    /// Policy once an item's budget (including failover) is exhausted.
    pub on_exhausted: ItemAction,
    /// Optional alternative program: after the primary budget is spent the
    /// item gets a fresh `max_attempts` budget on this program.
    pub failover: Option<String>,
    /// Fail the activity once this many items have exhausted recovery.
    pub max_failures: Option<u32>,
    /// Fail the activity once this fraction of the item set has exhausted
    /// recovery (0.0–1.0).
    pub failure_threshold: Option<f64>,
}

impl ForeachSpec {
    /// A fan-out over `items` with defaults: unbounded concurrency, one
    /// attempt per item, exhausted items dead-lettered.
    pub fn new(items: Vec<String>) -> Self {
        ForeachSpec {
            items,
            max_parallel: 0,
            max_attempts: 1,
            retry_interval: 0.0,
            on_exhausted: ItemAction::DeadLetter,
            failover: None,
            max_failures: None,
            failure_threshold: None,
        }
    }
}

/// A node of the workflow DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// Unique activity name.
    pub name: String,
    /// Name of the implementing [`Program`]; `None` makes this a dummy
    /// (zero-duration) split/join task as in Figure 5.
    pub implement: Option<String>,
    /// Task-level recovery policy.
    pub policy: Policy,
    /// Maximum number of tries (≥ 1; 1 means no retry).  With
    /// `policy='replica'` this applies per replica (§6: techniques combine).
    pub max_tries: u32,
    /// Pause between tries (the `interval` attribute of Figure 2).
    pub retry_interval: f64,
    /// Backoff multiplier applied to the pause on every further retry
    /// (extension; 1.0 = the paper's constant interval).  Retry n waits
    /// `interval * backoff^(n-1)`.
    pub retry_backoff: f64,
    /// Join semantics over incoming transitions.
    pub join: JoinMode,
    /// Heartbeat period expected from this task; 0 disables watching.
    pub heartbeat_interval: f64,
    /// Crash is presumed after `heartbeat_interval * heartbeat_tolerance`
    /// of silence.
    pub heartbeat_tolerance: f64,
    /// Logical input names (documentation: round-tripped, never read by the
    /// engine).
    pub inputs: Vec<String>,
    /// Logical output names.
    pub outputs: Vec<String>,
    /// MapReduce fan-out: instantiate the program once per item with a
    /// per-item error policy.  `None` = the ordinary single-instance node.
    pub foreach: Option<ForeachSpec>,
}

impl Activity {
    /// A plain activity implemented by `program` with defaults
    /// (no retry, AND-join, heartbeats at period 1 tolerance 3).
    pub fn new(name: impl Into<String>, program: impl Into<String>) -> Self {
        Activity {
            name: name.into(),
            implement: Some(program.into()),
            policy: Policy::Simple,
            max_tries: 1,
            retry_interval: 0.0,
            retry_backoff: 1.0,
            join: JoinMode::And,
            heartbeat_interval: 1.0,
            heartbeat_tolerance: 3.0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            foreach: None,
        }
    }

    /// A dummy (split/join) activity with no implementation.
    pub fn dummy(name: impl Into<String>) -> Self {
        Activity {
            name: name.into(),
            implement: None,
            policy: Policy::Simple,
            max_tries: 1,
            retry_interval: 0.0,
            retry_backoff: 1.0,
            join: JoinMode::And,
            heartbeat_interval: 0.0,
            heartbeat_tolerance: 3.0,
            inputs: Vec::new(),
            outputs: Vec::new(),
            foreach: None,
        }
    }

    /// True if this is a dummy split/join node.
    pub fn is_dummy(&self) -> bool {
        self.implement.is_none()
    }
}

/// One concrete placement choice for a program (`<Option>` in Figures 2/3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramOption {
    /// Target host (`bolas.isi.edu`).
    pub hostname: String,
    /// Job-manager service (`jobmanager`).
    pub service: String,
    /// Remote directory holding the executable.
    pub executable_dir: String,
    /// Executable name.
    pub executable: String,
}

impl ProgramOption {
    /// An option with default service and paths.
    pub fn host(hostname: impl Into<String>) -> Self {
        ProgramOption {
            hostname: hostname.into(),
            service: "jobmanager".to_string(),
            executable_dir: String::new(),
            executable: String::new(),
        }
    }
}

/// An executable unit referenced by activities via `<Implement>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Unique program name.
    pub name: String,
    /// Nominal (failure-free, unit-speed) duration — drives the simulated
    /// executor; a real deployment ignores it.
    pub nominal_duration: f64,
    /// Placement choices.  Retrying cycles through them; replication uses
    /// all of them at once.
    pub options: Vec<ProgramOption>,
}

impl Program {
    /// A program with one placement option.
    pub fn new(name: impl Into<String>, nominal_duration: f64, host: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            nominal_duration,
            options: vec![ProgramOption::host(host)],
        }
    }

    /// Builder: adds a placement option.
    pub fn option(mut self, host: impl Into<String>) -> Self {
        self.options.push(ProgramOption::host(host));
        self
    }
}

/// An edge of the workflow DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Source activity name.
    pub from: String,
    /// Target activity name.
    pub to: String,
    /// Firing trigger (`on=` attribute; default `done`).
    pub trigger: Trigger,
    /// Optional guard expression evaluated when the trigger matches; a
    /// false guard kills the edge (if-then-else routing, §7).
    pub condition: Option<Expr>,
}

impl Transition {
    /// An ordinary `done` dependency edge.
    pub fn new(from: impl Into<String>, to: impl Into<String>) -> Self {
        Transition {
            from: from.into(),
            to: to.into(),
            trigger: Trigger::Done,
            condition: None,
        }
    }

    /// Builder: sets the trigger.
    pub fn on(mut self, trigger: Trigger) -> Self {
        self.trigger = trigger;
        self
    }

    /// Builder: sets the guard condition.
    pub fn when(mut self, condition: Expr) -> Self {
        self.condition = Some(condition);
        self
    }
}

/// A do-while loop over an activity (§7): after the activity completes, if
/// the condition evaluates true, it is reset and re-executed.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSpec {
    /// The looped activity.
    pub activity: String,
    /// Continue-condition, evaluated after each completion.
    pub condition: Expr,
}

/// An initial workflow variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Variable name (referenced as `$name`).
    pub name: String,
    /// Initial value.
    pub value: Value,
}

/// A complete workflow process definition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Workflow {
    /// Workflow name.
    pub name: String,
    /// User-defined exception declarations.
    pub exceptions: Vec<ExceptionDecl>,
    /// Initial variables.
    pub variables: Vec<VarDecl>,
    /// DAG nodes.
    pub activities: Vec<Activity>,
    /// Implementations.
    pub programs: Vec<Program>,
    /// DAG edges.
    pub transitions: Vec<Transition>,
    /// Do-while loops.
    pub loops: Vec<LoopSpec>,
}

impl Workflow {
    /// An empty workflow with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Workflow {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Looks up an activity by name.
    pub fn activity(&self, name: &str) -> Option<&Activity> {
        self.activities.iter().find(|a| a.name == name)
    }

    /// Looks up a program by name.
    pub fn program(&self, name: &str) -> Option<&Program> {
        self.programs.iter().find(|p| p.name == name)
    }

    /// Incoming transitions of an activity.
    pub fn incoming<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Transition> {
        self.transitions.iter().filter(move |t| t.to == name)
    }

    /// Outgoing transitions of an activity.
    pub fn outgoing<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Transition> {
        self.transitions.iter().filter(move |t| t.from == name)
    }

    /// The loop attached to an activity, if any.
    pub fn loop_for(&self, name: &str) -> Option<&LoopSpec> {
        self.loops.iter().find(|l| l.activity == name)
    }

    /// Root activities (no incoming transitions) in declaration order.
    pub fn roots(&self) -> Vec<&Activity> {
        self.activities
            .iter()
            .filter(|a| self.incoming(&a.name).next().is_none())
            .collect()
    }

    /// Sink activities (no outgoing transitions) in declaration order.
    pub fn sinks(&self) -> Vec<&Activity> {
        self.activities
            .iter()
            .filter(|a| self.outgoing(&a.name).next().is_none())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr;

    fn figure4_workflow() -> Workflow {
        // Fast_Unreliable_Task --done--> Join
        //                      \--failed--> Slow_Reliable_Task --done--> Join (OR)
        let mut w = Workflow::new("figure4");
        w.programs
            .push(Program::new("fast", 30.0, "volunteer.example"));
        w.programs
            .push(Program::new("slow", 150.0, "condor.example"));
        w.activities.push(Activity::new("fast_task", "fast"));
        w.activities.push(Activity::new("slow_task", "slow"));
        let mut join = Activity::dummy("join");
        join.join = JoinMode::Or;
        w.activities.push(join);
        w.transitions.push(Transition::new("fast_task", "join"));
        w.transitions
            .push(Transition::new("fast_task", "slow_task").on(Trigger::Failed));
        w.transitions.push(Transition::new("slow_task", "join"));
        w
    }

    #[test]
    fn trigger_parse_render_roundtrip() {
        for t in [
            Trigger::Done,
            Trigger::Failed,
            Trigger::Always,
            Trigger::Exception("disk_full".into()),
        ] {
            assert_eq!(Trigger::parse(&t.render()), Some(t.clone()));
        }
        assert_eq!(Trigger::parse("exception:"), None);
        assert_eq!(Trigger::parse("bogus"), None);
    }

    #[test]
    fn activity_constructors() {
        let a = Activity::new("sum", "sum_prog");
        assert!(!a.is_dummy());
        assert_eq!(a.max_tries, 1);
        assert_eq!(a.policy, Policy::Simple);
        let d = Activity::dummy("join");
        assert!(d.is_dummy());
        assert_eq!(d.heartbeat_interval, 0.0, "dummies are not watched");
    }

    #[test]
    fn graph_navigation() {
        let w = figure4_workflow();
        assert_eq!(w.roots().len(), 1);
        assert_eq!(w.roots()[0].name, "fast_task");
        assert_eq!(w.sinks().len(), 1);
        assert_eq!(w.sinks()[0].name, "join");
        assert_eq!(w.incoming("join").count(), 2);
        assert_eq!(w.outgoing("fast_task").count(), 2);
        assert!(w.activity("fast_task").is_some());
        assert!(w.activity("nope").is_none());
        assert!(w.program("fast").is_some());
    }

    #[test]
    fn alternative_task_edge_uses_failed_trigger() {
        let w = figure4_workflow();
        let alt: Vec<&Transition> = w
            .outgoing("fast_task")
            .filter(|t| t.trigger == Trigger::Failed)
            .collect();
        assert_eq!(alt.len(), 1);
        assert_eq!(alt[0].to, "slow_task");
    }

    #[test]
    fn program_builder() {
        let p = Program::new("sum", 30.0, "a").option("b").option("c");
        assert_eq!(p.options.len(), 3);
        assert_eq!(p.options[2].hostname, "c");
        assert_eq!(p.options[0].service, "jobmanager");
    }

    #[test]
    fn transition_builders() {
        let t = Transition::new("a", "b")
            .on(Trigger::Exception("oom".into()))
            .when(expr::parse("runs('a') < 3").unwrap());
        assert_eq!(t.trigger, Trigger::Exception("oom".into()));
        assert!(t.condition.is_some());
    }

    #[test]
    fn item_action_parse_render_roundtrip() {
        for a in [ItemAction::DeadLetter, ItemAction::Skip, ItemAction::Stop] {
            assert_eq!(ItemAction::parse(a.render()), Some(a));
        }
        assert_eq!(ItemAction::parse("explode"), None);
    }

    #[test]
    fn foreach_spec_defaults() {
        let f = ForeachSpec::new(vec!["a".into(), "b".into()]);
        assert_eq!(f.max_parallel, 0, "unbounded by default");
        assert_eq!(f.max_attempts, 1);
        assert_eq!(f.on_exhausted, ItemAction::DeadLetter);
        assert!(f.failover.is_none());
        assert!(f.max_failures.is_none());
        assert!(f.failure_threshold.is_none());
    }

    #[test]
    fn loop_lookup() {
        let mut w = figure4_workflow();
        w.loops.push(LoopSpec {
            activity: "fast_task".into(),
            condition: expr::parse("runs('fast_task') < 5").unwrap(),
        });
        assert!(w.loop_for("fast_task").is_some());
        assert!(w.loop_for("slow_task").is_none());
    }
}

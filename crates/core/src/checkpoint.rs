//! Engine checkpointing: fault tolerance *of the engine itself*.
//!
//! From the paper (§7): "every time a task termination state is recognized,
//! the engine saves the current XML parse tree onto a persistent storage in
//! a XML file form.  So, when being restarted, the engine creates a parse
//! tree from the saved XML file rather than from the original XML file and
//! begins navigation from where it left off."
//!
//! The saved document embeds the workflow definition (so the checkpoint is
//! self-contained even if the original file changed) plus the runtime
//! annotations: per-node status and completion counts, `<Foreach>` item
//! progress, workflow variables, and the state of every transition.
//! Attempts that were *in flight* at save time are recorded as `pending` —
//! on restart they are simply resubmitted, which is safe because task-level
//! recovery is idempotent from the workflow's point of view.
//!
//! Edge states travel as `<Runtime edges='…'>`, one character per
//! `<Transition>` in document order: `p` pending, `f` fired, `d` dead.  A
//! guard is evaluated once, when its source settles, against the state of
//! that moment; restoring the recorded verdict is what lets a restarted
//! engine begin "from where it left off" even when a variable or another
//! node's status has moved on since.  A document without the attribute was
//! written before edge states were recorded (an in-flight service job may
//! hold one); it decodes by resolving every edge of a settled source
//! against the restored state, as those engines did.

use std::path::Path;

use gridwfs_wpdl::expr::Value;
use gridwfs_wpdl::parse as wpdl_parse;
use gridwfs_wpdl::validate::validate;
use gridwfs_wpdl::xml::{self, Element};

use crate::instance::{EdgeState, Instance, ItemProgress, ItemState, NodeStatus};

/// Errors from saving/loading engine checkpoints.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file is not a valid checkpoint document.
    Format(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(m) => write!(f, "checkpoint format error: {m}"),
        }
    }
}
impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn parse_status(s: &str) -> Result<NodeStatus, CheckpointError> {
    Ok(match s {
        "pending" => NodeStatus::Pending,
        "done" => NodeStatus::Done,
        "failed" => NodeStatus::Failed,
        "skipped" => NodeStatus::Skipped,
        _ => match s.strip_prefix("exception:") {
            Some(name) if !name.is_empty() => NodeStatus::Exception(name.to_string()),
            _ => return Err(bad(format!("unknown node status '{s}'"))),
        },
    })
}

/// An edge state's character in the `edges` attribute.
fn edge_char(state: EdgeState) -> char {
    match state {
        EdgeState::Pending => 'p',
        EdgeState::Fired => 'f',
        EdgeState::Dead => 'd',
    }
}

/// Restores every edge from the `edges` attribute, which must hold one
/// known character per transition and resolve no edge whose source is
/// unsettled.
fn restore_edges(instance: &mut Instance, edges: &str) -> Result<(), CheckpointError> {
    let n = instance.workflow().transitions.len();
    if edges.chars().count() != n {
        let got = edges.chars().count();
        return Err(bad(format!("edges has {got} states for {n} transitions")));
    }
    for (i, c) in edges.chars().enumerate() {
        let state = [EdgeState::Pending, EdgeState::Fired, EdgeState::Dead]
            .into_iter()
            .find(|&e| edge_char(e) == c)
            .ok_or_else(|| bad(format!("unknown edge state '{c}'")))?;
        let from = &instance.workflow().transitions[i].from;
        if state != EdgeState::Pending && !instance.status(from).is_settled() {
            return Err(bad(format!(
                "edge {i} is resolved but its source '{from}' has not settled"
            )));
        }
        instance.force_edge(i, state);
    }
    Ok(())
}

/// Resolves the edges of every settled source against the restored state:
/// the decoding of a document written before edge states were recorded.
fn resolve_legacy_edges(instance: &mut Instance) {
    for i in 0..instance.workflow().transitions.len() {
        let outcome = instance
            .status(&instance.workflow().transitions[i].from)
            .clone();
        if outcome.is_settled() {
            instance.resolve_edge(i, &outcome);
        }
    }
}

/// Appends ` name='value'` for a value that cannot need escaping (numbers
/// and booleans); everything else goes through [`xml::push_attr`].
fn push_plain_attr(out: &mut String, name: &str, value: impl std::fmt::Display) {
    use std::fmt::Write;
    write!(out, " {name}='{value}'").expect("writing to a String cannot fail");
}

/// Appends the `<Node>`/`<Item>`/`<Var>` lines of `<Runtime>`, one element
/// per line at nesting depth 2.
fn write_runtime_lines(out: &mut String, instance: &Instance) {
    for (name, status) in instance.statuses() {
        out.push_str("    <Node");
        xml::push_attr(out, "name", name);
        match status {
            NodeStatus::Exception(e) => xml::push_attr(out, "status", &format!("exception:{e}")),
            // In-flight attempts are lost across a restart; record as
            // pending so the restarted engine resubmits them.
            NodeStatus::Running => xml::push_attr(out, "status", "pending"),
            other => xml::push_attr(out, "status", other.as_expr_str()),
        }
        push_plain_attr(out, "runs", instance.runs(name));
        out.push_str("/>\n");
    }
    for (name, items) in instance.items_iter() {
        for (idx, p) in items.iter().enumerate() {
            out.push_str("    <Item");
            xml::push_attr(out, "activity", name);
            push_plain_attr(out, "index", idx);
            xml::push_attr(out, "state", p.state.wire_str());
            push_plain_attr(out, "attempts", p.attempts);
            if p.failover {
                out.push_str(" failover='true'");
            }
            if p.reprocess {
                out.push_str(" reprocess='true'");
            }
            if !p.reason.is_empty() {
                xml::push_attr(out, "reason", &p.reason);
            }
            out.push_str("/>\n");
        }
    }
    for (name, value) in instance.vars_iter() {
        out.push_str("    <Var");
        xml::push_attr(out, "name", name);
        match value {
            Value::Num(n) => {
                xml::push_attr(out, "type", "num");
                push_plain_attr(out, "value", n);
            }
            Value::Str(s) => {
                xml::push_attr(out, "type", "str");
                xml::push_attr(out, "value", s);
            }
            Value::Bool(b) => {
                xml::push_attr(out, "type", "bool");
                push_plain_attr(out, "value", b);
            }
        }
        out.push_str("/>\n");
    }
}

/// Serialises an instance to the checkpoint document.
///
/// An eager [`crate::CheckpointSink`] calls this at every checkpoint (each
/// task termination); the serve scheduler calls it once at the end of a
/// slice that checkpointed ([`crate::Engine::checkpoint_xml`]).  Either
/// way the cost follows what can have changed: the `<Workflow>` child is
/// rendered once per instance (`Instance::workflow_xml`) and copied, and
/// the `<Runtime>` lines are written straight into a buffer.  `concat`
/// allocates the document at its exact length, which matters because
/// storage backends keep it as-is.
pub fn to_xml(instance: &Instance) -> String {
    // A validated workflow has at least one activity, so `<Runtime>` always
    // has children and never self-closes.
    let n_edges = instance.workflow().transitions.len();
    let mut runtime = String::with_capacity(64 * instance.topological_order().len() + n_edges);
    runtime.push_str("  <Runtime edges='");
    runtime.extend((0..n_edges).map(|i| edge_char(instance.edge_state(i))));
    runtime.push_str("'>\n");
    write_runtime_lines(&mut runtime, instance);
    [
        "<?xml version='1.0'?>\n<EngineCheckpoint>\n",
        instance.workflow_xml(),
        &runtime,
        "  </Runtime>\n</EngineCheckpoint>\n",
    ]
    .concat()
}

/// Writes the checkpoint crash-atomically: tmp file + `sync_all`, then
/// rename, then parent-dir fsync.  A crash at any point leaves either the
/// previous checkpoint or the new one in full, never a torn file.
///
/// This is the file an engine built with
/// [`crate::Engine::with_checkpointing`] writes at every checkpoint
/// (`gridwfs run --checkpoint`), one fsync pair each.  The service never
/// writes files: its engines' [`crate::CheckpointSink`] marks the job
/// dirty, and the scheduler encodes the instance once per slice and
/// group-commits the document through its storage backend.
pub fn save(instance: &Instance, path: &Path) -> Result<(), CheckpointError> {
    gridwfs_chaos::write_atomic(&gridwfs_chaos::RealFs, path, to_xml(instance).as_bytes())?;
    Ok(())
}

/// A format error.
fn bad(message: impl Into<String>) -> CheckpointError {
    CheckpointError::Format(message.into())
}

/// `el`'s attribute `name`, which must be present.
fn required<'a>(el: &'a Element, name: &str) -> Result<&'a str, CheckpointError> {
    el.get_attr(name)
        .ok_or_else(|| bad(format!("<{}> missing {name}", el.name)))
}

/// `el`'s counter attribute `name`, zero when absent.
fn counter<T: std::str::FromStr + Default>(el: &Element, name: &str) -> Result<T, CheckpointError> {
    el.get_attr(name).map_or(Ok(T::default()), |raw| {
        raw.parse()
            .map_err(|_| bad(format!("bad {name} '{raw}' on <{}>", el.name)))
    })
}

/// Reconstructs an instance from checkpoint text.
pub fn from_xml(text: &str) -> Result<Instance, CheckpointError> {
    let root = xml::parse(text).map_err(|e| bad(e.to_string()))?;
    if root.name != "EngineCheckpoint" {
        return Err(bad(format!(
            "expected <EngineCheckpoint>, found <{}>",
            root.name
        )));
    }
    let wf_el = root
        .first_child("Workflow")
        .ok_or_else(|| bad("missing <Workflow>"))?;
    let workflow = wpdl_parse::from_element(wf_el).map_err(|e| bad(e.to_string()))?;
    let validated = validate(workflow).map_err(|issues| {
        let issues: Vec<String> = issues.iter().map(|i| i.to_string()).collect();
        bad(format!("embedded workflow invalid: {}", issues.join("; ")))
    })?;
    let mut instance = Instance::new(validated);
    let runtime = root
        .first_child("Runtime")
        .ok_or_else(|| bad("missing <Runtime>"))?;
    for var in runtime.children_named("Var") {
        let (name, raw) = (required(var, "name")?, required(var, "value")?);
        let value = match var.get_attr("type") {
            Some("num") => Value::Num(
                raw.parse()
                    .map_err(|_| bad(format!("bad num value '{raw}' for ${name}")))?,
            ),
            Some("bool") => Value::Bool(raw == "true"),
            _ => Value::Str(raw.to_string()),
        };
        instance.set_var(name, value);
    }
    for node in runtime.children_named("Node") {
        let name = required(node, "name")?;
        if instance.workflow().activity(name).is_none() {
            return Err(bad(format!("runtime mentions unknown activity '{name}'")));
        }
        let status = parse_status(required(node, "status")?)?;
        instance.force_runs(name, counter(node, "runs")?);
        if status != NodeStatus::Pending {
            instance.force_status(name, status);
        }
    }
    for item in runtime.children_named("Item") {
        let activity = required(item, "activity")?;
        let idx: usize = required(item, "index")?
            .parse()
            .map_err(|_| bad(format!("bad item index on '{activity}'")))?;
        if instance
            .items(activity)
            .is_none_or(|items| idx >= items.len())
        {
            return Err(bad(format!(
                "runtime mentions unknown foreach item {idx} of '{activity}'"
            )));
        }
        let state = item
            .get_attr("state")
            .and_then(ItemState::parse_wire)
            .ok_or_else(|| bad(format!("bad item state on '{activity}'[{idx}]")))?;
        let progress = ItemProgress {
            state,
            attempts: counter(item, "attempts")?,
            failover: item.get_attr("failover") == Some("true"),
            reprocess: item.get_attr("reprocess") == Some("true"),
            reason: item.get_attr("reason").unwrap_or("").to_string(),
        };
        instance.force_item(activity, idx, progress);
    }
    match runtime.get_attr("edges") {
        Some(edges) => restore_edges(&mut instance, edges)?,
        None => resolve_legacy_edges(&mut instance),
    }
    Ok(instance)
}

/// Rewrites a checkpoint so every dead-lettered `foreach` item becomes
/// pending again with a fresh attempt budget and the `reprocess` marker
/// set, and its owning activity reverts to `pending`, with its outgoing
/// edges, so the engine re-runs it.  Settled items, other activities and
/// their edges, variables, and run counters are untouched — the resume
/// machinery re-runs *only* the failed items.  Returns the rewritten
/// document and the number of items reset.
pub fn reset_dead_letters(text: &str) -> Result<(String, usize), CheckpointError> {
    let mut instance = from_xml(text)?;
    let targets: Vec<(String, usize)> = instance
        .items_iter()
        .flat_map(|(name, items)| {
            let dead = items.iter().enumerate();
            dead.filter(|(_, p)| p.state == ItemState::DeadLettered)
                .map(move |(i, _)| (name.to_string(), i))
        })
        .collect();
    let reset = ItemProgress {
        reprocess: true,
        ..ItemProgress::default()
    };
    for (name, idx) in &targets {
        instance.force_item(name, *idx, reset.clone());
        instance.force_status(name, NodeStatus::Pending);
        for i in 0..instance.workflow().transitions.len() {
            if instance.workflow().transitions[i].from == *name {
                instance.force_edge(i, EdgeState::Pending);
            }
        }
    }
    Ok((to_xml(&instance), targets.len()))
}

/// Reads and reconstructs an instance from a checkpoint file.
pub fn load(path: &Path) -> Result<Instance, CheckpointError> {
    let text = std::fs::read_to_string(path)?;
    from_xml(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwfs_wpdl::ast::{Activity, ForeachSpec, Program, Transition, Workflow};
    use gridwfs_wpdl::builder::{figure4, figure5, figure6, WorkflowBuilder};
    use gridwfs_wpdl::validate::validate;
    use gridwfs_wpdl::writer;
    use gridwfs_wpdl::xml::Element;

    fn fresh() -> Instance {
        Instance::new(validate(figure4(30.0, 150.0)).unwrap())
    }

    /// The tree-building encoder [`to_xml`] replaced, kept as the reference
    /// the streaming one must match byte for byte: one `Element` tree for
    /// the whole document, pretty-printed by `xml::write`.
    fn reference_to_xml(instance: &Instance) -> String {
        let edges: String = (0..instance.workflow().transitions.len())
            .map(|i| edge_char(instance.edge_state(i)))
            .collect();
        let mut runtime = Element::new("Runtime").attr("edges", edges);
        for (name, status) in instance.statuses() {
            let status = match status {
                NodeStatus::Exception(e) => format!("exception:{e}"),
                NodeStatus::Running => "pending".to_string(),
                other => other.as_expr_str().to_string(),
            };
            runtime = runtime.child(
                Element::new("Node")
                    .attr("name", name)
                    .attr("status", status)
                    .attr("runs", instance.runs(name).to_string()),
            );
        }
        for (name, items) in instance.items_iter() {
            for (idx, p) in items.iter().enumerate() {
                let mut el = Element::new("Item")
                    .attr("activity", name)
                    .attr("index", idx.to_string())
                    .attr("state", p.state.wire_str())
                    .attr("attempts", p.attempts.to_string());
                if p.failover {
                    el = el.attr("failover", "true");
                }
                if p.reprocess {
                    el = el.attr("reprocess", "true");
                }
                if !p.reason.is_empty() {
                    el = el.attr("reason", &p.reason);
                }
                runtime = runtime.child(el);
            }
        }
        for (name, value) in instance.vars_iter() {
            let (ty, raw) = match value {
                Value::Num(n) => ("num", n.to_string()),
                Value::Str(s) => ("str", s.clone()),
                Value::Bool(b) => ("bool", b.to_string()),
            };
            runtime = runtime.child(
                Element::new("Var")
                    .attr("name", name)
                    .attr("type", ty)
                    .attr("value", raw),
            );
        }
        let doc = Element::new("EngineCheckpoint")
            .child(writer::to_element(instance.workflow()))
            .child(runtime);
        xml::write(&doc)
    }

    /// Everything the codec promises about one state of one instance: the
    /// document is the reference encoder's, a second encode (served from
    /// the cached `<Workflow>`) and a clone's encode repeat it, and
    /// decoding then re-encoding is a fixpoint.
    fn assert_codec_holds(inst: &Instance, what: &str) {
        let doc = to_xml(inst);
        assert_eq!(
            doc,
            reference_to_xml(inst),
            "{what}: differs from reference"
        );
        assert_eq!(doc.capacity(), doc.len(), "{what}: padded allocation");
        assert_eq!(to_xml(inst), doc, "{what}: second encode differs");
        assert_eq!(
            to_xml(&inst.clone()),
            doc,
            "{what}: clone encodes differently"
        );
        let back = from_xml(&doc).unwrap_or_else(|e| panic!("{what}: {e}\n{doc}"));
        assert_eq!(back.workflow(), inst.workflow(), "{what}");
        assert_eq!(
            to_xml(&back),
            doc,
            "{what}: decode + encode is not a fixpoint"
        );
    }

    /// xorshift64: the walk below must repeat exactly, with no dev-dependency.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    const AWKWARD: [&str; 4] = ["crashed", "it's \"down\"", "a<b>&c", "héllo — ✓"];

    /// Drives `inst` from fresh to terminal along a seeded path — every
    /// ready activity is started, then settled as done / failed / exception
    /// (foreach items get random terminal states, flags and reasons first),
    /// variables of all three types change on the way — and checks the codec
    /// at every state it passes through.
    fn walk(mut inst: Instance, seed: u64, what: &str) {
        let mut rng = Rng(seed | 1);
        // Cloned before the first encode: nothing cached, so it renders
        // its own fragment.
        let cold = inst.clone();
        assert_codec_holds(&inst, &format!("{what}: fresh"));
        assert_eq!(to_xml(&cold), to_xml(&inst), "{what}: cold clone");
        for step in 0..200 {
            let ready = inst.ready_nodes();
            if ready.is_empty() {
                break;
            }
            let name = ready[rng.below(ready.len())].clone();
            inst.mark_running(&name);
            let at = format!("{what}: step {step} '{name}'");
            assert_codec_holds(&inst, &format!("{at} running"));
            let items = inst.items(&name).map_or(0, <[ItemProgress]>::len);
            for idx in 0..items {
                let state = [
                    ItemState::Pending,
                    ItemState::Done,
                    ItemState::Skipped,
                    ItemState::DeadLettered,
                    ItemState::Cancelled,
                    ItemState::Failed,
                ][rng.below(6)];
                let progress = ItemProgress {
                    state,
                    attempts: rng.below(5) as u32,
                    failover: rng.below(2) == 0,
                    reprocess: rng.below(3) == 0,
                    reason: if state == ItemState::DeadLettered {
                        AWKWARD[rng.below(AWKWARD.len())].to_string()
                    } else {
                        String::new()
                    },
                };
                inst.force_item(&name, idx, progress);
                assert_codec_holds(&inst, &format!("{at} item {idx}"));
            }
            match rng.below(4) {
                0 => inst.set_var("n", Value::Num([2.5, -3.0, 1e21, 0.1][rng.below(4)])),
                1 => inst.set_var("s & <t>", Value::Str(AWKWARD[rng.below(4)].to_string())),
                2 => inst.set_var("b", Value::Bool(rng.below(2) == 0)),
                _ => {}
            }
            let status = match rng.below(6) {
                0 => NodeStatus::Failed,
                1 => NodeStatus::Exception(AWKWARD[rng.below(AWKWARD.len())].to_string()),
                _ => NodeStatus::Done,
            };
            inst.settle(&name, status);
            assert_codec_holds(&inst, &format!("{at} settled"));
        }
        assert!(
            inst.is_finished(),
            "{what}: walk did not reach a terminal state"
        );
    }

    fn shipped_workflows() -> Vec<(String, Workflow)> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../workflows");
        let mut found = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("workflows/ is readable") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "xml") {
                let text = std::fs::read_to_string(&path).unwrap();
                let w = wpdl_parse::from_str(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                found.push((path.file_name().unwrap().to_string_lossy().into_owned(), w));
            }
        }
        found.sort_by(|a, b| a.0.cmp(&b.0));
        assert!(
            found.len() >= 8,
            "expected the shipped workflows, found {found:?}"
        );
        found
    }

    /// Figures 2 and 3 have no builder of their own: task-level retrying and
    /// replication on one activity.
    fn figure2() -> Workflow {
        let mut b = WorkflowBuilder::new("figure2-retry").program("sum", 30.0, &["bolas.isi.edu"]);
        b.activity("summation", "sum").retry(3, 10.0);
        b.build_unchecked()
    }

    fn figure3() -> Workflow {
        let hosts = ["bolas.isi.edu", "vanuatu.isi.edu", "jupiter.isi.edu"];
        let mut b = WorkflowBuilder::new("figure3-replica").program("sum", 30.0, &hosts);
        b.activity("summation", "sum").replicate();
        b.build_unchecked()
    }

    /// A workflow whose every name needs escaping, with a foreach, a loop,
    /// a guarded edge and declared variables of all three types.
    fn awkward_workflow() -> Workflow {
        let mut b = WorkflowBuilder::new("it's \"odd\" <w> & co")
            .variable("limit", Value::Num(2.0))
            .variable("tag's", Value::Str("a \"b\" <c> & d".into()))
            .variable("flag", Value::Bool(true))
            .exception("disk_full", false)
            .program("p & q", 10.0, &["h<1>", "h'2'"]);
        b.activity("first \"one\"", "p & q")
            .retry(2, 1.5)
            .input("in <1>.dat");
        b.activity("map's <items> & more", "p & q").foreach({
            let mut f = ForeachSpec::new(vec!["s'0".into(), "s<1>".into(), "s&2".into()]);
            f.max_attempts = 2;
            f.failover = Some("p & q".into());
            f
        });
        b.activity("handler", "p & q");
        b.dummy("join").or_join();
        b.edge("first \"one\"", "map's <items> & more")
            .on_exception("first \"one\"", "disk_full", "handler")
            .on_failure("first \"one\"", "handler")
            .edge_if("map's <items> & more", "join", "$limit >= 2")
            .edge("handler", "join")
            .do_while("handler", "runs('handler') < $limit")
            .build_unchecked()
    }

    #[test]
    fn streaming_encoder_matches_reference_on_every_shipped_workflow() {
        for (file, w) in shipped_workflows() {
            for seed in 1..=6 {
                let inst = Instance::new(validate(w.clone()).unwrap());
                walk(inst, seed * 0x9E37_79B9, &format!("{file} seed {seed}"));
            }
        }
    }

    #[test]
    fn streaming_encoder_matches_reference_on_the_figure_builders() {
        let figures = [
            ("figure2", figure2()),
            ("figure3", figure3()),
            ("figure4", figure4(30.0, 150.0)),
            ("figure5", figure5(30.0, 150.0)),
            ("figure6", figure6(30.0, 150.0)),
        ];
        for (name, w) in figures {
            for seed in 1..=12 {
                let inst = Instance::new(validate(w.clone()).unwrap());
                walk(inst, seed * 0x2545_F491, &format!("{name} seed {seed}"));
            }
        }
    }

    #[test]
    fn streaming_encoder_matches_reference_when_everything_needs_escaping() {
        for seed in 1..=40 {
            let inst = Instance::new(validate(awkward_workflow()).unwrap());
            walk(inst, seed * 0xD1B5_4A33, &format!("awkward seed {seed}"));
        }
    }

    #[test]
    fn document_layout_is_pinned() {
        // The reference shares `xml::write` with nothing else pinned to
        // literal bytes; this is the one spelled-out document.
        let mut inst = foreach_instance();
        inst.set_var("x", Value::Num(2.5));
        inst.mark_running("map");
        inst.force_item(
            "map",
            1,
            ItemProgress {
                state: ItemState::DeadLettered,
                attempts: 4,
                failover: true,
                reprocess: true,
                reason: "it's <gone> & \"lost\"".into(),
            },
        );
        inst.settle("map", NodeStatus::Exception("disk_full".into()));
        let expected = "\
<?xml version='1.0'?>
<EngineCheckpoint>
  <Workflow name='mapred'>
    <Activity name='map'>
      <Implement>p</Implement>
      <Foreach max_attempts='2'>
        <Item>s0</Item>
        <Item>s1</Item>
        <Item>s2</Item>
      </Foreach>
    </Activity>
    <Activity name='reduce'>
      <Implement>p</Implement>
    </Activity>
    <Program name='p' duration='10'>
      <Option hostname='h1'/>
      <Option hostname='h2'/>
    </Program>
    <Transition from='map' to='reduce'/>
  </Workflow>
  <Runtime edges='d'>
    <Node name='map' status='exception:disk_full' runs='0'/>
    <Node name='reduce' status='skipped' runs='0'/>
    <Item activity='map' index='0' state='pending' attempts='0'/>
    <Item activity='map' index='1' state='dlq' attempts='4' failover='true' reprocess='true' \
reason='it&apos;s &lt;gone&gt; &amp; &quot;lost&quot;'/>
    <Item activity='map' index='2' state='pending' attempts='0'/>
    <Var name='x' type='num' value='2.5'/>
  </Runtime>
</EngineCheckpoint>
";
        assert_eq!(to_xml(&inst), expected);
    }

    #[test]
    fn reset_dead_letters_equals_a_fresh_encode_of_the_reset_instance() {
        let mut inst = foreach_instance();
        inst.mark_running("map");
        for (idx, state) in [
            ItemState::DeadLettered,
            ItemState::Done,
            ItemState::DeadLettered,
        ]
        .into_iter()
        .enumerate()
        {
            inst.force_item(
                "map",
                idx,
                ItemProgress {
                    state,
                    attempts: 3,
                    failover: true,
                    reprocess: false,
                    reason: if state == ItemState::DeadLettered {
                        "crashed & <burned>".into()
                    } else {
                        String::new()
                    },
                },
            );
        }
        inst.settle("map", NodeStatus::Done);
        inst.mark_running("reduce");
        inst.settle("reduce", NodeStatus::Done);
        let before = to_xml(&inst); // the fragment is cached from here on

        // The same reset, done by hand on the instance that holds the cache.
        let mut expected = inst.clone();
        for idx in [0, 2] {
            expected.force_item(
                "map",
                idx,
                ItemProgress {
                    reprocess: true,
                    ..Default::default()
                },
            );
        }
        expected.force_status("map", NodeStatus::Pending);
        expected.force_edge(0, EdgeState::Pending);

        let (reset_doc, reset) = reset_dead_letters(&before).unwrap();
        assert_eq!(reset, 2);
        assert_eq!(reset_doc, reference_to_xml(&expected));
        assert_eq!(
            reset_doc,
            to_xml(&expected),
            "cache carried through the mutation"
        );
        assert_ne!(reset_doc, before);
        assert_eq!(
            to_xml(&inst),
            before,
            "the original is unaffected by its clone"
        );
    }

    #[test]
    fn roundtrip_fresh_instance() {
        let inst = fresh();
        let text = to_xml(&inst);
        let back = from_xml(&text).unwrap();
        assert_eq!(back.workflow(), inst.workflow());
        for (name, status) in inst.statuses() {
            assert_eq!(back.status(name), status);
        }
        assert_eq!(back.ready_nodes(), inst.ready_nodes());
    }

    #[test]
    fn mid_run_state_resumes_where_it_left_off() {
        let mut inst = fresh();
        inst.mark_running("fast_task");
        inst.settle("fast_task", NodeStatus::Failed);
        // slow_task is now the ready alternative.
        assert_eq!(inst.ready_nodes(), vec!["slow_task"]);
        let back = from_xml(&to_xml(&inst)).unwrap();
        assert_eq!(back.status("fast_task"), &NodeStatus::Failed);
        assert_eq!(
            back.ready_nodes(),
            vec!["slow_task"],
            "edges recomputed: alternative still ready"
        );
    }

    #[test]
    fn a_restored_checkpoint_keeps_the_edges_the_run_resolved() {
        // `a -> c` is guarded on `b`, which has not settled when `a` does:
        // the edge dies then, and must stay dead after a restore even
        // though the guard would now hold.
        let mut b = WorkflowBuilder::new("guarded").program("p", 1.0, &["h"]);
        for n in ["a", "b", "d"] {
            b.activity(n, "p");
        }
        b.activity("c", "p").or_join();
        let w = b
            .edge_if("a", "c", "status('b') == 'done'")
            .edge("b", "d")
            .edge("d", "c")
            .build_unchecked();
        let mut inst = Instance::new(validate(w).unwrap());
        inst.settle("a", NodeStatus::Done);
        inst.settle("b", NodeStatus::Done);
        let edges = |i: &Instance| (0..3).map(|e| i.edge_state(e)).collect::<Vec<_>>();
        use EdgeState::{Dead, Fired, Pending};
        assert_eq!(edges(&inst), [Dead, Fired, Pending]);
        assert_eq!(inst.ready_nodes(), ["d"]);
        let back = from_xml(&to_xml(&inst)).unwrap();
        assert_eq!(edges(&back), edges(&inst));
        assert_eq!(back.ready_nodes(), ["d"], "the OR-join waits for d");
    }

    #[test]
    fn a_document_without_edge_states_still_decodes() {
        // Written before `<Runtime>` carried `edges`: the settled source's
        // edges are resolved against the restored state.
        let legacy = "\
<?xml version='1.0'?>
<EngineCheckpoint>
  <Workflow name='alt'>
    <Activity name='fast'>
      <Implement>p</Implement>
    </Activity>
    <Activity name='slow'>
      <Implement>p</Implement>
    </Activity>
    <Activity name='report'>
      <Implement>p</Implement>
    </Activity>
    <Program name='p' duration='10'>
      <Option hostname='h1'/>
    </Program>
    <Transition from='fast' to='slow' on='failed' condition='$retry'/>
    <Transition from='fast' to='report'/>
  </Workflow>
  <Runtime>
    <Node name='fast' status='failed' runs='0'/>
    <Node name='slow' status='pending' runs='0'/>
    <Node name='report' status='skipped' runs='0'/>
    <Var name='retry' type='bool' value='true'/>
  </Runtime>
</EngineCheckpoint>
";
        let inst = from_xml(legacy).unwrap();
        assert_eq!(inst.edge_state(0), EdgeState::Fired);
        assert_eq!(inst.edge_state(1), EdgeState::Dead);
        assert_eq!(inst.ready_nodes(), ["slow"]);
        // Re-encoded, it carries the states it was decoded with.
        let doc = to_xml(&inst);
        assert!(doc.contains("<Runtime edges='fd'>"), "{doc}");
        assert_eq!(to_xml(&from_xml(&doc).unwrap()), doc);
    }

    #[test]
    fn malformed_edge_states_rejected() {
        let mut inst = fresh();
        inst.settle("fast_task", NodeStatus::Failed);
        let doc = to_xml(&inst);
        assert!(doc.contains("edges='dfp'"), "{doc}");
        for (edges, why) in [
            ("df", "has 2 states for 3 transitions"),
            ("dfpp", "has 4 states for 3 transitions"),
            ("dxp", "unknown edge state 'x'"),
            ("dff", "source 'slow_task' has not settled"),
        ] {
            let evil = doc.replace("edges='dfp'", &format!("edges='{edges}'"));
            let err = from_xml(&evil).unwrap_err().to_string();
            assert!(err.contains(why), "{edges}: {err}");
        }
    }

    #[test]
    fn running_nodes_revert_to_pending() {
        let mut inst = fresh();
        inst.mark_running("fast_task");
        let back = from_xml(&to_xml(&inst)).unwrap();
        assert_eq!(back.status("fast_task"), &NodeStatus::Pending);
        assert_eq!(back.ready_nodes(), vec!["fast_task"], "will be resubmitted");
    }

    #[test]
    fn completed_workflow_stays_completed() {
        let mut inst = fresh();
        inst.mark_running("fast_task");
        inst.settle("fast_task", NodeStatus::Done);
        inst.mark_running("join_task");
        inst.settle("join_task", NodeStatus::Done);
        assert!(inst.is_finished());
        let back = from_xml(&to_xml(&inst)).unwrap();
        assert!(back.is_finished());
        assert_eq!(back.outcome(), inst.outcome());
        assert_eq!(back.status("slow_task"), &NodeStatus::Skipped);
    }

    #[test]
    fn runs_and_vars_roundtrip() {
        let mut inst = fresh();
        inst.set_var("x", Value::Num(2.5));
        inst.set_var("s", Value::Str("hello".into()));
        inst.set_var("b", Value::Bool(true));
        inst.mark_running("fast_task");
        inst.settle("fast_task", NodeStatus::Done);
        let back = from_xml(&to_xml(&inst)).unwrap();
        assert_eq!(back.runs("fast_task"), 1);
        assert_eq!(back.var("x"), Some(&Value::Num(2.5)));
        assert_eq!(back.var("s"), Some(&Value::Str("hello".into())));
        assert_eq!(back.var("b"), Some(&Value::Bool(true)));
    }

    #[test]
    fn exception_status_roundtrips_with_name() {
        let mut inst = fresh();
        inst.mark_running("fast_task");
        inst.settle("fast_task", NodeStatus::Exception("disk_full".into()));
        let back = from_xml(&to_xml(&inst)).unwrap();
        assert_eq!(
            back.status("fast_task"),
            &NodeStatus::Exception("disk_full".into())
        );
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join("gridwfs-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.ckpt.xml");
        let mut inst = fresh();
        inst.mark_running("fast_task");
        inst.settle("fast_task", NodeStatus::Failed);
        save(&inst, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.status("fast_task"), &NodeStatus::Failed);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn foreach_instance() -> Instance {
        let mut w = Workflow::new("mapred");
        w.programs.push(Program::new("p", 10.0, "h1").option("h2"));
        let mut m = Activity::new("map", "p");
        let mut f = ForeachSpec::new(vec!["s0".into(), "s1".into(), "s2".into()]);
        f.max_attempts = 2;
        m.foreach = Some(f);
        w.activities.push(m);
        w.activities.push(Activity::new("reduce", "p"));
        w.transitions.push(Transition::new("map", "reduce"));
        Instance::new(validate(w).unwrap())
    }

    #[test]
    fn foreach_item_progress_roundtrips() {
        let mut inst = foreach_instance();
        inst.mark_running("map");
        inst.force_item(
            "map",
            0,
            ItemProgress {
                state: ItemState::Done,
                attempts: 1,
                ..Default::default()
            },
        );
        inst.force_item(
            "map",
            1,
            ItemProgress {
                state: ItemState::DeadLettered,
                attempts: 4,
                failover: true,
                reprocess: false,
                reason: "crashed".into(),
            },
        );
        // Item 2 still pending with a banked attempt.
        inst.force_item(
            "map",
            2,
            ItemProgress {
                attempts: 1,
                ..Default::default()
            },
        );
        let back = from_xml(&to_xml(&inst)).unwrap();
        let items = back.items("map").unwrap();
        assert_eq!(items[0].state, ItemState::Done);
        assert_eq!(items[0].attempts, 1);
        assert_eq!(items[1].state, ItemState::DeadLettered);
        assert_eq!(items[1].attempts, 4);
        assert!(items[1].failover);
        assert_eq!(items[1].reason, "crashed");
        assert_eq!(items[2].state, ItemState::Pending);
        assert_eq!(items[2].attempts, 1, "banked attempt survives");
        assert_eq!(
            back.status("map"),
            &NodeStatus::Pending,
            "running saved as pending"
        );
    }

    #[test]
    fn reset_dead_letters_flips_only_dlq_items() {
        let mut inst = foreach_instance();
        inst.mark_running("map");
        inst.force_item(
            "map",
            0,
            ItemProgress {
                state: ItemState::Done,
                attempts: 1,
                ..Default::default()
            },
        );
        inst.force_item(
            "map",
            1,
            ItemProgress {
                state: ItemState::DeadLettered,
                attempts: 4,
                failover: true,
                reprocess: false,
                reason: "crashed".into(),
            },
        );
        inst.force_item(
            "map",
            2,
            ItemProgress {
                state: ItemState::Done,
                attempts: 2,
                ..Default::default()
            },
        );
        inst.settle("map", NodeStatus::Done);
        inst.mark_running("reduce");
        inst.settle("reduce", NodeStatus::Done);
        assert!(inst.is_finished());

        let (text, reset) = reset_dead_letters(&to_xml(&inst)).unwrap();
        assert_eq!(reset, 1);
        let back = from_xml(&text).unwrap();
        let items = back.items("map").unwrap();
        assert_eq!(items[0].state, ItemState::Done, "settled item untouched");
        assert_eq!(items[1].state, ItemState::Pending);
        assert_eq!(items[1].attempts, 0, "fresh budget");
        assert!(!items[1].failover);
        assert!(items[1].reprocess, "marked for the reprocess trace event");
        assert_eq!(items[2].state, ItemState::Done);
        assert_eq!(back.status("map"), &NodeStatus::Pending, "will re-run");
        assert_eq!(
            back.status("reduce"),
            &NodeStatus::Done,
            "downstream stays settled"
        );
        assert_eq!(back.ready_nodes(), vec!["map"], "only the foreach re-runs");

        // Idempotent on a DLQ-free checkpoint.
        let (text2, reset2) = reset_dead_letters(&text).unwrap();
        assert_eq!(reset2, 0);
        assert_eq!(text2, text);
    }

    #[test]
    fn malformed_item_entries_rejected() {
        let mut inst = foreach_instance();
        inst.mark_running("map");
        let text = to_xml(&inst);
        let evil = text.replace("index='2'", "index='9'");
        assert!(from_xml(&evil)
            .unwrap_err()
            .to_string()
            .contains("unknown foreach item"));
        let evil = text.replace("state='pending'", "state='levitating'");
        assert!(from_xml(&evil)
            .unwrap_err()
            .to_string()
            .contains("bad item state"));
    }

    #[test]
    fn malformed_checkpoints_rejected() {
        assert!(from_xml("<nope/>").is_err());
        assert!(from_xml("<EngineCheckpoint/>").is_err());
        assert!(from_xml("<EngineCheckpoint><Workflow/></EngineCheckpoint>").is_err());
        let err = from_xml(
            "<EngineCheckpoint><Workflow><Activity name='a'/></Workflow>\
             <Runtime><Node name='ghost' status='done'/></Runtime></EngineCheckpoint>",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown activity 'ghost'"),
            "{err}"
        );
        let err = from_xml(
            "<EngineCheckpoint><Workflow><Activity name='a'/></Workflow>\
             <Runtime><Node name='a' status='levitating'/></Runtime></EngineCheckpoint>",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown node status"), "{err}");
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/nowhere.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}

//! The checkpoint codec as the engine drives it: one document per
//! settlement through a [`CheckpointSink`] (or one on demand behind a
//! deferred sink), across a crash, a resume and a `dlq retry` rewrite.
//! The encoder renders the `<Workflow>` part once per instance and reuses
//! it, so what must hold is that no path — a resumed engine, a reset
//! document — can ever hand out a stale or foreign one.
//! (Byte identity with the reference encoder is unit-tested next to it in
//! `checkpoint.rs`.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use grid_wfs::checkpoint;
use grid_wfs::engine::{CheckpointSink, Engine, EngineConfig, StepOutcome};
use grid_wfs::sim_executor::SimGrid;
use gridwfs_sim::resource::ResourceSpec;
use gridwfs_wpdl::ast::ForeachSpec;
use gridwfs_wpdl::builder::WorkflowBuilder;
use gridwfs_wpdl::validate::Validated;

/// `prepare` → `map` (foreach, dead-letters on the dead primary) → `reduce`,
/// with names that need escaping so the cached part is not trivially inert.
fn workflow() -> Validated {
    let mut spec = ForeachSpec::new((0..4).map(|i| format!("shard <{i}>")).collect());
    spec.max_attempts = 2;
    let mut b = WorkflowBuilder::new("codec & 'cache'")
        .program("p", 4.0, &["h"])
        .program("alt", 2.0, &["alt.host"]);
    b.activity("prepare", "alt");
    b.activity("map", "p").foreach(spec);
    b.activity("reduce", "alt");
    b.edge("prepare", "map")
        .edge("map", "reduce")
        .build()
        .expect("validates")
}

fn grid(seed: u64, primary_up: bool) -> SimGrid {
    let mut g = SimGrid::new(seed);
    if primary_up {
        g.add_host(ResourceSpec::reliable("h"));
    }
    g.add_host(ResourceSpec::reliable("alt.host"));
    g
}

/// A sink that keeps every document it is handed.
fn collecting_sink() -> (CheckpointSink, Arc<Mutex<Vec<String>>>) {
    let docs = Arc::new(Mutex::new(Vec::new()));
    let into = Arc::clone(&docs);
    let sink = CheckpointSink::new(move |xml: String| {
        into.lock().unwrap().push(xml);
        Ok(())
    });
    (sink, docs)
}

fn workflow_part(doc: &str) -> &str {
    let from = doc.find("  <Workflow").expect("has a <Workflow>");
    let to = doc.find("  <Runtime").expect("has a <Runtime>");
    &doc[from..to]
}

fn drain(docs: &Mutex<Vec<String>>) -> Vec<String> {
    std::mem::take(&mut *docs.lock().unwrap())
}

#[test]
fn every_incarnation_hands_the_sink_the_same_workflow_part() {
    // Incarnation 1 dies after two settlements, every item dead-lettering.
    let (sink, docs) = collecting_sink();
    let first = Engine::new(workflow(), grid(3, false))
        .with_config(EngineConfig {
            max_settlements: Some(2),
            ..EngineConfig::default()
        })
        .with_checkpoint_sink(sink)
        .run();
    assert_eq!(first.aborted.as_deref(), Some("max_settlements"));
    let first_docs = drain(&docs);
    assert!(first_docs.len() >= 2, "one document per settlement");
    let part = workflow_part(&first_docs[0]).to_string();
    assert!(
        part.contains("name='codec &amp; &apos;cache&apos;'"),
        "{part}"
    );

    // Incarnation 2 resumes from the last document and runs to the end.
    let last = first_docs.last().unwrap().clone();
    let (sink, docs) = collecting_sink();
    let resumed = Engine::from_instance(checkpoint::from_xml(&last).unwrap(), grid(4, false))
        .with_checkpoint_sink(sink)
        .run();
    assert_eq!(resumed.dlq.len(), 4, "the primary host is still dead");
    let second_docs = drain(&docs);
    assert!(!second_docs.is_empty());

    // `dlq retry` rewrites the final document; incarnation 3 finishes it.
    let (reset, n) = checkpoint::reset_dead_letters(second_docs.last().unwrap()).unwrap();
    assert_eq!(n, 4);
    let (sink, docs) = collecting_sink();
    let third = Engine::from_instance(checkpoint::from_xml(&reset).unwrap(), grid(5, true))
        .with_checkpoint_sink(sink)
        .run();
    assert!(third.is_success(), "{:?}", third.outcome);
    let third_docs = drain(&docs);

    let all = first_docs
        .iter()
        .chain(&second_docs)
        .chain(std::iter::once(&reset))
        .chain(&third_docs);
    let mut distinct = std::collections::BTreeSet::new();
    for doc in all {
        assert_eq!(workflow_part(doc), part, "workflow part drifted:\n{doc}");
        // What the sink got is what a fresh, cache-less decode re-encodes to.
        let back = checkpoint::from_xml(doc).unwrap();
        assert_eq!(&checkpoint::to_xml(&back), doc);
        assert_eq!(doc.capacity(), doc.len(), "document allocated with padding");
        distinct.insert(doc.as_str());
    }
    // The runtime part did move: the documents are not one string repeated.
    assert!(
        distinct.len() >= 6,
        "only {} distinct documents",
        distinct.len()
    );
    let done = checkpoint::from_xml(third_docs.last().unwrap()).unwrap();
    assert!(done.is_finished());
}

#[test]
fn a_clone_taken_mid_run_keeps_encoding_its_own_state() {
    let (sink, docs) = collecting_sink();
    Engine::new(workflow(), grid(6, true))
        .with_config(EngineConfig {
            max_settlements: Some(3),
            ..EngineConfig::default()
        })
        .with_checkpoint_sink(sink)
        .run();
    let doc = drain(&docs).pop().unwrap();
    let mid = checkpoint::from_xml(&doc).unwrap();
    assert_eq!(checkpoint::to_xml(&mid), doc); // `mid` now holds its fragment
    let frozen = mid.clone();
    let finished = Engine::from_instance(mid, grid(7, true)).run();
    assert!(finished.is_success(), "{:?}", finished.outcome);
    assert_eq!(
        checkpoint::to_xml(&frozen),
        doc,
        "the clone moved with the original"
    );
}

/// A deferred sink is offered the instance at exactly the checkpoints an
/// eager one encodes, and encodes nothing itself; `Engine::checkpoint_xml`
/// encodes on demand, and once the run has finished it is the eager
/// sink's last document.
#[test]
fn a_deferred_sink_is_offered_every_checkpoint_and_encodes_on_demand() {
    let (eager, docs) = collecting_sink();
    Engine::new(workflow(), grid(8, false))
        .with_checkpoint_sink(eager)
        .run();
    let docs = drain(&docs);
    let offered = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&offered);
    let mut engine = Engine::new(workflow(), grid(8, false)).with_checkpoint_sink(
        CheckpointSink::deferred(move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }),
    );
    while !matches!(engine.step(), StepOutcome::Finished(_)) {}
    assert!(docs.len() >= 6, "one document per settlement");
    assert_eq!(offered.load(Ordering::Relaxed), docs.len());
    assert_eq!(engine.checkpoint_xml(), *docs.last().unwrap());
}

//! Engine navigation throughput: complete workflow executions per second
//! on the simulated Grid, across the DAG shapes the paper's figures use.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use grid_wfs::engine::Engine;
use grid_wfs::sim_executor::{SimGrid, TaskProfile};
use gridwfs_sim::dist::Dist;
use gridwfs_sim::resource::ResourceSpec;
use gridwfs_wpdl::builder::{figure4, figure5, figure6, WorkflowBuilder};
use gridwfs_wpdl::validate::{validate, Validated};
use std::hint::black_box;

fn chain(n: usize) -> Validated {
    let mut b = WorkflowBuilder::new("chain").program("p", 5.0, &["h"]);
    for i in 0..n {
        b.activity(format!("t{i}"), "p");
    }
    for i in 0..n - 1 {
        b = b.edge(&format!("t{i}"), &format!("t{}", i + 1));
    }
    b.build().unwrap()
}

fn fanout(n: usize) -> Validated {
    let mut b = WorkflowBuilder::new("fanout").program("p", 5.0, &["h"]);
    b.dummy("split");
    b.dummy("join");
    for i in 0..n {
        b.activity(format!("t{i}"), "p");
        b = b
            .edge("split", &format!("t{i}"))
            .edge(&format!("t{i}"), "join");
    }
    b.build().unwrap()
}

fn grid(seed: u64) -> SimGrid {
    let mut g = SimGrid::new(seed);
    g.add_host(ResourceSpec::reliable("h"));
    g.add_host(ResourceSpec::reliable("volunteer.example.org"));
    g.add_host(ResourceSpec::reliable("condor.example.org"));
    g
}

fn bench_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_run");
    for &n in &[4usize, 16, 64] {
        let wf = chain(n);
        g.bench_with_input(BenchmarkId::new("chain", n), &wf, |b, wf| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let report = Engine::new(wf.clone(), grid(seed)).run();
                black_box(report.is_success())
            });
        });
        let wf = fanout(n);
        g.bench_with_input(BenchmarkId::new("fanout", n), &wf, |b, wf| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let report = Engine::new(wf.clone(), grid(seed)).run();
                black_box(report.is_success())
            });
        });
    }
    g.finish();
}

fn bench_recovery_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_recovery");
    // Figure 4 with a crashing fast task: alternative-task machinery.
    g.bench_function("figure4_with_failure", |b| {
        let wf = validate(figure4(30.0, 150.0)).unwrap();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut gr = grid(seed);
            gr.set_profile(
                "fast_impl",
                TaskProfile::reliable().with_soft_crash(Dist::constant(3.0)),
            );
            black_box(Engine::new(wf.clone(), gr).run().is_success())
        });
    });
    // Figure 5: parallel redundancy.
    g.bench_function("figure5_redundancy", |b| {
        let wf = validate(figure5(30.0, 150.0)).unwrap();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(Engine::new(wf.clone(), grid(seed)).run().is_success())
        });
    });
    // Figure 6: exception routing.
    g.bench_function("figure6_exception", |b| {
        let wf = validate(figure6(30.0, 150.0)).unwrap();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut gr = grid(seed);
            gr.set_profile(
                "fast_impl",
                TaskProfile::reliable().with_exception("disk_full", 5, 1.0),
            );
            black_box(Engine::new(wf.clone(), gr).run().is_success())
        });
    });
    // Retry with checkpoint resume: the §4.3 path.
    g.bench_function("checkpoint_resume_retry", |b| {
        let mut builder = WorkflowBuilder::new("ck").program("p", 10.0, &["h"]);
        builder.activity("a", "p").retry(5, 0.0);
        let wf = builder.build().unwrap();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut gr = grid(seed);
            gr.set_profile(
                "p",
                TaskProfile::reliable()
                    .with_checkpoints(2.0)
                    .with_soft_crash(Dist::constant(5.0)),
            );
            black_box(Engine::new(wf.clone(), gr).run().is_success())
        });
    });
    g.finish();
}

/// A finished run of a recovery-shaped workflow, as its last checkpoint
/// decodes: 13 activities — retrying, replicated, an alternative pair, a
/// handled exception edge — and one foreach whose eight items all
/// dead-lettered (their only host is not on the grid).  Freshly decoded, so
/// nothing about it has been encoded yet.
fn recovery_instance() -> grid_wfs::instance::Instance {
    use grid_wfs::engine::CheckpointSink;
    use gridwfs_wpdl::ast::ForeachSpec;
    use std::sync::{Arc, Mutex};

    let mut spec = ForeachSpec::new((0..8).map(|i| format!("shard-{i}")).collect());
    spec.max_attempts = 2;
    let mut b = WorkflowBuilder::new("recovery")
        .exception("disk_full", false)
        .program("p", 5.0, &["h"])
        .program(
            "rep",
            5.0,
            &["h", "volunteer.example.org", "condor.example.org"],
        )
        .program("gone", 5.0, &["unplugged.example.org"]);
    b.dummy("split");
    b.activity("retry", "p").retry(3, 1.0);
    b.activity("replica", "rep").replicate();
    b.activity("primary", "gone");
    b.activity("alternative", "p");
    b.activity("risky", "p");
    b.activity("handler", "p");
    b.activity("map", "gone").foreach(spec);
    b.dummy("join");
    b.activity("reduce", "p");
    for i in 0..3 {
        b.activity(format!("post{i}"), "p");
    }
    let wf = b
        .edge("split", "retry")
        .edge("split", "replica")
        .edge("split", "primary")
        .edge("split", "risky")
        .edge("split", "map")
        .on_failure("primary", "alternative")
        .on_exception("risky", "disk_full", "handler")
        .edge("retry", "join")
        .edge("replica", "join")
        .edge("alternative", "join")
        .edge("map", "join")
        .edge("join", "reduce")
        .edge("reduce", "post0")
        .edge("post0", "post1")
        .edge("post1", "post2")
        .build()
        .unwrap();

    let last = Arc::new(Mutex::new(None));
    let into = Arc::clone(&last);
    let report = Engine::new(wf, grid(1))
        .with_checkpoint_sink(CheckpointSink::new(move |xml: String| {
            *into.lock().unwrap() = Some(xml);
            Ok(())
        }))
        .run();
    assert_eq!(report.dlq.len(), 8, "every map item dead-letters");
    let doc = last.lock().unwrap().take().expect("the run checkpointed");
    grid_wfs::checkpoint::from_xml(&doc).unwrap()
}

fn bench_checkpointing(c: &mut Criterion) {
    // Engine checkpointing runs after *every* task termination (§7), so
    // serialisation cost is paid once per task event: measure it per
    // workflow size.  `to_xml` is an instance's first encode, which also
    // renders its `<Workflow>` part; `to_xml_repeat` is every later one —
    // what the engine pays per settlement from the second on.
    use grid_wfs::checkpoint;
    use grid_wfs::instance::{Instance, NodeStatus};
    let mut g = c.benchmark_group("engine_checkpoint");
    let mut cases: Vec<(String, Instance)> = Vec::new();
    for &n in &[8usize, 64, 256] {
        let mut inst = Instance::new(chain(n));
        // Settle half the chain so the checkpoint carries real progress.
        for _ in 0..n / 2 {
            let ready = inst.ready_nodes();
            inst.mark_running(&ready[0]);
            inst.settle(&ready[0], NodeStatus::Done);
        }
        cases.push((n.to_string(), inst));
    }
    cases.push(("recovery".to_string(), recovery_instance()));
    for (id, inst) in &cases {
        // `inst` itself is never encoded, so each clone starts cold.
        g.bench_with_input(BenchmarkId::new("to_xml", id), inst, |b, inst| {
            b.iter_batched_ref(
                || inst.clone(),
                |cold| black_box(checkpoint::to_xml(cold)),
                BatchSize::SmallInput,
            );
        });
        let warm = inst.clone();
        let text = checkpoint::to_xml(&warm);
        g.bench_with_input(BenchmarkId::new("to_xml_repeat", id), &warm, |b, warm| {
            b.iter(|| black_box(checkpoint::to_xml(warm)));
        });
        g.bench_with_input(BenchmarkId::new("from_xml", id), &text, |b, text| {
            b.iter(|| black_box(checkpoint::from_xml(text).unwrap()));
        });
    }
    g.finish();
}

fn bench_timeline(c: &mut Criterion) {
    let wf = fanout(32);
    let report = Engine::new(wf, grid(1)).run();
    c.bench_function("timeline_render_64_attempts", |b| {
        b.iter(|| black_box(report.timeline(80)));
    });
}

criterion_group!(
    benches,
    bench_shapes,
    bench_recovery_paths,
    bench_checkpointing,
    bench_timeline
);
criterion_main!(benches);

//! The paper's motivating application (§1): a heterogeneous multi-task
//! pipeline where every task has its own failure semantics.
//!
//! * `mesh_gen` — cheap, reliable preprocessing.
//! * `solver` — the §2.3 scenario: a fast in-memory algorithm that can die
//!   with an `out_of_memory` user-defined exception, with a slower
//!   disk-based algorithm declared as its exception handler ("try an
//!   alternative task using the second algorithm rather than retrying the
//!   same task").
//! * `visualize` — runs on donated desktop cycles, so it is replicated
//!   across three volunteer machines (§4.2) and each replica may retry.
//! * `publish` — cleanup/archival step that must run whatever happened
//!   upstream succeeded (AND-join on the solver result + visualization).
//!
//! The placements are written into the workflow: the solver on the fast
//! large-memory host, the render replicas on the three volunteers, most
//! available first.
//!
//! ```text
//! cargo run --example linear_solver_pipeline
//! ```

use gridwfs::core::{Engine, SimGrid, TaskProfile};
use gridwfs::sim::resource::ResourceSpec;
use gridwfs::wpdl::WorkflowBuilder;

fn main() {
    // Failure-handling policy, declared entirely in workflow structure.
    let mut b = WorkflowBuilder::new("linear-solver-pipeline")
        .exception("out_of_memory", true) // fatal: retrying cannot help
        .program("mesh_gen", 10.0, &["cluster.isi.edu"])
        .program("solver_fast", 30.0, &["bigmem.isi.edu"])
        .program("solver_disk", 120.0, &["cluster.isi.edu"])
        .program(
            "render",
            40.0,
            &["vol3.example.org", "vol2.example.org", "vol1.example.org"],
        )
        .program("publish", 5.0, &["archive.isi.edu"]);
    b.activity("mesh", "mesh_gen");
    b.activity("solve_fast", "solver_fast");
    b.activity("solve_disk", "solver_disk").retry(3, 5.0); // alternative algorithm, itself retried
    b.dummy("solved").or_join();
    b.activity("visualize", "render").replicate().retry(2, 5.0);
    b.activity("publish", "publish");
    let workflow = b
        .edge("mesh", "solve_fast")
        .edge("solve_fast", "solved")
        .on_exception("solve_fast", "out_of_memory", "solve_disk")
        .edge("solve_disk", "solved")
        .edge("solved", "visualize")
        .edge("visualize", "publish")
        .build()
        .expect("pipeline validates");

    // Simulated Grid with failure injection: the fast solver hits
    // out_of_memory, the volunteers crash occasionally.
    let mut grid = SimGrid::new(42);
    grid.add_host(ResourceSpec::unreliable("cluster.isi.edu", 500.0, 5.0));
    grid.add_host(ResourceSpec::unreliable("bigmem.isi.edu", 200.0, 10.0).with_speed(2.0));
    grid.add_host(ResourceSpec::reliable("archive.isi.edu"));
    grid.add_host(ResourceSpec::unreliable("vol1.example.org", 40.0, 60.0).with_speed(1.5));
    grid.add_host(ResourceSpec::unreliable("vol2.example.org", 60.0, 30.0).with_speed(1.2));
    grid.add_host(ResourceSpec::unreliable("vol3.example.org", 90.0, 20.0).with_speed(0.8));
    grid.set_profile(
        "solver_fast",
        TaskProfile::reliable().with_exception("out_of_memory", 3, 0.8),
    );

    let report = Engine::new(workflow, grid).run();
    println!("outcome:  {:?}", report.outcome);
    println!("makespan: {:.2} time units\n", report.makespan);
    println!("final states:");
    for (name, status) in &report.node_status {
        println!("  {name:<12} {status}");
    }
    println!("\n{}", report.timeline(72));
    println!("key recovery events:");
    for e in report.log.iter().filter(|e| {
        matches!(
            e.kind,
            gridwfs::core::LogKind::Detect | gridwfs::core::LogKind::Recovery
        )
    }) {
        println!("  [{:>8.2}] {}", e.at, e.message);
    }
}

//! Fault tolerance of the engine itself (§7): "every time a task
//! termination state is recognized, the engine saves the current XML parse
//! tree onto a persistent storage in a XML file form.  So, when being
//! restarted, the engine creates a parse tree from the saved XML file ...
//! and begins navigation from where it left off."
//!
//! This example runs a three-stage pipeline whose middle task's host is
//! partitioned away, so the first engine run records stage 1's completion
//! and then dies with the workflow unfinished (we simulate the engine host
//! being rebooted by just dropping the engine).  A second engine process
//! restores from the checkpoint file, does NOT rerun stage 1, and finishes
//! stages 2 and 3 on a repaired Grid.
//!
//! ```text
//! cargo run --example engine_restart
//! ```

use gridwfs::core::checkpoint;
use gridwfs::core::{Engine, SimGrid};
use gridwfs::sim::resource::ResourceSpec;
use gridwfs::wpdl::validate::Validated;
use gridwfs::wpdl::WorkflowBuilder;

fn pipeline() -> Validated {
    let mut b = WorkflowBuilder::new("restartable-pipeline")
        .program("ingest", 20.0, &["ingest.isi.edu"])
        .program("transform", 40.0, &["compute.isi.edu"])
        .program("archive", 10.0, &["archive.isi.edu"]);
    b.activity("ingest", "ingest");
    b.activity("transform", "transform");
    b.activity("archive", "archive");
    b.edge("ingest", "transform")
        .edge("transform", "archive")
        .build()
        .expect("pipeline validates")
}

fn main() {
    let dir = std::env::temp_dir().join(format!("gridwfs-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("engine-checkpoint.xml");

    // ---- first engine incarnation: compute.isi.edu is gone -------------
    println!("run 1: compute.isi.edu is partitioned away");
    let mut grid = SimGrid::new(1);
    grid.add_host(ResourceSpec::reliable("ingest.isi.edu"));
    grid.add_host(ResourceSpec::reliable("archive.isi.edu"));
    // compute.isi.edu intentionally not registered: submissions bounce.
    let report = Engine::new(pipeline(), grid)
        .with_checkpointing(&ckpt)
        .run();
    println!("  outcome: {:?}", report.outcome);
    for (name, status) in &report.node_status {
        println!("    {name:<10} {status}");
    }
    println!("  checkpoint saved to {}\n", ckpt.display());

    // ---- the operator repairs the workflow state -----------------------
    // transform settled as failed; flip it (and its downstream skip) back
    // to pending in the checkpoint, with the edge its failure killed
    // (`<Runtime edges='fd'>`: ingest -> transform fired, transform ->
    // archive dead) — the manual "fix and resume" workflow the XML file
    // format makes possible.
    let text = std::fs::read_to_string(&ckpt).expect("checkpoint readable");
    let repaired = text
        .replace("status='failed'", "status='pending'")
        .replace("status='skipped'", "status='pending'")
        .replace("edges='fd'", "edges='fp'");
    std::fs::write(&ckpt, repaired).expect("checkpoint writable");
    println!("operator reset failed/skipped nodes to pending in the XML\n");

    // ---- second engine incarnation: restored, Grid repaired ------------
    println!("run 2: restored from checkpoint; compute.isi.edu is back");
    let restored = checkpoint::load(&ckpt).expect("checkpoint loads");
    println!(
        "  restored state: ingest={}, transform={}, archive={}",
        restored.status("ingest").as_expr_str(),
        restored.status("transform").as_expr_str(),
        restored.status("archive").as_expr_str(),
    );
    let mut grid2 = SimGrid::new(2);
    grid2.add_host(ResourceSpec::reliable("ingest.isi.edu"));
    grid2.add_host(ResourceSpec::reliable("compute.isi.edu"));
    grid2.add_host(ResourceSpec::reliable("archive.isi.edu"));
    let report2 = Engine::from_instance(restored, grid2)
        .with_checkpointing(&ckpt)
        .run();
    println!("  outcome: {:?}", report2.outcome);
    println!(
        "  ingest resubmitted? {} (completion was reused from the checkpoint)",
        if report2.submissions_of("ingest") == 0 {
            "no"
        } else {
            "yes"
        }
    );
    println!(
        "  makespan of the resumed run: {:.1} (transform 40 + archive 10, no ingest 20)",
        report2.makespan
    );

    assert!(report2.is_success());
    assert_eq!(report2.submissions_of("ingest"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

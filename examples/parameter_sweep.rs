//! The quintessential early-Grid workload: a parameter-sweep campaign.
//!
//! Fifty independent simulation points fan out across a heterogeneous pool
//! — two reliable cluster nodes and six donated desktops (§2.1's
//! heterogeneity) — each point retried with exponential backoff, the
//! aggregation stage gated on an AND-join over all of them.  The run
//! report answers the questions a campaign operator actually asks: did it
//! finish, how long did it take, how many attempts were burned, and which
//! hosts did the work.
//!
//! ```text
//! cargo run --release --example parameter_sweep
//! ```

use gridwfs::core::{Engine, EngineConfig, SimGrid, SpanOutcome};
use gridwfs::sim::resource::ResourceSpec;
use gridwfs::wpdl::WorkflowBuilder;

const POINTS: usize = 50;

fn main() {
    // Host pool: point tasks cycle through all eight options on retry.
    let pool = [
        "node1.cluster.org",
        "node2.cluster.org",
        "desk1.example.org",
        "desk2.example.org",
        "desk3.example.org",
        "desk4.example.org",
        "desk5.example.org",
        "desk6.example.org",
    ];
    // One program per point with a rotated host list: retrying cycles
    // through the pool starting from a point-specific host, spreading the
    // initial placement the way a broker would.
    let mut b = WorkflowBuilder::new("sweep-campaign");
    for i in 0..POINTS {
        let rotated: Vec<&str> = (0..pool.len())
            .map(|k| pool[(i + k) % pool.len()])
            .collect();
        b = b.program(format!("simulate{i:02}"), 25.0, &rotated);
    }
    b = b.program("aggregate", 10.0, &["node1.cluster.org"]);
    b.dummy("start");
    for i in 0..POINTS {
        b.activity(format!("point{i:02}"), format!("simulate{i:02}"))
            .retry(8, 2.0)
            .backoff(1.5)
            .heartbeat(1.0, 10.0);
    }
    b.activity("aggregate", "aggregate");
    for i in 0..POINTS {
        let name = format!("point{i:02}");
        b = b.edge("start", &name).edge(&name, "aggregate");
    }
    let workflow = b.build().expect("campaign validates");

    // The Grid: cluster nodes are solid; desktops fail constantly and
    // reboot slowly (MTTF comparable to the task length).
    let mut grid = SimGrid::new(1977);
    grid.add_host(ResourceSpec::unreliable("node1.cluster.org", 2000.0, 5.0).with_speed(1.0));
    grid.add_host(ResourceSpec::unreliable("node2.cluster.org", 1500.0, 5.0).with_speed(1.0));
    for (i, host) in pool.iter().skip(2).enumerate() {
        grid.add_host(
            ResourceSpec::unreliable(*host, 30.0 + 10.0 * i as f64, 20.0)
                .with_speed(1.2 + 0.1 * i as f64),
        );
    }

    let report = Engine::new(workflow, grid)
        .with_config(EngineConfig::default())
        .run();

    println!("campaign outcome: {:?}", report.outcome);
    println!("makespan:         {:.1} time units", report.makespan);
    let attempts = report.spans.len();
    let crashes = report
        .spans
        .iter()
        .filter(|s| s.outcome == SpanOutcome::Crashed)
        .count();
    println!(
        "attempts:         {attempts} for {} tasks ({crashes} crashes recovered)",
        POINTS + 1
    );
    println!("\nhost utilization (busy time):");
    for (host, busy) in report.host_utilization() {
        let bar = "#".repeat((busy / 25.0).round() as usize);
        println!("  {host:<22} {busy:>8.1}  {bar}");
    }
    let done = report
        .node_status
        .iter()
        .filter(|(n, s)| n.starts_with("point") && s == "done")
        .count();
    println!("\npoints completed: {done}/{POINTS}");
    assert!(
        report.is_success(),
        "the retry budget should carry the campaign"
    );
}

//! Pre-emptive re-replication end-to-end: under the φ-accrual detector
//! with a threshold above the scorer's `rereplicate_phi`, a replica whose
//! heartbeats go quiet is moved off its host before the presumption
//! fires.  The journal shows the move with the φ that triggered it, the
//! per-slot budget holds, and the replacement attempt is submitted to the
//! host the move named.

use grid_wfs::engine::{Engine, EngineConfig, Report};
use grid_wfs::hosts::{MAX_REREPLICATIONS, REREPLICATE_PHI};
use grid_wfs::sim_executor::SimGrid;
use grid_wfs::{DetectorPolicy, PhiConfig, SchedulerPolicy, TraceKind};
use gridwfs_sim::net::LinkModel;
use gridwfs_sim::resource::ResourceSpec;
use gridwfs_wpdl::builder::WorkflowBuilder;

/// The seed of the pinned run (found once by scanning seeds for a journal
/// that re-replicates, then fixed).
const SEED: u64 = 12;

/// Three retried activities on volunteer hosts behind a lossy link, with
/// a reliable fallback host on a clean one.  φ threshold 10 sits
/// well above the scorer's `REREPLICATE_PHI` of 4, so a long
/// heartbeat gap moves a replica before it is presumed dead.
fn run(seed: u64) -> Report {
    let mut b = WorkflowBuilder::new("rereplicate")
        .program("p", 30.0, &["v1", "v2", "safe"])
        .program("q", 20.0, &["v2", "v1", "safe"]);
    b.activity("a", "p").retry(3, 0.5).heartbeat(1.0, 3.0);
    b.activity("b", "q").retry(3, 0.5).heartbeat(1.0, 3.0);
    b.activity("c", "p").retry(3, 0.5).heartbeat(1.0, 3.0);
    let wf = b.edge("a", "c").build().expect("test workflow validates");
    let mut grid = SimGrid::new(seed)
        .with_host_link("v1", LinkModel::lossy(0.05, 0.3))
        .with_host_link("v2", LinkModel::lossy(0.05, 0.3));
    grid.add_host(ResourceSpec::unreliable("v1", 60.0, 30.0));
    grid.add_host(ResourceSpec::unreliable("v2", 60.0, 30.0));
    grid.add_host(ResourceSpec::reliable("safe"));
    let config = EngineConfig {
        detector: DetectorPolicy::PhiAccrual(PhiConfig::with_threshold(10.0)),
        scheduler: SchedulerPolicy::Resilient(Vec::new()),
        ..EngineConfig::default()
    };
    Engine::new(wf, grid).with_config(config).run()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn a_suspected_replica_moves_before_presumption_and_its_replacement_lands_on_the_named_host() {
    let report = run(SEED);
    assert!(report.is_success(), "the fallback host finishes every lane");
    let mut moves: std::collections::HashMap<(String, usize), u32> = Default::default();
    for (i, e) in report.trace.iter().enumerate() {
        let TraceKind::Rereplicate {
            activity,
            slot,
            from,
            to,
            phi,
        } = &e.kind
        else {
            continue;
        };
        assert!(
            *phi >= REREPLICATE_PHI,
            "move at phi {phi} below {REREPLICATE_PHI}"
        );
        assert_ne!(from, to, "a move leaves the suspected host");
        let n = moves.entry((activity.clone(), *slot)).or_insert(0);
        *n += 1;
        assert!(
            *n <= MAX_REREPLICATIONS,
            "{activity}[{slot}] moved {n} times"
        );
        let next = report.trace[i + 1..]
            .iter()
            .find_map(|later| match &later.kind {
                TraceKind::TaskSubmitted {
                    activity: a,
                    slot: s,
                    host,
                    ..
                } if a == activity && s == slot => Some(host),
                _ => None,
            })
            .expect("a move resubmits its slot");
        assert_eq!(
            next, to,
            "{activity}[{slot}] resubmitted off the named host"
        );
    }
    assert!(
        moves.values().sum::<u32>() >= 1,
        "the pinned seed re-replicates"
    );
    assert_eq!(
        format!("{:016x}", fnv1a(report.trace_jsonl().as_bytes())),
        "73366c7c17794ebd",
        "journal digest"
    );
}

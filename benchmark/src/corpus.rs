//! The seeded job corpora.  A corpus is a pool of distinct submissions; a
//! phase that needs more jobs than the pool holds walks it round and
//! round, so the reference outcome is computed once per pool entry.
//!
//! Everything is built in code: WPDL text by `format!`, virtual-time
//! grids by `GridSpec::virtual_grid()` — never paced mode, never a JSON
//! grid config — so no third-party crate runs on a measured path.

use gridwfs_serve::{DetectorSpec, GridSpec, LinkSpec, ProfileSpec, SchedulerSpec, Submission};

use crate::util::Rng;

/// loadgen's canonical load unit: `stage_in → compute → stage_out`, one
/// nominal time unit each, on one reliable host.
pub fn chain(seed: u64, n: usize) -> Vec<Submission> {
    let grid = GridSpec::virtual_grid().with_host("local", 1.0);
    (0..n)
        .map(|i| Submission {
            name: format!("load-{i}"),
            workflow_xml: format!(
                "<?xml version='1.0'?>\n\
                 <Workflow name='load-{i}'>\n  \
                   <Activity name='stage_in'><Implement>p</Implement></Activity>\n  \
                   <Activity name='compute'><Implement>p</Implement></Activity>\n  \
                   <Activity name='stage_out'><Implement>p</Implement></Activity>\n  \
                   <Program name='p' duration='1'><Option hostname='local'/></Program>\n  \
                   <Transition from='stage_in' to='compute'/>\n  \
                   <Transition from='compute' to='stage_out'/>\n\
                 </Workflow>\n"
            ),
            grid: grid.clone(),
            seed: seed.wrapping_add(i as u64),
            deadline: None,
        })
        .collect()
}

/// Lanes per recovery-mix workflow.
const LANES: usize = 4;

/// The paper's own failure-handling structures (Figures 2–6), the
/// `foreach` fan-out with a dead-letter queue, and the full pipeline, on
/// unreliable hosts behind a lossy, delayed link watched by the φ-accrual
/// detector, with task-level checkpointing and resilient placement on
/// half the jobs.
///
/// One workflow is [`LANES`] independent lanes, lane `j` of pool entry
/// `i` being structure `(i + j) % 7`, so the pool holds every run of four
/// consecutive structures equally often.  That makes a job about two
/// milliseconds of engine work and a journal of a hundred events: the
/// engine, the simulator, the detector and the trace encoder are the bulk
/// of its cost, and the one journal *file* it creates is not (file
/// creation is the least repeatable thing a rep does: on ext4 without a
/// journal its cost swings forty-fold with how many files were deleted
/// in the last half minute).
pub fn recovery_mix(seed: u64, n: usize) -> Vec<Submission> {
    let mut rng = Rng::new(seed ^ 0x5EC0_7E27);
    (0..n)
        .map(|i| {
            let mut grid = GridSpec::virtual_grid()
                .with_link_spec(LinkSpec {
                    delay: rng.range(0.02, 0.08),
                    drop_p: rng.range(0.002, 0.01),
                    // No jitter: the service runs engines without a reorder
                    // buffer, and a `Done` that overtakes its `Task End`
                    // reads as a crash, which would fail half of all tasks.
                    jitter: 0.0,
                    dup_p: 0.05,
                })
                .with_detector(DetectorSpec::Phi {
                    threshold: rng.range(8.0, 12.0),
                });
            // Volunteer hosts fail within a few task lengths; the fallback
            // hosts are (nearly) reliable, so most lanes recover.
            for host in ["v1", "v2", "v3"] {
                let mttf = rng.range(100.0, 400.0);
                let downtime = rng.range(4.0, 24.0);
                grid = grid.with_unreliable_host(host, rng.range(0.8, 1.5), mttf, downtime);
            }
            grid = grid
                .with_unreliable_host("c1", 1.0, rng.range(2_000.0, 8_000.0), 12.0)
                .with_host("safe", 1.0);
            for program in ["fast_v1", "fast_v2", "fast_safe"] {
                grid = grid.with_profile(ProfileSpec {
                    program: program.into(),
                    checkpoint_period: None,
                    soft_crash_mttf: Some(rng.range(300.0, 900.0)),
                    exception: Some(("disk_full".into(), 3, rng.range(0.05, 0.15))),
                });
            }
            for program in ["slow_v", "slow_safe", "slow_c1"] {
                grid = grid.with_profile(ProfileSpec {
                    program: program.into(),
                    checkpoint_period: Some(8.0),
                    soft_crash_mttf: None,
                    exception: None,
                });
            }
            grid = grid
                .with_profile(ProfileSpec {
                    program: "mapper".into(),
                    checkpoint_period: None,
                    soft_crash_mttf: None,
                    exception: Some(("bad_shard".into(), 1, rng.range(0.05, 0.2))),
                })
                .with_profile(ProfileSpec {
                    program: "solver".into(),
                    checkpoint_period: Some(8.0),
                    soft_crash_mttf: None,
                    exception: Some(("out_of_memory".into(), 3, 0.3)),
                });
            // Resilient placement on every other pool entry.
            if i % 2 == 1 {
                grid = grid.with_scheduler(SchedulerSpec::Resilient);
            }
            let lanes: String = (0..LANES)
                .map(|j| LANE_TEMPLATES[(i + j) % LANE_TEMPLATES.len()].replace('#', &j.to_string()))
                .collect();
            Submission {
                name: format!("mix-{i}"),
                workflow_xml: format!(
                    "<?xml version='1.0'?>\n<Workflow name='mix-{i}'>\n{PREAMBLE}{lanes}</Workflow>\n"
                ),
                grid,
                seed: rng.next_u64(),
                deadline: None,
            }
        })
        .collect()
}

/// Declarations every lane shares: exceptions, the loop bound, programs.
const PREAMBLE: &str = "  \
    <Exception name='disk_full' fatal='true' description='scratch disk exhausted'/>\n  \
    <Exception name='bad_shard' fatal='false' description='transient shard failure'/>\n  \
    <Exception name='out_of_memory' fatal='true'/>\n  \
    <Exception name='net_congestion' description='transient; retry may clear it'/>\n  \
    <Variable name='max_refinements' type='num' value='3'/>\n  \
    <Program name='slow_v' duration='32'>\n    <Option hostname='v1'/>\n    \
      <Option hostname='v2'/>\n    <Option hostname='v3'/>\n  </Program>\n  \
    <Program name='fast_v1' duration='16'><Option hostname='v1'/></Program>\n  \
    <Program name='fast_v2' duration='16'><Option hostname='v2'/></Program>\n  \
    <Program name='fast_safe' duration='16'><Option hostname='safe'/></Program>\n  \
    <Program name='slow_safe' duration='48'><Option hostname='safe'/></Program>\n  \
    <Program name='slow_c1' duration='48'><Option hostname='c1'/></Program>\n  \
    <Program name='mapper' duration='16'><Option hostname='c1'/></Program>\n  \
    <Program name='reducer' duration='8'><Option hostname='safe'/></Program>\n  \
    <Program name='stage_impl' duration='12'><Option hostname='safe'/></Program>\n  \
    <Program name='solver' duration='24'><Option hostname='c1'/></Program>\n  \
    <Program name='refine_impl' duration='12'><Option hostname='c1'/></Program>\n  \
    <Program name='render_impl' duration='20'>\n    <Option hostname='v1'/>\n    \
      <Option hostname='v2'/>\n    <Option hostname='v3'/>\n  </Program>\n  \
    <Program name='cleanup_impl' duration='4'><Option hostname='safe'/></Program>\n";

/// One lane per structure; `#` stands for the lane number.
const LANE_TEMPLATES: [&str; 7] = [
    // Figure 2: task-level retry.
    "  <Activity name='retry_#' max_tries='3' interval='8'>\n    \
         <Input>vector.dat</Input>\n    <Output>sum.out</Output>\n    \
         <Implement>slow_v</Implement>\n  </Activity>\n",
    // Figure 3: task-level replication.
    "  <Activity name='replica_#' policy='replica'><Implement>slow_v</Implement></Activity>\n",
    // Figure 4: an alternative task behind an OR-join.
    "  <Activity name='alt_fast_#'><Implement>fast_v1</Implement></Activity>\n  \
       <Activity name='alt_slow_#'><Implement>slow_safe</Implement></Activity>\n  \
       <Activity name='alt_join_#' join='or'/>\n  \
       <Transition from='alt_fast_#' to='alt_join_#'/>\n  \
       <Transition from='alt_fast_#' to='alt_slow_#' on='failed'/>\n  \
       <Transition from='alt_slow_#' to='alt_join_#'/>\n",
    // Figure 5: workflow-level redundancy.
    "  <Activity name='red_split_#'/>\n  \
       <Activity name='red_fast_#'><Implement>fast_v2</Implement></Activity>\n  \
       <Activity name='red_slow_#'><Implement>slow_c1</Implement></Activity>\n  \
       <Activity name='red_join_#' join='or'/>\n  \
       <Transition from='red_split_#' to='red_fast_#'/>\n  \
       <Transition from='red_split_#' to='red_slow_#'/>\n  \
       <Transition from='red_fast_#' to='red_join_#'/>\n  \
       <Transition from='red_slow_#' to='red_join_#'/>\n",
    // Figure 6: a user-defined exception handler.
    "  <Activity name='exc_fast_#'><Implement>fast_safe</Implement></Activity>\n  \
       <Activity name='exc_slow_#'><Implement>slow_c1</Implement></Activity>\n  \
       <Activity name='exc_join_#' join='or'/>\n  \
       <Transition from='exc_fast_#' to='exc_join_#'/>\n  \
       <Transition from='exc_fast_#' to='exc_slow_#' on='exception:disk_full'/>\n  \
       <Transition from='exc_slow_#' to='exc_join_#'/>\n",
    // mapreduce.xml: foreach fan-out with a dead-letter queue.
    "  <Activity name='map_#'>\n    <Implement>mapper</Implement>\n    \
         <Foreach max_parallel='3' max_attempts='2' on_item_failure='dlq'>\n      \
           <Item>shard-00</Item>\n      <Item>shard-01</Item>\n      \
           <Item>shard-02</Item>\n      <Item>shard-03</Item>\n      \
           <Item>shard-04</Item>\n      <Item>shard-05</Item>\n      \
           <Item>shard-06</Item>\n      <Item>shard-07</Item>\n    \
         </Foreach>\n  </Activity>\n  \
       <Activity name='reduce_#'><Implement>reducer</Implement></Activity>\n  \
       <Transition from='map_#' to='reduce_#'/>\n",
    // pipeline.xml: retry with backoff, handler, loop, replicas, cleanup.
    "  <Activity name='stage_#' max_tries='3' interval='8' backoff='2'>\n    \
         <Input>raw.dat</Input>\n    <Implement>stage_impl</Implement>\n  </Activity>\n  \
       <Activity name='solve_fast_#'><Implement>solver</Implement></Activity>\n  \
       <Activity name='solve_disk_#' max_tries='2' interval='20'>\
         <Implement>slow_safe</Implement></Activity>\n  \
       <Activity name='solved_#' join='or'/>\n  \
       <Activity name='refine_#'><Implement>refine_impl</Implement></Activity>\n  \
       <Activity name='render_#' policy='replica' max_tries='2' interval='4'>\n    \
         <Output>frames/</Output>\n    <Implement>render_impl</Implement>\n  </Activity>\n  \
       <Activity name='cleanup_#'><Implement>cleanup_impl</Implement></Activity>\n  \
       <Transition from='stage_#' to='solve_fast_#'/>\n  \
       <Transition from='solve_fast_#' to='solved_#'/>\n  \
       <Transition from='solve_fast_#' to='solve_disk_#' on='exception:out_of_memory'/>\n  \
       <Transition from='solve_disk_#' to='solved_#'/>\n  \
       <Transition from='solved_#' to='refine_#'/>\n  \
       <Transition from='refine_#' to='render_#' \
         condition=\"runs('refine_#') &gt;= $max_refinements\"/>\n  \
       <Transition from='render_#' to='cleanup_#' on='always'/>\n  \
       <Loop activity='refine_#' condition=\"runs('refine_#') &lt; $max_refinements\"/>\n",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use grid_wfs::LogKind;
    use gridwfs_serve::JobState;

    #[test]
    fn corpora_are_seed_deterministic() {
        for build in [chain, recovery_mix] {
            let (a, b, c) = (build(5, 14), build(5, 14), build(6, 14));
            assert!(a
                .iter()
                .zip(&b)
                .all(|(x, y)| x.workflow_xml == y.workflow_xml
                    && x.grid == y.grid
                    && x.seed == y.seed));
            assert!(a.iter().zip(&c).any(|(x, y)| x.seed != y.seed));
        }
    }

    /// The mix must exercise recovery, not drown in it: most jobs succeed,
    /// some fail for good, and task-level recovery is the rule, not the
    /// exception.
    #[test]
    fn recovery_mix_recovers_most_jobs() {
        let pool = recovery_mix(2003, 70);
        let mut done = 0;
        let mut recovered = 0;
        for sub in &pool {
            let report = oracle::reference(sub).expect("corpus runs");
            if oracle::expected_of(&report).state == JobState::Done {
                done += 1;
            }
            if report.log.iter().any(|e| e.kind == LogKind::Recovery) {
                recovered += 1;
            }
        }
        println!("done {done} recovered {recovered} of {}", pool.len());
        assert!(done * 2 > pool.len() && done < pool.len(), "{done} done");
        assert!(recovered * 2 > pool.len(), "{recovered} jobs saw recovery");
    }
}

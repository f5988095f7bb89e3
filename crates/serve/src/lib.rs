//! # gridwfs-serve — the multi-tenant workflow service
//!
//! The paper's engine executes one workflow instance; a Grid workflow
//! *platform* is a long-running service executing many, for many clients,
//! with admission control and per-workflow fault isolation.  This crate is
//! that layer:
//!
//! * [`queue`] — the bounded admission queue with explicit backpressure;
//! * [`job`] — submission / job-record / lifecycle types;
//! * [`gridspec`] — a data description of the Grid a job runs on
//!   (virtual-time simulation or real paced threads), stored with each
//!   job as the JSON document a `--grid` file holds;
//! * [`service`] — the service itself: worker pool, submission API,
//!   status queries, cancellation, deadlines, graceful and hard shutdown,
//!   backed by a sharded job table (per-shard locks, `id % SHARDS`);
//! * `sched` — the cooperative work-stealing scheduler: each worker
//!   steps many paused engines (`Engine::step`) from a local run queue
//!   plus a timer heap, steals from siblings when idle, and
//!   group-commits state-dir writes once per [`COMMIT_WINDOW`];
//! * `worker` — per-job lifecycle: engine construction, journals,
//!   settlement;
//! * [`recover`] — persistence policy over the pluggable storage
//!   backends ([`gridwfs_storage`]): a restarted service re-admits
//!   unfinished jobs and resumes their engines from checkpoint;
//! * `federate` — federated serve: M replicas over one backend, each
//!   job owned through an expiring lease record; replicas renew on a
//!   heartbeat, fence every state batch on their lease epoch, and take
//!   over expired peers through the crash-recovery path;
//! * [`metrics`] — counters / gauges / latency histogram, JSON snapshots.
//!
//! ## Quickstart
//!
//! ```
//! use gridwfs_serve::{GridSpec, Service, ServiceConfig, Submission};
//! use std::time::Duration;
//!
//! let service = Service::start(ServiceConfig {
//!     workers: 2,
//!     queue_capacity: 16,
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//!
//! let grid = GridSpec::virtual_grid().with_host("h1", 1.0);
//! let id = service
//!     .submit(Submission {
//!         name: "demo".into(),
//!         workflow_xml: "<Workflow name='w'>\
//!            <Activity name='a'><Implement>p</Implement></Activity>\
//!            <Program name='p' duration='5'><Option hostname='h1'/></Program>\
//!          </Workflow>"
//!             .into(),
//!         grid,
//!         seed: 1,
//!         deadline: None,
//!     })
//!     .unwrap();
//!
//! assert!(service.wait_all_terminal(Duration::from_secs(10)));
//! let record = service.status(id).unwrap();
//! assert_eq!(record.state, gridwfs_serve::JobState::Done);
//! ```

mod federate;
pub mod gridspec;
pub mod job;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod recover;
mod sched;
pub mod service;
mod table;
mod worker;

pub use gridspec::{
    DetectorSpec, ExecMode, GridSpec, HostSpec, LinkSpec, ProfileSpec, SchedulerSpec,
};
pub use gridwfs_chaos::{relock, splitmix64, FaultPlan};
pub use gridwfs_storage::{
    Backend, ChaosStorage, CountersSnapshot, MemStorage, Op, Storage, WalStorage, WAL_FILE,
};
pub use gridwfs_trace::{TraceEvent, TraceKind, TraceSink};
pub use job::{JobId, JobRecord, JobState, Submission};
pub use metrics::{LatencySummary, Metrics, TraceMetricsSink};
pub use queue::{BoundedQueue, Pop, PushError};
pub use sched::COMMIT_WINDOW;
pub use service::{Service, ServiceConfig, SubmitError};

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::Once;

    /// Installs a panic hook that stays quiet for the panics this crate's
    /// tests inject on purpose (payloads mentioning "chaos:" or "expected
    /// panic") and delegates everything else to the default hook.
    pub(crate) fn quiet_expected_panics() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                if msg.contains("chaos:") || msg.contains("expected panic") {
                    return;
                }
                default(info);
            }));
        });
    }
}

#[cfg(test)]
mod send_bounds {
    /// The whole point of the service is running engines on worker
    /// threads; these bounds are load-bearing for the entire crate.
    #[test]
    fn engines_and_service_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<grid_wfs::Engine<grid_wfs::SimGrid>>();
        assert_send::<grid_wfs::Engine<grid_wfs::ThreadExecutor>>();
        assert_send::<crate::Service>();
    }
}

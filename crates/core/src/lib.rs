//! # grid-wfs — the Grid Workflow System engine
//!
//! Reproduction of the core contribution of *Grid Workflow: A Flexible
//! Failure Handling Framework for the Grid* (Hwang & Kesselman, HPDC 2003):
//! a workflow engine in which **failure-handling policy is workflow
//! structure**.  Change the XML (or the builder calls) and the recovery
//! strategy changes; the application tasks never do.
//!
//! * [`instance`] — the annotated parse tree: node statuses, edge firing,
//!   AND/OR joins, conditional transitions, do-while loops, skip
//!   propagation, and the success/failure outcome rule;
//! * [`engine`] — the navigator: submits ready tasks, classifies their fate
//!   through the generic failure detection service, applies task-level
//!   recovery (retry / replicate / checkpoint-resume) and lets the workflow
//!   structure handle the rest (alternative tasks, OR redundancy, exception
//!   handlers);
//! * [`executor`] — the GRAM-shaped submission abstraction, with a
//!   deterministic simulated Grid ([`sim_executor`]) and a real
//!   threaded runner ([`thread_executor`]);
//! * [`hosts`] — what settled attempts say about each host, one record per
//!   host, read by the optional circuit breaker and resilience-aware
//!   scorer (extensions beyond the paper);
//! * [`checkpoint`] — fault tolerance of the engine itself: the annotated
//!   parse tree persists to XML after every task termination and a
//!   restarted engine resumes where it left off.
//!
//! ## Quickstart
//!
//! ```
//! use grid_wfs::{Engine, SimGrid};
//! use gridwfs_sim::resource::ResourceSpec;
//! use gridwfs_wpdl::builder::figure4;
//! use gridwfs_wpdl::validate::validate;
//!
//! // The paper's Figure 4: fast-unreliable task with a slow-reliable
//! // alternative behind an OR-join.
//! let workflow = validate(figure4(30.0, 150.0)).unwrap();
//!
//! // A simulated Grid with the two hosts the workflow names.
//! let mut grid = SimGrid::new(42);
//! grid.add_host(ResourceSpec::reliable("volunteer.example.org"));
//! grid.add_host(ResourceSpec::reliable("condor.example.org"));
//!
//! let report = Engine::new(workflow, grid).run();
//! assert!(report.is_success());
//! assert_eq!(report.status_of("slow_task"), Some("skipped"));
//! ```

pub mod checkpoint;
pub mod engine;
pub mod executor;
pub mod hosts;
pub mod instance;
pub mod sim_executor;
pub mod thread_executor;
pub mod timeline;

pub use engine::{
    CheckpointSink, DlqEntry, Engine, EngineConfig, LogEntry, LogKind, Report, StepOutcome,
};
pub use executor::{Executor, Polled, SubmitRequest};
pub use gridwfs_detect::{DetectorPolicy, PhiConfig};
pub use gridwfs_trace::{TaskOutcome, TraceEvent, TraceKind, TraceSink};
pub use hosts::{BreakerConfig, HostPrior, Placement, SchedulerPolicy};
pub use instance::{
    CompleteResult, EdgeState, Instance, ItemProgress, ItemState, NodeStatus, Outcome,
};
pub use sim_executor::{ExceptionProfile, SimGrid, TaskProfile};
pub use thread_executor::{
    FaultHook, InjectedTaskFault, TaskContext, TaskFn, TaskResult, ThreadExecutor,
};
pub use timeline::{spans_from_trace, Span, SpanOutcome};

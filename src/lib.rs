//! # gridwfs — Grid-WFS, a flexible failure handling framework for the Grid
//!
//! A from-scratch Rust reproduction of Hwang & Kesselman, *Grid Workflow:
//! A Flexible Failure Handling Framework for the Grid* (HPDC 2003).  The
//! big idea: **failure-handling policy is workflow structure.**  Tasks stay
//! policy-free; retrying, replication, checkpointing, alternative tasks,
//! redundancy, and user-defined exception handling are all declared in the
//! XML Workflow Process Definition Language (or the equivalent Rust
//! builder) and can be restructured without touching application code.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`wpdl`] | `gridwfs-wpdl` | XML WPDL: parser, AST, validation, builder |
//! | [`core`] | `grid-wfs` | the workflow engine with two-level recovery |
//! | [`detect`] | `gridwfs-detect` | generic failure detection service |
//! | [`sim`] | `gridwfs-sim` | discrete-event Grid simulation substrate |
//! | [`eval`] | `gridwfs-eval` | the §8 Monte-Carlo evaluation |
//! | [`serve`] | `gridwfs-serve` | multi-tenant workflow service (worker pool, queue, recovery) |
//!
//! ## Five-minute tour
//!
//! ```
//! use gridwfs::prelude::*;
//!
//! // 1. Declare policy in workflow structure (here: the paper's Figure 2 —
//! //    retry up to 3 times, 10 time units apart).
//! let mut b = WorkflowBuilder::new("tour")
//!     .program("sum", 30.0, &["bolas.isi.edu"]);
//! b.activity("summation", "sum").retry(3, 10.0);
//! let workflow = b.build().expect("validates");
//!
//! // 2. Stand up a (simulated) Grid.
//! let mut grid = SimGrid::new(7);
//! grid.add_host(ResourceSpec::unreliable("bolas.isi.edu", 200.0, 5.0));
//!
//! // 3. Run.
//! let report = Engine::new(workflow, grid).run();
//! assert!(report.is_success());
//! ```
//!
//! See `examples/` for the runnable scenarios (quickstart, the linear-solver
//! pipeline from the paper's introduction, strategy swapping, engine
//! restart, and a local threaded run with real closures).

pub mod cli;

pub use grid_wfs as core;
pub use gridwfs_detect as detect;
pub use gridwfs_eval as eval;
pub use gridwfs_serve as serve;
pub use gridwfs_sim as sim;
pub use gridwfs_wpdl as wpdl;

/// The names almost every program needs.
pub mod prelude {
    pub use grid_wfs::{
        Engine, EngineConfig, Executor, Instance, NodeStatus, Outcome, Report, SimGrid,
        SubmitRequest, TaskContext, TaskProfile, TaskResult, ThreadExecutor,
    };
    pub use gridwfs_serve::{GridSpec, JobId, JobState, Service, ServiceConfig, Submission};
    pub use gridwfs_sim::dist::Dist;
    pub use gridwfs_sim::resource::ResourceSpec;
    pub use gridwfs_sim::rng::Rng;
    pub use gridwfs_wpdl::builder::WorkflowBuilder;
    pub use gridwfs_wpdl::{validate, Workflow};
}

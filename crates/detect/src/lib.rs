//! # gridwfs-detect — the generic failure detection service
//!
//! Reproduction of the paper's companion service (Hwang & Kesselman,
//! *A Generic Failure Detection Service for the Grid*, ISI-TR-568, summarised
//! in §3 of the HPDC'03 paper).  The service classifies what happens to a
//! task running on a remote Grid node into the two failure classes the
//! Grid-WFS framework recovers from:
//!
//! * **task crash failures** — the job manager reports `Done` but the task
//!   never sent its application-level `Task End` notification, or heartbeats
//!   stop arriving (host crash / network partition / reboot);
//! * **user-defined exceptions** — the task itself raises a named,
//!   task-specific exception (`disk_full`, `out_of_memory`, …) through the
//!   task-side notification API.
//!
//! The pieces:
//!
//! * [`state`] — the task state machine (`Inactive → Active → Done | Failed |
//!   Exception`) from the report,
//! * [`notify`] — typed notification messages and their wire format,
//! * [`heartbeat`] — the one heartbeat monitor: a table of watches whose
//!   presumption margin is the paper's fixed `tolerance × interval` or the
//!   adaptive φ-accrual margin, per [`detector::DetectorPolicy`],
//! * [`phi`] — the φ-accrual configuration and math (window statistics,
//!   suspicion level, normal CDF and quantile),
//! * [`exception`] — the user-defined exception registry (§2.3),
//! * [`detector`] — the classifier that turns a notification stream into
//!   [`detector::Detection`]s the workflow engine acts on; it holds only
//!   open attempts and those presumed dead, because the engine calls
//!   [`detector::Detector::forget`] when any other attempt closes;
//! * [`transport`] — a reorder-tolerant delivery buffer protecting the
//!   `Done`-without-`Task End` rule from message races.

pub mod detector;
pub mod exception;
pub mod heartbeat;
pub mod notify;
pub mod phi;
pub mod state;
pub mod transport;

pub use detector::{Detection, Detector, DetectorPolicy, SuspicionInfo};
pub use exception::{ExceptionDef, ExceptionRegistry};
pub use heartbeat::{BeatOutcome, HeartbeatMonitor, Liveness};
pub use notify::{Envelope, Notification, TaskId};
pub use phi::PhiConfig;
pub use state::{TaskState, TaskStateMachine};
pub use transport::ReorderBuffer;

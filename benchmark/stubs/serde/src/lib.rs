//! gwbench stand-in for `serde`: crates.io is unreachable where the
//! benchmark builds, and no measured path (de)serialises through serde.
//! The traits are markers every type satisfies and the derives expand to
//! nothing, so the workspace crates compile unchanged.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de>: Sized {}
impl<T> Deserialize<'_> for T {}

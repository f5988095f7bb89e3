//! gwbench stand-in for `serde_json`.  Every entry point panics: a
//! measured path that reaches third-party JSON code must fail loudly
//! instead of timing a different program.

use std::fmt;

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json stand-in")
    }
}
impl std::error::Error for Error {}

pub fn to_string<T: ?Sized>(_value: &T) -> Result<String, Error> {
    unimplemented!("gwbench stand-in: serde_json::to_string reached on a measured path")
}

pub fn to_string_pretty<T: ?Sized>(_value: &T) -> Result<String, Error> {
    unimplemented!("gwbench stand-in: serde_json::to_string_pretty reached on a measured path")
}

pub fn from_str<T>(_s: &str) -> Result<T, Error> {
    unimplemented!("gwbench stand-in: serde_json::from_str reached on a measured path")
}

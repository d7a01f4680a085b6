//! The repository's benchmark: five workloads over the encrypted,
//! content-searchable SDDS, driven only through the public API of the
//! `crates/*` packages. See `README.md` beside this package for what
//! each workload and metric is for.

pub mod client;
pub mod engine;
pub mod env;
pub mod gen;
pub mod inputs;
pub mod layers;
pub mod pin;
pub mod report;
pub mod spans;
pub mod spec;
pub mod speed;
pub mod stats;

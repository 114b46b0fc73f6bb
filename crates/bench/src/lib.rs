//! # hydro-bench
//!
//! Experiment harness for the reproduction: every experiment `eNN`
//! (described in its function's docs and in `CHANGES.md`) has a function here that runs its workload and
//! returns printable rows. The `report` binary runs them all and prints
//! the tables; `benches/experiments.rs` wraps the timing-sensitive ones in
//! Criterion.

// Dataflow builders and pluggable node logic are callback-heavy; the
// closure/handle types read clearer inline than behind aliases.
#![allow(clippy::type_complexity)]
pub mod experiments;

pub use experiments::*;

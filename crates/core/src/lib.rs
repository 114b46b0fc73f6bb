//! # hydro-core
//!
//! **HydroLogic**: the declarative intermediate representation at the heart
//! of the Hydro stack (§3 of *New Directions in Cloud Programming*, CIDR
//! 2021), together with its transducer interpreter.
//!
//! A HydroLogic [`ast::Program`] captures the four PACT facets:
//!
//! * **P**rogram semantics — a data model (tables with lattice-typed
//!   columns, scalar and lattice variables), Datalog-style queries with
//!   recursion and stratified negation/aggregation, and `on` handlers whose
//!   statements are deferred-mutation `merge`s, bare assignments, and
//!   asynchronous `send`s ([`ast`], [`eval`], [`interp`]);
//! * **A**vailability — per-endpoint `f`-failures-across-domain
//!   requirements ([`facets::AvailabilitySpec`]);
//! * **C**onsistency — history-based levels plus application invariants
//!   ([`facets::ConsistencyReq`]);
//! * **T**argets — latency/cost/processor objectives
//!   ([`facets::TargetSpec`]).
//!
//! The interpreter ([`interp::Transducer`]) gives programs the paper's
//! "single-node metaphor": a global view of state and one logical clock of
//! atomic ticks. A transducer is split into an immutable, `Arc`-shared
//! compiled half ([`interp::ProgramCore`]) and per-instance mutable state,
//! so replicas and shards pay compilation once; [`shard::ShardSet`] runs N
//! key-partitioned shards of one core behind a hash router, either inline
//! ([`shard::ShardedTransducer`]) or one worker thread per shard
//! ([`shard::ParallelShardedTransducer`]).
//! Distribution — replication, partitioning, coordination,
//! delay — is layered on by `hydrolysis` (compilation) and `hydro-deploy`
//! (placement and protocols) *without changing program semantics*, which is
//! the faceted-design thesis this reproduction exists to demonstrate.

// Dataflow builders and pluggable node logic are callback-heavy; the
// closure/handle types read clearer inline than behind aliases.
#![allow(clippy::type_complexity)]
pub mod ast;
pub mod builder;
pub mod eval;
pub mod examples;
pub mod facets;
pub mod interp;
pub mod reorder;
pub mod serve;
pub mod shard;
pub mod value;

pub use ast::Program;
pub use reorder::ReorderReport;
pub use interp::{
    Checkpoint, EvalMode, JournalDelta, ProgramCore, RecoveryLog, TickOutput, Transducer,
};
pub use shard::{partition_hash, Route, RoutingSpec, ShardedTransducer};
pub use value::Value;

//! # hydro-deploy
//!
//! The distributed half of the Hydro stack: deployment of HydroLogic
//! transducers onto the simulated cluster, synthesizing the availability
//! (§6) and consistency (§7) facets:
//!
//! * [`node`] — transducers as network nodes, the `f+1` fan-out
//!   load-balancing proxy of §6.1, and a total-order sequencer (the
//!   "heavyweight" §7.2 mechanism for serializable endpoints);
//! * [`deployment`] — facet-driven synthesis: replication factor and AZ
//!   placement from the availability spec, per-handler routing (direct
//!   coordination-free vs. sequenced) from the consistency spec;
//! * [`twopc`] — generic two-phase commit, the coordinated baseline for
//!   experiments E2/E10;
//! * [`consensus`] — single-decree Paxos generalized to a multi-slot log:
//!   the fault-tolerant total order that §7.2's "consensus-based logs for
//!   state-machine replication" calls for (and the upgrade path for the
//!   single-point-of-failure sequencer);
//! * [`consistency`] — client-centric checkers (read-your-writes,
//!   monotonic reads, exact linearizability) validating what clients could
//!   observe, per the paper's client-centric consistency thrust (§1.2);
//! * [`campaign`] — seeded fault-injection campaigns (kill / isolate /
//!   heal / revive interleaved with client load) exercising the sharded
//!   replication-and-failover protocol end to end, checked for zero
//!   acked-request loss, replay fidelity, and linearizability.

// Dataflow builders and pluggable node logic are callback-heavy; the
// closure/handle types read clearer inline than behind aliases.
#![allow(clippy::type_complexity)]
pub mod campaign;
pub mod consensus;
pub mod consistency;
pub mod deployment;
pub mod node;
pub mod twopc;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use deployment::{deploy, deploy_sharded, DeployConfig, Deployment, ShardedDeployment};
pub use node::{
    BackupNode, IngressCfg, NetMsg, ProxyNode, RetryCfg, RouterNode, RouterStatus,
    RouterStatusInner, SequencerNode, TransducerNode,
};

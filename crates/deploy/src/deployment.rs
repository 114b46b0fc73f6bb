//! Deployment synthesis from the availability + consistency facets.
//!
//! Given a HydroLogic program, [`deploy`] synthesizes the §6.1 pattern: the
//! endpoint is replicated `f+1` times across distinct failure domains
//! (AZs), fronted by a load-balancing proxy that fans each request to every
//! replica and returns the first reply. Handlers whose consistency facet
//! demands serializability are additionally routed through a total-order
//! sequencer (the §7.2 "heavyweight" mechanism), while CALM-monotone
//! handlers go straight to the replicas coordination-free — the same
//! program, two wire protocols, chosen per-endpoint by analysis.
//!
//! # Sharded fault tolerance: the shard replication protocol
//!
//! With [`DeployConfig::replicate_shards`], [`deploy_sharded`] pairs every
//! partition's primary with one AZ-independent passive backup (f = 1 per
//! partition) and arms the router as the failure detector:
//!
//! 1. **Journal streaming.** Each primary runs its transducer with
//!    journaling on. After every tick it drains the journal delta — the
//!    final values of everything the tick touched — and ships it to its
//!    backup as a sequenced `ReplDelta`, together with the replies served
//!    by that tick and a snapshot of the still-pending request queue. The
//!    backup folds records *in order* into a [`hydro_core::RecoveryLog`]
//!    (base checkpoint + deltas, compacted every
//!    [`DeployConfig::checkpoint_every`] records) and acks cumulatively;
//!    gaps are buffered, duplicates re-acked.
//! 2. **Output holding.** A primary *holds* every externally visible
//!    output (replies, forwards, external sends) of tick *n* until the
//!    backup has acked record *n*. A client therefore never observes a
//!    response whose effects could die with the primary: acked-request
//!    loss is zero by construction. Unacked records are retransmitted on
//!    [`crate::node::REPL_TIMER`]; a backup silent past its timeout is
//!    abandoned (journaling off, held outputs released) — safe, because
//!    promotion is triggered by the *primary's* heartbeats, not the
//!    backup's.
//! 3. **Failure detection and promotion.** Primaries beacon
//!    `Heartbeat{shard}` to the router every
//!    [`DeployConfig::heartbeat_us`]; the router's staleness sweep runs at
//!    half [`DeployConfig::heartbeat_timeout_us`]. When a partition's
//!    owner goes silent past the timeout, the router sends `Promote`,
//!    re-targets the partition at the backup, and the backup replays its
//!    log: `RecoveryLog::into_transducer` consumes the log and moves its
//!    compacted image into a bit-identical transducer (same state,
//!    mailboxes, message-id and tick counters), the pending request queue
//!    and served-reply cache replicated with the records move into the
//!    serving node, the reorder buffer is dropped, and the backup starts
//!    ticking and heartbeating as the new owner. Nothing of the passive
//!    replica is kept alongside the owner it became. Heartbeats from a
//!    node that is *not* the current owner are ignored, so a revived old
//!    primary cannot reclaim the partition.
//! 4. **Retry, dedup, and shedding.** The router retries unanswered
//!    requests with bounded exponential backoff
//!    ([`DeployConfig::retry_base_us`] doubling up to
//!    [`DeployConfig::retry_max_us`], at most
//!    [`DeployConfig::retry_budget`] attempts), always toward the
//!    partition's *current* owner. Shards deduplicate by request id —
//!    in-flight duplicates are dropped, already-served ones get the
//!    cached reply — so retries are exactly-once. A partition with no
//!    live owner left sheds requests with an immediate `OVERLOADED`
//!    reply; an exhausted budget yields `UNAVAILABLE`. Both are counted
//!    in [`crate::node::RouterStatusInner`].
//!
//! Known limits: held *forwards* (cross-shard sends) are at-most-once
//! under failover — a primary dying between tick and release loses them,
//! and replaying them from the backup could double-apply at the peer.
//! Asymmetric partitions (primary cut from router but not from clients)
//! are out of scope; the fault campaigns use fail-stop kills and full
//! cuts.

use crate::node::{
    ledger, BackupNode, IngressCfg, NetMsg, ProxyLedger, ProxyNode, RetryCfg, RouterNode,
    RouterStatus, SequencerNode, TransducerHandle, TransducerNode, HB_CHECK_TIMER, HB_TIMER,
    INGRESS_TIMER, REPL_TIMER, TICK_TIMER,
};
use hydro_analysis::classify;
use hydro_analysis::partition::{partition, partition_with, ExchangePolicy, PartitionReport};
use hydro_core::ast::Program;
use hydro_core::eval::Row;
use hydro_core::facets::ConsistencyLevel;
use hydro_core::interp::{ProgramCore, Transducer};
use hydro_core::Value;
use hydro_net::{DomainPath, LinkModel, NodeId, Sim, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Deployment knobs.
#[derive(Clone, Copy, Debug)]
pub struct DeployConfig {
    /// Network model.
    pub link: LinkModel,
    /// Simulation seed.
    pub seed: u64,
    /// Transducer tick period (µs of virtual time).
    pub tick_every_us: SimTime,
    /// Force coordination (sequencer) for *all* handlers — the
    /// "conservative baseline" arm of experiments E2/E10.
    pub coordinate_everything: bool,
    /// Give every shard an AZ-independent journal-streaming backup and
    /// arm the router with heartbeat failover + request retry (see the
    /// module docs for the protocol).
    pub replicate_shards: bool,
    /// Owner heartbeat period (µs).
    pub heartbeat_us: SimTime,
    /// Router declares an owner dead after this much heartbeat silence.
    pub heartbeat_timeout_us: SimTime,
    /// First router retry fires this long after a request is forwarded.
    pub retry_base_us: SimTime,
    /// Router retry backoff ceiling.
    pub retry_max_us: SimTime,
    /// Router retries per request before answering `UNAVAILABLE`.
    pub retry_budget: u32,
    /// Backup log compaction cadence (deltas per checkpoint).
    pub checkpoint_every: usize,
    /// Bounded per-shard ingress queueing at the router (`None` =
    /// forward immediately, the historical behavior). When set, the
    /// router parks requests and flushes them in micro-batches; a full
    /// queue sheds with `OVERLOADED`, counted distinctly in
    /// [`crate::node::RouterStatusInner::shed_queue_full`].
    pub ingress: Option<IngressCfg>,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            link: LinkModel::default(),
            seed: 0,
            tick_every_us: 1_000,
            coordinate_everything: false,
            replicate_shards: false,
            heartbeat_us: 5_000,
            heartbeat_timeout_us: 20_000,
            retry_base_us: 15_000,
            retry_max_us: 120_000,
            retry_budget: 8,
            checkpoint_every: 32,
            ingress: None,
        }
    }
}

/// A running deployment of one HydroLogic program.
pub struct Deployment {
    /// The simulated cluster.
    pub sim: Sim<NetMsg>,
    /// The client-facing proxy node.
    pub proxy: NodeId,
    /// Replica nodes (one per failure domain).
    pub replicas: Vec<NodeId>,
    /// The sequencer node, when any handler needs total order.
    pub sequencer: Option<NodeId>,
    /// Handles to replica transducers (state inspection).
    pub replica_handles: Vec<TransducerHandle>,
    /// Handles to replica external sends.
    pub external_handles: Vec<Rc<RefCell<Vec<(String, Row)>>>>,
    /// Proxy request ledger.
    pub ledger: ProxyLedger,
    next_request: u64,
    /// Handler names routed through the sequencer.
    pub serialized_handlers: Vec<String>,
}

/// Build and start a deployment of `program`.
///
/// Replication factor = `max(f)+1` over the availability facet; placement
/// is one replica per AZ so the tolerated failures are independent.
/// Serializable handlers (or all handlers, under
/// [`DeployConfig::coordinate_everything`]) are routed via a sequencer.
/// `register_udfs` is called once per replica to bind UDF implementations.
pub fn deploy(
    program: &Program,
    config: DeployConfig,
    register_udfs: impl Fn(&mut Transducer),
) -> Deployment {
    let mut sim = Sim::new(config.link, config.seed);

    let f = program
        .handlers
        .iter()
        .map(|h| program.availability.for_handler(&h.name).failures)
        .max()
        .unwrap_or(0);
    let replica_count = f + 1;

    let serialized_handlers: Vec<String> = if config.coordinate_everything {
        program.handlers.iter().map(|h| h.name.clone()).collect()
    } else {
        // The consistency facet names them; the CALM report agrees (its
        // coordinated() set) — both views are available, the facet wins.
        let calm = classify(program);
        program
            .handlers
            .iter()
            .filter(|h| {
                program.consistency_of(&h.name).level >= ConsistencyLevel::Serializable
                    || !program.consistency_of(&h.name).invariants.is_empty()
            })
            .map(|h| h.name.clone())
            .chain(
                // Also surface what analysis says needs coordination, for
                // diagnostics; routing still follows declarations.
                calm.coordinated().filter_map(|_| None),
            )
            .collect()
    };

    // One compiled core for the whole deployment: every replica shares
    // the plan-time artifacts (stratification, evaluation units, compiled
    // handlers) and pays only for its own mutable state.
    let core = ProgramCore::new(program.clone()).expect("program validated");
    let mut replicas = Vec::new();
    let mut replica_handles = Vec::new();
    let mut external_handles = Vec::new();
    for az in 0..replica_count {
        let mut t = Transducer::from_core(Arc::clone(&core));
        register_udfs(&mut t);
        let node = TransducerNode::new(Rc::new(RefCell::new(t)), config.tick_every_us);
        replica_handles.push(node.handle());
        external_handles.push(node.external_handle());
        let id = sim.add_node(node, DomainPath::new(az, 0, 0));
        replicas.push(id);
    }

    // The proxy is *client-side* infrastructure (§6.1: "a load-balancing
    // client proxy module") and the sequencer is coordination
    // infrastructure; neither belongs to the service's replica failure
    // domains, so they live in a reserved AZ that the availability
    // experiments never kill. (Making the sequencer itself fault-tolerant
    // needs consensus — exactly the §7.2 "heavyweight" cost.)
    const INFRA_AZ: u32 = u32::MAX;
    let sequencer = if serialized_handlers.is_empty() {
        None
    } else {
        Some(sim.add_node(
            SequencerNode::new(replicas.clone()),
            DomainPath::new(INFRA_AZ, 1, 0),
        ))
    };

    let mut proxy_node = ProxyNode::new(replicas.clone());
    if let Some(seq) = sequencer {
        proxy_node = proxy_node.with_sequencer(seq, serialized_handlers.clone());
    }
    let ledger = proxy_node.ledger();
    let proxy = sim.add_node(proxy_node, DomainPath::new(INFRA_AZ, 2, 0));

    // Start the tick loops.
    for &r in &replicas {
        sim.start_timer(r, TICK_TIMER, config.tick_every_us);
    }

    Deployment {
        sim,
        proxy,
        replicas,
        sequencer,
        replica_handles,
        external_handles,
        ledger,
        next_request: 0,
        serialized_handlers,
    }
}

impl Deployment {
    /// Submit a client request; returns its request id.
    pub fn client_request(&mut self, mailbox: &str, row: Row) -> u64 {
        let request_id = self.next_request;
        self.next_request += 1;
        self.sim.send_external(
            self.proxy,
            NetMsg::Request {
                request_id,
                mailbox: mailbox.to_string(),
                row,
                reply_to: self.proxy,
            },
        );
        request_id
    }

    /// Advance virtual time.
    pub fn run_for(&mut self, duration_us: SimTime) {
        let deadline = self.sim.now() + duration_us;
        self.sim.run_until(deadline);
    }

    /// Requests answered so far.
    pub fn answered(&self) -> usize {
        ledger::answered(&self.ledger)
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> usize {
        self.next_request as usize
    }

    /// Reply value for a request.
    pub fn reply(&self, request_id: u64) -> Option<Value> {
        ledger::reply(&self.ledger, request_id)
    }

    /// Sorted request latencies (µs).
    pub fn latencies_us(&self) -> Vec<u64> {
        ledger::latencies_us(&self.ledger)
    }

    /// Latency (µs) of a specific answered request.
    pub fn latency_of(&self, request_id: u64) -> Option<u64> {
        ledger::latency_of(&self.ledger, request_id)
    }

    /// Median request latency (µs), if any requests completed.
    pub fn median_latency_us(&self) -> Option<u64> {
        let l = self.latencies_us();
        if l.is_empty() {
            None
        } else {
            Some(l[l.len() / 2])
        }
    }

    /// Whether every live replica has identical state — the convergence
    /// check behind experiments E2/E3.
    pub fn replicas_converged(&self) -> bool {
        let live: Vec<&TransducerHandle> = self
            .replicas
            .iter()
            .zip(&self.replica_handles)
            .filter(|(id, _)| self.sim.is_alive(**id))
            .map(|(_, h)| h)
            .collect();
        live.windows(2)
            .all(|w| w[0].borrow().state() == w[1].borrow().state())
    }

    /// External sends (e.g. `alert`s) collected from all replicas, deduped.
    pub fn external_sends(&self) -> Vec<(String, Row)> {
        let mut all: Vec<(String, Row)> = Vec::new();
        for h in &self.external_handles {
            for item in h.borrow().iter() {
                if !all.contains(item) {
                    all.push(item.clone());
                }
            }
        }
        all
    }
}

/// A running **key-partitioned** deployment: N shards of one program
/// behind a partition router, the scale-out mode next to [`deploy`]'s
/// replicated one. Placement comes from `hydro-analysis`'s key-partition
/// analysis: each request is routed to exactly one shard by the hash of
/// its routing parameter; handlers the analysis pins global (and all
/// condition handlers) run on shard 0.
pub struct ShardedDeployment {
    /// The simulated cluster.
    pub sim: Sim<NetMsg>,
    /// The client-facing router node.
    pub router: NodeId,
    /// Shard nodes, index = shard id (shard 0 is the global shard).
    pub shards: Vec<NodeId>,
    /// Handles to shard transducers (state inspection).
    pub shard_handles: Vec<TransducerHandle>,
    /// Handles to shard external sends.
    pub external_handles: Vec<Rc<RefCell<Vec<(String, Row)>>>>,
    /// Router request ledger.
    pub ledger: ProxyLedger,
    /// The partition analysis the placement was synthesized from.
    pub report: PartitionReport,
    /// Backup nodes, index = shard id (empty unless
    /// [`DeployConfig::replicate_shards`]).
    pub backups: Vec<NodeId>,
    /// Handles to backup transducers (meaningful after promotion).
    pub backup_handles: Vec<TransducerHandle>,
    /// Router fault-handling counters (promotions, sheds, retries).
    pub status: RouterStatus,
    next_request: u64,
}

/// Build and start a key-partitioned deployment of `program` across
/// `shard_count` shards. Runs the key-partition analysis, lowers it to a
/// routing spec for the router node, and wires every shard's asynchronous
/// sends back through the router so cross-shard sends become routed
/// re-enqueues. Each shard is placed in its own failure domain.
pub fn deploy_sharded(
    program: &Program,
    config: DeployConfig,
    shard_count: usize,
    register_udfs: impl Fn(&mut Transducer) + 'static,
) -> ShardedDeployment {
    assert!(shard_count >= 1, "a sharded deployment needs >= 1 shard");
    let mut sim = Sim::new(config.link, config.seed);
    // Demote-only plan: delta exchange needs a tick barrier across shards
    // (ship after every shard's tick T, before any shard's T+1), and the
    // simulated cluster ticks nodes on independent timers — there is no
    // barrier to ship at. The in-process drivers ([`deploy_parallel`])
    // take the exchange-enabled plan instead.
    let report = partition_with(program, ExchangePolicy::Demote);
    let routing = report.routing();
    let register_udfs: Rc<dyn Fn(&mut Transducer)> = Rc::new(register_udfs);

    let core = ProgramCore::new(program.clone()).expect("program validated");
    // Node ids are allocated sequentially on the fresh sim: shards take
    // 0..shard_count, the router takes shard_count, and (when replicated)
    // backups take shard_count+1 .. 2*shard_count+1. Knowing every id up
    // front lets the shards' send routing and replication targets be
    // wired before the nodes are moved into the simulator.
    let router_id: NodeId = shard_count;
    let backup_id = |i: usize| -> NodeId { shard_count + 1 + i };
    let local_mailboxes: Vec<String> = program
        .handlers
        .iter()
        .map(|h| h.name.clone())
        .chain(program.mailboxes.iter().map(|m| m.name.clone()))
        .collect();
    let mut shards = Vec::new();
    let mut shard_handles = Vec::new();
    let mut external_handles = Vec::new();
    for i in 0..shard_count {
        let mut t = Transducer::from_core(Arc::clone(&core));
        if i > 0 {
            t.set_run_condition_handlers(false);
        }
        if config.replicate_shards {
            t.set_journaling(true);
        }
        register_udfs(&mut t);
        let mut node = TransducerNode::new(Rc::new(RefCell::new(t)), config.tick_every_us);
        // Every program-local mailbox forwards through the router, which
        // re-routes by partition key — the cross-shard send rewrite.
        for m in &local_mailboxes {
            node.route(m, vec![router_id]);
        }
        if config.replicate_shards {
            node.with_heartbeat(router_id, config.heartbeat_us, i);
            node.with_replication(
                i,
                backup_id(i),
                // Retransmit well inside the failure-detection window;
                // abandon a backup only after the router would long have
                // declared *it* irrelevant by promoting it or not.
                2 * config.heartbeat_us,
                3 * config.heartbeat_timeout_us,
            );
        }
        shard_handles.push(node.handle());
        external_handles.push(node.external_handle());
        let id = sim.add_node(node, DomainPath::new(i as u32, 0, 0));
        shards.push(id);
    }
    const INFRA_AZ: u32 = u32::MAX;
    let mut router_node = RouterNode::new(shards.clone(), routing);
    if config.replicate_shards {
        router_node = router_node
            .with_failover(
                (0..shard_count).map(|i| Some(backup_id(i))).collect(),
                config.heartbeat_timeout_us,
            )
            .with_retry(RetryCfg {
                base_us: config.retry_base_us,
                max_us: config.retry_max_us,
                budget: config.retry_budget,
            });
    }
    if let Some(ing) = config.ingress {
        router_node = router_node.with_ingress(ing);
    }
    let ledger = router_node.ledger();
    let status = router_node.status();
    let router = sim.add_node(router_node, DomainPath::new(INFRA_AZ, 0, 0));
    assert_eq!(router, router_id, "router id must match the pre-wired routes");

    let mut backups = Vec::new();
    let mut backup_handles = Vec::new();
    if config.replicate_shards {
        for i in 0..shard_count {
            // The dormant serving node the backup becomes on promotion:
            // same routes and heartbeat identity as the primary it covers.
            let t = Transducer::from_core(Arc::clone(&core));
            let mut inner = TransducerNode::new(Rc::new(RefCell::new(t)), config.tick_every_us);
            for m in &local_mailboxes {
                inner.route(m, vec![router_id]);
            }
            inner.with_heartbeat(router_id, config.heartbeat_us, i);
            let node = BackupNode::new(
                i,
                Arc::clone(&core),
                config.checkpoint_every,
                inner,
                Rc::clone(&register_udfs),
            );
            backup_handles.push(node.handle());
            // AZ-independent placement: the backup must not share a
            // failure domain with the primary it covers.
            let primary_path = DomainPath::new(i as u32, 0, 0);
            let backup_az = if shard_count == 1 {
                1
            } else {
                ((i + 1) % shard_count) as u32
            };
            let backup_path = DomainPath::new(backup_az, 0, 1);
            assert!(
                primary_path.az_independent(&backup_path),
                "backup placement must be AZ-independent of its primary"
            );
            let id = sim.add_node(node, backup_path);
            assert_eq!(id, backup_id(i), "backup id must match the wiring");
            backups.push(id);
        }
    }

    for &s in &shards {
        sim.start_timer(s, TICK_TIMER, config.tick_every_us);
        if config.replicate_shards {
            sim.start_timer(s, HB_TIMER, config.heartbeat_us);
            sim.start_timer(s, REPL_TIMER, 2 * config.heartbeat_us);
        }
    }
    if config.replicate_shards {
        sim.start_timer(router, HB_CHECK_TIMER, config.heartbeat_timeout_us / 2);
    }
    if let Some(ing) = config.ingress {
        sim.start_timer(router, INGRESS_TIMER, ing.flush_every_us.max(1));
    }

    ShardedDeployment {
        sim,
        router,
        shards,
        shard_handles,
        external_handles,
        ledger,
        report,
        backups,
        backup_handles,
        status,
        next_request: 0,
    }
}

impl ShardedDeployment {
    /// Submit a client request; returns its request id.
    pub fn client_request(&mut self, mailbox: &str, row: Row) -> u64 {
        let request_id = self.next_request;
        self.next_request += 1;
        self.sim.send_external(
            self.router,
            NetMsg::Request {
                request_id,
                mailbox: mailbox.to_string(),
                row,
                reply_to: self.router,
            },
        );
        request_id
    }

    /// Submit a client request scheduled to *arrive* at the router at an
    /// absolute virtual time — the open-loop injection path: an arrival
    /// process can stamp its whole schedule up front, independent of how
    /// fast the cluster drains. Returns the request id.
    pub fn client_request_at(&mut self, mailbox: &str, row: Row, at: SimTime) -> u64 {
        let request_id = self.next_request;
        self.next_request += 1;
        self.sim.send_external_at(
            self.router,
            NetMsg::Request {
                request_id,
                mailbox: mailbox.to_string(),
                row,
                reply_to: self.router,
            },
            at,
        );
        request_id
    }

    /// Advance virtual time.
    pub fn run_for(&mut self, duration_us: SimTime) {
        let deadline = self.sim.now() + duration_us;
        self.sim.run_until(deadline);
    }

    /// Requests answered so far.
    pub fn answered(&self) -> usize {
        ledger::answered(&self.ledger)
    }

    /// Reply value for a request.
    pub fn reply(&self, request_id: u64) -> Option<Value> {
        ledger::reply(&self.ledger, request_id)
    }

    /// Handle to the transducer currently owning `shard`: the promoted
    /// backup after a failover, the primary otherwise.
    pub fn owner_handle(&self, shard: usize) -> &TransducerHandle {
        if self.status.borrow().promoted_at[shard].is_some() {
            &self.backup_handles[shard]
        } else {
            &self.shard_handles[shard]
        }
    }

    /// When `shard` failed over to its backup, if it did.
    pub fn promoted_at(&self, shard: usize) -> Option<SimTime> {
        self.status.borrow().promoted_at[shard]
    }

    /// Rows of `table` summed across the current partition owners
    /// (partitioned tables are disjoint, global tables live on shard 0
    /// only).
    pub fn table_len(&self, table: &str) -> usize {
        (0..self.shards.len())
            .map(|i| self.owner_handle(i).borrow().table_len(table))
            .sum()
    }

    /// Per-shard row counts of `table` — the partition skew view, over
    /// the current owners.
    pub fn table_len_by_shard(&self, table: &str) -> Vec<usize> {
        (0..self.shards.len())
            .map(|i| self.owner_handle(i).borrow().table_len(table))
            .collect()
    }

    /// External sends collected from all shards, in shard order.
    pub fn external_sends(&self) -> Vec<(String, Row)> {
        let mut all = Vec::new();
        for h in &self.external_handles {
            all.extend(h.borrow().iter().cloned());
        }
        all
    }
}

/// Build and start an **in-process parallel** deployment of `program`:
/// one worker thread per shard driving the analysis-lowered routing spec
/// with delta exchange enabled. This is the single-machine scale-*up*
/// counterpart to [`deploy_sharded`]'s simulated scale-*out* cluster — the
/// worker threads tick in lockstep behind a barrier, so `NeedsExchange`
/// views classified exchange-admissible execute partitioned (the sim
/// deployment must demote them instead; see [`deploy_sharded`]). Enqueue
/// work with [`hydro_core::shard::ParallelShardedTransducer::enqueue`] and
/// drive ticks explicitly.
pub fn deploy_parallel(
    program: &Program,
    shard_count: usize,
    register_udfs: impl Fn(&mut Transducer) + Send + Sync + 'static,
) -> Result<hydro_core::shard::ParallelShardedTransducer, hydro_core::interp::TransducerError> {
    let routing = partition(program).routing();
    let mut t =
        hydro_core::shard::ParallelShardedTransducer::new(program.clone(), routing, shard_count)?;
    t.register_udfs(register_udfs);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydro_core::examples::{covid_program, covid_program_with_vaccines};

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    #[test]
    fn deployed_covid_serves_requests_and_converges() {
        let mut d = deploy(&covid_program(), DeployConfig::default(), |_| {});
        assert_eq!(d.replicas.len(), 3); // f=2 ⇒ 3 replicas
        for pid in 1..=4 {
            d.client_request("add_person", vec![int(pid)]);
        }
        d.run_for(50_000);
        d.client_request("add_contact", vec![int(1), int(2)]);
        d.client_request("add_contact", vec![int(2), int(3)]);
        d.run_for(50_000);
        assert_eq!(d.answered(), 6);
        assert!(d.replicas_converged());
        // Every replica has all four people.
        for h in &d.replica_handles {
            assert_eq!(h.borrow().table_len("people"), 4);
        }
    }

    #[test]
    fn alerts_surface_as_external_sends() {
        let mut d = deploy(&covid_program(), DeployConfig::default(), |_| {});
        for pid in 1..=3 {
            d.client_request("add_person", vec![int(pid)]);
        }
        d.run_for(30_000);
        d.client_request("add_contact", vec![int(1), int(2)]);
        d.run_for(30_000);
        d.client_request("diagnosed", vec![int(1)]);
        d.run_for(30_000);
        let alerts = d.external_sends();
        assert!(alerts.iter().any(|(m, row)| m == "alert" && row[0] == int(2)));
    }

    #[test]
    fn f_failures_tolerated_for_monotone_endpoints() {
        let mut d = deploy(&covid_program(), DeployConfig::default(), |_| {});
        d.client_request("add_person", vec![int(1)]);
        d.run_for(30_000);
        // Kill 2 of the 3 AZs — the declared tolerance (f = 2).
        d.sim.kill_az(1);
        d.sim.kill_az(2);
        d.client_request("add_person", vec![int(2)]);
        d.client_request("trace", vec![int(1)]);
        d.run_for(50_000);
        assert_eq!(d.answered(), 3, "all requests answered despite 2 AZ failures");
    }

    #[test]
    fn serializable_vaccinate_agrees_across_replicas() {
        // Inventory of ONE dose, two concurrent vaccinations: with the
        // sequencer, every replica picks the same winner; exactly one OK.
        let program = covid_program_with_vaccines(1);
        let mut d = deploy(&program, DeployConfig::default(), |_| {});
        assert!(d.sequencer.is_some());
        d.client_request("add_person", vec![int(1)]);
        d.client_request("add_person", vec![int(2)]);
        d.run_for(50_000);
        let r1 = d.client_request("vaccinate", vec![int(1)]);
        let r2 = d.client_request("vaccinate", vec![int(2)]);
        d.run_for(100_000);
        assert!(d.replicas_converged(), "sequenced replicas must agree");
        let oks = [r1, r2]
            .iter()
            .filter(|r| d.reply(**r) == Some(Value::ok()))
            .count();
        assert_eq!(oks, 1, "exactly one dose handed out");
        for h in &d.replica_handles {
            assert_eq!(h.borrow().scalar("vaccine_count"), Some(&Value::Int(0)));
        }
    }

    /// A partitionable KVS: every handler keys `kv` by its first
    /// parameter; `relay` is stateless and *sends* to `put`, exercising
    /// the cross-shard send → routed re-enqueue path.
    fn sharded_kvs_program() -> Program {
        use hydro_core::builder::dsl::*;
        use hydro_core::builder::ProgramBuilder;
        ProgramBuilder::new()
            .table(
                "kv",
                vec![("k", atom()), ("val", atom())],
                &["k"],
                Some("k"),
            )
            .on("put", &["k", "v"], vec![
                insert("kv", vec![v("k"), v("v")]),
                ret(s("ok")),
            ])
            .on("get", &["k"], vec![ret(field("kv", v("k"), "val"))])
            .on("relay", &["k", "v"], vec![
                send_row("put", vec![v("k"), v("v")]),
                ret(s("relayed")),
            ])
            .build()
    }

    #[test]
    fn sharded_deployment_partitions_keys_and_serves_requests() {
        let program = sharded_kvs_program();
        let mut d = deploy_sharded(&program, DeployConfig::default(), 4, |_| {});
        assert_eq!(d.shards.len(), 4);
        assert!(
            !d.report.requires_broadcast(),
            "kvs must shard: {:?}",
            d.report
        );
        let n = 32i64;
        for k in 0..n {
            d.client_request("put", vec![int(k), int(k * 10)]);
        }
        d.run_for(60_000);
        assert_eq!(d.answered(), n as usize);
        // Rows are partitioned: all present overall, spread across shards.
        assert_eq!(d.table_len("kv"), n as usize);
        let by_shard = d.table_len_by_shard("kv");
        assert!(
            by_shard.iter().filter(|&&c| c > 0).count() >= 2,
            "32 keys should land on several shards, got {by_shard:?}"
        );
        // Keyed reads route to the owning shard.
        let r = d.client_request("get", vec![int(7)]);
        d.run_for(30_000);
        assert_eq!(d.reply(r), Some(Value::Int(70)));
    }

    #[test]
    fn sharded_deployment_routes_cross_shard_sends() {
        let program = sharded_kvs_program();
        let mut d = deploy_sharded(&program, DeployConfig::default(), 4, |_| {});
        // relay(k, v) runs on the shard owning hash(k) but sends put(k+1)
        // rows that mostly belong to other shards; the router must land
        // each on its owner.
        for k in 0..16i64 {
            d.client_request("relay", vec![int(k), int(k * 100)]);
        }
        d.run_for(80_000);
        assert_eq!(d.table_len("kv"), 16);
        for k in [0i64, 5, 11, 15] {
            let r = d.client_request("get", vec![int(k)]);
            d.run_for(30_000);
            assert_eq!(d.reply(r), Some(Value::Int(k * 100)));
        }
    }

    #[test]
    fn killed_primary_fails_over_with_no_acked_request_loss() {
        let program = sharded_kvs_program();
        let cfg = DeployConfig {
            replicate_shards: true,
            ..DeployConfig::default()
        };
        let mut d = deploy_sharded(&program, cfg, 4, |_| {});
        assert_eq!(d.backups.len(), 4);
        let n = 32i64;
        let mut put_ids = Vec::new();
        for k in 0..n {
            put_ids.push(d.client_request("put", vec![int(k), int(k * 10)]));
        }
        d.run_for(100_000);
        let acked_before: Vec<u64> = put_ids
            .iter()
            .copied()
            .filter(|r| d.reply(*r) == Some(Value::Str("ok".into())))
            .collect();
        assert!(!acked_before.is_empty(), "load must be acked before the kill");

        // Kill a loaded partition's primary mid-run.
        let victim = d
            .table_len_by_shard("kv")
            .iter()
            .position(|&c| c > 0)
            .expect("some shard holds rows");
        d.sim.kill(d.shards[victim]);
        d.run_for(300_000);
        assert!(
            d.promoted_at(victim).is_some(),
            "router must promote the victim's backup"
        );

        // Every key — including every one acked before the kill — is
        // still readable with its exact value, through the new owner.
        for k in 0..n {
            let r = d.client_request("get", vec![int(k)]);
            d.run_for(40_000);
            assert_eq!(d.reply(r), Some(Value::Int(k * 10)), "key {k} lost");
        }
        assert_eq!(d.table_len("kv"), n as usize);
    }

    #[test]
    fn promoted_backup_matches_a_never_killed_reference() {
        let program = sharded_kvs_program();
        let cfg = DeployConfig {
            replicate_shards: true,
            ..DeployConfig::default()
        };
        let mut faulty = deploy_sharded(&program, cfg, 2, |_| {});
        let mut reference = deploy_sharded(&program, DeployConfig::default(), 2, |_| {});
        for k in 0..24i64 {
            faulty.client_request("put", vec![int(k), int(k + 100)]);
            reference.client_request("put", vec![int(k), int(k + 100)]);
        }
        faulty.run_for(120_000);
        reference.run_for(120_000);
        faulty.sim.kill(faulty.shards[1]);
        faulty.run_for(300_000);
        assert!(faulty.promoted_at(1).is_some());
        // The replayed shard-1 state is bit-identical to the shard that
        // was never killed.
        assert_eq!(
            faulty.owner_handle(1).borrow().state(),
            reference.owner_handle(1).borrow().state(),
            "journal replay must rebuild the exact pre-kill state"
        );
    }

    #[test]
    fn retry_after_promotion_gets_the_served_reply_without_reexecuting() {
        use hydro_core::builder::dsl::*;
        use hydro_core::builder::ProgramBuilder;
        // Not idempotent: every execution bumps the counter.
        let program = ProgramBuilder::new()
            .var("count", int(0))
            .on("bump", &[], vec![
                assign_scalar("count", add(scalar("count"), i(1))),
                ret(add(scalar("count"), i(1))),
            ])
            .build();
        let cfg = DeployConfig {
            replicate_shards: true,
            ..DeployConfig::default()
        };
        let mut d = deploy_sharded(&program, cfg, 1, |_| {});
        let r = d.client_request("bump", vec![]);
        // Run until the primary has served the request, then cut the
        // router off it. The backup still gets the record and acks it, so
        // the primary releases the reply, but the reply (and every later
        // heartbeat) dies on the cut: the router retries, then promotes.
        while d.shard_handles[0].borrow().scalar("count") != Some(&int(1)) {
            assert!(d.sim.step(), "the request must be served");
        }
        d.sim.partition(&[d.router], &[d.shards[0]]);
        d.run_for(300_000);

        assert!(d.promoted_at(0).is_some(), "the backup took the shard over");
        assert!(d.status.borrow().retries >= 1);
        assert!(d.sim.stats().dropped_by_partition >= 1);
        assert_eq!(d.reply(r), Some(int(1)), "the cached reply, not a second run");
        assert_eq!(
            d.owner_handle(0).borrow().scalar("count"),
            Some(&int(1)),
            "the promoted owner must not execute the retry again"
        );
    }

    #[test]
    fn partition_with_no_live_owner_sheds_and_recovers_nothing_extra() {
        let program = sharded_kvs_program();
        let cfg = DeployConfig {
            replicate_shards: true,
            ..DeployConfig::default()
        };
        let mut d = deploy_sharded(&program, cfg, 2, |_| {});
        let routing = d.report.routing();
        // A key owned by shard 1 (shard 0 also hosts the global handlers).
        let k = (1..100i64)
            .find(|k| routing.shard_of("put", &vec![int(*k), int(0)], 2) == 1)
            .unwrap();
        d.client_request("put", vec![int(k), int(7)]);
        d.run_for(60_000);

        // Kill primary AND backup: the partition has no live owner left.
        d.sim.kill(d.shards[1]);
        d.sim.kill(d.backups[1]);
        // First sweep promotes the (dead) backup, the next ones mark the
        // partition down.
        d.run_for(120_000);
        let r = d.client_request("put", vec![int(k), int(8)]);
        d.run_for(40_000);
        assert_eq!(
            d.reply(r),
            Some(Value::Str("OVERLOADED".into())),
            "a dead partition must shed, not hang"
        );
        assert!(d.status.borrow().shed >= 1);
        // Shard 0 keeps serving untouched.
        let k0 = (1..100i64)
            .find(|k| routing.shard_of("put", &vec![int(*k), int(0)], 2) == 0)
            .unwrap();
        let r0 = d.client_request("put", vec![int(k0), int(9)]);
        d.run_for(40_000);
        assert_eq!(d.reply(r0), Some(Value::Str("ok".into())));
    }

    #[test]
    fn retry_budget_exhaustion_answers_unavailable() {
        let program = sharded_kvs_program();
        let cfg = DeployConfig {
            replicate_shards: true,
            // Heartbeat monitoring effectively off: the owner is dead but
            // never failed over, so retries burn their whole budget.
            heartbeat_timeout_us: 10_000_000,
            retry_base_us: 5_000,
            retry_max_us: 10_000,
            retry_budget: 3,
            ..DeployConfig::default()
        };
        let mut d = deploy_sharded(&program, cfg, 2, |_| {});
        let routing = d.report.routing();
        let k = (1..100i64)
            .find(|k| routing.shard_of("put", &vec![int(*k), int(0)], 2) == 1)
            .unwrap();
        d.sim.kill(d.shards[1]);
        let r = d.client_request("put", vec![int(k), int(1)]);
        d.run_for(200_000);
        assert_eq!(
            d.reply(r),
            Some(Value::Str("UNAVAILABLE".into())),
            "an exhausted retry budget must answer, not hang"
        );
        assert_eq!(d.status.borrow().gave_up, 1);
        assert!(d.status.borrow().retries >= 3);
    }

    #[test]
    fn replication_changes_nothing_without_faults() {
        let program = sharded_kvs_program();
        let cfg = DeployConfig {
            replicate_shards: true,
            ..DeployConfig::default()
        };
        let mut replicated = deploy_sharded(&program, cfg, 4, |_| {});
        let mut plain = deploy_sharded(&program, DeployConfig::default(), 4, |_| {});
        for k in 0..16i64 {
            replicated.client_request("relay", vec![int(k), int(k * 3)]);
            plain.client_request("relay", vec![int(k), int(k * 3)]);
        }
        replicated.run_for(150_000);
        plain.run_for(150_000);
        for i in 0..4 {
            assert_eq!(
                replicated.owner_handle(i).borrow().state(),
                plain.owner_handle(i).borrow().state(),
                "shard {i} diverged under fault-free replication"
            );
        }
        assert_eq!(replicated.answered(), 16);
    }

    #[test]
    fn coordinate_everything_baseline_still_correct_but_single_ordered() {
        let cfg = DeployConfig {
            coordinate_everything: true,
            ..DeployConfig::default()
        };
        let mut d = deploy(&covid_program(), cfg, |_| {});
        assert_eq!(d.serialized_handlers.len(), 6);
        d.client_request("add_person", vec![int(1)]);
        d.client_request("add_person", vec![int(2)]);
        d.run_for(60_000);
        assert_eq!(d.answered(), 2);
        assert!(d.replicas_converged());
    }
}

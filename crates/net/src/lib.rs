//! # hydro-net
//!
//! A deterministic discrete-event cluster simulator: the stand-in for the
//! public cloud that the paper's availability (§6) and consistency (§7)
//! facets deploy onto.
//!
//! Why simulate? The paper's claims are about *message orderings* and
//! *failure independence* — properties of the distributed execution, not of
//! EC2. A seeded, single-threaded event queue reproduces exactly those
//! phenomena (asynchronous delay, reordering, loss, partitions, correlated
//! vs. independent failures across VM/rack/DC/AZ domains) while keeping
//! every experiment bit-for-bit reproducible.
//!
//! The model: nodes hold a [`NodeLogic`] state machine; messages carry a
//! user payload type `M`; link latency is `base + hierarchy penalty +
//! jitter` where the penalty grows as endpoints share fewer levels of the
//! failure-domain hierarchy ([`DomainPath`]); messages can be dropped with
//! a configured probability, and node pairs can be partitioned. Time is
//! microseconds on a virtual clock.
//!
//! Each scheduled event lives in its own heap entry and is freed when it
//! runs, so the simulator's storage grows with the events in flight, not
//! with the events a run has executed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashSet;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifies a simulated node.
pub type NodeId = usize;

/// Virtual time in microseconds.
pub type SimTime = u64;

/// The source id used for client-injected (external) messages.
pub const EXTERNAL: NodeId = usize::MAX;

/// Position in the failure-domain hierarchy (§6: "VMs, racks, data centers,
/// or availability zones"). Two nodes' failures are *independent* at a
/// domain level iff they differ at that level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct DomainPath {
    /// Availability zone index.
    pub az: u32,
    /// Rack within the AZ.
    pub rack: u32,
    /// VM within the rack.
    pub vm: u32,
}

impl DomainPath {
    /// Construct a placement.
    pub fn new(az: u32, rack: u32, vm: u32) -> Self {
        DomainPath { az, rack, vm }
    }

    /// Whether two placements are in different domains at the AZ level.
    pub fn az_independent(&self, other: &Self) -> bool {
        self.az != other.az
    }
}

/// Behavior of a node: a deterministic state machine driven by messages and
/// timers. All outputs flow through the [`Ctx`] so the simulator controls
/// delivery.
pub trait NodeLogic<M> {
    /// Handle an inbound message.
    fn on_message(&mut self, ctx: &mut Ctx<M>, src: NodeId, msg: M);

    /// Handle a timer previously set with [`Ctx::set_timer`].
    fn on_timer(&mut self, _ctx: &mut Ctx<M>, _timer: u64) {}
}

/// Per-activation context handed to [`NodeLogic`]: collects sends and timer
/// requests, and exposes the virtual clock.
pub struct Ctx<M> {
    /// This node's id.
    pub self_id: NodeId,
    /// Current virtual time (µs).
    pub now: SimTime,
    sends: Vec<(NodeId, M)>,
    timers: Vec<(SimTime, u64)>,
}

impl<M> Ctx<M> {
    /// Send `msg` to `dst` (delivery time decided by the simulator).
    pub fn send(&mut self, dst: NodeId, msg: M) {
        self.sends.push((dst, msg));
    }

    /// Request `on_timer(timer_id)` after `delay_us` of virtual time.
    pub fn set_timer(&mut self, delay_us: SimTime, timer_id: u64) {
        self.timers.push((delay_us, timer_id));
    }
}

/// Latency / loss model.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Latency floor for same-VM delivery (µs).
    pub base_us: SimTime,
    /// Extra per level of the domain hierarchy not shared: applied once if
    /// racks differ, twice if AZs differ (µs).
    pub hierarchy_penalty_us: SimTime,
    /// Uniform jitter added on top: `[0, jitter_us]` (µs).
    pub jitter_us: SimTime,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            base_us: 100,
            hierarchy_penalty_us: 400,
            jitter_us: 50,
            drop_prob: 0.0,
        }
    }
}

/// Delivery statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Messages submitted for delivery.
    pub sent: u64,
    /// Messages delivered to live nodes.
    pub delivered: u64,
    /// Messages dropped for any reason (always the sum of the three
    /// per-cause counters below).
    pub dropped: u64,
    /// Dropped by random link loss ([`LinkModel::drop_prob`]).
    pub dropped_by_loss: u64,
    /// Dropped because the endpoints were partitioned — at send time or,
    /// for in-flight messages crossing a cut, at delivery time.
    pub dropped_by_partition: u64,
    /// Dropped because the destination node was dead at delivery time.
    pub dropped_by_dead: u64,
    /// Timer events fired.
    pub timers_fired: u64,
}

enum Event<M> {
    Deliver { src: NodeId, dst: NodeId, msg: M },
    Timer { node: NodeId, timer: u64 },
}

/// A queued event with its firing time and schedule sequence number.
/// Ordered by `(at, seq)` alone, reversed, so the max-heap pops the
/// earliest time first and, within one time, the earliest scheduled.
struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<M> Eq for Scheduled<M> {}

impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct NodeSlot<M> {
    logic: Box<dyn NodeLogic<M>>,
    domain: DomainPath,
    alive: bool,
}

/// The discrete-event simulator.
pub struct Sim<M> {
    nodes: Vec<NodeSlot<M>>,
    /// Events in flight, each owning its payload: storage grows with the
    /// events scheduled and not yet run, and an event's entry is freed
    /// when it pops.
    queue: BinaryHeap<Scheduled<M>>,
    link: LinkModel,
    rng: StdRng,
    now: SimTime,
    seq: u64,
    partitions: FxHashSet<(NodeId, NodeId)>,
    stats: NetStats,
}

impl<M: 'static> Sim<M> {
    /// A simulator with the given link model and RNG seed. Identical seeds
    /// and inputs yield identical executions.
    pub fn new(link: LinkModel, seed: u64) -> Self {
        Sim {
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            link,
            rng: StdRng::seed_from_u64(seed),
            now: 0,
            seq: 0,
            partitions: FxHashSet::default(),
            stats: NetStats::default(),
        }
    }

    /// Add a node at a placement; returns its id.
    pub fn add_node(&mut self, logic: impl NodeLogic<M> + 'static, domain: DomainPath) -> NodeId {
        self.nodes.push(NodeSlot {
            logic: Box::new(logic),
            domain,
            alive: true,
        });
        self.nodes.len() - 1
    }

    /// Current virtual time (µs).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// A node's placement.
    pub fn domain_of(&self, node: NodeId) -> DomainPath {
        self.nodes[node].domain
    }

    /// Whether a node is alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes[node].alive
    }

    /// Crash a node: pending and future deliveries to it are dropped.
    pub fn kill(&mut self, node: NodeId) {
        self.nodes[node].alive = false;
    }

    /// Restart a node (state is whatever its logic retained — model a
    /// recovery protocol in the logic itself if needed).
    pub fn revive(&mut self, node: NodeId) {
        self.nodes[node].alive = true;
    }

    /// Kill every node whose placement lies in the given AZ — a correlated
    /// failure of one availability zone.
    pub fn kill_az(&mut self, az: u32) {
        for n in 0..self.nodes.len() {
            if self.nodes[n].domain.az == az {
                self.nodes[n].alive = false;
            }
        }
    }

    /// Partition two groups: messages between them are dropped until
    /// [`Sim::heal`].
    ///
    /// **Cut semantics.** The cut is checked at *both* send and delivery
    /// time: a message crosses only if the link is open at both moments.
    /// In particular, a message already in flight when the partition
    /// lands is **dropped** (a cut severs the wire; packets in transit
    /// are lost, not parked), and symmetrically a message sent during
    /// the partition stays dropped even if [`Sim::heal`] runs before its
    /// would-be delivery time. Both cases count as
    /// [`NetStats::dropped_by_partition`]. Recovery protocols must
    /// therefore tolerate the loss of messages sent *near* the cut, not
    /// just during it — which is what retry/retransmission layers are
    /// for.
    pub fn partition(&mut self, a: &[NodeId], b: &[NodeId]) {
        for &x in a {
            for &y in b {
                self.partitions.insert((x, y));
                self.partitions.insert((y, x));
            }
        }
    }

    /// Remove all partitions.
    pub fn heal(&mut self) {
        self.partitions.clear();
    }

    /// Inject a message from "outside" (a client) into a node, delivered
    /// with normal link latency from a nominal external location.
    pub fn send_external(&mut self, dst: NodeId, msg: M) {
        let latency = self.link.base_us + self.rng.gen_range(0..=self.link.jitter_us);
        self.schedule_deliver(EXTERNAL, dst, msg, latency);
    }

    /// Inject a client message scheduled to *arrive* at an absolute
    /// virtual time — the open-loop injection primitive: an arrival
    /// process (e.g. Poisson) can pre-compute its whole schedule and
    /// stamp each request onto the clock without a feedback loop through
    /// delivery latency. If `at` is already in the past the message
    /// arrives now. No jitter is applied; the caller owns the schedule.
    pub fn send_external_at(&mut self, dst: NodeId, msg: M, at: SimTime) {
        let latency = at.saturating_sub(self.now);
        self.schedule_deliver(EXTERNAL, dst, msg, latency);
    }

    /// Route a message between nodes, applying loss, partitions and
    /// latency. Internal API used by node activations; exposed for drivers
    /// that orchestrate protocols externally.
    pub fn send_internal(&mut self, src: NodeId, dst: NodeId, msg: M) {
        self.stats.sent += 1;
        if self.partitions.contains(&(src, dst)) {
            self.stats.dropped += 1;
            self.stats.dropped_by_partition += 1;
            return;
        }
        if self.link.drop_prob > 0.0 && self.rng.gen_bool(self.link.drop_prob) {
            self.stats.dropped += 1;
            self.stats.dropped_by_loss += 1;
            return;
        }
        let latency = self.latency_between(src, dst);
        self.schedule_deliver(src, dst, msg, latency);
    }

    fn latency_between(&mut self, src: NodeId, dst: NodeId) -> SimTime {
        let (a, b) = if src == EXTERNAL {
            (self.nodes[dst].domain, self.nodes[dst].domain)
        } else {
            (self.nodes[src].domain, self.nodes[dst].domain)
        };
        let hops = if a.az != b.az {
            2
        } else if a.rack != b.rack {
            1
        } else {
            0
        };
        self.link.base_us
            + hops * self.link.hierarchy_penalty_us
            + self.rng.gen_range(0..=self.link.jitter_us)
    }

    fn schedule_deliver(&mut self, src: NodeId, dst: NodeId, msg: M, latency: SimTime) {
        self.schedule(latency, Event::Deliver { src, dst, msg });
    }

    fn schedule_timer(&mut self, node: NodeId, timer: u64, delay: SimTime) {
        self.schedule(delay, Event::Timer { node, timer });
    }

    fn schedule(&mut self, delay: SimTime, event: Event<M>) {
        self.seq += 1;
        self.queue.push(Scheduled {
            at: self.now + delay,
            seq: self.seq,
            event,
        });
    }

    /// Process one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Scheduled { at, event, .. }) = self.queue.pop() else {
            return false;
        };
        self.now = at;
        match event {
            Event::Deliver { src, dst, msg } => {
                // In-flight messages crossing a cut are lost (see
                // [`Sim::partition`] for the full cut semantics).
                if self.partitions.contains(&(src, dst)) {
                    self.stats.dropped += 1;
                    self.stats.dropped_by_partition += 1;
                    return true;
                }
                if !self.nodes[dst].alive {
                    self.stats.dropped += 1;
                    self.stats.dropped_by_dead += 1;
                    return true;
                }
                self.stats.delivered += 1;
                let mut ctx = Ctx {
                    self_id: dst,
                    now: self.now,
                    sends: Vec::new(),
                    timers: Vec::new(),
                };
                self.nodes[dst].logic.on_message(&mut ctx, src, msg);
                self.flush_ctx(dst, ctx);
            }
            Event::Timer { node, timer } => {
                if !self.nodes[node].alive {
                    return true;
                }
                self.stats.timers_fired += 1;
                let mut ctx = Ctx {
                    self_id: node,
                    now: self.now,
                    sends: Vec::new(),
                    timers: Vec::new(),
                };
                self.nodes[node].logic.on_timer(&mut ctx, timer);
                self.flush_ctx(node, ctx);
            }
        }
        true
    }

    fn flush_ctx(&mut self, node: NodeId, ctx: Ctx<M>) {
        for (dst, msg) in ctx.sends {
            self.send_internal(node, dst, msg);
        }
        for (delay, timer) in ctx.timers {
            self.schedule_timer(node, timer, delay);
        }
    }

    /// Run until the queue drains or `max_events` is hit; returns events
    /// processed.
    pub fn run_to_quiescence(&mut self, max_events: usize) -> usize {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Run until virtual time passes `deadline` (or the queue drains).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(next) = self.queue.peek() {
            if next.at > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Mutable access to a node's logic (typed accessors are provided by
    /// `hydro-deploy`'s wrappers).
    pub fn node_logic_mut(&mut self, node: NodeId) -> &mut dyn NodeLogic<M> {
        self.nodes[node].logic.as_mut()
    }

    /// Borrow a node's logic.
    pub fn node_logic(&self, node: NodeId) -> &dyn NodeLogic<M> {
        self.nodes[node].logic.as_ref()
    }

    /// Set a timer on a node from outside (bootstrap tick loops).
    pub fn start_timer(&mut self, node: NodeId, timer: u64, delay: SimTime) {
        self.schedule_timer(node, timer, delay);
    }
}

/// One scheduled fault-injection action (see [`FaultSchedule`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Crash a node ([`Sim::kill`]).
    Kill(NodeId),
    /// Restart a node; its logic keeps whatever state it retained
    /// ([`Sim::revive`]).
    Revive(NodeId),
    /// Cut one node off from every other node, both directions — the
    /// partition shape of an unreachable-but-running machine.
    Isolate(NodeId),
    /// Partition two explicit groups ([`Sim::partition`]).
    Partition(Vec<NodeId>, Vec<NodeId>),
    /// Remove every cut ([`Sim::heal`]).
    Heal,
}

/// A time-ordered schedule of fault actions against a [`Sim`] — the
/// deterministic fault-injection campaign driver. Build one from explicit
/// `(virtual time, action)` pairs (typically derived from a seed by the
/// campaign harness), then either call [`FaultSchedule::apply_due`]
/// inside your own event loop or hand the whole run to
/// [`run_with_faults`]. The same schedule over the same seeded simulator
/// replays bit-identically.
#[derive(Clone, Debug, Default)]
pub struct FaultSchedule {
    events: Vec<(SimTime, FaultAction)>,
    next: usize,
}

impl FaultSchedule {
    /// A schedule from `(time, action)` pairs; sorted by time, ties keep
    /// their given order.
    pub fn new(mut events: Vec<(SimTime, FaultAction)>) -> Self {
        events.sort_by_key(|(t, _)| *t);
        FaultSchedule { events, next: 0 }
    }

    /// The scheduled events, in application order.
    pub fn events(&self) -> &[(SimTime, FaultAction)] {
        &self.events
    }

    /// Virtual time of the next unapplied action, if any.
    pub fn next_at(&self) -> Option<SimTime> {
        self.events.get(self.next).map(|(t, _)| *t)
    }

    /// Whether every action has been applied.
    pub fn is_done(&self) -> bool {
        self.next >= self.events.len()
    }

    /// Apply every action due at or before `sim.now()`; returns how many
    /// were applied.
    pub fn apply_due<M: 'static>(&mut self, sim: &mut Sim<M>) -> usize {
        let mut applied = 0;
        while let Some((t, action)) = self.events.get(self.next) {
            if *t > sim.now() {
                break;
            }
            match action {
                FaultAction::Kill(n) => sim.kill(*n),
                FaultAction::Revive(n) => sim.revive(*n),
                FaultAction::Isolate(n) => {
                    let others: Vec<NodeId> =
                        (0..sim.node_count()).filter(|m| m != n).collect();
                    sim.partition(&[*n], &others);
                }
                FaultAction::Partition(a, b) => sim.partition(a, b),
                FaultAction::Heal => sim.heal(),
            }
            self.next += 1;
            applied += 1;
        }
        applied
    }
}

/// Drive `sim` until `deadline`, injecting `faults` at their scheduled
/// virtual times: the simulator runs up to each fault's timestamp, the
/// fault lands, and the run continues — so a kill scheduled mid-flight
/// interleaves with deliveries exactly as the timestamps dictate.
pub fn run_with_faults<M: 'static>(
    sim: &mut Sim<M>,
    faults: &mut FaultSchedule,
    deadline: SimTime,
) {
    while let Some(t) = faults.next_at() {
        if t > deadline {
            break;
        }
        sim.run_until(t);
        faults.apply_due(sim);
    }
    sim.run_until(deadline);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Echoes every message back to its sender and logs arrivals.
    struct Echo {
        log: Rc<RefCell<Vec<(SimTime, NodeId, u32)>>>,
    }

    impl NodeLogic<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<u32>, src: NodeId, msg: u32) {
            self.log.borrow_mut().push((ctx.now, ctx.self_id, msg));
            if src != EXTERNAL && msg < 3 {
                ctx.send(src, msg + 1);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<u32>, timer: u64) {
            self.log
                .borrow_mut()
                .push((ctx.now, ctx.self_id, timer as u32 + 100));
        }
    }

    type EchoLog = Rc<RefCell<Vec<(SimTime, NodeId, u32)>>>;

    fn two_nodes(seed: u64, link: LinkModel) -> (Sim<u32>, EchoLog) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(link, seed);
        sim.add_node(Echo { log: log.clone() }, DomainPath::new(0, 0, 0));
        sim.add_node(Echo { log: log.clone() }, DomainPath::new(0, 0, 1));
        (sim, log)
    }

    #[test]
    fn messages_chain_between_nodes() {
        // Seed chosen so the external message's jitter draw lands before
        // the internal one's under the vendored PRNG stream (the assert
        // below pins arrival order, which depends on those two draws).
        let (mut sim, log) = two_nodes(8, LinkModel::default());
        // External 0 arrives at node 0 (no echo for external); then an
        // internal 1 sent 0→1 echoes up to 3.
        sim.send_external(0, 5);
        sim.send_internal(0, 1, 1);
        sim.run_to_quiescence(100);
        let msgs: Vec<u32> = log.borrow().iter().map(|e| e.2).collect();
        assert_eq!(msgs, vec![5, 1, 2, 3]);
    }

    #[test]
    fn identical_seeds_identical_schedules() {
        let run = |seed| {
            let (mut sim, log) = two_nodes(seed, LinkModel::default());
            sim.send_internal(0, 1, 1);
            sim.run_to_quiescence(100);
            let v = log.borrow().clone();
            v
        };
        assert_eq!(run(42), run(42));
        // Different seeds shift jitter (times may differ, content equal).
        let a = run(1);
        let b = run(2);
        assert_eq!(
            a.iter().map(|e| e.2).collect::<Vec<_>>(),
            b.iter().map(|e| e.2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cross_az_costs_more_than_same_rack() {
        let link = LinkModel {
            jitter_us: 0,
            ..LinkModel::default()
        };
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(link, 1);
        let a = sim.add_node(Echo { log: log.clone() }, DomainPath::new(0, 0, 0));
        let same_rack = sim.add_node(Echo { log: log.clone() }, DomainPath::new(0, 0, 1));
        let other_az = sim.add_node(Echo { log: log.clone() }, DomainPath::new(1, 0, 0));

        sim.send_internal(a, same_rack, 9);
        let t0 = sim.now();
        sim.run_to_quiescence(10);
        let t_same = sim.now() - t0;

        let t1 = sim.now();
        sim.send_internal(a, other_az, 9);
        sim.run_to_quiescence(10);
        let t_cross = sim.now() - t1;
        assert!(t_cross > t_same, "cross-AZ {t_cross} ≤ same-rack {t_same}");
    }

    #[test]
    fn partitions_block_and_heal_restores() {
        let (mut sim, log) = two_nodes(3, LinkModel::default());
        sim.partition(&[0], &[1]);
        sim.send_internal(0, 1, 9);
        sim.run_to_quiescence(10);
        assert!(log.borrow().is_empty());
        assert_eq!(sim.stats().dropped, 1);
        sim.heal();
        sim.send_internal(0, 1, 9);
        sim.run_to_quiescence(10);
        assert_eq!(log.borrow().len(), 1);
    }

    #[test]
    fn partition_drops_in_flight_messages_crossing_the_cut() {
        // The message is in flight when the cut lands: delivery-time
        // check drops it, counted as a partition drop.
        let (mut sim, log) = two_nodes(3, LinkModel::default());
        sim.send_internal(0, 1, 9);
        sim.partition(&[0], &[1]);
        sim.run_to_quiescence(10);
        assert!(log.borrow().is_empty());
        assert_eq!(sim.stats().dropped_by_partition, 1);
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    fn heal_before_delivery_restores_in_flight_messages() {
        // Cut and heal both happen while the message is in flight: the
        // link is open at send and at delivery, so it goes through.
        let (mut sim, log) = two_nodes(3, LinkModel::default());
        sim.send_internal(0, 1, 9);
        sim.partition(&[0], &[1]);
        sim.heal();
        sim.run_to_quiescence(10);
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(sim.stats().dropped, 0);
    }

    #[test]
    fn drop_causes_are_counted_separately() {
        let (mut sim, _log) = two_nodes(3, LinkModel::default());
        sim.partition(&[0], &[1]);
        sim.send_internal(0, 1, 9); // partition drop (send-time)
        sim.heal();
        sim.kill(1);
        sim.send_internal(0, 1, 9); // dead-destination drop
        sim.run_to_quiescence(10);
        let s = sim.stats();
        assert_eq!(s.dropped_by_partition, 1);
        assert_eq!(s.dropped_by_dead, 1);
        assert_eq!(s.dropped_by_loss, 0);
        assert_eq!(s.dropped, 2);
    }

    #[test]
    fn fault_schedule_applies_actions_at_their_times() {
        let (mut sim, log) = two_nodes(3, LinkModel::default());
        // Node 1 dies at t=10_000 and revives at t=30_000; messages sent
        // while it is down are lost, later ones arrive.
        let mut faults = FaultSchedule::new(vec![
            (30_000, FaultAction::Revive(1)),
            (10_000, FaultAction::Kill(1)),
        ]);
        assert_eq!(faults.next_at(), Some(10_000)); // sorted by time
        sim.send_internal(0, 1, 9); // delivered before the kill
        run_with_faults(&mut sim, &mut faults, 20_000);
        assert!(!sim.is_alive(1));
        sim.send_internal(0, 1, 9); // dropped: node 1 is down
        run_with_faults(&mut sim, &mut faults, 40_000);
        assert!(faults.is_done());
        assert!(sim.is_alive(1));
        sim.send_internal(0, 1, 9); // delivered after revive
        sim.run_to_quiescence(10);
        assert_eq!(log.borrow().len(), 2);
        assert_eq!(sim.stats().dropped_by_dead, 1);
    }

    #[test]
    fn isolate_cuts_a_node_off_and_heal_restores() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<u32> = Sim::new(LinkModel::default(), 7);
        for vm in 0..3 {
            sim.add_node(Echo { log: log.clone() }, DomainPath::new(0, 0, vm));
        }
        let mut faults = FaultSchedule::new(vec![
            (0, FaultAction::Isolate(1)),
            (50_000, FaultAction::Heal),
        ]);
        faults.apply_due(&mut sim);
        sim.send_internal(0, 1, 9); // into the isolated node: dropped
        sim.send_internal(0, 2, 9); // unaffected pair: delivered
        sim.run_until(40_000);
        assert_eq!(log.borrow().len(), 1);
        run_with_faults(&mut sim, &mut faults, 60_000);
        sim.send_internal(0, 1, 9);
        sim.run_to_quiescence(10);
        assert_eq!(log.borrow().len(), 2);
        assert_eq!(sim.stats().dropped_by_partition, 1);
    }

    #[test]
    fn dead_nodes_drop_messages() {
        let (mut sim, log) = two_nodes(3, LinkModel::default());
        sim.kill(1);
        sim.send_internal(0, 1, 9);
        sim.run_to_quiescence(10);
        assert!(log.borrow().is_empty());
        assert!(!sim.is_alive(1));
        sim.revive(1);
        sim.send_internal(0, 1, 5);
        sim.run_to_quiescence(10);
        assert_eq!(log.borrow().len(), 1);
    }

    #[test]
    fn kill_az_is_correlated_failure() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<u32> = Sim::new(LinkModel::default(), 5);
        let n0 = sim.add_node(Echo { log: log.clone() }, DomainPath::new(0, 0, 0));
        let n1 = sim.add_node(Echo { log: log.clone() }, DomainPath::new(0, 1, 0));
        let n2 = sim.add_node(Echo { log: log.clone() }, DomainPath::new(1, 0, 0));
        sim.kill_az(0);
        assert!(!sim.is_alive(n0) && !sim.is_alive(n1));
        assert!(sim.is_alive(n2));
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut sim, log) = two_nodes(3, LinkModel::default());
        sim.start_timer(0, 2, 500);
        sim.start_timer(0, 1, 100);
        sim.run_to_quiescence(10);
        let events: Vec<u32> = log.borrow().iter().map(|e| e.2).collect();
        assert_eq!(events, vec![101, 102]);
    }

    #[test]
    fn lossy_links_drop_statistically() {
        let link = LinkModel {
            drop_prob: 0.5,
            ..LinkModel::default()
        };
        let (mut sim, _log) = two_nodes(11, link);
        for _ in 0..200 {
            sim.send_internal(0, 1, 9);
        }
        sim.run_to_quiescence(500);
        let s = sim.stats();
        assert!(s.dropped > 50 && s.dropped < 150, "dropped={}", s.dropped);
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, log) = two_nodes(3, LinkModel::default());
        sim.start_timer(0, 1, 1_000);
        sim.start_timer(0, 2, 1_000_000);
        sim.run_until(10_000);
        assert_eq!(log.borrow().len(), 1);
        assert!(sim.now() >= 10_000);
    }
}

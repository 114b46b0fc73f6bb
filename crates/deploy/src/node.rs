//! Deployed transducers: HydroLogic nodes on the simulated network.
//!
//! A [`TransducerNode`] wraps a `hydro_core::Transducer` as a
//! `hydro_net::NodeLogic`: inbound requests land in mailboxes, a periodic
//! timer drives the tick loop, responses flow back to the requester, and
//! asynchronous sends are routed by a placement map — or surface as
//! external outputs (e.g. the COVID app's `alert`s). This realizes §3.1's
//! contract that *sends capture unbounded network delay*: delivery times
//! come from the simulator's latency model, not the program.

use hydro_core::eval::Row;
use hydro_core::interp::Transducer;
use hydro_core::Value;
use hydro_net::{Ctx, NodeId, NodeLogic};
use rustc_hash::FxHashMap;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Shared handle to a deployed transducer, for state inspection between
/// simulator events (single-threaded, so `Rc<RefCell>` suffices).
pub type TransducerHandle = Rc<RefCell<Transducer>>;

/// Shared view of a proxy's request ledger.
pub type ProxyLedger = Rc<RefCell<FxHashMap<u64, (u64, Option<(u64, Value)>)>>>;

/// The wire message type shared by all deployed Hydro protocols.
#[derive(Clone, Debug, PartialEq)]
pub enum NetMsg {
    /// A client/proxy request into a handler mailbox, expecting a reply.
    Request {
        /// Correlates the eventual [`NetMsg::Reply`].
        request_id: u64,
        /// Destination mailbox (handler name).
        mailbox: String,
        /// Payload row.
        row: Row,
        /// Where the reply should go.
        reply_to: NodeId,
    },
    /// A handler's reply to a request.
    Reply {
        /// The request being answered.
        request_id: u64,
        /// Which node answered (proxies dedup by request, keep first).
        replica: NodeId,
        /// Reply payload.
        value: Value,
    },
    /// A routed asynchronous send (no reply expected).
    Forward {
        /// Destination mailbox.
        mailbox: String,
        /// Payload row.
        row: Row,
    },
    /// Submit an operation to a sequencer for total ordering.
    SeqSubmit {
        /// Request id for the eventual reply.
        request_id: u64,
        /// Destination mailbox.
        mailbox: String,
        /// Payload row.
        row: Row,
        /// Final reply destination.
        reply_to: NodeId,
    },
    /// A sequenced operation broadcast to replicas in a fixed order.
    SeqOrder {
        /// Position in the total order.
        seq_no: u64,
        /// Request id.
        request_id: u64,
        /// Destination mailbox.
        mailbox: String,
        /// Payload row.
        row: Row,
        /// Reply destination.
        reply_to: NodeId,
    },
    /// Two-phase commit: coordinator asks a participant to prepare.
    Prepare {
        /// Transaction id.
        txid: u64,
        /// Operation payload the participant will apply on commit.
        mailbox: String,
        /// Payload row.
        row: Row,
    },
    /// Participant's vote.
    Vote {
        /// Transaction id.
        txid: u64,
        /// Yes/no.
        commit: bool,
    },
    /// Coordinator's decision.
    Decide {
        /// Transaction id.
        txid: u64,
        /// Commit or abort.
        commit: bool,
    },
    /// 2PC participant acknowledgment of a decision.
    Ack {
        /// Transaction id.
        txid: u64,
    },
    /// Primary → backup: one recovery-journal record, plus the
    /// deploy-layer request state committed with it (see the module docs
    /// of [`crate::deployment`] for the replication protocol).
    ReplDelta {
        /// Partition this stream replicates.
        shard: usize,
        /// Position in the primary's delta sequence (applied in order).
        seq: u64,
        /// The journaled state delta (boxed: it dwarfs other variants).
        delta: Box<hydro_core::JournalDelta>,
        /// Replies this delta's tick produced: `(request_id, value)` —
        /// replicated *before* release so a promoted backup can re-serve
        /// them to retries.
        served: Vec<(u64, Value)>,
        /// Post-tick snapshot of unanswered requests:
        /// `(message_id, request_id, reply_to)`.
        pending: Vec<(u64, u64, NodeId)>,
    },
    /// Backup → primary: cumulative acknowledgment — every delta with
    /// `seq <= ack` is applied durably on the backup.
    ReplAck {
        /// Partition.
        shard: usize,
        /// Highest contiguously applied sequence number.
        seq: u64,
    },
    /// Shard owner → router: liveness beacon.
    Heartbeat {
        /// Partition the sender currently owns.
        shard: usize,
    },
    /// Router → backup: the primary's heartbeats stopped; replay the log
    /// and take the partition over.
    Promote {
        /// Partition to assume.
        shard: usize,
    },
}

/// Timer id used for the transducer tick loop.
pub const TICK_TIMER: u64 = 1;
/// Timer id for a shard owner's heartbeat beacon.
pub const HB_TIMER: u64 = 2;
/// Timer id for primary → backup retransmission of unacked deltas.
pub const REPL_TIMER: u64 = 3;
/// Timer id for the router's periodic heartbeat staleness check.
pub const HB_CHECK_TIMER: u64 = 2;
/// High-bit flag marking a router timer as a per-request retry alarm;
/// the low bits carry the request id. Request ids stay well below 2^63.
pub const RETRY_TIMER_FLAG: u64 = 1 << 63;
/// Timer id for the router's ingress micro-batch flush loop.
pub const INGRESS_TIMER: u64 = 4;

/// One output a tick produced, possibly held back until the backup acks
/// the journal record covering it (synchronous replication).
enum Outbound {
    /// A reply to a client/router request.
    Reply {
        to: NodeId,
        request_id: u64,
        value: Value,
    },
    /// A routed asynchronous send.
    Forward {
        to: NodeId,
        mailbox: String,
        row: Row,
    },
    /// A send to an external endpoint.
    External { mailbox: String, row: Row },
}

/// Primary-side replication state toward one backup.
struct Repl {
    /// Partition this node owns.
    shard: usize,
    /// The backup node receiving the delta stream.
    backup: NodeId,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Sent but unacked records, kept for retransmission.
    unacked: std::collections::BTreeMap<u64, NetMsg>,
    /// Outputs held until the record covering them is acked.
    held: std::collections::BTreeMap<u64, Vec<Outbound>>,
    /// Virtual time of the last ack received.
    last_ack_us: u64,
    /// Retransmit cadence for unacked records.
    retransmit_every_us: u64,
    /// Give up on the backup after this long without an ack (the router
    /// only promotes when the *primary* goes silent, so abandoning a dead
    /// backup and running unreplicated is safe — no second writer).
    backup_timeout_us: u64,
}

/// A transducer hosted on a simulated node.
pub struct TransducerNode {
    transducer: TransducerHandle,
    /// Mailbox name → nodes hosting it (for routing async sends).
    placement: FxHashMap<String, Vec<NodeId>>,
    /// Sends to mailboxes not in the placement map (external endpoints).
    external: Rc<RefCell<Vec<(String, Row)>>>,
    /// Pending replies: message id → (request id, reply node).
    pending: FxHashMap<u64, (u64, NodeId)>,
    /// Sequencer ordering state: next sequence number expected.
    next_seq: u64,
    /// Out-of-order sequenced operations buffered until their turn.
    seq_buffer: FxHashMap<u64, (u64, String, Row, NodeId)>,
    /// Exactly-once request dedup: released replies by request id. A
    /// retried request whose reply was already sent gets the cached value
    /// re-sent instead of a second enqueue.
    served: FxHashMap<u64, Value>,
    /// Request ids accepted but not yet *released* (enqueued, or answered
    /// with the reply still held for replication). Retries of these are
    /// dropped — answering early would break the ack-before-reply
    /// invariant.
    enqueued: rustc_hash::FxHashSet<u64>,
    /// Heartbeat beacon: (router, period µs, owned partition).
    heartbeat: Option<(NodeId, u64, usize)>,
    /// Primary → backup replication, when this node is a primary.
    repl: Option<Repl>,
    tick_every_us: u64,
    /// Count of ticks executed.
    pub ticks: u64,
}

impl TransducerNode {
    /// Host `transducer`, ticking every `tick_every_us` of virtual time.
    pub fn new(transducer: TransducerHandle, tick_every_us: u64) -> Self {
        TransducerNode {
            transducer,
            placement: FxHashMap::default(),
            external: Rc::new(RefCell::new(Vec::new())),
            pending: FxHashMap::default(),
            next_seq: 0,
            seq_buffer: FxHashMap::default(),
            served: FxHashMap::default(),
            enqueued: rustc_hash::FxHashSet::default(),
            heartbeat: None,
            repl: None,
            tick_every_us,
            ticks: 0,
        }
    }

    /// Route async sends to `mailbox` toward `nodes`.
    pub fn route(&mut self, mailbox: &str, nodes: Vec<NodeId>) {
        self.placement.insert(mailbox.to_string(), nodes);
    }

    /// Beacon liveness for `shard` to `router` every `every_us`. The
    /// deployment must also start the [`HB_TIMER`] loop.
    pub fn with_heartbeat(&mut self, router: NodeId, every_us: u64, shard: usize) {
        self.heartbeat = Some((router, every_us, shard));
    }

    /// Stream journal deltas for `shard` to `backup`, holding every
    /// output until the covering record is acked. The caller must enable
    /// journaling on the wrapped transducer and start the [`REPL_TIMER`]
    /// loop.
    pub fn with_replication(
        &mut self,
        shard: usize,
        backup: NodeId,
        retransmit_every_us: u64,
        backup_timeout_us: u64,
    ) {
        self.repl = Some(Repl {
            shard,
            backup,
            next_seq: 0,
            unacked: std::collections::BTreeMap::new(),
            held: std::collections::BTreeMap::new(),
            last_ack_us: 0,
            retransmit_every_us,
            backup_timeout_us,
        });
    }

    /// Shared handle to the wrapped transducer.
    pub fn handle(&self) -> TransducerHandle {
        Rc::clone(&self.transducer)
    }

    /// Shared handle to externally-addressed sends.
    pub fn external_handle(&self) -> Rc<RefCell<Vec<(String, Row)>>> {
        Rc::clone(&self.external)
    }

    fn enqueue_request(&mut self, request_id: u64, mailbox: &str, row: Row, reply_to: NodeId) {
        if let Ok(msg_id) = self.transducer.borrow_mut().enqueue(mailbox, row) {
            self.pending.insert(msg_id, (request_id, reply_to));
            self.enqueued.insert(request_id);
        }
    }

    /// Handle an inbound request with exactly-once dedup: a request id
    /// still in flight is dropped (its reply will arrive — answering a
    /// retry early would leak a reply the backup hasn't covered), an
    /// already-served id gets its cached reply re-sent, and only a fresh
    /// id is enqueued.
    fn on_request(
        &mut self,
        ctx: &mut Ctx<NetMsg>,
        request_id: u64,
        mailbox: &str,
        row: Row,
        reply_to: NodeId,
    ) {
        if self.enqueued.contains(&request_id) {
            return;
        }
        if let Some(value) = self.served.get(&request_id) {
            ctx.send(
                reply_to,
                NetMsg::Reply {
                    request_id,
                    replica: ctx.self_id,
                    value: value.clone(),
                },
            );
            return;
        }
        self.enqueue_request(request_id, mailbox, row, reply_to);
    }

    /// Emit released outputs onto the network. Releasing a reply retires
    /// its request id from the in-flight set (retries now hit the served
    /// cache instead of being dropped).
    fn release(&mut self, ctx: &mut Ctx<NetMsg>, outbound: Vec<Outbound>) {
        for o in outbound {
            match o {
                Outbound::Reply {
                    to,
                    request_id,
                    value,
                } => {
                    self.enqueued.remove(&request_id);
                    ctx.send(
                        to,
                        NetMsg::Reply {
                            request_id,
                            replica: ctx.self_id,
                            value,
                        },
                    );
                }
                Outbound::Forward { to, mailbox, row } => {
                    ctx.send(to, NetMsg::Forward { mailbox, row });
                }
                Outbound::External { mailbox, row } => {
                    self.external.borrow_mut().push((mailbox, row));
                }
            }
        }
    }

    fn run_tick(&mut self, ctx: &mut Ctx<NetMsg>) {
        let Ok(out) = self.transducer.borrow_mut().tick() else {
            return;
        };
        self.ticks += 1;
        let mut outbound: Vec<Outbound> = Vec::new();
        let mut served_now: Vec<(u64, Value)> = Vec::new();
        for resp in out.responses {
            if let Some((request_id, reply_to)) = self.pending.remove(&resp.message_id) {
                // Served is recorded at *tick* time, atomically with the
                // effects — it travels in the same ReplDelta, so a backup
                // that has the effects can also re-serve the reply.
                self.served.insert(request_id, resp.value.clone());
                served_now.push((request_id, resp.value.clone()));
                outbound.push(Outbound::Reply {
                    to: reply_to,
                    request_id,
                    value: resp.value,
                });
            }
        }
        for send in out.sends {
            // Response mailboxes were already answered above.
            if send.mailbox.ends_with("@response") {
                continue;
            }
            match self.placement.get(&send.mailbox) {
                Some(nodes) => {
                    for &n in nodes {
                        outbound.push(Outbound::Forward {
                            to: n,
                            mailbox: send.mailbox.clone(),
                            row: send.row.clone(),
                        });
                    }
                }
                None => outbound.push(Outbound::External {
                    mailbox: send.mailbox,
                    row: send.row,
                }),
            }
        }

        if self.repl.is_some() {
            let delta = self.transducer.borrow_mut().take_journal_delta();
            match delta {
                Some(delta) => {
                    let mut pending_snapshot: Vec<(u64, u64, NodeId)> = self
                        .pending
                        .iter()
                        .map(|(msg_id, (rid, reply_to))| (*msg_id, *rid, *reply_to))
                        .collect();
                    pending_snapshot.sort_unstable();
                    let repl = self.repl.as_mut().expect("checked above");
                    let seq = repl.next_seq;
                    repl.next_seq += 1;
                    let msg = NetMsg::ReplDelta {
                        shard: repl.shard,
                        seq,
                        delta: Box::new(delta),
                        served: served_now,
                        pending: pending_snapshot,
                    };
                    repl.unacked.insert(seq, msg.clone());
                    repl.held.insert(seq, outbound);
                    let backup = repl.backup;
                    ctx.send(backup, msg);
                }
                // No journal record at all (journaling was switched off):
                // nothing to cover the outputs, release directly.
                None => self.release(ctx, outbound),
            }
        } else {
            self.release(ctx, outbound);
        }
    }

    /// Process a cumulative ack from the backup: drop retransmit state
    /// and release every held batch covered by it, in sequence order.
    fn on_repl_ack(&mut self, ctx: &mut Ctx<NetMsg>, seq: u64) {
        let mut batches: Vec<Vec<Outbound>> = Vec::new();
        if let Some(repl) = self.repl.as_mut() {
            repl.last_ack_us = ctx.now;
            while let Some((&s, _)) = repl.unacked.first_key_value() {
                if s > seq {
                    break;
                }
                repl.unacked.remove(&s);
            }
            while let Some((&s, _)) = repl.held.first_key_value() {
                if s > seq {
                    break;
                }
                batches.push(repl.held.remove(&s).expect("peeked"));
            }
        }
        for b in batches {
            self.release(ctx, b);
        }
    }

    /// Retransmit unacked records; abandon a backup that has been silent
    /// past its timeout (release everything held and run unreplicated).
    fn on_repl_timer(&mut self, ctx: &mut Ctx<NetMsg>) {
        let Some(repl) = self.repl.as_ref() else {
            return; // replication abandoned: let the timer loop die
        };
        let silent_too_long = !repl.unacked.is_empty()
            && ctx.now.saturating_sub(repl.last_ack_us) > repl.backup_timeout_us;
        if silent_too_long {
            let repl = self.repl.take().expect("checked above");
            self.transducer.borrow_mut().set_journaling(false);
            for (_, batch) in repl.held {
                self.release(ctx, batch);
            }
            return;
        }
        let retx: Vec<(NodeId, NetMsg)> = repl
            .unacked
            .values()
            .map(|m| (repl.backup, m.clone()))
            .collect();
        let every = repl.retransmit_every_us;
        for (to, m) in retx {
            ctx.send(to, m);
        }
        ctx.set_timer(every, REPL_TIMER);
    }
}

impl NodeLogic<NetMsg> for TransducerNode {
    fn on_message(&mut self, ctx: &mut Ctx<NetMsg>, _src: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Request {
                request_id,
                mailbox,
                row,
                reply_to,
            } => self.on_request(ctx, request_id, &mailbox, row, reply_to),
            NetMsg::Forward { mailbox, row } => {
                let _ = self.transducer.borrow_mut().enqueue(&mailbox, row);
            }
            NetMsg::SeqOrder {
                seq_no,
                request_id,
                mailbox,
                row,
                reply_to,
            } => {
                // Replicas apply sequenced operations strictly in order:
                // buffer gaps, then drain.
                self.seq_buffer
                    .insert(seq_no, (request_id, mailbox, row, reply_to));
                while let Some((rid, mb, r, rt)) = self.seq_buffer.remove(&self.next_seq) {
                    self.enqueue_request(rid, &mb, r, rt);
                    self.next_seq += 1;
                }
            }
            NetMsg::ReplAck { seq, .. } => self.on_repl_ack(ctx, seq),
            // Transducer replicas ignore protocol traffic not meant for
            // them; coordination roles live in dedicated node types.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<NetMsg>, timer: u64) {
        match timer {
            TICK_TIMER => {
                self.run_tick(ctx);
                ctx.set_timer(self.tick_every_us, TICK_TIMER);
            }
            HB_TIMER => {
                if let Some((router, every_us, shard)) = self.heartbeat {
                    ctx.send(router, NetMsg::Heartbeat { shard });
                    ctx.set_timer(every_us, HB_TIMER);
                }
            }
            REPL_TIMER => self.on_repl_timer(ctx),
            _ => {}
        }
    }
}

/// A passive, AZ-independent replica of one shard: applies the primary's
/// [`NetMsg::ReplDelta`] stream into a [`hydro_core::RecoveryLog`]
/// (checkpoint + deltas, compacted at the checkpoint cadence) and acks
/// cumulatively. On [`NetMsg::Promote`] it consumes the log into a
/// bit-identical replacement transducer, moves the replicated request
/// state (served replies, unanswered requests) into it, and becomes an
/// ordinary serving [`TransducerNode`] — heartbeating as the partition's
/// new owner. Everything after promotion delegates to the inner node.
pub struct BackupNode {
    shard: usize,
    core: Arc<hydro_core::ProgramCore>,
    /// The replicated state while passive; `None` once promoted, when it
    /// has moved into `inner`.
    passive: Option<Passive>,
    /// The dormant serving node (placement routes and heartbeat already
    /// wired); its transducer is replaced by the replayed one on promote.
    inner: TransducerNode,
    /// How the replayed transducer re-binds its UDFs (closures don't
    /// journal; re-registration is the caller's recovery obligation).
    register_udfs: Rc<dyn Fn(&mut Transducer)>,
}

/// A passive backup's copy of its primary.
struct Passive {
    log: hydro_core::RecoveryLog,
    /// Next replication sequence number expected.
    next_seq: u64,
    /// Out-of-order delta records buffered until their turn.
    buffer: std::collections::BTreeMap<u64, NetMsg>,
    /// Replicated released/held replies by request id.
    served: FxHashMap<u64, Value>,
    /// Replicated post-tick pending snapshot: (msg id, request id, node).
    pending: Vec<(u64, u64, NodeId)>,
}

impl Passive {
    /// Apply one in-order delta record.
    fn apply(&mut self, msg: NetMsg) {
        let NetMsg::ReplDelta {
            delta,
            served,
            pending,
            ..
        } = msg
        else {
            return;
        };
        self.log.append(*delta);
        self.served.extend(served);
        self.pending = pending;
        self.next_seq += 1;
    }
}

impl BackupNode {
    /// A backup for `shard`, replaying over `core` with a fresh-instance
    /// base checkpoint and `checkpoint_every` compaction cadence. `inner`
    /// must be a fully-wired (routes, heartbeat) but idle serving node.
    pub fn new(
        shard: usize,
        core: Arc<hydro_core::ProgramCore>,
        checkpoint_every: usize,
        inner: TransducerNode,
        register_udfs: Rc<dyn Fn(&mut Transducer)>,
    ) -> Self {
        let base = Transducer::from_core(Arc::clone(&core)).checkpoint();
        BackupNode {
            shard,
            core,
            passive: Some(Passive {
                log: hydro_core::RecoveryLog::new(base, checkpoint_every),
                next_seq: 0,
                buffer: std::collections::BTreeMap::new(),
                served: FxHashMap::default(),
                pending: Vec::new(),
            }),
            inner,
            register_udfs,
        }
    }

    /// Shared handle to the inner transducer (meaningful after promotion;
    /// before it, the instance is the untouched placeholder).
    pub fn handle(&self) -> TransducerHandle {
        self.inner.handle()
    }

    /// Shared handle to externally-addressed sends (post-promotion).
    pub fn external_handle(&self) -> Rc<RefCell<Vec<(String, Row)>>> {
        self.inner.external_handle()
    }

    /// Whether this backup has been promoted to partition owner.
    pub fn promoted(&self) -> bool {
        self.passive.is_none()
    }

    /// Replay the log and take over the partition. The log, the served
    /// cache and the pending snapshot move into the serving node; the
    /// reorder buffer is dropped.
    fn promote(&mut self, ctx: &mut Ctx<NetMsg>) {
        let Some(passive) = self.passive.take() else {
            return;
        };
        let mut t = passive.log.into_transducer(Arc::clone(&self.core));
        t.set_run_condition_handlers(self.shard == 0);
        (self.register_udfs)(&mut t);
        *self.inner.transducer.borrow_mut() = t;
        self.inner.enqueued = passive.pending.iter().map(|(_, rid, _)| *rid).collect();
        self.inner.pending = passive
            .pending
            .into_iter()
            .map(|(msg_id, rid, reply_to)| (msg_id, (rid, reply_to)))
            .collect();
        self.inner.served = passive.served;
        // Start serving: tick loop now, ownership beacon immediately so
        // the router's staleness clock resets to the real owner.
        ctx.set_timer(self.inner.tick_every_us, TICK_TIMER);
        if self.inner.heartbeat.is_some() {
            ctx.set_timer(1, HB_TIMER);
        }
    }
}

impl NodeLogic<NetMsg> for BackupNode {
    fn on_message(&mut self, ctx: &mut Ctx<NetMsg>, src: NodeId, msg: NetMsg) {
        let Some(passive) = self.passive.as_mut() else {
            match msg {
                // Late replication traffic from a revived old primary is
                // ignored: this node owns the partition now.
                NetMsg::ReplDelta { .. } | NetMsg::Promote { .. } => {}
                other => self.inner.on_message(ctx, src, other),
            }
            return;
        };
        match msg {
            NetMsg::ReplDelta { shard, seq, .. } => {
                debug_assert_eq!(shard, self.shard);
                if seq >= passive.next_seq {
                    passive.buffer.insert(seq, msg);
                    while let Some(m) = passive.buffer.remove(&passive.next_seq) {
                        passive.apply(m);
                    }
                }
                // Cumulative ack — also re-acks retransmitted duplicates.
                if passive.next_seq > 0 {
                    ctx.send(
                        src,
                        NetMsg::ReplAck {
                            shard: self.shard,
                            seq: passive.next_seq - 1,
                        },
                    );
                }
            }
            NetMsg::Promote { shard } => {
                debug_assert_eq!(shard, self.shard);
                self.promote(ctx);
            }
            // Passive backups serve nothing: requests and forwards are
            // dropped (the router's retry loop re-sends them after
            // promotion flips ownership).
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<NetMsg>, timer: u64) {
        if self.promoted() {
            self.inner.on_timer(ctx, timer);
        }
    }
}

/// A client-facing load-balancing proxy (§6.1): forwards each request to
/// `f+1` (here: all) replicas of the endpoint and "makes sure that a
/// response gets to the client" — the first reply wins, duplicates are
/// dropped.
pub struct ProxyNode {
    /// Replicas of the service, in placement order.
    pub replicas: Vec<NodeId>,
    /// Sequencer node for serializable handlers, if any.
    pub sequencer: Option<NodeId>,
    /// Handler names that must be routed through the sequencer.
    pub serialized_handlers: Vec<String>,
    /// request id → (submit time, first reply time+value). Shared with the
    /// deployment for inspection.
    completed: ProxyLedger,
}

impl ProxyNode {
    /// A proxy over `replicas`.
    pub fn new(replicas: Vec<NodeId>) -> Self {
        ProxyNode {
            replicas,
            sequencer: None,
            serialized_handlers: Vec::new(),
            completed: Rc::new(RefCell::new(FxHashMap::default())),
        }
    }

    /// Shared handle to the request ledger.
    pub fn ledger(&self) -> ProxyLedger {
        Rc::clone(&self.completed)
    }

    /// Route the named handlers through a sequencer node.
    pub fn with_sequencer(mut self, sequencer: NodeId, handlers: Vec<String>) -> Self {
        self.sequencer = Some(sequencer);
        self.serialized_handlers = handlers;
        self
    }

}

impl NodeLogic<NetMsg> for ProxyNode {
    fn on_message(&mut self, ctx: &mut Ctx<NetMsg>, _src: NodeId, msg: NetMsg) {
        match msg {
            // Clients inject `Request`s with ids of their choosing; the
            // proxy records them and fans out (or serializes).
            NetMsg::Request {
                request_id,
                mailbox,
                row,
                ..
            } => {
                self.completed
                    .borrow_mut()
                    .insert(request_id, (ctx.now, None));
                if self.serialized_handlers.contains(&mailbox) {
                    if let Some(seq) = self.sequencer {
                        ctx.send(
                            seq,
                            NetMsg::SeqSubmit {
                                request_id,
                                mailbox,
                                row,
                                reply_to: ctx.self_id,
                            },
                        );
                        return;
                    }
                }
                for &r in &self.replicas {
                    ctx.send(
                        r,
                        NetMsg::Request {
                            request_id,
                            mailbox: mailbox.clone(),
                            row: row.clone(),
                            reply_to: ctx.self_id,
                        },
                    );
                }
            }
            NetMsg::Reply {
                request_id, value, ..
            } => {
                if let Some((_, reply)) = self.completed.borrow_mut().get_mut(&request_id) {
                    if reply.is_none() {
                        *reply = Some((ctx.now, value));
                    }
                }
            }
            _ => {}
        }
    }
}

/// Read-side helpers over a [`ProxyLedger`].
pub mod ledger {
    use super::*;

    /// Number of requests answered.
    pub fn answered(l: &ProxyLedger) -> usize {
        l.borrow().values().filter(|(_, r)| r.is_some()).count()
    }

    /// Number of requests submitted.
    pub fn submitted(l: &ProxyLedger) -> usize {
        l.borrow().len()
    }

    /// Sorted latencies (µs) of answered requests.
    pub fn latencies_us(l: &ProxyLedger) -> Vec<u64> {
        let mut v: Vec<u64> = l
            .borrow()
            .values()
            .filter_map(|(t0, r)| r.as_ref().map(|(t1, _)| t1.saturating_sub(*t0)))
            .collect();
        v.sort_unstable();
        v
    }

    /// Reply value for a request, if answered.
    pub fn reply(l: &ProxyLedger, request_id: u64) -> Option<Value> {
        l.borrow()
            .get(&request_id)
            .and_then(|(_, r)| r.as_ref().map(|(_, v)| v.clone()))
    }

    /// Latency (µs) of one answered request.
    pub fn latency_of(l: &ProxyLedger, request_id: u64) -> Option<u64> {
        l.borrow()
            .get(&request_id)
            .and_then(|(t0, r)| r.as_ref().map(|(t1, _)| t1.saturating_sub(*t0)))
    }
}

/// A client-facing partition router: the sharded counterpart of
/// [`ProxyNode`]. Each request is sent to exactly *one* shard — the one
/// owning the routing key's hash partition (per the key-partition
/// analysis's `RoutingSpec`) — instead of being fanned out to every
/// replica. Asynchronous `Forward`s from shards loop back through the
/// router too, which is how a cross-shard send becomes a routed
/// re-enqueue on the owning shard.
pub struct RouterNode {
    /// Current owner per partition, index = shard id (shard 0 global).
    /// Failover swaps the entry to the promoted backup.
    pub shards: Vec<NodeId>,
    routing: hydro_core::shard::RoutingSpec,
    /// request id → (submit time, first reply time+value).
    completed: ProxyLedger,
    /// AZ-independent backup per partition (`None` = unreplicated).
    backups: Vec<Option<NodeId>>,
    /// Whether the partition already failed over (one promotion per
    /// partition: f = 1).
    promoted: Vec<bool>,
    /// Partition has no live owner left — new requests are shed.
    down: Vec<bool>,
    /// Last heartbeat received from the *current* owner.
    last_heard: Vec<u64>,
    /// Heartbeat staleness threshold (0 = failover monitoring off).
    hb_timeout_us: u64,
    /// Per-request retry policy, when enabled.
    retry: Option<RetryCfg>,
    /// Unanswered requests eligible for retry.
    outstanding: FxHashMap<u64, OutstandingReq>,
    /// Bounded per-shard ingress queues, when enabled.
    ingress: Option<IngressState>,
    /// Shared fault-handling counters.
    status: RouterStatus,
}

/// Bounded-exponential-backoff retry policy for router requests.
#[derive(Clone, Copy, Debug)]
pub struct RetryCfg {
    /// First retry fires this long after the request is forwarded.
    pub base_us: u64,
    /// Backoff ceiling.
    pub max_us: u64,
    /// Retries after which the router gives up and answers `UNAVAILABLE`.
    pub budget: u32,
}

struct OutstandingReq {
    mailbox: String,
    row: Row,
    attempts: u32,
}

/// Bounded per-shard ingress queueing at the router (the deploy-layer
/// mirror of `hydro_core::serve`'s backpressure contract): requests are
/// parked in a per-shard queue and flushed to the owning shard in
/// micro-batches on a timer, and a full queue sheds with an immediate
/// `OVERLOADED` reply counted in
/// [`RouterStatusInner::shed_queue_full`].
#[derive(Clone, Copy, Debug)]
pub struct IngressCfg {
    /// Per-shard queue capacity; arrivals beyond it are shed.
    pub queue_cap: usize,
    /// Flush cadence (µs of virtual time).
    pub flush_every_us: u64,
    /// Max requests forwarded to one shard per flush.
    pub batch_max: usize,
}

impl Default for IngressCfg {
    fn default() -> Self {
        IngressCfg {
            queue_cap: 1024,
            flush_every_us: 500,
            batch_max: 64,
        }
    }
}

struct IngressState {
    cfg: IngressCfg,
    /// Parked requests per shard: (request id, mailbox, row).
    queues: Vec<std::collections::VecDeque<(u64, String, Row)>>,
}

/// Shared, inspectable fault-handling state of a [`RouterNode`].
#[derive(Clone, Debug, Default)]
pub struct RouterStatusInner {
    /// Promotion time per partition (`None` = primary still owns it).
    pub promoted_at: Vec<Option<u64>>,
    /// Requests shed with an immediate `OVERLOADED` reply because the
    /// target partition had **no live owner**. Backpressure sheds are
    /// counted separately in [`shed_queue_full`](Self::shed_queue_full) —
    /// the two have different remedies (capacity vs. repair), so folding
    /// them together would make the operator signal useless.
    pub shed: u64,
    /// Requests shed with an immediate `OVERLOADED` reply because the
    /// owning shard's bounded ingress queue was full (see
    /// [`RouterNode::with_ingress`]): the load signal, distinct from the
    /// availability signal above.
    pub shed_queue_full: u64,
    /// Retransmissions performed.
    pub retries: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub gave_up: u64,
}

/// Shared handle to a router's fault-handling counters.
pub type RouterStatus = Rc<RefCell<RouterStatusInner>>;

impl RouterNode {
    /// A router over `shards` applying `routing`.
    pub fn new(shards: Vec<NodeId>, routing: hydro_core::shard::RoutingSpec) -> Self {
        let n = shards.len();
        RouterNode {
            shards,
            routing,
            completed: Rc::new(RefCell::new(FxHashMap::default())),
            backups: vec![None; n],
            promoted: vec![false; n],
            down: vec![false; n],
            last_heard: vec![0; n],
            hb_timeout_us: 0,
            retry: None,
            outstanding: FxHashMap::default(),
            ingress: None,
            status: Rc::new(RefCell::new(RouterStatusInner {
                promoted_at: vec![None; n],
                ..RouterStatusInner::default()
            })),
        }
    }

    /// Monitor owner heartbeats with staleness threshold `hb_timeout_us`
    /// and fail a silent partition over to its backup. The deployment
    /// must start the [`HB_CHECK_TIMER`] loop.
    pub fn with_failover(mut self, backups: Vec<Option<NodeId>>, hb_timeout_us: u64) -> Self {
        assert_eq!(backups.len(), self.shards.len());
        self.backups = backups;
        self.hb_timeout_us = hb_timeout_us;
        self
    }

    /// Retry unanswered requests per `cfg`.
    pub fn with_retry(mut self, cfg: RetryCfg) -> Self {
        self.retry = Some(cfg);
        self
    }

    /// Park requests in bounded per-shard queues, flushed in micro-batches
    /// on the [`INGRESS_TIMER`] loop (the deployment must start it). A
    /// full queue sheds with `OVERLOADED`, counted distinctly in
    /// [`RouterStatusInner::shed_queue_full`].
    pub fn with_ingress(mut self, cfg: IngressCfg) -> Self {
        let n = self.shards.len();
        self.ingress = Some(IngressState {
            cfg,
            queues: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
        });
        self
    }

    /// Shared handle to the request ledger.
    pub fn ledger(&self) -> ProxyLedger {
        Rc::clone(&self.completed)
    }

    /// Shared handle to the fault-handling counters.
    pub fn status(&self) -> RouterStatus {
        Rc::clone(&self.status)
    }

    fn shard_ix(&self, mailbox: &str, row: &Row) -> usize {
        self.routing.shard_of(mailbox, row, self.shards.len())
    }

    /// Complete a request locally (shed / gave-up), first-reply-wins.
    fn complete_local(&self, now: u64, request_id: u64, value: Value) {
        if let Some((_, reply)) = self.completed.borrow_mut().get_mut(&request_id) {
            if reply.is_none() {
                *reply = Some((now, value));
            }
        }
    }

    /// Forward a request to the current owner of shard `si`, arming the
    /// retry alarm when retries are enabled.
    fn forward_request(
        &mut self,
        ctx: &mut Ctx<NetMsg>,
        si: usize,
        request_id: u64,
        mailbox: String,
        row: Row,
    ) {
        if let Some(r) = self.retry {
            self.outstanding.insert(
                request_id,
                OutstandingReq {
                    mailbox: mailbox.clone(),
                    row: row.clone(),
                    attempts: 0,
                },
            );
            ctx.set_timer(r.base_us, RETRY_TIMER_FLAG | request_id);
        }
        ctx.send(
            self.shards[si],
            NetMsg::Request {
                request_id,
                mailbox,
                row,
                reply_to: ctx.self_id,
            },
        );
    }

    /// The ingress micro-batch flush: drain up to `batch_max` parked
    /// requests per shard toward its current owner.
    fn flush_ingress(&mut self, ctx: &mut Ctx<NetMsg>) {
        let Some(ing) = self.ingress.as_mut() else {
            return;
        };
        let batch_max = ing.cfg.batch_max.max(1);
        let mut due: Vec<(usize, u64, String, Row)> = Vec::new();
        for (si, q) in ing.queues.iter_mut().enumerate() {
            for _ in 0..batch_max {
                let Some((rid, mailbox, row)) = q.pop_front() else {
                    break;
                };
                due.push((si, rid, mailbox, row));
            }
        }
        for (si, rid, mailbox, row) in due {
            if self.down[si] {
                // Owner died while the request was parked: shed late
                // rather than hold it forever.
                self.status.borrow_mut().shed += 1;
                self.complete_local(ctx.now, rid, Value::Str("OVERLOADED".into()));
                continue;
            }
            self.forward_request(ctx, si, rid, mailbox, row);
        }
    }

    /// The heartbeat staleness sweep: a silent partition fails over to
    /// its backup once; a partition whose promoted owner also goes silent
    /// (or that never had a backup) is marked down and sheds until its
    /// owner's heartbeats resume.
    fn check_heartbeats(&mut self, ctx: &mut Ctx<NetMsg>) {
        for si in 0..self.shards.len() {
            if ctx.now.saturating_sub(self.last_heard[si]) <= self.hb_timeout_us {
                continue;
            }
            if !self.promoted[si] {
                if let Some(b) = self.backups[si] {
                    self.promoted[si] = true;
                    self.shards[si] = b;
                    // Grace for the backup's replay before the next sweep.
                    self.last_heard[si] = ctx.now;
                    self.status.borrow_mut().promoted_at[si] = Some(ctx.now);
                    ctx.send(b, NetMsg::Promote { shard: si });
                    continue;
                }
            }
            self.down[si] = true;
        }
    }
}

impl NodeLogic<NetMsg> for RouterNode {
    fn on_message(&mut self, ctx: &mut Ctx<NetMsg>, src: NodeId, msg: NetMsg) {
        match msg {
            NetMsg::Request {
                request_id,
                mailbox,
                row,
                ..
            } => {
                self.completed
                    .borrow_mut()
                    .insert(request_id, (ctx.now, None));
                let si = self.shard_ix(&mailbox, &row);
                if self.down[si] {
                    // Graceful degradation: no live owner — shed with an
                    // immediate error reply instead of queueing unboundedly.
                    self.status.borrow_mut().shed += 1;
                    self.complete_local(ctx.now, request_id, Value::Str("OVERLOADED".into()));
                    return;
                }
                if let Some(ing) = self.ingress.as_mut() {
                    // Bounded ingress: park for the next micro-batch
                    // flush, or shed (distinct counter — this is load,
                    // not a dead partition).
                    if ing.queues[si].len() >= ing.cfg.queue_cap {
                        self.status.borrow_mut().shed_queue_full += 1;
                        self.complete_local(
                            ctx.now,
                            request_id,
                            Value::Str("OVERLOADED".into()),
                        );
                        return;
                    }
                    ing.queues[si].push_back((request_id, mailbox, row));
                    return;
                }
                self.forward_request(ctx, si, request_id, mailbox, row);
            }
            NetMsg::Reply {
                request_id, value, ..
            } => {
                self.outstanding.remove(&request_id);
                if let Some((_, reply)) = self.completed.borrow_mut().get_mut(&request_id) {
                    if reply.is_none() {
                        *reply = Some((ctx.now, value));
                    }
                }
            }
            // A shard's asynchronous send to a program-local mailbox:
            // re-route it to the shard owning the destination key.
            NetMsg::Forward { mailbox, row } => {
                let si = self.shard_ix(&mailbox, &row);
                ctx.send(self.shards[si], NetMsg::Forward { mailbox, row });
            }
            // Only the current owner's beacon counts — a revived old
            // primary keeps heartbeating, but ownership moved on.
            NetMsg::Heartbeat { shard }
                if shard < self.shards.len() && src == self.shards[shard] =>
            {
                self.last_heard[shard] = ctx.now;
                self.down[shard] = false;
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<NetMsg>, timer: u64) {
        if timer == HB_CHECK_TIMER {
            if self.hb_timeout_us == 0 {
                return;
            }
            self.check_heartbeats(ctx);
            ctx.set_timer(self.hb_timeout_us / 2, HB_CHECK_TIMER);
            return;
        }
        if timer == INGRESS_TIMER {
            if let Some(every) = self.ingress.as_ref().map(|i| i.cfg.flush_every_us) {
                self.flush_ingress(ctx);
                ctx.set_timer(every.max(1), INGRESS_TIMER);
            }
            return;
        }
        if timer & RETRY_TIMER_FLAG == 0 {
            return;
        }
        let request_id = timer & !RETRY_TIMER_FLAG;
        let Some(r) = self.retry else { return };
        let Some(o) = self.outstanding.get_mut(&request_id) else {
            return; // answered meanwhile
        };
        o.attempts += 1;
        if o.attempts > r.budget {
            self.outstanding.remove(&request_id);
            self.status.borrow_mut().gave_up += 1;
            self.complete_local(ctx.now, request_id, Value::Str("UNAVAILABLE".into()));
            return;
        }
        let (mailbox, row, attempts) = (o.mailbox.clone(), o.row.clone(), o.attempts);
        let si = self.shard_ix(&mailbox, &row);
        self.status.borrow_mut().retries += 1;
        ctx.send(
            self.shards[si],
            NetMsg::Request {
                request_id,
                mailbox,
                row,
                reply_to: ctx.self_id,
            },
        );
        // Bounded exponential backoff toward the ceiling.
        let delay = r
            .base_us
            .saturating_mul(1u64 << attempts.min(16))
            .min(r.max_us);
        ctx.set_timer(delay, RETRY_TIMER_FLAG | request_id);
    }
}

/// A total-order sequencer (§7.2's "heavyweight" coordination mechanism,
/// in its simplest form): stamps submissions with consecutive sequence
/// numbers and broadcasts them to all replicas, which apply them in order.
pub struct SequencerNode {
    /// Replicas receiving the ordered stream.
    pub replicas: Vec<NodeId>,
    next_seq: u64,
}

impl SequencerNode {
    /// A sequencer broadcasting to `replicas`.
    pub fn new(replicas: Vec<NodeId>) -> Self {
        SequencerNode {
            replicas,
            next_seq: 0,
        }
    }

    /// Operations sequenced so far.
    pub fn sequenced(&self) -> u64 {
        self.next_seq
    }
}

impl NodeLogic<NetMsg> for SequencerNode {
    fn on_message(&mut self, ctx: &mut Ctx<NetMsg>, _src: NodeId, msg: NetMsg) {
        if let NetMsg::SeqSubmit {
            request_id,
            mailbox,
            row,
            reply_to,
        } = msg
        {
            let seq_no = self.next_seq;
            self.next_seq += 1;
            for &r in &self.replicas {
                ctx.send(
                    r,
                    NetMsg::SeqOrder {
                        seq_no,
                        request_id,
                        mailbox: mailbox.clone(),
                        row: row.clone(),
                        reply_to,
                    },
                );
            }
        }
    }
}

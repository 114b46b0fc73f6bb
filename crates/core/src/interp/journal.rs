//! Journals: the effect journal every tick folds into evaluation deltas
//! ([`PendingDeltas`]), the recovery journal a replacement instance is
//! replayed from ([`Checkpoint`], [`JournalDelta`], [`RecoveryLog`]), and
//! both halves of the delta exchange between shards ([`ExchangeDelta`]).

use super::{Message, ProgramCore, State, Transducer};
use crate::eval::Row;
use crate::value::Value;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Journal of base-state changes made by committed effects since the last
/// incremental evaluation. Folded into per-relation [`RelDelta`]s at the
/// next tick start. Recording keeps *first-touch* originals and compares
/// them against the final state, so a transactional rollback naturally
/// folds to "no change".
///
/// The same note sites optionally feed a second, independently-drained
/// consumer: the **recovery journal** ([`JournalNotes`]), enabled by
/// [`Transducer::set_journaling`] and drained by
/// [`Transducer::take_journal_delta`] into replayable [`JournalDelta`]
/// records. The two consumers have separate lifecycles — the eval notes
/// are consumed every tick, the recovery notes whenever the
/// host decides to emit a delta record — so each keeps its own
/// first-touch maps.
#[derive(Default)]
pub(super) struct PendingDeltas {
    /// table → key → row as of the last evaluation (`None` = absent).
    pub(super) tables: FxHashMap<String, FxHashMap<Row, Option<Row>>>,
    /// scalar → value as of the last evaluation.
    pub(super) scalars: FxHashMap<String, Value>,
    /// Mailboxes whose queues changed (enqueue or drain).
    pub(super) mailboxes: FxHashSet<String>,
    /// Recovery-journal notes (`None` = journaling off).
    journal: Option<JournalNotes>,
    /// Recycled per-table first-touch maps, shared by both consumers: the
    /// incremental tick's fold and [`Transducer::take_journal_delta`]
    /// drain their `tables` and return the emptied inner maps here, so a
    /// steady-state tick's delta recording allocates no fresh maps.
    pub(super) table_pool: Vec<FxHashMap<Row, Option<Row>>>,
}

/// First-touch notes for the recovery journal, relative to the last
/// [`Transducer::take_journal_delta`] drain.
#[derive(Default)]
struct JournalNotes {
    tables: FxHashMap<String, FxHashMap<Row, Option<Row>>>,
    scalars: FxHashMap<String, Value>,
    mailboxes: FxHashSet<String>,
    /// Counters as of the last drain, so a drain can tell "nothing
    /// happened" apart from "a tick ran but changed no base state".
    last_next_msg_id: u64,
    last_tick_no: u64,
}

impl PendingDeltas {
    pub(super) fn clear(&mut self) {
        for (_, mut m) in self.tables.drain() {
            m.clear();
            self.table_pool.push(m);
        }
        self.scalars.clear();
        self.mailboxes.clear();
    }

    /// Record `old` as the first-touch original of `table[key]`, if this
    /// is indeed the first touch since the last evaluation.
    pub(super) fn note_table(&mut self, table: &str, key: &Row, old: Option<&Row>) {
        if !self.tables.contains_key(table) {
            let slot = self.table_pool.pop().unwrap_or_default();
            self.tables.insert(table.to_string(), slot);
        }
        let slot = self.tables.get_mut(table).expect("just inserted");
        if !slot.contains_key(key) {
            slot.insert(key.clone(), old.cloned());
        }
        if let Some(j) = &mut self.journal {
            if !j.tables.contains_key(table) {
                let slot = self.table_pool.pop().unwrap_or_default();
                j.tables.insert(table.to_string(), slot);
            }
            let slot = j.tables.get_mut(table).expect("just inserted");
            if !slot.contains_key(key) {
                slot.insert(key.clone(), old.cloned());
            }
        }
    }

    /// Record `old` as the first-touch original of a scalar.
    pub(super) fn note_scalar(&mut self, name: &str, old: &Value) {
        if !self.scalars.contains_key(name) {
            self.scalars.insert(name.to_string(), old.clone());
        }
        if let Some(j) = &mut self.journal {
            if !j.scalars.contains_key(name) {
                j.scalars.insert(name.to_string(), old.clone());
            }
        }
    }

    /// Record that a mailbox's queue changed.
    pub(super) fn note_mailbox(&mut self, name: &str) {
        self.mailboxes.insert(name.to_string());
        if let Some(j) = &mut self.journal {
            j.mailboxes.insert(name.to_string());
        }
    }
}

/// A point-in-time image of everything that defines a transducer's
/// replayable state: tables, scalars, mailbox queues (with message ids),
/// and the message-id / tick counters. [`Transducer::restore`] rebuilds a
/// replacement instance from one bit-identically — the evaluation state
/// is deliberately *not* captured; it rebuilds deterministically from the
/// restored base state on the next tick (the same path error recovery
/// uses).
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Tables and scalars.
    pub state: State,
    /// Mailbox queues, ids included (in-flight requests survive replay).
    pub mailboxes: BTreeMap<String, Vec<Message>>,
    /// Message-id counter.
    pub next_msg_id: u64,
    /// Ticks executed.
    pub tick_no: u64,
}

impl Checkpoint {
    /// Fold one journaled delta into this image (deltas carry final
    /// values, so application is idempotent — replaying a record twice is
    /// harmless, replaying out of order is not).
    pub fn apply(&mut self, delta: &JournalDelta) {
        for (table, key, row) in &delta.tables {
            let slot = self.state.tables.entry(table.clone()).or_default();
            match row {
                Some(r) => {
                    slot.insert(key.clone(), r.clone());
                }
                None => {
                    slot.remove(key);
                }
            }
        }
        for (name, value) in &delta.scalars {
            self.state.scalars.insert(name.clone(), value.clone());
        }
        for (mailbox, queue) in &delta.mailboxes {
            self.mailboxes.insert(mailbox.clone(), queue.clone());
        }
        self.next_msg_id = delta.next_msg_id;
        self.tick_no = delta.tick_no;
    }
}

/// One committed recovery-journal record: every table key, scalar and
/// mailbox whose value changed since the previous record was drained,
/// with its **final** value (not the mutation) — so records are
/// idempotent to re-apply and fold trivially into a [`Checkpoint`].
/// Entries are sorted by name/key, so identical histories yield identical
/// records byte-for-byte.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JournalDelta {
    /// `(table, key, row)` — `None` = key now absent.
    pub tables: Vec<(String, Row, Option<Row>)>,
    /// `(scalar, value)`.
    pub scalars: Vec<(String, Value)>,
    /// `(mailbox, full queue now)` for every mailbox whose queue changed.
    pub mailboxes: Vec<(String, Vec<Message>)>,
    /// Message-id counter after this delta.
    pub next_msg_id: u64,
    /// Tick counter after this delta.
    pub tick_no: u64,
}

impl JournalDelta {
    /// Whether the record carries any change at all.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty() && self.scalars.is_empty() && self.mailboxes.is_empty()
    }
}

/// One tick's net changes to a shard's exchange-shipped tables:
/// `(table, [(key, final row — None = deleted)])`, sorted by table and
/// key. Like [`JournalDelta`], entries carry **final** values, so
/// application is idempotent; rolled-back transactions fold to "no
/// change" and never ship. Produced by [`Transducer::exchange_delta`] on
/// the owning shard after a tick, consumed by
/// [`Transducer::apply_exchange_delta`] on the gather shard before its
/// next tick — the delta-exchange operator's wire format.
pub type ExchangeDelta = Vec<(String, Vec<(Row, Option<Row>)>)>;

/// A replayable recovery log: a base [`Checkpoint`] plus the
/// [`JournalDelta`]s committed since. Appending folds the log into a
/// fresh base every `checkpoint_every` records (the checkpoint cadence),
/// bounding both replay work and retained memory. Two calls rebuild a
/// replacement [`Transducer`] whose observable state — tables, scalars,
/// mailbox queues, counters — is bit-identical to the instance the deltas
/// were drained from: [`RecoveryLog::into_transducer`] consumes the log
/// and moves its image into the replacement, and [`RecoveryLog::restore`]
/// copies it and leaves the log as it was.
#[derive(Clone, Debug)]
pub struct RecoveryLog {
    base: Checkpoint,
    deltas: Vec<JournalDelta>,
    checkpoint_every: usize,
}

impl RecoveryLog {
    /// A log rooted at `base`, compacting every `checkpoint_every`
    /// appended deltas (0 is treated as 1: compact on every append).
    pub fn new(base: Checkpoint, checkpoint_every: usize) -> Self {
        RecoveryLog {
            base,
            deltas: Vec::new(),
            checkpoint_every: checkpoint_every.max(1),
        }
    }

    /// Append one journaled delta, compacting at the checkpoint cadence.
    pub fn append(&mut self, delta: JournalDelta) {
        self.deltas.push(delta);
        if self.deltas.len() >= self.checkpoint_every {
            self.compact();
        }
    }

    /// Fold every retained delta into the base checkpoint now.
    pub fn compact(&mut self) {
        for d in self.deltas.drain(..) {
            self.base.apply(&d);
        }
    }

    /// Deltas appended since the last checkpoint fold.
    pub fn deltas_since_checkpoint(&self) -> usize {
        self.deltas.len()
    }

    /// The current image: base checkpoint plus retained deltas.
    pub fn image(&self) -> Checkpoint {
        let mut ck = self.base.clone();
        for d in &self.deltas {
            ck.apply(d);
        }
        ck
    }

    /// Replay a copy of the log into a replacement instance over `core`,
    /// keeping the log (UDFs must be re-registered by the caller —
    /// closures don't journal).
    pub fn restore(&self, core: Arc<ProgramCore>) -> Transducer {
        self.clone().into_transducer(core)
    }

    /// Consume the log into a replacement instance over `core`: fold the
    /// retained deltas into the base, then move the base's tables,
    /// scalars, mailbox queues and counters into the replacement, so the
    /// image is never held twice. UDFs must be re-registered by the
    /// caller.
    pub fn into_transducer(mut self, core: Arc<ProgramCore>) -> Transducer {
        self.compact();
        Transducer::from_checkpoint(core, self.base)
    }
}

impl Transducer {
    /// Configure the tables whose per-tick net changes this instance
    /// exports via [`Transducer::exchange_delta`]. Exchange piggybacks on
    /// the effect journal every evaluation mode folds. Used by the shard
    /// drivers for tables feeding `NeedsExchange` views.
    pub fn set_exchange_tables(
        &mut self,
        tables: impl IntoIterator<Item = String>,
    ) {
        self.exchange_tables = tables.into_iter().collect();
    }

    /// Configure view heads this instance must *not* evaluate: the
    /// exchange plan computes them on the gather shard from shipped
    /// deltas, so evaluating them here would derive partial (and wasted)
    /// results. Drops the persistent evaluation state; the next tick
    /// rebuilds it with the exclusion installed.
    pub fn set_skip_view_heads(&mut self, heads: impl IntoIterator<Item = String>) {
        self.skip_view_heads = heads.into_iter().collect();
        self.eval = None;
    }

    /// Export the last tick's net changes to the configured exchange
    /// tables, without consuming the underlying journal (the incremental
    /// engine still drains it at the next tick). Mirrors
    /// [`Transducer::take_journal_delta`]'s fold: first-touch originals
    /// against final state, rolled-back effects vanish, entries carry
    /// final values and are sorted — the same tick always exports the
    /// same bytes. Call between ticks, after the tick whose changes are
    /// being shipped.
    pub fn exchange_delta(&self) -> ExchangeDelta {
        let mut out = ExchangeDelta::new();
        for table in &self.exchange_tables {
            let Some(keys) = self.pending.tables.get(table) else {
                continue;
            };
            let current = self.state.tables.get(table);
            let mut rows: Vec<(Row, Option<Row>)> = Vec::new();
            for (key, old) in keys {
                let new = current.and_then(|t| t.get(key));
                if old.as_ref() == new {
                    continue; // rolled back / rewritten to the original
                }
                rows.push((key.clone(), new.cloned()));
            }
            if rows.is_empty() {
                continue;
            }
            rows.sort();
            out.push((table.clone(), rows));
        }
        out
    }

    /// Receive another shard's [`ExchangeDelta`]: update the persistent
    /// foreign mirror immediately (snapshots and rebuilds see it) and
    /// queue the transitions for the incremental engine's next delta
    /// fold. Last-wins per key, so applying several shards' deltas (or a
    /// retransmission of the same delta) before the next tick is safe —
    /// shard partitions are key-disjoint and entries are idempotent.
    pub fn apply_exchange_delta(&mut self, delta: ExchangeDelta) {
        // Foreign rows land in the key indexes that serialized handlers
        // read, but arrive outside the effect pipeline that maintains the
        // persistent mirror — drop it and let the next serialized message
        // re-clone. (Exchange-configured gather shards paid the per-tick
        // clone before this mirror persisted; they are no worse off.)
        self.serial_mirror = None;
        for (table, rows) in delta {
            // Exchange deltas ship *net* signed rows (`Some` = upsert,
            // `None` = retraction), sorted and key-unique by construction
            // in `exchange_delta` — the counting/DRed engine consumes the
            // fold directly, so a duplicated or unsorted key would
            // corrupt its support accounting. Assert the wire invariant.
            debug_assert!(
                rows.windows(2).all(|w| w[0].0 < w[1].0),
                "exchange delta rows must be sorted and key-unique"
            );
            let mirror = self.foreign.entry(table.clone()).or_default();
            let queued = self.exchange_in.entry(table).or_default();
            for (key, new) in rows {
                match &new {
                    Some(row) => {
                        mirror.insert(key.clone(), row.clone());
                    }
                    None => {
                        mirror.remove(&key);
                    }
                }
                queued.insert(key, new);
            }
        }
    }

    /// Enable or disable the recovery journal. While enabled, every
    /// committed base-state mutation (tables, scalars, mailbox queues) is
    /// noted first-touch, and [`Transducer::take_journal_delta`] drains
    /// the notes into replayable [`JournalDelta`] records. Off by default;
    /// independent of the evaluation mode.
    pub fn set_journaling(&mut self, on: bool) {
        if on {
            if self.pending.journal.is_none() {
                self.pending.journal = Some(JournalNotes {
                    last_next_msg_id: self.next_msg_id,
                    last_tick_no: self.tick_no,
                    ..JournalNotes::default()
                });
            }
        } else {
            self.pending.journal = None;
        }
    }

    /// Whether the recovery journal is currently recording.
    pub fn journaling(&self) -> bool {
        self.pending.journal.is_some()
    }

    /// Capture a full [`Checkpoint`] of the current replayable state.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            state: self.state.clone(),
            mailboxes: self.mailboxes.clone(),
            next_msg_id: self.next_msg_id,
            tick_no: self.tick_no,
        }
    }

    /// Drain the recovery journal into one [`JournalDelta`] covering every
    /// change since the previous drain (or since journaling was enabled).
    /// Returns `None` when journaling is off or literally nothing happened
    /// — no noted mutation and unchanged counters. Note that `tick_no`
    /// advances on every tick, so a live instance yields a (possibly
    /// state-empty) record per tick: the delta stream doubles as a
    /// liveness signal for whoever consumes it.
    ///
    /// Entries carry *final* values and are sorted, so the same history
    /// always drains to the same bytes.
    pub fn take_journal_delta(&mut self) -> Option<JournalDelta> {
        let j = self.pending.journal.as_mut()?;
        if j.tables.is_empty()
            && j.scalars.is_empty()
            && j.mailboxes.is_empty()
            && j.last_next_msg_id == self.next_msg_id
            && j.last_tick_no == self.tick_no
        {
            return None;
        }
        // Take the note maps out (releasing the `self.pending` borrow so
        // state lookups below can run), drain them rather than consuming
        // them, and hand the emptied maps back — the outer maps to the
        // journal, the per-table first-touch maps to the shared
        // `table_pool` — so a steady-state drain cycle allocates no fresh
        // maps (the serving loop drains once per micro-batch tick).
        let mut tables = std::mem::take(&mut j.tables);
        let mut scalars = std::mem::take(&mut j.scalars);
        let mut mailboxes = std::mem::take(&mut j.mailboxes);
        j.last_next_msg_id = self.next_msg_id;
        j.last_tick_no = self.tick_no;

        let mut delta = JournalDelta {
            next_msg_id: self.next_msg_id,
            tick_no: self.tick_no,
            ..JournalDelta::default()
        };
        for (table, mut keys) in tables.drain() {
            let current = self.state.tables.get(&table);
            for (key, old) in keys.drain() {
                let new = current.and_then(|t| t.get(&key));
                if old.as_ref() == new {
                    continue; // rolled back / rewritten to the original
                }
                delta.tables.push((table.clone(), key, new.cloned()));
            }
            self.pending.table_pool.push(keys);
        }
        delta.tables.sort();
        for (name, old) in scalars.drain() {
            let current = self.state.scalars.get(&name);
            if current == Some(&old) {
                continue;
            }
            if let Some(v) = current {
                delta.scalars.push((name, v.clone()));
            }
        }
        delta.scalars.sort();
        for m in mailboxes.drain() {
            let queue = self.mailboxes.get(&m).cloned().unwrap_or_default();
            delta.mailboxes.push((m, queue));
        }
        delta.mailboxes.sort_by(|a, b| a.0.cmp(&b.0));
        let j = self.pending.journal.as_mut().expect("journal still on");
        j.tables = tables;
        j.scalars = scalars;
        j.mailboxes = mailboxes;
        Some(delta)
    }

    /// Rebuild a replacement instance over `core` from a checkpoint image:
    /// [`Transducer::from_core`] with the captured tables, scalars,
    /// mailbox queues and counters installed. Evaluation state is rebuilt
    /// lazily from the restored base on the next tick, so the replacement
    /// is observably bit-identical to the checkpointed instance. UDFs must
    /// be re-registered by the caller (closures don't journal), and
    /// journaling starts off.
    pub fn restore(core: Arc<ProgramCore>, checkpoint: &Checkpoint) -> Transducer {
        Transducer::from_checkpoint(core, checkpoint.clone())
    }

    /// [`Transducer::restore`], moving the image in.
    fn from_checkpoint(core: Arc<ProgramCore>, checkpoint: Checkpoint) -> Transducer {
        let mut t = Transducer::from_core(core);
        t.state = checkpoint.state;
        t.mailboxes = checkpoint.mailboxes;
        t.next_msg_id = checkpoint.next_msg_id;
        t.tick_no = checkpoint.tick_no;
        t
    }
}

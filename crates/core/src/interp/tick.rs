//! The tick: fold the journal into evaluation deltas, bring the views up
//! to date on the persistent (or, in the fresh modes, freshly rebuilt)
//! evaluation state, run the handlers against it and commit their effects.

use super::handler::Snapshot;
use super::state::TickMirror;
use super::txn::{touched_tables, EffectGroup};
use super::{EvalMode, Message, TickOutput, Transducer, TransducerError};
use crate::ast::Trigger;
use crate::eval::{EvalState, Frame, RelDelta, Relation, Row};
use crate::value::Value;
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

impl Transducer {
    /// Execute one tick of the transducer loop. The fresh modes run the
    /// incremental tick from an empty evaluation state: rebuilt from
    /// program state before the tick, so every view is derived from
    /// scratch, and dropped after it.
    pub fn tick(&mut self) -> Result<TickOutput, TransducerError> {
        self.tick_no += 1;
        self.udfs.start_tick();
        if self.eval_mode == EvalMode::Incremental {
            return self.tick_incremental();
        }
        self.eval = None;
        let out = self.tick_incremental();
        self.eval = None;
        out
    }

    /// The incremental path: fold the effect journal of the previous tick
    /// into per-relation deltas, maintain the persistent materialized
    /// views from them (see [`EvalState::evaluate`]), and run handlers
    /// against the persistent database. A no-op tick (empty journal)
    /// skips view evaluation entirely.
    fn tick_incremental(&mut self) -> Result<TickOutput, TransducerError> {
        let mut eval = match self.eval.take() {
            Some(e) => e,
            None => {
                self.pending.clear();
                self.rebuild_eval_state()?
            }
        };

        // Fold the journal into deltas. First-touch originals are compared
        // against final state, so rolled-back effects vanish here. The
        // three eval maps are drained individually — `pending.journal`
        // (the recovery journal) has its own drain cycle and must survive
        // the tick.
        // Scratch maps and deltas come from the evaluation state's
        // recycling pools (refilled after each evaluation), so this fold
        // allocates nothing in the steady state; the emptied first-touch
        // maps return to the journal's own pool the same way.
        let mut pending_tables = std::mem::take(&mut self.pending.tables);
        let pending_scalars = std::mem::take(&mut self.pending.scalars);
        let pending_mailboxes = std::mem::take(&mut self.pending.mailboxes);
        let mut changed: FxHashMap<String, RelDelta> = eval.take_changed_scratch();
        for (table, mut keys) in pending_tables.drain() {
            let current = self.state.tables.get(&table);
            let mut delta = eval.pooled_delta();
            let mut touched = false;
            for (key, old) in keys.drain() {
                let new = current.and_then(|t| t.get(&key));
                if old.as_ref() == new {
                    continue;
                }
                touched = true;
                eval.note_key_transition(&table, key, old, new, &mut delta);
            }
            self.pending.table_pool.push(keys);
            // A key transition can net to an *empty* row-set delta (two
            // keys holding identical rows), yet still change what keyed
            // expressions (`FieldOf`/`RowOf`/`HasKey`) observe — so any
            // touched table must be marked changed for the non-monotone
            // classification, not just tables whose row set moved.
            if touched {
                changed.insert(table, delta);
            } else {
                eval.recycle_delta(delta);
            }
        }
        self.pending.tables = pending_tables;
        // Fold exchange-received foreign transitions exactly like local
        // journal entries: previous foreign value looked up in the
        // persistent key index (shard partitions are key-disjoint, so a
        // foreign key can never collide with a local fold above), no-op
        // transitions skipped, deltas merged with any local delta for the
        // same table.
        for (table, keys) in std::mem::take(&mut self.exchange_in) {
            let locally_touched = changed.contains_key(&table);
            let mut delta = changed
                .remove(&table)
                .unwrap_or_else(|| eval.pooled_delta());
            let mut touched = locally_touched;
            for (key, new) in keys {
                let old = eval.key_index.get(&table).and_then(|t| t.get(&key)).cloned();
                if old.as_ref() == new.as_ref() {
                    continue;
                }
                touched = true;
                eval.note_key_transition(&table, key, old, new.as_ref(), &mut delta);
            }
            if touched {
                changed.insert(table, delta);
            } else {
                eval.recycle_delta(delta);
            }
        }
        for m in pending_mailboxes {
            // Diff the queue against the materialized mailbox relation
            // without materializing a cloned `Relation` first: membership
            // goes through borrowed-row hash sets, so a resident message
            // that didn't move costs a hash probe, never a row clone. A
            // mailbox whose queue and materialized relation are both
            // empty (enqueued and drained within one tick) is skipped
            // outright. Orders are preserved exactly as `RelDelta::diff`
            // produced them: removals in materialized insertion order,
            // additions in queue first-occurrence order.
            let queue: &[Message] = self.mailboxes.get(&m).map_or(&[], Vec::as_slice);
            if queue.is_empty() && eval.db.get(&m).is_none_or(Relation::is_empty) {
                continue;
            }
            let mut delta = eval.pooled_delta();
            let old = eval.db.get(&m);
            let queue_rows: FxHashSet<&Row> = queue.iter().map(|msg| &msg.row).collect();
            if let Some(old) = old {
                for row in old.iter() {
                    if !queue_rows.contains(row) {
                        delta.removed.push(row.clone());
                    }
                }
            }
            let mut seen: FxHashSet<&Row> = FxHashSet::default();
            for msg in queue {
                if seen.insert(&msg.row) && !old.is_some_and(|o| o.contains(&msg.row)) {
                    delta.added.push(msg.row.clone());
                }
            }
            if !delta.is_empty() {
                changed.insert(m, delta);
            } else {
                eval.recycle_delta(delta);
            }
        }
        let mut changed_scalars: FxHashSet<String> = FxHashSet::default();
        for (name, old) in pending_scalars {
            let current = self.state.scalars.get(&name);
            if current != Some(&old) {
                changed_scalars.insert(name.clone());
            }
            // Keep the persistent scalar snapshot in sync (journaled
            // scalars only — unchanged ones are already mirrored).
            match current {
                Some(v) => {
                    eval.scalars.insert(name, v.clone());
                }
                None => {
                    eval.scalars.remove(&name);
                }
            }
        }
        for (rel, delta) in &changed {
            eval.apply_base_delta(rel, delta);
        }

        // 1–2 (incremental): views maintained from the deltas. On error
        // `eval` is dropped (partially updated), and the next tick
        // rebuilds it from state — errors stay reproducible.
        eval.evaluate(&self.core.program, changed, &changed_scalars, &mut self.udfs)?;
        // Handlers probe the indexes view maintenance keeps current.
        let out = self.run_handlers(Snapshot {
            db: &eval.db,
            scalars: &eval.scalars,
            key_index: &eval.key_index,
            cache: &mut eval.cache,
        });
        if out.is_ok() {
            self.eval = Some(eval);
        }
        out
    }

    /// Rebuild the persistent evaluation state from the current tables,
    /// scalars and mailboxes (first incremental tick, every fresh tick, or
    /// recovery after an evaluation error).
    fn rebuild_eval_state(&self) -> Result<EvalState, TransducerError> {
        let mut eval = EvalState::with_plan(&self.core.program, Arc::clone(&self.core.plan));
        eval.scalars = self
            .state
            .scalars
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (name, rows) in &self.state.tables {
            for (key, row) in rows {
                eval.seed_table_row(name, key.clone(), row.clone());
            }
        }
        // Exchange-received foreign rows are part of this instance's view
        // of the table, just not of its owned partition.
        for (name, rows) in &self.foreign {
            for (key, row) in rows {
                eval.seed_table_row(name, key.clone(), row.clone());
            }
        }
        for (name, msgs) in &self.mailboxes {
            for m in msgs {
                eval.seed_row(name, m.row.clone());
            }
        }
        if !self.skip_view_heads.is_empty() {
            eval.set_skip_heads(self.skip_view_heads.iter().cloned());
        }
        eval.set_counting(self.counting);
        eval.naive = self.eval_mode == EvalMode::FreshNaive;
        Ok(eval)
    }

    /// Steps 3–5 of the tick, shared by every evaluation mode: run
    /// handlers against the tick-start snapshot `snap`, apply effects,
    /// monitor functional dependencies.
    fn run_handlers(&mut self, mut snap: Snapshot<'_>) -> Result<TickOutput, TransducerError> {
        // 3: run handlers against the snapshot, recording effects. Tables
        // written anywhere this tick are collected for FD monitoring.
        // Serialized handlers additionally read committed mid-tick state
        // through `mirror` — the *persistent* mirror carried across ticks
        // on `self.serial_mirror` (taken here, put back at the end), built
        // lazily on the first serialized message ever and updated
        // incrementally as effects land. An early error return leaves it
        // `None`; the next serialized message re-clones.
        let mut groups: Vec<EffectGroup<'_>> = Vec::new();
        let mut touched: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut out = TickOutput::default();
        let mut mirror: Option<TickMirror> = self.serial_mirror.take();
        // One frame for the whole handler phase: reset (cheap — a handful
        // of slots) and refilled per invocation. Param binding is an
        // indexed store; no per-message map allocation or string hashing.
        let mut frame = Frame::default();
        let core = Arc::clone(&self.core);
        for (handler, consistency, compiled) in core.handlers.iter() {
            let invariants = consistency.invariants.as_slice();
            // Serializable handlers (and any handler carrying invariants)
            // execute *serially against current state*, each message seeing
            // the committed effects of the previous one — the enforcement
            // mechanism §7 says the compiler must interpose. Everything
            // else reads the tick-start snapshot and defers its effects.
            let serial = consistency.level == crate::facets::ConsistencyLevel::Serializable
                || !invariants.is_empty();
            match &handler.trigger {
                Trigger::OnMessage => {
                    let msgs = self
                        .mailboxes
                        .get(&handler.name)
                        .cloned()
                        .unwrap_or_default();
                    for msg in &msgs {
                        frame.reset(compiled.names.len());
                        for (&s, v) in compiled.param_slots.iter().zip(msg.row.iter()) {
                            frame.replace(s, Some(v.clone()));
                        }
                        frame.replace(compiled.msg_id_slot, Some(Value::Int(msg.id as i64)));
                        let resp_start = out.responses.len();
                        let mut group = EffectGroup {
                            handler: &handler.name,
                            message_id: Some(msg.id),
                            effects: Vec::new(),
                            invariants,
                            inv_keys: compiled.capture_inv_keys(&frame),
                            resp_range: resp_start..resp_start,
                        };
                        // A serialized message reads the current scalars
                        // and table keys — prior serialized commits of
                        // this tick included — through the mirror,
                        // maintained incrementally across messages.
                        let (scalars, key_index) = if serial {
                            let m = mirror.get_or_insert_with(|| TickMirror {
                                key_index: snap.key_index.clone(),
                                scalars: snap.scalars.clone(),
                            });
                            (&m.scalars, &m.key_index)
                        } else {
                            (snap.scalars, snap.key_index)
                        };
                        let mut reads = Snapshot {
                            db: snap.db,
                            scalars,
                            key_index,
                            cache: &mut *snap.cache,
                        };
                        self.exec_stmts(
                            &compiled.body,
                            &compiled.names,
                            &mut frame,
                            &mut reads,
                            &mut group,
                            &mut out,
                            handler,
                            Some(msg.id),
                        )?;
                        group.resp_range = resp_start..out.responses.len();
                        if serial {
                            // Commit immediately (transactionally if
                            // invariants are present).
                            touched.extend(touched_tables(&group.effects));
                            self.apply_group(group, &mut out, mirror.as_mut())?;
                        } else {
                            groups.push(group);
                        }
                        out.messages_processed += 1;
                    }
                    // Message handlers consume their mailbox at end of tick.
                    if let Some(q) = self.mailboxes.get_mut(&handler.name) {
                        if !q.is_empty() {
                            q.clear();
                            self.pending.note_mailbox(&handler.name);
                        }
                    }
                }
                Trigger::OnCondition(_) => {
                    if !self.run_condition_handlers {
                        continue;
                    }
                    frame.reset(compiled.names.len());
                    let cond = compiled.cond.as_ref().expect("condition trigger compiled");
                    let fire = self
                        .eval(cond, &compiled.names, &mut frame, &mut snap)?
                        .as_bool()
                        .unwrap_or(false);
                    if fire {
                        let resp_start = out.responses.len();
                        let mut group = EffectGroup {
                            handler: &handler.name,
                            message_id: None,
                            effects: Vec::new(),
                            invariants,
                            inv_keys: compiled.capture_inv_keys(&frame),
                            resp_range: resp_start..resp_start,
                        };
                        self.exec_stmts(
                            &compiled.body,
                            &compiled.names,
                            &mut frame,
                            &mut snap,
                            &mut group,
                            &mut out,
                            handler,
                            None,
                        )?;
                        group.resp_range = resp_start..out.responses.len();
                        groups.push(group);
                    }
                }
            }
        }

        // 4: apply effects atomically; invariant groups transactionally.
        // The serialized-handler mirror survives the tick now, so these
        // commits maintain it too — it must keep tracking committed state
        // for the next tick's serialized messages.
        for group in &groups {
            touched.extend(touched_tables(&group.effects));
        }
        for group in groups {
            self.apply_group(group, &mut out, mirror.as_mut())?;
        }
        self.serial_mirror = mirror;

        // 5: functional dependencies (§5 relational constraints) are
        // monitored on every table written this tick. Transactional
        // handlers already rolled back on violation (see
        // `postconditions_hold`); anything that slipped through an
        // eventually-consistent handler is surfaced as a warning rather
        // than silently accepted.
        for table in touched {
            out.warnings.extend(self.fd_warnings(&table));
        }

        Ok(out)
    }

    /// Convenience driver: repeatedly tick, re-delivering any sends whose
    /// mailbox exists locally (immediate, in-order delivery — the
    /// zero-delay schedule). External sends accumulate in the returned
    /// output. Stops when quiescent or after `max_ticks`.
    pub fn run_to_quiescence(&mut self, max_ticks: usize) -> Result<TickOutput, TransducerError> {
        let mut all = TickOutput::default();
        for _ in 0..max_ticks {
            let pending: usize = self.mailboxes.values().map(Vec::len).sum();
            if pending == 0 {
                break;
            }
            let out = self.tick()?;
            all.responses.extend(out.responses);
            all.warnings.extend(out.warnings);
            all.messages_processed += out.messages_processed;
            for send in out.sends {
                if self.has_mailbox(&send.mailbox) {
                    self.enqueue(&send.mailbox, send.row)?;
                } else {
                    all.sends.push(send);
                }
            }
        }
        Ok(all)
    }
}

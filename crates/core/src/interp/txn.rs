//! Committing a tick's effects: effect groups apply one at a time, and a
//! group whose handler carries invariants commits transactionally —
//! preconditions on the pre-state, postconditions and functional
//! dependencies on the post-state, roll-back of exactly what it wrote.

use super::handler::key_row_of;
use super::state::TickMirror;
use super::{State, TickOutput, Transducer, TransducerError};
use crate::ast::ColumnKind;
use crate::eval::{EvalError, Row};
use crate::facets::Invariant;
use crate::value::Value;
use rustc_hash::FxHashMap;

/// A deferred state mutation, tagged with its effect group (handler
/// invocation) for transactional invariant enforcement.
#[derive(Clone, Debug)]
pub(super) enum Effect {
    MergeScalar(String, Value),
    AssignScalar(String, Value),
    MergeField {
        table: String,
        key: Row,
        col: usize,
        value: Value,
    },
    AssignField {
        table: String,
        key: Row,
        col: usize,
        value: Value,
    },
    InsertRow {
        table: String,
        row: Row,
    },
    DeleteRow {
        table: String,
        key: Row,
    },
    ClearMailbox(String),
}

/// Tables a set of effects writes (the scope of end-of-tick FD checks).
pub(super) fn touched_tables(effects: &[Effect]) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for e in effects {
        match e {
            Effect::MergeField { table, .. }
            | Effect::AssignField { table, .. }
            | Effect::InsertRow { table, .. }
            | Effect::DeleteRow { table, .. } => {
                out.insert(table.clone());
            }
            Effect::MergeScalar(..) | Effect::AssignScalar(..) | Effect::ClearMailbox(..) => {}
        }
    }
    out
}

/// One handler invocation's worth of effects plus its invariants (the
/// handler's name and invariants are read through the shared
/// [`ProgramCore`], not copied per message).
pub(super) struct EffectGroup<'c> {
    pub(super) handler: &'c str,
    pub(super) message_id: Option<u64>,
    pub(super) effects: Vec<Effect>,
    pub(super) invariants: &'c [Invariant],
    /// Invariant parameter values (e.g. `HasKey.key_param`) captured at
    /// group creation, one per invariant (`Null` where the invariant takes
    /// no parameter or the name was unbound) — the slot-frame replacement
    /// for cloning the whole bindings map per group.
    pub(super) inv_keys: Vec<Value>,
    /// The contiguous range of `TickOutput::responses` this group's
    /// execution produced, so a rollback rewrites exactly its optimistic
    /// replies instead of scanning every response of the tick.
    pub(super) resp_range: std::ops::Range<usize>,
}

impl Transducer {
    /// Check every FD of `table` against current state; one message per
    /// violated dependency.
    pub(super) fn fd_warnings(&self, table: &str) -> Vec<String> {
        let Some(decl) = self.core.program.table(table) else {
            return Vec::new();
        };
        if decl.fds.is_empty() {
            return Vec::new();
        }
        let Some(rows) = self.state.tables.get(table) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for fd in &decl.fds {
            if let Some((a, b)) = decl.fd_violation(fd, rows.values().map(|r| r.as_slice())) {
                out.push(format!(
                    "table {table:?}: functional dependency `{}` violated by rows {a:?} and {b:?}",
                    decl.fd_display(fd)
                ));
            }
        }
        out
    }

    /// Apply one effect group; transactional if it carries invariants.
    /// `mirror`, when present, is kept consistent with the state — through
    /// rollbacks included.
    pub(super) fn apply_group(
        &mut self,
        mut group: EffectGroup<'_>,
        out: &mut TickOutput,
        mut mirror: Option<&mut TickMirror>,
    ) -> Result<(), TransducerError> {
        if group.invariants.is_empty() {
            let effects = std::mem::take(&mut group.effects);
            for e in effects {
                self.apply_effect(e, out, mirror.as_deref_mut())?;
            }
            return Ok(());
        }
        // Preconditions (referential integrity) are checked against the
        // pre-state: a merge must not be allowed to conjure the row that
        // would justify it.
        if !self.preconditions_hold(&group)? {
            self.reject_group(&group, out);
            return Ok(());
        }
        // Transactional: snapshot, apply, check postconditions,
        // commit-or-rollback. Declared functional dependencies on the
        // tables this group wrote count as postconditions. The snapshot
        // covers *only what the group writes* — the first-touch original
        // of every (table, key) its effects name and of every scalar they
        // set — so a guarded message costs O(|its writes|), not O(|state|).
        // Mailbox clears live outside `State` and are not transactional
        // (the old whole-state clone never covered them either).
        let touched = touched_tables(&group.effects);
        let mut saved_rows: FxHashMap<(String, Row), Option<Row>> = FxHashMap::default();
        let mut saved_scalars: FxHashMap<String, Value> = FxHashMap::default();
        {
            let mut save_row = |state: &State, table: &str, key: &Row| {
                saved_rows
                    .entry((table.to_string(), key.clone()))
                    .or_insert_with(|| state.tables.get(table).and_then(|t| t.get(key)).cloned());
            };
            for e in &group.effects {
                match e {
                    Effect::MergeScalar(name, _) | Effect::AssignScalar(name, _) => {
                        if let Some(v) = self.state.scalars.get(name) {
                            saved_scalars
                                .entry(name.clone())
                                .or_insert_with(|| v.clone());
                        }
                    }
                    Effect::MergeField { table, key, .. }
                    | Effect::AssignField { table, key, .. }
                    | Effect::DeleteRow { table, key } => save_row(&self.state, table, key),
                    Effect::InsertRow { table, row } => {
                        if let Some(decl) = self.core.program.table(table) {
                            let key = decl.key_of(row);
                            save_row(&self.state, table, &key);
                        }
                    }
                    Effect::ClearMailbox(_) => {}
                }
            }
        }
        let effects = std::mem::take(&mut group.effects);
        for e in effects {
            self.apply_effect(e, out, mirror.as_deref_mut())?;
        }
        if self.postconditions_hold(&group)?
            && touched.iter().all(|t| self.fd_warnings(t).is_empty())
        {
            return Ok(());
        }
        // Roll back: put the first-touch originals back and re-mirror
        // exactly the touched entries — the mirror, like the state, is
        // repaired per key, never re-cloned wholesale. (Restores are
        // per-key independent, so the map's iteration order is
        // immaterial.)
        for ((table, key), old) in saved_rows {
            if let Some(t) = self.state.tables.get_mut(&table) {
                match old {
                    Some(row) => {
                        t.insert(key.clone(), row);
                    }
                    None => {
                        t.remove(&key);
                    }
                }
            }
            if let Some(m) = mirror.as_deref_mut() {
                m.refresh_row(&self.state, &table, &key);
            }
        }
        for (name, old) in saved_scalars {
            if let Some(m) = mirror.as_deref_mut() {
                m.scalars.insert(name.clone(), old.clone());
            }
            self.state.scalars.insert(name, old);
        }
        self.reject_group(&group, out);
        Ok(())
    }

    /// Replace the optimistic OK responses this group produced with ABORT
    /// and record a warning. The group's recorded response range makes
    /// this O(|its own replies|) — abort-heavy ticks no longer rescan
    /// every response per rolled-back group.
    fn reject_group(&mut self, group: &EffectGroup<'_>, out: &mut TickOutput) {
        if let Some(id) = group.message_id {
            for r in &mut out.responses[group.resp_range.clone()] {
                if r.message_id == id && r.handler == group.handler {
                    r.value = Value::Str("ABORT".to_string());
                }
            }
        }
        out.warnings.push(format!(
            "handler {:?} message {:?}: invariant violated, effects rolled back",
            group.handler, group.message_id
        ));
    }

    /// Referential-integrity preconditions, evaluated on the pre-state
    /// against the key values captured at group creation.
    fn preconditions_hold(&self, group: &EffectGroup<'_>) -> Result<bool, TransducerError> {
        for (inv, key) in group.invariants.iter().zip(&group.inv_keys) {
            if let Invariant::HasKey { table, .. } = inv {
                let key_row = key_row_of(key.clone());
                let present = self
                    .state
                    .tables
                    .get(table)
                    .is_some_and(|t| t.contains_key(&key_row));
                if !present {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Value-range postconditions, evaluated on the post-state.
    fn postconditions_hold(&self, group: &EffectGroup<'_>) -> Result<bool, TransducerError> {
        for inv in group.invariants {
            if let Invariant::NonNegative(scalar) = inv {
                let v = self
                    .state
                    .scalars
                    .get(scalar)
                    .ok_or_else(|| TransducerError::Unknown(scalar.clone()))?;
                if v.as_int().is_some_and(|i| i < 0) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn apply_effect(
        &mut self,
        effect: Effect,
        out: &mut TickOutput,
        mirror: Option<&mut TickMirror>,
    ) -> Result<(), TransducerError> {
        match effect {
            Effect::MergeScalar(name, value) => {
                let decl = self.core.program
                    .scalar(&name)
                    .ok_or_else(|| TransducerError::Unknown(name.clone()))?;
                let Some(kind) = decl.lattice.clone() else {
                    return Err(TransducerError::NotMergeable(name));
                };
                let slot = self
                    .state
                    .scalars
                    .get_mut(&name)
                    .ok_or_else(|| TransducerError::Unknown(name.clone()))?;
                self.pending.note_scalar(&name, slot);
                kind.merge(slot, value)
                    .map_err(|e| TransducerError::Eval(EvalError::Type {
                        expected: "lattice-shaped value",
                        got: e.to_string(),
                    }))?;
                if let Some(m) = mirror {
                    m.scalars.insert(name, slot.clone());
                }
            }
            Effect::AssignScalar(name, value) => {
                let slot = self
                    .state
                    .scalars
                    .get_mut(&name)
                    .ok_or_else(|| TransducerError::Unknown(name.clone()))?;
                self.pending.note_scalar(&name, slot);
                *slot = value;
                if let Some(m) = mirror {
                    m.scalars.insert(name, slot.clone());
                }
            }
            Effect::MergeField {
                table,
                key,
                col,
                value,
            } => {
                let decl = self.core.program
                    .table(&table)
                    .ok_or_else(|| TransducerError::Unknown(table.clone()))?
                    .clone();
                let ColumnKind::Lattice(kind) = &decl.columns[col].kind else {
                    return Err(TransducerError::NotMergeable(format!(
                        "{table}.{}",
                        decl.columns[col].name
                    )));
                };
                // MapUnion semantics: merging into an absent key creates
                // the row at lattice bottom first, keeping merges total and
                // order-insensitive (required for CALM confluence).
                let tab = self
                    .state
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| TransducerError::Unknown(table.clone()))?;
                self.pending.note_table(&table, &key, tab.get(&key));
                let row = tab
                    .entry(key.clone())
                    .or_insert_with(|| bottom_row(&decl, &key));
                kind.merge(&mut row[col], value).map_err(|e| {
                    TransducerError::Eval(EvalError::Type {
                        expected: "lattice-shaped value",
                        got: e.to_string(),
                    })
                })?;
                if let Some(m) = mirror {
                    m.refresh_row(&self.state, &table, &key);
                }
            }
            Effect::AssignField {
                table,
                key,
                col,
                value,
            } => {
                if let Some(t) = self.state.tables.get(&table) {
                    self.pending.note_table(&table, &key, t.get(&key));
                }
                match self
                    .state
                    .tables
                    .get_mut(&table)
                    .and_then(|t| t.get_mut(&key))
                {
                    Some(row) => {
                        row[col] = value;
                        if let Some(m) = mirror {
                            m.refresh_row(&self.state, &table, &key);
                        }
                    }
                    None => out.warnings.push(format!(
                        "assign into missing row {key:?} of {table:?} ignored"
                    )),
                }
            }
            Effect::InsertRow { table, row } => {
                let decl = self.core.program
                    .table(&table)
                    .ok_or_else(|| TransducerError::Unknown(table.clone()))?
                    .clone();
                let key = decl.key_of(&row);
                let slot = self
                    .state
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| TransducerError::Unknown(table.clone()))?;
                self.pending.note_table(&table, &key, slot.get(&key));
                match slot.entry(key.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(row);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        // Upsert: lattice columns merge; atom columns
                        // overwrite (a non-monotone act the typechecker
                        // flags when it can happen).
                        let existing = e.get_mut();
                        for (i, v) in row.into_iter().enumerate() {
                            match &decl.columns[i].kind {
                                ColumnKind::Lattice(kind) => {
                                    kind.merge(&mut existing[i], v).map_err(|err| {
                                        TransducerError::Eval(EvalError::Type {
                                            expected: "lattice-shaped value",
                                            got: err.to_string(),
                                        })
                                    })?;
                                }
                                ColumnKind::Atom => existing[i] = v,
                            }
                        }
                    }
                }
                if let Some(m) = mirror {
                    m.refresh_row(&self.state, &table, &key);
                }
            }
            Effect::DeleteRow { table, key } => {
                if let Some(t) = self.state.tables.get_mut(&table) {
                    self.pending.note_table(&table, &key, t.get(&key));
                    t.remove(&key);
                }
                if let Some(m) = mirror {
                    m.refresh_row(&self.state, &table, &key);
                }
            }
            Effect::ClearMailbox(name) => {
                if let Some(q) = self.mailboxes.get_mut(&name) {
                    if !q.is_empty() {
                        q.clear();
                        self.pending.note_mailbox(&name);
                    }
                }
            }
        }
        Ok(())
    }
}

/// A fresh row at lattice bottom for a table: key columns take the key's
/// values, lattice columns their bottoms, atom columns `Null`.
fn bottom_row(decl: &crate::ast::TableDecl, key: &[Value]) -> Row {
    let mut row: Row = decl
        .columns
        .iter()
        .map(|c| match &c.kind {
            ColumnKind::Lattice(kind) => kind.bottom(),
            ColumnKind::Atom => Value::Null,
        })
        .collect();
    for (slot, v) in decl.key.iter().zip(key.iter()) {
        row[*slot] = v.clone();
    }
    row
}

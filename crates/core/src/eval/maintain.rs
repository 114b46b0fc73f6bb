//! Unit maintenance: **one delta-round kernel, three sinks**.
//!
//! Every way a unit's heads are brought up to date — re-derivation (per
//! tick for `Recompute` units, per stratum for the fresh semi-naive
//! engine), the insert-only path, counting, delta-keyed aggregates, and
//! each phase of DRed — is built from two evaluation primitives on
//! [`UnitEnv`]: [`UnitEnv::full_round`] (rules in full, no delta atom) and
//! [`UnitEnv::delta_round`] (one body atom constrained to delta rows, fed
//! by the unit's changed inputs or by the rows the previous round landed).
//! [`UnitEnv::fixpoint`] alternates delta rounds with a landing step until
//! nothing new lands. The sinks are what a strategy does with the derived
//! rows: insert them into their head ([`UnitEnv::land`]), or collect
//! signed weights ([`UnitEnv::signed_expansion`]) and fold those into
//! support counts ([`UnitEnv::counting`]) or group multisets
//! ([`UnitEnv::agg_counting`]).
//!
//! **No roll-back.** A unit never writes its inputs. Every relation holds
//! its pre-tick state and its current one at once (the commit watermark
//! of [`Relation`](super::relation::Relation)), so where the algebra reads
//! an input as it was before the tick — the mixed-state walk of
//! `signed_expansion`, DRed's over-delete and re-derive phases — the unit
//! sets that input's [`View`] and sets it back. Heads are written in
//! place, and what a head lost stays stored until `EvalState::evaluate`
//! commits every changed relation at the end of the tick, the one place
//! tombstones are reclaimed. A head's delta is therefore its
//! [`uncommitted`](super::relation::Relation::uncommitted) change.
//!
//! Units taking a delta path never call UDFs (a UDF-calling unit is
//! volatile and re-derives), so only [`UnitEnv::rederive`] has a
//! stateful-UDF call order to preserve.

use super::plan::{EvalUnit, RuleSet};
use super::relation::{Database, RelDelta, Row, View};
use super::scan_cache::ScanCache;
use super::slots::Frame;
use super::{int_of, EvalCtx, EvalError, UdfHost};
use crate::ast::{AggFun, Program};
use crate::value::Value;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::hash_map::Entry;

/// What one round landed, per head: the next round's delta rows.
type Wave = FxHashMap<String, Vec<Row>>;

/// A strategy's result: the net change of each head that changed.
type HeadDeltas = Vec<(String, RelDelta)>;

/// Everything evaluating one unit reads or mutates.
pub(super) struct UnitEnv<'a> {
    pub(super) unit: &'a EvalUnit,
    pub(super) ruleset: &'a RuleSet,
    pub(super) program: &'a Program,
    pub(super) db: &'a mut Database,
    /// Scan indexes over `db`; every append to `db` below reports to it.
    pub(super) cache: &'a mut ScanCache,
    pub(super) scalars: &'a FxHashMap<String, Value>,
    pub(super) key_index: &'a FxHashMap<String, FxHashMap<Row, Row>>,
    pub(super) udfs: &'a mut UdfHost,
    /// Scratch frame, reused across rules and rounds.
    pub(super) frame: &'a mut Frame,
}

/// Where a delta round's delta atoms range.
enum Deltas<'a> {
    /// The unit's changed inputs, as `(input_variants index, delta)`: each
    /// delta's `added` rows (weight +1) and/or `removed` rows (weight −1),
    /// through every scan position of that input — except in rule slots
    /// listed in `skip`.
    Inputs {
        dirty: &'a [(usize, &'a RelDelta)],
        added: bool,
        removed: bool,
        skip: &'a [usize],
    },
    /// The rows the previous round landed, through the unit's same-SCC
    /// recursive scans.
    Wave(&'a Wave),
}

/// The unit's changed input relations as `(input_variants index, delta)`,
/// in `input_variants` (first-occurrence) order — the fixed relation
/// order the mixed-state delta expansion walks.
fn dirty_inputs<'c>(
    unit: &EvalUnit,
    changed: &'c FxHashMap<String, RelDelta>,
) -> Vec<(usize, &'c RelDelta)> {
    unit.input_variants
        .iter()
        .enumerate()
        .filter_map(|(i, (rel, _))| changed.get(rel).filter(|d| !d.is_empty()).map(|d| (i, d)))
        .collect()
}

/// Rule slots that scan one changed relation at two or more positions:
/// the per-relation delta expansion assumes each changed relation appears
/// exactly once per derivation term, so these recount exactly instead
/// (full evaluation against the old state weighted −1, against the new
/// state weighted +1). Sorted for deterministic evaluation order.
fn self_join_slots(unit: &EvalUnit, dirty: &[(usize, &RelDelta)]) -> Vec<usize> {
    let mut recount: Vec<usize> = Vec::new();
    for &(iv, _) in dirty {
        let mut seen: FxHashSet<usize> = FxHashSet::default();
        for &(slot, _) in &unit.input_variants[iv].1 {
            if !seen.insert(slot) {
                recount.push(slot);
            }
        }
    }
    recount.sort_unstable();
    recount.dedup();
    recount
}

impl<'a> UnitEnv<'a> {
    /// An evaluation context over the current database, and the scratch
    /// frame to evaluate with.
    pub(super) fn ctx(&mut self) -> (EvalCtx<'_>, &mut Frame) {
        let ctx = EvalCtx {
            program: self.program,
            db: self.db,
            scalars: self.scalars,
            key_index: self.key_index,
            udfs: self.udfs,
            scan_cache: self.cache,
        };
        (ctx, self.frame)
    }

    /// Read the changed inputs `dirty` in `view` from now on.
    fn view_inputs(&mut self, dirty: &[(usize, &RelDelta)], view: View) {
        for &(iv, _) in dirty {
            if let Some(rel) = self.db.get_mut(&self.unit.input_variants[iv].0) {
                rel.set_view(view);
            }
        }
    }

    /// The net change of each head since the last commit: everything this
    /// unit did to it this tick, since nothing else writes its heads.
    fn head_deltas(&self) -> HeadDeltas {
        self.unit
            .heads
            .iter()
            .filter_map(|h| {
                let delta = self.db.get(h)?.uncommitted();
                (!delta.is_empty()).then(|| (h.clone(), delta))
            })
            .collect()
    }

    // -----------------------------------------------------------------
    // The kernel.
    // -----------------------------------------------------------------

    /// Evaluate the rules in `slots` in full — no delta atom, source atom
    /// order — handing each derived row to `emit`.
    fn full_round(
        &mut self,
        slots: impl IntoIterator<Item = usize>,
        mut emit: impl FnMut(usize, Row) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let (unit, ruleset) = (self.unit, self.ruleset);
        let (mut ctx, frame) = self.ctx();
        for slot in slots {
            for row in unit
                .rule(ruleset, slot)
                .query
                .eval(None, true, frame, &mut ctx)?
            {
                emit(slot, row)?;
            }
        }
        Ok(())
    }

    /// Evaluate one round of delta variants — a rule with one scan
    /// constrained to delta rows while every other atom ranges over the
    /// full relations — handing each derived row to `emit` with its rule
    /// slot and the delta's weight.
    ///
    /// Sideways information passing: with `sip`, where the static reorder
    /// proof licenses it, a variant runs with the delta atom hoisted first
    /// so the remaining scans probe on its bindings. Re-derivation passes
    /// `false`: its rounds must keep the fresh engines' atom order so
    /// volatile units observe identical stateful-UDF call sequences.
    fn delta_round(
        &mut self,
        deltas: Deltas<'_>,
        sip: bool,
        mut emit: impl FnMut(usize, Row, i64) -> Result<(), EvalError>,
    ) -> Result<(), EvalError> {
        let (unit, ruleset) = (self.unit, self.ruleset);
        let (mut ctx, frame) = self.ctx();
        let mut variant = |slot: usize, pos: usize, rows: &[Row], weight: i64| {
            // The one place a delta variant's atom order is chosen.
            let rule = unit.rule(ruleset, slot);
            let (query, dpos) = match rule.sip.get(&pos) {
                Some(q) if sip => (q, 0),
                _ => (&rule.query, pos),
            };
            for row in query.eval(Some((dpos, rows)), true, frame, &mut ctx)? {
                emit(slot, row, weight)?;
            }
            Ok(())
        };
        match deltas {
            Deltas::Inputs {
                dirty,
                added,
                removed,
                skip,
            } => {
                for &(iv, d) in dirty {
                    let halves = [(added, &d.added, 1), (removed, &d.removed, -1)];
                    for &(slot, pos) in &unit.input_variants[iv].1 {
                        if skip.contains(&slot) {
                            continue;
                        }
                        for &(on, rows, weight) in &halves {
                            if on && !rows.is_empty() {
                                variant(slot, pos, rows, weight)?;
                            }
                        }
                    }
                }
            }
            Deltas::Wave(wave) => {
                for (slot, scans) in unit.rec_variants.iter().enumerate() {
                    for (pos, rel) in scans {
                        if let Some(rows) = wave.get(rel) {
                            variant(slot, *pos, rows, 1)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// One delta round's derivations, collected: a round is fully
    /// evaluated before it is landed, because landing mutates the
    /// relations the round scans.
    fn derive(&mut self, deltas: Deltas<'_>, sip: bool) -> Result<Vec<(usize, Row)>, EvalError> {
        let mut derived = Vec::new();
        self.delta_round(deltas, sip, |slot, row, _| {
            derived.push((slot, row));
            Ok(())
        })?;
        Ok(derived)
    }

    /// Run the unit's recursive rounds to quiescence: land a round's
    /// derivations, evaluate the delta variants of what landed, and repeat
    /// until a landing yields an empty wave.
    fn fixpoint(
        &mut self,
        mut derived: Vec<(usize, Row)>,
        sip: bool,
        mut land: impl FnMut(&mut Self, Vec<(usize, Row)>) -> Wave,
    ) -> Result<(), EvalError> {
        loop {
            let wave = land(self, derived);
            if wave.is_empty() {
                return Ok(());
            }
            derived = self.derive(Deltas::Wave(&wave), sip)?;
        }
    }

    // -----------------------------------------------------------------
    // Set sink: re-derivation and the insert-only path.
    // -----------------------------------------------------------------

    /// Insert a round's derivations into their heads. Rows new to their
    /// head form the next wave.
    fn land(&mut self, derived: Vec<(usize, Row)>) -> Wave {
        let mut next = Wave::default();
        for (slot, row) in derived {
            let head = &self.unit.rule(self.ruleset, slot).head;
            let rel = self.db.entry(head.clone()).or_default();
            if self.cache.insert_into(head, rel, &row) {
                next.entry(head.clone()).or_default().push(row);
            }
        }
        next
    }

    /// Derive the unit into its heads from scratch (the heads start empty,
    /// or hold only rows the rules re-derive): aggregations fold once —
    /// they read completed lower strata only — then every plain rule runs
    /// once in full and the recursive rounds run to fixpoint.
    pub(super) fn rederive(&mut self) -> Result<(), EvalError> {
        self.fold_aggs()?;
        let mut derived = Vec::new();
        self.full_round(0..self.unit.rules.len(), |slot, row| {
            derived.push((slot, row));
            Ok(())
        })?;
        self.fixpoint(derived, false, Self::land)
    }

    /// Evaluate the unit's aggregation rules and land their rows.
    pub(super) fn fold_aggs(&mut self) -> Result<(), EvalError> {
        let (unit, ruleset) = (self.unit, self.ruleset);
        for &ai in &unit.aggs {
            let rule = &ruleset.aggs[ai];
            let agg = rule.agg.expect("aggregation rule");
            let (mut ctx, frame) = self.ctx();
            let matches = rule.query.eval(None, true, frame, &mut ctx)?;
            let rel = self.db.entry(rule.head.clone()).or_default();
            for row in fold_groups(agg, matches)? {
                self.cache.insert_into(&rule.head, rel, &row);
            }
        }
        Ok(())
    }

    /// `Recompute`: remove every head row, re-derive, and report what
    /// moved. A row derived again revives in its old slot, so survivors
    /// keep their positions and every index over the heads stays valid.
    pub(super) fn recompute(&mut self) -> Result<HeadDeltas, EvalError> {
        for h in &self.unit.heads {
            self.db.entry(h.clone()).or_default().remove_all();
        }
        self.rederive()?;
        Ok(self.head_deltas())
    }

    /// `Incremental`: cross-tick semi-naive. Constraining one atom to an
    /// input's added rows while the others range over the (already
    /// updated) full relations covers every derivation that uses at least
    /// one new row; the over-derivation when several inputs changed at
    /// once is absorbed by deduplication, exactly as in the in-tick
    /// rounds. The rows that landed are the heads' deltas.
    pub(super) fn insert_only(
        &mut self,
        changed: &FxHashMap<String, RelDelta>,
    ) -> Result<HeadDeltas, EvalError> {
        let dirty = dirty_inputs(self.unit, changed);
        let seed = self.derive(added_rows(&dirty), true)?;
        self.fixpoint(seed, true, Self::land)?;
        Ok(self.head_deltas())
    }

    // -----------------------------------------------------------------
    // Counting and aggregate sinks.
    // -----------------------------------------------------------------

    /// The signed change, per rule slot, in how many body assignments
    /// derive each row, between the unit's pre-tick and current inputs.
    ///
    /// The changed inputs are first read in their [`View::Old`] state
    /// (where `init` runs, to build lazily created state from it). The
    /// mixed-state walk then takes them in a fixed order — relation *i*'s
    /// signed delta variants run with the relations before it in the new
    /// state and the relations after it in the old state, after which
    /// relation *i* is read in its new state — so each derivation's net
    /// weight change is counted exactly once. No input is written.
    fn signed_expansion(
        &mut self,
        changed: &FxHashMap<String, RelDelta>,
        init: impl FnOnce(&mut Self) -> Result<(), EvalError>,
    ) -> Result<Vec<FxHashMap<Row, i64>>, EvalError> {
        let unit = self.unit;
        let dirty = dirty_inputs(unit, changed);
        let recount = self_join_slots(unit, &dirty);
        self.view_inputs(&dirty, View::Old);
        init(self)?;

        let mut weights = vec![FxHashMap::default(); unit.slots()];
        let mut add = |slot: usize, row: Row, w: i64| {
            *weights[slot].entry(row).or_insert(0) += w;
            Ok(())
        };
        // Old-state half of the exact recount for self-join slots.
        self.full_round(recount.iter().copied(), |slot, row| add(slot, row, -1))?;
        for input in &dirty {
            let deltas = Deltas::Inputs {
                dirty: std::slice::from_ref(input),
                added: true,
                removed: true,
                skip: &recount,
            };
            self.delta_round(deltas, true, &mut add)?;
            self.view_inputs(std::slice::from_ref(input), View::New);
        }
        // New-state half of the self-join recounts.
        self.full_round(recount.iter().copied(), |slot, row| add(slot, row, 1))?;
        Ok(weights)
    }

    /// `Counting`: maintain a non-recursive rule unit by per-row support
    /// counts (how many body assignments currently derive each row). Rows
    /// whose support crosses zero retract or appear, and the net change
    /// cascades downstream as a signed delta. Support tables are built
    /// lazily (one full evaluation against the pre-tick state) the first
    /// tick the unit takes this path.
    pub(super) fn counting(
        &mut self,
        changed: &FxHashMap<String, RelDelta>,
        supports: &mut FxHashMap<String, FxHashMap<Row, i64>>,
    ) -> Result<HeadDeltas, EvalError> {
        let (unit, ruleset) = (self.unit, self.ruleset);
        let mut weights = self.signed_expansion(changed, |env| {
            if unit.heads.iter().all(|h| supports.contains_key(h)) {
                return Ok(());
            }
            for h in &unit.heads {
                supports.insert(h.clone(), FxHashMap::default());
            }
            env.full_round(0..unit.rules.len(), |slot, row| {
                let sup = supports.get_mut(&unit.rule(ruleset, slot).head);
                *sup.expect("inserted above").entry(row).or_insert(0) += 1;
                Ok(())
            })
        })?;

        // Fold the signed changes into the support table; rows crossing
        // zero materialize or retract, in sorted order for determinism.
        let mut out = HeadDeltas::new();
        for h in &unit.heads {
            // A head's weight is summed over all of its rules first.
            let mut net: FxHashMap<Row, i64> = FxHashMap::default();
            for (slot, by_row) in weights.iter_mut().enumerate() {
                if unit.rule(ruleset, slot).head == *h {
                    for (row, w) in by_row.drain() {
                        *net.entry(row).or_insert(0) += w;
                    }
                }
            }
            let mut rows: Vec<(Row, i64)> = net.into_iter().filter(|(_, w)| *w != 0).collect();
            if rows.is_empty() {
                continue;
            }
            rows.sort();
            let sup = supports
                .get_mut(h)
                .expect("initialized above or pre-existing");
            let rel = self.db.entry(h.clone()).or_default();
            let mut delta = RelDelta::default();
            for (row, w) in rows {
                let before = sup.get(&row).copied().unwrap_or(0);
                let after = before + w;
                debug_assert!(after >= 0, "support count went negative for {h}");
                if after == 0 {
                    sup.remove(&row);
                } else {
                    sup.insert(row.clone(), after);
                }
                if before <= 0 && after > 0 {
                    if self.cache.insert_into(h, rel, &row) {
                        delta.added.push(row);
                    }
                } else if before > 0 && after <= 0 && rel.remove(&row).is_some() {
                    delta.removed.push(row);
                }
            }
            if !delta.is_empty() {
                out.push((h.clone(), delta));
            }
        }
        Ok(out)
    }

    /// `CountingAgg`: delta-keyed maintenance of an aggregation unit. The
    /// signed match weights land in persistent per-group multisets
    /// ([`AggGroup`]) and only the groups an input delta touches re-fold
    /// and re-emit — untouched groups' head rows stand. Group state is
    /// built lazily, like support tables.
    pub(super) fn agg_counting(
        &mut self,
        changed: &FxHashMap<String, RelDelta>,
        agg_state: &mut FxHashMap<usize, FxHashMap<Row, AggGroup>>,
    ) -> Result<HeadDeltas, EvalError> {
        let (unit, ruleset) = (self.unit, self.ruleset);
        let agg_of = |slot: usize| ruleset.aggs[unit.aggs[slot]].agg.expect("aggregation rule");
        let mut weights = self.signed_expansion(changed, |env| {
            for (slot, &ai) in unit.aggs.iter().enumerate() {
                if agg_state.contains_key(&ai) {
                    continue;
                }
                let mut state: FxHashMap<Row, AggGroup> = FxHashMap::default();
                env.full_round([slot], |_, mut row| {
                    let over = row.pop().expect("projection includes `over`");
                    state.entry(row).or_default().add(agg_of(slot), &over, 1)
                })?;
                agg_state.insert(ai, state);
            }
            Ok(())
        })?;

        // Re-fold the touched groups, replacing each one's emitted head row.
        let mut out = HeadDeltas::new();
        for (slot, &ai) in unit.aggs.iter().enumerate() {
            let mut items: Vec<(Row, i64)> =
                weights[slot].drain().filter(|(_, w)| *w != 0).collect();
            if items.is_empty() {
                continue;
            }
            items.sort();
            let (agg, head) = (agg_of(slot), &ruleset.aggs[ai].head);
            let state = agg_state
                .get_mut(&ai)
                .expect("initialized above or pre-existing");
            // Stash each touched group's previously emitted row before the
            // first weight mutates its state.
            let mut touched: Vec<Row> = Vec::new();
            let mut old_rows: FxHashMap<Row, Option<Row>> = FxHashMap::default();
            for (mut prow, w) in items {
                let over = prow.pop().expect("projection includes `over`");
                let group = prow;
                if !old_rows.contains_key(&group) {
                    let old = state.get(&group).map(|g| g.emit(agg, &group));
                    old_rows.insert(group.clone(), old);
                    touched.push(group.clone());
                }
                state.entry(group).or_default().add(agg, &over, w)?;
            }
            touched.sort();
            let rel = self.db.entry(head.clone()).or_default();
            let mut delta = RelDelta::default();
            for group in touched {
                let old = old_rows.remove(&group).expect("stashed above");
                let new = match state.get(&group) {
                    Some(g) if g.n > 0 => Some(g.emit(agg, &group)),
                    _ => None,
                };
                if new.is_none() {
                    state.remove(&group);
                }
                if old == new {
                    continue;
                }
                if let Some(o) = old {
                    if rel.remove(&o).is_some() {
                        delta.removed.push(o);
                    }
                }
                if let Some(n) = new {
                    if self.cache.insert_into(head, rel, &n) {
                        delta.added.push(n);
                    }
                }
            }
            if !delta.is_empty() {
                out.push((head.clone(), delta));
            }
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // DRed.
    // -----------------------------------------------------------------

    /// `Dred`: delete-and-rederive maintenance of a recursive rule unit.
    /// Counting can't maintain recursion (a cyclic derivation supports
    /// itself), so retractions run in phases: over-delete the downward
    /// closure of the removed input rows, re-derive the survivors (rows
    /// with an alternative derivation that avoids everything deleted),
    /// then run the normal insertion fixpoint for the added input rows.
    /// The changed inputs are read in the state each phase needs — pre-tick
    /// ([`View::Old`]), pre-tick minus the removals ([`View::Mid`]), current
    /// ([`View::New`]) — and never written. The emitted delta is the heads'
    /// net change, so a row that rejoins its head is in neither half.
    pub(super) fn dred(
        &mut self,
        changed: &FxHashMap<String, RelDelta>,
    ) -> Result<HeadDeltas, EvalError> {
        let (unit, ruleset) = (self.unit, self.ruleset);
        let dirty = dirty_inputs(unit, changed);

        // Phase 1: over-delete. Mark every head row with a derivation
        // through a removed input row (or a previously marked head row),
        // evaluating against the *full* pre-tick database without mutating
        // it — deleting as we go would miss multi-hop derivations and
        // under-delete.
        self.view_inputs(&dirty, View::Old);
        let mut marked: FxHashMap<&str, FxHashSet<Row>> = FxHashMap::default();
        let removed_rows = Deltas::Inputs {
            dirty: &dirty,
            added: false,
            removed: true,
            skip: &[],
        };
        let seed = self.derive(removed_rows, true)?;
        self.fixpoint(seed, true, |env, derived| {
            let mut next = Wave::default();
            for (slot, row) in derived {
                let head = unit.rule(ruleset, slot).head.as_str();
                if env.db.get(head).is_some_and(|r| r.contains(&row))
                    && marked.entry(head).or_default().insert(row.clone())
                {
                    next.entry(head.to_string()).or_default().push(row);
                }
            }
            next
        })?;

        // Phase 2: remove the over-deletions (sorted — the marking sets
        // hash in arbitrary order) and read the inputs without their
        // removals: the post-deletion world DRed re-derives against.
        let mut deleted: Vec<(&String, Vec<Row>)> = Vec::new();
        for h in &unit.heads {
            let Some(set) = marked.remove(h.as_str()) else {
                continue;
            };
            let mut rows: Vec<Row> = set.into_iter().collect();
            rows.sort();
            let rel = self.db.get_mut(h).expect("a marked head exists");
            for row in &rows {
                rel.remove(row);
            }
            deleted.push((h, rows));
        }
        self.view_inputs(&dirty, View::Mid);

        // Phase 3: re-derive. An over-deleted row survives if some rule
        // still derives it in the deleted world — the per-row head-bound
        // check answers that with keyed probes; rules without a check
        // contribute one full evaluation, computed lazily and shared
        // across rows.
        let mut survivors: Vec<(usize, Row)> = Vec::new();
        let mut full_sets: FxHashMap<usize, FxHashSet<Row>> = FxHashMap::default();
        for (h, rows) in &deleted {
            for row in rows {
                for slot in 0..unit.rules.len() {
                    if unit.rule(ruleset, slot).head == **h
                        && self.still_derives(slot, row, &mut full_sets)?
                    {
                        survivors.push((slot, row.clone()));
                        break;
                    }
                }
            }
        }

        // Land the survivors, then propagate them through the recursive
        // rules to fixpoint: anything a survivor re-derives was itself
        // over-deleted (inputs have only shrunk so far), so each round
        // revives more of the marked set and nothing else.
        self.fixpoint(survivors, true, Self::land)?;

        // Phases 4 and 5: read the inputs in their current state, and run
        // the insertion — delta variants seeded by the added input rows,
        // then the recursive fixpoint.
        self.view_inputs(&dirty, View::New);
        let seed = self.derive(added_rows(&dirty), true)?;
        self.fixpoint(seed, true, Self::land)?;

        // The net per-head deltas, sorted for determinism.
        let mut out = self.head_deltas();
        for (_, delta) in &mut out {
            delta.added.sort();
            delta.removed.sort();
        }
        Ok(out)
    }

    /// Whether rule `slot` derives `row` against the current database: a
    /// keyed probe chain where the rule has a check query, else membership
    /// in the rule's full evaluation (computed on first use into
    /// `full_sets`).
    fn still_derives(
        &mut self,
        slot: usize,
        row: &Row,
        full_sets: &mut FxHashMap<usize, FxHashSet<Row>>,
    ) -> Result<bool, EvalError> {
        if let Some(check) = &self.unit.rule(self.ruleset, slot).check {
            let (mut ctx, frame) = self.ctx();
            return check
                .query
                .holds_with(&check.head_slots, row, frame, &mut ctx);
        }
        if let Entry::Vacant(unevaluated) = full_sets.entry(slot) {
            let mut set = FxHashSet::default();
            self.full_round([slot], |_, row| {
                set.insert(row);
                Ok(())
            })?;
            unevaluated.insert(set);
        }
        Ok(full_sets[&slot].contains(row))
    }
}

/// The delta source of an insertion round: every changed input's added
/// rows.
fn added_rows<'d>(dirty: &'d [(usize, &'d RelDelta)]) -> Deltas<'d> {
    Deltas::Inputs {
        dirty,
        added: true,
        removed: false,
        skip: &[],
    }
}

/// Persistent per-group aggregate state for delta-keyed maintenance: the
/// group's `over` values as a multiset, plus the running totals the cheap
/// folds read directly.
#[derive(Clone, Debug, Default)]
pub(super) struct AggGroup {
    /// `over` value → multiplicity of body matches producing it.
    counts: FxHashMap<Value, i64>,
    /// Total body-match multiplicity (the group's `Count`).
    n: i64,
    /// Wrapping sum of integer `over` values (maintained for `Sum`).
    sum: i64,
}

impl AggGroup {
    /// Fold one signed body-match weight into the group's state.
    fn add(&mut self, agg: AggFun, over: &Value, w: i64) -> Result<(), EvalError> {
        self.n += w;
        if matches!(agg, AggFun::Sum) {
            self.sum = self.sum.wrapping_add(int_of(over.clone())?.wrapping_mul(w));
        }
        let c = self.counts.entry(over.clone()).or_insert(0);
        *c += w;
        debug_assert!(*c >= 0, "aggregate multiset count went negative");
        if *c == 0 {
            self.counts.remove(over);
        }
        Ok(())
    }

    /// The head row the group currently emits. Must match [`fold_groups`]
    /// bit-for-bit — the differential suites pin counting against
    /// recompute. (Wrapping addition is commutative mod 2⁶⁴, so the
    /// incrementally maintained `sum` equals the recompute fold in any
    /// match order.)
    fn emit(&self, agg: AggFun, group: &Row) -> Row {
        let v = match agg {
            AggFun::Count => Value::Int(self.n),
            AggFun::Sum => Value::Int(self.sum),
            AggFun::Min => self.counts.keys().min().cloned().unwrap_or(Value::Null),
            AggFun::Max => self.counts.keys().max().cloned().unwrap_or(Value::Null),
            AggFun::CollectSet => Value::Set(self.counts.keys().cloned().collect()),
        };
        let mut row = group.clone();
        row.push(v);
        row
    }
}

/// Group an aggregation rule's body matches (group columns then `over`)
/// and fold each group to its head row, in sorted group order; the slot
/// twin of `reference::eval_agg_rule` (grouping and folding are identical —
/// only binding lookup differs).
fn fold_groups(agg: AggFun, matches: Vec<Row>) -> Result<Vec<Row>, EvalError> {
    let mut groups: FxHashMap<Row, Vec<Value>> = FxHashMap::default();
    for mut row in matches {
        let over = row.pop().expect("projection includes `over`");
        groups.entry(row).or_default().push(over);
    }
    let mut keys: Vec<Row> = groups.keys().cloned().collect();
    keys.sort();
    let mut out = Vec::with_capacity(keys.len());
    for key in keys {
        let values = &groups[&key];
        let v = match agg {
            AggFun::Count => Value::Int(values.len() as i64),
            AggFun::Sum => {
                let mut total = 0i64;
                for v in values {
                    total = total.wrapping_add(int_of(v.clone())?);
                }
                Value::Int(total)
            }
            AggFun::Min => values.iter().min().cloned().unwrap_or(Value::Null),
            AggFun::Max => values.iter().max().cloned().unwrap_or(Value::Null),
            AggFun::CollectSet => Value::Set(values.iter().cloned().collect()),
        };
        let mut row = key;
        row.push(v);
        out.push(row);
    }
    Ok(out)
}

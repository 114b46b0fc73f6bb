//! [`EvalState`]: the persistent cross-tick evaluation state, and the
//! per-tick classification of each unit into a maintenance strategy.

use super::fresh::naive_fixpoint;
use super::maintain::{AggGroup, UnitEnv};
use super::plan::{EvalUnit, ProgramPlan};
use super::relation::{Database, RelDelta, Relation, Row};
use super::scan_cache::ScanCache;
use super::slots::Frame;
use super::{EvalError, UdfHost};
use crate::ast::Program;
use crate::value::Value;
use rustc_hash::{FxHashMap, FxHashSet};

/// How a unit runs this tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum UnitMode {
    /// No dirty input: skip entirely, the materialized rows stand.
    Clean,
    /// Insert-only monotone change: cross-tick semi-naive from the
    /// input deltas.
    Incremental,
    /// Non-recursive rule unit with retraction-bearing (or support-
    /// tracked) monotone change: per-row support counting — signed delta
    /// variants adjust each derived row's derivation count, and rows
    /// whose support hits zero retract, cascading downstream.
    Counting,
    /// Agg unit whose changed inputs are all positive body scans:
    /// delta-keyed group maintenance — only the groups the input delta
    /// touches re-fold, from persistent per-group multisets.
    CountingAgg,
    /// Recursive rule unit with retractions: over-delete the downward
    /// closure of the removed rows, then re-derive survivors
    /// (delete-and-rederive), then run the insertion phase.
    Dred,
    /// Non-monotone read of a changed relation, changed scalar, or
    /// volatile rules — or counting disabled: re-derive this unit from
    /// scratch (the per-stratum fallback).
    Recompute,
}

/// Persistent cross-tick evaluation state: the materialized database
/// (base relations *and* every view), the scan indexes over it, the
/// table key mirror, and the compiled [`ProgramPlan`]. Owned by the
/// transducer and carried from tick to tick, so a tick's evaluation cost
/// tracks the delta, not the database:
///
/// * the caller applies base-relation deltas via
///   [`EvalState::apply_base_delta`] (maintaining indexes in place), then
/// * [`EvalState::evaluate`] walks the plan's units in dependency order,
///   classifying each against the changed relations ([`UnitMode`]): units
///   with no dirty input are skipped outright; insert-only monotone
///   changes run semi-naive rounds seeded by the deltas; retractions are
///   maintained by counting, delta-keyed groups or DRed; non-monotone
///   reads fall back to a unit-local recompute. Each unit's net head
///   deltas feed the units above it.
pub struct EvalState {
    /// The compiled program plan — immutable, shared (a sharded or
    /// replicated deployment compiles it once and hands every instance the
    /// same `Arc`; see `interp::ProgramCore`).
    plan: std::sync::Arc<ProgramPlan>,
    /// The materialized database: base relations plus every view.
    pub db: Database,
    /// Persistent key → row mirror per table (what `FieldOf`/`RowOf`/
    /// `HasKey` and handler snapshot reads consult).
    pub key_index: FxHashMap<String, FxHashMap<Row, Row>>,
    /// Persistent scalar snapshot, maintained from the journal like the
    /// key mirror — a tick must not re-clone every scalar value (lattice
    /// scalars can be large) just to build its evaluation context.
    pub scalars: FxHashMap<String, Value>,
    /// Per-table multiset counts of the rows keys hold, so the set-level
    /// `db` relation keeps a row until its *last* holding key goes.
    /// Defensive: the interpreter rejects key-column writes, so distinct
    /// keys should never hold identical rows (rows contain their key
    /// columns) — but the materialized set must degrade gracefully, not
    /// drop live rows, if that invariant is ever relaxed.
    row_counts: FxHashMap<String, FxHashMap<Row, u32>>,
    /// The scan indexes over `db`: every mutation of `db` reports to it,
    /// so the transducer also lends it to the tick's handlers (which only
    /// read `db`) instead of having them index a view per read.
    pub(crate) cache: ScanCache,
    initialized: bool,
    /// Per-head derived-row support counts for counting-maintained
    /// units: how many distinct rule-body assignments currently derive
    /// each row. Lazily built the first tick a unit takes the counting
    /// path, dropped whenever the unit recomputes (a recompute can't
    /// tell which derivations survived).
    supports: FxHashMap<String, FxHashMap<Row, i64>>,
    /// Per-agg-rule persistent group state (keyed by the rule's index
    /// into `Program::agg_rules`) for delta-keyed aggregate maintenance.
    /// Same lifecycle as `supports`.
    agg_state: FxHashMap<usize, FxHashMap<Row, AggGroup>>,
    /// Whether counting/DRed maintenance is enabled. Off, every
    /// retraction falls back to unit recompute — the differential
    /// reference mode (and the E19 bench comparison point).
    counting: bool,
    /// Recycled journal-fold scratch: the per-tick `changed` map and its
    /// `RelDelta`s, drained and cleared after each evaluation so the
    /// next tick's fold allocates nothing.
    changed_scratch: FxHashMap<String, RelDelta>,
    delta_pool: Vec<RelDelta>,
    /// View heads excluded from evaluation: units deriving any of these
    /// are skipped wholesale. Exchange shards set this for views the
    /// gather shard computes from shipped deltas instead (units are
    /// SCC-closed, so one tainted head taints the whole unit).
    skip_heads: std::collections::BTreeSet<String>,
    /// Whether units recompute with the naive fixpoint instead of the
    /// semi-naive kernel. Set only on a state built for one fresh naive
    /// tick, whose one evaluation recomputes every unit from empty and
    /// commits every relation, so the naive path reports no head deltas.
    pub(crate) naive: bool,
}

impl EvalState {
    /// Build the empty state (all base relations and views empty; the
    /// first [`EvalState::evaluate`] recomputes every unit) against an
    /// already-compiled, shared plan. The plan must have been compiled
    /// from this `program`.
    pub fn with_plan(program: &Program, plan: std::sync::Arc<ProgramPlan>) -> Self {
        let mut db = Database::default();
        let mut key_index = FxHashMap::default();
        for t in &program.tables {
            db.insert(t.name.clone(), Relation::new());
            key_index.insert(t.name.clone(), FxHashMap::default());
        }
        for h in &program.handlers {
            db.entry(h.name.clone()).or_default();
        }
        for m in &program.mailboxes {
            db.entry(m.name.clone()).or_default();
        }
        for r in &program.rules {
            db.entry(r.head.clone()).or_default();
        }
        for r in &program.agg_rules {
            db.entry(r.head.clone()).or_default();
        }
        EvalState {
            plan,
            db,
            key_index,
            scalars: FxHashMap::default(),
            row_counts: FxHashMap::default(),
            cache: ScanCache::default(),
            initialized: false,
            supports: FxHashMap::default(),
            agg_state: FxHashMap::default(),
            counting: true,
            changed_scratch: FxHashMap::default(),
            delta_pool: Vec::new(),
            skip_heads: std::collections::BTreeSet::new(),
            naive: false,
        }
    }

    /// Enable or disable counting/DRed maintenance (on by default).
    /// Disabled, retraction-bearing units fall back to unit-local
    /// recompute — retained as the differential-testing reference and
    /// the bench comparison point. Disabling drops the support and group
    /// state; re-enabling rebuilds it lazily.
    pub fn set_counting(&mut self, on: bool) {
        self.counting = on;
        if !on {
            self.supports.clear();
            self.agg_state.clear();
        }
    }

    /// How many scan indexes this state has built from a full pass over a
    /// relation ([`ScanCache::index_builds`]): constant once every access
    /// path of the program has been probed once.
    pub fn index_builds(&self) -> u64 {
        self.cache.index_builds()
    }

    /// How many times a relation of this state was compacted
    /// ([`ScanCache::compactions`]).
    pub fn compactions(&self) -> u64 {
        self.cache.compactions()
    }

    /// Take the recycled `changed`-map scratch for this tick's journal
    /// fold (returned to the pool by [`EvalState::evaluate`]). The map
    /// and the deltas from [`EvalState::pooled_delta`] retain their
    /// capacity across ticks, so steady-state folding allocates nothing.
    pub fn take_changed_scratch(&mut self) -> FxHashMap<String, RelDelta> {
        std::mem::take(&mut self.changed_scratch)
    }

    /// A cleared [`RelDelta`] from the recycling pool (or a fresh one).
    pub fn pooled_delta(&mut self) -> RelDelta {
        self.delta_pool.pop().unwrap_or_default()
    }

    /// Return an unused delta to the pool (deltas handed to
    /// [`EvalState::evaluate`] inside the `changed` map recycle
    /// automatically).
    pub fn recycle_delta(&mut self, mut d: RelDelta) {
        d.added.clear();
        d.removed.clear();
        self.delta_pool.push(d);
    }

    /// Exclude view heads from evaluation (see the `skip_heads` field).
    /// Valid only before the first [`EvalState::evaluate`] — install at
    /// (re)build time, like seeding.
    pub fn set_skip_heads(&mut self, heads: impl IntoIterator<Item = String>) {
        debug_assert!(!self.initialized);
        self.skip_heads = heads.into_iter().collect();
    }

    /// Bulk-load one base-relation row during (re)construction, bypassing
    /// delta tracking — valid only before the first [`EvalState::evaluate`],
    /// which recomputes every view anyway.
    pub fn seed_row(&mut self, rel: &str, row: Row) {
        debug_assert!(!self.initialized);
        self.db.entry(rel.to_string()).or_default().insert(row);
    }

    /// Bulk-load one keyed table row during (re)construction: key mirror,
    /// row multiset and base relation together.
    pub fn seed_table_row(&mut self, table: &str, key: Row, row: Row) {
        self.key_index
            .entry(table.to_string())
            .or_default()
            .insert(key, row.clone());
        *self
            .row_counts
            .entry(table.to_string())
            .or_default()
            .entry(row.clone())
            .or_default() += 1;
        self.seed_row(table, row);
    }

    /// Fold one table key's transition (`old` row → `new` row) into
    /// `delta`, maintaining the key mirror and the per-table row
    /// multiset: a row is only reported removed when its *last* holding
    /// key lets go, and only reported added when its *first* holder
    /// appears.
    pub fn note_key_transition(
        &mut self,
        table: &str,
        key: Row,
        old: Option<Row>,
        new: Option<&Row>,
        delta: &mut RelDelta,
    ) {
        let slot = self.key_index.entry(table.to_string()).or_default();
        match new {
            Some(row) => {
                slot.insert(key, row.clone());
            }
            None => {
                slot.remove(&key);
            }
        }
        let counts = self.row_counts.entry(table.to_string()).or_default();
        if let Some(o) = old {
            match counts.get_mut(&o) {
                Some(c) if *c > 1 => *c -= 1,
                _ => {
                    counts.remove(&o);
                    delta.removed.push(o);
                }
            }
        }
        if let Some(n) = new {
            let c = counts.entry(n.clone()).or_default();
            *c += 1;
            if *c == 1 {
                delta.added.push(n.clone());
            }
        }
    }

    /// Apply one base relation's delta, keeping the scan indexes current.
    /// The removed rows stay readable as the relation's old state until
    /// [`EvalState::evaluate`] commits it.
    pub fn apply_base_delta(&mut self, rel: &str, delta: &RelDelta) {
        let r = self.db.entry(rel.to_string()).or_default();
        for row in &delta.removed {
            r.remove(row);
        }
        for row in &delta.added {
            self.cache.insert_into(rel, r, row);
        }
    }

    /// Bring every view up to date given the base-relation deltas already
    /// applied via [`EvalState::apply_base_delta`] and the set of scalars
    /// whose values changed, then commit every relation that changed
    /// (the first evaluation commits them all): what it holds now becomes
    /// the old state the next tick's maintenance reads. On error the state
    /// is left partially updated — callers must discard it and rebuild.
    pub fn evaluate(
        &mut self,
        program: &Program,
        mut changed: FxHashMap<String, RelDelta>,
        changed_scalars: &FxHashSet<String>,
        udfs: &mut UdfHost,
    ) -> Result<(), EvalError> {
        let force_all = !self.initialized;
        self.initialized = true;
        let mut frame = Frame::default();
        let plan = self.plan.clone();
        let mut ran: Vec<&EvalUnit> = Vec::new();
        for unit in &plan.units {
            if !self.skip_heads.is_empty()
                && unit.heads.iter().any(|h| self.skip_heads.contains(h))
            {
                continue;
            }
            let mode = if force_all {
                UnitMode::Recompute
            } else {
                self.classify(unit, &changed, changed_scalars)
            };
            if mode == UnitMode::Recompute {
                // A recompute can't tell which derivations survived, so
                // any support/group state for this unit is now stale.
                for h in &unit.heads {
                    self.supports.remove(h);
                }
                for ai in &unit.aggs {
                    self.agg_state.remove(ai);
                }
            }
            let mut env = UnitEnv {
                unit,
                ruleset: &plan.ruleset,
                program,
                db: &mut self.db,
                cache: &mut self.cache,
                scalars: &self.scalars,
                key_index: &self.key_index,
                udfs,
                frame: &mut frame,
            };
            // Each strategy returns the unit's net head deltas, which the
            // units above it see as changed inputs.
            let out = match mode {
                UnitMode::Clean => continue,
                UnitMode::Recompute if self.naive => {
                    naive_fixpoint(&mut env)?;
                    Vec::new()
                }
                UnitMode::Recompute => env.recompute()?,
                UnitMode::Incremental => env.insert_only(&changed)?,
                UnitMode::Counting => env.counting(&changed, &mut self.supports)?,
                UnitMode::CountingAgg => env.agg_counting(&changed, &mut self.agg_state)?,
                UnitMode::Dred => env.dred(&changed)?,
            };
            changed.extend(out);
            ran.push(unit);
        }
        // Commit what the tick wrote: every changed relation, and the heads
        // of every unit that ran — a re-derived head can end where it
        // started, with removed-and-revived slots to settle. The first
        // evaluation commits everything, seeded base relations included.
        if force_all {
            for (name, rel) in self.db.iter_mut() {
                self.cache.commit(name, rel);
            }
        } else {
            for name in changed.keys().chain(ran.iter().flat_map(|u| &u.heads)) {
                if let Some(rel) = self.db.get_mut(name) {
                    self.cache.commit(name, rel);
                }
            }
        }
        // Recycle the fold scratch: the next tick's journal fold reuses
        // the map and its deltas via `take_changed_scratch`/`pooled_delta`
        // instead of rebuilding per-relation maps.
        self.delta_pool.extend(changed.drain().map(|(_, mut d)| {
            d.added.clear();
            d.removed.clear();
            d
        }));
        self.changed_scratch = changed;
        Ok(())
    }

    /// Pick this tick's strategy for an initialized unit, from its shape
    /// and from which of its reads changed.
    fn classify(
        &self,
        unit: &EvalUnit,
        changed: &FxHashMap<String, RelDelta>,
        changed_scalars: &FxHashSet<String>,
    ) -> UnitMode {
        let scalar_hit = unit.reads_scalar.iter().any(|s| changed_scalars.contains(s));
        // Non-monotone reads trigger on *touched* relations, not
        // non-empty deltas: a key transition can swap rows between
        // keys with no set-level change, which still invalidates
        // keyed reads of the table.
        let nonmono_hit = unit.reads_nonmono.iter().any(|r| changed.contains_key(r));
        let pos_removed = unit
            .reads_pos
            .iter()
            .any(|r| changed.get(r).is_some_and(|d| !d.removed.is_empty()));
        let pos_added = unit
            .reads_pos
            .iter()
            .any(|r| changed.get(r).is_some_and(|d| !d.added.is_empty()));
        if unit.volatile || scalar_hit {
            UnitMode::Recompute
        } else if !unit.aggs.is_empty() {
            if !nonmono_hit {
                UnitMode::Clean
            } else if self.counting
                && unit.agg_unique_heads
                && !unit.agg_nonmono.iter().any(|r| changed.contains_key(r))
            {
                UnitMode::CountingAgg
            } else {
                UnitMode::Recompute
            }
        } else if nonmono_hit {
            UnitMode::Recompute
        } else if pos_removed {
            if !self.counting {
                UnitMode::Recompute
            } else if unit.recursive {
                UnitMode::Dred
            } else {
                UnitMode::Counting
            }
        } else if pos_added {
            // Adds-only runs plain semi-naive — unless the unit has
            // live support counts, which only the counting path
            // keeps exact (semi-naive dedups; counts must not).
            if self.counting
                && !unit.recursive
                && unit.heads.iter().any(|h| self.supports.contains_key(h))
            {
                UnitMode::Counting
            } else {
                UnitMode::Incremental
            }
        } else {
            UnitMode::Clean
        }
    }
}

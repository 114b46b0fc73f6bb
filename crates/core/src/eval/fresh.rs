//! The fresh-per-call engines: compute every view over a base database
//! from nothing. Both walk one stratum skeleton and evaluate the same
//! slot-compiled [`RuleSet`] as the incremental engine; they differ only
//! in the fixpoint — semi-naive (the shared kernel in `maintain.rs`, each
//! stratum one big unit) or the independent naive loop below.

use super::maintain::UnitEnv;
use super::plan::{stratify, stratum_units, RuleSet};
use super::relation::{Database, Row};
use super::scan_cache::ScanCache;
use super::slots::Frame;
use super::{build_key_indexes, EvalError, UdfHost};
use crate::ast::Program;
use crate::value::Value;
use rustc_hash::FxHashMap;

/// Seed the view relations (they must exist, possibly empty) and clone
/// the base database every fresh evaluator starts from.
pub(super) fn seed_views(program: &Program, base: &Database) -> Database {
    let mut db: Database = base.clone();
    for r in &program.rules {
        db.entry(r.head.clone()).or_default();
    }
    for r in &program.agg_rules {
        db.entry(r.head.clone()).or_default();
    }
    db
}

/// Compute all views over the base database, stratum by stratum, each
/// stratum to fixpoint **semi-naively** (see the module docs for the
/// algorithm and its delta invariant), evaluating slot-compiled rules.
/// Returns the database extended with every view.
pub fn evaluate_views(
    program: &Program,
    base: &Database,
    scalars: &FxHashMap<String, Value>,
    udfs: &mut UdfHost,
) -> Result<Database, EvalError> {
    evaluate_fresh(program, base, scalars, udfs, false)
}

/// The naive evaluator: full re-derivation of every rule from the complete
/// database each round, pure nested-loop scans in source order, no
/// indexes. It evaluates the **same slot-compiled rules** as the other
/// engines (one resolver — slot assignment, error reachability and
/// stateful-UDF ordering are bit-identical); only the fixpoint algorithm
/// and access paths differ. Retained as the algorithmic reference for
/// differential tests and for before/after benchmarking in E1/E8.
pub fn evaluate_views_naive(
    program: &Program,
    base: &Database,
    scalars: &FxHashMap<String, Value>,
    udfs: &mut UdfHost,
) -> Result<Database, EvalError> {
    evaluate_fresh(program, base, scalars, udfs, true)
}

fn evaluate_fresh(
    program: &Program,
    base: &Database,
    scalars: &FxHashMap<String, Value>,
    udfs: &mut UdfHost,
    naive: bool,
) -> Result<Database, EvalError> {
    let strata = stratify(program)?;
    let max_stratum = strata.values().copied().max().unwrap_or(0);
    let ruleset = RuleSet::compile(program, &crate::reorder::ReorderReport::analyze(program));

    let mut db = seed_views(program, base);
    let key_index = build_key_indexes(program, base);
    // Semi-naive keeps one index cache for the whole evaluation: relations
    // only grow, and every landing reports its appends.
    let mut cache = ScanCache::default();
    let mut frame = Frame::default();

    for s in 0..=max_stratum {
        for unit in stratum_units(program, &strata, s, false) {
            let mut env = UnitEnv {
                unit: &unit,
                ruleset: &ruleset,
                program,
                db: &mut db,
                cache: &mut cache,
                scalars,
                key_index: &key_index,
                udfs,
                frame: &mut frame,
            };
            if naive {
                naive_fixpoint(&mut env)?;
            } else {
                env.rederive()?;
            }
        }
    }
    Ok(db)
}

/// Run a unit the naive way. Aggregations behave identically in both
/// evaluators (they never participate in a fixpoint); only the loop below
/// is an independent implementation: every rule in full, without indexes,
/// until a round derives nothing new. Also the recompute of a fresh naive
/// tick's [`EvalState`](super::EvalState).
pub(super) fn naive_fixpoint(env: &mut UnitEnv<'_>) -> Result<(), EvalError> {
    // The loop below lands rows without reporting them to the cache, so
    // the aggregation pass and every round start from a throwaway one.
    *env.cache = ScanCache::default();
    env.fold_aggs()?;
    let rules: Vec<_> = (0..env.unit.rules.len())
        .map(|slot| env.unit.rule(env.ruleset, slot))
        .collect();
    loop {
        *env.cache = ScanCache::default();
        let mut derived: Vec<(&str, Row)> = Vec::new();
        let (mut ctx, frame) = env.ctx();
        for rule in &rules {
            for row in rule.query.eval(None, false, frame, &mut ctx)? {
                derived.push((rule.head.as_str(), row));
            }
        }
        let mut changed = false;
        for (head, row) in derived {
            changed |= env.db.entry(head.to_string()).or_default().insert(row).is_some();
        }
        if !changed {
            return Ok(());
        }
    }
}

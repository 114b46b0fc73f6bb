//! Relations: deduplicated, insertion-ordered, tombstone-deleting row
//! sets, and the signed per-relation change ([`RelDelta`]) the
//! incremental engine passes between units.

use crate::value::Value;
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;

/// A tuple of values.
pub type Row = Vec<Value>;

/// A deduplicated relation preserving insertion order (for deterministic
/// iteration).
///
/// Removal is tombstone-based so row *positions* stay stable: the scan
/// indexes of a persistent [`ScanCache`] hold storage positions, and a
/// removal must not shift the rows behind it. Dead slots are skipped by
/// iteration and reclaimed by [`Relation::compact`], which renumbers the
/// live rows and returns the old → new position table so that an index
/// over positions is rewritten through it, not rebuilt (`ScanCache::compact`
/// does both).
#[derive(Clone, Debug, Default)]
pub struct Relation {
    rows: Vec<Row>,
    live: Vec<bool>,
    index: FxHashMap<Row, usize>,
    dead: usize,
}

impl Relation {
    /// Empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from rows, deduplicating.
    pub fn from_rows(rows: impl IntoIterator<Item = Row>) -> Self {
        let mut r = Relation::new();
        for row in rows {
            r.insert(row);
        }
        r
    }

    /// Insert a row; returns `true` if new. Probes before cloning so the
    /// duplicate case — the hottest path of a fixpoint's dedup — allocates
    /// nothing.
    pub fn insert(&mut self, row: Row) -> bool {
        if self.index.contains_key(&row) {
            return false;
        }
        self.index.insert(row.clone(), self.rows.len());
        self.rows.push(row);
        self.live.push(true);
        true
    }

    /// Remove a row, returning its storage position if it was present.
    /// The slot becomes a tombstone; positions of other rows are stable.
    pub fn remove(&mut self, row: &[Value]) -> Option<usize> {
        let pos = self.index.remove(row)?;
        self.live[pos] = false;
        self.dead += 1;
        Some(pos)
    }

    /// Membership test.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.index.contains_key(row)
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.rows.len() - self.dead
    }

    /// Whether no live rows remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage slots used, tombstones included: `storage_len() - 1` is the
    /// position of the most recently inserted row.
    pub fn storage_len(&self) -> usize {
        self.rows.len()
    }

    /// Iterate live rows in insertion order. Tombstone-free relations
    /// (every relation the fresh evaluators ever see) skip the liveness
    /// filter entirely.
    pub fn iter(&self) -> RelIter<'_> {
        RelIter {
            rows: self.rows.iter().enumerate(),
            live: (self.dead > 0).then_some(&self.live),
        }
    }

    /// Iterate `(storage position, row)` over live rows in insertion order.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, &Row)> {
        let live = (self.dead > 0).then_some(&self.live);
        self.rows
            .iter()
            .enumerate()
            .filter(move |(i, _)| live.is_none_or(|l| l[*i]))
    }

    /// Row at storage position `i` (for index-driven access paths; callers
    /// must only pass live positions).
    pub fn row(&self, i: usize) -> &Row {
        &self.rows[i]
    }

    /// Whether tombstones are worth reclaiming. The ratio trigger keeps a
    /// delete-heavy resident relation's storage bounded at ~1.25× its
    /// live size (plus a small constant floor that stops tiny relations
    /// from compacting on every removal): reclaiming `len/4` tombstones
    /// pays one O(len) sweep per `len/4` removals — amortized O(1).
    pub fn should_compact(&self) -> bool {
        self.dead > 64 && self.dead * 4 >= self.len()
    }

    /// Drop tombstones in place, renumbering storage positions, and return
    /// the old → new position table (`usize::MAX` for a dead slot). Live
    /// rows keep their relative order, so positions stay ascending in
    /// insertion order and an index over them is rewritten through the
    /// table, entry by entry. No row is cloned or re-hashed.
    pub fn compact(&mut self) -> Vec<usize> {
        let mut kept = 0;
        let remap: Vec<usize> = self
            .live
            .iter()
            .map(|&alive| {
                let new = if alive { kept } else { usize::MAX };
                kept += usize::from(alive);
                new
            })
            .collect();
        let mut live = self.live.iter();
        self.rows
            .retain(|_| *live.next().expect("one flag per slot"));
        self.live.clear();
        self.live.resize(kept, true);
        self.dead = 0;
        for pos in self.index.values_mut() {
            *pos = remap[*pos];
        }
        remap
    }

    /// Rows as a sorted set (for order-insensitive comparisons in tests).
    pub fn to_set(&self) -> BTreeSet<Row> {
        self.iter().cloned().collect()
    }
}

/// Iterator over a [`Relation`]'s live rows; `live` is `None` when the
/// relation has no tombstones, making the hot (fresh-evaluation) case a
/// plain slice walk.
pub struct RelIter<'a> {
    rows: std::iter::Enumerate<std::slice::Iter<'a, Row>>,
    live: Option<&'a Vec<bool>>,
}

impl<'a> Iterator for RelIter<'a> {
    type Item = &'a Row;

    fn next(&mut self) -> Option<&'a Row> {
        match self.live {
            None => self.rows.next().map(|(_, r)| r),
            Some(live) => loop {
                let (i, r) = self.rows.next()?;
                if live[i] {
                    return Some(r);
                }
            },
        }
    }
}

/// A named collection of relations.
pub type Database = FxHashMap<String, Relation>;

/// A set-level change to one relation: rows that appeared and rows that
/// vanished since the last evaluation.
#[derive(Clone, Debug, Default)]
pub struct RelDelta {
    /// Rows newly present.
    pub added: Vec<Row>,
    /// Rows no longer present.
    pub removed: Vec<Row>,
}

impl RelDelta {
    /// Whether the delta carries no change.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Set-diff two relations: rows of `old` absent from `new` are
    /// removed, rows of `new` absent from `old` are added.
    pub fn diff(old: &Relation, new: &Relation) -> Self {
        let mut delta = RelDelta::default();
        for row in old.iter() {
            if !new.contains(row) {
                delta.removed.push(row.clone());
            }
        }
        for row in new.iter() {
            if !old.contains(row) {
                delta.added.push(row.clone());
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sustained churn on a resident relation must keep storage bounded
    /// by the live size: the ratio trigger (dead > live/4, past a small
    /// floor) compacts a delete-heavy table instead of letting tombstones
    /// accumulate forever, which the old insert-tuned cadence allowed.
    #[test]
    fn relation_compaction_bounds_churn_storage() {
        let mut rel = Relation::new();
        let resident = 400i64;
        for i in 0..resident {
            rel.insert(vec![Value::Int(i)]);
        }
        // 10k churn cycles: delete one resident row, add a fresh one —
        // live size stays constant while tombstones accrue.
        for i in 0..10_000i64 {
            rel.remove(&[Value::Int(i)]);
            rel.insert(vec![Value::Int(resident + i)]);
            if rel.should_compact() {
                rel.compact();
            }
        }
        assert_eq!(rel.len(), resident as usize);
        // Ratio trigger: storage ≤ live + live/4 + floor (+1 hysteresis).
        let bound = rel.len() + rel.len() / 4 + 64 + 1;
        assert!(
            rel.storage_len() <= bound,
            "churned relation kept {} storage slots for {} live rows (bound {})",
            rel.storage_len(),
            rel.len(),
            bound
        );
        // Content survives the compaction cycles intact.
        for i in 10_000..10_000 + resident {
            assert!(rel.contains(&[Value::Int(i)]));
        }
    }

    /// Renumbering by hand: the table maps each live slot to its rank
    /// among the live slots, dead slots to `usize::MAX`, and the rows come
    /// out in their old order at exactly those positions.
    #[test]
    fn compact_returns_the_old_to_new_position_table() {
        let mut rel = Relation::from_rows((0..6).map(|i| vec![Value::Int(i)]));
        assert_eq!(rel.remove(&[Value::Int(1)]), Some(1));
        assert_eq!(rel.remove(&[Value::Int(4)]), Some(4));
        let dead = usize::MAX;
        assert_eq!(rel.compact(), vec![0, dead, 1, 2, dead, 3]);
        assert_eq!(rel.storage_len(), 4);
        let rows: Vec<&Row> = rel.iter().collect();
        assert_eq!(
            rows,
            [
                &[Value::Int(0)],
                &[Value::Int(2)],
                &[Value::Int(3)],
                &[Value::Int(5)]
            ]
        );
        assert_eq!(rel.row(3), &[Value::Int(5)]);
        assert_eq!(rel.remove(&[Value::Int(3)]), Some(2));
        // Nothing to reclaim: the identity table.
        let mut full = Relation::from_rows((0..3).map(|i| vec![Value::Int(i)]));
        assert_eq!(full.compact(), vec![0, 1, 2]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Random insert/remove sequences that cross `should_compact`
        /// several times, against a model of the storage slots: every
        /// compaction keeps the live rows, their order and nothing else,
        /// and `remove` keeps returning the (renumbered) position.
        #[test]
        fn compaction_preserves_rows_order_and_positions(
            ops in proptest::collection::vec((proptest::prelude::any::<bool>(), 0i64..48), 900..1200),
        ) {
            let mut rel = Relation::new();
            let mut slots: Vec<Option<Row>> = Vec::new();
            let mut compactions = 0;
            for (insert, k) in ops {
                let row = vec![Value::Int(k % 5), Value::Int(k)];
                let at = slots.iter().position(|s| s.as_ref() == Some(&row));
                assert_eq!(rel.contains(&row), at.is_some());
                if insert {
                    assert_eq!(rel.insert(row.clone()), at.is_none());
                    if at.is_none() {
                        slots.push(Some(row));
                    }
                } else {
                    assert_eq!(rel.remove(&row), at);
                    if let Some(at) = at {
                        slots[at] = None;
                    }
                }
                if rel.should_compact() {
                    let remap = rel.compact();
                    compactions += 1;
                    let mut kept = 0..;
                    let expect: Vec<usize> = slots
                        .iter()
                        .map(|s| s.as_ref().map_or(usize::MAX, |_| kept.next().expect("unbounded")))
                        .collect();
                    assert_eq!(remap, expect);
                    slots.retain(Option::is_some);
                    assert_eq!(rel.storage_len(), rel.len());
                }
                assert_eq!(rel.storage_len(), slots.len());
                assert!(rel.iter().eq(slots.iter().flatten()));
                assert!(rel
                    .iter_indexed()
                    .eq(slots.iter().enumerate().filter_map(|(i, s)| Some((i, s.as_ref()?)))));
            }
            assert!(compactions >= 2, "only {compactions} compactions: the sequence is too tame");
        }
    }
}

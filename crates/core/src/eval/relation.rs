//! Relations: deduplicated, insertion-ordered row sets that remember
//! their last committed state, and the signed per-relation change
//! ([`RelDelta`]) the incremental engine passes between units.

use crate::value::Value;
use rustc_hash::FxHashMap;
use std::collections::BTreeSet;

/// A tuple of values.
pub type Row = Vec<Value>;

/// What one storage slot holds, relative to the last [`Relation::commit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// A present row.
    Live,
    /// A row removed since the last commit: still stored, still indexed,
    /// still part of the old state.
    Removed,
    /// A tombstone: gone before the last commit, reclaimed by
    /// [`Relation::compact`].
    Dead,
}

/// Which state of a relation scans, membership tests and iteration read.
///
/// Between two commits a relation holds two states at once: the *old*
/// one (what it held at the last commit) and the *new* one (what it holds
/// now). View maintenance reads a changed input in the state the
/// algebra asks for instead of rolling it back and forward.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum View {
    /// The rows present now.
    #[default]
    New,
    /// The rows present at the last commit.
    Old,
    /// The rows present both at the last commit and now: the old state
    /// minus this tick's removals, without its additions.
    Mid,
}

/// How [`Relation::insert`] placed a row that was not present.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inserted {
    /// Stored at a new slot, this storage position.
    Appended(usize),
    /// The row was removed since the last commit; its old slot is live
    /// again, at the position it always had.
    Revived,
}

/// A deduplicated relation preserving insertion order (for deterministic
/// iteration), with a **commit watermark**.
///
/// Row positions are stable: the scan indexes of a persistent
/// [`ScanCache`](super::ScanCache) hold storage positions, so nothing may
/// shift the rows behind a removed one. A removal only marks its slot;
/// the row stays stored and indexed until [`Relation::commit`] turns the
/// marked slots into tombstones and moves the watermark (`committed`, the
/// storage length at that commit) to the end. Re-inserting a removed row
/// before that revives its old slot. So the relation holds its old state
/// (slots below the watermark that are not tombstones) and its new state
/// (live slots) at once, and [`View`] picks which one reads see.
/// Tombstones are reclaimed by [`Relation::compact`], which renumbers the
/// live rows and returns the old → new position table so that an index
/// over positions is rewritten through it, not rebuilt.
///
/// A relation nobody commits — every relation of the fresh engines — has
/// an empty old state and is read through the default [`View::New`].
#[derive(Clone, Debug, Default)]
pub struct Relation {
    rows: Vec<Row>,
    slots: Vec<Slot>,
    /// Row → position of its live or removed slot.
    index: FxHashMap<Row, usize>,
    live: usize,
    dead: usize,
    /// Slots marked removed since the last commit, in marking order (a
    /// slot revived and removed again appears twice).
    removed: Vec<usize>,
    /// Storage length at the last commit.
    committed: usize,
    view: View,
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

    /// Insert a row; `None` if it is already present. Probes before
    /// cloning so the duplicate case — the hottest path of a fixpoint's
    /// dedup — allocates nothing.
    pub fn insert(&mut self, row: Row) -> Option<Inserted> {
        if let Some(&pos) = self.index.get(&row) {
            if self.slots[pos] == Slot::Live {
                return None;
            }
            self.slots[pos] = Slot::Live;
            self.live += 1;
            return Some(Inserted::Revived);
        }
        let pos = self.rows.len();
        self.index.insert(row.clone(), pos);
        self.rows.push(row);
        self.slots.push(Slot::Live);
        self.live += 1;
        Some(Inserted::Appended(pos))
    }

    /// Remove a row, returning its storage position if it was present.
    /// The slot keeps its row until the next [`Relation::commit`].
    pub fn remove(&mut self, row: &[Value]) -> Option<usize> {
        let pos = *self.index.get(row)?;
        if self.slots[pos] != Slot::Live {
            return None;
        }
        self.slots[pos] = Slot::Removed;
        self.live -= 1;
        self.removed.push(pos);
        Some(pos)
    }

    /// Remove every row (a unit about to re-derive its heads): rows the
    /// re-derivation produces again revive in place.
    pub fn remove_all(&mut self) {
        for (pos, slot) in self.slots.iter_mut().enumerate() {
            if *slot == Slot::Live {
                *slot = Slot::Removed;
                self.removed.push(pos);
            }
        }
        self.live = 0;
    }

    /// Pick the state reads see until the next [`Relation::commit`].
    pub fn set_view(&mut self, view: View) {
        self.view = view;
    }

    /// Whether the row at storage position `i` is in the current view.
    pub fn visible(&self, i: usize) -> bool {
        match self.view {
            View::New => self.slots[i] == Slot::Live,
            View::Old => i < self.committed && self.slots[i] != Slot::Dead,
            View::Mid => i < self.committed && self.slots[i] == Slot::Live,
        }
    }

    /// Membership test, in the current view.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.index.get(row).is_some_and(|&i| self.visible(i))
    }

    /// The change since the last commit: live rows above the watermark
    /// (added) and removed rows below it (removed), each in storage order.
    /// A row removed and re-added in between is in neither.
    pub fn uncommitted(&self) -> RelDelta {
        let added = (self.committed..self.rows.len())
            .filter(|&i| self.slots[i] == Slot::Live)
            .map(|i| self.rows[i].clone())
            .collect();
        let mut gone: Vec<usize> = self
            .removed
            .iter()
            .copied()
            .filter(|&i| i < self.committed && self.slots[i] == Slot::Removed)
            .collect();
        gone.sort_unstable();
        gone.dedup();
        RelDelta {
            added,
            removed: gone.into_iter().map(|i| self.rows[i].clone()).collect(),
        }
    }

    /// Make the new state the old one: tombstone every slot removed since
    /// the last commit, move the watermark to the end of storage and reset
    /// the view to [`View::New`]. Returns the tombstoned positions,
    /// ascending; their rows stay readable through [`Relation::row`] until
    /// the next [`Relation::compact`].
    pub fn commit(&mut self) -> Vec<usize> {
        let mut gone = std::mem::take(&mut self.removed);
        gone.sort_unstable();
        gone.dedup();
        gone.retain(|&i| self.slots[i] == Slot::Removed);
        for &i in &gone {
            self.slots[i] = Slot::Dead;
            self.index.remove(&self.rows[i]);
        }
        self.dead += gone.len();
        self.committed = self.rows.len();
        self.view = View::New;
        gone
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
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

    /// Iterate the current view's rows in insertion order. A relation
    /// whose every slot is live (every relation the fresh evaluators ever
    /// see) is read as a plain slice walk.
    pub fn iter(&self) -> RelIter<'_> {
        let end = match self.view {
            View::New => self.rows.len(),
            View::Old | View::Mid => self.committed,
        };
        let all_live = self.live == self.rows.len();
        RelIter {
            rows: self.rows[..end].iter().enumerate(),
            filter: (!all_live).then_some(self),
        }
    }

    /// Iterate `(storage position, row)` over every slot that is not a
    /// tombstone — live or removed since the last commit, whatever the
    /// view: what a scan index over the relation holds.
    pub fn iter_stored(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter(move |(i, _)| self.slots[*i] != Slot::Dead)
    }

    /// Row at storage position `i` (for index-driven access paths, which
    /// filter positions by [`Relation::visible`]).
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
    /// table, entry by entry. No row is cloned or re-hashed. Only valid
    /// right after a [`Relation::commit`], when no slot is marked removed.
    pub fn compact(&mut self) -> Vec<usize> {
        debug_assert!(self.removed.is_empty(), "compact only right after a commit");
        let mut kept = 0;
        let remap: Vec<usize> = self
            .slots
            .iter()
            .map(|&slot| {
                let alive = slot == Slot::Live;
                let new = if alive { kept } else { usize::MAX };
                kept += usize::from(alive);
                new
            })
            .collect();
        let mut slots = self.slots.iter();
        self.rows
            .retain(|_| *slots.next().expect("one slot per row") == Slot::Live);
        self.slots.clear();
        self.slots.resize(kept, Slot::Live);
        self.dead = 0;
        self.committed = kept;
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

/// Iterator over a [`Relation`]'s rows in its current view; `filter` is
/// `None` when every slot is live, making the hot (fresh-evaluation) case
/// a plain slice walk.
pub struct RelIter<'a> {
    rows: std::iter::Enumerate<std::slice::Iter<'a, Row>>,
    filter: Option<&'a Relation>,
}

impl<'a> Iterator for RelIter<'a> {
    type Item = &'a Row;

    fn next(&mut self) -> Option<&'a Row> {
        match self.filter {
            None => self.rows.next().map(|(_, r)| r),
            Some(rel) => loop {
                let (i, r) = self.rows.next()?;
                if rel.visible(i) {
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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
            rel.commit();
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
        assert_eq!(rel.commit(), vec![1, 4]);
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
        full.commit();
        assert_eq!(full.compact(), vec![0, 1, 2]);
    }

    /// The three views between two commits, by hand: a removed row stays
    /// in the old view, an added one is only in the new, a row removed and
    /// re-added keeps its slot and is in all three.
    #[test]
    fn views_read_the_old_the_new_and_the_surviving_state() {
        let int = |i: i64| vec![Value::Int(i)];
        let mut rel = Relation::from_rows((0..4).map(int));
        rel.commit();
        rel.remove(&int(1));
        rel.remove(&int(2));
        assert_eq!(rel.insert(int(2)), Some(Inserted::Revived));
        assert_eq!(rel.insert(int(9)), Some(Inserted::Appended(4)));
        assert_eq!(rel.insert(int(9)), None);
        let read = |rel: &mut Relation, view| {
            rel.set_view(view);
            rel.iter()
                .map(|r| r[0].as_int().expect("int"))
                .collect::<Vec<_>>()
        };
        assert_eq!(read(&mut rel, View::New), [0, 2, 3, 9]);
        assert_eq!(read(&mut rel, View::Old), [0, 1, 2, 3]);
        assert_eq!(read(&mut rel, View::Mid), [0, 2, 3]);
        assert_eq!(
            rel.uncommitted(),
            RelDelta {
                added: vec![int(9)],
                removed: vec![int(1)]
            }
        );
        assert_eq!(rel.commit(), vec![1]);
        assert_eq!(read(&mut rel, View::Old), [0, 2, 3, 9]);
        assert!(rel.uncommitted().is_empty());
    }

    /// One random step against the model: insert, remove, remove-all or
    /// commit.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Insert(i64),
        Remove(i64),
        RemoveAll,
        Commit,
    }

    fn op_strategy() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        (0u8..40, 0i64..24).prop_map(|(kind, k)| match kind {
            0..=17 => Op::Insert(k),
            18..=33 => Op::Remove(k),
            34 => Op::RemoveAll,
            _ => Op::Commit,
        })
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
                    let placed = rel.insert(row.clone());
                    assert_eq!(placed, at.is_none().then_some(Inserted::Appended(slots.len())));
                    if at.is_none() {
                        slots.push(Some(row));
                    }
                } else {
                    assert_eq!(rel.remove(&row), at);
                    if let Some(at) = at {
                        slots[at] = None;
                    }
                }
                rel.commit();
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
                    .iter_stored()
                    .eq(slots.iter().enumerate().filter_map(|(i, s)| Some((i, s.as_ref()?)))));
            }
            assert!(compactions >= 2, "only {compactions} compactions: the sequence is too tame");
        }

        /// Random insert / remove / remove-all / commit sequences against
        /// a model holding the current set, the last-committed set and each
        /// row's slot. After every step, each view iterates (in slot order)
        /// and answers `contains` exactly like the model's current set, its
        /// committed set and their intersection; `uncommitted` is the two
        /// set differences in slot order; and a row removed and re-added
        /// between commits keeps its slot.
        #[test]
        fn views_and_commit_match_a_model(
            ops in proptest::collection::vec(op_strategy(), 200..400),
        ) {
            let row = |k: i64| vec![Value::Int(k % 3), Value::Int(k)];
            let mut rel = Relation::new();
            // Model: key → slot, in storage order; current and committed sets.
            let mut slot_of: Vec<(i64, usize)> = Vec::new();
            let mut now: BTreeSet<i64> = BTreeSet::new();
            let mut then: BTreeSet<i64> = BTreeSet::new();
            let mut storage = 0;
            let mut commits = 0;
            for op in ops {
                match op {
                    Op::Insert(k) => {
                        let known = slot_of.iter().find(|(key, _)| *key == k).map(|&(_, s)| s);
                        let placed = rel.insert(row(k));
                        if now.contains(&k) {
                            assert_eq!(placed, None);
                        } else if let Some(s) = known {
                            assert_eq!(placed, Some(Inserted::Revived));
                            assert_eq!(rel.remove(&row(k)), Some(s), "a revived row keeps its slot");
                            rel.insert(row(k));
                        } else {
                            assert_eq!(placed, Some(Inserted::Appended(storage)));
                            slot_of.push((k, storage));
                            storage += 1;
                        }
                        now.insert(k);
                    }
                    Op::Remove(k) => {
                        let s = slot_of.iter().find(|(key, _)| *key == k).map(|&(_, s)| s);
                        assert_eq!(rel.remove(&row(k)), s.filter(|_| now.contains(&k)));
                        now.remove(&k);
                    }
                    Op::RemoveAll => {
                        rel.remove_all();
                        now.clear();
                    }
                    Op::Commit => {
                        let gone: Vec<usize> = slot_of
                            .iter()
                            .filter(|(k, _)| !now.contains(k))
                            .map(|&(_, s)| s)
                            .collect();
                        assert_eq!(rel.commit(), gone);
                        slot_of.retain(|(k, _)| now.contains(k));
                        then = now.clone();
                        commits += 1;
                    }
                }
                let in_order = |set: &BTreeSet<i64>| -> Vec<Row> {
                    let mut hits: Vec<(usize, i64)> = slot_of
                        .iter()
                        .filter(|(k, _)| set.contains(k))
                        .map(|&(k, s)| (s, k))
                        .collect();
                    hits.sort_unstable();
                    hits.into_iter().map(|(_, k)| row(k)).collect()
                };
                let mid: BTreeSet<i64> = now.intersection(&then).copied().collect();
                for (view, set) in [(View::New, &now), (View::Old, &then), (View::Mid, &mid)] {
                    rel.set_view(view);
                    assert_eq!(rel.iter().cloned().collect::<Vec<_>>(), in_order(set), "{view:?}");
                    for k in 0..24 {
                        assert_eq!(rel.contains(&row(k)), set.contains(&k), "{view:?} {k}");
                    }
                }
                rel.set_view(View::New);
                assert_eq!(rel.len(), now.len());
                let added: BTreeSet<i64> = now.difference(&then).copied().collect();
                let removed: BTreeSet<i64> = then.difference(&now).copied().collect();
                assert_eq!(
                    rel.uncommitted(),
                    RelDelta { added: in_order(&added), removed: in_order(&removed) }
                );
            }
            assert!(commits >= 2, "only {commits} commits: the sequence is too tame");
        }
    }
}

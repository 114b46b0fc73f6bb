//! [`ScanCache`]: lazily built composite equality indexes over relations,
//! the access path behind every bound scan.

use super::relation::{Inserted, Relation, Row};
use super::slots::{Frame, ProbeLayout, ProbeSrc};
#[cfg(doc)]
use super::{evaluate_views, EvalState};
use crate::value::Value;
use rustc_hash::FxHashMap;

/// Hash a probe key given as a value iterator. Owned and borrowed probe
/// paths must agree on this function — it is the bridge that lets the
/// compiled scan path look up `Vec<Value>`-built indexes with *borrowed*
/// frame slots, never cloning a key value on the probe hot path.
fn hash_probe_key<'v>(vals: impl Iterator<Item = &'v Value>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = rustc_hash::FxHasher::default();
    for v in vals {
        v.hash(&mut h);
    }
    h.finish()
}

/// One `(relation, bound columns)` index: probe-key hash → entries holding
/// the owned key (for collision resolution) and the posting list of row
/// positions. Keying by hash instead of `Vec<Value>` is what allows
/// lookups from borrowed values.
type Postings = FxHashMap<u64, Vec<(Vec<Value>, std::rc::Rc<Vec<usize>>)>>;

/// Lazily-built composite equality indexes over relations, keyed by
/// `(relation, bound column set)`: probe key → row positions per key
/// shape, built on the first probe of that shape and never again.
///
/// An index holds every stored slot of its relation that is not a
/// tombstone — rows removed since the relation's last commit included —
/// and the scans that probe it keep only the positions visible in the
/// relation's current [`View`](super::relation::View). So a removal
/// changes no index; only what a [`Relation::commit`] tombstones leaves
/// them. The cache stays valid as long as every append to an indexed
/// relation is reported ([`ScanCache::note_insert`], or inserting through
/// [`ScanCache::insert_into`]) and every commit goes through
/// [`ScanCache::commit`], which drops the tombstoned positions and
/// rewrites the posting lists through a compaction's renumbering. Within a
/// tick, [`evaluate_views`] reports every append; across ticks,
/// [`EvalState`] reports appends and commits, and lends the same cache to
/// the tick's handlers — the database is borrowed immutably for the whole
/// handler phase — so an index a reader's probe built is maintained from
/// then on like one a rule's probe built, and a keyed read costs its
/// answer, not the relation. Everything else uses a context whose lifetime
/// is bounded by an immutable borrow of the database, under which the
/// cache trivially cannot go stale.
#[derive(Default)]
pub struct ScanCache {
    /// relation → sorted bound-column set → probe index. Posting lists sit
    /// behind `Rc` so a probe shares the list instead of copying it;
    /// `note_insert` runs between evaluation rounds, when no probe handle
    /// is alive, so `Rc::make_mut` appends in place.
    indexes: FxHashMap<String, FxHashMap<Vec<usize>, Postings>>,
    /// Reusable probe-key scratch (bound columns / key values), filled by
    /// the caller just before [`ScanCache::probe_prepared`]. Only the
    /// map-based reference evaluator takes this owned-value path; the
    /// compiled path probes borrowed frame slots via
    /// [`ScanCache::probe_layout`].
    probe_cols: Vec<usize>,
    probe_key: Vec<Value>,
    /// How many indexes were ever built (see [`ScanCache::index_builds`]).
    builds: u64,
    /// How many relations were compacted (see [`ScanCache::compactions`]).
    compactions: u64,
}

/// Find the posting list for a probe key among `postings`, comparing the
/// borrowed key values against each hash-colliding entry's owned key.
/// Generic over a cloneable borrowed-value iterator so the comparison
/// allocates nothing (buckets almost always hold one candidate).
fn postings_find<'v, I>(postings: &Postings, hash: u64, key: I) -> Option<std::rc::Rc<Vec<usize>>>
where
    I: Iterator<Item = &'v Value> + Clone,
{
    postings
        .get(&hash)?
        .iter()
        .find(|(k, _)| k.iter().eq(key.clone()))
        .map(|(_, list)| std::rc::Rc::clone(list))
}

/// Append position `idx` of `row` to the `cols` index `postings`.
fn postings_push(postings: &mut Postings, cols: &[usize], row: &Row, idx: usize) {
    let hash = hash_probe_key(cols.iter().map(|&c| &row[c]));
    let bucket = postings.entry(hash).or_default();
    match bucket
        .iter_mut()
        .find(|(k, _)| k.iter().eq(cols.iter().map(|&c| &row[c])))
    {
        Some((_, list)) => std::rc::Rc::make_mut(list).push(idx),
        None => bucket.push((
            cols.iter().map(|&c| row[c].clone()).collect(),
            std::rc::Rc::new(vec![idx]),
        )),
    }
}

/// Build the probe index of one `(relation, cols)` shape over every stored
/// slot, whatever the relation's view.
fn postings_build(relation: &Relation, cols: &[usize]) -> Postings {
    let mut postings = Postings::default();
    for (i, row) in relation.iter_stored() {
        postings_push(&mut postings, cols, row, i);
    }
    postings
}

impl ScanCache {
    /// Clear and hand out the probe scratch buffers; the caller fills them
    /// with the bound columns and key values, then calls
    /// [`ScanCache::probe_prepared`]. (Map-reference evaluator only.)
    pub(super) fn begin_probe(&mut self) -> (&mut Vec<usize>, &mut Vec<Value>) {
        self.probe_cols.clear();
        self.probe_key.clear();
        (&mut self.probe_cols, &mut self.probe_key)
    }

    /// Stored positions of `relation` whose `probe_cols` equal `probe_key`
    /// (as filled via [`ScanCache::begin_probe`]), building the
    /// `(rel, cols)` index on first use. Positions are in insertion
    /// order, so index-driven scans enumerate rows exactly like full scans;
    /// the caller keeps the [`Relation::visible`] ones.
    pub(super) fn probe_prepared(&mut self, rel: &str, relation: &Relation) -> Option<std::rc::Rc<Vec<usize>>> {
        let hash = hash_probe_key(self.probe_key.iter());
        // Steady state first: no key allocation on the fixpoint hot path.
        if let Some(postings) = self.indexes.get(rel).and_then(|m| m.get(&self.probe_cols)) {
            return postings_find(postings, hash, self.probe_key.iter());
        }
        self.builds += 1;
        let postings = postings_build(relation, &self.probe_cols);
        let hits = postings_find(&postings, hash, self.probe_key.iter());
        self.indexes
            .entry(rel.to_string())
            .or_default()
            .insert(self.probe_cols.clone(), postings);
        hits
    }

    /// The compiled-path probe: stored positions of `relation` matching a
    /// scan's static [`ProbeLayout`], with every key value *borrowed* —
    /// constants straight from the layout, bound variables straight from
    /// the frame's slots. No `Value` is cloned unless this is the first
    /// probe of the `(rel, cols)` shape (which builds the owned index).
    pub(super) fn probe_layout(
        &mut self,
        rel: &str,
        relation: &Relation,
        layout: &ProbeLayout,
        frame: &Frame,
    ) -> Option<std::rc::Rc<Vec<usize>>> {
        fn resolve<'v>(src: &'v ProbeSrc, frame: &'v Frame) -> &'v Value {
            match src {
                ProbeSrc::Const(c) => c,
                ProbeSrc::Slot(s) => frame.get(*s).expect("layout slots are statically bound"),
            }
        }
        let hash = hash_probe_key(layout.srcs.iter().map(|s| resolve(s, frame)));
        if let Some(postings) = self.indexes.get(rel).and_then(|m| m.get(&layout.cols)) {
            return postings_find(postings, hash, layout.srcs.iter().map(|s| resolve(s, frame)));
        }
        self.builds += 1;
        let postings = postings_build(relation, &layout.cols);
        let hits = postings_find(&postings, hash, layout.srcs.iter().map(|s| resolve(s, frame)));
        self.indexes
            .entry(rel.to_string())
            .or_default()
            .insert(layout.cols.clone(), postings);
        hits
    }

    /// Report that `row` was appended to `rel` at storage position `idx`,
    /// keeping every existing index over `rel` current.
    pub fn note_insert(&mut self, rel: &str, row: &Row, idx: usize) {
        if let Some(by_cols) = self.indexes.get_mut(rel) {
            for (cols, postings) in by_cols.iter_mut() {
                postings_push(postings, cols, row, idx);
            }
        }
    }

    /// Report that the row at storage position `idx` of `rel` was
    /// tombstoned. Posting lists hold ascending positions, so the removal
    /// is a binary search plus shift — O(log n + matches) per maintained
    /// index.
    pub fn note_remove(&mut self, rel: &str, row: &Row, idx: usize) {
        if let Some(by_cols) = self.indexes.get_mut(rel) {
            for (cols, postings) in by_cols.iter_mut() {
                let hash = hash_probe_key(cols.iter().map(|&c| &row[c]));
                let Some(bucket) = postings.get_mut(&hash) else {
                    continue;
                };
                if let Some(at) = bucket
                    .iter()
                    .position(|(k, _)| k.iter().eq(cols.iter().map(|&c| &row[c])))
                {
                    let list = std::rc::Rc::make_mut(&mut bucket[at].1);
                    if let Ok(pos) = list.binary_search(&idx) {
                        list.remove(pos);
                    }
                    if list.is_empty() {
                        bucket.swap_remove(at);
                    }
                    if bucket.is_empty() {
                        postings.remove(&hash);
                    }
                }
            }
        }
    }

    /// How many `(relation, cols)` indexes this cache has built from a
    /// full pass over a relation. In the steady state of an incremental
    /// transducer it stops growing: every index is maintained in place.
    pub fn index_builds(&self) -> u64 {
        self.builds
    }

    /// How many times [`ScanCache::commit`] compacted a relation: the
    /// sweeps a workload pays for its tombstones.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Insert `row` into `relation` (named `rel`), keeping every index
    /// over it current; `true` if the row was not present. A revived row
    /// keeps its slot, which every index still lists.
    pub(super) fn insert_into(&mut self, rel: &str, relation: &mut Relation, row: &Row) -> bool {
        match relation.insert(row.clone()) {
            Some(Inserted::Appended(pos)) => {
                self.note_insert(rel, row, pos);
                true
            }
            Some(Inserted::Revived) => true,
            None => false,
        }
    }

    /// [`Relation::commit`] `relation` (named `rel`): drop the positions it
    /// tombstones from every index over it, then reclaim its tombstones
    /// once they are worth it ([`Relation::should_compact`]). Compaction
    /// renumbers storage positions monotonically, so every posting list
    /// over the relation is rewritten through the old → new table and
    /// stays ascending — no index is dropped, no key re-hashed. This is
    /// the only place a relation is compacted. Runs between evaluations,
    /// when no probe handle is alive, so `Rc::make_mut` rewrites in place.
    pub(super) fn commit(&mut self, rel: &str, relation: &mut Relation) {
        for pos in relation.commit() {
            self.note_remove(rel, relation.row(pos), pos);
        }
        if !relation.should_compact() {
            return;
        }
        self.compactions += 1;
        let remap = relation.compact();
        let lists = self
            .indexes
            .get_mut(rel)
            .into_iter()
            .flat_map(|by_cols| by_cols.values_mut())
            .flat_map(|postings| postings.values_mut())
            .flatten();
        for (_, list) in lists {
            for pos in std::rc::Rc::make_mut(list) {
                *pos = remap[*pos];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::relation::View;
    use super::*;
    use proptest::prelude::*;

    /// Probe `cols == key` the owned-value way, keeping the positions
    /// visible in `rel`'s current view.
    fn probe(
        cache: &mut ScanCache,
        rel: &Relation,
        cols: &[usize],
        key: &[Value],
    ) -> Option<Vec<usize>> {
        let (c, k) = cache.begin_probe();
        c.extend_from_slice(cols);
        k.extend_from_slice(key);
        cache
            .probe_prepared("r", rel)
            .map(|ids| ids.iter().copied().filter(|&i| rel.visible(i)).collect())
    }

    /// Every index `cache` holds over `rel` answers every key of `keys`
    /// exactly like an index built fresh over `rel` as it now stands, both
    /// filtered by `rel`'s current view.
    fn assert_matches_fresh(cache: &mut ScanCache, rel: &Relation, keys: &[Row]) {
        let mut fresh = ScanCache::default();
        for cols in [vec![0], vec![1], vec![0, 1]] {
            for row in keys {
                let key: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
                assert_eq!(
                    probe(cache, rel, &cols, &key),
                    probe(&mut fresh, rel, &cols, &key),
                    "index {cols:?}, key {key:?}"
                );
            }
        }
    }

    /// Every raw posting list of `cache` over `rel`, as the rows it lists
    /// (sorted by key for comparison), keeping only the rows `keep` accepts.
    fn listed_rows(
        cache: &ScanCache,
        rel: &Relation,
        keep: impl Fn(usize) -> bool,
    ) -> Vec<(Vec<usize>, Vec<Value>, Vec<Row>)> {
        let mut out = Vec::new();
        for (cols, postings) in cache.indexes.get("r").into_iter().flatten() {
            for (key, list) in postings.values().flatten() {
                let rows: Vec<Row> = list
                    .iter()
                    .filter(|&&i| keep(i))
                    .map(|&i| rel.row(i).clone())
                    .collect();
                if !rows.is_empty() {
                    out.push((cols.clone(), key.clone(), rows));
                }
            }
        }
        out.sort();
        out
    }

    /// A compaction renumbers the posting lists in place: same index
    /// objects, new ascending positions, nothing rebuilt.
    #[test]
    fn compaction_remaps_posting_lists_without_rebuilding() {
        let int = Value::Int;
        let mut cache = ScanCache::default();
        let mut rel = Relation::new();
        for i in 0..400 {
            cache.insert_into("r", &mut rel, &vec![int(i % 4), int(i)]);
        }
        let matches = |cache: &mut ScanCache, rel: &Relation| {
            probe(cache, rel, &[0], &[int(1)]).map_or(0, |ids| ids.len())
        };
        assert_eq!(matches(&mut cache, &rel), 100);
        assert_eq!(cache.index_builds(), 1);
        // Remove everything but the multiples of 5: 320 tombstones.
        for i in (0..400).filter(|i| i % 5 != 0) {
            assert!(rel.remove(&[int(i % 4), int(i)]).is_some());
        }
        cache.commit("r", &mut rel);
        assert_eq!(cache.compactions(), 1);
        assert_eq!(rel.storage_len(), 80);
        // Rows 5, 25, 45, … (i % 20 == 5) are at slots 1, 5, 9, ….
        let hits = probe(&mut cache, &rel, &[0], &[int(1)]).expect("twenty rows");
        assert_eq!(hits, (0..20).map(|n| 4 * n + 1).collect::<Vec<_>>());
        assert_eq!(rel.row(hits[1]), &vec![int(1), int(25)]);
        assert_eq!(cache.index_builds(), 1, "remapped, not rebuilt");
        // And it is maintained from there like any other index.
        cache.insert_into("r", &mut rel, &vec![int(1), int(1_001)]);
        assert_eq!(matches(&mut cache, &rel), 21);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random churn crossing `should_compact` several times, with three
        /// indexes alive from the start: after every commit-and-compaction
        /// (and at the end) each index equals a freshly built one, key by
        /// key, position list by position list — and none was ever rebuilt.
        #[test]
        fn remapped_indexes_equal_fresh_ones(
            ops in proptest::collection::vec((any::<bool>(), 0i64..48), 900..1200),
        ) {
            let keys: Vec<Row> = (0..48).map(|k| vec![Value::Int(k % 5), Value::Int(k)]).collect();
            let mut cache = ScanCache::default();
            let mut rel = Relation::new();
            assert_matches_fresh(&mut cache, &rel, &keys[..1]);
            assert_eq!(cache.index_builds(), 3);
            for (insert, k) in ops {
                let row = &keys[k as usize];
                if insert {
                    cache.insert_into("r", &mut rel, row);
                } else {
                    rel.remove(row);
                }
                let before = cache.compactions();
                cache.commit("r", &mut rel);
                if cache.compactions() > before {
                    assert_eq!(rel.storage_len(), rel.len());
                    assert_matches_fresh(&mut cache, &rel, &keys);
                }
            }
            assert_matches_fresh(&mut cache, &rel, &keys);
            assert!(cache.compactions() >= 2, "only {} compactions: the sequence is too tame", cache.compactions());
            assert_eq!(cache.index_builds(), 3);
        }

        /// Ticks of random inserts and removals between commits, with
        /// three indexes alive from the start. Mid-tick, a probe filtered
        /// by each view equals a fresh index filtered the same way; a
        /// commit drops exactly the tombstoned rows from every posting
        /// list, keeping the others in order; and no index is rebuilt.
        #[test]
        fn probes_read_every_view_and_commit_drops_exactly_the_tombstones(
            ticks in proptest::collection::vec(
                proptest::collection::vec((any::<bool>(), 0i64..48), 1..40),
                30..60,
            ),
        ) {
            let keys: Vec<Row> = (0..48).map(|k| vec![Value::Int(k % 5), Value::Int(k)]).collect();
            let mut cache = ScanCache::default();
            let mut rel = Relation::new();
            assert_matches_fresh(&mut cache, &rel, &keys[..1]);
            for tick in ticks {
                for (insert, k) in tick {
                    let row = &keys[k as usize];
                    if insert {
                        cache.insert_into("r", &mut rel, row);
                    } else {
                        rel.remove(row);
                    }
                }
                for view in [View::Old, View::Mid, View::New] {
                    rel.set_view(view);
                    assert_matches_fresh(&mut cache, &rel, &keys);
                }
                let survivors = listed_rows(&cache, &rel, |i| rel.visible(i));
                cache.commit("r", &mut rel);
                assert_eq!(listed_rows(&cache, &rel, |_| true), survivors);
                assert_eq!(cache.index_builds(), 3);
            }
            assert!(cache.compactions() >= 1, "no compaction: the sequence is too tame");
        }
    }
}

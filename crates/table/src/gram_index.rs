//! The one maintained inverted gram index: size-bucketed postings under
//! two probes.
//!
//! [`GramIndex`] is the tokenizer-agnostic storage engine behind every
//! string blocking plan of `moma_core::blocking` (the tokenizers live
//! in `moma-simstring`, which depends on this crate, so callers hand in
//! pre-tokenized, duplicate-free gram lists). Every gram's posting list
//! is partitioned by the *gram-set size* of the indexed value, and two
//! probes read that one structure:
//!
//! * [`GramIndex::candidates`] — the SimString *T-occurrence* problem.
//!   A threshold-aware caller passes a size window `[min_size,
//!   max_size]` and a per-size minimum-overlap function, and gets back
//!   exactly the ids that (a) fall in the window and (b) share at least
//!   the required number of grams with the query, solved CPMerge-style:
//!
//!   1. query grams are ordered rarest-first (document frequency within
//!      the window),
//!   2. the first `n − τ_min + 1` posting lists seed the candidate set
//!      with occurrence counts (any qualifying id must appear in one of
//!      them — it can miss at most `τ − 1` of the query's grams),
//!   3. the remaining (frequent) lists are *galloped* against the
//!      sorted survivor set (exponential search through whichever side
//!      is longer — see [`crate::postings`]), and candidates that can
//!      no longer reach their per-size requirement are abandoned after
//!      every list.
//!
//! * [`GramIndex::rarest_union`] — the prefix filter: the union of the
//!   postings of the query's `k` rarest grams over *all* size buckets.
//!
//! Grams are interned to dense handles ([`StringInterner`]) so each
//! probe hashes every query gram once and array-indexes from then on;
//! the per-size id lists are sorted [`Postings`].
//!
//! ## Maintenance and compaction
//!
//! Besides batch construction (sharded builds merge through
//! [`GramIndex::absorb`]) the index is patched in place:
//! [`GramIndex::insert`] appends a value's grams, [`GramIndex::remove`]
//! **tombstones** it — the id stays in the posting lists but is filtered
//! out of probe results, making removal O(1) instead of O(total
//! postings) — and [`GramIndex::replace`] surgically swaps one value's
//! grams (the caller supplies the old grams; the index stores no
//! values). Probes filter tombstones, so candidate sets are exact at
//! every point between compactions.
//!
//! Tombstones leave dead entries behind: probes pay one hash lookup per
//! dead candidate, and gram document frequencies are over-counted
//! (harmless for either probe's guarantee — any rarest-first order and
//! any `k`-gram subset work — but it skews the rarest-gram heuristic
//! toward stale statistics). [`GramIndex::remove`] therefore triggers
//! [`GramIndex::compact`] — a full O(postings) sweep — once tombstones
//! exceed [`COMPACTION_RATIO`] of the live population (and the
//! [`COMPACTION_FLOOR`] absolute count), which amortizes the sweep to
//! O(1) per removal while bounding dead-entry overhead to a constant
//! factor.
//!
//! Values whose gram list is empty occupy the special size-0 bucket:
//! they have no postings and can never be merged candidates, but they
//! are tracked ([`GramIndex::gramless_ids`]) so callers can implement
//! the "empty query matches empty values exactly" edge of the q-gram
//! measures.

use std::collections::BTreeMap;

use crate::hash::{FxHashMap, FxHashSet};
use crate::interner::StringInterner;
use crate::postings::{gallop_lower_bound, Postings};

/// Compaction trigger: sweep when `tombstones > live * COMPACTION_RATIO`
/// (and at least [`COMPACTION_FLOOR`] tombstones exist — tiny indexes
/// aren't worth sweeping).
pub const COMPACTION_RATIO: f64 = 0.25;

/// Minimum number of tombstones before a compaction sweep is considered.
pub const COMPACTION_FLOOR: usize = 16;

/// Inverted index from gram to id posting lists partitioned by the
/// gram-set size of the indexed value.
///
/// Gram lists handed to [`GramIndex::insert`] /
/// [`GramIndex::replace`] must be duplicate-free (the caller
/// tokenizes; multiset tokenizers tag repeated grams — see
/// `moma_core::blocking`); the list length is the value's size key.
#[derive(Debug, Clone, Default)]
pub struct GramIndex {
    /// Gram string ↔ dense handle; `postings[handle]` holds the gram's
    /// size-bucketed lists.
    grams: StringInterner,
    /// gram handle → size bucket → sorted ids.
    postings: Vec<BTreeMap<u32, Postings>>,
    /// Ids currently indexed and not tombstoned.
    live: FxHashSet<u32>,
    /// Live ids with gram-set size 0 (subset of `live`), maintained
    /// incrementally so gramless probes don't scan the live population.
    gramless: FxHashSet<u32>,
    /// Removed ids whose posting entries have not been swept yet.
    tombstones: FxHashSet<u32>,
}

impl GramIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket map of an interned gram handle, growing the arena on
    /// first touch.
    fn buckets_mut(&mut self, gid: u32) -> &mut BTreeMap<u32, Postings> {
        let gid = gid as usize;
        if gid >= self.postings.len() {
            self.postings.resize_with(gid + 1, BTreeMap::new);
        }
        &mut self.postings[gid]
    }

    fn buckets(&self, gram: &str) -> Option<&BTreeMap<u32, Postings>> {
        self.grams.get(gram).map(|gid| &self.postings[gid as usize])
    }

    /// Index one value's deduplicated grams; the value's size key is
    /// `grams.len()`. Inserting a live id is rejected with `false`.
    pub fn insert(&mut self, id: u32, grams: &[String]) -> bool {
        if self.live.contains(&id) {
            return false;
        }
        if self.tombstones.contains(&id) {
            // Re-inserting a removed id must not resurrect its stale
            // postings; purge them first.
            self.compact();
        }
        debug_assert!(
            grams.windows(2).all(|w| w[0] != w[1] || w[0].is_empty()),
            "grams must be deduplicated"
        );
        let size = grams.len() as u32;
        self.live.insert(id);
        if size == 0 {
            self.gramless.insert(id);
        }
        for g in grams {
            let gid = self.grams.intern(g);
            self.buckets_mut(gid).entry(size).or_default().insert(id);
        }
        true
    }

    /// Tombstone a live id; returns whether it was live. May trigger a
    /// compaction sweep (see module docs).
    pub fn remove(&mut self, id: u32) -> bool {
        if !self.live.remove(&id) {
            return false;
        }
        self.gramless.remove(&id);
        self.tombstones.insert(id);
        self.maybe_compact();
        true
    }

    /// Replace a live value's grams: old entries are surgically removed
    /// (the caller supplies the old grams — the index stores no values),
    /// new ones inserted, and the id moves to its new size bucket.
    /// Returns `false` (and does nothing) if `id` is not live.
    pub fn replace(&mut self, id: u32, old_grams: &[String], new_grams: &[String]) -> bool {
        if !self.live.contains(&id) {
            return false;
        }
        let old_size = old_grams.len() as u32;
        for g in old_grams {
            if let Some(gid) = self.grams.get(g) {
                let buckets = &mut self.postings[gid as usize];
                if let Some(list) = buckets.get_mut(&old_size) {
                    list.remove(id);
                    if list.is_empty() {
                        buckets.remove(&old_size);
                    }
                }
            }
        }
        let new_size = new_grams.len() as u32;
        if new_size == 0 {
            self.gramless.insert(id);
        } else {
            self.gramless.remove(&id);
        }
        for g in new_grams {
            let gid = self.grams.intern(g);
            self.buckets_mut(gid)
                .entry(new_size)
                .or_default()
                .insert(id);
        }
        true
    }

    /// Sweep tombstoned ids out of every posting bucket now.
    pub fn compact(&mut self) {
        if self.tombstones.is_empty() {
            return;
        }
        let dead = std::mem::take(&mut self.tombstones);
        for buckets in &mut self.postings {
            buckets.retain(|_, list| {
                list.retain(|id| !dead.contains(&id));
                !list.is_empty()
            });
        }
    }

    fn maybe_compact(&mut self) {
        if self.tombstones.len() >= COMPACTION_FLOOR
            && self.tombstones.len() as f64 > self.live.len() as f64 * COMPACTION_RATIO
        {
            self.compact();
        }
    }

    /// Number of unswept tombstones.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Number of live indexed values (gramless ones included).
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no live values are indexed.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether `id` is indexed and not tombstoned.
    pub fn is_live(&self, id: u32) -> bool {
        self.live.contains(&id)
    }

    /// Live ids whose values produced no grams (the size-0 bucket) —
    /// the only possible matches of a gramless query. O(|gramless|):
    /// the set is maintained incrementally, not scanned out of the live
    /// population.
    pub fn gramless_ids(&self) -> FxHashSet<u32> {
        self.gramless.clone()
    }

    /// The prefix-filter probe: union of the posting lists of the `k`
    /// rarest `query_grams` over all size buckets, tombstones filtered
    /// out. Rarity is a gram's posting count — unswept tombstone entries
    /// included (exact after [`GramIndex::compact`]) — and ties keep the
    /// caller's gram order, so a sorted gram list makes the choice
    /// deterministic. Grams the index has never seen have frequency 0:
    /// they are picked first and contribute nothing. `k` is clamped to
    /// the list length.
    pub fn rarest_union(&self, query_grams: &[String], k: usize) -> FxHashSet<u32> {
        let mut by_df: Vec<(usize, Option<&BTreeMap<u32, Postings>>)> = query_grams
            .iter()
            .map(|g| {
                let buckets = self.buckets(g);
                let df = buckets.map_or(0, |b| b.values().map(Postings::len).sum());
                (df, buckets)
            })
            .collect();
        by_df.sort_by_key(|&(df, _)| df);
        let mut out = FxHashSet::default();
        for (_, buckets) in by_df.into_iter().take(k) {
            for list in buckets.into_iter().flat_map(BTreeMap::values) {
                out.extend(list.iter().filter(|id| !self.tombstones.contains(id)));
            }
        }
        out
    }

    /// The ids with gram-set size in `[min_size, max_size]` sharing at
    /// least `min_overlap(size)` grams with `query_grams` — exactly (no
    /// misses, no extras beyond the count criterion). `query_grams` must
    /// be duplicate-free; `min_overlap` is evaluated per candidate size
    /// and is clamped to ≥ 1 (a merged candidate shares a gram by
    /// construction, and ids sharing none are unreachable anyway).
    ///
    /// Cost is CPMerge-like: the rarest `n − τ_min + 1` posting lists
    /// are scanned, the frequent remainder galloped against the sorted
    /// survivor set, with candidates abandoned as soon as their
    /// remaining potential drops below the requirement.
    pub fn candidates(
        &self,
        query_grams: &[String],
        min_size: u32,
        max_size: u32,
        min_overlap: &dyn Fn(u32) -> u32,
    ) -> FxHashSet<u32> {
        let n = query_grams.len();
        if n == 0 || min_size > max_size {
            return FxHashSet::default();
        }

        // One pass over each gram's in-window buckets computes both the
        // windowed df (for the rarest-first order) and the loosest
        // requirement any in-window candidate could have — min_overlap
        // probed at every distinct bucket size occurring in the window
        // (avoids monotonicity assumptions on the bound). Each gram is
        // hashed exactly once here; later phases reuse the resolved
        // handle and array-index the posting arena.
        let mut tau_min = u32::MAX;
        let mut stats: Vec<(usize, &String, u32)> = Vec::with_capacity(n);
        for g in query_grams {
            let mut df = 0usize;
            let mut gid = u32::MAX; // sentinel: gram not in the index
            if let Some(found) = self.grams.get(g) {
                gid = found;
                for (&size, list) in self.postings[found as usize].range(min_size..=max_size) {
                    df += list.len();
                    tau_min = tau_min.min(min_overlap(size).max(1));
                }
            }
            stats.push((df, g, gid));
        }
        if tau_min == u32::MAX || tau_min as usize > n {
            // No posting in the window, or nothing can share enough.
            return FxHashSet::default();
        }
        // Rarest-first gram order (df ties broken by the gram itself so
        // the scan order — and with it the work done — is
        // deterministic; the *result* is order-independent).
        stats.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let order: Vec<u32> = stats.into_iter().map(|(_, _, gid)| gid).collect();

        // Phase 1: scan the rarest n − τ_min + 1 lists, seeding
        // (id, size) → count.
        let seed_lists = n - tau_min as usize + 1;
        let mut counts: FxHashMap<u32, (u32, u32)> = FxHashMap::default(); // id → (count, size)
        for &gid in order.iter().take(seed_lists) {
            if gid == u32::MAX {
                continue;
            }
            for (&size, list) in self.postings[gid as usize].range(min_size..=max_size) {
                for id in list.iter() {
                    if !self.tombstones.contains(&id) {
                        counts.entry(id).or_insert((0, size)).0 += 1;
                    }
                }
            }
        }

        // Phase 2: gallop the frequent remainder against the sorted
        // survivor set, abandoning candidates that can no longer reach
        // their requirement. A live id occupies exactly one size bucket
        // per gram, so each list bumps a survivor at most once.
        let mut survivors: Vec<(u32, u32, u32)> = counts
            .into_iter()
            .map(|(id, (count, size))| (id, count, size))
            .collect();
        survivors.sort_unstable_by_key(|&(id, _, _)| id);
        for (i, &gid) in order.iter().enumerate().skip(seed_lists) {
            if survivors.is_empty() {
                break;
            }
            if gid != u32::MAX {
                for (_, list) in self.postings[gid as usize].range(min_size..=max_size) {
                    bump_common(&mut survivors, list);
                }
            }
            let left_after = (n - 1 - i) as u32; // grams still unprobed after this one
            survivors.retain(|&(_, count, size)| count + left_after >= min_overlap(size).max(1));
        }

        survivors
            .into_iter()
            .filter(|(_, count, size)| *count >= min_overlap(*size).max(1))
            .map(|(id, _, _)| id)
            .collect()
    }

    /// Merge in an index built from another input shard. Per-bucket
    /// posting lists stay id-sorted, so the merged index is
    /// observationally identical to a sequential build over the
    /// concatenated input; gram handles are remapped through their
    /// strings (shard interners assign handles independently). Both
    /// indexes must be tombstone-free (freshly built).
    pub fn absorb(&mut self, other: GramIndex) {
        debug_assert!(self.tombstones.is_empty() && other.tombstones.is_empty());
        let GramIndex {
            grams,
            postings,
            live,
            gramless,
            ..
        } = other;
        self.live.extend(live);
        self.gramless.extend(gramless);
        for (ogid, buckets) in postings.into_iter().enumerate() {
            if buckets.is_empty() {
                continue;
            }
            let gram = grams
                .resolve(ogid as u32)
                .expect("posting arena tracks the interner");
            let gid = self.grams.intern(gram);
            let mine = self.buckets_mut(gid);
            for (size, list) in buckets {
                match mine.entry(size) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(list);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        e.get_mut().merge(list);
                    }
                }
            }
        }
    }
}

/// Bump the count of every survivor whose id appears in `list`,
/// galloping through the longer side. `survivors` must be id-sorted;
/// order is preserved.
fn bump_common(survivors: &mut [(u32, u32, u32)], list: &Postings) {
    let ids = list.ids();
    if survivors.is_empty() || ids.is_empty() {
        return;
    }
    if survivors.len() <= ids.len() {
        // Few survivors: gallop through the posting list.
        let mut j = 0usize;
        for s in survivors.iter_mut() {
            j += gallop_lower_bound(&ids[j..], s.0);
            if j >= ids.len() {
                break;
            }
            if ids[j] == s.0 {
                s.1 += 1;
                j += 1;
            }
        }
    } else {
        // Short list: binary-probe the survivor set per id.
        for &id in ids {
            if let Ok(pos) = survivors.binary_search_by_key(&id, |s| s.0) {
                survivors[pos].1 += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Word-gram tokenizer for tests (sorted, deduplicated); the real
    /// trigram / tagged q-gram tokenizers live upstream in moma-core.
    pub(super) fn grams(s: &str) -> Vec<String> {
        let mut v: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        v.sort();
        v.dedup();
        v
    }

    fn sample() -> GramIndex {
        let mut idx = GramIndex::new();
        idx.insert(0, &grams("data cleaning system")); // size 3
        idx.insert(1, &grams("schema matching cupid")); // size 3
        idx.insert(2, &grams("fuzzy match data cleaning")); // size 4
        idx.insert(3, &grams("")); // gramless
        idx.insert(4, &grams("data")); // size 1
        idx
    }

    fn ids(ids: impl IntoIterator<Item = u32>) -> FxHashSet<u32> {
        ids.into_iter().collect()
    }

    /// T-occurrence probe requiring `tau` shared grams at any size.
    fn probe(idx: &GramIndex, q: &str, tau: u32) -> FxHashSet<u32> {
        idx.candidates(&grams(q), 0, u32::MAX, &|_| tau)
    }

    /// Prefix probe over every query gram: all ids sharing any of them.
    fn union(idx: &GramIndex, q: &str) -> FxHashSet<u32> {
        let g = grams(q);
        idx.rarest_union(&g, g.len())
    }

    #[test]
    fn basic_count_filtering() {
        let idx = sample();
        // Share >= 1 gram with "data cleaning": ids 0, 2, 4.
        assert_eq!(probe(&idx, "data cleaning", 1), ids([0, 2, 4]));
        assert_eq!(union(&idx, "data cleaning"), ids([0, 2, 4]));
        // Share >= 2 grams: ids 0 and 2 only.
        assert_eq!(probe(&idx, "data cleaning", 2), ids([0, 2]));
        // Nothing shares 3 grams with a 2-gram query.
        assert!(probe(&idx, "data cleaning", 3).is_empty());
    }

    #[test]
    fn size_window_prunes_buckets() {
        let idx = sample();
        let q = grams("data cleaning fuzzy match");
        // Only size-4 values considered: id 2.
        assert_eq!(idx.candidates(&q, 4, 4, &|_| 1), ids([2]));
        // Only size-1 values: id 4.
        assert_eq!(idx.candidates(&q, 1, 1, &|_| 1), ids([4]));
        // Empty window.
        assert!(idx.candidates(&q, 5, 4, &|_| 1).is_empty());
    }

    #[test]
    fn per_size_overlap_requirement() {
        let idx = sample();
        let q = grams("data cleaning system fuzzy match");
        // Require full containment: size-s candidates must share s grams.
        // id 0 {data,cleaning,system} ⊆ q; id 2 {fuzzy,match,data,cleaning} ⊆ q;
        // id 4 {data} ⊆ q; id 1 shares nothing.
        assert_eq!(idx.candidates(&q, 1, u32::MAX, &|s| s), ids([0, 2, 4]));
    }

    #[test]
    fn rarest_union_respects_k() {
        let idx = sample();
        // k = 1 probes only the rarest gram ("cupid", df 1 vs "data", df 3).
        assert_eq!(idx.rarest_union(&grams("cupid data"), 1), ids([1]));
        // A df tie keeps the caller's gram order: "cupid" before "system".
        assert_eq!(idx.rarest_union(&grams("cupid system"), 1), ids([1]));
        // Unknown grams have df 0: picked first, contributing nothing.
        assert!(idx.rarest_union(&grams("data zzz"), 1).is_empty());
        assert_eq!(idx.rarest_union(&grams("data zzz"), 9), ids([0, 2, 4]));
    }

    #[test]
    fn empty_query_and_gramless_values() {
        let idx = sample();
        assert!(probe(&idx, "", 1).is_empty());
        assert!(union(&idx, "").is_empty());
        assert_eq!(idx.gramless_ids(), ids([3]));
        assert_eq!(idx.len(), 5);
        assert!(idx.is_live(3) && !idx.is_empty());
        // Gramless values are never merged from postings.
        assert!(!union(&idx, "data cleaning system").contains(&3));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut idx = sample();
        assert!(!idx.insert(0, &grams("other")));
        assert_eq!(idx.len(), 5);
        assert!(union(&idx, "other").is_empty());
    }

    #[test]
    fn remove_tombstones_and_filters_probes() {
        let mut idx = sample();
        assert!(idx.remove(0));
        assert!(!idx.remove(0)); // duplicate removal: no-op
        assert!(!idx.remove(99));
        assert_eq!(idx.len(), 4);
        assert_eq!(idx.tombstone_count(), 1);
        assert!(!idx.is_live(0));
        // Probes never return the dead id…
        assert_eq!(probe(&idx, "data cleaning", 1), ids([2, 4]));
        assert_eq!(union(&idx, "data cleaning"), ids([2, 4]));
        // …before or after the sweep.
        idx.compact();
        assert_eq!(idx.tombstone_count(), 0);
        assert_eq!(probe(&idx, "data cleaning", 1), ids([2, 4]));
        assert_eq!(union(&idx, "data cleaning"), ids([2, 4]));
        // Removing a gramless value drops it from the gramless set.
        assert!(idx.remove(3));
        assert!(idx.gramless_ids().is_empty());
    }

    #[test]
    fn replace_moves_size_buckets() {
        let mut idx = sample();
        // id 4 grows from size 1 to size 3.
        assert!(idx.replace(4, &grams("data"), &grams("entity resolution survey")));
        assert!(idx.candidates(&grams("data"), 1, 1, &|_| 1).is_empty());
        let c = idx.candidates(&grams("entity resolution"), 3, 3, &|_| 2);
        assert_eq!(c, ids([4]));
        assert_eq!(union(&idx, "data"), ids([0, 2]));
        // Replace to gramless and back.
        assert!(idx.replace(4, &grams("entity resolution survey"), &grams("")));
        assert!(idx.gramless_ids().contains(&4));
        assert!(union(&idx, "entity resolution").is_empty());
        assert!(idx.replace(4, &grams(""), &grams("back again")));
        assert_eq!(idx.gramless_ids(), ids([3]));
        assert!(probe(&idx, "back", 1).contains(&4));
        assert_eq!(idx.len(), 5);
        // Non-live id: no-op.
        assert!(!idx.replace(99, &grams("a"), &grams("b")));
    }

    #[test]
    fn reinsert_after_remove_purges_stale_postings() {
        let mut idx = sample();
        idx.remove(0);
        assert!(idx.insert(0, &grams("brand new value")));
        assert_eq!(idx.tombstone_count(), 0); // compacted on the way in
        assert!(!probe(&idx, "cleaning system", 2).contains(&0));
        assert!(!union(&idx, "cleaning system").contains(&0));
        assert!(probe(&idx, "brand new", 2).contains(&0));
    }

    #[test]
    fn automatic_compaction_bounds_tombstones() {
        let mut idx = GramIndex::new();
        for i in 0..200u32 {
            idx.insert(i, &grams(&format!("value number {i}")));
        }
        for i in 0..150u32 {
            idx.remove(i);
        }
        assert_eq!(idx.len(), 50);
        // Tombstones never exceed the compaction bound by far.
        assert!(
            idx.tombstone_count() <= COMPACTION_FLOOR.max((50.0 * COMPACTION_RATIO) as usize + 1),
            "tombstones {} never swept",
            idx.tombstone_count()
        );
        // Every remaining probe answer is live.
        for i in 150..200u32 {
            let c = union(&idx, &format!("value number {i}"));
            assert!(c.contains(&i));
            assert!(c.iter().all(|id| *id >= 150));
        }
    }

    #[test]
    fn phase2_abandonment_is_exact() {
        // A query with many grams against candidates engineered to sit
        // just below / at the requirement, forcing phase 2 probes.
        let mut idx = GramIndex::new();
        idx.insert(0, &grams("a b c d e f g h")); // shares 8
        idx.insert(1, &grams("a b c d x1 x2 x3 x4")); // shares 4
        idx.insert(2, &grams("a y1 y2 y3 y4 y5 y6 y7")); // shares 1
        let q = grams("a b c d e f g h");
        for tau in 1..=8u32 {
            let c = idx.candidates(&q, 0, u32::MAX, &|_| tau);
            assert_eq!(c.contains(&0), tau <= 8, "tau={tau}");
            assert_eq!(c.contains(&1), tau <= 4, "tau={tau}");
            assert_eq!(c.contains(&2), tau <= 1, "tau={tau}");
        }
    }
}

/// One model-based suite for every maintenance path: the index is
/// driven next to a plain `id → grams` map, and both probes must agree
/// with brute force over that map — and with a fresh rebuild of it —
/// after every single step.
#[cfg(test)]
mod model_tests {
    use super::tests::grams;
    use super::*;
    use proptest::prelude::*;

    type Model = std::collections::BTreeMap<u32, Vec<String>>;

    /// Up to seven word grams over a five-letter alphabet; may be empty
    /// (a gramless value or query).
    const GRAMS: &str = "([a-e]( [a-e]){0,6})?";

    fn overlap(a: &[String], b: &[String]) -> u32 {
        a.iter().filter(|g| b.contains(g)).count() as u32
    }

    /// T-occurrence by definition: count overlaps inside the window.
    fn brute_candidates(
        model: &Model,
        q: &[String],
        (lo, hi): (u32, u32),
        req: &dyn Fn(u32) -> u32,
    ) -> FxHashSet<u32> {
        model
            .iter()
            .filter(|(_, g)| {
                let size = g.len() as u32;
                (lo..=hi).contains(&size) && overlap(q, g) >= req(size).max(1)
            })
            .map(|(&id, _)| id)
            .collect()
    }

    /// Prefix probe by definition: the `k` grams of smallest df (ties in
    /// gram order), df counting live values *and* unswept removed ones.
    fn brute_rarest_union(model: &Model, dead: &Model, q: &[String], k: usize) -> FxHashSet<u32> {
        let df = |g: &String| {
            model
                .values()
                .chain(dead.values())
                .filter(|v| v.contains(g))
                .count()
        };
        let mut picked: Vec<&String> = q.iter().collect();
        picked.sort_by_key(|g| df(g)); // stable
        picked.truncate(k);
        model
            .iter()
            .filter(|(_, g)| picked.iter().any(|p| g.contains(p)))
            .map(|(&id, _)| id)
            .collect()
    }

    fn build<'a>(values: impl IntoIterator<Item = (&'a u32, &'a Vec<String>)>) -> GramIndex {
        let mut idx = GramIndex::new();
        for (id, g) in values {
            assert!(idx.insert(*id, g));
        }
        idx
    }

    proptest! {
        /// Random interleavings of insert / remove / replace / compact —
        /// re-insert after remove and automatic sweeps included.
        #[test]
        fn maintenance_matches_model_and_rebuild(
            ops in prop::collection::vec((0u8..20, 0u32..128, GRAMS), 1..240),
            queries in prop::collection::vec(GRAMS, 1..4),
            window in (0u32..4, 0u32..8),
            tau in 1u32..4,
            k in 1usize..5,
        ) {
            let mut idx = GramIndex::new();
            let mut model = Model::new();
            // Removed values whose posting entries are not swept yet.
            let mut dead = Model::new();
            let window = (window.0, window.0 + window.1);
            // Per-size requirement: at least `tau`, at least half the size.
            let req = |size: u32| tau.max(size / 2);
            for (op, pick, text) in ops {
                let new = grams(&text);
                // Inserts draw from a wide id space, so tombstones can
                // pile up to an automatic sweep before a re-insert
                // purges them; removes and replaces mostly aim at a
                // live id (in that space they would nearly always miss).
                let id = match (op, model.len()) {
                    (0..=6, _) | (_, 0) => pick,
                    (_, _) if pick % 8 == 0 => pick,
                    (_, n) => *model.keys().nth(pick as usize % n).expect("n live ids"),
                };
                match op {
                    0..=6 => {
                        prop_assert_eq!(idx.insert(id, &new), !model.contains_key(&id));
                        model.entry(id).or_insert(new);
                    }
                    7..=13 => {
                        let old = model.remove(&id);
                        prop_assert_eq!(idx.remove(id), old.is_some());
                        dead.extend(old.map(|g| (id, g)));
                    }
                    14..=18 => {
                        let old = model.get(&id).cloned();
                        let replaced = idx.replace(id, old.as_deref().unwrap_or(&[]), &new);
                        prop_assert_eq!(replaced, old.is_some());
                        if replaced {
                            model.insert(id, new);
                        }
                    }
                    _ => idx.compact(),
                }
                // A sweep is all-or-nothing, so the count tells which
                // removed values still sit in the postings.
                if idx.tombstone_count() == 0 {
                    dead.clear();
                }
                prop_assert_eq!(idx.tombstone_count(), dead.len());
                prop_assert_eq!(idx.len(), model.len());
                prop_assert_eq!(idx.is_live(id), model.contains_key(&id));
                let gramless: FxHashSet<u32> =
                    model.iter().filter(|(_, g)| g.is_empty()).map(|(&id, _)| id).collect();
                prop_assert_eq!(idx.gramless_ids(), gramless);

                let fresh = build(&model);
                for q in queries.iter().map(|q| grams(q)) {
                    let got = idx.candidates(&q, window.0, window.1, &req);
                    prop_assert_eq!(&got, &brute_candidates(&model, &q, window, &req));
                    prop_assert_eq!(&got, &fresh.candidates(&q, window.0, window.1, &req));

                    let got = idx.rarest_union(&q, k);
                    prop_assert_eq!(&got, &brute_rarest_union(&model, &dead, &q, k));
                    // Stale frequencies may pick other grams than a
                    // rebuild would; probing every gram never depends
                    // on them.
                    if dead.is_empty() {
                        prop_assert_eq!(&got, &fresh.rarest_union(&q, k));
                    }
                    prop_assert_eq!(idx.rarest_union(&q, q.len()), fresh.rarest_union(&q, q.len()));
                }
            }
        }

        /// Shard builds merged by `absorb` — contiguous id ranges (the
        /// parallel build) or interleaved ones — are observationally
        /// identical to one sequential build.
        #[test]
        fn absorbed_shards_equal_sequential_build(
            values in prop::collection::vec(GRAMS, 0..30),
            shards in 1usize..5,
            interleave in 0u8..2,
            query in GRAMS,
            tau in 1u32..4,
        ) {
            let model: Model =
                values.iter().enumerate().map(|(i, v)| (i as u32, grams(v))).collect();
            let per_shard = model.len().div_ceil(shards).max(1);
            let shard_of = |id: u32| match interleave {
                0 => id as usize / per_shard,
                _ => id as usize % shards,
            };
            let mut merged = GramIndex::new();
            for s in 0..shards {
                merged.absorb(build(model.iter().filter(|(&id, _)| shard_of(id) == s)));
            }
            let seq = build(&model);
            prop_assert_eq!(merged.len(), seq.len());
            prop_assert_eq!(merged.gramless_ids(), seq.gramless_ids());
            let q = grams(&query);
            prop_assert_eq!(
                merged.candidates(&q, 0, u32::MAX, &|_| tau),
                seq.candidates(&q, 0, u32::MAX, &|_| tau)
            );
            for k in 0..=q.len() {
                prop_assert_eq!(merged.rarest_union(&q, k), seq.rarest_union(&q, k));
            }
        }

        /// The count-filter merge is exact on a fresh index for every
        /// window and requirement — compared against a brute-force scan.
        #[test]
        fn merge_matches_bruteforce(
            values in prop::collection::vec(GRAMS, 1..25),
            query in GRAMS,
            window in (0u32..4, 0u32..6),
            tau in 1u32..5,
        ) {
            let model: Model =
                values.iter().enumerate().map(|(i, v)| (i as u32, grams(v))).collect();
            let window = (window.0, window.0 + window.1);
            let q = grams(&query);
            prop_assert_eq!(
                build(&model).candidates(&q, window.0, window.1, &|_| tau),
                brute_candidates(&model, &q, window, &|_| tau)
            );
        }
    }
}

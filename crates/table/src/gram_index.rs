//! The one maintained inverted gram index: size-ordered postings under
//! three probes.
//!
//! [`GramIndex`] is the tokenizer-agnostic storage engine behind every
//! blocking plan of `moma_core::blocking`. It never sees a string:
//! callers tokenize each value once into **gram ids** — dense `u32`
//! handles of one gram dictionary per match (the tokenizers and the
//! dictionary live in `moma-simstring`, which depends on this crate;
//! for TF-IDF the "grams" are word tokens) — and hand in duplicate-free
//! id lists. A gram id indexes the posting arena directly; a gram's
//! postings are the `(gram-set size, value id)` keys of the values
//! containing it, sorted, in a [`BlockList`], and three probes read that
//! one structure:
//!
//! * [`GramIndex::candidates`] — the SimString *T-occurrence* problem.
//!   A threshold-aware caller passes a size window `[min_size,
//!   max_size]` and a per-size minimum-overlap function, and gets back
//!   exactly the ids that (a) fall in the window and (b) share at least
//!   the required number of grams with the query, solved CPMerge-style
//!   in two phases over a reusable [`ProbeScratch`]:
//!
//!   1. the per-size requirement is tabulated once for the window and
//!      the query grams are ordered rarest-first; the window of each of
//!      the first `n − τ_min + 1` posting lists — a few contiguous
//!      slices — is *counted* into a dense array indexed by value id
//!      (any qualifying id must appear in one of them — it can miss at
//!      most `τ − 1` of the query's grams),
//!   2. the survivors are sorted by key — the order the postings are
//!      in — and each remaining (frequent) gram's window is *galloped*
//!      against them (exponential search through whichever side is
//!      longer — see [`crate::postings`]); candidates that can no longer
//!      reach their requirement are abandoned after every list.
//!
//! * [`GramIndex::union`] — the weighted prefix filter: the union of the
//!   postings of a given gram list (a TF-IDF query's heaviest tokens) at
//!   sizes from a lower bound up, each posting screened by its
//!   `(size, id)` before it is admitted.
//! * [`GramIndex::rarest_union`] — the prefix filter: [`GramIndex::union`]
//!   of the query's `k` rarest grams over *all* sizes.
//!
//! All three return a sorted id list.
//!
//! ## Why blocks of `(size, id)` keys
//!
//! The probe wants a gram's postings of one size window contiguous: a
//! layout with one small heap list per gram and size (what this index
//! used to keep, keyed by gram string) pays a cache miss per list, ~50
//! lists per gram, ~60 grams per title probe. One flat `(size, id)`-sorted
//! run per gram probes fastest, but every maintenance operation then
//! memmoves inside the long runs of the frequent grams: replacing one
//! title of a 25 k-title index moved ≈ 143 k posting entries (≈ 103 µs
//! against ≈ 73 µs for the size-bucket layout), and the serve path
//! applies ≈ 50 such replacements per delta under a shard lock. Blocks
//! of at most [`crate::postings::BLOCK`] keys keep a window to a few
//! slices and an update to one short memmove per gram.
//!
//! ## Maintenance and compaction
//!
//! Besides batch construction (sharded builds merge through
//! [`GramIndex::absorb`]; feeding values in `(size, id)` order makes
//! every insert an append) the index is patched in place:
//! [`GramIndex::insert`] adds a value's grams, [`GramIndex::remove`]
//! **tombstones** it — the id stays in the posting lists but is filtered
//! out of probe results, making removal O(1) instead of O(total
//! postings) — and [`GramIndex::replace`] surgically swaps one value's
//! grams (the caller supplies the old grams; the index stores no
//! values). Probes filter tombstones, so candidate sets are exact at
//! every point between compactions.
//!
//! Tombstones leave dead entries behind: probes pay one hash lookup per
//! dead candidate, and gram document frequencies are over-counted
//! (harmless for the frequency-ordered probes' guarantees — any
//! rarest-first order and any `k`-gram subset work — but it skews the
//! rarest-gram heuristic toward stale statistics). [`GramIndex::remove`]
//! therefore triggers [`GramIndex::compact`] — a full O(postings) sweep
//! — once tombstones exceed [`COMPACTION_RATIO`] of the live population
//! (and the [`COMPACTION_FLOOR`] absolute count), which amortizes the
//! sweep to O(1) per removal while bounding dead-entry overhead to a
//! constant factor.
//!
//! Values whose gram list is empty have no postings and can never be
//! merged candidates, but they are tracked
//! ([`GramIndex::gramless_ids`]) so callers can implement the "empty
//! query matches empty values exactly" edge of the q-gram measures (and
//! of TF-IDF cosine, where a token-free value has the empty vector).

use crate::hash::FxHashSet;
use crate::postings::BlockList;

/// Compaction trigger: sweep when `tombstones > live * COMPACTION_RATIO`
/// (and at least [`COMPACTION_FLOOR`] tombstones exist — tiny indexes
/// aren't worth sweeping).
pub const COMPACTION_RATIO: f64 = 0.25;

/// Minimum number of tombstones before a compaction sweep is considered.
pub const COMPACTION_FLOOR: usize = 16;

/// The posting key of value `id` with gram-set size `size`: postings
/// sort by size first, so a size window is one key range.
fn key(size: u32, id: u32) -> u64 {
    u64::from(size) << 32 | u64::from(id)
}

fn size_of(key: u64) -> u32 {
    (key >> 32) as u32
}

fn id_of(key: u64) -> u32 {
    key as u32
}

/// The size key of a gram list. A value with more grams than the key
/// type holds cannot be indexed under a truncated size — that would
/// silently move it out of every window it belongs to.
fn size_key(grams: &[u32]) -> u32 {
    u32::try_from(grams.len()).expect("a value has fewer than 2^32 grams")
}

/// Reusable working memory of [`GramIndex::candidates`]: the dense
/// per-id occurrence counts (all zero between probes — a probe resets
/// exactly the entries it touched) and the buffers of one probe. One
/// scratch serves any number of probes of any number of indexes, one at
/// a time; the matchers keep one per worker shard.
#[derive(Debug, Clone, Default)]
pub struct ProbeScratch {
    /// Occurrence count by value id (`u32`: a value can share as many
    /// grams as it has).
    counts: Vec<u32>,
    /// `need[size − lo]`: shared grams a candidate of `size` must reach.
    need: Vec<u32>,
    /// Posting keys of the candidates still in the race.
    survivors: Vec<u64>,
}

impl ProbeScratch {
    /// Whether every count is zero — the state every probe must leave
    /// behind (checked by the model tests).
    pub fn is_clean(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

/// Inverted index from gram id to the `(gram-set size, value id)` keys
/// of the values containing the gram.
///
/// Gram lists handed to [`GramIndex::insert`] /
/// [`GramIndex::replace`] must be duplicate-free (the caller
/// tokenizes; multiset tokenizers give repeated grams distinct ids —
/// see `moma_simstring::tokenize::GramDict`); the list length is the
/// value's size key. Gram ids are dense handles of the caller's
/// dictionary and index the posting arena directly, and value ids are
/// arena indexes of a source — both small, so the index and the probe
/// scratch size vectors by them.
#[derive(Debug, Clone, Default)]
pub struct GramIndex {
    /// gram id → that gram's posting keys.
    postings: Vec<BlockList>,
    /// gram id → its posting count (unswept tombstone entries
    /// included): the rarity the count-filtered and prefix probes order
    /// grams by, in one small array.
    df: Vec<u32>,
    /// Ids currently indexed and not tombstoned.
    live: FxHashSet<u32>,
    /// Live ids with gram-set size 0 (subset of `live`), maintained
    /// incrementally so gramless probes don't scan the live population.
    gramless: FxHashSet<u32>,
    /// Removed ids whose posting entries have not been swept yet.
    tombstones: FxHashSet<u32>,
    /// Largest gram-set size ever indexed: caps the size window a probe
    /// tabulates its requirement for.
    max_size: u32,
    /// One past the largest value id ever indexed: the length the probe
    /// scratch needs.
    id_bound: usize,
}

impl GramIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Post `id` under each of `grams`, at size `grams.len()`.
    fn post(&mut self, id: u32, grams: &[u32]) {
        let size = size_key(grams);
        self.max_size = self.max_size.max(size);
        self.id_bound = self.id_bound.max(id as usize + 1);
        if let Some(&top) = grams.iter().max() {
            if top as usize >= self.postings.len() {
                self.postings.resize_with(top as usize + 1, BlockList::new);
                self.df.resize(top as usize + 1, 0);
            }
        }
        for &g in grams {
            if self.postings[g as usize].insert(key(size, id)) {
                self.df[g as usize] += 1;
            }
        }
    }

    /// Index one value's deduplicated grams; the value's size key is
    /// `grams.len()`. Inserting a live id is rejected with `false`.
    pub fn insert(&mut self, id: u32, grams: &[u32]) -> bool {
        if self.live.contains(&id) {
            return false;
        }
        if self.tombstones.contains(&id) {
            // Re-inserting a removed id must not resurrect its stale
            // postings; purge them first.
            self.compact();
        }
        self.live.insert(id);
        if grams.is_empty() {
            self.gramless.insert(id);
        }
        self.post(id, grams);
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
    /// new ones inserted under the new size. Returns `false` (and does
    /// nothing) if `id` is not live.
    pub fn replace(&mut self, id: u32, old_grams: &[u32], new_grams: &[u32]) -> bool {
        if !self.live.contains(&id) {
            return false;
        }
        let old_key = key(size_key(old_grams), id);
        for &g in old_grams {
            // A gram the index has never seen (a caller's "unknown"
            // sentinel) has nothing to remove.
            if self
                .postings
                .get_mut(g as usize)
                .is_some_and(|list| list.remove(old_key))
            {
                self.df[g as usize] -= 1;
            }
        }
        if new_grams.is_empty() {
            self.gramless.insert(id);
        } else {
            self.gramless.remove(&id);
        }
        self.post(id, new_grams);
        true
    }

    /// Sweep tombstoned ids out of every posting list now.
    pub fn compact(&mut self) {
        if self.tombstones.is_empty() {
            return;
        }
        let dead = std::mem::take(&mut self.tombstones);
        for (list, df) in self.postings.iter_mut().zip(&mut self.df) {
            list.retain(|key| !dead.contains(&id_of(key)));
            *df = list.len() as u32;
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

    /// Live ids whose values produced no grams, sorted — the only
    /// possible matches of a gramless query. O(|gramless|): the set is
    /// maintained incrementally, not scanned out of the live population.
    pub fn gramless_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.gramless.iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// `query_grams` rarest first: by posting count, ties in the
    /// caller's gram order. Grams the index has never seen have count 0.
    fn rarest_first(&self, query_grams: &[u32]) -> Vec<u32> {
        let df = |g: &u32| self.df.get(*g as usize).copied().unwrap_or(0);
        let mut order = query_grams.to_vec();
        order.sort_by_key(df);
        order
    }

    /// The union of the posting lists of `grams` at sizes of at least
    /// `min_size`, keeping the postings whose `(size, id)` pass `keep`,
    /// tombstones filtered out, sorted. Grams the index has never seen
    /// (e.g. a caller's "unknown" sentinel) contribute nothing.
    pub fn union(&self, grams: &[u32], min_size: u32, keep: impl Fn(u32, u32) -> bool) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &g in grams {
            if let Some(list) = self.postings.get(g as usize) {
                let keys = list.window(key(min_size, 0), u64::MAX).flatten();
                let kept = keys.filter(|&&key| keep(size_of(key), id_of(key)));
                out.extend(kept.map(|&key| id_of(key)));
            }
        }
        out.sort_unstable();
        out.dedup();
        if !self.tombstones.is_empty() {
            out.retain(|id| !self.tombstones.contains(id));
        }
        out
    }

    /// The prefix-filter probe: [`GramIndex::union`] of the `k` rarest
    /// `query_grams` over all sizes. Rarity is a gram's posting count —
    /// unswept tombstone entries included (exact after
    /// [`GramIndex::compact`]) — and ties keep the caller's gram order,
    /// so a deterministically ordered gram list makes the choice
    /// deterministic. Grams the index has never seen have frequency 0:
    /// they are picked first and contribute nothing. `k` is clamped to
    /// the list length.
    pub fn rarest_union(&self, query_grams: &[u32], k: usize) -> Vec<u32> {
        let rarest = self.rarest_first(query_grams);
        self.union(&rarest[..k.min(rarest.len())], 0, |_, _| true)
    }

    /// The ids with gram-set size in `[min_size, max_size]` sharing at
    /// least `min_overlap(size)` grams with `query_grams` — exactly (no
    /// misses, no extras beyond the count criterion), sorted.
    /// `query_grams` must be duplicate-free (ids the index has never
    /// seen — e.g. one sentinel for every gram missing from the
    /// caller's dictionary — may repeat: they count toward the query
    /// size and match nothing); `min_overlap` is evaluated once per
    /// window size and is clamped to ≥ 1 (a merged candidate shares a
    /// gram by construction, and ids sharing none are unreachable
    /// anyway).
    ///
    /// Cost is CPMerge-like: the rarest `n − τ_min + 1` posting lists
    /// are counted into `scratch`, the frequent remainder galloped
    /// against the sorted survivor set, with candidates abandoned as
    /// soon as their remaining potential drops below the requirement.
    pub fn candidates(
        &self,
        query_grams: &[u32],
        min_size: u32,
        max_size: u32,
        min_overlap: &dyn Fn(u32) -> u32,
        scratch: &mut ProbeScratch,
    ) -> Vec<u32> {
        let n = query_grams.len();
        // Size 0 has no postings; sizes above `max_size` none either.
        let (lo, hi) = (min_size.max(1), max_size.min(self.max_size));
        if n == 0 || lo > hi {
            return Vec::new();
        }
        let ProbeScratch {
            counts,
            need,
            survivors,
        } = scratch;
        if counts.len() < self.id_bound {
            counts.resize(self.id_bound, 0);
        }
        need.clear();
        need.extend((lo..=hi).map(|size| min_overlap(size).max(1)));
        let need = |key: u64| need[(size_of(key) - lo) as usize] as usize;
        // The loosest requirement any in-window candidate could have
        // (over every window size: no monotonicity assumed of the bound).
        let tau_min = (lo..=hi).map(|size| need(key(size, 0))).min();
        let tau_min = tau_min.expect("lo <= hi");
        if tau_min > n {
            return Vec::new(); // nothing can share enough
        }
        // Any rarest-first order works (the *result* is
        // order-independent); this one is deterministic.
        let order = self.rarest_first(query_grams);
        let in_window = |g: u32| {
            let list = self.postings.get(g as usize);
            list.into_iter()
                .flat_map(move |list| list.window(key(lo, 0), key(hi, u32::MAX)))
        };

        // Phase 1: count the rarest n − τ_min + 1 lists into the dense
        // array; first touch records the candidate.
        let seed_lists = n - tau_min + 1;
        survivors.clear();
        for &g in &order[..seed_lists] {
            for &key in in_window(g).flatten() {
                let count = &mut counts[id_of(key) as usize];
                if *count == 0 {
                    survivors.push(key);
                }
                *count += 1;
            }
        }

        // Abandon — and reset the count of — every candidate that is
        // dead, then every one that cannot reach its requirement with
        // the lists left.
        if !self.tombstones.is_empty() {
            survivors.retain(|&key| {
                let dead = self.tombstones.contains(&id_of(key));
                if dead {
                    counts[id_of(key) as usize] = 0;
                }
                !dead
            });
        }
        let abandon = |survivors: &mut Vec<u64>, counts: &mut [u32], left: usize| {
            survivors.retain(|&key| {
                let count = &mut counts[id_of(key) as usize];
                let keep = *count as usize + left >= need(key);
                if !keep {
                    *count = 0;
                }
                keep
            });
        };
        abandon(survivors, counts, n - seed_lists);

        // Phase 2: gallop the frequent remainder against the survivors,
        // sorted the way the postings are. A live id has one key per
        // gram, so each list bumps a survivor at most once.
        survivors.sort_unstable();
        for (i, &g) in order.iter().enumerate().skip(seed_lists) {
            if survivors.is_empty() {
                break;
            }
            if let Some(list) = self.postings.get(g as usize) {
                list.for_each_common(survivors, |key| counts[id_of(key) as usize] += 1);
            }
            abandon(survivors, counts, n - 1 - i); // n − 1 − i grams still unprobed
        }

        // Whoever is left reached its requirement with nothing unprobed.
        let mut out: Vec<u32> = survivors.iter().map(|&key| id_of(key)).collect();
        for &id in &out {
            counts[id as usize] = 0;
        }
        out.sort_unstable();
        out
    }

    /// Merge in an index built from another input shard over the same
    /// gram dictionary. Posting lists stay sorted, so the merged index
    /// is observationally identical to a sequential build over the
    /// concatenated input (shards that each hold one range of
    /// `(size, id)` merge by appending). Both indexes must be
    /// tombstone-free (freshly built).
    pub fn absorb(&mut self, other: GramIndex) {
        debug_assert!(self.tombstones.is_empty() && other.tombstones.is_empty());
        self.live.extend(other.live);
        self.gramless.extend(other.gramless);
        self.max_size = self.max_size.max(other.max_size);
        self.id_bound = self.id_bound.max(other.id_bound);
        if self.postings.len() < other.postings.len() {
            self.postings
                .resize_with(other.postings.len(), BlockList::new);
            self.df.resize(other.postings.len(), 0);
        }
        for (g, theirs) in other.postings.into_iter().enumerate() {
            self.postings[g].merge(theirs);
            self.df[g] = self.postings[g].len() as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashMap;

    thread_local! {
        /// The tests' gram dictionary: one id per distinct word.
        static WORDS: std::cell::RefCell<FxHashMap<String, u32>> = Default::default();
    }

    /// Word-gram tokenizer for tests: the ids of the distinct words of
    /// `s`, in word order (so "the caller's gram order" is alphabetic);
    /// the real trigram / tagged q-gram tokenizers live upstream in
    /// moma-simstring.
    pub(super) fn grams(s: &str) -> Vec<u32> {
        let mut words: Vec<&str> = s.split_whitespace().collect();
        words.sort_unstable();
        words.dedup();
        WORDS.with_borrow_mut(|dict| {
            let mut id = |w: &str| {
                let next = dict.len() as u32;
                *dict.entry(w.to_owned()).or_insert(next)
            };
            words.into_iter().map(&mut id).collect()
        })
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

    /// T-occurrence probe on a fresh scratch, which it must leave clean.
    fn candidates(
        idx: &GramIndex,
        q: &[u32],
        (lo, hi): (u32, u32),
        req: &dyn Fn(u32) -> u32,
    ) -> Vec<u32> {
        let mut scratch = ProbeScratch::default();
        let got = idx.candidates(q, lo, hi, req, &mut scratch);
        assert!(scratch.is_clean());
        got
    }

    /// T-occurrence probe requiring `tau` shared grams at any size.
    fn probe(idx: &GramIndex, q: &str, tau: u32) -> Vec<u32> {
        candidates(idx, &grams(q), (0, u32::MAX), &|_| tau)
    }

    /// Prefix probe over every query gram: all ids sharing any of them.
    fn union(idx: &GramIndex, q: &str) -> Vec<u32> {
        let g = grams(q);
        idx.rarest_union(&g, g.len())
    }

    #[test]
    fn basic_count_filtering() {
        let idx = sample();
        // Share >= 1 gram with "data cleaning": ids 0, 2, 4.
        assert_eq!(probe(&idx, "data cleaning", 1), [0, 2, 4]);
        assert_eq!(union(&idx, "data cleaning"), [0, 2, 4]);
        // Share >= 2 grams: ids 0 and 2 only.
        assert_eq!(probe(&idx, "data cleaning", 2), [0, 2]);
        // Nothing shares 3 grams with a 2-gram query.
        assert!(probe(&idx, "data cleaning", 3).is_empty());
    }

    #[test]
    fn size_window_prunes_buckets() {
        let idx = sample();
        let q = grams("data cleaning fuzzy match");
        // Only size-4 values considered: id 2.
        assert_eq!(candidates(&idx, &q, (4, 4), &|_| 1), [2]);
        // Only size-1 values: id 4.
        assert_eq!(candidates(&idx, &q, (1, 1), &|_| 1), [4]);
        // Empty window.
        assert!(candidates(&idx, &q, (5, 4), &|_| 1).is_empty());
    }

    #[test]
    fn per_size_overlap_requirement() {
        let idx = sample();
        let q = grams("data cleaning system fuzzy match");
        // Require full containment: size-s candidates must share s grams.
        // id 0 {data,cleaning,system} ⊆ q; id 2 {fuzzy,match,data,cleaning} ⊆ q;
        // id 4 {data} ⊆ q; id 1 shares nothing.
        assert_eq!(candidates(&idx, &q, (1, u32::MAX), &|s| s), [0, 2, 4]);
    }

    #[test]
    fn rarest_union_respects_k() {
        let idx = sample();
        // k = 1 probes only the rarest gram ("cupid", df 1 vs "data", df 3).
        assert_eq!(idx.rarest_union(&grams("cupid data"), 1), [1]);
        // A df tie keeps the caller's gram order: "cupid" before "system".
        assert_eq!(idx.rarest_union(&grams("cupid system"), 1), [1]);
        // Unknown grams have df 0: picked first, contributing nothing.
        assert!(idx.rarest_union(&grams("data zzz"), 1).is_empty());
        assert_eq!(idx.rarest_union(&grams("data zzz"), 9), [0, 2, 4]);
    }

    #[test]
    fn union_screens_sizes_and_postings() {
        let idx = sample();
        let q = grams("data cleaning");
        assert_eq!(idx.union(&q, 0, |_, _| true), [0, 2, 4]);
        // Sizes below 3 ("data" alone, size 1) are never read.
        assert_eq!(idx.union(&q, 3, |_, _| true), [0, 2]);
        // The screen sees every posting's size and id.
        assert_eq!(idx.union(&q, 0, |size, id| size == 4 || id == 4), [2, 4]);
        assert!(idx.union(&[u32::MAX], 0, |_, _| true).is_empty());
    }

    #[test]
    fn grams_missing_from_the_dictionary_count_but_match_nothing() {
        let idx = sample();
        // A read-only tokenizer maps every gram its dictionary lacks to
        // one sentinel: it may repeat, enlarges the query, posts nothing.
        let mut q = grams("data cleaning");
        q.extend([u32::MAX, u32::MAX]);
        assert_eq!(candidates(&idx, &q, (0, u32::MAX), &|_| 2), [0, 2]);
        assert!(candidates(&idx, &q, (0, u32::MAX), &|_| 3).is_empty());
        // Two df-0 picks use up k = 2; the third pick reaches "cleaning".
        assert!(idx.rarest_union(&q, 2).is_empty());
        assert_eq!(idx.rarest_union(&q, 3), [0, 2]);
    }

    #[test]
    fn empty_query_and_gramless_values() {
        let idx = sample();
        assert!(probe(&idx, "", 1).is_empty());
        assert!(union(&idx, "").is_empty());
        assert_eq!(idx.gramless_ids(), [3]);
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
        assert_eq!(probe(&idx, "data cleaning", 1), [2, 4]);
        assert_eq!(union(&idx, "data cleaning"), [2, 4]);
        // …before or after the sweep.
        idx.compact();
        assert_eq!(idx.tombstone_count(), 0);
        assert_eq!(probe(&idx, "data cleaning", 1), [2, 4]);
        assert_eq!(union(&idx, "data cleaning"), [2, 4]);
        // Removing a gramless value drops it from the gramless set.
        assert!(idx.remove(3));
        assert!(idx.gramless_ids().is_empty());
    }

    #[test]
    fn replace_moves_size_buckets() {
        let mut idx = sample();
        // id 4 grows from size 1 to size 3.
        assert!(idx.replace(4, &grams("data"), &grams("entity resolution survey")));
        assert!(candidates(&idx, &grams("data"), (1, 1), &|_| 1).is_empty());
        let c = candidates(&idx, &grams("entity resolution"), (3, 3), &|_| 2);
        assert_eq!(c, [4]);
        assert_eq!(union(&idx, "data"), [0, 2]);
        // Replace to gramless and back.
        assert!(idx.replace(4, &grams("entity resolution survey"), &grams("")));
        assert!(idx.gramless_ids().contains(&4));
        assert!(union(&idx, "entity resolution").is_empty());
        assert!(idx.replace(4, &grams(""), &grams("back again")));
        assert_eq!(idx.gramless_ids(), [3]);
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
        for tau in 1..=8u32 {
            let c = probe(&idx, "a b c d e f g h", tau);
            assert_eq!(c.contains(&0), tau <= 8, "tau={tau}");
            assert_eq!(c.contains(&1), tau <= 4, "tau={tau}");
            assert_eq!(c.contains(&2), tau <= 1, "tau={tau}");
        }
    }

    #[test]
    fn counts_do_not_wrap_on_a_value_with_many_grams() {
        // 70 000 shared grams overflow a 16-bit counter; with the exact
        // requirement `size` a wrapped count would miss the value.
        let big: Vec<u32> = (0..70_000).collect();
        let mut idx = GramIndex::new();
        idx.insert(7, &big);
        idx.insert(8, &big[..69_999]);
        assert_eq!(candidates(&idx, &big, (0, u32::MAX), &|size| size), [7, 8]);
        assert_eq!(
            candidates(&idx, &big, (70_000, u32::MAX), &|size| size),
            [7]
        );
    }
}

/// One model-based suite for every maintenance path: the index is
/// driven next to a plain `id → grams` map, and every probe must agree
/// with brute force over that map — and with a fresh rebuild of it —
/// after every single step.
#[cfg(test)]
mod model_tests {
    use super::*;
    use proptest::prelude::*;

    type Model = std::collections::BTreeMap<u32, Vec<u32>>;

    /// Up to seven grams over a five-letter alphabet, as sorted
    /// duplicate-free gram ids; may be empty (a gramless value or
    /// query).
    const GRAMS: &str = "([a-e]( [a-e]){0,6})?";

    fn grams(text: &str) -> Vec<u32> {
        let mut ids: Vec<u32> = text
            .split_whitespace()
            .map(|w| u32::from(w.as_bytes()[0] - b'a'))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn overlap(a: &[u32], b: &[u32]) -> u32 {
        a.iter().filter(|g| b.contains(g)).count() as u32
    }

    /// T-occurrence by definition: count overlaps inside the window.
    fn brute_candidates(
        model: &Model,
        q: &[u32],
        (lo, hi): (u32, u32),
        req: &dyn Fn(u32) -> u32,
    ) -> Vec<u32> {
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
    fn brute_rarest_union(model: &Model, dead: &Model, q: &[u32], k: usize) -> Vec<u32> {
        let df = |g: &u32| {
            model
                .values()
                .chain(dead.values())
                .filter(|v| v.contains(g))
                .count()
        };
        let mut picked: Vec<&u32> = q.iter().collect();
        picked.sort_by_key(|g| df(g)); // stable
        picked.truncate(k);
        model
            .iter()
            .filter(|(_, g)| picked.iter().any(|p| g.contains(p)))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Weighted-prefix union by definition: ids of size ≥ `min_size`
    /// sharing a gram with `q` and passing the screen.
    fn brute_union(
        model: &Model,
        q: &[u32],
        min_size: u32,
        keep: &dyn Fn(u32, u32) -> bool,
    ) -> Vec<u32> {
        model
            .iter()
            .filter(|(&id, g)| {
                let size = g.len() as u32;
                size >= min_size && overlap(q, g) > 0 && keep(size, id)
            })
            .map(|(&id, _)| id)
            .collect()
    }

    fn build<'a>(values: impl IntoIterator<Item = (&'a u32, &'a Vec<u32>)>) -> GramIndex {
        let mut idx = GramIndex::new();
        for (id, g) in values {
            assert!(idx.insert(*id, g));
        }
        idx
    }

    proptest! {
        /// Random interleavings of insert / remove / replace / compact /
        /// absorb — re-insert after remove and automatic sweeps included.
        /// Every probe of the driven index runs on one long-lived
        /// scratch, every reference probe on a fresh one.
        #[test]
        fn maintenance_matches_model_and_rebuild(
            ops in prop::collection::vec((0u8..21, 0u32..128, GRAMS), 1..240),
            queries in prop::collection::vec(GRAMS, 1..4),
            window in (0u32..4, 0u32..8),
            tau in 1u32..4,
            k in 1usize..5,
        ) {
            let mut idx = GramIndex::new();
            let mut model = Model::new();
            // Removed values whose posting entries are not swept yet.
            let mut dead = Model::new();
            let mut scratch = ProbeScratch::default();
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
                    19 => idx.compact(),
                    _ => {
                        // Absorb a freshly built shard of ids the index
                        // has never held (both sides tombstone-free).
                        idx.compact();
                        let mut shard = GramIndex::new();
                        for id in 200 + pick..203 + pick {
                            if let std::collections::btree_map::Entry::Vacant(slot) = model.entry(id) {
                                shard.insert(id, &new);
                                slot.insert(new.clone());
                            }
                        }
                        idx.absorb(shard);
                    }
                }
                // A sweep is all-or-nothing, so the count tells which
                // removed values still sit in the postings.
                if idx.tombstone_count() == 0 {
                    dead.clear();
                }
                prop_assert_eq!(idx.tombstone_count(), dead.len());
                prop_assert_eq!(idx.len(), model.len());
                prop_assert_eq!(idx.is_live(id), model.contains_key(&id));
                let gramless: Vec<u32> =
                    model.iter().filter(|(_, g)| g.is_empty()).map(|(&id, _)| id).collect();
                prop_assert_eq!(idx.gramless_ids(), gramless);

                let fresh = build(&model);
                for q in queries.iter().map(|q| grams(q)) {
                    let got = idx.candidates(&q, window.0, window.1, &req, &mut scratch);
                    prop_assert!(scratch.is_clean());
                    prop_assert_eq!(&got, &brute_candidates(&model, &q, window, &req));
                    let rebuilt = fresh.candidates(
                        &q, window.0, window.1, &req, &mut ProbeScratch::default(),
                    );
                    prop_assert_eq!(&got, &rebuilt);
                    // The used scratch answers like a fresh one.
                    let again = idx.candidates(&q, window.0, window.1, &req, &mut scratch);
                    prop_assert_eq!(&got, &again);

                    let got = idx.rarest_union(&q, k);
                    prop_assert_eq!(&got, &brute_rarest_union(&model, &dead, &q, k));
                    // Stale frequencies may pick other grams than a
                    // rebuild would; probing every gram never depends
                    // on them.
                    if dead.is_empty() {
                        prop_assert_eq!(&got, &fresh.rarest_union(&q, k));
                    }
                    prop_assert_eq!(idx.rarest_union(&q, q.len()), fresh.rarest_union(&q, q.len()));

                    let screen = |size: u32, id: u32| !(size + id).is_multiple_of(3);
                    let got = idx.union(&q, window.0, screen);
                    prop_assert_eq!(&got, &brute_union(&model, &q, window.0, &screen));
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
            let mut scratch = ProbeScratch::default();
            prop_assert_eq!(
                merged.candidates(&q, 0, u32::MAX, &|_| tau, &mut scratch),
                seq.candidates(&q, 0, u32::MAX, &|_| tau, &mut scratch)
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
                build(&model).candidates(
                    &q, window.0, window.1, &|_| tau, &mut ProbeScratch::default(),
                ),
                brute_candidates(&model, &q, window, &|_| tau)
            );
        }
    }
}

//! Tokenizers: word tokens, character q-grams as strings, and — what
//! the match path runs on — character q-grams or words as **ids**.
//!
//! A [`GramDict`] is the gram dictionary of one match: it turns a value
//! into a list of dense `u32` gram ids *once*, and index build, index
//! probe and scoring all work on those ids from then on (an inverted
//! index addresses its postings by gram id, a q-gram score is one merge
//! of two sorted id lists, a TF-IDF vector is keyed by word id). Two
//! values can only be compared through ids of the same dictionary.

use moma_table::FxHashMap;

use crate::normalize::{normalize, normalize_into};

/// Split into normalized word tokens.
pub fn words(s: &str) -> Vec<String> {
    normalize(s)
        .split(' ')
        .filter(|t| !t.is_empty())
        .map(str::to_owned)
        .collect()
}

/// The chars of the normal form of `s` padded for `q`-grams (`q - 1`
/// leading and trailing `#`) in `padded` — its `q`-wide windows are the
/// value's grams; left empty for a value that normalizes to nothing.
/// `text` is a scratch buffer.
fn pad_for_qgrams(s: &str, q: usize, text: &mut String, padded: &mut Vec<char>) {
    assert!(q >= 1, "q-gram length must be at least 1");
    text.clear();
    padded.clear();
    normalize_into(s, text);
    if text.is_empty() {
        return;
    }
    let pad = std::iter::repeat_n('#', q - 1);
    padded.extend(pad.clone().chain(text.chars()).chain(pad));
}

/// Character q-grams of the *normalized* string, padded with `q - 1`
/// leading/trailing `#` sentinels (standard for trigram matching: padding
/// gives prefix/suffix grams weight). `q` must be at least 1.
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    let (mut text, mut padded) = (String::new(), Vec::new());
    pad_for_qgrams(s, q, &mut text, &mut padded);
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

/// Id of every gram the dictionary of a read-only tokenization lacks
/// ([`GramDict::lookup_qgram_ids`], [`GramDict::lookup_qgram_set_ids`]).
/// No posting list and no interned gram ever has it.
pub const UNKNOWN_GRAM: u32 = u32::MAX;

/// A gram or word as a dictionary key: up to six chars packed 21 bits
/// each (a `char` is below 2²¹) under a leading 1 bit that tells `"a"`
/// from `"\0a"` — the common case hashes and compares as one integer —
/// longer ones as their text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GramKey {
    Packed(u128),
    Text(Box<str>),
}

impl GramKey {
    fn of(gram: &[char]) -> Self {
        if gram.len() <= 6 {
            Self::packed(gram.iter().copied())
        } else {
            GramKey::Text(gram.iter().collect())
        }
    }

    fn word(word: &str) -> Self {
        if word.chars().nth(6).is_none() {
            Self::packed(word.chars())
        } else {
            GramKey::Text(word.into())
        }
    }

    fn packed(chars: impl Iterator<Item = char>) -> Self {
        GramKey::Packed(chars.fold(1, |key, c| key << 21 | c as u128))
    }
}

/// The gram dictionary of one match: `(gram, occurrence)` ↔ dense `u32`
/// id. Occurrence 0 is the gram itself; the `k`-th repeat of a gram
/// within one value (k ≥ 1) has an id of its own, which is what turns a
/// value's gram *multiset* into a duplicate-free id list. A TF-IDF
/// match keeps its word tokens here instead — one id per distinct word.
///
/// The `intern_*` tokenizers assign ids on first sight and are what
/// indexed and stored values go through; the `lookup_*` tokenizers
/// leave the dictionary alone and map every gram it lacks to
/// [`UNKNOWN_GRAM`] — enough for a value that only *probes*: such a
/// gram is in no indexed value, so it can only count toward the probe's
/// size.
#[derive(Debug, Clone, Default)]
pub struct GramDict {
    ids: FxHashMap<(GramKey, u32), u32>,
    /// Reusable tokenizer buffers (see [`pad_for_qgrams`]).
    text: String,
    padded: Vec<char>,
}

/// The sorted multiset ids of the grams of `padded` (see
/// [`GramDict::intern_qgram_ids`]), `id_of(gram, occurrence)` resolving
/// one id.
fn multiset_ids(padded: &[char], q: usize, mut id_of: impl FnMut(&[char], u32) -> u32) -> Vec<u32> {
    // Sort the grams by id, remembering where each starts.
    let mut by_id: Vec<(u32, u32)> = padded
        .windows(q)
        .enumerate()
        .map(|(at, gram)| (id_of(gram, 0), at as u32))
        .collect();
    by_id.sort_unstable();
    let mut repeated = false;
    let mut run = 0u32;
    let mut ids: Vec<u32> = Vec::with_capacity(by_id.len());
    for (i, &(id, at)) in by_id.iter().enumerate() {
        if i > 0 && id == by_id[i - 1].0 && id != UNKNOWN_GRAM {
            run += 1;
            repeated = true;
            let at = at as usize;
            ids.push(id_of(&padded[at..at + q], run));
        } else {
            run = 0;
            ids.push(id);
        }
    }
    if repeated {
        ids.sort_unstable();
    }
    ids
}

/// The set ids of the grams of `padded`, in gram order (see
/// [`GramDict::intern_qgram_set_ids`]).
fn set_ids(padded: &[char], q: usize, mut id_of: impl FnMut(&[char]) -> u32) -> Vec<u32> {
    let mut grams: Vec<&[char]> = padded.windows(q).collect();
    grams.sort_unstable();
    grams.dedup();
    grams.into_iter().map(&mut id_of).collect()
}

impl GramDict {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct grams (repeats of a gram counted apart) seen.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no gram has been interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn intern_key(ids: &mut FxHashMap<(GramKey, u32), u32>, key: (GramKey, u32)) -> u32 {
        let next = u32::try_from(ids.len()).expect("fewer than 2^32 grams");
        assert!(next != UNKNOWN_GRAM, "gram ids exhausted");
        *ids.entry(key).or_insert(next)
    }

    fn intern(ids: &mut FxHashMap<(GramKey, u32), u32>, gram: &[char], occurrence: u32) -> u32 {
        Self::intern_key(ids, (GramKey::of(gram), occurrence))
    }

    /// Merge another dictionary in — what lets shards of one column be
    /// tokenized in parallel, each with a dictionary of its own. Returns
    /// the id every id of `other` has here, by old id: ids tokenized
    /// with `other` must be mapped through it (and lists sorted by id
    /// re-sorted) before they meet ids of `self`.
    pub fn absorb(&mut self, other: GramDict) -> Vec<u32> {
        let mut by_id: Vec<((GramKey, u32), u32)> = other.ids.into_iter().collect();
        by_id.sort_unstable_by_key(|&(_, id)| id);
        let keys = by_id.into_iter().map(|(key, _)| key);
        keys.map(|key| Self::intern_key(&mut self.ids, key))
            .collect()
    }

    fn lookup(&self, gram: &[char], occurrence: u32) -> u32 {
        let id = self.ids.get(&(GramKey::of(gram), occurrence));
        id.copied().unwrap_or(UNKNOWN_GRAM)
    }

    /// The value's word tokens ([`words`]) as ids, one per occurrence,
    /// sorted. A word gets its id on first sight, and the words of one
    /// value are met in string order — so a column tokenized in order
    /// numbers its words exactly like a [`crate::TfIdfCorpus`] built
    /// from the same values.
    pub fn intern_word_ids(&mut self, s: &str) -> Box<[u32]> {
        self.text.clear();
        normalize_into(s, &mut self.text);
        let mut words: Vec<&str> = self.text.split(' ').filter(|w| !w.is_empty()).collect();
        words.sort_unstable();
        let ids = &mut self.ids;
        let mut out: Vec<u32> = words
            .into_iter()
            .map(|word| Self::intern_key(ids, (GramKey::word(word), 0)))
            .collect();
        out.sort_unstable();
        out.into_boxed_slice()
    }

    /// Id of one word token ([`words`]); [`UNKNOWN_GRAM`] if the
    /// dictionary lacks it.
    pub fn lookup_word(&self, word: &str) -> u32 {
        let id = self.ids.get(&(GramKey::word(word), 0));
        id.copied().unwrap_or(UNKNOWN_GRAM)
    }

    /// The value's padded q-gram **multiset** as a sorted, duplicate-free
    /// id list: the `k`-th repeat of a gram gets the id of
    /// `(gram, k)`. Set intersection of two such lists equals the
    /// multiset intersection of the raw gram profiles, and the list
    /// length equals the multiset size — exactly the quantities the
    /// q-gram scorers in [`crate::ngram`] use, which is what makes
    /// threshold bounds over these lists exact for them.
    pub fn intern_qgram_ids(&mut self, s: &str, q: usize) -> Box<[u32]> {
        pad_for_qgrams(s, q, &mut self.text, &mut self.padded);
        let ids = &mut self.ids;
        multiset_ids(&self.padded, q, |gram, k| Self::intern(ids, gram, k)).into_boxed_slice()
    }

    /// [`GramDict::intern_qgram_ids`] without touching the dictionary:
    /// grams (and repeats) it lacks become [`UNKNOWN_GRAM`], so the list
    /// may end in a run of those — its length is still the multiset
    /// size.
    pub fn lookup_qgram_ids(&self, s: &str, q: usize) -> Vec<u32> {
        let (mut text, mut padded) = (String::new(), Vec::new());
        pad_for_qgrams(s, q, &mut text, &mut padded);
        let mut ids = multiset_ids(&padded, q, |gram, k| self.lookup(gram, k));
        ids.sort_unstable(); // repeats of known grams may be unknown
        ids
    }

    /// The value's **set** of padded q-grams as duplicate-free ids *in
    /// gram order* (the order of the gram strings, not of the ids) — a
    /// deterministic order a rarest-first probe can break frequency ties
    /// by, whatever order the dictionary met the grams in.
    pub fn intern_qgram_set_ids(&mut self, s: &str, q: usize) -> Box<[u32]> {
        pad_for_qgrams(s, q, &mut self.text, &mut self.padded);
        let ids = &mut self.ids;
        set_ids(&self.padded, q, |gram| Self::intern(ids, gram, 0)).into_boxed_slice()
    }

    /// [`GramDict::intern_qgram_set_ids`] without touching the
    /// dictionary: grams it lacks become [`UNKNOWN_GRAM`] (one entry
    /// each).
    pub fn lookup_qgram_set_ids(&self, s: &str, q: usize) -> Vec<u32> {
        let (mut text, mut padded) = (String::new(), Vec::new());
        pad_for_qgrams(s, q, &mut text, &mut padded);
        set_ids(&padded, q, |gram| self.lookup(gram, 0))
    }
}

/// Map ids tokenized with another dictionary through the table
/// [`GramDict::absorb`] returned (old id → new id) and restore their
/// order: a sorted list stays sorted.
pub fn remap_sorted(ids: &mut [u32], remap: &[u32]) {
    ids.iter_mut().for_each(|id| *id = remap[*id as usize]);
    ids.sort_unstable();
}

/// Number of elements two sorted, duplicate-free lists share — for two
/// [`GramDict::intern_qgram_ids`] lists of one dictionary, the size of
/// the multiset intersection of the two gram profiles.
pub fn shared<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut shared) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

/// Trigrams (`q = 3`), the paper's work-horse metric input.
pub fn trigrams(s: &str) -> Vec<String> {
    qgrams(s, 3)
}

/// Sorted q-gram profile with multiplicities: `(gram, count)`.
pub fn qgram_profile(s: &str, q: usize) -> Vec<(String, u32)> {
    let mut grams = qgrams(s, q);
    grams.sort_unstable();
    let mut profile: Vec<(String, u32)> = Vec::with_capacity(grams.len());
    for g in grams {
        match profile.last_mut() {
            Some((last, n)) if *last == g => *n += 1,
            _ => profile.push((g, 1)),
        }
    }
    profile
}

/// Size of the multiset intersection of two sorted profiles.
pub fn profile_intersection(a: &[(String, u32)], b: &[(String, u32)]) -> u32 {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0u32);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += a[i].1.min(b[j].1);
                i += 1;
                j += 1;
            }
        }
    }
    inter
}

/// Total multiplicity of a profile.
pub fn profile_size(p: &[(String, u32)]) -> u32 {
    p.iter().map(|(_, n)| *n).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_basic() {
        assert_eq!(
            words("A Formal, Perspective!"),
            vec!["a", "formal", "perspective"]
        );
        assert!(words("").is_empty());
    }

    #[test]
    fn trigrams_padded() {
        let g = trigrams("ab");
        // "##ab##" -> ##a, #ab, ab#, b##
        assert_eq!(g, vec!["##a", "#ab", "ab#", "b##"]);
    }

    #[test]
    fn qgrams_q1_is_chars() {
        assert_eq!(qgrams("abc", 1), vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_string_no_grams() {
        assert!(trigrams("").is_empty());
        assert!(trigrams("!!!").is_empty());
    }

    #[test]
    fn qgram_ids_encode_multiplicity() {
        let mut dict = GramDict::new();
        // "aaaa" -> ##a #aa aaa aaa aa# a## : 6 grams, "aaa" twice.
        let g = dict.intern_qgram_ids("aaaa", 3);
        assert_eq!(g.len(), 6);
        assert_eq!(dict.len(), 6); // the repeat has an id of its own
        assert!(g.windows(2).all(|w| w[0] < w[1]), "sorted, duplicate-free");
        // A long repeat streak tags every occurrence distinctly.
        let long = dict.intern_qgram_ids(&"a".repeat(15), 3);
        assert_eq!(long.len(), 17);
        assert!(long.windows(2).all(|w| w[0] < w[1]));
        // Shared ids == multiset intersection == what the scorer counts.
        let h = dict.intern_qgram_ids("aaa", 3); // ##a #aa aaa aa# a## : 5 grams
        let profiles = (qgram_profile("aaaa", 3), qgram_profile("aaa", 3));
        assert_eq!(
            shared(&g, &h) as u32,
            profile_intersection(&profiles.0, &profiles.1)
        );
        assert_eq!(shared(&g, &long), 6);
        assert!(dict.intern_qgram_ids("", 3).is_empty());
        assert!(dict.intern_qgram_ids("?!", 3).is_empty());
    }

    #[test]
    fn lookup_agrees_with_intern_on_known_grams() {
        let mut dict = GramDict::new();
        let stored = dict.intern_qgram_ids("caccccc", 3);
        let set = dict.intern_qgram_set_ids("caccccc", 3);
        let size = dict.len();
        assert_eq!(dict.lookup_qgram_ids("caccccc", 3), &*stored);
        assert_eq!(dict.lookup_qgram_set_ids("caccccc", 3), &*set);
        // Missing grams (and missing repeats of known ones) become the
        // sentinel, sorted last, and still count toward the size.
        let probe = dict.lookup_qgram_ids("ccccccc", 3); // #cc and two of ccc ×5 unknown
        assert_eq!(probe.len(), 9);
        assert_eq!(probe.iter().filter(|&&g| g == UNKNOWN_GRAM).count(), 3);
        assert_eq!(shared(&probe, &stored), 6);
        assert_eq!(dict.lookup_qgram_set_ids("xyz", 3), [UNKNOWN_GRAM; 5]);
        assert_eq!(dict.len(), size, "lookups leave the dictionary alone");
    }

    #[test]
    fn absorbed_dictionary_maps_ids_of_the_other() {
        let (mut a, mut b) = (GramDict::new(), GramDict::new());
        let in_a = a.intern_qgram_ids("caccccc", 3);
        let mut in_b = b.intern_qgram_ids("ccccc xyz", 3).into_vec();
        let remap = a.absorb(b);
        in_b.iter_mut().for_each(|id| *id = remap[*id as usize]);
        in_b.sort_unstable();
        // Same ids as tokenizing the value with `a` directly — shared
        // grams and repeats got the ids `a` already had.
        assert_eq!(in_b, &*a.intern_qgram_ids("ccccc xyz", 3));
        assert_eq!(a.lookup_qgram_ids("caccccc", 3), &*in_a);
        // 7-grams take the unpacked key; one dictionary holds both.
        let long = a.intern_qgram_ids("abcdefgh abcdefgh", 7);
        assert_eq!(long.len(), 17 + 6);
        assert_eq!(shared(&long, &a.intern_qgram_ids("abcdefgh", 7)), 14);
    }

    #[test]
    fn word_ids_are_numbered_on_first_sight_in_string_order() {
        let mut dict = GramDict::new();
        // the the view view: the = 0, view = 1.
        assert_eq!(&*dict.intern_word_ids("The view, the VIEW"), [0, 0, 1, 1]);
        // a on perspective problem selection the view: a = 2, on = 3, …
        let ids = dict.intern_word_ids("a perspective on the view selection problem");
        assert_eq!(&*ids, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(dict.lookup_word("perspective"), 4);
        assert_eq!(dict.lookup_word("unseen"), UNKNOWN_GRAM);
        assert!(dict.intern_word_ids("?!").is_empty());
        // A shard's words move over keeping first-sight numbering.
        let mut shard = GramDict::new();
        let mut ids = shard.intern_word_ids("zebra selection").into_vec();
        let remap = dict.absorb(shard);
        remap_sorted(&mut ids, &remap);
        assert_eq!(ids, [6, 7]);
        assert_eq!(dict.lookup_word("zebra"), 7);
    }

    #[test]
    fn set_ids_come_in_gram_order_whatever_the_id_order() {
        let mut dict = GramDict::new();
        dict.intern_qgram_set_ids("za", 3); // "za#" and "a##" get low ids
        let ids = dict.intern_qgram_set_ids("az za", 3);
        let mut grams = trigrams("az za");
        grams.sort_unstable();
        grams.dedup();
        let by_lookup: Vec<u32> = grams
            .iter()
            .map(|g| dict.lookup(&g.chars().collect::<Vec<_>>(), 0))
            .collect();
        assert_eq!(&*ids, by_lookup);
        assert!(!ids.windows(2).all(|w| w[0] < w[1]), "not id order here");
    }

    #[test]
    #[should_panic(expected = "q-gram length must be at least 1")]
    fn zero_length_grams_are_refused() {
        qgrams("abc", 0);
    }

    #[test]
    fn profile_counts_multiplicity() {
        let p = qgram_profile("aaaa", 2); // #a aa aa aa a#
        let aa = p.iter().find(|(g, _)| g == "aa").unwrap();
        assert_eq!(aa.1, 3);
    }

    #[test]
    fn profile_intersection_multiset() {
        let a = qgram_profile("aaaa", 2);
        let b = qgram_profile("aaa", 2);
        // a: {#a:1, aa:3, a#:1}, b: {#a:1, aa:2, a#:1} -> 1+2+1 = 4
        assert_eq!(profile_intersection(&a, &b), 4);
        assert_eq!(profile_size(&b), 4);
    }

    #[test]
    fn intersection_disjoint_is_zero() {
        let a = qgram_profile("abc", 3);
        let b = qgram_profile("xyz", 3);
        assert_eq!(profile_intersection(&a, &b), 0);
    }
}

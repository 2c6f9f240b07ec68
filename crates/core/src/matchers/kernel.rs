//! The match kernel: one probe-and-score loop for every matcher.
//!
//! The paper's generic attribute matcher is one loop — "candidates of a
//! value → score → keep if the threshold is reached" (Section 2.2). Full
//! execution, [`AttributeMatcher::prime`](super::AttributeMatcher::prime),
//! both directions of a delta patch ([`crate::delta`]), TF-IDF cosine
//! over cached vectors and the multi-attribute matcher all run it here,
//! over the same value layout:
//!
//! * a [`Side`] is one column by arena index (`None` = instance removed
//!   or attribute missing) behind the candidate index the matcher's
//!   resolved plan calls for — no index means *score all pairs*;
//! * [`probe`] shards query values through
//!   [`Parallelism::run_sharded`], walks either the index's candidates
//!   or every present value of the target side, and keeps a pair when
//!   its score reaches the threshold — the only threshold test of the
//!   matcher layer. Each shard owns one scratch (`S::default()`) that
//!   it lends to every candidate lookup, so an index probe allocates
//!   its working memory once per shard, not once per query.
//!
//! A value is whatever the matcher *prepared* from the instance's match
//! string — tokenized, parsed or vectorized once per match — so neither
//! `candidates` nor `score` derives anything from a single value again.
//!
//! `score` always receives `(domain value, range value)`: an inverse
//! probe (range queries against the domain side) swaps the arguments
//! back before scoring and emits `(domain, range)` rows, so it is
//! bit-identical to the forward probe even for asymmetric measures.
//! Rows are emitted in no particular order; callers canonicalize through
//! [`MappingTable::from_rows`](moma_table::MappingTable::from_rows).

use moma_table::Correspondence;

use crate::exec::Parallelism;

/// One side of a match: a column by arena index and, when the resolved
/// plan prunes, the candidate index over its present values.
#[derive(Debug, Clone)]
pub(crate) struct Side<V, I> {
    /// Value per arena index; `None` = removed or attribute missing.
    pub vals: Vec<Option<V>>,
    /// Candidate index over the present values; `None` = all pairs.
    pub index: Option<I>,
}

/// The present values of a column as `(arena index, value)` queries.
pub(crate) fn present<V>(vals: &[Option<V>]) -> Vec<(u32, &V)> {
    vals.iter()
        .enumerate()
        .filter_map(|(i, v)| v.as_ref().map(|v| (i as u32, v)))
        .collect()
}

/// Score `queries` against `target` and return the pairs reaching
/// `threshold`. With `inverse` the queries are range values probing the
/// domain side; see the module docs for the argument-order contract.
pub(crate) fn probe<V, I, C, S>(
    par: Parallelism,
    queries: &[(u32, &V)],
    target: &Side<V, I>,
    candidates: impl Fn(&I, &V, &mut S) -> C + Sync,
    score: impl Fn(&V, &V) -> f64 + Sync,
    threshold: f64,
    inverse: bool,
) -> Vec<Correspondence>
where
    V: Sync,
    I: Sync,
    C: IntoIterator<Item = u32>,
    S: Default,
{
    let probe_chunk = |chunk: &[(u32, &V)]| -> Vec<Correspondence> {
        let mut out = Vec::new();
        let mut scratch = S::default();
        for &(q_id, q) in chunk {
            let mut visit = |t_id: u32, t: &V| {
                let (s, d_id, r_id) = if inverse {
                    (score(t, q), t_id, q_id)
                } else {
                    (score(q, t), q_id, t_id)
                };
                if s >= threshold {
                    out.push(Correspondence::new(d_id, r_id, s));
                }
            };
            match &target.index {
                Some(index) => {
                    for t_id in candidates(index, q, &mut scratch) {
                        if let Some(Some(t)) = target.vals.get(t_id as usize) {
                            visit(t_id, t);
                        }
                    }
                }
                None => {
                    for (t_id, t) in target.vals.iter().enumerate() {
                        if let Some(t) = t {
                            visit(t_id as u32, t);
                        }
                    }
                }
            }
        }
        out
    };
    par.run_sharded(queries, probe_chunk).concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    type Strs = Side<String, Vec<u32>>;

    fn side(vals: &[Option<&str>], index: Option<Vec<u32>>) -> Strs {
        Side {
            vals: vals.iter().map(|v| v.map(str::to_owned)).collect(),
            index,
        }
    }

    /// Asymmetric on purpose: swapping the arguments flips the sign.
    const LEN_DIFF: fn(&String, &String) -> f64 = |d, r| d.len() as f64 - r.len() as f64;

    fn sorted(mut rows: Vec<Correspondence>) -> Vec<Correspondence> {
        rows.sort_by_key(|c| (c.domain, c.range));
        rows
    }

    #[test]
    fn forward_and_inverse_keep_domain_range_order() {
        let domain = side(&[Some("aaaa"), Some("a")], None);
        let range = side(&[Some("aa"), Some("aaaaaa")], None);
        let all = |_: &Vec<u32>, _: &String, _: &mut ()| -> Vec<u32> { unreachable!("no index") };
        let par = Parallelism::sequential();
        // Forward: domain queries × range side.
        let fwd = probe(
            par,
            &present(&domain.vals),
            &range,
            all,
            LEN_DIFF,
            0.0,
            false,
        );
        // Inverse: range queries × domain side — same pairs, same scores,
        // rows still (domain, range).
        let inv = probe(
            par,
            &present(&range.vals),
            &domain,
            all,
            LEN_DIFF,
            0.0,
            true,
        );
        let want = vec![Correspondence::new(0, 0, 2.0)];
        assert_eq!(sorted(fwd), want);
        assert_eq!(sorted(inv), want);
    }

    #[test]
    fn holes_are_skipped_on_both_sides() {
        let domain = side(&[None, Some("x"), None], None);
        // Range id 0 is a hole the index still names; id 9 is out of range.
        let holes = [None, Some("x"), Some("y")];
        let one = |_: &String, _: &String| 1.0;
        let par = Parallelism::sequential();
        for index in [None, Some(vec![0, 1, 2, 9])] {
            let range = side(&holes, index);
            let ids = |idx: &Vec<u32>, _: &String, _: &mut ()| idx.clone();
            let fwd = probe(par, &present(&domain.vals), &range, ids, one, 1.0, false);
            assert_eq!(
                sorted(fwd),
                vec![
                    Correspondence::new(1, 1, 1.0),
                    Correspondence::new(1, 2, 1.0)
                ]
            );
        }
        let inv = probe(
            par,
            &present(&holes.map(|v| v.map(str::to_owned))),
            &domain,
            |idx: &Vec<u32>, _: &String, _: &mut ()| idx.clone(),
            one,
            1.0,
            true,
        );
        assert_eq!(
            sorted(inv),
            vec![
                Correspondence::new(1, 1, 1.0),
                Correspondence::new(1, 2, 1.0)
            ]
        );
    }

    #[test]
    fn indexed_and_all_pairs_targets_agree() {
        let words = [Some("data"), None, Some("date"), Some("schema"), Some("d")];
        let domain = side(&words, None);
        let same_initial = |d: &String, r: &String| f64::from(d.as_bytes()[0] == r.as_bytes()[0]);
        let par = Parallelism::sequential();
        let scan = probe(
            par,
            &present(&domain.vals),
            &side(&words, None),
            |idx: &Vec<u32>, _: &String, _: &mut ()| idx.clone(),
            same_initial,
            1.0,
            false,
        );
        // An "index" that prunes nothing the score would keep.
        let indexed = probe(
            par,
            &present(&domain.vals),
            &side(&words, Some(vec![4, 3, 2, 0])),
            |idx: &Vec<u32>, q: &String, _: &mut ()| -> Vec<u32> {
                idx.iter()
                    .copied()
                    .filter(|&i| words[i as usize].unwrap().as_bytes()[0] == q.as_bytes()[0])
                    .collect()
            },
            same_initial,
            1.0,
            false,
        );
        assert_eq!(scan.len(), 10);
        assert_eq!(sorted(scan), sorted(indexed));
    }

    #[test]
    fn each_shard_lends_one_scratch_to_all_its_lookups() {
        // The scratch counts the lookups it has seen; the "index"
        // answers with that count as the candidate id.
        let target = side(&[Some("a"), Some("b"), Some("c"), Some("d")], Some(vec![]));
        let run = |par: Parallelism| {
            let seen_so_far = |_: &Vec<u32>, _: &String, seen: &mut u32| {
                *seen += 1;
                vec![*seen - 1]
            };
            let queries = present(&target.vals);
            let one = |_: &String, _: &String| 1.0;
            let rows = probe(par, &queries, &target, seen_so_far, one, 1.0, false);
            sorted(rows).iter().map(|c| c.range).collect::<Vec<_>>()
        };
        assert_eq!(run(Parallelism::sequential()), [0, 1, 2, 3]);
        // Two shards of two queries: the count restarts with the shard.
        assert_eq!(
            run(Parallelism::new(2).with_min_shard_size(1)),
            [0, 1, 0, 1]
        );
    }

    #[test]
    fn thread_count_does_not_change_the_rows() {
        let words: Vec<Option<String>> = (0..40u32).map(|i| Some("a".repeat(i as usize))).collect();
        let target = Side::<String, Vec<u32>> {
            vals: words.clone(),
            index: None,
        };
        let run = |par: Parallelism| {
            probe(
                par,
                &present(&words),
                &target,
                |idx: &Vec<u32>, _: &String, _: &mut ()| idx.clone(),
                LEN_DIFF,
                5.0,
                false,
            )
        };
        let reference = run(Parallelism::sequential());
        assert!(!reference.is_empty());
        for threads in [1usize, 2, 8] {
            let rows = run(Parallelism::new(threads).with_min_shard_size(1));
            assert_eq!(rows, reference, "threads={threads}");
        }
    }
}

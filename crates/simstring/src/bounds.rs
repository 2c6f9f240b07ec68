//! Exact threshold bounds for q-gram similarity measures (the
//! SimString / CPMerge *T-occurrence* arithmetic).
//!
//! A pair of strings can only reach similarity threshold `t` under a
//! q-gram measure if (a) their gram-multiset sizes are within a window
//! computable from `t` and the query size alone, and (b) they share a
//! minimum number of grams computable from `t` and both sizes. Turning
//! the threshold into these two *pre-scoring* filters prunes candidates
//! with provably zero loss of matches — the engine behind
//! `moma_core::blocking::Blocking::Threshold`.
//!
//! All bounds are stated over gram **multisets** (the same multisets the
//! scoring functions in [`crate::ngram`] use — sizes count every padded
//! gram occurrence, intersections take `min` multiplicities). With
//! `x = |G(query)|`, `y = |G(candidate)|` and `c = |G(query) ∩ G(candidate)|`:
//!
//! | measure | similarity | min shared grams | size window for `y` |
//! |---|---|---|---|
//! | Dice | `2c/(x+y)` | `⌈t(x+y)/2⌉` | `[x·t/(2−t), x·(2−t)/t]` |
//! | Jaccard | `c/(x+y−c)` | `⌈t(x+y)/(1+t)⌉` | `[x·t, x/t]` |
//! | Cosine | `c/√(xy)` | `⌈t√(xy)⌉` | `[x·t², x/t²]` |
//! | Overlap | `c/min(x,y)` | `⌈t·min(x,y)⌉` | `[1, ∞)` |
//!
//! Each window derives from `c ≤ min(x, y)` plugged into the similarity;
//! each derivation is pinned by the exhaustive-integer property tests at
//! the bottom of this module. Bounds are computed with a tiny epsilon of
//! slack in the *keeping* direction, so IEEE rounding in the scoring path
//! can never disagree with real-valued arithmetic here: a candidate on
//! the boundary is generated (and then scored exactly) rather than
//! pruned.

use crate::registry::SimFn;

/// Slack protecting integer bounds against f64 rounding: bounds are
/// loosened by this amount so a borderline candidate is kept, never
/// dropped. Rounding error in the scoring path is ~1e-16 per operation;
/// 1e-9 dominates it for any realistic gram count.
const EPS: f64 = 1e-9;

/// The q-gram set-similarity family with exact threshold bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QgramMeasure {
    /// Dice coefficient `2c/(x+y)` — the paper's trigram metric.
    Dice,
    /// Jaccard coefficient `c/(x+y−c)`.
    Jaccard,
    /// Cosine coefficient `c/√(xy)`.
    Cosine,
    /// Overlap coefficient `c/min(x,y)`.
    Overlap,
}

impl QgramMeasure {
    /// Candidate gram-count window `[lo, hi]` for a query of gram count
    /// `query_size` at threshold `t`: any string whose similarity to the
    /// query reaches `t` has a gram count inside the window. An empty
    /// window is returned as `lo > hi` (possible for `t > 1`).
    ///
    /// `query_size` must be ≥ 1 (gramless queries can only match
    /// gramless candidates — handle that case before consulting the
    /// window) and `t` must be > 0 (at `t = 0` nothing can be pruned).
    pub fn size_window(self, t: f64, query_size: usize) -> (usize, usize) {
        debug_assert!(query_size >= 1, "size_window needs a non-empty query");
        debug_assert!(t > 0.0, "size_window needs a positive threshold");
        let x = query_size as f64;
        let (lo, hi) = match self {
            QgramMeasure::Dice => (x * t / (2.0 - t), x * (2.0 - t) / t),
            QgramMeasure::Jaccard => (x * t, x / t),
            QgramMeasure::Cosine => (x * t * t, x / (t * t)),
            QgramMeasure::Overlap => return (1, usize::MAX),
        };
        let lo = (lo - EPS).ceil().max(1.0) as usize;
        // A threshold above 1 yields hi < lo: the empty window.
        let hi = if hi.is_finite() && hi < usize::MAX as f64 {
            (hi + EPS).floor() as usize
        } else {
            usize::MAX
        };
        (lo, hi)
    }

    /// Minimum number of shared grams a candidate of gram count
    /// `cand_size` must have with a query of gram count `query_size` to
    /// possibly reach threshold `t`. Always ≥ 1 for `t > 0` (sharing no
    /// grams means similarity 0).
    pub fn min_overlap(self, t: f64, query_size: usize, cand_size: usize) -> usize {
        debug_assert!(t > 0.0, "min_overlap needs a positive threshold");
        let (x, y) = (query_size as f64, cand_size as f64);
        let c = match self {
            QgramMeasure::Dice => t * (x + y) / 2.0,
            QgramMeasure::Jaccard => t * (x + y) / (1.0 + t),
            QgramMeasure::Cosine => t * (x * y).sqrt(),
            QgramMeasure::Overlap => t * x.min(y),
        };
        ((c - EPS).ceil().max(1.0)) as usize
    }

    /// Evaluate the measure from the raw counts (shared grams `c`, sizes
    /// `x`, `y`) — exactly the arithmetic of the string-level scorers in
    /// [`crate::ngram`]. Two empty multisets are identical (1.0).
    pub fn eval_counts(self, c: usize, x: usize, y: usize) -> f64 {
        if x == 0 && y == 0 {
            return 1.0;
        }
        if x == 0 || y == 0 {
            return 0.0;
        }
        let (c, x, y) = (c as f64, x as f64, y as f64);
        match self {
            QgramMeasure::Dice => 2.0 * c / (x + y),
            QgramMeasure::Jaccard => c / (x + y - c),
            QgramMeasure::Cosine => c / (x * y).sqrt(),
            QgramMeasure::Overlap => c / x.min(y),
        }
    }
}

/// The `(measure, q)` pair a similarity function scores with, when it is
/// a pure q-gram measure — i.e. when the threshold bounds above are
/// *exact* for it. `None` for every other measure (edit distances,
/// token measures, TF-IDF, …), for which threshold pruning would lose
/// matches.
pub fn qgram_measure_of(sim: &SimFn) -> Option<(QgramMeasure, usize)> {
    match sim {
        SimFn::Trigram => Some((QgramMeasure::Dice, 3)),
        SimFn::QgramDice(q) if *q >= 1 => Some((QgramMeasure::Dice, *q)),
        SimFn::QgramJaccard(q) if *q >= 1 => Some((QgramMeasure::Jaccard, *q)),
        SimFn::QgramCosine(q) if *q >= 1 => Some((QgramMeasure::Cosine, *q)),
        SimFn::QgramOverlap(q) if *q >= 1 => Some((QgramMeasure::Overlap, *q)),
        _ => None,
    }
}

/// All four measures (report/bench iteration).
pub const ALL_MEASURES: [QgramMeasure; 4] = [
    QgramMeasure::Dice,
    QgramMeasure::Jaccard,
    QgramMeasure::Cosine,
    QgramMeasure::Overlap,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dice_window_examples() {
        // x = 10, t = 0.8: y in [10*0.8/1.2, 10*1.2/0.8] = [6.66→7, 15].
        assert_eq!(QgramMeasure::Dice.size_window(0.8, 10), (7, 15));
        // t = 1 pins the window to exactly x.
        assert_eq!(QgramMeasure::Dice.size_window(1.0, 10), (10, 10));
    }

    #[test]
    fn jaccard_window_examples() {
        assert_eq!(QgramMeasure::Jaccard.size_window(0.5, 10), (5, 20));
        assert_eq!(QgramMeasure::Jaccard.size_window(1.0, 4), (4, 4));
    }

    #[test]
    fn cosine_window_examples() {
        assert_eq!(QgramMeasure::Cosine.size_window(0.5, 8), (2, 32));
    }

    #[test]
    fn overlap_window_is_unbounded() {
        assert_eq!(QgramMeasure::Overlap.size_window(0.9, 5), (1, usize::MAX));
    }

    #[test]
    fn threshold_above_one_gives_empty_window() {
        for m in [
            QgramMeasure::Dice,
            QgramMeasure::Jaccard,
            QgramMeasure::Cosine,
        ] {
            let (lo, hi) = m.size_window(1.5, 10);
            assert!(lo > hi, "{m:?}: [{lo}, {hi}] should be empty");
        }
    }

    #[test]
    fn min_overlap_examples() {
        // Dice: c >= 0.8*(10+10)/2 = 8.
        assert_eq!(QgramMeasure::Dice.min_overlap(0.8, 10, 10), 8);
        // Jaccard: c >= 0.5*20/1.5 = 6.66 -> 7.
        assert_eq!(QgramMeasure::Jaccard.min_overlap(0.5, 10, 10), 7);
        // Overlap: c >= 0.9*min(5,50) = 4.5 -> 5.
        assert_eq!(QgramMeasure::Overlap.min_overlap(0.9, 5, 50), 5);
        // Never below 1 for positive thresholds.
        assert_eq!(QgramMeasure::Dice.min_overlap(0.01, 3, 3), 1);
    }

    #[test]
    fn simfn_mapping() {
        assert_eq!(
            qgram_measure_of(&SimFn::Trigram),
            Some((QgramMeasure::Dice, 3))
        );
        assert_eq!(
            qgram_measure_of(&SimFn::QgramDice(2)),
            Some((QgramMeasure::Dice, 2))
        );
        assert_eq!(
            qgram_measure_of(&SimFn::QgramJaccard(3)),
            Some((QgramMeasure::Jaccard, 3))
        );
        assert_eq!(
            qgram_measure_of(&SimFn::QgramCosine(3)),
            Some((QgramMeasure::Cosine, 3))
        );
        assert_eq!(
            qgram_measure_of(&SimFn::QgramOverlap(2)),
            Some((QgramMeasure::Overlap, 2))
        );
        // Degenerate q is rejected rather than handed exact bounds.
        assert_eq!(qgram_measure_of(&SimFn::QgramDice(0)), None);
        for f in [SimFn::Jaro, SimFn::Levenshtein, SimFn::TokenJaccard] {
            assert_eq!(qgram_measure_of(&f), None, "{f}");
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Exhaustive-integer soundness: for every (x, y, c) with
        /// c <= min(x, y), if the measure evaluated from counts clears
        /// the threshold then y is inside the window and c clears
        /// min_overlap. This is the no-false-dismissal guarantee at the
        /// arithmetic level, independent of any index.
        #[test]
        fn bounds_never_dismiss_a_true_match(
            x in 1usize..60,
            y in 1usize..60,
            c_frac in 0.0f64..=1.0,
            t in 0.05f64..=1.0,
        ) {
            let c = ((x.min(y) as f64) * c_frac).round() as usize;
            for m in ALL_MEASURES {
                if m.eval_counts(c, x, y) >= t {
                    let (lo, hi) = m.size_window(t, x);
                    prop_assert!(
                        (lo..=hi).contains(&y),
                        "{m:?}: y={y} outside [{lo},{hi}] for x={x} t={t}"
                    );
                    prop_assert!(
                        c >= m.min_overlap(t, x, y),
                        "{m:?}: c={c} < min_overlap for x={x} y={y} t={t}"
                    );
                }
            }
        }

        /// The bounds are symmetric: probing from either side of a pair
        /// gives consistent windows (y in window(x) iff x in window(y))
        /// and the same overlap requirement. This is what lets the delta
        /// engine probe *inversely* through a domain-side index.
        #[test]
        fn bounds_are_symmetric(
            x in 1usize..60,
            y in 1usize..60,
            t in 0.05f64..=1.0,
        ) {
            for m in ALL_MEASURES {
                let (lo_x, hi_x) = m.size_window(t, x);
                let (lo_y, hi_y) = m.size_window(t, y);
                prop_assert_eq!(
                    (lo_x..=hi_x).contains(&y),
                    (lo_y..=hi_y).contains(&x),
                    "{:?}: window asymmetry at x={} y={} t={}", m, x, y, t
                );
                prop_assert_eq!(
                    m.min_overlap(t, x, y),
                    m.min_overlap(t, y, x),
                    "{:?}: overlap asymmetry at x={} y={} t={}", m, x, y, t
                );
            }
        }

        /// min_overlap never exceeds min(x, y) when the pair can
        /// actually reach the threshold with all grams shared — i.e. the
        /// filter is satisfiable exactly when a true match is possible.
        #[test]
        fn min_overlap_satisfiable_iff_reachable(
            x in 1usize..60,
            y in 1usize..60,
            t in 0.05f64..=1.0,
        ) {
            for m in ALL_MEASURES {
                let best = m.eval_counts(x.min(y), x, y);
                let tau = m.min_overlap(t, x, y);
                if best >= t {
                    prop_assert!(tau <= x.min(y),
                        "{m:?}: unsatisfiable tau={tau} though best={best} >= t={t}");
                }
            }
        }
    }
}

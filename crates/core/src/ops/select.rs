//! Selection of correspondences (paper Section 3.3).
//!
//! Selection is the second part of every mapping combiner: it eliminates
//! less likely correspondences from a same-mapping. Supported techniques
//! mirror the paper exactly — Threshold, Best-n, Best-1+Delta (absolute or
//! relative) and object-value constraints.
//!
//! Every technique marks positions of the mapping's canonical rows and
//! emits the marked rows in order. Per-instance techniques scan runs: the
//! rows themselves are grouped by domain object, and one counting pass by
//! range id ([`IdGroups`]) groups their positions by range object.

use std::fmt;
use std::str::FromStr;

use moma_table::agg::IdGroups;
use moma_table::names::{parse_name, print_name};
use moma_table::{Correspondence, MappingTable};

use crate::mapping::Mapping;

/// Which side Best-n / Best-1+Delta operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Per domain instance.
    Domain,
    /// Per range instance.
    Range,
    /// Both: a correspondence must survive the domain-side *and* the
    /// range-side selection.
    Both,
}

impl Side {
    /// Accepted spellings (see [`crate::ops`]).
    pub const NAMES: &'static [(&'static str, Side)] = &[
        ("domain", Side::Domain),
        ("range", Side::Range),
        ("both", Side::Both),
    ];
}

impl FromStr for Side {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        parse_name(Self::NAMES, &[], "side", s)
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(print_name(Self::NAMES, self))
    }
}

/// A selection technique.
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// Keep correspondences with `sim >= threshold`.
    Threshold(f64),
    /// Keep the `n` highest-similarity correspondences per instance.
    BestN {
        /// How many correspondences to keep.
        n: usize,
        /// Which side the per-instance grouping uses.
        side: Side,
    },
    /// Keep the best correspondence per instance plus all within `delta`
    /// of it (absolute: `sim >= best - delta`; relative:
    /// `sim >= best * (1 - delta)`).
    Best1Delta {
        /// Tolerance below the best similarity.
        delta: f64,
        /// Interpret `delta` relative to the best value.
        relative: bool,
        /// Which side the per-instance grouping uses.
        side: Side,
    },
}

impl Selection {
    /// Convenience: plain Best-1 per domain instance.
    pub fn best1() -> Self {
        Selection::BestN {
            n: 1,
            side: Side::Domain,
        }
    }
}

/// Apply a selection to a mapping.
pub fn select(mapping: &Mapping, sel: &Selection) -> Mapping {
    let rows = mapping.table.canonical();
    let sim = |i: u32| rows[i as usize].sim;
    let keep: Vec<bool> = match sel {
        Selection::Threshold(t) => rows.iter().map(|c| c.sim >= *t).collect(),
        Selection::BestN { n, side } => keep_per_instance(&rows, *side, |run, keep| {
            // Similarity descending; the sort is stable, so ties stay in
            // the run's order — lower other id first.
            if run.len() > *n {
                run.sort_by(|&i, &j| {
                    sim(j)
                        .partial_cmp(&sim(i))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            }
            run.iter().take(*n).for_each(|&i| keep[i as usize] = true);
        }),
        Selection::Best1Delta {
            delta,
            relative,
            side,
        } => keep_per_instance(&rows, *side, |run, keep| {
            let best = run
                .iter()
                .map(|&i| sim(i))
                .fold(f64::NEG_INFINITY, f64::max);
            let cutoff = if *relative {
                best * (1.0 - delta)
            } else {
                best - delta
            };
            for &i in run.iter().filter(|&&i| sim(i) >= cutoff) {
                keep[i as usize] = true;
            }
        }),
    };
    let kept = rows.iter().zip(keep).filter(|(_, k)| *k).map(|(c, _)| c);
    selected(mapping, kept)
}

/// Keep only correspondences satisfying an object-value predicate.
///
/// The predicate receives `(domain index, range index, sim)`; callers
/// capture whatever instance context they need (e.g. a registry for the
/// paper's "publication years must not differ by more than one year"
/// constraint, or `[domain.id]<>[range.id]` for non-identity in duplicate
/// detection).
pub fn select_constraint(
    mapping: &Mapping,
    mut pred: impl FnMut(u32, u32, f64) -> bool,
) -> Mapping {
    let rows = mapping.table.canonical();
    let kept = rows.iter().filter(|c| pred(c.domain, c.range, c.sim));
    selected(mapping, kept)
}

/// The selection result holding `kept` — canonical rows of `mapping`, in
/// order.
fn selected<'a>(mapping: &Mapping, kept: impl Iterator<Item = &'a Correspondence>) -> Mapping {
    let mut table = MappingTable::new();
    kept.for_each(|c| table.push(c.domain, c.range, c.sim));
    Mapping {
        name: format!("select({})", mapping.name),
        kind: mapping.kind.clone(),
        domain: mapping.domain,
        range: mapping.range,
        table,
    }
}

/// Mark the positions of `rows` (canonical) that `rule` keeps, run by run,
/// on the domain side, the range side, or both (intersection). `rule`
/// gets one instance's row positions, ascending by the other object's id,
/// and may reorder them.
fn keep_per_instance(
    rows: &[Correspondence],
    side: Side,
    rule: impl Fn(&mut [u32], &mut [bool]),
) -> Vec<bool> {
    let mark = |by_domain: bool| {
        let mut keep = vec![false; rows.len()];
        if by_domain {
            let mut order: Vec<u32> = (0..rows.len() as u32).collect();
            let domain = |i: &u32| rows[*i as usize].domain;
            for run in order.chunk_by_mut(|i, j| domain(i) == domain(j)) {
                rule(run, &mut keep);
            }
        } else {
            let ranges = rows.iter().map(|c| c.range);
            let groups = IdGroups::count(ranges.clone());
            let mut order = groups.positions(ranges);
            for (_, span) in groups.spans() {
                rule(&mut order[span], &mut keep);
            }
        }
        keep
    };
    match side {
        Side::Domain => mark(true),
        Side::Range => mark(false),
        Side::Both => {
            let (d, r) = (mark(true), mark(false));
            d.iter().zip(r).map(|(d, r)| *d && r).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use moma_model::LdsId;

    fn mapping() -> Mapping {
        Mapping::same(
            "m",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([
                (1, 10, 0.9),
                (1, 11, 0.85),
                (1, 12, 0.3),
                (2, 10, 0.7),
                (2, 13, 0.6),
                (3, 14, 0.95),
            ]),
        )
    }

    #[test]
    fn threshold() {
        let r = select(&mapping(), &Selection::Threshold(0.8));
        assert_eq!(r.len(), 3);
        assert!(r.table.iter().all(|c| c.sim >= 0.8));
    }

    #[test]
    fn threshold_keeps_equal() {
        let r = select(&mapping(), &Selection::Threshold(0.95));
        assert_eq!(r.len(), 1);
        assert_eq!(r.table.sim_of(3, 14), Some(0.95));
    }

    #[test]
    fn best1_per_domain() {
        let r = select(&mapping(), &Selection::best1());
        assert_eq!(r.len(), 3);
        assert_eq!(r.table.sim_of(1, 10), Some(0.9));
        assert_eq!(r.table.sim_of(2, 10), Some(0.7));
        assert_eq!(r.table.sim_of(3, 14), Some(0.95));
    }

    #[test]
    fn best2_per_domain() {
        let r = select(
            &mapping(),
            &Selection::BestN {
                n: 2,
                side: Side::Domain,
            },
        );
        assert_eq!(r.len(), 5);
        assert_eq!(r.table.sim_of(1, 12), None);
    }

    #[test]
    fn best1_per_range() {
        let r = select(
            &mapping(),
            &Selection::BestN {
                n: 1,
                side: Side::Range,
            },
        );
        // Range 10 is claimed by domain 1 (0.9 > 0.7).
        assert_eq!(r.table.sim_of(1, 10), Some(0.9));
        assert_eq!(r.table.sim_of(2, 10), None);
        // Ranges 11..14 keep their single correspondence.
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn best1_both_is_stable_marriage_like() {
        let r = select(
            &mapping(),
            &Selection::BestN {
                n: 1,
                side: Side::Both,
            },
        );
        // (1,10) best for both sides; (2,10) loses range competition;
        // (2,13) is 2's second choice so not in domain top-1.
        assert_eq!(r.table.sim_of(1, 10), Some(0.9));
        assert_eq!(r.table.sim_of(2, 10), None);
        assert_eq!(r.table.sim_of(3, 14), Some(0.95));
        // (2,13): domain top-1 of 2 is (2,10), so excluded.
        assert_eq!(r.table.sim_of(2, 13), None);
    }

    #[test]
    fn best1_delta_absolute() {
        let r = select(
            &mapping(),
            &Selection::Best1Delta {
                delta: 0.05,
                relative: false,
                side: Side::Domain,
            },
        );
        // Domain 1: best 0.9, cutoff 0.85 -> keeps (1,10) and (1,11).
        assert_eq!(r.table.sim_of(1, 10), Some(0.9));
        assert_eq!(r.table.sim_of(1, 11), Some(0.85));
        assert_eq!(r.table.sim_of(1, 12), None);
        // Domain 2: best 0.7, cutoff 0.65 -> only (2,10).
        assert_eq!(r.table.sim_of(2, 13), None);
    }

    #[test]
    fn best1_delta_relative() {
        let r = select(
            &mapping(),
            &Selection::Best1Delta {
                delta: 0.2,
                relative: true,
                side: Side::Domain,
            },
        );
        // Domain 2: best 0.7, cutoff 0.56 -> keeps both (2,10) and (2,13).
        assert_eq!(r.table.sim_of(2, 10), Some(0.7));
        assert_eq!(r.table.sim_of(2, 13), Some(0.6));
    }

    #[test]
    fn constraint_selection() {
        // The Section 4.3 non-identity constraint `[domain.id]<>[range.id]`.
        let m = Mapping::same(
            "self",
            LdsId(0),
            LdsId(0),
            MappingTable::from_triples([(1, 1, 1.0), (1, 2, 0.8), (2, 1, 0.8)]),
        );
        let r = select_constraint(&m, |d, rng, _| d != rng);
        assert_eq!(r.len(), 2);
        assert_eq!(r.table.sim_of(1, 1), None);
    }

    #[test]
    fn empty_mapping_selects_empty() {
        let m = Mapping::same("e", LdsId(0), LdsId(1), MappingTable::new());
        for sel in [
            Selection::Threshold(0.5),
            Selection::best1(),
            Selection::Best1Delta {
                delta: 0.1,
                relative: false,
                side: Side::Range,
            },
        ] {
            assert!(select(&m, &sel).is_empty());
        }
    }

    #[test]
    fn best_n_tie_break_deterministic() {
        let m = Mapping::same(
            "t",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(1, 5, 0.8), (1, 4, 0.8), (1, 6, 0.8)]),
        );
        let r = select(&m, &Selection::best1());
        assert_eq!(r.len(), 1);
        // Lowest range id wins the tie.
        assert_eq!(r.table.sim_of(1, 4), Some(0.8));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::mapping::Mapping;
    use moma_model::LdsId;
    use proptest::prelude::*;

    fn arb_mapping() -> impl Strategy<Value = Mapping> {
        prop::collection::vec((0u32..12, 0u32..12, 0.0f64..=1.0), 0..50).prop_map(|rows| {
            Mapping::same("m", LdsId(0), LdsId(1), MappingTable::from_triples(rows))
        })
    }

    proptest! {
        #[test]
        fn selection_yields_subset(m in arb_mapping(), t in 0.0f64..=1.0, n in 1usize..4) {
            let pairs = m.table.pair_set();
            for sel in [
                Selection::Threshold(t),
                Selection::BestN { n, side: Side::Domain },
                Selection::BestN { n, side: Side::Range },
                Selection::BestN { n, side: Side::Both },
                Selection::Best1Delta { delta: t / 2.0, relative: false, side: Side::Domain },
                Selection::Best1Delta { delta: t / 2.0, relative: true, side: Side::Range },
            ] {
                let r = select(&m, &sel);
                for c in r.table.iter() {
                    prop_assert!(pairs.contains(&(c.domain, c.range)));
                    let orig = m.table.sim_of(c.domain, c.range).unwrap();
                    prop_assert!((orig - c.sim).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn threshold_monotone(m in arb_mapping(), t1 in 0.0f64..=1.0, t2 in 0.0f64..=1.0) {
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let r_lo = select(&m, &Selection::Threshold(lo));
            let r_hi = select(&m, &Selection::Threshold(hi));
            prop_assert!(r_hi.len() <= r_lo.len());
            let lo_pairs = r_lo.table.pair_set();
            for c in r_hi.table.iter() {
                prop_assert!(lo_pairs.contains(&(c.domain, c.range)));
            }
        }

        #[test]
        fn best_n_respects_limit(m in arb_mapping(), n in 1usize..4) {
            let r = select(&m, &Selection::BestN { n, side: Side::Domain });
            for (_, deg) in r.table.domain_degrees() {
                prop_assert!(deg as usize <= n);
            }
            let r2 = select(&m, &Selection::BestN { n, side: Side::Range });
            for (_, deg) in r2.table.range_degrees() {
                prop_assert!(deg as usize <= n);
            }
        }

        #[test]
        fn best_n_covers_every_instance(m in arb_mapping()) {
            // Best-n never removes *all* correspondences of an instance.
            let r = select(&m, &Selection::best1());
            prop_assert_eq!(r.table.distinct_domains(), m.table.distinct_domains());
        }

        #[test]
        fn best1_delta_includes_best(m in arb_mapping(), d in 0.0f64..0.5) {
            let r = select(&m, &Selection::Best1Delta { delta: d, relative: false, side: Side::Domain });
            // Every domain instance retains its top correspondence.
            let before = m.table.domain_degrees();
            prop_assert_eq!(r.table.domain_degrees().len(), before.len());
        }

        #[test]
        fn selection_idempotent(m in arb_mapping(), n in 1usize..4) {
            let sel = Selection::BestN { n, side: Side::Domain };
            let once = select(&m, &sel);
            let twice = select(&once, &sel);
            prop_assert_eq!(once.table.pair_set(), twice.table.pair_set());
        }
    }
}

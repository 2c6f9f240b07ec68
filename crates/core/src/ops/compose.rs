//! The compose operator (paper Section 3.2).
//!
//! Given `map1 : LDS_A → LDS_C` and `map2 : LDS_C → LDS_B`, the composed
//! mapping relates `LDS_A` and `LDS_B`. Each compose path `(a, c_i, b)`
//! contributes `f(s_i1, s_i2)`; the similarities of all paths reaching the
//! same `(a, b)` are reduced by an aggregation function `g`. The Relative
//! family divides the path-similarity sum `s(a,b)` by correspondence
//! counts `n(a)` (left), `n(b)` (right), or their combination (Figure 5):
//!
//! ```text
//! RelativeLeft  = s(a,b) / n(a)
//! RelativeRight = s(a,b) / n(b)
//! Relative      = 2·s(a,b) / (n(a) + n(b))
//! ```
//!
//! rewarding correspondences supported by many compose paths — the key to
//! the neighborhood matcher.
//!
//! The operator is one sequential loop over the domain groups (runs) of
//! `map1`'s canonical rows: probe `map2`'s [`Adjacency`] with each row of
//! the group, stable-sort the group's `(b, f(s1, s2))` paths by `b`, fold
//! each run into [`PathStats`]. `n(a)` is the group length and the output
//! rows come out in canonical order. [`compose_with`] is an alias kept
//! only because the frozen benchmark calls it.

use std::fmt;
use std::str::FromStr;

use moma_table::agg::PathStats;
use moma_table::{Adjacency, FxHashMap, MappingTable};

use crate::error::{CoreError, Result};
use crate::exec::Parallelism;
use crate::mapping::{Mapping, MappingKind};
use crate::ops::{name_param, parse_name, print_name};

/// Per-path combination function `f` over `(s1, s2)` (same menu as merge).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathCombine {
    /// Mean of the two path similarities.
    Avg,
    /// Minimum — the paper's default in all workflows.
    Min,
    /// Maximum.
    Max,
    /// Product (useful as a "both steps must hold" semantics).
    Product,
    /// Weighted mean with weight `w` on the first similarity.
    Weighted(f64),
}

impl PathCombine {
    fn apply(self, s1: f64, s2: f64) -> f64 {
        match self {
            PathCombine::Avg => (s1 + s2) / 2.0,
            PathCombine::Min => s1.min(s2),
            PathCombine::Max => s1.max(s2),
            PathCombine::Product => s1 * s2,
            PathCombine::Weighted(w) => w * s1 + (1.0 - w) * s2,
        }
    }
}

impl PathCombine {
    /// Accepted spellings of the unit values (see [`crate::ops`]);
    /// `weighted:W` spells [`PathCombine::Weighted`].
    pub const NAMES: &'static [(&'static str, PathCombine)] = &[
        ("avg", PathCombine::Avg),
        ("average", PathCombine::Avg),
        ("min", PathCombine::Min),
        ("max", PathCombine::Max),
        ("product", PathCombine::Product),
    ];
}

impl FromStr for PathCombine {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match name_param(s, "weighted") {
            Some(w) => match w.parse() {
                Ok(w) => Ok(PathCombine::Weighted(w)),
                Err(e) => Err(format!("weighted:{w}: {e}")),
            },
            None => parse_name(Self::NAMES, &["weighted:W"], "path combine", s),
        }
    }
}

impl fmt::Display for PathCombine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `f64`'s `Display` is shortest-round-trip, so parsing
            // recovers the exact weight.
            PathCombine::Weighted(w) => write!(f, "weighted:{w}"),
            unit => f.write_str(print_name(Self::NAMES, unit)),
        }
    }
}

/// Aggregation function `g` over all compose paths of a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathAgg {
    /// Mean path similarity.
    Avg,
    /// Minimum path similarity.
    Min,
    /// Maximum path similarity.
    Max,
    /// `s(a,b) / n(a)` — robust when the *right* mapping is incomplete
    /// (used for DBLP→GS matching where GS author lists are truncated,
    /// paper Section 5.4.3).
    RelativeLeft,
    /// `s(a,b) / n(b)`.
    RelativeRight,
    /// `2·s(a,b) / (n(a)+n(b))` — harmonic mean of left and right.
    Relative,
}

impl PathAgg {
    /// Accepted spellings (see [`crate::ops`]).
    pub const NAMES: &'static [(&'static str, PathAgg)] = &[
        ("avg", PathAgg::Avg),
        ("average", PathAgg::Avg),
        ("min", PathAgg::Min),
        ("max", PathAgg::Max),
        ("relative", PathAgg::Relative),
        ("relative-left", PathAgg::RelativeLeft),
        ("relativeleft", PathAgg::RelativeLeft),
        ("relative-right", PathAgg::RelativeRight),
        ("relativeright", PathAgg::RelativeRight),
    ];
}

impl FromStr for PathAgg {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        parse_name(Self::NAMES, &[], "path aggregation", s)
    }
}

impl fmt::Display for PathAgg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(print_name(Self::NAMES, self))
    }
}

/// Compose `map1 : A → C` with `map2 : C → B`.
///
/// The output is a same-mapping iff both inputs are same-mappings;
/// otherwise an association mapping labelled with both type names.
pub fn compose(map1: &Mapping, map2: &Mapping, f: PathCombine, g: PathAgg) -> Result<Mapping> {
    if map1.range != map2.domain {
        return Err(CoreError::Incompatible(format!(
            "compose requires map1.range == map2.domain; `{}` ends at {} but `{}` starts at {}",
            map1.name, map1.range.0, map2.name, map2.domain.0
        )));
    }
    if let PathCombine::Weighted(w) = f {
        if !(0.0..=1.0).contains(&w) {
            return Err(CoreError::InvalidConfig(format!(
                "weighted path combine weight {w} outside [0,1]"
            )));
        }
    }

    let right = Adjacency::over_domain(&map2.table);
    // n(b): correspondences per range object in map2 (Figure 5); n(a),
    // correspondences per domain object in map1, is the group length.
    let mut n_b: FxHashMap<u32, u32> = FxHashMap::default();
    for c in map2.table.canonical().iter() {
        *n_b.entry(c.range).or_insert(0) += 1;
    }

    let mut table = MappingTable::new();
    let mut paths: Vec<(u32, f64)> = Vec::new();
    for group in map1.table.canonical().chunk_by(|x, y| x.domain == y.domain) {
        let (a, n_a) = (group[0].domain, group.len() as u32);
        paths.clear();
        for l in group {
            let reached = right.neighbors(l.range).iter();
            paths.extend(reached.map(|&(b, s2)| (b, f.apply(l.sim, s2))));
        }
        // Stable: the paths of a pair stay in ascending intermediate-id
        // order, which fixes the rounding of their sum.
        paths.sort_by_key(|&(b, _)| b);
        for run in paths.chunk_by(|x, y| x.0 == y.0) {
            let b = run[0].0;
            let mut st = PathStats::one(run[0].1);
            run[1..].iter().for_each(|&(_, s)| st.add(s));
            let s = match g {
                PathAgg::Avg => st.avg(),
                PathAgg::Min => st.min,
                PathAgg::Max => st.max,
                PathAgg::RelativeLeft => st.sum / n_a as f64,
                PathAgg::RelativeRight => st.sum / n_b[&b] as f64,
                PathAgg::Relative => 2.0 * st.sum / (n_a + n_b[&b]) as f64,
            };
            table.push(a, b, s.clamp(0.0, 1.0));
        }
    }

    let kind = match (&map1.kind, &map2.kind) {
        (MappingKind::Same, MappingKind::Same) => MappingKind::Same,
        (k1, k2) => {
            let t1 = match k1 {
                MappingKind::Same => "same",
                MappingKind::Association(t) => t.as_str(),
            };
            let t2 = match k2 {
                MappingKind::Same => "same",
                MappingKind::Association(t) => t.as_str(),
            };
            MappingKind::Association(format!("{t1} ∘ {t2}"))
        }
    };

    Ok(Mapping {
        name: format!("compose({}, {})", map1.name, map2.name),
        kind,
        domain: map1.domain,
        range: map2.range,
        table,
    })
}

/// Alias of [`compose`]; `_par` is unused. Operators are sequential —
/// sharding the compose loop over domain groups measured 0.92–1.00× at two
/// threads (`exec.par_speedup` on the `workflow_ops` benchmark workload) —
/// and the name survives only because the frozen benchmark calls it.
pub fn compose_with(
    map1: &Mapping,
    map2: &Mapping,
    f: PathCombine,
    g: PathAgg,
    _par: &Parallelism,
) -> Result<Mapping> {
    compose(map1, map2, f, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_model::LdsId;

    /// The exact inputs of paper Figure 6. Venues v1=1, v2=2; publications
    /// p1=101, p2=102, p3=103; target venues v'1=11, v'2=12.
    fn fig6() -> (Mapping, Mapping) {
        let map1 = Mapping::association(
            "map1",
            "publications of venue",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([
                (1, 101, 1.0),
                (1, 102, 1.0),
                (1, 103, 0.6),
                (2, 102, 0.6),
                (2, 103, 1.0),
            ]),
        );
        let map2 = Mapping::association(
            "map2",
            "venue of publication",
            LdsId(1),
            LdsId(2),
            MappingTable::from_triples([(101, 11, 1.0), (102, 11, 1.0), (103, 12, 1.0)]),
        );
        (map1, map2)
    }

    #[test]
    fn fig6_min_relative() {
        let (m1, m2) = fig6();
        let r = compose(&m1, &m2, PathCombine::Min, PathAgg::Relative).unwrap();
        assert_eq!(r.len(), 4);
        // Paper results: (v1,v'1)=0.8, (v1,v'2)=0.3, (v2,v'1)=0.3, (v2,v'2)=0.67.
        assert!((r.table.sim_of(1, 11).unwrap() - 0.8).abs() < 1e-12);
        assert!((r.table.sim_of(1, 12).unwrap() - 0.3).abs() < 1e-12);
        assert!((r.table.sim_of(2, 11).unwrap() - 0.3).abs() < 1e-12);
        assert!((r.table.sim_of(2, 12).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fig6_relative_prefers_multi_path() {
        let (m1, m2) = fig6();
        let r = compose(&m1, &m2, PathCombine::Min, PathAgg::Relative).unwrap();
        // (v1,v'1) supported by 2 paths beats (v1,v'2) with 1 path.
        assert!(r.table.sim_of(1, 11).unwrap() > r.table.sim_of(1, 12).unwrap());
    }

    #[test]
    fn relative_left_and_right() {
        let (m1, m2) = fig6();
        let rl = compose(&m1, &m2, PathCombine::Min, PathAgg::RelativeLeft).unwrap();
        // (v1,v'1): sum=2, n(v1)=3 -> 2/3.
        assert!((rl.table.sim_of(1, 11).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        let rr = compose(&m1, &m2, PathCombine::Min, PathAgg::RelativeRight).unwrap();
        // (v1,v'1): sum=2, n(v'1)=2 -> 1.0.
        assert!((rr.table.sim_of(1, 11).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_is_harmonic_mean_of_left_right() {
        let (m1, m2) = fig6();
        let rl = compose(&m1, &m2, PathCombine::Min, PathAgg::RelativeLeft).unwrap();
        let rr = compose(&m1, &m2, PathCombine::Min, PathAgg::RelativeRight).unwrap();
        let re = compose(&m1, &m2, PathCombine::Min, PathAgg::Relative).unwrap();
        for c in re.table.iter() {
            let l = rl.table.sim_of(c.domain, c.range).unwrap();
            let r = rr.table.sim_of(c.domain, c.range).unwrap();
            let harmonic = 2.0 * l * r / (l + r);
            assert!(
                (c.sim - harmonic).abs() < 1e-9,
                "pair ({},{})",
                c.domain,
                c.range
            );
        }
    }

    #[test]
    fn min_max_avg_aggregation() {
        let (m1, m2) = fig6();
        let rmin = compose(&m1, &m2, PathCombine::Min, PathAgg::Min).unwrap();
        let rmax = compose(&m1, &m2, PathCombine::Min, PathAgg::Max).unwrap();
        let ravg = compose(&m1, &m2, PathCombine::Min, PathAgg::Avg).unwrap();
        // (v1, v'1) has two paths both with sim 1.
        assert_eq!(rmin.table.sim_of(1, 11), Some(1.0));
        assert_eq!(rmax.table.sim_of(1, 11), Some(1.0));
        assert_eq!(ravg.table.sim_of(1, 11), Some(1.0));
        for c in rmin.table.iter() {
            assert!(c.sim <= rmax.table.sim_of(c.domain, c.range).unwrap() + 1e-12);
        }
    }

    #[test]
    fn path_combine_functions() {
        assert_eq!(PathCombine::Avg.apply(0.4, 0.8), 0.6000000000000001);
        assert_eq!(PathCombine::Min.apply(0.4, 0.8), 0.4);
        assert_eq!(PathCombine::Max.apply(0.4, 0.8), 0.8);
        assert!((PathCombine::Product.apply(0.5, 0.5) - 0.25).abs() < 1e-12);
        assert!((PathCombine::Weighted(0.75).apply(1.0, 0.0) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn compose_with_identity_preserves_pairs() {
        let (m1, _) = fig6();
        // Identity over the publication LDS (ids up to 103).
        let id = Mapping::identity(LdsId(1), 104);
        let r = compose(&m1, &id, PathCombine::Min, PathAgg::Max).unwrap();
        assert_eq!(r.table.pair_set(), m1.table.pair_set());
        for c in m1.table.iter() {
            assert!((r.table.sim_of(c.domain, c.range).unwrap() - c.sim).abs() < 1e-12);
        }
    }

    #[test]
    fn compose_with_is_compose() {
        let (m1, m2) = fig6();
        let par = Parallelism::new(8).with_min_shard_size(1);
        let aliased = compose_with(&m1, &m2, PathCombine::Min, PathAgg::Relative, &par).unwrap();
        let direct = compose(&m1, &m2, PathCombine::Min, PathAgg::Relative).unwrap();
        assert_eq!(aliased, direct);
    }

    #[test]
    fn incompatible_sources_rejected() {
        let (m1, _) = fig6();
        let wrong = Mapping::same("w", LdsId(5), LdsId(6), MappingTable::new());
        assert!(matches!(
            compose(&m1, &wrong, PathCombine::Min, PathAgg::Relative),
            Err(CoreError::Incompatible(_))
        ));
    }

    #[test]
    fn invalid_weight_rejected() {
        let (m1, m2) = fig6();
        assert!(matches!(
            compose(&m1, &m2, PathCombine::Weighted(1.5), PathAgg::Avg),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn same_kind_propagation() {
        let s1 = Mapping::same(
            "s1",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 1.0)]),
        );
        let s2 = Mapping::same(
            "s2",
            LdsId(1),
            LdsId(2),
            MappingTable::from_triples([(0, 0, 1.0)]),
        );
        let r = compose(&s1, &s2, PathCombine::Min, PathAgg::Max).unwrap();
        assert!(r.kind.is_same());
        let (a1, a2) = fig6();
        let r2 = compose(&a1, &a2, PathCombine::Min, PathAgg::Relative).unwrap();
        assert!(!r2.kind.is_same());
    }

    #[test]
    fn empty_compose() {
        let e1 = Mapping::same("e1", LdsId(0), LdsId(1), MappingTable::new());
        let e2 = Mapping::same("e2", LdsId(1), LdsId(2), MappingTable::new());
        let r = compose(&e1, &e2, PathCombine::Min, PathAgg::Relative).unwrap();
        assert!(r.is_empty());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use moma_model::LdsId;
    use proptest::prelude::*;

    fn arb_mapping(
        d: LdsId,
        r: LdsId,
        max_key: u32,
        max_rows: usize,
    ) -> impl Strategy<Value = Mapping> {
        prop::collection::vec((0..max_key, 0..max_key, 0.01f64..=1.0), 0..max_rows)
            .prop_map(move |rows| Mapping::same("m", d, r, MappingTable::from_triples(rows)))
    }

    proptest! {
        #[test]
        fn compose_sims_in_range(
            m1 in arb_mapping(LdsId(0), LdsId(1), 16, 40),
            m2 in arb_mapping(LdsId(1), LdsId(2), 16, 40),
        ) {
            for f in [PathCombine::Avg, PathCombine::Min, PathCombine::Max, PathCombine::Product] {
                for g in [PathAgg::Avg, PathAgg::Min, PathAgg::Max,
                          PathAgg::RelativeLeft, PathAgg::RelativeRight, PathAgg::Relative] {
                    let r = compose(&m1, &m2, f, g).unwrap();
                    prop_assert!(r.sims_valid(), "f={f:?} g={g:?}");
                }
            }
        }

        #[test]
        fn output_pairs_have_witnesses(
            m1 in arb_mapping(LdsId(0), LdsId(1), 12, 30),
            m2 in arb_mapping(LdsId(1), LdsId(2), 12, 30),
        ) {
            let r = compose(&m1, &m2, PathCombine::Min, PathAgg::Relative).unwrap();
            for c in r.table.iter() {
                let has_witness = m1.table.iter().any(|x| {
                    x.domain == c.domain
                        && m2.table.iter().any(|y| y.domain == x.range && y.range == c.range)
                });
                prop_assert!(has_witness);
            }
        }

        #[test]
        fn relative_bounded_by_max_agg(
            m1 in arb_mapping(LdsId(0), LdsId(1), 12, 30),
            m2 in arb_mapping(LdsId(1), LdsId(2), 12, 30),
        ) {
            // Relative <= 1 always and RelativeLeft*n(a) == sum == avg*count.
            let rel = compose(&m1, &m2, PathCombine::Min, PathAgg::Relative).unwrap();
            for c in rel.table.iter() {
                prop_assert!(c.sim <= 1.0 + 1e-12);
            }
        }

        #[test]
        fn compose_inverse_duality(
            m1 in arb_mapping(LdsId(0), LdsId(1), 12, 30),
            m2 in arb_mapping(LdsId(1), LdsId(2), 12, 30),
        ) {
            // (m1 ∘ m2)⁻¹ == m2⁻¹ ∘ m1⁻¹ for symmetric f and g.
            let lhs = compose(&m1, &m2, PathCombine::Min, PathAgg::Relative).unwrap().inverse();
            let rhs = compose(&m2.inverse(), &m1.inverse(), PathCombine::Min, PathAgg::Relative)
                .unwrap();
            prop_assert_eq!(lhs.table.pair_set(), rhs.table.pair_set());
            for c in lhs.table.iter() {
                let s = rhs.table.sim_of(c.domain, c.range).unwrap();
                prop_assert!((s - c.sim).abs() < 1e-9);
            }
        }
    }
}

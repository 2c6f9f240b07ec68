//! The n-ary merge operator (paper Section 3.1).
//!
//! Merge unifies the correspondences of `n` mappings between the same two
//! sources. A combination function determines the output similarity from
//! the per-input similarities; missing correspondences are either ignored
//! (default — lets incomplete mappings contribute recall without dragging
//! down others) or treated as similarity 0 (precision-oriented; `Min`
//! with zero-fill is exactly mapping intersection).

use std::fmt;
use std::str::FromStr;

use moma_table::agg::cogroup;
use moma_table::MappingTable;

use crate::error::{CoreError, Result};
use crate::mapping::{Mapping, MappingKind};
use crate::ops::{name_param, parse_name, print_name};

/// Combination function for merge (paper: Avg / Min / Max / Weighted /
/// PreferMap).
#[derive(Debug, Clone, PartialEq)]
pub enum MergeFn {
    /// Arithmetic mean of input similarities.
    Avg,
    /// Minimum of input similarities.
    Min,
    /// Maximum of input similarities.
    Max,
    /// Weighted average; one weight per input mapping.
    Weighted(Vec<f64>),
    /// Prefer input `i`: keep all its correspondences, add others (max
    /// similarity per pair) only for domain objects it does not cover.
    Prefer(usize),
}

/// Treatment of correspondences missing from some inputs
/// (paper Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingPolicy {
    /// Ignore missing inputs: combine only available similarity values.
    Ignore,
    /// Assume similarity 0 for missing inputs (`Min-0`, `Avg-0`, …).
    Zero,
}

impl MergeFn {
    /// Accepted spellings of the unit values (see [`crate::ops`]);
    /// `weighted:W1,W2,…` spells [`MergeFn::Weighted`] and `prefer:I`
    /// (0-based) [`MergeFn::Prefer`].
    pub const NAMES: &'static [(&'static str, MergeFn)] = &[
        ("avg", MergeFn::Avg),
        ("average", MergeFn::Avg),
        ("min", MergeFn::Min),
        ("max", MergeFn::Max),
    ];
}

impl FromStr for MergeFn {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        if let Some(ws) = name_param(s, "weighted") {
            let ws: std::result::Result<Vec<f64>, _> = ws.split(',').map(str::parse).collect();
            return match ws {
                Ok(ws) => Ok(MergeFn::Weighted(ws)),
                Err(e) => Err(format!("{s}: {e}")),
            };
        }
        if let Some(i) = name_param(s, "prefer") {
            return match i.parse() {
                Ok(i) => Ok(MergeFn::Prefer(i)),
                Err(e) => Err(format!("{s}: {e}")),
            };
        }
        let forms = ["weighted:W1,W2,…", "prefer:I"];
        parse_name(Self::NAMES, &forms, "merge function", s)
    }
}

impl fmt::Display for MergeFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeFn::Weighted(ws) => {
                let ws: Vec<String> = ws.iter().map(f64::to_string).collect();
                write!(f, "weighted:{}", ws.join(","))
            }
            MergeFn::Prefer(i) => write!(f, "prefer:{i}"),
            unit => f.write_str(print_name(Self::NAMES, unit)),
        }
    }
}

impl MissingPolicy {
    /// Accepted spellings (see [`crate::ops`]).
    pub const NAMES: &'static [(&'static str, MissingPolicy)] = &[
        ("ignore", MissingPolicy::Ignore),
        ("zero", MissingPolicy::Zero),
    ];
}

impl FromStr for MissingPolicy {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        parse_name(Self::NAMES, &[], "merge option", s)
    }
}

impl fmt::Display for MissingPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(print_name(Self::NAMES, self))
    }
}

/// Merge `inputs` with combination function `f` under `missing` policy.
///
/// All inputs must connect the same domain and range LDS. The output kind
/// is `Same` iff all inputs are same-mappings.
pub fn merge(inputs: &[&Mapping], f: MergeFn, missing: MissingPolicy) -> Result<Mapping> {
    if inputs.is_empty() {
        return Err(CoreError::EmptyInput("merge".into()));
    }
    let (domain, range) = (inputs[0].domain, inputs[0].range);
    for m in inputs {
        if m.domain != domain || m.range != range {
            return Err(CoreError::Incompatible(format!(
                "merge inputs must share sources; `{}` connects ({}, {}) not ({}, {})",
                m.name, m.domain.0, m.range.0, domain.0, range.0
            )));
        }
    }
    if let MergeFn::Weighted(w) = &f {
        if w.len() != inputs.len() {
            return Err(CoreError::InvalidConfig(format!(
                "weighted merge needs {} weights, got {}",
                inputs.len(),
                w.len()
            )));
        }
        if w.iter().any(|x| *x < 0.0) || w.iter().sum::<f64>() <= 0.0 {
            return Err(CoreError::InvalidConfig(
                "weighted merge weights must be non-negative with positive sum".into(),
            ));
        }
    }
    let tables: Vec<&MappingTable> = inputs.iter().map(|m| &m.table).collect();
    if let MergeFn::Prefer(i) = f {
        if i >= inputs.len() {
            return Err(CoreError::InvalidConfig(format!(
                "prefer index {i} out of range for {} inputs",
                inputs.len()
            )));
        }
        return Ok(finish(inputs, prefer(&tables, i)));
    }

    // One co-scan gathers each pair's similarity vector (one slot per
    // input) and emits the combined rows in canonical order.
    let mut table = MappingTable::new();
    cogroup(&tables, |a, b, sims| {
        if let Some(s) = combine(&f, missing, sims) {
            table.push(a, b, s);
        }
    });
    Ok(finish(inputs, table))
}

/// Combine one pair's per-input similarities; `None` drops the pair.
fn combine(f: &MergeFn, missing: MissingPolicy, sims: &[Option<f64>]) -> Option<f64> {
    let present = sims.iter().flatten().count();
    debug_assert!(present > 0, "pair gathered without any similarity");
    match (f, missing) {
        (MergeFn::Avg, MissingPolicy::Ignore) => {
            Some(sims.iter().flatten().sum::<f64>() / present as f64)
        }
        (MergeFn::Avg, MissingPolicy::Zero) => {
            Some(sims.iter().flatten().sum::<f64>() / sims.len() as f64)
        }
        (MergeFn::Min, MissingPolicy::Ignore) => sims
            .iter()
            .flatten()
            .copied()
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.min(s)))
            }),
        (MergeFn::Min, MissingPolicy::Zero) => {
            // Intersection semantics: pairs absent from any input vanish.
            if present < sims.len() {
                None
            } else {
                sims.iter().flatten().copied().reduce(f64::min)
            }
        }
        (MergeFn::Max, _) => sims.iter().flatten().copied().reduce(f64::max),
        (MergeFn::Weighted(w), MissingPolicy::Ignore) => {
            let mut num = 0.0;
            let mut den = 0.0;
            for (s, wi) in sims.iter().zip(w) {
                if let Some(s) = s {
                    num += s * wi;
                    den += wi;
                }
            }
            if den > 0.0 {
                Some(num / den)
            } else {
                None
            }
        }
        (MergeFn::Weighted(w), MissingPolicy::Zero) => {
            let den: f64 = w.iter().sum();
            let num: f64 = sims
                .iter()
                .zip(w)
                .map(|(s, wi)| s.unwrap_or(0.0) * wi)
                .sum();
            Some(num / den)
        }
        (MergeFn::Prefer(_), _) => unreachable!("prefer handled separately"),
    }
}

/// PreferMap merge: all correspondences of the preferred input, plus
/// correspondences from other inputs (max similarity per pair) for
/// uncovered domain objects.
fn prefer(tables: &[&MappingTable], idx: usize) -> MappingTable {
    // Pairs arrive domain-ascending, so one cursor over the preferred
    // input's domain runs tells whether it covers a pair's domain.
    let preferred = tables[idx].canonical();
    let mut at = 0;
    let mut table = MappingTable::new();
    cogroup(tables, |a, b, sims| {
        while preferred.get(at).is_some_and(|c| c.domain < a) {
            at += 1;
        }
        let covered = preferred.get(at).is_some_and(|c| c.domain == a);
        let kept = match sims[idx] {
            None if !covered => sims.iter().flatten().copied().reduce(f64::max),
            preferred_sim => preferred_sim,
        };
        if let Some(s) = kept {
            table.push(a, b, s);
        }
    });
    table
}

fn finish(inputs: &[&Mapping], table: MappingTable) -> Mapping {
    let kind = if inputs.iter().all(|m| m.kind.is_same()) {
        MappingKind::Same
    } else {
        MappingKind::Association("merged".into())
    };
    let names: Vec<&str> = inputs.iter().map(|m| m.name.as_str()).collect();
    Mapping {
        name: format!("merge({})", names.join(", ")),
        kind,
        domain: inputs[0].domain,
        range: inputs[0].range,
        table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_model::LdsId;
    use moma_table::Correspondence;

    /// The exact inputs of paper Figure 4. Objects: a1=1, a2=2, a3=3;
    /// b1=11, b2=12, b3=13, b5=15.
    fn fig4() -> (Mapping, Mapping) {
        let map1 = Mapping::same(
            "map1",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(1, 11, 1.0), (2, 12, 0.8)]),
        );
        let map2 = Mapping::same(
            "map2",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(1, 11, 0.6), (1, 15, 1.0), (3, 13, 0.9)]),
        );
        (map1, map2)
    }

    #[test]
    fn fig4_min_zero_is_intersection() {
        let (m1, m2) = fig4();
        let r = merge(&[&m1, &m2], MergeFn::Min, MissingPolicy::Zero).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.table.sim_of(1, 11), Some(0.6));
    }

    #[test]
    fn fig4_avg_ignore() {
        let (m1, m2) = fig4();
        let r = merge(&[&m1, &m2], MergeFn::Avg, MissingPolicy::Ignore).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.table.sim_of(1, 11), Some(0.8));
        assert_eq!(r.table.sim_of(2, 12), Some(0.8));
        assert_eq!(r.table.sim_of(1, 15), Some(1.0));
        assert_eq!(r.table.sim_of(3, 13), Some(0.9));
    }

    #[test]
    fn fig4_avg_zero() {
        let (m1, m2) = fig4();
        let r = merge(&[&m1, &m2], MergeFn::Avg, MissingPolicy::Zero).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.table.sim_of(1, 11), Some(0.8));
        assert_eq!(r.table.sim_of(2, 12), Some(0.4));
        assert_eq!(r.table.sim_of(1, 15), Some(0.5));
        assert_eq!(r.table.sim_of(3, 13), Some(0.45));
    }

    #[test]
    fn fig4_prefer_map1() {
        let (m1, m2) = fig4();
        let r = merge(&[&m1, &m2], MergeFn::Prefer(0), MissingPolicy::Ignore).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.table.sim_of(1, 11), Some(1.0));
        assert_eq!(r.table.sim_of(2, 12), Some(0.8));
        assert_eq!(r.table.sim_of(3, 13), Some(0.9));
        // (a1, b5) must NOT appear: a1 is covered by the preferred map.
        assert_eq!(r.table.sim_of(1, 15), None);
    }

    #[test]
    fn prefer_second_map() {
        let (m1, m2) = fig4();
        let r = merge(&[&m1, &m2], MergeFn::Prefer(1), MissingPolicy::Ignore).unwrap();
        // All of map2, plus map1's (a2, b2) since a2 is uncovered in map2.
        assert_eq!(r.len(), 4);
        assert_eq!(r.table.sim_of(1, 11), Some(0.6));
        assert_eq!(r.table.sim_of(2, 12), Some(0.8));
    }

    #[test]
    fn max_takes_larger() {
        let (m1, m2) = fig4();
        let r = merge(&[&m1, &m2], MergeFn::Max, MissingPolicy::Ignore).unwrap();
        assert_eq!(r.table.sim_of(1, 11), Some(1.0));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn min_ignore_keeps_singletons() {
        let (m1, m2) = fig4();
        let r = merge(&[&m1, &m2], MergeFn::Min, MissingPolicy::Ignore).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r.table.sim_of(1, 11), Some(0.6));
        assert_eq!(r.table.sim_of(2, 12), Some(0.8));
    }

    #[test]
    fn weighted_average() {
        let (m1, m2) = fig4();
        let r = merge(
            &[&m1, &m2],
            MergeFn::Weighted(vec![3.0, 1.0]),
            MissingPolicy::Ignore,
        )
        .unwrap();
        // (1,11): (3*1.0 + 1*0.6)/4 = 0.9
        assert!((r.table.sim_of(1, 11).unwrap() - 0.9).abs() < 1e-12);
        // (2,12): only map1 -> weight renormalizes to map1 alone = 0.8.
        assert!((r.table.sim_of(2, 12).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn weighted_zero_fill() {
        let (m1, m2) = fig4();
        let r = merge(
            &[&m1, &m2],
            MergeFn::Weighted(vec![3.0, 1.0]),
            MissingPolicy::Zero,
        )
        .unwrap();
        // (2,12): (3*0.8 + 1*0)/4 = 0.6
        assert!((r.table.sim_of(2, 12).unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn single_input_merge_is_identityish() {
        let (m1, _) = fig4();
        let r = merge(&[&m1], MergeFn::Avg, MissingPolicy::Ignore).unwrap();
        assert_eq!(r.table, {
            let mut t = m1.table.clone();
            t.dedup_max();
            t
        });
    }

    /// Duplicate rows of a raw-pushed input collapse to their maximum —
    /// the table's own rule (`dedup_max`), whatever the row order.
    #[test]
    fn duplicate_input_rows_keep_max() {
        for sims in [[0.9, 0.2], [0.2, 0.9]] {
            let mut raw = MappingTable::new();
            for s in sims {
                raw.push(0, 0, s);
            }
            let m = Mapping::same("raw", LdsId(0), LdsId(1), raw);
            for f in [MergeFn::Avg, MergeFn::Min, MergeFn::Max, MergeFn::Prefer(0)] {
                let r = merge(&[&m], f.clone(), MissingPolicy::Ignore).unwrap();
                assert_eq!(r.table.rows(), &[Correspondence::new(0, 0, 0.9)], "{f:?}");
            }
            let both = merge(&[&m, &m], MergeFn::Avg, MissingPolicy::Zero).unwrap();
            let same = crate::ops::setops::union(&m, &m).unwrap();
            assert_eq!(both.table, same.table);
        }
    }

    #[test]
    fn three_way_merge() {
        let (m1, m2) = fig4();
        let m3 = Mapping::same(
            "map3",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(1, 11, 0.2)]),
        );
        let r = merge(&[&m1, &m2, &m3], MergeFn::Avg, MissingPolicy::Ignore).unwrap();
        let s = r.table.sim_of(1, 11).unwrap();
        assert!((s - (1.0 + 0.6 + 0.2) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_errors() {
        let (m1, _) = fig4();
        assert!(matches!(
            merge(&[], MergeFn::Avg, MissingPolicy::Ignore),
            Err(CoreError::EmptyInput(_))
        ));
        let other = Mapping::same("x", LdsId(5), LdsId(1), MappingTable::new());
        assert!(matches!(
            merge(&[&m1, &other], MergeFn::Avg, MissingPolicy::Ignore),
            Err(CoreError::Incompatible(_))
        ));
        assert!(matches!(
            merge(
                &[&m1],
                MergeFn::Weighted(vec![1.0, 2.0]),
                MissingPolicy::Ignore
            ),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            merge(&[&m1], MergeFn::Prefer(3), MissingPolicy::Ignore),
            Err(CoreError::InvalidConfig(_))
        ));
        assert!(matches!(
            merge(&[&m1], MergeFn::Weighted(vec![0.0]), MissingPolicy::Ignore),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn kind_propagation() {
        let (m1, m2) = fig4();
        let r = merge(&[&m1, &m2], MergeFn::Avg, MissingPolicy::Ignore).unwrap();
        assert!(r.kind.is_same());
        let assoc = Mapping::association("a", "t", LdsId(0), LdsId(1), MappingTable::new());
        let r2 = merge(&[&m1, &assoc], MergeFn::Max, MissingPolicy::Ignore).unwrap();
        assert!(!r2.kind.is_same());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use moma_model::LdsId;
    use proptest::prelude::*;

    fn arb_mapping(max_key: u32, max_rows: usize) -> impl Strategy<Value = Mapping> {
        prop::collection::vec((0..max_key, 0..max_key, 0.0f64..=1.0), 0..max_rows).prop_map(
            |rows| Mapping::same("m", LdsId(0), LdsId(1), MappingTable::from_triples(rows)),
        )
    }

    proptest! {
        #[test]
        fn merge_commutative_for_symmetric_fns(
            a in arb_mapping(16, 30),
            b in arb_mapping(16, 30),
        ) {
            for f in [MergeFn::Avg, MergeFn::Min, MergeFn::Max] {
                for pol in [MissingPolicy::Ignore, MissingPolicy::Zero] {
                    if a.is_empty() && b.is_empty() { continue; }
                    let mut r1 = merge(&[&a, &b], f.clone(), pol).unwrap().table;
                    let mut r2 = merge(&[&b, &a], f.clone(), pol).unwrap().table;
                    r1.sort_by_domain();
                    r2.sort_by_domain();
                    prop_assert_eq!(r1.len(), r2.len());
                    for (x, y) in r1.iter().zip(r2.iter()) {
                        prop_assert_eq!(x.domain, y.domain);
                        prop_assert_eq!(x.range, y.range);
                        prop_assert!((x.sim - y.sim).abs() < 1e-12);
                    }
                }
            }
        }

        #[test]
        fn merge_idempotent(a in arb_mapping(16, 30)) {
            for f in [MergeFn::Avg, MergeFn::Min, MergeFn::Max] {
                let r = merge(&[&a, &a], f, MissingPolicy::Zero).unwrap();
                prop_assert_eq!(r.len(), a.len());
                for c in a.table.iter() {
                    let s = r.table.sim_of(c.domain, c.range).unwrap();
                    prop_assert!((s - c.sim).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn min_zero_subset_of_all_inputs(
            a in arb_mapping(12, 25),
            b in arb_mapping(12, 25),
        ) {
            let r = merge(&[&a, &b], MergeFn::Min, MissingPolicy::Zero).unwrap();
            let pa = a.table.pair_set();
            let pb = b.table.pair_set();
            for c in r.table.iter() {
                prop_assert!(pa.contains(&(c.domain, c.range)));
                prop_assert!(pb.contains(&(c.domain, c.range)));
            }
        }

        #[test]
        fn max_is_union(a in arb_mapping(12, 25), b in arb_mapping(12, 25)) {
            let r = merge(&[&a, &b], MergeFn::Max, MissingPolicy::Ignore).unwrap();
            let mut expected = a.table.pair_set();
            expected.extend(b.table.pair_set());
            prop_assert_eq!(r.table.pair_set(), expected);
        }

        #[test]
        fn sims_stay_in_range(a in arb_mapping(12, 25), b in arb_mapping(12, 25)) {
            for f in [MergeFn::Avg, MergeFn::Min, MergeFn::Max,
                      MergeFn::Weighted(vec![1.0, 2.0]), MergeFn::Prefer(0)] {
                for pol in [MissingPolicy::Ignore, MissingPolicy::Zero] {
                    let r = merge(&[&a, &b], f.clone(), pol).unwrap();
                    prop_assert!(r.sims_valid(), "{:?}/{:?}", f, pol);
                }
            }
        }

        #[test]
        fn prefer_contains_all_preferred_pairs(
            a in arb_mapping(12, 25),
            b in arb_mapping(12, 25),
        ) {
            let r = merge(&[&a, &b], MergeFn::Prefer(0), MissingPolicy::Ignore).unwrap();
            let rp = r.table.pair_set();
            for c in a.table.iter() {
                prop_assert!(rp.contains(&(c.domain, c.range)));
                prop_assert!((r.table.sim_of(c.domain, c.range).unwrap() - c.sim).abs() < 1e-12);
            }
        }
    }
}

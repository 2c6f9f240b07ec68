//! Cross-crate algebraic laws of the mapping operators, checked with
//! proptest over arbitrary mappings — and, below them, one reference
//! model: every operator against a naive implementation over `BTreeMap`s
//! and nested loops (compose: `hash_join` plus an in-order fold), on tables built canonically and by raw `push`.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use moma::core::cluster::{clusters, representatives};
use moma::core::ops::compose::{compose, PathAgg, PathCombine};
use moma::core::ops::merge::{merge, MergeFn, MissingPolicy};
use moma::core::ops::select::{select, Selection, Side};
use moma::core::ops::setops::{difference, intersection, union};
use moma::core::Mapping;
use moma::model::LdsId;
use moma::table::join::hash_join;
use moma::table::MappingTable;
use proptest::prelude::*;

fn arb_mapping(domain: u32, range: u32) -> impl Strategy<Value = Mapping> {
    prop::collection::vec((0u32..16, 0u32..16, 0.01f64..=1.0), 0..40).prop_map(move |rows| {
        Mapping::same(
            "m",
            LdsId(domain),
            LdsId(range),
            MappingTable::from_triples(rows),
        )
    })
}

proptest! {
    /// merge(Max) is associative on pair sets and sims.
    #[test]
    fn merge_max_associative(
        a in arb_mapping(0, 1),
        b in arb_mapping(0, 1),
        c in arb_mapping(0, 1),
    ) {
        let ab_c = merge(
            &[&merge(&[&a, &b], MergeFn::Max, MissingPolicy::Ignore).unwrap(), &c],
            MergeFn::Max,
            MissingPolicy::Ignore,
        ).unwrap();
        let a_bc = merge(
            &[&a, &merge(&[&b, &c], MergeFn::Max, MissingPolicy::Ignore).unwrap()],
            MergeFn::Max,
            MissingPolicy::Ignore,
        ).unwrap();
        prop_assert_eq!(ab_c.table.pair_set(), a_bc.table.pair_set());
        for corr in ab_c.table.iter() {
            let s = a_bc.table.sim_of(corr.domain, corr.range).unwrap();
            prop_assert!((s - corr.sim).abs() < 1e-12);
        }
    }

    /// Set algebra: |A| = |A ∩ B| + |A \ B| and union ⊇ both.
    #[test]
    fn set_partition_law(a in arb_mapping(0, 1), b in arb_mapping(0, 1)) {
        let i = intersection(&a, &b).unwrap();
        let d = difference(&a, &b).unwrap();
        prop_assert_eq!(a.len(), i.len() + d.len());
        let u = union(&a, &b).unwrap();
        prop_assert!(u.len() >= a.len().max(b.len()));
        let up = u.table.pair_set();
        for c in a.table.iter().chain(b.table.iter()) {
            prop_assert!(up.contains(&(c.domain, c.range)));
        }
    }

    /// Composing with a complete identity mapping preserves pairs (for
    /// Max aggregation, which ignores path counts).
    #[test]
    fn compose_identity_right(a in arb_mapping(0, 1)) {
        let id = Mapping::identity(LdsId(1), 16);
        let composed = compose(&a, &id, PathCombine::Min, PathAgg::Max).unwrap();
        prop_assert_eq!(composed.table.pair_set(), a.table.pair_set());
        for c in a.table.iter() {
            let s = composed.table.sim_of(c.domain, c.range).unwrap();
            prop_assert!((s - c.sim).abs() < 1e-12);
        }
    }

    /// Inverse distributes over compose: (m1 ∘ m2)⁻¹ = m2⁻¹ ∘ m1⁻¹.
    #[test]
    fn compose_inverse_duality(m1 in arb_mapping(0, 1), m2 in arb_mapping(1, 2)) {
        let lhs = compose(&m1, &m2, PathCombine::Min, PathAgg::Relative).unwrap().inverse();
        let rhs = compose(&m2.inverse(), &m1.inverse(), PathCombine::Min, PathAgg::Relative)
            .unwrap();
        prop_assert_eq!(lhs.table.pair_set(), rhs.table.pair_set());
    }

    /// Selections commute with each other when they filter independently:
    /// threshold ∘ best1 == best1 ∘ threshold whenever the best survivor
    /// clears the threshold.
    #[test]
    fn threshold_after_best1_is_subset(m in arb_mapping(0, 1), t in 0.0f64..=1.0) {
        let b_then_t = select(&select(&m, &Selection::best1()), &Selection::Threshold(t));
        let t_then_b = select(&select(&m, &Selection::Threshold(t)), &Selection::best1());
        // best1-then-threshold is a subset of threshold-then-best1 (the
        // latter may promote a second-best pair that clears t).
        let sup = t_then_b.table.pair_set();
        for c in b_then_t.table.iter() {
            prop_assert!(sup.contains(&(c.domain, c.range)));
        }
    }

    /// Merging with an empty mapping under Ignore is identity.
    #[test]
    fn merge_with_empty_identity(a in arb_mapping(0, 1)) {
        let empty = Mapping::same("e", LdsId(0), LdsId(1), MappingTable::new());
        for f in [MergeFn::Avg, MergeFn::Min, MergeFn::Max] {
            let r = merge(&[&a, &empty], f, MissingPolicy::Ignore).unwrap();
            prop_assert_eq!(r.table.pair_set(), a.table.pair_set());
            for c in a.table.iter() {
                let s = r.table.sim_of(c.domain, c.range).unwrap();
                prop_assert!((s - c.sim).abs() < 1e-12);
            }
        }
        // Under Min-Zero (intersection), the empty mapping annihilates.
        let r = merge(&[&a, &empty], MergeFn::Min, MissingPolicy::Zero).unwrap();
        prop_assert!(r.is_empty());
    }
}

// ---------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------

/// What a table *means*: each pair once, with its maximum similarity.
type Model = BTreeMap<(u32, u32), f64>;

/// Instance ids of the reference-model tables are `0..KEYS`.
const KEYS: u32 = 6;

/// Rows as generated: a small key space and similarity grid, so duplicate
/// pairs and similarity ties are the rule; unsorted.
fn arb_rows() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0..KEYS, 0..KEYS, 1u32..=10), 0..30).prop_map(|rows| {
        rows.into_iter()
            .map(|(a, b, k)| (a, b, k as f64 / 10.0))
            .collect()
    })
}

fn model_of(rows: &[(u32, u32, f64)]) -> Model {
    let mut model = Model::new();
    for &(a, b, s) in rows {
        let e = model.entry((a, b)).or_insert(s);
        *e = e.max(s);
    }
    model
}

/// The same rows as a canonically built mapping and as a raw-pushed one
/// (generation order, duplicates kept).
fn both_builds(rows: &[(u32, u32, f64)], domain: u32, range: u32) -> [Mapping; 2] {
    let mut raw = MappingTable::new();
    for &(a, b, s) in rows {
        raw.push(a, b, s);
    }
    [MappingTable::from_triples(rows.to_vec()), raw]
        .map(|t| Mapping::same("m", LdsId(domain), LdsId(range), t))
}

/// The operator ran on canonical and on raw inputs: both outputs are
/// canonical tables and hold exactly the reference's rows, bit for bit.
fn check(outputs: [Mapping; 2], expected: &Model, what: &str) {
    let bits = |s: f64| s.to_bits();
    let want: Vec<_> = expected
        .iter()
        .map(|(&(a, b), &s)| (a, b, bits(s)))
        .collect();
    for (out, build) in outputs.iter().zip(["canonical", "raw"]) {
        let got: Vec<_> = out
            .table
            .iter()
            .map(|c| (c.domain, c.range, bits(c.sim)))
            .collect();
        assert_eq!(got, want, "{what} on {build} inputs");
        assert!(
            matches!(out.table.canonical(), Cow::Borrowed(_)),
            "{} output is not canonical",
            what
        );
    }
}

fn merge_ref(inputs: &[&Model], f: &MergeFn, missing: MissingPolicy) -> Model {
    let pairs: BTreeSet<(u32, u32)> = inputs.iter().flat_map(|m| m.keys().copied()).collect();
    let mut out = Model::new();
    for pair in pairs {
        let sims: Vec<Option<f64>> = inputs.iter().map(|m| m.get(&pair).copied()).collect();
        let present: Vec<f64> = sims.iter().flatten().copied().collect();
        let zero = missing == MissingPolicy::Zero;
        let sim = match f {
            MergeFn::Avg => {
                let n = if zero { sims.len() } else { present.len() };
                Some(present.iter().sum::<f64>() / n as f64)
            }
            MergeFn::Min if zero && present.len() < sims.len() => None,
            MergeFn::Min => present.iter().copied().reduce(f64::min),
            MergeFn::Max => present.iter().copied().reduce(f64::max),
            MergeFn::Weighted(w) => {
                let (mut num, mut den) = (0.0, 0.0);
                for (s, wi) in sims.iter().zip(w) {
                    if s.is_some() || zero {
                        num += s.unwrap_or(0.0) * wi;
                        den += wi;
                    }
                }
                Some(num / den)
            }
            MergeFn::Prefer(i) => {
                let covered = inputs[*i].keys().any(|&(a, _)| a == pair.0);
                match sims[*i] {
                    None if !covered => present.iter().copied().reduce(f64::max),
                    preferred => preferred,
                }
            }
        };
        if let Some(s) = sim {
            out.insert(pair, s);
        }
    }
    out
}

fn combine_ref(f: PathCombine, s1: f64, s2: f64) -> f64 {
    match f {
        PathCombine::Avg => (s1 + s2) / 2.0,
        PathCombine::Min => s1.min(s2),
        PathCombine::Max => s1.max(s2),
        PathCombine::Product => s1 * s2,
        PathCombine::Weighted(w) => w * s1 + (1.0 - w) * s2,
    }
}

/// `hash_join` of the canonical tables, then a fold over each pair's
/// paths in emission order — ascending intermediate id, the left table
/// being sorted.
fn compose_ref(left: &Model, right: &Model, f: PathCombine, g: PathAgg) -> Model {
    let table = |m: &Model| MappingTable::from_triples(m.iter().map(|(&(a, b), &s)| (a, b, s)));
    let mut paths: BTreeMap<(u32, u32), Vec<f64>> = BTreeMap::new();
    hash_join(&table(left), &table(right), |p| {
        let sims = paths.entry((p.a, p.b)).or_default();
        sims.push(combine_ref(f, p.s1, p.s2));
    });
    let mut out = Model::new();
    for ((a, b), sims) in paths {
        let n_a = left.keys().filter(|&&(x, _)| x == a).count() as f64;
        let n_b = right.keys().filter(|&&(_, y)| y == b).count() as f64;
        let mut sum = sims[0];
        sims[1..].iter().for_each(|s| sum += s);
        let s = match g {
            PathAgg::Avg => sum / sims.len() as f64,
            PathAgg::Min => sims.iter().copied().fold(f64::INFINITY, f64::min),
            PathAgg::Max => sims.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            PathAgg::RelativeLeft => sum / n_a,
            PathAgg::RelativeRight => sum / n_b,
            PathAgg::Relative => 2.0 * sum / (n_a + n_b),
        };
        out.insert((a, b), s.clamp(0.0, 1.0));
    }
    out
}

/// Pairs a per-instance rule keeps on one side: `rule` sees an instance's
/// `(other id, sim)` list, ascending by other id.
fn side_ref(
    model: &Model,
    by_domain: bool,
    rule: &dyn Fn(&[(u32, f64)]) -> Vec<u32>,
) -> BTreeSet<(u32, u32)> {
    let mut kept = BTreeSet::new();
    for key in 0..KEYS {
        let mut group: Vec<(u32, f64)> = model
            .iter()
            .filter(|(&(a, b), _)| key == if by_domain { a } else { b })
            .map(|(&(a, b), &s)| (if by_domain { b } else { a }, s))
            .collect();
        group.sort_by_key(|&(other, _)| other);
        for other in rule(&group) {
            kept.insert(if by_domain {
                (key, other)
            } else {
                (other, key)
            });
        }
    }
    kept
}

fn select_ref(model: &Model, sel: &Selection) -> Model {
    let (side, rule): (Side, Box<dyn Fn(&[(u32, f64)]) -> Vec<u32>>) = match *sel {
        Selection::Threshold(t) => {
            return model
                .iter()
                .filter(|(_, &s)| s >= t)
                .map(|(&p, &s)| (p, s))
                .collect();
        }
        Selection::BestN { n, side } => (
            side,
            Box::new(move |group| {
                let mut ranked = group.to_vec();
                // Similarity descending, ties to the lower other id.
                ranked.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap().then(x.0.cmp(&y.0)));
                ranked.iter().take(n).map(|&(other, _)| other).collect()
            }),
        ),
        Selection::Best1Delta {
            delta,
            relative,
            side,
        } => (
            side,
            Box::new(move |group| {
                let best = group
                    .iter()
                    .map(|&(_, s)| s)
                    .fold(f64::NEG_INFINITY, f64::max);
                let cutoff = if relative {
                    best * (1.0 - delta)
                } else {
                    best - delta
                };
                let close = group.iter().filter(|&&(_, s)| s >= cutoff);
                close.map(|&(other, _)| other).collect()
            }),
        ),
    };
    let kept = match side {
        Side::Domain => side_ref(model, true, &*rule),
        Side::Range => side_ref(model, false, &*rule),
        Side::Both => &side_ref(model, true, &*rule) & &side_ref(model, false, &*rule),
    };
    model
        .iter()
        .filter(|(p, _)| kept.contains(p))
        .map(|(&p, &s)| (p, s))
        .collect()
}

/// Smallest reachable id of every instance, by relaxing edges to a fixed
/// point.
fn representatives_ref(model: &Model, n: u32) -> Vec<u32> {
    let mut rep: Vec<u32> = (0..n).collect();
    loop {
        let before = rep.clone();
        for &(a, b) in model.keys() {
            let low = rep[a as usize].min(rep[b as usize]);
            rep[a as usize] = low;
            rep[b as usize] = low;
        }
        if rep == before {
            return rep;
        }
    }
}

proptest! {
    #[test]
    fn merge_matches_reference(a in arb_rows(), b in arb_rows(), c in arb_rows()) {
        let models = [model_of(&a), model_of(&b), model_of(&c)];
        let models: Vec<&Model> = models.iter().collect();
        let builds = [both_builds(&a, 0, 1), both_builds(&b, 0, 1), both_builds(&c, 0, 1)];
        let fns = [
            MergeFn::Avg,
            MergeFn::Min,
            MergeFn::Max,
            MergeFn::Weighted(vec![1.0, 2.0, 0.5]),
            MergeFn::Prefer(0),
            MergeFn::Prefer(2),
        ];
        for f in fns {
            for missing in [MissingPolicy::Ignore, MissingPolicy::Zero] {
                let run = |build: usize| {
                    let inputs: Vec<&Mapping> = builds.iter().map(|b| &b[build]).collect();
                    merge(&inputs, f.clone(), missing).unwrap()
                };
                let expected = merge_ref(&models, &f, missing);
                check([run(0), run(1)], &expected, &format!("merge {f:?} {missing:?}"));
            }
        }
    }

    #[test]
    fn set_operations_match_reference(a in arb_rows(), b in arb_rows()) {
        let (ma, mb) = (model_of(&a), model_of(&b));
        let (a, b) = (both_builds(&a, 0, 1), both_builds(&b, 0, 1));
        let run = |op: fn(&Mapping, &Mapping) -> moma::core::Result<Mapping>| {
            [op(&a[0], &b[0]).unwrap(), op(&a[1], &b[1]).unwrap()]
        };
        let mut either = mb.clone();
        for (&p, &s) in &ma {
            let e = either.entry(p).or_insert(s);
            *e = e.max(s);
        }
        check(run(union), &either, "union");
        let shared = ma.iter().filter_map(|(p, &s)| Some((*p, s.min(*mb.get(p)?)))).collect();
        check(run(intersection), &shared, "intersection");
        let only_a = ma.iter().filter(|(p, _)| !mb.contains_key(p)).map(|(&p, &s)| (p, s)).collect();
        check(run(difference), &only_a, "difference");
    }

    #[test]
    fn compose_matches_reference_bit_for_bit(l in arb_rows(), r in arb_rows()) {
        let (ml, mr) = (model_of(&l), model_of(&r));
        let (l, r) = (both_builds(&l, 0, 1), both_builds(&r, 1, 2));
        let combines = [
            PathCombine::Avg,
            PathCombine::Min,
            PathCombine::Max,
            PathCombine::Product,
            PathCombine::Weighted(0.3),
        ];
        let aggs = [
            PathAgg::Avg,
            PathAgg::Min,
            PathAgg::Max,
            PathAgg::RelativeLeft,
            PathAgg::RelativeRight,
            PathAgg::Relative,
        ];
        for f in combines {
            for g in aggs {
                let outputs = [0, 1].map(|build| compose(&l[build], &r[build], f, g).unwrap());
                check(outputs, &compose_ref(&ml, &mr, f, g), &format!("compose {f:?} {g:?}"));
            }
        }
    }

    #[test]
    fn select_matches_reference(rows in arb_rows(), n in 1usize..4, delta in 0.0f64..0.4) {
        let model = model_of(&rows);
        let builds = both_builds(&rows, 0, 1);
        let mut selections = vec![Selection::Threshold(delta * 2.0)];
        for side in [Side::Domain, Side::Range, Side::Both] {
            selections.push(Selection::BestN { n, side });
            selections.push(Selection::Best1Delta { delta, relative: false, side });
            selections.push(Selection::Best1Delta { delta, relative: true, side });
        }
        for sel in selections {
            let outputs = [select(&builds[0], &sel), select(&builds[1], &sel)];
            check(outputs, &select_ref(&model, &sel), &format!("select {sel:?}"));
        }
    }

    #[test]
    fn clusters_match_reference(rows in arb_rows()) {
        let reps = representatives_ref(&model_of(&rows), KEYS);
        let expected: Vec<Vec<u32>> = (0..KEYS)
            .map(|rep| (0..KEYS).filter(|&x| reps[x as usize] == rep).collect::<Vec<u32>>())
            .filter(|members| members.len() > 1)
            .collect();
        for build in both_builds(&rows, 0, 0) {
            prop_assert_eq!(&representatives(&build, KEYS).unwrap(), &reps);
            prop_assert_eq!(&clusters(&build, KEYS).unwrap(), &expected);
        }
    }
}

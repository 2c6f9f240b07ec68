//! Dense-id grouping ≡ the sort and hash code it replaced.
//!
//! The operators group rows by instance id with one counting pass
//! (`moma_table::agg::IdGroups`). Below, each reference is the operator as
//! it was before: a stable comparison sort of row positions (`select`), a
//! sort of the swapped rows (`inverted`), a hash map of spans
//! (`Adjacency`), a hash map of `n(b)` plus a per-group sort of the paths
//! (`compose`), a `Vec` per instance (`clusters`) and a sorted
//! `(representative, member)` list (`expand_domain`). Over arbitrary tables
//! — empty ones, raw-pushed ones with duplicate pairs, dense, sparse and
//! huge ids — both must agree bit for bit.

use moma::core::cluster::{clusters, expand_domain, representatives};
use moma::core::ops::compose::{compose, PathAgg, PathCombine};
use moma::core::ops::select::{select, Selection, Side};
use moma::core::Mapping;
use moma::model::LdsId;
use moma::table::agg::{IdGroups, PathStats};
use moma::table::{Adjacency, Correspondence, FxHashMap, MappingTable};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The replaced implementations
// ---------------------------------------------------------------------

/// `select` before dense grouping: range runs by a stable sort of the row
/// positions.
fn select_ref(mapping: &Mapping, sel: &Selection) -> MappingTable {
    let rows = mapping.table.canonical();
    let sim = |i: u32| rows[i as usize].sim;
    let keep: Vec<bool> = match sel {
        Selection::Threshold(t) => rows.iter().map(|c| c.sim >= *t).collect(),
        Selection::BestN { n, side } => keep_per_instance_ref(&rows, *side, |run, keep| {
            run.sort_by(|&i, &j| {
                sim(j)
                    .partial_cmp(&sim(i))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            run.iter().take(*n).for_each(|&i| keep[i as usize] = true);
        }),
        Selection::Best1Delta {
            delta,
            relative,
            side,
        } => keep_per_instance_ref(&rows, *side, |run, keep| {
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
    let mut table = MappingTable::new();
    for (c, _) in rows.iter().zip(keep).filter(|(_, k)| *k) {
        table.push(c.domain, c.range, c.sim);
    }
    table
}

fn keep_per_instance_ref(
    rows: &[Correspondence],
    side: Side,
    rule: impl Fn(&mut [u32], &mut [bool]),
) -> Vec<bool> {
    let mark = |by_domain: bool| {
        let key = |i: &u32| {
            let c = &rows[*i as usize];
            if by_domain {
                c.domain
            } else {
                c.range
            }
        };
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        if !by_domain {
            order.sort_by_key(key);
        }
        let mut keep = vec![false; rows.len()];
        for run in order.chunk_by_mut(|i, j| key(i) == key(j)) {
            rule(run, &mut keep);
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

/// `MappingTable::inverted` before dense grouping.
fn inverted_ref(table: &MappingTable) -> Vec<Correspondence> {
    let mut rows: Vec<Correspondence> = table
        .iter()
        .map(|c| Correspondence::new(c.range, c.domain, c.sim))
        .collect();
    rows.sort_unstable_by_key(|x| (x.domain, x.range));
    rows
}

/// `Adjacency` before dense grouping: one hash lookup per probe.
struct AdjacencyRef {
    spans: FxHashMap<u32, (u32, u32)>,
    entries: Vec<(u32, f64)>,
}

impl AdjacencyRef {
    fn over_domain(table: &MappingTable) -> Self {
        let rows = table.canonical();
        let mut spans = FxHashMap::default();
        let mut start = 0u32;
        for run in rows.chunk_by(|x, y| x.domain == y.domain) {
            let end = start + run.len() as u32;
            spans.insert(run[0].domain, (start, end));
            start = end;
        }
        let entries = rows.iter().map(|c| (c.range, c.sim)).collect();
        Self { spans, entries }
    }

    fn neighbors(&self, key: u32) -> &[(u32, f64)] {
        match self.spans.get(&key) {
            Some(&(s, e)) => &self.entries[s as usize..e as usize],
            None => &[],
        }
    }
}

fn combine(f: PathCombine, s1: f64, s2: f64) -> f64 {
    match f {
        PathCombine::Avg => (s1 + s2) / 2.0,
        PathCombine::Min => s1.min(s2),
        PathCombine::Max => s1.max(s2),
        PathCombine::Product => s1 * s2,
        PathCombine::Weighted(w) => w * s1 + (1.0 - w) * s2,
    }
}

/// `compose` before dense grouping: `n(b)` in a hash map, each group's
/// paths stable-sorted by `b`.
fn compose_ref(map1: &Mapping, map2: &Mapping, f: PathCombine, g: PathAgg) -> MappingTable {
    let right = AdjacencyRef::over_domain(&map2.table);
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
            paths.extend(reached.map(|&(b, s2)| (b, combine(f, l.sim, s2))));
        }
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
    table
}

/// `clusters` before dense grouping: one `Vec` per instance.
fn clusters_ref(self_mapping: &Mapping, n: u32) -> moma::core::Result<Vec<Vec<u32>>> {
    let reps = representatives(self_mapping, n)?;
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
    for (x, &rep) in reps.iter().enumerate() {
        members[rep as usize].push(x as u32);
    }
    members.retain(|g| g.len() > 1);
    Ok(members)
}

/// `expand_domain` before dense grouping: a sorted
/// `(representative, member)` list searched per row.
fn expand_domain_ref(mapping: &Mapping, reps: &[u32]) -> MappingTable {
    let mut members: Vec<(u32, u32)> = (0u32..).zip(reps).map(|(m, &rep)| (rep, m)).collect();
    members.sort_unstable();
    let mut table = MappingTable::new();
    for c in mapping.table.iter() {
        let from = members.partition_point(|&(rep, _)| rep < c.domain);
        let cluster = members[from..]
            .iter()
            .take_while(|&&(rep, _)| rep == c.domain);
        let mut cluster = cluster.map(|&(_, m)| m).peekable();
        if cluster.peek().is_none() {
            table.push(c.domain, c.range, c.sim);
        }
        cluster.for_each(|m| table.push(m, c.range, c.sim));
    }
    table.dedup_max();
    table
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

/// Key indexes are drawn from `0..KEYS` and spelled as ids by one of
/// these spaces: dense, sparse below the rank bound, sparse above it, and
/// huge (near `u32::MAX`).
const KEYS: u32 = 8;
const SPACES: [[u32; KEYS as usize]; 4] = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [0, 9_000, 18_000, 27_000, 36_000, 45_000, 54_000, 63_000],
    [
        3, 40_009, 80_018, 120_027, 160_036, 200_045, 240_054, 280_063,
    ],
    [
        0,
        1,
        2,
        7,
        u32::MAX - 4,
        u32::MAX - 3,
        u32::MAX - 2,
        u32::MAX - 1,
    ],
];

/// `(id space, rows)`: rows with a small key space and a similarity grid,
/// so duplicate pairs and ties are the rule; unsorted.
fn arb_rows() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    (
        0usize..SPACES.len(),
        prop::collection::vec((0..KEYS, 0..KEYS, 1u32..=10), 0..30),
    )
        .prop_map(|(space, rows)| {
            let id = |k: u32| SPACES[space][k as usize];
            rows.into_iter()
                .map(|(a, b, s)| (id(a), id(b), s as f64 / 10.0))
                .collect()
        })
}

/// The rows as a canonically built table and as a raw-pushed one
/// (generation order, duplicates kept).
fn both_builds(rows: &[(u32, u32, f64)]) -> [MappingTable; 2] {
    let mut raw = MappingTable::new();
    for &(a, b, s) in rows {
        raw.push(a, b, s);
    }
    [MappingTable::from_triples(rows.to_vec()), raw]
}

fn same(domain: u32, range: u32, table: MappingTable) -> Mapping {
    Mapping::same("m", LdsId(domain), LdsId(range), table)
}

fn bits(rows: &[Correspondence]) -> Vec<(u32, u32, u64)> {
    rows.iter()
        .map(|c| (c.domain, c.range, c.sim.to_bits()))
        .collect()
}

fn selections(n: usize, delta: f64) -> Vec<Selection> {
    let mut all = vec![Selection::Threshold(delta * 2.0)];
    for side in [Side::Domain, Side::Range, Side::Both] {
        all.push(Selection::BestN { n, side });
        all.push(Selection::Best1Delta {
            delta,
            relative: false,
            side,
        });
        all.push(Selection::Best1Delta {
            delta,
            relative: true,
            side,
        });
    }
    all
}

const COMBINES: [PathCombine; 5] = [
    PathCombine::Avg,
    PathCombine::Min,
    PathCombine::Max,
    PathCombine::Product,
    PathCombine::Weighted(0.3),
];
const AGGS: [PathAgg; 6] = [
    PathAgg::Avg,
    PathAgg::Min,
    PathAgg::Max,
    PathAgg::RelativeLeft,
    PathAgg::RelativeRight,
    PathAgg::Relative,
];

// ---------------------------------------------------------------------
// Checks, shared by the properties and the huge-id case
// ---------------------------------------------------------------------

fn check_select(table: &MappingTable, n: usize, delta: f64) {
    let m = same(0, 1, table.clone());
    for sel in selections(n, delta) {
        let got = select(&m, &sel);
        assert_eq!(
            bits(got.table.rows()),
            bits(select_ref(&m, &sel).rows()),
            "{sel:?}"
        );
    }
}

fn check_inverted(table: &MappingTable) {
    let got = table.inverted();
    let want = inverted_ref(table);
    let sorted = |rows: &[Correspondence]| {
        let mut rows = bits(rows);
        rows.sort_unstable();
        rows
    };
    let key = |c: &Correspondence| (c.domain, c.range);
    assert!(got.rows().windows(2).all(|w| key(&w[0]) <= key(&w[1])));
    if table.rows() == &*table.canonical() {
        assert_eq!(bits(got.rows()), bits(&want));
    } else {
        // The reference's order among equal pairs is unspecified.
        assert_eq!(sorted(got.rows()), sorted(&want));
    }
}

fn check_adjacency(table: &MappingTable, probes: &[u32]) {
    let (got, want) = (
        Adjacency::over_domain(table),
        AdjacencyRef::over_domain(table),
    );
    for &key in probes {
        assert_eq!(got.neighbors(key), want.neighbors(key), "key {key}");
    }
}

fn check_compose(left: &MappingTable, right: &MappingTable) {
    let (l, r) = (same(0, 1, left.clone()), same(1, 2, right.clone()));
    for f in COMBINES {
        for g in AGGS {
            let got = compose(&l, &r, f, g).unwrap();
            assert_eq!(
                bits(got.table.rows()),
                bits(compose_ref(&l, &r, f, g).rows()),
                "compose {f:?} {g:?}"
            );
        }
    }
}

fn check_clusters(table: &MappingTable, n: u32) {
    let m = same(0, 0, table.clone());
    match (clusters(&m, n), clusters_ref(&m, n)) {
        (Ok(got), Ok(want)) => assert_eq!(got, want),
        // The reference refuses through `representatives`.
        (Err(got), Err(want)) => assert_eq!(
            got.to_string(),
            want.to_string().replace("representatives:", "clusters:")
        ),
        (got, want) => panic!("clusters {got:?} vs reference {want:?}"),
    }
    if let Ok(reps) = representatives(&m, n) {
        let cross = same(0, 1, table.clone());
        assert_eq!(
            bits(expand_domain(&cross, &reps).table.rows()),
            bits(expand_domain_ref(&cross, &reps).rows())
        );
    }
}

fn ids_of(tables: &[&MappingTable]) -> Vec<u32> {
    let mut ids: Vec<u32> = tables
        .iter()
        .flat_map(|t| t.iter().flat_map(|c| [c.domain, c.range]))
        .chain([0, 1, 5, 65_535, 65_536, 1 << 20, u32::MAX - 1, u32::MAX])
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

proptest! {
    #[test]
    fn select_is_the_sorting_select(rows in arb_rows(), n in 1usize..4, delta in 0.0f64..0.4) {
        for table in both_builds(&rows) {
            check_select(&table, n, delta);
        }
    }

    #[test]
    fn inverted_is_the_sorting_inverted(rows in arb_rows()) {
        for table in both_builds(&rows) {
            check_inverted(&table);
        }
    }

    #[test]
    fn adjacency_is_the_hashing_adjacency(rows in arb_rows()) {
        for table in both_builds(&rows) {
            check_adjacency(&table, &ids_of(&[&table]));
        }
    }

    #[test]
    fn compose_is_the_sorting_compose(l in arb_rows(), r in arb_rows()) {
        for (left, right) in both_builds(&l).iter().zip(&both_builds(&r)) {
            check_compose(left, right);
        }
    }

    #[test]
    fn clusters_are_the_per_instance_clusters(rows in arb_rows(), n in [8u32, 64, 70_000]) {
        for table in both_builds(&rows) {
            check_clusters(&table, n);
        }
    }
}

#[test]
fn empty_tables_agree() {
    let empty = MappingTable::new();
    check_select(&empty, 1, 0.1);
    check_inverted(&empty);
    check_adjacency(&empty, &[0, 7, u32::MAX]);
    check_compose(&empty, &empty);
    check_compose(&MappingTable::from_triples([(0, 1, 0.5)]), &empty);
    check_clusters(&empty, 0);
    check_clusters(&empty, 5);
}

/// Ids `0` and `u32::MAX − 1` in a 3-row table: sizing an array by the
/// largest id would ask for gigabytes, so every operator must rank the
/// ids first, and still give the reference's answer.
#[test]
fn huge_ids_take_the_rank_path() {
    const HUGE: u32 = u32::MAX - 1;
    let rows = [(0, HUGE, 0.5), (HUGE, 0, 0.7), (HUGE, HUGE, 0.9)];
    for table in both_builds(&rows) {
        let domains = IdGroups::count(table.iter().map(|c| c.domain));
        let ranges = IdGroups::count(table.iter().map(|c| c.range));
        assert!(domains.is_ranked() && ranges.is_ranked());
        assert_eq!((domains.slots(), ranges.slots()), (2, 2));
        check_select(&table, 1, 0.3);
        check_inverted(&table);
        check_adjacency(&table, &ids_of(&[&table]));
        check_compose(&table, &table);
        // The instance count bounds the ids: `HUGE` is refused up front.
        check_clusters(&table, 3);
        let reps = [0, 0, 2];
        let cross = same(0, 1, table.clone());
        assert_eq!(
            bits(expand_domain(&cross, &reps).table.rows()),
            bits(expand_domain_ref(&cross, &reps).rows())
        );
    }
}

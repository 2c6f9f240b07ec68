//! The neighborhood matcher (paper Section 4.2).
//!
//! ```text
//! PROCEDURE nhMatch ( $Asso1, $Same, $Asso2 )
//!    $Temp   = compose ( $Asso1, $Same,  Min, Average )
//!    $Result = compose ( $Temp,  $Asso2, Min, Relative )
//!    RETURN $Result
//! END
//! ```
//!
//! Two objects become similar when their *neighborhoods* (publications of
//! a venue, co-authors of an author, …) match under an existing
//! same-mapping. The second compose uses a Relative aggregation so that
//! correspondences reached via multiple compose paths score higher.

use moma_model::LdsId;
use moma_table::agg::PathStats;
use moma_table::{FxHashMap, MappingTable};

use crate::error::{CoreError, Result};
use crate::mapping::Mapping;
use crate::matchers::{MatchContext, Matcher};
use crate::ops::compose::{compose, PathAgg, PathCombine};
use crate::ops::select::{select, Selection};

/// Run the neighborhood matcher on explicit mappings.
///
/// * `asso1: A → N_A` — association from the domain objects to their
///   neighborhood (e.g. venue → publications),
/// * `same: N_A → N_B` — same-mapping between the neighborhoods,
/// * `asso2: N_B → B` — association from the range neighborhood back to
///   the range objects (inverse semantic type of `asso1`),
/// * `g` — aggregation for the second compose; the paper uses
///   [`PathAgg::Relative`] by default and [`PathAgg::RelativeLeft`] when
///   the right-hand association is known to be incomplete (Section
///   5.4.3's truncated Google Scholar author lists).
pub fn nh_match(asso1: &Mapping, same: &Mapping, asso2: &Mapping, g: PathAgg) -> Result<Mapping> {
    let temp = compose(asso1, same, PathCombine::Min, PathAgg::Avg)?;
    let mut result = compose(&temp, asso2, PathCombine::Min, g)?;
    result.name = format!("nhMatch({}, {}, {})", asso1.name, same.name, asso2.name);
    result.kind = crate::mapping::MappingKind::Same;
    Ok(result)
}

/// Upper bound on the final similarity any pair with domain object `a`
/// can reach in `compose(temp, asso2, Min, g)`, from the *unpruned*
/// stats of `a`'s rows in `temp`.
///
/// Soundness (compose reads both tables in canonical form, i.e. with
/// unique `(domain, range)` pairs, so each compose path of a pair
/// `(a, b)` uses a distinct `temp` row of `a` and a distinct `asso2` row
/// of `b`): with `PathCombine::Min` every path
/// similarity `f ≤ s_temp ≤ max(a)`, so `Avg`/`Min`/`Max` are bounded by
/// `max(a)`; the Relative family divides a path sum `≤ sum(a)` (resp.
/// `≤ #paths·max(a)` with `#paths ≤ min(n(a), n(b))`) by `n(a)`, `n(b)`
/// or their mean, giving the bounds below.
fn domain_bound(g: PathAgg, st: &PathStats) -> f64 {
    match g {
        PathAgg::Avg | PathAgg::Min | PathAgg::Max | PathAgg::RelativeRight => st.max,
        PathAgg::RelativeLeft => st.sum / st.count as f64,
        PathAgg::Relative => st.max.min(2.0 * st.sum / (st.count as f64 + 1.0)),
    }
}

/// Mirror of [`domain_bound`] for a range object `b`, from the unpruned
/// stats of `b`'s rows in `asso2`.
fn range_bound(g: PathAgg, st: &PathStats) -> f64 {
    match g {
        PathAgg::Avg | PathAgg::Min | PathAgg::Max | PathAgg::RelativeLeft => st.max,
        PathAgg::RelativeRight => st.sum / st.count as f64,
        PathAgg::Relative => st.max.min(2.0 * st.sum / (st.count as f64 + 1.0)),
    }
}

/// [`nh_match`] followed by a `threshold` selection, with exact
/// search-space pruning: bit-identical to
/// `select(nh_match(asso1, same, asso2, g), Threshold(threshold))`
/// (same rows, same order, same name) but the second compose never
/// visits a domain or range object whose similarity upper bound already
/// rules it out.
///
/// The pruner only ever drops *whole* domain groups of the intermediate
/// mapping / whole range groups of `asso2`, with bounds computed from
/// the unpruned tables — so for every surviving pair the compose sees
/// the same paths in the same order with the same `n(a)`/`n(b)`
/// degrees, and the floating-point result is identical bit for bit.
/// The prune condition `bound < threshold − 1e-9` leaves a safety
/// margin: a group is only dropped when no pair in it could survive the
/// selection.
pub fn nh_match_threshold(
    asso1: &Mapping,
    same: &Mapping,
    asso2: &Mapping,
    g: PathAgg,
    threshold: f64,
) -> Result<Mapping> {
    let temp = compose(asso1, same, PathCombine::Min, PathAgg::Avg)?;
    let cut = threshold - 1e-9;
    let with_table = |m: &Mapping, table| Mapping {
        name: m.name.clone(),
        kind: m.kind.clone(),
        domain: m.domain,
        range: m.range,
        table,
    };

    // Domain side: `temp` is a compose output, so the rows of a domain
    // object are one run of it.
    let mut pruned_temp = MappingTable::new();
    for run in temp.table.rows().chunk_by(|x, y| x.domain == y.domain) {
        let mut st = PathStats::one(run[0].sim);
        run[1..].iter().for_each(|c| st.add(c.sim));
        if domain_bound(g, &st) >= cut {
            run.iter()
                .for_each(|c| pruned_temp.push(c.domain, c.range, c.sim));
        }
    }
    // Range side: canonical order does not group by range object, so the
    // stats are gathered in a map.
    let asso2_rows = asso2.table.canonical();
    let mut range_stats: FxHashMap<u32, PathStats> = FxHashMap::default();
    for c in asso2_rows.iter() {
        range_stats
            .entry(c.range)
            .and_modify(|st| st.add(c.sim))
            .or_insert_with(|| PathStats::one(c.sim));
    }
    let mut pruned_asso2 = MappingTable::new();
    for c in asso2_rows.iter() {
        if range_bound(g, &range_stats[&c.range]) >= cut {
            pruned_asso2.push(c.domain, c.range, c.sim);
        }
    }

    let mut result = compose(
        &with_table(&temp, pruned_temp),
        &with_table(asso2, pruned_asso2),
        PathCombine::Min,
        g,
    )?;
    result.name = format!("nhMatch({}, {}, {})", asso1.name, same.name, asso2.name);
    result.kind = crate::mapping::MappingKind::Same;
    Ok(select(&result, &Selection::Threshold(threshold)))
}

/// [`Matcher`] wrapper resolving its inputs from the mapping repository.
#[derive(Debug, Clone)]
pub struct NeighborhoodMatcher {
    /// Repository name of the first association mapping.
    pub asso1: String,
    /// Repository name of the same-mapping over the neighborhoods.
    pub same: String,
    /// Repository name of the second association mapping.
    pub asso2: String,
    /// Aggregation for the second compose.
    pub g: PathAgg,
    /// Optional selection threshold; when set the matcher runs
    /// [`nh_match_threshold`], pruning the compose search space.
    pub threshold: Option<f64>,
}

impl NeighborhoodMatcher {
    /// Matcher with the paper's default `g = Relative`.
    pub fn new(
        asso1: impl Into<String>,
        same: impl Into<String>,
        asso2: impl Into<String>,
    ) -> Self {
        Self {
            asso1: asso1.into(),
            same: same.into(),
            asso2: asso2.into(),
            g: PathAgg::Relative,
            threshold: None,
        }
    }

    /// Override the aggregation function (builder style).
    pub fn with_agg(mut self, g: PathAgg) -> Self {
        self.g = g;
        self
    }

    /// Apply a threshold selection to the result (builder style) —
    /// executes via the pruning [`nh_match_threshold`] path.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = Some(threshold);
        self
    }
}

impl Matcher for NeighborhoodMatcher {
    fn name(&self) -> String {
        format!("nhMatch({}, {}, {})", self.asso1, self.same, self.asso2)
    }

    fn execute(&self, ctx: &MatchContext<'_>, domain: LdsId, range: LdsId) -> Result<Mapping> {
        let repo = ctx.repository.ok_or_else(|| {
            CoreError::InvalidConfig("neighborhood matcher needs a repository".into())
        })?;
        let get = |name: &str| {
            repo.get(name)
                .ok_or_else(|| CoreError::UnknownMapping(name.to_owned()))
        };
        let asso1 = get(&self.asso1)?;
        let same = get(&self.same)?;
        let asso2 = get(&self.asso2)?;
        if asso1.domain != domain || asso2.range != range {
            return Err(CoreError::Incompatible(format!(
                "nhMatch endpoints ({}, {}) do not align with requested ({}, {})",
                asso1.domain.0, asso2.range.0, domain.0, range.0
            )));
        }
        match self.threshold {
            Some(t) => nh_match_threshold(&asso1, &same, &asso2, self.g, t),
            None => nh_match(&asso1, &same, &asso2, self.g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repository::MappingRepository;
    use moma_table::MappingTable;

    /// The Figure 9 scenario: derive a venue same-mapping from the
    /// Figure 1 publication same-mapping and venue-publication
    /// associations.
    ///
    /// DBLP venues: conf/VLDB/2001 = 0, journals/VLDB/2002 = 1.
    /// DBLP pubs: MadhavanBR01 = 0, ChirkovaHS01 = 1, ChirkovaHS02 = 2.
    /// ACM pubs: P-672191 = 0, P-672216 = 1, P-641272 = 2.
    /// ACM venues: V-645927 = 0, V-641268 = 1.
    fn fig9() -> (Mapping, Mapping, Mapping) {
        let asso1 = Mapping::association(
            "VenuePub@DBLP",
            "publications of venue",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)]),
        );
        // Figure 1 same-mapping incl. the two 0.6 cross correspondences.
        let same = Mapping::same(
            "PubSame(DBLP,ACM)",
            LdsId(1),
            LdsId(2),
            MappingTable::from_triples([
                (0, 0, 1.0),
                (1, 1, 1.0),
                (1, 2, 0.6),
                (2, 1, 0.6),
                (2, 2, 1.0),
            ]),
        );
        let asso2 = Mapping::association(
            "PubVenue@ACM",
            "venue of publication",
            LdsId(2),
            LdsId(3),
            MappingTable::from_triples([(0, 0, 1.0), (1, 0, 1.0), (2, 1, 1.0)]),
        );
        (asso1, same, asso2)
    }

    #[test]
    fn fig9_venue_matching() {
        let (asso1, same, asso2) = fig9();
        let r = nh_match(&asso1, &same, &asso2, PathAgg::Relative).unwrap();
        // Paper Figure 9 results:
        // (conf/VLDB/2001, V-645927)      = 2*(1+1)/(3+2) = 0.8
        // (conf/VLDB/2001, V-641268)      = 2*0.6/(3+1)   = 0.3
        // (journals/VLDB/2002, V-645927)  = 2*0.6/(2+2)   = 0.3
        // (journals/VLDB/2002, V-641268)  = 2*1/(2+1)     = 0.67
        assert!((r.table.sim_of(0, 0).unwrap() - 0.8).abs() < 1e-12);
        assert!((r.table.sim_of(0, 1).unwrap() - 0.3).abs() < 1e-12);
        assert!((r.table.sim_of(1, 0).unwrap() - 0.3).abs() < 1e-12);
        assert!((r.table.sim_of(1, 1).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!(r.kind.is_same());
        // A threshold selection at 0.5 yields the correct 1:1 venue mapping.
        let sel = crate::ops::select::select(&r, &crate::ops::select::Selection::Threshold(0.5));
        assert_eq!(sel.len(), 2);
        assert!(sel.table.sim_of(0, 0).is_some());
        assert!(sel.table.sim_of(1, 1).is_some());
    }

    #[test]
    fn matcher_wrapper_resolves_repository() {
        let (asso1, same, asso2) = fig9();
        let repo = MappingRepository::new();
        repo.store(asso1.clone());
        repo.store(same.clone());
        repo.store(asso2.clone());
        let reg = moma_model::SourceRegistry::new();
        let ctx = MatchContext::with_repository(&reg, &repo);
        let m = NeighborhoodMatcher::new("VenuePub@DBLP", "PubSame(DBLP,ACM)", "PubVenue@ACM");
        let r = m.execute(&ctx, LdsId(0), LdsId(3)).unwrap();
        assert!((r.table.sim_of(0, 0).unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn matcher_without_repository_errors() {
        let reg = moma_model::SourceRegistry::new();
        let ctx = MatchContext::new(&reg);
        let m = NeighborhoodMatcher::new("a", "b", "c");
        assert!(matches!(
            m.execute(&ctx, LdsId(0), LdsId(3)),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn matcher_unknown_mapping_errors() {
        let repo = MappingRepository::new();
        let reg = moma_model::SourceRegistry::new();
        let ctx = MatchContext::with_repository(&reg, &repo);
        let m = NeighborhoodMatcher::new("missing1", "missing2", "missing3");
        assert!(matches!(
            m.execute(&ctx, LdsId(0), LdsId(3)),
            Err(CoreError::UnknownMapping(_))
        ));
    }

    #[test]
    fn misaligned_endpoints_error() {
        let (asso1, same, asso2) = fig9();
        let repo = MappingRepository::new();
        repo.store(asso1);
        repo.store(same);
        repo.store(asso2);
        let reg = moma_model::SourceRegistry::new();
        let ctx = MatchContext::with_repository(&reg, &repo);
        let m = NeighborhoodMatcher::new("VenuePub@DBLP", "PubSame(DBLP,ACM)", "PubVenue@ACM");
        assert!(matches!(
            m.execute(&ctx, LdsId(9), LdsId(3)),
            Err(CoreError::Incompatible(_))
        ));
    }

    #[test]
    fn relative_left_variant() {
        let (asso1, same, asso2) = fig9();
        let r = nh_match(&asso1, &same, &asso2, PathAgg::RelativeLeft).unwrap();
        // (v0, v'0): sum = 2, n(v0) = 3 in the intermediate... RelativeLeft
        // divides by the left degree of the *composed-temp* mapping: the
        // temp mapping has v0 -> {a_p0:1, a_p1:1, a_p2:0.6} so n = 3.
        assert!((r.table.sim_of(0, 0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// Both fixture pipelines, every aggregation, a spread of
    /// thresholds: `nh_match_threshold` must be *bit-identical* to the
    /// unpruned `select(nh_match(...), Threshold(t))` — same rows in
    /// the same order with the same similarity bits, same name, same
    /// kind.
    #[test]
    fn threshold_pruning_is_bit_identical_to_unpruned() {
        let coauthor = Mapping::association(
            "CoAuthor",
            "co-authors",
            LdsId(0),
            LdsId(0),
            MappingTable::from_triples([
                (0, 2, 1.0),
                (0, 3, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 0, 1.0),
                (2, 1, 1.0),
                (3, 0, 1.0),
                (3, 1, 1.0),
                (4, 2, 1.0),
                (2, 4, 1.0),
            ]),
        );
        let identity = Mapping::identity(LdsId(0), 5);
        let (asso1, same, asso2) = fig9();
        let fixtures: Vec<(Mapping, Mapping, Mapping)> =
            vec![(asso1, same, asso2), (coauthor.clone(), identity, coauthor)];
        let aggs = [
            PathAgg::Avg,
            PathAgg::Min,
            PathAgg::Max,
            PathAgg::RelativeLeft,
            PathAgg::RelativeRight,
            PathAgg::Relative,
        ];
        let thresholds = [0.0, 0.25, 0.5, 2.0 / 3.0, 0.75, 0.9];
        for (asso1, same, asso2) in &fixtures {
            for g in aggs {
                for t in thresholds {
                    let unpruned = nh_match(asso1, same, asso2, g).unwrap();
                    let expected = crate::ops::select::select(
                        &unpruned,
                        &crate::ops::select::Selection::Threshold(t),
                    );
                    let pruned = nh_match_threshold(asso1, same, asso2, g, t).unwrap();
                    assert_eq!(pruned.name, expected.name, "g={g:?} t={t}");
                    assert_eq!(pruned.kind, expected.kind, "g={g:?} t={t}");
                    assert_eq!(
                        pruned.table.len(),
                        expected.table.len(),
                        "row count, g={g:?} t={t}"
                    );
                    for (p, e) in pruned.table.iter().zip(expected.table.iter()) {
                        assert_eq!(
                            (p.domain, p.range, p.sim.to_bits()),
                            (e.domain, e.range, e.sim.to_bits()),
                            "g={g:?} t={t}"
                        );
                    }
                }
            }
        }
    }

    /// At a high threshold on Figure 9 the pruner must actually shrink
    /// the compose inputs (that is, it is a pruner, not a no-op): every
    /// venue's upper bound except the two 1:1 matches falls below the
    /// cut.
    #[test]
    fn threshold_pruning_matches_fig9_selection() {
        let (asso1, same, asso2) = fig9();
        let r = nh_match_threshold(&asso1, &same, &asso2, PathAgg::Relative, 0.5).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.table.sim_of(0, 0).is_some());
        assert!(r.table.sim_of(1, 1).is_some());
        assert_eq!(
            r.name,
            "select(nhMatch(VenuePub@DBLP, PubSame(DBLP,ACM), PubVenue@ACM))"
        );
    }

    /// Matcher wrapper with a threshold routes through the pruning path.
    #[test]
    fn matcher_with_threshold() {
        let (asso1, same, asso2) = fig9();
        let repo = MappingRepository::new();
        repo.store(asso1);
        repo.store(same);
        repo.store(asso2);
        let reg = moma_model::SourceRegistry::new();
        let ctx = MatchContext::with_repository(&reg, &repo);
        let m = NeighborhoodMatcher::new("VenuePub@DBLP", "PubSame(DBLP,ACM)", "PubVenue@ACM")
            .with_threshold(0.5);
        let r = m.execute(&ctx, LdsId(0), LdsId(3)).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn coauthor_duplicate_detection_shape() {
        // Section 4.3: author self-matching via co-author neighborhoods
        // with an identity same-mapping. Authors 0 and 1 share both
        // co-authors {2, 3}; author 4 is unrelated.
        let coauthor = Mapping::association(
            "CoAuthor",
            "co-authors",
            LdsId(0),
            LdsId(0),
            MappingTable::from_triples([
                (0, 2, 1.0),
                (0, 3, 1.0),
                (1, 2, 1.0),
                (1, 3, 1.0),
                (2, 0, 1.0),
                (2, 1, 1.0),
                (3, 0, 1.0),
                (3, 1, 1.0),
                (4, 2, 1.0),
                (2, 4, 1.0),
            ]),
        );
        let identity = Mapping::identity(LdsId(0), 5);
        let r = nh_match(&coauthor, &identity, &coauthor, PathAgg::Relative).unwrap();
        // (0,1) share 2 of 2 co-authors -> 2*2/(2+2) = 1.0.
        assert!((r.table.sim_of(0, 1).unwrap() - 1.0).abs() < 1e-12);
        // (0,4): share co-author 2 only -> 2*1/(2+1) ≈ 0.67 — less than (0,1).
        assert!(r.table.sim_of(0, 4).unwrap() < r.table.sim_of(0, 1).unwrap());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::ops::select::{select, Selection};
    use moma_table::MappingTable;
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
        /// Random inputs, every aggregation: the pruning pipeline is
        /// row-for-row identical to the unpruned select.
        #[test]
        fn threshold_pruning_equivalent_on_random_inputs(
            a1 in arb_mapping(LdsId(0), LdsId(1), 10, 25),
            sm in arb_mapping(LdsId(1), LdsId(2), 10, 25),
            a2 in arb_mapping(LdsId(2), LdsId(3), 10, 25),
            t in 0.0f64..=1.0,
        ) {
            for g in [PathAgg::Avg, PathAgg::Min, PathAgg::Max,
                      PathAgg::RelativeLeft, PathAgg::RelativeRight, PathAgg::Relative] {
                let unpruned = nh_match(&a1, &sm, &a2, g).unwrap();
                let expected = select(&unpruned, &Selection::Threshold(t));
                let pruned = nh_match_threshold(&a1, &sm, &a2, g, t).unwrap();
                prop_assert_eq!(pruned.table.rows(), expected.table.rows(), "g={:?} t={}", g, t);
            }
        }
    }
}

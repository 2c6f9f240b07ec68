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

use crate::error::Result;
use crate::mapping::Mapping;
use crate::ops::compose::{compose, PathAgg, PathCombine};

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

#[cfg(test)]
mod tests {
    use super::*;
    use moma_model::LdsId;
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
    fn relative_left_variant() {
        let (asso1, same, asso2) = fig9();
        let r = nh_match(&asso1, &same, &asso2, PathAgg::RelativeLeft).unwrap();
        // (v0, v'0): sum = 2, n(v0) = 3 in the intermediate... RelativeLeft
        // divides by the left degree of the *composed-temp* mapping: the
        // temp mapping has v0 -> {a_p0:1, a_p1:1, a_p2:0.6} so n = 3.
        assert!((r.table.sim_of(0, 0).unwrap() - 2.0 / 3.0).abs() < 1e-12);
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

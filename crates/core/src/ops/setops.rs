//! Set-algebraic helpers over mappings.
//!
//! Merge and compose are the paper's primary operators; these utilities
//! round out the algebra for workflow authors: union, intersection,
//! difference on correspondence sets (similarity-aware).

use moma_table::agg::cogroup;
use moma_table::MappingTable;

use crate::error::{CoreError, Result};
use crate::mapping::Mapping;

/// One co-scan of both tables: `pick(sim in a, sim in b)` decides each
/// pair's output similarity (`None` drops the pair).
fn set_op(
    op: &str,
    a: &Mapping,
    b: &Mapping,
    pick: impl Fn(Option<f64>, Option<f64>) -> Option<f64>,
) -> Result<Mapping> {
    if a.domain != b.domain || a.range != b.range {
        return Err(CoreError::Incompatible(format!(
            "{op} requires equal sources: ({},{}) vs ({},{})",
            a.domain.0, a.range.0, b.domain.0, b.range.0
        )));
    }
    let mut table = MappingTable::new();
    cogroup(&[&a.table, &b.table], |d, r, sims| {
        if let Some(s) = pick(sims[0], sims[1]) {
            table.push(d, r, s);
        }
    });
    Ok(Mapping {
        name: format!("{op}({}, {})", a.name, b.name),
        kind: a.kind.clone(),
        domain: a.domain,
        range: a.range,
        table,
    })
}

/// Union of correspondences; overlapping pairs take the max similarity.
pub fn union(a: &Mapping, b: &Mapping) -> Result<Mapping> {
    set_op("union", a, b, |sa, sb| match (sa, sb) {
        (Some(x), Some(y)) => Some(x.max(y)),
        _ => sa.or(sb),
    })
}

/// Intersection: pairs present in both, similarity is the minimum.
pub fn intersection(a: &Mapping, b: &Mapping) -> Result<Mapping> {
    set_op("intersection", a, b, |sa, sb| Some(sa?.min(sb?)))
}

/// Difference: pairs of `a` not present in `b`.
pub fn difference(a: &Mapping, b: &Mapping) -> Result<Mapping> {
    set_op("difference", a, b, |sa, sb| sa.filter(|_| sb.is_none()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_model::LdsId;

    fn pair() -> (Mapping, Mapping) {
        (
            Mapping::same(
                "a",
                LdsId(0),
                LdsId(1),
                MappingTable::from_triples([(1, 1, 0.9), (2, 2, 0.5)]),
            ),
            Mapping::same(
                "b",
                LdsId(0),
                LdsId(1),
                MappingTable::from_triples([(1, 1, 0.4), (3, 3, 0.7)]),
            ),
        )
    }

    #[test]
    fn union_max() {
        let (a, b) = pair();
        let u = union(&a, &b).unwrap();
        assert_eq!(u.len(), 3);
        assert_eq!(u.table.sim_of(1, 1), Some(0.9));
        assert_eq!(u.table.sim_of(3, 3), Some(0.7));
    }

    #[test]
    fn intersection_min() {
        let (a, b) = pair();
        let i = intersection(&a, &b).unwrap();
        assert_eq!(i.len(), 1);
        assert_eq!(i.table.sim_of(1, 1), Some(0.4));
    }

    #[test]
    fn difference_removes() {
        let (a, b) = pair();
        let d = difference(&a, &b).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.table.sim_of(2, 2), Some(0.5));
        let rev = difference(&b, &a).unwrap();
        assert_eq!(rev.table.sim_of(3, 3), Some(0.7));
        assert_eq!(rev.len(), 1);
    }

    #[test]
    fn incompatible_rejected() {
        let (a, _) = pair();
        let other = Mapping::same("x", LdsId(4), LdsId(4), MappingTable::new());
        assert!(union(&a, &other).is_err());
        assert!(intersection(&a, &other).is_err());
        assert!(difference(&a, &other).is_err());
    }

    #[test]
    fn algebra_laws() {
        let (a, b) = pair();
        // |a| = |a ∩ b| + |a \ b|
        let i = intersection(&a, &b).unwrap();
        let d = difference(&a, &b).unwrap();
        assert_eq!(a.len(), i.len() + d.len());
        // union is commutative on pair sets
        let u1 = union(&a, &b).unwrap();
        let u2 = union(&b, &a).unwrap();
        assert_eq!(u1.table.pair_set(), u2.table.pair_set());
    }
}

//! Grouping over canonical mapping tables.
//!
//! Every table is `(domain, range)`-sorted and pair-unique (see
//! [`MappingTable`]), and every instance id is an arena index of its
//! source, so no grouping needs a hash build or a comparison sort:
//! "group rows by pair" is a co-scan, "group rows by domain" a run scan
//! (`slice::chunk_by`) and "group rows by range" one counting pass:
//!
//! * [`cogroup`] — the one co-scan under `merge`, `union`, `intersection`
//!   and `difference`: visits every pair of any input once, in canonical
//!   order, with its similarity in each input;
//! * [`IdGroups`] — items grouped by a `u32` id with a stable counting
//!   sort: the offset array under [`Adjacency`](crate::Adjacency) and
//!   compose's `n(b)`, and the grouped row order under range-side
//!   selection, [`MappingTable::inverted`] and the duplicate clusters;
//! * [`PathStats`] — the running `min`, `max`, `sum` and `count` the
//!   compose operator folds over the compose paths `(a, c_i, b)` of one
//!   output pair — sufficient statistics for every aggregation function
//!   `g` of the paper (Avg, Min, Max, RelativeLeft/Right, Relative;
//!   Figure 5).

use std::ops::Range;

use crate::mapping_table::MappingTable;

/// Co-scan `inputs` in canonical order: `visit(domain, range, sims)` is
/// called once per distinct pair of the union of all inputs, pairs
/// ascending, with `sims[i]` the pair's similarity in `inputs[i]` (`None`
/// where absent). Rows a visitor emits in call order are canonical.
pub fn cogroup(inputs: &[&MappingTable], mut visit: impl FnMut(u32, u32, &[Option<f64>])) {
    let rows: Vec<_> = inputs.iter().map(|t| t.canonical()).collect();
    let mut pos = vec![0usize; rows.len()];
    let mut sims = vec![None; rows.len()];
    let head = |i: usize, pos: &[usize]| rows[i].get(pos[i]).map(|c| (c.domain, c.range));
    while let Some(pair) = (0..rows.len()).filter_map(|i| head(i, &pos)).min() {
        for i in 0..rows.len() {
            sims[i] = None;
            if head(i, &pos) == Some(pair) {
                sims[i] = Some(rows[i][pos[i]].sim);
                pos[i] += 1;
            }
        }
        visit(pair.0, pair.1, &sims);
    }
}

/// Ids above `2 × items + SPARSE_SLACK` are ranked before they index an
/// array.
const SPARSE_SLACK: usize = 65_536;

/// Items grouped by a `u32` id: a stable counting sort.
///
/// [`IdGroups::count`] walks the ids once for their largest value and once
/// to count them, and keeps the offset array (CSR): the items of id `x`
/// are positions [`IdGroups::span`]`(x)` of the grouped order, which
/// [`IdGroups::positions`] scatters in one more pass. Groups ascend by id
/// and the positions within a group ascend, so grouping canonical rows by
/// range keeps each group in domain order. The slot array is sized by the
/// largest id; when that exceeds `2 × items + 65 536`, the distinct ids
/// are ranked first (one sort), so memory stays O(items) for any ids. The
/// groups are the same either way.
#[derive(Debug, Clone)]
pub struct IdGroups {
    /// The distinct ids, ascending, when they are ranked: slot `s` holds
    /// id `ranks[s]`. `None`: slot `s` holds id `s`.
    ranks: Option<Vec<u32>>,
    /// Slot `s` covers `offsets[s]..offsets[s + 1]` of the grouped order;
    /// one entry more than there are slots.
    offsets: Vec<u32>,
}

impl IdGroups {
    /// Count `ids`, one per item.
    pub fn count<I>(ids: I) -> Self
    where
        I: IntoIterator<Item = u32>,
        I::IntoIter: Clone,
    {
        let ids = ids.into_iter();
        let (items, max) = ids
            .clone()
            .fold((0usize, None), |(n, max), id| (n + 1, max.max(Some(id))));
        let ranks = max
            .filter(|&max| max as usize > 2 * items + SPARSE_SLACK)
            .map(|_| {
                let mut distinct: Vec<u32> = ids.clone().collect();
                distinct.sort_unstable();
                distinct.dedup();
                distinct
            });
        let slots = match (&ranks, max) {
            (Some(ranks), _) => ranks.len(),
            (None, max) => max.map_or(0, |max| max as usize + 1),
        };
        let mut groups = Self {
            ranks,
            offsets: vec![0; slots + 1],
        };
        for id in ids {
            let s = groups.counted(id);
            groups.offsets[s + 1] += 1;
        }
        for s in 1..=slots {
            groups.offsets[s] += groups.offsets[s - 1];
        }
        groups
    }

    /// Whether the ids were ranked (too sparse to index an array).
    pub fn is_ranked(&self) -> bool {
        self.ranks.is_some()
    }

    /// Number of slots: the largest id + 1, or the distinct ids if ranked.
    pub fn slots(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The slot of `id`, if `id` may have been counted.
    #[inline]
    pub fn slot(&self, id: u32) -> Option<usize> {
        match &self.ranks {
            Some(ranks) => ranks.binary_search(&id).ok(),
            None => ((id as usize) < self.slots()).then_some(id as usize),
        }
    }

    #[inline]
    fn counted(&self, id: u32) -> usize {
        self.slot(id).expect("an id that was counted")
    }

    /// The id of slot `s`.
    pub fn id(&self, s: usize) -> u32 {
        self.ranks.as_ref().map_or(s as u32, |ranks| ranks[s])
    }

    /// Positions of slot `s` in the grouped order.
    pub fn span_at(&self, s: usize) -> Range<usize> {
        self.offsets[s] as usize..self.offsets[s + 1] as usize
    }

    /// Positions of the items with `id` in the grouped order; empty for an
    /// id that was not counted.
    pub fn span(&self, id: u32) -> Range<usize> {
        self.slot(id).map_or(0..0, |s| self.span_at(s))
    }

    /// The non-empty groups, ascending by id: `(id, span)`.
    pub fn spans(&self) -> impl Iterator<Item = (u32, Range<usize>)> + '_ {
        (0..self.slots())
            .map(|s| (self.id(s), self.span_at(s)))
            .filter(|(_, span)| !span.is_empty())
    }

    /// The grouped order: the positions `0..` of `ids` — the ids that were
    /// counted, in any order — scattered by id, stable.
    pub fn positions(&self, ids: impl IntoIterator<Item = u32>) -> Vec<u32> {
        let mut next = self.offsets[..self.slots()].to_vec();
        let mut grouped = vec![0; self.offsets[self.slots()] as usize];
        for (pos, id) in (0u32..).zip(ids) {
            let s = self.counted(id);
            grouped[next[s] as usize] = pos;
            next[s] += 1;
        }
        grouped
    }
}

/// Sufficient statistics for the path similarities of one output pair.
/// The default holds no path (`count` 0).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PathStats {
    /// Smallest per-path similarity.
    pub min: f64,
    /// Largest per-path similarity.
    pub max: f64,
    /// Sum of per-path similarities — the `s(a,b)` of Figure 5.
    pub sum: f64,
    /// Number of compose paths.
    pub count: u32,
}

impl PathStats {
    /// Statistics of a single path.
    pub fn one(sim: f64) -> Self {
        Self {
            min: sim,
            max: sim,
            sum: sim,
            count: 1,
        }
    }

    /// Fold in one more path.
    pub fn add(&mut self, sim: f64) {
        self.min = self.min.min(sim);
        self.max = self.max.max(sim);
        self.sum += sim;
        self.count += 1;
    }

    /// Mean path similarity.
    pub fn avg(&self) -> f64 {
        self.sum / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups(inputs: &[&MappingTable]) -> Vec<(u32, u32, Vec<Option<f64>>)> {
        let mut out = Vec::new();
        cogroup(inputs, |d, r, sims| out.push((d, r, sims.to_vec())));
        out
    }

    fn grouped(ids: &[u32]) -> (IdGroups, Vec<u32>) {
        let groups = IdGroups::count(ids.iter().copied());
        let order = groups.positions(ids.iter().copied());
        (groups, order)
    }

    #[test]
    fn id_groups_are_a_stable_counting_sort() {
        let ids = [3, 1, 3, 0, 1, 3];
        let (groups, order) = grouped(&ids);
        assert!(!groups.is_ranked());
        assert_eq!(groups.slots(), 4);
        assert_eq!(order, vec![3, 1, 4, 0, 2, 5]);
        let spans: Vec<_> = groups.spans().collect();
        assert_eq!(spans, vec![(0, 0..1), (1, 1..3), (3, 3..6)]);
        assert_eq!(groups.span(2), 3..3);
        assert_eq!(groups.span(4), 0..0);
        assert_eq!(groups.span(u32::MAX), 0..0);
        assert_eq!(groups.slot(3), Some(3));
    }

    #[test]
    fn id_groups_of_nothing() {
        let (groups, order) = grouped(&[]);
        assert_eq!((groups.slots(), order.len()), (0, 0));
        assert_eq!(groups.spans().count(), 0);
        assert_eq!(groups.span(0), 0..0);
    }

    #[test]
    fn sparse_ids_are_ranked_with_the_same_groups() {
        // Two items: the bound is 2 × 2 + 65 536.
        let (below, _) = grouped(&[0, 65_540]);
        assert!(!below.is_ranked());
        assert_eq!(below.slots(), 65_541);
        let ids = [u32::MAX - 1, 7, u32::MAX - 1, 0, 7];
        let (groups, order) = grouped(&ids);
        assert!(groups.is_ranked());
        assert_eq!(groups.slots(), 3);
        assert_eq!(order, vec![3, 1, 4, 0, 2]);
        let spans: Vec<_> = groups.spans().collect();
        assert_eq!(spans, vec![(0, 0..1), (7, 1..3), (u32::MAX - 1, 3..5)]);
        assert_eq!((groups.slot(7), groups.id(1)), (Some(1), 7));
        assert_eq!(groups.span(8), 0..0);
        assert_eq!(groups.span(u32::MAX), 0..0);
        let (edge, _) = grouped(&[0, 65_541]);
        assert!(edge.is_ranked());
    }

    #[test]
    fn path_stats_single_path() {
        let st = PathStats::one(0.6);
        assert_eq!(st.count, 1);
        assert_eq!(st.sum, 0.6);
        assert_eq!(st.min, 0.6);
        assert_eq!(st.max, 0.6);
        assert_eq!(st.avg(), 0.6);
    }

    #[test]
    fn path_stats_accumulate() {
        let mut st = PathStats::one(0.9);
        st.add(0.3);
        st.add(0.6);
        assert_eq!(st.count, 3);
        assert_eq!(st.min, 0.3);
        assert_eq!(st.max, 0.9);
        assert!((st.avg() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn cogroup_no_inputs_visits_nothing() {
        assert!(groups(&[]).is_empty());
    }

    #[test]
    fn cogroup_one_input_visits_its_canonical_rows() {
        let mut raw = MappingTable::new();
        raw.push(2, 1, 0.5);
        raw.push(0, 3, 0.2);
        raw.push(2, 1, 0.7);
        assert_eq!(
            groups(&[&raw]),
            vec![(0, 3, vec![Some(0.2)]), (2, 1, vec![Some(0.7)])]
        );
    }

    #[test]
    fn cogroup_three_inputs_align_by_pair() {
        let a = MappingTable::from_triples([(0, 1, 0.1), (1, 1, 0.2)]);
        let b = MappingTable::from_triples([(0, 1, 0.3), (0, 2, 0.4)]);
        let c = MappingTable::from_triples([(1, 1, 0.5), (9, 9, 0.6)]);
        assert_eq!(
            groups(&[&a, &b, &c]),
            vec![
                (0, 1, vec![Some(0.1), Some(0.3), None]),
                (0, 2, vec![None, Some(0.4), None]),
                (1, 1, vec![Some(0.2), None, Some(0.5)]),
                (9, 9, vec![None, None, Some(0.6)]),
            ]
        );
    }

    #[test]
    fn cogroup_empty_inputs() {
        let e = MappingTable::new();
        let t = MappingTable::from_triples([(4, 5, 0.5)]);
        assert!(groups(&[&e, &e]).is_empty());
        assert_eq!(groups(&[&e, &t]), vec![(4, 5, vec![None, Some(0.5)])]);
        assert_eq!(groups(&[&t, &e]), vec![(4, 5, vec![Some(0.5), None])]);
    }

    #[test]
    fn cogroup_all_equal_inputs() {
        let t = MappingTable::from_triples([(0, 0, 0.9), (0, 1, 0.8), (3, 2, 0.7)]);
        let got = groups(&[&t, &t, &t]);
        assert_eq!(got.len(), t.len());
        for ((d, r, sims), c) in got.iter().zip(t.iter()) {
            assert_eq!((*d, *r), (c.domain, c.range));
            assert_eq!(sims, &vec![Some(c.sim); 3]);
        }
    }
}

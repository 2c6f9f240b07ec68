//! Grouping over canonical mapping tables.
//!
//! Every table is `(domain, range)`-sorted and pair-unique (see
//! [`MappingTable`]), so "group rows by pair" is a co-scan and "group rows
//! by instance" a run scan (`slice::chunk_by`) — never a hash build:
//!
//! * [`cogroup`] — the one co-scan under `merge`, `union`, `intersection`
//!   and `difference`: visits every pair of any input once, in canonical
//!   order, with its similarity in each input;
//! * [`PathStats`] — the running `min`, `max`, `sum` and `count` the
//!   compose operator folds over the compose paths `(a, c_i, b)` of one
//!   output pair — sufficient statistics for every aggregation function
//!   `g` of the paper (Avg, Min, Max, RelativeLeft/Right, Relative;
//!   Figure 5).

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

/// Sufficient statistics for the path similarities of one output pair.
#[derive(Debug, Clone, Copy, PartialEq)]
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

//! Descriptive statistics over a mapping table.
//!
//! Used by the evaluation harness (dataset summaries, Table 1) and by the
//! self-tuner to characterize candidate mappings.

use crate::mapping_table::MappingTable;

/// Summary statistics of a mapping table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Number of correspondences.
    pub rows: usize,
    /// Number of distinct domain objects.
    pub distinct_domains: usize,
    /// Number of distinct range objects.
    pub distinct_ranges: usize,
    /// Minimum similarity (0 for an empty table).
    pub min_sim: f64,
    /// Maximum similarity (0 for an empty table).
    pub max_sim: f64,
    /// Mean similarity (0 for an empty table).
    pub mean_sim: f64,
    /// Mean correspondences per distinct domain object.
    pub mean_domain_fanout: f64,
    /// Largest correspondences count of any single domain object.
    pub max_domain_fanout: u32,
}

impl TableStats {
    /// Compute statistics for `table`.
    pub fn of(table: &MappingTable) -> Self {
        if table.is_empty() {
            return Self {
                rows: 0,
                distinct_domains: 0,
                distinct_ranges: 0,
                min_sim: 0.0,
                max_sim: 0.0,
                mean_sim: 0.0,
                mean_domain_fanout: 0.0,
                max_domain_fanout: 0,
            };
        }
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for c in table.iter() {
            min = min.min(c.sim);
            max = max.max(c.sim);
            sum += c.sim;
        }
        let degrees = table.domain_degrees();
        let distinct_domains = degrees.len();
        let max_fan = degrees.values().copied().max().unwrap_or(0);
        Self {
            rows: table.len(),
            distinct_domains,
            distinct_ranges: table.distinct_ranges(),
            min_sim: min,
            max_sim: max,
            mean_sim: sum / table.len() as f64,
            mean_domain_fanout: table.len() as f64 / distinct_domains as f64,
            max_domain_fanout: max_fan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table() {
        let s = TableStats::of(&MappingTable::new());
        assert_eq!(s.rows, 0);
        assert_eq!(s.mean_sim, 0.0);
        assert_eq!(s.max_domain_fanout, 0);
    }

    #[test]
    fn basic_stats() {
        let t = MappingTable::from_triples([(0, 1, 0.2), (0, 2, 0.8), (1, 1, 0.5)]);
        let s = TableStats::of(&t);
        assert_eq!(s.rows, 3);
        assert_eq!(s.distinct_domains, 2);
        assert_eq!(s.distinct_ranges, 2);
        assert_eq!(s.min_sim, 0.2);
        assert_eq!(s.max_sim, 0.8);
        assert!((s.mean_sim - 0.5).abs() < 1e-12);
        assert_eq!(s.max_domain_fanout, 2);
        assert!((s.mean_domain_fanout - 1.5).abs() < 1e-12);
    }
}

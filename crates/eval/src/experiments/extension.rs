//! Extension experiment: GS duplicate pre-clustering (paper Section 5.6
//! outlook).
//!
//! "In future work we will therefore explore match workflows which first
//! determine the duplicates within dirty sources such as Google Scholar
//! and represent them as self-mappings (identifying clusters of duplicate
//! entries). These self-mappings can then be composed with same-mappings
//! between GS and other sources such as DBLP and ACM to find more
//! correspondences."
//!
//! We implement exactly that: take the GS cluster self-mapping, collapse
//! each cluster to a representative, match DBLP against representatives
//! only, then *expand* the result back over the clusters — every
//! duplicate entry inherits its representative's correspondences.

use moma_core::cluster::{collapse_domain, expand_domain, representatives};
use moma_core::Mapping;

use crate::artifact::{Artifact, Claim, Group};
use crate::metrics::MatchQuality;
use crate::report::Report;
use crate::setup::EvalContext;

/// The cluster-expanded DBLP→GS mapping.
pub fn clustered_mapping(ctx: &EvalContext) -> Mapping {
    let scenario = &ctx.scenario;
    let gs_count = scenario.registry.lds(scenario.ids.pub_gs).len() as u32;
    let clusters = ctx.mapping("GS.Clusters");
    let reps = representatives(&clusters, gs_count).expect("representatives");

    // Start from the Table 7 merged mapping (title + author
    // neighborhood), inverted to GS→DBLP so the GS side is the domain
    // we collapse/expand over.
    let base = ctx.mapping("Paper.Table7").inverse();
    let collapsed = collapse_domain(&base, &reps);
    expand_domain(&collapsed, &reps).inverse()
}

/// Run the extension experiment: baseline (Table 7 merge) vs
/// cluster-expanded matching.
pub fn run(ctx: &EvalContext) -> Report {
    let gold = &ctx.scenario.gold.pub_dblp_gs;
    let baseline = MatchQuality::evaluate(&ctx.mapping("Paper.Table7"), gold);
    let clustered = MatchQuality::evaluate(&clustered_mapping(ctx), gold);

    let mut r = Report::new(
        "Extension (paper 5.6 outlook): GS duplicate pre-clustering for DBLP-GS matching",
        vec!["Metric", BASELINE, EXPANDED],
    );
    r.quality_rows(&[baseline, clustered]);
    r.note("GS clusters collapse to representatives before matching; results expand back over all duplicate entries");
    r
}

const BASELINE: &str = "Table 7 merge";
const EXPANDED: &str = "With GS cluster expansion";

/// The paper's Section 5.6 outlook, as an experiment.
pub const ARTIFACT: Artifact = Artifact {
    id: "ext-clusters",
    group: Group::Extra,
    run,
    paper: &[],
    claims: &[Claim {
        text: "composing with the GS duplicate self-mapping finds more correspondences: recall does not drop, F stays within 3 points",
        holds: |r| {
            r.num("Recall", EXPANDED) >= r.num("Recall", BASELINE)
                && r.num("F-Measure", EXPANDED) + 3.0 >= r.num("F-Measure", BASELINE)
        },
    }],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expanded_mapping_covers_baseline() {
        let ctx = EvalContext::small();
        let base = ctx.mapping("Paper.Table7");
        let ext = clustered_mapping(&ctx);
        // Expansion only adds pairs (over clustered entries); it never
        // removes a baseline correspondence.
        let ext_pairs = ext.table.pair_set();
        for c in base.table.iter() {
            assert!(ext_pairs.contains(&(c.domain, c.range)));
        }
        assert!(ext.len() >= base.len());
    }
}

//! End-to-end integration: generated scenario → the paper's best
//! workflows → evaluation, spanning every crate of the workspace through
//! the facade.

use moma::eval::{EvalContext, ARTIFACTS};

/// Table 10's conclusions — the clean pair beats both dirty pairs, every
/// pair stays useful — reached through the facade's re-export of the
/// fidelity instrument (the per-seed gate lives in `moma-eval`).
#[test]
fn matching_quality_holds_across_the_three_sources() {
    let ctx = EvalContext::small();
    let summary = ARTIFACTS
        .iter()
        .find(|a| a.id == "table10")
        .expect("the summary table is an artifact");
    let report = (summary.run)(&ctx);
    assert!(summary.holds(&report), "{}", report.render(summary));
}

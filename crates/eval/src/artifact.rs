//! The fidelity instrument: every table and figure of the paper is one
//! [`Artifact`] row. The `repro` binary, the artifact test and
//! `EXPERIMENTS.md` are loops over [`ARTIFACTS`].

use crate::experiments::{
    extension, profile, table1, table10, table2, table3, table4, table5, table6, table7, table8,
    table9, tuning,
};
use crate::figures::{architecture, strategies, worked_examples};
use crate::report::Report;
use crate::setup::EvalContext;

/// What `repro tables` / `figures` / `extras` select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Tables 1–10 of the paper.
    Table,
    /// Figures 1–11 of the paper.
    Figure,
    /// Experiments beyond the paper's numbered artifacts.
    Extra,
}

impl Group {
    fn plural(self) -> &'static str {
        match self {
            Group::Table => "tables",
            Group::Figure => "figures",
            Group::Extra => "extras",
        }
    }
}

/// A conclusion of the paper, checked on the generated world.
pub struct Claim {
    /// The conclusion, stated as the paper states it.
    pub text: &'static str,
    /// Whether `report` supports it.
    pub holds: fn(&Report) -> bool,
}

/// One table or figure of the paper: how to measure it, what the paper
/// printed, and what the paper concluded from it.
pub struct Artifact {
    /// The name `repro` takes (`table4`, `fig6`, `ext-clusters`).
    pub id: &'static str,
    /// Its group.
    pub group: Group,
    /// Measure it on a generated world.
    pub run: fn(&EvalContext) -> Report,
    /// The paper's numbers as `(row, column, value)` of the report.
    pub paper: &'static [(&'static str, &'static str, f64)],
    /// The paper's conclusions; `repro` exits 1 when one fails.
    pub claims: &'static [Claim],
}

impl Artifact {
    /// Whether every claim holds on `report`.
    pub fn holds(&self, report: &Report) -> bool {
        self.claims.iter().all(|claim| (claim.holds)(report))
    }
}

/// Every artifact, in the order `repro all` prints them.
pub const ARTIFACTS: &[&Artifact] = &[
    &table1::ARTIFACT,
    &table2::ARTIFACT,
    &table3::ARTIFACT,
    &table4::ARTIFACT,
    &table5::ARTIFACT,
    &table6::ARTIFACT,
    &table7::ARTIFACT,
    &table8::ARTIFACT,
    &table9::ARTIFACT,
    &table10::ARTIFACT,
    &extension::ARTIFACT,
    &tuning::ARTIFACT,
    &profile::ARTIFACT,
    &worked_examples::FIG1,
    &architecture::FIG2,
    &architecture::FIG3,
    &worked_examples::FIG4,
    &worked_examples::FIG5,
    &worked_examples::FIG6,
    &strategies::FIG7,
    &strategies::FIG8,
    &worked_examples::FIG9,
    &strategies::FIG10,
    &strategies::FIG11,
];

/// The artifacts a `repro` argument names: `all`, a group or one id.
pub fn select(target: &str) -> Vec<&'static Artifact> {
    let named = |a: &&Artifact| target == "all" || target == a.group.plural() || target == a.id;
    ARTIFACTS.iter().copied().filter(named).collect()
}

/// `repro`'s usage text.
pub fn usage() -> String {
    let ids: Vec<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
    format!(
        "usage: repro [--small] <artifact>...\n\
         artifacts: all | tables | figures | extras | {}",
        ids.join(" | ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_datagen::WorldConfig;

    #[test]
    fn ids_are_unique_and_usage_lists_exactly_them() {
        let usage = usage();
        let listed: Vec<&str> = usage.rsplit(": ").next().unwrap().split(" | ").collect();
        let ids: Vec<&str> = ARTIFACTS.iter().map(|a| a.id).collect();
        assert_eq!(listed[4..], ids[..]);
        for (i, id) in ids.iter().enumerate() {
            assert!(!id.is_empty());
            assert!(!ids[..i].contains(id), "duplicate id {id}");
            assert_eq!(select(id).len(), 1);
        }
        assert_eq!(select("all").len(), ARTIFACTS.len());
        assert_eq!(select("tables").len(), 10);
        assert_eq!(select("figures").len(), 11);
        assert_eq!(select("extras").len(), 3);
        assert!(select("table11").is_empty());
    }

    /// The gate: every artifact runs, every paper value names a cell its
    /// report has, and every claim holds — on three generated worlds.
    #[test]
    fn every_claim_holds_on_three_seeds() {
        for seed in [42, 1, 2] {
            let ctx = EvalContext::with_config(WorldConfig {
                seed,
                ..WorldConfig::small()
            });
            for a in ARTIFACTS {
                let report = (a.run)(&ctx);
                for (row, column, _) in a.paper {
                    let cell = report.num(row, column);
                    assert!(!cell.is_nan(), "{}: no number at {row} / {column}", a.id);
                }
                let rendered = report.render(a);
                assert!(a.holds(&report), "seed {seed}:\n{rendered}");
                assert!(!rendered.contains("FAILS"), "seed {seed}:\n{rendered}");
            }
        }
    }

    /// The gate can fail: one falsified claim fails the artifact (what
    /// `repro` turns into exit status 1) and prints as FAILS.
    #[test]
    fn a_falsified_claim_fails_the_gate() {
        let falsified = Artifact {
            claims: &[Claim {
                text: "ACM lists more venues than DBLP",
                holds: |r| r.num("ACM DL", "Venues") > r.num("DBLP", "Venues"),
            }],
            ..table1::ARTIFACT
        };
        let report = (falsified.run)(&EvalContext::small());
        assert!(table1::ARTIFACT.holds(&report));
        assert!(!falsified.holds(&report));
        let rendered = report.render(&falsified);
        assert!(rendered.contains("- claim: ACM lists more venues than DBLP — FAILS\n"));
    }
}

//! Regenerate every table and figure of the MOMA paper.
//!
//! ```text
//! repro all                # every artifact; this is EXPERIMENTS.md
//! repro tables | figures | extras
//! repro table4 fig6 ...    # individual artifacts
//! repro --small table2     # use the small test scenario (fast)
//! ```
//!
//! Reports go to stdout, timings to stderr. Exit status 1 when a claim
//! of the paper FAILS on the generated world, 2 on a usage error.

use std::time::Instant;

use moma_eval::artifact::{select, usage};
use moma_eval::EvalContext;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small");
    let targets = args.iter().filter(|a| !a.starts_with("--"));
    let artifacts: Vec<_> = targets.map(|t| (t, select(t))).collect();
    let unknown = artifacts.iter().find(|(_, named)| named.is_empty());
    if let Some((target, _)) = unknown {
        eprintln!("unknown artifact `{target}`");
    }
    if artifacts.is_empty() || unknown.is_some() {
        eprintln!("{}", usage());
        std::process::exit(2);
    }

    let t0 = Instant::now();
    let (scale, ctx) = if small {
        ("small", EvalContext::small())
    } else {
        ("paper-scale", EvalContext::paper_scale())
    };
    eprintln!("{scale} scenario ready in {:.1?}", t0.elapsed());
    println!(
        "# EXPERIMENTS — the paper's tables and figures, measured\n\n\
         Output of `repro` on the {scale} scenario (seed {}); the committed file is `repro all`, and CI diffs the two.\n\
         A cell the paper gives a value for reads `measured / paper / Δ`. A `claim:` line is a conclusion of the\n\
         paper checked on the generated world: `holds`, or `FAILS` — then `repro` exits 1.",
        ctx.scenario.world.config.seed
    );
    let mut all_hold = true;
    for artifact in artifacts.into_iter().flat_map(|(_, named)| named) {
        let t = Instant::now();
        let report = (artifact.run)(&ctx);
        println!("\n{}", report.render(artifact).trim_end());
        all_hold &= artifact.holds(&report);
        eprintln!("[{} in {:.1?}]", artifact.id, t.elapsed());
    }
    eprintln!("total {:.1?}", t0.elapsed());
    if !all_hold {
        std::process::exit(1);
    }
}

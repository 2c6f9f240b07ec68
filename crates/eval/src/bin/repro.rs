//! Regenerate every table and figure of the MOMA paper.
//!
//! ```text
//! repro all                # everything (tables 1-10, figures 1-11)
//! repro tables             # all tables
//! repro figures            # all figures
//! repro table4 fig6 ...    # individual artifacts
//! repro --small table2     # use the small test scenario (fast)
//! ```
//!
//! By default the paper-scale scenario is generated (Table 1 sized;
//! expect a few minutes for the full suite in release mode).

use std::time::Instant;

use moma_eval::{experiments, figures, EvalContext};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--small] <artifact>...\n\
         artifacts: all | tables | figures | table1..table10 | fig1..fig11 | ext-clusters | tuning | profile"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let small = args.iter().any(|a| a == "--small");
    let targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if targets.is_empty() {
        usage();
    }

    let t0 = Instant::now();
    eprintln!(
        "generating {} scenario...",
        if small { "small" } else { "paper-scale" }
    );
    let ctx = if small {
        EvalContext::small()
    } else {
        EvalContext::paper_scale()
    };
    eprintln!("scenario ready in {:.1?}", t0.elapsed());

    let mut ran_any = false;
    let mut run = |name: &str, build: &mut dyn FnMut() -> moma_eval::Report| {
        let t = Instant::now();
        let report = build();
        let elapsed = t.elapsed();
        println!("{report}");
        eprintln!("[{name} in {elapsed:.1?}]\n");
        ran_any = true;
    };

    for target in &targets {
        match *target {
            "all" | "tables" => {
                run("table1", &mut || experiments::table1::run(&ctx));
                run("table2", &mut || experiments::table2::run(&ctx));
                run("table3", &mut || experiments::table3::run(&ctx));
                run("table4", &mut || experiments::table4::run(&ctx));
                run("table5", &mut || experiments::table5::run(&ctx));
                run("table6", &mut || experiments::table6::run(&ctx));
                run("table7", &mut || experiments::table7::run(&ctx));
                run("table8", &mut || experiments::table8::run(&ctx));
                run("table9", &mut || experiments::table9::run(&ctx));
                run("table10", &mut || experiments::table10::run(&ctx));
                run("ext-clusters", &mut || experiments::extension::run(&ctx));
                run("tuning", &mut || experiments::tuning::run(&ctx));
                if *target == "tables" {
                    continue;
                }
                run("fig1", &mut || figures::fig1());
                run("fig2", &mut || figures::fig2());
                run("fig3", &mut || figures::fig3());
                run("fig4", &mut || figures::fig4());
                run("fig5", &mut || figures::fig5());
                run("fig6", &mut || figures::fig6());
                run("fig7", &mut || figures::fig7());
                run("fig8", &mut || figures::fig8());
                run("fig9", &mut || figures::fig9());
                run("fig10", &mut || figures::fig10());
                run("fig11", &mut || figures::fig11(&ctx));
            }
            "figures" => {
                run("fig1", &mut || figures::fig1());
                run("fig2", &mut || figures::fig2());
                run("fig3", &mut || figures::fig3());
                run("fig4", &mut || figures::fig4());
                run("fig5", &mut || figures::fig5());
                run("fig6", &mut || figures::fig6());
                run("fig7", &mut || figures::fig7());
                run("fig8", &mut || figures::fig8());
                run("fig9", &mut || figures::fig9());
                run("fig10", &mut || figures::fig10());
                run("fig11", &mut || figures::fig11(&ctx));
            }
            "table1" => run("table1", &mut || experiments::table1::run(&ctx)),
            "table2" => run("table2", &mut || experiments::table2::run(&ctx)),
            "table3" => run("table3", &mut || experiments::table3::run(&ctx)),
            "table4" => run("table4", &mut || experiments::table4::run(&ctx)),
            "table5" => run("table5", &mut || experiments::table5::run(&ctx)),
            "table6" => run("table6", &mut || experiments::table6::run(&ctx)),
            "table7" => run("table7", &mut || experiments::table7::run(&ctx)),
            "table8" => run("table8", &mut || experiments::table8::run(&ctx)),
            "table9" => run("table9", &mut || experiments::table9::run(&ctx)),
            "table10" => run("table10", &mut || experiments::table10::run(&ctx)),
            "ext-clusters" | "extension" => {
                run("ext-clusters", &mut || experiments::extension::run(&ctx))
            }
            "tuning" => run("tuning", &mut || experiments::tuning::run(&ctx)),
            "profile" => run("profile", &mut || experiments::profile::run(&ctx)),
            "fig1" => run("fig1", &mut || figures::fig1()),
            "fig2" => run("fig2", &mut || figures::fig2()),
            "fig3" => run("fig3", &mut || figures::fig3()),
            "fig4" => run("fig4", &mut || figures::fig4()),
            "fig5" => run("fig5", &mut || figures::fig5()),
            "fig6" => run("fig6", &mut || figures::fig6()),
            "fig7" => run("fig7", &mut || figures::fig7()),
            "fig8" => run("fig8", &mut || figures::fig8()),
            "fig9" => run("fig9", &mut || figures::fig9()),
            "fig10" => run("fig10", &mut || figures::fig10()),
            "fig11" => run("fig11", &mut || figures::fig11(&ctx)),
            other => {
                eprintln!("unknown artifact `{other}`");
                usage();
            }
        }
    }
    if !ran_any {
        usage();
    }
    eprintln!("total {:.1?}", t0.elapsed());
}

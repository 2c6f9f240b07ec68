//! Parallel matching: the `Parallelism` knob end to end.
//!
//! MOMA's hot paths — attribute-matcher probing and trigram-index
//! construction — shard their input across threads and merge per-shard
//! results in a fixed order, so the output is bit-identical to a
//! sequential run at every thread count. This example demonstrates
//! exactly that on a generated bibliographic world and prints the
//! wall-clock times (speedup appears on multi-core hardware; determinism
//! holds everywhere). The mapping operators are sequential.
//!
//! ```bash
//! cargo run --release --example parallel_matching
//! MOMA_THREADS=8 cargo run --release --example parallel_matching
//! ```

use std::time::Instant;

use moma::core::blocking::Blocking;
use moma::core::exec::Parallelism;
use moma::core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma::datagen::{Scenario, WorldConfig};
use moma::simstring::SimFn;

fn main() {
    // A mid-size world: enough rows for sharding to engage.
    let mut cfg = WorldConfig::small();
    cfg.gs_noise_entries = 1_500;
    let scenario = Scenario::generate(cfg);

    // --- attribute matching: sequential vs parallel -------------------
    let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.75)
        .with_blocking(Blocking::TrigramPrefix);

    let seq_ctx = MatchContext::with_repository(&scenario.registry, &scenario.repository)
        .with_parallelism(Parallelism::sequential());
    let t0 = Instant::now();
    let sequential = matcher
        .execute(&seq_ctx, scenario.ids.pub_dblp, scenario.ids.pub_gs)
        .expect("sequential match");
    let seq_time = t0.elapsed();

    // `Parallelism::from_env` honors MOMA_THREADS (the CLI's --threads
    // flag passes an explicit `Parallelism` the same way this example
    // does); default is one thread per CPU.
    let par = Parallelism::from_env();
    let par_ctx = MatchContext::with_repository(&scenario.registry, &scenario.repository)
        .with_parallelism(par);
    let t0 = Instant::now();
    let parallel = matcher
        .execute(&par_ctx, scenario.ids.pub_dblp, scenario.ids.pub_gs)
        .expect("parallel match");
    let par_time = t0.elapsed();

    assert_eq!(
        sequential.table.rows(),
        parallel.table.rows(),
        "parallel matching must be bit-identical"
    );
    println!(
        "attribute match DBLP×GS: {} correspondences | sequential {seq_time:?}, \
         {} threads {par_time:?}",
        sequential.len(),
        par.threads
    );

    println!("deterministic at every thread count ✓");
}

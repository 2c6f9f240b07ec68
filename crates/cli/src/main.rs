//! `moma` — command-line object matching.
//!
//! ```text
//! moma run SCRIPT.ifs \
//!     --source data/dblp_pubs.tsv --source data/acm_pubs.tsv \
//!     --assoc  PubVenue=Publication@DBLP:Venue@DBLP:data/pub_venue.tsv \
//!     --out    result.tsv
//! ```
//!
//! Sources are TSV files with a `#source Type@PDS` directive and an
//! `id  attr:kind...` header (see `moma_ifuice::loader`); associations
//! are two-column id TSVs registered in the mapping repository under the
//! given name; the script is iFuice (see `moma_ifuice::script`). The
//! script's returned mapping is written as `domain_id  range_id  sim`.

use std::process::ExitCode;

use moma_core::MappingRepository;
use moma_ifuice::loader;
use moma_model::SourceRegistry;

const USAGE: &str = "\
usage:
  moma run <script.ifs> [--source <file.tsv>]... \\
           [--assoc <Name=DomainLds:RangeLds:file.tsv>]... \\
           [--threads <n>] [--blocking <strategy>] [--out <file>]
  moma check <script.ifs>         parse a script and report errors
  moma delta [--steps <n>] [--churn <f>] [--seed <n>] [--scale small|paper] \\
             [--threads <n>] [--blocking <strategy>] [--no-verify]
                                  incremental-matching demo on a generated
                                  evolving scenario (see below)
  moma serve [--addr <host:port>] [--source <file.tsv>]... \\
             [--scale small|paper] [--seed <n>] [--threads <n>] \\
             [--wal <dir>] [--replay] [--shards <n>] \\
             [--segment-records <n>] [--segment-bytes <n>] \\
             [--checkpoint-every-records <n>] \\
             [--max-connections <n>] [--max-pending-writes <n>] \\
             [--max-pending-reads <n>] [--retry-after-ms <n>]
                                  long-lived matching service (see below)
  moma help

A source file starts with `#source Type@PDS` and a header row
`id<TAB>attr:kind...` (kinds: text, list, int, year, real).
An association file holds `domain_id<TAB>range_id[<TAB>sim]` rows and is
stored in the repository under Name (scripts reference it as PDS.Member
or via get(\"Name\")).

--threads caps the worker threads used by matchers, joins and workflow
steps (overrides MOMA_THREADS; 1 = sequential; default: MOMA_THREADS or
one thread per CPU). Results are identical at every thread count.

--blocking pins the candidate-generation strategy of every attribute
matcher: `threshold` (exact T-occurrence pruning — identical results to
all-pairs, pruned before scoring), `trigram-prefix` (fast, lossy for
non-trigram measures) or `all-pairs` (no pruning). Default: `auto`,
threshold-exact for q-gram measures and trigram-prefix otherwise.

`moma delta` generates the synthetic DBLP/ACM/GS scenario, matches
Publication@DBLP x Publication@GS once, then streams seeded source
deltas (churn fraction of instances per step) through the incremental
delta-matching engine, printing per-step timings of incremental vs full
re-match. Unless --no-verify is given every step asserts the patched
mapping is bit-identical to a full re-match.

`moma serve` answers match/compose/query/batch_query/delta/batch_delta/
checkpoint/stats/dump/shutdown commands over a length-prefixed JSON
frame protocol (default address 127.0.0.1:7207; `moma_server::Client`
speaks it). Sources come from --source TSV files, or from the
generated evolving scenario when none are given (--scale/--seed as in
`moma delta`). With --wal DIR every mutating command is appended to an
fsync'd, segmented write-ahead log before it is applied; segments rotate
at --segment-records / --segment-bytes (default 8 MiB). A `checkpoint`
command (or the --checkpoint-every-records auto threshold, serviced by
a background thread off the delta path) publishes an atomic state dump
and prunes covered segments. `--replay`
recovers an existing log directory on startup: the newest valid
checkpoint is loaded and only the WAL suffix after it is re-executed,
restoring the pre-crash repository bit-identically.

--shards N partitions the service across N independent engines, each
with its own WAL directory (`<dir>/shard.<i>` under --wal), checkpoint
chain and admission budgets. Mutating commands are placed by source
ownership (an explicit `shard` field on `match` pins one), queries
route to the shard owning the mapping, `stats` merges a per-shard +
aggregate view, and recovery replays every shard's WAL independently
(see docs/ARCHITECTURE.md); --replay refuses a directory written at
another shard count. Default: 1 — the single-engine layout and wire
behavior are exactly as before.

Admission control: --max-connections (default 256) caps concurrent
connections — excess connections get one `busy` frame and are closed;
--max-pending-writes / --max-pending-reads (defaults 64 / 256) bound
in-flight commands per class — excess requests get an `overloaded`
response carrying a --retry-after-ms hint (default 100) and the
connection stays usable.";

/// Parse a `--blocking` value: `auto` (None) or a concrete strategy.
fn parse_blocking(name: &str) -> Result<Option<moma_core::blocking::Blocking>, String> {
    if name.eq_ignore_ascii_case("auto") {
        return Ok(None);
    }
    moma_core::blocking::Blocking::parse(name)
        .map(Some)
        .ok_or_else(|| {
            format!("--blocking must be auto, threshold, trigram-prefix or all-pairs, got `{name}`")
        })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match cmd_run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Some("check") => match cmd_check(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Some("delta") => match cmd_delta(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Some("serve") => match cmd_serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing script path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match moma_ifuice::script::parser::parse(&text) {
        Ok(script) => {
            println!("{path}: ok ({} statements)", script.stmts.len());
            Ok(())
        }
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// `moma delta`: demo + sanity harness for the incremental matching
/// engine on the generated evolving scenario.
fn cmd_delta(args: &[String]) -> Result<(), String> {
    use moma_core::blocking::Blocking;
    use moma_core::matchers::{AttributeMatcher, MatchContext, Matcher};
    use moma_datagen::{DeltaStream, EvolveConfig, Scenario, WorldConfig};
    use moma_simstring::SimFn;
    use std::time::Instant;

    let mut steps = 10usize;
    let mut churn = 0.01f64;
    let mut seed = 7u64;
    let mut scale = "small".to_owned();
    let mut threads: Option<usize> = None;
    let mut verify = true;
    let mut blocking: Option<Blocking> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--steps" => {
                steps = num("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?
            }
            "--churn" => {
                churn = num("--churn")?
                    .parse()
                    .map_err(|e| format!("--churn: {e}"))?
            }
            "--seed" => seed = num("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--scale" => scale = num("--scale")?,
            "--threads" => {
                threads = Some(
                    num("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--no-verify" => verify = false,
            "--blocking" => blocking = parse_blocking(&num("--blocking")?)?,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if !(0.0..=1.0).contains(&churn) {
        return Err("--churn must be in [0, 1]".into());
    }
    let mut cfg = match scale.as_str() {
        "small" => WorldConfig::small(),
        "paper" => WorldConfig::paper_scale(),
        other => return Err(format!("--scale must be small or paper, got `{other}`")),
    };
    cfg.seed = seed;
    let par = match threads {
        Some(0) => return Err("--threads must be at least 1".into()),
        Some(n) => moma_core::exec::Parallelism::new(n),
        None => moma_core::exec::Parallelism::from_env(),
    };

    eprintln!("generating {scale} scenario (seed {seed})...");
    let s = Scenario::generate(cfg);
    let mut registry = s.registry;
    let (dblp, gs) = (s.ids.pub_dblp, s.ids.pub_gs);
    // Default: threshold-exact blocking (trigram is a q-gram measure).
    let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.75);
    let blocking = blocking.unwrap_or_else(|| Blocking::auto_for(&matcher.sim));
    let matcher = matcher.with_blocking(blocking);

    let t0 = Instant::now();
    let ctx = MatchContext::new(&registry).with_parallelism(par);
    let mut state = matcher.prime(&ctx, dblp, gs).unwrap();
    let prime_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "primed {} x {}: {} correspondences in {prime_ms:.1} ms",
        registry.lds(dblp).name(),
        registry.lds(gs).name(),
        state.mapping().len(),
    );

    let mut stream = DeltaStream::new(
        EvolveConfig {
            seed,
            ..EvolveConfig::with_churn(churn)
        },
        gs,
    );
    println!("step\t|delta|\trescored\trows\tincr_ms\tfull_ms\tspeedup");
    let mut incr_total = 0.0f64;
    let mut full_total = 0.0f64;
    for step in 1..=steps {
        let delta = stream.next_delta(&registry);
        let applied = registry
            .apply_delta(&delta)
            .map_err(|e| format!("apply_delta: {e}"))?;
        let ctx = MatchContext::new(&registry).with_parallelism(par);

        let t = Instant::now();
        state.apply(&ctx, &[&applied]).map_err(|e| e.to_string())?;
        let incr_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let full = matcher.execute(&ctx, dblp, gs).map_err(|e| e.to_string())?;
        let full_ms = t.elapsed().as_secs_f64() * 1e3;

        if verify && state.mapping().table.rows() != full.table.rows() {
            return Err(format!(
                "step {step}: incremental result diverged from full re-match"
            ));
        }
        incr_total += incr_ms;
        full_total += full_ms;
        println!(
            "{step}\t{}\t{}\t{}\t{incr_ms:.2}\t{full_ms:.2}\t{:.1}x",
            delta.len(),
            state.last_rescored,
            state.mapping().len(),
            full_ms / incr_ms.max(1e-9),
        );
    }
    eprintln!(
        "totals: incremental {incr_total:.1} ms vs full {full_total:.1} ms ({:.1}x){}",
        full_total / incr_total.max(1e-9),
        if verify {
            "; all steps verified bit-identical"
        } else {
            ""
        }
    );
    Ok(())
}

/// `moma serve`: the long-lived matching service (see `moma-server`).
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use moma_datagen::{Scenario, WorldConfig};

    let mut addr = "127.0.0.1:7207".to_owned();
    let mut sources: Vec<&str> = Vec::new();
    let mut scale = "small".to_owned();
    let mut seed = 7u64;
    let mut threads: Option<usize> = None;
    let mut wal: Option<String> = None;
    let mut replay = false;
    let mut shards = 1usize;
    let mut policy = moma_server::DurabilityPolicy::default();
    let mut limits = moma_server::Limits::default();

    fn num_flag(flag: &str, v: Option<&String>) -> Result<u64, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a number"))
    }

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--source" => sources.push(it.next().ok_or("--source needs a file")?),
            "--scale" => scale = it.next().ok_or("--scale needs a value")?.clone(),
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed: `{v}` is not a number"))?;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                threads = Some(n);
            }
            "--wal" => wal = Some(it.next().ok_or("--wal needs a directory")?.clone()),
            "--replay" => replay = true,
            "--shards" => {
                let v = it.next().ok_or("--shards needs a count")?;
                shards = v
                    .parse()
                    .map_err(|_| format!("--shards: `{v}` is not a number"))?;
                if shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--segment-records" => policy.segment_records = num_flag(arg, it.next())?,
            "--segment-bytes" => policy.segment_bytes = num_flag(arg, it.next())?,
            "--checkpoint-every-records" => {
                policy.checkpoint_every_records = num_flag(arg, it.next())?;
            }
            "--max-connections" => limits.max_connections = num_flag(arg, it.next())?,
            "--max-pending-writes" => limits.max_pending_writes = num_flag(arg, it.next())?,
            "--max-pending-reads" => limits.max_pending_reads = num_flag(arg, it.next())?,
            "--retry-after-ms" => limits.retry_after_ms = num_flag(arg, it.next())?,
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if wal.is_none()
        && (replay
            || policy.segment_records != moma_server::DurabilityPolicy::default().segment_records
            || policy.segment_bytes != moma_server::DurabilityPolicy::default().segment_bytes
            || policy.checkpoint_every_records != 0)
    {
        return Err("--replay and the --segment-*/--checkpoint-every-* flags require --wal".into());
    }
    if let (Some(dir), true) = (&wal, replay) {
        check_wal_layout(dir, shards)?;
    }

    let registry = if sources.is_empty() {
        let mut cfg = match scale.as_str() {
            "small" => WorldConfig::small(),
            "paper" => WorldConfig::paper_scale(),
            other => return Err(format!("--scale must be small or paper, got `{other}`")),
        };
        cfg.seed = seed;
        eprintln!("moma serve: generating {scale} scenario (seed {seed})...");
        Scenario::generate(cfg).registry
    } else {
        let mut registry = SourceRegistry::new();
        for path in &sources {
            let id =
                loader::load_source(&mut registry, path).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "loaded {} ({} instances) from {path}",
                registry.lds(id).name(),
                registry.lds(id).len()
            );
        }
        registry
    };

    let par = match threads {
        Some(n) => moma_core::exec::Parallelism::new(n),
        None => moma_core::exec::Parallelism::from_env(),
    };
    // One engine per shard, each booted from an identical clone of the
    // full source registry (so arena ids agree across shards) with its
    // own WAL directory `<wal>/shard.<i>` and checkpoint chain. With
    // one shard (the default) the WAL lives directly in `<wal>` —
    // exactly the pre-shard layout.
    let mut engines = Vec::with_capacity(shards);
    for i in 0..shards {
        let mut engine = moma_server::Engine::new(registry.clone(), par);
        if let Some(base) = &wal {
            let path = if shards == 1 {
                base.clone()
            } else {
                format!("{base}/shard.{i}")
            };
            if replay {
                let summary = engine.recover(std::path::Path::new(&path), policy)?;
                eprintln!(
                    "moma serve: shard {i}: recovered from {path}: checkpoint seq {}, replayed \
                     {} WAL record(s), skipped {} covered record(s), {} segment(s){}{}",
                    summary.checkpoint_seq,
                    summary.replayed,
                    summary.skipped,
                    summary.segments,
                    if summary.dropped_bytes > 0 {
                        format!(" (dropped {}-byte torn tail)", summary.dropped_bytes)
                    } else {
                        String::new()
                    },
                    if summary.failed > 0 {
                        format!(
                            " ({} command(s) re-failed deterministically)",
                            summary.failed
                        )
                    } else {
                        String::new()
                    },
                );
            } else {
                engine
                    .wal_create(std::path::Path::new(&path), policy)
                    .map_err(|e| format!("--wal {path}: {e}"))?;
                eprintln!("moma serve: shard {i}: write-ahead log directory at {path}");
            }
        }
        engines.push(engine);
    }
    moma_server::run_sharded(engines, &addr, limits).map_err(|e| format!("serve {addr}: {e}"))
}

/// Refuse to `--replay` a log directory laid out for another shard
/// count before anything touches it: recovered as `shards` shards, the
/// other layout's logs would be silently dropped and fresh ones started
/// beside them. One shard keeps its segments and checkpoints at the
/// root of `dir`, N shards keep `shard.0` … `shard.<N-1>`; an empty or
/// missing directory fits any count.
fn check_wal_layout(dir: &str, shards: usize) -> Result<(), String> {
    use moma_server::{checkpoint, wal};
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(());
    };
    let (mut root_log, mut shard_logs) = (false, Vec::new());
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        root_log |= wal::parse_segment_index(&name).is_some()
            || checkpoint::parse_dir_name(&name).is_some();
        let index = name.strip_prefix("shard.").map(str::parse::<usize>);
        shard_logs.extend(index.and_then(Result::ok));
    }
    shard_logs.sort_unstable();
    let holds = match (root_log, shard_logs.len()) {
        (false, 0) => return Ok(()),
        (true, 0) => 1,
        (false, n) if n > 1 && shard_logs.iter().copied().eq(0..n) => n,
        _ => {
            return Err(format!(
                "{dir} holds no layout --shards can recover (a one-shard log: {root_log}, \
                 shard logs: {shard_logs:?})"
            ))
        }
    };
    let logs = match holds {
        _ if holds == shards => return Ok(()),
        1 => "a one-shard log".to_owned(),
        n => format!("{n} shard logs"),
    };
    Err(format!("{dir} holds {logs}; restart with --shards {holds}"))
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut script_path: Option<&str> = None;
    let mut sources: Vec<&str> = Vec::new();
    let mut assocs: Vec<&str> = Vec::new();
    let mut out: Option<&str> = None;
    let mut threads: Option<usize> = None;
    let mut blocking: Option<moma_core::blocking::Blocking> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--source" => sources.push(it.next().ok_or("--source needs a file")?),
            "--assoc" => assocs.push(it.next().ok_or("--assoc needs a spec")?),
            "--out" => out = Some(it.next().ok_or("--out needs a file")?),
            "--blocking" => {
                blocking = parse_blocking(it.next().ok_or("--blocking needs a strategy")?)?;
            }
            "--threads" => {
                let n = it.next().ok_or("--threads needs a count")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--threads: `{n}` is not a number"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                threads = Some(n);
            }
            other if script_path.is_none() && !other.starts_with("--") => script_path = Some(other),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let script_path = script_path.ok_or("missing script path")?;
    if sources.is_empty() {
        return Err("at least one --source is required".into());
    }

    // Load sources.
    let mut registry = SourceRegistry::new();
    for path in &sources {
        let id = loader::load_source(&mut registry, path).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "loaded {} ({} instances) from {path}",
            registry.lds(id).name(),
            registry.lds(id).len()
        );
    }

    // Load associations: Name=DomainLds:RangeLds:file.tsv
    let repository = MappingRepository::new();
    for spec in &assocs {
        let (name, rest) = spec
            .split_once('=')
            .ok_or_else(|| format!("bad --assoc `{spec}`"))?;
        let mut parts = rest.splitn(3, ':');
        let (Some(dom), Some(ran), Some(file)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("bad --assoc `{spec}` (expected Name=Dom:Ran:file)"));
        };
        let d = registry.resolve(dom).map_err(|e| e.to_string())?;
        let r = registry.resolve(ran).map_err(|e| e.to_string())?;
        let mapping = loader::load_association(&registry, file, name, name, d, r)
            .map_err(|e| format!("{file}: {e}"))?;
        eprintln!(
            "loaded association {name} ({} rows) from {file}",
            mapping.len()
        );
        repository.store_as(name, mapping);
    }

    // Run the script.
    let text = std::fs::read_to_string(script_path).map_err(|e| format!("{script_path}: {e}"))?;
    let par = match threads {
        Some(n) => moma_core::exec::Parallelism::new(n),
        None => moma_core::exec::Parallelism::from_env(),
    };
    let script = moma_ifuice::script::parser::parse(&text).map_err(|e| e.to_string())?;
    let mut interp =
        moma_ifuice::script::Interpreter::new(&registry, &repository).with_parallelism(par);
    if let Some(blocking) = blocking {
        interp = interp.with_blocking(blocking);
    }
    let value = interp.run(&script).map_err(|e| e.to_string())?;
    let Some(mapping) = value.as_mapping() else {
        return Err("script did not return a mapping".into());
    };
    eprintln!(
        "script returned `{}` with {} correspondences",
        mapping.name,
        mapping.len()
    );

    let tsv = loader::mapping_to_tsv(&registry, mapping);
    match out {
        Some(path) => {
            std::fs::write(path, tsv).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{tsv}"),
    }
    Ok(())
}

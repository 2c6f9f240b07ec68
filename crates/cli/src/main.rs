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
           [--threads <n>] [--out <file>]
  moma check <script.ifs>         parse a script and report errors
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

--threads caps the worker threads used by matchers (1 = sequential;
default: one thread per CPU). Results are identical at every thread
count. Each matcher picks its own candidate generation from its
measure: threshold-exact pruning (identical results to all-pairs) for
q-gram measures and TF-IDF, the trigram prefix filter otherwise.

`moma serve` answers match/compose/query/batch_query/delta/batch_delta/
checkpoint/stats/dump/shutdown commands over a length-prefixed JSON
frame protocol (default address 127.0.0.1:7207; `moma_server::Client`
speaks it). Sources come from --source TSV files, or from the
generated DBLP/ACM/GS scenario when none are given (--scale small|paper,
--seed). With --wal DIR every mutating command is appended to an
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
chain and admission budgets. Every source has one home shard, and
every mapping and every delta over it lives there: a `match` goes to
the home of its sources (an explicit `shard` field on `match` places
sources that have none), a `compose` to the shard of its inputs, and
a request that would span two homes is refused. Queries route to the
shard holding the mapping, `stats` merges a per-shard + aggregate
view, and recovery replays every shard's WAL independently (see
docs/ARCHITECTURE.md); --replay refuses a directory written at
another shard count, and a state holding one source on two shards. Default: 1 — the single-engine layout and wire
behavior are exactly as before.

Admission control: --max-connections (default 256) caps concurrent
connections — excess connections get one `busy` frame and are closed;
--max-pending-writes / --max-pending-reads (defaults 64 / 256) bound
in-flight commands per class — excess requests get an `overloaded`
response carrying a --retry-after-ms hint (default 100) and the
connection stays usable.";

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
        None => moma_core::exec::Parallelism::auto(),
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
                for (checkpoint, reason) in &summary.checkpoint_fallbacks {
                    eprintln!(
                        "warning: checkpoint {}: {reason}; falling back",
                        checkpoint.display()
                    );
                }
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

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--source" => sources.push(it.next().ok_or("--source needs a file")?),
            "--assoc" => assocs.push(it.next().ok_or("--assoc needs a spec")?),
            "--out" => out = Some(it.next().ok_or("--out needs a file")?),
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
        None => moma_core::exec::Parallelism::auto(),
    };
    let script = moma_ifuice::script::parser::parse(&text).map_err(|e| e.to_string())?;
    let mut interp =
        moma_ifuice::script::Interpreter::new(&registry, &repository).with_parallelism(par);
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

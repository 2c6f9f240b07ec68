//! `moma_load` — protocol driver for `moma serve`: the client half of
//! `scripts/serve_smoke.sh`. (Load generation and timing live in the
//! `benchmark/` package, workloads `serve_read` / `serve_write`.)
//!
//! Modes (first argument):
//!
//! * `smoke`    — endpoint conformance: drives every endpoint with a
//!   fixed, deterministic command sequence and asserts the responses.
//! * `batch`    — a deterministic delta batch as one `batch_delta` frame
//!   or as singles, plus `batch_query` ≡ singleton `query` byte identity.
//! * `overload` — embedded-server admission-control end-to-end.
//! * `stream`   — deterministic delta traffic: generates the evolving
//!   scenario's delta stream against a local shadow registry (so the
//!   i-th delta is identical across runs with the same seeds) and sends
//!   each one as a `delta` command.
//! * `scatter`  — sharded-server priming: one hinted self-match per
//!   shard over a distinct source, then deterministic deltas to each,
//!   so the sharded crash-recovery gate has traffic on every shard.
//! * `stat`     — print one numeric field of the `stats` response
//!   (dot-path, e.g. `commands.delta`).
//! * `dump`     — ask the server to persist its state to a directory.
//! * `checkpoint` — ask the server to publish a WAL checkpoint and
//!   prune covered segments.
//! * `shutdown` — stop the server.
//!
//! Exit codes: 0 ok, 1 assertion/usage failure, 3 connection lost
//! mid-stream (expected by the crash-recovery CI harness).

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use moma_datagen::{DeltaStream, EvolveConfig, Scenario, WorldConfig};
use moma_server::{protocol, Client, Json};

const USAGE: &str = "\
usage: moma_load <mode> [options]

modes:
  smoke      --addr H:P
  batch      --addr H:P [--items 6] [--singles 0|1]
            apply a deterministic delta batch (one batch_delta frame, or
            the same items as N single deltas with --singles 1) and
            assert batch_query responses are byte-identical to
            singleton queries
  overload  [--conn-cap 8] [--sleep-ms 1500] [--writers 4]
            [--scenario-seed 7]
            embedded-server overload e2e: saturate the write budget,
            assert explicit overloaded/busy frames, responsive reads,
            recovery, and zero panics
  stream     --addr H:P [--steps 50] [--seed 11] [--churn 0.02]
            [--scenario-seed 7] [--sleep-ms 0]
  scatter    --addr H:P [--shards 4] [--deltas 6]
            prime each shard of a sharded server: one hinted self-match
            per shard over a distinct source, then deterministic deltas
            to all of them
  stat       --addr H:P --key dotted.path
  dump       --addr H:P --dir DIR
  checkpoint --addr H:P
  shutdown   --addr H:P
";

/// One row per mode: name, the `--flags` of its [`USAGE`] block, handler.
/// A flag the mode does not list is a usage error, not a silent default:
/// the crash-recovery harness diffs server states that depend on how
/// many deltas `--steps` sent.
const MODES: &[(&str, &[&str], fn(&Opts) -> Result<ExitCode, String>)] = &[
    ("smoke", &["addr"], cmd_smoke),
    ("batch", &["addr", "items", "singles"], cmd_batch),
    (
        "overload",
        &["conn-cap", "sleep-ms", "writers", "scenario-seed"],
        cmd_overload,
    ),
    (
        "stream",
        &[
            "addr",
            "steps",
            "seed",
            "churn",
            "scenario-seed",
            "sleep-ms",
        ],
        cmd_stream,
    ),
    ("scatter", &["addr", "shards", "deltas"], cmd_scatter),
    ("stat", &["addr", "key"], cmd_stat),
    ("dump", &["addr", "dir"], cmd_dump),
    ("checkpoint", &["addr"], cmd_checkpoint),
    ("shutdown", &["addr"], cmd_shutdown),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(1);
    };
    let Some((_, accepted, run)) = MODES.iter().find(|(name, ..)| name == mode) else {
        eprintln!("moma_load: unknown mode `{mode}`\n{USAGE}");
        return ExitCode::from(1);
    };
    let opts = match parse_opts(&args[1..], accepted) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("moma_load {mode}: {e}\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    match run(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("moma_load {mode}: {e}");
            ExitCode::from(1)
        }
    }
}

type Opts = BTreeMap<String, String>;

fn parse_opts(args: &[String], accepted: &[&str]) -> Result<Opts, String> {
    let mut out = Opts::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|key| accepted.contains(key))
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.insert(key.to_owned(), value.clone());
    }
    Ok(out)
}

fn opt_num<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
    }
}

fn connect(opts: &Opts) -> Result<Client, String> {
    let addr = opts.get("addr").ok_or("missing --addr")?;
    Client::connect_retry(addr, Duration::from_secs(10)).map_err(|e| format!("connect {addr}: {e}"))
}

fn ensure(cond: bool, msg: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("assertion failed: {msg}"))
    }
}

fn is_ok(resp: &Json) -> bool {
    resp.get("ok").and_then(Json::as_bool) == Some(true)
}

// ---- smoke ----------------------------------------------------------

/// Fixed, deterministic endpoint-conformance sequence. Running it twice
/// against two fresh servers of the same scenario produces identical
/// server states — the crash-recovery harness relies on that.
fn cmd_smoke(opts: &Opts) -> Result<ExitCode, String> {
    use moma_model::{AttrValue, DeltaOp};
    let mut c = connect(opts)?;
    let call = |c: &mut Client, req: &Json| c.call(req).map_err(|e| format!("call: {e}"));

    let r = call(&mut c, &protocol::bare_request("ping"))?;
    ensure(is_ok(&r), "ping")?;
    let r = call(&mut c, &protocol::bare_request("stats"))?;
    ensure(is_ok(&r), "stats")?;
    ensure(
        !r.get("sources")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .is_empty(),
        "stats reports sources",
    )?;

    // Three matchers + one composition.
    let r = call(
        &mut c,
        &protocol::match_request(
            "m_dblp_acm",
            "Publication@DBLP",
            "Publication@ACM",
            "title",
            "title",
            "trigram",
            0.75,
        ),
    )?;
    ensure(is_ok(&r), &format!("match m_dblp_acm: {r}"))?;
    ensure(
        r.get("incremental").and_then(Json::as_bool) == Some(true),
        "trigram matcher is incrementally maintainable",
    )?;
    let r = call(
        &mut c,
        &protocol::match_request(
            "m_acm_gs",
            "Publication@ACM",
            "Publication@GS",
            "title",
            "title",
            "trigram",
            0.75,
        ),
    )?;
    ensure(is_ok(&r), &format!("match m_acm_gs: {r}"))?;
    let r = call(
        &mut c,
        &protocol::match_request(
            "m_tfidf",
            "Publication@ACM",
            "Publication@GS",
            "title",
            "title",
            "tfidf",
            0.6,
        ),
    )?;
    ensure(is_ok(&r), &format!("match m_tfidf: {r}"))?;
    ensure(
        r.get("incremental").and_then(Json::as_bool) == Some(false),
        "tfidf matcher reports incremental: false",
    )?;
    let r = call(
        &mut c,
        &protocol::compose_request("c_dblp_gs", "m_dblp_acm", "m_acm_gs", "min", "max"),
    )?;
    ensure(is_ok(&r), &format!("compose c_dblp_gs: {r}"))?;

    // Queries: happy path, filtered, and the error case.
    let r = call(&mut c, &protocol::query_request("c_dblp_gs", 5, None))?;
    ensure(is_ok(&r), &format!("query c_dblp_gs: {r}"))?;
    ensure(
        r.get("rows").and_then(Json::as_arr).unwrap_or(&[]).len() <= 5,
        "query respects limit",
    )?;
    let r = call(&mut c, &protocol::query_request("m_acm_gs", 0, Some(0.95)))?;
    ensure(is_ok(&r), "query with min_sim")?;
    let r = call(&mut c, &protocol::query_request("no_such_mapping", 0, None))?;
    ensure(!is_ok(&r), "query of unknown mapping fails")?;

    // Delta 1: two adds against GS. The trigram state patches
    // incrementally; the TF-IDF state must report a full re-match.
    let ops = vec![
        DeltaOp::Add {
            id: "smoke_g1".into(),
            fields: vec![(
                "title".into(),
                AttrValue::Text("Snapshot isolation for mapping repositories".into()),
            )],
        },
        DeltaOp::Add {
            id: "smoke_g2".into(),
            fields: vec![(
                "title".into(),
                AttrValue::Text("Write-ahead logging for object matching services".into()),
            )],
        },
    ];
    let r = call(&mut c, &protocol::delta_request("Publication@GS", &ops))?;
    ensure(is_ok(&r), &format!("delta 1: {r}"))?;
    let empty: [Json; 0] = [];
    let touched = r.get("mappings").and_then(Json::as_arr).unwrap_or(&empty);
    let by_name = |name: &str| touched.iter().find(|m| m.str_field("name") == Some(name));
    let acm_gs = by_name("m_acm_gs").ok_or("delta 1 touches m_acm_gs")?;
    ensure(
        acm_gs.get("incremental").and_then(Json::as_bool) == Some(true),
        "m_acm_gs patched incrementally",
    )?;
    let tfidf = by_name("m_tfidf").ok_or("delta 1 touches m_tfidf")?;
    ensure(
        tfidf.get("incremental").and_then(Json::as_bool) == Some(false)
            && tfidf.get("full_rematch").and_then(Json::as_bool) == Some(true),
        "m_tfidf reports full re-match fallback",
    )?;
    ensure(
        by_name("m_dblp_acm").is_none(),
        "m_dblp_acm untouched by a GS delta",
    )?;
    let refreshed = r.get("refreshed").and_then(Json::as_arr).unwrap_or(&empty);
    ensure(
        refreshed.iter().any(|n| n.as_str() == Some("c_dblp_gs")),
        "derived c_dblp_gs refreshed after the delta",
    )?;

    // Delta 2: update + remove of the instances added above.
    let ops = vec![
        DeltaOp::Update {
            id: "smoke_g1".into(),
            attr: "title".into(),
            value: Some(AttrValue::Text(
                "Snapshot-isolated reads for mapping repositories".into(),
            )),
        },
        DeltaOp::Remove {
            id: "smoke_g2".into(),
        },
    ];
    let r = call(&mut c, &protocol::delta_request("Publication@GS", &ops))?;
    ensure(is_ok(&r), &format!("delta 2: {r}"))?;
    let applied = r.get("applied").ok_or("delta 2 reports applied counts")?;
    ensure(
        applied.num_field("updated") == Some(1.0) && applied.num_field("removed") == Some(1.0),
        "delta 2 applied counts",
    )?;

    // Checkpoint: a WAL-backed server publishes a state dump and prunes
    // covered segments; a memory-only server refuses with an error that
    // names the missing WAL. Either way the command counters and the
    // replayable state are untouched (checkpoint is not WAL-logged).
    let r = call(&mut c, &protocol::checkpoint_request())?;
    if is_ok(&r) {
        ensure(
            r.get("seq").and_then(Json::as_u64).is_some(),
            &format!("checkpoint reports a seq: {r}"),
        )?;
    } else {
        let msg = r.str_field("error").unwrap_or("");
        ensure(
            msg.contains("write-ahead log"),
            &format!("checkpoint refusal names the WAL: {r}"),
        )?;
    }

    // Stats reflect the durable command counters.
    let r = call(&mut c, &protocol::bare_request("stats"))?;
    let commands = r.get("commands").ok_or("stats has commands")?;
    ensure(
        commands.num_field("match") == Some(3.0)
            && commands.num_field("compose") == Some(1.0)
            && commands.num_field("delta") == Some(2.0),
        &format!("command counters after smoke: {commands}"),
    )?;
    eprintln!("smoke: ok (3 matchers, 1 compose, 2 deltas, 1 checkpoint, counters verified)");
    Ok(ExitCode::SUCCESS)
}

// ---- batch ----------------------------------------------------------

/// Deterministic delta items for the batch leg: the same instances in
/// the same order regardless of how they are framed, so a `batch_delta`
/// run and a `--singles 1` run leave the server (and its WAL replay) in
/// identical states.
fn batch_ops(items: usize) -> Vec<Vec<moma_model::DeltaOp>> {
    use moma_model::{AttrValue, DeltaOp};
    (0..items)
        .map(|i| {
            vec![DeltaOp::Add {
                id: format!("batch_g{i}"),
                fields: vec![(
                    "title".into(),
                    AttrValue::Text(format!("Group commit batch record number {i}")),
                )],
            }]
        })
        .collect()
}

/// Apply a deterministic batch of deltas — as one `batch_delta` frame
/// (default) or as the same items sent singly (`--singles 1`) — and
/// assert `batch_query` responses are byte-identical to singleton
/// `query` responses. The crash-recovery harness runs one server with
/// each framing and diffs the final dumps.
fn cmd_batch(opts: &Opts) -> Result<ExitCode, String> {
    let items: usize = opt_num(opts, "items", 6)?;
    let singles: u64 = opt_num(opts, "singles", 0)?;
    ensure(items > 0, "--items must be positive")?;
    let mut c = connect(opts)?;
    let gs_name = "Publication@GS";

    let ops = batch_ops(items);
    if singles == 1 {
        for (i, item_ops) in ops.iter().enumerate() {
            let r = c
                .call(&protocol::delta_request(gs_name, item_ops))
                .map_err(|e| format!("single delta {i}: {e}"))?;
            ensure(is_ok(&r), &format!("single delta {i}: {r}"))?;
        }
    } else {
        let req = protocol::batch_delta_request(
            ops.iter()
                .map(|item_ops| protocol::delta_item(gs_name, item_ops))
                .collect(),
        );
        let r = c.call(&req).map_err(|e| format!("batch_delta: {e}"))?;
        ensure(is_ok(&r), &format!("batch_delta: {r}"))?;
        ensure(
            r.get("count").and_then(Json::as_u64) == Some(items as u64),
            &format!("batch_delta count == {items}: {r}"),
        )?;
        let results = r.get("results").and_then(Json::as_arr).unwrap_or(&[]);
        for (i, item) in results.iter().enumerate() {
            ensure(is_ok(item), &format!("batch_delta item {i}: {item}"))?;
        }
        // With a WAL behind the server the whole batch is one group
        // commit: N consecutive sequence numbers from one append.
        if let (Some(first), Some(last)) = (
            r.get("first_seq").and_then(Json::as_u64),
            r.get("last_seq").and_then(Json::as_u64),
        ) {
            ensure(
                last - first + 1 == items as u64,
                &format!("batch_delta seqs contiguous: first {first} last {last}"),
            )?;
        }
    }

    // batch_query responses must be byte-identical to the singleton
    // query responses for the same items.
    let query_items = vec![
        protocol::query_item("m_acm_gs", 5, None),
        protocol::query_item("c_dblp_gs", 3, None),
        protocol::query_item("m_acm_gs", 0, Some(0.95)),
    ];
    let batched = c
        .batch_query(query_items.clone())
        .map_err(|e| format!("batch_query: {e}"))?;
    ensure(
        batched.len() == query_items.len(),
        "batch_query result count",
    )?;
    for (i, item) in query_items.iter().enumerate() {
        let mut single = item.clone();
        if let Json::Obj(fields) = &mut single {
            fields.insert(0, ("cmd".to_owned(), Json::Str("query".to_owned())));
        }
        let r = c.call(&single).map_err(|e| format!("query {i}: {e}"))?;
        ensure(
            batched[i].to_string() == r.to_string(),
            &format!(
                "batch_query item {i} byte-identical to singleton query: {} vs {r}",
                batched[i]
            ),
        )?;
    }

    eprintln!(
        "batch: ok ({items} deltas as {}, {} queries byte-identical)",
        if singles == 1 {
            "singles".to_owned()
        } else {
            "one batch_delta group commit".to_owned()
        },
        query_items.len(),
    );
    println!("BATCH_OK");
    Ok(ExitCode::SUCCESS)
}

// ---- overload -------------------------------------------------------

/// Embedded-server overload end-to-end: a tiny write budget plus a
/// deliberately slow writer (`debug_sleep_write`) force `overloaded`
/// responses on concurrent deltas while reads keep answering; a
/// connection-cap sweep forces a `busy` refusal frame; afterwards a
/// retried delta succeeds and stats show zero panics (`degraded:
/// false`).
fn cmd_overload(opts: &Opts) -> Result<ExitCode, String> {
    use moma_model::{AttrValue, DeltaOp};
    let conn_cap: u64 = opt_num(opts, "conn-cap", 8)?;
    let sleep_ms: u64 = opt_num(opts, "sleep-ms", 1500)?;
    let writers: usize = opt_num(opts, "writers", 4)?;
    ensure(conn_cap >= 2, "--conn-cap must be at least 2")?;

    let s = shadow_scenario(opts)?;
    let engine = moma_server::Engine::new(s.registry, moma_core::exec::Parallelism::from_env());
    let limits = moma_server::Limits {
        max_connections: conn_cap,
        max_pending_writes: 1,
        max_pending_reads: 256,
        retry_after_ms: 25,
        debug_commands: true,
    };
    let handle = moma_server::spawn_with_limits(engine, "127.0.0.1:0", limits)
        .map_err(|e| format!("spawn server: {e}"))?;
    let addr = handle.addr.to_string();

    let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    c.call_ok(&protocol::match_request(
        "m_load",
        "Publication@DBLP",
        "Publication@GS",
        "title",
        "title",
        "trigram",
        0.75,
    ))
    .map_err(|e| e.to_string())?;

    // Occupy the single write slot with a slow writer.
    let sleeper_addr = addr.clone();
    let sleeper = std::thread::spawn(move || -> Result<(), String> {
        let mut c = Client::connect_retry(&sleeper_addr, Duration::from_secs(10))
            .map_err(|e| format!("sleeper connect: {e}"))?;
        let req = Json::obj(vec![
            ("cmd", Json::Str("debug_sleep_write".to_owned())),
            ("ms", Json::Uint(sleep_ms)),
        ]);
        let r = c.call(&req).map_err(|e| format!("sleeper call: {e}"))?;
        if !is_ok(&r) {
            return Err(format!("debug_sleep_write: {r}"));
        }
        Ok(())
    });
    std::thread::sleep(Duration::from_millis(sleep_ms.min(400) / 2));

    // Writer flood while the slot is held: every admitted-or-rejected
    // delta must get an explicit answer — `overloaded` with a
    // retry-after hint, never a hang, never a panic.
    let window = Instant::now();
    let mut writer_threads = Vec::new();
    for w in 0..writers {
        let addr = addr.clone();
        writer_threads.push(std::thread::spawn(move || -> Result<(u64, u64), String> {
            let mut c = Client::connect_retry(&addr, Duration::from_secs(10))
                .map_err(|e| format!("writer {w}: connect: {e}"))?;
            let (mut overloaded, mut applied) = (0u64, 0u64);
            for k in 0..10 {
                let ops = vec![DeltaOp::Add {
                    id: format!("ovl_w{w}_{k}"),
                    fields: vec![(
                        "title".into(),
                        AttrValue::Text(format!("overload probe {w}/{k}")),
                    )],
                }];
                let req = protocol::delta_request("Publication@GS", &ops);
                let r = c
                    .call(&req)
                    .map_err(|e| format!("writer {w} delta {k}: {e}"))?;
                if r.get("overloaded").and_then(Json::as_bool) == Some(true) {
                    ensure(
                        r.get("retry_after_ms").and_then(Json::as_u64).is_some(),
                        "overloaded response carries retry_after_ms",
                    )?;
                    overloaded += 1;
                } else if is_ok(&r) {
                    applied += 1;
                } else {
                    return Err(format!("writer {w} delta {k}: {r}"));
                }
            }
            Ok((overloaded, applied))
        }));
    }

    // Reads stay responsive throughout the write-side overload.
    let mut read_ok = 0u64;
    while window.elapsed() < Duration::from_millis(sleep_ms / 2) {
        let r = c
            .call(&protocol::query_request("m_load", 5, None))
            .map_err(|e| format!("read during overload: {e}"))?;
        ensure(is_ok(&r), &format!("read during overload: {r}"))?;
        read_ok += 1;
        std::thread::sleep(Duration::from_millis(10));
    }

    let (mut overloaded, mut applied) = (0u64, 0u64);
    for t in writer_threads {
        let (o, a) = t.join().map_err(|_| "writer thread panicked")??;
        overloaded += o;
        applied += a;
    }
    sleeper.join().map_err(|_| "sleeper thread panicked")??;
    ensure(
        overloaded > 0,
        &format!("saw overloaded responses (overloaded {overloaded}, applied {applied})"),
    )?;
    ensure(read_ok > 0, "reads answered during the overload window")?;

    // Recovery: with the slot free again a retried delta goes through.
    let mut recovered = false;
    for _ in 0..200 {
        let ops = vec![DeltaOp::Add {
            id: "ovl_recovery".into(),
            fields: vec![("title".into(), AttrValue::Text("recovery probe".into()))],
        }];
        let r = c
            .call(&protocol::delta_request("Publication@GS", &ops))
            .map_err(|e| format!("recovery delta: {e}"))?;
        if is_ok(&r) {
            recovered = true;
            break;
        }
        ensure(
            r.get("overloaded").and_then(Json::as_bool) == Some(true),
            &format!("recovery delta rejected without overloaded flag: {r}"),
        )?;
        std::thread::sleep(Duration::from_millis(25));
    }
    ensure(recovered, "delta succeeds after the overload window")?;

    // Connection cap: hold idle connections until a fresh one is
    // refused with a one-frame `busy` answer.
    let mut held = Vec::new();
    let mut saw_busy = false;
    for i in 0..conn_cap + 2 {
        let mut extra = Client::connect_retry(&addr, Duration::from_secs(10))
            .map_err(|e| format!("cap connection {i}: {e}"))?;
        match extra.call(&protocol::bare_request("ping")) {
            Ok(r) if r.get("busy").and_then(Json::as_bool) == Some(true) => {
                ensure(
                    r.get("retry_after_ms").and_then(Json::as_u64).is_some(),
                    "busy refusal carries retry_after_ms",
                )?;
                saw_busy = true;
                break;
            }
            Ok(r) => {
                ensure(is_ok(&r), &format!("cap connection {i} ping: {r}"))?;
                held.push(extra);
            }
            // The refusal frame may race our ping write; a clean
            // close counts once at least the cap is reached.
            Err(_) if i >= conn_cap - 1 => {
                saw_busy = true;
                break;
            }
            Err(e) => return Err(format!("cap connection {i}: {e}")),
        }
    }
    ensure(saw_busy, "connection past the cap got a busy refusal")?;
    drop(held);

    // Zero server panics: the engine never entered degraded mode, and
    // the refusals were counted.
    let r = c
        .call_ok(&protocol::bare_request("stats"))
        .map_err(|e| e.to_string())?;
    ensure(
        r.get("degraded").and_then(Json::as_bool) == Some(false),
        &format!("server not degraded after overload: {r}"),
    )?;
    ensure(
        r.get("overloaded_rejections")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            > 0,
        "stats counted overloaded rejections",
    )?;
    ensure(
        r.get("busy_refusals").and_then(Json::as_u64).unwrap_or(0) > 0,
        "stats counted busy refusals",
    )?;
    handle.stop();

    eprintln!(
        "overload: ok ({overloaded} overloaded, {applied} applied, {read_ok} reads ok, \
         busy refusal seen, degraded=false)"
    );
    println!("OVERLOAD_OK");
    Ok(ExitCode::SUCCESS)
}

// ---- stream ---------------------------------------------------------

/// Build the local shadow of the server's generated scenario, so delta
/// generation is reproducible without reading server state.
fn shadow_scenario(opts: &Opts) -> Result<Scenario, String> {
    let mut cfg = WorldConfig::small();
    cfg.seed = opt_num(opts, "scenario-seed", 7u64)?;
    Ok(Scenario::generate(cfg))
}

fn cmd_stream(opts: &Opts) -> Result<ExitCode, String> {
    let steps: usize = opt_num(opts, "steps", 50)?;
    let seed: u64 = opt_num(opts, "seed", 11)?;
    let churn: f64 = opt_num(opts, "churn", 0.02)?;
    let sleep_ms: u64 = opt_num(opts, "sleep-ms", 0)?;
    let mut c = connect(opts)?;

    let s = shadow_scenario(opts)?;
    let mut registry = s.registry;
    let gs = s.ids.pub_gs;
    let gs_name = registry.lds(gs).name();
    let mut stream = DeltaStream::new(
        EvolveConfig {
            seed,
            ..EvolveConfig::with_churn(churn)
        },
        gs,
    );
    for step in 1..=steps {
        let delta = stream.next_delta(&registry);
        let req = protocol::delta_request(&gs_name, &delta.ops);
        let resp = match c.call(&req) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("stream: connection lost at step {step}/{steps}: {e}");
                return Ok(ExitCode::from(3));
            }
        };
        if !is_ok(&resp) {
            return Err(format!("stream step {step}: {resp}"));
        }
        registry
            .apply_delta(&delta)
            .map_err(|e| format!("shadow apply step {step}: {e}"))?;
        if sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(sleep_ms));
        }
    }
    eprintln!("stream: sent {steps} deltas (seed {seed}, churn {churn})");
    Ok(ExitCode::SUCCESS)
}

// ---- scatter --------------------------------------------------------

/// Prime every shard of a sharded server over TCP: one hinted
/// self-match per shard over a distinct source, then a deterministic
/// delta stream to each of those sources. The sequence is fixed, so a
/// clean rerun against a fresh server of the same scenario produces an
/// identical state — the sharded crash-recovery gate diffs dumps
/// across runs.
fn cmd_scatter(opts: &Opts) -> Result<ExitCode, String> {
    use moma_model::{AttrValue, DeltaOp};
    let shards: usize = opt_num(opts, "shards", 4)?;
    let deltas: usize = opt_num(opts, "deltas", 6)?;
    // Sources the smoke sequence never touches, so the explicit hints
    // cannot collide with ownership claimed by other traffic.
    let groups = [
        ("Author@DBLP", "name"),
        ("Author@ACM", "name"),
        ("Author@GS", "name"),
        ("Venue@DBLP", "name"),
    ];
    ensure(
        shards >= 1 && shards <= groups.len(),
        &format!("--shards must be 1..={}", groups.len()),
    )?;
    let mut c = connect(opts)?;

    for (k, (source, attr)) in groups.iter().take(shards).enumerate() {
        let req = protocol::with_shard(
            protocol::match_request(
                &format!("m_scatter_{k}"),
                source,
                source,
                attr,
                attr,
                "trigram",
                0.9,
            ),
            k,
        );
        let r = c.call(&req).map_err(|e| format!("match shard {k}: {e}"))?;
        ensure(is_ok(&r), &format!("scatter match on shard {k}: {r}"))?;
        // A single-shard server ignores the hint and omits the
        // annotation; a sharded one must honor it exactly.
        if let Some(placed) = r.get("shard").and_then(Json::as_u64) {
            ensure(
                placed == k as u64,
                &format!("match hinted to shard {k} ran on shard {placed}"),
            )?;
        }
    }
    for step in 0..deltas {
        for (k, (source, attr)) in groups.iter().take(shards).enumerate() {
            let ops = vec![DeltaOp::Add {
                id: format!("scatter_{k}_{step}"),
                fields: vec![(
                    (*attr).to_owned(),
                    AttrValue::Text(format!("scatter probe {k} {step}")),
                )],
            }];
            let r = c
                .call(&protocol::delta_request(source, &ops))
                .map_err(|e| format!("delta shard {k} step {step}: {e}"))?;
            ensure(
                is_ok(&r),
                &format!("scatter delta shard {k} step {step}: {r}"),
            )?;
        }
    }
    for k in 0..shards {
        let r = c
            .call(&protocol::query_request(&format!("m_scatter_{k}"), 1, None))
            .map_err(|e| format!("query shard {k}: {e}"))?;
        ensure(is_ok(&r), &format!("scatter query shard {k}: {r}"))?;
    }
    eprintln!(
        "scatter: primed {shards} shard(s), sent {} deltas",
        shards * deltas
    );
    Ok(ExitCode::SUCCESS)
}

// ---- stat / dump / shutdown ----------------------------------------

fn cmd_stat(opts: &Opts) -> Result<ExitCode, String> {
    let key = opts.get("key").ok_or("missing --key")?;
    let mut c = connect(opts)?;
    let r = c
        .call_ok(&protocol::bare_request("stats"))
        .map_err(|e| e.to_string())?;
    let mut node = &r;
    for part in key.split('.') {
        node = node
            .get(part)
            .ok_or_else(|| format!("stats has no `{key}`"))?;
    }
    match node {
        Json::Uint(n) => println!("{n}"),
        Json::Num(n) if n.fract() == 0.0 => println!("{}", *n as i64),
        other => println!("{other}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_dump(opts: &Opts) -> Result<ExitCode, String> {
    let dir = opts.get("dir").ok_or("missing --dir")?;
    let mut c = connect(opts)?;
    let r = c
        .call_ok(&protocol::dump_request(dir))
        .map_err(|e| e.to_string())?;
    eprintln!("dump: {r}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_checkpoint(opts: &Opts) -> Result<ExitCode, String> {
    let mut c = connect(opts)?;
    let r = c
        .call_ok(&protocol::checkpoint_request())
        .map_err(|e| e.to_string())?;
    eprintln!("checkpoint: {r}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_shutdown(opts: &Opts) -> Result<ExitCode, String> {
    let mut c = connect(opts)?;
    let r = c
        .call_ok(&protocol::bare_request("shutdown"))
        .map_err(|e| e.to_string())?;
    ensure(is_ok(&r), "shutdown acknowledged")?;
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(mode: &str, args: &[&str]) -> Result<Opts, String> {
        let (_, accepted, _) = MODES
            .iter()
            .find(|(name, ..)| *name == mode)
            .expect("mode exists");
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse_opts(&args, accepted)
    }

    #[test]
    fn accepts_the_flags_a_mode_lists() {
        let opts = parse(
            "stream",
            &["--addr", "h:1", "--steps", "400", "--sleep-ms", "25"],
        )
        .expect("listed flags parse");
        assert_eq!(opts.get("steps").map(String::as_str), Some("400"));
        assert_eq!(opts.get("sleep-ms").map(String::as_str), Some("25"));
        assert!(parse("overload", &[]).expect("no flags").is_empty());
    }

    #[test]
    fn rejects_flags_the_mode_does_not_list() {
        // Typos of real flags, a flag of another mode, a positional.
        for args in [
            &["--addr", "h:1", "--step", "100"][..],
            &["--addr", "h:1", "--sleep_ms", "25"],
            &["--addr", "h:1", "--items", "6"],
            &["extra"],
        ] {
            let err = parse("stream", args).expect_err("must be refused");
            assert!(err.starts_with("unexpected argument `"), "{err}");
        }
    }

    #[test]
    fn a_listed_flag_needs_its_value() {
        assert_eq!(
            parse("stat", &["--addr", "h:1", "--key"]).unwrap_err(),
            "--key needs a value"
        );
    }

    #[test]
    fn every_listed_flag_is_in_the_usage_text() {
        for (mode, accepted, _) in MODES {
            assert!(USAGE.contains(&format!("\n  {mode} ")), "{mode}");
            for flag in *accepted {
                assert!(USAGE.contains(&format!("--{flag} ")), "{mode} --{flag}");
            }
        }
    }
}

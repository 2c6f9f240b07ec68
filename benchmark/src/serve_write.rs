//! Workload `serve_write`: writes beside reads on a 2-shard server with
//! an fsynced write-ahead log.
//!
//! Connection A is a closed-loop writer streaming source deltas,
//! alternating between the GS publications (DBLP–GS trigram mapping,
//! shard 0) and the ACM publications (ACM self-match, shard 1).
//! Connection B is an open-loop reader paced at a fixed rate, each
//! query timed from when it was *due*, so a stall is charged to every
//! query it delays. The background checkpointer runs for several
//! cycles on each shard.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use moma_core::matchers::{AttributeMatcher, MatchContext, Matcher};
use moma_core::SnapshotEntry;
use moma_datagen::{DeltaStream, EvolveConfig, GoldStandard, Scenario};
use moma_eval::metrics::MatchQuality;
use moma_model::{LdsId, SourceRegistry};
use moma_server::wal::RotationPolicy;
use moma_server::{
    protocol, shard, spawn_sharded, DurabilityPolicy, Engine, Json, Limits, ServerHandle, Wal,
};
use moma_simstring::SimFn;

use crate::common::{self, checksum, generate, par, stream_seed, Checks, Outcome};
use crate::measure::{self, Histogram, Tracer};
use crate::serve::{self, is_ok, ok_prefix, Prepared, Wire};
use crate::RunArgs;

const SETUP_REPS: usize = 2;
const SHARDS: usize = 2;
const CHURN: f64 = 0.002;
/// Reader pace: one request every 5 ms, every 20th a `stats` gathered
/// from both shards.
const READER_HZ: f64 = 200.0;
const STATS_EVERY: u64 = 20;
/// Auto-checkpoint period in logged records: short enough that each
/// shard completes several cycles inside one timed phase.
const CHECKPOINT_EVERY: u64 = 800;
const GS_MAPPING: &str = "pub_dblp_gs";
const ACM_MAPPING: &str = "pub_acm_self";
const GS_T: f64 = 0.75;
const ACM_T: f64 = 0.9;
/// Deltas replayed in-process by the traced pass.
const REPLAY_DELTAS: usize = 240;
/// Length of the windows the timed phase is cut into, seconds.
const WINDOW_S: f64 = 1.0;

fn policy() -> DurabilityPolicy {
    DurabilityPolicy {
        checkpoint_every_records: CHECKPOINT_EVERY,
        ..DurabilityPolicy::default()
    }
}

/// The two `match` requests that prime the server, with shard hints.
fn prime_requests(s: &Scenario) -> [Json; 2] {
    let name = |id| serve::lds_name(s, id);
    let (dblp, acm, gs) = (
        name(s.ids.pub_dblp),
        name(s.ids.pub_acm),
        name(s.ids.pub_gs),
    );
    [
        protocol::with_shard(
            protocol::match_request(GS_MAPPING, &dblp, &gs, "title", "title", "trigram", GS_T),
            0,
        ),
        protocol::with_shard(
            protocol::match_request(ACM_MAPPING, &acm, &acm, "title", "title", "trigram", ACM_T),
            1,
        ),
    ]
}

struct Served {
    scenario: Scenario,
    handle: ServerHandle,
    wal_root: PathBuf,
}

fn shard_dir(root: &Path, i: usize) -> PathBuf {
    root.join(format!("shard.{i}"))
}

/// Generate P, start a 2-shard server with a WAL per shard and prime
/// the two source groups.
fn set_up(seed: u64, rep: usize) -> (Served, f64) {
    let (s, generate_s) = generate(seed);
    let wal_root = common::out_dir().join(format!(
        "wal-serve_write-{seed}-{}-{rep}",
        std::process::id()
    ));
    let engines = (0..SHARDS)
        .map(|i| {
            let mut e = serve::engine_over(&s);
            e.wal_create(shard_dir(&wal_root, i), policy())
                .expect("WAL directory is writable");
            e
        })
        .collect();
    let handle = spawn_sharded(engines, "127.0.0.1:0", Limits::default()).expect("server binds");
    let mut wire = Wire::connect(&handle.addr.to_string()).expect("client connects");
    for (i, req) in prime_requests(&s).iter().enumerate() {
        let reply = wire.call_ok(req);
        assert_eq!(
            reply.get("shard").and_then(Json::as_u64),
            Some(i as u64),
            "mapping placed on its hinted shard: {reply}"
        );
    }
    (
        Served {
            scenario: s,
            handle,
            wal_root,
        },
        generate_s,
    )
}

fn tear_down(served: Served) {
    let Served {
        handle, wal_root, ..
    } = served;
    handle.stop();
    let _ = std::fs::remove_dir_all(wal_root);
}

/// What the writer connection did.
struct Written {
    latency: Histogram,
    /// Per delta: `(acknowledged, seconds since the phase began; latency
    /// in ms)`.
    samples: Vec<(f64, f64)>,
    /// Encoded delta requests, in send order.
    sent: Vec<Vec<u8>>,
    failed: u64,
    not_incremental: u64,
    ops: u64,
    /// The client's shadow of the server's sources after the last delta.
    shadow: SourceRegistry,
}

/// Closed-loop writer: generate a delta against the shadow registry,
/// send it, wait for the acknowledgement, apply it to the shadow.
fn write_loop(addr: &str, s: &Scenario, seed: u64, phase: Instant, stop: &AtomicBool) -> Written {
    let mut wire = Wire::connect(addr).expect("writer connects");
    let mut streams: Vec<(String, DeltaStream)> = [(s.ids.pub_gs, "gs"), (s.ids.pub_acm, "acm")]
        .into_iter()
        .map(|(lds, tag): (LdsId, &str)| {
            // No bursts: an eightfold delta now and then makes the
            // write rate of a phase depend on how many it drew.
            let cfg = EvolveConfig {
                seed: stream_seed(seed, &format!("serve_write.deltas.{tag}")),
                burst_prob: 0.0,
                ..EvolveConfig::with_churn(CHURN)
            };
            (serve::lds_name(s, lds), DeltaStream::new(cfg, lds))
        })
        .collect();
    let mut out = Written {
        latency: Histogram::new(),
        samples: Vec::new(),
        sent: Vec::new(),
        failed: 0,
        not_incremental: 0,
        ops: 0,
        shadow: s.registry.clone(),
    };
    let mut turn = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let (name, stream) = &mut streams[turn % 2];
        turn += 1;
        let delta = stream.next_delta(&out.shadow);
        let request = protocol::delta_request(name, &delta.ops)
            .to_string()
            .into_bytes();
        let t0 = Instant::now();
        let reply = wire.round_trip(&request).expect("server answers");
        let done = Instant::now();
        out.latency.record_ns((done - t0).as_nanos() as u64);
        out.samples.push((
            (done - phase).as_secs_f64(),
            (done - t0).as_secs_f64() * 1e3,
        ));
        out.ops += delta.ops.len() as u64;
        out.sent.push(request);
        let reply = serve::parse(&reply);
        if !is_ok(&reply) {
            out.failed += 1;
            continue;
        }
        let patched = reply.get("mappings").and_then(Json::as_arr).unwrap_or(&[]);
        out.not_incremental += patched
            .iter()
            .filter(|m| m.get("incremental").and_then(Json::as_bool) != Some(true))
            .count() as u64;
        out.shadow
            .apply_delta(&delta)
            .expect("shadow applies its own delta");
    }
    out
}

/// What the paced reader connection saw.
struct Read {
    /// Latency from the due time.
    latency: Histogram,
    /// How late the generator itself ran: send time minus the later of
    /// the due time and the previous reply.
    lateness: Histogram,
    /// Per request: `(answered, seconds since the phase began; latency
    /// from the due time in ms)`.
    samples: Vec<(f64, f64)>,
    failed: u64,
}

/// Open-loop reader: request `k` is due at `k / READER_HZ`. A reply
/// that comes late delays the requests behind it, and each of those is
/// still timed from its own due time.
fn read_loop(addr: &str, phase: Instant, seconds: f64, stop: Option<&AtomicBool>) -> Read {
    let mut wire = Wire::connect(addr).expect("reader connects");
    let query = protocol::query_request(GS_MAPPING, 50, None)
        .to_string()
        .into_bytes();
    let stats = protocol::bare_request("stats").to_string().into_bytes();
    let mut out = Read {
        latency: Histogram::new(),
        lateness: Histogram::new(),
        samples: Vec::new(),
        failed: 0,
    };
    let begin = Instant::now();
    let mut free_at = begin;
    let mut k = 0u64;
    loop {
        let due = begin + Duration::from_secs_f64(k as f64 / READER_HZ);
        if (due - begin).as_secs_f64() >= seconds {
            break;
        }
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            // Sleep most of the way, spin the last stretch: the timer
            // slack would otherwise show up as generator lateness.
            match due - now {
                left if left > Duration::from_micros(300) => {
                    std::thread::sleep(left - Duration::from_micros(200))
                }
                _ => std::hint::spin_loop(),
            }
        }
        let request = if k % STATS_EVERY == STATS_EVERY - 1 {
            &stats
        } else {
            &query
        };
        let sent = Instant::now();
        out.lateness
            .record_ns((sent - due.max(free_at)).as_nanos() as u64);
        let reply = wire.round_trip(request).expect("server answers");
        let done = Instant::now();
        free_at = done;
        out.latency.record_ns((done - due).as_nanos() as u64);
        out.samples.push((
            (done - phase).as_secs_f64(),
            (done - due).as_secs_f64() * 1e3,
        ));
        out.failed += u64::from(!ok_prefix(&reply));
        k += 1;
    }
    if let Some(stop) = stop {
        stop.store(true, Ordering::Relaxed);
    }
    out
}

struct Traffic {
    written: Written,
    read: Read,
    quiet: Read,
    phase_s: f64,
}

/// One second of reader-only traffic (warm-up, and the quiet baseline
/// for the lock wait), then writer and reader side by side.
fn drive(served: &Served, seed: u64, seconds: f64) -> Traffic {
    let addr = served.handle.addr.to_string();
    let quiet = read_loop(&addr, Instant::now(), 1.0, None);
    let stop = AtomicBool::new(false);
    let phase = Instant::now();
    let (written, read) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_loop(&addr, &served.scenario, seed, phase, &stop));
        let read = read_loop(&addr, phase, seconds, Some(&stop));
        (writer.join().expect("writer thread"), read)
    });
    Traffic {
        written,
        read,
        quiet,
        phase_s: phase.elapsed().as_secs_f64(),
    }
}

impl Traffic {
    /// Longest gap between consecutive acknowledged replies on either
    /// connection, seconds.
    fn longest_stall_s(&self) -> f64 {
        longest_gap(&self.written.samples).max(longest_gap(&self.read.samples))
    }
}

/// Longest gap between consecutive acknowledged replies, seconds.
fn longest_gap(samples: &[(f64, f64)]) -> f64 {
    samples
        .windows(2)
        .map(|w| w[1].0 - w[0].0)
        .fold(0.0, f64::max)
}

/// Name, version and content of every mapping of one shard.
fn fingerprint(snapshot: &[SnapshotEntry]) -> Vec<(String, u64, u64)> {
    snapshot
        .iter()
        .map(|e| (e.name.clone(), e.version, checksum(&e.mapping)))
        .collect()
}

struct Audit {
    /// F-measure of the served, incrementally maintained mapping against
    /// a full re-match of the client's shadow sources (1 when exact).
    f1_vs_full: f64,
    served_rows: u64,
    /// The sources as generated (the server worked on copies).
    scenario: Scenario,
    auto_checkpoints: u64,
    refused: u64,
    recover_s: f64,
    recovered_records: u64,
    plan_us: f64,
    fanout: f64,
    stats_merge_us: f64,
}

/// The output checks of the workload; stops the server (recovery reads
/// the WAL directories it was writing).
fn audit(served: Served, traffic: &Traffic, checks: &mut Checks) -> Audit {
    let s = &served.scenario;
    let mut wire = Wire::connect(&served.handle.addr.to_string()).expect("audit connects");
    let stats = wire.call_ok(&protocol::bare_request("stats"));
    drop(wire);
    let count = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    let w = &traffic.written;
    let sent = w.sent.len() as u64;

    checks.check("every delta acknowledged ok", w.failed == 0, || {
        format!("{} of {sent} deltas failed", w.failed)
    });
    checks.check(
        "every patch incremental (no full re-match)",
        w.not_incremental == 0,
        || format!("{} patches fell back", w.not_incremental),
    );
    let reads = traffic.read.latency.len() + traffic.quiet.latency.len();
    let read_failed = traffic.read.failed + traffic.quiet.failed;
    checks.check("every read ok", read_failed == 0, || {
        format!("{read_failed} of {reads} reads not ok")
    });
    let counted = stats
        .get("commands")
        .and_then(|c| c.get("delta"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    checks.same("commands.delta == deltas sent", counted, sent);
    checks.check(
        "server not degraded",
        stats.get("degraded").and_then(Json::as_bool) == Some(false),
        || stats.to_string(),
    );
    checks.count_ops(sent + reads, w.failed + read_failed);

    // Router probes, while the live router still exists.
    let router = &served.handle.shared().router;
    let sources = [
        serve::lds_name(s, s.ids.pub_gs),
        serve::lds_name(s, s.ids.pub_acm),
    ];
    let mut targets = 0usize;
    let mut plans = 0usize;
    let t0 = Instant::now();
    for _ in 0..5_000 {
        for src in &sources {
            targets += router.plan_delta(src).expect("hosted source").len();
            std::hint::black_box(router.mapping_shard(GS_MAPPING));
            plans += 1;
        }
    }
    let plan_us = t0.elapsed().as_secs_f64() * 1e6 / plans as f64;
    let per_shard: Vec<Json> = (0..SHARDS)
        .map(|i| router.engine_read(i).0.stats())
        .collect();
    let t0 = Instant::now();
    for _ in 0..200 {
        std::hint::black_box(shard::merge_stats(router, &per_shard));
    }
    let stats_merge_us = t0.elapsed().as_secs_f64() * 1e6 / 200.0;

    // Incremental == full: the served mapping against a fresh match of
    // the client's shadow sources.
    let live: Vec<Vec<SnapshotEntry>> = (0..SHARDS)
        .map(|i| router.engine_read(i).0.snapshot())
        .collect();
    let live_gs = live[0]
        .iter()
        .find(|e| e.name == GS_MAPPING)
        .expect("GS mapping on shard 0")
        .mapping
        .as_ref()
        .clone();
    let ctx = MatchContext::new(&w.shadow).with_parallelism(par());
    let full = AttributeMatcher::new("title", "title", SimFn::Trigram, GS_T)
        .execute(&ctx, s.ids.pub_dblp, s.ids.pub_gs)
        .expect("full re-match");
    checks.same(
        "served rows == full re-match of the shadow sources",
        live_gs.len() as u64,
        full.len() as u64,
    );
    checks.same(
        "served mapping == full re-match, bit for bit",
        checksum(&live_gs),
        checksum(&full),
    );

    // Acknowledged ⇒ durable: each shard's WAL directory alone must
    // reproduce the live state.
    let auto_checkpoints = count("auto_checkpoints");
    let refused = count("busy_refusals") + count("overloaded_rejections");
    let Served {
        scenario,
        handle,
        wal_root,
    } = served;
    handle.stop();
    let mut recover_s = 0.0;
    let mut recovered_records = 0u64;
    for (i, live_shard) in live.iter().enumerate() {
        let mut engine = serve::engine_over(&scenario);
        let t0 = Instant::now();
        let summary = engine
            .recover(shard_dir(&wal_root, i), policy())
            .expect("recovery succeeds");
        recover_s += t0.elapsed().as_secs_f64();
        recovered_records += summary.replayed as u64;
        checks.check(
            &format!("shard {i}: recovery from the WAL reproduces the live snapshot"),
            fingerprint(&engine.snapshot()) == fingerprint(live_shard) && summary.failed == 0,
            || format!("{summary:?}"),
        );
    }
    let _ = std::fs::remove_dir_all(wal_root);
    let full_pairs = GoldStandard::from_pairs(full.table.iter().map(|c| (c.domain, c.range)));
    Audit {
        f1_vs_full: MatchQuality::evaluate(&live_gs, &full_pairs).f1(),
        served_rows: live_gs.len() as u64,
        scenario,
        auto_checkpoints,
        refused,
        recover_s,
        recovered_records,
        plan_us,
        fanout: targets as f64 / plans as f64,
        stats_merge_us,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut checks = Checks::new(args.self_test);
    let mut setups = Vec::new();
    let mut generate_s = Vec::new();
    let mut served = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = served.take() {
            tear_down(previous);
        }
        let t0 = Instant::now();
        let (sv, gen_s) = set_up(args.seed, rep);
        setups.push(t0.elapsed().as_secs_f64());
        generate_s.push(gen_s);
        served = Some(sv);
    }
    let served: Served = served.expect("at least one set-up");
    let setup_s = measure::median(&setups);
    println!(
        "WAL under {} ({})",
        served.wal_root.display(),
        crate::environment::fs_type_of(&served.wal_root)
    );

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let traffic = drive(&served, args.seed, seconds);
    let a = audit(served, &traffic, &mut checks);

    let (w, r) = (&traffic.written, &traffic.read);
    let stall_s = traffic.longest_stall_s();
    println!(
        "writer: {} deltas, {:.1} ops each, p50 {:.3} ms p99 {:.3} ms; reader: {} requests, p50 {:.3} ms p99 {:.3} ms (quiet p50 {:.3} ms), generator late p99 {:.4} ms; {} auto-checkpoints, longest stall {:.1} ms",
        w.sent.len(),
        w.ops as f64 / w.sent.len().max(1) as f64,
        w.latency.quantile_ms(0.5),
        w.latency.quantile_ms(0.99),
        r.latency.len(),
        r.latency.quantile_ms(0.5),
        r.latency.quantile_ms(0.99),
        traffic.quiet.latency.quantile_ms(0.5),
        r.lateness.quantile_ms(0.99),
        a.auto_checkpoints,
        stall_s * 1e3,
    );
    println!(
        "reader latency ladder: {}",
        [0.25, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99]
            .map(|p| format!("p{:.0} {:.2} ms", p * 100.0, r.latency.quantile_ms(p)))
            .join(", ")
    );
    // Per window the reader's median and upper quartile (p99 is the
    // checkpoint stall, see below) and the writer's acknowledged deltas.
    let read_windows = measure::window_stats(&r.samples, traffic.phase_s, WINDOW_S, 0.75);
    let write_windows = measure::window_stats(&w.samples, traffic.phase_s, WINDOW_S, 0.75);
    println!("of the paced reader:");
    read_windows.print("ms");
    println!("of the writer:");
    write_windows.print("ms");
    let deltas_per_s = measure::quiet_quartile(&write_windows.rate, true);

    if args.trace {
        return traced(args, &traffic, &a, measure::median(&generate_s), checks);
    }
    // How late the generator ran is the machine's doing, not the
    // server's: reported (`server.gen_late_p99_ms`), never failed on.
    if r.lateness.quantile_ms(0.99) >= 1.0 {
        println!(
            "warning: the open-loop generator ran late (p99 {:.3} ms); read latencies of this run are suspect",
            r.lateness.quantile_ms(0.99)
        );
    }
    let mut out = Outcome::new(checks);
    out.set("setup_s", setup_s, SETUP_REPS as u64);
    out.set("peak_rss_mb", common::peak_rss_mb(), 1);
    out.set(
        "op_p50_ms",
        measure::quiet_quartile(&read_windows.p50, false),
        r.latency.len(),
    );
    // The upper quartile, not p99: every read that falls due during a
    // checkpoint waits for it, so p99 is the length of the longest
    // stalls — which repeats to ±40 % here — and is reported unbounded
    // as `server.read_p99_ms`.
    out.set(
        "op_tail_ms",
        measure::quiet_quartile(&read_windows.tail, false),
        r.latency.len(),
    );
    out.set("ops_per_s", deltas_per_s, w.sent.len() as u64);
    out.set("f1", a.f1_vs_full, a.served_rows);
    out
}

/// Size of everything under `dir`, bytes.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// An engine primed like the server's two shards put together.
fn primed_engine(registry: &SourceRegistry, prime: &[Json; 2]) -> Engine {
    let mut engine = Engine::new(registry.clone(), par());
    for req in prime {
        assert!(is_ok(&engine.execute(req)), "in-process priming succeeds");
    }
    engine
}

fn traced(
    args: &RunArgs,
    traffic: &Traffic,
    a: &Audit,
    generate_s: f64,
    mut checks: Checks,
) -> Outcome {
    let (w, r) = (&traffic.written, &traffic.read);
    let registry = &a.scenario.registry;
    let prime = &prime_requests(&a.scenario);
    let stall_s = traffic.longest_stall_s();
    let deltas: Vec<Prepared> = w
        .sent
        .iter()
        .take(REPLAY_DELTAS)
        .map(|bytes| Prepared {
            class: 0,
            bytes: bytes.clone(),
        })
        .collect();
    let requests: Vec<&Prepared> = deltas.iter().collect();
    let n = requests.len() as f64;
    let scratch = common::out_dir().join(format!(
        "wal-serve_write-replay-{}-{}",
        args.seed,
        std::process::id()
    ));

    // The recorded deltas through frame → json → engine, without a WAL.
    let mut plain = primed_engine(registry, prime);
    let parse_delta_us = {
        let docs: Vec<Json> = requests.iter().map(|p| serve::parse(&p.bytes)).collect();
        // Only the first delta parses against current sources, which is
        // all `parse_delta` needs: it resolves the source name and
        // decodes the operations.
        let t0 = Instant::now();
        for doc in &docs {
            std::hint::black_box(protocol::parse_delta(plain.registry(), doc).expect("parses"));
        }
        t0.elapsed().as_secs_f64() * 1e6 / n
    };
    let mut tr = Tracer::with_capacity(requests.len() * 6 + 8);
    let (stats, failed_plain) = serve::replay_requests(&mut tr, 1, &requests, |d| plain.execute(d));
    let own = measure::self_times_ns(tr.spans());
    let total = measure::total_times_ns(tr.spans());
    let us = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e3 / n;
    measure::print_self_time_shares(&own, n);
    let covered: u64 = own
        .iter()
        .filter(|(k, _)| **k != "request")
        .map(|(_, v)| *v)
        .sum();

    // The same deltas with a WAL attached: append + fsync, then apply.
    let mut logged = primed_engine(registry, prime);
    logged
        .wal_create(scratch.join("engine"), DurabilityPolicy::default())
        .expect("scratch WAL");
    let mut apply_wal = Histogram::new();
    let mut failed_logged = 0u64;
    for p in &requests {
        let doc = serve::parse(&p.bytes);
        let t0 = Instant::now();
        let reply = logged.execute(&doc);
        apply_wal.record_ns(t0.elapsed().as_nanos() as u64);
        failed_logged += u64::from(!is_ok(&reply));
    }
    checks.check(
        "every replayed delta ok, with and without a WAL",
        failed_plain + failed_logged == 0,
        || format!("{failed_plain} + {failed_logged} failed"),
    );
    checks.check(
        "replay with a WAL == replay without",
        fingerprint(&logged.snapshot()) == fingerprint(&plain.snapshot()),
        || format!("{:?}", fingerprint(&logged.snapshot())),
    );
    let t0 = Instant::now();
    let published = logged.run_auto_checkpoint();
    let publish_ms = t0.elapsed().as_secs_f64() * 1e3;
    checks.check("checkpoint publishes", published.is_ok(), || {
        format!("{published:?}")
    });
    let checkpoint_bytes = moma_server::checkpoint::list(&scratch.join("engine"))
        .ok()
        .and_then(|l| l.last().map(|c| dir_bytes(&c.path)))
        .unwrap_or(0);

    // The log alone, on the real records.
    let payload_bytes: u64 = requests.iter().map(|p| p.bytes.len() as u64).sum();
    let mut wal = Wal::create(scratch.join("single"), RotationPolicy::default()).expect("WAL");
    let t0 = Instant::now();
    for p in &requests {
        wal.append(&p.bytes).expect("append");
    }
    let append_us = t0.elapsed().as_secs_f64() * 1e6 / n;
    let wal_bytes = dir_bytes(&scratch.join("single"));
    let mut wal = Wal::create(scratch.join("batch"), RotationPolicy::default()).expect("WAL");
    let batches: Vec<Vec<&[u8]>> = requests
        .chunks(8)
        .map(|c| c.iter().map(|p| p.bytes.as_slice()).collect())
        .collect();
    let t0 = Instant::now();
    for b in &batches {
        wal.append_batch(b).expect("append_batch");
    }
    let append_batch_us = t0.elapsed().as_secs_f64() * 1e6 / batches.len() as f64;
    drop(wal);

    // The delta matcher alone, on the identical stream.
    let mut reg = registry.clone();
    let gs_matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, GS_T);
    let (dblp, gs) = (
        reg.resolve(prime[0].str_field("domain").expect("domain"))
            .expect("DBLP"),
        reg.resolve(prime[0].str_field("range").expect("range"))
            .expect("GS"),
    );
    let t0 = Instant::now();
    let mut state = gs_matcher
        .prime(&MatchContext::new(&reg).with_parallelism(par()), dblp, gs)
        .expect("prime");
    let prime_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut apply = Histogram::new();
    for p in &requests {
        let delta = protocol::parse_delta(&reg, &serve::parse(&p.bytes)).expect("parses");
        let applied = reg.apply_delta(&delta).expect("applies");
        let ctx = MatchContext::new(&reg).with_parallelism(par());
        let t0 = Instant::now();
        state.apply(&ctx, &[&applied]).expect("patch");
        if applied.lds == gs {
            apply.record_ns(t0.elapsed().as_nanos() as u64);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let mut documents: Vec<&[u8]> = requests.iter().map(|p| p.bytes.as_slice()).collect();
    let encoded_stats = plain.stats().to_string();
    documents.push(encoded_stats.as_bytes());
    let ns_per_byte = serve::json_ns_per_byte(&documents);

    let spans = tr.spans().len() as u64;
    crate::write_trace("serve_write", tr.spans());
    let reads = r.latency.len() + traffic.quiet.latency.len();
    let sent = w.sent.len() as u64;
    let nn = requests.len() as u64;
    let quiet_p50 = traffic.quiet.latency.quantile_ms(0.5);
    let mut out = Outcome::new(checks);
    out.set("datagen.generate_ms", generate_s * 1e3, SETUP_REPS as u64);
    out.set("frame.read_us", us("frame.read"), nn);
    out.set("frame.write_us", us("frame.write"), nn);
    out.set("frame.req_bytes", stats.req_bytes as f64 / n, nn);
    out.set("frame.resp_bytes", stats.resp_bytes as f64 / n, nn);
    out.set("json.parse_us", us("json.parse"), nn);
    out.set("json.encode_us", us("json.encode"), nn);
    out.set("json.ns_per_byte", ns_per_byte, documents.len() as u64);
    out.set(
        "server.failed_share",
        (w.failed + r.failed + traffic.quiet.failed) as f64 / (sent + reads) as f64,
        sent + reads,
    );
    out.set("server.refused", a.refused as f64, 1);
    out.set("server.deltas_sent", sent as f64, sent);
    out.set("server.delta_p50_ms", w.latency.quantile_ms(0.5), sent);
    out.set("server.delta_p99_ms", w.latency.quantile_ms(0.99), sent);
    out.set(
        "server.read_p99_ms",
        r.latency.quantile_ms(0.99),
        r.latency.len(),
    );
    out.set(
        "server.reader_quiet_p50_ms",
        quiet_p50,
        traffic.quiet.latency.len(),
    );
    out.set(
        "server.lock_wait_ms",
        r.latency.quantile_ms(0.5) - quiet_p50,
        r.latency.len(),
    );
    out.set(
        "server.gen_late_p99_ms",
        r.lateness.quantile_ms(0.99),
        r.lateness.len(),
    );
    out.set("delta.prime_ms", prime_ms, 1);
    out.set("delta.apply_ms", apply.quantile_ms(0.5), apply.len());
    out.set(
        "delta.ops_per_delta",
        w.ops as f64 / sent.max(1) as f64,
        sent,
    );
    out.set("delta.full_rematches", state.full_rematches() as f64, nn);
    out.set("protocol.parse_delta_us", parse_delta_us, nn);
    out.set("engine.apply_ms", stats.engine[0].mean_ns() / 1e6, nn);
    out.set("engine.apply_wal_ms", apply_wal.mean_ns() / 1e6, nn);
    out.set("wal.append_us", append_us, nn);
    out.set("wal.append_batch_us", append_batch_us, batches.len() as u64);
    out.set("wal.bytes_per_delta", wal_bytes as f64 / n, nn);
    out.set("wal.write_amp", wal_bytes as f64 / payload_bytes as f64, nn);
    out.set("checkpoint.publish_ms", publish_ms, 1);
    out.set("checkpoint.bytes", checkpoint_bytes as f64, 1);
    out.set("checkpoint.count", a.auto_checkpoints as f64, 1);
    out.set("checkpoint.stall_ms", stall_s * 1e3, sent + r.latency.len());
    out.set("engine.recover_ms", a.recover_s * 1e3, SHARDS as u64);
    out.set(
        "engine.recover_us_per_record",
        a.recover_s * 1e6 / a.recovered_records.max(1) as f64,
        a.recovered_records,
    );
    out.set("shard.plan_us", a.plan_us, 10_000);
    out.set("shard.fanout", a.fanout, 10_000);
    out.set("shard.stats_merge_us", a.stats_merge_us, 200);
    out.set("trace.spans", spans as f64, nn);
    out.set(
        "trace.coverage",
        covered as f64 / total["request"].max(1) as f64,
        nn,
    );
    // The replay is the traced side here; what tracing adds to it is
    // five spans per request.
    out.set(
        "trace.overhead_share",
        5.0 * measure::span_cost_ns() / stats.handled[0].mean_ns(),
        nn,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_gap_is_the_widest_interval() {
        let at = |t: &[f64]| t.iter().map(|&t| (t, 1.0)).collect::<Vec<_>>();
        assert_eq!(longest_gap(&at(&[0.0, 0.1, 0.5, 0.6])), 0.4);
        assert_eq!(longest_gap(&at(&[1.0])), 0.0);
        assert_eq!(longest_gap(&[]), 0.0);
    }
}

//! Workload `serve_read`: one closed-loop connection reading from an
//! embedded 1-shard server over scenario P.
//!
//! Callers of a match service are pipelines that wait for each reply,
//! so the client is a closed loop; one connection because two
//! closed-loop clients on two cores did not repeat run to run. After
//! priming, nothing writes: the WAL, the checkpointer and the router's
//! fan-out stay idle, and the path under test is frame → json →
//! admission → `Engine::execute_read` → reply encode.

use std::time::Instant;

use moma_core::Mapping;
use moma_datagen::Scenario;
use moma_eval::metrics::MatchQuality;
use moma_server::{protocol, spawn, Json, ServerHandle};
use moma_table::MappingTable;

use crate::common::{self, generate, Checks, Outcome, Rng};
use crate::measure::{self, Histogram, Tracer, WindowStats};
use crate::serve::{self, is_ok, ok_prefix, Prepared, Wire};
use crate::RunArgs;

/// Rounds of the timed phase; each sets up (generate, spawn, prime) afresh.
const ROUNDS: usize = 2;
/// Distinct requests generated from the seed; the loop cycles through
/// them.
const POOL: usize = 4096;
const BATCH_ITEMS: u64 = 16;
/// Every `SAMPLE_EVERY`-th reply is compared byte for byte with the
/// engine's in-process answer.
const SAMPLE_EVERY: usize = 64;
/// Length of the windows each round's timed phase is cut into, seconds.
const WINDOW_S: f64 = 1.0;

const CLASSES: [&str; 4] = ["query", "query_1000", "batch_query_16", "stats"];
const QUERY: usize = 0;
const QUERY_LARGE: usize = 1;
const BATCH: usize = 2;
const STATS: usize = 3;

const MAPPINGS: [&str; 3] = ["pub_dblp_gs", "pub_gs_acm", "pub_dblp_acm_via_gs"];

struct Served {
    scenario: Scenario,
    handle: ServerHandle,
    wire: Wire,
}

/// Generate P, start the server and prime the three mappings.
fn set_up(seed: u64) -> (Served, f64) {
    let (s, generate_s) = generate(seed);
    let handle = spawn(serve::engine_over(&s), "127.0.0.1:0").expect("server binds");
    let mut wire = Wire::connect(&handle.addr.to_string()).expect("client connects");
    let name = |id| serve::lds_name(&s, id);
    let (dblp, acm, gs) = (
        name(s.ids.pub_dblp),
        name(s.ids.pub_acm),
        name(s.ids.pub_gs),
    );
    for req in [
        protocol::match_request(MAPPINGS[0], &dblp, &gs, "title", "title", "trigram", 0.75),
        protocol::match_request(MAPPINGS[1], &gs, &acm, "title", "title", "trigram", 0.75),
        protocol::compose_request(MAPPINGS[2], MAPPINGS[0], MAPPINGS[1], "min", "max"),
    ] {
        wire.call_ok(&req);
    }
    (
        Served {
            scenario: s,
            handle,
            wire,
        },
        generate_s,
    )
}

/// The seeded request mix: 60 % `query` limit 1–100, 10 % `query` limit
/// 1000 with `min_sim`, 25 % `batch_query` ×16, 5 % `stats`.
fn request_pool(seed: u64) -> Vec<Prepared> {
    let mut rng = Rng::new(seed, "serve_read.requests");
    let mapping = |rng: &mut Rng| MAPPINGS[rng.range(0, MAPPINGS.len() as u64 - 1) as usize];
    (0..POOL)
        .map(|_| {
            let roll = rng.unit();
            let (class, req) = if roll < 0.60 {
                let m = mapping(&mut rng);
                (QUERY, protocol::query_request(m, rng.range(1, 100), None))
            } else if roll < 0.70 {
                let m = mapping(&mut rng);
                let min_sim = 0.75 + 0.2 * rng.unit();
                (QUERY_LARGE, protocol::query_request(m, 1000, Some(min_sim)))
            } else if roll < 0.95 {
                let items = (0..BATCH_ITEMS)
                    .map(|_| {
                        let m = mapping(&mut rng);
                        protocol::query_item(m, rng.range(1, 100), None)
                    })
                    .collect();
                (BATCH, protocol::batch_query_request(items))
            } else {
                (STATS, protocol::bare_request("stats"))
            };
            Prepared {
                class,
                bytes: req.to_string().into_bytes(),
            }
        })
        .collect()
}

struct Phase {
    all: Histogram,
    per_class: Vec<Histogram>,
    /// Per round trip: `(completion, seconds since the phase began;
    /// latency in ms; class)`.
    trips: Vec<(f64, f64, usize)>,
    phase_s: f64,
    failed: u64,
    /// `(pool index, reply bytes)` of the sampled replies.
    samples: Vec<(usize, Vec<u8>)>,
}

/// Closed loop: send, wait for the reply, send the next.
fn closed_loop(wire: &mut Wire, pool: &[Prepared], seconds: f64, record: bool) -> Phase {
    let mut out = Phase {
        all: Histogram::new(),
        per_class: vec![Histogram::new(); CLASSES.len()],
        trips: Vec::new(),
        phase_s: 0.0,
        failed: 0,
        samples: Vec::new(),
    };
    let phase = Instant::now();
    let mut i = 0usize;
    loop {
        let req = &pool[i % pool.len()];
        let t0 = Instant::now();
        let reply = wire.round_trip(&req.bytes).expect("server answers");
        let done = Instant::now();
        let ns = (done - t0).as_nanos() as u64;
        out.all.record_ns(ns);
        out.per_class[req.class].record_ns(ns);
        out.trips
            .push(((done - phase).as_secs_f64(), ns as f64 / 1e6, req.class));
        out.failed += u64::from(!ok_prefix(&reply));
        if record && i.is_multiple_of(SAMPLE_EVERY) {
            out.samples.push((i % pool.len(), reply));
        }
        i += 1;
        if (done - phase).as_secs_f64() >= seconds {
            break;
        }
    }
    out.phase_s = phase.elapsed().as_secs_f64();
    out
}

/// Sampled replies must equal `Engine::execute_read` byte for byte
/// (`stats` carries an uptime and is left out).
fn check_samples(served: &Served, pool: &[Prepared], phase: &Phase, checks: &mut Checks) {
    let (engine, _) = served.handle.shared().router.engine_read(0);
    let mut compared = 0u64;
    let mut wrong = 0u64;
    for (idx, reply) in &phase.samples {
        let req = &pool[*idx];
        if req.class == STATS {
            continue;
        }
        compared += 1;
        let expect = engine.execute_read(&serve::parse(&req.bytes)).to_string();
        wrong += u64::from(expect.as_bytes() != reply.as_slice());
    }
    checks.check(
        "sampled replies byte-equal to in-process Engine::execute_read",
        compared > 0 && wrong == 0,
        || format!("{wrong} of {compared} differ"),
    );
}

/// Read the whole primed DBLP–GS mapping over the wire and rebuild it,
/// so its quality can be scored against the gold standard.
fn fetch_mapping(served: &mut Served) -> Mapping {
    let s = &served.scenario;
    let reply = served
        .wire
        .call_ok(&protocol::query_request(MAPPINGS[0], 0, None));
    let (dom, rng) = (s.registry.lds(s.ids.pub_dblp), s.registry.lds(s.ids.pub_gs));
    let rows = reply.get("rows").and_then(Json::as_arr).expect("rows");
    let triples = rows.iter().map(|row| {
        let row = row.as_arr().expect("row triple");
        let d = dom
            .index_of(row[0].as_str().expect("id"))
            .expect("known id");
        let r = rng
            .index_of(row[1].as_str().expect("id"))
            .expect("known id");
        (d, r, row[2].as_f64().expect("sim"))
    });
    Mapping::same(
        MAPPINGS[0],
        s.ids.pub_dblp,
        s.ids.pub_gs,
        MappingTable::from_triples(triples),
    )
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut checks = Checks::new(args.self_test);
    let pool = request_pool(args.seed);
    let mut setups = Vec::new();
    let mut generate_s = Vec::new();
    let mut served: Option<Served> = None;
    let mut all = Histogram::new();
    let mut per_class = vec![Histogram::new(); CLASSES.len()];
    let mut windows = WindowStats::default();
    let mut query_windows = WindowStats::default();
    let mut failed = 0u64;
    // Each round sets up afresh — a new server over newly generated
    // sources — and carries its share of the timed phase. Where the
    // allocator places the served tables moves latency by several
    // percent; several placements per run take that luck out of the
    // figure, and set-up time gets a sample per round.
    for round in 0..ROUNDS {
        if let Some(Served { handle, wire, .. }) = served.take() {
            drop(wire);
            handle.stop();
        }
        let t0 = Instant::now();
        let (mut sv, gen_s) = set_up(args.seed);
        setups.push(t0.elapsed().as_secs_f64());
        generate_s.push(gen_s);
        if round == 0 {
            // The reply prefix the loop relies on, confirmed against a parse.
            let probe = sv.wire.round_trip(&pool[0].bytes).expect("probe");
            checks.check(
                "reply leads with its `ok` member",
                ok_prefix(&probe) && is_ok(&serve::parse(&probe)),
                || String::from_utf8_lossy(&probe[..probe.len().min(80)]).into_owned(),
            );
        }
        closed_loop(&mut sv.wire, &pool, 0.5, false); // warm-up traffic, untimed
        if !args.trace {
            let phase = closed_loop(&mut sv.wire, &pool, args.seconds / ROUNDS as f64, true);
            check_samples(&sv, &pool, &phase, &mut checks);
            let (mut every, mut query) = (Vec::new(), Vec::new());
            for &(t, ms, class) in &phase.trips {
                every.push((t, ms));
                if class == QUERY {
                    query.push((t, ms));
                }
            }
            windows.extend(measure::window_stats(&every, phase.phase_s, WINDOW_S, 0.99));
            query_windows.extend(measure::window_stats(&query, phase.phase_s, WINDOW_S, 0.99));
            failed += phase.failed;
            all.merge(&phase.all);
            for (total, h) in per_class.iter_mut().zip(&phase.per_class) {
                total.merge(h);
            }
        }
        served = Some(sv);
    }
    let mut served = served.expect("at least one round");
    let setup_s = measure::median(&setups);

    let outcome = if args.trace {
        traced(
            args,
            &mut served,
            &pool,
            measure::median(&generate_s),
            checks,
        )
    } else {
        let n = all.len();
        checks.check("every reply ok", failed == 0, || {
            format!("{failed} of {n} replies not ok")
        });
        checks.count_ops(n, failed);
        let mapping = fetch_mapping(&mut served);
        let quality = MatchQuality::evaluate(&mapping, &served.scenario.gold.pub_dblp_gs).f1();
        for (name, h) in CLASSES.iter().zip(&per_class) {
            println!(
                "class {name:<15} n={:<7} p50 {:.4} ms  p99 {:.4} ms",
                h.len(),
                h.quantile_ms(0.5),
                h.quantile_ms(0.99)
            );
        }
        if let Some(p) = measure::highest_supported_percentile(n) {
            println!(
                "round trips: n={n}, p{} = {:.4} ms is the highest percentile with ten samples beyond it",
                p * 100.0,
                all.quantile_ms(p)
            );
        }
        let mut out = Outcome::new(checks);
        out.set("setup_s", setup_s, ROUNDS as u64);
        out.set("peak_rss_mb", common::peak_rss_mb(), 1);
        println!("of the whole mix:");
        windows.print("ms");
        println!("of the plain `query` class:");
        query_windows.print("ms");
        // The median of the plain `query` class (60 % of the mix), not of
        // the mix: the mix's median falls where the light classes' upper
        // tail meets the heavy classes, and moved 30 % between runs in
        // which every class's own median moved 5 %. The tail and the rate
        // are the mix's: p99 of a window of several thousand round trips.
        out.set(
            "op_p50_ms",
            measure::quiet_quartile(&query_windows.p50, false),
            per_class[QUERY].len(),
        );
        out.set(
            "op_tail_ms",
            measure::quiet_quartile(&windows.tail, false),
            n,
        );
        out.set("ops_per_s", measure::quiet_quartile(&windows.rate, true), n);
        out.set("f1", quality, mapping.len() as u64);
        out
    };
    let Served { handle, wire, .. } = served;
    drop(wire);
    handle.stop();
    outcome
}

fn traced(
    args: &RunArgs,
    served: &mut Served,
    pool: &[Prepared],
    generate_s: f64,
    mut checks: Checks,
) -> Outcome {
    // End-to-end reference without recording, then the same loop
    // recording replies: the difference is what recording costs.
    let plain = closed_loop(&mut served.wire, pool, args.seconds / 3.0, false);
    let recorded = closed_loop(&mut served.wire, pool, args.seconds / 3.0, true);
    check_samples(served, pool, &recorded, &mut checks);
    let failed = plain.failed + recorded.failed;
    checks.check("every reply ok", failed == 0, || {
        format!("{failed} replies not ok")
    });
    checks.count_ops(plain.all.len() + recorded.all.len(), failed);

    // Replay the pool's requests in-process, layer by layer.
    let requests: Vec<&Prepared> = pool.iter().take(2048).collect();
    let mut tr = Tracer::with_capacity(requests.len() * 6);
    let (stats, replay_failed) = {
        let (engine, _) = served.handle.shared().router.engine_read(0);
        serve::replay_requests(&mut tr, CLASSES.len(), &requests, |r| {
            engine.execute_read(r)
        })
    };
    checks.check("every replayed request ok", replay_failed == 0, || {
        format!("{replay_failed} failed")
    });
    let own = measure::self_times_ns(tr.spans());
    let total = measure::total_times_ns(tr.spans());
    let reqs = stats.requests as f64;
    let us = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e3 / reqs;
    measure::print_self_time_shares(&own, reqs);
    let covered: u64 = own
        .iter()
        .filter(|(k, _)| **k != "request")
        .map(|(_, v)| *v)
        .sum();

    let mut documents: Vec<&[u8]> = requests.iter().map(|r| r.bytes.as_slice()).collect();
    documents.extend(recorded.samples.iter().map(|(_, reply)| reply.as_slice()));
    let ns_per_byte = serve::json_ns_per_byte(&documents);

    // What no codec or engine change can remove from a plain `query`:
    // the client-observed median minus everything replayed in-process.
    let observed_us = plain.per_class[QUERY].quantile_ns(0.5) / 1e3;
    let handled_us = stats.handled[QUERY].quantile_ns(0.5) / 1e3;
    let transport_us = observed_us - handled_us;

    let spans = tr.spans().len() as u64;
    crate::write_trace("serve_read", tr.spans());
    let n = stats.requests;
    let mut out = Outcome::new(checks);
    out.set("datagen.generate_ms", generate_s * 1e3, ROUNDS as u64);
    out.set("frame.read_us", us("frame.read"), n);
    out.set("frame.write_us", us("frame.write"), n);
    out.set("frame.req_bytes", stats.req_bytes as f64 / reqs, n);
    out.set("frame.resp_bytes", stats.resp_bytes as f64 / reqs, n);
    out.set("json.parse_us", us("json.parse"), n);
    out.set("json.encode_us", us("json.encode"), n);
    out.set("json.ns_per_byte", ns_per_byte, documents.len() as u64);
    out.set(
        "engine.read_us",
        stats.engine[QUERY].quantile_ns(0.5) / 1e3,
        stats.engine[QUERY].len(),
    );
    out.set(
        "engine.batch_item_us",
        stats.engine[BATCH].quantile_ns(0.5) / 1e3 / BATCH_ITEMS as f64,
        stats.engine[BATCH].len(),
    );
    out.set(
        "engine.stats_us",
        stats.engine[STATS].quantile_ns(0.5) / 1e3,
        stats.engine[STATS].len(),
    );
    out.set(
        "server.transport_us",
        transport_us,
        plain.per_class[QUERY].len(),
    );
    out.set(
        "server.transport_share",
        transport_us / observed_us,
        plain.per_class[QUERY].len(),
    );
    out.set(
        "server.failed_share",
        failed as f64 / (plain.all.len() + recorded.all.len()) as f64,
        plain.all.len() + recorded.all.len(),
    );
    let refused = served.wire.call_ok(&protocol::bare_request("stats"));
    let count = |k: &str| refused.get(k).and_then(Json::as_u64).unwrap_or(0);
    out.set(
        "server.refused",
        (count("busy_refusals") + count("overloaded_rejections")) as f64,
        1,
    );
    out.set("trace.spans", spans as f64, n);
    out.set(
        "trace.coverage",
        covered as f64 / total["request"].max(1) as f64,
        n,
    );
    let (p, r) = (plain.all.quantile_ns(0.5), recorded.all.quantile_ns(0.5));
    out.set("trace.overhead_share", (r - p) / p, recorded.all.len());
    out
}

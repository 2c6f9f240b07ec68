//! End-to-end test over real TCP: every endpoint answers over the frame
//! protocol, a crash that tears the WAL mid-record is recovered by
//! `--replay` into a state byte-identical to a clean run of the same
//! command prefix, and a checkpoint bounds how much of the log a
//! restart replays.

mod common;

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use common::{assert_dumps_identical, dir_contents, dump_to, scenario_registry, tmp_dir};
use moma_core::exec::Parallelism;
use moma_model::{AttrValue, DeltaOp, LogicalSource, ObjectType, SourceRegistry};
use moma_server::frame::MAX_FRAME;
use moma_server::{
    protocol, spawn, spawn_with_limits, Client, DurabilityPolicy, Engine, Json, Limits, Wal,
};

fn engine(wal: Option<&Path>) -> Engine {
    engine_with_policy(wal, DurabilityPolicy::default())
}

fn engine_with_policy(wal: Option<&Path>, policy: DurabilityPolicy) -> Engine {
    let mut e = Engine::new(scenario_registry(), Parallelism::sequential());
    if let Some(dir) = wal {
        e.wal_create(dir, policy).expect("wal create");
    }
    e
}

fn delta_req(i: usize) -> Json {
    protocol::delta_request(
        "Publication@GS",
        &[DeltaOp::Add {
            id: format!("e2e_{i}"),
            fields: vec![(
                "title".into(),
                AttrValue::Text(format!("Crash recovery for matching services part {i}")),
            )],
        }],
    )
}

/// The scripted command sequence both the crashed run and the reference
/// run execute. Returns the requests in order.
fn script() -> Vec<Json> {
    let mut reqs = vec![
        protocol::match_request(
            "m_da",
            "Publication@DBLP",
            "Publication@ACM",
            "title",
            "title",
            "trigram",
            0.7,
        ),
        protocol::match_request(
            "m_ag",
            "Publication@ACM",
            "Publication@GS",
            "title",
            "title",
            "trigram",
            0.7,
        ),
        protocol::compose_request("c_dg", "m_da", "m_ag", "min", "max"),
    ];
    for i in 0..4 {
        reqs.push(delta_req(i));
    }
    reqs
}

/// Full endpoint sweep over real TCP against a spawned server.
#[test]
fn tcp_endpoints_end_to_end() {
    let handle = spawn(engine(None), "127.0.0.1:0").expect("spawn");
    let addr = handle.addr.to_string();
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");

    let pong = c.call_ok(&protocol::bare_request("ping")).expect("ping");
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    for req in script() {
        c.call_ok(&req).expect("scripted command");
    }

    // query: snapshot-backed read with resolved instance ids.
    let q = c
        .call_ok(&protocol::query_request("c_dg", 5, None))
        .expect("query");
    assert_eq!(q.str_field("name"), Some("c_dg"));
    assert!(q.num_field("total").unwrap() >= 1.0);
    let rows = q.get("rows").and_then(Json::as_arr).expect("rows");
    assert!(rows.len() <= 5);
    for row in rows {
        let row = row.as_arr().expect("row triple");
        assert_eq!(row.len(), 3);
        assert!(row[0].as_str().is_some() && row[1].as_str().is_some());
        assert!(row[2].as_f64().is_some());
    }

    // Unknown mapping must fail without killing the connection.
    let bad = c
        .call(&protocol::query_request("nope", 1, None))
        .expect("transport ok");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));

    // checkpoint: a memory-only server refuses, naming the missing WAL.
    let cp = c
        .call(&protocol::checkpoint_request())
        .expect("transport ok");
    assert_eq!(cp.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        cp.str_field("error")
            .unwrap_or("")
            .contains("write-ahead log"),
        "checkpoint refusal names the WAL: {cp}"
    );

    // stats: counters + server-layer fields.
    let stats = c.call_ok(&protocol::bare_request("stats")).expect("stats");
    let commands = stats.get("commands").expect("commands");
    assert_eq!(commands.num_field("match"), Some(2.0));
    assert_eq!(commands.num_field("compose"), Some(1.0));
    assert_eq!(commands.num_field("delta"), Some(4.0));
    assert!(stats.num_field("requests").unwrap() >= 1.0);
    assert!(stats.num_field("uptime_ms").is_some());

    // dump: persisted mapping tables + manifest on disk.
    let dump_dir = tmp_dir("dump");
    c.call_ok(&protocol::dump_request(dump_dir.to_str().unwrap()))
        .expect("dump");
    assert!(dump_dir.join("manifest.tsv").is_file());

    // A second concurrent client sees the same state.
    let mut c2 = Client::connect(&addr).expect("second client");
    let q2 = c2
        .call_ok(&protocol::query_request("c_dg", 5, None))
        .expect("query from second client");
    assert_eq!(q2.num_field("total"), q.num_field("total"));

    // shutdown: acknowledged, then the server goes away.
    let bye = c
        .call_ok(&protocol::bare_request("shutdown"))
        .expect("shutdown");
    assert_eq!(bye.get("stopping").and_then(Json::as_bool), Some(true));
    handle.stop();
    assert!(Client::connect(&addr).is_err(), "listener must be closed");
    let _ = fs::remove_dir_all(&dump_dir);
}

/// A reply over `MAX_FRAME` — a full `query` of a mapping with long
/// instance ids — is answered with an error naming its size, the limit
/// and the way out, it counts as a request error, and the connection
/// stays usable.
#[test]
fn an_oversized_reply_is_refused_and_the_connection_survives() {
    let long = "x".repeat(2200);
    let mut reg = SourceRegistry::new();
    for pds in ["DBLP", "GS"] {
        let mut lds = LogicalSource::new(pds, ObjectType::new("Publication"), vec![]);
        for i in 0..64 {
            lds.insert_record(format!("{pds}{i}{long}"), vec![])
                .unwrap();
        }
        reg.register(lds).unwrap();
    }
    let mut e = Engine::new(reg, Parallelism::sequential());
    let rows: Vec<_> = (0..64u32)
        .flat_map(|i| (0..64u32).map(move |j| (i, j, 0.5)))
        .collect();
    let install =
        protocol::install_request("all", "Publication@DBLP", "Publication@GS", &rows, None);
    let r = e.execute(&install);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let handle = spawn(e, "127.0.0.1:0").expect("spawn");
    let mut c = Client::connect(&handle.addr.to_string()).expect("connect");

    let r = c
        .call(&protocol::query_request("all", 0, None))
        .expect("a reply, not a dropped connection");
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
    let error = r.str_field("error").unwrap_or_default();
    let size = error
        .split(' ')
        .nth(5)
        .and_then(|n| n.parse::<usize>().ok());
    assert!(size > Some(MAX_FRAME), "{error}");
    for part in [MAX_FRAME.to_string().as_str(), "`limit`", "`min_sim`"] {
        assert!(error.contains(part), "{error}");
    }
    let some = c.call_ok(&protocol::query_request("all", 10, None));
    let rows = some
        .expect("a bounded query")
        .get("rows")
        .and_then(Json::as_arr)
        .map(<[_]>::len);
    assert_eq!(rows, Some(10));
    c.call_ok(&protocol::bare_request("ping")).expect("ping");
    let stats = c.call_ok(&protocol::bare_request("stats")).expect("stats");
    assert_eq!(stats.num_field("request_errors"), Some(1.0), "{stats}");
    handle.stop();
}

/// A client that dies mid-frame (header started, never finished) must
/// not block shutdown: the handler thread's mid-frame retry loop checks
/// the stop flag, and the accept loop's join of that thread returns.
#[test]
fn shutdown_completes_with_stalled_mid_frame_client() {
    let handle = spawn(engine(None), "127.0.0.1:0").expect("spawn");
    let addr = handle.addr;

    let mut stalled = std::net::TcpStream::connect(addr).expect("raw connect");
    stalled.write_all(&[0x00, 0x00]).expect("partial header");
    // Let the handler thread observe the partial header and enter the
    // mid-frame retry loop before stopping.
    std::thread::sleep(Duration::from_millis(600));

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.stop();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("ServerHandle::stop() must return despite a client stalled mid-frame");
    drop(stalled);
}

/// Crash-replay bit-identity: run the script with a WAL, tear the final
/// record (simulating a kill -9 mid-fsync), replay into a fresh engine,
/// and compare its full persisted dump byte-for-byte with a clean engine
/// that executed exactly the surviving command prefix.
#[test]
fn torn_wal_replay_matches_clean_run_bit_identically() {
    let work = tmp_dir("wal");
    let wal_dir = work.join("wal");

    // Crashed run: all commands logged, then the tail record torn.
    {
        let mut crashed = engine(Some(&wal_dir));
        for req in script() {
            let resp = crashed.execute(&req);
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        }
        // Engine (and its WAL file handle) dropped here: the "crash".
    }
    // Default policy never rotates at this volume: one segment file.
    let seg_path = wal_dir.join("wal.000001.log");
    let full = fs::read(&seg_path).expect("wal bytes");
    let torn_at = full.len() - 7; // mid-payload of the final record
    let mut f = fs::File::create(&seg_path).expect("rewrite wal");
    f.write_all(&full[..torn_at]).expect("torn write");
    drop(f);

    // Replay: recovers every record except the torn one.
    let mut replayed = Engine::new(scenario_registry(), Parallelism::sequential());
    let summary = replayed
        .recover(&wal_dir, DurabilityPolicy::default())
        .expect("replay");
    let total = script().len();
    assert_eq!(summary.replayed, total - 1, "torn tail record dropped");
    assert_eq!(summary.checkpoint_seq, 0, "no checkpoint to restore from");
    assert_eq!(summary.skipped, 0);
    assert!(summary.dropped_bytes > 0);
    assert!(summary.stop_reason.is_some());
    assert_eq!(summary.failed, 0);
    // The WAL resumes after the last valid record.
    assert_eq!(replayed.wal_seq(), (total - 1) as u64);

    // Reference run: a fresh engine executing only the surviving prefix.
    let mut reference = Engine::new(scenario_registry(), Parallelism::sequential());
    for req in script().iter().take(total - 1) {
        let resp = reference.execute(req);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }

    // Byte-identical persisted state (mapping tables + manifest with
    // versions, counters and source cardinalities).
    let replay_dump = work.join("replayed");
    let reference_dump = work.join("reference");
    dump_to(&replayed, &replay_dump);
    dump_to(&reference, &reference_dump);
    assert_dumps_identical(&replay_dump, &reference_dump);

    // And the recovered engine keeps serving: one more delta succeeds
    // and lands in the resumed WAL with the next sequence number.
    let resp = replayed.execute(&delta_req(900));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    assert_eq!(replayed.wal_seq(), total as u64);

    let _ = fs::remove_dir_all(&work);
}

/// A connection past `max_connections` gets one `busy` frame and is
/// closed — and the accept loop keeps serving afterwards (regression
/// test for the old `.expect("spawn handler thread")` abort path: any
/// failure to take on a connection must refuse that connection, not
/// kill the server).
#[test]
fn connection_cap_refuses_with_busy_and_keeps_serving() {
    let limits = Limits {
        max_connections: 1,
        ..Limits::default()
    };
    let handle = spawn_with_limits(engine(None), "127.0.0.1:0", limits).expect("spawn");
    let addr = handle.addr.to_string();

    let mut first = Client::connect_retry(&addr, Duration::from_secs(5)).expect("first client");
    first
        .call_ok(&protocol::bare_request("ping"))
        .expect("first client ping");

    // Second connection: refused with an explicit busy frame (or a
    // clean close if the refusal frame races our write).
    let mut refused = Client::connect(&addr).expect("tcp connect");
    match refused.call(&protocol::bare_request("ping")) {
        Ok(r) => {
            assert_eq!(r.get("busy").and_then(Json::as_bool), Some(true), "{r}");
            assert!(r.get("retry_after_ms").and_then(Json::as_u64).is_some());
        }
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected refusal error: {e}"
        ),
    }
    drop(refused);

    // Free the slot; the accept loop must still be alive and serve a
    // new connection once the handler thread exits.
    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut again = Client::connect_retry(&addr, Duration::from_secs(5)).expect("reconnect");
        match again.call(&protocol::bare_request("ping")) {
            Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => break,
            _ if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("server stopped serving after a busy refusal: {other:?}"),
        }
    }
    handle.stop();
}

/// Write-budget overload: with shard 0's one write slot held (the test
/// takes it, as a slow writer would), a delta gets an explicit
/// `overloaded` response with a retry hint, reads keep answering, and a
/// retried delta succeeds once the slot frees.
#[test]
fn write_overload_answers_overloaded_and_recovers() {
    let limits = Limits {
        max_pending_writes: 1,
        retry_after_ms: 25,
        ..Limits::default()
    };
    let handle = spawn_with_limits(engine(None), "127.0.0.1:0", limits).expect("spawn");
    let addr = handle.addr.to_string();

    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    c.call_ok(&protocol::match_request(
        "m_ov",
        "Publication@DBLP",
        "Publication@GS",
        "title",
        "title",
        "trigram",
        0.75,
    ))
    .expect("prime matcher");

    let inflight_writes = &handle.shared().router.shard(0).inflight_writes;
    inflight_writes.fetch_add(1, Ordering::AcqRel);

    // Mutating command while the slot is held: explicit overloaded.
    let r = c.call(&delta_req(0)).expect("transport ok");
    assert_eq!(
        r.get("overloaded").and_then(Json::as_bool),
        Some(true),
        "expected overloaded, got: {r}"
    );
    assert_eq!(r.get("retry_after_ms").and_then(Json::as_u64), Some(25));

    // Reads are admitted from their own budget and see the engine.
    let q = c
        .call_ok(&protocol::query_request("m_ov", 3, None))
        .expect("read during overload");
    assert_eq!(q.str_field("name"), Some("m_ov"));

    inflight_writes.fetch_sub(1, Ordering::AcqRel);
    c.call_ok(&delta_req(0))
        .expect("the retried delta is admitted once the slot frees");

    let stats = c.call_ok(&protocol::bare_request("stats")).expect("stats");
    assert!(
        stats
            .get("overloaded_rejections")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1
    );
    assert_eq!(stats.get("degraded").and_then(Json::as_bool), Some(false));
    handle.stop();
}

/// A panic while holding shard 0's write lock poisons nothing
/// permanently: the lock is recovered and the server keeps applying
/// deltas — with `degraded: true` in stats (regression test for the old
/// `.expect("engine lock poisoned")` crash chain). The `internal error`
/// reply to a panicking command is pinned in-process by
/// `server::tests::executor_contains_a_panicking_closure`.
#[test]
fn handler_panic_recovers_lock_and_reports_degraded() {
    let handle = spawn(engine(None), "127.0.0.1:0").expect("spawn");
    let addr = handle.addr.to_string();
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");

    let shared = Arc::clone(handle.shared());
    let holder = std::thread::spawn(move || {
        let _guard = shared.router.engine_write(0);
        panic!("injected panic under shard 0's write lock");
    });
    assert!(holder.join().is_err(), "the holder panicked");

    // The poisoned lock is recovered: the next mutating command works.
    let r = c.call(&delta_req(1)).expect("transport ok");
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    let q = c
        .call_ok(&protocol::query_request("no_such", 1, None))
        .err()
        .map(|e| e.to_string())
        .unwrap_or_default();
    assert!(q.contains("unknown mapping"), "reads still answer: {q}");

    let stats = c.call_ok(&protocol::bare_request("stats")).expect("stats");
    assert_eq!(stats.get("degraded").and_then(Json::as_bool), Some(true));
    handle.stop();
}

/// The background checkpointer publishes an automatic checkpoint off
/// the delta path: deltas only cross the records threshold, and the
/// server-owned thread picks the work up within its poll interval.
#[test]
fn background_checkpointer_publishes_automatically() {
    let work = tmp_dir("bg_ckpt");
    let wal_dir = work.join("wal");
    let policy = DurabilityPolicy {
        checkpoint_every_records: 3,
        ..DurabilityPolicy::default()
    };
    let handle = spawn(engine_with_policy(Some(&wal_dir), policy), "127.0.0.1:0").expect("spawn");
    let addr = handle.addr.to_string();
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");

    for i in 0..4 {
        c.call_ok(&delta_req(i)).expect("delta");
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let stats = c.call_ok(&protocol::bare_request("stats")).expect("stats");
        let cp_seq = stats
            .get("wal")
            .and_then(|w| w.get("checkpoint_seq"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if cp_seq > 0 {
            break stats;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no automatic checkpoint within 5s: {stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        stats
            .get("auto_checkpoints")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "stats counts the background checkpoint: {stats}"
    );
    handle.stop();
    let _ = fs::remove_dir_all(&work);
}

/// `batch_delta` applies item-by-item and logs one WAL group commit
/// whose replay is bit-identical to the same items sent singly.
#[test]
fn batch_delta_matches_singles_bit_identically() {
    let work = tmp_dir("batch");
    let batch_wal = work.join("wal_batch");
    let singles_wal = work.join("wal_singles");

    let items: Vec<Json> = (0..4)
        .map(|i| {
            protocol::delta_item(
                "Publication@GS",
                &[DeltaOp::Add {
                    id: format!("e2e_{i}"),
                    fields: vec![(
                        "title".into(),
                        AttrValue::Text(format!("Crash recovery for matching services part {i}")),
                    )],
                }],
            )
        })
        .collect();

    let mut batched = engine(Some(&batch_wal));
    let resp = batched.execute(&protocol::batch_delta_request(items));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    assert_eq!(resp.get("count").and_then(Json::as_u64), Some(4));
    assert_eq!(resp.get("first_seq").and_then(Json::as_u64), Some(1));
    assert_eq!(resp.get("last_seq").and_then(Json::as_u64), Some(4));
    let results = resp.get("results").and_then(Json::as_arr).expect("results");
    assert_eq!(results.len(), 4);
    for item in results {
        assert_eq!(item.get("ok").and_then(Json::as_bool), Some(true), "{item}");
    }

    let mut singly = engine(Some(&singles_wal));
    for i in 0..4 {
        let resp = singly.execute(&delta_req(i));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }

    // Same live state...
    let batch_dump = work.join("dump_batch");
    let singles_dump = work.join("dump_singles");
    dump_to(&batched, &batch_dump);
    dump_to(&singly, &singles_dump);
    assert_dumps_identical(&batch_dump, &singles_dump);

    // ...same on-disk log: the group commit wrote the items as N
    // ordinary consecutive-seq delta records, byte-identical to the
    // singles run.
    let batch_scan = Wal::scan(&batch_wal).expect("scan batch wal");
    let singles_scan = Wal::scan(&singles_wal).expect("scan singles wal");
    assert_eq!(batch_scan.records.len(), 4);
    for (i, (b, s)) in batch_scan
        .records
        .iter()
        .zip(&singles_scan.records)
        .enumerate()
    {
        assert_eq!(b.seq, i as u64 + 1);
        assert_eq!(b.seq, s.seq);
        assert_eq!(b.payload, s.payload, "record {i} payload differs");
    }

    // And a replay of the group-committed log restores the same state.
    drop(batched);
    let mut replayed = Engine::new(scenario_registry(), Parallelism::sequential());
    let summary = replayed
        .recover(&batch_wal, DurabilityPolicy::default())
        .expect("recover");
    assert_eq!(summary.replayed, 4);
    assert_eq!(summary.failed, 0);
    let replay_dump = work.join("dump_replayed");
    dump_to(&replayed, &replay_dump);
    assert_dumps_identical(&replay_dump, &singles_dump);

    let _ = fs::remove_dir_all(&work);
}

/// `batch_query` answers each item with exactly the frame a singleton
/// `query` would produce, over real TCP.
#[test]
fn batch_query_matches_singleton_responses() {
    let handle = spawn(engine(None), "127.0.0.1:0").expect("spawn");
    let addr = handle.addr.to_string();
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    for req in script() {
        c.call_ok(&req).expect("scripted command");
    }

    let items = vec![
        protocol::query_item("c_dg", 5, None),
        protocol::query_item("m_da", 0, Some(0.9)),
        protocol::query_item("no_such_mapping", 1, None),
    ];
    let batched = c.batch_query(items.clone()).expect("batch_query");
    assert_eq!(batched.len(), items.len());
    for (i, item) in items.iter().enumerate() {
        let mut single = item.clone();
        if let Json::Obj(fields) = &mut single {
            fields.insert(0, ("cmd".to_owned(), Json::Str("query".to_owned())));
        }
        let resp = c.call(&single).expect("singleton query");
        assert_eq!(
            batched[i].to_string(),
            resp.to_string(),
            "batch item {i} differs from singleton response"
        );
    }
    // The per-item error (unknown mapping) is carried in the results
    // array, not as a batch failure.
    assert_eq!(batched[2].get("ok").and_then(Json::as_bool), Some(false));
    handle.stop();
}

/// Restart after a checkpoint replays only the post-checkpoint suffix —
/// and the recovered state is still bit-identical to a clean run of the
/// whole script.
#[test]
fn restart_after_checkpoint_replays_only_the_suffix() {
    let work = tmp_dir("ckpt");
    let wal_dir = work.join("wal");
    let policy = DurabilityPolicy {
        segment_records: 2,
        ..DurabilityPolicy::default()
    };
    let reqs = script();
    let total = reqs.len();
    let prefix = 3; // checkpoint after the matchers + composition

    {
        let mut crashed = engine_with_policy(Some(&wal_dir), policy);
        for req in reqs.iter().take(prefix) {
            let resp = crashed.execute(req);
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        }
        let cp = crashed.execute(&protocol::checkpoint_request());
        assert_eq!(cp.get("ok").and_then(Json::as_bool), Some(true), "{cp}");
        assert_eq!(cp.get("seq").and_then(Json::as_u64), Some(prefix as u64));
        for req in reqs.iter().skip(prefix) {
            let resp = crashed.execute(req);
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        }
        // Crash: engine dropped without another checkpoint.
    }

    let mut recovered = Engine::new(scenario_registry(), Parallelism::sequential());
    let summary = recovered.recover(&wal_dir, policy).expect("recover");
    assert_eq!(summary.checkpoint_seq, prefix as u64);
    assert_eq!(summary.replayed, total - prefix);
    assert!(
        summary.replayed < total,
        "checkpoint must bound replay below the full command count"
    );
    assert_eq!(
        summary.skipped, prefix,
        "the first checkpoint keeps the segments it covers as its fallback"
    );
    assert_eq!(summary.failed, 0);
    assert_eq!(recovered.wal_seq(), total as u64);

    // Clean reference run of the full script, no WAL involved.
    let mut reference = Engine::new(scenario_registry(), Parallelism::sequential());
    for req in &reqs {
        let resp = reference.execute(req);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }

    let recovered_dump = work.join("recovered");
    let reference_dump = work.join("reference");
    dump_to(&recovered, &recovered_dump);
    dump_to(&reference, &reference_dump);
    assert_dumps_identical(&recovered_dump, &reference_dump);

    let _ = fs::remove_dir_all(&work);
}

/// A one-shard server is the router with N = 1, and a gather over one
/// shard is the identity: every reply — to reads, writes, refusals and
/// malformed requests alike — is byte for byte what an embedded
/// `Engine` answers, and the dumped state agrees file for file.
#[test]
fn one_shard_server_answers_byte_for_byte_like_an_embedded_engine() {
    let work = tmp_dir("twin");
    let dump_dir = work.join("dump");
    let dump_dir = dump_dir.to_str().unwrap();
    let handle = spawn(engine(None), "127.0.0.1:0").expect("spawn");
    let mut c =
        Client::connect_retry(&handle.addr.to_string(), Duration::from_secs(5)).expect("connect");
    let mut twin = engine(None);

    let gs_items = |ids: [usize; 2]| {
        ids.map(|i| delta_req(i).take_field("ops").expect("ops"))
            .map(|ops| {
                Json::obj(vec![
                    ("lds", Json::Str("Publication@GS".into())),
                    ("ops", ops),
                ])
            })
            .to_vec()
    };
    let without = |req: Json, key: &str| match req {
        Json::Obj(fields) => Json::Obj(fields.into_iter().filter(|(k, _)| k != key).collect()),
        other => other,
    };
    let mut requests = script(); // match ×2, compose, delta ×4
    requests.extend([
        protocol::batch_delta_request(gs_items([10, 11])),
        protocol::query_request("c_dg", 5, None),
        protocol::batch_query_request(vec![
            protocol::query_item("m_da", 3, Some(0.8)),
            protocol::query_item("c_dg", 0, None),
        ]),
        protocol::bare_request("ping"),
        protocol::checkpoint_request(), // no WAL: refused
        protocol::bare_request("frobnicate"),
        protocol::query_request("no_such_mapping", 1, None),
        // A request that does not decode is refused alike, logged and
        // counted by neither; one no plan can be made for is worded (and,
        // a write, logged and counted) by the lone shard's engine.
        without(script()[0].clone(), "name"),
        protocol::compose_request("c_bad", "m_da", "ghost", "min", "max"),
        protocol::delta_request("Venue@Nowhere", &[]),
        protocol::delta_request("Venue@DBLP", &[]), // hosted by no mapping
        protocol::batch_delta_request(vec![Json::obj(vec![("ops", Json::Arr(vec![]))])]),
        protocol::batch_query_request(vec![
            protocol::query_item("ghost", 1, None),
            Json::obj(vec![("limit", Json::Uint(1))]),
        ]),
        protocol::batch_query_request(vec![]),
        Json::obj(vec![("name", Json::Str("no cmd".into()))]),
    ]);
    for req in &requests {
        let served = c.call(req).expect("transport ok").to_string();
        assert_eq!(served, twin.execute(req).to_string(), "request: {req}");
    }

    // `dump`: same reply, same files.
    let dump = protocol::dump_request(dump_dir);
    let served = c.call(&dump).expect("transport ok").to_string();
    let served_files = dir_contents(Path::new(dump_dir));
    fs::remove_dir_all(dump_dir).expect("clear dump");
    assert_eq!(served, twin.execute(&dump).to_string());
    assert_eq!(served_files, dir_contents(Path::new(dump_dir)));

    // `stats`: the engine's object, unmerged, with the server's
    // counters appended — the durable counters agree because every
    // refusal above was logged and counted (or not) the same on both
    // sides.
    let served = c.stats().expect("stats").to_string();
    let embedded = twin.stats().to_string();
    let engine_part = embedded.strip_suffix('}').expect("an object");
    assert!(served.starts_with(engine_part), "{served}\nvs\n{embedded}");
    assert!(served[engine_part.len()..].starts_with(",\"uptime_ms\":"));

    handle.stop();
    let _ = fs::remove_dir_all(&work);
}

/// A field that is present but malformed is refused with an error
/// naming it instead of being read as its default: `limit: -1` used to
/// return 100 rows, `min_sim: "0.9"` to filter nothing, a `match` with
/// `threshold: "0.9"` ran at 0.7, `sim: 5` ran `trigram`, a string
/// `shard` hint was ignored, a `compose` with `f: 1` ran `min`. In a
/// `batch_query` item it refuses the batch. Nothing refused is logged
/// or counted; an absent field keeps its default.
#[test]
fn malformed_query_fields_are_refused_not_defaulted() {
    let handle = spawn(engine(None), "127.0.0.1:0").expect("spawn");
    let mut c =
        Client::connect_retry(&handle.addr.to_string(), Duration::from_secs(5)).expect("connect");
    c.call_ok(&script()[0]).expect("match");
    let total = c.query("m_da", 0, None).expect("query").num_field("total");
    let total = total.expect("a total") as usize;
    assert!(total > 2, "enough rows to tell a limit");

    let error_of = |reply: &Json| {
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "{reply}"
        );
        reply.str_field("error").unwrap_or_default().to_owned()
    };
    let query = protocol::query_item("m_da", 2, None);
    let matcher = script()[1].clone();
    let compose = protocol::compose_request("c_bad", "m_da", "m_da", "min", "max");
    for (base, field, value) in [
        (&query, "limit", Json::Num(-1.0)),
        (&query, "limit", Json::Num(2.5)),
        (&query, "limit", Json::Str("10".into())),
        (&query, "limit", Json::Null),
        (&query, "min_sim", Json::Str("0.9".into())),
        (&query, "min_sim", Json::Bool(true)),
        (&matcher, "threshold", Json::Str("0.9".into())),
        (&matcher, "sim", Json::Num(5.0)),
        (&matcher, "blocking", Json::Num(5.0)),
        (&matcher, "domain_attr", Json::Null),
        (&matcher, "shard", Json::Str("0".into())),
        (&compose, "f", Json::Num(1.0)),
        (&compose, "g", Json::Bool(true)),
    ] {
        let faulty = base.clone().set_field(field, value.clone());
        let single = match faulty.get("cmd") {
            Some(_) => faulty.clone(),
            None => faulty.clone().set_field("cmd", Json::Str("query".into())),
        };
        let error = error_of(&c.call(&single).expect("transport ok"));
        assert!(
            error.contains(&format!("`{field}`")),
            "{field}={value}: {error}"
        );
        if base == &query {
            let batch =
                protocol::batch_query_request(vec![protocol::query_item("m_da", 1, None), faulty]);
            let error = error_of(&c.call(&batch).expect("transport ok"));
            assert!(
                error.starts_with(&format!("batch_query item 1 `{field}`")),
                "{field}={value}: {error}"
            );
        }
    }
    let stats = c.stats().expect("stats");
    let commands = stats.get("commands").expect("commands");
    assert_eq!(commands.num_field("match"), Some(1.0), "{stats}");
    assert_eq!(commands.num_field("compose"), Some(0.0), "{stats}");

    // Absent: `limit` 100, `min_sim` 0.
    let bare = Json::obj(vec![
        ("cmd", Json::Str("query".into())),
        ("name", Json::Str("m_da".into())),
    ]);
    let all = c.call_ok(&bare).expect("defaults");
    let rows = all.get("rows").and_then(Json::as_arr).map(<[Json]>::len);
    assert_eq!(rows, Some(total.min(100)));
    handle.stop();
}

/// Readers never wait for writers: while the test holds shard 0's
/// engine write lock, `query`, `batch_query` and `stats` each answer
/// over TCP within 200 ms, at the version before the write; once the
/// lock is released and a delta lands, the next `query` shows the new
/// version.
#[test]
fn reads_answer_while_the_write_lock_is_held() {
    use std::sync::mpsc;
    use std::time::Instant;

    let handle = spawn(engine(None), "127.0.0.1:0").expect("spawn");
    let addr = handle.addr.to_string();
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    for req in script() {
        c.call_ok(&req).expect("scripted command");
    }
    let version = |reply: &Json| reply.get("version").and_then(Json::as_u64);
    let before = version(&c.query("m_ag", 1, None).expect("query"));
    assert!(before.is_some());

    let (guard, _) = handle.shared().router.engine_write(0);
    let reads = [
        protocol::query_request("m_ag", 1, None),
        protocol::batch_query_request(vec![protocol::query_item("m_ag", 1, None)]),
        protocol::bare_request("stats"),
    ];
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut r = Client::connect(&addr).expect("reader connects");
        for req in reads {
            let t0 = Instant::now();
            let reply = r.call_ok(&req).expect("read answered");
            if tx.send((t0.elapsed(), reply)).is_err() {
                return;
            }
        }
    });
    let mut answers = Vec::new();
    while answers.len() < 3 {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(answer) => answers.push(answer),
            Err(_) => break,
        }
    }
    drop(guard);
    reader.join().expect("reader thread");
    assert_eq!(answers.len(), 3, "a read waited for the engine write lock");
    for (took, _) in &answers {
        assert!(*took < Duration::from_millis(200), "a read took {took:?}");
    }
    let [(_, query), (_, batch), (_, stats)] = &answers[..] else {
        unreachable!("three answers")
    };
    assert_eq!(version(query), before, "{query}");
    let results = batch
        .get("results")
        .and_then(Json::as_arr)
        .expect("results");
    assert_eq!(version(&results[0]), before, "{batch}");
    let mappings = stats
        .get("mappings")
        .and_then(Json::as_arr)
        .expect("mappings");
    let m_ag = mappings
        .iter()
        .find(|m| m.str_field("name") == Some("m_ag"));
    assert_eq!(m_ag.and_then(version), before, "{stats}");

    c.call_ok(&delta_req(100))
        .expect("delta after the lock drops");
    let after = version(&c.query("m_ag", 1, None).expect("query"));
    assert!(after > before, "{after:?} after {before:?}");
    handle.stop();
}

/// The command table is total and consistent: a row's class says
/// whether it is logged and whether it locks, every wire-visible command has a
/// `protocol::` builder, and the `unknown command` error names exactly
/// the wire-visible commands.
#[test]
fn command_table_is_total() {
    use moma_server::commands::{lookup, Class, Cmd, Visibility, COMMANDS};

    let mut wire = Vec::new();
    for row in COMMANDS {
        assert_eq!(row.cmd.row().name, row.name, "one row per Cmd");
        let (logged, locked) = match row.class {
            Class::LoggedWrite => (true, true),
            Class::UnloggedWrite => (false, true),
            Class::Read | Class::Coordinator => (false, false),
        };
        let class = lookup(row.name).expect("a row by its own name").class;
        assert_eq!(class.is_logged(), logged, "{}", row.name);
        assert_eq!(class.takes_write_lock(), locked, "{}", row.name);
        assert!(!row.summary.is_empty(), "{}", row.name);
        if row.visibility != Visibility::Wire {
            continue;
        }
        wire.push(row.name);
        let built = match row.cmd {
            Cmd::Match => protocol::match_request("m", "d", "r", "a", "a", "trigram", 0.5),
            Cmd::Compose => protocol::compose_request("c", "l", "r", "min", "max"),
            Cmd::Query => protocol::query_request("m", 1, None),
            Cmd::BatchQuery => protocol::batch_query_request(vec![]),
            Cmd::Delta => protocol::delta_request("s", &[]),
            Cmd::BatchDelta => protocol::batch_delta_request(vec![]),
            Cmd::Checkpoint => protocol::checkpoint_request(),
            Cmd::Dump => protocol::dump_request("dir"),
            Cmd::Ping | Cmd::Stats | Cmd::Shutdown => protocol::bare_request(row.name),
            Cmd::Install => panic!("`{}` is not a wire command", row.name),
        };
        assert_eq!(built.str_field("cmd"), Some(row.name));
    }

    let reply = engine(None).execute_read(&protocol::bare_request("frobnicate"));
    let error = reply.str_field("error").expect("an error");
    let listed = error
        .split_once("(expected ")
        .and_then(|(_, rest)| rest.strip_suffix(')'))
        .expect("the expected-list");
    assert_eq!(listed.split('/').collect::<Vec<_>>(), wire);
}

/// A `match` naming a gram length past `SimFn::MAX_GRAM_LENGTH` is
/// refused: the reply names the maximum, the connection serves its next
/// request, and — a request that does not decode — it is neither logged
/// nor counted, so replay has nothing to fail again. Before the maximum, `qgram:1000000` was accepted and
/// padded every value with ~2 million chars — one request could exhaust
/// the server's memory, and `--replay` repeated it.
#[test]
fn a_gram_length_past_the_maximum_is_refused_and_replays_as_a_failure() {
    let work = tmp_dir("qmax");
    let wal_dir = work.join("wal");
    let handle = spawn(engine(Some(&wal_dir)), "127.0.0.1:0").expect("spawn");
    let mut c =
        Client::connect_retry(&handle.addr.to_string(), Duration::from_secs(5)).expect("connect");
    let (d, r) = ("Publication@DBLP", "Publication@ACM");
    let huge = protocol::match_request("huge", d, r, "title", "title", "qgram:1000000", 0.5);
    let reply = c.call(&huge).expect("transport ok");
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(false),
        "{reply}"
    );
    let error = reply.str_field("error").unwrap_or_default();
    let max = moma_simstring::SimFn::MAX_GRAM_LENGTH;
    assert!(
        error.starts_with("unknown similarity `qgram:1000000` (")
            && error.contains(&format!("qgram:Q≤{max}")),
        "{error}"
    );
    c.call_ok(&script()[0]).expect("the next request is served");
    let stats = c.call_ok(&protocol::bare_request("stats")).expect("stats");
    let commands = stats.get("commands").expect("commands");
    assert_eq!(commands.num_field("match"), Some(1.0), "{stats}");
    c.call_ok(&protocol::bare_request("shutdown"))
        .expect("shutdown");
    handle.stop();

    let mut replayed = Engine::new(scenario_registry(), Parallelism::sequential());
    let summary = replayed
        .recover(&wal_dir, DurabilityPolicy::default())
        .expect("replay");
    assert_eq!(summary.replayed, 1);
    assert_eq!(summary.failed, 0, "the refused match was never logged");
    assert_eq!(replayed.wal_seq(), 1);
    let _ = fs::remove_dir_all(&work);
}

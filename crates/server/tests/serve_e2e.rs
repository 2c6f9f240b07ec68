//! End-to-end test over real TCP: every endpoint answers over the frame
//! protocol, a crash that tears the WAL mid-record is recovered by
//! `--replay` into a state byte-identical to a clean run of the same
//! command prefix, and a checkpoint bounds how much of the log a
//! restart replays.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

use moma_core::exec::Parallelism;
use moma_datagen::{Scenario, WorldConfig};
use moma_model::{AttrValue, DeltaOp, SourceRegistry};
use moma_server::{
    protocol, spawn, spawn_with_limits, Client, DurabilityPolicy, Engine, Json, Limits, Wal,
};

fn scenario_registry() -> SourceRegistry {
    let scenario = Scenario::generate({
        let mut cfg = WorldConfig::small();
        cfg.seed = 99;
        cfg
    });
    scenario.registry
}

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

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("moma_e2e_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Recursively read a directory into sorted (relative-path, bytes) pairs.
fn dir_contents(root: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for entry in fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.push((rel, fs::read(&path).expect("read file")));
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

/// Assert two persisted dumps are byte-identical.
fn assert_dumps_identical(a_dir: &Path, b_dir: &Path) {
    let a = dir_contents(a_dir);
    let b = dir_contents(b_dir);
    assert!(!a.is_empty());
    assert_eq!(
        a.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        b.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "dump file sets differ"
    );
    for ((name, bytes_a), (_, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(bytes_a, bytes_b, "dump file `{name}` differs");
    }
}

fn dump_to(eng: &Engine, dir: &Path) {
    let resp = eng.execute_read(&protocol::dump_request(dir.to_str().unwrap()));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
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

/// Write-budget overload: with one write slot held by a slow writer,
/// a concurrent delta gets an explicit `overloaded` response with a
/// retry hint, reads keep answering, and a retried delta succeeds once
/// the slot frees.
#[test]
fn write_overload_answers_overloaded_and_recovers() {
    let limits = Limits {
        max_pending_writes: 1,
        retry_after_ms: 25,
        debug_commands: true,
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

    let sleeper_addr = addr.clone();
    let sleeper = std::thread::spawn(move || {
        let mut c = Client::connect_retry(&sleeper_addr, Duration::from_secs(5)).expect("sleeper");
        let req = Json::obj(vec![
            ("cmd", Json::Str("debug_sleep_write".to_owned())),
            ("ms", Json::Uint(1500)),
        ]);
        let r = c.call(&req).expect("debug_sleep_write");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    });
    std::thread::sleep(Duration::from_millis(300));

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

    sleeper.join().expect("sleeper thread");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let r = c.call(&delta_req(0)).expect("transport ok");
        if r.get("ok").and_then(Json::as_bool) == Some(true) {
            break;
        }
        assert_eq!(r.get("overloaded").and_then(Json::as_bool), Some(true));
        assert!(
            std::time::Instant::now() < deadline,
            "delta never admitted after overload: {r}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

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

/// A handler panic while holding the write lock answers an internal
/// error, poisons nothing permanently (the lock is recovered), and the
/// server keeps applying deltas — with `degraded: true` in stats
/// (regression test for the old `.expect("engine lock poisoned")`
/// crash chain).
#[test]
fn handler_panic_recovers_lock_and_reports_degraded() {
    let limits = Limits {
        debug_commands: true,
        ..Limits::default()
    };
    let handle = spawn_with_limits(engine(None), "127.0.0.1:0", limits).expect("spawn");
    let addr = handle.addr.to_string();
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");

    let r = c
        .call(&Json::obj(vec![(
            "cmd",
            Json::Str("debug_panic".to_owned()),
        )]))
        .expect("transport survives the panic");
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        r.str_field("error")
            .unwrap_or("")
            .contains("internal error"),
        "panic answered with an internal error frame: {r}"
    );

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
    assert_eq!(summary.skipped, 0, "covered segments were pruned");
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
        // Requests no plan can be made for: the lone shard's engine
        // words (and, for writes, logs and counts) the refusal.
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
    // refusal above was logged and counted the same on both sides.
    let served = c.stats().expect("stats").to_string();
    let embedded = twin.stats().to_string();
    let engine_part = embedded.strip_suffix('}').expect("an object");
    assert!(served.starts_with(engine_part), "{served}\nvs\n{embedded}");
    assert!(served[engine_part.len()..].starts_with(",\"uptime_ms\":"));

    handle.stop();
    let _ = fs::remove_dir_all(&work);
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
            Cmd::Install | Cmd::DebugPanic | Cmd::DebugSleepWrite => {
                panic!("`{}` is not a wire command", row.name)
            }
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

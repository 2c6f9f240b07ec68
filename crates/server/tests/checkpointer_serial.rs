//! The background auto-checkpointer is one thread, and that is an
//! invariant worth pinning: a checkpoint must never run concurrently
//! with another checkpoint or with shutdown. The window is a shard's
//! engine write lock, held by the test: the checkpointer's pass waits
//! at that shard until the test lets go. And what it fails to do is
//! state: a failed background checkpoint shows in `stats`.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{scenario_registry, tmp_dir};
use moma_core::exec::Parallelism;
use moma_model::{AttrValue, DeltaOp};
use moma_server::{
    protocol, spawn_sharded, Client, DurabilityPolicy, Engine, Json, Limits, ShardRouter,
};

/// Longer than two checkpointer polls (100 ms each): once it has
/// passed, the checkpointer is waiting for a lock the test holds.
const SETTLE: Duration = Duration::from_millis(300);

fn delta_req(i: usize) -> Json {
    protocol::delta_request(
        "Publication@DBLP",
        &[DeltaOp::Add {
            id: format!("ser_{i}"),
            fields: vec![(
                "title".into(),
                AttrValue::Text(format!("Serialized checkpointing part {i}")),
            )],
        }],
    )
}

/// `n` engines checkpointing after every record, logging under `wal`.
fn engines(n: usize, wal: &std::path::Path) -> Vec<Engine> {
    let policy = DurabilityPolicy {
        checkpoint_every_records: 1,
        ..DurabilityPolicy::default()
    };
    let engine = |i| {
        let mut e = Engine::new(scenario_registry(), Parallelism::sequential());
        e.wal_create(wal.join(format!("shard.{i}")), policy)
            .expect("wal");
        e
    };
    (0..n).map(engine).collect()
}

/// Apply a delta straight to a shard's engine: a checkpoint is due.
fn make_due(engine: &mut Engine, delta: usize) {
    let resp = engine.execute(&delta_req(delta));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
}

fn checkpoint_seq(router: &ShardRouter, i: usize) -> u64 {
    router.view(i).wal().map_or(0, |w| w.checkpoint_seq)
}

#[test]
fn background_checkpoints_are_serial_and_joined_on_shutdown() {
    let dir = tmp_dir("ckpt_serial");

    // ---- never concurrent with itself -------------------------------
    // The one checkpointer walks the shards in turn. While the test
    // holds shard 0's write lock the walk waits there, so a checkpoint
    // that falls due on shard 1 meanwhile stays unpublished — a second
    // publisher would take it — until the lock is released.
    let handle =
        spawn_sharded(engines(2, &dir.join("a")), "127.0.0.1:0", Limits::default()).expect("spawn");
    let router = &handle.shared().router;
    let shard0 = router.engine_write(0);
    std::thread::sleep(SETTLE);
    make_due(&mut router.engine_write(1).0, 0);
    std::thread::sleep(SETTLE);
    assert_eq!(
        checkpoint_seq(router, 1),
        0,
        "shard 1 was checkpointed while the checkpointer waited at shard 0"
    );
    drop(shard0);
    let deadline = Instant::now() + Duration::from_secs(20);
    while checkpoint_seq(router, 1) == 0 {
        assert!(Instant::now() < deadline, "shard 1 never checkpointed");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.stop();

    // ---- never concurrent with shutdown -----------------------------
    // A checkpoint falls due while the test holds the lock, and the
    // checkpointer waits for it; `stop` must wait for that pass, so it
    // returns only after the publication finished: no staging dir left,
    // the checkpoint it was writing live.
    let wal_b = dir.join("b");
    let handle =
        spawn_sharded(engines(1, &wal_b), "127.0.0.1:0", Limits::default()).expect("spawn");
    let shared = Arc::clone(handle.shared());
    let (mut window, _) = shared.router.engine_write(0);
    make_due(&mut window, 100);
    std::thread::sleep(SETTLE);
    let stopper = std::thread::spawn(move || handle.stop());
    std::thread::sleep(SETTLE);
    assert!(
        !stopper.is_finished(),
        "stop returned while the checkpointer still had a checkpoint due"
    );
    drop(window);
    stopper.join().expect("stop");
    let shard = wal_b.join("shard.0");
    assert!(
        !shard.join("checkpoint.tmp").exists(),
        "shutdown returned while a checkpoint publication was still staged"
    );
    let published = moma_server::checkpoint::list(&shard).expect("list checkpoints");
    assert_eq!(
        published.iter().map(|c| c.seq).collect::<Vec<_>>(),
        [1],
        "the due checkpoint was abandoned instead of finished before shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shard `i`'s `wal` object in a `stats` reply of a server with one
/// shard (`wal`) or more (`shards[i].wal`).
fn shard_wal(stats: &Json, i: usize) -> Json {
    let wal = match stats.get("shards").and_then(Json::as_arr) {
        Some(shards) => shards[i].get("wal"),
        None => stats.get("wal"),
    };
    wal.cloned().expect("a wal object")
}

fn wal_u64(wal: &Json, key: &str) -> u64 {
    wal.get(key).and_then(Json::as_u64).expect(key)
}

/// A background checkpoint that fails is counted where `stats` shows
/// it: the failing shard's `wal` object carries `checkpoint_failures`
/// and `last_checkpoint_error` (the seq it would have covered, and
/// why), the other shard counts none, and the merged `wal` sums them.
/// The back-off after the failure is the failing shard's alone: the
/// other shard still checkpoints at the next poll. Deltas are
/// acknowledged meanwhile, and once the obstacle is gone an explicit
/// `checkpoint` publishes. The obstacle is a plain file where
/// the staging directory goes, which `checkpoint::publish` cannot clear.
#[test]
fn a_failed_background_checkpoint_shows_in_stats() {
    let dir = tmp_dir("ckpt_fails");
    for shards in [1, 2] {
        let wal = dir.join(format!("n{shards}"));
        let handle =
            spawn_sharded(engines(shards, &wal), "127.0.0.1:0", Limits::default()).expect("spawn");
        let mut c = Client::connect_retry(&handle.addr.to_string(), Duration::from_secs(5))
            .expect("connect");
        let deadline = Instant::now() + Duration::from_secs(20);
        let matcher = |name, domain, range, shard| {
            let req =
                protocol::match_request(name, domain, range, "title", "title", "trigram", 0.7);
            protocol::with_shard(req, shard)
        };
        // At two shards, shard 0 checkpoints its own writes first.
        let failing = shards - 1;
        let gs = "Publication@GS";
        if failing > 0 {
            c.call_ok(&matcher("m_gg", gs, gs, 0)).expect("match");
            while wal_u64(&shard_wal(&c.stats().unwrap(), 0), "checkpoint_seq") == 0 {
                assert!(Instant::now() < deadline, "shard 0 never checkpointed");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        let blocker = wal.join(format!("shard.{failing}")).join("checkpoint.tmp");
        std::fs::write(&blocker, "not a directory").expect("blocker");
        let (dblp, acm) = ("Publication@DBLP", "Publication@ACM");
        c.call_ok(&matcher("m_da", dblp, acm, failing))
            .expect("match");
        let stats = loop {
            let stats = c.stats().unwrap();
            if wal_u64(&shard_wal(&stats, failing), "checkpoint_failures") >= 1 {
                break stats;
            }
            assert!(Instant::now() < deadline, "no failure counted: {stats}");
            std::thread::sleep(Duration::from_millis(20));
        };
        let failed = shard_wal(&stats, failing);
        let last = failed.get("last_checkpoint_error").expect("the last error");
        assert_eq!(
            last.get("seq").and_then(Json::as_u64),
            Some(wal_u64(&failed, "seq"))
        );
        let error = last.str_field("error").unwrap_or_default();
        assert!(error.starts_with("publish: "), "{last}");
        assert_eq!(wal_u64(&failed, "checkpoint_seq"), 0, "{failed}");
        if failing > 0 {
            let other = shard_wal(&stats, 0);
            assert_eq!(wal_u64(&other, "checkpoint_failures"), 0, "{other}");
            assert_eq!(other.get("last_checkpoint_error"), Some(&Json::Null));
            let merged = stats.get("wal").expect("the merged wal");
            let sum = wal_u64(merged, "checkpoint_failures");
            assert_eq!(sum, wal_u64(&failed, "checkpoint_failures"), "{stats}");

            // The failure was just counted, so the failing shard's
            // back-off has just begun. It is that shard's alone: a
            // checkpoint due on shard 0 now is published at the next
            // poll, not after the 5 s back-off.
            let before = wal_u64(&other, "seq");
            let gs_delta = protocol::delta_request(
                gs,
                &[DeltaOp::Add {
                    id: "ser_gs".into(),
                    fields: vec![("title".into(), AttrValue::Text("A healthy shard".into()))],
                }],
            );
            c.call_ok(&gs_delta).expect("a delta to shard 0");
            let soon = Instant::now() + Duration::from_secs(2);
            loop {
                let wal0 = shard_wal(&c.stats().unwrap(), 0);
                let seq = wal_u64(&wal0, "seq");
                if seq > before && wal_u64(&wal0, "checkpoint_seq") == seq {
                    break;
                }
                assert!(
                    Instant::now() < soon,
                    "shard 0 waited out shard 1's back-off: {wal0}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }

        for i in 0..3 {
            c.call_ok(&delta_req(i)).expect("a delta is acknowledged");
        }
        std::fs::remove_file(&blocker).expect("remove the blocker");
        c.call_ok(&protocol::checkpoint_request())
            .expect("checkpoint");
        let published = shard_wal(&c.stats().unwrap(), failing);
        let seq = wal_u64(&published, "seq");
        assert_eq!(wal_u64(&published, "checkpoint_seq"), seq, "{published}");
        let shard = wal.join(format!("shard.{failing}"));
        let list = moma_server::checkpoint::list(&shard).expect("list checkpoints");
        assert_eq!(list.last().map(|c| c.seq), Some(seq));
        handle.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

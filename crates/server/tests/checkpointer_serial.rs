//! The background auto-checkpointer is one thread, and that is an
//! invariant worth pinning: a checkpoint must never run concurrently
//! with another checkpoint or with shutdown. The window is a shard's
//! engine write lock, held by the test: the checkpointer's pass waits
//! at that shard until the test lets go.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{scenario_registry, tmp_dir};
use moma_core::exec::Parallelism;
use moma_model::{AttrValue, DeltaOp};
use moma_server::{protocol, spawn_sharded, DurabilityPolicy, Engine, Json, Limits, ShardRouter};

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

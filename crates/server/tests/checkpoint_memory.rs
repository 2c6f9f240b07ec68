//! Peak memory of a checkpoint and of a recovery from it. The image is
//! written straight from the state into the checkpoint file and read
//! straight back into the restored state: neither side may hold a tree
//! of the whole image, and the writer not even its text.
//!
//! The process's peak resident set (`VmHWM`) is reset to its current
//! resident set before each phase (`/proc/self/clear_refs`, Linux ≥ 4.0)
//! and read after it, so each bound is on what that phase alone added.
//! This binary holds this one test — and its recovery phase, which it
//! runs in a process of its own — so no other test's allocations move
//! the peak. See the test's docs for how the bounds are derived.

#![cfg(target_os = "linux")]

mod common;

use std::fs;
use std::process::Command;

use common::tmp_dir;
use moma_core::exec::Parallelism;
use moma_core::Mapping;
use moma_model::{
    AttrDef, AttrValue, DeltaOp, LdsId, LogicalSource, ObjectInstance, ObjectType, SourceRegistry,
};
use moma_server::checkpoint::{self, STATE_FILE};
use moma_server::{protocol, DurabilityPolicy, Engine};
use moma_table::MappingTable;

/// Instances of the synthetic source: at ≈ 190 bytes of image each, an
/// image of ≈ 22 MB.
const INSTANCES: u32 = 115_000;

/// A `kB` field of `/proc/self/status`, in KiB.
fn status_kib(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix(field));
    let kib = line.and_then(|l| l.trim().trim_end_matches("kB").trim().parse().ok());
    kib.unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// How far `phase` raised the peak resident set above the resident set
/// it started from, in bytes.
fn peak_growth(phase: impl FnOnce()) -> u64 {
    fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM");
    let start = status_kib("VmRSS:");
    phase();
    (status_kib("VmHWM:").saturating_sub(start)) << 10
}

/// `DBLP` with [`INSTANCES`] long titles, and a one-instance `ACM`; with
/// `instances: false`, the same two sources empty — all a recovering
/// engine boots with, since the image replaces the arenas.
fn registry(instances: bool) -> SourceRegistry {
    let mut reg = SourceRegistry::new();
    for (pds, n) in [("DBLP", INSTANCES), ("ACM", 1)] {
        let schema = vec![AttrDef::text("title")];
        let mut lds = LogicalSource::new(pds, ObjectType::new("Publication"), schema);
        for i in (0..n).filter(|_| instances) {
            let title = format!(
                "{i:07} A study of incremental object matching over mapping repositories \
                 in durable services, part {i}"
            );
            let values = vec![Some(AttrValue::Text(title))];
            let instance = ObjectInstance::with_values(format!("{pds}_{i:07}"), values);
            lds.insert(instance).expect("insert instance");
        }
        reg.register(lds).expect("register source");
    }
    reg
}

/// Where the recovery phase finds the WAL directory to recover.
const WAL_DIR_VAR: &str = "MOMA_CHECKPOINT_MEMORY_WAL";

/// A checkpoint of a state whose image is ≥ 20 MB, and the recovery
/// from it, each raise the peak resident set by less than a bound the
/// tree-building path exceeds. With `S` the image size:
///
/// * **Checkpoint: < S / 4.** The streamed writer holds a 64 KiB chunk
///   buffer, the file's 8 KiB buffer and one instance's values at a
///   time: well under 1 MiB. The tree path held the image text (S) and,
///   while encoding it, the tree of the whole state: per instance an
///   object of three members, a value array and a two-member value
///   object, each key and string its own allocation. It measured
///   ≈ 5.8 S here.
/// * **Recovery: < 6 S.** Both paths read the CRC-checked text (S) and
///   build the restored arenas, the rows and the first read view —
///   ≈ 2.5 S for this state: per instance a title and an id in the
///   arena, the id again in the arena's index and in the view. The tree
///   path also held the whole image as a tree parsed from the text. It
///   measured ≈ 8.7 S here, the walk ≈ 3.6 S.
///
/// Each bound leaves a wide margin on either side.
///
/// The recovery runs in a fresh process (this test binary again, with
/// only [`recovery_phase`]): memory this one freed after the checkpoint
/// would otherwise be reused and hide what recovery allocates.
#[test]
fn checkpoint_and_recovery_hold_no_tree_of_the_image() {
    let dir = tmp_dir("checkpoint_memory");
    let mut live = Engine::new(registry(true), Parallelism::sequential());
    live.wal_create(&dir, DurabilityPolicy::default())
        .expect("create WAL");
    let rows = (0..INSTANCES).map(|i| (i, 0, 0.5 + f64::from(i) * 1e-7));
    let big = Mapping::same("big", LdsId(0), LdsId(1), MappingTable::from_triples(rows));
    live.repository().store_as("big", big);
    // One logged write, which also publishes the read view of `big`
    // before anything is measured.
    let fields = vec![("title".into(), AttrValue::Text("Another paper".into()))];
    let add = DeltaOp::Add {
        id: "ACM_added".into(),
        fields,
    };
    let reply = live.execute(&protocol::delta_request("Publication@ACM", &[add]));
    assert!(reply.to_string().contains(r#""ok":true"#), "{reply}");

    let checkpoint = peak_growth(|| {
        live.run_auto_checkpoint().expect("checkpoint publishes");
    });
    let published = checkpoint::list(&dir).expect("list checkpoints");
    let image = fs::metadata(published[0].path.join(STATE_FILE)).expect("state file");
    let image = image.len();
    drop(live);

    let child = Command::new(std::env::current_exe().expect("this test binary"))
        .args(["--ignored", "--exact", "recovery_phase", "--nocapture"])
        .env(WAL_DIR_VAR, &dir)
        .output()
        .expect("run the recovery phase");
    let _ = fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&child.stdout);
    let recovery = stdout
        .lines()
        .find_map(|l| l.strip_prefix("recovery peak growth: "));
    let recovery: u64 = match recovery.and_then(|r| r.parse().ok()) {
        Some(bytes) if child.status.success() => bytes,
        _ => panic!(
            "the recovery phase failed: {stdout}{}",
            String::from_utf8_lossy(&child.stderr)
        ),
    };
    let mib = |bytes: u64| bytes as f64 / f64::from(1 << 20);
    eprintln!(
        "image {:.1} MiB; checkpoint peak +{:.1} MiB ({:.2} S), recovery peak +{:.1} MiB ({:.2} S)",
        mib(image),
        mib(checkpoint),
        checkpoint as f64 / image as f64,
        mib(recovery),
        recovery as f64 / image as f64,
    );
    assert!(image >= 20 << 20, "the image is {image} bytes");
    assert!(
        checkpoint < image / 4,
        "a checkpoint of a {image}-byte image raised the peak by {checkpoint} bytes"
    );
    assert!(
        recovery < 6 * image,
        "recovering a {image}-byte image raised the peak by {recovery} bytes"
    );
}

/// The recovery half of the test above, which runs it in a fresh
/// process: recover the WAL directory it names and print how far that
/// raised the peak resident set.
#[test]
#[ignore = "a phase of checkpoint_and_recovery_hold_no_tree_of_the_image"]
fn recovery_phase() {
    let Some(dir) = std::env::var_os(WAL_DIR_VAR) else {
        return;
    };
    let mut recovered = Engine::new(registry(false), Parallelism::sequential());
    let mut summary = None;
    let recovery = peak_growth(|| {
        summary = Some(recovered.recover(&dir, DurabilityPolicy::default()));
    });
    let summary = summary.unwrap().expect("recovery succeeds");
    assert_eq!((summary.checkpoint_seq, summary.replayed), (1, 0));
    let rows = recovered
        .snapshot()
        .iter()
        .map(|e| e.mapping.len())
        .sum::<usize>();
    assert_eq!(rows, INSTANCES as usize);
    assert_eq!(recovered.registry().lds(LdsId(0)).len(), INSTANCES as usize);
    println!("recovery peak growth: {recovery}");
}

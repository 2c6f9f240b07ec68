//! Snapshot-isolated reads: a reader that captures a repository
//! snapshot sees one consistent point in time — never a half-applied
//! delta — and a snapshot held across later deltas keeps its pre-delta
//! contents and version stamps.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

use moma_core::exec::Parallelism;
use moma_model::{AttrDef, AttrValue, DeltaOp, LogicalSource, ObjectType, SourceRegistry};
use moma_server::{protocol, Engine, Json};

fn registry() -> SourceRegistry {
    let mut reg = SourceRegistry::new();
    for (pds, n) in [("DBLP", 12), ("ACM", 12), ("GS", 12)] {
        let mut lds = LogicalSource::new(
            pds,
            ObjectType::new("Publication"),
            vec![AttrDef::text("title")],
        );
        for i in 0..n {
            lds.insert_record(
                format!("{pds}_{i}"),
                vec![(
                    "title",
                    AttrValue::Text(format!("A study of mapping composition number {i}")),
                )],
            )
            .unwrap();
        }
        reg.register(lds).unwrap();
    }
    reg
}

/// Engine with m1: DBLP×ACM, m2: ACM×GS (both trigram, incremental) and
/// the derived c = m1 ∘ m2.
fn primed_engine() -> Engine {
    let mut e = Engine::new(registry(), Parallelism::new(2));
    for (name, d, r) in [
        ("m1", "Publication@DBLP", "Publication@ACM"),
        ("m2", "Publication@ACM", "Publication@GS"),
    ] {
        let resp = e.execute(&protocol::match_request(
            name, d, r, "title", "title", "trigram", 0.3,
        ));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }
    let resp = e.execute(&protocol::compose_request("c", "m1", "m2", "min", "max"));
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    e
}

fn gs_add(i: usize) -> Json {
    protocol::delta_request(
        "Publication@GS",
        &[DeltaOp::Add {
            id: format!("snap_{i}"),
            fields: vec![(
                "title".into(),
                AttrValue::Text(format!("A study of mapping composition number {i}")),
            )],
        }],
    )
}

/// Readers snapshotting concurrently with a delta writer never observe
/// a half-applied delta: in every snapshot the derived mapping's
/// recorded input versions equal the inputs' versions *in that same
/// snapshot* (the write lock covers patch + refresh as one unit), and
/// version stamps only ever advance.
#[test]
fn snapshot_mid_delta_sees_pre_or_post_delta_versions_never_a_mix() {
    let engine = Arc::new(RwLock::new(primed_engine()));
    let m2_version_at_start = engine
        .read()
        .expect("lock")
        .snapshot()
        .iter()
        .find(|e| e.name == "m2")
        .unwrap()
        .version;
    let done = Arc::new(AtomicBool::new(false));

    let mut readers = Vec::new();
    for _ in 0..4 {
        let engine = Arc::clone(&engine);
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            let mut last_seen: Vec<(String, u64)> = Vec::new();
            let mut snapshots = 0usize;
            while !done.load(Ordering::Relaxed) {
                let snap = engine.read().expect("lock").snapshot();
                snapshots += 1;
                let version_of = |name: &str| {
                    snap.iter()
                        .find(|e| e.name == name)
                        .map(|e| e.version)
                        .expect("entry present")
                };
                for e in &snap {
                    // Dep-consistency: a derived entry's recorded input
                    // versions match this snapshot exactly — a snapshot
                    // taken mid-delta would violate this for `c` after
                    // m2 was patched but before c was refreshed.
                    for (dep, v) in &e.dep_versions {
                        assert_eq!(
                            *v,
                            version_of(dep),
                            "snapshot saw `{}` recomputed from `{dep}` v{v}, but the \
                             snapshot has `{dep}` at v{} — half-applied delta visible",
                            e.name,
                            version_of(dep),
                        );
                    }
                    // Monotonicity: versions never go backwards.
                    if let Some((_, prev)) = last_seen.iter().find(|(n, _)| *n == e.name) {
                        assert!(*prev <= e.version, "version of {} went backwards", e.name);
                    }
                }
                last_seen = snap.iter().map(|e| (e.name.clone(), e.version)).collect();
            }
            snapshots
        }));
    }

    for i in 0..25 {
        let resp = engine.write().expect("lock").execute(&gs_add(i));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }
    done.store(true, Ordering::Relaxed);
    let total: usize = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total > 0, "readers never snapshotted");

    // After the writer is done every delta must have landed in both m2
    // and (via refresh) the derived c.
    let engine = engine.read().expect("lock");
    let snap = engine.snapshot();
    let m2 = snap.iter().find(|e| e.name == "m2").unwrap();
    let c = snap.iter().find(|e| e.name == "c").unwrap();
    assert!(
        m2.version > m2_version_at_start,
        "25 patches must advance m2"
    );
    assert_eq!(
        c.dep_versions.iter().find(|(n, _)| n == "m2").unwrap().1,
        m2.version
    );
}

/// A snapshot captured *before* deltas keeps its contents: the `Arc`'d
/// mappings and version stamps are immutable, so a long-running reader
/// works against frozen pre-delta state while the engine moves on.
#[test]
fn held_snapshot_keeps_pre_delta_rows_and_versions() {
    let mut engine = primed_engine();
    let before = engine.snapshot();
    let saved: Vec<(String, u64, Vec<moma_table::Correspondence>)> = before
        .iter()
        .map(|e| (e.name.clone(), e.version, e.mapping.table.rows().to_vec()))
        .collect();

    for i in 0..8 {
        let resp = engine.execute(&gs_add(1000 + i));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
    }

    // The held snapshot is bit-identical to what was captured.
    for (e, (name, version, rows)) in before.iter().zip(&saved) {
        assert_eq!(&e.name, name);
        assert_eq!(
            e.version, *version,
            "held snapshot version of {name} changed"
        );
        assert_eq!(
            e.mapping.table.rows(),
            &rows[..],
            "held snapshot rows of {name} changed"
        );
    }
    // And the live state did move on (the deltas matched new GS rows).
    let after = engine.snapshot();
    let live_m2 = after.iter().find(|e| e.name == "m2").unwrap();
    let held_m2 = before.iter().find(|e| e.name == "m2").unwrap();
    assert!(live_m2.version > held_m2.version);
    assert!(
        live_m2.mapping.table.rows() != held_m2.mapping.table.rows(),
        "deltas should have changed m2's rows"
    );
}

/// The repository's own snapshot() is atomic without any outer lock:
/// concurrent direct patch/refresh cycles never yield a snapshot whose
/// derived entries claim input versions newer than the snapshot shows.
#[test]
fn repository_snapshot_is_atomic_under_direct_concurrent_patching() {
    use moma_core::ops::compose::{PathAgg, PathCombine};
    use moma_core::{MappingRepository, Recipe};
    use moma_table::MappingTable;

    let repo = Arc::new(MappingRepository::new());
    let chain = |d: u32, r: u32, s: u32| {
        moma_core::Mapping::same(
            "m",
            moma_model::LdsId(d),
            moma_model::LdsId(r),
            MappingTable::from_triples((0..6).map(|i| (i, (i + s) % 6, 0.9)).collect::<Vec<_>>()),
        )
    };
    repo.store_as("left", chain(0, 1, 0));
    repo.store_as("right", chain(1, 2, 1));
    repo.store_derived(
        "derived",
        Recipe::Compose {
            left: "left".into(),
            right: "right".into(),
            f: PathCombine::Min,
            g: PathAgg::Max,
        },
    )
    .unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let repo = Arc::clone(&repo);
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                let snap = repo.snapshot();
                let version_of = |name: &str| {
                    snap.iter()
                        .find(|e| e.name == name)
                        .map(|e| e.version)
                        .unwrap()
                };
                for e in &snap {
                    for (dep, v) in &e.dep_versions {
                        // The recompute ran strictly before (or within)
                        // this snapshot, so recorded input versions can
                        // trail but never lead the snapshot.
                        assert!(
                            *v <= version_of(dep),
                            "derived `{}` claims {dep} v{v} > snapshot's v{}",
                            e.name,
                            version_of(dep)
                        );
                    }
                }
            }
        }));
    }
    for s in 0..40u32 {
        repo.patch("left", chain(0, 1, s % 6));
        repo.refresh_stale().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().expect("reader");
    }
    assert!(!repo.is_stale("derived"));
}

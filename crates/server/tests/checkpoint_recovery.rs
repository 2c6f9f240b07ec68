//! Recovery sweep for the segmented WAL + checkpoint machinery: however
//! a crash mangles the newest segment or the newest checkpoint — or
//! wherever it interrupts a checkpoint — startup must land on a valid
//! *prior* state — the longest surviving command prefix — and the
//! replayed count must match exactly the record suffix that survived
//! after the restored checkpoint.

mod common;

use std::collections::{BTreeSet, HashMap};
use std::fs;
use std::path::Path;

use common::{copy_dir, dir_contents, tmp_dir};
use moma_core::exec::Parallelism;
use moma_model::{
    AttrDef, AttrValue, DeltaOp, LogicalSource, ObjectInstance, ObjectType, SourceRegistry,
};
use moma_server::checkpoint::{self, MARKER_FILE, STATE_FILE, TMP_DIR};
use moma_server::wal::{decode_records_from, list_segment_files};
use moma_server::{protocol, DurabilityPolicy, Engine, Json};

/// A tiny hand-built 3-source world. The sweep below recovers hundreds
/// of WAL-directory copies, and every recovery re-primes the matchers —
/// the generated scenario would turn that into minutes of matching, a
/// dozen overlapping titles keep it instant without losing any of the
/// recovery semantics under test.
fn tiny_registry() -> SourceRegistry {
    let titles = [
        "Incremental object matching in dynamic integration systems",
        "A write-ahead log for mapping repositories",
        "Checkpointing bounded-restart services",
        "Composing instance correspondences across peer sources",
        "Trigram similarity for bibliographic deduplication",
        "Snapshot isolation under concurrent delta streams",
        "Segment rotation and torn-tail truncation",
        "Exact threshold pruning for TF-IDF matchers",
    ];
    let mut reg = SourceRegistry::new();
    for pds in ["DBLP", "ACM", "GS"] {
        let mut lds = LogicalSource::new(
            pds,
            ObjectType::new("Publication"),
            vec![AttrDef::text("title")],
        );
        for (i, title) in titles.iter().enumerate() {
            lds.insert(ObjectInstance::with_values(
                format!("{pds}_{i}"),
                vec![Some(AttrValue::Text((*title).to_owned()))],
            ))
            .expect("insert instance");
        }
        reg.register(lds).expect("register source");
    }
    reg
}

fn policy() -> DurabilityPolicy {
    DurabilityPolicy {
        segment_records: 2,
        ..DurabilityPolicy::default()
    }
}

fn delta_req(i: usize) -> Json {
    protocol::delta_request(
        "Publication@GS",
        &[DeltaOp::Add {
            id: format!("r{i}"),
            fields: vec![("title".into(), AttrValue::Text(format!("rec {i}")))],
        }],
    )
}

/// The scripted mutating commands, in WAL-sequence order.
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

fn exec_ok(e: &mut Engine, req: &Json) {
    let resp = e.execute(req);
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
}

/// In-memory state fingerprint: durable command counters plus the full
/// (versioned) row set of every scripted mapping. Two engines with equal
/// fingerprints went through the same logical history.
fn fingerprint(e: &Engine) -> String {
    let stats = e.execute_read(&protocol::bare_request("stats"));
    let mut out = stats.get("commands").expect("stats commands").to_string();
    for name in ["m_da", "m_ag", "c_dg"] {
        out.push('\n');
        out.push_str(
            &e.execute_read(&protocol::query_request(name, 0, None))
                .to_string(),
        );
    }
    out
}

/// Fingerprint of a clean engine that executed exactly the first `n`
/// scripted commands (cached — re-matching is the expensive part).
fn reference_fingerprint(cache: &mut HashMap<usize, String>, n: usize) -> String {
    cache
        .entry(n)
        .or_insert_with(|| {
            let mut e = Engine::new(tiny_registry(), Parallelism::sequential());
            for req in script().iter().take(n) {
                exec_ok(&mut e, req);
            }
            fingerprint(&e)
        })
        .clone()
}

/// Build the crashed-server WAL directory once: 3 commands, checkpoint
/// (seq 3), 4 more deltas, no further checkpoint. With 2-record
/// segments the surviving layout is: checkpoint@3 and segments holding
/// seqs 1–2, 3–4, 5–6 and 7 — the first checkpoint prunes nothing. With
/// `checkpoints > 1` a second one at seq 5 prunes the segment of 1–2.
fn build_crashed_wal(wal_dir: &Path, checkpoints: usize) -> usize {
    let mut e = Engine::new(tiny_registry(), Parallelism::sequential());
    e.wal_create(wal_dir, policy()).expect("wal create");
    let reqs = script();
    let prefix = 3;
    for req in reqs.iter().take(prefix) {
        exec_ok(&mut e, req);
    }
    exec_ok(&mut e, &protocol::checkpoint_request());
    if checkpoints > 1 {
        // Second checkpoint two deltas later: seq 5. Retention keeps
        // both, so segments are pruned only up to seq 3.
        for req in reqs.iter().skip(prefix).take(2) {
            exec_ok(&mut e, req);
        }
        exec_ok(&mut e, &protocol::checkpoint_request());
        for req in reqs.iter().skip(prefix + 2) {
            exec_ok(&mut e, req);
        }
    } else {
        for req in reqs.iter().skip(prefix) {
            exec_ok(&mut e, req);
        }
    }
    reqs.len()
}

fn recover_fresh(wal_dir: &Path) -> Result<(Engine, moma_server::ReplaySummary), String> {
    let mut e = Engine::new(tiny_registry(), Parallelism::sequential());
    let summary = e.recover(wal_dir, policy())?;
    Ok((e, summary))
}

/// Flip a bit of the checkpoint's `MARKER` so it no longer validates.
fn damage_marker(checkpoint_dir: &Path) {
    let marker = checkpoint_dir.join(MARKER_FILE);
    let mut bytes = fs::read(&marker).expect("marker bytes");
    bytes[0] ^= 0x40;
    fs::write(&marker, bytes).expect("corrupt marker");
}

/// Truncate the newest segment at *every* byte boundary: recovery must
/// always succeed, land exactly on the longest surviving command
/// prefix, and report a replayed count equal to the surviving suffix.
#[test]
fn truncating_newest_segment_at_every_boundary_recovers_a_valid_prefix() {
    let work = tmp_dir("sweep");
    let wal_dir = work.join("wal");
    build_crashed_wal(&wal_dir, 1);

    let segments = list_segment_files(&wal_dir).expect("list segments");
    let (_, newest_path) = segments.last().expect("at least one segment");
    let newest_bytes = fs::read(newest_path).expect("newest segment bytes");
    let newest_name = newest_path.file_name().unwrap().to_owned();
    assert!(!newest_bytes.is_empty(), "newest segment holds records");

    // Records replay only past the checkpoint (seqs 1–3 are covered and
    // skipped); the sealed segments hold the rest of the prefix.
    let checkpoint_seq = 3usize;
    let replayable = |bytes: &[u8]| {
        let records = decode_records_from(bytes, None).records;
        records
            .iter()
            .filter(|r| r.seq > checkpoint_seq as u64)
            .count()
    };
    let older_records: usize = segments[..segments.len() - 1]
        .iter()
        .map(|(_, p)| replayable(&fs::read(p).expect("segment")))
        .sum();

    let mut references: HashMap<usize, String> = HashMap::new();
    for cut in 0..=newest_bytes.len() {
        let scratch = work.join(format!("cut_{cut}"));
        copy_dir(&wal_dir, &scratch);
        fs::write(scratch.join(&newest_name), &newest_bytes[..cut]).expect("truncate");

        let (recovered, summary) =
            recover_fresh(&scratch).unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));
        let surviving_tail = replayable(&newest_bytes[..cut]);
        let expected_replayed = older_records + surviving_tail;
        assert_eq!(summary.checkpoint_seq, checkpoint_seq as u64, "cut {cut}");
        assert_eq!(
            summary.replayed, expected_replayed,
            "cut {cut}: replayed count must match the surviving suffix"
        );
        let prefix_commands = checkpoint_seq + expected_replayed;
        assert_eq!(
            fingerprint(&recovered),
            reference_fingerprint(&mut references, prefix_commands),
            "cut {cut}: recovered state is not the {prefix_commands}-command prefix"
        );
        fs::remove_dir_all(&scratch).expect("cleanup scratch");
    }
    let _ = fs::remove_dir_all(&work);
}

/// Damaging the newest checkpoint — corrupt MARKER, corrupt state dump,
/// or the whole directory deleted (a crash mid-publish leaves exactly
/// these shapes) — falls back to the previous checkpoint and replays
/// the longer suffix; state is still the full-script state.
#[test]
fn damaged_newest_checkpoint_falls_back_to_the_previous_one() {
    let work = tmp_dir("fallback");
    let wal_dir = work.join("wal");
    let total = build_crashed_wal(&wal_dir, 2);

    let checkpoints: Vec<_> = moma_server::checkpoint::list(&wal_dir).expect("list checkpoints");
    assert_eq!(checkpoints.len(), 2, "retention keeps two checkpoints");
    let (older, newest) = (&checkpoints[0], &checkpoints[1]);
    assert_eq!((older.seq, newest.seq), (3, 5));

    let mut references: HashMap<usize, String> = HashMap::new();
    let full = reference_fingerprint(&mut references, total);

    // Healthy baseline: newest checkpoint restores, 2 records replay.
    let (recovered, summary) = recover_fresh(&wal_dir).expect("healthy recover");
    assert_eq!((summary.checkpoint_seq, summary.replayed), (5, 2));
    assert_eq!(fingerprint(&recovered), full);

    for (tag, damage) in [("marker", 0usize), ("state", 1usize), ("deleted", 2usize)] {
        let scratch = work.join(format!("dmg_{tag}"));
        copy_dir(&wal_dir, &scratch);
        let newest_dir = scratch.join(newest.path.file_name().unwrap());
        match damage {
            0 => damage_marker(&newest_dir),
            1 => {
                let state = newest_dir.join("state.json");
                let mut bytes = fs::read(&state).expect("state bytes");
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                fs::write(&state, bytes).expect("corrupt state");
            }
            _ => fs::remove_dir_all(&newest_dir).expect("delete newest checkpoint"),
        }

        let (recovered, summary) =
            recover_fresh(&scratch).unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
        assert_eq!(
            summary.checkpoint_seq, 3,
            "{tag}: must fall back to the older checkpoint"
        );
        assert_eq!(
            summary.replayed,
            total - 3,
            "{tag}: the longer suffix replays after fallback"
        );
        assert_eq!(fingerprint(&recovered), full, "{tag}: state diverged");
        fs::remove_dir_all(&scratch).expect("cleanup scratch");
    }

    // Losing *both* checkpoints is unrecoverable (their segments were
    // pruned): recovery must refuse loudly rather than replay a hole.
    let scratch = work.join("dmg_all");
    copy_dir(&wal_dir, &scratch);
    for cp in &checkpoints {
        fs::remove_dir_all(scratch.join(cp.path.file_name().unwrap())).expect("delete checkpoint");
    }
    let err = match recover_fresh(&scratch) {
        Err(e) => e,
        Ok(_) => panic!("recovery must refuse a WAL gap"),
    };
    assert!(err.contains("gap"), "gap error names the problem: {err}");

    let _ = fs::remove_dir_all(&work);
}

/// The first checkpoint has no older one to fall back to, so it must
/// not prune the log it covers: with its `MARKER` damaged, recovery
/// falls back to full replay from segment 1 and still reaches the
/// full-script state (it used to refuse with a WAL gap).
#[test]
fn a_damaged_first_checkpoint_falls_back_to_full_replay() {
    let work = tmp_dir("first_fallback");
    let wal_dir = work.join("wal");
    let total = build_crashed_wal(&wal_dir, 1);
    let checkpoints = checkpoint::list(&wal_dir).expect("list checkpoints");
    let [only] = &checkpoints[..] else {
        panic!("one checkpoint: {checkpoints:?}")
    };
    damage_marker(&only.path);

    let (recovered, summary) = recover_fresh(&wal_dir).expect("full replay");
    assert_eq!((summary.checkpoint_seq, summary.replayed), (0, total));
    let full = reference_fingerprint(&mut HashMap::new(), total);
    assert_eq!(fingerprint(&recovered), full);
    let _ = fs::remove_dir_all(&work);
}

/// Walk `dir` — a copy of a WAL directory taken just before a
/// checkpoint of `seq` — through every state `Engine::checkpoint`
/// leaves on disk on its way to `after` (a copy taken just after it),
/// in its order, calling `check(stage, dir, published)` at each: the
/// rotated empty segment; an empty `checkpoint.tmp/`; `state.json` cut
/// at 0, 1, ½ and len−1 bytes; `MARKER` cut at every byte; the complete
/// `checkpoint.tmp/`; the rename (`published` from here on); retention;
/// each prefix of the segment deletions. Ends by asserting `dir` became
/// `after`, so the staging is the checkpoint's own sequence.
fn each_crash_point(dir: &Path, after: &Path, seq: u64, mut check: impl FnMut(&str, &Path, bool)) {
    let names = |d: &Path| -> BTreeSet<String> {
        let entries = fs::read_dir(d).expect("read_dir");
        let names = entries.map(|e| e.expect("entry").file_name().to_string_lossy().into_owned());
        names.collect()
    };
    let (was, will) = (names(dir), names(after));
    for new in will.difference(&was).filter(|n| n.starts_with("wal.")) {
        fs::copy(after.join(new), dir.join(new)).expect("rotated segment");
        check(&format!("rotated to {new}"), dir, false);
    }
    let tmp = dir.join(TMP_DIR);
    fs::create_dir(&tmp).expect("checkpoint.tmp");
    check("empty checkpoint.tmp", dir, false);
    let published = after.join(checkpoint::dir_name(seq));
    let state = fs::read(published.join(STATE_FILE)).expect("state.json");
    for cut in [0, 1, state.len() / 2, state.len() - 1] {
        fs::write(tmp.join(STATE_FILE), &state[..cut]).expect("cut state.json");
        check(&format!("state.json cut at {cut}"), dir, false);
    }
    fs::write(tmp.join(STATE_FILE), &state).expect("state.json");
    let marker = fs::read(published.join(MARKER_FILE)).expect("MARKER");
    for cut in 0..marker.len() {
        fs::write(tmp.join(MARKER_FILE), &marker[..cut]).expect("cut MARKER");
        check(&format!("MARKER cut at {cut}"), dir, false);
    }
    fs::write(tmp.join(MARKER_FILE), &marker).expect("MARKER");
    check("complete checkpoint.tmp", dir, false);
    fs::rename(&tmp, dir.join(checkpoint::dir_name(seq))).expect("rename");
    check("renamed", dir, true);
    let gone: Vec<&String> = was.difference(&will).collect();
    for old in gone.iter().filter(|n| n.starts_with("checkpoint.")) {
        fs::remove_dir_all(dir.join(old)).expect("retention");
    }
    check("retention done", dir, true);
    for segment in gone.iter().filter(|n| n.starts_with("wal.")) {
        fs::remove_file(dir.join(segment)).expect("prune");
        check(&format!("pruned {segment}"), dir, true);
    }
    assert_eq!(
        dir_contents(dir),
        dir_contents(after),
        "the staged states end where checkpoint {seq} did"
    );
}

/// A crash anywhere inside a checkpoint loses nothing: every on-disk
/// state the first checkpoint and a third one (whose retention drops
/// the first) pass through recovers to the full prefix's state — from
/// the previous checkpoint (or full replay) up to the rename, from the
/// new one after it. Then a damaged newest `MARKER` after a completed
/// publish falls back the same way.
#[test]
fn every_crash_point_of_a_checkpoint_recovers() {
    let work = tmp_dir("crash_points");
    let wal_dir = work.join("wal");
    let mut e = Engine::new(tiny_registry(), Parallelism::sequential());
    e.wal_create(&wal_dir, policy()).expect("wal create");
    let reqs = script();
    let mut references: HashMap<usize, String> = HashMap::new();
    let (mut applied, mut previous) = (0, 0u64);
    for (n, swept) in [(3, true), (5, false), (7, true)] {
        for req in &reqs[applied..n] {
            exec_ok(&mut e, req);
        }
        applied = n;
        let staged = work.join(format!("staged_{n}"));
        copy_dir(&wal_dir, &staged);
        exec_ok(&mut e, &protocol::checkpoint_request());
        let seq = n as u64;
        if swept {
            let after = work.join(format!("after_{n}"));
            copy_dir(&wal_dir, &after);
            let full = reference_fingerprint(&mut references, n);
            let recovers = |stage: &str, dir: &Path, checkpoint_seq: u64| {
                let scratch = work.join("scratch");
                let _ = fs::remove_dir_all(&scratch);
                copy_dir(dir, &scratch);
                let (recovered, summary) = recover_fresh(&scratch)
                    .unwrap_or_else(|e| panic!("checkpoint {seq}, {stage}: {e}"));
                let what = format!("checkpoint {seq}, {stage}");
                assert_eq!(summary.checkpoint_seq, checkpoint_seq, "{what}");
                assert_eq!(fingerprint(&recovered), full, "{what}");
                summary
            };
            each_crash_point(&staged, &after, seq, |stage, dir, published| {
                recovers(stage, dir, if published { seq } else { previous });
            });
            damage_marker(&after.join(checkpoint::dir_name(seq)));
            let summary = recovers("damaged MARKER", &after, previous);
            let damaged = checkpoint::dir_name(seq);
            assert!(
                summary.checkpoint_fallbacks.iter().any(|(path, reason)| {
                    path.ends_with(&damaged) && reason.contains("marker")
                }),
                "checkpoint {seq}: the summary names the damaged checkpoint and its marker \
                 fault: {:?}",
                summary.checkpoint_fallbacks
            );
        }
        previous = seq;
    }
    let _ = fs::remove_dir_all(&work);
}

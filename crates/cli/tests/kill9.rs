//! The crash gate: SIGKILL the real `moma serve` binary while a delta
//! stream and back-to-back checkpoints run against it, restart it with
//! `--replay`, and require that no acknowledged write was lost, that a
//! checkpoint bounded the restart, and that the recovered state dumps
//! byte for byte like a clean run of the same command prefix — at one
//! shard and at four. A four-shard log then refuses a `--replay` at
//! any other shard count without being touched.

#[path = "../../server/tests/common/mod.rs"]
mod common;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use common::{assert_dumps_identical, dir_contents, tmp_dir};
use moma_datagen::{DeltaStream, EvolveConfig, Scenario, WorldConfig};
use moma_model::{AttrValue, DeltaOp};
use moma_server::{protocol, Client, Json};

const GS: &str = "Publication@GS";

/// One source per shard that the rest of the history leaves alone: a
/// hinted self-match over each pins traffic to every shard.
const SCATTER: [&str; 4] = ["Author@DBLP", "Author@ACM", "Author@GS", "Venue@DBLP"];

/// Stream deltas acknowledged before the kill.
const KILL_AFTER: usize = 10;

/// A running `moma serve` child; SIGKILLed if still running on drop.
struct Server {
    child: Child,
    addr: String,
    log: Option<JoinHandle<String>>,
}

/// The arguments of `moma serve` over the small scenario (seed 7) at
/// `shards` shards, logging to `wal` in 40-record segments.
fn serve_args(shards: usize, wal: &Path, extra: &[&str]) -> Vec<String> {
    let (n, wal) = (shards.to_string(), wal.to_str().expect("a UTF-8 path"));
    let args = [
        "--scale", "small", "--seed", "7", "--shards", &n, "--wal", wal,
    ];
    let args = args.iter().chain(&["--segment-records", "40"]).chain(extra);
    args.map(|arg| arg.to_string()).collect()
}

/// Start `moma serve --addr 127.0.0.1:0 <args>`: the server once it
/// listens, or its exit code and stderr if it exits first.
fn serve(args: &[String]) -> Result<Server, (Option<i32>, String)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_moma"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("moma starts");
    let mut lines = BufReader::new(child.stderr.take().expect("stderr")).lines();
    let mut log = String::new();
    for line in lines.by_ref().map_while(Result::ok) {
        log.push_str(&line);
        log.push('\n');
        if let Some(bound) = line.strip_prefix("moma serve: listening on ") {
            let addr = bound.split(' ').next().expect("an address").to_owned();
            // Drain the rest, so the server never blocks on a full pipe.
            let log = std::thread::spawn(move || {
                lines
                    .map_while(Result::ok)
                    .fold(log, |log, line| log + &line + "\n")
            });
            return Ok(Server {
                child,
                addr,
                log: Some(log),
            });
        }
    }
    let status = child.wait().expect("moma exits");
    Err((status.code(), log))
}

impl Server {
    fn client(&self) -> Client {
        Client::connect_retry(&self.addr, Duration::from_secs(5)).expect("connect")
    }

    /// SIGKILL the process; its stderr.
    fn kill(&mut self) -> String {
        self.child.kill().expect("SIGKILL");
        self.exited().1
    }

    /// Stop the server with a `shutdown` command.
    fn shutdown(&mut self) {
        call_ok(&mut self.client(), &protocol::bare_request("shutdown"));
        let (status, log) = self.exited();
        assert!(status.success(), "{status}:\n{log}");
    }

    /// Reap the process; its exit status and stderr.
    fn exited(&mut self) -> (ExitStatus, String) {
        let status = self.child.wait().expect("reaped");
        let log = self.log.take().map(|log| log.join().expect("stderr"));
        (status, log.unwrap_or_default())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// [`serve`], which must come up.
fn running(args: &[String]) -> Server {
    serve(args).unwrap_or_else(|(code, log)| panic!("moma serve exited {code:?}:\n{log}"))
}

fn call_ok(c: &mut Client, req: &Json) -> Json {
    c.call_ok(req).unwrap_or_else(|e| panic!("{req}: {e}"))
}

fn flag(reply: &Json, key: &str) -> Option<bool> {
    reply.get(key).and_then(Json::as_bool)
}

/// A numeric field of a `stats` reply, by path.
fn stat(stats: &Json, path: &[&str]) -> u64 {
    let field = path.iter().try_fold(stats, |v, key| v.get(key));
    field.and_then(Json::as_u64).unwrap_or(0)
}

/// The ops of a delta adding instance `id` with `attr` = `text`.
fn add(attr: &str, id: &str, text: &str) -> [DeltaOp; 1] {
    let fields = vec![(attr.into(), AttrValue::Text(text.into()))];
    [DeltaOp::Add {
        id: id.into(),
        fields,
    }]
}

/// The fixed part of the history, asserting the replies on the way:
/// three matchers (one TF-IDF) and a compose, queries, two deltas, a
/// six-item batch — one `batch_delta` group commit, or the same items
/// sent singly — one hinted self-match and two deltas per shard when
/// sharded, and an explicit checkpoint. Returns the deltas it sent.
fn history(c: &mut Client, shards: usize, batched: bool) -> usize {
    call_ok(c, &protocol::bare_request("ping"));
    let stats = call_ok(c, &protocol::bare_request("stats"));
    assert!(stats
        .get("sources")
        .and_then(Json::as_arr)
        .is_some_and(|s| !s.is_empty()));

    let matcher = |name: &str, domain: &str, range: &str, sim: &str, threshold: f64| {
        protocol::match_request(name, domain, range, "title", "title", sim, threshold)
    };
    let (dblp, acm) = ("Publication@DBLP", "Publication@ACM");
    let r = call_ok(c, &matcher("m_dblp_acm", dblp, acm, "trigram", 0.75));
    assert_eq!(flag(&r, "incremental"), Some(true), "{r}");
    call_ok(c, &matcher("m_acm_gs", acm, GS, "trigram", 0.75));
    let r = call_ok(c, &matcher("m_tfidf", acm, GS, "tfidf", 0.6));
    assert_eq!(flag(&r, "incremental"), Some(false), "{r}");
    let compose = protocol::compose_request("c_dblp_gs", "m_dblp_acm", "m_acm_gs", "min", "max");
    call_ok(c, &compose);

    let q = call_ok(c, &protocol::query_request("c_dblp_gs", 5, None));
    assert!(q
        .get("rows")
        .and_then(Json::as_arr)
        .is_some_and(|rows| rows.len() <= 5));
    call_ok(c, &protocol::query_request("m_acm_gs", 0, Some(0.95)));
    let missing = c.call(&protocol::query_request("no_such_mapping", 0, None));
    assert_eq!(missing.ok().and_then(|r| flag(&r, "ok")), Some(false));

    // Two adds to GS: the trigram state patches, TF-IDF re-matches in
    // full, the DBLP–ACM mapping is untouched, the compose refreshed.
    let title = |text: &str| vec![("title".into(), AttrValue::Text(text.into()))];
    let ops = [
        ("smoke_g1", "Snapshot isolation for mapping repositories"),
        (
            "smoke_g2",
            "Write-ahead logging for object matching services",
        ),
    ];
    let ops = ops.map(|(id, text)| DeltaOp::Add {
        id: id.into(),
        fields: title(text),
    });
    let r = call_ok(c, &protocol::delta_request(GS, &ops));
    let touched = r.get("mappings").and_then(Json::as_arr).expect("mappings");
    let by_name = |name| touched.iter().find(|m| m.str_field("name") == Some(name));
    let acm_gs = by_name("m_acm_gs").expect("m_acm_gs touched");
    assert_eq!(flag(acm_gs, "incremental"), Some(true), "{r}");
    let tfidf = by_name("m_tfidf").expect("m_tfidf touched");
    assert_eq!(flag(tfidf, "incremental"), Some(false), "{r}");
    assert_eq!(flag(tfidf, "full_rematch"), Some(true), "{r}");
    assert!(by_name("m_dblp_acm").is_none(), "{r}");
    let refreshed = r
        .get("refreshed")
        .and_then(Json::as_arr)
        .expect("refreshed");
    assert!(
        refreshed.iter().any(|n| n.as_str() == Some("c_dblp_gs")),
        "{r}"
    );

    let text = "Snapshot-isolated reads for mapping repositories";
    let ops = [
        DeltaOp::Update {
            id: "smoke_g1".into(),
            attr: "title".into(),
            value: Some(AttrValue::Text(text.into())),
        },
        DeltaOp::Remove {
            id: "smoke_g2".into(),
        },
    ];
    let r = call_ok(c, &protocol::delta_request(GS, &ops));
    let applied = r.get("applied").expect("applied");
    assert_eq!(
        (stat(applied, &["updated"]), stat(applied, &["removed"])),
        (1, 1)
    );
    let stats = call_ok(c, &protocol::bare_request("stats"));
    let counts = ["match", "compose", "delta"].map(|k| stat(&stats, &["commands", k]));
    assert_eq!(counts, [3, 1, 2], "{stats}");
    let mut deltas = 2;

    let batch: Vec<_> = (0..6)
        .map(|i| {
            add(
                "title",
                &format!("batch_g{i}"),
                &format!("Group commit record {i}"),
            )
        })
        .collect();
    if batched {
        let items = batch.iter().map(|ops| protocol::delta_item(GS, ops));
        let r = call_ok(c, &protocol::batch_delta_request(items.collect()));
        let results = r.get("results").and_then(Json::as_arr).expect("results");
        assert!(
            results.iter().all(|item| flag(item, "ok") == Some(true)),
            "{r}"
        );
        let seqs = (stat(&r, &["first_seq"]), stat(&r, &["last_seq"]));
        assert_eq!(
            seqs.1 + 1 - seqs.0,
            6,
            "one group commit, contiguous seqs: {r}"
        );
    } else {
        for ops in &batch {
            call_ok(c, &protocol::delta_request(GS, ops));
        }
    }
    deltas += batch.len();

    let scattered = if shards > 1 { shards } else { 0 };
    for (k, source) in SCATTER.iter().enumerate().take(scattered) {
        let own = protocol::match_request(
            &format!("m_{k}"),
            source,
            source,
            "name",
            "name",
            "trigram",
            0.9,
        );
        let r = call_ok(c, &protocol::with_shard(own, k));
        assert_eq!(stat(&r, &["shard"]), k as u64, "{r}");
        for i in 0..2 {
            let id = format!("scatter_{k}_{i}");
            call_ok(c, &protocol::delta_request(source, &add("name", &id, &id)));
            deltas += 1;
        }
    }
    call_ok(c, &protocol::checkpoint_request());
    deltas
}

/// The stream: the generated scenario's GS evolution (seed 11, 2 %
/// churn per step) played against a shadow of the server's registry,
/// and when sharded, one add per step to one shard's own source in
/// turn. Deterministic, so a prefix of it can be sent again.
fn stream(shards: usize) -> impl Iterator<Item = Json> {
    let mut cfg = WorldConfig::small();
    cfg.seed = 7;
    let scenario = Scenario::generate(cfg);
    let mut shadow = scenario.registry;
    let evolve = EvolveConfig {
        seed: 11,
        ..EvolveConfig::with_churn(0.02)
    };
    let mut gs = DeltaStream::new(evolve, scenario.ids.pub_gs);
    (0..).flat_map(move |step: usize| {
        let delta = gs.next_delta(&shadow);
        shadow
            .apply_delta(&delta)
            .expect("the shadow applies its own delta");
        let mut reqs = vec![protocol::delta_request(GS, &delta.ops)];
        if shards > 1 {
            let id = format!("stream_{step}");
            let own = SCATTER[step % shards];
            reqs.push(protocol::delta_request(own, &add("name", &id, &id)));
        }
        reqs
    })
}

/// The log directories of a `shards`-shard server under `wal`.
fn shard_dirs(wal: &Path, shards: usize) -> Vec<PathBuf> {
    match shards {
        1 => vec![wal.to_owned()],
        n => (0..n).map(|i| wal.join(format!("shard.{i}"))).collect(),
    }
}

/// Run the gate at `shards` shards in a fresh scratch directory, and
/// return that directory (the crashed log is its `wal/`).
fn crash_gate(shards: usize) -> PathBuf {
    let work = tmp_dir(&format!("kill9_{shards}"));
    let wal = work.join("wal");
    let mut server = running(&serve_args(shards, &wal, &[]));
    let fixed = history(&mut server.client(), shards, true);

    // Deltas on one connection, checkpoints back to back on another,
    // until the SIGKILL cuts both.
    let acked = Arc::new(AtomicUsize::new(0));
    let streamer = {
        let (mut c, acked) = (server.client(), Arc::clone(&acked));
        std::thread::spawn(move || {
            let mut sent = 0;
            for req in stream(shards) {
                sent += 1;
                let Ok(reply) = c.call(&req) else { break };
                assert_eq!(flag(&reply, "ok"), Some(true), "{reply}");
                acked.fetch_add(1, Ordering::SeqCst);
            }
            sent
        })
    };
    let checkpointer = {
        let mut c = server.client();
        std::thread::spawn(move || {
            let mut published = 0;
            while let Ok(reply) = c.call(&protocol::checkpoint_request()) {
                assert_eq!(flag(&reply, "ok"), Some(true), "{reply}");
                published += 1;
            }
            published
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while acked.load(Ordering::SeqCst) < KILL_AFTER {
        assert!(
            !streamer.is_finished(),
            "the stream stopped before the kill"
        );
        assert!(Instant::now() < deadline, "the stream stalled");
        std::thread::sleep(Duration::from_millis(2));
    }
    server.kill();
    let sent = streamer.join().expect("stream");
    let checkpoints = checkpointer.join().expect("checkpoint loop");
    let acked = acked.load(Ordering::SeqCst);
    let torn = shard_dirs(&wal, shards)
        .iter()
        .any(|dir| dir.join("checkpoint.tmp").exists());
    println!(
        "{shards} shard(s): SIGKILL after {acked} acknowledged of {sent} sent stream deltas and \
         {checkpoints} checkpoint replies; checkpoint.tmp left behind: {torn}"
    );

    // Recovery loses no acknowledged write, and a checkpoint bounds it.
    let mut server = running(&serve_args(shards, &wal, &["--replay"]));
    let mut c = server.client();
    let stats = c.stats().expect("stats");
    let recovered = stat(&stats, &["commands", "delta"]) as usize;
    assert!(
        fixed + acked <= recovered && recovered <= fixed + sent,
        "{recovered} deltas recovered; {acked} of {sent} stream deltas were acknowledged after \
         {fixed} fixed ones"
    );
    let [seq, checkpoint_seq, lag] =
        ["seq", "checkpoint_seq", "lag"].map(|k| stat(&stats, &["wal", k]));
    assert!(checkpoint_seq > 0 && lag < seq, "{stats}");
    let recovered_dump = work.join("dump_recovered");
    call_ok(
        &mut c,
        &protocol::dump_request(recovered_dump.to_str().unwrap()),
    );
    server.shutdown();

    // A clean run of the same prefix, the batch sent as singles.
    let mut reference = running(&serve_args(shards, &work.join("wal_clean"), &[]));
    let mut c = reference.client();
    history(&mut c, shards, false);
    for req in stream(shards).take(recovered - fixed) {
        call_ok(&mut c, &req);
    }
    let clean_dump = work.join("dump_clean");
    call_ok(
        &mut c,
        &protocol::dump_request(clean_dump.to_str().unwrap()),
    );
    reference.shutdown();
    assert_dumps_identical(&recovered_dump, &clean_dump);
    work
}

#[test]
fn one_shard_recovers_a_sigkill_mid_stream() {
    let work = crash_gate(1);
    let _ = std::fs::remove_dir_all(&work);
}

/// Four shards — and then their log refuses a `--replay` at two shards
/// or one, before anything touches it (it used to serve a part of the
/// shards' state, or none of it beside a fresh root log).
#[test]
fn four_shards_recover_a_sigkill_mid_stream() {
    let work = crash_gate(4);
    let wal = work.join("wal");
    let before = dir_contents(&wal);
    for shards in [2, 1] {
        match serve(&serve_args(shards, &wal, &["--replay"])) {
            Ok(mut server) => panic!(
                "--shards {shards} --replay served a 4-shard log:\n{}",
                server.kill()
            ),
            Err((code, log)) => {
                assert_eq!(code, Some(1), "{log}");
                let refusal = "holds 4 shard logs; restart with --shards 4";
                assert!(
                    log.contains(&format!("{} {refusal}", wal.display())),
                    "{log}"
                );
            }
        }
        assert!(
            dir_contents(&wal) == before,
            "--shards {shards} touched the log"
        );
    }
    let _ = std::fs::remove_dir_all(&work);
}

//! Shard-routing edge cases over real TCP: unroutable deltas are
//! refused with the same error grammar the engine uses, scatter/gather
//! endpoints cope with a shard that owns nothing, a match between
//! sources with two different home shards is refused instead of
//! answered from a stale copy, a state that holds one source on two
//! shards is refused at boot, and a torn WAL on one shard is recovered
//! independently of its clean neighbours.

mod common;

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

use common::{assert_dumps_identical, dump_to, scenario_registry, tmp_dir};
use moma_core::exec::Parallelism;
use moma_model::{AttrValue, DeltaOp};
use moma_server::{protocol, spawn_sharded, Client, DurabilityPolicy, Engine, Json, Limits};

/// N engines booted from identical clones of the scenario registry —
/// the invariant the CLI's `--shards` flag establishes. With a WAL
/// base, each shard gets its own `shard.<i>` log directory.
fn shard_engines(n: usize, wal_base: Option<&Path>) -> Vec<Engine> {
    (0..n)
        .map(|i| {
            let mut e = Engine::new(scenario_registry(), Parallelism::sequential());
            if let Some(base) = wal_base {
                e.wal_create(base.join(format!("shard.{i}")), DurabilityPolicy::default())
                    .expect("wal create");
            }
            e
        })
        .collect()
}

fn delta_req(source: &str, attr: &str, id: &str) -> Json {
    protocol::delta_request(
        source,
        &[DeltaOp::Add {
            id: id.to_owned(),
            fields: vec![(
                attr.to_owned(),
                AttrValue::Text(format!("shard routing probe {id}")),
            )],
        }],
    )
}

fn spawn_cluster(engines: Vec<Engine>) -> (moma_server::ServerHandle, Client) {
    let handle = spawn_sharded(engines, "127.0.0.1:0", Limits::default()).expect("spawn");
    let addr = handle.addr.to_string();
    let c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    (handle, c)
}

fn error_of(resp: &Json) -> String {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "expected an error frame, got: {resp}"
    );
    resp.str_field("error").unwrap_or_default().to_owned()
}

/// A delta to a source no shard hosts — or to a source that does not
/// exist at all — is refused with a routable error and the connection
/// keeps serving.
#[test]
fn unroutable_deltas_are_refused_with_routable_errors() {
    let (handle, mut c) = spawn_cluster(shard_engines(2, None));

    // Source that is not in any registry: refused naming the source.
    let r = c
        .call(&delta_req("Nope@Nowhere", "title", "x"))
        .expect("transport ok");
    assert!(
        error_of(&r).contains("unknown source `Nope@Nowhere`"),
        "unexpected error: {r}"
    );

    // Source every shard knows but no mapping reads: refused with the
    // ownership rule spelled out, not applied blindly to shard 0.
    let r = c
        .call(&delta_req("Venue@DBLP", "name", "x"))
        .expect("transport ok");
    let msg = error_of(&r);
    assert!(
        msg.contains("no shard hosts mappings over source `Venue@DBLP`"),
        "unexpected error: {msg}"
    );

    // Shard hints outside the cluster are refused up front.
    let hinted = protocol::with_shard(
        protocol::match_request(
            "m_bad",
            "Publication@DBLP",
            "Publication@ACM",
            "title",
            "title",
            "trigram",
            0.7,
        ),
        9,
    );
    let r = c.call(&hinted).expect("transport ok");
    assert!(error_of(&r).contains("out of range"), "{r}");

    // Claim Publication@DBLP on shard 0, then try to split it to 1.
    let own = protocol::with_shard(
        protocol::match_request(
            "m_own",
            "Publication@DBLP",
            "Publication@ACM",
            "title",
            "title",
            "trigram",
            0.7,
        ),
        0,
    );
    let r = c.call_ok(&own).expect("match");
    assert_eq!(r.get("shard").and_then(Json::as_u64), Some(0));
    let split = protocol::with_shard(
        protocol::match_request(
            "m_split",
            "Publication@DBLP",
            "Publication@GS",
            "title",
            "title",
            "trigram",
            0.7,
        ),
        1,
    );
    let r = c.call(&split).expect("transport ok");
    assert!(error_of(&r).contains("owned by shard 0"), "{r}");

    // A batch with one unroutable item refuses the whole batch (group
    // commit semantics: all items or none), naming the offending item —
    // even when the other item (Publication@DBLP, hosted by shard 0
    // since m_own) would route fine on its own.
    let items = vec![
        protocol::delta_item(
            "Publication@DBLP",
            &[DeltaOp::Add {
                id: "b0".into(),
                fields: vec![("title".into(), AttrValue::Text("probe".into()))],
            }],
        ),
        protocol::delta_item(
            "Venue@ACM",
            &[DeltaOp::Add {
                id: "b1".into(),
                fields: vec![("name".into(), AttrValue::Text("probe".into()))],
            }],
        ),
    ];
    let r = c
        .call(&protocol::batch_delta_request(items))
        .expect("transport ok");
    let msg = error_of(&r);
    assert!(
        msg.contains("batch_delta item 1") && msg.contains("Venue@ACM"),
        "unexpected error: {msg}"
    );

    // After the refusals the connection still serves: the now-hosted
    // source accepts a delta, routed to exactly its owning shard.
    let r = c
        .call_ok(&delta_req("Publication@DBLP", "title", "ok_0"))
        .expect("delta after refusals");
    let shards = r.get("shards").and_then(Json::as_arr).expect("shards");
    assert_eq!(shards.len(), 1);
    assert_eq!(shards[0].as_u64(), Some(0));

    handle.stop();
}

/// Scatter/gather endpoints with a shard that owns nothing: queries
/// route around it, stats still report it, and a dump includes its
/// (empty) state.
#[test]
fn scatter_gather_with_an_empty_shard() {
    let (handle, mut c) = spawn_cluster(shard_engines(3, None));

    c.call_ok(&protocol::with_shard(
        protocol::match_request(
            "m_pub",
            "Publication@DBLP",
            "Publication@ACM",
            "title",
            "title",
            "trigram",
            0.7,
        ),
        0,
    ))
    .expect("match on shard 0");
    c.call_ok(&protocol::with_shard(
        protocol::match_request(
            "m_auth",
            "Author@DBLP",
            "Author@ACM",
            "name",
            "name",
            "trigram",
            0.7,
        ),
        1,
    ))
    .expect("match on shard 1");
    // Shard 2 never receives a mapping.

    // Singleton queries route by mapping and say where they ran.
    let q = c.query("m_pub", 5, None).expect("query m_pub");
    assert_eq!(q.get("shard").and_then(Json::as_u64), Some(0));
    let q = c.query("m_auth", 5, None).expect("query m_auth");
    assert_eq!(q.get("shard").and_then(Json::as_u64), Some(1));

    // A scatter batch mixing both shards and an unknown name: per-item
    // routing, per-item errors, request order preserved.
    let results = c
        .batch_query(vec![
            protocol::query_item("m_auth", 3, None),
            protocol::query_item("ghost", 1, None),
            protocol::query_item("m_pub", 3, None),
        ])
        .expect("batch_query");
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].str_field("name"), Some("m_auth"));
    assert_eq!(results[0].get("shard").and_then(Json::as_u64), Some(1));
    let msg = error_of(&results[1]);
    assert!(
        msg.contains("unknown mapping `ghost`") && msg.contains("m_auth") && msg.contains("m_pub"),
        "unexpected error: {msg}"
    );
    assert_eq!(results[2].get("shard").and_then(Json::as_u64), Some(0));

    // Stats gather includes the empty shard: aggregate counters sum the
    // active shards, the per-shard breakdown has a row for shard 2.
    let stats = c.stats().expect("stats");
    assert_eq!(stats.get("shard_count").and_then(Json::as_u64), Some(3));
    assert_eq!(
        stats
            .get("commands")
            .and_then(|c| c.get("match"))
            .and_then(Json::as_u64),
        Some(2)
    );
    let shards = stats.get("shards").and_then(Json::as_arr).expect("shards");
    assert_eq!(shards.len(), 3);
    assert_eq!(
        shards[2]
            .get("commands")
            .and_then(|c| c.get("match"))
            .and_then(Json::as_u64),
        Some(0),
        "empty shard is reported, not skipped: {stats}"
    );

    // Dump scatters to per-shard subdirectories — including the empty
    // shard — under one top-level manifest.
    let dump_dir = tmp_dir("empty_dump");
    c.call_ok(&protocol::dump_request(dump_dir.to_str().unwrap()))
        .expect("dump");
    for i in 0..3 {
        assert!(
            dump_dir.join(format!("shard.{i}/manifest.tsv")).is_file(),
            "missing shard {i} dump"
        );
    }
    let manifest = fs::read_to_string(dump_dir.join("manifest.tsv")).expect("manifest");
    assert!(manifest.starts_with("# moma shard dump manifest"));
    assert!(manifest.contains("shards\t3"), "{manifest}");

    handle.stop();
    let _ = fs::remove_dir_all(&dump_dir);
}

/// The probe history: DBLP → ACM hinted to shard 0, GS → GS hinted to
/// shard 1, one acknowledged delta that adds a GS publication (titled
/// like a DBLP one), then an unhinted DBLP → GS. At one shard that last
/// match holds the added instance. At two, DBLP's home is shard 0 and
/// GS's is shard 1, and the match is refused naming both: it used to
/// run on DBLP's shard, which never received the delta, and answer
/// without the row.
#[test]
fn a_match_across_two_homes_is_refused_not_answered_stale() {
    let registry = scenario_registry();
    let dblp = registry.lds(registry.resolve("Publication@DBLP").unwrap());
    let title = dblp.attr_of(0, "title").unwrap().cloned().expect("a title");
    let add = DeltaOp::Add {
        id: "probe_g".into(),
        fields: vec![("title".into(), title)],
    };
    for shards in [1, 2] {
        let (handle, mut c) = spawn_cluster(shard_engines(shards, None));
        c.call_ok(&protocol::with_shard(pub_match("m_da", "DBLP", "ACM"), 0))
            .expect("DBLP → ACM");
        c.call_ok(&protocol::with_shard(pub_match("m_gg", "GS", "GS"), 1))
            .expect("GS → GS");
        let delta = protocol::delta_request("Publication@GS", std::slice::from_ref(&add));
        c.call_ok(&delta).expect("delta");
        let r = c
            .call(&pub_match("m_dg", "DBLP", "GS"))
            .expect("transport ok");
        if shards == 1 {
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
            let q = c.query("m_dg", 0, None).expect("query m_dg");
            let rows = q.get("rows").expect("rows").to_string();
            assert!(rows.contains(r#""probe_g""#), "{q}");
        } else {
            let msg = error_of(&r);
            assert!(msg.contains("shard 0") && msg.contains("shard 1"), "{msg}");
            let q = c.call(&protocol::query_request("m_dg", 0, None));
            let msg = error_of(&q.expect("transport ok"));
            assert!(msg.contains("unknown mapping `m_dg`"), "{msg}");
        }
        handle.stop();
    }
}

/// A state that holds one source on two shards — what an earlier
/// release's replicated deltas left: here each shard holds a mapping
/// over `Publication@ACM` — is refused at boot, naming the source and
/// both shards, instead of serving a copy no delta reaches any more.
#[test]
fn a_source_on_two_shards_is_refused_at_boot() {
    let mut engines = shard_engines(2, None);
    for (engine, req) in engines.iter_mut().zip([
        pub_match("m_da", "DBLP", "ACM"),
        pub_match("m_ag", "ACM", "GS"),
    ]) {
        let r = engine.execute(&req);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    }
    let Err(e) = spawn_sharded(engines, "127.0.0.1:0", Limits::default()) else {
        panic!("a source on two shards must be refused at boot");
    };
    let msg = e.to_string();
    assert!(
        msg.contains("`Publication@ACM`") && msg.contains("shards 0 and 1"),
        "{msg}"
    );
}

/// Tearing one shard's WAL mid-record loses exactly that shard's tail
/// command; the other shard replays in full, and the recovered cluster
/// keeps serving with its routing index rebuilt from engine state.
#[test]
fn torn_wal_on_one_shard_recovers_independently() {
    let work = tmp_dir("torn");
    let wal_base = work.join("wal");

    let m_pub = protocol::with_shard(
        protocol::match_request(
            "m_pub",
            "Publication@DBLP",
            "Publication@ACM",
            "title",
            "title",
            "trigram",
            0.7,
        ),
        0,
    );
    let m_auth = protocol::with_shard(
        protocol::match_request(
            "m_auth",
            "Author@DBLP",
            "Author@ACM",
            "name",
            "name",
            "trigram",
            0.7,
        ),
        1,
    );
    let pub_deltas: Vec<Json> = (0..3)
        .map(|i| delta_req("Publication@DBLP", "title", &format!("pd_{i}")))
        .collect();
    let auth_deltas: Vec<Json> = (0..3)
        .map(|i| delta_req("Author@DBLP", "name", &format!("ad_{i}")))
        .collect();

    // Run the cluster: shard 0 logs m_pub + 3 deltas, shard 1 logs
    // m_auth + 3 deltas. Every delta routes to exactly one shard.
    {
        let (handle, mut c) = spawn_cluster(shard_engines(2, Some(&wal_base)));
        c.call_ok(&m_pub).expect("m_pub");
        c.call_ok(&m_auth).expect("m_auth");
        for req in pub_deltas.iter().chain(&auth_deltas) {
            let r = c.call_ok(req).expect("delta");
            let shards = r.get("shards").and_then(Json::as_arr).expect("shards");
            assert_eq!(shards.len(), 1, "single-host source must not fan out: {r}");
        }
        handle.stop();
        // Engines (and their WAL handles) dropped here: the "crash".
    }

    // Tear the final record of shard 1's log; leave shard 0 untouched.
    let seg = wal_base.join("shard.1/wal.000001.log");
    let full = fs::read(&seg).expect("wal bytes");
    let torn_at = full.len() - 7; // mid-payload of the final record
    let mut f = fs::File::create(&seg).expect("rewrite wal");
    f.write_all(&full[..torn_at]).expect("torn write");
    drop(f);

    // Per-shard recovery: shard 0 replays everything, shard 1 drops
    // exactly the torn tail — one shard's damage never bleeds into
    // another's replay.
    let mut e0 = Engine::new(scenario_registry(), Parallelism::sequential());
    let s0 = e0
        .recover(wal_base.join("shard.0"), DurabilityPolicy::default())
        .expect("recover shard 0");
    assert_eq!(s0.replayed, 4);
    assert_eq!(s0.failed, 0);
    assert_eq!(s0.dropped_bytes, 0);

    let mut e1 = Engine::new(scenario_registry(), Parallelism::sequential());
    let s1 = e1
        .recover(wal_base.join("shard.1"), DurabilityPolicy::default())
        .expect("recover shard 1");
    assert_eq!(s1.replayed, 3, "torn tail record dropped");
    assert_eq!(s1.failed, 0);
    assert!(s1.dropped_bytes > 0);
    assert!(s1.stop_reason.is_some());

    // Bit-identity per shard against clean engines executing exactly
    // the surviving command prefixes.
    let mut r0 = Engine::new(scenario_registry(), Parallelism::sequential());
    r0.execute(&m_pub);
    for req in &pub_deltas {
        assert_eq!(
            r0.execute(req).get("ok").and_then(Json::as_bool),
            Some(true)
        );
    }
    let mut r1 = Engine::new(scenario_registry(), Parallelism::sequential());
    r1.execute(&m_auth);
    for req in auth_deltas.iter().take(2) {
        assert_eq!(
            r1.execute(req).get("ok").and_then(Json::as_bool),
            Some(true)
        );
    }
    let (d0, d0_ref) = (work.join("d0"), work.join("d0_ref"));
    dump_to(&e0, &d0);
    dump_to(&r0, &d0_ref);
    assert_dumps_identical(&d0, &d0_ref);
    let (d1, d1_ref) = (work.join("d1"), work.join("d1_ref"));
    dump_to(&e1, &d1);
    dump_to(&r1, &d1_ref);
    assert_dumps_identical(&d1, &d1_ref);

    // Restart the cluster on the recovered engines: the routing index
    // is rebuilt from engine state, so reads and writes route as before.
    let (handle, mut c) = spawn_cluster(vec![e0, e1]);
    let q = c.query("m_pub", 1, None).expect("query after recovery");
    assert_eq!(q.get("shard").and_then(Json::as_u64), Some(0));
    let r = c
        .call_ok(&delta_req("Author@DBLP", "name", "ad_after"))
        .expect("delta after recovery");
    let shards = r.get("shards").and_then(Json::as_arr).expect("shards");
    assert_eq!(shards[0].as_u64(), Some(1));

    let stats = c.stats().expect("stats");
    // 3 recovered on shard 0 + 2 surviving on shard 1 + 1 new.
    assert_eq!(
        stats
            .get("commands")
            .and_then(|c| c.get("delta"))
            .and_then(Json::as_u64),
        Some(6)
    );
    assert_eq!(stats.get("shard_count").and_then(Json::as_u64), Some(2));
    handle.stop();

    let _ = fs::remove_dir_all(&work);
}

fn pub_match(name: &str, domain: &str, range: &str) -> Json {
    protocol::match_request(
        name,
        &format!("Publication@{domain}"),
        &format!("Publication@{range}"),
        "title",
        "title",
        "trigram",
        0.7,
    )
}

/// A one-shard server is the same router: a runtime `match`/`compose`
/// lands in its ownership index, not only in the engine.
#[test]
fn one_shard_router_keeps_its_ownership_index_current() {
    let (handle, mut c) = spawn_cluster(shard_engines(1, None));
    c.call_ok(&pub_match("m_da", "DBLP", "ACM")).expect("match");
    c.call_ok(&pub_match("m_ag", "ACM", "GS")).expect("match");
    c.call_ok(&protocol::compose_request(
        "c_dg", "m_da", "m_ag", "min", "max",
    ))
    .expect("compose");

    let router = &handle.shared().router;
    for name in ["m_da", "m_ag", "c_dg"] {
        assert_eq!(router.mapping_shard(name), Some(0), "{name}");
    }
    assert_eq!(router.plan_delta("Publication@DBLP"), Ok(vec![0]));
    assert_eq!(router.mapping_shard("ghost"), None);
    handle.stop();
}

/// The router owns the `repl` flag earlier releases put on replicated
/// deltas: a client that sends one — on a delta or a batch item, `true`
/// or not — is refused at every shard count, and nothing is counted (a
/// forged `"repl": true` used to be counted as a replica, so the delta
/// vanished from `commands.delta`). The `cmd` of a batch item is
/// ignored.
#[test]
fn client_supplied_repl_is_refused_and_item_cmd_ignored() {
    for shards in [1, 2] {
        // m_dg lives on shard 0, m_aa on the last shard, over a source
        // shard 0 does not hold when there are two.
        let (handle, mut c) = spawn_cluster(shard_engines(shards, None));
        c.call_ok(&protocol::with_shard(pub_match("m_dg", "DBLP", "GS"), 0))
            .expect("left match");
        c.call_ok(&protocol::with_shard(
            pub_match("m_aa", "ACM", "ACM"),
            shards - 1,
        ))
        .expect("right match");

        let delta = delta_req("Publication@GS", "title", "repl_probe");
        let item = |repl: bool| {
            let item = protocol::delta_item("Publication@GS", &[]);
            item.set_field("repl", Json::Bool(repl))
        };
        for forged in [
            delta.clone().set_field("repl", Json::Bool(true)),
            delta.clone().set_field("repl", Json::Bool(false)),
            protocol::batch_delta_request(vec![item(false)]),
            protocol::batch_delta_request(vec![
                protocol::delta_item("Publication@GS", &[]),
                item(true),
            ]),
        ] {
            let r = c.call(&forged).expect("transport ok");
            assert!(
                error_of(&r).contains("`repl` is internal to the shard router"),
                "{r}"
            );
        }
        let r = c.call_ok(&delta).expect("delta");
        let shards_hit = r.get("shards").and_then(Json::as_arr).map(<[_]>::len);
        assert_eq!(shards_hit, (shards > 1).then_some(1));
        let commands = c.stats().expect("stats");
        let commands = commands.get("commands").expect("commands");
        assert_eq!(commands.get("delta").and_then(Json::as_u64), Some(1));
        let replicas = commands.get("repl_delta").and_then(Json::as_u64);
        assert_eq!(replicas, Some(0));

        // Items on two shards, so the batch is split; the first claims to
        // be another command and is answered as the query it is.
        let impostor =
            protocol::query_item("m_dg", 1, None).set_field("cmd", Json::Str("stats".into()));
        let results = c
            .batch_query(vec![impostor, protocol::query_item("m_aa", 1, None)])
            .expect("batch_query");
        assert_eq!(results[0].str_field("name"), Some("m_dg"), "{}", results[0]);
        assert!(results[0].get("rows").is_some(), "{}", results[0]);
        assert_eq!(results[1].str_field("name"), Some("m_aa"));
        handle.stop();
    }
}

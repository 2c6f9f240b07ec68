//! Refusals keep their words: every request with exactly one fault —
//! each required field of each wire command missing, each field
//! mistyped, an unknown name where a measure, a function or a command
//! is named, a bad item in a batch, an unknown or missing `cmd`,
//! invalid JSON, invalid UTF-8, a router-internal command or field from
//! the wire — is answered at one shard and at two as
//! `data/parent_refusals.txt` says. That file is this test's output on
//! the release before requests were decoded once (bb0438f), with the
//! rows that release got wrong on purpose regenerated (see CHANGES.md).
//! Each row runs on a freshly booted server, so no row's outcome leans
//! on another's.
//!
//! To regenerate: `MOMA_REFUSALS_OUT=<file> cargo test -p moma-server
//! --test refusals` writes the rows to `<file>` instead of comparing.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

use moma_core::exec::Parallelism;
use moma_model::{AttrDef, AttrValue, DeltaOp, LogicalSource, ObjectType, SourceRegistry};
use moma_server::frame::{read_frame, write_frame};
use moma_server::{protocol, spawn_sharded, Client, DurabilityPolicy, Engine, Json, Limits};

fn registry() -> SourceRegistry {
    let mut reg = SourceRegistry::new();
    for pds in ["DBLP", "ACM", "GS"] {
        let schema = vec![AttrDef::text("title")];
        let mut lds = LogicalSource::new(pds, ObjectType::new("Publication"), schema);
        for (i, title) in ["Generic schema matching", "Potters wheel"]
            .iter()
            .enumerate()
        {
            let title = AttrValue::Text(format!("{title} ({pds})"));
            lds.insert_record(format!("{pds}{i}"), vec![("title", title)])
                .unwrap();
        }
        reg.register(lds).unwrap();
    }
    reg
}

fn source(pds: &str) -> String {
    format!("Publication@{pds}")
}

/// `m0` (DBLP → ACM) and `m1` (ACM → GS), both on shard 0, the home of
/// every source.
fn setup() -> [Json; 2] {
    let matcher = |name, d, r, shard| {
        let req = protocol::match_request(
            name,
            &source(d),
            &source(r),
            "title",
            "title",
            "trigram",
            0.5,
        );
        protocol::with_shard(req, shard)
    };
    [
        matcher("m0", "DBLP", "ACM", 0),
        matcher("m1", "ACM", "GS", 0),
    ]
}

fn add(id: &str) -> Vec<DeltaOp> {
    vec![DeltaOp::Add {
        id: id.into(),
        fields: vec![(
            "title".into(),
            AttrValue::Text("Generic schema matching".into()),
        )],
    }]
}

fn without(req: &Json, key: &str) -> Json {
    match req {
        Json::Obj(members) => {
            Json::Obj(members.iter().filter(|(k, _)| k != key).cloned().collect())
        }
        other => other.clone(),
    }
}

/// A value of the wrong type for `value`'s field.
fn mistyped(value: &Json) -> Json {
    match value {
        Json::Str(_) => Json::Num(7.0),
        Json::Num(_) | Json::Uint(_) => Json::Str("0.5".into()),
        _ => Json::Str("x".into()),
    }
}

/// `req` with the `items` element `k` replaced by `item`.
fn with_item(req: &Json, k: usize, item: Json) -> Json {
    let mut items = req.get("items").and_then(Json::as_arr).unwrap().to_vec();
    items[k] = item;
    req.clone().set_field("items", Json::Arr(items))
}

/// Every request with exactly one fault, as the bytes of its frame.
fn faulty() -> Vec<Vec<u8>> {
    let mut reqs: Vec<Json> = Vec::new();
    // Each required field missing, each field mistyped.
    let mut fields = |base: Json, required: &[&str]| {
        for key in required {
            reqs.push(without(&base, key));
        }
        if let Json::Obj(members) = &base {
            for (key, value) in members.iter().filter(|(k, _)| k != "cmd") {
                reqs.push(base.clone().set_field(key, mistyped(value)));
            }
        }
    };
    let matcher = protocol::match_request(
        "m",
        &source("DBLP"),
        &source("GS"),
        "title",
        "title",
        "trigram",
        0.5,
    )
    .set_field("blocking", Json::Str("threshold".into()));
    let matcher = protocol::with_shard(matcher, 0);
    fields(matcher.clone(), &["name", "domain", "range"]);
    let compose = protocol::compose_request("c", "m0", "m1", "min", "max");
    fields(compose.clone(), &["name", "left", "right"]);
    fields(protocol::query_request("m0", 2, Some(0.5)), &["name"]);
    let batch_query = protocol::batch_query_request(vec![
        protocol::query_item("m0", 1, None),
        protocol::query_item("m1", 1, Some(0.5)),
    ]);
    fields(batch_query.clone(), &["items"]);
    let delta = protocol::delta_request(&source("ACM"), &add("a9"));
    fields(delta.clone(), &["lds", "ops"]);
    let batch_delta = protocol::batch_delta_request(vec![
        protocol::delta_item(&source("GS"), &add("g9")),
        protocol::delta_item(&source("ACM"), &add("a9")),
    ]);
    fields(batch_delta.clone(), &["items"]);
    fields(protocol::dump_request("dump"), &["dir"]);

    // Unknown names.
    for (key, value) in [("sim", "nope"), ("sim", "qgram:17"), ("blocking", "nope")] {
        reqs.push(matcher.clone().set_field(key, Json::Str(value.into())));
    }
    reqs.push(matcher.clone().set_field("threshold", Json::Num(1.5)));
    for key in ["f", "g"] {
        reqs.push(compose.clone().set_field(key, Json::Str("nope".into())));
    }
    // Bad items and bad operations.
    let query_item = protocol::query_item("m1", 1, Some(0.5));
    for bad in [without(&query_item, "name"), Json::Num(1.0)] {
        reqs.push(with_item(&batch_query, 1, bad));
    }
    for (key, value) in [
        ("name", Json::Num(7.0)),
        ("limit", Json::Num(-1.0)),
        ("min_sim", Json::Str("0.5".into())),
    ] {
        reqs.push(with_item(
            &batch_query,
            1,
            query_item.clone().set_field(key, value),
        ));
    }
    reqs.push(batch_query.clone().set_field("items", Json::Arr(vec![])));
    let delta_item = protocol::delta_item(&source("ACM"), &add("a9"));
    for key in ["lds", "ops"] {
        reqs.push(with_item(&batch_delta, 1, without(&delta_item, key)));
        let value = delta_item.get(key).unwrap();
        reqs.push(with_item(
            &batch_delta,
            1,
            delta_item.clone().set_field(key, mistyped(value)),
        ));
    }
    reqs.push(batch_delta.clone().set_field("items", Json::Arr(vec![])));
    let op = |j: &str| Json::Arr(vec![Json::parse(j).unwrap()]);
    for bad in [
        r#"{"id":"a9"}"#,
        r#"{"op":"add"}"#,
        r#"{"op":"move","id":"a9"}"#,
        r#"{"op":"add","id":"a9"}"#,
        r#"{"op":"add","id":"a9","fields":{"title":{"t":"colour","v":"x"}}}"#,
        r#"{"op":"add","id":"a9","fields":{"title":{"t":"text","v":7}}}"#,
        r#"{"op":"update","id":"a0","value":null}"#,
    ] {
        reqs.push(delta.clone().set_field("ops", op(bad)));
    }
    // Router-internal fields and commands from the wire.
    reqs.push(delta.clone().set_field("repl", Json::Bool(true)));
    reqs.push(with_item(
        &batch_delta,
        1,
        delta_item.set_field("repl", Json::Bool(true)),
    ));
    reqs.push(protocol::install_request(
        "x",
        &source("DBLP"),
        &source("GS"),
        &[(0, 0, 0.5)],
        None,
    ));
    // The command itself.
    reqs.push(protocol::bare_request("frobnicate"));
    reqs.push(without(&protocol::query_request("m0", 1, None), "cmd"));
    reqs.push(protocol::query_request("m0", 1, None).set_field("cmd", Json::Num(7.0)));
    reqs.push(Json::Arr(vec![Json::Num(1.0)]));

    let mut frames: Vec<Vec<u8>> = reqs.iter().map(|r| r.to_string().into_bytes()).collect();
    frames.push(br#"{"cmd":"query","name":"m0""#.to_vec());
    frames.push(vec![0xff, 0xfe, b'{']);
    frames
}

/// One row per faulty request — shards, request, reply — each sent to
/// a fresh server primed by [`setup`].
fn refusal_rows() -> String {
    let mut out = String::new();
    for shards in [1, 2] {
        for frame in faulty() {
            let engines = (0..shards)
                .map(|_| Engine::new(registry(), Parallelism::sequential()))
                .collect();
            let handle = spawn_sharded(engines, "127.0.0.1:0", Limits::default()).unwrap();
            let addr = handle.addr.to_string();
            let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).unwrap();
            for req in setup() {
                c.call_ok(&req).expect("setup");
            }
            drop(c);
            let mut stream = TcpStream::connect(&addr).unwrap();
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &frame).unwrap();
            stream.write_all(&bytes).unwrap();
            let reply = read_frame(&mut stream).unwrap().expect("a reply");
            drop(stream);
            handle.stop();
            let request = String::from_utf8_lossy(&frame);
            let reply = String::from_utf8(reply).expect("a UTF-8 reply");
            out.push_str(&format!("{shards}\t{}\t{reply}\n", request.escape_debug()));
        }
    }
    out
}

#[test]
fn refusals_are_the_previous_releases_or_listed() {
    let actual = refusal_rows();
    if let Some(path) = std::env::var_os("MOMA_REFUSALS_OUT") {
        std::fs::write(Path::new(&path), &actual).unwrap();
        return;
    }
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/parent_refusals.txt"
    );
    let expect = std::fs::read_to_string(golden).unwrap();
    for (line, (got, want)) in actual.lines().zip(expect.lines()).enumerate() {
        assert_eq!(got, want, "line {}", line + 1);
    }
    assert_eq!(actual.lines().count(), expect.lines().count());
}

/// What `shards` servers hold after one history of writes that do not
/// decode: the summed `commands` counters and the WAL records, after a
/// well-formed setup.
fn after_undecodable_writes(shards: usize) -> (Json, u64) {
    let wal = std::env::temp_dir().join(format!("moma_refusals_{shards}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal);
    let engines = (0..shards)
        .map(|i| {
            let mut e = Engine::new(registry(), Parallelism::sequential());
            e.wal_create(wal.join(format!("shard.{i}")), DurabilityPolicy::default())
                .unwrap();
            e
        })
        .collect();
    let handle = spawn_sharded(engines, "127.0.0.1:0", Limits::default()).unwrap();
    let mut c = Client::connect_retry(&handle.addr.to_string(), Duration::from_secs(5)).unwrap();
    for req in setup() {
        c.call_ok(&req).expect("setup");
    }
    let matcher = protocol::match_request(
        "m",
        &source("DBLP"),
        &source("GS"),
        "title",
        "title",
        "trigram",
        0.5,
    );
    let batch = protocol::batch_delta_request(vec![
        protocol::delta_item(&source("GS"), &add("g9")),
        Json::obj(vec![("ops", Json::Arr(vec![]))]),
    ]);
    for req in [
        without(&matcher, "name"),
        matcher
            .clone()
            .set_field("threshold", Json::Str("0.9".into())),
        matcher.set_field("sim", Json::Str("nope".into())),
        batch,
    ] {
        let reply = c.call(&req).unwrap();
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "{req}: {reply}"
        );
    }
    let stats = c.stats().unwrap();
    handle.stop();
    let _ = std::fs::remove_dir_all(&wal);
    let records = stats
        .get("wal")
        .and_then(|w| w.get("seq"))
        .and_then(Json::as_u64);
    (stats.get("commands").cloned().unwrap(), records.unwrap())
}

/// A write that does not decode is refused before the WAL at every
/// shard count: one server and two end with the same counters and the
/// same number of logged records — the setup's two matches.
#[test]
fn refusals_do_not_depend_on_the_shard_count() {
    let (one, two) = (after_undecodable_writes(1), after_undecodable_writes(2));
    assert_eq!(one, two);
    assert_eq!(one.1, 2, "{one:?}");
}

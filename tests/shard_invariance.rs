//! Results do not depend on the shard count: one fixed request list —
//! hinted and unhinted matches over four sources, composes, deltas, a
//! `batch_delta` whose items live on different shards, and queries — is
//! served in-process at 1, 2 and 4 shards. At N > 1 every request either
//! succeeds exactly when it succeeds at one shard or is refused by the
//! router (an error no shard answered: it carries no `shard`/`shards`),
//! and every query that succeeds answers the same rows and `total` as
//! at one shard. Version stamps, sequence numbers and the `shard(s)`
//! annotations are per shard and not compared.

use std::time::Duration;

use moma::core::exec::Parallelism;
use moma::model::{AttrDef, AttrValue, DeltaOp, LogicalSource, ObjectType, SourceRegistry};
use moma::server::{protocol, spawn_sharded, Client, Engine, Json, Limits};

const TITLES: [&str; 6] = [
    "Generic schema matching with Cupid",
    "A survey of approaches to automatic schema matching",
    "Potters wheel: an interactive data cleaning system",
    "Similarity flooding: a versatile graph matching algorithm",
    "Robust and efficient fuzzy match for online data cleaning",
    "Adaptive duplicate detection using learnable string similarity",
];

/// Four publication sources over the same titles, each spelled its own
/// way.
fn registry() -> SourceRegistry {
    let mut reg = SourceRegistry::new();
    for (pds, prefix, twist) in [
        ("DBLP", "d", ""),
        ("ACM", "a", " (extended)"),
        ("GS", "g", "."),
        ("CS", "c", " [pdf]"),
    ] {
        let schema = vec![AttrDef::text("title")];
        let mut lds = LogicalSource::new(pds, ObjectType::new("Publication"), schema);
        for (i, title) in TITLES.iter().enumerate() {
            let title = AttrValue::Text(format!("{title}{twist}"));
            lds.insert_record(format!("{prefix}{i}"), vec![("title", title)])
                .unwrap();
        }
        reg.register(lds).unwrap();
    }
    reg
}

fn source(pds: &str) -> String {
    format!("Publication@{pds}")
}

fn matcher(name: &str, domain: &str, range: &str, sim: &str, t: f64, hint: Option<usize>) -> Json {
    let req = protocol::match_request(
        name,
        &source(domain),
        &source(range),
        "title",
        "title",
        sim,
        t,
    );
    match hint {
        Some(shard) => protocol::with_shard(req, shard),
        None => req,
    }
}

fn add(id: &str, title: &str) -> Vec<DeltaOp> {
    vec![DeltaOp::Add {
        id: id.into(),
        fields: vec![("title".into(), AttrValue::Text(title.into()))],
    }]
}

fn delta(pds: &str, ops: Vec<DeltaOp>) -> Json {
    protocol::delta_request(&source(pds), &ops)
}

const NAMES: [&str; 9] = [
    "m_da", "m_gg", "m_cc", "m_dg", "m_ad", "c_dad", "m_gc", "c_ggc", "c_x",
];

/// Every mapping name queried alone and all of them in one batch.
fn reads() -> Vec<Json> {
    let mut reads: Vec<Json> = NAMES
        .iter()
        .map(|name| protocol::query_request(name, 0, None))
        .collect();
    let items = NAMES.iter().map(|name| protocol::query_item(name, 0, None));
    reads.push(protocol::batch_query_request(items.collect()));
    reads
}

/// The fixed request list.
fn requests() -> Vec<Json> {
    let compose = |name, left, right| protocol::compose_request(name, left, right, "min", "max");
    let mut list = vec![
        matcher("m_da", "DBLP", "ACM", "trigram", 0.5, Some(0)),
        matcher("m_gg", "GS", "GS", "trigram", 0.5, Some(1)),
        matcher("m_cc", "CS", "CS", "jaro", 0.8, None),
        delta("GS", add("g9", TITLES[0])),
    ];
    list.extend(reads());
    list.extend([
        // DBLP and GS were hinted to different shards.
        matcher("m_dg", "DBLP", "GS", "trigram", 0.5, None),
        matcher("m_ad", "ACM", "DBLP", "tfidf", 0.1, None),
        compose("c_dad", "m_da", "m_ad"),
        matcher("m_gc", "GS", "CS", "trigram", 0.5, None),
        compose("c_ggc", "m_gg", "m_gc"),
        // The inputs do not connect (ACM ≠ GS).
        compose("c_x", "m_da", "m_gg"),
        protocol::batch_delta_request(vec![
            protocol::delta_item(
                &source("ACM"),
                &[DeltaOp::Update {
                    id: "a1".into(),
                    attr: "title".into(),
                    value: Some(AttrValue::Text(TITLES[3].into())),
                }],
            ),
            protocol::delta_item(&source("GS"), &add("g10", TITLES[4])),
            protocol::delta_item(&source("DBLP"), &[DeltaOp::Remove { id: "d2".into() }]),
            protocol::delta_item(&source("CS"), &add("c9", TITLES[5])),
        ]),
        delta("DBLP", add("d9", TITLES[1])),
        delta("CS", vec![DeltaOp::Remove { id: "c1".into() }]),
        // A hint no shard of a two-shard server has.
        matcher("m_gc", "GS", "CS", "trigram", 0.6, Some(3)),
    ]);
    list.extend(reads());
    list
}

/// The replies to [`requests`] from a fresh `shards`-shard server.
fn replies(shards: usize) -> Vec<Json> {
    let engines = (0..shards)
        .map(|_| Engine::new(registry(), Parallelism::sequential()))
        .collect();
    let handle = spawn_sharded(engines, "127.0.0.1:0", Limits::default()).expect("spawn");
    let addr = handle.addr.to_string();
    let mut c = Client::connect_retry(&addr, Duration::from_secs(5)).expect("connect");
    let call = |req: &Json| c.call(req).expect("transport ok");
    let replies = requests().iter().map(call).collect();
    handle.stop();
    replies
}

fn ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// An error no shard answered: the router refused it.
fn routing_refusal(reply: &Json) -> bool {
    !ok(reply) && reply.get("shard").is_none() && reply.get("shards").is_none()
}

/// The requests a router may refuse on this list although one shard
/// answers them: the match between DBLP and GS, which were hinted to
/// different shards, the queries of its mapping, and the match hinted
/// to shard 3. (`c_x`'s inputs do not connect, so one shard fails it
/// too.)
fn may_be_refused(req: &Json) -> bool {
    req.str_field("name") == Some("m_dg") || req.get("shard").and_then(Json::as_u64) == Some(3)
}

/// `got` (at N shards) against `want` (at one), for request `req`.
fn same_or_refused(req: &Json, got: &Json, want: &Json, shards: usize) {
    if routing_refusal(got) {
        let refusable = !ok(want) || may_be_refused(req);
        assert!(refusable, "{shards} shards refused {req}: {got}");
        return;
    }
    assert_eq!(
        ok(got),
        ok(want),
        "{shards} shards, {req}:\n  got  {got}\n  want {want}"
    );
    if !ok(got) {
        return;
    }
    if let Some(got_items) = got.get("results").and_then(Json::as_arr) {
        let want_items = want.get("results").and_then(Json::as_arr).unwrap();
        let items = req.get("items").and_then(Json::as_arr).unwrap();
        for ((item, got), want) in items.iter().zip(got_items).zip(want_items) {
            same_or_refused(item, got, want, shards);
        }
    }
    for key in ["rows", "total"] {
        assert_eq!(
            got.get(key),
            want.get(key),
            "{shards} shards, {req}: `{key}` differs:\n  got  {got}\n  want {want}"
        );
    }
}

#[test]
fn results_are_the_same_at_every_shard_count_or_refused() {
    let reqs = requests();
    let one = replies(1);
    // At one shard the DBLP → GS match holds the instance the first
    // delta added to GS — the row a stale copy of GS would lose.
    let last_m_dg = reqs
        .iter()
        .rposition(|r| r.str_field("cmd") == Some("query") && r.str_field("name") == Some("m_dg"));
    let rows = one[last_m_dg.unwrap()].get("rows").unwrap().to_string();
    assert!(rows.contains(r#""g9""#), "{rows}");
    for shards in [2, 4] {
        let many = replies(shards);
        for ((req, got), want) in reqs.iter().zip(&many).zip(&one) {
            same_or_refused(req, got, want, shards);
        }
    }
}

//! Replies keep their bytes: the `query`, `batch_query` and `stats`
//! replies of one fixed history — at one shard and at two, through
//! matches, composes, deltas (tombstoning, paying TF-IDF full
//! re-matches), a batch and a checkpoint — are byte for byte the ones
//! the release before read views (PR 22, d9f7d93) gave.
//! `data/parent_read_replies.txt` is that release's output, with
//! `uptime_ms` and the WAL directory masked; its two-shard lines were
//! regenerated when every source got one home shard (all four matches
//! now hint shard 0, where their sources live), which moved the
//! `shard` annotations, the version stamps and the `stats` breakdown of
//! those lines only (see CHANGES.md). Its ten `stats` lines were
//! regenerated once more when errors became state: they lost the
//! count of muted full-re-match warnings (it hung on the wall clock),
//! each shard's `wal` object gained `checkpoint_failures` and
//! `last_checkpoint_error` (0 and `null` here; the merged two-shard
//! `wal` sums the count), and the server counters gained
//! `accept_errors`. Every other line kept its bytes.

use std::path::Path;
use std::time::Duration;

use moma_core::exec::Parallelism;
use moma_model::{AttrDef, AttrValue, DeltaOp, LogicalSource, ObjectType, SourceRegistry};
use moma_server::{protocol, spawn_sharded, Client, DurabilityPolicy, Engine, Json, Limits};

const TITLES: [&str; 6] = [
    "Generic schema matching with Cupid",
    "A survey of approaches to automatic schema matching",
    "Potters wheel: an interactive data cleaning system",
    "Similarity flooding: a versatile graph matching algorithm",
    "Robust and efficient fuzzy match for online data cleaning",
    "Adaptive duplicate detection using learnable string similarity",
];

fn registry() -> SourceRegistry {
    let mut reg = SourceRegistry::new();
    for (pds, prefix, twist) in [
        ("DBLP", "d", ""),
        ("ACM", "a", " (extended)"),
        ("GS", "g", ""),
    ] {
        let schema = vec![AttrDef::text("title"), AttrDef::year("year")];
        let mut lds = LogicalSource::new(pds, ObjectType::new("Publication"), schema);
        for (i, title) in TITLES.iter().enumerate() {
            let title = AttrValue::Text(format!("{title}{twist}"));
            let year = AttrValue::Year(2000 + i as u16);
            lds.insert_record(
                format!("{prefix}{i}"),
                vec![("title", title), ("year", year)],
            )
            .unwrap();
        }
        reg.register(lds).unwrap();
    }
    reg
}

fn title(text: &str) -> Vec<(String, AttrValue)> {
    vec![("title".into(), AttrValue::Text(text.into()))]
}

fn matcher(name: &str, domain: &str, range: &str, sim: &str, threshold: f64, shard: usize) -> Json {
    let (d, r) = (
        format!("Publication@{domain}"),
        format!("Publication@{range}"),
    );
    let req = protocol::match_request(name, &d, &r, "title", "title", sim, threshold);
    protocol::with_shard(req, shard)
}

/// The history's writes, each followed by the reads to record.
fn history() -> Vec<(Json, bool)> {
    let gs = "Publication@GS";
    let reads_after = |req: Json| (req, true);
    let quiet = |req: Json| (req, false);
    vec![
        quiet(matcher("m_da", "DBLP", "ACM", "trigram", 0.5, 0)),
        quiet(matcher("m_ag", "ACM", "GS", "trigram", 0.5, 0)),
        quiet(matcher("t_ag", "ACM", "GS", "tfidf", 0.1, 0)),
        quiet(matcher("m_gd", "GS", "DBLP", "jaro", 0.8, 0)),
        quiet(protocol::compose_request(
            "c_dg", "m_da", "m_ag", "min", "max",
        )),
        reads_after(protocol::compose_request(
            "c_ad",
            "m_ag",
            "m_gd",
            "avg",
            "relative-left",
        )),
        reads_after(protocol::delta_request(
            gs,
            &[DeltaOp::Add {
                id: "g9".into(),
                fields: title("Generic schema matching with Cupid, revisited"),
            }],
        )),
        reads_after(protocol::delta_request(
            "Publication@DBLP",
            &[DeltaOp::Remove { id: "d2".into() }],
        )),
        quiet(protocol::batch_delta_request(vec![
            protocol::delta_item(
                gs,
                &[DeltaOp::Update {
                    id: "g1".into(),
                    attr: "title".into(),
                    value: Some(AttrValue::Text("Schema matching: a survey".into())),
                }],
            ),
            protocol::delta_item(
                "Publication@ACM",
                &[DeltaOp::Add {
                    id: "a9".into(),
                    fields: title("Fuzzy match for online data cleaning"),
                }],
            ),
        ])),
        reads_after(protocol::checkpoint_request()),
        quiet(protocol::delta_request(
            gs,
            &[DeltaOp::Remove { id: "g9".into() }],
        )),
        reads_after(protocol::delta_request(
            gs,
            &[DeltaOp::Add {
                id: "g10".into(),
                fields: title("Learnable string similarity for duplicate detection"),
            }],
        )),
    ]
}

fn reads() -> Vec<Json> {
    let names = ["m_da", "m_ag", "t_ag", "m_gd", "c_dg", "c_ad"];
    let mut reads: Vec<Json> = names
        .iter()
        .flat_map(|name| {
            [
                protocol::query_request(name, 0, None),
                protocol::query_request(name, 2, Some(0.6)),
            ]
        })
        .collect();
    let items = names.iter().map(|name| protocol::query_item(name, 3, None));
    let items = items
        .chain([protocol::query_item("ghost", 1, None)])
        .collect();
    reads.push(protocol::batch_query_request(items));
    reads.push(protocol::query_request("ghost", 1, None));
    reads.push(protocol::bare_request("stats"));
    reads
}

/// `reply` with its `uptime_ms` zeroed and `wal` (the log root)
/// spelled `<wal>`.
fn masked(reply: &str, wal: &Path) -> String {
    let mut out = reply.replace(&wal.display().to_string(), "<wal>");
    const UPTIME: &str = "\"uptime_ms\":";
    if let Some(at) = out.find(UPTIME) {
        let digits = &out[at + UPTIME.len()..];
        let len = digits.bytes().take_while(u8::is_ascii_digit).count();
        out.replace_range(at + UPTIME.len()..at + UPTIME.len() + len, "0");
    }
    out
}

/// One line per read — `shards`, step, request, reply — over the whole
/// history, at one shard and at two.
fn history_replies() -> String {
    let mut out = String::new();
    for shards in [1, 2] {
        let wal =
            std::env::temp_dir().join(format!("moma_read_replies_{shards}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal);
        let engines = (0..shards)
            .map(|i| {
                let mut e = Engine::new(registry(), Parallelism::sequential());
                let dir = wal.join(format!("shard.{i}"));
                e.wal_create(dir, DurabilityPolicy::default()).unwrap();
                e
            })
            .collect();
        let handle = spawn_sharded(engines, "127.0.0.1:0", Limits::default()).unwrap();
        let mut c =
            Client::connect_retry(&handle.addr.to_string(), Duration::from_secs(5)).unwrap();
        for (step, (write, record)) in history().into_iter().enumerate() {
            let reply = c.call(&write).expect("transport ok");
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "{write}: {reply}"
            );
            if !record {
                continue;
            }
            for read in reads() {
                let reply = c.call(&read).expect("transport ok").to_string();
                out.push_str(&format!(
                    "{shards}\t{step}\t{read}\t{}\n",
                    masked(&reply, &wal)
                ));
            }
        }
        handle.stop();
        let _ = std::fs::remove_dir_all(&wal);
    }
    out
}

#[test]
fn read_replies_are_the_previous_releases_byte_for_byte() {
    let expect = include_str!("data/parent_read_replies.txt");
    let actual = history_replies();
    for (line, (got, want)) in actual.lines().zip(expect.lines()).enumerate() {
        assert_eq!(got, want, "line {}", line + 1);
    }
    assert_eq!(actual.lines().count(), expect.lines().count());
}

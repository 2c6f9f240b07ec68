//! Request/response vocabulary of the serving protocol.
//!
//! Every request is a JSON object with a `"cmd"` field; every response
//! is a JSON object with an `"ok"` boolean (plus `"error"` when it is
//! `false`). This module holds the request **builders** used by clients
//! (`moma_load`, tests, the CLI) and the [`AttrValue`] / delta codecs
//! shared between the engine (decode) and clients (encode), so both
//! sides agree on one wire form.
//!
//! ## Commands
//!
//! The wire-visible rows of the [command table](crate::commands),
//! rendered (a test there fails when the two drift apart):
//!
//! | `cmd` | class | routing | effect |
//! |---|---|---|---|
//! | `ping` | read | shard 0 | liveness check |
//! | `match` | logged write | placed | execute + prime an attribute matcher, store the mapping |
//! | `compose` | logged write | compose plan | store a derived `compose(left, right, f, g)` mapping |
//! | `query` | read | by mapping | read correspondences from a snapshot |
//! | `batch_query` | read | by mapping, per item | N `query` items in one frame, per-item result array |
//! | `delta` | logged write | by source, fan-out | ingest a source delta, patch mappings incrementally |
//! | `batch_delta` | logged write | by source, per item | N `delta` items, one WAL group commit, per-item status array |
//! | `checkpoint` | unlogged write | scatter | publish an atomic state checkpoint, prune covered WAL segments |
//! | `stats` | read | scatter | server/engine counters (per-shard + aggregate when sharded) |
//! | `dump` | read | scatter | persist repository + manifest to a directory |
//! | `shutdown` | coordinator | — | stop the server after responding |
//!
//! *Class* is the lock and durability a command runs under: a `read`
//! takes a shard's read lock against a repository snapshot; a
//! `logged write` is appended to the WAL before it is applied under
//! the write lock; an `unlogged write` is serialized through the write
//! lock but changes the disk layout, not the logical state (so
//! `checkpoint` neither replays nor bumps the command counters); a
//! `coordinator` command is answered by the server itself. *Routing*
//! is how the shard router picks the shard(s) — see [`crate::shard`];
//! with one shard every rule picks that shard. Scattered commands
//! answer per shard when there are several: `checkpoint` lists a
//! per-shard array, `stats` merges, `dump` writes one subtree each.
//!
//! ## Shard routing fields
//!
//! Against a sharded server, requests and responses gain a few fields
//! (all absent/ignored at `--shards 1`, where every reply is byte for
//! byte an embedded [`Engine`](crate::engine::Engine)'s):
//!
//! * `match` may carry a `"shard": N` placement hint (see
//!   [`with_shard`]); it is refused if it contradicts an existing
//!   ownership claim on the domain source.
//! * routed responses are annotated with the `"shard"` (or, for deltas,
//!   `"shards"`) that served them.
//! * `install` is the record a cross-shard `compose` writes to the
//!   installing shard's WAL: the computed rows as literals, so each
//!   shard's log replays independently. It is router-internal — a
//!   logged write that is refused from the wire at every shard count;
//!   see [`install_request`].
//!
//! ## Examples
//!
//! Builders produce the exact wire object; what goes on the socket is
//! `to_string()` of the returned [`Json`] inside a length-prefixed
//! frame (see [`crate::frame`]):
//!
//! ```
//! use moma_server::protocol::{query_request, with_shard, match_request};
//!
//! let q = query_request("DblpGs", 10, Some(0.8));
//! assert_eq!(
//!     q.to_string(),
//!     r#"{"cmd":"query","name":"DblpGs","limit":10,"min_sim":0.8}"#
//! );
//!
//! // Pin a match to shard 2 of a sharded server.
//! let m = with_shard(
//!     match_request("DblpGs", "Publication@DBLP", "Publication@GS",
//!                   "title", "title", "trigram", 0.7),
//!     2,
//! );
//! assert!(m.to_string().ends_with(r#""shard":2}"#));
//! ```
//!
//! ## Batch requests
//!
//! `batch_query` and `batch_delta` carry an `"items"` array whose
//! elements have the same fields as the corresponding single request
//! minus `"cmd"`. The response is `{"ok": true, "count": N, "results":
//! [...]}` where `results[i]` is exactly the response the i-th item
//! would have produced as a single request (`batch_delta` additionally
//! reports the group commit's `first_seq`/`last_seq`). A `batch_delta`
//! is logged as N ordinary `delta` WAL records in one fsync'd append,
//! so replay is bit-identical to the same deltas sent singly.
//!
//! ## Overload responses
//!
//! A server past its admission limits answers with `"ok": false` plus a
//! marker field and a retry hint instead of queueing unboundedly:
//! `{"busy": true, "retry_after_ms": N}` when the connection cap is
//! reached (sent once, then the connection is closed) and
//! `{"overloaded": true, "retry_after_ms": N}` when the per-class
//! in-flight budget is exhausted (the connection stays usable).
//!
//! `AttrValue`s travel as `{"t": kind, "v": value}` with kinds `text`,
//! `list`, `int`, `year`, `real`.

use moma_model::{AttrValue, DeltaOp, ModelError, SourceDelta, SourceRegistry};

use crate::json::Json;

/// Encode an [`AttrValue`] as `{"t": ..., "v": ...}`.
pub fn attr_value_to_json(v: &AttrValue) -> Json {
    let (t, v) = match v {
        AttrValue::Text(s) => ("text", Json::Str(s.clone())),
        AttrValue::TextList(items) => (
            "list",
            Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
        AttrValue::Int(n) => ("int", Json::Num(*n as f64)),
        AttrValue::Year(y) => ("year", Json::Num(*y as f64)),
        AttrValue::Real(x) => ("real", Json::Num(*x)),
    };
    Json::obj(vec![("t", Json::Str(t.into())), ("v", v)])
}

/// Decode an [`AttrValue`] from its wire form.
pub fn attr_value_from_json(j: &Json) -> Result<AttrValue, String> {
    let t = j.str_field("t").ok_or("attr value missing `t`")?;
    let v = j.get("v").ok_or("attr value missing `v`")?;
    match t {
        "text" => Ok(AttrValue::Text(
            v.as_str().ok_or("text value must be a string")?.to_owned(),
        )),
        "list" => {
            let items = v.as_arr().ok_or("list value must be an array")?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(
                    item.as_str()
                        .ok_or("list items must be strings")?
                        .to_owned(),
                );
            }
            Ok(AttrValue::TextList(out))
        }
        "int" => Ok(AttrValue::Int(
            v.as_f64().ok_or("int value must be a number")? as i64,
        )),
        "year" => {
            let y = v.as_f64().ok_or("year value must be a number")?;
            if !(0.0..=u16::MAX as f64).contains(&y) {
                return Err(format!("year {y} out of range"));
            }
            Ok(AttrValue::Year(y as u16))
        }
        "real" => Ok(AttrValue::Real(
            v.as_f64().ok_or("real value must be a number")?,
        )),
        other => Err(format!("unknown attr kind `{other}`")),
    }
}

fn op_to_json(op: &DeltaOp) -> Json {
    match op {
        DeltaOp::Add { id, fields } => Json::obj(vec![
            ("op", Json::Str("add".into())),
            ("id", Json::Str(id.clone())),
            (
                "fields",
                Json::Obj(
                    fields
                        .iter()
                        .map(|(k, v)| (k.clone(), attr_value_to_json(v)))
                        .collect(),
                ),
            ),
        ]),
        DeltaOp::Remove { id } => Json::obj(vec![
            ("op", Json::Str("remove".into())),
            ("id", Json::Str(id.clone())),
        ]),
        DeltaOp::Update { id, attr, value } => Json::obj(vec![
            ("op", Json::Str("update".into())),
            ("id", Json::Str(id.clone())),
            ("attr", Json::Str(attr.clone())),
            (
                "value",
                match value {
                    Some(v) => attr_value_to_json(v),
                    None => Json::Null,
                },
            ),
        ]),
    }
}

fn op_from_json(j: &Json) -> Result<DeltaOp, String> {
    let op = j.str_field("op").ok_or("delta op missing `op`")?;
    let id = j.str_field("id").ok_or("delta op missing `id`")?.to_owned();
    match op {
        "add" => {
            let Some(Json::Obj(fields)) = j.get("fields") else {
                return Err("add op needs a `fields` object".into());
            };
            let mut out = Vec::with_capacity(fields.len());
            for (k, v) in fields {
                out.push((k.clone(), attr_value_from_json(v)?));
            }
            Ok(DeltaOp::Add { id, fields: out })
        }
        "remove" => Ok(DeltaOp::Remove { id }),
        "update" => {
            let attr = j
                .str_field("attr")
                .ok_or("update op missing `attr`")?
                .to_owned();
            let value = match j.get("value") {
                None | Some(Json::Null) => None,
                Some(v) => Some(attr_value_from_json(v)?),
            };
            Ok(DeltaOp::Update { id, attr, value })
        }
        other => Err(format!("unknown delta op `{other}`")),
    }
}

/// Build a `delta` request from a source name and its operations.
pub fn delta_request(lds_name: &str, ops: &[DeltaOp]) -> Json {
    Json::obj(vec![
        ("cmd", Json::Str("delta".into())),
        ("lds", Json::Str(lds_name.into())),
        ("ops", Json::Arr(ops.iter().map(op_to_json).collect())),
    ])
}

/// The error for a `delta` naming a source the registry does not have
/// — worded once for the engine and the shard router.
pub(crate) fn unknown_source(name: &str, e: &ModelError) -> String {
    format!("unknown source `{name}`: {e}")
}

/// Decode the `lds`/`ops` fields of a `delta` request against a
/// registry (resolving the source name to its handle).
pub fn parse_delta(registry: &SourceRegistry, req: &Json) -> Result<SourceDelta, String> {
    let name = req.str_field("lds").ok_or("delta request missing `lds`")?;
    let lds = registry
        .resolve(name)
        .map_err(|e| unknown_source(name, &e))?;
    let ops_json = req
        .get("ops")
        .and_then(Json::as_arr)
        .ok_or("delta request missing `ops` array")?;
    let mut ops = Vec::with_capacity(ops_json.len());
    for op in ops_json {
        ops.push(op_from_json(op)?);
    }
    Ok(SourceDelta { lds, ops })
}

/// Build a `match` request.
#[allow(clippy::too_many_arguments)]
pub fn match_request(
    name: &str,
    domain: &str,
    range: &str,
    domain_attr: &str,
    range_attr: &str,
    sim: &str,
    threshold: f64,
) -> Json {
    Json::obj(vec![
        ("cmd", Json::Str("match".into())),
        ("name", Json::Str(name.into())),
        ("domain", Json::Str(domain.into())),
        ("range", Json::Str(range.into())),
        ("domain_attr", Json::Str(domain_attr.into())),
        ("range_attr", Json::Str(range_attr.into())),
        ("sim", Json::Str(sim.into())),
        ("threshold", Json::Num(threshold)),
    ])
}

/// Build a `compose` request (`f`/`g` as in `moma run` scripts, e.g.
/// `min` / `max` / `relative-left`).
pub fn compose_request(name: &str, left: &str, right: &str, f: &str, g: &str) -> Json {
    Json::obj(vec![
        ("cmd", Json::Str("compose".into())),
        ("name", Json::Str(name.into())),
        ("left", Json::Str(left.into())),
        ("right", Json::Str(right.into())),
        ("f", Json::Str(f.into())),
        ("g", Json::Str(g.into())),
    ])
}

/// Build a `query` request. `limit == 0` means "all rows".
pub fn query_request(name: &str, limit: u64, min_sim: Option<f64>) -> Json {
    let mut fields = vec![
        ("cmd".to_owned(), Json::Str("query".into())),
        ("name".to_owned(), Json::Str(name.into())),
        ("limit".to_owned(), Json::Num(limit as f64)),
    ];
    if let Some(s) = min_sim {
        fields.push(("min_sim".to_owned(), Json::Num(s)));
    }
    Json::Obj(fields)
}

/// One item of a [`batch_query_request`]: the fields of a
/// [`query_request`] minus `cmd`. `limit == 0` means "all rows".
pub fn query_item(name: &str, limit: u64, min_sim: Option<f64>) -> Json {
    let mut fields = vec![
        ("name".to_owned(), Json::Str(name.into())),
        ("limit".to_owned(), Json::Num(limit as f64)),
    ];
    if let Some(s) = min_sim {
        fields.push(("min_sim".to_owned(), Json::Num(s)));
    }
    Json::Obj(fields)
}

/// Build a `batch_query` request from [`query_item`]s.
pub fn batch_query_request(items: Vec<Json>) -> Json {
    Json::obj(vec![
        ("cmd", Json::Str("batch_query".into())),
        ("items", Json::Arr(items)),
    ])
}

/// One item of a [`batch_delta_request`]: the fields of a
/// [`delta_request`] minus `cmd`.
pub fn delta_item(lds_name: &str, ops: &[DeltaOp]) -> Json {
    Json::obj(vec![
        ("lds", Json::Str(lds_name.into())),
        ("ops", Json::Arr(ops.iter().map(op_to_json).collect())),
    ])
}

/// Build a `batch_delta` request from [`delta_item`]s.
pub fn batch_delta_request(items: Vec<Json>) -> Json {
    Json::obj(vec![
        ("cmd", Json::Str("batch_delta".into())),
        ("items", Json::Arr(items)),
    ])
}

/// Attach a shard placement hint to a request (meaningful on `match`
/// against a sharded server; ignored everywhere else, including at
/// `--shards 1`).
///
/// ```
/// use moma_server::protocol::{bare_request, with_shard};
/// let req = with_shard(bare_request("ping"), 3);
/// assert_eq!(req.to_string(), r#"{"cmd":"ping","shard":3}"#);
/// ```
pub fn with_shard(req: Json, shard: usize) -> Json {
    req.set_field("shard", Json::Uint(shard as u64))
}

/// Build an `install` request: store a mapping as a literal table of
/// `[domain_idx, range_idx, sim]` rows. This is the record a
/// cross-shard `compose` writes to the installing shard's WAL — rows,
/// not a recipe, so the shard's log replays without consulting any
/// other shard. Servers refuse it from the wire; an embedded
/// [`Engine`](crate::engine::Engine) executes it (that is replay).
pub fn install_request(
    name: &str,
    domain: &str,
    range: &str,
    rows: &[(u32, u32, f64)],
    assoc: Option<&str>,
) -> Json {
    let mut fields = vec![
        ("cmd".to_owned(), Json::Str("install".into())),
        ("name".to_owned(), Json::Str(name.into())),
        ("domain".to_owned(), Json::Str(domain.into())),
        ("range".to_owned(), Json::Str(range.into())),
        (
            "rows".to_owned(),
            Json::Arr(
                rows.iter()
                    .map(|&(d, r, sim)| {
                        Json::Arr(vec![
                            Json::Num(d as f64),
                            Json::Num(r as f64),
                            Json::Num(sim),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(t) = assoc {
        fields.push(("assoc".to_owned(), Json::Str(t.into())));
    }
    Json::Obj(fields)
}

/// Build a bare request carrying only a command name.
pub fn bare_request(cmd: &str) -> Json {
    Json::obj(vec![("cmd", Json::Str(cmd.into()))])
}

/// Build a `checkpoint` request.
pub fn checkpoint_request() -> Json {
    bare_request("checkpoint")
}

/// Build a `dump` request.
pub fn dump_request(dir: &str) -> Json {
    Json::obj(vec![
        ("cmd", Json::Str("dump".into())),
        ("dir", Json::Str(dir.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_value_roundtrip() {
        let values = [
            AttrValue::Text("Cupid: schema matching".into()),
            AttrValue::TextList(vec!["A. Thor".into(), "E. Rahm".into()]),
            AttrValue::Int(-42),
            AttrValue::Year(2007),
            AttrValue::Real(0.625),
        ];
        for v in values {
            let wire = attr_value_to_json(&v).to_string();
            let back = attr_value_from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, v, "wire: {wire}");
        }
    }

    #[test]
    fn delta_roundtrip_through_registry() {
        use moma_model::{AttrDef, LogicalSource, ObjectType};
        let mut reg = SourceRegistry::new();
        let lds = LogicalSource::new(
            "GS",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title")],
        );
        let id = reg.register(lds).unwrap();
        let ops = vec![
            DeltaOp::Add {
                id: "g1".into(),
                fields: vec![("title".into(), AttrValue::Text("MOMA".into()))],
            },
            DeltaOp::Update {
                id: "g1".into(),
                attr: "title".into(),
                value: None,
            },
            DeltaOp::Remove { id: "g1".into() },
        ];
        let req = delta_request("Publication@GS", &ops);
        let wire = req.to_string();
        let parsed = parse_delta(&reg, &Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(parsed.lds, id);
        assert_eq!(parsed.ops, ops);
    }
}

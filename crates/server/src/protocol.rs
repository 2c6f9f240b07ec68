//! Request/response vocabulary of the serving protocol.
//!
//! Every request is a JSON object with a `"cmd"` field; every response
//! is a JSON object with an `"ok"` boolean (plus `"error"` when it is
//! `false`). This module holds the request **builders** used by clients
//! ([`Client`](crate::Client), the tests, the benchmark) and the
//! [`AttrValue`] / delta codecs shared between the server's decoder
//! ([`Request`](crate::request::Request)) and clients (encode), so both
//! sides agree on one wire form.
//!
//! Fields are strict. A required field that is missing or of another
//! type refuses the request (``match request missing `name` ``); an
//! optional one that is absent takes its default, and one that is
//! present but malformed refuses it, naming the field (``match request
//! `threshold` must be a number, got "0.9"``) — a default never stands
//! in for a malformed value. A batch with one item that does not decode
//! is refused whole, naming the item. Such a request is refused before
//! it is planned, logged or counted, at every shard count.
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
//! | `compose` | logged write | with its inputs | store a derived `compose(left, right, f, g)` mapping |
//! | `query` | read | by mapping | read correspondences from a snapshot |
//! | `batch_query` | read | by mapping, per item | N `query` items in one frame, per-item result array |
//! | `delta` | logged write | by source home | ingest a source delta, patch mappings incrementally |
//! | `batch_delta` | logged write | by source home, per item | N `delta` items, one WAL group commit, per-item status array |
//! | `checkpoint` | unlogged write | scatter | publish an atomic state checkpoint, prune covered WAL segments |
//! | `stats` | read | scatter | server/engine counters (per-shard + aggregate when sharded) |
//! | `dump` | unlogged write | scatter | persist repository + manifest to a directory |
//! | `shutdown` | coordinator | — | stop the server after responding |
//!
//! *Class* is the lock and durability a command runs under: a `read`
//! is answered from the shard's published read view and takes no
//! engine lock; a `logged write` is appended to the WAL before it is
//! applied under the write lock; an `unlogged write` is serialized
//! through the write lock but changes the disk layout or writes files,
//! not the logical state (so `checkpoint` and `dump` neither replay nor
//! bump the command counters); a `coordinator` command is answered by
//! the server itself. *Routing*
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
//!   [`with_shard`]); it places a match neither of whose sources has a
//!   home shard yet, and it is refused if it contradicts an existing
//!   home, or if it is no non-negative integer.
//! * routed responses are annotated with the `"shard"` (or, for deltas,
//!   `"shards"`) that served them.
//! * `install` stores a literal mapping table. Earlier releases wrote
//!   it to a shard's WAL for a compose whose inputs lived on two
//!   shards; replay still runs it, but it is refused from the wire at
//!   every shard count; see [`install_request`].
//! * `repl` marked the replica copies of a `delta` that earlier
//!   releases fanned out to every shard hosting its source: replay
//!   patches with them but counts them as `commands.repl_delta`, not
//!   `commands.delta`. A `delta` or `batch_delta` item carrying a
//!   `repl` member is refused from the wire at every shard count; WAL
//!   replay and an embedded [`Engine`](crate::engine::Engine) accept
//!   it.
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
//! reports the group commit's `first_seq`/`last_seq`); an item that
//! does not decode refuses the whole batch. A `batch_delta`
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
//! `AttrValue`s travel as `{"t": kind, "v": value}`; an `int` is an
//! exact integer literal over all of `i64`.
//!
//! ## Accepted names
//!
//! A field that names a matcher's measure or plan, an operator function
//! or an attribute kind is parsed — ignoring ASCII case — and printed by
//! the type it names (`moma_core::matchers::MatcherSim` over
//! `moma_simstring::SimFn`, `moma_core::blocking::Blocking`,
//! `moma_core::ops`, `moma_model::AttrKind`): the same `NAMES` tables
//! iFuice scripts and TSV headers go through, rendered here (a test
//! below fails when they drift). A value's first spelling is the
//! canonical one, which is what replies, WAL records and checkpoints
//! carry.
//!
//! | field | type | accepted names |
//! |---|---|---|
//! | `match` `sim` | `MatcherSim` | `trigram` = `ngram`, `levenshtein` = `editdistance`, `jaro`, `jarowinkler`, `tokenjaccard` = `jaccard`, `affix`, `personname` = `name`, `qgram:Q≤16`, `qgramdice:Q≤16`, `qgramjaccard:Q≤16`, `qgramcosine:Q≤16`, `qgramoverlap:Q≤16`, `year[:W]`, `tfidf` |
//! | `match` `blocking` | `Blocking` | `all-pairs` = `allpairs`, `trigram-prefix` = `trigramprefix` = `prefix`, `threshold` |
//! | `compose` / recipe `f` | `PathCombine` | `avg` = `average`, `min`, `max`, `product`, `weighted:W` |
//! | `compose` / recipe `g` | `PathAgg` | `avg` = `average`, `min`, `max`, `relative`, `relative-left` = `relativeleft`, `relative-right` = `relativeright` |
//! | `merge` recipe `f` | `MergeFn` | `avg` = `average`, `min`, `max`, `weighted:W1,W2,…`, `prefer:I` |
//! | `merge` recipe `missing` | `MissingPolicy` | `ignore`, `zero` |
//! | value `t`, schema `kind` | `AttrKind` | `text` = `str` = `string`, `list` = `textlist`, `int` = `integer`, `year`, `real` = `float` |

use std::fmt;

use moma_model::{AttrKind, AttrValue, DeltaOp, ModelError, SourceDelta, SourceRegistry};

use crate::json::Json;
use crate::request::Delta;

/// `{"ok": false, "error": msg}`.
pub fn err_response(msg: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(msg.into())),
    ])
}

/// A handler's outcome as a response: its reply, or its error wrapped
/// by [`err_response`].
pub(crate) fn respond(result: Result<Json, String>) -> Json {
    result.unwrap_or_else(|e| err_response(&e))
}

/// The `unknown mapping` error, listing the `known` names — worded
/// once for the state machine (which knows its repository) and the
/// shard router (which knows every shard's).
pub(crate) fn unknown_mapping<'a>(name: &str, known: impl Iterator<Item = &'a str>) -> String {
    let known = known.collect::<Vec<_>>().join(", ");
    let known = Some(known).filter(|k| !k.is_empty());
    format!(
        "unknown mapping `{name}` (have: {})",
        known.as_deref().unwrap_or("none")
    )
}

/// Encode an [`AttrValue`] as `{"t": ..., "v": ...}`.
pub fn attr_value_to_json(v: &AttrValue) -> Json {
    let body = match v {
        AttrValue::Text(s) => Json::Str(s.clone()),
        AttrValue::TextList(items) => {
            Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
        }
        AttrValue::Int(n) => Json::int(*n),
        AttrValue::Year(y) => Json::Num(*y as f64),
        AttrValue::Real(x) => Json::Num(*x),
    };
    Json::obj(vec![("t", Json::Str(v.kind().to_string())), ("v", body)])
}

/// Decode an [`AttrValue`] from its wire form.
pub fn attr_value_from_json(j: &Json) -> Result<AttrValue, String> {
    let kind: AttrKind = j.need("attr value", "t", Json::as_str)?.parse()?;
    let v = j.need("attr value", "v", Some)?;
    let wrong = |expected: &str| format!("{kind} value must be {expected}");
    Ok(match kind {
        AttrKind::Text => AttrValue::Text(v.as_str().ok_or_else(|| wrong("a string"))?.to_owned()),
        AttrKind::TextList => {
            let items = v.as_arr().ok_or_else(|| wrong("an array"))?;
            let items = items.iter().map(|item| item.as_str().map(str::to_owned));
            let items: Option<Vec<String>> = items.collect();
            AttrValue::TextList(items.ok_or("list items must be strings")?)
        }
        AttrKind::Int => AttrValue::Int(v.as_i64().ok_or_else(|| wrong("an integer"))?),
        AttrKind::Year => {
            let y = v.as_f64().ok_or_else(|| wrong("a number"))?;
            if !(0.0..=u16::MAX as f64).contains(&y) {
                return Err(format!("year {y} out of range"));
            }
            AttrValue::Year(y as u16)
        }
        AttrKind::Real => AttrValue::Real(v.as_f64().ok_or_else(|| wrong("a number"))?),
    })
}

fn op_to_json(op: &DeltaOp) -> Json {
    let text = |s: &str| Json::Str(s.into());
    let (op, id, rest) = match op {
        DeltaOp::Add { id, fields } => {
            let fields = fields
                .iter()
                .map(|(k, v)| (k.clone(), attr_value_to_json(v)));
            ("add", id, vec![("fields", Json::Obj(fields.collect()))])
        }
        DeltaOp::Remove { id } => ("remove", id, vec![]),
        DeltaOp::Update { id, attr, value } => {
            let value = value.as_ref().map_or(Json::Null, attr_value_to_json);
            ("update", id, vec![("attr", text(attr)), ("value", value)])
        }
    };
    let head = [("op", text(op)), ("id", text(id))];
    Json::obj(head.into_iter().chain(rest).collect())
}

pub(crate) fn op_from_json(j: &Json) -> Result<DeltaOp, String> {
    let op = j.need("delta op", "op", Json::as_str)?;
    let id = j.need("delta op", "id", Json::as_str)?.to_owned();
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
            let attr = j.need("update op", "attr", Json::as_str)?.to_owned();
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
    request("delta", delta_item(lds_name, ops))
}

/// A request of command `cmd`: its `"cmd"` member, then `fields`'.
fn request(cmd: &str, fields: Json) -> Json {
    let mut members = vec![("cmd".to_owned(), Json::Str(cmd.into()))];
    if let Json::Obj(fields) = fields {
        members.extend(fields);
    }
    Json::Obj(members)
}

/// The error for a `delta` naming a source the registry does not have
/// — worded once for the engine and the shard router.
pub(crate) fn unknown_source(name: &str, e: &ModelError) -> String {
    format!("unknown source `{name}`: {e}")
}

/// Decode the `lds`/`ops` fields of a `delta` request against a
/// registry (resolving the source name to its handle).
pub fn parse_delta(registry: &SourceRegistry, req: &Json) -> Result<SourceDelta, String> {
    let delta = Delta::of_json(req)?;
    let lds = registry.resolve(&delta.lds);
    let lds = lds.map_err(|e| unknown_source(&delta.lds, &e))?;
    Ok(SourceDelta {
        lds,
        ops: delta.ops,
    })
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
    request("query", query_item(name, limit, min_sim))
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
    request("batch_query", Json::obj(vec![("items", Json::Arr(items))]))
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
    request("batch_delta", Json::obj(vec![("items", Json::Arr(items))]))
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
/// `[domain_idx, range_idx, sim]` rows — the record earlier releases
/// logged for a compose whose inputs lived on two shards. Servers
/// refuse it from the wire; an embedded
/// [`Engine`](crate::engine::Engine) executes it (that is replay).
pub fn install_request(
    name: &str,
    domain: &str,
    range: &str,
    rows: &[(u32, u32, f64)],
    assoc: Option<&str>,
) -> Json {
    let install = Json::obj(vec![
        ("cmd", Json::Str("install".into())),
        ("name", Json::Str(name.into())),
        ("domain", Json::Str(domain.into())),
        ("range", Json::Str(range.into())),
        ("rows", rows_to_json(rows.iter().copied())),
    ]);
    match assoc {
        Some(t) => install.set_field("assoc", Json::Str(t.into())),
        None => install,
    }
}

/// Encode mapping rows as `[domain_idx, range_idx, sim]` triples — the
/// literal table of an `install` record and of a checkpointed mapping.
pub fn rows_to_json(rows: impl Iterator<Item = (u32, u32, f64)>) -> Json {
    let triple = |(d, r, sim)| {
        Json::Arr(vec![
            Json::Num(d as f64),
            Json::Num(r as f64),
            Json::Num(sim),
        ])
    };
    Json::Arr(rows.map(triple).collect())
}

/// A `[domain, range, sim]` row of [`rows_to_json`]: indices that fit
/// `u32` and a finite sim.
pub(crate) fn triple(row: &Json) -> Option<(u32, u32, f64)> {
    let index = |j: &Json| u32::try_from(j.as_u64()?).ok();
    let [d, r, sim] = row.as_arr()? else {
        return None;
    };
    let sim = sim.as_f64().filter(|s| s.is_finite())?;
    Some((index(d)?, index(r)?, sim))
}

/// One persisted row, decoded and checked against its sources' arenas
/// (`domain_len` / `range_len`). Persisted rows are outside input: a
/// truncated or dangling index would otherwise surface much later, as
/// an empty id in a `query`.
pub(crate) fn row_from_json(
    what: &dyn fmt::Display,
    row: &Json,
    domain_len: usize,
    range_len: usize,
) -> Result<(u32, u32, f64), String> {
    let inside =
        |&(d, r, _): &(u32, u32, f64)| (d as usize) < domain_len && (r as usize) < range_len;
    let outside = || outside_arenas(what, row, domain_len, range_len);
    triple(row).filter(inside).ok_or_else(outside)
}

/// The refusal of a row outside its sources' arenas.
pub(crate) fn outside_arenas(
    what: &dyn fmt::Display,
    row: &dyn fmt::Display,
    domain_len: usize,
    range_len: usize,
) -> String {
    format!(
        "{what}: row {row} is not a [domain, range, sim] triple of indices inside \
         the sources' arenas ({domain_len} / {range_len}) and a finite sim"
    )
}

/// Build a bare request carrying only a command name.
pub fn bare_request(cmd: &str) -> Json {
    request(cmd, Json::Null)
}

/// Build a `checkpoint` request.
pub fn checkpoint_request() -> Json {
    bare_request("checkpoint")
}

/// Build a `dump` request.
pub fn dump_request(dir: &str) -> Json {
    request("dump", Json::obj(vec![("dir", Json::Str(dir.into()))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_core::blocking::Blocking;
    use moma_core::matchers::MatcherSim;
    use moma_core::ops::{MergeFn, MissingPolicy, PathAgg, PathCombine};
    use moma_simstring::SimFn;

    /// One cell of the accepted-names table: the spellings of a `NAMES`
    /// table grouped by value (`a` = `b`), then what else the type's
    /// `unknown …` error lists beside them (parameterized forms, and
    /// `tfidf` beside the `SimFn` names).
    fn names_cell<T: PartialEq, U>(names: &[(&str, T)], unknown: Result<U, String>) -> String {
        let mut groups: Vec<(&T, Vec<String>)> = Vec::new();
        for (name, value) in names {
            let spelled = format!("`{name}`");
            match groups.iter_mut().find(|(v, _)| *v == value) {
                Some((_, group)) => group.push(spelled),
                None => groups.push((value, vec![spelled])),
            }
        }
        let mut cells: Vec<String> = groups.iter().map(|(_, g)| g.join(" = ")).collect();
        let error = unknown.err().expect("`?` names nothing");
        let listed = error.split_once('(').map_or("", |(_, list)| list);
        let listed = listed.trim_end_matches(')').split('/');
        let unnamed = |entry: &&str| names.iter().all(|(name, _)| name != entry);
        let forms = listed.filter(|entry| !entry.is_empty()).filter(unnamed);
        cells.extend(forms.map(|form| format!("`{form}`")));
        cells.join(", ")
    }

    /// Docs drift: the accepted-names table in the module docs is the
    /// types' `NAMES` tables, rendered.
    #[test]
    fn docs_list_the_accepted_names() {
        let expect = [
            (
                "MatcherSim",
                names_cell(SimFn::NAMES, "?".parse::<MatcherSim>()),
            ),
            (
                "Blocking",
                names_cell(Blocking::NAMES, "?".parse::<Blocking>()),
            ),
            (
                "PathCombine",
                names_cell(PathCombine::NAMES, "?".parse::<PathCombine>()),
            ),
            (
                "PathAgg",
                names_cell(PathAgg::NAMES, "?".parse::<PathAgg>()),
            ),
            (
                "MergeFn",
                names_cell(MergeFn::NAMES, "?".parse::<MergeFn>()),
            ),
            (
                "MissingPolicy",
                names_cell(MissingPolicy::NAMES, "?".parse::<MissingPolicy>()),
            ),
            (
                "AttrKind",
                names_cell(AttrKind::NAMES, "?".parse::<AttrKind>()),
            ),
        ];
        let docs: Vec<&str> = include_str!("protocol.rs")
            .lines()
            .skip_while(|line| *line != "//! | field | type | accepted names |")
            .skip(2)
            .take_while(|line| line.starts_with("//! |"))
            .collect();
        assert_eq!(docs.len(), expect.len(), "{docs:#?}");
        for (row, (ty, names)) in docs.iter().zip(expect) {
            let cells = format!("| `{ty}` | {names} |");
            assert!(row.ends_with(&cells), "docs row {row:?} vs {cells:?}");
        }
    }

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

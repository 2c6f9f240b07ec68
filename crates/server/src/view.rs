//! The read side of a shard: the immutable [`ReadView`] its engine
//! publishes after every write, and the handlers of every read command.
//!
//! A reader never waits for a writer. At the end of each write-lock
//! hold — after the WAL fsync and the apply — the
//! [`Engine`](crate::engine::Engine) builds a new view of its
//! [`State`] and swaps it into the shard's [`ViewSlot`]; `query`,
//! `batch_query`, `stats` and `ping` clone the slot's `Arc` and answer
//! from that, holding no engine lock. Because a view is built under the
//! write lock, publication order is apply order, and whatever a view
//! shows is applied and durable. A view is one point in time: its
//! repository snapshot is captured in one piece
//! ([`MappingRepository::snapshot`]), so a derived mapping's recorded
//! input versions always equal its inputs' versions in the same view
//! (`tests/snapshot_isolation.rs`).
//!
//! Publishing costs O(mappings + sources + instances added since the
//! previous view): mapping tables are the repository's `Arc`s, and a
//! source's instance ids live in chunks shared between successive views
//! — only the partial last chunk is copied, plus the new ids.
//!
//! [`MappingRepository::snapshot`]: moma_core::MappingRepository::snapshot

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use moma_core::SnapshotEntry;
use moma_model::LogicalSource;

use crate::commands;
use crate::json::{self, Json};
use crate::protocol::{err_response, respond, unknown_mapping};
use crate::request::{Query, Request};
use crate::state::{CommandCounts, State};

/// Ids per shared chunk of an [`Ids`] column.
const CHUNK: usize = 256;

/// A source's instance ids in arena order (kept for the sources some
/// mapping reads). Arenas are append-only and an index never changes
/// its id, so full chunks are shared by `Arc` between successive views.
#[derive(Debug, Clone, Default)]
struct Ids {
    chunks: Vec<Arc<[Arc<str>]>>,
    len: usize,
}

impl Ids {
    /// This column grown to `lds`'s arena, which must extend the one
    /// it was built from: full chunks shared, the partial last one
    /// copied and extended.
    fn grown(&self, lds: &LogicalSource) -> Ids {
        let len = lds.len();
        if len == self.len {
            return self.clone();
        }
        let mut chunks = self.chunks.clone();
        let mut tail = match self.len % CHUNK {
            0 => Vec::with_capacity(CHUNK),
            _ => chunks.pop().expect("a partial last chunk").to_vec(),
        };
        for idx in self.len..len {
            let inst = lds.get(idx as u32).expect("index inside the arena");
            tail.push(Arc::from(inst.id.as_str()));
            if tail.len() == CHUNK {
                chunks.push(std::mem::replace(&mut tail, Vec::with_capacity(CHUNK)).into());
            }
        }
        if !tail.is_empty() {
            chunks.push(tail.into());
        }
        Ids { chunks, len }
    }

    fn get(&self, idx: u32) -> Option<&str> {
        let idx = idx as usize;
        self.chunks
            .get(idx / CHUNK)?
            .get(idx % CHUNK)
            .map(|id| &**id)
    }
}

/// One source as `stats` and `query` see it.
#[derive(Debug, Clone)]
struct SourceView {
    name: String,
    len: usize,
    live: usize,
    ids: Ids,
}

/// What `stats` reports of a mapping beyond its snapshot entry.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    stale: bool,
    /// `(incremental, full_rematches)` of a primed matcher.
    matcher: Option<(bool, u64)>,
}

/// The engine's WAL position, as `stats` reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalPosition {
    /// Last durable record's sequence number.
    pub seq: u64,
    /// Last sequence number covered by a published checkpoint.
    pub checkpoint_seq: u64,
    /// Live segment files.
    pub segments: u64,
    /// The log's directory.
    pub dir: String,
    /// Checkpoints published by [`Engine::run_auto_checkpoint`]. Not
    /// in the engine's `stats` object: the server sums it over its
    /// shards into its own counters.
    ///
    /// [`Engine::run_auto_checkpoint`]: crate::engine::Engine::run_auto_checkpoint
    pub auto_checkpoints: u64,
    /// Background checkpoints that failed (not durable).
    pub checkpoint_failures: u64,
    /// The last of them, as `(seq, error)`: the WAL seq it would have
    /// covered and why it failed; `None` until the first failure.
    pub last_checkpoint_error: Option<(u64, String)>,
}

impl WalPosition {
    fn to_json(&self) -> Json {
        let lag = self.seq.saturating_sub(self.checkpoint_seq);
        let last_error = self
            .last_checkpoint_error
            .as_ref()
            .map_or(Json::Null, |(seq, e)| {
                Json::obj(vec![
                    ("seq", Json::Uint(*seq)),
                    ("error", Json::Str(e.clone())),
                ])
            });
        Json::obj(vec![
            ("seq", Json::Uint(self.seq)),
            ("checkpoint_seq", Json::Uint(self.checkpoint_seq)),
            ("lag", Json::Uint(lag)),
            ("segments", Json::Uint(self.segments)),
            ("dir", Json::Str(self.dir.clone())),
            ("checkpoint_failures", Json::Uint(self.checkpoint_failures)),
            ("last_checkpoint_error", last_error),
        ])
    }
}

/// Everything the read commands of one shard answer from, at one point
/// in time. See the module docs.
#[derive(Debug)]
pub struct ReadView {
    /// The repository snapshot, sorted by name.
    entries: Vec<SnapshotEntry>,
    /// Per entry, in the same order.
    meta: Vec<EntryMeta>,
    /// By [`LdsId`](moma_model::LdsId).
    sources: Vec<SourceView>,
    commands: CommandCounts,
    wal: Option<WalPosition>,
}

impl ReadView {
    /// The view of `state`; `base`, the previous view of the same
    /// arenas, lends its id chunks.
    pub(crate) fn build(
        state: &State,
        base: Option<&ReadView>,
        wal: Option<WalPosition>,
    ) -> ReadView {
        let entries = state.repository().snapshot();
        let version_of = |name: &str| {
            let found = entries.binary_search_by(|e| e.name.as_str().cmp(name));
            found.ok().map(|i| entries[i].version)
        };
        let meta = entries
            .iter()
            .map(|e| EntryMeta {
                // `MappingRepository::is_stale`, read off the snapshot.
                stale: e.derived
                    && e.dep_versions
                        .iter()
                        .any(|(d, v)| version_of(d) != Some(*v)),
                matcher: state
                    .primed(&e.name)
                    .map(|m| (m.is_incremental(), m.full_rematches())),
            })
            .collect();
        let sources = state.registry().iter().map(|(id, lds)| {
            // Only a mapping's rows are ever resolved to ids.
            let mapped = entries
                .iter()
                .any(|e| e.mapping.domain == id || e.mapping.range == id);
            let base = base.and_then(|b| b.sources.get(id.0 as usize));
            let ids = match (mapped, base) {
                (false, _) => Ids::default(),
                (true, None) => Ids::default().grown(lds),
                (true, Some(b)) => b.ids.grown(lds),
            };
            SourceView {
                name: lds.name(),
                len: lds.len(),
                live: lds.live_len(),
                ids,
            }
        });
        let sources = sources.collect();
        ReadView {
            entries,
            meta,
            sources,
            commands: state.command_counts(),
            wal,
        }
    }

    /// The view of `state` alone: no WAL, nothing borrowed.
    #[cfg(test)]
    pub(crate) fn of(state: &State) -> ReadView {
        ReadView::build(state, None, None)
    }

    /// Answer a read request: the one dispatch of the read commands.
    pub fn answer(&self, req: &Request) -> Json {
        let command = req.command();
        respond(match req {
            Request::Ping => Ok(Json::obj(vec![("ok", Json::Bool(true))])),
            Request::Query(query) => Ok(self.query(query)),
            Request::BatchQuery(items) => Ok(ReadView::batch(
                items.iter().map(|q| self.query(q)).collect(),
            )),
            Request::Stats => Ok(self.stats()),
            _ if command.class.takes_write_lock() => {
                Err(format!("`{}` must go through the write path", command.name))
            }
            _ => Err(commands::unknown_command(command.name)),
        })
    }

    /// The repository snapshot, sorted by name.
    pub fn snapshot(&self) -> &[SnapshotEntry] {
        &self.entries
    }

    /// The snapshot entry of mapping `name`.
    pub fn entry(&self, name: &str) -> Option<&SnapshotEntry> {
        let found = self.entries.binary_search_by(|e| e.name.as_str().cmp(name));
        found.ok().map(|i| &self.entries[i])
    }

    /// The WAL position this view was published at (`None` without a
    /// WAL).
    pub fn wal(&self) -> Option<&WalPosition> {
        self.wal.as_ref()
    }

    /// A `query` reply: the mapping's rows with `sim ≥ min_sim`, the
    /// first `limit` of them (all for 0) as `[domain id, range id, sim]`.
    /// The rows are written as JSON text straight from the view's id
    /// columns into one [`Json::Raw`] — no tree per row.
    pub(crate) fn query(&self, query: &Query) -> Json {
        let (name, limit, min_sim) = (query.name.as_str(), query.limit, query.min_sim);
        let Some(entry) = self.entry(name) else {
            let known = self.entries.iter().map(|e| e.name.as_str());
            return err_response(&unknown_mapping(name, known));
        };
        let dom = &self.sources[entry.mapping.domain.0 as usize];
        let rng = &self.sources[entry.mapping.range.0 as usize];
        let mut rows = String::from("[");
        let mut total = 0usize;
        for c in entry.mapping.table.rows() {
            if c.sim < min_sim {
                continue;
            }
            total += 1;
            if limit == 0 || total <= limit {
                // The arena is append-only, so a snapshot row always
                // resolves — even if the instance was tombstoned since.
                rows.push_str(if total > 1 { ",[" } else { "[" });
                json::write_str(&mut rows, dom.ids.get(c.domain).unwrap_or_default());
                rows.push(',');
                json::write_str(&mut rows, rng.ids.get(c.range).unwrap_or_default());
                rows.push(',');
                Json::Num(c.sim).write_into(&mut rows);
                rows.push(']');
            }
        }
        rows.push(']');
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("name", Json::Str(name.into())),
            ("version", Json::Uint(entry.version)),
            ("domain", Json::Str(dom.name.clone())),
            ("range", Json::Str(rng.name.clone())),
            ("total", Json::Num(total as f64)),
            ("rows", Json::Raw(rows)),
        ])
    }

    /// The reply of a `batch_query`: the items' replies in request order
    /// — an item that fails (its mapping unknown) answered by its inline
    /// refusal while the batch still succeeds.
    pub(crate) fn batch(results: Vec<Json>) -> Json {
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("count", Json::Uint(results.len() as u64)),
            ("results", Json::Arr(results)),
        ])
    }

    /// The shard's `stats` object: counters, WAL position, sources and
    /// mappings (the server adds its own counters on top).
    pub fn stats(&self) -> Json {
        let sources = self.sources.iter().map(|s| {
            Json::obj(vec![
                ("name", Json::Str(s.name.clone())),
                ("len", Json::Num(s.len as f64)),
                ("live", Json::Num(s.live as f64)),
            ])
        });
        let mappings = self.entries.iter().zip(&self.meta).map(|(e, meta)| {
            let mut fields = vec![
                ("name", Json::Str(e.name.clone())),
                ("version", Json::Uint(e.version)),
                ("rows", Json::Num(e.mapping.len() as f64)),
                ("derived", Json::Bool(e.derived)),
                ("stale", Json::Bool(meta.stale)),
            ];
            if let Some((incremental, full_rematches)) = meta.matcher {
                fields.push(("incremental", Json::Bool(incremental)));
                fields.push(("full_rematches", Json::Uint(full_rematches)));
            }
            Json::obj(fields)
        });
        let wal = self.wal.as_ref().map_or(Json::Null, WalPosition::to_json);
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("commands", self.commands.to_json()),
            ("wal", wal),
            ("sources", Json::Arr(sources.collect())),
            ("mappings", Json::Arr(mappings.collect())),
        ])
    }
}

/// Where a shard's current [`ReadView`] is published: one small lock
/// around an `Arc`, held only to clone or swap the pointer. The engine
/// stores into it; the shard router and the engine's own reads load
/// from it.
#[derive(Debug)]
pub struct ViewSlot(Mutex<Arc<ReadView>>);

impl ViewSlot {
    pub(crate) fn new(view: ReadView) -> ViewSlot {
        ViewSlot(Mutex::new(Arc::new(view)))
    }

    /// The current view.
    pub fn load(&self) -> Arc<ReadView> {
        Arc::clone(&self.lock())
    }

    /// Make `view` current. The view it replaces is dropped after the
    /// lock is released.
    pub(crate) fn store(&self, view: ReadView) {
        let view = Arc::new(view);
        let _replaced = std::mem::replace(&mut *self.lock(), view);
    }

    fn lock(&self) -> MutexGuard<'_, Arc<ReadView>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Answer a request object, decoded as an embedded caller's would be.
#[cfg(test)]
impl ReadView {
    pub(crate) fn read(&self, req: &Json) -> Json {
        use crate::request::Origin;
        match Request::decode(req, Origin::Trusted) {
            Ok(req) => self.answer(&req),
            Err(refusal) => crate::protocol::err_response(&refusal.error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;
    use crate::request::Origin;
    use moma_core::exec::Parallelism;
    use moma_model::{AttrDef, DeltaOp, ObjectType, SourceRegistry};

    /// `query` as 9128605 answered it: a tree per row, encoded whole.
    fn tree_query(view: &ReadView, query: &Query) -> Result<Json, String> {
        let (name, limit, min_sim) = (query.name.as_str(), query.limit, query.min_sim);
        let Some(entry) = view.entry(name) else {
            let known = view.entries.iter().map(|e| e.name.as_str());
            return Err(unknown_mapping(name, known));
        };
        let dom = &view.sources[entry.mapping.domain.0 as usize];
        let rng = &view.sources[entry.mapping.range.0 as usize];
        let id_of =
            |source: &SourceView, idx: u32| source.ids.get(idx).unwrap_or_default().to_owned();
        let mut rows = Vec::new();
        let mut total = 0usize;
        for c in entry.mapping.table.rows() {
            if c.sim < min_sim {
                continue;
            }
            total += 1;
            if limit == 0 || rows.len() < limit {
                rows.push(Json::Arr(vec![
                    Json::Str(id_of(dom, c.domain)),
                    Json::Str(id_of(rng, c.range)),
                    Json::Num(c.sim),
                ]));
            }
        }
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("name", Json::Str(name.into())),
            ("version", Json::Uint(entry.version)),
            ("domain", Json::Str(dom.name.clone())),
            ("range", Json::Str(rng.name.clone())),
            ("total", Json::Num(total as f64)),
            ("rows", Json::Arr(rows)),
        ]))
    }

    /// `batch_query` as 9128605 answered it.
    fn tree_batch(view: &ReadView, items: &[Query]) -> Result<Json, String> {
        let results: Vec<Json> = items
            .iter()
            .map(|query| respond(tree_query(view, query)))
            .collect();
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("count", Json::Uint(results.len() as u64)),
            ("results", Json::Arr(results)),
        ]))
    }

    /// Ids that need every escape, 0x7F and multi-byte UTF-8.
    const HOSTILE: [&str; 6] = [
        "q\"uote",
        "back\\slash/",
        "ctl\u{0}\u{1}\u{8}\n\r\t\u{1f}",
        "del\u{7f}",
        "é中😀\u{10ffff}",
        "plain",
    ];

    /// `query` and `batch_query` replies, rows written from the id
    /// column, are the bytes the per-row tree encoded to: hostile ids,
    /// a tombstoned row, `min_sim`, `limit` 0 / 1 / n / past the end,
    /// absent fields and an unknown mapping.
    #[test]
    fn written_rows_are_the_bytes_of_the_tree() {
        let mut reg = SourceRegistry::new();
        for pds in ["DBLP", "GS"] {
            let mut lds = LogicalSource::new(pds, ObjectType::new("Publication"), vec![]);
            for id in HOSTILE {
                lds.insert_record(format!("{pds}:{id}"), vec![]).unwrap();
            }
            reg.register(lds).unwrap();
        }
        let mut state = State::new(reg, Parallelism::sequential());
        let (d, g) = ("Publication@DBLP", "Publication@GS");
        let sims = [1.0, 0.5, 0.857_142_857_142_857_1, 0.0, 1e-7, 1.0 / 3.0];
        let rows: Vec<(u32, u32, f64)> = (0..6u32)
            .flat_map(|i| (0..6u32).map(move |j| (i, j, sims[((i + 2 * j) % 6) as usize])))
            .collect();
        for req in [
            protocol::install_request("m", d, g, &rows, None),
            protocol::install_request("empty", d, g, &[], None),
            protocol::delta_request(
                d,
                &[DeltaOp::Remove {
                    id: format!("DBLP:{}", HOSTILE[0]),
                }],
            ),
        ] {
            let reply = state.apply_json(&req, None);
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "{reply}"
            );
        }
        let view = ReadView::of(&state);
        assert_eq!(view.sources[0].live, HOSTILE.len() - 1, "a tombstone");

        let mut items = Vec::new();
        for name in ["m", "empty", "nope"] {
            for limit in [0, 1, 7, 36, 100] {
                for min_sim in [None, Some(0.0), Some(0.5), Some(1.0), Some(2.0)] {
                    items.push(protocol::query_item(name, limit, min_sim));
                }
            }
        }
        items.push(Json::obj(vec![("name", Json::Str("m".into()))]));
        let decoded = |req: &Json| Request::decode(req, Origin::Trusted).unwrap();
        for item in &items {
            let req = item.clone().set_field("cmd", Json::Str("query".into()));
            let Request::Query(query) = decoded(&req) else {
                panic!("{req} is a query")
            };
            let want = respond(tree_query(&view, &query)).to_string();
            assert_eq!(view.read(&req).to_string(), want);
        }
        let batch = protocol::batch_query_request(items);
        let Request::BatchQuery(queries) = decoded(&batch) else {
            panic!("a batch_query")
        };
        let want = respond(tree_batch(&view, &queries)).to_string();
        assert!(want.contains(r#"DBLP:q\"uote","GS:ctl\u0000\u0001\u0008\n"#));
        assert_eq!(view.read(&batch).to_string(), want);
    }

    /// Growing a column chunk by chunk — across partial and full chunk
    /// boundaries, with tombstones — gives the ids a column built in one
    /// go gives, and shares every full chunk with its base.
    #[test]
    fn grown_ids_equal_ids_built_at_once() {
        let schema = vec![AttrDef::text("title")];
        let mut lds = LogicalSource::new("GS", ObjectType::new("Publication"), schema);
        let mut ids = Ids::default();
        for (step, add) in [0, 1, CHUNK - 2, 1, 3, CHUNK, 2 * CHUNK + 5]
            .into_iter()
            .enumerate()
        {
            let from = lds.len();
            for k in from..from + add {
                lds.insert_record(format!("g{k}"), vec![]).unwrap();
            }
            if step % 2 == 1 {
                lds.remove(&format!("g{}", from / 2));
            }
            let grown = ids.grown(&lds);
            let fresh = Ids::default().grown(&lds);
            assert_eq!(grown.len, lds.len());
            for idx in 0..lds.len() as u32 + 2 {
                let expect = lds.get(idx).map(|i| i.id.as_str());
                assert_eq!(grown.get(idx), expect, "step {step}, index {idx}");
                assert_eq!(fresh.get(idx), expect, "step {step}, index {idx}");
            }
            let full = ids.len / CHUNK;
            for (old, new) in ids.chunks.iter().zip(&grown.chunks).take(full) {
                assert!(Arc::ptr_eq(old, new), "a full chunk is shared");
            }
            ids = grown;
        }
    }
}

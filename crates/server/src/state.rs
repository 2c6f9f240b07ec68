//! The state machine: everything a shard *is*, and what can be done to
//! it.
//!
//! A [`State`] holds the source registry, the mapping repository, the
//! primed [`DeltaMatchState`]s with the `match` requests that primed
//! them, and the durable command counters. It touches no file, clock or
//! environment variable — durability is the [`Engine`]'s business,
//! which logs a command and then hands it to:
//!
//! * [`State::apply`] — one logged write (`match`, `compose`, `delta`,
//!   `install`). Live execution, the items of a `batch_delta`, WAL
//!   replay and the re-priming of a restored checkpoint all enter here,
//!   so they cannot disagree;
//! * [`State::write_image`] / [`State::restore`] — the whole logical
//!   state as one deterministic JSON document, and back. Neither holds
//!   the document as a tree: the writer streams it straight from the
//!   state into a writer (the checkpoint file), and restore walks the
//!   text — one instance, one row at a time — with the JSON parser's
//!   cursor, validating all of it before it commits any of it.
//!
//! Reads are not the machine's: after each write the engine publishes
//! a [`ReadView`] of the state, and the read commands answer from that.
//!
//! `apply` reaches its handler through **the dispatch**, one `match` on
//! the [`Request`] variant: the only place a write is matched to the
//! code that runs it. A logged record that no longer decodes (one an
//! earlier release logged before reading its fields) is counted as a
//! failure of its command by [`State::replay`], as that release counted
//! it. Every operation is deterministic — parallel
//! matching merges shard results in input order, repository version
//! stamps are assigned in command order, and a command that fails
//! re-fails identically against the same state — so two machines fed
//! the same records end bit-identical: same instances, same
//! correspondences, same version stamps, same counters. That is what
//! replay, recovery and the sharded ≡ single-shard gates rest on.
//!
//! [`Engine`]: crate::engine::Engine
//! [`ReadView`]: crate::view::ReadView

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io::{self, Write};

use moma_core::exec::Parallelism;
use moma_core::matchers::MatchContext;
use moma_core::{DeltaMatchState, Mapping, MappingKind, MappingRepository, Recipe};
use moma_model::{
    AttrDef, LdsId, LogicalSource, ObjectInstance, ObjectType, SourceDelta, SourceRegistry,
};
use moma_table::MappingTable;

use crate::commands::Cmd;
use crate::json::{self, Json, Parser};
use crate::protocol::{self, err_response, respond};
use crate::request::{ComposeSpec, Delta, InstallSpec, MatchSpec, Origin, Refusal, Request};

/// Durable command counters; restored exactly by replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandCounts {
    /// `match` commands logged (successful or not).
    pub matches: u64,
    /// `compose` commands logged (including the `install`s earlier
    /// releases logged for cross-shard composes).
    pub composes: u64,
    /// `delta` commands logged.
    pub deltas: u64,
    /// Replica `delta` records (`"repl": true`) that earlier releases'
    /// routers fanned out to this shard; replayed, but excluded from
    /// the aggregate `commands.delta` count.
    pub repl_deltas: u64,
}

impl CommandCounts {
    /// The counters in wire order under their wire keys — the one
    /// spelling behind `stats`, checkpoints and both dump manifests.
    pub(crate) fn rows(&self) -> [(&'static str, u64); 4] {
        [
            (Cmd::Match.name(), self.matches),
            (Cmd::Compose.name(), self.composes),
            (Cmd::Delta.name(), self.deltas),
            ("repl_delta", self.repl_deltas),
        ]
    }

    pub(crate) fn to_json(self) -> Json {
        Json::obj(self.rows().map(|(k, v)| (k, Json::Uint(v))).to_vec())
    }
}

/// Why [`State::restore`] refused an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The text is not JSON — `Json::parse` would refuse it: recovery
    /// falls back to an older checkpoint, or to full replay.
    Syntax(String),
    /// JSON, but no image of the booted registry: recovery fails.
    Invalid(String),
}

/// How much image text [`State::write_image`] gathers before handing
/// it on.
const CHUNK: usize = 64 << 10;

/// The state machine. See the module docs.
pub struct State {
    registry: SourceRegistry,
    repository: MappingRepository,
    /// Primed matcher states by mapping name (ordered, so delta
    /// application order is deterministic).
    states: BTreeMap<String, DeltaMatchState>,
    /// The `match` per primed mapping: its record is what an image
    /// carries instead of the matcher state, and what a restore
    /// re-primes it from.
    matchers: BTreeMap<String, MatchSpec>,
    commands: CommandCounts,
    par: Parallelism,
}

/// A matcher context at the state's own parallelism, built without
/// `MatchContext::new`'s probe of the CPU count (a delta builds one per
/// apply).
fn context(registry: &SourceRegistry, parallelism: Parallelism) -> MatchContext<'_> {
    MatchContext {
        registry,
        repository: None,
        parallelism,
    }
}

impl State {
    /// An empty repository over `registry`; matchers run at `par`.
    pub fn new(registry: SourceRegistry, par: Parallelism) -> State {
        State {
            registry,
            repository: MappingRepository::new(),
            states: BTreeMap::new(),
            matchers: BTreeMap::new(),
            commands: CommandCounts::default(),
            par,
        }
    }

    /// Apply one logged write — a `match`, `compose`, `delta` or
    /// `install`, or a `batch_delta` as the `delta` records its items
    /// were logged as; `seq` is its (first) WAL sequence number, if it
    /// has one. A failure is a reply like any other: it changed the
    /// counters, and it re-fails the same way on replay.
    pub fn apply(&mut self, req: &Request, seq: Option<u64>) -> Json {
        respond(self.write(req, seq))
    }

    /// Replay one logged record, as decoded: [`State::apply`] it, or —
    /// a record that does not decode (one an earlier release logged) —
    /// count it as a failure of its command, as that release counted it.
    pub fn replay(&mut self, record: Result<Request, Refusal>, seq: Option<u64>) -> Json {
        let refusal = match record {
            Ok(req) => return self.apply(&req, seq),
            Err(refusal) => refusal,
        };
        if let Some(cmd) = refusal.cmd {
            self.count(cmd, refusal.repl);
        }
        err_response(&refusal.error)
    }

    /// Count a logged write of `cmd`, applied or failed alike. Replica
    /// deltas earlier releases logged are tallied apart, so the
    /// aggregate `commands.delta` counts each client delta once.
    fn count(&mut self, cmd: Cmd, repl: bool) {
        let counter = match cmd {
            Cmd::Match => &mut self.commands.matches,
            Cmd::Compose | Cmd::Install => &mut self.commands.composes,
            Cmd::Delta if repl => &mut self.commands.repl_deltas,
            Cmd::Delta => &mut self.commands.deltas,
            _ => return,
        };
        *counter += 1;
    }

    fn write(&mut self, req: &Request, seq: Option<u64>) -> Result<Json, String> {
        match req {
            Request::Match(spec) => self.match_and_prime(spec),
            Request::Compose(spec) => self.compose(spec),
            Request::Delta(delta) => self.delta(delta, seq),
            Request::BatchDelta(items) => Ok(self.batch_delta(items, seq)),
            Request::Install(spec) => self.install(spec),
            other => Err(format!(
                "`{}` is not a mutating command",
                other.cmd().name()
            )),
        }
    }

    // ---- writes -------------------------------------------------------

    fn resolve(&self, field: &str, source: &str) -> Result<LdsId, String> {
        let resolved = self.registry.resolve(source);
        resolved.map_err(|e| format!("{field}: {e}"))
    }

    /// The reply of a write that stored mapping `name`, plus what is
    /// particular to the command.
    fn stored(&self, name: &str, rows: usize, particular: Option<(&str, bool)>) -> Json {
        let version = self.repository.version(name).unwrap_or(0);
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("name", Json::Str(name.into())),
            ("rows", Json::Num(rows as f64)),
            ("version", Json::Uint(version)),
        ];
        fields.extend(particular.map(|(key, flag)| (key, Json::Bool(flag))));
        Json::obj(fields)
    }

    fn match_and_prime(&mut self, spec: &MatchSpec) -> Result<Json, String> {
        self.count(Cmd::Match, false);
        let d = self.resolve("domain", &spec.domain)?;
        let r = self.resolve("range", &spec.range)?;
        let primed = spec.matcher.prime(&context(&self.registry, self.par), d, r);
        let state = primed.map_err(|e| e.to_string())?;
        let rows = state.mapping().len();
        let incremental = state.is_incremental();
        self.repository
            .store_as(&spec.name, state.mapping().clone());
        self.states.insert(spec.name.clone(), state);
        self.matchers.insert(spec.name.clone(), spec.clone());
        Ok(self.stored(&spec.name, rows, Some(("incremental", incremental))))
    }

    fn compose(&mut self, spec: &ComposeSpec) -> Result<Json, String> {
        self.count(Cmd::Compose, false);
        let (left, right) = (spec.left.clone(), spec.right.clone());
        let recipe = Recipe::Compose {
            left,
            right,
            f: spec.f,
            g: spec.g,
        };
        let stored = self.repository.store_derived(&spec.name, recipe);
        let mapping = stored.map_err(|e| e.to_string())?;
        self.release_matcher(&spec.name);
        Ok(self.stored(&spec.name, mapping.len(), None))
    }

    /// Overwrite means overwrite: a name that `compose` or `install`
    /// stores over stops being a primed matcher, so no later delta
    /// patches the matcher's mapping back over the new entry and no
    /// checkpoint re-primes it.
    fn release_matcher(&mut self, name: &str) {
        self.states.remove(name);
        self.matchers.remove(name);
    }

    /// Execute an `install`: store a literal, pre-computed mapping table
    /// under `name`. Earlier releases' routers logged one for a compose
    /// whose inputs lived on two shards; replay still runs it. The
    /// installed mapping is a point-in-time snapshot with no recipe, so
    /// later deltas do not refresh it.
    fn install(&mut self, spec: &InstallSpec) -> Result<Json, String> {
        self.count(Cmd::Install, false);
        let domain = self.resolve("domain", &spec.domain)?;
        let range = self.resolve("range", &spec.range)?;
        let [dl, rl] = [domain, range].map(|id| self.registry.lds(id).len());
        let outside = |&&(d, r, _): &&(u32, u32, f64)| d as usize >= dl || r as usize >= rl;
        if let Some(&(d, r, sim)) = spec.rows.iter().find(outside) {
            let title = format!("{} request `{}`", Cmd::Install.name(), spec.name);
            let row = format!("[{d},{r},{}]", Json::Num(sim));
            return Err(protocol::outside_arenas(&title, &row, dl, rl));
        }
        let table = MappingTable::from_triples(spec.rows.clone());
        let mapping = literal(&spec.name, spec.assoc.as_deref(), domain, range, table);
        let rows = mapping.len();
        self.repository.store_as(&spec.name, mapping);
        self.release_matcher(&spec.name);
        Ok(self.stored(&spec.name, rows, Some(("installed", true))))
    }

    /// The literal mapping of checkpointed entry `mj`, named `name`:
    /// its sources resolved, its table decoded by `rows` — given the
    /// sources' arena lengths (from `arenas`) to check indices against.
    fn literal_mapping(
        &self,
        mj: &Json,
        name: &str,
        arenas: &[usize],
        rows: impl FnOnce(usize, usize) -> Result<MappingTable, String>,
    ) -> Result<Mapping, String> {
        const ENTRY: &str = "checkpoint mapping";
        let domain = self.resolve("domain", mj.need(ENTRY, "domain", Json::as_str)?)?;
        let range = self.resolve("range", mj.need(ENTRY, "range", Json::as_str)?)?;
        let table = rows(arenas[domain.0 as usize], arenas[range.0 as usize])?;
        let assoc = mj.get("assoc").and_then(Json::as_str);
        Ok(literal(name, assoc, domain, range, table))
    }

    fn delta(&mut self, delta: &Delta, seq: Option<u64>) -> Result<Json, String> {
        self.count(Cmd::Delta, delta.repl);
        let lds = self.registry.resolve(&delta.lds);
        let lds = lds.map_err(|e| protocol::unknown_source(&delta.lds, &e))?;
        let ops = delta.ops.clone();
        let applied = self.registry.apply_delta(&SourceDelta { lds, ops });
        let applied = applied.map_err(|e| format!("apply_delta: {e}"))?;

        // Patch every primed state. `apply` self-skips states whose
        // matched projections the delta does not touch, so the loop is
        // cheap for irrelevant mappings.
        let ctx = context(&self.registry, self.par);
        let mut mappings_out = Vec::new();
        let mut patches = Vec::new();
        let mut untouched = 0usize;
        for (name, state) in self.states.iter_mut() {
            let patched = state.apply(&ctx, &[&applied]);
            patched.map_err(|e| format!("patch `{name}`: {e}"))?;
            if !state.last_touched() {
                untouched += 1;
                continue;
            }
            let full = state.last_was_full_rematch();
            patches.push((name.clone(), state.mapping().clone()));
            mappings_out.push(Json::obj(vec![
                ("name", Json::Str(name.clone())),
                ("rows", Json::Num(state.mapping().len() as f64)),
                ("rescored", Json::Num(state.last_rescored as f64)),
                ("incremental", Json::Bool(!full)),
                ("full_rematch", Json::Bool(full)),
            ]));
        }
        for (name, mapping) in patches {
            self.repository.store_as(name, mapping);
        }
        let refreshed = self.repository.refresh_stale();
        let refreshed = refreshed.map_err(|e| format!("refresh stale: {e}"))?;
        let refreshed = refreshed.into_iter().map(Json::Str).collect();
        let counts = [
            ("added", applied.added.len()),
            ("removed", applied.removed.len()),
            ("updated", applied.updated.len()),
            ("skipped", applied.skipped),
        ];
        let counts = counts.map(|(key, n)| (key, Json::Num(n as f64)));
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("seq", seq.map(Json::Uint).unwrap_or(Json::Null)),
            ("applied", Json::obj(counts.to_vec())),
            ("mappings", Json::Arr(mappings_out)),
            ("untouched", Json::Num(untouched as f64)),
            ("refreshed", Json::Arr(refreshed)),
        ]))
    }

    /// The items of a `batch_delta`, applied as the `delta` records
    /// they were logged as (sequence numbers from `first_seq` on): a
    /// per-item status array, an item's failure inline.
    fn batch_delta(&mut self, items: &[Delta], first_seq: Option<u64>) -> Json {
        let seqs = (0u64..).map(|i| first_seq.map(|first| first + i));
        let mut results = Vec::with_capacity(items.len());
        for (item, seq) in items.iter().zip(seqs) {
            results.push(respond(self.delta(item, seq)));
        }
        let count = results.len() as u64;
        let seq_or_null = |seq: Option<u64>| seq.map_or(Json::Null, Json::Uint);
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("count", Json::Uint(count)),
            ("first_seq", seq_or_null(first_seq)),
            ("last_seq", seq_or_null(first_seq.map(|f| f + count - 1))),
            ("results", Json::Arr(results)),
        ])
    }

    // ---- image and restore ---------------------------------------------

    /// Write the full logical state to `out` as one deterministic JSON
    /// document, stamped with the WAL sequence number `seq` it covers:
    /// sources (arena order, tombstones included, so restored local
    /// indexes are identical), mappings with exact version stamps /
    /// recipes / recorded input versions, the original `match` requests
    /// (to re-prime matcher states), command counters and the repository
    /// version counter. The text is written as the state is read, one
    /// instance and one row at a time through a reused buffer; no tree
    /// or string of the whole image is ever held.
    ///
    /// Not covered (stats-only, reset on restore): per-state
    /// full-re-match counters.
    pub fn write_image(&self, seq: u64, out: &mut (impl Write + ?Sized)) -> io::Result<()> {
        let mut buf = String::with_capacity(2 * CHUNK);
        let versions = self.repository.version_counter();
        let counters = [
            ("seq", Json::Uint(seq)),
            ("commands", self.commands.to_json()),
            ("version_counter", Json::Uint(versions)),
        ];
        open_object(&mut buf, counters, "sources");
        buf.push('[');
        for (i, (_, lds)) in self.registry.iter().enumerate() {
            buf.push_str(if i > 0 { "," } else { "" });
            let schema = lds.schema.iter().map(|a| {
                Json::obj(vec![
                    ("name", Json::Str(a.name.clone())),
                    ("kind", Json::Str(a.kind.to_string())),
                ])
            });
            let header = [
                ("pds", Json::Str(lds.pds.clone())),
                ("type", Json::Str(lds.object_type.as_str().to_owned())),
                ("schema", Json::Arr(schema.collect())),
            ];
            open_object(&mut buf, header, "instances");
            buf.push('[');
            for idx in 0..lds.len() as u32 {
                let inst = lds.get(idx).expect("arena index in bounds");
                buf.push_str(if idx > 0 { ",{\"id\":" } else { "{\"id\":" });
                json::write_str(&mut buf, &inst.id);
                buf.push_str(",\"live\":");
                Json::Bool(lds.is_live(idx)).write_into(&mut buf);
                let values = inst.values.iter().map(|v| match v {
                    Some(v) => protocol::attr_value_to_json(v),
                    None => Json::Null,
                });
                buf.push_str(",\"values\":");
                Json::Arr(values.collect()).write_into(&mut buf);
                buf.push('}');
                spill(out, &mut buf)?;
            }
            buf.push_str("]}");
        }
        buf.push_str("],\"mappings\":[");
        for (i, e) in self.repository.snapshot().iter().enumerate() {
            buf.push_str(if i > 0 { "," } else { "" });
            let recipe = self.repository.recipe(&e.name);
            let deps = e.dep_versions.iter();
            let deps = deps.map(|(n, v)| Json::Arr(vec![Json::Str(n.clone()), Json::Uint(*v)]));
            let assoc = match &e.mapping.kind {
                MappingKind::Same => Json::Null,
                MappingKind::Association(t) => Json::Str(t.clone()),
            };
            let source = |id| Json::Str(self.registry.lds(id).name());
            let header = [
                ("name", Json::Str(e.name.clone())),
                ("assoc", assoc),
                ("domain", source(e.mapping.domain)),
                ("range", source(e.mapping.range)),
                ("version", Json::Uint(e.version)),
                ("recipe", recipe.map_or(Json::Null, |r| recipe_to_json(&r))),
                ("dep_versions", Json::Arr(deps.collect())),
            ];
            open_object(&mut buf, header, "rows");
            buf.push('[');
            for (k, c) in e.mapping.table.rows().iter().enumerate() {
                let comma = if k > 0 { "," } else { "" };
                let _ = write!(buf, "{comma}[{},{},", c.domain, c.range);
                Json::Num(c.sim).write_into(&mut buf);
                buf.push(']');
                spill(out, &mut buf)?;
            }
            buf.push_str("]}");
        }
        buf.push_str("],\"matchers\":");
        self.matchers_json().write_into(&mut buf);
        buf.push('}');
        out.write_all(buf.as_bytes())
    }

    /// Become the state the image `text` describes and return the WAL
    /// sequence number it covers. The text is walked, never built into
    /// one tree: a first pass checks its syntax — as `Json::parse`
    /// would — and builds the small members; a second decodes the
    /// sources one instance at a time and the mappings one row at a
    /// time. All of it is validated against the booted registry (same
    /// sources, in order) before any of it is committed.
    pub fn restore(&mut self, text: &str) -> Result<u64, ImageError> {
        let mut doc = Parser::new(text);
        let walked = doc.object_but(["sources", "mappings"]);
        let walked = walked.and_then(|walked| doc.end().map(|()| walked));
        let (head, [sources, mappings]) = walked.map_err(ImageError::Syntax)?;
        self.rebuild(&head, sources, mappings)
            .map_err(ImageError::Invalid)
    }

    /// [`State::restore`] past its syntax check: `head` holds the image's
    /// small members, `sources` and `mappings` are the text of the large
    /// ones.
    fn rebuild(
        &mut self,
        head: &Json,
        sources: Option<&str>,
        mappings: Option<&str>,
    ) -> Result<u64, String> {
        const IMAGE: &str = "checkpoint state";
        let seq = head.need(IMAGE, "seq", Json::as_u64)?;
        let version_counter = head.need(IMAGE, "version_counter", Json::as_u64)?;
        let counters = head.need(IMAGE, "commands", Some)?;
        let count = |cmd: Cmd| counters.need("checkpoint counters", cmd.name(), Json::as_u64);
        let counts = CommandCounts {
            matches: count(Cmd::Match)?,
            composes: count(Cmd::Compose)?,
            deltas: count(Cmd::Delta)?,
            // Absent in pre-shard checkpoints; those logged no replicas.
            repl_deltas: counters
                .get("repl_delta")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        };

        // -- sources: rebuild each arena, aligned to the booted registry,
        // one instance at a time.
        let mut arenas = Vec::with_capacity(self.registry.len());
        Parser::need_items(IMAGE, "sources", sources, |p| {
            let (sj, [instances]) = p.object_but(["instances"])?;
            let i = arenas.len();
            let pds = sj.need("source", "pds", Json::as_str)?;
            let ty = sj.need("source", "type", Json::as_str)?;
            let boot = self.registry.iter().nth(i).map(|(_, lds)| lds);
            let boot = boot.ok_or("checkpoint has more sources than the booted registry")?;
            if boot.pds != pds || boot.object_type.as_str() != ty {
                return Err(format!(
                    "checkpoint source {i} is {ty}@{pds} but the booted registry has {}",
                    boot.name()
                ));
            }
            let mut schema = Vec::new();
            for aj in sj.need_arr("source", "schema")? {
                let name = aj.need("schema attr", "name", Json::as_str)?;
                let kind = aj.need("schema attr", "kind", Json::as_str)?.parse()?;
                schema.push(AttrDef::new(name, kind));
            }
            let mut lds = LogicalSource::new(pds, ObjectType::new(ty), schema);
            Parser::need_items("source", "instances", instances, |p| {
                let ij = p.tree()?;
                let id = ij.need("instance", "id", Json::as_str)?;
                let live = ij.need("instance", "live", Json::as_bool)?;
                let values = ij
                    .need_arr("instance", "values")?
                    .iter()
                    .map(|vj| match vj {
                        Json::Null => Ok(None),
                        other => protocol::attr_value_from_json(other).map(Some),
                    });
                let values = values.collect::<Result<_, String>>()?;
                // Insert in arena order, tombstoning removed instances
                // immediately: a later slot may legally reuse the id,
                // and this ordering frees it before that insert.
                lds.insert(ObjectInstance::with_values(id, values))
                    .map_err(|e| format!("restore instance `{id}`: {e}"))?;
                if !live {
                    lds.remove(id);
                }
                Ok(())
            })?;
            arenas.push(lds);
            Ok(())
        })?;
        if arenas.len() != self.registry.len() {
            return Err(format!(
                "checkpoint has {} sources but the booted registry has {}",
                arenas.len(),
                self.registry.len()
            ));
        }

        // -- mappings: resolved against the booted registry's names,
        // rows checked against the restored arenas one at a time.
        const ENTRY: &str = "checkpoint mapping";
        let lens: Vec<usize> = arenas.iter().map(LogicalSource::len).collect();
        let mut entries = Vec::new();
        Parser::need_items(IMAGE, "mappings", mappings, |p| {
            let (mj, [rows]) = p.object_but(["rows"])?;
            let name = mj.need(ENTRY, "name", Json::as_str)?;
            let title = format!("{ENTRY} `{name}`");
            let rows = |domain_len, range_len| {
                let mut triples = Vec::new();
                Parser::need_items(ENTRY, "rows", rows, |p| {
                    let row = protocol::row_from_json(&title, &p.tree()?, domain_len, range_len);
                    row.map(|row| triples.push(row))
                })?;
                Ok(MappingTable::from_triples(triples))
            };
            let mapping = self.literal_mapping(&mj, name, &lens, rows)?;
            let version = mj.need(ENTRY, "version", Json::as_u64)?;
            let recipe = match mj.get("recipe") {
                None | Some(Json::Null) => None,
                Some(r) => Some(recipe_from_json(r)?),
            };
            let deps = mj.need_arr(ENTRY, "dep_versions")?.iter().map(|dj| {
                let pair = match dj.as_arr() {
                    Some([n, v]) => n.as_str().zip(v.as_u64()),
                    _ => None,
                };
                let (n, v) = pair.ok_or("dep_versions must be [name, version] pairs")?;
                Ok((n.to_owned(), v))
            });
            let deps = deps.collect::<Result<Vec<_>, String>>()?;
            entries.push((mapping, version, recipe, deps));
            Ok(())
        })?;
        let matchers = head.need(IMAGE, "matchers", |j| match j {
            Json::Obj(members) => Some(members),
            _ => None,
        })?;

        // -- everything parsed: commit. The matcher states are re-primed
        // through the ordinary `match` path against the restored
        // sources; the image's repository and counters then replace
        // what that stored and counted.
        for (i, lds) in arenas.into_iter().enumerate() {
            *self.registry.lds_mut(LdsId(i as u32)) = lds;
        }
        self.reprime(matchers)?;
        self.repository = MappingRepository::new();
        for (mapping, version, recipe, deps) in entries {
            // Invariant check: re-priming against the restored sources
            // must reproduce the restored leaf mapping exactly (the same
            // determinism the WAL replay bit-identity rests on). Skipped
            // when the entry was later overwritten by a derived mapping
            // of the same name.
            let primed = self.states.get(&mapping.name).filter(|_| recipe.is_none());
            if primed.is_some_and(|p| p.mapping().table.rows() != mapping.table.rows()) {
                return Err(format!(
                    "checkpoint invariant violation: re-primed matcher `{}` disagrees with \
                     its restored mapping table",
                    mapping.name
                ));
            }
            let name = mapping.name.clone();
            self.repository
                .restore_entry(name, mapping, version, recipe, deps);
        }
        self.repository.restore_version_counter(version_counter);
        self.commands = counts;
        Ok(seq)
    }

    /// Re-prime the matcher states of an image's `matchers` member
    /// through the ordinary `match` path, dropping the current ones.
    fn reprime(&mut self, matchers: &[(String, Json)]) -> Result<(), String> {
        self.states.clear();
        self.matchers.clear();
        for (name, record) in matchers {
            let req = Request::decode(record, Origin::Trusted).map_err(|r| r.error);
            let primed = req.and_then(|req| self.write(&req, None));
            primed.map_err(|e| format!("re-prime `{name}`: {e}"))?;
        }
        Ok(())
    }

    /// The image's `matchers` member: each primed mapping's `match`
    /// record, by name.
    fn matchers_json(&self) -> Json {
        let records = self.matchers.iter();
        let records = records.map(|(name, m)| (name.clone(), Json::Raw(m.record.clone())));
        Json::Obj(records.collect())
    }

    // ---- accessors ----------------------------------------------------

    /// The source registry.
    pub fn registry(&self) -> &SourceRegistry {
        &self.registry
    }

    /// The mapping repository.
    pub fn repository(&self) -> &MappingRepository {
        &self.repository
    }

    /// Durable command counters.
    pub fn command_counts(&self) -> CommandCounts {
        self.commands
    }

    /// The primed matcher state behind mapping `name`, if it has one.
    pub fn primed(&self, name: &str) -> Option<&DeltaMatchState> {
        self.states.get(name)
    }
}

/// A literal mapping: an association mapping when it has an `assoc`
/// type.
fn literal(
    name: &str,
    assoc: Option<&str>,
    domain: LdsId,
    range: LdsId,
    table: MappingTable,
) -> Mapping {
    match assoc {
        Some(t) => Mapping::association(name, t, domain, range, table),
        None => Mapping::same(name, domain, range, table),
    }
}

/// Append `{`, the `members` and the key of `last`, an object's final
/// member, whose value the caller writes (and closes the object after).
fn open_object<const N: usize>(buf: &mut String, members: [(&str, Json); N], last: &str) {
    buf.push('{');
    for (key, value) in members {
        json::write_str(buf, key);
        buf.push(':');
        value.write_into(buf);
        buf.push(',');
    }
    json::write_str(buf, last);
    buf.push(':');
}

/// Hand `buf` on to `out` once it holds a chunk.
fn spill(out: &mut (impl Write + ?Sized), buf: &mut String) -> io::Result<()> {
    if buf.len() >= CHUNK {
        out.write_all(buf.as_bytes())?;
        buf.clear();
    }
    Ok(())
}

fn recipe_to_json(recipe: &Recipe) -> Json {
    let s = |v: &dyn fmt::Display| Json::Str(v.to_string());
    let (op, params) = match recipe {
        Recipe::Compose { left, right, f, g } => (
            "compose",
            vec![
                ("left", s(left)),
                ("right", s(right)),
                ("f", s(f)),
                ("g", s(g)),
            ],
        ),
        Recipe::Union { left, right } => ("union", vec![("left", s(left)), ("right", s(right))]),
        Recipe::Intersect { left, right } => {
            ("intersect", vec![("left", s(left)), ("right", s(right))])
        }
        Recipe::Difference { left, right } => {
            ("difference", vec![("left", s(left)), ("right", s(right))])
        }
        Recipe::Merge { inputs, f, missing } => (
            "merge",
            vec![
                ("inputs", Json::Arr(inputs.iter().map(|n| s(n)).collect())),
                ("f", s(f)),
                ("missing", s(missing)),
            ],
        ),
    };
    Json::obj([("op", s(&op))].into_iter().chain(params).collect())
}

fn recipe_from_json(j: &Json) -> Result<Recipe, String> {
    let text = |key: &str| j.need("recipe", key, Json::as_str);
    let (left, right) = (
        || text("left").map(str::to_owned),
        || text("right").map(str::to_owned),
    );
    Ok(match text("op")? {
        "compose" => Recipe::Compose {
            left: left()?,
            right: right()?,
            f: text("f")?.parse()?,
            g: text("g")?.parse()?,
        },
        "union" => Recipe::Union {
            left: left()?,
            right: right()?,
        },
        "intersect" => Recipe::Intersect {
            left: left()?,
            right: right()?,
        },
        "difference" => Recipe::Difference {
            left: left()?,
            right: right()?,
        },
        "merge" => {
            let inputs = j.need_arr("recipe", "inputs")?.iter();
            let inputs: Option<Vec<String>> =
                inputs.map(|n| Some(n.as_str()?.to_owned())).collect();
            Recipe::Merge {
                inputs: inputs.ok_or("recipe inputs must be mapping names")?,
                f: text("f")?.parse()?,
                missing: text("missing")?.parse()?,
            }
        }
        other => return Err(format!("unknown recipe op `{other}`")),
    })
}

/// The tree-building image and restore the streamed ones replaced,
/// kept as the oracles they are tested against.
#[cfg(test)]
impl State {
    /// Apply `req` as replay does: decoded, or refused as a record that
    /// does not decode.
    pub(crate) fn apply_json(&mut self, req: &Json, seq: Option<u64>) -> Json {
        self.replay(Request::decode(req, Origin::Trusted), seq)
    }

    /// The image text [`State::write_image`] writes.
    pub(crate) fn image_text(&self, seq: u64) -> String {
        let mut out = Vec::new();
        self.write_image(seq, &mut out)
            .expect("a Vec takes every write");
        String::from_utf8(out).expect("an image is UTF-8")
    }

    /// The full logical state as one deterministic JSON document,
    /// stamped with the WAL sequence number `seq` it covers: sources
    /// (arena order, tombstones included, so restored local indexes are
    /// identical), mappings with exact version stamps / recipes /
    /// recorded input versions, the original `match` requests (to
    /// re-prime matcher states), command counters and the repository
    /// version counter.
    ///
    /// Not covered (stats-only, reset on restore): per-state
    /// full-re-match counters.
    pub(crate) fn image(&self, seq: u64) -> Json {
        let sources = self.registry.iter().map(|(_, lds)| {
            let schema = lds.schema.iter().map(|a| {
                Json::obj(vec![
                    ("name", Json::Str(a.name.clone())),
                    ("kind", Json::Str(a.kind.to_string())),
                ])
            });
            let instances = (0..lds.len() as u32).map(|idx| {
                let inst = lds.get(idx).expect("arena index in bounds");
                let values = inst.values.iter().map(|v| match v {
                    Some(v) => protocol::attr_value_to_json(v),
                    None => Json::Null,
                });
                Json::obj(vec![
                    ("id", Json::Str(inst.id.clone())),
                    ("live", Json::Bool(lds.is_live(idx))),
                    ("values", Json::Arr(values.collect())),
                ])
            });
            Json::obj(vec![
                ("pds", Json::Str(lds.pds.clone())),
                ("type", Json::Str(lds.object_type.as_str().to_owned())),
                ("schema", Json::Arr(schema.collect())),
                ("instances", Json::Arr(instances.collect())),
            ])
        });
        let mappings = self.repository.snapshot().into_iter().map(|e| {
            let rows = e.mapping.table.rows().iter();
            let recipe = self.repository.recipe(&e.name);
            let deps = e.dep_versions.iter();
            let deps = deps.map(|(n, v)| Json::Arr(vec![Json::Str(n.clone()), Json::Uint(*v)]));
            let assoc = match &e.mapping.kind {
                MappingKind::Same => Json::Null,
                MappingKind::Association(t) => Json::Str(t.clone()),
            };
            Json::obj(vec![
                ("name", Json::Str(e.name.clone())),
                ("assoc", assoc),
                (
                    "domain",
                    Json::Str(self.registry.lds(e.mapping.domain).name()),
                ),
                (
                    "range",
                    Json::Str(self.registry.lds(e.mapping.range).name()),
                ),
                ("version", Json::Uint(e.version)),
                ("recipe", recipe.as_ref().map_or(Json::Null, recipe_to_json)),
                ("dep_versions", Json::Arr(deps.collect())),
                (
                    "rows",
                    protocol::rows_to_json(rows.map(|c| (c.domain, c.range, c.sim))),
                ),
            ])
        });
        Json::obj(vec![
            ("seq", Json::Uint(seq)),
            ("commands", self.commands.to_json()),
            (
                "version_counter",
                Json::Uint(self.repository.version_counter()),
            ),
            ("sources", Json::Arr(sources.collect())),
            ("mappings", Json::Arr(mappings.collect())),
            ("matchers", self.matchers_json()),
        ])
    }

    /// Become the state `image` describes; returns the WAL sequence
    /// number it covers. The image is parsed and validated against the
    /// booted registry (same sources, in order) in full before any of
    /// it is committed.
    pub(crate) fn restore_tree(&mut self, image: &Json) -> Result<u64, String> {
        const IMAGE: &str = "checkpoint state";
        let seq = image.need(IMAGE, "seq", Json::as_u64)?;
        let version_counter = image.need(IMAGE, "version_counter", Json::as_u64)?;
        let counters = image.need(IMAGE, "commands", Some)?;
        let count = |cmd: Cmd| counters.need("checkpoint counters", cmd.name(), Json::as_u64);
        let counts = CommandCounts {
            matches: count(Cmd::Match)?,
            composes: count(Cmd::Compose)?,
            deltas: count(Cmd::Delta)?,
            // Absent in pre-shard checkpoints; those logged no replicas.
            repl_deltas: counters
                .get("repl_delta")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        };

        // -- sources: rebuild each arena, aligned to the booted registry.
        let sources_json = image.need_arr(IMAGE, "sources")?;
        if sources_json.len() != self.registry.len() {
            return Err(format!(
                "checkpoint has {} sources but the booted registry has {}",
                sources_json.len(),
                self.registry.len()
            ));
        }
        let mut sources = Vec::with_capacity(sources_json.len());
        for (i, sj) in sources_json.iter().enumerate() {
            let pds = sj.need("source", "pds", Json::as_str)?;
            let ty = sj.need("source", "type", Json::as_str)?;
            let boot = self.registry.lds(LdsId(i as u32));
            if boot.pds != pds || boot.object_type.as_str() != ty {
                return Err(format!(
                    "checkpoint source {i} is {ty}@{pds} but the booted registry has {}",
                    boot.name()
                ));
            }
            let mut schema = Vec::new();
            for aj in sj.need_arr("source", "schema")? {
                let name = aj.need("schema attr", "name", Json::as_str)?;
                let kind = aj.need("schema attr", "kind", Json::as_str)?.parse()?;
                schema.push(AttrDef::new(name, kind));
            }
            let mut lds = LogicalSource::new(pds, ObjectType::new(ty), schema);
            for ij in sj.need_arr("source", "instances")? {
                let id = ij.need("instance", "id", Json::as_str)?;
                let live = ij.need("instance", "live", Json::as_bool)?;
                let values = ij
                    .need_arr("instance", "values")?
                    .iter()
                    .map(|vj| match vj {
                        Json::Null => Ok(None),
                        other => protocol::attr_value_from_json(other).map(Some),
                    });
                let values = values.collect::<Result<_, String>>()?;
                // Insert in arena order, tombstoning removed instances
                // immediately: a later slot may legally reuse the id,
                // and this ordering frees it before that insert.
                lds.insert(ObjectInstance::with_values(id, values))
                    .map_err(|e| format!("restore instance `{id}`: {e}"))?;
                if !live {
                    lds.remove(id);
                }
            }
            sources.push(lds);
        }

        // -- mappings: resolved against the booted registry's names,
        // rows checked against the restored arenas.
        const ENTRY: &str = "checkpoint mapping";
        let arenas: Vec<usize> = sources.iter().map(LogicalSource::len).collect();
        let mut entries = Vec::new();
        for mj in image.need_arr(IMAGE, "mappings")? {
            let name = mj.need(ENTRY, "name", Json::as_str)?;
            let title = format!("{ENTRY} `{name}`");
            let rows = |domain_len, range_len| {
                let rows = mj.need_arr(ENTRY, "rows")?.iter();
                let rows =
                    rows.map(|row| protocol::row_from_json(&title, row, domain_len, range_len));
                Ok(MappingTable::from_triples(
                    rows.collect::<Result<Vec<_>, String>>()?,
                ))
            };
            let mapping = self.literal_mapping(mj, name, &arenas, rows)?;
            let version = mj.need(ENTRY, "version", Json::as_u64)?;
            let recipe = match mj.get("recipe") {
                None | Some(Json::Null) => None,
                Some(r) => Some(recipe_from_json(r)?),
            };
            let deps = mj.need_arr(ENTRY, "dep_versions")?.iter().map(|dj| {
                let pair = match dj.as_arr() {
                    Some([n, v]) => n.as_str().zip(v.as_u64()),
                    _ => None,
                };
                let (n, v) = pair.ok_or("dep_versions must be [name, version] pairs")?;
                Ok((n.to_owned(), v))
            });
            let deps = deps.collect::<Result<Vec<_>, String>>()?;
            entries.push((mapping, version, recipe, deps));
        }
        let matchers = image.need(IMAGE, "matchers", |j| match j {
            Json::Obj(members) => Some(members),
            _ => None,
        })?;

        // -- everything parsed: commit. The matcher states are re-primed
        // through the ordinary `match` path against the restored
        // sources; the image's repository and counters then replace
        // what that stored and counted.
        for (i, lds) in sources.into_iter().enumerate() {
            *self.registry.lds_mut(LdsId(i as u32)) = lds;
        }
        self.reprime(matchers)?;
        self.repository = MappingRepository::new();
        for (mapping, version, recipe, deps) in entries {
            // Invariant check: re-priming against the restored sources
            // must reproduce the restored leaf mapping exactly (the same
            // determinism the WAL replay bit-identity rests on). Skipped
            // when the entry was later overwritten by a derived mapping
            // of the same name.
            let primed = self.states.get(&mapping.name).filter(|_| recipe.is_none());
            if primed.is_some_and(|p| p.mapping().table.rows() != mapping.table.rows()) {
                return Err(format!(
                    "checkpoint invariant violation: re-primed matcher `{}` disagrees with \
                     its restored mapping table",
                    mapping.name
                ));
            }
            let name = mapping.name.clone();
            self.repository
                .restore_entry(name, mapping, version, recipe, deps);
        }
        self.repository.restore_version_counter(version_counter);
        self.commands = counts;
        Ok(seq)
    }

    /// What the tree path made of image `text`: a text `Json::parse`
    /// refuses is a syntax error, one [`State::restore_tree`] refuses
    /// is invalid.
    pub(crate) fn restore_oracle(&mut self, text: &str) -> Result<u64, ImageError> {
        let image = Json::parse(text).map_err(ImageError::Syntax)?;
        self.restore_tree(&image).map_err(ImageError::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ReadView;
    use moma_model::{AttrValue, DeltaOp};

    fn registry(cites: i64) -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        for (pds, ids) in [
            ("DBLP", vec!["d1", "d2"]),
            ("ACM", vec!["a1", "a2"]),
            ("GS", vec!["g1"]),
        ] {
            let schema = vec![AttrDef::text("title"), AttrDef::int("cites")];
            let mut lds = LogicalSource::new(pds, ObjectType::new("Publication"), schema);
            for id in ids {
                let title = AttrValue::Text(format!("The {id} system paper"));
                lds.insert_record(id, vec![("title", title), ("cites", AttrValue::Int(cites))])
                    .unwrap();
            }
            reg.register(lds).unwrap();
        }
        reg
    }

    fn machine() -> State {
        State::new(registry(3), Parallelism::sequential())
    }

    fn match_cmd(name: &str, domain: &str, range: &str) -> Json {
        protocol::match_request(name, domain, range, "title", "title", "trigram", 0.5)
    }

    fn add(id: &str, title: &str) -> Json {
        let fields = vec![("title".into(), AttrValue::Text(title.into()))];
        protocol::delta_request(
            "Publication@GS",
            &[DeltaOp::Add {
                id: id.into(),
                fields,
            }],
        )
    }

    fn ok(reply: &Json) -> bool {
        reply.get("ok").and_then(Json::as_bool) == Some(true)
    }

    /// The machine alone — no WAL, no directory on disk: a history cut
    /// by `image` → `restore` into a freshly booted machine ends
    /// bit-identical (image text and all) to the uninterrupted run.
    #[test]
    fn image_restore_equals_an_uninterrupted_run() {
        let head = [
            match_cmd("m1", "Publication@DBLP", "Publication@ACM"),
            match_cmd("m2", "Publication@ACM", "Publication@GS"),
            add("g9", "The a1 system paper"),
            protocol::compose_request("c", "m1", "m2", "weighted:0.25", "relative-left"),
        ];
        let tail = [
            add("g10", "The a2 system paper"),
            protocol::delta_request("Publication@GS", &[DeltaOp::Remove { id: "g9".into() }]),
        ];
        let mut straight = machine();
        let mut cut = machine();
        for (i, req) in head.iter().enumerate() {
            let seq = Some(i as u64 + 1);
            let reply = straight.apply_json(req, seq);
            assert!(ok(&reply), "{reply}");
            assert_eq!(cut.apply_json(req, seq), reply);
        }
        let image = cut.image_text(4);
        assert_eq!(image, cut.image(4).to_string(), "streamed ≡ tree");
        let mut cut = machine();
        assert_eq!(cut.restore(&image), Ok(4));
        assert_eq!(cut.image_text(4), straight.image_text(4));
        for (i, req) in tail.iter().enumerate() {
            let seq = Some(i as u64 + 5);
            let reply = straight.apply_json(req, seq);
            assert!(ok(&reply), "{reply}");
            assert_eq!(cut.apply_json(req, seq), reply);
        }
        assert_eq!(cut.image_text(6), straight.image_text(6));
        let (cut, straight) = (ReadView::of(&cut), ReadView::of(&straight));
        let query = protocol::query_request("c", 0, None);
        assert_eq!(cut.read(&query), straight.read(&query));
        assert_eq!(cut.stats(), straight.stats());
    }

    /// A `match` request naming a 0-gram measure is refused like any
    /// unknown similarity — it used to be accepted, and panicked in the
    /// tokenizer at the first pair scored. So is a malformed `year:`
    /// tolerance, which used to be read as `year:0`.
    #[test]
    fn zero_length_qgrams_are_refused_on_the_wire() {
        let mut state = machine();
        for sim in [
            "qgram:0",
            "qgramjaccard:0",
            "qgramcosine:0",
            "qgramoverlap:0",
            "year:x",
            "year:-1",
            "year:1.5",
        ] {
            let (d, r) = ("Publication@DBLP", "Publication@ACM");
            let req = protocol::match_request("m", d, r, "title", "title", sim, 0.5);
            let reply = state.apply_json(&req, Some(1));
            assert!(!ok(&reply), "{reply}");
            let error = reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_default();
            assert!(error.contains("unknown similarity `"), "{reply}");
        }
        assert!(ok(&state.apply_json(
            &match_cmd("m", "Publication@DBLP", "Publication@ACM"),
            Some(1)
        )));
    }

    /// A threshold outside `[0, 1]` is refused by the matcher the
    /// request lowers to, whatever its measure.
    #[test]
    fn thresholds_outside_the_unit_interval_are_refused_on_the_wire() {
        let mut state = machine();
        let (d, r) = ("Publication@DBLP", "Publication@ACM");
        for sim in ["trigram", "tfidf", "jaro"] {
            for t in [-0.1, 1.5] {
                let req = protocol::match_request("m", d, r, "title", "title", sim, t);
                let reply = state.apply_json(&req, Some(1));
                let error = reply.str_field("error").unwrap_or_default();
                assert!(error.contains("must be in [0, 1]"), "{sim} {t}: {reply}");
            }
        }
    }

    /// Persisted rows are outside input: an index that does not fit
    /// `u32` (it used to wrap — 4294967301 installed index 5), one past
    /// its source's arena (it used to render as an empty id in
    /// `query`) and a non-finite sim are each refused, in a replayed
    /// `install` record and in a checkpoint image alike.
    #[test]
    fn persisted_rows_are_checked_against_the_arenas() {
        let mut live = machine();
        assert!(ok(&live.apply_json(
            &match_cmd("m1", "Publication@DBLP", "Publication@ACM"),
            None
        )));
        let good = live.image_text(1);
        let rows_at = good.find("\"rows\":[[").expect("m1 has rows") + "\"rows\":[".len();
        for bad in [
            "[4294967301,0,0.5]",
            "[0,2,0.5]",
            "[0,0,1e999]",
            "[0,0]",
            "[0,-1,0.5]",
        ] {
            let record = format!(
                r#"{{"cmd":"install","name":"x","domain":"Publication@DBLP","range":"Publication@ACM","rows":[[1,1,0.5],{bad}]}}"#
            );
            let reply = machine().apply_json(&Json::parse(&record).unwrap(), Some(1));
            let error = reply.str_field("error").unwrap_or_default();
            assert!(error.contains("[domain, range, sim]"), "{bad}: {reply}");

            let image = format!("{}{bad},{}", &good[..rows_at], &good[rows_at..]);
            let refused = machine().restore(&image);
            let Err(ImageError::Invalid(error)) = refused else {
                panic!("{bad}: {refused:?}")
            };
            assert!(error.contains("[domain, range, sim]"), "{bad}: {error}");
        }
        // The arena a checkpointed row must fit is the restored one: a
        // row naming an instance a delta added after boot is fine.
        assert!(ok(&live.apply_json(
            &match_cmd("m2", "Publication@ACM", "Publication@GS"),
            None
        )));
        assert!(ok(&live.apply_json(&add("g9", "The a1 system paper"), None)));
        let image = live.image_text(3);
        assert!(image.contains("[0,1,"), "a row into g9");
        assert_eq!(machine().restore(&image), Ok(3));
    }

    /// `int` values are exact over all of `i64` — through an image and
    /// back — and a number that is no `i64` is refused, not truncated.
    #[test]
    fn int_attributes_round_trip_exactly() {
        for cites in [i64::MAX, i64::MIN, -(1 << 53) - 1, (1 << 53) + 1, -42, 0] {
            let boot = State::new(registry(cites), Parallelism::sequential());
            let text = boot.image_text(0);
            assert!(
                text.contains(&format!(r#"{{"t":"int","v":{cites}}}"#)),
                "{text}"
            );
            let mut restored = machine();
            assert_eq!(restored.restore(&text), Ok(0));
            let cell = restored.registry().lds(LdsId(0)).get(0).unwrap().values[1].clone();
            assert_eq!(cell, Some(AttrValue::Int(cites)));
            assert_eq!(restored.image_text(0), text);
        }
        for bad in [
            "1.5",
            "1e300",
            "9223372036854775808",
            "-9223372036854775809",
            "\"7\"",
        ] {
            let wire = format!(r#"{{"t":"int","v":{bad}}}"#);
            let refused = protocol::attr_value_from_json(&Json::parse(&wire).unwrap());
            assert_eq!(
                refused,
                Err("int value must be an integer".to_owned()),
                "{bad}"
            );
        }
    }

    /// The recipe codec is total: every variant, parameterized
    /// functions included, survives its JSON form.
    #[test]
    fn every_recipe_round_trips() {
        use moma_core::ops::{MergeFn, MissingPolicy, PathAgg, PathCombine};
        let (left, right) = ("a".to_owned(), "b".to_owned());
        let recipes = [
            Recipe::Compose {
                left: left.clone(),
                right: right.clone(),
                f: PathCombine::Weighted(0.1 + 0.2),
                g: PathAgg::RelativeRight,
            },
            Recipe::Union {
                left: left.clone(),
                right: right.clone(),
            },
            Recipe::Intersect {
                left: left.clone(),
                right: right.clone(),
            },
            Recipe::Difference {
                left: left.clone(),
                right: right.clone(),
            },
            Recipe::Merge {
                inputs: vec![left.clone(), right.clone()],
                f: MergeFn::Weighted(vec![3.0, 0.1]),
                missing: MissingPolicy::Zero,
            },
            Recipe::Merge {
                inputs: vec![left, right],
                f: MergeFn::Prefer(1),
                missing: MissingPolicy::Ignore,
            },
        ];
        for recipe in recipes {
            let wire = recipe_to_json(&recipe).to_string();
            let back = recipe_from_json(&Json::parse(&wire).unwrap());
            assert_eq!(back, Ok(recipe), "{wire}");
        }
    }

    // ---- the streamed image against the tree oracles -------------------

    use moma_core::ops::{MergeFn, MissingPolicy};
    use moma_model::AttrKind;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// One step of a generated history: a logged write, or a derived
    /// entry stored straight into the repository (a `union`,
    /// `intersect` or `merge` recipe, which no command stores).
    enum Step {
        Logged(Json),
        Derive(String, Recipe),
    }

    /// The schema of every generated source: every attribute kind, one
    /// attribute name that needs escaping.
    const SCHEMA: [(&str, AttrKind); 5] = [
        ("title", AttrKind::Text),
        ("authors", AttrKind::TextList),
        ("cites", AttrKind::Int),
        ("n\u{1}\"é", AttrKind::Real),
        ("year", AttrKind::Year),
    ];

    /// Source names, one of them needing escapes; the third is empty at
    /// boot in half the histories.
    const PDS: [&str; 3] = ["DBLP", "AC\"M\\é", "GS"];

    const WORDS: [&str; 8] = [
        "schema", "matching", "cupid", "potter", "wheel", "mapping", "object", "fusion",
    ];

    /// A short string of what JSON escapes or spans: `"`, `\`, every
    /// byte below 0x20, 0x7F, `/` and 2- to 4-byte UTF-8.
    fn hostile(rng: &mut TestRng, len: u64) -> String {
        (0..1 + rng.below(len))
            .map(|_| match rng.below(4) {
                0 => char::from(rng.below(0x20) as u8),
                1 => ['"', '\\', 'é', '中', '😀', '\u{7f}', '/'][rng.below(7) as usize],
                _ => char::from(b'a' + rng.below(26) as u8),
            })
            .collect()
    }

    fn title(rng: &mut TestRng) -> String {
        let words = (0..2 + rng.below(3)).map(|_| match rng.below(5) {
            0 => hostile(rng, 3),
            _ => WORDS[rng.below(WORDS.len() as u64) as usize].to_owned(),
        });
        words.collect::<Vec<_>>().join(" ")
    }

    fn value(rng: &mut TestRng, kind: AttrKind) -> Option<AttrValue> {
        let pick = |rng: &mut TestRng, n: usize| rng.below(n as u64) as usize;
        Some(match kind {
            _ if rng.below(6) == 0 => return None,
            AttrKind::Text => AttrValue::Text(title(rng)),
            AttrKind::TextList => {
                AttrValue::TextList((0..rng.below(3)).map(|_| hostile(rng, 6)).collect())
            }
            AttrKind::Int => {
                let edges = [i64::MIN, i64::MAX, -(1 << 53) - 1, 1 << 53, 0, -7];
                AttrValue::Int(match pick(rng, edges.len() + 1) {
                    i if i < edges.len() => edges[i],
                    _ => rng.next_u64() as i64,
                })
            }
            AttrKind::Real => {
                let edges = [
                    0.1 + 0.2,
                    -0.0,
                    1e300,
                    5e-324,
                    9_007_199_254_740_993.0,
                    -2.5,
                ];
                AttrValue::Real(match pick(rng, edges.len() + 1) {
                    i if i < edges.len() => edges[i],
                    _ => rng.unit_f64() * 1e6 - 5e5,
                })
            }
            AttrKind::Year => AttrValue::Year(rng.below(3000) as u16),
        })
    }

    /// An id unique by its number, whatever its hostile tail.
    fn fresh_id(rng: &mut TestRng, n: usize) -> String {
        format!("{n}:{}", hostile(rng, 3))
    }

    fn lds_name(i: usize) -> String {
        format!("Publication@{}", PDS[i])
    }

    /// Histories over a generated registry: matches, composes, installs
    /// (some with an association type, some empty), deltas that add,
    /// update and tombstone, and derived entries with recipes.
    struct Histories;

    impl Strategy for Histories {
        type Value = (SourceRegistry, Vec<Step>);

        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let mut reg = SourceRegistry::new();
            let mut ids: Vec<Vec<String>> = Vec::new();
            let mut next_id = 0;
            for (i, pds) in PDS.into_iter().enumerate() {
                let schema = SCHEMA.iter().map(|(n, k)| AttrDef::new(*n, *k)).collect();
                let mut lds = LogicalSource::new(pds, ObjectType::new("Publication"), schema);
                let n = if i == 2 && rng.below(2) == 0 {
                    0
                } else {
                    1 + rng.below(6)
                };
                let mut here = Vec::new();
                for _ in 0..n {
                    next_id += 1;
                    let id = fresh_id(rng, next_id);
                    let values = SCHEMA.iter().map(|(_, k)| value(rng, *k)).collect();
                    lds.insert(ObjectInstance::with_values(id.clone(), values))
                        .unwrap();
                    here.push(id);
                }
                ids.push(here);
                reg.register(lds).unwrap();
            }
            let boot: Vec<u32> = ids.iter().map(|v| v.len() as u32).collect();
            let mut names: Vec<String> = Vec::new();
            let mut steps = Vec::new();
            for k in 0..3 + rng.below(10) {
                let tail = if rng.below(3) == 0 {
                    hostile(rng, 3)
                } else {
                    String::new()
                };
                let (d, r) = (rng.below(3) as usize, rng.below(3) as usize);
                let known = |rng: &mut TestRng, names: &[String]| match names {
                    [] => "missing".to_owned(),
                    _ => names[rng.below(names.len() as u64) as usize].clone(),
                };
                let step = match rng.below(6) {
                    0 | 1 => {
                        let name = format!("m{k}{tail}");
                        let sim = ["trigram", "trigram", "jaro", "tfidf"][rng.below(4) as usize];
                        let t = 0.2 + rng.unit_f64() * 0.4;
                        let (d, r) = (lds_name(d), lds_name(r));
                        names.push(name.clone());
                        Step::Logged(protocol::match_request(
                            &name, &d, &r, "title", "title", sim, t,
                        ))
                    }
                    2 => {
                        let name = format!("c{k}{tail}");
                        let (left, right) = (known(rng, &names), known(rng, &names));
                        let f = ["min", "max", "weighted:0.25"][rng.below(3) as usize];
                        let g = ["max", "relative-left"][rng.below(2) as usize];
                        names.push(name.clone());
                        Step::Logged(protocol::compose_request(&name, &left, &right, f, g))
                    }
                    3 => {
                        let name = format!("i{k}{tail}");
                        let fits = boot[d] > 0 && boot[r] > 0;
                        let rows: Vec<(u32, u32, f64)> = (0..if fits { rng.below(5) } else { 0 })
                            .map(|_| {
                                let (a, b) = (rng.below(boot[d].into()), rng.below(boot[r].into()));
                                (a as u32, b as u32, rng.unit_f64())
                            })
                            .collect();
                        let assoc = (rng.below(2) == 0).then(|| hostile(rng, 4));
                        names.push(name.clone());
                        let (d, r) = (lds_name(d), lds_name(r));
                        Step::Logged(protocol::install_request(
                            &name,
                            &d,
                            &r,
                            &rows,
                            assoc.as_deref(),
                        ))
                    }
                    4 => {
                        let ops: Vec<DeltaOp> = (0..1 + rng.below(3))
                            .map(|_| match rng.below(4) {
                                0 | 1 => {
                                    next_id += 1;
                                    let id = fresh_id(rng, next_id);
                                    ids[d].push(id.clone());
                                    let fields = SCHEMA.iter().filter_map(|(n, k)| {
                                        Some(((*n).to_owned(), value(rng, *k)?))
                                    });
                                    DeltaOp::Add {
                                        id,
                                        fields: fields.collect(),
                                    }
                                }
                                2 => DeltaOp::Remove {
                                    id: known(rng, &ids[d]),
                                },
                                _ => {
                                    let (attr, kind) = SCHEMA[rng.below(5) as usize];
                                    DeltaOp::Update {
                                        id: known(rng, &ids[d]),
                                        attr: attr.to_owned(),
                                        value: value(rng, kind),
                                    }
                                }
                            })
                            .collect();
                        Step::Logged(protocol::delta_request(&lds_name(d), &ops))
                    }
                    _ => {
                        let name = format!("d{k}{tail}");
                        let (left, right) = (known(rng, &names), known(rng, &names));
                        names.push(name.clone());
                        let recipe = match rng.below(3) {
                            0 => Recipe::Union { left, right },
                            1 => Recipe::Intersect { left, right },
                            _ => Recipe::Merge {
                                inputs: vec![left, right],
                                f: MergeFn::Weighted(vec![0.75, 0.25]),
                                missing: MissingPolicy::Zero,
                            },
                        };
                        Step::Derive(name, recipe)
                    }
                };
                steps.push(step);
            }
            (reg, steps)
        }
    }

    /// Run `steps` from a machine over `reg`; the WAL sequence number of
    /// the last step.
    fn run(reg: &SourceRegistry, steps: &[Step]) -> (State, u64) {
        let mut state = State::new(reg.clone(), Parallelism::sequential());
        for (seq, step) in (1..).zip(steps) {
            match step {
                Step::Logged(req) => drop(state.apply_json(req, Some(seq))),
                Step::Derive(name, recipe) => {
                    drop(state.repository.store_derived(name.clone(), recipe.clone()))
                }
            }
        }
        (state, steps.len() as u64)
    }

    /// Restore `text` into two machines over `reg`, one by the streamed
    /// walk, one by the tree oracle: the same outcome — the same
    /// sequence number and then the same state, or a refusal of the same
    /// kind. A syntax refusal commits nothing. Returns the walk's outcome.
    fn agree(reg: &SourceRegistry, text: &str) -> Result<u64, ImageError> {
        let boot = || State::new(reg.clone(), Parallelism::sequential());
        let (mut walked, mut built) = (boot(), boot());
        let (w, b) = (walked.restore(text), built.restore_oracle(text));
        match (&w, &b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x, y);
                assert_eq!(walked.image_text(*x), built.image_text(*y), "{text}");
                assert_eq!(walked.command_counts(), built.command_counts());
            }
            (Err(ImageError::Syntax(_)), Err(ImageError::Syntax(_))) => {
                assert_eq!(walked.image_text(0), boot().image_text(0), "{text}");
            }
            (Err(ImageError::Invalid(_)), Err(ImageError::Invalid(_))) => {}
            _ => panic!("streamed {w:?} but tree {b:?} for {text}"),
        }
        w
    }

    /// Where a value sits in a tree: member or item indices from the root.
    type Path = Vec<usize>;

    fn paths(j: &Json, at: &mut Path, out: &mut Vec<Path>) {
        let children: Vec<&Json> = match j {
            Json::Arr(items) => items.iter().collect(),
            Json::Obj(members) => members.iter().map(|(_, v)| v).collect(),
            _ => return,
        };
        for (i, child) in children.into_iter().enumerate() {
            at.push(i);
            out.push(at.clone());
            paths(child, at, out);
            at.pop();
        }
    }

    /// The mutations of one value: removed, replaced by a value of each
    /// type, for an object an extra member and its members reordered,
    /// and for a member a later duplicate of it (which the tree's `get`
    /// never reads).
    const MUTATIONS: usize = 11;

    fn mutate(root: &Json, path: &[usize], how: usize) -> Json {
        let mut root = root.clone();
        let (last, parent) = path.split_last().expect("a non-root path");
        let mut node = &mut root;
        for &i in parent {
            node = match node {
                Json::Arr(items) => &mut items[i],
                Json::Obj(members) => &mut members[i].1,
                _ => unreachable!("paths run through containers"),
            };
        }
        let wrong = [
            Json::Null,
            Json::Bool(true),
            Json::Num(1.5),
            Json::Num(0.0),
            Json::Str("x".into()),
            Json::Arr(vec![]),
            Json::Obj(vec![]),
        ];
        let value = match node {
            Json::Arr(items) if how == 0 => {
                items.remove(*last);
                return root;
            }
            Json::Obj(members) if how == 0 => {
                members.remove(*last);
                return root;
            }
            Json::Obj(members) if how == 10 => {
                members.push((members[*last].0.clone(), Json::Str("later".into())));
                return root;
            }
            Json::Arr(items) => &mut items[*last],
            Json::Obj(members) => &mut members[*last].1,
            _ => unreachable!("paths run through containers"),
        };
        match (how, value) {
            (1..=7, value) => *value = wrong[how - 1].clone(),
            (8, Json::Obj(members)) => members.push(("extra".into(), Json::Num(1.0))),
            (9, Json::Obj(members)) => members.reverse(),
            _ => {}
        }
        root
    }

    /// The byte offsets of every structural character outside strings.
    fn boundaries(text: &str) -> Vec<usize> {
        let (mut inside, mut escaped, mut out) = (false, false, Vec::new());
        for (i, b) in text.bytes().enumerate() {
            match b {
                _ if escaped => escaped = false,
                b'\\' if inside => escaped = true,
                b'"' => inside = !inside,
                b',' | b':' | b'{' | b'}' | b'[' | b']' if !inside => out.push(i),
                _ => {}
            }
        }
        out
    }

    proptest! {
        /// The writer, at every step of a generated history, writes the
        /// bytes the tree image encodes to.
        #[test]
        fn the_streamed_image_is_the_tree_image(history in Histories) {
            let (reg, steps) = history;
            for cut in 0..=steps.len() {
                let (state, seq) = run(&reg, &steps[..cut]);
                prop_assert_eq!(state.image_text(seq), state.image(seq).to_string());
            }
        }

        /// The walk restores what the tree restore restores — the image
        /// of a generated history, and that image mutated: a value
        /// removed or of the wrong type, members added, reordered or
        /// repeated, one byte changed, the text truncated.
        #[test]
        fn the_streamed_restore_is_the_tree_restore(history in Histories, picks in prop::collection::vec(0u64..u64::MAX, 24..25)) {
            let (reg, steps) = history;
            let (state, seq) = run(&reg, &steps);
            let text = state.image_text(seq);
            prop_assert_eq!(agree(&reg, &text), Ok(seq));
            let tree = Json::parse(&text).unwrap();
            let mut all = Vec::new();
            paths(&tree, &mut Vec::new(), &mut all);
            let cuts = boundaries(&text);
            for (i, pick) in picks.into_iter().enumerate() {
                match i % 4 {
                    3 => drop(agree(&reg, &text[..cuts[pick as usize % cuts.len()]])),
                    2 => {
                        // One ASCII byte turned into another: a control
                        // character, a quote, a backslash or a bracket
                        // anywhere, inside a string or out.
                        let mut bytes = text.clone().into_bytes();
                        let at = pick as usize % bytes.len();
                        if bytes[at].is_ascii() {
                            bytes[at] = [0x01, b'"', b'\\', b'[', b'}', b'x'][(pick >> 32) as usize % 6];
                        }
                        drop(agree(&reg, &String::from_utf8(bytes).unwrap()));
                    }
                    _ => {
                        let path = &all[pick as usize % all.len()];
                        let how = (pick >> 32) as usize % MUTATIONS;
                        drop(agree(&reg, &mutate(&tree, path, how).to_string()));
                    }
                }
            }
        }
    }

    /// A fixed history's image, every mutation of every value, and a
    /// truncation at every member boundary: the walk and the tree agree
    /// on each. So does an image with a pre-shard counter object (no
    /// `repl_delta`), which restores with no replicas counted.
    #[test]
    fn every_mutation_of_an_image_restores_as_the_tree_restores() {
        let mut live = machine();
        for (i, req) in [
            match_cmd("m1", "Publication@DBLP", "Publication@ACM"),
            match_cmd("m2", "Publication@ACM", "Publication@GS"),
            add("g9", "The a1 system paper"),
            protocol::compose_request("c", "m1", "m2", "weighted:0.25", "relative-left"),
            protocol::delta_request("Publication@GS", &[DeltaOp::Remove { id: "g1".into() }]),
        ]
        .iter()
        .enumerate()
        {
            assert!(ok(&live.apply_json(req, Some(i as u64 + 1))));
        }
        let text = live.image_text(5);
        let reg = registry(3);
        assert_eq!(agree(&reg, &text), Ok(5));
        assert_eq!(agree(&reg, &format!(" \n{text}\t ")), Ok(5));
        assert!(matches!(
            agree(&reg, &format!("{text} x")),
            Err(ImageError::Syntax(_))
        ));
        let tree = Json::parse(&text).unwrap();
        let mut all = Vec::new();
        paths(&tree, &mut Vec::new(), &mut all);
        let mut kinds = [0usize; 3];
        for path in &all {
            for how in 0..MUTATIONS {
                let outcome = agree(&reg, &mutate(&tree, path, how).to_string());
                kinds[match outcome {
                    Ok(_) => 0,
                    Err(ImageError::Syntax(_)) => 1,
                    Err(ImageError::Invalid(_)) => 2,
                }] += 1;
            }
        }
        assert!(kinds[0] > 0 && kinds[2] > 0, "{kinds:?}");
        for cut in boundaries(&text) {
            for end in [cut, cut + 1] {
                if end < text.len() {
                    let outcome = agree(&reg, &text[..end]);
                    assert!(matches!(outcome, Err(ImageError::Syntax(_))), "{end}");
                }
            }
        }

        let old = text.replacen(r#","repl_delta":0}"#, "}", 1);
        assert_ne!(old, text);
        let mut restored = machine();
        assert_eq!(agree(&reg, &old), Ok(5));
        assert_eq!(restored.restore(&old), Ok(5));
        assert_eq!(restored.image_text(5), text);
    }
}

//! The state machine: everything a shard *is*, and the four things
//! that can be done to it.
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
//! * [`State::read`] — one read (`ping`, `query`, `batch_query`,
//!   `stats`) against a repository snapshot;
//! * [`State::image`] / [`State::restore`] — the whole logical state
//!   as one deterministic JSON document, and back.
//!
//! Both `apply` and `read` reach their handler through **the
//! dispatch**, `handler`: the only place a [`Cmd`] is matched to the
//! code that runs it. Every operation is deterministic — parallel
//! matching merges shard results in input order, repository version
//! stamps are assigned in command order, and a command that fails
//! re-fails identically against the same state — so two machines fed
//! the same records end bit-identical: same instances, same
//! correspondences, same version stamps, same counters. That is what
//! replay, recovery and the sharded ≡ single-shard gates rest on.
//!
//! [`Engine`]: crate::engine::Engine

use std::collections::BTreeMap;
use std::fmt;

use moma_core::blocking::Blocking;
use moma_core::exec::Parallelism;
use moma_core::matchers::{AttributeMatcher, MatchContext};
use moma_core::{DeltaMatchState, Mapping, MappingKind, MappingRepository, Recipe};
use moma_model::{AttrDef, LdsId, LogicalSource, ObjectInstance, ObjectType, SourceRegistry};
use moma_simstring::SimFn;

use crate::commands::{self, Cmd, Command};
use crate::json::Json;
use crate::protocol::{self, err_response, respond, unknown_mapping};

/// Durable command counters; restored exactly by replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandCounts {
    /// `match` commands logged (successful or not).
    pub matches: u64,
    /// `compose` commands logged (including coordinator `install`s of
    /// cross-shard compose results).
    pub composes: u64,
    /// `delta` commands logged with this engine as the accounting shard.
    pub deltas: u64,
    /// Replica `delta` records (`"repl": true`) fanned out to this shard
    /// by the router so its mappings stay patched; excluded from the
    /// aggregate `commands.delta` count.
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

    fn to_json(self) -> Json {
        Json::obj(self.rows().map(|(k, v)| (k, Json::Uint(v))).to_vec())
    }
}

/// The state machine. See the module docs.
pub struct State {
    registry: SourceRegistry,
    repository: MappingRepository,
    /// Primed matcher states by mapping name (ordered, so delta
    /// application order is deterministic).
    states: BTreeMap<String, DeltaMatchState>,
    /// Original `match` request per primed mapping: what an image
    /// carries instead of the matcher states, and what a restore
    /// re-primes them from.
    match_requests: BTreeMap<String, Json>,
    commands: CommandCounts,
    par: Parallelism,
    /// Mappings the last applied `delta` re-matched in full instead of
    /// patching, with their running totals — not logical state, an
    /// effect left for the caller to report (the engine warns the
    /// operator; replay ignores it).
    pub(crate) full_rematched: Vec<(String, u64)>,
}

/// What runs a command: a write handler (which also gets the record's
/// WAL sequence number, when there is a WAL) or a read handler.
enum Handler {
    Write(fn(&mut State, &Command, &Json, Option<u64>) -> Result<Json, String>),
    Read(fn(&State, &Command, &Json) -> Result<Json, String>),
}

/// **The dispatch.** `None` for what the machine does not run: the
/// engine's I/O and framing (`checkpoint`, `dump`, `batch_delta`) and
/// the server's own commands.
fn handler(cmd: Cmd) -> Option<Handler> {
    Some(match cmd {
        Cmd::Match => Handler::Write(State::match_and_prime),
        Cmd::Compose => Handler::Write(State::compose),
        Cmd::Delta => Handler::Write(State::delta),
        Cmd::Install => Handler::Write(State::install),
        Cmd::Ping => Handler::Read(|_, _, _| Ok(Json::obj(vec![("ok", Json::Bool(true))]))),
        Cmd::Query => Handler::Read(State::query),
        Cmd::BatchQuery => Handler::Read(State::batch_query),
        Cmd::Stats => Handler::Read(|state, _, _| Ok(state.stats())),
        Cmd::BatchDelta
        | Cmd::Checkpoint
        | Cmd::Dump
        | Cmd::Shutdown
        | Cmd::DebugPanic
        | Cmd::DebugSleepWrite => return None,
    })
}

/// A matcher context that reads nothing but its arguments
/// (`MatchContext::new` would consult the environment).
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
            match_requests: BTreeMap::new(),
            commands: CommandCounts::default(),
            par,
            full_rematched: Vec::new(),
        }
    }

    /// Apply one logged write; `seq` is its WAL sequence number, if it
    /// has one. A failure is a reply like any other: it changed the
    /// counters, and it re-fails the same way on replay.
    pub fn apply(&mut self, req: &Json, seq: Option<u64>) -> Json {
        let name = req.str_field("cmd").unwrap_or_default();
        let found = commands::lookup(name).and_then(|c| Some((c, handler(c.cmd)?)));
        respond(match found {
            Some((command, Handler::Write(run))) => run(self, command, req, seq),
            _ => Err(format!("`{name}` is not a mutating command")),
        })
    }

    /// Answer one read against the current state.
    pub fn read(&self, req: &Json) -> Json {
        match commands::of_request(req) {
            Ok(command) => self.read_as(command, req),
            Err(e) => err_response(&e),
        }
    }

    /// [`State::read`] for a caller that has looked `command` up already.
    pub(crate) fn read_as(&self, command: &Command, req: &Json) -> Json {
        respond(match handler(command.cmd) {
            Some(Handler::Read(run)) => run(self, command, req),
            _ if command.class.takes_write_lock() => {
                Err(format!("`{}` must go through the write path", command.name))
            }
            _ => Err(commands::unknown_command(command.name)),
        })
    }

    // ---- writes -------------------------------------------------------

    /// Parse a `match` request into a matcher plus resolved domain and
    /// range handles.
    fn build_matcher(
        &self,
        command: &Command,
        req: &Json,
    ) -> Result<(AttributeMatcher, LdsId, LdsId), String> {
        let domain = command.field(req, "domain", Json::as_str)?;
        let range = command.field(req, "range", Json::as_str)?;
        let domain_attr = req.str_field("domain_attr").unwrap_or("title");
        let range_attr = req.str_field("range_attr").unwrap_or(domain_attr);
        let sim = req.str_field("sim").unwrap_or("trigram");
        let threshold = req.num_field("threshold").unwrap_or(0.7);
        if !(0.0..=1.0).contains(&threshold) {
            return Err(format!("threshold {threshold} must be in [0, 1]"));
        }
        let d = self.resolve("domain", domain)?;
        let r = self.resolve("range", range)?;
        let matcher = if sim == "tfidf" {
            AttributeMatcher::tfidf(domain_attr, range_attr, threshold)
        } else {
            let f = SimFn::parse(sim).ok_or_else(|| format!("unknown similarity `{sim}`"))?;
            AttributeMatcher::new(domain_attr, range_attr, f, threshold)
        };
        let blocking = match req.str_field("blocking") {
            Some(b) => Blocking::parse(b).ok_or_else(|| format!("unknown blocking `{b}`"))?,
            None => Blocking::auto_for(&matcher.sim),
        };
        Ok((matcher.with_blocking(blocking), d, r))
    }

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

    fn match_and_prime(
        &mut self,
        command: &Command,
        req: &Json,
        _seq: Option<u64>,
    ) -> Result<Json, String> {
        self.commands.matches += 1;
        let name = command.field(req, "name", Json::as_str)?;
        let (matcher, d, r) = self.build_matcher(command, req)?;
        let primed = matcher.prime(&context(&self.registry, self.par), d, r);
        let state = primed.map_err(|e| e.to_string())?;
        let rows = state.mapping().len();
        let incremental = state.is_incremental();
        self.repository.store_as(name, state.mapping().clone());
        self.states.insert(name.to_owned(), state);
        self.match_requests.insert(name.to_owned(), req.clone());
        Ok(self.stored(name, rows, Some(("incremental", incremental))))
    }

    fn compose(
        &mut self,
        command: &Command,
        req: &Json,
        _seq: Option<u64>,
    ) -> Result<Json, String> {
        self.commands.composes += 1;
        let name = command.field(req, "name", Json::as_str)?;
        let left = command.field(req, "left", Json::as_str)?.to_owned();
        let right = command.field(req, "right", Json::as_str)?.to_owned();
        let (f, g) = protocol::compose_params(req)?;
        let recipe = Recipe::Compose { left, right, f, g };
        let stored = self.repository.store_derived(name, recipe);
        let mapping = stored.map_err(|e| e.to_string())?;
        self.release_matcher(name);
        Ok(self.stored(name, mapping.len(), None))
    }

    /// Overwrite means overwrite: a name that `compose` or `install`
    /// stores over stops being a primed matcher, so no later delta
    /// patches the matcher's mapping back over the new entry and no
    /// checkpoint re-primes it.
    fn release_matcher(&mut self, name: &str) {
        self.states.remove(name);
        self.match_requests.remove(name);
    }

    /// Execute an `install`: store a literal, pre-computed mapping table
    /// under `name`. This is how the shard router materializes a
    /// cross-shard compose — the coordinator gathers the input tables
    /// from their shards, computes the compose itself and logs the
    /// *result* here, so replay never has to reach across shards. The
    /// installed mapping is a point-in-time snapshot: it records its
    /// input versions in the response but carries no recipe, so later
    /// deltas do not refresh it (re-issue the compose to refresh).
    fn install(
        &mut self,
        command: &Command,
        req: &Json,
        _seq: Option<u64>,
    ) -> Result<Json, String> {
        self.commands.composes += 1;
        let arenas: Vec<usize> = self.registry.iter().map(|(_, lds)| lds.len()).collect();
        let what = format!("{} request", command.name);
        let mapping = self.literal_mapping(&what, req, &arenas)?;
        let (name, rows) = (mapping.name.clone(), mapping.len());
        self.repository.store_as(&name, mapping);
        self.release_matcher(&name);
        Ok(self.stored(&name, rows, Some(("installed", true))))
    }

    /// The literal mapping — `name`, `domain`, `range`, `rows`, `assoc`
    /// — of an `install` record or a checkpointed entry, its rows
    /// checked against `arenas` (arena length by source).
    fn literal_mapping(&self, what: &str, j: &Json, arenas: &[usize]) -> Result<Mapping, String> {
        let name = j.need(what, "name", Json::as_str)?;
        let domain = self.resolve("domain", j.need(what, "domain", Json::as_str)?)?;
        let range = self.resolve("range", j.need(what, "range", Json::as_str)?)?;
        let table = protocol::rows_from_json(
            format_args!("{what} `{name}`"),
            j.need_arr(what, "rows")?,
            arenas[domain.0 as usize],
            arenas[range.0 as usize],
        )?;
        Ok(match j.get("assoc") {
            Some(Json::Str(t)) => Mapping::association(name, t.clone(), domain, range, table),
            _ => Mapping::same(name, domain, range, table),
        })
    }

    fn delta(&mut self, _: &Command, req: &Json, seq: Option<u64>) -> Result<Json, String> {
        // Replica copies fanned out by the shard router carry
        // `"repl": true` and are tallied separately so the aggregate
        // `commands.delta` counts each client delta once, on its
        // accounting shard.
        if req.get("repl").and_then(Json::as_bool) == Some(true) {
            self.commands.repl_deltas += 1;
        } else {
            self.commands.deltas += 1;
        }
        self.full_rematched.clear();
        let delta = protocol::parse_delta(&self.registry, req)?;
        let applied = self.registry.apply_delta(&delta);
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
            if full {
                self.full_rematched
                    .push((name.clone(), state.full_rematches()));
            }
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
            self.repository.patch(name, mapping);
        }
        let refreshed = self.repository.refresh_stale();
        let refreshed = refreshed.map_err(|e| format!("refresh stale: {e}"))?;

        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("seq", seq.map(Json::Uint).unwrap_or(Json::Null)),
            (
                "applied",
                Json::obj(vec![
                    ("added", Json::Num(applied.added.len() as f64)),
                    ("removed", Json::Num(applied.removed.len() as f64)),
                    ("updated", Json::Num(applied.updated.len() as f64)),
                    ("skipped", Json::Num(applied.skipped as f64)),
                ]),
            ),
            ("mappings", Json::Arr(mappings_out)),
            ("untouched", Json::Num(untouched as f64)),
            (
                "refreshed",
                Json::Arr(refreshed.into_iter().map(Json::Str).collect()),
            ),
        ]))
    }

    // ---- reads --------------------------------------------------------

    fn query(&self, command: &Command, req: &Json) -> Result<Json, String> {
        let name = command.field(req, "name", Json::as_str)?;
        let limit = req.get("limit").and_then(Json::as_u64).unwrap_or(100) as usize;
        let min_sim = req.num_field("min_sim").unwrap_or(0.0);

        let snapshot = self.repository.snapshot();
        let Some(entry) = snapshot.iter().find(|e| e.name == name) else {
            let known = snapshot.iter().map(|e| e.name.as_str());
            return Err(unknown_mapping(name, known));
        };
        let dom = self.registry.lds(entry.mapping.domain);
        let rng = self.registry.lds(entry.mapping.range);
        let id_of = |lds: &LogicalSource, idx: u32| -> String {
            // The arena is append-only, so a snapshot row always
            // resolves — even if the instance was tombstoned after the
            // snapshot was taken.
            lds.get(idx).map(|i| i.id.clone()).unwrap_or_default()
        };
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
            ("domain", Json::Str(dom.name())),
            ("range", Json::Str(rng.name())),
            ("total", Json::Num(total as f64)),
            ("rows", Json::Arr(rows)),
        ]))
    }

    /// Execute a `batch_query`: N queries amortized over one frame and
    /// one read-lock acquisition. Each item carries the same fields as a
    /// single `query` request (minus `cmd`); an item that fails gets an
    /// inline error object while the batch itself still succeeds.
    fn batch_query(&self, command: &Command, req: &Json) -> Result<Json, String> {
        let query = Cmd::Query.row();
        let items = command.items(req)?.iter();
        let results: Vec<Json> = items.map(|item| respond(self.query(query, item))).collect();
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("count", Json::Uint(results.len() as u64)),
            ("results", Json::Arr(results)),
        ]))
    }

    /// The machine's `stats` object: counters, sources, mappings. (The
    /// engine adds its WAL section, the server its own counters.)
    pub fn stats(&self) -> Json {
        let sources = self.registry.iter().map(|(_, lds)| {
            Json::obj(vec![
                ("name", Json::Str(lds.name())),
                ("len", Json::Num(lds.len() as f64)),
                ("live", Json::Num(lds.live_len() as f64)),
            ])
        });
        let mappings = self.repository.snapshot().into_iter().map(|e| {
            let stale = self.repository.is_stale(&e.name);
            let mut fields = vec![
                ("name", Json::Str(e.name.clone())),
                ("version", Json::Uint(e.version)),
                ("rows", Json::Num(e.mapping.len() as f64)),
                ("derived", Json::Bool(e.derived)),
                ("stale", Json::Bool(stale)),
            ];
            if let Some(state) = self.states.get(&e.name) {
                fields.push(("incremental", Json::Bool(state.is_incremental())));
                fields.push(("full_rematches", Json::Uint(state.full_rematches())));
            }
            Json::obj(fields)
        });
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("commands", self.commands.to_json()),
            ("sources", Json::Arr(sources.collect())),
            ("mappings", Json::Arr(mappings.collect())),
        ])
    }

    // ---- image and restore ---------------------------------------------

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
    pub fn image(&self, seq: u64) -> Json {
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
            (
                "matchers",
                Json::Obj(self.match_requests.clone().into_iter().collect()),
            ),
        ])
    }

    /// Become the state `image` describes; returns the WAL sequence
    /// number it covers. The image is parsed and validated against the
    /// booted registry (same sources, in order) in full before any of
    /// it is committed.
    pub fn restore(&mut self, image: &Json) -> Result<u64, String> {
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
            let mapping = self.literal_mapping(ENTRY, mj, &arenas)?;
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
        self.states.clear();
        self.match_requests.clear();
        for (name, req) in matchers {
            let primed = self.apply(req, None);
            if let Some(e) = primed.str_field("error") {
                return Err(format!("re-prime `{name}`: {e}"));
            }
        }
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

    /// `(mapping, domain source, range source)` names for every primed
    /// matcher state, in deterministic (BTreeMap) order. The shard
    /// router rebuilds its ownership index from this after recovery:
    /// whatever shard a state recovered on is, by construction, the
    /// shard that owns it.
    pub fn state_endpoints(&self) -> Vec<(String, String, String)> {
        let ends = self.match_requests.iter().filter_map(|(name, req)| {
            let d = req.str_field("domain")?;
            let r = req.str_field("range")?;
            Some((name.clone(), d.to_owned(), r.to_owned()))
        });
        ends.collect()
    }
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

#[cfg(test)]
mod tests {
    use super::*;
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
            let reply = straight.apply(req, seq);
            assert!(ok(&reply), "{reply}");
            assert_eq!(cut.apply(req, seq), reply);
        }
        let image = Json::parse(&cut.image(4).to_string()).expect("an image is JSON");
        let mut cut = machine();
        assert_eq!(cut.restore(&image), Ok(4));
        assert_eq!(cut.image(4).to_string(), straight.image(4).to_string());
        for (i, req) in tail.iter().enumerate() {
            let seq = Some(i as u64 + 5);
            let reply = straight.apply(req, seq);
            assert!(ok(&reply), "{reply}");
            assert_eq!(cut.apply(req, seq), reply);
        }
        assert_eq!(cut.image(6).to_string(), straight.image(6).to_string());
        let query = protocol::query_request("c", 0, None);
        assert_eq!(cut.read(&query), straight.read(&query));
        assert_eq!(cut.stats(), straight.stats());
    }

    /// A `match` request naming a 0-gram measure is refused like any
    /// unknown similarity — it used to be accepted, and panicked in the
    /// tokenizer at the first pair scored.
    #[test]
    fn zero_length_qgrams_are_refused_on_the_wire() {
        let mut state = machine();
        for sim in [
            "qgram:0",
            "qgramjaccard:0",
            "qgramcosine:0",
            "qgramoverlap:0",
        ] {
            let (d, r) = ("Publication@DBLP", "Publication@ACM");
            let req = protocol::match_request("m", d, r, "title", "title", sim, 0.5);
            let reply = state.apply(&req, Some(1));
            assert!(!ok(&reply), "{reply}");
            let error = reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_default();
            assert!(error.contains("unknown similarity `"), "{reply}");
        }
        assert!(ok(&state.apply(
            &match_cmd("m", "Publication@DBLP", "Publication@ACM"),
            Some(1)
        )));
    }

    /// Persisted rows are outside input: an index that does not fit
    /// `u32` (it used to wrap — 4294967301 installed index 5), one past
    /// its source's arena (it used to render as an empty id in
    /// `query`) and a non-finite sim are each refused, in a replayed
    /// `install` record and in a checkpoint image alike.
    #[test]
    fn persisted_rows_are_checked_against_the_arenas() {
        let mut live = machine();
        assert!(ok(&live.apply(
            &match_cmd("m1", "Publication@DBLP", "Publication@ACM"),
            None
        )));
        let good = live.image(1).to_string();
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
            let reply = machine().apply(&Json::parse(&record).unwrap(), Some(1));
            let error = reply.str_field("error").unwrap_or_default();
            assert!(error.contains("[domain, range, sim]"), "{bad}: {reply}");

            let image = format!("{}{bad},{}", &good[..rows_at], &good[rows_at..]);
            let refused = machine().restore(&Json::parse(&image).unwrap());
            let error = refused.expect_err(bad);
            assert!(error.contains("[domain, range, sim]"), "{bad}: {error}");
        }
        // The arena a checkpointed row must fit is the restored one: a
        // row naming an instance a delta added after boot is fine.
        assert!(ok(&live.apply(
            &match_cmd("m2", "Publication@ACM", "Publication@GS"),
            None
        )));
        assert!(ok(&live.apply(&add("g9", "The a1 system paper"), None)));
        let image = Json::parse(&live.image(3).to_string()).unwrap();
        assert!(image.to_string().contains("[0,1,"), "a row into g9");
        assert_eq!(machine().restore(&image), Ok(3));
    }

    /// `int` values are exact over all of `i64` — through an image and
    /// back — and a number that is no `i64` is refused, not truncated.
    #[test]
    fn int_attributes_round_trip_exactly() {
        for cites in [i64::MAX, i64::MIN, -(1 << 53) - 1, (1 << 53) + 1, -42, 0] {
            let boot = State::new(registry(cites), Parallelism::sequential());
            let text = boot.image(0).to_string();
            assert!(
                text.contains(&format!(r#"{{"t":"int","v":{cites}}}"#)),
                "{text}"
            );
            let mut restored = machine();
            assert_eq!(restored.restore(&Json::parse(&text).unwrap()), Ok(0));
            let cell = restored.registry().lds(LdsId(0)).get(0).unwrap().values[1].clone();
            assert_eq!(cell, Some(AttrValue::Int(cites)));
            assert_eq!(restored.image(0).to_string(), text);
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
}

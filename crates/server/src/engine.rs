//! The serving engine: registry + repository + primed delta states,
//! with a write-ahead log in front of every mutating command.
//!
//! ## Durability contract
//!
//! Mutating commands (`match`, `compose`, `delta`) are appended to the
//! [`Wal`] and `fsync`'d **before** they are applied; the client's
//! response is sent after apply. An acknowledged command is therefore
//! durable, and replaying the log re-executes exactly the commands the
//! pre-crash engine executed, in order. Because every engine operation
//! is deterministic — parallel matching and compose merge shard results
//! in input order, repository version stamps are assigned in command
//! order, and command *failures* re-fail identically against the same
//! state — the replayed engine is bit-identical to the pre-crash one:
//! same instances, same correspondences, same version stamps, same
//! counters.
//!
//! ## Concurrency
//!
//! The engine itself is single-writer: the server wraps it in an
//! `RwLock` and routes mutating commands through the write lock, so WAL
//! order equals apply order. Read commands (`query`, `stats`, `dump`)
//! go through the read lock and start from
//! [`MappingRepository::snapshot`], which captures every entry (mapping
//! `Arc` + version stamp) under one lock acquisition — a reader sees a
//! consistent point-in-time image and is never exposed to a
//! half-applied delta (see `tests/snapshot_isolation.rs`).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use moma_core::blocking::Blocking;
use moma_core::exec::Parallelism;
use moma_core::matchers::{AttributeMatcher, MatchContext};
use moma_core::ops::compose::{PathAgg, PathCombine};
use moma_core::repository::SnapshotEntry;
use moma_core::{DeltaMatchState, Mapping, MappingKind, MappingRepository, Recipe};
use moma_model::{
    AttrDef, AttrKind, LdsId, LogicalSource, ObjectInstance, ObjectType, SourceRegistry,
};
use moma_simstring::SimFn;
use moma_table::MappingTable;

use crate::checkpoint;
use crate::commands::{self, Cmd};
use crate::json::Json;
use crate::protocol;
use crate::wal::{RotationPolicy, Wal};

/// Minimum spacing between repeated full-re-match warnings for the same
/// mapping (see [`Engine::warn_full_rematch`]).
const WARN_PERIOD: Duration = Duration::from_secs(30);

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

/// Summary of a `--replay` startup.
#[derive(Debug, Clone)]
pub struct ReplaySummary {
    /// Records re-executed (only those *after* the restored checkpoint).
    pub replayed: usize,
    /// Torn-tail bytes dropped from the log.
    pub dropped_bytes: u64,
    /// Why log decoding stopped before EOF, if it did.
    pub stop_reason: Option<String>,
    /// Replayed commands that (deterministically) re-failed.
    pub failed: usize,
    /// Sequence number of the checkpoint recovery restored from (0 =
    /// no checkpoint, full replay).
    pub checkpoint_seq: u64,
    /// Surviving records skipped because the checkpoint covers them.
    pub skipped: usize,
    /// Live WAL segment files after recovery.
    pub segments: usize,
}

/// When to rotate WAL segments and publish automatic checkpoints.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityPolicy {
    /// Seal the active segment after this many records (0 = unlimited).
    pub segment_records: u64,
    /// Seal the active segment at this many bytes (0 = unlimited).
    pub segment_bytes: u64,
    /// Auto-checkpoint after this many mutating commands (0 = off).
    pub checkpoint_every_records: u64,
    /// Auto-checkpoint after this many logged bytes (0 = off).
    pub checkpoint_every_bytes: u64,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            segment_records: 0,
            segment_bytes: crate::wal::DEFAULT_SEGMENT_BYTES,
            checkpoint_every_records: 0,
            checkpoint_every_bytes: 0,
        }
    }
}

impl DurabilityPolicy {
    fn rotation(&self) -> RotationPolicy {
        let unlimited = |v: u64| if v == 0 { u64::MAX } else { v };
        RotationPolicy {
            max_records: unlimited(self.segment_records),
            max_bytes: unlimited(self.segment_bytes),
        }
    }
}

/// How many complete checkpoints to keep on disk. Two, so recovery can
/// fall back when the newest is lost mid-publish or corrupted.
const CHECKPOINTS_KEPT: usize = 2;

/// The serving engine. See the module docs for the durability and
/// concurrency contracts.
pub struct Engine {
    registry: SourceRegistry,
    repository: MappingRepository,
    /// Primed matcher states by mapping name (ordered, so delta
    /// application order is deterministic).
    states: BTreeMap<String, DeltaMatchState>,
    par: Parallelism,
    wal: Option<Wal>,
    commands: CommandCounts,
    /// `true` while re-executing WAL records: suppresses re-logging and
    /// operator warnings.
    replaying: bool,
    last_warn: BTreeMap<String, Instant>,
    warnings_suppressed: u64,
    /// Original `match` request per primed mapping, so a checkpoint can
    /// re-prime the matcher states on restore.
    match_requests: BTreeMap<String, Json>,
    policy: DurabilityPolicy,
    /// Last WAL seq covered by a published checkpoint (0 = none).
    checkpoint_seq: u64,
    records_since_checkpoint: u64,
    bytes_since_checkpoint: u64,
}

impl Engine {
    /// Engine over a registry, without a WAL (embedded/test use; attach
    /// one with [`Engine::wal_create`] / [`Engine::recover`]).
    pub fn new(registry: SourceRegistry, par: Parallelism) -> Engine {
        Engine {
            registry,
            repository: MappingRepository::new(),
            states: BTreeMap::new(),
            par,
            wal: None,
            commands: CommandCounts::default(),
            replaying: false,
            last_warn: BTreeMap::new(),
            warnings_suppressed: 0,
            match_requests: BTreeMap::new(),
            policy: DurabilityPolicy::default(),
            checkpoint_seq: 0,
            records_since_checkpoint: 0,
            bytes_since_checkpoint: 0,
        }
    }

    /// Attach a fresh WAL directory (removing any existing segments and
    /// checkpoints).
    pub fn wal_create(
        &mut self,
        dir: impl AsRef<Path>,
        policy: DurabilityPolicy,
    ) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        checkpoint::clear_all(dir)?;
        self.wal = Some(Wal::create(dir, policy.rotation())?);
        self.policy = policy;
        self.checkpoint_seq = 0;
        self.records_since_checkpoint = 0;
        self.bytes_since_checkpoint = 0;
        Ok(())
    }

    /// Recover from a WAL directory and attach it: restore the newest
    /// valid checkpoint (falling back to older ones, then to full
    /// replay, if markers fail validation), re-execute only the logged
    /// commands *after* the checkpoint's sequence number, repair any
    /// torn tail, and resume appends.
    pub fn recover(
        &mut self,
        dir: impl AsRef<Path>,
        policy: DurabilityPolicy,
    ) -> Result<ReplaySummary, String> {
        let dir = dir.as_ref();
        let scan = Wal::scan(dir).map_err(|e| format!("scan {}: {e}", dir.display()))?;

        // Pick the newest checkpoint that validates AND that the
        // surviving segments connect to (first record seq must not leave
        // a gap after the checkpoint's seq).
        let mut base_seq = 0u64;
        let mut restored = false;
        let checkpoints = checkpoint::list(dir).map_err(|e| format!("list checkpoints: {e}"))?;
        for cp in checkpoints.iter().rev() {
            if !scan.records.is_empty() && scan.first_seq() > cp.seq + 1 {
                return Err(format!(
                    "WAL gap: first surviving record is seq {} but checkpoint {} covers only \
                     up to seq {}",
                    scan.first_seq(),
                    cp.path.display(),
                    cp.seq
                ));
            }
            let state = match checkpoint::load(&cp.path) {
                Ok((seq, state)) if seq == cp.seq => state,
                Ok((seq, _)) => {
                    eprintln!(
                        "warning: checkpoint {}: marker seq {seq} does not match its name; \
                         skipping",
                        cp.path.display()
                    );
                    continue;
                }
                Err(reason) => {
                    eprintln!(
                        "warning: checkpoint {}: {reason}; falling back",
                        cp.path.display()
                    );
                    continue;
                }
            };
            let state = match Json::parse(&state) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!(
                        "warning: checkpoint {}: state is not valid JSON ({e}); falling back",
                        cp.path.display()
                    );
                    continue;
                }
            };
            match self.restore_from_state(&state) {
                Ok(seq) => {
                    base_seq = seq;
                    restored = true;
                    break;
                }
                Err(e) => return Err(format!("restore {}: {e}", cp.path.display())),
            }
        }
        if !restored && !scan.records.is_empty() && scan.first_seq() != 1 {
            return Err(format!(
                "WAL gap: no usable checkpoint but the log starts at seq {} (segments before \
                 it were pruned)",
                scan.first_seq()
            ));
        }

        let mut replayed = 0usize;
        let mut skipped = 0usize;
        let mut failed = 0usize;
        self.replaying = true;
        for rec in &scan.records {
            if rec.seq <= base_seq {
                skipped += 1;
                continue;
            }
            let text = std::str::from_utf8(&rec.payload)
                .map_err(|e| format!("WAL record {}: not UTF-8: {e}", rec.seq))?;
            let req =
                Json::parse(text).map_err(|e| format!("WAL record {}: bad JSON: {e}", rec.seq))?;
            let resp = self.apply_logged(&req, Some(rec.seq));
            replayed += 1;
            if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                // A command that failed live re-fails identically here;
                // count it but keep going — the state evolution matches
                // the pre-crash run either way.
                failed += 1;
            }
        }
        self.replaying = false;
        let wal = Wal::open(dir, policy.rotation(), &scan, base_seq)
            .map_err(|e| format!("open {}: {e}", dir.display()))?;
        let segments = wal.segment_count();
        self.wal = Some(wal);
        self.policy = policy;
        self.checkpoint_seq = base_seq;
        self.records_since_checkpoint = replayed as u64;
        self.bytes_since_checkpoint = 0;
        Ok(ReplaySummary {
            replayed,
            dropped_bytes: scan.dropped_bytes,
            stop_reason: scan.stop.as_ref().map(|s| s.reason.clone()),
            failed,
            checkpoint_seq: base_seq,
            skipped,
            segments,
        })
    }

    /// Whether `cmd` mutates engine state (and therefore must be
    /// WAL-logged and serialized through the write lock): the
    /// [`LoggedWrite`](commands::Class::LoggedWrite) rows of the
    /// command table. `install` is the router's materialization of a
    /// cross-shard compose; it never arrives from clients directly but
    /// replays like any other record.
    pub fn is_mutating(cmd: &str) -> bool {
        commands::lookup(cmd).is_some_and(|c| c.class.is_logged())
    }

    /// Whether `cmd` needs the server's write lock. `checkpoint` is not
    /// WAL-logged (it mutates the disk layout, not the logical state)
    /// but must still be serialized with writers.
    pub fn needs_write_lock(cmd: &str) -> bool {
        commands::lookup(cmd).is_some_and(|c| c.class.takes_write_lock())
    }

    /// Execute a mutating command: append it to the WAL (fsync'd), then
    /// apply it. Read-only commands are delegated to
    /// [`Engine::execute_read`] for embedded convenience.
    pub fn execute(&mut self, req: &Json) -> Json {
        let command = match commands::of_request(req) {
            Ok(command) => command,
            Err(e) => return err_response(&e),
        };
        match command.cmd {
            Cmd::Checkpoint => respond(self.do_checkpoint()),
            Cmd::BatchDelta => respond(self.cmd_batch_delta(req)),
            _ if command.class.is_logged() => self.log_and_apply(req),
            _ => self.execute_read(req),
        }
    }

    /// Append `req` to the WAL, then apply it.
    fn log_and_apply(&mut self, req: &Json) -> Json {
        let seq = if let Some(wal) = &mut self.wal {
            let payload = req.to_string();
            match wal.append(payload.as_bytes()) {
                Ok(seq) => {
                    self.records_since_checkpoint += 1;
                    self.bytes_since_checkpoint += payload.len() as u64;
                    Some(seq)
                }
                // Nothing durable ⇒ nothing applied: refuse the command.
                Err(e) => return err_response(&format!("WAL append failed: {e}")),
            }
        } else {
            None
        };
        self.apply_logged(req, seq)
    }

    /// Whether the durability policy's auto-checkpoint thresholds are
    /// exceeded. The server's background checkpointer polls this under
    /// the read lock and only takes the write lock (re-checking) when it
    /// returns `true` — checkpoints no longer run inline on the delta
    /// path.
    pub fn checkpoint_due(&self) -> bool {
        if self.wal.is_none() {
            return false;
        }
        let due_records = self.policy.checkpoint_every_records > 0
            && self.records_since_checkpoint >= self.policy.checkpoint_every_records;
        let due_bytes = self.policy.checkpoint_every_bytes > 0
            && self.bytes_since_checkpoint >= self.policy.checkpoint_every_bytes;
        due_records || due_bytes
    }

    /// Publish an automatic checkpoint (the background checkpointer's
    /// entry point; identical to the `checkpoint` command). A failure
    /// leaves nothing half-applied: everything the checkpoint would have
    /// covered is already durable in the WAL.
    pub fn run_auto_checkpoint(&mut self) -> Result<Json, String> {
        self.do_checkpoint()
    }

    /// Apply an already-logged mutating command (also the replay path).
    fn apply_logged(&mut self, req: &Json, seq: Option<u64>) -> Json {
        let name = req.str_field("cmd").unwrap_or_default();
        let result = match commands::lookup(name).map(|c| c.cmd) {
            Some(Cmd::Match) => {
                self.commands.matches += 1;
                self.cmd_match(req)
            }
            Some(Cmd::Compose) => {
                self.commands.composes += 1;
                self.cmd_compose(req)
            }
            Some(Cmd::Delta) => {
                // Replica copies fanned out by the shard router carry
                // `"repl": true` and are tallied separately so the
                // aggregate `commands.delta` counts each client delta
                // once, on its accounting shard.
                if req.get("repl").and_then(Json::as_bool) == Some(true) {
                    self.commands.repl_deltas += 1;
                } else {
                    self.commands.deltas += 1;
                }
                self.cmd_delta(req, seq)
            }
            Some(Cmd::Install) => {
                self.commands.composes += 1;
                self.cmd_install(req)
            }
            _ => Err(format!("`{name}` is not a mutating command")),
        };
        respond(result)
    }

    /// Execute a read-only command against the current state.
    pub fn execute_read(&self, req: &Json) -> Json {
        let command = match commands::of_request(req) {
            Ok(command) => command,
            Err(e) => return err_response(&e),
        };
        let result = match command.cmd {
            Cmd::Ping => Ok(Json::obj(vec![("ok", Json::Bool(true))])),
            Cmd::Query => self.cmd_query(req),
            Cmd::BatchQuery => self.cmd_batch_query(req),
            Cmd::Stats => Ok(self.stats()),
            Cmd::Dump => self.cmd_dump(req),
            _ if command.class.takes_write_lock() => {
                Err(format!("`{}` must go through the write path", command.name))
            }
            _ => Err(commands::unknown_command(command.name)),
        };
        respond(result)
    }

    // ---- mutating commands ------------------------------------------

    /// Parse a `match` request into a matcher plus resolved domain and
    /// range handles (shared by [`Engine::cmd_match`] and checkpoint
    /// restore, which re-primes matchers from their original requests).
    fn build_matcher(&self, req: &Json) -> Result<(AttributeMatcher, LdsId, LdsId), String> {
        let domain = req
            .str_field("domain")
            .ok_or("match request missing `domain`")?;
        let range = req
            .str_field("range")
            .ok_or("match request missing `range`")?;
        let domain_attr = req.str_field("domain_attr").unwrap_or("title");
        let range_attr = req.str_field("range_attr").unwrap_or(domain_attr);
        let sim = req.str_field("sim").unwrap_or("trigram");
        let threshold = req.num_field("threshold").unwrap_or(0.7);
        if !(0.0..=1.0).contains(&threshold) {
            return Err(format!("threshold {threshold} must be in [0, 1]"));
        }

        let d = self
            .registry
            .resolve(domain)
            .map_err(|e| format!("domain: {e}"))?;
        let r = self
            .registry
            .resolve(range)
            .map_err(|e| format!("range: {e}"))?;

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

    fn cmd_match(&mut self, req: &Json) -> Result<Json, String> {
        let name = req
            .str_field("name")
            .ok_or("match request missing `name`")?;
        let (matcher, d, r) = self.build_matcher(req)?;
        let ctx = MatchContext::new(&self.registry).with_parallelism(self.par);
        let state = matcher.prime(&ctx, d, r).map_err(|e| e.to_string())?;
        let rows = state.mapping().len();
        let incremental = state.is_incremental();
        self.repository.store_as(name, state.mapping().clone());
        self.states.insert(name.to_owned(), state);
        self.match_requests.insert(name.to_owned(), req.clone());
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("name", Json::Str(name.into())),
            ("rows", Json::Num(rows as f64)),
            (
                "version",
                Json::Uint(self.repository.version(name).unwrap_or(0)),
            ),
            ("incremental", Json::Bool(incremental)),
        ]))
    }

    fn cmd_compose(&mut self, req: &Json) -> Result<Json, String> {
        let name = req
            .str_field("name")
            .ok_or("compose request missing `name`")?;
        let left = req
            .str_field("left")
            .ok_or("compose request missing `left`")?;
        let right = req
            .str_field("right")
            .ok_or("compose request missing `right`")?;
        let f = parse_combine(req.str_field("f").unwrap_or("min"))?;
        let g = parse_agg(req.str_field("g").unwrap_or("max"))?;
        let recipe = Recipe::Compose {
            left: left.to_owned(),
            right: right.to_owned(),
            f,
            g,
        };
        let mapping = self
            .repository
            .store_derived(name, recipe)
            .map_err(|e| e.to_string())?;
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("name", Json::Str(name.into())),
            ("rows", Json::Num(mapping.len() as f64)),
            (
                "version",
                Json::Uint(self.repository.version(name).unwrap_or(0)),
            ),
        ]))
    }

    /// Execute an `install`: store a literal, pre-computed mapping table
    /// under `name`. This is how the shard router materializes a
    /// cross-shard compose — the coordinator gathers the input tables
    /// from their shards, computes the compose itself and logs the
    /// *result* here, so replay never has to reach across shards. The
    /// installed mapping is a point-in-time snapshot: it records its
    /// input versions in the response but carries no recipe, so later
    /// deltas do not refresh it (re-issue the compose to refresh).
    fn cmd_install(&mut self, req: &Json) -> Result<Json, String> {
        let name = req
            .str_field("name")
            .ok_or("install request missing `name`")?;
        let resolve = |field: &str| -> Result<LdsId, String> {
            let n = req
                .str_field(field)
                .ok_or_else(|| format!("install request missing `{field}`"))?;
            self.registry
                .resolve(n)
                .map_err(|e| format!("{field}: {e}"))
        };
        let domain = resolve("domain")?;
        let range = resolve("range")?;
        let rows_json = req
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("install request missing `rows`")?;
        let mut triples = Vec::with_capacity(rows_json.len());
        for row in rows_json {
            let row = row
                .as_arr()
                .filter(|r| r.len() == 3)
                .ok_or("install rows must be [domain, range, sim] triples")?;
            let d = row[0].as_u64().ok_or("install row domain index")? as u32;
            let r = row[1].as_u64().ok_or("install row range index")? as u32;
            let sim = row[2].as_f64().ok_or("install row sim")?;
            triples.push((d, r, sim));
        }
        let table = MappingTable::from_triples(triples);
        let mapping = match req.get("assoc") {
            Some(Json::Str(t)) => Mapping::association(name, t.clone(), domain, range, table),
            _ => Mapping::same(name, domain, range, table),
        };
        let rows = mapping.len();
        self.repository.store_as(name, mapping);
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("name", Json::Str(name.into())),
            ("rows", Json::Num(rows as f64)),
            (
                "version",
                Json::Uint(self.repository.version(name).unwrap_or(0)),
            ),
            ("installed", Json::Bool(true)),
        ]))
    }

    fn cmd_delta(&mut self, req: &Json, seq: Option<u64>) -> Result<Json, String> {
        let delta = protocol::parse_delta(&self.registry, req)?;
        let applied = self
            .registry
            .apply_delta(&delta)
            .map_err(|e| format!("apply_delta: {e}"))?;

        // Patch every primed state. `apply` self-skips states whose
        // matched projections the delta does not touch, so the loop is
        // cheap for irrelevant mappings.
        let mut mappings_out = Vec::new();
        let mut patches = Vec::new();
        let mut warn_names = Vec::new();
        let mut untouched = 0usize;
        {
            let ctx = MatchContext::new(&self.registry).with_parallelism(self.par);
            for (name, state) in self.states.iter_mut() {
                state
                    .apply(&ctx, &[&applied])
                    .map_err(|e| format!("patch `{name}`: {e}"))?;
                if !state.last_touched() {
                    untouched += 1;
                    continue;
                }
                let full = state.last_was_full_rematch();
                if full {
                    warn_names.push((name.clone(), state.full_rematches()));
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
        }
        for (name, total) in warn_names {
            self.warn_full_rematch(&name, total);
        }
        for (name, mapping) in patches {
            self.repository.patch(name, mapping);
        }
        let refreshed = self
            .repository
            .refresh_stale()
            .map_err(|e| format!("refresh stale: {e}"))?;

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

    /// Execute a `batch_delta`: N delta operations amortized over one
    /// frame, one write-lock acquisition and **one WAL group-commit
    /// append** (see [`Wal::append_batch`]). Every item is logged as the
    /// ordinary single `delta` record it stands for, so replaying the
    /// log is bit-identical to the client having sent them one by one.
    /// The response carries a per-item status array; an item that fails
    /// to apply gets an inline error object (and re-fails identically on
    /// replay), while a failed group commit refuses the whole batch —
    /// nothing durable, nothing applied.
    fn cmd_batch_delta(&mut self, req: &Json) -> Result<Json, String> {
        let Some(Json::Arr(items)) = req.get("items") else {
            return Err("batch_delta request missing `items` array".into());
        };
        if items.is_empty() {
            return Err("batch_delta needs a non-empty `items` array".into());
        }
        // Re-frame each item as the single `delta` request it stands
        // for; that JSON is what gets logged.
        let reqs: Vec<Json> = items
            .iter()
            .map(|item| {
                let mut fields = vec![("cmd".to_owned(), Json::Str(Cmd::Delta.name().into()))];
                if let Json::Obj(src) = item {
                    for (k, v) in src {
                        if k != "cmd" {
                            fields.push((k.clone(), v.clone()));
                        }
                    }
                }
                Json::Obj(fields)
            })
            .collect();
        let first_seq = if let Some(wal) = &mut self.wal {
            let payloads: Vec<String> = reqs.iter().map(Json::to_string).collect();
            let bytes: Vec<&[u8]> = payloads.iter().map(|p| p.as_bytes()).collect();
            match wal.append_batch(&bytes) {
                Ok(first) => {
                    self.records_since_checkpoint += payloads.len() as u64;
                    self.bytes_since_checkpoint +=
                        payloads.iter().map(|p| p.len() as u64).sum::<u64>();
                    Some(first)
                }
                Err(e) => return Err(format!("WAL batch append failed: {e}")),
            }
        } else {
            None
        };
        let results: Vec<Json> = reqs
            .iter()
            .enumerate()
            .map(|(i, r)| self.apply_logged(r, first_seq.map(|f| f + i as u64)))
            .collect();
        let count = results.len() as u64;
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("count", Json::Uint(count)),
            ("first_seq", first_seq.map(Json::Uint).unwrap_or(Json::Null)),
            (
                "last_seq",
                first_seq
                    .map(|f| Json::Uint(f + count - 1))
                    .unwrap_or(Json::Null),
            ),
            ("results", Json::Arr(results)),
        ]))
    }

    /// Log (rate-limited per mapping) that a delta paid a transparent
    /// full re-match instead of an incremental patch — the operator
    /// signal for configurations like TF-IDF whose corpus-global
    /// weights make incremental maintenance unsound.
    fn warn_full_rematch(&mut self, name: &str, total: u64) {
        if self.replaying {
            return;
        }
        let now = Instant::now();
        if let Some(last) = self.last_warn.get(name) {
            if now.duration_since(*last) < WARN_PERIOD {
                self.warnings_suppressed += 1;
                return;
            }
        }
        self.last_warn.insert(name.to_owned(), now);
        eprintln!(
            "warning: mapping `{name}` is not incrementally maintainable; \
             this delta paid a full re-match ({total} so far; further \
             warnings for it muted for {}s)",
            WARN_PERIOD.as_secs()
        );
    }

    // ---- read-only commands -----------------------------------------

    fn cmd_query(&self, req: &Json) -> Result<Json, String> {
        let name = req
            .str_field("name")
            .ok_or("query request missing `name`")?;
        let limit = req.get("limit").and_then(Json::as_u64).unwrap_or(100) as usize;
        let min_sim = req.num_field("min_sim").unwrap_or(0.0);

        let snapshot = self.repository.snapshot();
        let Some(entry) = snapshot.iter().find(|e| e.name == name) else {
            return Err(unknown_mapping(
                name,
                snapshot.iter().map(|e| e.name.as_str()),
            ));
        };
        let dom = self.registry.lds(entry.mapping.domain);
        let rng = self.registry.lds(entry.mapping.range);
        let id_of = |lds: &moma_model::LogicalSource, idx: u32| -> String {
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
    fn cmd_batch_query(&self, req: &Json) -> Result<Json, String> {
        let Some(Json::Arr(items)) = req.get("items") else {
            return Err("batch_query request missing `items` array".into());
        };
        if items.is_empty() {
            return Err("batch_query needs a non-empty `items` array".into());
        }
        let results: Vec<Json> = items
            .iter()
            .map(|item| match self.cmd_query(item) {
                Ok(resp) => resp,
                Err(e) => err_response(&e),
            })
            .collect();
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("count", Json::Uint(results.len() as u64)),
            ("results", Json::Arr(results)),
        ]))
    }

    /// Engine-level stats object (the server layer adds uptime and
    /// per-connection request counters on top).
    pub fn stats(&self) -> Json {
        let sources: Vec<Json> = self
            .registry
            .iter()
            .map(|(_, lds)| {
                Json::obj(vec![
                    ("name", Json::Str(lds.name())),
                    ("len", Json::Num(lds.len() as f64)),
                    ("live", Json::Num(lds.live_len() as f64)),
                ])
            })
            .collect();
        let mappings: Vec<Json> = self
            .repository
            .snapshot()
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("name".to_owned(), Json::Str(e.name.clone())),
                    ("version".to_owned(), Json::Uint(e.version)),
                    ("rows".to_owned(), Json::Num(e.mapping.len() as f64)),
                    ("derived".to_owned(), Json::Bool(e.derived)),
                    (
                        "stale".to_owned(),
                        Json::Bool(self.repository.is_stale(&e.name)),
                    ),
                ];
                if let Some(state) = self.states.get(&e.name) {
                    fields.push(("incremental".to_owned(), Json::Bool(state.is_incremental())));
                    fields.push((
                        "full_rematches".to_owned(),
                        Json::Uint(state.full_rematches()),
                    ));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("commands", self.commands.to_json()),
            (
                "wal",
                match &self.wal {
                    Some(w) => Json::obj(vec![
                        ("seq", Json::Uint(w.last_seq())),
                        ("checkpoint_seq", Json::Uint(self.checkpoint_seq)),
                        (
                            "lag",
                            Json::Uint(w.last_seq().saturating_sub(self.checkpoint_seq)),
                        ),
                        ("segments", Json::Uint(w.segment_count() as u64)),
                        ("dir", Json::Str(w.dir().display().to_string())),
                    ]),
                    None => Json::Null,
                },
            ),
            ("sources", Json::Arr(sources)),
            ("mappings", Json::Arr(mappings)),
            (
                "full_rematch_warnings_suppressed",
                Json::Uint(self.warnings_suppressed),
            ),
        ])
    }

    fn cmd_dump(&self, req: &Json) -> Result<Json, String> {
        let dir = req.str_field("dir").ok_or("dump request missing `dir`")?;
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
        self.repository
            .persist_dir(dir, &self.registry)
            .map_err(|e| format!("persist {dir}: {e}"))?;
        // Deterministic manifest: version stamps, row counts and durable
        // counters, so two state dumps are byte-comparable with `diff -r`.
        let mut manifest = String::from("# moma dump manifest\n");
        let [m, c, d, r] = self.commands.rows().map(|(_, v)| v);
        manifest.push_str(&format!("commands\t{m}\t{c}\t{d}\t{r}\n"));
        let snapshot = self.repository.snapshot();
        for e in &snapshot {
            manifest.push_str(&format!(
                "mapping\t{}\t{}\t{}\t{}\n",
                e.name,
                e.version,
                e.mapping.len(),
                if e.derived { 1 } else { 0 }
            ));
        }
        for (_, lds) in self.registry.iter() {
            manifest.push_str(&format!(
                "source\t{}\t{}\t{}\n",
                lds.name(),
                lds.len(),
                lds.live_len()
            ));
        }
        let path = Path::new(dir).join("manifest.tsv");
        std::fs::write(&path, manifest).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("dir", Json::Str(dir.into())),
            ("mappings", Json::Num(snapshot.len() as f64)),
        ]))
    }

    // ---- checkpointing ----------------------------------------------

    /// Execute a `checkpoint` command: seal the active WAL segment,
    /// atomically publish a state dump covering everything applied so
    /// far, keep the [`CHECKPOINTS_KEPT`] newest checkpoints and delete
    /// the WAL segments the oldest retained one fully covers.
    ///
    /// The checkpoint is **not** WAL-logged: it mutates the disk layout,
    /// not the logical state, so replay determinism is unaffected — but
    /// it must hold the write lock (see [`Engine::needs_write_lock`]).
    fn do_checkpoint(&mut self) -> Result<Json, String> {
        let Some(wal) = self.wal.as_ref() else {
            return Err("checkpoint requires a write-ahead log (`moma serve --wal`)".into());
        };
        if let Some(reason) = wal.poisoned() {
            return Err(format!("WAL is poisoned: {reason}"));
        }
        let seq = wal.last_seq();
        if seq == self.checkpoint_seq {
            self.records_since_checkpoint = 0;
            self.bytes_since_checkpoint = 0;
            return Ok(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("seq", Json::Uint(seq)),
                ("unchanged", Json::Bool(true)),
            ]));
        }
        let state = self.checkpoint_state(seq)?.to_string();
        let wal = self.wal.as_mut().expect("checked above");
        // Seal the active segment first: everything the checkpoint
        // covers then lives in sealed segments and becomes prunable.
        wal.rotate().map_err(|e| format!("rotate: {e}"))?;
        let path =
            checkpoint::publish(wal.dir(), seq, &state).map_err(|e| format!("publish: {e}"))?;
        let kept = checkpoint::retain_newest(wal.dir(), CHECKPOINTS_KEPT)
            .map_err(|e| format!("retain: {e}"))?;
        // Prune only what the *oldest* retained checkpoint covers, so a
        // lost or corrupt newest checkpoint still leaves a replayable
        // segment chain behind the fallback.
        let prune_to = kept.first().map(|c| c.seq).unwrap_or(0);
        let pruned = wal
            .prune_covered(prune_to)
            .map_err(|e| format!("prune: {e}"))?;
        let segments = wal.segment_count();
        self.checkpoint_seq = seq;
        self.records_since_checkpoint = 0;
        self.bytes_since_checkpoint = 0;
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("seq", Json::Uint(seq)),
            ("path", Json::Str(path.display().to_string())),
            ("segments", Json::Uint(segments as u64)),
            ("pruned", Json::Uint(pruned as u64)),
        ]))
    }

    /// Serialize the engine's full logical state as one deterministic
    /// JSON document: sources (arena order, tombstones included, so
    /// restored local indexes are identical), mappings with exact
    /// version stamps / recipes / recorded input versions, the original
    /// `match` requests (to re-prime matcher states), command counters
    /// and the repository version counter.
    ///
    /// Not covered (stats-only, reset on restore): per-state
    /// full-re-match counters and warning rate-limiter state.
    fn checkpoint_state(&self, seq: u64) -> Result<Json, String> {
        let sources: Vec<Json> = self
            .registry
            .iter()
            .map(|(_, lds)| {
                let schema: Vec<Json> = lds
                    .schema
                    .iter()
                    .map(|a| {
                        Json::obj(vec![
                            ("name", Json::Str(a.name.clone())),
                            ("kind", Json::Str(kind_to_str(a.kind).into())),
                        ])
                    })
                    .collect();
                let mut instances = Vec::with_capacity(lds.len());
                for idx in 0..lds.len() as u32 {
                    let inst = lds.get(idx).expect("arena index in bounds");
                    let values: Vec<Json> = inst
                        .values
                        .iter()
                        .map(|v| match v {
                            Some(v) => protocol::attr_value_to_json(v),
                            None => Json::Null,
                        })
                        .collect();
                    instances.push(Json::obj(vec![
                        ("id", Json::Str(inst.id.clone())),
                        ("live", Json::Bool(lds.is_live(idx))),
                        ("values", Json::Arr(values)),
                    ]));
                }
                Json::obj(vec![
                    ("pds", Json::Str(lds.pds.clone())),
                    ("type", Json::Str(lds.object_type.as_str().to_owned())),
                    ("schema", Json::Arr(schema)),
                    ("instances", Json::Arr(instances)),
                ])
            })
            .collect();

        let mut mappings = Vec::new();
        for e in self.repository.snapshot() {
            let rows: Vec<Json> = e
                .mapping
                .table
                .rows()
                .iter()
                .map(|c| {
                    Json::Arr(vec![
                        Json::Num(c.domain as f64),
                        Json::Num(c.range as f64),
                        Json::Num(c.sim),
                    ])
                })
                .collect();
            let recipe = match self.repository.recipe(&e.name) {
                Some(r) => recipe_to_json(&r)?,
                None => Json::Null,
            };
            let deps: Vec<Json> = e
                .dep_versions
                .iter()
                .map(|(n, v)| Json::Arr(vec![Json::Str(n.clone()), Json::Uint(*v)]))
                .collect();
            mappings.push(Json::obj(vec![
                ("name", Json::Str(e.name.clone())),
                (
                    "assoc",
                    match &e.mapping.kind {
                        MappingKind::Same => Json::Null,
                        MappingKind::Association(t) => Json::Str(t.clone()),
                    },
                ),
                (
                    "domain",
                    Json::Str(self.registry.lds(e.mapping.domain).name()),
                ),
                (
                    "range",
                    Json::Str(self.registry.lds(e.mapping.range).name()),
                ),
                ("version", Json::Uint(e.version)),
                ("recipe", recipe),
                ("dep_versions", Json::Arr(deps)),
                ("rows", Json::Arr(rows)),
            ]));
        }

        let matchers = Json::Obj(
            self.match_requests
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        );
        Ok(Json::obj(vec![
            ("seq", Json::Uint(seq)),
            ("commands", self.commands.to_json()),
            (
                "version_counter",
                Json::Uint(self.repository.version_counter()),
            ),
            ("sources", Json::Arr(sources)),
            ("mappings", Json::Arr(mappings)),
            ("matchers", matchers),
        ]))
    }

    /// Rebuild the engine from a checkpoint state document; returns the
    /// WAL sequence number the state covers. Everything is parsed and
    /// validated against the booted registry **before** any of it is
    /// committed, so a rejected checkpoint leaves the engine untouched
    /// and recovery can fall back to an older one or to full replay.
    fn restore_from_state(&mut self, state: &Json) -> Result<u64, String> {
        let field = |name: &str| -> Result<&Json, String> {
            state
                .get(name)
                .ok_or_else(|| format!("checkpoint state missing `{name}`"))
        };
        let seq = field("seq")?
            .as_u64()
            .ok_or("checkpoint `seq` is not a u64")?;
        let commands_json = field("commands")?;
        let count = |name: &str| -> Result<u64, String> {
            commands_json
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("checkpoint command counter `{name}` missing"))
        };
        let counts = CommandCounts {
            matches: count(Cmd::Match.name())?,
            composes: count(Cmd::Compose.name())?,
            deltas: count(Cmd::Delta.name())?,
            // Absent in pre-shard checkpoints; those logged no replicas.
            repl_deltas: commands_json
                .get("repl_delta")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        };
        let version_counter = field("version_counter")?
            .as_u64()
            .ok_or("checkpoint `version_counter` is not a u64")?;

        // -- sources: rebuild each arena, aligned to the booted registry.
        let sources_json = field("sources")?
            .as_arr()
            .ok_or("checkpoint `sources` is not an array")?;
        if sources_json.len() != self.registry.len() {
            return Err(format!(
                "checkpoint has {} sources but the booted registry has {}",
                sources_json.len(),
                self.registry.len()
            ));
        }
        let mut new_sources = Vec::with_capacity(sources_json.len());
        for (i, sj) in sources_json.iter().enumerate() {
            let pds = sj.str_field("pds").ok_or("source missing `pds`")?;
            let ty = sj.str_field("type").ok_or("source missing `type`")?;
            let boot = self.registry.lds(LdsId(i as u32));
            if boot.pds != pds || boot.object_type.as_str() != ty {
                return Err(format!(
                    "checkpoint source {i} is {ty}@{pds} but the booted registry has {}",
                    boot.name()
                ));
            }
            let schema_json = sj
                .get("schema")
                .and_then(Json::as_arr)
                .ok_or("source missing `schema`")?;
            let mut schema = Vec::with_capacity(schema_json.len());
            for aj in schema_json {
                let name = aj.str_field("name").ok_or("schema attr missing `name`")?;
                let kind =
                    kind_from_str(aj.str_field("kind").ok_or("schema attr missing `kind`")?)?;
                schema.push(AttrDef::new(name, kind));
            }
            let mut lds = LogicalSource::new(pds, ObjectType::new(ty), schema);
            let instances = sj
                .get("instances")
                .and_then(Json::as_arr)
                .ok_or("source missing `instances`")?;
            for ij in instances {
                let id = ij.str_field("id").ok_or("instance missing `id`")?;
                let live = ij
                    .get("live")
                    .and_then(Json::as_bool)
                    .ok_or("instance missing `live`")?;
                let values_json = ij
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or("instance missing `values`")?;
                let mut values = Vec::with_capacity(values_json.len());
                for vj in values_json {
                    values.push(match vj {
                        Json::Null => None,
                        other => Some(protocol::attr_value_from_json(other)?),
                    });
                }
                // Insert in arena order, tombstoning removed instances
                // immediately: a later slot may legally reuse the id,
                // and this ordering frees it before that insert.
                lds.insert(ObjectInstance::with_values(id, values))
                    .map_err(|e| format!("restore instance `{id}`: {e}"))?;
                if !live {
                    lds.remove(id);
                }
            }
            new_sources.push(lds);
        }

        // -- mappings: resolved against the booted registry's names.
        let mappings_json = field("mappings")?
            .as_arr()
            .ok_or("checkpoint `mappings` is not an array")?;
        let mut new_mappings = Vec::with_capacity(mappings_json.len());
        for mj in mappings_json {
            let name = mj.str_field("name").ok_or("mapping missing `name`")?;
            let resolve = |field: &str| -> Result<LdsId, String> {
                let n = mj
                    .str_field(field)
                    .ok_or_else(|| format!("mapping `{name}` missing `{field}`"))?;
                self.registry
                    .resolve(n)
                    .map_err(|e| format!("mapping `{name}` {field}: {e}"))
            };
            let domain = resolve("domain")?;
            let range = resolve("range")?;
            let version = mj
                .get("version")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("mapping `{name}` missing `version`"))?;
            let rows_json = mj
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("mapping `{name}` missing `rows`"))?;
            let mut triples = Vec::with_capacity(rows_json.len());
            for row in rows_json {
                let row = row.as_arr().filter(|r| r.len() == 3).ok_or_else(|| {
                    format!("mapping `{name}`: rows must be [domain, range, sim] triples")
                })?;
                let d = row[0].as_u64().ok_or("row domain index")? as u32;
                let r = row[1].as_u64().ok_or("row range index")? as u32;
                let sim = row[2].as_f64().ok_or("row sim")?;
                triples.push((d, r, sim));
            }
            let table = MappingTable::from_triples(triples);
            let mapping = match mj.get("assoc") {
                Some(Json::Str(t)) => Mapping::association(name, t.clone(), domain, range, table),
                _ => Mapping::same(name, domain, range, table),
            };
            let recipe = match mj.get("recipe") {
                None | Some(Json::Null) => None,
                Some(r) => Some(recipe_from_json(r)?),
            };
            let deps_json = mj
                .get("dep_versions")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("mapping `{name}` missing `dep_versions`"))?;
            let mut deps = Vec::with_capacity(deps_json.len());
            for dj in deps_json {
                let pair = dj.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                    format!("mapping `{name}`: dep_versions must be [name, version] pairs")
                })?;
                deps.push((
                    pair[0].as_str().ok_or("dep name")?.to_owned(),
                    pair[1].as_u64().ok_or("dep version")?,
                ));
            }
            new_mappings.push((name.to_owned(), mapping, version, recipe, deps));
        }

        let Some(Json::Obj(matchers_json)) = state.get("matchers") else {
            return Err("checkpoint `matchers` is not an object".into());
        };
        let matchers_json = matchers_json.clone();

        // -- everything parsed: commit.
        for (i, lds) in new_sources.into_iter().enumerate() {
            *self.registry.lds_mut(LdsId(i as u32)) = lds;
        }
        self.repository = MappingRepository::new();
        for (name, mapping, version, recipe, deps) in new_mappings {
            self.repository
                .restore_entry(name, mapping, version, recipe, deps);
        }
        self.repository.restore_version_counter(version_counter);
        self.commands = counts;
        self.states.clear();
        self.match_requests.clear();
        for (name, req) in matchers_json {
            let (matcher, d, r) = self.build_matcher(&req)?;
            let ctx = MatchContext::new(&self.registry).with_parallelism(self.par);
            let primed = matcher
                .prime(&ctx, d, r)
                .map_err(|e| format!("re-prime `{name}`: {e}"))?;
            // Invariant check: re-priming against the restored sources
            // must reproduce the restored leaf mapping exactly (the same
            // determinism the WAL replay bit-identity rests on). Skipped
            // when the entry was later overwritten by a derived mapping
            // of the same name.
            if self.repository.recipe(&name).is_none() {
                if let Some(stored) = self.repository.get(&name) {
                    if stored.table.rows() != primed.mapping().table.rows() {
                        return Err(format!(
                            "checkpoint invariant violation: re-primed matcher `{name}` \
                             disagrees with its restored mapping table"
                        ));
                    }
                }
            }
            self.states.insert(name.clone(), primed);
            self.match_requests.insert(name, req);
        }
        self.last_warn.clear();
        Ok(seq)
    }

    // ---- accessors ---------------------------------------------------

    /// The engine's source registry.
    pub fn registry(&self) -> &SourceRegistry {
        &self.registry
    }

    /// The engine's mapping repository.
    pub fn repository(&self) -> &MappingRepository {
        &self.repository
    }

    /// Point-in-time snapshot of every repository entry (one lock
    /// acquisition; see [`MappingRepository::snapshot`]).
    pub fn snapshot(&self) -> Vec<SnapshotEntry> {
        self.repository.snapshot()
    }

    /// Durable command counters.
    pub fn command_counts(&self) -> CommandCounts {
        self.commands
    }

    /// Last WAL sequence number (0 when no WAL or empty log).
    pub fn wal_seq(&self) -> u64 {
        self.wal.as_ref().map(|w| w.last_seq()).unwrap_or(0)
    }

    /// Last WAL sequence covered by a checkpoint (0 = none yet).
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// `(mapping, domain source, range source)` names for every primed
    /// matcher state, in deterministic (BTreeMap) order. The shard
    /// router rebuilds its ownership index from this after recovery:
    /// whatever shard a state recovered on is, by construction, the
    /// shard that owns it.
    pub fn state_endpoints(&self) -> Vec<(String, String, String)> {
        self.match_requests
            .iter()
            .filter_map(|(name, req)| {
                let d = req.str_field("domain")?;
                let r = req.str_field("range")?;
                Some((name.clone(), d.to_owned(), r.to_owned()))
            })
            .collect()
    }

    /// Names of every mapping in the repository (snapshot order).
    pub fn mapping_names(&self) -> Vec<String> {
        self.repository
            .snapshot()
            .into_iter()
            .map(|e| e.name)
            .collect()
    }
}

/// `{"ok": false, "error": msg}`.
pub fn err_response(msg: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(msg.into())),
    ])
}

/// A handler's outcome as a response: its reply, or its error wrapped
/// by [`err_response`].
fn respond(result: Result<Json, String>) -> Json {
    result.unwrap_or_else(|e| err_response(&e))
}

/// The `unknown mapping` error, listing the `known` names — worded
/// once for the engine (which knows its repository) and the shard
/// router (which knows every shard's).
pub(crate) fn unknown_mapping<'a>(name: &str, known: impl Iterator<Item = &'a str>) -> String {
    let known: Vec<&str> = known.collect();
    format!(
        "unknown mapping `{name}` (have: {})",
        if known.is_empty() {
            "none".to_owned()
        } else {
            known.join(", ")
        }
    )
}

pub(crate) fn parse_combine(name: &str) -> Result<PathCombine, String> {
    match name {
        "avg" => Ok(PathCombine::Avg),
        "min" => Ok(PathCombine::Min),
        "max" => Ok(PathCombine::Max),
        "product" => Ok(PathCombine::Product),
        _ => {
            if let Some(w) = name.strip_prefix("weighted:") {
                let w: f64 = w.parse().map_err(|e| format!("weighted:{w}: {e}"))?;
                return Ok(PathCombine::Weighted(w));
            }
            Err(format!(
                "unknown path combine `{name}` (avg/min/max/product/weighted:W)"
            ))
        }
    }
}

pub(crate) fn parse_agg(name: &str) -> Result<PathAgg, String> {
    match name {
        "avg" => Ok(PathAgg::Avg),
        "min" => Ok(PathAgg::Min),
        "max" => Ok(PathAgg::Max),
        "relative-left" => Ok(PathAgg::RelativeLeft),
        "relative-right" => Ok(PathAgg::RelativeRight),
        "relative" => Ok(PathAgg::Relative),
        _ => Err(format!(
            "unknown path aggregation `{name}` (avg/min/max/relative/relative-left/relative-right)"
        )),
    }
}

// ---- checkpoint codecs (inverses of the parse_* / request grammar) ----

fn kind_to_str(kind: AttrKind) -> &'static str {
    match kind {
        AttrKind::Text => "text",
        AttrKind::TextList => "list",
        AttrKind::Int => "int",
        AttrKind::Year => "year",
        AttrKind::Real => "real",
    }
}

fn kind_from_str(s: &str) -> Result<AttrKind, String> {
    match s {
        "text" => Ok(AttrKind::Text),
        "list" => Ok(AttrKind::TextList),
        "int" => Ok(AttrKind::Int),
        "year" => Ok(AttrKind::Year),
        "real" => Ok(AttrKind::Real),
        other => Err(format!("unknown attr kind `{other}`")),
    }
}

fn combine_to_str(f: PathCombine) -> String {
    match f {
        PathCombine::Avg => "avg".into(),
        PathCombine::Min => "min".into(),
        PathCombine::Max => "max".into(),
        PathCombine::Product => "product".into(),
        // f64 Display is shortest-roundtrip, so parse_combine recovers
        // the exact weight.
        PathCombine::Weighted(w) => format!("weighted:{w}"),
    }
}

fn agg_to_str(g: PathAgg) -> &'static str {
    match g {
        PathAgg::Avg => "avg",
        PathAgg::Min => "min",
        PathAgg::Max => "max",
        PathAgg::RelativeLeft => "relative-left",
        PathAgg::RelativeRight => "relative-right",
        PathAgg::Relative => "relative",
    }
}

fn recipe_to_json(recipe: &Recipe) -> Result<Json, String> {
    let binary = |op: &str, left: &str, right: &str| {
        Json::obj(vec![
            ("op", Json::Str(op.into())),
            ("left", Json::Str(left.into())),
            ("right", Json::Str(right.into())),
        ])
    };
    match recipe {
        Recipe::Compose { left, right, f, g } => Ok(Json::obj(vec![
            ("op", Json::Str("compose".into())),
            ("left", Json::Str(left.clone())),
            ("right", Json::Str(right.clone())),
            ("f", Json::Str(combine_to_str(*f))),
            ("g", Json::Str(agg_to_str(*g).into())),
        ])),
        Recipe::Union { left, right } => Ok(binary("union", left, right)),
        Recipe::Intersect { left, right } => Ok(binary("intersect", left, right)),
        Recipe::Difference { left, right } => Ok(binary("difference", left, right)),
        // Not creatable through the serving protocol.
        Recipe::Merge { .. } => Err("checkpoint: merge recipes are not serializable".into()),
    }
}

fn recipe_from_json(j: &Json) -> Result<Recipe, String> {
    let op = j.str_field("op").ok_or("recipe missing `op`")?;
    let side = |name: &str| -> Result<String, String> {
        j.str_field(name)
            .map(str::to_owned)
            .ok_or_else(|| format!("recipe missing `{name}`"))
    };
    match op {
        "compose" => Ok(Recipe::Compose {
            left: side("left")?,
            right: side("right")?,
            f: parse_combine(j.str_field("f").ok_or("recipe missing `f`")?)?,
            g: parse_agg(j.str_field("g").ok_or("recipe missing `g`")?)?,
        }),
        "union" => Ok(Recipe::Union {
            left: side("left")?,
            right: side("right")?,
        }),
        "intersect" => Ok(Recipe::Intersect {
            left: side("left")?,
            right: side("right")?,
        }),
        "difference" => Ok(Recipe::Difference {
            left: side("left")?,
            right: side("right")?,
        }),
        other => Err(format!("unknown recipe op `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_model::{AttrDef, AttrValue, DeltaOp, LogicalSource, ObjectType};

    fn tiny_registry() -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        for (pds, ids) in [
            ("DBLP", vec!["d1", "d2"]),
            ("ACM", vec!["a1", "a2"]),
            ("GS", vec!["g1"]),
        ] {
            let mut lds = LogicalSource::new(
                pds,
                ObjectType::new("Publication"),
                vec![AttrDef::text("title")],
            );
            for id in ids {
                lds.insert_record(
                    id,
                    vec![("title", AttrValue::Text(format!("The {id} system paper")))],
                )
                .unwrap();
            }
            reg.register(lds).unwrap();
        }
        reg
    }

    fn match_cmd(name: &str, domain: &str, range: &str) -> Json {
        protocol::match_request(name, domain, range, "title", "title", "trigram", 0.5)
    }

    #[test]
    fn match_compose_query_delta_roundtrip() {
        let mut e = Engine::new(tiny_registry(), Parallelism::sequential());
        let r = e.execute(&match_cmd("m1", "Publication@DBLP", "Publication@ACM"));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        assert_eq!(r.get("incremental").and_then(Json::as_bool), Some(true));
        let r = e.execute(&match_cmd("m2", "Publication@ACM", "Publication@GS"));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        let r = e.execute(&protocol::compose_request("c", "m1", "m2", "min", "max"));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");

        let q = e.execute_read(&protocol::query_request("m1", 0, None));
        assert_eq!(q.get("ok").and_then(Json::as_bool), Some(true), "{q}");
        assert!(q.num_field("total").unwrap() >= 1.0);
        let missing = e.execute_read(&protocol::query_request("nope", 0, None));
        assert_eq!(missing.get("ok").and_then(Json::as_bool), Some(false));

        // A GS delta touches m2 (and refreshes c), not m1.
        let ops = vec![DeltaOp::Add {
            id: "g9".into(),
            fields: vec![(
                "title".into(),
                AttrValue::Text("The a1 system paper".into()),
            )],
        }];
        let r = e.execute(&protocol::delta_request("Publication@GS", &ops));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        let touched = r.get("mappings").and_then(Json::as_arr).unwrap();
        assert_eq!(touched.len(), 1);
        assert_eq!(touched[0].str_field("name"), Some("m2"));
        assert_eq!(
            touched[0].get("incremental").and_then(Json::as_bool),
            Some(true)
        );
        let refreshed = r.get("refreshed").and_then(Json::as_arr).unwrap();
        assert_eq!(refreshed.len(), 1);
        assert_eq!(refreshed[0].as_str(), Some("c"));
        assert_eq!(e.command_counts().deltas, 1);
    }

    fn assert_snapshots_identical(a: &Engine, b: &Engine) {
        assert_eq!(a.command_counts(), b.command_counts());
        let (a, b) = (a.snapshot(), b.snapshot());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.version, y.version, "version stamp for {}", x.name);
            assert_eq!(x.dep_versions, y.dep_versions);
            assert_eq!(x.mapping.table.rows(), y.mapping.table.rows(), "{}", x.name);
        }
    }

    #[test]
    fn wal_replay_restores_bit_identical_state() {
        let dir = std::env::temp_dir().join("moma_engine_replay");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let wal_dir = dir.join("wal");

        let requests = [
            match_cmd("m1", "Publication@DBLP", "Publication@ACM"),
            match_cmd("m2", "Publication@ACM", "Publication@GS"),
            protocol::compose_request("c", "m1", "m2", "min", "max"),
            protocol::delta_request(
                "Publication@GS",
                &[DeltaOp::Add {
                    id: "g9".into(),
                    fields: vec![(
                        "title".into(),
                        AttrValue::Text("The a1 system paper".into()),
                    )],
                }],
            ),
            // A failing command must replay as the same failure.
            protocol::delta_request(
                "Publication@GS",
                &[DeltaOp::Add {
                    id: "g9".into(),
                    fields: vec![("title".into(), AttrValue::Text("dup id".into()))],
                }],
            ),
        ];

        let mut live = Engine::new(tiny_registry(), Parallelism::sequential());
        live.wal_create(&wal_dir, DurabilityPolicy::default())
            .unwrap();
        let mut ok_count = 0;
        for req in &requests {
            let r = live.execute(req);
            if r.get("ok").and_then(Json::as_bool) == Some(true) {
                ok_count += 1;
            }
        }
        assert_eq!(ok_count, requests.len() - 1);

        let mut replayed = Engine::new(tiny_registry(), Parallelism::sequential());
        let summary = replayed
            .recover(&wal_dir, DurabilityPolicy::default())
            .unwrap();
        assert_eq!(summary.replayed, requests.len());
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.dropped_bytes, 0);
        assert_eq!(summary.checkpoint_seq, 0);
        assert_eq!(summary.skipped, 0);

        assert_snapshots_identical(&live, &replayed);
        // New appends resume after the replayed prefix.
        assert_eq!(replayed.wal_seq(), live.wal_seq());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_bounds_replay_and_restores_bit_identical_state() {
        let dir = std::env::temp_dir().join("moma_engine_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        let wal_dir = dir.join("wal");

        let policy = DurabilityPolicy {
            segment_records: 2, // force plenty of rotations
            ..DurabilityPolicy::default()
        };

        let mut live = Engine::new(tiny_registry(), Parallelism::sequential());
        live.wal_create(&wal_dir, policy).unwrap();
        let pre = [
            match_cmd("m1", "Publication@DBLP", "Publication@ACM"),
            match_cmd("m2", "Publication@ACM", "Publication@GS"),
            protocol::compose_request("c", "m1", "m2", "min", "max"),
        ];
        for req in &pre {
            let r = live.execute(req);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        }
        let r = live.execute(&protocol::bare_request("checkpoint"));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        assert_eq!(r.get("seq").and_then(Json::as_u64), Some(3));
        assert_eq!(live.checkpoint_seq(), 3);

        // A second checkpoint with no traffic in between is a no-op.
        let r = live.execute(&protocol::bare_request("checkpoint"));
        assert_eq!(r.get("unchanged").and_then(Json::as_bool), Some(true));

        let post = [
            protocol::delta_request(
                "Publication@GS",
                &[DeltaOp::Add {
                    id: "g9".into(),
                    fields: vec![(
                        "title".into(),
                        AttrValue::Text("The a1 system paper".into()),
                    )],
                }],
            ),
            protocol::delta_request("Publication@GS", &[DeltaOp::Remove { id: "g9".into() }]),
        ];
        for req in &post {
            let r = live.execute(req);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        }

        // Recovery restores the checkpoint and replays ONLY the suffix.
        let mut recovered = Engine::new(tiny_registry(), Parallelism::sequential());
        let summary = recovered.recover(&wal_dir, policy).unwrap();
        assert_eq!(summary.checkpoint_seq, 3);
        assert_eq!(
            summary.replayed,
            post.len(),
            "only the post-checkpoint suffix"
        );
        assert_eq!(summary.failed, 0);
        assert_snapshots_identical(&live, &recovered);
        assert_eq!(recovered.wal_seq(), live.wal_seq());

        // And it must equal a clean end-to-end run of all commands.
        let mut clean = Engine::new(tiny_registry(), Parallelism::sequential());
        for req in pre.iter().chain(&post) {
            clean.execute(req);
        }
        assert_snapshots_identical(&clean, &recovered);

        // The recovered engine keeps serving and can checkpoint again.
        let r = recovered.execute(&protocol::bare_request("checkpoint"));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        assert_eq!(recovered.checkpoint_seq(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tfidf_delta_reports_full_rematch() {
        let mut e = Engine::new(tiny_registry(), Parallelism::sequential());
        let req = protocol::match_request(
            "t",
            "Publication@ACM",
            "Publication@GS",
            "title",
            "title",
            "tfidf",
            0.1,
        );
        let r = e.execute(&req);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        assert_eq!(r.get("incremental").and_then(Json::as_bool), Some(false));

        let ops = vec![DeltaOp::Add {
            id: "g7".into(),
            fields: vec![(
                "title".into(),
                AttrValue::Text("The g1 system paper".into()),
            )],
        }];
        let r = e.execute(&protocol::delta_request("Publication@GS", &ops));
        let touched = r.get("mappings").and_then(Json::as_arr).unwrap();
        assert_eq!(touched.len(), 1);
        assert_eq!(
            touched[0].get("incremental").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            touched[0].get("full_rematch").and_then(Json::as_bool),
            Some(true)
        );
    }
}

//! The serving engine: a write-ahead log in front of the
//! [state machine](crate::state).
//!
//! [`Engine`] is the durability shell of one shard. It owns what does
//! I/O — the [`Wal`], the checkpoint chain, `dump`'s files, the
//! operator warnings — and nothing of the logical state, which is a
//! [`State`]: a logged command is appended to the log and then handed
//! to [`State::apply`]; a read goes straight to [`State::read`]; a
//! checkpoint is [`State::image`] published next to the log and
//! recovery is [`State::restore`] plus `apply` of the log's suffix.
//!
//! ## Durability contract
//!
//! Mutating commands (`match`, `compose`, `delta`) are appended to the
//! [`Wal`] and `fsync`'d **before** they are applied; the client's
//! response is sent after apply. An acknowledged command is therefore
//! durable, and replaying the log re-applies exactly the commands the
//! pre-crash engine applied, in order. Because the state machine is
//! deterministic (see [`crate::state`]), the replayed engine is
//! bit-identical to the pre-crash one: same instances, same
//! correspondences, same version stamps, same counters.
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

use moma_core::exec::Parallelism;
use moma_core::repository::SnapshotEntry;
use moma_core::MappingRepository;
use moma_model::SourceRegistry;

use crate::checkpoint;
use crate::commands::{self, Cmd, Command};
use crate::json::Json;
use crate::protocol::{err_response, respond};
use crate::state::State;
use crate::wal::{RotationPolicy, Wal};

/// Minimum spacing between repeated full-re-match warnings for the same
/// mapping (see [`Engine::warn_full_rematch`]).
const WARN_PERIOD: Duration = Duration::from_secs(30);

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
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            segment_records: 0,
            segment_bytes: crate::wal::DEFAULT_SEGMENT_BYTES,
            checkpoint_every_records: 0,
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
    machine: State,
    wal: Option<Wal>,
    policy: DurabilityPolicy,
    /// Last WAL seq covered by a published checkpoint (0 = none).
    checkpoint_seq: u64,
    records_since_checkpoint: u64,
    last_warn: BTreeMap<String, Instant>,
    warnings_suppressed: u64,
}

impl Engine {
    /// Engine over a registry, without a WAL (embedded/test use; attach
    /// one with [`Engine::wal_create`] / [`Engine::recover`]).
    pub fn new(registry: SourceRegistry, par: Parallelism) -> Engine {
        Engine {
            machine: State::new(registry, par),
            wal: None,
            policy: DurabilityPolicy::default(),
            checkpoint_seq: 0,
            records_since_checkpoint: 0,
            last_warn: BTreeMap::new(),
            warnings_suppressed: 0,
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
        self.attach(Wal::create(dir, policy.rotation())?, policy, 0, 0);
        Ok(())
    }

    fn attach(&mut self, wal: Wal, policy: DurabilityPolicy, checkpoint_seq: u64, since: u64) {
        self.wal = Some(wal);
        self.policy = policy;
        self.checkpoint_seq = checkpoint_seq;
        self.records_since_checkpoint = since;
    }

    /// Recover from a WAL directory and attach it: restore the newest
    /// valid checkpoint (falling back to older ones, then to full
    /// replay, if markers fail validation), re-apply only the logged
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
        let mut base_seq = None;
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
            let image = checkpoint::load(&cp.path).and_then(|(seq, text)| {
                if seq != cp.seq {
                    return Err(format!("marker seq {seq} does not match its name"));
                }
                Json::parse(&text).map_err(|e| format!("state is not valid JSON ({e})"))
            });
            match image {
                Ok(image) => {
                    let restored = self.machine.restore(&image);
                    base_seq =
                        Some(restored.map_err(|e| format!("restore {}: {e}", cp.path.display()))?);
                    break;
                }
                Err(reason) => eprintln!(
                    "warning: checkpoint {}: {reason}; falling back",
                    cp.path.display()
                ),
            }
        }
        if base_seq.is_none() && !scan.records.is_empty() && scan.first_seq() != 1 {
            return Err(format!(
                "WAL gap: no usable checkpoint but the log starts at seq {} (segments before \
                 it were pruned)",
                scan.first_seq()
            ));
        }
        let base_seq = base_seq.unwrap_or(0);

        let mut replayed = 0usize;
        let mut failed = 0usize;
        for rec in scan.records.iter().filter(|rec| rec.seq > base_seq) {
            let text = std::str::from_utf8(&rec.payload)
                .map_err(|e| format!("WAL record {}: not UTF-8: {e}", rec.seq))?;
            let req =
                Json::parse(text).map_err(|e| format!("WAL record {}: bad JSON: {e}", rec.seq))?;
            let resp = self.machine.apply(&req, Some(rec.seq));
            replayed += 1;
            if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                // A command that failed live re-fails identically here;
                // count it but keep going — the state evolution matches
                // the pre-crash run either way.
                failed += 1;
            }
        }
        let wal = Wal::open(dir, policy.rotation(), &scan, base_seq)
            .map_err(|e| format!("open {}: {e}", dir.display()))?;
        let segments = wal.segment_count();
        self.attach(wal, policy, base_seq, replayed as u64);
        Ok(ReplaySummary {
            replayed,
            dropped_bytes: scan.dropped_bytes,
            stop_reason: scan.stop.as_ref().map(|s| s.reason.clone()),
            failed,
            checkpoint_seq: base_seq,
            skipped: scan.records.len() - replayed,
            segments,
        })
    }

    /// Execute a command: a logged write is appended to the WAL
    /// (fsync'd), then applied to the state machine; `checkpoint` and
    /// `batch_delta` are this shell's own. Read-only commands are
    /// delegated to [`Engine::execute_read`] for embedded convenience.
    pub fn execute(&mut self, req: &Json) -> Json {
        let command = match commands::of_request(req) {
            Ok(command) => command,
            Err(e) => return err_response(&e),
        };
        match command.cmd {
            Cmd::Checkpoint => respond(self.checkpoint()),
            Cmd::BatchDelta => respond(self.batch_delta(command, req)),
            _ if command.class.is_logged() => match self.log(std::slice::from_ref(req)) {
                Ok(seq) => self.apply(req, seq),
                Err(e) => err_response(&e),
            },
            _ => self.execute_read(req),
        }
    }

    /// Execute a read-only command against the current state.
    pub fn execute_read(&self, req: &Json) -> Json {
        match commands::of_request(req) {
            Ok(command) if command.cmd == Cmd::Stats => self.stats(),
            Ok(command) if command.cmd == Cmd::Dump => respond(self.dump(command, req)),
            Ok(command) => self.machine.read_as(command, req),
            Err(e) => err_response(&e),
        }
    }

    /// Append `records` to the WAL as one group commit (a commit of one
    /// is byte-identical to a single append); returns the first
    /// record's sequence number, `None` without a WAL. Nothing durable
    /// ⇒ nothing applied: on `Err` the caller refuses the command.
    fn log(&mut self, records: &[Json]) -> Result<Option<u64>, String> {
        let Some(wal) = &mut self.wal else {
            return Ok(None);
        };
        let payloads: Vec<String> = records.iter().map(Json::to_string).collect();
        let bytes: Vec<&[u8]> = payloads.iter().map(|p| p.as_bytes()).collect();
        let appended = wal.append_batch(&bytes);
        let first = appended.map_err(|e| format!("WAL append failed: {e}"))?;
        self.records_since_checkpoint += records.len() as u64;
        Ok(Some(first))
    }

    /// Apply an already-logged record, then tell the operator about
    /// any full re-match it paid.
    fn apply(&mut self, req: &Json, seq: Option<u64>) -> Json {
        let resp = self.machine.apply(req, seq);
        for (name, total) in std::mem::take(&mut self.machine.full_rematched) {
            self.warn_full_rematch(&name, total);
        }
        resp
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
    fn batch_delta(&mut self, command: &Command, req: &Json) -> Result<Json, String> {
        // Re-frame each item as the single `delta` request it stands
        // for; that JSON is what gets logged.
        let reframe = |item: &Json| {
            let mut fields = vec![("cmd".to_owned(), Json::Str(Cmd::Delta.name().into()))];
            if let Json::Obj(src) = item {
                fields.extend(src.iter().filter(|(k, _)| k != "cmd").cloned());
            }
            Json::Obj(fields)
        };
        let records: Vec<Json> = command.items(req)?.iter().map(reframe).collect();
        let first_seq = self.log(&records)?;
        let seqs = (0u64..).map(|i| first_seq.map(|first| first + i));
        let results: Vec<Json> = records
            .iter()
            .zip(seqs)
            .map(|(record, seq)| self.apply(record, seq))
            .collect();
        let count = results.len() as u64;
        let seq_or_null = |seq: Option<u64>| seq.map_or(Json::Null, Json::Uint);
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("count", Json::Uint(count)),
            ("first_seq", seq_or_null(first_seq)),
            ("last_seq", seq_or_null(first_seq.map(|f| f + count - 1))),
            ("results", Json::Arr(results)),
        ]))
    }

    /// Log (rate-limited per mapping) that a delta paid a transparent
    /// full re-match instead of an incremental patch — the operator
    /// signal for configurations like TF-IDF whose corpus-global
    /// weights make incremental maintenance unsound.
    fn warn_full_rematch(&mut self, name: &str, total: u64) {
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

    /// Engine-level stats object: the machine's, with the WAL section
    /// after `commands` and the warning limiter's count at the end (the
    /// server layer adds uptime and per-connection request counters on
    /// top).
    pub fn stats(&self) -> Json {
        let wal = self.wal.as_ref().map_or(Json::Null, |w| {
            Json::obj(vec![
                ("seq", Json::Uint(w.last_seq())),
                ("checkpoint_seq", Json::Uint(self.checkpoint_seq)),
                (
                    "lag",
                    Json::Uint(w.last_seq().saturating_sub(self.checkpoint_seq)),
                ),
                ("segments", Json::Uint(w.segment_count() as u64)),
                ("dir", Json::Str(w.dir().display().to_string())),
            ])
        });
        let suppressed = Json::Uint(self.warnings_suppressed);
        let mut stats = self.machine.stats();
        if let Json::Obj(fields) = &mut stats {
            fields.insert(2, ("wal".to_owned(), wal));
            fields.push(("full_rematch_warnings_suppressed".to_owned(), suppressed));
        }
        stats
    }

    fn dump(&self, command: &Command, req: &Json) -> Result<Json, String> {
        let dir = command.field(req, "dir", Json::as_str)?;
        let (registry, repository) = (self.machine.registry(), self.machine.repository());
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
        repository
            .persist_dir(dir, registry)
            .map_err(|e| format!("persist {dir}: {e}"))?;
        // Deterministic manifest: version stamps, row counts and durable
        // counters, so two state dumps are byte-comparable with `diff -r`.
        let mut manifest = String::from("# moma dump manifest\n");
        let [m, c, d, r] = self.machine.command_counts().rows().map(|(_, v)| v);
        manifest.push_str(&format!("commands\t{m}\t{c}\t{d}\t{r}\n"));
        let snapshot = repository.snapshot();
        for e in &snapshot {
            manifest.push_str(&format!(
                "mapping\t{}\t{}\t{}\t{}\n",
                e.name,
                e.version,
                e.mapping.len(),
                if e.derived { 1 } else { 0 }
            ));
        }
        for (_, lds) in registry.iter() {
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

    /// Whether the durability policy's auto-checkpoint threshold is
    /// exceeded. The server's background checkpointer polls this under
    /// the read lock and only takes the write lock (re-checking) when it
    /// returns `true` — checkpoints do not run inline on the delta
    /// path.
    pub fn checkpoint_due(&self) -> bool {
        let every = self.policy.checkpoint_every_records;
        self.wal.is_some() && every > 0 && self.records_since_checkpoint >= every
    }

    /// Publish an automatic checkpoint (the background checkpointer's
    /// entry point; identical to the `checkpoint` command). A failure
    /// leaves nothing half-applied: everything the checkpoint would have
    /// covered is already durable in the WAL.
    pub fn run_auto_checkpoint(&mut self) -> Result<Json, String> {
        self.checkpoint()
    }

    /// Execute a `checkpoint` command: seal the active WAL segment,
    /// atomically publish the machine's [image](State::image) covering
    /// everything applied so far, keep the [`CHECKPOINTS_KEPT`] newest
    /// checkpoints and delete the WAL segments the oldest retained one
    /// fully covers.
    ///
    /// The checkpoint is **not** WAL-logged: it mutates the disk layout,
    /// not the logical state, so replay determinism is unaffected — but
    /// it must hold the write lock (its command class says so).
    fn checkpoint(&mut self) -> Result<Json, String> {
        let Some(wal) = self.wal.as_mut() else {
            return Err("checkpoint requires a write-ahead log (`moma serve --wal`)".into());
        };
        if let Some(reason) = wal.poisoned() {
            return Err(format!("WAL is poisoned: {reason}"));
        }
        let seq = wal.last_seq();
        if seq == self.checkpoint_seq {
            self.records_since_checkpoint = 0;
            return Ok(Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("seq", Json::Uint(seq)),
                ("unchanged", Json::Bool(true)),
            ]));
        }
        let image = self.machine.image(seq).to_string();
        // Seal the active segment first: everything the checkpoint
        // covers then lives in sealed segments and becomes prunable.
        wal.rotate().map_err(|e| format!("rotate: {e}"))?;
        let path =
            checkpoint::publish(wal.dir(), seq, &image).map_err(|e| format!("publish: {e}"))?;
        let kept = checkpoint::retain_newest(wal.dir(), CHECKPOINTS_KEPT)
            .map_err(|e| format!("retain: {e}"))?;
        // Prune only what the *oldest* retained checkpoint covers, so a
        // lost or corrupt newest checkpoint still leaves a replayable
        // segment chain behind the fallback.
        let prune_to = kept.first().map(|c| c.seq).unwrap_or(0);
        let pruned = wal
            .prune_covered(prune_to)
            .map_err(|e| format!("prune: {e}"))?;
        self.checkpoint_seq = seq;
        self.records_since_checkpoint = 0;
        Ok(Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("seq", Json::Uint(seq)),
            ("path", Json::Str(path.display().to_string())),
            ("segments", Json::Uint(wal.segment_count() as u64)),
            ("pruned", Json::Uint(pruned as u64)),
        ]))
    }

    // ---- accessors ---------------------------------------------------

    /// The state machine behind the log.
    pub fn machine(&self) -> &State {
        &self.machine
    }

    /// The engine's source registry.
    pub fn registry(&self) -> &SourceRegistry {
        self.machine.registry()
    }

    /// The engine's mapping repository.
    pub fn repository(&self) -> &MappingRepository {
        self.machine.repository()
    }

    /// Point-in-time snapshot of every repository entry (one lock
    /// acquisition; see [`MappingRepository::snapshot`]).
    pub fn snapshot(&self) -> Vec<SnapshotEntry> {
        self.machine.repository().snapshot()
    }

    /// Last WAL sequence number (0 when no WAL or empty log).
    pub fn wal_seq(&self) -> u64 {
        self.wal.as_ref().map(|w| w.last_seq()).unwrap_or(0)
    }

    /// Last WAL sequence covered by a checkpoint (0 = none yet).
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;
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
        assert_eq!(e.machine().command_counts().deltas, 1);
    }

    fn assert_snapshots_identical(a: &Engine, b: &Engine) {
        assert_eq!(a.machine().command_counts(), b.machine().command_counts());
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

    /// An engine holding one derived entry per [`Recipe`] variant —
    /// `merge` included, which used to fail every later checkpoint —
    /// checkpoints, and a recovered engine holds the same entries with
    /// the same recipes, stamps and rows.
    #[test]
    fn every_recipe_variant_checkpoints_and_recovers() {
        use moma_core::ops::{MergeFn, MissingPolicy, PathAgg, PathCombine};
        use moma_core::Recipe;
        let dir = std::env::temp_dir().join("moma_engine_recipes");
        let _ = std::fs::remove_dir_all(&dir);

        let mut live = Engine::new(tiny_registry(), Parallelism::sequential());
        live.wal_create(&dir, DurabilityPolicy::default()).unwrap();
        for req in [
            match_cmd("m1", "Publication@DBLP", "Publication@ACM"),
            match_cmd("m2", "Publication@ACM", "Publication@GS"),
            protocol::match_request(
                "m3",
                "Publication@DBLP",
                "Publication@ACM",
                "title",
                "title",
                "jaro",
                0.1,
            ),
        ] {
            let r = live.execute(&req);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        }
        let (m1, m2, m3) = ("m1".to_owned(), "m2".to_owned(), "m3".to_owned());
        let sides = || (m1.clone(), m3.clone());
        let recipes = [
            Recipe::Compose {
                left: m1.clone(),
                right: m2.clone(),
                f: PathCombine::Weighted(0.3),
                g: PathAgg::RelativeLeft,
            },
            Recipe::Union {
                left: sides().0,
                right: sides().1,
            },
            Recipe::Intersect {
                left: sides().0,
                right: sides().1,
            },
            Recipe::Difference {
                left: sides().0,
                right: sides().1,
            },
            Recipe::Merge {
                inputs: vec![m1.clone(), m3.clone()],
                f: MergeFn::Weighted(vec![3.0, 1.0]),
                missing: MissingPolicy::Zero,
            },
            Recipe::Merge {
                inputs: vec![m1.clone(), m3.clone()],
                f: MergeFn::Prefer(1),
                missing: MissingPolicy::Ignore,
            },
        ];
        for (i, recipe) in recipes.iter().enumerate() {
            let stored = live
                .repository()
                .store_derived(format!("r{i}"), recipe.clone());
            stored.expect("derives");
        }
        let r = live.execute(&protocol::checkpoint_request());
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");

        let mut recovered = Engine::new(tiny_registry(), Parallelism::sequential());
        let summary = recovered
            .recover(&dir, DurabilityPolicy::default())
            .unwrap();
        assert_eq!((summary.checkpoint_seq, summary.replayed), (3, 0));
        assert_snapshots_identical(&live, &recovered);
        for (i, recipe) in recipes.iter().enumerate() {
            let name = format!("r{i}");
            assert_eq!(recovered.repository().recipe(&name).as_ref(), Some(recipe));
        }
        let (a, b) = (live.machine().image(3), recovered.machine().image(3));
        assert_eq!(a.to_string(), b.to_string());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Overwrite means overwrite: `compose` onto a primed name releases
    /// its matcher. The history `match M; compose M from (A, B); delta
    /// on M's domain` ends the same live, by WAL replay and by
    /// checkpoint → restore, with M still the compose (the delta used
    /// to patch the matcher's leaf mapping back over it, recipe
    /// dropped, and a restored checkpoint re-primed the stale matcher).
    #[test]
    fn a_shadowed_matcher_is_released() {
        let work = std::env::temp_dir().join("moma_engine_shadowed");
        let _ = std::fs::remove_dir_all(&work);
        let head = [
            match_cmd("A", "Publication@DBLP", "Publication@ACM"),
            match_cmd("B", "Publication@ACM", "Publication@GS"),
            match_cmd("M", "Publication@DBLP", "Publication@GS"),
            protocol::compose_request("M", "A", "B", "min", "max"),
        ];
        let title = AttrValue::Text("The g1 system paper".into());
        let fields = vec![("title".into(), title)];
        let add = DeltaOp::Add {
            id: "d9".into(),
            fields,
        };
        let delta = protocol::delta_request("Publication@DBLP", &[add]);

        let mut dumps = Vec::new();
        for with_checkpoint in [false, true] {
            let dir = work.join(format!("wal.{with_checkpoint}"));
            let mut live = Engine::new(tiny_registry(), Parallelism::sequential());
            live.wal_create(&dir, DurabilityPolicy::default()).unwrap();
            for req in &head {
                let r = live.execute(req);
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
            }
            if with_checkpoint {
                let r = live.execute(&protocol::checkpoint_request());
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
            }
            let r = live.execute(&delta);
            let touched = r.get("mappings").and_then(Json::as_arr).unwrap();
            let touched: Vec<_> = touched.iter().map(|m| m.str_field("name")).collect();
            assert_eq!(touched, [Some("A")], "{r}");
            assert!(r.to_string().contains(r#""refreshed":["M"]"#), "{r}");

            let mut recovered = Engine::new(tiny_registry(), Parallelism::sequential());
            let summary = recovered
                .recover(&dir, DurabilityPolicy::default())
                .unwrap();
            let expect = if with_checkpoint { (4, 1) } else { (0, 5) };
            assert_eq!((summary.checkpoint_seq, summary.replayed), expect);
            assert_snapshots_identical(&live, &recovered);
            for engine in [&live, &recovered] {
                let recipe = engine.repository().recipe("M");
                assert!(matches!(recipe, Some(moma_core::Recipe::Compose { .. })));
                assert!(engine.repository().require("M").unwrap().len() > 2);
                dumps.push(dump_of(engine, &work.join("dump")));
            }
        }
        assert!(dumps.windows(2).all(|w| w[0] == w[1]));
        let _ = std::fs::remove_dir_all(&work);
    }

    fn previous_release_registry() -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        for (pds, ids) in [
            ("DBLP", vec!["d1", "d2"]),
            ("ACM", vec!["a1", "a2"]),
            ("GS", vec!["g1"]),
        ] {
            let schema = vec![
                AttrDef::text("title"),
                AttrDef::year("year"),
                AttrDef::int("cites"),
            ];
            let mut lds = LogicalSource::new(pds, ObjectType::new("Publication"), schema);
            for id in ids {
                let values = vec![
                    ("title", AttrValue::Text(format!("The {id} system paper"))),
                    ("year", AttrValue::Year(2001)),
                    ("cites", AttrValue::Int(-42)),
                ];
                lds.insert_record(id, values).unwrap();
            }
            reg.register(lds).unwrap();
        }
        reg
    }

    /// What the previous release wrote for one fixed history over
    /// [`previous_release_registry`] — every kind of logged record
    /// (`match` with a shard hint, `compose`, `delta`, a replica
    /// `delta`, `install`, a `delta` that fails) and the checkpoint it
    /// published after the fourth — copied from its WAL segments, its
    /// `state.json` and its `dump`, byte for byte.
    const PREVIOUS_RECORDS: [&str; 9] = [
        r#"{"cmd":"match","name":"m1","domain":"Publication@DBLP","range":"Publication@ACM","domain_attr":"title","range_attr":"title","sim":"trigram","threshold":0.5}"#,
        r#"{"cmd":"match","name":"m2","domain":"Publication@ACM","range":"Publication@GS","domain_attr":"title","range_attr":"title","sim":"tfidf","threshold":0.1,"shard":0}"#,
        r#"{"cmd":"compose","name":"c","left":"m1","right":"m2","f":"min","g":"max"}"#,
        r#"{"cmd":"delta","lds":"Publication@GS","ops":[{"op":"add","id":"g9","fields":{"title":{"t":"text","v":"The a1 system paper"},"year":{"t":"year","v":2007},"cites":{"t":"int","v":7}}}]}"#,
        r#"{"cmd":"install","name":"x","domain":"Publication@DBLP","range":"Publication@GS","rows":[[0,0,0.5],[1,1,0.625]],"inputs":[["m1",1]]}"#,
        r#"{"cmd":"delta","lds":"Publication@GS","ops":[{"op":"update","id":"g1","attr":"title","value":{"t":"text","v":"The a2 system paper"}},{"op":"update","id":"g9","attr":"year","value":null}],"repl":true}"#,
        r#"{"cmd":"compose","name":"c2","left":"m1","right":"m2","f":"weighted:0.25","g":"relative-left"}"#,
        r#"{"cmd":"delta","lds":"Publication@GS","ops":[{"op":"add","id":"g9","fields":{"title":{"t":"text","v":"dup id"},"year":{"t":"year","v":2007},"cites":{"t":"int","v":7}}}]}"#,
        r#"{"cmd":"delta","lds":"Publication@GS","ops":[{"op":"remove","id":"g1"}]}"#,
    ];
    const PREVIOUS_IMAGE: &str = r#"{"seq":4,"commands":{"match":2,"compose":1,"delta":1,"repl_delta":0},"version_counter":5,"sources":[{"pds":"DBLP","type":"Publication","schema":[{"name":"title","kind":"text"},{"name":"year","kind":"year"},{"name":"cites","kind":"int"}],"instances":[{"id":"d1","live":true,"values":[{"t":"text","v":"The d1 system paper"},{"t":"year","v":2001},{"t":"int","v":-42}]},{"id":"d2","live":true,"values":[{"t":"text","v":"The d2 system paper"},{"t":"year","v":2001},{"t":"int","v":-42}]}]},{"pds":"ACM","type":"Publication","schema":[{"name":"title","kind":"text"},{"name":"year","kind":"year"},{"name":"cites","kind":"int"}],"instances":[{"id":"a1","live":true,"values":[{"t":"text","v":"The a1 system paper"},{"t":"year","v":2001},{"t":"int","v":-42}]},{"id":"a2","live":true,"values":[{"t":"text","v":"The a2 system paper"},{"t":"year","v":2001},{"t":"int","v":-42}]}]},{"pds":"GS","type":"Publication","schema":[{"name":"title","kind":"text"},{"name":"year","kind":"year"},{"name":"cites","kind":"int"}],"instances":[{"id":"g1","live":true,"values":[{"t":"text","v":"The g1 system paper"},{"t":"year","v":2001},{"t":"int","v":-42}]},{"id":"g9","live":true,"values":[{"t":"text","v":"The a1 system paper"},{"t":"year","v":2007},{"t":"int","v":7}]}]}],"mappings":[{"name":"c","assoc":null,"domain":"Publication@DBLP","range":"Publication@GS","version":5,"recipe":{"op":"compose","left":"m1","right":"m2","f":"min","g":"max"},"dep_versions":[["m1",1],["m2",4]],"rows":[[0,0,0.5224456759566978],[0,1,0.8571428571428571],[1,0,0.5224456759566978],[1,1,0.8095238095238095]]},{"name":"m1","assoc":null,"domain":"Publication@DBLP","range":"Publication@ACM","version":1,"recipe":null,"dep_versions":[],"rows":[[0,0,0.8571428571428571],[0,1,0.8095238095238095],[1,0,0.8095238095238095],[1,1,0.8571428571428571]]},{"name":"m2","assoc":null,"domain":"Publication@ACM","range":"Publication@GS","version":4,"recipe":null,"dep_versions":[],"rows":[[0,0,0.5224456759566978],[0,1,1],[1,0,0.4620069295240967],[1,1,0.5224456759566978]]}],"matchers":{"m1":{"cmd":"match","name":"m1","domain":"Publication@DBLP","range":"Publication@ACM","domain_attr":"title","range_attr":"title","sim":"trigram","threshold":0.5},"m2":{"cmd":"match","name":"m2","domain":"Publication@ACM","range":"Publication@GS","domain_attr":"title","range_attr":"title","sim":"tfidf","threshold":0.1,"shard":0}}}"#;
    const PREVIOUS_DUMP: [(&str, &str); 6] = [
        ("manifest.tsv", "# moma dump manifest\ncommands\t2\t3\t3\t1\nmapping\tc\t11\t2\t1\nmapping\tc2\t12\t2\t1\nmapping\tm1\t1\t4\t0\nmapping\tm2\t10\t2\t0\nmapping\tx\t6\t2\t0\nsource\tPublication@DBLP\t2\t2\nsource\tPublication@ACM\t2\t2\nsource\tPublication@GS\t2\t1\n"),
        ("mapping_0000.tsv", "#name\tc\n#kind\tsame\n#domain\tPublication@DBLP\n#range\tPublication@GS\nd1\tg9\t0.8571428571428571\nd2\tg9\t0.8095238095238095\n"),
        ("mapping_0001.tsv", "#name\tc2\n#kind\tsame\n#domain\tPublication@DBLP\n#range\tPublication@GS\nd1\tg9\t0.8049967593085352\nd2\tg9\t0.8049967593085352\n"),
        ("mapping_0002.tsv", "#name\tm1\n#kind\tsame\n#domain\tPublication@DBLP\n#range\tPublication@ACM\nd1\ta1\t0.8571428571428571\nd1\ta2\t0.8095238095238095\nd2\ta1\t0.8095238095238095\nd2\ta2\t0.8571428571428571\n"),
        ("mapping_0003.tsv", "#name\tm2\n#kind\tsame\n#domain\tPublication@ACM\n#range\tPublication@GS\na1\tg9\t1\na2\tg9\t0.5911024692672049\n"),
        ("mapping_0004.tsv", "#name\tx\n#kind\tsame\n#domain\tPublication@DBLP\n#range\tPublication@GS\nd2\tg9\t0.625\n"),
    ];

    fn dump_of(engine: &Engine, dir: &Path) -> Vec<(String, String)> {
        let _ = std::fs::remove_dir_all(dir);
        let r = engine.execute_read(&protocol::dump_request(dir.to_str().unwrap()));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// Old format included: a WAL directory and a checkpoint written by
    /// the previous release recover under this one — from the
    /// checkpoint plus the suffix, and by full replay — into the state
    /// the previous release dumped; and this release, run live over the
    /// same requests, publishes the previous release's image byte for
    /// byte.
    #[test]
    fn recovers_what_the_previous_release_wrote() {
        let work = std::env::temp_dir().join("moma_engine_previous_release");
        let _ = std::fs::remove_dir_all(&work);
        let expect: Vec<(String, String)> = PREVIOUS_DUMP
            .iter()
            .map(|(name, text)| (name.to_string(), text.to_string()))
            .collect();

        // The previous release's records (one unpruned segment) and,
        // beside them, its checkpoint.
        let write_wal = |dir: &Path, with_checkpoint: bool| {
            let mut wal = Wal::create(dir, DurabilityPolicy::default().rotation()).unwrap();
            for record in PREVIOUS_RECORDS {
                wal.append(record.as_bytes()).unwrap();
            }
            if with_checkpoint {
                checkpoint::publish(dir, 4, PREVIOUS_IMAGE).unwrap();
            }
        };
        for with_checkpoint in [true, false] {
            let dir = work.join(format!("wal.{with_checkpoint}"));
            write_wal(&dir, with_checkpoint);
            let mut engine = Engine::new(previous_release_registry(), Parallelism::sequential());
            let summary = engine.recover(&dir, DurabilityPolicy::default()).unwrap();
            let (base, replayed) = if with_checkpoint { (4, 5) } else { (0, 9) };
            assert_eq!((summary.checkpoint_seq, summary.replayed), (base, replayed));
            assert_eq!(summary.failed, 1, "the duplicate-id delta re-fails");
            assert_eq!(dump_of(&engine, &work.join("dump")), expect);
        }

        // Live, the same requests publish the same image.
        let mut live = Engine::new(previous_release_registry(), Parallelism::sequential());
        live.wal_create(work.join("live"), DurabilityPolicy::default())
            .unwrap();
        for record in &PREVIOUS_RECORDS[..4] {
            live.execute(&Json::parse(record).unwrap());
        }
        let r = live.execute(&protocol::checkpoint_request());
        let path = r.str_field("path").expect("a published checkpoint");
        let (seq, image) = checkpoint::load(Path::new(path)).unwrap();
        assert_eq!((seq, image.as_str()), (4, PREVIOUS_IMAGE));
        for record in &PREVIOUS_RECORDS[4..] {
            live.execute(&Json::parse(record).unwrap());
        }
        assert_eq!(dump_of(&live, &work.join("dump")), expect);
        let _ = std::fs::remove_dir_all(&work);
    }
}

//! Shard router: N independent engines behind one serving endpoint.
//!
//! `moma serve --shards N` partitions the serving workload across N
//! [`Engine`] instances. Every shard boots from an identical clone of
//! the source registry and owns its own WAL directory, checkpoint
//! chain and admission budgets; what differs between shards is which
//! *mappings* (and therefore which delta traffic) live on them.
//!
//! ## Routing model
//!
//! The router maintains a deterministic **ownership index** folded from
//! the command history (and rebuilt from engine state after recovery):
//!
//! * A successful `match` **claims** its domain source for the shard it
//!   ran on and registers that shard as a **host** of both its domain
//!   and range sources.
//! * A `match` is placed by a deterministic cascade: the domain's
//!   owning shard if claimed, else an explicit `"shard"` hint, else the
//!   lowest shard already hosting the domain (then the range), else
//!   `fnv1a(domain) % N`.
//! * A `delta` fans out to **every shard hosting a mapping over its
//!   source**, so each delta is visible to every mapping that existed
//!   when it was accepted (invariant I5 in `docs/ARCHITECTURE.md`).
//!   Exactly one target — the lowest — logs the accounting copy; the
//!   others log `"repl": true` replicas that patch their local states
//!   without double-counting `commands.delta`. A delta to a source no
//!   shard hosts is refused with a routable error.
//! * `query`/`batch_query` route by mapping name; `stats` and `dump`
//!   scatter across all shards and gather in ascending shard order.
//! * A `compose` whose inputs live on one shard runs there unchanged
//!   (single-shard fast path). A **cross-shard compose** gathers the
//!   two input tables under their shards' read locks, computes the
//!   compose on the coordinator, and logs the *result* as an `install`
//!   record on the left input's shard — replay never reaches across
//!   shards, so per-shard recovery stays independent and bit-identical.
//!
//! ## One shard is the same router
//!
//! A default `moma serve` is this router with N = 1 — there is no
//! second code path. Two rules make its replies byte-identical to an
//! embedded [`Engine`]'s: a plan that cannot be made (unknown mapping,
//! unhosted source, missing routing field) falls through to the only
//! shard there is, whose engine words the error itself
//! ([`ShardRouter::unplanned`]); and every gather step — the
//! `shard`/`shards` annotations ([`ShardRouter::annotate`]), the
//! per-shard dump directories ([`ShardRouter::shard_dir`]) and the
//! `merge_*` functions — is the identity over one shard.
//!
//! Because every placement decision is a pure function of the index,
//! and the index is a deterministic fold of the (per-shard-serialized)
//! command history, an N-shard run is reproducible: replaying each
//! shard's WAL independently reconstructs the same N engine states a
//! clean run of the same commands produces.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::AtomicU64;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use moma_model::ModelError;

use crate::engine::Engine;
use crate::json::Json;
use crate::protocol::{err_response, unknown_mapping, unknown_source};
use crate::state::CommandCounts;

/// One shard: an engine plus its private admission counters. The
/// in-flight budgets in [`crate::server::Limits`] apply **per shard**,
/// so a hot shard saturating its write budget does not shed load for
/// traffic routed elsewhere.
pub struct Shard {
    /// The shard's engine; write lock for mutating commands, read lock
    /// for queries.
    pub engine: RwLock<Engine>,
    /// Mutating commands in flight on this shard.
    pub inflight_writes: AtomicU64,
    /// Read-only commands in flight on this shard.
    pub inflight_reads: AtomicU64,
}

/// Deterministic routing state; a pure fold of the command history.
#[derive(Default)]
struct RouteIndex {
    /// Source name → shard claimed by the first successful `match`
    /// using it as the domain.
    owner: BTreeMap<String, usize>,
    /// Source name → shards hosting a primed state over it (targets of
    /// delta fan-out).
    hosts: BTreeMap<String, BTreeSet<usize>>,
    /// Mapping name → shard it lives on.
    mappings: BTreeMap<String, usize>,
}

/// Where a `compose` must run.
pub enum ComposePlan {
    /// Both inputs live on one shard: run the ordinary recipe path
    /// there.
    Single(usize),
    /// Inputs live on different shards: gather both tables, compute on
    /// the coordinator, `install` the result on the left input's shard.
    Cross { left: usize, right: usize },
}

/// FNV-1a — the default placement hash for unclaimed domains. Stable
/// across runs and platforms (routing must be reproducible).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The router: shards plus the ownership index. Lock order is strict —
/// the index lock is never held across an engine lock acquisition, and
/// multi-shard operations take engine locks in ascending shard order.
pub struct ShardRouter {
    shards: Vec<Shard>,
    /// Names of the boot image's sources. Every shard registers the
    /// same ones and none is added later, so the router can tell an
    /// unknown source from an unhosted one without an engine lock.
    sources: BTreeSet<String>,
    index: RwLock<RouteIndex>,
}

impl ShardRouter {
    /// Wrap `engines` (one per shard) and build the ownership index
    /// from their current state — on a fresh boot the index is empty;
    /// after `--replay` it reflects exactly the placements the
    /// recovered states prove.
    pub fn new(engines: Vec<Engine>) -> ShardRouter {
        assert!(!engines.is_empty(), "a server needs at least one shard");
        let sources = engines[0]
            .registry()
            .iter()
            .map(|(_, lds)| lds.name())
            .collect();
        let shards: Vec<Shard> = engines
            .into_iter()
            .map(|e| Shard {
                engine: RwLock::new(e),
                inflight_writes: AtomicU64::new(0),
                inflight_reads: AtomicU64::new(0),
            })
            .collect();
        let router = ShardRouter {
            shards,
            sources,
            index: RwLock::new(RouteIndex::default()),
        };
        router.rebuild_index();
        router
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// A router always has at least one shard; this exists for the
    /// `len`/`is_empty` convention only.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The `i`-th shard.
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// All shards, in shard order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Read-lock shard `i`'s engine; the boolean reports whether a
    /// poisoned lock was recovered (the server surfaces it as
    /// `degraded`).
    pub fn engine_read(&self, i: usize) -> (RwLockReadGuard<'_, Engine>, bool) {
        match self.shards[i].engine.read() {
            Ok(g) => (g, false),
            Err(poisoned) => (poisoned.into_inner(), true),
        }
    }

    /// Write-lock shard `i`'s engine (see [`ShardRouter::engine_read`]).
    pub fn engine_write(&self, i: usize) -> (RwLockWriteGuard<'_, Engine>, bool) {
        match self.shards[i].engine.write() {
            Ok(g) => (g, false),
            Err(poisoned) => (poisoned.into_inner(), true),
        }
    }

    /// Rebuild the ownership index from engine state (boot and
    /// recovery). Shards are scanned in ascending order, so claim
    /// resolution is deterministic; whatever shard a state recovered on
    /// is, by the routing invariant, the shard that owns it.
    pub fn rebuild_index(&self) {
        let mut idx = RouteIndex::default();
        for (i, shard) in self.shards.iter().enumerate() {
            let engine = match shard.engine.read() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            for (name, domain, range) in engine.machine().state_endpoints() {
                idx.owner.entry(domain.clone()).or_insert(i);
                idx.hosts.entry(domain).or_default().insert(i);
                idx.hosts.entry(range).or_default().insert(i);
                idx.mappings.insert(name, i);
            }
            for entry in engine.snapshot() {
                idx.mappings.entry(entry.name).or_insert(i);
            }
        }
        *self.index.write().unwrap_or_else(|p| p.into_inner()) = idx;
    }

    fn index_read(&self) -> RwLockReadGuard<'_, RouteIndex> {
        self.index.read().unwrap_or_else(|p| p.into_inner())
    }

    fn index_write(&self) -> RwLockWriteGuard<'_, RouteIndex> {
        self.index.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Place a `match` over `domain` × `range`. The cascade: owner of
    /// the domain, else the explicit `hint`, else the lowest shard
    /// hosting the domain, else the lowest hosting the range, else
    /// `fnv1a(domain) % N`. A hint that contradicts an existing claim
    /// is a routable error, not a silent override.
    pub fn plan_match(
        &self,
        domain: &str,
        range: &str,
        hint: Option<usize>,
    ) -> Result<usize, String> {
        if let Some(h) = hint {
            if h >= self.shards.len() {
                return Err(format!(
                    "shard hint {h} out of range (this server has {} shards)",
                    self.shards.len()
                ));
            }
        }
        let idx = self.index_read();
        if let Some(&owner) = idx.owner.get(domain) {
            if let Some(h) = hint {
                if h != owner {
                    return Err(format!(
                        "source `{domain}` is owned by shard {owner}; \
                         explicit shard {h} would split its mappings"
                    ));
                }
            }
            return Ok(owner);
        }
        if let Some(h) = hint {
            return Ok(h);
        }
        if let Some(first) = idx.hosts.get(domain).and_then(|s| s.iter().next()) {
            return Ok(*first);
        }
        if let Some(first) = idx.hosts.get(range).and_then(|s| s.iter().next()) {
            return Ok(*first);
        }
        Ok((fnv1a(domain) % self.shards.len() as u64) as usize)
    }

    /// Record a successful `match`: claim the domain for `shard`, add
    /// `shard` as a host of both sources and place the mapping.
    pub fn note_match(&self, name: &str, domain: &str, range: &str, shard: usize) {
        let mut idx = self.index_write();
        idx.owner.entry(domain.to_owned()).or_insert(shard);
        idx.hosts
            .entry(domain.to_owned())
            .or_default()
            .insert(shard);
        idx.hosts.entry(range.to_owned()).or_default().insert(shard);
        idx.mappings.insert(name.to_owned(), shard);
    }

    /// Record a mapping created by `compose`/`install` on `shard`.
    pub fn note_mapping(&self, name: &str, shard: usize) {
        self.index_write().mappings.insert(name.to_owned(), shard);
    }

    /// Target shards for a `delta` to `source`, ascending. The first
    /// element is the accounting shard; the rest receive `"repl": true`
    /// replicas. A source no shard hosts (and no claim covers) is
    /// refused — there is nothing the delta could patch, and accepting
    /// it would leave replicas diverging silently. (With one shard
    /// that shard hosts every source: see [`ShardRouter::unplanned`].)
    pub fn plan_delta(&self, source: &str) -> Result<Vec<usize>, String> {
        if !self.sources.contains(source) {
            let unknown = ModelError::UnknownSource(source.to_owned());
            return Err(unknown_source(source, &unknown));
        }
        let idx = self.index_read();
        if let Some(hosts) = idx.hosts.get(source) {
            if !hosts.is_empty() {
                return Ok(hosts.iter().copied().collect());
            }
        }
        if let Some(&owner) = idx.owner.get(source) {
            return Ok(vec![owner]);
        }
        Err(format!(
            "no shard hosts mappings over source `{source}`; create a mapping \
             that reads it first (deltas route by source ownership)"
        ))
    }

    /// The shard a mapping lives on, if the router knows it.
    pub fn mapping_shard(&self, name: &str) -> Option<usize> {
        self.index_read().mappings.get(name).copied()
    }

    /// All known mapping names with their shards, in name order (for
    /// routable "unknown mapping" errors).
    pub fn known_mappings(&self) -> Vec<(String, usize)> {
        self.index_read()
            .mappings
            .iter()
            .map(|(n, &s)| (n.clone(), s))
            .collect()
    }

    /// The shard whose replica of `source` is authoritative: its owner,
    /// else its lowest host, else shard 0 (an unowned source never
    /// received a delta, so every replica is still the boot image).
    pub fn source_authority(&self, source: &str) -> usize {
        let idx = self.index_read();
        if let Some(&o) = idx.owner.get(source) {
            return o;
        }
        idx.hosts
            .get(source)
            .and_then(|s| s.iter().next().copied())
            .unwrap_or(0)
    }

    /// The shard a `query` of mapping `name` runs on, or the same
    /// `unknown mapping` error an engine gives — listing the mappings
    /// of every shard.
    pub fn plan_mapping(&self, name: &str) -> Result<usize, String> {
        let idx = self.index_read();
        idx.mappings
            .get(name)
            .copied()
            .ok_or_else(|| unknown_mapping(name, idx.mappings.keys().map(String::as_str)))
    }

    /// Where a `compose` of `left` × `right` must run.
    pub fn plan_compose(&self, left: &str, right: &str) -> Result<ComposePlan, String> {
        let l = self.plan_mapping(left)?;
        let r = self.plan_mapping(right)?;
        if l == r {
            Ok(ComposePlan::Single(l))
        } else {
            Ok(ComposePlan::Cross { left: l, right: r })
        }
    }

    /// What becomes of a request no plan could be made for. With
    /// several shards the `refusal` is the reply: guessing a shard
    /// would be the one wrong answer. With one shard there is nothing
    /// to guess — it hosts every source and every mapping — so the
    /// request runs there and the engine words the error itself (and,
    /// for a mutating command, logs and counts it) exactly as an
    /// embedded [`Engine`] would.
    pub fn unplanned(&self, refusal: String) -> Result<usize, String> {
        match self.shards.as_slice() {
            [_] => Ok(0),
            _ => Err(refusal),
        }
    }

    /// Gather step for routed replies: append the `fields` that say
    /// where the request ran (`shard`, `shards`, …). With one shard
    /// there is nothing to say and the reply is returned untouched.
    pub fn annotate<const N: usize>(&self, mut resp: Json, fields: [(&str, Json); N]) -> Json {
        if let ([_, _, ..], Json::Obj(out)) = (self.shards.as_slice(), &mut resp) {
            out.extend(fields.map(|(k, v)| (k.to_owned(), v)));
        }
        resp
    }

    /// [`ShardRouter::annotate`] with the one shard that served `resp`.
    pub fn annotate_shard(&self, resp: Json, shard: usize) -> Json {
        self.annotate(resp, [("shard", Json::Uint(shard as u64))])
    }

    /// Where shard `i` persists its part of a `dump` into `dir`: a
    /// `shard.<i>` subdirectory, or `dir` itself when it is the only
    /// shard.
    pub fn shard_dir(&self, dir: &str, i: usize) -> String {
        match self.shards.as_slice() {
            [_] => dir.to_owned(),
            _ => format!("{dir}/shard.{i}"),
        }
    }
}

/// The gather step over the per-shard replies of a scattered command:
/// `merge` them — unless one shard is all there is, whose reply *is*
/// the answer, byte for byte what an embedded [`Engine`] would give.
pub fn gather(mut replies: Vec<Json>, merge: impl FnOnce(&[Json]) -> Json) -> Json {
    match replies.as_slice() {
        [_] => replies.pop().expect("one reply"),
        all => merge(all),
    }
}

/// Merge per-shard `checkpoint` replies: the per-shard replies under
/// `"shards"` and the sum of their sequence numbers (what the merged
/// `wal.seq` / `wal.checkpoint_seq` stats count).
pub fn merge_checkpoint(per_shard: &[Json]) -> Json {
    let seq = per_shard
        .iter()
        .map(|r| r.get("seq").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    let rows = per_shard
        .iter()
        .enumerate()
        .map(|(i, r)| r.clone().set_field("shard", Json::Uint(i as u64)));
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("seq", Json::Uint(seq)),
        ("shards", Json::Arr(rows.collect())),
    ])
}

/// Merge per-shard `dump` replies. Shard `i` has persisted into
/// `dir/shard.<i>/` (its own deterministic manifest included); this
/// writes the top-level `manifest.tsv` with each shard's durable
/// command counters (`counts`, read under the same lock as its dump)
/// and their sums — so an N-shard recovered state remains
/// byte-comparable to a clean N-shard run with `diff -r`.
pub fn merge_dump(dir: &str, per_shard: &[Json], counts: &[CommandCounts]) -> Json {
    let n = per_shard.len();
    let mut total_mappings = 0u64;
    let mut sums = [0u64; 4];
    let mut shard_lines = String::new();
    for (i, (resp, c)) in per_shard.iter().zip(counts).enumerate() {
        let mappings = resp.get("mappings").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        total_mappings += mappings;
        let row = c.rows().map(|(_, v)| v);
        for (sum, v) in sums.iter_mut().zip(row) {
            *sum += v;
        }
        shard_lines.push_str(&format!(
            "shard\t{i}\t{mappings}\t{}\t{}\t{}\t{}\n",
            row[0], row[1], row[2], row[3]
        ));
    }
    let manifest = format!(
        "# moma shard dump manifest\nshards\t{n}\ncommands\t{}\t{}\t{}\t{}\n{shard_lines}",
        sums[0], sums[1], sums[2], sums[3]
    );
    let path = std::path::Path::new(dir).join("manifest.tsv");
    if let Err(e) = std::fs::write(&path, manifest) {
        return err_response(&format!("write {}: {e}", path.display()));
    }
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("dir", Json::Str(dir.into())),
        ("shards", Json::Uint(n as u64)),
        ("mappings", Json::Num(total_mappings as f64)),
    ])
}

/// Merge per-shard engine stats into the sharded `stats` response:
/// summed `commands` and `wal` aggregates (so dot-paths like
/// `commands.delta` and `wal.lag` stay meaningful), authoritative
/// per-source rows, all mappings annotated with their shard, and a
/// compact per-shard breakdown under `"shards"`.
pub fn merge_stats(router: &ShardRouter, per_shard: &[Json]) -> Json {
    let sum_field = |path: &[&str]| -> u64 {
        per_shard
            .iter()
            .map(|s| {
                let mut cur = Some(s);
                for p in path {
                    cur = cur.and_then(|c| c.get(p));
                }
                cur.and_then(Json::as_u64).unwrap_or(0)
            })
            .sum()
    };
    let commands = CommandCounts::default().rows().map(|(key, _)| {
        let sum = sum_field(&["commands", key]);
        (key, Json::Uint(sum))
    });
    let commands = Json::obj(commands.to_vec());
    let any_wal = per_shard
        .iter()
        .any(|s| !matches!(s.get("wal"), None | Some(Json::Null)));
    let wal = if any_wal {
        Json::obj(vec![
            ("seq", Json::Uint(sum_field(&["wal", "seq"]))),
            (
                "checkpoint_seq",
                Json::Uint(sum_field(&["wal", "checkpoint_seq"])),
            ),
            ("lag", Json::Uint(sum_field(&["wal", "lag"]))),
            ("segments", Json::Uint(sum_field(&["wal", "segments"]))),
        ])
    } else {
        Json::Null
    };

    // Authoritative source rows: each source reported from the shard
    // that owns its current replica.
    let mut sources = Vec::new();
    if let Some(Json::Arr(names)) = per_shard.first().and_then(|s| s.get("sources")).cloned() {
        for entry in &names {
            let Some(name) = entry.str_field("name") else {
                continue;
            };
            let auth = router.source_authority(name);
            let row = per_shard
                .get(auth)
                .and_then(|s| s.get("sources"))
                .and_then(Json::as_arr)
                .and_then(|arr| arr.iter().find(|e| e.str_field("name") == Some(name)))
                .cloned()
                .unwrap_or_else(|| entry.clone());
            if let Json::Obj(mut fields) = row {
                fields.push(("shard".to_owned(), Json::Uint(auth as u64)));
                sources.push(Json::Obj(fields));
            }
        }
    }

    let mut mappings = Vec::new();
    let mut shard_rows = Vec::new();
    for (i, s) in per_shard.iter().enumerate() {
        if let Some(Json::Arr(ms)) = s.get("mappings").cloned() {
            for m in ms {
                if let Json::Obj(mut fields) = m {
                    fields.push(("shard".to_owned(), Json::Uint(i as u64)));
                    mappings.push(Json::Obj(fields));
                }
            }
        }
        shard_rows.push(Json::obj(vec![
            ("shard", Json::Uint(i as u64)),
            ("commands", s.get("commands").cloned().unwrap_or(Json::Null)),
            ("wal", s.get("wal").cloned().unwrap_or(Json::Null)),
            (
                "mappings",
                Json::Uint(
                    s.get("mappings")
                        .and_then(Json::as_arr)
                        .map(|a| a.len() as u64)
                        .unwrap_or(0),
                ),
            ),
        ]));
    }

    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("commands", commands),
        ("wal", wal),
        ("sources", Json::Arr(sources)),
        ("mappings", Json::Arr(mappings)),
        (
            "full_rematch_warnings_suppressed",
            Json::Uint(sum_field(&["full_rematch_warnings_suppressed"])),
        ),
        ("shards", Json::Arr(shard_rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_stable() {
        // Routing must be reproducible across runs and platforms; pin
        // the hash so an accidental "upgrade" cannot silently re-place
        // every unclaimed domain.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("Publication@GS") % 4, fnv1a("Publication@GS") % 4);
        assert_ne!(fnv1a("a"), fnv1a("b"));
    }
}

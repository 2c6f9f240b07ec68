//! Shard router: N independent engines behind one serving endpoint.
//!
//! `moma serve --shards N` partitions the serving workload across N
//! [`Engine`] instances. Every shard boots from an identical clone of
//! the source registry and owns its own WAL directory, checkpoint
//! chain and admission budgets; what differs between shards is which
//! *sources* live on them, and with them every mapping over those
//! sources and every delta to them.
//!
//! ## Placement: one rule
//!
//! Every source has at most one **home** shard, and every mapping lives
//! on the home of its sources. MOMA derives mappings by composing stored
//! ones over the source they share (paper §3.2), so a server that keeps
//! all mappings over a source on one shard never has to join across
//! shards, and a delta never has more than one target.
//!
//! * A `match` goes to the home of its domain or of its range. If
//!   neither source has a home it goes to its `"shard"` hint, else to
//!   `fnv1a(domain) % N`, and both sources (and the mapping's name) are
//!   claimed for that shard under the index lock when it is planned —
//!   so two concurrent matches can never give one source two homes. A
//!   match that fails releases the claims it alone held. A hint that
//!   contradicts a home, two sources with different homes, or a mapping
//!   name another shard holds is refused with a routable error.
//! * A `delta`, and every `batch_delta` item, goes to its source's home
//!   only, once a write has stored a mapping there. A delta to a source
//!   with no home yet is refused.
//! * A `compose` runs where its inputs are: on one shard whenever they
//!   connect, since both read their middle source. Inputs on two shards
//!   (inputs that do not connect) are refused.
//! * `query`/`batch_query` route by mapping name; `stats` and `dump`
//!   scatter across all shards and gather in ascending shard order.
//!
//! The homes are a fold of the command history; at boot and after
//! recovery they are rebuilt from every repository entry of each shard
//! (every primed matcher's mapping is one). A source whose last mapping
//! a `compose` overwrote keeps its home while the server runs but loses
//! it across a restart. A recovered state that holds one source (or one
//! mapping name) on two shards — which earlier releases' replicated
//! deltas and cross-shard installs left behind — is refused at boot
//! ([`ShardRouter::new`]).
//!
//! ## One shard is the same router
//!
//! A default `moma serve` is this router with N = 1 — there is no
//! second code path. Two rules make its replies byte-identical to an
//! embedded [`Engine`]'s: a plan that cannot be made for a decoded
//! request (unknown mapping, unknown or homeless source) falls through
//! to the only shard there is, whose engine words the error itself
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
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use moma_model::ModelError;

use crate::engine::Engine;
use crate::json::Json;
use crate::protocol::{err_response, unknown_mapping, unknown_source};
use crate::request::{ComposeSpec, MatchSpec};
use crate::state::CommandCounts;
use crate::view::{ReadView, ViewSlot};

/// One shard: an engine, the slot its read views are published in, and
/// its private admission counters. The in-flight budgets in
/// [`crate::server::Limits`] apply **per shard**, so a hot shard
/// saturating its write budget does not shed load for traffic routed
/// elsewhere.
pub struct Shard {
    /// The shard's engine, write-locked by every command that changes
    /// it or writes files. Reads do not take this lock; only the
    /// background checkpointer's due-peek read-locks it.
    pub engine: RwLock<Engine>,
    /// The engine's [`ViewSlot`]: what reads answer from.
    pub views: Arc<ViewSlot>,
    /// Mutating commands in flight on this shard.
    pub inflight_writes: AtomicU64,
    /// Read-only commands in flight on this shard.
    pub inflight_reads: AtomicU64,
}

/// Where a source or a mapping name lives.
struct Place {
    shard: usize,
    /// Planned writes that claimed this place and have not settled.
    pending: usize,
    /// Whether a write has stored something here: a settled place is
    /// never released.
    settled: bool,
}

/// Deterministic routing state; a pure fold of the command history.
#[derive(Default)]
struct RouteIndex {
    /// Source name → its home shard.
    homes: BTreeMap<String, Place>,
    /// Mapping name → shard it lives on.
    mappings: BTreeMap<String, Place>,
}

/// A planned `match` or `compose`: the shard it runs on and the names
/// it claimed there, until [`ShardRouter::settle`] settles or releases
/// them.
pub(crate) struct Claim {
    pub shard: usize,
    sources: Vec<String>,
    mapping: String,
}

/// FNV-1a — the default placement hash for homeless domains. Stable
/// across runs and platforms (routing must be reproducible).
fn fnv1a(s: &str) -> u64 {
    let step = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    s.bytes().fold(0xcbf2_9ce4_8422_2325, step)
}

/// Claim `name` on `shard` for a write in flight.
fn claim(places: &mut BTreeMap<String, Place>, name: &str, shard: usize) {
    let unsettled = Place {
        shard,
        pending: 0,
        settled: false,
    };
    places.entry(name.to_owned()).or_insert(unsettled).pending += 1;
}

/// Settle one claim on `name`: kept for good if its write `stored`,
/// released if nothing else holds or settled it.
fn settle(places: &mut BTreeMap<String, Place>, name: &str, stored: bool) {
    let Some(place) = places.get_mut(name) else {
        return;
    };
    place.pending -= 1;
    place.settled |= stored;
    if !place.settled && place.pending == 0 {
        places.remove(name);
    }
}

/// Place `name` on `shard` for good, as a recovered state proves it —
/// or say which two shards hold it.
fn recover(
    places: &mut BTreeMap<String, Place>,
    what: &str,
    name: &str,
    shard: usize,
) -> Result<(), String> {
    claim(places, name, shard);
    settle(places, name, true);
    match places[name].shard {
        first if first != shard => Err(format!(
            "the recovered state holds {what} `{name}` on shards {first} and {shard}; \
             this release keeps each source and each mapping on one shard"
        )),
        _ => Ok(()),
    }
}

impl RouteIndex {
    /// The shard mapping `name` lives on, or the engine's `unknown
    /// mapping` error listing every shard's mappings.
    fn mapping(&self, name: &str) -> Result<usize, String> {
        let known = || unknown_mapping(name, self.mappings.keys().map(String::as_str));
        self.mappings.get(name).map(|p| p.shard).ok_or_else(known)
    }

    /// The index a set of booted or recovered shards proves: every
    /// repository entry places its name, its domain and its range on
    /// its shard. That covers every primed matcher too: a `match` stores
    /// its mapping under its own name, over the matcher's sources, and a
    /// later `compose` or `install` of the name releases the matcher.
    /// One source or one mapping name on two shards — what earlier
    /// releases' replicas and cross-shard installs left — is refused,
    /// naming both shards.
    fn recovered(shards: &[Shard]) -> Result<RouteIndex, String> {
        let mut idx = RouteIndex::default();
        for (i, shard) in shards.iter().enumerate() {
            let engine = shard.engine.read().unwrap_or_else(|p| p.into_inner());
            let registry = engine.registry();
            let entries = engine.snapshot().into_iter().map(|e| {
                let source = |id| registry.lds(id).name();
                (e.name, source(e.mapping.domain), source(e.mapping.range))
            });
            for (name, domain, range) in entries {
                recover(&mut idx.homes, "source", &domain, i)?;
                recover(&mut idx.homes, "source", &range, i)?;
                recover(&mut idx.mappings, "mapping", &name, i)?;
            }
        }
        Ok(idx)
    }
}

/// The router: shards plus the placement index. Lock order is strict —
/// the index lock is never held across an engine lock acquisition, and
/// multi-shard operations take engine locks in ascending shard order.
pub struct ShardRouter {
    shards: Vec<Shard>,
    /// Names of the boot image's sources. Every shard registers the
    /// same ones and none is added later, so the router can tell an
    /// unknown source from a homeless one without an engine lock.
    sources: BTreeSet<String>,
    index: RwLock<RouteIndex>,
}

impl ShardRouter {
    /// Wrap `engines` (one per shard) and rebuild the placement index
    /// from their current state — on a fresh boot the index is empty;
    /// after `--replay` it holds exactly the placements the recovered
    /// states prove. A state that holds one source or one mapping name
    /// on two shards is refused: this router would keep serving the
    /// copy no delta reaches any more.
    pub fn new(engines: Vec<Engine>) -> Result<ShardRouter, String> {
        assert!(!engines.is_empty(), "a server needs at least one shard");
        let sources = engines[0]
            .registry()
            .iter()
            .map(|(_, lds)| lds.name())
            .collect();
        let shards: Vec<Shard> = engines
            .into_iter()
            .map(|e| Shard {
                views: Arc::clone(e.views()),
                engine: RwLock::new(e),
                inflight_writes: AtomicU64::new(0),
                inflight_reads: AtomicU64::new(0),
            })
            .collect();
        let index = RwLock::new(RouteIndex::recovered(&shards)?);
        Ok(ShardRouter {
            shards,
            sources,
            index,
        })
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    /// The `i`-th shard.
    pub fn shard(&self, i: usize) -> &Shard {
        &self.shards[i]
    }

    /// The view shard `i` published last. Takes no engine lock.
    pub fn view(&self, i: usize) -> Arc<ReadView> {
        self.shards[i].views.load()
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

    fn index_read(&self) -> RwLockReadGuard<'_, RouteIndex> {
        self.index.read().unwrap_or_else(|p| p.into_inner())
    }

    fn index_write(&self) -> RwLockWriteGuard<'_, RouteIndex> {
        self.index.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Plan a `match`: the home of its domain, else of its range, else
    /// its hint, else `fnv1a(domain) % N` — and claim both sources and
    /// its name there, under the same index lock. A hint out of range
    /// or contradicting a home, sources with two different homes, or a
    /// name another shard holds is a routable error.
    pub(crate) fn plan_match(&self, spec: &MatchSpec) -> Result<Claim, String> {
        let (n, domain, range) = (self.shards.len(), &spec.domain, &spec.range);
        let sources = vec![domain.clone(), range.clone()];
        self.claim(&spec.name, sources, |idx| {
            let homes = [domain, range].map(|s| Some((s, idx.homes.get(s)?.shard)));
            match (homes, spec.shard) {
                (_, Some(h)) if h >= n => Err(format!(
                    "shard hint {h} out of range (this server has {n} shards)"
                )),
                ([Some((_, d)), Some((_, r))], _) if d != r => Err(format!(
                    "source `{domain}` is owned by shard {d} and `{range}` by \
                     shard {r}; a mapping between them would span shards"
                )),
                ([Some((s, owner)), _] | [None, Some((s, owner))], Some(h)) if h != owner => {
                    Err(format!(
                        "source `{s}` is owned by shard {owner}; \
                         explicit shard {h} would split its mappings"
                    ))
                }
                ([Some((_, owner)), _] | [None, Some((_, owner))], _) => Ok(owner),
                (_, hint) => Ok(hint.unwrap_or((fnv1a(domain) % n as u64) as usize)),
            }
        })
    }

    /// Plan a `compose`: the shard both inputs live on — and claim its
    /// name there. Inputs on two shards are refused.
    pub(crate) fn plan_compose(&self, spec: &ComposeSpec) -> Result<Claim, String> {
        let (left, right) = (&spec.left, &spec.right);
        self.claim(&spec.name, Vec::new(), |idx| {
            match (idx.mapping(left)?, idx.mapping(right)?) {
                (l, r) if l != r => Err(format!(
                    "compose inputs `{left}` (shard {l}) and `{right}` (shard {r}) \
                     live on different shards; a compose runs where its inputs are"
                )),
                (l, _) => Ok(l),
            }
        })
    }

    /// Under one index lock: `place` the write — where a plan cannot be
    /// made, [`ShardRouter::unplanned`] decides — refuse it if its name
    /// lives on another shard, and claim its name and `sources` on the
    /// shard chosen.
    fn claim(
        &self,
        name: &str,
        sources: Vec<String>,
        place: impl FnOnce(&RouteIndex) -> Result<usize, String>,
    ) -> Result<Claim, String> {
        let mut idx = self.index_write();
        let shard = place(&idx).or_else(|refusal| self.unplanned(refusal))?;
        if let Some(other) = idx.mappings.get(name).filter(|p| p.shard != shard) {
            let other = other.shard;
            let split = format!("storing it on shard {shard} would split it");
            return Err(format!("mapping `{name}` lives on shard {other}; {split}"));
        }
        for source in &sources {
            claim(&mut idx.homes, source, shard);
        }
        claim(&mut idx.mappings, name, shard);
        let mapping = name.to_owned();
        Ok(Claim {
            shard,
            sources,
            mapping,
        })
    }

    /// Settle a claimed write once its shard has answered: a write that
    /// `stored` places its name and sources on the shard for good; one
    /// that failed releases every claim no other write holds or settled.
    pub(crate) fn settle(&self, claim: Claim, stored: bool) {
        let mut idx = self.index_write();
        for source in &claim.sources {
            settle(&mut idx.homes, source, stored);
        }
        settle(&mut idx.mappings, &claim.mapping, stored);
    }

    /// Target shards for a `delta` to `source`: its home, the one shard
    /// every mapping over it lives on. A source with no settled home is
    /// refused — no mapping reads it, and a shard that took the delta
    /// alone would hold a copy of the source no other shard has (unless
    /// [`ShardRouter::unplanned`] sends it to the only shard there is).
    pub fn plan_delta(&self, source: &str) -> Result<Vec<usize>, String> {
        let home = match self.index_read().homes.get(source) {
            Some(home) if home.settled => Ok(home.shard),
            _ if !self.sources.contains(source) => {
                let unknown = ModelError::UnknownSource(source.to_owned());
                Err(unknown_source(source, &unknown))
            }
            _ => Err(format!(
                "no shard hosts mappings over source `{source}`; create a mapping \
                 that reads it first (deltas go to their source's home shard)"
            )),
        };
        Ok(vec![home.or_else(|refusal| self.unplanned(refusal))?])
    }

    /// The shard a mapping lives on, if the router knows it.
    pub fn mapping_shard(&self, name: &str) -> Option<usize> {
        self.index_read().mappings.get(name).map(|p| p.shard)
    }

    /// The shard a `query` of mapping `name` runs on, or the same
    /// `unknown mapping` error an engine gives — listing the mappings
    /// of every shard — unless [`ShardRouter::unplanned`] runs it.
    pub fn plan_mapping(&self, name: &str) -> Result<usize, String> {
        let plan = self.index_read().mapping(name);
        plan.or_else(|refusal| self.unplanned(refusal))
    }

    /// What becomes of a decoded request no plan could be made for (one
    /// that does not decode never gets this far, at any shard count). With
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
    let tsv = |row: [u64; 4]| row.map(|v| v.to_string()).join("\t");
    let (mut total_mappings, mut sums, mut shard_lines) = (0u64, [0u64; 4], String::new());
    for (i, (resp, c)) in per_shard.iter().zip(counts).enumerate() {
        let mappings = resp.get("mappings").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        total_mappings += mappings;
        let row = c.rows().map(|(_, v)| v);
        sums = std::array::from_fn(|k| sums[k] + row[k]);
        shard_lines.push_str(&format!("shard\t{i}\t{mappings}\t{}\n", tsv(row)));
    }
    let manifest = format!(
        "# moma shard dump manifest\nshards\t{n}\ncommands\t{}\n{shard_lines}",
        tsv(sums)
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
/// `commands.delta` and `wal.lag` stay meaningful), each source's row
/// from its home, all mappings annotated with their shard, and a
/// compact per-shard breakdown under `"shards"`.
pub fn merge_stats(router: &ShardRouter, per_shard: &[Json]) -> Json {
    let sum = |path: &[&str]| -> u64 {
        let at = |s| path.iter().try_fold(s, |j: &Json, key| j.get(key));
        per_shard.iter().filter_map(|s| at(s)?.as_u64()).sum()
    };
    let commands = CommandCounts::default().rows();
    let commands = commands.map(|(key, _)| (key, Json::Uint(sum(&["commands", key]))));
    let wal = [
        "seq",
        "checkpoint_seq",
        "lag",
        "segments",
        "checkpoint_failures",
    ];
    let wal = wal.map(|key| (key, Json::Uint(sum(&["wal", key]))));
    let any_wal = per_shard
        .iter()
        .any(|s| !matches!(s.get("wal"), None | Some(Json::Null)));
    fn rows<'j>(s: &'j Json, key: &str) -> &'j [Json] {
        s.get(key).and_then(Json::as_arr).unwrap_or_default()
    }
    let on = |row: &Json, shard: usize| row.clone().set_field("shard", Json::Uint(shard as u64));

    // Each source reported from its home, the one shard deltas reach
    // (a homeless one from shard 0: no delta has changed any copy).
    // Every shard lists the sources of one boot image, in one order.
    let first = per_shard.first().map_or(&[][..], |s| rows(s, "sources"));
    let sources = first.iter().enumerate().map(|(k, entry)| {
        let name = entry.str_field("name").unwrap_or_default();
        let home = router.index_read().homes.get(name).map_or(0, |p| p.shard);
        let at_home = per_shard.get(home).and_then(|s| rows(s, "sources").get(k));
        on(at_home.unwrap_or(entry), home)
    });
    let mappings = per_shard.iter().enumerate();
    let mappings = mappings.flat_map(|(i, s)| rows(s, "mappings").iter().map(move |m| on(m, i)));
    let shard_rows = per_shard.iter().enumerate().map(|(i, s)| {
        Json::obj(vec![
            ("shard", Json::Uint(i as u64)),
            ("commands", s.get("commands").cloned().unwrap_or(Json::Null)),
            ("wal", s.get("wal").cloned().unwrap_or(Json::Null)),
            ("mappings", Json::Uint(rows(s, "mappings").len() as u64)),
        ])
    });
    let wal = match any_wal {
        true => Json::obj(wal.to_vec()),
        false => Json::Null,
    };
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("commands", Json::obj(commands.to_vec())),
        ("wal", wal),
        ("sources", Json::Arr(sources.collect())),
        ("mappings", Json::Arr(mappings.collect())),
        ("shards", Json::Arr(shard_rows.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;
    use crate::request::{Origin, Request};
    use moma_core::exec::Parallelism;
    use moma_model::{AttrDef, LogicalSource, ObjectType, SourceRegistry};

    #[test]
    fn fnv1a_is_stable() {
        // Routing must be reproducible across runs and platforms; pin
        // the hash (the published FNV-1a 64 test vectors) so an
        // accidental "upgrade" cannot silently re-place every homeless
        // domain.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a("foobar"), 0x8594_4171_f739_67e8);
    }

    fn router(shards: usize) -> ShardRouter {
        let registry = || {
            let mut reg = SourceRegistry::new();
            for pds in ["DBLP", "ACM", "GS"] {
                let schema = vec![AttrDef::text("title")];
                let lds = LogicalSource::new(pds, ObjectType::new("Publication"), schema);
                reg.register(lds).unwrap();
            }
            reg
        };
        let engines = (0..shards).map(|_| Engine::new(registry(), Parallelism::sequential()));
        ShardRouter::new(engines.collect()).unwrap()
    }

    fn spec(name: &str, domain: &str, range: &str, hint: Option<usize>) -> MatchSpec {
        let (d, r) = (
            format!("Publication@{domain}"),
            format!("Publication@{range}"),
        );
        let req = protocol::match_request(name, &d, &r, "title", "title", "trigram", 0.5);
        let req = hint.map_or(req.clone(), |h| protocol::with_shard(req, h));
        match Request::decode(&req, Origin::Trusted).unwrap() {
            Request::Match(spec) => spec,
            other => panic!("{other:?}"),
        }
    }

    /// Claims made while planning keep one home per source among writes
    /// in flight; a failed match releases only what no other write holds,
    /// and a delta reaches a home only once a write has settled it.
    #[test]
    fn a_failed_match_releases_only_the_claims_it_alone_held() {
        let router = router(2);
        let home = |source: &str| {
            let idx = router.index_read();
            idx.homes
                .get(&format!("Publication@{source}"))
                .map(|p| p.shard)
        };
        let a = router
            .plan_match(&spec("a", "DBLP", "ACM", Some(1)))
            .unwrap();
        let b = router.plan_match(&spec("b", "ACM", "GS", None)).unwrap();
        assert_eq!((a.shard, b.shard), (1, 1), "b follows a's claim on ACM");
        let split = router.plan_match(&spec("c", "GS", "GS", Some(0)));
        assert!(split.err().unwrap().contains("owned by shard 1"));
        assert!(
            router.plan_delta("Publication@ACM").is_err(),
            "nothing settled"
        );

        router.settle(a, false);
        assert_eq!((home("DBLP"), home("ACM")), (None, Some(1)), "b holds ACM");
        assert_eq!(router.mapping_shard("a"), None);
        router.settle(b, true);
        assert_eq!(router.plan_delta("Publication@GS"), Ok(vec![1]));
        assert!(router.plan_delta("Publication@DBLP").is_err());
        let again = router.plan_match(&spec("a", "DBLP", "ACM", Some(0)));
        assert!(again.err().unwrap().contains("owned by shard 1"));
        let renamed = router.plan_match(&spec("b", "DBLP", "DBLP", Some(0)));
        assert!(renamed
            .err()
            .unwrap()
            .contains("mapping `b` lives on shard 1"));
    }
}

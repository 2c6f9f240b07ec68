//! Mapping repository and cache (paper Section 2.2, Figure 3).
//!
//! "A mapping repository is used to materialize both association and
//! same-mappings. … MOMA also maintains a mapping cache for storing
//! intermediate same-mappings derived during a match workflow."
//!
//! The repository is concurrency-safe (matchers may run in parallel) and
//! persists to a directory of TSV mapping tables keyed by *instance
//! string ids*, so files survive regeneration of the in-memory arenas.
//!
//! ## Version stamps and dependency-based invalidation
//!
//! Materialized mappings exist to be *reused* — including mappings
//! derived from other mappings (compose / union / intersect / diff /
//! merge results). When an upstream mapping is patched (e.g. by the
//! incremental matcher in [`crate::delta`]), its derived downstream
//! results are stale. The repository therefore stamps every entry with a
//! monotonically increasing **version**, and a derived entry stored via
//! [`MappingRepository::store_derived`] records its [`Recipe`] plus the
//! versions of its inputs at derivation time. [`MappingRepository::is_stale`]
//! detects drift, and [`MappingRepository::refresh_stale`] recomputes
//! exactly the stale entries, in dependency order. Entries stored
//! without a recipe are *leaves* and are never recomputed (storing over a
//! derived name turns it back into a leaf).

use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::RwLock;

use moma_model::SourceRegistry;
use moma_table::tsv::{escape_field, unescape_field};
use moma_table::{FxHashMap, MappingTable};

use crate::error::{CoreError, Result};
use crate::mapping::{Mapping, MappingKind};
use crate::ops::compose::{compose, PathAgg, PathCombine};
use crate::ops::merge::{merge, MergeFn, MissingPolicy};
use crate::ops::setops;

/// How a derived repository entry is recomputed from other entries.
#[derive(Debug, Clone, PartialEq)]
pub enum Recipe {
    /// `compose(left, right, f, g)`.
    Compose {
        /// Name of the left input mapping.
        left: String,
        /// Name of the right input mapping.
        right: String,
        /// Per-path combination function.
        f: PathCombine,
        /// Path-aggregation function.
        g: PathAgg,
    },
    /// `union(left, right)`.
    Union {
        /// Left input name.
        left: String,
        /// Right input name.
        right: String,
    },
    /// `intersect(left, right)`.
    Intersect {
        /// Left input name.
        left: String,
        /// Right input name.
        right: String,
    },
    /// `diff(left, right)`.
    Difference {
        /// Left input name.
        left: String,
        /// Right input name.
        right: String,
    },
    /// `merge(inputs, f, missing)`.
    Merge {
        /// Input names, in order.
        inputs: Vec<String>,
        /// Combination function.
        f: MergeFn,
        /// Missing-correspondence policy.
        missing: MissingPolicy,
    },
}

impl Recipe {
    /// Names of the entries this recipe reads.
    pub fn inputs(&self) -> Vec<&str> {
        match self {
            Recipe::Compose { left, right, .. }
            | Recipe::Union { left, right }
            | Recipe::Intersect { left, right }
            | Recipe::Difference { left, right } => vec![left, right],
            Recipe::Merge { inputs, .. } => inputs.iter().map(String::as_str).collect(),
        }
    }

    /// Recompute the derived mapping from the repository's current
    /// entries.
    fn recompute(&self, repo: &MappingRepository) -> Result<Mapping> {
        let binary = |l: &str, r: &str| -> Result<(Arc<Mapping>, Arc<Mapping>)> {
            Ok((repo.require(l)?, repo.require(r)?))
        };
        match self {
            Recipe::Compose { left, right, f, g } => {
                let (a, b) = binary(left, right)?;
                compose(a.as_ref(), b.as_ref(), *f, *g)
            }
            Recipe::Union { left, right } => {
                let (a, b) = binary(left, right)?;
                setops::union(a.as_ref(), b.as_ref())
            }
            Recipe::Intersect { left, right } => {
                let (a, b) = binary(left, right)?;
                setops::intersection(a.as_ref(), b.as_ref())
            }
            Recipe::Difference { left, right } => {
                let (a, b) = binary(left, right)?;
                setops::difference(a.as_ref(), b.as_ref())
            }
            Recipe::Merge { inputs, f, missing } => {
                let maps: Vec<Arc<Mapping>> = inputs
                    .iter()
                    .map(|n| repo.require(n))
                    .collect::<Result<_>>()?;
                let refs: Vec<&Mapping> = maps.iter().map(Arc::as_ref).collect();
                merge(&refs, f.clone(), *missing)
            }
        }
    }
}

/// One repository slot: the mapping, its version stamp, and — for
/// derived entries — the recipe plus the input versions it was computed
/// from.
#[derive(Debug, Clone)]
struct Entry {
    mapping: Arc<Mapping>,
    version: u64,
    recipe: Option<Recipe>,
    /// `(input name, input version at derivation time)`.
    dep_versions: Vec<(String, u64)>,
}

/// One entry of a [`MappingRepository::snapshot`]: an immutable view of
/// a repository slot at capture time.
///
/// The mapping itself is shared via [`Arc`], so a snapshot stays valid
/// (and bit-identical) no matter how many deltas are applied to the
/// repository afterwards — this is the read side of the serving layer's
/// snapshot isolation (`moma-server`).
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// Entry name.
    pub name: String,
    /// Version stamp at capture time.
    pub version: u64,
    /// The mapping contents at capture time.
    pub mapping: Arc<Mapping>,
    /// For derived entries: `(input name, input version at derivation
    /// time)`. Empty for leaves.
    pub dep_versions: Vec<(String, u64)>,
    /// Whether the entry was derived (has a recipe).
    pub derived: bool,
}

/// Thread-safe named store of mappings.
#[derive(Debug, Default)]
pub struct MappingRepository {
    inner: RwLock<FxHashMap<String, Entry>>,
    /// Source of version stamps; the first store gets version 1.
    next_version: AtomicU64,
}

impl MappingRepository {
    /// Empty repository.
    pub fn new() -> Self {
        Self::default()
    }

    fn bump(&self) -> u64 {
        self.next_version.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn store_entry(&self, name: String, mapping: Mapping, recipe: Option<Recipe>) -> Arc<Mapping> {
        let dep_versions = match &recipe {
            Some(r) => r
                .inputs()
                .iter()
                .map(|n| ((*n).to_owned(), self.version(n).unwrap_or(0)))
                .collect(),
            None => Vec::new(),
        };
        let arc = Arc::new(mapping);
        let entry = Entry {
            mapping: Arc::clone(&arc),
            version: self.bump(),
            recipe,
            dep_versions,
        };
        self.inner
            .write()
            .expect("repository lock poisoned")
            .insert(name, entry);
        arc
    }

    /// Store a mapping under its own name, replacing any previous entry
    /// (the entry becomes a *leaf*: any recorded recipe is dropped).
    pub fn store(&self, mapping: Mapping) -> Arc<Mapping> {
        self.store_entry(mapping.name.clone(), mapping, None)
    }

    /// Store a mapping under an explicit name (leaf, like
    /// [`MappingRepository::store`]).
    pub fn store_as(&self, name: impl Into<String>, mapping: Mapping) -> Arc<Mapping> {
        let name = name.into();
        self.store_entry(name.clone(), mapping.named(name.clone()), None)
    }

    /// Replace a leaf mapping in place — the entry point used by
    /// incremental matching when a source delta patches a materialized
    /// mapping. Identical to [`MappingRepository::store_as`] (the new
    /// version stamp is what marks downstream derived entries stale).
    pub fn patch(&self, name: impl Into<String>, mapping: Mapping) -> Arc<Mapping> {
        self.store_as(name, mapping)
    }

    /// Restore an entry verbatim — exact version stamp, recipe and
    /// recorded input versions — without consuming a new version number.
    /// This is the checkpoint-recovery entry point (`moma-server`):
    /// rebuilding state from a checkpoint must reproduce the pre-crash
    /// stamps bit-identically, which `store_*` (which always bumps)
    /// cannot do. Pair with [`MappingRepository::restore_version_counter`]
    /// so post-restore stores continue the original numbering.
    pub fn restore_entry(
        &self,
        name: impl Into<String>,
        mapping: Mapping,
        version: u64,
        recipe: Option<Recipe>,
        dep_versions: Vec<(String, u64)>,
    ) {
        self.inner
            .write()
            .expect("repository lock poisoned")
            .insert(
                name.into(),
                Entry {
                    mapping: Arc::new(mapping),
                    version,
                    recipe,
                    dep_versions,
                },
            );
    }

    /// The highest version stamp handed out so far.
    pub fn version_counter(&self) -> u64 {
        self.next_version.load(Ordering::Relaxed)
    }

    /// Advance the version counter to at least `value` (checkpoint
    /// recovery; never moves it backwards).
    pub fn restore_version_counter(&self, value: u64) {
        self.next_version.fetch_max(value, Ordering::Relaxed);
    }

    /// Compute a derived mapping from current entries via `recipe` and
    /// store it under `name`, recording the recipe and the input
    /// versions for later staleness checks.
    pub fn store_derived(&self, name: impl Into<String>, recipe: Recipe) -> Result<Arc<Mapping>> {
        let name = name.into();
        let mapping = recipe.recompute(self)?.named(name.clone());
        Ok(self.store_entry(name, mapping, Some(recipe)))
    }

    /// Fetch a mapping by name.
    pub fn get(&self, name: &str) -> Option<Arc<Mapping>> {
        self.inner
            .read()
            .expect("repository lock poisoned")
            .get(name)
            .map(|e| Arc::clone(&e.mapping))
    }

    /// Fetch or error.
    pub fn require(&self, name: &str) -> Result<Arc<Mapping>> {
        self.get(name)
            .ok_or_else(|| CoreError::UnknownMapping(name.into()))
    }

    /// Current version stamp of an entry.
    pub fn version(&self, name: &str) -> Option<u64> {
        self.inner
            .read()
            .expect("repository lock poisoned")
            .get(name)
            .map(|e| e.version)
    }

    /// The recipe of a derived entry (`None` for leaves and unknown
    /// names).
    pub fn recipe(&self, name: &str) -> Option<Recipe> {
        self.inner
            .read()
            .expect("repository lock poisoned")
            .get(name)
            .and_then(|e| e.recipe.clone())
    }

    /// Whether a derived entry's inputs have moved since it was computed
    /// (a missing input also counts as stale). Leaves are never stale.
    pub fn is_stale(&self, name: &str) -> bool {
        let guard = self.inner.read().expect("repository lock poisoned");
        let Some(entry) = guard.get(name) else {
            return false;
        };
        if entry.recipe.is_none() {
            return false;
        }
        entry
            .dep_versions
            .iter()
            .any(|(dep, v)| guard.get(dep).map(|e| e.version) != Some(*v))
    }

    /// Names of all currently stale derived entries, sorted.
    pub fn stale_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .names()
            .into_iter()
            .filter(|n| self.is_stale(n))
            .collect();
        v.sort();
        v
    }

    /// Recompute every stale derived entry, in dependency order, so that
    /// afterwards no entry is stale. Returns the refreshed names in
    /// recomputation order. Staleness cascades: refreshing an entry
    /// bumps its version, which marks *its* dependents stale in turn.
    ///
    /// Errors if a recipe input is missing or if derived entries form a
    /// dependency cycle.
    pub fn refresh_stale(&self) -> Result<Vec<String>> {
        let mut refreshed = Vec::new();
        loop {
            let stale = self.stale_names();
            if stale.is_empty() {
                return Ok(refreshed);
            }
            // Refresh entries none of whose inputs are themselves stale;
            // at least one must exist unless the graph has a cycle.
            let mut progressed = false;
            for name in &stale {
                let Some(recipe) = self.recipe(name) else {
                    continue; // raced away; next loop iteration re-checks
                };
                if recipe.inputs().iter().any(|i| self.is_stale(i)) {
                    continue;
                }
                let mapping = recipe.recompute(self)?.named(name.clone());
                self.store_entry(name.clone(), mapping, Some(recipe));
                refreshed.push(name.clone());
                progressed = true;
            }
            if !progressed {
                return Err(CoreError::InvalidConfig(format!(
                    "derived mappings form a dependency cycle: {stale:?}"
                )));
            }
        }
    }

    /// Capture a consistent snapshot of every entry — name, version,
    /// mapping contents and (for derived entries) recorded input
    /// versions — under a **single** lock acquisition, sorted by name.
    ///
    /// Because all entries are read under one read-lock guard, a
    /// snapshot can never observe a half-applied multi-entry update
    /// (e.g. a patched leaf whose derived dependents have not been
    /// refreshed yet, when patch and refresh happen under one writer
    /// critical section). Entry mappings are `Arc`-shared: later stores
    /// replace the repository's slots but never mutate a snapshot's
    /// contents.
    pub fn snapshot(&self) -> Vec<SnapshotEntry> {
        let guard = self.inner.read().expect("repository lock poisoned");
        let mut out: Vec<SnapshotEntry> = guard
            .iter()
            .map(|(name, e)| SnapshotEntry {
                name: name.clone(),
                version: e.version,
                mapping: Arc::clone(&e.mapping),
                dep_versions: e.dep_versions.clone(),
                derived: e.recipe.is_some(),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Whether a name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.inner
            .read()
            .expect("repository lock poisoned")
            .contains_key(name)
    }

    /// Remove an entry; returns whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        self.inner
            .write()
            .expect("repository lock poisoned")
            .remove(name)
            .is_some()
    }

    /// All stored names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .inner
            .read()
            .expect("repository lock poisoned")
            .keys()
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// Number of stored mappings.
    pub fn len(&self) -> usize {
        self.inner.read().expect("repository lock poisoned").len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.inner
            .read()
            .expect("repository lock poisoned")
            .is_empty()
    }

    /// Remove everything.
    pub fn clear(&self) {
        self.inner
            .write()
            .expect("repository lock poisoned")
            .clear();
    }

    /// Persist all mappings into `dir`, one TSV file per mapping, rows
    /// keyed by instance string ids resolved through `registry`. Names
    /// and ids are escaped ([`moma_table::tsv::escape_field`]) so values
    /// containing tabs or newlines round-trip instead of corrupting the
    /// file. Rows referencing tombstoned (removed) instances are
    /// skipped.
    pub fn persist_dir(&self, dir: impl AsRef<Path>, registry: &SourceRegistry) -> Result<()> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        for (i, name) in self.names().iter().enumerate() {
            let mapping = self.get(name).expect("name listed");
            let d_lds = registry.lds(mapping.domain);
            let r_lds = registry.lds(mapping.range);
            let kind = match &mapping.kind {
                MappingKind::Same => "same".to_owned(),
                MappingKind::Association(t) => format!("assoc:{t}"),
            };
            let mut text = String::new();
            text.push_str(&format!("#name\t{}\n", escape_field(&mapping.name)));
            text.push_str(&format!("#kind\t{}\n", escape_field(&kind)));
            text.push_str(&format!("#domain\t{}\n", escape_field(&d_lds.name())));
            text.push_str(&format!("#range\t{}\n", escape_field(&r_lds.name())));
            for c in mapping.table.iter() {
                if !d_lds.is_live(c.domain) || !r_lds.is_live(c.range) {
                    continue;
                }
                let (Some(d), Some(r)) = (
                    d_lds.get(c.domain).map(|i| &i.id),
                    r_lds.get(c.range).map(|i| &i.id),
                ) else {
                    continue;
                };
                text.push_str(&format!(
                    "{}\t{}\t{}\n",
                    escape_field(d),
                    escape_field(r),
                    c.sim
                ));
            }
            fs::write(dir.join(format!("mapping_{i:04}.tsv")), text)?;
        }
        Ok(())
    }

    /// Load every `mapping_*.tsv` in `dir` into the repository, resolving
    /// instance ids through `registry`. Rows whose ids are unknown are
    /// skipped; files whose sources are unknown raise an error.
    pub fn load_dir(&self, dir: impl AsRef<Path>, registry: &SourceRegistry) -> Result<usize> {
        let mut loaded = 0usize;
        let mut paths: Vec<_> = fs::read_dir(dir.as_ref())?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.starts_with("mapping_") && n.ends_with(".tsv"))
                    .unwrap_or(false)
            })
            .collect();
        paths.sort();
        for path in paths {
            let text = fs::read_to_string(&path)?;
            let mut name = String::new();
            let mut kind = MappingKind::Same;
            let mut domain = None;
            let mut range = None;
            let mut table = MappingTable::new();
            for line in text.lines() {
                if let Some(rest) = line.strip_prefix('#') {
                    let mut parts = rest.split('\t');
                    match (parts.next(), parts.next()) {
                        (Some("name"), Some(v)) => name = unescape_field(v),
                        (Some("kind"), Some(v)) => {
                            kind = match unescape_field(v).strip_prefix("assoc:") {
                                Some(t) => MappingKind::Association(t.to_owned()),
                                None => MappingKind::Same,
                            }
                        }
                        (Some("domain"), Some(v)) => {
                            domain = Some(registry.resolve(&unescape_field(v))?)
                        }
                        (Some("range"), Some(v)) => {
                            range = Some(registry.resolve(&unescape_field(v))?)
                        }
                        _ => {}
                    }
                    continue;
                }
                if line.is_empty() {
                    continue;
                }
                let mut parts = line.split('\t');
                let (Some(d), Some(r), Some(s)) = (parts.next(), parts.next(), parts.next()) else {
                    continue;
                };
                let (Some(domain), Some(range)) = (domain, range) else {
                    continue;
                };
                let (d_lds, r_lds) = (registry.lds(domain), registry.lds(range));
                if let (Some(di), Some(ri), Ok(sim)) = (
                    d_lds.index_of(&unescape_field(d)),
                    r_lds.index_of(&unescape_field(r)),
                    s.parse::<f64>(),
                ) {
                    table.push(di, ri, sim);
                }
            }
            let (Some(domain), Some(range)) = (domain, range) else {
                return Err(CoreError::InvalidConfig(format!(
                    "mapping file {} lacks #domain/#range headers",
                    path.display()
                )));
            };
            table.dedup_max();
            self.store(Mapping {
                name,
                kind,
                domain,
                range,
                table,
            });
            loaded += 1;
        }
        Ok(loaded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_model::{AttrDef, LdsId, LogicalSource, ObjectType};

    fn mapping(name: &str) -> Mapping {
        Mapping::same(
            name,
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 1.0)]),
        )
    }

    #[test]
    fn store_get_remove() {
        let repo = MappingRepository::new();
        assert!(repo.is_empty());
        repo.store(mapping("a"));
        repo.store_as("b", mapping("ignored"));
        assert_eq!(repo.len(), 2);
        assert!(repo.contains("a"));
        assert_eq!(repo.get("b").unwrap().name, "b");
        assert!(repo.require("c").is_err());
        assert!(repo.remove("a"));
        assert!(!repo.remove("a"));
        assert_eq!(repo.names(), vec!["b".to_owned()]);
        repo.clear();
        assert!(repo.is_empty());
    }

    #[test]
    fn restore_entry_preserves_stamps_and_counter() {
        let repo = MappingRepository::new();
        repo.restore_entry("a", mapping("a"), 7, None, vec![("upstream".into(), 3)]);
        repo.restore_version_counter(7);
        assert_eq!(repo.version("a"), Some(7));
        assert_eq!(repo.version_counter(), 7);
        // The next store continues the restored numbering.
        repo.store(mapping("b"));
        assert_eq!(repo.version("b"), Some(8));
        // And the counter never moves backwards.
        repo.restore_version_counter(2);
        assert_eq!(repo.version_counter(), 8);
    }

    #[test]
    fn store_replaces() {
        let repo = MappingRepository::new();
        repo.store(mapping("a"));
        let mut m2 = mapping("a");
        m2.table = MappingTable::from_triples([(5, 5, 0.5)]);
        repo.store(m2);
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.get("a").unwrap().table.sim_of(5, 5), Some(0.5));
    }

    #[test]
    fn versions_increase_on_store() {
        let repo = MappingRepository::new();
        repo.store(mapping("a"));
        let v1 = repo.version("a").unwrap();
        repo.patch("a", mapping("a"));
        let v2 = repo.version("a").unwrap();
        assert!(v2 > v1);
        assert_eq!(repo.version("ghost"), None);
        // Leaves are never stale.
        assert!(!repo.is_stale("a"));
        assert!(!repo.is_stale("ghost"));
    }

    #[test]
    fn derived_entries_track_staleness() {
        let repo = MappingRepository::new();
        repo.store(Mapping::same(
            "A",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 1.0), (1, 1, 0.8)]),
        ));
        repo.store(Mapping::same(
            "B",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(2, 2, 0.9)]),
        ));
        let u = repo
            .store_derived(
                "U",
                Recipe::Union {
                    left: "A".into(),
                    right: "B".into(),
                },
            )
            .unwrap();
        assert_eq!(u.len(), 3);
        assert_eq!(u.name, "U");
        assert!(!repo.is_stale("U"));
        assert!(repo.recipe("U").is_some());
        assert!(repo.recipe("A").is_none());

        // Patch a leaf: the derived entry goes stale; refresh fixes it.
        repo.patch(
            "B",
            Mapping::same(
                "B",
                LdsId(0),
                LdsId(1),
                MappingTable::from_triples([(2, 2, 0.9), (3, 3, 0.7)]),
            ),
        );
        assert!(repo.is_stale("U"));
        assert_eq!(repo.stale_names(), vec!["U".to_owned()]);
        let refreshed = repo.refresh_stale().unwrap();
        assert_eq!(refreshed, vec!["U".to_owned()]);
        assert!(!repo.is_stale("U"));
        assert_eq!(repo.get("U").unwrap().len(), 4);
    }

    #[test]
    fn refresh_cascades_through_chains() {
        let repo = MappingRepository::new();
        repo.store(Mapping::same(
            "A",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 1.0)]),
        ));
        repo.store(Mapping::same(
            "B",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(1, 1, 1.0)]),
        ));
        repo.store_derived(
            "U",
            Recipe::Union {
                left: "A".into(),
                right: "B".into(),
            },
        )
        .unwrap();
        repo.store_derived(
            "I",
            Recipe::Intersect {
                left: "U".into(),
                right: "A".into(),
            },
        )
        .unwrap();
        repo.patch(
            "A",
            Mapping::same(
                "A",
                LdsId(0),
                LdsId(1),
                MappingTable::from_triples([(0, 0, 1.0), (5, 5, 1.0)]),
            ),
        );
        // Both derived entries are stale; refresh handles U before I.
        assert_eq!(repo.stale_names().len(), 2);
        let order = repo.refresh_stale().unwrap();
        assert_eq!(order, vec!["U".to_owned(), "I".to_owned()]);
        assert_eq!(repo.get("I").unwrap().len(), 2);
        assert!(repo.stale_names().is_empty());
    }

    #[test]
    fn refresh_errors_on_missing_input_and_cycles() {
        let repo = MappingRepository::new();
        repo.store(mapping("A"));
        repo.store(mapping("B"));
        repo.store_derived(
            "U",
            Recipe::Union {
                left: "A".into(),
                right: "B".into(),
            },
        )
        .unwrap();
        repo.remove("B");
        assert!(repo.is_stale("U")); // missing input counts as stale
        assert!(repo.refresh_stale().is_err());
        // Unknown-input derivation errors up front too.
        assert!(matches!(
            repo.store_derived(
                "X",
                Recipe::Union {
                    left: "A".into(),
                    right: "ghost".into()
                },
            ),
            Err(CoreError::UnknownMapping(_))
        ));
    }

    #[test]
    fn compose_recipe_derives_and_refreshes() {
        let repo = MappingRepository::new();
        // A: 0 -> 0, 1 -> 1 ; B: LDS1 self-identity.
        repo.store(Mapping::same(
            "A",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 1.0), (1, 1, 0.8)]),
        ));
        repo.store(Mapping::same(
            "B",
            LdsId(1),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 1.0), (1, 1, 1.0)]),
        ));
        let c = repo
            .store_derived(
                "C",
                Recipe::Compose {
                    left: "A".into(),
                    right: "B".into(),
                    f: PathCombine::Min,
                    g: PathAgg::Max,
                },
            )
            .unwrap();
        assert_eq!(c.table.sim_of(1, 1), Some(0.8));
        repo.patch(
            "A",
            Mapping::same(
                "A",
                LdsId(0),
                LdsId(1),
                MappingTable::from_triples([(1, 1, 0.5)]),
            ),
        );
        repo.refresh_stale().unwrap();
        let c = repo.get("C").unwrap();
        assert_eq!(c.table.sim_of(1, 1), Some(0.5));
        assert_eq!(c.table.sim_of(0, 0), None);
    }

    #[test]
    fn merge_recipe_refreshes() {
        let repo = MappingRepository::new();
        repo.store(Mapping::same(
            "A",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 1.0)]),
        ));
        repo.store(Mapping::same(
            "B",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 0.5)]),
        ));
        repo.store_derived(
            "M",
            Recipe::Merge {
                inputs: vec!["A".into(), "B".into()],
                f: MergeFn::Avg,
                missing: MissingPolicy::Ignore,
            },
        )
        .unwrap();
        assert_eq!(repo.get("M").unwrap().table.sim_of(0, 0), Some(0.75));
        repo.patch(
            "B",
            Mapping::same(
                "B",
                LdsId(0),
                LdsId(1),
                MappingTable::from_triples([(0, 0, 1.0)]),
            ),
        );
        repo.refresh_stale().unwrap();
        assert_eq!(repo.get("M").unwrap().table.sim_of(0, 0), Some(1.0));
    }

    #[test]
    fn snapshot_is_immutable_and_dep_consistent() {
        let repo = MappingRepository::new();
        repo.store(Mapping::same(
            "A",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 1.0)]),
        ));
        repo.store(mapping("B"));
        repo.store_derived(
            "U",
            Recipe::Union {
                left: "A".into(),
                right: "B".into(),
            },
        )
        .unwrap();

        let snap = repo.snapshot();
        assert_eq!(
            snap.iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            vec!["A", "B", "U"],
            "snapshot entries are sorted by name"
        );
        let a_version = snap[0].version;
        let u = &snap[2];
        assert!(u.derived && !snap[0].derived);
        // The derived entry's recorded input versions agree with the
        // versions captured in the same snapshot: no half-applied state.
        for (dep, v) in &u.dep_versions {
            let got = snap.iter().find(|e| &e.name == dep).map(|e| e.version);
            assert_eq!(got, Some(*v), "dep {dep} inconsistent in snapshot");
        }

        // Patch A and refresh; the old snapshot must not move.
        repo.patch(
            "A",
            Mapping::same(
                "A",
                LdsId(0),
                LdsId(1),
                MappingTable::from_triples([(0, 0, 1.0), (7, 7, 0.9)]),
            ),
        );
        repo.refresh_stale().unwrap();
        assert_eq!(snap[0].version, a_version);
        assert_eq!(snap[0].mapping.len(), 1, "snapshot kept pre-delta rows");
        assert!(repo.version("A").unwrap() > a_version);
        // A fresh snapshot is again dep-consistent after the refresh.
        let snap2 = repo.snapshot();
        let u2 = snap2.iter().find(|e| e.name == "U").unwrap();
        for (dep, v) in &u2.dep_versions {
            let got = snap2.iter().find(|e| &e.name == dep).map(|e| e.version);
            assert_eq!(got, Some(*v));
        }
    }

    #[test]
    fn concurrent_access() {
        let repo = Arc::new(MappingRepository::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let r = Arc::clone(&repo);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    r.store(mapping(&format!("m{t}_{i}")));
                    let _ = r.get(&format!("m{t}_{}", i / 2));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(repo.len(), 400);
    }

    fn registry_with_sources() -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        let mut a = LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title")],
        );
        a.insert_record("d0", vec![]).unwrap();
        a.insert_record("d1", vec![]).unwrap();
        let mut b = LogicalSource::new(
            "ACM",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title")],
        );
        b.insert_record("p0", vec![]).unwrap();
        b.insert_record("p1", vec![]).unwrap();
        reg.register(a).unwrap();
        reg.register(b).unwrap();
        reg
    }

    #[test]
    fn persistence_roundtrip() {
        let reg = registry_with_sources();
        let repo = MappingRepository::new();
        repo.store(Mapping::same(
            "PubSame",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 1, 0.9), (1, 0, 0.4)]),
        ));
        repo.store(Mapping::association(
            "SomeAssoc",
            "pubs of venue",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(1, 1, 1.0)]),
        ));
        let dir = std::env::temp_dir().join("moma_repo_roundtrip");
        let _ = fs::remove_dir_all(&dir);
        repo.persist_dir(&dir, &reg).unwrap();

        let repo2 = MappingRepository::new();
        let loaded = repo2.load_dir(&dir, &reg).unwrap();
        assert_eq!(loaded, 2);
        let m = repo2.get("PubSame").unwrap();
        assert_eq!(m.table.sim_of(0, 1), Some(0.9));
        assert_eq!(m.table.sim_of(1, 0), Some(0.4));
        assert!(m.kind.is_same());
        let a = repo2.get("SomeAssoc").unwrap();
        assert_eq!(a.kind, MappingKind::Association("pubs of venue".into()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistence_roundtrip_with_hostile_ids_and_names() {
        let mut reg = SourceRegistry::new();
        let mut a = LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title")],
        );
        a.insert_record("tab\tid", vec![]).unwrap();
        a.insert_record("nl\nid", vec![]).unwrap();
        let mut b = LogicalSource::new(
            "ACM",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title")],
        );
        b.insert_record("\"quoted\" — é", vec![]).unwrap();
        b.insert_record("back\\slash", vec![]).unwrap();
        reg.register(a).unwrap();
        reg.register(b).unwrap();

        let repo = MappingRepository::new();
        repo.store(Mapping::same(
            "name with\ttab and\nnewline",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 0.9), (1, 1, 0.4)]),
        ));
        let dir = std::env::temp_dir().join("moma_repo_hostile_ids");
        let _ = fs::remove_dir_all(&dir);
        repo.persist_dir(&dir, &reg).unwrap();

        let repo2 = MappingRepository::new();
        assert_eq!(repo2.load_dir(&dir, &reg).unwrap(), 1);
        let m = repo2.get("name with\ttab and\nnewline").unwrap();
        assert_eq!(m.table.sim_of(0, 0), Some(0.9));
        assert_eq!(m.table.sim_of(1, 1), Some(0.4));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_skips_tombstoned_instances() {
        let mut reg = registry_with_sources();
        let repo = MappingRepository::new();
        repo.store(Mapping::same(
            "PubSame",
            LdsId(0),
            LdsId(1),
            MappingTable::from_triples([(0, 0, 1.0), (1, 1, 0.8)]),
        ));
        reg.lds_mut(LdsId(0)).remove("d1");
        let dir = std::env::temp_dir().join("moma_repo_tombstones");
        let _ = fs::remove_dir_all(&dir);
        repo.persist_dir(&dir, &reg).unwrap();
        let repo2 = MappingRepository::new();
        repo2.load_dir(&dir, &reg).unwrap();
        let m = repo2.get("PubSame").unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.table.sim_of(0, 0), Some(1.0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_skips_unknown_instances() {
        let reg = registry_with_sources();
        let dir = std::env::temp_dir().join("moma_repo_unknown_ids");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("mapping_0000.tsv"),
            "#name\tX\n#kind\tsame\n#domain\tPublication@DBLP\n#range\tPublication@ACM\n\
             d0\tp0\t1\nGHOST\tp1\t0.5\n",
        )
        .unwrap();
        let repo = MappingRepository::new();
        repo.load_dir(&dir, &reg).unwrap();
        assert_eq!(repo.get("X").unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}

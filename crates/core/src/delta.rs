//! Incremental (delta) matching: patch a materialized mapping in place
//! when its sources change, instead of re-matching from scratch.
//!
//! MOMA's central idea is *reuse*: materialized mappings in the
//! repository are cheaper to adapt than to recompute (paper Section 2.2,
//! Figure 3). This module is the runtime form of that idea for evolving
//! sources. A [`DeltaMatchState`] — created by
//! [`AttributeMatcher::prime`] — is the mapping plus the two sides the
//! match ran over: `prime` *keeps* the match's own prepared columns
//! (every value tokenized / parsed once, its grams as ids of the
//! match's one dictionary), that dictionary and the range index, and
//! builds only the domain index on top — from the ids the domain
//! values already carry. Which index family a side carries (none,
//! prefix, threshold) is the matcher's resolved plan, not a property
//! of this module. When a
//! [`SourceDelta`](moma_model::SourceDelta) is applied to the registry,
//! feeding the resulting [`AppliedDelta`] to [`DeltaMatchState::apply`]
//!
//! 1. syncs both sides with the registry (each touched value prepared
//!    once through the state's dictionary, indexes maintained in place
//!    with the old and new ids — tombstones + compaction, see
//!    [`crate::blocking`]),
//! 2. drops the mapping rows whose domain or range instance was touched,
//! 3. probes **only** the touched domain values against the range side
//!    (forward) and the touched range values against the domain side
//!    (inverse) — two calls of the one match kernel
//!    (`matchers::kernel::probe`), which keeps `(domain, range)` argument
//!    order in both directions,
//!
//! giving per-delta cost proportional to `|delta|`, not `|source|`.
//! Probes are sharded through the caller's
//! [`Parallelism`](crate::exec::Parallelism) exactly like full matcher
//! execution, and the result is **bit-for-bit identical to a full
//! re-match** at every thread count (property-tested in
//! `tests/incremental_equivalence.rs`). A self-mapping (domain and range
//! are the same source) is the same code: one delta touches both sides,
//! and the overlap of the forward and inverse probes collapses when the
//! table is canonicalized.
//!
//! ## When incremental execution applies
//!
//! The identical-result guarantee needs the candidate filter to be exact
//! with respect to the scoring measure *in both probe directions*.
//! [`DeltaMatchState::apply`] therefore runs incrementally for
//!
//! * any fixed similarity function whose resolved plan scores all pairs
//!   (explicit [`Blocking::AllPairs`], or [`Blocking::Threshold`]
//!   falling back for a non-q-gram measure),
//! * any q-gram measure under [`Blocking::Threshold`] — the
//!   T-occurrence bounds are exact and *symmetric*, so both sides carry
//!   a threshold [`CandidateIndex`](crate::blocking::CandidateIndex), and
//! * trigram-Dice scoring ([`SimFn::Trigram`] / `QgramDice(3)`) with
//!   [`Blocking::TrigramPrefix`];
//!
//! [`Blocking::AllPairs`]: crate::blocking::Blocking::AllPairs
//! [`Blocking::Threshold`]: crate::blocking::Blocking::Threshold
//! [`Blocking::TrigramPrefix`]: crate::blocking::Blocking::TrigramPrefix
//!
//! for every other configuration — TF-IDF (its corpus is global: one
//! added document changes every weight) or any other measure under
//! [`Blocking::TrigramPrefix`] (the conservative Dice floor makes results
//! depend on the probe direction) — it transparently falls back to a
//! full re-match, still returning the correct mapping.
//! [`DeltaMatchState::is_incremental`] reports which regime a state is in.
//!
//! Downstream, patched repository mappings invalidate the compose /
//! set-op / merge results derived from them via version stamps; see
//! [`MappingRepository::refresh_stale`](crate::repository::MappingRepository::refresh_stale)
//! and [`DeltaMatchState::patch_and_refresh`].

use moma_model::{AppliedDelta, LdsId, LogicalSource};
use moma_simstring::{GramDict, SimFn};
use moma_table::{Correspondence, FxHashSet, MappingTable};

use crate::blocking::Probe;
use crate::error::{CoreError, Result};
use crate::mapping::Mapping;
use crate::matchers::attribute::{string_candidates, CandidatePlan, StringSide, Value};
use crate::matchers::kernel::{present, probe, Side};
use crate::matchers::{AttributeMatcher, MatchContext, Matcher, MatcherSim};
use crate::repository::MappingRepository;

/// Materialized incremental-matching state for one
/// `(matcher, domain LDS, range LDS)` triple.
#[derive(Debug, Clone)]
pub struct DeltaMatchState {
    matcher: AttributeMatcher,
    domain: LdsId,
    range: LdsId,
    /// The `(domain, range)` columns the match ran over, each behind the
    /// index the matcher's plan calls for: touched domain values probe
    /// the range side, touched range values probe the domain side
    /// *inversely* — next to the gram dictionary all their values were
    /// prepared with (and every later value is). `None` = not
    /// incremental (every apply re-matches from the registry, so there
    /// is nothing to keep).
    sides: Option<(GramDict, StringSide, StringSide)>,
    mapping: Mapping,
    /// Rows re-scored by the last [`DeltaMatchState::apply`] call
    /// (0 after a full-fallback apply).
    pub last_rescored: usize,
    /// Whether the last [`DeltaMatchState::apply`] call touched this
    /// state's projections at all (false: the deltas were irrelevant and
    /// the mapping is unchanged).
    last_touched: bool,
    /// Whether the last [`DeltaMatchState::apply`] call fell back to a
    /// full re-match.
    last_full_rematch: bool,
    /// Total number of full-re-match fallbacks executed by this state.
    full_rematches: u64,
}

/// Whether a matcher configuration supports incremental delta execution
/// with the identical-result guarantee (see module docs). Decided on the
/// *resolved* candidate plan: all-pairs and threshold-exact plans are
/// always incremental for fixed measures; prefix-filtered plans only
/// when the filter is exact for the scoring measure (trigram Dice at
/// the matcher threshold).
fn supports_incremental(m: &AttributeMatcher) -> bool {
    // TF-IDF: the weighted-prefix index is exact for a *frozen* corpus,
    // but any delta shifts the corpus-global weights, so every apply
    // must be a full re-match.
    let MatcherSim::Fixed(sim) = &m.sim else {
        return false;
    };
    match m.candidate_plan() {
        CandidatePlan::AllPairs | CandidatePlan::Index(Probe::Threshold { .. }) => true,
        CandidatePlan::Index(Probe::Prefix { .. }) => {
            matches!(sim, SimFn::Trigram | SimFn::QgramDice(3))
        }
        CandidatePlan::TfIdf => false,
    }
}

impl AttributeMatcher {
    /// Execute the matcher fully and capture a [`DeltaMatchState`] so
    /// that subsequent source deltas can be matched incrementally. The
    /// state keeps the projections and the range index the match itself
    /// ran over; only the domain index is built on top.
    pub fn prime(
        &self,
        ctx: &MatchContext<'_>,
        domain: LdsId,
        range: LdsId,
    ) -> Result<DeltaMatchState> {
        let (table, matched) = self.full_match(ctx, domain, range)?;
        let sides = matched.filter(|_| supports_incremental(self)).map(
            |(dict, domain_vals, range_side)| {
                let index = self.build_candidate_index(&present(&domain_vals), &ctx.parallelism);
                let domain_side = Side {
                    vals: domain_vals,
                    index,
                };
                (dict, domain_side, range_side)
            },
        );
        Ok(DeltaMatchState {
            matcher: self.clone(),
            domain,
            range,
            sides,
            mapping: Mapping::same(self.name(), domain, range, table),
            last_rescored: 0,
            last_touched: false,
            last_full_rematch: false,
            full_rematches: 0,
        })
    }
}

/// Sync one side's value (and index, if the plan has one) for arena
/// index `id` with the registry's current state: the new value is
/// prepared once, through the state's dictionary. Idempotent:
/// re-applying the same delta finds the side already current and
/// degenerates to no-ops.
fn sync_value(
    side: &mut StringSide,
    lds: &LogicalSource,
    id: u32,
    attr: &str,
    prepare: &mut dyn FnMut(&str) -> Value,
) -> Result<()> {
    let new = if lds.is_live(id) {
        lds.attr_of(id, attr)?
            .map(|v| prepare(&v.to_match_string()))
    } else {
        None
    };
    if side.vals.len() <= id as usize {
        side.vals.resize(id as usize + 1, None);
    }
    let old = std::mem::replace(&mut side.vals[id as usize], new);
    if let Some(idx) = &mut side.index {
        match (&old, &side.vals[id as usize]) {
            (Some(o), Some(n)) => {
                if !idx.replace(id, o.tokens(), n.tokens()) {
                    idx.insert(id, n.tokens());
                }
            }
            (Some(_), None) => {
                idx.remove(id);
            }
            (None, Some(n)) => {
                idx.insert(id, n.tokens());
            }
            (None, None) => {}
        }
    }
    Ok(())
}

/// The touched ids of one side as kernel queries: deduplicated (an id
/// updated twice probes once, on its final value) and restricted to the
/// values still present.
fn queries<'a>(touched: &[u32], side: &'a StringSide) -> Vec<(u32, &'a Value)> {
    let mut ids = touched.to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .filter_map(|i| Some((i, side.vals.get(i as usize)?.as_ref()?)))
        .collect()
}

impl DeltaMatchState {
    /// The current (incrementally maintained) mapping.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Whether deltas are executed incrementally (`false`: every apply
    /// is a transparent full re-match; see module docs).
    pub fn is_incremental(&self) -> bool {
        self.sides.is_some()
    }

    /// Whether the last [`DeltaMatchState::apply`] call changed anything
    /// (`false`: the deltas did not touch this state's matched
    /// projections, so the mapping is untouched).
    pub fn last_touched(&self) -> bool {
        self.last_touched
    }

    /// Whether the last [`DeltaMatchState::apply`] call paid a full
    /// re-match instead of an incremental patch. Always `false` for
    /// irrelevant deltas (they are skipped before the fallback).
    pub fn last_was_full_rematch(&self) -> bool {
        self.last_full_rematch
    }

    /// Total number of full-re-match fallbacks this state has executed.
    /// Non-incremental configurations (e.g. TF-IDF, whose corpus-global
    /// weights shift under any delta) pay one per relevant delta batch;
    /// operators can watch this via the server's `delta`/`stats`
    /// endpoints to see which mappings carry full-re-match cost.
    pub fn full_rematches(&self) -> u64 {
        self.full_rematches
    }

    /// Apply source deltas (already applied to `ctx.registry` via
    /// [`SourceRegistry::apply_delta`](moma_model::SourceRegistry::apply_delta))
    /// to the materialized mapping. Deltas against sources other than
    /// this state's domain/range are ignored; a delta against a
    /// self-mapping source touches both sides. Returns the patched
    /// mapping.
    pub fn apply(&mut self, ctx: &MatchContext<'_>, deltas: &[&AppliedDelta]) -> Result<&Mapping> {
        // 1. Collect touched arena indexes per side, in delta order.
        //    `dropped`: rows referencing these must go. `probe`: values
        //    to re-score (adds + updates; removals only drop).
        let mut dropped_d: Vec<u32> = Vec::new();
        let mut probe_d: Vec<u32> = Vec::new();
        let mut dropped_r: Vec<u32> = Vec::new();
        let mut probe_r: Vec<u32> = Vec::new();
        for delta in deltas {
            for (side, attr) in [
                (delta.lds == self.domain).then_some((0, &self.matcher.domain_attr)),
                (delta.lds == self.range).then_some((1, &self.matcher.range_attr)),
            ]
            .into_iter()
            .flatten()
            {
                let (added, removed, updated) = delta.touched_for_attr(attr);
                let (dropped, probe) = if side == 0 {
                    (&mut dropped_d, &mut probe_d)
                } else {
                    (&mut dropped_r, &mut probe_r)
                };
                dropped.extend(removed.iter().copied());
                dropped.extend(updated.iter().copied());
                dropped.extend(added.iter().copied()); // idempotent re-apply
                probe.extend(added.iter().copied());
                probe.extend(updated.iter().copied());
            }
        }
        // Deltas that touch neither matched projection can't change the
        // mapping — skip even the full-fallback re-match.
        if dropped_d.is_empty() && dropped_r.is_empty() {
            self.last_rescored = 0;
            self.last_touched = false;
            self.last_full_rematch = false;
            return Ok(&self.mapping);
        }
        self.last_touched = true;
        let (Some((dict, domain_side, range_side)), MatcherSim::Fixed(sim)) =
            (&mut self.sides, &self.matcher.sim)
        else {
            self.last_rescored = 0;
            self.last_full_rematch = true;
            self.full_rematches += 1;
            self.mapping = self.matcher.execute(ctx, self.domain, self.range)?;
            return Ok(&self.mapping);
        };
        self.last_full_rematch = false;

        // 2. Sync both sides with the registry.
        let d_lds = ctx.registry.lds(self.domain);
        let r_lds = ctx.registry.lds(self.range);
        let probe_plan = self.matcher.probe();
        let mut prepare = |text: &str| Value::prepare(text, sim, probe_plan, dict);
        for &id in &dropped_d {
            let attr = &self.matcher.domain_attr;
            sync_value(domain_side, d_lds, id, attr, &mut prepare)?;
        }
        for &id in &dropped_r {
            let attr = &self.matcher.range_attr;
            sync_value(range_side, r_lds, id, attr, &mut prepare)?;
        }

        // 3. Drop every row touching a changed instance.
        let drop_d: FxHashSet<u32> = dropped_d.iter().copied().collect();
        let drop_r: FxHashSet<u32> = dropped_r.iter().copied().collect();
        let mut rows: Vec<Correspondence> = std::mem::take(&mut self.mapping.table)
            .into_rows()
            .into_iter()
            .filter(|c| !drop_d.contains(&c.domain) && !drop_r.contains(&c.range))
            .collect();

        // 4. Re-probe touched values: domain values forward against the
        //    range side, range values inverse against the domain side.
        let probe_d = queries(&probe_d, domain_side);
        let probe_r = queries(&probe_r, range_side);
        self.last_rescored = probe_d.len() + probe_r.len();
        let score = |d: &Value, r: &Value| Value::score(sim, d, r);
        let (par, t) = (ctx.parallelism, self.matcher.threshold);
        let forward = probe(
            par,
            &probe_d,
            range_side,
            string_candidates,
            score,
            t,
            false,
        );
        let inverse = probe(
            par,
            &probe_r,
            domain_side,
            string_candidates,
            score,
            t,
            true,
        );
        rows.extend(forward);
        rows.extend(inverse);

        // 5. Rebuild the table: dedup_max collapses the overlap between
        //    the forward and inverse probes (identical scores) and
        //    restores (domain, range) order — exactly the shape a full
        //    re-match produces.
        self.mapping.table = MappingTable::from_rows(rows);
        Ok(&self.mapping)
    }

    /// Apply deltas, publish the patched mapping into `repository` under
    /// `name`, and run [`MappingRepository::refresh_stale`]. Note the
    /// refresh is repository-wide: it recomputes (and the returned names
    /// include) *every* stale derived entry — those downstream of this
    /// patch plus any left stale by earlier un-refreshed patches.
    pub fn patch_and_refresh(
        &mut self,
        ctx: &MatchContext<'_>,
        deltas: &[&AppliedDelta],
        repository: &MappingRepository,
        name: &str,
    ) -> Result<Vec<String>> {
        if !repository.contains(name) {
            return Err(CoreError::UnknownMapping(name.into()));
        }
        self.apply(ctx, deltas)?;
        repository.patch(name, self.mapping.clone().named(name));
        repository.refresh_stale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::Blocking;
    use crate::exec::Parallelism;
    use crate::ops::compose::{PathAgg, PathCombine};
    use crate::repository::Recipe;
    use moma_model::{AttrDef, LogicalSource, ObjectType, SourceDelta, SourceRegistry};

    fn setup() -> (SourceRegistry, LdsId, LdsId) {
        let mut reg = SourceRegistry::new();
        let mut dblp = LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::year("year")],
        );
        let mut acm = LogicalSource::new(
            "ACM",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::year("year")],
        );
        let titles = [
            "A formal perspective on the view selection problem",
            "Generic Schema Matching with Cupid",
            "Potter's Wheel: An Interactive Data Cleaning System",
            "Robust and Efficient Fuzzy Match for Online Data Cleaning",
        ];
        for (i, t) in titles.iter().enumerate() {
            dblp.insert_record(format!("d{i}"), vec![("title", (*t).into())])
                .unwrap();
        }
        for (i, t) in titles.iter().enumerate().take(3) {
            acm.insert_record(format!("a{i}"), vec![("title", format!("{t}.").into())])
                .unwrap();
        }
        let d = reg.register(dblp).unwrap();
        let a = reg.register(acm).unwrap();
        (reg, d, a)
    }

    fn assert_incremental_equals_full(
        matcher: &AttributeMatcher,
        reg: &mut SourceRegistry,
        d: LdsId,
        a: LdsId,
        deltas: Vec<SourceDelta>,
    ) {
        let ctx = MatchContext::new(reg);
        let mut state = matcher.prime(&ctx, d, a).unwrap();
        for delta in deltas {
            let applied = reg.apply_delta(&delta).unwrap();
            let ctx = MatchContext::new(reg);
            let incremental = state.apply(&ctx, &[&applied]).unwrap().clone();
            let full = matcher.execute(&ctx, d, a).unwrap();
            assert_eq!(
                incremental.table.rows(),
                full.table.rows(),
                "incremental != full after {applied:?}"
            );
        }
    }

    #[test]
    fn incremental_tracks_adds_updates_removes_allpairs() {
        let (mut reg, d, a) = setup();
        let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.7)
            .with_blocking(Blocking::AllPairs);
        let deltas = vec![
            SourceDelta::new(a).add(
                "a9",
                vec![(
                    "title".into(),
                    "Robust and Efficient Fuzzy Match for Online Data Cleaning".into(),
                )],
            ),
            SourceDelta::new(d).update(
                "d1",
                "title",
                Some("Generic schema matching with CUPID".into()),
            ),
            SourceDelta::new(d).remove("d0"),
            SourceDelta::new(a).remove("a2").remove("a2"), // duplicate
            SourceDelta::new(d).update("d2", "title", None), // clear attr
        ];
        assert_incremental_equals_full(&matcher, &mut reg, d, a, deltas);
    }

    #[test]
    fn incremental_tracks_changes_blocked() {
        let (mut reg, d, a) = setup();
        let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.6)
            .with_blocking(Blocking::TrigramPrefix);
        let deltas = vec![
            SourceDelta::new(a)
                .add(
                    "a9",
                    vec![(
                        "title".into(),
                        "Potter's Wheel: Interactive Cleaning".into(),
                    )],
                )
                .remove("a0"),
            SourceDelta::new(d).update(
                "d3",
                "title",
                Some("Fuzzy Match for Online Data Cleaning".into()),
            ),
            // No-op update: same value written back.
            SourceDelta::new(d).update(
                "d3",
                "title",
                Some("Fuzzy Match for Online Data Cleaning".into()),
            ),
        ];
        assert_incremental_equals_full(&matcher, &mut reg, d, a, deltas);
    }

    #[test]
    fn incremental_tracks_changes_threshold_blocked() {
        // The default blocking: threshold-exact indexes on both sides,
        // maintained in place (bucket moves on updates, tombstones on
        // removals, gramless transitions on attribute clears).
        for sim in [SimFn::Trigram, SimFn::QgramJaccard(3)] {
            let (mut reg, d, a) = setup();
            let matcher = AttributeMatcher::new("title", "title", sim, 0.5);
            assert_eq!(matcher.blocking, Blocking::Threshold);
            let deltas = vec![
                SourceDelta::new(a)
                    .add(
                        "a9",
                        vec![(
                            "title".into(),
                            "Potter's Wheel: Interactive Cleaning".into(),
                        )],
                    )
                    .remove("a0"),
                SourceDelta::new(d).update(
                    "d3",
                    "title",
                    Some("Fuzzy Match for Online Data Cleaning".into()),
                ),
                SourceDelta::new(d).update("d2", "title", Some("!!".into())), // to gramless
                SourceDelta::new(d).update("d2", "title", Some("Potter's Wheel".into())),
            ];
            assert_incremental_equals_full(&matcher, &mut reg, d, a, deltas);
        }
    }

    #[test]
    fn self_mapping_deltas_touch_both_sides() {
        let (mut reg, d, _) = setup();
        let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.5);
        let deltas = vec![
            SourceDelta::new(d).add(
                "dup",
                vec![("title".into(), "Generic Schema Matching with Cupid!".into())],
            ),
            SourceDelta::new(d).remove("d1"),
        ];
        assert_incremental_equals_full(&matcher, &mut reg, d, d, deltas);
    }

    #[test]
    fn irrelevant_deltas_are_ignored() {
        let (mut reg, d, a) = setup();
        let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.7);
        let ctx = MatchContext::new(&reg);
        let mut state = matcher.prime(&ctx, d, a).unwrap();
        let before = state.mapping().table.rows().to_vec();
        // Update of an attribute this matcher does not read.
        let applied = reg
            .apply_delta(&SourceDelta::new(d).update("d0", "year", Some(2001u16.into())))
            .unwrap();
        let ctx = MatchContext::new(&reg);
        state.apply(&ctx, &[&applied]).unwrap();
        assert_eq!(state.last_rescored, 0);
        assert!(!state.last_touched());
        assert!(!state.last_was_full_rematch());
        assert_eq!(state.full_rematches(), 0);
        assert_eq!(state.mapping().table.rows(), &before[..]);
        // Empty delta list.
        state.apply(&ctx, &[]).unwrap();
        assert_eq!(state.mapping().table.rows(), &before[..]);
    }

    #[test]
    fn reapplying_a_delta_is_idempotent() {
        let (mut reg, d, a) = setup();
        let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.6)
            .with_blocking(Blocking::TrigramPrefix);
        let ctx = MatchContext::new(&reg);
        let mut state = matcher.prime(&ctx, d, a).unwrap();
        let delta = SourceDelta::new(a)
            .add("a9", vec![("title".into(), "Potter's Wheel".into())])
            .update("a1", "title", Some("Schema Matching, generically".into()))
            .remove("a0");
        let applied = reg.apply_delta(&delta).unwrap();
        let ctx = MatchContext::new(&reg);
        let once = state
            .apply(&ctx, &[&applied])
            .unwrap()
            .table
            .rows()
            .to_vec();
        let twice = state
            .apply(&ctx, &[&applied])
            .unwrap()
            .table
            .rows()
            .to_vec();
        assert_eq!(once, twice);
        let full = matcher.execute(&ctx, d, a).unwrap();
        assert_eq!(twice, full.table.rows());
    }

    #[test]
    fn unsupported_configs_fall_back_to_full() {
        let (mut reg, d, a) = setup();
        // Jaro scoring under blocking has a conservative candidate floor:
        // no identical-result guarantee, so apply == full re-match.
        let blocked_jaro = AttributeMatcher::new("title", "title", SimFn::Jaro, 0.9)
            .with_blocking(Blocking::TrigramPrefix);
        let tfidf = AttributeMatcher::tfidf("title", "title", 0.5);
        for matcher in [blocked_jaro, tfidf] {
            let ctx = MatchContext::new(&reg);
            let mut state = matcher.prime(&ctx, d, a).unwrap();
            assert!(!state.is_incremental());
            let applied = reg
                .apply_delta(
                    &SourceDelta::new(a).add("zz", vec![("title".into(), "Potter's Wheel".into())]),
                )
                .unwrap();
            let ctx = MatchContext::new(&reg);
            let got = state.apply(&ctx, &[&applied]).unwrap().clone();
            let full = matcher.execute(&ctx, d, a).unwrap();
            assert_eq!(got.table.rows(), full.table.rows());
            // The fallback is visible to operators: the apply was a full
            // re-match and the counter advanced.
            assert!(state.last_touched());
            assert!(state.last_was_full_rematch());
            assert_eq!(state.full_rematches(), 1);
            reg.apply_delta(&SourceDelta::new(a).remove("zz")).unwrap();
        }
    }

    #[test]
    fn incremental_results_identical_across_thread_counts() {
        let (mut reg, d, a) = setup();
        let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.6)
            .with_blocking(Blocking::TrigramPrefix);
        let delta = SourceDelta::new(a)
            .add(
                "n0",
                vec![("title".into(), "View selection, formally".into())],
            )
            .add("n1", vec![("title".into(), "Data Cleaning Systems".into())])
            .remove("a1");
        let mut reference: Option<Vec<Correspondence>> = None;
        for threads in [1usize, 2, 8] {
            let mut reg_t = reg.clone();
            let par = Parallelism::new(threads).with_min_shard_size(1);
            let ctx = MatchContext::new(&reg_t).with_parallelism(par);
            let mut state = matcher.prime(&ctx, d, a).unwrap();
            let applied = reg_t.apply_delta(&delta).unwrap();
            let ctx = MatchContext::new(&reg_t).with_parallelism(par);
            let rows = state
                .apply(&ctx, &[&applied])
                .unwrap()
                .table
                .rows()
                .to_vec();
            match &reference {
                None => reference = Some(rows),
                Some(r) => assert_eq!(&rows, r, "threads={threads}"),
            }
        }
        // Keep `reg` borrowed mutably above happy.
        let _ = &mut reg;
    }

    #[test]
    fn patch_and_refresh_updates_downstream() {
        let (mut reg, d, a) = setup();
        let par = Parallelism::sequential();
        let repo = MappingRepository::new();
        let matcher = AttributeMatcher::new("title", "title", SimFn::Trigram, 0.7);
        let ctx = MatchContext::new(&reg).with_parallelism(par);
        let mut state = matcher.prime(&ctx, d, a).unwrap();
        repo.store_as("TitleSame", state.mapping().clone());
        // ACM self-identity to compose through.
        let acm_len = reg.lds(a).len() as u32;
        repo.store(Mapping::identity(a, acm_len).named("AcmId"));
        repo.store_derived(
            "Composed",
            Recipe::Compose {
                left: "TitleSame".into(),
                right: "AcmId".into(),
                f: PathCombine::Min,
                g: PathAgg::Max,
            },
        )
        .unwrap();

        // Unknown repository name is a typed error.
        let ctx = MatchContext::new(&reg).with_parallelism(par);
        assert!(matches!(
            state.patch_and_refresh(&ctx, &[], &repo, "ghost"),
            Err(CoreError::UnknownMapping(_))
        ));

        let applied = reg.apply_delta(&SourceDelta::new(d).remove("d0")).unwrap();
        let ctx = MatchContext::new(&reg).with_parallelism(par);
        let refreshed = state
            .patch_and_refresh(&ctx, &[&applied], &repo, "TitleSame")
            .unwrap();
        assert_eq!(refreshed, vec!["Composed".to_owned()]);
        // The composed result no longer contains the removed instance.
        let composed = repo.get("Composed").unwrap();
        assert!(composed.table.iter().all(|c| c.domain != 0));
        assert!(!repo.is_stale("Composed"));
        assert_eq!(
            repo.get("TitleSame").unwrap().table.rows(),
            state.mapping().table.rows()
        );
    }
}

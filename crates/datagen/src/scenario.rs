//! Derivation of the three source views (DBLP / ACM / GS), their
//! association mappings, and the gold-standard same-mappings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use moma_core::{Mapping, MappingRepository};
use moma_model::{AttrDef, AttrValue, LdsId, LogicalSource, ObjectType, SourceRegistry};
use moma_table::{FxHashMap, FxHashSet, MappingTable};

use crate::config::WorldConfig;
use crate::corrupt::{abbreviate_name, drop_tail, truncate_words, typo, typos};
use crate::gold::GoldStandard;
use crate::names::{TITLE_CONTEXTS, TITLE_OPENERS, TITLE_TECHNIQUES};
use crate::world::{Series, World};

/// Handles for the eight logical sources of the scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioIds {
    /// `Publication@DBLP`
    pub pub_dblp: LdsId,
    /// `Author@DBLP`
    pub author_dblp: LdsId,
    /// `Venue@DBLP`
    pub venue_dblp: LdsId,
    /// `Publication@ACM`
    pub pub_acm: LdsId,
    /// `Author@ACM`
    pub author_acm: LdsId,
    /// `Venue@ACM`
    pub venue_acm: LdsId,
    /// `Publication@GS`
    pub pub_gs: LdsId,
    /// `Author@GS`
    pub author_gs: LdsId,
}

/// All gold standards of the evaluation setting.
#[derive(Debug, Clone, Default)]
pub struct Gold {
    /// Publications DBLP ↔ ACM.
    pub pub_dblp_acm: GoldStandard,
    /// Publications DBLP ↔ GS (every duplicate GS entry must match —
    /// the paper's "restrictive" evaluation, Section 5.6).
    pub pub_dblp_gs: GoldStandard,
    /// Publications GS ↔ ACM.
    pub pub_gs_acm: GoldStandard,
    /// Venues DBLP ↔ ACM.
    pub venue_dblp_acm: GoldStandard,
    /// Authors DBLP ↔ ACM.
    pub author_dblp_acm: GoldStandard,
    /// Authors DBLP ↔ GS.
    pub author_dblp_gs: GoldStandard,
    /// Authors GS ↔ ACM.
    pub author_gs_acm: GoldStandard,
    /// Duplicate author identities within DBLP (both directions).
    pub author_dup_dblp: GoldStandard,
}

/// The full evaluation scenario.
pub struct Scenario {
    /// The ground-truth world.
    pub world: World,
    /// Registry holding all eight logical sources.
    pub registry: SourceRegistry,
    /// Repository holding association mappings, native GS→ACM links,
    /// the GS cluster self-mapping and the DBLP author identity mapping.
    pub repository: MappingRepository,
    /// Source handles.
    pub ids: ScenarioIds,
    /// Gold standards.
    pub gold: Gold,
    /// Per DBLP publication row: is it a conference paper?
    pub dblp_pub_is_conf: Vec<bool>,
    /// Per DBLP venue row: is it a conference?
    pub dblp_venue_is_conf: Vec<bool>,
    /// Per GS entry row: the world publication it represents (None for
    /// noise entries).
    pub gs_entry_pub: Vec<Option<usize>>,
}

impl Scenario {
    /// Generate a scenario from a configuration.
    pub fn generate(config: WorldConfig) -> Scenario {
        let world = World::generate(config);
        Self::from_world(world)
    }

    /// The standard paper-scale scenario.
    pub fn paper_scale() -> Scenario {
        Self::generate(WorldConfig::paper_scale())
    }

    /// A small scenario for tests.
    pub fn small() -> Scenario {
        Self::generate(WorldConfig::small())
    }

    /// Build the scenario views from an existing world.
    pub fn from_world(world: World) -> Scenario {
        Builder::new(world).build()
    }
}

/// DBLP author identity: a person, optionally under a duplicate variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Identity {
    person: usize,
    /// Index into `world.duplicates` when this is a variant identity.
    variant: Option<usize>,
}

struct Builder {
    world: World,
    rng: StdRng,
    registry: SourceRegistry,
    repository: MappingRepository,
}

impl Builder {
    fn new(world: World) -> Self {
        // Derive the corruption RNG from the world seed (offset so it does
        // not replay the world generator's stream).
        let rng = StdRng::seed_from_u64(world.config.seed.wrapping_add(0x5EED));
        Self {
            world,
            rng,
            registry: SourceRegistry::new(),
            repository: MappingRepository::new(),
        }
    }

    fn build(mut self) -> Scenario {
        let pub_schema = vec![
            AttrDef::text("title"),
            AttrDef::text_list("authors"),
            AttrDef::year("year"),
            AttrDef::text("pages"),
            AttrDef::int("citations"),
        ];
        let mut pub_dblp =
            LogicalSource::new("DBLP", ObjectType::new("Publication"), pub_schema.clone());
        let mut author_dblp = LogicalSource::new(
            "DBLP",
            ObjectType::new("Author"),
            vec![AttrDef::text("name")],
        );
        let mut venue_dblp = LogicalSource::new(
            "DBLP",
            ObjectType::new("Venue"),
            vec![AttrDef::text("name")],
        );
        let mut pub_acm =
            LogicalSource::new("ACM", ObjectType::new("Publication"), pub_schema.clone());
        let mut author_acm = LogicalSource::new(
            "ACM",
            ObjectType::new("Author"),
            vec![AttrDef::text("name")],
        );
        let mut venue_acm =
            LogicalSource::new("ACM", ObjectType::new("Venue"), vec![AttrDef::text("name")]);
        let mut pub_gs =
            LogicalSource::new("GS", ObjectType::new("Publication"), pub_schema.clone());
        let mut author_gs =
            LogicalSource::new("GS", ObjectType::new("Author"), vec![AttrDef::text("name")]);

        // ---------- DBLP ----------
        // Identity of (publication, author position).
        let identity_of = |world: &World, pub_idx: usize, person: usize| -> Identity {
            for (di, d) in world.duplicates.iter().enumerate() {
                if d.person == person && d.variant_pubs.contains(&pub_idx) {
                    return Identity {
                        person,
                        variant: Some(di),
                    };
                }
            }
            Identity {
                person,
                variant: None,
            }
        };

        let mut identity_rows: FxHashMap<Identity, u32> = FxHashMap::default();
        let identity_name = |world: &World, id: Identity| -> String {
            match id.variant {
                Some(di) => world.duplicates[di].variant.clone(),
                None => world.persons[id.person].full_name(),
            }
        };

        let mut dblp_pub_authors: Vec<Vec<u32>> = Vec::with_capacity(self.world.pubs.len());
        let mut dblp_pub_is_conf = Vec::with_capacity(self.world.pubs.len());
        let mut pub_counter_per_series: FxHashMap<&'static str, usize> = FxHashMap::default();

        for (pi, p) in self.world.pubs.iter().enumerate() {
            let venue = &self.world.venues[p.venue];
            let series = venue.series;
            let counter = pub_counter_per_series.entry(series.key()).or_insert(0);
            *counter += 1;
            let kind = if series.is_conference() {
                "conf"
            } else {
                "journals"
            };
            let id = format!("{kind}/{}/{}{:04}", series.key(), series.key(), *counter);
            let mut author_rows: Vec<u32> = Vec::with_capacity(p.authors.len());
            let mut author_names: Vec<String> = Vec::with_capacity(p.authors.len());
            for &person in &p.authors {
                let ident = identity_of(&self.world, pi, person);
                let name = identity_name(&self.world, ident);
                let row = match identity_rows.get(&ident) {
                    Some(&r) => r,
                    None => {
                        let r = author_dblp
                            .insert_record(
                                format!("dblp-author-{}", identity_rows.len()),
                                vec![("name", name.clone().into())],
                            )
                            .expect("unique dblp author id");
                        identity_rows.insert(ident, r);
                        r
                    }
                };
                author_rows.push(row);
                author_names.push(name);
            }
            pub_dblp
                .insert_record(
                    id,
                    vec![
                        ("title", p.title.clone().into()),
                        ("authors", author_names.into()),
                        ("year", p.year.into()),
                        ("pages", format!("{}-{}", p.pages.0, p.pages.1).into()),
                        ("citations", (p.citations as i64).into()),
                    ],
                )
                .expect("unique dblp pub id");
            dblp_pub_authors.push(author_rows);
            dblp_pub_is_conf.push(series.is_conference());
        }

        let mut dblp_venue_is_conf = Vec::with_capacity(self.world.venues.len());
        for v in &self.world.venues {
            venue_dblp
                .insert_record(
                    format!("dblp-venue-{}-{}-{}", v.series.key(), v.year, v.issue),
                    vec![("name", v.series.dblp_name(v.year, v.issue).into())],
                )
                .expect("unique dblp venue id");
            dblp_venue_is_conf.push(v.series.is_conference());
        }

        // ---------- ACM ----------
        let cfg = self.world.config.clone();
        let dropped_venue = |v: &crate::world::VenueEntity| {
            v.series == Series::Vldb && (v.year == 2002 || v.year == 2003)
        };
        // World venue -> ACM venue row.
        let mut acm_venue_row: Vec<Option<u32>> = Vec::with_capacity(self.world.venues.len());
        for v in &self.world.venues {
            if dropped_venue(v) {
                acm_venue_row.push(None);
                continue;
            }
            let row = venue_acm
                .insert_record(
                    format!("V-{}", 640_000 + acm_venue_row.len()),
                    vec![("name", v.series.acm_name(v.year, v.issue).into())],
                )
                .expect("unique acm venue id");
            acm_venue_row.push(Some(row));
        }

        // World pub -> ACM pub row; ACM author entities are name strings.
        let mut acm_pub_row: Vec<Option<u32>> = vec![None; self.world.pubs.len()];
        let mut acm_author_rows: FxHashMap<String, u32> = FxHashMap::default();
        let mut acm_pub_authors: Vec<Vec<u32>> = Vec::new();
        // (acm author row -> persons that produced the string)
        let mut acm_author_persons: FxHashMap<u32, FxHashSet<usize>> = FxHashMap::default();
        let mut acm_pub_world: Vec<usize> = Vec::new();
        for (pi, p) in self.world.pubs.iter().enumerate() {
            let venue = &self.world.venues[p.venue];
            if dropped_venue(venue) || self.rng.gen_bool(cfg.acm_missing_prob) {
                continue;
            }
            let title = if self.rng.gen_bool(cfg.acm_typo_prob) {
                if self.rng.gen_bool(cfg.acm_heavy_typo_prob) {
                    let n = 5 + self.rng.gen_range(0..3usize);
                    typos(&mut self.rng, &p.title, n)
                } else {
                    typo(&mut self.rng, &p.title)
                }
            } else {
                p.title.clone()
            };
            let mut author_names: Vec<String> = Vec::with_capacity(p.authors.len());
            let mut author_rows: Vec<u32> = Vec::with_capacity(p.authors.len());
            for &person in &p.authors {
                let full = self.world.persons[person].full_name();
                let name = if self.rng.gen_bool(cfg.acm_abbrev_prob) {
                    abbreviate_name(&full)
                } else {
                    full
                };
                let row = match acm_author_rows.get(&name) {
                    Some(&r) => r,
                    None => {
                        let r = author_acm
                            .insert_record(
                                format!("acm-author-{}", acm_author_rows.len()),
                                vec![("name", name.clone().into())],
                            )
                            .expect("unique acm author id");
                        acm_author_rows.insert(name.clone(), r);
                        r
                    }
                };
                acm_author_persons.entry(row).or_default().insert(person);
                author_rows.push(row);
                author_names.push(name);
            }
            let year = if self.rng.gen_bool(cfg.acm_year_offset_prob) {
                p.year + 1
            } else {
                p.year
            };
            let citations = (p.citations as i64 + self.rng.gen_range(-3i64..=3)).max(0);
            let row = pub_acm
                .insert_record(
                    format!("P-{}", 600_000 + acm_pub_world.len()),
                    vec![
                        ("title", title.into()),
                        ("authors", author_names.into()),
                        ("year", year.into()),
                        ("pages", format!("{}-{}", p.pages.0, p.pages.1).into()),
                        ("citations", citations.into()),
                    ],
                )
                .expect("unique acm pub id");
            acm_pub_row[pi] = Some(row);
            acm_pub_authors.push(author_rows);
            acm_pub_world.push(pi);
        }

        // ---------- GS ----------
        let mut gs_entry_pub: Vec<Option<usize>> = Vec::new();
        let mut gs_author_rows: FxHashMap<String, u32> = FxHashMap::default();
        let mut gs_author_persons: FxHashMap<u32, FxHashSet<usize>> = FxHashMap::default();
        let mut gs_pub_authors: Vec<Vec<u32>> = Vec::new();
        let mut gs_links_acm: Vec<(u32, u32)> = Vec::new();
        let mut gs_clusters: Vec<Vec<u32>> = Vec::new();

        let intern_gs_author = |author_gs: &mut LogicalSource,
                                gs_author_rows: &mut FxHashMap<String, u32>,
                                name: String|
         -> u32 {
            match gs_author_rows.get(&name) {
                Some(&r) => r,
                None => {
                    let r = author_gs
                        .insert_record(
                            format!("gs-author-{}", gs_author_rows.len()),
                            vec![("name", name.clone().into())],
                        )
                        .expect("unique gs author id");
                    gs_author_rows.insert(name, r);
                    r
                }
            }
        };

        for (pi, p) in self.world.pubs.iter().enumerate() {
            if !self.rng.gen_bool(cfg.gs_coverage) {
                continue;
            }
            // Skewed duplicate-entry count.
            let r: f64 = self.rng.gen();
            let dups = 1 + ((r * r * r) * cfg.gs_max_dups as f64) as usize;
            let dups = dups.min(cfg.gs_max_dups);
            let mut cluster: Vec<u32> = Vec::with_capacity(dups);
            let venue = &self.world.venues[p.venue];
            for _ in 0..dups {
                let mut title = p.title.clone();
                if self.rng.gen_bool(cfg.gs_typo_prob) {
                    let n = match self.rng.gen_range(0..10u8) {
                        0..=4 => 1,
                        5..=7 => 2,
                        _ => 4,
                    };
                    title = typos(&mut self.rng, &title, n);
                }
                if self.rng.gen_bool(cfg.gs_truncate_prob) {
                    title = truncate_words(&mut self.rng, &title, 0.6);
                }
                if self.rng.gen_bool(cfg.gs_venue_glue_prob) {
                    title = format!(
                        "{title} - {}",
                        venue.series.dblp_name(venue.year, venue.issue)
                    );
                }
                // Author list: always abbreviated, tail sometimes dropped.
                let full_names: Vec<String> = p
                    .authors
                    .iter()
                    .map(|&a| self.world.persons[a].full_name())
                    .collect();
                let kept_persons: Vec<usize> = {
                    let kept_names = drop_tail(&mut self.rng, &full_names, cfg.gs_author_drop_prob);
                    // Recover person indexes for the kept prefix names.
                    kept_names
                        .iter()
                        .filter_map(|n| {
                            p.authors
                                .iter()
                                .find(|&&a| self.world.persons[a].full_name() == *n)
                                .copied()
                        })
                        .collect()
                };
                let mut names: Vec<String> = Vec::with_capacity(kept_persons.len());
                let mut rows: Vec<u32> = Vec::with_capacity(kept_persons.len());
                for &person in &kept_persons {
                    let name = abbreviate_name(&self.world.persons[person].full_name());
                    let row = intern_gs_author(&mut author_gs, &mut gs_author_rows, name.clone());
                    gs_author_persons.entry(row).or_default().insert(person);
                    rows.push(row);
                    names.push(name);
                }
                let mut fields: Vec<(&str, AttrValue)> = vec![
                    ("title", title.into()),
                    ("authors", names.into()),
                    (
                        "citations",
                        ((p.citations as i64 / dups as i64) + self.rng.gen_range(0..5i64)).into(),
                    ),
                ];
                if !self.rng.gen_bool(cfg.gs_missing_year_prob) {
                    fields.push(("year", p.year.into()));
                }
                let row = pub_gs
                    .insert_record(format!("gs{}", gs_entry_pub.len()), fields)
                    .expect("unique gs id");
                gs_entry_pub.push(Some(pi));
                gs_pub_authors.push(rows);
                cluster.push(row);
                // Native GS -> ACM link.
                if let Some(acm_row) = acm_pub_row[pi] {
                    if self.rng.gen_bool(cfg.gs_acm_link_prob) {
                        let target = if self.rng.gen_bool(cfg.gs_acm_link_wrong_prob) {
                            // Wrong link: a random other ACM publication.

                            self.rng.gen_range(0..acm_pub_world.len()) as u32
                        } else {
                            acm_row
                        };
                        gs_links_acm.push((row, target));
                    }
                }
            }
            // GS clustering with misses.
            if cluster.len() > 1 {
                let mut clustered: Vec<u32> = Vec::new();
                for &e in &cluster {
                    if self.rng.gen_bool(cfg.gs_cluster_miss_prob) {
                        gs_clusters.push(vec![e]);
                    } else {
                        clustered.push(e);
                    }
                }
                if !clustered.is_empty() {
                    gs_clusters.push(clustered);
                }
            } else {
                gs_clusters.push(cluster.clone());
            }
        }

        // Noise entries: real-looking papers outside the venue scope.
        for k in 0..cfg.gs_noise_entries {
            let opener = TITLE_OPENERS[self.rng.gen_range(0..TITLE_OPENERS.len())];
            let tech = TITLE_TECHNIQUES[self.rng.gen_range(0..TITLE_TECHNIQUES.len())];
            let tech2 = TITLE_TECHNIQUES[self.rng.gen_range(0..TITLE_TECHNIQUES.len())];
            let ctx = TITLE_CONTEXTS[self.rng.gen_range(0..TITLE_CONTEXTS.len())];
            let sys = crate::world::gen_system_name(&mut self.rng);
            let title = match self.rng.gen_range(0..5u8) {
                0 => format!("Towards {opener} {tech}"),
                1 => format!("{tech} and {tech2}: Experiences from {ctx}"),
                2 => format!("A Survey of {tech} in {ctx}"),
                3 => format!("{sys}: {tech2} Support for {ctx}"),
                _ => format!("Benchmarking {tech} on {sys}"),
            };
            let team = self.rng.gen_range(1..4usize);
            let mut names = Vec::with_capacity(team);
            let mut rows = Vec::with_capacity(team);
            for _ in 0..team {
                let person = self.rng.gen_range(0..self.world.persons.len());
                let name = abbreviate_name(&self.world.persons[person].full_name());
                let row = intern_gs_author(&mut author_gs, &mut gs_author_rows, name.clone());
                gs_author_persons.entry(row).or_default().insert(person);
                rows.push(row);
                names.push(name);
            }
            let mut fields: Vec<(&str, AttrValue)> = vec![
                ("title", title.into()),
                ("authors", names.into()),
                ("citations", self.rng.gen_range(0..40i64).into()),
            ];
            if self.rng.gen_bool(0.7) {
                fields.push(("year", self.rng.gen_range(1990..2006u16).into()));
            }
            let _ = pub_gs
                .insert_record(format!("gs{}", gs_entry_pub.len() + k - k), fields)
                .inspect(|&row| {
                    gs_entry_pub.push(None);
                    gs_pub_authors.push(rows);
                    gs_clusters.push(vec![row]);
                })
                .expect("unique gs noise id");
        }

        // ---------- register sources ----------
        let ids = ScenarioIds {
            pub_dblp: self.registry.register(pub_dblp).expect("register"),
            author_dblp: self.registry.register(author_dblp).expect("register"),
            venue_dblp: self.registry.register(venue_dblp).expect("register"),
            pub_acm: self.registry.register(pub_acm).expect("register"),
            author_acm: self.registry.register(author_acm).expect("register"),
            venue_acm: self.registry.register(venue_acm).expect("register"),
            pub_gs: self.registry.register(pub_gs).expect("register"),
            author_gs: self.registry.register(author_gs).expect("register"),
        };

        // ---------- association mappings ----------
        let store_assoc = |name: &str, ty: &str, d: LdsId, r: LdsId, pairs: Vec<(u32, u32)>| {
            let table = MappingTable::from_triples(pairs.into_iter().map(|(a, b)| (a, b, 1.0)));
            self.repository
                .store_as(name, Mapping::association(name, ty, d, r, table));
        };

        // DBLP venue/pub associations (world indexes == row indexes).
        let venue_pub_pairs: Vec<(u32, u32)> = self
            .world
            .pubs
            .iter()
            .enumerate()
            .map(|(pi, p)| (p.venue as u32, pi as u32))
            .collect();
        store_assoc(
            "DBLP.VenuePub",
            "publications of venue",
            ids.venue_dblp,
            ids.pub_dblp,
            venue_pub_pairs.clone(),
        );
        store_assoc(
            "DBLP.PubVenue",
            "venue of publication",
            ids.pub_dblp,
            ids.venue_dblp,
            venue_pub_pairs.iter().map(|&(v, p)| (p, v)).collect(),
        );
        let pub_author_pairs: Vec<(u32, u32)> = dblp_pub_authors
            .iter()
            .enumerate()
            .flat_map(|(pi, rows)| rows.iter().map(move |&r| (pi as u32, r)))
            .collect();
        store_assoc(
            "DBLP.PubAuthor",
            "authors of publication",
            ids.pub_dblp,
            ids.author_dblp,
            pub_author_pairs.clone(),
        );
        store_assoc(
            "DBLP.AuthorPub",
            "publications of author",
            ids.author_dblp,
            ids.pub_dblp,
            pub_author_pairs.iter().map(|&(p, a)| (a, p)).collect(),
        );
        // Co-author mapping (symmetric, no self pairs).
        let mut coauthor: Vec<(u32, u32)> = Vec::new();
        for rows in &dblp_pub_authors {
            for (i, &a) in rows.iter().enumerate() {
                for &b in &rows[i + 1..] {
                    if a != b {
                        coauthor.push((a, b));
                        coauthor.push((b, a));
                    }
                }
            }
        }
        store_assoc(
            "DBLP.CoAuthor",
            "co-authors",
            ids.author_dblp,
            ids.author_dblp,
            coauthor,
        );
        // Identity mapping over DBLP authors (Section 4.3's trivial
        // same-mapping for within-source neighborhood matching).
        let dblp_author_count = self.registry.lds(ids.author_dblp).len() as u32;
        self.repository.store_as(
            "DBLP.AuthorAuthor",
            Mapping::identity(ids.author_dblp, dblp_author_count),
        );

        // ACM associations.
        let acm_venue_pub: Vec<(u32, u32)> = acm_pub_world
            .iter()
            .enumerate()
            .filter_map(|(row, &pi)| {
                acm_venue_row[self.world.pubs[pi].venue].map(|v| (v, row as u32))
            })
            .collect();
        store_assoc(
            "ACM.VenuePub",
            "publications of venue",
            ids.venue_acm,
            ids.pub_acm,
            acm_venue_pub.clone(),
        );
        store_assoc(
            "ACM.PubVenue",
            "venue of publication",
            ids.pub_acm,
            ids.venue_acm,
            acm_venue_pub.iter().map(|&(v, p)| (p, v)).collect(),
        );
        let acm_pub_author: Vec<(u32, u32)> = acm_pub_authors
            .iter()
            .enumerate()
            .flat_map(|(row, authors)| authors.iter().map(move |&a| (row as u32, a)))
            .collect();
        store_assoc(
            "ACM.PubAuthor",
            "authors of publication",
            ids.pub_acm,
            ids.author_acm,
            acm_pub_author.clone(),
        );
        store_assoc(
            "ACM.AuthorPub",
            "publications of author",
            ids.author_acm,
            ids.pub_acm,
            acm_pub_author.iter().map(|&(p, a)| (a, p)).collect(),
        );

        // GS associations.
        let gs_pub_author: Vec<(u32, u32)> = gs_pub_authors
            .iter()
            .enumerate()
            .flat_map(|(row, authors)| authors.iter().map(move |&a| (row as u32, a)))
            .collect();
        store_assoc(
            "GS.PubAuthor",
            "authors of publication",
            ids.pub_gs,
            ids.author_gs,
            gs_pub_author.clone(),
        );
        store_assoc(
            "GS.AuthorPub",
            "publications of author",
            ids.author_gs,
            ids.pub_gs,
            gs_pub_author.iter().map(|&(p, a)| (a, p)).collect(),
        );
        // Native GS -> ACM links (same-mapping, imperfect).
        self.repository.store_as(
            "GS.LinksACM",
            Mapping::same(
                "GS.LinksACM",
                ids.pub_gs,
                ids.pub_acm,
                MappingTable::from_triples(gs_links_acm.iter().map(|&(g, a)| (g, a, 1.0))),
            ),
        );
        // GS cluster self-mapping (pairwise within clusters).
        let mut cluster_pairs: Vec<(u32, u32, f64)> = Vec::new();
        for cluster in &gs_clusters {
            for (i, &a) in cluster.iter().enumerate() {
                for &b in &cluster[i + 1..] {
                    cluster_pairs.push((a, b, 1.0));
                    cluster_pairs.push((b, a, 1.0));
                }
            }
        }
        self.repository.store_as(
            "GS.Clusters",
            Mapping::same(
                "GS.Clusters",
                ids.pub_gs,
                ids.pub_gs,
                MappingTable::from_triples(cluster_pairs),
            ),
        );

        // ---------- gold standards ----------
        let mut gold = Gold::default();
        for (pi, acm_row) in acm_pub_row.iter().enumerate() {
            if let Some(acm_row) = acm_row {
                gold.pub_dblp_acm.insert(pi as u32, *acm_row);
            }
        }
        for (gs_row, wp) in gs_entry_pub.iter().enumerate() {
            if let Some(pi) = wp {
                gold.pub_dblp_gs.insert(*pi as u32, gs_row as u32);
                if let Some(acm_row) = acm_pub_row[*pi] {
                    gold.pub_gs_acm.insert(gs_row as u32, acm_row);
                }
            }
        }
        for (vi, acm_row) in acm_venue_row.iter().enumerate() {
            if let Some(acm_row) = acm_row {
                gold.venue_dblp_acm.insert(vi as u32, *acm_row);
            }
        }
        // Author golds: identity person sets vs name-string person sets.
        let identity_person: FxHashMap<u32, usize> = identity_rows
            .iter()
            .map(|(ident, &row)| (row, ident.person))
            .collect();
        for (&dblp_row, &person) in &identity_person {
            for (&acm_row, persons) in &acm_author_persons {
                if persons.contains(&person) {
                    gold.author_dblp_acm.insert(dblp_row, acm_row);
                }
            }
            for (&gs_row, persons) in &gs_author_persons {
                if persons.contains(&person) {
                    gold.author_dblp_gs.insert(dblp_row, gs_row);
                }
            }
        }
        for (&gs_row, g_persons) in &gs_author_persons {
            for (&acm_row, a_persons) in &acm_author_persons {
                if g_persons.intersection(a_persons).next().is_some() {
                    gold.author_gs_acm.insert(gs_row, acm_row);
                }
            }
        }
        // DBLP duplicate identities (both directions).
        let mut rows_of_person: FxHashMap<usize, Vec<u32>> = FxHashMap::default();
        for (ident, &row) in &identity_rows {
            rows_of_person.entry(ident.person).or_default().push(row);
        }
        for rows in rows_of_person.values() {
            if rows.len() > 1 {
                for (i, &a) in rows.iter().enumerate() {
                    for &b in &rows[i + 1..] {
                        gold.author_dup_dblp.insert(a, b);
                        gold.author_dup_dblp.insert(b, a);
                    }
                }
            }
        }

        Scenario {
            world: self.world,
            registry: self.registry,
            repository: self.repository,
            ids,
            gold,
            dblp_pub_is_conf,
            dblp_venue_is_conf,
            gs_entry_pub,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::small()
    }

    #[test]
    fn eight_sources_registered() {
        let s = scenario();
        assert_eq!(s.registry.len(), 8);
        assert!(s.registry.resolve("Publication@DBLP").is_ok());
        assert!(s.registry.resolve("Author@GS").is_ok());
        assert!(s.registry.resolve("Venue@ACM").is_ok());
    }

    #[test]
    fn dblp_is_complete() {
        let s = scenario();
        assert_eq!(s.registry.lds(s.ids.pub_dblp).len(), s.world.pubs.len());
        assert_eq!(s.registry.lds(s.ids.venue_dblp).len(), s.world.venues.len());
    }

    #[test]
    fn acm_misses_vldb_2002_2003() {
        let s = scenario();
        // Small config covers 2000-2003, so 2 venues are dropped.
        let dropped = s
            .world
            .venues
            .iter()
            .filter(|v| v.series == Series::Vldb && (v.year == 2002 || v.year == 2003))
            .count();
        assert_eq!(dropped, 2);
        assert_eq!(
            s.registry.lds(s.ids.venue_acm).len(),
            s.world.venues.len() - dropped
        );
        // ACM has fewer publications than DBLP.
        assert!(s.registry.lds(s.ids.pub_acm).len() < s.registry.lds(s.ids.pub_dblp).len());
        // No ACM publication belongs to a dropped venue.
        for (pi, p) in s.world.pubs.iter().enumerate() {
            let v = &s.world.venues[p.venue];
            if v.series == Series::Vldb && (v.year == 2002 || v.year == 2003) {
                assert!(!s.gold.pub_dblp_acm.iter().any(|(d, _)| d == pi as u32));
            }
        }
    }

    #[test]
    fn acm_has_more_author_entities_than_dblp() {
        // Abbreviation splits identities (Table 1: ACM 3,547 > DBLP 3,319).
        let s = scenario();
        let dblp = s.registry.lds(s.ids.author_dblp).len();
        let acm = s.registry.lds(s.ids.author_acm).len();
        assert!(acm > dblp, "ACM {acm} <= DBLP {dblp}");
    }

    #[test]
    fn gs_has_duplicates_and_noise() {
        let s = scenario();
        let gs_len = s.registry.lds(s.ids.pub_gs).len();
        assert_eq!(gs_len, s.gs_entry_pub.len());
        let matched = s.gs_entry_pub.iter().flatten().count();
        let noise = gs_len - matched;
        assert_eq!(noise, s.world.config.gs_noise_entries);
        // Duplicates exist: more matched entries than distinct pubs.
        let distinct: FxHashSet<usize> = s.gs_entry_pub.iter().flatten().copied().collect();
        assert!(matched > distinct.len());
    }

    #[test]
    fn gs_authors_are_abbreviated() {
        let s = scenario();
        let lds = s.registry.lds(s.ids.author_gs);
        let with_initial = lds
            .iter()
            .filter(|(_, inst)| {
                inst.value(0)
                    .and_then(|v| v.as_text())
                    .map(|n| n.contains(". "))
                    .unwrap_or(false)
            })
            .count();
        assert!(with_initial as f64 > 0.9 * lds.len() as f64);
    }

    #[test]
    fn association_mappings_stored() {
        let s = scenario();
        for name in [
            "DBLP.VenuePub",
            "DBLP.PubVenue",
            "DBLP.PubAuthor",
            "DBLP.AuthorPub",
            "DBLP.CoAuthor",
            "DBLP.AuthorAuthor",
            "ACM.VenuePub",
            "ACM.PubVenue",
            "ACM.PubAuthor",
            "ACM.AuthorPub",
            "GS.PubAuthor",
            "GS.AuthorPub",
            "GS.LinksACM",
            "GS.Clusters",
        ] {
            assert!(s.repository.contains(name), "missing {name}");
        }
        // VenuePub and PubVenue are mutual inverses.
        let vp = s.repository.get("DBLP.VenuePub").unwrap();
        let pv = s.repository.get("DBLP.PubVenue").unwrap();
        assert_eq!(vp.table.pair_set(), pv.table.inverted().pair_set());
    }

    #[test]
    fn native_links_have_low_recall_but_decent_precision() {
        let s = scenario();
        let links = s.repository.get("GS.LinksACM").unwrap();
        let gold = &s.gold.pub_gs_acm;
        let correct = links
            .table
            .iter()
            .filter(|c| gold.contains(c.domain, c.range))
            .count();
        let recall = correct as f64 / gold.len() as f64;
        let precision = correct as f64 / links.len() as f64;
        assert!(recall < 0.45, "link recall {recall} too high");
        assert!(recall > 0.05, "link recall {recall} too low");
        assert!(precision > 0.8, "link precision {precision} too low");
    }

    #[test]
    fn gold_standards_populated() {
        let s = scenario();
        assert!(!s.gold.pub_dblp_acm.is_empty());
        assert!(!s.gold.pub_dblp_gs.is_empty());
        assert!(!s.gold.pub_gs_acm.is_empty());
        assert!(!s.gold.venue_dblp_acm.is_empty());
        assert!(!s.gold.author_dblp_acm.is_empty());
        assert!(!s.gold.author_dblp_gs.is_empty());
        assert!(!s.gold.author_dup_dblp.is_empty());
    }

    #[test]
    fn dup_gold_matches_world_duplicates() {
        let s = scenario();
        // Every injected duplicate produces at least one gold dup pair
        // (both identities must have surfaced in DBLP).
        assert!(s.gold.author_dup_dblp.len() >= 2 * s.world.duplicates.len());
    }

    #[test]
    fn deterministic() {
        let a = Scenario::small();
        let b = Scenario::small();
        assert_eq!(
            a.registry.lds(a.ids.pub_gs).len(),
            b.registry.lds(b.ids.pub_gs).len()
        );
        assert_eq!(a.gold.pub_dblp_acm.len(), b.gold.pub_dblp_acm.len());
        let ta = a.repository.get("GS.LinksACM").unwrap();
        let tb = b.repository.get("GS.LinksACM").unwrap();
        assert_eq!(ta.table, tb.table);
    }

    #[test]
    fn conference_flags_align() {
        let s = scenario();
        assert_eq!(s.dblp_pub_is_conf.len(), s.world.pubs.len());
        assert_eq!(s.dblp_venue_is_conf.len(), s.world.venues.len());
        for (pi, p) in s.world.pubs.iter().enumerate() {
            assert_eq!(
                s.dblp_pub_is_conf[pi],
                s.world.venues[p.venue].series.is_conference()
            );
        }
    }
}

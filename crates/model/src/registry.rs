//! Registry owning all logical data sources of an integration scenario.

use std::collections::HashMap;

use crate::delta::{AppliedDelta, DeltaOp, SourceDelta};
use crate::error::{ModelError, Result};
use crate::instance::ObjectInstance;
use crate::lds::{LdsId, LogicalSource};

/// Owns the LDS arenas.
///
/// The registry is the single place instance data lives; mappings (in
/// `moma-core`) reference instances as `(LdsId, local index)` pairs.
#[derive(Debug, Default, Clone)]
pub struct SourceRegistry {
    sources: Vec<LogicalSource>,
    by_name: HashMap<String, LdsId>,
}

impl SourceRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an LDS; its display name (`Type@PDS`) must be unique.
    pub fn register(&mut self, lds: LogicalSource) -> Result<LdsId> {
        let name = lds.name();
        if self.by_name.contains_key(&name) {
            return Err(ModelError::DuplicateId {
                lds: name.clone(),
                id: name,
            });
        }
        let id = LdsId(self.sources.len() as u32);
        self.by_name.insert(name, id);
        self.sources.push(lds);
        Ok(id)
    }

    /// LDS by handle.
    pub fn lds(&self, id: LdsId) -> &LogicalSource {
        &self.sources[id.index()]
    }

    /// Mutable LDS by handle.
    pub fn lds_mut(&mut self, id: LdsId) -> &mut LogicalSource {
        &mut self.sources[id.index()]
    }

    /// Resolve a display name (`Publication@DBLP`) to a handle.
    pub fn resolve(&self, name: &str) -> Result<LdsId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| ModelError::UnknownSource(name.into()))
    }

    /// Number of registered LDS.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Iterate all `(id, lds)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LdsId, &LogicalSource)> {
        self.sources
            .iter()
            .enumerate()
            .map(|(i, s)| (LdsId(i as u32), s))
    }

    /// Apply a [`SourceDelta`] to its LDS, returning the touched arena
    /// indexes.
    ///
    /// Semantics (see [`crate::delta`] module docs): adds error on
    /// duplicate ids, removals and updates of unknown / already-removed
    /// ids are counted in [`AppliedDelta::skipped`], and updates against
    /// an unknown attribute or with a wrongly-kinded value are typed
    /// errors. On error the operations applied so far remain applied
    /// (deltas are not transactional).
    pub fn apply_delta(&mut self, delta: &SourceDelta) -> Result<AppliedDelta> {
        if delta.lds.index() >= self.sources.len() {
            return Err(ModelError::UnknownSource(format!("LdsId({})", delta.lds.0)));
        }
        let lds = &mut self.sources[delta.lds.index()];
        let mut applied = AppliedDelta {
            lds: delta.lds,
            ..Default::default()
        };
        for op in &delta.ops {
            match op {
                DeltaOp::Add { id, fields } => {
                    let mut inst = ObjectInstance::new(id.clone(), lds.schema.len());
                    for (name, value) in fields {
                        let slot = lds.attr_slot(name)?;
                        let expected = lds.schema[slot].kind;
                        if value.kind() != expected {
                            return Err(ModelError::KindMismatch {
                                attr: name.clone(),
                                expected: format!("{expected:?}"),
                                got: format!("{:?}", value.kind()),
                            });
                        }
                        inst.set(slot, value.clone());
                    }
                    applied.added.push(lds.insert(inst)?);
                }
                DeltaOp::Remove { id } => match lds.remove(id) {
                    Some(idx) => applied.removed.push(idx),
                    None => applied.skipped += 1,
                },
                DeltaOp::Update { id, attr, value } => {
                    match lds.update_attr(id, attr, value.clone())? {
                        Some(idx) => applied.updated.push((idx, attr.clone())),
                        None => applied.skipped += 1,
                    }
                }
            }
        }
        Ok(applied)
    }

    /// Assert that two LDS share an object type (required for
    /// same-mappings), returning their handles.
    pub fn require_same_type(&self, left: &str, right: &str) -> Result<(LdsId, LdsId)> {
        let l = self.resolve(left)?;
        let r = self.resolve(right)?;
        if self.lds(l).object_type != self.lds(r).object_type {
            return Err(ModelError::TypeMismatch {
                left: left.into(),
                right: right.into(),
            });
        }
        Ok((l, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrDef;
    use crate::lds::ObjectType;

    fn registry() -> SourceRegistry {
        let mut reg = SourceRegistry::new();
        reg.register(LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title")],
        ))
        .unwrap();
        reg.register(LogicalSource::new(
            "ACM",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title")],
        ))
        .unwrap();
        reg.register(LogicalSource::new(
            "DBLP",
            ObjectType::new("Author"),
            vec![AttrDef::text("name")],
        ))
        .unwrap();
        reg
    }

    #[test]
    fn register_and_resolve() {
        let reg = registry();
        assert_eq!(reg.len(), 3);
        let id = reg.resolve("Publication@ACM").unwrap();
        assert_eq!(reg.lds(id).pds, "ACM");
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut reg = registry();
        let err = reg
            .register(LogicalSource::new(
                "DBLP",
                ObjectType::new("Publication"),
                vec![],
            ))
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateId { .. }));
    }

    #[test]
    fn unknown_name_errors() {
        let reg = registry();
        assert!(matches!(
            reg.resolve("Venue@DBLP"),
            Err(ModelError::UnknownSource(_))
        ));
    }

    #[test]
    fn same_type_check() {
        let reg = registry();
        assert!(reg
            .require_same_type("Publication@DBLP", "Publication@ACM")
            .is_ok());
        let err = reg
            .require_same_type("Publication@DBLP", "Author@DBLP")
            .unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
    }

    #[test]
    fn apply_delta_resolves_indexes() {
        let mut reg = registry();
        let pubs = reg.resolve("Publication@DBLP").unwrap();
        reg.lds_mut(pubs)
            .insert_record("p0", vec![("title", "Old Title".into())])
            .unwrap();
        reg.lds_mut(pubs).insert_record("p1", vec![]).unwrap();
        let delta = SourceDelta::new(pubs)
            .add("p2", vec![("title".into(), "Fresh".into())])
            .update("p0", "title", Some("New Title".into()))
            .remove("p1")
            .remove("p1") // duplicate: skipped
            .update("ghost", "title", None); // unknown: skipped
        let applied = reg.apply_delta(&delta).unwrap();
        assert_eq!(applied.lds, pubs);
        assert_eq!(applied.added, vec![2]);
        assert_eq!(applied.removed, vec![1]);
        assert_eq!(applied.updated, vec![(0, "title".to_owned())]);
        assert_eq!(applied.skipped, 2);
        let lds = reg.lds(pubs);
        assert_eq!(lds.live_len(), 2);
        assert_eq!(
            lds.attr_of(0, "title").unwrap().unwrap().as_text(),
            Some("New Title")
        );
        assert_eq!(lds.index_of("p2"), Some(2));
    }

    #[test]
    fn apply_delta_typed_errors() {
        let mut reg = registry();
        let pubs = reg.resolve("Publication@DBLP").unwrap();
        reg.lds_mut(pubs).insert_record("p0", vec![]).unwrap();
        // Unknown source handle.
        assert!(reg.apply_delta(&SourceDelta::new(LdsId(99))).is_err());
        // Duplicate add id.
        let err = reg
            .apply_delta(&SourceDelta::new(pubs).add("p0", vec![]))
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateId { .. }));
        // Unknown attribute in an add.
        let err = reg
            .apply_delta(&SourceDelta::new(pubs).add("p9", vec![("nope".into(), "x".into())]))
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownAttribute { .. }));
    }

    #[test]
    fn registry_clone_is_deep() {
        let mut reg = registry();
        let pubs = reg.resolve("Publication@DBLP").unwrap();
        reg.lds_mut(pubs).insert_record("p0", vec![]).unwrap();
        let mut copy = reg.clone();
        copy.apply_delta(&SourceDelta::new(pubs).remove("p0"))
            .unwrap();
        assert_eq!(copy.lds(pubs).live_len(), 0);
        assert_eq!(reg.lds(pubs).live_len(), 1);
    }

    #[test]
    fn iter_order_matches_ids() {
        let reg = registry();
        for (id, lds) in reg.iter() {
            assert_eq!(reg.lds(id).name(), lds.name());
        }
    }
}

//! Logical data sources (LDS).

use std::collections::HashMap;

use crate::attr::{AttrDef, AttrValue};
use crate::error::{ModelError, Result};
use crate::instance::ObjectInstance;
use crate::smm::ObjectType;

/// Dense handle for a logical data source inside a [`crate::SourceRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LdsId(pub u32);

impl LdsId {
    /// Index form for vector addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A logical data source: all instances of one object type at one
/// physical source, e.g. `Publication@DBLP`.
///
/// Instances live in a dense arena; the local index (`u32`) of an instance
/// is what mapping tables store, making correspondences cheap 12-byte rows
/// (cf. `moma-table`). String ids resolve through a hash index.
///
/// Removal is tombstone-based ([`LogicalSource::remove`]): the arena slot
/// survives — so every `u32` index held by existing mapping tables stays
/// valid — but tombstoned instances no longer appear in
/// [`LogicalSource::iter`] / [`LogicalSource::project`] output. [`len`]
/// therefore reports the *arena* length (the index addressing bound),
/// while [`live_len`] counts only non-tombstoned instances.
///
/// [`len`]: LogicalSource::len
/// [`live_len`]: LogicalSource::live_len
#[derive(Debug, Clone)]
pub struct LogicalSource {
    /// Name of the owning physical data source, e.g. `DBLP`.
    pub pds: String,
    /// Semantic object type, e.g. `Publication`.
    pub object_type: ObjectType,
    /// Attribute schema; instances align values to these slots.
    pub schema: Vec<AttrDef>,
    instances: Vec<ObjectInstance>,
    id_index: HashMap<String, u32>,
    /// Tombstone flags aligned to `instances`; `true` = removed.
    dead: Vec<bool>,
    /// Number of `true` entries in `dead`.
    dead_count: usize,
}

impl LogicalSource {
    /// Create an empty LDS.
    pub fn new(pds: impl Into<String>, object_type: ObjectType, schema: Vec<AttrDef>) -> Self {
        Self {
            pds: pds.into(),
            object_type,
            schema,
            instances: Vec::new(),
            id_index: HashMap::new(),
            dead: Vec::new(),
            dead_count: 0,
        }
    }

    /// Canonical display name `Type@PDS`, as used in the paper (Figure 1).
    pub fn name(&self) -> String {
        format!("{}@{}", self.object_type.as_str(), self.pds)
    }

    /// Arena length: number of instances ever inserted, *including*
    /// tombstoned ones. Every valid local index is `< len()`.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Number of live (non-tombstoned) instances.
    pub fn live_len(&self) -> usize {
        self.instances.len() - self.dead_count
    }

    /// Whether the LDS holds no instances (live or tombstoned).
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Whether the instance at `index` exists and is not tombstoned.
    pub fn is_live(&self, index: u32) -> bool {
        let i = index as usize;
        i < self.instances.len() && !self.dead[i]
    }

    /// Schema slot index of attribute `name`.
    pub fn attr_slot(&self, name: &str) -> Result<usize> {
        self.schema
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| ModelError::UnknownAttribute {
                lds: self.name(),
                attr: name.into(),
            })
    }

    /// Insert a new instance; returns its local index.
    ///
    /// Fails with [`ModelError::DuplicateId`] if the id already exists.
    pub fn insert(&mut self, instance: ObjectInstance) -> Result<u32> {
        if self.id_index.contains_key(&instance.id) {
            return Err(ModelError::DuplicateId {
                lds: self.name(),
                id: instance.id,
            });
        }
        let idx = self.instances.len() as u32;
        self.id_index.insert(instance.id.clone(), idx);
        self.instances.push(instance);
        self.dead.push(false);
        Ok(idx)
    }

    /// Tombstone the instance with source id `id`, returning its local
    /// index, or `None` if the id is unknown (possibly already removed —
    /// removal also drops the id from the lookup index, freeing the id
    /// for a later re-add as a brand-new instance).
    pub fn remove(&mut self, id: &str) -> Option<u32> {
        let idx = self.id_index.remove(id)?;
        debug_assert!(!self.dead[idx as usize], "id_index pointed at tombstone");
        self.dead[idx as usize] = true;
        self.dead_count += 1;
        Some(idx)
    }

    /// Replace (`Some`) or clear (`None`) attribute `attr` of the live
    /// instance with source id `id`, returning its local index. Unknown
    /// ids return `Ok(None)`; an unknown attribute or a value of the
    /// wrong kind is a typed error.
    pub fn update_attr(
        &mut self,
        id: &str,
        attr: &str,
        value: Option<AttrValue>,
    ) -> Result<Option<u32>> {
        let slot = self.attr_slot(attr)?;
        if let Some(v) = &value {
            let expected = self.schema[slot].kind;
            if v.kind() != expected {
                return Err(ModelError::KindMismatch {
                    attr: attr.into(),
                    expected: format!("{expected:?}"),
                    got: format!("{:?}", v.kind()),
                });
            }
        }
        let Some(&idx) = self.id_index.get(id) else {
            return Ok(None);
        };
        let inst = &mut self.instances[idx as usize];
        match value {
            Some(v) => inst.set(slot, v),
            None => {
                if (slot) < inst.values.len() {
                    inst.values[slot] = None;
                }
            }
        }
        Ok(Some(idx))
    }

    /// Build an instance from `(id, values)` pairs keyed by attribute name
    /// and insert it.
    pub fn insert_record(
        &mut self,
        id: impl Into<String>,
        fields: Vec<(&str, AttrValue)>,
    ) -> Result<u32> {
        let mut inst = ObjectInstance::new(id, self.schema.len());
        for (name, value) in fields {
            let slot = self.attr_slot(name)?;
            let expected = self.schema[slot].kind;
            if value.kind() != expected {
                return Err(ModelError::KindMismatch {
                    attr: name.into(),
                    expected: format!("{expected:?}"),
                    got: format!("{:?}", value.kind()),
                });
            }
            inst.set(slot, value);
        }
        self.insert(inst)
    }

    /// Instance by local index. Tombstoned instances are still returned
    /// (their arena data survives removal so that old mapping rows can be
    /// resolved); use [`LogicalSource::is_live`] to distinguish.
    pub fn get(&self, index: u32) -> Option<&ObjectInstance> {
        self.instances.get(index as usize)
    }

    /// Mutable instance by local index.
    pub fn get_mut(&mut self, index: u32) -> Option<&mut ObjectInstance> {
        self.instances.get_mut(index as usize)
    }

    /// Local index of the instance with source id `id`.
    pub fn index_of(&self, id: &str) -> Option<u32> {
        self.id_index.get(id).copied()
    }

    /// Instance by source id.
    pub fn by_id(&self, id: &str) -> Option<&ObjectInstance> {
        self.index_of(id).and_then(|i| self.get(i))
    }

    /// Iterate `(local_index, instance)` over *live* instances;
    /// tombstoned slots are skipped (indexes may therefore be sparse).
    pub fn iter(&self) -> impl Iterator<Item = (u32, &ObjectInstance)> {
        self.instances
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.dead[*i])
            .map(|(i, inst)| (i as u32, inst))
    }

    /// Project one attribute across all instances: `(index, value)` for
    /// every instance where the attribute is present.
    pub fn project(&self, attr: &str) -> Result<Vec<(u32, &AttrValue)>> {
        let slot = self.attr_slot(attr)?;
        Ok(self
            .iter()
            .filter_map(|(i, inst)| inst.value(slot).map(|v| (i, v)))
            .collect())
    }

    /// Attribute value of one instance by attribute name.
    pub fn attr_of(&self, index: u32, attr: &str) -> Result<Option<&AttrValue>> {
        let slot = self.attr_slot(attr)?;
        Ok(self.get(index).and_then(|inst| inst.value(slot)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrDef;

    fn pub_lds() -> LogicalSource {
        LogicalSource::new(
            "DBLP",
            ObjectType::new("Publication"),
            vec![AttrDef::text("title"), AttrDef::year("year")],
        )
    }

    #[test]
    fn name_formats_type_at_pds() {
        assert_eq!(pub_lds().name(), "Publication@DBLP");
    }

    #[test]
    fn insert_and_lookup() {
        let mut lds = pub_lds();
        let idx = lds
            .insert_record(
                "conf/VLDB/X01",
                vec![("title", "Cupid".into()), ("year", 2001u16.into())],
            )
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(lds.len(), 1);
        assert_eq!(lds.index_of("conf/VLDB/X01"), Some(0));
        let inst = lds.by_id("conf/VLDB/X01").unwrap();
        assert_eq!(inst.value(0).unwrap().as_text(), Some("Cupid"));
        assert_eq!(
            lds.attr_of(0, "year").unwrap().unwrap().as_year(),
            Some(2001)
        );
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut lds = pub_lds();
        lds.insert_record("a", vec![]).unwrap();
        let err = lds.insert_record("a", vec![]).unwrap_err();
        assert!(matches!(err, ModelError::DuplicateId { .. }));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let mut lds = pub_lds();
        let err = lds
            .insert_record("a", vec![("venue", "VLDB".into())])
            .unwrap_err();
        assert!(matches!(err, ModelError::UnknownAttribute { .. }));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let mut lds = pub_lds();
        let err = lds
            .insert_record("a", vec![("year", "2001".into())])
            .unwrap_err();
        assert!(matches!(err, ModelError::KindMismatch { .. }));
    }

    #[test]
    fn project_skips_missing() {
        let mut lds = pub_lds();
        lds.insert_record("a", vec![("title", "T1".into())])
            .unwrap();
        lds.insert_record("b", vec![("year", 2002u16.into())])
            .unwrap();
        lds.insert_record("c", vec![("title", "T3".into())])
            .unwrap();
        let titles = lds.project("title").unwrap();
        assert_eq!(titles.len(), 2);
        assert_eq!(titles[0].0, 0);
        assert_eq!(titles[1].0, 2);
    }

    #[test]
    fn remove_tombstones_but_preserves_arena() {
        let mut lds = pub_lds();
        for id in ["a", "b", "c"] {
            lds.insert_record(id, vec![("title", format!("T{id}").into())])
                .unwrap();
        }
        assert_eq!(lds.remove("b"), Some(1));
        // Unknown / already-removed ids are a no-op.
        assert_eq!(lds.remove("b"), None);
        assert_eq!(lds.remove("ghost"), None);
        assert_eq!(lds.len(), 3);
        assert_eq!(lds.live_len(), 2);
        assert!(lds.is_live(0) && !lds.is_live(1) && lds.is_live(2));
        assert!(!lds.is_live(99));
        // Arena data survives; lookup does not.
        assert_eq!(lds.get(1).unwrap().id, "b");
        assert_eq!(lds.index_of("b"), None);
        // iter/project skip the tombstone.
        let idxs: Vec<u32> = lds.iter().map(|(i, _)| i).collect();
        assert_eq!(idxs, vec![0, 2]);
        assert_eq!(lds.project("title").unwrap().len(), 2);
        // The id can be re-added as a brand-new instance.
        assert_eq!(lds.insert_record("b", vec![]).unwrap(), 3);
        assert_eq!(lds.live_len(), 3);
    }

    #[test]
    fn update_attr_replaces_and_clears() {
        let mut lds = pub_lds();
        lds.insert_record("a", vec![("title", "Old".into())])
            .unwrap();
        assert_eq!(
            lds.update_attr("a", "title", Some("New".into())).unwrap(),
            Some(0)
        );
        assert_eq!(
            lds.attr_of(0, "title").unwrap().unwrap().as_text(),
            Some("New")
        );
        assert_eq!(lds.update_attr("a", "year", None).unwrap(), Some(0));
        assert!(lds.attr_of(0, "year").unwrap().is_none());
        // Unknown id: Ok(None); removed id: Ok(None) too.
        assert_eq!(lds.update_attr("ghost", "title", None).unwrap(), None);
        lds.remove("a");
        assert_eq!(lds.update_attr("a", "title", None).unwrap(), None);
        // Unknown attribute and kind mismatch are typed errors.
        assert!(matches!(
            lds.update_attr("a", "venue", None),
            Err(ModelError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            lds.update_attr("a", "year", Some("2001".into())),
            Err(ModelError::KindMismatch { .. })
        ));
    }

    #[test]
    fn iter_yields_dense_indexes() {
        let mut lds = pub_lds();
        for id in ["a", "b", "c"] {
            lds.insert_record(id, vec![]).unwrap();
        }
        let idxs: Vec<u32> = lds.iter().map(|(i, _)| i).collect();
        assert_eq!(idxs, vec![0, 1, 2]);
    }
}

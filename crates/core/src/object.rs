//! Objects (Definition 5.1) and their derived states (Section 5.2–5.3).

use std::collections::BTreeMap;

use tchimera_temporal::{Instant, Lifespan, TemporalValue};

use crate::error::{ModelError, Result};
use crate::ident::{AttrName, ClassId, Oid};
use crate::value::Value;

/// An object: the 4-tuple `(i, lifespan, v, class-history)` of
/// Definition 5.1.
///
/// * `oid` — the object identifier, immutable for the object's lifetime;
/// * `lifespan` — contiguous, possibly still open at `now` (no
///   *reincarnate* operation, Section 5.1);
/// * `attrs` — the record value `v = (a1:v1, …, an:vn)`; temporal
///   attributes hold [`Value::Temporal`] histories, static attributes hold
///   plain current values (their past is not recorded — Section 1.1);
/// * `class_history` — the history of the *most specific class* the object
///   belongs to over time, `{⟨τ1,c1⟩, …, ⟨τn,cn⟩}`.
///
/// The paper stores, for static objects, only the current class; this
/// implementation always keeps the full class history (it costs one run
/// per migration and makes the static case a degenerate history — the
/// behaviour required by Definition 5.1 is a projection of it).
#[derive(Clone, Debug, PartialEq)]
pub struct Object {
    /// The object identifier `i ∈ OI`.
    pub oid: Oid,
    /// The object lifespan.
    pub lifespan: Lifespan,
    /// The attribute record `v`.
    pub attrs: BTreeMap<AttrName, Value>,
    /// The most-specific-class history.
    pub class_history: TemporalValue<ClassId>,
}

impl Object {
    /// The most specific class the object belonged to at instant `t`.
    pub fn class_at(&self, t: Instant, now: Instant) -> Option<&ClassId> {
        self.class_history.value_at(t, now)
    }

    /// The current most specific class (`None` once terminated).
    pub fn current_class(&self, now: Instant) -> Option<&ClassId> {
        self.class_history.value_now(now)
    }

    /// `true` if the object is *historical*: it has at least one temporal
    /// attribute (Section 5.1).
    pub fn is_historical(&self) -> bool {
        self.attrs.values().any(|v| matches!(v, Value::Temporal(_)))
    }

    /// `true` if the object has at least one static (non-temporal)
    /// attribute. Such objects have no reconstructible snapshot in the
    /// past (Section 5.3).
    pub fn has_static_attrs(&self) -> bool {
        self.attrs.values().any(|v| !matches!(v, Value::Temporal(_)))
    }

    /// The names of the temporal attributes *meaningful* at instant `t`
    /// (Definition 5.2): those whose history is defined at `t`.
    pub fn meaningful_temporal_attrs(&self, t: Instant, now: Instant) -> Vec<&AttrName> {
        self.attrs
            .iter()
            .filter_map(|(n, v)| match v {
                Value::Temporal(h) if h.is_defined_at(t, now) => Some(n),
                _ => None,
            })
            .collect()
    }

    /// The **historical value** of the object at instant `t` (Section 5.2):
    /// the record `(ak: vk(t), …, am: vm(t))` of the meaningful temporal
    /// attributes evaluated at `t`. This is the function `h_state`
    /// (Table 3).
    #[must_use]
    pub fn h_state(&self, t: Instant, now: Instant) -> Value {
        Value::Record(
            self.attrs
                .iter()
                .filter_map(|(n, v)| match v {
                    Value::Temporal(h) => h
                        .value_at(t, now)
                        .map(|x| (n.clone(), x.clone())),
                    _ => None,
                })
                .collect(),
        )
    }

    /// The **static value** of the object (Section 5.2): the record of the
    /// static attributes with their current values. This is the function
    /// `s_state` (Table 3).
    #[must_use]
    pub fn s_state(&self) -> Value {
        Value::Record(
            self.attrs
                .iter()
                .filter(|(_, v)| !matches!(v, Value::Temporal(_)))
                .map(|(n, v)| (n.clone(), v.clone()))
                .collect(),
        )
    }

    /// The `snapshot` function (Section 5.3): project the full state of the
    /// object at instant `t` — static attributes contribute their current
    /// value, temporal attributes their value at `t`.
    ///
    /// For an object with at least one static attribute, `snapshot(i, t)`
    /// is **undefined** for `t ≠ now` (the past of static attributes is not
    /// recorded); the error [`ModelError::SnapshotUndefined`] is returned.
    /// For objects with only temporal attributes, `snapshot` coincides with
    /// [`Object::h_state`].
    pub fn snapshot(&self, t: Instant, now: Instant) -> Result<Value> {
        if self.has_static_attrs() && t != now {
            return Err(ModelError::SnapshotUndefined { oid: self.oid, at: t });
        }
        Ok(Value::Record(
            self.attrs
                .iter()
                .filter_map(|(n, v)| match v {
                    Value::Temporal(h) => {
                        h.value_at(t, now).map(|x| (n.clone(), x.clone()))
                    }
                    other => Some((n.clone(), other.clone())),
                })
                .collect(),
        ))
    }

    /// The oids this object refers to at instant `t` — the function `ref`
    /// (Table 3): every oid appearing in an attribute value at `t` (for
    /// temporal attributes, in the run covering `t`).
    #[must_use]
    pub fn refs_at(&self, t: Instant, now: Instant) -> Vec<Oid> {
        let mut out = Vec::new();
        for v in self.attrs.values() {
            v.oids_at(t, now, &mut out);
        }
        out.sort();
        out.dedup();
        out
    }

    /// Every oid this object has ever referred to.
    #[must_use]
    pub fn all_refs(&self) -> Vec<Oid> {
        let mut out = Vec::new();
        for v in self.attrs.values() {
            v.all_oids(&mut out);
        }
        out.sort();
        out.dedup();
        out
    }

    /// Attribute value lookup.
    pub fn attr(&self, name: &AttrName) -> Option<&Value> {
        self.attrs.get(name)
    }
}

/// The object store of a database: every object ever created, at the
/// index of its oid. The engine assigns oids densely from 0 and never
/// reuses or removes one, so `objects[i].oid == Oid(i)` always holds, an
/// object fetch is one bounds-checked index, and iteration is oid order.
#[derive(Clone, Debug, Default)]
pub(crate) struct ObjectTable(Vec<Object>);

impl ObjectTable {
    /// A table of `objects`, which must hold oids `0, 1, …` in order —
    /// what an image lists. `Err` says why the first object whose oid is
    /// not its index is there: its oid repeats an earlier one, the oid of
    /// its index comes later (out of order), or no object has that oid
    /// (a gap).
    pub(crate) fn from_dense(
        objects: Vec<Object>,
    ) -> std::result::Result<ObjectTable, &'static str> {
        for (i, o) in objects.iter().enumerate() {
            let i = i as u64;
            match o.oid.0.cmp(&i) {
                std::cmp::Ordering::Equal => {}
                std::cmp::Ordering::Less => return Err("duplicate oid"),
                std::cmp::Ordering::Greater => {
                    let later = objects.iter().any(|p| p.oid.0 == i);
                    return Err(if later { "oids out of order" } else { "gap in oids" });
                }
            }
        }
        Ok(ObjectTable(objects))
    }

    /// The object `oid`, if the table holds it.
    #[inline]
    pub(crate) fn get(&self, oid: Oid) -> Option<&Object> {
        self.0.get(usize::try_from(oid.0).ok()?)
    }

    /// The object `oid`, mutably, if the table holds it.
    #[inline]
    pub(crate) fn get_mut(&mut self, oid: Oid) -> Option<&mut Object> {
        self.0.get_mut(usize::try_from(oid.0).ok()?)
    }

    /// Every object, in oid order.
    pub(crate) fn values(&self) -> std::slice::Iter<'_, Object> {
        self.0.iter()
    }

    /// The number of objects (the next oid to assign).
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Append `object`, whose oid must be the table's length — the next
    /// oid. Any other oid is refused and the object handed back.
    pub(crate) fn push(&mut self, object: Object) -> std::result::Result<(), Object> {
        if object.oid.0 != self.0.len() as u64 {
            return Err(object);
        }
        self.0.push(object);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the object of paper Example 5.1.
    pub(crate) fn paper_object() -> Object {
        let name = TemporalValue::starting_at(Instant(20), Value::str("IDEA"));
        let subproject = {
            let mut h = TemporalValue::new();
            h.set_from(Instant(20), Value::Oid(Oid(4))).unwrap();
            h.set_from(Instant(46), Value::Oid(Oid(9))).unwrap();
            h
        };
        let participants = {
            let mut h = TemporalValue::new();
            h.set_from(
                Instant(20),
                Value::set([Value::Oid(Oid(2)), Value::Oid(Oid(3))]),
            )
            .unwrap();
            h.set_from(
                Instant(81),
                Value::set([Value::Oid(Oid(2)), Value::Oid(Oid(3)), Value::Oid(Oid(8))]),
            )
            .unwrap();
            h
        };
        let mut attrs = BTreeMap::new();
        attrs.insert(AttrName::from("name"), Value::Temporal(name));
        attrs.insert(
            AttrName::from("objective"),
            Value::str("Implementation"),
        );
        attrs.insert(
            AttrName::from("workplan"),
            Value::set([Value::Oid(Oid(7))]),
        );
        attrs.insert(AttrName::from("subproject"), Value::Temporal(subproject));
        attrs.insert(AttrName::from("participants"), Value::Temporal(participants));
        Object {
            oid: Oid(1),
            lifespan: Lifespan::starting_at(Instant(20)),
            attrs,
            class_history: TemporalValue::starting_at(Instant(20), ClassId::from("project")),
        }
    }

    #[test]
    fn example_5_1_is_historical() {
        let o = paper_object();
        assert!(o.is_historical());
        assert!(o.has_static_attrs());
        assert_eq!(
            o.current_class(Instant(100)),
            Some(&ClassId::from("project"))
        );
        assert_eq!(o.class_at(Instant(30), Instant(100)), Some(&ClassId::from("project")));
        assert_eq!(o.class_at(Instant(10), Instant(100)), None);
    }

    #[test]
    fn example_5_2_states() {
        let o = paper_object();
        let now = Instant(100);
        // s_state(i1) = (objective:'Implementation', workplan:{i7})
        assert_eq!(
            o.s_state(),
            Value::record([
                ("objective", Value::str("Implementation")),
                ("workplan", Value::set([Value::Oid(Oid(7))])),
            ])
        );
        // h_state(i1, 50) = (name:'IDEA', subproject:i9, participants:{i2,i3})
        assert_eq!(
            o.h_state(Instant(50), now),
            Value::record([
                ("name", Value::str("IDEA")),
                ("subproject", Value::Oid(Oid(9))),
                ("participants", Value::set([Value::Oid(Oid(2)), Value::Oid(Oid(3))])),
            ])
        );
        // At t=30 the subproject was i4.
        assert_eq!(
            o.h_state(Instant(30), now).field(&AttrName::from("subproject")),
            Some(&Value::Oid(Oid(4)))
        );
    }

    #[test]
    fn h_state_drops_non_meaningful_attrs() {
        let mut o = paper_object();
        // Close participants at 84: not meaningful at 85 onwards.
        o.attrs
            .get_mut(&AttrName::from("participants"))
            .unwrap()
            .as_temporal_mut()
            .unwrap()
            .close(Instant(84));
        let now = Instant(100);
        let h = o.h_state(Instant(85), now);
        assert!(h.field(&AttrName::from("participants")).is_none());
        assert!(h.field(&AttrName::from("name")).is_some());
        // name and subproject remain meaningful at 85.
        let names = o.meaningful_temporal_attrs(Instant(85), now);
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn snapshot_semantics_from_section_5_3() {
        let o = paper_object();
        let now = Instant(100);
        // snapshot(i1, now) is defined and merges static + temporal@now.
        let s = o.snapshot(now, now).unwrap();
        assert_eq!(
            s,
            Value::record([
                ("name", Value::str("IDEA")),
                ("objective", Value::str("Implementation")),
                ("workplan", Value::set([Value::Oid(Oid(7))])),
                ("subproject", Value::Oid(Oid(9))),
                (
                    "participants",
                    Value::set([Value::Oid(Oid(2)), Value::Oid(Oid(3)), Value::Oid(Oid(8))])
                ),
            ])
        );
        // snapshot(i1, t) undefined for t ≠ now (object has static attrs).
        assert!(matches!(
            o.snapshot(Instant(50), now),
            Err(ModelError::SnapshotUndefined { .. })
        ));
    }

    #[test]
    fn snapshot_equals_h_state_for_fully_temporal_objects() {
        let mut o = paper_object();
        o.attrs.remove(&AttrName::from("objective"));
        o.attrs.remove(&AttrName::from("workplan"));
        assert!(!o.has_static_attrs());
        let now = Instant(100);
        let t = Instant(50);
        assert_eq!(o.snapshot(t, now).unwrap(), o.h_state(t, now));
    }

    #[test]
    fn refs_follow_time() {
        let o = paper_object();
        let now = Instant(100);
        // At t=30: workplan {i7}, subproject i4, participants {i2,i3}.
        assert_eq!(
            o.refs_at(Instant(30), now),
            vec![Oid(2), Oid(3), Oid(4), Oid(7)]
        );
        // At t=90: subproject i9, participants {i2,i3,i8}.
        assert_eq!(
            o.refs_at(Instant(90), now),
            vec![Oid(2), Oid(3), Oid(7), Oid(8), Oid(9)]
        );
        assert_eq!(
            o.all_refs(),
            vec![Oid(2), Oid(3), Oid(4), Oid(7), Oid(8), Oid(9)]
        );
    }
}

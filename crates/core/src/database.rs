//! The database: objects, classes, the logical clock, and the model
//! functions of Table 3.

use std::collections::{BTreeMap, BTreeSet};

use tchimera_temporal::{Instant, IntervalSet, Lifespan, TemporalValue};

use crate::class::{Class, ClassDef};
use crate::consistency::{ConsistencyError, ConsistencyReport};
use crate::error::{ModelError, Result};
use crate::ident::{AttrName, ClassId, Oid};
use crate::object::{Object, ObjectTable};
use crate::ref_index::RefIndex;
use crate::schema::Schema;
use crate::types::{Type, MAX_NESTING};
use crate::value::Value;

/// Attribute-value bindings supplied to creation and migration operations.
pub type Attrs = BTreeMap<AttrName, Value>;

/// `true` if `v` contains any oid reference (for histories: in any run).
fn holds_refs(v: &Value) -> bool {
    let mut out = Vec::new();
    v.all_oids(&mut out);
    !out.is_empty()
}

/// Build an [`Attrs`] map from `(name, value)` pairs.
pub fn attrs<N, I>(pairs: I) -> Attrs
where
    N: Into<AttrName>,
    I: IntoIterator<Item = (N, Value)>,
{
    pairs.into_iter().map(|(n, v)| (n.into(), v)).collect()
}

/// A T_Chimera database: a schema, a set of objects, and a discrete
/// logical clock.
///
/// The clock realizes the paper's `TIME = {0, 1, …, now, …}`: `now` is
/// [`Database::now`] and advances via [`Database::tick`] /
/// [`Database::advance_to`]. All mutating operations happen *at* the
/// current instant; histories grow forward and the past is immutable
/// (valid-time semantics, one linear discrete time dimension — Table 1,
/// "Our model" row).
#[derive(Clone, Debug, Default)]
pub struct Database {
    pub(crate) schema: Schema,
    /// Every object, at the index of its oid.
    pub(crate) objects: ObjectTable,
    pub(crate) clock: Instant,
    pub(crate) next_oid: u64,
    /// Inverse reference graph, kept in sync by every object mutation.
    pub(crate) refs: RefIndex,
    /// Query admission gate, shared by every clone of this database so
    /// concurrent queries against any handle count toward one cap.
    pub(crate) admission: std::sync::Arc<crate::admission::Admission>,
    /// Lazily-built temporal attribute-value indexes (value → holders),
    /// kept current incrementally by every mutation below. Clones start
    /// empty — see `attr_index.rs`.
    pub(crate) attr_idx: crate::attr_index::AttrIndexCache,
    /// Classes fenced off by the integrity scrubber after unrepaired
    /// corruption. Shared across clones (like `admission`) so a scrub on
    /// one handle protects every reader. Empty in healthy databases —
    /// the gate costs one relaxed atomic load per operation.
    pub(crate) quarantine: std::sync::Arc<crate::scrub::Quarantine>,
    /// The maintained state digest (`state.rs`): cold until the first
    /// [`Database::state_digest`], then told by every mutation below
    /// which components it is about to change.
    pub(crate) digest: crate::state::DigestCache,
}

impl Database {
    /// An empty database with the clock at `0`.
    #[must_use]
    pub fn new() -> Database {
        Database::default()
    }

    /// The query admission gate (concurrent-query cap). Shared across
    /// clones; see [`Admission`](crate::Admission).
    pub fn admission(&self) -> &crate::admission::Admission {
        &self.admission
    }

    /// An owning handle to the admission gate, for holding a permit
    /// across a mutable borrow of the database (e.g. a governed scrub).
    pub fn admission_handle(&self) -> std::sync::Arc<crate::admission::Admission> {
        std::sync::Arc::clone(&self.admission)
    }

    // ------------------------------------------------------------------
    // Clock
    // ------------------------------------------------------------------

    /// The current time (the paper's `now`).
    #[inline]
    pub fn now(&self) -> Instant {
        self.clock
    }

    /// Advance the clock by one instant and return the new `now`.
    pub fn tick(&mut self) -> Instant {
        self.clock = self.clock.next();
        self.clock
    }

    /// Advance the clock by `n` instants.
    pub fn tick_by(&mut self, n: u64) -> Instant {
        self.clock = self.clock.advance(n);
        self.clock
    }

    /// Move the clock to `t`; time never flows backwards.
    pub fn advance_to(&mut self, t: Instant) -> Result<Instant> {
        if t < self.clock {
            return Err(ModelError::ClockMovedBackwards {
                to: t,
                now: self.clock,
            });
        }
        self.clock = t;
        Ok(self.clock)
    }

    // ------------------------------------------------------------------
    // Schema operations
    // ------------------------------------------------------------------

    /// Define a class at the current instant (Definition 4.1).
    pub fn define_class(&mut self, def: ClassDef) -> Result<()> {
        let id = self.schema.define(def, self.clock)?.id.clone();
        self.digest.touch_class(&id);
        Ok(())
    }

    /// Delete a class at the current instant (its lifespan is terminated;
    /// it must have no alive subclasses and an empty extent).
    pub fn drop_class(&mut self, name: &ClassId) -> Result<()> {
        self.schema.drop_class(name, self.clock)?;
        self.digest.touch_class(name);
        Ok(())
    }

    /// The schema (classes and ISA hierarchy).
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Class lookup.
    pub fn class(&self, name: &ClassId) -> Result<&Class> {
        self.schema.class(name)
    }

    /// Update a c-attribute of a class. Temporal c-attributes record the
    /// change at `now`; static ones are overwritten in place (Section 2:
    /// c-attributes record information like the average age of employees).
    pub fn set_c_attr(
        &mut self,
        class: &ClassId,
        attr: &AttrName,
        value: Value,
    ) -> Result<()> {
        self.guard_class(class)?;
        let now = self.clock;
        let c = self.schema.class(class)?;
        if !c.lifespan.is_alive() {
            return Err(ModelError::ClassDead(class.clone()));
        }
        let decl = c
            .c_attrs
            .get(attr)
            .ok_or_else(|| ModelError::UnknownClassAttribute {
                class: class.clone(),
                attr: attr.clone(),
            })?;
        let expected = decl.ty.strip_temporal().unwrap_or(&decl.ty);
        if !self.value_in_type(&value, expected, now) {
            return Err(ModelError::TypeMismatch {
                expected: expected.clone(),
                value: value.to_string(),
            });
        }
        let temporal = decl.ty.is_temporal();
        self.digest.touch_class(class);
        let c = self.schema.class_mut(class)?;
        let slot = c.c_attr_values.get_mut(attr).ok_or(ModelError::Internal {
            context: "c-attribute declared but no value slot",
        })?;
        if temporal {
            match slot {
                Value::Temporal(h) => h.set_from(now, value)?,
                _ => *slot = Value::Temporal(TemporalValue::starting_at(now, value)),
            }
        } else {
            *slot = value;
        }
        Ok(())
    }

    /// Read a c-attribute of a class (temporal c-attributes yield their
    /// full history as a [`Value::Temporal`]).
    pub fn c_attr(&self, class: &ClassId, attr: &AttrName) -> Result<&Value> {
        let c = self.schema.class(class)?;
        c.c_attr_values
            .get(attr)
            .ok_or_else(|| ModelError::UnknownClassAttribute {
                class: class.clone(),
                attr: attr.clone(),
            })
    }

    // ------------------------------------------------------------------
    // Object lifecycle
    // ------------------------------------------------------------------

    /// Create an object as an instance of `class` at the current instant.
    ///
    /// `init` supplies initial attribute values:
    ///
    /// * a static attribute takes the supplied value (or `null`);
    /// * a temporal attribute `temporal(T)` takes either a plain value of
    ///   `T` — the history then starts as `⟨[now, now], v⟩` growing with
    ///   the clock — or a full [`Value::Temporal`] history (used by bulk
    ///   loaders), each run of which must type-check;
    /// * every supplied value must belong to the extension of the declared
    ///   domain (Definition 3.5); attributes not supplied start as `null`.
    ///
    /// The object becomes an *instance* of `class` and a *member* of every
    /// superclass (Section 3.2), and the class extents are updated so that
    /// Invariants 5.1 and 5.2 hold.
    pub fn create_object(&mut self, class: &ClassId, init: Attrs) -> Result<Oid> {
        self.guard_class(class)?;
        let now = self.clock;
        let c = self.schema.class(class)?;
        if !c.lifespan.is_alive() {
            return Err(ModelError::ClassDead(class.clone()));
        }
        // Reject values for undeclared attributes.
        for name in init.keys() {
            if !c.all_attrs.contains_key(name) {
                return Err(ModelError::UnexpectedAttribute {
                    class: class.clone(),
                    attr: name.clone(),
                });
            }
        }
        let mut init = init;
        let mut attr_values: BTreeMap<AttrName, Value> = BTreeMap::new();
        for (name, decl) in &c.all_attrs {
            let supplied = init.remove(name).unwrap_or(Value::Null);
            let stored = self.init_attr_value(decl, supplied, now)?;
            attr_values.insert(name.clone(), stored);
        }

        let oid = Oid(self.next_oid);
        self.next_oid += 1;
        let object = Object {
            oid,
            lifespan: Lifespan::starting_at(now),
            attrs: attr_values,
            class_history: TemporalValue::starting_at(now, class.clone()),
        };
        self.digest.touch_object(oid);
        // `next_oid` is the table's length (`import_state` refuses any
        // other image).
        self.objects.push(object).map_err(|_| ModelError::Internal {
            context: "next oid is not the object count",
        })?;
        self.reindex_refs(oid);
        self.attridx_on_create(oid);

        // Maintain extents: instance of `class`, member of it and of all
        // its superclasses.
        self.open_membership(oid, class, now)?;
        Ok(oid)
    }

    fn init_attr_value(
        &self,
        decl: &crate::class::AttrDecl,
        supplied: Value,
        now: Instant,
    ) -> Result<Value> {
        match decl.ty.strip_temporal() {
            Some(inner) => match supplied {
                Value::Temporal(h) => {
                    for e in h.entries() {
                        // The history nests one level around each run:
                        // the bound of `value_in_type`, applied to it.
                        let iv = e.interval(now);
                        if e.value.depth() + 1 >= MAX_NESTING
                            || (!iv.is_empty() && !self.value_in_type_over(&e.value, inner, iv, now))
                        {
                            return Err(ModelError::TypeMismatch {
                                expected: decl.ty.clone(),
                                value: e.value.to_string(),
                            });
                        }
                    }
                    Ok(Value::Temporal(h))
                }
                v => {
                    if !self.value_in_type(&v, inner, now) {
                        return Err(ModelError::TypeMismatch {
                            expected: inner.clone(),
                            value: v.to_string(),
                        });
                    }
                    Ok(Value::Temporal(TemporalValue::starting_at(now, v)))
                }
            },
            None => {
                if !self.value_in_type(&supplied, &decl.ty, now) {
                    return Err(ModelError::TypeMismatch {
                        expected: decl.ty.clone(),
                        value: supplied.to_string(),
                    });
                }
                Ok(supplied)
            }
        }
    }

    /// Open membership runs for `oid` as an instance of `class` (and a
    /// member of all its superclasses) from `now`.
    fn open_membership(&mut self, oid: Oid, class: &ClassId, now: Instant) -> Result<()> {
        {
            self.digest.touch_member(class, oid);
            let c = self.schema.class_mut(class)?;
            c.proper_ext.open(oid, now)?;
            c.ext.open(oid, now)?;
        }
        for sup in self.schema.superclasses_of(class) {
            self.digest.touch_member(&sup, oid);
            let c = self.schema.class_mut(&sup)?;
            c.ext.open(oid, now)?;
        }
        Ok(())
    }

    /// Update an attribute of an object at the current instant.
    ///
    /// * Temporal attributes record the change: the history gains a run
    ///   starting at `now` (the previous run is closed at `now − 1`).
    /// * Static attributes are overwritten; the previous value is lost
    ///   (Section 1.1, non-temporal attributes).
    /// * Immutable attributes reject any update after creation.
    pub fn set_attr(&mut self, oid: Oid, attr: &AttrName, value: Value) -> Result<()> {
        self.guard_object(oid)?;
        let now = self.clock;
        let object = self
            .objects
            .get(oid)
            .ok_or(ModelError::UnknownObject(oid))?;
        if !object.lifespan.is_alive() {
            return Err(ModelError::ObjectDead(oid));
        }
        let class = object
            .current_class(now)
            .ok_or(ModelError::ObjectDead(oid))?;
        let decl = self
            .schema
            .class(class)?
            .attr(attr)
            .ok_or_else(|| ModelError::UnknownAttribute {
                class: class.clone(),
                attr: attr.clone(),
            })?;
        if decl.immutable {
            return Err(ModelError::ImmutableAttribute {
                oid,
                attr: attr.clone(),
            });
        }
        let expected = decl.ty.strip_temporal().unwrap_or(&decl.ty);
        if !self.value_in_type(&value, expected, now) {
            return Err(ModelError::TypeMismatch {
                expected: expected.clone(),
                value: value.to_string(),
            });
        }
        let temporal = decl.ty.is_temporal();
        // Pre-capture for the attribute-value index: the hooks need the
        // displaced state, which is gone after the mutation below. Costs
        // one atomic load when no index is live.
        let idx_covered = self.attridx_covers(attr);
        let new_for_idx = idx_covered.then(|| value.clone());
        self.digest.touch_object(oid);
        let object = self.objects.get_mut(oid).ok_or(ModelError::Internal {
            context: "object vanished between validation and update",
        })?;
        let slot = object.attrs.get_mut(attr).ok_or(ModelError::Internal {
            context: "declared attribute has no slot (slots are initialized at creation)",
        })?;
        let old_open = if idx_covered && temporal {
            slot.as_temporal()
                .and_then(|h| h.entries().last())
                .filter(|e| e.end.is_now())
                .map(|e| (e.value.clone(), e.start))
        } else {
            None
        };
        let old_static =
            (idx_covered && !temporal).then(|| slot.clone());
        // The reverse-reference index is a union over the whole recorded
        // state, and temporal histories only grow — so the update can be
        // indexed incrementally (O(new value), not O(history)) unless it
        // can *remove* a reference: a same-instant replace of the open
        // run, or an overwrite of a ref-holding non-history value.
        let mut added = Vec::new();
        value.all_oids(&mut added);
        let may_shrink = match (&*slot, temporal) {
            (Value::Temporal(h), true) => h.entries().last().is_some_and(|e| {
                e.end.is_now() && e.start == now && holds_refs(&e.value)
            }),
            (old, _) => holds_refs(old),
        };
        if temporal {
            match slot {
                Value::Temporal(h) => h.set_from(now, value)?,
                _ => *slot = Value::Temporal(TemporalValue::starting_at(now, value)),
            }
        } else {
            *slot = value;
        }
        if may_shrink {
            self.reindex_refs(oid);
        } else {
            tchimera_obs::counter!("core.refindex.incremental").inc();
            self.refs.add_refs(oid, added);
        }
        if let Some(new) = new_for_idx {
            if temporal {
                self.attridx_set_temporal(oid, attr, old_open, &new);
            } else {
                self.attridx_set_static(
                    oid,
                    attr,
                    old_static.as_ref().unwrap_or(&Value::Null),
                    &new,
                );
            }
        }
        Ok(())
    }

    /// Migrate an object to a different most specific class at the current
    /// instant (Section 5.2). `to` may be a subclass (specialization, e.g.
    /// employee → manager) or a superclass (generalization, e.g. manager →
    /// employee) of the current class — or any class of the *same*
    /// hierarchy (Invariant 6.2 forbids crossing hierarchies).
    ///
    /// Effects on attributes (Section 5.2):
    ///
    /// * attributes of the old class absent from the new one: *static*
    ///   attributes are dropped without trace; *temporal* attributes have
    ///   their history closed at `now − 1` and **kept** in the object;
    /// * attributes of the new class absent from the old one are
    ///   initialized from `init` (or `null`);
    /// * attributes present in both keep their values; if the new class
    ///   declares a previously-static attribute as temporal, the current
    ///   value opens the history; if a previously-temporal attribute is
    ///   static in the new class, the history is closed at `now − 1` and
    ///   the current value is kept as the static value.
    pub fn migrate(&mut self, oid: Oid, to: &ClassId, init: Attrs) -> Result<()> {
        self.guard_object(oid)?;
        self.guard_class(to)?;
        let now = self.clock;
        let object = self
            .objects
            .get(oid)
            .ok_or(ModelError::UnknownObject(oid))?;
        if !object.lifespan.is_alive() {
            return Err(ModelError::ObjectDead(oid));
        }
        let from = object
            .current_class(now)
            .ok_or(ModelError::ObjectDead(oid))?
            .clone();
        let to_class = self.schema.class(to)?;
        if !to_class.lifespan.is_alive() {
            return Err(ModelError::ClassDead(to.clone()));
        }
        if from == *to {
            return Ok(());
        }
        if !self.schema.same_hierarchy(&from, to) {
            return Err(ModelError::CrossHierarchyMigration {
                oid,
                from,
                to: to.clone(),
            });
        }

        let old_attrs = &self.schema.class(&from)?.all_attrs;
        let new_attrs = &to_class.all_attrs;

        for name in init.keys() {
            if !new_attrs.contains_key(name) {
                return Err(ModelError::UnexpectedAttribute {
                    class: to.clone(),
                    attr: name.clone(),
                });
            }
        }

        // Precompute the stored value for every attribute of the new class.
        let mut init = init;
        let mut staged: Vec<(AttrName, Value)> = Vec::new();
        for (name, decl) in new_attrs {
            let old_decl = old_attrs.get(name);
            let existing = self
                .objects
                .get(oid)
                .ok_or(ModelError::Internal {
                    context: "object vanished between validation and migration staging",
                })?
                .attrs
                .get(name)
                .cloned();
            let supplied = init.remove(name);
            let stored = match (old_decl, existing) {
                // Newly acquired attribute. If the object still carries a
                // closed history under this name from an earlier stint in
                // a class declaring it (Section 5.2 keeps such histories),
                // the history *resumes* rather than being replaced.
                (None, existing) => {
                    let v = supplied.unwrap_or(Value::Null);
                    match (existing, decl.ty.strip_temporal(), &v) {
                        (Some(Value::Temporal(mut h)), Some(inner), v)
                            if !matches!(v, Value::Temporal(_)) =>
                        {
                            if !self.value_in_type(v, inner, now) {
                                return Err(ModelError::TypeMismatch {
                                    expected: inner.clone(),
                                    value: v.to_string(),
                                });
                            }
                            h.set_from(now, v.clone())?;
                            Value::Temporal(h)
                        }
                        _ => self.init_attr_value(decl, v, now)?,
                    }
                }
                // Kept attribute.
                (Some(old), Some(current)) => {
                    match (old.ty.is_temporal(), decl.ty.is_temporal()) {
                        (true, true) | (false, false) => {
                            if let Some(v) = supplied {
                                // Optional simultaneous update.
                                let inner = decl.ty.strip_temporal().unwrap_or(&decl.ty);
                                if !self.value_in_type(&v, inner, now) {
                                    return Err(ModelError::TypeMismatch {
                                        expected: inner.clone(),
                                        value: v.to_string(),
                                    });
                                }
                                if decl.ty.is_temporal() {
                                    let mut h = current
                                        .as_temporal()
                                        .cloned()
                                        .unwrap_or_default();
                                    h.set_from(now, v)?;
                                    Value::Temporal(h)
                                } else {
                                    v
                                }
                            } else {
                                current
                            }
                        }
                        // static → temporal: the current value opens the
                        // history (Rule 6.1 refinement direction).
                        (false, true) => {
                            let v = supplied.unwrap_or(current);
                            self.init_attr_value(decl, v, now)?
                        }
                        // temporal → static (generalization): keep the
                        // current value as the static value.
                        (true, false) => {
                            let v = supplied
                                .or_else(|| {
                                    current
                                        .as_temporal()
                                        .and_then(|h| h.value_now(now).cloned())
                                })
                                .unwrap_or(Value::Null);
                            if !self.value_in_type(&v, &decl.ty, now) {
                                return Err(ModelError::TypeMismatch {
                                    expected: decl.ty.clone(),
                                    value: v.to_string(),
                                });
                            }
                            v
                        }
                    }
                }
                (Some(_), None) => {
                    let v = supplied.unwrap_or(Value::Null);
                    self.init_attr_value(decl, v, now)?
                }
            };
            staged.push((name.clone(), stored));
        }

        // Apply to the object.
        self.digest.touch_object(oid);
        let object = self.objects.get_mut(oid).ok_or(ModelError::Internal {
            context: "object vanished between migration staging and apply",
        })?;
        // Old-only attributes: drop statics, close temporals (kept).
        let mut kept_histories: Vec<(AttrName, Value)> = Vec::new();
        for (name, decl) in old_attrs {
            if new_attrs.contains_key(name) {
                continue;
            }
            if let Some(v) = object.attrs.remove(name) {
                if decl.ty.is_temporal() {
                    if let Value::Temporal(mut h) = v {
                        h.close_before(now);
                        if !h.is_empty() {
                            kept_histories.push((name.clone(), Value::Temporal(h)));
                        }
                    }
                }
            }
        }
        for (name, v) in staged {
            object.attrs.insert(name, v);
        }
        // Closed histories of dropped temporal attributes stay in the
        // object (Section 5.2) — reinsert after the new attributes so a
        // same-named new declaration wins.
        for (name, v) in kept_histories {
            object.attrs.entry(name).or_insert(v);
        }
        object.class_history.set_from(now, to.clone())?;

        // Maintain extents.
        let old_supers: Vec<ClassId> = std::iter::once(from.clone())
            .chain(self.schema.superclasses_of(&from))
            .collect();
        let new_supers: Vec<ClassId> = std::iter::once(to.clone())
            .chain(self.schema.superclasses_of(to))
            .collect();
        for c in old_supers.iter().chain(&new_supers) {
            self.digest.touch_member(c, oid);
        }
        // proper-ext: leaves `from`, enters `to`.
        self.schema.class_mut(&from)?.proper_ext.close_before(oid, now);
        self.schema.class_mut(to)?.proper_ext.open(oid, now)?;
        // ext: close classes left, open classes entered.
        for c in &old_supers {
            if !new_supers.contains(c) {
                self.schema.class_mut(c)?.ext.close_before(oid, now);
            }
        }
        for c in &new_supers {
            self.schema.class_mut(c)?.ext.open(oid, now)?;
        }
        self.reindex_refs(oid);
        // Migration can drop, convert (static ↔ temporal) or re-initialize
        // slots: reconcile the attribute-value index from the new state.
        self.attridx_reconcile(oid);
        Ok(())
    }

    /// Terminate an object at the current instant: its lifespan becomes
    /// `[start, now]`, all open attribute histories and memberships are
    /// closed. The oid and the full recorded history remain queryable.
    pub fn terminate_object(&mut self, oid: Oid) -> Result<()> {
        self.guard_object(oid)?;
        let now = self.clock;
        let idx_active = self.attridx_active();
        let object = self
            .objects
            .get_mut(oid)
            .ok_or(ModelError::UnknownObject(oid))?;
        if !object.lifespan.is_alive() {
            return Err(ModelError::ObjectDead(oid));
        }
        self.digest.touch_object(oid);
        object.lifespan = object
            .lifespan
            .terminated_at(now)
            .ok_or(ModelError::NotInLifespan { at: now })?;
        // Capture the open runs being closed so the attribute-value index
        // can mirror the close without rereading histories.
        let mut closed_runs: Vec<(AttrName, Value, Instant)> = Vec::new();
        for (name, v) in object.attrs.iter_mut() {
            if let Value::Temporal(h) = v {
                if idx_active {
                    if let Some(e) =
                        h.entries().last().filter(|e| e.end.is_now())
                    {
                        closed_runs.push((name.clone(), e.value.clone(), e.start));
                    }
                }
                h.close(now);
            }
        }
        object.class_history.close(now);
        // The object's memberships are exactly the classes it was ever an
        // instance of, plus their superclasses (Invariant 5.1) — close
        // those, not every class in the schema.
        let mut affected: BTreeSet<ClassId> = object
            .class_history
            .entries()
            .iter()
            .map(|e| e.value.clone())
            .collect();
        for class in affected.clone() {
            affected.extend(self.schema.superclasses_of(&class));
        }
        for class in affected {
            // A membership can outlive its class (dropped classes keep
            // their extent histories as tombstones but may be absent in
            // exotic schema states); skip rather than fail.
            if let Ok(c) = self.schema.class_mut(&class) {
                self.digest.touch_member(&class, oid);
                c.ext.close(oid, now);
                c.proper_ext.close(oid, now);
            }
        }
        // No reference reindex: `close(now)` never pops a run (every run
        // starts at or before the clock), and closed histories keep their
        // recorded values — the object's reference set is unchanged.
        if idx_active && !closed_runs.is_empty() {
            self.attridx_on_terminate(oid, &closed_runs);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Lookup and the Table 3 model functions
    // ------------------------------------------------------------------

    /// Object lookup.
    pub fn object(&self, oid: Oid) -> Result<&Object> {
        self.objects.get(oid).ok_or(ModelError::UnknownObject(oid))
    }

    /// Iterate all objects (alive and terminated).
    pub fn objects(&self) -> impl Iterator<Item = &Object> {
        self.objects.values()
    }

    /// Number of objects ever created.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// `π(c, t)` — the extent of class `c` at instant `t`: the identifiers
    /// of objects that at time `t` belonged to `c` as instances or members
    /// (Section 3.2).
    pub fn pi(&self, class: &ClassId, t: Instant) -> Result<Vec<Oid>> {
        self.guard_class(class)?;
        Ok(self.schema.class(class)?.ext_at(t, self.clock))
    }

    /// The proper extent of `c` at `t` (instances only).
    pub fn proper_pi(&self, class: &ClassId, t: Instant) -> Result<Vec<Oid>> {
        self.guard_class(class)?;
        Ok(self.schema.class(class)?.proper_ext_at(t, self.clock))
    }

    /// `type(c)` — the structural type of a class (Section 4).
    pub fn type_of(&self, class: &ClassId) -> Result<Type> {
        Ok(self.schema.class(class)?.structural_type())
    }

    /// `h_type(c)` — the historical type; `None` for classes whose
    /// instances have no temporal attributes.
    pub fn h_type(&self, class: &ClassId) -> Result<Option<Type>> {
        Ok(self.schema.class(class)?.historical_type())
    }

    /// `s_type(c)` — the static type; `None` for classes whose instances
    /// only have temporal attributes.
    pub fn s_type(&self, class: &ClassId) -> Result<Option<Type>> {
        Ok(self.schema.class(class)?.static_type())
    }

    /// `h_state(i, t)` — the historical value of an object (Section 5.2).
    pub fn h_state(&self, oid: Oid, t: Instant) -> Result<Value> {
        self.guard_object(oid)?;
        Ok(self.object(oid)?.h_state(t, self.clock))
    }

    /// `s_state(i)` — the static value of an object (Section 5.2).
    pub fn s_state(&self, oid: Oid) -> Result<Value> {
        self.guard_object(oid)?;
        Ok(self.object(oid)?.s_state())
    }

    /// `o_lifespan(i)` — the lifespan of an object.
    pub fn o_lifespan(&self, oid: Oid) -> Result<Lifespan> {
        self.guard_object(oid)?;
        Ok(self.object(oid)?.lifespan)
    }

    /// `c_lifespan(i, c)` (Table 3's `m_lifespan`) — the instants at which
    /// `i` was a member of `c`; may be non-contiguous (an employee can be
    /// fired and rehired, Section 5.1).
    pub fn c_lifespan(&self, oid: Oid, class: &ClassId) -> Result<IntervalSet> {
        self.guard_class(class)?;
        Ok(self.schema.class(class)?.membership_of(oid, self.clock))
    }

    /// `ref(i, t)` — the oids the object refers to at instant `t`
    /// (Section 5.2, Definition 5.6).
    pub fn refs(&self, oid: Oid, t: Instant) -> Result<Vec<Oid>> {
        self.guard_object(oid)?;
        Ok(self.object(oid)?.refs_at(t, self.clock))
    }

    /// `snapshot(i, t)` — the projected state of the object at `t`
    /// (Section 5.3); undefined for `t ≠ now` when the object has static
    /// attributes.
    pub fn snapshot(&self, oid: Oid, t: Instant) -> Result<Value> {
        self.guard_object(oid)?;
        self.object(oid)?.snapshot(t, self.clock)
    }

    /// Replace an object wholesale, bypassing all validation.
    ///
    /// This is a **fault-injection hook** for tests and benchmarks of the
    /// consistency and invariant checkers (Definitions 5.5/5.6 need
    /// *inconsistent* states to detect, and the public mutation API keeps
    /// the database consistent by construction). Never use it in
    /// application code — it is compiled only under `cfg(test)` or the
    /// `testing` feature. The derived indexes follow the new object; the
    /// maintained digest is deliberately *not* told (damage does not
    /// announce itself), so only [`Database::digest_from_scratch`] sees it.
    /// An oid the database does not hold is refused with
    /// [`ModelError::UnknownObject`]: objects are only ever created.
    #[doc(hidden)]
    #[cfg(any(test, feature = "testing"))]
    pub fn replace_object_for_test(&mut self, object: Object) -> Result<()> {
        let oid = object.oid;
        match self.objects.get_mut(oid) {
            Some(slot) => *slot = object,
            None => return Err(ModelError::UnknownObject(oid)),
        }
        self.reindex_refs(oid);
        self.attridx_reconcile(oid);
        Ok(())
    }

    /// Reconcile the reverse-reference index with `oid`'s current state.
    /// `O(object state)` — mutation paths prefer [`RefIndex::add_refs`]
    /// and fall back here only when references may have been removed.
    pub(crate) fn reindex_refs(&mut self, oid: Oid) {
        tchimera_obs::counter!("core.refindex.rebuilds").inc();
        let refs = self
            .objects
            .get(oid)
            .map(Object::all_refs)
            .unwrap_or_default();
        self.refs.update(oid, refs);
    }

    /// The objects whose state references `target` (sorted), answered
    /// from the reverse-reference index in `O(referrers)`.
    pub fn referrers_of(&self, target: Oid) -> Vec<Oid> {
        tchimera_obs::counter!("core.refindex.probes").inc();
        self.refs.referrers_of(target).collect()
    }

    /// `O(affected)` referential-integrity check after a mutation of
    /// `oid`: its own outgoing references plus every reference pointing
    /// at it, located through the reverse-reference index. Equivalent to
    /// the `oid`-relevant slice of
    /// [`Database::check_referential_integrity`].
    pub fn check_refs_around(&self, oid: Oid) -> ConsistencyReport {
        let mut report = self.check_object_refs(oid).unwrap_or_default();
        // A self-reference is already covered by the outgoing pass.
        report.errors.extend(
            self.check_refs_to(oid)
                .errors
                .into_iter()
                .filter(|e| !matches!(e,
                    ConsistencyError::DanglingReference { oid: r, .. } if *r == oid)),
        );
        report
    }

    /// The current value of an attribute (temporal attributes resolve to
    /// their value at `now`).
    pub fn attr_now(&self, oid: Oid, attr: &AttrName) -> Result<Value> {
        self.attr_at(oid, attr, self.clock)
    }

    /// The value of an attribute at instant `t`. For a static attribute
    /// this is the *current* value whatever `t` is (the past is not
    /// recorded); for a temporal attribute it is `f(t)` (or `null` outside
    /// the domain).
    pub fn attr_at(&self, oid: Oid, attr: &AttrName, t: Instant) -> Result<Value> {
        self.attr_ref_at(oid, attr, t).cloned()
    }

    /// [`Database::attr_at`] without the clone: a borrow of the stored
    /// value (`null` outside a temporal attribute's domain borrows a
    /// static `Value::Null`). The query executor compares and hashes
    /// through this, so a predicate over a string attribute allocates
    /// nothing.
    pub fn attr_ref_at(&self, oid: Oid, attr: &AttrName, t: Instant) -> Result<&Value> {
        static NULL: Value = Value::Null;
        self.guard_object(oid)?;
        let o = self.object(oid)?;
        let v = o
            .attr(attr)
            .ok_or_else(|| ModelError::UnknownAttribute {
                class: o
                    .current_class(self.clock)
                    .cloned()
                    .unwrap_or_else(|| ClassId::from("?")),
                attr: attr.clone(),
            })?;
        Ok(match v {
            Value::Temporal(h) => h.value_at(t, self.clock).unwrap_or(&NULL),
            other => other,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassDef;

    /// Schema used by most tests: person ⊇ employee ⊇ manager.
    pub(crate) fn staff_db() -> Database {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("person")
                .immutable_attr("name", Type::temporal(Type::STRING))
                .attr("address", Type::STRING),
        )
        .unwrap();
        db.define_class(
            ClassDef::new("employee")
                .isa("person")
                .attr("salary", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        db.define_class(
            ClassDef::new("manager")
                .isa("employee")
                .attr("officialcar", Type::STRING)
                .attr("dependents", Type::temporal(Type::set_of(Type::object("person")))),
        )
        .unwrap();
        db
    }

    #[test]
    fn create_object_populates_extents() {
        let mut db = staff_db();
        db.tick_by(10);
        let i = db
            .create_object(
                &ClassId::from("employee"),
                attrs([
                    ("name", Value::str("Bob")),
                    ("address", Value::str("Milano")),
                    ("salary", Value::Int(100)),
                ]),
            )
            .unwrap();
        let t = Instant(10);
        assert_eq!(db.pi(&ClassId::from("employee"), t).unwrap(), vec![i]);
        assert_eq!(db.pi(&ClassId::from("person"), t).unwrap(), vec![i]);
        assert!(db.pi(&ClassId::from("manager"), t).unwrap().is_empty());
        assert_eq!(db.proper_pi(&ClassId::from("employee"), t).unwrap(), vec![i]);
        assert!(db.proper_pi(&ClassId::from("person"), t).unwrap().is_empty());
        // Before creation the extent is empty.
        assert!(db.pi(&ClassId::from("employee"), Instant(9)).unwrap().is_empty());
    }

    #[test]
    fn temporal_attr_updates_record_history() {
        let mut db = staff_db();
        let i = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("salary", Value::Int(100))]),
            )
            .unwrap();
        db.tick_by(5);
        db.set_attr(i, &AttrName::from("salary"), Value::Int(120)).unwrap();
        db.tick_by(5);
        db.set_attr(i, &AttrName::from("salary"), Value::Int(150)).unwrap();
        let a = AttrName::from("salary");
        assert_eq!(db.attr_at(i, &a, Instant(0)).unwrap(), Value::Int(100));
        assert_eq!(db.attr_at(i, &a, Instant(4)).unwrap(), Value::Int(100));
        assert_eq!(db.attr_at(i, &a, Instant(5)).unwrap(), Value::Int(120));
        assert_eq!(db.attr_at(i, &a, Instant(10)).unwrap(), Value::Int(150));
        assert_eq!(db.attr_now(i, &a).unwrap(), Value::Int(150));
    }

    #[test]
    fn static_attr_updates_lose_history() {
        let mut db = staff_db();
        let i = db
            .create_object(
                &ClassId::from("person"),
                attrs([("address", Value::str("Milano"))]),
            )
            .unwrap();
        db.tick_by(5);
        db.set_attr(i, &AttrName::from("address"), Value::str("Genova"))
            .unwrap();
        // The past value is unrecoverable: attr_at returns the current one.
        assert_eq!(
            db.attr_at(i, &AttrName::from("address"), Instant(0)).unwrap(),
            Value::str("Genova")
        );
    }

    #[test]
    fn immutable_attr_rejects_update() {
        let mut db = staff_db();
        let i = db
            .create_object(
                &ClassId::from("person"),
                attrs([("name", Value::str("Bob"))]),
            )
            .unwrap();
        db.tick();
        assert!(matches!(
            db.set_attr(i, &AttrName::from("name"), Value::str("Robert")),
            Err(ModelError::ImmutableAttribute { .. })
        ));
    }

    #[test]
    fn type_checking_on_write() {
        let mut db = staff_db();
        let err = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("salary", Value::str("lots"))]),
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::TypeMismatch { .. }));
        let i = db
            .create_object(&ClassId::from("employee"), attrs::<&str, _>([]))
            .unwrap();
        db.tick();
        assert!(matches!(
            db.set_attr(i, &AttrName::from("salary"), Value::Bool(true)),
            Err(ModelError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.set_attr(i, &AttrName::from("ghost"), Value::Int(1)),
            Err(ModelError::UnknownAttribute { .. })
        ));
        assert!(matches!(
            db.create_object(
                &ClassId::from("employee"),
                attrs([("ghost", Value::Int(1))])
            ),
            Err(ModelError::UnexpectedAttribute { .. })
        ));
    }

    #[test]
    fn null_is_legal_everywhere() {
        let mut db = staff_db();
        let i = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("salary", Value::Null)]),
            )
            .unwrap();
        assert_eq!(
            db.attr_now(i, &AttrName::from("salary")).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn promotion_to_manager_adds_attributes() {
        // The paper's Section 5.2 story: employee promoted to manager.
        let mut db = staff_db();
        db.tick_by(10);
        let i = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("name", Value::str("Ann")), ("salary", Value::Int(100))]),
            )
            .unwrap();
        db.tick_by(10); // now = 20
        db.migrate(
            i,
            &ClassId::from("manager"),
            attrs([
                ("officialcar", Value::str("Alfa 164")),
                ("dependents", Value::set([])),
            ]),
        )
        .unwrap();
        let now = db.now();
        let o = db.object(i).unwrap();
        assert_eq!(o.current_class(now), Some(&ClassId::from("manager")));
        assert_eq!(
            o.class_at(Instant(15), now),
            Some(&ClassId::from("employee"))
        );
        assert_eq!(
            db.attr_now(i, &AttrName::from("officialcar")).unwrap(),
            Value::str("Alfa 164")
        );
        // Extents: manager gains i at 20; employee/person keep it.
        assert_eq!(db.pi(&ClassId::from("manager"), Instant(20)).unwrap(), vec![i]);
        assert!(db.pi(&ClassId::from("manager"), Instant(19)).unwrap().is_empty());
        assert_eq!(db.pi(&ClassId::from("employee"), Instant(20)).unwrap(), vec![i]);
        assert_eq!(db.pi(&ClassId::from("person"), Instant(20)).unwrap(), vec![i]);
        // proper-ext moved from employee to manager.
        assert!(db
            .proper_pi(&ClassId::from("employee"), Instant(20))
            .unwrap()
            .is_empty());
        assert_eq!(
            db.proper_pi(&ClassId::from("employee"), Instant(19)).unwrap(),
            vec![i]
        );
    }

    #[test]
    fn demotion_drops_static_keeps_temporal_history() {
        // Section 5.2: "the transfer of the manager back to normal
        // employee status (that means the loss of the official car and of
        // the dependents)".
        let mut db = staff_db();
        db.tick_by(10);
        let i = db
            .create_object(
                &ClassId::from("manager"),
                attrs([
                    ("salary", Value::Int(200)),
                    ("officialcar", Value::str("Alfa 164")),
                    ("dependents", Value::set([])),
                ]),
            )
            .unwrap();
        db.tick_by(10); // now = 20
        db.migrate(i, &ClassId::from("employee"), Attrs::new()).unwrap();
        let o = db.object(i).unwrap();
        // Static attribute dropped without trace.
        assert!(o.attr(&AttrName::from("officialcar")).is_none());
        // Temporal attribute kept, history closed at 19.
        let dep = o
            .attr(&AttrName::from("dependents"))
            .expect("temporal history kept")
            .as_temporal()
            .unwrap();
        assert!(!dep.has_open_run());
        assert!(dep.is_defined_at(Instant(15), db.now()));
        assert!(!dep.is_defined_at(Instant(20), db.now()));
        // Salary continues unbroken.
        assert_eq!(
            db.attr_now(i, &AttrName::from("salary")).unwrap(),
            Value::Int(200)
        );
        // Manager membership closed at 19.
        assert_eq!(
            db.c_lifespan(i, &ClassId::from("manager")).unwrap(),
            IntervalSet::from_interval(tchimera_temporal::Interval::from_ticks(10, 19))
        );
    }

    #[test]
    fn rehire_creates_non_contiguous_membership() {
        let mut db = staff_db();
        db.tick_by(10);
        let i = db
            .create_object(&ClassId::from("employee"), attrs::<&str, _>([]))
            .unwrap();
        db.tick_by(10); // 20: fired
        db.migrate(i, &ClassId::from("person"), Attrs::new()).unwrap();
        db.tick_by(10); // 30: rehired
        db.migrate(i, &ClassId::from("employee"), Attrs::new()).unwrap();
        db.tick_by(10); // 40
        let m = db.c_lifespan(i, &ClassId::from("employee")).unwrap();
        assert_eq!(m.interval_count(), 2);
        assert!(m.contains(Instant(15)));
        assert!(!m.contains(Instant(25)));
        assert!(m.contains(Instant(35)));
        // person membership is contiguous throughout.
        let p = db.c_lifespan(i, &ClassId::from("person")).unwrap();
        assert!(p.is_contiguous());
        assert!(p.contains(Instant(25)));
    }

    #[test]
    fn cross_hierarchy_migration_rejected() {
        let mut db = staff_db();
        db.define_class(ClassDef::new("vehicle")).unwrap();
        let i = db
            .create_object(&ClassId::from("person"), attrs::<&str, _>([]))
            .unwrap();
        db.tick();
        assert!(matches!(
            db.migrate(i, &ClassId::from("vehicle"), Attrs::new()),
            Err(ModelError::CrossHierarchyMigration { .. })
        ));
    }

    #[test]
    fn terminate_object_closes_everything() {
        let mut db = staff_db();
        db.tick_by(10);
        let i = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("salary", Value::Int(100))]),
            )
            .unwrap();
        db.tick_by(10); // 20
        db.terminate_object(i).unwrap();
        let o = db.object(i).unwrap();
        assert!(!o.lifespan.is_alive());
        db.tick_by(10); // 30
        // Not in any extent after death.
        assert!(db.pi(&ClassId::from("employee"), Instant(25)).unwrap().is_empty());
        assert_eq!(db.pi(&ClassId::from("employee"), Instant(20)).unwrap(), vec![i]);
        // Further operations rejected.
        assert!(matches!(
            db.set_attr(i, &AttrName::from("salary"), Value::Int(1)),
            Err(ModelError::ObjectDead(_))
        ));
        assert!(matches!(
            db.migrate(i, &ClassId::from("manager"), Attrs::new()),
            Err(ModelError::ObjectDead(_))
        ));
        assert!(matches!(
            db.terminate_object(i),
            Err(ModelError::ObjectDead(_))
        ));
        // History remains queryable.
        assert_eq!(
            db.attr_at(i, &AttrName::from("salary"), Instant(15)).unwrap(),
            Value::Int(100)
        );
    }

    #[test]
    fn clock_never_goes_backwards() {
        let mut db = Database::new();
        db.advance_to(Instant(10)).unwrap();
        assert!(matches!(
            db.advance_to(Instant(5)),
            Err(ModelError::ClockMovedBackwards { .. })
        ));
        assert_eq!(db.tick(), Instant(11));
    }

    #[test]
    fn object_type_references_check_extents() {
        let mut db = staff_db();
        db.define_class(
            ClassDef::new("team").attr("lead", Type::object("employee")),
        )
        .unwrap();
        let p = db
            .create_object(&ClassId::from("person"), attrs::<&str, _>([]))
            .unwrap();
        let e = db
            .create_object(&ClassId::from("employee"), attrs::<&str, _>([]))
            .unwrap();
        // A person oid is not a legal value for employee.
        assert!(matches!(
            db.create_object(&ClassId::from("team"), attrs([("lead", Value::Oid(p))])),
            Err(ModelError::TypeMismatch { .. })
        ));
        let t = db
            .create_object(&ClassId::from("team"), attrs([("lead", Value::Oid(e))]))
            .unwrap();
        assert_eq!(db.attr_now(t, &AttrName::from("lead")).unwrap(), Value::Oid(e));
        // A manager oid IS legal for employee (member, Section 3.2).
        db.tick();
        db.migrate(e, &ClassId::from("manager"), Attrs::new()).unwrap();
        db.set_attr(t, &AttrName::from("lead"), Value::Oid(e)).unwrap();
    }

    #[test]
    fn c_attr_round_trip() {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("project")
                .c_attr("average-participants", Type::INTEGER)
                .c_attr("headcount", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        let c = ClassId::from("project");
        db.set_c_attr(&c, &AttrName::from("average-participants"), Value::Int(20))
            .unwrap();
        assert_eq!(
            db.c_attr(&c, &AttrName::from("average-participants")).unwrap(),
            &Value::Int(20)
        );
        db.set_c_attr(&c, &AttrName::from("headcount"), Value::Int(5)).unwrap();
        db.tick_by(10);
        db.set_c_attr(&c, &AttrName::from("headcount"), Value::Int(8)).unwrap();
        let h = db
            .c_attr(&c, &AttrName::from("headcount"))
            .unwrap()
            .as_temporal()
            .unwrap();
        assert_eq!(h.value_at(Instant(0), db.now()), Some(&Value::Int(5)));
        assert_eq!(h.value_at(Instant(10), db.now()), Some(&Value::Int(8)));
        assert!(matches!(
            db.set_c_attr(&c, &AttrName::from("ghost"), Value::Int(1)),
            Err(ModelError::UnknownClassAttribute { .. })
        ));
        assert!(matches!(
            db.set_c_attr(&c, &AttrName::from("headcount"), Value::str("x")),
            Err(ModelError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn bulk_load_with_explicit_history() {
        let mut db = staff_db();
        db.advance_to(Instant(100)).unwrap();
        let h = TemporalValue::from_pairs([
            (tchimera_temporal::Interval::from_ticks(10, 50), Value::Int(90)),
            (tchimera_temporal::Interval::from_ticks(51, 100), Value::Int(110)),
        ])
        .unwrap();
        let i = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("salary", Value::Temporal(h))]),
            )
            .unwrap();
        assert_eq!(
            db.attr_at(i, &AttrName::from("salary"), Instant(20)).unwrap(),
            Value::Int(90)
        );
        assert_eq!(
            db.attr_at(i, &AttrName::from("salary"), Instant(60)).unwrap(),
            Value::Int(110)
        );
    }

    #[test]
    fn objects_sit_at_their_oid_and_replacement_needs_a_holder() {
        let mut db = staff_db();
        let person = ClassId::from("person");
        let oids: Vec<Oid> = (0..3)
            .map(|_| db.create_object(&person, Attrs::new()).unwrap())
            .collect();
        assert_eq!(oids, vec![Oid(0), Oid(1), Oid(2)]);
        assert!(db.objects().map(|o| o.oid).eq(oids.iter().copied()));
        assert!(matches!(db.object(Oid(3)), Err(ModelError::UnknownObject(Oid(3)))));
        assert!(matches!(db.object(Oid(u64::MAX)), Err(ModelError::UnknownObject(_))));
        // A replacement lands in place; an oid the table does not hold —
        // the next one included — is refused, and nothing changes.
        let mut moved = db.object(Oid(1)).unwrap().clone();
        moved.attrs.insert("address".into(), Value::str("Pisa"));
        db.replace_object_for_test(moved.clone()).unwrap();
        assert_eq!(db.object(Oid(1)).unwrap(), &moved);
        for oid in [Oid(3), Oid(7)] {
            let stray = Object { oid, ..moved.clone() };
            assert!(matches!(
                db.replace_object_for_test(stray),
                Err(ModelError::UnknownObject(o)) if o == oid
            ));
        }
        assert_eq!(db.object_count(), 3);
        assert_eq!(db.create_object(&person, Attrs::new()).unwrap(), Oid(3));
    }
}

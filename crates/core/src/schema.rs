//! The schema: classes, the ISA hierarchy and feature inheritance
//! (Sections 4 and 6).

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

use tchimera_temporal::{Instant, Lifespan, TemporalValue};

use crate::class::{Class, ClassDef, ClassKind};
use crate::error::{ModelError, Result};
use crate::extent_index::Membership;
use crate::ident::{AttrName, ClassId};
use crate::types::Type;
use crate::value::Value;

/// The intensional level of a T_Chimera database: the set of classes with
/// their ISA relationships.
///
/// The ISA hierarchy is a DAG without a common superclass of all classes
/// (Section 6.2); its connected components — each rooted at one or more
/// *root classes* — are tracked so that Invariant 6.2 (disjointness of the
/// object populations of different hierarchies) can be enforced on object
/// migration.
///
/// Deleted classes are kept as tombstones with a terminated lifespan, both
/// because their extent histories remain queryable and because a class can
/// never be recreated (class lifespans are contiguous, Section 4).
#[derive(Clone, Debug, Default)]
pub struct Schema {
    pub(crate) classes: BTreeMap<ClassId, Class>,
    pub(crate) next_hierarchy: u32,
    pub(crate) generation: u64,
}

/// Process-global source of schema generation stamps. Global (rather than
/// per-schema) so that two *different* schemas can never share a non-zero
/// stamp: a cached query plan keyed on `(query, generation)` stays valid
/// exactly as long as the schema it was planned against is unchanged.
static GENERATION: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_generation() -> u64 {
    GENERATION.fetch_add(1, Ordering::Relaxed)
}

impl Schema {
    /// An empty schema.
    #[must_use]
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Define a new class at instant `at` (Definition 4.1), validating:
    ///
    /// * the name is fresh (classes are never recreated);
    /// * all superclasses exist, are alive, and therefore have lifespans
    ///   that include the new class's (Invariant 6.1.1);
    /// * every type used is well formed (Definition 3.4) and references
    ///   only existing classes (or the class being defined — self-reference
    ///   is legal: `project` has a `subproject: temporal(project)`
    ///   attribute in paper Example 4.1);
    /// * attribute redefinitions satisfy Rule 6.1;
    /// * method overrides are covariant in the result and contravariant in
    ///   the inputs (Section 6.1).
    pub fn define(&mut self, def: ClassDef, at: Instant) -> Result<&Class> {
        let name = def.name.clone();
        if self.classes.contains_key(&name) {
            return Err(ModelError::DuplicateClass(name));
        }

        // Validate superclasses.
        for sup in &def.superclasses {
            let c = self
                .classes
                .get(sup)
                .ok_or_else(|| ModelError::UnknownClass(sup.clone()))?;
            if !c.lifespan.is_alive() {
                return Err(ModelError::DeadSuperclass(sup.clone()));
            }
        }

        // Validate types.
        for decl in def.attrs.iter().chain(def.c_attrs.iter()) {
            self.validate_type(&decl.ty, &name)?;
        }
        for (_, sig) in def.methods.iter().chain(def.c_methods.iter()) {
            for t in sig.inputs.iter().chain(std::iter::once(&sig.output)) {
                self.validate_type(t, &name)?;
            }
        }

        // Resolve inherited attributes (union over superclasses).
        let mut all_attrs: BTreeMap<AttrName, crate::class::AttrDecl> = BTreeMap::new();
        let mut all_methods: BTreeMap<crate::ident::MethodName, crate::class::MethodSig> =
            BTreeMap::new();
        for sup in &def.superclasses {
            let c = &self.classes[sup];
            for (n, d) in &c.all_attrs {
                match all_attrs.get(n) {
                    None => {
                        all_attrs.insert(n.clone(), d.clone());
                    }
                    Some(existing) if existing == d => {}
                    Some(existing) => {
                        // Conflicting inherited declarations: keep the more
                        // specific domain if comparable, otherwise require
                        // an explicit redefinition below.
                        if self.is_subtype(&d.ty, &existing.ty) {
                            all_attrs.insert(n.clone(), d.clone());
                        } else if self.is_subtype(&existing.ty, &d.ty) {
                            // keep existing
                        } else if !def.attrs.iter().any(|a| &a.name == n) {
                            return Err(ModelError::InvalidRefinement {
                                class: name.clone(),
                                attr: n.clone(),
                                inherited: existing.ty.clone(),
                                refined: d.ty.clone(),
                            });
                        }
                    }
                }
            }
            for (m, sig) in &c.all_methods {
                all_methods.entry(m.clone()).or_insert_with(|| sig.clone());
            }
        }

        // Apply own attributes, checking Rule 6.1 on redefinitions.
        let mut own_attrs = BTreeMap::new();
        for decl in &def.attrs {
            if let Some(inherited) = all_attrs.get(&decl.name) {
                if !self.refines(&decl.ty, &inherited.ty, &name) {
                    return Err(ModelError::InvalidRefinement {
                        class: name.clone(),
                        attr: decl.name.clone(),
                        inherited: inherited.ty.clone(),
                        refined: decl.ty.clone(),
                    });
                }
                // Immutability may be strengthened, never weakened.
                let immutable = decl.immutable || inherited.immutable;
                let mut d = decl.clone();
                d.immutable = immutable;
                all_attrs.insert(decl.name.clone(), d.clone());
                own_attrs.insert(decl.name.clone(), d);
            } else {
                all_attrs.insert(decl.name.clone(), decl.clone());
                own_attrs.insert(decl.name.clone(), decl.clone());
            }
        }

        // Apply own methods, checking co/contra-variance on overrides.
        let mut own_methods = BTreeMap::new();
        for (m, sig) in &def.methods {
            if let Some(inherited) = all_methods.get(m) {
                let ok = sig.inputs.len() == inherited.inputs.len()
                    && self.is_subtype(&sig.output, &inherited.output)
                    && sig
                        .inputs
                        .iter()
                        .zip(inherited.inputs.iter())
                        .all(|(new_in, old_in)| self.is_subtype(old_in, new_in));
                if !ok {
                    return Err(ModelError::InvalidOverride {
                        class: name.clone(),
                        method: m.clone(),
                    });
                }
            }
            all_methods.insert(m.clone(), sig.clone());
            own_methods.insert(m.clone(), sig.clone());
        }

        // C-attributes determine whether the class is historical.
        let kind = if def.c_attrs.iter().any(|d| d.ty.is_temporal()) {
            ClassKind::Historical
        } else {
            ClassKind::Static
        };
        let c_methods: BTreeMap<crate::ident::MethodName, crate::class::MethodSig> =
            def.c_methods.into_iter().collect();
        let mut c_attrs = BTreeMap::new();
        let mut c_attr_values = BTreeMap::new();
        for d in &def.c_attrs {
            let init = if d.ty.is_temporal() {
                Value::Temporal(TemporalValue::new())
            } else {
                Value::Null
            };
            c_attr_values.insert(d.name.clone(), init);
            c_attrs.insert(d.name.clone(), d.clone());
        }

        // Hierarchy component: fresh for root classes; superclasses' —
        // merged if the new class connects several components.
        let hierarchy = if def.superclasses.is_empty() {
            let h = self.next_hierarchy;
            self.next_hierarchy += 1;
            h
        } else {
            let ids: HashSet<u32> = def
                .superclasses
                .iter()
                .map(|s| self.classes[s].hierarchy)
                .collect();
            let target = *ids.iter().min().expect("nonempty supers");
            if ids.len() > 1 {
                for c in self.classes.values_mut() {
                    if ids.contains(&c.hierarchy) {
                        c.hierarchy = target;
                    }
                }
            }
            target
        };

        // Register as a subclass of each direct superclass.
        for sup in &def.superclasses {
            self.classes
                .get_mut(sup)
                .expect("validated")
                .subclasses
                .push(name.clone());
        }

        let class = Class {
            id: name.clone(),
            kind,
            lifespan: Lifespan::starting_at(at),
            own_attrs,
            all_attrs,
            own_methods,
            all_methods,
            c_attrs,
            c_attr_values,
            c_methods,
            superclasses: def.superclasses,
            subclasses: Vec::new(),
            metaclass: name.metaclass(),
            hierarchy,
            ext: Membership::default(),
            proper_ext: Membership::default(),
        };
        self.generation = next_generation();
        Ok(self.classes.entry(name).or_insert(class))
    }

    fn validate_type(&self, t: &Type, being_defined: &ClassId) -> Result<()> {
        if !t.is_well_formed() {
            return Err(ModelError::IllFormedType(t.clone()));
        }
        if t.depth() >= crate::MAX_NESTING {
            return Err(ModelError::TooDeep(t.clone()));
        }
        for c in t.referenced_classes() {
            if c != being_defined && !self.classes.contains_key(c) {
                return Err(ModelError::UnknownClass(c.clone()));
            }
        }
        Ok(())
    }

    /// Rule 6.1: `T'` legally refines `T` iff `T' ≤ T`, or
    /// `T' = temporal(T'')` with `T'' ≤ T` (a non-temporal attribute may be
    /// refined into a temporal one, never vice-versa).
    pub fn refines(&self, refined: &Type, inherited: &Type, _class: &ClassId) -> bool {
        if self.is_subtype(refined, inherited) {
            return true;
        }
        match (refined, inherited) {
            (Type::Temporal(inner), t) if !t.is_temporal() => self.is_subtype(inner, t),
            _ => false,
        }
    }

    /// Delete a class at instant `at`: terminates its lifespan. The class
    /// must be alive, have no alive subclasses and an empty current extent
    /// (objects must first be migrated or terminated).
    pub fn drop_class(&mut self, name: &ClassId, at: Instant) -> Result<()> {
        let class = self
            .classes
            .get(name)
            .ok_or_else(|| ModelError::UnknownClass(name.clone()))?;
        if !class.lifespan.is_alive() {
            return Err(ModelError::ClassDead(name.clone()));
        }
        for sub in &class.subclasses {
            if self.classes[sub].lifespan.is_alive() {
                return Err(ModelError::ClassDead(sub.clone()));
            }
        }
        if !class.ext_at(at, at).is_empty() {
            return Err(ModelError::ClassDead(name.clone()));
        }
        let class = self.classes.get_mut(name).expect("present");
        class.lifespan = class
            .lifespan
            .terminated_at(at)
            .ok_or(ModelError::NotInLifespan { at })?;
        self.generation = next_generation();
        Ok(())
    }

    /// The schema's mutation stamp: assigned a process-globally fresh
    /// value on every class definition, class drop, or state import.
    /// Plan caches compare stamps to decide whether a cached plan is
    /// still valid (only an unchanged schema repeats a stamp).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Class lookup.
    pub fn class(&self, name: &ClassId) -> Result<&Class> {
        self.classes
            .get(name)
            .ok_or_else(|| ModelError::UnknownClass(name.clone()))
    }

    /// Mutable class lookup (crate-internal: the database maintains
    /// extents and c-attribute values).
    pub(crate) fn class_mut(&mut self, name: &ClassId) -> Result<&mut Class> {
        self.classes
            .get_mut(name)
            .ok_or_else(|| ModelError::UnknownClass(name.clone()))
    }

    /// `true` if the class is defined (alive or tombstoned).
    pub fn contains(&self, name: &ClassId) -> bool {
        self.classes.contains_key(name)
    }

    /// Iterate all classes (including tombstones).
    pub fn classes(&self) -> impl Iterator<Item = &Class> {
        self.classes.values()
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` if no classes are defined.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The reflexive-transitive ISA test `sub ≤_ISA sup`.
    pub fn is_subclass(&self, sub: &ClassId, sup: &ClassId) -> bool {
        if sub == sup {
            return self.classes.contains_key(sub);
        }
        let Some(start) = self.classes.get(sub) else {
            return false;
        };
        let mut stack: Vec<&ClassId> = start.superclasses.iter().collect();
        let mut seen: HashSet<&ClassId> = HashSet::new();
        while let Some(c) = stack.pop() {
            if c == sup {
                return true;
            }
            if seen.insert(c) {
                if let Some(cl) = self.classes.get(c) {
                    stack.extend(cl.superclasses.iter());
                }
            }
        }
        false
    }

    /// All strict superclasses of `c`, transitively (deduplicated, in BFS
    /// order).
    pub fn superclasses_of(&self, c: &ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let Some(start) = self.classes.get(c) else {
            return out;
        };
        let mut queue: std::collections::VecDeque<&ClassId> =
            start.superclasses.iter().collect();
        while let Some(s) = queue.pop_front() {
            if seen.insert(s.clone()) {
                out.push(s.clone());
                if let Some(cl) = self.classes.get(s) {
                    queue.extend(cl.superclasses.iter());
                }
            }
        }
        out
    }

    /// All strict subclasses of `c`, transitively.
    pub fn subclasses_of(&self, c: &ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let Some(start) = self.classes.get(c) else {
            return out;
        };
        let mut queue: std::collections::VecDeque<&ClassId> =
            start.subclasses.iter().collect();
        while let Some(s) = queue.pop_front() {
            if seen.insert(s.clone()) {
                out.push(s.clone());
                if let Some(cl) = self.classes.get(s) {
                    queue.extend(cl.subclasses.iter());
                }
            }
        }
        out
    }

    /// The root classes (classes without superclasses, Section 6.2).
    pub fn roots(&self) -> Vec<ClassId> {
        self.classes
            .values()
            .filter(|c| c.superclasses.is_empty())
            .map(|c| c.id.clone())
            .collect()
    }

    /// `true` if the two classes belong to the same ISA connected
    /// component (hierarchy). Objects can never migrate across hierarchies
    /// (Invariant 6.2).
    pub fn same_hierarchy(&self, a: &ClassId, b: &ClassId) -> bool {
        match (self.classes.get(a), self.classes.get(b)) {
            (Some(x), Some(y)) => x.hierarchy == y.hierarchy,
            _ => false,
        }
    }

    /// The least upper bound of two object types in the `≤_ISA` order:
    /// the unique minimal common superclass, if it exists.
    pub fn lub_class(&self, a: &ClassId, b: &ClassId) -> Option<ClassId> {
        if self.is_subclass(a, b) {
            return Some(b.clone());
        }
        if self.is_subclass(b, a) {
            return Some(a.clone());
        }
        // Common superclasses of both.
        let supa: HashSet<ClassId> = self.superclasses_of(a).into_iter().collect();
        let common: Vec<ClassId> = self
            .superclasses_of(b)
            .into_iter()
            .filter(|c| supa.contains(c))
            .collect();
        // Minimal elements of `common` w.r.t. ≤_ISA.
        let minimal: Vec<&ClassId> = common
            .iter()
            .filter(|c| {
                !common
                    .iter()
                    .any(|d| d != *c && self.is_subclass(d, c))
            })
            .collect();
        match minimal.as_slice() {
            [one] => Some((*one).clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::MethodSig;

    fn t0() -> Instant {
        Instant(0)
    }

    fn base_schema() -> Schema {
        let mut s = Schema::new();
        s.define(
            ClassDef::new("person")
                .attr("name", Type::temporal(Type::STRING))
                .attr("address", Type::STRING),
            t0(),
        )
        .unwrap();
        s.define(
            ClassDef::new("employee")
                .isa("person")
                .attr("salary", Type::temporal(Type::INTEGER)),
            t0(),
        )
        .unwrap();
        s.define(
            ClassDef::new("manager")
                .isa("employee")
                .attr("officialcar", Type::STRING)
                .attr("dependents", Type::set_of(Type::object("person"))),
            t0(),
        )
        .unwrap();
        s
    }

    #[test]
    fn inheritance_accumulates_attributes() {
        let s = base_schema();
        let m = s.class(&ClassId::from("manager")).unwrap();
        assert!(m.has_attr(&AttrName::from("name")));
        assert!(m.has_attr(&AttrName::from("salary")));
        assert!(m.has_attr(&AttrName::from("officialcar")));
        assert_eq!(m.all_attrs.len(), 5);
        assert_eq!(m.own_attrs.len(), 2);
    }

    #[test]
    fn isa_queries() {
        let s = base_schema();
        let (p, e, m) = (
            ClassId::from("person"),
            ClassId::from("employee"),
            ClassId::from("manager"),
        );
        assert!(s.is_subclass(&m, &p));
        assert!(s.is_subclass(&m, &m));
        assert!(!s.is_subclass(&p, &m));
        assert_eq!(s.superclasses_of(&m), vec![e.clone(), p.clone()]);
        assert_eq!(s.subclasses_of(&p), vec![e.clone(), m.clone()]);
        assert_eq!(s.roots(), vec![p.clone()]);
        assert!(s.same_hierarchy(&m, &p));
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut s = base_schema();
        assert_eq!(
            s.define(ClassDef::new("person"), t0()).unwrap_err(),
            ModelError::DuplicateClass(ClassId::from("person"))
        );
    }

    #[test]
    fn unknown_superclass_rejected() {
        let mut s = Schema::new();
        assert!(matches!(
            s.define(ClassDef::new("a").isa("ghost"), t0()),
            Err(ModelError::UnknownClass(_))
        ));
    }

    #[test]
    fn self_referencing_class_allowed() {
        // Paper Example 4.1: project has subproject: temporal(project).
        let mut s = Schema::new();
        s.define(
            ClassDef::new("project").attr("subproject", Type::temporal(Type::object("project"))),
            t0(),
        )
        .unwrap();
    }

    #[test]
    fn unknown_referenced_class_rejected() {
        let mut s = Schema::new();
        assert!(matches!(
            s.define(
                ClassDef::new("a").attr("x", Type::object("ghost")),
                t0()
            ),
            Err(ModelError::UnknownClass(_))
        ));
    }

    #[test]
    fn ill_formed_type_rejected() {
        let mut s = Schema::new();
        assert!(matches!(
            s.define(
                ClassDef::new("a").attr("x", Type::temporal(Type::temporal(Type::INTEGER))),
                t0()
            ),
            Err(ModelError::IllFormedType(_))
        ));
    }

    #[test]
    fn rule_6_1_refinement() {
        let mut s = base_schema();
        // Legal: static string -> temporal(string) (Rule 6.1 case 2).
        s.define(
            ClassDef::new("tracked-employee")
                .isa("employee")
                .attr("address", Type::temporal(Type::STRING)),
            t0(),
        )
        .unwrap();
        // Legal: refine to a subclass domain.
        s.define(
            ClassDef::new("team").attr("lead", Type::object("person")),
            t0(),
        )
        .unwrap();
        s.define(
            ClassDef::new("mgmt-team")
                .isa("team")
                .attr("lead", Type::object("manager")),
            t0(),
        )
        .unwrap();
        // Illegal: temporal -> static.
        let err = s
            .define(
                ClassDef::new("bad")
                    .isa("employee")
                    .attr("salary", Type::INTEGER),
                t0(),
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidRefinement { .. }));
        // Illegal: unrelated type.
        let err = s
            .define(
                ClassDef::new("bad2")
                    .isa("employee")
                    .attr("address", Type::INTEGER),
                t0(),
            )
            .unwrap_err();
        assert!(matches!(err, ModelError::InvalidRefinement { .. }));
    }

    #[test]
    fn method_override_variance() {
        let mut s = base_schema();
        s.define(
            ClassDef::new("c1").method("get", [Type::object("manager")], Type::object("person")),
            t0(),
        )
        .unwrap();
        // Legal override: output specialized, input generalized.
        s.define(
            ClassDef::new("c2")
                .isa("c1")
                .method("get", [Type::object("employee")], Type::object("employee")),
            t0(),
        )
        .unwrap();
        // Illegal override: input specialized.
        let err = s
            .define(
                ClassDef::new("c3").isa("c1").method(
                    "get",
                    [Type::object("manager")],
                    Type::object("person"),
                ),
                t0(),
            )
            .map(|_| ());
        // input manager -> manager is the same type: legal (T ≤ T).
        assert!(err.is_ok());
        let err = s
            .define(
                ClassDef::new("c4").isa("c2").method(
                    "get",
                    [Type::object("manager")],
                    Type::object("person"),
                ),
                t0(),
            )
            .unwrap_err();
        // c2::get has input employee; narrowing to manager violates
        // contravariance; output person generalizes employee: violates
        // covariance too.
        assert!(matches!(err, ModelError::InvalidOverride { .. }));
        let _ = MethodSig::new([Type::INTEGER], Type::REAL);
    }

    #[test]
    fn historical_vs_static_class() {
        let mut s = Schema::new();
        s.define(
            ClassDef::new("static-class").c_attr("avg", Type::INTEGER),
            t0(),
        )
        .unwrap();
        s.define(
            ClassDef::new("hist-class").c_attr("avg", Type::temporal(Type::INTEGER)),
            t0(),
        )
        .unwrap();
        assert_eq!(
            s.class(&ClassId::from("static-class")).unwrap().kind,
            ClassKind::Static
        );
        assert_eq!(
            s.class(&ClassId::from("hist-class")).unwrap().kind,
            ClassKind::Historical
        );
    }

    #[test]
    fn hierarchy_components() {
        let mut s = base_schema();
        s.define(ClassDef::new("vehicle"), t0()).unwrap();
        s.define(ClassDef::new("car").isa("vehicle"), t0()).unwrap();
        let (p, v, c) = (
            ClassId::from("person"),
            ClassId::from("vehicle"),
            ClassId::from("car"),
        );
        assert!(!s.same_hierarchy(&p, &v));
        assert!(s.same_hierarchy(&v, &c));
        assert_eq!(s.roots().len(), 2);
    }

    #[test]
    fn merging_components_via_multiple_inheritance() {
        let mut s = Schema::new();
        s.define(ClassDef::new("a"), t0()).unwrap();
        s.define(ClassDef::new("b"), t0()).unwrap();
        assert!(!s.same_hierarchy(&ClassId::from("a"), &ClassId::from("b")));
        s.define(ClassDef::new("ab").isa("a").isa("b"), t0()).unwrap();
        assert!(s.same_hierarchy(&ClassId::from("a"), &ClassId::from("b")));
    }

    #[test]
    fn lub_class_resolution() {
        let s = base_schema();
        let (p, e, m) = (
            ClassId::from("person"),
            ClassId::from("employee"),
            ClassId::from("manager"),
        );
        assert_eq!(s.lub_class(&m, &e), Some(e.clone()));
        assert_eq!(s.lub_class(&e, &m), Some(e.clone()));
        assert_eq!(s.lub_class(&m, &m), Some(m.clone()));
        // Two siblings under person.
        let mut s = base_schema();
        s.define(ClassDef::new("student").isa("person"), t0())
            .unwrap();
        assert_eq!(
            s.lub_class(&ClassId::from("student"), &ClassId::from("employee")),
            Some(p.clone())
        );
        // Disjoint hierarchies: no lub.
        s.define(ClassDef::new("vehicle"), t0()).unwrap();
        assert_eq!(s.lub_class(&p, &ClassId::from("vehicle")), None);
    }

    #[test]
    fn drop_class_rules() {
        let mut s = base_schema();
        // Cannot drop a class with alive subclasses.
        assert!(s.drop_class(&ClassId::from("person"), Instant(5)).is_err());
        // Dropping leaves first works.
        s.drop_class(&ClassId::from("manager"), Instant(5)).unwrap();
        s.drop_class(&ClassId::from("employee"), Instant(5)).unwrap();
        s.drop_class(&ClassId::from("person"), Instant(5)).unwrap();
        // Dropping twice fails.
        assert_eq!(
            s.drop_class(&ClassId::from("person"), Instant(6)).unwrap_err(),
            ModelError::ClassDead(ClassId::from("person"))
        );
        // Recreating a dropped class is forbidden.
        assert!(matches!(
            s.define(ClassDef::new("person"), Instant(7)),
            Err(ModelError::DuplicateClass(_))
        ));
    }

    #[test]
    fn drop_class_refuses_nonempty_extent() {
        use crate::database::{Attrs, Database};
        let mut db = Database::new();
        db.define_class(ClassDef::new("solo")).unwrap();
        let i = db
            .create_object(&ClassId::from("solo"), Attrs::new())
            .unwrap();
        db.tick();
        // Live member: refuse.
        assert!(db.drop_class(&ClassId::from("solo")).is_err());
        // After terminating the member and letting time pass, the current
        // extent is empty and the class can go.
        db.terminate_object(i).unwrap();
        db.tick();
        db.drop_class(&ClassId::from("solo")).unwrap();
        // Historical queries still work against the tombstone.
        assert_eq!(db.pi(&ClassId::from("solo"), Instant(0)).unwrap(), vec![i]);
        // But new objects cannot be created in it.
        assert!(matches!(
            db.create_object(&ClassId::from("solo"), Attrs::new()),
            Err(ModelError::ClassDead(_))
        ));
    }

    #[test]
    fn metaclass_assigned() {
        let s = base_schema();
        assert_eq!(
            s.class(&ClassId::from("person")).unwrap().metaclass,
            ClassId::from("m-person")
        );
    }

    #[test]
    fn structural_historical_static_types_example_4_2() {
        // Paper Example 4.1/4.2 class project.
        let mut s = Schema::new();
        s.define(ClassDef::new("task"), t0()).unwrap();
        s.define(ClassDef::new("person"), t0()).unwrap();
        s.define(
            ClassDef::new("project")
                .immutable_attr("name", Type::temporal(Type::STRING))
                .attr("objective", Type::STRING)
                .attr("workplan", Type::set_of(Type::object("task")))
                .attr("subproject", Type::temporal(Type::object("project")))
                .attr(
                    "participants",
                    Type::temporal(Type::set_of(Type::object("person"))),
                )
                .method("add-participant", [Type::object("person")], Type::object("project"))
                .c_attr("average-participants", Type::INTEGER),
            Instant(10),
        )
        .unwrap();
        let c = s.class(&ClassId::from("project")).unwrap();
        assert_eq!(c.kind, ClassKind::Static);
        // h_type(project) = record-of(name:string, subproject:project,
        //                             participants:set-of(person))
        assert_eq!(
            c.historical_type().unwrap(),
            Type::record_of([
                ("name", Type::STRING),
                ("subproject", Type::object("project")),
                ("participants", Type::set_of(Type::object("person"))),
            ])
        );
        // s_type(project) = record-of(objective:string, workplan:set-of(task))
        assert_eq!(
            c.static_type().unwrap(),
            Type::record_of([
                ("objective", Type::STRING),
                ("workplan", Type::set_of(Type::object("task"))),
            ])
        );
        // structural type has all five attributes.
        match c.structural_type() {
            Type::Record(fs) => assert_eq!(fs.len(), 5),
            _ => unreachable!(),
        }
    }

    #[test]
    fn h_type_and_s_type_null_cases() {
        let mut s = Schema::new();
        s.define(ClassDef::new("allstatic").attr("x", Type::INTEGER), t0())
            .unwrap();
        s.define(
            ClassDef::new("alltemporal").attr("x", Type::temporal(Type::INTEGER)),
            t0(),
        )
        .unwrap();
        assert!(s
            .class(&ClassId::from("allstatic"))
            .unwrap()
            .historical_type()
            .is_none());
        assert!(s
            .class(&ClassId::from("allstatic"))
            .unwrap()
            .static_type()
            .is_some());
        assert!(s
            .class(&ClassId::from("alltemporal"))
            .unwrap()
            .static_type()
            .is_none());
    }

    #[test]
    fn a_declared_type_nests_below_the_bound() {
        let nest = |d: usize| (1..d).fold(Type::INTEGER, |t, _| Type::set_of(t));
        let mut s = Schema::new();
        assert_eq!(nest(crate::MAX_NESTING).depth(), crate::MAX_NESTING);
        assert!(matches!(
            s.define(ClassDef::new("deep").attr("v", nest(crate::MAX_NESTING)), t0()),
            Err(ModelError::TooDeep(_))
        ));
        assert!(s
            .define(ClassDef::new("deep").attr("v", nest(crate::MAX_NESTING - 1)), t0())
            .is_ok());
    }
}

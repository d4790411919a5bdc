//! Classes (Definition 4.1) and their associated types (Section 4).

use std::collections::{BTreeMap, HashMap};

use tchimera_temporal::{Instant, IntervalSet, Lifespan, TemporalValue};

use crate::extent_index::Membership;
use crate::ident::{AttrName, ClassId, MethodName, Oid};
use crate::types::Type;
use crate::value::Value;

/// The declaration of an attribute: its name, its domain, and whether it is
/// *immutable*.
///
/// The paper distinguishes three kinds of attributes (Section 1.1):
/// *temporal* (domain is a temporal type; every change is recorded),
/// *non-temporal/static* (value can change, past values are not kept) and
/// *immutable* (value cannot change during the object lifetime). Immutable
/// attributes are "a particular case of temporal ones, since their value is
/// a constant function from a temporal domain" — here immutability is a
/// declaration flag enforced on update, applicable to both temporal and
/// static domains.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AttrDecl {
    /// The attribute name.
    pub name: AttrName,
    /// The attribute domain (`a_type ∈ T`).
    pub ty: Type,
    /// Whether updates after initialization are forbidden.
    pub immutable: bool,
}

impl AttrDecl {
    /// A mutable attribute declaration.
    pub fn new(name: impl Into<AttrName>, ty: Type) -> AttrDecl {
        AttrDecl {
            name: name.into(),
            ty,
            immutable: false,
        }
    }

    /// An immutable attribute declaration.
    pub fn immutable(name: impl Into<AttrName>, ty: Type) -> AttrDecl {
        AttrDecl {
            name: name.into(),
            ty,
            immutable: true,
        }
    }

    /// The *kind* of the attribute in the paper's taxonomy.
    pub fn kind(&self) -> AttrKind {
        match (self.ty.is_temporal(), self.immutable) {
            (true, false) => AttrKind::Temporal,
            (true, true) => AttrKind::Immutable,
            (false, true) => AttrKind::Immutable,
            (false, false) => AttrKind::Static,
        }
    }
}

/// The paper's attribute taxonomy (Section 1.1 and Table 2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AttrKind {
    /// History of changes is recorded.
    Temporal,
    /// Value may change; past values are not kept.
    Static,
    /// Value cannot change during the object lifetime.
    Immutable,
}

/// A method signature `T1 × … × Tn → T` (Definition 4.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MethodSig {
    /// Input parameter types.
    pub inputs: Vec<Type>,
    /// Output parameter type.
    pub output: Type,
}

impl MethodSig {
    /// Build a signature.
    pub fn new<I: IntoIterator<Item = Type>>(inputs: I, output: Type) -> MethodSig {
        MethodSig {
            inputs: inputs.into_iter().collect(),
            output,
        }
    }
}

/// A user-facing class definition, consumed by
/// [`Database::define_class`](crate::Database::define_class).
#[derive(Clone, Debug)]
pub struct ClassDef {
    /// The class identifier.
    pub name: ClassId,
    /// Direct superclasses (the ISA relationship is user-supplied,
    /// Section 6).
    pub superclasses: Vec<ClassId>,
    /// Own attributes, possibly refining inherited ones under Rule 6.1.
    pub attrs: Vec<AttrDecl>,
    /// Own methods, possibly overriding inherited ones under the
    /// covariance/contravariance rules (Section 6.1).
    pub methods: Vec<(MethodName, MethodSig)>,
    /// Class-level attributes (c-attributes, Section 2); a class is
    /// *historical* iff at least one c-attribute has a temporal domain
    /// (Definition 4.1).
    pub c_attrs: Vec<AttrDecl>,
    /// Class-level operations (c-operations, Section 2) — signatures of
    /// operations acting on the class itself, e.g. recomputing the
    /// average age of employees.
    pub c_methods: Vec<(MethodName, MethodSig)>,
}

impl ClassDef {
    /// Start building a class definition.
    pub fn new(name: impl Into<ClassId>) -> ClassDef {
        ClassDef {
            name: name.into(),
            superclasses: Vec::new(),
            attrs: Vec::new(),
            methods: Vec::new(),
            c_attrs: Vec::new(),
            c_methods: Vec::new(),
        }
    }

    /// Add a direct superclass.
    #[must_use]
    pub fn isa(mut self, c: impl Into<ClassId>) -> ClassDef {
        self.superclasses.push(c.into());
        self
    }

    /// Add a mutable attribute.
    #[must_use]
    pub fn attr(mut self, name: impl Into<AttrName>, ty: Type) -> ClassDef {
        self.attrs.push(AttrDecl::new(name, ty));
        self
    }

    /// Add an immutable attribute.
    #[must_use]
    pub fn immutable_attr(mut self, name: impl Into<AttrName>, ty: Type) -> ClassDef {
        self.attrs.push(AttrDecl::immutable(name, ty));
        self
    }

    /// Add a method.
    #[must_use]
    pub fn method(
        mut self,
        name: impl Into<MethodName>,
        inputs: impl IntoIterator<Item = Type>,
        output: Type,
    ) -> ClassDef {
        self.methods.push((name.into(), MethodSig::new(inputs, output)));
        self
    }

    /// Add a c-attribute.
    #[must_use]
    pub fn c_attr(mut self, name: impl Into<AttrName>, ty: Type) -> ClassDef {
        self.c_attrs.push(AttrDecl::new(name, ty));
        self
    }

    /// Add a c-operation (a class-level method signature).
    #[must_use]
    pub fn c_method(
        mut self,
        name: impl Into<MethodName>,
        inputs: impl IntoIterator<Item = Type>,
        output: Type,
    ) -> ClassDef {
        self.c_methods
            .push((name.into(), MethodSig::new(inputs, output)));
        self
    }
}

/// Whether a class is *static* or *historical* (Definition 4.1): a class is
/// historical iff it has at least one temporal c-attribute. (Instances of a
/// static class may still be historical objects — paper Example 4.1.)
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClassKind {
    /// All c-attributes are static.
    Static,
    /// At least one c-attribute has a temporal domain.
    Historical,
}

/// A class: the 7-tuple `(c, type, lifespan, attr, meth, history, mc)` of
/// Definition 4.1, plus derived information (resolved inherited features and
/// the membership indexes that realize the `ext`/`proper-ext` temporal
/// attributes of the class history).
///
/// The paper represents `ext` and `proper-ext` as temporal values holding
/// the *set* of member oids at each instant. Storing the evolving set
/// directly would copy it on every change, so the implementation indexes
/// membership *per oid*: for each oid ever a member, a boolean history (a
/// `TemporalValue<()>` whose domain is the membership period). The two
/// views are interconvertible — [`Class::ext_at`] reconstructs the paper's
/// set-at-instant view, and Invariant 5.2 ties the index to the objects'
/// class histories.
#[derive(Clone, Debug)]
pub struct Class {
    /// The class identifier `c ∈ CI`.
    pub id: ClassId,
    /// Static or historical (Definition 4.1).
    pub kind: ClassKind,
    /// The class lifespan (contiguous, Section 4).
    pub lifespan: Lifespan,
    /// Attributes declared by this class itself.
    pub own_attrs: BTreeMap<AttrName, AttrDecl>,
    /// All attributes of instances, inherited ones included; a subclass
    /// redefinition (Rule 6.1) replaces the inherited declaration.
    pub all_attrs: BTreeMap<AttrName, AttrDecl>,
    /// Methods declared by this class itself.
    pub own_methods: BTreeMap<MethodName, MethodSig>,
    /// All methods, inherited ones included.
    pub all_methods: BTreeMap<MethodName, MethodSig>,
    /// C-attribute declarations.
    pub c_attrs: BTreeMap<AttrName, AttrDecl>,
    /// C-operation signatures (class-level operations, Section 2).
    pub c_methods: BTreeMap<MethodName, MethodSig>,
    /// Current values of the c-attributes (part of the class history
    /// record of Definition 4.1; temporal c-attributes hold
    /// `Value::Temporal` histories).
    pub c_attr_values: BTreeMap<AttrName, Value>,
    /// Direct superclasses.
    pub superclasses: Vec<ClassId>,
    /// Direct subclasses (maintained by the schema).
    pub subclasses: Vec<ClassId>,
    /// The metaclass identifier (`mc` of Definition 4.1).
    pub metaclass: ClassId,
    /// ISA connected-component id; Invariant 6.2 keeps components' object
    /// populations disjoint.
    pub hierarchy: u32,
    /// Membership store (the `ext` temporal attribute): per-oid histories
    /// plus the time-sorted extent index.
    pub(crate) ext: Membership,
    /// Instance-of (most specific class) store (`proper-ext`).
    pub(crate) proper_ext: Membership,
}

impl Class {
    /// The **structural type** of the class (Section 4): the record of all
    /// instance attributes, `record-of(a1:T1, …, an:Tn)`.
    #[must_use]
    pub fn structural_type(&self) -> Type {
        Type::Record(
            self.all_attrs
                .iter()
                .map(|(n, d)| (n.clone(), d.ty.clone()))
                .collect(),
        )
    }

    /// The **historical type** of the class (Section 4): the record of the
    /// *temporal* attributes with their domains stripped by `T⁻`. `None`
    /// when the class has no temporal attributes (the paper's `h_type`
    /// returns null in that case).
    #[must_use]
    pub fn historical_type(&self) -> Option<Type> {
        let fields: Vec<(AttrName, Type)> = self
            .all_attrs
            .iter()
            .filter_map(|(n, d)| {
                d.ty.strip_temporal().map(|t| (n.clone(), t.clone()))
            })
            .collect();
        (!fields.is_empty()).then_some(Type::Record(fields))
    }

    /// The **static type** of the class (Section 4): the record of the
    /// non-temporal attributes. `None` when the class only has temporal
    /// attributes.
    #[must_use]
    pub fn static_type(&self) -> Option<Type> {
        let fields: Vec<(AttrName, Type)> = self
            .all_attrs
            .iter()
            .filter(|(_, d)| !d.ty.is_temporal())
            .map(|(n, d)| (n.clone(), d.ty.clone()))
            .collect();
        (!fields.is_empty()).then_some(Type::Record(fields))
    }

    /// The extent of the class at instant `t`: the oids of objects members
    /// (instances of the class or of any subclass) at `t`. This is the
    /// paper's `C.history.ext(t)` and the basis of the function `π`
    /// (Section 3.2). Answered from the time-sorted extent index in
    /// `O(log events + replay)` instead of scanning every membership
    /// history; [`Class::ext_at_scan`] is the linear reference.
    #[must_use]
    pub fn ext_at(&self, t: Instant, now: Instant) -> Vec<Oid> {
        self.ext.members_at(t, now)
    }

    /// Reference implementation of [`Class::ext_at`]: a linear scan over
    /// every per-oid membership history. Kept public as the equivalence
    /// baseline for property tests and benchmarks.
    #[must_use]
    pub fn ext_at_scan(&self, t: Instant, now: Instant) -> Vec<Oid> {
        self.ext.members_at_scan(t, now)
    }

    /// The proper extent at instant `t`: oids of objects *instances* of the
    /// class (most specific class) at `t` — `C.history.proper-ext(t)`.
    /// Indexed like [`Class::ext_at`].
    #[must_use]
    pub fn proper_ext_at(&self, t: Instant, now: Instant) -> Vec<Oid> {
        self.proper_ext.members_at(t, now)
    }

    /// Reference implementation of [`Class::proper_ext_at`] (linear scan).
    #[must_use]
    pub fn proper_ext_at_scan(&self, t: Instant, now: Instant) -> Vec<Oid> {
        self.proper_ext.members_at_scan(t, now)
    }

    /// The oids members of the class at *some* instant of `[lo, hi]`
    /// (the query language's `DURING` window), answered from the extent
    /// index without scanning every membership history.
    #[must_use]
    pub fn ext_during(&self, lo: Instant, hi: Instant, now: Instant) -> Vec<Oid> {
        self.ext.members_during(lo, hi, now)
    }

    /// `ext_at(t, now).len()` from the extent index's counts — the set
    /// is never built (`EXPLAIN` cardinalities, empty-extent checks).
    #[must_use]
    pub fn ext_count_at(&self, t: Instant, now: Instant) -> usize {
        self.ext.count_at(t, now)
    }

    /// `ext_during(lo, hi, now).len()` without building the set.
    #[must_use]
    pub fn ext_count_during(&self, lo: Instant, hi: Instant, now: Instant) -> usize {
        self.ext.count_during(lo, hi, now)
    }

    /// `i ∈ ext_at(t, now)`, read from `i`'s own membership history —
    /// the cost does not depend on the extent's size.
    #[must_use]
    pub fn is_member_at(&self, i: Oid, t: Instant, now: Instant) -> bool {
        self.ext.is_member_at(i, t, now)
    }

    /// `i ∈ ext_during(lo, hi, now)`, read from `i`'s own history.
    #[must_use]
    pub fn is_member_during(&self, i: Oid, lo: Instant, hi: Instant, now: Instant) -> bool {
        self.ext.is_member_during(i, lo, hi, now)
    }

    /// Reference implementation of [`Class::ext_during`] (linear scan).
    #[must_use]
    pub fn ext_during_scan(&self, lo: Instant, hi: Instant, now: Instant) -> Vec<Oid> {
        self.ext.members_during_scan(lo, hi, now)
    }

    /// The membership period of `i` in this class — the function
    /// `c_lifespan(i, c)` of Section 5.1 (called `m_lifespan` in Table 3).
    /// May be non-contiguous: an employee can be fired and rehired.
    #[must_use]
    pub fn membership_of(&self, i: Oid, now: Instant) -> IntervalSet {
        self.ext
            .history_of(i)
            .map(|h| h.domain(now))
            .unwrap_or_default()
    }

    /// The instance-of period of `i` in this class.
    #[must_use]
    pub fn proper_membership_of(&self, i: Oid, now: Instant) -> IntervalSet {
        self.proper_ext
            .history_of(i)
            .map(|h| h.domain(now))
            .unwrap_or_default()
    }

    /// All oids that have ever been members.
    pub fn ever_members(&self) -> impl Iterator<Item = Oid> + '_ {
        self.ext.oids()
    }

    /// The class **history** record of Definition 4.1, resolved under the
    /// given clock: `(a1: v1, …, an: vn, ext: E, proper-ext: PE)` where
    /// the `ai` are the c-attributes and `E`/`PE` are temporal values
    /// holding the member/instance oid *sets* over time.
    ///
    /// This record is the state of the class seen as the unique instance
    /// of its metaclass (paper Example 4.1 shows it for `project`). The
    /// set-valued histories are reconstructed from the per-oid membership
    /// index; runs are resolved (fixed) at `now`.
    #[must_use]
    pub fn history_record(&self, now: Instant) -> Value {
        let mut fields: Vec<(AttrName, Value)> = self
            .c_attr_values
            .iter()
            .map(|(n, v)| (n.clone(), v.clone()))
            .collect();
        fields.push((
            AttrName::from("ext"),
            membership_history(self.ext.histories(), now),
        ));
        fields.push((
            AttrName::from("proper-ext"),
            membership_history(self.proper_ext.histories(), now),
        ));
        Value::record(fields)
    }

    /// Attribute declaration lookup over all (own + inherited) attributes.
    pub fn attr(&self, name: &AttrName) -> Option<&AttrDecl> {
        self.all_attrs.get(name)
    }

    /// `true` if the class declares (or inherits) the attribute.
    pub fn has_attr(&self, name: &AttrName) -> bool {
        self.all_attrs.contains_key(name)
    }
}

/// Merge per-oid membership histories into the paper's set-valued
/// temporal value: the set of member oids at each instant, as maximal
/// coalesced runs (fixed endpoints, resolved at `now`).
fn membership_history(index: &HashMap<Oid, TemporalValue<()>>, now: Instant) -> Value {
    // Event points: every run boundary of every member.
    let mut points: Vec<Instant> = Vec::new();
    for h in index.values() {
        for e in h.entries() {
            points.push(e.start);
            let end = e.interval(now);
            if let Some(hi) = end.hi() {
                points.push(hi.next());
            }
        }
    }
    points.sort();
    points.dedup();
    let mut out: TemporalValue<Value> = TemporalValue::new();
    for (k, &start) in points.iter().enumerate() {
        if start > now {
            continue;
        }
        let end = points
            .get(k + 1)
            .and_then(|n| n.prev())
            .unwrap_or(now)
            .min(now);
        if end < start {
            continue;
        }
        let mut members: Vec<Value> = index
            .iter()
            .filter(|(_, h)| h.is_defined_at(start, now))
            .map(|(&i, _)| Value::Oid(i))
            .collect();
        members.sort();
        if members.is_empty() {
            continue;
        }
        out.overwrite(
            tchimera_temporal::Interval::new(start, end),
            Value::Set(members),
        )
        .expect("non-empty run");
    }
    Value::Temporal(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_kinds() {
        let t = AttrDecl::new("a", Type::temporal(Type::INTEGER));
        assert_eq!(t.kind(), AttrKind::Temporal);
        let s = AttrDecl::new("b", Type::INTEGER);
        assert_eq!(s.kind(), AttrKind::Static);
        let i = AttrDecl::immutable("c", Type::temporal(Type::STRING));
        assert_eq!(i.kind(), AttrKind::Immutable);
        let i2 = AttrDecl::immutable("d", Type::STRING);
        assert_eq!(i2.kind(), AttrKind::Immutable);
    }

    #[test]
    fn history_record_matches_definition_4_1() {
        use crate::database::{attrs, Attrs, Database};
        let mut db = Database::new();
        db.define_class(
            crate::class::ClassDef::new("project").c_attr("average-participants", Type::INTEGER),
        )
        .unwrap();
        db.define_class(crate::class::ClassDef::new("subproject").isa("project"))
            .unwrap();
        db.advance_to(Instant(10)).unwrap();
        let i1 = db
            .create_object(&ClassId::from("project"), Attrs::new())
            .unwrap();
        db.advance_to(Instant(51)).unwrap();
        let i2 = db
            .create_object(&ClassId::from("subproject"), Attrs::new())
            .unwrap();
        db.set_c_attr(
            &ClassId::from("project"),
            &AttrName::from("average-participants"),
            Value::Int(20),
        )
        .unwrap();
        db.advance_to(Instant(60)).unwrap();
        let _ = attrs::<&str, Vec<(&str, Value)>>(vec![]);

        // The paper's Example 4.1 shape:
        //   record-of(average-participants: 20,
        //             ext: {⟨[10,50],{i1}⟩, ⟨[51,now],{i1,i2}⟩},
        //             proper-ext: …)
        let c = db.class(&ClassId::from("project")).unwrap();
        let rec = c.history_record(db.now());
        assert_eq!(
            rec.field(&AttrName::from("average-participants")),
            Some(&Value::Int(20))
        );
        let ext = rec
            .field(&AttrName::from("ext"))
            .unwrap()
            .as_temporal()
            .unwrap();
        assert_eq!(
            ext.value_at(Instant(30), db.now()),
            Some(&Value::set([Value::Oid(i1)]))
        );
        assert_eq!(
            ext.value_at(Instant(55), db.now()),
            Some(&Value::set([Value::Oid(i1), Value::Oid(i2)]))
        );
        assert_eq!(ext.value_at(Instant(5), db.now()), None);
        // proper-ext of project only ever holds i1 (i2 is an instance of
        // the subclass).
        let pe = rec
            .field(&AttrName::from("proper-ext"))
            .unwrap()
            .as_temporal()
            .unwrap();
        assert_eq!(
            pe.value_at(Instant(55), db.now()),
            Some(&Value::set([Value::Oid(i1)]))
        );
        // PE(t) ⊆ E(t) — the containment stated under Definition 4.1.
        for t in [10u64, 30, 51, 55, 60] {
            let t = Instant(t);
            if let (Some(Value::Set(p)), Some(Value::Set(e))) =
                (pe.value_at(t, db.now()), ext.value_at(t, db.now()))
            {
                assert!(p.iter().all(|x| e.contains(x)), "PE ⊄ E at {t}");
            }
        }
    }

    #[test]
    fn class_def_builder() {
        let def = ClassDef::new("manager")
            .isa("employee")
            .attr("dependents", Type::set_of(Type::object("person")))
            .immutable_attr("badge", Type::STRING)
            .method("raise", [Type::INTEGER], Type::object("manager"))
            .c_attr("count", Type::INTEGER);
        assert_eq!(def.name, ClassId::from("manager"));
        assert_eq!(def.superclasses, vec![ClassId::from("employee")]);
        assert_eq!(def.attrs.len(), 2);
        assert_eq!(def.methods.len(), 1);
        assert_eq!(def.c_attrs.len(), 1);
        assert!(def.attrs[1].immutable);
    }
}

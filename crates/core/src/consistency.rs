//! Object consistency (Definitions 5.2–5.6).

use std::fmt;

use rayon::prelude::*;
use tchimera_temporal::{Instant, Interval, IntervalSet};

use crate::database::Database;
use crate::error::Result;
use crate::ident::{AttrName, ClassId, Oid};
use crate::object::Object;
use crate::value::Value;

/// A single consistency violation, with enough context to locate it.
#[derive(Clone, PartialEq, Debug)]
pub enum ConsistencyError {
    /// A class-history run lies outside the lifespan of the class
    /// (first condition of Definition 5.5).
    OutsideClassLifespan {
        /// The object.
        oid: Oid,
        /// The class whose lifespan is exceeded.
        class: ClassId,
        /// The offending membership interval.
        interval: Interval,
    },
    /// A temporal attribute required by the class is not meaningful over
    /// part of the membership period (Definition 5.5 requires a value for
    /// each temporal attribute at each instant of membership).
    TemporalAttributeGap {
        /// The object.
        oid: Oid,
        /// The class requiring the attribute.
        class: ClassId,
        /// The attribute.
        attr: AttrName,
        /// The uncovered instants.
        missing: IntervalSet,
    },
    /// A temporal attribute holds a value outside its declared domain
    /// (historical consistency, Definition 5.3).
    HistoricalTypeError {
        /// The object.
        oid: Oid,
        /// The class.
        class: ClassId,
        /// The attribute.
        attr: AttrName,
        /// The run interval holding the illegal value.
        interval: Interval,
        /// Rendering of the illegal value.
        value: String,
    },
    /// A static attribute holds a value outside its declared domain
    /// (static consistency, Definition 5.4).
    StaticTypeError {
        /// The object.
        oid: Oid,
        /// The class.
        class: ClassId,
        /// The attribute.
        attr: AttrName,
        /// Rendering of the illegal value.
        value: String,
    },
    /// A static attribute required by the current class is missing from
    /// the object.
    StaticAttributeMissing {
        /// The object.
        oid: Oid,
        /// The class.
        class: ClassId,
        /// The attribute.
        attr: AttrName,
    },
    /// Two objects share an oid but differ in some component
    /// (OID-UNIQUENESS, Definition 5.6).
    OidClash {
        /// The shared oid.
        oid: Oid,
    },
    /// An object refers to an oid that does not exist, or existed outside
    /// the reference instants (REFERENTIAL INTEGRITY, Definition 5.6 and
    /// Section 5.2).
    DanglingReference {
        /// The referring object.
        oid: Oid,
        /// The referenced oid.
        target: Oid,
        /// The instants at which the reference is dangling.
        when: IntervalSet,
    },
}

impl ConsistencyError {
    /// The class the violation names, if any (scrubber attribution:
    /// which class to escalate or quarantine).
    pub fn class_hint(&self) -> Option<ClassId> {
        use ConsistencyError::*;
        match self {
            OutsideClassLifespan { class, .. }
            | TemporalAttributeGap { class, .. }
            | HistoricalTypeError { class, .. }
            | StaticTypeError { class, .. }
            | StaticAttributeMissing { class, .. } => Some(class.clone()),
            OidClash { .. } | DanglingReference { .. } => None,
        }
    }

    /// The object the violation names, if any.
    pub fn oid_hint(&self) -> Option<Oid> {
        use ConsistencyError::*;
        match self {
            OutsideClassLifespan { oid, .. }
            | TemporalAttributeGap { oid, .. }
            | HistoricalTypeError { oid, .. }
            | StaticTypeError { oid, .. }
            | StaticAttributeMissing { oid, .. }
            | OidClash { oid }
            | DanglingReference { oid, .. } => Some(*oid),
        }
    }
}

impl fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ConsistencyError::*;
        match self {
            OutsideClassLifespan { oid, class, interval } => write!(
                f,
                "{oid}: membership {interval} outside lifespan of class `{class}`"
            ),
            TemporalAttributeGap { oid, class, attr, missing } => write!(
                f,
                "{oid}: temporal attribute `{attr}` of `{class}` undefined over {missing}"
            ),
            HistoricalTypeError { oid, class, attr, interval, value } => write!(
                f,
                "{oid}: `{attr}` of `{class}` holds illegal value {value} over {interval}"
            ),
            StaticTypeError { oid, class, attr, value } => write!(
                f,
                "{oid}: static attribute `{attr}` of `{class}` holds illegal value {value}"
            ),
            StaticAttributeMissing { oid, class, attr } => {
                write!(f, "{oid}: static attribute `{attr}` of `{class}` missing")
            }
            OidClash { oid } => write!(f, "oid {oid} shared by distinct objects"),
            DanglingReference { oid, target, when } => {
                write!(f, "{oid}: dangling reference to {target} over {when}")
            }
        }
    }
}

/// The outcome of a consistency check: empty means consistent.
#[derive(Clone, Debug, Default)]
pub struct ConsistencyReport {
    /// All violations found.
    pub errors: Vec<ConsistencyError>,
}

impl ConsistencyReport {
    /// `true` when no violations were found.
    pub fn is_consistent(&self) -> bool {
        self.errors.is_empty()
    }

    /// Number of violations.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// `true` when no violations were found.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }
}

impl Database {
    /// **Historical consistency** (Definition 5.3): the object is an
    /// historically consistent instance of `class` at `t` iff
    /// `h_state(i, t)` is a legal value for `h_type(class)`.
    pub fn is_historically_consistent(
        &self,
        oid: Oid,
        class: &ClassId,
        t: Instant,
    ) -> Result<bool> {
        let o = self.object(oid)?;
        match self.schema().class(class)?.historical_type() {
            None => Ok(true),
            Some(h_type) => {
                let state = o.h_state(t, self.now());
                Ok(self.value_in_type(&state, &h_type, t))
            }
        }
    }

    /// **Static consistency** (Definition 5.4): `s_state(i)` is a legal
    /// value for `s_type(class)`.
    pub fn is_statically_consistent(&self, oid: Oid, class: &ClassId) -> Result<bool> {
        let o = self.object(oid)?;
        match self.schema().class(class)?.static_type() {
            None => Ok(true),
            Some(s_type) => {
                let state = o.s_state();
                Ok(self.value_in_type(&state, &s_type, self.now()))
            }
        }
    }

    /// **Object consistency** (Definition 5.5). The three conditions:
    ///
    /// 1. every class-history run `⟨τ, c⟩` satisfies `τ ⊆ C.lifespan`;
    /// 2. the object is an historically consistent instance of `c` at
    ///    every `t ∈ τ` — checked run-algebraically, not instant by
    ///    instant: every temporal attribute of `c` must cover `τ`, and
    ///    every covering run's value must belong to the attribute domain
    ///    *throughout the overlap* (which for oids means membership of the
    ///    referenced object over the whole overlap);
    /// 3. the object is a statically consistent instance of its current
    ///    class.
    ///
    /// Returns the full list of violations (empty = consistent).
    pub fn check_object(&self, oid: Oid) -> Result<ConsistencyReport> {
        let o = self.object(oid)?;
        let now = self.now();
        let mut report = ConsistencyReport::default();

        for e in o.class_history.entries() {
            let tau = e.interval(now);
            if tau.is_empty() {
                continue;
            }
            let class_id = &e.value;
            let class = self.schema().class(class_id)?;

            // Condition 1: τ ⊆ C.lifespan.
            if !tau.is_subset(class.lifespan.resolve(now)) {
                report.errors.push(ConsistencyError::OutsideClassLifespan {
                    oid,
                    class: class_id.clone(),
                    interval: tau,
                });
            }

            // Condition 2: historical consistency over τ.
            for (attr, decl) in &class.all_attrs {
                let Some(inner) = decl.ty.strip_temporal() else {
                    continue;
                };
                match o.attr(attr).and_then(Value::as_temporal) {
                    None => {
                        report.errors.push(ConsistencyError::TemporalAttributeGap {
                            oid,
                            class: class_id.clone(),
                            attr: attr.clone(),
                            missing: tau.into(),
                        });
                    }
                    Some(h) => {
                        // Coverage: τ ⊆ dom(h).
                        let missing =
                            IntervalSet::from(tau).difference(&h.domain(now));
                        if !missing.is_empty() {
                            report.errors.push(ConsistencyError::TemporalAttributeGap {
                                oid,
                                class: class_id.clone(),
                                attr: attr.clone(),
                                missing,
                            });
                        }
                        // Legality of each overlapping run.
                        for run in h.entries() {
                            let overlap = run.interval(now).intersect(tau);
                            if overlap.is_empty() {
                                continue;
                            }
                            if !self.value_in_type_over(&run.value, inner, overlap, now) {
                                report.errors.push(ConsistencyError::HistoricalTypeError {
                                    oid,
                                    class: class_id.clone(),
                                    attr: attr.clone(),
                                    interval: overlap,
                                    value: run.value.to_string(),
                                });
                            }
                        }
                    }
                }
            }
        }

        // Condition 3: static consistency with the current class.
        if let Some(current) = o.current_class(now) {
            let class = self.schema().class(current)?;
            for (attr, decl) in &class.all_attrs {
                if decl.ty.is_temporal() {
                    continue;
                }
                match o.attr(attr) {
                    None => report.errors.push(ConsistencyError::StaticAttributeMissing {
                        oid,
                        class: current.clone(),
                        attr: attr.clone(),
                    }),
                    Some(v) => {
                        if !self.value_in_type(v, &decl.ty, now) {
                            report.errors.push(ConsistencyError::StaticTypeError {
                                oid,
                                class: current.clone(),
                                attr: attr.clone(),
                                value: v.to_string(),
                            });
                        }
                    }
                }
            }
        }

        Ok(report)
    }

    /// The outgoing-reference check of one object: every oid held in its
    /// state must identify an object alive at the reference instants.
    /// With `only = Some(target)`, references to other oids are skipped —
    /// the `O(affected)` path used after a single mutation.
    fn check_refs_of_into(
        &self,
        o: &Object,
        only: Option<Oid>,
        report: &mut ConsistencyReport,
    ) {
        let now = self.now();
        // Static references: checked at now (while the holder lives).
        if o.lifespan.is_alive() {
            let mut static_refs = Vec::new();
            for v in o.attrs.values() {
                if !matches!(v, Value::Temporal(_)) {
                    v.all_oids(&mut static_refs);
                }
            }
            static_refs.sort();
            static_refs.dedup();
            for target in static_refs {
                if only.is_some_and(|t| t != target) {
                    continue;
                }
                let ok = self
                    .object(target)
                    .map(|t| t.lifespan.contains(now, now))
                    .unwrap_or(false);
                if !ok {
                    report.errors.push(ConsistencyError::DanglingReference {
                        oid: o.oid,
                        target,
                        when: IntervalSet::from_interval(Interval::point(now)),
                    });
                }
            }
        }
        // Temporal references: every run's referenced oids must exist
        // throughout the run.
        for v in o.attrs.values() {
            let Some(h) = v.as_temporal() else { continue };
            for run in h.entries() {
                let iv = run.interval(now);
                if iv.is_empty() {
                    continue;
                }
                let mut refs = Vec::new();
                run.value.all_oids(&mut refs);
                refs.sort();
                refs.dedup();
                for target in refs {
                    if only.is_some_and(|t| t != target) {
                        continue;
                    }
                    let alive: IntervalSet = self
                        .object(target)
                        .map(|t| t.lifespan.resolve(now).into())
                        .unwrap_or_default();
                    // Fast path: a single binary search settles the
                    // (overwhelmingly common) all-covered case.
                    if alive.covers_interval(iv) {
                        continue;
                    }
                    let missing = IntervalSet::from(iv).difference(&alive);
                    if !missing.is_empty() {
                        report.errors.push(ConsistencyError::DanglingReference {
                            oid: o.oid,
                            target,
                            when: missing,
                        });
                    }
                }
            }
        }
    }

    /// The outgoing references of a single object (its contribution to
    /// REFERENTIAL INTEGRITY, Definition 5.6). `O(object)`, independent
    /// of the database size — the check to run after `create_object`,
    /// `set_attr` or `migrate` of `oid`.
    pub fn check_object_refs(&self, oid: Oid) -> Result<ConsistencyReport> {
        let _span = tchimera_obs::span!("core.check_refs", oid = oid.0);
        let o = self.object(oid)?;
        let mut report = ConsistencyReport::default();
        self.check_refs_of_into(o, None, &mut report);
        Ok(report)
    }

    /// The *incoming* references of `target`: every reference to it held
    /// by any object, located through the reverse-reference index in
    /// `O(referrers)` instead of a database scan — the check to run after
    /// `terminate_object(target)`.
    pub fn check_refs_to(&self, target: Oid) -> ConsistencyReport {
        let _span = tchimera_obs::span!("core.check_refs", target = target.0);
        let mut report = ConsistencyReport::default();
        for referrer in self.referrers_of(target) {
            if let Ok(o) = self.object(referrer) {
                self.check_refs_of_into(o, Some(target), &mut report);
            }
        }
        report
    }

    /// **Consistent set of objects** (Definition 5.6) over the whole
    /// database:
    ///
    /// * OID-UNIQUENESS holds by construction (object `i` sits at index
    ///   `i` of the object table);
    ///   the standalone checker [`check_oid_uniqueness`] validates
    ///   arbitrary object collections.
    /// * REFERENTIAL INTEGRITY: for every object `o` and instant `t`,
    ///   every oid in `ref(o.i, t)` must identify an object whose lifespan
    ///   contains `t`. Temporal references are checked run-algebraically;
    ///   static references are checked at `now`.
    ///
    /// Objects are checked in parallel; errors are reported in oid order.
    pub fn check_referential_integrity(&self) -> ConsistencyReport {
        let objs: Vec<&Object> = self.objects().collect();
        let _span = tchimera_obs::span!("core.check_refs", objects = objs.len());
        let reports: Vec<ConsistencyReport> = objs
            .par_iter()
            .map(|o| {
                let mut r = ConsistencyReport::default();
                self.check_refs_of_into(o, None, &mut r);
                r
            })
            .collect();
        let mut report = ConsistencyReport::default();
        for r in reports {
            report.errors.extend(r.errors);
        }
        report
    }

    /// Check every object plus referential integrity: the database-wide
    /// consistency notion combining Definitions 5.5 and 5.6.
    ///
    /// The per-object work (Definition 5.5 is independent across objects,
    /// and so is each object's outgoing-reference contribution to
    /// Definition 5.6) fans out across all cores. The report is
    /// identical — same errors, same order — to
    /// [`Database::check_database_serial`].
    pub fn check_database(&self) -> ConsistencyReport {
        let objs: Vec<&Object> = self.objects().collect();
        let _span = tchimera_obs::span!("core.check_database", objects = objs.len());
        // One fan-out computes both halves per object while its data is
        // hot; the reports are then stitched back in the serial order
        // (every object error, then every referential error).
        let pairs: Vec<(ConsistencyReport, ConsistencyReport)> = objs
            .par_iter()
            .map(|o| {
                let mut refs = ConsistencyReport::default();
                self.check_refs_of_into(o, None, &mut refs);
                (self.check_object(o.oid).unwrap_or_default(), refs)
            })
            .collect();
        let mut report = ConsistencyReport::default();
        for (obj, _) in &pairs {
            report.errors.extend_from_slice(&obj.errors);
        }
        for (_, refs) in pairs {
            report.errors.extend(refs.errors);
        }
        tchimera_obs::counter!("core.consistency.objects_checked").add(objs.len() as u64);
        tchimera_obs::counter!("core.consistency.errors").add(report.len() as u64);
        report
    }

    /// Single-threaded [`Database::check_database`]: the reference
    /// implementation the parallel engine is tested against.
    pub fn check_database_serial(&self) -> ConsistencyReport {
        let mut report = ConsistencyReport::default();
        for o in self.objects() {
            if let Ok(r) = self.check_object(o.oid) {
                report.errors.extend(r.errors);
            }
        }
        for o in self.objects() {
            self.check_refs_of_into(o, None, &mut report);
        }
        report
    }
}

/// OID-UNIQUENESS (Definition 5.6, condition 1) over an arbitrary
/// collection: two objects with the same oid must agree on lifespan, value
/// and class history.
///
/// Duplicate grouping is a cheap serial pass; the expensive deep equality
/// comparisons of duplicate pairs run in parallel, preserving the serial
/// error order.
pub fn check_oid_uniqueness(objects: &[crate::object::Object]) -> ConsistencyReport {
    let _span = tchimera_obs::span!("core.check_oid_uniqueness", objects = objects.len());
    // The caller chooses these oids, so they keep std's `RandomState`.
    let mut last_seen: std::collections::HashMap<Oid, usize> =
        std::collections::HashMap::new();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (k, o) in objects.iter().enumerate() {
        if let Some(prev) = last_seen.insert(o.oid, k) {
            pairs.push((prev, k));
        }
    }
    let clashes: Vec<Option<ConsistencyError>> = pairs
        .par_iter()
        .map(|&(a, b)| {
            let (prev, o) = (&objects[a], &objects[b]);
            (prev.lifespan != o.lifespan
                || prev.attrs != o.attrs
                || prev.class_history != o.class_history)
                .then_some(ConsistencyError::OidClash { oid: o.oid })
        })
        .collect();
    let errors = clashes.into_iter().flatten().collect();
    ConsistencyReport { errors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassDef;
    use crate::database::{attrs, Attrs};
    use crate::types::Type;
    use tchimera_temporal::TemporalValue;

    fn project_db() -> Database {
        // Paper Examples 4.1 / 5.1 / 5.3.
        let mut db = Database::new();
        db.define_class(ClassDef::new("task")).unwrap();
        db.define_class(ClassDef::new("person")).unwrap();
        db.define_class(
            ClassDef::new("project")
                .immutable_attr("name", Type::temporal(Type::STRING))
                .attr("objective", Type::STRING)
                .attr("workplan", Type::set_of(Type::object("task")))
                .attr("subproject", Type::temporal(Type::object("project")))
                .attr(
                    "participants",
                    Type::temporal(Type::set_of(Type::object("person"))),
                ),
            )
            .unwrap();
        db
    }

    #[test]
    fn paper_example_5_3_consistent_object() {
        let mut db = project_db();
        db.advance_to(Instant(10)).unwrap();
        // Supporting objects: i7 ∈ task, i2,i3,i8 ∈ person, i4,i9 ∈ project.
        let task = db
            .create_object(&ClassId::from("task"), Attrs::new())
            .unwrap();
        let p2 = db.create_object(&ClassId::from("person"), Attrs::new()).unwrap();
        let p3 = db.create_object(&ClassId::from("person"), Attrs::new()).unwrap();
        let p8 = db.create_object(&ClassId::from("person"), Attrs::new()).unwrap();
        let sub4 = db
            .create_object(&ClassId::from("project"), attrs([("name", Value::str("S4"))]))
            .unwrap();
        let sub9 = db
            .create_object(&ClassId::from("project"), attrs([("name", Value::str("S9"))]))
            .unwrap();
        db.advance_to(Instant(20)).unwrap();
        let i1 = db
            .create_object(
                &ClassId::from("project"),
                attrs([
                    ("name", Value::str("IDEA")),
                    ("objective", Value::str("Implementation")),
                    ("workplan", Value::set([Value::Oid(task)])),
                    ("subproject", Value::Oid(sub4)),
                    ("participants", Value::set([Value::Oid(p2), Value::Oid(p3)])),
                ]),
            )
            .unwrap();
        db.advance_to(Instant(46)).unwrap();
        db.set_attr(i1, &AttrName::from("subproject"), Value::Oid(sub9))
            .unwrap();
        db.advance_to(Instant(81)).unwrap();
        db.set_attr(
            i1,
            &AttrName::from("participants"),
            Value::set([Value::Oid(p2), Value::Oid(p3), Value::Oid(p8)]),
        )
        .unwrap();
        db.advance_to(Instant(100)).unwrap();

        let report = db.check_object(i1).unwrap();
        assert!(report.is_consistent(), "violations: {:?}", report.errors);
        assert!(db
            .is_historically_consistent(i1, &ClassId::from("project"), Instant(50))
            .unwrap());
        assert!(db
            .is_statically_consistent(i1, &ClassId::from("project"))
            .unwrap());
        let whole = db.check_database();
        assert!(whole.is_consistent(), "violations: {:?}", whole.errors);
    }

    #[test]
    fn dangling_temporal_reference_detected() {
        let mut db = project_db();
        db.advance_to(Instant(10)).unwrap();
        let p = db.create_object(&ClassId::from("person"), Attrs::new()).unwrap();
        let i = db
            .create_object(
                &ClassId::from("project"),
                attrs([
                    ("name", Value::str("X")),
                    ("participants", Value::set([Value::Oid(p)])),
                ]),
            )
            .unwrap();
        db.advance_to(Instant(20)).unwrap();
        db.terminate_object(p).unwrap();
        db.advance_to(Instant(30)).unwrap();
        // The participants history still refers to p over [21, now]:
        // dangling.
        let report = db.check_referential_integrity();
        assert!(!report.is_consistent());
        assert!(report.errors.iter().any(|e| matches!(
            e,
            ConsistencyError::DanglingReference { oid, target, .. }
                if *oid == i && *target == p
        )));
        // Fixing the attribute restores integrity.
        db.set_attr(i, &AttrName::from("participants"), Value::set([]))
            .unwrap();
        // Still dangling over [21, 29]: temporal history keeps the stale
        // reference for the past instants where p was already dead.
        let report = db.check_referential_integrity();
        assert!(!report.is_consistent());
    }

    #[test]
    fn historical_gap_detected() {
        let mut db = project_db();
        db.advance_to(Instant(10)).unwrap();
        let i = db
            .create_object(&ClassId::from("project"), attrs([("name", Value::str("X"))]))
            .unwrap();
        db.advance_to(Instant(50)).unwrap();
        // Manufacture a gap: close the name history.
        {
            // Direct surgery through a cloned object is not possible via
            // the public API (histories only grow); simulate by building a
            // raw object check: close `subproject` which was initialized
            // null at t=10.
            let report = db.check_object(i).unwrap();
            assert!(report.is_consistent());
        }
        // Inject an inconsistent object by terminating a referenced
        // subproject: covered by the dangling-reference test; here verify
        // the gap detector on a hand-made object instead.
        let o = db.object(i).unwrap().clone();
        let mut broken = o;
        if let Some(Value::Temporal(h)) =
            broken.attrs.get_mut(&AttrName::from("name"))
        {
            h.close(Instant(30));
        }
        // Hand-checked: the class history says `project` over [10, now],
        // but `name` stops at 30.
        let mut db2 = db.clone();
        db2.replace_object_for_test(broken).unwrap();
        let report = db2.check_object(i).unwrap();
        assert!(report
            .errors
            .iter()
            .any(|e| matches!(e, ConsistencyError::TemporalAttributeGap { attr, .. }
                if attr == &AttrName::from("name"))));
    }

    #[test]
    fn oid_uniqueness_checker() {
        let mut db = project_db();
        db.advance_to(Instant(10)).unwrap();
        let i = db
            .create_object(&ClassId::from("task"), Attrs::new())
            .unwrap();
        let o = db.object(i).unwrap().clone();
        let mut altered = o.clone();
        altered
            .attrs
            .insert(AttrName::from("ghost"), Value::Int(1));
        // Same object twice: fine (condition allows equal duplicates).
        assert!(check_oid_uniqueness(&[o.clone(), o.clone()]).is_consistent());
        // Divergent copies: clash.
        let r = check_oid_uniqueness(&[o, altered]);
        assert_eq!(r.errors, vec![ConsistencyError::OidClash { oid: i }]);
    }

    #[test]
    fn static_type_error_detected() {
        let mut db = project_db();
        db.advance_to(Instant(10)).unwrap();
        let i = db
            .create_object(&ClassId::from("project"), attrs([("name", Value::str("X"))]))
            .unwrap();
        let mut broken = db.object(i).unwrap().clone();
        broken
            .attrs
            .insert(AttrName::from("objective"), Value::Int(42));
        db.replace_object_for_test(broken).unwrap();
        let report = db.check_object(i).unwrap();
        assert!(report.errors.iter().any(|e| matches!(
            e,
            ConsistencyError::StaticTypeError { attr, .. }
                if attr == &AttrName::from("objective")
        )));
    }

    #[test]
    fn historical_type_error_detected() {
        let mut db = project_db();
        db.advance_to(Instant(10)).unwrap();
        let i = db
            .create_object(&ClassId::from("project"), attrs([("name", Value::str("X"))]))
            .unwrap();
        let mut broken = db.object(i).unwrap().clone();
        broken.attrs.insert(
            AttrName::from("name"),
            Value::Temporal(TemporalValue::starting_at(Instant(10), Value::Int(7))),
        );
        db.replace_object_for_test(broken).unwrap();
        let report = db.check_object(i).unwrap();
        assert!(report.errors.iter().any(|e| matches!(
            e,
            ConsistencyError::HistoricalTypeError { attr, .. }
                if attr == &AttrName::from("name")
        )));
    }

    #[test]
    fn report_api() {
        let r = ConsistencyReport::default();
        assert!(r.is_consistent());
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        let e = ConsistencyError::OidClash { oid: Oid(1) };
        assert!(e.to_string().contains("i1"));
    }
}

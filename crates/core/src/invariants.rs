//! The model invariants (Invariants 5.1, 5.2, 6.1 and 6.2).
//!
//! The public mutation API preserves these by construction; the checker
//! here validates them *extensionally* over a whole database, which is how
//! the property tests (and the fault-injection benchmarks) establish that
//! every reachable state is a model of the paper's axioms.

use std::fmt;

use tchimera_temporal::IntervalSet;

use crate::database::Database;
use crate::ident::OidMap;
use crate::value::Value;

/// Which invariant of the paper a violation refers to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InvariantId {
    /// Invariant 5.1: extent membership implies lifespan membership, and
    /// proper-extent runs coincide with the object's class history.
    Inv5_1,
    /// Invariant 5.2: an object's lifespan is the union of its memberships,
    /// and membership agrees with the class extents.
    Inv5_2,
    /// Invariant 6.1: subclass lifespans and extents are included in the
    /// superclass's.
    Inv6_1,
    /// Invariant 6.2: object populations of distinct hierarchies are
    /// disjoint over all time.
    Inv6_2,
}

impl fmt::Display for InvariantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantId::Inv5_1 => write!(f, "Invariant 5.1"),
            InvariantId::Inv5_2 => write!(f, "Invariant 5.2"),
            InvariantId::Inv6_1 => write!(f, "Invariant 6.1"),
            InvariantId::Inv6_2 => write!(f, "Invariant 6.2"),
        }
    }
}

/// A violation of one of the paper's invariants.
#[derive(Clone, PartialEq, Debug)]
pub struct InvariantViolation {
    /// The violated invariant.
    pub id: InvariantId,
    /// Human-readable description with the offending entities.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.id, self.detail)
    }
}

impl Database {
    /// Check all four invariants over the whole database; empty result
    /// means every invariant holds.
    pub fn check_invariants(&self) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        self.check_inv_5_1(&mut out);
        self.check_inv_5_2(&mut out);
        self.check_inv_6_1(&mut out);
        self.check_inv_6_2(&mut out);
        out
    }

    /// Invariant 5.1:
    /// 1. `i ∈ C.history.extent(t) ⇒ t ∈ o_lifespan(i)`;
    /// 2. `(∀t ∈ τ, i ∈ C.history.proper-extent(t)) ⇔ ⟨τ, c⟩ ∈
    ///    o.class-history`.
    fn check_inv_5_1(&self, out: &mut Vec<InvariantViolation>) {
        let now = self.now();
        for class in self.schema().classes() {
            for i in class.ever_members() {
                let Ok(o) = self.object(i) else {
                    out.push(InvariantViolation {
                        id: InvariantId::Inv5_1,
                        detail: format!("extent of `{}` mentions unknown {i}", class.id),
                    });
                    continue;
                };
                let membership = class.membership_of(i, now);
                let life: IntervalSet = o.lifespan.resolve(now).into();
                if !membership.is_subset(&life) {
                    out.push(InvariantViolation {
                        id: InvariantId::Inv5_1,
                        detail: format!(
                            "{i} in extent of `{}` over {} but lifespan is {}",
                            class.id,
                            membership.difference(&life),
                            o.lifespan
                        ),
                    });
                }
                // Proper-extent runs ⇔ class-history runs naming this class.
                let proper = class.proper_membership_of(i, now);
                let from_history: IntervalSet = o
                    .class_history
                    .entries()
                    .iter()
                    .filter(|e| e.value == class.id)
                    .map(|e| e.interval(now))
                    .filter(|iv| !iv.is_empty())
                    .collect();
                if proper != from_history {
                    out.push(InvariantViolation {
                        id: InvariantId::Inv5_1,
                        detail: format!(
                            "{i}: proper-extent of `{}` is {proper} but class history says {from_history}",
                            class.id
                        ),
                    });
                }
            }
        }
    }

    /// Invariant 5.2:
    /// 1. `o_lifespan(i) = ⋃_c c_lifespan(i, c)`;
    /// 2. `t ∈ c_lifespan(i, c) ⇔ i ∈ C.history.extent(t)` — condition 2 is
    ///    definitionally true here (`c_lifespan` *is* the extent index), so
    ///    only condition 1 is checked extensionally.
    fn check_inv_5_2(&self, out: &mut Vec<InvariantViolation>) {
        let now = self.now();
        let mut unions: OidMap<IntervalSet> = OidMap::default();
        for class in self.schema().classes() {
            for i in class.ever_members() {
                let m = class.membership_of(i, now);
                unions
                    .entry(i)
                    .and_modify(|u| *u = u.union(&m))
                    .or_insert(m);
            }
        }
        for o in self.objects() {
            let life: IntervalSet = o.lifespan.resolve(now).into();
            let union = unions.remove(&o.oid).unwrap_or_default();
            if union != life {
                out.push(InvariantViolation {
                    id: InvariantId::Inv5_2,
                    detail: format!(
                        "{}: lifespan {} ≠ union of memberships {union}",
                        o.oid, o.lifespan
                    ),
                });
            }
        }
    }

    /// Invariant 6.1: for `c2 ≤_ISA c1`,
    /// 1. `C2.lifespan ⊆ C1.lifespan`;
    /// 2. `∀t, C2.history.ext(t) ⊆ C1.history.ext(t)`;
    /// 3. `∀i, c_lifespan(i, c2) ⊆ c_lifespan(i, c1)`.
    ///
    /// Conditions 2 and 3 coincide on the per-oid membership index;
    /// checking direct ISA edges suffices (inclusion is transitive).
    fn check_inv_6_1(&self, out: &mut Vec<InvariantViolation>) {
        let now = self.now();
        for sub in self.schema().classes() {
            for sup_id in &sub.superclasses {
                let Ok(sup) = self.schema().class(sup_id) else {
                    continue;
                };
                if !sub.lifespan.is_subset(sup.lifespan, now) {
                    out.push(InvariantViolation {
                        id: InvariantId::Inv6_1,
                        detail: format!(
                            "lifespan {} of `{}` ⊄ lifespan {} of `{}`",
                            sub.lifespan, sub.id, sup.lifespan, sup.id
                        ),
                    });
                }
                for i in sub.ever_members() {
                    let m_sub = sub.membership_of(i, now);
                    let m_sup = sup.membership_of(i, now);
                    if !m_sub.is_subset(&m_sup) {
                        out.push(InvariantViolation {
                            id: InvariantId::Inv6_1,
                            detail: format!(
                                "{i}: membership of `{}` {m_sub} ⊄ membership of `{}` {m_sup}",
                                sub.id, sup.id
                            ),
                        });
                    }
                }
            }
        }
    }

    /// Invariant 6.2: `⋃_t Ext_i^t ∩ ⋃_t Ext_j^t = ∅` for distinct root
    /// hierarchies — the sets of objects that have *ever* belonged to
    /// different hierarchies are disjoint.
    fn check_inv_6_2(&self, out: &mut Vec<InvariantViolation>) {
        let mut owner: OidMap<u32> = OidMap::default();
        for class in self.schema().classes() {
            for i in class.ever_members() {
                match owner.insert(i, class.hierarchy) {
                    Some(h) if h != class.hierarchy => {
                        out.push(InvariantViolation {
                            id: InvariantId::Inv6_2,
                            detail: format!(
                                "{i} belongs to two hierarchies (via `{}`)",
                                class.id
                            ),
                        });
                    }
                    _ => {}
                }
            }
        }
        // Objects referenced by temporal histories of other hierarchies
        // are fine — only *membership* is constrained.
        let _ = Value::Null;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassDef;
    use crate::database::{attrs, Attrs};
    use crate::ident::ClassId;
    use crate::types::Type;
    use tchimera_temporal::Instant;

    fn staff_db() -> Database {
        let mut db = Database::new();
        db.define_class(ClassDef::new("person")).unwrap();
        db.define_class(
            ClassDef::new("employee")
                .isa("person")
                .attr("salary", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        db.define_class(ClassDef::new("manager").isa("employee")).unwrap();
        db.define_class(ClassDef::new("vehicle")).unwrap();
        db
    }

    #[test]
    fn invariants_hold_after_lifecycle_storm() {
        let mut db = staff_db();
        db.advance_to(Instant(10)).unwrap();
        let a = db
            .create_object(&ClassId::from("employee"), attrs([("salary", Value::Int(1))]))
            .unwrap();
        let b = db
            .create_object(&ClassId::from("person"), Attrs::new())
            .unwrap();
        db.advance_to(Instant(20)).unwrap();
        db.migrate(a, &ClassId::from("manager"), Attrs::new()).unwrap();
        db.advance_to(Instant(30)).unwrap();
        db.migrate(a, &ClassId::from("person"), Attrs::new()).unwrap();
        db.advance_to(Instant(40)).unwrap();
        db.migrate(a, &ClassId::from("employee"), attrs([("salary", Value::Int(9))]))
            .unwrap();
        db.terminate_object(b).unwrap();
        db.advance_to(Instant(50)).unwrap();
        let _v = db.create_object(&ClassId::from("vehicle"), Attrs::new()).unwrap();
        db.advance_to(Instant(60)).unwrap();
        let violations = db.check_invariants();
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn detects_fabricated_extent_outside_lifespan() {
        let mut db = staff_db();
        db.advance_to(Instant(10)).unwrap();
        let i = db
            .create_object(&ClassId::from("person"), Attrs::new())
            .unwrap();
        db.advance_to(Instant(20)).unwrap();
        db.terminate_object(i).unwrap();
        db.advance_to(Instant(30)).unwrap();
        // Fabricate: shrink the object's recorded lifespan below its
        // memberships.
        let mut o = db.object(i).unwrap().clone();
        o.lifespan = tchimera_temporal::Lifespan::closed(Instant(10), Instant(15)).unwrap();
        db.replace_object_for_test(o).unwrap();
        let violations = db.check_invariants();
        assert!(violations.iter().any(|v| v.id == InvariantId::Inv5_1));
        assert!(violations.iter().any(|v| v.id == InvariantId::Inv5_2));
    }

    #[test]
    fn detects_class_history_divergence() {
        let mut db = staff_db();
        db.advance_to(Instant(10)).unwrap();
        let i = db
            .create_object(&ClassId::from("employee"), attrs([("salary", Value::Int(1))]))
            .unwrap();
        db.advance_to(Instant(30)).unwrap();
        let mut o = db.object(i).unwrap().clone();
        // Claim the object was a manager (the proper-extent of employee
        // disagrees).
        o.class_history =
            tchimera_temporal::TemporalValue::starting_at(Instant(10), ClassId::from("manager"));
        db.replace_object_for_test(o).unwrap();
        let violations = db.check_invariants();
        assert!(violations.iter().any(|v| v.id == InvariantId::Inv5_1));
    }

    #[test]
    fn display_formats() {
        let v = InvariantViolation {
            id: InvariantId::Inv6_2,
            detail: "x".into(),
        };
        assert_eq!(v.to_string(), "Invariant 6.2: x");
        assert_eq!(InvariantId::Inv5_1.to_string(), "Invariant 5.1");
        assert_eq!(InvariantId::Inv5_2.to_string(), "Invariant 5.2");
        assert_eq!(InvariantId::Inv6_1.to_string(), "Invariant 6.1");
    }
}

//! Type extensions `[[T]]_t` (Definition 3.5): membership of values in
//! types, relative to a time instant.

use tchimera_temporal::{Instant, Interval};

use crate::database::Database;
use crate::types::{Type, MAX_NESTING};
use crate::value::Value;

impl Database {
    /// Membership in the type extension: `v ∈ [[T]]_t` (Definition 3.5).
    ///
    /// * `null ∈ [[T]]_t` for every type;
    /// * basic values belong to their basic type's domain;
    /// * an oid belongs to `[[c]]_t` iff it is in `π(c, t)` — a member of
    ///   `c` at `t`, as instance of `c` or of a subclass;
    /// * sets/lists/records recurse on components. For records, the value
    ///   must provide every field of the type with a member value; extra
    ///   fields are permitted — the width generalization matching
    ///   [`Schema::is_subtype`](crate::Schema::is_subtype), without which
    ///   Theorem 6.1 (`T1 ≤ T2 ⇒ [[T1]]_t ⊆ [[T2]]_t`) would fail for the
    ///   structural types of subclasses;
    /// * a history belongs to `[[temporal(T)]]_t` iff `f(t') ∈ [[T]]_{t'}`
    ///   for every `t'` where it is defined — note the membership of each
    ///   run is evaluated *at the run's own instants*, not at `t`;
    /// * a value nesting [`MAX_NESTING`] levels or more belongs to no type.
    ///   No declared type nests that deep, so this only bounds what a
    ///   record's extra fields carry — and keeps every stored value, a
    ///   history around it included, decodable.
    pub fn value_in_type(&self, v: &Value, t: &Type, at: Instant) -> bool {
        v.depth() < MAX_NESTING && self.value_in_type_over(v, t, Interval::point(at), self.now())
    }

    /// `v ∈ [[T]]_t` for **every** `t ∈ iv` (the quantified form needed for
    /// temporal runs: an oid stored over `[t1, t2]` must be a member of the
    /// class throughout that interval).
    pub(crate) fn value_in_type_over(
        &self,
        v: &Value,
        t: &Type,
        iv: Interval,
        now: Instant,
    ) -> bool {
        if iv.is_empty() {
            return true;
        }
        match (v, t) {
            (Value::Null, _) => true,
            (_, Type::Basic(b)) => v.basic_type() == Some(*b),
            (Value::Time(_), Type::Time) => true,
            (_, Type::Time) => false,
            (Value::Oid(i), Type::Object(c)) => {
                let Ok(class) = self.schema().class(c) else {
                    return false;
                };
                tchimera_temporal::IntervalSet::from(iv).is_subset(&class.membership_of(*i, now))
            }
            (Value::Set(xs), Type::Set(elem)) => {
                xs.iter().all(|x| self.value_in_type_over(x, elem, iv, now))
            }
            (Value::List(xs), Type::List(elem)) => {
                xs.iter().all(|x| self.value_in_type_over(x, elem, iv, now))
            }
            (Value::Record(_), Type::Record(fields)) => fields.iter().all(|(n, ft)| {
                v.field(n)
                    .is_some_and(|fv| self.value_in_type_over(fv, ft, iv, now))
            }),
            (Value::Temporal(h), Type::Temporal(inner)) => h.entries().iter().all(|e| {
                let run = e.interval(now);
                run.is_empty() || self.value_in_type_over(&e.value, inner, run, now)
            }),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassDef;
    use crate::database::attrs;
    use crate::ident::ClassId;
    use tchimera_temporal::TemporalValue;

    fn db() -> (Database, crate::ident::Oid, crate::ident::Oid) {
        let mut db = Database::new();
        db.define_class(ClassDef::new("person")).unwrap();
        db.define_class(ClassDef::new("employee").isa("person")).unwrap();
        db.advance_to(Instant(10)).unwrap();
        let p = db
            .create_object(&ClassId::from("person"), attrs::<&str, _>([]))
            .unwrap();
        let e = db
            .create_object(&ClassId::from("employee"), attrs::<&str, _>([]))
            .unwrap();
        db.advance_to(Instant(100)).unwrap();
        (db, p, e)
    }

    #[test]
    fn null_in_every_type() {
        let (db, _, _) = db();
        for t in [
            Type::INTEGER,
            Type::Time,
            Type::object("person"),
            Type::set_of(Type::REAL),
            Type::temporal(Type::STRING),
            Type::record_of([("a", Type::BOOL)]),
        ] {
            assert!(db.value_in_type(&Value::Null, &t, Instant(50)));
        }
    }

    #[test]
    fn basic_domains() {
        let (db, _, _) = db();
        let t = Instant(50);
        assert!(db.value_in_type(&Value::Int(10), &Type::INTEGER, t));
        assert!(!db.value_in_type(&Value::Int(10), &Type::REAL, t));
        assert!(db.value_in_type(&Value::Real(1.5), &Type::REAL, t));
        assert!(db.value_in_type(&Value::Bool(true), &Type::BOOL, t));
        assert!(db.value_in_type(&Value::Char('x'), &Type::CHARACTER, t));
        assert!(db.value_in_type(&Value::str("s"), &Type::STRING, t));
        assert!(db.value_in_type(&Value::Time(Instant(3)), &Type::Time, t));
        assert!(!db.value_in_type(&Value::Int(3), &Type::Time, t));
    }

    #[test]
    fn example_3_2_memberships() {
        // i2 ∈ [[employee]]_t; {i1,i2} ∈ [[set-of(person)]]_t
        let (db, p, e) = db();
        let t = Instant(50);
        assert!(db.value_in_type(&Value::Oid(e), &Type::object("employee"), t));
        assert!(db.value_in_type(&Value::Oid(e), &Type::object("person"), t));
        assert!(!db.value_in_type(&Value::Oid(p), &Type::object("employee"), t));
        assert!(db.value_in_type(
            &Value::set([Value::Oid(p), Value::Oid(e)]),
            &Type::set_of(Type::object("person")),
            t
        ));
        assert!(!db.value_in_type(
            &Value::set([Value::Oid(p), Value::Oid(e)]),
            &Type::set_of(Type::object("employee")),
            t
        ));
        // Before creation, not a member.
        assert!(!db.value_in_type(&Value::Oid(e), &Type::object("employee"), Instant(5)));
    }

    #[test]
    fn temporal_membership_checks_each_run_at_its_own_time() {
        let (mut db, p, _) = db();
        // p exists from t=10. A history placing p before t=10 is illegal.
        let bad = TemporalValue::from_pairs([(
            Interval::from_ticks(0, 20),
            Value::Oid(p),
        )])
        .unwrap();
        assert!(!db.value_in_type(
            &Value::Temporal(bad),
            &Type::temporal(Type::object("person")),
            db.now()
        ));
        let good = TemporalValue::from_pairs([(
            Interval::from_ticks(10, 20),
            Value::Oid(p),
        )])
        .unwrap();
        assert!(db.value_in_type(
            &Value::Temporal(good.clone()),
            &Type::temporal(Type::object("person")),
            db.now()
        ));
        // Terminate p at 100; a run reaching 100 is still fine, one beyond
        // is not (but `now`-capped runs resolve within the lifespan).
        db.terminate_object(p).unwrap();
        db.advance_to(Instant(200)).unwrap();
        let beyond = TemporalValue::from_pairs([(
            Interval::from_ticks(90, 150),
            Value::Oid(p),
        )])
        .unwrap();
        assert!(!db.value_in_type(
            &Value::Temporal(beyond),
            &Type::temporal(Type::object("person")),
            db.now()
        ));
        assert!(db.value_in_type(
            &Value::Temporal(good),
            &Type::temporal(Type::object("person")),
            db.now()
        ));
    }

    #[test]
    fn record_membership_allows_width() {
        let (db, _, e) = db();
        let t = Instant(50);
        let ty = Type::record_of([("who", Type::object("person"))]);
        let exact = Value::record([("who", Value::Oid(e))]);
        let wide = Value::record([("who", Value::Oid(e)), ("extra", Value::Int(1))]);
        let missing = Value::record([("extra", Value::Int(1))]);
        assert!(db.value_in_type(&exact, &ty, t));
        assert!(db.value_in_type(&wide, &ty, t));
        assert!(!db.value_in_type(&missing, &ty, t));
    }

    #[test]
    fn lists_and_sets_recurse() {
        let (db, p, e) = db();
        let t = Instant(50);
        assert!(db.value_in_type(
            &Value::list([Value::Oid(p), Value::Oid(e)]),
            &Type::list_of(Type::object("person")),
            t
        ));
        assert!(!db.value_in_type(
            &Value::list([Value::Int(1)]),
            &Type::list_of(Type::STRING),
            t
        ));
        // Null elements are fine (null is in every extension).
        assert!(db.value_in_type(
            &Value::set([Value::Null, Value::Oid(e)]),
            &Type::set_of(Type::object("employee")),
            t
        ));
        // A set value is not a list value.
        assert!(!db.value_in_type(
            &Value::set([Value::Int(1)]),
            &Type::list_of(Type::INTEGER),
            t
        ));
    }

    #[test]
    fn a_value_past_the_nesting_bound_belongs_to_no_type() {
        let (db, _, _) = db();
        let nest = |d: usize| (1..d).fold(Value::Int(1), |v, _| Value::set([v]));
        let with_extra = |d: usize| Value::record([("a", Value::Int(1)), ("b", nest(d))]);
        let t = Type::record_of([("a", Type::INTEGER)]);
        assert_eq!(with_extra(MAX_NESTING - 2).depth(), MAX_NESTING - 1);
        assert!(db.value_in_type(&with_extra(MAX_NESTING - 2), &t, Instant(50)));
        assert!(!db.value_in_type(&with_extra(MAX_NESTING - 1), &t, Instant(50)));
    }
}

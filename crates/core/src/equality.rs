//! Object equality (Definitions 5.7–5.10).

use std::collections::BTreeSet;

use tchimera_temporal::Instant;

use crate::database::Database;
use crate::error::Result;
use crate::ident::{Oid, OidBuildHasher};
use crate::value::Value;

/// The oid pairs a deep-equality exploration has assumed equal.
type PairSet = std::collections::HashSet<(Oid, Oid), OidBuildHasher>;

/// The four notions of object equality, ordered from strongest to weakest
/// (Section 5.3): identity ⇒ value ⇒ instantaneous-value ⇒ weak-value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Equality {
    /// Same object identifier (Definition 5.7).
    Identity,
    /// Same attribute record — for historical objects, the *whole history*
    /// of every temporal attribute (Definition 5.8).
    Value,
    /// Some instant at which the two snapshots coincide (Definition 5.9).
    Instantaneous,
    /// Some pair of instants (possibly different) at which the snapshots
    /// coincide (Definition 5.10).
    Weak,
}

impl Database {
    /// **Equality by identity** (Definition 5.7): `o1.i = o2.i`. Applies
    /// uniformly to historical and static objects.
    pub fn eq_identity(&self, a: Oid, b: Oid) -> bool {
        a == b
    }

    /// **Value equality** (Definition 5.8): `o1.v = o2.v` — equal
    /// attribute names and equal values; for temporal attributes the whole
    /// histories must be equal *as partial functions* (an open run and a
    /// closed run denoting the same function at `now` are equal).
    pub fn eq_value(&self, a: Oid, b: Oid) -> Result<bool> {
        let (oa, ob) = (self.object(a)?, self.object(b)?);
        let now = self.now();
        if oa.attrs.len() != ob.attrs.len() {
            return Ok(false);
        }
        for ((na, va), (nb, vb)) in oa.attrs.iter().zip(ob.attrs.iter()) {
            if na != nb {
                return Ok(false);
            }
            let equal = match (va, vb) {
                (Value::Temporal(ha), Value::Temporal(hb)) => ha.semantically_eq(hb, now),
                (x, y) => x == y,
            };
            if !equal {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// **Instantaneous-value equality** (Definition 5.9): there exists
    /// `t ∈ lifespan(o1) ∩ lifespan(o2)` with
    /// `snapshot(o1, t) = snapshot(o2, t)`. Returns a witness instant.
    ///
    /// Snapshots are undefined in the past for objects with static
    /// attributes (Section 5.3), so if either object has a static
    /// attribute only `t = now` is examined; otherwise snapshots are
    /// piecewise-constant, and it suffices to compare them at *event
    /// points* — run boundaries of either object's histories.
    pub fn eq_instantaneous(&self, a: Oid, b: Oid) -> Result<Option<Instant>> {
        let (oa, ob) = (self.object(a)?, self.object(b)?);
        let now = self.now();
        let common = oa
            .lifespan
            .resolve(now)
            .intersect(ob.lifespan.resolve(now));
        if common.is_empty() {
            return Ok(None);
        }
        if oa.has_static_attrs() || ob.has_static_attrs() {
            if !common.contains(now) {
                return Ok(None);
            }
            let (sa, sb) = (oa.snapshot(now, now)?, ob.snapshot(now, now)?);
            return Ok((sa == sb).then_some(now));
        }
        for t in self.event_points(a, b)? {
            if !common.contains(t) {
                continue;
            }
            if oa.snapshot(t, now)? == ob.snapshot(t, now)? {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    /// **Weak-value equality** (Definition 5.10): there exist
    /// `t' ∈ lifespan(o1)` and `t'' ∈ lifespan(o2)` with
    /// `snapshot(o1, t') = snapshot(o2, t'')`. Returns a witness pair.
    pub fn eq_weak(&self, a: Oid, b: Oid) -> Result<Option<(Instant, Instant)>> {
        let (oa, ob) = (self.object(a)?, self.object(b)?);
        let now = self.now();
        if oa.has_static_attrs() || ob.has_static_attrs() {
            // Only current snapshots are defined (Section 5.3).
            let (la, lb) = (oa.lifespan.resolve(now), ob.lifespan.resolve(now));
            if !la.contains(now) || !lb.contains(now) {
                return Ok(None);
            }
            let (sa, sb) = (oa.snapshot(now, now)?, ob.snapshot(now, now)?);
            return Ok((sa == sb).then_some((now, now)));
        }
        let pa = self.distinct_snapshots(a)?;
        let pb = self.distinct_snapshots(b)?;
        for (ta, sa) in &pa {
            for (tb, sb) in &pb {
                if sa == sb {
                    return Ok(Some((*ta, *tb)));
                }
            }
        }
        Ok(None)
    }

    /// **Deep value equality** (Section 5.3): like value equality, but
    /// oids reached through attribute values are compared by *recursively*
    /// comparing the referenced objects' values rather than by identity.
    /// The paper formalizes only shallow value equality here and refers to
    /// \[12\] for the deep variant; this follows the standard coinductive
    /// reading — cyclic reference structures compare equal when no finite
    /// exploration distinguishes them (the candidate pair set is the
    /// bisimulation).
    pub fn eq_deep_value(&self, a: Oid, b: Oid) -> Result<bool> {
        let mut assumed: PairSet = Default::default();
        self.deep_eq_objects(a, b, &mut assumed)
    }

    fn deep_eq_objects(
        &self,
        a: Oid,
        b: Oid,
        assumed: &mut PairSet,
    ) -> Result<bool> {
        if a == b || assumed.contains(&(a, b)) {
            return Ok(true);
        }
        // Coinductive hypothesis: assume equal while exploring.
        assumed.insert((a, b));
        let (oa, ob) = (self.object(a)?, self.object(b)?);
        let now = self.now();
        if oa.attrs.len() != ob.attrs.len() {
            return Ok(false);
        }
        for ((na, va), (nb, vb)) in oa.attrs.iter().zip(ob.attrs.iter()) {
            if na != nb || !self.deep_eq_values(va, vb, now, assumed)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn deep_eq_values(
        &self,
        a: &Value,
        b: &Value,
        now: Instant,
        assumed: &mut PairSet,
    ) -> Result<bool> {
        match (a, b) {
            (Value::Oid(x), Value::Oid(y)) => self.deep_eq_objects(*x, *y, assumed),
            (Value::Set(xs), Value::Set(ys)) | (Value::List(xs), Value::List(ys)) => {
                if xs.len() != ys.len() {
                    return Ok(false);
                }
                for (x, y) in xs.iter().zip(ys.iter()) {
                    if !self.deep_eq_values(x, y, now, assumed)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            (Value::Record(xs), Value::Record(ys)) => {
                if xs.len() != ys.len() {
                    return Ok(false);
                }
                for ((nx, x), (ny, y)) in xs.iter().zip(ys.iter()) {
                    if nx != ny || !self.deep_eq_values(x, y, now, assumed)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            (Value::Temporal(ha), Value::Temporal(hb)) => {
                let (pa, pb) = (ha.resolved_pairs(now), hb.resolved_pairs(now));
                if pa.len() != pb.len() {
                    return Ok(false);
                }
                for ((ia, va), (ib, vb)) in pa.iter().zip(pb.iter()) {
                    if ia != ib || !self.deep_eq_values(va, vb, now, assumed)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            (x, y) => Ok(x == y),
        }
    }

    /// Classify the strongest equality holding between two objects, if any.
    pub fn strongest_equality(&self, a: Oid, b: Oid) -> Result<Option<Equality>> {
        if self.eq_identity(a, b) {
            return Ok(Some(Equality::Identity));
        }
        if self.eq_value(a, b)? {
            return Ok(Some(Equality::Value));
        }
        if self.eq_instantaneous(a, b)?.is_some() {
            return Ok(Some(Equality::Instantaneous));
        }
        if self.eq_weak(a, b)?.is_some() {
            return Ok(Some(Equality::Weak));
        }
        Ok(None)
    }

    /// The instants at which either object's snapshot can change: run
    /// starts, instants after run ends, and lifespan starts, clamped to
    /// the union of both lifespans.
    fn event_points(&self, a: Oid, b: Oid) -> Result<BTreeSet<Instant>> {
        let now = self.now();
        let mut points = BTreeSet::new();
        for oid in [a, b] {
            let o = self.object(oid)?;
            points.insert(o.lifespan.start());
            let end = o.lifespan.end().resolve(now);
            points.insert(end);
            for v in o.attrs.values() {
                if let Value::Temporal(h) = v {
                    for e in h.entries() {
                        points.insert(e.start);
                        let run_end = e.end.resolve(now);
                        points.insert(run_end.next());
                    }
                }
            }
        }
        Ok(points)
    }

    /// The distinct snapshots of a fully-temporal object, with one witness
    /// instant each.
    fn distinct_snapshots(&self, oid: Oid) -> Result<Vec<(Instant, Value)>> {
        let o = self.object(oid)?;
        let now = self.now();
        let life = o.lifespan.resolve(now);
        let mut out: Vec<(Instant, Value)> = Vec::new();
        for t in self.event_points(oid, oid)? {
            if !life.contains(t) {
                continue;
            }
            let s = o.snapshot(t, now)?;
            if !out.iter().any(|(_, v)| v == &s) {
                out.push((t, s));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassDef;
    use crate::database::attrs;
    use crate::ident::ClassId;
    use crate::types::Type;

    /// A class of fully-temporal objects (scores over time).
    fn score_db() -> Database {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("player").attr("score", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        db
    }

    #[test]
    fn identity_is_oid_equality() {
        let mut db = score_db();
        let a = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(1))]))
            .unwrap();
        let b = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(1))]))
            .unwrap();
        assert!(db.eq_identity(a, a));
        assert!(!db.eq_identity(a, b));
        assert_eq!(db.strongest_equality(a, a).unwrap(), Some(Equality::Identity));
    }

    #[test]
    fn value_equality_requires_equal_histories() {
        let mut db = score_db();
        let a = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(1))]))
            .unwrap();
        let b = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(1))]))
            .unwrap();
        db.tick_by(10);
        assert!(db.eq_value(a, b).unwrap());
        db.set_attr(a, &"score".into(), Value::Int(5)).unwrap();
        assert!(!db.eq_value(a, b).unwrap());
        db.set_attr(b, &"score".into(), Value::Int(5)).unwrap();
        assert!(db.eq_value(a, b).unwrap());
        assert_eq!(db.strongest_equality(a, b).unwrap(), Some(Equality::Value));
    }

    #[test]
    fn paper_example_5_4_same_current_state_different_history() {
        // "two project objects having the same current value for all the
        // attributes are instantaneous (and thus, weak) value equal" — but
        // not value equal if their histories differ.
        let mut db = score_db();
        let a = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(1))]))
            .unwrap();
        let b = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(2))]))
            .unwrap();
        db.tick_by(10);
        db.set_attr(a, &"score".into(), Value::Int(9)).unwrap();
        db.set_attr(b, &"score".into(), Value::Int(9)).unwrap();
        db.tick_by(5);
        assert!(!db.eq_value(a, b).unwrap());
        let w = db.eq_instantaneous(a, b).unwrap();
        assert!(w.is_some());
        assert!(w.unwrap() >= Instant(10));
        assert_eq!(
            db.strongest_equality(a, b).unwrap(),
            Some(Equality::Instantaneous)
        );
    }

    #[test]
    fn weak_equality_at_different_instants() {
        let mut db = score_db();
        // a scores 7 during [0,4]; b scores 7 during [10,…].
        let a = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(7))]))
            .unwrap();
        db.tick_by(5);
        db.set_attr(a, &"score".into(), Value::Int(1)).unwrap();
        db.tick_by(5);
        let b = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(7))]))
            .unwrap();
        db.tick_by(5);
        // Never equal at the same instant…
        assert!(db.eq_instantaneous(a, b).unwrap().is_none());
        // …but weakly equal (t'=0..4, t''=10..).
        let w = db.eq_weak(a, b).unwrap().expect("weakly equal");
        assert!(w.0 < Instant(5));
        assert!(w.1 >= Instant(10));
        assert_eq!(db.strongest_equality(a, b).unwrap(), Some(Equality::Weak));
    }

    #[test]
    fn inequality() {
        let mut db = score_db();
        let a = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(1))]))
            .unwrap();
        let b = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(2))]))
            .unwrap();
        db.tick_by(3);
        assert!(db.eq_weak(a, b).unwrap().is_none());
        assert_eq!(db.strongest_equality(a, b).unwrap(), None);
    }

    #[test]
    fn objects_with_static_attrs_compare_at_now_only() {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("doc")
                .attr("title", Type::STRING)
                .attr("version", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        let a = db
            .create_object(
                &ClassId::from("doc"),
                attrs([("title", Value::str("x")), ("version", Value::Int(1))]),
            )
            .unwrap();
        db.tick_by(5);
        let b = db
            .create_object(
                &ClassId::from("doc"),
                attrs([("title", Value::str("x")), ("version", Value::Int(1))]),
            )
            .unwrap();
        // Versions now: a=1 (since 0), b=1 (since 5): snapshots at now are
        // equal even though histories differ.
        assert!(!db.eq_value(a, b).unwrap());
        assert_eq!(db.eq_instantaneous(a, b).unwrap(), Some(db.now()));
        assert_eq!(db.eq_weak(a, b).unwrap(), Some((db.now(), db.now())));
        // Change a's current version: no instant (= now) matches anymore.
        db.tick();
        db.set_attr(a, &"version".into(), Value::Int(2)).unwrap();
        assert!(db.eq_instantaneous(a, b).unwrap().is_none());
        assert!(db.eq_weak(a, b).unwrap().is_none());
    }

    #[test]
    fn implication_chain_spot_check() {
        // value ⇒ instantaneous ⇒ weak.
        let mut db = score_db();
        let a = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(3))]))
            .unwrap();
        let b = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(3))]))
            .unwrap();
        db.tick_by(7);
        assert!(db.eq_value(a, b).unwrap());
        assert!(db.eq_instantaneous(a, b).unwrap().is_some());
        assert!(db.eq_weak(a, b).unwrap().is_some());
    }

    #[test]
    fn deep_equality_follows_references() {
        let mut db = Database::new();
        db.define_class(ClassDef::new("node").attr("score", Type::INTEGER))
            .unwrap();
        db.define_class(
            ClassDef::new("team")
                .attr("lead", Type::object("node"))
                .attr("label", Type::STRING),
        )
        .unwrap();
        let n1 = db
            .create_object(&ClassId::from("node"), attrs([("score", Value::Int(7))]))
            .unwrap();
        let n2 = db
            .create_object(&ClassId::from("node"), attrs([("score", Value::Int(7))]))
            .unwrap();
        let n3 = db
            .create_object(&ClassId::from("node"), attrs([("score", Value::Int(9))]))
            .unwrap();
        let t1 = db
            .create_object(
                &ClassId::from("team"),
                attrs([("lead", Value::Oid(n1)), ("label", Value::str("x"))]),
            )
            .unwrap();
        let t2 = db
            .create_object(
                &ClassId::from("team"),
                attrs([("lead", Value::Oid(n2)), ("label", Value::str("x"))]),
            )
            .unwrap();
        let t3 = db
            .create_object(
                &ClassId::from("team"),
                attrs([("lead", Value::Oid(n3)), ("label", Value::str("x"))]),
            )
            .unwrap();
        // Shallow value equality distinguishes t1/t2 (different lead oids)…
        assert!(!db.eq_value(t1, t2).unwrap());
        // …deep equality identifies them (equal referenced values)…
        assert!(db.eq_deep_value(t1, t2).unwrap());
        // …but not t3 (lead has a different score).
        assert!(!db.eq_deep_value(t1, t3).unwrap());
        // Reflexive and consistent with identity.
        assert!(db.eq_deep_value(t1, t1).unwrap());
    }

    #[test]
    fn deep_equality_handles_cycles() {
        // Two self-referential objects: equal under the coinductive
        // reading, and the comparison terminates.
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("cell").attr("next", Type::temporal(Type::object("cell"))),
        )
        .unwrap();
        let a = db.create_object(&ClassId::from("cell"), crate::Attrs::new()).unwrap();
        let b = db.create_object(&ClassId::from("cell"), crate::Attrs::new()).unwrap();
        db.tick();
        // a → b → a (a two-cycle), compared against itself shifted.
        db.set_attr(a, &"next".into(), Value::Oid(b)).unwrap();
        db.set_attr(b, &"next".into(), Value::Oid(a)).unwrap();
        assert!(db.eq_deep_value(a, b).unwrap());
        // Break the symmetry with a third cell: a cycle vs a chain end.
        let c = db.create_object(&ClassId::from("cell"), crate::Attrs::new()).unwrap();
        db.tick();
        db.set_attr(b, &"next".into(), Value::Oid(c)).unwrap();
        // Now a → b → c(→null) while previously-compared structures
        // changed; histories differ (b's next has two runs, a's one), so
        // deep equality fails.
        assert!(!db.eq_deep_value(a, b).unwrap());
    }

    #[test]
    fn disjoint_lifespans_cannot_be_instantaneously_equal() {
        let mut db = score_db();
        let a = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(3))]))
            .unwrap();
        db.tick_by(5);
        db.terminate_object(a).unwrap();
        db.tick_by(5);
        let b = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(3))]))
            .unwrap();
        db.tick_by(5);
        assert!(db.eq_instantaneous(a, b).unwrap().is_none());
        // But weakly equal across time.
        assert!(db.eq_weak(a, b).unwrap().is_some());
    }
}

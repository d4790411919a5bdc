//! T_Chimera legal values (Section 3.2).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use tchimera_temporal::{Instant, TemporalValue};

use crate::ident::{AttrName, Oid};
use crate::types::BasicType;

/// A T_Chimera value — an element of `V`.
///
/// * `Null` is a legal value of every type (Definition 3.5).
/// * Basic values populate `dom(B)` for each basic type.
/// * `Time` values populate the domain `TIME` of the type `time`.
/// * Oids are values of object types (Section 3.2: "in T_Chimera oids in
///   `OI` are handled as values").
/// * Sets, lists and records are the structured values; sets and records
///   are kept canonical (sorted, sets deduplicated) so `Eq` coincides with
///   the mathematical equality of the denoted values — a complex value is
///   identified by the values of all its components (Section 2).
/// * `Temporal` values are partial functions from `TIME`, represented as
///   coalesced runs (Section 3.2).
///
/// `Value` implements a *total* order (reals compare via IEEE `total_cmp`)
/// so values can live in ordered collections and set canonicalization is
/// deterministic.
#[derive(Clone, Debug)]
pub enum Value {
    /// The null value, legal for every type.
    Null,
    /// An `integer` value.
    Int(i64),
    /// A `real` value.
    Real(f64),
    /// A `bool` value.
    Bool(bool),
    /// A `character` value.
    Char(char),
    /// A `string` value.
    Str(String),
    /// A `time` value.
    Time(Instant),
    /// A value of an object type: an object identifier.
    Oid(Oid),
    /// A set value, canonically sorted and deduplicated.
    Set(Vec<Value>),
    /// A list value (order and multiplicity significant).
    List(Vec<Value>),
    /// A record value with sorted, distinct field names.
    Record(Vec<(AttrName, Value)>),
    /// A temporal value: a partial function from `TIME` to values.
    Temporal(TemporalValue<Value>),
}

impl Value {
    /// Build a canonical set value (sorts and deduplicates).
    #[must_use]
    pub fn set<I: IntoIterator<Item = Value>>(items: I) -> Value {
        let mut v: Vec<Value> = items.into_iter().collect();
        v.sort();
        v.dedup();
        Value::Set(v)
    }

    /// Build a list value.
    #[must_use]
    pub fn list<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// Build a record value, sorting fields by name.
    ///
    /// # Panics
    /// Panics on duplicate field names.
    #[must_use]
    pub fn record<I, N>(fields: I) -> Value
    where
        I: IntoIterator<Item = (N, Value)>,
        N: Into<AttrName>,
    {
        let mut fs: Vec<(AttrName, Value)> =
            fields.into_iter().map(|(n, v)| (n.into(), v)).collect();
        fs.sort_by(|a, b| a.0.cmp(&b.0));
        for w in fs.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate record field {}", w[0].0);
        }
        Value::Record(fs)
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Build a temporal value from a history.
    #[must_use]
    pub fn temporal(h: TemporalValue<Value>) -> Value {
        Value::Temporal(h)
    }

    /// Nesting depth: 1 for a leaf value, one more per set, list, record
    /// or history around it (counting its deepest component). A value of
    /// a declared type nests no deeper than the type, except through a
    /// record's extra fields; see [`MAX_NESTING`](crate::MAX_NESTING).
    pub fn depth(&self) -> usize {
        fn deepest<'a>(xs: impl Iterator<Item = &'a Value>) -> usize {
            xs.map(Value::depth).max().unwrap_or(0)
        }
        match self {
            Value::Set(xs) | Value::List(xs) => 1 + deepest(xs.iter()),
            Value::Record(fs) => 1 + deepest(fs.iter().map(|(_, v)| v)),
            Value::Temporal(h) => 1 + deepest(h.entries().iter().map(|e| &e.value)),
            _ => 1,
        }
    }

    /// `true` for `Value::Null`.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The basic type of a basic value, if it is one.
    pub fn basic_type(&self) -> Option<BasicType> {
        match self {
            Value::Int(_) => Some(BasicType::Integer),
            Value::Real(_) => Some(BasicType::Real),
            Value::Bool(_) => Some(BasicType::Bool),
            Value::Char(_) => Some(BasicType::Character),
            Value::Str(_) => Some(BasicType::String),
            _ => None,
        }
    }

    /// Record field access.
    pub fn field(&self, name: &AttrName) -> Option<&Value> {
        match self {
            Value::Record(fs) => fs
                .binary_search_by(|(n, _)| n.cmp(name))
                .ok()
                .map(|i| &fs[i].1),
            _ => None,
        }
    }

    /// Mutable record field access.
    pub fn field_mut(&mut self, name: &AttrName) -> Option<&mut Value> {
        match self {
            Value::Record(fs) => fs
                .binary_search_by(|(n, _)| n.cmp(name))
                .ok()
                .map(|i| &mut fs[i].1),
            _ => None,
        }
    }

    /// The history inside a temporal value, if it is one.
    pub fn as_temporal(&self) -> Option<&TemporalValue<Value>> {
        match self {
            Value::Temporal(h) => Some(h),
            _ => None,
        }
    }

    /// Mutable history access.
    pub fn as_temporal_mut(&mut self) -> Option<&mut TemporalValue<Value>> {
        match self {
            Value::Temporal(h) => Some(h),
            _ => None,
        }
    }

    /// The oid inside an object value, if it is one.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Value::Oid(i) => Some(*i),
            _ => None,
        }
    }

    /// Collect every oid occurring in the value at instant `t` — the basis
    /// of the `ref` function (Table 3): the objects this value refers to at
    /// time `t`. For temporal components only the runs covering `t`
    /// contribute; for static components all oids contribute.
    pub fn oids_at(&self, t: Instant, now: Instant, out: &mut Vec<Oid>) {
        match self {
            Value::Oid(i) => out.push(*i),
            Value::Set(xs) | Value::List(xs) => {
                for x in xs {
                    x.oids_at(t, now, out);
                }
            }
            Value::Record(fs) => {
                for (_, v) in fs {
                    v.oids_at(t, now, out);
                }
            }
            Value::Temporal(h) => {
                if let Some(v) = h.value_at(t, now) {
                    v.oids_at(t, now, out);
                }
            }
            _ => {}
        }
    }

    /// Collect every oid occurring anywhere in the value, at any time.
    pub fn all_oids(&self, out: &mut Vec<Oid>) {
        match self {
            Value::Oid(i) => out.push(*i),
            Value::Set(xs) | Value::List(xs) => {
                for x in xs {
                    x.all_oids(out);
                }
            }
            Value::Record(fs) => {
                for (_, v) in fs {
                    v.all_oids(out);
                }
            }
            Value::Temporal(h) => {
                for e in h.entries() {
                    e.value.all_oids(out);
                }
            }
            _ => {}
        }
    }

    fn discriminant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Real(_) => 2,
            Value::Bool(_) => 3,
            Value::Char(_) => 4,
            Value::Str(_) => 5,
            Value::Time(_) => 6,
            Value::Oid(_) => 7,
            Value::Set(_) => 8,
            Value::List(_) => 9,
            Value::Record(_) => 10,
            Value::Temporal(_) => 11,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Real(a), Real(b)) => a.total_cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Char(a), Char(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Time(a), Time(b)) => a.cmp(b),
            (Oid(a), Oid(b)) => a.cmp(b),
            (Set(a), Set(b)) | (List(a), List(b)) => a.cmp(b),
            (Record(a), Record(b)) => a.cmp(b),
            (Temporal(a), Temporal(b)) => {
                // Compare run structure lexicographically.
                let ae = a.entries();
                let be = b.entries();
                for (x, y) in ae.iter().zip(be.iter()) {
                    let c = x
                        .start
                        .cmp(&y.start)
                        .then_with(|| match (x.end, y.end) {
                            (tchimera_temporal::TimeBound::Fixed(p), tchimera_temporal::TimeBound::Fixed(q)) => p.cmp(&q),
                            (tchimera_temporal::TimeBound::Fixed(_), tchimera_temporal::TimeBound::Now) => Ordering::Less,
                            (tchimera_temporal::TimeBound::Now, tchimera_temporal::TimeBound::Fixed(_)) => Ordering::Greater,
                            (tchimera_temporal::TimeBound::Now, tchimera_temporal::TimeBound::Now) => Ordering::Equal,
                        })
                        .then_with(|| x.value.cmp(&y.value));
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                ae.len().cmp(&be.len())
            }
            _ => self.discriminant_rank().cmp(&other.discriminant_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.discriminant_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Int(a) => a.hash(state),
            Value::Real(a) => a.to_bits().hash(state),
            Value::Bool(a) => a.hash(state),
            Value::Char(a) => a.hash(state),
            Value::Str(a) => a.hash(state),
            Value::Time(a) => a.hash(state),
            Value::Oid(a) => a.hash(state),
            Value::Set(xs) | Value::List(xs) => xs.hash(state),
            Value::Record(fs) => fs.hash(state),
            Value::Temporal(h) => {
                for e in h.entries() {
                    e.start.hash(state);
                    match e.end {
                        tchimera_temporal::TimeBound::Fixed(t) => {
                            0u8.hash(state);
                            t.hash(state);
                        }
                        tchimera_temporal::TimeBound::Now => 1u8.hash(state),
                    }
                    e.value.hash(state);
                }
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<char> for Value {
    fn from(v: char) -> Self {
        Value::Char(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<Oid> for Value {
    fn from(v: Oid) -> Self {
        Value::Oid(v)
    }
}
impl From<Instant> for Value {
    fn from(v: Instant) -> Self {
        Value::Time(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Char(v) => write!(f, "'{v}'"),
            Value::Str(v) => write!(f, "'{v}'"),
            Value::Time(v) => write!(f, "{v}"),
            Value::Oid(v) => write!(f, "{v}"),
            Value::Set(xs) => {
                f.write_str("{")?;
                for (k, x) in xs.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("}")
            }
            Value::List(xs) => {
                f.write_str("[")?;
                for (k, x) in xs.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
            Value::Record(fs) => {
                f.write_str("(")?;
                for (k, (n, v)) in fs.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{n}:{v}")?;
                }
                f.write_str(")")
            }
            Value::Temporal(h) => {
                f.write_str("{")?;
                for (k, e) in h.entries().iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "⟨[{},{}],{}⟩", e.start, e.end, e.value)?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchimera_temporal::Interval;

    #[test]
    fn sets_are_canonical() {
        let a = Value::set([Value::Int(3), Value::Int(1), Value::Int(3)]);
        let b = Value::set([Value::Int(1), Value::Int(3)]);
        assert_eq!(a, b);
        match &a {
            Value::Set(xs) => assert_eq!(xs.len(), 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn records_are_field_order_insensitive() {
        let a = Value::record([("x", Value::Int(1)), ("y", Value::Int(2))]);
        let b = Value::record([("y", Value::Int(2)), ("x", Value::Int(1))]);
        assert_eq!(a, b);
        assert_eq!(a.field(&AttrName::from("y")), Some(&Value::Int(2)));
        assert_eq!(a.field(&AttrName::from("z")), None);
    }

    #[test]
    #[should_panic(expected = "duplicate record field")]
    fn duplicate_record_fields_rejected() {
        let _ = Value::record([("x", Value::Int(1)), ("x", Value::Int(2))]);
    }

    #[test]
    fn reals_totally_ordered() {
        let nan = Value::Real(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Real(1.0) < Value::Real(2.0));
        let s = Value::set([Value::Real(f64::NAN), Value::Real(f64::NAN)]);
        match &s {
            Value::Set(xs) => assert_eq!(xs.len(), 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn paper_example_3_2_record() {
        // (name:'Bob', score:{⟨[1,100],40⟩,⟨[101,200],70⟩})
        let score = TemporalValue::from_pairs([
            (Interval::from_ticks(1, 100), Value::Int(40)),
            (Interval::from_ticks(101, 200), Value::Int(70)),
        ])
        .unwrap();
        let v = Value::record([
            ("name", Value::str("Bob")),
            ("score", Value::temporal(score)),
        ]);
        assert_eq!(
            v.to_string(),
            "(name:'Bob',score:{⟨[1,100],40⟩,⟨[101,200],70⟩})"
        );
    }

    #[test]
    fn oids_at_respects_time() {
        let h = TemporalValue::from_pairs([
            (Interval::from_ticks(1, 10), Value::Oid(Oid(1))),
            (Interval::from_ticks(11, 20), Value::Oid(Oid(2))),
        ])
        .unwrap();
        let v = Value::record([
            ("sub", Value::temporal(h)),
            ("boss", Value::Oid(Oid(9))),
        ]);
        let now = Instant(99);
        let mut out = Vec::new();
        v.oids_at(Instant(5), now, &mut out);
        out.sort();
        assert_eq!(out, vec![Oid(1), Oid(9)]);
        out.clear();
        v.oids_at(Instant(15), now, &mut out);
        out.sort();
        assert_eq!(out, vec![Oid(2), Oid(9)]);
        out.clear();
        v.oids_at(Instant(50), now, &mut out);
        assert_eq!(out, vec![Oid(9)]);
        out.clear();
        v.all_oids(&mut out);
        out.sort();
        assert_eq!(out, vec![Oid(1), Oid(2), Oid(9)]);
    }

    #[test]
    fn mixed_kind_ordering_is_total() {
        let mut vs = vec![
            Value::Str("a".into()),
            Value::Null,
            Value::Int(1),
            Value::Bool(true),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Int(1),
                Value::Bool(true),
                Value::Str("a".into())
            ]
        );
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::hash_map::DefaultHasher;
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        let a = Value::set([Value::Int(3), Value::Int(1)]);
        let b = Value::set([Value::Int(1), Value::Int(3), Value::Int(3)]);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn display_basics() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::list([Value::Int(1), Value::Int(2)]).to_string(), "[1,2]");
        assert_eq!(Value::Char('x').to_string(), "'x'");
        assert_eq!(Value::Time(Instant(5)).to_string(), "5");
        assert_eq!(Value::from(Oid(3)).to_string(), "i3");
    }

    #[test]
    fn accessors() {
        let mut v = Value::record([("a", Value::Int(1))]);
        *v.field_mut(&AttrName::from("a")).unwrap() = Value::Int(2);
        assert_eq!(v.field(&AttrName::from("a")), Some(&Value::Int(2)));
        assert_eq!(Value::Int(1).basic_type(), Some(BasicType::Integer));
        assert_eq!(Value::Null.basic_type(), None);
        assert!(Value::Null.is_null());
        assert_eq!(Value::Oid(Oid(1)).as_oid(), Some(Oid(1)));
        assert_eq!(Value::Int(1).as_oid(), None);
        let t = Value::temporal(TemporalValue::starting_at(Instant(1), Value::Int(1)));
        assert!(t.as_temporal().is_some());
        assert!(Value::Int(1).as_temporal().is_none());
    }
}

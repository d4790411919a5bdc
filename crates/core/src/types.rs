//! The T_Chimera type system (Definitions 3.1–3.4).

use std::fmt;

use crate::ident::{AttrName, ClassId};

/// The predefined basic value types `BVT` (Section 3.1). The paper requires
/// at least `integer`, `real`, `bool`, `character` and `string`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BasicType {
    /// `integer`
    Integer,
    /// `real`
    Real,
    /// `bool`
    Bool,
    /// `character`
    Character,
    /// `string`
    String,
}

impl BasicType {
    /// All basic types, in declaration order.
    pub const ALL: [BasicType; 5] = [
        BasicType::Integer,
        BasicType::Real,
        BasicType::Bool,
        BasicType::Character,
        BasicType::String,
    ];

    /// The Chimera name of the type.
    pub fn name(self) -> &'static str {
        match self {
            BasicType::Integer => "integer",
            BasicType::Real => "real",
            BasicType::Bool => "bool",
            BasicType::Character => "character",
            BasicType::String => "string",
        }
    }
}

impl fmt::Display for BasicType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A T_Chimera type (Definition 3.4).
///
/// The grammar is:
///
/// * `time` — the temporal basic type (T_Chimera extends `BVT` with it);
/// * the basic value types (Definition 3.2);
/// * object types: every class identifier is a type (Definition 3.1);
/// * `set-of(T)`, `list-of(T)`, `record-of(a1:T1,…,an:Tn)` — structured
///   types (Definitions 3.2 and 3.4 allow temporal component types);
/// * `temporal(T)` for every *Chimera* type `T` (Definition 3.3) — note
///   temporal types do not nest and `temporal(time)` is not a type; this is
///   enforced by [`Type::is_well_formed`].
///
/// Record fields are kept sorted by attribute name so structural equality
/// of types is name-set insensitive to declaration order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Type {
    /// The basic type `time` (Section 3.1).
    Time,
    /// A predefined basic value type.
    Basic(BasicType),
    /// An object type: a class identifier used as a type (Definition 3.1).
    Object(ClassId),
    /// `set-of(T)`.
    Set(Box<Type>),
    /// `list-of(T)`.
    List(Box<Type>),
    /// `record-of(a1:T1, …, an:Tn)` with distinct, sorted field names.
    Record(Vec<(AttrName, Type)>),
    /// `temporal(T)` — instances are partial functions from `time` to `T`
    /// (Definition 3.3).
    Temporal(Box<Type>),
}

impl Type {
    /// Shorthand for `Type::Basic(BasicType::Integer)`.
    pub const INTEGER: Type = Type::Basic(BasicType::Integer);
    /// Shorthand for `Type::Basic(BasicType::Real)`.
    pub const REAL: Type = Type::Basic(BasicType::Real);
    /// Shorthand for `Type::Basic(BasicType::Bool)`.
    pub const BOOL: Type = Type::Basic(BasicType::Bool);
    /// Shorthand for `Type::Basic(BasicType::Character)`.
    pub const CHARACTER: Type = Type::Basic(BasicType::Character);
    /// Shorthand for `Type::Basic(BasicType::String)`.
    pub const STRING: Type = Type::Basic(BasicType::String);

    /// Build an object type from anything nameable as a class.
    pub fn object(c: impl Into<ClassId>) -> Type {
        Type::Object(c.into())
    }

    /// Build `set-of(t)`.
    #[must_use]
    pub fn set_of(t: Type) -> Type {
        Type::Set(Box::new(t))
    }

    /// Build `list-of(t)`.
    #[must_use]
    pub fn list_of(t: Type) -> Type {
        Type::List(Box::new(t))
    }

    /// Build `record-of(fields)`, sorting fields by name.
    ///
    /// # Panics
    /// Panics if two fields share a name (Definition 3.2 requires distinct
    /// names).
    #[must_use]
    pub fn record_of<I, N>(fields: I) -> Type
    where
        I: IntoIterator<Item = (N, Type)>,
        N: Into<AttrName>,
    {
        let mut fs: Vec<(AttrName, Type)> =
            fields.into_iter().map(|(n, t)| (n.into(), t)).collect();
        fs.sort_by(|a, b| a.0.cmp(&b.0));
        for w in fs.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate record field {}", w[0].0);
        }
        Type::Record(fs)
    }

    /// Build `temporal(t)`.
    #[must_use]
    pub fn temporal(t: Type) -> Type {
        Type::Temporal(Box::new(t))
    }

    /// `true` if the type is a temporal type (an element of `TT`).
    #[inline]
    pub fn is_temporal(&self) -> bool {
        matches!(self, Type::Temporal(_))
    }

    /// The function `T⁻ : TT → CT` (Section 3.1): the static type
    /// corresponding to a temporal type. `None` when the type is not
    /// temporal.
    ///
    /// For example `T⁻(temporal(integer)) = integer`.
    pub fn strip_temporal(&self) -> Option<&Type> {
        match self {
            Type::Temporal(t) => Some(t),
            _ => None,
        }
    }

    /// `true` if the type belongs to the *Chimera* fragment `CT` — no
    /// `time`, no temporal constructor anywhere (Definition 3.2).
    pub fn is_chimera(&self) -> bool {
        match self {
            Type::Time | Type::Temporal(_) => false,
            Type::Basic(_) | Type::Object(_) => true,
            Type::Set(t) | Type::List(t) => t.is_chimera(),
            Type::Record(fs) => fs.iter().all(|(_, t)| t.is_chimera()),
        }
    }

    /// `true` if the type conforms to Definition 3.4:
    ///
    /// * `temporal(T)` requires `T ∈ CT` (Definition 3.3), so temporal
    ///   types never nest and `temporal(time)` is ill-formed;
    /// * record fields are distinct (enforced structurally);
    /// * components are recursively well-formed.
    pub fn is_well_formed(&self) -> bool {
        match self {
            Type::Time | Type::Basic(_) | Type::Object(_) => true,
            Type::Set(t) | Type::List(t) => t.is_well_formed(),
            Type::Record(fs) => {
                fs.windows(2).all(|w| w[0].0 < w[1].0)
                    && fs.iter().all(|(_, t)| t.is_well_formed())
            }
            Type::Temporal(t) => t.is_chimera(),
        }
    }

    /// All class identifiers referenced by the type (used to validate type
    /// definitions against the schema).
    pub fn referenced_classes(&self) -> Vec<&ClassId> {
        let mut out = Vec::new();
        self.collect_classes(&mut out);
        out
    }

    fn collect_classes<'a>(&'a self, out: &mut Vec<&'a ClassId>) {
        match self {
            Type::Object(c) => out.push(c),
            Type::Set(t) | Type::List(t) | Type::Temporal(t) => t.collect_classes(out),
            Type::Record(fs) => {
                for (_, t) in fs {
                    t.collect_classes(out);
                }
            }
            Type::Time | Type::Basic(_) => {}
        }
    }

    /// Field lookup in a record type.
    pub fn record_field(&self, name: &AttrName) -> Option<&Type> {
        match self {
            Type::Record(fs) => fs
                .binary_search_by(|(n, _)| n.cmp(name))
                .ok()
                .map(|i| &fs[i].1),
            _ => None,
        }
    }

    /// Nesting depth: 1 for a leaf type, one more per constructor around
    /// it (a record counts its deepest field). A declared type nests less
    /// than [`MAX_NESTING`] levels.
    pub fn depth(&self) -> usize {
        match self {
            Type::Time | Type::Basic(_) | Type::Object(_) => 1,
            Type::Set(t) | Type::List(t) | Type::Temporal(t) => 1 + t.depth(),
            Type::Record(fs) => 1 + fs.iter().map(|(_, t)| t.depth()).max().unwrap_or(0),
        }
    }

    /// Structural size (number of constructor nodes); used by benchmarks
    /// and fuzzers to bound generated types.
    pub fn size(&self) -> usize {
        match self {
            Type::Time | Type::Basic(_) | Type::Object(_) => 1,
            Type::Set(t) | Type::List(t) | Type::Temporal(t) => 1 + t.size(),
            Type::Record(fs) => 1 + fs.iter().map(|(_, t)| t.size()).sum::<usize>(),
        }
    }
}

/// The nesting bound of the model: a declared type, and a value given to
/// a write, nest fewer levels ([`Type::depth`], [`Value::depth`]), so a
/// stored value — a history around such a value included — nests at most
/// this many. The storage codec refuses deeper input instead of recursing
/// into it, and every state the model accepts stays decodable.
///
/// [`Value::depth`]: crate::Value::depth
pub const MAX_NESTING: usize = 64;

impl From<BasicType> for Type {
    fn from(b: BasicType) -> Self {
        Type::Basic(b)
    }
}

impl From<ClassId> for Type {
    fn from(c: ClassId) -> Self {
        Type::Object(c)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Time => f.write_str("time"),
            Type::Basic(b) => write!(f, "{b}"),
            Type::Object(c) => write!(f, "{c}"),
            Type::Set(t) => write!(f, "set-of({t})"),
            Type::List(t) => write!(f, "list-of({t})"),
            Type::Record(fs) => {
                f.write_str("record-of(")?;
                for (k, (n, t)) in fs.iter().enumerate() {
                    if k > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{n}:{t}")?;
                }
                f.write_str(")")
            }
            Type::Temporal(t) => write!(f, "temporal({t})"),
        }
    }
}

impl fmt::Debug for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_3_1_types_are_well_formed() {
        // time
        assert!(Type::Time.is_well_formed());
        // temporal(integer)
        assert!(Type::temporal(Type::INTEGER).is_well_formed());
        // list-of(boolean)
        assert!(Type::list_of(Type::BOOL).is_well_formed());
        // temporal(set-of(project))
        assert!(Type::temporal(Type::set_of(Type::object("project"))).is_well_formed());
        // record-of(task:temporal(project),startbudget:real,endbudget:real)
        let r = Type::record_of([
            ("task", Type::temporal(Type::object("project"))),
            ("startbudget", Type::REAL),
            ("endbudget", Type::REAL),
        ]);
        assert!(r.is_well_formed());
    }

    #[test]
    fn temporal_types_do_not_nest() {
        // Definition 3.3: temporal(T) requires T ∈ CT.
        assert!(!Type::temporal(Type::temporal(Type::INTEGER)).is_well_formed());
        assert!(!Type::temporal(Type::Time).is_well_formed());
        assert!(!Type::temporal(Type::set_of(Type::temporal(Type::INTEGER))).is_well_formed());
        // But temporal inside structured types is fine (Definition 3.4).
        assert!(Type::set_of(Type::temporal(Type::INTEGER)).is_well_formed());
    }

    #[test]
    fn t_minus_strips_one_temporal_layer() {
        let t = Type::temporal(Type::INTEGER);
        assert_eq!(t.strip_temporal(), Some(&Type::INTEGER));
        assert_eq!(Type::INTEGER.strip_temporal(), None);
    }

    #[test]
    fn chimera_fragment() {
        assert!(Type::INTEGER.is_chimera());
        assert!(Type::set_of(Type::object("person")).is_chimera());
        assert!(!Type::Time.is_chimera());
        assert!(!Type::record_of([("a", Type::temporal(Type::INTEGER))]).is_chimera());
    }

    #[test]
    fn record_fields_sorted_and_distinct() {
        let r = Type::record_of([("b", Type::INTEGER), ("a", Type::REAL)]);
        match &r {
            Type::Record(fs) => {
                assert_eq!(fs[0].0, AttrName::from("a"));
                assert_eq!(fs[1].0, AttrName::from("b"));
            }
            _ => unreachable!(),
        }
        assert_eq!(r.record_field(&AttrName::from("a")), Some(&Type::REAL));
        assert_eq!(r.record_field(&AttrName::from("z")), None);
        // Field order does not affect equality.
        assert_eq!(
            Type::record_of([("a", Type::REAL), ("b", Type::INTEGER)]),
            r
        );
    }

    #[test]
    #[should_panic(expected = "duplicate record field")]
    fn duplicate_fields_rejected() {
        let _ = Type::record_of([("a", Type::INTEGER), ("a", Type::REAL)]);
    }

    #[test]
    fn display_matches_paper_notation() {
        let t = Type::record_of([
            ("task", Type::temporal(Type::object("project"))),
            ("startbudget", Type::REAL),
        ]);
        assert_eq!(
            t.to_string(),
            "record-of(startbudget:real,task:temporal(project))"
        );
        assert_eq!(Type::set_of(Type::INTEGER).to_string(), "set-of(integer)");
        assert_eq!(Type::list_of(Type::BOOL).to_string(), "list-of(bool)");
    }

    #[test]
    fn referenced_classes_collects_all() {
        let t = Type::record_of([
            ("task", Type::temporal(Type::object("project"))),
            ("people", Type::set_of(Type::object("person"))),
        ]);
        let mut cs: Vec<String> = t
            .referenced_classes()
            .into_iter()
            .map(|c| c.to_string())
            .collect();
        cs.sort();
        assert_eq!(cs, vec!["person", "project"]);
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(Type::INTEGER.size(), 1);
        assert_eq!(Type::temporal(Type::set_of(Type::INTEGER)).size(), 3);
    }
}

//! Identifiers: object identifiers, class identifiers, attribute and method
//! names.
//!
//! The paper postulates a set `OI` of object identifiers, a set `CI` of
//! class identifiers (class names), a set `AN` of attribute names and a set
//! `MN` of method names (Section 3.1).

use std::fmt;
use std::sync::Arc;

/// A system-assigned object identifier (an element of `OI`).
///
/// The oid is assigned on object creation and is immutable for the lifetime
/// of the object (Section 2); it is the object's *essence* — its one
/// time-invariant property (Section 5.2). Oids are handled as values: an oid
/// is a value of an object type (Section 3.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid(pub u64);

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// The hasher of every map and set keyed by oids: one multiply-rotate
/// step per word (the FxHash mix). The engine assigns oids densely from
/// 0 and a value can only reference an existing object, so no client
/// chooses these keys and std's keyed SipHash buys nothing here; keys a
/// client does choose (attribute values, class names, query texts) keep
/// std's `RandomState`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct OidHasher(u64);

impl OidHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl std::hash::Hasher for OidHasher {
    /// Not reached by oid keys (an `Oid` hashes as one `u64`); a byte
    /// per word keeps it correct for any other key.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(u64::from(b));
        }
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`OidHasher`]s.
pub(crate) type OidBuildHasher = std::hash::BuildHasherDefault<OidHasher>;
/// A hash map keyed by oids, hashed as integers ([`OidHasher`]).
pub(crate) type OidMap<V> = std::collections::HashMap<Oid, V, OidBuildHasher>;
/// A hash set of oids, hashed as integers ([`OidHasher`]).
pub(crate) type OidSet = std::collections::HashSet<Oid, OidBuildHasher>;

/// A cheaply-cloneable interned name. Backing type for class identifiers,
/// attribute names and method names.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// View the name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol(Arc::from(s))
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol(Arc::from(s))
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

macro_rules! name_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub Symbol);

        impl $name {
            /// View the name as a string slice.
            #[inline]
            pub fn as_str(&self) -> &str {
                self.0.as_str()
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name(Symbol::from(s))
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> Self {
                $name(Symbol::from(s))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

name_type! {
    /// A class identifier (an element of `CI`); class names double as
    /// object types (Definition 3.1).
    ClassId
}

name_type! {
    /// An attribute name (an element of `AN`).
    AttrName
}

name_type! {
    /// A method name (an element of `MN`).
    MethodName
}

impl ClassId {
    /// The identifier of the metaclass corresponding to this class — each
    /// class is the unique instance of its metaclass (Definition 4.1, the
    /// `mc` component; paper Example 4.1 uses `m-project` for `project`).
    #[must_use]
    pub fn metaclass(&self) -> ClassId {
        ClassId::from(format!("m-{}", self.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_display() {
        assert_eq!(Oid(7).to_string(), "i7");
        assert_eq!(format!("{:?}", Oid(7)), "i7");
    }

    #[test]
    fn names_compare_by_content() {
        let a = ClassId::from("project");
        let b = ClassId::from(String::from("project"));
        assert_eq!(a, b);
        assert!(ClassId::from("a") < ClassId::from("b"));
        assert_eq!(a.as_str(), "project");
    }

    #[test]
    fn metaclass_naming_follows_paper() {
        assert_eq!(
            ClassId::from("project").metaclass(),
            ClassId::from("m-project")
        );
    }

    #[test]
    fn symbols_are_cheap_to_clone() {
        let s = Symbol::from("participants");
        let t = s.clone();
        assert_eq!(s, t);
        assert_eq!(t.to_string(), "participants");
    }
}

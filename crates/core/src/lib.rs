//! # tchimera-core
//!
//! An executable implementation of **T_Chimera** — the formal temporal
//! object-oriented data model of Bertino, Ferrari and Guerrini (*A Formal
//! Temporal Object-Oriented Data Model*, EDBT 1996).
//!
//! The crate realizes every formal artifact of the paper:
//!
//! * **Types and values** (Section 3): [`Type`] (Definitions 3.1–3.4),
//!   [`Value`], type extensions `[[T]]_t` ([`Database::value_in_type`],
//!   Definition 3.5) and the typing rules ([`Database::infer_type`],
//!   Definition 3.6, Theorems 3.1–3.2).
//! * **Classes** (Section 4): [`Class`], [`ClassDef`], c-attributes,
//!   metaclasses, structural/historical/static types, extents.
//! * **Objects** (Section 5): [`Object`], lifespans, class histories,
//!   `h_state`/`s_state`/`snapshot`, consistency (Definitions 5.2–5.6),
//!   the four equality notions (Definitions 5.7–5.10).
//! * **Inheritance** (Section 6): subtyping (Definition 6.1), attribute
//!   refinement (Rule 6.1), substitutability by coercion, extent inclusion
//!   and the invariants (5.1, 5.2, 6.1, 6.2).
//!
//! The [`Database`] owns the schema, the objects and the logical clock and
//! exposes the model functions of the paper's Table 3.
//!
//! ```
//! use tchimera_core::{attrs, Attrs, ClassDef, ClassId, Database, Type, Value};
//!
//! let mut db = Database::new();
//! db.define_class(
//!     ClassDef::new("person")
//!         .immutable_attr("name", Type::temporal(Type::STRING))
//!         .attr("address", Type::STRING),
//! ).unwrap();
//! let i = db.create_object(
//!     &ClassId::from("person"),
//!     attrs([("name", Value::str("Bob")), ("address", Value::str("Milano"))]),
//! ).unwrap();
//! db.tick();
//! assert_eq!(db.attr_now(i, &"name".into()).unwrap(), Value::str("Bob"));
//! # let _: Attrs = Attrs::new();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod admission;
mod attr_index;
mod capabilities;
mod class;
mod consistency;
mod constraints;
mod database;
mod equality;
mod error;
mod extension;
mod extent_index;
mod ident;
mod inheritance;
mod invariants;
mod object;
mod observability;
mod ref_index;
mod schema;
mod scrub;
mod state;
mod subtyping;
mod types;
mod typing;
mod value;

pub use admission::{Admission, AdmissionPermit, DEFAULT_MAX_CONCURRENT_QUERIES};
pub use capabilities::{Capabilities, CAPABILITIES};
pub use class::{AttrDecl, AttrKind, Class, ClassDef, ClassKind, MethodSig};
pub use consistency::{check_oid_uniqueness, ConsistencyError, ConsistencyReport};
pub use constraints::{Constraint, ConstraintViolation, Quantifier};
pub use database::{attrs, Attrs, Database};
pub use equality::Equality;
pub use error::{ModelError, Result};
pub use ident::{AttrName, ClassId, MethodName, Oid, Symbol};
pub use invariants::{InvariantId, InvariantViolation};
pub use object::Object;
pub use observability::{touch_metrics, CORE_METRICS};
pub use schema::Schema;
#[cfg(any(test, feature = "testing"))]
pub use scrub::{MemFault, SimMem};
pub use scrub::{Quarantine, ScrubFinding, ScrubReport};
pub use state::{ClassState, DatabaseState, StateError};
pub use types::{BasicType, Type};
pub use value::Value;

// Re-export the observability substrate: [`Database::metrics`] and
// [`Database::take_trace`] speak its types.
pub use tchimera_obs as obs;

// Re-export the temporal substrate: its types appear throughout the API.
pub use tchimera_temporal::{
    HistoryError, Instant, Interval, IntervalSet, Lifespan, TemporalEntry, TemporalValue,
    TimeBound,
};

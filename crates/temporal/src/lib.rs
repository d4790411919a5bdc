//! # tchimera-temporal
//!
//! Discrete time-domain substrate for the T_Chimera temporal object-oriented
//! data model (Bertino, Ferrari, Guerrini — *A Formal Temporal
//! Object-Oriented Data Model*, EDBT 1996).
//!
//! The paper postulates a time domain `TIME = {0, 1, …, now, …}` isomorphic
//! to the naturals, with a distinguished, *moving* constant `now` denoting
//! the current time (Section 3.2). This crate provides:
//!
//! * [`Instant`] — a point of the discrete time domain.
//! * [`TimeBound`] — an interval endpoint that is either a fixed instant or
//!   the symbolic, moving `now`.
//! * [`Interval`] — a closed interval `[t1, t2]` of consecutive instants,
//!   including the paper's *null interval* `[]`.
//! * [`IntervalSet`] — a canonical set of disjoint intervals, the paper's
//!   "compact notation for the set of time instants included in these
//!   intervals".
//! * [`Lifespan`] — a contiguous interval, possibly still open at `now`,
//!   used for object and class lifespans (Sections 4 and 5).
//! * [`TemporalValue`] — the value of a temporal type `temporal(T)`: a
//!   partial function from `TIME` to values, represented canonically as
//!   maximally-coalesced `⟨interval, value⟩` pairs (Section 3.2).
//! * [`PointHistory`] — the naive per-instant representation `{(t, f(t))}`
//!   that the paper's coalesced representation improves upon; kept as the
//!   baseline for the representation benchmark (experiment E4).
//!
//! Everything here is deterministic, allocation-conscious and purely
//! in-memory; persistence lives in `tchimera-storage`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod instant;
mod interval;
mod interval_set;
mod lifespan;
mod history;
mod point_history;

pub use instant::{Instant, TimeBound};
pub use interval::Interval;
pub use interval_set::IntervalSet;
pub use lifespan::Lifespan;
pub use history::{HistoryError, TemporalEntry, TemporalValue};
pub use point_history::PointHistory;

//! # tchimera-storage
//!
//! Persistence substrate for the T_Chimera temporal object-oriented data
//! model: the paper (Bertino, Ferrari, Guerrini — EDBT 1996) defers
//! "implementation issues" to future work; this crate supplies them.
//!
//! * [`codec`] — a compact, dependency-free binary codec for every model
//!   type (varints, tagged unions, canonical round-trips).
//! * [`op`] — the logged [`op::Operation`] vocabulary mirroring every
//!   database mutation, with a single `apply` path shared by online
//!   execution and recovery.
//! * [`log`] — the CRC-framed append-only [`log::OpLog`], the one durable
//!   file: an optional checkpoint image, then op records; torn-tail
//!   truncation, damage reporting, and fsync failures written again.
//! * [`vfs`] — the pluggable [`vfs::Vfs`] I/O layer: [`vfs::StdFs`] for
//!   real disks and the deterministic fault-injection [`vfs::SimFs`]
//!   (fail at the Nth write, tear unsynced data, flip bits, simulate
//!   crashes that drop everything not fsynced).
//! * [`image`] — the checkpoint image: the full database state as log
//!   records, with which a compacted log begins.
//! * [`engine`] — [`engine::PersistentDatabase`], an event-sourced,
//!   write-ahead-logged database with image + suffix-replay recovery
//!   and state digests. (T_Chimera state is a pure fold of its history —
//!   the model's own valid-time semantics make event sourcing the natural
//!   storage design.)
//! * [`txn`] — atomic multi-operation [`txn::Transaction`]s staged on a
//!   shadow database and committed as a single CRC-framed log record.
//! * [`resilience`] — fault classification ([`resilience::FaultKind`]),
//!   deterministic bounded retry ([`resilience::RETRY_ATTEMPTS`]) and the
//!   read-only degradation [`resilience::CircuitBreaker`].
//! * [`repl`] — log-shipping replication: a [`repl::Primary`] streams
//!   CRC-framed log records (its whole log file past compaction) over
//!   a pluggable [`repl::Transport`] to a digest-verified
//!   [`repl::Replica`], with deterministic term-based failover and a
//!   seedable fault-injecting [`repl::SimTransport`].
//! * `sim` (feature `testing`) — one seeded simulated world of nodes on
//!   `SimFs`, `SimTransport` and `SimMem`, a session generator over the
//!   whole op vocabulary, and the table of fault scenarios it runs.
//! * [`observability`] — the storage half of the metric vocabulary
//!   (`storage.log.*`, `storage.snapshot.*`, `storage.recovery.*`, …)
//!   registered eagerly so snapshots always name it; see `DESIGN.md` §9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
#[doc(hidden)]
pub mod driver_compat;
pub mod engine;
pub mod image;
pub mod log;
pub mod observability;
pub mod op;
pub mod repl;
pub mod resilience;
#[cfg(feature = "testing")]
pub mod sim;
pub mod txn;
pub mod vfs;

pub use codec::{Codec, CodecError, Reader};
#[doc(hidden)]
pub use driver_compat::{
    load_snapshot, snapshot_path, write_snapshot, LogScan, Snapshot, SnapshotError,
};
pub use engine::{
    digest_database, diverged_classes, EngineError, PersistentDatabase, StorageScrubReport,
};
pub use log::{DamageReason, LogError, OpLog, TailDamage};
pub use observability::{touch_metrics, REPL_METRICS, STORAGE_METRICS};
pub use op::{Operation, ReplayError};
pub use repl::{
    ChannelTransport, Frame, Primary, Replica, ReplicaError, SimNetConfig, SimTransport,
    Transport, WireError,
};
pub use resilience::{BreakerState, CircuitBreaker, FaultKind};
pub use txn::Transaction;
pub use vfs::{SimFs, StdFs, TearMode, Vfs, VfsFile};

//! The persistent database engine: a [`Database`] whose mutations are
//! write-ahead logged and recovered by replay.
//!
//! T_Chimera state is a pure fold of its operation history (histories are
//! append-only, the past immutable — valid-time semantics), so the engine
//! is event-sourced: recovery replays the log through the *same*
//! [`Operation::apply`] path used online, and a state digest cross-checks
//! that a recovered database matches the one that wrote the log.
//!
//! # Checkpoints and recovery
//!
//! [`PersistentDatabase::checkpoint`] installs a checksummed snapshot of
//! the full state (atomically: temp → fsync → rename → dir fsync) and
//! compacts the log to an empty file whose header records how many
//! operations the snapshot covers. Recovery then follows a ladder that
//! can lose *time* but never *correctness*:
//!
//! 1. snapshot loads (magic, length, CRC over every byte), decodes and
//!    its image imports → start there, replay only the log suffix. The
//!    recorded digest is not re-derived here: the CRC already vouches for
//!    the bytes, and walking the state against the digest is the
//!    scrubber's job ([`PersistentDatabase::scrub_cycle`]), not a cost of
//!    every open;
//! 2. snapshot missing/corrupt but the log was never compacted (base 0)
//!    → full-log replay from the empty database;
//! 3. snapshot unusable *and* the log prefix was compacted away → a loud
//!    error. The engine refuses to guess: it never serves a state it
//!    cannot prove is a fold of the recorded history.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tchimera_core::{
    AttrName, Attrs, ClassDef, ClassId, Database, DatabaseState, Instant, ModelError, Oid,
    StateError, Value,
};

use crate::log::{LogError, LogScan, OpLog};
use crate::op::{Operation, ReplayError};
use crate::resilience::{retry, BreakerState, CircuitBreaker, FaultKind, RetryPolicy};
use crate::snapshot::{load_snapshot, write_snapshot, Snapshot, SnapshotError};
use crate::txn::Transaction;
use crate::vfs::{StdFs, Vfs};

/// Errors raised by the persistent engine.
#[derive(Debug)]
pub enum EngineError {
    /// The model rejected the operation (nothing was logged).
    Model(ModelError),
    /// The log failed.
    Log(LogError),
    /// Recovery replay failed.
    Replay(ReplayError),
    /// A snapshot state image was structurally invalid.
    State(StateError),
    /// The snapshot could not be loaded — and, because the log was
    /// compacted, there is no full history to fall back to.
    Snapshot(SnapshotError),
    /// A transaction-time state below the compaction horizon was
    /// requested; those operations were folded into the snapshot and no
    /// longer exist individually.
    Compacted {
        /// The requested operation count.
        requested: usize,
        /// The earliest reconstructible operation count.
        base: u64,
    },
    /// A write-path I/O failure that survived the retry policy.
    Write {
        /// Whether the final failure was transient or permanent.
        fault: FaultKind,
        /// Attempts performed (including the first).
        attempts: u32,
        /// The final error.
        source: LogError,
    },
    /// The engine is degraded to read-only: the circuit breaker is open.
    /// Reads, metrics, and recovery inspection keep working; call
    /// [`PersistentDatabase::try_reset`] once the fault is cleared.
    ReadOnly {
        /// Consecutive surfaced write failures that opened the breaker.
        consecutive_failures: u32,
    },
    /// The class is quarantined by the integrity scrubber: corruption
    /// was detected and no repair rung (index rebuild, op-log
    /// re-materialization, replica pull) could restore a clean state.
    /// Every other class keeps serving reads and writes.
    Quarantined {
        /// The quarantined class.
        class: tchimera_core::ClassId,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Model(e) => write!(f, "{e}"),
            EngineError::Log(e) => write!(f, "{e}"),
            EngineError::Replay(e) => write!(f, "{e}"),
            EngineError::State(e) => write!(f, "{e}"),
            EngineError::Snapshot(e) => write!(
                f,
                "{e}, and the log was compacted — cannot recover without a snapshot"
            ),
            EngineError::Compacted { requested, base } => write!(
                f,
                "state at op {requested} was compacted away (earliest reconstructible: {base})"
            ),
            EngineError::Write {
                fault,
                attempts,
                source,
            } => write!(f, "write failed ({fault} fault, {attempts} attempt(s)): {source}"),
            EngineError::ReadOnly {
                consecutive_failures,
            } => write!(
                f,
                "engine is read-only: circuit breaker opened after \
                 {consecutive_failures} consecutive write failures"
            ),
            EngineError::Quarantined { class } => write!(
                f,
                "class `{class}` is quarantined by the integrity scrubber \
                 (unrepaired corruption); other classes keep serving"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ModelError> for EngineError {
    fn from(e: ModelError) -> Self {
        // Surface the scrubber's quarantine as the engine-level variant
        // so callers can match one type regardless of which layer the
        // guard fired in.
        match e {
            ModelError::Quarantined { class } => EngineError::Quarantined { class },
            other => EngineError::Model(other),
        }
    }
}
impl From<LogError> for EngineError {
    fn from(e: LogError) -> Self {
        EngineError::Log(e)
    }
}
impl From<ReplayError> for EngineError {
    fn from(e: ReplayError) -> Self {
        EngineError::Replay(e)
    }
}
impl From<StateError> for EngineError {
    fn from(e: StateError) -> Self {
        EngineError::State(e)
    }
}

/// Resilience knobs of the engine: how hard writes are retried and when
/// the circuit breaker flips the engine read-only.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Retry policy applied to every write-path I/O (log appends,
    /// fsyncs).
    pub retry: RetryPolicy,
    /// Consecutive surfaced write failures (post-retry) that open the
    /// breaker. Clamped to ≥ 1.
    pub breaker_threshold: u32,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
        }
    }
}

/// A durable T_Chimera database: every accepted mutation is appended to an
/// operation log before the call returns.
///
/// Read operations are delegated through [`PersistentDatabase::db`];
/// mutations go through the engine so they are logged exactly when the
/// model accepts them.
///
/// # Fault tolerance
///
/// Write-path I/O is retried per [`EngineConfig::retry`] (transient
/// faults only; see [`FaultKind`]). Failures that survive the retry feed
/// a [`CircuitBreaker`]: after [`EngineConfig::breaker_threshold`]
/// consecutive failures the engine degrades to read-only — mutations
/// fail fast with [`EngineError::ReadOnly`] while reads, metrics and
/// [`PersistentDatabase::state_at_op`] keep working. Service is restored
/// with [`PersistentDatabase::try_reset`] (half-open probe). Atomic
/// multi-operation updates go through [`PersistentDatabase::txn`].
pub struct PersistentDatabase {
    db: Database,
    log: OpLog,
    vfs: Arc<dyn Vfs>,
    snap_path: PathBuf,
    config: EngineConfig,
    breaker: CircuitBreaker,
    /// Set if a failed write left the in-memory state ahead of the log
    /// *and* rebuilding from storage also failed — reads may then serve
    /// un-durable data, so the breaker is tripped until a successful
    /// [`PersistentDatabase::try_reset`] re-aligns them.
    diverged: bool,
    recovered_ops: usize,
    recovered_torn: bool,
    recovered_from_snapshot: bool,
    recovered_replayed: usize,
}

/// The snapshot path belonging to the log at `path` (sibling file).
pub fn snapshot_path(path: &Path) -> PathBuf {
    path.with_extension("snap")
}

impl PersistentDatabase {
    /// Open a database at `path` on the real filesystem, recovering from
    /// the latest snapshot plus log suffix (or full replay).
    pub fn open(path: impl AsRef<Path>) -> Result<PersistentDatabase, EngineError> {
        Self::open_with(Arc::new(StdFs), path.as_ref())
    }

    /// Open a database at `path` through the given [`Vfs`] with the
    /// default [`EngineConfig`].
    pub fn open_with(vfs: Arc<dyn Vfs>, path: &Path) -> Result<PersistentDatabase, EngineError> {
        Self::open_with_config(vfs, path, EngineConfig::default())
    }

    /// Open a database at `path` through the given [`Vfs`] with explicit
    /// resilience configuration.
    pub fn open_with_config(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        config: EngineConfig,
    ) -> Result<PersistentDatabase, EngineError> {
        crate::observability::touch_metrics();
        let _span = tchimera_obs::span!("storage.recovery.open", path = path.display());
        let snap_path = snapshot_path(path);
        let (mut log, scan) = OpLog::open_with(Arc::clone(&vfs), path)?;
        let base = scan.base_op;

        // Rung 1: a CRC-valid, decodable snapshot whose image imports.
        let usable = match load_snapshot(&vfs, &snap_path) {
            Ok(snap) if snap.ops_covered >= base => Database::import_state(snap.state)
                .ok()
                .map(|db| (db, snap.ops_covered)),
            _ => None,
        };

        let (db, recovered_ops, recovered_replayed, from_snapshot) = match usable {
            Some((mut db, covered)) => {
                let skip = (covered - base) as usize;
                if skip > scan.ops.len() {
                    // The snapshot is ahead of the surviving log (a crash
                    // ate the log between snapshot install and
                    // compaction). The snapshot is durable and intact:
                    // realign the log to it.
                    log.compact_to(covered)?;
                    (db, covered as usize, 0, true)
                } else {
                    for op in &scan.ops[skip..] {
                        op.apply(&mut db)?;
                    }
                    let total = base as usize + scan.ops.len();
                    (db, total, scan.ops.len() - skip, true)
                }
            }
            // Rung 2: no usable snapshot, but the log holds the full
            // history — replay it from the empty database.
            None if base == 0 => {
                let mut db = Database::new();
                for op in &scan.ops {
                    op.apply(&mut db)?;
                }
                (db, scan.ops.len(), scan.ops.len(), false)
            }
            // Rung 3: the prefix was compacted away and the snapshot that
            // held it is unusable. Refuse loudly.
            None => {
                tchimera_obs::counter!("storage.recovery.rung").inc();
                tchimera_obs::event!("storage.recovery.rung", rung = "refused");
                let err = match load_snapshot(&vfs, &snap_path) {
                    Err(e) => e,
                    Ok(_) => SnapshotError::Corrupt("state image rejected"),
                };
                return Err(EngineError::Snapshot(err));
            }
        };

        // Exactly one rung event per open: which recovery path produced
        // the served state.
        let rung = if from_snapshot { "snapshot+suffix" } else { "full-replay" };
        tchimera_obs::counter!("storage.recovery.rung").inc();
        tchimera_obs::event!("storage.recovery.rung", rung = rung);
        tchimera_obs::counter!("storage.recovery.replayed_ops").add(recovered_replayed as u64);

        Ok(PersistentDatabase {
            db,
            log,
            vfs,
            snap_path,
            breaker: CircuitBreaker::new(config.breaker_threshold),
            config,
            diverged: false,
            recovered_ops,
            recovered_torn: scan.torn_tail,
            recovered_from_snapshot: from_snapshot,
            recovered_replayed,
        })
    }

    /// The in-memory database (all reads go through this).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The query admission gate of the in-memory database (concurrent
    /// query cap; see `tchimera_core::Admission`).
    pub fn admission(&self) -> &tchimera_core::Admission {
        self.db.admission()
    }

    /// Operations folded into the state at open (snapshot + replayed).
    pub fn recovered_ops(&self) -> usize {
        self.recovered_ops
    }

    /// `true` if a torn tail was truncated during recovery.
    pub fn recovered_torn_tail(&self) -> bool {
        self.recovered_torn
    }

    /// `true` if recovery started from a snapshot (rather than folding
    /// the whole log from the empty database).
    pub fn recovered_from_snapshot(&self) -> bool {
        self.recovered_from_snapshot
    }

    /// Log operations individually replayed during recovery — with a
    /// snapshot this is only the suffix, the point of checkpointing.
    pub fn recovered_replayed(&self) -> usize {
        self.recovered_replayed
    }

    /// Operations compacted into the snapshot (the log's header base).
    pub fn base_op(&self) -> u64 {
        self.log.base_op()
    }

    /// **Transaction-time travel**: reconstruct the database state as it
    /// was after the first `k` logged operations (`k = 0` is the empty
    /// database).
    ///
    /// The model itself records *valid time* (Table 1 of the paper: one
    /// linear valid-time dimension); the operation log, being the ordered
    /// record of what was *stored when*, supplies the transaction-time
    /// dimension the paper notes its model "can be easily extended" with.
    /// Combined with the model's own `attr_at`, this yields bitemporal
    /// queries: "what did we *believe on transaction k* the salary was
    /// *at valid time t*?"
    ///
    /// States below the compaction horizon no longer exist as individual
    /// operations and come back as [`EngineError::Compacted`].
    pub fn state_at_op(&mut self, k: usize) -> Result<Database, EngineError> {
        // Make buffered appends visible to the read-only scan. Best
        // effort: recovery inspection must keep working while the engine
        // is degraded, and `Vfs::read` sees buffered appends anyway.
        let _ = self.log.sync();
        let buf = self.vfs.read(self.log.path()).map_err(LogError::from)?;
        let scan = OpLog::scan_bytes(&buf);
        let base = scan.base_op as usize;
        if k < base {
            return Err(EngineError::Compacted {
                requested: k,
                base: scan.base_op,
            });
        }
        let (mut db, covered) = if base == 0 {
            (Database::new(), 0)
        } else {
            let snap = self.load_own_snapshot()?;
            if (snap.ops_covered as usize) < base {
                // A stale snapshot behind the compaction horizon cannot
                // reconstruct anything: the gap between it and the log's
                // first record was compacted away. Refuse with a typed
                // error rather than underflowing the skip count.
                return Err(EngineError::Snapshot(SnapshotError::Corrupt(
                    "snapshot behind the compaction horizon",
                )));
            }
            let covered = snap.ops_covered as usize;
            if k < covered {
                return Err(EngineError::Compacted {
                    requested: k,
                    base: snap.ops_covered,
                });
            }
            (Database::import_state(snap.state)?, covered)
        };
        for op in scan.ops.iter().skip(covered - base).take(k - covered) {
            op.apply(&mut db)?;
        }
        Ok(db)
    }

    fn load_own_snapshot(&self) -> Result<Snapshot, EngineError> {
        load_snapshot(&self.vfs, &self.snap_path).map_err(EngineError::Snapshot)
    }

    /// Number of operations in the logical history (compacted + in-log).
    pub fn op_count(&self) -> usize {
        self.recovered_ops + self.log.appended() as usize
    }

    /// A structural digest of the full database state: clock, every class
    /// (lifespan, extents, c-attribute values) and every object (lifespan,
    /// attributes, class history). Two databases with equal digests are
    /// observably identical; used to validate recovery and replication.
    ///
    /// Maintained by the write path (`Database::state_digest`): the first
    /// call walks the state, later calls cost `O(components written
    /// since)`. It trusts the write hooks by design — [`digest_database`]
    /// is the from-scratch walk that does not.
    pub fn state_digest(&self) -> u64 {
        self.db.state_digest()
    }

    /// Does the live state digest to `expect`? On a mismatch the
    /// maintained table is distrusted before the state is: one
    /// from-scratch walk decides, and a table that was the only thing
    /// wrong is dropped (rung-1 repair) instead of reported as
    /// divergence.
    pub(crate) fn digest_matches(&mut self, expect: u64) -> bool {
        if self.state_digest() == expect {
            return true;
        }
        let walked = digest_database(&self.db);
        self.db
            .scrub_digest_table(walked, &mut tchimera_core::ScrubReport::default());
        walked == expect
    }

    /// Mutable access to the live state, bypassing the operation log.
    ///
    /// This is a **fault-injection hook** for scrubber tests (the chaos
    /// harness corrupts live structures with `SimMem` and asserts the
    /// scrub ladder repairs them). Any mutation made through it is
    /// *unlogged* and therefore exactly the kind of divergence the
    /// scrubber exists to catch. Compiled only under `cfg(test)` or the
    /// `testing` feature.
    #[doc(hidden)]
    #[cfg(any(test, feature = "testing"))]
    pub fn db_mut_for_test(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Reject writes while the breaker is open.
    fn guard_writes(&self) -> Result<(), EngineError> {
        if self.breaker.allows_writes() {
            Ok(())
        } else {
            tchimera_obs::counter!("storage.breaker.rejected").inc();
            Err(EngineError::ReadOnly {
                consecutive_failures: self.breaker.consecutive_failures(),
            })
        }
    }

    /// Append under the retry policy, feeding the breaker either way.
    fn append_with_retry(&mut self, op: &Operation) -> Result<(), EngineError> {
        let policy = self.config.retry;
        match retry(&policy, || self.log.append(op)) {
            Ok(()) => {
                self.breaker.note_success();
                Ok(())
            }
            Err(e) => {
                self.breaker.note_failure();
                Err(EngineError::Write {
                    fault: e.fault,
                    attempts: e.attempts,
                    source: e.source,
                })
            }
        }
    }

    /// A single-op write applied to the live state but never logged: the
    /// in-memory database is ahead of durable history. Rebuild the live
    /// state from storage (snapshot + log), restoring the invariant "the
    /// served state is a fold of the recorded history". If even the
    /// rebuild fails, mark the engine diverged and trip the breaker —
    /// [`PersistentDatabase::try_reset`] re-attempts the re-alignment.
    fn rollback_divergence(&mut self) {
        tchimera_obs::counter!("storage.engine.rollbacks").inc();
        match self.rebuild_from_storage() {
            Ok(db) => self.db = db,
            Err(_) => {
                self.diverged = true;
                self.breaker.trip();
            }
        }
    }

    /// Reconstruct the database purely from storage: read the log bytes
    /// (buffered appends included), fold them over the snapshot (or the
    /// empty database when never compacted).
    fn rebuild_from_storage(&self) -> Result<Database, EngineError> {
        let buf = self.vfs.read(self.log.path()).map_err(LogError::from)?;
        self.fold_scan(&OpLog::scan_bytes(&buf), false)
    }

    /// Fold the operations of `scan` over the state they start from: the
    /// empty database, or — when the log was compacted — this node's
    /// snapshot, loaded and imported once. With `verify` the imported
    /// image is also walked against its recorded digest (the scrubber's
    /// snapshot check; a mismatch is a [`SnapshotError`] like any other
    /// unusable snapshot).
    fn fold_scan(&self, scan: &LogScan, verify: bool) -> Result<Database, EngineError> {
        let base = scan.base_op;
        let (mut db, covered) = if base == 0 {
            (Database::new(), 0)
        } else {
            let snap = self.load_own_snapshot()?;
            if snap.ops_covered < base {
                return Err(EngineError::Snapshot(SnapshotError::Corrupt(
                    "snapshot behind the compaction horizon",
                )));
            }
            let db = Database::import_state(snap.state)?;
            if verify && digest_database(&db) != snap.digest {
                return Err(EngineError::Snapshot(SnapshotError::Corrupt(
                    "state image does not match its recorded digest",
                )));
            }
            (db, snap.ops_covered)
        };
        // `skip` may exceed the scan when the snapshot is ahead of the
        // log (crash between snapshot install and compaction): the
        // suffix to replay is then empty.
        let skip = (covered - base) as usize;
        for op in scan.ops.iter().skip(skip) {
            op.apply(&mut db)?;
        }
        Ok(db)
    }

    fn execute(&mut self, op: Operation) -> Result<(), EngineError> {
        // Model first (validation), log second — an operation is logged
        // iff it was accepted, keeping log and state in lockstep.
        self.guard_writes()?;
        op.apply(&mut self.db)?;
        self.append_with_retry(&op).map_err(|e| {
            // Accepted but not logged: un-apply by rebuilding from
            // storage so state and log stay in lockstep.
            self.rollback_divergence();
            e
        })
    }

    /// Run an atomic transaction: `f` stages mutations on a shadow
    /// [`Database`] via the [`Transaction`] handle; on success the whole
    /// batch is committed as **one** CRC-framed log record and the shadow
    /// becomes the live state. If `f` returns an error — or the commit
    /// append fails — the live database is bit-for-bit unchanged and
    /// nothing reaches the log: recovery can never observe a partially
    /// applied transaction.
    ///
    /// A committed transaction counts as *one* operation in
    /// [`PersistentDatabase::op_count`] / transaction-time travel — the
    /// log record is the atomicity (and numbering) unit.
    pub fn txn<R>(
        &mut self,
        f: impl FnOnce(&mut Transaction) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        self.guard_writes()?;
        let _span = tchimera_obs::span!("storage.engine.txn");
        let mut t = Transaction::new(self.db.clone());
        let out = match f(&mut t) {
            Ok(out) => out,
            Err(e) => {
                tchimera_obs::counter!("storage.txn.rollbacks").inc();
                return Err(e);
            }
        };
        let (shadow, ops) = t.into_parts();
        if ops.is_empty() {
            // Read-only transaction: nothing to commit.
            tchimera_obs::counter!("storage.txn.commits").inc();
            return Ok(out);
        }
        let staged = ops.len() as u64;
        match self.append_with_retry(&Operation::Txn(ops)) {
            Ok(()) => {
                self.db = shadow;
                tchimera_obs::counter!("storage.txn.commits").inc();
                tchimera_obs::counter!("storage.txn.ops").add(staged);
                Ok(out)
            }
            Err(e) => {
                // The live state was never touched; dropping the shadow
                // *is* the rollback.
                tchimera_obs::counter!("storage.txn.rollbacks").inc();
                Err(e)
            }
        }
    }

    /// Durably flush the log (retried per the policy). After this
    /// returns, every preceding accepted mutation survives any crash.
    pub fn sync(&mut self) -> Result<(), EngineError> {
        self.guard_writes()?;
        let policy = self.config.retry;
        match retry(&policy, || self.log.sync()) {
            Ok(()) => {
                self.breaker.note_success();
                Ok(())
            }
            Err(e) => {
                self.breaker.note_failure();
                Err(EngineError::Write {
                    fault: e.fault,
                    attempts: e.attempts,
                    source: e.source,
                })
            }
        }
    }

    // -- degradation and repair --------------------------------------------

    /// The breaker's current state (`Closed` = healthy, `Open` =
    /// read-only, `HalfOpen` = probing).
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// `true` while the engine rejects writes.
    pub fn is_read_only(&self) -> bool {
        !self.breaker.allows_writes()
    }

    /// `true` if the in-memory state could not be re-aligned with the
    /// log after a failed write (reads may serve un-durable data until a
    /// [`PersistentDatabase::try_reset`] succeeds).
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// Force the breaker open: the engine becomes read-only immediately
    /// (manual degradation, e.g. ahead of planned maintenance).
    pub fn trip(&mut self) {
        self.breaker.trip();
    }

    /// Attempt to restore write service (half-open probe). Re-aligns a
    /// diverged state from storage first, then probes the write path
    /// with an fsync: on success the breaker closes and `true` is
    /// returned; on failure it re-opens and the engine stays read-only.
    /// Calling this on a healthy engine is a no-op returning `true`.
    pub fn try_reset(&mut self) -> bool {
        if self.breaker.state() == BreakerState::Closed {
            return true;
        }
        if self.diverged {
            match self.rebuild_from_storage() {
                Ok(db) => {
                    self.db = db;
                    self.diverged = false;
                }
                Err(_) => return false,
            }
        }
        if !self.breaker.begin_probe() {
            return true;
        }
        match self.log.sync() {
            Ok(()) => {
                self.breaker.note_success();
                true
            }
            Err(_) => {
                self.breaker.note_failure();
                false
            }
        }
    }

    /// The engine's resilience configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Install a checkpoint: durably snapshot the current state, then
    /// compact the log to an empty file whose header records the ops
    /// covered. Recovery afterwards replays only operations appended
    /// after this call.
    ///
    /// Crash-safe at every step: the log is synced before the snapshot
    /// (the snapshot must never be *ahead* of durable history), the
    /// snapshot installs atomically, and compaction replaces the log
    /// atomically. A crash between the two leaves snapshot + full log —
    /// recovery uses the snapshot and skips the covered prefix.
    pub fn checkpoint(&mut self) -> Result<(), EngineError> {
        let _span = tchimera_obs::span!("storage.engine.checkpoint");
        self.sync()?;
        let total = self.op_count() as u64;
        let state = self.db.export_state();
        let digest = digest_database(&self.db);
        if let Err(e) = write_snapshot(&self.vfs, &self.snap_path, &state, total, digest) {
            self.breaker.note_failure();
            return Err(EngineError::Snapshot(e));
        }
        if let Err(e) = self.log.compact_to(total) {
            self.breaker.note_failure();
            return Err(EngineError::Log(e));
        }
        self.breaker.note_success();
        self.recovered_ops = total as usize;
        Ok(())
    }

    // -- replication support -----------------------------------------------

    /// Apply one operation received from a replication stream: validate it
    /// through the same [`Operation::apply`] path recovery uses, then
    /// append it to this node's own log so the replica is independently
    /// durable. A `Txn` record applies atomically, exactly as it did on
    /// the primary. On append failure the live state is re-aligned with
    /// durable history (same rollback discipline as local writes).
    pub fn apply_replicated(&mut self, op: &Operation) -> Result<(), EngineError> {
        self.guard_writes()?;
        op.apply(&mut self.db)?;
        self.append_with_retry(op).map_err(|e| {
            self.rollback_divergence();
            e
        })
    }

    /// Install a full state image shipped by a primary whose log prefix
    /// has been compacted away: verify the image against the shipped
    /// digest, persist it as this node's own snapshot, compact the local
    /// log to `ops_covered`, and adopt the image as the live state. After
    /// success [`PersistentDatabase::op_count`] equals `ops_covered` and
    /// subsequent replicated ops append to the (now empty) log suffix.
    pub fn install_snapshot_image(
        &mut self,
        state: DatabaseState,
        ops_covered: u64,
        digest: u64,
    ) -> Result<(), EngineError> {
        self.guard_writes()?;
        let mut db = Database::import_state(state)?;
        if digest_database(&db) != digest {
            return Err(EngineError::Snapshot(SnapshotError::Corrupt(
                "shipped state image does not match its digest",
            )));
        }
        let image = db.export_state();
        if let Err(e) = write_snapshot(&self.vfs, &self.snap_path, &image, ops_covered, digest) {
            self.breaker.note_failure();
            return Err(EngineError::Snapshot(e));
        }
        if let Err(e) = self.log.compact_to(ops_covered) {
            self.breaker.note_failure();
            return Err(EngineError::Log(e));
        }
        self.breaker.note_success();
        // Keep the admission and quarantine gates shared with existing
        // clones: an anti-entropy install must be visible through every
        // handle (and lets the caller lift a quarantine it can still
        // reach).
        db.adopt_shared_handles(&self.db);
        self.db = db;
        self.recovered_ops = ops_covered as usize;
        self.diverged = false;
        Ok(())
    }

    /// Read-only scan of this node's log from byte `offset` on (durable
    /// bytes plus buffered appends): 0 scans the whole file, the
    /// [`LogScan::valid_len`] of an earlier scan decodes only the records
    /// appended since. A replication primary reads what it has not
    /// shipped yet through this; the scan never fails on damage — torn
    /// or corrupt tails are reported in the returned [`LogScan`], not
    /// raised.
    pub(crate) fn scan_log_from(&self, offset: u64) -> Result<LogScan, EngineError> {
        Ok(self.log.scan_from(offset)?)
    }

    // -- integrity scrubbing -----------------------------------------------

    /// One full scrub cycle with an unlimited budget. See
    /// [`PersistentDatabase::scrub_cycle_with`].
    pub fn scrub_cycle(&mut self) -> StorageScrubReport {
        self.scrub_cycle_with(&mut |_| true)
    }

    /// One scrub cycle over the full stack, in bounded chargeable steps
    /// (`charge` as in `Database::scrub_cycle_with`).
    ///
    /// Verification order matches the repair ladder of `DESIGN.md` §15:
    ///
    /// 1. **Derived structures** — the core scrubber verifies and
    ///    rebuilds extent/attr/ref indexes in place (rung 1).
    /// 2. **Durable media** — the log is re-scanned through the `Vfs`
    ///    (CRC re-verification; damage funnels through the same
    ///    `storage.log.scan.damaged` path as recovery) and the snapshot
    ///    is re-loaded, imported and walked against its recorded digest —
    ///    the check [`PersistentDatabase::open_with_config`] leaves to
    ///    this cycle.
    /// 3. **State ↔ history equivalence** — the scanned suffix is folded
    ///    over that same import; when durable history is complete, the
    ///    live state's digest is compared against this
    ///    re-materialization; divergence adopts the rebuilt state
    ///    (rung 2) and lifts any quarantine.
    /// 4. **Durability repair** — when durable history is *incomplete*
    ///    but the live state passes the consistency sweep, the live
    ///    state is re-checkpointed so the damaged history is superseded.
    /// 5. **Escalation** — damaged history *and* damaged live state:
    ///    no local clean source exists. Affected classes are
    ///    quarantined (rung 4) and `needs_replica` asks the caller to
    ///    run the `Frame::ScrubPull` anti-entropy exchange (rung 3),
    ///    which lifts the quarantine on success.
    pub fn scrub_cycle_with(&mut self, charge: &mut dyn FnMut(u64) -> bool) -> StorageScrubReport {
        let mut report = StorageScrubReport {
            core: self.db.scrub_cycle_with(charge),
            snapshot_ok: true,
            ..StorageScrubReport::default()
        };

        // Durable media re-verification. Best-effort sync first so
        // buffered appends are scanned too (`Vfs::read` sees them
        // regardless; a failed sync must not abort a scrub).
        let _ = self.log.sync();
        let scan = match self.vfs.read(self.log.path()) {
            Ok(buf) => Some(OpLog::scan_bytes(&buf)),
            Err(_) => None,
        };
        let durable_total = match &scan {
            Some(s) => {
                if s.torn_tail {
                    report.log_damage += 1;
                }
                s.base_op as usize + s.ops.len()
            }
            None => {
                report.log_damage += 1;
                0
            }
        };
        // One load, one import: the snapshot is verified and the scanned
        // suffix folded over the very state that was verified.
        let rebuilt = match scan.as_ref().map(|s| self.fold_scan(s, true)) {
            Some(Ok(db)) => Some(db),
            Some(Err(EngineError::Snapshot(_) | EngineError::State(_))) => {
                report.snapshot_ok = false;
                None
            }
            _ => None,
        };
        report.durable_complete =
            rebuilt.is_some() && report.log_damage == 0 && durable_total == self.op_count();

        if report.durable_complete {
            // Rung 2 — the durable history is intact and authoritative:
            // any live/rebuilt digest divergence means resident state
            // damage, repaired by adopting the re-materialization.
            let rebuilt = rebuilt.expect("durable_complete implies rebuilt");
            let live = digest_database(&self.db);
            if live == digest_database(&rebuilt) {
                // The base state is proven a fold of the history, so
                // `live` is also what the maintained digest table must
                // say (rung 1, on the walk already paid for).
                self.db.scrub_digest_table(live, &mut report.core);
            } else {
                report.state_divergence = true;
                report.diverged_classes = diverged_classes(&self.db, &rebuilt);
                let mut fresh = rebuilt;
                fresh.adopt_shared_handles(&self.db);
                self.db = fresh;
                self.db.quarantine().clear();
                self.diverged = false;
                report.rematerialized = true;
                tchimera_obs::counter!("core.scrub.repairs.rematerialize").inc();
            }
        } else if report.core.consistency_errors == 0 {
            // Durable history is damaged but the live state passes the
            // full sweep: the live copy is the best available source.
            // Re-checkpointing supersedes the damaged history (snapshot
            // of the live state + compacted log).
            match self.checkpoint() {
                Ok(()) => {
                    report.checkpoint_repair = true;
                    tchimera_obs::counter!("core.scrub.repairs.rematerialize").inc();
                }
                Err(_) => {
                    // Read-only or still-failing media: nothing local
                    // can restore durability — ask for a replica pull.
                    report.needs_replica = true;
                }
            }
        } else {
            // No local clean source: quarantine what the sweep could
            // attribute (rung 4) and escalate to anti-entropy (rung 3).
            let mut classes: Vec<ClassId> = report
                .core
                .findings
                .iter()
                .filter_map(|f| match f {
                    tchimera_core::ScrubFinding::Consistency { class, .. } => class.clone(),
                    _ => None,
                })
                .collect();
            classes.sort();
            classes.dedup();
            for class in &classes {
                self.db.quarantine_class(class);
            }
            report.quarantined = classes;
            report.needs_replica = true;
        }
        report
    }

    // -- mirrored mutations ------------------------------------------------

    /// Advance the clock to `t` (logged).
    pub fn advance_to(&mut self, t: Instant) -> Result<(), EngineError> {
        self.execute(Operation::AdvanceTo(t))
    }

    /// Advance the clock by one instant (logged).
    pub fn tick(&mut self) -> Result<Instant, EngineError> {
        let t = self.db.now().next();
        self.execute(Operation::AdvanceTo(t))?;
        Ok(t)
    }

    /// Define a class (logged).
    pub fn define_class(&mut self, def: ClassDef) -> Result<(), EngineError> {
        self.execute(Operation::DefineClass(def))
    }

    /// Drop a class (logged).
    pub fn drop_class(&mut self, class: &ClassId) -> Result<(), EngineError> {
        self.execute(Operation::DropClass(class.clone()))
    }

    /// Update a c-attribute (logged).
    pub fn set_c_attr(
        &mut self,
        class: &ClassId,
        attr: &AttrName,
        value: Value,
    ) -> Result<(), EngineError> {
        self.execute(Operation::SetCAttr {
            class: class.clone(),
            attr: attr.clone(),
            value,
        })
    }

    /// Create an object (logged, with the assigned oid pinned for replay).
    pub fn create_object(&mut self, class: &ClassId, init: Attrs) -> Result<Oid, EngineError> {
        // Execute first to learn the oid, then log with the expectation.
        self.guard_writes()?;
        let oid = self.db.create_object(class, init.clone())?;
        let op = Operation::CreateObject {
            class: class.clone(),
            init,
            expect: oid,
        };
        self.append_with_retry(&op).map_err(|e| {
            self.rollback_divergence();
            e
        })?;
        Ok(oid)
    }

    /// Update an attribute (logged).
    pub fn set_attr(&mut self, oid: Oid, attr: &AttrName, value: Value) -> Result<(), EngineError> {
        self.execute(Operation::SetAttr {
            oid,
            attr: attr.clone(),
            value,
        })
    }

    /// Migrate an object (logged).
    pub fn migrate(&mut self, oid: Oid, to: &ClassId, init: Attrs) -> Result<(), EngineError> {
        self.execute(Operation::Migrate {
            oid,
            to: to.clone(),
            init,
        })
    }

    /// Terminate an object (logged).
    pub fn terminate_object(&mut self, oid: Oid) -> Result<(), EngineError> {
        self.execute(Operation::Terminate { oid })
    }
}

/// The outcome of one storage-level scrub cycle
/// ([`PersistentDatabase::scrub_cycle`]): the core report plus the
/// durable-media verdicts and which repair rungs fired.
#[derive(Debug, Default)]
pub struct StorageScrubReport {
    /// The in-memory (rung 1) scrub outcome.
    pub core: tchimera_core::ScrubReport,
    /// Damaged regions found re-scanning the log through the `Vfs`
    /// (reported through the same `storage.log.scan.damaged` path as
    /// recovery scans).
    pub log_damage: usize,
    /// The snapshot (when the log depends on one) loaded, imported,
    /// matched its recorded digest and reaches the log's first record.
    pub snapshot_ok: bool,
    /// Every logical operation is reconstructible from durable storage.
    pub durable_complete: bool,
    /// The live state's digest diverged from a full re-materialization
    /// of the durable history.
    pub state_divergence: bool,
    /// Classes whose state differed between live and re-materialized
    /// copies (populated on divergence, before repair).
    pub diverged_classes: Vec<ClassId>,
    /// Rung 2 fired: the re-materialized state was adopted.
    pub rematerialized: bool,
    /// Damaged durable history was superseded by re-checkpointing a
    /// consistent live state.
    pub checkpoint_repair: bool,
    /// Classes quarantined this cycle (rung 4).
    pub quarantined: Vec<ClassId>,
    /// No local clean source exists: the caller should run the
    /// `Frame::ScrubPull` anti-entropy exchange against a live primary.
    pub needs_replica: bool,
}

impl StorageScrubReport {
    /// Nothing wrong anywhere: memory, indexes, log, and snapshot all
    /// verified clean.
    pub fn clean(&self) -> bool {
        self.core.clean()
            && self.log_damage == 0
            && self.snapshot_ok
            && self.durable_complete
            && !self.state_divergence
    }

    /// The cycle ended with a healthy, durable state: either it was
    /// already clean, every rung-1 divergence was repaired in place over
    /// intact durable media, or a rung-2 repair (re-materialization /
    /// re-checkpoint) succeeded. `false` whenever replica anti-entropy
    /// is still required.
    pub fn healthy_after(&self) -> bool {
        if self.needs_replica {
            return false;
        }
        if self.rematerialized || self.checkpoint_repair {
            return true;
        }
        self.core.fully_repaired()
            && self.durable_complete
            && self.snapshot_ok
            && !self.state_divergence
    }
}

/// The classes whose observable state differs between two databases:
/// class-level damage (lifespan, hierarchy, c-attributes, extents) is
/// attributed directly; object-level damage is attributed to the
/// object's most recent class. A clock divergence poisons everything
/// and returns every class. Used to scope quarantine to the damaged
/// classes so the rest of the database keeps serving.
pub fn diverged_classes(live: &Database, authoritative: &Database) -> Vec<ClassId> {
    use std::collections::BTreeSet;
    let mut out: BTreeSet<ClassId> = BTreeSet::new();
    if live.now() != authoritative.now() {
        return authoritative.schema().classes().map(|c| c.id.clone()).collect();
    }
    let ids: BTreeSet<ClassId> = live
        .schema()
        .classes()
        .chain(authoritative.schema().classes())
        .map(|c| c.id.clone())
        .collect();
    for id in ids {
        if live.class_digest(&id) != authoritative.class_digest(&id) {
            out.insert(id);
        }
    }
    for o in authoritative.objects() {
        let differs = live.object(o.oid).map(|l| l != o).unwrap_or(true);
        if differs {
            if let Some(e) = o.class_history.entries().last() {
                out.insert(e.value.clone());
            }
        }
    }
    for o in live.objects() {
        if authoritative.object(o.oid).is_err() {
            if let Some(e) = o.class_history.entries().last() {
                out.insert(e.value.clone());
            }
        }
    }
    out.into_iter().collect()
}

/// Digest a database's observable state by walking all of it — the
/// definition of `DESIGN.md` §8.5, taken from scratch and never from the
/// maintained table behind [`PersistentDatabase::state_digest`]. The
/// oracle for tests, the scrubber's comparison and the verification of a
/// state that was just loaded.
pub fn digest_database(db: &Database) -> u64 {
    db.digest_from_scratch()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{SimFs, TearMode};
    use std::path::PathBuf;
    use tchimera_core::{attrs, Type};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tchimera-engine-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(snapshot_path(&p));
        p
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(snapshot_path(path));
    }

    fn populate(pdb: &mut PersistentDatabase) -> Oid {
        pdb.define_class(
            ClassDef::new("person").attr("address", Type::STRING),
        )
        .unwrap();
        pdb.define_class(
            ClassDef::new("employee")
                .isa("person")
                .attr("salary", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        pdb.advance_to(Instant(10)).unwrap();
        let i = pdb
            .create_object(
                &ClassId::from("employee"),
                attrs([("salary", Value::Int(100)), ("address", Value::str("Milano"))]),
            )
            .unwrap();
        pdb.advance_to(Instant(20)).unwrap();
        pdb.set_attr(i, &"salary".into(), Value::Int(150)).unwrap();
        pdb.advance_to(Instant(30)).unwrap();
        pdb.migrate(i, &ClassId::from("person"), Attrs::new()).unwrap();
        i
    }

    #[test]
    fn recovery_reproduces_state_exactly() {
        let path = tmp("recover");
        let digest = {
            let mut pdb = PersistentDatabase::open(&path).unwrap();
            let _ = populate(&mut pdb);
            pdb.sync().unwrap();
            pdb.state_digest()
        };
        let pdb = PersistentDatabase::open(&path).unwrap();
        assert_eq!(pdb.recovered_ops(), 8);
        assert!(!pdb.recovered_torn_tail());
        assert!(!pdb.recovered_from_snapshot());
        assert_eq!(pdb.state_digest(), digest);
        // Queryable history survives restart.
        let i = Oid(0);
        assert_eq!(
            pdb.db().attr_at(i, &"salary".into(), Instant(15)).unwrap(),
            Value::Int(100)
        );
        assert_eq!(
            pdb.db()
                .object(i)
                .unwrap()
                .class_at(Instant(25), pdb.db().now()),
            Some(&ClassId::from("employee"))
        );
        cleanup(&path);
    }

    #[test]
    fn rejected_operations_are_not_logged() {
        let path = tmp("reject");
        {
            let mut pdb = PersistentDatabase::open(&path).unwrap();
            let i = populate(&mut pdb);
            // Type error: rejected, must not be logged.
            assert!(pdb.set_attr(i, &"address".into(), Value::Int(3)).is_err());
            pdb.sync().unwrap();
        }
        // Recovery succeeds (a logged rejection would make replay fail).
        let pdb = PersistentDatabase::open(&path).unwrap();
        assert_eq!(pdb.recovered_ops(), 8);
        cleanup(&path);
    }

    #[test]
    fn crash_recovery_with_torn_tail() {
        let path = tmp("crash");
        {
            let mut pdb = PersistentDatabase::open(&path).unwrap();
            populate(&mut pdb);
            pdb.sync().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let pdb = PersistentDatabase::open(&path).unwrap();
        assert!(pdb.recovered_torn_tail());
        // The last op (migrate) was lost; the rest replayed.
        assert_eq!(pdb.recovered_ops(), 7);
        assert_eq!(
            pdb.db()
                .object(Oid(0))
                .unwrap()
                .current_class(pdb.db().now()),
            Some(&ClassId::from("employee"))
        );
        cleanup(&path);
    }

    #[test]
    fn tick_is_logged() {
        let path = tmp("tick");
        {
            let mut pdb = PersistentDatabase::open(&path).unwrap();
            pdb.tick().unwrap();
            pdb.tick().unwrap();
            pdb.sync().unwrap();
            assert_eq!(pdb.db().now(), Instant(2));
        }
        let pdb = PersistentDatabase::open(&path).unwrap();
        assert_eq!(pdb.db().now(), Instant(2));
        cleanup(&path);
    }

    #[test]
    fn transaction_time_travel() {
        let path = tmp("txtime");
        let mut pdb = PersistentDatabase::open(&path).unwrap();
        let i = populate(&mut pdb);
        assert_eq!(pdb.op_count(), 8);

        // After 5 ops (defines, advance 10, create, advance 20): the
        // salary update at tx 6 hasn't happened yet.
        let past = pdb.state_at_op(5).unwrap();
        assert_eq!(past.now(), Instant(20));
        assert_eq!(
            past.attr_now(i, &"salary".into()).unwrap(),
            Value::Int(100)
        );
        // After all ops: matches the live database.
        let full = pdb.state_at_op(pdb.op_count()).unwrap();
        assert_eq!(digest_database(&full), pdb.state_digest());
        // k = 0: empty database.
        let genesis = pdb.state_at_op(0).unwrap();
        assert_eq!(genesis.object_count(), 0);
        assert!(genesis.schema().is_empty());
        // Bitemporal: at transaction 6 (salary updated to 150), the
        // *valid-time* view of t=15 still reads 100.
        let tx6 = pdb.state_at_op(6).unwrap();
        assert_eq!(
            tx6.attr_at(i, &"salary".into(), Instant(15)).unwrap(),
            Value::Int(100)
        );
        assert_eq!(
            tx6.attr_now(i, &"salary".into()).unwrap(),
            Value::Int(150)
        );
        cleanup(&path);
    }

    #[test]
    fn digest_detects_divergence() {
        let path1 = tmp("digest1");
        let path2 = tmp("digest2");
        let mut a = PersistentDatabase::open(&path1).unwrap();
        let mut b = PersistentDatabase::open(&path2).unwrap();
        populate(&mut a);
        populate(&mut b);
        assert_eq!(a.state_digest(), b.state_digest());
        a.advance_to(Instant(99)).unwrap();
        assert_ne!(a.state_digest(), b.state_digest());
        cleanup(&path1);
        cleanup(&path2);
    }

    #[test]
    fn checkpoint_recovery_replays_only_the_suffix() {
        let path = tmp("ckpt");
        let digest = {
            let mut pdb = PersistentDatabase::open(&path).unwrap();
            populate(&mut pdb);
            pdb.checkpoint().unwrap();
            assert_eq!(pdb.base_op(), 8);
            assert_eq!(pdb.op_count(), 8);
            // Two more ops after the checkpoint.
            pdb.advance_to(Instant(40)).unwrap();
            pdb.set_attr(Oid(0), &"address".into(), Value::str("Genova"))
                .unwrap();
            pdb.sync().unwrap();
            assert_eq!(pdb.op_count(), 10);
            pdb.state_digest()
        };
        let pdb = PersistentDatabase::open(&path).unwrap();
        assert!(pdb.recovered_from_snapshot());
        assert_eq!(pdb.recovered_replayed(), 2, "only the suffix is replayed");
        assert_eq!(pdb.recovered_ops(), 10);
        assert_eq!(pdb.state_digest(), digest);
        cleanup(&path);
    }

    #[test]
    fn state_at_op_respects_the_compaction_horizon() {
        let path = tmp("ckpt-tx");
        let mut pdb = PersistentDatabase::open(&path).unwrap();
        populate(&mut pdb);
        pdb.checkpoint().unwrap();
        pdb.advance_to(Instant(40)).unwrap();
        // Below the horizon: compacted away.
        assert!(matches!(
            pdb.state_at_op(5),
            Err(EngineError::Compacted { requested: 5, base: 8 })
        ));
        // At the horizon: exactly the snapshot state.
        let at = pdb.state_at_op(8).unwrap();
        assert_eq!(at.now(), Instant(30));
        // Above: snapshot plus suffix replay.
        let after = pdb.state_at_op(9).unwrap();
        assert_eq!(after.now(), Instant(40));
        assert_eq!(digest_database(&after), pdb.state_digest());
        cleanup(&path);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_full_replay() {
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("db.log");
        let digest = {
            let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &path).unwrap();
            populate(&mut pdb);
            pdb.checkpoint().unwrap();
            pdb.advance_to(Instant(40)).unwrap();
            pdb.sync().unwrap();
            pdb.state_digest()
        };
        // Uncompacted log, damaged snapshot: full replay still works.
        let fs2 = SimFs::new();
        let vfs2: Arc<dyn Vfs> = Arc::new(fs2.clone());
        let digest2 = {
            let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs2), &path).unwrap();
            populate(&mut pdb);
            pdb.sync().unwrap();
            // Install a snapshot, then corrupt it — but never compact.
            write_snapshot(
                &vfs2,
                &snapshot_path(&path),
                &pdb.db().export_state(),
                8,
                pdb.state_digest(),
            )
            .unwrap();
            pdb.state_digest()
        };
        fs2.corrupt_byte(&snapshot_path(&path), 40, 0x01).unwrap();
        let pdb = PersistentDatabase::open_with(Arc::clone(&vfs2), &path).unwrap();
        assert!(!pdb.recovered_from_snapshot(), "corrupt snapshot must be ignored");
        assert_eq!(pdb.recovered_ops(), 8);
        assert_eq!(pdb.state_digest(), digest2);

        // Compacted log + damaged snapshot: recovery must refuse loudly,
        // not serve a wrong state.
        fs.corrupt_byte(&snapshot_path(&path), 40, 0x01).unwrap();
        match PersistentDatabase::open_with(vfs, &path) {
            Err(EngineError::Snapshot(_)) => {}
            Ok(pdb) => panic!(
                "recovered digest {:x} from a corrupt snapshot with a compacted log",
                pdb.state_digest()
            ),
            Err(e) => panic!("wrong error: {e}"),
        }
        let _ = digest;
    }

    #[test]
    fn version_1_snapshot_is_refused_like_a_digest_mismatch() {
        // A `TCSNAP01` file records a digest of the old, unspecified
        // hasher: nothing can verify it, so it must not be trusted. Give
        // an otherwise perfect snapshot the old magic and recovery takes
        // the same ladder as for any unusable snapshot.
        let downgrade = |fs: &SimFs, path: &Path| {
            let snap = snapshot_path(path);
            for (i, want) in b"TCSNAP01".iter().enumerate() {
                let have = fs.contents(&snap).unwrap()[i];
                if have != *want {
                    fs.corrupt_byte(&snap, i, have ^ want).unwrap();
                }
            }
        };
        let path = PathBuf::from("db.log");

        // Uncompacted log: full replay, same state.
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let digest = {
            let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &path).unwrap();
            populate(&mut pdb);
            pdb.sync().unwrap();
            let digest = pdb.state_digest();
            write_snapshot(&vfs, &snapshot_path(&path), &pdb.db().export_state(), 8, digest)
                .unwrap();
            digest
        };
        downgrade(&fs, &path);
        assert!(matches!(
            load_snapshot(&vfs, &snapshot_path(&path)),
            Err(SnapshotError::Corrupt("bad magic"))
        ));
        let pdb = PersistentDatabase::open_with(vfs, &path).unwrap();
        assert!(!pdb.recovered_from_snapshot());
        assert_eq!(pdb.state_digest(), digest);

        // Compacted log: the prefix lives only in the snapshot — refuse.
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        {
            let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &path).unwrap();
            populate(&mut pdb);
            pdb.checkpoint().unwrap();
        }
        downgrade(&fs, &path);
        assert!(matches!(
            PersistentDatabase::open_with(vfs, &path),
            Err(EngineError::Snapshot(SnapshotError::Corrupt("bad magic")))
        ));
    }

    #[test]
    fn crash_between_snapshot_and_compaction_recovers() {
        // Checkpoint = sync → snapshot install → log compaction. Fail the
        // compaction: on reopen the snapshot covers the whole log, the
        // suffix to replay is empty, and the state digest still matches.
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("db.log");
        let digest = {
            let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &path).unwrap();
            populate(&mut pdb);
            pdb.sync().unwrap();
            let d = pdb.state_digest();
            // Allow the snapshot install (6 ops: trunc-open, write, sync,
            // rename, dir-sync ... ) but kill compaction's first I/O.
            write_snapshot(
                &vfs,
                &snapshot_path(&path),
                &pdb.db().export_state(),
                8,
                d,
            )
            .unwrap();
            fs.fail_after(Some(0));
            assert!(pdb.checkpoint().is_err(), "injected fault must surface");
            d
        };
        fs.crash(TearMode::KeepHalf);
        let pdb = PersistentDatabase::open_with(vfs, &path).unwrap();
        assert!(pdb.recovered_from_snapshot());
        assert_eq!(pdb.recovered_replayed(), 0);
        assert_eq!(pdb.recovered_ops(), 8);
        assert_eq!(pdb.state_digest(), digest);
    }

    // -- integrity scrubbing ---------------------------------------------

    #[test]
    fn scrub_on_a_clean_store_is_a_clean_noop() {
        let path = tmp("scrub-clean");
        let mut pdb = PersistentDatabase::open(&path).unwrap();
        populate(&mut pdb);
        pdb.sync().unwrap();
        let digest = pdb.state_digest();
        let report = pdb.scrub_cycle();
        assert!(report.clean(), "clean store must scrub clean: {report:?}");
        assert!(report.healthy_after());
        assert_eq!(pdb.state_digest(), digest, "a clean scrub must not change state");
        cleanup(&path);
    }

    #[test]
    fn scrub_repairs_derived_index_damage_in_place() {
        let path = tmp("scrub-index");
        let mut pdb = PersistentDatabase::open(&path).unwrap();
        populate(&mut pdb);
        pdb.sync().unwrap();
        let mut sim = tchimera_core::SimMem::new(3);
        let fault = sim.corrupt_index(pdb.db_mut_for_test()).expect("something to corrupt");
        let report = pdb.scrub_cycle();
        assert!(report.core.divergences >= 1, "fault {fault:?} missed: {report:?}");
        assert!(report.healthy_after(), "rung-1 repair must restore health: {report:?}");
        assert!(!report.needs_replica);
        // The repaired store scrubs clean on the next cycle.
        assert!(pdb.scrub_cycle().clean());
        cleanup(&path);
    }

    #[test]
    fn scrub_rematerializes_unlogged_live_damage() {
        let path = tmp("scrub-remat");
        let mut pdb = PersistentDatabase::open(&path).unwrap();
        populate(&mut pdb);
        pdb.sync().unwrap();
        let digest = pdb.state_digest();
        let mut sim = tchimera_core::SimMem::new(7);
        let fault = sim.corrupt_base(pdb.db_mut_for_test()).expect("objects exist");
        // The flip went past the write hooks, so only the from-scratch walk
        // sees it: the maintained digest trusts the hooks by design.
        assert_ne!(digest_database(pdb.db()), digest, "base flip must change the digest");
        assert_eq!(pdb.state_digest(), digest, "unannounced damage leaves the table stale");
        let report = pdb.scrub_cycle();
        assert!(report.state_divergence, "fault {fault:?} missed: {report:?}");
        assert!(report.rematerialized);
        assert!(!report.diverged_classes.is_empty(), "damage must be attributed");
        assert!(report.healthy_after());
        assert_eq!(pdb.state_digest(), digest, "re-materialization must restore the exact state");
        assert!(pdb.scrub_cycle().clean());
        cleanup(&path);
    }

    #[test]
    fn scrub_recheckpoints_when_durable_history_is_damaged() {
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("scrub.log");
        let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &path).unwrap();
        populate(&mut pdb);
        pdb.sync().unwrap();
        let digest = pdb.state_digest();
        // Damage the durable log: the live state is fine but history can
        // no longer be replayed in full.
        let len = vfs.read(&path).unwrap().len();
        fs.corrupt_byte(&path, len - 6, 0x40).unwrap();
        let report = pdb.scrub_cycle();
        assert!(!report.clean());
        assert!(report.log_damage > 0, "{report:?}");
        assert!(report.checkpoint_repair, "{report:?}");
        assert!(report.healthy_after());
        assert_eq!(pdb.state_digest(), digest, "live state must be untouched");
        // The re-checkpoint superseded the damage: next cycle is clean,
        // and a crash-reopen recovers the full state.
        assert!(pdb.scrub_cycle().clean());
        drop(pdb);
        let pdb = PersistentDatabase::open_with(vfs, &path).unwrap();
        assert_eq!(pdb.state_digest(), digest);
    }

    #[test]
    fn scrub_quarantines_when_no_local_clean_source_exists() {
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("scrub-quarantine.log");
        let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &path).unwrap();
        let i = populate(&mut pdb);
        pdb.sync().unwrap();
        // Damage the durable log AND the live base state (a type
        // violation the consistency sweep can attribute): neither copy
        // can repair the other.
        let len = vfs.read(&path).unwrap().len();
        fs.corrupt_byte(&path, len - 6, 0x40).unwrap();
        let mut broken = pdb.db().object(i).unwrap().clone();
        broken.attrs.insert("address".into(), Value::Int(3));
        pdb.db_mut_for_test().replace_object_for_test(broken);
        let report = pdb.scrub_cycle();
        assert!(report.core.consistency_errors > 0, "{report:?}");
        assert!(report.needs_replica, "{report:?}");
        assert!(!report.quarantined.is_empty(), "damage must be fenced: {report:?}");
        assert!(!report.healthy_after());
        // The quarantined class refuses to serve; every other class
        // keeps working.
        let bad = report.quarantined[0].clone();
        let now = pdb.db().now();
        assert!(matches!(
            pdb.db().pi(&bad, now),
            Err(tchimera_core::ModelError::Quarantined { .. })
        ));
        let other = ClassId::from(if bad == ClassId::from("person") { "employee" } else { "person" });
        assert!(pdb.db().pi(&other, now).is_ok(), "healthy class must keep serving");
        // Typed error surfaces through the engine conversion too.
        let err = EngineError::from(tchimera_core::ModelError::Quarantined { class: bad.clone() });
        assert!(matches!(err, EngineError::Quarantined { class } if class == bad));
    }
}

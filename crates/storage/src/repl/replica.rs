//! The receiving side of log replication.
//!
//! A [`Replica`] replays shipped operations into its **own**
//! [`PersistentDatabase`] — through the same `Operation::apply` path used
//! by local execution and recovery, and appended to its own log so the
//! replica is independently durable and crash-recoverable. Identity with
//! the primary is *verified*, not assumed: whenever the replica is
//! exactly aligned with a digest-carrying frame it compares
//! `state_digest()` values and halts on mismatch rather than serve a
//! diverged state.
//!
//! Because every log record — including a whole [`crate::Operation::Txn`]
//! batch — is one committed operation, the replica's state between
//! frames is always a committed-transaction-boundary state of the
//! primary's history; [`Replica::promote`] can therefore fail over at
//! any quiescent point.

use tchimera_core::{Database, DatabaseState};

use crate::codec::Codec;
use crate::engine::{EngineError, PersistentDatabase};
use crate::repl::frame::Frame;
use crate::repl::primary::Primary;
use crate::repl::transport::Transport;

/// Why a bounded-staleness read was refused.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplicaError {
    /// The replica detected divergence (digest mismatch) and refuses to
    /// serve anything until re-seeded.
    Halted(&'static str),
    /// The replica is further behind the primary than the caller's
    /// staleness bound allows.
    TooStale {
        /// Operations the replica is behind the last heard primary head.
        lag: u64,
        /// The caller's bound.
        max_lag: u64,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Halted(why) => write!(f, "replica halted: {why}"),
            ReplicaError::TooStale { lag, max_lag } => {
                write!(f, "replica {lag} ops behind primary (bound {max_lag})")
            }
        }
    }
}

impl std::error::Error for ReplicaError {}

/// The receiving side of a replication link.
pub struct Replica<T: Transport> {
    pdb: PersistentDatabase,
    term: u64,
    /// Highest primary op count heard (from batches and heartbeats).
    primary_total: u64,
    halted: Option<&'static str>,
    /// A [`Frame::ScrubPull`] is outstanding: the local scrubber found
    /// corruption it cannot repair and the next snapshot ship from the
    /// primary is installed unconditionally (even over a halted replica
    /// or at an equal op count).
    scrub_pending: bool,
    transport: T,
}

impl<T: Transport> Replica<T> {
    /// Wrap `pdb` as the follower end of a replication link. `pdb` may be
    /// empty (a fresh follower bootstraps via catch-up or a snapshot
    /// ship) or recovered from a previous life (it resumes from its
    /// durable op count).
    pub fn new(pdb: PersistentDatabase, transport: T) -> Replica<T> {
        crate::observability::touch_metrics();
        Replica { pdb, term: 0, primary_total: 0, halted: None, scrub_pending: false, transport }
    }

    /// Operations applied and locally logged (the ack watermark).
    pub fn applied(&self) -> u64 {
        self.pdb.op_count() as u64
    }

    /// The highest term heard from the link.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// How many operations behind the last heard primary head this
    /// replica is.
    pub fn lag(&self) -> u64 {
        self.primary_total.saturating_sub(self.applied())
    }

    /// `Some(reason)` if the replica stopped applying after detecting
    /// divergence.
    pub fn halted(&self) -> Option<&'static str> {
        self.halted
    }

    /// Read access to the wrapped database (for digest checks and
    /// test assertions; production reads go through
    /// [`Replica::read_view`]).
    pub fn db_ref(&self) -> &PersistentDatabase {
        &self.pdb
    }

    /// Serve a read-only view iff the replica is healthy and at most
    /// `max_lag` operations behind the primary's last heard head — an
    /// explicit bounded-staleness contract: the caller states how stale
    /// an answer it tolerates, and the replica refuses rather than
    /// silently serve older data.
    pub fn read_view(&self, max_lag: u64) -> Result<&Database, ReplicaError> {
        if let Some(why) = self.halted {
            return Err(ReplicaError::Halted(why));
        }
        let lag = self.lag();
        if lag > max_lag {
            tchimera_obs::counter!("repl.stale_reads.refused").inc();
            return Err(ReplicaError::TooStale { lag, max_lag });
        }
        Ok(self.pdb.db())
    }

    /// Drain and apply every deliverable frame, then acknowledge. Gaps
    /// (from dropped or reordered frames, or a local crash that rewound
    /// the durable op count) turn into [`Frame::CatchUp`] requests;
    /// duplicates are skipped by watermark comparison; corrupt frames
    /// are counted, discarded, and repaired by catch-up. Digests are
    /// verified whenever the replica is exactly aligned with a
    /// digest-carrying frame.
    pub fn pump(&mut self) -> Result<(), EngineError> {
        let mut want_catchup = false;
        while let Some(raw) = self.transport.recv() {
            let frame = match Frame::from_wire(&raw) {
                Ok(f) => f,
                Err(_) => {
                    tchimera_obs::counter!("repl.frames.corrupt").inc();
                    // Something was lost in transit; ask for a resend
                    // from our watermark.
                    want_catchup = true;
                    continue;
                }
            };
            if frame.term() < self.term {
                // A deposed primary's stragglers: never apply them.
                continue;
            }
            if frame.term() > self.term {
                self.term = frame.term();
                tchimera_obs::gauge!("repl.term").set(self.term as i64);
            }
            if self.halted.is_some() && !self.scrub_pending {
                continue;
            }
            match frame {
                Frame::Batch { start, ops, commit_digest, .. } => {
                    if self.halted.is_some() {
                        // Awaiting an authoritative image; incremental
                        // records would replay onto a diverged state.
                        continue;
                    }
                    let applied = self.applied();
                    let end = start + ops.len() as u64;
                    if start > applied {
                        // A gap: frames before this batch never arrived.
                        want_catchup = true;
                        continue;
                    }
                    if end <= applied {
                        continue; // pure duplicate
                    }
                    for op in &ops[(applied - start) as usize..] {
                        self.pdb.apply_replicated(op)?;
                        tchimera_obs::counter!("repl.ops.applied").inc();
                    }
                    self.primary_total = self.primary_total.max(end);
                    if let Some(d) = commit_digest {
                        self.check_digest(end, d);
                    }
                }
                Frame::Snapshot { ops_covered, digest, state, .. } => {
                    if !self.scrub_pending && ops_covered <= self.applied() {
                        continue; // stale or duplicate image
                    }
                    let image = match DatabaseState::from_bytes(&state) {
                        Ok(s) => s,
                        Err(_) => {
                            tchimera_obs::counter!("repl.frames.corrupt").inc();
                            want_catchup = true;
                            continue;
                        }
                    };
                    self.pdb.install_snapshot_image(image, ops_covered, digest)?;
                    self.primary_total = self.primary_total.max(ops_covered);
                    if self.scrub_pending {
                        // Anti-entropy repair: the authoritative image
                        // replaced whatever was corrupt, so the halt and
                        // any scrubber quarantine are lifted.
                        self.scrub_pending = false;
                        self.halted = None;
                        self.pdb.db().quarantine().clear();
                        tchimera_obs::counter!("core.scrub.repairs.replica_pull").inc();
                    }
                }
                Frame::Heartbeat { total, digest, .. } => {
                    if self.halted.is_some() {
                        continue;
                    }
                    self.primary_total = self.primary_total.max(total);
                    if self.applied() < total {
                        want_catchup = true;
                    } else if self.applied() == total {
                        self.check_digest(total, digest);
                    }
                }
                // Acks and catch-ups only flow replica→primary.
                _ => {}
            }
        }
        if want_catchup && self.halted.is_none() {
            tchimera_obs::counter!("repl.catchup.requests").inc();
            self.transport.send(
                Frame::CatchUp { term: self.term, from: self.applied() }.to_wire(),
            );
        }
        self.transport.send(
            Frame::Ack { term: self.term, applied: self.applied() }.to_wire(),
        );
        tchimera_obs::gauge!("repl.replica.lag").set(self.lag() as i64);
        self.transport.tick();
        Ok(())
    }

    /// Make the replica's applied prefix durable on its own disk.
    pub fn sync(&mut self) -> Result<(), EngineError> {
        self.pdb.sync()
    }

    /// Ask the primary for an authoritative full state image
    /// ([`Frame::ScrubPull`] anti-entropy). Used by the scrubber when
    /// local repair is exhausted: the next [`Frame::Snapshot`] received
    /// is installed unconditionally, clearing any halt and quarantine.
    pub fn request_scrub_repair(&mut self) {
        self.scrub_pending = true;
        self.transport.send(
            Frame::ScrubPull {
                term: self.term,
                applied: self.applied(),
                digest: self.pdb.state_digest(),
            }
            .to_wire(),
        );
    }

    /// `true` while an anti-entropy pull is outstanding.
    pub fn scrub_pending(&self) -> bool {
        self.scrub_pending
    }

    /// Run one full scrub cycle on the local database and, when local
    /// repair is exhausted ([`crate::StorageScrubReport::needs_replica`]),
    /// escalate to the primary via [`Replica::request_scrub_repair`].
    pub fn scrub_cycle(&mut self) -> crate::StorageScrubReport {
        let report = self.pdb.scrub_cycle();
        if report.needs_replica {
            self.request_scrub_repair();
        }
        report
    }

    /// Compare this replica's digest against the primary's at an exactly
    /// aligned op count; mismatch means divergence and halts the replica.
    fn check_digest(&mut self, _at: u64, expect: u64) {
        tchimera_obs::counter!("repl.digest.checks").inc();
        if !self.pdb.digest_matches(expect) {
            tchimera_obs::counter!("repl.digest.mismatches").inc();
            self.halted = Some("state digest diverged from primary");
        }
    }

    /// Deterministic failover: turn this replica into a writable
    /// [`Primary`] over the same link, under a term one higher than any
    /// heard so far. The local log is fsynced first, so the new primary
    /// starts from a durable, committed-transaction-boundary state (every
    /// replicated record — including a whole `Txn` — is one committed
    /// operation). The old primary hears the bumped term on its next
    /// frame and trips read-only: at most one node accepts writes.
    pub fn promote(mut self) -> Result<Primary<T>, EngineError> {
        if let Some(why) = self.halted {
            return Err(EngineError::Snapshot(crate::snapshot::SnapshotError::Corrupt(why)));
        }
        self.pdb.sync()?;
        tchimera_obs::counter!("repl.promotions").inc();
        let term = self.term + 1;
        Ok(Primary::new(self.pdb, term, self.transport))
    }

    /// Tear the replica apart (for test harnesses that crash the node and
    /// re-open its database).
    pub fn into_parts(self) -> (PersistentDatabase, u64, T) {
        (self.pdb, self.term, self.transport)
    }
}

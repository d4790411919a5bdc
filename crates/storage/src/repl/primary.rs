//! The shipping side of log replication.
//!
//! A [`Primary`] wraps a writable [`PersistentDatabase`] and, on every
//! [`Primary::pump`], ships the log suffix its follower has not yet seen.
//! Three disciplines keep this correct under crashes and a hostile
//! network:
//!
//! * **fsync before ship** — `pump` syncs the primary's own log before
//!   reading it for shipment, so every shipped operation is durable on
//!   the primary. A crashed-and-recovered primary can therefore never be
//!   *behind* its replica, which would be divergence.
//! * **pay for what is new** — the shipping cursor is an op index *and*
//!   the byte offset of that op's record, so a pump reads and walks only
//!   the records appended since the last one, and stamps its frames with
//!   the maintained state digest (`O(components written)`). A walk checks
//!   each record's CRC and decodes nothing: batches are slices of the
//!   bytes read, shipped verbatim. A follower behind the compaction
//!   horizon gets the log from byte 0, header and image included, in the
//!   same kind of batch. The offset is dropped — one re-walk from the
//!   header finds it again — when a catch-up rewinds the cursor or a
//!   checkpoint replaces the log file, and the cursor only ever
//!   advances over records that were walked and shipped: damage stalls
//!   it, never jumps it. Damage *below* a rewound cursor parks the offset
//!   at the damage, so a stalled primary reads nothing past it per pump
//!   until its scrubber re-checkpoints.
//! * **cumulative acks + catch-up** — the follower acknowledges a
//!   watermark, and requests resend from an explicit index when it
//!   detects a gap; the primary just rewinds its shipping cursor. Lost,
//!   duplicated and reordered frames all collapse into "resend from
//!   here".
//! * **term supremacy** — every received frame carrying a term higher
//!   than the primary's own means a replica was promoted; the primary
//!   immediately trips its circuit breaker and stays read-only
//!   ([`EngineError::ReadOnly`](crate::EngineError) on every write),
//!   refusing split-brain.

use tchimera_core::Database;

use crate::engine::{EngineError, PersistentDatabase};
use crate::log::{report_scan_damage, RecordWalk};
use crate::repl::frame::Frame;
use crate::repl::transport::Transport;

/// Operations per [`Frame::Batch`]; a shipment larger than this is split.
const BATCH_OPS: usize = 64;

/// A known record boundary: record `op` of the log file whose header
/// base is `base` starts at byte `offset`.
#[derive(Clone, Copy)]
struct LogPos {
    base: u64,
    op: u64,
    offset: u64,
}

/// The shipping side of a replication link.
pub struct Primary<T: Transport> {
    pdb: PersistentDatabase,
    term: u64,
    /// Next global op index to ship.
    cursor: u64,
    /// Where to read the log from: the record boundary the last walk
    /// stopped at. It is the cursor's own record unless damage stopped
    /// that walk below the cursor. Good for the log file with that base
    /// and a cursor at or above it only; otherwise (and when `None`: a
    /// fresh node) the pump walks from the header.
    cursor_at: Option<LogPos>,
    /// Follower's cumulative acknowledged watermark.
    acked: u64,
    deposed: bool,
    /// A follower's scrubber asked for an authoritative copy
    /// ([`Frame::ScrubPull`]); the next pump ships the log from byte 0
    /// regardless of the shipping cursor.
    scrub_pull: bool,
    transport: T,
}

impl<T: Transport> Primary<T> {
    /// Wrap `pdb` as the primary of a replication link, shipping with
    /// `term` stamped into every frame. A fresh deployment starts at
    /// term 1; a promoted replica passes the bumped term from
    /// [`Replica::promote`](crate::repl::Replica::promote).
    pub fn new(pdb: PersistentDatabase, term: u64, transport: T) -> Primary<T> {
        crate::observability::touch_metrics();
        tchimera_obs::gauge!("repl.term").set(term as i64);
        Primary {
            pdb,
            term,
            cursor: 0,
            cursor_at: None,
            acked: 0,
            deposed: false,
            scrub_pull: false,
            transport,
        }
    }

    /// The wrapped database (writable while this node holds the term).
    pub fn db(&mut self) -> &mut PersistentDatabase {
        &mut self.pdb
    }

    /// Read access to the wrapped database.
    pub fn db_ref(&self) -> &PersistentDatabase {
        &self.pdb
    }

    /// The live in-memory state.
    pub fn database(&self) -> &Database {
        self.pdb.db()
    }

    /// This node's replication term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The follower's acknowledged watermark (operations it has applied
    /// and logged locally).
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// `true` once a higher term was heard: this node is permanently
    /// read-only (until a human re-seeds it from the new primary).
    pub fn is_deposed(&self) -> bool {
        self.deposed
    }

    /// Voluntarily step down: trip the breaker so every local write fails
    /// with `EngineError::ReadOnly`, exactly as if a higher term had been
    /// heard.
    pub fn step_down(&mut self) {
        self.deposed = true;
        self.pdb.trip();
    }

    /// Drain follower feedback, then ship the un-acked log suffix: sync
    /// the local log (fsync before ship) and send [`Frame::Batch`] runs
    /// from the shipping cursor — reading the log from the cursor's byte
    /// offset, not from its start, and slicing the records read into
    /// batches without decoding them. When the cursor points below the
    /// local compaction horizon, or a scrubber pulled, the first batch
    /// starts at byte 0: the header and image, then the op records.
    /// Ends with a [`Frame::Heartbeat`] carrying the current op count and
    /// state digest so the follower can detect gaps and verify alignment.
    ///
    /// Returns `Ok(false)` without shipping once deposed.
    pub fn pump(&mut self) -> Result<bool, EngineError> {
        self.drain_feedback();
        if self.deposed {
            return Ok(false);
        }
        // Durability rule: nothing is shipped unless it is fsynced on the
        // primary first — a recovered primary must never be behind its
        // replica.
        self.pdb.sync()?;
        let total = self.pdb.op_count() as u64;
        let digest = self.pdb.state_digest();
        let base = self.pdb.base_op();
        // The follower needs operations folded into the local image — or
        // its scrubber asked for an authoritative copy: ship the file.
        let whole = self.cursor < base || std::mem::take(&mut self.scrub_pull);
        if whole {
            tchimera_obs::counter!("repl.snapshot.ships").inc();
            (self.cursor, self.cursor_at) = (base, None);
        }
        let (from_op, offset) = match self.cursor_at {
            Some(at) if at.base == base && at.op <= self.cursor => (at.op, at.offset),
            _ => {
                tchimera_obs::counter!("repl.cursor.rescans").add(u64::from(!whole));
                (base, 0)
            }
        };
        let buf = self.pdb.read_log_from(offset)?;
        let mut walk = RecordWalk::log(&buf, offset);
        // Records `from_op..cursor` were shipped before: walk past them.
        // Damage below the cursor leaves nothing to ship.
        let shipped = self.cursor - from_op;
        let mut walked = walk.by_ref().take(shipped as usize).count() as u64;
        // A whole-file batch starts at byte 0, where the header and image
        // stand for operations 0..base.
        let mut from_zero = whole && walk.image().is_ok();
        if walked == shipped {
            loop {
                let begin = if from_zero { 0 } else { walk.pos() };
                let n = walk.by_ref().take(BATCH_OPS).count() as u64;
                if n == 0 && !from_zero {
                    break;
                }
                let (start, end) = (if from_zero { 0 } else { self.cursor }, self.cursor + n);
                tchimera_obs::counter!("repl.ops.shipped").add(n);
                self.transport.send(Frame::batch_wire(
                    self.term,
                    start,
                    end - start,
                    // `digest` is the state after op `total`: a walk cut
                    // short by damage ends below it.
                    (end == total).then_some(digest),
                    &buf[begin..walk.pos()],
                ));
                self.cursor = end;
                walked += n;
                from_zero = false;
            }
        }
        report_scan_damage(walk.damage());
        // The next pump reads on from where this walk stopped: the
        // cursor's record, or the damage that keeps the cursor stalled.
        self.cursor_at = Some(LogPos {
            base,
            op: from_op + walked,
            offset: walk.offset(),
        });
        self.transport.send(
            Frame::Heartbeat { term: self.term, total, digest }.to_wire(),
        );
        self.transport.tick();
        Ok(true)
    }

    /// Process every queued follower frame: acks advance the watermark,
    /// catch-up requests rewind the shipping cursor, and any frame with a
    /// higher term deposes this primary.
    fn drain_feedback(&mut self) {
        while let Some(raw) = self.transport.recv() {
            let frame = match Frame::from_wire(&raw) {
                Ok(f) => f,
                Err(_) => {
                    tchimera_obs::counter!("repl.frames.corrupt").inc();
                    continue;
                }
            };
            if frame.term() > self.term {
                // A replica was promoted past us. Refuse split-brain:
                // permanently degrade to read-only.
                self.deposed = true;
                self.pdb.trip();
                continue;
            }
            match frame {
                Frame::Ack { applied, .. } => self.acked = self.acked.max(applied),
                Frame::CatchUp { from, .. } => {
                    tchimera_obs::counter!("repl.catchup.requests").inc();
                    // Below `cursor_at`, the next pump walks from the header.
                    self.cursor = self.cursor.min(from);
                }
                Frame::ScrubPull { .. } => {
                    // A follower's scrubber found locally-unrepairable
                    // corruption: answer with the whole log on the next
                    // pump (the carried watermark/digest are diagnostics
                    // only — ship the head unconditionally).
                    tchimera_obs::counter!("repl.scrub.pulls").inc();
                    self.scrub_pull = true;
                }
                // Batches and heartbeats only flow primary→replica;
                // stale or reflected ones are ignored.
                _ => {}
            }
        }
    }

    /// Tear the primary apart (for test harnesses that crash the node and
    /// re-open its database).
    pub fn into_parts(self) -> (PersistentDatabase, u64, T) {
        (self.pdb, self.term, self.transport)
    }
}

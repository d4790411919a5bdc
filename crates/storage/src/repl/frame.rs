//! The replication wire vocabulary.
//!
//! Every message exchanged between a [`Primary`](crate::repl::Primary)
//! and a [`Replica`](crate::repl::Replica) is one [`Frame`], wire-framed
//! exactly like a log record — `[len: u32 LE][crc32: u32 LE][payload]`,
//! CRC over the payload — so a transport that flips a bit, truncates a
//! message or delivers garbage is *detected* at the receiver, never
//! replayed into a database. The payload opens with the format version
//! ([`WIRE_VERSION`]) and the frame kind. Every frame carries the
//! sender's **term** (a monotonic epoch bumped by each promotion): a node
//! that hears a higher term than its own knows it has been superseded,
//! which is the whole split-brain refusal mechanism.
//!
//! A [`Frame::Batch`] carries log records verbatim — the bytes of the
//! primary's log, each record's own `[len][crc32]` included — so a
//! record is encoded once, by the node that first logged it, and
//! decoded once, by the replica that applies it. A batch that starts at
//! operation 0 carries the primary's log from byte 0, its header and
//! checkpoint image included when it has them: that is how a follower
//! behind the compaction horizon catches up. (Kind tag 1, a state image
//! frame before that, is refused as an unknown kind.)

use crate::codec::{read_u64, write_u64, Codec, CodecError, Reader};
use crate::log::{seal_frame, DamageReason, RecordWalk};

/// The wire format version: the first payload byte of every frame. The
/// unversioned format before it began the payload with a frame kind tag
/// (0–5), so versions count from 6 and no frame of that format reads as
/// a versioned one.
pub const WIRE_VERSION: u8 = 6;

/// One replication message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// `count` log records starting at global operation index `start`
    /// (0-based; `start` = number of operations preceding the first one
    /// here). With `start` 0, `records` is the primary's log from byte 0,
    /// whose checkpoint image (if any) stands for the first operations.
    /// When `commit_digest` is set, the batch is the last of a shipment
    /// and the digest is the primary's `state_digest()` after the final
    /// record — the replica verifies it once aligned.
    Batch {
        /// Sender's replication term.
        term: u64,
        /// Global index of the first record in `records`.
        start: u64,
        /// Records in `records`.
        count: u64,
        /// Primary state digest after the last record, when this batch
        /// ends a shipment at the primary's current head.
        commit_digest: Option<u64>,
        /// The records, back to back, byte for byte as the primary's log
        /// holds them: `[len][crc32][payload]` each, CRC included.
        records: Vec<u8>,
    },
    /// Periodic primary → replica beacon: the primary's current operation
    /// count and state digest. Lets a replica detect lost frames (it is
    /// behind `total`) and verify its digest when exactly aligned.
    Heartbeat {
        /// Sender's replication term.
        term: u64,
        /// Primary's total committed operation count.
        total: u64,
        /// Primary's `state_digest()` at `total`.
        digest: u64,
    },
    /// Replica → primary acknowledgement: `applied` operations are
    /// applied *and appended to the replica's own log* (the replica is
    /// independently durable up to its last sync).
    Ack {
        /// Sender's replication term.
        term: u64,
        /// Replica's applied watermark.
        applied: u64,
    },
    /// Replica → primary resend request: ship again from global index
    /// `from` (a gap, corrupt frame, or post-crash rewind was detected).
    CatchUp {
        /// Sender's replication term.
        term: u64,
        /// Global index to resume shipping from.
        from: u64,
    },
    /// Replica → primary anti-entropy request from the integrity
    /// scrubber: the replica found corruption it cannot repair locally
    /// (damaged log *and* damaged or unverifiable live state) and asks
    /// for an authoritative copy. The primary answers with its log from
    /// byte 0 regardless of how far the replica has applied.
    ScrubPull {
        /// Sender's replication term.
        term: u64,
        /// Replica's applied watermark (diagnostic; the primary ships
        /// its full head either way).
        applied: u64,
        /// Replica's current `state_digest()` (diagnostic).
        digest: u64,
    },
}

/// A wire buffer holding room for the `[len][crc32]` prefix, the version
/// byte, the kind `tag`, and `capacity` bytes more.
fn wire_head(tag: u8, capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(10 + capacity);
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(&[WIRE_VERSION, tag]);
    out
}

/// Seal a wire buffer begun by [`wire_head`].
fn sealed(mut out: Vec<u8>) -> Vec<u8> {
    seal_frame(&mut out);
    out
}

/// The wire bytes of a frame whose fields are all varints.
fn fixed(tag: u8, fields: &[u64]) -> Vec<u8> {
    let mut out = wire_head(tag, 10 * fields.len());
    for &v in fields {
        write_u64(&mut out, v);
    }
    sealed(out)
}

impl Frame {
    /// The sender's term stamped into this frame.
    pub fn term(&self) -> u64 {
        match self {
            Frame::Batch { term, .. }
            | Frame::Heartbeat { term, .. }
            | Frame::Ack { term, .. }
            | Frame::CatchUp { term, .. }
            | Frame::ScrubPull { term, .. } => *term,
        }
    }

    /// Encode into a checksummed wire frame (`[len][crc32][payload]`).
    pub fn to_wire(&self) -> Vec<u8> {
        match self {
            Frame::Batch {
                term,
                start,
                count,
                commit_digest,
                records,
            } => Frame::batch_wire(*term, *start, *count, *commit_digest, records),
            Frame::Heartbeat {
                term,
                total,
                digest,
            } => fixed(2, &[*term, *total, *digest]),
            Frame::Ack { term, applied } => fixed(3, &[*term, *applied]),
            Frame::CatchUp { term, from } => fixed(4, &[*term, *from]),
            Frame::ScrubPull {
                term,
                applied,
                digest,
            } => fixed(5, &[*term, *applied, *digest]),
        }
    }

    /// The wire bytes of a [`Frame::Batch`] over `records`, written
    /// straight from the slice: a primary ships the records of the log
    /// bytes it read without first copying them into a `Frame`. The
    /// records run to the end of the payload, so they need no length.
    pub(crate) fn batch_wire(
        term: u64,
        start: u64,
        count: u64,
        commit_digest: Option<u64>,
        records: &[u8],
    ) -> Vec<u8> {
        let mut out = wire_head(0, 40 + records.len());
        for v in [term, start, count] {
            write_u64(&mut out, v);
        }
        commit_digest.encode(&mut out);
        out.extend_from_slice(records);
        sealed(out)
    }

    /// Decode a checksummed wire frame, rejecting any damage: truncated
    /// header or payload, trailing bytes, checksum mismatch, a version
    /// this build does not speak, or a CRC-valid but undecodable payload.
    /// The records of a `Batch` are taken as they are; their own CRCs are
    /// checked by the replica's walk.
    pub fn from_wire(buf: &[u8]) -> Result<Frame, WireError> {
        let mut walk = RecordWalk::new(buf);
        let payload = match walk.next() {
            Some((_, payload)) if walk.pos() == buf.len() => payload,
            Some(_) => return Err(WireError::Truncated),
            None => {
                return Err(match walk.damage().map(|d| &d.reason) {
                    Some(DamageReason::ChecksumMismatch) => WireError::ChecksumMismatch,
                    _ => WireError::Truncated,
                })
            }
        };
        let mut r = Reader::new(payload);
        match r.byte().map_err(WireError::Decode)? {
            WIRE_VERSION => {}
            v => return Err(WireError::UnsupportedVersion(v)),
        }
        let frame = Frame::decode(&mut r).map_err(WireError::Decode)?;
        if !r.is_empty() {
            return Err(WireError::Decode(CodecError::Corrupt("trailing bytes")));
        }
        Ok(frame)
    }

    /// The frame after the version byte.
    fn decode(r: &mut Reader<'_>) -> Result<Frame, CodecError> {
        Ok(match r.byte()? {
            0 => Frame::Batch {
                term: read_u64(r)?,
                start: read_u64(r)?,
                count: read_u64(r)?,
                commit_digest: Option::<u64>::decode(r)?,
                records: r.bytes(r.remaining())?.to_vec(),
            },
            2 => Frame::Heartbeat {
                term: read_u64(r)?,
                total: read_u64(r)?,
                digest: read_u64(r)?,
            },
            3 => Frame::Ack { term: read_u64(r)?, applied: read_u64(r)? },
            4 => Frame::CatchUp { term: read_u64(r)?, from: read_u64(r)? },
            5 => Frame::ScrubPull {
                term: read_u64(r)?,
                applied: read_u64(r)?,
                digest: read_u64(r)?,
            },
            tag => return Err(CodecError::InvalidTag { what: "repl frame", tag }),
        })
    }
}

/// Why a received wire frame was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The buffer is shorter than its header claims (or has trailing
    /// bytes / an absurd length prefix).
    Truncated,
    /// The payload does not match its recorded CRC.
    ChecksumMismatch,
    /// The CRC was valid but the payload is not a well-formed frame.
    Decode(CodecError),
    /// The CRC was valid but the frame is of a wire version this build
    /// does not speak: [`WIRE_VERSION`] is the only one it reads.
    UnsupportedVersion(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire frame"),
            WireError::ChecksumMismatch => write!(f, "wire frame checksum mismatch"),
            WireError::Decode(e) => write!(f, "wire frame decode error: {e}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "wire frame version {v} (this build speaks {WIRE_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::encode_record;
    use crate::op::Operation;
    use tchimera_core::Instant;

    fn wire_round_trip(f: &Frame) {
        let wire = f.to_wire();
        let back = Frame::from_wire(&wire).expect("decode");
        assert_eq!(&back, f);
        assert_eq!(back.to_wire(), wire, "re-encoding differs");
    }

    fn records(ticks: &[u64]) -> Vec<u8> {
        ticks
            .iter()
            .flat_map(|&t| encode_record(&Operation::AdvanceTo(Instant(t))))
            .collect()
    }

    #[test]
    fn frames_round_trip() {
        wire_round_trip(&Frame::Ack { term: 1, applied: 42 });
        wire_round_trip(&Frame::CatchUp { term: 7, from: 0 });
        wire_round_trip(&Frame::Heartbeat { term: 2, total: 9, digest: u64::MAX });
        wire_round_trip(&Frame::Batch {
            term: 3,
            start: 5,
            count: 2,
            commit_digest: Some(0xdead_beef),
            records: records(&[9, 10]),
        });
        wire_round_trip(&Frame::ScrubPull { term: 6, applied: 12, digest: 0x0123_4567 });
    }

    #[test]
    fn a_batch_is_its_header_and_then_the_records_verbatim() {
        let recs = records(&[4, 5, 6]);
        let wire = Frame::batch_wire(9, 3, 3, None, &recs);
        assert!(
            wire.ends_with(&recs),
            "the records are not copied through a codec"
        );
        assert_eq!(wire[8], WIRE_VERSION);
        let frame = Frame::Batch {
            term: 9,
            start: 3,
            count: 3,
            commit_digest: None,
            records: recs,
        };
        assert_eq!(frame.to_wire(), wire);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let wire = Frame::batch_wire(9, 3, 1, None, &records(&[4]));
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x01;
            assert!(Frame::from_wire(&bad).is_err(), "flip at byte {i} accepted");
        }
        for cut in 0..wire.len() {
            assert!(Frame::from_wire(&wire[..cut]).is_err(), "truncation at {cut} accepted");
        }
        // The anti-entropy request gets the same guarantee.
        let wire = Frame::ScrubPull { term: 1, applied: 8, digest: 0xfeed }.to_wire();
        for i in 0..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x01;
            assert!(Frame::from_wire(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn another_version_is_refused_by_type() {
        let mut wire = Frame::Ack {
            term: 1,
            applied: 2,
        }
        .to_wire();
        for v in [WIRE_VERSION + 1, 0, 3] {
            wire[8] = v;
            seal_frame(&mut wire);
            assert_eq!(
                Frame::from_wire(&wire),
                Err(WireError::UnsupportedVersion(v))
            );
        }
    }
}

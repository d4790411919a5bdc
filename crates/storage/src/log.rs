//! The append-only operation log.
//!
//! Record framing: `[len: u32 LE][crc32: u32 LE][payload: len bytes]`,
//! where the CRC covers the payload. A compacted log starts with a
//! 20-byte header — the magic `TCLOG001`, a u64 LE *base* (the number of
//! operations that were folded into a snapshot and dropped from the
//! log), and a u32 LE CRC of the base field: a flipped bit in the base
//! must be *detected*, never silently shift the replay origin.
//! Headerless files read as base 0 (the pre-compaction format).
//!
//! Reading is two steps. The frame walker ([`RecordWalk`]) yields each
//! CRC-valid record and stops at the first torn or checksum-damaged
//! frame; the decode step turns one record's payload into an
//! [`Operation`]. A replication primary ships what the walker yields
//! without decoding it, and the replica decodes each record once, then
//! appends it verbatim.
//!
//! Replay is one pass (`replay`): walk → decode → apply, one record at
//! a time, each decoded operation moved into the model before the next
//! record is read — no list of operations is ever built. Recovery, the
//! scrubber's re-materialization and transaction-time travel all run it.
//! The pass ends at EOF or the first damaged record — a torn frame, a
//! checksum mismatch, or a CRC-valid but undecodable payload — and
//! reports where (`Pass::damage`); an open then truncates everything
//! from that point on (`OpLog::adopt`) before anything is appended.
//! [`OpLog::scan_bytes`] is the same walk collecting the operations
//! instead. All I/O goes through the pluggable [`Vfs`] layer so the
//! crash-matrix tests can run the identical code against a
//! fault-injecting filesystem.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tchimera_core::Database;

use crate::codec::{Codec, CodecError, Reader};
use crate::op::{note_applied, note_decoded, Operation, ReplayError};
use crate::vfs::{StdFs, Vfs, VfsFile};

/// Magic prefix of a log file carrying a compaction header.
pub const LOG_MAGIC: &[u8; 8] = b"TCLOG001";

/// Byte length of the compaction header (magic + u64 base + u32 CRC).
const HEADER_LEN: u64 = 20;

/// Byte length of a record's (and a wire frame's) `[len][crc32]` prefix.
const FRAME_HEAD: usize = 8;

/// Slicing-by-8 tables of CRC-32 (IEEE 802.3, reflected `0xEDB88320`):
/// `CRC_TABLES[0]` is the byte-at-a-time table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3) of `data`: the checksum of every log record and
/// every wire frame.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// Fill in the `[len][crc32]` prefix of `frame`, whose payload is the
/// rest of it: a record or wire frame is encoded in place, its payload
/// written once.
pub(crate) fn seal_frame(frame: &mut [u8]) {
    let (head, payload) = frame.split_at_mut(FRAME_HEAD);
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// The log record holding `op`: `[len][crc32][payload]`, exactly the
/// bytes [`OpLog::append`] writes.
pub fn encode_record(op: &Operation) -> Vec<u8> {
    // Room for a typical record up front: growing the buffer from the
    // prefix's eight bytes while encoding costs more than the encoding.
    let mut record = Vec::with_capacity(64);
    record.extend_from_slice(&[0; FRAME_HEAD]);
    op.encode(&mut record);
    seal_frame(&mut record);
    record
}

/// The decode step: the one operation a record's payload holds, read with
/// `r` — one reader shared by every record of a walk, so a name is
/// interned once per walk, not once per record. A payload with bytes left
/// over is as undecodable as one that ends early.
pub(crate) fn decode_record<'a>(
    r: &mut Reader<'a>,
    payload: &'a [u8],
) -> Result<Operation, CodecError> {
    r.restart(payload);
    let op = Operation::decode(r)?;
    if r.is_empty() {
        note_decoded();
        Ok(op)
    } else {
        Err(CodecError::Corrupt("trailing bytes"))
    }
}

/// The CRC-32 of `head ++ data`, given `crc = crc32(head)`: a checksum
/// over several pieces never needs them copied into one buffer.
pub(crate) fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// The directory holding `path`, for post-create/rename fsyncs.
pub(crate) fn parent_dir(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Errors raised by the log.
#[derive(Debug)]
pub enum LogError {
    /// Underlying I/O failure. (An undecodable record is not an error
    /// but damage: [`DamageReason::Undecodable`].)
    Io(io::Error),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log I/O error: {e}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e)
    }
}

/// Why a log tail was declared damaged.
#[derive(Clone, Debug, PartialEq)]
pub enum DamageReason {
    /// The frame header or payload extends past EOF (torn write).
    TruncatedFrame,
    /// The payload does not match its recorded CRC (bit rot / torn write).
    ChecksumMismatch,
    /// The CRC was valid but the payload is not a well-formed operation.
    Undecodable(CodecError),
}

/// A damaged tail found while scanning: everything from `offset` on is
/// unusable and gets truncated so appends can resume from the valid
/// prefix.
#[derive(Clone, Debug, PartialEq)]
pub struct TailDamage {
    /// Byte offset at which the damage begins (= the valid prefix length).
    pub offset: u64,
    /// What was wrong at that offset.
    pub reason: DamageReason,
}

/// The single reporting path for scan damage: every scan — the open-time
/// recovery scan, transaction-time inspection, and the scrubber's
/// re-verification — funnels damage through this one function so the
/// `storage.log.scan.damaged` counter and its warn event mean the same
/// thing regardless of who found the damage.
pub(crate) fn report_scan_damage(damage: Option<&TailDamage>) {
    if let Some(d) = damage {
        tchimera_obs::counter!("storage.log.torn_tails").inc();
        tchimera_obs::counter!("storage.log.scan.damaged").inc();
        tchimera_obs::event!(
            "storage.log.scan.damaged",
            level = "warn",
            offset = d.offset,
            reason = d.reason
        );
    }
}

/// The frame walker: the CRC-valid records of a buffer, in order, each as
/// its absolute byte offset and its payload. The walk stops at the first
/// torn or checksum-damaged frame and keeps it in [`RecordWalk::damage`];
/// nothing is decoded.
pub struct RecordWalk<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Absolute offset of `buf[0]`.
    origin: u64,
    base: u64,
    damage: Option<TailDamage>,
}

impl<'a> RecordWalk<'a> {
    /// Walk `buf` as records back to back, with no header: a replication
    /// batch, a wire frame.
    pub fn new(buf: &'a [u8]) -> RecordWalk<'a> {
        RecordWalk {
            buf,
            pos: 0,
            origin: 0,
            base: 0,
            damage: None,
        }
    }

    /// Walk a log file's bytes from byte `offset` on: 0 — the whole file,
    /// whose compaction header (if any) is checked and skipped — or a
    /// record boundary such as an earlier walk's [`RecordWalk::offset`].
    pub fn log(buf: &'a [u8], offset: u64) -> RecordWalk<'a> {
        let mut walk = RecordWalk {
            origin: offset,
            ..RecordWalk::new(buf)
        };
        if offset > 0 || !buf.starts_with(LOG_MAGIC) {
            return walk;
        }
        let reason = if buf.len() < HEADER_LEN as usize {
            // A torn header: nothing usable in the file.
            DamageReason::TruncatedFrame
        } else if crc32(&buf[8..16]) != u32::from_le_bytes(buf[16..20].try_into().unwrap()) {
            // A corrupted base would silently shift the replay origin —
            // refuse the whole file instead.
            DamageReason::ChecksumMismatch
        } else {
            walk.base = u64::from_le_bytes(buf[8..16].try_into().unwrap());
            walk.pos = HEADER_LEN as usize;
            return walk;
        };
        walk.damage = Some(TailDamage { offset: 0, reason });
        walk
    }

    /// The base the compaction header records (0 without a header, and
    /// for a walk that did not start at byte 0).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Bytes of the buffer walked so far: the end of the last record
    /// yielded (or of the header).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Absolute offset of the next record — where the damage begins once
    /// the walk has stopped at some.
    pub fn offset(&self) -> u64 {
        self.origin + self.pos as u64
    }

    /// The damage that ended the walk before the end of the buffer.
    pub fn damage(&self) -> Option<&TailDamage> {
        self.damage.as_ref()
    }
}

impl<'a> Iterator for RecordWalk<'a> {
    type Item = (u64, &'a [u8]);

    fn next(&mut self) -> Option<(u64, &'a [u8])> {
        if self.damage.is_some() || self.pos == self.buf.len() {
            return None;
        }
        let at = self.offset();
        let rest = &self.buf[self.pos..];
        let reason = if rest.len() < FRAME_HEAD {
            DamageReason::TruncatedFrame
        } else {
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
            match rest[FRAME_HEAD..].get(..len) {
                None => DamageReason::TruncatedFrame,
                Some(payload) if crc32(payload) == crc => {
                    self.pos += FRAME_HEAD + len;
                    return Some((at, payload));
                }
                Some(_) => DamageReason::ChecksumMismatch,
            }
        };
        self.damage = Some(TailDamage { offset: at, reason });
        None
    }
}

/// What one pass over a log's bytes found: the records it decoded, where
/// the valid prefix ends and the damage that ended it.
pub(crate) struct Pass {
    /// Operations compacted away before the log's first record (the
    /// header base; 0 for headerless logs).
    pub(crate) base: u64,
    /// Records decoded.
    pub(crate) records: u64,
    /// Bytes of valid prefix (where the damage begins, if any).
    pub(crate) valid_len: u64,
    /// The torn, checksum-damaged or undecodable record that ended it.
    pub(crate) damage: Option<TailDamage>,
}

impl Pass {
    /// Walk `walk` to its end (or its first `limit` records), decoding
    /// each record with one shared reader and handing the operation to
    /// `each` by value. A CRC-valid record that does not decode is damage
    /// at its offset like any other: it ends the pass and is reported,
    /// never raised.
    fn run(mut walk: RecordWalk<'_>, limit: u64, mut each: impl FnMut(Operation)) -> Pass {
        let _span = tchimera_obs::span!("storage.log.scan", bytes = walk.buf.len());
        let mut r = Reader::new(&[]);
        let (mut records, mut damage) = (0, None);
        while records < limit {
            let Some((at, payload)) = walk.next() else {
                damage = walk.damage().cloned();
                break;
            };
            match decode_record(&mut r, payload) {
                Ok(op) => {
                    records += 1;
                    each(op);
                }
                Err(e) => {
                    damage = Some(TailDamage {
                        offset: at,
                        reason: DamageReason::Undecodable(e),
                    });
                    break;
                }
            }
        }
        let valid_len = damage.as_ref().map_or(walk.offset(), |d| d.offset);
        tchimera_obs::counter!("storage.log.scanned_ops").add(records);
        report_scan_damage(damage.as_ref());
        Pass {
            base: walk.base(),
            records,
            valid_len,
            damage,
        }
    }
}

/// The one replay loop: decode the records of `walk` one at a time and
/// fold them into `db`. The first `skip` records are passed over — a
/// snapshot holds them — but still decoded, so damage among them is
/// still found; the next `take` are applied by value, and the pass ends
/// after them. With no `db` every record is passed over: the pass only
/// counts and finds damage.
///
/// A record the model rejects ends the applying, not the pass: the
/// records after it are still decoded, so the count and the damage are
/// what any other pass over the bytes reports, and the rejection comes
/// back next to them.
pub(crate) fn replay(
    walk: RecordWalk<'_>,
    mut db: Option<&mut Database>,
    skip: u64,
    take: u64,
) -> (Pass, Result<(), ReplayError>) {
    let (mut seen, mut outcome) = (0, Ok(()));
    let pass = Pass::run(walk, skip.saturating_add(take), |op| {
        seen += 1;
        match db.as_deref_mut() {
            Some(db) if seen > skip && outcome.is_ok() => outcome = op.apply_owned(db),
            _ => note_applied(),
        }
    });
    (pass, outcome)
}

/// The outcome of opening a log: the decoded operations plus tail
/// diagnostics.
pub struct LogScan {
    /// All intact operations, in append order.
    pub ops: Vec<Operation>,
    /// Operations compacted away before this file's first record (the
    /// header base; 0 for headerless logs).
    pub base_op: u64,
    /// Bytes of valid prefix.
    pub valid_len: u64,
    /// `true` if a torn/corrupt tail was found (and will be truncated on
    /// the next append).
    pub torn_tail: bool,
    /// Where and why the tail was damaged, when `torn_tail` is set.
    pub damage: Option<TailDamage>,
}

/// An append-only, CRC-framed operation log backed by a single file.
pub struct OpLog {
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    len: u64,
    appended: u64,
    base: u64,
    /// Set when a failed append may have left partial frame bytes on disk
    /// that could not be truncated away. While set, every append/sync
    /// first re-attempts the truncation ([`OpLog::heal`]) — appending
    /// after unremoved garbage would silently lose every later record at
    /// recovery (the scan stops at the first damaged frame).
    dirty: bool,
}

impl OpLog {
    /// Open (or create) the log at `path` on the real filesystem and scan
    /// its contents.
    pub fn open(path: impl AsRef<Path>) -> Result<(OpLog, LogScan), LogError> {
        Self::open_with(Arc::new(StdFs), path.as_ref())
    }

    /// Open (or create) the log at `path` through the given [`Vfs`].
    ///
    /// Durability discipline: a freshly created log file is followed by an
    /// fsync of its parent directory (a crash right after create must not
    /// lose the file), and a torn-tail truncation is itself fsynced (the
    /// truncate must not un-happen after appends resume).
    pub fn open_with(vfs: Arc<dyn Vfs>, path: &Path) -> Result<(OpLog, LogScan), LogError> {
        let (mut log, buf) = Self::open_unscanned(vfs, path)?;
        let scan = Self::scan_bytes(&buf);
        log.adopt(scan.base_op, scan.valid_len, scan.torn_tail)?;
        Ok((log, scan))
    }

    /// Open (or create) the log at `path` and read its bytes, leaving the
    /// pass over them to the caller: [`OpLog::adopt`] what it found
    /// before the first append.
    pub(crate) fn open_unscanned(
        vfs: Arc<dyn Vfs>,
        path: &Path,
    ) -> Result<(OpLog, Vec<u8>), LogError> {
        let path = path.to_path_buf();
        let existed = vfs.exists(&path);
        let file = vfs.open_append(&path)?;
        if !existed {
            vfs.sync_dir(&parent_dir(&path))?;
        }
        let buf = vfs.read(&path)?;
        let log = OpLog {
            vfs,
            file,
            path,
            len: 0,
            appended: 0,
            base: 0,
            dirty: false,
        };
        Ok((log, buf))
    }

    /// Take up what a pass over this log's bytes found: the header's
    /// `base` and the `valid_len` bytes before any damage. A `damaged`
    /// tail is truncated so appends resume from the valid prefix, and the
    /// truncation is made durable before anything is appended after it.
    pub(crate) fn adopt(&mut self, base: u64, valid_len: u64, damaged: bool) -> Result<(), LogError> {
        if damaged {
            self.file.set_len(valid_len)?;
            self.file.sync()?;
        }
        self.len = valid_len;
        self.base = base;
        Ok(())
    }

    /// Scan raw log bytes: walk the header (if any) and every intact
    /// record, decoding each, and stop at the first damage. Never fails —
    /// damage is reported in the scan, not raised.
    pub fn scan_bytes(buf: &[u8]) -> LogScan {
        let mut ops = Vec::new();
        let pass = Pass::run(RecordWalk::log(buf, 0), u64::MAX, |op| ops.push(op));
        LogScan {
            ops,
            base_op: pass.base,
            valid_len: pass.valid_len,
            torn_tail: pass.damage.is_some(),
            damage: pass.damage,
        }
    }

    /// The bytes of this log from byte `offset` on — 0 (the whole file,
    /// header included) or a record boundary — durable bytes and buffered
    /// appends alike, as any `Vfs` read sees them. Walk them with
    /// [`RecordWalk::log`] and the same `offset`.
    pub(crate) fn read_from(&self, offset: u64) -> Result<Vec<u8>, LogError> {
        Ok(self.vfs.read_from(&self.path, offset)?)
    }

    /// Re-truncate the file to the last known-good length after a failed
    /// append may have left partial frame bytes behind. Idempotent; a
    /// no-op when the log is clean.
    fn heal(&mut self) -> Result<(), LogError> {
        if !self.dirty {
            return Ok(());
        }
        self.file.set_len(self.len)?;
        self.file.sync()?;
        self.dirty = false;
        Ok(())
    }

    /// Append one operation (buffered; call [`OpLog::sync`] to make it
    /// durable): encode it, then append the one record.
    ///
    /// On failure the file is rolled back to its pre-append length, so a
    /// partially-written frame can never sit underneath later appends.
    pub fn append(&mut self, op: &Operation) -> Result<(), LogError> {
        self.append_records(&encode_record(op), 1)
    }

    /// Append `count` already-framed records with one write (buffered):
    /// `records` holds them back to back, each `[len][crc32][payload]`,
    /// and is appended verbatim, CRCs included — a replica's log grows by
    /// exactly the bytes its primary's did. The caller vouches that they
    /// are whole, CRC-valid records that decode ([`encode_record`]'s, or
    /// ones a walk accepted and a decode read).
    ///
    /// On failure the file is rolled back to its pre-append length, so a
    /// partially-written frame can never sit underneath later appends
    /// (which would make every later record unrecoverable — the scan
    /// stops at the first damaged frame). If the rollback itself fails,
    /// the log stays poisoned and re-attempts the rollback before any
    /// further append or sync.
    pub(crate) fn append_records(&mut self, records: &[u8], count: u64) -> Result<(), LogError> {
        self.heal()?;
        if let Err(e) = self.file.write_all(records) {
            self.dirty = true;
            let _ = self.heal();
            return Err(LogError::Io(e));
        }
        self.len += records.len() as u64;
        self.appended += count;
        tchimera_obs::counter!("storage.log.appends").add(count);
        tchimera_obs::counter!("storage.log.bytes").add(records.len() as u64);
        Ok(())
    }

    /// Flush and fsync.
    pub fn sync(&mut self) -> Result<(), LogError> {
        let _span = tchimera_obs::span!("storage.log.fsync");
        self.heal()?;
        self.file.sync()?;
        Ok(())
    }

    /// Replace the log with an empty one whose header records that the
    /// first `base` operations live in a snapshot (log compaction). The
    /// swap is atomic and durable: write a temp file, fsync it, rename
    /// over the log, fsync the directory. On return this handle appends
    /// to the fresh log and [`OpLog::appended`] restarts from 0.
    pub fn compact_to(&mut self, base: u64) -> Result<(), LogError> {
        tchimera_obs::counter!("storage.log.compactions").inc();
        let tmp = self.path.with_extension("log.tmp");
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(LOG_MAGIC);
        header.extend_from_slice(&base.to_le_bytes());
        header.extend_from_slice(&crc32(&base.to_le_bytes()).to_le_bytes());
        let mut f = self.vfs.open_trunc(&tmp)?;
        f.write_all(&header)?;
        f.sync()?;
        drop(f);
        self.vfs.rename(&tmp, &self.path)?;
        self.vfs.sync_dir(&parent_dir(&self.path))?;
        self.file = self.vfs.open_append(&self.path)?;
        self.len = HEADER_LEN;
        self.appended = 0;
        self.base = base;
        self.dirty = false;
        Ok(())
    }

    /// Operations compacted away before this log's first record.
    pub fn base_op(&self) -> u64 {
        self.base
    }

    /// Current byte length of the valid log.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Operations appended through this handle (since open or the last
    /// compaction).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::SimFs;
    use tchimera_core::{ClassDef, ClassId, Instant};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tchimera-log-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_ops() -> Vec<Operation> {
        vec![
            Operation::AdvanceTo(Instant(5)),
            Operation::DefineClass(ClassDef::new("c")),
            Operation::CreateObject {
                class: ClassId::from("c"),
                init: Default::default(),
                expect: tchimera_core::Oid(0),
            },
        ]
    }

    #[test]
    fn append_and_rescan() {
        let path = tmp("basic");
        {
            let (mut log, scan) = OpLog::open(&path).unwrap();
            assert!(scan.ops.is_empty());
            assert!(!scan.torn_tail);
            for op in sample_ops() {
                log.append(&op).unwrap();
            }
            log.sync().unwrap();
            assert_eq!(log.appended(), 3);
        }
        let (log, scan) = OpLog::open(&path).unwrap();
        assert_eq!(scan.ops.len(), 3);
        assert!(!scan.torn_tail);
        assert!(scan.damage.is_none());
        assert_eq!(scan.base_op, 0);
        assert_eq!(scan.valid_len, log.len_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn");
        {
            let (mut log, _) = OpLog::open(&path).unwrap();
            for op in sample_ops() {
                log.append(&op).unwrap();
            }
            log.sync().unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the end.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (mut log, scan) = OpLog::open(&path).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.ops.len(), 2); // last record lost
        let damage = scan.damage.expect("damage reported");
        assert_eq!(damage.offset, scan.valid_len);
        assert_eq!(damage.reason, DamageReason::TruncatedFrame);
        // The file was truncated to the valid prefix; appends resume.
        log.append(&Operation::AdvanceTo(Instant(9))).unwrap();
        log.sync().unwrap();
        drop(log);
        let (_, scan) = OpLog::open(&path).unwrap();
        assert!(!scan.torn_tail);
        assert_eq!(scan.ops.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bitflip_in_payload_detected() {
        let path = tmp("bitflip");
        {
            let (mut log, _) = OpLog::open(&path).unwrap();
            for op in sample_ops() {
                log.append(&op).unwrap();
            }
            log.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, scan) = OpLog::open(&path).unwrap();
        assert!(scan.torn_tail);
        assert!(scan.ops.len() < 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn undecodable_record_is_damage_not_abort() {
        // A frame whose CRC is valid but whose payload is garbage: scan
        // must truncate at that record's offset, keeping the prefix.
        let op = Operation::AdvanceTo(Instant(5));
        let payload = op.to_bytes();
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let good_len = buf.len() as u64;
        let garbage = [0xfeu8, 0xff, 0xff];
        buf.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&garbage).to_le_bytes());
        buf.extend_from_slice(&garbage);
        let scan = OpLog::scan_bytes(&buf);
        assert_eq!(scan.ops.len(), 1);
        assert_eq!(scan.valid_len, good_len);
        let damage = scan.damage.expect("undecodable tail reported");
        assert_eq!(damage.offset, good_len);
        assert!(matches!(damage.reason, DamageReason::Undecodable(_)));
    }

    #[test]
    fn the_walker_yields_crc_valid_records_and_stops_at_damage() {
        let records: Vec<Vec<u8>> = sample_ops().iter().map(encode_record).collect();
        let buf = records.concat();
        let starts = [0, records[0].len(), records[0].len() + records[1].len()];
        let walked: Vec<_> = RecordWalk::new(&buf).collect();
        assert_eq!(walked.len(), 3);
        for ((at, payload), (start, record)) in walked.iter().zip(starts.iter().zip(&records)) {
            assert_eq!((*at, *payload), (*start as u64, &record[8..]));
        }
        // A flipped payload byte in the second record: one record, then
        // damage where the second begins. A cut inside the third: two.
        let mut bad = buf.clone();
        bad[starts[1] + 9] ^= 0x04;
        let mut walk = RecordWalk::new(&bad);
        assert_eq!(walk.by_ref().count(), 1);
        let damage = walk.damage().expect("damage");
        assert_eq!(
            (damage.offset, &damage.reason),
            (starts[1] as u64, &DamageReason::ChecksumMismatch)
        );
        assert_eq!(walk.offset(), starts[1] as u64);
        let mut walk = RecordWalk::new(&buf[..buf.len() - 1]);
        assert_eq!(walk.by_ref().count(), 2);
        assert_eq!(
            walk.damage().map(|d| &d.reason),
            Some(&DamageReason::TruncatedFrame)
        );
        // From a record boundary of a log file, offsets are absolute.
        let mut walk = RecordWalk::log(&buf[starts[1]..], starts[1] as u64);
        assert_eq!(walk.next().map(|(at, _)| at), Some(starts[1] as u64));
    }

    #[test]
    fn appended_records_land_verbatim() {
        let fs = SimFs::new();
        let path = PathBuf::from("wal.log");
        let (mut log, _) = OpLog::open_with(Arc::new(fs.clone()), &path).unwrap();
        log.append(&Operation::AdvanceTo(Instant(1))).unwrap();
        let run: Vec<u8> = sample_ops().iter().flat_map(encode_record).collect();
        log.append_records(&run, 3).unwrap();
        assert_eq!(log.appended(), 4);
        let bytes = fs.contents(&path).unwrap();
        assert!(bytes.ends_with(&run));
        assert_eq!(log.len_bytes(), bytes.len() as u64);
        let scan = OpLog::scan_bytes(&bytes);
        assert_eq!((scan.ops.len(), scan.torn_tail), (4, false));
    }

    #[test]
    fn compaction_rewrites_header_and_resets_log() {
        let path = tmp("compact");
        let (mut log, _) = OpLog::open(&path).unwrap();
        for op in sample_ops() {
            log.append(&op).unwrap();
        }
        log.sync().unwrap();
        log.compact_to(3).unwrap();
        assert_eq!(log.base_op(), 3);
        assert_eq!(log.appended(), 0);
        log.append(&Operation::AdvanceTo(Instant(9))).unwrap();
        log.sync().unwrap();
        drop(log);
        let (log, scan) = OpLog::open(&path).unwrap();
        assert_eq!(scan.base_op, 3);
        assert_eq!(log.base_op(), 3);
        assert_eq!(scan.ops.len(), 1);
        assert!(!scan.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsynced_log_creation_survives_via_dir_sync() {
        // The open path fsyncs the parent directory after creating the
        // file, so a crash immediately after open cannot lose the log.
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("wal.log");
        let (log, _) = OpLog::open_with(Arc::clone(&vfs), &path).unwrap();
        drop(log);
        fs.crash(crate::vfs::TearMode::DropAll);
        assert!(fs.exists(&path), "log file lost after crash-after-create");
    }

    #[test]
    fn torn_tail_truncation_is_synced() {
        // Write two records, sync, append a third, crash keeping half the
        // unsynced write; reopen truncates the torn tail and syncs that
        // truncation — a second crash must not resurrect the torn bytes.
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("wal.log");
        {
            let (mut log, _) = OpLog::open_with(Arc::clone(&vfs), &path).unwrap();
            log.append(&Operation::AdvanceTo(Instant(1))).unwrap();
            log.append(&Operation::AdvanceTo(Instant(2))).unwrap();
            log.sync().unwrap();
            log.append(&Operation::DefineClass(ClassDef::new("c"))).unwrap();
        }
        fs.crash(crate::vfs::TearMode::KeepHalf);
        let (log, scan) = OpLog::open_with(Arc::clone(&vfs), &path).unwrap();
        assert!(scan.torn_tail);
        assert_eq!(scan.ops.len(), 2);
        drop(log);
        fs.crash(crate::vfs::TearMode::KeepAll);
        let (_, scan) = OpLog::open_with(vfs, &path).unwrap();
        assert!(!scan.torn_tail, "truncation was not durable");
        assert_eq!(scan.ops.len(), 2);
    }

    #[test]
    fn crc_reference_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        // Eight bytes at a time, a byte at a time and in pieces agree.
        let data: Vec<u8> = (0..1021u32).map(|i| (i * 31 % 251) as u8).collect();
        let bytewise = data.iter().fold(0, |crc, b| crc32_extend(crc, &[*b]));
        assert_eq!(crc32(&data), bytewise);
        for cut in [0, 1, 7, 8, 9, 500, 1021] {
            assert_eq!(crc32_extend(crc32(&data[..cut]), &data[cut..]), bytewise);
        }
    }
}

//! The append-only operation log: the one durable file of a database.
//!
//! A log file (format: `DESIGN.md` §8.1) is a header and an image —
//! written by a checkpoint: magic `TCLOG002`, base, image record count,
//! digest and a CRC over the three, then the image records of
//! [`crate::image`] — followed by op records, op record `i` being
//! operation `base + i`. Every record is framed `[len: u32][crc32:
//! u32][payload]`. A file with no header is a log of base 0.
//!
//! Reading is two steps. The frame walker ([`RecordWalk`]) checks the
//! header, walks the image, then yields each CRC-valid op record and
//! stops at the first torn or checksum-damaged frame; the decode step
//! turns one record's payload into an [`Operation`]. A replication
//! primary ships what the walker yields without decoding it, and the
//! replica decodes each record once, then appends it verbatim.
//!
//! Replay is one pass (`replay`): walk → decode → apply, one record at
//! a time, each decoded operation moved into the model before the next
//! record is read — no list of operations is ever built. Recovery, the
//! scrubber's re-materialization and transaction-time travel all run it.
//! The pass ends at EOF or the first damaged record — a torn frame, a
//! checksum mismatch, or a CRC-valid but undecodable payload — and
//! reports where (`Pass::damage`); an open then truncates everything
//! from that point on (`OpLog::adopt`) before anything is appended.
//!
//! Writing follows the fsync rule of `DESIGN.md` §8.1: an fsync is never
//! retried, and after a failed one the next sync first writes again the
//! records appended since the last good one. All I/O goes through the
//! pluggable [`Vfs`] layer so the fault scenarios run the identical code
//! against a fault-injecting filesystem.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tchimera_core::Database;

use crate::codec::{Codec, CodecError, Reader};
use crate::op::{note_applied, note_decoded, Operation, ReplayError};
use crate::vfs::{Vfs, VfsFile};

#[doc(hidden)]
pub use crate::driver_compat::LogScan;

/// Magic prefix of a log file that begins with a checkpoint image.
pub const LOG_MAGIC: &[u8; 8] = b"TCLOG002";

/// Byte length of the header (magic, base, image records, digest, CRC).
pub(crate) const HEADER_LEN: usize = 36;

/// Bytes of unsynced records past which an append syncs the log itself.
const TAIL_LIMIT: usize = 1 << 20;

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

/// Write `bytes` to a temp file beside `path`, fsync it and rename it
/// over `path`: the file appears whole or not at all, and the rename is
/// durable once the directory is synced. Returns the handle that wrote
/// it, which appends at its end.
pub(crate) fn write_and_rename(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    bytes: &[u8],
) -> Result<Box<dyn VfsFile>, LogError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = vfs.open_trunc(&tmp)?;
    f.write_all(bytes)?;
    f.sync()?;
    vfs.rename(&tmp, path)?;
    Ok(f)
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

/// What a log header records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Head {
    /// Operations the image folds: the first op record is operation
    /// `base`.
    pub base: u64,
    /// Image records between the header and the first op record.
    pub images: u64,
    /// `digest_database` of the image.
    pub digest: u64,
}

impl Head {
    /// The header's bytes.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(LOG_MAGIC);
        for v in [self.base, self.images, self.digest] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&crc32(&out[8..]).to_le_bytes());
        out
    }

    /// Parse the header `buf` begins with: `Err` says why it is unusable.
    fn decode(buf: &[u8]) -> Result<Head, (&'static str, DamageReason)> {
        let field = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        if buf.len() < HEADER_LEN {
            Err(("torn log header", DamageReason::TruncatedFrame))
        } else if !buf.starts_with(LOG_MAGIC) {
            Err(("unknown log format", DamageReason::ChecksumMismatch))
        } else if crc32(&buf[8..32]) != u32::from_le_bytes(buf[32..36].try_into().unwrap()) {
            // A flipped bit in the base would silently shift every
            // operation number: refuse the whole file instead.
            Err(("log header checksum mismatch", DamageReason::ChecksumMismatch))
        } else {
            Ok(Head { base: field(8), images: field(16), digest: field(24) })
        }
    }
}

/// The frame walker: the CRC-valid op records of a buffer, in order,
/// each as its absolute byte offset and its payload. The walk stops at
/// the first torn or checksum-damaged frame and keeps it in
/// [`RecordWalk::damage`]; nothing is decoded.
pub struct RecordWalk<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Absolute offset of `buf[0]`.
    origin: u64,
    head: Option<Head>,
    /// The image records' bytes, or why the header or the image is
    /// unusable (the walk then yields nothing).
    image: Result<Option<&'a [u8]>, &'static str>,
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
            head: None,
            image: Ok(None),
            damage: None,
        }
    }

    /// Walk a log file's bytes from byte `offset` on: 0 — the whole file,
    /// whose header and image records (if any) are checked and passed
    /// over — or an op record boundary such as an earlier walk's
    /// [`RecordWalk::offset`].
    pub fn log(buf: &'a [u8], offset: u64) -> RecordWalk<'a> {
        let mut walk = RecordWalk {
            origin: offset,
            ..RecordWalk::new(buf)
        };
        // Anything that begins like a header is one, or unusable: a record
        // never starts with seven bytes of the magic, nor holds a CRC of
        // its bytes 8..32 at 32..36, so a damaged magic is damage to
        // refuse, not a torn first record to cut away.
        let near = buf.iter().zip(LOG_MAGIC).filter(|(b, m)| b != m).count();
        let sealed = buf.len() >= HEADER_LEN
            && crc32(&buf[8..32]) == u32::from_le_bytes(buf[32..36].try_into().unwrap());
        if offset > 0 || buf.len() < LOG_MAGIC.len() || (near > 1 && !sealed) {
            return walk;
        }
        let head = match Head::decode(buf) {
            Ok(head) => head,
            Err((why, reason)) => {
                walk.image = Err(why);
                walk.damage = Some(TailDamage { offset: 0, reason });
                return walk;
            }
        };
        walk.head = Some(head);
        walk.pos = HEADER_LEN;
        let walked = walk.by_ref().take(head.images as usize).count() as u64;
        walk.image = if walked == head.images {
            Ok(Some(&buf[HEADER_LEN..walk.pos]))
        } else {
            let at = walk.offset();
            walk.damage.get_or_insert(TailDamage {
                offset: at,
                reason: DamageReason::TruncatedFrame,
            });
            Err("damaged image record")
        };
        walk
    }

    /// The header, when the walk started at byte 0 of a file that has
    /// one and it is intact.
    pub fn head(&self) -> Option<&Head> {
        self.head.as_ref()
    }

    /// The base the header records (0 without a header, and for a walk
    /// that did not start at byte 0).
    pub fn base(&self) -> u64 {
        self.head.map_or(0, |h| h.base)
    }

    /// The image records' bytes (`None` for a log that starts from the
    /// empty database), or why the header or an image record is damaged.
    pub(crate) fn image(&self) -> Result<Option<&'a [u8]>, &'static str> {
        self.image
    }

    /// Bytes of the buffer walked so far: the end of the last record
    /// yielded (or of the header and image).
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

/// What one pass over a log's bytes found: the op records it decoded,
/// where the valid prefix ends and the damage that ended it.
pub(crate) struct Pass {
    /// Operations the log's image folds (the header base; 0 without
    /// one).
    pub(crate) base: u64,
    /// Op records decoded.
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
    pub(crate) fn run(
        mut walk: RecordWalk<'_>,
        limit: u64,
        mut each: impl FnMut(Operation),
    ) -> Pass {
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

/// The one replay loop: decode the op records of `walk` one at a time
/// and fold the first `take` into `db`, by value; the pass ends after
/// them. With no `db` every record is passed over: the pass only counts
/// and finds damage.
///
/// A record the model rejects ends the applying, not the pass: the
/// records after it are still decoded, so the count and the damage are
/// what any other pass over the bytes reports, and the rejection comes
/// back next to them.
pub(crate) fn replay(
    walk: RecordWalk<'_>,
    mut db: Option<&mut Database>,
    take: u64,
) -> (Pass, Result<(), ReplayError>) {
    let mut outcome = Ok(());
    let pass = Pass::run(walk, take, |op| match db.as_deref_mut() {
        Some(db) if outcome.is_ok() => outcome = op.apply_owned(db),
        _ => note_applied(),
    });
    (pass, outcome)
}

/// An append-only, CRC-framed operation log backed by a single file.
pub struct OpLog {
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    /// Bytes of the valid log: where the next record goes.
    len: u64,
    /// `len` at the last successful fsync.
    durable_len: u64,
    /// The records appended since that fsync, as they were appended:
    /// what the file holds between `durable_len` and `len`.
    tail: Vec<u8>,
    /// The file past `durable_len` is not known to hold `tail`: an append
    /// failed part-way, or an fsync failed and its pages may be gone. The
    /// next append or sync first writes `tail` there again.
    rewrite: bool,
    /// A file was renamed over the log and the directory sync that makes
    /// the rename durable failed: the next sync makes it first.
    dir_owed: bool,
    /// Op records in the file.
    records: u64,
    base: u64,
}

impl OpLog {
    /// Open (or create) the log at `path` and read its bytes, leaving the
    /// pass over them to the caller: [`OpLog::adopt`] what it found
    /// before the first append.
    ///
    /// Durability discipline: a freshly created log file is followed by an
    /// fsync of its parent directory (a crash right after create must not
    /// lose the file).
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
            durable_len: 0,
            tail: Vec::new(),
            rewrite: false,
            dir_owed: false,
            records: 0,
            base: 0,
        };
        Ok((log, buf))
    }

    /// Take up what a pass over this log's bytes found: the header's
    /// `base`, the `records` op records and the `valid_len` bytes before
    /// any damage. A `damaged` tail is truncated so appends resume from
    /// the valid prefix, and the truncation is made durable before
    /// anything is appended after it.
    pub(crate) fn adopt(&mut self, pass: &Pass) -> Result<(), LogError> {
        if pass.damage.is_some() {
            self.file.set_len(pass.valid_len)?;
            self.file.sync()?;
        }
        (self.len, self.durable_len) = (pass.valid_len, pass.valid_len);
        (self.base, self.records) = (pass.base, pass.records);
        Ok(())
    }

    /// The bytes of this log from byte `offset` on — 0 (the whole file,
    /// header included) or an op record boundary — durable bytes and
    /// buffered appends alike, as any `Vfs` read sees them. Walk them
    /// with [`RecordWalk::log`] and the same `offset`.
    pub(crate) fn read_from(&self, offset: u64) -> Result<Vec<u8>, LogError> {
        Ok(self.vfs.read_from(&self.path, offset)?)
    }

    /// The log's bytes as they stand with every appended record in
    /// place: the file, and — when it may no longer hold them — the
    /// records appended since the last good fsync put back after its
    /// durable prefix.
    pub(crate) fn read_all(&self) -> Result<Vec<u8>, LogError> {
        let mut buf = self.vfs.read(&self.path)?;
        if self.rewrite {
            buf.truncate(self.durable_len as usize);
            buf.extend_from_slice(&self.tail);
        }
        Ok(buf)
    }

    /// Put the records appended since the last good fsync back after the
    /// durable prefix, when the file may no longer hold them. A no-op
    /// when it does.
    fn restore(&mut self) -> Result<(), LogError> {
        if !self.rewrite {
            return Ok(());
        }
        self.file.set_len(self.durable_len)?;
        self.file.write_all(&self.tail)?;
        self.rewrite = false;
        tchimera_obs::counter!("storage.log.rewrites").inc();
        Ok(())
    }

    /// Append one operation (buffered; call [`OpLog::sync`] to make it
    /// durable): encode it, then append the one record.
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
    /// On failure the file is put back as it was before the append, so a
    /// partially-written frame can never sit underneath later appends
    /// (which would make every later record unrecoverable — the scan
    /// stops at the first damaged frame). If that fails too, it is tried
    /// again before any further append or sync.
    pub(crate) fn append_records(&mut self, records: &[u8], count: u64) -> Result<(), LogError> {
        // The tail is kept for a failed fsync to be written again, so a
        // writer that does not sync (a follower between its syncs, a bulk
        // load) would keep all it appends: past a bound, sync first. If
        // that sync fails, nothing is appended and the tail stops growing.
        if self.tail.len() > TAIL_LIMIT {
            self.sync()?;
        }
        self.restore()?;
        if let Err(e) = self.file.write_all(records) {
            self.rewrite = true;
            let _ = self.restore();
            return Err(LogError::Io(e));
        }
        self.tail.extend_from_slice(records);
        self.len += records.len() as u64;
        self.records += count;
        tchimera_obs::counter!("storage.log.appends").add(count);
        tchimera_obs::counter!("storage.log.bytes").add(records.len() as u64);
        Ok(())
    }

    /// Make every appended record durable: flush and fsync, never
    /// retried. A failed fsync may have lost what it was to write, so the
    /// next sync writes the records since the last good one again first.
    pub fn sync(&mut self) -> Result<(), LogError> {
        let _span = tchimera_obs::span!("storage.log.fsync");
        self.restore()?;
        if self.dir_owed {
            self.vfs.sync_dir(&parent_dir(&self.path))?;
            self.dir_owed = false;
        }
        if let Err(e) = self.file.sync() {
            self.rewrite = true;
            return Err(e.into());
        }
        self.durable_len = self.len;
        self.tail.clear();
        // A long unsynced run (a bulk load) leaves no large buffer behind.
        self.tail.shrink_to(1 << 16);
        Ok(())
    }

    /// Replace the log with `file` — a checkpoint, or a primary's log from
    /// byte 0 — whose header records `base` and which holds `records` op
    /// records, in one atomic, durable step: write it to a sibling temp
    /// file, fsync that, rename it over the log and fsync the directory.
    /// The handle that wrote the temp file appends to the log from then
    /// on.
    ///
    /// A failure up to the rename leaves the log as it was. A failed
    /// directory sync leaves the new file in place, its rename not yet
    /// durable: a crash may still bring the old file back, so the next
    /// sync makes the rename durable before it acknowledges anything.
    pub(crate) fn replace(&mut self, file: &[u8], base: u64, records: u64) -> Result<(), LogError> {
        let _span = tchimera_obs::span!("storage.snapshot.install", base = base);
        tchimera_obs::counter!("storage.log.compactions").inc();
        self.file = write_and_rename(&self.vfs, &self.path, file)?;
        (self.len, self.durable_len) = (file.len() as u64, file.len() as u64);
        (self.base, self.records) = (base, records);
        self.tail.clear();
        self.rewrite = false;
        self.dir_owed = true;
        self.vfs.sync_dir(&parent_dir(&self.path))?;
        self.dir_owed = false;
        Ok(())
    }

    /// Operations folded into the image this log starts with.
    pub fn base_op(&self) -> u64 {
        self.base
    }

    /// Op records in the log (after its image).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Current byte length of the valid log.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{SimFs, StdFs, TearMode};
    use tchimera_core::{ClassDef, ClassId, Instant};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tchimera-log-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Open the log at `path` the way an engine does: read it, pass over
    /// it collecting the operations, adopt what the pass found.
    fn open(vfs: Arc<dyn Vfs>, path: &Path) -> (OpLog, Vec<Operation>, Pass) {
        let (mut log, buf) = OpLog::open_unscanned(vfs, path).unwrap();
        let mut ops = Vec::new();
        let pass = Pass::run(RecordWalk::log(&buf, 0), u64::MAX, |op| ops.push(op));
        log.adopt(&pass).unwrap();
        (log, ops, pass)
    }

    fn std_open(path: &Path) -> (OpLog, Vec<Operation>, Pass) {
        open(Arc::new(StdFs), path)
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
            let (mut log, ops, pass) = std_open(&path);
            assert!(ops.is_empty() && pass.damage.is_none());
            for op in sample_ops() {
                log.append(&op).unwrap();
            }
            log.sync().unwrap();
            assert_eq!(log.records(), 3);
        }
        let (log, ops, pass) = std_open(&path);
        assert_eq!((ops.len(), log.records(), pass.base), (3, 3, 0));
        assert!(pass.damage.is_none());
        assert_eq!(pass.valid_len, log.len_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn");
        {
            let (mut log, ..) = std_open(&path);
            for op in sample_ops() {
                log.append(&op).unwrap();
            }
            log.sync().unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the end.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (mut log, ops, pass) = std_open(&path);
        assert_eq!(ops.len(), 2); // last record lost
        let damage = pass.damage.expect("damage reported");
        assert_eq!(damage.offset, pass.valid_len);
        assert_eq!(damage.reason, DamageReason::TruncatedFrame);
        // The file was truncated to the valid prefix; appends resume.
        log.append(&Operation::AdvanceTo(Instant(9))).unwrap();
        log.sync().unwrap();
        drop(log);
        let (_, ops, pass) = std_open(&path);
        assert!(pass.damage.is_none());
        assert_eq!(ops.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bitflip_in_payload_detected() {
        let path = tmp("bitflip");
        {
            let (mut log, ..) = std_open(&path);
            for op in sample_ops() {
                log.append(&op).unwrap();
            }
            log.sync().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (_, ops, pass) = std_open(&path);
        assert!(pass.damage.is_some());
        assert!(ops.len() < 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn undecodable_record_is_damage_not_abort() {
        // A frame whose CRC is valid but whose payload is garbage: the
        // pass ends at that record's offset, keeping the prefix.
        let mut buf = encode_record(&Operation::AdvanceTo(Instant(5)));
        let good_len = buf.len() as u64;
        let garbage = [0xfeu8, 0xff, 0xff];
        buf.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&garbage).to_le_bytes());
        buf.extend_from_slice(&garbage);
        let pass = Pass::run(RecordWalk::log(&buf, 0), u64::MAX, drop);
        assert_eq!((pass.records, pass.valid_len), (1, good_len));
        let damage = pass.damage.expect("undecodable tail reported");
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
        let (mut log, ..) = open(Arc::new(fs.clone()), &path);
        log.append(&Operation::AdvanceTo(Instant(1))).unwrap();
        let run: Vec<u8> = sample_ops().iter().flat_map(encode_record).collect();
        log.append_records(&run, 3).unwrap();
        assert_eq!(log.records(), 4);
        let bytes = fs.contents(&path).unwrap();
        assert!(bytes.ends_with(&run));
        assert_eq!(log.len_bytes(), bytes.len() as u64);
        let pass = Pass::run(RecordWalk::log(&bytes, 0), u64::MAX, drop);
        assert_eq!((pass.records, pass.damage), (4, None));
    }

    /// A log file that starts with a header and `images` image records.
    fn checkpoint_file(base: u64, images: u64) -> Vec<u8> {
        let mut file = Head { base, images, digest: 7 }.encode();
        for k in 0..images {
            let mut record = vec![0; FRAME_HEAD];
            record.extend_from_slice(&[0xee, k as u8]);
            seal_frame(&mut record);
            file.extend_from_slice(&record);
        }
        file
    }

    #[test]
    fn a_replaced_log_walks_its_image_then_its_records() {
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("wal.log");
        let (mut log, ..) = open(Arc::clone(&vfs), &path);
        for op in sample_ops() {
            log.append(&op).unwrap();
        }
        let file = checkpoint_file(3, 2);
        log.replace(&file, 3, 0).unwrap();
        assert_eq!((log.base_op(), log.records()), (3, 0));
        log.append(&Operation::AdvanceTo(Instant(9))).unwrap();
        log.sync().unwrap();
        drop(log);
        fs.crash(TearMode::DropAll);
        let (log, ops, pass) = open(vfs, &path);
        assert_eq!((pass.base, ops.len(), log.records()), (3, 1, 1));
        let bytes = fs.contents(&path).unwrap();
        assert!(bytes.starts_with(&file));
        let walk = RecordWalk::log(&bytes, 0);
        assert_eq!(walk.head(), Some(&Head { base: 3, images: 2, digest: 7 }));
        assert_eq!(walk.image(), Ok(Some(&file[HEADER_LEN..])));
        // However much of the magic is damaged, the header's own CRC
        // still tells it from a first record.
        let mut bad = bytes.clone();
        bad[..LOG_MAGIC.len()].fill(0);
        assert_eq!(RecordWalk::log(&bad, 0).image(), Err("unknown log format"));
        // A headerless file starts from the empty database.
        let plain = encode_record(&Operation::AdvanceTo(Instant(1)));
        assert_eq!(RecordWalk::log(&plain, 0).image(), Ok(None));
    }

    #[test]
    fn a_failed_fsync_is_written_again_before_the_next_one_acknowledges() {
        for errno in [5, 28] {
            let fs = SimFs::new();
            let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
            let path = PathBuf::from("wal.log");
            let (mut log, ..) = open(Arc::clone(&vfs), &path);
            log.append(&Operation::AdvanceTo(Instant(1))).unwrap();
            log.sync().unwrap();
            log.append(&Operation::AdvanceTo(Instant(2))).unwrap();
            log.append(&Operation::AdvanceTo(Instant(3))).unwrap();
            fs.fail_next_sync(errno);
            assert!(log.sync().is_err());
            log.append(&Operation::AdvanceTo(Instant(4))).unwrap();
            log.sync().unwrap();
            drop(log);
            fs.crash(TearMode::DropAll);
            let (_, ops, pass) = open(Arc::clone(&vfs), &path);
            assert_eq!((ops.len(), pass.damage), (4, None), "errno {errno}");
        }
    }

    #[test]
    fn a_long_unsynced_run_syncs_itself_past_the_tail_bound() {
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("wal.log");
        let (mut log, ..) = open(Arc::clone(&vfs), &path);
        let batch = encode_record(&Operation::AdvanceTo(Instant(1))).repeat(20_000);
        while log.len_bytes() <= TAIL_LIMIT as u64 {
            log.append_records(&batch, 20_000).unwrap();
        }
        let synced = log.len_bytes();
        log.append_records(&batch, 20_000).unwrap();
        assert_eq!(log.tail, batch, "the records kept for a rewrite stay bounded");
        drop(log);
        fs.crash(TearMode::DropAll);
        let (log, ..) = open(vfs, &path);
        assert_eq!(log.len_bytes(), synced, "the early sync made them durable");
    }

    #[test]
    fn a_failed_early_sync_fails_the_append_and_the_tail_stops_growing() {
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("wal.log");
        let (mut log, ..) = open(Arc::clone(&vfs), &path);
        let batch = encode_record(&Operation::AdvanceTo(Instant(1))).repeat(20_000);
        while log.tail.len() <= TAIL_LIMIT {
            log.append_records(&batch, 20_000).unwrap();
        }
        let (len, records, kept) = (log.len_bytes(), log.records(), log.tail.len());
        // Every fsync fails, one shot after another: each append reports
        // it, and none adds to the log or to the tail kept for a rewrite.
        for _ in 0..3 {
            fs.fail_next_sync(5);
            let err = log.append_records(&batch, 20_000).unwrap_err();
            assert!(matches!(err, LogError::Io(e) if e.raw_os_error() == Some(5)));
            assert_eq!((log.len_bytes(), log.records(), log.tail.len()), (len, records, kept));
        }
        // Once an fsync goes through, the tail is written again, made
        // durable, and the append lands after it.
        log.append_records(&batch, 20_000).unwrap();
        assert_eq!(log.tail, batch);
        log.sync().unwrap();
        drop(log);
        fs.crash(TearMode::DropAll);
        let (log, _, pass) = open(vfs, &path);
        assert_eq!((log.records(), pass.damage), (records + 20_000, None));
    }

    #[test]
    fn a_rename_whose_directory_sync_failed_is_made_durable_by_the_next_sync() {
        for crash_first in [true, false] {
            let fs = SimFs::new();
            let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
            let path = PathBuf::from("wal.log");
            let (mut log, ..) = open(Arc::clone(&vfs), &path);
            log.append(&Operation::AdvanceTo(Instant(1))).unwrap();
            log.sync().unwrap();
            // Create, write, fsync and rename go through; the directory
            // sync fails.
            fs.fail_after(Some(4));
            assert!(log.replace(&checkpoint_file(1, 1), 1, 0).is_err());
            fs.fail_after(None);
            log.append(&Operation::AdvanceTo(Instant(2))).unwrap();
            if crash_first {
                // Nothing was acknowledged since: the old file is back.
                drop(log);
                fs.crash(TearMode::KeepAll);
                let (_, ops, pass) = open(Arc::clone(&vfs), &path);
                assert_eq!((pass.base, ops.len()), (0, 1));
                continue;
            }
            log.sync().unwrap();
            drop(log);
            fs.crash(TearMode::DropAll);
            let (_, ops, pass) = open(Arc::clone(&vfs), &path);
            assert_eq!((pass.base, ops.len()), (1, 1));
        }
    }

    #[test]
    fn unsynced_log_creation_survives_via_dir_sync() {
        // The open path fsyncs the parent directory after creating the
        // file, so a crash immediately after open cannot lose the log.
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("wal.log");
        drop(open(Arc::clone(&vfs), &path));
        fs.crash(TearMode::DropAll);
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
            let (mut log, ..) = open(Arc::clone(&vfs), &path);
            log.append(&Operation::AdvanceTo(Instant(1))).unwrap();
            log.append(&Operation::AdvanceTo(Instant(2))).unwrap();
            log.sync().unwrap();
            log.append(&Operation::DefineClass(ClassDef::new("c"))).unwrap();
        }
        fs.crash(TearMode::KeepHalf);
        let (log, ops, pass) = open(Arc::clone(&vfs), &path);
        assert!(pass.damage.is_some());
        assert_eq!(ops.len(), 2);
        drop(log);
        fs.crash(TearMode::KeepAll);
        let (_, ops, pass) = open(vfs, &path);
        assert!(pass.damage.is_none(), "truncation was not durable");
        assert_eq!(ops.len(), 2);
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

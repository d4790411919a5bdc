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
//! Recovery scans records until EOF or the first damaged record — a torn
//! frame, a checksum mismatch, or a CRC-valid but undecodable payload —
//! truncating everything from the damage point on and reporting the
//! offset in [`LogScan::damage`]. All I/O goes through the pluggable
//! [`Vfs`] layer so the crash-matrix tests can run the identical code
//! against a fault-injecting filesystem.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec::{Codec, CodecError, Reader};
use crate::op::Operation;
use crate::vfs::{StdFs, Vfs, VfsFile};

/// Magic prefix of a log file carrying a compaction header.
pub const LOG_MAGIC: &[u8; 8] = b"TCLOG001";

/// Byte length of the compaction header (magic + u64 base + u32 CRC).
const HEADER_LEN: u64 = 20;

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

/// CRC-32 (IEEE 802.3) of `data`.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
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
    /// Underlying I/O failure.
    Io(io::Error),
    /// A fully-framed record failed to decode (not a torn tail — the frame
    /// was intact but the payload is not a valid operation).
    Decode(CodecError),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "log I/O error: {e}"),
            LogError::Decode(e) => write!(f, "log decode error: {e}"),
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
        let path = path.to_path_buf();
        let existed = vfs.exists(&path);
        let mut file = vfs.open_append(&path)?;
        if !existed {
            vfs.sync_dir(&parent_dir(&path))?;
        }
        let buf = vfs.read(&path)?;
        let scan = Self::scan_bytes(&buf);
        if scan.torn_tail {
            // Truncate the damaged tail so appends resume from the valid
            // prefix, and make the truncation durable before anything is
            // appended after it.
            file.set_len(scan.valid_len)?;
            file.sync()?;
        }
        let len = scan.valid_len;
        let base = scan.base_op;
        Ok((
            OpLog {
                vfs,
                file,
                path,
                len,
                appended: 0,
                base,
                dirty: false,
            },
            scan,
        ))
    }

    /// Scan raw log bytes: decode the header (if any) and every intact
    /// record, stopping at the first damage. Never fails — damage is
    /// reported in the scan, not raised.
    pub fn scan_bytes(buf: &[u8]) -> LogScan {
        Self::scan(buf, None)
    }

    /// Read and decode only the records from byte `offset` on — `offset`
    /// being 0 (the whole file, header included) or the
    /// [`LogScan::valid_len`] of an earlier scan of this same file, i.e.
    /// a record boundary. Sees buffered appends like any `Vfs` read.
    /// Offsets in the returned scan are absolute.
    pub fn scan_from(&self, offset: u64) -> Result<LogScan, LogError> {
        let buf = self.vfs.read_from(&self.path, offset)?;
        Ok(Self::scan(&buf, (offset > 0).then_some((self.base, offset))))
    }

    /// The one scan loop. `suffix_of = Some((base, offset))` says `buf`
    /// holds records only: the bytes from `offset` of a log whose header
    /// base is `base`.
    fn scan(buf: &[u8], suffix_of: Option<(u64, u64)>) -> LogScan {
        let _span = tchimera_obs::span!("storage.log.scan", bytes = buf.len());
        let mut pos = 0usize;
        let (mut base_op, origin) = suffix_of.unwrap_or((0, 0));
        let mut damage: Option<TailDamage> = None;
        let has_header = suffix_of.is_none()
            && buf.len() >= LOG_MAGIC.len()
            && buf[..LOG_MAGIC.len()] == LOG_MAGIC[..];
        if has_header {
            if buf.len() < HEADER_LEN as usize {
                // A torn header: nothing usable in the file.
                damage = Some(TailDamage {
                    offset: 0,
                    reason: DamageReason::TruncatedFrame,
                });
            } else if crc32(&buf[8..16]) != u32::from_le_bytes(buf[16..20].try_into().unwrap()) {
                // A corrupted base would silently shift the replay origin
                // — refuse the whole file instead.
                damage = Some(TailDamage {
                    offset: 0,
                    reason: DamageReason::ChecksumMismatch,
                });
            } else {
                base_op = u64::from_le_bytes(buf[8..16].try_into().unwrap());
                pos = HEADER_LEN as usize;
            }
        }
        let mut ops = Vec::new();
        // One reader for the whole scan: a name is interned once per log,
        // not once per record.
        let mut r = Reader::new(&[]);
        while damage.is_none() && pos < buf.len() {
            if buf.len() - pos < 8 {
                damage = Some(TailDamage {
                    offset: origin + pos as u64,
                    reason: DamageReason::TruncatedFrame,
                });
                break;
            }
            let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
            if buf.len() - pos - 8 < len {
                damage = Some(TailDamage {
                    offset: origin + pos as u64,
                    reason: DamageReason::TruncatedFrame,
                });
                break;
            }
            let payload = &buf[pos + 8..pos + 8 + len];
            if crc32(payload) != crc {
                damage = Some(TailDamage {
                    offset: origin + pos as u64,
                    reason: DamageReason::ChecksumMismatch,
                });
                break;
            }
            r.restart(payload);
            // A CRC-valid but undecodable record is damage at this offset
            // like any other — truncate and report, never abort recovery.
            match Operation::decode(&mut r) {
                Ok(op) if r.is_empty() => ops.push(op),
                Ok(_) => {
                    damage = Some(TailDamage {
                        offset: origin + pos as u64,
                        reason: DamageReason::Undecodable(CodecError::Corrupt(
                            "trailing bytes",
                        )),
                    });
                    break;
                }
                Err(e) => {
                    damage = Some(TailDamage {
                        offset: origin + pos as u64,
                        reason: DamageReason::Undecodable(e),
                    });
                    break;
                }
            }
            pos += 8 + len;
        }
        let valid_len = damage.as_ref().map_or(origin + pos as u64, |d| d.offset);
        tchimera_obs::counter!("storage.log.scanned_ops").add(ops.len() as u64);
        report_scan_damage(damage.as_ref());
        LogScan {
            ops,
            base_op,
            valid_len,
            torn_tail: damage.is_some(),
            damage,
        }
    }

    /// Scan a log file read-only (no truncation of torn tails, no handle
    /// kept). Used for transaction-time inspection of a live log.
    pub fn scan_file(path: impl AsRef<Path>) -> Result<LogScan, LogError> {
        let buf = std::fs::read(path)?;
        Ok(Self::scan_bytes(&buf))
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
    /// durable).
    ///
    /// On failure the file is rolled back to its pre-append length, so a
    /// partially-written frame can never sit underneath later appends
    /// (which would make every later record unrecoverable — the scan
    /// stops at the first damaged frame). If the rollback itself fails,
    /// the log stays poisoned and re-attempts the rollback before any
    /// further append or sync.
    pub fn append(&mut self, op: &Operation) -> Result<(), LogError> {
        self.heal()?;
        let payload = op.to_bytes();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if let Err(e) = self.file.write_all(&frame) {
            self.dirty = true;
            let _ = self.heal();
            return Err(LogError::Io(e));
        }
        self.len += frame.len() as u64;
        self.appended += 1;
        tchimera_obs::counter!("storage.log.appends").inc();
        tchimera_obs::counter!("storage.log.bytes").add(frame.len() as u64);
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

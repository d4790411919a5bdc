//! The API the benchmark driver links and the engine no longer calls.
//!
//! The driver (`crates/bench/src/bin/benchmark/`) changes only in a
//! change of its own, so what it imports is an API the engine has to
//! keep. Every item here is such an item, re-exported at its old path,
//! and each is a thin wrapper over the mechanism the engine uses:
//!
//! * [`OpLog::open_with`] and [`OpLog::scan_bytes`] (whose [`LogScan`]
//!   carries the decoded `ops`) — the replay pass, collected into a
//!   `Vec`;
//! * [`Operation::apply`] — a clone, applied by value;
//! * [`write_snapshot`], [`load_snapshot`] and [`snapshot_path`] — a
//!   standalone checkpoint file: the header and image records a
//!   checkpoint starts a log with, and no op record. `load_snapshot` also
//!   reads a `TCSNAP02` file, the snapshot format before it.
//!
//! What changed meaning under the driver: the engine keeps no file
//! beside its log any more — the checkpoint image is the start of the
//! log. The driver adds the size of `snapshot_path(log)` to its
//! `disk_bytes_per_user_byte`, read with `map_or(0, …)`; that file no
//! longer exists, so the metric falls by construction. That is a change
//! of definition, not a gain: the log it still counts is measured before
//! the checkpoint, and the image now lives in the log after it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tchimera_core::{Database, DatabaseState};

use crate::codec::Codec;
use crate::image::{decode_image, state_file};
use crate::log::{crc32, crc32_extend, parent_dir, write_and_rename, OpLog, Pass, RecordWalk};
use crate::log::{LogError, TailDamage};
use crate::op::{Operation, ReplayError};
use crate::vfs::Vfs;

/// The path of a standalone checkpoint file beside the log at `path`
/// (the sibling `.snap` file the engine wrote before its checkpoint
/// became the start of the log).
pub fn snapshot_path(path: &Path) -> PathBuf {
    path.with_extension("snap")
}

/// Errors raised by snapshot load/install.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// No snapshot exists at the path.
    Missing,
    /// The snapshot exists but is damaged (bad magic, torn, checksum or
    /// decode failure).
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Missing => write!(f, "no snapshot present"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// A successfully loaded and validated snapshot.
pub struct Snapshot {
    /// Number of log operations the image covers.
    pub ops_covered: u64,
    /// `digest_database` of the captured state, as recorded by the
    /// writer; *not* compared with the image here.
    pub digest: u64,
    /// The captured database image.
    pub state: DatabaseState,
}

/// Write `state`, the fold of `ops_covered` operations, as a standalone
/// checkpoint file at `path`, durably (temp file → fsync → rename →
/// directory fsync).
pub fn write_snapshot(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    state: &DatabaseState,
    ops_covered: u64,
    digest: u64,
) -> Result<(), SnapshotError> {
    let file = state_file(state, ops_covered, digest);
    let io = |e: LogError| match e {
        LogError::Io(e) => SnapshotError::Io(e),
    };
    write_and_rename(vfs, path, &file).map_err(io)?;
    vfs.sync_dir(&parent_dir(path))?;
    Ok(())
}

/// Load the standalone checkpoint file at `path` — or a `TCSNAP02`
/// snapshot — and validate every byte. Damage comes back as
/// [`SnapshotError::Corrupt`]; only I/O failures other than absence are
/// [`SnapshotError::Io`].
pub fn load_snapshot(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Snapshot, SnapshotError> {
    let buf = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(SnapshotError::Missing),
        Err(e) => return Err(e.into()),
    };
    let loaded = if buf.starts_with(b"TCSNAP02") {
        load_tcsnap02(&buf)
    } else {
        let walk = RecordWalk::log(&buf, 0);
        match (walk.head(), walk.image()) {
            (Some(head), Ok(Some(image))) if walk.pos() == buf.len() => decode_image(image)
                .map(|state| Snapshot { ops_covered: head.base, digest: head.digest, state })
                .map_err(|_| SnapshotError::Corrupt("image record")),
            (_, Err(why)) => Err(SnapshotError::Corrupt(why)),
            _ => Err(SnapshotError::Corrupt("not a checkpoint file")),
        }
    };
    let counter = match loaded {
        Ok(_) => tchimera_obs::counter!("storage.snapshot.loads"),
        Err(_) => tchimera_obs::counter!("storage.snapshot.load_failures"),
    };
    counter.inc();
    loaded
}

/// A `TCSNAP02` file (integers little-endian): `[magic: 8][ops_covered:
/// u64][digest: u64][payload_len: u32][crc32: u32][payload:
/// DatabaseState codec]`, the CRC over every byte after the magic.
fn load_tcsnap02(buf: &[u8]) -> Result<Snapshot, SnapshotError> {
    const HEAD: usize = 32;
    if buf.len() < HEAD {
        return Err(SnapshotError::Corrupt("torn header"));
    }
    let field = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
    let payload_len = u32::from_le_bytes(buf[24..28].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[28..32].try_into().unwrap());
    if buf.len() - HEAD != payload_len {
        return Err(SnapshotError::Corrupt("payload length mismatch"));
    }
    if crc32_extend(crc32(&buf[8..28]), &buf[HEAD..]) != crc {
        return Err(SnapshotError::Corrupt("checksum mismatch"));
    }
    let state =
        DatabaseState::from_bytes(&buf[HEAD..]).map_err(|_| SnapshotError::Corrupt("payload"))?;
    Ok(Snapshot { ops_covered: field(8), digest: field(16), state })
}

/// The outcome of opening a log: the decoded operations plus tail
/// diagnostics.
pub struct LogScan {
    /// All intact operations, in append order.
    pub ops: Vec<Operation>,
    /// Operations the log's image folds (the header base; 0 without a
    /// header).
    pub base_op: u64,
    /// Bytes of valid prefix.
    pub valid_len: u64,
    /// `true` if a torn/corrupt tail was found (and truncated on open).
    pub torn_tail: bool,
    /// Where and why the tail was damaged, when `torn_tail` is set.
    pub damage: Option<TailDamage>,
}

impl OpLog {
    /// Open (or create) the log at `path` through the given [`Vfs`] and
    /// scan its op records; a damaged tail is truncated. A damaged header
    /// or image is refused, as the engine's open refuses it, and the file
    /// is left as it is.
    pub fn open_with(vfs: Arc<dyn Vfs>, path: &Path) -> Result<(OpLog, LogScan), LogError> {
        let (mut log, buf) = Self::open_unscanned(vfs, path)?;
        let walk = RecordWalk::log(&buf, 0);
        if let Err(why) = walk.image() {
            return Err(io::Error::new(io::ErrorKind::InvalidData, why).into());
        }
        let mut ops = Vec::new();
        let pass = Pass::run(walk, u64::MAX, |op| ops.push(op));
        log.adopt(&pass)?;
        Ok((log, LogScan::of(ops, pass)))
    }

    /// Scan raw log bytes: walk the header and image (if any) and every
    /// intact op record, decoding each, and stop at the first damage.
    pub fn scan_bytes(buf: &[u8]) -> LogScan {
        let mut ops = Vec::new();
        let pass = Pass::run(RecordWalk::log(buf, 0), u64::MAX, |op| ops.push(op));
        LogScan::of(ops, pass)
    }
}

impl LogScan {
    fn of(ops: Vec<Operation>, pass: Pass) -> LogScan {
        LogScan {
            ops,
            base_op: pass.base,
            valid_len: pass.valid_len,
            torn_tail: pass.damage.is_some(),
            damage: pass.damage,
        }
    }
}

impl Operation {
    /// Apply a copy of the operation to a database, keeping this one. See
    /// [`Operation::apply_owned`].
    pub fn apply(&self, db: &mut Database) -> Result<(), ReplayError> {
        self.clone().apply_owned(db)
    }
}

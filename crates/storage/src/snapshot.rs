//! Checksummed, atomically-installed database snapshots (checkpoints).
//!
//! A snapshot is the serialized [`DatabaseState`] image of the database
//! after its first `ops_covered` logged operations, plus the state digest
//! of that database. Recovery loads the last good snapshot and replays
//! only the log suffix; when the snapshot is damaged it is *detected*
//! (magic, length, CRC, payload decode) and recovery falls back to
//! full-log replay — a bad snapshot can cost time, never correctness.
//! The bytes are verified once, by the CRC, and decoded once, straight
//! into the model's types; the recorded digest is for whoever distrusts
//! more than the medium (the scrubber walks the image against it, a
//! replica the image it was shipped).
//!
//! File format (all integers little-endian):
//!
//! ```text
//! [magic "TCSNAP02": 8][ops_covered: u64][digest: u64]
//! [payload_len: u32][crc32: u32][payload: DatabaseState codec]
//! ```
//!
//! The CRC covers `ops_covered`, `digest`, `payload_len` *and* the
//! payload — a flipped bit in `ops_covered` would otherwise silently
//! shift where log replay resumes, which is exactly the kind of wrong
//! the durability layer exists to rule out.
//!
//! Installation is atomic and durable: the image is written to a sibling
//! temp file, the temp file is fsynced, renamed over the snapshot path,
//! and the parent directory is fsynced. A crash at any point leaves
//! either the old snapshot or the new one, never a torn hybrid.

use std::io;
use std::path::Path;
use std::sync::Arc;

use tchimera_core::{
    AttrDecl, AttrName, ClassId, ClassState, DatabaseState, Instant, Lifespan, MethodName,
    MethodSig, Object, Oid, TemporalValue, Value,
};

use crate::codec::{decode_attrs, encode_attrs, Codec, CodecError, Reader};
use crate::log::{crc32, crc32_extend, parent_dir};
use crate::vfs::Vfs;

/// Magic prefix of a snapshot file; its last two bytes are the format
/// version. `02` is the first version whose recorded digest is the
/// specified one (`DESIGN.md` §8.5) — a `TCSNAP01` file carries a digest
/// of the toolchain's unspecified `DefaultHasher` that nothing can verify
/// any more, so it is refused like any other bad magic and recovery takes
/// the same ladder as for a digest mismatch.
pub const SNAP_MAGIC: &[u8; 8] = b"TCSNAP02";

/// Byte length of the fixed snapshot header.
const HEADER_LEN: usize = 32;

/// Errors raised by snapshot load/install.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// No snapshot exists at the path.
    Missing,
    /// The snapshot exists but is damaged (bad magic, torn, checksum or
    /// decode failure, digest mismatch). Recovery treats this as "no
    /// usable snapshot", never as state.
    Corrupt(&'static str),
    /// The image is too large for the header's 32-bit length field.
    /// Nothing was written.
    TooLarge {
        /// Encoded size of the image.
        bytes: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Missing => write!(f, "no snapshot present"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::TooLarge { bytes } => write!(
                f,
                "state image of {bytes} bytes exceeds the snapshot format's 4 GiB limit"
            ),
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
    /// writer. Covered by the CRC like every other byte; *not* compared
    /// with the image here.
    pub digest: u64,
    /// The captured database image.
    pub state: DatabaseState,
}

/// Serialize and durably install a snapshot at `path` (temp file → fsync
/// → rename → directory fsync).
pub fn write_snapshot(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    state: &DatabaseState,
    ops_covered: u64,
    digest: u64,
) -> Result<(), SnapshotError> {
    let _span = tchimera_obs::span!("storage.snapshot.install", ops_covered = ops_covered);
    // The image is encoded in place behind a header whose last two
    // fields are filled in once its length is known.
    let mut buf = Vec::with_capacity(HEADER_LEN);
    buf.extend_from_slice(SNAP_MAGIC);
    buf.extend_from_slice(&ops_covered.to_le_bytes());
    buf.extend_from_slice(&digest.to_le_bytes());
    buf.resize(HEADER_LEN, 0);
    state.encode(&mut buf);
    // The buffer lives on through the install below, next to whatever
    // copies the filesystem makes of it: give its growth slack back first.
    buf.shrink_to_fit();
    let payload_len = payload_len_field(buf.len() - HEADER_LEN)?;
    buf[24..28].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32_extend(crc32(&buf[8..28]), &buf[HEADER_LEN..]);
    buf[28..32].copy_from_slice(&crc.to_le_bytes());
    let tmp = path.with_extension("snap.tmp");
    let mut f = vfs.open_trunc(&tmp)?;
    f.write_all(&buf)?;
    f.sync()?;
    drop(f);
    vfs.rename(&tmp, path)?;
    vfs.sync_dir(&parent_dir(path))?;
    Ok(())
}

/// The header's `payload_len` field for an image of `len` bytes. A
/// length that does not fit would wrap, and the file could never load
/// again ("payload length mismatch") — after `checkpoint` had compacted
/// the log away on the strength of it.
fn payload_len_field(len: usize) -> Result<u32, SnapshotError> {
    u32::try_from(len).map_err(|_| SnapshotError::TooLarge { bytes: len })
}

/// Load and fully validate the snapshot at `path`. Any damage — torn
/// file, checksum mismatch, undecodable payload — comes back as
/// [`SnapshotError::Corrupt`]; only I/O failures other than absence are
/// [`SnapshotError::Io`].
pub fn load_snapshot(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Snapshot, SnapshotError> {
    let r = load_snapshot_inner(vfs, path);
    match &r {
        Ok(_) => tchimera_obs::counter!("storage.snapshot.loads").inc(),
        // Absence is the normal first-open case, not a failure.
        Err(SnapshotError::Missing) => {}
        Err(_) => tchimera_obs::counter!("storage.snapshot.load_failures").inc(),
    }
    r
}

fn load_snapshot_inner(vfs: &Arc<dyn Vfs>, path: &Path) -> Result<Snapshot, SnapshotError> {
    let buf = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(SnapshotError::Missing),
        Err(e) => return Err(e.into()),
    };
    if buf.len() < HEADER_LEN {
        return Err(SnapshotError::Corrupt("torn header"));
    }
    if buf[..8] != SNAP_MAGIC[..] {
        return Err(SnapshotError::Corrupt("bad magic"));
    }
    let ops_covered = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let digest = u64::from_le_bytes(buf[16..24].try_into().unwrap());
    let payload_len = u32::from_le_bytes(buf[24..28].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(buf[28..32].try_into().unwrap());
    if buf.len() - HEADER_LEN != payload_len {
        return Err(SnapshotError::Corrupt("payload length mismatch"));
    }
    let payload = &buf[HEADER_LEN..];
    if crc32_extend(crc32(&buf[8..28]), payload) != crc {
        return Err(SnapshotError::Corrupt("checksum mismatch"));
    }
    let state =
        DatabaseState::from_bytes(payload).map_err(|_| SnapshotError::Corrupt("payload"))?;
    Ok(Snapshot {
        ops_covered,
        digest,
        state,
    })
}

// ---------------------------------------------------------------------
// Codec for the state image
// ---------------------------------------------------------------------

impl Codec for ClassState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.historical.encode(out);
        self.lifespan.encode(out);
        self.own_attrs.encode(out);
        self.all_attrs.encode(out);
        self.own_methods.encode(out);
        self.all_methods.encode(out);
        self.c_attrs.encode(out);
        self.c_methods.encode(out);
        self.c_attr_values.encode(out);
        self.superclasses.encode(out);
        self.subclasses.encode(out);
        self.hierarchy.encode(out);
        self.ext.encode(out);
        self.proper_ext.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ClassState {
            id: ClassId::decode(r)?,
            historical: bool::decode(r)?,
            lifespan: Lifespan::decode(r)?,
            own_attrs: Vec::<AttrDecl>::decode(r)?,
            all_attrs: Vec::<AttrDecl>::decode(r)?,
            own_methods: Vec::<(MethodName, MethodSig)>::decode(r)?,
            all_methods: Vec::<(MethodName, MethodSig)>::decode(r)?,
            c_attrs: Vec::<AttrDecl>::decode(r)?,
            c_methods: Vec::<(MethodName, MethodSig)>::decode(r)?,
            c_attr_values: Vec::<(AttrName, Value)>::decode(r)?,
            superclasses: Vec::<ClassId>::decode(r)?,
            subclasses: Vec::<ClassId>::decode(r)?,
            hierarchy: u32::decode(r)?,
            ext: Vec::<(Oid, TemporalValue<()>)>::decode(r)?,
            proper_ext: Vec::<(Oid, TemporalValue<()>)>::decode(r)?,
        })
    }
}

impl Codec for Object {
    fn encode(&self, out: &mut Vec<u8>) {
        self.oid.encode(out);
        self.lifespan.encode(out);
        encode_attrs(&self.attrs, out);
        self.class_history.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Object {
            oid: Oid::decode(r)?,
            lifespan: Lifespan::decode(r)?,
            attrs: decode_attrs(r)?,
            class_history: TemporalValue::<ClassId>::decode(r)?,
        })
    }
}

impl Codec for DatabaseState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.clock.encode(out);
        self.next_oid.encode(out);
        self.next_hierarchy.encode(out);
        self.classes.encode(out);
        self.objects.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(DatabaseState {
            clock: Instant::decode(r)?,
            next_oid: u64::decode(r)?,
            next_hierarchy: u32::decode(r)?,
            classes: Vec::<ClassState>::decode(r)?,
            objects: Vec::<Object>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::digest_database;
    use crate::vfs::{SimFs, TearMode};
    use std::path::PathBuf;
    use tchimera_core::{attrs, ClassDef, Database, Type};

    fn populated() -> Database {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("person")
                .attr("name", Type::temporal(Type::STRING))
                .attr("address", Type::STRING),
        )
        .unwrap();
        db.define_class(
            ClassDef::new("employee")
                .isa("person")
                .attr("salary", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        db.advance_to(Instant(10)).unwrap();
        let i = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("name", Value::str("Ann")), ("salary", Value::Int(100))]),
            )
            .unwrap();
        db.advance_to(Instant(20)).unwrap();
        db.set_attr(i, &"salary".into(), Value::Int(150)).unwrap();
        db
    }

    #[test]
    fn state_codec_round_trips_byte_identically() {
        let db = populated();
        let state = db.export_state();
        let bytes = state.to_bytes();
        let back = DatabaseState::from_bytes(&bytes).unwrap();
        // Deterministic serialization: re-encoding yields identical bytes,
        // and the decoded image rebuilds a digest-identical database.
        assert_eq!(back.to_bytes(), bytes);
        let rebuilt = Database::import_state(back).unwrap();
        assert_eq!(digest_database(&rebuilt), digest_database(&db));
    }

    #[test]
    fn an_image_the_length_field_cannot_hold_is_refused() {
        assert_eq!(payload_len_field(0).unwrap(), 0);
        assert_eq!(payload_len_field(u32::MAX as usize).unwrap(), u32::MAX);
        let over = u32::MAX as usize + 1;
        match payload_len_field(over) {
            Err(e @ SnapshotError::TooLarge { bytes }) => {
                assert_eq!(bytes, over);
                assert!(e.to_string().contains("4 GiB"));
            }
            other => panic!("a 4 GiB image must be refused, got {other:?}"),
        }
    }

    #[test]
    fn install_and_load_round_trip() {
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs);
        let path = PathBuf::from("db.snap");
        let db = populated();
        let digest = digest_database(&db);
        write_snapshot(&vfs, &path, &db.export_state(), 6, digest).unwrap();
        let snap = load_snapshot(&vfs, &path).unwrap();
        assert_eq!(snap.ops_covered, 6);
        assert_eq!(snap.digest, digest);
        let rebuilt = Database::import_state(snap.state).unwrap();
        assert_eq!(digest_database(&rebuilt), digest);
    }

    #[test]
    fn missing_snapshot_is_distinguished_from_corrupt() {
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("db.snap");
        assert!(matches!(
            load_snapshot(&vfs, &path),
            Err(SnapshotError::Missing)
        ));
        let db = populated();
        write_snapshot(&vfs, &path, &db.export_state(), 6, digest_database(&db)).unwrap();
        // Flip one payload byte: the CRC catches it.
        let len = fs.contents(&path).unwrap().len();
        fs.corrupt_byte(&path, len - 1, 0x10).unwrap();
        assert!(matches!(
            load_snapshot(&vfs, &path),
            Err(SnapshotError::Corrupt(_))
        ));
        // Truncate below the header: torn.
        let mut f = vfs.open_append(&path).unwrap();
        f.set_len(10).unwrap();
        assert!(matches!(
            load_snapshot(&vfs, &path),
            Err(SnapshotError::Corrupt("torn header"))
        ));
        // Wrong magic.
        f.set_len(0).unwrap();
        f.write_all(&[0u8; 40]).unwrap();
        assert!(matches!(
            load_snapshot(&vfs, &path),
            Err(SnapshotError::Corrupt("bad magic"))
        ));
    }

    #[test]
    fn install_is_atomic_under_crash() {
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("db.snap");
        let db = populated();
        let digest = digest_database(&db);
        write_snapshot(&vfs, &path, &db.export_state(), 6, digest).unwrap();
        let installed = fs.op_count();
        // Attempt a second install that dies at every possible I/O step:
        // afterwards the *old* snapshot must still load intact (the new
        // one may or may not have made it — both are consistent states).
        let mut db2 = populated();
        db2.advance_to(Instant(30)).unwrap();
        let digest2 = digest_database(&db2);
        for fail_at in 0..6 {
            let _ = installed;
            fs.fail_after(Some(fail_at));
            let r = write_snapshot(&vfs, &path, &db2.export_state(), 7, digest2);
            fs.fail_after(None);
            fs.crash(TearMode::KeepHalf);
            let snap = load_snapshot(&vfs, &path).expect("some snapshot must survive");
            if r.is_ok() {
                assert_eq!(snap.digest, digest2);
            } else {
                assert!(
                    snap.digest == digest || snap.digest == digest2,
                    "crash at op {fail_at} left a hybrid snapshot"
                );
            }
        }
    }
}

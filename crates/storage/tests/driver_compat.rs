//! The driver's frozen API (`tchimera_storage::driver_compat`) means what
//! the engine does: one test per wrapper, each pinned against the engine
//! path it wraps.

use std::path::Path;
use std::sync::Arc;

use tchimera_core::{attrs, ClassDef, ClassId, Database, Instant, Type, Value};
use tchimera_storage::{
    digest_database, load_snapshot, snapshot_path, write_snapshot, OpLog, PersistentDatabase,
    SimFs, SnapshotError, Vfs,
};

/// A database of 7 operations on `fs`, checkpointed after the fifth when
/// `checkpoint` is set.
fn populated(fs: &SimFs, checkpoint: bool) -> PersistentDatabase {
    let mut pdb = PersistentDatabase::open_with(Arc::new(fs.clone()), Path::new("db.log")).unwrap();
    pdb.define_class(ClassDef::new("c").attr("v", Type::temporal(Type::INTEGER)))
        .unwrap();
    pdb.advance_to(Instant(1)).unwrap();
    for i in 0..5 {
        pdb.create_object(&ClassId::from("c"), attrs([("v", Value::Int(i))])).unwrap();
        if checkpoint && i == 2 {
            pdb.checkpoint().unwrap();
        }
    }
    pdb.sync().unwrap();
    pdb
}

#[test]
fn a_written_snapshot_loads_and_imports_to_the_live_digest() {
    let fs = SimFs::new();
    let pdb = populated(&fs, false);
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let snap = snapshot_path(Path::new("db.log"));
    assert_eq!(snap, Path::new("db.snap"));
    let (ops, digest) = (pdb.op_count() as u64, digest_database(pdb.db()));
    write_snapshot(&vfs, &snap, &pdb.db().export_state(), ops, digest).unwrap();
    let loaded = load_snapshot(&vfs, &snap).unwrap();
    assert_eq!((loaded.ops_covered, loaded.digest), (ops, digest));
    let db = Database::import_state(loaded.state).unwrap();
    assert_eq!(digest_database(&db), pdb.state_digest());
    // The file is the start of a checkpointed log: header and image.
    assert!(fs.contents(&snap).unwrap().starts_with(b"TCLOG002"));
    // Damage and absence are told apart.
    fs.corrupt_byte(&snap, 40, 0x01).unwrap();
    assert!(matches!(load_snapshot(&vfs, &snap), Err(SnapshotError::Corrupt(_))));
    let gone = Path::new("none.snap");
    assert!(matches!(load_snapshot(&vfs, gone), Err(SnapshotError::Missing)));
}

#[test]
fn scan_bytes_and_open_with_see_the_records_an_open_replays() {
    let fs = SimFs::new();
    let base = populated(&fs, true).base_op();
    let path = Path::new("db.log");
    let reopened = PersistentDatabase::open_with(Arc::new(fs.clone()), path).unwrap();
    let scan = OpLog::scan_bytes(&fs.contents(path).unwrap());
    assert_eq!((scan.base_op, scan.torn_tail), (base, false));
    assert_eq!(scan.ops.len(), reopened.recovered_replayed());
    let (log, scan) = OpLog::open_with(Arc::new(fs.clone()), path).unwrap();
    assert_eq!((log.base_op(), log.records()), (base, scan.ops.len() as u64));
    drop(log);
    // A flip in the image: the engine refuses the file and so does the
    // wrapper, and neither truncates a byte of it.
    fs.corrupt_byte(path, 40, 0x01).unwrap();
    let damaged = fs.contents(path).unwrap();
    assert!(PersistentDatabase::open_with(Arc::new(fs.clone()), path).is_err());
    assert!(OpLog::open_with(Arc::new(fs.clone()), path).is_err());
    assert_eq!(fs.contents(path).unwrap(), damaged);
}

#[test]
fn apply_by_reference_folds_the_log_to_the_engine_s_state() {
    let fs = SimFs::new();
    let digest = populated(&fs, false).state_digest();
    let scan = OpLog::scan_bytes(&fs.contents(Path::new("db.log")).unwrap());
    let mut db = Database::new();
    scan.ops.iter().try_for_each(|op| op.apply(&mut db)).unwrap();
    assert_eq!(digest_database(&db), digest);
}

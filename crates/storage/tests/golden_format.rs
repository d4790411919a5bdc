//! Golden files for the two on-disk formats — a `TCLOG001` operation log
//! and a `TCSNAP02` snapshot of one fixed small database — and for the
//! wire: one replication frame of each kind and one bare log record.
//!
//! Encoding the fixed database must reproduce the committed files byte
//! for byte, and decoding the committed files must reproduce the fixed
//! database (its digest is pinned as a literal). Encoding each fixed frame
//! must reproduce its file, and decoding the file must give back the
//! frame. A change that moves a format fails here instead of on an
//! operator's disk or between two builds of a cluster; a deliberate
//! format change bumps the magic (on disk) or `WIRE_VERSION` (on the
//! wire) and adds new files beside these.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tchimera_core::{
    attrs, AttrName, Attrs, ClassDef, ClassId, Database, DatabaseState, Instant, Oid, Type, Value,
};
use tchimera_storage::log::encode_record;
use tchimera_storage::{
    digest_database, load_snapshot, snapshot_path, Codec, Frame, OpLog, Operation,
    PersistentDatabase, SimFs, Vfs,
};

/// `digest_database` of the fixed database (DESIGN.md §8.5).
const GOLDEN_DIGEST: u64 = 0x1616_0584_E568_2E65;

/// Operations in the fixed history (one record each; the transaction is
/// one) and how many of them an early checkpoint folded away, so that the
/// golden log starts with a compaction header.
const GOLDEN_OPS: usize = 22;
const PREFIX_OPS: usize = 1;

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn log_path() -> PathBuf {
    PathBuf::from("golden.log")
}

/// The fixed database: two hierarchies, every value shape the codec has
/// a tag for, object references, migrations, a termination, a
/// c-attribute, a same-tick overwrite, a multi-operation transaction and
/// a dropped class. Checkpointed after `PREFIX_OPS` operations, synced
/// after the last.
fn build(fs: &SimFs) -> PersistentDatabase {
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut pdb = PersistentDatabase::open_with(vfs, &log_path()).expect("open");
    let (person, employee, project) = (
        ClassId::from("person"),
        ClassId::from("employee"),
        ClassId::from("project"),
    );
    pdb.define_class(
        ClassDef::new("person")
            .immutable_attr("name", Type::temporal(Type::STRING))
            .attr("address", Type::STRING)
            .attr("born", Type::Time),
    )
    .unwrap();
    assert_eq!(pdb.op_count(), PREFIX_OPS);
    pdb.checkpoint().unwrap();
    pdb.define_class(
        ClassDef::new("employee")
            .isa("person")
            .attr("salary", Type::temporal(Type::INTEGER))
            .attr("grade", Type::CHARACTER)
            .method("raise", [Type::INTEGER], Type::BOOL)
            .c_attr("headcount", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
    pdb.define_class(
        ClassDef::new("project")
            .attr("lead", Type::temporal(Type::object("person")))
            .attr(
                "members",
                Type::temporal(Type::set_of(Type::object("person"))),
            )
            .attr("milestones", Type::list_of(Type::STRING))
            .attr(
                "budget",
                Type::record_of([("amount", Type::REAL), ("approved", Type::BOOL)]),
            ),
    )
    .unwrap();
    pdb.define_class(ClassDef::new("scratch")).unwrap();
    pdb.advance_to(Instant(10)).unwrap();
    let ann = pdb
        .create_object(
            &employee,
            attrs([
                ("name", Value::str("Ann")),
                ("address", Value::str("Genova")),
                ("born", Value::Time(Instant(3))),
                ("salary", Value::Int(100)),
                ("grade", Value::Char('B')),
            ]),
        )
        .unwrap();
    let bob = pdb
        .create_object(
            &person,
            attrs([
                ("name", Value::str("Bob")),
                ("address", Value::str("Milano")),
            ]),
        )
        .unwrap();
    pdb.set_c_attr(&employee, &"headcount".into(), Value::Int(1))
        .unwrap();
    let idea = pdb
        .create_object(
            &project,
            attrs([
                ("lead", Value::Oid(ann)),
                ("members", Value::set([Value::Oid(ann), Value::Oid(bob)])),
                (
                    "milestones",
                    Value::list([Value::str("kickoff"), Value::str("β-release")]),
                ),
                (
                    "budget",
                    Value::record([
                        ("amount", Value::Real(12.5)),
                        ("approved", Value::Bool(true)),
                    ]),
                ),
            ]),
        )
        .unwrap();
    pdb.advance_to(Instant(20)).unwrap();
    pdb.set_attr(ann, &"salary".into(), Value::Int(150))
        .unwrap();
    // Same-tick overwrite of the run that was just opened.
    pdb.set_attr(ann, &"salary".into(), Value::Int(155))
        .unwrap();
    pdb.set_attr(idea, &"lead".into(), Value::Oid(bob)).unwrap();
    pdb.txn(|t| {
        t.advance_to(Instant(30))?;
        t.set_attr(ann, &"address".into(), Value::str("Pisa"))?;
        t.set_attr(idea, &"members".into(), Value::set([Value::Oid(ann)]))?;
        Ok(())
    })
    .unwrap();
    pdb.migrate(ann, &person, Attrs::new()).unwrap();
    pdb.advance_to(Instant(40)).unwrap();
    pdb.migrate(ann, &employee, attrs([("salary", Value::Int(200))]))
        .unwrap();
    pdb.tick().unwrap();
    pdb.set_attr(idea, &"lead".into(), Value::Oid(ann)).unwrap();
    pdb.tick().unwrap();
    pdb.terminate_object(bob).unwrap();
    pdb.drop_class(&ClassId::from("scratch")).unwrap();
    pdb.sync().unwrap();
    assert_eq!(pdb.op_count(), GOLDEN_OPS);
    pdb
}

fn lay(fs: &SimFs, path: &Path, bytes: &[u8]) {
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut f = vfs.open_trunc(path).unwrap();
    f.write_all(bytes).unwrap();
    f.sync().unwrap();
}

fn read_golden(name: &str) -> Vec<u8> {
    std::fs::read(golden(name)).unwrap_or_else(|e| panic!("golden file {name}: {e}"))
}

#[test]
fn encoding_the_fixed_database_reproduces_the_golden_files() {
    let fs = SimFs::new();
    let mut pdb = build(&fs);
    assert_eq!(digest_database(pdb.db()), GOLDEN_DIGEST);
    assert!(
        fs.contents(&log_path()).unwrap() == read_golden("fixed.log"),
        "the TCLOG001 encoding moved"
    );
    pdb.checkpoint().unwrap();
    assert!(
        fs.contents(&snapshot_path(&log_path())).unwrap() == read_golden("fixed.snap"),
        "the TCSNAP02 encoding moved"
    );
}

#[test]
fn decoding_the_golden_log_reproduces_the_fixed_database() {
    // The log's header says its first `PREFIX_OPS` operations live in a
    // snapshot: the one `build` left behind when it checkpointed there.
    let fs = SimFs::new();
    drop(build(&fs));
    assert!(read_golden("fixed.log").starts_with(b"TCLOG001"));
    lay(&fs, &log_path(), &read_golden("fixed.log"));
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let pdb = PersistentDatabase::open_with(vfs, &log_path()).expect("open golden log");
    assert!(!pdb.recovered_torn_tail());
    assert!(pdb.recovered_from_snapshot());
    assert_eq!(pdb.recovered_replayed(), GOLDEN_OPS - PREFIX_OPS);
    assert_eq!(pdb.recovered_ops(), GOLDEN_OPS);
    assert_eq!(digest_database(pdb.db()), GOLDEN_DIGEST);
}

#[test]
fn decoding_the_golden_snapshot_reproduces_the_fixed_database() {
    let fs = SimFs::new();
    let snap_path = snapshot_path(&log_path());
    lay(&fs, &snap_path, &read_golden("fixed.snap"));
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    assert!(read_golden("fixed.snap").starts_with(b"TCSNAP02"));
    let snap = load_snapshot(&vfs, &snap_path).expect("load golden snapshot");
    assert_eq!(snap.ops_covered, GOLDEN_OPS as u64);
    assert_eq!(snap.digest, GOLDEN_DIGEST);
    let db = Database::import_state(snap.state).expect("import golden image");
    assert_eq!(digest_database(&db), GOLDEN_DIGEST);
    // The image alone is a complete database: every derived structure
    // rebuilt from it answers like the one the log replay maintained.
    let live = build(&SimFs::new());
    for t in [0u64, 10, 20, 29, 30, 40, 41, 42] {
        for c in ["person", "employee", "project"] {
            let c = ClassId::from(c);
            assert_eq!(
                db.pi(&c, Instant(t)).ok(),
                live.db().pi(&c, Instant(t)).ok()
            );
        }
    }
    for o in live.db().objects() {
        assert_eq!(db.referrers_of(o.oid), live.db().referrers_of(o.oid));
    }
}

/// The operation of the golden bare record: a transaction, so the record
/// nests operations of several kinds.
fn golden_op() -> Operation {
    Operation::Txn(vec![
        Operation::AdvanceTo(Instant(30)),
        Operation::SetAttr {
            oid: Oid(0),
            attr: AttrName::from("address"),
            value: Value::str("Pisa"),
        },
        Operation::Terminate { oid: Oid(1) },
    ])
}

/// One frame of each kind, by golden file name. The batch carries the
/// records of the golden log verbatim and the snapshot the image of the
/// fixed database, so both also pin what they wrap.
fn golden_frames() -> Vec<(&'static str, Frame)> {
    let fs = SimFs::new();
    let pdb = build(&fs);
    let log = fs.contents(&log_path()).unwrap();
    vec![
        (
            "batch.frame",
            Frame::Batch {
                term: 2,
                start: PREFIX_OPS as u64,
                count: (GOLDEN_OPS - PREFIX_OPS) as u64,
                commit_digest: Some(GOLDEN_DIGEST),
                // The records after the 20-byte compaction header.
                records: log[20..].to_vec(),
            },
        ),
        (
            "snapshot.frame",
            Frame::Snapshot {
                term: 2,
                ops_covered: GOLDEN_OPS as u64,
                digest: GOLDEN_DIGEST,
                state: pdb.db().export_state().to_bytes(),
            },
        ),
        (
            "heartbeat.frame",
            Frame::Heartbeat {
                term: 2,
                total: GOLDEN_OPS as u64,
                digest: GOLDEN_DIGEST,
            },
        ),
        (
            "ack.frame",
            Frame::Ack {
                term: 2,
                applied: 300,
            },
        ),
        ("catchup.frame", Frame::CatchUp { term: 2, from: 128 }),
        (
            "scrubpull.frame",
            Frame::ScrubPull {
                term: 3,
                applied: u64::MAX,
                digest: 0x0123_4567_89AB_CDEF,
            },
        ),
    ]
}

#[test]
fn encoding_the_fixed_frames_and_record_reproduces_the_golden_files() {
    for (name, frame) in golden_frames() {
        assert!(
            frame.to_wire() == read_golden(name),
            "the wire encoding of {name} moved"
        );
    }
    assert!(
        encode_record(&golden_op()) == read_golden("op.record"),
        "the log record encoding moved"
    );
}

#[test]
fn decoding_the_golden_frames_and_record_gives_them_back() {
    for (name, frame) in golden_frames() {
        assert_eq!(Frame::from_wire(&read_golden(name)), Ok(frame), "{name}");
    }
    // What the two wrapping frames carry holds too: the batch's records
    // are the golden log's, byte for byte, and the image imports to the
    // fixed database.
    match Frame::from_wire(&read_golden("batch.frame")) {
        Ok(Frame::Batch { records, .. }) => {
            let mut log = read_golden("fixed.log")[..20].to_vec();
            log.extend_from_slice(&records);
            assert!(
                log == read_golden("fixed.log"),
                "batch records are the log's, verbatim"
            );
        }
        other => panic!("batch.frame: {other:?}"),
    }
    match Frame::from_wire(&read_golden("snapshot.frame")) {
        Ok(Frame::Snapshot { state, .. }) => {
            let db = Database::import_state(DatabaseState::from_bytes(&state).unwrap()).unwrap();
            assert_eq!(digest_database(&db), GOLDEN_DIGEST);
        }
        other => panic!("snapshot.frame: {other:?}"),
    }
    // A bare record is a headerless log of one operation.
    let record = read_golden("op.record");
    let scan = OpLog::scan_bytes(&record);
    assert_eq!((scan.ops.len(), scan.damage), (1, None));
    assert!(matches!(&scan.ops[0], Operation::Txn(ops) if ops.len() == 3));
    assert!(encode_record(&scan.ops[0]) == record);
}

/// Writes the golden files from the current encoder. Run once per format
/// version (`cargo test -p tchimera-storage --test golden_format -- --ignored`),
/// never to make a failing test above pass.
#[test]
#[ignore = "regenerates the golden files"]
fn regenerate_golden_files() {
    let fs = SimFs::new();
    let mut pdb = build(&fs);
    std::fs::create_dir_all(golden("")).unwrap();
    std::fs::write(golden("fixed.log"), fs.contents(&log_path()).unwrap()).unwrap();
    pdb.checkpoint().unwrap();
    std::fs::write(
        golden("fixed.snap"),
        fs.contents(&snapshot_path(&log_path())).unwrap(),
    )
    .unwrap();
    for (name, frame) in golden_frames() {
        std::fs::write(golden(name), frame.to_wire()).unwrap();
    }
    std::fs::write(golden("op.record"), encode_record(&golden_op())).unwrap();
    println!("GOLDEN_DIGEST = {:#018X}", digest_database(pdb.db()));
}

//! Golden files for the on-disk format — a `TCLOG002` log of one fixed
//! small database, checkpointed early — and for the pair of files before
//! it (a `TCLOG001` log and a `TCSNAP02` snapshot), which still opens;
//! and for the wire: one replication frame of each kind and one bare log
//! record.
//!
//! Encoding the fixed database must reproduce the committed `TCLOG002`
//! file byte for byte (and its op records those of the `TCLOG001` log),
//! and decoding the committed files must reproduce the fixed database
//! (its digest is pinned as a literal). Encoding each fixed frame must
//! reproduce its file, and decoding the file must give back the frame;
//! the retired state image frame decodes to a typed refusal. A change
//! that moves a format fails here instead of on an operator's disk or
//! between two builds of a cluster; a deliberate format change bumps the
//! magic (on disk) or `WIRE_VERSION` (on the wire) and adds new files
//! beside these.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tchimera_core::{attrs, AttrName, Attrs, ClassDef, ClassId, Database, Instant, Oid, Type, Value};
use tchimera_storage::log::{crc32, encode_record, RecordWalk};
use tchimera_storage::{
    digest_database, load_snapshot, snapshot_path, write_snapshot, CodecError, EngineError,
    Frame, OpLog, Operation, PersistentDatabase, SimFs, Vfs, WireError,
};

/// `digest_database` of the fixed database (DESIGN.md §8.5).
const GOLDEN_DIGEST: u64 = 0x1616_0584_E568_2E65;

/// Operations in the fixed history (one record each; the transaction is
/// one) and how many of them an early checkpoint folded away, so that the
/// golden logs start with a header (and the `TCLOG002` one an image).
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

/// The fixed history's first operation, the one the golden logs' early
/// checkpoint folds away.
fn person_class() -> ClassDef {
    ClassDef::new("person")
        .immutable_attr("name", Type::temporal(Type::STRING))
        .attr("address", Type::STRING)
        .attr("born", Type::Time)
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
    pdb.define_class(person_class()).unwrap();
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

/// The op records of a log file: its bytes past the header and image.
fn op_records(log: &[u8]) -> &[u8] {
    let mut walk = RecordWalk::log(log, 0);
    let start = walk.pos();
    walk.by_ref().for_each(drop);
    assert!(walk.damage().is_none());
    &log[start..]
}

#[test]
fn encoding_the_fixed_database_reproduces_the_golden_files() {
    let fs = SimFs::new();
    let pdb = build(&fs);
    assert_eq!(digest_database(pdb.db()), GOLDEN_DIGEST);
    let log = fs.contents(&log_path()).unwrap();
    assert!(log == read_golden("fixed.ckpt.log"), "the TCLOG002 encoding moved");
    // The records of the old format are the records of the new one: a
    // `TCLOG001` log is its 20-byte header (magic, base, CRC-32 of the
    // base) and then the same op records.
    let base = (PREFIX_OPS as u64).to_le_bytes();
    let v1 = [&b"TCLOG001"[..], &base, &crc32(&base).to_le_bytes(), op_records(&log)].concat();
    assert!(v1 == read_golden("fixed.log"), "the TCLOG001 records moved");
}

#[test]
fn the_golden_log_opens_to_the_fixed_database_at_every_operation() {
    let fs = SimFs::new();
    lay(&fs, &log_path(), &read_golden("fixed.ckpt.log"));
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut pdb = PersistentDatabase::open_with(vfs, &log_path()).expect("open golden log");
    assert!(!pdb.recovered_torn_tail() && pdb.recovered_from_snapshot());
    assert_eq!(pdb.recovered_replayed(), GOLDEN_OPS - PREFIX_OPS);
    assert_eq!((pdb.recovered_ops(), pdb.base_op()), (GOLDEN_OPS, PREFIX_OPS as u64));
    assert_eq!(digest_database(pdb.db()), GOLDEN_DIGEST);
    // Transaction time from the horizon on: the build's state after op k.
    answers_from(&mut pdb, &mut build(&SimFs::new()), PREFIX_OPS);
}

#[test]
fn the_golden_legacy_pair_opens_converted_to_the_fixed_database() {
    // A `TCLOG001` log whose header says its first operation lives in the
    // `TCSNAP02` snapshot beside it — which, taken after the last
    // operation, holds all 22.
    let fs = SimFs::new();
    let snap = snapshot_path(&log_path());
    lay(&fs, &log_path(), &read_golden("fixed.log"));
    lay(&fs, &snap, &read_golden("fixed.snap"));
    fs.sync_dir(Path::new(".")).unwrap();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &log_path()).expect("open");
    assert!(!pdb.recovered_torn_tail() && pdb.recovered_from_snapshot());
    assert_eq!((pdb.recovered_ops(), pdb.recovered_replayed()), (GOLDEN_OPS, 0));
    assert_eq!(digest_database(pdb.db()), GOLDEN_DIGEST);
    // One file now, covering the same history: from the snapshot's
    // horizon on, transaction time answers as the pair did.
    assert!(!fs.exists(&snap), "the snapshot is folded into the log");
    assert!(fs.contents(&log_path()).unwrap().starts_with(b"TCLOG002"));
    assert_eq!(digest_database(&pdb.state_at_op(GOLDEN_OPS).unwrap()), GOLDEN_DIGEST);
    let beyond = pdb.state_at_op(GOLDEN_OPS + 1);
    assert!(matches!(beyond, Err(EngineError::BeyondHistory { recorded: GOLDEN_OPS, .. })));
    drop(pdb);
    let pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &log_path()).unwrap();
    assert_eq!(digest_database(pdb.db()), GOLDEN_DIGEST);

    // A `TCSNAP01` file records a digest nothing can verify any more: it
    // is refused like any unusable snapshot, and with the log's prefix
    // compacted away the open refuses too, touching neither file.
    let fs = SimFs::new();
    let mut old = read_golden("fixed.snap");
    old[7] = b'1';
    lay(&fs, &log_path(), &read_golden("fixed.log"));
    lay(&fs, &snap, &old);
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let open = PersistentDatabase::open_with(vfs, &log_path());
    assert!(matches!(open, Err(EngineError::Damaged(_))), "{:?}", open.err());
    assert!(fs.contents(&snap).unwrap() == old);
    assert!(fs.contents(&log_path()).unwrap() == read_golden("fixed.log"));
}

/// Lay `log` and, beside it, `snap` as a legacy pair, and open it.
fn open_pair(log: &[u8], snap: &[u8]) -> (SimFs, Result<PersistentDatabase, EngineError>) {
    let fs = SimFs::new();
    lay(&fs, &log_path(), log);
    lay(&fs, &snapshot_path(&log_path()), snap);
    fs.sync_dir(Path::new(".")).unwrap();
    let open = PersistentDatabase::open_with(Arc::new(fs.clone()), &log_path());
    (fs, open)
}

/// A standalone checkpoint file of the fixed database after `k`
/// operations, as `write_snapshot` writes one.
fn snapshot_at(reference: &mut PersistentDatabase, k: usize) -> Vec<u8> {
    let fs = SimFs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let db = reference.state_at_op(k).unwrap();
    let path = Path::new("at.snap");
    write_snapshot(&vfs, path, &db.export_state(), k as u64, digest_database(&db)).unwrap();
    fs.contents(path).unwrap()
}

/// `pdb` answers transaction time as the build did for every op from
/// `horizon` on (before any op, with the empty database), and refuses
/// the op before it.
fn answers_from(pdb: &mut PersistentDatabase, reference: &mut PersistentDatabase, horizon: usize) {
    for k in horizon..=GOLDEN_OPS {
        let expect = match k {
            0 => Database::new(),
            _ => reference.state_at_op(k).unwrap(),
        };
        let at = pdb.state_at_op(k).unwrap();
        assert_eq!(digest_database(&at), digest_database(&expect), "op {k}");
    }
    if horizon > 0 {
        let before = pdb.state_at_op(horizon - 1);
        assert!(matches!(before, Err(EngineError::Compacted { base, .. }) if base == horizon as u64));
    }
}

#[test]
fn every_legacy_pair_converts_to_one_file_of_the_same_history() {
    let mut reference = build(&SimFs::new());
    let v1 = read_golden("fixed.log");
    // The full history without a header, as a log was before its first
    // compaction: the folded-away first record, then the golden log's.
    let headerless = [&encode_record(&Operation::DefineClass(person_class()))[..], &v1[20..]].concat();

    // The golden `TCLOG001` log beside a snapshot at its own horizon:
    // the image, then every old record copied past it.
    let (fs, open) = open_pair(&v1, &snapshot_at(&mut reference, PREFIX_OPS));
    let mut pdb = open.expect("open");
    assert!(pdb.recovered_from_snapshot());
    assert_eq!((pdb.recovered_ops(), pdb.recovered_replayed()), (GOLDEN_OPS, GOLDEN_OPS - PREFIX_OPS));
    assert_eq!(digest_database(pdb.db()), GOLDEN_DIGEST);
    answers_from(&mut pdb, &mut reference, PREFIX_OPS);
    assert!(op_records(&fs.contents(&log_path()).unwrap()) == &v1[20..]);
    assert!(!fs.exists(&snapshot_path(&log_path())));

    // A headerless log beside a usable snapshot — a crash between a
    // snapshot's install and the compaction after it: the records the
    // snapshot holds are dropped, the rest copied past its image.
    let (fs, open) = open_pair(&headerless, &snapshot_at(&mut reference, 5));
    let mut pdb = open.expect("open");
    assert_eq!((pdb.recovered_ops(), pdb.recovered_replayed()), (GOLDEN_OPS, GOLDEN_OPS - 5));
    assert_eq!((pdb.base_op(), digest_database(pdb.db())), (5, GOLDEN_DIGEST));
    answers_from(&mut pdb, &mut reference, 5);
    assert!(!fs.exists(&snapshot_path(&log_path())));

    // An unusable snapshot beside a log of the whole history (headerless,
    // or behind a `TCLOG001` header of base 0): the snapshot is dropped
    // and the log kept, without a header.
    let base0 = [&b"TCLOG001"[..], &[0; 8], &crc32(&[0; 8]).to_le_bytes()].concat();
    let mut unusable = read_golden("fixed.snap");
    unusable[40] ^= 0x01;
    for log in [headerless.clone(), [&base0[..], &headerless].concat()] {
        let (fs, open) = open_pair(&log, &unusable);
        let mut pdb = open.expect("open");
        assert!(!pdb.recovered_from_snapshot());
        assert_eq!((pdb.recovered_ops(), pdb.recovered_replayed()), (GOLDEN_OPS, GOLDEN_OPS));
        assert_eq!(digest_database(pdb.db()), GOLDEN_DIGEST);
        answers_from(&mut pdb, &mut reference, 0);
        assert!(fs.contents(&log_path()).unwrap() == headerless);
        assert!(!fs.exists(&snapshot_path(&log_path())));
    }

    // A snapshot left beside a log of this format is removed; the log is
    // not touched.
    let ckpt = read_golden("fixed.ckpt.log");
    let (fs, open) = open_pair(&ckpt, &read_golden("fixed.snap"));
    let mut pdb = open.expect("open");
    assert_eq!(pdb.recovered_replayed(), GOLDEN_OPS - PREFIX_OPS);
    answers_from(&mut pdb, &mut reference, PREFIX_OPS);
    assert!(fs.contents(&log_path()).unwrap() == ckpt);
    assert!(!fs.exists(&snapshot_path(&log_path())));
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
/// records of the golden log verbatim, so it also pins what it wraps.
fn golden_frames() -> Vec<(&'static str, Frame)> {
    let log = read_golden("fixed.log");
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
    // The state image frame is retired: its kind is refused by type.
    let retired = CodecError::InvalidTag { what: "repl frame", tag: 1 };
    assert_eq!(Frame::from_wire(&read_golden("snapshot.frame")), Err(WireError::Decode(retired)));
    // A bare record is a headerless log of one operation.
    let record = read_golden("op.record");
    let scan = OpLog::scan_bytes(&record);
    assert_eq!((scan.ops.len(), scan.damage), (1, None));
    assert!(matches!(&scan.ops[0], Operation::Txn(ops) if ops.len() == 3));
    assert!(encode_record(&scan.ops[0]) == record);
}

/// Writes the golden files of the current formats from the current
/// encoder (`fixed.log`, `fixed.snap` and `snapshot.frame` are of retired
/// ones and stay as they are). Run once per format version (`cargo test
/// -p tchimera-storage --test golden_format -- --ignored`), never to make
/// a failing test above pass.
#[test]
#[ignore = "regenerates the golden files"]
fn regenerate_golden_files() {
    let fs = SimFs::new();
    let pdb = build(&fs);
    std::fs::create_dir_all(golden("")).unwrap();
    std::fs::write(golden("fixed.ckpt.log"), fs.contents(&log_path()).unwrap()).unwrap();
    for (name, frame) in golden_frames() {
        std::fs::write(golden(name), frame.to_wire()).unwrap();
    }
    std::fs::write(golden("op.record"), encode_record(&golden_op())).unwrap();
    println!("GOLDEN_DIGEST = {:#018X}", digest_database(pdb.db()));
}

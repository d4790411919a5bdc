//! Golden files for the two on-disk formats: a `TCLOG001` operation log
//! and a `TCSNAP02` snapshot of one fixed small database.
//!
//! Encoding the fixed database must reproduce the committed files byte
//! for byte, and decoding the committed files must reproduce the fixed
//! database (its digest is pinned as a literal). A change that moves
//! either format fails here instead of on an operator's disk; a deliberate
//! format change bumps the magic and adds new files beside these.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use tchimera_core::{attrs, Attrs, ClassDef, ClassId, Database, Instant, Type, Value};
use tchimera_storage::{
    digest_database, load_snapshot, snapshot_path, PersistentDatabase, SimFs, Vfs,
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
    println!("GOLDEN_DIGEST = {:#018X}", digest_database(pdb.db()));
}

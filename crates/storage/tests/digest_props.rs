//! The maintained state digest is the from-scratch digest, always.
//!
//! `PersistentDatabase::state_digest()` re-hashes only the components
//! the write hooks marked since the last call; `digest_database` walks
//! the whole state and never looks at the table. An incrementally
//! maintained fingerprint drifts silently exactly where temporal updates
//! are subtle (the catalogue of arXiv:1103.0686): an overwrite within one
//! instant, a delete followed by a re-insert, a lifespan that opens and
//! closes on the same tick. The sessions below are biased toward those,
//! cross every path that replaces the live state wholesale (committed and
//! rolled-back transactions, checkpoint, crash-reopen, a shipped state
//! image, the rebuild after a failed append), and ask for the maintained
//! digest only at random points — so the table goes cold → warm at
//! different places and dirty sets of every length occur. After *every*
//! step a clone (which carries table and dirty set) must digest like the
//! walk.
//!
//! Also here: `Vfs::read_from`'s default body (what an outside `Vfs`
//! such as the benchmark's counting wrapper gets) agrees with the
//! `StdFs` and `SimFs` overrides, buffered un-synced appends included.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use tchimera_core::{attrs, Attrs, ClassDef, ClassId, ModelError, Oid, Type, Value};
use tchimera_storage::{
    digest_database, EngineError, PersistentDatabase, SimFs, StdFs, TearMode, Vfs, VfsFile,
};

const CLASSES: [&str; 3] = ["person", "employee", "manager"];

/// A mutation that is legal inside a transaction as well as outside.
#[derive(Clone, Debug)]
enum Write {
    Tick,
    Create {
        class: usize,
    },
    /// Temporal attribute: a second set before the next tick overwrites
    /// the run that the first one opened.
    SetSalary {
        target: usize,
        v: i64,
    },
    /// Static attribute: overwritten in place.
    SetAddress {
        target: usize,
        v: u8,
    },
    Migrate {
        target: usize,
        class: usize,
    },
    Terminate {
        target: usize,
    },
    /// A lifespan `[now, now]`.
    CreateAndTerminate {
        class: usize,
    },
    /// Leave a class and re-enter it on the same tick: the membership run
    /// that was just closed re-opens.
    Bounce {
        target: usize,
    },
    SetHeadcount {
        v: i64,
    },
    DefineSide,
    DropSide,
}

#[derive(Clone, Debug)]
enum Step {
    Write(Write),
    Txn(Vec<Write>),
    RolledBackTxn(Vec<Write>),
    /// Ask for the maintained digest (cold → warm the first time).
    Digest,
    Checkpoint,
    CrashReopen {
        tear: u8,
    },
    InstallOwnImage,
    /// Fail an append so the engine rebuilds the live state from storage.
    FailedAppend {
        target: usize,
    },
}

fn arb_write() -> impl Strategy<Value = Write> {
    prop_oneof![
        Just(Write::Tick),
        (0usize..3).prop_map(|class| Write::Create { class }),
        (0usize..3).prop_map(|class| Write::Create { class }),
        (0usize..16, 0i64..50).prop_map(|(target, v)| Write::SetSalary { target, v }),
        (0usize..16, 0i64..50).prop_map(|(target, v)| Write::SetSalary { target, v }),
        (0usize..16, any::<u8>()).prop_map(|(target, v)| Write::SetAddress { target, v }),
        (0usize..16, 0usize..3).prop_map(|(target, class)| Write::Migrate { target, class }),
        (0usize..16).prop_map(|target| Write::Terminate { target }),
        (0usize..3).prop_map(|class| Write::CreateAndTerminate { class }),
        (0usize..16).prop_map(|target| Write::Bounce { target }),
        (0i64..9).prop_map(|v| Write::SetHeadcount { v }),
        Just(Write::DefineSide),
        Just(Write::DropSide),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        arb_write().prop_map(Step::Write),
        arb_write().prop_map(Step::Write),
        arb_write().prop_map(Step::Write),
        arb_write().prop_map(Step::Write),
        arb_write().prop_map(Step::Write),
        arb_write().prop_map(Step::Write),
        prop::collection::vec(arb_write(), 1..5).prop_map(Step::Txn),
        prop::collection::vec(arb_write(), 1..5).prop_map(Step::RolledBackTxn),
        Just(Step::Digest),
        Just(Step::Digest),
        Just(Step::Checkpoint),
        (0u8..3).prop_map(|tear| Step::CrashReopen { tear }),
        Just(Step::InstallOwnImage),
        (0usize..16).prop_map(|target| Step::FailedAppend { target }),
    ]
}

/// The mutation surface `PersistentDatabase` and `Transaction` share.
trait Sink {
    fn tick(&mut self) -> Result<(), EngineError>;
    fn define_class(&mut self, def: ClassDef) -> Result<(), EngineError>;
    fn drop_class(&mut self, class: &ClassId) -> Result<(), EngineError>;
    fn set_c_attr(&mut self, class: &ClassId, attr: &str, v: Value) -> Result<(), EngineError>;
    fn create(&mut self, class: &ClassId, init: Attrs) -> Result<Oid, EngineError>;
    fn set_attr(&mut self, oid: Oid, attr: &str, v: Value) -> Result<(), EngineError>;
    fn migrate(&mut self, oid: Oid, to: &ClassId) -> Result<(), EngineError>;
    fn terminate(&mut self, oid: Oid) -> Result<(), EngineError>;
    fn class_of(&self, oid: Oid) -> Option<ClassId>;
}

macro_rules! sink {
    ($ty:ty) => {
        impl Sink for $ty {
            fn tick(&mut self) -> Result<(), EngineError> {
                <$ty>::tick(self).map(|_| ())
            }
            fn define_class(&mut self, def: ClassDef) -> Result<(), EngineError> {
                <$ty>::define_class(self, def)
            }
            fn drop_class(&mut self, class: &ClassId) -> Result<(), EngineError> {
                <$ty>::drop_class(self, class)
            }
            fn set_c_attr(&mut self, c: &ClassId, a: &str, v: Value) -> Result<(), EngineError> {
                <$ty>::set_c_attr(self, c, &a.into(), v)
            }
            fn create(&mut self, class: &ClassId, init: Attrs) -> Result<Oid, EngineError> {
                <$ty>::create_object(self, class, init)
            }
            fn set_attr(&mut self, oid: Oid, attr: &str, v: Value) -> Result<(), EngineError> {
                <$ty>::set_attr(self, oid, &attr.into(), v)
            }
            fn migrate(&mut self, oid: Oid, to: &ClassId) -> Result<(), EngineError> {
                <$ty>::migrate(self, oid, to, Attrs::new())
            }
            fn terminate(&mut self, oid: Oid) -> Result<(), EngineError> {
                <$ty>::terminate_object(self, oid)
            }
            fn class_of(&self, oid: Oid) -> Option<ClassId> {
                let db = self.db();
                db.object(oid).ok()?.current_class(db.now()).cloned()
            }
        }
    };
}
sink!(PersistentDatabase);
sink!(tchimera_storage::Transaction);

/// What a session remembers besides the database itself.
#[derive(Clone, Default)]
struct Book {
    oids: Vec<Oid>,
    /// Side classes defined so far (names are never reused: a class
    /// cannot be recreated) and how many of them were dropped again.
    sides: usize,
    dropped: usize,
}

/// Apply one write. The model may reject it (dead object, unknown
/// attribute after a migration, …): a rejection must leave the digest as
/// valid as an acceptance does, so errors are simply passed over.
fn write(sink: &mut impl Sink, book: &mut Book, w: &Write) {
    let class = |k: usize| ClassId::from(CLASSES[k]);
    let pick = |book: &Book, target: usize| book.oids.get(target % book.oids.len().max(1)).copied();
    match w {
        Write::Tick => {
            let _ = sink.tick();
        }
        Write::Create { class: k } => {
            if let Ok(oid) = sink.create(&class(*k), attrs([("address", Value::str("Milano"))])) {
                book.oids.push(oid);
            }
        }
        Write::SetSalary { target, v } => {
            if let Some(oid) = pick(book, *target) {
                let _ = sink.set_attr(oid, "salary", Value::Int(*v));
            }
        }
        Write::SetAddress { target, v } => {
            if let Some(oid) = pick(book, *target) {
                let _ = sink.set_attr(oid, "address", Value::str(format!("via {v}")));
            }
        }
        Write::Migrate { target, class: k } => {
            if let Some(oid) = pick(book, *target) {
                let _ = sink.migrate(oid, &class(*k));
            }
        }
        Write::Terminate { target } => {
            if let Some(oid) = pick(book, *target) {
                let _ = sink.terminate(oid);
            }
        }
        Write::CreateAndTerminate { class: k } => {
            if let Ok(oid) = sink.create(&class(*k), Attrs::new()) {
                book.oids.push(oid);
                let _ = sink.terminate(oid);
            }
        }
        Write::Bounce { target } => {
            if let Some(oid) = pick(book, *target) {
                if let Some(home) = sink.class_of(oid) {
                    let away = if home == class(0) { class(1) } else { class(0) };
                    if sink.migrate(oid, &away).is_ok() {
                        let _ = sink.migrate(oid, &home);
                    }
                }
            }
        }
        Write::SetHeadcount { v } => {
            let _ = sink.set_c_attr(&class(1), "headcount", Value::Int(*v));
        }
        Write::DefineSide => {
            let def = ClassDef::new(format!("side{}", book.sides)).c_attr("note", Type::STRING);
            if sink.define_class(def).is_ok() {
                book.sides += 1;
            }
        }
        Write::DropSide => {
            if book.dropped < book.sides
                && sink
                    .drop_class(&ClassId::from(format!("side{}", book.dropped)))
                    .is_ok()
            {
                book.dropped += 1;
            }
        }
    }
}

fn open(fs: &SimFs) -> PersistentDatabase {
    PersistentDatabase::open_with(Arc::new(fs.clone()), Path::new("node.log")).expect("open")
}

fn schema(pdb: &mut PersistentDatabase) {
    pdb.define_class(ClassDef::new("person").attr("address", Type::STRING))
        .unwrap();
    pdb.define_class(
        ClassDef::new("employee")
            .isa("person")
            .attr("salary", Type::temporal(Type::INTEGER))
            .c_attr("headcount", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
    pdb.define_class(
        ClassDef::new("manager")
            .isa("employee")
            .attr("bonus", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
}

/// Run one step; returns the database (a crash replaces it).
fn step(fs: &SimFs, mut pdb: PersistentDatabase, book: &mut Book, s: &Step) -> PersistentDatabase {
    match s {
        Step::Write(w) => write(&mut pdb, book, w),
        Step::Txn(ws) => {
            let mut staged = book.clone();
            let committed = pdb.txn(|t| {
                ws.iter().for_each(|w| write(t, &mut staged, w));
                Ok(())
            });
            if committed.is_ok() {
                *book = staged;
            }
        }
        Step::RolledBackTxn(ws) => {
            let before = digest_database(pdb.db());
            let mut scratch = book.clone();
            let r: Result<(), _> = pdb.txn(|t| {
                ws.iter().for_each(|w| write(t, &mut scratch, w));
                Err(EngineError::Model(ModelError::Internal {
                    context: "rolled back on purpose",
                }))
            });
            assert!(r.is_err());
            assert_eq!(
                digest_database(pdb.db()),
                before,
                "a rollback must change nothing"
            );
        }
        Step::Digest => {
            assert_eq!(
                pdb.state_digest(),
                digest_database(pdb.db()),
                "maintained digest drifted"
            );
        }
        Step::Checkpoint => pdb.checkpoint().expect("checkpoint"),
        Step::CrashReopen { tear } => {
            pdb.sync().expect("sync");
            let before = digest_database(pdb.db());
            drop(pdb);
            fs.crash([TearMode::DropAll, TearMode::KeepHalf, TearMode::KeepAll][*tear as usize]);
            pdb = open(fs);
            assert_eq!(
                digest_database(pdb.db()),
                before,
                "synced state must survive a crash"
            );
        }
        Step::InstallOwnImage => {
            pdb.sync().expect("sync");
            let (image, ops) = (pdb.db().export_state(), pdb.op_count() as u64);
            let digest = digest_database(pdb.db());
            pdb.install_snapshot_image(image, ops, digest)
                .expect("install own image");
        }
        Step::FailedAppend { target } => {
            let before = digest_database(pdb.db());
            fs.fail_after(Some(0));
            if let Some(&oid) = book.oids.get(target % book.oids.len().max(1)) {
                // Accepted by the model or not, nothing reaches the log.
                let _ = pdb.set_attr(oid, &"address".into(), Value::str("nowhere"));
            }
            fs.fail_after(None);
            assert!(!pdb.diverged(), "the rebuild from storage must succeed");
            assert_eq!(
                digest_database(pdb.db()),
                before,
                "an unlogged write must be undone"
            );
        }
    }
    pdb
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn maintained_digest_equals_the_from_scratch_walk(
        steps in prop::collection::vec(arb_step(), 1..90),
    ) {
        let fs = SimFs::new();
        let mut pdb = open(&fs);
        schema(&mut pdb);
        let mut book = Book::default();
        for (i, s) in steps.iter().enumerate() {
            pdb = step(&fs, pdb, &mut book, s);
            // A clone carries the table and its dirty set, so asking the
            // clone checks this very state without shortening the dirty
            // set the session itself is accumulating.
            prop_assert_eq!(
                pdb.db().clone().state_digest(),
                digest_database(pdb.db()),
                "drift after step {} ({:?})", i, s
            );
        }
        prop_assert_eq!(pdb.state_digest(), digest_database(pdb.db()));
        // And the state those digests describe is the one on disk.
        pdb.sync().expect("sync");
        let digest = pdb.state_digest();
        drop(pdb);
        prop_assert_eq!(open(&fs).state_digest(), digest);
    }
}

// ---------------------------------------------------------------------
// Vfs::read_from
// ---------------------------------------------------------------------

/// A `Vfs` from outside the crate: only the required methods, so
/// `read_from` is the trait's default body.
struct Outside<V>(V);

impl<V: Vfs> Vfs for Outside<V> {
    fn open_append(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        self.0.open_append(path)
    }
    fn open_trunc(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        self.0.open_trunc(path)
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.0.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.0.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.0.remove(path)
    }
    fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
        self.0.sync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.0.exists(path)
    }
}

/// Write `synced`, sync, append `buffered` without syncing, then compare
/// default body and override at every offset up to past the end.
fn read_from_agrees<V: Vfs + Clone>(fs: V, path: &Path, synced: &[u8], buffered: &[u8]) {
    let mut f = fs.open_trunc(path).unwrap();
    f.write_all(synced).unwrap();
    f.sync().unwrap();
    f.write_all(buffered).unwrap();
    let all = [synced, buffered].concat();
    let outside = Outside(fs.clone());
    for offset in 0..all.len() as u64 + 3 {
        let expect = all.get(offset as usize..).unwrap_or_default();
        assert_eq!(
            fs.read_from(path, offset).unwrap(),
            expect,
            "override at {offset}"
        );
        assert_eq!(
            outside.read_from(path, offset).unwrap(),
            expect,
            "default at {offset}"
        );
    }
    assert_eq!(fs.read(path).unwrap(), all);
    assert!(fs.read_from(Path::new("no-such-file"), 0).is_err());
    assert!(outside.read_from(Path::new("no-such-file"), 0).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn read_from_default_body_agrees_with_the_overrides(
        synced in prop::collection::vec(any::<u8>(), 0..40),
        buffered in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        read_from_agrees(SimFs::new(), Path::new("f"), &synced, &buffered);
        let path: PathBuf = std::env::temp_dir()
            .join(format!("tchimera-read-from-{}", std::process::id()));
        read_from_agrees(StdFs, &path, &synced, &buffered);
        std::fs::remove_file(&path).unwrap();
    }
}

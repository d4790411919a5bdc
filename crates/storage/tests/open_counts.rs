//! Opening from a snapshot loads; it does not re-derive or re-verify.
//!
//! Counted, not timed: after a checkpoint and a tail, `open_with` walks
//! no digest (`core.digest.walks`), builds no digest table
//! (`core.digest.builds`) and reindexes no object one by one
//! (`core.refindex.rebuilds` — the reverse-reference index is built in
//! bulk). The walk an open used to pay belongs to the scrubber: the first
//! `scrub_cycle()` makes it and is clean. A CRC-valid snapshot that
//! records the wrong digest therefore opens, and is caught and repaired
//! by that scrub through the ladder that was already there.
//!
//! The counters are process-global, so this file is a test binary of its
//! own and its tests take turns.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tchimera_core::{attrs, ClassDef, ClassId, Oid, Type, Value};
use tchimera_storage::{
    digest_database, load_snapshot, snapshot_path, write_snapshot, PersistentDatabase, SimFs, Vfs,
};

static TURN: Mutex<()> = Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn path() -> PathBuf {
    PathBuf::from("node.log")
}

fn open(fs: &SimFs) -> PersistentDatabase {
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    PersistentDatabase::open_with(vfs, &path()).expect("open")
}

fn counter(name: &str) -> u64 {
    tchimera_obs::snapshot().counter(name).unwrap_or(0)
}

const OBJECTS: u64 = 300;
const TAIL: usize = 40;

/// 300 employees that reference one another, three salary rounds, a
/// checkpoint, then a `TAIL`-operation tail of raises. Returns the digest
/// of the state that was closed.
fn checkpointed_with_tail(fs: &SimFs) -> u64 {
    let mut pdb = open(fs);
    pdb.define_class(
        ClassDef::new("emp")
            .attr("salary", Type::temporal(Type::INTEGER))
            .attr("boss", Type::temporal(Type::object("emp"))),
    )
    .unwrap();
    pdb.tick().unwrap();
    for i in 0..OBJECTS {
        let mut init = vec![("salary", Value::Int(i as i64))];
        if i > 0 {
            init.push(("boss", Value::Oid(Oid(i / 7))));
        }
        pdb.create_object(&ClassId::from("emp"), attrs(init))
            .unwrap();
    }
    for round in 1..=3 {
        pdb.tick().unwrap();
        for i in 0..OBJECTS {
            pdb.set_attr(Oid(i), &"salary".into(), Value::Int((i * round) as i64))
                .unwrap();
        }
    }
    pdb.checkpoint().unwrap();
    pdb.tick().unwrap();
    for i in 1..TAIL as u64 {
        pdb.set_attr(Oid(i), &"salary".into(), Value::Int(-1))
            .unwrap();
    }
    pdb.sync().unwrap();
    pdb.state_digest()
}

#[test]
fn a_snapshot_open_walks_nothing_and_the_first_scrub_does() {
    let _turn = turn();
    let fs = SimFs::new();
    let closed = checkpointed_with_tail(&fs);

    let (walks, builds, reindexed) = (
        counter("core.digest.walks"),
        counter("core.digest.builds"),
        counter("core.refindex.rebuilds"),
    );
    let mut pdb = open(&fs);
    assert_eq!(
        counter("core.digest.walks") - walks,
        0,
        "an open must not walk the state"
    );
    assert_eq!(
        counter("core.digest.builds") - builds,
        0,
        "an open must leave the digest cold"
    );
    assert_eq!(
        counter("core.refindex.rebuilds") - reindexed,
        0,
        "the reverse-reference index is built in bulk, not one object at a time"
    );
    assert!(pdb.recovered_from_snapshot());
    assert_eq!(pdb.recovered_replayed(), TAIL);

    // What was loaded is what was closed, derived structures included.
    assert_eq!(pdb.state_digest(), closed);
    assert_eq!(
        pdb.db().referrers_of(Oid(1)),
        (7..14).map(Oid).collect::<Vec<_>>()
    );
    let now = pdb.db().now();
    assert_eq!(
        pdb.db().pi(&ClassId::from("emp"), now).unwrap().len(),
        OBJECTS as usize
    );

    // The walk moved to the scrubber: its first cycle checks the snapshot
    // image against the recorded digest (and the live state against the
    // re-materialization), and finds nothing.
    let walks = counter("core.digest.walks");
    let report = pdb.scrub_cycle();
    assert!(
        report.clean(),
        "a healthy store must scrub clean: {report:?}"
    );
    assert_eq!(
        counter("core.digest.walks") - walks,
        3,
        "image, live state, re-materialization"
    );
}

#[test]
fn a_wrong_recorded_digest_opens_and_is_repaired_by_the_scrubber() {
    let _turn = turn();
    let fs = SimFs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let snap_path = snapshot_path(&path());
    let closed = checkpointed_with_tail(&fs);

    // Re-install the snapshot with one digest bit flipped *before* the
    // checksum is taken: every byte is as the writer meant it, the writer
    // was wrong.
    let snap = load_snapshot(&vfs, &snap_path).unwrap();
    let (covered, recorded) = (snap.ops_covered, snap.digest);
    write_snapshot(&vfs, &snap_path, &snap.state, covered, recorded ^ 1).unwrap();

    let mut pdb = open(&fs);
    assert!(
        pdb.recovered_from_snapshot(),
        "the CRC vouches for the bytes; the open trusts it"
    );
    assert_eq!(pdb.state_digest(), closed);

    let report = pdb.scrub_cycle();
    assert!(
        !report.snapshot_ok,
        "the scrubber must flag the digest: {report:?}"
    );
    assert!(!report.clean());
    assert!(
        report.checkpoint_repair,
        "a consistent live state supersedes it: {report:?}"
    );
    assert!(report.healthy_after());
    assert_eq!(
        pdb.state_digest(),
        closed,
        "the repair must not touch the state"
    );

    // The superseding snapshot records the right digest and the store
    // scrubs clean — now and after a restart.
    let fresh = load_snapshot(&vfs, &snap_path).unwrap();
    assert_eq!(fresh.digest, digest_database(pdb.db()));
    assert!(pdb.scrub_cycle().clean());
    drop(pdb);
    let mut pdb = open(&fs);
    assert_eq!(pdb.state_digest(), closed);
    assert!(pdb.scrub_cycle().clean());
}

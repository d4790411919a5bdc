//! The replication pump pays for what is new, not for what exists.
//!
//! Counted, not timed: after a warm-up pump, shipping one more write
//! decodes exactly one log record (`storage.log.scanned_ops`), ships
//! exactly one operation (`repl.ops.shipped`) and re-hashes a bounded
//! number of digest components (`core.digest.rehashed`, no
//! `core.digest.builds`) — at a 500-op log and at an 8 000-op log alike.
//! The events that invalidate the cursor's byte offset (a catch-up that
//! rewinds it, a checkpoint that replaces the log file, a restart of the
//! primary) each cost one bounded re-scan or one snapshot ship, after
//! which the cost is back to one per op. A primary stalled by damage
//! below its cursor decodes nothing per pump while it waits for repair.
//!
//! The counters are process-global, so this file is a test binary of its
//! own and its tests take turns.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tchimera_core::{attrs, ClassDef, ClassId, Oid, Type, Value};
use tchimera_storage::repl::{Primary, Replica, SimNetConfig, SimTransport};
use tchimera_storage::{PersistentDatabase, SimFs, TearMode, Vfs};

static TURN: Mutex<()> = Mutex::new(());

fn turn() -> std::sync::MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn open(fs: &SimFs) -> PersistentDatabase {
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    PersistentDatabase::open_with(vfs, &PathBuf::from("node.log")).expect("open")
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Counts {
    scanned: u64,
    shipped: u64,
    rescans: u64,
    snapshots: u64,
    rehashed: u64,
    builds: u64,
}

fn counts() -> Counts {
    let snap = tchimera_obs::snapshot();
    let c = |name| snap.counter(name).unwrap_or(0);
    Counts {
        scanned: c("storage.log.scanned_ops"),
        shipped: c("repl.ops.shipped"),
        rescans: c("repl.cursor.rescans"),
        snapshots: c("repl.snapshot.ships"),
        rehashed: c("core.digest.rehashed"),
        builds: c("core.digest.builds"),
    }
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, o: Counts) -> Counts {
        Counts {
            scanned: self.scanned - o.scanned,
            shipped: self.shipped - o.shipped,
            rescans: self.rescans - o.rescans,
            snapshots: self.snapshots - o.snapshots,
            rehashed: self.rehashed - o.rehashed,
            builds: self.builds - o.builds,
        }
    }
}

/// A primary whose log holds exactly `ops` records: a class, 20 objects,
/// then single-record salary updates (every tenth one a tick).
fn primary_with(fs: &SimFs, ops: usize) -> PersistentDatabase {
    let mut pdb = open(fs);
    pdb.define_class(ClassDef::new("emp").attr("salary", Type::temporal(Type::INTEGER)))
        .unwrap();
    for _ in 0..20 {
        pdb.create_object(&ClassId::from("emp"), attrs([("salary", Value::Int(0))]))
            .unwrap();
    }
    while pdb.op_count() < ops {
        one_write(&mut pdb);
    }
    pdb.sync().unwrap();
    assert_eq!(pdb.op_count(), ops);
    pdb
}

/// One logged operation.
fn one_write(pdb: &mut PersistentDatabase) {
    let n = pdb.op_count() as u64;
    if n % 10 == 0 {
        pdb.tick().unwrap();
    } else {
        pdb.set_attr(Oid(n % 20), &"salary".into(), Value::Int(n as i64))
            .unwrap();
    }
}

type Pair = (Primary<SimTransport>, Replica<SimTransport>);

/// One pump round; the follower must end level and healthy.
fn round((primary, replica): &mut Pair) {
    primary.pump().expect("primary pump");
    replica.pump().expect("replica pump");
    assert_eq!(replica.halted(), None);
    assert_eq!(
        replica.applied(),
        primary.db_ref().op_count() as u64,
        "follower not level"
    );
}

/// `k` rounds of one write each; returns what they cost.
fn single_write_rounds(pair: &mut Pair, k: u64) -> Counts {
    let before = counts();
    for _ in 0..k {
        one_write(pair.0.db());
        round(pair);
    }
    counts() - before
}

/// One write costs one decoded record, one shipped op and a handful of
/// re-hashed components on each node — whatever the log length.
fn assert_one_per_op(cost: Counts, k: u64, what: &str) {
    assert_eq!(cost.scanned, k, "{what}: records decoded for {k} writes");
    assert_eq!(cost.shipped, k, "{what}: ops shipped for {k} writes");
    assert_eq!(
        (cost.rescans, cost.snapshots, cost.builds),
        (0, 0, 0),
        "{what}: {cost:?}"
    );
    assert!(
        cost.rehashed <= 4 * k,
        "{what}: {} components re-hashed for {k} writes",
        cost.rehashed
    );
}

fn attach(pdb: PersistentDatabase, rfs: &SimFs, seed: u64) -> Pair {
    let (pt, rt) = SimTransport::pair(seed, SimNetConfig::clean());
    (Primary::new(pdb, 1, pt), Replica::new(open(rfs), rt))
}

#[test]
fn a_pump_round_costs_one_record_at_any_log_length() {
    let _turn = turn();
    for len in [500usize, 8_000] {
        let (pfs, rfs) = (SimFs::new(), SimFs::new());
        let mut pair = attach(primary_with(&pfs, len), &rfs, len as u64);
        // Warm-up: the first pump has no byte offset yet and ships the
        // whole log; both digest tables go cold → warm.
        let before = counts();
        round(&mut pair);
        let warm_up = counts() - before;
        assert_eq!(warm_up.scanned, len as u64, "warm-up scans the log once");
        assert_eq!(warm_up.shipped, len as u64);
        assert_eq!(warm_up.rescans, 1);
        assert_one_per_op(
            single_write_rounds(&mut pair, 25),
            25,
            &format!("{len}-op log"),
        );
        // An idle round (nothing new) decodes and ships nothing.
        let before = counts();
        round(&mut pair);
        let idle = counts() - before;
        assert_eq!((idle.scanned, idle.shipped, idle.rehashed), (0, 0, 0));
        assert_eq!(
            pair.1.db_ref().state_digest(),
            pair.0.db_ref().state_digest(),
            "follower diverged at {len} ops"
        );
    }
}

#[test]
fn a_catch_up_below_the_cursor_costs_one_bounded_rescan() {
    let _turn = turn();
    let (pfs, rfs) = (SimFs::new(), SimFs::new());
    let mut pair = attach(primary_with(&pfs, 500), &rfs, 7);
    round(&mut pair);
    pair.1.sync().unwrap();
    // Ten more ops reach the follower but are never synced there; a crash
    // of the follower loses them, so it comes back below the cursor.
    single_write_rounds(&mut pair, 10);
    let (primary, replica) = pair;
    let (old, _, rt) = replica.into_parts();
    drop(old);
    rfs.crash(TearMode::DropAll);
    let mut pair = (primary, Replica::new(open(&rfs), rt));
    assert_eq!(pair.1.applied(), 500);

    let before = counts();
    // Round 1: the heartbeat tells the follower it is behind → CatchUp.
    pair.0.pump().unwrap();
    pair.1.pump().unwrap();
    // Round 2: the rewound cursor has no byte offset → one scan from the
    // header, and exactly the missing ten ops are shipped again.
    round(&mut pair);
    let repair = counts() - before;
    assert_eq!(repair.rescans, 1, "{repair:?}");
    assert_eq!(repair.scanned, 510, "one re-scan of the whole log, no more");
    assert_eq!(repair.shipped, 10);
    assert_eq!(repair.snapshots, 0);

    assert_one_per_op(single_write_rounds(&mut pair, 10), 10, "after the catch-up");
    assert_eq!(
        pair.1.db_ref().state_digest(),
        pair.0.db_ref().state_digest()
    );
}

#[test]
fn a_primary_stalled_by_damage_below_its_cursor_decodes_nothing_per_pump() {
    let _turn = turn();
    let (pfs, rfs) = (SimFs::new(), SimFs::new());
    let mut pair = attach(primary_with(&pfs, 500), &rfs, 17);
    round(&mut pair);
    pair.1.sync().unwrap();
    // As above, the follower loses ten unsynced ops in a crash — and a bit
    // rots in the middle of the primary's log, below what it has shipped.
    single_write_rounds(&mut pair, 10);
    let (primary, replica) = pair;
    let (old, _, rt) = replica.into_parts();
    drop(old);
    rfs.crash(TearMode::DropAll);
    let mut pair = (primary, Replica::new(open(&rfs), rt));
    let path = PathBuf::from("node.log");
    let len = pfs.contents(&path).expect("log exists").len();
    pfs.corrupt_byte(&path, len / 2, 0x10).expect("corrupt");

    // Round 1: heartbeat → CatchUp from 500. Round 2: the scan from the
    // header stops at the damage, short of the 500 records shipped before:
    // nothing can be shipped, and nothing is skipped.
    pair.0.pump().unwrap();
    pair.1.pump().unwrap();
    let before = counts();
    pair.0.pump().unwrap();
    pair.1.pump().unwrap();
    let found = counts() - before;
    assert_eq!((found.rescans, found.shipped), (1, 0), "{found:?}");
    assert!(0 < found.scanned && found.scanned < 500, "{found:?}");

    // Stalled: writes keep coming, the follower keeps asking, and each
    // pump reads on from the damage — no record decoded, no re-scan.
    let before = counts();
    for _ in 0..10 {
        one_write(pair.0.db());
        pair.0.pump().unwrap();
        pair.1.pump().unwrap();
        assert_eq!((pair.1.applied(), pair.1.halted()), (500, None));
    }
    let stalled = counts() - before;
    assert_eq!(
        (stalled.rescans, stalled.scanned, stalled.shipped, stalled.snapshots),
        (0, 0, 0, 0),
        "{stalled:?}"
    );

    // Repair: the scrubber re-checkpoints the live state over the damaged
    // history; the follower is below the new horizon and gets the image.
    let report = pair.0.db().scrub_cycle();
    assert!(report.log_damage > 0 && report.checkpoint_repair, "{report:?}");
    let before = counts();
    round(&mut pair);
    let repair = counts() - before;
    assert_eq!((repair.snapshots, repair.shipped), (1, 0), "{repair:?}");
    one_write(pair.0.db());
    round(&mut pair);
    assert_one_per_op(single_write_rounds(&mut pair, 10), 10, "after the repair");
    assert_eq!(
        pair.1.db_ref().state_digest(),
        pair.0.db_ref().state_digest()
    );
}

#[test]
fn a_checkpoint_costs_one_rescan_or_one_snapshot_ship() {
    let _turn = turn();
    let (pfs, rfs) = (SimFs::new(), SimFs::new());
    let mut pair = attach(primary_with(&pfs, 500), &rfs, 11);
    round(&mut pair);

    // Follower level at the checkpoint: the compacted log is re-scanned
    // from its header once — it holds no records yet.
    pair.0.db().checkpoint().unwrap();
    let before = counts();
    round(&mut pair);
    let after_ckpt = counts() - before;
    assert_eq!(
        (after_ckpt.rescans, after_ckpt.scanned, after_ckpt.shipped),
        (1, 0, 0)
    );
    assert_eq!(after_ckpt.snapshots, 0);
    assert_one_per_op(
        single_write_rounds(&mut pair, 10),
        10,
        "after a level checkpoint",
    );

    // Follower behind the checkpoint: what it lacks was compacted away,
    // so one state image is shipped instead of records.
    for _ in 0..5 {
        one_write(pair.0.db());
    }
    pair.0.db().checkpoint().unwrap();
    let before = counts();
    round(&mut pair);
    let shipped_image = counts() - before;
    assert_eq!(
        (shipped_image.snapshots, shipped_image.shipped),
        (1, 0),
        "{shipped_image:?}"
    );
    // The first round after the image finds the cursor's offset again.
    let before = counts();
    one_write(pair.0.db());
    round(&mut pair);
    let refind = counts() - before;
    assert_eq!((refind.rescans, refind.scanned, refind.shipped), (1, 1, 1));
    assert_one_per_op(
        single_write_rounds(&mut pair, 10),
        10,
        "after a snapshot ship",
    );
    assert_eq!(
        pair.1.db_ref().state_digest(),
        pair.0.db_ref().state_digest()
    );
}

#[test]
fn a_restarted_primary_converges_from_cursor_zero() {
    let _turn = turn();
    let (pfs, rfs) = (SimFs::new(), SimFs::new());
    let mut pair = attach(primary_with(&pfs, 500), &rfs, 13);
    round(&mut pair);
    single_write_rounds(&mut pair, 10);
    // Crash the primary with three acknowledged-nowhere writes buffered:
    // they were never pumped, so never synced, and the crash drops them.
    for _ in 0..3 {
        one_write(pair.0.db());
    }
    let (primary, mut replica) = pair;
    let (old, term, pt) = primary.into_parts();
    drop(old);
    pfs.crash(TearMode::DropAll);
    let pdb = open(&pfs);
    assert_eq!(
        pdb.op_count(),
        510,
        "everything that was shipped had been synced first"
    );
    let mut primary = Primary::new(pdb, term, pt);

    // A fresh `Primary` starts at cursor 0 with no offset: it re-ships
    // the log once (the follower skips what it has) and is incremental
    // again from the next write on.
    let before = counts();
    primary.pump().unwrap();
    replica.pump().unwrap();
    let restart = counts() - before;
    assert_eq!((restart.rescans, restart.snapshots), (1, 0));
    assert_eq!(replica.halted(), None);
    assert_eq!(replica.applied(), 510);
    let mut pair = (primary, replica);
    assert_one_per_op(
        single_write_rounds(&mut pair, 10),
        10,
        "after a primary restart",
    );
    assert_eq!(
        pair.1.db_ref().state_digest(),
        pair.0.db_ref().state_digest()
    );
}

//! The replication pump pays for what is new, not for what exists, and
//! handles each shipped record as bytes until the replica applies it.
//!
//! Counted, not timed: after a warm-up pump, a round of `k` single-record
//! writes decodes no log record on the primary and exactly `k` on the
//! replica (`storage.log.scanned_ops`, read around each node's pump),
//! encodes no operation on either node (a thread-local count under the
//! `testing` feature), ships exactly `k` operations (`repl.ops.shipped`)
//! and re-hashes a bounded number of digest components
//! (`core.digest.rehashed`, no `core.digest.builds`) — at a 500-op log
//! and at an 8 000-op log alike. The primary walks its log from the
//! cursor's byte offset and ships slices of it; the replica walks, decodes
//! and applies each record once and appends the bytes it was sent. The
//! events that invalidate the cursor's byte offset (a catch-up that
//! rewinds it, a checkpoint that replaces the log file, a restart of the
//! primary) each cost one bounded re-walk or one ship of the log from
//! byte 0, after which the cost is back to one per op. A primary stalled by damage
//! below its cursor ships nothing per pump while it waits for repair.
//!
//! The counters are process-global, so this file is a test binary of its
//! own and its tests take turns.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tchimera_core::{attrs, ClassDef, ClassId, Oid, Type, Value};
use tchimera_storage::op::encodes_on_this_thread;
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

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Counts {
    /// Log records decoded.
    scanned: u64,
    /// Operations encoded on this thread.
    encodes: u64,
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
        encodes: encodes_on_this_thread(),
        shipped: c("repl.ops.shipped"),
        rescans: c("repl.cursor.rescans"),
        snapshots: c("repl.snapshot.ships"),
        rehashed: c("core.digest.rehashed"),
        builds: c("core.digest.builds"),
    }
}

impl Counts {
    fn zip(self, o: Counts, f: impl Fn(u64, u64) -> u64) -> Counts {
        Counts {
            scanned: f(self.scanned, o.scanned),
            encodes: f(self.encodes, o.encodes),
            shipped: f(self.shipped, o.shipped),
            rescans: f(self.rescans, o.rescans),
            snapshots: f(self.snapshots, o.snapshots),
            rehashed: f(self.rehashed, o.rehashed),
            builds: f(self.builds, o.builds),
        }
    }
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, o: Counts) -> Counts {
        self.zip(o, |a, b| a - b)
    }
}

impl std::ops::Add for Counts {
    type Output = Counts;
    fn add(self, o: Counts) -> Counts {
        self.zip(o, |a, b| a + b)
    }
}

/// What pump rounds cost each node.
#[derive(Clone, Copy, Debug, Default)]
struct Cost {
    primary: Counts,
    replica: Counts,
}

impl Cost {
    fn both(self) -> Counts {
        self.primary + self.replica
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

/// One pump round, each node's pump counted on its own; the follower
/// must end level and healthy.
fn round((primary, replica): &mut Pair) -> Cost {
    let before = counts();
    primary.pump().expect("primary pump");
    let between = counts();
    replica.pump().expect("replica pump");
    let after = counts();
    assert_eq!(replica.halted(), None);
    assert_eq!(
        replica.applied(),
        primary.db_ref().op_count() as u64,
        "follower not level"
    );
    Cost {
        primary: between - before,
        replica: after - between,
    }
}

/// `k` rounds of one write each; returns what the rounds cost (the
/// writes themselves, which encode and log one record each, are not
/// counted).
fn single_write_rounds(pair: &mut Pair, k: u64) -> Cost {
    let mut cost = Cost::default();
    for _ in 0..k {
        one_write(pair.0.db());
        let c = round(pair);
        cost = Cost {
            primary: cost.primary + c.primary,
            replica: cost.replica + c.replica,
        };
    }
    cost
}

/// A round of `k` writes: the primary decodes nothing and ships `k` ops,
/// the replica decodes exactly `k`, neither encodes an operation, and
/// each re-hashes a handful of components — whatever the log length.
fn assert_one_per_op(cost: Cost, k: u64, what: &str) {
    assert_eq!(
        cost.primary.scanned, 0,
        "{what}: records the primary decoded"
    );
    assert_eq!(
        cost.replica.scanned, k,
        "{what}: records the replica decoded for {k} writes"
    );
    assert_eq!(cost.both().encodes, 0, "{what}: operations re-encoded");
    assert_eq!(
        cost.primary.shipped, k,
        "{what}: ops shipped for {k} writes"
    );
    let both = cost.both();
    assert_eq!(
        (both.rescans, both.snapshots, both.builds),
        (0, 0, 0),
        "{what}: {cost:?}"
    );
    assert!(
        both.rehashed <= 4 * k,
        "{what}: {} components re-hashed for {k} writes",
        both.rehashed
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
        // whole log, walked once and decoded by the replica alone; both
        // digest tables go cold → warm.
        let warm_up = round(&mut pair);
        assert_eq!(
            warm_up.primary.scanned, 0,
            "the primary walks, it does not decode"
        );
        assert_eq!(
            warm_up.replica.scanned, len as u64,
            "the replica decodes each record once"
        );
        assert_eq!(warm_up.both().encodes, 0);
        assert_eq!(warm_up.primary.shipped, len as u64);
        assert_eq!(warm_up.primary.rescans, 1);
        assert_one_per_op(
            single_write_rounds(&mut pair, 25),
            25,
            &format!("{len}-op log"),
        );
        // An idle round (nothing new) decodes and ships nothing.
        let idle = round(&mut pair).both();
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
    // Round 2: the rewound cursor has no byte offset → one walk from the
    // header, and exactly the missing ten ops are shipped again and
    // decoded once, by the replica.
    round(&mut pair);
    let repair = counts() - before;
    assert_eq!(repair.rescans, 1, "{repair:?}");
    assert_eq!(
        repair.scanned, 10,
        "the re-walk decodes nothing; the replica the ten"
    );
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

    // Round 1: heartbeat → CatchUp from 500. Round 2: the walk from the
    // header stops at the damage, short of the 500 records shipped before:
    // nothing can be shipped, and nothing is skipped.
    pair.0.pump().unwrap();
    pair.1.pump().unwrap();
    let damaged = || {
        tchimera_obs::snapshot()
            .counter("storage.log.scan.damaged")
            .unwrap_or(0)
    };
    let (before, damaged_before) = (counts(), damaged());
    pair.0.pump().unwrap();
    pair.1.pump().unwrap();
    let found = counts() - before;
    assert_eq!(
        (found.rescans, found.shipped, found.scanned),
        (1, 0, 0),
        "{found:?}"
    );
    assert_eq!(
        damaged() - damaged_before,
        1,
        "the walk reports the damage it stopped at"
    );

    // Stalled: writes keep coming, the follower keeps asking, and each
    // pump reads on from the damage — nothing shipped, no re-walk.
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
    let repair = round(&mut pair).both();
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
fn a_checkpoint_costs_one_rescan_or_one_whole_log_ship() {
    let _turn = turn();
    let (pfs, rfs) = (SimFs::new(), SimFs::new());
    let mut pair = attach(primary_with(&pfs, 500), &rfs, 11);
    round(&mut pair);

    // Follower level at the checkpoint: the compacted log is re-walked
    // from its header once — it holds no records yet.
    pair.0.db().checkpoint().unwrap();
    let after_ckpt = round(&mut pair).both();
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
    // so the log is shipped from byte 0 — its image, no op record yet.
    for _ in 0..5 {
        one_write(pair.0.db());
    }
    pair.0.db().checkpoint().unwrap();
    let shipped_image = round(&mut pair).both();
    assert_eq!(
        (shipped_image.snapshots, shipped_image.shipped),
        (1, 0),
        "{shipped_image:?}"
    );
    // That shipment walked the new log: the first round after it reads on
    // from the cursor's offset, with no re-walk.
    one_write(pair.0.db());
    let refind = round(&mut pair);
    assert_eq!((refind.primary.rescans, refind.primary.scanned), (0, 0));
    assert_eq!((refind.primary.shipped, refind.replica.scanned), (1, 1));
    assert_one_per_op(
        single_write_rounds(&mut pair, 10),
        10,
        "after a whole-log ship",
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

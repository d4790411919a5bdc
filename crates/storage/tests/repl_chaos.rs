//! Replication chaos harness: the SimTransport fault matrix crossed with
//! SimFs crashes of either node, plus mid-stream promotion.
//!
//! Method: drive a seeded transactional workload on the primary while
//! pumping both ends of a fault-injected link, recording the primary's
//! state digest after **every committed transaction** (the set of
//! committed-txn boundary states). The invariants, checked throughout:
//!
//! * any node recovered from a crash (any tear mode) folds back to
//!   *some* committed-txn boundary digest, with a clean `check_database`;
//! * once the link quiesces, the replica's digest equals the primary's
//!   — byte-identical convergence despite drops, duplicates, reordering,
//!   delays, corruption, partitions, compaction-forced snapshot
//!   catch-up, and crashes of either side;
//! * after a mid-stream `promote()`, exactly one node accepts writes:
//!   the old primary hears the bumped term and every write on it fails
//!   with `EngineError::ReadOnly`.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tchimera_core::{attrs, Attrs, ClassDef, ClassId, Instant, Oid, Type, Value};
use tchimera_storage::log::crc32;
use tchimera_storage::repl::{Frame, Primary, Replica, SimNetConfig, SimTransport, Transport};
use tchimera_storage::{EngineError, PersistentDatabase, SimFs, TearMode, Vfs};

const SEED: u64 = 0x09E9_1CA7;
const TXNS: usize = 30;
const PARTITION_ON: usize = 8;
const CHECKPOINT_AT: usize = 12;
const PARTITION_OFF: usize = 14;
const CRASH_AT: usize = 20;

fn person() -> ClassId {
    ClassId::from("person")
}
fn employee() -> ClassId {
    ClassId::from("employee")
}

fn open(fs: &SimFs) -> PersistentDatabase {
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    PersistentDatabase::open_with(vfs, &PathBuf::from("node.log")).expect("open")
}

fn schema_txn(pdb: &mut PersistentDatabase) {
    pdb.txn(|t| {
        t.define_class(
            ClassDef::new("person")
                .attr("address", Type::STRING)
                .attr("friend", Type::temporal(Type::object("person"))),
        )?;
        t.define_class(
            ClassDef::new("employee")
                .isa("person")
                .attr("salary", Type::temporal(Type::INTEGER)),
        )?;
        t.advance_to(Instant(1))?;
        Ok(())
    })
    .expect("schema txn");
}

/// Alive oids partitioned by current class — (employees, everyone) —
/// recomputed from the live primary state after each commit so the drive
/// sequence is a pure function of committed history.
fn alive(pdb: &PersistentDatabase) -> (Vec<Oid>, Vec<Oid>) {
    let now = pdb.db().now();
    let mut emp = Vec::new();
    let mut all = Vec::new();
    for o in pdb.db().objects() {
        if !o.lifespan.is_alive() {
            continue;
        }
        match o.current_class(now) {
            Some(c) if *c == employee() => {
                emp.push(o.oid);
                all.push(o.oid);
            }
            Some(c) if *c == person() => all.push(o.oid),
            _ => {}
        }
    }
    emp.sort();
    all.sort();
    (emp, all)
}

/// Commit one seeded transaction on the primary.
fn drive_txn(pdb: &mut PersistentDatabase, rng: &mut StdRng, i: usize) {
    let (emp, pop) = alive(pdb);
    let kind = rng.gen_range(0..5u32);
    let r = match kind {
        1 if !emp.is_empty() => {
            let oid = emp[rng.gen_range(0..emp.len())];
            let raise = rng.gen_range(1..40i64);
            pdb.txn(move |t| {
                t.tick()?;
                let cur = match t.db().attr_now(oid, &"salary".into()) {
                    Ok(Value::Int(v)) => v,
                    _ => 0,
                };
                t.set_attr(oid, &"salary".into(), Value::Int(cur + raise))
            })
        }
        2 if !emp.is_empty() => {
            let oid = emp[rng.gen_range(0..emp.len())];
            pdb.txn(move |t| {
                t.tick()?;
                t.migrate(oid, &person(), Attrs::new())?;
                t.set_attr(oid, &"address".into(), Value::str("Genova"))
            })
        }
        3 => pdb.txn(|t| {
            let a = t.create_object(
                &person(),
                attrs([("address", Value::str("Pisa")), ("friend", Value::Null)]),
            )?;
            let b = t.create_object(
                &person(),
                attrs([("address", Value::str("Lucca")), ("friend", Value::Oid(a))]),
            )?;
            t.set_attr(a, &"friend".into(), Value::Oid(b))
        }),
        4 if pop.len() > 4 => {
            let victim = pop[rng.gen_range(0..pop.len())];
            pdb.txn(move |t| {
                t.tick()?;
                for r in t.db().referrers_of(victim) {
                    if r == victim {
                        continue;
                    }
                    if t.db().object(r).map(|o| o.lifespan.is_alive()) == Ok(true) {
                        t.set_attr(r, &"friend".into(), Value::Null)?;
                    }
                }
                t.terminate_object(victim)
            })
        }
        _ => pdb.txn(|t| {
            t.tick()?;
            t.create_object(
                &employee(),
                attrs([
                    ("salary", Value::Int(100 + i as i64)),
                    ("address", Value::str("Milano")),
                    ("friend", Value::Null),
                ]),
            )
            .map(|_| ())
        }),
    };
    r.expect("seeded txn rejected by the model");
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum CrashSide {
    None,
    Primary,
    Replica,
}

/// One full scenario: workload + partition window + compaction-forced
/// snapshot catch-up + optional node crash, then quiesce and compare.
fn scenario(net: SimNetConfig, seed: u64, crash: CrashSide, tear: TearMode) {
    let snapshot_ships_before = tchimera_obs::snapshot()
        .counter("repl.snapshot.ships")
        .unwrap_or(0);

    let pfs = SimFs::new();
    let rfs = SimFs::new();
    let (pt, rt) = SimTransport::pair(seed, net);
    let link = pt.clone();
    let mut pdb = open(&pfs);
    schema_txn(&mut pdb);
    let mut primary = Primary::new(pdb, 1, pt);
    let mut replica = Replica::new(open(&rfs), rt);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut boundaries: HashSet<u64> = HashSet::new();
    boundaries.insert(primary.db_ref().state_digest());

    for i in 0..TXNS {
        drive_txn(primary.db(), &mut rng, i);
        boundaries.insert(primary.db_ref().state_digest());

        if i == PARTITION_ON {
            link.set_partitioned(true);
        }
        if i == CHECKPOINT_AT {
            // Compact the primary's log while the replica cannot hear it:
            // when the link heals, the replica's resume point is below
            // the compaction horizon and catch-up must go via a full
            // state image.
            primary.db().checkpoint().expect("checkpoint");
        }
        if i == PARTITION_OFF {
            link.set_partitioned(false);
        }

        primary.pump().expect("primary pump");
        replica.pump().expect("replica pump");
        if i % 3 == 2 {
            replica.sync().expect("replica sync");
        }

        if i == CRASH_AT && crash != CrashSide::None {
            match crash {
                CrashSide::Primary => {
                    let (old, term, t) = primary.into_parts();
                    drop(old);
                    pfs.crash(tear);
                    let pdb = open(&pfs);
                    assert!(
                        boundaries.contains(&pdb.state_digest()),
                        "recovered primary ({net:?}, {tear:?}) is not at a \
                         committed-txn boundary"
                    );
                    assert!(pdb.db().check_database().is_consistent());
                    primary = Primary::new(pdb, term, t);
                }
                CrashSide::Replica => {
                    let (old, _, t) = replica.into_parts();
                    drop(old);
                    rfs.crash(tear);
                    let pdb = open(&rfs);
                    assert!(
                        boundaries.contains(&pdb.state_digest()),
                        "recovered replica ({net:?}, {tear:?}) is not at a \
                         committed-txn boundary"
                    );
                    assert!(pdb.db().check_database().is_consistent());
                    replica = Replica::new(pdb, t);
                }
                CrashSide::None => unreachable!(),
            }
        }
    }

    // Quiesce: keep pumping until the replica has the full prefix. Every
    // transport fault is repairable, so this must converge.
    for _ in 0..500 {
        primary.pump().expect("primary pump");
        replica.pump().expect("replica pump");
        if replica.halted().is_none()
            && replica.applied() == primary.db_ref().op_count() as u64
            && replica.lag() == 0
        {
            break;
        }
    }

    assert_eq!(
        replica.halted(),
        None,
        "replica halted under ({net:?}, {crash:?}, {tear:?})"
    );
    assert_eq!(
        replica.applied(),
        primary.db_ref().op_count() as u64,
        "replica never converged under ({net:?}, {crash:?}, {tear:?})"
    );
    assert_eq!(
        replica.db_ref().state_digest(),
        primary.db_ref().state_digest(),
        "converged replica diverges from primary under ({net:?}, {crash:?}, {tear:?})"
    );
    assert!(boundaries.contains(&replica.db_ref().state_digest()));
    assert!(primary.database().check_database().is_consistent());
    assert!(replica.db_ref().db().check_database().is_consistent());

    // The partition + checkpoint window must actually have exercised the
    // snapshot catch-up path.
    let snapshot_ships_after = tchimera_obs::snapshot()
        .counter("repl.snapshot.ships")
        .unwrap_or(0);
    assert!(
        snapshot_ships_after > snapshot_ships_before,
        "scenario never shipped a snapshot image ({net:?}, {crash:?}, {tear:?})"
    );
}

fn configs() -> Vec<(&'static str, SimNetConfig)> {
    vec![
        ("clean", SimNetConfig::clean()),
        (
            "drops",
            SimNetConfig { drop_pct: 25, ..SimNetConfig::clean() },
        ),
        (
            "dup-reorder",
            SimNetConfig {
                dup_pct: 20,
                reorder_pct: 25,
                ..SimNetConfig::clean()
            },
        ),
        ("hostile", SimNetConfig::hostile()),
    ]
}

#[test]
fn fault_matrix_converges_without_crashes() {
    for (k, (_, net)) in configs().into_iter().enumerate() {
        scenario(net, SEED ^ k as u64, CrashSide::None, TearMode::DropAll);
    }
}

#[test]
fn fault_matrix_with_primary_crashes() {
    for (k, (_, net)) in configs().into_iter().enumerate() {
        for (j, tear) in [TearMode::DropAll, TearMode::KeepHalf, TearMode::KeepAll]
            .into_iter()
            .enumerate()
        {
            scenario(
                net,
                SEED ^ (k as u64) << 8 ^ j as u64,
                CrashSide::Primary,
                tear,
            );
        }
    }
}

#[test]
fn fault_matrix_with_replica_crashes() {
    for (k, (_, net)) in configs().into_iter().enumerate() {
        for (j, tear) in [TearMode::DropAll, TearMode::KeepHalf, TearMode::KeepAll]
            .into_iter()
            .enumerate()
        {
            scenario(
                net,
                SEED ^ (k as u64) << 16 ^ j as u64,
                CrashSide::Replica,
                tear,
            );
        }
    }
}

/// Mid-stream failover: partition the link, keep writing on the old
/// primary, promote the replica, heal — exactly one node stays writable.
#[test]
fn promote_mid_stream_leaves_exactly_one_writable() {
    for (k, (name, net)) in configs().into_iter().enumerate() {
        let pfs = SimFs::new();
        let rfs = SimFs::new();
        let (pt, rt) = SimTransport::pair(SEED ^ 0xF0 ^ k as u64, net);
        let link = pt.clone();
        let mut pdb = open(&pfs);
        schema_txn(&mut pdb);
        let mut old_primary = Primary::new(pdb, 1, pt);
        let mut replica = Replica::new(open(&rfs), rt);

        let mut rng = StdRng::seed_from_u64(SEED ^ k as u64);
        let mut boundaries: HashSet<u64> = HashSet::new();
        boundaries.insert(old_primary.db_ref().state_digest());
        for i in 0..15 {
            drive_txn(old_primary.db(), &mut rng, i);
            boundaries.insert(old_primary.db_ref().state_digest());
            old_primary.pump().expect("primary pump");
            replica.pump().expect("replica pump");
        }
        // Let in-flight frames drain so the replica holds a full prefix.
        for _ in 0..200 {
            old_primary.pump().expect("primary pump");
            replica.pump().expect("replica pump");
            if replica.lag() == 0 {
                break;
            }
        }

        // The primary is cut off but keeps committing locally — those
        // writes are about to be stranded on the losing side of the
        // failover.
        link.set_partitioned(true);
        for i in 15..18 {
            drive_txn(old_primary.db(), &mut rng, i);
        }

        // Promote at a committed-txn boundary (every replicated record is
        // one committed operation, so any quiescent point qualifies).
        let promoted_digest = replica.db_ref().state_digest();
        assert!(
            boundaries.contains(&promoted_digest),
            "[{name}] promoted state is not a committed-txn boundary"
        );
        let mut new_primary = replica.promote().expect("promote");
        assert_eq!(new_primary.term(), 2);

        // The new primary accepts writes immediately.
        new_primary.db().txn(|t| t.tick().map(|_| ())).expect("write on new primary");

        // Heal the link: the old primary hears term 2 and deposes itself
        // (under a lossy link the bumped term may need several pumps to
        // get through — like every repair in the protocol).
        link.set_partitioned(false);
        let mut deposed = false;
        for _ in 0..200 {
            new_primary.pump().expect("new primary pump");
            let shipped = old_primary.pump().expect("old primary pump");
            if !shipped {
                deposed = true;
                break;
            }
        }
        assert!(deposed, "[{name}] deposed primary must stop shipping");
        assert!(old_primary.is_deposed());
        match old_primary.db().txn(|t| t.tick().map(|_| ())) {
            Err(EngineError::ReadOnly { .. }) => {}
            other => panic!(
                "[{name}] old primary write after failover: expected ReadOnly, got {other:?}"
            ),
        }
        // And stays read-only on repeat attempts.
        match old_primary.db().tick() {
            Err(EngineError::ReadOnly { .. }) => {}
            other => panic!("[{name}] expected ReadOnly, got {other:?}"),
        }

        // Exactly one writable node; both serve consistent reads.
        new_primary.db().txn(|t| t.tick().map(|_| ())).expect("write on new primary");
        assert!(new_primary.database().check_database().is_consistent());
        assert!(old_primary.database().check_database().is_consistent());
    }
}

/// Bounded staleness: a replica refuses reads beyond the caller's lag
/// bound and serves them again once caught up.
#[test]
fn read_view_enforces_bounded_staleness() {
    let pfs = SimFs::new();
    let rfs = SimFs::new();
    let (pt, rt) = SimTransport::pair(SEED, SimNetConfig::clean());
    let link = pt.clone();
    let mut pdb = open(&pfs);
    schema_txn(&mut pdb);
    let mut primary = Primary::new(pdb, 1, pt);
    let mut replica = Replica::new(open(&rfs), rt);
    let mut rng = StdRng::seed_from_u64(SEED);

    for i in 0..5 {
        drive_txn(primary.db(), &mut rng, i);
        primary.pump().unwrap();
        replica.pump().unwrap();
    }
    assert_eq!(replica.lag(), 0);
    assert!(replica.read_view(0).is_ok(), "aligned replica must serve");

    // Cut the link; the primary commits on alone. The replica learns the
    // head it is missing from nothing — until one heartbeat gets through.
    link.set_partitioned(true);
    for i in 5..9 {
        drive_txn(primary.db(), &mut rng, i);
        primary.pump().unwrap();
    }
    link.set_partitioned(false);
    primary.pump().unwrap();
    replica.pump().unwrap();
    // The heartbeat advertised a head the replica does not have yet
    // (batches shipped into the partition were dropped): reads beyond
    // the bound are refused, looser bounds still answer.
    if replica.lag() > 0 {
        let lag = replica.lag();
        match replica.read_view(0) {
            Err(tchimera_storage::ReplicaError::TooStale { lag: l, max_lag: 0 }) => {
                assert_eq!(l, lag)
            }
            Err(e) => panic!("expected TooStale, got {e:?}"),
            Ok(_) => panic!("stale replica served a bounded read"),
        }
        assert!(replica.read_view(lag).is_ok());
    }
    // Catch-up repairs the gap and tight reads come back.
    for _ in 0..100 {
        primary.pump().unwrap();
        replica.pump().unwrap();
        if replica.lag() == 0 {
            break;
        }
    }
    assert_eq!(replica.lag(), 0);
    assert!(replica.read_view(0).is_ok());
    assert_eq!(
        replica.db_ref().state_digest(),
        primary.db_ref().state_digest()
    );
}

/// A primary-side transport that checks what is shipped for gaps: every
/// `Batch` must start at or below the highest op index shipped so far
/// (re-sends are fine, a jump is not), and only a `Snapshot` may move
/// that mark without shipping the records in between.
struct NoGaps {
    inner: SimTransport,
    shipped_to: u64,
}

impl Transport for NoGaps {
    fn send(&mut self, frame: Vec<u8>) {
        match Frame::from_wire(&frame).expect("the primary sends well-formed frames") {
            Frame::Batch { start, count, .. } => {
                assert!(
                    start <= self.shipped_to,
                    "ops {}..{start} were never shipped: the cursor skipped them",
                    self.shipped_to
                );
                self.shipped_to = self.shipped_to.max(start + count);
            }
            Frame::Snapshot { ops_covered, .. } => {
                self.shipped_to = self.shipped_to.max(ops_covered);
            }
            _ => {}
        }
        self.inner.send(frame);
    }
    fn recv(&mut self) -> Option<Vec<u8>> {
        self.inner.recv()
    }
    fn tick(&mut self) {
        self.inner.tick();
    }
}

/// Regression: a log scan that comes back short (damaged tail) must stall
/// the shipping cursor at the damage, not carry it to the primary's op
/// count — the ops between would never be shipped, and only a later
/// heartbeat-triggered catch-up would notice. After the primary's scrubber
/// supersedes the damaged history the pair converges digest-equal.
#[test]
fn damaged_primary_log_tail_never_makes_the_cursor_skip() {
    let (pfs, rfs) = (SimFs::new(), SimFs::new());
    let (pt, rt) = SimTransport::pair(SEED ^ 0xDA, SimNetConfig::clean());
    let mut pdb = open(&pfs);
    schema_txn(&mut pdb);
    let mut primary = Primary::new(pdb, 1, NoGaps { inner: pt, shipped_to: 0 });
    let mut replica = Replica::new(open(&rfs), rt);
    let mut rng = StdRng::seed_from_u64(SEED);
    for i in 0..6 {
        drive_txn(primary.db(), &mut rng, i);
        primary.pump().expect("primary pump");
        replica.pump().expect("replica pump");
    }
    let level = primary.db_ref().op_count() as u64;
    assert_eq!(replica.applied(), level);

    // Three more records, then a bit flips in the last one before the
    // next pump reads it: the scan decodes two and stops.
    for _ in 0..3 {
        primary.db().tick().expect("tick");
    }
    let path = PathBuf::from("node.log");
    let len = pfs.contents(&path).expect("log exists").len();
    pfs.corrupt_byte(&path, len - 2, 0x10).expect("corrupt");
    primary.pump().expect("primary pump");
    replica.pump().expect("replica pump");
    assert_eq!(replica.applied(), level + 2, "the decodable prefix is shipped");
    assert_eq!(replica.halted(), None, "a short shipment must not carry the head's digest");

    // Writes keep coming; nothing past the damage can be shipped, and
    // nothing is skipped to get at it (`NoGaps` would panic).
    for i in 6..9 {
        drive_txn(primary.db(), &mut rng, i);
        primary.pump().expect("primary pump");
        replica.pump().expect("replica pump");
        assert_eq!(replica.applied(), level + 2);
        assert_eq!(replica.halted(), None);
    }

    // Repair: the scrubber finds the damaged record and re-checkpoints the
    // (healthy) live state over it; the follower's resume point is now
    // below the compaction horizon, so it gets the state image.
    let report = primary.db().scrub_cycle();
    assert!(report.log_damage > 0 && report.checkpoint_repair, "{report:?}");
    for i in 9..12 {
        primary.pump().expect("primary pump");
        replica.pump().expect("replica pump");
        assert_eq!(replica.halted(), None);
        assert_eq!(replica.applied(), primary.db_ref().op_count() as u64);
        assert_eq!(replica.db_ref().state_digest(), primary.db_ref().state_digest());
        drive_txn(primary.db(), &mut rng, i);
    }
    assert!(replica.db_ref().db().check_database().is_consistent());
}

/// Rewrite the last record of `path` on `fs` in place into one whose CRC
/// is valid but whose payload is no operation (an unknown tag): damage a
/// checksum cannot see, such as a buggy encoder's. Returns its offset.
fn make_last_record_undecodable(fs: &SimFs, path: &std::path::Path) -> usize {
    let log = fs.contents(path).expect("log exists");
    let mut at = 0;
    let mut next = 0;
    while next < log.len() {
        at = next;
        let len = u32::from_le_bytes(log[next..next + 4].try_into().unwrap()) as usize;
        next += 8 + len;
    }
    let mut payload = log[at + 8..].to_vec();
    payload[0] = 0xff;
    let mut want = crc32(&payload).to_le_bytes().to_vec();
    want.extend_from_slice(&payload);
    for (i, b) in want.iter().enumerate() {
        let have = log[at + 4 + i];
        if have != *b {
            fs.corrupt_byte(path, at + 4 + i, have ^ b)
                .expect("rewrite");
        }
    }
    at
}

/// A CRC-valid but undecodable record in the primary's log is shipped —
/// the primary does not decode — and refused by the replica: the records
/// before it are applied and appended, it and everything after are
/// neither, and the follower's log stays a byte-for-byte prefix of the
/// primary's. The link stalls there without halting; the primary's
/// scrubber finds the record, re-checkpoints, and the pair converges.
#[test]
fn an_undecodable_record_is_never_applied_or_appended_and_scrub_converges() {
    let (pfs, rfs) = (SimFs::new(), SimFs::new());
    let (pt, rt) = SimTransport::pair(SEED ^ 0x0D, SimNetConfig::clean());
    let mut pdb = open(&pfs);
    schema_txn(&mut pdb);
    let mut primary = Primary::new(
        pdb,
        1,
        NoGaps {
            inner: pt,
            shipped_to: 0,
        },
    );
    let mut replica = Replica::new(open(&rfs), rt);
    let mut rng = StdRng::seed_from_u64(SEED);
    for i in 0..6 {
        drive_txn(primary.db(), &mut rng, i);
        primary.pump().expect("primary pump");
        replica.pump().expect("replica pump");
    }
    let level = primary.db_ref().op_count() as u64;
    assert_eq!(replica.applied(), level);

    // Two more records; the second becomes undecodable before the next
    // pump ships both.
    primary.db().tick().expect("tick");
    primary.db().tick().expect("tick");
    primary.db().sync().expect("sync");
    let path = PathBuf::from("node.log");
    let bad_at = make_last_record_undecodable(&pfs, &path);
    let corrupt_before = tchimera_obs::snapshot()
        .counter("repl.frames.corrupt")
        .unwrap_or(0);
    let follower_log = |rfs: &SimFs| rfs.contents(&path).expect("follower log");
    for i in 6..9 {
        primary.pump().expect("primary pump");
        replica.pump().expect("replica pump");
        assert_eq!(
            replica.applied(),
            level + 1,
            "only the record before it applies"
        );
        assert_eq!(
            replica.halted(),
            None,
            "a refused record stalls, it does not halt"
        );
        assert!(
            follower_log(&rfs) == pfs.contents(&path).unwrap()[..bad_at],
            "the follower's log is the primary's up to the undecodable record"
        );
        drive_txn(primary.db(), &mut rng, i);
    }
    let corrupt = tchimera_obs::snapshot()
        .counter("repl.frames.corrupt")
        .unwrap_or(0);
    assert!(corrupt > corrupt_before, "the refusal is counted");

    // Repair: the primary's scrub decodes its log, finds the record and
    // re-checkpoints the live state over it; the follower is below the
    // new horizon and is served the image.
    let report = primary.db().scrub_cycle();
    assert!(
        report.log_damage > 0 && report.checkpoint_repair,
        "{report:?}"
    );
    for i in 9..12 {
        primary.pump().expect("primary pump");
        replica.pump().expect("replica pump");
        assert_eq!(replica.halted(), None);
        assert_eq!(replica.applied(), primary.db_ref().op_count() as u64);
        assert_eq!(
            replica.db_ref().state_digest(),
            primary.db_ref().state_digest()
        );
        drive_txn(primary.db(), &mut rng, i);
    }
    assert!(replica.db_ref().db().check_database().is_consistent());
}

//! Opening from a checkpoint image loads; it does not re-derive or
//! re-verify.
//!
//! Counted, not timed: after a checkpoint and a tail, `open_with` walks
//! no digest (`core.digest.walks`), builds no digest table
//! (`core.digest.builds`) and reindexes no object one by one
//! (`core.refindex.rebuilds` — the reverse-reference index is built in
//! bulk). The walk an open used to pay belongs to the scrubber: the first
//! `scrub_cycle()` makes it and is clean. A CRC-valid header that
//! records the wrong digest therefore opens, and is caught and repaired
//! by that scrub through the ladder that was already there.
//!
//! Replay streams: every pass — a full-replay open, an image + suffix
//! open, `state_at_op` and a scrub cycle — holds at most one decoded
//! record at a time (`op::take_decode_backlog_high_water`) and decodes
//! each op record it reads once (`storage.log.scanned_ops`).
//!
//! A checkpoint walks the live state once: the walk that encodes the
//! image sums the digest its header records (`core.digest.walks` + 1),
//! reads no maintained table and copies no state (`core.state.exports`).
//!
//! The counters are process-global, so this file is a test binary of its
//! own and its tests take turns.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use tchimera_core::{attrs, ClassDef, ClassId, Oid, Type, Value};
use tchimera_storage::log::{crc32, RecordWalk};
use tchimera_storage::op::take_decode_backlog_high_water;
use tchimera_storage::{digest_database, write_snapshot, PersistentDatabase, SimFs, Vfs};

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

/// Replace the log's bytes with `bytes`, durably.
fn lay(fs: &SimFs, bytes: &[u8]) {
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut f = vfs.open_trunc(&path()).unwrap();
    f.write_all(bytes).unwrap();
    f.sync().unwrap();
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
    populated(fs, true)
}

/// [`checkpointed_with_tail`], with or without the checkpoint.
fn populated(fs: &SimFs, checkpoint: bool) -> u64 {
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
    if checkpoint {
        pdb.checkpoint().unwrap();
    }
    pdb.tick().unwrap();
    for i in 1..TAIL as u64 {
        pdb.set_attr(Oid(i), &"salary".into(), Value::Int(-1))
            .unwrap();
    }
    pdb.sync().unwrap();
    pdb.state_digest()
}

#[test]
fn an_image_open_walks_nothing_and_the_first_scrub_does() {
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

    // The walk moved to the scrubber: its first cycle checks the image
    // against the recorded digest (and the live state against the
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
    let closed = checkpointed_with_tail(&fs);

    // Re-write the header with one digest bit flipped *before* its
    // checksum is taken: every byte is as the writer meant it, the writer
    // was wrong.
    let mut log = fs.contents(&path()).unwrap();
    log[24] ^= 1;
    let crc = crc32(&log[8..32]).to_le_bytes();
    log[32..36].copy_from_slice(&crc);
    lay(&fs, &log);

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

    // The superseding checkpoint records the right digest and the store
    // scrubs clean — now and after a restart.
    let fresh = fs.contents(&path()).unwrap();
    let head = *RecordWalk::log(&fresh, 0).head().expect("a header");
    assert_eq!(head.digest, digest_database(pdb.db()));
    assert!(pdb.scrub_cycle().clean());
    drop(pdb);
    let mut pdb = open(&fs);
    assert_eq!(pdb.state_digest(), closed);
    assert!(pdb.scrub_cycle().clean());
}

#[test]
fn a_checkpoint_walks_the_state_once_and_copies_none_of_it() {
    let _turn = turn();
    let fs = SimFs::new();
    populated(&fs, false);
    let mut pdb = open(&fs);

    let (walks, builds, exports) = (
        counter("core.digest.walks"),
        counter("core.digest.builds"),
        counter("core.state.exports"),
    );
    pdb.checkpoint().unwrap();
    assert_eq!(
        counter("core.digest.walks") - walks,
        1,
        "the walk that encodes the image is the one that digests it"
    );
    assert_eq!(
        counter("core.digest.builds") - builds,
        0,
        "the recorded digest is walked, not read from the maintained table"
    );
    assert_eq!(
        counter("core.state.exports") - exports,
        0,
        "the live state is encoded in place, never copied"
    );

    let file = fs.contents(&path()).unwrap();
    let head = *RecordWalk::log(&file, 0).head().expect("a header");
    assert_eq!(head.digest, pdb.state_digest());
    drop(pdb);
    let mut pdb = open(&fs);
    assert!(pdb.recovered_from_snapshot());
    assert_eq!(pdb.state_digest(), head.digest);
    assert!(pdb.scrub_cycle().clean());
}

/// `f`'s records decoded, and the most it held decoded and not yet applied.
fn decoded_by<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    take_decode_backlog_high_water();
    let scanned = counter("storage.log.scanned_ops");
    let out = f();
    let decoded = counter("storage.log.scanned_ops") - scanned;
    (out, decoded, take_decode_backlog_high_water())
}

#[test]
fn every_replay_pass_decodes_one_record_at_a_time_and_each_once() {
    let _turn = turn();
    let fs = SimFs::new();
    let closed = populated(&fs, false);
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let log = fs.contents(&path()).unwrap();
    let records = RecordWalk::log(&log, 0).count();

    // A full-replay open.
    let (mut pdb, decoded, held) = decoded_by(|| open(&fs));
    assert!(!pdb.recovered_from_snapshot());
    assert_eq!((decoded, held), (records as u64, 1));
    assert_eq!(pdb.recovered_replayed(), records);
    assert_eq!(pdb.state_digest(), closed);

    // `state_at_op` decodes up to the `k`-th record and no further.
    let k = records / 2;
    let (past, decoded, held) = decoded_by(|| pdb.state_at_op(k).unwrap());
    assert_eq!((decoded, held), (k as u64, 1));
    let expect = past.state_digest();

    // A scrub cycle folds the whole log.
    let (report, decoded, held) = decoded_by(|| pdb.scrub_cycle());
    assert!(report.clean(), "{report:?}");
    assert_eq!((decoded, held), (records as u64, 1));
    drop(pdb);

    // The same history checkpointed at `k`: the image of the first `k`
    // operations, then the records after them. The open decodes only the
    // records past the image, one at a time.
    let image = PathBuf::from("image");
    write_snapshot(&vfs, &image, &past.export_state(), k as u64, expect).unwrap();
    let image = fs.contents(&image).unwrap();
    let suffix = RecordWalk::log(&log, 0).nth(k).unwrap().0 as usize;
    lay(&fs, &[&image[..], &log[suffix..]].concat());
    let (pdb, decoded, held) = decoded_by(|| open(&fs));
    assert!(pdb.recovered_from_snapshot());
    assert_eq!((decoded, held), ((records - k) as u64, 1));
    assert_eq!(pdb.recovered_replayed(), records - k);
    assert_eq!(pdb.state_digest(), closed);
    drop(pdb);

    // A CRC-valid record that does not decode, first after the image: the
    // open finds it, truncates the log there and serves the image.
    let garbage = [0xfe];
    let mut damaged = image.clone();
    damaged.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
    damaged.extend_from_slice(&crc32(&garbage).to_le_bytes());
    damaged.extend_from_slice(&garbage);
    damaged.extend_from_slice(&log[suffix..]);
    lay(&fs, &damaged);
    let (pdb, decoded, held) = decoded_by(|| open(&fs));
    assert!(pdb.recovered_torn_tail(), "the damage is found");
    assert_eq!((decoded, held), (0, 0));
    assert_eq!((pdb.recovered_ops(), pdb.base_op()), (k, k as u64));
    assert_eq!(pdb.state_digest(), expect);
    assert!(fs.contents(&path()).unwrap() == image, "the open truncated the damage");
}

/// The median and the quartiles of `xs`, in milliseconds.
fn quartiles(xs: &mut [f64]) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    (at(0.25), at(0.5), at(0.75))
}

/// Timing, not counting: what a checkpoint of 20 000 objects (180 010
/// operations) costs on the real disk, beside the shape it replaced — a
/// copy of the state (`export_state`), encoded, with a from-scratch
/// digest, written as a standalone checkpoint file — and beside a bare
/// digest walk. The three alternate for 15 rounds on the same state.
///
/// ```text
/// cargo test --release -p tchimera-storage --test open_counts -- --ignored --nocapture
/// ```
#[test]
#[ignore = "timing probe, run by hand in release"]
fn checkpoint_cost_probe() {
    use std::time::Instant;
    use tchimera_storage::StdFs;

    const N: u64 = 20_000;
    let dir = std::env::temp_dir().join(format!("tchimera-ckpt-probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let vfs: Arc<dyn Vfs> = Arc::new(StdFs);
    let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &dir.join("probe.log")).unwrap();
    pdb.define_class(ClassDef::new("person").attr("name", Type::STRING)).unwrap();
    pdb.define_class(
        ClassDef::new("emp")
            .isa("person")
            .attr("salary", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
    for i in 0..N {
        let init = attrs([("name", Value::str("n")), ("salary", Value::Int(i as i64))]);
        pdb.create_object(&ClassId::from("emp"), init).unwrap();
    }
    for round in 1..=8 {
        pdb.tick().unwrap();
        for i in 0..N {
            pdb.set_attr(Oid(i), &"salary".into(), Value::Int((i * round) as i64))
                .unwrap();
        }
    }
    pdb.sync().unwrap();
    let ops = pdb.op_count() as u64;

    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let (mut copied, mut checkpoint, mut walk) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..15 {
        let t = Instant::now();
        let digest = digest_database(pdb.db());
        write_snapshot(&vfs, &dir.join("copy.ckpt"), &pdb.db().export_state(), ops, digest)
            .unwrap();
        copied.push(ms(t));
        let t = Instant::now();
        pdb.checkpoint().unwrap();
        checkpoint.push(ms(t));
        let t = Instant::now();
        std::hint::black_box(digest_database(pdb.db()));
        walk.push(ms(t));
    }
    for (name, xs) in [
        ("copy, encode, digest", &mut copied),
        ("checkpoint()", &mut checkpoint),
        ("digest walk", &mut walk),
    ] {
        let (q1, med, q3) = quartiles(xs);
        println!("{name:>22}: median {med:.1} ms, quartiles {q1:.1}–{q3:.1} ms");
    }
    drop(pdb);
    std::fs::remove_dir_all(&dir).unwrap();
}

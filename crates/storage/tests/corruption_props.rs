//! Single-byte corruption properties: flip any one byte (any bit mask)
//! of a valid log — or of the snapshot — and recovery must either land
//! on a state digest-identical to some valid prefix state, or refuse
//! loudly. It must never serve a state that matches no prefix.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use tchimera_core::{attrs, ClassDef, ClassId, Instant, Oid, Type, Value};
use tchimera_storage::{snapshot_path, PersistentDatabase, SimFs, Vfs};

/// Build a synced database of `steps` logical ops (plus one class
/// define) on a fresh [`SimFs`], optionally checkpointing halfway.
/// Returns the filesystem and the digest of every prefix state.
fn build(path: &Path, steps: usize, checkpoint: bool) -> (SimFs, Vec<u64>) {
    let fs = SimFs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), path).unwrap();
    let mut digests = vec![pdb.state_digest()];
    pdb.define_class(
        ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
    digests.push(pdb.state_digest());
    let employee = ClassId::from("employee");
    let mut next = 0u64;
    for i in 0..steps {
        match i % 4 {
            0 => {
                let t = Instant(pdb.db().now().ticks() + 1);
                pdb.advance_to(t).unwrap();
            }
            1 => {
                next = pdb
                    .create_object(&employee, attrs([("salary", Value::Int(i as i64))]))
                    .unwrap()
                    .0;
            }
            _ => {
                pdb.set_attr(Oid(next), &"salary".into(), Value::Int(i as i64))
                    .unwrap();
            }
        }
        digests.push(pdb.state_digest());
        if checkpoint && i == steps / 2 {
            pdb.checkpoint().unwrap();
        }
    }
    pdb.sync().unwrap();
    (fs, digests)
}

/// Corrupt one byte of `target` and reopen the database: pass iff the
/// result is a prefix state or a loud error. Returns `true` when
/// recovery succeeded (for callers asserting stronger outcomes).
fn flip_and_recover(
    fs: SimFs,
    path: &Path,
    target: &Path,
    digests: &[u64],
    offset_seed: usize,
    mask: u8,
    what: &str,
) -> Option<u64> {
    let prefix: HashSet<u64> = digests.iter().copied().collect();
    let len = fs.contents(target).unwrap().len();
    let offset = offset_seed % len;
    fs.corrupt_byte(target, offset, mask).unwrap();
    let vfs: Arc<dyn Vfs> = Arc::new(fs);
    match PersistentDatabase::open_with(vfs, path) {
        Ok(pdb) => {
            prop_assert!(
                prefix.contains(&pdb.state_digest()),
                "{what} byte {offset} ^ {mask:#04x}: recovered digest matches no prefix state"
            );
            prop_assert!(pdb.recovered_ops() < digests.len());
            Some(pdb.state_digest())
        }
        // A loud refusal is acceptable; silent wrongness is not.
        Err(_) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Flip one byte anywhere in the log (headerless or compacted):
    /// recovery truncates to a valid prefix or errors — never a digest
    /// outside the prefix set.
    #[test]
    fn log_byte_flip_never_yields_a_non_prefix_state(
        steps in 8usize..48,
        checkpoint in any::<bool>(),
        offset_seed in 0usize..100_000,
        mask_seed in 0u8..255,
    ) {
        let path = PathBuf::from("wal.log");
        let (fs, digests) = build(&path, steps, checkpoint);
        flip_and_recover(
            fs,
            &path,
            &path,
            &digests,
            offset_seed,
            mask_seed.wrapping_add(1),
            "log",
        );
    }

    /// Flip one byte anywhere in the snapshot. With the log compacted,
    /// recovery must come back as a prefix state or refuse — never
    /// guess. With a full (uncompacted) log alongside, the fallback is
    /// complete replay, so recovery must succeed with the exact final
    /// state.
    #[test]
    fn snapshot_byte_flip_never_yields_a_non_prefix_state(
        steps in 8usize..48,
        compacted in any::<bool>(),
        offset_seed in 0usize..100_000,
        mask_seed in 0u8..255,
    ) {
        let path = PathBuf::from("wal.log");
        let mask = mask_seed.wrapping_add(1);
        if compacted {
            let (fs, digests) = build(&path, steps, true);
            flip_and_recover(fs, &path, &snapshot_path(&path), &digests, offset_seed, mask, "snapshot");
        } else {
            // A snapshot next to a full log: graft the snapshot a
            // checkpointed run produced onto an uncompacted run of the
            // identical workload.
            let (ckpt_fs, _) = build(&path, steps, true);
            let snap_bytes = ckpt_fs.contents(&snapshot_path(&path)).unwrap();
            let (fs, digests) = build(&path, steps, false);
            let mut f = fs.open_trunc(&snapshot_path(&path)).unwrap();
            f.write_all(&snap_bytes).unwrap();
            f.sync().unwrap();
            drop(f);
            fs.sync_dir(&PathBuf::from(".")).unwrap();
            let last = digests[digests.len() - 1];
            let got = flip_and_recover(fs, &path, &snapshot_path(&path), &digests, offset_seed, mask, "snapshot+log");
            if let Some(d) = got {
                // Whether the snapshot survived the flip (header-field
                // flips the CRC catches, any payload flip likewise) or
                // not, a full log is present: recovery must reach the
                // final state, by suffix replay or by full replay.
                prop_assert_eq!(d, last, "full log present but final state not recovered");
            } else {
                panic!("recovery refused although the full log was intact");
            }
        }
    }
}

/// Regression: a snapshot *behind* the log's compaction horizon (the
/// gap between them was compacted away) must be refused with a typed
/// error everywhere it is consulted — `state_at_op` on a live engine
/// used to underflow its skip count here.
#[test]
fn stale_snapshot_behind_compaction_horizon_is_refused() {
    use tchimera_storage::EngineError;

    let path = PathBuf::from("stale.log");
    let fs = SimFs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &path).unwrap();
    pdb.define_class(ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)))
        .unwrap();
    pdb.advance_to(Instant(1)).unwrap();
    let oid = pdb
        .create_object(&ClassId::from("employee"), attrs([("salary", Value::Int(1))]))
        .unwrap();
    pdb.checkpoint().unwrap();
    // Keep the snapshot of this moment: it covers fewer ops than the
    // compaction base the *next* checkpoint will establish.
    let stale = fs.contents(&snapshot_path(&path)).unwrap();

    for i in 2..6 {
        pdb.set_attr(oid, &"salary".into(), Value::Int(i)).unwrap();
    }
    pdb.checkpoint().unwrap();
    let total = pdb.op_count();

    // Roll the snapshot file back (a restore-from-backup gone wrong, a
    // half-applied sync — any path that leaves an old image in place).
    let mut f = fs.open_trunc(&snapshot_path(&path)).unwrap();
    f.write_all(&stale).unwrap();
    f.sync().unwrap();
    drop(f);

    // The live engine refuses recovery inspection with a typed error
    // instead of underflowing.
    match pdb.state_at_op(total) {
        Err(EngineError::Snapshot(_)) => {}
        other => panic!("expected a typed snapshot refusal, got {other:?}"),
    }

    // Reopening refuses just as loudly: the compacted prefix is gone and
    // the stale image cannot stand in for it.
    drop(pdb);
    match PersistentDatabase::open_with(vfs, &path) {
        Err(EngineError::Snapshot(_)) => {}
        Ok(_) => panic!("recovery served a state the stale snapshot cannot justify"),
        Err(other) => panic!("expected a typed snapshot refusal, got {other:?}"),
    }
}

/// A CRC-valid log record nesting `depth` levels: `Txn` inside `Txn`
/// inside …, or a `SetAttr` whose value is a set inside a set inside ….
fn deep_record(depth: usize, txn: bool) -> Vec<u8> {
    use tchimera_storage::{Codec, Operation};
    let leaf = if txn {
        Operation::Txn(Vec::new())
    } else {
        Operation::SetAttr {
            oid: Oid(0),
            attr: "salary".into(),
            value: Value::Null,
        }
    };
    let mut leaf = leaf.to_bytes();
    // `Txn(vec![])` ends `[8, 0]`, a `Null` value `[0]`: keep the tag,
    // wrap the rest `depth` times in a one-element `Txn` (tag 8) or set
    // (tag 8), each `[8, 1]`.
    let tail = leaf.split_off(leaf.len() - if txn { 2 } else { 1 });
    let mut payload = leaf;
    for _ in 0..depth {
        payload.extend_from_slice(&[8, 1]);
    }
    payload.extend_from_slice(&tail);
    let mut record = Vec::with_capacity(payload.len() + 8);
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&tchimera_storage::log::crc32(&payload).to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

/// Regression: a CRC-valid record of 100 000 nested levels (≈ 200 KB)
/// used to abort the process with a stack overflow in the decoder. A
/// `Txn` inside a `Txn` is refused at its tag and a type or value nesting
/// past `MAX_NESTING` at the bound, so the record is typed `Undecodable`
/// damage wherever it is read: the scan, an open (which truncates it
/// and keeps the valid prefix) and a replica's apply (which applies
/// nothing).
#[test]
fn a_deeply_nested_record_is_damage_not_an_abort() {
    use tchimera_storage::{DamageReason, OpLog};

    for txn in [true, false] {
        let path = PathBuf::from("deep.log");
        let (fs, digests) = build(&path, 6, false);
        let intact = fs.contents(&path).unwrap();
        let deep = deep_record(100_000, txn);
        assert!(deep.len() > 200_000);

        let mut log = intact.clone();
        log.extend_from_slice(&deep);
        let scan = OpLog::scan_bytes(&log);
        let damage = scan.damage.expect("the deep record is damage");
        assert_eq!(damage.offset, intact.len() as u64);
        assert!(matches!(damage.reason, DamageReason::Undecodable(_)), "{damage:?}");
        assert_eq!(scan.ops.len(), digests.len() - 1);

        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let mut f = vfs.open_append(&path).unwrap();
        f.write_all(&deep).unwrap();
        f.sync().unwrap();
        drop(f);
        let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &path).unwrap();
        assert!(pdb.recovered_torn_tail());
        assert_eq!(pdb.state_digest(), *digests.last().unwrap());
        assert_eq!(fs.contents(&path).unwrap(), intact, "the open truncates the record");

        assert_eq!(pdb.apply_replicated(&deep, 0).unwrap(), 0, "nothing is applied");
        assert_eq!(pdb.state_digest(), *digests.last().unwrap());
        assert_eq!(fs.contents(&path).unwrap(), intact, "nothing is appended");
    }
}

/// The other side of the bound: the deepest value the model accepts is
/// logged, checkpointed and read back — every state the model accepts
/// decodes.
#[test]
fn the_deepest_value_the_model_accepts_survives_a_reopen() {
    use tchimera_core::{ModelError, MAX_NESTING};
    use tchimera_storage::{EngineError, ReplayError};

    let nest = |depth: usize| (1..depth).fold(Value::Int(7), |v, _| Value::set([v]));
    let nest_type = |depth: usize| (1..depth).fold(Type::INTEGER, |t, _| Type::set_of(t));
    let path = PathBuf::from("deepest.log");
    let fs = SimFs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &path).unwrap();
    let too_deep = ClassDef::new("c").attr("v", nest_type(MAX_NESTING));
    assert!(matches!(
        pdb.define_class(too_deep),
        Err(EngineError::Replay(ReplayError::Model(ModelError::TooDeep(_))))
    ));
    // The deepest temporal domain: a history around its values nests
    // exactly `MAX_NESTING` levels.
    let ty = Type::temporal(nest_type(MAX_NESTING - 2));
    pdb.define_class(ClassDef::new("c").attr("v", ty)).unwrap();
    pdb.advance_to(Instant(1)).unwrap();
    let c = ClassId::from("c");
    let oid = pdb
        .create_object(&c, attrs([("v", nest(MAX_NESTING - 2))]))
        .unwrap();
    pdb.advance_to(Instant(2)).unwrap();
    pdb.set_attr(oid, &"v".into(), nest(MAX_NESTING - 2)).unwrap();
    // A record's extra fields are the one way past a declared type: the
    // model refuses a value that would nest past the bound.
    let r = ClassDef::new("r").attr("v", Type::record_of([("a", Type::INTEGER)]));
    pdb.define_class(r).unwrap();
    let deep = Value::record([("a", Value::Int(1)), ("b", nest(MAX_NESTING))]);
    assert!(pdb
        .create_object(&ClassId::from("r"), attrs([("v", deep)]))
        .is_err());
    pdb.sync().unwrap();
    let digest = pdb.state_digest();
    drop(pdb);
    let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), &path).unwrap();
    assert!(!pdb.recovered_torn_tail());
    assert_eq!(pdb.state_digest(), digest);
    pdb.checkpoint().unwrap();
    drop(pdb);
    let pdb = PersistentDatabase::open_with(vfs, &path).unwrap();
    assert!(pdb.recovered_from_snapshot());
    assert_eq!(pdb.state_digest(), digest);
}

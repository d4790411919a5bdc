//! Single-byte corruption properties: flip any one byte (any bit mask)
//! of a valid log — its checkpoint image included — and recovery must
//! either land on a state digest-identical to some valid prefix state,
//! or refuse loudly. It must never serve a state that matches no prefix.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;
use tchimera_core::{attrs, ClassDef, ClassId, Instant, Oid, Type, Value};
use tchimera_storage::log::RecordWalk;
use tchimera_storage::{EngineError, PersistentDatabase, SimFs, Vfs};

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

    /// Flip one byte of a checkpointed log's header or image: the
    /// operations the image folds exist nowhere else, so the open must
    /// refuse with a typed error, and leave the file as it found it.
    #[test]
    fn a_flip_in_the_image_is_refused(
        steps in 8usize..48,
        offset_seed in 0usize..100_000,
        mask_seed in 0u8..255,
    ) {
        let path = PathBuf::from("wal.log");
        let (fs, _) = build(&path, steps, true);
        let log = fs.contents(&path).unwrap();
        let mut walk = RecordWalk::log(&log, 0);
        let image_end = walk.pos();
        prop_assert!(walk.next().is_some(), "records follow the image");
        let offset = offset_seed % image_end;
        fs.corrupt_byte(&path, offset, mask_seed.wrapping_add(1)).unwrap();
        let damaged = fs.contents(&path).unwrap();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let open = PersistentDatabase::open_with(vfs, &path);
        prop_assert!(matches!(open, Err(EngineError::Damaged(_))), "byte {}", offset);
        prop_assert!(fs.contents(&path).unwrap() == damaged, "a refused open truncates nothing");
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

//! Property tests for the binary codec: round-trip identity on random
//! values/types, and total robustness (never panics) on arbitrary bytes.

use proptest::prelude::*;
use tchimera_core::{AttrName, Instant, Interval, Oid, TemporalValue, Type, Value};
use tchimera_storage::{Codec, Operation};

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Real),
        any::<bool>().prop_map(Value::Bool),
        any::<char>().prop_map(Value::Char),
        "[a-zA-Z0-9 ']{0,12}".prop_map(Value::str),
        (0u64..10_000).prop_map(|t| Value::Time(Instant(t))),
        (0u64..10_000).prop_map(|i| Value::Oid(Oid(i))),
    ];
    leaf.prop_recursive(3, 48, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::set),
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::list),
            prop::collection::vec(("[a-f]{1,3}", inner.clone()), 0..4).prop_map(|fs| {
                let mut seen = std::collections::BTreeSet::new();
                Value::record(
                    fs.into_iter()
                        .filter(|(n, _)| seen.insert(n.clone()))
                        .collect::<Vec<_>>(),
                )
            }),
            (prop::collection::vec((0u64..1000, 1u64..20, inner), 0..4)).prop_map(|runs| {
                let mut tv = TemporalValue::new();
                let mut t = 0u64;
                for (gap, len, v) in runs {
                    let start = t + gap + 1;
                    let end = start + len;
                    tv.overwrite(Interval::from_ticks(start, end), v).unwrap();
                    t = end + 1;
                }
                Value::Temporal(tv)
            }),
        ]
    })
}

fn arb_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::Time),
        Just(Type::INTEGER),
        Just(Type::REAL),
        Just(Type::BOOL),
        Just(Type::CHARACTER),
        Just(Type::STRING),
        "[a-z]{1,6}".prop_map(Type::object),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(Type::set_of),
            inner.clone().prop_map(Type::list_of),
            inner.clone().prop_map(|t| Type::Temporal(Box::new(t))),
            prop::collection::vec(("[a-f]{1,3}", inner), 1..4).prop_map(|fs| {
                let mut seen = std::collections::BTreeSet::new();
                Type::record_of(
                    fs.into_iter()
                        .filter(|(n, _)| seen.insert(n.clone()))
                        .collect::<Vec<_>>(),
                )
            }),
        ]
    })
}

proptest! {
    /// Decode(encode(v)) == v for arbitrary values (modulo NaN bit
    /// patterns, which the `Value` total order already identifies).
    #[test]
    fn value_round_trip(v in arb_value()) {
        let bytes = v.to_bytes();
        let back = Value::from_bytes(&bytes).unwrap();
        prop_assert_eq!(v, back);
    }

    #[test]
    fn type_round_trip(t in arb_type()) {
        let bytes = t.to_bytes();
        let back = Type::from_bytes(&bytes).unwrap();
        prop_assert_eq!(t, back);
    }

    /// Arbitrary byte soup never panics the decoder — it errors.
    #[test]
    fn decoder_is_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Value::from_bytes(&bytes);
        let _ = Type::from_bytes(&bytes);
        let _ = Operation::from_bytes(&bytes);
        let _ = TemporalValue::<Value>::from_bytes(&bytes);
    }

    /// Truncating a valid encoding at any point errors (never panics,
    /// never silently succeeds with a different value).
    #[test]
    fn truncation_always_detected(v in arb_value()) {
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            match Value::from_bytes(&bytes[..cut]) {
                Err(_) => {}
                Ok(other) => prop_assert_eq!(
                    &other, &v,
                    "truncated decode produced a different value"
                ),
            }
        }
    }

    /// Operations survive a log-style encode/decode cycle.
    #[test]
    fn operation_round_trip(v in arb_value(), oid in 0u64..1000, name in "[a-z]{1,8}") {
        let op = Operation::SetAttr {
            oid: Oid(oid),
            attr: AttrName::from(name.as_str()),
            value: v,
        };
        let bytes = op.to_bytes();
        let back = Operation::from_bytes(&bytes).unwrap();
        prop_assert_eq!(bytes, back.to_bytes());
    }
}

// ---------------------------------------------------------------------
// Replication frames
// ---------------------------------------------------------------------

use tchimera_storage::log::{encode_record, RecordWalk};
use tchimera_storage::Frame;

fn arb_op() -> impl Strategy<Value = Operation> {
    (arb_value(), 0u64..1000, "[a-z]{1,8}").prop_map(|(v, oid, name)| Operation::SetAttr {
        oid: Oid(oid),
        attr: AttrName::from(name.as_str()),
        value: v,
    })
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        // Batch: term + start watermark + framed log records of random
        // operations (as a primary's log holds them) + optional digest.
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_op(), 0..5),
            prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        )
            .prop_map(|(term, start, ops, commit_digest)| Frame::Batch {
                term,
                start,
                count: ops.len() as u64,
                commit_digest,
                records: ops.iter().flat_map(encode_record).collect(),
            }),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(term, total, digest)| Frame::Heartbeat { term, total, digest }),
        (any::<u64>(), any::<u64>()).prop_map(|(term, applied)| Frame::Ack { term, applied }),
        (any::<u64>(), any::<u64>()).prop_map(|(term, from)| Frame::CatchUp { term, from }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(term, applied, digest)| {
            Frame::ScrubPull {
                term,
                applied,
                digest,
            }
        }),
    ]
}

proptest! {
    /// Every frame kind survives the wire: the decoded frame equals the
    /// sent one and re-encodes to the identical bytes. A batch's records
    /// come back verbatim: they walk to exactly `count` CRC-valid records.
    #[test]
    fn frame_wire_round_trip(f in arb_frame()) {
        let wire = f.to_wire();
        let back = Frame::from_wire(&wire).unwrap();
        prop_assert_eq!(&back, &f);
        prop_assert_eq!(&back.to_wire(), &wire);
        if let Frame::Batch { count, records, .. } = &back {
            let mut walk = RecordWalk::new(records);
            prop_assert_eq!(walk.by_ref().count() as u64, *count);
            prop_assert!(walk.damage().is_none());
        }
    }

    /// Flipping any single byte of a wire frame — header, version, or a
    /// batch's records (their own CRCs included) — is rejected. The
    /// length check catches header damage, the frame CRC everything else;
    /// nothing decodes to a *different* frame.
    #[test]
    fn frame_single_byte_corruption_rejected(
        f in arb_frame(),
        offset_seed in any::<usize>(),
        mask in 1u8..=255u8,
    ) {
        let mut wire = f.to_wire();
        let offset = offset_seed % wire.len();
        wire[offset] ^= mask;
        prop_assert!(
            Frame::from_wire(&wire).is_err(),
            "corrupt frame accepted (byte {offset} ^ {mask:#04x})"
        );
    }

    /// Truncating a wire frame at any boundary is rejected, and raw
    /// byte soup never panics the frame decoder.
    #[test]
    fn frame_truncation_and_garbage_rejected(
        f in arb_frame(),
        garbage in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let wire = f.to_wire();
        for cut in 0..wire.len() {
            prop_assert!(Frame::from_wire(&wire[..cut]).is_err());
        }
        let _ = Frame::from_wire(&garbage);
    }
}

// ---------------------------------------------------------------------
// State digest
// ---------------------------------------------------------------------

/// The state digest is a stored and shipped format: it is written into
/// checkpoint headers and compared across nodes in `Heartbeat`/`Batch`
/// frames, where a mismatch halts a replica. One fixed tiny database —
/// every component kind, every `Value` shape that occurs in practice, an
/// open run, a closed run, a same-tick overwrite, a re-entered class, a
/// terminated object, a dropped class — must digest to this literal on
/// every toolchain (the algorithm is `DESIGN.md` §8.5). If this test
/// fails, two builds of the same source can disagree about a healthy
/// state: bump `LOG_MAGIC` rather than the literal, unless the
/// definition was changed on purpose.
#[test]
fn state_digest_golden_vector() {
    use tchimera_core::{attrs, Attrs, ClassDef, ClassId, Database};
    use tchimera_storage::digest_database;

    let mut db = Database::new();
    db.define_class(
        ClassDef::new("person")
            .immutable_attr("name", Type::temporal(Type::STRING))
            .attr("address", Type::STRING)
            .attr("friend", Type::temporal(Type::object("person"))),
    )
    .unwrap();
    db.define_class(
        ClassDef::new("employee")
            .isa("person")
            .attr("salary", Type::temporal(Type::INTEGER))
            .attr("tags", Type::set_of(Type::STRING))
            .c_attr("headcount", Type::temporal(Type::INTEGER))
            .c_attr("motto", Type::STRING),
    )
    .unwrap();
    db.define_class(ClassDef::new("scratch")).unwrap();
    db.advance_to(Instant(10)).unwrap();
    let employee = ClassId::from("employee");
    let ann = db
        .create_object(
            &employee,
            attrs([
                ("name", Value::str("Ann")),
                ("address", Value::str("Milano")),
                ("salary", Value::Int(100)),
                ("tags", Value::set([Value::str("a"), Value::str("b")])),
            ]),
        )
        .unwrap();
    let bob = db
        .create_object(
            &ClassId::from("person"),
            attrs([("name", Value::str("Bob")), ("friend", Value::Oid(ann))]),
        )
        .unwrap();
    db.set_attr(ann, &"salary".into(), Value::Int(110)).unwrap(); // same tick
    db.set_c_attr(&employee, &"headcount".into(), Value::Int(1)).unwrap();
    db.set_c_attr(&employee, &"motto".into(), Value::str("tempus fugit")).unwrap();
    db.advance_to(Instant(20)).unwrap();
    db.set_attr(ann, &"salary".into(), Value::Int(150)).unwrap();
    db.migrate(ann, &ClassId::from("person"), Attrs::new()).unwrap();
    db.advance_to(Instant(30)).unwrap();
    db.migrate(ann, &employee, attrs([("salary", Value::Int(160))])).unwrap();
    db.set_attr(bob, &"friend".into(), Value::Null).unwrap();
    db.terminate_object(bob).unwrap();
    db.drop_class(&ClassId::from("scratch")).unwrap();
    db.advance_to(Instant(31)).unwrap();

    const GOLDEN: u64 = 0x66A4_11EC_D148_45E5;
    assert_eq!(digest_database(&db), GOLDEN, "got {:#018x}", digest_database(&db));
    assert_eq!(db.state_digest(), GOLDEN, "maintained and from-scratch digests are one value");
}

/// One step of a generated session. Targets and classes are indexes,
/// resolved when the step is applied; a step the model refuses is
/// skipped.
#[derive(Clone, Debug)]
enum Step {
    Tick,
    Create(usize),
    /// Two of these before a `Tick` overwrite the run the first opened.
    SetSalary(usize, i64),
    Migrate(usize, usize),
    Terminate(usize),
    SetHeadcount(i64),
}

/// `person` ⊃ `employee` ⊃ `manager`, and `dept` beside them.
const SESSION_CLASSES: [&str; 4] = ["person", "employee", "manager", "dept"];

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Tick),
        (0..SESSION_CLASSES.len()).prop_map(Step::Create),
        (0usize..16, -50i64..50).prop_map(|(i, s)| Step::SetSalary(i, s)),
        (0usize..16, 0..SESSION_CLASSES.len()).prop_map(|(i, c)| Step::Migrate(i, c)),
        (0usize..16).prop_map(Step::Terminate),
        (0i64..9).prop_map(Step::SetHeadcount),
    ]
}

/// A database built by `steps` through the engine on a simulated disk.
fn session(steps: &[Step]) -> (tchimera_storage::SimFs, tchimera_storage::PersistentDatabase) {
    use std::sync::Arc;
    use tchimera_core::{attrs, Attrs, ClassDef, ClassId};
    use tchimera_storage::{PersistentDatabase, SimFs, Vfs};

    let fs = SimFs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut pdb = PersistentDatabase::open_with(vfs, std::path::Path::new("s.log")).unwrap();
    pdb.define_class(
        ClassDef::new("person")
            .attr("name", Type::temporal(Type::STRING))
            .attr("address", Type::STRING),
    )
    .unwrap();
    pdb.define_class(
        ClassDef::new("employee")
            .isa("person")
            .attr("salary", Type::temporal(Type::INTEGER))
            .c_attr("headcount", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
    pdb.define_class(ClassDef::new("manager").isa("employee").attr("bonus", Type::INTEGER))
        .unwrap();
    pdb.define_class(ClassDef::new("dept").attr("title", Type::STRING)).unwrap();
    let class = |c: usize| ClassId::from(SESSION_CLASSES[c]);
    let mut oids = Vec::new();
    for step in steps {
        let target = |i: usize| oids.get(i % oids.len().max(1)).copied();
        let _ = match *step {
            Step::Tick => pdb.tick().map(drop),
            Step::Create(c) => {
                let init = match c {
                    3 => attrs([("title", Value::str("R&D"))]),
                    _ => attrs([("name", Value::str("N")), ("address", Value::str("Genova"))]),
                };
                pdb.create_object(&class(c), init).map(|oid| oids.push(oid))
            }
            Step::SetSalary(i, s) => match target(i) {
                Some(oid) => pdb.set_attr(oid, &"salary".into(), Value::Int(s)),
                None => Ok(()),
            },
            Step::Migrate(i, c) => match target(i) {
                Some(oid) => pdb.migrate(oid, &class(c), Attrs::new()),
                None => Ok(()),
            },
            Step::Terminate(i) => match target(i) {
                Some(oid) => pdb.terminate_object(oid),
                None => Ok(()),
            },
            Step::SetHeadcount(n) => {
                pdb.set_c_attr(&class(1), &"headcount".into(), Value::Int(n))
            }
        };
    }
    (fs, pdb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A checkpoint encodes the live state in place; the image equals,
    /// byte for byte, the one written from the state's exported copy
    /// through the same encoder with the maintained digest, and it
    /// imports to the state it was taken of.
    #[test]
    fn a_checkpoint_image_is_the_exported_state_image(
        steps in prop::collection::vec(arb_step(), 0..60),
    ) {
        use std::path::Path;
        use std::sync::Arc;
        use tchimera_core::Database;
        use tchimera_storage::log::RecordWalk;
        use tchimera_storage::{load_snapshot, write_snapshot, Vfs};

        let (fs, mut pdb) = session(&steps);
        pdb.checkpoint().unwrap();
        let live = fs.contents(Path::new("s.log")).unwrap();

        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let exported = Path::new("exported.ckpt");
        let (ops, maintained) = (pdb.op_count() as u64, pdb.state_digest());
        write_snapshot(&vfs, exported, &pdb.db().export_state(), ops, maintained).unwrap();
        prop_assert!(live == fs.contents(exported).unwrap(), "live and exported images differ");

        let head = *RecordWalk::log(&live, 0).head().expect("a header");
        prop_assert_eq!(head.digest, maintained);
        let loaded = load_snapshot(&vfs, exported).unwrap();
        let back = Database::import_state(loaded.state).unwrap();
        prop_assert_eq!(back.digest_from_scratch(), head.digest);
        prop_assert_eq!(back.export_state(), pdb.db().export_state());
    }
}

//! Logged operations: the write-ahead representation of every database
//! mutation.
//!
//! A T_Chimera database is naturally event-sourced — the model's histories
//! are append-only and the past is immutable — so the full state is a fold
//! of the operation log. [`Operation::apply_owned`] is the single
//! interpretation function used both online and during recovery: it moves
//! the operation's payload into the model, so a replayed record is never
//! copied on its way into the state.

use tchimera_core::{
    AttrName, Attrs, ClassDef, ClassId, Database, Instant, ModelError, Oid, Value,
};

use crate::codec::{decode_attrs, encode_attrs, read_u64, write_u64, Codec, CodecError, Reader};

/// One logged mutation.
#[derive(Clone, Debug)]
pub enum Operation {
    /// Move the clock to an absolute instant.
    AdvanceTo(Instant),
    /// Define a class (Definition 4.1).
    DefineClass(ClassDef),
    /// Terminate a class lifespan.
    DropClass(ClassId),
    /// Update a c-attribute of a class.
    SetCAttr {
        /// The class.
        class: ClassId,
        /// The c-attribute.
        attr: AttrName,
        /// The new value.
        value: Value,
    },
    /// Create an object; `expect` pins the oid the database must assign,
    /// making replay deterministic (a mismatch means the log is corrupt).
    CreateObject {
        /// The most specific class.
        class: ClassId,
        /// Initial attribute bindings.
        init: Attrs,
        /// The oid assigned at original execution.
        expect: Oid,
    },
    /// Update an object attribute.
    SetAttr {
        /// The object.
        oid: Oid,
        /// The attribute.
        attr: AttrName,
        /// The new value.
        value: Value,
    },
    /// Migrate an object to a new most specific class (Section 5.2).
    Migrate {
        /// The object.
        oid: Oid,
        /// The target class.
        to: ClassId,
        /// Bindings for newly acquired attributes.
        init: Attrs,
    },
    /// Terminate an object lifespan.
    Terminate {
        /// The object.
        oid: Oid,
    },
    /// An atomically-committed transaction: all sub-operations share one
    /// CRC-framed log record, so recovery replays all of them or none.
    /// Sub-operations are never `Txn` themselves (no nesting).
    Txn(Vec<Operation>),
}

/// Errors surfacing during replay.
#[derive(Debug)]
pub enum ReplayError {
    /// The model rejected a logged operation — the log does not describe a
    /// valid execution.
    Model(ModelError),
    /// A created oid did not match the logged expectation.
    OidMismatch {
        /// The oid recorded in the log.
        expected: Oid,
        /// The oid the database assigned on replay.
        got: Oid,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Model(e) => write!(f, "replay rejected: {e}"),
            ReplayError::OidMismatch { expected, got } => {
                write!(f, "replay oid mismatch: log says {expected}, database assigned {got}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<ModelError> for ReplayError {
    fn from(e: ModelError) -> Self {
        ReplayError::Model(e)
    }
}

impl Operation {
    /// Apply the operation to a database, moving its payload (a value, a
    /// binding map, a class definition) into the model. Replay and online
    /// execution use the same code path, so a successfully recovered
    /// database is bit-for-bit the fold of its log.
    pub fn apply_owned(self, db: &mut Database) -> Result<(), ReplayError> {
        note_applied();
        self.apply_one(db)
    }

    fn apply_one(self, db: &mut Database) -> Result<(), ReplayError> {
        match self {
            Operation::AdvanceTo(t) => {
                db.advance_to(t)?;
            }
            Operation::DefineClass(def) => db.define_class(def)?,
            Operation::DropClass(c) => db.drop_class(&c)?,
            Operation::SetCAttr { class, attr, value } => {
                db.set_c_attr(&class, &attr, value)?;
            }
            Operation::CreateObject { class, init, expect } => {
                let got = db.create_object(&class, init)?;
                if got != expect {
                    return Err(ReplayError::OidMismatch { expected: expect, got });
                }
            }
            Operation::SetAttr { oid, attr, value } => {
                db.set_attr(oid, &attr, value)?;
            }
            Operation::Migrate { oid, to, init } => db.migrate(oid, &to, init)?,
            Operation::Terminate { oid } => db.terminate_object(oid)?,
            Operation::Txn(ops) => {
                // Atomicity across a replay is framing-level: the whole
                // record was either durable or it wasn't. Here we just
                // replay in order; a sub-operation failure poisons the
                // record as a whole (the caller discards `db`).
                for op in ops {
                    op.apply_one(db)?;
                }
            }
        }
        Ok(())
    }

    /// Decode the operation whose tag byte `tag` was just read.
    fn decode_tagged(tag: u8, r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match tag {
            0 => Operation::AdvanceTo(Instant::decode(r)?),
            1 => Operation::DefineClass(ClassDef::decode(r)?),
            2 => Operation::DropClass(ClassId::decode(r)?),
            3 => Operation::SetCAttr {
                class: ClassId::decode(r)?,
                attr: AttrName::decode(r)?,
                value: Value::decode(r)?,
            },
            4 => Operation::CreateObject {
                class: ClassId::decode(r)?,
                init: decode_attrs(r)?,
                expect: Oid::decode(r)?,
            },
            5 => Operation::SetAttr {
                oid: Oid::decode(r)?,
                attr: AttrName::decode(r)?,
                value: Value::decode(r)?,
            },
            6 => Operation::Migrate {
                oid: Oid::decode(r)?,
                to: ClassId::decode(r)?,
                init: decode_attrs(r)?,
            },
            7 => Operation::Terminate { oid: Oid::decode(r)? },
            8 => {
                let n = read_u64(r)?;
                let mut ops = Vec::with_capacity(n.min(1024) as usize);
                for _ in 0..n {
                    // No nesting: a `Txn` inside a `Txn` is refused at its
                    // tag, before anything recurses into it.
                    match r.byte()? {
                        8 => return Err(CodecError::Corrupt("nested transaction")),
                        tag => ops.push(Operation::decode_tagged(tag, r)?),
                    }
                }
                Operation::Txn(ops)
            }
            tag => return Err(CodecError::InvalidTag { what: "operation", tag }),
        })
    }
}

// Records decoded and not yet applied on this thread, and the high-water
// mark of that backlog, so a test can assert that a replay holds one
// decoded record at a time.
#[cfg(any(test, feature = "testing"))]
thread_local! {
    static BACKLOG: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// A record was decoded ([`crate::log`]'s decode step).
pub(crate) fn note_decoded() {
    #[cfg(any(test, feature = "testing"))]
    BACKLOG.with(|c| {
        let (now, high) = c.get();
        c.set((now + 1, high.max(now + 1)));
    });
}

/// A decoded record left the backlog: applied, or passed over by a replay
/// (a snapshot already holds it). An operation that was never decoded —
/// an online write — leaves an empty backlog empty.
pub(crate) fn note_applied() {
    #[cfg(any(test, feature = "testing"))]
    BACKLOG.with(|c| {
        let (now, high) = c.get();
        c.set((now.saturating_sub(1), high));
    });
}

/// The high-water mark of (records decoded − records applied) on the
/// calling thread since the previous call, which restarts it from the
/// current backlog. Test-only instrumentation.
#[cfg(any(test, feature = "testing"))]
pub fn take_decode_backlog_high_water() -> u64 {
    BACKLOG.with(|c| {
        let (now, high) = c.get();
        c.set((now, now));
        high
    })
}

// Operations encoded on this thread, so a test can assert that a path
// ships and applies records without re-encoding them.
#[cfg(any(test, feature = "testing"))]
thread_local! {
    static ENCODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many operations were encoded on the calling thread (a `Txn`
/// counts once, plus once per sub-operation). Test-only
/// instrumentation.
#[cfg(any(test, feature = "testing"))]
pub fn encodes_on_this_thread() -> u64 {
    ENCODES.with(std::cell::Cell::get)
}

impl Codec for Operation {
    fn encode(&self, out: &mut Vec<u8>) {
        #[cfg(any(test, feature = "testing"))]
        ENCODES.with(|c| c.set(c.get() + 1));
        match self {
            Operation::AdvanceTo(t) => {
                out.push(0);
                t.encode(out);
            }
            Operation::DefineClass(def) => {
                out.push(1);
                def.encode(out);
            }
            Operation::DropClass(c) => {
                out.push(2);
                c.encode(out);
            }
            Operation::SetCAttr { class, attr, value } => {
                out.push(3);
                class.encode(out);
                attr.encode(out);
                value.encode(out);
            }
            Operation::CreateObject { class, init, expect } => {
                out.push(4);
                class.encode(out);
                encode_attrs(init, out);
                expect.encode(out);
            }
            Operation::SetAttr { oid, attr, value } => {
                out.push(5);
                oid.encode(out);
                attr.encode(out);
                value.encode(out);
            }
            Operation::Migrate { oid, to, init } => {
                out.push(6);
                oid.encode(out);
                to.encode(out);
                encode_attrs(init, out);
            }
            Operation::Terminate { oid } => {
                out.push(7);
                oid.encode(out);
            }
            Operation::Txn(ops) => {
                out.push(8);
                write_u64(out, ops.len() as u64);
                for op in ops {
                    op.encode(out);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.byte()?;
        Operation::decode_tagged(tag, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchimera_core::{attrs, Type};

    fn ops() -> Vec<Operation> {
        vec![
            Operation::AdvanceTo(Instant(10)),
            Operation::DefineClass(
                ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)),
            ),
            Operation::CreateObject {
                class: ClassId::from("employee"),
                init: attrs([("salary", Value::Int(100))]),
                expect: Oid(0),
            },
            Operation::SetAttr {
                oid: Oid(0),
                attr: AttrName::from("salary"),
                value: Value::Int(120),
            },
            Operation::SetCAttr {
                class: ClassId::from("employee"),
                attr: AttrName::from("x"),
                value: Value::Null,
            },
            Operation::Migrate {
                oid: Oid(0),
                to: ClassId::from("employee"),
                init: Attrs::new(),
            },
            Operation::Terminate { oid: Oid(0) },
            Operation::DropClass(ClassId::from("employee")),
            Operation::Txn(vec![
                Operation::AdvanceTo(Instant(11)),
                Operation::SetAttr {
                    oid: Oid(0),
                    attr: AttrName::from("salary"),
                    value: Value::Int(130),
                },
            ]),
            Operation::Txn(Vec::new()),
        ]
    }

    #[test]
    fn operations_round_trip() {
        for op in ops() {
            let bytes = op.to_bytes();
            let back = Operation::from_bytes(&bytes).unwrap();
            // Compare via re-encoding (Operation has no PartialEq because
            // ClassDef doesn't need one elsewhere).
            assert_eq!(bytes, back.to_bytes());
        }
    }

    #[test]
    fn apply_executes_and_checks_oids() {
        let mut db = Database::new();
        Operation::AdvanceTo(Instant(5)).apply_owned(&mut db).unwrap();
        Operation::DefineClass(ClassDef::new("c")).apply_owned(&mut db).unwrap();
        Operation::CreateObject {
            class: ClassId::from("c"),
            init: Attrs::new(),
            expect: Oid(0),
        }
        .apply_owned(&mut db)
        .unwrap();
        // Wrong expectation is a replay error.
        let err = Operation::CreateObject {
            class: ClassId::from("c"),
            init: Attrs::new(),
            expect: Oid(99),
        }
        .apply_owned(&mut db)
        .unwrap_err();
        assert!(matches!(err, ReplayError::OidMismatch { .. }));
        // Model rejections surface as replay errors.
        let err = Operation::DropClass(ClassId::from("ghost"))
            .apply_owned(&mut db)
            .unwrap_err();
        assert!(matches!(err, ReplayError::Model(_)));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn txn_applies_sub_operations_in_order() {
        let mut db = Database::new();
        Operation::Txn(vec![
            Operation::AdvanceTo(Instant(5)),
            Operation::DefineClass(ClassDef::new("c")),
            Operation::CreateObject {
                class: ClassId::from("c"),
                init: Attrs::new(),
                expect: Oid(0),
            },
        ])
        .apply_owned(&mut db)
        .unwrap();
        assert_eq!(db.now(), Instant(5));
        assert!(db.object(Oid(0)).is_ok());
        // A failing sub-operation surfaces as the txn's error.
        let err = Operation::Txn(vec![Operation::DropClass(ClassId::from("ghost"))])
            .apply_owned(&mut db)
            .unwrap_err();
        assert!(matches!(err, ReplayError::Model(_)));
    }
}

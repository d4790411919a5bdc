//! Atomic multi-operation transactions.
//!
//! Definition 5.6 of the paper makes consistency a property of the whole
//! object set — oid uniqueness plus referential integrity — so multi-step
//! changes (create two objects that reference each other, `migrate` plus
//! fix-up writes) must commit as a unit or not at all. A [`Transaction`]
//! stages mutations against a *shadow* [`Database`] (a clone of the live
//! state): reads inside the transaction see staged writes, the live
//! engine sees nothing until commit, and commit appends **one**
//! CRC-framed [`Operation::Txn`] record to the log — the frame is the
//! atomicity boundary, so recovery replays the whole transaction or none
//! of it.
//!
//! A transaction whose closure returns an error, or whose commit append
//! fails, leaves the live database bit-for-bit unchanged (the shadow is
//! simply dropped).

use tchimera_core::{AttrName, Attrs, ClassDef, ClassId, Database, Instant, Oid, Value};

use crate::engine::EngineError;
use crate::op::{Operation, ReplayError};

/// An in-flight transaction: a shadow database plus the staged operations
/// that produced it. Created by
/// [`PersistentDatabase::txn`](crate::PersistentDatabase::txn).
pub struct Transaction {
    db: Database,
    ops: Vec<Operation>,
}

impl Transaction {
    pub(crate) fn new(db: Database) -> Transaction {
        Transaction {
            db,
            ops: Vec::new(),
        }
    }

    pub(crate) fn into_parts(self) -> (Database, Vec<Operation>) {
        (self.db, self.ops)
    }

    /// The shadow database: reads here see every staged write of this
    /// transaction (and nothing committed after it began).
    #[must_use]
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Operations staged so far.
    #[must_use]
    pub fn staged_ops(&self) -> usize {
        self.ops.len()
    }

    /// Validate `op` against the shadow (a copy of it applied) and stage
    /// it. A rejected operation stages nothing (the model's mutations are
    /// per-op atomic), so the caller may recover and continue the
    /// transaction.
    fn stage(&mut self, op: Operation) -> Result<(), EngineError> {
        match op.clone().apply_owned(&mut self.db) {
            Ok(()) => {
                self.ops.push(op);
                Ok(())
            }
            Err(ReplayError::Model(m)) => Err(EngineError::Model(m)),
            Err(e) => Err(EngineError::Replay(e)),
        }
    }

    // -- mirrored mutations (staged, not logged) ---------------------------

    /// Advance the clock to `t` (staged).
    pub fn advance_to(&mut self, t: Instant) -> Result<(), EngineError> {
        self.stage(Operation::AdvanceTo(t))
    }

    /// Advance the clock by one instant (staged).
    pub fn tick(&mut self) -> Result<Instant, EngineError> {
        let t = self.db.now().next();
        self.stage(Operation::AdvanceTo(t))?;
        Ok(t)
    }

    /// Define a class (staged).
    pub fn define_class(&mut self, def: ClassDef) -> Result<(), EngineError> {
        self.stage(Operation::DefineClass(def))
    }

    /// Drop a class (staged).
    pub fn drop_class(&mut self, class: &ClassId) -> Result<(), EngineError> {
        self.stage(Operation::DropClass(class.clone()))
    }

    /// Update a c-attribute (staged).
    pub fn set_c_attr(
        &mut self,
        class: &ClassId,
        attr: &AttrName,
        value: Value,
    ) -> Result<(), EngineError> {
        self.stage(Operation::SetCAttr {
            class: class.clone(),
            attr: attr.clone(),
            value,
        })
    }

    /// Create an object (staged; the oid the shadow assigns is pinned in
    /// the staged record, and the commit replays the whole batch against
    /// the same pre-state, so it holds at commit too).
    pub fn create_object(&mut self, class: &ClassId, init: Attrs) -> Result<Oid, EngineError> {
        let oid = self.db.create_object(class, init.clone())?;
        self.ops.push(Operation::CreateObject {
            class: class.clone(),
            init,
            expect: oid,
        });
        Ok(oid)
    }

    /// Update an attribute (staged).
    pub fn set_attr(&mut self, oid: Oid, attr: &AttrName, value: Value) -> Result<(), EngineError> {
        self.stage(Operation::SetAttr {
            oid,
            attr: attr.clone(),
            value,
        })
    }

    /// Migrate an object (staged).
    pub fn migrate(&mut self, oid: Oid, to: &ClassId, init: Attrs) -> Result<(), EngineError> {
        self.stage(Operation::Migrate {
            oid,
            to: to.clone(),
            init,
        })
    }

    /// Terminate an object (staged).
    pub fn terminate_object(&mut self, oid: Oid) -> Result<(), EngineError> {
        self.stage(Operation::Terminate { oid })
    }
}

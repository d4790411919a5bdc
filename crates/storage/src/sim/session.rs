//! The op vocabulary of a simulated session, its seeded generator, and
//! how each op is applied to an engine or a transaction.
//!
//! The writes are biased toward the temporal update edge cases of
//! arXiv:1103.0686, where an incrementally maintained structure drifts
//! silently: an overwrite within one instant (two `SetSalary` before a
//! `Tick`), a delete followed by a re-insert (`Bounce` leaves a class and
//! re-enters it on the same tick), a lifespan opened and closed on one
//! tick (`CreateAndTerminate`). `Pair` and `Terminate` are the paper's
//! referential cases: two objects that reference each other, and a
//! termination that first nulls every live reference to its victim.

use rand::rngs::StdRng;
use rand::Rng;
use tchimera_core::{attrs, Attrs, ClassDef, ClassId, Database, Instant, Oid, Type, Value};

use crate::{EngineError, PersistentDatabase, ReplayError, TearMode, Transaction};

/// The session schema's classes: `person` ⊃ `employee` ⊃ `manager`.
const CLASSES: [&str; 3] = ["person", "employee", "manager"];

/// One mutation, legal inside a transaction as well as outside. A
/// `target` is an object index and a `class` an index into the schema's
/// classes, both resolved at apply time: a session is a pure function of
/// its seed.
#[derive(Clone, Debug)]
pub(crate) enum Write {
    /// Advance the clock one tick.
    Tick,
    /// `(class)`: a new object with every attribute set.
    Create(usize),
    /// Two persons that are each other's friend.
    Pair,
    /// `(target, salary)`: a second set before the next tick overwrites
    /// the run the first one opened.
    SetSalary(usize, i64),
    /// `(target, street number)`: a static attribute, set in place.
    SetAddress(usize, u8),
    /// `(target, class)`: migrate without initial values.
    Migrate(usize, usize),
    /// `(target)`: null every live reference to it, then terminate it.
    Terminate(usize),
    /// `(class)`: a lifespan `[now, now]`.
    CreateAndTerminate(usize),
    /// `(target)`: leave the current class and re-enter it on the same
    /// tick.
    Bounce(usize),
    /// Set the `employee` class attribute.
    SetHeadcount(i64),
    /// Define the next side class (names are never reused).
    DefineSide,
    /// Drop the oldest side class still defined.
    DropSide,
}

/// One step of a session.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// The schema, as one transaction (always the first op).
    Schema,
    /// A single write, each of its mutations its own log record.
    Write(Write),
    /// A committed transaction: one log record.
    Txn(Vec<Write>),
    /// A transaction whose closure fails after staging: no trace.
    Abort(Vec<Write>),
    /// Ask for the maintained digest (the table goes cold → warm).
    Digest,
    /// Flush the log.
    Sync,
    /// Snapshot and compact.
    Checkpoint,
    /// Sync, crash under the tear mode, reopen.
    CrashReopen(TearMode),
    /// Install the writer's own log, from byte 0, through a follower's
    /// install path.
    InstallOwnImage,
    /// `(target)`: fail one append, so the engine rebuilds its state from
    /// storage.
    FailedAppend(usize),
}

/// Every tear mode.
pub(crate) const TEARS: [TearMode; 3] = [TearMode::DropAll, TearMode::KeepHalf, TearMode::KeepAll];

/// Which slice of the vocabulary a session draws from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Mix {
    /// Writes, transactions and aborts.
    Commits,
    /// Commits plus syncs: what a fail-at-every-I/O matrix cuts.
    Durable,
    /// The whole single-node vocabulary.
    Everything,
}

fn gen_write(rng: &mut StdRng) -> Write {
    let (target, class) = (rng.gen_range(0..16usize), rng.gen_range(0..3usize));
    match rng.gen_range(0..16u32) {
        0 | 1 => Write::Tick,
        2 | 3 => Write::Create(class),
        4 => Write::Pair,
        5 | 6 => Write::SetSalary(target, rng.gen_range(0..50)),
        7 => Write::SetAddress(target, rng.gen_range(0..256u32) as u8),
        8 => Write::Migrate(target, class),
        9 | 10 => Write::Terminate(target),
        11 => Write::CreateAndTerminate(class),
        12 => Write::Bounce(target),
        13 => Write::SetHeadcount(rng.gen_range(0..9)),
        14 => Write::DefineSide,
        _ => Write::DropSide,
    }
}

fn gen_writes(rng: &mut StdRng) -> Vec<Write> {
    (0..rng.gen_range(1..5usize)).map(|_| gen_write(rng)).collect()
}

/// The next op of a session drawing from `mix`.
pub(crate) fn gen(rng: &mut StdRng, mix: Mix) -> Op {
    match (mix, rng.gen_range(0..16u32)) {
        (_, 0..=5) => Op::Write(gen_write(rng)),
        (_, 10) => Op::Abort(gen_writes(rng)),
        (_, 6..=9) | (Mix::Commits, _) => Op::Txn(gen_writes(rng)),
        (Mix::Durable, 11 | 12) => Op::Sync,
        (Mix::Durable, _) => Op::Write(gen_write(rng)),
        (Mix::Everything, 11 | 12) => Op::Digest,
        (Mix::Everything, 13) => Op::Checkpoint,
        (Mix::Everything, 14) => Op::CrashReopen(TEARS[rng.gen_range(0..3usize)]),
        (Mix::Everything, _) if rng.gen_range(0..2u32) == 0 => Op::InstallOwnImage,
        (Mix::Everything, _) => Op::FailedAppend(rng.gen_range(0..16)),
    }
}

/// Where a write goes: the engine, each mutation its own log record, or
/// a transaction's shadow. Both expose the same mutation methods.
pub(crate) enum Sink<'a> {
    Engine(&'a mut PersistentDatabase),
    Txn(&'a mut Transaction),
}

impl Sink<'_> {
    fn db(&self) -> &Database {
        match self {
            Sink::Engine(p) => p.db(),
            Sink::Txn(t) => t.db(),
        }
    }
}

/// What a session's writes report to.
#[derive(Clone, Default)]
pub(crate) struct Cx {
    /// Side classes defined so far, and how many were dropped again.
    sides: usize,
    dropped: usize,
    /// `history[n]`: the digest after `n` log records of the writer's
    /// lineage. Recorded by a reference run, read by a fault run.
    pub history: Vec<u64>,
    pub record: bool,
    /// Accepted logical mutations.
    pub logical: usize,
}

impl Cx {
    /// The context of a transaction's staged writes: the same side
    /// classes, nothing recorded.
    pub fn staged(&self) -> Cx {
        Cx { sides: self.sides, dropped: self.dropped, ..Cx::default() }
    }

    /// Adopt the side classes a committed transaction defined.
    pub fn adopt(&mut self, staged: &Cx) {
        (self.sides, self.dropped) = (staged.sides, staged.dropped);
    }

    /// One more log record on the writer's lineage left `db`.
    pub fn note(&mut self, db: &Database) {
        if self.record {
            self.history.push(crate::digest_database(db));
        }
    }

    /// Account for one mutation's outcome: a model rejection is passed
    /// over (it must leave the state as valid as an acceptance does),
    /// anything else surfaces.
    fn done<T>(&mut self, s: &Sink<'_>, r: Result<T, EngineError>) -> Result<Option<T>, EngineError>
    {
        match r {
            Ok(v) => {
                if let Sink::Engine(_) = s {
                    self.logical += 1;
                    self.note(s.db());
                }
                Ok(Some(v))
            }
            Err(EngineError::Model(_) | EngineError::Replay(ReplayError::Model(_))) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

fn alive(db: &Database, oid: Oid) -> bool {
    db.object(oid).map(|o| o.lifespan.is_alive()) == Ok(true)
}

/// Every attribute of `CLASSES[class]` (each class adds one).
fn init(class: usize) -> Attrs {
    let all = [("address", Value::str("Milano")), ("friend", Value::Null)];
    let all = all.into_iter().chain([("salary", Value::Int(100)), ("bonus", Value::Int(10))]);
    attrs(all.take(2 + class))
}

/// Define the schema and start the clock at 1.
pub(crate) fn schema(t: &mut Transaction) -> Result<(), EngineError> {
    let person = ClassDef::new("person").attr("address", Type::STRING);
    t.define_class(person.attr("friend", Type::temporal(Type::object("person"))))?;
    let int = || Type::temporal(Type::INTEGER);
    let employee = ClassDef::new("employee").isa("person").attr("salary", int());
    t.define_class(employee.c_attr("headcount", int()))?;
    t.define_class(ClassDef::new("manager").isa("employee").attr("bonus", int()))?;
    t.advance_to(Instant(1))
}

/// Apply one write. Model rejections (a dead object, an attribute the
/// class lacks) are passed over; an I/O failure stops the write and is
/// returned.
pub(crate) fn write(s: &mut Sink<'_>, cx: &mut Cx, w: &Write) -> Result<(), EngineError> {
    // Run one mutation on the sink and account for it: its value, or
    // `None` when the model rejected it.
    macro_rules! done {
        ($m:ident($($arg:expr),*)) => {{
            let r = match s {
                Sink::Engine(p) => p.$m($($arg),*),
                Sink::Txn(t) => t.$m($($arg),*),
            };
            cx.done(s, r)?
        }};
    }
    let class = |k: usize| ClassId::from(CLASSES[k]);
    let n = s.db().object_count() as u64;
    let pick = |target: usize| (n > 0).then(|| Oid(target as u64 % n));
    match *w {
        Write::Tick => _ = done!(tick()),
        Write::Create(k) => {
            if let Some(oid) = done!(create_object(&class(k), init(k))) {
                assert!(s.db().object(oid).is_ok(), "a write is visible to the next read");
            }
        }
        Write::Pair => {
            let Some(a) = done!(create_object(&class(0), init(0))) else { return Ok(()) };
            let mut b = init(0);
            b.insert("friend".into(), Value::Oid(a));
            if let Some(b) = done!(create_object(&class(0), b)) {
                done!(set_attr(a, &"friend".into(), Value::Oid(b)));
            }
        }
        Write::SetSalary(target, v) => {
            if let Some(oid) = pick(target) {
                done!(set_attr(oid, &"salary".into(), Value::Int(v)));
            }
        }
        Write::SetAddress(target, v) => {
            if let Some(oid) = pick(target) {
                done!(set_attr(oid, &"address".into(), Value::str(format!("via {v}"))));
            }
        }
        Write::Migrate(target, k) => {
            if let Some(oid) = pick(target) {
                done!(migrate(oid, &class(k), Attrs::new()));
            }
        }
        Write::Terminate(target) => {
            let Some(victim) = pick(target).filter(|&o| alive(s.db(), o)) else { return Ok(()) };
            let db = s.db();
            let live = |&r: &Oid| r != victim && alive(db, r);
            let referrers: Vec<Oid> = db.referrers_of(victim).into_iter().filter(live).collect();
            for r in referrers {
                done!(set_attr(r, &"friend".into(), Value::Null));
            }
            done!(terminate_object(victim));
        }
        Write::CreateAndTerminate(k) => {
            if let Some(oid) = done!(create_object(&class(k), Attrs::new())) {
                done!(terminate_object(oid));
            }
        }
        Write::Bounce(target) => {
            let Some(oid) = pick(target) else { return Ok(()) };
            let db = s.db();
            let home = db.object(oid).ok().and_then(|o| o.current_class(db.now()).cloned());
            let Some(home) = home else { return Ok(()) };
            let away = if home == class(0) { class(1) } else { class(0) };
            if done!(migrate(oid, &away, Attrs::new())).is_some() {
                done!(migrate(oid, &home, Attrs::new()));
            }
        }
        Write::SetHeadcount(v) => {
            done!(set_c_attr(&class(1), &"headcount".into(), Value::Int(v)));
        }
        Write::DefineSide => {
            let def = ClassDef::new(format!("side{}", cx.sides)).c_attr("note", Type::STRING);
            if done!(define_class(def)).is_some() {
                cx.sides += 1;
            }
        }
        Write::DropSide => {
            let side = ClassId::from(format!("side{}", cx.dropped));
            if cx.dropped < cx.sides && done!(drop_class(&side)).is_some() {
                cx.dropped += 1;
            }
        }
    }
    Ok(())
}

//! One seeded simulated world for every fault scenario.
//!
//! A [`World`] holds one or two nodes, each a [`PersistentDatabase`] on
//! its own [`SimFs`], joined (when the scenario has a link) by a
//! [`SimTransport`] pair; [`SimMem`](tchimera_core::SimMem) damages
//! their memory. The world's step is the one logical clock: each step
//! runs the scenario's scheduled `Event`s, pumps both ends of the link
//! once, checks the oracles, and applies the next op of a [`StdRng`]
//! session over the whole vocabulary (`Op`, `Write`).
//!
//! The oracles, checked after every step of a recorded run:
//!
//! * every node's maintained digest equals the `digest_database` walk;
//! * `check_database` is clean and `check_invariants` is empty;
//! * a replica serves a read bounded by its lag and refuses a tighter one;
//! * a node recovered from a crash holds the committed boundary at its
//!   recovered op count, at or past its durable floor;
//! * a surfaced write failure leaves the committed boundary in memory,
//!   and a transient one was retried [`RETRY_ATTEMPTS`] times;
//! * a quiesced replica equals its primary;
//! * after a promote, exactly one node accepts writes;
//! * a primary never ships past a record it did not ship.
//!
//! The scenarios are rows of one table ([`scenarios`]): a fault
//! schedule, a seed range and an expected outcome. A failing row prints
//! one line naming the scenario, seed and step, and the [`replay`] call
//! that reruns it.

mod damage;
mod session;
mod table;

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tchimera_core::{ModelError, Oid};

use crate::repl::{Frame, Primary, Replica, ReplicaError, SimTransport, Transport};
use crate::resilience::RETRY_ATTEMPTS;
use crate::{digest_database, EngineError, FaultKind, PersistentDatabase, SimFs, TearMode};
use session::Sink;

use damage::Damage;
use session::{gen, Mix, Op, Write};
pub use table::{scenarios, Scenario};
use table::{Event, Expect};

/// The log file of every node (each node has a disk of its own).
const PATH: &str = "node.log";

fn open(fs: &SimFs) -> Result<PersistentDatabase, EngineError> {
    PersistentDatabase::open_with(Arc::new(fs.clone()), Path::new(PATH))
}

fn walk(pdb: &PersistentDatabase) -> u64 {
    digest_database(pdb.db())
}

/// A [`SimTransport`] end that checks what its node ships: a `Batch`
/// starts at or below the highest op shipped so far (a resend is fine,
/// a jump is not); only a batch of the whole log, from op 0, moves that
/// mark past operations whose records it does not carry (its image
/// stands for them).
struct Link {
    inner: SimTransport,
    shipped_to: Option<u64>,
}

impl Transport for Link {
    fn send(&mut self, frame: Vec<u8>) {
        if let Ok(Frame::Batch { start, count, .. }) = Frame::from_wire(&frame) {
            let to = self.shipped_to.unwrap_or(start);
            assert!(start <= to, "ops {to}..{start} were never shipped: the cursor skipped");
            self.shipped_to = Some(to.max(start + count));
        }
        self.inner.send(frame);
    }
    fn recv(&mut self) -> Option<Vec<u8>> { self.inner.recv() }
    fn tick(&mut self) { self.inner.tick() }
}

enum Role {
    Solo(PersistentDatabase),
    Primary(Primary<Link>),
    Replica(Replica<Link>),
    /// Only while a role is being rebuilt.
    Down,
}

/// One simulated machine: a disk and the engine on it.
struct Node {
    fs: SimFs,
    role: Role,
    /// Ops durable on this disk: the op count at the last successful
    /// sync, checkpoint or shipment.
    floor: usize,
    /// Durable bytes were damaged: a crash may come back below the floor.
    damaged: bool,
}

impl Node {
    fn pdb(&self) -> &PersistentDatabase {
        match &self.role {
            Role::Solo(p) => p,
            Role::Primary(p) => p.db_ref(),
            Role::Replica(r) => r.db_ref(),
            Role::Down => unreachable!("a node is down only while it is rebuilt"),
        }
    }

    fn pdb_mut(&mut self) -> &mut PersistentDatabase {
        match &mut self.role {
            Role::Solo(p) => p,
            Role::Primary(p) => p.db(),
            _ => panic!("only a solo node or a primary takes writes"),
        }
    }

    fn replica(&self) -> Option<&Replica<Link>> {
        if let Role::Replica(r) = &self.role { Some(r) } else { None }
    }

    /// Run `f` on the node's database, taking a replica apart and
    /// re-wrapping it (a replica lends no `&mut`).
    fn with_pdb<R>(&mut self, f: impl FnOnce(&mut PersistentDatabase) -> R) -> R {
        let mut out = None;
        self.rebuild(|mut pdb| {
            out = Some(f(&mut pdb));
            pdb
        });
        out.expect("rebuild runs its closure")
    }

    /// Replace the node's database with what `f` makes of it, keeping
    /// the node's role, term and link end.
    fn rebuild(&mut self, f: impl FnOnce(PersistentDatabase) -> PersistentDatabase) {
        self.role = match std::mem::replace(&mut self.role, Role::Down) {
            Role::Solo(p) => Role::Solo(f(p)),
            Role::Primary(p) => {
                let (pdb, term, t) = p.into_parts();
                Role::Primary(Primary::new(f(pdb), term, t))
            }
            Role::Replica(r) => {
                let (pdb, _, t) = r.into_parts();
                Role::Replica(Replica::new(f(pdb), t))
            }
            Role::Down => unreachable!("a node is down only while it is rebuilt"),
        };
    }
}

/// What to check on the follower after every pump.
#[derive(Clone, Copy)]
enum Watch {
    Nothing,
    /// Damage on the primary: the follower holds exactly `applied` ops
    /// and its log is the primary's up to byte `bad_at`.
    Stall { applied: u64, bad_at: usize },
    /// The follower equals its primary.
    Converged,
}

thread_local! {
    /// The step (and injected I/O fault) the running scenario is at.
    static AT: Cell<(usize, Option<u64>)> = const { Cell::new((0, None)) };
}

/// The simulated world of one scenario at one seed.
pub struct World {
    seed: u64,
    rng: StdRng,
    nodes: Vec<Node>,
    /// The node that takes writes.
    writer: usize,
    /// The primary's end of the link (partitions are set through it).
    link: Option<SimTransport>,
    cx: session::Cx,
    /// Write failures surfaced to the session.
    surfaced: usize,
    /// A one-shot fsync failure was injected and has not surfaced yet.
    lost_sync: bool,
    watch: Watch,
    readers: Vec<JoinHandle<()>>,
    step: usize,
}

impl World {
    /// A world with `pdb` (opened on `fs`) as its only node, replaying
    /// against `history`.
    fn with(seed: u64, fs: SimFs, pdb: PersistentDatabase, history: Vec<u64>) -> World {
        let node = Node { fs, role: Role::Solo(pdb), floor: 0, damaged: false };
        let mut cx = session::Cx::default();
        cx.history = history;
        let (rng, nodes, watch) = (StdRng::seed_from_u64(seed), vec![node], Watch::Nothing);
        let readers = Vec::new();
        let (writer, link, surfaced, lost_sync, step) = (0, None, 0, false, 0);
        World { seed, rng, nodes, writer, link, cx, surfaced, lost_sync, watch, readers, step }
    }

    /// A fresh recording world for `row`: one node, or a primary and its
    /// follower over a link when the row has one.
    fn new(row: &Scenario, seed: u64) -> World {
        let fs = SimFs::new();
        let pdb = open(&fs).expect("a fresh disk opens");
        let history = vec![walk(&pdb)];
        let mut w = World::with(seed, fs, pdb, history);
        w.cx.record = true;
        if let Some(net) = row.link {
            let (pt, rt) = SimTransport::pair(seed ^ 0x11_4E, net);
            w.link = Some(pt.clone());
            let Role::Solo(pdb) = std::mem::replace(&mut w.nodes[0].role, Role::Down) else {
                unreachable!()
            };
            let link = |inner| Link { inner, shipped_to: None };
            let (pt, rt) = (link(pt), link(rt));
            w.nodes[0].role = Role::Primary(Primary::new(pdb, 1, pt));
            let rfs = SimFs::new();
            let replica = Replica::new(open(&rfs).expect("open"), rt);
            w.nodes.push(Node { fs: rfs, role: Role::Replica(replica), floor: 0, damaged: false });
        }
        w
    }

    /// The disk of node `n`.
    pub fn fs(&self, n: usize) -> &SimFs {
        &self.nodes[n].fs
    }

    /// The node that takes writes.
    pub fn writer(&mut self) -> &mut PersistentDatabase {
        self.nodes[self.writer].pdb_mut()
    }

    /// Close node `n` and open its disk again, with no crash and no
    /// oracle.
    pub fn reopen(&mut self, n: usize) -> &PersistentDatabase {
        let fs = self.nodes[n].fs.clone();
        self.nodes[n].rebuild(|pdb| {
            drop(pdb);
            open(&fs).unwrap_or_else(|e| panic!("reopen refused: {e}"))
        });
        self.nodes[n].pdb()
    }

    /// Run the session: for each step its events, one pump of the link,
    /// the oracles and one op. With `stop`, the first surfaced failure
    /// ends it and `false` is returned.
    fn session(&mut self, row: &Scenario, stop: bool) -> bool {
        for i in 0..=row.steps {
            self.step = i;
            AT.with(|at| at.set((i, at.get().1)));
            let events = row.schedule.iter().filter(|(at, _)| *at == i);
            let armed = events.clone().any(|(_, ev)| matches!(ev, Event::Transient(_)));
            for (_, ev) in events {
                let r = self.event(ev);
                if self.surface(r, stop) {
                    return false;
                }
            }
            self.pump(true);
            if self.cx.record {
                self.oracles();
                if row.every_io.is_some() && i % 16 == 15 {
                    self.spawn_reader();
                }
            }
            if i == row.steps && row.mix != Mix::Durable {
                break;
            }
            let op = match i {
                _ if i == row.steps => Op::Sync,
                0 => Op::Schema,
                _ => gen(&mut self.rng, row.mix),
            };
            let r = self.apply(&op);
            if armed {
                self.nodes[self.writer].fs.fail_transient_next(0);
            }
            if self.surface(r, stop) {
                return false;
            }
        }
        true
    }

    /// Apply one op to the writer.
    fn apply(&mut self, op: &Op) -> Result<(), EngineError> {
        let node = &mut self.nodes[self.writer];
        let fs = node.fs.clone();
        let pdb = node.pdb_mut();
        let pre_ops = pdb.op_count();
        let checked =
            matches!(op, Op::Abort(_) | Op::Digest | Op::InstallOwnImage | Op::FailedAppend(_));
        let before = if checked { walk(pdb) } else { 0 };
        let cx = &mut self.cx;
        match op {
            Op::Schema | Op::Txn(_) | Op::Abort(_) => {
                let mut staged = cx.staged();
                let r = pdb.txn(|t| {
                    match op {
                        Op::Txn(ws) | Op::Abort(ws) => ws
                            .iter()
                            .try_for_each(|w| session::write(&mut Sink::Txn(t), &mut staged, w))?,
                        _ => session::schema(t)?,
                    }
                    let abort = ModelError::Internal { context: "aborted on purpose" };
                    match op {
                        Op::Abort(_) => Err(EngineError::Model(abort)),
                        _ => Ok(t.staged_ops()),
                    }
                });
                match r {
                    Ok(n) => {
                        let records = pdb.op_count() - pre_ops;
                        assert_eq!(records, usize::from(n > 0), "a transaction is one record");
                        if n > 0 {
                            cx.logical += n;
                            cx.note(pdb.db());
                        }
                        cx.adopt(&staged);
                    }
                    Err(EngineError::Model(_)) if matches!(op, Op::Abort(_)) => {
                        assert_eq!(walk(pdb), before, "an aborted transaction left a trace");
                        assert_eq!(pdb.op_count(), pre_ops, "an aborted transaction was logged");
                    }
                    Err(e) => return Err(e),
                }
            }
            Op::Write(w) => session::write(&mut Sink::Engine(pdb), cx, w)?,
            Op::Digest => assert_eq!(pdb.state_digest(), before, "maintained digest drifted"),
            Op::Sync => pdb.sync()?,
            Op::Checkpoint => pdb.checkpoint()?,
            Op::CrashReopen(tear) => {
                if pdb.sync().is_ok() {
                    node_floor(&mut self.nodes[self.writer]);
                }
                self.crash(self.writer, *tear);
            }
            Op::InstallOwnImage => {
                pdb.sync()?;
                let file = fs.contents(Path::new(PATH)).expect("the log exists");
                assert_eq!(pdb.install_log(&file)?, pre_ops as u64, "the install lost operations");
                assert_eq!(walk(pdb), before, "installing its own log moved the state");
            }
            Op::FailedAppend(target) => {
                fs.fail_after(Some(0));
                let r = session::write(&mut Sink::Engine(pdb), cx, &Write::SetAddress(*target, 0));
                fs.fail_after(None);
                assert!(!pdb.diverged(), "the rebuild from storage must succeed");
                assert_eq!(walk(pdb), before, "an unlogged write must be undone");
                r?;
            }
        }
        if matches!(op, Op::Sync | Op::Checkpoint | Op::InstallOwnImage) {
            node_floor(&mut self.nodes[self.writer]);
        }
        Ok(())
    }

    /// A write failure reached the session: check it is an I/O failure
    /// that left the committed boundary in memory. Returns whether the
    /// session stops.
    fn surface(&mut self, r: Result<(), EngineError>, stop: bool) -> bool {
        let Err(e) = r else { return false };
        let lost_sync = std::mem::take(&mut self.lost_sync);
        match &e {
            // An fsync is never retried; a transient append fault is,
            // to the budget.
            EngineError::Write { attempts: 1, .. } if lost_sync => {}
            EngineError::Write { fault: FaultKind::Transient, attempts, .. } => {
                assert_eq!(*attempts, RETRY_ATTEMPTS, "a transient fault is retried to the budget")
            }
            EngineError::Write { .. } | EngineError::ReadOnly { .. } | EngineError::Log(_) => {}
            e => panic!("unexpected failure kind under injected faults: {e}"),
        }
        let pdb = self.nodes[self.writer].pdb();
        let boundary = self.cx.history[pdb.op_count()];
        assert_eq!(walk(pdb), boundary, "a failed write left a partially applied state in memory");
        self.surfaced += 1;
        stop
    }

    /// After a surfaced failure on a dead disk: writes keep failing
    /// without touching the state until the breaker opens, and reads
    /// keep answering.
    fn degrade(&mut self) {
        let pdb = self.writer();
        let boundary = walk(pdb);
        for _ in 0..6 {
            match pdb.txn(|t| t.tick().map(|_| ())) {
                Err(EngineError::Write { .. } | EngineError::ReadOnly { .. }) => {}
                Err(e) => panic!("unexpected failure kind under injected faults: {e}"),
                Ok(()) => panic!("write succeeded on a dead disk"),
            }
            assert_eq!(walk(pdb), boundary, "failed txn mutated live state");
        }
        assert!(pdb.is_read_only(), "breaker still closed after repeated surfaced failures");
        assert!(pdb.db().check_database().is_consistent());
        let gauge = tchimera_obs::snapshot().gauge("storage.breaker.state");
        assert!(gauge.is_some(), "breaker gauge missing from the metrics snapshot");
    }

    /// Crash node `n` under `tear` and reopen it: the recovered state is
    /// the committed boundary at its op count, at or past its floor.
    fn crash(&mut self, n: usize, tear: TearMode) {
        let node = &mut self.nodes[n];
        let performed = node.pdb().op_count();
        let fs = node.fs.clone();
        node.rebuild(|pdb| {
            drop(pdb);
            fs.crash(tear);
            open(&fs).unwrap_or_else(|e| panic!("recovery ({tear:?}) failed: {e}"))
        });
        let pdb = node.pdb();
        let recovered = pdb.recovered_ops();
        assert!(recovered <= performed, "recovered {recovered} ops, {performed} were performed");
        let kept = node.damaged || recovered >= node.floor;
        assert!(kept, "durable ops lost (floor {}, recovered {recovered}, {tear:?})", node.floor);
        let boundary = self.cx.history[recovered];
        assert_eq!(walk(pdb), boundary, "recovered state is not the boundary at op {recovered}");
        assert!(pdb.db().check_database().is_consistent(), "recovered state fails Definition 5.6");
        node.floor = recovered;
        if n == self.writer && self.cx.record {
            self.cx.history.truncate(recovered + 1);
        }
    }

    /// Pump every end of the link once; with `sync`, the follower also
    /// syncs every third step.
    fn pump(&mut self, sync: bool) {
        let step = self.step;
        for node in &mut self.nodes {
            match &mut node.role {
                // A pump that ships has synced first.
                Role::Primary(p) => {
                    let shipped = p.pump().expect("primary pump");
                    node.floor = if shipped { p.db_ref().op_count() } else { node.floor };
                }
                Role::Replica(r) => {
                    r.pump().expect("replica pump");
                    if sync && step % 3 == 2 {
                        r.sync().expect("replica sync");
                        node.floor = r.applied() as usize;
                    }
                }
                _ => {}
            }
        }
    }

    /// Pump until the follower holds the primary's whole log.
    fn quiesce(&mut self) {
        for _ in 0..500 {
            self.pump(false);
            let total = self.nodes[self.writer].pdb().op_count() as u64;
            let r = self.follower();
            if r.halted().is_none() && r.applied() == total && r.lag() == 0 {
                return;
            }
        }
    }

    fn follower(&self) -> &Replica<Link> {
        self.nodes.iter().find_map(Node::replica).expect("the scenario has a follower")
    }

    /// The per-step oracles.
    fn oracles(&mut self) {
        for node in &self.nodes {
            let pdb = node.pdb();
            assert_eq!(pdb.db().clone().state_digest(), walk(pdb), "maintained digest drifted");
            assert!(pdb.db().check_database().is_consistent(), "Definition 5.6 fails");
            if let Some(v) = pdb.db().check_invariants().first() {
                panic!("{v}");
            }
            let Role::Replica(r) = &node.role else { continue };
            if r.halted().is_some() {
                continue;
            }
            let lag = r.lag();
            match r.read_view(0).map(|_| ()) {
                Ok(()) => assert_eq!(lag, 0, "a replica {lag} behind served a bounded read"),
                Err(ReplicaError::TooStale { lag: l, max_lag: 0 }) => assert_eq!(l, lag),
                Err(e) => panic!("expected TooStale, got {e:?}"),
            }
            assert!(r.read_view(lag).is_ok(), "a replica must serve a read its lag allows");
        }
        match self.watch {
            Watch::Nothing => {}
            Watch::Converged => self.converged(),
            Watch::Stall { applied, bad_at } => {
                let r = self.follower();
                assert_eq!(r.applied(), applied, "the follower's shipments moved past the damage");
                assert_eq!(r.halted(), None, "a refused record stalls, it does not halt");
                let log = |n: usize| self.nodes[n].fs.contents(Path::new(PATH)).expect("log");
                assert!(log(1) == log(0)[..bad_at], "the follower's log is not a prefix");
            }
        }
    }

    /// The follower equals its primary.
    fn converged(&mut self) {
        let p = self.nodes[self.writer].pdb();
        let (ops, digest) = (p.op_count() as u64, p.state_digest());
        assert!(p.db().check_database().is_consistent());
        let expect = self.cx.history[ops as usize];
        let r = self.follower();
        assert_eq!(r.halted(), None, "replica halted");
        assert_eq!(r.applied(), ops, "replica never converged");
        assert_eq!(r.db_ref().state_digest(), digest, "converged replica diverges from primary");
        assert_eq!(walk(r.db_ref()), expect, "converged replica is not at a committed boundary");
        assert!(r.db_ref().db().check_database().is_consistent());
    }

    /// Exactly one node accepts writes; both serve consistent reads.
    fn one_writer(&mut self) {
        for n in 0..self.nodes.len() {
            let pdb = self.nodes[n].pdb_mut();
            let r = pdb.txn(|t| t.tick().map(|_| ()));
            if n == self.writer {
                r.expect("the new primary accepts writes");
                self.cx.note(pdb.db());
            } else {
                assert!(matches!(r, Err(EngineError::ReadOnly { .. })), "two writers: {r:?}");
                let again = pdb.tick();
                assert!(matches!(again, Err(EngineError::ReadOnly { .. })), "{again:?}");
            }
            assert!(pdb.db().check_database().is_consistent());
        }
    }

    /// Promote the follower over a partitioned link, heal, and depose the
    /// old primary.
    fn promote(&mut self) {
        let follower = std::mem::replace(&mut self.nodes[1].role, Role::Down);
        let Role::Replica(r) = follower else { panic!("promote needs a follower") };
        let ops = r.applied() as usize;
        assert_eq!(walk(r.db_ref()), self.cx.history[ops], "promoted state is not a boundary");
        self.cx.history.truncate(ops + 1);
        let new = r.promote().expect("promote");
        let Role::Primary(old) = &self.nodes[0].role else { panic!("node 0 is the primary") };
        assert_eq!(new.term(), old.term() + 1, "a promote bumps the term");
        self.nodes[1].role = Role::Primary(new);
        self.writer = 1;
        self.link.as_ref().expect("a link").set_partitioned(false);
        let mut deposed = false;
        for _ in 0..200 {
            self.pump(false);
            let Role::Primary(old) = &mut self.nodes[0].role else { unreachable!() };
            if !old.pump().expect("old primary pump") {
                deposed = old.is_deposed();
                break;
            }
        }
        assert!(deposed, "the deposed primary must stop shipping");
        self.one_writer();
    }

    /// A thread reading a clone of the writer's state while the session
    /// goes on: reads never panic or see a torn state.
    fn spawn_reader(&mut self) {
        let snap = self.nodes[self.writer].pdb().db().clone();
        let seed = self.seed ^ self.step as u64;
        self.readers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            assert!(snap.check_database().is_consistent());
            let max_oid = snap.object_count() as u64 + 2;
            for _ in 0..50 {
                let oid = Oid(rng.gen_range(0..max_oid));
                let t = tchimera_core::Instant(rng.gen_range(0..snap.now().ticks() + 1));
                let _ = snap.attr_at(oid, &"salary".into(), t);
                let _ = snap.attr_at(oid, &"friend".into(), t);
            }
        }));
    }

    /// The row's expected outcome, then (on a single node) a crash and
    /// reopen that must land on the last durable boundary and replay
    /// exactly the records past the last checkpoint.
    fn finish(&mut self, row: &Scenario) {
        for r in self.readers.drain(..) {
            r.join().expect("reader thread panicked");
        }
        match row.expect {
            Expect::Holds => {}
            Expect::Absorbed => {
                assert_eq!(self.surfaced, 0, "a transient fault within the retry budget surfaced");
                assert!(!self.writer().is_read_only(), "absorbed faults must not feed the breaker");
            }
            Expect::Surfaces => {
                assert!(self.surfaced > 0, "no write outlived the retry budget");
                let pdb = self.writer();
                assert!(!pdb.is_read_only(), "a single exhaustion is below the breaker threshold");
                pdb.txn(|t| t.tick().map(|_| ())).expect("writes resume after the burst");
                self.cx.note(self.nodes[self.writer].pdb().db());
            }
            Expect::Progress => assert!(self.cx.history.len() > 2, "no commit got through"),
            Expect::Converges | Expect::ConvergesViaImage => {
                self.quiesce();
                self.converged();
                let image = self.follower().db_ref().base_op() > 0;
                let only = row.expect == Expect::Converges;
                assert!(image || only, "the follower never caught up through a state image");
                let log = |n: usize| self.nodes[n].fs.contents(Path::new(PATH)).expect("log");
                assert!(only || log(0) == log(1), "the follower's log is not its primary's");
            }
            Expect::OneWriter => self.one_writer(),
        }
        if self.link.is_none() {
            let w = self.writer;
            if self.nodes[w].pdb_mut().sync().is_ok() {
                node_floor(&mut self.nodes[w]);
            }
            self.crash(w, TearMode::DropAll);
            let pdb = self.nodes[w].pdb();
            let (ops, base) = (pdb.recovered_ops() as u64, pdb.base_op());
            let replayed = pdb.recovered_replayed() as u64;
            assert_eq!(replayed, ops - base, "a reopen replays the records past the checkpoint");
            assert_eq!(pdb.recovered_from_snapshot(), base > 0);
        }
    }
}

fn node_floor(node: &mut Node) {
    node.floor = node.pdb().op_count();
}

/// Every I/O × `tear`: run the session once fault-free, recording the
/// boundary after every log record and the I/O count; then for every
/// `k` fail every I/O from the `k`-th on, stop at the first surfaced
/// failure, check the engine degrades read-only, crash and recover.
fn matrix(row: &Scenario, seed: u64, tear: TearMode) {
    let mut reference = World::new(row, seed);
    assert!(reference.session(row, false), "the reference run is fault-free");
    let logical = reference.cx.logical;
    assert!(logical >= 200, "workload too small: {logical} logical ops");
    let total = reference.nodes[0].fs.op_count();
    let history = reference.cx.history.clone();
    reference.finish(row);
    for k in 0..total {
        AT.with(|at| at.set((0, Some(k))));
        let fs = SimFs::new();
        fs.fail_after(Some(k));
        let Ok(pdb) = open(&fs) else {
            fs.crash(tear);
            let pdb = open(&fs).expect("recovery of a disk that died while opening");
            assert_eq!((pdb.recovered_ops(), walk(&pdb)), (0, history[0]));
            continue;
        };
        let mut w = World::with(seed, fs, pdb, history.clone());
        // A session the fault never reached has nothing more to check.
        if !w.session(row, true) {
            w.degrade();
            w.crash(0, tear);
        }
    }
}

/// Run `row` at `seed`; on failure print the one-line reproducer.
fn run_seed(row: &Scenario, seed: u64) {
    AT.with(|at| at.set((0, None)));
    let out = std::panic::catch_unwind(AssertUnwindSafe(|| match row.every_io {
        Some(tear) => matrix(row, seed, tear),
        None => {
            let mut w = World::new(row, seed);
            w.session(row, false);
            w.finish(row);
        }
    }));
    if let Err(panic) = out {
        let (step, io) = AT.with(Cell::get);
        let io = io.map(|k| format!(" (I/O fault at {k})")).unwrap_or_default();
        let name = &row.name;
        eprintln!(
            "scenario {name} seed {seed} failed at step {step}{io}; \
             replay: tchimera_storage::sim::replay({name:?}, {seed})"
        );
        std::panic::resume_unwind(panic);
    }
}

fn row(name: &str) -> Scenario {
    scenarios()
        .into_iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no scenario named {name}"))
}

/// Run the scenario `name` at `seed` (the reproducer a failure prints).
pub fn replay(name: &str, seed: u64) {
    run_seed(&row(name), seed);
}

/// Run every scenario whose name starts with `prefix` over its whole
/// seed range.
pub fn run(prefix: &str) {
    let rows: Vec<_> = scenarios().into_iter().filter(|r| r.name.starts_with(prefix)).collect();
    assert!(!rows.is_empty(), "no scenario starts with {prefix}");
    rows.iter().for_each(|row| row.seeds.clone().for_each(|seed| run_seed(row, seed)));
}

/// Run every scenario at the first seed of its range.
pub fn smoke() {
    scenarios().iter().for_each(|row| run_seed(row, row.seeds.start));
}

/// The world of scenario `name` at `seed` after its session (events
/// included) and before its expected outcome is checked: for tests that
/// own a process-global metric and drive the rest themselves.
pub fn build(name: &str, seed: u64) -> World {
    let row = row(name);
    let mut w = World::new(&row, seed);
    w.session(&row, false);
    w
}

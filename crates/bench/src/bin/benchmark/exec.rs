//! The client side of a workload: one closed loop on one thread that
//! hands the program a statement, waits for it to complete, and times it.
//!
//! A statement arrives as TCQL text. Writes are parsed and dispatched to
//! the matching `PersistentDatabase` method (the same ~40-line match
//! `Interpreter::execute` has for an in-memory `Database`), then made
//! durable with `sync()` — the flush policy everywhere is *fsync per
//! acknowledged write*. On a replicated node a write completes only when
//! the replica has applied it. Reads go through `ReplicaSession::run`,
//! the program's read-only front door; the traced pass takes the same
//! steps one public call at a time so each can carry a span.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tchimera_core::{Attrs, Database, Instant as T, Oid};
use tchimera_query::{
    execute_plan, parse, ExecOptions, ExecStats, Literal, Outcome, PlanCache, QueryResult,
    ReplicaSession, Stmt as Ast,
};
use tchimera_storage::{
    Codec, OpLog, Operation, PersistentDatabase, Primary, Replica, SimFs, SimNetConfig,
    SimTransport, StdFs, Vfs, VfsFile,
};

use crate::counting::{CountingTransport, CountingVfs, EventLog, VfsCounts, WireCounts};
use crate::gen::{Kind, Lit, Op, Stmt};
use crate::trace::Tracer;

/// A failed operation, as text for the report.
pub type Fail = String;

fn fail<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> Fail + '_ {
    move |e| format!("{what}: {e}")
}

/// The transport type of every replication link the driver builds.
pub type Wire = CountingTransport<SimTransport>;

/// Which filesystem a node lives on.
#[derive(Clone)]
pub enum Disk {
    /// The real filesystem, under this directory.
    Std(PathBuf),
    /// The deterministic in-memory filesystem (no device noise).
    Sim(SimFs),
}

impl Disk {
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        match self {
            Disk::Std(_) => Arc::new(StdFs),
            Disk::Sim(fs) => Arc::new(fs.clone()),
        }
    }

    /// The path of a file called `name` on this disk.
    pub fn path(&self, name: &str) -> PathBuf {
        match self {
            Disk::Std(dir) => dir.join(name),
            Disk::Sim(_) => PathBuf::from(name),
        }
    }
}

/// A [`Vfs`] that stores nothing: the backing of the traced pass's mirror
/// log, which exists to time `OpLog::append` without a device under it.
struct NullVfs;
struct NullFile;

impl VfsFile for NullFile {
    fn write_all(&mut self, _buf: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn set_len(&mut self, _len: u64) -> std::io::Result<()> {
        Ok(())
    }
}

impl Vfs for NullVfs {
    fn open_append(&self, _path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(NullFile))
    }
    fn open_trunc(&self, _path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(NullFile))
    }
    fn read(&self, _path: &Path) -> std::io::Result<Vec<u8>> {
        Ok(Vec::new())
    }
    fn rename(&self, _from: &Path, _to: &Path) -> std::io::Result<()> {
        Ok(())
    }
    fn remove(&self, _path: &Path) -> std::io::Result<()> {
        Ok(())
    }
    fn sync_dir(&self, _path: &Path) -> std::io::Result<()> {
        Ok(())
    }
    fn exists(&self, _path: &Path) -> bool {
        false
    }
}

/// What the traced pass keeps beside a node to measure, from outside,
/// the layers it cannot span: a mirror `Database` that receives every
/// logged operation (the model's share of a write), a mirror log on a
/// null device (framing + CRC + encoding), and the counting wrappers'
/// shared totals and event log.
pub struct Instruments {
    pub vfs: Arc<VfsCounts>,
    pub wire: Arc<WireCounts>,
    pub events: EventLog,
    mirror: Database,
    mirror_log: OpLog,
    pub codec_bytes: u64,
    pub dml_ops: u64,
    /// What the mirrors added to the program's own counters (the mirror
    /// `Database` and log run the program's code): `(name, handle, sum)`.
    mirror_counts: Vec<(&'static str, &'static tchimera_obs::Counter, u64)>,
    /// Digests to time once the statement's root span is closed:
    /// `(primary pump span, replica pump span, replica digest checks)`.
    deferred_digests: Vec<(u32, u32, u64)>,
    scan_hist: &'static tchimera_obs::Histogram,
    digest_checks: &'static tchimera_obs::Counter,
}

/// Program counters the traced pass's mirrors bump.
pub const MIRRORED_COUNTERS: [&str; 6] = [
    "core.refindex.incremental",
    "core.refindex.rebuilds",
    "core.attridx.incremental",
    "core.attridx.reconciles",
    "storage.log.appends",
    "storage.log.bytes",
];

impl Instruments {
    fn new() -> Instruments {
        let (mirror_log, _) = OpLog::open_with(Arc::new(NullVfs), Path::new("mirror.log"))
            .expect("a null device cannot fail");
        Instruments {
            vfs: Arc::default(),
            wire: Arc::default(),
            events: EventLog::default(),
            mirror: Database::new(),
            mirror_log,
            codec_bytes: 0,
            dml_ops: 0,
            mirror_counts: MIRRORED_COUNTERS
                .iter()
                .map(|n| (*n, tchimera_obs::registry().counter(n), 0))
                .collect(),
            deferred_digests: Vec::new(),
            scan_hist: tchimera_obs::registry().histogram("storage.log.scan"),
            digest_checks: tchimera_obs::registry().counter("repl.digest.checks"),
        }
    }

    /// How much of counter `name` came from the mirrors, not the node.
    pub fn mirrored(&self, name: &str) -> u64 {
        self.mirror_counts
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(0, |(.., sum)| *sum)
    }

    /// Wrap `inner` so that it feeds these instruments.
    fn counting_vfs(&mut self, inner: Arc<dyn Vfs>) -> Arc<dyn Vfs> {
        let c = CountingVfs::with_shared(inner, Arc::clone(&self.vfs), self.events.clone());
        Arc::new(c)
    }

    /// Bring the mirror to the node's current state (set-up wrote to the
    /// node without going through [`Env::run`]).
    fn resync(&mut self, db: &Database) {
        self.mirror = db.clone();
        self.events.drain();
        (self.codec_bytes, self.dml_ops) = (0, 0);
        self.mirror_counts.iter_mut().for_each(|(.., sum)| *sum = 0);
    }

    /// Measure, beside the real call, what one logged operation costs the
    /// model, the codec and the log; record each under `parent`.
    fn mirror_write(&mut self, op: &Operation, parent: u32, tr: &mut Tracer) -> Result<(), Fail> {
        let before: Vec<u64> = self.mirror_counts.iter().map(|(_, c, _)| c.get()).collect();
        let t0 = Instant::now();
        op.apply(&mut self.mirror).map_err(fail("mirror apply"))?;
        let core = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        let bytes = std::hint::black_box(op.to_bytes());
        let codec = t1.elapsed().as_nanos() as u64;
        let t2 = Instant::now();
        self.mirror_log
            .append(op)
            .map_err(fail("mirror log append"))?;
        let log = t2.elapsed().as_nanos() as u64;
        self.codec_bytes += bytes.len() as u64;
        self.dml_ops += 1;
        for ((_, c, sum), before) in self.mirror_counts.iter_mut().zip(before) {
            *sum += c.get() - before;
        }
        tr.virt_ns_under(parent, "core.dml", core);
        tr.virt_ns_under(parent, "storage.codec.encode", codec);
        // `OpLog::append` encodes too; what is left is framing and CRC.
        tr.virt_ns_under(parent, "storage.log", log.saturating_sub(codec));
        Ok(())
    }
}

/// The system under test: a single durable database, or a primary with
/// one replica attached over a clean simulated link.
pub enum Node {
    Local(Box<PersistentDatabase>),
    Pair {
        primary: Box<Primary<Wire>>,
        replica: Box<Replica<Wire>>,
    },
}

/// A node plus the client's state against it.
pub struct Env {
    pub node: Node,
    pub disk: Disk,
    /// The node's filesystem (the counting wrapper in the traced pass).
    pub fs: Arc<dyn Vfs>,
    pub path: PathBuf,
    /// The read front door of the untraced pass.
    session: ReplicaSession,
    /// The traced pass's own plan cache (it calls the planner itself).
    plans: PlanCache,
    pub instr: Option<Instruments>,
    /// Plan-cache hits and misses and executor statistics seen by the
    /// traced read path.
    pub read_stats: ReadStats,
    lag: LagStats,
}

/// Executor-side counts of the traced read path.
#[derive(Clone, Debug, Default)]
pub struct ReadStats {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub bindings: u64,
    pub rows: u64,
    pub partitions: u64,
    pub parse_errors: u64,
}

fn lit_value(l: &Lit) -> tchimera_core::Value {
    use tchimera_core::Value;
    match l {
        Lit::Int(v) => Value::Int(*v),
        Lit::Str(s) => Value::str(*s),
        Lit::Oid(o) => Value::Oid(Oid(*o)),
    }
}

/// Apply a generated mutation through the API (set-up only: the measured
/// phases send text).
pub fn apply_op(pdb: &mut PersistentDatabase, op: &Op) -> Result<(), Fail> {
    let init = |init: &[(String, Lit)]| -> Attrs {
        init.iter()
            .map(|(n, l)| (n.as_str().into(), lit_value(l)))
            .collect()
    };
    match op {
        Op::Tick(n) => pdb.advance_to(T(pdb.db().now().ticks() + n)),
        Op::Create { class, init: i } => pdb
            .create_object(&class.as_str().into(), init(i))
            .map(|_| ()),
        Op::Set { oid, attr, value } => pdb.set_attr(Oid(*oid), &(*attr).into(), lit_value(value)),
        Op::Migrate { oid, to, init: i } => pdb.migrate(Oid(*oid), &(*to).into(), init(i)),
        Op::Terminate { oid } => pdb.terminate_object(Oid(*oid)),
    }
    .map_err(|e| format!("{}: {e}", op.render()))
}

/// Dispatch a parsed mutating statement to the `PersistentDatabase`
/// method that logs it. With `want_op` the logged [`Operation`] is
/// rebuilt and returned for the traced pass's mirrors.
fn dispatch(
    pdb: &mut PersistentDatabase,
    stmt: Ast,
    want_op: bool,
) -> Result<Option<Operation>, Fail> {
    let values = |init: Vec<(tchimera_core::AttrName, Literal)>| -> Attrs {
        init.into_iter().map(|(n, l)| (n, l.to_value())).collect()
    };
    let err = fail("engine");
    Ok(match stmt {
        Ast::DefineClass(def) => {
            let op = want_op.then(|| Operation::DefineClass(def.clone()));
            pdb.define_class(def).map_err(err)?;
            op
        }
        Ast::Create { class, init } => {
            let init = values(init);
            let kept = want_op.then(|| init.clone());
            let oid = pdb.create_object(&class, init).map_err(err)?;
            kept.map(|init| Operation::CreateObject {
                class,
                init,
                expect: oid,
            })
        }
        Ast::Set { oid, attr, value } => {
            let value = value.to_value();
            let op = want_op.then(|| Operation::SetAttr {
                oid: Oid(oid),
                attr: attr.clone(),
                value: value.clone(),
            });
            pdb.set_attr(Oid(oid), &attr, value).map_err(err)?;
            op
        }
        Ast::Migrate { oid, to, init } => {
            let init = values(init);
            let op = want_op.then(|| Operation::Migrate {
                oid: Oid(oid),
                to: to.clone(),
                init: init.clone(),
            });
            pdb.migrate(Oid(oid), &to, init).map_err(err)?;
            op
        }
        Ast::Terminate { oid } => {
            pdb.terminate_object(Oid(oid)).map_err(err)?;
            want_op.then_some(Operation::Terminate { oid: Oid(oid) })
        }
        Ast::Tick(n) => {
            let t = T(pdb.db().now().ticks() + n);
            pdb.advance_to(t).map_err(err)?;
            want_op.then_some(Operation::AdvanceTo(t))
        }
        Ast::AdvanceTo(t) => {
            pdb.advance_to(T(t)).map_err(err)?;
            want_op.then_some(Operation::AdvanceTo(T(t)))
        }
        other => {
            return Err(format!(
                "not a mutating statement the workloads send: {other:?}"
            ))
        }
    })
}

/// How far the replica was behind when a shipment reached it.
#[derive(Clone, Copy, Debug, Default)]
pub struct LagStats {
    pub pumps: u64,
    pub lag_sum: u64,
    pub lag_max: u64,
}

/// Ship until the replica has applied everything the primary logged.
fn replicate(
    primary: &mut Primary<Wire>,
    replica: &mut Replica<Wire>,
    tr: &mut Tracer,
    instr: &mut Option<Instruments>,
    lag: &mut LagStats,
) -> Result<(), Fail> {
    for _ in 0..64 {
        let before = instr
            .as_ref()
            .map(|i| (i.scan_hist.sum(), i.digest_checks.get()));
        tr.enter("storage.repl.primary");
        primary.pump().map_err(fail("primary pump"))?;
        if let Some(i) = instr {
            tr.adopt(i.events.drain());
        }
        let pump = tr.exit();
        let behind = (primary.db_ref().op_count() as u64).saturating_sub(replica.applied());
        lag.pumps += 1;
        lag.lag_sum += behind;
        lag.lag_max = lag.lag_max.max(behind);
        tr.enter("storage.repl.replica");
        replica.pump().map_err(fail("replica pump"))?;
        if let Some(i) = instr {
            tr.adopt(i.events.drain());
        }
        let apply = tr.exit();
        if let (Some(i), Some((scanned, checks))) = (instr.as_mut(), before) {
            // Inside the pumps, unreachable from outside: the log re-scan
            // (it has a latency histogram of its own) and the full-state
            // digests (timed on the same state once the statement is over).
            tr.virt_ns_under(pump, "storage.log.scan", i.scan_hist.sum() - scanned);
            i.deferred_digests
                .push((pump, apply, i.digest_checks.get() - checks));
        }
        if replica.applied() >= primary.db_ref().op_count() as u64 {
            return match replica.halted() {
                None => Ok(()),
                Some(why) => Err(format!("replica halted: {why}")),
            };
        }
    }
    Err("replica did not converge in 64 pump rounds".to_owned())
}

/// The view a read is served from. On a replicated node that is the
/// replica's, with bounded staleness 0: it must be level with the primary
/// or the read is refused (and counts as failed).
fn read_view(node: &Node) -> Result<&Database, Fail> {
    match node {
        Node::Local(pdb) => Ok(pdb.db()),
        Node::Pair { replica, .. } => replica.read_view(0).map_err(fail("replica read")),
    }
}

impl Env {
    /// Open an empty node on `disk` at file `name`. `replicated` attaches
    /// a replica on a filesystem of its own; `traced` wraps filesystem and
    /// link in the counting wrappers and sets up the mirrors.
    pub fn open(disk: Disk, name: &str, replicated: bool, traced: bool) -> Result<Env, Fail> {
        let mut instr = traced.then(Instruments::new);
        let path = disk.path(name);
        let mut fs = disk.vfs();
        if let Some(i) = &mut instr {
            fs = i.counting_vfs(fs);
        }
        let pdb = PersistentDatabase::open_with(Arc::clone(&fs), &path).map_err(fail("open"))?;
        let node = if replicated {
            let (wire, events) = match &instr {
                Some(i) => (Arc::clone(&i.wire), Some(i.events.clone())),
                None => (Arc::default(), None),
            };
            let (pt, rt) = SimTransport::pair(1, SimNetConfig::clean());
            let mut rfs: Arc<dyn Vfs> = Arc::new(SimFs::new());
            if let Some(i) = &mut instr {
                rfs = i.counting_vfs(rfs);
            }
            let rdb = PersistentDatabase::open_with(rfs, Path::new("replica.log"))
                .map_err(fail("open replica"))?;
            Node::Pair {
                primary: Box::new(Primary::new(
                    pdb,
                    1,
                    CountingTransport::new(pt, wire, events.clone()),
                )),
                // Only the primary's sends count as wire traffic per op;
                // the replica's acks go to a counter nobody reads.
                replica: Box::new(Replica::new(
                    rdb,
                    CountingTransport::new(rt, Arc::default(), events),
                )),
            }
        } else {
            Node::Local(Box::new(pdb))
        };
        Ok(Env {
            node,
            disk,
            fs,
            path,
            session: ReplicaSession::new(),
            plans: PlanCache::default(),
            instr,
            read_stats: ReadStats::default(),
            lag: LagStats::default(),
        })
    }

    /// The writable database of the node.
    pub fn pdb(&mut self) -> &mut PersistentDatabase {
        match &mut self.node {
            Node::Local(pdb) => pdb,
            Node::Pair { primary, .. } => primary.db(),
        }
    }

    /// The database reads are served from: the replica's when there is one.
    pub fn read_db(&self) -> &Database {
        match &self.node {
            Node::Local(pdb) => pdb.db(),
            Node::Pair { replica, .. } => replica.db_ref().db(),
        }
    }

    /// End of set-up: make the base state durable, bring the replica and
    /// the mirrors level with it.
    pub fn settle(&mut self) -> Result<(), Fail> {
        self.pdb().sync().map_err(fail("sync"))?;
        if let Node::Pair { primary, replica } = &mut self.node {
            replicate(
                primary,
                replica,
                &mut Tracer::off(),
                &mut None,
                &mut LagStats::default(),
            )?;
        }
        if let Some(i) = &mut self.instr {
            let db = match &self.node {
                Node::Local(pdb) => pdb.db(),
                Node::Pair { primary, .. } => primary.database(),
            };
            i.resync(db);
        }
        Ok(())
    }

    /// Mean and maximum number of operations the replica was behind when
    /// a shipment reached it, over the measured statements.
    pub fn lag_stats(&self) -> (f64, u64) {
        let mean = if self.lag.pumps == 0 {
            0.0
        } else {
            self.lag.lag_sum as f64 / self.lag.pumps as f64
        };
        (mean, self.lag.lag_max)
    }

    /// Give up the replica (if any) and keep the durable database.
    pub fn into_local(self) -> (PersistentDatabase, Disk, Arc<dyn Vfs>, PathBuf) {
        let pdb = match self.node {
            Node::Local(pdb) => *pdb,
            Node::Pair { primary, .. } => primary.into_parts().0,
        };
        (pdb, self.disk, self.fs, self.path)
    }

    /// Run one statement to completion and return its latency in
    /// nanoseconds. Any refusal, error or non-table read result is a
    /// failure.
    pub fn run(&mut self, s: &Stmt, tr: &mut Tracer) -> Result<u64, Fail> {
        if s.kind.is_write() {
            self.write(&s.text, tr)
        } else if tr.enabled() {
            self.read_traced(&s.text, tr)
        } else {
            self.read(&s.text).map(|(ns, _)| ns)
        }
    }

    fn write(&mut self, text: &str, tr: &mut Tracer) -> Result<u64, Fail> {
        let t0 = Instant::now();
        tr.begin_stmt("stmt");
        tr.enter("query.parser");
        let parsed = parse(text);
        tr.exit();
        let ast = parsed.map_err(|e| {
            self.read_stats.parse_errors += 1;
            format!("{text}: {e}")
        })?;
        tr.enter("storage.engine");
        let traced = self.instr.is_some();
        let op = dispatch(self.pdb(), ast, traced).map_err(|e| format!("{text}: {e}"))?;
        match &mut self.node {
            // Flush policy: fsync per acknowledged write.
            Node::Local(pdb) => pdb.sync().map_err(fail("sync"))?,
            // `Primary::pump` syncs before it ships.
            Node::Pair { .. } => {}
        }
        if let Some(i) = &self.instr {
            tr.adopt(i.events.drain());
        }
        let engine = tr.exit();
        if let Node::Pair { primary, replica } = &mut self.node {
            replicate(primary, replica, tr, &mut self.instr, &mut self.lag)?;
        }
        tr.exit();
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(i) = &mut self.instr {
            if let Some(op) = &op {
                i.mirror_write(op, engine, tr)?;
            }
            if let Node::Pair { primary, replica } = &self.node {
                for (pump, apply, checks) in i.deferred_digests.drain(..) {
                    tr.virt_under(pump, "storage.engine.digest", || {
                        primary.db_ref().state_digest()
                    });
                    for _ in 0..checks {
                        tr.virt_under(apply, "storage.engine.digest", || {
                            replica.db_ref().state_digest()
                        });
                    }
                }
            }
        }
        Ok(ns)
    }

    /// A read through the program's front door; returns latency and rows.
    pub fn read(&mut self, text: &str) -> Result<(u64, QueryResult), Fail> {
        let t0 = Instant::now();
        let db = read_view(&self.node)?;
        let out = self.session.run(db, text);
        let ns = t0.elapsed().as_nanos() as u64;
        match out {
            Ok(Outcome::Table(rows)) => Ok((ns, rows)),
            Ok(other) => Err(format!("{text}: not a table: {other:?}")),
            Err(e) => Err(format!("{text}: {e}")),
        }
    }

    /// The same read, one public call per layer so each carries a span:
    /// parse, plan (type-check + plan or cache hit), execute under the
    /// admission gate and the default budget — the steps
    /// `ReplicaSession::execute` takes.
    fn read_traced(&mut self, text: &str, tr: &mut Tracer) -> Result<u64, Fail> {
        let t0 = Instant::now();
        tr.begin_stmt("stmt");
        let db = read_view(&self.node)?;
        tr.enter("query.parser");
        let parsed = parse(text);
        tr.exit();
        let q = match parsed {
            Ok(Ast::Select(q)) => q,
            Ok(other) => return Err(format!("{text}: not a select: {other:?}")),
            Err(e) => {
                self.read_stats.parse_errors += 1;
                return Err(format!("{text}: {e}"));
            }
        };
        tr.enter("query.plan");
        let planned = self.plans.get_or_plan(db.schema(), &q);
        tr.exit();
        let (plan, hit) = planned.map_err(|e| format!("{text}: {e}"))?;
        tr.enter("query.exec");
        let permit = db.admission().try_enter();
        let opts = ExecOptions {
            budget: Some(self.session.budget().clone()),
            ..ExecOptions::default()
        };
        let out: Result<(QueryResult, ExecStats), _> = match &permit {
            Some(_) => execute_plan(db, &plan, &opts).map_err(|e| format!("{text}: {e}")),
            None => Err(format!("{text}: shed by admission control")),
        };
        drop(permit);
        tr.exit();
        tr.exit();
        let ns = t0.elapsed().as_nanos() as u64;
        let (_, stats) = out?;
        let r = &mut self.read_stats;
        if hit {
            r.plan_hits += 1;
        } else {
            r.plan_misses += 1;
        }
        r.bindings += stats.bindings;
        r.rows += stats.rows as u64;
        r.partitions += stats.partitions as u64;
        Ok(ns)
    }
}

/// Outcome counts, with the first few failures kept verbatim.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<Fail>,
}

impl Tally {
    /// Count one operation; an `Err` is a failed one.
    pub fn record<T>(&mut self, r: Result<T, Fail>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                None
            }
        }
    }
}

/// Send `stmts` one after another (closed loop, one client), record each
/// latency (nanoseconds) by kind, and return the phase's completed
/// statements per second. A failed statement has no latency: it counts.
pub fn run_statements(
    env: &mut Env,
    stmts: &[Stmt],
    tr: &mut Tracer,
    samples: &mut Vec<(Kind, f64)>,
    tally: &mut Tally,
) -> Option<f64> {
    let start = Instant::now();
    let before = samples.len();
    for s in stmts {
        if let Some(ns) = tally.record(env.run(s, tr)) {
            samples.push((s.kind, ns as f64));
        }
    }
    let done = samples.len() - before;
    (done > 0).then(|| done as f64 / start.elapsed().as_secs_f64())
}

/// Bytes of encoded user values in a log: what the client asked to store,
/// as opposed to what storing it costs.
pub fn user_bytes(ops: &[Operation]) -> u64 {
    fn of(op: &Operation) -> u64 {
        let attrs = |a: &Attrs| a.values().map(|v| v.to_bytes().len() as u64).sum::<u64>();
        match op {
            Operation::CreateObject { init, .. } | Operation::Migrate { init, .. } => attrs(init),
            Operation::SetAttr { value, .. } | Operation::SetCAttr { value, .. } => {
                value.to_bytes().len() as u64
            }
            Operation::Txn(ops) => ops.iter().map(of).sum(),
            Operation::AdvanceTo(_)
            | Operation::DefineClass(_)
            | Operation::DropClass(_)
            | Operation::Terminate { .. } => 0,
        }
    }
    ops.iter().map(of).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, BaseSize, Mix, Rng};

    fn small_env(replicated: bool, traced: bool) -> (Env, gen::Population, Rng) {
        let mut rng = Rng::new(11);
        let mut env = Env::open(Disk::Sim(SimFs::new()), "t.log", replicated, traced).unwrap();
        for ddl in gen::schema() {
            dispatch(env.pdb(), parse(&ddl).unwrap(), false).unwrap();
        }
        let (ops, pop) = gen::base_state(
            BaseSize {
                objects: 64,
                updates: 2,
            },
            &mut rng,
        );
        for op in &ops {
            apply_op(env.pdb(), op).unwrap();
        }
        env.settle().unwrap();
        (env, pop, rng)
    }

    fn mixed() -> Mix {
        Mix(vec![
            (Kind::Create, 20),
            (Kind::SetDept, 10),
            (Kind::SetV, 35),
            (Kind::Tick, 8),
            (Kind::Migrate, 4),
            (Kind::Terminate, 3),
            (Kind::Point, 10),
            (Kind::AsOf, 5),
            (Kind::Adhoc, 5),
        ])
    }

    #[test]
    fn text_dispatch_and_api_apply_build_the_same_state() {
        let (mut a, mut pop_a, mut rng_a) = small_env(false, false);
        let (mut b, mut pop_b, mut rng_b) = small_env(false, false);
        let mix = Mix(vec![
            (Kind::Create, 10),
            (Kind::SetV, 30),
            (Kind::Tick, 4),
            (Kind::Migrate, 6),
            (Kind::Terminate, 3),
        ]);
        for (_, op) in gen::write_ops(&mut pop_a, &mix, &mut rng_a) {
            apply_op(a.pdb(), &op).unwrap();
        }
        for (kind, op) in gen::write_ops(&mut pop_b, &mix, &mut rng_b) {
            b.run(
                &Stmt {
                    kind,
                    text: op.render(),
                },
                &mut Tracer::off(),
            )
            .unwrap();
        }
        assert_eq!(a.pdb().state_digest(), b.pdb().state_digest());
        assert_eq!(a.pdb().op_count(), b.pdb().op_count());
    }

    #[test]
    fn every_generated_statement_succeeds_on_every_kind_of_node() {
        for (replicated, traced) in [(false, false), (false, true), (true, false), (true, true)] {
            let (mut env, mut pop, mut rng) = small_env(replicated, traced);
            let mut lits = gen::QueryLiterals::new(&pop, &mut rng);
            let stmts = gen::statements(&mut pop, &mut lits, &mixed(), &mut rng);
            let mut tr = if traced {
                Tracer::on(4096)
            } else {
                Tracer::off()
            };
            let (mut samples, mut tally) = (Vec::new(), Tally::default());
            let rate = run_statements(&mut env, &stmts, &mut tr, &mut samples, &mut tally);
            assert_eq!(
                tally.failed, 0,
                "replicated={replicated} traced={traced}: {:?}",
                tally.errors
            );
            assert_eq!((tally.attempted, samples.len()), (100, 100));
            assert!(rate.is_some_and(|r| r > 0.0));
            assert!(tchimera_core::Database::check_database(env.read_db()).is_consistent());
            if let Node::Pair { primary, replica } = &env.node {
                assert_eq!(
                    primary.db_ref().state_digest(),
                    replica.db_ref().state_digest()
                );
            }
            if traced {
                let i = env.instr.as_ref().unwrap();
                // The mirror saw every logged op, so it equals the node.
                assert_eq!(
                    tchimera_storage::digest_database(&i.mirror),
                    env.pdb().state_digest()
                );
                let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
                for want in [
                    "stmt",
                    "query.parser",
                    "storage.engine",
                    "core.dml",
                    "storage.vfs.fsync",
                    "query.exec",
                ] {
                    assert!(names.contains(&want), "no {want} span");
                }
                assert_eq!(names.contains(&"storage.repl.primary"), replicated);
                assert_eq!(env.read_stats.plan_hits + env.read_stats.plan_misses, 20);
            }
        }
    }

    #[test]
    fn a_refused_statement_is_a_failure_not_a_latency() {
        let (mut env, _, _) = small_env(false, false);
        let (mut samples, mut tally) = (Vec::new(), Tally::default());
        let bad = [
            Stmt {
                kind: Kind::SetV,
                text: "set #999999.v := 1".into(),
            },
            Stmt {
                kind: Kind::Point,
                text: "select e from nosuch e".into(),
            },
            Stmt {
                kind: Kind::Point,
                text: "select".into(),
            },
        ];
        let rate = run_statements(&mut env, &bad, &mut Tracer::off(), &mut samples, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (3, 3));
        assert!(samples.is_empty() && rate.is_none());
    }

    #[test]
    fn user_bytes_counts_values_not_framing() {
        use tchimera_core::{attrs, Value};
        let ops = vec![
            Operation::AdvanceTo(T(3)),
            Operation::SetAttr {
                oid: Oid(1),
                attr: "v".into(),
                value: Value::Int(5),
            },
            Operation::CreateObject {
                class: "emp".into(),
                init: attrs([("dept", Value::str("rare"))]),
                expect: Oid(2),
            },
        ];
        let expect = Value::Int(5).to_bytes().len() + Value::str("rare").to_bytes().len();
        assert_eq!(user_bytes(&ops), expect as u64);
    }
}

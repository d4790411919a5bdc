//! The measured phases that are not statement traffic: the recovery /
//! checkpoint / scrub lifecycle, follower catch-up, and the crash
//! durability pass.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tchimera_core::Database;
use tchimera_storage::{
    digest_database, load_snapshot, snapshot_path, write_snapshot, Codec, OpLog, Operation,
    PersistentDatabase, Primary, Replica, SimFs, SimNetConfig, SimTransport, TearMode, Vfs,
};

use crate::counting::{CountingTransport, EventLog};
use crate::exec::{apply_op, user_bytes, Disk, Fail, Tally};
use crate::gen::Op;
use crate::trace::Tracer;

/// Durations (seconds) the lifecycle phase collects, one per repetition.
#[derive(Clone, Debug, Default)]
pub struct LifeSamples {
    pub recover_full_s: Vec<f64>,
    pub checkpoint_s: Vec<f64>,
    pub recover_snap_s: Vec<f64>,
    pub scrub_s: Vec<f64>,
    /// (log bytes before the checkpoint + snapshot bytes) ÷ user bytes.
    pub disk_ratio: Vec<f64>,
    pub snapshot_bytes: u64,
    pub log_bytes: u64,
    pub user_bytes: u64,
    pub replayed_ops: u64,
}

/// What a lifecycle repetition starts from: the bytes of an uncompacted
/// log and the digest of the state they replay to.
pub struct Pristine {
    pub log: Vec<u8>,
    pub digest: u64,
    /// Encoded user values in the log (see [`user_bytes`]).
    pub user_bytes: u64,
}

impl Pristine {
    /// Capture the log of `pdb` (which must never have been checkpointed),
    /// reading it through `fs`.
    pub fn capture(
        pdb: &mut PersistentDatabase,
        fs: &Arc<dyn Vfs>,
        path: &Path,
    ) -> Result<Pristine, Fail> {
        pdb.sync().map_err(|e| format!("sync: {e}"))?;
        if pdb.base_op() != 0 {
            return Err("the log was compacted: no full history to replay".to_owned());
        }
        let log = fs.read(path).map_err(|e| format!("read log: {e}"))?;
        let user_bytes = user_bytes(&OpLog::scan_bytes(&log).ops).max(1);
        Ok(Pristine {
            log,
            digest: pdb.state_digest(),
            user_bytes,
        })
    }
}

/// Costs of lifecycle internals that cannot be spanned from outside,
/// each measured once by calling the same public function on the same
/// input (see `trace.rs` on virtual children).
#[derive(Clone, Debug, Default)]
pub struct LifeCosts {
    pub scan_ns: u64,
    pub decode_ns: u64,
    pub replay_ns: u64,
    pub export_ns: u64,
    pub digest_ns: u64,
    pub state_encode_ns: u64,
    pub snapshot_write_ns: u64,
    pub snapshot_load_ns: u64,
    pub import_ns: u64,
    pub check_database_ns: u64,
    pub codec_bytes: u64,
    pub scanned_ops: u64,
}

fn time_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (r, t.elapsed().as_nanos() as u64)
}

impl LifeCosts {
    /// Measure every internal on `pristine` three times and keep each
    /// one's median (a single cold measurement reads two to three times
    /// too high).
    pub fn measure(pristine: &Pristine) -> Result<LifeCosts, Fail> {
        let runs = [
            Self::measure_once(pristine)?,
            Self::measure_once(pristine)?,
            Self::measure_once(pristine)?,
        ];
        let mid = |f: fn(&LifeCosts) -> u64| {
            let mut xs = [f(&runs[0]), f(&runs[1]), f(&runs[2])];
            xs.sort_unstable();
            xs[1]
        };
        Ok(LifeCosts {
            scan_ns: mid(|c| c.scan_ns),
            decode_ns: mid(|c| c.decode_ns),
            replay_ns: mid(|c| c.replay_ns),
            export_ns: mid(|c| c.export_ns),
            digest_ns: mid(|c| c.digest_ns),
            state_encode_ns: mid(|c| c.state_encode_ns),
            snapshot_write_ns: mid(|c| c.snapshot_write_ns),
            snapshot_load_ns: mid(|c| c.snapshot_load_ns),
            import_ns: mid(|c| c.import_ns),
            check_database_ns: mid(|c| c.check_database_ns),
            ..runs[0].clone()
        })
    }

    /// One measurement. Uses a filesystem of its own.
    fn measure_once(pristine: &Pristine) -> Result<LifeCosts, Fail> {
        let (scan, scan_ns) = time_ns(|| OpLog::scan_bytes(&pristine.log));
        let encoded: Vec<Vec<u8>> = scan.ops.iter().map(Codec::to_bytes).collect();
        let (decoded, decode_ns) = time_ns(|| {
            encoded
                .iter()
                .map(|b| Operation::from_bytes(b).is_ok())
                .filter(|ok| *ok)
                .count()
        });
        if decoded != encoded.len() {
            return Err("an operation did not decode from its own encoding".to_owned());
        }
        let mut db = Database::new();
        let (replayed, replay_ns) =
            time_ns(|| scan.ops.iter().try_for_each(|op| op.apply(&mut db)));
        replayed.map_err(|e| format!("replay: {e}"))?;
        let (state, export_ns) = time_ns(|| db.export_state());
        let (digest, digest_ns) = time_ns(|| digest_database(&db));
        let (image, state_encode_ns) = time_ns(|| state.to_bytes());
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new());
        let snap = Path::new("costs.snap");
        let (wrote, snapshot_write_ns) =
            time_ns(|| write_snapshot(&fs, snap, &state, scan.ops.len() as u64, digest));
        wrote.map_err(|e| format!("write snapshot: {e}"))?;
        let (loaded, snapshot_load_ns) = time_ns(|| load_snapshot(&fs, snap));
        let loaded = loaded.map_err(|e| format!("load snapshot: {e}"))?;
        let (imported, import_ns) = time_ns(|| Database::import_state(loaded.state));
        let imported = imported.map_err(|e| format!("import state: {e}"))?;
        if digest_database(&imported) != digest {
            return Err("imported state does not digest like the exported one".to_owned());
        }
        let (report, check_database_ns) = time_ns(|| db.check_database());
        if !report.is_consistent() {
            return Err(format!(
                "replayed state is inconsistent: {} violation(s)",
                report.len()
            ));
        }
        Ok(LifeCosts {
            scan_ns,
            decode_ns,
            replay_ns,
            export_ns,
            digest_ns,
            state_encode_ns,
            snapshot_write_ns,
            snapshot_load_ns,
            import_ns,
            check_database_ns,
            codec_bytes: encoded.iter().map(|b| b.len() as u64).sum::<u64>() + image.len() as u64,
            scanned_ops: scan.ops.len() as u64,
        })
    }
}

fn hist_sum(name: &str) -> u64 {
    tchimera_obs::registry().histogram(name).sum()
}

/// Time one lifecycle operation under a root span of its own, adopting
/// what the counting filesystem saw as its children. Returns the result,
/// the duration in seconds and the operation's span (for its virtual
/// children; `NO_PARENT` when tracing is off, which makes them no-ops).
fn timed_op<R>(
    tr: &mut Tracer,
    name: &'static str,
    events: Option<&EventLog>,
    f: impl FnOnce() -> R,
) -> (R, f64, u32) {
    tr.begin_stmt("op");
    tr.enter(name);
    let t = Instant::now();
    let out = f();
    let dt = t.elapsed().as_secs_f64();
    if let Some(ev) = events {
        tr.adopt(ev.drain());
    }
    let span = tr.exit();
    tr.exit();
    (out, dt, span)
}

/// Record measured-beside durations as virtual children of `span`.
fn virt_children(tr: &mut Tracer, span: u32, children: &[(&'static str, u64)]) {
    for &(name, ns) in children {
        tr.virt_ns_under(span, name, ns);
    }
}

/// One lifecycle repetition on a fresh copy of the pristine log (a
/// checkpoint compacts the log, so repetitions must not share files):
/// cold open by full replay, checkpoint, a tail of `tail` operations,
/// open from snapshot + tail, one clean scrub cycle. Every reopen must
/// digest like the state it was closed with. Stops at the first failed
/// operation (`None`); each operation is counted in `tally`.
#[allow(clippy::too_many_arguments)]
fn lifecycle_rep(
    raw: &Arc<dyn Vfs>,
    fs: &Arc<dyn Vfs>,
    path: &Path,
    pristine: &Pristine,
    tail: &[Op],
    tr: &mut Tracer,
    traced: Option<(&EventLog, &LifeCosts)>,
    out: &mut LifeSamples,
    tally: &mut Tally,
) -> Option<()> {
    let snap = snapshot_path(path);
    // Laying the log down is the driver's work, not the program's: it
    // goes to the disk directly, past the counting wrapper `fs` may be.
    let laid = (|| -> std::io::Result<()> {
        let mut f = raw.open_trunc(path)?;
        f.write_all(&pristine.log)?;
        f.sync()
    })();
    if let Err(e) = laid {
        return tally.record(Err(format!("lay down log: {e}")));
    }
    let events = traced.map(|(ev, _)| ev);
    // Without costs there is no tracing either: the zeros go nowhere.
    let c = traced.map(|(_, c)| c.clone()).unwrap_or_default();
    // 1. Cold open, no snapshot: full replay.
    let (opened, dt, span) = timed_op(tr, "storage.engine.open", events, || {
        PersistentDatabase::open_with(Arc::clone(fs), path)
    });
    virt_children(
        tr,
        span,
        &[
            ("storage.codec.decode", c.decode_ns),
            ("storage.log.scan", c.scan_ns.saturating_sub(c.decode_ns)),
            ("core.dml", c.replay_ns),
        ],
    );
    let checked = opened
        .map_err(|e| format!("open (full replay): {e}"))
        .and_then(|pdb| {
            if pdb.recovered_from_snapshot() {
                Err("full replay started from a snapshot".to_owned())
            } else if pdb.state_digest() != pristine.digest {
                Err("full replay: digest differs from the state that was logged".to_owned())
            } else {
                Ok(pdb)
            }
        });
    let mut pdb = tally.record(checked)?;
    out.recover_full_s.push(dt);
    out.replayed_ops = pdb.recovered_replayed() as u64;

    // 2. Checkpoint: the foreground stall a writer sees.
    let (done, dt, span) = timed_op(tr, "storage.engine.checkpoint", events, || pdb.checkpoint());
    virt_children(
        tr,
        span,
        &[
            ("core.state.export", c.export_ns),
            ("storage.engine.digest", c.digest_ns),
            ("storage.codec.encode", c.state_encode_ns),
            (
                "storage.snapshot.write",
                c.snapshot_write_ns.saturating_sub(c.state_encode_ns),
            ),
        ],
    );
    tally.record(done.map_err(|e| format!("checkpoint: {e}")))?;
    out.checkpoint_s.push(dt);
    out.log_bytes = pristine.log.len() as u64;
    out.snapshot_bytes = raw.read(&snap).map_or(0, |b| b.len() as u64);
    out.user_bytes = pristine.user_bytes;
    out.disk_ratio
        .push((out.log_bytes + out.snapshot_bytes) as f64 / out.user_bytes as f64);

    // 3. A short tail after the snapshot (unmeasured), then close.
    let tailed = tail
        .iter()
        .try_for_each(|op| apply_op(&mut pdb, op))
        .and_then(|()| pdb.sync().map_err(|e| format!("sync: {e}")));
    let digest_with_tail = pdb.state_digest();
    drop(pdb);
    if let Some(ev) = events {
        ev.drain();
    }
    tally.record(tailed)?;

    // 4. Open from snapshot + tail.
    let (opened, dt, span) = timed_op(tr, "storage.engine.open", events, || {
        PersistentDatabase::open_with(Arc::clone(fs), path)
    });
    virt_children(
        tr,
        span,
        &[
            ("storage.snapshot.load", c.snapshot_load_ns),
            ("core.state.import", c.import_ns),
            ("storage.engine.digest", c.digest_ns),
        ],
    );
    let checked = opened
        .map_err(|e| format!("open (snapshot): {e}"))
        .and_then(|pdb| {
            if !pdb.recovered_from_snapshot() || pdb.recovered_replayed() != tail.len() {
                Err(format!(
                    "snapshot open replayed {} ops, expected the {}-op tail",
                    pdb.recovered_replayed(),
                    tail.len()
                ))
            } else if pdb.state_digest() != digest_with_tail {
                Err("snapshot open: digest differs from the state that was closed".to_owned())
            } else {
                Ok(pdb)
            }
        });
    let mut pdb = tally.record(checked)?;
    out.recover_snap_s.push(dt);

    // 5. One scrub cycle over a healthy stack. It verifies the snapshot
    // (load + import + digest), then re-materializes from storage (load +
    // import) and compares two digests; the core sweep and the log
    // re-scan have latency histograms of their own.
    let (cycle_before, scan_before) = (hist_sum("core.scrub.cycle"), hist_sum("storage.log.scan"));
    let (report, dt, span) = timed_op(tr, "storage.engine.scrub", events, || pdb.scrub_cycle());
    virt_children(
        tr,
        span,
        &[
            ("core.scrub", hist_sum("core.scrub.cycle") - cycle_before),
            (
                "storage.log.scan",
                hist_sum("storage.log.scan") - scan_before,
            ),
            ("storage.snapshot.load", 2 * c.snapshot_load_ns),
            ("core.state.import", 2 * c.import_ns),
            ("storage.engine.digest", 3 * c.digest_ns),
        ],
    );
    tally.record(if report.clean() {
        Ok(())
    } else {
        Err(format!("scrub found damage on a healthy stack: {report:?}"))
    })?;
    out.scrub_s.push(dt);
    Some(())
}

/// `reps` lifecycle repetitions (see [`lifecycle_rep`]), each on files of
/// its own that are removed afterwards.
#[allow(clippy::too_many_arguments)]
pub fn lifecycle(
    disk: &Disk,
    fs: &Arc<dyn Vfs>,
    pristine: &Pristine,
    tail: &[Op],
    reps: usize,
    tr: &mut Tracer,
    traced: Option<(&EventLog, &LifeCosts)>,
    out: &mut LifeSamples,
    tally: &mut Tally,
) {
    let raw = disk.vfs();
    for rep in 0..reps {
        let path = disk.path(&format!("life{rep}.log"));
        lifecycle_rep(&raw, fs, &path, pristine, tail, tr, traced, out, tally);
        let _ = raw.remove(&path);
        let _ = raw.remove(&snapshot_path(&path));
        if let Some((events, _)) = traced {
            events.drain();
        }
    }
}

/// Attach a fresh follower (on a filesystem of its own) to `pdb` and time
/// until it is digest-equal, `reps` times. With an uncompacted log the
/// primary ships log records; after a checkpoint it ships a state image.
pub fn catch_up(
    mut pdb: PersistentDatabase,
    reps: usize,
    tr: &mut Tracer,
    events: Option<&EventLog>,
    out: &mut Vec<f64>,
    tally: &mut Tally,
) -> PersistentDatabase {
    for rep in 0..reps as u64 {
        let (pt, rt) = SimTransport::pair(rep, SimNetConfig::clean());
        let wire = |t| CountingTransport::new(t, Arc::default(), events.cloned());
        let follower = match PersistentDatabase::open_with(
            Arc::new(SimFs::new()),
            Path::new("follower.log"),
        ) {
            Ok(f) => f,
            Err(e) => {
                tally.record::<()>(Err(format!("open follower: {e}")));
                continue;
            }
        };
        let mut primary = Primary::new(pdb, 1, wire(pt));
        let mut replica = Replica::new(follower, wire(rt));
        let (result, dt, _) = timed_op(tr, "storage.repl.catchup", events, || {
            for _ in 0..64 {
                if let Err(e) = primary.pump().and_then(|_| replica.pump()) {
                    return Err(format!("pump: {e}"));
                }
                if replica.lag() == 0 && replica.applied() == primary.db_ref().op_count() as u64 {
                    return Ok(());
                }
            }
            Err("follower did not converge in 64 pump rounds".to_owned())
        });
        let result = result.and_then(|()| {
            if let Some(why) = replica.halted() {
                Err(format!("follower halted: {why}"))
            } else if replica.db_ref().state_digest() != primary.db_ref().state_digest() {
                Err("follower caught up to a different digest".to_owned())
            } else {
                Ok(())
            }
        });
        if tally.record(result).is_some() {
            out.push(dt);
        }
        pdb = primary.into_parts().0;
    }
    pdb
}

/// The durability pass: on the simulated disk, write `ops`, `sync()`
/// every 7th, then crash the machine so that bytes not yet synced are
/// dropped (or torn) — the test, not the operating system, discards the
/// unflushed writes — and reopen. Every operation acknowledged before the
/// last sync must be there: the recovered history is at least that long
/// and its prefix digests like the state at that sync.
pub fn durability_pass(schema: &[String], ops: &[Op], tally: &mut Tally) {
    for tear in [TearMode::DropAll, TearMode::KeepHalf, TearMode::KeepAll] {
        let r = (|| -> Result<(), Fail> {
            let sim = SimFs::new();
            let fs: Arc<dyn Vfs> = Arc::new(sim.clone());
            let path = Path::new("crash.log");
            let mut pdb = PersistentDatabase::open_with(Arc::clone(&fs), path)
                .map_err(|e| format!("open: {e}"))?;
            for ddl in schema {
                match tchimera_query::parse(ddl) {
                    Ok(tchimera_query::Stmt::DefineClass(def)) => {
                        pdb.define_class(def).map_err(|e| format!("{ddl}: {e}"))?
                    }
                    _ => return Err(format!("not a class definition: {ddl}")),
                }
            }
            // Only the last sync matters: what it acknowledged must survive.
            let last_sync = (ops.len() / 7 * 7).checked_sub(1);
            let mut acked = (pdb.op_count(), pdb.state_digest());
            for (i, op) in ops.iter().enumerate() {
                apply_op(&mut pdb, op)?;
                if i % 7 == 6 {
                    pdb.sync().map_err(|e| format!("sync: {e}"))?;
                    if Some(i) == last_sync {
                        acked = (pdb.op_count(), pdb.state_digest());
                    }
                }
            }
            drop(pdb);
            sim.crash(tear);
            let mut pdb = PersistentDatabase::open_with(fs, path)
                .map_err(|e| format!("reopen after crash: {e}"))?;
            if pdb.op_count() < acked.0 {
                return Err(format!(
                    "{tear:?}: {} ops acknowledged, {} recovered",
                    acked.0,
                    pdb.op_count()
                ));
            }
            let at_ack = pdb
                .state_at_op(acked.0)
                .map_err(|e| format!("state at last sync: {e}"))?;
            if digest_database(&at_ack) != acked.1 {
                return Err(format!(
                    "{tear:?}: recovered prefix differs from the acknowledged state"
                ));
            }
            if !pdb.db().check_database().is_consistent() {
                return Err(format!("{tear:?}: recovered state is inconsistent"));
            }
            Ok(())
        })();
        tally.record(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Env;
    use crate::gen::{self, BaseSize, Kind, Mix, Rng};

    fn built(disk: Disk) -> (Env, Vec<Op>, Rng) {
        let mut rng = Rng::new(4);
        let mut env = Env::open(disk, "base.log", false, false).unwrap();
        for ddl in gen::schema() {
            env.run(
                &gen::Stmt {
                    kind: Kind::Create,
                    text: ddl,
                },
                &mut Tracer::off(),
            )
            .unwrap();
        }
        let (ops, mut pop) = gen::base_state(
            BaseSize {
                objects: 64,
                updates: 2,
            },
            &mut rng,
        );
        for op in &ops {
            apply_op(env.pdb(), op).unwrap();
        }
        let tail: Vec<Op> = gen::write_ops(
            &mut pop,
            &Mix(vec![(Kind::SetV, 12), (Kind::Create, 3), (Kind::Tick, 1)]),
            &mut rng,
        )
        .into_iter()
        .map(|(_, op)| op)
        .collect();
        (env, tail, rng)
    }

    #[test]
    fn lifecycle_collects_one_sample_per_repetition_and_all_checks_pass() {
        let (mut env, tail, _) = built(Disk::Sim(SimFs::new()));
        let (fs, path, disk) = (Arc::clone(&env.fs), env.path.clone(), env.disk.clone());
        let pristine = Pristine::capture(env.pdb(), &fs, &path).unwrap();
        let costs = LifeCosts::measure(&pristine).unwrap();
        assert!(costs.scanned_ops > 300 && costs.replay_ns > 0 && costs.codec_bytes > 0);
        let (mut out, mut tally) = (LifeSamples::default(), Tally::default());
        lifecycle(
            &disk,
            &fs,
            &pristine,
            &tail,
            3,
            &mut Tracer::off(),
            None,
            &mut out,
            &mut tally,
        );
        assert_eq!(
            (tally.attempted, tally.failed),
            (15, 0),
            "{:?}",
            tally.errors
        );
        for v in [
            &out.recover_full_s,
            &out.checkpoint_s,
            &out.recover_snap_s,
            &out.scrub_s,
            &out.disk_ratio,
        ] {
            assert_eq!(v.len(), 3);
            assert!(v.iter().all(|x| *x > 0.0));
        }
        assert_eq!(out.replayed_ops, costs.scanned_ops);
        assert!(
            out.disk_ratio[0] > 1.0,
            "storing costs more than the user's bytes"
        );
    }

    #[test]
    fn lifecycle_reports_a_wrong_digest_as_a_failure() {
        let (mut env, tail, _) = built(Disk::Sim(SimFs::new()));
        let (fs, path, disk) = (Arc::clone(&env.fs), env.path.clone(), env.disk.clone());
        let mut pristine = Pristine::capture(env.pdb(), &fs, &path).unwrap();
        pristine.digest ^= 1;
        let (mut out, mut tally) = (LifeSamples::default(), Tally::default());
        lifecycle(
            &disk,
            &fs,
            &pristine,
            &tail,
            1,
            &mut Tracer::off(),
            None,
            &mut out,
            &mut tally,
        );
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(
            out.recover_full_s.is_empty(),
            "a failed operation has no latency"
        );
    }

    #[test]
    fn catch_up_by_log_and_by_snapshot_reach_the_primary_digest() {
        let (env, _, _) = built(Disk::Sim(SimFs::new()));
        let (pdb, ..) = env.into_local();
        let (mut log_s, mut snap_s, mut tally) = (Vec::new(), Vec::new(), Tally::default());
        let shipped = tchimera_obs::registry().counter("repl.snapshot.ships");
        let before = shipped.get();
        let mut pdb = catch_up(pdb, 2, &mut Tracer::off(), None, &mut log_s, &mut tally);
        assert_eq!(
            shipped.get(),
            before,
            "an uncompacted log ships records, not images"
        );
        pdb.checkpoint().unwrap();
        catch_up(pdb, 2, &mut Tracer::off(), None, &mut snap_s, &mut tally);
        assert!(shipped.get() >= before + 2);
        assert_eq!((log_s.len(), snap_s.len()), (2, 2));
        assert_eq!(
            (tally.attempted, tally.failed),
            (4, 0),
            "{:?}",
            tally.errors
        );
    }

    #[test]
    fn durability_pass_survives_every_tear_mode() {
        let mut rng = Rng::new(8);
        let (ops, _) = gen::base_state(
            BaseSize {
                objects: 48,
                updates: 1,
            },
            &mut rng,
        );
        let mut tally = Tally::default();
        durability_pass(&gen::schema(), &ops, &mut tally);
        assert_eq!(
            (tally.attempted, tally.failed),
            (3, 0),
            "{:?}",
            tally.errors
        );
    }
}

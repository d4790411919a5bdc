//! The four workloads and the loop that runs one of them.
//!
//! Every workload is the same three kinds of work in different
//! proportions — statement traffic, follower catch-up, and the
//! recover / checkpoint / scrub lifecycle — on a different substrate and
//! state size. Each has a **main** part, repeated in rounds until the
//! time budget is used and traced in the traced pass, which is what the
//! workload is *for*; and a **guard** part, run once on the last round's
//! state, which gives every end-to-end metric a value on this workload's
//! state too, so a change that speeds up one workload's metric at the
//! cost of the same metric elsewhere shows.
//!
//! A round is fixed-count: the seed fixes order, targets and literals,
//! the size fixes how much. `--seconds` only decides how many identical
//! rounds are pooled, so counts per round repeat exactly for a seed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use tchimera_core::{Instant as T, TemporalValue, Value};
use tchimera_obs::MetricsSnapshot;
use tchimera_query::{eval_select_naive, parse, Stmt as Ast};
use tchimera_storage::SimFs;

use crate::exec::{apply_op, run_statements, Disk, Env, Fail, Node, Tally};
use crate::gen::{self, BaseSize, Kind, Mix, Op, Population, QueryLiterals, Rng, Stmt};
use crate::metrics::Values;
use crate::phases::{catch_up, durability_pass, lifecycle, LifeCosts, LifeSamples, Pristine};
use crate::stats::{median, percentile};
use crate::trace::{self, Tracer};

/// Unmeasured statements at the end of set-up, so caches are filled and
/// lazy set-up is done before the first measured statement.
const WARMUP_STATEMENTS: usize = 200;
/// Operations appended after a checkpoint before the snapshot reopen.
const TAIL_OPS: usize = 128;
/// Share of `--seconds` the main rounds may use; the rest is the guard.
const MAIN_SHARE: f64 = 0.7;

/// One part of a workload: statements, then catch-ups, then lifecycles.
#[derive(Clone, Debug, Default)]
pub struct Part {
    pub stmts: Mix,
    pub catchup_reps: usize,
    pub lifecycle_reps: usize,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Real filesystem (`StdFs`) or the deterministic `SimFs`.
    pub on_disk: bool,
    /// A replica is attached and a write completes when it has applied it.
    pub replicated: bool,
    pub base: BaseSize,
    pub main: Part,
    pub guard: Part,
}

fn writes(total: usize) -> Vec<(Kind, usize)> {
    // The write mix of the issue, in eightieths: create 20, set on the
    // index-covered `dept` 10, set on the uncovered `v` 35, tick 8,
    // migrate 4, terminate 3.
    [
        (Kind::Create, 20),
        (Kind::SetDept, 10),
        (Kind::SetV, 35),
        (Kind::Tick, 8),
        (Kind::Migrate, 4),
        (Kind::Terminate, 3),
    ]
    .into_iter()
    .map(|(k, n)| (k, total * n / 80))
    .collect()
}

fn reads_of_every_kind(each: usize) -> Vec<(Kind, usize)> {
    Kind::QUERY_KINDS.iter().map(|&k| (k, each)).collect()
}

/// The workload table. Sizes are frozen: they were tuned once so that a
/// main round takes 1–2 s at the seed commit on two cores, no guard phase
/// is shorter than about half a second (shorter ones caught every burst
/// of host noise), and a whole run stays near 20 s.
pub fn workloads() -> Vec<Workload> {
    let probe_writes = Mix(vec![
        (Kind::SetV, 2100),
        (Kind::SetDept, 600),
        (Kind::Create, 300),
    ]);
    vec![
        Workload {
            name: "oltp_durable",
            why: "TCQL text, 80% writes each fsynced on the real disk, 20% indexed point reads: parser, log and device dominate",
            on_disk: true,
            replicated: false,
            base: BaseSize { objects: 4000, updates: 2 },
            main: Part { stmts: Mix([writes(4800), vec![(Kind::Point, 1200)]].concat()), ..Part::default() },
            guard: Part { stmts: Mix::default(), catchup_reps: 15, lifecycle_reps: 15 },
        },
        Workload {
            name: "query_mix",
            why: "read-only SELECTs of eight kinds on a prebuilt state; seven kinds fit the plan and index caches, adhoc exceeds both; storage idle",
            on_disk: false,
            replicated: false,
            base: BaseSize { objects: 10_000, updates: 8 },
            main: Part { stmts: Mix(reads_of_every_kind(150)), ..Part::default() },
            guard: Part { stmts: probe_writes.clone(), catchup_reps: 9, lifecycle_reps: 11 },
        },
        Workload {
            name: "repl_ship",
            why: "every write shipped to a replica over a clean simulated link on SimFs, then follower catch-up: pump, digest and log re-scan dominate",
            on_disk: false,
            replicated: true,
            base: BaseSize { objects: 200, updates: 1 },
            main: Part { stmts: Mix(writes(1200)), catchup_reps: 5, lifecycle_reps: 0 },
            // Scans, not point reads: on a state this small a point read's
            // candidates straddle the executor's 64-candidate threshold for
            // going parallel, which makes the median bimodal across seeds.
            guard: Part { stmts: Mix(vec![(Kind::Scan, 6000)]), catchup_reps: 0, lifecycle_reps: 45 },
        },
        Workload {
            name: "recover_checkpoint",
            why: "no statement traffic: full-replay open, checkpoint, snapshot open and scrub of a log far larger than every in-program cache, on the real disk",
            on_disk: true,
            replicated: false,
            base: BaseSize { objects: 20_000, updates: 8 },
            main: Part { stmts: Mix::default(), catchup_reps: 0, lifecycle_reps: 3 },
            guard: Part { stmts: Mix([probe_writes.0, vec![(Kind::Point, 1000)]].concat()), catchup_reps: 7, lifecycle_reps: 0 },
        },
    ]
}

#[cfg(test)]
impl Workload {
    /// The same workload at a fraction of its size.
    pub fn scaled(&self, num: usize, den: usize) -> Workload {
        let part = |p: &Part| Part {
            stmts: p.stmts.scaled(num, den),
            catchup_reps: p.catchup_reps.min(2),
            lifecycle_reps: p.lifecycle_reps.min(2),
        };
        Workload {
            base: BaseSize {
                objects: (self.base.objects * num as u64 / den as u64).max(48),
                updates: self.base.updates.min(2),
            },
            main: part(&self.main),
            guard: part(&self.guard),
            ..self.clone()
        }
    }
}

/// Where the real-disk workloads keep their files: under the cargo target
/// directory of the checkout, which `.gitignore` names.
pub fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark-work")
}

/// A directory for one run of `workload`.
fn work_dir(workload: &str) -> PathBuf {
    // Unique per run within the process too (tests run in parallel).
    static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    work_root().join(format!(
        "{workload}-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Relaxed)
    ))
}

/// Everything one round's set-up produces.
struct Round {
    env: Env,
    pop: Population,
    lits: QueryLiterals,
    rng: Rng,
    main_stmts: Vec<Stmt>,
}

/// Build the workload's base state on a fresh node and warm it up.
/// Deterministic in `seed`: every round of a run starts from the same
/// state and sends the same statements.
fn set_up(w: &Workload, seed: u64, dir: &std::path::Path, traced: bool) -> Result<Round, Fail> {
    let mut rng = Rng::new(seed);
    let disk = if w.on_disk {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Disk::Std(dir.to_path_buf())
    } else {
        Disk::Sim(SimFs::new())
    };
    let mut env = Env::open(disk, "node.log", w.replicated, traced)?;
    let mut off = Tracer::off();
    for ddl in gen::schema() {
        env.run(
            &Stmt {
                kind: Kind::Create,
                text: ddl,
            },
            &mut off,
        )?;
    }
    let (ops, mut pop) = gen::base_state(w.base, &mut rng);
    for op in &ops {
        apply_op(env.pdb(), op)?;
    }
    env.settle()?;
    let mut lits = QueryLiterals::new(&pop, &mut rng);
    // Warm up with the statements the workload measures first.
    let mix = if w.main.stmts.total() > 0 {
        &w.main.stmts
    } else {
        &w.guard.stmts
    };
    if mix.total() > 0 {
        let warm_up = mix.scaled(WARMUP_STATEMENTS.min(mix.total()), mix.total());
        let warm = gen::statements(&mut pop, &mut lits, &warm_up, &mut rng);
        for s in &warm {
            env.run(s, &mut off)?;
        }
        env.settle()?;
    }
    let main_stmts = gen::statements(&mut pop, &mut lits, &w.main.stmts, &mut rng);
    Ok(Round {
        env,
        pop,
        lits,
        rng,
        main_stmts,
    })
}

/// Everything measured in one run of a workload.
#[derive(Default)]
pub struct Collected {
    pub setups_s: Vec<f64>,
    /// Latency (nanoseconds) of every completed statement, by kind, in
    /// the order sent: main rounds first, the guard's statements last.
    pub stmts: Vec<(Kind, f64)>,
    pub life: LifeSamples,
    pub catchup_s: Vec<f64>,
    pub catchup_snapshot_s: Vec<f64>,
    /// Attempted and failed operations of every phase and gate.
    pub tally: Tally,
    pub rounds: usize,
    /// Statements in one main round (final op count).
    pub main_round_stmts: usize,
    /// Statements per second of each main round and of the guard.
    pub main_rates: Vec<f64>,
    pub guard_rates: Vec<f64>,
    /// Unmeasured time the read gate took (reference evaluator).
    pub gate_s: f64,
}

impl Collected {
    /// Latencies of the completed writes (`true`) or reads (`false`).
    pub fn latencies_ns(&self, writes: bool) -> Vec<f64> {
        latencies_ns(&self.stmts, writes)
    }
}

fn latencies_ns(samples: &[(Kind, f64)], writes: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|(k, _)| k.is_write() == writes)
        .map(|(_, ns)| *ns)
        .collect()
}

/// The tail the lifecycle appends after its checkpoint.
fn tail_ops(pop: &Population, rng: &mut Rng) -> Vec<Op> {
    let mix = Mix(vec![
        (Kind::SetV, TAIL_OPS - 28),
        (Kind::Create, 20),
        (Kind::Tick, 8),
    ]);
    gen::write_ops(&mut pop.clone(), &mix, rng)
        .into_iter()
        .map(|(_, op)| op)
        .collect()
}

/// Counter deltas of the traced round: the program's own counters and
/// the counting filesystem's totals, from the start of the main part to
/// its end, minus what the driver itself caused in between (capturing
/// the log, measuring costs beside the real calls).
pub struct Window {
    obs_start: MetricsSnapshot,
    obs_excluded: BTreeMap<String, u64>,
    vfs: Arc<crate::counting::VfsCounts>,
    vfs_start: [u64; 6],
    vfs_excluded: [u64; 6],
    end: Option<(MetricsSnapshot, [u64; 6])>,
}

impl Window {
    fn open(vfs: Arc<crate::counting::VfsCounts>) -> Window {
        Window {
            obs_start: tchimera_obs::snapshot(),
            obs_excluded: BTreeMap::new(),
            vfs_start: vfs.totals(),
            vfs,
            vfs_excluded: [0; 6],
            end: None,
        }
    }

    /// Run driver-side work whose counter traffic is not the workload's.
    fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (obs, vfs) = (tchimera_obs::snapshot(), self.vfs.totals());
        let out = f();
        for (name, after) in tchimera_obs::snapshot().counters {
            let delta = after - obs.counter(&name).unwrap_or(0).min(after);
            if delta > 0 {
                *self.obs_excluded.entry(name).or_default() += delta;
            }
        }
        for (excluded, (now, before)) in self
            .vfs_excluded
            .iter_mut()
            .zip(self.vfs.totals().iter().zip(vfs))
        {
            *excluded += now - before;
        }
        out
    }

    fn exclude_count(&mut self, name: &str, n: u64) {
        *self.obs_excluded.entry(name.to_owned()).or_default() += n;
    }

    /// Take the end reading (again: the last one counts).
    fn read_end(&mut self) {
        self.end = Some((tchimera_obs::snapshot(), self.vfs.totals()));
    }

    /// Delta of program counter `name` over the window.
    pub fn counter(&self, name: &str) -> f64 {
        let end = self
            .end
            .as_ref()
            .and_then(|(obs, _)| obs.counter(name))
            .unwrap_or(0);
        let start = self.obs_start.counter(name).unwrap_or(0);
        end.saturating_sub(start)
            .saturating_sub(self.obs_excluded.get(name).copied().unwrap_or(0)) as f64
    }

    /// Delta of filesystem total `i` (in `VFS_METRICS` order) over the window.
    pub fn vfs(&self, i: usize) -> f64 {
        let end = self
            .end
            .as_ref()
            .map_or(self.vfs_start[i], |(_, vfs)| vfs[i]);
        end.saturating_sub(self.vfs_start[i])
            .saturating_sub(self.vfs_excluded[i]) as f64
    }
}

/// What the traced round leaves behind for the per-layer metrics.
pub struct TraceData {
    pub tracer: Tracer,
    pub window: Window,
    /// Log operations scanned and shipped while the main statements ran
    /// (catch-up ships whole logs and would dilute the ratio).
    pub scanned_shipped: (f64, f64),
    pub wire: (u64, u64),
    pub read_stats: crate::exec::ReadStats,
    pub mirror_ops: u64,
    pub mirror_bytes: u64,
    pub costs: Option<LifeCosts>,
    pub temporal: (f64, f64),
    pub lag: (f64, u64),
    /// Measured time (statement latencies and operation durations) of
    /// the untraced base round and of the traced round.
    pub busy_s: (f64, f64),
}

/// Fixed-count loops on the workload's own `v` histories: one lookup and
/// one append, in nanoseconds per call.
fn temporal_probe(env: &Env) -> (f64, f64) {
    let db = env.read_db();
    let now = db.now();
    let histories: Vec<TemporalValue<Value>> = db
        .objects()
        .filter_map(|o| {
            o.attrs
                .get(&"v".into())
                .and_then(Value::as_temporal)
                .cloned()
        })
        .take(256)
        .collect();
    if histories.is_empty() {
        return (0.0, 0.0);
    }
    const LOOKUPS: u64 = 64;
    let t0 = Instant::now();
    let mut found = 0u64;
    for h in &histories {
        for k in 0..LOOKUPS {
            let t = T(now.ticks() * k / LOOKUPS);
            found += u64::from(std::hint::black_box(h.value_at(t, now)).is_some());
        }
    }
    let value_at = t0.elapsed().as_nanos() as f64 / (histories.len() as u64 * LOOKUPS) as f64;
    std::hint::black_box(found);
    let mut copies = histories.clone();
    let t1 = Instant::now();
    for h in &mut copies {
        for k in 0..LOOKUPS {
            let _ = std::hint::black_box(h.set_from(T(now.ticks() + 1 + k), Value::Int(k as i64)));
        }
    }
    let set_from = t1.elapsed().as_nanos() as f64 / (copies.len() as u64 * LOOKUPS) as f64;
    (value_at, set_from)
}

/// Distinct `adhoc` and `join` statements the read gate checks. Ad-hoc
/// texts never repeat, so there is no end to them; a join costs the
/// reference evaluator the full cross product (millions of bindings, about
/// a second each at `query_mix` size).
const GATE_ADHOC: usize = 20;
const GATE_JOINS: usize = 2;

/// The read gate: every distinct statement of `stmts` (all of them for six
/// kinds, the first few for `adhoc` and `join`) must return, through the
/// front door, exactly the rows the reference evaluator returns.
fn read_gate(env: &mut Env, stmts: &[Stmt], tally: &mut Tally) {
    let mut seen = std::collections::BTreeSet::new();
    let (mut adhoc, mut joins) = (0, 0);
    for s in stmts.iter().filter(|s| !s.kind.is_write()) {
        if !seen.insert(s.text.as_str()) {
            continue;
        }
        let (count, cap) = match s.kind {
            Kind::Adhoc => (&mut adhoc, GATE_ADHOC),
            Kind::Join => (&mut joins, GATE_JOINS),
            _ => (&mut 0, usize::MAX),
        };
        *count += 1;
        if *count > cap {
            continue;
        }
        let r = env.read(&s.text).and_then(|(_, got)| {
            let Ok(Ast::Select(q)) = parse(&s.text) else {
                return Err(format!("{}: not a select", s.text));
            };
            let want = eval_select_naive(env.read_db(), &q)
                .map_err(|e| format!("{}: reference evaluator: {e}", s.text))?;
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "{}: {} rows, reference evaluator has {}",
                    s.text,
                    got.rows.len(),
                    want.rows.len()
                ))
            }
        });
        tally.record(r);
    }
}

/// Run `w` for about `seconds` and collect everything.
///
/// Untraced: main rounds until `MAIN_SHARE` of the budget is used (at
/// least two), then the guard part once. Traced: one untraced main round
/// (the base of the tracing overhead) and one traced main round.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Collected, Option<TraceData>), Fail> {
    let dir = work_dir(w.name);
    let result = run_in(w, seed, seconds, traced, &dir);
    if w.on_disk {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

/// Everything timed so far, in seconds: the base of per-round deltas.
fn busy_s(c: &Collected) -> f64 {
    let ns: f64 = c.stmts.iter().map(|(_, ns)| ns).sum();
    let l = &c.life;
    ns / 1e9
        + [
            &c.catchup_s,
            &c.catchup_snapshot_s,
            &l.recover_full_s,
            &l.checkpoint_s,
            &l.recover_snap_s,
            &l.scrub_s,
        ]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum::<f64>()
}

fn run_in(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &std::path::Path,
) -> Result<(Collected, Option<TraceData>), Fail> {
    let mut c = Collected::default();
    let mut trace_data = None;
    let budget = seconds * MAIN_SHARE;
    // Wall time of the measured parts of the rounds so far (no set-up).
    let mut measured = 0.0;
    let mut base_busy = 0.0;
    loop {
        let round_no = c.rounds;
        // A traced run: round 0 warms the process up (a first round reads
        // a few percent slow), round 1 is the untraced base the tracing
        // overhead is taken against, round 2 is traced.
        let trace_this = traced && round_no == 2;
        let last = if traced {
            round_no == 2
        } else {
            round_no >= 1 && measured + measured / round_no as f64 >= budget
        };
        let t_setup = Instant::now();
        let Round {
            mut env,
            mut pop,
            mut lits,
            mut rng,
            main_stmts,
        } = set_up(w, seed, dir, trace_this)?;
        c.setups_s.push(t_setup.elapsed().as_secs_f64());
        c.rounds += 1;
        c.main_round_stmts = main_stmts.len();

        let mut tr = if trace_this {
            Tracer::on(main_stmts.len() * 24 + 4096)
        } else {
            Tracer::off()
        };
        let mut window = env.instr.as_ref().map(|i| Window::open(Arc::clone(&i.vfs)));
        let t_round = Instant::now();
        let busy_before = busy_s(&c);

        // Main statements.
        if !main_stmts.is_empty() {
            let rate = run_statements(&mut env, &main_stmts, &mut tr, &mut c.stmts, &mut c.tally);
            c.main_rates.extend(rate);
        }
        let scanned_shipped = window.as_mut().map_or((0.0, 0.0), |win| {
            win.read_end();
            (
                win.counter("storage.log.scanned_ops"),
                win.counter("repl.ops.shipped"),
            )
        });
        let lag = env.lag_stats();
        let temporal = if trace_this {
            temporal_probe(&env)
        } else {
            (0.0, 0.0)
        };

        // Guard statements and the gates that need the node as it is.
        if last && !traced {
            let guard = gen::statements(&mut pop, &mut lits, &w.guard.stmts, &mut rng);
            if !guard.is_empty() {
                let off = &mut Tracer::off();
                let rate = run_statements(&mut env, &guard, off, &mut c.stmts, &mut c.tally);
                c.guard_rates.extend(rate);
            }
            let gate: Vec<Stmt> = main_stmts.iter().chain(&guard).cloned().collect();
            let t_gate = Instant::now();
            read_gate(&mut env, &gate, &mut c.tally);
            c.gate_s = t_gate.elapsed().as_secs_f64();
            if let Node::Pair { primary, replica } = &env.node {
                let level = replica.halted().is_none()
                    && replica.db_ref().state_digest() == primary.db_ref().state_digest();
                c.tally.record(if level {
                    Ok(())
                } else {
                    Err("replica and primary digests differ".to_owned())
                });
            }
        }

        // Catch-up and lifecycle work on the durable database alone.
        let (catchup_reps, lifecycle_reps) = if last && !traced {
            (
                w.main.catchup_reps + w.guard.catchup_reps,
                w.main.lifecycle_reps + w.guard.lifecycle_reps,
            )
        } else {
            (w.main.catchup_reps, w.main.lifecycle_reps)
        };
        let (read_stats, instr) = (env.read_stats.clone(), env.instr.take());
        let events = instr.as_ref().map(|i| i.events.clone());
        let (mut pdb, disk, fs, path) = env.into_local();
        pdb = catch_up(
            pdb,
            catchup_reps,
            &mut tr,
            events.as_ref(),
            &mut c.catchup_s,
            &mut c.tally,
        );
        let mut costs = None;
        if lifecycle_reps > 0 {
            // Driver-side preparation, kept out of the counters: the log
            // is read past the counting wrapper, the costs are measured
            // on a filesystem of their own.
            let mut prepare = || -> Result<(Pristine, Option<LifeCosts>), Fail> {
                let pristine = Pristine::capture(&mut pdb, &disk.vfs(), &path)?;
                let costs = if trace_this {
                    Some(LifeCosts::measure(&pristine)?)
                } else {
                    None
                };
                Ok((pristine, costs))
            };
            let (pristine, measured_costs) = match &mut window {
                Some(win) => win.exclude(prepare)?,
                None => prepare()?,
            };
            costs = measured_costs;
            let tail = tail_ops(&pop, &mut rng);
            let traced_with = match (&events, &costs) {
                (Some(ev), Some(costs)) => Some((ev, costs)),
                _ => None,
            };
            lifecycle(
                &disk,
                &fs,
                &pristine,
                &tail,
                lifecycle_reps,
                &mut tr,
                traced_with,
                &mut c.life,
                &mut c.tally,
            );
        }
        if trace_this && w.main.catchup_reps > 0 {
            // The snapshot path of catch-up is a layer metric: after a
            // checkpoint the primary ships a state image instead of the log.
            pdb.checkpoint()
                .map_err(|e| format!("checkpoint before snapshot catch-up: {e}"))?;
            pdb = catch_up(
                pdb,
                w.main.catchup_reps,
                &mut tr,
                events.as_ref(),
                &mut c.catchup_snapshot_s,
                &mut c.tally,
            );
        }
        if let Some(win) = &mut window {
            win.read_end();
        }
        let round_busy = busy_s(&c) - busy_before;
        if last && !traced && w.on_disk {
            // The reopen gate: what was acknowledged is what a reopen
            // finds, and it is a consistent database.
            let digest = pdb.state_digest();
            drop(pdb);
            let reopened = tchimera_storage::PersistentDatabase::open_with(Arc::clone(&fs), &path)
                .map_err(|e| format!("reopen: {e}"))
                .and_then(|p| {
                    if p.state_digest() == digest {
                        Ok(p)
                    } else {
                        Err("reopen: digest differs".to_owned())
                    }
                })
                .and_then(|p| {
                    if p.db().check_database().is_consistent() {
                        Ok(())
                    } else {
                        Err("reopen: inconsistent database".to_owned())
                    }
                });
            c.tally.record(reopened);
        } else {
            drop(pdb);
        }
        measured += t_round.elapsed().as_secs_f64();

        if let (Some(instr), Some(mut window)) = (instr, window) {
            for name in crate::exec::MIRRORED_COUNTERS {
                window.exclude_count(name, instr.mirrored(name));
            }
            trace_data = Some(TraceData {
                window,
                scanned_shipped,
                wire: (
                    instr.wire.frames.load(Relaxed),
                    instr.wire.wire_bytes.load(Relaxed),
                ),
                read_stats,
                mirror_ops: instr.dml_ops,
                mirror_bytes: instr.codec_bytes,
                costs,
                temporal,
                lag,
                busy_s: (base_busy, round_busy),
                tracer: tr,
            });
        }
        base_busy = round_busy;
        if last {
            break;
        }
    }
    if !traced && w.name == "recover_checkpoint" {
        // The crash half of durability, on the simulated disk where the
        // test itself can drop what was not flushed.
        let mut rng = Rng::new(seed ^ 0xD0_0D);
        let (ops, _) = gen::base_state(
            BaseSize {
                objects: 120,
                updates: 12,
            },
            &mut rng,
        );
        durability_pass(&gen::schema(), &ops, &mut c.tally);
    }
    Ok((c, trace_data))
}

/// The end-to-end metrics of an untraced run. A metric whose samples are
/// missing (its operations failed) is left out, which fails the run.
pub fn end_to_end(c: &Collected, peak_rss_mb: f64) -> Values {
    let mut v = Values::default();
    let mut put = |name: &'static str, x: Option<f64>| {
        if let Some(x) = x.filter(|x| x.is_finite()) {
            v.set(name, x);
        }
    };
    put("setup_s", median(&c.setups_s));
    // The guard's statement phase only counts for a workload whose main
    // part sends no statements.
    put(
        "stmt_per_s",
        median(if c.main_rates.is_empty() {
            &c.guard_rates
        } else {
            &c.main_rates
        }),
    );
    put(
        "write_p50_us",
        median(&c.latencies_ns(true)).map(|x| x / 1e3),
    );
    put(
        "read_p50_us",
        median(&c.latencies_ns(false)).map(|x| x / 1e3),
    );
    put("catchup_s", median(&c.catchup_s));
    put("recover_full_s", median(&c.life.recover_full_s));
    put("recover_snap_s", median(&c.life.recover_snap_s));
    put("checkpoint_s", median(&c.life.checkpoint_s));
    put("scrub_s", median(&c.life.scrub_s));
    put("disk_bytes_per_user_byte", median(&c.life.disk_ratio));
    put("peak_rss_mb", Some(peak_rss_mb));
    v
}

/// The per-layer metrics of a traced run.
pub fn per_layer(c: &Collected, t: &TraceData) -> Values {
    let mut v = Values::default();
    for def in crate::metrics::PER_LAYER {
        v.set(def.name, 0.0);
    }
    let layers = trace::self_times(t.tracer.spans());
    let self_s = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e9);
    let total_s = |name: &str| layers.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e9);
    let calls = |name: &str| layers.get(name).map_or(0.0, |l| l.calls as f64);
    let counter = |name: &str| t.window.counter(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    v.set("query.parser.busy_s", self_s("query.parser"));
    v.set("query.parser.calls", calls("query.parser"));
    v.set("query.parser.errors", t.read_stats.parse_errors as f64);
    v.set("query.plan.busy_s", self_s("query.plan"));
    v.set(
        "query.plan.cache_hit_ratio",
        ratio(
            t.read_stats.plan_hits as f64,
            (t.read_stats.plan_hits + t.read_stats.plan_misses) as f64,
        ),
    );
    v.set("query.exec.busy_s", self_s("query.exec"));
    v.set(
        "query.exec.bindings_per_row",
        ratio(t.read_stats.bindings as f64, t.read_stats.rows as f64),
    );
    v.set("query.exec.index_scans", counter("query.plan.index_scans"));
    v.set("query.exec.hash_joins", counter("query.plan.hash_joins"));
    v.set("query.exec.partitions", t.read_stats.partitions as f64);
    // The traced round's statements are the last `main_round_stmts`.
    let traced_round = &c.stmts[c.stmts.len().saturating_sub(c.main_round_stmts)..];
    // Demoted from the end-to-end table (see `metrics.rs`). Zero when the
    // round has too few samples to support a 99th percentile.
    let p99_us =
        |writes| percentile(&latencies_ns(traced_round, writes), 99.0).unwrap_or(0.0) / 1e3;
    v.set("write_p99_us", p99_us(true));
    v.set("read_p99_us", p99_us(false));
    for def in crate::metrics::PER_LAYER {
        let kind = def
            .name
            .strip_prefix("query.kind.")
            .and_then(|n| n.strip_suffix(".p50_us"));
        let Some(kind) = kind.and_then(|n| Kind::QUERY_KINDS.iter().find(|k| k.name() == n)) else {
            continue;
        };
        let xs: Vec<f64> = traced_round
            .iter()
            .filter(|(k, _)| k == kind)
            .map(|(_, ns)| *ns)
            .collect();
        v.set(def.name, median(&xs).unwrap_or(0.0) / 1e3);
    }
    v.set("query.governor.shed", counter("query.governor.shed"));
    v.set(
        "query.governor.budget_exceeded",
        counter("query.governor.budget_exceeded"),
    );

    // Full replays of the traced round: each left one decode span.
    let replays = calls("storage.codec.decode") as u64;
    let costs = t.costs.clone().unwrap_or_default();
    v.set("core.dml.busy_s", self_s("core.dml"));
    v.set(
        "core.dml.ops",
        (t.mirror_ops + costs.scanned_ops * replays) as f64,
    );
    for name in [
        "core.attridx.probes",
        "core.attridx.incremental",
        "core.attridx.builds",
        "core.attridx.evictions",
    ] {
        v.set(name, counter(name));
    }
    v.set("core.extent.at_replay", counter("core.extent.at_replay"));
    v.set(
        "core.extent.replayed_events",
        counter("core.extent.replayed_events"),
    );
    v.set(
        "core.refindex.incremental",
        counter("core.refindex.incremental"),
    );
    v.set("core.state.export_s", self_s("core.state.export"));
    v.set("core.state.import_s", self_s("core.state.import"));
    v.set(
        "core.consistency.check_database_s",
        costs.check_database_ns as f64 / 1e9,
    );
    v.set("core.scrub.cycle_s", self_s("core.scrub"));
    v.set("core.scrub.items", counter("core.scrub.items"));
    v.set("temporal.value_at_ns", t.temporal.0);
    v.set("temporal.set_from_ns", t.temporal.1);

    v.set("storage.codec.encode_s", self_s("storage.codec.encode"));
    v.set("storage.codec.decode_s", self_s("storage.codec.decode"));
    v.set(
        "storage.codec.bytes",
        (t.mirror_bytes + costs.codec_bytes * replays) as f64,
    );
    v.set("storage.log.append_s", self_s("storage.log"));
    v.set("storage.log.appends", counter("storage.log.appends"));
    v.set("storage.log.bytes", counter("storage.log.bytes"));
    v.set("storage.log.scan_s", self_s("storage.log.scan"));
    v.set(
        "storage.log.scanned_ops",
        counter("storage.log.scanned_ops"),
    );
    for (i, name) in crate::counting::VFS_METRICS.iter().enumerate() {
        v.set(name, t.window.vfs(i));
    }
    v.set("storage.vfs.write_s", self_s("storage.vfs.write"));
    v.set("storage.vfs.fsync_s", self_s("storage.vfs.fsync"));
    v.set("storage.snapshot.write_s", self_s("storage.snapshot.write"));
    v.set("storage.snapshot.load_s", self_s("storage.snapshot.load"));
    v.set("storage.snapshot.bytes", c.life.snapshot_bytes as f64);
    v.set("storage.engine.digest_s", self_s("storage.engine.digest"));
    let opens: Vec<f64> = t
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "storage.engine.open")
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect();
    v.set("storage.engine.open_s", median(&opens).unwrap_or(0.0));
    v.set(
        "storage.engine.self_s",
        [
            "storage.engine",
            "storage.engine.open",
            "storage.engine.checkpoint",
            "storage.engine.scrub",
        ]
        .iter()
        .map(|n| self_s(n))
        .sum(),
    );

    let shipped = counter("repl.ops.shipped");
    v.set(
        "storage.repl.primary.pump_s",
        total_s("storage.repl.primary"),
    );
    v.set("storage.repl.primary.pumps", calls("storage.repl.primary"));
    v.set("storage.repl.primary.ops_shipped", shipped);
    v.set(
        "storage.repl.primary.scanned_ops_per_shipped_op",
        ratio(t.scanned_shipped.0, t.scanned_shipped.1),
    );
    v.set(
        "storage.repl.replica.pump_s",
        total_s("storage.repl.replica"),
    );
    v.set(
        "storage.repl.replica.ops_applied",
        counter("repl.ops.applied"),
    );
    v.set(
        "storage.repl.replica.digest_checks",
        counter("repl.digest.checks"),
    );
    v.set("storage.repl.replica.lag_ops_mean", t.lag.0);
    v.set("storage.repl.replica.lag_ops_max", t.lag.1 as f64);
    v.set(
        "storage.repl.catchup_snapshot_s",
        median(&c.catchup_snapshot_s).unwrap_or(0.0),
    );
    v.set("storage.repl.transport.frames", t.wire.0 as f64);
    v.set("storage.repl.transport.wire_bytes", t.wire.1 as f64);
    v.set(
        "storage.repl.transport.wire_bytes_per_op",
        ratio(t.wire.1 as f64, shipped),
    );

    // Tracing overhead: the measured time (statement latencies, operation
    // durations) of the same fixed work in the untraced base round and in
    // the traced round. Work done beside the real calls is in neither.
    let (base, with) = t.busy_s;
    v.set(
        "obs.trace_overhead_pct",
        if with > 0.0 {
            (1.0 - base / with) * 100.0
        } else {
            0.0
        },
    );
    v.set("driver.self_s", self_s("stmt") + self_s("op"));
    v.set(
        "driver.traced_wall_s",
        trace::root_wall_ns(t.tracer.spans()) as f64 / 1e9,
    );
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// Each workload at a hundredth of its size, both passes: the driver's
    /// own control flow, gates and metric assembly under test.
    #[test]
    fn every_workload_runs_tiny_untraced_and_traced() {
        for w in workloads() {
            let mut tiny = w.scaled(1, 100);
            if w.name == "query_mix" {
                // Repeats, so the plan cache can hit.
                tiny.main.stmts = Mix(reads_of_every_kind(4));
            }
            let (c, none) = run(&tiny, 3, 0.0, false).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(none.is_none());
            assert_eq!(c.tally.failed, 0, "{}: {:?}", w.name, c.tally.errors);
            assert!(c.tally.attempted > 0 && c.rounds == 2, "{}", w.name);
            let e2e = end_to_end(&c, 1.0);
            for def in END_TO_END {
                let have = e2e.get(def.name);
                assert!(
                    have.is_some_and(|x| x > 0.0),
                    "{}: {} = {have:?}",
                    w.name,
                    def.name
                );
            }
            e2e.to_json(END_TO_END)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));

            let (c, t) =
                run(&tiny, 3, 0.0, true).unwrap_or_else(|e| panic!("{} traced: {e}", w.name));
            assert_eq!(c.tally.failed, 0, "{} traced: {:?}", w.name, c.tally.errors);
            let t = t.expect("a traced run has trace data");
            let layers = per_layer(&c, &t);
            layers
                .to_json(PER_LAYER)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let get = |name: &str| layers.get(name).unwrap_or_else(|| panic!("no {name}"));
            assert!(get("driver.traced_wall_s") > 0.0, "{}", w.name);
            let spans = t.tracer.spans();
            for s in spans {
                assert!(s.parent == trace::NO_PARENT || (s.parent as usize) < spans.len());
                assert!(s.end_ns >= s.start_ns);
            }
            // A layer the workload's main part does not use reads zero.
            match w.name {
                "query_mix" => {
                    for idle in [
                        "storage.vfs.fsync_s",
                        "storage.vfs.writes",
                        "storage.log.append_s",
                        "storage.repl.primary.pump_s",
                        "core.dml.busy_s",
                    ] {
                        assert_eq!(get(idle), 0.0, "{idle}");
                    }
                    assert!(get("query.exec.busy_s") > 0.0);
                    assert!(get("query.plan.cache_hit_ratio") > 0.0);
                    assert!(get("core.attridx.builds") >= 1.0);
                }
                "repl_ship" => {
                    assert_eq!(get("query.exec.busy_s"), 0.0);
                    assert!(
                        get("storage.repl.primary.scanned_ops_per_shipped_op") > 10.0,
                        "the pump re-scans the whole log"
                    );
                    assert!(get("storage.repl.catchup_snapshot_s") > 0.0);
                }
                "recover_checkpoint" => {
                    assert_eq!(get("query.parser.calls"), 0.0);
                    assert!(get("core.state.import_s") > 0.0 && get("storage.log.scan_s") > 0.0);
                }
                _ => assert!(get("storage.vfs.fsyncs") > 0.0 && get("core.dml.ops") > 0.0),
            }
        }
    }

    #[test]
    fn a_run_is_deterministic_in_its_counts() {
        let w = workloads()
            .into_iter()
            .find(|w| w.name == "oltp_durable")
            .unwrap()
            .scaled(1, 100);
        let a = run(&w, 9, 0.0, false).unwrap().0;
        let b = run(&w, 9, 0.0, false).unwrap().0;
        assert_eq!(a.tally.attempted, b.tally.attempted);
        assert_eq!(
            (a.life.log_bytes, a.life.snapshot_bytes, a.life.user_bytes),
            (b.life.log_bytes, b.life.snapshot_bytes, b.life.user_bytes)
        );
        assert_eq!(a.life.disk_ratio, b.life.disk_ratio);
    }
}

//! Replication study: steady-state ship throughput, replica lag under a
//! hostile link, and follower catch-up (log replay vs. snapshot image),
//! emitting machine-readable `BENCH_repl.json`.
//!
//! ```text
//! cargo run --release -p tchimera-bench --bin repl            # full
//! cargo run --release -p tchimera-bench --bin repl -- --quick # small sizes
//! ```
//!
//! All nodes run on [`SimFs`] so the numbers isolate the replication
//! machinery (framing, CRC, shipping, replay, digest checks) from disk
//! noise, and the fault schedule is deterministic per seed.

use std::path::PathBuf;
use std::sync::Arc;

use tchimera_bench::fmt_ns;
use tchimera_core::{attrs, ClassDef, ClassId, Instant, Oid, Type, Value};
use tchimera_storage::repl::{Primary, Replica, SimNetConfig, SimTransport};
use tchimera_storage::{PersistentDatabase, SimFs, Vfs};

fn open(name: &str) -> PersistentDatabase {
    let vfs: Arc<dyn Vfs> = Arc::new(SimFs::new());
    let mut pdb = PersistentDatabase::open_with(vfs, &PathBuf::from(name)).unwrap();
    pdb.define_class(ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)))
        .unwrap();
    pdb.advance_to(Instant(1)).unwrap();
    pdb
}

/// One scripted mutation (advance / create / set), same mix as the
/// recovery study so op sizes are comparable across benches.
fn drive_one(pdb: &mut PersistentDatabase, i: usize, last: &mut u64) {
    let employee = ClassId::from("employee");
    match i % 8 {
        0 => {
            let t = Instant(pdb.db().now().ticks() + 1);
            pdb.advance_to(t).unwrap();
        }
        1 | 5 => {
            *last = pdb
                .create_object(&employee, attrs([("salary", Value::Int(i as i64))]))
                .unwrap()
                .0;
        }
        _ => {
            pdb.set_attr(Oid(*last), &"salary".into(), Value::Int(i as i64))
                .unwrap();
        }
    }
}

/// Pump both ends until the replica is fully caught up; returns rounds.
fn drain(p: &mut Primary<SimTransport>, r: &mut Replica<SimTransport>) -> usize {
    for round in 1..=10_000 {
        p.pump().unwrap();
        r.pump().unwrap();
        if r.lag() == 0 && r.applied() == p.db().op_count() as u64 {
            return round;
        }
    }
    panic!("replica failed to converge");
}

struct Throughput {
    ops: usize,
    wall_ns: f64,
    ops_per_sec: f64,
}

/// Steady state, median of five runs (ROADMAP item 2 asks for ship
/// throughput flat within ±10 % from 500 to 32 000 ops; one run's noise
/// is wider than that).
fn throughput(ops: usize) -> Throughput {
    let mut runs: Vec<Throughput> = (0..5).map(|_| throughput_once(ops)).collect();
    runs.sort_by(|a, b| a.wall_ns.total_cmp(&b.wall_ns));
    runs.swap_remove(2)
}

/// Drive + pump each op over a clean link, wall-clock for the whole
/// workload to land applied on the replica.
fn throughput_once(ops: usize) -> Throughput {
    let (pt, rt) = SimTransport::pair(1, SimNetConfig::clean());
    let mut primary = Primary::new(open("tp-primary.log"), 1, pt);
    let mut replica = Replica::new(open("tp-replica.log"), rt);
    drain(&mut primary, &mut replica);
    let mut last = 0u64;
    let start = std::time::Instant::now();
    for i in 0..ops {
        drive_one(primary.db(), i, &mut last);
        primary.pump().unwrap();
        replica.pump().unwrap();
    }
    drain(&mut primary, &mut replica);
    let wall_ns = start.elapsed().as_nanos() as f64;
    assert!(replica.halted().is_none());
    Throughput {
        ops,
        wall_ns,
        ops_per_sec: ops as f64 / (wall_ns / 1e9),
    }
}

struct Lag {
    mean_lag: f64,
    max_lag: u64,
    drain_rounds: usize,
}

/// The same workload over a hostile link: how far behind does the
/// replica run, and how many quiet pump rounds does it need to drain?
fn lag(ops: usize) -> Lag {
    let (pt, rt) = SimTransport::pair(7, SimNetConfig::hostile());
    let mut primary = Primary::new(open("lag-primary.log"), 1, pt);
    let mut replica = Replica::new(open("lag-replica.log"), rt);
    let mut last = 0u64;
    let (mut sum, mut max) = (0u64, 0u64);
    for i in 0..ops {
        drive_one(primary.db(), i, &mut last);
        primary.pump().unwrap();
        replica.pump().unwrap();
        let l = replica.lag();
        sum += l;
        max = max.max(l);
    }
    let drain_rounds = drain(&mut primary, &mut replica);
    assert!(replica.halted().is_none());
    Lag {
        mean_lag: sum as f64 / ops as f64,
        max_lag: max,
        drain_rounds,
    }
}

struct CatchUp {
    log_ns: f64,
    snapshot_ns: f64,
}

/// A fresh follower attaches to a primary with `ops` of history: once
/// against an uncompacted log (suffix replay), once after a checkpoint
/// compacted it away (whole-state snapshot ship).
fn catch_up(ops: usize) -> CatchUp {
    let time_attach = |checkpoint: bool, tag: &str| -> f64 {
        let mut pdb = open(&format!("cu-{tag}.log"));
        let mut last = 0u64;
        for i in 0..ops {
            drive_one(&mut pdb, i, &mut last);
        }
        if checkpoint {
            pdb.checkpoint().unwrap();
        }
        let mut best = f64::INFINITY;
        for rep in 0u64..5 {
            let (pt, rt) = SimTransport::pair(rep, SimNetConfig::clean());
            let mut primary = Primary::new(pdb, 1, pt);
            let mut replica = Replica::new(open(&format!("cu-{tag}-f{rep}.log")), rt);
            let start = std::time::Instant::now();
            drain(&mut primary, &mut replica);
            best = best.min(start.elapsed().as_nanos() as f64);
            assert_eq!(
                replica.db_ref().state_digest(),
                primary.db_ref().state_digest()
            );
            (pdb, _, _) = primary.into_parts();
        }
        best
    };
    CatchUp {
        log_ns: time_attach(false, "log"),
        snapshot_ns: time_attach(true, "snap"),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick { &[500] } else { &[500, 2_000, 8_000, 32_000] };

    println!("# E19 — log-shipping replication: throughput, lag, catch-up\n");

    println!("| ops | shipped wall | ops/s | mean lag (hostile) | max lag | drain rounds | catch-up (log) | catch-up (snapshot) |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut rows = Vec::new();
    for &n in sizes {
        let t = throughput(n);
        let l = lag(n);
        let c = catch_up(n);
        println!(
            "| {} | {} | {:.0} | {:.1} | {} | {} | {} | {} |",
            n,
            fmt_ns(t.wall_ns),
            t.ops_per_sec,
            l.mean_lag,
            l.max_lag,
            l.drain_rounds,
            fmt_ns(c.log_ns),
            fmt_ns(c.snapshot_ns),
        );
        rows.push((t, l, c));
    }

    // Hand-rolled JSON (no serde in the tree): flat and stable.
    let mut json = String::from("{\n  \"repl\": [\n");
    for (k, (t, l, c)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"ops\": {}, \"ship_wall_ns\": {:.0}, \"ops_per_sec\": {:.0}, \"mean_lag\": {:.2}, \"max_lag\": {}, \"drain_rounds\": {}, \"catchup_log_ns\": {:.0}, \"catchup_snapshot_ns\": {:.0}}}{}\n",
            t.ops,
            t.wall_ns,
            t.ops_per_sec,
            l.mean_lag,
            l.max_lag,
            l.drain_rounds,
            c.log_ns,
            c.snapshot_ns,
            if k + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_repl.json", &json).expect("write BENCH_repl.json");
    println!("\nwrote BENCH_repl.json");
}

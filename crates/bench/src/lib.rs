//! Workload generators for the experiment harness (`harness` binary),
//! which reproduces the paper's tables as E1–E9 of `EXPERIMENTS.md`.
//! The benchmark driver (`benchmark` binary) generates its own inputs and
//! does not use this library.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tchimera_core::{
    attrs, Attrs, ClassDef, ClassId, Database, Instant, Interval, Oid, TemporalValue, Type, Value,
};

/// Deterministic RNG for reproducible workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Build the staff schema (person ⊇ employee ⊇ manager, plus `student`
/// and a disjoint `vehicle` hierarchy).
pub fn staff_schema(db: &mut Database) {
    db.define_class(
        ClassDef::new("person")
            .immutable_attr("name", Type::temporal(Type::STRING))
            .attr("address", Type::STRING),
    )
    .unwrap();
    db.define_class(
        ClassDef::new("employee")
            .isa("person")
            .attr("salary", Type::temporal(Type::INTEGER))
            .attr("grade", Type::INTEGER),
    )
    .unwrap();
    db.define_class(
        ClassDef::new("manager")
            .isa("employee")
            .attr("officialcar", Type::STRING),
    )
    .unwrap();
    db.define_class(ClassDef::new("student").isa("person")).unwrap();
    db.define_class(ClassDef::new("vehicle")).unwrap();
}

/// Build a database with `n_objects` employees, each with `updates`
/// recorded salary changes (one per tick), and a fraction of them migrated
/// to manager and back to create class-history runs.
pub fn staff_db(n_objects: usize, updates: usize, seed: u64) -> Database {
    let mut r = rng(seed);
    let mut db = Database::new();
    staff_schema(&mut db);
    db.advance_to(Instant(10)).unwrap();
    let employee = ClassId::from("employee");
    let manager = ClassId::from("manager");
    let mut oids = Vec::with_capacity(n_objects);
    for k in 0..n_objects {
        let oid = db
            .create_object(
                &employee,
                attrs([
                    ("name", Value::str(format!("emp-{k}"))),
                    ("salary", Value::Int(r.gen_range(500..5000))),
                    ("grade", Value::Int(r.gen_range(1..10))),
                ]),
            )
            .unwrap();
        oids.push(oid);
    }
    for _ in 0..updates {
        db.tick();
        for &oid in &oids {
            db.set_attr(oid, &"salary".into(), Value::Int(r.gen_range(500..5000)))
                .unwrap();
        }
    }
    // Migrate ~1/4 of the population to manager, half of those back.
    db.tick();
    for (k, &oid) in oids.iter().enumerate() {
        if k % 4 == 0 {
            db.migrate(
                oid,
                &manager,
                attrs([("officialcar", Value::str("car"))]),
            )
            .unwrap();
        }
    }
    db.tick();
    for (k, &oid) in oids.iter().enumerate() {
        if k % 8 == 0 {
            db.migrate(oid, &employee, Attrs::new()).unwrap();
        }
    }
    db.tick();
    db
}

/// Generate a random integer history of `changes` runs, each lasting
/// `run_len` instants, starting at t=0.
pub fn int_history(changes: usize, run_len: u64, seed: u64) -> TemporalValue<i64> {
    let mut r = rng(seed);
    let mut tv = TemporalValue::new();
    let mut t = 0u64;
    for _ in 0..changes {
        tv.set_from(Instant(t), r.gen_range(0..1_000_000)).unwrap();
        t += run_len;
    }
    tv.close(Instant(t.saturating_sub(1)));
    tv
}

/// The per-instant baseline for the same workload (experiment E4).
pub fn int_point_history(
    changes: usize,
    run_len: u64,
    seed: u64,
) -> tchimera_temporal::PointHistory<i64> {
    let mut r = rng(seed);
    let mut h = tchimera_temporal::PointHistory::new();
    let mut t = 0u64;
    for _ in 0..changes {
        let v = r.gen_range(0..1_000_000);
        h.append_run(Interval::from_ticks(t, t + run_len - 1), v);
        t += run_len;
    }
    h
}

/// Random query instants within `[0, max_t]`.
pub fn probe_instants(n: usize, max_t: u64, seed: u64) -> Vec<Instant> {
    let mut r = rng(seed);
    (0..n).map(|_| Instant(r.gen_range(0..=max_t))).collect()
}

/// The oids of a database (sorted).
pub fn all_oids(db: &Database) -> Vec<Oid> {
    db.objects().map(|o| o.oid).collect()
}

/// A deep single-inheritance chain `c0 ⊇ c1 ⊇ … ⊇ c{depth}` for the
/// subtype-check benchmark (E8).
pub fn deep_chain_db(depth: usize) -> Database {
    let mut db = Database::new();
    db.define_class(ClassDef::new("c0")).unwrap();
    for k in 1..=depth {
        let name = format!("c{k}");
        let sup = format!("c{}", k - 1);
        db.define_class(ClassDef::new(name.as_str()).isa(sup.as_str()))
            .unwrap();
    }
    db
}

/// A simple timing helper for the harness tables: median of `reps`
/// wall-clock runs of `f`, in nanoseconds.
pub fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let out = f();
        samples.push(start.elapsed().as_nanos() as f64);
        std::hint::black_box(out);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Format nanoseconds human-readably.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staff_db_is_consistent() {
        let db = staff_db(40, 5, 7);
        assert_eq!(db.object_count(), 40);
        assert!(db.check_invariants().is_empty());
        assert!(db.check_database().is_consistent());
        // Some managers exist.
        assert!(!db
            .pi(&ClassId::from("manager"), db.now())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn histories_match_between_representations() {
        let a = int_history(50, 10, 3);
        let b = int_point_history(50, 10, 3);
        let now = Instant(10_000);
        for t in probe_instants(200, 600, 4) {
            assert_eq!(a.value_at(t, now), b.value_at(t));
        }
        assert_eq!(a.run_count(), b.to_temporal().run_count());
    }

    #[test]
    fn deep_chain_has_expected_depth() {
        let db = deep_chain_db(16);
        assert!(db
            .schema()
            .is_subclass(&ClassId::from("c16"), &ClassId::from("c0")));
        assert_eq!(db.schema().superclasses_of(&ClassId::from("c16")).len(), 16);
    }

    #[test]
    fn timing_helper_runs() {
        let ns = time_ns(5, || (0..100).sum::<u64>());
        assert!(ns >= 0.0);
        assert!(fmt_ns(500.0).contains("ns"));
        assert!(fmt_ns(5_000.0).contains("µs"));
        assert!(fmt_ns(5_000_000.0).contains("ms"));
        assert!(fmt_ns(5_000_000_000.0).contains("s"));
    }
}

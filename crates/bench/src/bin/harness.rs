//! The experiment harness: reproduces the paper's own results — Tables
//! 1–3, the typing, consistency, equality, invariant, subtyping and
//! migration machinery, and the Section 3.2 representation claim — as
//! the Markdown tables E1–E9 of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p tchimera-bench --bin harness
//! ```
//!
//! It takes no arguments. Everything the implementation added beyond the
//! paper is measured by the benchmark driver (`--bin benchmark`).

#![forbid(unsafe_code)]

use tchimera_bench::{
    all_oids, deep_chain_db, fmt_ns, int_history, int_point_history, probe_instants, staff_db,
    time_ns,
};
use tchimera_core::{
    attrs, Attrs, ClassDef, ClassId, Database, Instant, Oid, Type, Value, CAPABILITIES,
};

fn main() {
    println!("# T_Chimera experiment harness\n");
    e1_capabilities();
    e2_table3();
    e3_typing();
    e4_representation();
    e5_consistency();
    e6_equality();
    e7_invariants();
    e8_inheritance();
    e9_migration();
}

fn header(id: &str, title: &str) {
    println!("## {id} — {title}\n");
}

fn e1_capabilities() {
    header("E1", "Tables 1–2 feature matrix (\"Our model\" row)");
    println!("| dimension | paper claims | implementation |");
    println!("|---|---|---|");
    let c = CAPABILITIES;
    println!("| oo data model | Chimera | {} |", c.oo_data_model);
    println!("| time structure | linear | {} |", c.time_structure);
    println!("| time dimension | valid | {} |", c.time_dimension);
    println!("| values & objects | both | {} |", c.values_and_objects);
    println!("| class features | YES | {} |", yes(c.class_features));
    println!("| what is timestamped | attributes | {} |", c.timestamped);
    println!(
        "| temporal attribute values | functions | {} |",
        c.temporal_attribute_values
    );
    println!(
        "| kinds of attributes | temporal + immutable + non-temporal | {} |",
        c.kinds_of_attributes
    );
    println!(
        "| histories of object types | YES | {} |",
        yes(c.histories_of_object_types)
    );
    println!("\n(each row is verified behaviourally by `capabilities` unit tests)\n");
}

fn yes(b: bool) -> &'static str {
    if b {
        "YES"
    } else {
        "NO"
    }
}

fn e2_table3() {
    header("E2", "Table 3 model functions (1k objects, 20 updates each)");
    let db = staff_db(1_000, 20, 42);
    let oids = all_oids(&db);
    let employee = ClassId::from("employee");
    let t = Instant(15);
    println!("| function | median time |");
    println!("|---|---|");
    let ty = Type::temporal(Type::INTEGER);
    row("T⁻ (strip_temporal)", time_ns(201, || ty.strip_temporal().cloned()));
    row("π(c, t)", time_ns(51, || db.pi(&employee, t).unwrap()));
    row("type(c)", time_ns(201, || db.type_of(&employee).unwrap()));
    row("h_type(c)", time_ns(201, || db.h_type(&employee).unwrap()));
    row("s_type(c)", time_ns(201, || db.s_type(&employee).unwrap()));
    let mut k = 0usize;
    row(
        "h_state(i, t)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.h_state(oids[k], t).unwrap()
        }),
    );
    row(
        "s_state(i)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.s_state(oids[k]).unwrap()
        }),
    );
    row(
        "o_lifespan(i)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.o_lifespan(oids[k]).unwrap()
        }),
    );
    row(
        "c_lifespan(i, c)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.c_lifespan(oids[k], &employee).unwrap()
        }),
    );
    row(
        "ref(i, t)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.refs(oids[k], t).unwrap()
        }),
    );
    row(
        "snapshot(i, now)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.snapshot(oids[k], db.now()).unwrap()
        }),
    );
    println!();
}

fn row(name: &str, ns: f64) {
    println!("| {name} | {} |", fmt_ns(ns));
}

fn e3_typing() {
    header("E3", "Typing rules throughput (Definitions 3.5/3.6, Theorems 3.1/3.2)");
    let db = staff_db(200, 10, 42);
    let oids = all_oids(&db);
    let t = Instant(15);
    println!("| workload | check `v ∈ [[T]]_t` | infer (Def 3.6) |");
    println!("|---|---|---|");
    for &n in &[10usize, 100, 1_000] {
        let v = Value::set((0..n as i64).map(Value::Int));
        let ty = Type::set_of(Type::INTEGER);
        let c = time_ns(101, || db.value_in_type(&v, &ty, t));
        let i = time_ns(101, || db.infer_type(&v, t).unwrap());
        println!("| set of {n} integers | {} | {} |", fmt_ns(c), fmt_ns(i));
    }
    for &n in &[10usize, 100] {
        let v = Value::set(oids.iter().take(n).map(|&i| Value::Oid(i)));
        let ty = Type::set_of(Type::object("person"));
        let c = time_ns(101, || db.value_in_type(&v, &ty, t));
        let i = time_ns(101, || db.infer_type(&v, t).unwrap());
        println!("| set of {n} oids | {} | {} |", fmt_ns(c), fmt_ns(i));
    }
    println!("\n(soundness/completeness themselves are property tests: `cargo test -p tchimera-core --test typing_theorems`)\n");
}

fn e4_representation() {
    header(
        "E4",
        "Section 3.2 representation claim — coalesced runs vs per-instant pairs",
    );
    println!("| changes | run len | coalesced | per-instant |");
    println!("|---|---|---|---|");
    // Cells are build time / per-lookup time / stored entries. At run
    // length 1 only the smallest size is shown: there both forms store
    // one entry per instant.
    for (changes, run_len) in [
        (100usize, 1u64),
        (100, 10),
        (100, 100),
        (1_000, 10),
        (1_000, 100),
        (10_000, 10),
        (10_000, 100),
    ] {
        let max_t = changes as u64 * run_len;
        let now = Instant(max_t + 1);
        let probes = probe_instants(512, max_t, 7);
        let coalesced = int_history(changes, run_len, 42);
        let cb = time_ns(21, || int_history(changes, run_len, 42));
        let cl = time_ns(51, || {
            probes
                .iter()
                .filter_map(|&p| coalesced.value_at(p, now))
                .sum::<i64>()
        }) / probes.len() as f64;
        let naive = int_point_history(changes, run_len, 42);
        let nb = time_ns(21, || int_point_history(changes, run_len, 42));
        let nl = time_ns(51, || {
            probes.iter().filter_map(|&p| naive.value_at(p)).sum::<i64>()
        }) / probes.len() as f64;
        println!(
            "| {changes} | {run_len} | {} / {} / {} | {} / {} / {} |",
            fmt_ns(cb),
            fmt_ns(cl),
            coalesced.run_count(),
            fmt_ns(nb),
            fmt_ns(nl),
            naive.len()
        );
    }
    println!();
}

fn e5_consistency() {
    header("E5", "Consistency checking (Definitions 5.3–5.6)");
    println!("| workload | check |");
    println!("|---|---|");
    for &updates in &[10usize, 100, 1_000] {
        let db = staff_db(8, updates, 42);
        let ns = time_ns(21, || db.check_object(Oid(0)).unwrap());
        println!("| check_object, history = {updates} | {} |", fmt_ns(ns));
    }
    for &n in &[100usize, 1_000] {
        let db = staff_db(n, 10, 42);
        let ns = time_ns(11, || db.check_database());
        println!("| check_database, {n} objects | {} |", fmt_ns(ns));
    }
    // Fault-injection detection rate.
    let mut db = staff_db(50, 5, 42);
    let mut detected = 0;
    for k in 0..50u64 {
        let mut broken = db.object(Oid(k)).unwrap().clone();
        broken.attrs.insert("address".into(), Value::Int(k as i64));
        db.replace_object_for_test(broken).unwrap();
        if !db.check_object(Oid(k)).unwrap().is_consistent() {
            detected += 1;
        }
    }
    println!("| injected static-type faults detected | {detected}/50 |");
    println!();
}

fn e6_equality() {
    header("E6", "Equality notions (Definitions 5.7–5.10)");
    println!("| history | identity | value | instantaneous | weak |");
    println!("|---|---|---|---|---|");
    for &updates in &[10usize, 100, 1_000] {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("player").attr("score", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        let a = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(0))]))
            .unwrap();
        let b = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(0))]))
            .unwrap();
        for k in 0..updates {
            db.tick();
            db.set_attr(a, &"score".into(), Value::Int(k as i64)).unwrap();
            db.set_attr(b, &"score".into(), Value::Int(k as i64 + 1)).unwrap();
        }
        db.tick();
        let i = time_ns(201, || db.eq_identity(a, b));
        let v = time_ns(51, || db.eq_value(a, b).unwrap());
        let inst = time_ns(21, || db.eq_instantaneous(a, b).unwrap());
        let w = time_ns(11, || db.eq_weak(a, b).unwrap());
        println!(
            "| {updates} | {} | {} | {} | {} |",
            fmt_ns(i),
            fmt_ns(v),
            fmt_ns(inst),
            fmt_ns(w)
        );
    }
    println!();
}

fn e7_invariants() {
    header("E7", "Invariant checking (Invariants 5.1, 5.2, 6.1, 6.2)");
    println!("| objects | check_invariants |");
    println!("|---|---|");
    for &n in &[100usize, 1_000, 5_000] {
        let db = staff_db(n, 10, 42);
        let ns = time_ns(11, || db.check_invariants());
        println!("| {n} | {} |", fmt_ns(ns));
    }
    println!("\n(preservation under 10k random ops: `cargo test -p tchimera-core --test model_props`)\n");
}

fn e8_inheritance() {
    header("E8", "Subtyping and substitutability (Section 6)");
    println!("| workload | time |");
    println!("|---|---|");
    for &depth in &[1usize, 4, 16, 64] {
        let db = deep_chain_db(depth);
        let sub = Type::object(format!("c{depth}").as_str());
        let sup = Type::object("c0");
        let ns = time_ns(201, || db.schema().is_subtype(&sub, &sup));
        println!("| is_subtype, ISA depth {depth} | {} |", fmt_ns(ns));
    }
    // view_as coercion.
    let mut db = Database::new();
    db.define_class(ClassDef::new("base").attr("a", Type::INTEGER)).unwrap();
    db.define_class(
        ClassDef::new("sub").isa("base").attr("a", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
    let oid = db
        .create_object(&ClassId::from("sub"), attrs([("a", Value::Int(1))]))
        .unwrap();
    for k in 0..100 {
        db.tick();
        db.set_attr(oid, &"a".into(), Value::Int(k)).unwrap();
    }
    let ns = time_ns(201, || db.view_as(oid, &ClassId::from("base")).unwrap());
    println!("| view_as coercion (100-run history) | {} |", fmt_ns(ns));
    println!();
}

fn e9_migration() {
    header("E9", "Migration throughput (Section 5.2)");
    println!("| objects | migrations/s | with per-op invariant check |");
    println!("|---|---|---|");
    for &n in &[100usize, 1_000] {
        let base = staff_db(n, 5, 42);
        let oids = all_oids(&base);
        let manager = ClassId::from("manager");
        let employee = ClassId::from("employee");
        let ns = time_ns(5, || {
            let mut db = base.clone();
            for &oid in &oids {
                db.tick();
                db.migrate(oid, &manager, attrs([("officialcar", Value::str("car"))]))
                    .unwrap();
                db.tick();
                db.migrate(oid, &employee, Attrs::new()).unwrap();
            }
            db
        });
        let ops_per_s = (2.0 * oids.len() as f64) / (ns / 1e9);
        // Ablation: full invariant check after each migration (16 objects).
        let k = 16.min(oids.len());
        let ns2 = time_ns(3, || {
            let mut db = base.clone();
            for &oid in oids.iter().take(k) {
                db.tick();
                db.migrate(oid, &manager, attrs([("officialcar", Value::str("car"))]))
                    .unwrap();
                assert!(db.check_invariants().is_empty());
                db.tick();
                db.migrate(oid, &employee, Attrs::new()).unwrap();
                assert!(db.check_invariants().is_empty());
            }
            db
        });
        let ops_per_s2 = (2.0 * k as f64) / (ns2 / 1e9);
        println!("| {n} | {ops_per_s:.0} | {ops_per_s2:.0} |");
    }
    println!();
}

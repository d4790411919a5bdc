//! Cross-crate integration tests: the core model, the TCQL language and
//! the storage engine working together.

use tchimera_core::{
    attrs, Attrs, ClassDef, ClassId, Constraint, Database, Instant, Interval, Oid, Type, Value,
};
use tchimera_query::{eval_select_naive, parse, Interpreter, Outcome, ReplicaSession, Stmt};
use tchimera_storage::{PersistentDatabase, TemporalIndex};

/// Build the staff database used across these tests, via the public API.
fn staff_db() -> Database {
    let mut db = Database::new();
    db.define_class(
        ClassDef::new("person")
            .immutable_attr("name", Type::temporal(Type::STRING))
            .attr("address", Type::STRING),
    )
    .unwrap();
    db.define_class(
        ClassDef::new("employee")
            .isa("person")
            .attr("salary", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
    db.define_class(
        ClassDef::new("manager")
            .isa("employee")
            .attr("officialcar", Type::STRING),
    )
    .unwrap();
    db.advance_to(Instant(10)).unwrap();
    for (name, salary) in [("Ann", 1000i64), ("Bob", 900), ("Cai", 1100)] {
        db.create_object(
            &ClassId::from("employee"),
            attrs([("name", Value::str(name)), ("salary", Value::Int(salary))]),
        )
        .unwrap();
    }
    db.advance_to(Instant(30)).unwrap();
    db.set_attr(Oid(0), &"salary".into(), Value::Int(1500)).unwrap();
    db.migrate(
        Oid(1),
        &ClassId::from("manager"),
        attrs([("officialcar", Value::str("Alfa 164"))]),
    )
    .unwrap();
    db.advance_to(Instant(50)).unwrap();
    db.terminate_object(Oid(2)).unwrap();
    db.advance_to(Instant(60)).unwrap();
    db
}

#[test]
fn tcql_over_api_built_database() {
    // A database built through the API is queryable through TCQL.
    let mut interp = Interpreter::with_db(staff_db());
    match interp.run("select e.name, e.salary from employee e").unwrap() {
        Outcome::Table(t) => {
            assert_eq!(t.len(), 2); // Cai is dead
            assert_eq!(t.rows[0], vec![Value::str("Ann"), Value::Int(1500)]);
        }
        other => panic!("expected table, got {other}"),
    }
    // Time travel sees the dead employee and the old salary.
    match interp
        .run("select e.name, e.salary from employee e as of 20")
        .unwrap()
    {
        Outcome::Table(t) => {
            assert_eq!(t.len(), 3);
            assert_eq!(t.rows[0][1], Value::Int(1000));
        }
        other => panic!("expected table, got {other}"),
    }
}

#[test]
fn storage_roundtrip_preserves_query_results() {
    // Replaying the same logical operations through the persistent engine
    // yields a database giving identical TCQL answers.
    let path = std::env::temp_dir().join(format!(
        "tchimera-int-roundtrip-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    {
        let mut pdb = PersistentDatabase::open(&path).unwrap();
        pdb.define_class(
            ClassDef::new("person")
                .immutable_attr("name", Type::temporal(Type::STRING))
                .attr("address", Type::STRING),
        )
        .unwrap();
        pdb.define_class(
            ClassDef::new("employee")
                .isa("person")
                .attr("salary", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        pdb.define_class(
            ClassDef::new("manager")
                .isa("employee")
                .attr("officialcar", Type::STRING),
        )
        .unwrap();
        pdb.advance_to(Instant(10)).unwrap();
        for (name, salary) in [("Ann", 1000i64), ("Bob", 900), ("Cai", 1100)] {
            pdb.create_object(
                &ClassId::from("employee"),
                attrs([("name", Value::str(name)), ("salary", Value::Int(salary))]),
            )
            .unwrap();
        }
        pdb.advance_to(Instant(30)).unwrap();
        pdb.set_attr(Oid(0), &"salary".into(), Value::Int(1500)).unwrap();
        pdb.migrate(
            Oid(1),
            &ClassId::from("manager"),
            attrs([("officialcar", Value::str("Alfa 164"))]),
        )
        .unwrap();
        pdb.advance_to(Instant(50)).unwrap();
        pdb.terminate_object(Oid(2)).unwrap();
        pdb.advance_to(Instant(60)).unwrap();
        pdb.sync().unwrap();
    }
    let recovered = PersistentDatabase::open(&path).unwrap();
    let expected = staff_db();
    assert_eq!(
        tchimera_storage::digest_database(recovered.db()),
        tchimera_storage::digest_database(&expected),
        "recovered state differs from the directly-built database"
    );
    // And TCQL sees the same rows.
    let mut a = Interpreter::with_db(recovered.db().clone());
    let mut b = Interpreter::with_db(expected);
    for q in [
        "select e, e.name, e.salary from employee e",
        "select p, class of p from person p as of 40",
        "select history of e.salary from employee e during [10, 40]",
    ] {
        let (ra, rb) = (a.run(q).unwrap(), b.run(q).unwrap());
        match (ra, rb) {
            (Outcome::Table(x), Outcome::Table(y)) => assert_eq!(x, y, "query {q}"),
            _ => panic!("expected tables"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn temporal_index_agrees_with_model_and_query() {
    let db = staff_db();
    let idx = TemporalIndex::build(&db);
    for t in [5u64, 10, 20, 30, 40, 50, 55, 60] {
        let t = Instant(t);
        for class in ["person", "employee", "manager"] {
            let cid = ClassId::from(class);
            assert_eq!(idx.members_at(&cid, t), db.pi(&cid, t).unwrap());
        }
    }
    // Window query: everyone who ever lived in [0, 60].
    assert_eq!(
        idx.alive_during(Interval::from_ticks(0, 60)),
        vec![Oid(0), Oid(1), Oid(2)]
    );
    assert_eq!(idx.alive_during(Interval::from_ticks(51, 60)), vec![Oid(0), Oid(1)]);
}

#[test]
fn constraints_over_query_built_data() {
    let mut interp = Interpreter::new();
    interp
        .run_script(
            "define class employee (salary: temporal(integer)); \
             advance to 10; \
             create employee (salary := 100); \
             create employee (salary := 200); \
             advance to 20; \
             set #0.salary := 150; \
             set #1.salary := 120; -- a pay cut",
        )
        .unwrap();
    let violations = interp.db().check_constraint(&Constraint::NonDecreasing {
        class: ClassId::from("employee"),
        attr: "salary".into(),
    });
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].oid, Oid(1));
    assert_eq!(violations[0].at, Some(Instant(20)));
}

#[test]
fn paper_walkthrough_examples_3_to_6() {
    // One pass through every numbered example of the paper.
    let mut db = Database::new();
    db.define_class(ClassDef::new("task")).unwrap();
    db.define_class(ClassDef::new("person")).unwrap();
    db.define_class(ClassDef::new("employee").isa("person")).unwrap();
    // Example 3.1: the listed types are well-formed once `project` exists.
    db.define_class(
        ClassDef::new("project")
            .immutable_attr("name", Type::temporal(Type::STRING))
            .attr("objective", Type::STRING)
            .attr("workplan", Type::set_of(Type::object("task")))
            .attr("subproject", Type::temporal(Type::object("project")))
            .attr(
                "participants",
                Type::temporal(Type::set_of(Type::object("person"))),
            ),
    )
    .unwrap();
    for t in [
        Type::Time,
        Type::temporal(Type::INTEGER),
        Type::list_of(Type::BOOL),
        Type::temporal(Type::set_of(Type::object("project"))),
        Type::record_of([
            ("task", Type::temporal(Type::object("project"))),
            ("startbudget", Type::REAL),
            ("endbudget", Type::REAL),
        ]),
    ] {
        assert!(t.is_well_formed(), "{t} should be well-formed");
    }

    // Example 3.2 memberships.
    db.advance_to(Instant(10)).unwrap();
    let i_person = db.create_object(&ClassId::from("person"), Attrs::new()).unwrap();
    let i_emp = db.create_object(&ClassId::from("employee"), Attrs::new()).unwrap();
    let t = Instant(10);
    assert!(db.value_in_type(&Value::Int(10), &Type::INTEGER, t));
    assert!(db.value_in_type(&Value::Oid(i_emp), &Type::object("employee"), t));
    assert!(db.value_in_type(
        &Value::set([Value::Oid(i_person), Value::Oid(i_emp)]),
        &Type::set_of(Type::object("person")),
        t
    ));

    // Example 4.2: h_type / s_type.
    let cls = db.class(&ClassId::from("project")).unwrap();
    assert_eq!(
        cls.historical_type().unwrap(),
        Type::record_of([
            ("name", Type::STRING),
            ("subproject", Type::object("project")),
            ("participants", Type::set_of(Type::object("person"))),
        ])
    );
    assert_eq!(
        cls.static_type().unwrap(),
        Type::record_of([
            ("objective", Type::STRING),
            ("workplan", Type::set_of(Type::object("task"))),
        ])
    );

    // Theorem 6.1 instance: set-of(employee) ≤ set-of(person) and the
    // extension inclusion holds for a sampled member.
    let sub = Type::set_of(Type::object("employee"));
    let sup = Type::set_of(Type::object("person"));
    assert!(db.schema().is_subtype(&sub, &sup));
    let v = Value::set([Value::Oid(i_emp)]);
    assert!(db.value_in_type(&v, &sub, t));
    assert!(db.value_in_type(&v, &sup, t));
}

#[test]
fn tcql_checks_report_injected_faults() {
    let mut interp = Interpreter::with_db(staff_db());
    // Healthy first.
    assert!(matches!(
        interp.run("check consistency").unwrap(),
        Outcome::Consistency(r) if r.is_consistent()
    ));
    // Inject a fault via the fault-injection hook.
    let mut broken = interp.db().object(Oid(0)).unwrap().clone();
    broken.attrs.insert("address".into(), Value::Int(666));
    interp.db_mut().replace_object_for_test(broken);
    match interp.run("check consistency").unwrap() {
        Outcome::Consistency(r) => {
            assert!(!r.is_consistent());
            let msg = format!("{}", Outcome::Consistency(r));
            assert!(msg.contains("address"));
        }
        other => panic!("expected consistency report, got {other}"),
    }
}

#[test]
fn view_as_composes_with_queries() {
    let mut db = Database::new();
    db.define_class(ClassDef::new("person").attr("address", Type::STRING))
        .unwrap();
    db.define_class(
        ClassDef::new("tracked")
            .isa("person")
            .attr("address", Type::temporal(Type::STRING)),
    )
    .unwrap();
    db.advance_to(Instant(5)).unwrap();
    let i = db
        .create_object(&ClassId::from("tracked"), attrs([("address", Value::str("Milano"))]))
        .unwrap();
    db.advance_to(Instant(15)).unwrap();
    db.set_attr(i, &"address".into(), Value::str("Genova")).unwrap();
    // Coerced view matches the superclass structural type (Section 6.1).
    let view = db.view_as(i, &ClassId::from("person")).unwrap();
    assert_eq!(view, Value::record([("address", Value::str("Genova"))]));
    let sup_t = db.type_of(&ClassId::from("person")).unwrap();
    assert!(db.value_in_type(&view, &sup_t, db.now()));
}

/// Tier-1 smoke of the index-seeded read path (the member-crate suites
/// `attr_index_props` / `planner_props` / `read_path_counts` hold the
/// full property): through both front doors, every scope's rows equal
/// the reference evaluator's, row for row and in order, on a population
/// where the attribute index and the class extent disagree — a whole
/// lifespan inside one tick, an object demoted out of the class that
/// still holds the value, a re-hired member.
#[test]
fn seeded_reads_match_the_reference_evaluator_through_both_front_doors() {
    let mut interp = Interpreter::new();
    interp
        .run_script(
            "define class emp (dept: temporal(string), v: temporal(integer)); \
             define class mgr under emp (bonus: temporal(integer)); \
             advance to 1;",
        )
        .unwrap();
    for i in 0..120 {
        let dept = if i % 8 == 0 { "rare" } else { "common" };
        interp
            .run(&format!("create emp (dept := '{dept}', v := {})", i % 7))
            .unwrap();
        if i % 40 == 39 {
            interp.run("tick 1").unwrap();
        }
    }
    interp
        .run_script(
            "migrate #0 to mgr (bonus := 1); migrate #8 to mgr (bonus := 2); \
             migrate #1 to mgr (bonus := 3); tick 1; \
             migrate #0 to emp; set #16.dept := 'common'; set #3.dept := 'rare'; tick 1; \
             migrate #0 to mgr (bonus := 4); terminate #24; tick 1; \
             create emp (dept := 'rare', v := 3); terminate #120; \
             create mgr (dept := 'rare', v := 5, bonus := 6); terminate #121;",
        )
        .unwrap();
    // No tick: #120 and #121 were created and terminated at `now`.
    let now = interp.db().now().ticks();
    let mut session = ReplicaSession::new();
    let mut seeded = 0;
    for class in ["emp", "mgr"] {
        for scope in [
            String::new(),
            format!(" as of {}", now - 2),
            format!(" as of {}", now - 1),
            format!(" during [{}, {}]", now - 3, now - 1),
            format!(" during [{}, {}]", now, now + 5),
        ] {
            for filter in [
                "x.dept = 'rare'".to_owned(),
                "x.dept = 'rare' or x.dept = 'nowhere'".to_owned(),
                format!("x.dept at {} = 'rare'", now - 2),
                "x.dept = 'rare' and x.v > 2".to_owned(),
            ] {
                for (head, tail) in [
                    ("x, x.v", ""),
                    ("x, x.v", " order by x.v desc limit 3"),
                    ("x", " order by x.v limit 5"),
                    ("history of x.v", ""),
                ] {
                    let src = format!("select {head} from {class} x{scope} where {filter}{tail}");
                    let q = match parse(&src).unwrap() {
                        Stmt::Select(q) => q,
                        other => panic!("{src}: {other:?}"),
                    };
                    let want = eval_select_naive(interp.db(), &q).unwrap();
                    let primary = match interp.run(&src) {
                        Ok(Outcome::Table(t)) => t,
                        other => panic!("{src}: {other:?}"),
                    };
                    assert_eq!(primary.rows, want.rows, "Interpreter: {src}");
                    let replica = match session.run(interp.db(), &src) {
                        Ok(Outcome::Table(t)) => t,
                        other => panic!("{src}: {other:?}"),
                    };
                    assert_eq!(replica.rows, want.rows, "ReplicaSession: {src}");
                    seeded += usize::from(!want.rows.is_empty());
                }
            }
        }
    }
    assert!(seeded >= 80, "only {seeded} statements had an answer to compare");
    // The same-tick lifespans are in the answer at `now`, gone from the extent after.
    match interp.run("select x from emp x where x.dept = 'rare'").unwrap() {
        Outcome::Table(t) => {
            assert!(t.rows.contains(&vec![Value::Oid(Oid(120))]));
            assert!(t.rows.contains(&vec![Value::Oid(Oid(121))]));
        }
        other => panic!("{other:?}"),
    }
    // The probe is the answer at a point scope and to a one-conjunct
    // `DURING`; it only seeds when the window filter has more to say.
    let window = format!("during [{}, {now}]", now - 3);
    for (src, level) in [
        ("select x from mgr x where x.dept = 'rare'".to_owned(), "IndexOnly x:"),
        (format!("select x from mgr x {window} where x.dept = 'rare'"), "IndexOnly x:"),
        (format!("select x from mgr x {window} where x.dept = 'rare' and x.v > 2"), "IndexScan x:"),
    ] {
        match interp.run(&format!("explain {src}")).unwrap() {
            Outcome::Explain(text) => assert!(text.contains(level), "{src}: {text}"),
            other => panic!("{other:?}"),
        }
    }
}

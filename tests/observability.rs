//! Cross-crate observability contract tests.
//!
//! * The recovery ladder emits **exactly one** `storage.recovery.rung`
//!   event per `PersistentDatabase` open, naming the rung taken.
//! * Every metric name documented in `DESIGN.md` §9 exists in a
//!   [`MetricsSnapshot`](tchimera::obs::MetricsSnapshot) once the three
//!   layers have registered their vocabularies — the docs and the code
//!   cannot drift apart.
//! * The snapshot spans all three layers with a healthy margin.

use std::path::Path;
use std::sync::{Arc, Mutex};

use tchimera::obs::{self, EventKind};
use tchimera::storage::{PersistentDatabase, SimFs, TearMode, Vfs};
use tchimera::{attrs, ClassDef, ClassId, Database, Instant, Type, Value};

/// The global subscriber is process-wide state: tests that install one
/// serialize on this lock (and tolerate a poisoned lock — the state is
/// reset at the start of each test).
static SUBSCRIBER_LOCK: Mutex<()> = Mutex::new(());

fn touch_all() {
    tchimera_core::touch_metrics();
    tchimera_storage::touch_metrics();
    tchimera_query::touch_metrics();
}

#[test]
fn recovery_ladder_emits_exactly_one_rung_event_per_open() {
    let _guard = SUBSCRIBER_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let fs = SimFs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let path = Path::new("rung.db");

    let rungs_in = |events: &[obs::TraceEvent]| -> Vec<String> {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.name == "storage.recovery.rung")
            .map(|e| e.fields.clone())
            .collect()
    };

    // Open 1: fresh database — full replay of an empty log.
    obs::install_ring_buffer(1024);
    {
        let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), path).unwrap();
        pdb.define_class(
            ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        pdb.advance_to(Instant(10)).unwrap();
        pdb.create_object(&ClassId::from("employee"), attrs([("salary", Value::Int(7))]))
            .unwrap();
        pdb.sync().unwrap();
        let rungs = rungs_in(&obs::take_trace());
        assert_eq!(rungs, vec![r#"rung="full-replay""#], "first open");

        // Open 2 happens below with a checkpoint image present.
        pdb.checkpoint().unwrap();
    }

    // Open 2: crash, then recover through the image rung.
    fs.crash(TearMode::DropAll);
    obs::install_ring_buffer(1024);
    let reopened = PersistentDatabase::open_with(Arc::clone(&vfs), path).unwrap();
    let rungs = rungs_in(&obs::take_trace());
    assert_eq!(rungs, vec![r#"rung="snapshot+suffix""#], "reopen after checkpoint");
    assert_eq!(reopened.db().object_count(), 1);
    drop(reopened);

    // Open 3: damage the checkpoint image the log starts with — the
    // ladder must refuse, and that refusal is still exactly one rung
    // event.
    fs.corrupt_byte(path, 40, 0xff).unwrap();
    obs::install_ring_buffer(1024);
    let err = PersistentDatabase::open_with(Arc::clone(&vfs), path);
    assert!(err.is_err(), "a log whose image is damaged must refuse");
    let rungs = rungs_in(&obs::take_trace());
    assert_eq!(rungs, vec![r#"rung="refused""#], "refused open");

    let _ = obs::clear_subscriber();
}

#[test]
fn design_doc_section_9_names_round_trip_into_the_snapshot() {
    touch_all();
    let snap = obs::snapshot();

    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(manifest.join("DESIGN.md")).unwrap();
    let section9 = design
        .split("\n## 9.")
        .nth(1)
        .expect("DESIGN.md has a §9 observability section");
    let section9 = section9.split("\n## ").next().unwrap();

    // Table rows look like `| `core.extent.checkpoints` | counter | … |`;
    // collect every backticked dotted name in the section.
    let mut documented = Vec::new();
    for line in section9.lines().filter(|l| l.trim_start().starts_with('|')) {
        let mut rest = line;
        while let Some(start) = rest.find('`') {
            let tail = &rest[start + 1..];
            let Some(end) = tail.find('`') else { break };
            let name = &tail[..end];
            if name.contains('.') && !name.contains(' ') && !name.contains('(') {
                documented.push(name.to_owned());
            }
            rest = &tail[end + 1..];
        }
    }
    assert!(
        documented.len() >= 30,
        "expected the §9 contract table to document the full vocabulary, found {}",
        documented.len()
    );
    for name in &documented {
        assert!(
            snap.contains(name),
            "DESIGN.md §9 documents `{name}` but the snapshot does not contain it"
        );
    }

    // And the converse: everything registered under the product prefixes
    // is documented (scratch `test.*` names from other tests are exempt).
    for name in snap.names() {
        let product =
            ["core.", "storage.", "query.", "repl."].iter().any(|p| name.starts_with(p));
        if product {
            assert!(
                documented.iter().any(|d| d == name),
                "`{name}` is emitted but not documented in DESIGN.md §9"
            );
        }
    }
}

#[test]
fn snapshot_spans_all_three_layers_with_at_least_twelve_metrics() {
    // Exercise real code paths rather than just touching vocabularies:
    // a query, a consistency check, and a persistent open.
    let mut interp = tchimera::Interpreter::new();
    interp
        .run_script(
            "define class person (name: temporal(string));
             advance to 5;
             create person (name := 'Ada');
             select p from person p;",
        )
        .unwrap();
    assert!(interp.db().check_database().is_consistent());

    let vfs: Arc<dyn Vfs> = Arc::new(SimFs::new());
    let pdb = PersistentDatabase::open_with(vfs, Path::new("span.db")).unwrap();

    let snap = pdb.db().metrics();
    let count = |prefix: &str| snap.names().iter().filter(|n| n.starts_with(prefix)).count();
    assert!(count("core.") >= 4, "core metrics: {}", count("core."));
    assert!(count("storage.") >= 4, "storage metrics: {}", count("storage."));
    assert!(count("query.") >= 4, "query metrics: {}", count("query."));
    assert!(
        count("core.") + count("storage.") + count("query.") >= 12,
        "snapshot must cover at least 12 product metrics"
    );

    // The snapshot serialises; the example and docs rely on this shape.
    let json = snap.to_json();
    assert!(json.trim_start().starts_with('{'));
    assert!(json.contains("\"counters\""));
    assert!(json.contains("\"histograms\""));
}

#[test]
fn metrics_work_without_a_subscriber_and_the_trace_stays_empty() {
    let _guard = SUBSCRIBER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _ = obs::clear_subscriber();
    let db = Database::new();
    let snap = db.metrics();
    assert!(snap.contains("core.check_database"));
    assert!(db.take_trace().is_empty());
}

//! A read at `now` right after a same-tick `create → terminate` must be
//! served from the extent index's current-member set (the termination's
//! leave event sits at `now + 1` and is undone), never by replaying from
//! a checkpoint. One `#[test]` in a binary of its own: it reads the
//! process-global `core.extent.*` counters.

use tchimera_core::{attrs, ClassDef, ClassId, Database, Instant, Type, Value};

fn counter(name: &str) -> u64 {
    tchimera_core::obs::snapshot().counter(name).unwrap_or(0)
}

#[test]
fn create_terminate_read_in_one_tick_never_replays() {
    let mut db = Database::new();
    db.define_class(ClassDef::new("emp").attr("v", Type::temporal(Type::INTEGER)))
        .unwrap();
    let emp = ClassId::from("emp");
    db.advance_to(Instant(1)).unwrap();
    // Past the first extent checkpoint (256 events), so a replay would
    // have a checkpoint to start from and events to replay.
    for i in 0..1_000 {
        db.create_object(&emp, attrs([("v", Value::Int(i))])).unwrap();
        if i % 100 == 99 {
            db.tick();
        }
    }
    db.tick();

    let replays = counter("core.extent.at_replay");
    let replayed = counter("core.extent.replayed_events");
    let current = counter("core.extent.at_current");
    for round in 0..5 {
        let oid = db.create_object(&emp, attrs([("v", Value::Int(round))])).unwrap();
        db.terminate_object(oid).unwrap();
        let now = db.now();
        let extent = db.pi(&emp, now).unwrap();
        assert!(extent.contains(&oid), "a terminated object is a member through now");
        assert_eq!(extent, db.class(&emp).unwrap().ext_at_scan(now, now));
        assert_eq!(db.class(&emp).unwrap().ext_count_at(now, now), extent.len());
        db.tick();
        assert!(!db.pi(&emp, db.now()).unwrap().contains(&oid));
    }
    assert_eq!(counter("core.extent.at_replay"), replays, "no NOW read replayed");
    assert_eq!(counter("core.extent.replayed_events"), replayed);
    assert_eq!(counter("core.extent.at_current"), current + 10);
}

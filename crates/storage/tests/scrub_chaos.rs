//! Scrubber chaos harness: seeded in-memory bit flips (`SimMem`) crossed
//! with SimFs disk corruption, replica-assisted anti-entropy repair, and
//! mid-scrub interruption.
//!
//! Method: drive a seeded workload into a `PersistentDatabase`, record
//! the healthy digest, inject one fault from the matrix, then run one
//! full scrub cycle. The invariants, checked for every seed:
//!
//! * **detection** — every injected corruption is reported within one
//!   full scrub cycle (no silently wrong state survives);
//! * **repair or quarantine** — the cycle either restores the exact
//!   healthy digest (rungs 1–3) or fences the damaged class behind
//!   `EngineError::Quarantined` while every other class keeps serving;
//! * **no panics** — corruption never crashes the scrubber or the
//!   serving paths;
//! * **interruptibility** — a scrub stopped mid-cycle by its budget (or
//!   a crash between cycles) leaves a database the next full cycle
//!   repairs.

use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tchimera_core::{
    attrs, ClassDef, ClassId, MemFault, ModelError, ScrubFinding, SimMem, Type, Value,
};
use tchimera_storage::repl::{Primary, Replica, SimNetConfig, SimTransport};
use tchimera_storage::{OpLog, PersistentDatabase, SimFs, TearMode, Vfs};

const SEEDS: u64 = 10;

fn open(fs: &SimFs) -> PersistentDatabase {
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    PersistentDatabase::open_with(vfs, &PathBuf::from("node.log")).expect("open")
}

fn person() -> ClassId {
    ClassId::from("person")
}
fn employee() -> ClassId {
    ClassId::from("employee")
}

/// Seeded workload: schema + a mix of creates, updates, migrations and
/// terminations, all through the logged write path.
fn build(pdb: &mut PersistentDatabase, seed: u64) {
    pdb.define_class(
        ClassDef::new("person")
            .attr("address", Type::STRING)
            .attr("friend", Type::temporal(Type::object("person"))),
    )
    .unwrap();
    pdb.define_class(
        ClassDef::new("employee")
            .isa("person")
            .attr("salary", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut oids = Vec::new();
    for i in 0..12u64 {
        pdb.tick().unwrap();
        match rng.gen_range(0..4u32) {
            0 if !oids.is_empty() => {
                let &oid = &oids[rng.gen_range(0..oids.len())];
                if pdb.db().object(oid).map(|o| o.lifespan.is_alive()) == Ok(true) {
                    let _ = pdb.set_attr(oid, &"address".into(), Value::str("Genova"));
                }
            }
            1 if oids.len() > 3 => {
                let oid = oids.remove(rng.gen_range(0..oids.len()));
                if pdb.db().object(oid).map(|o| o.lifespan.is_alive()) == Ok(true) {
                    // Null out referrers first: a consistent database
                    // must not hold dangling references.
                    for r in pdb.db().referrers_of(oid) {
                        if r != oid
                            && pdb.db().object(r).map(|o| o.lifespan.is_alive()) == Ok(true)
                        {
                            pdb.set_attr(r, &"friend".into(), Value::Null).unwrap();
                        }
                    }
                    let _ = pdb.terminate_object(oid);
                }
            }
            _ => {
                let oid = pdb
                    .create_object(
                        &employee(),
                        attrs([
                            ("salary", Value::Int(100 + i as i64)),
                            ("address", Value::str("Milano")),
                            ("friend", oids.first().map(|&o| Value::Oid(o)).unwrap_or(Value::Null)),
                        ]),
                    )
                    .unwrap();
                oids.push(oid);
            }
        }
    }
    pdb.sync().unwrap();
}

#[test]
fn memory_corruption_matrix_detects_and_repairs_every_fault() {
    for seed in 0..SEEDS {
        let fs = SimFs::new();
        let mut pdb = open(&fs);
        build(&mut pdb, seed);
        let healthy = pdb.state_digest();

        let mut sim = SimMem::new(seed.wrapping_mul(1_000_003) + 17);
        let fault = sim.corrupt(pdb.db_mut_for_test()).expect("something to corrupt");

        let report = pdb.scrub_cycle();
        match &fault {
            MemFault::AttrRun { .. } => {
                // Base-state damage with intact durable history: rung 2.
                assert!(
                    report.state_divergence,
                    "seed {seed}: {fault:?} escaped detection: {report:?}"
                );
                assert!(report.rematerialized, "seed {seed}: {report:?}");
            }
            _ => {
                // Derived-structure damage: rung 1 repairs in place.
                assert!(
                    report.core.divergences >= 1,
                    "seed {seed}: {fault:?} escaped detection: {report:?}"
                );
            }
        }
        assert!(report.healthy_after(), "seed {seed}: {fault:?} left damage: {report:?}");
        assert_eq!(
            pdb.state_digest(),
            healthy,
            "seed {seed}: repair must restore the exact state ({fault:?})"
        );
        let second = pdb.scrub_cycle();
        assert!(second.clean(), "seed {seed}: follow-up cycle not clean: {second:?}");
    }
}

/// The maintained state-digest table is a derived structure too: a stray
/// write into it makes `state_digest()` lie while the state itself is
/// fine. Every such fault is detected by the cycle's own from-scratch
/// walk and repaired by dropping the table (rung 1) — and on a follower
/// the lie never reaches the link: a digest comparison that fails against
/// the table is re-checked against a walk before the replica halts.
#[test]
fn digest_table_corruption_is_detected_and_never_halts_a_replica() {
    for seed in 0..SEEDS {
        // Locally: 100 % detection, repair to the exact digest.
        let fs = SimFs::new();
        let mut pdb = open(&fs);
        build(&mut pdb, seed);
        let mut sim = SimMem::new(seed ^ 0xD16E);
        assert_eq!(
            sim.corrupt_digest_table(pdb.db_mut_for_test()),
            None,
            "a cold table has nothing resident to damage"
        );
        let healthy = pdb.state_digest();
        assert_eq!(
            sim.corrupt_digest_table(pdb.db_mut_for_test()),
            Some(MemFault::DigestTable)
        );
        assert_ne!(pdb.state_digest(), healthy, "seed {seed}: the fault must be observable");
        let report = pdb.scrub_cycle();
        assert!(
            report.core.findings.contains(&ScrubFinding::DigestTable),
            "seed {seed}: digest table fault escaped detection: {report:?}"
        );
        assert!(!report.state_divergence, "seed {seed}: the state was never wrong: {report:?}");
        assert!(report.healthy_after(), "seed {seed}: {report:?}");
        assert_eq!(pdb.state_digest(), healthy, "seed {seed}: repair must restore the digest");
        assert!(pdb.scrub_cycle().clean(), "seed {seed}: repair did not stick");

        // On a follower of a healthy link: the next verified shipment
        // finds the table wrong, the walk right, and carries on.
        let (pt, rt) = SimTransport::pair(seed, SimNetConfig::clean());
        let mut primary = Primary::new(pdb, 1, pt);
        let mut replica = Replica::new(open(&SimFs::new()), rt);
        primary.pump().expect("primary pump");
        replica.pump().expect("replica pump");
        assert_eq!(replica.db_ref().state_digest(), healthy);
        let (mut rpdb, _, rt) = replica.into_parts();
        assert!(sim.corrupt_digest_table(rpdb.db_mut_for_test()).is_some());
        let mut replica = Replica::new(rpdb, rt);
        primary.db().tick().expect("tick");
        primary.pump().expect("primary pump");
        replica.pump().expect("replica pump");
        assert_eq!(replica.halted(), None, "seed {seed}: a bad table must not halt the follower");
        assert_eq!(replica.applied(), primary.db_ref().op_count() as u64);
        assert_eq!(
            replica.db_ref().state_digest(),
            primary.db_ref().state_digest(),
            "seed {seed}: the follower's table was not repaired"
        );
    }
}

#[test]
fn disk_corruption_matrix_recheckpoints_from_the_live_state() {
    for seed in 0..SEEDS {
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let path = PathBuf::from("node.log");
        let mut pdb = open(&fs);
        build(&mut pdb, seed);
        let healthy = pdb.state_digest();

        // Flip one byte somewhere in the record region of the durable
        // log (past the header, seed-chosen).
        let len = vfs.read(&path).unwrap().len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C);
        let offset = rng.gen_range(32..len);
        let mask = 1u8 << rng.gen_range(0..8u32);
        fs.corrupt_byte(&path, offset, mask).unwrap();

        let report = pdb.scrub_cycle();
        assert!(
            report.log_damage > 0 || report.clean(),
            "seed {seed}: damaged log neither detected nor benign: {report:?}"
        );
        if report.log_damage > 0 {
            assert!(report.checkpoint_repair, "seed {seed}: {report:?}");
            assert!(report.healthy_after());
        }
        assert_eq!(pdb.state_digest(), healthy, "seed {seed}: live state must be untouched");
        assert!(pdb.scrub_cycle().clean(), "seed {seed}: repair did not stick");

        // Crash-reopen: the re-checkpointed store recovers the state.
        drop(pdb);
        fs.crash(TearMode::DropAll);
        let pdb = open(&fs);
        assert_eq!(pdb.state_digest(), healthy, "seed {seed}: recovery after repair");
    }
}

#[test]
fn replica_pull_repairs_what_no_local_rung_can() {
    let pulls_before =
        tchimera_obs::snapshot().counter("repl.scrub.pulls").unwrap_or(0);

    let pfs = SimFs::new();
    let rfs = SimFs::new();
    let (pt, rt) = SimTransport::pair(0xA11E, SimNetConfig::default());
    let mut pdb = open(&pfs);
    build(&mut pdb, 5);
    let healthy = pdb.state_digest();
    let mut primary = Primary::new(pdb, 1, pt);
    let mut replica = Replica::new(open(&rfs), rt);

    // Replicate the full prefix.
    for _ in 0..20 {
        primary.pump().expect("primary pump");
        replica.pump().expect("replica pump");
        if replica.lag() == 0 && replica.applied() > 0 {
            break;
        }
    }
    replica.sync().expect("replica sync");
    assert_eq!(replica.db_ref().state_digest(), healthy);

    // Damage the replica beyond local repair: corrupt its durable log
    // AND plant a type violation in its live state (no clean local
    // source remains).
    let rlen = rfs.read(&PathBuf::from("node.log")).unwrap().len();
    rfs.corrupt_byte(&PathBuf::from("node.log"), rlen - 6, 0x40).unwrap();
    let (mut rpdb, term, rt) = replica.into_parts();
    let victim = rpdb.db().objects().next().expect("objects exist").oid;
    let mut broken = rpdb.db().object(victim).unwrap().clone();
    broken.attrs.insert("address".into(), Value::Int(3));
    rpdb.db_mut_for_test().replace_object_for_test(broken);
    let mut replica = Replica::new(rpdb, rt);
    // Restore the heard term so the re-wrapped node stays in-epoch.
    let _ = term;

    // One scrub cycle: detection, quarantine, and escalation.
    let report = replica.scrub_cycle();
    assert!(report.core.consistency_errors > 0, "{report:?}");
    assert!(report.needs_replica, "{report:?}");
    assert!(!report.quarantined.is_empty(), "{report:?}");
    assert!(replica.scrub_pending());

    // Isolation while quarantined: the fenced class refuses, every
    // other class keeps serving.
    let bad = report.quarantined[0].clone();
    let db = replica.db_ref().db();
    assert!(matches!(
        db.pi(&bad, db.now()),
        Err(ModelError::Quarantined { .. })
    ));
    let other = if bad == person() { employee() } else { person() };
    assert!(db.pi(&other, db.now()).is_ok(), "healthy class must keep serving");

    // Anti-entropy: the ScrubPull round-trips and the authoritative
    // image repairs the replica completely.
    primary.pump().expect("primary pump");
    replica.pump().expect("replica pump");
    assert_eq!(replica.db_ref().state_digest(), healthy, "pull must restore the state");
    assert!(!replica.scrub_pending());
    assert_eq!(replica.halted(), None);
    assert!(replica.db_ref().db().quarantine().is_empty(), "repair must lift the quarantine");
    let rlog = rfs.read(&PathBuf::from("node.log")).expect("replica log readable");
    assert!(!OpLog::scan_bytes(&rlog).torn_tail, "the install must leave a clean log");
    let report = replica.db_ref().db().clone().scrub_cycle();
    assert!(report.clean() || report.consistency_errors == 0, "{report:?}");

    let pulls_after = tchimera_obs::snapshot().counter("repl.scrub.pulls").unwrap_or(0);
    assert!(pulls_after > pulls_before, "the pull must be visible in metrics");
}

#[test]
fn interrupted_scrubs_are_harmless_and_resumable() {
    for seed in 0..SEEDS {
        let fs = SimFs::new();
        let mut pdb = open(&fs);
        build(&mut pdb, seed);
        let healthy = pdb.state_digest();

        let mut sim = SimMem::new(seed ^ 0xBADC_0FFE);
        let fault = sim.corrupt_index(pdb.db_mut_for_test()).expect("something to corrupt");

        // A scrub whose budget dies after a few steps must not corrupt
        // anything further — serving continues, and the next full cycle
        // finishes the repair.
        let mut steps = 0u32;
        let cap = (seed % 3) as u32; // 0, 1 or 2 charged steps
        let partial = pdb.scrub_cycle_with(&mut |_| {
            steps += 1;
            steps <= cap
        });
        assert!(partial.core.budget_exhausted, "seed {seed}: {partial:?}");

        // Crash between cycles: only synced state survives; reopen and
        // finish the scrub on the recovered store.
        drop(pdb);
        fs.crash(TearMode::DropAll);
        let mut pdb = open(&fs);
        assert_eq!(pdb.state_digest(), healthy, "seed {seed}: recovery");
        let full = pdb.scrub_cycle();
        assert!(
            full.healthy_after(),
            "seed {seed}: full cycle after interruption not healthy ({fault:?}): {full:?}"
        );
        assert_eq!(pdb.state_digest(), healthy);
        assert!(pdb.scrub_cycle().clean(), "seed {seed}");
    }
}

//! Damage to memory and disk, and the repair each kind must get; and a
//! disk outage the breaker must ride out.

use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tchimera_core::{ClassId, MemFault, ModelError, ScrubFinding, SimMem, Value};

use super::{walk, Op, Role, Watch, World, Write, PATH};
use crate::log::{crc32, RecordWalk};
use crate::resilience::{BREAKER_THRESHOLD, RETRY_ATTEMPTS};
use crate::{BreakerState, EngineError, FaultKind, TearMode};

/// What to damage.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Damage {
    /// A `SimMem` fault in base state, the digest table or an index: one
    /// scrub cycle detects it and restores the exact state.
    Memory,
    /// The maintained digest table lies: a scrub cycle repairs it, and on
    /// a follower the lie never halts the link.
    DigestTable,
    /// An index fault, a scrub cut short by its budget, then a crash: the
    /// next full cycle on the recovered node repairs it.
    Interrupted,
    /// One flipped bit in the durable log: the scrub re-checkpoints from
    /// the live state, and a crash after recovers that state.
    DiskByte,
    /// A flipped bit in the last of three fresh records.
    TornTail,
    /// The last of two fresh records gets a valid CRC over a payload that
    /// is no operation: damage a checksum cannot see.
    Undecodable,
    /// The follower's log and its live state are both damaged: quarantine,
    /// then a pull from the primary repairs it.
    Beyond,
}

/// The byte offset of the last op record of `log`.
fn last_record(log: &[u8]) -> usize {
    RecordWalk::log(log, 0).last().expect("a record").0 as usize
}

impl World {
    pub(super) fn damage(&mut self, n: usize, what: Damage) {
        let seed = self.seed;
        let solo = self.link.is_none();
        let path = Path::new(PATH);
        match what {
            Damage::Memory => {
                let pdb = self.nodes[n].pdb_mut();
                let healthy = pdb.state_digest();
                let mut sim = SimMem::new(seed.wrapping_mul(1_000_003) + 17);
                let fault = sim.corrupt(pdb.db_mut_for_test()).expect("something to corrupt");
                let report = pdb.scrub_cycle();
                // Base state with intact durable history: rung 2; a derived
                // structure: rung 1 repairs in place.
                let detected = match fault {
                    MemFault::AttrRun { .. } => report.state_divergence && report.rematerialized,
                    _ => report.core.divergences >= 1,
                };
                assert!(detected, "{fault:?} escaped detection: {report:?}");
                assert!(report.healthy_after(), "{fault:?} left damage: {report:?}");
                assert_eq!(pdb.state_digest(), healthy, "repair left a wrong state ({fault:?})");
                assert!(pdb.scrub_cycle().clean(), "follow-up cycle not clean");
            }
            Damage::DigestTable => {
                let mut sim = SimMem::new(seed ^ 0xD16E);
                let healthy = self.nodes[n].with_pdb(|pdb| {
                    let cold = sim.corrupt_digest_table(pdb.db_mut_for_test());
                    assert!(!solo || cold.is_none(), "a cold table has nothing resident to damage");
                    let healthy = pdb.state_digest();
                    let fault = sim.corrupt_digest_table(pdb.db_mut_for_test());
                    assert_eq!(fault, Some(MemFault::DigestTable));
                    assert_ne!(pdb.state_digest(), healthy, "the fault must be observable");
                    healthy
                });
                if !solo {
                    // The next verified shipment finds the table wrong and
                    // the walk right, and carries on.
                    self.watch = Watch::Converged;
                    return;
                }
                let pdb = self.nodes[n].pdb_mut();
                let report = pdb.scrub_cycle();
                let found = report.core.findings.contains(&ScrubFinding::DigestTable);
                assert!(found, "digest table fault escaped detection: {report:?}");
                assert!(!report.state_divergence, "the state was never wrong: {report:?}");
                assert!(report.healthy_after(), "{report:?}");
                assert_eq!(pdb.state_digest(), healthy, "repair must restore the digest");
                assert!(pdb.scrub_cycle().clean(), "repair did not stick");
            }
            Damage::Interrupted => {
                self.apply(&Op::Sync).expect("sync");
                let pdb = self.nodes[n].pdb_mut();
                let healthy = pdb.state_digest();
                let mut sim = SimMem::new(seed ^ 0xBADC_0FFE);
                let fault = sim.corrupt_index(pdb.db_mut_for_test()).expect("something to corrupt");
                // A scrub whose budget dies after 0, 1 or 2 charged steps,
                // then a crash between cycles.
                let (mut steps, cap) = (0u32, (seed % 3) as u32);
                let partial = pdb.scrub_cycle_with(&mut |_| {
                    steps += 1;
                    steps <= cap
                });
                assert!(partial.core.budget_exhausted, "{partial:?}");
                self.crash(n, TearMode::DropAll);
                let pdb = self.nodes[n].pdb_mut();
                assert_eq!(pdb.state_digest(), healthy, "recovery");
                let full = pdb.scrub_cycle();
                assert!(full.healthy_after(), "cycle after interruption left {fault:?}: {full:?}");
                assert_eq!(pdb.state_digest(), healthy);
                assert!(pdb.scrub_cycle().clean());
            }
            Damage::DiskByte => {
                self.apply(&Op::Sync).expect("sync");
                let node = &mut self.nodes[n];
                let len = node.fs.contents(path).expect("log").len();
                let mut rng = StdRng::seed_from_u64(seed ^ 0xD15C);
                let (offset, mask) = (rng.gen_range(32..len), 1u8 << rng.gen_range(0..8u32));
                node.fs.corrupt_byte(path, offset, mask).unwrap();
                let pdb = node.pdb_mut();
                let healthy = pdb.state_digest();
                let report = pdb.scrub_cycle();
                let (found, benign) = (report.log_damage > 0, report.clean());
                assert!(found || benign, "damaged log neither detected nor benign: {report:?}");
                let repaired = report.checkpoint_repair && report.healthy_after();
                assert!(!found || repaired, "{report:?}");
                assert_eq!(pdb.state_digest(), healthy, "live state must be untouched");
                assert!(pdb.scrub_cycle().clean(), "repair did not stick");
                self.crash(n, TearMode::DropAll);
                assert_eq!(self.nodes[n].pdb().state_digest(), healthy, "recovery after repair");
            }
            Damage::TornTail | Damage::Undecodable => {
                let follower = !solo;
                if follower {
                    self.quiesce();
                }
                let level = self.nodes[n].pdb().op_count() as u64;
                let fresh = if matches!(what, Damage::TornTail) { 3 } else { 2 };
                for _ in 0..fresh {
                    self.apply(&Op::Write(Write::Tick)).expect("tick");
                }
                self.apply(&Op::Sync).expect("sync");
                let node = &mut self.nodes[n];
                node.damaged = true;
                let log = node.fs.contents(path).expect("log");
                let bad_at = last_record(&log);
                if matches!(what, Damage::TornTail) {
                    node.fs.corrupt_byte(path, log.len() - 2, 0x10).unwrap();
                } else {
                    // Rewrite the record in place: payload tag 0xff, CRC
                    // recomputed over the new payload.
                    let mut payload = log[bad_at + 8..].to_vec();
                    payload[0] = 0xff;
                    let want = [&crc32(&payload).to_le_bytes()[..], &payload].concat();
                    for (i, (have, want)) in log[bad_at + 4..].iter().zip(want).enumerate() {
                        node.fs.corrupt_byte(path, bad_at + 4 + i, have ^ want).unwrap();
                    }
                }
                if follower {
                    let applied = level + fresh - 1;
                    self.watch = Watch::Stall { applied, bad_at };
                }
            }
            Damage::Beyond => {
                let healthy = self.nodes[self.writer].pdb().state_digest();
                self.quiesce();
                let node = &mut self.nodes[n];
                let fs = node.fs.clone();
                node.with_pdb(|pdb| {
                    // No clean local source remains: the durable log and
                    // the live state are both wrong.
                    pdb.sync().expect("replica sync");
                    let rlen = fs.contents(path).expect("log").len();
                    fs.corrupt_byte(path, rlen - 6, 0x40).unwrap();
                    let victim = pdb.db().objects().find(|o| o.lifespan.is_alive()).unwrap().oid;
                    let mut broken = pdb.db().object(victim).unwrap().clone();
                    broken.attrs.insert("address".into(), Value::Int(3));
                    pdb.db_mut_for_test().replace_object_for_test(broken).unwrap();
                });
                let Role::Replica(r) = &mut node.role else { panic!("only a follower can pull") };
                let report = r.scrub_cycle();
                assert!(report.core.consistency_errors > 0 && report.needs_replica, "{report:?}");
                assert!(!report.quarantined.is_empty() && r.scrub_pending(), "{report:?}");
                // Isolation while quarantined: the fenced class refuses,
                // every other class keeps serving.
                let bad = report.quarantined[0].clone();
                let db = r.db_ref().db();
                assert!(matches!(db.pi(&bad, db.now()), Err(ModelError::Quarantined { .. })));
                let other = if bad == ClassId::from("person") { "employee" } else { "person" };
                assert!(db.pi(&other.into(), db.now()).is_ok(), "healthy class must keep serving");
                // Anti-entropy: one round trip installs the primary's log.
                self.pump(false);
                let r = self.follower();
                assert_eq!(r.db_ref().state_digest(), healthy, "pull must restore the state");
                assert!(!r.scrub_pending() && r.halted().is_none());
                assert!(r.db_ref().db().quarantine().is_empty(), "repair must lift the quarantine");
                let log = |n: usize| self.nodes[n].fs.contents(path);
                assert!(log(n) == log(0), "the install must leave the primary's log");
                let report = self.follower().db_ref().db().clone().scrub_cycle();
                assert!(report.clean() || report.consistency_errors == 0, "{report:?}");
                self.watch = Watch::Converged;
            }
        }
    }

    /// The writer's disk dies or fills up: the breaker opens after
    /// [`BREAKER_THRESHOLD`] surfaced failures and then refuses writes
    /// without I/O while reads and recovery inspection answer; a probe
    /// fails until the disk heals and succeeds after; a manual trip and a
    /// probe on a healthy disk do the same.
    pub(super) fn outage(&mut self, enospc: bool) {
        let node = &mut self.nodes[self.writer];
        let fs = node.fs.clone();
        let pdb = node.pdb_mut();
        pdb.sync().expect("sync");
        let digest = walk(pdb);
        let fail = |on: bool| match enospc {
            true => fs.fail_enospc_after(on.then_some(0)),
            false => fs.fail_after(on.then_some(0)),
        };
        fail(true);
        for _ in 0..BREAKER_THRESHOLD {
            let r = pdb.tick();
            let Err(EngineError::Write { fault, attempts, .. }) = r else { panic!("wrote: {r:?}") };
            let retried = (fault, attempts) == (FaultKind::Transient, RETRY_ATTEMPTS);
            assert!(!enospc || retried, "a full disk is retried");
            assert_eq!(walk(pdb), digest, "failed write mutated state");
        }
        assert_eq!((pdb.is_read_only(), pdb.breaker_state()), (true, BreakerState::Open));
        let io = fs.op_count();
        let r = pdb.tick();
        let Err(EngineError::ReadOnly { consecutive_failures }) = r else { panic!("{r:?}") };
        assert!(consecutive_failures >= BREAKER_THRESHOLD);
        assert_eq!(fs.op_count(), io, "fast-fail must not issue I/O");
        assert_eq!(walk(pdb), digest);
        assert!(pdb.db().check_database().is_consistent());
        assert!(pdb.state_at_op(1).is_ok(), "recovery inspection degraded");
        assert!(!pdb.try_reset(), "a probe against a failed disk re-opens the breaker");
        assert!(pdb.is_read_only());
        fail(false);
        assert!(pdb.try_reset(), "a probe after the disk heals restores service");
        assert_eq!(pdb.breaker_state(), BreakerState::Closed);
        // The manual override: a trip, then a probe on a healthy disk.
        pdb.trip();
        assert!(matches!(pdb.tick(), Err(EngineError::ReadOnly { .. })));
        assert!(pdb.try_reset(), "healthy disk: probe must succeed");
        assert!(!pdb.is_read_only());
    }
}

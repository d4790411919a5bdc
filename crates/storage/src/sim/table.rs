//! The scenario table: every fault suite as rows of a schedule, a seed
//! range and an expected outcome.

use std::ops::Range;

use super::session::TEARS;
use super::{Damage, Mix, World};
use crate::repl::SimNetConfig;
use crate::{EngineError, TearMode};

/// A fault or a forced step, run at the start of a session step.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    /// Checkpoint the writer.
    Checkpoint,
    /// Cut (`true`) or heal the link.
    Partition(bool),
    /// `(node, tear)`: crash node 0 (the first primary) or 1 (its
    /// follower) and recover it.
    Crash(usize, TearMode),
    /// Pump until the follower holds the primary's whole log.
    Quiesce,
    /// Promote the follower, heal the link, depose the old primary.
    Promote,
    /// The writer's next `n` I/O operations, in this step, fail
    /// transiently.
    Transient(u64),
    /// `(full)`: the writer's disk dies (fills up) until the breaker has
    /// opened, refused, probed and closed again.
    Outage(bool),
    /// `(node, what)`: damage a node and check the repair.
    Damage(usize, Damage),
    /// The writer's scrubber finds log damage and re-checkpoints over it.
    Scrub,
    /// The writer's next fsync fails once with this errno, losing what
    /// it was to write; the writer syncs at once.
    LostSync(i32),
}

/// What a scenario must end with, beyond the per-step oracles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Expect {
    /// Nothing more.
    Holds,
    /// No write surfaced a failure.
    Absorbed,
    /// A write outlived the retry budget, and writes resume.
    Surfaces,
    /// At least one commit got through.
    Progress,
    /// The quiesced follower equals its primary.
    Converges,
    /// … through its primary's log from byte 0 (that log was compacted),
    /// and the two logs are byte for byte the same.
    ConvergesViaImage,
    /// Exactly one node accepts writes.
    OneWriter,
}

/// One row of the table: the session, the fault schedule as data, the
/// seeds and the expected outcome.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// `family/variant`.
    pub name: String,
    /// The seeds a full run walks (a smoke run takes the first).
    pub seeds: Range<u64>,
    /// A follower over a link with these faults, or a single node.
    pub(crate) link: Option<SimNetConfig>,
    /// The session's vocabulary.
    pub(crate) mix: Mix,
    /// Session steps (step 0 defines the schema).
    pub(crate) steps: usize,
    /// Re-run the session failing every I/O from the k-th on, for every
    /// k, then crash under this tear mode.
    pub(crate) every_io: Option<TearMode>,
    /// Events by step.
    pub(crate) schedule: Vec<(usize, Event)>,
    /// The outcome.
    pub(crate) expect: Expect,
}

/// Every fault scenario.
pub fn scenarios() -> Vec<Scenario> {
    use Event::{Checkpoint, Crash, LostSync, Partition, Promote, Quiesce, Scrub, Transient};
    const EIO: i32 = 5;
    use Expect::*;
    let row = |name: String, seeds: Range<u64>, link, mix, steps, schedule, expect| Scenario {
        name,
        seeds,
        link,
        mix,
        steps,
        every_io: None,
        schedule,
        expect,
    };
    let mut rows = Vec::new();

    // A crash after every I/O of a ≥ 200-op session, under every tear
    // mode, with a checkpoint half-way (and once without).
    for (tag, tear, checkpoint) in [
        ("drop_all", TearMode::DropAll, true),
        ("keep_half", TearMode::KeepHalf, true),
        ("keep_all", TearMode::KeepAll, true),
        ("no_checkpoint", TearMode::KeepHalf, false),
    ] {
        let schedule = if checkpoint { vec![(100, Checkpoint)] } else { Vec::new() };
        let mut r = row(format!("io/{tag}"), 0..1, None, Mix::Durable, 200, schedule, Holds);
        r.every_io = Some(tear);
        rows.push(r);
    }

    // A failed fsync loses what it was to write: the next sync writes it
    // again, and a crash after a later good sync keeps every operation
    // that sync acknowledged.
    let lost = vec![(10, LostSync(EIO)), (40, Crash(0, TearMode::DropAll))];
    let lost = [lost, vec![(50, LostSync(EIO)), (78, Crash(0, TearMode::KeepAll))]].concat();
    rows.push(row("io/fsync_lost".into(), 0..4, None, Mix::Durable, 80, lost, Holds));

    // Replication under four link fault mixes: a partition window with a
    // checkpoint inside it (the follower must catch up through a state
    // image), crossed with a crash of either node; and a promote.
    let links = [
        ("clean", SimNetConfig::clean()),
        ("drops", SimNetConfig { drop_pct: 25, ..SimNetConfig::clean() }),
        ("dup_reorder", SimNetConfig { dup_pct: 20, reorder_pct: 25, ..SimNetConfig::clean() }),
        ("hostile", SimNetConfig::hostile()),
    ];
    for (tag, net) in links {
        let crash = |t| [("primary", Some((0, t))), ("replica", Some((1, t)))];
        let crashes = TEARS.into_iter().flat_map(crash);
        for (side, crash) in [("none", None)].into_iter().chain(crashes) {
            let mut schedule = vec![(9, Partition(true)), (13, Checkpoint), (15, Partition(false))];
            let mut name = format!("repl/{tag}/{side}");
            if let Some((node, tear)) = crash {
                schedule.push((21, Crash(node, tear)));
                name += &format!("/{tear:?}");
            }
            rows.push(row(name, 0..1, Some(net), Mix::Commits, 31, schedule, ConvergesViaImage));
        }
        let schedule = vec![(16, Quiesce), (16, Partition(true)), (19, Promote)];
        let name = format!("promote/{tag}");
        rows.push(row(name, 0..1, Some(net), Mix::Commits, 21, schedule, OneWriter));
    }

    // Damage on the primary's log before it ships: the cursor stalls at
    // the damage until the scrubber re-checkpoints over it.
    for (tag, what) in [("torn_tail", Damage::TornTail), ("undecodable", Damage::Undecodable)] {
        let schedule = vec![(7, Event::Damage(0, what)), (10, Scrub)];
        let clean = Some(SimNetConfig::clean());
        let name = format!("damage/{tag}");
        rows.push(row(name, 0..1, clean, Mix::Commits, 13, schedule, ConvergesViaImage));
    }

    // The scrubber: memory and disk damage detected and repaired within
    // one cycle, on a single node and on a follower.
    for (tag, what, node, seeds) in [
        ("memory", Damage::Memory, 0, 0..10),
        ("digest_table", Damage::DigestTable, 0, 0..10),
        ("digest_table_follower", Damage::DigestTable, 1, 0..10),
        ("disk", Damage::DiskByte, 0, 0..10),
        ("interrupted", Damage::Interrupted, 0, 0..10),
        ("replica_pull", Damage::Beyond, 1, 0..1),
    ] {
        let (link, expect) = match node {
            0 => (None, Holds),
            _ => (Some(SimNetConfig::clean()), Converges),
        };
        let schedule = vec![(13, Event::Damage(node, what))];
        rows.push(row(format!("scrub/{tag}"), seeds, link, Mix::Commits, 16, schedule, expect));
    }

    // The maintained digest against the walk over the whole single-node
    // vocabulary.
    rows.push(row("digest/sessions".into(), 0..64, None, Mix::Everything, 90, Vec::new(), Holds));

    // Bounded retry and the breaker.
    let absorbed = (1..20).map(|i| (i, Transient(2))).collect();
    rows.push(row("retry/absorbed".into(), 0..1, None, Mix::Commits, 20, absorbed, Absorbed));
    let exhausted = vec![(3, Transient(10)), (7, Transient(10))];
    rows.push(row("retry/exhausted".into(), 0..1, None, Mix::Commits, 12, exhausted, Surfaces));
    // An fsync that fails on a full disk is not retried: it surfaces, and
    // the next sync writes the lost records again.
    let enospc = crate::resilience::ENOSPC;
    let schedule = vec![(8, LostSync(enospc)), (30, Crash(0, TearMode::DropAll))];
    rows.push(row("retry/fsync".into(), 0..4, None, Mix::Durable, 40, schedule, Surfaces));
    for (tag, full) in [("dead_disk", false), ("enospc", true)] {
        let schedule = vec![(5, Event::Outage(full))];
        rows.push(row(format!("breaker/{tag}"), 0..1, None, Mix::Commits, 8, schedule, Holds));
    }

    // The storage half of the governor attack: commits under bursts of
    // one or two transient faults.
    let bursts = (1..61).filter(|i| i % 9 == 5).map(|i| (i, Transient(1 + (i / 9) as u64 % 2)));
    let name = "governor/transient_bursts".into();
    rows.push(row(name, 0..1, None, Mix::Commits, 61, bursts.collect(), Progress));

    // A torn last record: recovery truncates it and lands on the
    // boundary before it.
    let torn = vec![(10, Event::Damage(0, Damage::TornTail))];
    rows.push(row("recovery/damaged_tail".into(), 0..1, None, Mix::Commits, 10, torn, Holds));
    rows
}

impl World {
    /// Run one scheduled event.
    pub(super) fn event(&mut self, ev: &Event) -> Result<(), EngineError> {
        match *ev {
            Event::Checkpoint => self.apply(&super::Op::Checkpoint)?,
            Event::Partition(on) => self.link.as_ref().expect("a link").set_partitioned(on),
            Event::Crash(node, tear) => self.crash(node, tear),
            Event::Quiesce => self.quiesce(),
            Event::Promote => self.promote(),
            Event::Transient(n) => self.nodes[self.writer].fs.fail_transient_next(n),
            Event::Outage(full) => self.outage(full),
            Event::Damage(node, what) => self.damage(node, what),
            Event::Scrub => {
                let report = self.writer().scrub_cycle();
                assert!(report.log_damage > 0 && report.checkpoint_repair, "{report:?}");
                self.nodes[self.writer].damaged = false;
                self.watch = super::Watch::Converged;
            }
            Event::LostSync(errno) => {
                self.nodes[self.writer].fs.fail_next_sync(errno);
                self.lost_sync = true;
                self.apply(&super::Op::Sync)?;
            }
        }
        Ok(())
    }
}

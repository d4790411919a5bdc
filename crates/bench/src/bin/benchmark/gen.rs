//! Input generation: everything the program is handed comes from here,
//! derived from `--seed` alone (the driver shares no generator code with
//! the repository, so edits elsewhere cannot move the inputs).
//!
//! Two shapes of input exist. Set-up builds a base state from [`Op`]s
//! applied through the public API; the measured phases send [`Stmt`]s —
//! TCQL *text* — through the parser like a client would. Counts per kind
//! are fixed by the workload size, never drawn: the seed decides order,
//! targets and literals, so two seeds do the same amount of work.

use std::fmt::Write as _;

/// SplitMix64: small, seedable, good enough to shuffle a workload.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // The modulo bias is below 2^-40 for the sizes used here.
        self.next_u64() % n
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The rare department (1 object in 16) and the eight common ones.
pub const RARE: &str = "rare";
pub const COMMON: [&str; 8] = ["d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"];

fn common_dept(rng: &mut Rng) -> &'static str {
    COMMON[rng.below(COMMON.len() as u64) as usize]
}

/// The twenty small side classes the `adhoc` queries cycle over. Each has
/// its own attribute *name*, because the program keeps one value index
/// per attribute name: twenty names exceed its 16-entry index cache.
pub const TAGS: usize = 20;
pub const TAG_OBJECTS: u64 = 50;

/// Values of `v` are drawn from `0..V_RANGE`.
pub const V_RANGE: u64 = 1_000_000;

/// The schema, as the TCQL a client would send.
pub fn schema() -> Vec<String> {
    let mut out = vec![
        "define class emp (dept: temporal(string), v: temporal(integer), boss: temporal(emp), grade: integer)".to_owned(),
        "define class mgr under emp (bonus: temporal(integer))".to_owned(),
    ];
    for j in 0..TAGS {
        out.push(format!("define class tag{j} (k{j}: temporal(integer))"));
    }
    out
}

/// A literal in a generated mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum Lit {
    Int(i64),
    Str(&'static str),
    Oid(u64),
}

/// One generated mutation. [`Op::render`] gives its TCQL text; set-up
/// applies it through the API directly (see `exec::apply_op`).
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Tick(u64),
    Create {
        class: String,
        init: Vec<(String, Lit)>,
    },
    Set {
        oid: u64,
        attr: &'static str,
        value: Lit,
    },
    Migrate {
        oid: u64,
        to: &'static str,
        init: Vec<(String, Lit)>,
    },
    Terminate {
        oid: u64,
    },
}

fn render_lit(out: &mut String, l: &Lit) {
    let _ = match l {
        Lit::Int(v) => write!(out, "{v}"),
        Lit::Str(s) => write!(out, "'{s}'"),
        Lit::Oid(o) => write!(out, "#{o}"),
    };
}

fn render_init(out: &mut String, init: &[(String, Lit)]) {
    if init.is_empty() {
        return;
    }
    out.push_str(" (");
    for (k, (name, lit)) in init.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{name} := ");
        render_lit(out, lit);
    }
    out.push(')');
}

impl Op {
    pub fn render(&self) -> String {
        let mut s = String::new();
        match self {
            Op::Tick(n) => {
                let _ = write!(s, "tick {n}");
            }
            Op::Create { class, init } => {
                let _ = write!(s, "create {class}");
                render_init(&mut s, init);
            }
            Op::Set { oid, attr, value } => {
                let _ = write!(s, "set #{oid}.{attr} := ");
                render_lit(&mut s, value);
            }
            Op::Migrate { oid, to, init } => {
                let _ = write!(s, "migrate #{oid} to {to}");
                render_init(&mut s, init);
            }
            Op::Terminate { oid } => {
                let _ = write!(s, "terminate #{oid}");
            }
        }
        s
    }
}

/// What a statement is, for per-kind counts and latencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Create,
    SetDept,
    SetV,
    Tick,
    Migrate,
    Terminate,
    Point,
    Scan,
    Join,
    AsOf,
    During,
    History,
    TopK,
    Adhoc,
}

impl Kind {
    pub const QUERY_KINDS: [Kind; 8] = [
        Kind::Point,
        Kind::Scan,
        Kind::Join,
        Kind::AsOf,
        Kind::During,
        Kind::History,
        Kind::TopK,
        Kind::Adhoc,
    ];

    pub fn is_write(self) -> bool {
        self < Kind::Point
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Create => "create",
            Kind::SetDept => "set_dept",
            Kind::SetV => "set_v",
            Kind::Tick => "tick",
            Kind::Migrate => "migrate",
            Kind::Terminate => "terminate",
            Kind::Point => "point",
            Kind::Scan => "scan",
            Kind::Join => "join",
            Kind::AsOf => "asof",
            Kind::During => "during",
            Kind::History => "history",
            Kind::TopK => "topk",
            Kind::Adhoc => "adhoc",
        }
    }
}

/// One statement of a measured phase: TCQL text plus what it is.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    pub kind: Kind,
    pub text: String,
}

/// How many statements of each kind a phase sends.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Mix(pub Vec<(Kind, usize)>);

impl Mix {
    pub fn total(&self) -> usize {
        self.0.iter().map(|(_, n)| n).sum()
    }

    /// One entry per statement, in a seed-shuffled order.
    fn shuffled(&self, rng: &mut Rng) -> Vec<Kind> {
        let mut kinds: Vec<Kind> = self
            .0
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat(k).take(n))
            .collect();
        rng.shuffle(&mut kinds);
        kinds
    }

    /// Every count scaled by `num / den` (at least 1 where it was not 0).
    pub fn scaled(&self, num: usize, den: usize) -> Mix {
        Mix(self
            .0
            .iter()
            .map(|&(k, n)| (k, if n == 0 { 0 } else { (n * num / den).max(1) }))
            .collect())
    }
}

/// Size of the base state set-up builds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BaseSize {
    /// `emp`/`mgr` objects, the boss pool included.
    pub objects: u64,
    /// Rounds in which every object's `v` is overwritten (history depth).
    pub updates: u64,
}

/// The generator's model of what exists, so that every generated
/// statement is valid when it runs (no workload operation may fail).
#[derive(Clone, Debug)]
pub struct Population {
    /// Oid the next `create` will be assigned (oids are sequential).
    next_oid: u64,
    /// The clock.
    pub now: u64,
    /// Oids `0..pool` are managers that are never migrated or terminated,
    /// so a `boss` reference to one stays valid for ever.
    pool: u64,
    /// Live non-pool `emp`/`mgr` objects: targets of set/migrate/terminate.
    alive: Vec<u64>,
    /// `is_mgr[oid]` for `emp`/`mgr` objects.
    is_mgr: Vec<bool>,
    /// `dead[oid]`: terminated.
    dead: Vec<bool>,
    /// Recently created or updated objects (may hold terminated ones).
    recent: Vec<u64>,
    /// Running count of `emp` creates, for the 1-in-16 rare department.
    emp_created: u64,
    /// Clock range `[lo, hi]` in which base-state `v` updates happened:
    /// past instants worth asking `AS OF` / `DURING` about.
    pub history_span: (u64, u64),
}

const RECENT: usize = 32;

impl Population {
    fn dept_of_next(&self) -> &'static str {
        if self.emp_created % 16 == 0 {
            RARE
        } else {
            COMMON[(self.emp_created % 8) as usize]
        }
    }

    fn touch(&mut self, oid: u64) {
        if self.recent.len() == RECENT {
            self.recent.remove(0);
        }
        self.recent.push(oid);
    }

    fn create_emp(&mut self, rng: &mut Rng, class: &'static str) -> Op {
        let mut init = vec![
            ("dept".to_owned(), Lit::Str(self.dept_of_next())),
            ("v".to_owned(), Lit::Int(rng.below(V_RANGE) as i64)),
            ("grade".to_owned(), Lit::Int((self.emp_created % 10) as i64)),
        ];
        if self.pool > 0 && class == "emp" {
            init.push(("boss".to_owned(), Lit::Oid(rng.below(self.pool))));
        }
        self.emp_created += 1;
        let oid = self.next_oid;
        self.next_oid += 1;
        self.is_mgr.push(class == "mgr");
        self.dead.push(false);
        debug_assert_eq!(self.is_mgr.len() as u64, self.next_oid);
        if class == "emp" {
            self.alive.push(oid);
            self.touch(oid);
        }
        Op::Create {
            class: class.to_owned(),
            init,
        }
    }

    /// A live target: half the time a recently touched object (so that
    /// same-tick overwrites and create-then-terminate boundaries occur),
    /// otherwise any live object.
    fn target(&mut self, rng: &mut Rng) -> u64 {
        if rng.below(2) == 0 {
            let r = *rng.pick(&self.recent);
            if !self.dead[r as usize] {
                return r;
            }
        }
        *rng.pick(&self.alive)
    }

    fn write(&mut self, rng: &mut Rng, kind: Kind) -> Op {
        match kind {
            Kind::Create => self.create_emp(rng, "emp"),
            Kind::Tick => {
                self.now += 1;
                Op::Tick(1)
            }
            Kind::SetDept | Kind::SetV => {
                let oid = self.target(rng);
                self.touch(oid);
                if kind == Kind::SetDept {
                    Op::Set {
                        oid,
                        attr: "dept",
                        value: Lit::Str(common_dept(rng)),
                    }
                } else {
                    Op::Set {
                        oid,
                        attr: "v",
                        value: Lit::Int(rng.below(V_RANGE) as i64),
                    }
                }
            }
            Kind::Migrate => {
                let oid = self.target(rng);
                self.touch(oid);
                let was_mgr = std::mem::replace(&mut self.is_mgr[oid as usize], false);
                if was_mgr {
                    Op::Migrate {
                        oid,
                        to: "emp",
                        init: Vec::new(),
                    }
                } else {
                    self.is_mgr[oid as usize] = true;
                    Op::Migrate {
                        oid,
                        to: "mgr",
                        init: vec![("bonus".to_owned(), Lit::Int(rng.below(1000) as i64))],
                    }
                }
            }
            Kind::Terminate => {
                let oid = self.target(rng);
                let at = self
                    .alive
                    .iter()
                    .position(|&o| o == oid)
                    .expect("target is alive");
                self.alive.swap_remove(at);
                self.dead[oid as usize] = true;
                Op::Terminate { oid }
            }
            _ => unreachable!("{kind:?} is not a write"),
        }
    }
}

/// The base state of a workload: the ops that build it and the population
/// model after them. Oids start at 0 on an empty database.
pub fn base_state(size: BaseSize, rng: &mut Rng) -> (Vec<Op>, Population) {
    let n = size.objects.max(32);
    let pool = (n / 32).max(2);
    let mut pop = Population {
        next_oid: 0,
        now: 0,
        pool: 0,
        alive: Vec::new(),
        is_mgr: Vec::new(),
        dead: Vec::new(),
        recent: Vec::new(),
        emp_created: 0,
        history_span: (0, 0),
    };
    let mut ops = Vec::new();
    let tick = |ops: &mut Vec<Op>, pop: &mut Population| {
        pop.now += 1;
        ops.push(Op::Tick(1));
    };
    tick(&mut ops, &mut pop);
    for _ in 0..pool {
        let op = pop.create_emp(rng, "mgr");
        ops.push(op);
    }
    pop.pool = pool;
    // Creation is spread over 16 instants so lifespans start at different
    // times and `AS OF` an early instant sees a smaller extent.
    let per_tick = ((n - pool) / 16).max(1);
    for i in 0..n - pool {
        if i % per_tick == 0 {
            tick(&mut ops, &mut pop);
        }
        let op = pop.create_emp(rng, "emp");
        ops.push(op);
    }
    let lo = pop.now + 1;
    for round in 0..size.updates {
        tick(&mut ops, &mut pop);
        for oid in 0..n {
            ops.push(Op::Set {
                oid,
                attr: "v",
                value: Lit::Int(rng.below(V_RANGE) as i64),
            });
            // Some department moves too, so `dept` has history and an
            // `AS OF` answer differs from the answer now.
            if round % 4 == 1 && oid % 5 == 2 {
                ops.push(Op::Set {
                    oid,
                    attr: "dept",
                    value: Lit::Str(common_dept(rng)),
                });
            }
        }
    }
    pop.history_span = (lo.min(pop.now), pop.now);
    // Class histories: one object in 20 is promoted, half of those are
    // demoted again an instant later.
    tick(&mut ops, &mut pop);
    for oid in (pool..n).filter(|o| o % 20 == 3) {
        pop.is_mgr[oid as usize] = true;
        ops.push(Op::Migrate {
            oid,
            to: "mgr",
            init: vec![("bonus".to_owned(), Lit::Int((oid % 1000) as i64))],
        });
    }
    tick(&mut ops, &mut pop);
    for oid in (pool..n).filter(|o| o % 40 == 3) {
        pop.is_mgr[oid as usize] = false;
        ops.push(Op::Migrate {
            oid,
            to: "emp",
            init: Vec::new(),
        });
    }
    // The side classes of the `adhoc` queries.
    for j in 0..TAGS {
        for k in 0..TAG_OBJECTS {
            ops.push(Op::Create {
                class: format!("tag{j}"),
                init: vec![(format!("k{j}"), Lit::Int(k as i64))],
            });
            pop.next_oid += 1;
            pop.is_mgr.push(false);
            pop.dead.push(false);
        }
    }
    tick(&mut ops, &mut pop);
    (ops, pop)
}

/// `mix` write statements in a seed-shuffled order, valid against `pop`
/// (which is advanced past them).
pub fn write_ops(pop: &mut Population, mix: &Mix, rng: &mut Rng) -> Vec<(Kind, Op)> {
    let kinds = mix.shuffled(rng);
    kinds.into_iter().map(|k| (k, pop.write(rng, k))).collect()
}

/// The literal sets of the seven cache-friendly query kinds: at most
/// eight distinct statements each, chosen once per seed.
pub struct QueryLiterals {
    texts: Vec<(Kind, Vec<String>)>,
    adhoc_serial: u64,
}

impl QueryLiterals {
    pub fn new(pop: &Population, rng: &mut Rng) -> QueryLiterals {
        let (lo, hi) = pop.history_span;
        let span = hi.saturating_sub(lo).max(1);
        let depts: Vec<&str> = std::iter::once(RARE)
            .chain(COMMON.iter().copied().take(7))
            .collect();
        let past = |rng: &mut Rng| lo + rng.below(span);
        let window = |rng: &mut Rng| {
            let a = lo + rng.below(span);
            (a, (a + 1 + rng.below(3)).min(hi))
        };
        let mut texts = Vec::new();
        let mut eight =
            |kind: Kind, f: &mut dyn FnMut(usize, &mut Rng) -> String, rng: &mut Rng| {
                texts.push((kind, (0..8).map(|i| f(i, rng)).collect::<Vec<_>>()));
            };
        eight(
            Kind::Point,
            &mut |i, _| format!("select e from emp e where e.dept = '{}'", depts[i]),
            rng,
        );
        eight(
            Kind::Scan,
            &mut |i, rng| {
                format!(
                    "select e from emp e where e.v > {}",
                    V_RANGE * (90 + i as u64) / 100 + rng.below(5000)
                )
            },
            rng,
        );
        eight(
            Kind::Join,
            &mut |i, rng| {
                format!(
                    "select e, b from emp e, mgr b where e.boss = b and e.dept = 'rare' and e.v > {}",
                    V_RANGE * i as u64 / 10 + rng.below(5000)
                )
            },
            rng,
        );
        eight(
            Kind::AsOf,
            &mut |i, rng| {
                format!(
                    "select e from emp e as of {} where e.dept = '{}'",
                    past(rng),
                    depts[i]
                )
            },
            rng,
        );
        eight(
            Kind::During,
            &mut |_, rng| {
                let (a, b) = window(rng);
                format!("select e from emp e during [{a}, {b}] where e.dept = 'rare'")
            },
            rng,
        );
        eight(
            Kind::History,
            &mut |_, rng| {
                let (a, b) = window(rng);
                format!("select history of e.v from emp e during [{a}, {b}] where e.dept = 'rare'")
            },
            rng,
        );
        eight(
            Kind::TopK,
            &mut |i, _| {
                format!(
                    "select e, e.v from emp e where e.dept = '{}' order by e.v desc limit 10",
                    depts[i]
                )
            },
            rng,
        );
        QueryLiterals {
            texts,
            adhoc_serial: 0,
        }
    }

    /// One read statement of `kind`. Cache-friendly kinds repeat one of
    /// their eight texts; `adhoc` never repeats a text (the second
    /// conjunct carries a serial number) and walks the side classes, so it
    /// misses the plan cache and cycles the attribute-index cache.
    pub fn read(&mut self, kind: Kind, rng: &mut Rng) -> Stmt {
        let text = if kind == Kind::Adhoc {
            let serial = self.adhoc_serial;
            self.adhoc_serial += 1;
            let j = serial % TAGS as u64;
            format!(
                "select t from tag{j} t where t.k{j} = {} and t.k{j} < {}",
                rng.below(TAG_OBJECTS),
                V_RANGE + serial
            )
        } else {
            let set = &self
                .texts
                .iter()
                .find(|(k, _)| *k == kind)
                .expect("a query kind")
                .1;
            rng.pick(set).clone()
        };
        Stmt { kind, text }
    }
}

/// A measured statement stream: `mix` statements, writes valid against
/// `pop`, reads drawn from `lits`, in one seed-shuffled order.
pub fn statements(
    pop: &mut Population,
    lits: &mut QueryLiterals,
    mix: &Mix,
    rng: &mut Rng,
) -> Vec<Stmt> {
    let kinds = mix.shuffled(rng);
    kinds
        .into_iter()
        .map(|kind| {
            if kind.is_write() {
                Stmt {
                    kind,
                    text: pop.write(rng, kind).render(),
                }
            } else {
                lits.read(kind, rng)
            }
        })
        .collect()
}

/// FNV-1a over a statement stream (generator determinism checks).
#[cfg(test)]
pub fn stream_hash(stmts: &[Stmt]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in stmts {
        for b in s.text.bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Vec<Stmt> {
        let mut rng = Rng::new(seed);
        let (_, mut pop) = base_state(
            BaseSize {
                objects: 200,
                updates: 2,
            },
            &mut rng,
        );
        let mut lits = QueryLiterals::new(&pop, &mut rng);
        let mix = Mix(vec![
            (Kind::Create, 20),
            (Kind::SetDept, 10),
            (Kind::SetV, 35),
            (Kind::Tick, 8),
            (Kind::Migrate, 4),
            (Kind::Terminate, 3),
            (Kind::Point, 10),
            (Kind::Adhoc, 10),
        ]);
        statements(&mut pop, &mut lits, &mix, &mut rng)
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(stream_hash(&stream(1)), stream_hash(&stream(1)));
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream_hash(&stream(1)), stream_hash(&stream(2)));
    }

    #[test]
    fn counts_per_kind_are_exact_whatever_the_seed() {
        for seed in [1, 2, 3] {
            let s = stream(seed);
            assert_eq!(s.len(), 100);
            let count = |k: Kind| s.iter().filter(|x| x.kind == k).count();
            assert_eq!(
                (
                    count(Kind::Create),
                    count(Kind::SetV),
                    count(Kind::Terminate),
                    count(Kind::Adhoc)
                ),
                (20, 35, 3, 10)
            );
        }
    }

    #[test]
    fn adhoc_statements_never_repeat_and_cycle_the_side_classes() {
        let mut rng = Rng::new(5);
        let (_, pop) = base_state(
            BaseSize {
                objects: 64,
                updates: 1,
            },
            &mut rng,
        );
        let mut lits = QueryLiterals::new(&pop, &mut rng);
        let texts: Vec<String> = (0..60)
            .map(|_| lits.read(Kind::Adhoc, &mut rng).text)
            .collect();
        let mut unique = texts.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), texts.len());
        assert!(
            texts[0].contains("tag0 ")
                && texts[19].contains("tag19 ")
                && texts[20].contains("tag0 ")
        );
        // The cached kinds stay within eight texts each.
        let mut points: Vec<String> = (0..200)
            .map(|_| lits.read(Kind::Point, &mut rng).text)
            .collect();
        points.sort();
        points.dedup();
        assert!(points.len() <= 8);
    }

    #[test]
    fn terminated_objects_are_never_targeted_again() {
        let mut rng = Rng::new(3);
        let (_, mut pop) = base_state(
            BaseSize {
                objects: 64,
                updates: 1,
            },
            &mut rng,
        );
        let mix = Mix(vec![
            (Kind::SetV, 300),
            (Kind::Migrate, 40),
            (Kind::Terminate, 30),
            (Kind::Create, 30),
        ]);
        let mut dead = Vec::new();
        for (_, op) in write_ops(&mut pop, &mix, &mut rng) {
            match op {
                Op::Terminate { oid } => {
                    assert!(!dead.contains(&oid));
                    assert!(oid >= pop.pool, "pool objects are never terminated");
                    dead.push(oid);
                }
                Op::Set { oid, .. } | Op::Migrate { oid, .. } => assert!(!dead.contains(&oid)),
                _ => {}
            }
        }
        assert_eq!(dead.len(), 30);
    }

    #[test]
    fn ops_render_as_tcql() {
        assert_eq!(Op::Tick(1).render(), "tick 1");
        assert_eq!(
            Op::Create {
                class: "emp".into(),
                init: vec![
                    ("dept".into(), Lit::Str("rare")),
                    ("boss".into(), Lit::Oid(3))
                ]
            }
            .render(),
            "create emp (dept := 'rare', boss := #3)"
        );
        assert_eq!(
            Op::Set {
                oid: 9,
                attr: "v",
                value: Lit::Int(-4)
            }
            .render(),
            "set #9.v := -4"
        );
        assert_eq!(
            Op::Migrate {
                oid: 2,
                to: "emp",
                init: vec![]
            }
            .render(),
            "migrate #2 to emp"
        );
        assert_eq!(Op::Terminate { oid: 5 }.render(), "terminate #5");
    }
}

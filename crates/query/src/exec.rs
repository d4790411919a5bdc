//! The plan executor: runs a [`crate::plan::PlannedQuery`]
//! against a database, producing exactly the rows (and row order) of the
//! reference evaluator [`crate::eval::eval_select_naive`].
//!
//! Execution pipeline:
//!
//! 1. size each variable's extent. A variable with a planned
//!    equality/membership predicate is only *counted* (the extent index
//!    answers `Class::ext_count_at` / `ext_count_during` without
//!    building the set); every other variable's extent is fetched, sorted
//!    by oid, from the extent index;
//! 2. seed candidates. Each planned predicate is resolved through the
//!    temporal attribute-value index (`Database::attr_index_probe`). A
//!    covered variable's candidates are the probe's sorted oids —
//!    intersected across its predicates — that were members of the class
//!    at the query instant or in the query window, read off each oid's
//!    own membership history (`Class::is_member_at` / `is_member_during`).
//!    Its extent is never materialised, copied or walked: the read pays
//!    for the answer, not for the class. A covered probe is exact
//!    (`DESIGN.md` §13.3) — precisely the oids whose slot equals one of
//!    the values at the instant, or at some instant of the window — so
//!    the conjunct it answered is *dropped* from steps 3 and 5 instead of
//!    being re-evaluated against every candidate's object: at `NOW` /
//!    `AS OF t` (and for `attr AT t`) every top-level conjunct that is a
//!    covered [`crate::plan::IndexPred`]; under `DURING` only a conjunct
//!    that is the whole filter, because the window filter is one
//!    existential over all conjuncts jointly. While any class is
//!    quarantined every conjunct stays: evaluating it is what refuses a
//!    candidate whose most specific class is fenced. An uncovered
//!    variable (static declaration, unknown class, `use_index: false`)
//!    takes its fetched extent and evaluates everything;
//! 3. apply the remaining pushed-down prefilters per variable;
//! 4. order variables by (post-prefilter) candidate-set size, preferring
//!    variables hash-joinable to already-placed ones;
//! 5. build bindings level by level — hash join where an equality
//!    conjunct links the new variable to a placed one, nested loop
//!    otherwise — applying each remaining residual conjunct at the
//!    earliest level where all its variables are bound;
//! 6. project surviving bindings, then restore the reference evaluator's
//!    enumeration order. Every candidate list is sorted by oid, as every
//!    extent is, so that order is ascending oid tuples in declaration
//!    order: a binding's oids *are* its "naive key", and the key is
//!    copied out of the binding only when the placement order differs
//!    from the declaration order and a final sort will read it.
//!
//! Evaluation borrows: `eval_cexpr` yields `Cow<Value>` — a literal
//! borrows from the plan, an attribute read borrows from the database
//! (`Database::attr_ref_at`) — so comparing `e.dept` with a literal
//! allocates nothing; only rows, hash-join keys and the `ORDER BY` keys
//! of produced rows are owned.
//!
//! The outermost level is partitioned when it has at least
//! [`PAR_MIN_CANDIDATES`] candidates and, with the default-on `rayon`
//! feature, partitions run in parallel; partitions are contiguous slices
//! of the (ordered) base candidates, so concatenating their outputs
//! preserves serial row order exactly.
//!
//! `LIMIT` without `ORDER BY` stops enumerating once `limit` bindings
//! survive (per partition). `ORDER BY … LIMIT k` materialises late: a
//! partition orders its surviving bindings by `(order key, oids)` — the
//! key borrowed from the database, the oids being the naive order — and
//! projects (and is charged for) its best k only.
//!
//! Error-surface caveat: the planner evaluates conjuncts in a different
//! order than the reference evaluator's left-to-right `AND`, so a query
//! whose filter *errors* (e.g. reading a static attribute dropped by a
//! migration) can surface the error from a different binding, or error
//! where short-circuiting would have hidden it. Index seeding extends
//! the same caveat in the opposite direction: candidates the index rules
//! out are never evaluated at all, so a conjunct that would *error* on
//! such a candidate under the reference evaluator is skipped (an
//! answered conjunct cannot error on a candidate the probe returned: its
//! slot is what the index read). Queries
//! over total predicates — everything the typechecker can see — are
//! exactly equivalent.

use std::borrow::Cow;
use std::collections::HashMap;

use tchimera_core::{
    AttrName, Class, ClassId, Database, Instant, Interval, Oid, Value,
};

#[cfg(feature = "rayon")]
use rayon::prelude::*;

use crate::ast::{CmpOp, Expr, TimeSpec};
use crate::eval::{
    as_bool, compare, eval_projection, event_points_oids, projection_name,
    quantifier_scope_oids, EvalError, QueryResult,
};
use crate::governor::{approx_row_bytes, Charge, ExecBudget, Meter};
use crate::plan::PlannedQuery;

/// A compiled expression: [`Expr`] with variable names interned to
/// declaration indices, resolved once at plan time. Evaluation binds
/// variables through a plain `&[Oid]` slot slice — no per-binding string
/// comparisons or clones on the hot path.
#[derive(Clone, PartialEq, Debug)]
pub enum CExpr {
    /// A literal, lowered to a [`Value`] at compile time.
    Lit(Value),
    /// A range variable (by index) — evaluates to the bound oid.
    Var(usize),
    /// `var.attr` at the evaluation instant.
    Attr(usize, AttrName),
    /// `var.attr AT t`.
    AttrAt(usize, AttrName, u64),
    /// `DEFINED(e)`.
    Defined(Box<CExpr>),
    /// Comparison.
    Cmp(CmpOp, Box<CExpr>, Box<CExpr>),
    /// Conjunction (short-circuiting).
    And(Box<CExpr>, Box<CExpr>),
    /// Disjunction (short-circuiting).
    Or(Box<CExpr>, Box<CExpr>),
    /// Negation.
    Not(Box<CExpr>),
    /// `var IN class`.
    IsMember(usize, ClassId),
    /// `ALWAYS(e)` over the bound objects' common lifespan.
    Always(Box<CExpr>),
    /// `SOMETIME(e)` over that lifespan.
    Sometime(Box<CExpr>),
}

impl CExpr {
    /// Compile an [`Expr`], interning variable names against `vars`
    /// (the query's range variables in declaration order).
    #[must_use]
    pub fn compile(e: &Expr, vars: &[String]) -> CExpr {
        let idx = |v: &str| -> usize {
            vars.iter().position(|n| n == v).expect("validated by the parser")
        };
        match e {
            Expr::Lit(l) => CExpr::Lit(l.to_value()),
            Expr::Var(v) => CExpr::Var(idx(v)),
            Expr::Attr(v, a) => CExpr::Attr(idx(v), a.clone()),
            Expr::AttrAt(v, a, t) => CExpr::AttrAt(idx(v), a.clone(), *t),
            Expr::Defined(i) => CExpr::Defined(Box::new(CExpr::compile(i, vars))),
            Expr::Cmp(op, l, r) => CExpr::Cmp(
                *op,
                Box::new(CExpr::compile(l, vars)),
                Box::new(CExpr::compile(r, vars)),
            ),
            Expr::And(l, r) => CExpr::And(
                Box::new(CExpr::compile(l, vars)),
                Box::new(CExpr::compile(r, vars)),
            ),
            Expr::Or(l, r) => CExpr::Or(
                Box::new(CExpr::compile(l, vars)),
                Box::new(CExpr::compile(r, vars)),
            ),
            Expr::Not(i) => CExpr::Not(Box::new(CExpr::compile(i, vars))),
            Expr::IsMember(v, c) => CExpr::IsMember(idx(v), c.clone()),
            Expr::Always(i) => CExpr::Always(Box::new(CExpr::compile(i, vars))),
            Expr::Sometime(i) => CExpr::Sometime(Box::new(CExpr::compile(i, vars))),
        }
    }
}

/// Evaluate a compiled expression: `oids[i]` is the object bound to
/// variable `i` (only slots of variables the expression mentions are
/// read, except quantifiers, which scope over the full binding). The
/// result borrows wherever a value already exists — literals from the
/// expression, attribute values from the database — and is owned only
/// for computed booleans and bare oids, neither of which allocates.
pub(crate) fn eval_cexpr<'a>(
    db: &'a Database,
    oids: &[Oid],
    t: Instant,
    now: Instant,
    e: &'a CExpr,
) -> Result<Cow<'a, Value>, EvalError> {
    let truth = |b: bool| Cow::Owned(Value::Bool(b));
    Ok(match e {
        CExpr::Lit(v) => Cow::Borrowed(v),
        CExpr::Var(i) => Cow::Owned(Value::Oid(oids[*i])),
        CExpr::Attr(i, a) => Cow::Borrowed(db.attr_ref_at(oids[*i], a, t)?),
        CExpr::AttrAt(i, a, at) => Cow::Borrowed(db.attr_ref_at(oids[*i], a, Instant(*at))?),
        CExpr::Defined(inner) => truth(!eval_cexpr(db, oids, t, now, inner)?.is_null()),
        CExpr::Cmp(op, l, r) => {
            let lv = eval_cexpr(db, oids, t, now, l)?;
            let rv = eval_cexpr(db, oids, t, now, r)?;
            truth(compare(*op, &lv, &rv))
        }
        CExpr::And(l, r) => truth(
            eval_bool(db, oids, t, now, l)?
                && eval_bool(db, oids, t, now, r)?,
        ),
        CExpr::Or(l, r) => truth(
            eval_bool(db, oids, t, now, l)?
                || eval_bool(db, oids, t, now, r)?,
        ),
        CExpr::Not(inner) => truth(!eval_bool(db, oids, t, now, inner)?),
        CExpr::IsMember(i, c) => truth(
            db.schema()
                .class(c)
                .is_ok_and(|cl| cl.is_member_at(oids[*i], t, now)),
        ),
        CExpr::Always(inner) => {
            let scope = quantifier_scope_oids(db, oids, t, now)?;
            let mut ok = true;
            for tp in event_points_oids(db, oids, scope, now) {
                if !eval_bool(db, oids, tp, now, inner)? {
                    ok = false;
                    break;
                }
            }
            truth(ok)
        }
        CExpr::Sometime(inner) => {
            let scope = quantifier_scope_oids(db, oids, t, now)?;
            let mut ok = false;
            for tp in event_points_oids(db, oids, scope, now) {
                if eval_bool(db, oids, tp, now, inner)? {
                    ok = true;
                    break;
                }
            }
            truth(ok)
        }
    })
}

/// `e` in a boolean context: `null` reads as `false`, any other
/// non-boolean is an error.
fn eval_bool(
    db: &Database,
    oids: &[Oid],
    t: Instant,
    now: Instant,
    e: &CExpr,
) -> Result<bool, EvalError> {
    as_bool(eval_cexpr(db, oids, t, now, e)?.as_ref())
}

/// Does `e` evaluate to exactly `true` (not `null`, not an error)?
fn holds(
    db: &Database,
    oids: &[Oid],
    t: Instant,
    now: Instant,
    e: &CExpr,
) -> Result<bool, EvalError> {
    Ok(matches!(*eval_cexpr(db, oids, t, now, e)?, Value::Bool(true)))
}

/// Execution knobs. [`Default`] enables parallel partitioned scans when
/// the crate's `rayon` feature is on and picks a partition count from the
/// machine; tests override `partitions` to exercise boundaries
/// deterministically (the row order is identical either way).
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Run partitions in parallel (no-op without the `rayon` feature).
    pub parallel: bool,
    /// Fixed partition count for the outermost variable (`None` = auto).
    pub partitions: Option<usize>,
    /// Resource budget governing this execution (`None` = ungoverned;
    /// the interpreter always attaches one — see `DESIGN.md` §12).
    pub budget: Option<ExecBudget>,
    /// Seed candidate sets from the temporal attribute-value index where
    /// the plan recorded an [`crate::plan::IndexPred`] and the index
    /// covers it (default). Disable to force the pure scan path — rows
    /// are identical either way; only the candidates examined differ.
    pub use_index: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallel: cfg!(feature = "rayon"),
            partitions: None,
            budget: None,
            use_index: true,
        }
    }
}

/// Per-variable cardinalities for `EXPLAIN`.
#[derive(Clone, Debug)]
pub struct VarStats {
    /// Variable name.
    pub var: String,
    /// Class it ranges over.
    pub class: String,
    /// Raw extent size.
    pub extent: usize,
    /// Number of pushed-down conjuncts.
    pub pushed: usize,
    /// Candidates surviving the prefilters.
    pub after: usize,
    /// `Some(k)` when the attribute-value index seeded this variable's
    /// candidates: `k` is the size of the index-resolved candidate set
    /// (before intersecting with the extent). `None` = scan path.
    pub indexed: Option<usize>,
    /// Conjuncts of this variable the probe answered exactly, so they
    /// were never evaluated against a candidate (`EXPLAIN`: `IndexOnly`).
    pub answered: usize,
}

/// Per-level (variable placement) execution counts for `EXPLAIN`.
#[derive(Clone, Debug)]
pub struct LevelStats {
    /// Variable (declaration index) placed at this level.
    pub var: usize,
    /// `true` when the level probed a hash table.
    pub hash: bool,
    /// `true` for the outermost (scan) level.
    pub first: bool,
    /// Number of filter checks applied at this level.
    pub checks: usize,
    /// Candidate bindings examined.
    pub examined: u64,
    /// Bindings surviving the level.
    pub out: u64,
}

/// What the executor actually did — the substance of `EXPLAIN`.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Per-variable candidate statistics (declaration order).
    pub vars: Vec<VarStats>,
    /// Chosen variable order (declaration indices).
    pub order: Vec<usize>,
    /// Per-level counts, in placement order.
    pub levels: Vec<LevelStats>,
    /// Partition count used for the outermost level.
    pub partitions: usize,
    /// Result rows produced.
    pub rows: usize,
    /// Total candidate bindings examined across all levels.
    pub bindings: u64,
    /// Size of the full cross product the reference evaluator would
    /// enumerate.
    pub naive_bindings: u128,
}

/// Fewest base-level candidates worth splitting across threads. A
/// partitioned run spawns its workers per query (the `rayon` shim is a
/// thread scope, not a pool), which costs tens of microseconds before the
/// first candidate is examined; below this size one thread finishes
/// sooner. Measured on the benchmark host (2 vCPUs): two partitions lose
/// by 36 µs at 540 candidates, break even near 2 000 and win 1.5× at
/// 10 000 — `DESIGN.md` §11.2 has the table.
pub const PAR_MIN_CANDIDATES: usize = 2048;

/// The instants a query's variables range over: one (`NOW`, `AS OF t`)
/// or a window (`DURING [a, b]`).
#[derive(Clone, Copy)]
enum Scope {
    At(Instant),
    During(Instant, Instant),
}

impl Scope {
    /// The class extent in scope, sorted by oid.
    fn extent(self, class: &Class, now: Instant) -> Vec<Oid> {
        match self {
            Scope::At(t) => class.ext_at(t, now),
            Scope::During(a, b) => class.ext_during(a, b, now),
        }
    }

    /// `extent(..).len()`, from the extent index's counts.
    fn count(self, class: &Class, now: Instant) -> usize {
        match self {
            Scope::At(t) => class.ext_count_at(t, now),
            Scope::During(a, b) => class.ext_count_during(a, b, now),
        }
    }

    /// `extent(..).contains(oid)`, from the oid's own membership history.
    fn contains(self, class: &Class, oid: Oid, now: Instant) -> bool {
        match self {
            Scope::At(t) => class.is_member_at(oid, t, now),
            Scope::During(a, b) => class.is_member_during(oid, a, b, now),
        }
    }
}

/// One level of the binding pipeline: place `var`, probe `hash` (a join
/// index) if available, then apply `checks`.
struct Level {
    var: usize,
    hash: Option<usize>,
    checks: Vec<Check>,
}

#[derive(Clone, Copy)]
enum Check {
    Join(usize),
    Resid(usize),
}

/// A produced row before final ordering: the projected values, the
/// optional `ORDER BY` key and — only when a final sort will read it —
/// the naive-order key (the binding's oids in declaration order).
struct RowOut {
    key: Vec<Oid>,
    oval: Option<Value>,
    row: Vec<Value>,
}

/// Per-partition output.
struct PartOut {
    rows: Vec<RowOut>,
    count: i64,
    levels: Vec<(u64, u64)>,
}

/// Flat storage for partial bindings: `n` oid slots per row (copies, not
/// per-binding allocations).
struct Partials {
    n: usize,
    oids: Vec<Oid>,
}

impl Partials {
    fn new(n: usize) -> Partials {
        Partials { n, oids: Vec::new() }
    }

    fn len(&self) -> usize {
        self.oids.len().checked_div(self.n).unwrap_or(0)
    }

    fn push(&mut self, oids: &[Oid]) {
        self.oids.extend_from_slice(oids);
    }

    fn row(&self, r: usize) -> &[Oid] {
        &self.oids[r * self.n..(r + 1) * self.n]
    }
}

/// Pick the variable placement order: smallest candidate set first,
/// preferring variables joined (by an extracted equality) to an already
/// placed one. Ties on candidate-set size break by *class name* (then
/// declaration order), so the placement is a deterministic function of
/// the query and the data — not of incidental declaration shuffles.
fn choose_order(
    n: usize,
    sizes: &[usize],
    joins: &[crate::plan::JoinPred],
    vars: &[(ClassId, String)],
) -> Vec<usize> {
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    for _ in 0..n {
        let connected = |v: usize| {
            joins.iter().any(|j| {
                (j.left == v && placed[j.right]) || (j.right == v && placed[j.left])
            })
        };
        let any_connected =
            !order.is_empty() && (0..n).any(|v| !placed[v] && connected(v));
        let mut best: Option<usize> = None;
        for v in 0..n {
            if placed[v] || (any_connected && !connected(v)) {
                continue;
            }
            if best.map_or(true, |b| {
                sizes[v] < sizes[b]
                    || (sizes[v] == sizes[b]
                        && vars[v].0.as_str() < vars[b].0.as_str())
            }) {
                best = Some(v);
            }
        }
        let v = best.expect("some variable remains");
        placed[v] = true;
        order.push(v);
    }
    order
}

/// Assign each join predicate and residual conjunct to the earliest level
/// where all its variables are bound. The first equality closing at a
/// level whose endpoint is the level's variable becomes its hash probe;
/// further equalities and residuals become plain checks, applied in
/// source order. Residuals the index probe `answered` get no check.
fn build_levels(plan: &PlannedQuery, order: &[usize], answered: &[bool]) -> Vec<Level> {
    let mut placed = vec![false; plan.n];
    let mut join_used = vec![false; plan.joins.len()];
    let mut resid_used = answered.to_vec();
    let mut levels = Vec::with_capacity(order.len());
    for (li, &v) in order.iter().enumerate() {
        placed[v] = true;
        let mut hash = None;
        let mut checks: Vec<(usize, Check)> = Vec::new();
        if !plan.during {
            for (ji, j) in plan.joins.iter().enumerate() {
                if !join_used[ji] && placed[j.left] && placed[j.right] {
                    join_used[ji] = true;
                    if li > 0 && hash.is_none() && (j.left == v || j.right == v) {
                        hash = Some(ji);
                    } else {
                        checks.push((j.pos, Check::Join(ji)));
                    }
                }
            }
            for (ri, r) in plan.residual.iter().enumerate() {
                if !resid_used[ri] && r.vars.iter().all(|&u| placed[u]) {
                    resid_used[ri] = true;
                    checks.push((r.pos, Check::Resid(ri)));
                }
            }
        }
        checks.sort_by_key(|(pos, _)| *pos);
        levels.push(Level {
            var: v,
            hash,
            checks: checks.into_iter().map(|(_, c)| c).collect(),
        });
    }
    levels
}

/// Everything a partition worker needs, immutable and `Sync`.
struct ExecCtx<'a> {
    db: &'a Database,
    plan: &'a PlannedQuery,
    window: Interval,
    now: Instant,
    /// Filter-evaluation instant for point-scope queries.
    t0: Instant,
    /// Candidates per variable, each sorted by oid.
    cands: &'a [Vec<Oid>],
    levels: &'a [Level],
    /// Join tables per level: key value → that level's candidates.
    maps: &'a [Option<HashMap<Value, Vec<Oid>>>],
    /// The `DURING` filter still owed on complete bindings: `None` when
    /// there is none or the index probe answered it.
    full_filter: Option<&'a CExpr>,
    /// Cap on surviving bindings (LIMIT without ORDER BY, order-preserving
    /// placements only).
    cap_scan: Option<usize>,
    /// Bounded top-k buffer size (ORDER BY + LIMIT).
    topk: Option<usize>,
    /// The placement order differs from the declaration order, so rows
    /// must carry their naive key for the final sort.
    keyed: bool,
    /// Shared budget meter (None = ungoverned execution).
    meter: Option<&'a Meter>,
}

impl ExecCtx<'_> {
    /// Does a freshly extended binding survive this level's checks?
    fn passes(
        &self,
        li: usize,
        oids: &[Oid],
        charge: &mut Charge<'_>,
    ) -> Result<bool, EvalError> {
        let last = li + 1 == self.levels.len();
        if self.plan.during {
            // Joint existential re-check of the whole filter: pushdown
            // under DURING is only a necessary condition.
            if last {
                if let Some(f) = self.full_filter {
                    let pts =
                        event_points_oids(self.db, oids, self.window, self.now);
                    charge.cost(pts.len() as u64)?;
                    let pass = pts
                        .into_iter()
                        .any(|t| holds(self.db, oids, t, self.now, f).unwrap_or(false));
                    return Ok(pass);
                }
            }
            return Ok(true);
        }
        for ch in &self.levels[li].checks {
            let e = match ch {
                Check::Join(j) => &self.plan.joins[*j].whole,
                Check::Resid(r) => &self.plan.residual[*r].expr,
            };
            if !holds(self.db, oids, self.t0, self.now, e)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Run the whole pipeline over `[lo, hi)` of the base level's
    /// candidates. Partitions are contiguous, so per-partition outputs
    /// concatenate into the serial order.
    fn process(&self, lo: usize, hi: usize) -> Result<PartOut, EvalError> {
        let plan = self.plan;
        let n = plan.n;
        let nlevels = self.levels.len();
        let mut out = PartOut {
            rows: Vec::new(),
            count: 0,
            levels: vec![(0, 0); nlevels],
        };
        let mut obuf = vec![Oid(0); n];
        let mut charge = Charge::new(self.meter);

        // Level 0: scan the base partition.
        let base = &self.levels[0];
        let mut partials = Partials::new(n);
        for &oid in &self.cands[base.var][lo..hi] {
            out.levels[0].0 += 1;
            charge.bindings(1)?;
            obuf[base.var] = oid;
            if self.passes(0, &obuf, &mut charge)? {
                partials.push(&obuf);
                out.levels[0].1 += 1;
                if nlevels == 1 && self.cap_scan.is_some_and(|k| partials.len() >= k) {
                    break;
                }
            }
        }

        // Deeper levels: hash probe or nested loop.
        for li in 1..nlevels {
            let lvl = &self.levels[li];
            let last = li + 1 == nlevels;
            let mut next = Partials::new(n);
            'rows: for r in 0..partials.len() {
                obuf.copy_from_slice(partials.row(r));
                let bucket: &[Oid] = match lvl.hash {
                    Some(ji) => {
                        let j = &plan.joins[ji];
                        let probe = if j.left == lvl.var { &j.right_key } else { &j.left_key };
                        let key = eval_cexpr(self.db, &obuf, self.t0, self.now, probe)?;
                        self.maps[li]
                            .as_ref()
                            .and_then(|m| m.get(&*key))
                            .map_or(&[], Vec::as_slice)
                    }
                    None => &self.cands[lvl.var],
                };
                for &oid in bucket {
                    out.levels[li].0 += 1;
                    charge.bindings(1)?;
                    obuf[lvl.var] = oid;
                    if self.passes(li, &obuf, &mut charge)? {
                        next.push(&obuf);
                        out.levels[li].1 += 1;
                        if last && self.cap_scan.is_some_and(|k| next.len() >= k) {
                            break 'rows;
                        }
                    }
                }
            }
            partials = next;
        }

        // Produce rows (or just count).
        if plan.counting {
            out.count = partials.len() as i64;
            charge.flush()?;
            return Ok(out);
        }
        if partials.len() == 0 {
            charge.flush()?;
            return Ok(out);
        }
        let t_eval = self
            .window
            .hi()
            .ok_or_else(|| EvalError::internal("empty evaluation window"))?;
        let q = &plan.q;
        // `ORDER BY` keys borrow from the database. Under `LIMIT k` only
        // the partition's best k bindings — ties in naive order, which is
        // the binding's own oids — are projected and charged as rows.
        let mut picked: Vec<usize> = (0..partials.len()).collect();
        let mut ovals: Vec<Cow<'_, Value>> = Vec::new();
        if let Some((e, desc)) = &plan.order_key {
            for r in 0..partials.len() {
                ovals.push(eval_cexpr(self.db, partials.row(r), t_eval, self.now, e)?);
            }
            if let Some(k) = self.topk {
                let by_key = |a: &usize, b: &usize| {
                    let o = ovals[*a].cmp(&ovals[*b]);
                    (if *desc { o.reverse() } else { o })
                        .then_with(|| partials.row(*a).cmp(partials.row(*b)))
                };
                if (1..picked.len()).contains(&k) {
                    picked.select_nth_unstable_by(k - 1, by_key);
                }
                picked.truncate(k);
                picked.sort_unstable_by(by_key);
            }
        }
        for r in picked {
            let oids = partials.row(r);
            let mut row = Vec::with_capacity(q.projections.len());
            for ((_, p), &vi) in q.projections.iter().zip(&plan.proj_vars) {
                row.push(eval_projection(self.db, oids[vi], p, t_eval, self.window, q)?);
            }
            charge.row(approx_row_bytes(&row))?;
            let oval = ovals.get(r).map(|v| v.as_ref().clone());
            let key = if self.keyed { oids.to_vec() } else { Vec::new() };
            out.rows.push(RowOut { key, oval, row });
        }
        charge.flush()?;
        Ok(out)
    }
}

/// Sort rows by the `ORDER BY` value (respecting direction), tie-broken
/// by naive enumeration order — exactly the reference evaluator's stable
/// sort over naive-ordered input. Rows produced under an order-preserving
/// placement carry no key: they already arrive in naive order, partition
/// by partition, and the sort is stable.
fn sort_rows(rows: &mut [RowOut], plan: &PlannedQuery) {
    let desc = plan.order_key.as_ref().map(|(_, d)| *d).unwrap_or(false);
    rows.sort_by(|a, b| {
        let o = if desc {
            b.oval.cmp(&a.oval)
        } else {
            a.oval.cmp(&b.oval)
        };
        o.then_with(|| a.key.cmp(&b.key))
    });
}

/// Execute a planned query. Returns the result table (row-identical to
/// [`crate::eval::eval_select_naive`]) and the execution statistics that
/// back `EXPLAIN`.
pub fn execute_plan(
    db: &Database,
    plan: &PlannedQuery,
    opts: &ExecOptions,
) -> Result<(QueryResult, ExecStats), EvalError> {
    crate::eval::touch_metrics();
    let q = &plan.q;
    let n = plan.n;
    let _span = tchimera_obs::span!("query.eval", vars = n);
    if plan.during {
        tchimera_obs::counter!("query.eval.during").inc();
    }
    let now = db.now();
    let (scope, window) = match q.time {
        TimeSpec::Now => (Scope::At(now), Interval::point(now)),
        TimeSpec::AsOf(t) => (Scope::At(Instant(t)), Interval::point(Instant(t))),
        TimeSpec::During(a, b) => (
            Scope::During(Instant(a), Instant(b)),
            Interval::new(Instant(a), Instant(b).min(now)),
        ),
    };
    let t0 = window.lo().unwrap_or(Instant::ZERO);

    let mut result = QueryResult {
        columns: q
            .projections
            .iter()
            .map(|(v, p)| projection_name(p, v))
            .collect(),
        rows: Vec::new(),
    };
    let mut stats = ExecStats::default();

    // Size every extent. A variable the index may seed is only counted;
    // the others are fetched now (sorted by oid).
    let mut classes: Vec<&Class> = Vec::with_capacity(n);
    let mut fetched: Vec<Option<Vec<Oid>>> = Vec::with_capacity(n);
    for (i, (class_id, var)) in q.vars.iter().enumerate() {
        db.guard_class(class_id)?;
        let class = db.schema().class(class_id)?;
        let seedable = opts.use_index && plan.index_preds.iter().any(|p| p.var == i);
        let oids = (!seedable).then(|| scope.extent(class, now));
        let extent = oids.as_ref().map_or_else(|| scope.count(class, now), Vec::len);
        stats.vars.push(VarStats {
            var: var.clone(),
            class: class_id.as_str().to_owned(),
            extent,
            pushed: plan.prefilters[i].len(),
            after: extent,
            indexed: None,
            answered: 0,
        });
        classes.push(class);
        fetched.push(oids);
    }
    stats.naive_bindings = stats.vars.iter().map(|v| v.extent as u128).product();

    // Mirror the reference evaluator's early return on an empty extent
    // (it skips filter evaluation and the work counters entirely). An
    // empty window (reversed or entirely-future DURING bounds) can bind
    // nothing either, and returning here keeps the projection instant
    // (`window.hi()`) total for every later stage.
    if stats.vars.iter().any(|v| v.extent == 0) || window.is_empty() {
        if plan.counting {
            result.rows.push(vec![Value::Int(0)]);
        }
        if let Some(limit) = q.limit {
            result.rows.truncate(limit as usize);
        }
        stats.rows = result.rows.len();
        return Ok((result, stats));
    }

    // Budget accounting: one shared meter for the whole execution; the
    // planning thread and every partition worker batch into it through
    // local `Charge`s.
    let meter = opts.budget.as_ref().map(Meter::new);
    let mut charge = Charge::new(meter.as_ref());

    // Index seeding: resolve each planned equality/membership predicate
    // through the attribute-value index. A covered probe yields exactly
    // the sorted oids whose slot satisfies the conjunct in its window, so
    // the conjunct is answered and dropped from the checks below: at a
    // point scope always, under `DURING` when it is the whole filter (the
    // joint existential of several conjuncts is not separable). With a
    // class in quarantine every conjunct stays, because evaluating it is
    // what fences a candidate whose most specific class is quarantined.
    // Uncovered probes (no temporal declaration, unknown class) leave the
    // variable to the extent scan.
    let mut seeds: Vec<Option<Vec<Oid>>> = vec![None; n];
    let mut skip_pre: Vec<Vec<bool>> =
        plan.prefilters.iter().map(|p| vec![false; p.len()]).collect();
    let mut skip_resid = vec![false; plan.residual.len()];
    let mut full_filter = plan.full_filter.as_ref();
    if opts.use_index && !plan.index_preds.is_empty() {
        let fenced = !db.quarantine().is_empty();
        let mut scans = 0u64;
        let mut fallbacks = 0u64;
        for p in &plan.index_preds {
            let probe_window = match p.at {
                Some(t) => Interval::point(Instant(t)),
                None => window,
            };
            match db.attr_index_probe(&q.vars[p.var].0, &p.attr, &p.values, probe_window) {
                Some(oids) => {
                    charge.cost(1 + oids.len() as u64)?;
                    scans += 1;
                    tchimera_obs::counter!("query.plan.index_candidates")
                        .add(oids.len() as u64);
                    seeds[p.var] = Some(match seeds[p.var].take() {
                        Some(mut prev) => {
                            prev.retain(|o| oids.binary_search(o).is_ok());
                            prev
                        }
                        None => oids,
                    });
                    if !fenced && (p.whole || !plan.during) {
                        stats.vars[p.var].answered += 1;
                        if plan.during {
                            full_filter = None;
                        }
                        if n > 1 {
                            skip_pre[p.var][p.slot] = true;
                        } else if !plan.during {
                            skip_resid[p.slot] = true;
                        }
                    }
                }
                None => fallbacks += 1,
            }
        }
        if scans > 0 {
            tchimera_obs::counter!("query.plan.index_scans").add(scans);
        }
        if fallbacks > 0 {
            tchimera_obs::counter!("query.plan.index_fallbacks").add(fallbacks);
        }
    }

    // Candidates: a seeded variable keeps the probed oids that are in its
    // extent (asked of each oid's own membership history — the extent is
    // never fetched); the others take their extent. Then the pushed-down
    // prefilters (single-variable queries keep their conjuncts as
    // source-ordered level checks instead — exact naive semantics).
    let mut cands: Vec<Vec<Oid>> = Vec::with_capacity(n);
    for i in 0..n {
        let members = match seeds[i].take() {
            Some(mut seed) => {
                stats.vars[i].indexed = Some(seed.len());
                seed.retain(|&oid| scope.contains(classes[i], oid, now));
                seed
            }
            None => fetched[i]
                .take()
                .unwrap_or_else(|| scope.extent(classes[i], now)),
        };
        let filtered =
            prefilter_var(db, plan, i, &skip_pre[i], members, window, &mut charge)?;
        stats.vars[i].after = filtered.len();
        cands.push(filtered);
    }
    if plan.pushdown_count() > 0 {
        tchimera_obs::counter!("query.plan.pushdowns").add(plan.pushdown_count() as u64);
    }

    let sizes: Vec<usize> = cands.iter().map(Vec::len).collect();
    let order = choose_order(n, &sizes, &plan.joins, &q.vars);
    let needs_sort = order.iter().enumerate().any(|(i, &v)| i != v);
    let levels = build_levels(plan, &order, &skip_resid);
    stats.order = order.clone();

    // Hash tables, built once over each joined level's candidates.
    let mut maps: Vec<Option<HashMap<Value, Vec<Oid>>>> = Vec::with_capacity(levels.len());
    {
        let mut buf = vec![Oid(0); n];
        for lvl in &levels {
            maps.push(match lvl.hash {
                Some(ji) => {
                    let j = &plan.joins[ji];
                    let build = if j.left == lvl.var { &j.left_key } else { &j.right_key };
                    let mut m: HashMap<Value, Vec<Oid>> = HashMap::new();
                    for &oid in &cands[lvl.var] {
                        charge.cost(1)?;
                        buf[lvl.var] = oid;
                        let key = eval_cexpr(db, &buf, t0, now, build)?;
                        match m.get_mut(&*key) {
                            Some(bucket) => bucket.push(oid),
                            None => {
                                m.insert(key.into_owned(), vec![oid]);
                            }
                        }
                    }
                    Some(m)
                }
                None => None,
            });
        }
    }
    let hash_levels = levels.iter().filter(|l| l.hash.is_some()).count();
    if hash_levels > 0 {
        tchimera_obs::counter!("query.plan.hash_joins").add(hash_levels as u64);
    }

    // Partition the base level.
    let limit = q.limit.map(|l| l as usize);
    let cap_scan = if !plan.counting && q.order.is_none() && !needs_sort {
        limit
    } else {
        None
    };
    let topk = if q.order.is_some() { limit } else { None };
    let base_len = cands[order[0]].len();
    let par = opts.parallel && cfg!(feature = "rayon");
    #[cfg(feature = "rayon")]
    let threads = rayon::current_num_threads();
    #[cfg(not(feature = "rayon"))]
    let threads = 1;
    let default_p = if par && base_len >= PAR_MIN_CANDIDATES { threads } else { 1 };
    let p = opts.partitions.unwrap_or(default_p).clamp(1, base_len.max(1));
    let chunk = base_len.div_ceil(p);
    let ranges: Vec<(usize, usize)> = (0..p)
        .map(|i| (i * chunk, ((i + 1) * chunk).min(base_len)))
        .collect();
    stats.partitions = ranges.len();
    if ranges.len() > 1 {
        tchimera_obs::counter!("query.plan.partitions").add(ranges.len() as u64);
    }

    // The planning-stage batch must reconcile before workers start, so
    // a budget blown during prefilter/build surfaces here.
    charge.flush()?;

    let ctx = ExecCtx {
        db,
        plan,
        window,
        now,
        t0,
        cands: &cands,
        levels: &levels,
        maps: &maps,
        full_filter,
        cap_scan,
        topk,
        keyed: needs_sort,
        meter: meter.as_ref(),
    };
    #[cfg(feature = "rayon")]
    let parts: Vec<Result<PartOut, EvalError>> = if par && ranges.len() > 1 {
        ranges.par_iter().map(|&(lo, hi)| ctx.process(lo, hi)).collect()
    } else {
        ranges.iter().map(|&(lo, hi)| ctx.process(lo, hi)).collect()
    };
    #[cfg(not(feature = "rayon"))]
    let parts: Vec<Result<PartOut, EvalError>> =
        ranges.iter().map(|&(lo, hi)| ctx.process(lo, hi)).collect();

    // Merge partitions in base order (order-preserving concatenation).
    let mut all_rows: Vec<RowOut> = Vec::new();
    let mut count_total = 0i64;
    let mut level_sums = vec![(0u64, 0u64); levels.len()];
    for part in parts {
        let part = part?;
        count_total += part.count;
        for (s, l) in level_sums.iter_mut().zip(part.levels.iter()) {
            s.0 += l.0;
            s.1 += l.1;
        }
        all_rows.extend(part.rows);
    }
    stats.levels = levels
        .iter()
        .enumerate()
        .map(|(li, l)| LevelStats {
            var: l.var,
            hash: l.hash.is_some(),
            first: li == 0,
            checks: l.checks.len(),
            examined: level_sums[li].0,
            out: level_sums[li].1,
        })
        .collect();
    stats.bindings = level_sums.iter().map(|(e, _)| e).sum();

    if plan.counting {
        result.rows.push(vec![Value::Int(count_total)]);
    } else {
        if plan.order_key.is_some() {
            sort_rows(&mut all_rows, plan);
        } else if needs_sort {
            all_rows.sort_by(|a, b| a.key.cmp(&b.key));
        }
        result.rows.extend(all_rows.into_iter().map(|r| r.row));
    }
    if let Some(limit) = limit {
        result.rows.truncate(limit);
    }

    stats.rows = result.rows.len();
    tchimera_obs::counter!("query.eval.bindings").add(stats.bindings);
    tchimera_obs::counter!("query.eval.rows").add(result.rows.len() as u64);
    Ok((result, stats))
}

/// Apply a variable's pushed-down conjuncts — all but those the index
/// probe answered (`skip`) — to its candidates (the index-seeded members
/// or the whole extent, sorted by oid either way). Under a point scope
/// each conjunct must hold at the scope instant (errors propagate); under
/// `DURING` a candidate survives if every conjunct holds at *some* event
/// point of that object alone — a necessary condition for the joint
/// existential filter checked later.
fn prefilter_var(
    db: &Database,
    plan: &PlannedQuery,
    i: usize,
    skip: &[bool],
    mut members: Vec<Oid>,
    window: Interval,
    charge: &mut Charge<'_>,
) -> Result<Vec<Oid>, EvalError> {
    let now = db.now();
    let pres: Vec<&CExpr> = plan.prefilters[i]
        .iter()
        .zip(skip)
        .filter_map(|(c, &answered)| (!answered).then_some(c))
        .collect();
    if pres.is_empty() {
        // Answered conjuncts cost a point read what they did evaluated.
        if !plan.during && !skip.is_empty() {
            charge.cost(members.len() as u64)?;
        }
        return Ok(members);
    }
    let t_point = window
        .lo()
        .ok_or_else(|| EvalError::internal("empty evaluation window"))?;
    let mut buf = vec![Oid(0); plan.n];
    let mut kept = 0;
    for k in 0..members.len() {
        let oid = members[k];
        buf[i] = oid;
        let keep = if plan.during {
            let pts = event_points_oids(db, std::slice::from_ref(&oid), window, now);
            charge.cost(1 + pts.len() as u64)?;
            pres.iter()
                .all(|c| pts.iter().any(|&t| holds(db, &buf, t, now, c).unwrap_or(false)))
        } else {
            charge.cost(1)?;
            let mut keep = true;
            for c in &pres {
                if !holds(db, &buf, t_point, now, c)? {
                    keep = false;
                    break;
                }
            }
            keep
        };
        if keep {
            members[kept] = oid;
            kept += 1;
        }
    }
    members.truncate(kept);
    Ok(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Stmt;
    use crate::eval::eval_select_naive;
    use crate::parser::parse;
    use crate::plan::plan_select;
    use tchimera_core::{attrs, ClassDef, ClassId, Type};

    fn join_db() -> Database {
        let mut db = Database::new();
        db.define_class(ClassDef::new("a").attr("v", Type::INTEGER)).unwrap();
        db.define_class(ClassDef::new("b").attr("v", Type::INTEGER)).unwrap();
        db.advance_to(Instant(1)).unwrap();
        for i in 0i64..12 {
            db.create_object(&ClassId::from("a"), attrs([("v", Value::Int(i % 4))]))
                .unwrap();
            db.create_object(&ClassId::from("b"), attrs([("v", Value::Int(i % 6))]))
                .unwrap();
        }
        db.tick_by(1);
        db
    }

    fn sel(src: &str) -> crate::ast::Select {
        match parse(src).unwrap() {
            Stmt::Select(s) => s,
            _ => unreachable!(),
        }
    }

    fn serial(partitions: usize) -> ExecOptions {
        ExecOptions {
            parallel: false,
            partitions: Some(partitions),
            ..Default::default()
        }
    }

    #[test]
    fn limit_without_order_stops_scanning_early() {
        let db = join_db();
        let q = sel("select x from a x limit 2");
        let plan = plan_select(&q);
        let (r, stats) = execute_plan(&db, &plan, &serial(1)).unwrap();
        assert_eq!(r.rows, eval_select_naive(&db, &q).unwrap().rows);
        assert_eq!(r.len(), 2);
        assert_eq!(stats.levels[0].examined, 2, "scan must stop at the limit");
    }

    #[test]
    fn hash_join_examines_fewer_bindings_than_cross_product() {
        let db = join_db();
        let q = sel("select x, y from a x, b y where x.v = y.v");
        let plan = plan_select(&q);
        let (r, stats) = execute_plan(&db, &plan, &serial(1)).unwrap();
        assert_eq!(r.rows, eval_select_naive(&db, &q).unwrap().rows);
        assert!(!r.rows.is_empty());
        assert!(stats.levels[1].hash, "equality must probe a hash table");
        assert!(
            u128::from(stats.bindings) < stats.naive_bindings,
            "{} bindings vs naive {}",
            stats.bindings,
            stats.naive_bindings
        );
    }

    #[test]
    fn partition_boundaries_preserve_row_order() {
        let db = join_db();
        for src in [
            "select x, x.v from a x where x.v >= 1",
            "select x, y from a x, b y where x.v = y.v and x.v > 0",
            "select x from a x order by x.v desc limit 5",
        ] {
            let q = sel(src);
            let plan = plan_select(&q);
            let (one, _) = execute_plan(&db, &plan, &serial(1)).unwrap();
            let (three, s3) = execute_plan(&db, &plan, &serial(3)).unwrap();
            let (par, _) = execute_plan(&db, &plan, &ExecOptions::default()).unwrap();
            assert_eq!(one.rows, three.rows, "{src}");
            assert_eq!(one.rows, par.rows, "{src}");
            assert_eq!(s3.partitions, 3, "{src}");
        }
    }

    #[test]
    fn only_large_candidate_sets_are_partitioned_by_default() {
        #[cfg(feature = "rayon")]
        let threads = rayon::current_num_threads();
        #[cfg(not(feature = "rayon"))]
        let threads = 1;
        let db = dept_db(PAR_MIN_CANDIDATES as i64);
        // 1 in 10 is rare: the seeded point read is far below the
        // threshold, the unfiltered scan sits exactly on it.
        for (src, partitions) in [
            ("select x from emp x where x.dept = 'rare'", 1),
            ("select x from emp x where x.v >= 0", threads),
        ] {
            let q = sel(src);
            let plan = plan_select(&q);
            let (r, stats) = execute_plan(&db, &plan, &ExecOptions::default()).unwrap();
            assert_eq!(stats.partitions, partitions, "{src}");
            let (one, _) = execute_plan(&db, &plan, &serial(1)).unwrap();
            assert_eq!(r.rows, one.rows, "{src}");
        }
    }

    /// `n` employees, 1 in 10 in the rare department, temporal attrs.
    fn dept_db(n: i64) -> Database {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("emp")
                .attr("dept", Type::temporal(Type::STRING))
                .attr("v", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        db.advance_to(Instant(1)).unwrap();
        for i in 0..n {
            let dept = if i % 10 == 0 { "rare" } else { "common" };
            db.create_object(
                &ClassId::from("emp"),
                attrs([("dept", Value::str(dept)), ("v", Value::Int(i))]),
            )
            .unwrap();
        }
        db.tick_by(1);
        db
    }

    #[test]
    fn index_narrowing_matches_naive_and_examines_fewer_bindings() {
        let db = dept_db(100);
        let q = sel("select x from emp x where x.dept = 'rare'");
        let plan = plan_select(&q);
        assert_eq!(plan.index_preds.len(), 1);
        let on = serial(1);
        let off = ExecOptions { use_index: false, ..serial(1) };
        let (r_on, s_on) = execute_plan(&db, &plan, &on).unwrap();
        let (r_off, s_off) = execute_plan(&db, &plan, &off).unwrap();
        let naive = eval_select_naive(&db, &q).unwrap();
        assert_eq!(r_on.rows, naive.rows);
        assert_eq!(r_off.rows, naive.rows);
        assert_eq!(r_on.len(), 10);
        assert_eq!(s_off.bindings, 100, "scan path examines the extent");
        assert_eq!(s_on.bindings, 10, "index path examines only holders");
        assert_eq!(s_on.vars[0].indexed, Some(10));
        assert!(s_off.vars[0].indexed.is_none());
    }

    #[test]
    fn membership_or_chain_and_as_of_probe_through_the_index() {
        let mut db = dept_db(60);
        // Move one rare employee out at t=2 so AS OF 1 and NOW differ.
        let moved = db
            .objects()
            .find(|o| {
                o.attr(&AttrName::from("dept"))
                    .and_then(|v| v.as_temporal())
                    .and_then(|h| h.value_now(db.now()))
                    == Some(&Value::str("rare"))
            })
            .map(|o| o.oid)
            .unwrap();
        db.set_attr(moved, &AttrName::from("dept"), Value::str("gone"))
            .unwrap();
        db.tick_by(1);
        for src in [
            "select x from emp x where x.dept = 'rare' or x.dept = 'gone'",
            "select x from emp x as of 1 where x.dept = 'rare'",
            "select x from emp x during [0, 9] where x.dept = 'gone'",
            "select x from emp x where x.dept at 1 = 'rare'",
        ] {
            let q = sel(src);
            let plan = plan_select(&q);
            assert_eq!(plan.index_preds.len(), 1, "{src}");
            let (r, stats) = execute_plan(&db, &plan, &serial(1)).unwrap();
            assert_eq!(r.rows, eval_select_naive(&db, &q).unwrap().rows, "{src}");
            assert!(stats.vars[0].indexed.is_some(), "{src}");
        }
    }

    #[test]
    fn uncovered_predicates_fall_back_to_the_scan_path() {
        let db = join_db(); // `v` is a *static* attribute: not covered.
        let q = sel("select x from a x where x.v = 2");
        let plan = plan_select(&q);
        assert_eq!(plan.index_preds.len(), 1, "the shape is recorded");
        let (r, stats) = execute_plan(&db, &plan, &serial(1)).unwrap();
        assert_eq!(r.rows, eval_select_naive(&db, &q).unwrap().rows);
        assert!(stats.vars[0].indexed.is_none(), "static decl ⇒ fallback");
    }

    #[test]
    fn index_narrowing_seeds_join_variable_order() {
        let db = dept_db(80);
        let q = sel(
            "select x, y from emp x, emp y \
             where x.dept = 'rare' and x.v = y.v",
        );
        let plan = plan_select(&q);
        let (r, stats) = execute_plan(&db, &plan, &serial(1)).unwrap();
        assert_eq!(r.rows, eval_select_naive(&db, &q).unwrap().rows);
        // The narrowed variable is placed first (8 rare vs 80 extent).
        assert_eq!(stats.order[0], 0);
        assert_eq!(stats.vars[0].indexed, Some(8));
        let (r_off, _) = execute_plan(
            &db,
            &plan,
            &ExecOptions { use_index: false, ..serial(1) },
        )
        .unwrap();
        assert_eq!(r.rows, r_off.rows);
    }

    #[test]
    fn explain_renders_index_scan() {
        let db = dept_db(50);
        let explain = |src: &str, opts: &ExecOptions| {
            let plan = plan_select(&sel(src));
            let (_, stats) = execute_plan(&db, &plan, opts).unwrap();
            crate::plan::render_explain(&plan, &stats, false)
        };
        // The probe answered the only conjunct: nothing is checked.
        let txt = explain("select x from emp x where x.dept = 'rare'", &serial(1));
        assert!(txt.contains("IndexOnly x: examined=5 out=5 checks=0"), "{txt}");
        assert!(txt.contains("index->5"), "{txt}");
        // The second conjunct is still owed per candidate.
        let txt = explain("select x from emp x where x.dept = 'rare' and x.v > 20", &serial(1));
        assert!(txt.contains("IndexOnly x: examined=5 out=2 checks=1"), "{txt}");
        // Several conjuncts under DURING are one joint existential: the
        // probe seeds, the filter still runs.
        let txt = explain(
            "select x from emp x during [1, 2] where x.dept = 'rare' and x.v > 20",
            &serial(1),
        );
        assert!(txt.contains("IndexScan x: examined=5 out=2"), "{txt}");
        assert!(txt.contains("index->5"), "{txt}");
        // The scan path renders a plain scan.
        let off = ExecOptions { use_index: false, ..serial(1) };
        let txt = explain("select x from emp x where x.dept = 'rare'", &off);
        assert!(txt.contains("scan x: examined=50 out=5 checks=1"), "{txt}");
        assert!(!txt.contains("Index"), "{txt}");
    }

    #[test]
    fn choose_order_breaks_extent_ties_by_class_name() {
        // Two classes, same extent size: `b…` must be placed before `z…`
        // whatever the declaration order.
        let mut db = Database::new();
        db.define_class(ClassDef::new("zeta").attr("v", Type::INTEGER)).unwrap();
        db.define_class(ClassDef::new("beta").attr("v", Type::INTEGER)).unwrap();
        db.advance_to(Instant(1)).unwrap();
        for i in 0i64..4 {
            db.create_object(&ClassId::from("zeta"), attrs([("v", Value::Int(i))]))
                .unwrap();
            db.create_object(&ClassId::from("beta"), attrs([("v", Value::Int(i))]))
                .unwrap();
        }
        db.tick_by(1);
        let q = sel("select x, y from zeta x, beta y");
        let plan = plan_select(&q);
        let (r, stats) = execute_plan(&db, &plan, &serial(1)).unwrap();
        assert_eq!(stats.order, vec![1, 0], "beta sorts before zeta");
        assert_eq!(r.rows, eval_select_naive(&db, &q).unwrap().rows);
    }

    #[test]
    fn order_by_limit_uses_bounded_topk() {
        let db = join_db();
        let q = sel("select x, x.v from a x order by x.v limit 3");
        let plan = plan_select(&q);
        let (r, _) = execute_plan(&db, &plan, &serial(1)).unwrap();
        assert_eq!(r.rows, eval_select_naive(&db, &q).unwrap().rows);
        assert_eq!(r.len(), 3);
    }
}

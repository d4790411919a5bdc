//! The TCQL query planner.
//!
//! [`plan_select`] decomposes a `SELECT`'s `WHERE` clause into the three
//! shapes the executor ([`crate::exec`]) knows how to exploit:
//!
//! * **prefilters** — conjuncts over a single range variable, pushed down
//!   so each candidate extent shrinks *before* the cross product;
//! * **hash joins** — equality conjuncts linking two distinct variables
//!   (`x.attr = y.attr`, `x = y.ref`), executed as build/probe hash
//!   lookups instead of nested loops;
//! * **residual** — everything else (multi-variable comparisons,
//!   quantified subexpressions), evaluated only on bindings that survive
//!   the earlier stages.
//!
//! Soundness notes:
//!
//! * `ALWAYS`/`SOMETIME` conjuncts quantify over the *common* lifespan of
//!   **all** bound objects, so they depend on every variable and are never
//!   pushed down.
//! * Under `DURING` the filter is existential over the joint event points
//!   of the whole binding, so per-variable pushdown is only a *necessary*
//!   condition: the executor still re-checks the full filter on surviving
//!   bindings, and no hash joins are extracted.
//! * An index-eligible conjunct ([`IndexPred`]) records where it was
//!   planned, so the executor can drop it when the exact index probe has
//!   answered it — under `DURING` only if it is the whole filter.
//! * Single-variable queries keep their conjuncts in source order as
//!   residual checks, preserving the reference evaluator's left-to-right
//!   `AND` semantics exactly.
//!
//! [`PlanCache`] memoizes plans (and the typecheck that precedes them) by
//! normalized AST, invalidated by the schema's generation stamp.

use std::collections::HashMap;
use std::sync::Arc;

use tchimera_core::{AttrName, Schema, Value};

use crate::ast::{CmpOp, Expr, Projection, Select, TimeSpec};
use crate::exec::{CExpr, ExecStats};
use crate::typecheck::{check_select, TypeError};

/// An equality conjunct linking two distinct range variables, executable
/// as a hash join: build a table keyed on one side, probe with the other.
#[derive(Clone, Debug)]
pub struct JoinPred {
    /// Variable index of the left key.
    pub left: usize,
    /// Variable index of the right key.
    pub right: usize,
    /// Key expression over `left` only.
    pub left_key: CExpr,
    /// Key expression over `right` only.
    pub right_key: CExpr,
    /// The whole conjunct (`left_key = right_key`), for use as a plain
    /// filter when another join already places this level.
    pub whole: CExpr,
    /// Position of the conjunct in the original `WHERE` (left to right).
    pub pos: usize,
}

/// An equality or membership conjunct over a single variable's attribute
/// whose candidate set the executor can seed from the temporal
/// attribute-value index (`Database::attr_index_probe`): `v.attr = lit`,
/// `v.attr at t = lit`, or an `OR` chain of such shapes over the same
/// `(var, attr, at)`.
///
/// The planner only records the *shape* and where the conjunct landed —
/// whether an index actually covers the probe (declaration temporal,
/// class known) is decided at execution time, falling back to the scan
/// path otherwise. A covered probe is *exact* (`DESIGN.md` §13.3), so the
/// executor drops the conjunct it answered instead of re-evaluating it on
/// the candidates: always at a point scope, and under `DURING` when the
/// conjunct is the [`whole`](IndexPred::whole) filter.
#[derive(Clone, Debug)]
pub struct IndexPred {
    /// Variable index the predicate constrains.
    pub var: usize,
    /// The attribute probed.
    pub attr: AttrName,
    /// `Some(t)` for `v.attr AT t` (probe the point `t` whatever the
    /// query scope); `None` probes the query window.
    pub at: Option<u64>,
    /// Literal values of the equality (one) or membership disjunction.
    pub values: Vec<Value>,
    /// Where the conjunct was planned: its index in `prefilters[var]`
    /// (several range variables) or in `residual` (one variable at a point
    /// scope). Unused for one variable under `DURING`, whose conjuncts
    /// live in `full_filter` only.
    pub slot: usize,
    /// The conjunct is the entire `WHERE`. Only then does answering it
    /// answer a `DURING` filter, whose existential quantifies over all
    /// conjuncts jointly.
    pub whole: bool,
}

/// A conjunct the planner could not push down or turn into a join.
#[derive(Clone, Debug)]
pub struct Residual {
    /// Compiled conjunct.
    pub expr: CExpr,
    /// Sorted, distinct variable indices the conjunct depends on
    /// (quantified conjuncts depend on *all* variables).
    pub vars: Vec<usize>,
    /// Position of the conjunct in the original `WHERE`.
    pub pos: usize,
}

/// A planned `SELECT`: the query plus its decomposed filter, ready for
/// [`crate::exec::execute_plan`]. Immutable once built, so it can be
/// cached and shared.
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    /// The source query (owned: cached plans outlive the parsed statement).
    pub q: Select,
    /// Number of range variables.
    pub n: usize,
    /// Pushed-down single-variable conjuncts, per variable index.
    pub prefilters: Vec<Vec<CExpr>>,
    /// Extracted hash-join predicates.
    pub joins: Vec<JoinPred>,
    /// Conjuncts whose candidates the attribute-value index can seed
    /// (see [`IndexPred`]); coverage is decided at execution time.
    pub index_preds: Vec<IndexPred>,
    /// Residual conjuncts (point-scope queries only).
    pub residual: Vec<Residual>,
    /// The whole filter, compiled — evaluated existentially on surviving
    /// bindings under `DURING` (where conjunct-wise splitting is unsound).
    pub full_filter: Option<CExpr>,
    /// Variable index of each projection, aligned with `q.projections`.
    pub proj_vars: Vec<usize>,
    /// Compiled `ORDER BY` key (`var.attr` as a [`CExpr`]) plus the
    /// descending flag.
    pub order_key: Option<(CExpr, bool)>,
    /// `true` when the query is a bare `COUNT`.
    pub counting: bool,
    /// `true` for `DURING` scope.
    pub during: bool,
}

impl PlannedQuery {
    /// Total number of pushed-down conjuncts.
    #[must_use]
    pub fn pushdown_count(&self) -> usize {
        self.prefilters.iter().map(Vec::len).sum()
    }
}

/// Split a filter into its top-level conjuncts, left to right.
fn split_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::And(l, r) => {
            split_conjuncts(l, out);
            split_conjuncts(r, out);
        }
        other => out.push(other),
    }
}

/// Collect the variable indices an expression mentions, and whether it
/// contains a temporal quantifier (which implicitly depends on every
/// variable through the common-lifespan scope).
fn analyze(e: &Expr, vars: &[String], used: &mut Vec<bool>, quant: &mut bool) {
    match e {
        Expr::Lit(_) => {}
        Expr::Var(v) | Expr::Attr(v, _) | Expr::AttrAt(v, _, _) | Expr::IsMember(v, _) => {
            if let Some(i) = vars.iter().position(|n| n == v) {
                used[i] = true;
            }
        }
        Expr::Defined(i) | Expr::Not(i) => analyze(i, vars, used, quant),
        Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            analyze(l, vars, used, quant);
            analyze(r, vars, used, quant);
        }
        Expr::Always(i) | Expr::Sometime(i) => {
            *quant = true;
            analyze(i, vars, used, quant);
        }
    }
}

/// Recognize the index-answerable shapes: `v.attr = lit` /
/// `lit = v.attr` (optionally `AT t`), or an `OR` chain of such over the
/// same `(var, attr, at)` — a membership probe. `null` literals
/// disqualify the conjunct (the index never stores nulls, and `= null`
/// has its own comparison semantics).
fn index_pred_of(e: &Expr, names: &[String]) -> Option<IndexPred> {
    fn leaf(e: &Expr, names: &[String]) -> Option<IndexPred> {
        let Expr::Cmp(CmpOp::Eq, l, r) = e else {
            return None;
        };
        let (attr_side, lit) = match (&**l, &**r) {
            (side, Expr::Lit(lit)) => (side, lit),
            (Expr::Lit(lit), side) => (side, lit),
            _ => return None,
        };
        let (var, attr, at) = match attr_side {
            Expr::Attr(v, a) => (v, a, None),
            Expr::AttrAt(v, a, t) => (v, a, Some(*t)),
            _ => return None,
        };
        let value = lit.to_value();
        if value.is_null() {
            return None;
        }
        let var = names.iter().position(|n| n == var)?;
        Some(IndexPred { var, attr: attr.clone(), at, values: vec![value], slot: 0, whole: false })
    }
    match e {
        Expr::Or(l, r) => {
            let mut a = index_pred_of(l, names)?;
            let b = index_pred_of(r, names)?;
            (a.var == b.var && a.attr == b.attr && a.at == b.at).then(|| {
                a.values.extend(b.values);
                a
            })
        }
        other => leaf(other, names),
    }
}

/// Plan a type-checked `SELECT`. Pure function of the AST: candidate-set
/// sizes (and thus the variable order) are only known at execution time,
/// so the plan records *what* can be pushed or joined and the executor
/// decides *in which order*.
#[must_use]
pub fn plan_select(q: &Select) -> PlannedQuery {
    let names: Vec<String> = q.vars.iter().map(|(_, v)| v.clone()).collect();
    let n = names.len();
    let during = matches!(q.time, TimeSpec::During(..));
    let counting = matches!(q.projections.as_slice(), [(_, Projection::Count)]);

    let mut prefilters: Vec<Vec<CExpr>> = vec![Vec::new(); n];
    let mut joins = Vec::new();
    let mut residual = Vec::new();
    let mut index_preds = Vec::new();

    if let Some(filter) = &q.filter {
        let mut conjuncts = Vec::new();
        split_conjuncts(filter, &mut conjuncts);
        let whole = conjuncts.len() == 1;
        for (pos, c) in conjuncts.into_iter().enumerate() {
            let mut used = vec![false; n];
            let mut quant = false;
            analyze(c, &names, &mut used, &mut quant);
            let cvars: Vec<usize> =
                (0..n).filter(|&i| used[i]).collect();
            let expr = CExpr::compile(c, &names);

            // Index-answerable equality/membership shapes seed the
            // candidate set before any scan, in every scope. The slot is
            // where the conjunct is pushed just below, so the executor
            // can drop it once a covered probe has answered it.
            if !quant && cvars.len() == 1 {
                if let Some(p) = index_pred_of(c, &names) {
                    let slot = if n > 1 { prefilters[p.var].len() } else { residual.len() };
                    index_preds.push(IndexPred { slot, whole, ..p });
                }
            }

            if during {
                // DURING: pushdown is a sound necessary condition for
                // single-variable, quantifier-free conjuncts (the conjunct
                // must hold at some event point of that object alone); the
                // full filter is re-checked existentially on survivors.
                if n > 1 && !quant && cvars.len() == 1 {
                    prefilters[cvars[0]].push(expr);
                }
                continue;
            }
            // Quantified conjuncts scope over every bound object.
            let cvars = if quant { (0..n).collect() } else { cvars };
            // Single-variable queries keep source order (exact reference
            // semantics, including error behavior); no pushdown needed.
            if n > 1 && !quant && cvars.len() == 1 {
                prefilters[cvars[0]].push(expr);
                continue;
            }
            if n > 1 && !quant && cvars.len() == 2 {
                if let Expr::Cmp(CmpOp::Eq, l, r) = c {
                    let side = |e: &Expr| -> Option<usize> {
                        let mut u = vec![false; n];
                        let mut qf = false;
                        analyze(e, &names, &mut u, &mut qf);
                        let vs: Vec<usize> = (0..n).filter(|&i| u[i]).collect();
                        (!qf && vs.len() == 1).then(|| vs[0])
                    };
                    if let (Some(lv), Some(rv)) = (side(l), side(r)) {
                        if lv != rv {
                            joins.push(JoinPred {
                                left: lv,
                                right: rv,
                                left_key: CExpr::compile(l, &names),
                                right_key: CExpr::compile(r, &names),
                                whole: expr,
                                pos,
                            });
                            continue;
                        }
                    }
                }
            }
            residual.push(Residual { expr, vars: cvars, pos });
        }
    }

    let proj_vars = q
        .projections
        .iter()
        .map(|(v, _)| names.iter().position(|x| x == v).expect("checked"))
        .collect();
    let order_key = q.order.as_ref().map(|o| {
        let i = names.iter().position(|x| x == &o.var).expect("checked");
        (CExpr::Attr(i, o.attr.clone()), o.desc)
    });
    let full_filter = if during {
        q.filter.as_ref().map(|f| CExpr::compile(f, &names))
    } else {
        None
    };

    PlannedQuery {
        q: q.clone(),
        n,
        prefilters,
        joins,
        index_preds,
        residual,
        full_filter,
        proj_vars,
        order_key,
        counting,
        during,
    }
}

/// A small LRU cache of query plans, keyed on the normalized AST and the
/// schema generation stamp. A hit skips both typechecking and planning;
/// any class definition or drop bumps the stamp and invalidates every
/// cached entry for that schema.
#[derive(Debug)]
pub struct PlanCache {
    cap: usize,
    tick: u64,
    entries: HashMap<String, CacheEntry>,
}

#[derive(Debug)]
struct CacheEntry {
    generation: u64,
    last_used: u64,
    plan: Arc<PlannedQuery>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(64)
    }
}

impl PlanCache {
    /// A cache holding at most `cap` plans (least recently used evicted).
    #[must_use]
    pub fn new(cap: usize) -> PlanCache {
        PlanCache { cap: cap.max(1), tick: 0, entries: HashMap::new() }
    }

    /// Number of cached plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no plans are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fetch the plan for `q`, typechecking and planning on a miss.
    /// Returns the plan and whether it was a cache hit; hit/miss traffic
    /// is recorded under `query.plan.cache.*`.
    pub fn get_or_plan(
        &mut self,
        schema: &Schema,
        q: &Select,
    ) -> Result<(Arc<PlannedQuery>, bool), TypeError> {
        crate::eval::touch_metrics();
        self.tick += 1;
        let key = format!("{q:?}");
        if let Some(e) = self.entries.get_mut(&key) {
            if e.generation == schema.generation() {
                e.last_used = self.tick;
                tchimera_obs::counter!("query.plan.cache.hit").inc();
                return Ok((Arc::clone(&e.plan), true));
            }
        }
        tchimera_obs::counter!("query.plan.cache.miss").inc();
        check_select(schema, q)?;
        let plan = Arc::new(plan_select(q));
        self.entries.insert(
            key,
            CacheEntry {
                generation: schema.generation(),
                last_used: self.tick,
                plan: Arc::clone(&plan),
            },
        );
        if self.entries.len() > self.cap {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        Ok((plan, false))
    }
}

/// Render an executed plan as the `EXPLAIN` report: per-variable pushdown
/// cardinalities, the chosen variable order, per-stage examined/output
/// counts and the plan-cache disposition.
#[must_use]
pub fn render_explain(plan: &PlannedQuery, stats: &ExecStats, cache_hit: bool) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let scope = match plan.q.time {
        TimeSpec::Now => "now".to_owned(),
        TimeSpec::AsOf(t) => format!("as of {t}"),
        TimeSpec::During(a, b) => format!("during [{a}, {b}]"),
    };
    let _ = writeln!(s, "plan ({scope}):");
    for v in &stats.vars {
        let _ = write!(
            s,
            "  var {}: {}  extent={}  prefilters={} -> {}",
            v.var, v.class, v.extent, v.pushed, v.after
        );
        if let Some(k) = v.indexed {
            let _ = write!(s, "  index->{k}");
        }
        let _ = writeln!(s);
    }
    let order: Vec<&str> = stats
        .order
        .iter()
        .map(|&i| plan.q.vars[i].1.as_str())
        .collect();
    let _ = writeln!(s, "  order: {}", order.join(", "));
    for l in &stats.levels {
        let name = plan.q.vars[l.var].1.as_str();
        let kind = if l.hash {
            "hash-join"
        } else if stats.vars[l.var].answered > 0 {
            "IndexOnly"
        } else if stats.vars[l.var].indexed.is_some() {
            "IndexScan"
        } else if l.first {
            "scan"
        } else {
            "nested-loop"
        };
        let _ = writeln!(
            s,
            "  {kind} {name}: examined={} out={} checks={}",
            l.examined, l.out, l.checks
        );
    }
    if plan.during {
        let _ = writeln!(s, "  residual: existential window filter on joined bindings");
    } else {
        let _ = writeln!(s, "  residual: {} conjunct(s)", plan.residual.len());
    }
    let _ = writeln!(s, "  partitions: {}", stats.partitions);
    let _ = writeln!(
        s,
        "  rows: {}  bindings examined: {}  naive cross product: {}",
        stats.rows, stats.bindings, stats.naive_bindings
    );
    let _ = write!(s, "  plan cache: {}", if cache_hit { "hit" } else { "miss" });
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Stmt;
    use crate::parser::parse;
    use tchimera_core::{ClassDef, Database, Type};

    fn sel(src: &str) -> Select {
        match parse(src).unwrap() {
            Stmt::Select(s) => s,
            _ => unreachable!(),
        }
    }

    fn schema_db() -> Database {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("employee")
                .attr("salary", Type::temporal(Type::INTEGER))
                .attr("grade", Type::INTEGER),
        )
        .unwrap();
        db.define_class(ClassDef::new("manager").isa("employee")).unwrap();
        db
    }

    #[test]
    fn join_query_decomposes_into_pushdown_join_and_residual() {
        let p = plan_select(&sel(
            "select e from employee e, manager m \
             where e.grade > 1 and e.salary = m.salary \
             and sometime(e.salary > m.salary)",
        ));
        assert_eq!(p.prefilters[0].len(), 1);
        assert!(p.prefilters[1].is_empty());
        assert_eq!(p.joins.len(), 1);
        assert_eq!((p.joins[0].left, p.joins[0].right), (0, 1));
        // The quantified conjunct scopes over every variable.
        assert_eq!(p.residual.len(), 1);
        assert_eq!(p.residual[0].vars, vec![0, 1]);
        assert_eq!(p.pushdown_count(), 1);
    }

    #[test]
    fn index_pred_detection_covers_eq_membership_and_at_shapes() {
        let covered = [
            ("select e from employee e where e.salary = 5", 1, 1),
            ("select e from employee e where 5 = e.salary", 1, 1),
            ("select e from employee e where e.salary at 3 = 5", 1, 1),
            (
                "select e from employee e where e.salary = 5 or e.salary = 7",
                1,
                2,
            ),
            (
                "select e from employee e, manager m \
                 where e.salary = 5 and m.salary = 7",
                2,
                1,
            ),
            (
                "select e from employee e during [1, 9] where e.salary = 5",
                1,
                1,
            ),
        ];
        for (src, preds, values) in covered {
            let p = plan_select(&sel(src));
            assert_eq!(p.index_preds.len(), preds, "{src}");
            assert_eq!(p.index_preds[0].values.len(), values, "{src}");
        }
        let uncovered = [
            // Not an equality.
            "select e from employee e where e.salary > 5",
            // Null literal: the index never stores nulls.
            "select e from employee e where e.salary = null",
            // OR over different attributes is not a membership probe.
            "select e from employee e where e.salary = 5 or e.grade = 1",
            // OR mixing `AT` instants.
            "select e from employee e where e.salary at 1 = 5 or e.salary = 5",
            // Quantified conjuncts scope over the whole binding.
            "select e from employee e where sometime(e.salary = 5)",
            // Two-variable equality is a join, not an index probe.
            "select e from employee e, manager m where e.salary = m.salary",
        ];
        for src in uncovered {
            let p = plan_select(&sel(src));
            assert!(p.index_preds.is_empty(), "{src}");
        }
    }

    #[test]
    fn single_variable_queries_keep_source_order_residuals() {
        let p = plan_select(&sel(
            "select e from employee e where e.grade > 1 and e.salary > 10",
        ));
        assert_eq!(p.pushdown_count(), 0);
        assert!(p.joins.is_empty());
        assert_eq!(p.residual.len(), 2);
        assert_eq!((p.residual[0].pos, p.residual[1].pos), (0, 1));
    }

    #[test]
    fn during_scope_never_hash_joins_and_keeps_full_filter() {
        let p = plan_select(&sel(
            "select e from employee e, manager m during [5, 20] \
             where e.grade > 1 and e.salary = m.salary",
        ));
        assert!(p.during);
        assert!(p.joins.is_empty());
        assert_eq!(p.prefilters[0].len(), 1);
        assert!(p.full_filter.is_some());
    }

    #[test]
    fn plan_cache_hits_and_schema_changes_invalidate() {
        let mut db = schema_db();
        let mut cache = PlanCache::new(8);
        let q = sel("select e from employee e where e.grade > 1");
        let (_, hit) = cache.get_or_plan(db.schema(), &q).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_plan(db.schema(), &q).unwrap();
        assert!(hit);
        assert_eq!(cache.len(), 1);
        // Any DDL bumps the schema generation and invalidates the entry.
        db.define_class(ClassDef::new("extra")).unwrap();
        let (_, hit) = cache.get_or_plan(db.schema(), &q).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_plan(db.schema(), &q).unwrap();
        assert!(hit);
    }

    #[test]
    fn plan_cache_evicts_least_recently_used() {
        let db = schema_db();
        let mut cache = PlanCache::new(2);
        let q1 = sel("select e from employee e");
        let q2 = sel("select e from employee e where e.grade > 1");
        let q3 = sel("select e from employee e where e.grade > 2");
        cache.get_or_plan(db.schema(), &q1).unwrap();
        cache.get_or_plan(db.schema(), &q2).unwrap();
        // Touch q1 so q2 is the LRU entry, then overflow with q3.
        cache.get_or_plan(db.schema(), &q1).unwrap();
        cache.get_or_plan(db.schema(), &q3).unwrap();
        assert_eq!(cache.len(), 2);
        let (_, hit) = cache.get_or_plan(db.schema(), &q1).unwrap();
        assert!(hit);
        let (_, hit) = cache.get_or_plan(db.schema(), &q2).unwrap();
        assert!(!hit, "q2 was least recently used and must be evicted");
        assert!(!cache.is_empty());
    }

    #[test]
    fn ill_typed_queries_are_not_cached() {
        let db = schema_db();
        let mut cache = PlanCache::new(8);
        let q = sel("select e from nosuch e");
        assert!(cache.get_or_plan(db.schema(), &q).is_err());
        assert!(cache.is_empty());
    }
}

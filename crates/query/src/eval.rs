//! TCQL query evaluation.

use std::fmt;

use tchimera_core::{
    Database, Instant, Interval, IntervalSet, ModelError, Oid, TimeBound, Value,
};

use crate::ast::{CmpOp, Expr, Projection, Select, TimeSpec};

/// A tabular query result.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct QueryResult {
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of values.
    pub rows: Vec<Vec<Value>>,
}

impl QueryResult {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows matched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Value::to_string).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        write!(f, "({} rows)", self.rows.len())
    }
}

/// A runtime evaluation error.
#[derive(Clone, PartialEq, Debug)]
pub enum EvalError {
    /// Propagated model error.
    Model(ModelError),
    /// A non-boolean value reached a boolean context (only possible when
    /// the static checker was bypassed).
    NotBoolean,
    /// The query's [`ExecBudget`](crate::governor::ExecBudget) ran out of
    /// `resource` (`DESIGN.md` §12).
    Budget {
        /// Which limit tripped.
        resource: crate::governor::Resource,
        /// Units spent when the limit tripped.
        spent: u64,
        /// The configured limit.
        limit: u64,
        /// Work done up to the stop (for diagnosis).
        progress: crate::governor::Progress,
    },
    /// The query's [`CancelToken`](crate::governor::CancelToken) fired.
    Cancelled {
        /// Work done up to the stop.
        progress: crate::governor::Progress,
    },
    /// An internal invariant the evaluator relies on did not hold. Never
    /// expected; reported instead of panicking so one broken query cannot
    /// take the engine down.
    Internal(String),
}

impl EvalError {
    pub(crate) fn internal(msg: impl Into<String>) -> EvalError {
        EvalError::Internal(msg.into())
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Model(e) => write!(f, "{e}"),
            EvalError::NotBoolean => write!(f, "non-boolean value in boolean context"),
            EvalError::Budget { resource, spent, limit, progress } => write!(
                f,
                "query budget exceeded: {resource} {spent} > limit {limit} (progress: {progress})"
            ),
            EvalError::Cancelled { progress } => {
                write!(f, "query cancelled (progress: {progress})")
            }
            EvalError::Internal(msg) => write!(f, "internal query error: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ModelError> for EvalError {
    fn from(e: ModelError) -> Self {
        EvalError::Model(e)
    }
}

/// One assignment of objects to the query's range variables.
pub type Binding = Vec<(String, Oid)>;

fn bound(binding: &Binding, var: &str) -> Oid {
    binding
        .iter()
        .find(|(v, _)| v == var)
        .expect("validated by the parser")
        .1
}

/// Every metric name the query crate records (see `DESIGN.md` §9).
pub const QUERY_METRICS: &[&str] = &[
    "query.eval",
    "query.eval.bindings",
    "query.eval.during",
    "query.eval.rows",
    "query.plan.pushdowns",
    "query.plan.hash_joins",
    "query.plan.partitions",
    "query.plan.cache.hit",
    "query.plan.cache.miss",
    "query.plan.index_scans",
    "query.plan.index_candidates",
    "query.plan.index_fallbacks",
    "query.governor.active",
    "query.governor.admitted",
    "query.governor.shed",
    "query.governor.budget_exceeded",
    "query.governor.cancelled",
    "query.panic.count",
    "query.replica.refused_writes",
];

/// Register every query metric (at zero) so snapshots always carry the
/// full documented vocabulary.
pub fn touch_metrics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let r = tchimera_obs::registry();
        r.histogram("query.eval");
        r.counter("query.eval.bindings");
        r.counter("query.eval.during");
        r.counter("query.eval.rows");
        r.counter("query.plan.pushdowns");
        r.counter("query.plan.hash_joins");
        r.counter("query.plan.partitions");
        r.counter("query.plan.cache.hit");
        r.counter("query.plan.cache.miss");
        r.counter("query.plan.index_scans");
        r.counter("query.plan.index_candidates");
        r.counter("query.plan.index_fallbacks");
        r.gauge("query.governor.active");
        r.counter("query.governor.admitted");
        r.counter("query.governor.shed");
        r.counter("query.governor.budget_exceeded");
        r.counter("query.governor.cancelled");
        r.counter("query.panic.count");
        r.counter("query.replica.refused_writes");
    });
}

/// Execute a type-checked `SELECT` against the database through the query
/// planner (`crate::plan` / `crate::exec`).
///
/// Multiple range variables form a cross product filtered by `WHERE`
/// (the join idiom: `… from employee e, manager m where e.boss = m`).
/// The planner pushes single-variable conjuncts down as per-variable
/// prefilters, turns two-variable equality conjuncts into hash joins and
/// evaluates only the surviving residual per binding — but the produced
/// rows are identical (including order) to [`eval_select_naive`].
///
/// Temporal scope semantics:
///
/// * default — each variable ranges over `π(c, now)`, evaluation at `now`;
/// * `AS OF t` — ranges over `π(c, t)`, evaluation at `t` (time travel);
/// * `DURING [a, b]` — ranges over objects that were members at *some*
///   instant of the window; the filter passes if it holds at some instant
///   of the window (existential, evaluated at the history event points of
///   all bound objects); attribute projections yield the value at the
///   window end (clamped to `now`), and `HISTORY OF` projections are
///   restricted to the window.
///
/// The whole evaluation runs under a `query.eval` span; the
/// `query.eval.bindings` / `query.eval.rows` counters tally per-stage
/// work and result size (`DESIGN.md` §9).
pub fn eval_select(db: &Database, q: &Select) -> Result<QueryResult, EvalError> {
    let plan = crate::plan::plan_select(q);
    crate::exec::execute_plan(db, &plan, &crate::exec::ExecOptions::default())
        .map(|(result, _stats)| result)
}

/// The reference evaluator: an odometer over the full cross product of
/// candidate extents, re-evaluating the whole `WHERE` per binding.
///
/// [`eval_select`] (the planner) must produce exactly the same rows in the
/// same order; the property tests in `tests/planner_props.rs` enforce
/// this. Kept public so benchmarks can measure the planner against it.
pub fn eval_select_naive(db: &Database, q: &Select) -> Result<QueryResult, EvalError> {
    touch_metrics();
    let _span = tchimera_obs::span!("query.eval", vars = q.vars.len());
    if matches!(q.time, TimeSpec::During(..)) {
        tchimera_obs::counter!("query.eval.during").inc();
    }
    let now = db.now();

    // Candidate oids per variable, and the evaluation window.
    let window: Interval = match q.time {
        TimeSpec::Now => Interval::point(now),
        TimeSpec::AsOf(t) => Interval::point(Instant(t)),
        TimeSpec::During(a, b) => Interval::new(Instant(a), Instant(b).min(now)),
    };
    let mut candidates: Vec<(String, Vec<Oid>)> = Vec::with_capacity(q.vars.len());
    for (class_id, var) in &q.vars {
        let class = db.schema().class(class_id)?;
        let oids = match q.time {
            TimeSpec::Now => class.ext_at(now, now),
            TimeSpec::AsOf(t) => class.ext_at(Instant(t), now),
            TimeSpec::During(a, b) => {
                class.ext_during(Instant(a), Instant(b), now)
            }
        };
        candidates.push((var.clone(), oids));
    }

    let mut result = QueryResult {
        columns: q
            .projections
            .iter()
            .map(|(v, p)| projection_name(p, v))
            .collect(),
        rows: Vec::new(),
    };

    let counting = matches!(q.projections.as_slice(), [(_, Projection::Count)]);
    let mut count = 0i64;
    // Rows carrying an ORDER BY key, sorted after the scan.
    let mut keyed: Vec<(Value, Vec<Value>)> = Vec::new();

    // Odometer over the cross product of candidate sets.
    let sizes: Vec<usize> = candidates.iter().map(|(_, c)| c.len()).collect();
    if sizes.contains(&0) || window.is_empty() {
        if counting {
            result.rows.push(vec![Value::Int(0)]);
        }
        return Ok(result);
    }
    let mut idx = vec![0usize; candidates.len()];
    // Tallied locally, published once: the odometer loop stays free of
    // atomics.
    let mut bindings_examined = 0u64;
    // One binding, reused: only the oid slots change per step (var name
    // strings are never re-cloned).
    let mut binding: Binding = candidates
        .iter()
        .map(|(v, oids)| (v.clone(), oids[0]))
        .collect();
    'product: loop {
        bindings_examined += 1;
        for (slot, ((_, oids), &k)) in
            binding.iter_mut().zip(candidates.iter().zip(idx.iter()))
        {
            slot.1 = oids[k];
        }

        // Filter.
        let pass = match &q.filter {
            None => true,
            Some(filter) => match q.time {
                TimeSpec::During(..) => {
                    // Existential over the window's event points of all
                    // bound objects.
                    event_points(db, &binding, window, now)
                        .into_iter()
                        .any(|t| {
                            eval_expr(db, &binding, t, now, filter)
                                .map(|v| v == Value::Bool(true))
                                .unwrap_or(false)
                        })
                }
                _ => {
                    let t = window
                        .lo()
                        .ok_or_else(|| EvalError::internal("empty point window"))?;
                    eval_expr(db, &binding, t, now, filter)? == Value::Bool(true)
                }
            },
        };
        if pass {
            if counting {
                count += 1;
            } else {
                let t_eval = window
                    .hi()
                    .ok_or_else(|| EvalError::internal("empty evaluation window"))?;
                let mut row = Vec::with_capacity(q.projections.len());
                for (v, p) in &q.projections {
                    row.push(eval_projection(db, bound(&binding, v), p, t_eval, window, q)?);
                }
                if let Some(order) = &q.order {
                    let key = eval_expr(
                        db,
                        &binding,
                        t_eval,
                        now,
                        &Expr::Attr(order.var.clone(), order.attr.clone()),
                    )?;
                    keyed.push((key, row));
                } else {
                    result.rows.push(row);
                }
            }
        }

        // Advance the odometer.
        let mut k = idx.len();
        loop {
            if k == 0 {
                break 'product;
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < sizes[k] {
                break;
            }
            idx[k] = 0;
        }
    }
    if counting {
        result.rows.push(vec![Value::Int(count)]);
    }
    if let Some(order) = &q.order {
        // A reversed comparator, not sort-then-reverse: the sort is stable,
        // so rows with equal keys keep their enumeration order in both
        // directions (reversing after sorting would flip the ties too).
        if order.desc {
            keyed.sort_by(|(a, _), (b, _)| b.cmp(a));
        } else {
            keyed.sort_by(|(a, _), (b, _)| a.cmp(b));
        }
        result.rows.extend(keyed.into_iter().map(|(_, row)| row));
    }
    if let Some(limit) = q.limit {
        result.rows.truncate(limit as usize);
    }
    tchimera_obs::counter!("query.eval.bindings").add(bindings_examined);
    tchimera_obs::counter!("query.eval.rows").add(result.rows.len() as u64);
    Ok(result)
}

pub(crate) fn projection_name(p: &Projection, var: &str) -> String {
    match p {
        Projection::Var => var.to_owned(),
        Projection::Attr(a) => format!("{var}.{a}"),
        Projection::HistoryOf(a) => format!("history of {var}.{a}"),
        Projection::SnapshotOf => format!("snapshot of {var}"),
        Projection::ClassOf => format!("class of {var}"),
        Projection::LifespanOf => format!("lifespan of {var}"),
        Projection::Count => format!("count({var})"),
    }
}

pub(crate) fn eval_projection(
    db: &Database,
    oid: Oid,
    p: &Projection,
    t: Instant,
    window: Interval,
    q: &Select,
) -> Result<Value, EvalError> {
    let now = db.now();
    Ok(match p {
        Projection::Var => Value::Oid(oid),
        Projection::Attr(a) => db.attr_at(oid, a, t)?,
        Projection::HistoryOf(a) => {
            let o = db.object(oid)?;
            match o.attr(a) {
                Some(Value::Temporal(h)) => {
                    if matches!(q.time, TimeSpec::During(..)) {
                        Value::Temporal(h.restrict(&IntervalSet::from(window), now))
                    } else {
                        Value::Temporal(h.clone())
                    }
                }
                Some(other) => other.clone(),
                None => Value::Null,
            }
        }
        Projection::SnapshotOf => db.snapshot(oid, t)?,
        Projection::ClassOf => {
            let o = db.object(oid)?;
            o.class_at(t, now)
                .map(|c| Value::str(c.as_str()))
                .unwrap_or(Value::Null)
        }
        // Count is handled by the caller (it aggregates over rows).
        Projection::Count => Value::Int(1),
        Projection::LifespanOf => {
            let o = db.object(oid)?;
            let end = match o.lifespan.end() {
                TimeBound::Fixed(e) => Value::Time(e),
                TimeBound::Now => Value::Null,
            };
            Value::record([
                ("start", Value::Time(o.lifespan.start())),
                ("end", end),
            ])
        }
    })
}

/// Evaluate an expression under a variable binding at instant `t`.
pub fn eval_expr(
    db: &Database,
    binding: &Binding,
    t: Instant,
    now: Instant,
    e: &Expr,
) -> Result<Value, EvalError> {
    Ok(match e {
        Expr::Lit(l) => l.to_value(),
        Expr::Var(v) => Value::Oid(bound(binding, v)),
        Expr::Attr(v, a) => db.attr_at(bound(binding, v), a, t)?,
        Expr::AttrAt(v, a, at) => db.attr_at(bound(binding, v), a, Instant(*at))?,
        Expr::Defined(inner) => {
            let v = eval_expr(db, binding, t, now, inner)?;
            Value::Bool(!v.is_null())
        }
        Expr::Cmp(op, l, r) => {
            let lv = eval_expr(db, binding, t, now, l)?;
            let rv = eval_expr(db, binding, t, now, r)?;
            Value::Bool(compare(*op, &lv, &rv))
        }
        Expr::And(l, r) => {
            let lv = as_bool(&eval_expr(db, binding, t, now, l)?)?;
            if !lv {
                Value::Bool(false)
            } else {
                Value::Bool(as_bool(&eval_expr(db, binding, t, now, r)?)?)
            }
        }
        Expr::Or(l, r) => {
            let lv = as_bool(&eval_expr(db, binding, t, now, l)?)?;
            if lv {
                Value::Bool(true)
            } else {
                Value::Bool(as_bool(&eval_expr(db, binding, t, now, r)?)?)
            }
        }
        Expr::Not(inner) => Value::Bool(!as_bool(&eval_expr(db, binding, t, now, inner)?)?),
        Expr::IsMember(v, c) => {
            let member = db
                .schema()
                .class(c)
                .map(|cl| cl.membership_of(bound(binding, v), now).contains(t))
                .unwrap_or(false);
            Value::Bool(member)
        }
        Expr::Always(inner) => {
            let scope = quantifier_scope(db, binding, t, now)?;
            let ok = event_points(db, binding, scope, now)
                .into_iter()
                .try_fold(true, |acc, tp| {
                    Ok::<bool, EvalError>(
                        acc && as_bool(&eval_expr(db, binding, tp, now, inner)?)?,
                    )
                })?;
            Value::Bool(ok)
        }
        Expr::Sometime(inner) => {
            let scope = quantifier_scope(db, binding, t, now)?;
            let mut ok = false;
            for tp in event_points(db, binding, scope, now) {
                if as_bool(&eval_expr(db, binding, tp, now, inner)?)? {
                    ok = true;
                    break;
                }
            }
            Value::Bool(ok)
        }
    })
}

/// The scope of `ALWAYS`/`SOMETIME`: the intersection of the bound
/// objects' lifespans, cut at the evaluation instant.
fn quantifier_scope(
    db: &Database,
    binding: &Binding,
    t: Instant,
    now: Instant,
) -> Result<Interval, EvalError> {
    let oids: Vec<Oid> = binding.iter().map(|(_, o)| *o).collect();
    quantifier_scope_oids(db, &oids, t, now)
}

/// [`quantifier_scope`] over a plain oid slice (the planner's compiled
/// bindings carry no variable names).
pub(crate) fn quantifier_scope_oids(
    db: &Database,
    oids: &[Oid],
    t: Instant,
    now: Instant,
) -> Result<Interval, EvalError> {
    let mut scope = Interval::new(Instant::ZERO, t);
    for oid in oids {
        scope = scope.intersect(db.object(*oid)?.lifespan.resolve(now));
    }
    Ok(scope)
}

pub(crate) fn as_bool(v: &Value) -> Result<bool, EvalError> {
    match v {
        Value::Bool(b) => Ok(*b),
        Value::Null => Ok(false),
        _ => Err(EvalError::NotBoolean),
    }
}

/// Three-valued-light comparison: `null = null` holds, `null` is never
/// ordered, values of different kinds are unequal and unordered.
pub(crate) fn compare(op: CmpOp, a: &Value, b: &Value) -> bool {
    use std::cmp::Ordering;
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Neq => a != b,
        _ => {
            if a.is_null() || b.is_null() {
                return false;
            }
            if std::mem::discriminant(a) != std::mem::discriminant(b) {
                return false;
            }
            let ord = a.cmp(b);
            match op {
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
                CmpOp::Eq | CmpOp::Neq => unreachable!(),
            }
        }
    }
}

/// The instants within `scope` at which the object's observable state can
/// change: the scope boundaries plus every run boundary of its temporal
/// attributes and class history. Expressions are piecewise-constant
/// between event points, so quantified evaluation needs only these.
fn event_points(db: &Database, binding: &Binding, scope: Interval, now: Instant) -> Vec<Instant> {
    let oids: Vec<Oid> = binding.iter().map(|(_, o)| *o).collect();
    event_points_oids(db, &oids, scope, now)
}

/// [`event_points`] over a plain oid slice.
pub(crate) fn event_points_oids(
    db: &Database,
    oids: &[Oid],
    scope: Interval,
    now: Instant,
) -> Vec<Instant> {
    let mut points = Vec::new();
    let (Some(lo), Some(hi)) = (scope.lo(), scope.hi()) else {
        return points;
    };
    points.push(lo);
    points.push(hi);
    for oid in oids {
        if let Ok(o) = db.object(*oid) {
            let mut add = |t: Instant| {
                if scope.contains(t) {
                    points.push(t);
                }
            };
            for v in o.attrs.values() {
                if let Value::Temporal(h) = v {
                    for e in h.entries() {
                        add(e.start);
                        add(e.end.resolve(now).next());
                    }
                }
            }
            for e in o.class_history.entries() {
                add(e.start);
                add(e.end.resolve(now).next());
            }
        }
    }
    points.sort();
    points.dedup();
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use tchimera_core::{attrs, Attrs, ClassDef, ClassId, Type};

    fn db() -> Database {
        let mut db = Database::new();
        db.define_class(ClassDef::new("person")).unwrap();
        db.define_class(
            ClassDef::new("employee")
                .isa("person")
                .attr("salary", Type::temporal(Type::INTEGER))
                .attr("grade", Type::INTEGER),
        )
        .unwrap();
        db.define_class(ClassDef::new("manager").isa("employee")).unwrap();
        db.advance_to(Instant(10)).unwrap();
        // e0: salary 100→150 (at 30), grade 1.
        // e1: salary 80, grade 2; becomes manager at 40.
        // e2: terminated at 50.
        let e0 = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("salary", Value::Int(100)), ("grade", Value::Int(1))]),
            )
            .unwrap();
        let e1 = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("salary", Value::Int(80)), ("grade", Value::Int(2))]),
            )
            .unwrap();
        let e2 = db
            .create_object(
                &ClassId::from("employee"),
                attrs([("salary", Value::Int(60)), ("grade", Value::Int(3))]),
            )
            .unwrap();
        db.advance_to(Instant(30)).unwrap();
        db.set_attr(e0, &"salary".into(), Value::Int(150)).unwrap();
        db.advance_to(Instant(40)).unwrap();
        db.migrate(e1, &ClassId::from("manager"), Attrs::new()).unwrap();
        db.advance_to(Instant(50)).unwrap();
        db.terminate_object(e2).unwrap();
        db.advance_to(Instant(60)).unwrap();
        db
    }

    fn run(db: &Database, src: &str) -> QueryResult {
        match parse(src).unwrap() {
            crate::ast::Stmt::Select(s) => eval_select(db, &s).unwrap(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn select_now_filters_and_projects() {
        let db = db();
        let r = run(&db, "select e, e.salary from employee e where e.salary >= 100");
        assert_eq!(r.columns, vec!["e", "e.salary"]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0], vec![Value::Oid(Oid(0)), Value::Int(150)]);
        // All current employees (e2 is dead at 60, e1 is a manager-member).
        let all = run(&db, "select e from employee e");
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn as_of_time_travel() {
        let db = db();
        // At t=20: e0 salary 100, e2 alive.
        let r = run(&db, "select e, e.salary from employee e as of 20");
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows[0][1], Value::Int(100));
        // At t=20 the salary filter sees historical values.
        let r = run(&db, "select e from employee e as of 20 where e.salary > 90");
        assert_eq!(r.len(), 1);
        // Before anything existed.
        let r = run(&db, "select e from employee e as of 5");
        assert!(r.is_empty());
    }

    #[test]
    fn during_window() {
        let db = db();
        // e2 existed within [15, 45].
        let r = run(&db, "select e from employee e during [15, 45]");
        assert_eq!(r.len(), 3);
        // Window after e2's death.
        let r = run(&db, "select e from employee e during [55, 60]");
        assert_eq!(r.len(), 2);
        // Existential filter: e0's salary was 100 at some point in window.
        let r = run(
            &db,
            "select e from employee e during [15, 45] where e.salary = 100",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Oid(Oid(0)));
        // History projection restricted to the window.
        let r = run(&db, "select history of e.salary from employee e during [20, 35] where e.salary = 150");
        assert_eq!(r.len(), 1);
        match &r.rows[0][0] {
            Value::Temporal(h) => {
                assert_eq!(h.value_at(Instant(20), Instant(60)), Some(&Value::Int(100)));
                assert_eq!(h.value_at(Instant(35), Instant(60)), Some(&Value::Int(150)));
                assert_eq!(h.value_at(Instant(36), Instant(60)), None);
                assert_eq!(h.value_at(Instant(19), Instant(60)), None);
            }
            other => panic!("expected history, got {other}"),
        }
    }

    #[test]
    fn attr_at_and_temporal_predicates() {
        let db = db();
        let r = run(&db, "select e from employee e where e.salary at 20 = 100");
        assert_eq!(r.len(), 1);
        let r = run(&db, "select e from employee e where sometime(e.salary = 100)");
        assert_eq!(r.len(), 1);
        let r = run(&db, "select e from employee e where always(e.salary >= 80)");
        assert_eq!(r.len(), 2);
        let r = run(&db, "select e from employee e where always(e.salary >= 100)");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn membership_predicate_and_class_of() {
        let db = db();
        let r = run(&db, "select e, class of e from employee e where e in manager");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][1], Value::str("manager"));
        // As of 20, e1 was not yet a manager.
        let r = run(&db, "select e from employee e as of 20 where e in manager");
        assert!(r.is_empty());
    }

    #[test]
    fn snapshot_and_lifespan_projections() {
        let db = db();
        let r = run(&db, "select snapshot of e, lifespan of e from employee e where e.grade = 1");
        assert_eq!(r.len(), 1);
        match &r.rows[0][0] {
            Value::Record(fs) => assert_eq!(fs.len(), 2),
            other => panic!("expected record, got {other}"),
        }
        assert_eq!(
            r.rows[0][1],
            Value::record([("start", Value::Time(Instant(10))), ("end", Value::Null)])
        );
    }

    #[test]
    fn null_semantics() {
        let mut db = db();
        let e3 = db
            .create_object(&ClassId::from("employee"), Attrs::new())
            .unwrap();
        db.tick();
        let r = run(&db, "select e from employee e where not defined(e.salary)");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Oid(e3));
        // null = null holds; null is not ordered.
        let r = run(&db, "select e from employee e where e.salary = null");
        assert_eq!(r.len(), 1);
        let r = run(&db, "select e from employee e where e.salary > null");
        assert!(r.is_empty());
    }

    #[test]
    fn display_table() {
        let db = db();
        let r = run(&db, "select e from employee e");
        let s = r.to_string();
        assert!(s.contains("(2 rows)"));
        assert!(s.starts_with("e\n"));
    }

    #[test]
    fn multi_variable_join() {
        let mut db = Database::new();
        db.define_class(tchimera_core::ClassDef::new("person")).unwrap();
        db.define_class(
            tchimera_core::ClassDef::new("staff")
                .isa("person")
                .attr("name", tchimera_core::Type::STRING)
                .attr(
                    "boss",
                    tchimera_core::Type::temporal(tchimera_core::Type::object("staff")),
                ),
        )
        .unwrap();
        db.advance_to(Instant(10)).unwrap();
        let boss = db
            .create_object(
                &tchimera_core::ClassId::from("staff"),
                tchimera_core::attrs([("name", Value::str("Boss"))]),
            )
            .unwrap();
        let a = db
            .create_object(
                &tchimera_core::ClassId::from("staff"),
                tchimera_core::attrs([("name", Value::str("Ann")), ("boss", Value::Oid(boss))]),
            )
            .unwrap();
        let b = db
            .create_object(
                &tchimera_core::ClassId::from("staff"),
                tchimera_core::attrs([("name", Value::str("Bob")), ("boss", Value::Oid(a))]),
            )
            .unwrap();
        db.advance_to(Instant(20)).unwrap();
        // Who reports to whom: join staff × staff on boss.
        let r = run(
            &db,
            "select e.name, m.name from staff e, staff m where e.boss = m",
        );
        assert_eq!(r.columns, vec!["e.name", "m.name"]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0], vec![Value::str("Ann"), Value::str("Boss")]);
        assert_eq!(r.rows[1], vec![Value::str("Bob"), Value::str("Ann")]);
        // Self pairs via bare-variable equality.
        let r = run(&db, "select e from staff e, staff m where e = m");
        assert_eq!(r.len(), 3);
        // Cross product without filter: 3 × 3 (via count).
        let r = run(&db, "select count(e) from staff e, staff m");
        assert_eq!(r.rows[0][0], Value::Int(9));
        // Transitive chain: Bob's boss's boss is Boss.
        let r = run(
            &db,
            "select e.name from staff e, staff m, staff t \
             where e.boss = m and m.boss = t and t.name = 'Boss'",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::str("Bob"));
        let _ = b;
    }

    #[test]
    fn join_respects_time_travel() {
        let mut db = Database::new();
        db.define_class(
            tchimera_core::ClassDef::new("emp")
                .attr("name", tchimera_core::Type::STRING)
                .attr(
                    "boss",
                    tchimera_core::Type::temporal(tchimera_core::Type::object("emp")),
                ),
        )
        .unwrap();
        db.advance_to(Instant(10)).unwrap();
        let x = db
            .create_object(
                &tchimera_core::ClassId::from("emp"),
                tchimera_core::attrs([("name", Value::str("X"))]),
            )
            .unwrap();
        let y = db
            .create_object(
                &tchimera_core::ClassId::from("emp"),
                tchimera_core::attrs([("name", Value::str("Y"))]),
            )
            .unwrap();
        let z = db
            .create_object(
                &tchimera_core::ClassId::from("emp"),
                tchimera_core::attrs([("name", Value::str("Z")), ("boss", Value::Oid(x))]),
            )
            .unwrap();
        db.advance_to(Instant(30)).unwrap();
        // Reorg: Z now reports to Y.
        db.set_attr(z, &"boss".into(), Value::Oid(y)).unwrap();
        db.advance_to(Instant(40)).unwrap();
        let r = run(&db, "select m.name from emp e, emp m where e.boss = m");
        assert_eq!(r.rows, vec![vec![Value::str("Y")]]);
        let r = run(&db, "select m.name from emp e, emp m as of 20 where e.boss = m");
        assert_eq!(r.rows, vec![vec![Value::str("X")]]);
        // DURING: both bosses appear somewhere in the window.
        let r = run(
            &db,
            "select m.name from emp e, emp m during [10, 40] where e.boss = m and e.name = 'Z'",
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn duplicate_range_variable_rejected() {
        assert!(crate::parser::parse("select e from a e, b e").is_err());
    }

    #[test]
    fn order_by_and_limit() {
        let db = db();
        // At now: e0 salary 150, e1 salary 80 (manager-member), e2 dead.
        let r = run(&db, "select e, e.salary from employee e order by e.salary");
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][1], Value::Int(80));
        assert_eq!(r.rows[1][1], Value::Int(150));
        // Descending.
        let r = run(&db, "select e.salary from employee e order by e.salary desc");
        assert_eq!(r.rows[0][0], Value::Int(150));
        // Limit.
        let r = run(
            &db,
            "select e.salary from employee e order by e.salary desc limit 1",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(150));
        // Limit without order keeps scan order.
        let r = run(&db, "select e from employee e limit 1");
        assert_eq!(r.len(), 1);
        // As-of ordering uses historical values (all three alive at 20).
        let r = run(
            &db,
            "select e.salary from employee e as of 20 order by e.salary",
        );
        assert_eq!(
            r.rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
            vec![Value::Int(60), Value::Int(80), Value::Int(100)]
        );
        // Static errors: unknown variable in ORDER BY; count + order.
        assert!(crate::parser::parse("select e from employee e order by q.salary").is_err());
        let q = match crate::parser::parse(
            "select count(e) from employee e order by e.salary",
        )
        .unwrap()
        {
            crate::ast::Stmt::Select(s) => s,
            _ => unreachable!(),
        };
        assert!(crate::typecheck::check_select(db.schema(), &q).is_err());
    }

    #[test]
    fn order_by_desc_keeps_tie_enumeration_order() {
        let mut db = Database::new();
        db.define_class(ClassDef::new("t").attr("k", Type::INTEGER)).unwrap();
        db.advance_to(Instant(1)).unwrap();
        for k in [2i64, 1, 2, 1, 2] {
            db.create_object(&ClassId::from("t"), attrs([("k", Value::Int(k))]))
                .unwrap();
        }
        db.tick();
        // DESC must order by key only: rows with equal keys keep their
        // ascending enumeration (oid) order — the old sort-then-reverse
        // flipped the ties too.
        let expect = |oids: [u64; 5]| -> Vec<Vec<Value>> {
            oids.iter().map(|&o| vec![Value::Oid(Oid(o))]).collect()
        };
        let r = run(&db, "select x from t x order by x.k desc");
        assert_eq!(r.rows, expect([0, 2, 4, 1, 3]));
        let r = run(&db, "select x from t x order by x.k");
        assert_eq!(r.rows, expect([1, 3, 0, 2, 4]));
        // The reference evaluator agrees.
        let q = match parse("select x from t x order by x.k desc").unwrap() {
            crate::ast::Stmt::Select(s) => s,
            _ => unreachable!(),
        };
        assert_eq!(eval_select_naive(&db, &q).unwrap().rows, expect([0, 2, 4, 1, 3]));
    }
}

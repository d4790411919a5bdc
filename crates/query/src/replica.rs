//! A read-only TCQL session for replica databases.
//!
//! A log-shipping follower (see `tchimera-storage`'s `repl` module)
//! holds a database it must never mutate directly: every change arrives
//! through the replicated log, or the follower's state digest diverges
//! from the primary's. [`ReplicaSession`] is the query front door that
//! enforces this at the language level — it runs the read-only subset
//! of TCQL (`SELECT`, `EXPLAIN`, `SHOW CLASS`, `COMPARE`, and the
//! `CHECK …` family) under the same governor as the primary's
//! [`Interpreter`](crate::Interpreter), and refuses every mutating
//! statement with [`QueryError::ReadOnly`] before it touches the model.
//!
//! Unlike the interpreter, the session does not own its database: the
//! follower's state advances between statements as frames apply, so the
//! caller passes the current view (typically obtained from the
//! replica's staleness-bounded `read_view`) per call.

use tchimera_core::Database;

use crate::ast::Stmt;
use crate::governor::{CancelToken, ExecBudget};
use crate::interp::{constraint_of, describe_class, governed_query, Outcome, QueryError};
use crate::parser::{parse, parse_script};
use crate::plan::PlanCache;

/// A governed, read-only TCQL session over databases it does not own.
///
/// Carries the same per-session state as an
/// [`Interpreter`](crate::Interpreter) — a plan cache and an
/// [`ExecBudget`] — but executes only statements that cannot modify the
/// database. Mutating statements (DDL, DML, clock movement) fail with
/// [`QueryError::ReadOnly`] without touching the database at all.
#[derive(Default)]
pub struct ReplicaSession {
    plans: PlanCache,
    budget: ExecBudget,
}

impl ReplicaSession {
    /// A fresh session with the default query budget.
    #[must_use]
    pub fn new() -> ReplicaSession {
        ReplicaSession::default()
    }

    /// The budget governing each query this session runs.
    pub fn budget(&self) -> &ExecBudget {
        &self.budget
    }

    /// Replace the per-query budget (applies to subsequent statements).
    pub fn set_budget(&mut self, budget: ExecBudget) {
        self.budget = budget;
    }

    /// The cancellation token attached to this session's queries; not
    /// auto-reset, so call [`CancelToken::reset`] before reuse.
    pub fn cancel_token(&self) -> CancelToken {
        self.budget.cancel.clone()
    }

    /// Parse, type-check and execute a single read-only statement
    /// against `db`.
    pub fn run(&mut self, db: &Database, src: &str) -> Result<Outcome, QueryError> {
        let stmt = parse(src)?;
        self.execute(db, stmt)
    }

    /// Run a `;`-separated script of read-only statements, stopping at
    /// the first error.
    pub fn run_script(&mut self, db: &Database, src: &str) -> Result<Vec<Outcome>, QueryError> {
        let stmts = parse_script(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.execute(db, stmt)?);
        }
        Ok(out)
    }

    /// Execute a parsed statement, refusing anything mutating.
    pub fn execute(&mut self, db: &Database, stmt: Stmt) -> Result<Outcome, QueryError> {
        if let Some(kind) = mutating_kind(&stmt) {
            tchimera_obs::counter!("query.replica.refused_writes").inc();
            return Err(QueryError::ReadOnly { stmt: kind });
        }
        Ok(match stmt {
            Stmt::Select(q) => {
                let (plan, _hit) = self.plans.get_or_plan(db.schema(), &q)?;
                let (table, _stats) = governed_query(db, &self.budget, &plan)?;
                Outcome::Table(table)
            }
            Stmt::Explain(q) => {
                let (plan, hit) = self.plans.get_or_plan(db.schema(), &q)?;
                let (_table, stats) = governed_query(db, &self.budget, &plan)?;
                Outcome::Explain(crate::plan::render_explain(&plan, &stats, hit))
            }
            Stmt::ShowClass(c) => Outcome::ClassInfo(describe_class(db, &c)?),
            Stmt::Compare { a, b } => Outcome::Equality(
                db.strongest_equality(tchimera_core::Oid(a), tchimera_core::Oid(b))?,
            ),
            Stmt::CheckConstraint(spec) => {
                Outcome::Constraint(db.check_constraint(&constraint_of(spec)))
            }
            Stmt::CheckConsistency => Outcome::Consistency(db.check_database()),
            Stmt::CheckInvariants => Outcome::Invariants(db.check_invariants()),
            // Replica scrubbing runs at the storage layer (the follower's
            // `scrub_cycle` with ScrubPull escalation), so no TCQL-level
            // cycle is ever recorded here — status still reports the
            // live quarantine set.
            Stmt::ScrubStatus => {
                Outcome::Scrub(crate::interp::render_scrub_status(None, db))
            }
            // `mutating_kind` covered everything else.
            _ => unreachable!("mutating statement slipped past the whitelist"),
        })
    }
}

/// `Some(kind)` if the statement would mutate the database.
fn mutating_kind(stmt: &Stmt) -> Option<&'static str> {
    match stmt {
        Stmt::DefineClass(_) => Some("DEFINE CLASS"),
        Stmt::DropClass(_) => Some("DROP CLASS"),
        Stmt::Create { .. } => Some("CREATE"),
        Stmt::Set { .. } => Some("SET"),
        Stmt::SetCAttr { .. } => Some("SET CLASS ATTRIBUTE"),
        Stmt::Migrate { .. } => Some("MIGRATE"),
        Stmt::Terminate { .. } => Some("TERMINATE"),
        Stmt::Tick(_) => Some("TICK"),
        Stmt::AdvanceTo(_) => Some("ADVANCE TO"),
        // A scrub repairs derived structures in place — a mutation the
        // follower must receive through the storage-layer ladder, never
        // through the query front door.
        Stmt::ScrubNow => Some("SCRUB NOW"),
        Stmt::Select(_)
        | Stmt::Explain(_)
        | Stmt::ShowClass(_)
        | Stmt::Compare { .. }
        | Stmt::CheckConstraint(_)
        | Stmt::CheckConsistency
        | Stmt::CheckInvariants
        | Stmt::ScrubStatus => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interpreter;

    fn populated() -> Database {
        let mut interp = Interpreter::new();
        interp
            .run_script(
                "define class person (name: temporal(string) immutable, address: string); \
                 define class employee under person (salary: temporal(integer)); \
                 advance to 10; \
                 create employee (name := 'Bob', address := 'Milano', salary := 100); \
                 tick 10; \
                 set #0.salary := 150",
            )
            .unwrap();
        std::mem::take(interp.db_mut())
    }

    #[test]
    fn read_only_statements_run() {
        let db = populated();
        let mut s = ReplicaSession::new();
        match s.run(&db, "select e, e.salary from employee e where e.salary > 120") {
            Ok(Outcome::Table(t)) => assert_eq!(t.len(), 1),
            other => panic!("expected rows, got {other:?}"),
        }
        assert!(matches!(
            s.run(&db, "explain select e from employee e"),
            Ok(Outcome::Explain(_))
        ));
        assert!(matches!(s.run(&db, "show class employee"), Ok(Outcome::ClassInfo(_))));
        match s.run(&db, "check consistency") {
            Ok(Outcome::Consistency(r)) => assert!(r.is_consistent()),
            other => panic!("expected consistency report, got {other:?}"),
        }
        assert!(matches!(s.run(&db, "check invariants"), Ok(Outcome::Invariants(_))));
        assert!(matches!(s.run(&db, "compare #0 #0"), Ok(Outcome::Equality(Some(_)))));
    }

    #[test]
    fn every_mutating_statement_is_refused_without_touching_the_db() {
        let db = populated();
        let before = db.digest_from_scratch();
        let mut s = ReplicaSession::new();
        for src in [
            "define class dept (budget: integer)",
            "drop class employee",
            "create employee (name := 'Eve', address := 'Roma', salary := 1)",
            "set #0.salary := 999",
            "migrate #0 to person",
            "terminate #0",
            "tick 5",
            "advance to 99",
        ] {
            match s.run(&db, src) {
                Err(QueryError::ReadOnly { .. }) => {}
                other => panic!("{src:?}: expected ReadOnly refusal, got {other:?}"),
            }
        }
        // The same observable state: the refusals never reached the model.
        assert_eq!(db.digest_from_scratch(), before);
    }

    #[test]
    fn scripts_stop_at_the_first_write() {
        let db = populated();
        let mut s = ReplicaSession::new();
        let err = s
            .run_script(&db, "check consistency; tick 1; check invariants")
            .unwrap_err();
        assert!(matches!(err, QueryError::ReadOnly { stmt: "TICK" }));
    }

    #[test]
    fn scrub_now_is_refused_but_status_serves() {
        let db = populated();
        let mut s = ReplicaSession::new();
        let err = s.run(&db, "scrub now").unwrap_err();
        assert!(matches!(err, QueryError::ReadOnly { stmt: "SCRUB NOW" }));
        match s.run(&db, "scrub status") {
            Ok(Outcome::Scrub(out)) => {
                assert!(out.contains("quarantine: empty"), "{out}");
            }
            other => panic!("expected scrub status, got {other:?}"),
        }
    }
}

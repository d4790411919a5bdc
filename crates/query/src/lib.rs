//! # tchimera-query
//!
//! **TCQL** — a typed temporal query, DDL and DML language for the
//! T_Chimera data model. The paper (Bertino, Ferrari, Guerrini — EDBT
//! 1996) lists "issues related to the query language and its typing" as
//! future work (Section 7); TCQL supplies a concrete design built on the
//! paper's own machinery: the type system of Section 3, the model
//! functions of Table 3 and the subtyping of Section 6.
//!
//! ```text
//! define class employee under person (salary: temporal(integer));
//! advance to 10;
//! create employee (salary := 100);
//! tick 10;
//! set #0.salary := 150;
//! select e, e.salary from employee e where sometime(e.salary = 100);
//! select snapshot of e from employee e as of 15;
//! select history of e.salary from employee e during [10, 20];
//! check consistency;
//! ```
//!
//! Pipeline: [`parser`] → [`typecheck`] → [`eval`], orchestrated by
//! [`Interpreter`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod eval;
pub mod exec;
pub mod governor;
pub mod interp;
pub mod parser;
pub mod plan;
pub mod replica;
pub mod token;
pub mod typecheck;

pub use ast::{CmpOp, Expr, Literal, Projection, Select, Stmt, TimeSpec};
pub use eval::{
    eval_select, eval_select_naive, touch_metrics, EvalError, QueryResult, QUERY_METRICS,
};
pub use exec::{execute_plan, ExecOptions, ExecStats};
pub use governor::{CancelToken, ExecBudget, Progress, Resource};
pub use interp::{Interpreter, Outcome, QueryError};
pub use parser::{parse, parse_script, ParseError, ParseErrorKind};
pub use plan::{plan_select, render_explain, IndexPred, PlanCache, PlannedQuery};
pub use replica::ReplicaSession;
pub use typecheck::{check_select, TypeError};

//! `tcql` — an interactive shell (and script runner) for TCQL.
//!
//! ```text
//! tcql                 # interactive REPL on an in-memory database
//! tcql script.tcql     # run a script file, print each outcome
//! ```
//!
//! Queries run under the resource governor (`DESIGN.md` §12); the
//! default budget can be tuned per session:
//!
//! ```text
//! tcql --max-bindings N --max-rows N --max-bytes N --max-cost N
//! tcql --unlimited     # lift every limit (cancellation still works)
//! ```

#![forbid(unsafe_code)]

use std::io::{BufRead, Write};

use tchimera_query::{ExecBudget, Interpreter, Outcome};

fn usage() -> ! {
    eprintln!(
        "usage: tcql [--max-bindings N] [--max-rows N] [--max-bytes N] \
         [--max-cost N] [--unlimited] [script.tcql]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut interp = Interpreter::new();

    let mut budget = ExecBudget::default();
    let mut script: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut limit = |slot: &mut u64| match it.next().and_then(|v| v.parse().ok()) {
            Some(n) => *slot = n,
            None => usage(),
        };
        match arg.as_str() {
            "--max-bindings" => limit(&mut budget.max_bindings),
            "--max-rows" => limit(&mut budget.max_rows),
            "--max-bytes" => limit(&mut budget.max_bytes),
            "--max-cost" => limit(&mut budget.max_cost),
            "--unlimited" => budget = ExecBudget::unlimited(),
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ if script.is_none() => script = Some(arg),
            _ => usage(),
        }
    }
    interp.set_budget(budget);

    if let Some(path) = script {
        let src = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        match interp.run_script(&src) {
            Ok(outcomes) => {
                for o in outcomes {
                    println!("{o}");
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!("TCQL shell — T_Chimera temporal object-oriented database");
    println!("type statements ending with `;`, or `quit;` to exit\n");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("tcql> ");
        } else {
            print!("  ... ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        buffer.push_str(&line);
        if !buffer.trim_end().ends_with(';') {
            continue;
        }
        let stmt = buffer.trim().trim_end_matches(';').trim().to_owned();
        buffer.clear();
        if stmt.is_empty() {
            continue;
        }
        if stmt.eq_ignore_ascii_case("quit") || stmt.eq_ignore_ascii_case("exit") {
            break;
        }
        match interp.run(&stmt) {
            Ok(Outcome::Ok) => println!("ok (now = {})", interp.db().now()),
            Ok(o) => println!("{o}"),
            Err(e) => println!("error: {e}"),
        }
    }
}

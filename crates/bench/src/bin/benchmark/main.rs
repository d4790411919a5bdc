//! `benchmark` — the one benchmark driver for T_Chimera.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result:
//!     {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
//!     --trace 0: every end-to-end metric, measured with tracing off
//!     --trace 1: every per-layer metric, from a traced run
//! benchmark [--seed n] [--seconds s] [--runs k] [--workload name] [--out file]
//!     everything: each workload untraced (k runs) then traced, each run
//!     in a process of its own; one report (JSON) on stdout or in `file`
//! benchmark compare A.json B.json [--same-code]
//!     apply the bounds to two reports; non-zero exit on a regression
//! benchmark manifest
//!     print BENCHMARK.json as the metric tables define it
//! ```
//!
//! See `README.md` beside this file for what is measured and why.

mod counting;
mod exec;
mod gen;
mod json;
mod metrics;
mod phases;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Json;

/// `--seconds` when none is given: the `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 15;

/// Command-line options after the (optional) subcommand.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    runs: usize,
    out: Option<String>,
    spans: Option<String>,
    same_code: bool,
    positional: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        runs: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".to_owned());
                }
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--runs" => {
                a.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if a.runs == 0 || a.runs > 100 {
                    return Err("--runs must be between 1 and 100".to_owned());
                }
            }
            "--out" => a.out = Some(value("a file")?),
            "--spans" => a.spans = Some(value("a file")?),
            "--same-code" => a.same_code = true,
            s if s.starts_with("--") => return Err(format!("unknown option {s}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

/// Peak resident set of this process in MB (`VmHWM`). One process runs
/// one workload and one pass, so the high-water mark belongs to it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One run of one workload: the mode the acceptance driver calls.
fn single_run(a: &Args, traced: bool) -> Result<ExitCode, String> {
    let name = a.workload.as_deref().ok_or("--trace needs --workload")?;
    let all = workloads::workloads();
    let w = all.iter().find(|w| w.name == name).ok_or_else(|| {
        format!(
            "unknown workload {name}; known: {}",
            all.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
        )
    })?;
    let (c, t) = workloads::run(w, a.seed, a.seconds, traced)?;
    let (values, table) = match &t {
        Some(t) => (workloads::per_layer(&c, t), metrics::PER_LAYER),
        None => (
            workloads::end_to_end(
                &c,
                peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
            ),
            metrics::END_TO_END,
        ),
    };
    if let (Some(t), Some(file)) = (&t, &a.spans) {
        std::fs::write(file, trace::spans_json(t.tracer.spans()).to_pretty())
            .map_err(|e| format!("{file}: {e}"))?;
    }
    for e in &c.tally.errors {
        eprintln!("failed: {e}");
    }
    let metrics = values.to_json(table)?;
    let correct = c.tally.failed == 0;
    // A detail line first (for the report mode and for people), then the
    // result as the last line.
    println!(
        "{}",
        Json::obj([("detail", report::detail(w, a.seed, a.seconds, traced, &c))]).to_line()
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(c.tally.attempted as f64)),
            ("failed", Json::Num(c.tally.failed as f64)),
            ("metrics", metrics),
        ])
        .to_line()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => {
            let a = parse_args(&argv[1..])?;
            let [base, new] = a.positional.as_slice() else {
                return Err("usage: benchmark compare A.json B.json [--same-code]".to_owned());
            };
            report::compare(base, new, a.same_code)
        }
        Some("manifest") => {
            print!("{}", report::manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let a = parse_args(&argv)?;
            if let Some(stray) = a.positional.first() {
                return Err(format!("unexpected argument {stray}"));
            }
            match a.trace {
                Some(traced) => single_run(&a, traced),
                None => report::run_all(&a.workload, a.seed, a.seconds, a.runs, a.out.as_deref()),
            }
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = args("--workload repl_ship --seed 42 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("repl_ship"), 42, 12.0, Some(true))
        );
        let d = args("").unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.runs),
            (1, f64::from(RUN_SECONDS), None, 1)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--seconds 1e9",
            "--runs 0",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be refused");
        }
    }

    #[test]
    fn peak_rss_reads_as_a_positive_number() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 1.0));
    }
}

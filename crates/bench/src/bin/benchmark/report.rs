//! Everything around a single run: the detail and environment blocks,
//! the all-workloads report (each run in a process of its own), the
//! `compare` gate and the `BENCHMARK.json` manifest.

use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Json};
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::{self, Collected, Workload};

fn num(n: impl Into<f64>) -> Json {
    Json::Num(n.into())
}

/// What a run did, beyond its metrics: final operation counts, sample
/// counts behind every percentile and median, the first failures.
pub fn detail(w: &Workload, seed: u64, seconds: f64, traced: bool, c: &Collected) -> Json {
    let mix = |m: &crate::gen::Mix| Json::obj(m.0.iter().map(|(k, n)| (k.name(), num(*n as f64))));
    Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("trace", Json::Bool(traced)),
        (
            "loop",
            Json::str("closed loop, one client, one driver thread"),
        ),
        ("flush_policy", Json::str("fsync per acknowledged write")),
        (
            "filesystem",
            Json::str(if w.on_disk {
                fs_type_of_work_dir()
            } else {
                "SimFs (in memory)".to_owned()
            }),
        ),
        ("rounds", num(c.rounds as f64)),
        ("read_gate_s", num(c.gate_s)),
        (
            "op_counts",
            Json::obj([
                ("base_objects", num(w.base.objects as f64)),
                ("base_update_rounds", num(w.base.updates as f64)),
                ("main_statements_per_round", mix(&w.main.stmts)),
                ("guard_statements", mix(&w.guard.stmts)),
                (
                    "main_catchup_reps_per_round",
                    num(w.main.catchup_reps as f64),
                ),
                (
                    "main_lifecycle_reps_per_round",
                    num(w.main.lifecycle_reps as f64),
                ),
                ("guard_catchup_reps", num(w.guard.catchup_reps as f64)),
                ("guard_lifecycle_reps", num(w.guard.lifecycle_reps as f64)),
                ("log_ops_replayed", num(c.life.replayed_ops as f64)),
                ("log_bytes", num(c.life.log_bytes as f64)),
                ("snapshot_bytes", num(c.life.snapshot_bytes as f64)),
                ("user_bytes", num(c.life.user_bytes as f64)),
            ]),
        ),
        (
            "sample_counts",
            Json::obj([
                ("setup_s", num(c.setups_s.len() as f64)),
                ("write_latency", num(c.latencies_ns(true).len() as f64)),
                ("read_latency", num(c.latencies_ns(false).len() as f64)),
                ("catchup_s", num(c.catchup_s.len() as f64)),
                ("recover_full_s", num(c.life.recover_full_s.len() as f64)),
                ("recover_snap_s", num(c.life.recover_snap_s.len() as f64)),
                ("checkpoint_s", num(c.life.checkpoint_s.len() as f64)),
                ("scrub_s", num(c.life.scrub_s.len() as f64)),
            ]),
        ),
        (
            "errors",
            Json::Arr(c.tally.errors.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

/// Filesystem type under the work directory: the longest mount point in
/// `/proc/mounts` that is a prefix of it.
fn fs_type_of_work_dir() -> String {
    let dir = workloads::work_root();
    let abs = std::env::current_dir()
        .map(|cwd| cwd.join(&dir))
        .unwrap_or(dir);
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount).then(|| (mount.len(), ty.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, ty)| ty)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// Where and with what the numbers were taken.
fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("nproc", num(nproc as f64)),
        // The driver depends on the program crates with their default
        // features; the executor reports whether `rayon` is compiled in.
        (
            "cargo_features",
            Json::obj([(
                "rayon",
                Json::Bool(tchimera_query::ExecOptions::default().parallel),
            )]),
        ),
        ("filesystem", Json::str(fs_type_of_work_dir())),
        ("flush_policy", Json::str("fsync per acknowledged write")),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// `BENCHMARK.json`, from the metric tables and the workload table.
pub fn manifest() -> Json {
    let metric = |d: &MetricDef, with_bound: bool| {
        let mut m = vec![
            ("name".to_owned(), Json::str(d.name)),
            ("unit".to_owned(), Json::str(d.unit)),
            ("better".to_owned(), Json::str(d.better.as_str())),
        ];
        if with_bound {
            m.push(("bound".to_owned(), num(d.bound)));
        }
        Json::Obj(m)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "crates/bench/src/bin/benchmark/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        (
            "paths",
            Json::Arr(vec![Json::str("crates/bench/src/bin/benchmark")]),
        ),
        ("run_seconds", num(crate::RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::workloads()
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}

/// Run this executable again for one workload and one pass, wait for it,
/// and parse the two JSON lines it ends with.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: no result line (exit {})", out.status))?;
    let detail = lines
        .next()
        .ok_or_else(|| format!("{workload}: no detail line"))?;
    let result = json::parse(result).map_err(|e| format!("{workload}: result line: {e}"))?;
    let detail = json::parse(detail).map_err(|e| format!("{workload}: detail line: {e}"))?;
    Ok((result, detail.get("detail").cloned().unwrap_or(Json::Null)))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// All workloads (or one), `runs` untraced runs and one traced run each,
/// every run in a process of its own so that peak memory belongs to it.
pub fn run_all(
    only: &Option<String>,
    seed: u64,
    seconds: f64,
    runs: usize,
    out: Option<&str>,
) -> Result<ExitCode, String> {
    let mut rows = Vec::new();
    let mut all_correct = true;
    for w in workloads::workloads()
        .iter()
        .filter(|w| only.as_deref().map_or(true, |o| o == w.name))
    {
        eprintln!("== {} ==", w.name);
        let mut untraced = Vec::new();
        for k in 0..runs {
            eprintln!("   untraced run {}/{runs}", k + 1);
            untraced.push(child_run(w.name, seed, seconds, false)?);
        }
        eprintln!("   traced run");
        let (traced, traced_detail) = child_run(w.name, seed, seconds, true)?;
        let results: Vec<&Json> = untraced.iter().map(|(r, _)| r).chain([&traced]).collect();
        let count = |key: &str| {
            results
                .iter()
                .filter_map(|r| r.get(key)?.as_f64())
                .sum::<f64>()
        };
        let correct = results
            .iter()
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        all_correct &= correct;

        let mut e2e = Vec::new();
        eprintln!(
            "   {:<28} {:>14} {:<6} {:>8}  (median of {runs} run(s), tracing off)",
            "end-to-end metric", "value", "unit", "spread"
        );
        for def in END_TO_END {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|(r, _)| metric_value(r, def.name))
                .collect();
            let m = median(&values)
                .ok_or_else(|| format!("{}: {} missing from the result", w.name, def.name))?;
            let s = spread(&values);
            eprintln!(
                "   {:<28} {:>14.4} {:<6} {:>8}",
                def.name,
                m,
                def.unit,
                s.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0))
            );
            e2e.push((
                def.name.to_owned(),
                Json::obj([
                    ("unit", Json::str(def.unit)),
                    ("better", Json::str(def.better.as_str())),
                    ("bound", num(def.bound)),
                    ("median", num(m)),
                    ("spread", s.map_or(Json::Null, num)),
                    ("runs", Json::Arr(values.into_iter().map(num).collect())),
                ]),
            ));
        }
        let mut layers = Vec::new();
        eprintln!(
            "   {:<52} {:>16} {:<6}  (one traced run of the main part)",
            "per-layer metric", "value", "unit"
        );
        for def in PER_LAYER {
            let value = metric_value(&traced, def.name).ok_or_else(|| {
                format!("{}: {} missing from the traced result", w.name, def.name)
            })?;
            eprintln!("   {:<52} {:>16.6} {:<6}", def.name, value, def.unit);
            layers.push((
                def.name.to_owned(),
                Json::obj([("unit", Json::str(def.unit)), ("value", num(value))]),
            ));
        }
        let wall = metric_value(&traced, "driver.traced_wall_s").unwrap_or(0.0);
        let driver = metric_value(&traced, "driver.self_s").unwrap_or(0.0);
        let attributed = if wall > 0.0 {
            (1.0 - driver / wall) * 100.0
        } else {
            0.0
        };
        eprintln!("   layer self times cover {attributed:.1}% of the traced wall time; attempted {} failed {}", count("attempted"), count("failed"));
        rows.push(Json::obj([
            ("name", Json::str(w.name)),
            ("why", Json::str(w.why)),
            ("correct", Json::Bool(correct)),
            ("attempted", num(count("attempted"))),
            ("failed", num(count("failed"))),
            ("layer_self_share_pct", num(attributed)),
            ("end_to_end", Json::Obj(e2e)),
            ("per_layer", Json::Obj(layers)),
            (
                "detail",
                untraced.last().map_or(Json::Null, |(_, d)| d.clone()),
            ),
            ("traced_detail", traced_detail),
        ]));
    }
    if rows.is_empty() {
        return Err(format!(
            "unknown workload {}",
            only.as_deref().unwrap_or("")
        ));
    }
    let report = Json::obj([
        ("schema", Json::str("tchimera-benchmark/1")),
        ("environment", environment()),
        ("seed", num(seed as f64)),
        ("seconds", num(seconds)),
        ("runs", num(runs as f64)),
        ("workloads", Json::Arr(rows)),
    ]);
    match out {
        Some(file) => {
            std::fs::write(file, report.to_pretty()).map_err(|e| format!("{file}: {e}"))?
        }
        None => print!("{}", report.to_pretty()),
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Worse by more than the bound, but the run-to-run spread is wider
    /// than the bound: the difference cannot be told from noise.
    Unresolved,
}

/// By what share of `base` is `new` worse (negative: better)?
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

pub fn judge(better: Better, bound: f64, base: f64, new: f64, spread: Option<f64>) -> Verdict {
    if worse_by(better, base, new) <= bound {
        Verdict::Ok
    } else if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

fn load(file: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let report = json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
    if report.get("schema").and_then(Json::as_str) != Some("tchimera-benchmark/1") {
        return Err(format!("{file}: not a benchmark report"));
    }
    Ok(report)
}

fn workload<'a>(report: &'a Json, name: &str) -> Option<&'a Json> {
    report
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// Compare report `new` against report `base`: per metric and workload
/// the base, the new value, their ratio, the bound and a verdict. With
/// `same_code` the two reports claim to be the same commit and seed, so
/// every exact count of the traced pass must be identical as well.
pub fn compare(base_file: &str, new_file: &str, same_code: bool) -> Result<ExitCode, String> {
    let (base, new) = (load(base_file)?, load(new_file)?);
    let mut regressed = 0;
    let mut unresolved = 0;
    println!(
        "{:<20} {:<28} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let names: Vec<&str> = base
        .get("workloads")
        .and_then(Json::as_arr)
        .map_or(Vec::new(), |ws| {
            ws.iter().filter_map(|w| w.get("name")?.as_str()).collect()
        });
    for name in names {
        let (Some(b), Some(n)) = (workload(&base, name), workload(&new, name)) else {
            println!("{name:<20} missing from {new_file}");
            regressed += 1;
            continue;
        };
        if n.get("correct") != Some(&Json::Bool(true)) {
            println!(
                "{name:<20} {:<28} failed its correctness checks in {new_file}",
                "-"
            );
            regressed += 1;
        }
        for def in END_TO_END {
            let field = |r: &Json, f: &str| r.get("end_to_end")?.get(def.name)?.get(f)?.as_f64();
            let (Some(bv), Some(nv)) = (field(b, "median"), field(n, "median")) else {
                println!("{name:<20} {:<28} missing", def.name);
                regressed += 1;
                continue;
            };
            let spread = [field(b, "spread"), field(n, "spread")]
                .into_iter()
                .flatten()
                .reduce(f64::max);
            let verdict = judge(def.better, def.bound, bv, nv, spread);
            match verdict {
                Verdict::Ok => {}
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            let word = match verdict {
                Verdict::Ok => "ok".to_owned(),
                Verdict::Regressed => "regressed".to_owned(),
                Verdict::Unresolved => format!(
                    "unresolved (spread {:.1}% > bound)",
                    spread.unwrap_or(0.0) * 100.0
                ),
            };
            println!(
                "{name:<20} {:<28} {bv:>14.4} {nv:>14.4} {:>8.3} {:>5.0}%  {word}",
                def.name,
                nv / bv,
                def.bound * 100.0
            );
        }
        if same_code {
            for def in PER_LAYER.iter().filter(|d| {
                matches!(d.unit, "count" | "bytes")
                    || d.name.ends_with("scanned_ops_per_shipped_op")
            }) {
                let value = |r: &Json| r.get("per_layer")?.get(def.name)?.get("value")?.as_f64();
                if value(b) != value(n) {
                    println!(
                        "{name:<20} {:<28} {:>14?} {:>14?}  exact count differs: regressed",
                        def.name,
                        value(b),
                        value(n)
                    );
                    regressed += 1;
                }
            }
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_in_the_right_direction() {
        use Better::{Higher, Lower};
        assert_eq!(judge(Lower, 0.10, 100.0, 109.0, None), Verdict::Ok);
        assert_eq!(judge(Lower, 0.10, 100.0, 111.0, None), Verdict::Regressed);
        assert_eq!(judge(Lower, 0.10, 100.0, 50.0, None), Verdict::Ok);
        assert_eq!(judge(Higher, 0.10, 100.0, 91.0, None), Verdict::Ok);
        assert_eq!(judge(Higher, 0.10, 100.0, 89.0, None), Verdict::Regressed);
        assert_eq!(judge(Higher, 0.10, 100.0, 300.0, None), Verdict::Ok);
        // Worse than the bound, but the spread is wider than the bound.
        assert_eq!(
            judge(Lower, 0.10, 100.0, 120.0, Some(0.15)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Lower, 0.10, 100.0, 120.0, Some(0.05)),
            Verdict::Regressed
        );
        assert!((worse_by(Higher, 200.0, 150.0) - 0.25).abs() < 1e-12);
    }

    /// The committed `BENCHMARK.json` is exactly what the tables say.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let file = loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                break candidate;
            }
            assert!(
                dir.pop(),
                "no BENCHMARK.json above {}",
                env!("CARGO_MANIFEST_DIR")
            );
        };
        let committed = json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
        assert_eq!(
            committed,
            manifest(),
            "{} is stale: regenerate it with `benchmark manifest`",
            file.display()
        );
        let text = std::fs::read_to_string(&file).unwrap();
        assert!(text.len() <= 64 * 1024);
        for w in workloads::workloads() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    #[test]
    fn manifest_names_the_driver_directory_only() {
        let m = manifest();
        let paths = m.get("paths").and_then(Json::as_arr).unwrap();
        assert_eq!(paths, &[Json::str("crates/bench/src/bin/benchmark")][..]);
        let command = m.get("command").and_then(Json::as_arr).unwrap();
        assert!(command.len() <= 32);
        assert!(command.iter().all(|c| c
            .as_str()
            .is_some_and(|s| !s.starts_with('/') && !s.contains(".."))));
        assert_eq!(m.get("workloads").and_then(Json::as_arr).unwrap().len(), 4);
    }
}

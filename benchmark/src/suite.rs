//! The whole set in one command: every workload in a fresh child
//! process (so peak RSS and allocator state do not leak from one into
//! the next), every metric printed by name, `out/result.json` written,
//! and — with `--repeat K` — the repeatability check that calibrates
//! the bounds.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use moma_server::Json;

use crate::spec::{self, Better, MetricSpec};
use crate::{common, environment, measure, RunArgs};

/// Timed phase per workload when no `--seconds` is given; the same as
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 18.0;

/// Result line of one child run.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Metric → (value, samples).
    metrics: BTreeMap<String, (f64, u64)>,
}

/// Re-exec this program for one workload, echo what it prints, and
/// parse its last line.
fn run_child(workload: &str, args: &RunArgs, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.self_test {
        cmd.arg("--self-test");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (mut last, mut samples) = (String::new(), String::new());
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read {workload}: {e}"))?;
        if let Some(rest) = line.strip_prefix("samples ") {
            samples = rest.to_owned();
        } else if !line.starts_with('{') {
            println!("  | {line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| format!("wait {workload}: {e}"))?;
    let doc =
        Json::parse(&last).map_err(|e| format!("{workload}: no result line ({e}); {status}"))?;
    let counts = Json::parse(&samples).unwrap_or(Json::Null);
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(fields)) = doc.get("metrics") {
        for (name, m) in fields {
            let n = counts.get(name).and_then(Json::as_u64).unwrap_or(0);
            metrics.insert(name.clone(), (m.num_field("value").unwrap_or(f64::NAN), n));
        }
    }
    let correct = doc.get("correct").and_then(Json::as_bool) == Some(true);
    if correct != status.success() {
        return Err(format!(
            "{workload}: exit status {status} contradicts correct={correct}"
        ));
    }
    Ok(ChildResult {
        correct,
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

fn print_table(workload: &str, table: &[MetricSpec], r: &ChildResult) {
    for m in table {
        let (value, n) = r.metrics.get(m.name).copied().unwrap_or((f64::NAN, 0));
        let bound = m.bound.map_or(String::new(), |b| format!("bound {b}"));
        println!(
            "{workload:<13} {:<32} {value:>16.6} {:<6} {:<6} n={n:<8} {bound}",
            m.name,
            m.unit,
            m.better.as_str(),
        );
    }
}

fn metrics_json(table: &[MetricSpec], r: &ChildResult) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|m| {
                let (value, n) = r.metrics.get(m.name).copied().unwrap_or((f64::NAN, 0));
                let mut fields = vec![
                    (
                        "value",
                        if value.is_finite() {
                            Json::Num(value)
                        } else {
                            Json::Null
                        },
                    ),
                    ("unit", Json::Str(m.unit.into())),
                    ("better", Json::Str(m.better.as_str().into())),
                    ("n", Json::Uint(n)),
                ];
                if let Some(b) = m.bound {
                    fields.push(("bound", Json::Num(b)));
                }
                (m.name.to_owned(), Json::obj(fields))
            })
            .collect(),
    )
}

/// What one pass over the chosen workloads produced.
struct Pass {
    /// Result document per workload, for `result.json`.
    docs: Vec<(String, Json)>,
    /// `(workload, end-to-end metric)` → value, for the repeatability check.
    e2e: BTreeMap<(String, &'static str), f64>,
    /// Whether every check of every run passed.
    ok: bool,
}

/// One pass over the chosen workloads.
fn one_pass(workloads: &[&str], args: &RunArgs) -> Result<Pass, String> {
    let mut docs = Vec::new();
    let mut e2e_values = BTreeMap::new();
    let mut all_ok = true;
    for &w in workloads {
        println!("== {w} ==");
        let plain = run_child(w, args, false)?;
        print_table(w, &spec::END_TO_END, &plain);
        all_ok &= plain.correct;
        for m in &spec::END_TO_END {
            if let Some((v, _)) = plain.metrics.get(m.name) {
                e2e_values.insert((w.to_owned(), m.name), *v);
            }
        }
        let mut fields = vec![
            ("correct", Json::Bool(plain.correct)),
            ("attempted", Json::Uint(plain.attempted)),
            ("failed", Json::Uint(plain.failed)),
            ("end_to_end", metrics_json(&spec::END_TO_END, &plain)),
        ];
        if args.trace {
            println!("== {w} (traced) ==");
            let traced = run_child(w, args, true)?;
            print_table(w, &spec::PER_LAYER, &traced);
            all_ok &= traced.correct;
            fields.push(("traced_correct", Json::Bool(traced.correct)));
            fields.push(("per_layer", metrics_json(&spec::PER_LAYER, &traced)));
        }
        docs.push((w.to_owned(), Json::obj(fields)));
    }
    Ok(Pass {
        docs,
        e2e: e2e_values,
        ok: all_ok,
    })
}

/// Run the set (or the one workload named), `repeat` times if asked.
pub fn run(only: Option<&str>, args: &RunArgs, repeat: Option<usize>) -> ExitCode {
    let workloads: Vec<&str> = match only {
        Some(w) => vec![spec::workload_names().find(|n| *n == w).expect("validated")],
        None => spec::workload_names().collect(),
    };
    let env = environment::block(args.seed, args.seconds);
    println!("environment {env}");

    let passes = repeat.unwrap_or(1);
    let mut runs = Vec::new();
    let mut values: BTreeMap<(String, &'static str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for pass in 0..passes {
        if passes > 1 {
            println!("=== pass {} of {passes} ===", pass + 1);
        }
        match one_pass(&workloads, args) {
            Ok(pass) => {
                ok &= pass.ok;
                for (k, v) in pass.e2e {
                    values.entry(k).or_default().push(v);
                }
                runs.push(Json::Obj(pass.docs));
            }
            Err(e) => {
                eprintln!("benchmark failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut repeatability = Vec::new();
    if passes > 1 {
        println!("=== repeatability over {passes} passes ===");
        for ((w, name), v) in &values {
            let m = spec::END_TO_END
                .iter()
                .find(|m| m.name == *name)
                .expect("end-to-end metric");
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let (worst, best) = worst_and_best(v, m.better);
            let spread = (worst - best).abs() / measure::median(v).abs();
            let within = spread <= bound;
            ok &= within;
            // With four passes or more, also the quartile spread the
            // acceptance check uses.
            let iqr = measure::iqr_share(v)
                .filter(|_| v.len() >= 4)
                .map_or(String::new(), |q| format!("  iqr/median {q:.4}"));
            println!(
                "{w:<13} {name:<14} spread {spread:>8.4}{iqr}  bound {bound:<5} within_bound: {within}  values {v:?}"
            );
            repeatability.push(Json::obj(vec![
                ("workload", Json::Str(w.clone())),
                ("metric", Json::Str((*name).into())),
                ("spread", Json::Num(spread)),
                ("bound", Json::Num(bound)),
                ("within_bound", Json::Bool(within)),
            ]));
        }
    }

    let doc = Json::obj(vec![
        ("environment", env),
        ("runs", Json::Arr(runs)),
        ("repeatability", Json::Arr(repeatability)),
        ("ok", Json::Bool(ok)),
    ]);
    let path = common::out_dir().join("result.json");
    match std::fs::write(&path, doc.pretty()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!("{}", if ok { "PASS" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn worst_and_best(values: &[f64], better: Better) -> (f64, f64) {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    match better {
        Better::Lower => (max, min),
        Better::Higher => (min, max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_follows_the_direction() {
        assert_eq!(worst_and_best(&[1.0, 3.0, 2.0], Better::Lower), (3.0, 1.0));
        assert_eq!(worst_and_best(&[1.0, 3.0, 2.0], Better::Higher), (1.0, 3.0));
    }
}

//! The MOMA benchmark: four workloads, six end-to-end metrics with
//! bounds, and a per-layer ledger. See `benchmark/README.md`.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints its result as one JSON object
//!   on the last line of standard output;
//! * without `--workload` (or with `--repeat`) it runs the whole set,
//!   each workload in a fresh child process, prints every metric with
//!   unit, direction and sample count, and writes `out/result.json`.

mod common;
mod environment;
mod match_cold;
mod measure;
mod serve;
mod serve_read;
mod serve_write;
mod spec;
mod suite;
mod workflow_ops;

use std::process::ExitCode;

use common::Outcome;
use spec::MetricSpec;

/// Arguments of one run of one workload.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub self_test: bool,
}

struct Cli {
    workload: Option<String>,
    run: RunArgs,
    repeat: Option<usize>,
}

const USAGE: &str = "usage: moma-benchmark [--workload <name>] [--seed <n>] \
[--seconds <s> | --duration-s <s>] [--trace [0|1]] [--repeat <k>] [--self-test]";

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        run: RunArgs {
            seed: 7,
            seconds: suite::DEFAULT_SECONDS,
            trace: false,
            self_test: false,
        },
        repeat: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => {
                let w = value(&mut i, flag)?;
                if !spec::workload_names().any(|n| n == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.run.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" | "--duration-s" => {
                let s: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("{flag}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("{flag} must be in (0, 600]"));
                }
                cli.run.seconds = s;
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                cli.run.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                let k: usize = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if k < 2 {
                    return Err("--repeat needs at least 2".into());
                }
                cli.repeat = Some(k);
            }
            "--self-test" => cli.run.self_test = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    Ok(cli)
}

fn run_workload(name: &str, args: &RunArgs) -> Outcome {
    match name {
        "match_cold" => match_cold::run(args),
        "workflow_ops" => workflow_ops::run(args),
        "serve_read" => serve_read::run(args),
        "serve_write" => serve_write::run(args),
        other => unreachable!("workload `{other}` was validated"),
    }
}

/// The metrics a run must report: every end-to-end metric untraced,
/// every per-layer metric traced.
fn expected_metrics(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    }
}

/// A number as measured, with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// Write the spans of a traced run to `out/trace-<workload>.json`.
pub fn write_trace(workload: &str, spans: &[measure::Span]) {
    let dir = common::out_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, measure::spans_to_json(spans)));
    match written {
        Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
}

/// Run one workload here and print its result line.
fn single(name: &str, args: &RunArgs) -> ExitCode {
    println!(
        "workload {name}: seed {}, {} s, trace {}, {} threads",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::THREADS
    );
    let mut outcome = run_workload(name, args);
    let wanted = expected_metrics(args.trace);
    let (mut fields, mut counts, mut missing) = (Vec::new(), Vec::new(), Vec::new());
    for m in wanted {
        // Traced, a layer this workload does not enter reports 0;
        // untraced, every end-to-end metric must be there and non-zero.
        let reported = outcome.metrics.get(m.name).copied();
        let (value, n) = reported.unwrap_or((0.0, 0));
        println!(
            "metric {:<32} {value:>16.6} {:<6} better={:<6} n={n}",
            m.name,
            m.unit,
            m.better.as_str()
        );
        if !value.is_finite() || (!args.trace && (reported.is_none() || value == 0.0)) {
            missing.push(m.name);
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(value),
            m.unit
        ));
        counts.push(format!("\"{}\": {n}", m.name));
    }
    outcome.checks.check(
        "every metric of this mode reported",
        missing.is_empty(),
        || format!("missing or not a number: {missing:?}"),
    );
    for name in outcome.metrics.keys() {
        assert!(
            wanted.iter().any(|m| m.name == *name),
            "workload set `{name}`, which this mode does not report"
        );
    }
    let (attempted, failed) = (outcome.checks.attempted(), outcome.checks.failed());
    let correct = failed == 0;
    // Sample counts, for the suite's report; the result line below keeps
    // to the four keys the contract names.
    println!("samples {{{}}}", counts.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (&cli.workload, cli.repeat) {
        (Some(name), None) => single(name, &cli.run),
        (only, repeat) => suite::run(only.as_deref(), &cli.run, repeat),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_parses() {
        let c = cli(&[
            "--workload",
            "serve_read",
            "--seed",
            "11",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.as_deref(), Some("serve_read"));
        assert_eq!((c.run.seed, c.run.seconds, c.run.trace), (11, 10.0, true));
        let c = cli(&["--trace", "0", "--seed", "3"]).unwrap();
        assert!(!c.run.trace);
        assert_eq!(c.run.seed, 3);
    }

    #[test]
    fn issue_form_parses() {
        let c = cli(&[
            "--seed",
            "7",
            "--duration-s",
            "30",
            "--trace",
            "--repeat",
            "2",
        ])
        .unwrap();
        assert!(c.run.trace && c.workload.is_none());
        assert_eq!((c.run.seconds, c.repeat), (30.0, Some(2)));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--repeat", "1"]).is_err());
        assert!(cli(&["--threads", "4"]).is_err());
        assert!(cli(&["--seed"]).is_err());
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
    }
}

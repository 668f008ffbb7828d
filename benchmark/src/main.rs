//! `tbench`: the repository's benchmark.
//!
//! One process, one closed-loop client thread, driving the public `tcache`
//! facade on the live plane (reactor transport, modeled delivery). See
//! `benchmark/README.md` for the workloads, the metrics and how to read the
//! output; `BENCHMARK.json` at the repository root declares the contract.

mod classify;
mod engine;
mod hist;
mod lag;
mod layers;
mod report;
mod run;
mod spec;
mod tape;
mod trace;

use run::{Outcome, RunOptions};
use serde_json::Value as Json;
use spec::{Better, MetricDef, WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: tbench run    (--all | --workload NAME) [--seed N] [--seconds S] [--trace 0|1 | --traced] [--quick] [--record]
       tbench repeat [--sets N] [--seed N] [--seconds S] [--quick]
       tbench report [--workload NAME]
workloads: read_hot churn_miss fanout_write lossy_edge";

/// Parsed command-line flags; every subcommand takes a subset.
#[derive(Debug, Default, PartialEq)]
struct Flags {
    all: bool,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    record: bool,
    sets: Option<usize>,
}

/// Parses `args` against the flags `allowed` for the subcommand. Unknown
/// flags, missing or malformed values and unknown workloads are errors.
fn parse_flags(args: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if !allowed.contains(&flag.as_str()) {
            return Err(format!("unknown flag `{flag}`"));
        }
        let mut value = || args.next().ok_or_else(|| format!("`{flag}` needs a value"));
        let bad = |value: &str| format!("`{flag} {value}` is not valid");
        match flag.as_str() {
            "--all" => flags.all = true,
            "--traced" => flags.traced = true,
            "--quick" => flags.quick = true,
            "--record" => flags.record = true,
            "--workload" => {
                let name = value()?;
                if spec::workload(name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                flags.workload = Some(name.clone());
            }
            "--seed" => {
                let v = value()?;
                flags.seed = Some(v.parse().map_err(|_| bad(v))?);
            }
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v.parse().map_err(|_| bad(v))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad(v));
                }
                flags.seconds = Some(seconds);
            }
            "--trace" => {
                let v = value()?;
                flags.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--sets" => {
                let v = value()?;
                let sets: usize = v.parse().map_err(|_| bad(v))?;
                if !(2..=16).contains(&sets) {
                    return Err(bad(v));
                }
                flags.sets = Some(sets);
            }
            _ => unreachable!("every allowed flag is handled"),
        }
    }
    Ok(flags)
}

fn selected(flags: &Flags) -> Result<Vec<&'static WorkloadSpec>, String> {
    match (&flags.workload, flags.all) {
        (Some(_), true) => Err("`--all` and `--workload` exclude each other".into()),
        (Some(name), false) => Ok(vec![spec::workload(name).expect("validated while parsing")]),
        (None, true) => Ok(WORKLOADS.iter().collect()),
        (None, false) => Err("name a workload with `--workload` or pass `--all`".into()),
    }
}

/// The benchmark's own directory: where `out/` and `baseline.json` live.
fn benchmark_dir() -> PathBuf {
    // Relative to the checkout root the command is run from; fall back to
    // where the package was built when run from elsewhere.
    let relative = Path::new("benchmark");
    if relative.join("Cargo.toml").is_file() {
        relative.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// The commit of the measured system, or why there is none to name: the
/// benchmark measures `crates/` as built from the working tree, so the SHA
/// only identifies it when those sources match `HEAD`.
fn measured_commit() -> Result<String, String> {
    let root = benchmark_dir().join("..");
    if !root.join(".git").exists() {
        return Err("not a git checkout".into());
    }
    let git = |args: &[&str]| -> Result<String, String> {
        let output = std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .output()
            .map_err(|e| format!("running git: {e}"))?;
        if !output.status.success() {
            return Err(format!("git {args:?} failed"));
        }
        Ok(String::from_utf8_lossy(&output.stdout).trim().to_string())
    };
    let sha = git(&["rev-parse", "HEAD"])?;
    let dirty = git(&[
        "status",
        "--porcelain",
        "--",
        "crates",
        "Cargo.toml",
        "Cargo.lock",
    ])?;
    if dirty.is_empty() {
        Ok(sha)
    } else {
        Err(format!("measured sources differ from {sha}:\n{dirty}"))
    }
}

fn commit_stamp() -> String {
    measured_commit()
        .unwrap_or_else(|why| format!("unrecorded ({})", why.lines().next().unwrap_or_default()))
}

fn def_of(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared in spec.rs"))
}

/// The result object of the driver contract: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|reading| {
            (
                reading.name.to_string(),
                Json::Map(vec![
                    ("value".into(), Json::F64(reading.value)),
                    ("unit".into(), Json::Str(def_of(reading.name).unit.into())),
                ]),
            )
        })
        .collect();
    Json::Map(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::U64(outcome.attempted)),
        ("failed".into(), Json::U64(outcome.failed)),
        ("metrics".into(), Json::Map(metrics)),
    ])
}

/// Prints the human-readable table, then the result object as the last line.
fn print_outcome(outcome: &Outcome, options: &RunOptions, stamp: &str) {
    let spec = spec::workload(outcome.workload).expect("outcomes name a workload");
    println!("# {}: {}", spec.name, spec.why);
    println!(
        "# tbench {} seed={} tape={:016x} {}{}commit={stamp}",
        outcome.workload,
        options.seed,
        outcome.tape_hash,
        options
            .seconds
            .map_or_else(|| "fixed-ops ".to_string(), |s| format!("seconds={s} ")),
        if options.quick { "quick " } else { "" },
    );
    for reading in &outcome.metrics {
        let samples = match reading.samples {
            0 => String::new(),
            n => format!("  n={n}"),
        };
        println!(
            "{:<36} {:>16.4} {:<6}{samples}",
            reading.name,
            reading.value,
            def_of(reading.name).unit
        );
    }
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!("{}", result_json(outcome).emit());
}

/// One workload in this process: the driver's mode.
fn run_here(
    spec: &'static WorkloadSpec,
    options: &RunOptions,
    stamp: &str,
) -> Result<(bool, Json), String> {
    let outcome = run::run_workload(spec, options);
    print_outcome(&outcome, options, stamp);
    if options.traced {
        report::write_layers(&options.out_dir, &outcome, stamp)?;
    }
    Ok((outcome.correct, result_json(&outcome)))
}

/// One workload in a child process of its own, as the driver runs it: a
/// run must not inherit the previous one's peak RSS, allocator state or
/// hash seeds. Returns whether the child succeeded, its result object and
/// everything it printed.
fn run_in_child(spec: &WorkloadSpec, options: &RunOptions) -> Result<(bool, Json, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating tbench: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args([
            "run",
            "--workload",
            spec.name,
            "--seed",
            &options.seed.to_string(),
        ])
        .args(["--trace", if options.traced { "1" } else { "0" }]);
    if let Some(seconds) = options.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if options.quick {
        command.arg("--quick");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting tbench for {}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let result = stdout
        .lines()
        .last()
        .and_then(|line| Json::parse(line).ok())
        .ok_or_else(|| format!("the {} run printed no result", spec.name))?;
    Ok((output.status.success(), result, stdout))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(
        args,
        &[
            "--all",
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--traced",
            "--quick",
            "--record",
        ],
    )?;
    let specs = selected(&flags)?;
    let stamp = if flags.record {
        measured_commit().map_err(|why| format!("refusing --record: {why}"))?
    } else {
        commit_stamp()
    };
    let dir = benchmark_dir();
    let options = RunOptions {
        seed: flags.seed.unwrap_or(42),
        seconds: flags.seconds,
        quick: flags.quick,
        traced: flags.traced,
        out_dir: dir.join("out"),
    };
    let mut all_correct = true;
    let mut recorded = Vec::new();
    for &spec in &specs {
        let (correct, result) = if specs.len() == 1 {
            run_here(spec, &options, &stamp)?
        } else {
            let (correct, result, printed) = run_in_child(spec, &options)?;
            print!("{printed}");
            (correct, result)
        };
        all_correct &= correct;
        recorded.push((spec.name.to_string(), result));
    }
    if flags.record && all_correct {
        let kind = if options.traced {
            "per_layer"
        } else {
            "end_to_end"
        };
        let path = dir.join(format!("baseline.{kind}.json"));
        let document = Json::Map(vec![
            ("commit".into(), Json::Str(stamp)),
            ("seed".into(), Json::U64(options.seed)),
            (
                "seconds".into(),
                options.seconds.map_or(Json::Null, Json::F64),
            ),
            ("quick".into(), Json::Bool(options.quick)),
            ("workloads".into(), Json::Map(recorded)),
        ]);
        std::fs::write(&path, document.emit() + "\n")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A metric's value in a result object.
fn value_of(result: &Json, name: &str) -> Option<f64> {
    match result.get("metrics")?.get(name)?.get("value")? {
        Json::F64(v) => Some(*v),
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// How much worse `candidate` is than `reference`, as a share of
/// `reference` (negative when it is better).
fn worsening(def: &MetricDef, reference: f64, candidate: f64) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (candidate - reference) / reference,
        Better::Higher => (reference - candidate) / reference,
    }
}

/// A-vs-A calibration: every workload `sets` times, alternating the order,
/// and for every end-to-end metric the gap between the sets against its
/// bound.
fn cmd_repeat(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["--sets", "--seed", "--seconds", "--quick"])?;
    let sets = flags.sets.unwrap_or(2);
    let options = RunOptions {
        seed: flags.seed.unwrap_or(42),
        seconds: flags.seconds,
        quick: flags.quick,
        traced: false,
        out_dir: benchmark_dir().join("out"),
    };
    let mut values: Vec<Vec<Vec<f64>>> = vec![Vec::new(); WORKLOADS.len()];
    let mut all_correct = true;
    for set in 0..sets {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for index in order {
            let spec = &WORKLOADS[index];
            let (correct, result, _) = run_in_child(spec, &options)?;
            eprintln!(
                "set {} {}: {}",
                set + 1,
                spec.name,
                if correct { "ok" } else { "CHECK FAILED" }
            );
            all_correct &= correct;
            let of_run: Option<Vec<f64>> = END_TO_END
                .iter()
                .map(|def| value_of(&result, def.name))
                .collect();
            values[index].push(of_run.ok_or_else(|| {
                format!(
                    "the {} run did not report every end-to-end metric",
                    spec.name
                )
            })?);
        }
    }
    println!(
        "# tbench repeat sets={sets} seed={} commit={}",
        options.seed,
        commit_stamp()
    );
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "min", "max", "gap", "bound"
    );
    let mut beyond = 0;
    for (spec, runs) in WORKLOADS.iter().zip(&values) {
        for (column, def) in END_TO_END.iter().enumerate() {
            let of_sets: Vec<f64> = runs.iter().map(|run| run[column]).collect();
            // The worst any set is against any other.
            let gap = of_sets
                .iter()
                .flat_map(|&a| of_sets.iter().map(move |&b| worsening(def, a, b)))
                .fold(0.0, f64::max);
            let min = of_sets.iter().copied().fold(f64::INFINITY, f64::min);
            let max = of_sets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let flag = if gap > def.bound {
                beyond += 1;
                "  BEYOND BOUND"
            } else {
                ""
            };
            println!(
                "{:<14} {:<26} {min:>14.4} {max:>14.4} {gap:>9.4} {:>7.3}{flag}",
                spec.name, def.name, def.bound
            );
        }
    }
    let enforce = !options.quick;
    println!(
        "{beyond} metric/workload pairs beyond their bound{}",
        if enforce {
            ""
        } else {
            " (not enforced with --quick)"
        }
    );
    Ok(if all_correct && (beyond == 0 || !enforce) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["--workload"])?;
    let specs = if flags.workload.is_some() {
        selected(&flags)?
    } else {
        WORKLOADS.iter().collect()
    };
    let out_dir = benchmark_dir().join("out");
    for spec in specs {
        report::print(&out_dir, spec)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) => match command.as_str() {
            "run" => cmd_run(rest),
            "repeat" => cmd_repeat(rest),
            "report" => cmd_report(rest),
            other => Err(format!("unknown command `{other}`")),
        },
        None => Err("no command".into()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("tbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    const RUN_FLAGS: &[&str] = &[
        "--all",
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--quick",
    ];

    #[test]
    fn driver_arguments_parse() {
        let flags = parse_flags(
            &strings(&[
                "--workload",
                "lossy_edge",
                "--seed",
                "9",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]),
            RUN_FLAGS,
        )
        .unwrap();
        assert_eq!(flags.workload.as_deref(), Some("lossy_edge"));
        assert_eq!(flags.seed, Some(9));
        assert_eq!(flags.seconds, Some(10.0));
        assert!(flags.traced);
        assert_eq!(selected(&flags).unwrap()[0].name, "lossy_edge");
    }

    #[test]
    fn unknown_flags_workloads_and_malformed_values_are_rejected() {
        for bad in [
            &["--bogus"][..],
            &["--workload", "nope"],
            &["--workload"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--sets", "2"],
        ] {
            assert!(parse_flags(&strings(bad), RUN_FLAGS).is_err(), "{bad:?}");
        }
        assert!(selected(&Flags::default()).is_err());
        let both = Flags {
            all: true,
            workload: Some("read_hot".into()),
            ..Flags::default()
        };
        assert!(selected(&both).is_err());
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = def_of("read_p50_ns");
        let higher = def_of("ops_per_s");
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 120.0) < 0.0);
    }

    /// `BENCHMARK.json` at the repository root declares exactly what
    /// `spec.rs` defines, within the limits of the driver's contract.
    #[test]
    fn benchmark_json_mirrors_the_spec() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Json::Map(entries) = &json else {
            panic!("an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match json.get(key) {
            Some(Json::Seq(items)) => items.clone(),
            _ => panic!("`{key}` is a list"),
        };
        let text = |item: &Json, key: &str| match item.get(key) {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("`{key}` is a string"),
        };
        assert_eq!(list("paths"), vec![Json::Str("benchmark".into())]);
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (item, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(text(item, "name"), spec.name);
            assert_eq!(text(item, "why"), spec.why);
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = list(key);
            assert_eq!(items.len(), defs.len(), "{key}");
            for (item, def) in items.iter().zip(defs) {
                assert_eq!(text(item, "name"), def.name);
                assert_eq!(text(item, "unit"), def.unit, "{}", def.name);
                let better = match def.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                assert_eq!(text(item, "better"), better, "{}", def.name);
                match (key, item.get("bound")) {
                    ("end_to_end", Some(Json::F64(bound))) => assert_eq!(*bound, def.bound),
                    ("per_layer", None) => {}
                    other => panic!("{}: bound {other:?}", def.name),
                }
            }
        }
        let setup = &list("end_to_end")[0];
        assert_eq!(text(setup, "name"), "setup_s");
        let largest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END[0].bound, largest,
            "setup_s carries the largest bound"
        );
    }

    /// A quick run of every workload emits exactly the declared metric
    /// names, in both modes, and passes its own checks.
    #[test]
    fn emitted_names_are_the_declared_names() {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("names-test-{}", std::process::id()));
        for traced in [false, true] {
            let options = RunOptions {
                seed: 5,
                seconds: Some(0.2),
                quick: true,
                traced,
                out_dir: out_dir.clone(),
            };
            let declared: Vec<&str> = if traced { PER_LAYER } else { END_TO_END }
                .iter()
                .map(|def| def.name)
                .collect();
            for spec in &WORKLOADS {
                let outcome = run::run_workload(spec, &options);
                let emitted: Vec<&str> =
                    outcome.metrics.iter().map(|reading| reading.name).collect();
                assert_eq!(emitted, declared, "{}", spec.name);
                assert!(outcome.correct, "{}: {:?}", spec.name, outcome.failures);
                assert!(outcome.attempted >= 1 && outcome.failed == 0);
                let json = result_json(&outcome);
                let Json::Map(entries) = &json else {
                    panic!("an object")
                };
                let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert!(Json::parse(&json.emit()).is_ok());
            }
        }
        std::fs::remove_dir_all(&out_dir).unwrap();
    }
}

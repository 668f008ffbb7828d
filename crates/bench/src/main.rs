//! `tcache-bench`: the paper's figures and the extension experiments, one
//! subcommand each.
//!
//! ```text
//! cargo run --release -p tcache-bench -- <experiment> [--quick] [--seed N]
//! ```
//!
//! * `--quick` — a much shorter run with reduced parameters (what CI
//!   executes); the qualitative shape of the result is preserved but
//!   individual numbers are noisier.
//! * `--seed <n>` — the run seed (default 42).
//!
//! Each experiment prints the table or series its figure plots, and the
//! ones CI runs assert the properties they demonstrate. An unknown
//! experiment, an unknown flag or a missing or malformed seed prints the
//! usage text to stderr and exits with status 2. `docs/REPRODUCING.md`
//! has a page per experiment with its expected output.

mod extensions;
mod model_check;
mod paper;

use std::process::ExitCode;
use tcache_types::SimDuration;

/// Options shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunOptions {
    /// Run a shortened experiment.
    quick: bool,
    /// Random seed.
    seed: u64,
}

impl RunOptions {
    /// Picks the experiment duration: `full` normally, `quick` with
    /// `--quick`.
    fn duration(&self, full_secs: u64, quick_secs: u64) -> SimDuration {
        SimDuration::from_secs(if self.quick { quick_secs } else { full_secs })
    }
}

/// An experiment's subcommand name and the function that runs it.
type Experiment = (&'static str, fn(&RunOptions));

/// Every experiment, in the order the usage text lists them.
const EXPERIMENTS: &[Experiment] = &[
    ("fig3", paper::fig3),
    ("fig4", paper::fig4),
    ("fig5", paper::fig5),
    ("fig6", paper::fig6),
    ("fig7c", paper::fig7c),
    ("fig7d", paper::fig7d),
    ("fig8", paper::fig8),
    ("headline", paper::headline),
    ("drop_sweep", extensions::drop_sweep),
    ("multi_cache", extensions::multi_cache),
    ("backpressure", extensions::backpressure),
    ("live_plane", extensions::live_plane),
    ("scenarios", extensions::scenarios),
    ("fault_tolerance", extensions::fault_tolerance),
    ("model_check", model_check::run),
];

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: tcache-bench <experiment> [--quick] [--seed N]\nexperiments: {}",
        names.join(", ")
    )
}

/// Parses `<experiment> [--quick] [--seed N]` (program name excluded).
fn parse(
    args: impl IntoIterator<Item = String>,
) -> Result<(&'static Experiment, RunOptions), String> {
    let mut args = args.into_iter();
    let name = args.next().ok_or("missing experiment name")?;
    let experiment = EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == name)
        .ok_or_else(|| format!("unknown experiment `{name}`"))?;
    let mut options = RunOptions {
        quick: false,
        seed: 42,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            "--seed" => {
                let value = args.next().ok_or("`--seed` needs a value")?;
                options.seed = value
                    .parse()
                    .map_err(|_| format!("malformed seed `{value}`"))?;
            }
            _ => return Err(format!("unknown flag `{arg}`")),
        }
    }
    Ok((experiment, options))
}

/// Formats a percentage with one decimal.
fn pct(value: f64) -> String {
    format!("{value:5.1}%")
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(((_, run), options)) => {
            run(&options);
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags() {
        let ((name, _), o) = parse(args(&["fig3", "--quick", "--seed", "7"])).unwrap();
        assert_eq!(*name, "fig3");
        assert!(o.quick);
        assert_eq!(o.seed, 7);
        assert_eq!(o.duration(60, 5), SimDuration::from_secs(5));

        let (_, d) = parse(args(&["fig3"])).unwrap();
        assert!(!d.quick);
        assert_eq!(d.seed, 42);
        assert_eq!(d.duration(60, 5), SimDuration::from_secs(60));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &[][..],
            &["fig9"],
            &["--quick"],
            &["fig3", "--quik"],
            &["fig3", "extra"],
            &["fig3", "--seed"],
            &["fig3", "--seed", "x"],
            &["fig3", "--seed", "-1"],
        ] {
            assert!(parse(args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn every_experiment_parses_by_name() {
        for (name, _) in EXPERIMENTS {
            let ((parsed, _), _) = parse(args(&[name, "--quick"])).unwrap();
            assert_eq!(parsed, name);
            assert!(usage().contains(name));
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(12.34), " 12.3%");
    }
}

//! The repository benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <adhoc-lpcta|tcp-lookup-write|standing-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  Each workload builds its traffic from the
//! seed (its data is fixed, see [`DATA_SEED`]), sets up several times
//! (`setup_s` is the median), measures a
//! closed loop for `--seconds`, checks every answer outside the timed
//! window, and prints the metrics; the last line of standard output is the
//! JSON result.  `--trace 1` runs the same loop untraced for half the time
//! and traced for the other half, and reports the per-layer metrics
//! instead.  Scratch state (durable directories, the exported span trees)
//! lives under `.bench_build/perfbench/`.

mod adhoc;
mod calib;
mod check;
mod churn;
mod layers;
mod report;
mod serving;
mod tcp;

use report::Report;
use std::path::PathBuf;
use std::time::Duration;

/// Seed of every workload's data: the datasets and standing queries are one
/// fixed deployment, and `--seed` drives the traffic against it (which
/// focals are asked in which order, which records are inserted and
/// deleted).  Seeding the data as well made the runs of different seeds
/// differ by far more than any bound: the cost of a competitive focal is
/// heavy-tailed, so one run's few hundred focals (and `standing-churn`'s 8
/// standing queries) are too small a sample of the dataset distribution.
pub const DATA_SEED: u64 = 2017;

/// Every workload's data shape.
pub const N: usize = 4000;
pub const D: usize = 4;
pub const K: usize = 10;

/// Times each workload sets up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// The run's parameters.
pub struct Run {
    pub seed: u64,
    /// Length of the measured loop (half of it each, untraced and traced,
    /// with `--trace 1`).
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory of this run.
    pub scratch: PathBuf,
}

impl Run {
    /// Length of one measured phase.
    pub fn phase(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

const WORKLOADS: [&str; 3] = ["adhoc-lpcta", "tcp-lookup-write", "standing-churn"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s >= 1),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(&format!("unknown flag or value: {flag} {value}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds (>= 1) and --trace (0 or 1) are all required");
    };

    let scratch = PathBuf::from(".bench_build/perfbench")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(err) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {err}", scratch.display());
        std::process::exit(1);
    }
    let run = Run {
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
        scratch,
    };
    let mut report = Report::default();
    match workload.as_str() {
        "adhoc-lpcta" => adhoc::run(&run, &mut report),
        "tcp-lookup-write" => tcp::run(&run, &mut report),
        _ => churn::run(&run, &mut report),
    }
    let _ = std::fs::remove_dir_all(&run.scratch);
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .failed_checks
                .push(format!("{} is not finite", m.name));
        }
    }
    let scale = format!("\"n\":{N},\"d\":{D},\"k\":{K},\"setups\":{SETUPS}");
    report.print(
        &format!("perfbench {workload} seed={seed} seconds={seconds} trace={trace}"),
        &report::provenance(&workload, seed, seconds, trace, &scale),
    );
}

//! What one run prints: metrics with units and sample counts, the
//! correctness tally, and the provenance that decides which results may be
//! compared with each other.

use crate::calib::{Adjust, Setups};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Observations behind the value (1 for a single measurement).
    pub samples: usize,
}

/// The per-layer metrics of a traced run, `(name, unit)`, in print order;
/// the names of `per_layer` in `BENCHMARK.json`.  A layer the workload
/// leaves idle reports 0 with 0 samples.
pub const LAYER_METRICS: [(&str, &str); 52] = [
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("net.rtt_ms_p50", "ms"),
    ("net.unattributed_ms_p50", "ms"),
    ("serve.queue_us_p90", "us"),
    ("serve.admission_us_p90", "us"),
    ("serve.ack_us_p50", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.updates_per_commit", "count"),
    ("serve.update_p50_ms", "ms"),
    ("serve.update_p90_ms", "ms"),
    ("core.query_ms", "ms"),
    ("core.prep_ms", "ms"),
    ("core.expansion_ms", "ms"),
    ("core.processed_records", "count"),
    ("core.celltree_nodes", "count"),
    ("core.witness_hit_ratio", "ratio"),
    ("core.bound_lp_calls", "count"),
    ("core.bound_decided_ratio", "ratio"),
    ("core.pcta_ms_per_query", "ms"),
    ("core.lpcta_over_pcta_ms", "ratio"),
    ("core.lpcta_over_pcta_lp_calls", "ratio"),
    ("lp.ms_per_query", "ms"),
    ("lp.calls_per_query", "count"),
    ("lp.pivots_per_query", "count"),
    ("lp.us_per_call", "us"),
    ("spatial.dominance_us", "us"),
    ("spatial.io_reads_per_query", "count"),
    ("spatial.insert_us", "us"),
    ("spatial.delete_us", "us"),
    ("monitor.visited_per_update", "count"),
    ("monitor.patched_share", "ratio"),
    ("monitor.engine_runs", "count"),
    ("monitor.ms_per_update", "ms"),
    ("monitor.reregister_s", "s"),
    ("durable.wal_commit_us_p50", "us"),
    ("durable.wal_commit_us_p90", "us"),
    ("durable.wal_bytes_per_update", "bytes"),
    ("durable.recover_s", "s"),
    ("durable.load_s", "s"),
    ("durable.rebuild_s", "s"),
    ("durable.replay_s", "s"),
    ("durable.replay_records", "count"),
    ("durable.replay_us_per_record", "us"),
    ("approx.p50_ms", "ms"),
    ("approx.p90_ms", "ms"),
    ("approx.estimate_ms", "ms"),
    ("approx.samples_per_query", "count"),
    ("telemetry.trace_overhead_pct", "%"),
    ("telemetry.traced_query_p50_ms", "ms"),
];

/// The end-to-end metrics of an untraced run, `(name, unit)`: the names of
/// `end_to_end` in `BENCHMARK.json`.  Every workload has all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_ratio", "ratio"),
];

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    /// Whether this is a traced run: its final line carries the per-layer
    /// metrics, and the end-to-end ones (of its untraced half) become
    /// details.
    pub trace: bool,
    /// Metrics of the final JSON line, in print order.
    pub metrics: Vec<Metric>,
    /// Metrics printed for reading but left out of the final line (a
    /// workload's own latencies that the other workloads do not have).
    pub details: Vec<Metric>,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Attempted operations that failed, were refused, or whose answer
    /// failed its check.
    pub failed: u64,
    /// Checks that are not tied to one operation (self-test, recovery
    /// equality) and failed.
    pub failed_checks: Vec<String>,
}

impl Report {
    /// An end-to-end metric (named in [`END_TO_END`]).
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        debug_assert!(END_TO_END.contains(&(name, unit)), "unlisted metric {name}");
        let m = Metric {
            name,
            value,
            unit,
            samples,
        };
        if self.trace {
            self.details.push(m);
        } else {
            self.metrics.push(m);
        }
    }

    /// A per-layer metric (named in [`LAYER_METRICS`]); only traced runs
    /// report them.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        let &(name, unit) = LAYER_METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unlisted layer metric {name}"));
        if self.trace {
            self.metrics.push(Metric {
                name,
                value,
                unit,
                samples,
            });
        }
    }

    /// Completes a traced run's metrics: layers the workload left idle
    /// report 0, and every metric is put in [`LAYER_METRICS`] order.
    pub fn finish_layers(&mut self) {
        if !self.trace {
            return;
        }
        for (name, unit) in LAYER_METRICS {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.metrics.push(Metric {
                    name,
                    value: 0.0,
                    unit,
                    samples: 0,
                });
            }
        }
        let rank = |name: &str| LAYER_METRICS.iter().position(|(n, _)| *n == name);
        self.metrics.sort_by_key(|m| rank(m.name));
    }

    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.details.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records a failed check that is not one operation's.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed_checks.push(what.into());
        }
    }

    /// Adds `query_p50_ms` / `query_p90_ms` at nominal host speed, and the
    /// measured values as details.
    pub fn query_latency(&mut self, lat: &Latencies, adjust: &Adjust) {
        let (p50, p90) = (lat.quantile_ms(0.5), lat.quantile_ms(0.9));
        self.metric("query_p50_ms", adjust.time(p50), "ms", lat.len());
        self.metric("query_p90_ms", adjust.time(p90), "ms", lat.len());
        self.detail("query_p50_ms_measured", p50, "ms", lat.len());
        self.detail("query_p90_ms_measured", p90, "ms", lat.len());
    }

    /// The end-to-end metrics every workload reports besides its latencies;
    /// the timings at nominal host speed, with the measured values and the
    /// adjustments as details.
    pub fn common(&mut self, setups: &Setups, ops: u64, elapsed: Duration, adjust: &Adjust) {
        let setup = setups.adjust(adjust);
        self.metric("setup_s", setup.time(setups.measured), "s", setups.count);
        let measured = ops as f64 / elapsed.as_secs_f64();
        self.metric(
            "throughput_ops_s",
            adjust.rate(measured),
            "ops/s",
            ops as usize,
        );
        self.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        let ok = self.attempted.saturating_sub(self.failed);
        self.metric(
            "ok_ops_ratio",
            ok as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.attempted as usize,
        );
        self.detail("setup_s_measured", setups.measured, "s", setups.count);
        self.detail("throughput_ops_s_measured", measured, "ops/s", ops as usize);
        self.detail("host_speed", adjust.speed(), "x", adjust.slices);
        self.detail("busy_share_setup", setup.busy(), "ratio", 1);
        self.detail("busy_share_loop", adjust.busy(), "ratio", 1);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failed_checks.is_empty() && self.attempted > 0
    }

    /// Prints the readable lines and, last, the one-line JSON result.
    pub fn print(&self, header: &str, provenance: &str) {
        println!("# {header}");
        println!("# provenance {provenance}");
        for m in self.metrics.iter().chain(&self.details) {
            println!(
                "# {:<32} {:>16} {:<6} n={}",
                m.name,
                format!("{:.4}", m.value),
                m.unit,
                m.samples
            );
        }
        println!(
            "# failed_ops_ratio {} ({} of {})",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for what in &self.failed_checks {
            println!("# FAILED CHECK: {what}");
        }
        let mut samples = String::from("{");
        for (i, m) in self.metrics.iter().chain(&self.details).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(samples, "{sep}\"{}\":{}", m.name, m.samples);
        }
        samples.push('}');
        println!("# samples {samples}");
        let mut line = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed + self.failed_checks.len() as u64
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                line,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}

/// A finite JSON number; a non-finite value (a metric whose base was empty)
/// prints as 0 and is flagged by `main` as a failed check before printing.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Latency observations of one operation class.
#[derive(Default, Clone)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile, milliseconds (NaN when empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }
}

/// Nearest-rank quantile of unsorted values (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, 0 when nothing was attempted (a layer the workload leaves
/// idle).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set (VmHWM) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic Fisher-Yates shuffle driven by [`mix`].
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// FNV-1a over bytes, continuing from `hash`.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

pub const FNV_START: u64 = 0xCBF2_9CE4_8422_2325;

/// Provenance of a result as one JSON object.  Results whose provenance
/// differs (other than `seed`) are not compared.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, scale: &str) -> String {
    let (rev, dirty) = git_state();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         {scale},\"git_rev\":\"{rev}\",\"git_dirty\":\"{dirty}\",\"source_digest\":\"{:016x}\",\
         \"nproc\":{cores},\"profile\":\"{profile}\",\"rustc\":\"{}\"}}",
        source_digest(),
        env!("PERFBENCH_RUSTC").trim()
    )
}

/// The checkout's git revision and dirty flag, or `none` when the working
/// directory is not the top of a git work tree (a plain source checkout).
fn git_state() -> (String, String) {
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top =
        git(&["rev-parse", "--show-toplevel"]).and_then(|t| Path::new(&t).canonicalize().ok());
    if here.is_none() || here != top {
        return ("none".into(), "none".into());
    }
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let dirty = match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) if s.is_empty() => "clean",
        Some(_) => "dirty",
        None => "none",
    };
    (rev, dirty.into())
}

/// FNV digest of the sources the benchmark builds (`crates/`, `vendor/`,
/// the manifests and the benchmark itself): identifies the code under test
/// where there is no git revision.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if name == "target" || name.to_string_lossy().starts_with('.') {
                continue;
            }
            match entry.file_type() {
                Ok(t) if t.is_dir() => walk(&path, files),
                Ok(t) if t.is_file() => files.push(path),
                _ => {}
            }
        }
    }
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench"] {
        walk(Path::new(dir), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(std::path::PathBuf::from));
    files.sort();
    files.iter().fold(FNV_START, |hash, path| {
        let hash = fnv(hash, path.to_string_lossy().as_bytes());
        fnv(hash, &std::fs::read(path).unwrap_or_default())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the lists in `BENCHMARK.json` agree.
    #[test]
    fn tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        let section = |key: &str, next: &str| -> String {
            let start = json.find(&format!("\"{key}\"")).expect(key);
            let end = json[start..]
                .find(&format!("\"{next}\""))
                .map_or(json.len(), |e| start + e);
            json[start..end].to_owned()
        };
        let e2e = section("end_to_end", "per_layer");
        let layers = section("per_layer", "run_seconds");
        let listed = |text: &str| text.matches("\"name\":").count();
        assert_eq!(listed(&e2e), END_TO_END.len());
        assert_eq!(listed(&layers), LAYER_METRICS.len());
        for (name, unit) in END_TO_END {
            assert!(
                e2e.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for (name, unit) in LAYER_METRICS {
            assert!(
                layers.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        shuffle(&mut b, 8);
        assert_ne!(a, b);
    }
}

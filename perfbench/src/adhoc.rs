//! `adhoc-lpcta`: one in-process caller runs `QueryEngine::run(LpCta, ..)`
//! on competitive focal records.  CellTree expansion and the LP solver do
//! almost all the work; wire, WAL and monitor are idle.
//!
//! Focal cost in the competitive pool is heavy-tailed and set by the
//! focal's dominator count: at n = 4000, focals with 1–3 dominators take
//! 0.1–7 s each, those with 4–5 about 5–300 ms.  A window of a few seconds
//! holds too few of the former for a median that repeats across runs, so
//! the workload draws from the latter (about a third of the pool, at and
//! below its median cost), over several independent datasets.

use crate::calib::{repeat_setup, Adjust, Meter};
use crate::check::{candidates, covers, exact_agrees, fingerprint, self_test, Sample};
use crate::layers::engine_layers;
use crate::report::{mean, median, mix, ratio, shuffle, Latencies, Report};
use crate::{Run, DATA_SEED, K, N, SETUPS};
use kspr::{Algorithm, KsprConfig, KsprResult, QueryEngine, QueryStats};
use kspr_bench::Workload;
use kspr_datagen::Distribution;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Independent datasets per run.
const DATASETS: usize = 12;

/// Distinct results per phase cross-checked against P-CTA's answer.
const CROSS_CHECKS: usize = 150;

struct Instance {
    raw: Vec<Vec<f64>>,
    engine: QueryEngine,
    focals: Vec<Vec<f64>>,
}

struct Setup {
    instances: Vec<Instance>,
    /// `(instance, focal)` pairs in run order.
    ops: Vec<(usize, usize)>,
}

fn setup(seed: u64) -> Setup {
    let instances: Vec<Instance> = (0..DATASETS)
        .map(|i| {
            let data_seed = mix(DATA_SEED, i as u64);
            let workload =
                Workload::synthetic(Distribution::Independent, N, crate::D, K, data_seed);
            let engine = QueryEngine::new(&workload.dataset, KsprConfig::default());
            // The shared preparation is built lazily by the first query; a
            // user's first query pays it once, the loop never does.
            engine.shared_prep_for(K);
            let focals = workload
                .focal_pool
                .iter()
                .map(|&r| workload.raw[r].clone())
                .filter(|f| engine.count_dominating(f, K) >= K / 2 - 1)
                .collect();
            Instance {
                raw: workload.raw,
                engine,
                focals,
            }
        })
        .collect();
    let mut ops: Vec<(usize, usize)> = instances
        .iter()
        .enumerate()
        .flat_map(|(i, inst)| (0..inst.focals.len()).map(move |f| (i, f)))
        .collect();
    shuffle(&mut ops, mix(seed, 0xAD0C));
    Setup { instances, ops }
}

/// One measured pass over the op list (cycling when it runs out).
struct Phase {
    latencies: Latencies,
    /// The first result of every distinct op, by op index.
    results: Vec<Option<KsprResult>>,
    /// Op index of every completed op, in order.
    done: Vec<usize>,
    /// Fingerprint of every completed op's result (`None` if it panicked).
    prints: Vec<Option<u64>>,
    /// Wall time of the operations.
    elapsed: Duration,
    adjust: Adjust,
}

fn measure(s: &Setup, window: Duration, algorithm: Algorithm) -> Phase {
    let mut latencies = Latencies::default();
    let mut results = vec![None; s.ops.len()];
    let mut done = Vec::new();
    let mut prints = Vec::new();
    let mut meter = Meter::start();
    let mut op = 0;
    while meter.elapsed() < window {
        let (i, f) = s.ops[op % s.ops.len()];
        let inst = &s.instances[i];
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            inst.engine.run(algorithm, &inst.focals[f], K)
        }));
        latencies.push(t.elapsed());
        let index = op % s.ops.len();
        done.push(index);
        match result {
            Ok(result) => {
                prints.push(Some(fingerprint(&result)));
                if results[index].is_none() {
                    results[index] = Some(result);
                }
            }
            Err(_) => prints.push(None),
        }
        op += 1;
        meter.tick();
    }
    Phase {
        latencies,
        results,
        done,
        prints,
        elapsed: meter.elapsed(),
        adjust: meter.finish(false),
    }
}

/// Checks every answer of `phase`: each distinct result against the
/// brute-force oracle, a sample of them against P-CTA's regions, and each
/// repeat against the first answer.
fn check(s: &Setup, phase: &Phase, seed: u64, report: &mut Report) {
    let oracle: Vec<Vec<Vec<f64>>> = s
        .instances
        .iter()
        .map(|inst| candidates(&inst.raw, K))
        .collect();
    let ok: Vec<bool> = phase
        .results
        .iter()
        .enumerate()
        .map(|(index, result)| {
            let Some(result) = result else { return false };
            let (i, f) = s.ops[index];
            exact_agrees(
                result,
                &oracle[i],
                &s.instances[i].focals[f],
                K,
                mix(seed, index as u64),
            )
        })
        .collect();
    // LP-CTA must cover every region P-CTA reports, on a seeded sample.
    let mut ok = ok;
    let mut distinct: Vec<usize> = (0..phase.results.len())
        .filter(|&i| phase.results[i].is_some())
        .collect();
    shuffle(&mut distinct, mix(seed, 0xC0));
    for &index in distinct.iter().take(CROSS_CHECKS) {
        let (i, f) = s.ops[index];
        let focal = &s.instances[i].focals[f];
        let reference = s.instances[i].engine.run(Algorithm::Pcta, focal, K);
        if let Some(result) = &phase.results[index] {
            ok[index] &= covers(result, &reference, &oracle[i], focal, K);
        }
    }
    report.attempted += phase.done.len() as u64;
    for (&index, print) in phase.done.iter().zip(&phase.prints) {
        let first = phase.results[index].as_ref().map(fingerprint);
        if !(ok[index] && print.is_some() && *print == first) {
            report.failed += 1;
        }
    }
}

pub fn run(run: &Run, report: &mut Report) {
    report.trace = run.trace;
    let (s, setups) = repeat_setup(SETUPS, || setup(run.seed));
    let untraced = measure(&s, run.phase(), Algorithm::LpCta);
    check(&s, &untraced, run.seed, report);
    self_check(&s, &untraced, report);

    let query = &untraced.latencies;
    report.query_latency(query, &untraced.adjust);
    report.common(
        &setups,
        untraced.done.len() as u64,
        untraced.elapsed,
        &untraced.adjust,
    );
    report.detail(
        "focals_distinct",
        untraced.results.iter().filter(|r| r.is_some()).count() as f64,
        "count",
        s.ops.len(),
    );
    if !run.trace {
        return;
    }

    // Traced half: the same op list from its start, then the P-CTA
    // reference on the same focals.
    let traced = measure(&s, run.phase(), Algorithm::LpCta);
    check(&s, &traced, run.seed, report);
    let stats: Vec<QueryStats> = traced
        .results
        .iter()
        .flatten()
        .map(|r| r.stats.clone())
        .collect();
    let lp_calls = |s: &QueryStats| (s.feasibility_tests + s.bound_lp_calls) as f64;

    let mut pcta_ms = Vec::new();
    let mut pcta_lp_calls = 0.0;
    let mut lpcta_ms = Vec::new();
    for (index, result) in traced.results.iter().enumerate() {
        let Some(result) = result else { continue };
        let (i, f) = s.ops[index];
        let inst = &s.instances[i];
        let t = Instant::now();
        let reference = inst.engine.run(Algorithm::Pcta, &inst.focals[f], K);
        pcta_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pcta_lp_calls += lp_calls(&reference.stats);
        lpcta_ms.push(result.stats.wall_time_ns as f64 / 1e6);
    }

    engine_layers(&stats, report);
    report.layer("core.pcta_ms_per_query", mean(&pcta_ms), pcta_ms.len());
    report.layer(
        "core.lpcta_over_pcta_ms",
        lpcta_ms.iter().sum::<f64>() / pcta_ms.iter().sum::<f64>(),
        pcta_ms.len(),
    );
    report.layer(
        "core.lpcta_over_pcta_lp_calls",
        ratio(stats.iter().map(lp_calls).sum(), pcta_lp_calls),
        pcta_ms.len(),
    );
    // Both at nominal host speed: the phases ran at different times.
    let traced_p50 = traced.adjust.time(traced.latencies.quantile_ms(0.5));
    let untraced_p50 = untraced.adjust.time(query.quantile_ms(0.5));
    report.layer(
        "telemetry.trace_overhead_pct",
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
        traced.latencies.len(),
    );
    report.layer(
        "telemetry.traced_query_p50_ms",
        traced_p50,
        traced.latencies.len(),
    );
    report.detail("pcta_p50_ms", median(&pcta_ms), "ms", pcta_ms.len());
    report.finish_layers();
}

/// The checks must reject corrupted copies of the run's smallest and
/// largest answers.
fn self_check(s: &Setup, phase: &Phase, report: &mut Report) {
    let distinct = || {
        phase
            .results
            .iter()
            .enumerate()
            .filter_map(|(index, r)| Some((index, r.as_ref()?.num_regions())))
    };
    let sample = |index: usize| {
        let (i, f) = s.ops[index];
        Sample {
            result: phase.results[index].as_ref().expect("a distinct result"),
            records: &s.instances[i].raw,
            focal: &s.instances[i].focals[f],
        }
    };
    let smallest = distinct().min_by_key(|&(_, n)| n).map(|(index, _)| index);
    let largest = distinct()
        .max_by_key(|&(_, n)| n)
        .filter(|&(_, n)| n > 0)
        .map(|(index, _)| index);
    for missed in self_test(smallest.map(sample), largest.map(sample)) {
        report.check(false, format!("self-test: {missed}"));
    }
}

//! Per-layer metrics shared by the workloads: server telemetry, engine
//! statistics blocks, and the update-stream replay that times the spatial
//! layer without the serving stack around it.

use crate::report::{mean, median, ratio, Report};
use crate::serving::{config, Update};
use crate::K;
use kspr::{Algorithm, QueryStats};
use kspr_serve::{ServeHandle, ShardedEngine, TraceRecord};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Server-side layer metrics: stage histograms, batching, WAL commits and
/// standing-query maintenance, read from the server's own telemetry.
pub fn serve_layers(handle: &ServeHandle, report: &mut Report) {
    let metrics = handle.metrics();
    let stats = handle.stats_now();
    let hist_us = |name: &str, q: f64| {
        metrics
            .histogram(name)
            .map_or(0.0, |h| h.quantile(q) as f64 / 1e3)
    };
    let count = |name: &str| metrics.histogram(name).map_or(0, |h| h.count() as usize);
    report.layer(
        "serve.queue_us_p90",
        hist_us("kspr_stage_queue_ns", 0.9),
        count("kspr_stage_queue_ns"),
    );
    report.layer(
        "serve.admission_us_p90",
        hist_us("kspr_stage_admission_ns", 0.9),
        count("kspr_stage_admission_ns"),
    );
    report.layer(
        "serve.ack_us_p50",
        hist_us("kspr_stage_ack_ns", 0.5),
        count("kspr_stage_ack_ns"),
    );
    report.layer(
        "serve.batch_size_mean",
        ratio(stats.queries as f64, stats.batches as f64),
        stats.batches as usize,
    );
    report.layer(
        "serve.updates_per_commit",
        ratio(stats.updates as f64, stats.wal_commits as f64),
        stats.wal_commits as usize,
    );
    report.layer(
        "durable.wal_commit_us_p50",
        hist_us("kspr_wal_commit_ns", 0.5),
        count("kspr_wal_commit_ns"),
    );
    report.layer(
        "durable.wal_commit_us_p90",
        hist_us("kspr_wal_commit_ns", 0.9),
        count("kspr_wal_commit_ns"),
    );
    report.layer(
        "durable.wal_bytes_per_update",
        ratio(
            metrics.gauge("kspr_wal_bytes").unwrap_or(0) as f64,
            stats.updates as f64,
        ),
        stats.updates as usize,
    );
    let updates = stats.updates as f64;
    let m = stats.monitor;
    if m.registered > 0 {
        report.layer(
            "monitor.visited_per_update",
            ratio(m.visited as f64, updates),
            stats.updates as usize,
        );
        report.layer(
            "monitor.patched_share",
            ratio(m.patched as f64, (m.patched + m.reruns) as f64),
            (m.patched + m.reruns) as usize,
        );
        report.layer("monitor.engine_runs", m.engine_runs as f64, 1);
        report.layer(
            "monitor.ms_per_update",
            ratio(
                metrics.counter("kspr_maintenance_ns").unwrap_or(0) as f64 / 1e6,
                updates,
            ),
            stats.updates as usize,
        );
    }
}

/// Engine-side metrics of exact queries (`core.*`, `lp.*` and the
/// dominance / I/O counters of `spatial.*`) from their statistics blocks.
pub fn engine_layers(stats: &[QueryStats], report: &mut Report) {
    let n = stats.len();
    let avg = |f: &dyn Fn(&QueryStats) -> f64| mean(&stats.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&QueryStats) -> f64| stats.iter().map(f).sum::<f64>();
    let lp_calls = |s: &QueryStats| (s.feasibility_tests + s.bound_lp_calls) as f64;
    report.layer("core.query_ms", avg(&|s| s.wall_time_ns as f64 / 1e6), n);
    report.layer("core.prep_ms", avg(&|s| s.phases.prep_ns as f64 / 1e6), n);
    report.layer(
        "core.expansion_ms",
        avg(&|s| s.phases.expansion_ns as f64 / 1e6),
        n,
    );
    report.layer(
        "core.processed_records",
        avg(&|s| s.processed_records as f64),
        n,
    );
    report.layer("core.celltree_nodes", avg(&|s| s.celltree_nodes as f64), n);
    report.layer(
        "core.witness_hit_ratio",
        ratio(
            sum(&|s| s.witness_hits as f64),
            sum(&|s| (s.witness_hits + s.feasibility_tests) as f64),
        ),
        n,
    );
    report.layer("core.bound_lp_calls", avg(&|s| s.bound_lp_calls as f64), n);
    report.layer(
        "core.bound_decided_ratio",
        ratio(
            sum(&|s| (s.cells_pruned_by_bounds + s.cells_reported_by_bounds) as f64),
            sum(&|s| s.bound_lp_calls as f64),
        ),
        n,
    );
    report.layer("lp.ms_per_query", avg(&|s| s.phases.lp_ns as f64 / 1e6), n);
    report.layer("lp.calls_per_query", avg(&lp_calls), n);
    report.layer("lp.pivots_per_query", avg(&|s| s.lp_pivots as f64), n);
    report.layer(
        "lp.us_per_call",
        ratio(sum(&|s| s.phases.lp_ns as f64 / 1e3), sum(&lp_calls)),
        n,
    );
    report.layer(
        "spatial.dominance_us",
        avg(&|s| s.phases.dominance_ns as f64 / 1e3),
        n,
    );
    report.layer("spatial.io_reads_per_query", avg(&|s| s.io_reads as f64), n);
}

/// Replays `updates` on a fresh `ShardedEngine` over `raw`, timing each
/// insert and delete, then runs `focals` (if any) on the result: the
/// spatial and engine layers without the serving stack around them.
pub fn replay(raw: &[Vec<f64>], updates: &[Update], focals: &[Vec<f64>], report: &mut Report) {
    let mut engine = ShardedEngine::new(raw.to_vec(), config());
    let mut inserted = Vec::new();
    let mut insert_us = Vec::new();
    let mut delete_us = Vec::new();
    for update in updates {
        let t = Instant::now();
        match update {
            Update::Insert(values) => {
                inserted.push(engine.insert(values.clone()));
                insert_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Update::DeleteInsert(n) => {
                let removed = engine.delete(inserted[*n]);
                delete_us.push(t.elapsed().as_secs_f64() * 1e6);
                report.check(removed, "replayed delete of an insert removed nothing");
            }
            Update::DeleteOriginal(id) => {
                let removed = engine.delete(*id as kspr::RecordId);
                delete_us.push(t.elapsed().as_secs_f64() * 1e6);
                report.check(removed, "replayed delete of an original removed nothing");
            }
        }
    }
    report.layer("spatial.insert_us", median(&insert_us), insert_us.len());
    report.layer("spatial.delete_us", median(&delete_us), delete_us.len());
    if !focals.is_empty() {
        let stats: Vec<QueryStats> = focals
            .iter()
            .map(|f| engine.run(Algorithm::LpCta, f, K).stats)
            .collect();
        engine_layers(&stats, report);
    }
}

/// Writes the retained span trees as chrome-trace JSON next to the scratch
/// directories (`.bench_build/perfbench/<workload>.trace.json`).
pub fn write_trace(workload: &str, records: &[Arc<TraceRecord>]) {
    let path = Path::new(".bench_build/perfbench").join(format!("{workload}.trace.json"));
    let _ = std::fs::write(path, kspr_telemetry::chrome_trace_json(records));
}

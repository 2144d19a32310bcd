//! Serving-side telemetry: the one [`ServeStats`] counter store, the metric
//! registry every pipeline stage records into, and the slow-query log.
//!
//! [`ServeMetrics`] owns the counters as a plain [`ServeStats`] behind a
//! mutex.  The dispatcher thread is the only writer: it updates the struct
//! in short critical sections *before* it sends each answer, and readers
//! copy it under the same lock.  The mutex's release/acquire edge orders
//! every write before the client's receive, so a snapshot taken after a
//! ticket resolved always includes that request — without a round-trip
//! through the request queue.  (The only lag is bookkeeping no answer waits
//! on: notification counts and the monitor's classification stats update
//! after the acknowledging sends.)
//!
//! Beside the counters, [`ServeMetrics`] holds the pre-resolved
//! [`kspr_telemetry`] handles the hot path records into — per-[`Stage`]
//! latency histograms, per-tier and per-algorithm totals, WAL commit
//! latency, engine wall time — plus the WAL gauges and the bounded ring
//! buffer of [`SlowQuery`] entries.

use crate::stats::ServeStats;
use kspr::{Algorithm, PhaseNanos, QueryStats, QueryTier};
use kspr_telemetry::{
    Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, RequestTrace,
    Stage, StageTimings, TraceId, TraceRecord,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

fn unpoisoned<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// The tier classes queries are bucketed under (by the tier they were
/// *submitted* with — an admission-degraded query still counts under the
/// class its client asked for).
pub(crate) const TIER_NAMES: [&str; 3] = ["exact", "approximate", "auto"];

/// Index into [`TIER_NAMES`] for a submitted tier.
pub(crate) fn tier_index(tier: &QueryTier) -> usize {
    match tier {
        QueryTier::Exact => 0,
        QueryTier::Approximate { .. } => 1,
        QueryTier::Auto { .. } => 2,
    }
}

/// Metric-name component per algorithm (indexed by `Algorithm as usize`).
const ALGORITHM_NAMES: [&str; 6] = ["cta", "pcta", "lp_cta", "k_skyband", "rtopk", "i_max_rank"];

/// How many [`SlowQuery`] entries the ring buffer retains: old entries are
/// evicted oldest-first once the log is full.
pub const SLOW_LOG_CAPACITY: usize = 32;

/// How many complete span trees the flight recorder retains (most recent
/// wins).
pub const FLIGHT_RECORDER_CAPACITY: usize = 64;

/// WAL size watermark, bytes: once the live WAL (the `kspr_wal_bytes`
/// gauge) grows past it, the server logs one warning per snapshot epoch
/// suggesting a compaction.
const WAL_WARN_BYTES: u64 = 64 << 20;

/// Trace ids the server assigns to requests that arrive without one.  They
/// start far above any plausible client-side counter so the two id spaces
/// don't collide in the flight recorder.
pub(crate) fn next_server_trace_id() -> TraceId {
    static NEXT: AtomicU64 = AtomicU64::new(1 << 48);
    TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// One retained slow query: what ran, how long each pipeline stage took,
/// and the engine's per-query side metrics when the exact engine produced
/// them.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The algorithm the query ran (for approximate answers: the algorithm
    /// it was submitted with — the sampler is algorithm-agnostic).
    pub algorithm: Algorithm,
    /// The query's `k`.
    pub k: usize,
    /// The tier class it was submitted under (see metric names
    /// `kspr_tier_*_ns`): `"exact"`, `"approximate"`, or `"auto"`.
    pub tier: &'static str,
    /// End-to-end latency, enqueue to acknowledgement, in nanoseconds.
    pub total_ns: u64,
    /// Per-stage breakdown of that latency.
    pub stages: StageTimings,
    /// The engine's side metrics (exact answers only; the approximate tier
    /// reports no `QueryStats`).
    pub stats: Option<QueryStats>,
    /// The id of this query's span tree in the flight recorder, when one
    /// was retained — look it up with `ServeHandle::trace`.
    pub trace_id: Option<TraceId>,
}

/// Everything the serving stack records: the [`ServeStats`] counters, the
/// registry of latency histograms and WAL gauges, the slow-query threshold,
/// the slow-query ring buffer, and the flight recorder.
pub(crate) struct ServeMetrics {
    /// The serving counters (written by the dispatcher only).
    stats: Mutex<ServeStats>,
    registry: MetricsRegistry,
    /// Per-pipeline-stage latency histograms, indexed by [`Stage::index`]
    /// (`kspr_stage_<stage>_ns`).
    stages: [Arc<Histogram>; Stage::COUNT],
    /// End-to-end latency by submitted tier class (`kspr_tier_<tier>_ns`).
    tiers: [Arc<Histogram>; TIER_NAMES.len()],
    /// End-to-end latency by algorithm (`kspr_algorithm_<name>_ns`).
    algorithms: [Arc<Histogram>; ALGORITHM_NAMES.len()],
    /// The exact engine's own wall time per query (`kspr_engine_wall_ns`,
    /// from [`QueryStats`] — excludes queueing and batching).
    engine_wall: Arc<Histogram>,
    /// Per-engine-phase wall time (`kspr_phase_<phase>_ns`, indexed in
    /// [`PhaseNanos::NAMES`] order).
    phases: [Arc<Histogram>; PhaseNanos::NAMES.len()],
    /// Simplex pivots per exact query (`kspr_lp_pivots` — work, not time).
    lp_pivots: Arc<Histogram>,
    /// WAL commit (write + fsync) latency (`kspr_wal_commit_ns`).
    wal_commit: Arc<Histogram>,
    /// Fsyncs issued by the WAL writer (`kspr_wal_fsyncs`).
    wal_fsyncs: Arc<Counter>,
    /// Cumulative standing-query maintenance time (`kspr_maintenance_ns`).
    maintenance_ns: Arc<Counter>,
    /// Bytes in the WAL since the last snapshot (`kspr_wal_bytes`).
    wal_bytes: Arc<Gauge>,
    /// Snapshots installed since the store opened (`kspr_snapshot_epoch`).
    snapshot_epoch: Arc<Gauge>,
    /// Pending request-queue depth at snapshot time (`kspr_queue_depth`).
    queue_depth: Arc<Gauge>,
    /// Queries at least this slow (enqueue to ack) enter the slow-query
    /// log; `None` disables the log.
    slow_threshold_ns: Option<u64>,
    slow: Mutex<VecDeque<SlowQuery>>,
    /// The bounded ring of retained span trees (client-pinned traces plus
    /// every trace that crossed the slow-query threshold).
    recorder: FlightRecorder,
    /// Set once the WAL passed [`WAL_WARN_BYTES`] this epoch.
    wal_warned: AtomicBool,
}

impl ServeMetrics {
    pub(crate) fn new(slow_query_threshold: Option<Duration>) -> Self {
        let registry = MetricsRegistry::new();
        let stages = Stage::ALL.map(|stage| {
            let name = format!("kspr_stage_{}_ns", stage.name());
            registry.describe(
                &name,
                &format!(
                    "Latency of the {} pipeline stage, in nanoseconds",
                    stage.name()
                ),
            );
            registry.histogram(&name)
        });
        let tiers = TIER_NAMES.map(|tier| {
            let name = format!("kspr_tier_{tier}_ns");
            registry.describe(
                &name,
                &format!(
                    "End-to-end latency of queries submitted under the {tier} tier, in nanoseconds"
                ),
            );
            registry.histogram(&name)
        });
        let algorithms = ALGORITHM_NAMES.map(|algorithm| {
            let name = format!("kspr_algorithm_{algorithm}_ns");
            registry.describe(
                &name,
                &format!("End-to-end latency of {algorithm} queries, in nanoseconds"),
            );
            registry.histogram(&name)
        });
        let phases = PhaseNanos::NAMES.map(|phase| {
            let name = format!("kspr_phase_{phase}_ns");
            registry.describe(
                &name,
                &format!(
                    "Engine wall time spent in the {phase} phase per exact query, in nanoseconds"
                ),
            );
            registry.histogram(&name)
        });
        for (name, help) in [
            (
                "kspr_engine_wall_ns",
                "Exact engine wall time per query, excluding queueing and batching, in nanoseconds",
            ),
            (
                "kspr_lp_pivots",
                "Simplex pivots across the LP feasibility tests of one exact query",
            ),
            (
                "kspr_wal_commit_ns",
                "WAL commit (write + fsync) latency per update batch, in nanoseconds",
            ),
            ("kspr_wal_fsyncs", "Fsyncs issued by the WAL writer"),
            (
                "kspr_maintenance_ns",
                "Cumulative standing-query maintenance time, in nanoseconds",
            ),
            ("kspr_wal_bytes", "Bytes in the WAL since the last snapshot"),
            (
                "kspr_snapshot_epoch",
                "Snapshots installed since the store opened",
            ),
            (
                "kspr_queue_depth",
                "Pending request-queue depth at scrape time",
            ),
        ] {
            registry.describe(name, help);
        }
        let engine_wall = registry.histogram("kspr_engine_wall_ns");
        let lp_pivots = registry.histogram("kspr_lp_pivots");
        let wal_commit = registry.histogram("kspr_wal_commit_ns");
        let wal_fsyncs = registry.counter("kspr_wal_fsyncs");
        let maintenance_ns = registry.counter("kspr_maintenance_ns");
        let wal_bytes = registry.gauge("kspr_wal_bytes");
        let snapshot_epoch = registry.gauge("kspr_snapshot_epoch");
        let queue_depth = registry.gauge("kspr_queue_depth");
        Self {
            stats: Mutex::default(),
            registry,
            stages,
            tiers,
            algorithms,
            engine_wall,
            phases,
            lp_pivots,
            wal_commit,
            wal_fsyncs,
            maintenance_ns,
            wal_bytes,
            snapshot_epoch,
            queue_depth,
            slow_threshold_ns: slow_query_threshold
                .map(|t| u64::try_from(t.as_nanos()).unwrap_or(u64::MAX)),
            slow: Mutex::new(VecDeque::with_capacity(SLOW_LOG_CAPACITY)),
            recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            wal_warned: AtomicBool::new(false),
        }
    }

    /// Updates the serving counters in one critical section.  The
    /// dispatcher calls this before it sends the answers the update
    /// accounts for, so a client holding an answer always sees it counted.
    pub(crate) fn count(&self, update: impl FnOnce(&mut ServeStats)) {
        update(&mut unpoisoned(&self.stats));
    }

    /// A copy of the serving counters.
    pub(crate) fn stats(&self) -> ServeStats {
        *unpoisoned(&self.stats)
    }

    /// Records the listed stages of one finished request into the per-stage
    /// histograms.  Callers list exactly the stages their path stamped, so
    /// no histogram collects structural zeros from stages a path never
    /// visits (updates have no admission stage, queries no WAL stage).
    pub(crate) fn record_stages(&self, timings: &StageTimings, stages: &[Stage]) {
        for &stage in stages {
            self.stages[stage.index()].record(timings.stage_nanos(stage));
        }
    }

    /// Records one answered query's end-to-end latency under its tier class
    /// and algorithm, and retains it in the slow-query log when it crossed
    /// the threshold.
    pub(crate) fn record_query(&self, slow: SlowQuery) {
        self.tiers[TIER_NAMES
            .iter()
            .position(|&t| t == slow.tier)
            .expect("tier labels come from TIER_NAMES")]
        .record(slow.total_ns);
        self.algorithms[slow.algorithm as usize].record(slow.total_ns);
        if let Some(stats) = &slow.stats {
            self.engine_wall.record(stats.wall_time_ns);
        }
        if self.slow_threshold_ns.is_some_and(|t| slow.total_ns >= t) {
            let mut log = unpoisoned(&self.slow);
            while log.len() >= SLOW_LOG_CAPACITY {
                log.pop_front();
            }
            log.push_back(slow);
        }
    }

    /// Records one exact answer's per-phase engine breakdown and its LP
    /// pivot count.
    pub(crate) fn record_phases(&self, stats: &QueryStats) {
        for (histogram, (_, nanos)) in self.phases.iter().zip(stats.phases.iter()) {
            histogram.record(nanos);
        }
        self.lp_pivots.record(stats.lp_pivots as u64);
    }

    /// Closes a finished request's span tree and retains it in the flight
    /// recorder when it is worth keeping: the client pinned it (sent a
    /// trace id on the wire) or the request crossed the slow-query
    /// threshold.  Returns the trace id iff the tree was retained.
    pub(crate) fn finish_trace(&self, trace: RequestTrace, total_ns: u64) -> Option<TraceId> {
        let keep = trace.pinned() || self.slow_threshold_ns.is_some_and(|t| total_ns >= t);
        if !keep {
            return None;
        }
        let record = trace.finish()?;
        let trace_id = record.trace_id;
        self.recorder.record(record);
        Some(trace_id)
    }

    /// The flight recorder's retained span trees, oldest first.
    pub(crate) fn traces(&self) -> Vec<Arc<TraceRecord>> {
        self.recorder.snapshot()
    }

    /// The retained span tree of `trace_id`, if the recorder still holds it.
    pub(crate) fn trace(&self, trace_id: TraceId) -> Option<Arc<TraceRecord>> {
        self.recorder.find(trace_id)
    }

    /// The retained slow queries, oldest first.
    pub(crate) fn slow_queries(&self) -> Vec<SlowQuery> {
        unpoisoned(&self.slow).iter().cloned().collect()
    }

    /// Times one standing-query maintenance pass into the `Notify` stage
    /// histogram and the cumulative maintenance counter.
    pub(crate) fn record_maintenance(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.stages[Stage::Notify.index()].record(nanos);
        self.maintenance_ns.add(nanos);
    }

    /// Publishes the WAL's state after one commit: the `wal_commits`
    /// counter, commit latency, fsync count, size gauge — and a
    /// (once-per-epoch) warning when the log outgrows [`WAL_WARN_BYTES`]
    /// without a compaction truncating it.
    pub(crate) fn wal_committed(&self, bytes: u64, commit_nanos: u64, synced: bool) {
        self.count(|s| s.wal_commits += 1);
        self.wal_commit.record(commit_nanos);
        self.wal_bytes.set(bytes);
        if synced {
            self.wal_fsyncs.inc();
        }
        if bytes > WAL_WARN_BYTES && !self.wal_warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "kspr-serve: WAL has grown to {bytes} bytes (watermark \
                 {WAL_WARN_BYTES}); recovery replay is getting long — \
                 consider a lower compaction threshold or a manual snapshot"
            );
        }
    }

    /// Publishes the WAL's state after a snapshot install truncated it,
    /// counting the snapshot.
    pub(crate) fn snapshot_installed(&self, wal_bytes: u64, epoch: u64) {
        self.count(|s| s.snapshots += 1);
        self.wal_bytes.set(wal_bytes);
        self.snapshot_epoch.set(epoch);
        self.wal_warned.store(false, Ordering::Relaxed);
    }

    /// A [`MetricsSnapshot`] of every registered metric, folding in the
    /// [`ServeStats`] counters (as `kspr_<name>`, through
    /// [`ServeStats::fields`]) and the current queue depth so one export
    /// carries the whole serving picture.  The `largest_*` high-water marks
    /// export as gauges, every other counter as a counter.
    pub(crate) fn snapshot(&self, queue_depth: u64) -> MetricsSnapshot {
        self.queue_depth.set(queue_depth);
        let mut snap = self.registry.snapshot();
        for (name, value) in self.stats().fields() {
            let series = if name.starts_with("largest_") {
                &mut snap.gauges
            } else {
                &mut snap.counters
            };
            series.push((format!("kspr_{name}"), value));
        }
        snap.counters.sort();
        snap.gauges.sort();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;

    #[test]
    fn counted_stats_read_back_exactly() {
        let metrics = ServeMetrics::new(None);
        metrics.count(|s| {
            s.queries += 4;
            s.exact_queries += 3;
            s.approx_queries += 1;
            s.reject(&ServeError::InvalidK);
            s.reject(&ServeError::Overloaded);
            s.reject(&ServeError::Overloaded);
            s.largest_batch = s.largest_batch.max(5);
        });
        metrics.count(|s| s.largest_batch = s.largest_batch.max(3));
        // The WAL hooks count their own commits and snapshots.
        metrics.wal_committed(10, 1, true);
        metrics.snapshot_installed(0, 1);

        let snap = metrics.stats();
        assert_eq!(snap.queries, 4);
        assert_eq!(snap.exact_queries, 3);
        assert_eq!(snap.approx_queries, 1);
        assert_eq!(snap.rejected, 3);
        assert_eq!(snap.rejections.invalid_k, 1);
        assert_eq!(snap.rejections.overloaded, 2);
        assert_eq!(snap.rejections.total(), snap.rejected);
        assert_eq!(snap.largest_batch, 5, "a high-water mark, not last-write");
        assert_eq!(snap.wal_commits, 1);
        assert_eq!(snap.snapshots, 1);
    }

    #[test]
    fn slow_query_log_applies_threshold_and_capacity() {
        let metrics = ServeMetrics::new(Some(Duration::from_nanos(1_000)));
        let query = |total_ns| SlowQuery {
            algorithm: Algorithm::LpCta,
            k: 2,
            tier: TIER_NAMES[0],
            total_ns,
            stages: StageTimings::default(),
            stats: None,
            trace_id: None,
        };
        metrics.record_query(query(999)); // below threshold: not retained
        for i in 0..SLOW_LOG_CAPACITY + 3 {
            metrics.record_query(query(1_000 + i as u64));
        }
        let log = metrics.slow_queries();
        assert_eq!(log.len(), SLOW_LOG_CAPACITY, "the ring buffer is bounded");
        assert_eq!(
            log.first().unwrap().total_ns,
            1_003,
            "eviction is oldest-first"
        );
        // Every recorded query lands in its tier histogram regardless of
        // the slow log.
        let snap = metrics.snapshot(0);
        assert_eq!(
            snap.histogram("kspr_tier_exact_ns").unwrap().count(),
            SLOW_LOG_CAPACITY as u64 + 4
        );
    }

    #[test]
    fn disabled_threshold_retains_nothing() {
        let metrics = ServeMetrics::new(None);
        metrics.record_query(SlowQuery {
            algorithm: Algorithm::Cta,
            k: 1,
            tier: TIER_NAMES[2],
            total_ns: u64::MAX,
            stages: StageTimings::default(),
            stats: None,
            trace_id: None,
        });
        assert!(metrics.slow_queries().is_empty());
    }

    #[test]
    fn snapshot_folds_serve_counters_and_peak_gauges_in() {
        let metrics = ServeMetrics::new(None);
        metrics.count(|s| {
            s.queries = 9;
            s.largest_batch = 4;
            s.reject(&ServeError::QuotaExceeded);
            s.reject(&ServeError::QuotaExceeded);
        });
        let snap = metrics.snapshot(3);
        assert_eq!(snap.counter("kspr_queries"), Some(9));
        assert_eq!(snap.counter("kspr_rejected_quota_exceeded"), Some(2));
        assert_eq!(snap.gauge("kspr_largest_batch"), Some(4));
        assert_eq!(snap.gauge("kspr_queue_depth"), Some(3));
        // Folded counters keep the sorted-export invariant.
        let names: Vec<&String> = snap.counters.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn flight_recorder_keeps_pinned_and_slow_traces() {
        let metrics = ServeMetrics::new(Some(Duration::from_nanos(1_000)));
        // A client-pinned trace is kept regardless of latency.
        let pinned = RequestTrace::traced(TraceId(7), true);
        assert_eq!(metrics.finish_trace(pinned, 0), Some(TraceId(7)));
        // An unpinned fast trace is dropped ...
        let fast = RequestTrace::traced(TraceId(8), false);
        assert_eq!(metrics.finish_trace(fast, 0), None);
        // ... an unpinned slow one is kept ...
        let slow = RequestTrace::traced(TraceId(9), false);
        assert_eq!(metrics.finish_trace(slow, 5_000), Some(TraceId(9)));
        // ... and an untraced request never enters the recorder.
        assert_eq!(metrics.finish_trace(RequestTrace::start(), 5_000), None);
        assert!(metrics.trace(TraceId(7)).is_some());
        assert!(metrics.trace(TraceId(8)).is_none());
        assert_eq!(metrics.traces().len(), 2);
    }

    #[test]
    fn phase_histograms_record_engine_breakdowns() {
        let metrics = ServeMetrics::new(None);
        let mut stats = QueryStats::new();
        stats.phases.prep_ns = 100;
        stats.phases.expansion_ns = 400;
        stats.phases.lp_ns = 250;
        stats.phases.dominance_ns = 30;
        stats.lp_pivots = 17;
        metrics.record_phases(&stats);
        let snap = metrics.snapshot(0);
        for phase in PhaseNanos::NAMES {
            let histogram = snap.histogram(&format!("kspr_phase_{phase}_ns")).unwrap();
            assert_eq!(histogram.count(), 1, "{phase}");
        }
        assert_eq!(snap.histogram("kspr_lp_pivots").unwrap().sum(), 17);
    }

    #[test]
    fn server_trace_ids_are_unique_and_high() {
        let a = next_server_trace_id();
        let b = next_server_trace_id();
        assert_ne!(a, b);
        assert!(a.0 >= 1 << 48);
    }

    #[test]
    fn wal_watermark_warns_once_per_epoch() {
        let metrics = ServeMetrics::new(None);
        metrics.wal_committed(WAL_WARN_BYTES / 2, 10, true);
        assert!(!metrics.wal_warned.load(Ordering::Relaxed));
        metrics.wal_committed(WAL_WARN_BYTES + 1, 10, true);
        assert!(metrics.wal_warned.load(Ordering::Relaxed));
        metrics.snapshot_installed(0, 1);
        assert!(
            !metrics.wal_warned.load(Ordering::Relaxed),
            "a snapshot truncates the WAL and re-arms the warning"
        );
        let snap = metrics.snapshot(0);
        assert_eq!(snap.counter("kspr_wal_fsyncs"), Some(2));
        assert_eq!(snap.gauge("kspr_wal_bytes"), Some(0));
        assert_eq!(snap.gauge("kspr_snapshot_epoch"), Some(1));
        assert_eq!(snap.histogram("kspr_wal_commit_ns").unwrap().count(), 2);
        assert_eq!(snap.counter("kspr_wal_commits"), Some(2));
        assert_eq!(snap.counter("kspr_snapshots"), Some(1));
    }
}

//! Per-query statistics.
//!
//! The paper's evaluation reports, next to response time, several side
//! metrics: the number of processed records (hyperplanes inserted into the
//! CellTree, Figure 11a), the number of CellTree nodes (Figure 11b), LP-call
//! counts and constraint counts (Figure 17), and simulated I/O (Figure 19).
//! [`QueryStats`] collects all of them for a single kSPR query.

/// Wall-clock nanoseconds spent in each engine phase while answering one
/// query: Section-3.1 shared preparation (with the columnar dominance
/// kernel broken out), CellTree expansion, and the LP feasibility tests
/// inside it.
///
/// The phases **overlap** rather than partition: `dominance_ns` is part of
/// `prep_ns`, and `lp_ns` accrues mostly inside `expansion_ns` — they are
/// span windows, not a disjoint sum.
///
/// Like [`QueryStats::wall_time_ns`] these are timing metadata, not work:
/// two runs of the same query never measure the same nanoseconds.  Unlike
/// `wall_time_ns` (a plain field that consistency tests zero by hand), the
/// phase block is excluded from comparison *by construction*: its
/// `PartialEq` always answers `true`, so every bit-identical-stats assertion
/// in the repo ignores it without changes.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseNanos {
    /// Section-3.1 shared preparation: dominance classification, skyband
    /// restriction, prep-cache work.
    pub prep_ns: u64,
    /// CellTree expansion: hyperplane insertion through result collection.
    pub expansion_ns: u64,
    /// LP cell feasibility tests (§4.2) only.  The look-ahead bound
    /// optimizations (§6) are not timed here: they count in `expansion_ns`
    /// and, as calls, in [`QueryStats::bound_lp_calls`].
    pub lp_ns: u64,
    /// The columnar dominance kernel inside preparation.
    pub dominance_ns: u64,
}

impl PhaseNanos {
    /// Accumulates another phase block (phase-wise sum).
    pub fn merge(&mut self, other: &PhaseNanos) {
        self.prep_ns += other.prep_ns;
        self.expansion_ns += other.expansion_ns;
        self.lp_ns += other.lp_ns;
        self.dominance_ns += other.dominance_ns;
    }

    /// `(name, nanos)` pairs in a stable order, for histogram recording and
    /// reports.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        [
            ("prep", self.prep_ns),
            ("expansion", self.expansion_ns),
            ("lp", self.lp_ns),
            ("dominance", self.dominance_ns),
        ]
        .into_iter()
    }
}

/// Timing metadata never participates in equality: two identical engine
/// runs measure different nanoseconds, and every consistency suite in the
/// repo compares whole [`QueryStats`] blocks for bit-identity.
impl PartialEq for PhaseNanos {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Counters collected while answering one kSPR query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Records whose hyperplane was inserted into the CellTree.
    pub processed_records: usize,
    /// Records removed by the dominance preprocessing of Section 3.1
    /// (dominators of the focal record).
    pub dominating_records: usize,
    /// Records removed because the focal record dominates them.
    pub dominated_records: usize,
    /// Total number of CellTree nodes created.
    pub celltree_nodes: usize,
    /// Number of LP feasibility tests executed.
    pub feasibility_tests: usize,
    /// Feasibility tests skipped thanks to the cached witness point (§4.3.2).
    pub witness_hits: usize,
    /// Total number of record-induced constraints passed to the LP solver
    /// across all feasibility tests (used for the Figure 17 ablation).
    pub lp_constraints: usize,
    /// Number of LP optimizations run for look-ahead score bounds (§6).
    pub bound_lp_calls: usize,
    /// Cells pruned early because their lower rank bound exceeded `k` (§6.1).
    pub cells_pruned_by_bounds: usize,
    /// Cells reported early because their upper rank bound was at most `k`.
    pub cells_reported_by_bounds: usize,
    /// Cells reported early by the pivot-based test of Lemma 5 (P-CTA).
    pub cells_reported_by_pivots: usize,
    /// Number of record batches processed (P-CTA / LP-CTA).
    pub batches: usize,
    /// Simulated page reads on the data R-tree.
    pub io_reads: u64,
    /// Simulated I/O time in milliseconds (0 unless an I/O model is set).
    pub io_time_ms: f64,
    /// Number of regions in the final result.
    pub result_regions: usize,
    /// Hyperplane insertions whose frontier classification ran on the
    /// work-stealing pool (0 when the query ran fully sequentially).
    ///
    /// Scheduling metadata, not work: parallel and sequential insertion
    /// produce bit-identical trees and identical values for every *other*
    /// counter, so consistency tests must (and do) exclude this field.
    pub parallel_inserts: usize,
    /// Times a reused halfspace scratch buffer (path / full halfspace
    /// collection) had to grow its allocation.  Steady-state traversal keeps
    /// this at the warm-up value — the counter exists so tests can assert the
    /// hot path performs zero allocations.
    pub halfspace_scratch_grows: usize,
    /// Wall-clock time of the engine run in nanoseconds, stamped by
    /// [`QueryEngine::run`] and its batch variants.
    ///
    /// Timing metadata, not work: like `parallel_inserts` it is
    /// nondeterministic, so consistency tests must (and do) exclude it when
    /// comparing statistics blocks.
    ///
    /// [`QueryEngine::run`]: crate::QueryEngine::run
    pub wall_time_ns: u64,
    /// Simplex pivots performed across every LP feasibility test of the
    /// query.  Bland's rule makes the count a pure function of each LP
    /// instance, so — unlike the nanosecond fields — it is deterministic,
    /// schedule-independent, and participates in consistency comparisons.
    pub lp_pivots: usize,
    /// Per-phase wall-clock breakdown (prep / expansion / LP / dominance).
    /// Timing metadata: always compares equal (see [`PhaseNanos`]).
    pub phases: PhaseNanos,
}

impl QueryStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Average number of constraints per feasibility test.
    pub fn avg_constraints_per_test(&self) -> f64 {
        if self.feasibility_tests == 0 {
            0.0
        } else {
            self.lp_constraints as f64 / self.feasibility_tests as f64
        }
    }

    /// Merges another statistics block into this one (used when a harness
    /// aggregates several queries).
    pub fn merge(&mut self, other: &QueryStats) {
        self.processed_records += other.processed_records;
        self.dominating_records += other.dominating_records;
        self.dominated_records += other.dominated_records;
        self.celltree_nodes += other.celltree_nodes;
        self.feasibility_tests += other.feasibility_tests;
        self.witness_hits += other.witness_hits;
        self.lp_constraints += other.lp_constraints;
        self.bound_lp_calls += other.bound_lp_calls;
        self.cells_pruned_by_bounds += other.cells_pruned_by_bounds;
        self.cells_reported_by_bounds += other.cells_reported_by_bounds;
        self.cells_reported_by_pivots += other.cells_reported_by_pivots;
        self.batches += other.batches;
        self.io_reads += other.io_reads;
        self.io_time_ms += other.io_time_ms;
        self.result_regions += other.result_regions;
        self.parallel_inserts += other.parallel_inserts;
        self.halfspace_scratch_grows += other.halfspace_scratch_grows;
        self.wall_time_ns += other.wall_time_ns;
        self.lp_pivots += other.lp_pivots;
        self.phases.merge(&other.phases);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_constraints() {
        let mut s = QueryStats::new();
        assert_eq!(s.avg_constraints_per_test(), 0.0);
        s.feasibility_tests = 4;
        s.lp_constraints = 10;
        assert!((s.avg_constraints_per_test() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = QueryStats {
            processed_records: 3,
            io_reads: 5,
            lp_pivots: 4,
            ..Default::default()
        };
        let b = QueryStats {
            processed_records: 2,
            io_reads: 7,
            result_regions: 1,
            lp_pivots: 6,
            phases: PhaseNanos {
                prep_ns: 100,
                expansion_ns: 200,
                lp_ns: 50,
                dominance_ns: 25,
            },
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.processed_records, 5);
        assert_eq!(a.io_reads, 12);
        assert_eq!(a.result_regions, 1);
        assert_eq!(a.lp_pivots, 10);
        assert_eq!(a.phases.prep_ns, 100);
        assert_eq!(a.phases.lp_ns, 50);
    }

    #[test]
    fn phase_timings_never_break_equality() {
        // The whole point of PhaseNanos: bit-identical consistency suites
        // compare QueryStats blocks, and wall-clock phases must not trip
        // them.
        let a = QueryStats {
            processed_records: 1,
            phases: PhaseNanos {
                prep_ns: 123,
                expansion_ns: 456,
                lp_ns: 78,
                dominance_ns: 9,
            },
            ..Default::default()
        };
        let b = QueryStats {
            processed_records: 1,
            ..Default::default()
        };
        assert_eq!(a, b, "phase timings are excluded from comparison");
        let names: Vec<&str> = a.phases.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["prep", "expansion", "lp", "dominance"]);
        // lp_pivots, by contrast, is deterministic work and must compare.
        let c = QueryStats {
            processed_records: 1,
            lp_pivots: 3,
            ..Default::default()
        };
        assert_ne!(a, c);
    }
}

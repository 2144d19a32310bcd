//! Look-ahead rank bounds for LP-CTA (Section 6 of the paper).
//!
//! For a candidate cell `c`, LP-CTA bounds the rank the focal record can take
//! anywhere inside `c` by comparing, for every competitor (or group of
//! competitors), the interval of scores it can achieve over `c` with the
//! interval of scores of the focal record:
//!
//! * **Record bounds** (§6.1): two LP optimizations per record give the exact
//!   score interval `[S(r,c), S̄(r,c)]`.
//! * **Group bounds** (§6.2): the aggregate R-tree supplies, per entry `G`,
//!   corner records `G^L ≤ r ≤ G^U` for every `r` underneath, so two LPs per
//!   *entry* bound whole groups at once.
//! * **Fast bounds** (§6.3): a per-cell min-vector `w^L` and max-vector `w^U`
//!   (2·d LPs per cell, reused for every entry) give score bounds in `O(d)`
//!   per entry, used as a filter before the LP-based group bounds.
//!
//! Every bound of one cell optimizes over the same constraint set, so
//! [`rank_bounds`] solves its phase 1 once ([`PreparedLp`]) and each bound LP
//! runs phase 2 alone.
//!
//! In the original preference space (Appendix C) the focal score interval
//! degenerates (`S(p,c) = 0` for every cone), so the bounds are computed on
//! the score *difference* `S(r) − S(p)` instead, and the fast bounds do not
//! apply.

use crate::config::BoundMode;
use crate::stats::QueryStats;
use kspr_geometry::{ConstraintSystem, Space};
use kspr_lp::PreparedLp;
use kspr_spatial::{AggregateRTree, NodeEntries, Record};

/// Decision reached by the rank-bound computation for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundDecision {
    /// The lower rank bound exceeds `k`: the cell can be pruned.
    Prune,
    /// The upper rank bound is at most `k`: the cell is part of the result.
    Report,
    /// The bounds are inconclusive; processing of the cell continues normally.
    Undecided,
}

/// Rank bounds `[lower, upper]` for a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankBounds {
    /// Best (smallest) rank the focal record can achieve in the cell.
    pub lower: usize,
    /// Worst (largest) rank the focal record can achieve in the cell.
    pub upper: usize,
}

impl RankBounds {
    fn decide(&self, k: usize) -> BoundDecision {
        if self.lower > k {
            BoundDecision::Prune
        } else if self.upper <= k {
            BoundDecision::Report
        } else {
            BoundDecision::Undecided
        }
    }
}

/// Linear objective (coefficients over the working space plus a constant)
/// whose value at `w` equals the score of the `d`-dimensional point `q`.
fn score_objective(space: Space, dim: usize, q: &[f64]) -> (Vec<f64>, f64) {
    match space {
        Space::Transformed => {
            let last = dim - 1;
            ((0..last).map(|i| q[i] - q[last]).collect(), q[last])
        }
        Space::Original => (q.to_vec(), 0.0),
    }
}

/// Minimum score of point `q` over the cell (one LP call).
///
/// Used for group bounds, where only the min-corner's minimum and the
/// max-corner's maximum are needed (Section 6.2).
fn score_min(
    lp: &PreparedLp,
    space: Space,
    dim: usize,
    q: &[f64],
    stats: &mut QueryStats,
) -> Option<f64> {
    let (obj, constant) = score_objective(space, dim, q);
    stats.bound_lp_calls += 1;
    Some(lp.minimize(&obj).objective()? + constant)
}

/// Maximum score of point `q` over the cell (one LP call).
fn score_max(
    lp: &PreparedLp,
    space: Space,
    dim: usize,
    q: &[f64],
    stats: &mut QueryStats,
) -> Option<f64> {
    let (obj, constant) = score_objective(space, dim, q);
    stats.bound_lp_calls += 1;
    Some(lp.maximize(&obj).objective()? + constant)
}

/// Objective vector for the score difference `S(q) − S(p)`.
fn diff_objective(space: Space, dim: usize, q: &[f64], focal: &[f64]) -> (Vec<f64>, f64) {
    let (obj_q, c_q) = score_objective(space, dim, q);
    let (obj_p, c_p) = score_objective(space, dim, focal);
    (
        obj_q.iter().zip(&obj_p).map(|(a, b)| a - b).collect(),
        c_q - c_p,
    )
}

/// Minimum of `S(q) − S(p)` over the cell (one LP call).
fn diff_min(
    lp: &PreparedLp,
    space: Space,
    dim: usize,
    q: &[f64],
    focal: &[f64],
    stats: &mut QueryStats,
) -> Option<f64> {
    let (obj, constant) = diff_objective(space, dim, q, focal);
    stats.bound_lp_calls += 1;
    Some(lp.minimize(&obj).objective()? + constant)
}

/// Maximum of `S(q) − S(p)` over the cell (one LP call).
fn diff_max(
    lp: &PreparedLp,
    space: Space,
    dim: usize,
    q: &[f64],
    focal: &[f64],
    stats: &mut QueryStats,
) -> Option<f64> {
    let (obj, constant) = diff_objective(space, dim, q, focal);
    stats.bound_lp_calls += 1;
    Some(lp.maximize(&obj).objective()? + constant)
}

/// Exact score interval of point `q` over the cell (two LP calls).
fn score_interval(
    lp: &PreparedLp,
    space: Space,
    dim: usize,
    q: &[f64],
    stats: &mut QueryStats,
) -> Option<(f64, f64)> {
    let (obj, constant) = score_objective(space, dim, q);
    stats.bound_lp_calls += 2;
    let lo = lp.minimize(&obj).objective()? + constant;
    let hi = lp.maximize(&obj).objective()? + constant;
    Some((lo, hi))
}

/// Exact interval of the score *difference* `S(q) − S(p)` over the cell
/// (used in the original space, Appendix C).
fn diff_interval(
    lp: &PreparedLp,
    space: Space,
    dim: usize,
    q: &[f64],
    focal: &[f64],
    stats: &mut QueryStats,
) -> Option<(f64, f64)> {
    let (obj, constant) = diff_objective(space, dim, q, focal);
    stats.bound_lp_calls += 2;
    let lo = lp.minimize(&obj).objective()? + constant;
    let hi = lp.maximize(&obj).objective()? + constant;
    Some((lo, hi))
}

/// The per-cell min/max weight vectors of Section 6.3 (full `d`-dimensional),
/// or `None` in the original space where they do not apply.
fn fast_vectors(
    lp: &PreparedLp,
    space: Space,
    dim: usize,
    stats: &mut QueryStats,
) -> Option<(Vec<f64>, Vec<f64>)> {
    if space == Space::Original {
        return None;
    }
    let work = dim - 1;
    let mut lo = Vec::with_capacity(dim);
    let mut hi = Vec::with_capacity(dim);
    for i in 0..work {
        let mut e = vec![0.0; work];
        e[i] = 1.0;
        stats.bound_lp_calls += 2;
        lo.push(lp.minimize(&e).objective()?);
        hi.push(lp.maximize(&e).objective()?);
    }
    let ones = vec![1.0; work];
    stats.bound_lp_calls += 2;
    let sum_lo = lp.minimize(&ones).objective()?;
    let sum_hi = lp.maximize(&ones).objective()?;
    lo.push((1.0 - sum_hi).max(0.0));
    hi.push((1.0 - sum_lo).min(1.0));
    Some((lo, hi))
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Internal traversal state.
struct BoundState<'a> {
    /// The cell closure, phase 1 solved once for all of the cell's bound LPs.
    lp: &'a PreparedLp,
    space: Space,
    dim: usize,
    focal: &'a [f64],
    k: usize,
    /// Focal score interval over the cell (transformed space only).
    focal_interval: (f64, f64),
    /// Per-cell fast vectors, when applicable.
    fast: Option<(Vec<f64>, Vec<f64>)>,
    lower: usize,
    upper: usize,
}

/// Outcome of comparing one score interval with the focal interval.
enum IntervalOutcome {
    /// The competitor beats the focal record everywhere in the cell.
    AlwaysAbove,
    /// The competitor never beats the focal record in the cell.
    AlwaysBelow,
    /// The competitor's interval is contained in the focal interval: it may
    /// or may not beat the focal record (counts only toward the upper bound).
    Contained,
    /// Nothing can be concluded at this granularity.
    Inconclusive,
}

impl BoundState<'_> {
    fn classify(&self, lo: f64, hi: f64) -> IntervalOutcome {
        let (p_lo, p_hi) = self.focal_interval;
        if lo > p_hi {
            IntervalOutcome::AlwaysAbove
        } else if hi < p_lo {
            IntervalOutcome::AlwaysBelow
        } else if lo >= p_lo && hi <= p_hi {
            IntervalOutcome::Contained
        } else {
            IntervalOutcome::Inconclusive
        }
    }

    fn classify_diff(&self, lo: f64, hi: f64) -> IntervalOutcome {
        if lo > 0.0 {
            IntervalOutcome::AlwaysAbove
        } else if hi <= 0.0 {
            IntervalOutcome::AlwaysBelow
        } else {
            IntervalOutcome::Inconclusive
        }
    }

    fn exceeded(&self) -> bool {
        self.lower > self.k
    }
}

/// Computes rank bounds for one cell and decides its fate.
///
/// * `sys` — constraint system of the cell (boundary + bounding halfspaces).
/// * `focal` — the focal record (full `d`-dimensional values).
/// * `tree` / `records` — the filtered competitor set and its aggregate
///   R-tree (used by the [`BoundMode::Group`] and [`BoundMode::Fast`] modes).
/// * `k` — effective rank threshold.
pub fn rank_bounds(
    sys: &ConstraintSystem,
    focal: &[f64],
    tree: &AggregateRTree,
    records: &[Record],
    k: usize,
    mode: BoundMode,
    stats: &mut QueryStats,
) -> (RankBounds, BoundDecision) {
    let space = sys.space().space;
    let dim = sys.space().data_dim;
    let lp = PreparedLp::new(sys.constraints(), sys.dim());

    let focal_interval = if space == Space::Transformed {
        match score_interval(&lp, space, dim, focal, stats) {
            Some(iv) => iv,
            None => {
                // The cell closure is empty — treat as prunable.
                let b = RankBounds {
                    lower: k + 1,
                    upper: k + 1,
                };
                return (b, BoundDecision::Prune);
            }
        }
    } else {
        (0.0, 0.0)
    };

    let fast = if mode == BoundMode::Fast {
        fast_vectors(&lp, space, dim, stats)
    } else {
        None
    };

    let mut state = BoundState {
        lp: &lp,
        space,
        dim,
        focal,
        k,
        focal_interval,
        fast,
        lower: 1,
        upper: 1,
    };

    match mode {
        BoundMode::Record => {
            for r in records {
                process_record(&mut state, &r.values, stats);
                if state.exceeded() {
                    break;
                }
            }
        }
        BoundMode::Group | BoundMode::Fast => {
            descend(&mut state, tree, tree.root(), stats);
        }
    }

    let bounds = RankBounds {
        lower: state.lower,
        upper: state.upper,
    };
    (bounds, bounds.decide(k))
}

/// Applies an interval outcome for a group of `count` records.
fn apply_outcome(state: &mut BoundState<'_>, outcome: IntervalOutcome, count: usize) -> bool {
    match outcome {
        IntervalOutcome::AlwaysAbove => {
            state.lower += count;
            state.upper += count;
            true
        }
        IntervalOutcome::AlwaysBelow => true,
        IntervalOutcome::Contained => {
            state.upper += count;
            true
        }
        IntervalOutcome::Inconclusive => false,
    }
}

fn process_record(state: &mut BoundState<'_>, values: &[f64], stats: &mut QueryStats) {
    // Fast per-record filter.
    if let Some((wl, wu)) = &state.fast {
        let lo = dot(values, wl);
        let hi = dot(values, wu);
        if apply_outcome_scores(state, lo, hi, 1) {
            return;
        }
    }
    // Tight per-record bounds.
    let outcome = if state.space == Space::Transformed {
        match score_interval(state.lp, state.space, state.dim, values, stats) {
            Some((lo, hi)) => state.classify(lo, hi),
            None => IntervalOutcome::AlwaysBelow,
        }
    } else {
        match diff_interval(state.lp, state.space, state.dim, values, state.focal, stats) {
            Some((lo, hi)) => state.classify_diff(lo, hi),
            None => IntervalOutcome::AlwaysBelow,
        }
    };
    match outcome {
        IntervalOutcome::Inconclusive => {
            // At record granularity an overlap still only contributes to the
            // upper bound (the record beats p for some but not all vectors).
            state.upper += 1;
        }
        o => {
            apply_outcome(state, o, 1);
        }
    }
}

/// Fast-filter variant of [`apply_outcome`] working directly on scores.
fn apply_outcome_scores(state: &mut BoundState<'_>, lo: f64, hi: f64, count: usize) -> bool {
    let outcome = state.classify(lo, hi);
    match outcome {
        IntervalOutcome::Inconclusive => false,
        o => apply_outcome(state, o, count),
    }
}

fn descend(
    state: &mut BoundState<'_>,
    tree: &AggregateRTree,
    node_idx: usize,
    stats: &mut QueryStats,
) {
    if state.exceeded() {
        return;
    }
    let node = tree.node(node_idx);
    let count = node.count;

    // Fast group filter (transformed space, Fast mode only).
    if let Some((wl, wu)) = &state.fast {
        let lo = dot(node.mbr.lower_corner(), wl);
        let hi = dot(node.mbr.upper_corner(), wu);
        if apply_outcome_scores(state, lo, hi, count) {
            return;
        }
    }

    // Tight group bounds via LP on the MBR corners: the minimum of the
    // min-corner's score and the maximum of the max-corner's score (one LP
    // each), exactly as Section 6.2 prescribes.
    let outcome = if state.space == Space::Transformed {
        let lo = score_min(
            state.lp,
            state.space,
            state.dim,
            node.mbr.lower_corner(),
            stats,
        );
        let hi = score_max(
            state.lp,
            state.space,
            state.dim,
            node.mbr.upper_corner(),
            stats,
        );
        match (lo, hi) {
            (Some(lo), Some(hi)) => state.classify(lo, hi),
            _ => IntervalOutcome::AlwaysBelow,
        }
    } else {
        let lo = diff_min(
            state.lp,
            state.space,
            state.dim,
            node.mbr.lower_corner(),
            state.focal,
            stats,
        );
        let hi = diff_max(
            state.lp,
            state.space,
            state.dim,
            node.mbr.upper_corner(),
            state.focal,
            stats,
        );
        match (lo, hi) {
            (Some(lo), Some(hi)) => state.classify_diff(lo, hi),
            _ => IntervalOutcome::AlwaysBelow,
        }
    };
    if apply_outcome(state, outcome, count) {
        return;
    }

    // Inconclusive at this granularity: go one level deeper.
    match &node.entries {
        NodeEntries::Internal(children) => {
            for &c in children {
                descend(state, tree, c, stats);
                if state.exceeded() {
                    return;
                }
            }
        }
        NodeEntries::Leaf(ids) => {
            for &id in ids {
                process_record(state, &tree.record(id).values, stats);
                if state.exceeded() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BoundMode;
    use kspr_geometry::{Hyperplane, PreferenceSpace, Sign};
    use kspr_spatial::AggregateRTree;

    /// Figure 1 restaurants; focal = Kyma.
    fn setup() -> (Vec<Record>, AggregateRTree, Vec<f64>, PreferenceSpace) {
        let raw = vec![
            vec![3.0, 8.0, 8.0],
            vec![9.0, 4.0, 4.0],
            vec![8.0, 3.0, 4.0],
            vec![4.0, 3.0, 6.0],
        ];
        let records = Record::from_raw(raw);
        let tree = AggregateRTree::bulk_load(records.clone(), 4);
        (
            records,
            tree,
            vec![5.0, 5.0, 7.0],
            PreferenceSpace::transformed(3),
        )
    }

    #[test]
    fn whole_space_bounds_bracket_true_ranks() {
        let (records, tree, focal, space) = setup();
        let sys = ConstraintSystem::new(space);
        for mode in [BoundMode::Record, BoundMode::Group, BoundMode::Fast] {
            let mut stats = QueryStats::new();
            let (bounds, _) = rank_bounds(&sys, &focal, &tree, &records, 3, mode, &mut stats);
            // Over the whole space Kyma's rank ranges between 1 and 4
            // (it can be beaten by at most 3 of the 4 restaurants at once,
            // and is the top record near the ambiance-heavy corner).
            assert!(
                bounds.lower >= 1 && bounds.lower <= 2,
                "{mode:?}: {bounds:?}"
            );
            assert!(bounds.upper >= 3, "{mode:?}: {bounds:?}");
            assert!(bounds.lower <= bounds.upper);
            assert!(stats.bound_lp_calls > 0);
        }
    }

    #[test]
    fn constrained_cell_gives_tighter_bounds() {
        let (records, tree, focal, space) = setup();
        // Constrain to the corner where w1 (value weight) is large: Beirut
        // Grill and El Coyote dominate the ranking there.
        let mut sys = ConstraintSystem::new(space);
        sys.push_constraint(kspr_lp::LinearConstraint::new(
            vec![1.0, 0.0],
            kspr_lp::Relation::Greater,
            0.8,
        ));
        let mut stats = QueryStats::new();
        let (bounds, decision) = rank_bounds(
            &sys,
            &focal,
            &tree,
            &records,
            1,
            BoundMode::Fast,
            &mut stats,
        );
        // With k = 1 and at least two records always above, the cell is pruned.
        assert!(bounds.lower >= 2, "{bounds:?}");
        assert_eq!(decision, BoundDecision::Prune);
    }

    #[test]
    fn report_decision_when_upper_bound_is_small() {
        let (records, tree, focal, space) = setup();
        // Constrain to the ambiance-dominated corner (w1, w2 both tiny) where
        // Kyma (ambiance 7) is only beaten by L'Entrecôte (ambiance 8).
        let mut sys = ConstraintSystem::new(space);
        sys.push_constraint(kspr_lp::LinearConstraint::new(
            vec![1.0, 1.0],
            kspr_lp::Relation::Less,
            0.05,
        ));
        let mut stats = QueryStats::new();
        let (bounds, decision) = rank_bounds(
            &sys,
            &focal,
            &tree,
            &records,
            3,
            BoundMode::Fast,
            &mut stats,
        );
        assert!(bounds.upper <= 3, "{bounds:?}");
        assert_eq!(decision, BoundDecision::Report);
    }

    #[test]
    fn modes_agree_on_decisions_for_simple_cells() {
        let (records, tree, focal, space) = setup();
        let planes: Vec<Hyperplane> = records
            .iter()
            .map(|r| Hyperplane::separating(&r.values, &focal, &space))
            .collect();
        // A cell where all hyperplanes are on their negative side: rank 1.
        let mut sys = ConstraintSystem::new(space);
        for p in &planes {
            sys.push_halfspace(p, Sign::Negative);
        }
        if sys.is_feasible() {
            for mode in [BoundMode::Record, BoundMode::Group, BoundMode::Fast] {
                let mut stats = QueryStats::new();
                let (bounds, decision) =
                    rank_bounds(&sys, &focal, &tree, &records, 3, mode, &mut stats);
                assert_eq!(bounds.lower, 1, "{mode:?}");
                assert_eq!(decision, BoundDecision::Report, "{mode:?}");
            }
        }
    }

    #[test]
    fn fast_mode_uses_fewer_lp_calls_than_group_on_conclusive_cells() {
        let (records, tree, focal, space) = setup();
        let mut sys = ConstraintSystem::new(space);
        sys.push_constraint(kspr_lp::LinearConstraint::new(
            vec![1.0, 1.0],
            kspr_lp::Relation::Less,
            0.05,
        ));
        let mut s_group = QueryStats::new();
        rank_bounds(
            &sys,
            &focal,
            &tree,
            &records,
            3,
            BoundMode::Group,
            &mut s_group,
        );
        let mut s_record = QueryStats::new();
        rank_bounds(
            &sys,
            &focal,
            &tree,
            &records,
            3,
            BoundMode::Record,
            &mut s_record,
        );
        // Record bounds need 2 LPs per record (plus the focal interval);
        // group/fast bounds should never need more than that on this tiny
        // dataset and typically need fewer.
        assert!(s_group.bound_lp_calls <= s_record.bound_lp_calls + 4);
    }

    #[test]
    fn original_space_bounds_work_without_fast_vectors() {
        let raw = vec![
            vec![3.0, 8.0, 8.0],
            vec![9.0, 4.0, 4.0],
            vec![8.0, 3.0, 4.0],
        ];
        let records = Record::from_raw(raw);
        let tree = AggregateRTree::bulk_load(records.clone(), 4);
        let focal = vec![5.0, 5.0, 7.0];
        let space = PreferenceSpace::original(3);
        let sys = ConstraintSystem::new(space);
        let mut stats = QueryStats::new();
        let (bounds, _) = rank_bounds(
            &sys,
            &focal,
            &tree,
            &records,
            2,
            BoundMode::Group,
            &mut stats,
        );
        assert!(bounds.lower >= 1);
        assert!(bounds.upper <= 1 + records.len());
        assert!(bounds.lower <= bounds.upper);
    }
}

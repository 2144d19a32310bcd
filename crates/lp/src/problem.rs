//! A small modelling layer over the raw simplex solver.
//!
//! The kSPR algorithms express everything as linear constraints over the
//! weight vector `w` of the (transformed or original) preference space:
//! record-induced halfspaces `S(r) < S(p)` / `S(r) > S(p)` and the boundary
//! constraints of the space itself.  This module provides:
//!
//! * [`LinearConstraint`] — a single constraint `coeffs · w  (op)  rhs`, where
//!   the relation may be strict (used for feasibility of *open* cells) or
//!   non-strict (used when optimizing score bounds over the cell closure).
//! * [`maximize`] / [`minimize`] — optimize a linear objective over the
//!   closure of the constraint set.
//! * [`PreparedLp`] — the same optimizations for many objectives over one
//!   constraint set, with phase 1 solved once.
//! * [`interior_point`] — the feasibility test of Section 4.2 of the paper:
//!   decide whether the *open* polyhedron has non-empty interior, and if so
//!   return a witness point strictly inside it (used by the witness-reuse
//!   optimization of Section 4.3.2).

use crate::simplex::{Phase1Tableau, Rows, SimplexOutcome, Workspace};
use crate::INTERIOR_MARGIN;

/// Relation of a [`LinearConstraint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `coeffs · w ≤ rhs`
    LessEq,
    /// `coeffs · w ≥ rhs`
    GreaterEq,
    /// `coeffs · w < rhs` (strict)
    Less,
    /// `coeffs · w > rhs` (strict)
    Greater,
}

impl Relation {
    /// The non-strict relation with the same direction.
    pub fn closure(self) -> Relation {
        match self {
            Relation::Less | Relation::LessEq => Relation::LessEq,
            Relation::Greater | Relation::GreaterEq => Relation::GreaterEq,
        }
    }

    /// True if the relation is strict.
    pub fn is_strict(self) -> bool {
        matches!(self, Relation::Less | Relation::Greater)
    }
}

/// A single linear constraint `coeffs · w (op) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearConstraint {
    /// Coefficient per decision variable.
    pub coeffs: Vec<f64>,
    /// Relation between the linear form and `rhs`.
    pub op: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

impl LinearConstraint {
    /// Creates a new constraint.
    pub fn new(coeffs: Vec<f64>, op: Relation, rhs: f64) -> Self {
        Self { coeffs, op, rhs }
    }

    /// Evaluates the linear form at `point`.
    pub fn eval(&self, point: &[f64]) -> f64 {
        self.coeffs.iter().zip(point).map(|(c, x)| c * x).sum()
    }

    /// True iff `point` satisfies the constraint with tolerance `tol`
    /// (strict constraints are required to clear the bound by `tol`).
    pub fn satisfied_by(&self, point: &[f64], tol: f64) -> bool {
        let v = self.eval(point);
        match self.op {
            Relation::LessEq => v <= self.rhs + tol,
            Relation::GreaterEq => v >= self.rhs - tol,
            Relation::Less => v < self.rhs - tol,
            Relation::Greater => v > self.rhs + tol,
        }
    }

    /// True when the `≤` form of this constraint negates it (a `≥` or `>`
    /// relation).  Strictness is dropped; callers that care about it use
    /// [`interior_point`].
    fn flips(&self) -> bool {
        self.op.closure() == Relation::GreaterEq
    }

    /// Right-hand side of the `≤` form.
    fn leq_rhs(&self) -> f64 {
        if self.flips() {
            -self.rhs
        } else {
            self.rhs
        }
    }

    /// Writes the coefficients of the `≤` form into `out`.
    fn write_leq(&self, out: &mut [f64]) {
        if self.flips() {
            for (o, c) in out.iter_mut().zip(&self.coeffs) {
                *o = -c;
            }
        } else {
            out.copy_from_slice(&self.coeffs);
        }
    }
}

fn check_arity(constraints: &[LinearConstraint], num_vars: usize) {
    for c in constraints {
        assert_eq!(c.coeffs.len(), num_vars, "constraint arity mismatch");
    }
}

/// The closure of a constraint set, read in `≤` form.
struct Closure<'a>(&'a [LinearConstraint]);

impl Rows for Closure<'_> {
    fn count(&self) -> usize {
        self.0.len()
    }

    fn rhs(&self, i: usize) -> f64 {
        self.0[i].leq_rhs()
    }

    fn write(&self, i: usize, out: &mut [f64]) {
        self.0[i].write_leq(out);
    }
}

/// The interior-point LP of a constraint set, given as slices read in order
/// as one set: every row `a·w ≤ b` gains a margin column `‖a‖ t`, and a
/// last row `t ≤ 1` keeps the LP bounded.
struct Interior<'a>(&'a [&'a [LinearConstraint]]);

impl Interior<'_> {
    /// Constraint `i` of the concatenated parts (`None` past the end).
    fn constraint(&self, mut i: usize) -> Option<&LinearConstraint> {
        for part in self.0 {
            match part.get(i) {
                Some(c) => return Some(c),
                None => i -= part.len(),
            }
        }
        None
    }
}

impl Rows for Interior<'_> {
    fn count(&self) -> usize {
        self.0.iter().map(|part| part.len()).sum::<usize>() + 1
    }

    fn rhs(&self, i: usize) -> f64 {
        self.constraint(i).map_or(1.0, LinearConstraint::leq_rhs)
    }

    fn write(&self, i: usize, out: &mut [f64]) {
        let (t, w) = out.split_last_mut().expect("the margin column");
        match self.constraint(i) {
            Some(c) => {
                // a·w < rhs  ->  a·w + s t ≤ rhs   where s scales the margin
                // by the constraint norm so that the margin is geometric, not
                // coefficient-dependent.
                c.write_leq(w);
                *t = c
                    .coeffs
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>()
                    .sqrt()
                    .max(1e-12);
            }
            None => {
                w.fill(0.0);
                *t = 1.0;
            }
        }
    }
}

/// Outcome of an optimization call.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimum exists.
    Optimal {
        /// Optimal point.
        point: Vec<f64>,
        /// Optimal objective value.
        objective: f64,
    },
    /// The (closed) constraint set is empty.
    Infeasible,
    /// The objective is unbounded in the requested direction.
    Unbounded,
}

impl LpOutcome {
    /// The optimal objective value, if any.
    pub fn objective(&self) -> Option<f64> {
        match self {
            LpOutcome::Optimal { objective, .. } => Some(*objective),
            _ => None,
        }
    }

    /// The optimal point, if any.
    pub fn point(&self) -> Option<&[f64]> {
        match self {
            LpOutcome::Optimal { point, .. } => Some(point),
            _ => None,
        }
    }
}

impl From<SimplexOutcome> for LpOutcome {
    fn from(outcome: SimplexOutcome) -> Self {
        match outcome {
            SimplexOutcome::Optimal { x, objective } => LpOutcome::Optimal {
                point: x,
                objective,
            },
            SimplexOutcome::Infeasible => LpOutcome::Infeasible,
            SimplexOutcome::Unbounded => LpOutcome::Unbounded,
        }
    }
}

/// Turns the maximum of `-c·w` into the minimum of `c·w`.
fn negate_objective(outcome: LpOutcome) -> LpOutcome {
    match outcome {
        LpOutcome::Optimal { point, objective } => LpOutcome::Optimal {
            point,
            objective: -objective,
        },
        other => other,
    }
}

/// A strictly interior feasible point together with its clearance.
#[derive(Debug, Clone, PartialEq)]
pub struct InteriorSolution {
    /// The witness point, strictly inside every strict constraint.
    pub point: Vec<f64>,
    /// How far the witness clears the tightest constraint.
    pub margin: f64,
}

/// Maximizes `objective · w` over the closure of `constraints` with `w ≥ 0`.
///
/// All constraints are interpreted non-strictly (their closure).  Callers are
/// responsible for adding any box/boundary constraints they need; the only
/// implicit constraint is non-negativity of the variables, which matches the
/// preference-space semantics of the paper (`w_i > 0`).
pub fn maximize(objective: &[f64], constraints: &[LinearConstraint], num_vars: usize) -> LpOutcome {
    optimize(constraints, num_vars, objective.iter().copied())
}

/// Minimizes `objective · w` over the closure of `constraints` with `w ≥ 0`.
pub fn minimize(objective: &[f64], constraints: &[LinearConstraint], num_vars: usize) -> LpOutcome {
    negate_objective(optimize(
        constraints,
        num_vars,
        objective.iter().map(|c| -c),
    ))
}

/// Maximizes `cost` over the closure of `constraints` in one pass: phase 1
/// and phase 2 back to back, nothing saved.
fn optimize(
    constraints: &[LinearConstraint],
    num_vars: usize,
    cost: impl ExactSizeIterator<Item = f64>,
) -> LpOutcome {
    assert!(
        cost.len() == num_vars,
        "objective length must equal num_vars"
    );
    check_arity(constraints, num_vars);
    Workspace::with(|ws| ws.solve(num_vars, &Closure(constraints), cost).0).into()
}

/// The closure of a constraint set with phase 1 solved once, answering any
/// number of objectives.
///
/// Phase 1 of the simplex depends only on the constraints.  This type runs
/// it at construction and keeps the resulting tableau; each
/// [`PreparedLp::maximize`] / [`PreparedLp::minimize`] runs phase 2 alone,
/// on a copy of it.  The answers equal those of the free [`maximize`] /
/// [`minimize`] bit for bit — they share the phase-2 code and start it from
/// the same tableau.  The look-ahead bounds (§6) use one per cell.
#[derive(Debug, Clone)]
pub struct PreparedLp {
    num_vars: usize,
    /// The tableau phase 1 left, or `None` when the closure is empty.
    phase1: Option<Phase1Tableau>,
}

impl PreparedLp {
    /// Runs phase 1 for the closure of `constraints` over `num_vars`
    /// non-negative variables.
    pub fn new(constraints: &[LinearConstraint], num_vars: usize) -> Self {
        check_arity(constraints, num_vars);
        let phase1 = Workspace::with(|ws| ws.prepare(num_vars, &Closure(constraints)));
        Self { num_vars, phase1 }
    }

    /// True iff the closure of the constraint set is non-empty.
    pub fn is_feasible(&self) -> bool {
        self.phase1.is_some()
    }

    /// Maximizes `objective · w` over the closure, like [`maximize`].
    pub fn maximize(&self, objective: &[f64]) -> LpOutcome {
        self.optimize(objective.iter().copied())
    }

    /// Minimizes `objective · w` over the closure, like [`minimize`].
    pub fn minimize(&self, objective: &[f64]) -> LpOutcome {
        negate_objective(self.optimize(objective.iter().map(|c| -c)))
    }

    fn optimize(&self, cost: impl ExactSizeIterator<Item = f64>) -> LpOutcome {
        assert!(
            cost.len() == self.num_vars,
            "objective length must equal num_vars"
        );
        match &self.phase1 {
            Some(saved) => Workspace::with(|ws| ws.resume(saved, cost)).into(),
            None => LpOutcome::Infeasible,
        }
    }
}

/// Tests whether the *open* polyhedron described by `constraints` has a
/// non-empty interior, returning a strictly interior witness point if so.
///
/// This is the feasibility test of Section 4.2 of the paper.  Strict and
/// non-strict constraints are both required to hold with a positive margin
/// `t`; the solver maximizes `t` and declares the cell feasible iff the
/// optimal margin exceeds [`INTERIOR_MARGIN`].  The returned witness is used
/// by the CellTree to skip subsequent feasibility tests (Section 4.3.2).
pub fn interior_point(
    constraints: &[LinearConstraint],
    num_vars: usize,
) -> Option<InteriorSolution> {
    interior_point_counted(constraints, num_vars).0
}

/// Like [`interior_point`], additionally returning the number of simplex
/// pivots the feasibility LP performed — the deterministic work measure the
/// engine's phase profiling attributes to its LP solves.
pub fn interior_point_counted(
    constraints: &[LinearConstraint],
    num_vars: usize,
) -> (Option<InteriorSolution>, usize) {
    interior_point_parts(&[constraints], num_vars)
}

/// Like [`interior_point_counted`] for the concatenation of `parts`, read in
/// place.  The LP has the same rows in the same order as for the
/// concatenated vector, so the answer and the pivot count are the same bit
/// for bit; the CellTree's feasibility tests pass the space boundary, the
/// root path and the tested halfspace this way without copying them.
pub fn interior_point_parts(
    parts: &[&[LinearConstraint]],
    num_vars: usize,
) -> (Option<InteriorSolution>, usize) {
    for part in parts {
        check_arity(part, num_vars);
    }
    // Variables: w_0 .. w_{num_vars-1}, t  (all ≥ 0); maximize t.
    let margin_objective = (0..=num_vars).map(|j| if j == num_vars { 1.0 } else { 0.0 });
    let (outcome, pivots) =
        Workspace::with(|ws| ws.solve(num_vars + 1, &Interior(parts), margin_objective));
    let solution = match outcome {
        SimplexOutcome::Optimal { mut x, objective } if objective > INTERIOR_MARGIN => {
            x.truncate(num_vars);
            Some(InteriorSolution {
                point: x,
                margin: objective,
            })
        }
        _ => None,
    };
    (solution, pivots)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box(d: usize) -> Vec<LinearConstraint> {
        // 0 < w_i < 1 and sum w_i < 1 — the transformed preference space.
        let mut cs = Vec::new();
        for i in 0..d {
            let mut coeffs = vec![0.0; d];
            coeffs[i] = 1.0;
            cs.push(LinearConstraint::new(coeffs.clone(), Relation::Less, 1.0));
            cs.push(LinearConstraint::new(coeffs, Relation::Greater, 0.0));
        }
        cs.push(LinearConstraint::new(vec![1.0; d], Relation::Less, 1.0));
        cs
    }

    #[test]
    fn interior_of_preference_space_exists() {
        for d in 1..=6 {
            let sol = interior_point(&unit_box(d), d).expect("space has interior");
            assert!(sol.margin > 0.0);
            let s: f64 = sol.point.iter().sum();
            assert!(s < 1.0);
            assert!(sol.point.iter().all(|&w| w > 0.0 && w < 1.0));
        }
    }

    #[test]
    fn empty_open_cell_is_detected() {
        // w_0 > 0.5 and w_0 < 0.5 cannot both hold strictly.
        let mut cs = unit_box(2);
        cs.push(LinearConstraint::new(
            vec![1.0, 0.0],
            Relation::Greater,
            0.5,
        ));
        cs.push(LinearConstraint::new(vec![1.0, 0.0], Relation::Less, 0.5));
        assert!(interior_point(&cs, 2).is_none());
    }

    #[test]
    fn degenerate_touching_halfspaces_have_no_interior() {
        // w_0 + w_1 > 1 intersected with the transformed space touches only
        // on the diagonal boundary — zero extent.
        let mut cs = unit_box(2);
        cs.push(LinearConstraint::new(
            vec![1.0, 1.0],
            Relation::Greater,
            1.0,
        ));
        assert!(interior_point(&cs, 2).is_none());
    }

    #[test]
    fn witness_point_satisfies_all_constraints() {
        let mut cs = unit_box(3);
        cs.push(LinearConstraint::new(
            vec![1.0, -1.0, 0.0],
            Relation::Less,
            0.2,
        ));
        cs.push(LinearConstraint::new(
            vec![0.0, 1.0, -2.0],
            Relation::Greater,
            -0.4,
        ));
        let sol = interior_point(&cs, 3).expect("feasible");
        for c in &cs {
            assert!(c.satisfied_by(&sol.point, 0.0), "witness violates {c:?}");
        }
    }

    #[test]
    fn maximize_score_over_cell() {
        // maximize w_0 + 2 w_1 over the transformed 2-d space: optimum at w = (0, 1).
        let cs = unit_box(2);
        let out = maximize(&[1.0, 2.0], &cs, 2);
        let obj = out.objective().expect("optimal");
        assert!((obj - 2.0).abs() < 1e-6);
    }

    #[test]
    fn minimize_matches_negated_maximize() {
        let cs = unit_box(3);
        let min = minimize(&[1.0, 1.0, 1.0], &cs, 3).objective().unwrap();
        assert!(min.abs() < 1e-6, "minimum of the sum over the simplex is 0");
    }

    #[test]
    fn infeasible_closed_system_reported() {
        let cs = vec![
            LinearConstraint::new(vec![1.0], Relation::LessEq, 1.0),
            LinearConstraint::new(vec![1.0], Relation::GreaterEq, 2.0),
        ];
        assert_eq!(maximize(&[1.0], &cs, 1), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_objective_reported() {
        // Only a lower bound on w_0: maximizing it is unbounded, minimizing
        // is not.
        let cs = vec![LinearConstraint::new(vec![1.0], Relation::GreaterEq, 2.0)];
        assert_eq!(maximize(&[1.0], &cs, 1), LpOutcome::Unbounded);
        let min = minimize(&[1.0], &cs, 1).objective().expect("bounded below");
        assert!((min - 2.0).abs() < 1e-6);
    }

    #[test]
    fn single_point_cell_optimizes_but_has_no_interior() {
        // The closed cell {w_0 = 0.3} is a single point: optimization over
        // the closure works, the open cell has no interior.
        let cs = vec![
            LinearConstraint::new(vec![1.0], Relation::LessEq, 0.3),
            LinearConstraint::new(vec![1.0], Relation::GreaterEq, 0.3),
        ];
        let max = maximize(&[1.0], &cs, 1).objective().expect("optimal");
        assert!((max - 0.3).abs() < 1e-6);
        let strict = vec![
            LinearConstraint::new(vec![1.0], Relation::Less, 0.3),
            LinearConstraint::new(vec![1.0], Relation::Greater, 0.3),
        ];
        assert!(interior_point(&strict, 1).is_none());
    }

    #[test]
    fn sliver_cell_below_margin_is_rejected() {
        // An open slab of width well below INTERIOR_MARGIN: numerically a
        // degenerate cell, must be rejected by the margin test.
        let width = crate::INTERIOR_MARGIN / 10.0;
        let cs = vec![
            LinearConstraint::new(vec![1.0], Relation::Greater, 0.5),
            LinearConstraint::new(vec![1.0], Relation::Less, 0.5 + width),
        ];
        assert!(interior_point(&cs, 1).is_none());
    }

    #[test]
    fn interior_point_ignores_redundant_constraints() {
        let mut cs = unit_box(2);
        // The same halfspace three times must not shrink the margin to zero.
        for _ in 0..3 {
            cs.push(LinearConstraint::new(vec![1.0, 0.0], Relation::Less, 0.6));
        }
        let sol = interior_point(&cs, 2).expect("feasible");
        assert!(sol.point[0] < 0.6);
        assert!(sol.margin > 0.0);
    }

    #[test]
    fn split_constraint_sets_solve_like_the_concatenation() {
        let mut cs = unit_box(3);
        cs.push(LinearConstraint::new(
            vec![1.0, -1.0, 0.0],
            Relation::Less,
            0.2,
        ));
        cs.push(LinearConstraint::new(
            vec![0.0, 1.0, -2.0],
            Relation::Greater,
            -0.4,
        ));
        cs.push(LinearConstraint::new(
            vec![0.5, 0.5, 0.5],
            Relation::Greater,
            0.45,
        ));
        let whole = interior_point_counted(&cs, 3);
        assert!(whole.0.is_some());
        for a in 0..=cs.len() {
            for b in a..=cs.len() {
                let (head, rest) = cs.split_at(a);
                let (mid, tail) = rest.split_at(b - a);
                let split = interior_point_parts(&[head, &[], mid, tail], 3);
                assert_eq!(split, whole, "split at {a}, {b}");
            }
        }
        // An infeasible set stays infeasible however it is split.
        cs.push(LinearConstraint::new(
            vec![0.5, 0.5, 0.5],
            Relation::Less,
            0.45,
        ));
        let (head, tail) = cs.split_at(4);
        assert_eq!(
            interior_point_parts(&[head, tail], 3),
            interior_point_counted(&cs, 3)
        );
        assert!(interior_point_parts(&[head, tail], 3).0.is_none());
    }

    #[test]
    fn relation_closure_and_strictness() {
        assert_eq!(Relation::Less.closure(), Relation::LessEq);
        assert_eq!(Relation::Greater.closure(), Relation::GreaterEq);
        assert!(Relation::Less.is_strict());
        assert!(!Relation::LessEq.is_strict());
    }

    #[test]
    fn constraint_eval_and_satisfaction() {
        let c = LinearConstraint::new(vec![2.0, -1.0], Relation::LessEq, 1.0);
        assert!((c.eval(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(c.satisfied_by(&[1.0, 1.0], 1e-9));
        assert!(!c.satisfied_by(&[1.0, 0.0], 1e-9));
    }
}

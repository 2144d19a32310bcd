//! Dense two-phase simplex for problems in standard inequality form.
//!
//! The solver targets the very small instances produced by the kSPR
//! algorithms (a handful of variables, tens of constraints), so it favours
//! clarity and robustness over asymptotic sophistication: a dense tableau,
//! explicit artificial variables, and Bland's rule to rule out cycling.
//!
//! # Workspace
//!
//! The tableau is one flat row-major `Vec<f64>` whose rows are `stride`
//! entries wide, the last entry of a row being its right-hand side.  It
//! lives, with the basis and the objective row, in a per-thread
//! `Workspace` that every solve on the thread reuses: once the buffers
//! have grown to the largest instance seen, a solve allocates nothing but
//! its result.  Rows are written straight from the caller's constraints
//! through `Rows`, never assembled into an intermediate matrix.
//!
//! A solve borrows the workspace from start to finish and never calls out of
//! the crate while it holds it, so solves cannot nest; a nested solve would
//! panic on the borrow rather than corrupt the tableau.
//!
//! # Phase-1 reuse
//!
//! Phase 1 depends only on the constraints, never on the objective.
//! `Workspace::prepare` saves the tableau as phase 1 leaves it, and
//! `Workspace::resume` runs phase 2 on a copy of it: the same pivots on
//! the same numbers as a full `Workspace::solve`, so the same bits out.
//! [`crate::PreparedLp`] is the public face of this.

use std::cell::RefCell;

use crate::EPSILON;

/// Result of a simplex run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimplexOutcome {
    /// An optimal solution was found.
    Optimal {
        /// Values of the original decision variables.
        x: Vec<f64>,
        /// Objective value at the optimum.
        objective: f64,
    },
    /// The constraint set admits no feasible point.
    Infeasible,
    /// The objective is unbounded above over the feasible region.
    Unbounded,
}

impl SimplexOutcome {
    /// Returns the optimal point if the run terminated with an optimum.
    pub fn point(&self) -> Option<&[f64]> {
        match self {
            SimplexOutcome::Optimal { x, .. } => Some(x),
            _ => None,
        }
    }

    /// Returns the optimal objective value if the run terminated with an optimum.
    pub fn objective(&self) -> Option<f64> {
        match self {
            SimplexOutcome::Optimal { objective, .. } => Some(*objective),
            _ => None,
        }
    }

    /// True iff the problem was proven infeasible.
    pub fn is_infeasible(&self) -> bool {
        matches!(self, SimplexOutcome::Infeasible)
    }
}

/// A constraint matrix in `A x ≤ b` form, read row by row into the tableau.
pub(crate) trait Rows {
    /// Number of rows.
    fn count(&self) -> usize;
    /// Right-hand side `b_i` of row `i`.
    fn rhs(&self, i: usize) -> f64;
    /// Writes the coefficients of row `i` into `out`, one per variable.
    fn write(&self, i: usize, out: &mut [f64]);
}

/// A tableau as phase 1 left it.
#[derive(Debug, Clone)]
pub(crate) struct Phase1Tableau {
    data: Vec<f64>,
    stride: usize,
    basis: Vec<usize>,
    vars: usize,
    first_artificial: usize,
}

/// Per-thread tableau storage, reused by every solve on the thread.
#[derive(Default)]
pub(crate) struct Workspace {
    /// Row-major tableau, `basis.len()` rows of `stride` entries; the last
    /// entry of each row is its right-hand side.
    data: Vec<f64>,
    stride: usize,
    /// Index of the basic variable for each row.
    basis: Vec<usize>,
    /// Objective row (reduced costs); last entry is the negated objective value.
    obj: Vec<f64>,
    /// Phase-2 objective coefficients.
    cost: Vec<f64>,
    /// Number of decision variables.
    vars: usize,
    /// First artificial column (structural + slack count).
    first_artificial: usize,
    /// Pivots since the tableau was loaded (both phases), the solver's
    /// deterministic work measure.
    pivots: usize,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

struct Unbounded;

/// Zeroes column `col` of `target` by subtracting a multiple of `pivot_row`.
fn eliminate(target: &mut [f64], pivot_row: &[f64], col: usize) {
    let factor = target[col];
    if factor.abs() > 0.0 {
        for (v, pv) in target.iter_mut().zip(pivot_row) {
            *v -= factor * pv;
        }
    }
}

impl Workspace {
    /// Runs `f` on the calling thread's workspace.
    pub(crate) fn with<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
        WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
    }

    /// Solves `maximize cost·x  subject to  rows, x ≥ 0`, returning the
    /// outcome and the pivots of both phases.
    pub(crate) fn solve(
        &mut self,
        vars: usize,
        rows: &impl Rows,
        cost: impl IntoIterator<Item = f64>,
    ) -> (SimplexOutcome, usize) {
        self.load(vars, rows);
        let outcome = if self.phase1() {
            self.phase2(cost)
        } else {
            SimplexOutcome::Infeasible
        };
        (outcome, self.pivots)
    }

    /// Runs phase 1 on `rows` and saves the result, or returns `None` if the
    /// rows admit no point with `x ≥ 0`.
    pub(crate) fn prepare(&mut self, vars: usize, rows: &impl Rows) -> Option<Phase1Tableau> {
        self.load(vars, rows);
        self.phase1().then(|| self.save())
    }

    /// Runs phase 2 for `cost` on a copy of `saved`.
    pub(crate) fn resume(
        &mut self,
        saved: &Phase1Tableau,
        cost: impl IntoIterator<Item = f64>,
    ) -> SimplexOutcome {
        self.restore(saved);
        self.phase2(cost)
    }

    /// Lays out the initial tableau.
    ///
    /// Column layout: `[structural 0..n) [slack n..n+m) [artificial ...] [rhs]`.
    /// A row with a negative right-hand side is negated and gets an
    /// artificial variable as its initial basic variable.
    fn load(&mut self, vars: usize, rows: &impl Rows) {
        let m = rows.count();
        let num_artificial = (0..m).filter(|&i| rows.rhs(i) < -EPSILON).count();
        let num_cols = vars + m + num_artificial;
        self.stride = num_cols + 1;
        self.vars = vars;
        self.first_artificial = vars + m;
        self.pivots = 0;
        self.data.clear();
        self.data.resize(m * self.stride, 0.0);
        self.basis.clear();
        let mut next_artificial = vars + m;
        for (i, row) in self.data.chunks_exact_mut(self.stride).enumerate() {
            let bi = rows.rhs(i);
            let flipped = bi < -EPSILON;
            let sign = if flipped { -1.0 } else { 1.0 };
            rows.write(i, &mut row[..vars]);
            for v in &mut row[..vars] {
                *v *= sign;
            }
            row[vars + i] = sign; // slack (negated when the row was flipped)
            row[num_cols] = sign * bi;
            if flipped {
                row[next_artificial] = 1.0;
                self.basis.push(next_artificial);
                next_artificial += 1;
            } else {
                self.basis.push(vars + i);
            }
        }
    }

    fn rhs(&self, row: usize) -> f64 {
        self.data[(row + 1) * self.stride - 1]
    }

    /// Performs a pivot on `(row, col)`, updating the tableau and objective row.
    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let stride = self.stride;
        let (above, rest) = self.data.split_at_mut(row * stride);
        let (pivot_row, below) = rest.split_at_mut(stride);
        let pivot_val = pivot_row[col];
        debug_assert!(pivot_val.abs() > EPSILON, "pivot element too small");
        let inv = 1.0 / pivot_val;
        for v in pivot_row.iter_mut() {
            *v *= inv;
        }
        let others = above
            .chunks_exact_mut(stride)
            .chain(below.chunks_exact_mut(stride));
        for data_row in others {
            eliminate(data_row, pivot_row, col);
        }
        eliminate(&mut self.obj, pivot_row, col);
        self.basis[row] = col;
    }

    /// Drops `row` from the tableau, keeping the order of the others.
    fn remove_row(&mut self, row: usize) {
        let stride = self.stride;
        self.data.copy_within((row + 1) * stride.., row * stride);
        self.data.truncate(self.data.len() - stride);
        self.basis.remove(row);
    }

    /// Runs simplex iterations until optimality or unboundedness.
    ///
    /// The objective row stores reduced costs for a *maximization*; a column
    /// with a positive reduced cost improves the objective. Bland's rule
    /// (smallest eligible index for both the entering and the leaving
    /// variable) guarantees termination.  Only columns below
    /// `entering_limit` may enter the basis, which bars the artificials in
    /// phase 2.
    fn iterate(&mut self, entering_limit: usize) -> Result<(), Unbounded> {
        // A generous iteration cap guards against numerical stalls; with
        // Bland's rule it should never be hit for well-posed inputs.
        let max_iters = 200 * (self.stride - 1 + self.basis.len() + 16);
        let stride = self.stride;
        for _ in 0..max_iters {
            let entering = (0..entering_limit).find(|&c| self.obj[c] > EPSILON);
            let Some(col) = entering else {
                return Ok(());
            };
            let mut leaving: Option<(usize, f64)> = None;
            for (row, data_row) in self.data.chunks_exact(stride).enumerate() {
                let coeff = data_row[col];
                if coeff > EPSILON {
                    let ratio = data_row[stride - 1] / coeff;
                    match leaving {
                        None => leaving = Some((row, ratio)),
                        Some((best_row, best_ratio)) => {
                            // Bland: break ties on the basic-variable index.
                            if ratio < best_ratio - EPSILON
                                || (ratio < best_ratio + EPSILON
                                    && self.basis[row] < self.basis[best_row])
                            {
                                leaving = Some((row, ratio));
                            }
                        }
                    }
                }
            }
            match leaving {
                Some((row, _)) => self.pivot(row, col),
                None => return Err(Unbounded),
            }
        }
        // Numerical stall: treat as optimal at the current (feasible) point.
        Ok(())
    }

    /// Phase 1: drives the artificial variables to zero.  Returns `false`
    /// if the constraints admit no point with `x ≥ 0`.
    fn phase1(&mut self) -> bool {
        let num_cols = self.stride - 1;
        if self.first_artificial == num_cols {
            return true;
        }
        // maximize -(sum of artificials)  ==  minimize sum of artificials
        self.obj.clear();
        self.obj.resize(self.stride, 0.0);
        self.obj[self.first_artificial..num_cols].fill(-1.0);
        // Price out the basic artificial variables.
        for (row, &basic) in self.data.chunks_exact(self.stride).zip(&self.basis) {
            if basic >= self.first_artificial {
                for (v, rv) in self.obj.iter_mut().zip(row) {
                    *v += rv;
                }
            }
        }
        if self.iterate(num_cols).is_err() {
            // Phase 1 objective is bounded by construction; reaching this
            // branch indicates numerical trouble, treat as infeasible.
            return false;
        }
        // With the update rule used by `pivot`, the last entry of the
        // objective row holds the *negated* objective value; for the phase-1
        // objective (maximize -Σ artificials) it therefore equals Σ artificials.
        if self.obj[num_cols] > 1e-7 {
            return false;
        }
        // Pivot any artificial variables that remain basic (at value zero)
        // out of the basis, or drop their (redundant) rows.
        let mut row = 0;
        while row < self.basis.len() {
            if self.basis[row] >= self.first_artificial {
                let start = row * self.stride;
                let cells = &self.data[start..start + self.first_artificial];
                match cells.iter().position(|v| v.abs() > 1e-7) {
                    Some(col) => self.pivot(row, col),
                    None => {
                        self.remove_row(row);
                        continue;
                    }
                }
            }
            row += 1;
        }
        true
    }

    /// Phase 2: optimizes `cost` from the feasible basis phase 1 left.
    fn phase2(&mut self, cost: impl IntoIterator<Item = f64>) -> SimplexOutcome {
        let n = self.vars;
        self.cost.clear();
        self.cost.extend(cost);
        debug_assert_eq!(self.cost.len(), n, "one objective coefficient per variable");
        self.obj.clear();
        self.obj.resize(self.stride, 0.0);
        self.obj[..n].copy_from_slice(&self.cost);
        // Price out basic variables so reduced costs of the basis are zero.
        for (row, &basic) in self.data.chunks_exact(self.stride).zip(&self.basis) {
            let coeff = self.obj[basic];
            if coeff.abs() > 0.0 {
                for (v, rv) in self.obj.iter_mut().zip(row) {
                    *v -= coeff * rv;
                }
            }
        }
        if self.iterate(self.first_artificial).is_err() {
            return SimplexOutcome::Unbounded;
        }

        let mut x = vec![0.0; n];
        for (row, &basic) in self.basis.iter().enumerate() {
            if basic < n {
                x[basic] = self.rhs(row);
            }
        }
        let objective = x.iter().zip(&self.cost).map(|(xi, ci)| xi * ci).sum();
        SimplexOutcome::Optimal { x, objective }
    }

    /// Copies the tableau phase 1 left.
    fn save(&self) -> Phase1Tableau {
        Phase1Tableau {
            data: self.data.clone(),
            stride: self.stride,
            basis: self.basis.clone(),
            vars: self.vars,
            first_artificial: self.first_artificial,
        }
    }

    /// Loads a saved phase-1 tableau.
    fn restore(&mut self, saved: &Phase1Tableau) {
        self.data.clear();
        self.data.extend_from_slice(&saved.data);
        self.stride = saved.stride;
        self.basis.clear();
        self.basis.extend_from_slice(&saved.basis);
        self.vars = saved.vars;
        self.first_artificial = saved.first_artificial;
        self.pivots = 0;
    }
}

/// A dense `A` and `b` given as slices.
struct Dense<'a> {
    a: &'a [Vec<f64>],
    b: &'a [f64],
}

impl Rows for Dense<'_> {
    fn count(&self) -> usize {
        self.b.len()
    }

    fn rhs(&self, i: usize) -> f64 {
        self.b[i]
    }

    fn write(&self, i: usize, out: &mut [f64]) {
        out.copy_from_slice(&self.a[i]);
    }
}

/// Solves `maximize c·x  subject to  A x ≤ b, x ≥ 0`.
///
/// * `a` — constraint matrix, one inner `Vec` per row, each of length `c.len()`.
/// * `b` — right-hand sides (may be negative; a phase-1 run with artificial
///   variables establishes feasibility in that case).
/// * `c` — objective coefficients.
///
/// # Panics
///
/// Panics if the rows of `a` and `b` have mismatched lengths, or if any row
/// of `a` does not have exactly `c.len()` entries.
pub fn solve_standard_form(a: &[Vec<f64>], b: &[f64], c: &[f64]) -> SimplexOutcome {
    solve_standard_form_counted(a, b, c).0
}

/// Like [`solve_standard_form`], additionally returning the number of
/// simplex pivots performed (both phases, including the basis cleanup that
/// drives lingering artificials out).  Pivots are a pure function of the
/// instance — Bland's rule is deterministic — which makes the count a
/// schedule-independent work measure for engine profiling.
pub fn solve_standard_form_counted(
    a: &[Vec<f64>],
    b: &[f64],
    c: &[f64],
) -> (SimplexOutcome, usize) {
    assert_eq!(a.len(), b.len(), "matrix rows must match rhs length");
    for row in a {
        assert_eq!(
            row.len(),
            c.len(),
            "every row must have one coeff per variable"
        );
    }
    Workspace::with(|ws| ws.solve(c.len(), &Dense { a, b }, c.iter().copied()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn simple_two_variable_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18
        let a = vec![vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]];
        let b = vec![4.0, 12.0, 18.0];
        let c = vec![3.0, 5.0];
        let out = solve_standard_form(&a, &b, &c);
        let obj = out.objective().expect("optimal");
        assert_close(obj, 36.0);
        let x = out.point().unwrap();
        assert_close(x[0], 2.0);
        assert_close(x[1], 6.0);
    }

    #[test]
    fn negative_rhs_requires_phase_one() {
        // max x + y s.t. -x - y <= -1 (i.e. x + y >= 1), x + y <= 3
        let a = vec![vec![-1.0, -1.0], vec![1.0, 1.0]];
        let b = vec![-1.0, 3.0];
        let c = vec![1.0, 1.0];
        let out = solve_standard_form(&a, &b, &c);
        assert_close(out.objective().expect("optimal"), 3.0);
    }

    #[test]
    fn detects_infeasibility() {
        // x <= 1 and x >= 2 simultaneously.
        let a = vec![vec![1.0], vec![-1.0]];
        let b = vec![1.0, -2.0];
        let c = vec![1.0];
        assert!(solve_standard_form(&a, &b, &c).is_infeasible());
    }

    #[test]
    fn detects_unboundedness() {
        // max x with only x >= 1.
        let a = vec![vec![-1.0]];
        let b = vec![-1.0];
        let c = vec![1.0];
        assert_eq!(solve_standard_form(&a, &b, &c), SimplexOutcome::Unbounded);
    }

    #[test]
    fn degenerate_constraints_do_not_cycle() {
        // Classic Beale-like degeneracy; Bland's rule must terminate.
        let a = vec![
            vec![0.25, -8.0, -1.0, 9.0],
            vec![0.5, -12.0, -0.5, 3.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ];
        let b = vec![0.0, 0.0, 1.0];
        let c = vec![0.75, -20.0, 0.5, -6.0];
        let out = solve_standard_form(&a, &b, &c);
        assert_close(out.objective().expect("optimal"), 1.25);
    }

    #[test]
    fn zero_objective_returns_feasible_point() {
        let a = vec![vec![1.0, 1.0]];
        let b = vec![1.0];
        let c = vec![0.0, 0.0];
        let out = solve_standard_form(&a, &b, &c);
        let x = out.point().expect("feasible").to_vec();
        assert!(x[0] + x[1] <= 1.0 + 1e-9);
        assert!(x[0] >= -1e-9 && x[1] >= -1e-9);
    }

    #[test]
    fn equality_encoded_as_two_inequalities() {
        // x + y = 1 encoded as <= and >=; maximize x.
        let a = vec![vec![1.0, 1.0], vec![-1.0, -1.0]];
        let b = vec![1.0, -1.0];
        let c = vec![1.0, 0.0];
        let out = solve_standard_form(&a, &b, &c);
        assert_close(out.objective().expect("optimal"), 1.0);
    }

    #[test]
    fn redundant_rows_are_tolerated() {
        let a = vec![vec![1.0, 0.0], vec![1.0, 0.0], vec![-1.0, 0.0]];
        let b = vec![2.0, 2.0, -1.0];
        let c = vec![1.0, 1.0];
        // y is unconstrained above -> unbounded.
        assert_eq!(solve_standard_form(&a, &b, &c), SimplexOutcome::Unbounded);
    }

    #[test]
    fn contradictory_equalities_are_infeasible() {
        // x + y = 1 and x + y = 2, each encoded as a <=/>= pair.
        let a = vec![
            vec![1.0, 1.0],
            vec![-1.0, -1.0],
            vec![1.0, 1.0],
            vec![-1.0, -1.0],
        ];
        let b = vec![1.0, -1.0, 2.0, -2.0];
        let c = vec![1.0, 0.0];
        assert!(solve_standard_form(&a, &b, &c).is_infeasible());
    }

    #[test]
    fn infeasible_beats_unbounded_direction() {
        // The objective direction is unbounded over x >= 0, but the
        // constraints are contradictory: infeasibility must be detected in
        // phase 1, before the unbounded direction can matter.
        let a = vec![vec![-1.0, 0.0], vec![1.0, 0.0]];
        let b = vec![-3.0, 1.0]; // x >= 3 and x <= 1
        let c = vec![0.0, 1.0]; // maximize the unconstrained y
        assert!(solve_standard_form(&a, &b, &c).is_infeasible());
    }

    #[test]
    fn degenerate_vertex_with_many_tight_constraints() {
        // Four constraints all tight at the optimum (2, 0): heavy degeneracy
        // in the ratio test; Bland's rule must still terminate at the right
        // optimum.
        let a = vec![
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
            vec![1.0, -1.0],
        ];
        let b = vec![2.0, 2.0, 2.0, 2.0];
        let c = vec![1.0, 0.0];
        let out = solve_standard_form(&a, &b, &c);
        assert_close(out.objective().expect("optimal"), 2.0);
        let x = out.point().unwrap();
        assert_close(x[0], 2.0);
        assert_close(x[1], 0.0);
    }

    #[test]
    fn degenerate_zero_rhs_rows_terminate() {
        // All right-hand sides zero: the origin is the only feasible point of
        // x + y <= 0 with x, y >= 0, and every pivot is degenerate.
        let a = vec![vec![1.0, 1.0], vec![1.0, -1.0], vec![-1.0, 1.0]];
        let b = vec![0.0, 0.0, 0.0];
        let c = vec![5.0, 3.0];
        let out = solve_standard_form(&a, &b, &c);
        assert_close(out.objective().expect("optimal"), 0.0);
    }

    #[test]
    fn unbounded_after_nontrivial_phase_one() {
        // Phase 1 is needed (negative rhs) and succeeds; phase 2 is then
        // unbounded along y.
        let a = vec![vec![-1.0, 0.0]];
        let b = vec![-2.0]; // x >= 2
        let c = vec![0.0, 1.0];
        assert_eq!(solve_standard_form(&a, &b, &c), SimplexOutcome::Unbounded);
    }

    #[test]
    fn fixed_point_feasible_region() {
        // x = 1.5 exactly (pair of inequalities); any objective is bounded.
        let a = vec![vec![1.0], vec![-1.0]];
        let b = vec![1.5, -1.5];
        let out = solve_standard_form(&a, &b, &[-7.0]);
        assert_close(out.objective().expect("optimal"), -10.5);
        assert_close(out.point().unwrap()[0], 1.5);
    }

    #[test]
    fn no_constraints_bounded_only_by_nonnegativity() {
        // max -x - y over x, y >= 0: optimum at the origin.
        let out = solve_standard_form(&[], &[], &[-1.0, -1.0]);
        assert_close(out.objective().expect("optimal"), 0.0);
        // ... while max x over the same region is unbounded.
        assert_eq!(
            solve_standard_form(&[], &[], &[1.0]),
            SimplexOutcome::Unbounded
        );
    }

    #[test]
    fn pivot_counts_are_deterministic_and_meaningful() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]];
        let b = vec![4.0, 12.0, 18.0];
        let c = vec![3.0, 5.0];
        let (out, pivots) = solve_standard_form_counted(&a, &b, &c);
        assert_close(out.objective().expect("optimal"), 36.0);
        assert!(pivots > 0, "reaching the optimum from the origin pivots");
        // Same instance, same count — Bland's rule is deterministic.
        assert_eq!(solve_standard_form_counted(&a, &b, &c).1, pivots);
        // The counted and plain entry points agree on the outcome.
        assert_eq!(solve_standard_form(&a, &b, &c), out);
        // An already-optimal origin needs no pivots.
        let (out, pivots) = solve_standard_form_counted(&[], &[], &[-1.0]);
        assert_close(out.objective().expect("optimal"), 0.0);
        assert_eq!(pivots, 0);
    }

    #[test]
    fn many_constraints_small_dimension() {
        // Random-ish band of constraints around the unit square; optimum on boundary.
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..50 {
            let t = i as f64 / 50.0;
            a.push(vec![t, 1.0 - t]);
            b.push(1.0);
        }
        let c = vec![1.0, 1.0];
        let out = solve_standard_form(&a, &b, &c);
        // The binding constraints t*x + (1-t)*y <= 1 for t in {0,1} cap x and y at 1...
        // but intermediate ones cap the sum; optimum is 2 at corners excluded, so <= 2.
        let obj = out.objective().expect("optimal");
        assert!(obj <= 2.0 + 1e-6);
        assert!(obj >= 1.0 - 1e-6);
    }
}

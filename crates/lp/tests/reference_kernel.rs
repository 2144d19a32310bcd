//! The simplex kernel against a verbatim copy of the solver it replaced.
//!
//! [`reference`] is the earlier solver with one `Vec` per tableau row, kept
//! here and nowhere else.  The flat, reused tableau performs the same
//! floating-point operations in the same order, so every outcome, every bit
//! of every optimum and every pivot count must match it.  The instances
//! are kSPR-shaped: 1 to 7 variables, 0 to 60 rows, right-hand sides of both
//! signs, duplicated, negated and all-zero rows, preference-space boundary
//! rows, and, half the time, coefficients on a coarse grid so that
//! degenerate ties reach Bland's rule.
//!
//! The same instances check [`PreparedLp`]: many objectives over one saved
//! phase 1 must equal fresh [`maximize`] / [`minimize`] calls, and the
//! replaced modelling layer on the reference kernel, bit for bit.

use kspr_lp::{
    interior_point_counted, maximize, minimize, solve_standard_form_counted, InteriorSolution,
    LinearConstraint, LpOutcome, PreparedLp, Relation, SimplexOutcome, EPSILON,
};
use proptest::prelude::*;
use proptest::TestRng;

/// The replaced solver, verbatim.
mod reference {
    use kspr_lp::{SimplexOutcome, EPSILON};

    /// Internal dense tableau.
    struct Tableau {
        /// `rows x cols` coefficient matrix; the last column is the right-hand side.
        data: Vec<Vec<f64>>,
        /// Index of the basic variable for each row.
        basis: Vec<usize>,
        /// Objective row (reduced costs); last entry is the negated objective value.
        obj: Vec<f64>,
        /// Number of structural + slack + artificial columns (excluding RHS).
        num_cols: usize,
        /// Columns that must never (re-)enter the basis (artificials in phase 2).
        banned: Vec<bool>,
        /// Pivots performed over the tableau's lifetime (both phases), the
        /// solver's deterministic work measure.
        pivots: usize,
    }

    impl Tableau {
        fn rhs(&self, row: usize) -> f64 {
            let c = self.data[row].len() - 1;
            self.data[row][c]
        }

        /// Performs a pivot on `(row, col)`, updating the tableau and objective row.
        fn pivot(&mut self, row: usize, col: usize) {
            self.pivots += 1;
            let pivot_val = self.data[row][col];
            debug_assert!(pivot_val.abs() > EPSILON, "pivot element too small");
            let inv = 1.0 / pivot_val;
            for v in self.data[row].iter_mut() {
                *v *= inv;
            }
            let pivot_row = self.data[row].clone();
            for (r, data_row) in self.data.iter_mut().enumerate() {
                if r == row {
                    continue;
                }
                let factor = data_row[col];
                if factor.abs() > 0.0 {
                    for (v, pv) in data_row.iter_mut().zip(pivot_row.iter()) {
                        *v -= factor * pv;
                    }
                }
            }
            let factor = self.obj[col];
            if factor.abs() > 0.0 {
                for (v, pv) in self.obj.iter_mut().zip(pivot_row.iter()) {
                    *v -= factor * pv;
                }
            }
            self.basis[row] = col;
        }

        /// Runs simplex iterations until optimality or unboundedness.
        ///
        /// The objective row stores reduced costs for a *maximization*; a column
        /// with a positive reduced cost improves the objective. Bland's rule
        /// (smallest eligible index for both the entering and the leaving
        /// variable) guarantees termination.
        fn iterate(&mut self) -> Result<(), Unbounded> {
            // A generous iteration cap guards against numerical stalls; with
            // Bland's rule it should never be hit for well-posed inputs.
            let max_iters = 200 * (self.num_cols + self.data.len() + 16);
            for _ in 0..max_iters {
                let entering =
                    (0..self.num_cols).find(|&c| !self.banned[c] && self.obj[c] > EPSILON);
                let Some(col) = entering else {
                    return Ok(());
                };
                let mut leaving: Option<(usize, f64)> = None;
                for row in 0..self.data.len() {
                    let coeff = self.data[row][col];
                    if coeff > EPSILON {
                        let ratio = self.rhs(row) / coeff;
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
    }

    struct Unbounded;

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
        let m = a.len();
        let n = c.len();

        // Column layout: [structural 0..n) [slack n..n+m) [artificial ...] [rhs]
        let mut needs_artificial = vec![false; m];
        let mut num_artificial = 0usize;
        for (i, &bi) in b.iter().enumerate() {
            if bi < -EPSILON {
                needs_artificial[i] = true;
                num_artificial += 1;
            }
        }
        let num_cols = n + m + num_artificial;

        let mut data = vec![vec![0.0; num_cols + 1]; m];
        let mut basis = vec![0usize; m];
        let mut artificial_cols = Vec::with_capacity(num_artificial);
        let mut next_artificial = n + m;
        for i in 0..m {
            let sign = if needs_artificial[i] { -1.0 } else { 1.0 };
            for j in 0..n {
                data[i][j] = sign * a[i][j];
            }
            data[i][n + i] = sign; // slack (negated when the row was flipped)
            data[i][num_cols] = sign * b[i];
            if needs_artificial[i] {
                data[i][next_artificial] = 1.0;
                basis[i] = next_artificial;
                artificial_cols.push(next_artificial);
                next_artificial += 1;
            } else {
                basis[i] = n + i;
            }
        }

        let mut tableau = Tableau {
            data,
            basis,
            obj: vec![0.0; num_cols + 1],
            num_cols,
            banned: vec![false; num_cols],
            pivots: 0,
        };

        // ---- Phase 1: drive the artificial variables to zero -------------------
        if num_artificial > 0 {
            // maximize -(sum of artificials)  ==  minimize sum of artificials
            for &col in &artificial_cols {
                tableau.obj[col] = -1.0;
            }
            // Price out the basic artificial variables.
            for row in 0..m {
                if artificial_cols.contains(&tableau.basis[row]) {
                    let row_data = tableau.data[row].clone();
                    for (v, rv) in tableau.obj.iter_mut().zip(row_data.iter()) {
                        *v += rv;
                    }
                }
            }
            if tableau.iterate().is_err() {
                // Phase 1 objective is bounded by construction; reaching this
                // branch indicates numerical trouble, treat as infeasible.
                return (SimplexOutcome::Infeasible, tableau.pivots);
            }
            // With the update rule used by `pivot`, the last entry of the
            // objective row holds the *negated* objective value; for the phase-1
            // objective (maximize -Σ artificials) it therefore equals Σ artificials.
            let artificial_sum = tableau.obj[num_cols];
            if artificial_sum > 1e-7 {
                return (SimplexOutcome::Infeasible, tableau.pivots);
            }
            // Pivot any artificial variables that remain basic (at value zero)
            // out of the basis, or drop their (redundant) rows.
            let mut row = 0;
            while row < tableau.data.len() {
                if artificial_cols.contains(&tableau.basis[row]) {
                    let pivot_col = (0..n + m).find(|&cidx| tableau.data[row][cidx].abs() > 1e-7);
                    match pivot_col {
                        Some(cidx) => tableau.pivot(row, cidx),
                        None => {
                            tableau.data.remove(row);
                            tableau.basis.remove(row);
                            continue;
                        }
                    }
                }
                row += 1;
            }
            for &col in &artificial_cols {
                tableau.banned[col] = true;
            }
        }

        // ---- Phase 2: optimize the real objective ------------------------------
        tableau.obj = vec![0.0; num_cols + 1];
        tableau.obj[..n].copy_from_slice(c);
        // Price out basic variables so reduced costs of the basis are zero.
        for row in 0..tableau.data.len() {
            let basic = tableau.basis[row];
            let coeff = tableau.obj[basic];
            if coeff.abs() > 0.0 {
                let row_data = tableau.data[row].clone();
                for (v, rv) in tableau.obj.iter_mut().zip(row_data.iter()) {
                    *v -= coeff * rv;
                }
            }
        }
        if tableau.iterate().is_err() {
            return (SimplexOutcome::Unbounded, tableau.pivots);
        }

        let mut x = vec![0.0; n];
        for (row, &basic) in tableau.basis.iter().enumerate() {
            if basic < n {
                x[basic] = tableau.rhs(row);
            }
        }
        let objective = x.iter().zip(c.iter()).map(|(xi, ci)| xi * ci).sum();
        (SimplexOutcome::Optimal { x, objective }, tableau.pivots)
    }
}

/// The replaced modelling layer over [`reference::solve_standard_form_counted`]:
/// each constraint's `≤` form assembled into `a`/`b`, as it was.
mod reference_problem {
    use super::reference::solve_standard_form_counted;
    use kspr_lp::{
        InteriorSolution, LinearConstraint, LpOutcome, Relation, SimplexOutcome, INTERIOR_MARGIN,
    };

    fn as_leq(c: &LinearConstraint) -> (Vec<f64>, f64) {
        match c.op.closure() {
            Relation::LessEq => (c.coeffs.clone(), c.rhs),
            Relation::GreaterEq => (c.coeffs.iter().map(|c| -c).collect(), -c.rhs),
            _ => unreachable!("closure() never returns a strict relation"),
        }
    }

    pub fn maximize(objective: &[f64], constraints: &[LinearConstraint]) -> LpOutcome {
        let (a, b): (Vec<Vec<f64>>, Vec<f64>) = constraints.iter().map(as_leq).unzip();
        match solve_standard_form_counted(&a, &b, objective).0 {
            SimplexOutcome::Optimal { x, objective } => LpOutcome::Optimal {
                point: x,
                objective,
            },
            SimplexOutcome::Infeasible => LpOutcome::Infeasible,
            SimplexOutcome::Unbounded => LpOutcome::Unbounded,
        }
    }

    pub fn minimize(objective: &[f64], constraints: &[LinearConstraint]) -> LpOutcome {
        let negated: Vec<f64> = objective.iter().map(|c| -c).collect();
        match maximize(&negated, constraints) {
            LpOutcome::Optimal { point, objective } => LpOutcome::Optimal {
                point,
                objective: -objective,
            },
            other => other,
        }
    }

    pub fn interior_point_counted(
        constraints: &[LinearConstraint],
        num_vars: usize,
    ) -> (Option<InteriorSolution>, usize) {
        let total_vars = num_vars + 1;
        let mut a = Vec::with_capacity(constraints.len() + 1);
        let mut b = Vec::with_capacity(constraints.len() + 1);
        for c in constraints {
            let norm: f64 = c
                .coeffs
                .iter()
                .map(|v| v * v)
                .sum::<f64>()
                .sqrt()
                .max(1e-12);
            let (mut row, rhs) = as_leq(c);
            row.push(norm);
            a.push(row);
            b.push(rhs);
        }
        let mut t_bound = vec![0.0; total_vars];
        t_bound[num_vars] = 1.0;
        a.push(t_bound);
        b.push(1.0);
        let mut objective = vec![0.0; total_vars];
        objective[num_vars] = 1.0;
        let (outcome, pivots) = solve_standard_form_counted(&a, &b, &objective);
        let solution = match outcome {
            SimplexOutcome::Optimal { x, objective } if objective > INTERIOR_MARGIN => {
                Some(InteriorSolution {
                    point: x[..num_vars].to_vec(),
                    margin: objective,
                })
            }
            _ => None,
        };
        (solution, pivots)
    }
}

/// An outcome as raw bits: its variant, then the point and the objective.
type Bits = (u8, Vec<u64>, u64);

fn simplex_bits(outcome: &SimplexOutcome) -> Bits {
    match outcome {
        SimplexOutcome::Optimal { x, objective } => (
            0,
            x.iter().map(|v| v.to_bits()).collect(),
            objective.to_bits(),
        ),
        SimplexOutcome::Infeasible => (1, Vec::new(), 0),
        SimplexOutcome::Unbounded => (2, Vec::new(), 0),
    }
}

fn lp_bits(outcome: &LpOutcome) -> Bits {
    match outcome {
        LpOutcome::Optimal { point, objective } => (
            0,
            point.iter().map(|v| v.to_bits()).collect(),
            objective.to_bits(),
        ),
        LpOutcome::Infeasible => (1, Vec::new(), 0),
        LpOutcome::Unbounded => (2, Vec::new(), 0),
    }
}

/// A kSPR-shaped LP: `A x ≤ b` over `n` variables, and objectives to
/// optimize over it.
#[derive(Debug, Clone)]
struct Instance {
    n: usize,
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
    objectives: Vec<Vec<f64>>,
}

impl Instance {
    /// The rows as constraints, with the relation cycling through all four
    /// so that `≥`, `<` and `>` forms reach the solver too; each maps back
    /// to the same `≤` row.
    fn constraints(&self) -> Vec<LinearConstraint> {
        self.a
            .iter()
            .zip(&self.b)
            .enumerate()
            .map(|(i, (row, &rhs))| {
                let negated = || row.iter().map(|c| -c).collect();
                match i % 4 {
                    0 => LinearConstraint::new(row.clone(), Relation::LessEq, rhs),
                    1 => LinearConstraint::new(row.clone(), Relation::Less, rhs),
                    2 => LinearConstraint::new(negated(), Relation::GreaterEq, -rhs),
                    _ => LinearConstraint::new(negated(), Relation::Greater, -rhs),
                }
            })
            .collect()
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The strategy drawing [`Instance`]s.
struct Instances;

/// A coefficient: on a grid of quarters in `[-1, 1]` (ties, degenerate
/// vertices), or uniform in `[-1, 1)` with one in five exactly zero.
fn value(rng: &mut TestRng, grid: bool) -> f64 {
    if grid {
        (rng.size_in(0, 9) as f64 - 4.0) * 0.25
    } else if rng.size_in(0, 5) == 0 {
        0.0
    } else {
        rng.unit_f64() * 2.0 - 1.0
    }
}

impl Strategy for Instances {
    type Value = Instance;

    /// Three instances in four are anchored like a kSPR cell: each row holds
    /// at a common point `x0 ≥ 0`, with slack that is zero a third of the
    /// time (degenerate vertices) and negative one time in a hundred (so some
    /// are still infeasible).  The fourth has free right-hand sides and is
    /// mostly infeasible.
    fn generate(&self, rng: &mut TestRng) -> Instance {
        let n = rng.size_in(1, 8);
        // One instance in four has at most 5 rows, and is often unbounded.
        let max_rows = if rng.size_in(0, 4) == 0 { 5 } else { 60 };
        let m = rng.size_in(0, max_rows + 1);
        let grid = rng.size_in(0, 2) == 0;
        let anchor: Option<Vec<f64>> = (rng.size_in(0, 4) != 0)
            .then(|| (0..n).map(|_| value(rng, grid).abs() / n as f64).collect());
        let mut a: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut b: Vec<f64> = Vec::with_capacity(m);
        while a.len() < m {
            let (row, rhs) = match rng.size_in(0, 10) {
                0 if !a.is_empty() => {
                    let i = rng.size_in(0, a.len());
                    (a[i].clone(), b[i])
                }
                1 if !a.is_empty() => {
                    // Anchored: the mirror image of row i about the anchor,
                    // the exact negation when row i is tight there.
                    let i = rng.size_in(0, a.len());
                    let slack = anchor.as_ref().map_or(0.0, |x0| b[i] - dot(&a[i], x0));
                    (a[i].iter().map(|c| -c).collect(), -b[i] + 2.0 * slack)
                }
                2 => {
                    let rhs = value(rng, grid);
                    (vec![0.0; n], if anchor.is_some() { rhs.abs() } else { rhs })
                }
                3 => {
                    // Preference-space boundary: w_i ≥ 0, w_i ≤ 1, Σ w ≤ 1.
                    let i = rng.size_in(0, n);
                    let mut row = vec![0.0; n];
                    match rng.size_in(0, 3) {
                        0 => {
                            row[i] = -1.0;
                            (row, 0.0)
                        }
                        1 => {
                            row[i] = 1.0;
                            (row, 1.0)
                        }
                        _ => (vec![1.0; n], 1.0),
                    }
                }
                _ => {
                    let row: Vec<f64> = (0..n).map(|_| value(rng, grid)).collect();
                    let rhs = match &anchor {
                        Some(x0) => {
                            let at_anchor = dot(&row, x0);
                            let slack = match rng.size_in(0, 100) {
                                0..=32 => 0.0,
                                33 => -value(rng, grid).abs(),
                                _ => value(rng, grid).abs(),
                            };
                            at_anchor + slack
                        }
                        None => value(rng, grid),
                    };
                    (row, rhs)
                }
            };
            a.push(row);
            b.push(rhs);
        }
        let mut objectives: Vec<Vec<f64>> = (0..rng.size_in(1, 6))
            .map(|_| (0..n).map(|_| value(rng, grid)).collect())
            .collect();
        objectives.push(vec![0.0; n]);
        Instance {
            n,
            a,
            b,
            objectives,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The kernel equals the replaced solver: outcome, bits and pivots.
    #[test]
    fn kernel_matches_the_replaced_solver(inst in Instances) {
        for c in &inst.objectives {
            let (new, new_pivots) = solve_standard_form_counted(&inst.a, &inst.b, c);
            let (old, old_pivots) = reference::solve_standard_form_counted(&inst.a, &inst.b, c);
            prop_assert_eq!(simplex_bits(&new), simplex_bits(&old), "{:?} c={:?}", inst, c);
            prop_assert_eq!(new_pivots, old_pivots, "{:?} c={:?}", inst, c);
        }
    }

    /// Many objectives over one saved phase 1 equal fresh solves of each,
    /// through the free functions and the replaced modelling layer alike.
    #[test]
    fn prepared_lp_matches_fresh_solves(inst in Instances) {
        let constraints = inst.constraints();
        let prepared = PreparedLp::new(&constraints, inst.n);
        for c in &inst.objectives {
            let fresh_max = maximize(c, &constraints, inst.n);
            prop_assert_eq!(
                prepared.is_feasible(),
                fresh_max != LpOutcome::Infeasible,
                "{:?}",
                inst
            );
            let max = lp_bits(&prepared.maximize(c));
            prop_assert_eq!(&max, &lp_bits(&fresh_max), "{:?} c={:?}", inst, c);
            prop_assert_eq!(&max, &lp_bits(&reference_problem::maximize(c, &constraints)));
            let min = lp_bits(&prepared.minimize(c));
            prop_assert_eq!(&min, &lp_bits(&minimize(c, &constraints, inst.n)), "{:?} c={:?}", inst, c);
            prop_assert_eq!(&min, &lp_bits(&reference_problem::minimize(c, &constraints)));
        }
    }

    /// The feasibility LP equals the replaced one: witness bits, margin
    /// bits and pivots.
    #[test]
    fn interior_point_matches_the_replaced_solver(inst in Instances) {
        let constraints = inst.constraints();
        let (new, new_pivots) = interior_point_counted(&constraints, inst.n);
        let (old, old_pivots) = reference_problem::interior_point_counted(&constraints, inst.n);
        let bits = |s: &Option<InteriorSolution>| {
            s.as_ref().map(|s| {
                let point: Vec<u64> = s.point.iter().map(|v| v.to_bits()).collect();
                (point, s.margin.to_bits())
            })
        };
        prop_assert_eq!(bits(&new), bits(&old), "{:?}", inst);
        prop_assert_eq!(new_pivots, old_pivots, "{:?}", inst);
    }
}

/// The instances reach every outcome, and phase 1, often enough for the
/// comparisons above to mean something.
#[test]
fn instances_cover_every_outcome() {
    let mut rng = TestRng::deterministic("instances_cover_every_outcome");
    let mut outcomes = [0usize; 3];
    let mut phase1 = 0;
    let mut interior = 0;
    for _ in 0..400 {
        let inst = Instances.generate(&mut rng);
        if inst.b.iter().any(|&v| v < -EPSILON) {
            phase1 += 1;
        }
        if interior_point_counted(&inst.constraints(), inst.n)
            .0
            .is_some()
        {
            interior += 1;
        }
        for c in &inst.objectives {
            let (new, _) = solve_standard_form_counted(&inst.a, &inst.b, c);
            outcomes[usize::from(simplex_bits(&new).0)] += 1;
        }
    }
    assert!(
        outcomes.iter().all(|&count| count >= 150),
        "optimal/infeasible/unbounded: {outcomes:?}"
    );
    assert!(phase1 >= 200, "instances needing phase 1: {phase1}");
    assert!(
        (40..=360).contains(&interior),
        "instances with an interior: {interior}"
    );
}

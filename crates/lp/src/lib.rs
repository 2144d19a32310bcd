//! Dense linear-programming solver used throughout the kSPR reproduction.
//!
//! The original paper relies on the `lp_solve` C library for two tasks:
//!
//! 1. **Feasibility tests** on the implicit cell representation of the
//!    `CellTree` (Section 4.2 of the paper): "is the intersection of these
//!    open halfspaces non-empty?".
//! 2. **Score-bound optimization** for the look-ahead techniques of LP-CTA
//!    (Section 6): minimize / maximize a linear score subject to the
//!    constraints that define a cell.
//!
//! Both tasks involve tiny problems — at most `d - 1 ≤ 6` decision variables
//! and, thanks to the inconsequential-halfspace elimination of Lemma 2,
//! usually a few dozen constraints.  A dense two-phase simplex with Bland's
//! anti-cycling rule is therefore more than adequate, and keeping the solver
//! in-tree removes the external C dependency.
//!
//! The solver runs thousands of such LPs per query, so it allocates nothing
//! per solve beyond its result: the tableau is one flat row-major buffer in a
//! per-thread workspace, and constraint rows are written straight into it.
//! A solve holds that workspace from start to finish and never calls out
//! while holding it, so solves do not nest.
//!
//! # Overview
//!
//! * [`simplex`] — the raw tableau solver for problems in the standard form
//!   `maximize c·x  subject to  A x ≤ b, x ≥ 0` (with `b` of arbitrary sign).
//! * [`problem`] — a small modelling layer: [`LinearConstraint`]s with
//!   strict / non-strict relations, maximization / minimization objectives,
//!   and the *interior-point* feasibility test that the kSPR algorithms use to
//!   decide whether a cell has non-zero extent.
//! * [`PreparedLp`] — many objectives over one constraint set.  Phase 1 of
//!   the simplex depends only on the constraints, so it runs once and every
//!   objective runs phase 2 alone on a copy of the saved tableau, with the
//!   same answer, bit for bit, as a fresh [`maximize`] / [`minimize`].
//!
//! # Example
//!
//! ```
//! use kspr_lp::{LinearConstraint, Relation, maximize, LpOutcome};
//!
//! // maximize x0 + x1 subject to x0 + 2 x1 <= 4, 3 x0 + x1 <= 6, x >= 0
//! let constraints = vec![
//!     LinearConstraint::new(vec![1.0, 2.0], Relation::LessEq, 4.0),
//!     LinearConstraint::new(vec![3.0, 1.0], Relation::LessEq, 6.0),
//! ];
//! match maximize(&[1.0, 1.0], &constraints, 2) {
//!     LpOutcome::Optimal { objective, .. } => assert!((objective - 2.8).abs() < 1e-9),
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! ```

pub mod problem;
pub mod simplex;

pub use problem::{
    interior_point, interior_point_counted, interior_point_parts, maximize, minimize,
    InteriorSolution, LinearConstraint, LpOutcome, PreparedLp, Relation,
};
pub use simplex::{solve_standard_form, solve_standard_form_counted, SimplexOutcome};

/// Numerical tolerance shared by the solver and its callers.
///
/// Coordinates in the preference space are all within `[0, 1]` and the data
/// attributes are normalized by the generators, so a fixed absolute tolerance
/// is appropriate.
pub const EPSILON: f64 = 1e-9;

/// Slightly looser tolerance used when classifying strict inequalities:
/// a cell is considered to have interior only if a point exists that clears
/// every bounding hyperplane by at least this margin.
pub const INTERIOR_MARGIN: f64 = 1e-7;

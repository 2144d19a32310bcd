//! Golden determinism: CTA, P-CTA and LP-CTA with finalization on, over
//! seeded IND, ANTI and COR data, must reproduce fixed fingerprints of
//! every result and fixed totals of the deterministic work counters.
//!
//! The fingerprint covers each region's rank, the bits of every bounding
//! plane's coefficients and right-hand side, its sign, and the finalized
//! polytope (constraint bits and vertex bits).  Any change to the LP solver
//! or the CellTree that moves a single bit of a result, or a single pivot,
//! fails here.  The constants are regenerated by running the test and
//! copying the table it prints on mismatch — only for a change that is
//! meant to alter results.
//!
//! The first table runs the one-shot free function `kspr::run`, which
//! prepares every query from the full dataset.  The second runs
//! `QueryEngine::run` on an engine whose shared prep was computed before the
//! first query, so P-CTA reads the cached dominance graph and LP-CTA
//! prepares from the cached dataset k-skyband; its constants were captured
//! through `QueryEngine::run_batch`, the shared path before single queries
//! took it, and equal the first table's rows for the same cases.

use kspr_repro::datagen::generate;
use kspr_repro::datagen::Distribution::{self, AntiCorrelated, Correlated, Independent};
use kspr_repro::geometry::Sign;
use kspr_repro::geometry::Space::{self, Original, Transformed};
use kspr_repro::kspr::Algorithm::{self, Cta, LpCta, Pcta};
use kspr_repro::kspr::{Dataset, KsprConfig, KsprResult, QueryEngine};
use kspr_repro::spatial::dominates;

/// 64-bit FNV-1a over a stream of words.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }
}

fn fingerprint(result: &KsprResult) -> u64 {
    let mut f = Fingerprint::new();
    f.word(result.regions.len() as u64);
    for region in &result.regions {
        f.word(region.rank as u64);
        f.word(region.halfspaces.len() as u64);
        for (plane, sign) in &region.halfspaces {
            f.floats(&plane.coeffs);
            f.word(plane.rhs.to_bits());
            f.word(u64::from(*sign == Sign::Positive));
        }
        match &region.polytope {
            None => f.word(0),
            Some(poly) => {
                f.word(1);
                f.word(poly.constraints().len() as u64);
                for c in poly.constraints() {
                    f.floats(&c.coeffs);
                    f.word(c.op as u64);
                    f.word(c.rhs.to_bits());
                }
                f.word(poly.vertices().len() as u64);
                for v in poly.vertices() {
                    f.floats(v);
                }
            }
        }
    }
    f.0
}

/// One row of the golden table for one algorithm on one distribution:
/// `(fingerprint, lp_pivots, feasibility_tests, bound_lp_calls,
/// witness_hits)`, the fingerprint combining every query's result and the
/// counters summed over the queries.
type Golden = (u64, usize, usize, usize, usize);

const D: usize = 4;
const K: usize = 5;
const SEED: u64 = 1307;

/// Dataset size per distribution: the anti-correlated arrangements have
/// the most cells per record, so they get the fewest records.
fn size(dist: Distribution) -> usize {
    match dist {
        Independent => 200,
        AntiCorrelated => 100,
        Correlated => 400,
    }
}

/// The first three records, in dataset order, with between 1 and `K - 1`
/// dominators: fewer than `K`, so the Section 3.1 preprocessing leaves a
/// query that runs the full algorithm.
fn focals(raw: &[Vec<f64>]) -> Vec<Vec<f64>> {
    raw.iter()
        .filter(|r| {
            let dominators = raw.iter().filter(|o| dominates(o, r)).count();
            (1..K).contains(&dominators)
        })
        .take(3)
        .cloned()
        .collect()
}

/// How a golden row runs its queries.
#[derive(Debug, Clone, Copy)]
enum Path {
    /// `kspr::run`: a throwaway engine per query, no shared prep.
    OneShot,
    /// `QueryEngine::run` on one engine with its shared prep warmed.
    WarmedEngine,
}

fn measure(alg: Algorithm, dist: Distribution, space: Space, path: Path) -> Golden {
    let raw = generate(dist, size(dist), D, SEED);
    let focals = focals(&raw);
    assert_eq!(focals.len(), 3, "{dist:?}: too few competitive records");
    let dataset = Dataset::new(raw);
    let config = match space {
        Transformed => KsprConfig::default(),
        Original => KsprConfig::original_space(),
    };
    assert!(
        config.finalize,
        "the golden table covers finalized polytopes"
    );
    let engine = QueryEngine::new(&dataset, config.clone());
    engine.shared_prep_for(K);
    let mut f = Fingerprint::new();
    let (mut pivots, mut tests, mut bound_calls, mut hits) = (0, 0, 0, 0);
    for focal in &focals {
        let result = match path {
            Path::OneShot => kspr_repro::kspr::run(alg, &dataset, focal, K, &config),
            Path::WarmedEngine => engine.run(alg, focal, K),
        };
        f.word(fingerprint(&result));
        pivots += result.stats.lp_pivots;
        tests += result.stats.feasibility_tests;
        bound_calls += result.stats.bound_lp_calls;
        hits += result.stats.witness_hits;
    }
    assert_eq!(
        engine.shared_prep_computes(),
        1,
        "warmed queries never recompute the shared prep"
    );
    (f.0, pivots, tests, bound_calls, hits)
}

/// The transformed-space runs use the default fast bounds (§6.3); the
/// original-space LP-CTA runs (Appendix C) take the group bounds on score
/// differences instead.
const CASES: [(Algorithm, Distribution, Space); 11] = [
    (Cta, Independent, Transformed),
    (Cta, AntiCorrelated, Transformed),
    (Cta, Correlated, Transformed),
    (Pcta, Independent, Transformed),
    (Pcta, AntiCorrelated, Transformed),
    (Pcta, Correlated, Transformed),
    (LpCta, Independent, Transformed),
    (LpCta, AntiCorrelated, Transformed),
    (LpCta, Correlated, Transformed),
    (LpCta, Independent, Original),
    (LpCta, AntiCorrelated, Original),
];

/// The golden row of each entry of [`CASES`].
const EXPECTED: [Golden; 11] = [
    (0xe4ed0a56b2009837, 59790, 7752, 0, 7181),
    (0xf47da7a064a81c29, 50985, 7964, 0, 7398),
    (0x56c9291b54d1a59d, 8118, 1278, 0, 1170),
    (0x2f1b18f61b143e8d, 9177, 1430, 0, 1314),
    (0xc70b9d168365618e, 25314, 4389, 0, 4085),
    (0x591cddf66be2b931, 1383, 256, 0, 229),
    (0x2f1b18f61b143e8d, 9177, 1430, 1362, 1314),
    (0xc70b9d168365618e, 25314, 4389, 4352, 4085),
    (0x591cddf66be2b931, 1383, 256, 392, 229),
    (0xa7c7a018e46d33fd, 14120, 1333, 5010, 1218),
    (0xe4fb4d59876c6edf, 53922, 4341, 10554, 4040),
];

/// The P-CTA and LP-CTA cases of [`CASES`] on the warmed-engine path.
const ENGINE_CASES: [(Algorithm, Distribution, Space); 8] = [
    (Pcta, Independent, Transformed),
    (Pcta, AntiCorrelated, Transformed),
    (Pcta, Correlated, Transformed),
    (LpCta, Independent, Transformed),
    (LpCta, AntiCorrelated, Transformed),
    (LpCta, Correlated, Transformed),
    (LpCta, Independent, Original),
    (LpCta, AntiCorrelated, Original),
];

/// The golden row of each entry of [`ENGINE_CASES`].
const ENGINE_EXPECTED: [Golden; 8] = [
    (0x2f1b18f61b143e8d, 9177, 1430, 0, 1314),
    (0xc70b9d168365618e, 25314, 4389, 0, 4085),
    (0x591cddf66be2b931, 1383, 256, 0, 229),
    (0x2f1b18f61b143e8d, 9177, 1430, 1362, 1314),
    (0xc70b9d168365618e, 25314, 4389, 4352, 4085),
    (0x591cddf66be2b931, 1383, 256, 392, 229),
    (0xa7c7a018e46d33fd, 14120, 1333, 5010, 1218),
    (0xe4fb4d59876c6edf, 53922, 4341, 10554, 4040),
];

/// Runs `cases` on `path` and panics with the actual table on a mismatch.
fn check_table(cases: &[(Algorithm, Distribution, Space)], expected: &[Golden], path: Path) {
    let actual: Vec<Golden> = cases
        .iter()
        .map(|&(alg, dist, space)| measure(alg, dist, space, path))
        .collect();
    if actual != expected {
        for ((case, a), e) in cases.iter().zip(&actual).zip(expected) {
            if a != e {
                eprintln!("{case:?}: expected {e:?}, got {a:?}");
            }
        }
        let table: String = actual
            .iter()
            .map(|(f, p, t, b, h)| format!("    ({f:#018x}, {p}, {t}, {b}, {h}),\n"))
            .collect();
        panic!("{path:?} golden table mismatch; actual table:\n{table}");
    }
}

#[test]
fn engine_results_and_work_counters_match_the_golden_table() {
    check_table(&CASES, &EXPECTED, Path::OneShot);
}

#[test]
fn warmed_engine_runs_match_the_golden_table() {
    check_table(&ENGINE_CASES, &ENGINE_EXPECTED, Path::WarmedEngine);
}

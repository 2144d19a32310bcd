//! Answer checks, run outside the timed window.  Every check has a
//! counterpart in [`self_test`] that feeds it a corrupted answer and
//! expects a rejection, so a check that silently passes everything fails
//! the run.

use crate::report::{fnv, FNV_START};
use kspr::naive::{classification_agreement, is_top_k};
use kspr::{KsprResult, Region};
use kspr_wire::{ApproxSummary, ResultSummary, WireResponse};

/// Error budget (interval half-width) of the approximate queries.
pub const EPSILON: f64 = 0.05;

/// Weight vectors sampled per exact result by [`exact_agrees`]: enough to
/// land in a region covering 0.3% of the preference space with 95%
/// probability.
pub const AGREEMENT_SAMPLES: usize = 1000;

/// The records that can outrank a focal record in some top-`k`: those with
/// fewer than `k` dominators, counted by brute force.  Any record that
/// outscores the focal and has `k` dominators is outscored by all of them,
/// so under positive weights the focal is in the top-`k` of `records`
/// exactly when it is in the top-`k` of these; the oracle scores ~10x fewer
/// records.
pub fn candidates(records: &[Vec<f64>], k: usize) -> Vec<Vec<f64>> {
    records
        .iter()
        .filter(|r| {
            records
                .iter()
                .filter(|o| kspr_spatial::dominates(o, r))
                .take(k)
                .count()
                < k
        })
        .cloned()
        .collect()
}

/// The exact result agrees with the brute-force definition of the query on
/// every sampled weight vector, and at an interior point of every region
/// (sampling alone cannot see regions far smaller than 1/1000 of the
/// space, which most results here are).  `records` may be the full record
/// set or its [`candidates`].
pub fn exact_agrees(
    result: &KsprResult,
    records: &[Vec<f64>],
    focal: &[f64],
    k: usize,
    seed: u64,
) -> bool {
    classification_agreement(result, records, focal, k, AGREEMENT_SAMPLES, seed) == 1.0
        && witnesses(result).all(|w| top_k_at(result, records, focal, k, &w))
}

/// `result` contains every interior point of `reference` (another
/// algorithm's answer to the same query) at which the brute-force
/// definition puts the focal in the top-`k`: this catches regions missing
/// from `result` that are too small for the sampling in [`exact_agrees`].
pub fn covers(
    result: &KsprResult,
    reference: &KsprResult,
    records: &[Vec<f64>],
    focal: &[f64],
    k: usize,
) -> bool {
    witnesses(reference).all(|w| !top_k_at(reference, records, focal, k, &w) || result.contains(&w))
}

/// An interior point of every finalized region: its polytope's centroid.
fn witnesses(result: &KsprResult) -> impl Iterator<Item = Vec<f64>> + '_ {
    result
        .regions
        .iter()
        .filter_map(|r| r.polytope.as_ref().map(|p| p.centroid()))
}

/// The brute-force definition at working-space point `w`.
fn top_k_at(result: &KsprResult, records: &[Vec<f64>], focal: &[f64], k: usize, w: &[f64]) -> bool {
    is_top_k(records, focal, &result.space.to_full_weight(w), k)
}

/// A bit-level fingerprint of an exact result: every region's rank and
/// bounding halfspaces, in order.
pub fn fingerprint(result: &KsprResult) -> u64 {
    let mut hash = fnv(FNV_START, &(result.regions.len() as u64).to_le_bytes());
    for region in &result.regions {
        hash = fnv(hash, &(region.rank as u64).to_le_bytes());
        for (plane, sign) in &region.halfspaces {
            for c in &plane.coeffs {
                hash = fnv(hash, &c.to_bits().to_le_bytes());
            }
            hash = fnv(hash, &plane.rhs.to_bits().to_le_bytes());
            hash = fnv(hash, &[*sign as u8]);
        }
    }
    hash
}

/// A lookup reply: an exact result with no region.
pub fn lookup_ok(resp: &WireResponse) -> bool {
    matches!(
        resp,
        WireResponse::Result(ResultSummary {
            num_regions: 0,
            whole_space: false,
            ..
        })
    )
}

/// An approximate reply within the requested half-width.
pub fn approx_ok(resp: &WireResponse, epsilon: f64) -> bool {
    matches!(resp, WireResponse::Approx(ApproxSummary { impact, half_width, samples })
        if *half_width <= epsilon && (0.0..=1.0).contains(impact) && *samples > 0)
}

/// A delete acknowledged as having removed a live record.
pub fn delete_ok(resp: &WireResponse) -> bool {
    matches!(resp, WireResponse::Deleted { removed: true })
}

/// An exact result of the run with its inputs (`k` is [`crate::K`]).
pub struct Sample<'a> {
    pub result: &'a KsprResult,
    pub records: &'a [Vec<f64>],
    pub focal: &'a [f64],
}

/// Feeds every check a corrupted answer; returns the checks that wrongly
/// accepted theirs (empty when the checks work).
///
/// `sample` is an exact result of the run with its inputs; callers pass the
/// one with the fewest regions, whose corruption (claiming the whole space)
/// the oracle sees on most sampled weights.  `covered`, if given, is a
/// non-empty result: [`covers`] must reject an empty answer against it.
pub fn self_test(sample: Option<Sample>, covered: Option<Sample>) -> Vec<&'static str> {
    let mut missed = Vec::new();
    if let Some(Sample {
        result,
        records,
        focal,
    }) = sample
    {
        let mut corrupt = result.clone();
        if corrupt.is_whole_space() {
            corrupt.regions.clear();
        } else {
            corrupt.regions = vec![Region::new(1, Vec::new())];
        }
        if exact_agrees(&corrupt, records, focal, crate::K, 1) {
            missed.push("exact_agrees accepted a flipped result");
        }
        if fingerprint(&corrupt) == fingerprint(result) {
            missed.push("fingerprint missed a changed result");
        }
    }
    if let Some(Sample {
        result,
        records,
        focal,
    }) = covered
    {
        let mut empty = result.clone();
        empty.regions.clear();
        if covers(&empty, result, records, focal, crate::K) {
            missed.push("covers accepted an answer missing every region");
        }
    }
    let non_empty = WireResponse::Result(ResultSummary {
        num_regions: 1,
        whole_space: false,
        rank_signature: vec![1],
    });
    if lookup_ok(&non_empty) {
        missed.push("lookup_ok accepted a non-empty reply");
    }
    let wide = WireResponse::Approx(ApproxSummary {
        impact: 0.5,
        half_width: EPSILON * 1.5,
        samples: 10,
    });
    if approx_ok(&wide, EPSILON) {
        missed.push("approx_ok accepted a too-wide interval");
    }
    if delete_ok(&WireResponse::Deleted { removed: false }) {
        missed.push("delete_ok accepted a delete that removed nothing");
    }
    missed
}

//! Band-first preparation against the full one: for LP-CTA, reading the
//! competitors off the engine's cached dataset-level k-skyband
//! (`prepare_from_band`) must yield exactly what the Section 3.1 filter
//! over every record followed by the competitor-level skyband cut
//! (`prepare_with_index` + `restrict_to_witness_skyband`) yields, and the
//! whole LP-CTA answer must not move by a bit.
//!
//! The datasets sit on a coarse grid so that equal coordinates, records
//! tied with the focal record and duplicate records are common.  Each case
//! warms the cache for a `k` at least the query's, then inserts and deletes
//! records, so the band the query reads has been patched in place, the
//! dataset carries tombstones, and a smaller `k` is served as a view.

use kspr_repro::geometry::Sign;
use kspr_repro::kspr::prep::{
    prepare_from_band, prepare_with_index, restrict_to_witness_skyband, Prepared,
};
use kspr_repro::kspr::{Algorithm, Dataset, KsprConfig, KsprResult, QueryEngine, QueryStats};
use proptest::prelude::*;
use std::sync::Arc;

const D: usize = 3;

/// A record on the grid `{1/6, .., 5/6}^D`, drawn as grid indices.
fn grid_record() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(1u8..6, D)
}

fn on_grid(cells: &[u8]) -> Vec<f64> {
    cells.iter().map(|&c| f64::from(c) / 6.0).collect()
}

/// Everything a prepared query carries, values as bits: the outcome, the
/// kept records with their dataset ids, `k_effective`, the dominator count,
/// whether the tree is the dataset index, and the preprocessing counters.
fn summary(prepared: &Prepared, dataset: &Dataset, stats: &QueryStats) -> Vec<u64> {
    let mut out = vec![
        stats.dominating_records as u64,
        stats.dominated_records as u64,
    ];
    match prepared {
        Prepared::Empty { dominators } => out.extend([0, *dominators as u64]),
        Prepared::WholeSpace { dominators } => out.extend([1, *dominators as u64]),
        Prepared::Filtered(f) => {
            out.extend([
                2,
                f.dominators as u64,
                f.k_effective as u64,
                u64::from(Arc::ptr_eq(&f.tree, &dataset.shared_index())),
                f.tree.len() as u64,
                f.records.len() as u64,
            ]);
            for (record, &original) in f.records.iter().zip(&f.original_ids) {
                out.extend([record.id as u64, original as u64]);
                out.extend(record.values.iter().map(|v| v.to_bits()));
            }
            out.push(f.original_ids.len() as u64);
        }
    }
    out
}

/// Every region of a result as bits: rank, bounding planes with their
/// signs, and the finalized polytope.
fn result_bits(result: &KsprResult) -> Vec<u64> {
    let mut out = vec![result.regions.len() as u64];
    for region in &result.regions {
        out.push(region.rank as u64);
        for (plane, sign) in &region.halfspaces {
            out.extend(plane.coeffs.iter().map(|v| v.to_bits()));
            out.push(plane.rhs.to_bits());
            out.push(u64::from(*sign == Sign::Positive));
        }
        if let Some(poly) = &region.polytope {
            for c in poly.constraints() {
                out.extend(c.coeffs.iter().map(|v| v.to_bits()));
                out.push(c.op as u64);
                out.push(c.rhs.to_bits());
            }
            for v in poly.vertices() {
                out.extend(v.iter().map(|x| x.to_bits()));
            }
        }
    }
    out
}

/// The query's stats with the wall-clock fields cleared (the phase timings
/// already compare equal).
fn work(result: &KsprResult) -> QueryStats {
    QueryStats {
        wall_time_ns: 0,
        ..result.stats.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn band_first_prep_equals_the_full_filter_and_cut(
        raw in prop::collection::vec(grid_record(), 6..40),
        focal in grid_record(),
        setup in (0usize..3, 1usize..5, 0usize..3),
        ops in prop::collection::vec((0u8..5, grid_record(), 0usize..1 << 16), 0..8),
    ) {
        let (ties, k, extra_k) = setup;
        let focal = on_grid(&focal);
        let mut rows: Vec<Vec<f64>> = raw.iter().map(|r| on_grid(r)).collect();
        // Exact ties with the focal record, spread through the slots.
        for t in 0..ties {
            let at = (t * 7) % rows.len();
            rows.insert(at, focal.clone());
        }
        let config = KsprConfig::default();
        let mut engine = QueryEngine::new(&Dataset::new(rows), config.clone());
        // Warm a band at least as large as the query's, then patch it.
        engine.shared_prep_for(k + extra_k);
        for (kind, cells, pick) in ops {
            let live: Vec<usize> = engine.dataset().live_records().map(|r| r.id).collect();
            match kind {
                0 | 1 if live.len() > 2 => {
                    prop_assert!(engine.delete(live[pick % live.len()]));
                }
                2 => {
                    engine.insert(focal.clone());
                }
                _ => {
                    engine.insert(on_grid(&cells));
                }
            }
        }
        let band = engine.shared_prep_for(k);
        prop_assert_eq!(band.k(), k);
        prop_assert_eq!(engine.shared_prep_computes(), 1, "the band was patched, not recomputed");

        let dataset = engine.dataset();
        let fanout = config.rtree_fanout;
        let mut full_stats = QueryStats::new();
        let full = match prepare_with_index(dataset, &focal, k, fanout, &mut full_stats) {
            Prepared::Filtered(f) => Prepared::Filtered(restrict_to_witness_skyband(f, fanout)),
            other => other,
        };
        let mut band_stats = QueryStats::new();
        let band_first = prepare_from_band(dataset, &band, &focal, k, fanout, &mut band_stats);
        prop_assert_eq!(
            summary(&band_first, dataset, &band_stats),
            summary(&full, dataset, &full_stats)
        );

        // The engine's LP-CTA (band-first) against a one-shot run over the
        // same dataset (full filter and cut).
        let shared = engine.run(Algorithm::LpCta, &focal, k);
        let one_shot = kspr_repro::kspr::run(Algorithm::LpCta, dataset, &focal, k, &config);
        prop_assert_eq!(result_bits(&shared), result_bits(&one_shot));
        prop_assert_eq!(work(&shared), work(&one_shot));
        prop_assert_eq!(engine.shared_prep_computes(), 1);
    }
}

//! Dominance-based preprocessing (Section 3.1 of the paper).
//!
//! Records that dominate the focal record `p` score higher than `p` for every
//! weight vector, so the kSPR answer on `D` equals the answer on
//! `D` minus those records with `k` reduced by their number.  Records that
//! `p` dominates (or ties with exactly) can never outrank `p` and are dropped
//! outright.  The remaining records are re-indexed in a query-local aggregate
//! R-tree used by the skyline batching of P-CTA and the group bounds of
//! LP-CTA.
//!
//! Bound-using policies (LP-CTA) traverse only the `k_effective`-skyband of
//! the competitors (Lemma 6).  [`prepare_from_band`] reads that band off the
//! dataset-level k-skyband of a [`SharedPrep`] without materializing the
//! other competitors; [`restrict_to_witness_skyband`] derives the same set
//! from a full [`prepare_with_index`] output when no band is at hand.

use crate::dataset::Dataset;
use crate::engine::SharedPrep;
use crate::stats::QueryStats;
use kspr_spatial::{dominates, k_skyband, AggregateRTree, DomClass, Record, RecordId};
use std::sync::Arc;

/// Outcome of preprocessing a query.
#[derive(Debug)]
pub enum Prepared {
    /// The focal record can never be in the top-`k`: at least `k` records
    /// dominate it, so the result is empty.
    Empty {
        /// Number of records dominating the focal record.
        dominators: usize,
    },
    /// The focal record is in the top-`k` for *every* weight vector: after
    /// removing dominators and dominated records no competitor remains and
    /// fewer than `k` dominators exist.
    WholeSpace {
        /// Number of records dominating the focal record.
        dominators: usize,
    },
    /// The general case: the filtered competitors and the effective `k`.
    Filtered(FilteredQuery),
}

/// The filtered competitor set for the general case.
#[derive(Debug)]
pub struct FilteredQuery {
    /// Competitors that neither dominate nor are dominated by the focal
    /// record, re-identified with sequential ids.
    pub records: Vec<Record>,
    /// Original dataset ids of the filtered records (`original_ids[i]` is the
    /// dataset id of filtered record `i`).  Always ascending, so the inverse
    /// mapping is a binary search.
    pub original_ids: Vec<usize>,
    /// Aggregate R-tree over the filtered records.  Usually query-local;
    /// when preprocessing removes no record the dataset index is reused
    /// (shared) instead of being rebuilt.
    pub tree: Arc<AggregateRTree>,
    /// Effective `k` after accounting for dominators of the focal record.
    pub k_effective: usize,
    /// Number of records dominating the focal record.
    pub dominators: usize,
    /// Snapshot of the index's simulated-I/O counter taken when the query
    /// started; per-query I/O is reported as the delta against it.  (For a
    /// shared index serving concurrent queries the delta is approximate —
    /// it only affects statistics, never results.)
    pub io_base: u64,
}

impl FilteredQuery {
    /// The filtered dataset id corresponding to an original dataset id, if
    /// the record survived preprocessing.
    pub fn filtered_id_of(&self, original_id: usize) -> Option<usize> {
        self.original_ids.binary_search(&original_id).ok()
    }
}

/// Runs the Section 3.1 preprocessing.
///
/// * Records identical to `focal` are treated as ties and ignored (the paper
///   ignores ties "for ease of presentation").
/// * `stats` receives the dominator / dominated counts.
///
/// # Panics
/// Panics if `k == 0` or if `focal` does not match the dataset arity.
pub fn prepare(
    records: &[Record],
    focal: &[f64],
    k: usize,
    fanout: usize,
    stats: &mut QueryStats,
) -> Prepared {
    prepare_impl(records, focal, k, fanout, stats, None)
}

/// Like [`prepare`], but with access to the dataset's prebuilt index: when
/// preprocessing removes no record and the dataset index was built with the
/// requested fanout, the (identical) dataset R-tree is reused instead of
/// being bulk-loaded again.  The reused index is shared — across queries and,
/// in batch mode, across threads — which is safe because all traversals are
/// read-only.
pub fn prepare_with_index(
    dataset: &Dataset,
    focal: &[f64],
    k: usize,
    fanout: usize,
    stats: &mut QueryStats,
) -> Prepared {
    prepare_impl(dataset.records(), focal, k, fanout, stats, Some(dataset))
}

fn prepare_impl(
    records: &[Record],
    focal: &[f64],
    k: usize,
    fanout: usize,
    stats: &mut QueryStats,
    dataset: Option<&Dataset>,
) -> Prepared {
    assert!(k >= 1, "k must be at least 1");
    assert!(
        records.iter().all(|r| r.dim() == focal.len()),
        "focal record arity must match the dataset"
    );

    let mut dominators = 0usize;
    let mut dominated = 0usize;
    let mut kept: Vec<Record> = Vec::new();
    let mut original_ids: Vec<usize> = Vec::new();

    // Dataset-backed queries classify through the columnar dominance kernel
    // (one contiguous column sweep instead of a pointer chase per record);
    // the slice-backed path keeps the row-major tests.  Both decide the
    // exact same comparisons, so the outcomes are identical.
    let mut classes: Vec<DomClass> = Vec::new();
    if let Some(d) = dataset {
        stats.phases.dominance_ns += d.columns().classify_into_timed(focal, &mut classes);
    }

    for r in records {
        if let Some(d) = dataset {
            // Record slots deleted through a `DatasetStore` stay in the slice
            // (ids are stable) but must not act as competitors.
            if !d.is_live(r.id) {
                continue;
            }
        }
        let class = match classes.get(r.id) {
            Some(&c) => c,
            None => {
                if r.values == focal {
                    DomClass::Tie
                } else if dominates(&r.values, focal) {
                    DomClass::Dominates
                } else if dominates(focal, &r.values) {
                    DomClass::Dominated
                } else {
                    DomClass::Incomparable
                }
            }
        };
        match class {
            // Tie with the focal record: ignored.
            DomClass::Tie => {}
            DomClass::Dominates => dominators += 1,
            DomClass::Dominated => dominated += 1,
            DomClass::Incomparable => {
                original_ids.push(r.id);
                kept.push(Record::new(kept.len(), r.values.clone()));
            }
        }
    }

    stats.dominating_records = dominators;
    stats.dominated_records = dominated;

    if dominators >= k {
        return Prepared::Empty { dominators };
    }
    if kept.is_empty() {
        return Prepared::WholeSpace { dominators };
    }
    Prepared::Filtered(filtered_query(
        kept,
        original_ids,
        dataset,
        fanout,
        k - dominators,
        dominators,
    ))
}

/// The Section 3.1 preprocessing of a bound-using policy, read off the
/// dataset-level k-skyband: the same [`Prepared`] that
/// [`prepare_with_index`] followed by [`restrict_to_witness_skyband`]
/// returns, without materializing competitors outside the band.
///
/// The columnar classification still sweeps every live record, so the
/// dominator, dominated and tie counts (and with them the `Empty` and
/// `WholeSpace` outcomes) are exact.  Only band members incomparable to the
/// focal record are then considered.  That loses nothing: a competitor with
/// fewer than `k_effective` dominators among the competitors has fewer than
/// `k` in the dataset (its other dominators all dominate the focal record
/// too), so it is a band member.  A member is kept iff fewer than
/// `k_effective` of its dominators are competitors, which the band answers
/// exactly because every dominator of a member is itself a member and
/// [`SharedPrep::dominators_of`] lists all of them.
///
/// # Panics
/// Panics if `k == 0`, if `band` was computed for another `k`, or if
/// `focal` does not match the dataset arity.
pub fn prepare_from_band(
    dataset: &Dataset,
    band: &SharedPrep,
    focal: &[f64],
    k: usize,
    fanout: usize,
    stats: &mut QueryStats,
) -> Prepared {
    assert!(k >= 1, "k must be at least 1");
    assert_eq!(
        band.k(),
        k,
        "the band must be the k-skyband of the query's k"
    );
    assert_eq!(
        dataset.dim(),
        focal.len(),
        "focal record arity must match the dataset"
    );

    let mut classes: Vec<DomClass> = Vec::new();
    stats.phases.dominance_ns += dataset.columns().classify_into_timed(focal, &mut classes);
    let (mut dominators, mut dominated, mut competitors) = (0usize, 0usize, 0usize);
    for (id, class) in classes.iter().enumerate() {
        if !dataset.is_live(id) {
            continue;
        }
        match class {
            DomClass::Tie => {}
            DomClass::Dominates => dominators += 1,
            DomClass::Dominated => dominated += 1,
            DomClass::Incomparable => competitors += 1,
        }
    }
    stats.dominating_records = dominators;
    stats.dominated_records = dominated;

    if dominators >= k {
        return Prepared::Empty { dominators };
    }
    if competitors == 0 {
        return Prepared::WholeSpace { dominators };
    }
    let k_effective = k - dominators;
    // Band members are live, and so are their dominators.
    let competes = |id: RecordId| classes[id] == DomClass::Incomparable;
    let mut keep: Vec<RecordId> = band
        .skyband()
        .iter()
        .copied()
        .filter(|&m| {
            competes(m)
                && band
                    .dominators_of(m)
                    .expect("band member has a dominator list")
                    .iter()
                    .filter(|&&d| competes(d))
                    .take(k_effective)
                    .count()
                    < k_effective
        })
        .collect();
    keep.sort_unstable();
    let records = keep
        .iter()
        .enumerate()
        .map(|(i, &id)| Record::new(i, dataset.records()[id].values.clone()))
        .collect();
    Prepared::Filtered(filtered_query(
        records,
        keep,
        Some(dataset),
        fanout,
        k_effective,
        dominators,
    ))
}

/// Restricts a filtered competitor set to its `k_effective`-skyband, the
/// stable core that bound-using policies (LP-CTA) traverse and bound against.
///
/// The band scan covers every competitor.  When nothing is pruned the
/// prepared query (and its possibly-shared tree) is passed through
/// untouched.  [`prepare_from_band`] yields the same query from the
/// dataset-level band; the engine takes this path only where it holds no
/// band of the query's `k`.
pub fn restrict_to_witness_skyband(filtered: FilteredQuery, fanout: usize) -> FilteredQuery {
    let mut keep = k_skyband(&filtered.records, filtered.k_effective);
    if keep.len() == filtered.records.len() {
        return filtered;
    }
    // The band scan emits decreasing coordinate-sum order; re-id ascending so
    // `original_ids` stays sorted (its binary-search invariant).
    keep.sort_unstable();
    let records: Vec<Record> = keep
        .iter()
        .enumerate()
        .map(|(i, &id)| Record::new(i, filtered.records[id].values.clone()))
        .collect();
    let original_ids: Vec<usize> = keep.iter().map(|&id| filtered.original_ids[id]).collect();
    filtered_query(
        records,
        original_ids,
        None,
        fanout,
        filtered.k_effective,
        filtered.dominators,
    )
}

/// Indexes the kept competitors (`records`, re-id'd `0..`, with their
/// ascending dataset ids) into a [`FilteredQuery`].
fn filtered_query(
    records: Vec<Record>,
    original_ids: Vec<usize>,
    dataset: Option<&Dataset>,
    fanout: usize,
    k_effective: usize,
    dominators: usize,
) -> FilteredQuery {
    let tree = match dataset {
        // Fast path: nothing was filtered out, so the filtered set *is* the
        // dataset (same records, same sequential ids — `bulk_load` asserts
        // every indexed record's id equals its position, so the dataset index
        // can never disagree with the re-id'd `records` vector here) and the
        // prebuilt index can be shared as-is.  Sharing is result-preserving:
        // an index grown by incremental inserts may differ in *shape* from
        // the STR tree a rebuild would produce, which can shift traversal
        // statistics (node reads, bound tightness) but never the record set
        // or the query result.  The length comparison is against the raw
        // slot count, so a dataset with tombstones (where surviving ids are
        // no longer sequential) can never take this path.
        Some(d) if records.len() == d.records().len() && d.tree().fanout() == fanout => {
            d.shared_index()
        }
        _ => Arc::new(AggregateRTree::bulk_load(records.clone(), fanout)),
    };
    let io_base = tree.io().reads();
    FilteredQuery {
        records,
        original_ids,
        tree,
        k_effective,
        dominators,
        io_base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(raw: &[Vec<f64>]) -> Vec<Record> {
        raw.iter()
            .enumerate()
            .map(|(i, v)| Record::new(i, v.clone()))
            .collect()
    }

    #[test]
    fn filters_dominators_and_dominated() {
        let data = records(&[
            vec![0.9, 0.9], // dominates focal
            vec![0.1, 0.1], // dominated by focal
            vec![0.9, 0.1], // incomparable
            vec![0.5, 0.5], // tie (identical)
        ]);
        let mut stats = QueryStats::new();
        let prep = prepare(&data, &[0.5, 0.5], 3, 8, &mut stats);
        match prep {
            Prepared::Filtered(f) => {
                assert_eq!(f.records.len(), 1);
                assert_eq!(f.original_ids, vec![2]);
                assert_eq!(f.k_effective, 2);
                assert_eq!(f.dominators, 1);
            }
            other => panic!("expected Filtered, got {other:?}"),
        }
        assert_eq!(stats.dominating_records, 1);
        assert_eq!(stats.dominated_records, 1);
    }

    #[test]
    fn too_many_dominators_yields_empty() {
        let data = records(&[vec![0.9, 0.9], vec![0.8, 0.8], vec![0.7, 0.7]]);
        let mut stats = QueryStats::new();
        match prepare(&data, &[0.5, 0.5], 2, 8, &mut stats) {
            Prepared::Empty { dominators } => assert_eq!(dominators, 3),
            other => panic!("expected Empty, got {other:?}"),
        }
    }

    #[test]
    fn no_competitors_yields_whole_space() {
        let data = records(&[vec![0.1, 0.1], vec![0.2, 0.2]]);
        let mut stats = QueryStats::new();
        match prepare(&data, &[0.5, 0.5], 1, 8, &mut stats) {
            Prepared::WholeSpace { dominators } => assert_eq!(dominators, 0),
            other => panic!("expected WholeSpace, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn rejects_zero_k() {
        let data = records(&[vec![0.1, 0.1]]);
        prepare(&data, &[0.5, 0.5], 0, 8, &mut QueryStats::new());
    }

    #[test]
    fn index_reuse_when_nothing_is_filtered() {
        use crate::dataset::Dataset;
        // Pairwise-incomparable records and an incomparable focal record:
        // preprocessing keeps everything, so the dataset index is shared.
        let dataset = Dataset::new(vec![vec![0.9, 0.1], vec![0.1, 0.9], vec![0.6, 0.35]]);
        let mut stats = QueryStats::new();
        let prep = prepare_with_index(
            &dataset,
            &[0.5, 0.5],
            2,
            AggregateRTree::DEFAULT_FANOUT,
            &mut stats,
        );
        match prep {
            Prepared::Filtered(f) => {
                assert!(
                    Arc::ptr_eq(&f.tree, &dataset.shared_index()),
                    "index must be shared"
                );
                assert_eq!(f.records.len(), dataset.len());
                assert_eq!(f.filtered_id_of(2), Some(2));
            }
            other => panic!("expected Filtered, got {other:?}"),
        }
        // A different fanout forces a query-local rebuild.
        let mut stats = QueryStats::new();
        if let Prepared::Filtered(f) = prepare_with_index(&dataset, &[0.5, 0.5], 2, 4, &mut stats) {
            assert!(!Arc::ptr_eq(&f.tree, &dataset.shared_index()));
            assert_eq!(f.tree.fanout(), 4);
        } else {
            panic!("expected Filtered");
        }
    }

    #[test]
    fn band_first_prep_shares_the_index_only_when_nothing_is_filtered() {
        use crate::engine::SharedPrep;
        // Pairwise-incomparable records around an incomparable focal record:
        // every record is a competitor with no dominator, so nothing is cut
        // and the dataset index is shared, as on the full path.
        let dataset = Dataset::new(vec![vec![0.9, 0.1], vec![0.1, 0.9], vec![0.6, 0.35]]);
        let fanout = AggregateRTree::DEFAULT_FANOUT;
        let band = SharedPrep::compute(&dataset, 2);
        match prepare_from_band(
            &dataset,
            &band,
            &[0.5, 0.5],
            2,
            fanout,
            &mut QueryStats::new(),
        ) {
            Prepared::Filtered(f) => {
                assert!(Arc::ptr_eq(&f.tree, &dataset.shared_index()));
                assert_eq!(f.original_ids, vec![0, 1, 2]);
            }
            other => panic!("expected Filtered, got {other:?}"),
        }
        // (0.55, 0.3) is dominated by record 2 and incomparable to the focal
        // record: for k = 1 it is cut, so the kept records get a query-local
        // tree, re-id'd in ascending dataset id.
        let dataset = Dataset::new(vec![
            vec![0.55, 0.3],
            vec![0.9, 0.1],
            vec![0.1, 0.9],
            vec![0.6, 0.35],
        ]);
        let band = SharedPrep::compute(&dataset, 1);
        let mut stats = QueryStats::new();
        match prepare_from_band(&dataset, &band, &[0.5, 0.5], 1, fanout, &mut stats) {
            Prepared::Filtered(f) => {
                assert!(!Arc::ptr_eq(&f.tree, &dataset.shared_index()));
                assert_eq!(f.original_ids, vec![1, 2, 3]);
                assert!(f.records.iter().enumerate().all(|(i, r)| r.id == i));
                assert_eq!(f.k_effective, 1);
            }
            other => panic!("expected Filtered, got {other:?}"),
        }
        assert_eq!((stats.dominating_records, stats.dominated_records), (0, 0));
        // Outcomes decided by the counts come out as on the full path.
        let band = SharedPrep::compute(&dataset, 1);
        assert!(matches!(
            prepare_from_band(&dataset, &band, &[0.05, 0.05], 1, fanout, &mut stats),
            Prepared::Empty { dominators: 4 }
        ));
        assert!(matches!(
            prepare_from_band(&dataset, &band, &[0.95, 0.95], 1, fanout, &mut stats),
            Prepared::WholeSpace { dominators: 0 }
        ));
    }

    #[test]
    fn tombstoned_records_are_not_competitors() {
        use crate::dataset::DatasetStore;
        // Record 1 dominates the focal record; once deleted it must stop
        // counting, and the query-local tree must be rebuilt (no fast-path
        // sharing of an index with id gaps).
        let mut store = DatasetStore::from_raw(vec![
            vec![0.9, 0.1],
            vec![0.9, 0.9],
            vec![0.1, 0.9],
            vec![0.6, 0.4],
        ]);
        store.delete(1);
        let mut stats = QueryStats::new();
        let prep = prepare_with_index(
            store.dataset(),
            &[0.5, 0.5],
            2,
            AggregateRTree::DEFAULT_FANOUT,
            &mut stats,
        );
        match prep {
            Prepared::Filtered(f) => {
                assert_eq!(f.original_ids, vec![0, 2, 3]);
                assert_eq!(f.k_effective, 2, "the deleted dominator is gone");
                assert!(
                    !Arc::ptr_eq(&f.tree, &store.dataset().shared_index()),
                    "an index with tombstones must not be shared"
                );
                assert!(f.records.iter().enumerate().all(|(i, r)| r.id == i));
            }
            other => panic!("expected Filtered, got {other:?}"),
        }
        assert_eq!(stats.dominating_records, 0);
    }

    #[test]
    fn filtered_id_mapping_round_trips() {
        let data = records(&[vec![0.9, 0.1], vec![0.9, 0.9], vec![0.1, 0.9]]);
        let mut stats = QueryStats::new();
        if let Prepared::Filtered(f) = prepare(&data, &[0.5, 0.5], 2, 8, &mut stats) {
            // Record 1 dominates the focal record and is filtered out.
            assert_eq!(f.original_ids, vec![0, 2]);
            assert_eq!(f.filtered_id_of(0), Some(0));
            assert_eq!(f.filtered_id_of(1), None);
            assert_eq!(f.filtered_id_of(2), Some(1));
        } else {
            panic!("expected Filtered");
        }
    }

    #[test]
    fn filtered_ids_are_sequential() {
        let data = records(&[vec![0.9, 0.1], vec![0.1, 0.9], vec![0.6, 0.4]]);
        let mut stats = QueryStats::new();
        if let Prepared::Filtered(f) = prepare(&data, &[0.5, 0.5], 2, 8, &mut stats) {
            assert!(f.records.iter().enumerate().all(|(i, r)| r.id == i));
            assert_eq!(f.original_ids.len(), f.records.len());
        } else {
            panic!("expected Filtered");
        }
    }
}

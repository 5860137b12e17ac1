//! Commutative merge laws for summary statistics.
//!
//! Partial summaries built apart (per-thread profile shards, per-worker
//! stores merged by the distributed runner) only combine into
//! order-independent results because the underlying merges are
//! **commutative and associative**: any merge tree over any partition
//! of the same observation multiset must summarize to the same statistics.
//! This module names that law as a trait — the `Commute` idiom — so the
//! property-based tests can state it once and every mergeable summary type
//! can declare itself subject to it.
//!
//! Two grades of the law apply:
//!
//! * **Exact** — counts, min/max and histogram bins are integer or lattice
//!   operations, commutative and associative bit-for-bit.  [`Histogram`]'s
//!   merge is in this grade.
//! * **Analytic** — floating-point sums commute bit-for-bit (IEEE-754
//!   `a + b == b + a`) but only associate up to rounding, so
//!   [`RunningStats`] merge trees agree to within accumulated ulps, not
//!   bits.  Bit-identical *reports* are still guaranteed at the layer
//!   above: `ExperimentReport::from_records` sorts records into canonical
//!   (scenario, policy, seed) order and folds in one fixed sequence, so
//!   every partition of the record set reaches that fold identically.

use caem_simcore::stats::{Histogram, RunningStats};

/// A summary that can absorb another summary of the same shape such that
/// the result depends only on the union of the underlying observations —
/// not on which side they arrived from (commutativity) or how intermediate
/// merges were grouped (associativity, exactly or up to float rounding; see
/// the module docs).
pub trait Commute: Sized {
    /// Absorb `other` into `self`.
    fn commute(&mut self, other: Self);

    /// Merge every summary of an iterator into one (`None` when empty) —
    /// the canonical reduction for per-worker partial summaries.
    fn merge_all<I: IntoIterator<Item = Self>>(iter: I) -> Option<Self> {
        let mut iter = iter.into_iter();
        let mut acc = iter.next()?;
        for item in iter {
            acc.commute(item);
        }
        Some(acc)
    }
}

impl Commute for RunningStats {
    fn commute(&mut self, other: Self) {
        self.merge(&other);
    }
}

impl Commute for Histogram {
    fn commute(&mut self, other: Self) {
        self.merge(&other);
    }
}

/// Element-wise merge of parallel summary columns (e.g. one accumulator per
/// metric).  Both sides must have the same length — mismatched columns mean
/// the partitions disagree about the schema, which is a bug, not data.
impl<T: Commute> Commute for Vec<T> {
    fn commute(&mut self, other: Self) {
        assert_eq!(
            self.len(),
            other.len(),
            "cannot commute summary vectors of different lengths"
        );
        for (slot, item) in self.iter_mut().zip(other) {
            slot.commute(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_all_folds_partitions_like_one_accumulator() {
        let data: Vec<f64> = (0..120).map(|i| (i as f64 * 0.7).sin() * 4.0).collect();
        let mut whole = RunningStats::new();
        whole.extend(data.iter().copied());
        let parts: Vec<RunningStats> = data
            .chunks(7)
            .map(|chunk| {
                let mut s = RunningStats::new();
                s.extend(chunk.iter().copied());
                s
            })
            .collect();
        let merged = Commute::merge_all(parts).expect("non-empty");
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        assert!((merged.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
    }

    #[test]
    fn merge_all_of_empty_iterator_is_none() {
        assert!(Commute::merge_all(Vec::<RunningStats>::new()).is_none());
    }

    #[test]
    fn vec_commute_is_element_wise() {
        let column = |values: &[f64]| {
            values
                .iter()
                .map(|&v| {
                    let mut s = RunningStats::new();
                    s.push(v);
                    s
                })
                .collect::<Vec<_>>()
        };
        let mut a = column(&[1.0, 10.0]);
        a.commute(column(&[3.0, 30.0]));
        assert_eq!(a[0].count(), 2);
        assert!((a[0].mean() - 2.0).abs() < 1e-12);
        assert!((a[1].mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn vec_commute_rejects_schema_mismatch() {
        let mut a = vec![RunningStats::new()];
        a.commute(vec![RunningStats::new(), RunningStats::new()]);
    }
}

//! Equi-depth histograms for selectivity estimation.
//!
//! The greedy join-order optimizer (Section 8's "optimal join order" step)
//! needs to *rank* relations by their size after local predicates. A fixed
//! per-predicate discount is blind to the data; an equi-depth histogram over
//! the α-cut left endpoints of a column gives a defensible estimate of how
//! many tuples can satisfy a comparison with a constant — fuzzily: a tuple
//! can satisfy `X θ c` only if its support interval is positioned
//! appropriately, which the histogram bounds.

use fuzzy_core::{CmpOp, Value};
use fuzzy_rel::StoredTable;
use fuzzy_storage::Result;

/// An equi-depth histogram over one numeric column.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket boundaries (ascending); bucket `k` covers
    /// `[bounds[k], bounds[k+1])`.
    bounds: Vec<f64>,
    /// Tuples per bucket (equi-depth: roughly equal).
    depths: Vec<u64>,
    /// Tuples with non-numeric values in the column.
    other: u64,
    /// Maximum support width observed (bounds the fuzzy "smear" of a value
    /// around its left endpoint).
    max_width: f64,
}

impl Histogram {
    /// Builds one histogram with (up to) `buckets` buckets per column in
    /// `attrs`, in that order, scanning the table once for all of them.
    pub fn build(table: &StoredTable, attrs: &[usize], buckets: usize) -> Result<Vec<Histogram>> {
        let mut columns: Vec<ColumnSample> =
            attrs.iter().map(|_| ColumnSample::default()).collect();
        for t in table.scan() {
            let t = t?;
            for (column, &attr) in columns.iter_mut().zip(attrs) {
                match t.values[attr].interval() {
                    Some((lo, hi)) => {
                        column.lefts.push(lo);
                        column.max_width = column.max_width.max(hi - lo);
                    }
                    None => column.other += 1,
                }
            }
        }
        Ok(columns.into_iter().map(|c| c.histogram(buckets)).collect())
    }

    /// Total numeric tuples summarized.
    pub fn total(&self) -> u64 {
        self.depths.iter().sum::<u64>() + self.other
    }

    /// Estimated number of tuples whose comparison `X θ probe` can have a
    /// positive degree. Conservative (an upper bound up to bucket
    /// granularity): fuzzy supports smear each value by at most the observed
    /// maximum width.
    pub fn estimate(&self, op: CmpOp, probe: &Value) -> u64 {
        let (plo, phi) = match probe.interval() {
            Some(iv) => iv,
            None => return self.total(), // non-numeric probe: no information
        };
        if self.bounds.is_empty() {
            return self.other;
        }
        // A tuple with left endpoint l (and width <= w) has support
        // [l, l + w']. Positive degree requires, per operator:
        //   Eq: support intersects [plo, phi]  -> l in [plo - w, phi]
        //   Le/Lt: l (anywhere left of phi)    -> l in (-inf, phi]
        //   Ge/Gt: support right end >= plo    -> l in [plo - w, +inf)
        //   Ne: almost anything                -> total
        let w = self.max_width;
        let (lo, hi) = match op {
            CmpOp::Eq => (plo - w, phi),
            CmpOp::Le | CmpOp::Lt => (f64::NEG_INFINITY, phi),
            CmpOp::Ge | CmpOp::Gt => (plo - w, f64::INFINITY),
            CmpOp::Ne => return self.total(),
        };
        let mut est = self.other;
        for k in 0..self.depths.len() {
            let (blo, bhi) = (self.bounds[k], self.bounds[k + 1]);
            if bhi < lo || blo > hi {
                continue; // bucket wholly outside
            }
            if blo >= lo && bhi <= hi {
                est += self.depths[k]; // wholly inside
            } else {
                // Partial overlap: assume uniformity within the bucket.
                let span = (bhi - blo).max(f64::MIN_POSITIVE);
                let cover = (bhi.min(hi) - blo.max(lo)).clamp(0.0, span);
                est += ((self.depths[k] as f64) * cover / span).ceil() as u64;
            }
        }
        est.min(self.total())
    }

    /// Estimated selectivity in `[0, 1]` of `X θ probe`.
    pub fn selectivity(&self, op: CmpOp, probe: &Value) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        self.estimate(op, probe) as f64 / t as f64
    }

    /// The largest support width seen while building.
    pub fn max_support_width(&self) -> f64 {
        self.max_width
    }
}

/// One column's values as a build scan collects them.
#[derive(Default)]
struct ColumnSample {
    /// Left support endpoints of the numeric values.
    lefts: Vec<f64>,
    max_width: f64,
    /// Non-numeric values.
    other: u64,
}

impl ColumnSample {
    fn histogram(self, buckets: usize) -> Histogram {
        let ColumnSample { mut lefts, max_width, other } = self;
        lefts.sort_by(f64::total_cmp);
        let buckets = buckets.max(1).min(lefts.len().max(1));
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut depths = Vec::with_capacity(buckets);
        if !lefts.is_empty() {
            bounds.push(lefts[0]);
            for k in 1..=buckets {
                let end = k * lefts.len() / buckets;
                let start = (k - 1) * lefts.len() / buckets;
                depths.push((end - start) as u64);
                let b = if k == buckets { lefts[lefts.len() - 1] } else { lefts[end] };
                bounds.push(b);
            }
        }
        Histogram { bounds, depths, other, max_width }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_core::Trapezoid;
    use fuzzy_rel::{AttrType, Schema, Tuple};
    use fuzzy_storage::SimDisk;

    fn table_with(disk: &SimDisk, values: &[Value]) -> StoredTable {
        let t = StoredTable::create(disk, "H", Schema::of(&[("X", AttrType::Number)]));
        t.load(values.iter().map(|v| Tuple::full(vec![v.clone()]))).unwrap();
        t
    }

    #[test]
    fn equi_depth_buckets() {
        let disk = SimDisk::with_default_page_size();
        let vals: Vec<Value> = (0..100).map(|i| Value::number(i as f64)).collect();
        let t = table_with(&disk, &vals);
        let h = Histogram::build(&t, &[0], 10).unwrap().remove(0);
        assert_eq!(h.total(), 100);
        // Every bucket holds ~10 tuples.
        assert!(h.depths.iter().all(|&d| d == 10), "{:?}", h.depths);
    }

    #[test]
    fn estimates_track_truth_for_crisp_data() {
        let disk = SimDisk::with_default_page_size();
        let vals: Vec<Value> = (0..200).map(|i| Value::number((i % 100) as f64)).collect();
        let t = table_with(&disk, &vals);
        let h = Histogram::build(&t, &[0], 20).unwrap().remove(0);
        // X <= 49.5: truth = 100 of 200.
        let est = h.estimate(CmpOp::Le, &Value::number(49.5));
        assert!((90..=115).contains(&(est as i64)), "estimate {est}");
        // X = 10 (crisp): a thin slice.
        let eq = h.estimate(CmpOp::Eq, &Value::number(10.0));
        assert!(eq <= 30, "crisp equality should be selective, got {eq}");
        // Ne: everything.
        assert_eq!(h.estimate(CmpOp::Ne, &Value::number(10.0)), 200);
    }

    #[test]
    fn fuzzy_widths_widen_equality_estimates() {
        let disk = SimDisk::with_default_page_size();
        let vals: Vec<Value> = (0..100)
            .map(|i| {
                Value::fuzzy(
                    Trapezoid::new(i as f64, i as f64 + 2.0, i as f64 + 3.0, i as f64 + 5.0)
                        .unwrap(),
                )
            })
            .collect();
        let t = table_with(&disk, &vals);
        let h = Histogram::build(&t, &[0], 10).unwrap().remove(0);
        assert_eq!(h.max_support_width(), 5.0);
        // Probing at 50 must count the values whose [l, l+5] supports can
        // reach 50: lefts in [45, 50].
        let est = h.estimate(CmpOp::Eq, &Value::number(50.0));
        assert!((5..=20).contains(&(est as i64)), "estimate {est}");
    }

    #[test]
    fn degenerate_inputs() {
        let disk = SimDisk::with_default_page_size();
        let empty = table_with(&disk, &[]);
        let h = Histogram::build(&empty, &[0], 8).unwrap().remove(0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.estimate(CmpOp::Eq, &Value::number(1.0)), 0);
        assert_eq!(h.selectivity(CmpOp::Le, &Value::number(1.0)), 0.0);
        // All-text column: everything lands in `other`.
        let texty = table_with(&disk, &[Value::text("a"), Value::text("b")]);
        let h = Histogram::build(&texty, &[0], 4).unwrap().remove(0);
        assert_eq!(h.total(), 2);
        assert_eq!(h.estimate(CmpOp::Eq, &Value::number(1.0)), 2);
    }
}

/// A lazily-populated cache of per-column histograms, shared across queries
/// (the `ANALYZE`-style statistics store the optimizer consults). The cache
/// sits behind a mutex so one registry can serve concurrent sessions; the
/// critical section covers only the map lookup/insert, never the build scan
/// (two racing first requests may both scan — the second insert wins, which
/// is harmless because histograms of the same table snapshot are identical).
#[derive(Debug)]
pub struct StatsRegistry {
    cache: std::sync::Mutex<std::collections::HashMap<(String, usize), std::sync::Arc<Histogram>>>,
    /// Buckets per histogram.
    buckets: usize,
}

/// Buckets per histogram of a [`StatsRegistry::default`] registry.
pub const DEFAULT_BUCKETS: usize = 16;

impl Default for StatsRegistry {
    fn default() -> Self {
        StatsRegistry::new(DEFAULT_BUCKETS)
    }
}

impl StatsRegistry {
    /// A registry building `buckets`-bucket histograms ([`DEFAULT_BUCKETS`]
    /// via [`Default`]).
    pub fn new(buckets: usize) -> StatsRegistry {
        StatsRegistry { cache: Default::default(), buckets: buckets.max(1) }
    }

    /// The histograms of the columns `attrs` of `table`, in that order.
    /// Every one not cached yet is built, all of them with one scan of the
    /// table; when all are cached, nothing is read.
    pub fn histograms_for(
        &self,
        table: &StoredTable,
        attrs: &[usize],
    ) -> Result<Vec<std::sync::Arc<Histogram>>> {
        let name = table.name().to_lowercase();
        let missing: Vec<usize> = {
            let cache = self.cache.lock().expect("stats lock");
            attrs.iter().copied().filter(|&a| !cache.contains_key(&(name.clone(), a))).collect()
        };
        let built = if missing.is_empty() {
            Vec::new()
        } else {
            Histogram::build(table, &missing, self.buckets)?
        };
        let mut cache = self.cache.lock().expect("stats lock");
        for (attr, h) in missing.into_iter().zip(built) {
            cache.insert((name.clone(), attr), std::sync::Arc::new(h));
        }
        Ok(attrs.iter().filter_map(|&a| cache.get(&(name.clone(), a)).cloned()).collect())
    }

    /// Number of cached histograms.
    pub fn len(&self) -> usize {
        self.cache.lock().expect("stats lock").len()
    }

    /// True iff nothing has been analyzed yet.
    pub fn is_empty(&self) -> bool {
        self.cache.lock().expect("stats lock").is_empty()
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;
    use fuzzy_rel::{AttrType, Schema, Tuple};
    use fuzzy_storage::SimDisk;

    #[test]
    fn registry_builds_once_and_caches() {
        let disk = SimDisk::with_default_page_size();
        let t = StoredTable::create(
            &disk,
            "T",
            Schema::of(&[("X", AttrType::Number), ("Y", AttrType::Number)]),
        );
        t.load(
            (0..50).map(|i| Tuple::full(vec![Value::number(i as f64), Value::number(-i as f64)])),
        )
        .unwrap();
        let reg = StatsRegistry::new(8);
        assert!(reg.is_empty());
        let reads = || disk.io().reads;
        let before = reads();
        let h1 = reg.histograms_for(&t, &[0]).unwrap();
        let mid = reads();
        let h2 = reg.histograms_for(&t, &[0]).unwrap();
        assert_eq!(mid - before, t.num_pages(), "first build scans once");
        assert_eq!(reads(), mid, "second request is cached");
        assert_eq!(h1[0].total(), h2[0].total());
        assert_eq!(reg.len(), 1);
        // Only the missing column is built, still with one scan.
        let both = reg.histograms_for(&t, &[1, 0]).unwrap();
        assert_eq!(reads() - mid, t.num_pages());
        assert_eq!((both.len(), reg.len()), (2, 2));
        assert!(std::sync::Arc::ptr_eq(&both[1], &h1[0]));
        assert_eq!(both[0].total(), 50);
    }
}

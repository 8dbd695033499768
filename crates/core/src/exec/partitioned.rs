//! A sampling-based partitioned fuzzy equi-join.
//!
//! Section 3 of the paper relates the fuzzy join to band joins \[9\] and
//! valid-time joins \[36\] and notes: "In both \[9\] and \[36\], partitioned
//! joins based on sampling are suggested. More research is needed to decide
//! the optimal join method (and the way to conduct sampling in fuzzy
//! databases)." This module implements that direction:
//!
//! 1. **Sample** the inner relation's join values and pick partition
//!    boundaries at the sample quantiles of the α-cut left endpoints;
//! 2. **Partition** both relations: a tuple is written to *every* partition
//!    whose key range its α-cut interval intersects (intervals may span
//!    boundaries, so replication — not hashing — is what fuzzy values need);
//! 3. **Join** each partition pair in memory, advancing the extended
//!    merge-join's `Rng(r)` cursor over the sorted inner partition and
//!    visiting the window tuples whose intervals meet each outer value.
//!
//! A pair whose intervals intersect is examined in every partition both of
//! its replicas share, so the same answer row can be emitted more than once;
//! the fuzzy-OR duplicate elimination of the answer semantics absorbs the
//! duplicates exactly (identical values, identical degrees). Compared with
//! the extended merge-join, partitioning replaces the external sort's passes
//! with one partition write+read per relation plus small in-memory sorts —
//! the trade the band-join literature studies.
//!
//! **Serial-only**: unlike the merge path, this operator ignores
//! `ExecConfig::threads` — sampling, partitioning, and the per-partition
//! window scans all run on the calling thread, so its counters and I/O are
//! trivially identical at every thread count (pinned by the
//! `partitioned_join_ignores_thread_count` integration test). Parallelizing
//! it would need per-partition worker isolation with deterministic
//! partition-temp allocation; see DESIGN.md §7.

use crate::error::Result;
use crate::exec::merge_join::RngCursor;
use crate::exec::Executor;
use crate::metrics::{OpKind, OperatorMetrics};
use crate::verify::{PhysOp, Prop};
use fuzzy_core::interval_order::OrderKey;
use fuzzy_core::Degree;
use fuzzy_rel::{StoredTable, Tuple};

/// Declaration of a flat partitioned-join step: consumes the unsorted bound
/// side and the scan directly (no sort boundary — partitioning replaces it);
/// the binding/degree requirements come from the lowering pass.
pub(crate) fn declared_properties(
    t_binding: &str,
    inputs: Vec<usize>,
    requires: Vec<(usize, Prop)>,
    delivers: Vec<Prop>,
) -> PhysOp {
    PhysOp::declare(format!("partitioned-join +{t_binding}"), inputs, requires, delivers)
}

impl Executor {
    /// Streams the joining pairs of `outer ⋈ inner` on the given attributes
    /// via partitioning. `visit` receives every pair whose α-cut intervals
    /// intersect (possibly more than once, across shared partitions), plus
    /// the operator's counter set. The whole join — sampling, partitioning,
    /// and the per-partition window scans — registers as one operator node
    /// and runs serially regardless of `ExecConfig::threads` (see the
    /// module docs).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn partitioned_join<F>(
        &mut self,
        outer: &StoredTable,
        oattr: usize,
        inner: &StoredTable,
        iattr: usize,
        alpha: Degree,
        label: String,
        mut visit: F,
    ) -> Result<()>
    where
        F: FnMut(&Tuple, &Tuple, &mut OperatorMetrics) -> Result<()>,
    {
        let g = self.begin_op(OpKind::Join, label);
        let mut m = OperatorMetrics::default();
        // --- 1. Sample the inner relation's value distribution. -------------
        // Partition count: each inner partition should fit in roughly half
        // the buffer, leaving room for the outer side.
        let budget = (self.config().buffer_pages / 2).max(1) as u64;
        let parts = inner.num_pages().div_ceil(budget).max(1) as usize;
        let boundaries = if parts > 1 {
            self.sample_boundaries(inner, iattr, alpha, parts, &mut m)?
        } else {
            Vec::new()
        };
        let ranges = boundaries.len() + 1;

        // --- 2. Partition both relations (replicating spanning tuples). -----
        let outer_parts = self.partition(outer, oattr, alpha, &boundaries, "pout", &mut m)?;
        let inner_parts = self.partition(inner, iattr, alpha, &boundaries, "pin", &mut m)?;
        debug_assert_eq!(outer_parts.len(), ranges);
        debug_assert_eq!(inner_parts.len(), ranges);

        // --- 3. Join each partition pair in memory. --------------------------
        for (op, ip) in outer_parts.iter().zip(&inner_parts) {
            if op.num_tuples() == 0 || ip.num_tuples() == 0 {
                continue;
            }
            let pool = self.pool_for_join();
            let os =
                sort_keyed(op.scan(&pool).collect::<fuzzy_storage::Result<_>>()?, oattr, alpha);
            let is =
                sort_keyed(ip.scan(&pool).collect::<fuzzy_storage::Result<_>>()?, iattr, alpha);
            m.tuples_in += os.len() as u64 + is.len() as u64;
            // This join charges both partitions whole and counts only the
            // pairs whose intervals meet, so the cursor's own window
            // counters go unused.
            let mut window_counts = OperatorMetrics::default();
            let mut cursor = RngCursor::new(is.into_iter().map(Ok), iattr, alpha);
            for r in &os {
                let rv = &r.values[oattr];
                cursor.advance(rv, &mut window_counts, drop)?;
                let mut window = 0u64;
                for s in cursor.meeting(rv) {
                    m.pairs_examined += 1;
                    window += 1;
                    visit(r, s, &mut m)?;
                }
                m.max_window = m.max_window.max(window);
            }
            m.add_pool(&pool.stats());
        }
        self.absorb_op(&g, &m);
        self.end_op(g);
        Ok(())
    }

    /// Draws a page-spread sample of the join attribute and returns
    /// `parts − 1` boundary points (α-cut left endpoints at the quantiles).
    fn sample_boundaries(
        &mut self,
        table: &StoredTable,
        attr: usize,
        alpha: Degree,
        parts: usize,
        m: &mut OperatorMetrics,
    ) -> Result<Vec<f64>> {
        let pool = self.pool_for_join();
        // One sample per page region: cheap and spread across the file.
        let step = (table.num_tuples() as usize / (parts * 32).max(1)).max(1);
        let mut sample: Vec<f64> = Vec::new();
        for (i, t) in table.scan(&pool).enumerate() {
            if i % step == 0 {
                let t = t?;
                if let Some((lo, _)) = t.values[attr].interval_at(alpha) {
                    sample.push(lo);
                }
            }
        }
        sample.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut boundaries = Vec::with_capacity(parts - 1);
        for k in 1..parts {
            if sample.is_empty() {
                break;
            }
            let idx = (k * sample.len() / parts).min(sample.len() - 1);
            let b = sample[idx];
            if boundaries.last().is_none_or(|&last| b > last) {
                boundaries.push(b);
            }
        }
        m.add_pool(&pool.stats());
        Ok(boundaries)
    }

    /// Writes each tuple to every partition whose key range its interval
    /// intersects. Range `k` covers `[boundaries[k-1], boundaries[k])` with
    /// open ends at the extremes.
    #[allow(clippy::too_many_arguments)]
    fn partition(
        &mut self,
        table: &StoredTable,
        attr: usize,
        alpha: Degree,
        boundaries: &[f64],
        tag: &str,
        m: &mut OperatorMetrics,
    ) -> Result<Vec<StoredTable>> {
        let ranges = boundaries.len() + 1;
        let mut parts: Vec<StoredTable> = Vec::with_capacity(ranges);
        let mut writers = Vec::with_capacity(ranges);
        for k in 0..ranges {
            let t = self.make_temp(&format!("{tag}{k}"), table);
            writers.push(t.file().bulk_writer());
            parts.push(t);
        }
        let pool = self.pool_for_join();
        for t in table.scan(&pool) {
            let t = t?;
            let (lo, hi) = match t.values[attr].interval_at(alpha) {
                Some(iv) => iv,
                // Non-numeric join values (text) all land in partition 0 and
                // join crisply there.
                None => {
                    writers[0].append(&t.encode(table.min_record_bytes()))?;
                    continue;
                }
            };
            // partition_point gives the first boundary > v, i.e. the range
            // index of v.
            let first = boundaries.partition_point(|b| *b <= lo);
            let last = boundaries.partition_point(|b| *b <= hi);
            for w in writers.iter_mut().take(last + 1).skip(first) {
                w.append(&t.encode(table.min_record_bytes()))?;
            }
        }
        for w in writers {
            w.finish()?;
        }
        m.add_pool(&pool.stats());
        Ok(parts)
    }
}

/// Stable in-memory sort by `⪯` on `attr` at α-cut level `alpha`, keying
/// each tuple once with [`OrderKey`] instead of recomputing α-cuts per
/// comparison.
fn sort_keyed(tuples: Vec<Tuple>, attr: usize, alpha: Degree) -> Vec<Tuple> {
    let mut keyed: Vec<(OrderKey, Tuple)> =
        tuples.into_iter().map(|t| (OrderKey::at(&t.values[attr], alpha), t)).collect();
    keyed.sort_by(|a, b| a.0.cmp_key(&b.0));
    keyed.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecConfig;
    use fuzzy_core::interval_order;
    use fuzzy_core::{CmpOp, Trapezoid, Value};
    use fuzzy_rel::{AttrType, Schema};
    use fuzzy_storage::SimDisk;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table(disk: &SimDisk, name: &str, n: usize, seed: u64) -> StoredTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = StoredTable::create(
            disk,
            name,
            Schema::of(&[("ID", AttrType::Number), ("X", AttrType::Number)]),
        );
        t.load((0..n).map(|i| {
            let c = rng.gen_range(0.0..500.0);
            Tuple::full(vec![
                Value::number(i as f64),
                Value::fuzzy(Trapezoid::new(c - 2.0, c - 0.5, c + 0.5, c + 2.0).unwrap()),
            ])
        }))
        .unwrap();
        t
    }

    /// The partitioned join must see every intersecting pair at least once
    /// (possibly with duplicates), and never a non-intersecting pair.
    #[test]
    fn covers_exactly_the_intersecting_pairs() {
        let disk = SimDisk::with_default_page_size();
        let r = table(&disk, "R", 300, 1);
        let s = table(&disk, "S", 300, 2);
        // A small buffer forces several partitions.
        let mut ex = Executor::new(
            &disk,
            ExecConfig { buffer_pages: 4, sort_pages: 4, ..Default::default() },
        );
        let mut seen = std::collections::HashSet::new();
        ex.partitioned_join(&r, 1, &s, 1, Degree::ZERO, "test".to_string(), |rt, st, _| {
            seen.insert((
                rt.values[0].as_number().unwrap() as u64,
                st.values[0].as_number().unwrap() as u64,
            ));
            Ok(())
        })
        .unwrap();
        // Brute-force reference.
        let pool = fuzzy_storage::BufferPool::new(&disk, 64);
        let rs: Vec<Tuple> = r.scan(&pool).collect::<fuzzy_storage::Result<_>>().unwrap();
        let ss: Vec<Tuple> = s.scan(&pool).collect::<fuzzy_storage::Result<_>>().unwrap();
        let mut expect = std::collections::HashSet::new();
        for rt in &rs {
            for st in &ss {
                if interval_order::intervals_intersect(&rt.values[1], &st.values[1]) {
                    expect.insert((
                        rt.values[0].as_number().unwrap() as u64,
                        st.values[0].as_number().unwrap() as u64,
                    ));
                }
            }
        }
        assert!(!expect.is_empty(), "workload should have matches");
        assert_eq!(seen, expect);
    }

    /// Degrees computed through the partitioned pairs equal the direct ones.
    #[test]
    fn emitted_pairs_carry_the_right_values() {
        let disk = SimDisk::with_default_page_size();
        let r = table(&disk, "R", 120, 3);
        let s = table(&disk, "S", 120, 4);
        let mut ex = Executor::new(
            &disk,
            ExecConfig { buffer_pages: 4, sort_pages: 4, ..Default::default() },
        );
        ex.partitioned_join(&r, 1, &s, 1, Degree::ZERO, "test".to_string(), |rt, st, _| {
            let d = rt.values[1].compare(CmpOp::Eq, &st.values[1]);
            // Window pairs intersect at alpha 0, but the exact degree may
            // still be anything in [0, 1].
            assert!(d.value() <= 1.0);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn single_partition_degenerates_gracefully() {
        let disk = SimDisk::with_default_page_size();
        let r = table(&disk, "R", 50, 5);
        let s = table(&disk, "S", 50, 6);
        let mut ex = Executor::new(&disk, ExecConfig::default()); // huge buffer: 1 partition
        let mut pairs = 0usize;
        ex.partitioned_join(&r, 1, &s, 1, Degree::ZERO, "test".to_string(), |_, _, _| {
            pairs += 1;
            Ok(())
        })
        .unwrap();
        assert!(pairs > 0);
    }

    #[test]
    fn empty_inputs() {
        let disk = SimDisk::with_default_page_size();
        let r = table(&disk, "R", 0, 7);
        let s = table(&disk, "S", 40, 8);
        let mut ex = Executor::new(&disk, ExecConfig::default());
        let mut pairs = 0usize;
        ex.partitioned_join(&r, 1, &s, 1, Degree::ZERO, "test".to_string(), |_, _, _| {
            pairs += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(pairs, 0);
    }
}

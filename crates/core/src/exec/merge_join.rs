//! The extended merge-join window of Section 3: streams the ⪯-sorted outer
//! relation and presents, per outer tuple `r`, exactly `Rng(r)` — the
//! contiguous inner range whose support (or α-cut) intervals can intersect
//! `r`'s. Inner tuples wholly before the current outer value leave the
//! window forever (the paper's "will also precede every `Rng(r_k)` for
//! `k > i`" argument). Also hosts the interval-partitioned parallel variant
//! whose counters are engineered to be bit-identical to the serial scan.

use crate::error::{EngineError, Result};
use crate::exec::flat::JoinSink;
use crate::exec::{Executor, PairOutcome};
use crate::metrics::{OpKind, OperatorMetrics};
use crate::plan::PlanCol;
use crate::verify::{PhysOp, Prop};
use fuzzy_core::{interval_order, Degree};
use fuzzy_rel::{StoredTable, Tuple};
use std::collections::VecDeque;

/// Declaration of a flat merge-join step: requires both inputs ⪯-sorted on
/// the driver columns (plus the step's binding/degree requirements built by
/// the lowering pass), delivers the concatenated bindings.
pub(crate) fn declared_properties(
    t_binding: &str,
    inputs: Vec<usize>,
    mut requires: Vec<(usize, Prop)>,
    delivers: Vec<Prop>,
    cur_col: &PlanCol,
    next_col: &PlanCol,
    alpha: Degree,
) -> PhysOp {
    requires.push((0, Prop::Sorted { col: cur_col.clone(), alpha }));
    requires.push((1, Prop::Sorted { col: next_col.clone(), alpha }));
    PhysOp::declare(format!("merge-join +{t_binding}"), inputs, requires, delivers)
}

impl Executor {
    /// Streams the sorted outer relation against the sorted inner one,
    /// invoking `visit(r, Rng(r), m)` once per outer tuple (with an empty
    /// slice when `Rng(r) = ∅`); `m` is the operator's counter set. The
    /// window may include dangling tuples whose join degree against `r` is
    /// 0 — Section 3's caveat; callers skip them via the predicate degree.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn merge_window<F>(
        &mut self,
        outer: &StoredTable,
        oattr: usize,
        inner: &StoredTable,
        iattr: usize,
        alpha: Degree,
        kind: OpKind,
        label: String,
        mut visit: F,
    ) -> Result<()>
    where
        F: FnMut(&Tuple, &[Tuple], &mut OperatorMetrics) -> Result<()>,
    {
        let g = self.begin_op(kind, label);
        // One frame for the outer scan; the rest serve the window's pages.
        let opool = self.pool(1);
        let ipool = self.pool(self.config.buffer_pages.saturating_sub(1).max(1));
        let mut inner_scan = inner.scan(&ipool).peekable();
        let mut window: VecDeque<Tuple> = VecDeque::new();
        let mut m = OperatorMetrics::default();
        for r in outer.scan(&opool) {
            let r = r?;
            m.tuples_in += 1;
            let rv = &r.values[oattr];
            // Drop inner tuples wholly before rv: they precede every later
            // outer range as well (outer is sorted by left endpoints).
            while let Some(front) = window.front() {
                if interval_order::strictly_before_at(&front.values[iattr], rv, alpha) {
                    window.pop_front();
                } else {
                    break;
                }
            }
            // Extend the window to cover Rng(r).
            loop {
                let after = match inner_scan.peek() {
                    None => break,
                    Some(Err(_)) => true, // force the error out below
                    Some(Ok(s)) => interval_order::strictly_after_at(&s.values[iattr], rv, alpha),
                };
                if after {
                    if let Some(Err(_)) = inner_scan.peek() {
                        inner_scan.next().expect("peeked")?;
                    }
                    break; // first tuple past Rng(r); keep it for later outers
                }
                let s = inner_scan.next().expect("peeked")?;
                m.tuples_in += 1;
                if !interval_order::strictly_before_at(&s.values[iattr], rv, alpha) {
                    window.push_back(s);
                }
                // else: wholly before every remaining outer tuple; drop.
            }
            window.make_contiguous();
            let (slice, _) = window.as_slices();
            m.pairs_examined += slice.len() as u64;
            m.max_window = m.max_window.max(slice.len() as u64);
            visit(&r, slice, &mut m)?;
        }
        m.add_pool(&opool.stats());
        m.add_pool(&ipool.stats());
        self.absorb_op(&g, &m);
        self.end_op(g);
        Ok(())
    }

    /// Interval-partitioned parallel flat merge-join (the `threads > 1` path
    /// of [`JoinMethod::Merge`]).
    ///
    /// Phase 1 replays the *serial* `merge_window` scan — same pools, same
    /// window maintenance, same `pairs_examined` / `max_window` accounting —
    /// but records, per outer tuple, the indices of its `Rng(r)` window
    /// instead of evaluating degrees on the spot. Because the inner scan
    /// stops at exactly the tuple the serial scan would stop at, physical
    /// read counts are identical to the serial join.
    ///
    /// Phase 2 partitions the outer (already sorted by `⪯`) into `threads`
    /// contiguous chunks balanced by their window pair counts. Each chunk's
    /// recorded windows cover the full `Rng(r)` of its outers — a window can
    /// span chunk boundaries, so workers read overlapping slices of the
    /// inner; no pair is lost at a cut. Workers evaluate the pure
    /// `pair_eval` for their pairs in outer order and accumulate comparison
    /// and prune counts per chunk; chunk sums are order-independent, so the
    /// operator's counters equal the serial ones exactly.
    ///
    /// Phase 3 concatenates the per-chunk emissions in chunk order on the
    /// calling thread, so the sink observes exactly the serial emission
    /// sequence (same rows, same degrees, same temp-table bytes).
    ///
    /// The tradeoff is memory: the scanned prefix of both relations and the
    /// window index lists are held in memory for the duration of the join,
    /// where the serial path holds only the current window.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn merge_join_parallel<D>(
        &mut self,
        outer: &StoredTable,
        oattr: usize,
        inner: &StoredTable,
        iattr: usize,
        alpha: Degree,
        kind: OpKind,
        label: String,
        pair_eval: &D,
        sink: &mut JoinSink,
    ) -> Result<()>
    where
        D: Fn(&Tuple, &Tuple) -> PairOutcome + Sync,
    {
        let g = self.begin_op(kind, label);
        // Phase 1: serial I/O and window replay (identical to merge_window).
        let opool = self.pool(1);
        let ipool = self.pool(self.config.buffer_pages.saturating_sub(1).max(1));
        let mut inner_scan = inner.scan(&ipool).peekable();
        let mut inner_vec: Vec<Tuple> = Vec::new();
        let mut outer_vec: Vec<Tuple> = Vec::new();
        let mut windows: Vec<Vec<u32>> = Vec::new();
        let mut window: VecDeque<u32> = VecDeque::new();
        let mut m = OperatorMetrics::default();
        for r in outer.scan(&opool) {
            let r = r?;
            m.tuples_in += 1;
            let rv = &r.values[oattr];
            while let Some(&front) = window.front() {
                if interval_order::strictly_before_at(
                    &inner_vec[front as usize].values[iattr],
                    rv,
                    alpha,
                ) {
                    window.pop_front();
                } else {
                    break;
                }
            }
            loop {
                let after = match inner_scan.peek() {
                    None => break,
                    Some(Err(_)) => true, // force the error out below
                    Some(Ok(s)) => interval_order::strictly_after_at(&s.values[iattr], rv, alpha),
                };
                if after {
                    if let Some(Err(_)) = inner_scan.peek() {
                        inner_scan.next().expect("peeked")?;
                    }
                    break; // first tuple past Rng(r); keep it for later outers
                }
                let s = inner_scan.next().expect("peeked")?;
                m.tuples_in += 1;
                let keep = !interval_order::strictly_before_at(&s.values[iattr], rv, alpha);
                let idx = u32::try_from(inner_vec.len())
                    .map_err(|_| EngineError::Unsupported("inner relation too large".into()))?;
                inner_vec.push(s);
                if keep {
                    window.push_back(idx);
                }
            }
            m.pairs_examined += window.len() as u64;
            m.max_window = m.max_window.max(window.len() as u64);
            windows.push(window.iter().copied().collect());
            outer_vec.push(r);
        }

        // Phase 2: contiguous outer chunks balanced by window pair counts.
        let threads = self.config.threads.min(outer_vec.len()).max(1);
        let total_pairs: u64 = windows.iter().map(|w| w.len() as u64).sum();
        let per_chunk = (total_pairs / threads as u64).max(1);
        let mut chunks: Vec<std::ops::Range<usize>> = Vec::new();
        let mut start = 0usize;
        let mut acc = 0u64;
        for (i, w) in windows.iter().enumerate() {
            acc += w.len() as u64;
            if acc >= per_chunk && chunks.len() + 1 < threads {
                chunks.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        chunks.push(start..outer_vec.len());

        type ChunkResult = (Vec<(u32, u32, Degree)>, u64, u64);
        let emissions: Vec<ChunkResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|range| {
                    let range = range.clone();
                    let outer_vec = &outer_vec;
                    let inner_vec = &inner_vec;
                    let windows = &windows;
                    scope.spawn(move || {
                        let mut out: Vec<(u32, u32, Degree)> = Vec::new();
                        let (mut comparisons, mut pruned) = (0u64, 0u64);
                        for i in range {
                            let r = &outer_vec[i];
                            for &j in &windows[i] {
                                let o = pair_eval(r, &inner_vec[j as usize]);
                                comparisons += u64::from(o.comparisons);
                                pruned += u64::from(o.pruned);
                                if let Some(d) = o.degree {
                                    out.push((i as u32, j, d));
                                }
                            }
                        }
                        (out, comparisons, pruned)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("join worker panicked")).collect()
        });

        // Phase 3: serial, order-preserving emission.
        for (chunk, comparisons, pruned) in emissions {
            m.fuzzy_comparisons += comparisons;
            m.pairs_pruned += pruned;
            for (i, j, d) in chunk {
                m.tuples_out += 1;
                sink.emit(&outer_vec[i as usize], &inner_vec[j as usize], d)?;
            }
        }
        m.add_pool(&opool.stats());
        m.add_pool(&ipool.stats());
        self.absorb_op(&g, &m);
        self.end_op(g);
        Ok(())
    }
}

//! The extended merge-join window of Section 3. For ⪯-sorted inputs each
//! outer tuple `r` meets only `Rng(r)`, the contiguous inner range whose
//! support (or α-cut) intervals can intersect `r`'s, and an inner tuple
//! wholly before `r` precedes every later range as well, so it leaves the
//! window for good (the paper's "will also precede every `Rng(r_k)` for
//! `k > i`" argument). [`RngCursor`] is that invariant, written once: the
//! serial window (`merge_window`, and through it the anti and aggregate
//! merge modes), the interval-partitioned parallel join, whose counters
//! equal the serial scan's, and the partitioned join's per-partition scans
//! all advance it.
//!
//! [`walk_window`] is the per-outer evaluation of the flat join, written
//! once for the serial and the parallel merge: it also holds the degree-cap
//! exit that ends `r`'s walk once no later pair can change its answer row.

use crate::error::{EngineError, Result};
use crate::exec::flat::JoinSink;
use crate::exec::{Executor, PairOutcome};
use crate::metrics::{OpKind, OperatorMetrics};
use crate::plan::PlanCol;
use crate::verify::{PhysOp, Prop};
use fuzzy_core::{interval_order, Degree, Value};
use fuzzy_rel::{StoredTable, Tuple};
use std::collections::VecDeque;
use std::ops::Range;

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

/// The `Rng(r)` window over a ⪯-sorted inner stream, advanced through the
/// ⪯-sorted outer values. The window is a FIFO: tuples enter at the back in
/// inner order and leave at the front, so it is always one contiguous run
/// of the inner tuples it keeps. It may hold dangling tuples whose interval
/// misses the current outer value (Section 3's caveat): a tuple kept for a
/// wide earlier outer interval stays until it is wholly before.
pub(crate) struct RngCursor<I> {
    inner: std::iter::Fuse<I>,
    /// The first inner tuple wholly after the last outer value: read, but
    /// not yet in the window.
    ahead: Option<Tuple>,
    window: VecDeque<Tuple>,
    attr: usize,
    alpha: Degree,
}

impl<I: Iterator<Item = Result<Tuple>>> RngCursor<I> {
    /// A cursor over `inner`, ⪯-sorted on `attr` at α-cut level `alpha`.
    pub(crate) fn new(inner: I, attr: usize, alpha: Degree) -> Self {
        RngCursor { inner: inner.fuse(), ahead: None, window: VecDeque::new(), attr, alpha }
    }

    /// Moves the window to `Rng(rv)` for the next outer value `rv`. Front
    /// tuples wholly before `rv` leave through `evict`. Inner tuples are
    /// read up to the first one wholly after `rv`, which waits for a later
    /// outer value; a tuple already wholly before `rv` when read precedes
    /// every remaining outer range and is dropped. `m` counts the inner
    /// tuples consumed (`tuples_in`) and the window's size (`pairs_examined`
    /// and `max_window`). A read error is returned as is.
    pub(crate) fn advance(
        &mut self,
        rv: &Value,
        m: &mut OperatorMetrics,
        mut evict: impl FnMut(Tuple),
    ) -> Result<()> {
        let (attr, alpha) = (self.attr, self.alpha);
        while let Some(s) = self
            .window
            .pop_front_if(|s| interval_order::strictly_before_at(&s.values[attr], rv, alpha))
        {
            evict(s);
        }
        while let Some(s) = self.ahead.take().map(Ok).or_else(|| self.inner.next()) {
            let s = s?;
            if interval_order::strictly_after_at(&s.values[attr], rv, alpha) {
                self.ahead = Some(s);
                break;
            }
            m.tuples_in += 1;
            if !interval_order::strictly_before_at(&s.values[attr], rv, alpha) {
                self.window.push_back(s);
            }
        }
        let n = self.window.len() as u64;
        m.pairs_examined += n;
        m.max_window = m.max_window.max(n);
        Ok(())
    }

    /// The current window, in inner order.
    pub(crate) fn window(&mut self) -> &[Tuple] {
        self.window.make_contiguous()
    }

    /// The window tuples whose intervals meet `rv`'s: neither wholly before
    /// nor wholly after it.
    pub(crate) fn meeting<'a>(&'a self, rv: &'a Value) -> impl Iterator<Item = &'a Tuple> + 'a {
        let (attr, alpha) = (self.attr, self.alpha);
        self.window.iter().filter(move |s| {
            let v = &s.values[attr];
            !interval_order::strictly_before_at(v, rv, alpha)
                && !interval_order::strictly_after_at(v, rv, alpha)
        })
    }

    /// The tuples still in the window, in inner order.
    pub(crate) fn into_window(self) -> VecDeque<Tuple> {
        self.window
    }
}

/// Evaluates outer tuple `r` against the inner tuples of `window` in order
/// and hands `emit` the window position and degree of every pair that
/// survives `pair_eval`; `m` counts the comparisons, the pruned pairs and the
/// emitted pairs (`tuples_out`).
///
/// With `capped` the walk stops at the first emitted pair whose degree equals
/// `r.degree`. The caller sets it only when the join's answer rows project
/// outer columns alone, so every pair of `r` yields the same answer row,
/// which keeps the maximum of their degrees (fuzzy OR). A pair's degree
/// starts from `r.degree ∧ s.degree`, so no later pair can exceed the one
/// that reached `r.degree`: skipping them leaves every answer unchanged.
pub(crate) fn walk_window<D>(
    r: &Tuple,
    window: &[Tuple],
    pair_eval: &D,
    capped: bool,
    m: &mut OperatorMetrics,
    mut emit: impl FnMut(usize, Degree) -> Result<()>,
) -> Result<()>
where
    D: Fn(&Tuple, &Tuple) -> PairOutcome,
{
    for (j, s) in window.iter().enumerate() {
        let o = pair_eval(r, s);
        m.fuzzy_comparisons += u64::from(o.comparisons);
        m.pairs_pruned += u64::from(o.pruned);
        if let Some(d) = o.degree {
            m.tuples_out += 1;
            emit(j, d)?;
            if capped && d == r.degree {
                break;
            }
        }
    }
    Ok(())
}

/// The message a panicking worker thread left, for its typed error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic payload".to_string())
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
        // One page for the outer scan; the window holds inner tuples.
        let mut cursor = RngCursor::new(inner.scan().map(|s| Ok(s?)), iattr, alpha);
        let mut m = OperatorMetrics::default();
        for r in outer.scan() {
            let r = r?;
            m.tuples_in += 1;
            cursor.advance(&r.values[oattr], &mut m, drop)?;
            visit(&r, cursor.window(), &mut m)?;
        }
        self.absorb_op(&g, &m);
        self.end_op(g);
        Ok(())
    }

    /// Interval-partitioned parallel flat merge-join (the `threads > 1` path
    /// of [`JoinMethod::Merge`]).
    ///
    /// Phase 1 advances the same [`RngCursor`] as `merge_window`, with the
    /// same scans and counters, so physical reads and `pairs_examined` /
    /// `max_window` equal the serial join's. Instead of evaluating degrees
    /// on the spot it keeps every window tuple, in inner order: evicted
    /// tuples as they leave, the last window at the end. Each outer tuple's
    /// `Rng(r)` is then one range over that sequence, since a FIFO window
    /// over the kept tuples is always contiguous.
    ///
    /// Phase 2 partitions the outer (already sorted by `⪯`) into `threads`
    /// contiguous chunks balanced by their window pair counts. A window can
    /// span chunk boundaries, so workers read overlapping ranges of the
    /// kept inner tuples; no pair is lost at a cut. Workers run the serial
    /// path's [`walk_window`] over their outers in order, with the same
    /// `capped` exit, and accumulate its counters per chunk; chunk sums are
    /// order-independent, so the operator's counters equal the serial ones
    /// exactly.
    ///
    /// Phase 3 concatenates the per-chunk emissions in chunk order on the
    /// calling thread, so the sink observes exactly the serial emission
    /// sequence (same rows, same degrees, same temp-table bytes). A worker
    /// that panics fails the join with [`EngineError::WorkerPanic`] once
    /// every worker has finished; the executor stays usable.
    ///
    /// The tradeoff is memory: the outer and the kept inner tuples are held
    /// for the duration of the join, where the serial path holds only the
    /// current window.
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
        capped: bool,
        sink: &mut JoinSink,
    ) -> Result<()>
    where
        D: Fn(&Tuple, &Tuple) -> PairOutcome + Sync,
    {
        let g = self.begin_op(kind, label);
        // Phase 1: serial I/O and window maintenance, as in merge_window.
        let mut cursor = RngCursor::new(inner.scan().map(|s| Ok(s?)), iattr, alpha);
        let mut kept: Vec<Tuple> = Vec::new();
        let mut outer_vec: Vec<Tuple> = Vec::new();
        let mut windows: Vec<Range<u32>> = Vec::new();
        let mut m = OperatorMetrics::default();
        for r in outer.scan() {
            let r = r?;
            m.tuples_in += 1;
            cursor.advance(&r.values[oattr], &mut m, |s| kept.push(s))?;
            let start = kept.len();
            let end = u32::try_from(start + cursor.window().len())
                .map_err(|_| EngineError::Unsupported("inner relation too large".into()))?;
            windows.push(start as u32..end);
            outer_vec.push(r);
        }
        kept.extend(cursor.into_window());

        // Phase 2: contiguous outer chunks balanced by window pair counts.
        let threads = self.config.threads.min(outer_vec.len()).max(1);
        let total_pairs: u64 = windows.iter().map(|w| w.len() as u64).sum();
        let per_chunk = (total_pairs / threads as u64).max(1);
        let mut chunks: Vec<Range<usize>> = Vec::new();
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

        type ChunkResult = (Vec<(u32, u32, Degree)>, OperatorMetrics);
        let joined: Vec<std::thread::Result<Result<ChunkResult>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|range| {
                    let range = range.clone();
                    let outer_vec = &outer_vec;
                    let kept = &kept;
                    let windows = &windows;
                    scope.spawn(move || -> Result<ChunkResult> {
                        let mut out: Vec<(u32, u32, Degree)> = Vec::new();
                        let mut cm = OperatorMetrics::default();
                        for i in range {
                            let w = windows[i].clone();
                            let window = &kept[w.start as usize..w.end as usize];
                            walk_window(
                                &outer_vec[i],
                                window,
                                pair_eval,
                                capped,
                                &mut cm,
                                |j, d| {
                                    out.push((i as u32, w.start + j as u32, d));
                                    Ok(())
                                },
                            )?;
                        }
                        Ok((out, cm))
                    })
                })
                .collect();
            // Join every worker before looking at any result, so a panic
            // in one never leaves another unjoined.
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut emissions: Vec<ChunkResult> = Vec::with_capacity(joined.len());
        for res in joined {
            let chunk = res.map_err(|p| EngineError::WorkerPanic(panic_message(p.as_ref())))?;
            emissions.push(chunk?);
        }

        // Phase 3: serial, order-preserving emission.
        for (chunk, cm) in emissions {
            m.absorb(&cm);
            for (i, j, d) in chunk {
                sink.emit(&outer_vec[i as usize], &kept[j as usize], d)?;
            }
        }
        self.absorb_op(&g, &m);
        self.end_op(g);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::table;
    use crate::exec::ExecConfig;
    use fuzzy_core::CmpOp;
    use fuzzy_storage::SimDisk;

    #[test]
    fn a_panicking_join_worker_is_a_typed_error() {
        // Both inputs are already ⪯-sorted on X (attribute 1).
        let disk = SimDisk::with_default_page_size();
        let r = table(&disk, "R", &[(0.0, 1.0), (2.0, 3.0), (4.0, 5.0), (6.0, 7.0)]);
        let s = table(&disk, "S", &[(0.0, 2.5), (2.5, 4.5), (4.5, 6.5)]);
        let mut ex = Executor::new(&disk, ExecConfig { threads: 2, ..ExecConfig::default() });
        let join = |ex: &mut Executor, eval: &(dyn Fn(&Tuple, &Tuple) -> PairOutcome + Sync)| {
            let mut sink = JoinSink::Buffer(Vec::new());
            let res = ex.merge_join_parallel(
                &r,
                1,
                &s,
                1,
                Degree::ZERO,
                OpKind::Join,
                "test".to_string(),
                &eval,
                false,
                &mut sink,
            );
            res.map(|()| match sink {
                JoinSink::Buffer(rows) => rows,
                _ => unreachable!("a buffer sink stays a buffer"),
            })
        };

        let panics = |_: &Tuple, _: &Tuple| -> PairOutcome { panic!("pair evaluation failed") };
        match join(&mut ex, &panics) {
            Err(EngineError::WorkerPanic(msg)) => assert_eq!(msg, "pair evaluation failed"),
            other => panic!("expected a worker panic, got {:?}", other.map(|rows| rows.len())),
        }

        // The same executor then joins correctly: every intersecting pair,
        // in outer-then-inner order, with its possibility degree.
        let eq = |r: &Tuple, s: &Tuple| PairOutcome {
            degree: Some(r.values[1].compare(CmpOp::Eq, &s.values[1])).filter(|d| d.is_positive()),
            comparisons: 1,
            pruned: false,
        };
        let got: Vec<(Value, Value)> = join(&mut ex, &eq)
            .unwrap()
            .into_iter()
            .map(|t| (t.values[0].clone(), t.values[2].clone()))
            .collect();
        let id = |i: f64| Value::number(i);
        let expected = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (3.0, 2.0)];
        assert_eq!(got, expected.map(|(r, s)| (id(r), id(s))));
    }
}

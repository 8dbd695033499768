//! Block nested loop: the join step when no exact-equality merge driver
//! exists, and — under the two nested-loop baselines, which lower every
//! step without a driver — the method of every flat join, anti, and
//! aggregate step. The outer is read once in blocks of `M − 1` pages; the
//! inner is scanned once per block, one page at a time (the paper's
//! Section 9 buffer allocation for the nested-loop method).

use crate::error::Result;
use crate::exec::Executor;
use crate::metrics::OperatorMetrics;
use fuzzy_rel::{StoredTable, Tuple};
use fuzzy_storage::PageView;

impl Executor {
    /// Block nested loop with per-outer-tuple accumulators: `init` seeds an
    /// accumulator per outer tuple, `observe` is invoked per (outer, inner)
    /// pair, and `finalize` fires once per outer tuple after its block's
    /// inner scan — which is what lets this one operator evaluate *nested*
    /// queries (the per-tuple temporary relation T(r) accumulates in `A`).
    /// `m` is the counter set of the join, anti, or aggregate operator
    /// that runs it.
    pub(crate) fn block_nested_loop<A>(
        &mut self,
        outer: &StoredTable,
        inner: &StoredTable,
        m: &mut OperatorMetrics,
        mut init: impl FnMut(&Tuple, &mut OperatorMetrics) -> A,
        mut observe: impl FnMut(&mut A, &Tuple, &Tuple, &mut OperatorMetrics) -> Result<()>,
        mut finalize: impl FnMut(Tuple, A, &mut OperatorMetrics) -> Result<()>,
    ) -> Result<()> {
        let block_pages = self.config.buffer_pages.saturating_sub(1).max(1) as u64;
        let n_pages = outer.num_pages();
        let mut block_start = 0u64;
        while block_start < n_pages {
            let block_end = (block_start + block_pages).min(n_pages);
            // Read the outer block (each page charged exactly once overall),
            // decoding each tuple in place; a corrupt slot is a typed error.
            let mut block: Vec<(Tuple, A)> = Vec::new();
            for pi in block_start..block_end {
                let pid = outer.file().page_id(pi as u32)?;
                let image = self.disk.read_page(pid)?;
                for rec in PageView::new(&image)?.records() {
                    let t = Tuple::decode(rec?)?;
                    m.tuples_in += 1;
                    let a = init(&t, m);
                    block.push((t, a));
                }
            }
            // One scan of the inner per block, one page at a time.
            for s in inner.scan() {
                let s = s?;
                m.tuples_in += 1;
                for (r, a) in &mut block {
                    m.pairs_examined += 1;
                    observe(a, r, &s, m)?;
                }
            }
            for (r, a) in block {
                finalize(r, a, m)?;
            }
            block_start = block_end;
        }
        Ok(())
    }
}

//! The outer-tuple fold, the one driver of the anti and aggregate
//! operators. Theorems 5.1, 6.1 and 7.1 give both one shape: each outer
//! tuple `r` folds its group of inner tuples — a MIN over negated
//! contributions, or an aggregate over `T(r)` — into at most one answer
//! row. An operator states that per-pair step once, as an [`OuterFold`];
//! the [`Access`] mode only decides which inner tuples `r` visits, and
//! `fold_outer` writes each mode's candidate loop once: Section 3's `Rng(r)`
//! window ([`merge_window`]), the inner set read into memory once, or the
//! block nested loop (the outer read in blocks of `M − 1` pages, the inner
//! scanned once per block a page at a time: the paper's Section 9 buffer
//! allocation). A closure over each pair is the flat join step's fold.

use crate::error::Result;
use crate::exec::lower::Access;
use crate::exec::merge_join::merge_window;
use crate::exec::Executor;
use crate::metrics::OperatorMetrics;
use fuzzy_core::Degree;
use fuzzy_rel::{StoredTable, Tuple};
use fuzzy_storage::PageView;

/// A two-input operator's step, run over each outer tuple `r`'s candidates;
/// `m` is the operator's counter set. The driver's loops are instantiated
/// per fold, apart from the fold's own module, so an operator marks its
/// steps `#[inline]` for them to inline into the per-pair loop.
pub(crate) trait OuterFold {
    /// The running state of one outer tuple.
    type Acc;
    /// `r`'s starting accumulator, and whether its candidates must be
    /// visited at all.
    fn open(&mut self, r: &Tuple, m: &mut OperatorMetrics) -> (Self::Acc, bool);
    /// Folds the inner tuple `s` into `r`'s accumulator. Returns false once
    /// no later tuple can change `r`'s result.
    fn add(
        &mut self,
        acc: &mut Self::Acc,
        r: &Tuple,
        s: &Tuple,
        m: &mut OperatorMetrics,
    ) -> Result<bool>;
    /// Emits `r`'s answer row, if any.
    fn close(&mut self, r: &Tuple, acc: Self::Acc, m: &mut OperatorMetrics) -> Result<()>;

    /// Opens `r`, folds `candidates` into it in order until `add` stops it,
    /// and closes it. Returns the number of pairs visited.
    fn visit(&mut self, r: &Tuple, candidates: &[Tuple], m: &mut OperatorMetrics) -> Result<u64> {
        let (mut acc, live) = self.open(r, m);
        let mut visited = 0;
        if live {
            for s in candidates {
                visited += 1;
                if !self.add(&mut acc, r, s, m)? {
                    break;
                }
            }
        }
        self.close(r, acc, m)?;
        Ok(visited)
    }
}

/// A closure over each pair: the fold with no per-outer state, of the flat
/// join step without a merge driver.
impl<H> OuterFold for H
where
    H: FnMut(&Tuple, &Tuple, &mut OperatorMetrics) -> Result<()>,
{
    type Acc = ();

    fn open(&mut self, _: &Tuple, _: &mut OperatorMetrics) -> ((), bool) {
        ((), true)
    }

    fn add(&mut self, _: &mut (), r: &Tuple, s: &Tuple, m: &mut OperatorMetrics) -> Result<bool> {
        self(r, s, m)?;
        Ok(true)
    }

    fn close(&mut self, _: &Tuple, _: (), _: &mut OperatorMetrics) -> Result<()> {
        Ok(())
    }
}

impl Executor {
    /// Runs `fold` once per outer tuple over the candidates `access`
    /// enumerates, in outer order.
    pub(crate) fn fold_outer<F: OuterFold>(
        &mut self,
        access: &Access,
        outer: &StoredTable,
        inner: &StoredTable,
        m: &mut OperatorMetrics,
        fold: &mut F,
    ) -> Result<()> {
        match access {
            // The window is advanced for every outer tuple, visited or not,
            // and counts its size as the tuple's pairs.
            Access::Merge { outer: ocol, inner: icol } => {
                merge_window(outer, ocol.attr, inner, icol.attr, Degree::ZERO, m, |r, rng, m| {
                    fold.visit(r, rng, m).map(drop)
                })
            }
            Access::Scan => {
                let inner_all: Vec<Tuple> = inner.scan().collect::<fuzzy_storage::Result<_>>()?;
                m.tuples_in += inner_all.len() as u64;
                for r in outer.scan() {
                    let r = r?;
                    m.tuples_in += 1;
                    m.pairs_examined += fold.visit(&r, &inner_all, m)?;
                }
                Ok(())
            }
            // Every pair, block by block: an outer tuple's "live" flag stands
            // for the early exit of the other modes, and every pair is counted.
            Access::NestedLoop => {
                let block_pages = self.config.buffer_pages.saturating_sub(1).max(1) as u64;
                let n_pages = outer.num_pages();
                for block_start in (0..n_pages).step_by(block_pages as usize) {
                    let block_end = (block_start + block_pages).min(n_pages);
                    // Read the outer block, each page charged once.
                    let mut block: Vec<(Tuple, F::Acc, bool)> = Vec::new();
                    for pi in block_start..block_end {
                        let image = self.disk.read_page(outer.file().page_id(pi as u32)?)?;
                        for rec in PageView::new(&image)?.records() {
                            let r = Tuple::decode(rec?)?;
                            m.tuples_in += 1;
                            let (acc, live) = fold.open(&r, m);
                            block.push((r, acc, live));
                        }
                    }
                    // One scan of the inner per block, one page at a time.
                    for s in inner.scan() {
                        let s = s?;
                        m.tuples_in += 1;
                        for (r, acc, live) in &mut block {
                            m.pairs_examined += 1;
                            if *live {
                                *live = fold.add(acc, r, &s, m)?;
                            }
                        }
                    }
                    for (r, acc, _) in block {
                        fold.close(&r, acc, m)?;
                    }
                }
                Ok(())
            }
        }
    }
}

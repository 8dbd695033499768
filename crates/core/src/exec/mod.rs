//! Physical execution of unnested plans: an operator-at-a-time tree.
//!
//! A logical [`crate::plan::UnnestPlan`] is *lowered* (`lower`) once, when
//! its [`VerifiedPlan`] is built, into an explicit tree of physical
//! operators — one module per operator:
//!
//! * `filter_scan` — folds a table's local predicates (the paper's p_i)
//!   into tuple degrees, materializing only the positive survivors ("only
//!   those tuples that satisfy p_i positively should be sorted");
//! * `sort` — external merge sort by the interval order `⪯` of
//!   Definition 3.1 on the join attribute;
//! * `merge_join` — the `Rng(r)` cursor: streams the sorted outer relation
//!   and, for each outer tuple `r`, presents exactly `Rng(r)`, the
//!   contiguous inner range whose support intervals can intersect `r`'s.
//!   The serial and parallel merge-joins, the anti and aggregate merge
//!   modes, and the partitioned join's per-partition scans all advance it;
//! * `partitioned` — the sampling-based partitioned join alternative;
//! * `block_nl` — the block nested loop: the join step without a merge
//!   driver, and every join, anti, and aggregate step of the baselines;
//! * `anti` — the grouped `MIN(D)` accumulation of Queries JX′/JALL′;
//! * `agg` — the pipelined T1/T2/JA′ (COUNT′) aggregate evaluation;
//! * `flat` — the flat join step: one pair evaluation (the optional
//!   equality driver, the residual predicates, the threshold prune) shared
//!   by every join method, and the output sink;
//! * `output` — fuzzy-OR dedup plus the final `WITH D > z` threshold.
//!
//! `op::drive` runs the cached tree by borrow: one match over its nodes, in
//! outline order, each operator run to completion on the inputs its
//! physical-property declaration ([`crate::verify::PhysOp`]) names, the
//! edges the static verifier checked — so the tree that is verified is the
//! tree that runs.
//! Chain joins pipeline left-deep: intermediate join output feeds the next
//! sort boundary as in-memory rows (`op::Slot::Rows`) instead of a
//! temp-table round trip (see DESIGN.md §11).
//!
//! Every operator registers in the executor's [`QueryMetrics`] registry
//! under its declaration's name and accumulates exact counters there (see [`crate::metrics`] for
//! the determinism contract); the registry is the executor's only counter
//! surface.

use crate::error::Result;
use crate::metrics::{OpKind, OperatorMetrics, QueryMetrics};
use crate::verify::VerifiedPlan;
use fuzzy_core::Degree;
use fuzzy_rel::{Catalog, Relation, StoredTable};
use fuzzy_storage::{IoSnapshot, SimDisk};
use std::time::Instant;

pub(crate) mod agg;
pub(crate) mod anti;
pub(crate) mod bind;
pub(crate) mod block_nl;
pub(crate) mod filter_scan;
pub(crate) mod flat;
pub(crate) mod lower;
pub(crate) mod merge_join;
pub(crate) mod op;
pub(crate) mod output;
pub(crate) mod partitioned;
pub(crate) mod sort;
pub(crate) mod threshold;

pub use threshold::{flat_pushdown_alpha, pushdown_alpha};

pub(crate) use bind::{fold_preds, BoundCompare, BoundOperand, Layout};
pub(crate) use output::project;

/// Execution configuration: the buffer and sort memory budgets, in pages.
/// The paper's experiments use a 2 MB buffer of 8 KB pages (256 pages).
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Pages of memory the join operators may hold (the paper's M): the
    /// block nested loop's outer block takes `M − 1` of them, and the
    /// partitioned join sizes its partitions to fit. Scans hold one page.
    pub buffer_pages: usize,
    /// Pages of working memory for the external sort.
    pub sort_pages: usize,
    /// Reorder multi-way flat joins to minimize intermediate sizes
    /// (Section 8's optimizer step). Answers are unaffected.
    pub reorder_joins: bool,
    /// Push `WITH D > z` thresholds into flat merge-joins: windows scan the
    /// z-cut intervals instead of the supports, because `d(x = y) >= z`
    /// exactly when the z-cuts intersect (the "equality indicator" direction
    /// of the paper's reference \[42\]). Answers are unaffected.
    pub threshold_pushdown: bool,
    /// Which physical algorithm drives flat equi-join steps.
    pub join_method: JoinMethod,
    /// Worker threads for external-sort run generation and the flat
    /// merge-join's per-pair degree computation. `1` (the default) is the
    /// serial path; any value produces bit-identical answers and identical
    /// I/O / comparison / pair counters, trading memory for wall time (see
    /// DESIGN.md, "Parallel execution"). The partitioned join ignores this
    /// knob and always runs serially (see `partitioned`).
    pub threads: usize,
    /// Session-level default for the answer threshold: statements that carry
    /// no explicit `WITH D > z` clause are post-filtered to degrees `> z`.
    /// Applied by the engine as a pure presentation filter (before ORDER BY
    /// and LIMIT), so it never shapes the plan and is excluded from the
    /// plan-cache key. `None` (the default) keeps the paper's `D > 0`
    /// semantics.
    pub default_threshold: Option<f64>,
}

/// Physical algorithms for a flat equi-join step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinMethod {
    /// The paper's extended merge-join (Section 3).
    #[default]
    Merge,
    /// The sampling-based partitioned join (Section 3's \[9\]/\[36\]
    /// "more research is needed" direction; see `partitioned`).
    Partitioned,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            buffer_pages: 256,
            sort_pages: 256,
            reorder_joins: true,
            threshold_pushdown: true,
            join_method: JoinMethod::default(),
            threads: 1,
            default_threshold: None,
        }
    }
}

/// The outcome of evaluating one candidate join pair: its contribution degree
/// (or `None`), how many value-level comparisons the evaluation cost, and
/// whether a positive pair was discarded by a pushed-down threshold. Both the
/// serial and the parallel join paths count from this one structure, which is
/// what makes their metrics bit-identical.
pub(crate) struct PairOutcome {
    pub(crate) degree: Option<Degree>,
    pub(crate) comparisons: u32,
    pub(crate) pruned: bool,
}

/// An open operator in the metrics registry: remembers the I/O level and the
/// clock at `begin_op` so `end_op` can charge the deltas.
pub(crate) struct OpGuard {
    pub(crate) id: usize,
    io0: IoSnapshot,
    t0: Instant,
}

/// The physical executor. Temporary files live on the same simulated disk as
/// the base tables, so every spill and materialization is charged.
pub struct Executor {
    disk: SimDisk,
    config: ExecConfig,
    metrics: QueryMetrics,
    temp_counter: u64,
}

impl Executor {
    /// Creates an executor over the given disk.
    pub fn new(disk: &SimDisk, config: ExecConfig) -> Executor {
        Executor { disk: disk.clone(), config, metrics: QueryMetrics::default(), temp_counter: 0 }
    }

    /// The configuration in effect.
    pub(crate) fn config(&self) -> ExecConfig {
        self.config
    }

    /// The per-operator metrics registry of the current/last run.
    pub fn metrics(&self) -> &QueryMetrics {
        &self.metrics
    }

    /// Takes ownership of the registry, leaving an empty one behind.
    pub fn take_metrics(&mut self) -> QueryMetrics {
        std::mem::take(&mut self.metrics)
    }

    /// Clears the registry for a fresh run.
    pub(crate) fn metrics_reset(&mut self) {
        self.metrics.reset();
    }

    /// Opens an operator node; close it with [`Executor::end_op`].
    pub(crate) fn begin_op(&mut self, kind: OpKind, label: String) -> OpGuard {
        OpGuard { id: self.metrics.begin(kind, label), io0: self.disk.io(), t0: Instant::now() }
    }

    /// Folds locally accumulated counters into an open operator node.
    pub(crate) fn absorb_op(&mut self, g: &OpGuard, m: &OperatorMetrics) {
        self.metrics.op_mut(g.id).absorb(m);
    }

    /// Closes an operator node, charging its wall time and I/O delta.
    pub(crate) fn end_op(&mut self, g: OpGuard) {
        let io = self.disk.io().since(&g.io0);
        self.metrics.finish(g.id, g.t0.elapsed(), io);
    }

    /// A fresh temp table with the same schema/padding as `like`.
    pub(crate) fn make_temp(&mut self, tag: &str, like: &StoredTable) -> StoredTable {
        let name = self.temp_name(tag);
        StoredTable::create_padded(&self.disk, name, like.schema().clone(), like.min_record_bytes())
    }

    fn temp_name(&mut self, tag: &str) -> String {
        self.temp_counter += 1;
        format!("__tmp_{tag}_{}", self.temp_counter)
    }

    /// Drives a verified operator tree to completion (see `op::drive`),
    /// resetting the metrics registry. The tree was lowered and verified
    /// when the [`VerifiedPlan`] was built; nothing is lowered again here.
    /// Its scans bind their tables by name through `catalog`, the
    /// statement's snapshot, so a cached plan reads the data of this run.
    pub fn run(&mut self, plan: &VerifiedPlan, catalog: &Catalog) -> Result<Relation> {
        self.metrics_reset();
        op::drive(self, plan.lowered(), catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::agg::GroupSet;
    use crate::plan::{PlanCol, PlanCompare, PlanOperand, PlanTable};
    use fuzzy_core::{CmpOp, Trapezoid, Value};
    use fuzzy_rel::{AttrType, Attribute, Schema, StoredTable, Tuple};
    use fuzzy_sql::AggFunc;

    pub(super) fn table(disk: &SimDisk, name: &str, xs: &[(f64, f64)]) -> StoredTable {
        // Tuples (ID, X) where X is a rectangle [lo, hi].
        let t = StoredTable::create(
            disk,
            name,
            Schema::new(vec![
                Attribute::new("ID", AttrType::Number),
                Attribute::new("X", AttrType::Number),
            ]),
        );
        t.load(xs.iter().enumerate().map(|(i, (lo, hi))| {
            Tuple::full(vec![
                Value::number(i as f64),
                Value::fuzzy(Trapezoid::rectangular(*lo, *hi).unwrap()),
            ])
        }))
        .unwrap();
        t
    }

    #[test]
    fn layout_resolution_and_projection() {
        let disk = SimDisk::with_default_page_size();
        let r = PlanTable::new("R", &table(&disk, "R", &[]));
        let s = PlanTable::new("S", &table(&disk, "S", &[]));
        let mut layout = Layout::of_table(&r);
        layout.push(&s);
        assert_eq!(layout.resolve(&PlanCol { binding: "R".into(), attr: 1 }).unwrap(), 1);
        assert_eq!(layout.resolve(&PlanCol { binding: "S".into(), attr: 0 }).unwrap(), 2);
        assert!(layout.resolve(&PlanCol { binding: "T".into(), attr: 0 }).is_err());
        assert!(layout.contains("R"));
        assert!(!layout.contains("T"));
        let schema = layout.to_schema();
        assert_eq!(schema.len(), 4);
        assert_eq!(schema.attr(3).name, "S.X");
        let (proj, idx) = layout.projection(&[PlanCol { binding: "S".into(), attr: 1 }]).unwrap();
        assert_eq!(proj.attr(0).name, "X");
        assert_eq!(idx, vec![3]);
    }

    #[test]
    fn bound_compare_eval_pair_spans_both_sides() {
        let disk = SimDisk::with_default_page_size();
        let r = PlanTable::new("R", &table(&disk, "R", &[]));
        let s = PlanTable::new("S", &table(&disk, "S", &[]));
        let mut layout = Layout::of_table(&r);
        layout.push(&s);
        let p = layout
            .bind(&PlanCompare::new(
                PlanOperand::Col(PlanCol { binding: "R".into(), attr: 0 }),
                CmpOp::Lt,
                PlanOperand::Col(PlanCol { binding: "S".into(), attr: 0 }),
            ))
            .unwrap();
        let left = vec![Value::number(1.0), Value::number(0.0)];
        let right = vec![Value::number(2.0), Value::number(0.0)];
        assert_eq!(p.eval_pair(&left, &right), Degree::ONE);
        let concat: Vec<Value> = left.iter().chain(right.iter()).cloned().collect();
        assert_eq!(p.eval(&concat), Degree::ONE);
    }

    #[test]
    fn merge_window_covers_exactly_rng() {
        // Outer values: [0,1], [10,11], [20,21]. Inner: [0,2], [9,12],
        // [15,30], [40,41]. Expected windows: r0 -> {[0,2]};
        // r1 -> {[9,12]}; r2 -> {[15,30]} ([40,41] never enters).
        let disk = SimDisk::with_default_page_size();
        let r = table(&disk, "R", &[(0.0, 1.0), (10.0, 11.0), (20.0, 21.0)]);
        let s = table(&disk, "S", &[(0.0, 2.0), (9.0, 12.0), (15.0, 30.0), (40.0, 41.0)]);
        let mut ex = Executor::new(&disk, ExecConfig::default());
        let sorted_r = ex.sort_table(&r, 1, Degree::ZERO, "sort R by #1".to_string()).unwrap();
        let sorted_s = ex.sort_table(&s, 1, Degree::ZERO, "sort S by #1".to_string()).unwrap();
        let mut windows: Vec<(f64, Vec<f64>)> = Vec::new();
        ex.merge_window(
            &sorted_r,
            1,
            &sorted_s,
            1,
            Degree::ZERO,
            OpKind::Join,
            "test".to_string(),
            |r, rng, _| {
                let key = r.values[1].interval().unwrap().0;
                let ws = rng.iter().map(|s| s.values[1].interval().unwrap().0).collect();
                windows.push((key, ws));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(windows, vec![(0.0, vec![0.0]), (10.0, vec![9.0]), (20.0, vec![15.0]),]);
        assert_eq!(ex.metrics().totals().pairs_examined, 3);
    }

    #[test]
    fn corrupt_sort_attribute_is_a_typed_error() {
        // A record whose sort attribute does not decode fails the sort with
        // a storage error instead of panicking, serial and parallel alike.
        let disk = SimDisk::with_default_page_size();
        let r = table(&disk, "R", &[(0.0, 1.0), (10.0, 11.0), (20.0, 21.0)]);
        r.file().load([[0u8; 3]]).unwrap();
        for threads in [1, 2] {
            let mut ex = Executor::new(&disk, ExecConfig { threads, ..ExecConfig::default() });
            let err = ex.sort_table(&r, 1, Degree::ZERO, "sort R by #1".to_string());
            assert!(
                matches!(
                    err,
                    Err(crate::EngineError::Storage(fuzzy_storage::StorageError::Corrupt(_)))
                ),
                "threads={threads}: {:?}",
                err.map(|t| t.num_tuples())
            );
        }
    }

    #[test]
    fn inner_read_error_is_a_typed_error_in_every_window_join() {
        // An undecodable record after the inner tuples: each join returns
        // the storage error its read raises instead of panicking.
        let disk = SimDisk::with_default_page_size();
        let r = table(&disk, "R", &[(0.0, 1.0), (100.0, 101.0)]);
        let s = table(&disk, "S", &[(0.0, 2.0)]);
        s.file().load([[0u8; 3]]).unwrap();
        let corrupt = |res: Result<()>| {
            matches!(res, Err(crate::EngineError::Storage(fuzzy_storage::StorageError::Corrupt(_))))
        };
        let label = || "test".to_string();
        let mut ex = Executor::new(&disk, ExecConfig::default());
        let serial =
            ex.merge_window(&r, 1, &s, 1, Degree::ZERO, OpKind::Join, label(), |_, _, _| Ok(()));
        assert!(corrupt(serial), "merge_window");
        let mut ex = Executor::new(&disk, ExecConfig { threads: 2, ..ExecConfig::default() });
        let none =
            |_: &Tuple, _: &Tuple| PairOutcome { degree: None, comparisons: 0, pruned: false };
        let mut sink = flat::JoinSink::Buffer(Vec::new());
        let parallel = ex.merge_join_parallel(
            &r,
            1,
            &s,
            1,
            Degree::ZERO,
            OpKind::Join,
            label(),
            &none,
            false,
            &mut sink,
        );
        assert!(corrupt(parallel), "merge_join_parallel");
        let mut ex = Executor::new(&disk, ExecConfig::default());
        let partitioned =
            ex.partitioned_join(&r, 1, &s, 1, Degree::ZERO, label(), |_, _, _| Ok(()));
        assert!(corrupt(partitioned), "partitioned_join");
    }

    #[test]
    fn merge_window_keeps_wide_inner_tuples_across_outers() {
        // A very wide inner tuple stays in every window it can touch.
        let disk = SimDisk::with_default_page_size();
        let r = table(&disk, "R", &[(0.0, 1.0), (50.0, 51.0), (99.0, 100.0)]);
        let s = table(&disk, "S", &[(0.0, 100.0)]);
        let mut ex = Executor::new(&disk, ExecConfig::default());
        let sorted_r = ex.sort_table(&r, 1, Degree::ZERO, "sort R by #1".to_string()).unwrap();
        let sorted_s = ex.sort_table(&s, 1, Degree::ZERO, "sort S by #1".to_string()).unwrap();
        let mut count = 0;
        ex.merge_window(
            &sorted_r,
            1,
            &sorted_s,
            1,
            Degree::ZERO,
            OpKind::Join,
            "test".to_string(),
            |_, rng, _| {
                count += rng.len();
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(count, 3, "the wide tuple belongs to all three ranges");
    }

    #[test]
    fn merge_window_includes_dangling_tuples_across_nested_intervals() {
        // Section 3's caveat: a tuple retained in the window for a wide
        // earlier outer interval may not join a later, narrower one — it is
        // examined (dangling) because the window can only drop tuples that
        // precede *every* remaining outer range. Outer: [10,100] then
        // [12,20]; inner: [50,60] joins the first but dangles for the
        // second (its window-retention check e(s)=60 >= b(r)=12 holds while
        // the intervals do not intersect).
        let disk = SimDisk::with_default_page_size();
        let r = table(&disk, "R", &[(10.0, 100.0), (12.0, 20.0)]);
        let s = table(&disk, "S", &[(50.0, 60.0)]);
        let mut ex = Executor::new(&disk, ExecConfig::default());
        let sorted_r = ex.sort_table(&r, 1, Degree::ZERO, "sort R by #1".to_string()).unwrap();
        let sorted_s = ex.sort_table(&s, 1, Degree::ZERO, "sort S by #1".to_string()).unwrap();
        let mut seen = Vec::new();
        ex.merge_window(
            &sorted_r,
            1,
            &sorted_s,
            1,
            Degree::ZERO,
            OpKind::Join,
            "test".to_string(),
            |r, rng, _| {
                for s in rng {
                    seen.push(r.values[1].compare(CmpOp::Eq, &s.values[1]).is_positive());
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(seen, vec![true, false], "join for [10,100], dangling for [12,20]");
    }

    #[test]
    fn operators_register_in_the_metrics_registry() {
        let disk = SimDisk::with_default_page_size();
        let r = table(&disk, "R", &[(0.0, 1.0), (10.0, 11.0)]);
        let mut ex = Executor::new(&disk, ExecConfig::default());
        let sorted = ex.sort_table(&r, 1, Degree::ZERO, "sort R by #1".to_string()).unwrap();
        let _ = sorted;
        let ops = ex.metrics().ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind, OpKind::Sort);
        assert_eq!(ops[0].label, "sort R by #1");
        assert_eq!(ops[0].metrics.tuples_in, 2);
        assert_eq!(ex.metrics().totals().sort_runs, ops[0].metrics.sort_runs);
    }

    #[test]
    fn group_set_dedups_by_identity_with_max_degree() {
        let mut g = GroupSet::default();
        g.add(Value::number(5.0), Degree::new(0.3).unwrap());
        g.add(Value::number(5.0), Degree::new(0.8).unwrap());
        g.add(Value::number(7.0), Degree::new(0.5).unwrap());
        g.add(Value::Null, Degree::ONE); // NULLs are ignored
        g.add(Value::number(9.0), Degree::ZERO); // non-members are ignored
        let (count, d) = g.aggregate(AggFunc::Count, crate::plan::AggDegree::One).unwrap().unwrap();
        assert_eq!(count, Value::number(2.0));
        assert_eq!(d, Degree::ONE);
        let (sum, _) = g.aggregate(AggFunc::Sum, crate::plan::AggDegree::One).unwrap().unwrap();
        assert_eq!(sum, Value::number(12.0));
        // Mean-membership degree: (0.8 + 0.5) / 2.
        let (_, dm) =
            g.aggregate(AggFunc::Sum, crate::plan::AggDegree::MeanMembership).unwrap().unwrap();
        assert!((dm.value() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn reused_group_set_aggregates_bit_identically_to_a_fresh_one() {
        // Fuzzy members make SUM/AVG depend on addition order, so this also
        // pins that a cleared set keeps first-occurrence member order.
        let fz = |a: f64, w: f64| {
            Value::fuzzy(Trapezoid::new(a, a + w * 0.1, a + w * 0.7, a + w).unwrap())
        };
        let groups: Vec<Vec<(Value, f64)>> = vec![
            vec![(fz(0.1, 3.3), 0.4), (fz(1e16, 7.0), 0.9), (fz(-1e16, 0.3), 0.7)],
            vec![(Value::number(-0.0), 0.2), (Value::number(0.0), 0.6), (fz(2.2, 1.1), 0.5)],
            vec![],
            vec![(fz(0.3, 0.2), 0.1), (Value::Null, 1.0), (fz(0.3, 0.2), 0.8), (fz(7.5, 2.0), 1.0)],
            vec![(Value::number(3.0), 0.3)],
        ];
        let aggs = [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max];
        let degrees = [crate::plan::AggDegree::One, crate::plan::AggDegree::MeanMembership];
        let mut reused = GroupSet::default();
        // Iterate twice so every group also follows a larger one.
        for members in groups.iter().chain(&groups) {
            let mut fresh = GroupSet::default();
            reused.clear();
            for (v, d) in members {
                fresh.add(v.clone(), Degree::new(*d).unwrap());
                reused.add(v.clone(), Degree::new(*d).unwrap());
            }
            for agg in aggs {
                for ad in degrees {
                    // Debug prints the shortest round-trip form of every
                    // float (and the sign of zero), so equal text is equal bits.
                    let want = format!("{:?}", fresh.aggregate(agg, ad).unwrap());
                    let got = format!("{:?}", reused.aggregate(agg, ad).unwrap());
                    assert_eq!(got, want, "{agg:?} {ad:?} over {members:?}");
                }
            }
        }
    }

    #[test]
    fn empty_group_set_aggregates() {
        let g = GroupSet::default();
        assert!(g.aggregate(AggFunc::Sum, crate::plan::AggDegree::One).unwrap().is_none());
        let (count, _) = g.aggregate(AggFunc::Count, crate::plan::AggDegree::One).unwrap().unwrap();
        assert_eq!(count, Value::number(0.0));
    }

    #[test]
    fn filter_scan_passthrough_and_reduction() {
        let disk = SimDisk::with_default_page_size();
        let stored = table(&disk, "R", &[(0.0, 1.0), (10.0, 11.0)]);
        let mut r = PlanTable::new("R", &stored);
        let mut catalog = Catalog::new();
        catalog.register(stored.clone());
        let mut ex = Executor::new(&disk, ExecConfig::default());
        // No predicates: the very same file is reused.
        let same = ex.filter_scan(&r, &catalog, Degree::ZERO, "scan R".to_string()).unwrap();
        assert_eq!(same.num_pages(), stored.num_pages());
        // With a predicate, only survivors are materialized.
        r.local_preds.push(PlanCompare::new(
            PlanOperand::Col(PlanCol { binding: "R".into(), attr: 0 }),
            CmpOp::Ge,
            PlanOperand::Const(Value::number(1.0)),
        ));
        let reduced = ex.filter_scan(&r, &catalog, Degree::ZERO, "scan R".to_string()).unwrap();
        assert_eq!(reduced.num_tuples(), 1);
    }

    #[test]
    fn filter_scan_binds_the_table_through_the_snapshot() {
        let disk = SimDisk::with_default_page_size();
        let stored = table(&disk, "R", &[(0.0, 1.0), (10.0, 11.0)]);
        let r = PlanTable::new("R", &stored);
        let mut catalog = Catalog::new();
        catalog.register(stored);
        let mut ex = Executor::new(&disk, ExecConfig::default());
        // A rewrite swaps R's file: the same plan table reads the new one.
        let fresh = table(&disk, "R", &[(5.0, 6.0)]);
        catalog.replace_file("R", fresh.file().clone());
        let scanned = ex.filter_scan(&r, &catalog, Degree::ZERO, "scan R".to_string()).unwrap();
        assert_eq!(scanned.num_tuples(), 1);
        // A table the snapshot lacks, or whose schema moved, is a bind error.
        let bind_err = |catalog: &Catalog, ex: &mut Executor| {
            matches!(
                ex.filter_scan(&r, catalog, Degree::ZERO, "scan R".to_string()),
                Err(crate::EngineError::Bind(_))
            )
        };
        assert!(bind_err(&Catalog::new(), &mut ex));
        catalog.register(StoredTable::create(&disk, "R", Schema::of(&[("ID", AttrType::Text)])));
        assert!(bind_err(&catalog, &mut ex));
    }
}

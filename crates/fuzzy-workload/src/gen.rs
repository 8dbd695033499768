//! Synthetic workload generator reproducing the paper's Section 9 setup.
//!
//! "Tuples of the relations are randomly generated and a tuple of one
//! relation joins, on the average, C tuples of the other relation. […] both
//! the intervals associated with the join attribute values and the average
//! numbers of joining tuples are kept small. This is typical for fuzzy
//! database applications in which data may be imprecise but not very vague."
//!
//! Construction: the join domain is a grid of `n_inner / C` centres spaced
//! far enough apart that values around different centres never overlap. Every
//! tuple draws a centre uniformly and represents it by a small trapezoid
//! jittered around the centre (or a crisp value, with probability
//! `1 − fuzzy_fraction`). Thus an outer tuple joins on average `C` inner
//! tuples, with graded (not just 0/1) possibility degrees.

use fuzzy_core::{Trapezoid, Value};
use fuzzy_rel::{AttrType, Schema, StoredTable, Tuple};
use fuzzy_storage::{Result, SimDisk};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a generated two-relation join workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Tuples in the outer relation R.
    pub n_outer: usize,
    /// Tuples in the inner relation S.
    pub n_inner: usize,
    /// Minimum encoded tuple size in bytes (the paper uses 128 B – 2 KB).
    pub tuple_bytes: usize,
    /// Average number of inner tuples each outer tuple joins (the paper's C).
    pub fanout: usize,
    /// Fraction of join values that are ill-known (the rest are crisp).
    pub fuzzy_fraction: f64,
    /// Maximum half-width of the support of an ill-known value, as a fraction
    /// of the grid spacing. Below 0.5 different centres never overlap (the
    /// fan-out is exactly C); larger values create cross-centre overlaps and
    /// dangling tuples (Section 3's caveat), used by the ablation experiment.
    pub vagueness: f64,
    /// Zipf skew exponent for centre selection: 0 = uniform (the paper's
    /// setup); larger values concentrate the join values on few hot centres,
    /// the adversarial case for sampling-based partitioning.
    pub skew: f64,
    /// RNG seed, for reproducibility.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            n_outer: 8000,
            n_inner: 8000,
            tuple_bytes: 128,
            fanout: 7,
            fuzzy_fraction: 0.5,
            vagueness: 0.35,
            skew: 0.0,
            seed: 42,
        }
    }
}

impl WorkloadSpec {
    /// Relation sizes in bytes (n × tuple_bytes), which is how the paper
    /// reports them (1 MB = 8000 × 128 B).
    pub fn outer_bytes(&self) -> usize {
        self.n_outer * self.tuple_bytes
    }

    /// See [`WorkloadSpec::outer_bytes`].
    pub fn inner_bytes(&self) -> usize {
        self.n_inner * self.tuple_bytes
    }
}

/// A generated pair of relations with schema
/// `(ID: Number key, X: Number join attribute, V: Number payload)`.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The outer relation R.
    pub outer: StoredTable,
    /// The inner relation S.
    pub inner: StoredTable,
    /// The spec the workload was generated from.
    pub spec: WorkloadSpec,
}

/// Generates the workload onto `disk`.
pub fn generate(disk: &SimDisk, spec: WorkloadSpec) -> Result<Workload> {
    assert!(spec.fanout >= 1, "fanout must be at least 1");
    assert!(
        spec.vagueness >= 0.0 && spec.vagueness.is_finite(),
        "vagueness must be a finite non-negative number"
    );
    // Below 0.5 different grid centres never overlap, so the average fan-out
    // is exactly C. Larger values deliberately overlap neighbouring centres —
    // the Section 3 "dangling tuples" regime the ablation experiment probes.
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let centres = (spec.n_inner / spec.fanout).max(1);
    let spacing = 100.0;
    // Cumulative Zipf weights for skewed centre selection (uniform when the
    // exponent is 0).
    let zipf_cdf: Vec<f64> = if spec.skew > 0.0 {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(centres);
        for k in 1..=centres {
            acc += 1.0 / (k as f64).powf(spec.skew);
            cdf.push(acc);
        }
        let total = acc;
        cdf.iter().map(|c| c / total).collect()
    } else {
        Vec::new()
    };

    let schema = || {
        Schema::of(&[("ID", AttrType::Number), ("X", AttrType::Number), ("V", AttrType::Number)])
            .with_key("ID")
    };

    let outer = StoredTable::create_padded(disk, "R", schema(), spec.tuple_bytes);
    outer.load((0..spec.n_outer).map(|i| {
        let x = join_value(&mut rng, centres, spacing, &spec, &zipf_cdf);
        Tuple::full(vec![Value::number(i as f64), x, Value::number(rng.gen_range(0.0..1000.0))])
    }))?;

    let inner = StoredTable::create_padded(disk, "S", schema(), spec.tuple_bytes);
    inner.load((0..spec.n_inner).map(|i| {
        let x = join_value(&mut rng, centres, spacing, &spec, &zipf_cdf);
        Tuple::full(vec![
            Value::number((spec.n_outer + i) as f64),
            x,
            Value::number(rng.gen_range(0.0..1000.0)),
        ])
    }))?;

    Ok(Workload { outer, inner, spec })
}

fn join_value(
    rng: &mut StdRng,
    centres: usize,
    spacing: f64,
    spec: &WorkloadSpec,
    zipf_cdf: &[f64],
) -> Value {
    let idx = if zipf_cdf.is_empty() {
        rng.gen_range(0..centres)
    } else {
        let u: f64 = rng.gen_range(0.0..1.0);
        zipf_cdf.partition_point(|c| *c < u).min(centres - 1)
    };
    let centre = (idx as f64) * spacing;
    if rng.gen_bool(spec.fuzzy_fraction.clamp(0.0, 1.0)) {
        // Total extent (offset + core half-width + edge width) stays below
        // vagueness × spacing < spacing / 2, so different centres never
        // overlap. The core is *offset* from the centre so that two values of
        // the same centre usually intersect only partially — join degrees are
        // graded, not 0/1.
        let max_w = spec.vagueness * spacing / 1.75;
        if max_w > 0.0 {
            let w = rng.gen_range(0.25 * max_w..max_w);
            let off = rng.gen_range(-0.5 * max_w..0.5 * max_w);
            let core_half = rng.gen_range(0.0..0.25 * max_w);
            let core_l = centre + off - core_half;
            let core_r = centre + off + core_half;
            let t = Trapezoid::new(core_l - w, core_l, core_r, core_r + w)
                .expect("ordered by construction");
            return Value::fuzzy(t);
        }
    }
    Value::number(centre)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzy_core::CmpOp;

    #[test]
    fn generates_requested_sizes() {
        let disk = SimDisk::with_default_page_size();
        let w = generate(
            &disk,
            WorkloadSpec { n_outer: 200, n_inner: 400, tuple_bytes: 128, ..Default::default() },
        )
        .unwrap();
        assert_eq!(w.outer.num_tuples(), 200);
        assert_eq!(w.inner.num_tuples(), 400);
        // 128-byte records, 8 KB pages: 63 records per page (slot overhead).
        assert!(w.outer.num_pages() >= 200 * 128 / 8192);
    }

    #[test]
    fn fanout_is_approximately_c() {
        let disk = SimDisk::with_default_page_size();
        let spec =
            WorkloadSpec { n_outer: 300, n_inner: 300, fanout: 7, seed: 7, ..Default::default() };
        let w = generate(&disk, spec).unwrap();
        let r = w.outer.to_relation().unwrap();
        let s = w.inner.to_relation().unwrap();
        let mut joins = 0usize;
        for rt in r.tuples() {
            for st in s.tuples() {
                if rt.values[1].compare(CmpOp::Eq, &st.values[1]).is_positive() {
                    joins += 1;
                }
            }
        }
        let avg = joins as f64 / r.len() as f64;
        assert!(
            (avg - spec.fanout as f64).abs() < spec.fanout as f64 * 0.5,
            "average fanout {avg} too far from C = {}",
            spec.fanout
        );
    }

    #[test]
    fn degrees_are_graded_not_binary() {
        let disk = SimDisk::with_default_page_size();
        let w = generate(
            &disk,
            WorkloadSpec {
                n_outer: 100,
                n_inner: 100,
                fuzzy_fraction: 1.0,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let r = w.outer.to_relation().unwrap();
        let s = w.inner.to_relation().unwrap();
        let mut partial = 0usize;
        for rt in r.tuples() {
            for st in s.tuples() {
                let d = rt.values[1].compare(CmpOp::Eq, &st.values[1]).value();
                if d > 0.0 && d < 1.0 {
                    partial += 1;
                }
            }
        }
        assert!(partial > 0, "expected some partial-degree joins");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let disk1 = SimDisk::with_default_page_size();
        let disk2 = SimDisk::with_default_page_size();
        let spec = WorkloadSpec { n_outer: 50, n_inner: 50, ..Default::default() };
        let w1 = generate(&disk1, spec).unwrap();
        let w2 = generate(&disk2, spec).unwrap();
        assert_eq!(w1.outer.to_relation().unwrap(), w2.outer.to_relation().unwrap());
    }

    #[test]
    fn crisp_only_workload() {
        let disk = SimDisk::with_default_page_size();
        let w = generate(
            &disk,
            WorkloadSpec { n_outer: 50, n_inner: 50, fuzzy_fraction: 0.0, ..Default::default() },
        )
        .unwrap();
        let r = w.outer.to_relation().unwrap();
        assert!(r.tuples().iter().all(|t| matches!(t.values[1], Value::Number(_))));
    }

    #[test]
    fn skewed_workloads_concentrate_values() {
        let disk = SimDisk::with_default_page_size();
        let spec = WorkloadSpec {
            n_outer: 500,
            n_inner: 500,
            fanout: 5,
            skew: 1.5,
            fuzzy_fraction: 0.0,
            seed: 12,
            ..Default::default()
        };
        let w = generate(&disk, spec).unwrap();
        let rel = w.inner.to_relation().unwrap();
        let mut counts: std::collections::HashMap<u64, usize> = Default::default();
        for t in rel.tuples() {
            *counts.entry(t.values[1].as_number().unwrap() as u64).or_default() += 1;
        }
        let max = *counts.values().max().unwrap();
        // Under Zipf(1.5), the hottest centre takes far more than the
        // uniform share (500 / 100 centres = 5).
        assert!(max > 50, "hottest centre got {max}");
    }

    #[test]
    fn spec_byte_accounting() {
        let spec =
            WorkloadSpec { n_outer: 8000, n_inner: 16000, tuple_bytes: 128, ..Default::default() };
        // The paper calls 8000 x 128 B "1 MB".
        assert_eq!(spec.outer_bytes(), 1_024_000);
        assert_eq!(spec.inner_bytes(), 2_048_000);
    }
}

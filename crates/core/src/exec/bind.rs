//! Predicate binding over concatenated tuple layouts.
//!
//! A [`Layout`] maps `(binding, attribute)` plan columns to flat indices in
//! the concatenated tuples that flow between join steps; a [`BoundCompare`]
//! is a plan predicate resolved against such a layout once, so per-tuple
//! evaluation is index arithmetic only.

use crate::error::{EngineError, Result};
use crate::plan::{PlanCol, PlanCompare, PlanOperand, PlanTable};
use fuzzy_core::{CmpOp, Degree, Value};
use fuzzy_rel::{Attribute, Schema};

pub(crate) enum BoundOperand {
    Col(usize),
    Const(Value),
}

impl BoundOperand {
    /// The operand's value in the tuple `values`.
    pub(crate) fn value<'a>(&'a self, values: &'a [Value]) -> &'a Value {
        match self {
            BoundOperand::Col(i) => &values[*i],
            BoundOperand::Const(v) => v,
        }
    }
}

/// A comparison bound to a concrete (possibly concatenated) tuple layout.
pub(crate) struct BoundCompare {
    pub(crate) lhs: BoundOperand,
    pub(crate) op: CmpOp,
    pub(crate) rhs: BoundOperand,
    pub(crate) tolerance: Option<f64>,
}

impl BoundCompare {
    pub(crate) fn eval(&self, values: &[Value]) -> Degree {
        let (l, r) = (self.lhs.value(values), self.rhs.value(values));
        match self.tolerance {
            Some(t) => l.compare_similar(r, t),
            None => l.compare(self.op, r),
        }
    }

    /// Evaluates against a split pair of value slices (outer ++ inner)
    /// without concatenating them.
    pub(crate) fn eval_pair(&self, left: &[Value], right: &[Value]) -> Degree {
        fn pick<'a>(o: &'a BoundOperand, left: &'a [Value], right: &'a [Value]) -> &'a Value {
            match o {
                BoundOperand::Col(i) if *i < left.len() => &left[*i],
                BoundOperand::Col(i) => &right[*i - left.len()],
                BoundOperand::Const(v) => v,
            }
        }
        let (l, r) = (pick(&self.lhs, left, right), pick(&self.rhs, left, right));
        match self.tolerance {
            Some(t) => l.compare_similar(r, t),
            None => l.compare(self.op, r),
        }
    }
}

/// Folds one tuple's predicates into its degree `d` in order, stopping at
/// the first zero (each evaluated predicate counts one fuzzy comparison).
#[inline]
pub(crate) fn fold_preds(
    mut d: Degree,
    preds: &[BoundCompare],
    values: &[Value],
    m: &mut crate::metrics::OperatorMetrics,
) -> Degree {
    for p in preds {
        if !d.is_positive() {
            break;
        }
        m.fuzzy_comparisons += 1;
        d = d.and(p.eval(values));
    }
    d
}

/// Concatenated-tuple layout: maps `(binding, attr)` to a flat index.
#[derive(Debug, Clone, Default)]
pub(crate) struct Layout {
    parts: Vec<(String, Schema)>,
}

impl Layout {
    pub(crate) fn of_table(t: &PlanTable) -> Layout {
        Layout { parts: vec![(t.binding.clone(), t.schema.clone())] }
    }

    pub(crate) fn push(&mut self, t: &PlanTable) {
        self.parts.push((t.binding.clone(), t.schema.clone()));
    }

    pub(crate) fn resolve(&self, c: &PlanCol) -> Result<usize> {
        let mut off = 0usize;
        for (binding, schema) in &self.parts {
            if binding == &c.binding {
                return Ok(off + c.attr);
            }
            off += schema.len();
        }
        Err(EngineError::Bind(format!("binding {:?} not in layout", c.binding)))
    }

    pub(crate) fn contains(&self, binding: &str) -> bool {
        self.parts.iter().any(|(b, _)| b == binding)
    }

    /// The bindings of the concatenation, in order.
    pub(crate) fn bindings(&self) -> impl Iterator<Item = &str> {
        self.parts.iter().map(|(b, _)| b.as_str())
    }

    /// A storable schema for the concatenation, attribute names qualified.
    pub(crate) fn to_schema(&self) -> Schema {
        let mut attrs = Vec::new();
        for (binding, schema) in &self.parts {
            for a in schema.attributes() {
                attrs.push(Attribute::new(format!("{binding}.{}", a.name), a.ty));
            }
        }
        Schema::new(attrs)
    }

    pub(crate) fn bind_operand(&self, o: &PlanOperand) -> Result<BoundOperand> {
        Ok(match o {
            PlanOperand::Col(c) => BoundOperand::Col(self.resolve(c)?),
            PlanOperand::Const(v) => BoundOperand::Const(v.clone()),
        })
    }

    pub(crate) fn bind(&self, p: &PlanCompare) -> Result<BoundCompare> {
        let (lhs, rhs) = (self.bind_operand(&p.lhs)?, self.bind_operand(&p.rhs)?);
        Ok(BoundCompare { lhs, op: p.op, rhs, tolerance: p.tolerance })
    }

    pub(crate) fn bind_all(&self, ps: &[PlanCompare]) -> Result<Vec<BoundCompare>> {
        ps.iter().map(|p| self.bind(p)).collect()
    }

    /// Output schema and indices of a projection.
    pub(crate) fn projection(&self, select: &[PlanCol]) -> Result<(Schema, Vec<usize>)> {
        let mut attrs = Vec::new();
        let mut idx = Vec::new();
        for c in select {
            let i = self.resolve(c)?;
            let (_, schema) =
                self.parts.iter().find(|(b, _)| b == &c.binding).expect("resolve succeeded");
            let a = schema.attr(c.attr);
            attrs.push(Attribute::new(a.name.clone(), a.ty));
            idx.push(i);
        }
        Ok((Schema::new(attrs), idx))
    }
}

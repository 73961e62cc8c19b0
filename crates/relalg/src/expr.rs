//! Relational algebra expressions.
//!
//! The operator set is exactly what the paper's RANF translation emits
//! (Sec. 9.3): base-relation scans (with the selections/projections implied
//! by repeated variables and constants in an atom), natural join for
//! conjunction, union for disjunction (operands share columns), projection
//! for `∃`, selection for equality conjuncts, the **generalized set
//! difference** `diff` (Def. 9.3 — an anti-join, kept primitive as the paper
//! recommends), the on-the-fly singleton `q̲` relation for `x = c`
//! (Sec. 5.3), and the column-duplication primitive from Appendix A step 3.
//!
//! Columns are *named by variables*; a closed formula evaluates to a nullary
//! relation (`{()}` = true, `{}` = false).

use rc_formula::{Schema, Symbol, Term, Value, Var};
use std::fmt;
use std::sync::Arc;

/// A selection predicate for [`RaExpr::Select`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SelPred {
    /// Keep rows where two columns are equal.
    EqCols(Var, Var),
    /// Keep rows where two columns differ.
    NeqCols(Var, Var),
    /// Keep rows where a column equals a constant.
    EqConst(Var, Value),
    /// Keep rows where a column differs from a constant.
    NeqConst(Var, Value),
}

impl SelPred {
    /// Columns mentioned by the predicate.
    pub fn cols(&self) -> Vec<Var> {
        match *self {
            SelPred::EqCols(a, b) | SelPred::NeqCols(a, b) => vec![a, b],
            SelPred::EqConst(a, _) | SelPred::NeqConst(a, _) => vec![a],
        }
    }
}

/// A relational algebra expression with variable-named columns.
///
/// Children are held behind [`Arc`] so that hash-consing
/// ([`crate::plan::intern`]) can *physically share* duplicate subtrees: the
/// genify/RANF pipeline routinely emits the same scan/join/diff subplan in
/// several union branches, and interning turns that tree into a DAG whose
/// shared nodes the evaluator ([`crate::eval::eval`]) computes once. Cloning an expression is cheap (reference bumps).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum RaExpr {
    /// Scan of a base relation through an atom pattern. Constants select,
    /// repeated variables select equality, and the output columns are the
    /// distinct variables in first-occurrence order.
    Scan {
        /// The base predicate.
        pred: Symbol,
        /// One term per column of the base relation.
        pattern: Vec<Term>,
    },
    /// The singleton relation `{(c)}` with one column — the paper's
    /// on-the-fly `q̲` relation for `x = c` atoms.
    Single {
        /// Output column.
        var: Var,
        /// The constant.
        value: Value,
    },
    /// The nullary relation `{()}` ("true"). Emitted for the `true ∧ G`
    /// rewrite of Alg. 9.1 step 2.
    Unit,
    /// An empty relation with the given columns ("false", or the `⊥`
    /// generator placeholder).
    Empty {
        /// Output columns.
        cols: Vec<Var>,
    },
    /// Natural join on shared column names (the equijoin of Sec. 2.1).
    Join(Arc<RaExpr>, Arc<RaExpr>),
    /// Union. Operands must have the same column *set*; the right side is
    /// re-ordered to match the left (the paper's "possibly after a column
    /// permutation").
    Union(Arc<RaExpr>, Arc<RaExpr>),
    /// Generalized set difference `P diff Q` (Def. 9.3): tuples of `P` whose
    /// projection onto `Q`'s columns is not in `Q`. Requires
    /// `cols(Q) ⊆ cols(P)`.
    Diff(Arc<RaExpr>, Arc<RaExpr>),
    /// Projection onto a subset of columns.
    Project {
        /// Input expression.
        input: Arc<RaExpr>,
        /// Columns to keep (order defines the output order).
        cols: Vec<Var>,
    },
    /// Selection.
    Select {
        /// Input expression.
        input: Arc<RaExpr>,
        /// The predicate.
        pred: SelPred,
    },
    /// Column duplication (Appendix A step 3): append a copy of column
    /// `src` named `dst`.
    Duplicate {
        /// Input expression.
        input: Arc<RaExpr>,
        /// Column to copy.
        src: Var,
        /// Name of the new column.
        dst: Var,
    },
}

/// Structural validity error for an algebra expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExprError {
    /// Union operands have different column sets.
    UnionColumnsDiffer(Vec<Var>, Vec<Var>),
    /// Diff right columns are not a subset of the left's.
    DiffNotSubset(Vec<Var>, Vec<Var>),
    /// Projection mentions a column the input lacks.
    ProjectUnknownColumn(Var),
    /// Selection mentions a column the input lacks.
    SelectUnknownColumn(Var),
    /// Duplicate source missing or destination already present.
    DuplicateBadColumns(Var, Var),
    /// A scan pattern's arity disagrees with the schema.
    ScanArity {
        /// Predicate scanned.
        pred: Symbol,
        /// Declared arity.
        expected: usize,
        /// Pattern length.
        found: usize,
    },
    /// A scanned predicate is not in the schema.
    UnknownPredicate(Symbol),
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::UnionColumnsDiffer(a, b) => {
                write!(f, "union operands have different columns: {a:?} vs {b:?}")
            }
            ExprError::DiffNotSubset(a, b) => {
                write!(f, "diff requires right columns {b:?} ⊆ left columns {a:?}")
            }
            ExprError::ProjectUnknownColumn(v) => write!(f, "projection onto unknown column {v}"),
            ExprError::SelectUnknownColumn(v) => write!(f, "selection on unknown column {v}"),
            ExprError::DuplicateBadColumns(s, d) => {
                write!(f, "duplicate: bad source {s} or duplicate destination {d}")
            }
            ExprError::ScanArity {
                pred,
                expected,
                found,
            } => write!(f, "scan of {pred}: arity {found}, schema says {expected}"),
            ExprError::UnknownPredicate(p) => write!(f, "scan of unknown predicate {p}"),
        }
    }
}

impl std::error::Error for ExprError {}

impl RaExpr {
    /// Scan shorthand.
    pub fn scan(pred: impl Into<Symbol>, pattern: Vec<Term>) -> RaExpr {
        RaExpr::Scan {
            pred: pred.into(),
            pattern,
        }
    }

    /// Join shorthand.
    pub fn join(l: RaExpr, r: RaExpr) -> RaExpr {
        RaExpr::Join(Arc::new(l), Arc::new(r))
    }

    /// Union shorthand.
    pub fn union(l: RaExpr, r: RaExpr) -> RaExpr {
        RaExpr::Union(Arc::new(l), Arc::new(r))
    }

    /// Diff shorthand.
    pub fn diff(l: RaExpr, r: RaExpr) -> RaExpr {
        RaExpr::Diff(Arc::new(l), Arc::new(r))
    }

    /// Projection shorthand.
    pub fn project(input: RaExpr, cols: Vec<Var>) -> RaExpr {
        RaExpr::Project {
            input: Arc::new(input),
            cols,
        }
    }

    /// Selection shorthand.
    pub fn select(input: RaExpr, pred: SelPred) -> RaExpr {
        RaExpr::Select {
            input: Arc::new(input),
            pred,
        }
    }

    /// Output columns, in order.
    pub fn cols(&self) -> Vec<Var> {
        match self {
            RaExpr::Scan { pattern, .. } => {
                let mut out = Vec::new();
                for t in pattern {
                    if let Term::Var(v) = *t {
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
                out
            }
            RaExpr::Single { var, .. } => vec![*var],
            RaExpr::Unit => Vec::new(),
            RaExpr::Empty { cols } => cols.clone(),
            RaExpr::Join(l, r) => {
                let mut out = l.cols();
                for v in r.cols() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
                out
            }
            RaExpr::Union(l, _) => l.cols(),
            RaExpr::Diff(l, _) => l.cols(),
            RaExpr::Project { cols, .. } => cols.clone(),
            RaExpr::Select { input, .. } => input.cols(),
            RaExpr::Duplicate { input, dst, .. } => {
                let mut out = input.cols();
                out.push(*dst);
                out
            }
        }
    }

    /// Immediate sub-expressions.
    pub fn children(&self) -> Vec<&RaExpr> {
        match self {
            RaExpr::Scan { .. } | RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => {
                Vec::new()
            }
            RaExpr::Join(l, r) | RaExpr::Union(l, r) | RaExpr::Diff(l, r) => vec![l, r],
            RaExpr::Project { input, .. }
            | RaExpr::Select { input, .. }
            | RaExpr::Duplicate { input, .. } => vec![input],
        }
    }

    /// Number of operator nodes.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Validate structure (column disciplines) and, when a schema is given,
    /// scan arities.
    pub fn validate(&self, schema: Option<&Schema>) -> Result<(), ExprError> {
        match self {
            RaExpr::Scan { pred, pattern } => {
                if let Some(s) = schema {
                    match s.arity_of(*pred) {
                        None => return Err(ExprError::UnknownPredicate(*pred)),
                        Some(a) if a != pattern.len() => {
                            return Err(ExprError::ScanArity {
                                pred: *pred,
                                expected: a,
                                found: pattern.len(),
                            })
                        }
                        _ => {}
                    }
                }
                Ok(())
            }
            RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => Ok(()),
            RaExpr::Join(l, r) => {
                l.validate(schema)?;
                r.validate(schema)
            }
            RaExpr::Union(l, r) => {
                l.validate(schema)?;
                r.validate(schema)?;
                let (lc, rc) = (l.cols(), r.cols());
                let mut ls = lc.clone();
                let mut rs = rc.clone();
                ls.sort();
                rs.sort();
                if ls != rs {
                    return Err(ExprError::UnionColumnsDiffer(lc, rc));
                }
                Ok(())
            }
            RaExpr::Diff(l, r) => {
                l.validate(schema)?;
                r.validate(schema)?;
                let (lc, rc) = (l.cols(), r.cols());
                if !rc.iter().all(|v| lc.contains(v)) {
                    return Err(ExprError::DiffNotSubset(lc, rc));
                }
                Ok(())
            }
            RaExpr::Project { input, cols } => {
                input.validate(schema)?;
                let ic = input.cols();
                for v in cols {
                    if !ic.contains(v) {
                        return Err(ExprError::ProjectUnknownColumn(*v));
                    }
                }
                Ok(())
            }
            RaExpr::Select { input, pred } => {
                input.validate(schema)?;
                let ic = input.cols();
                for v in pred.cols() {
                    if !ic.contains(&v) {
                        return Err(ExprError::SelectUnknownColumn(v));
                    }
                }
                Ok(())
            }
            RaExpr::Duplicate { input, src, dst } => {
                input.validate(schema)?;
                let ic = input.cols();
                if !ic.contains(src) || ic.contains(dst) {
                    return Err(ExprError::DuplicateBadColumns(*src, *dst));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Var {
        Var::new(n)
    }

    #[test]
    fn scan_cols_dedup_in_order() {
        // P(x, 3, x, y) has columns [x, y].
        let e = RaExpr::scan(
            "P",
            vec![Term::var("x"), Term::val(3), Term::var("x"), Term::var("y")],
        );
        assert_eq!(e.cols(), vec![v("x"), v("y")]);
    }

    #[test]
    fn join_cols_merge() {
        let l = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        let r = RaExpr::scan("Q", vec![Term::var("y"), Term::var("z")]);
        assert_eq!(RaExpr::join(l, r).cols(), vec![v("x"), v("y"), v("z")]);
    }

    #[test]
    fn union_validates_column_sets() {
        let l = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        let r = RaExpr::scan("Q", vec![Term::var("y"), Term::var("x")]);
        assert!(RaExpr::union(l.clone(), r).validate(None).is_ok());
        let bad = RaExpr::scan("Q", vec![Term::var("y"), Term::var("z")]);
        assert!(matches!(
            RaExpr::union(l, bad).validate(None),
            Err(ExprError::UnionColumnsDiffer(..))
        ));
    }

    #[test]
    fn diff_requires_subset() {
        let l = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        let r = RaExpr::scan("Q", vec![Term::var("y")]);
        assert!(RaExpr::diff(l.clone(), r).validate(None).is_ok());
        let bad = RaExpr::scan("Q", vec![Term::var("z")]);
        assert!(matches!(
            RaExpr::diff(l, bad).validate(None),
            Err(ExprError::DiffNotSubset(..))
        ));
    }

    #[test]
    fn schema_checked_scans() {
        let schema = Schema::new().with("P", 2);
        let ok = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        assert!(ok.validate(Some(&schema)).is_ok());
        let wrong = RaExpr::scan("P", vec![Term::var("x")]);
        assert!(matches!(
            wrong.validate(Some(&schema)),
            Err(ExprError::ScanArity { .. })
        ));
        let unknown = RaExpr::scan("Z", vec![Term::var("x")]);
        assert!(matches!(
            unknown.validate(Some(&schema)),
            Err(ExprError::UnknownPredicate(_))
        ));
    }

    #[test]
    fn duplicate_validation() {
        let p = RaExpr::scan("P", vec![Term::var("x")]);
        let good = RaExpr::Duplicate {
            input: Arc::new(p.clone()),
            src: v("x"),
            dst: v("x2"),
        };
        assert!(good.validate(None).is_ok());
        assert_eq!(good.cols(), vec![v("x"), v("x2")]);
        let bad = RaExpr::Duplicate {
            input: Arc::new(p),
            src: v("z"),
            dst: v("x2"),
        };
        assert!(bad.validate(None).is_err());
    }
}

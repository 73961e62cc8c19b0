//! Reference evaluator preserving the original engine's data plane.
//!
//! This is a faithful port of the evaluator this crate shipped before the
//! flat-row storage rewrite: every relation is a `BTreeSet<Box<[Value]>>`
//! (one heap allocation per tuple), join probes allocate a key `Vec` per
//! row, `diff` probes a `contains` per row, and every output row is an
//! individually boxed insert. It exists for two reasons:
//!
//! 1. **Differential testing** — the property suite evaluates random
//!    expressions with both engines and asserts identical results,
//!    pinning the batch kernels in `eval` to the original observable
//!    semantics (same tuples, same deterministic order).
//! 2. **Benchmarking** — `BENCH_eval.json` reports the flat-kernel
//!    speedup against this baseline on identical inputs, keeping the
//!    comparison apples-to-apples within one binary.
//!
//! Do not use it for real evaluation; it is deliberately slow.

use crate::database::Database;
use crate::eval::EvalError;
use crate::expr::{RaExpr, SelPred};
use crate::relation::Relation;
use rc_formula::fxhash::FxHashMap;
use rc_formula::{Term, Value, Var};
use std::collections::BTreeSet;

/// A tuple in the baseline representation: one boxed slice per row.
type BTuple = Box<[Value]>;

/// The baseline relation: set-of-boxed-rows, ordered by `Value`'s `Ord`.
struct BRel {
    arity: usize,
    rows: BTreeSet<BTuple>,
}

impl BRel {
    fn new(arity: usize) -> BRel {
        BRel {
            arity,
            rows: BTreeSet::new(),
        }
    }

    fn unit() -> BRel {
        let mut r = BRel::new(0);
        r.rows.insert(Vec::new().into_boxed_slice());
        r
    }

    fn into_relation(self) -> Relation {
        // BTreeSet iterates in ascending order, which is exactly the
        // canonical order of the flat representation; the builder's
        // sorted-input detection makes this conversion linear.
        Relation::from_rows(self.arity, self.rows)
    }
}

/// Evaluate `expr` with the original tuple-at-a-time data plane. The
/// result's column order is `expr.cols()`, like [`crate::eval::eval`].
pub fn eval_baseline(expr: &RaExpr, db: &Database) -> Result<Relation, EvalError> {
    expr.validate(None)?;
    eval_rec(expr, db).map(BRel::into_relation)
}

fn positions(haystack: &[Var], needles: &[Var]) -> Vec<usize> {
    needles
        .iter()
        .map(|v| {
            haystack
                .iter()
                .position(|w| w == v)
                .expect("column present (validated)")
        })
        .collect()
}

fn eval_rec(expr: &RaExpr, db: &Database) -> Result<BRel, EvalError> {
    let out = match expr {
        RaExpr::Scan { pred, pattern } => {
            let base = db
                .relation(*pred)
                .ok_or(EvalError::MissingRelation(*pred))?;
            if base.arity() != pattern.len() {
                return Err(EvalError::ArityMismatch {
                    pred: *pred,
                    stored: base.arity(),
                    pattern: pattern.len(),
                });
            }
            let cols = expr.cols();
            let mut out = BRel::new(cols.len());
            let first_pos: Vec<usize> = cols
                .iter()
                .map(|v| {
                    pattern
                        .iter()
                        .position(|t| *t == Term::Var(*v))
                        .expect("column came from pattern")
                })
                .collect();
            'rows: for row in base.iter() {
                for (i, t) in pattern.iter().enumerate() {
                    match t {
                        Term::Const(c) => {
                            if row[i] != *c {
                                continue 'rows;
                            }
                        }
                        Term::Var(v) => {
                            let fp = first_pos[cols.iter().position(|w| w == v).unwrap()];
                            if row[i] != row[fp] {
                                continue 'rows;
                            }
                        }
                    }
                }
                let tup: BTuple = first_pos.iter().map(|&i| row[i]).collect();
                out.rows.insert(tup);
            }
            out
        }
        RaExpr::Single { value, .. } => {
            let mut out = BRel::new(1);
            out.rows.insert(vec![*value].into_boxed_slice());
            out
        }
        RaExpr::Unit => BRel::unit(),
        RaExpr::Empty { cols } => BRel::new(cols.len()),
        RaExpr::Join(l, r) => {
            let lrel = eval_rec(l, db)?;
            let rrel = eval_rec(r, db)?;
            let lcols = l.cols();
            let rcols = r.cols();
            let shared: Vec<Var> = rcols
                .iter()
                .filter(|v| lcols.contains(v))
                .copied()
                .collect();
            let l_shared = positions(&lcols, &shared);
            let r_shared = positions(&rcols, &shared);
            let r_extra: Vec<usize> = rcols
                .iter()
                .enumerate()
                .filter(|(_, v)| !lcols.contains(v))
                .map(|(i, _)| i)
                .collect();
            // Build on the right side, one key Vec per row (the original
            // allocation pattern).
            let mut index: FxHashMap<Vec<Value>, Vec<&BTuple>> = FxHashMap::default();
            for row in rrel.rows.iter() {
                let key: Vec<Value> = r_shared.iter().map(|&i| row[i]).collect();
                index.entry(key).or_default().push(row);
            }
            let mut out = BRel::new(lcols.len() + r_extra.len());
            for lrow in lrel.rows.iter() {
                let key: Vec<Value> = l_shared.iter().map(|&i| lrow[i]).collect();
                if let Some(matches) = index.get(&key) {
                    for rrow in matches {
                        let mut tup: Vec<Value> = lrow.to_vec();
                        tup.extend(r_extra.iter().map(|&i| rrow[i]));
                        out.rows.insert(tup.into_boxed_slice());
                    }
                }
            }
            out
        }
        RaExpr::Union(l, r) => {
            let lrel = eval_rec(l, db)?;
            let rrel = eval_rec(r, db)?;
            let lcols = l.cols();
            let rcols = r.cols();
            let perm = positions(&rcols, &lcols);
            let mut out = lrel;
            for row in rrel.rows.iter() {
                let tup: BTuple = perm.iter().map(|&i| row[i]).collect();
                out.rows.insert(tup);
            }
            out
        }
        RaExpr::Diff(l, r) => {
            let lrel = eval_rec(l, db)?;
            let rrel = eval_rec(r, db)?;
            let lcols = l.cols();
            let rcols = r.cols();
            let proj = positions(&lcols, &rcols);
            let mut out = BRel::new(lcols.len());
            for row in lrel.rows.iter() {
                let key: Vec<Value> = proj.iter().map(|&i| row[i]).collect();
                if !rrel.rows.contains(key.as_slice()) {
                    out.rows.insert(row.clone());
                }
            }
            out
        }
        RaExpr::Project { input, cols } => {
            let rel = eval_rec(input, db)?;
            let icols = input.cols();
            let proj = positions(&icols, cols);
            let mut out = BRel::new(cols.len());
            for row in rel.rows.iter() {
                let tup: BTuple = proj.iter().map(|&i| row[i]).collect();
                out.rows.insert(tup);
            }
            out
        }
        RaExpr::Select { input, pred } => {
            let rel = eval_rec(input, db)?;
            let icols = input.cols();
            let keep: Box<dyn Fn(&BTuple) -> bool> = match *pred {
                SelPred::EqCols(a, b) => {
                    let (i, j) = (positions(&icols, &[a])[0], positions(&icols, &[b])[0]);
                    Box::new(move |t: &BTuple| t[i] == t[j])
                }
                SelPred::NeqCols(a, b) => {
                    let (i, j) = (positions(&icols, &[a])[0], positions(&icols, &[b])[0]);
                    Box::new(move |t: &BTuple| t[i] != t[j])
                }
                SelPred::EqConst(a, c) => {
                    let i = positions(&icols, &[a])[0];
                    Box::new(move |t: &BTuple| t[i] == c)
                }
                SelPred::NeqConst(a, c) => {
                    let i = positions(&icols, &[a])[0];
                    Box::new(move |t: &BTuple| t[i] != c)
                }
            };
            let mut out = BRel::new(icols.len());
            for row in rel.rows.iter() {
                if keep(row) {
                    out.rows.insert(row.clone());
                }
            }
            out
        }
        RaExpr::Duplicate { input, src, .. } => {
            let rel = eval_rec(input, db)?;
            let icols = input.cols();
            let i = positions(&icols, &[*src])[0];
            let mut out = BRel::new(icols.len() + 1);
            for row in rel.rows.iter() {
                let mut tup: Vec<Value> = row.to_vec();
                tup.push(row[i]);
                out.rows.insert(tup.into_boxed_slice());
            }
            out
        }
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, EvalCtx};
    use std::sync::Arc;

    fn db() -> Database {
        Database::from_facts("P(1, 2)\nP(2, 3)\nP(3, 3)\nQ(2)\nQ(3)\nR(1)\nS(1, 2)\nS(9, 9)")
            .unwrap()
    }

    /// Every operator shape, evaluated by both engines.
    #[test]
    fn baseline_agrees_with_kernels_on_operator_zoo() {
        let p = || RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        let q = || RaExpr::scan("Q", vec![Term::var("y")]);
        let exprs: Vec<RaExpr> = vec![
            p(),
            RaExpr::scan("P", vec![Term::var("x"), Term::val(3)]),
            RaExpr::scan("P", vec![Term::var("x"), Term::var("x")]),
            RaExpr::join(p(), q()),
            RaExpr::join(q(), RaExpr::scan("R", vec![Term::var("z")])),
            RaExpr::union(p(), RaExpr::scan("S", vec![Term::var("y"), Term::var("x")])),
            RaExpr::diff(p(), q()),
            RaExpr::diff(p(), RaExpr::scan("R", vec![Term::var("y")])),
            RaExpr::project(p(), vec![Var::new("y")]),
            RaExpr::select(p(), SelPred::NeqCols(Var::new("x"), Var::new("y"))),
            RaExpr::Duplicate {
                input: Arc::new(q()),
                src: Var::new("y"),
                dst: Var::new("y2"),
            },
            RaExpr::Unit,
            RaExpr::Single {
                var: Var::new("x"),
                value: Value::int(5),
            },
        ];
        let d = db();
        for e in exprs {
            let fast = eval(&e, &d, &mut EvalCtx::default()).unwrap();
            let slow = eval_baseline(&e, &d).unwrap();
            assert_eq!(fast, slow, "engines disagree on {e}");
            assert_eq!(fast.to_string(), slow.to_string(), "order differs on {e}");
        }
    }

    #[test]
    fn baseline_reports_same_errors() {
        let d = db();
        let missing = RaExpr::scan("Zzz", vec![Term::var("x")]);
        assert_eq!(
            eval_baseline(&missing, &d).unwrap_err(),
            eval(&missing, &d, &mut EvalCtx::default()).unwrap_err()
        );
    }
}

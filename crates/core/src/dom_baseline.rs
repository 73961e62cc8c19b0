//! The `Dom`-relation baseline the paper argues against (Secs. 2.2 and 3).
//!
//! The classical "safe" evaluation of an arbitrary relational calculus
//! formula materializes `Dom` — the unary relation of every constant in the
//! database and the query — and rewrites
//!
//! ```text
//! ¬P(x, y)  ≡  Dom(x) ∧ Dom(y) ∧ ¬P(x, y)   →   Dom × Dom − P
//! ```
//!
//! padding disjuncts with cross products of `Dom` so unions line up. This
//! module implements that strategy two ways:
//!
//! * [`translate_dom`]: a compositional translation of **any** formula into
//!   relational algebra over a database augmented with `Dom` (active-domain
//!   semantics). Negation becomes `Dom^k − E(A)`; disjunction pads each
//!   side with the missing `Dom` columns; `∀` goes through `¬∃¬`.
//! * [`eval_brute_force`]: direct tuple-at-a-time evaluation over the
//!   active domain (the `interp` oracle), as a second reference point.
//!
//! For domain independent queries both agree with the paper's Dom-free
//! pipeline; the benchmark suite measures how much more work they do
//! (`Dom^k` intermediates grow with the *domain*, not with the data
//! actually relevant to the query).

use crate::interp::FiniteInterp;
use rc_formula::ast::Formula;
use rc_formula::vars::free_vars;
use rc_formula::{Symbol, Term, Var};
use rc_relalg::{Database, RaExpr, Relation};

/// The reserved name of the materialized domain relation.
pub fn dom_pred() -> Symbol {
    Symbol::intern("Dom#")
}

/// Build a copy of `db` augmented with the `Dom` relation holding every
/// constant of the database and of `query`. Returns the augmented database.
pub fn augment_with_dom(db: &Database, query: &Formula) -> Database {
    let mut out = db.clone();
    // Predicates the query mentions but the database lacks are empty
    // relations (matching the oracle semantics).
    for (p, arity) in query.predicates() {
        out.declare(p, arity);
    }
    let mut b = rc_relalg::RelationBuilder::with_capacity(1, db.active_domain().len());
    for &v in db.active_domain() {
        b.push_row(&[v]);
    }
    for c in query.constants() {
        b.push_row(&[c]);
    }
    if b.is_empty() {
        // First-order semantics needs a nonempty domain.
        b.push_row(&[rc_formula::Value::str("#default")]);
    }
    let dom = b.finish();
    out.insert_relation(dom_pred(), dom);
    out
}

/// Cross an expression with `Dom` columns for each variable in `missing`.
fn pad_with_dom(e: RaExpr, missing: &[Var]) -> RaExpr {
    missing.iter().fold(e, |acc, &v| {
        RaExpr::join(
            acc,
            RaExpr::Scan {
                pred: dom_pred(),
                pattern: vec![Term::Var(v)],
            },
        )
    })
}

/// `Dom^k` over the given columns.
fn dom_power(cols: &[Var]) -> RaExpr {
    let mut acc = RaExpr::Unit;
    for &v in cols {
        acc = RaExpr::join(
            acc,
            RaExpr::Scan {
                pred: dom_pred(),
                pattern: vec![Term::Var(v)],
            },
        );
    }
    acc
}

/// Translate an **arbitrary** formula into relational algebra over a
/// `Dom`-augmented database, with active-domain semantics. Every formula
/// translates; the price is `Dom`-product intermediates.
pub fn translate_dom(f: &Formula) -> RaExpr {
    match f {
        Formula::Atom(a) => RaExpr::Scan {
            pred: a.pred,
            pattern: a.terms.clone(),
        },
        Formula::Eq(s, t) => match (*s, *t) {
            (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
                RaExpr::Single { var: v, value: c }
            }
            (Term::Const(a), Term::Const(b)) => {
                if a == b {
                    RaExpr::Unit
                } else {
                    RaExpr::Empty { cols: Vec::new() }
                }
            }
            (Term::Var(a), Term::Var(b)) => {
                // Dom(a) ∧ a = b, materialized as a selection over Dom².
                RaExpr::select(
                    pad_with_dom(RaExpr::Unit, &[a, b]),
                    rc_relalg::SelPred::EqCols(a, b),
                )
            }
        },
        Formula::Not(g) => {
            // Dom^fv(A) − E(A).
            let fv = free_vars(g);
            let inner = translate_dom(g);
            RaExpr::diff(dom_power(&fv), inner)
        }
        Formula::And(fs) if fs.is_empty() => RaExpr::Unit,
        Formula::And(fs) => {
            let mut acc: Option<RaExpr> = None;
            for g in fs {
                let e = translate_dom(g);
                acc = Some(match acc {
                    None => e,
                    Some(a) => RaExpr::join(a, e),
                });
            }
            acc.expect("nonempty")
        }
        Formula::Or(fs) if fs.is_empty() => RaExpr::Empty { cols: Vec::new() },
        Formula::Or(fs) => {
            // Pad every disjunct up to the union of the free variables.
            let mut all: Vec<Var> = Vec::new();
            for g in fs {
                for v in free_vars(g) {
                    if !all.contains(&v) {
                        all.push(v);
                    }
                }
            }
            let mut acc: Option<RaExpr> = None;
            for g in fs {
                let fv = free_vars(g);
                let missing: Vec<Var> = all.iter().filter(|v| !fv.contains(v)).copied().collect();
                let e = pad_with_dom(translate_dom(g), &missing);
                acc = Some(match acc {
                    None => e,
                    Some(a) => RaExpr::union(a, e),
                });
            }
            acc.expect("nonempty")
        }
        Formula::Exists(y, g) => {
            let inner = translate_dom(g);
            let mut cols = inner.cols();
            if !cols.contains(y) {
                // Vacuous quantifier over a nonempty domain.
                return inner;
            }
            cols.retain(|v| v != y);
            RaExpr::project(inner, cols)
        }
        Formula::Forall(y, g) => {
            // ∀y A ≡ ¬∃y ¬A.
            translate_dom(&Formula::not(Formula::exists(
                *y,
                Formula::not((**g).clone()),
            )))
        }
    }
}

/// Evaluate `f` on `db` via the Dom-based algebra translation. Returns the
/// relation over `f`'s free variables (in [`free_vars`] order).
pub fn eval_dom(f: &Formula, db: &Database) -> Result<Relation, rc_relalg::EvalError> {
    let augmented = augment_with_dom(db, f);
    let expr = translate_dom(f);
    let cols = free_vars(f);
    let expr = if expr.cols() == cols {
        expr
    } else {
        RaExpr::project(expr, cols)
    };
    rc_relalg::eval(&expr, &augmented, &mut rc_relalg::EvalCtx::default())
}

/// Brute-force tuple-at-a-time active-domain evaluation — the second
/// baseline, with `|Dom|^k` satisfaction checks for `k` free variables.
pub fn eval_brute_force(f: &Formula, db: &Database) -> Relation {
    let interp = FiniteInterp::active(db, f);
    interp.answers(f, &free_vars(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_formula::parse;
    use rc_formula::Value;

    fn db() -> Database {
        Database::from_facts("P(1)\nP(2)\nQ(2)\nQ(3)\nR(1, 2)\nR(3, 1)").unwrap()
    }

    #[test]
    fn negation_ranges_over_dom() {
        let f = parse("!P(x)").unwrap();
        let rel = eval_dom(&f, &db()).unwrap();
        // Dom = {1,2,3}; ¬P = {3}.
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&[Value::int(3)]));
        assert_eq!(rel, eval_brute_force(&f, &db()));
    }

    #[test]
    fn disjunction_pads_with_dom() {
        let f = parse("P(x) | Q(y)").unwrap();
        let rel = eval_dom(&f, &db()).unwrap();
        // {1,2}×Dom ∪ Dom×{2,3} = 6 + 6 − overlap 4 = 8.
        assert_eq!(rel.len(), 8);
        assert_eq!(rel, eval_brute_force(&f, &db()));
    }

    #[test]
    fn dom_and_translated_agree_on_domain_independent_queries() {
        use crate::ranf::ranf;
        use crate::translate::translate;
        let database = db();
        for s in [
            "P(x) & (Q(x) | exists y. R(x, y))",
            "exists y. (R(x, y) & !Q(y))",
            "P(x) & !Q(x)",
            "forall y. (!Q(y) | exists z. R(z, y))",
        ] {
            let f = parse(s).unwrap();
            let dom_answer = eval_dom(&f, &database).unwrap();
            let brute = eval_brute_force(&f, &database);
            assert_eq!(dom_answer, brute, "dom vs brute on {s}");
            // The paper's pipeline (genify → ranf → translate) agrees too.
            let g = crate::genify::genify(&f).unwrap();
            let r = ranf(&g).unwrap();
            let e = translate(&r).unwrap();
            let cols = free_vars(&f);
            let e = if e.cols() == cols {
                e
            } else {
                RaExpr::project(e, cols)
            };
            let ours = rc_relalg::eval(&e, &database, &mut Default::default()).unwrap();
            assert_eq!(ours, dom_answer, "pipeline vs dom on {s}");
        }
    }

    #[test]
    fn variable_equality_over_dom() {
        let f = parse("x = y & P(x)").unwrap();
        let rel = eval_dom(&f, &db()).unwrap();
        assert_eq!(rel.len(), 2); // (1,1), (2,2)
    }

    #[test]
    fn forall_via_double_negation() {
        // ∀x (P(x) → ∃y R(x,y)): P = {1,2}; R(1,·) ✓, R(2,·) ✗ → false.
        let f = parse("forall x. (!P(x) | exists y. R(x, y))").unwrap();
        let rel = eval_dom(&f, &db()).unwrap();
        assert_eq!(rel.as_bool(), Some(false));
    }

    #[test]
    fn empty_database_gets_default_domain() {
        let empty = Database::new();
        let f = parse("!P(x)").unwrap();
        let rel = eval_dom(&f, &empty).unwrap();
        // Dom = {#default}; P missing…
        assert_eq!(rel.len(), 1);
    }
}

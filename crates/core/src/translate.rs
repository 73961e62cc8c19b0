//! Translation of RANF formulas into relational algebra (Sec. 9.3,
//! Thm. 9.5).
//!
//! The translation is deliberately "trivial" — that is the point of RANF:
//!
//! * an edb atom becomes a scan (constants and repeated variables select);
//! * `x = c` becomes the on-the-fly singleton `q̲` relation (Sec. 5.3);
//! * a G-disjunction becomes a union (its operands have the same free
//!   variables, so no `Dom` padding is ever needed);
//! * a conjunction folds left-to-right: positive conjuncts natural-join,
//!   `¬G` conjuncts become the generalized set difference `diff`
//!   (Def. 9.3), and `x = y` / `x ≠ y` conjuncts become selections;
//! * `∃y` becomes a projection dropping `y`'s column;
//! * `true` becomes the nullary `{()}` relation.
//!
//! No `Dom` relation — the relation of all constants in the database and
//! query — is ever constructed, which is the paper's headline practical
//! property (Sec. 3).
//!
//! [`stage`] is the compiler's entry: it runs under a [`CompileCtx`]
//! (budget, stage tracer) and records the translate stage span.
//! [`translate`] is the paper-named one-argument form, for the oracles and
//! benches.

use crate::pipeline::{CompileCtx, CompileOptions};
use rc_formula::ast::Formula;
use rc_formula::term::{Term, Var};
use rc_formula::vars::free_vars;
use rc_relalg::govern::{Budget, BudgetExceeded, Stage};
use rc_relalg::{RaExpr, SelPred, StageTracer};
use std::fmt;

/// Failure of the RANF → algebra translation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// The input is not in RANF.
    NotRanf(String),
    /// A resource bound tripped (expression blowup, deadline, or
    /// cancellation).
    Budget(BudgetExceeded),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::NotRanf(s) => write!(f, "not in RANF: {s}"),
            TranslateError::Budget(b) => write!(f, "{b}"),
        }
    }
}

impl std::error::Error for TranslateError {}

impl From<BudgetExceeded> for TranslateError {
    fn from(b: BudgetExceeded) -> Self {
        TranslateError::Budget(b)
    }
}

/// Per-call governance: counts emitted algebra operators and checks them
/// against the budget's node cap, attributing trips to
/// [`Stage::Translate`].
struct TransGov<'a> {
    budget: &'a Budget,
    ops: u64,
}

impl TransGov<'_> {
    /// One more operator emitted: honor cancellation/deadline and the cap.
    fn emit(&mut self) -> Result<(), TranslateError> {
        self.ops += 1;
        self.budget.checkpoint(Stage::Translate)?;
        self.budget.check_nodes(Stage::Translate, self.ops)?;
        Ok(())
    }
}

fn not_ranf<T>(f: &Formula, why: &str) -> Result<T, TranslateError> {
    Err(TranslateError::NotRanf(format!("{f}: {why}")))
}

/// Translate a RANF formula into an equivalent relational algebra
/// expression — [`stage`] under default options. The expression's columns
/// are the formula's free variables (in the order produced by the
/// operators; use a final projection to impose a specific order).
pub fn translate(f: &Formula) -> Result<RaExpr, TranslateError> {
    stage(
        f,
        &mut CompileCtx::new(&CompileOptions::default(), None, &mut StageTracer::off()),
    )
}

/// The translate stage under `cx`: every emitted algebra operator counts
/// against the budget's node cap, and emission honors the deadline and
/// cancellation; trips are attributed to [`Stage::Translate`]. The stage
/// span's detail is the number of operators emitted (`ops_emitted=`).
pub fn stage(f: &Formula, cx: &mut CompileCtx<'_>) -> Result<RaExpr, TranslateError> {
    cx.begin(Stage::Translate, || f.node_count());
    let mut gov = TransGov {
        budget: &cx.opts.budget,
        ops: 0,
    };
    let expr = match f {
        Formula::Or(fs) if fs.is_empty() => RaExpr::Empty { cols: Vec::new() },
        Formula::Or(fs) => union_all(fs, &mut gov)?,
        other => translate_d(other, &mut gov)?,
    };
    cx.end(|| expr.node_count(), || format!("ops_emitted={}", gov.ops));
    Ok(expr)
}

fn union_all(fs: &[Formula], gov: &mut TransGov<'_>) -> Result<RaExpr, TranslateError> {
    let mut acc: Option<RaExpr> = None;
    for g in fs {
        let e = translate_d(g, gov)?;
        acc = Some(match acc {
            None => e,
            Some(a) => {
                gov.emit()?;
                RaExpr::union(a, e)
            }
        });
    }
    Ok(acc.expect("nonempty disjunction"))
}

fn translate_d(f: &Formula, gov: &mut TransGov<'_>) -> Result<RaExpr, TranslateError> {
    gov.emit()?;
    match f {
        Formula::Atom(a) => Ok(RaExpr::Scan {
            pred: a.pred,
            pattern: a.terms.clone(),
        }),
        Formula::Eq(s, t) => translate_eq(f, *s, *t),
        Formula::And(fs) if fs.is_empty() => Ok(RaExpr::Unit),
        Formula::And(fs) => translate_conjunction(fs, gov),
        Formula::Or(fs) if fs.is_empty() => Ok(RaExpr::Empty { cols: Vec::new() }),
        Formula::Or(fs) => union_all(fs, gov),
        Formula::Exists(y, d) => {
            let inner = translate_d(d, gov)?;
            let cols: Vec<Var> = inner.cols().into_iter().filter(|v| v != y).collect();
            if inner.cols().len() == cols.len() {
                return not_ranf(f, "quantified variable has no column");
            }
            Ok(RaExpr::project(inner, cols))
        }
        // A bare negation is only legal when closed (the `true ∧ ¬G` form
        // normally covers this; accept it gracefully).
        Formula::Not(g) => {
            if !free_vars(f).is_empty() {
                return not_ranf(f, "open negation outside a conjunction");
            }
            Ok(RaExpr::diff(RaExpr::Unit, translate_d(g, gov)?))
        }
        Formula::Forall(..) => not_ranf(f, "universal quantifier survives in RANF input"),
    }
}

fn translate_eq(f: &Formula, s: Term, t: Term) -> Result<RaExpr, TranslateError> {
    match (s, t) {
        (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
            Ok(RaExpr::Single { var: v, value: c })
        }
        (Term::Const(a), Term::Const(b)) => Ok(if a == b {
            RaExpr::Unit
        } else {
            RaExpr::Empty { cols: Vec::new() }
        }),
        _ => not_ranf(f, "free-standing x = y is not a G-formula"),
    }
}

fn translate_conjunction(fs: &[Formula], gov: &mut TransGov<'_>) -> Result<RaExpr, TranslateError> {
    let mut acc: Option<RaExpr> = None;
    for c in fs {
        gov.emit()?;
        let prev = acc.take();
        let next = match c {
            Formula::Not(inner) => {
                let Some(a) = prev else {
                    return not_ranf(c, "negative conjunct opens a conjunction");
                };
                match &**inner {
                    // D ∧ x ≠ y: selection.
                    Formula::Eq(Term::Var(p), Term::Var(q)) => {
                        require_cols(&a, &[*p, *q], c)?;
                        RaExpr::select(a, SelPred::NeqCols(*p, *q))
                    }
                    // D ∧ x ≠ c: selection against a constant.
                    Formula::Eq(Term::Var(p), Term::Const(k))
                    | Formula::Eq(Term::Const(k), Term::Var(p)) => {
                        require_cols(&a, &[*p], c)?;
                        RaExpr::select(a, SelPred::NeqConst(*p, *k))
                    }
                    // c ≠ d between constants: keep or kill everything.
                    Formula::Eq(Term::Const(k1), Term::Const(k2)) => {
                        if k1 == k2 {
                            RaExpr::Empty { cols: a.cols() }
                        } else {
                            a
                        }
                    }
                    // D ∧ ¬G: generalized set difference.
                    g => {
                        let rhs = translate_d(g, gov)?;
                        require_cols(&a, &rhs.cols(), c)?;
                        RaExpr::diff(a, rhs)
                    }
                }
            }
            // D ∧ x = y: selection.
            Formula::Eq(Term::Var(p), Term::Var(q)) => {
                let Some(a) = prev else {
                    return not_ranf(c, "equality conjunct opens a conjunction");
                };
                require_cols(&a, &[*p, *q], c)?;
                RaExpr::select(a, SelPred::EqCols(*p, *q))
            }
            // Positive conjuncts (atoms, x = c, ∃-formulas, G-disjunctions,
            // true) natural-join onto the accumulator.
            positive => {
                let e = translate_d(positive, gov)?;
                match prev {
                    None => e,
                    Some(a) => RaExpr::join(a, e),
                }
            }
        };
        acc = Some(next);
    }
    acc.ok_or_else(|| TranslateError::NotRanf("empty conjunction".into()))
}

fn require_cols(a: &RaExpr, needed: &[Var], c: &Formula) -> Result<(), TranslateError> {
    let cols = a.cols();
    if needed.iter().all(|v| cols.contains(v)) {
        Ok(())
    } else {
        not_ranf(c, "conjunct references columns not yet generated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranf::ranf;
    use rc_formula::parse;
    use rc_formula::Value;
    use rc_relalg::{eval, Database, EvalCtx};

    fn db() -> Database {
        Database::from_facts(
            "P(1, 2)\nP(2, 3)\nP(3, 3)\nQ(1)\nQ(3)\nR(2)\nR(9)\nS(3, 1, 2)\nS(1, 1, 1)",
        )
        .unwrap()
    }

    fn run(s: &str) -> (RaExpr, rc_relalg::Relation) {
        let f = parse(s).unwrap();
        let r = ranf(&f).unwrap();
        let e = translate(&r).unwrap();
        e.validate(None).unwrap();
        let rel = eval(&e, &db(), &mut EvalCtx::default()).unwrap();
        (e, rel)
    }

    #[test]
    fn example_92_row1_translates_to_union_of_joins() {
        let (e, rel) = run("P(x, y) & (Q(x) | R(y))");
        assert_eq!(e.to_string(), "P(x, y) ⋈ Q(x) ∪ P(x, y) ⋈ R(y)");
        // P⋈Q: (1,2),(3,3); P⋈R: (1,2).
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&[Value::int(1), Value::int(2)]));
        assert!(rel.contains(&[Value::int(3), Value::int(3)]));
    }

    #[test]
    fn example_92_row2_translates_with_diff() {
        // P(x) ∧ ∀y(¬Q(y) ∨ ∃z S(x,y,z)) — using ternary S for arity fit.
        let (e, rel) = run("Q(x) & forall y. (!Q(y) | exists z. S(x, y, z))");
        let shown = e.to_string();
        assert!(shown.contains("diff"), "expected a diff in {shown}");
        // Q = {1,3}; need x with S(x,y,·) for all y∈Q: S(1,1,·) ✓ but
        // S(1,3,·) ✗; S(3,1,·) ✓ but S(3,3,·) ✗ → empty.
        assert!(rel.is_empty());
    }

    #[test]
    fn singleton_equality_translates_to_q_relation() {
        let (e, rel) = run("P(x, y) & y = 3");
        assert!(e.to_string().contains("⟨y=3⟩"), "{e}");
        assert_eq!(rel.len(), 2); // (2,3), (3,3)
    }

    #[test]
    fn variable_equality_translates_to_selection() {
        let (e, rel) = run("P(x, y) & x = y");
        assert!(e.to_string().contains("σ[x=y]"), "{e}");
        assert_eq!(rel.len(), 1); // (3,3)
        let (_, rel2) = run("P(x, y) & x != y");
        assert_eq!(rel2.len(), 2);
    }

    #[test]
    fn closed_query_yields_boolean() {
        let (_, rel) = run("exists x, y. (P(x, y) & Q(x))");
        assert_eq!(rel.as_bool(), Some(true));
        let (_, rel2) = run("exists x. (Q(x) & R(x))");
        assert_eq!(rel2.as_bool(), Some(false));
        // true ∧ ¬∃: nullary diff.
        let (_, rel3) = run("!exists x. (Q(x) & R(x))");
        assert_eq!(rel3.as_bool(), Some(true));
    }

    #[test]
    fn negated_constant_equality_is_selection() {
        let (e, rel) = run("Q(x) & x != 3");
        assert!(e.to_string().contains("σ[x≠3]"), "{e}");
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&[Value::int(1)]));
    }

    #[test]
    fn exists_projects_away_column() {
        let (e, rel) = run("exists y. P(x, y)");
        assert_eq!(e.to_string(), "π[x](P(x, y))");
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn non_ranf_is_rejected() {
        // Free-standing x = y.
        let f = parse("x = y").unwrap();
        assert!(translate(&f).is_err());
    }

    #[test]
    fn translation_matches_oracle_on_paper_corpus() {
        use crate::interp::FiniteInterp;
        use rc_formula::vars::free_vars;
        let cases = [
            "P(x, y) & (Q(x) | R(y))",
            "P(x, y) & !exists z. (S(x, z, z) & !Q(y))",
            "Q(x) & forall y. (!R(y) | exists z. S(x, y, z))",
            "exists y. (P(x, y) & Q(x))",
            "Q(x) & x != 3",
            "P(x, y) & x = y",
            "!exists x. (Q(x) & R(x))",
        ];
        let database = db();
        for s in cases {
            let f = parse(s).unwrap();
            let r = ranf(&f).unwrap();
            let e = translate(&r).unwrap();
            let rel = eval(&e, &database, &mut EvalCtx::default()).unwrap();
            // Oracle: active-domain evaluation. RANF queries are domain
            // independent, so active-domain answers are THE answers.
            let interp = FiniteInterp::active(&database, &f);
            let cols = e.cols();
            let oracle = interp.answers(&f, &cols);
            assert_eq!(rel, oracle, "mismatch on {s}: {e}");
            let _ = free_vars(&f);
        }
    }
}

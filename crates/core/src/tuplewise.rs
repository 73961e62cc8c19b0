//! Tuple-at-a-time evaluation of RANF formulas.
//!
//! The paper's opening lists two evaluation routes for relational calculus:
//! translation to clauses "suitable for a Prolog interpreter" [LT84, Dec86]
//! or translation to relational algebra (the paper's route). RANF is in
//! fact also exactly what the Prolog route needs: Decker's *range form*
//! (Sec. 8 observes genify's `∃*G` "plays the role of range expression and
//! `R` is called the remainder"). This module implements that first route
//! as a second, independent execution engine:
//!
//! * conjunctions run as **nested loops**, left to right — by the RANF
//!   ordering discipline (Lemma 9.3 property 5), every variable a conjunct
//!   *needs* is bound by the time it runs;
//! * positive atoms unify against the stored relation under the current
//!   bindings (Prolog-style "goal call");
//! * `¬G` runs as **negation as failure**, which is *sound* here precisely
//!   because RANF guarantees `fv(G)` are bound (`D ∧ ¬G` with
//!   `fv(G) ⊆ fv(D)`) — the classic floundering problem cannot arise;
//! * `∃y D` enumerates `D`'s solutions and drops `y`.
//!
//! Answers always equal the algebra evaluator's (property-tested); the
//! benches compare the two engines' performance profiles.

use rc_formula::ast::Formula;
use rc_formula::term::{Term, Value, Var};
use rc_formula::vars::free_vars;
use rc_relalg::{Database, Relation};
use std::fmt;

/// Failure of tuple-at-a-time evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum TuplewiseError {
    /// The formula is not in RANF shape (a conjunct needed an unbound
    /// variable, a negation floundered, a `∀` survived, …).
    NotRanf(String),
}

impl fmt::Display for TuplewiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuplewiseError::NotRanf(s) => write!(f, "not evaluable tuple-at-a-time: {s}"),
        }
    }
}

impl std::error::Error for TuplewiseError {}

type Env = Vec<(Var, Value)>;

fn lookup(env: &Env, v: Var) -> Option<Value> {
    env.iter().rev().find(|(w, _)| *w == v).map(|(_, val)| *val)
}

fn term_value(env: &Env, t: Term) -> Option<Value> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => lookup(env, v),
    }
}

/// Evaluate a RANF formula against `db`, returning the relation over its
/// free variables in first-occurrence order.
pub fn eval_tuplewise(f: &Formula, db: &Database) -> Result<Relation, TuplewiseError> {
    let cols = free_vars(f);
    let mut out = Relation::new(cols.len());
    let mut env: Env = Vec::new();
    solve(f, db, &mut env, &mut |env| {
        let tup: Option<Vec<Value>> = cols.iter().map(|&v| lookup(env, v)).collect();
        match tup {
            Some(t) => {
                out.insert(t.into_boxed_slice());
                Ok(())
            }
            None => Err(TuplewiseError::NotRanf(
                "a free variable was left unbound by a solution".into(),
            )),
        }
    })?;
    Ok(out)
}

/// Does `f` have any solution under `env`? (Used for negation as failure
/// and nullary answers.)
fn provable(f: &Formula, db: &Database, env: &mut Env) -> Result<bool, TuplewiseError> {
    let mut found = false;
    solve(f, db, env, &mut |_| {
        found = true;
        Ok(())
    })?;
    Ok(found)
}

/// Enumerate the solutions of `f` under `env`, invoking `emit` for each
/// extension of `env` satisfying `f`. `env` is restored before returning.
fn solve(
    f: &Formula,
    db: &Database,
    env: &mut Env,
    emit: &mut dyn FnMut(&Env) -> Result<(), TuplewiseError>,
) -> Result<(), TuplewiseError> {
    match f {
        // Goal call on an edb atom: filter rows compatible with the
        // current bindings, binding the free positions.
        Formula::Atom(a) => {
            let Some(rel) = db.relation(a.pred) else {
                return Ok(()); // absent relation = empty
            };
            if rel.arity() != a.terms.len() {
                return Err(TuplewiseError::NotRanf(format!(
                    "arity mismatch on {}",
                    a.pred
                )));
            }
            'rows: for row in rel.iter() {
                let depth = env.len();
                for (i, &t) in a.terms.iter().enumerate() {
                    match term_value(env, t) {
                        Some(v) => {
                            if v != row[i] {
                                env.truncate(depth);
                                continue 'rows;
                            }
                        }
                        None => match t {
                            Term::Var(v) => env.push((v, row[i])),
                            Term::Const(_) => unreachable!("constants always have values"),
                        },
                    }
                }
                emit(env)?;
                env.truncate(depth);
            }
            Ok(())
        }
        Formula::Eq(s, t) => {
            match (term_value(env, *s), term_value(env, *t)) {
                (Some(a), Some(b)) => {
                    if a == b {
                        emit(env)?;
                    }
                    Ok(())
                }
                // `x = c` with x unbound: bind it (the q̲ singleton).
                (None, Some(v)) => {
                    if let Term::Var(x) = *s {
                        env.push((x, v));
                        emit(env)?;
                        env.pop();
                        Ok(())
                    } else {
                        unreachable!("unvalued term is a variable")
                    }
                }
                (Some(v), None) => {
                    if let Term::Var(x) = *t {
                        env.push((x, v));
                        emit(env)?;
                        env.pop();
                        Ok(())
                    } else {
                        unreachable!("unvalued term is a variable")
                    }
                }
                (None, None) => Err(TuplewiseError::NotRanf(format!(
                    "equality {f} with both sides unbound"
                ))),
            }
        }
        // Negation as failure — sound because RANF binds fv(G) first.
        Formula::Not(g) => {
            for v in free_vars(g) {
                if lookup(env, v).is_none() {
                    return Err(TuplewiseError::NotRanf(format!(
                        "negation ¬({g}) floundered: {v} unbound"
                    )));
                }
            }
            if !provable(g, db, env)? {
                emit(env)?;
            }
            Ok(())
        }
        // Nested-loop conjunction, left to right.
        Formula::And(fs) => {
            fn conj(
                fs: &[Formula],
                db: &Database,
                env: &mut Env,
                emit: &mut dyn FnMut(&Env) -> Result<(), TuplewiseError>,
            ) -> Result<(), TuplewiseError> {
                match fs.split_first() {
                    None => emit(env),
                    Some((head, rest)) => solve(head, db, env, &mut |env2| {
                        // `solve` hands us a &Env; re-borrow mutably via a
                        // fresh copy to continue the loop nest.
                        let mut env2 = env2.clone();
                        conj(rest, db, &mut env2, emit)
                    }),
                }
            }
            conj(fs, db, env, emit)
        }
        Formula::Or(fs) => {
            for g in fs {
                solve(g, db, env, emit)?;
            }
            Ok(())
        }
        // ∃y D: enumerate D, forget y (dedup happens in the caller's set).
        Formula::Exists(y, d) => {
            let depth = env.len();
            solve(d, db, env, &mut |env2| {
                // Strip any binding of y before emitting.
                let filtered: Env = env2.iter().filter(|(v, _)| *v != *y).copied().collect();
                emit(&filtered)
            })?;
            env.truncate(depth);
            Ok(())
        }
        Formula::Forall(..) => Err(TuplewiseError::NotRanf(
            "universal quantifier in RANF input".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile_with, CompileOptions};
    use rc_formula::parse;
    use rc_relalg::eval;
    use rc_relalg::EvalCtx;

    fn db() -> Database {
        Database::from_facts("P(1)\nP(2)\nQ(1, 2)\nQ(2, 3)\nQ(3, 3)\nR(2, 1)\nR(3, 2)\nS(1, 2, 3)")
            .unwrap()
    }

    fn check(s: &str) {
        let f = parse(s).unwrap();
        let c = compile_with(&f, CompileOptions::default()).unwrap();
        let algebra = eval(&c.expr, &db(), &mut EvalCtx::default()).unwrap();
        let tuples = eval_tuplewise(&c.ranf_form, &db()).unwrap();
        // Column orders may differ; compare through the algebra's order.
        let ranf_cols = free_vars(&c.ranf_form);
        assert_eq!(ranf_cols.len(), c.columns.len(), "{s}");
        // Rebuild the tuplewise answer in the compiled column order.
        let perm: Vec<usize> = c
            .columns
            .iter()
            .map(|v| ranf_cols.iter().position(|w| w == v).unwrap())
            .collect();
        let mut reordered = Relation::new(c.columns.len());
        for t in tuples.iter() {
            reordered.insert(perm.iter().map(|&i| t[i]).collect());
        }
        assert_eq!(reordered, algebra, "{s}");
    }

    #[test]
    fn agrees_with_algebra_on_paper_shapes() {
        check("P(x) & Q(x, y)");
        check("Q(x, y) & (P(x) | R(y, y))");
        check("P(x) & !exists y. (Q(x, y) & !R(y, x))");
        check("Q(x, y) & forall z. (!R(x, z) | S(y, z, z))");
        check("exists y. (P(x) & Q(x, y))");
        check("P(x) & x != 2");
        check("P(x) & y = 3");
        check("!exists x. (P(x) & Q(x, x))");
    }

    #[test]
    fn floundering_is_detected_not_misanswered() {
        // ¬P(x) with x unbound: a non-RANF input must error, never guess.
        let f = parse("!P(x)").unwrap();
        assert!(matches!(
            eval_tuplewise(&f, &db()),
            Err(TuplewiseError::NotRanf(_))
        ));
        // Likewise x = y with both unbound.
        let g = parse("x = y").unwrap();
        assert!(eval_tuplewise(&g, &db()).is_err());
    }

    #[test]
    fn closed_queries_give_nullary_relations() {
        let f = parse("exists x. (P(x) & Q(x, x))").unwrap();
        let c = compile_with(&f, CompileOptions::default()).unwrap();
        let r = eval_tuplewise(&c.ranf_form, &db()).unwrap();
        assert_eq!(r.as_bool(), Some(false)); // no P(x) with Q(x,x)
        let g = parse("exists x, y. (P(x) & Q(x, y))").unwrap();
        let c2 = compile_with(&g, CompileOptions::default()).unwrap();
        assert_eq!(
            eval_tuplewise(&c2.ranf_form, &db()).unwrap().as_bool(),
            Some(true)
        );
    }

    #[test]
    fn random_allowed_formulas_agree_with_algebra() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rc_formula::generate::{random_allowed_formula, GenConfig};
        use rc_formula::vars::rectified;
        use rc_formula::{Schema, Value, Var};
        let cfg = GenConfig::default();
        let mut checked = 0;
        for seed in 0..60u64 {
            let f = rectified(&random_allowed_formula(
                &cfg,
                &[Var::new("x")],
                &mut StdRng::seed_from_u64(seed),
                3,
            ));
            let Ok(c) = compile_with(&f, CompileOptions::default()) else {
                continue;
            };
            let schema = Schema::infer(&f).unwrap();
            let domain: Vec<Value> = (0..5).map(Value::int).collect();
            let dbr = Database::random(&schema, &domain, 6, &mut StdRng::seed_from_u64(seed));
            let algebra = eval(&c.expr, &dbr, &mut EvalCtx::default()).unwrap();
            let tw = eval_tuplewise(&c.ranf_form, &dbr).unwrap();
            let ranf_cols = free_vars(&c.ranf_form);
            let perm: Vec<usize> = c
                .columns
                .iter()
                .map(|v| ranf_cols.iter().position(|w| w == v).unwrap())
                .collect();
            let mut reordered = Relation::new(c.columns.len());
            for t in tw.iter() {
                reordered.insert(perm.iter().map(|&i| t[i]).collect());
            }
            assert_eq!(
                reordered, algebra,
                "seed {seed}: {f}\nranf: {}",
                c.ranf_form
            );
            checked += 1;
        }
        assert!(checked >= 40, "too few cases: {checked}");
    }
}

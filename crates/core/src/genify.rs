//! Algorithm 8.1 — `genify`: transform an evaluable formula into an
//! equivalent **allowed** formula (Thm. 8.4).
//!
//! The driver first replaces `∀y` by `¬∃y¬` throughout (conservative, by
//! Cor. 6.4) and checks `gen(x, F)` for every free `x`; the recursion then
//! repairs each subformula `∃x A` where `gen(x, A)` fails:
//!
//! * if `con(x, A, G)` fails too, the formula is **not evaluable** — error;
//! * if `G = ⊥` (x not free in A), the vacuous quantifier is dropped;
//! * otherwise `∃x A` is rewritten to
//!   `∃x (∃*G(x) ∧ A(x)) ∨ R` (step 1d), where `∃*G(x)` is the generator
//!   disjunction with every variable but `x` existentially quantified
//!   (Def. 8.1), and the *remainder* `R` is `A` with every occurrence of a
//!   generator atom replaced by `false`, truth-value simplified (Lemma 8.3:
//!   `R ≡ ¬∃*G(x) ∧ A(x)`).
//!
//! ### Occurrence replacement by syntactic equality
//!
//! The paper replaces the *occurrences* `P₁, …, P_k` collected in `G`. We
//! replace by syntactic atom equality instead, which may also hit identical
//! twin atoms outside `G`. On rectified formulas this is sound: syntactically
//! identical atoms have identical binding status, and under `¬∃*G(x)` every
//! instance of such an atom is false for all assignments extending the
//! current one, so replacing the twins by `false` preserves equivalence by
//! the same argument as Lemma 8.3.
//!
//! ### Entries
//!
//! [`stage`] is the compiler's entry: it runs under a [`CompileCtx`]
//! (budget, conjunct choice, stage tracer) and records the genify stage
//! span. [`genify`] is the paper-named one-argument form, for the oracles
//! and benches.

use crate::classes::SafetyViolation;
use crate::gencon::gen;
use crate::generator::{con_generator_with, ConGen, ConjunctChoice};
use crate::pipeline::{CompileCtx, CompileOptions};
use rc_formula::ast::Formula;
use rc_formula::pushnot::eliminate_forall;
use rc_formula::simplify::replace_atoms_by_false;
use rc_formula::term::{Term, Var};
use rc_formula::vars::{free_vars, is_free, rectified, rename_bound_fresh, substitute, FreshVars};
use rc_relalg::govern::{Budget, BudgetExceeded, Stage};
use rc_relalg::StageTracer;
use std::fmt;

/// Failure of `genify`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenifyError {
    /// The input formula is not evaluable; carries the point of failure.
    NotEvaluable(SafetyViolation),
    /// A resource bound tripped (node blowup, deadline, or cancellation).
    Budget(BudgetExceeded),
}

impl fmt::Display for GenifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenifyError::NotEvaluable(v) => write!(f, "formula is not evaluable: {v}"),
            GenifyError::Budget(b) => write!(f, "{b}"),
        }
    }
}

impl std::error::Error for GenifyError {}

impl From<BudgetExceeded> for GenifyError {
    fn from(b: BudgetExceeded) -> Self {
        GenifyError::Budget(b)
    }
}

/// Transform `f` (any evaluable formula) into an equivalent allowed formula
/// with no universal quantifiers — [`stage`] under default options.
pub fn genify(f: &Formula) -> Result<Formula, GenifyError> {
    stage(
        f,
        &mut CompileCtx::new(&CompileOptions::default(), None, &mut StageTracer::off()),
    )
}

/// The genify stage under `cx`: resolves the Fig. 5 conjunction
/// nondeterminism by `cx.opts.generator_choice` (the paper's noted
/// optimization opportunity; see the `ablation_table` experiment). The
/// step-1d rewrite duplicates subformulas, so the rebuilt formula is
/// checked against the budget's node cap, and every `∃`-repair honors the
/// deadline and cancellation; trips are attributed to [`Stage::Genify`].
/// The stage span's detail counts the step-1d repairs (`repairs=0` means
/// the input was already allowed up to `∀`-elimination).
pub fn stage(f: &Formula, cx: &mut CompileCtx<'_>) -> Result<Formula, GenifyError> {
    cx.begin(Stage::Genify, || f.node_count());
    let budget = &cx.opts.budget;
    budget.checkpoint(Stage::Genify)?;
    let f = rectified(f);
    for x in free_vars(&f) {
        if !gen(x, &f) {
            return Err(GenifyError::NotEvaluable(
                crate::classes::free_var_violation(x, &f),
            ));
        }
    }
    let f = eliminate_forall(&f);
    let mut fresh = FreshVars::for_formula(&f);
    let mut repairs = 0;
    let out = go(
        &f,
        &mut fresh,
        cx.opts.generator_choice,
        budget,
        &mut repairs,
    )?;
    budget.checkpoint(Stage::Genify)?;
    cx.end(|| out.node_count(), || format!("repairs={repairs}"));
    Ok(out)
}

/// `∃*G(x)` (Def. 8.1): the disjunction of the generator atoms with every
/// variable except `x` existentially quantified under fresh names.
fn exists_star(g_atoms: &[Formula], x: Var, fresh: &mut FreshVars) -> Formula {
    let mut g = Formula::or(g_atoms.to_vec());
    let others: Vec<Var> = free_vars(&g).into_iter().filter(|&v| v != x).collect();
    for v in others {
        let v2 = fresh.fresh(v);
        g = substitute(&g, v, Term::Var(v2));
        g = Formula::exists(v2, g);
    }
    g
}

fn go(
    f: &Formula,
    fresh: &mut FreshVars,
    choice: ConjunctChoice,
    budget: &Budget,
    repairs: &mut u64,
) -> Result<Formula, GenifyError> {
    match f {
        Formula::Atom(_) | Formula::Eq(..) => Ok(f.clone()),
        Formula::Not(g) => Ok(Formula::not(go(g, fresh, choice, budget, repairs)?)),
        Formula::And(fs) => Ok(Formula::And(
            fs.iter()
                .map(|g| go(g, fresh, choice, budget, repairs))
                .collect::<Result<_, _>>()?,
        )),
        Formula::Or(fs) => Ok(Formula::Or(
            fs.iter()
                .map(|g| go(g, fresh, choice, budget, repairs))
                .collect::<Result<_, _>>()?,
        )),
        Formula::Exists(x, a) => {
            budget.checkpoint(Stage::Genify)?;
            // Step 1a: already generated — keep, recurse into the body.
            if gen(*x, a) {
                return Ok(Formula::Exists(
                    *x,
                    Box::new(go(a, fresh, choice, budget, repairs)?),
                ));
            }
            match con_generator_with(*x, a, choice) {
                // Step 1b: not evaluable.
                None => Err(GenifyError::NotEvaluable(
                    SafetyViolation::ExistsViolation {
                        var: *x,
                        subformula: f.clone(),
                    },
                )),
                // Step 1c: vacuous quantifier.
                Some(ConGen::Bottom) => go(a, fresh, choice, budget, repairs),
                // Step 1d: split into generated part and remainder.
                Some(ConGen::Atoms(g_atoms)) => {
                    *repairs += 1;
                    let r = replace_atoms_by_false(a, &g_atoms);
                    if is_free(*x, &r) {
                        // Lemma 8.2(2) fails ⇒ the input was not evaluable
                        // after all (a deeper subformula is at fault).
                        return Err(GenifyError::NotEvaluable(
                            SafetyViolation::ExistsViolation {
                                var: *x,
                                subformula: f.clone(),
                            },
                        ));
                    }
                    // The remainder duplicates pieces of A: its quantified
                    // variables get new names (footnote to Alg. 8.1).
                    let r = rename_bound_fresh(&r, fresh);
                    let star = exists_star(&g_atoms, *x, fresh);
                    let generated = Formula::exists(*x, Formula::and2(star, (**a).clone()));
                    // A false remainder (every clause of A mentioned a
                    // generator atom) leaves just the generated part.
                    let f1 = if r.is_false() {
                        generated
                    } else {
                        Formula::or2(generated, r)
                    };
                    // The rewrite duplicated pieces of A — the point where
                    // genify can blow up; enforce the node cap here.
                    budget.check_nodes(Stage::Genify, f1.node_count() as u64)?;
                    // "Continue at (3)": process the rebuilt formula. The
                    // new ∃x node now satisfies gen (Lemma 8.2(1)), so this
                    // terminates.
                    go(&f1, fresh, choice, budget, repairs)
                }
            }
        }
        Formula::Forall(..) => unreachable!("∀ was eliminated before the recursion"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{is_allowed, is_evaluable};
    use crate::interp::FiniteInterp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rc_formula::generate::GenConfig;
    use rc_formula::parse;
    use rc_formula::{Schema, Value};
    use rc_relalg::Database;

    /// Check logical equivalence of two formulas by brute-force evaluation
    /// over several random interpretations.
    fn equivalent(a: &Formula, b: &Formula, seeds: std::ops::Range<u64>) -> bool {
        let mut schema = Schema::infer(a).unwrap();
        for (p, ar) in Schema::infer(b).unwrap().predicates() {
            schema.declare(p, ar);
        }
        let mut cols = free_vars(a);
        for v in free_vars(b) {
            if !cols.contains(&v) {
                cols.push(v);
            }
        }
        let domain: Vec<Value> = (1..=4).map(Value::int).collect();
        for seed in seeds {
            let db = Database::random(&schema, &domain, 6, &mut StdRng::seed_from_u64(seed));
            let interp = FiniteInterp::new(&db, domain.clone());
            if interp.answers(a, &cols) != interp.answers(b, &cols) {
                return false;
            }
        }
        true
    }

    #[test]
    fn curable_disjunction_becomes_allowed() {
        // ∃y (P(x) ∨ Q(x,y))  ⇒  P(x) ∨ ∃y Q(x,y) (up to the genify shape).
        let f = parse("exists y. (P(x) | Q(x, y))").unwrap();
        let g = genify(&f).unwrap();
        assert!(is_allowed(&g), "not allowed: {g}");
        assert!(equivalent(&f, &g, 0..8), "not equivalent: {f} vs {g}");
    }

    #[test]
    fn example_52_f_genifies() {
        let f = parse("exists x. ((P(x, y) | Q(y)) & !R(y))").unwrap();
        assert!(is_evaluable(&f));
        assert!(!is_allowed(&f));
        let g = genify(&f).unwrap();
        assert!(is_allowed(&g), "not allowed: {g}");
        assert!(equivalent(&f, &g, 0..8), "not equivalent: {f} vs {g}");
    }

    #[test]
    fn example_52_g_supplier_query_genifies() {
        // ∃y ∀x (¬P(x) ∨ S(y,x)).
        let f = parse("exists y. forall x. (!P(x) | S(y, x))").unwrap();
        let g = genify(&f).unwrap();
        assert!(is_allowed(&g), "not allowed: {g}");
        assert!(equivalent(&f, &g, 0..8), "not equivalent: {f} vs {g}");
        assert!(!g.has_forall());
    }

    #[test]
    fn not_evaluable_reports_error() {
        assert!(genify(&parse("!P(x)").unwrap()).is_err());
        assert!(genify(&parse("exists y. (P(x) | Q(y))").unwrap()).is_err());
        assert!(genify(&parse("P(x) | Q(y)").unwrap()).is_err());
    }

    #[test]
    fn vacuous_quantifier_dropped() {
        let f = parse("exists y. P(x)").unwrap();
        let g = genify(&f).unwrap();
        assert_eq!(g, parse("P(x)").unwrap());
    }

    #[test]
    fn allowed_input_stays_allowed() {
        let f = parse("P(x, y) & (Q(x) | R(y))").unwrap();
        let g = genify(&f).unwrap();
        assert!(is_allowed(&g));
        assert!(equivalent(&f, &g, 0..6));
    }

    #[test]
    fn default_value_query_genifies() {
        // Sec. 5.3: P(x) ∧ (S(y,x) ∨ (∀z ¬S(z,x) ∧ y = 'none')).
        let f = parse("P(x) & (S(y, x) | (forall z. !S(z, x)) & y = 'none')").unwrap();
        assert!(is_evaluable(&f));
        let g = genify(&f).unwrap();
        assert!(is_allowed(&g), "not allowed: {g}");
        assert!(equivalent(&f, &g, 0..8), "not equivalent: {f} vs {g}");
    }

    #[test]
    fn random_evaluable_formulas_genify_to_equivalent_allowed() {
        use rc_formula::generate::random_allowed_formula;
        use rc_formula::transform::{applicable_rewrites, apply_at, CONSERVATIVE_RULES};
        let cfg = GenConfig::default();
        let mut checked = 0;
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Start from an allowed formula and walk it through random
            // conservative transformations: stays evaluable (Thm. 6.2) but
            // often stops being allowed.
            let mut f = random_allowed_formula(&cfg, &[Var::new("x")], &mut rng, 3);
            f = rectified(&f);
            let mut fresh = FreshVars::for_formula(&f);
            for _ in 0..4 {
                let apps = applicable_rewrites(&f, CONSERVATIVE_RULES);
                if apps.is_empty() {
                    break;
                }
                use rand::seq::SliceRandom;
                let (path, rw) = apps.choose(&mut rng).unwrap().clone();
                if let Some(next) = apply_at(rw, &f, &path, &mut fresh) {
                    if next.node_count() < 120 {
                        f = next;
                    }
                }
            }
            let f = rectified(&f);
            if !is_evaluable(&f) {
                continue; // conservative rewrites preserve evaluability; skip defensively
            }
            let g = genify(&f).expect("evaluable must genify");
            assert!(is_allowed(&g), "seed {seed}: output not allowed: {g}");
            assert!(
                equivalent(&f, &g, seed * 31..seed * 31 + 3),
                "seed {seed}: {f}  vs  {g}"
            );
            checked += 1;
        }
        assert!(checked >= 40, "too few cases exercised: {checked}");
    }
}

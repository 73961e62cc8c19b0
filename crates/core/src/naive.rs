//! The naive QUEL-style translation from Sec. 2's "real life" example.
//!
//! ```text
//! select R1.name  from R1, R2, R3
//! where  R1.name = R2.name  or  R1.name = R3.name
//! ```
//!
//! QUEL semantics build the cross product of *every* relation in the
//! `from` list, apply the `where` selection, and project — so when `R3` is
//! empty the product is empty and the answer is null, even though `R1 ⋈ R2`
//! has matches. The paper's pipeline instead treats the query as the
//! relational calculus formula
//!
//! ```text
//! ∃a ∃b ∃c ∃d (R1(x, a) ∧ R2(x, b) ) ∨ ∃… (R1(x, c) ∧ R3(x, d))
//! ```
//!
//! (modulo the disjunction's scope) and returns the matches. This module
//! expresses the naive semantics so the experiment harness can demonstrate
//! the anomaly side by side.

use rc_formula::{Symbol, Var};
use rc_relalg::{RaExpr, SelPred};

/// A QUEL-style query: `select <project> from <tables> where <condition>`.
///
/// Each table is scanned with its own column variables (all distinct, so
/// the `from` list is a pure cross product, as QUEL does); the condition is
/// a positive boolean combination of column equalities.
#[derive(Clone, Debug)]
pub struct QuelQuery {
    /// `from`: table name with one fresh column variable per position.
    pub tables: Vec<(Symbol, Vec<Var>)>,
    /// `where`: the selection condition.
    pub condition: Condition,
    /// `select`: output columns.
    pub project: Vec<Var>,
}

/// A positive condition over column variables.
#[derive(Clone, Debug)]
pub enum Condition {
    /// `col = col`.
    Eq(Var, Var),
    /// Conjunction.
    And(Vec<Condition>),
    /// Disjunction.
    Or(Vec<Condition>),
}

impl QuelQuery {
    /// Translate with QUEL semantics: selection over the full cross
    /// product of the `from` list. Disjunctive conditions become unions of
    /// selections over the *same* product — faithful to "σ_{c₁ ∨ c₂}
    /// (R1 × R2 × R3)".
    pub fn translate_naive(&self) -> RaExpr {
        let mut product: Option<RaExpr> = None;
        for (pred, cols) in &self.tables {
            let scan = RaExpr::Scan {
                pred: *pred,
                pattern: cols.iter().map(|&v| rc_formula::Term::Var(v)).collect(),
            };
            product = Some(match product {
                None => scan,
                Some(p) => RaExpr::join(p, scan), // disjoint columns ⇒ cross product
            });
        }
        let product = product.expect("at least one table");
        let selected = apply_condition(product, &self.condition);
        RaExpr::project(selected, self.project.clone())
    }
}

fn apply_condition(input: RaExpr, c: &Condition) -> RaExpr {
    match c {
        Condition::Eq(a, b) => RaExpr::select(input, SelPred::EqCols(*a, *b)),
        Condition::And(cs) => cs.iter().fold(input, apply_condition_ref),
        Condition::Or(cs) => {
            let mut acc: Option<RaExpr> = None;
            for sub in cs {
                let branch = apply_condition(input.clone(), sub);
                acc = Some(match acc {
                    None => branch,
                    Some(a) => RaExpr::union(a, branch),
                });
            }
            acc.unwrap_or(input)
        }
    }
}

fn apply_condition_ref(input: RaExpr, c: &Condition) -> RaExpr {
    apply_condition(input, c)
}

/// The Sec. 2 example, parameterized over binary tables
/// `R1(name, a) , R2(name, b), R3(name, c)`: naive translation.
pub fn section2_naive() -> QuelQuery {
    let v = |n: &str| Var::new(n);
    QuelQuery {
        tables: vec![
            (Symbol::intern("R1"), vec![v("n1"), v("a1")]),
            (Symbol::intern("R2"), vec![v("n2"), v("a2")]),
            (Symbol::intern("R3"), vec![v("n3"), v("a3")]),
        ],
        condition: Condition::Or(vec![
            Condition::Eq(v("n1"), v("n2")),
            Condition::Eq(v("n1"), v("n3")),
        ]),
        project: vec![v("n1")],
    }
}

/// The same query as the relational calculus formula the user *meant*:
/// `∃a (R1(x, a)) ∧ (∃b R2(x, b) ∨ ∃c R3(x, c))` — names from R1 that
/// match R2 or match R3.
pub fn section2_formula() -> rc_formula::Formula {
    rc_formula::parse("exists a. R1(x, a) & (exists b. R2(x, b) | exists c. R3(x, c))")
        .expect("static formula parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genify::genify;
    use crate::ranf::ranf;
    use crate::translate::translate;
    use rc_formula::Value;
    use rc_relalg::{eval, Database, EvalCtx};

    fn db(with_r3: bool) -> Database {
        let mut facts =
            String::from("R1('alice', 1)\nR1('bob', 2)\nR2('alice', 10)\nR2('carol', 11)\n");
        if with_r3 {
            facts.push_str("R3('bob', 20)\n");
        }
        let mut db = Database::from_facts(&facts).unwrap();
        db.declare("R3", 2); // R3 exists but may be empty
        db
    }

    #[test]
    fn naive_translation_goes_null_when_r3_empty() {
        let q = section2_naive();
        let e = q.translate_naive();
        // With R3 empty, the cross product is empty: the user's surprise.
        let rel = eval(&e, &db(false), &mut EvalCtx::default()).unwrap();
        assert!(rel.is_empty(), "QUEL semantics must return null here");
        // With R3 nonempty, matches appear.
        let rel2 = eval(&e, &db(true), &mut EvalCtx::default()).unwrap();
        assert!(rel2.contains(&[Value::str("alice")]));
        assert!(rel2.contains(&[Value::str("bob")]));
    }

    #[test]
    fn correct_translation_finds_matches_regardless() {
        let f = section2_formula();
        let g = genify(&f).unwrap();
        let r = ranf(&g).unwrap();
        let e = translate(&r).unwrap();
        let rel = eval(&e, &db(false), &mut EvalCtx::default()).unwrap();
        // R1 ⋈ R2 matches survive even with R3 empty.
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&[Value::str("alice")]));
        let rel2 = eval(&e, &db(true), &mut EvalCtx::default()).unwrap();
        assert_eq!(rel2.len(), 2);
    }

    #[test]
    fn with_all_tables_populated_both_agree() {
        let q = section2_naive();
        let naive = eval(&q.translate_naive(), &db(true), &mut EvalCtx::default()).unwrap();
        let f = section2_formula();
        let e = translate(&ranf(&genify(&f).unwrap()).unwrap()).unwrap();
        let ours = eval(&e, &db(true), &mut EvalCtx::default()).unwrap();
        assert_eq!(naive, ours);
    }
}

//! # rc-safety
//!
//! Safety analysis and correct translation of relational calculus formulas
//! — a full implementation of Van Gelder & Topor, *Safety and Correct
//! Translation of Relational Calculus Formulas* (PODS 1987).
//!
//! ## The problem
//!
//! Once disjunction, negation and universal quantification are admitted,
//! not every relational calculus query has a sensible ("domain
//! independent") answer: `¬P(x)` holds for arbitrary values outside the
//! database, and `P(x) ∨ Q(y)` pairs every `P`-value with arbitrary `y`.
//! Domain independence is undecidable, so practical systems need decidable
//! subclasses — and *correct* translations into relational algebra that
//! avoid materializing the `Dom` relation of all constants.
//!
//! ## What this crate provides
//!
//! | Paper artifact | Module |
//! |---|---|
//! | `gen`/`con` relations (Fig. 1) | [`gencon`] |
//! | generator-extended rules (Fig. 5) | [`generator`] |
//! | evaluable / allowed classes (Defs. 5.2, 5.3), range restriction (Sec. 7) | [`classes`] |
//! | `genify` — evaluable → allowed (Alg. 8.1, Thm. 8.4) | [`genify`](mod@genify) |
//! | RANF + `ranf` — allowed → RANF (Defs. 9.1/9.2, Alg. 9.1, Thm. 9.4) | [`ranf`](mod@ranf) |
//! | RANF → relational algebra, Dom-free (Sec. 9.3, Thm. 9.5) | [`translate`](mod@translate) |
//! | equality reduction, wide-sense evaluability (Appendix A) | [`eqreduce`] |
//! | definiteness / domain independence checks (Sec. 10) | [`domind`] |
//! | repetition-free census — evaluable ⇔ definite (Thm. 10.5) | [`norepeat`] |
//! | `Dom`-relation and brute-force baselines (Secs. 2–3) | [`dom_baseline`] |
//! | the QUEL disjunction anomaly (Sec. 2) | [`naive`] |
//! | every formula appearing in the paper | [`corpus`] |
//! | end-to-end pipeline: classify → genify → ranf → translate → eval, one `serve` entry | [`pipeline`] |
//! | safe pairs for arbitrary formulas | [`anyrc`] |
//! | oracle: finite-interpretation evaluation | [`interp`] |
//! | geometric interpretation of `con` (Fig. 2) | [`geometry`] |
//!
//! ## Quick start
//!
//! ```
//! use rc_relalg::{Database, NoCache};
//! use rc_safety::pipeline::{serve, CompileOptions, Request};
//!
//! let db = Database::from_facts(
//!     "Part('bolt')\nPart('nut')\nSupplies('acme', 'bolt')\nSupplies('acme', 'nut')",
//! ).unwrap();
//! let query = |text| serve(&Request::new(text, CompileOptions::default()), &db, NoCache);
//!
//! // "Does some supplier supply all parts?" — Example 5.2's G.
//! let yes = query("exists y. forall x. (!Part(x) | Supplies(y, x))").unwrap();
//! assert_eq!(yes.relation.as_bool(), Some(true));
//!
//! // Unsafe queries are rejected, not misanswered.
//! assert!(query("!Part(x)").is_err());
//! ```

#![deny(missing_docs)]

pub mod anyrc;
pub mod classes;
pub mod corpus;
pub mod dom_baseline;
pub mod domind;
pub mod eqreduce;
pub mod gencon;
pub mod generator;
pub mod genify;
pub mod geometry;
pub mod interp;
pub mod naive;
pub mod norepeat;
pub mod pipeline;
pub mod ranf;
pub mod translate;

pub use anyrc::AnyAnswer;
pub use classes::{check_allowed, check_evaluable, is_allowed, is_evaluable};
pub use eqreduce::{equality_reduce, is_wide_sense_evaluable};
pub use gencon::{con, con_not, gen, gen_not};
pub use genify::genify;
pub use pipeline::{
    classify, serve, CompileOptions, Compiled, Mode, PipelineError, Request, SafetyClass, Served,
};
pub use ranf::{is_ranf, ranf};
pub use translate::translate;
pub mod tuplewise;

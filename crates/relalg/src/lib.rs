//! # rc-relalg
//!
//! In-memory relational algebra engine — the evaluation substrate for the
//! `rcsafe` reproduction of Van Gelder & Topor (PODS 1987).
//!
//! The paper translates *allowed* relational-calculus formulas into algebra
//! expressions built from scans, natural joins, unions, projections,
//! selections, the generalized set difference `diff` (anti-join, Def. 9.3),
//! on-the-fly constant singletons (`x = c`, Sec. 5.3) and a column
//! duplication primitive (Appendix A). This crate implements exactly that
//! operator set over set-semantics relations with variable-named columns:
//!
//! * [`relation::Relation`], [`database::Database`] — storage;
//! * [`expr::RaExpr`] — the expression tree, with structural validation;
//! * [`eval`](mod@eval) — hash-join/anti-join evaluation, partition-parallel
//!   above a size threshold: one [`eval::eval`] entry taking an
//!   [`eval::EvalCtx`] that carries statistics, budget, tracer and the
//!   run's memo, which computes each shared subplan once;
//! * [`plan`] — hash-consing expressions into DAGs with physically shared
//!   subtrees ([`plan::intern`]) and structural plan hashes;
//! * [`cache`] — cross-run plan/result cache keyed by (plan hash,
//!   [`database::Database`] version), invalidated by any mutation, and the
//!   [`cache::PlanStore`] surface the serving path runs over;
//! * [`ivm`](mod@ivm) — incremental view maintenance: delta journals and
//!   per-operator Δ-rules that *refresh* cached results in O(|Δ|·fanout)
//!   instead of discarding them on mutation;
//! * [`govern`] — resource budgets, cooperative cancellation, fault
//!   injection for the whole pipeline (shared with `rc-core`'s stages);
//! * [`trace`] — opt-in span tracing of stages and operators (cardinalities,
//!   pre-dedup row counts, wall times) hooked at the same operator
//!   boundaries the governor checkpoints;
//! * [`stats`] — per-relation statistics, cardinality/cost estimation, and
//!   the trace-fed feedback store behind the cost-based planner;
//! * [`optimize::simplify`] — semantics-preserving cleanup — and
//!   [`optimize::optimize`], the cost-based pass on top of it
//!   (join reordering, cost-gated projection placement, factoring a
//!   shared join leg or `diff` operand out of a union);
//! * display impls that mimic the paper's `π/σ/⋈/∪/diff` notation;
//! * [`io`] — fact-text and TSV import/export.

#![deny(missing_docs)]

pub mod baseline;
pub mod cache;
pub mod database;
pub mod display;
pub mod eval;
pub mod expr;
pub mod govern;
pub mod io;
pub mod ivm;
pub mod optimize;
pub mod plan;
pub mod relation;
pub mod stats;
pub mod trace;

pub use baseline::eval_baseline;
pub use cache::{CacheStats, NoCache, PlanCache, PlanStore, SharedPlanCache, CACHE_SHARDS};
pub use database::Database;
pub use eval::{eval, EvalCtx, EvalError, EvalStats};
pub use expr::{RaExpr, SelPred};
pub use govern::{Budget, BudgetExceeded, CancelHandle, FaultInjector, Governor, Resource, Stage};
pub use ivm::{
    refresh, worth_refreshing, Delta, DeltaLog, MaintainedView, RefreshError, TableDelta,
};
pub use optimize::{optimize, optimize_priced, simplify};
pub use plan::{intern, plan_hash, InternStats, Interner};
pub use relation::{partition_count, tuple, Relation, RelationBuilder, Tuple, MIN_PARTITION_ROWS};
pub use stats::{harvest_actuals, CardEst, Estimator, TableStats};
pub use trace::{IvmNote, OpSpan, PipelineTrace, StageSpan, StageTracer, Tracer};

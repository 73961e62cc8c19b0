//! Algebraic simplification of expressions.
//!
//! The paper notes that "many simplifications of the relational algebra
//! expressions produced by the procedures of this section can be made during
//! their construction" (Sec. 9.3). The translation in `rc-safety` emits
//! straightforward expressions; this pass cleans them up:
//!
//! * cascade projections; drop identity projections;
//! * `⊤ ⋈ e → e` and `e ⋈ ⊤ → e`; `e ⋈ e → e` (set semantics — guarded by
//!   a column-set equality check, `join_dedup_applies`);
//! * propagate empty relations through join/select/project/diff/union;
//! * `e diff ∅ → e`;
//! * deduplicate syntactically equal union branches;
//! * push selections below joins (into the side holding their columns),
//!   through unions, and beneath projections that keep every predicate
//!   column;
//! * push projections through unions.
//!
//! On top of `simplify`, [`optimize`] runs the **cost-based pass**: using
//! the per-database statistics and estimator in [`crate::stats`], it
//! reorders flattened join trees (dynamic programming over subsets up to 8
//! relations, a greedy pairing above) and pushes projections beneath joins
//! — each rewrite applied **iff the estimated cost strictly drops**, which
//! also makes the pass idempotent: re-optimizing an optimized plan is a
//! no-op (pinned by `tests/prop_optimizer.rs`). Selection pushdown stays
//! unconditional in `simplify` because it is cost-monotone under the
//! model: a selection never grows rows, so filtering earlier can only
//! shrink every operator above it.
//!
//! The cost pass also **factors a shared leg out of a union**, under the
//! same strict cost gate:
//!
//! * `(A ⋈ C) ∪ (B ⋈ C) → (A ∪ B) ⋈ C`, with the common-left form
//!   `(C ⋈ A) ∪ (C ⋈ B)` and the two commuted forms, when
//!   `cols(A) = cols(B)` as sets;
//! * `(A − W) ∪ (B − W) → (A ∪ B) − W`, when `cols(A) = cols(B)` as sets.
//!
//! The shared leg is scanned, hashed and probed once instead of once per
//! branch. Both rewrites run once per union node, bottom-up, with no
//! search: the legs are compared by pointer first (a cloned subplan shares
//! them physically) and by structural equality second, which stops at the
//! first differing node, and the column sets and prices are only computed
//! for a pair that matches.
//!
//! Join reordering changes the natural join's *output column order* (left
//! columns first); the pass restores the original order with a projection,
//! so a reordered plan is column-for-column interchangeable with the
//! original — parents (unions, diffs, the answer projection) never see a
//! difference. Factoring needs no such projection: the shared leg keeps the
//! side it had in the union's *left* branch, and `A ∪ B` presents `A`'s
//! column order, so the factored plan's columns are the left branch's —
//! which are the union's.
//!
//! Simplification is purely *plan-shaping*: it runs before any execution
//! policy is chosen, so it neither sees nor influences how the kernels
//! later partition an operator's data (`crate::eval`'s partition plan is
//! a function of runtime cardinalities and the [`crate::Budget`], not of
//! plan shape). Rewrites only have to preserve the relation — partition
//! invisibility then guarantees the row order too.
//!
//! ## Selection pushdown around `Diff` — soundness audit
//!
//! For the generalized difference `A diff B` the **only** sound pushdown is
//! into the *left* operand: `σ(A diff B) = σ(A) diff B`, because `diff`
//! keeps a subset of `A`'s rows and the filter commutes with "keep rows
//! whose projection has no partner in B". Pushing the predicate into the
//! *right* side instead — `A diff σ(B)` — is **unsound**: shrinking `B`
//! can only *grow* the difference, so rows that σ would have rejected (or
//! rows whose partners σ removed from `B`) leak into the output. Concretely
//! with `A = {1, 2}`, `B = {2}` and `σ = (x ≠ 2)`:
//! `σ(A − B) = {1}` but `A − σ(B) = A − ∅ = {1, 2}`. `push_select`
//! therefore never touches the right operand of a `Diff`; regression tests
//! below and the Diff-heavy property suite in `tests/prop_relalg.rs` pin
//! this.
//!
//! ## Factoring a shared leg — soundness
//!
//! **Join over union.** The natural join distributes over union: a named
//! row is in `(A ∪ B) ⋈ C` iff it splits into a `C`-row and an
//! `(A ∪ B)`-row agreeing on the shared columns, iff it is in `A ⋈ C` or in
//! `B ⋈ C`. The side condition `cols(A) = cols(B)` makes `A ∪ B`
//! well-formed *and* pins both joins to the same shared-column set with
//! `C`, so "agreeing on the shared columns" means the same thing on both
//! sides of the equation. Without it the rewrite is not even well-typed:
//! with `cols(A) = {x, y}`, `cols(B) = {x}` and `cols(C) = {y}` both
//! branches have columns `{x, y}` but `A ∪ B` does not exist. The natural
//! join matches by column *name*, so operand order does not matter, which
//! covers the common-left and commuted forms.
//!
//! **Difference over union.** The generalized difference is a per-row
//! filter on its left operand: keep `t` iff `t`'s projection onto
//! `cols(W)` is absent from `W`. A per-row filter distributes over set
//! union, so `(A − W) ∪ (B − W) = (A ∪ B) − W`. `cols(A) = cols(B)` makes
//! `A ∪ B` well-formed, and `cols(W) ⊆ cols(A)` already holds because
//! `A − W` was valid. The right operand must be the *same* `W` in both
//! branches: `(A − W₁) ∪ (B − W₂)` has no factored form.
//!
//! Simplification is semantics-preserving; a property test in the workspace
//! integration suite evaluates optimized and raw expressions side by side.

use crate::database::Database;
use crate::expr::{RaExpr, SelPred};
use crate::stats::{CardEst, Estimator};
use rc_formula::fxhash::FxHashMap;
use rc_formula::Var;
use std::sync::Arc;

/// May `e ⋈ e → e` fire for these (already simplified) operands? Requires
/// syntactic equality **and** column-*sequence* equality. Syntactic
/// equality implies equal column order today, but the guard keeps the
/// rewrite locally auditable: if a future rewrite ever reorders one side's
/// children (changing its column order) without renaming it, the dedup
/// stays off rather than silently changing the output column order.
fn join_dedup_applies(l: &RaExpr, r: &RaExpr) -> bool {
    l == r && l.cols() == r.cols()
}

/// Simplify to a fixpoint (each rewrite strictly shrinks the tree, so one
/// bottom-up pass that re-simplifies rebuilt nodes suffices).
pub fn simplify(e: &RaExpr) -> RaExpr {
    match e {
        RaExpr::Scan { .. } | RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => {
            e.clone()
        }
        RaExpr::Join(l, r) => {
            let l = simplify(l);
            let r = simplify(r);
            if matches!(l, RaExpr::Unit) {
                return r;
            }
            if matches!(r, RaExpr::Unit) {
                return l;
            }
            // Join with an empty side is empty over the merged columns.
            if is_empty(&l) || is_empty(&r) {
                let cols = RaExpr::Join(Arc::new(l), Arc::new(r)).cols();
                return RaExpr::Empty { cols };
            }
            // Set semantics: joining an expression with itself on all
            // columns is the identity (column-set guard included).
            if join_dedup_applies(&l, &r) {
                return l;
            }
            RaExpr::Join(Arc::new(l), Arc::new(r))
        }
        RaExpr::Union(l, r) => {
            let l = simplify(l);
            let r = simplify(r);
            if is_empty(&l) {
                return align_union_result(r, &l);
            }
            if is_empty(&r) || l == r {
                return l;
            }
            RaExpr::Union(Arc::new(l), Arc::new(r))
        }
        RaExpr::Diff(l, r) => {
            let l = simplify(l);
            let r = simplify(r);
            if is_empty(&r) {
                return l;
            }
            if is_empty(&l) {
                return RaExpr::Empty { cols: l.cols() };
            }
            RaExpr::Diff(Arc::new(l), Arc::new(r))
        }
        RaExpr::Project { input, cols } => {
            let input = simplify(input);
            if input.cols() == *cols {
                return input;
            }
            if is_empty(&input) {
                return RaExpr::Empty { cols: cols.clone() };
            }
            // Cascade: π[c](π[d](e)) = π[c](e).
            if let RaExpr::Project { input: inner, .. } = input {
                return simplify(&RaExpr::Project {
                    input: inner,
                    cols: cols.clone(),
                });
            }
            // Push through union: π(a ∪ b) = π(a) ∪ π(b).
            if let RaExpr::Union(a, b) = input {
                return simplify(&RaExpr::Union(
                    Arc::new(RaExpr::Project {
                        input: a,
                        cols: cols.clone(),
                    }),
                    Arc::new(RaExpr::Project {
                        input: b,
                        cols: cols.clone(),
                    }),
                ));
            }
            RaExpr::Project {
                input: Arc::new(input),
                cols: cols.clone(),
            }
        }
        RaExpr::Select { input, pred } => {
            let input = simplify(input);
            if is_empty(&input) {
                return RaExpr::Empty { cols: input.cols() };
            }
            if let Some(pushed) = push_select(&input, *pred) {
                return pushed;
            }
            RaExpr::Select {
                input: Arc::new(input),
                pred: *pred,
            }
        }
        RaExpr::Duplicate { input, src, dst } => {
            let input = simplify(input);
            if is_empty(&input) {
                let mut cols = input.cols();
                cols.push(*dst);
                return RaExpr::Empty { cols };
            }
            RaExpr::Duplicate {
                input: Arc::new(input),
                src: *src,
                dst: *dst,
            }
        }
    }
}

fn is_empty(e: &RaExpr) -> bool {
    matches!(e, RaExpr::Empty { .. })
}

/// Try to push a selection below its input operator:
///
/// * `σ(a ⋈ b) → σ(a) ⋈ b` (or the right side) when one side holds every
///   selected column — shrinks join inputs;
/// * `σ(a ∪ b) → σ(a) ∪ σ(b)`;
/// * `σ(π[c](a)) → π[c](σ(a))` when every predicate column survives the
///   projection — selections emitted above the RANF translation's
///   projections keep sinking toward the scans;
/// * `σ(a diff b) → σ(a) diff b` — left side **only**; pushing into the
///   right side of a difference is unsound (`σ(A−B) ≠ A−σ(B)`, see the
///   module docs), even when every selected column lives in `b`'s columns.
fn push_select(input: &RaExpr, pred: SelPred) -> Option<RaExpr> {
    let need = pred.cols();
    match input {
        RaExpr::Project { input: inner, cols } if need.iter().all(|v| cols.contains(v)) => {
            Some(simplify(&RaExpr::Project {
                input: Arc::new(RaExpr::Select {
                    input: inner.clone(),
                    pred,
                }),
                cols: cols.clone(),
            }))
        }
        RaExpr::Join(l, r) => {
            if need.iter().all(|v| l.cols().contains(v)) {
                Some(simplify(&RaExpr::Join(
                    Arc::new(RaExpr::Select {
                        input: l.clone(),
                        pred,
                    }),
                    r.clone(),
                )))
            } else if need.iter().all(|v| r.cols().contains(v)) {
                Some(simplify(&RaExpr::Join(
                    l.clone(),
                    Arc::new(RaExpr::Select {
                        input: r.clone(),
                        pred,
                    }),
                )))
            } else {
                None
            }
        }
        RaExpr::Union(a, b) => Some(simplify(&RaExpr::Union(
            Arc::new(RaExpr::Select {
                input: a.clone(),
                pred,
            }),
            Arc::new(RaExpr::Select {
                input: b.clone(),
                pred,
            }),
        ))),
        RaExpr::Diff(a, b) => Some(simplify(&RaExpr::Diff(
            Arc::new(RaExpr::Select {
                input: a.clone(),
                pred,
            }),
            b.clone(),
        ))),
        _ => None,
    }
}

// ---------------------------------------------- cost-based optimization --

/// Cost-based optimization: [`simplify`], then statistics-driven join
/// reordering and projection placement over `db`'s [`crate::stats`]
/// estimates. Every cost-gated rewrite preserves the output columns *and
/// their order* (reordered joins are re-projected to the original order),
/// so the result is interchangeable with `simplify(e)` — same relation,
/// same rows, same column sequence. Rewrites apply iff the estimated cost
/// strictly drops.
///
/// The two passes alternate to a fixpoint: a reorder can expose a rewrite
/// the simplifier could not see syntactically (two identical scans made
/// adjacent dedup to one), and the shrunken plan may in turn reorder
/// differently. Iterating until nothing changes makes `optimize`
/// idempotent — re-optimizing its own output returns it unchanged, so the
/// plan hash is stable. Each cost-gated change strictly lowers estimated
/// cost and each simplifier change shrinks the plan, so the loop
/// terminates; the iteration cap is a safety net, not a tuning knob. The
/// result is never priced above `simplify(e)`: when it would be, the
/// simplified plan is returned instead.
///
/// ```
/// use rc_formula::Term;
/// use rc_relalg::{eval, optimize, Database, Estimator, EvalCtx, RaExpr};
///
/// let db = Database::from_facts("P(1)\nP(2)\nQ(2, 5)").unwrap();
/// let plan = RaExpr::join(
///     RaExpr::scan("P", vec![Term::var("x")]),
///     RaExpr::scan("Q", vec![Term::var("x"), Term::var("y")]),
/// );
/// let planned = optimize(&plan, &db);
/// // Same rows, same column order, never estimated costlier.
/// let run = |e: &RaExpr| eval(e, &db, &mut EvalCtx::default()).unwrap();
/// assert_eq!(run(&planned), run(&plan));
/// assert_eq!(planned.cols(), plan.cols());
/// let est = Estimator::new(&db);
/// assert!(est.cost(&planned) <= est.cost(&plan));
/// ```
pub fn optimize(e: &RaExpr, db: &Database) -> RaExpr {
    let mut pass = CostPass {
        est: Estimator::new(db),
        orders: FxHashMap::default(),
    };
    let heuristic = simplify(e);
    let mut cur = heuristic.clone();
    for _ in 0..8 {
        let next = simplify(&pass.run(&cur));
        if next == cur {
            break;
        }
        cur = next;
    }
    // Each rewrite is gated on its own subtree's price, but it also moves
    // that subtree's row estimate, which can raise the price of operators
    // above it. Keep the heuristic plan whenever the whole optimized plan
    // prices higher.
    if pass.est.cost(&cur) > pass.est.cost(&heuristic) {
        heuristic
    } else {
        cur
    }
}

/// The cost-gated rewriting state of one [`optimize`] call: the estimator
/// and the join orders already searched. The join-order search dominates
/// the pass, and the same leaf lists recur — in duplicated subplans and in
/// every fixpoint iteration after the first — so each list is searched
/// once.
struct CostPass<'a> {
    est: Estimator<'a>,
    orders: FxHashMap<Vec<RaExpr>, RaExpr>,
}

impl CostPass<'_> {
    /// Bottom-up cost-gated rewriting of an already-simplified expression.
    fn run(&mut self, e: &RaExpr) -> RaExpr {
        match e {
            RaExpr::Scan { .. } | RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => {
                e.clone()
            }
            RaExpr::Join(..) => {
                let mut raw_leaves = Vec::new();
                collect_join_leaves(e, &mut raw_leaves);
                let leaves: Vec<RaExpr> = raw_leaves.into_iter().map(|l| self.run(l)).collect();
                // The original join shape with optimized leaves is the
                // baseline the reordered candidate must strictly beat.
                let mut it = leaves.iter();
                let baseline = rebuild_join_shape(e, &mut it);
                let reordered = match self.orders.get(&leaves) {
                    Some(order) => order.clone(),
                    None => {
                        let order = order_join(&leaves, &self.est);
                        self.orders.insert(leaves, order.clone());
                        order
                    }
                };
                let candidate = restore_columns(reordered, baseline.cols());
                self.cheaper(candidate, baseline)
            }
            RaExpr::Union(l, r) => {
                let (l, r) = (Arc::new(self.run(l)), Arc::new(self.run(r)));
                match factor_shared_leg(&l, &r) {
                    Some(candidate) => self.cheaper(candidate, RaExpr::Union(l, r)),
                    None => RaExpr::Union(l, r),
                }
            }
            RaExpr::Diff(l, r) => RaExpr::Diff(Arc::new(self.run(l)), Arc::new(self.run(r))),
            RaExpr::Project { input, cols } => {
                let input = self.run(input);
                // Re-simplify the rebuilt node: a reordered child may have
                // gained a column-restoring projection that cascades with
                // this one.
                let baseline = simplify(&RaExpr::Project {
                    input: Arc::new(input),
                    cols: cols.clone(),
                });
                try_early_project(baseline, &self.est)
            }
            RaExpr::Select { input, pred } => RaExpr::Select {
                input: Arc::new(self.run(input)),
                pred: *pred,
            },
            RaExpr::Duplicate { input, src, dst } => RaExpr::Duplicate {
                input: Arc::new(self.run(input)),
                src: *src,
                dst: *dst,
            },
        }
    }

    /// The cost gate: `candidate` iff it prices strictly below `baseline`.
    fn cheaper(&self, candidate: RaExpr, baseline: RaExpr) -> RaExpr {
        if self.est.cost(&candidate) < self.est.cost(&baseline) {
            candidate
        } else {
            baseline
        }
    }
}

/// The factored form of `l ∪ r` when both branches share a join leg or a
/// `diff` right operand and the other operands have equal column sets (see
/// the module docs). The shared leg keeps the side it has in `l`, so the
/// result's column order is `l`'s. `Arc` equality compares pointers before
/// structure, so a physically shared leg matches in O(1).
fn factor_shared_leg(l: &RaExpr, r: &RaExpr) -> Option<RaExpr> {
    let union = |a: &Arc<RaExpr>, b: &Arc<RaExpr>| Arc::new(RaExpr::Union(a.clone(), b.clone()));
    let factored = match (l, r) {
        (RaExpr::Join(a, c), RaExpr::Join(p, q)) => {
            if c == q && same_col_set(a, p) {
                RaExpr::Join(union(a, p), c.clone())
            } else if c == p && same_col_set(a, q) {
                RaExpr::Join(union(a, q), c.clone())
            } else if a == p && same_col_set(c, q) {
                RaExpr::Join(a.clone(), union(c, q))
            } else if a == q && same_col_set(c, p) {
                RaExpr::Join(a.clone(), union(c, p))
            } else {
                return None;
            }
        }
        (RaExpr::Diff(a, w), RaExpr::Diff(b, w2)) if w == w2 && same_col_set(a, b) => {
            RaExpr::Diff(union(a, b), w.clone())
        }
        _ => return None,
    };
    debug_assert_eq!(factored.cols(), l.cols(), "factoring keeps column order");
    Some(factored)
}

/// Do `a` and `b` have the same columns, in any order?
fn same_col_set(a: &RaExpr, b: &RaExpr) -> bool {
    let (mut ca, mut cb) = (a.cols(), b.cols());
    ca.sort_unstable();
    cb.sort_unstable();
    ca == cb
}

/// Flatten a nested join tree into its non-join leaves, left to right.
fn collect_join_leaves<'a>(e: &'a RaExpr, out: &mut Vec<&'a RaExpr>) {
    match e {
        RaExpr::Join(l, r) => {
            collect_join_leaves(l, out);
            collect_join_leaves(r, out);
        }
        other => out.push(other),
    }
}

/// Rebuild the original join skeleton, substituting leaves in order.
fn rebuild_join_shape(e: &RaExpr, leaves: &mut std::slice::Iter<'_, RaExpr>) -> RaExpr {
    match e {
        RaExpr::Join(l, r) => {
            let nl = rebuild_join_shape(l, leaves);
            let nr = rebuild_join_shape(r, leaves);
            RaExpr::Join(Arc::new(nl), Arc::new(nr))
        }
        _ => leaves
            .next()
            .expect("one optimized leaf per flat leaf")
            .clone(),
    }
}

/// Restore the original output column order after a reorder (a natural
/// join's columns are left-side-first, so a different order is a different
/// column sequence). Identity when the order already matches.
fn restore_columns(e: RaExpr, want: Vec<Var>) -> RaExpr {
    if e.cols() == want {
        e
    } else {
        RaExpr::Project {
            input: Arc::new(e),
            cols: want,
        }
    }
}

/// A join-order search entry: the plan so far with its cardinality
/// estimate and accumulated cost.
struct Planned {
    expr: RaExpr,
    est: CardEst,
    cost: f64,
}

/// Pick a join order over the flattened leaves: exhaustive
/// subset-dynamic-programming up to 8 leaves, greedy pairing above.
/// Cardinalities combine through
/// [`Estimator::join_cardinality`] so the search never re-walks subtrees;
/// the caller's final cost gate re-checks the winner against the full
/// (feedback-aware) cost model.
fn order_join(leaves: &[RaExpr], est: &Estimator) -> RaExpr {
    debug_assert!(leaves.len() >= 2);
    if leaves.len() <= 8 {
        dp_join(leaves, est)
    } else {
        greedy_join(leaves, est)
    }
}

fn planned_leaf(e: &RaExpr, est: &Estimator) -> Planned {
    let (cost, card) = est.cost_and_estimate(e);
    Planned {
        expr: e.clone(),
        est: card,
        cost,
    }
}

fn join_planned(l: &Planned, r: &Planned, est: &Estimator) -> Planned {
    let card = est.join_cardinality(&l.est, &r.est);
    let cost = l.cost + r.cost + Estimator::join_step_cost(&l.est, &r.est, &card);
    Planned {
        expr: RaExpr::Join(Arc::new(l.expr.clone()), Arc::new(r.expr.clone())),
        est: card,
        cost,
    }
}

/// Selinger-style dynamic programming over leaf subsets. Splits are
/// enumerated deterministically (canonical orientation: the side holding
/// the lowest leaf index is the left operand), cross-product splits are
/// skipped whenever a connected split exists, and ties keep the first
/// candidate found — so the result is a deterministic function of the
/// leaves and the statistics. The table keeps each subset's estimate,
/// cost and winning split; only the final plan is built as an expression.
fn dp_join(leaves: &[RaExpr], est: &Estimator) -> RaExpr {
    struct Best {
        est: CardEst,
        cost: f64,
        /// The left operand's leaf mask (0 for a single leaf).
        split: usize,
    }
    let n = leaves.len();
    let full: usize = (1 << n) - 1;
    let col_sets: Vec<Vec<Var>> = leaves.iter().map(RaExpr::cols).collect();
    // adj[i]: the leaves sharing a column name with leaf i.
    let adj: Vec<usize> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i && col_sets[i].iter().any(|v| col_sets[j].contains(v)))
                .fold(0, |m, j| m | 1 << j)
        })
        .collect();
    // Is joining the two leaf sets *not* a cross product (an equijoin
    // predicate exists)?
    let connected = |s: usize, t: usize| (0..n).any(|i| s & (1 << i) != 0 && adj[i] & t != 0);
    let mut best: Vec<Option<Best>> = Vec::with_capacity(full + 1);
    best.resize_with(full + 1, || None);
    for (i, l) in leaves.iter().enumerate() {
        let (cost, est) = est.cost_and_estimate(l);
        best[1 << i] = Some(Best {
            est,
            cost,
            split: 0,
        });
    }
    for mask in 3..=full {
        if (mask as u32).count_ones() < 2 {
            continue;
        }
        let lowest = mask & mask.wrapping_neg();
        // First pass: does any canonical split avoid a cross product?
        let mut any_connected = false;
        let mut s = (mask - 1) & mask;
        while s > 0 {
            if s & lowest != 0 && connected(s, mask ^ s) {
                any_connected = true;
                break;
            }
            s = (s - 1) & mask;
        }
        let mut chosen: Option<Best> = None;
        let mut s = (mask - 1) & mask;
        while s > 0 {
            let t = mask ^ s;
            if s & lowest != 0 && (!any_connected || connected(s, t)) {
                let (l, r) = (
                    best[s].as_ref().expect("smaller mask planned"),
                    best[t].as_ref().expect("smaller mask planned"),
                );
                let card = est.join_cardinality(&l.est, &r.est);
                let cost = l.cost + r.cost + Estimator::join_step_cost(&l.est, &r.est, &card);
                if chosen.as_ref().is_none_or(|c| cost < c.cost) {
                    chosen = Some(Best {
                        est: card,
                        cost,
                        split: s,
                    });
                }
            }
            s = (s - 1) & mask;
        }
        best[mask] = chosen;
    }
    fn build(mask: usize, best: &[Option<Best>], leaves: &[RaExpr]) -> RaExpr {
        match best[mask].as_ref().expect("mask planned").split {
            0 => leaves[mask.trailing_zeros() as usize].clone(),
            s => RaExpr::join(build(s, best, leaves), build(mask ^ s, best, leaves)),
        }
    }
    build(full, &best, leaves)
}

/// Greedy fallback for > 8 leaves: repeatedly join the (connected, if
/// possible) pair with the smallest estimated output, deterministically
/// preferring lower indices on ties.
fn greedy_join(leaves: &[RaExpr], est: &Estimator) -> RaExpr {
    let mut work: Vec<Planned> = leaves.iter().map(|l| planned_leaf(l, est)).collect();
    while work.len() > 1 {
        let mut pick: Option<(usize, usize, f64, bool)> = None;
        for i in 0..work.len() {
            for j in (i + 1)..work.len() {
                let connected = work[i]
                    .est
                    .cols()
                    .iter()
                    .any(|v| work[j].est.cols().contains(v));
                let rows = est.join_cardinality(&work[i].est, &work[j].est).rows;
                let better = match pick {
                    None => true,
                    // A connected pair always beats a cross product; then
                    // smaller output wins.
                    Some((_, _, best_rows, best_conn)) => {
                        (connected && !best_conn) || (connected == best_conn && rows < best_rows)
                    }
                };
                if better {
                    pick = Some((i, j, rows, connected));
                }
            }
        }
        let (i, j, _, _) = pick.expect("at least one pair");
        let joined = join_planned(&work[i], &work[j], est);
        work.remove(j);
        work[i] = joined;
    }
    work.pop().expect("one plan left").expr
}

/// Cost-gated early projection: for `π[C](A ⋈ B)`, project each join side
/// down to the columns it must carry (`C` plus the join columns) *before*
/// the join when the estimator says the dedup pays for the extra
/// projections — `π[C](A ⋈ B) = π[C](π[Cₐ](A) ⋈ π[C_b](B))` with the join
/// columns retained on both sides (set semantics; the classic pushdown).
fn try_early_project(baseline: RaExpr, est: &Estimator) -> RaExpr {
    if let RaExpr::Project { input, cols } = &baseline {
        if let RaExpr::Join(l, r) = &**input {
            if let Some(candidate) = early_project(l, r, cols) {
                let candidate = simplify(&candidate);
                if est.cost(&candidate) < est.cost(&baseline) {
                    return candidate;
                }
            }
        }
    }
    baseline
}

fn early_project(l: &Arc<RaExpr>, r: &Arc<RaExpr>, cols: &[Var]) -> Option<RaExpr> {
    let (lc, rc) = (l.cols(), r.cols());
    let shared: Vec<Var> = lc.iter().copied().filter(|v| rc.contains(v)).collect();
    let keep = |side: &[Var]| -> Vec<Var> {
        side.iter()
            .copied()
            .filter(|v| cols.contains(v) || shared.contains(v))
            .collect()
    };
    let (keep_l, keep_r) = (keep(&lc), keep(&rc));
    if keep_l.len() == lc.len() && keep_r.len() == rc.len() {
        return None; // nothing to drop early
    }
    let narrow = |side: &Arc<RaExpr>, keep: Vec<Var>, full: &[Var]| -> RaExpr {
        if keep.len() == full.len() {
            (**side).clone()
        } else {
            RaExpr::Project {
                input: side.clone(),
                cols: keep,
            }
        }
    };
    Some(RaExpr::Project {
        input: Arc::new(RaExpr::join(narrow(l, keep_l, &lc), narrow(r, keep_r, &rc))),
        cols: cols.to_vec(),
    })
}

/// When the left union branch vanished, the surviving right branch may have
/// its columns in a different order than the union advertised; project to
/// restore the original order if needed.
fn align_union_result(survivor: RaExpr, vanished_left: &RaExpr) -> RaExpr {
    let want = vanished_left.cols();
    if survivor.cols() == want {
        survivor
    } else {
        simplify(&RaExpr::Project {
            input: Arc::new(survivor),
            cols: want,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_formula::{Term, Var};

    fn p() -> RaExpr {
        RaExpr::scan("P", vec![Term::var("x"), Term::var("y")])
    }

    #[test]
    fn unit_join_elided() {
        assert_eq!(simplify(&RaExpr::join(RaExpr::Unit, p())), p());
        assert_eq!(simplify(&RaExpr::join(p(), RaExpr::Unit)), p());
    }

    #[test]
    fn empty_propagates_through_join() {
        let e = RaExpr::join(
            p(),
            RaExpr::Empty {
                cols: vec![Var::new("y"), Var::new("z")],
            },
        );
        match simplify(&e) {
            RaExpr::Empty { cols } => {
                assert_eq!(cols, vec![Var::new("x"), Var::new("y"), Var::new("z")])
            }
            other => panic!("expected Empty, got {other}"),
        }
    }

    #[test]
    fn union_drops_empty_and_duplicates() {
        let empty = RaExpr::Empty {
            cols: vec![Var::new("x"), Var::new("y")],
        };
        assert_eq!(simplify(&RaExpr::union(p(), empty.clone())), p());
        assert_eq!(simplify(&RaExpr::union(empty, p())), p());
        assert_eq!(simplify(&RaExpr::union(p(), p())), p());
    }

    #[test]
    fn diff_with_empty_rhs_elided() {
        let e = RaExpr::diff(
            p(),
            RaExpr::Empty {
                cols: vec![Var::new("y")],
            },
        );
        assert_eq!(simplify(&e), p());
    }

    #[test]
    fn projection_cascade_and_identity() {
        let inner = RaExpr::project(p(), vec![Var::new("x"), Var::new("y")]);
        // Identity projection vanishes.
        assert_eq!(simplify(&inner), p());
        let cascade = RaExpr::project(
            RaExpr::project(p(), vec![Var::new("y"), Var::new("x")]),
            vec![Var::new("x")],
        );
        assert_eq!(
            simplify(&cascade),
            RaExpr::project(p(), vec![Var::new("x")])
        );
    }

    #[test]
    fn self_join_collapses() {
        assert_eq!(simplify(&RaExpr::join(p(), p())), p());
    }

    #[test]
    fn join_dedup_fires_only_after_rewriting_makes_sides_equal() {
        // π[x,y](P(x,y)) ⋈ P(x,y): the sides are NOT syntactically equal in
        // the input; the identity projection is dropped during
        // simplification and only then does e ⋈ e → e apply. This pins that
        // the dedup check runs on the *simplified* children (and that the
        // column-set guard accepts the rewritten pair).
        let wrapped = RaExpr::project(p(), vec![Var::new("x"), Var::new("y")]);
        let e = RaExpr::join(wrapped, p());
        assert_eq!(simplify(&e), p());
    }

    #[test]
    fn join_dedup_requires_equal_column_sequences() {
        // Directly exercise the guard: equal trees always share a column
        // sequence, and a reordered twin is not a candidate.
        let q_xy = RaExpr::scan("Q", vec![Term::var("x"), Term::var("y")]);
        let q_yx = RaExpr::scan("Q", vec![Term::var("y"), Term::var("x")]);
        assert!(join_dedup_applies(&q_xy, &q_xy));
        assert!(!join_dedup_applies(&q_xy, &q_yx));
        // The full join of the reordered twins must therefore survive as a
        // join (it computes the intersection with x/y matched crosswise —
        // not the identity).
        assert!(matches!(
            simplify(&RaExpr::join(q_xy, q_yx)),
            RaExpr::Join(..)
        ));
    }

    #[test]
    fn selection_pushes_into_join_side() {
        use rc_formula::Value;
        // σ[x=1](P(x,y) ⋈ Q(y,z)): x only lives on the P side.
        let q = RaExpr::scan("Q", vec![Term::var("y"), Term::var("z")]);
        let e = RaExpr::select(
            RaExpr::join(p(), q.clone()),
            SelPred::EqConst(Var::new("x"), Value::int(1)),
        );
        match simplify(&e) {
            RaExpr::Join(l, r) => {
                assert!(matches!(*l, RaExpr::Select { .. }), "got {l}");
                assert_eq!(*r, q);
            }
            other => panic!("expected pushed join, got {other}"),
        }
    }

    #[test]
    fn selection_stays_when_columns_span_both_sides() {
        let q = RaExpr::scan("Q", vec![Term::var("z")]);
        let e = RaExpr::select(
            RaExpr::join(p(), q),
            SelPred::NeqCols(Var::new("x"), Var::new("z")),
        );
        assert!(matches!(simplify(&e), RaExpr::Select { .. }));
    }

    #[test]
    fn selection_distributes_over_union() {
        use rc_formula::Value;
        let e = RaExpr::select(
            RaExpr::union(p(), RaExpr::scan("R", vec![Term::var("x"), Term::var("y")])),
            SelPred::EqConst(Var::new("x"), Value::int(1)),
        );
        match simplify(&e) {
            RaExpr::Union(l, r) => {
                assert!(matches!(*l, RaExpr::Select { .. }));
                assert!(matches!(*r, RaExpr::Select { .. }));
            }
            other => panic!("expected union of selects, got {other}"),
        }
    }

    #[test]
    fn selection_pushes_past_diff() {
        use rc_formula::Value;
        let e = RaExpr::select(
            RaExpr::diff(p(), RaExpr::scan("R", vec![Term::var("y")])),
            SelPred::EqConst(Var::new("x"), Value::int(1)),
        );
        match simplify(&e) {
            RaExpr::Diff(l, _) => assert!(matches!(*l, RaExpr::Select { .. })),
            other => panic!("expected diff with pushed select, got {other}"),
        }
    }

    #[test]
    fn diff_pushdown_never_touches_the_right_side() {
        use rc_formula::Value;
        // σ[y≠1](P(x,y) diff R(y)): every selected column (y) lives in the
        // right operand's columns too — the unsound rewrite A diff σ(B)
        // would be "applicable" by the join-side column test. Pin that the
        // selection lands on the left operand and the right one is the
        // untouched scan.
        let r_scan = RaExpr::scan("R", vec![Term::var("y")]);
        let e = RaExpr::select(
            RaExpr::diff(p(), r_scan.clone()),
            SelPred::NeqConst(Var::new("y"), Value::int(1)),
        );
        match simplify(&e) {
            RaExpr::Diff(l, r) => {
                assert!(
                    matches!(&*l, RaExpr::Select { .. }),
                    "selection must move to the LEFT of diff, got {l}"
                );
                assert_eq!(*r, r_scan, "right side of diff must stay unfiltered");
            }
            other => panic!("expected diff, got {other}"),
        }
    }

    #[test]
    fn diff_pushdown_semantics_on_concrete_data() {
        use crate::database::Database;
        use crate::eval::{eval, EvalCtx};
        use rc_formula::Value;
        // The σ(A−B) = σ(A)−B identity on the module-doc counterexample
        // shape: A = {1,2}, B = {2}, σ = (x ≠ 2). σ(A−B) = {1}; the unsound
        // A−σ(B) would be {1,2}.
        let db = Database::from_facts("A(1)\nA(2)\nB(2)").unwrap();
        let raw = RaExpr::select(
            RaExpr::diff(
                RaExpr::scan("A", vec![Term::var("x")]),
                RaExpr::scan("B", vec![Term::var("x")]),
            ),
            SelPred::NeqConst(Var::new("x"), Value::int(2)),
        );
        let opt = simplify(&raw);
        let want = eval(&raw, &db, &mut EvalCtx::default()).unwrap();
        let got = eval(&opt, &db, &mut EvalCtx::default()).unwrap();
        assert_eq!(want, got, "optimized diff plan changed the answer");
        assert_eq!(want.len(), 1);
        assert!(want.contains(&[Value::int(1)]));
    }

    #[test]
    fn projection_distributes_over_union() {
        let e = RaExpr::project(
            RaExpr::union(p(), RaExpr::scan("R", vec![Term::var("y"), Term::var("x")])),
            vec![Var::new("y")],
        );
        match simplify(&e) {
            RaExpr::Union(l, r) => {
                assert!(matches!(*l, RaExpr::Project { .. }));
                assert!(matches!(*r, RaExpr::Project { .. }));
            }
            other => panic!("expected union of projections, got {other}"),
        }
    }

    #[test]
    fn union_empty_left_preserves_column_order() {
        // Union advertised [y, x] (left's order); survivor has [x, y].
        let left = RaExpr::Empty {
            cols: vec![Var::new("y"), Var::new("x")],
        };
        let out = simplify(&RaExpr::union(left, p()));
        assert_eq!(out.cols(), vec![Var::new("y"), Var::new("x")]);
    }

    #[test]
    fn select_pushes_beneath_projection_when_columns_survive() {
        use rc_formula::Value;
        // σ[y = c](π[x, y](R(x, y, z))) → π[x, y](σ[y = c](R)).
        let r = RaExpr::scan("R", vec![Term::var("x"), Term::var("y"), Term::var("z")]);
        let e = RaExpr::select(
            RaExpr::project(r, vec![Var::new("x"), Var::new("y")]),
            SelPred::EqConst(Var::new("y"), Value::int(1)),
        );
        match simplify(&e) {
            RaExpr::Project { input, cols } => {
                assert_eq!(cols, vec![Var::new("x"), Var::new("y")]);
                assert!(
                    matches!(&*input, RaExpr::Select { .. }),
                    "selection should sit beneath the projection, got {input}"
                );
            }
            other => panic!("expected projection over selection, got {other}"),
        }
        // When the predicate column is projected away, the select stays put.
        let r2 = RaExpr::scan("R", vec![Term::var("x"), Term::var("y")]);
        let stuck = RaExpr::select(
            RaExpr::project(r2, vec![Var::new("x")]),
            SelPred::EqConst(Var::new("x"), Value::int(1)),
        );
        // x survives so this one *does* push; check the negative case with a
        // predicate over a dropped column is impossible to build (pred cols
        // must be in scope), so instead pin that the rewrite preserves
        // results on data.
        let db = crate::database::Database::from_facts("R(1, 10)\nR(2, 20)").unwrap();
        let want = crate::eval::eval(&stuck, &db, &mut crate::EvalCtx::default()).unwrap();
        let got =
            crate::eval::eval(&simplify(&stuck), &db, &mut crate::EvalCtx::default()).unwrap();
        assert_eq!(want, got);
    }

    mod cost {
        use super::*;
        use crate::database::Database;
        use crate::eval::{eval, EvalCtx};

        /// A database where join order matters: Big × Big is huge but either
        /// Big ⋈ Tiny collapses.
        fn skewed_db() -> Database {
            let mut facts = String::new();
            for i in 0..50 {
                facts.push_str(&format!("A({i}, {})\n", i % 10));
                facts.push_str(&format!("B({}, {i})\n", i % 10));
            }
            facts.push_str("T(0)\nT(1)\n");
            Database::from_facts(&facts).unwrap()
        }

        fn three_way() -> RaExpr {
            // A(x, y) ⋈ B(y, z) ⋈ T(y): T last even though it is the most
            // selective leaf.
            RaExpr::join(
                RaExpr::join(
                    RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]),
                    RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]),
                ),
                RaExpr::scan("T", vec![Term::var("y")]),
            )
        }

        #[test]
        fn reorder_preserves_results_and_column_order() {
            let db = skewed_db();
            let e = three_way();
            let opt = optimize(&e, &db);
            assert_eq!(opt.cols(), e.cols(), "column order must be preserved");
            assert_eq!(
                eval(&opt, &db, &mut EvalCtx::default()).unwrap(),
                eval(&simplify(&e), &db, &mut EvalCtx::default()).unwrap()
            );
        }

        #[test]
        fn reorder_joins_selective_leaf_early() {
            let db = skewed_db();
            let opt = optimize(&three_way(), &db);
            // The tiny T scan must appear inside the innermost join of the
            // chosen plan, not dangling at the end.
            fn innermost_preds(e: &RaExpr, out: &mut Vec<String>) {
                match e {
                    RaExpr::Join(l, r) => {
                        innermost_preds(l, out);
                        innermost_preds(r, out);
                    }
                    RaExpr::Project { input, .. } => innermost_preds(input, out),
                    RaExpr::Scan { pred, .. } => out.push(pred.as_str().to_string()),
                    _ => {}
                }
            }
            let mut order = Vec::new();
            innermost_preds(&opt, &mut order);
            assert_eq!(order.len(), 3);
            let t_pos = order.iter().position(|p| p == "T").expect("T in plan");
            assert!(
                t_pos < 2,
                "selective scan should join early, got order {order:?}"
            );
        }

        #[test]
        fn optimize_is_idempotent() {
            let db = skewed_db();
            let e = three_way();
            let once = optimize(&e, &db);
            let twice = optimize(&once, &db);
            assert_eq!(
                crate::plan::plan_hash(&once),
                crate::plan::plan_hash(&twice),
                "re-optimization must be a fixpoint"
            );
        }

        #[test]
        fn cross_product_query_still_correct() {
            // No shared columns at all — the planner must not invent joins.
            let db = Database::from_facts("A(1)\nA(2)\nB(7)").unwrap();
            let e = RaExpr::join(
                RaExpr::scan("A", vec![Term::var("x")]),
                RaExpr::scan("B", vec![Term::var("y")]),
            );
            let opt = optimize(&e, &db);
            assert_eq!(opt.cols(), e.cols());
            assert_eq!(eval(&opt, &db, &mut EvalCtx::default()).unwrap().len(), 2);
        }

        #[test]
        fn greedy_path_handles_many_leaves() {
            // 9 leaves forces the greedy fallback (> 8).
            let mut facts = String::new();
            for i in 0..4 {
                for r in 1..=9 {
                    facts.push_str(&format!("R{r}({i}, {})\n", (i + 1) % 4));
                }
            }
            let db = Database::from_facts(&facts).unwrap();
            let vars: Vec<&str> = vec!["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];
            let mut e: Option<RaExpr> = None;
            for r in 1..=9usize {
                let leaf = RaExpr::scan(
                    format!("R{r}").as_str(),
                    vec![Term::var(vars[r - 1]), Term::var(vars[r])],
                );
                e = Some(match e {
                    None => leaf,
                    Some(prev) => RaExpr::join(prev, leaf),
                });
            }
            let e = e.unwrap();
            let opt = optimize(&e, &db);
            assert_eq!(opt.cols(), e.cols());
            assert_eq!(
                eval(&opt, &db, &mut EvalCtx::default()).unwrap(),
                eval(&simplify(&e), &db, &mut EvalCtx::default()).unwrap()
            );
        }

        #[test]
        fn early_projection_is_cost_gated_and_sound() {
            // π[x](A(x, y) ⋈ B(y, z)): y is the join column, z is dead weight
            // on B's side — droppable early. Whatever the gate decides, the
            // result must match the unoptimized plan.
            let db = skewed_db();
            let e = RaExpr::project(
                RaExpr::join(
                    RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]),
                    RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]),
                ),
                vec![Var::new("x")],
            );
            let opt = optimize(&e, &db);
            assert_eq!(opt.cols(), vec![Var::new("x")]);
            assert_eq!(
                eval(&opt, &db, &mut EvalCtx::default()).unwrap(),
                eval(&simplify(&e), &db, &mut EvalCtx::default()).unwrap()
            );
        }

        #[test]
        fn feedback_changes_the_chosen_plan() {
            // Seed an observed cardinality that contradicts the estimate and
            // check the planner reacts (the A ⋈ B intermediate is claimed to
            // be tiny, so joining it first becomes attractive again).
            let db = skewed_db();
            let e = three_way();
            let before = optimize(&e, &db);
            let ab = simplify(&RaExpr::join(
                RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]),
                RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]),
            ));
            db.record_observed(crate::plan::plan_hash(&ab), 1);
            let after = optimize(&e, &db);
            // Either the plan changed or it was already optimal; both plans
            // must stay correct.
            assert_eq!(
                eval(&after, &db, &mut EvalCtx::default()).unwrap(),
                eval(&before, &db, &mut EvalCtx::default()).unwrap()
            );
        }
    }
}

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
//! ## Planning cost
//!
//! The cost pass prices each node once. It works on priced nodes (a node
//! with its cost and estimate, and its children's) and carries prices up
//! from the leaves: a node it rebuilds is priced from its children's
//! prices, and a node it leaves unchanged comes back as it went in, `Arc`
//! and price included — as does every subtree [`simplify`] leaves alone —
//! so the fixpoint test is a pointer comparison once nothing moves. Each
//! gate compares two carried prices and prices only what its candidate
//! adds: a reorder the joins (and column-restoring projection) it builds
//! over the priced leaves, an early projection its narrowed join, a
//! factoring its union and the join or difference above it; the final
//! check compares the optimized plan's carried price with the heuristic
//! plan's, taken when the call starts. Where the simplifier rebuilds a
//! candidate around subtrees it keeps, their prices are found by address
//! among the nodes already priced in the call. The join-order search
//! combines estimates in an allocation-free form that reproduces
//! [`Estimator::join_cardinality`] bit for bit, so the cheaper pass
//! chooses exactly the plans the old one did.
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
use crate::stats::{join_step, CardEst, Estimator, JoinCard, JoinEstimate, Price};
use rc_formula::fxhash::FxHashMap;
use rc_formula::Var;
use std::rc::Rc;
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
    Arc::unwrap_or_clone(simp(&Arc::new(e.clone())))
}

/// [`simplify`] over shared nodes: a subtree no rewrite touches comes back
/// as the same `Arc`, so the cost pass can tell an unchanged plan, and
/// reuse its prices, by pointer.
fn simp(e: &Arc<RaExpr>) -> Arc<RaExpr> {
    match &**e {
        RaExpr::Scan { .. } | RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => {
            e.clone()
        }
        RaExpr::Join(l0, r0) => {
            let (l, r) = (simp(l0), simp(r0));
            if matches!(*l, RaExpr::Unit) {
                return r;
            }
            if matches!(*r, RaExpr::Unit) {
                return l;
            }
            // Join with an empty side is empty over the merged columns.
            if is_empty(&l) || is_empty(&r) {
                let cols = RaExpr::Join(l, r).cols();
                return Arc::new(RaExpr::Empty { cols });
            }
            // Set semantics: joining an expression with itself on all
            // columns is the identity (column-set guard included).
            if join_dedup_applies(&l, &r) {
                return l;
            }
            with_children(e, [&l, &r].into_iter())
        }
        RaExpr::Union(l0, r0) => {
            let (l, r) = (simp(l0), simp(r0));
            if is_empty(&l) {
                return align_union_result(r, &l);
            }
            if is_empty(&r) || l == r {
                return l;
            }
            with_children(e, [&l, &r].into_iter())
        }
        RaExpr::Diff(l0, r0) => {
            let (l, r) = (simp(l0), simp(r0));
            if is_empty(&r) {
                return l;
            }
            if is_empty(&l) {
                return Arc::new(RaExpr::Empty { cols: l.cols() });
            }
            with_children(e, [&l, &r].into_iter())
        }
        RaExpr::Project { input: i0, cols } => {
            let input = simp(i0);
            if input.cols() == *cols {
                return input;
            }
            if is_empty(&input) {
                return Arc::new(RaExpr::Empty { cols: cols.clone() });
            }
            // Cascade: π[c](π[d](e)) = π[c](e).
            if let RaExpr::Project { input: inner, .. } = &*input {
                return simp(&Arc::new(RaExpr::Project {
                    input: inner.clone(),
                    cols: cols.clone(),
                }));
            }
            // Push through union: π(a ∪ b) = π(a) ∪ π(b).
            if let RaExpr::Union(a, b) = &*input {
                let project = |side: &Arc<RaExpr>| {
                    Arc::new(RaExpr::Project {
                        input: side.clone(),
                        cols: cols.clone(),
                    })
                };
                return simp(&Arc::new(RaExpr::Union(project(a), project(b))));
            }
            with_children(e, [&input].into_iter())
        }
        RaExpr::Select { input: i0, pred } => {
            let input = simp(i0);
            if is_empty(&input) {
                return Arc::new(RaExpr::Empty { cols: input.cols() });
            }
            if let Some(pushed) = push_select(&input, *pred) {
                return pushed;
            }
            with_children(e, [&input].into_iter())
        }
        RaExpr::Duplicate { input: i0, dst, .. } => {
            let input = simp(i0);
            if is_empty(&input) {
                let mut cols = input.cols();
                cols.push(*dst);
                return Arc::new(RaExpr::Empty { cols });
            }
            with_children(e, [&input].into_iter())
        }
    }
}

/// `e` with `kids` as its children, in order: `e` itself when they are
/// the children it has.
fn with_children<'a>(
    e: &Arc<RaExpr>,
    kids: impl Iterator<Item = &'a Arc<RaExpr>> + Clone,
) -> Arc<RaExpr> {
    if child_arcs(e)
        .zip(kids.clone())
        .all(|(old, new)| Arc::ptr_eq(old, new))
    {
        return e.clone();
    }
    let mut kids = kids.cloned();
    let mut kid = || kids.next().expect("one child per operand");
    Arc::new(match &**e {
        RaExpr::Join(..) => RaExpr::Join(kid(), kid()),
        RaExpr::Union(..) => RaExpr::Union(kid(), kid()),
        RaExpr::Diff(..) => RaExpr::Diff(kid(), kid()),
        RaExpr::Project { cols, .. } => RaExpr::Project {
            input: kid(),
            cols: cols.clone(),
        },
        RaExpr::Select { pred, .. } => RaExpr::Select {
            input: kid(),
            pred: *pred,
        },
        RaExpr::Duplicate { src, dst, .. } => RaExpr::Duplicate {
            input: kid(),
            src: *src,
            dst: *dst,
        },
        leaf => leaf.clone(),
    })
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
fn push_select(input: &RaExpr, pred: SelPred) -> Option<Arc<RaExpr>> {
    let need = pred.cols();
    let select = |side: &Arc<RaExpr>| {
        Arc::new(RaExpr::Select {
            input: side.clone(),
            pred,
        })
    };
    let pushed = match input {
        RaExpr::Project { input: inner, cols } if need.iter().all(|v| cols.contains(v)) => {
            RaExpr::Project {
                input: select(inner),
                cols: cols.clone(),
            }
        }
        RaExpr::Join(l, r) => {
            if need.iter().all(|v| l.cols().contains(v)) {
                RaExpr::Join(select(l), r.clone())
            } else if need.iter().all(|v| r.cols().contains(v)) {
                RaExpr::Join(l.clone(), select(r))
            } else {
                return None;
            }
        }
        RaExpr::Union(a, b) => RaExpr::Union(select(a), select(b)),
        RaExpr::Diff(a, b) => RaExpr::Diff(select(a), b.clone()),
        _ => return None,
    };
    Some(simp(&Arc::new(pushed)))
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
/// Planning cost is linear in the plan per round: the pass carries each
/// node's price up from its children, so no gate re-walks a subtree, and
/// the statistics it reads are fixed when the call starts (see
/// [`Estimator::new`]).
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
    optimize_priced(e, db).0
}

/// [`optimize`], also returning the `(cost, estimate)` the cost pass
/// carried for the plan it returns. It equals
/// [`Estimator::cost_and_estimate`] of that plan, bit for bit, for an
/// estimator over `db` with the same feedback.
pub fn optimize_priced(e: &RaExpr, db: &Database) -> (RaExpr, (f64, CardEst)) {
    let mut pass = CostPass {
        est: Estimator::new(db),
        priced: FxHashMap::default(),
        reordered: FxHashMap::default(),
    };
    let heuristic = pass.price(&simp(&Arc::new(e.clone())));
    let mut cur = heuristic.clone();
    for _ in 0..8 {
        let out = pass.run(&cur);
        let next = simp(out.expr());
        if next == *cur.expr() {
            break;
        }
        cur = pass.price(&next);
    }
    // Each rewrite is gated on its own subtree's price, but it also moves
    // that subtree's row estimate, which can raise the price of operators
    // above it. Keep the heuristic plan whenever the whole optimized plan
    // prices higher.
    let best = cheaper(heuristic, cur);
    let price = &best.0.price;
    ((**best.expr()).clone(), (price.cost, price.card.clone()))
}

/// A plan node with its price, and its children's (in order): the unit
/// the cost pass builds, compares and carries. Cloning shares it.
#[derive(Clone)]
struct Priced(Rc<PricedNode>);

struct PricedNode {
    expr: Arc<RaExpr>,
    price: Price,
    kids: Vec<Priced>,
}

impl Priced {
    fn expr(&self) -> &Arc<RaExpr> {
        &self.0.expr
    }

    fn kid(&self, i: usize) -> &Priced {
        &self.0.kids[i]
    }

    fn cost(&self) -> f64 {
        self.0.price.cost
    }

    fn cols(&self) -> &[Var] {
        self.0.price.card.cols()
    }
}

/// The gate: `candidate` iff it prices strictly below `baseline`.
fn cheaper(candidate: Priced, baseline: Priced) -> Priced {
    if candidate.cost() < baseline.cost() {
        candidate
    } else {
        baseline
    }
}

/// The cost-gated rewriting state of one [`optimize`] call.
struct CostPass<'a> {
    est: Estimator<'a>,
    /// Every node priced in this call, by address. The pass hands prices
    /// up the plan itself; this finds them again for a plan the simplifier
    /// rebuilt around subtrees it kept (it keeps their `Arc`s). An entry
    /// holds its node, so no address is reused while the call runs.
    priced: FxHashMap<*const RaExpr, Priced>,
    /// The reordered join of each leaf list already searched, priced. The
    /// same leaf lists recur — in duplicated subplans and in every
    /// fixpoint iteration after the first — so each list is searched and
    /// its candidate built once. (Equal leaves have equal prices, and a
    /// join's column order depends on its leaf order only, so the
    /// candidate fits every join over the list.)
    reordered: FxHashMap<Vec<Arc<RaExpr>>, Priced>,
}

impl CostPass<'_> {
    /// Price `expr` from its priced children.
    fn node(&mut self, expr: Arc<RaExpr>, kids: Vec<Priced>) -> Priced {
        let price = match kids.as_slice() {
            [] => self.est.price_node(&expr, &[]),
            [a] => self.est.price_node(&expr, &[&a.0.price]),
            [a, b] => self.est.price_node(&expr, &[&a.0.price, &b.0.price]),
            _ => unreachable!("an operator has at most two children"),
        };
        let p = Priced(Rc::new(PricedNode { expr, price, kids }));
        self.priced.insert(Arc::as_ptr(p.expr()), p.clone());
        p
    }

    /// Price `e`, pricing only the nodes not priced yet in this call.
    fn price(&mut self, e: &Arc<RaExpr>) -> Priced {
        if let Some(p) = self.priced.get(&Arc::as_ptr(e)) {
            return p.clone();
        }
        let kids = child_arcs(e).map(|c| self.price(c)).collect();
        self.node(e.clone(), kids)
    }

    /// Price the join, union or difference of two priced plans.
    fn pair(
        &mut self,
        op: fn(Arc<RaExpr>, Arc<RaExpr>) -> RaExpr,
        a: &Priced,
        b: &Priced,
    ) -> Priced {
        let expr = Arc::new(op(a.expr().clone(), b.expr().clone()));
        self.node(expr, vec![a.clone(), b.clone()])
    }

    /// `p` over new children; `p` itself when they are its own.
    fn rebuilt(&mut self, p: &Priced, kids: Vec<Priced>) -> Priced {
        let expr = with_children(p.expr(), kids.iter().map(Priced::expr));
        if Arc::ptr_eq(&expr, p.expr()) {
            return p.clone();
        }
        self.node(expr, kids)
    }

    /// Bottom-up cost-gated rewriting of an already-simplified, priced
    /// plan. Unchanged nodes come back as they went in, price included.
    fn run(&mut self, p: &Priced) -> Priced {
        match &**p.expr() {
            RaExpr::Scan { .. } | RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => {
                p.clone()
            }
            RaExpr::Join(..) => {
                let mut raw_leaves = Vec::new();
                collect_join_leaves(p, &mut raw_leaves);
                let leaves: Vec<Priced> = raw_leaves.into_iter().map(|l| self.run(l)).collect();
                // The original join shape with optimized leaves is the
                // baseline the reordered candidate must strictly beat.
                let baseline = self.rebuild_join_shape(p, &mut leaves.iter());
                let key: Vec<Arc<RaExpr>> = leaves.iter().map(|l| l.expr().clone()).collect();
                let candidate = match self.reordered.get(&key) {
                    Some(candidate) => candidate.clone(),
                    None => {
                        let candidate = self.build_order(&order_join(&leaves), &leaves);
                        let candidate = self.restore_columns(candidate, baseline.cols());
                        self.reordered.insert(key, candidate.clone());
                        candidate
                    }
                };
                cheaper(candidate, baseline)
            }
            RaExpr::Union(..) => {
                let kids = vec![self.run(p.kid(0)), self.run(p.kid(1))];
                let baseline = self.rebuilt(p, kids);
                match self.factor_shared_leg(baseline.kid(0), baseline.kid(1)) {
                    Some(candidate) => cheaper(candidate, baseline),
                    None => baseline,
                }
            }
            RaExpr::Project { cols, .. } => {
                let input = self.run(p.kid(0));
                // Re-simplify a rebuilt node: a reordered child may have
                // gained a column-restoring projection that cascades with
                // this one. An unchanged child leaves `p` as it was, and
                // `p`, part of a simplified plan, is simplified already.
                let baseline = if Arc::ptr_eq(input.expr(), p.kid(0).expr()) {
                    p.clone()
                } else {
                    let node = simp(&Arc::new(RaExpr::Project {
                        input: input.expr().clone(),
                        cols: cols.clone(),
                    }));
                    self.price(&node)
                };
                self.try_early_project(baseline)
            }
            RaExpr::Diff(..) => {
                let kids = vec![self.run(p.kid(0)), self.run(p.kid(1))];
                self.rebuilt(p, kids)
            }
            RaExpr::Select { .. } | RaExpr::Duplicate { .. } => {
                let kids = vec![self.run(p.kid(0))];
                self.rebuilt(p, kids)
            }
        }
    }

    /// Rebuild the original join skeleton, substituting leaves in order;
    /// parts whose leaves did not change are reused as they are.
    fn rebuild_join_shape(
        &mut self,
        p: &Priced,
        leaves: &mut std::slice::Iter<'_, Priced>,
    ) -> Priced {
        match &**p.expr() {
            RaExpr::Join(..) => {
                let l = self.rebuild_join_shape(p.kid(0), leaves);
                let r = self.rebuild_join_shape(p.kid(1), leaves);
                self.rebuilt(p, vec![l, r])
            }
            _ => leaves
                .next()
                .expect("one optimized leaf per flat leaf")
                .clone(),
        }
    }

    /// The plan an [`Order`] describes over `leaves`, each new join priced.
    fn build_order(&mut self, order: &Order, leaves: &[Priced]) -> Priced {
        match order {
            Order::Leaf(i) => leaves[*i].clone(),
            Order::Join(l, r) => {
                let (l, r) = (self.build_order(l, leaves), self.build_order(r, leaves));
                self.pair(RaExpr::Join, &l, &r)
            }
        }
    }

    /// Restore the original output column order after a reorder (a
    /// natural join's columns are left-side-first, so a different order is
    /// a different column sequence). Identity when the order already
    /// matches.
    fn restore_columns(&mut self, p: Priced, want: &[Var]) -> Priced {
        if p.cols() == want {
            return p;
        }
        let expr = Arc::new(RaExpr::Project {
            input: p.expr().clone(),
            cols: want.to_vec(),
        });
        self.node(expr, vec![p])
    }

    /// The factored form of `l ∪ r` when both branches share a join leg or
    /// a `diff` right operand and the other operands have equal column
    /// sets (see the module docs). The shared leg keeps the side it has in
    /// `l`, so the result's column order is `l`'s. `Arc` equality compares
    /// pointers before structure, so a physically shared leg matches in
    /// O(1). Only the two nodes the rewrite adds are priced.
    fn factor_shared_leg(&mut self, l: &Priced, r: &Priced) -> Option<Priced> {
        let factored = match (&**l.expr(), &**r.expr()) {
            (RaExpr::Join(..), RaExpr::Join(..)) => {
                let (a, c, p, q) = (l.kid(0), l.kid(1), r.kid(0), r.kid(1));
                if c.expr() == q.expr() && same_col_set(a, p) {
                    let u = self.pair(RaExpr::Union, a, p);
                    self.pair(RaExpr::Join, &u, c)
                } else if c.expr() == p.expr() && same_col_set(a, q) {
                    let u = self.pair(RaExpr::Union, a, q);
                    self.pair(RaExpr::Join, &u, c)
                } else if a.expr() == p.expr() && same_col_set(c, q) {
                    let u = self.pair(RaExpr::Union, c, q);
                    self.pair(RaExpr::Join, a, &u)
                } else if a.expr() == q.expr() && same_col_set(c, p) {
                    let u = self.pair(RaExpr::Union, c, p);
                    self.pair(RaExpr::Join, a, &u)
                } else {
                    return None;
                }
            }
            (RaExpr::Diff(..), RaExpr::Diff(..))
                if l.kid(1).expr() == r.kid(1).expr() && same_col_set(l.kid(0), r.kid(0)) =>
            {
                let u = self.pair(RaExpr::Union, l.kid(0), r.kid(0));
                self.pair(RaExpr::Diff, &u, l.kid(1))
            }
            _ => return None,
        };
        debug_assert_eq!(factored.cols(), l.cols(), "factoring keeps column order");
        Some(factored)
    }

    /// Cost-gated early projection: for `π[C](A ⋈ B)`, project each join
    /// side down to the columns it must carry (`C` plus the join columns)
    /// *before* the join when the estimator says the dedup pays for the
    /// extra projections — `π[C](A ⋈ B) = π[C](π[Cₐ](A) ⋈ π[C_b](B))` with
    /// the join columns retained on both sides (set semantics; the classic
    /// pushdown).
    fn try_early_project(&mut self, baseline: Priced) -> Priced {
        let RaExpr::Project { input, cols } = &**baseline.expr() else {
            return baseline;
        };
        if !matches!(**input, RaExpr::Join(..)) {
            return baseline;
        }
        let (l, r) = (baseline.kid(0).kid(0), baseline.kid(0).kid(1));
        let Some(candidate) = early_project(l, r, cols) else {
            return baseline;
        };
        let candidate = self.price(&simp(&Arc::new(candidate)));
        cheaper(candidate, baseline)
    }
}

/// `e`'s children, as the `Arc`s that hold them.
fn child_arcs(e: &RaExpr) -> impl Iterator<Item = &Arc<RaExpr>> {
    let (a, b) = match e {
        RaExpr::Join(l, r) | RaExpr::Union(l, r) | RaExpr::Diff(l, r) => (Some(l), Some(r)),
        RaExpr::Project { input, .. }
        | RaExpr::Select { input, .. }
        | RaExpr::Duplicate { input, .. } => (Some(input), None),
        RaExpr::Scan { .. } | RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => {
            (None, None)
        }
    };
    a.into_iter().chain(b)
}

/// Do `a` and `b` have the same columns, in any order?
fn same_col_set(a: &Priced, b: &Priced) -> bool {
    let (mut ca, mut cb) = (a.cols().to_vec(), b.cols().to_vec());
    ca.sort_unstable();
    cb.sort_unstable();
    ca == cb
}

/// Flatten a nested join tree into its non-join leaves, left to right.
fn collect_join_leaves<'a>(p: &'a Priced, out: &mut Vec<&'a Priced>) {
    if let RaExpr::Join(..) = **p.expr() {
        collect_join_leaves(p.kid(0), out);
        collect_join_leaves(p.kid(1), out);
    } else {
        out.push(p);
    }
}

/// A join order over flattened leaves: a leaf, by index, or the join of
/// two orders.
#[derive(Debug, PartialEq)]
enum Order {
    Leaf(usize),
    Join(Box<Order>, Box<Order>),
}

/// Pick a join order over the flattened leaves: exhaustive
/// subset-dynamic-programming up to 8 leaves, greedy pairing above.
/// Cardinalities combine by the containment rule of
/// [`Estimator::join_cardinality`] from the leaves' prices, so the search
/// never re-walks a subtree; the caller's cost gate prices the winner with
/// the full (feedback-aware) model. The search runs on [`JoinCard`]s,
/// which allocate nothing, whenever the leaves' columns fit one.
fn order_join(leaves: &[Priced]) -> Order {
    debug_assert!(leaves.len() >= 2);
    let cards: Vec<&CardEst> = leaves.iter().map(|l| &l.0.price.card).collect();
    match JoinCard::number(&cards) {
        Some(compact) => search_order(compact, leaves),
        None => search_order(cards.into_iter().cloned().collect(), leaves),
    }
}

/// Search over the leaves' estimates `ests` (one per leaf, in order).
fn search_order<C: JoinEstimate>(ests: Vec<C>, leaves: &[Priced]) -> Order {
    let leaves: Vec<(C, f64)> = ests
        .into_iter()
        .zip(leaves.iter().map(Priced::cost))
        .collect();
    if leaves.len() <= 8 {
        dp_join(&leaves)
    } else {
        greedy_join(leaves)
    }
}

/// Selinger-style dynamic programming over leaf subsets (each leaf an
/// estimate and its cost). Splits are enumerated deterministically
/// (canonical orientation: the side holding the lowest leaf index is the
/// left operand), cross-product splits are skipped whenever a connected
/// split exists, and ties keep the first candidate found — so the result
/// is a deterministic function of the leaves and the statistics. The table
/// keeps each subset's estimate, cost and winning split.
fn dp_join<C: JoinEstimate>(leaves: &[(C, f64)]) -> Order {
    struct Best<C> {
        est: C,
        cost: f64,
        /// The left operand's leaf mask (0 for a single leaf).
        split: usize,
    }
    let n = leaves.len();
    let full: usize = (1 << n) - 1;
    // adj[i]: the leaves sharing a column name with leaf i; nbr[s]: the
    // leaves sharing one with some leaf of s.
    let adj: Vec<usize> = (0..n)
        .map(|i| {
            (0..n)
                .filter(|&j| j != i && leaves[i].0.shares_col(&leaves[j].0))
                .fold(0, |m, j| m | 1 << j)
        })
        .collect();
    let mut nbr = vec![0usize; full + 1];
    for s in 1..=full {
        nbr[s] = nbr[s & (s - 1)] | adj[s.trailing_zeros() as usize];
    }
    // Is joining the two leaf sets *not* a cross product (an equijoin
    // predicate exists)?
    let connected = |s: usize, t: usize| nbr[s] & t != 0;
    let mut best: Vec<Option<Best<C>>> = Vec::with_capacity(full + 1);
    best.resize_with(full + 1, || None);
    for (i, (est, cost)) in leaves.iter().enumerate() {
        best[1 << i] = Some(Best {
            est: est.clone(),
            cost: *cost,
            split: 0,
        });
    }
    for mask in 3..=full {
        if (mask as u32).count_ones() < 2 {
            continue;
        }
        // First pass: does any canonical split avoid a cross product?
        let any_connected = splits(mask).any(|s| connected(s, mask ^ s));
        // The cheapest split as (cost, left operand); its estimate is
        // built once, after the search.
        let mut chosen: Option<(f64, usize)> = None;
        for s in splits(mask) {
            let t = mask ^ s;
            if !any_connected || connected(s, t) {
                let (l, r) = (
                    best[s].as_ref().expect("smaller mask planned"),
                    best[t].as_ref().expect("smaller mask planned"),
                );
                let rows = l.est.join_rows(&r.est);
                let cost = l.cost + r.cost + join_step(l.est.rows(), r.est.rows(), rows);
                if chosen.is_none_or(|(best_cost, _)| cost < best_cost) {
                    chosen = Some((cost, s));
                }
            }
        }
        let chosen = chosen.map(|(cost, s)| {
            let (l, r) = (&best[s], &best[mask ^ s]);
            let (l, r) = (l.as_ref().expect("planned"), r.as_ref().expect("planned"));
            Best {
                est: l.est.join(&r.est),
                cost,
                split: s,
            }
        });
        best[mask] = chosen;
    }
    fn build<C>(mask: usize, best: &[Option<Best<C>>]) -> Order {
        match best[mask].as_ref().expect("mask planned").split {
            0 => Order::Leaf(mask.trailing_zeros() as usize),
            s => Order::Join(Box::new(build(s, best)), Box::new(build(mask ^ s, best))),
        }
    }
    build(full, &best)
}

/// The canonical splits of a leaf set: every left operand `s ⊂ mask` that
/// holds the set's lowest leaf, in descending order.
fn splits(mask: usize) -> impl Iterator<Item = usize> {
    let lowest = mask & mask.wrapping_neg();
    let rest = mask ^ lowest;
    let mut next = Some(rest.wrapping_sub(1) & rest);
    std::iter::from_fn(move || {
        let sub = next?;
        next = sub.checked_sub(1).map(|s| s & rest);
        Some(sub | lowest)
    })
}

/// Greedy fallback for > 8 leaves: repeatedly join the (connected, if
/// possible) pair with the smallest estimated output, deterministically
/// preferring lower indices on ties.
fn greedy_join<C: JoinEstimate>(leaves: Vec<(C, f64)>) -> Order {
    let mut work: Vec<(C, f64, Order)> = leaves
        .into_iter()
        .enumerate()
        .map(|(i, (est, cost))| (est, cost, Order::Leaf(i)))
        .collect();
    while work.len() > 1 {
        let mut pick: Option<(usize, usize, f64, bool)> = None;
        for i in 0..work.len() {
            for j in (i + 1)..work.len() {
                let connected = work[i].0.shares_col(&work[j].0);
                let rows = work[i].0.join_rows(&work[j].0);
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
        let (r_est, r_cost, r_order) = work.remove(j);
        let (l_est, l_cost, l_order) = &mut work[i];
        let est = l_est.join(&r_est);
        let cost = *l_cost + r_cost + join_step(l_est.rows(), r_est.rows(), est.rows());
        let l_order = std::mem::replace(l_order, Order::Leaf(0));
        work[i] = (est, cost, Order::Join(Box::new(l_order), Box::new(r_order)));
    }
    work.pop().expect("one plan left").2
}

/// The early-projection candidate for `π[cols](l ⋈ r)`, or `None` when
/// neither side carries a column it could drop.
fn early_project(l: &Priced, r: &Priced, cols: &[Var]) -> Option<RaExpr> {
    let (lc, rc) = (l.cols(), r.cols());
    let shared: Vec<Var> = lc.iter().copied().filter(|v| rc.contains(v)).collect();
    let keep = |side: &[Var]| -> Vec<Var> {
        side.iter()
            .copied()
            .filter(|v| cols.contains(v) || shared.contains(v))
            .collect()
    };
    let (keep_l, keep_r) = (keep(lc), keep(rc));
    if keep_l.len() == lc.len() && keep_r.len() == rc.len() {
        return None; // nothing to drop early
    }
    let narrow = |side: &Priced, keep: Vec<Var>| -> Arc<RaExpr> {
        if keep.len() == side.cols().len() {
            side.expr().clone()
        } else {
            Arc::new(RaExpr::Project {
                input: side.expr().clone(),
                cols: keep,
            })
        }
    };
    Some(RaExpr::Project {
        input: Arc::new(RaExpr::Join(narrow(l, keep_l), narrow(r, keep_r))),
        cols: cols.to_vec(),
    })
}

/// When the left union branch vanished, the surviving right branch may have
/// its columns in a different order than the union advertised; project to
/// restore the original order if needed.
fn align_union_result(survivor: Arc<RaExpr>, vanished_left: &RaExpr) -> Arc<RaExpr> {
    let want = vanished_left.cols();
    if survivor.cols() == want {
        survivor
    } else {
        simp(&Arc::new(RaExpr::Project {
            input: survivor,
            cols: want,
        }))
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

        #[test]
        fn simplify_keeps_unchanged_subtrees() {
            let plan = Arc::new(simplify(&three_way()));
            assert!(
                Arc::ptr_eq(&simp(&plan), &plan),
                "a fixpoint comes back as is"
            );
            // A rewrite above an untouched subtree keeps that subtree.
            let wrapped = Arc::new(RaExpr::Join(Arc::new(RaExpr::Unit), plan.clone()));
            assert!(Arc::ptr_eq(&simp(&wrapped), &plan));
        }

        #[test]
        fn cost_pass_returns_an_optimized_plan_as_it_is() {
            let db = skewed_db();
            let mut pass = CostPass {
                est: Estimator::new(&db),
                priced: FxHashMap::default(),
                reordered: FxHashMap::default(),
            };
            let once = pass.price(&Arc::new(optimize(&three_way(), &db)));
            let again = pass.run(&once);
            assert!(
                Rc::ptr_eq(&once.0, &again.0),
                "no node re-priced or rebuilt"
            );
        }

        /// The search over `JoinCard`s and over `CardEst`s picks the same
        /// order, through the DP (≤ 8 leaves) and the greedy pairing.
        #[test]
        fn compact_and_allocating_join_searches_agree() {
            use rand::{Rng, SeedableRng};
            let vars = ["a", "b", "c", "d", "e", "f"];
            for seed in 0..60u64 {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let n = rng.gen_range(2..11usize);
                let mut facts = String::new();
                for r in 0..n {
                    for _ in 0..rng.gen_range(0..12) {
                        let (a, b) = (rng.gen_range(0..5), rng.gen_range(0..5));
                        facts.push_str(&format!("R{r}({a}, {b})\n"));
                    }
                }
                let db = Database::from_facts(&facts).unwrap();
                let mut pass = CostPass {
                    est: Estimator::new(&db),
                    priced: FxHashMap::default(),
                    reordered: FxHashMap::default(),
                };
                let leaves: Vec<Priced> = (0..n)
                    .map(|r| {
                        let (a, b) = (rng.gen_range(0..vars.len()), rng.gen_range(0..vars.len()));
                        let scan = RaExpr::scan(
                            format!("R{r}").as_str(),
                            vec![Term::var(vars[a]), Term::var(vars[b])],
                        );
                        pass.price(&Arc::new(scan))
                    })
                    .collect();
                let cards: Vec<&CardEst> = leaves.iter().map(|l| &l.0.price.card).collect();
                let compact = JoinCard::number(&cards).expect("six columns fit");
                let full: Vec<CardEst> = cards.into_iter().cloned().collect();
                assert_eq!(
                    search_order(compact, &leaves),
                    search_order(full, &leaves),
                    "seed {seed}"
                );
            }
        }
    }
}

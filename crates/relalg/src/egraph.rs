//! Equality saturation over relational algebra plans — the
//! `planner=saturate` layer on top of the cost-based optimizer.
//!
//! The cost-based pass ([`crate::optimize::optimize`]) explores exactly one
//! algebraic dimension: join order. This module explores the *rewrite
//! space* around a plan the way cranelift's mid-end explores pure
//! expressions: the plan is loaded into an **e-graph** (equivalence
//! classes of e-nodes, merged by union-find), a curated registry of
//! soundness-proven rewrite rules ([`rules`]) enriches the classes until a
//! fixpoint or a bound is reached, and a cost-based **extraction** walks
//! the saturated graph picking the cheapest representative of every class
//! under the [`Estimator`]'s model. The chosen plan is *never costlier
//! than the input*: extraction competes against the cost-based seed plan
//! and the seed wins ties.
//!
//! ## Equivalence modulo column order
//!
//! Relations here carry variable-*named* columns, and every operator
//! (natural join, union with right-side realignment, the generalized
//! difference, selections and projections by name) is insensitive to the
//! *order* of its operands' columns — only the column *set* and the set of
//! named rows matter. An e-class therefore holds plans equal as **sets of
//! named rows over one column set**, which is what lets join commutativity
//! live in the graph even though `A ⨝ B` and `B ⨝ A` present their columns
//! in different orders. The final presentation order is restored after
//! extraction with one projection onto the seed plan's column sequence, so
//! callers observe bit-identical answers.
//!
//! ## Budgets
//!
//! Saturation is bounded three ways, all charged to the [`Budget`]
//! governor: every iteration passes a [`Budget::checkpoint`] (deadlines,
//! cancellation, fault injection), the seed plan is charged against
//! [`Budget::check_nodes`] exactly like the rewriting stages before it,
//! and the e-graph stops growing — gracefully, keeping everything proven
//! so far — once it holds `min(max_nodes, 2048)` e-nodes or has run
//! [`MAX_ITERATIONS`] rounds. Exceeding a bound never yields a wrong
//! plan: extraction only reads equalities that were fully proven.
//!
//! The rule catalog is documented (statement, side conditions, soundness
//! argument, provenance, before/after plans) in `docs/REWRITES.md`;
//! `scripts/check.sh` greps this module's registry against the catalog so
//! the two can never drift.

use crate::database::Database;
use crate::expr::{RaExpr, SelPred};
use crate::govern::{Budget, BudgetExceeded, Stage};
use crate::optimize::optimize;
use crate::stats::Estimator;
use rc_formula::fxhash::FxHashMap;
use rc_formula::Var;
use std::fmt;
use std::sync::Arc;

/// Saturation stops after this many rule-matching rounds even when the
/// graph has not reached a fixpoint (join commutativity/associativity
/// alone would otherwise enumerate every join tree).
pub const MAX_ITERATIONS: usize = 6;

/// The e-graph never grows beyond this many e-nodes; a tighter
/// [`Budget::max_nodes`] lowers the cap further.
pub const MAX_ENODES: usize = 2048;

// --------------------------------------------------------------- e-graph --

/// An e-node: one operator application whose children are e-class ids.
/// Leaves (`Scan`/`Single`/`Unit`/`Empty`) carry the leaf expression
/// verbatim.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum ENode {
    Leaf(RaExpr),
    Join(usize, usize),
    Union(usize, usize),
    Diff(usize, usize),
    Project(usize, Vec<Var>),
    Select(usize, SelPred),
    Duplicate(usize, Var, Var),
}

impl ENode {
    /// The node with every child id routed to its class root.
    fn canon(&self, g: &EGraph) -> ENode {
        match self {
            ENode::Leaf(e) => ENode::Leaf(e.clone()),
            ENode::Join(a, b) => ENode::Join(g.find(*a), g.find(*b)),
            ENode::Union(a, b) => ENode::Union(g.find(*a), g.find(*b)),
            ENode::Diff(a, b) => ENode::Diff(g.find(*a), g.find(*b)),
            ENode::Project(a, cols) => ENode::Project(g.find(*a), cols.clone()),
            ENode::Select(a, p) => ENode::Select(g.find(*a), *p),
            ENode::Duplicate(a, s, d) => ENode::Duplicate(g.find(*a), *s, *d),
        }
    }
}

/// One equivalence class: the e-nodes proven equal, plus the class
/// invariant — the sorted column *set* every member produces (members may
/// present those columns in different orders; see the module docs).
#[derive(Default)]
struct EClass {
    nodes: Vec<ENode>,
    cols: Vec<Var>,
}

/// The e-graph: a union-find over class ids, the classes, and the
/// hash-cons memo mapping canonical e-nodes to their class (the same idea
/// as [`crate::plan::Interner`], extended with merging).
#[derive(Default)]
struct EGraph {
    parent: Vec<usize>,
    classes: Vec<EClass>,
    memo: FxHashMap<ENode, usize>,
}

impl EGraph {
    fn find(&self, mut i: usize) -> usize {
        while self.parent[i] != i {
            i = self.parent[i];
        }
        i
    }

    /// Root class ids in ascending order — the deterministic iteration
    /// order every matcher and the extractor use.
    fn roots(&self) -> Vec<usize> {
        (0..self.classes.len())
            .filter(|&i| self.find(i) == i)
            .collect()
    }

    fn nodes(&self, c: usize) -> &[ENode] {
        &self.classes[self.find(c)].nodes
    }

    /// The class's column set, sorted (an invariant of every member).
    fn colset(&self, c: usize) -> &[Var] {
        &self.classes[self.find(c)].cols
    }

    fn total_enodes(&self) -> usize {
        self.roots()
            .iter()
            .map(|&r| self.classes[r].nodes.len())
            .sum()
    }

    fn colset_of(&self, n: &ENode) -> Vec<Var> {
        let mut cols = match n {
            ENode::Leaf(e) => e.cols(),
            ENode::Join(a, b) => {
                let mut cols = self.colset(*a).to_vec();
                for v in self.colset(*b) {
                    if !cols.contains(v) {
                        cols.push(*v);
                    }
                }
                cols
            }
            ENode::Union(a, _) | ENode::Diff(a, _) | ENode::Select(a, _) => {
                self.colset(*a).to_vec()
            }
            ENode::Project(_, cols) => cols.clone(),
            ENode::Duplicate(a, _, dst) => {
                let mut cols = self.colset(*a).to_vec();
                cols.push(*dst);
                cols
            }
        };
        cols.sort();
        cols.dedup();
        cols
    }

    /// Intern a whole expression tree, returning its class.
    fn add_expr(&mut self, e: &RaExpr) -> usize {
        let node = match e {
            RaExpr::Join(l, r) => ENode::Join(self.add_expr(l), self.add_expr(r)),
            RaExpr::Union(l, r) => ENode::Union(self.add_expr(l), self.add_expr(r)),
            RaExpr::Diff(l, r) => ENode::Diff(self.add_expr(l), self.add_expr(r)),
            RaExpr::Project { input, cols } => ENode::Project(self.add_expr(input), cols.clone()),
            RaExpr::Select { input, pred } => ENode::Select(self.add_expr(input), *pred),
            RaExpr::Duplicate { input, src, dst } => {
                ENode::Duplicate(self.add_expr(input), *src, *dst)
            }
            leaf => ENode::Leaf(leaf.clone()),
        };
        self.add(node)
    }

    /// Intern one node, creating a fresh class when it is unknown.
    fn add(&mut self, node: ENode) -> usize {
        let node = node.canon(self);
        if let Some(&id) = self.memo.get(&node) {
            return self.find(id);
        }
        let cols = self.colset_of(&node);
        let id = self.classes.len();
        self.classes.push(EClass {
            nodes: vec![node.clone()],
            cols,
        });
        self.parent.push(id);
        self.memo.insert(node, id);
        id
    }

    /// Record that `node` is equal to everything in `target`. When the
    /// node is already interned elsewhere this *merges* the two classes
    /// (the union-find half of saturation). Returns whether the graph
    /// changed.
    fn add_to(&mut self, target: usize, node: ENode) -> bool {
        let target = self.find(target);
        let node = node.canon(self);
        if let Some(&id) = self.memo.get(&node) {
            return self.merge(id, target);
        }
        debug_assert_eq!(
            self.colset_of(&node),
            self.classes[target].cols,
            "rewrite changed the column set — unsound rule"
        );
        self.memo.insert(node.clone(), target);
        self.classes[target].nodes.push(node);
        true
    }

    /// Union two classes; the smaller root id wins (deterministic).
    fn merge(&mut self, a: usize, b: usize) -> bool {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return false;
        }
        let (winner, loser) = if a < b { (a, b) } else { (b, a) };
        debug_assert_eq!(self.classes[winner].cols, self.classes[loser].cols);
        self.parent[loser] = winner;
        let moved = std::mem::take(&mut self.classes[loser].nodes);
        self.classes[winner].nodes.extend(moved);
        true
    }

    /// Restore congruence after a batch of additions and merges:
    /// re-canonicalize every node, dedup within classes, and merge classes
    /// that now share a node, repeating until no merge fires.
    fn rebuild(&mut self) {
        loop {
            let mut memo: FxHashMap<ENode, usize> = FxHashMap::default();
            let mut pending: Vec<(usize, usize)> = Vec::new();
            for id in 0..self.classes.len() {
                if self.find(id) != id {
                    continue;
                }
                let nodes = std::mem::take(&mut self.classes[id].nodes);
                let mut fresh: Vec<ENode> = Vec::with_capacity(nodes.len());
                for n in nodes {
                    let c = n.canon(self);
                    if !fresh.contains(&c) {
                        fresh.push(c);
                    }
                }
                for n in &fresh {
                    match memo.get(n) {
                        Some(&other) if self.find(other) != id => pending.push((other, id)),
                        Some(_) => {}
                        None => {
                            memo.insert(n.clone(), id);
                        }
                    }
                }
                self.classes[id].nodes = fresh;
            }
            self.memo = memo;
            if pending.is_empty() {
                break;
            }
            for (a, b) in pending {
                self.merge(a, b);
            }
        }
    }

    // ---------------------------------------------------------- extract --

    /// Cost-based extraction: pick, per class, the cheapest expression
    /// buildable from already-extracted children, iterating to a fixpoint
    /// (classes in a cycle become extractable as soon as one member's
    /// children resolve). Costs come from the full [`Estimator`] model —
    /// including harvested-cardinality feedback — evaluated on the rebuilt
    /// subtree, exactly like the cost-based planner's own gate.
    fn extract(&self, root: usize, est: &Estimator) -> Option<RaExpr> {
        let mut best: Vec<Option<(f64, RaExpr)>> = vec![None; self.classes.len()];
        for _ in 0..self.classes.len().max(1) {
            let mut changed = false;
            for id in self.roots() {
                for node in self.nodes(id) {
                    let Some(expr) = self.build(node, &best) else {
                        continue;
                    };
                    let cost = est.cost(&expr);
                    match &best[id] {
                        Some((c, _)) if *c <= cost => {}
                        _ => {
                            best[id] = Some((cost, expr));
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        best[self.find(root)].clone().map(|(_, e)| e)
    }

    fn build(&self, node: &ENode, best: &[Option<(f64, RaExpr)>]) -> Option<RaExpr> {
        let get = |i: &usize| best[self.find(*i)].as_ref().map(|(_, e)| e.clone());
        Some(match node {
            ENode::Leaf(e) => e.clone(),
            ENode::Join(a, b) => RaExpr::join(get(a)?, get(b)?),
            ENode::Union(a, b) => RaExpr::union(get(a)?, get(b)?),
            ENode::Diff(a, b) => RaExpr::diff(get(a)?, get(b)?),
            ENode::Project(a, cols) => RaExpr::project(get(a)?, cols.clone()),
            ENode::Select(a, p) => RaExpr::select(get(a)?, *p),
            ENode::Duplicate(a, src, dst) => RaExpr::Duplicate {
                input: Arc::new(get(a)?),
                src: *src,
                dst: *dst,
            },
        })
    }
}

// ----------------------------------------------------------------- rules --

/// A recipe for a new e-node over existing classes: matchers return these
/// so rule application (which needs `&mut` access to intern intermediate
/// nodes) stays separate from matching (which holds `&` borrows).
enum Sketch {
    /// An existing class, used verbatim.
    C(usize),
    Join(Box<Sketch>, Box<Sketch>),
    Union(Box<Sketch>, Box<Sketch>),
    Diff(Box<Sketch>, Box<Sketch>),
    Select(Box<Sketch>, SelPred),
    Project(Box<Sketch>, Vec<Var>),
}

impl Sketch {
    fn class(self, g: &mut EGraph) -> usize {
        match self {
            Sketch::C(id) => g.find(id),
            other => {
                let n = other.node(g);
                g.add(n)
            }
        }
    }

    /// The top-level e-node this sketch describes (interning every
    /// intermediate level). Matchers never emit a bare `C` at top level.
    fn node(self, g: &mut EGraph) -> ENode {
        match self {
            Sketch::C(_) => unreachable!("top-level sketch is never a bare class"),
            Sketch::Join(a, b) => ENode::Join(a.class(g), b.class(g)),
            Sketch::Union(a, b) => ENode::Union(a.class(g), b.class(g)),
            Sketch::Diff(a, b) => ENode::Diff(a.class(g), b.class(g)),
            Sketch::Select(a, p) => ENode::Select(a.class(g), p),
            Sketch::Project(a, cols) => ENode::Project(a.class(g), cols),
        }
    }
}

fn c(id: usize) -> Box<Sketch> {
    Box::new(Sketch::C(id))
}

/// One registered rewrite rule: a named, soundness-proven relational
/// algebra equivalence. The `name` is the stable key `docs/REWRITES.md`
/// documents the rule under — `scripts/check.sh` cross-greps the two so
/// registry and catalog cannot drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RewriteRule {
    /// Stable kebab-case rule name (the catalog key).
    pub name: &'static str,
    /// One-line statement of the equivalence with its side conditions.
    pub equivalence: &'static str,
}

struct RuleDef {
    meta: RewriteRule,
    find: fn(&EGraph) -> Vec<(usize, Sketch)>,
}

/// σp(A ⨝ B) = σp(A) ⨝ B when cols(p) ⊆ cols(A), and symmetrically into B.
///
/// # Soundness
///
/// A row survives σp iff its values on cols(p) satisfy p, and the natural
/// join assembles each output row from one A-row and one B-row agreeing on
/// the shared columns. When cols(p) ⊆ cols(A), the output row's values on
/// cols(p) are exactly the contributing A-row's values there, so filtering
/// the output by p equals filtering A's contributions by p first — the
/// same argument Van Gelder & Topor's Sec. 9.3 translation relies on when
/// it fuses restrictive conjuncts into their generators.
fn find_select_push_join(g: &EGraph) -> Vec<(usize, Sketch)> {
    let mut out = Vec::new();
    for cls in g.roots() {
        for n in g.nodes(cls) {
            let ENode::Select(input, pred) = n else {
                continue;
            };
            for m in g.nodes(*input) {
                let ENode::Join(l, r) = m else {
                    continue;
                };
                let pc = pred.cols();
                if pc.iter().all(|v| g.colset(*l).contains(v)) {
                    let side = Box::new(Sketch::Select(c(*l), *pred));
                    out.push((cls, Sketch::Join(side, c(*r))));
                }
                if pc.iter().all(|v| g.colset(*r).contains(v)) {
                    let side = Box::new(Sketch::Select(c(*r), *pred));
                    out.push((cls, Sketch::Join(c(*l), side)));
                }
            }
        }
    }
    out
}

/// σp(A ∪ B) = σp(A) ∪ σp(B).
///
/// # Soundness
///
/// Union (with the right side realigned to the left's column order) is
/// row-set union over one column set, and σp is a per-row filter on
/// cols(p) ⊆ that set; a per-row filter distributes over set union
/// unconditionally. No side condition beyond the union's own validity.
fn find_select_push_union(g: &EGraph) -> Vec<(usize, Sketch)> {
    let mut out = Vec::new();
    for cls in g.roots() {
        for n in g.nodes(cls) {
            let ENode::Select(input, pred) = n else {
                continue;
            };
            for m in g.nodes(*input) {
                let ENode::Union(l, r) = m else {
                    continue;
                };
                let sl = Box::new(Sketch::Select(c(*l), *pred));
                let sr = Box::new(Sketch::Select(c(*r), *pred));
                out.push((cls, Sketch::Union(sl, sr)));
            }
        }
    }
    out
}

/// σp(A − B) = σp(A) − B — the **left side only**.
///
/// # Soundness
///
/// The generalized difference keeps each A-row whose projection onto
/// cols(B) does not appear in B; σp then filters the survivors on
/// cols(p) ⊆ cols(A). Filtering before or after the membership test is
/// the same set because the test never changes a row. Pushing into the
/// *right* side is **unsound**: with A = {1, 2}, B = {2} and p = (x ≠ 2),
/// σp(A − B) = {1} but A − σp(B) = A − ∅ = {1, 2} — the audit pinned in
/// [`crate::optimize`]'s module docs.
fn find_select_push_diff(g: &EGraph) -> Vec<(usize, Sketch)> {
    let mut out = Vec::new();
    for cls in g.roots() {
        for n in g.nodes(cls) {
            let ENode::Select(input, pred) = n else {
                continue;
            };
            for m in g.nodes(*input) {
                let ENode::Diff(l, r) = m else {
                    continue;
                };
                let sl = Box::new(Sketch::Select(c(*l), *pred));
                out.push((cls, Sketch::Diff(sl, c(*r))));
            }
        }
    }
    out
}

/// (A ⨝ C) ∪ (B ⨝ C) = (A ∪ B) ⨝ C when cols(A) = cols(B) as sets (and
/// the mirrored common-left-factor form).
///
/// # Soundness
///
/// The natural join distributes over union: a row is in (A ∪ B) ⨝ C iff
/// it decomposes into a C-row and an (A ∪ B)-row agreeing on the shared
/// columns, iff it is in A ⨝ C or in B ⨝ C. The side condition
/// cols(A) = cols(B) makes A ∪ B well-formed *and* pins both joins to the
/// same shared-column set with C, so "agreeing on the shared columns"
/// means the same thing on both sides of the equation. The common factor
/// C is recognized as one e-*class* (anything proven equal), not one
/// syntactic subtree.
fn find_union_factor(g: &EGraph) -> Vec<(usize, Sketch)> {
    let mut out = Vec::new();
    for cls in g.roots() {
        for n in g.nodes(cls) {
            let ENode::Union(x, y) = n else {
                continue;
            };
            for jx in g.nodes(*x) {
                let ENode::Join(a, b) = jx else {
                    continue;
                };
                for jy in g.nodes(*y) {
                    let ENode::Join(p, q) = jy else {
                        continue;
                    };
                    // Common right factor: (A ⨝ C) ∪ (B ⨝ C).
                    if g.find(*b) == g.find(*q) && g.colset(*a) == g.colset(*p) {
                        let u = Box::new(Sketch::Union(c(*a), c(*p)));
                        out.push((cls, Sketch::Join(u, c(*b))));
                    }
                    // Common left factor: (C ⨝ A) ∪ (C ⨝ B).
                    if g.find(*a) == g.find(*p) && g.colset(*b) == g.colset(*q) {
                        let u = Box::new(Sketch::Union(c(*b), c(*q)));
                        out.push((cls, Sketch::Join(c(*a), u)));
                    }
                }
            }
        }
    }
    out
}

/// (A ∪ B) − W = (A − W) ∪ (B − W), matched in both orientations (the
/// factoring direction requires cols(A) = cols(B) and one shared W class).
///
/// # Soundness
///
/// The generalized difference is a per-row filter on its left operand:
/// keep t iff t's projection onto cols(W) is absent from W. A per-row
/// filter distributes over set union, in both directions. Distribution
/// needs no side condition beyond the input's validity (cols(W) ⊆ the
/// union's column set, which equals both branches' sets); factoring
/// additionally checks cols(A) = cols(B) so A ∪ B is well-formed, and
/// recognizes W as one e-class on both branches.
fn find_diff_distribute(g: &EGraph) -> Vec<(usize, Sketch)> {
    let mut out = Vec::new();
    for cls in g.roots() {
        for n in g.nodes(cls) {
            match n {
                // Distribute: (A ∪ B) − W.
                ENode::Diff(u, w) => {
                    for m in g.nodes(*u) {
                        let ENode::Union(a, b) = m else {
                            continue;
                        };
                        let da = Box::new(Sketch::Diff(c(*a), c(*w)));
                        let db = Box::new(Sketch::Diff(c(*b), c(*w)));
                        out.push((cls, Sketch::Union(da, db)));
                    }
                }
                // Factor: (A − W) ∪ (B − W).
                ENode::Union(x, y) => {
                    for dx in g.nodes(*x) {
                        let ENode::Diff(a, w1) = dx else {
                            continue;
                        };
                        for dy in g.nodes(*y) {
                            let ENode::Diff(b, w2) = dy else {
                                continue;
                            };
                            if g.find(*w1) == g.find(*w2) && g.colset(*a) == g.colset(*b) {
                                let u = Box::new(Sketch::Union(c(*a), c(*b)));
                                out.push((cls, Sketch::Diff(u, c(*w1))));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// π\[C\](A ⨝ B) = π\[C\](π\[Ca\](A) ⨝ π\[Cb\](B)) where Ca/Cb keep each
/// side's needed and shared join columns.
///
/// # Soundness
///
/// The join matches rows on the shared columns only, and the outer
/// projection keeps C only — so a column of A that is neither shared nor
/// in C influences nothing but set-semantics multiplicity, which set
/// semantics erases. Keeping Ca = cols(A) ∩ (C ∪ shared) therefore
/// preserves exactly the joinable combinations and their projections
/// (likewise Cb). Dropping a *shared* column would change the join
/// predicate, so shared columns are always retained. A side that becomes
/// 0-ary (π\[∅\]) degenerates to an existence test, which is precisely the
/// cross-product semantics the natural join gives 0-ary operands. This is
/// the e-graph form of the cost pass's early-projection heuristic
/// ([`crate::optimize`]), generalized past the single shape it rewrote.
fn find_project_narrow(g: &EGraph) -> Vec<(usize, Sketch)> {
    let mut out = Vec::new();
    for cls in g.roots() {
        for n in g.nodes(cls) {
            let ENode::Project(input, cols) = n else {
                continue;
            };
            for m in g.nodes(*input) {
                let ENode::Join(l, r) = m else {
                    continue;
                };
                let (lc, rc) = (g.colset(*l), g.colset(*r));
                let shared: Vec<Var> = lc.iter().filter(|v| rc.contains(v)).copied().collect();
                let keep = |side: &[Var]| -> Vec<Var> {
                    side.iter()
                        .filter(|v| cols.contains(v) || shared.contains(v))
                        .copied()
                        .collect()
                };
                let (kl, kr) = (keep(lc), keep(rc));
                if kl.len() == lc.len() && kr.len() == rc.len() {
                    continue;
                }
                let narrow = |id: usize, k: Vec<Var>, full: usize| -> Box<Sketch> {
                    if k.len() == full {
                        c(id)
                    } else {
                        Box::new(Sketch::Project(c(id), k))
                    }
                };
                let j = Sketch::Join(narrow(*l, kl, lc.len()), narrow(*r, kr, rc.len()));
                out.push((cls, Sketch::Project(Box::new(j), cols.clone())));
            }
        }
    }
    out
}

/// A ⨝ B = B ⨝ A.
///
/// # Soundness
///
/// The natural join matches rows by column *name*; the set of assembled
/// named rows is symmetric in the operands. Only the column presentation
/// order differs, and e-class equivalence is modulo column order (the
/// extracted plan is re-projected onto the seed's column sequence, so the
/// answer presentation never changes).
fn find_join_commute(g: &EGraph) -> Vec<(usize, Sketch)> {
    let mut out = Vec::new();
    for cls in g.roots() {
        for n in g.nodes(cls) {
            let ENode::Join(l, r) = n else {
                continue;
            };
            out.push((cls, Sketch::Join(c(*r), c(*l))));
        }
    }
    out
}

/// (A ⨝ B) ⨝ C = A ⨝ (B ⨝ C).
///
/// # Soundness
///
/// Either side assembles exactly the named rows whose projections onto
/// cols(A), cols(B), cols(C) lie in A, B, C respectively — the natural
/// join is associative over named rows regardless of how the three column
/// sets overlap. Together with `join-commute` this lets saturation reach
/// alternative join trees; the cheapest is then chosen by extraction and
/// polished by the existing DP reorderer, which the saturating planner
/// runs on the extracted tree.
fn find_join_associate(g: &EGraph) -> Vec<(usize, Sketch)> {
    let mut out = Vec::new();
    for cls in g.roots() {
        for n in g.nodes(cls) {
            let ENode::Join(x, z) = n else {
                continue;
            };
            for m in g.nodes(*x) {
                let ENode::Join(a, b) = m else {
                    continue;
                };
                let inner = Box::new(Sketch::Join(c(*b), c(*z)));
                out.push((cls, Sketch::Join(c(*a), inner)));
            }
        }
    }
    out
}

const RULE_DEFS: &[RuleDef] = &[
    RuleDef {
        meta: RewriteRule {
            name: "select-push-join",
            equivalence: "σp(A ⨝ B) = σp(A) ⨝ B  when cols(p) ⊆ cols(A); symmetrically into B",
        },
        find: find_select_push_join,
    },
    RuleDef {
        meta: RewriteRule {
            name: "select-push-union",
            equivalence: "σp(A ∪ B) = σp(A) ∪ σp(B)",
        },
        find: find_select_push_union,
    },
    RuleDef {
        meta: RewriteRule {
            name: "select-push-diff",
            equivalence: "σp(A − B) = σp(A) − B  (left side only; right-side pushdown is unsound)",
        },
        find: find_select_push_diff,
    },
    RuleDef {
        meta: RewriteRule {
            name: "union-factor",
            equivalence: "(A ⨝ C) ∪ (B ⨝ C) = (A ∪ B) ⨝ C  when cols(A) = cols(B)",
        },
        find: find_union_factor,
    },
    RuleDef {
        meta: RewriteRule {
            name: "diff-distribute",
            equivalence: "(A ∪ B) − W = (A − W) ∪ (B − W)  (both orientations)",
        },
        find: find_diff_distribute,
    },
    RuleDef {
        meta: RewriteRule {
            name: "project-narrow",
            equivalence: "π[C](A ⨝ B) = π[C](π[Ca](A) ⨝ π[Cb](B)), Ca/Cb = needed ∪ shared cols",
        },
        find: find_project_narrow,
    },
    RuleDef {
        meta: RewriteRule {
            name: "join-commute",
            equivalence: "A ⨝ B = B ⨝ A  (named columns; presentation restored at extraction)",
        },
        find: find_join_commute,
    },
    RuleDef {
        meta: RewriteRule {
            name: "join-associate",
            equivalence: "(A ⨝ B) ⨝ C = A ⨝ (B ⨝ C)",
        },
        find: find_join_associate,
    },
];

/// The registered rewrite rules, in application order. Every entry has a
/// matching section in `docs/REWRITES.md` (enforced by `scripts/check.sh`).
pub fn rules() -> Vec<RewriteRule> {
    RULE_DEFS.iter().map(|d| d.meta).collect()
}

// ---------------------------------------------------------------- driver --

/// What one saturation run did — surfaced verbatim as the `egraph=`
/// fragment of the Optimize stage's trace detail (deterministic: no wall
/// times, only counts).
#[derive(Clone, Debug, PartialEq)]
pub struct SaturationReport {
    /// Rule-matching rounds run.
    pub iterations: usize,
    /// E-classes in the final graph.
    pub classes: usize,
    /// E-nodes in the final graph.
    pub enodes: usize,
    /// Graph-changing applications per registered rule, in registry order
    /// (zero entries retained so the vector always mirrors [`rules`]).
    pub applied: Vec<(&'static str, usize)>,
    /// Did saturation reach a fixpoint (vs stopping on the node cap or
    /// [`MAX_ITERATIONS`])?
    pub saturated: bool,
    /// Was the extracted plan strictly cheaper than the cost-based seed?
    pub improved: bool,
}

impl SaturationReport {
    /// Total graph-changing rule applications across all rules.
    pub fn total_applied(&self) -> usize {
        self.applied.iter().map(|(_, n)| n).sum()
    }
}

impl fmt::Display for SaturationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "classes:{},nodes:{},iters:{},applied:{}",
            self.classes,
            self.enodes,
            self.iterations,
            self.total_applied()
        )?;
        let fired: Vec<String> = self
            .applied
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| format!("{name}:{n}"))
            .collect();
        if !fired.is_empty() {
            write!(f, "[{}]", fired.join(","))?;
        }
        write!(
            f,
            ",saturated:{},improved:{}",
            self.saturated, self.improved
        )
    }
}

/// Equality-saturate a plan under a resource [`Budget`].
///
/// Seeds the e-graph with the cost-based plan ([`optimize`]), saturates it
/// under the registered [`rules`] (bounded by [`MAX_ITERATIONS`], the
/// e-node cap, and the budget's checkpoints), extracts the cheapest
/// representative under `db`'s [`Estimator`], re-projects it onto the
/// seed's column order, polishes it with one more [`optimize`] pass (this
/// is how commutativity/associativity feed the existing DP join
/// reorderer), and keeps whichever of {extracted, seed} the estimator
/// prices lower — the **extraction-never-costlier** invariant.
///
/// Errors only through the governor: cancellation, deadline, fault
/// injection, or a [`Budget::max_nodes`] bound smaller than the seed plan.
pub fn saturate_governed(
    e: &RaExpr,
    db: &Database,
    budget: &Budget,
) -> Result<(RaExpr, SaturationReport), BudgetExceeded> {
    budget.checkpoint(Stage::Optimize)?;
    let seed = optimize(e, db);
    budget.check_nodes(Stage::Optimize, seed.node_count() as u64)?;
    let cap = budget
        .max_nodes()
        .map_or(MAX_ENODES, |n| (n as usize).min(MAX_ENODES));

    let mut g = EGraph::default();
    let root = g.add_expr(&seed);
    let mut applied = vec![0usize; RULE_DEFS.len()];
    let mut iterations = 0;
    let mut saturated = false;
    'outer: while iterations < MAX_ITERATIONS {
        budget.checkpoint(Stage::Optimize)?;
        iterations += 1;
        let mut changed = false;
        for (i, def) in RULE_DEFS.iter().enumerate() {
            for (target, sketch) in (def.find)(&g) {
                if g.total_enodes() >= cap {
                    // Stop growing gracefully: everything proven so far
                    // stays usable by extraction.
                    g.rebuild();
                    break 'outer;
                }
                let node = sketch.node(&mut g);
                if g.add_to(target, node) {
                    applied[i] += 1;
                    changed = true;
                }
            }
        }
        g.rebuild();
        if !changed {
            saturated = true;
            break;
        }
    }

    let est = Estimator::new(db);
    let (expr, improved) = match g.extract(g.find(root), &est) {
        Some(extracted) => {
            let aligned = align_columns(extracted, seed.cols());
            let candidate = optimize(&aligned, db);
            if est.cost(&candidate) < est.cost(&seed) {
                (candidate, true)
            } else {
                (seed, false)
            }
        }
        None => (seed, false),
    };
    let report = SaturationReport {
        iterations,
        classes: g.roots().len(),
        enodes: g.total_enodes(),
        applied: RULE_DEFS
            .iter()
            .zip(&applied)
            .map(|(d, &n)| (d.meta.name, n))
            .collect(),
        saturated,
        improved,
    };
    Ok((expr, report))
}

/// Present `e`'s columns in exactly the order `want` (a permutation of
/// `e`'s column set) — the projection that restores the caller-visible
/// column sequence after order-insensitive rewriting.
fn align_columns(e: RaExpr, want: Vec<Var>) -> RaExpr {
    if e.cols() == want {
        e
    } else {
        RaExpr::project(e, want)
    }
}

/// Equality-saturate a plan with an unlimited budget — the convenience
/// form of [`saturate_governed`].
///
/// The result computes the same relation as `e` (same rows, same column
/// order) and is never estimated costlier:
///
/// ```
/// use rc_formula::Term;
/// use rc_relalg::{eval, saturate, Database, Estimator, EvalCtx, RaExpr};
///
/// let db = Database::from_facts(
///     "A(1, 10)\nB(2, 10)\nC(10, 5)\nC(10, 6)\nC(11, 7)",
/// ).unwrap();
/// let ab = |p: &str| RaExpr::scan(p, vec![Term::var("x"), Term::var("y")]);
/// let cc = || RaExpr::scan("C", vec![Term::var("y"), Term::var("z")]);
/// // (A ⨝ C) ∪ (B ⨝ C): the cost-based planner keeps both joins; the
/// // union-factor rule proves (A ∪ B) ⨝ C equal and extraction picks it.
/// let plan = RaExpr::union(RaExpr::join(ab("A"), cc()), RaExpr::join(ab("B"), cc()));
/// let rewritten = saturate(&plan, &db);
/// let run = |e: &RaExpr| eval(e, &db, &mut EvalCtx::default()).unwrap();
/// assert_eq!(run(&rewritten), run(&plan));
/// let est = Estimator::new(&db);
/// assert!(est.cost(&rewritten) <= est.cost(&plan));
/// ```
pub fn saturate(e: &RaExpr, db: &Database) -> RaExpr {
    saturate_governed(e, db, Budget::unlimited())
        .expect("unlimited budget cannot trip")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, EvalCtx};
    use crate::optimize::simplify;
    use rc_formula::{Term, Value};

    fn var(s: &str) -> Var {
        Var::new(s)
    }

    fn skewed_db() -> Database {
        // A and B small, C large: factoring the shared C join wins.
        let mut facts = String::new();
        for i in 0..6 {
            facts.push_str(&format!("A({i}, {})\n", i % 3));
            facts.push_str(&format!("B({}, {})\n", i + 10, i % 3));
        }
        for i in 0..60 {
            facts.push_str(&format!("C({}, {i})\n", i % 3));
        }
        Database::from_facts(&facts).unwrap()
    }

    fn ab(p: &str) -> RaExpr {
        RaExpr::scan(p, vec![Term::var("x"), Term::var("y")])
    }

    fn cscan() -> RaExpr {
        RaExpr::scan("C", vec![Term::var("y"), Term::var("z")])
    }

    #[test]
    fn registry_names_are_unique_kebab_case() {
        let names: Vec<&str> = rules().iter().map(|r| r.name).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate rule name {n}");
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule name {n} is not kebab-case"
            );
        }
        assert_eq!(names.len(), RULE_DEFS.len());
    }

    #[test]
    fn union_factor_fires_and_improves() {
        let db = skewed_db();
        let plan = RaExpr::union(
            RaExpr::join(ab("A"), cscan()),
            RaExpr::join(ab("B"), cscan()),
        );
        let (rewritten, report) = saturate_governed(&plan, &db, Budget::unlimited()).unwrap();
        let fired = report
            .applied
            .iter()
            .find(|(n, _)| *n == "union-factor")
            .unwrap()
            .1;
        assert!(fired > 0, "union-factor should match: {report}");
        assert!(report.improved, "factored plan should cost less: {report}");
        assert_eq!(rewritten.cols(), plan.cols(), "column order preserved");
        assert_eq!(
            eval(&rewritten, &db, &mut EvalCtx::default()).unwrap(),
            eval(&plan, &db, &mut EvalCtx::default()).unwrap()
        );
        let est = Estimator::new(&db);
        assert!(est.cost(&rewritten) < est.cost(&optimize(&plan, &db)));
    }

    #[test]
    fn diff_factoring_discovered_from_distributed_form() {
        let db = skewed_db();
        let w = RaExpr::scan("C", vec![Term::var("x"), Term::var("y")]);
        let plan = RaExpr::union(
            RaExpr::diff(ab("A"), w.clone()),
            RaExpr::diff(ab("B"), w.clone()),
        );
        let (rewritten, report) = saturate_governed(&plan, &db, Budget::unlimited()).unwrap();
        let fired = report
            .applied
            .iter()
            .find(|(n, _)| *n == "diff-distribute")
            .unwrap()
            .1;
        assert!(fired > 0, "diff-distribute should match: {report}");
        assert_eq!(
            eval(&rewritten, &db, &mut EvalCtx::default()).unwrap(),
            eval(&plan, &db, &mut EvalCtx::default()).unwrap()
        );
    }

    #[test]
    fn select_never_pushes_into_diff_right_side() {
        // The classic counterexample: A = {1, 2}, B = {2}, p = (x ≠ 2).
        let db = Database::from_facts("A(1)\nA(2)\nB(2)").unwrap();
        let a = RaExpr::scan("A", vec![Term::var("x")]);
        let b = RaExpr::scan("B", vec![Term::var("x")]);
        let plan = RaExpr::select(
            RaExpr::diff(a, b),
            SelPred::NeqConst(var("x"), Value::int(2)),
        );
        let rewritten = saturate(&plan, &db);
        let ans = eval(&rewritten, &db, &mut EvalCtx::default()).unwrap();
        assert_eq!(ans, eval(&plan, &db, &mut EvalCtx::default()).unwrap());
        assert_eq!(ans.len(), 1, "σ[x≠2](A − B) = {{1}}");
    }

    #[test]
    fn extraction_never_costlier_than_cost_plan() {
        let db = skewed_db();
        let est = Estimator::new(&db);
        let shapes = vec![
            RaExpr::union(
                RaExpr::join(ab("A"), cscan()),
                RaExpr::join(ab("B"), cscan()),
            ),
            RaExpr::project(RaExpr::join(ab("A"), cscan()), vec![var("x")]),
            RaExpr::select(
                RaExpr::diff(ab("A"), ab("B")),
                SelPred::NeqConst(var("x"), Value::int(1)),
            ),
            RaExpr::join(RaExpr::join(cscan(), ab("A")), ab("B")),
        ];
        for plan in shapes {
            let rewritten = saturate(&plan, &db);
            assert!(
                est.cost(&rewritten) <= est.cost(&optimize(&plan, &db)),
                "saturate must never cost more than optimize on {plan}"
            );
            assert!(
                est.cost(&rewritten) <= est.cost(&simplify(&plan)),
                "saturate must never cost more than simplify on {plan}"
            );
            assert_eq!(
                eval(&rewritten, &db, &mut EvalCtx::default()).unwrap(),
                eval(&plan, &db, &mut EvalCtx::default()).unwrap()
            );
        }
    }

    #[test]
    fn cancelled_budget_trips_saturation() {
        let db = skewed_db();
        let budget = Budget::new();
        budget.cancel_handle().cancel();
        let plan = RaExpr::join(ab("A"), cscan());
        let err = saturate_governed(&plan, &db, &budget).unwrap_err();
        assert_eq!(err.stage, Stage::Optimize);
    }

    #[test]
    fn node_budget_smaller_than_seed_trips() {
        let db = skewed_db();
        let plan = RaExpr::union(
            RaExpr::join(ab("A"), cscan()),
            RaExpr::join(ab("B"), cscan()),
        );
        let budget = Budget::new().with_max_nodes(2);
        assert!(saturate_governed(&plan, &db, &budget).is_err());
    }

    #[test]
    fn tight_node_cap_degrades_gracefully() {
        let db = skewed_db();
        let plan = RaExpr::union(
            RaExpr::join(ab("A"), cscan()),
            RaExpr::join(ab("B"), cscan()),
        );
        // Enough for the seed, too tight to saturate: falls back to the
        // cost-based plan, never errors, never wrong.
        let budget = Budget::new().with_max_nodes(plan.node_count() as u64 + 2);
        let (rewritten, report) = saturate_governed(&plan, &db, &budget).unwrap();
        assert!(!report.saturated);
        assert_eq!(
            eval(&rewritten, &db, &mut EvalCtx::default()).unwrap(),
            eval(&plan, &db, &mut EvalCtx::default()).unwrap()
        );
    }

    #[test]
    fn report_display_is_deterministic_and_compact() {
        let db = skewed_db();
        let plan = RaExpr::union(
            RaExpr::join(ab("A"), cscan()),
            RaExpr::join(ab("B"), cscan()),
        );
        let (_, r1) = saturate_governed(&plan, &db, Budget::unlimited()).unwrap();
        let (_, r2) = saturate_governed(&plan, &db, Budget::unlimited()).unwrap();
        assert_eq!(r1, r2, "saturation is deterministic");
        let s = r1.to_string();
        assert!(s.starts_with("classes:"), "{s}");
        assert!(s.contains("saturated:"), "{s}");
        assert!(!s.contains(' '), "no spaces in the trace fragment: {s}");
    }

    #[test]
    fn saturated_plans_validate() {
        let db = skewed_db();
        let shapes = vec![
            RaExpr::union(
                RaExpr::join(ab("A"), cscan()),
                RaExpr::join(ab("B"), cscan()),
            ),
            RaExpr::project(RaExpr::join(ab("A"), cscan()), vec![var("z"), var("x")]),
        ];
        for plan in shapes {
            let rewritten = saturate(&plan, &db);
            rewritten.validate(None).expect("extracted plan validates");
        }
    }
}

//! Plan identity: hash-consing [`RaExpr`] trees into DAGs.
//!
//! The genify/RANF pipeline routinely emits the *same* scan/join/diff
//! subplan several times — Algorithm 8.1 duplicates conjuncts as
//! generators, and the RANF rewrite copies range subformulas into every
//! union branch. [`intern`] folds those duplicates together: it rebuilds an
//! expression bottom-up through a structural table so that equal subtrees
//! become the *same* [`Arc`] allocation. The result prints, compares, and
//! evaluates exactly like the input tree, but
//!
//! * physically shared nodes make [`Arc::ptr_eq`] a sound (and complete,
//!   within one interner) structural-equality test, which the evaluator
//!   ([`crate::eval::eval`]) exploits to compute each distinct subplan once
//!   per run;
//! * [`InternStats`] quantifies the sharing, and is surfaced through the
//!   pipeline trace so `explain` can report how much of a plan is reused.
//!
//! Interning runs in O(tree size): children are interned before their
//! parent, so the table can key each interior node on its children's
//! *addresses* (pointer identity ⇔ structural identity for interned nodes)
//! instead of re-hashing whole subtrees.
//!
//! [`plan_hash`] complements this with a structural fingerprint used by the
//! cross-run [`crate::cache::PlanCache`]. The hash is deterministic within
//! a process but **not** a stable on-disk identity: [`rc_formula::Symbol`]
//! hashes by interner index, which depends on interning order.
//!
//! Execution policy is deliberately *excluded* from plan identity: a
//! forced partition count ([`crate::Budget::with_partitions`]) changes how
//! kernels split their data, never the relation they produce, so plans
//! evaluated under different partition policies share one hash — a cached
//! result computed sequentially is bit-identical to a partitioned re-run
//! (the invisibility contract pinned by `tests/prop_engine.rs`).

use crate::expr::{RaExpr, SelPred};
use rc_formula::fxhash::{FxHashMap, FxHasher};
use rc_formula::Var;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Sharing report from [`intern`] / [`Interner::intern`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct InternStats {
    /// Operator nodes in the input *tree* (duplicates counted repeatedly).
    pub tree_nodes: usize,
    /// Nodes newly added to the interner's table by this call — for a fresh
    /// interner, the number of structurally distinct subplans.
    pub unique_nodes: usize,
}

impl InternStats {
    /// Node visits that resolved to an already-interned subplan — the
    /// evaluation work the memoizing evaluator saves on this plan (plus, for
    /// a long-lived [`Interner`], sharing against previously seen plans).
    pub fn shared_nodes(&self) -> usize {
        self.tree_nodes - self.unique_nodes
    }
}

/// Shallow identity of a node whose children are already interned: interior
/// nodes key on child *addresses*, leaves on their (small) contents.
#[derive(PartialEq, Eq, Hash)]
enum Key {
    Leaf(RaExpr),
    Join(usize, usize),
    Union(usize, usize),
    Diff(usize, usize),
    Divide(usize, usize),
    Project(usize, Vec<Var>),
    Select(usize, SelPred),
    Duplicate(usize, Var, Var),
}

fn addr(a: &Arc<RaExpr>) -> usize {
    Arc::as_ptr(a) as usize
}

/// A hash-consing table. Reuse one interner across plans to share subtrees
/// *between* queries (e.g. a server loop interning every compiled plan);
/// use [`intern`] for one-shot interning of a single expression.
#[derive(Default)]
pub struct Interner {
    table: FxHashMap<Key, Arc<RaExpr>>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Number of distinct subplans interned so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Intern an expression: returns a structurally equal DAG whose
    /// duplicate subtrees are physically shared (with each other and with
    /// everything previously interned through this table).
    pub fn intern(&mut self, e: &RaExpr) -> (Arc<RaExpr>, InternStats) {
        let mut stats = InternStats::default();
        let root = self.go(e, &mut stats);
        (root, stats)
    }

    fn go(&mut self, e: &RaExpr, stats: &mut InternStats) -> Arc<RaExpr> {
        stats.tree_nodes += 1;
        let (key, node) = match e {
            RaExpr::Scan { .. } | RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => {
                (Key::Leaf(e.clone()), e.clone())
            }
            RaExpr::Join(l, r) => {
                let l = self.go(l, stats);
                let r = self.go(r, stats);
                (Key::Join(addr(&l), addr(&r)), RaExpr::Join(l, r))
            }
            RaExpr::Union(l, r) => {
                let l = self.go(l, stats);
                let r = self.go(r, stats);
                (Key::Union(addr(&l), addr(&r)), RaExpr::Union(l, r))
            }
            RaExpr::Diff(l, r) => {
                let l = self.go(l, stats);
                let r = self.go(r, stats);
                (Key::Diff(addr(&l), addr(&r)), RaExpr::Diff(l, r))
            }
            RaExpr::Divide(t, s) => {
                let t = self.go(t, stats);
                let s = self.go(s, stats);
                (Key::Divide(addr(&t), addr(&s)), RaExpr::Divide(t, s))
            }
            RaExpr::Project { input, cols } => {
                let input = self.go(input, stats);
                (
                    Key::Project(addr(&input), cols.clone()),
                    RaExpr::Project {
                        input,
                        cols: cols.clone(),
                    },
                )
            }
            RaExpr::Select { input, pred } => {
                let input = self.go(input, stats);
                (
                    Key::Select(addr(&input), *pred),
                    RaExpr::Select { input, pred: *pred },
                )
            }
            RaExpr::Duplicate { input, src, dst } => {
                let input = self.go(input, stats);
                (
                    Key::Duplicate(addr(&input), *src, *dst),
                    RaExpr::Duplicate {
                        input,
                        src: *src,
                        dst: *dst,
                    },
                )
            }
        };
        if let Some(hit) = self.table.get(&key) {
            return hit.clone();
        }
        stats.unique_nodes += 1;
        let node = Arc::new(node);
        self.table.insert(key, node.clone());
        node
    }
}

/// One-shot hash-consing of a single expression (fresh table). The returned
/// expression is `==` to the input but duplicate subtrees are one shared
/// allocation, and `stats.unique_nodes` is exactly the DAG's node count.
pub fn intern(e: &RaExpr) -> (RaExpr, InternStats) {
    let mut interner = Interner::new();
    let (root, stats) = interner.intern(e);
    ((*root).clone(), stats)
}

/// Structural fingerprint of a plan, used as (half of) the
/// [`crate::cache::PlanCache`] result key and as the key under which the
/// statistics feedback store files observed cardinalities per subplan
/// ([`crate::database::Database::record_observed`] /
/// [`crate::stats::harvest_actuals`]). Equal expressions hash equal; the
/// value is deterministic within a process but not across processes
/// (symbol interning order feeds the hash).
///
/// The hash is compositional: a node's hash mixes its own operator and
/// payload with its children's hashes, so one bottom-up walk yields the
/// hash of every subplan, each in O(1) from its children's.
pub fn plan_hash(e: &RaExpr) -> u64 {
    match e {
        RaExpr::Join(l, r) | RaExpr::Union(l, r) | RaExpr::Diff(l, r) | RaExpr::Divide(l, r) => {
            node_hash(e, &[plan_hash(l), plan_hash(r)])
        }
        RaExpr::Project { input, .. }
        | RaExpr::Select { input, .. }
        | RaExpr::Duplicate { input, .. } => node_hash(e, &[plan_hash(input)]),
        RaExpr::Scan { .. } | RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => {
            node_hash(e, &[])
        }
    }
}

/// The [`plan_hash`] of `e` given the [`plan_hash`]es of its children, in
/// order. Only `e`'s own operator and payload are read, never its
/// subtrees.
pub(crate) fn node_hash(e: &RaExpr, children: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    std::mem::discriminant(e).hash(&mut h);
    match e {
        RaExpr::Scan { pred, pattern } => {
            pred.hash(&mut h);
            pattern.hash(&mut h);
        }
        RaExpr::Single { var, value } => {
            var.hash(&mut h);
            value.hash(&mut h);
        }
        RaExpr::Empty { cols } | RaExpr::Project { cols, .. } => cols.hash(&mut h),
        RaExpr::Select { pred, .. } => pred.hash(&mut h),
        RaExpr::Duplicate { src, dst, .. } => {
            src.hash(&mut h);
            dst.hash(&mut h);
        }
        RaExpr::Unit
        | RaExpr::Join(..)
        | RaExpr::Union(..)
        | RaExpr::Diff(..)
        | RaExpr::Divide(..) => {}
    }
    for c in children {
        h.write_u64(*c);
    }
    // FxHash's last multiply leaves the low bits depending only on the
    // inputs' low bits; a finalizer spreads every input bit over the
    // result before it feeds a parent's hash (and the cache shards).
    let mut x = h.finish();
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_formula::Term;

    fn scan(p: &str) -> RaExpr {
        RaExpr::scan(p, vec![Term::var("x"), Term::var("y")])
    }

    fn big_shared() -> RaExpr {
        // Union(σ(J), π(J)) over J = A ⋈ B: J appears twice in the tree.
        let j = RaExpr::join(scan("A"), scan("B"));
        RaExpr::union(
            RaExpr::select(j.clone(), SelPred::EqCols(Var::new("x"), Var::new("y"))),
            RaExpr::project(j, vec![Var::new("x"), Var::new("y")]),
        )
    }

    #[test]
    fn intern_preserves_structure() {
        let e = big_shared();
        let (i, _) = intern(&e);
        assert_eq!(e, i);
        assert_eq!(e.cols(), i.cols());
    }

    #[test]
    fn duplicate_subtrees_become_pointer_equal() {
        let e = big_shared();
        let (i, stats) = intern(&e);
        let (l, r) = match &i {
            RaExpr::Union(l, r) => (l, r),
            other => panic!("expected union, got {other}"),
        };
        let jl = match &**l {
            RaExpr::Select { input, .. } => input.clone(),
            other => panic!("expected select, got {other}"),
        };
        let jr = match &**r {
            RaExpr::Project { input, .. } => input.clone(),
            other => panic!("expected project, got {other}"),
        };
        assert!(Arc::ptr_eq(&jl, &jr), "join subplan must be shared");
        // Tree: union + select + project + 2×(join + 2 scans) = 9 nodes;
        // DAG: union, select, project, join, scan A, scan B = 6.
        assert_eq!(stats.tree_nodes, 9);
        assert_eq!(stats.unique_nodes, 6);
        assert_eq!(stats.shared_nodes(), 3);
    }

    #[test]
    fn distinct_nodes_stay_distinct() {
        // Same shape, different leaf contents — must NOT be merged.
        let e = RaExpr::union(
            RaExpr::scan("A", vec![Term::var("x")]),
            RaExpr::scan("B", vec![Term::var("x")]),
        );
        let (i, stats) = intern(&e);
        match &i {
            RaExpr::Union(l, r) => assert!(!Arc::ptr_eq(l, r)),
            other => panic!("expected union, got {other}"),
        }
        assert_eq!(stats.unique_nodes, 3);
        assert_eq!(stats.shared_nodes(), 0);
    }

    #[test]
    fn leaf_contents_disambiguate() {
        // Identical operator, differing payloads at every position.
        let a = RaExpr::project(scan("A"), vec![Var::new("x")]);
        let b = RaExpr::project(scan("A"), vec![Var::new("y")]);
        let (i, stats) = intern(&RaExpr::join(a, b));
        match &i {
            RaExpr::Join(l, r) => {
                assert!(!Arc::ptr_eq(l, r));
                // ... but the scans underneath ARE shared.
                let (sl, sr) = match (&**l, &**r) {
                    (RaExpr::Project { input: sl, .. }, RaExpr::Project { input: sr, .. }) => {
                        (sl, sr)
                    }
                    other => panic!("expected projects, got {other:?}"),
                };
                assert!(Arc::ptr_eq(sl, sr));
            }
            other => panic!("expected join, got {other}"),
        }
        assert_eq!(stats.tree_nodes, 5);
        assert_eq!(stats.unique_nodes, 4);
    }

    #[test]
    fn interner_shares_across_plans() {
        let mut interner = Interner::new();
        let (_, first) = interner.intern(&big_shared());
        assert_eq!(first.unique_nodes, 6);
        // Re-interning the same plan adds nothing new.
        let (_, second) = interner.intern(&big_shared());
        assert_eq!(second.unique_nodes, 0);
        assert_eq!(second.shared_nodes(), second.tree_nodes);
        // A plan overlapping only in the scans shares exactly those.
        let (_, third) = interner.intern(&RaExpr::diff(scan("A"), scan("B")));
        assert_eq!(third.unique_nodes, 1); // just the diff node
        assert_eq!(interner.len(), 7);
    }

    #[test]
    fn plan_hash_composes_from_children() {
        let e = big_shared();
        let RaExpr::Union(l, r) = &e else {
            panic!("expected union")
        };
        assert_eq!(plan_hash(&e), node_hash(&e, &[plan_hash(l), plan_hash(r)]));
        // Same children, different operator: different hash.
        assert_ne!(
            plan_hash(&e),
            plan_hash(&RaExpr::Join(l.clone(), r.clone()))
        );
    }

    #[test]
    fn plan_hash_tracks_structural_equality() {
        let e = big_shared();
        let (i, _) = intern(&e);
        assert_eq!(plan_hash(&e), plan_hash(&i));
        assert_ne!(
            plan_hash(&scan("A")),
            plan_hash(&scan("B")),
            "different relations should (overwhelmingly) hash apart"
        );
    }
}

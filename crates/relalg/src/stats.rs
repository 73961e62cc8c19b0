//! Per-database statistics and the cardinality/cost estimator behind the
//! cost-based optimizer ([`crate::optimize::optimize`]).
//!
//! Three layers:
//!
//! * [`TableStats`] — row count and per-column distinct counts of one
//!   stored relation, computed lazily by
//!   [`Database::table_stats`](crate::database::Database::table_stats) and
//!   cached until the next mutation: every mutating method swaps in a
//!   fresh store, so stale statistics are unreachable by construction.
//! * [`Estimator`] — a cardinality estimate ([`CardEst`]: rows plus
//!   per-column distinct counts) for every [`RaExpr`] operator, and a cost
//!   model on top of it. Joins use the textbook *containment* assumption
//!   (divide the cross product by the largest distinct count per shared
//!   column), selections use `1/distinct` selectivities, projections are
//!   bounded by the product of the kept columns' distinct counts (the
//!   dedup bound that makes early projection worth cost-gating). The cost
//!   constants are nanoseconds-per-row figures calibrated against the
//!   kernel timings recorded in `BENCH_eval.json` (see [`cost`] docs).
//! * the **feedback store** — actual cardinalities harvested from
//!   completed [`OpSpan`] trees by [`harvest_actuals`], keyed by the
//!   subplan's structural [`plan_hash`]. When the estimator visits a
//!   node whose hash has an observation, the observed row count overrides
//!   the estimate, so repeated queries re-plan with observed truth. Every
//!   *changed* observation bumps the database's **stats epoch**
//!   ([`Database::stats_epoch`](crate::database::Database::stats_epoch)),
//!   which the cached serving path mixes into its plan key — a re-planned
//!   query can never be served a plan compiled under stale statistics,
//!   and an unchanged observation leaves the epoch (and therefore the
//!   plan cache) alone.
//!
//! An [`Estimator`] reads the feedback store once, when it is built: it
//! keeps a snapshot (the store is copy-on-write, so the snapshot is a
//! pointer, not a copy), and an observation recorded later — say by an
//! `analyze` harvest on another connection — reaches the next estimator,
//! never one halfway through pricing a plan. A node's price is its cost,
//! its cardinality estimate and, when the snapshot is not empty, its
//! feedback key, computed from its children's keys (the plan hash is
//! compositional, see [`crate::plan`]). [`Estimator::cost_and_estimate`]
//! therefore visits each node once and hashes no subtree twice, and with
//! an empty snapshot it neither hashes nor looks anything up.
//!
//! The join-order search of [`crate::optimize()`] combines estimates many
//! times per plan. It works on a fixed-size copy of [`CardEst`] over the
//! search's own numbering of at most 8 columns, which copies without
//! allocating and does the float operations of
//! [`Estimator::join_cardinality`] in the same order (pinned bit for bit
//! by a property test), so the search picks what the allocating form
//! would.
//!
//! Estimates are heuristics; correctness never depends on them. The
//! optimizer only uses them to *choose among semantically equal plans*
//! (the differential property suite in `tests/prop_optimizer.rs` pins
//! result identity), so a wildly wrong estimate costs time, not answers.
//!
//! [`cost`]: Estimator::cost
//! [`plan_hash`]: crate::plan::plan_hash

use crate::database::Database;
use crate::expr::{RaExpr, SelPred};
use crate::plan::node_hash;
use crate::relation::Relation;
use crate::trace::OpSpan;
use rc_formula::fxhash::{FxHashMap, FxHashSet};
use rc_formula::{Symbol, Term, Value, Var};
use std::sync::Arc;

/// Statistics of one stored relation: row count and per-column distinct
/// counts. Computed in one pass over the relation and cached per database
/// (see [`Database::table_stats`](crate::database::Database::table_stats)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableStats {
    /// Number of stored rows.
    pub rows: u64,
    /// Distinct values per column, in column order.
    pub distinct: Vec<u64>,
}

impl TableStats {
    /// Compute statistics for a relation (one pass, one hash set per
    /// column).
    pub fn of(rel: &Relation) -> TableStats {
        let mut sets: Vec<FxHashSet<Value>> =
            (0..rel.arity()).map(|_| FxHashSet::default()).collect();
        for row in rel.iter() {
            for (i, v) in row.iter().enumerate() {
                sets[i].insert(*v);
            }
        }
        TableStats {
            rows: rel.len() as u64,
            distinct: sets.into_iter().map(|s| s.len() as u64).collect(),
        }
    }

    /// The selectivity of an equality predicate on column `col`: `1 /
    /// distinct`, the uniform-distribution assumption. Returns 1.0 for an
    /// out-of-range column or an empty relation.
    pub fn selectivity(&self, col: usize) -> f64 {
        match self.distinct.get(col) {
            Some(&d) if d > 0 => 1.0 / d as f64,
            _ => 1.0,
        }
    }

    /// True when `col` is key-like: every stored row has a distinct value.
    pub fn is_key(&self, col: usize) -> bool {
        self.rows > 0 && self.distinct.get(col) == Some(&self.rows)
    }
}

/// Per-database statistics store: lazily computed [`TableStats`], the
/// harvested-cardinality feedback map, and the stats epoch. Lives behind
/// `Arc<Mutex<…>>` in [`Database`]: clones share the store until either
/// side mutates.
#[derive(Debug, Default)]
pub(crate) struct StatsStore {
    /// The stats epoch: 0 until first asked for, then a process-globally
    /// fresh stamp; re-stamped whenever an observation *changes*.
    pub(crate) epoch: u64,
    /// Lazily computed per-relation statistics.
    pub(crate) tables: FxHashMap<Symbol, Arc<TableStats>>,
    /// Observed cardinalities from traced runs, keyed by subplan
    /// [`plan_hash`](crate::plan::plan_hash); copy-on-write, so
    /// estimators can snapshot it.
    pub(crate) observed: Arc<FxHashMap<u64, u64>>,
}

/// A cardinality estimate for one plan node: estimated rows plus
/// per-column distinct estimates (the join/projection rules need both).
#[derive(Clone, Debug)]
pub struct CardEst {
    /// Estimated output rows.
    pub rows: f64,
    cols: Vec<Var>,
    distinct: Vec<f64>,
}

impl CardEst {
    fn new(cols: Vec<Var>, rows: f64, distinct: Vec<f64>) -> CardEst {
        let mut e = CardEst {
            rows,
            cols,
            distinct,
        };
        e.clamp();
        e
    }

    fn empty(cols: Vec<Var>) -> CardEst {
        let n = cols.len();
        CardEst {
            rows: 0.0,
            cols,
            distinct: vec![0.0; n],
        }
    }

    /// The columns this estimate describes, in output order.
    pub fn cols(&self) -> &[Var] {
        &self.cols
    }

    /// Estimated distinct values in column `v` (the estimated row count
    /// when the column is unknown — i.e. unconstrained).
    pub fn distinct_of(&self, v: Var) -> f64 {
        self.cols
            .iter()
            .position(|c| *c == v)
            .map(|i| self.distinct[i])
            .unwrap_or(self.rows.max(1.0))
    }

    /// Restore the invariants `1 ≤ distinct ≤ rows` (or 0 when empty).
    fn clamp(&mut self) {
        if !self.rows.is_finite() || self.rows < 0.0 {
            self.rows = 0.0;
        }
        for d in &mut self.distinct {
            *d = if self.rows < 1.0 {
                0.0
            } else {
                d.min(self.rows).max(1.0)
            };
        }
    }

    fn with_rows(mut self, rows: f64) -> CardEst {
        self.rows = rows;
        self.clamp();
        self
    }
}

// Cost-model constants: estimated nanoseconds per row, calibrated against
// the per-operator kernel medians in `BENCH_eval.json` (join ≈ 60 ns per
// input+output row at 2k–50k rows, diff/union ≈ 7–10 ns, projection
// rebuild ≈ 12–19 ns, scans amortize to well under 1 ns). Only the ratios
// matter: the planner compares plans, it never predicts wall time.
const SCAN_NS: f64 = 0.3;
const JOIN_NS: f64 = 60.0;
const DIFF_NS: f64 = 10.0;
const UNION_NS: f64 = 10.0;
const SELECT_NS: f64 = 5.0;
const PROJECT_NS: f64 = 20.0;
const DUP_NS: f64 = 20.0;

/// The estimator's verdict on one plan node: the total cost of evaluating
/// it (its subtree included) and the cardinality estimate of its output.
#[derive(Clone, Debug)]
pub(crate) struct Price {
    /// Estimated total cost, in calibrated nanoseconds (see
    /// [`Estimator::cost`]).
    pub(crate) cost: f64,
    /// Estimated output cardinality.
    pub(crate) card: CardEst,
    /// The node's [`plan_hash`](crate::plan::plan_hash) when the
    /// estimator has feedback to look up, 0 otherwise.
    key: u64,
}

/// Cardinality/cost estimator over one database's statistics and a
/// snapshot of its harvested-cardinality feedback, taken when the
/// estimator is built. Cheap to construct; borrows the database.
pub struct Estimator<'a> {
    db: &'a Database,
    /// The feedback store at construction; `None` when it was empty.
    observed: Option<Arc<FxHashMap<u64, u64>>>,
}

impl<'a> Estimator<'a> {
    /// An estimator over `db`'s statistics and its feedback store as it is
    /// now.
    pub fn new(db: &'a Database) -> Estimator<'a> {
        Estimator {
            db,
            observed: db.observed_snapshot(),
        }
    }

    /// Estimate the cardinality of `e` (rows and per-column distincts).
    /// Nodes with a harvested observation return the observed row count.
    pub fn estimate(&self, e: &RaExpr) -> CardEst {
        self.price(e).card
    }

    /// Estimated output rows of `e`, rounded.
    pub fn rows(&self, e: &RaExpr) -> u64 {
        self.estimate(e).rows.round() as u64
    }

    /// Estimated total cost of evaluating `e`, in (calibrated) nanoseconds.
    /// The value is only meaningful *relative to other plans over the same
    /// database*: the optimizer applies a rewrite iff the estimated cost
    /// strictly drops.
    pub fn cost(&self, e: &RaExpr) -> f64 {
        self.price(e).cost
    }

    /// The total cost and the root cardinality estimate of `e`, from one
    /// bottom-up walk that prices each node once.
    pub fn cost_and_estimate(&self, e: &RaExpr) -> (f64, CardEst) {
        let p = self.price(e);
        (p.cost, p.card)
    }

    /// [`Estimator::cost_and_estimate`], with the feedback key.
    pub(crate) fn price(&self, e: &RaExpr) -> Price {
        match e {
            RaExpr::Join(l, r) | RaExpr::Union(l, r) | RaExpr::Diff(l, r) => {
                self.price_node(e, &[&self.price(l), &self.price(r)])
            }
            RaExpr::Project { input, .. }
            | RaExpr::Select { input, .. }
            | RaExpr::Duplicate { input, .. } => self.price_node(e, &[&self.price(input)]),
            RaExpr::Scan { .. } | RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => {
                self.price_node(e, &[])
            }
        }
    }

    /// Price one node from the prices of its children, in order (which
    /// this estimator must have computed). Reads only `e`'s own operator
    /// and payload, never its subtrees.
    pub(crate) fn price_node(&self, e: &RaExpr, kids: &[&Price]) -> Price {
        let (cost, card) = match e {
            RaExpr::Scan { pred, pattern } => {
                let ts = self.db.table_stats(*pred);
                let base = ts.as_ref().map(|t| t.rows as f64).unwrap_or(0.0);
                let card = Self::scan_estimate(ts.as_deref(), pattern, e.cols());
                (SCAN_NS * base + 1.0, card)
            }
            RaExpr::Single { var, .. } => (1.0, CardEst::new(vec![*var], 1.0, vec![1.0])),
            RaExpr::Unit => (1.0, CardEst::new(Vec::new(), 1.0, Vec::new())),
            RaExpr::Empty { cols } => (1.0, CardEst::empty(cols.clone())),
            RaExpr::Join(..) => {
                let (l, r) = (kids[0], kids[1]);
                let card = join_estimate(&l.card, &r.card);
                let cost = l.cost + r.cost + Self::join_step_cost(&l.card, &r.card, &card);
                (cost, card)
            }
            RaExpr::Union(..) => {
                let (cl, el, cr, er) = (kids[0].cost, &kids[0].card, kids[1].cost, &kids[1].card);
                let cols = el.cols.clone();
                let rows = el.rows + er.rows;
                let distinct = cols
                    .iter()
                    .map(|v| el.distinct_of(*v) + er.distinct_of(*v))
                    .collect();
                let cost = cl + cr + UNION_NS * (el.rows + er.rows);
                (cost, CardEst::new(cols, rows, distinct))
            }
            RaExpr::Diff(..) => {
                let (cl, el, cr, er) = (kids[0].cost, &kids[0].card, kids[1].cost, &kids[1].card);
                // Anti-join: of the key domain (product of per-key-column
                // distinct maxima), `r` covers at most `min(r.rows,
                // domain)`; survivors are the uncovered fraction of `l`,
                // floored at 5% so a "fully covered" guess cannot zero out
                // everything above it.
                let mut domain = 1.0f64;
                for v in er.cols() {
                    domain *= el.distinct_of(*v).max(er.distinct_of(*v)).max(1.0);
                }
                let covered = if domain > 0.0 {
                    (er.rows.min(domain) / domain).min(1.0)
                } else {
                    0.0
                };
                let rows = (el.rows * (1.0 - covered)).max(el.rows * 0.05);
                let cost = cl + cr + DIFF_NS * (el.rows + er.rows);
                (cost, el.clone().with_rows(rows))
            }
            RaExpr::Project { cols, .. } => {
                let (ci, ei) = (kids[0].cost, &kids[0].card);
                // Set semantics: output rows are bounded by the product of
                // the kept columns' distinct counts (the dedup bound).
                let mut bound = 1.0f64;
                for v in cols {
                    bound = (bound * ei.distinct_of(*v)).min(1e18);
                }
                if cols.is_empty() {
                    bound = 1.0;
                }
                let rows = ei.rows.min(bound);
                let distinct = cols.iter().map(|v| ei.distinct_of(*v)).collect();
                let cost = ci + PROJECT_NS * ei.rows;
                (cost, CardEst::new(cols.clone(), rows, distinct))
            }
            RaExpr::Select { pred, .. } => {
                let (ci, ei) = (kids[0].cost, &kids[0].card);
                let cost = ci + SELECT_NS * ei.rows;
                (cost, Self::select_estimate(ei.clone(), *pred))
            }
            RaExpr::Duplicate { src, dst, .. } => {
                let (ci, ei) = (kids[0].cost, &kids[0].card);
                let mut cols = ei.cols.clone();
                cols.push(*dst);
                let mut distinct = ei.distinct.clone();
                distinct.push(ei.distinct_of(*src));
                let rows = ei.rows;
                (ci + DUP_NS * ei.rows, CardEst::new(cols, rows, distinct))
            }
        };
        // Feedback override: an observed actual beats any estimate.
        let Some(observed) = &self.observed else {
            return Price { cost, card, key: 0 };
        };
        let mut keys = [0u64; 2];
        for (k, p) in keys.iter_mut().zip(kids) {
            *k = p.key;
        }
        let key = node_hash(e, &keys[..kids.len()]);
        let card = match observed.get(&key) {
            Some(&actual) => card.with_rows(actual as f64),
            None => card,
        };
        Price { cost, card, key }
    }

    /// The containment-assumption join estimate over two child estimates:
    /// cross product divided, per shared column, by the larger distinct
    /// count. Public so callers can combine estimates without re-walking
    /// subtrees.
    pub fn join_cardinality(&self, l: &CardEst, r: &CardEst) -> CardEst {
        join_estimate(l, r)
    }

    /// The local (non-recursive) cost of one hash-join step given the
    /// operand and output estimates. Public for the same reason as
    /// [`Estimator::join_cardinality`].
    pub fn join_step_cost(l: &CardEst, r: &CardEst, out: &CardEst) -> f64 {
        join_step(l.rows, r.rows, out.rows)
    }

    fn scan_estimate(ts: Option<&TableStats>, pattern: &[Term], out_cols: Vec<Var>) -> CardEst {
        let Some(ts) = ts else {
            return CardEst::empty(out_cols);
        };
        let d = |i: usize| ts.distinct.get(i).copied().unwrap_or(1).max(1) as f64;
        let mut rows = ts.rows as f64;
        let mut first: Vec<(Var, usize)> = Vec::new();
        for (i, t) in pattern.iter().enumerate() {
            match t {
                // A constant in the pattern is an implicit equality
                // selection: keep 1/distinct of the rows.
                Term::Const(_) => rows /= d(i),
                Term::Var(v) => match first.iter().find(|(w, _)| w == v) {
                    // A repeated variable is an implicit column-equality
                    // selection under the containment assumption.
                    Some(&(_, j)) => rows /= d(i).max(d(j)),
                    None => first.push((*v, i)),
                },
            }
        }
        let distinct = out_cols
            .iter()
            .map(|v| {
                first
                    .iter()
                    .find(|(w, _)| w == v)
                    .map(|&(_, i)| d(i))
                    .unwrap_or(1.0)
            })
            .collect();
        CardEst::new(out_cols, rows, distinct)
    }

    fn select_estimate(mut input: CardEst, pred: SelPred) -> CardEst {
        match pred {
            SelPred::EqConst(v, _) => {
                let d = input.distinct_of(v).max(1.0);
                let rows = input.rows / d;
                if let Some(i) = input.cols.iter().position(|c| *c == v) {
                    input.distinct[i] = 1.0;
                }
                input.with_rows(rows)
            }
            SelPred::NeqConst(v, _) => {
                let d = input.distinct_of(v).max(1.0);
                let rows = input.rows * (1.0 - 1.0 / d);
                input.with_rows(rows)
            }
            SelPred::EqCols(a, b) => {
                let (da, db) = (input.distinct_of(a), input.distinct_of(b));
                let rows = input.rows / da.max(db).max(1.0);
                let merged = da.min(db);
                for (i, c) in input.cols.iter().enumerate() {
                    if *c == a || *c == b {
                        input.distinct[i] = merged;
                    }
                }
                input.with_rows(rows)
            }
            SelPred::NeqCols(a, b) => {
                let d = input.distinct_of(a).max(input.distinct_of(b)).max(1.0);
                let rows = input.rows * (1.0 - 1.0 / d);
                input.with_rows(rows)
            }
        }
    }
}

/// The containment-rule join estimate behind [`Estimator::join_cardinality`].
fn join_estimate(l: &CardEst, r: &CardEst) -> CardEst {
    let mut cols = l.cols.clone();
    for v in &r.cols {
        if !cols.contains(v) {
            cols.push(*v);
        }
    }
    let mut denom = 1.0f64;
    for v in &r.cols {
        if l.cols.contains(v) {
            denom *= l.distinct_of(*v).max(r.distinct_of(*v)).max(1.0);
        }
    }
    let rows = l.rows * r.rows / denom;
    let distinct = cols
        .iter()
        .map(|v| {
            let in_l = l.cols.contains(v);
            let in_r = r.cols.contains(v);
            match (in_l, in_r) {
                (true, true) => l.distinct_of(*v).min(r.distinct_of(*v)),
                (true, false) => l.distinct_of(*v),
                _ => r.distinct_of(*v),
            }
        })
        .collect();
    CardEst::new(cols, rows, distinct)
}

/// The cost of one hash-join step from its operand and output rows.
pub(crate) fn join_step(l_rows: f64, r_rows: f64, out_rows: f64) -> f64 {
    JOIN_NS * (l_rows + r_rows + out_rows)
}

/// What the join-order search needs of an estimate: its rows, the join of
/// two, and whether two share a column (an equijoin, not a cross
/// product). Implemented by [`CardEst`] and by its fixed-size copy
/// [`JoinCard`], which must agree bit for bit.
pub(crate) trait JoinEstimate: Clone {
    /// Estimated rows.
    fn rows(&self) -> f64;
    /// The join's estimate, as [`Estimator::join_cardinality`].
    fn join(&self, r: &Self) -> Self;
    /// The join's estimated rows: `self.join(r).rows()`, possibly cheaper.
    fn join_rows(&self, r: &Self) -> f64 {
        self.join(r).rows()
    }
    /// Do the two share a column?
    fn shares_col(&self, r: &Self) -> bool;
}

impl JoinEstimate for CardEst {
    fn rows(&self) -> f64 {
        self.rows
    }

    fn join(&self, r: &CardEst) -> CardEst {
        join_estimate(self, r)
    }

    fn shares_col(&self, r: &CardEst) -> bool {
        self.cols.iter().any(|v| r.cols.contains(v))
    }
}

/// Most columns a [`JoinCard`] search can number.
pub(crate) const JOIN_CARD_COLS: usize = 8;

/// A [`CardEst`] over a join-order search's numbering of its columns
/// (`0..JOIN_CARD_COLS`): a `Copy` value, so the search allocates nothing
/// per candidate, and column membership is one bit test.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JoinCard {
    rows: f64,
    /// Column numbers in output order (`len` of them).
    order: [u8; JOIN_CARD_COLS],
    len: u8,
    /// Bit `i` set iff column `i` is present.
    mask: u8,
    /// Distinct estimate by column number (meaningful where `mask` is set).
    distinct: [f64; JOIN_CARD_COLS],
}

impl JoinCard {
    /// The estimates as `JoinCard`s over one numbering of their columns,
    /// or `None` when they hold more than [`JOIN_CARD_COLS`] columns
    /// between them or one repeats a column.
    pub(crate) fn number(ests: &[&CardEst]) -> Option<Vec<JoinCard>> {
        let mut universe: Vec<Var> = Vec::new();
        ests.iter()
            .map(|e| {
                let mut card = JoinCard {
                    rows: e.rows,
                    order: [0; JOIN_CARD_COLS],
                    len: 0,
                    mask: 0,
                    distinct: [0.0; JOIN_CARD_COLS],
                };
                for (v, d) in e.cols.iter().zip(&e.distinct) {
                    let id = match universe.iter().position(|u| u == v) {
                        Some(id) => id,
                        None if universe.len() < JOIN_CARD_COLS => {
                            universe.push(*v);
                            universe.len() - 1
                        }
                        None => return None,
                    };
                    if card.has(id) {
                        return None;
                    }
                    card.order[card.len as usize] = id as u8;
                    card.len += 1;
                    card.mask |= 1 << id;
                    card.distinct[id] = *d;
                }
                Some(card)
            })
            .collect()
    }

    fn has(&self, id: usize) -> bool {
        self.mask & (1 << id) != 0
    }

    fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.order[..self.len as usize]
            .iter()
            .map(|&id| id as usize)
    }
}

impl JoinEstimate for JoinCard {
    fn rows(&self) -> f64 {
        self.rows
    }

    /// [`join_estimate`] and [`CardEst::new`]'s clamp, step for step.
    fn join(&self, r: &JoinCard) -> JoinCard {
        let (l, rows) = (self, self.join_rows(r));
        let mut out = JoinCard {
            rows,
            mask: l.mask | r.mask,
            ..*l
        };
        for id in r.ids() {
            if !l.has(id) {
                out.order[out.len as usize] = id as u8;
                out.len += 1;
            }
        }
        for i in 0..out.len as usize {
            let id = out.order[i] as usize;
            let d = match (l.has(id), r.has(id)) {
                (true, true) => l.distinct[id].min(r.distinct[id]),
                (true, false) => l.distinct[id],
                _ => r.distinct[id],
            };
            out.distinct[id] = if rows < 1.0 {
                0.0
            } else {
                d.min(rows).max(1.0)
            };
        }
        out
    }

    fn join_rows(&self, r: &JoinCard) -> f64 {
        let mut denom = 1.0f64;
        for id in r.ids() {
            if self.has(id) {
                denom *= self.distinct[id].max(r.distinct[id]).max(1.0);
            }
        }
        let rows = self.rows * r.rows / denom;
        if !rows.is_finite() || rows < 0.0 {
            0.0
        } else {
            rows
        }
    }

    fn shares_col(&self, r: &JoinCard) -> bool {
        self.mask & r.mask != 0
    }
}

/// Harvest actual cardinalities out of a completed operator-span tree into
/// `db`'s feedback store: the span tree mirrors the plan shape (children
/// zip by index; memo-served subplans appear as childless `cache_hit` leaves,
/// which still carry the correct output cardinality), so each *completed*
/// span records its `rows_out` under the matching subexpression's
/// [`plan_hash`](crate::plan::plan_hash). Incomplete spans (a budget trip
/// mid-plan) are skipped but their completed children still contribute.
/// One bottom-up walk computes every subplan's key from its children's.
/// Returns how many observations *changed* — any change bumps the stats
/// epoch, so callers (and the plan cache) can tell whether re-planning is
/// worthwhile.
pub fn harvest_actuals(expr: &RaExpr, span: Option<&OpSpan>, db: &Database) -> usize {
    /// Record `expr`'s subtree; returns `expr`'s key.
    fn walk(expr: &RaExpr, span: Option<&OpSpan>, db: &Database, changed: &mut usize) -> u64 {
        let spans = span.map_or(&[][..], |s| s.children.as_slice());
        let mut keys = [0u64; 2];
        let kids = expr.children();
        for (i, c) in kids.iter().enumerate() {
            keys[i] = walk(c, spans.get(i), db, changed);
        }
        let key = node_hash(expr, &keys[..kids.len()]);
        if let Some(s) = span.filter(|s| s.completed) {
            if db.record_observed(key, s.rows_out as u64) {
                *changed += 1;
            }
        }
        key
    }
    let mut changed = 0;
    if span.is_some() {
        walk(expr, span, db, &mut changed);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_hash;
    use rc_formula::Term;

    fn db() -> Database {
        // P: 4 rows, x distinct 4 (key-like), y distinct 2.
        // Q: 2 rows over y.
        Database::from_facts("P(1, 10)\nP(2, 10)\nP(3, 20)\nP(4, 20)\nQ(10)\nQ(99)").unwrap()
    }

    #[test]
    fn table_stats_count_rows_and_distincts() {
        let db = db();
        let ts = db.table_stats(Symbol::intern("P")).unwrap();
        assert_eq!(ts.rows, 4);
        assert_eq!(ts.distinct, vec![4, 2]);
        assert!(ts.is_key(0));
        assert!(!ts.is_key(1));
        assert_eq!(ts.selectivity(0), 0.25);
        assert_eq!(ts.selectivity(1), 0.5);
    }

    #[test]
    fn table_stats_are_cached_until_mutation() {
        let mut db = db();
        let p = Symbol::intern("P");
        let a = db.table_stats(p).unwrap();
        let b = db.table_stats(p).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
        db.insert_fact("P", crate::relation::tuple([9i64, 30]))
            .unwrap();
        let c = db.table_stats(p).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.rows, 5);
        assert_eq!(c.distinct, vec![5, 3]);
    }

    #[test]
    fn scan_estimates_apply_implicit_selections() {
        let db = db();
        let est = Estimator::new(&db);
        let plain = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        assert_eq!(est.rows(&plain), 4);
        // Constant in column y: 4 / distinct(y) = 2.
        let constant = RaExpr::scan("P", vec![Term::var("x"), Term::val(10)]);
        assert_eq!(est.rows(&constant), 2);
        // Repeated variable: 4 / max(4, 2) = 1.
        let repeated = RaExpr::scan("P", vec![Term::var("x"), Term::var("x")]);
        assert_eq!(est.rows(&repeated), 1);
        // Unknown predicate: empty.
        assert_eq!(est.rows(&RaExpr::scan("Zzz", vec![Term::var("x")])), 0);
    }

    #[test]
    fn join_uses_containment_assumption() {
        let db = db();
        let est = Estimator::new(&db);
        let p = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        let q = RaExpr::scan("Q", vec![Term::var("y")]);
        // 4 * 2 / max(d_y(P)=2, d_y(Q)=2) = 4.
        assert_eq!(est.rows(&RaExpr::join(p.clone(), q.clone())), 4);
        // Cross join (no shared column): 4 * 2 = 8.
        let z = RaExpr::scan("Q", vec![Term::var("z")]);
        assert_eq!(est.rows(&RaExpr::join(p.clone(), z.clone())), 8);
        // Cost orders the selective equijoin-first tree below the
        // cross-product-first tree: the cross product inflates the
        // intermediate the second join then has to consume.
        let good_first = RaExpr::join(RaExpr::join(p.clone(), q.clone()), z.clone());
        let cross_first = RaExpr::join(RaExpr::join(p, z), q);
        assert!(est.cost(&good_first) < est.cost(&cross_first));
    }

    #[test]
    fn select_project_and_diff_rules() {
        let db = db();
        let est = Estimator::new(&db);
        let p = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        // σ[y = c]: 4 / d_y = 2.
        let sel = RaExpr::select(p.clone(), SelPred::EqConst(Var::new("y"), Value::int(10)));
        assert_eq!(est.rows(&sel), 2);
        // π[y]: bounded by distinct(y) = 2, not rows = 4.
        let proj = RaExpr::project(p.clone(), vec![Var::new("y")]);
        assert_eq!(est.rows(&proj), 2);
        // Diff keeps a subset of the left side.
        let d = RaExpr::diff(p.clone(), RaExpr::scan("Q", vec![Term::var("y")]));
        assert!(est.rows(&d) <= est.rows(&p));
    }

    #[test]
    fn feedback_overrides_estimates_and_bumps_epoch() {
        let db = db();
        let est = Estimator::new(&db);
        let p = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        assert_eq!(est.rows(&p), 4);
        let epoch0 = db.stats_epoch();
        // Record an observed cardinality for exactly this subplan.
        assert!(db.record_observed(plan_hash(&p), 17));
        assert_ne!(db.stats_epoch(), epoch0, "changed observation bumps epoch");
        assert_eq!(Estimator::new(&db).rows(&p), 17);
        // Re-recording the same value changes nothing.
        let epoch1 = db.stats_epoch();
        assert!(!db.record_observed(plan_hash(&p), 17));
        assert_eq!(db.stats_epoch(), epoch1);
        // A data mutation keeps the feedback map and the epoch (plans are
        // data-independent; only table statistics are dropped), so cached
        // plans survive mutations.
        let mut db = db;
        db.load_facts("P(9, 30)").unwrap();
        assert_eq!(db.observed_rows(plan_hash(&p)), Some(17));
        assert_eq!(db.stats_epoch(), epoch1);
        // An explicit clear drops everything and moves the epoch.
        db.clear_stats();
        assert_eq!(db.observed_rows(plan_hash(&p)), None);
        assert_ne!(db.stats_epoch(), epoch1);
    }

    #[test]
    fn harvest_reads_completed_spans() {
        use crate::eval::{eval, EvalCtx};
        use crate::trace::Tracer;
        let db = db();
        let e = RaExpr::join(
            RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("Q", vec![Term::var("y")]),
        );
        let mut cx = EvalCtx::default().with_tracer(Tracer::on());
        let out = eval(&e, &db, &mut cx).unwrap();
        let root = cx.tracer.finish().unwrap();
        let changed = harvest_actuals(&e, Some(&root), &db);
        assert!(changed >= 3, "join + two scans should all record");
        assert_eq!(db.observed_rows(plan_hash(&e)), Some(out.len() as u64));
        // The estimator now reports the truth at the root.
        assert_eq!(Estimator::new(&db).rows(&e), out.len() as u64);
        // Every subplan is filed under its own plan hash.
        for scan in e.children() {
            assert!(db.observed_rows(plan_hash(scan)).is_some(), "{scan}");
        }
        // A second harvest of the same run changes nothing.
        assert_eq!(harvest_actuals(&e, Some(&root), &db), 0);
    }

    #[test]
    fn estimator_reads_feedback_as_of_construction() {
        let db = db();
        let p = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        let empty = Estimator::new(&db);
        assert!(db.record_observed(plan_hash(&p), 9));
        let before = Estimator::new(&db);
        assert!(db.record_observed(plan_hash(&p), 17));
        // An observation landing mid-plan (say, a harvest on another
        // connection) does not move an estimator already pricing.
        assert_eq!(empty.rows(&p), 4);
        assert_eq!(before.rows(&p), 9);
        assert_eq!(Estimator::new(&db).rows(&p), 17);
    }

    /// A random estimate over columns drawn from `pool` (no repeats, any
    /// order), with rows and distincts from empty through fractional to
    /// huge.
    fn random_card(rng: &mut rand::rngs::StdRng, pool: &[Var]) -> CardEst {
        use rand::Rng;
        let mut cols: Vec<Var> = pool.iter().copied().filter(|_| rng.gen_bool(0.5)).collect();
        for i in (1..cols.len()).rev() {
            cols.swap(i, rng.gen_range(0..=i));
        }
        let scale = [0.0, 0.5, 3.0, 1e3, 1e9][rng.gen_range(0..5usize)];
        let mut frac = |hi: u32| f64::from(rng.gen_range(0..hi)) / 1000.0;
        let rows = scale * frac(1500);
        let distinct = cols.iter().map(|_| rows * frac(1200)).collect();
        CardEst::new(cols, rows, distinct)
    }

    fn assert_same(card: &JoinCard, est: &CardEst, universe: &[Var]) {
        assert_eq!(card.rows.to_bits(), est.rows.to_bits());
        let cols: Vec<Var> = card.ids().map(|id| universe[id]).collect();
        assert_eq!(cols, est.cols);
        for (id, d) in card.ids().zip(&est.distinct) {
            assert_eq!(card.distinct[id].to_bits(), d.to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The search's allocation-free estimate joins, prices and tests
        /// connectivity exactly like `join_cardinality`/`join_step_cost`,
        /// bit for bit, through chains of joins.
        #[test]
        fn join_card_matches_card_est(seed in 0u64..100_000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pool: Vec<Var> = (0..JOIN_CARD_COLS).map(|i| Var::new(&format!("v{i}"))).collect();
            let ests: Vec<CardEst> = (0..rng.gen_range(2..6)).map(|_| random_card(&mut rng, &pool)).collect();
            let refs: Vec<&CardEst> = ests.iter().collect();
            let cards = JoinCard::number(&refs).expect("the pool fits a JoinCard");
            // The numbering follows first appearance across the estimates.
            let mut universe: Vec<Var> = Vec::new();
            for v in ests.iter().flat_map(|e| e.cols.iter()) {
                if !universe.contains(v) {
                    universe.push(*v);
                }
            }
            let db = Database::new();
            let est = Estimator::new(&db);
            let (mut card, mut card_est) = (cards[0], ests[0].clone());
            for (c, e) in cards.iter().zip(&ests).skip(1) {
                proptest::prop_assert_eq!(card.shares_col(c), card_est.shares_col(e));
                let joined = est.join_cardinality(&card_est, e);
                let joined_card = card.join(c);
                assert_same(&joined_card, &joined, &universe);
                proptest::prop_assert_eq!(card.join_rows(c).to_bits(), joined.rows.to_bits());
                proptest::prop_assert_eq!(
                    join_step(card.rows(), c.rows(), joined_card.rows()).to_bits(),
                    Estimator::join_step_cost(&card_est, e, &joined).to_bits()
                );
                // Alternate the sides, so the accumulated estimate is
                // joined on both the left and the right.
                if rng.gen_bool(0.5) {
                    (card, card_est) = (joined_card, joined);
                } else {
                    (card, card_est) = (c.join(&card), est.join_cardinality(e, &card_est));
                    assert_same(&card, &card_est, &universe);
                }
            }
        }
    }

    #[test]
    fn join_card_numbering_refuses_what_it_cannot_hold() {
        let wide: Vec<Var> = (0..=JOIN_CARD_COLS)
            .map(|i| Var::new(&format!("w{i}")))
            .collect();
        let card = CardEst::new(wide.clone(), 5.0, vec![1.0; wide.len()]);
        assert!(JoinCard::number(&[&card]).is_none(), "too many columns");
        let x = Var::new("x");
        let repeated = CardEst::new(vec![x, x], 5.0, vec![1.0, 1.0]);
        assert!(
            JoinCard::number(&[&repeated]).is_none(),
            "a repeated column"
        );
    }
}

//! Incremental view maintenance: delta-evaluate cached results instead
//! of invalidating them.
//!
//! Raszyk–Basin–Krstić–Traytel's monitoring work evaluates standing
//! queries by *delta propagation* over exactly the RANF operator trees
//! this crate evaluates; classical Δ-rules are defined per operator, and
//! our canonical sorted flat buffers make the final merge (`(old \ Δ⁻) ∪
//! Δ⁺`) a pair of linear scans. This module treats a cached plan as a
//! standing query:
//!
//! * [`Delta`] — the canonical insert/delete relations per table produced
//!   by [`Database::apply_delta`](crate::database::Database::apply_delta);
//! * [`DeltaLog`] — a bounded journal of applied deltas
//!   (`from_version → (to_version, Δ)`), shared by every clone of a
//!   database, from which a *chain* between two version stamps is
//!   composed;
//! * [`MaintainedView`] — a materialized operator DAG: the interned plan
//!   plus one canonical relation per node, stamped with the database
//!   version it reflects;
//! * [`refresh`] — the Δ-rules themselves, walking the DAG bottom-up and
//!   producing a *new* view (never mutating the old one, so an abandoned
//!   refresh can never tear a cached entry);
//! * [`worth_refreshing`] — the cost gate: a refresh is only attempted
//!   when the delta is small relative to the estimated full
//!   re-evaluation cost (the PR 6 [`crate::stats::Estimator`] provides
//!   the full-side estimate).
//!
//! # Delta invariants
//!
//! A per-node delta pair `(Δ⁺, Δ⁻)` relating an old value `O` to a new
//! value `N` satisfies the *relaxed* invariants
//!
//! 1. `Δ⁺ ⊆ N` (inserts are present afterwards),
//! 2. `O \ N ⊆ Δ⁻` (every disappearance is recorded),
//! 3. `Δ⁻ ∩ N ⊆ Δ⁺` (a recorded delete that survives is re-inserted),
//! 4. `N \ O ⊆ Δ⁺` (every appearance is recorded),
//!
//! under which `(O \ Δ⁻) ∪ Δ⁺ = N` *exactly* — the minus-then-plus
//! schedule of `Relation::apply_delta`. The relaxation (Δ⁻ may
//! intersect `N`) is what lets composed chains stay cheap: composing
//! `d₁; d₂` as `Δ⁻ = d₁⁻ ∪ d₂⁻`, `Δ⁺ = (d₁⁺ \ d₂⁻) ∪ d₂⁺` preserves
//! 1–4 without re-probing the base tables, and a delete-then-reinsert
//! lands in both sides harmlessly.
//!
//! # Δ-rules
//!
//! With `P`/`Q` the children's *new* values (computed bottom-up) and
//! `ΔP`/`ΔQ` their delta pairs (see DESIGN.md §14 for the proofs). Every
//! rule runs the evaluator's own kernels ([`eval`](mod@crate::eval)) on
//! one lane over the delta relations; the kernels each rule calls are
//! named in parentheses:
//!
//! * **Scan** (`scan`): the table delta filtered through the pattern's
//!   constant/diagonal checks and projected to first occurrences — the
//!   projection is injective on passing rows, so both sides transfer.
//! * **Select** (`filter`) and **Duplicate** (`project` onto every column
//!   plus the copy): per-row transforms of the child delta.
//! * **Join** (`join`, `union`): `Δ⁺ = (Δ⁺P ⋈ Q) ∪ (P ⋈ Δ⁺Q)`;
//!   `Δ⁻ = (Δ⁻P ⋈ Q) ∪ (P ⋈ Δ⁻Q) ∪ (Δ⁻P ⋈ Δ⁻Q)` — sound because the
//!   join output carries every input column, so an output row has
//!   unique witnesses. The `Δ⋈Q` legs probe a hash table over `Q` kept
//!   alive across refreshes.
//! * **Union** (`project` to permute, `union`, `filter`):
//!   `Δ⁺ = Δ⁺P ∪ π(Δ⁺Q)`; `Δ⁻` is the candidate deletes filtered by
//!   membership in neither new child.
//! * **Diff** (`join` as a semijoin, `antijoin`, `union`):
//!   `Δ⁺ = σ_{∄Q}(Δ⁺P) ∪ σ_{∄Q}(P ⋉ Δ⁻Q)`; `Δ⁻ = Δ⁻P ∪ (P ⋉ Δ⁺Q)` — the
//!   two-sided rule re-probing the unchanged side, whose anti-join legs
//!   probe a persistent table over `Q` as in the join rule.
//! * **Project** (`project`): `Δ⁺ = π(Δ⁺in)`; `Δ⁻` is `π(Δ⁻in)`
//!   filtered by a scan-and-mark pass over the materialized new input —
//!   one binary search per input row marks the candidates it still
//!   produces (a projected row dies only when *no* surviving input row
//!   produces it).
//!
//! Refresh work is charged to [`Stage::Maintain`]. When the caller passes
//! a collecting tracer to [`refresh`], the walk is traced with
//! `ivm=refresh` spans carrying per-operator Δ cardinalities (the serving
//! path refreshes untraced). Any budget trip or cancellation abandons the
//! walk with the old view intact.

use crate::eval::{
    on_fresh_stack, positions, select_pred, EvalCtx, EvalStats, JoinLayout, Lanes, RowTable,
    STACK_SEGMENT_LEVELS,
};
use crate::expr::RaExpr;
use crate::govern::{Budget, BudgetExceeded, Stage};
use crate::relation::Relation;
use crate::trace::Tracer;
use rc_formula::fxhash::{FxHashMap, FxHashSet};
use rc_formula::{symbol_order, Symbol, Value};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// The canonical insert/delete pair for one table (or one operator's
/// output): two canonical sorted relations of the same arity.
#[derive(Clone, Debug, PartialEq)]
pub struct TableDelta {
    /// Net inserted rows.
    pub plus: Relation,
    /// Net deleted rows.
    pub minus: Relation,
}

impl TableDelta {
    /// An empty delta pair of the given arity.
    pub fn empty(arity: usize) -> TableDelta {
        TableDelta {
            plus: Relation::new(arity),
            minus: Relation::new(arity),
        }
    }

    /// No rows on either side?
    pub fn is_empty(&self) -> bool {
        self.plus.is_empty() && self.minus.is_empty()
    }

    /// Total rows across both sides.
    pub fn rows(&self) -> usize {
        self.plus.len() + self.minus.len()
    }
}

/// One applied mutation as canonical per-table insert/delete relations.
/// Tables with an all-empty net change are not stored.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Delta {
    tables: FxHashMap<Symbol, TableDelta>,
}

impl Delta {
    /// The delta pair recorded for `pred`, if any.
    pub fn table(&self, pred: Symbol) -> Option<&TableDelta> {
        self.tables.get(&pred)
    }

    /// Record a delta pair for `pred` (dropped if empty, keeping
    /// [`Delta::is_empty`] meaningful).
    pub fn insert_table(&mut self, pred: impl Into<Symbol>, delta: TableDelta) {
        if !delta.is_empty() {
            self.tables.insert(pred.into(), delta);
        }
    }

    /// No table changed?
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total rows across every table's insert and delete sides.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(TableDelta::rows).sum()
    }

    /// Per-table `(name, inserted, deleted)` counts, sorted by table name
    /// — the wire summary the query server returns from its mutate verb.
    pub fn summary(&self) -> Vec<(String, u64, u64)> {
        let mut out: Vec<(String, u64, u64)> = self
            .tables
            .iter()
            .map(|(p, d)| (p.to_string(), d.plus.len() as u64, d.minus.len() as u64))
            .collect();
        out.sort();
        out
    }

    /// Sequential composition `self; later`: `Δ⁻ = d₁⁻ ∪ d₂⁻`,
    /// `Δ⁺ = (d₁⁺ \ d₂⁻) ∪ d₂⁺`. Preserves the relaxed delta invariants
    /// (see the module docs), so a composed chain applies exactly.
    pub fn compose(&self, later: &Delta) -> Delta {
        let preds: BTreeSet<Symbol> = self
            .tables
            .keys()
            .chain(later.tables.keys())
            .copied()
            .collect();
        let mut out = Delta::default();
        for pred in preds {
            let td = match (self.tables.get(&pred), later.tables.get(&pred)) {
                (Some(a), None) => a.clone(),
                (None, Some(b)) => b.clone(),
                (Some(a), Some(b)) => TableDelta {
                    plus: a.plus.minus(&b.minus).union(&b.plus),
                    minus: a.minus.union(&b.minus),
                },
                (None, None) => unreachable!("pred came from one of the key sets"),
            };
            out.insert_table(pred, td);
        }
        out
    }
}

/// How many delta links the journal retains before evicting the oldest.
/// Sixty-four single-mutation links cover a long trickle between two
/// serves of the same query; anything older falls back to full
/// re-evaluation, which is always correct.
pub const DELTA_LOG_CAP: usize = 64;

/// A bounded journal of applied deltas: `from_version → (to_version,
/// Δ)`. Shared (behind one `Arc<Mutex<_>>`) by every clone of a
/// [`Database`](crate::database::Database), so the server's
/// copy-on-write mutation path and the snapshot a cached view was built
/// against agree on the chain between any two version stamps. Mutations
/// that bypass
/// [`Database::apply_delta`](crate::database::Database::apply_delta)
/// (bulk loads, declarations) leave a gap — chains across a gap are
/// unresolvable and force the fallback path.
#[derive(Debug, Default)]
pub struct DeltaLog {
    links: FxHashMap<u64, (u64, Arc<Delta>)>,
    order: VecDeque<u64>,
}

impl DeltaLog {
    /// Record one applied delta link, evicting the oldest past capacity.
    pub(crate) fn record(&mut self, from: u64, to: u64, delta: Arc<Delta>) {
        if !self.links.contains_key(&from) && self.links.len() >= DELTA_LOG_CAP {
            if let Some(evicted) = self.order.pop_front() {
                self.links.remove(&evicted);
            }
        }
        if self.links.insert(from, (to, delta)).is_none() {
            self.order.push_back(from);
        }
    }

    /// Compose the chain of recorded deltas carrying version `from` to
    /// version `to`, or `None` when any link is missing (evicted, or the
    /// versions are bridged by a non-delta mutation).
    pub fn chain(&self, from: u64, to: u64) -> Option<Delta> {
        if from == to {
            return Some(Delta::default());
        }
        let mut acc = Delta::default();
        let mut cur = from;
        // Bounded walk: links form a forest of forward chains, so more
        // hops than stored links means we will never reach `to`.
        for _ in 0..=self.links.len() {
            let (next, delta) = self.links.get(&cur)?;
            acc = acc.compose(delta);
            cur = *next;
            if cur == to {
                return Some(acc);
            }
        }
        None
    }

    /// Number of links currently retained.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// No links retained?
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

/// A materialized standing query: the hash-consed plan DAG, one
/// canonical relation per DAG node (keyed by `Arc` address, stable
/// because the view owns the root), and the database version the values
/// reflect. Recorded by an evaluation ([`MaintainedView::recorded`]),
/// advanced by [`refresh`].
#[derive(Clone, Debug)]
pub struct MaintainedView {
    root: Arc<RaExpr>,
    preds: Vec<Symbol>,
    vals: FxHashMap<usize, Relation>,
    indexes: FxHashMap<usize, Arc<JoinIndex>>,
    base_version: u64,
}

/// A hash index over one node's materialized value, kept alive across
/// refreshes so a small-delta probe does not rebuild an `O(n)` table
/// every serve. Valid exactly while the node's value is
/// pointer-identical ([`Relation::shares_data`]) to `built_from` — an
/// empty per-node delta propagates the same `Arc`'d buffer, so identity
/// tracks "unchanged since the table was built" precisely.
struct JoinIndex {
    built_from: Relation,
    table: RowTable,
}

impl fmt::Debug for JoinIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JoinIndex({} rows)", self.built_from.len())
    }
}

impl MaintainedView {
    /// The database version the per-node values reflect.
    pub fn base_version(&self) -> u64 {
        self.base_version
    }

    /// The root result currently materialized.
    pub fn result(&self) -> &Relation {
        self.vals
            .get(&(Arc::as_ptr(&self.root) as usize))
            .expect("view holds its root value")
    }

    /// Number of distinct DAG nodes materialized.
    pub fn node_count(&self) -> usize {
        self.vals.len()
    }

    /// Total rows materialized across every node — the linear-merge cost
    /// floor of one refresh.
    pub fn total_rows(&self) -> usize {
        self.vals.values().map(Relation::len).sum()
    }

    /// The scanned predicates, sorted (the only tables whose deltas can
    /// affect this view).
    pub fn preds(&self) -> &[Symbol] {
        &self.preds
    }

    /// The materialized contents of a *full-table* scan of `pred` — a
    /// `Scan` node whose pattern binds every column to a distinct
    /// variable, so its cached value is the base table verbatim (modulo
    /// column naming). `None` when the plan contains no such scan, or
    /// its value is missing.
    ///
    /// This exists for callers that serve plans over *derived* tables
    /// the database does not store (e.g. active-domain guard relations):
    /// to hand [`refresh`] a delta for such a table they must first
    /// recover the old contents the view's values reflect.
    pub fn scan_contents(&self, pred: Symbol) -> Option<&Relation> {
        fn walk<'a>(
            view: &'a MaintainedView,
            node: &'a Arc<RaExpr>,
            pred: Symbol,
            seen: &mut FxHashSet<usize>,
        ) -> Option<&'a Relation> {
            let key = Arc::as_ptr(node) as usize;
            if !seen.insert(key) {
                return None;
            }
            match &**node {
                RaExpr::Scan {
                    pred: p, pattern, ..
                } => {
                    if *p == pred && node.cols().len() == pattern.len() {
                        view.vals.get(&key)
                    } else {
                        None
                    }
                }
                RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => None,
                RaExpr::Join(l, r) | RaExpr::Union(l, r) | RaExpr::Diff(l, r) => {
                    walk(view, l, pred, seen).or_else(|| walk(view, r, pred, seen))
                }
                RaExpr::Project { input, .. }
                | RaExpr::Select { input, .. }
                | RaExpr::Duplicate { input, .. } => walk(view, input, pred, seen),
            }
        }
        let mut seen = FxHashSet::default();
        walk(self, &self.root, pred, &mut seen)
    }
}

/// Why a refresh walk stopped.
#[derive(Clone, Debug, PartialEq)]
pub enum RefreshError {
    /// A resource budget tripped or a cancellation fired mid-walk; the
    /// caller must surface it like any governed evaluation error (the
    /// old view is untouched — never fall back silently, the work was
    /// charged).
    Budget(BudgetExceeded),
    /// The delta rules cannot apply (missing materialized value, delta
    /// arity clash with a scan pattern); fall back to full
    /// re-evaluation.
    Unsupported(&'static str),
}

impl fmt::Display for RefreshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefreshError::Budget(b) => write!(f, "{b}"),
            RefreshError::Unsupported(why) => write!(f, "refresh unsupported: {why}"),
        }
    }
}

impl std::error::Error for RefreshError {}

impl From<BudgetExceeded> for RefreshError {
    fn from(b: BudgetExceeded) -> RefreshError {
        RefreshError::Budget(b)
    }
}

impl MaintainedView {
    /// The standing query recorded by the last successful run of `cx`
    /// ([`EvalCtx`]): the interned plan DAG and every subplan's value,
    /// stamped `base_version` — the version of the database the caller
    /// serves results for (the run may have used a prepared clone whose own
    /// stamp differs). `None` when `cx` has not run or its last run failed.
    /// Takes the memo out of `cx`.
    pub fn recorded(cx: &mut EvalCtx<'_>, base_version: u64) -> Option<MaintainedView> {
        let (root, vals) = cx.take_memo()?;
        let mut preds = FxHashSet::default();
        collect_preds(&root, &mut preds);
        let mut preds: Vec<Symbol> = preds.into_iter().collect();
        preds.sort();
        Some(MaintainedView {
            root,
            preds,
            vals,
            indexes: FxHashMap::default(),
            base_version,
        })
    }
}

/// The cost gate: is refreshing `view` by `delta` expected to beat a
/// full re-evaluation with estimated cost `full_cost()` (from
/// [`crate::stats::Estimator::cost`], in calibrated nanoseconds)? Only
/// deltas on tables the view actually scans count; a delta touching
/// only unreferenced tables is always worth "refreshing" (it is a
/// version-stamp advance at merge cost zero).
///
/// The full cost is a *closure*: a trickle-sized relevant delta skips
/// the estimate entirely and refreshes unconditionally. That matters
/// beyond the comparison itself — a mutation invalidates the cached
/// [`crate::stats::TableStats`], so asking the estimator right after
/// one pays an `O(n)` statistics rebuild on the serving path, which
/// would dwarf the refresh it is gating.
pub fn worth_refreshing(
    view: &MaintainedView,
    delta: &Delta,
    full_cost: impl FnOnce() -> f64,
) -> bool {
    let relevant: usize = view
        .preds
        .iter()
        .filter_map(|p| delta.table(*p))
        .map(TableDelta::rows)
        .sum();
    if relevant == 0 {
        return true;
    }
    // A handful of delta rows is O(|Δ|·fanout) probe work against the
    // view's persistent indexes — cheaper than any full re-evaluation
    // and cheaper than estimating one.
    const TRICKLE_ROWS: usize = 16;
    if relevant <= TRICKLE_ROWS {
        return true;
    }
    // Each relevant delta row costs roughly one hash-join probe per
    // operator it flows through; the constant matches the estimator's
    // join calibration. The flat allowance keeps tiny queries (whose
    // full cost is a handful of nanoseconds) refreshable for the
    // single-fact trickles they actually see.
    const DELTA_ROW_NS: f64 = 60.0;
    DELTA_ROW_NS * relevant as f64 <= 0.5 * full_cost() + 1024.0
}

/// Refresh a materialized view by one delta (or composed chain),
/// producing a **new** view stamped `new_version` and its root relation.
/// The input view is never mutated: an error (budget trip, cancellation,
/// unsupported shape) leaves the caller holding exactly the old state,
/// so a cached entry can only ever be the old version or the new one —
/// never a torn merge.
///
/// Work is charged to [`Stage::Maintain`] (one checkpoint and the Δ
/// cardinality per operator, plus kernel ticks inside the delta joins
/// and merges); spans carry `ivm=refresh` with per-operator Δ
/// cardinalities when `tracer` collects.
pub fn refresh(
    view: &MaintainedView,
    delta: &Delta,
    new_version: u64,
    stats: &mut EvalStats,
    budget: &Budget,
    tracer: &mut Tracer,
) -> Result<(MaintainedView, Relation), RefreshError> {
    let mut ctx = Ctx {
        delta,
        old: &view.vals,
        old_indexes: &view.indexes,
        new_vals: FxHashMap::default(),
        new_indexes: FxHashMap::default(),
        done: FxHashMap::default(),
        budget,
        depth: 0,
    };
    refresh_node(&view.root, &mut ctx, stats, tracer)?;
    let root_key = Arc::as_ptr(&view.root) as usize;
    let relation = ctx.new_vals[&root_key].clone();
    Ok((
        MaintainedView {
            root: Arc::clone(&view.root),
            preds: view.preds.clone(),
            vals: ctx.new_vals,
            indexes: ctx.new_indexes,
            base_version: new_version,
        },
        relation,
    ))
}

/// Shared state of one refresh walk over the view DAG.
struct Ctx<'a> {
    delta: &'a Delta,
    old: &'a FxHashMap<usize, Relation>,
    old_indexes: &'a FxHashMap<usize, Arc<JoinIndex>>,
    new_vals: FxHashMap<usize, Relation>,
    new_indexes: FxHashMap<usize, Arc<JoinIndex>>,
    done: FxHashMap<usize, TableDelta>,
    budget: &'a Budget,
    /// DAG nesting depth of the node being refreshed.
    depth: usize,
}

impl Ctx<'_> {
    /// The refreshed value of an already-visited child.
    fn new_val(&self, node: &Arc<RaExpr>) -> Relation {
        self.new_vals[&(Arc::as_ptr(node) as usize)].clone()
    }

    /// Get (building on demand) node `key`'s hash index over `rel`'s
    /// `key_cols`, reusing the previous refresh's table whenever the
    /// indexed value is unchanged ([`Relation::shares_data`]). The
    /// index is recorded for the *next* refresh either way.
    fn index(&mut self, key: usize, rel: &Relation, key_cols: &[usize]) -> Arc<JoinIndex> {
        if let Some(ix) = self.old_indexes.get(&key) {
            if ix.built_from.shares_data(rel) {
                let ix = Arc::clone(ix);
                self.new_indexes.insert(key, Arc::clone(&ix));
                return ix;
            }
        }
        let ix = Arc::new(JoinIndex {
            built_from: rel.clone(),
            table: RowTable::build(rel, key_cols),
        });
        self.new_indexes.insert(key, Arc::clone(&ix));
        ix
    }

    /// Carry node `key`'s still-valid index into the new view without
    /// using it this round (the round's delta never probed `rel`). A
    /// stale index is dropped, not rebuilt — the next refresh that
    /// actually probes will rebuild it.
    fn carry_index(&mut self, key: usize, rel: &Relation) {
        if self.new_indexes.contains_key(&key) {
            return;
        }
        if let Some(ix) = self.old_indexes.get(&key) {
            if ix.built_from.shares_data(rel) {
                self.new_indexes.insert(key, Arc::clone(ix));
            }
        }
    }
}

/// Span-wrapping shell around [`refresh_inner`], mirroring the
/// evaluator's `eval_rec`: one span per DAG node (shared nodes are
/// refreshed once and their delta replayed from the memo), and a fresh
/// stack every [`STACK_SEGMENT_LEVELS`] levels.
fn refresh_node(
    node: &Arc<RaExpr>,
    ctx: &mut Ctx<'_>,
    stats: &mut EvalStats,
    tr: &mut Tracer,
) -> Result<TableDelta, RefreshError> {
    let key = Arc::as_ptr(node) as usize;
    if let Some(done) = ctx.done.get(&key) {
        return Ok(done.clone());
    }
    ctx.depth += 1;
    let res = if ctx.depth.is_multiple_of(STACK_SEGMENT_LEVELS) {
        on_fresh_stack(|| refresh_span(node, key, ctx, stats, tr))
    } else {
        refresh_span(node, key, ctx, stats, tr)
    };
    ctx.depth -= 1;
    res
}

fn refresh_span(
    node: &Arc<RaExpr>,
    key: usize,
    ctx: &mut Ctx<'_>,
    stats: &mut EvalStats,
    tr: &mut Tracer,
) -> Result<TableDelta, RefreshError> {
    tr.open(node);
    let res = refresh_inner(node, key, ctx, stats, tr);
    match &res {
        Ok((pair, new_val)) => {
            tr.note_ivm("refresh", pair.plus.len() as u64, pair.minus.len() as u64);
            tr.close(Some(new_val));
        }
        Err(_) => tr.close(None),
    }
    res.map(|(pair, _)| pair)
}

/// Compute one node's delta pair from its children's (already-refreshed)
/// values and deltas, apply it to the node's old value, and account the
/// work. Every per-row loop is the evaluator's own kernel ([`Lanes`]),
/// run on one lane under this node's [`Stage::Maintain`] governor.
fn refresh_inner(
    node: &Arc<RaExpr>,
    key: usize,
    ctx: &mut Ctx<'_>,
    stats: &mut EvalStats,
    tr: &mut Tracer,
) -> Result<(TableDelta, Relation), RefreshError> {
    let budget = ctx.budget;
    let mut lanes = Lanes::new(budget, Stage::Maintain);
    let pair = match &**node {
        RaExpr::Scan { pred, pattern } => {
            let cols = node.cols();
            match ctx.delta.table(*pred) {
                None => TableDelta::empty(cols.len()),
                Some(td) if td.is_empty() => TableDelta::empty(cols.len()),
                Some(td) => {
                    if td.plus.arity() != pattern.len() || td.minus.arity() != pattern.len() {
                        return Err(RefreshError::Unsupported(
                            "table delta arity clashes with scan pattern",
                        ));
                    }
                    TableDelta {
                        plus: lanes.scan(&td.plus, pattern, &cols)?,
                        minus: lanes.scan(&td.minus, pattern, &cols)?,
                    }
                }
            }
        }
        RaExpr::Single { .. } => TableDelta::empty(1),
        RaExpr::Unit => TableDelta::empty(0),
        RaExpr::Empty { cols } => TableDelta::empty(cols.len()),
        RaExpr::Select { input, pred } => {
            let d = refresh_node(input, ctx, stats, tr)?;
            let keep = select_pred(*pred, &input.cols());
            TableDelta {
                plus: lanes.filter(&d.plus, &keep)?,
                minus: lanes.filter(&d.minus, &keep)?,
            }
        }
        RaExpr::Duplicate { input, src, .. } => {
            let d = refresh_node(input, ctx, stats, tr)?;
            let icols = input.cols();
            let mut proj: Vec<usize> = (0..icols.len()).collect();
            proj.push(positions(&icols, &[*src])[0]);
            TableDelta {
                plus: lanes.project(&d.plus, &proj)?,
                minus: lanes.project(&d.minus, &proj)?,
            }
        }
        RaExpr::Join(l, r) => {
            let dl = refresh_node(l, ctx, stats, tr)?;
            let dr = refresh_node(r, ctx, stats, tr)?;
            let ln = ctx.new_val(l);
            let rn = ctx.new_val(r);
            let layout = JoinLayout::new(&l.cols(), &r.cols());
            // The Δ⋈Q legs probe the full (new) right side: route them
            // through the node's persistent hash index so a small delta
            // pays O(|Δ|·fanout), not an O(|Q|) table build per serve.
            // The remaining legs pair a full side with a tiny delta,
            // where the kernel already builds on the smaller input. A
            // cross join (no shared columns) never uses a table.
            let r_index = (!layout.l_shared.is_empty() && !rn.is_empty() && !dl.is_empty())
                .then(|| ctx.index(key, &rn, &layout.r_shared));
            let r_table = r_index.as_deref().map(|ix| &ix.table);
            // Δ⁺ = (Δ⁺P ⋈ Q) ∪ (P ⋈ Δ⁺Q); an output row's witnesses are
            // unique (the output keeps all columns), so covering each
            // changed witness covers every changed output row.
            let a = lanes.join(&dl.plus, &rn, &layout, r_table)?;
            let b = lanes.join(&ln, &dr.plus, &layout, None)?;
            let plus = lanes.union(&a, &b)?;
            // Δ⁻ re-probes the *unchanged* side on both flanks plus the
            // both-sides-deleted corner.
            let a = lanes.join(&dl.minus, &rn, &layout, r_table)?;
            let b = lanes.join(&ln, &dr.minus, &layout, None)?;
            let c = lanes.join(&dl.minus, &dr.minus, &layout, None)?;
            let minus = lanes.union(&a, &b)?;
            let minus = lanes.union(&minus, &c)?;
            ctx.carry_index(key, &rn);
            TableDelta { plus, minus }
        }
        RaExpr::Union(l, r) => {
            let dl = refresh_node(l, ctx, stats, tr)?;
            let dr = refresh_node(r, ctx, stats, tr)?;
            let ln = ctx.new_val(l);
            let rn = ctx.new_val(r);
            let (lcols, rcols) = (l.cols(), r.cols());
            let perm = positions(&rcols, &lcols);
            let inv = positions(&lcols, &rcols);
            let b = lanes.project(&dr.plus, &perm)?;
            let plus = lanes.union(&dl.plus, &b)?;
            // A deleted row only leaves the union when *neither* new
            // child still produces it.
            let b = lanes.project(&dr.minus, &perm)?;
            let cand = lanes.union(&dl.minus, &b)?;
            let minus = lanes.filter(&cand, |row| {
                let in_r: Vec<Value> = inv.iter().map(|&j| row[j]).collect();
                !ln.contains(row) && !rn.contains(&in_r)
            })?;
            TableDelta { plus, minus }
        }
        RaExpr::Diff(l, r) => {
            let dl = refresh_node(l, ctx, stats, tr)?;
            let dr = refresh_node(r, ctx, stats, tr)?;
            let ln = ctx.new_val(l);
            let rn = ctx.new_val(r);
            // The right columns are all shared, so a join under this
            // layout is the semijoin `⋉`.
            let layout = JoinLayout::new(&l.cols(), &r.cols());
            // Left rows revived because their last blocker was deleted:
            // P ⋉ Δ⁻Q.
            let revived = lanes.join(&ln, &dr.minus, &layout, None)?;
            // Both anti-join legs probe the full (new) right side: use
            // the node's persistent hash index, as in the join rule.
            let r_index = (!rn.is_empty() && (!dl.plus.is_empty() || !revived.is_empty()))
                .then(|| ctx.index(key, &rn, &layout.r_shared));
            let r_table = r_index.as_deref().map(|ix| &ix.table);
            // Δ⁺: new or revived left rows that have no blocker in the
            // *new* right side.
            let a = lanes.antijoin(&dl.plus, &rn, &layout, r_table)?;
            let b = lanes.antijoin(&revived, &rn, &layout, r_table)?;
            let plus = lanes.union(&a, &b)?;
            ctx.carry_index(key, &rn);
            // Δ⁻: left deletions, plus left rows newly blocked by Δ⁺Q.
            let blocked = lanes.join(&ln, &dr.plus, &layout, None)?;
            let minus = lanes.union(&dl.minus, &blocked)?;
            TableDelta { plus, minus }
        }
        RaExpr::Project { input, cols } => {
            let d = refresh_node(input, ctx, stats, tr)?;
            let new_in = ctx.new_val(input);
            let proj = positions(&input.cols(), cols);
            let plus = lanes.project(&d.plus, &proj)?;
            // A projected row dies only when no surviving input row
            // still produces it: mark the candidates the new input still
            // produces, one binary search per input row.
            let cand = lanes.project(&d.minus, &proj)?;
            let minus = if cand.is_empty() {
                cand
            } else {
                let order = symbol_order();
                let mut alive = vec![false; cand.len()];
                let mut scratch: Vec<Value> = Vec::with_capacity(proj.len());
                for (i, row) in new_in.iter().enumerate() {
                    lanes.gov.tick(i)?;
                    scratch.clear();
                    scratch.extend(proj.iter().map(|&j| row[j]));
                    if let Ok(at) = cand.search(&scratch, &order) {
                        alive[at] = true;
                    }
                }
                let mut kept: Vec<Value> = Vec::new();
                let mut n = 0usize;
                for (row, &alive) in cand.iter().zip(&alive) {
                    if !alive {
                        kept.extend_from_slice(row);
                        n += 1;
                    }
                }
                Relation::from_canonical(cols.len(), n, kept)
            };
            TableDelta { plus, minus }
        }
    };
    let old = ctx.old.get(&key).ok_or(RefreshError::Unsupported(
        "subplan has no materialized value",
    ))?;
    let new_val = old.apply_delta(&pair.plus, &pair.minus, &mut lanes.gov)?;
    stats.operators += 1;
    stats.tuples_produced += pair.rows() as u64;
    stats.max_intermediate = stats.max_intermediate.max(new_val.len());
    stats.budget_checks += lanes.checks() + 1;
    tr.note_kernel_rows(lanes.ticks() as u64);
    budget.checkpoint(Stage::Maintain)?;
    budget.charge_tuples(Stage::Maintain, pair.rows() as u64)?;
    ctx.new_vals.insert(key, new_val.clone());
    ctx.done.insert(key, pair.clone());
    Ok((pair, new_val))
}

/// Collect every scanned predicate in the plan.
fn collect_preds(e: &RaExpr, out: &mut FxHashSet<Symbol>) {
    match e {
        RaExpr::Scan { pred, .. } => {
            out.insert(*pred);
        }
        RaExpr::Single { .. } | RaExpr::Unit | RaExpr::Empty { .. } => {}
        RaExpr::Join(l, r) | RaExpr::Union(l, r) | RaExpr::Diff(l, r) => {
            collect_preds(l, out);
            collect_preds(r, out);
        }
        RaExpr::Project { input, .. }
        | RaExpr::Select { input, .. }
        | RaExpr::Duplicate { input, .. } => collect_preds(input, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::eval::eval;
    use rc_formula::{Term, Var};

    /// Evaluate: the answer and the standing query its memo records.
    fn materialize(expr: &RaExpr, db: &Database) -> (Relation, MaintainedView) {
        let mut cx = EvalCtx::default();
        let out = eval(expr, db, &mut cx).unwrap();
        (
            out,
            MaintainedView::recorded(&mut cx, db.version()).unwrap(),
        )
    }

    fn delta_of(db: &mut Database, text: &str) -> Delta {
        db.apply_delta(text).expect("delta applies")
    }

    /// Materialize, apply a delta, refresh, and check the refreshed root
    /// equals a from-scratch evaluation on the mutated database.
    fn check_refresh(expr: &RaExpr, facts: &str, delta_text: &str) {
        let mut db = Database::from_facts(facts).unwrap();
        let budget = Budget::unlimited();
        let (cold, view) = materialize(expr, &db);
        let delta = delta_of(&mut db, delta_text);
        let (new_view, refreshed) = refresh(
            &view,
            &delta,
            db.version(),
            &mut EvalStats::default(),
            budget,
            &mut Tracer::off(),
        )
        .unwrap();
        let full = eval(expr, &db, &mut EvalCtx::default()).unwrap();
        assert_eq!(refreshed, full, "refresh must equal full re-evaluation");
        assert_eq!(new_view.result(), &full);
        assert_eq!(new_view.base_version(), db.version());
        // The old view is untouched.
        assert_eq!(view.result(), &cold);
    }

    fn scan2(p: &str) -> RaExpr {
        RaExpr::scan(p, vec![Term::var("x"), Term::var("y")])
    }

    #[test]
    fn join_refresh_matches_full_eval() {
        let e = RaExpr::join(scan2("P"), RaExpr::scan("Q", vec![Term::var("y")]));
        check_refresh(
            &e,
            "P(1, 2)\nP(2, 3)\nP(3, 3)\nQ(2)\nQ(3)",
            "P(4, 2)\n-P(2, 3)\n-Q(3)\nQ(9)",
        );
    }

    #[test]
    fn diff_refresh_covers_both_sides() {
        let e = RaExpr::diff(scan2("P"), RaExpr::scan("Q", vec![Term::var("y")]));
        check_refresh(
            &e,
            "P(1, 2)\nP(2, 3)\nQ(2)",
            "-Q(2)\nQ(3)\nP(5, 5)\n-P(1, 2)",
        );
    }

    #[test]
    fn union_and_project_refresh() {
        let e = RaExpr::project(RaExpr::union(scan2("P"), scan2("S")), vec![Var::new("y")]);
        check_refresh(
            &e,
            "P(1, 2)\nP(2, 2)\nS(7, 2)\nS(1, 9)",
            "-P(1, 2)\n-P(2, 2)\n-S(7, 2)\nS(3, 4)",
        );
    }

    #[test]
    fn scan_pattern_checks_apply_to_deltas() {
        // P(x, x) — diagonal; and P(x, 3) — constant.
        let diag = RaExpr::scan("P", vec![Term::var("x"), Term::var("x")]);
        check_refresh(&diag, "P(1, 2)\nP(3, 3)", "P(4, 4)\n-P(3, 3)\nP(5, 6)");
        let konst = RaExpr::scan("P", vec![Term::var("x"), Term::val(3)]);
        check_refresh(&konst, "P(1, 3)\nP(2, 2)", "-P(1, 3)\nP(9, 3)\nP(8, 1)");
    }

    #[test]
    fn delete_then_reinsert_round_trips() {
        let e = scan2("P");
        let mut db = Database::from_facts("P(1, 2)\nP(2, 3)").unwrap();
        let budget = Budget::unlimited();
        let (_, view) = materialize(&e, &db);
        let v0 = db.version();
        db.apply_delta("-P(1, 2)").unwrap();
        db.apply_delta("P(1, 2)").unwrap();
        let chain = db.delta_chain(v0, db.version()).expect("chain recorded");
        let (_, refreshed) = refresh(
            &view,
            &chain,
            db.version(),
            &mut EvalStats::default(),
            budget,
            &mut Tracer::off(),
        )
        .unwrap();
        assert_eq!(refreshed, eval(&e, &db, &mut EvalCtx::default()).unwrap());
    }

    #[test]
    fn empty_and_unreferenced_deltas_are_cheap_version_advances() {
        let e = scan2("P");
        let mut db = Database::from_facts("P(1, 2)\nZzz(5)").unwrap();
        let budget = Budget::unlimited();
        let (cold, view) = materialize(&e, &db);
        let delta = db.apply_delta("Zzz(6)").unwrap();
        assert!(worth_refreshing(&view, &delta, || 0.0));
        let (nv, refreshed) = refresh(
            &view,
            &delta,
            db.version(),
            &mut EvalStats::default(),
            budget,
            &mut Tracer::off(),
        )
        .unwrap();
        assert_eq!(refreshed, cold);
        assert_eq!(nv.base_version(), db.version());
    }

    #[test]
    fn refresh_spans_carry_ivm_notes() {
        let e = RaExpr::join(scan2("P"), RaExpr::scan("Q", vec![Term::var("y")]));
        let mut db = Database::from_facts("P(1, 2)\nQ(2)").unwrap();
        let budget = Budget::unlimited();
        let (_, view) = materialize(&e, &db);
        let delta = db.apply_delta("P(7, 2)").unwrap();
        let mut tr = Tracer::on();
        refresh(
            &view,
            &delta,
            db.version(),
            &mut EvalStats::default(),
            budget,
            &mut tr,
        )
        .unwrap();
        let root = tr.finish().expect("refresh produced a span tree");
        let note = root.ivm.as_ref().expect("refresh spans carry ivm notes");
        assert_eq!(note.mode, "refresh");
        assert_eq!(note.plus, 1);
        assert!(root.partitioned_projection().contains("ivm=refresh"));
    }

    #[test]
    fn budget_trip_mid_refresh_charges_maintain_stage() {
        let e = RaExpr::join(scan2("P"), RaExpr::scan("Q", vec![Term::var("y")]));
        let mut db = Database::from_facts("P(1, 2)\nP(2, 2)\nQ(2)").unwrap();
        let (_, view) = materialize(&e, &db);
        let delta = db.apply_delta("P(3, 2)\nP(4, 2)\nP(5, 2)").unwrap();
        let tight = Budget::new().with_max_tuples(1);
        let err = refresh(
            &view,
            &delta,
            db.version(),
            &mut EvalStats::default(),
            &tight,
            &mut Tracer::off(),
        )
        .unwrap_err();
        match err {
            RefreshError::Budget(b) => assert_eq!(b.stage, Stage::Maintain),
            other => panic!("expected a budget trip, got {other:?}"),
        }
    }

    #[test]
    fn chain_composition_and_log_gaps() {
        let mut db = Database::from_facts("P(1, 2)").unwrap();
        let v0 = db.version();
        db.apply_delta("P(2, 3)").unwrap();
        let v1 = db.version();
        db.apply_delta("-P(1, 2)").unwrap();
        let v2 = db.version();
        let chain = db.delta_chain(v0, v2).expect("two-link chain");
        let td = chain.table(Symbol::intern("P")).unwrap();
        assert_eq!(td.plus.len(), 1);
        assert_eq!(td.minus.len(), 1);
        assert!(db.delta_chain(v1, v2).is_some());
        // A non-delta mutation leaves a gap.
        db.load_facts("P(9, 9)").unwrap();
        assert!(db.delta_chain(v2, db.version()).is_none());
        assert!(db.delta_chain(v0, db.version()).is_none());
    }

    #[test]
    fn cost_gate_rejects_oversized_deltas() {
        let e = scan2("P");
        let mut db = Database::from_facts("P(1, 2)").unwrap();
        let (_, view) = materialize(&e, &db);
        let mut big = String::new();
        for i in 0..200 {
            big.push_str(&format!("P({i}, {i})\n"));
        }
        let delta = db.apply_delta(&big).unwrap();
        // Tiny full cost, 200-row delta: fall back.
        assert!(!worth_refreshing(&view, &delta, || 10.0));
        // A one-row delta on the same view refreshes.
        let small = db.apply_delta("P(9999, 1)").unwrap();
        assert!(worth_refreshing(&view, &small, || 10.0));
    }
}

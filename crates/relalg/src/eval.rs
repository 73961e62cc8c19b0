//! Evaluation of algebra expressions over a database.
//!
//! Joins and `diff` are hash-based batch kernels: `diff` is implemented as
//! a hash anti-join, following the paper's remark that the generalized set
//! difference "should be implemented as a primitive in its own right, using
//! techniques similar to those used for efficient joins" (Sec. 9.3).
//!
//! The kernels work directly over [`Relation`]'s flat row buffer:
//!
//! * column permutations are computed once per operator, never per row;
//! * hash build/probe uses a chained-array table (`heads` + `next` index
//!   vectors) keyed by hashing the key columns in place — no per-probe key
//!   allocation and no per-row heap objects;
//! * pure filters (select, semijoin, anti-join, same-arity difference)
//!   preserve the input's canonical row order, so their outputs skip the
//!   canonicalization sort entirely;
//! * everything else goes through [`RelationBuilder`], which sorts only
//!   when a single linear scan shows the produced rows are out of order.
//!
//! Every run evaluates a plan as a DAG: the expression is hash-consed
//! ([`crate::plan::intern`]) and each distinct subplan is computed once,
//! later occurrences being served from the run's memo table (see
//! [`EvalCtx`]). Operators evaluate their children in order, on one
//! thread; parallelism lives inside the kernels.
//!
//! The evaluator takes the expression it is given as-is — join order and
//! operator placement are decided upstream by
//! [`optimize`](crate::optimize::optimize), whose cost model
//! ([`crate::stats`]) is calibrated against these kernels' measured
//! per-row timings.
//!
//! # Partition-parallel kernels
//!
//! Each operator's row loop is written once, in this module, as a method
//! of the crate-internal `Lanes` over a row range and a [`Governor`] (the
//! sorted-merge union and difference loops live in [`crate::relation`],
//! behind [`Relation::union_governed`] and [`Relation::minus_governed`]).
//! Three callers share every loop:
//!
//! * **sequential** — one lane: the loop runs inline over all rows on the
//!   operator's own governor, with no spawn and no concatenation copy;
//! * **partition-parallel** — when an operator's input is large enough
//!   ([`partition_count`] decides, or [`Budget::with_partitions`] forces a
//!   count), the same loop runs once per lane on scoped workers.
//!   Order-preserving kernels (select, semijoin, anti-join, cross product)
//!   split the input into balanced chunks whose outputs concatenate back
//!   in canonical order; projection merges its chunk outputs sorted;
//!   sorted-merge union/difference split *both* sides at matching key
//!   boundaries found by binary search; hash joins co-partition both sides
//!   by hashing the shared key columns (so matching rows meet in the same
//!   partition — the join kernel's `hash_cols` helper is shared with
//!   `Relation::partition_by` exactly for this) and merge the
//!   per-partition results;
//! * **incremental** — the IVM Δ-rules ([`crate::ivm`]) run the same
//!   kernels on one lane over delta relations, under a
//!   [`Stage::Maintain`] governor.
//!
//! Every worker runs its own [`Governor`] against the shared [`Budget`],
//! so cancellation and tuple caps stop a partitioned kernel mid-flight
//! exactly like a sequential one; workers are joined in partition order,
//! making results, trace spans, and the first error deterministic. When
//! the budget denies thread spawns every kernel runs on one lane, which
//! produces bit-identical relations.
//!
//! [`EvalStats`] records operator counts and intermediate cardinalities so
//! the benchmark harness can compare the Dom-free pipeline against the
//! active-domain baseline on work done, not just wall time.

use crate::database::Database;
use crate::expr::{ExprError, RaExpr, SelPred};
use crate::govern::{Budget, BudgetExceeded, Governor, Stage};
use crate::relation::{
    hash_cols, merge_sorted, minus_rows, partition_count, union_rows, Relation, RelationBuilder,
};
use crate::trace::Tracer;
use rc_formula::fxhash::FxHashMap;
use rc_formula::{symbol_order, Symbol, Term, Value, Var};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Counters accumulated during evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of operator nodes evaluated.
    pub operators: u64,
    /// Total tuples produced across all operators (including intermediates).
    pub tuples_produced: u64,
    /// Largest intermediate relation observed.
    pub max_intermediate: usize,
    /// Cooperative budget checkpoints passed (operator boundaries plus
    /// one per [`crate::govern::CHECK_INTERVAL`] kernel rows) — the governance consumption
    /// counter; deterministic for a given expression and database.
    pub budget_checks: u64,
    /// Subplan evaluations satisfied from the per-run memo table.
    pub memo_hits: u64,
}

impl EvalStats {
    fn record(&mut self, rel: &Relation) {
        self.operators += 1;
        self.tuples_produced += rel.len() as u64;
        self.max_intermediate = self.max_intermediate.max(rel.len());
    }

    /// Fold another run's counters into this one.
    pub fn merge(&mut self, other: EvalStats) {
        self.operators += other.operators;
        self.tuples_produced += other.tuples_produced;
        self.max_intermediate = self.max_intermediate.max(other.max_intermediate);
        self.budget_checks += other.budget_checks;
        self.memo_hits += other.memo_hits;
    }
}

/// Evaluation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// The expression scans a relation the database lacks.
    MissingRelation(Symbol),
    /// The scan pattern's arity disagrees with the stored relation.
    ArityMismatch {
        /// Scanned predicate.
        pred: Symbol,
        /// Stored arity.
        stored: usize,
        /// Pattern arity.
        pattern: usize,
    },
    /// The expression is structurally invalid.
    Invalid(ExprError),
    /// A resource budget tripped; the partial result was discarded.
    Budget(BudgetExceeded),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingRelation(p) => write!(f, "relation {p} not in database"),
            EvalError::ArityMismatch {
                pred,
                stored,
                pattern,
            } => write!(
                f,
                "scan of {pred}: pattern arity {pattern}, stored arity {stored}"
            ),
            EvalError::Invalid(e) => write!(f, "invalid expression: {e}"),
            EvalError::Budget(b) => write!(f, "{b}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ExprError> for EvalError {
    fn from(e: ExprError) -> Self {
        EvalError::Invalid(e)
    }
}

impl From<BudgetExceeded> for EvalError {
    fn from(b: BudgetExceeded) -> Self {
        EvalError::Budget(b)
    }
}

/// Everything one evaluation threads through the operator tree: the
/// counters it accumulates, the [`Budget`] governing it, the operator
/// [`Tracer`], and the per-run memo table.
///
/// * [`EvalCtx::default`] is an ungoverned, untraced run.
/// * [`EvalCtx::new`] governs the run by a budget: the result is either
///   exactly the ungoverned answer or an [`EvalError::Budget`] — never a
///   truncated relation. Checks run at every operator boundary and every
///   [`crate::govern::CHECK_INTERVAL`] rows inside the kernels.
/// * [`EvalCtx::with_tracer`] records an operator span tree (see
///   [`crate::trace`]): input/output cardinalities, pre-dedup row counts,
///   kernel loop counts — including partial spans when the evaluation
///   errors, so a budget trip can be attributed to the operator that was
///   running.
///
/// Every run shares common subexpressions: the expression is hash-consed
/// into a DAG ([`crate::plan::intern`]) and each distinct subplan is
/// computed **once**, later occurrences being served from the memo. A memo
/// hit still passes a budget checkpoint and charges the materialized
/// cardinality, so governed runs cannot smuggle rows past the limits.
/// [`EvalStats::memo_hits`] counts the hits, `operators`/`tuples_produced`
/// count only work actually performed, and served subplans trace as
/// `cache_hit` leaves. The memo keeps every subplan's value afterwards —
/// [`MaintainedView::recorded`](crate::ivm::MaintainedView::recorded)
/// turns it into a standing query for incremental maintenance.
#[derive(Debug)]
pub struct EvalCtx<'a> {
    /// Counters accumulated by the run.
    pub stats: EvalStats,
    /// The budget every operator charges.
    pub budget: &'a Budget,
    /// The operator span collector.
    pub tracer: Tracer,
    memo: Memo,
    /// Operator nesting depth of the node being evaluated.
    depth: usize,
}

impl Default for EvalCtx<'_> {
    fn default() -> Self {
        EvalCtx::new(Budget::unlimited())
    }
}

impl<'a> EvalCtx<'a> {
    /// An untraced run governed by `budget`.
    pub fn new(budget: &'a Budget) -> EvalCtx<'a> {
        EvalCtx {
            stats: EvalStats::default(),
            budget,
            tracer: Tracer::off(),
            memo: Memo::default(),
            depth: 0,
        }
    }

    /// Record operator spans into `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> EvalCtx<'a> {
        self.tracer = tracer;
        self
    }

    /// Take the memo of the last run: the interned root it evaluated and
    /// one relation per distinct DAG node, keyed by node address (root
    /// included). `None` before the first run and after a failed one.
    pub(crate) fn take_memo(&mut self) -> Option<(Arc<RaExpr>, FxHashMap<usize, Relation>)> {
        let root = self.memo.root.take()?;
        Some((root, std::mem::take(&mut self.memo.table)))
    }
}

/// Evaluate `expr` against `db` under `cx` (see [`EvalCtx`] for the
/// budget, tracing and memoization semantics). The result's column order
/// is `expr.cols()`.
pub fn eval(expr: &RaExpr, db: &Database, cx: &mut EvalCtx<'_>) -> Result<Relation, EvalError> {
    cx.memo = Memo::default();
    expr.validate(None)?;
    cx.stats.budget_checks += 1;
    cx.budget.checkpoint(Stage::Eval)?;
    let (root, _) = crate::plan::Interner::new().intern(expr);
    let out = eval_rec(&root, db, cx)?;
    cx.memo
        .table
        .insert(Arc::as_ptr(&root) as usize, out.clone());
    cx.memo.root = Some(root);
    Ok(out)
}

/// Per-run memo table for DAG evaluation: maps an interned subplan (by
/// [`Arc`] address — sound because hash-consing makes pointer identity
/// coincide with structural identity, see [`crate::plan`]) to its
/// materialized relation. [`Relation`] clones are O(1), so a hit costs a
/// map probe plus the governance charge for the materialized cardinality.
#[derive(Debug, Default)]
struct Memo {
    root: Option<Arc<RaExpr>>,
    table: FxHashMap<usize, Relation>,
}

/// Operator levels evaluated on one stack before recursion moves to a
/// fresh one (see [`on_fresh_stack`]). Debug builds spend roughly ten
/// times the stack per level that optimized builds do.
pub(crate) const STACK_SEGMENT_LEVELS: usize = if cfg!(debug_assertions) { 16 } else { 128 };

/// Stack size of each fresh segment: a generous bound on
/// [`STACK_SEGMENT_LEVELS`] levels of the evaluator or the refresh walk.
/// Only the pages actually touched are committed.
const STACK_SEGMENT_BYTES: usize = 16 << 20;

/// Run `f` on a fresh scoped thread with a [`STACK_SEGMENT_BYTES`] stack,
/// blocking until it returns. The recursive walks (evaluation, IVM
/// refresh) call this every [`STACK_SEGMENT_LEVELS`] levels, so a plan of
/// any depth evaluates on any caller's stack instead of overflowing it.
/// If the thread cannot be spawned, `f` runs inline.
pub(crate) fn on_fresh_stack<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    let mut f = Some(f);
    let spawned = std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("rc-eval-deep".to_string())
            .stack_size(STACK_SEGMENT_BYTES)
            .spawn_scoped(s, || (f.take().expect("taken once"))())
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .ok()
    });
    match spawned {
        Some(out) => out,
        None => (f.take().expect("spawn failed before running"))(),
    }
}

/// Evaluate a child held behind an [`Arc`], consulting the memo first. On
/// a hit the subplan's span is emitted as a `cache_hit` leaf and the
/// governor is still charged with the materialized cardinality.
fn eval_child(
    child: &Arc<RaExpr>,
    db: &Database,
    cx: &mut EvalCtx<'_>,
) -> Result<Relation, EvalError> {
    let key = Arc::as_ptr(child) as usize;
    if let Some(rel) = cx.memo.table.get(&key).cloned() {
        cx.stats.memo_hits += 1;
        cx.tracer.open(child);
        cx.tracer.note_cache_hit();
        cx.tracer.note_input(rel.len());
        cx.stats.budget_checks += 1;
        let charged = cx
            .budget
            .checkpoint(Stage::Eval)
            .and_then(|()| cx.budget.charge_tuples(Stage::Eval, rel.len() as u64));
        let res = charged.map(|()| rel).map_err(EvalError::from);
        cx.tracer.close(res.as_ref().ok());
        return res;
    }
    let rel = eval_rec(child, db, cx)?;
    cx.memo.table.insert(key, rel.clone());
    Ok(rel)
}

pub(crate) fn positions(haystack: &[Var], needles: &[Var]) -> Vec<usize> {
    needles
        .iter()
        .map(|v| {
            haystack
                .iter()
                .position(|w| w == v)
                .expect("column present (validated)")
        })
        .collect()
}

/// Does `cols` list the columns `0..arity` in order?
fn is_identity(cols: &[usize], arity: usize) -> bool {
    cols.iter().copied().eq(0..arity)
}

const NIL: u32 = u32::MAX;

/// A compiled `Select` predicate (`Sync` so partition workers can share
/// it).
pub(crate) type RowPred = Box<dyn Fn(&[Value]) -> bool + Sync>;

/// Compile a `Select` predicate against its input's columns `icols`.
pub(crate) fn select_pred(pred: SelPred, icols: &[Var]) -> RowPred {
    let at = |v: Var| positions(icols, &[v])[0];
    match pred {
        SelPred::EqCols(a, b) => {
            let (i, j) = (at(a), at(b));
            Box::new(move |t: &[Value]| t[i] == t[j])
        }
        SelPred::NeqCols(a, b) => {
            let (i, j) = (at(a), at(b));
            Box::new(move |t: &[Value]| t[i] != t[j])
        }
        SelPred::EqConst(a, c) => {
            let i = at(a);
            Box::new(move |t: &[Value]| t[i] == c)
        }
        SelPred::NeqConst(a, c) => {
            let i = at(a);
            Box::new(move |t: &[Value]| t[i] != c)
        }
    }
}

/// A chained-array hash table over the rows of a relation: `heads[bucket]`
/// is the first row index in the bucket, `next[row]` the following one.
/// Two flat `u32` vectors — no per-row allocation, cache-friendly build.
pub(crate) struct RowTable {
    heads: Vec<u32>,
    next: Vec<u32>,
    mask: usize,
}

impl RowTable {
    pub(crate) fn build(rel: &Relation, key_cols: &[usize]) -> RowTable {
        let n = rel.len();
        let cap = (n.max(1) * 2).next_power_of_two();
        let mask = cap - 1;
        let mut heads = vec![NIL; cap];
        let mut next = vec![NIL; n];
        for (i, slot) in next.iter_mut().enumerate() {
            let b = (hash_cols(rel.row(i), key_cols) as usize) & mask;
            *slot = heads[b];
            heads[b] = i as u32;
        }
        RowTable { heads, next, mask }
    }

    /// The existence probe: does some row of `rel` — the relation this
    /// table was built over, keyed on `cols` — match `row`'s key on
    /// `row_cols`?
    #[inline]
    fn has_partner(
        &self,
        rel: &Relation,
        cols: &[usize],
        row: &[Value],
        row_cols: &[usize],
    ) -> bool {
        let mut cur = self.first(row, row_cols);
        while cur != NIL {
            if keys_match(row, row_cols, rel.row(cur as usize), cols) {
                return true;
            }
            cur = self.next[cur as usize];
        }
        false
    }

    /// The first row in the bucket `row`'s key on `row_cols` hashes to;
    /// `next` chains the rest of the bucket.
    #[inline]
    fn first(&self, row: &[Value], row_cols: &[usize]) -> u32 {
        self.heads[(hash_cols(row, row_cols) as usize) & self.mask]
    }
}

#[inline]
fn keys_match(a: &[Value], a_cols: &[usize], b: &[Value], b_cols: &[usize]) -> bool {
    a_cols.iter().zip(b_cols).all(|(&i, &j)| a[i] == b[j])
}

/// The column layout of a natural join `l ⋈ r`, and of the difference
/// `l diff r` (whose right columns are all shared): where the shared
/// columns sit on each side, and which right columns the join appends
/// after the left row.
pub(crate) struct JoinLayout {
    pub(crate) l_shared: Vec<usize>,
    pub(crate) r_shared: Vec<usize>,
    r_extra: Vec<usize>,
}

impl JoinLayout {
    pub(crate) fn new(lcols: &[Var], rcols: &[Var]) -> JoinLayout {
        let (r_shared, r_extra): (Vec<usize>, Vec<usize>) =
            (0..rcols.len()).partition(|&i| lcols.contains(&rcols[i]));
        let shared: Vec<Var> = r_shared.iter().map(|&i| rcols[i]).collect();
        JoinLayout {
            l_shared: positions(lcols, &shared),
            r_shared,
            r_extra,
        }
    }

    fn arity(&self, lrel: &Relation) -> usize {
        lrel.arity() + self.r_extra.len()
    }
}

/// Hash join of `lrel` and `rrel` under `layout` (shared columns
/// non-empty): rows `lrow ++ rrow[r_extra]`. Builds a table on the smaller
/// side, or takes the caller's `r_table` over `rrel`'s shared columns, and
/// probes it with the other side. The builder's canonicalizing `finish`
/// makes the output independent of which side was built.
fn hash_join(
    lrel: &Relation,
    rrel: &Relation,
    layout: &JoinLayout,
    r_table: Option<&RowTable>,
    gov: &mut Governor<'_>,
) -> Result<Relation, BudgetExceeded> {
    if lrel.is_empty() || rrel.is_empty() {
        return Ok(Relation::new(layout.arity(lrel)));
    }
    let build_left = r_table.is_none() && rrel.len() > lrel.len();
    let (probe, p_cols, build, b_cols) = if build_left {
        (rrel, &layout.r_shared, lrel, &layout.l_shared)
    } else {
        (lrel, &layout.l_shared, rrel, &layout.r_shared)
    };
    let built;
    let table = match r_table {
        Some(table) => table,
        None => {
            built = RowTable::build(build, b_cols);
            &built
        }
    };
    let mut out = RelationBuilder::with_capacity(layout.arity(lrel), probe.len());
    for prow in probe.iter() {
        gov.tick(out.len())?;
        let mut cur = table.first(prow, p_cols);
        while cur != NIL {
            let brow = build.row(cur as usize);
            if keys_match(prow, p_cols, brow, b_cols) {
                gov.tick(out.len())?;
                let (lrow, rrow) = if build_left {
                    (brow, prow)
                } else {
                    (prow, brow)
                };
                out.push_row_from(
                    lrow.iter()
                        .copied()
                        .chain(layout.r_extra.iter().map(|&i| rrow[i])),
                );
            }
            cur = table.next[cur as usize];
        }
    }
    Ok(out.finish())
}

/// Number of partitions a kernel over `input_rows` rows should use: the
/// explicit [`Budget::with_partitions`] policy override when set,
/// otherwise [`partition_count`]'s cardinality-and-cores heuristic. Spawn
/// denial (the fault injector's sequential-fallback switch) always wins
/// and forces 1 — partitioned kernels never spawn a denied thread.
fn partition_plan(input_rows: usize, budget: &Budget) -> usize {
    if !budget.spawn_allowed() {
        return 1;
    }
    budget
        .partition_override()
        .unwrap_or_else(|| partition_count(input_rows))
}

/// Row range of chunk `k` of `n` over `rows` rows: balanced, in order,
/// covering `0..rows` exactly.
fn chunk_bounds(rows: usize, k: usize, n: usize) -> Range<usize> {
    rows * k / n..rows * (k + 1) / n
}

/// Right-side row boundaries aligned with the left side's chunk
/// boundaries: `rb[k]` is the first right row not below the left row that
/// opens chunk `k`, found by binary search. Splitting both sorted inputs
/// at these boundaries lets each range pair merge independently — every
/// output row of range `k` sorts strictly below every output row of range
/// `k + 1`, so the concatenation is canonical with no cross-range
/// duplicates, and every right row equal to a left row of chunk `k` falls
/// inside its aligned range.
fn aligned_bounds(l: &Relation, r: &Relation, parts: usize) -> Vec<usize> {
    let order = symbol_order();
    let mut rb = Vec::with_capacity(parts + 1);
    rb.push(0usize);
    for k in 1..parts {
        let lo = chunk_bounds(l.len(), k, parts).start;
        rb.push(if lo < l.len() {
            r.lower_bound(l.row(lo), &order)
        } else {
            r.len()
        });
    }
    rb.push(r.len());
    rb
}

/// Where one operator's row loops run. Each operator's loop is written
/// once, over a row range (or a relation) and a [`Governor`]. With one
/// lane — the sequential evaluator and IVM's Δ-rules — it runs inline on
/// the operator's own governor over every row. Split `parts` ways, it runs
/// once per balanced chunk (or hash partition) on scoped workers (see
/// [`Lanes::run`]), and the chunk outputs concatenate or merge back into
/// one canonical relation.
pub(crate) struct Lanes<'b> {
    /// The operator's governor; split lanes run fresh ones on its budget.
    pub(crate) gov: Governor<'b>,
    parts: usize,
    worker_checks: u64,
    worker_ticks: usize,
    /// Per-lane output cardinalities of a split kernel (for the span).
    sizes: Vec<u64>,
}

impl<'b> Lanes<'b> {
    /// One lane on `budget`, charging trips to `stage`.
    pub(crate) fn new(budget: &'b Budget, stage: Stage) -> Lanes<'b> {
        Lanes {
            gov: Governor::new(budget, stage),
            parts: 1,
            worker_checks: 0,
            worker_ticks: 0,
            sizes: Vec::new(),
        }
    }

    /// Checkpoints run by the operator's governor and every worker.
    pub(crate) fn checks(&self) -> u64 {
        self.gov.checks() + self.worker_checks
    }

    /// Loop iterations ticked by the operator's governor and every worker.
    pub(crate) fn ticks(&self) -> usize {
        self.gov.ticks() + self.worker_ticks
    }

    /// Run `f(k, gov)` for every lane `k`. One lane runs inline on the
    /// operator's governor: no spawn. Split, lanes `1..parts` run on scoped
    /// worker threads and lane 0 on the calling thread, each ticking its
    /// own governor against the shared budget; a trip in one worker is
    /// observed by the others at their next check, and the scope joins
    /// every worker before the error propagates, so no thread outlives the
    /// call. Results, worker counters and the first error (by lowest lane)
    /// are collected **in lane order**, so outputs and
    /// [`EvalStats::budget_checks`] are deterministic for a fixed count.
    fn run<T: Send>(
        &mut self,
        f: impl Fn(usize, &mut Governor<'b>) -> Result<T, BudgetExceeded> + Sync,
    ) -> Result<Vec<T>, BudgetExceeded> {
        if self.parts == 1 {
            return Ok(vec![f(0, &mut self.gov)?]);
        }
        let lane = |k: usize, mut gov: Governor<'b>| (f(k, &mut gov), gov.checks(), gov.ticks());
        let reports: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..self.parts)
                .map(|k| {
                    let (lane, gov) = (&lane, self.gov.worker());
                    s.spawn(move || lane(k, gov))
                })
                .collect();
            let mut all = vec![lane(0, self.gov.worker())];
            all.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("partition worker panicked")),
            );
            all
        });
        for (_, checks, ticks) in &reports {
            self.worker_checks += checks;
            self.worker_ticks += ticks;
        }
        reports.into_iter().map(|(res, _, _)| res).collect()
    }

    /// Concatenate the per-lane outputs of an order-preserving loop.
    /// Sound because the lanes cover a canonical input in row order: the
    /// result is strictly ascending, which `from_canonical`
    /// debug-asserts. One lane's buffer becomes the relation as it is.
    fn concat(&mut self, arity: usize, mut chunks: Vec<(Vec<Value>, usize)>) -> Relation {
        if self.parts == 1 {
            let (data, n) = chunks.pop().expect("one lane");
            return Relation::from_canonical(arity, n, data);
        }
        self.sizes = chunks.iter().map(|(_, n)| *n as u64).collect();
        let mut data = Vec::with_capacity(chunks.iter().map(|(d, _)| d.len()).sum());
        for (chunk, _) in &chunks {
            data.extend_from_slice(chunk);
        }
        let n = chunks.iter().map(|(_, n)| n).sum();
        Relation::from_canonical(arity, n, data)
    }

    /// Merge per-lane canonical outputs sorted, under the operator's
    /// governor.
    fn merge(&mut self, arity: usize, rels: Vec<Relation>) -> Result<Relation, BudgetExceeded> {
        if self.parts > 1 {
            self.sizes = rels.iter().map(|r| r.len() as u64).collect();
        }
        merge_sorted(rels, arity, &mut self.gov)
    }

    /// Scan kernel (never split): `base` restricted by the pattern's
    /// constants and repeated variables, each passing row projected onto
    /// the first occurrence of every variable (`cols`). The projection is
    /// injective on passing rows, so table deltas transfer through it too.
    /// A pattern of distinct variables is `base` itself, in O(1).
    pub(crate) fn scan(
        &mut self,
        base: &Relation,
        pattern: &[Term],
        cols: &[Var],
    ) -> Result<Relation, BudgetExceeded> {
        if cols.len() == pattern.len() {
            return Ok(base.clone());
        }
        let first: Vec<usize> = cols
            .iter()
            .map(|v| {
                pattern
                    .iter()
                    .position(|t| *t == Term::Var(*v))
                    .expect("column came from pattern")
            })
            .collect();
        // Every other position must equal a constant or the first
        // occurrence of its variable.
        enum Check {
            Const(Value),
            SameAs(usize),
        }
        let checks: Vec<(usize, Check)> = pattern
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match t {
                Term::Const(c) => Some((i, Check::Const(*c))),
                Term::Var(_) => {
                    let at = pattern.iter().position(|u| u == t).expect("t occurs");
                    (at != i).then_some((i, Check::SameAs(at)))
                }
            })
            .collect();
        let mut out = RelationBuilder::with_capacity(cols.len(), base.len());
        for row in base.iter() {
            self.gov.tick(out.len())?;
            if checks.iter().all(|(i, check)| match check {
                Check::Const(c) => row[*i] == *c,
                Check::SameAs(j) => row[*i] == row[*j],
            }) {
                out.push_row_from(first.iter().map(|&i| row[i]));
            }
        }
        Ok(out.finish())
    }

    /// Order-preserving filter: the rows of `rel` that pass `keep`, one
    /// lane per chunk of rows.
    pub(crate) fn filter(
        &mut self,
        rel: &Relation,
        keep: impl Fn(&[Value]) -> bool + Sync,
    ) -> Result<Relation, BudgetExceeded> {
        let parts = self.parts;
        let chunks = self.run(|k, gov| {
            let mut kept: Vec<Value> = Vec::new();
            let mut n = 0usize;
            for row in rel.rows(chunk_bounds(rel.len(), k, parts)) {
                gov.tick(n)?;
                if keep(row) {
                    kept.extend_from_slice(row);
                    n += 1;
                }
            }
            Ok((kept, n))
        })?;
        Ok(self.concat(rel.arity(), chunks))
    }

    /// Projection of every row onto the column list `proj`, deduplicated;
    /// any list, so it also permutes and duplicates columns. Each lane
    /// projects its chunk through its own builder and the lanes merge
    /// sorted. The identity projection is `rel` itself, in O(1).
    pub(crate) fn project(
        &mut self,
        rel: &Relation,
        proj: &[usize],
    ) -> Result<Relation, BudgetExceeded> {
        if is_identity(proj, rel.arity()) {
            return Ok(rel.clone());
        }
        let parts = self.parts;
        let rels = self.run(|k, gov| {
            let rows = chunk_bounds(rel.len(), k, parts);
            let mut out = RelationBuilder::with_capacity(proj.len(), rows.len());
            for row in rel.rows(rows) {
                gov.tick(out.len())?;
                out.push_row_from(proj.iter().map(|&c| row[c]));
            }
            Ok(out.finish())
        })?;
        self.merge(proj.len(), rels)
    }

    /// Natural join `lrel ⋈ rrel` under `layout`: rows
    /// `lrow ++ rrow[r_extra]`. With no right-only columns it is a
    /// semijoin, with no shared columns a cross product; both preserve the
    /// left order and run one lane per left chunk. Otherwise it is a
    /// [`hash_join`] on the operator's governor; the evaluator splits hash
    /// joins by co-partitioning both sides instead. `r_table`, when given,
    /// is a table over `rrel`'s shared columns to probe instead of
    /// building one.
    pub(crate) fn join(
        &mut self,
        lrel: &Relation,
        rrel: &Relation,
        layout: &JoinLayout,
        r_table: Option<&RowTable>,
    ) -> Result<Relation, BudgetExceeded> {
        if lrel.is_empty() || rrel.is_empty() {
            return Ok(Relation::new(layout.arity(lrel)));
        }
        if layout.r_extra.is_empty() {
            return self.probe_filter(lrel, rrel, layout, r_table, true);
        }
        if !layout.l_shared.is_empty() {
            return hash_join(lrel, rrel, layout, r_table, &mut self.gov);
        }
        // Cross product: with no shared columns `r_extra` is every right
        // column in order, so each chunk's l-major enumeration is
        // canonical.
        let parts = self.parts;
        let chunks = self.run(|k, gov| {
            let rows = chunk_bounds(lrel.len(), k, parts);
            // Sized like the inputs, not the product: a tuple cap must be
            // able to trip before a huge product is allocated.
            let mut data = Vec::with_capacity(rows.len().max(rrel.len()) * layout.arity(lrel));
            let mut n = 0usize;
            for lrow in lrel.rows(rows) {
                for rrow in rrel.iter() {
                    gov.tick(n)?;
                    data.extend_from_slice(lrow);
                    data.extend_from_slice(rrow);
                    n += 1;
                }
            }
            Ok((data, n))
        })?;
        Ok(self.concat(layout.arity(lrel), chunks))
    }

    /// Anti-join for the generalized difference (Def. 9.3): the rows of
    /// `lrel` whose projection onto the right's columns
    /// (`layout.l_shared`) is not a row of `rrel`. `r_table` as in
    /// [`Lanes::join`].
    pub(crate) fn antijoin(
        &mut self,
        lrel: &Relation,
        rrel: &Relation,
        layout: &JoinLayout,
        r_table: Option<&RowTable>,
    ) -> Result<Relation, BudgetExceeded> {
        if lrel.is_empty() || rrel.is_empty() {
            return Ok(lrel.clone());
        }
        self.probe_filter(lrel, rrel, layout, r_table, false)
    }

    /// The left rows that have (`hit`) or lack (`!hit`) a partner in
    /// `rrel` on the shared columns: semijoin and anti-join, filtering
    /// left chunks against one table.
    fn probe_filter(
        &mut self,
        lrel: &Relation,
        rrel: &Relation,
        layout: &JoinLayout,
        r_table: Option<&RowTable>,
        hit: bool,
    ) -> Result<Relation, BudgetExceeded> {
        let built;
        let table = match r_table {
            Some(table) => table,
            None => {
                built = RowTable::build(rrel, &layout.r_shared);
                &built
            }
        };
        self.filter(lrel, |lrow| {
            table.has_partner(rrel, &layout.r_shared, lrow, &layout.l_shared) == hit
        })
    }

    /// Sorted-merge union of two relations in the same column order.
    pub(crate) fn union(&mut self, l: &Relation, r: &Relation) -> Result<Relation, BudgetExceeded> {
        self.sorted_merge(l, r, Relation::union_governed, union_rows)
    }

    /// Sorted-merge difference of two relations in the same column order.
    fn minus(&mut self, l: &Relation, r: &Relation) -> Result<Relation, BudgetExceeded> {
        self.sorted_merge(l, r, Relation::minus_governed, minus_rows)
    }

    /// One lane runs the `whole`-relation merge (with its stitch path for
    /// a tiny side). Split, both sides are cut at aligned key boundaries
    /// ([`aligned_bounds`]) and each range pair runs the same `ranged`
    /// merge loop on its own lane.
    fn sorted_merge(
        &mut self,
        l: &Relation,
        r: &Relation,
        whole: impl FnOnce(&Relation, &Relation, &mut Governor<'b>) -> Result<Relation, BudgetExceeded>,
        ranged: impl Fn(
                &Relation,
                Range<usize>,
                &Relation,
                Range<usize>,
                &mut Governor<'b>,
            ) -> Result<(Vec<Value>, usize), BudgetExceeded>
            + Sync,
    ) -> Result<Relation, BudgetExceeded> {
        if self.parts == 1 {
            return whole(l, r, &mut self.gov);
        }
        let parts = self.parts;
        let rb = aligned_bounds(l, r, parts);
        let chunks = self
            .run(|k, gov| ranged(l, chunk_bounds(l.len(), k, parts), r, rb[k]..rb[k + 1], gov))?;
        Ok(self.concat(l.arity(), chunks))
    }
}

/// Span-wrapping shell around [`eval_node`]: opens an operator span,
/// evaluates, closes it as completed or incomplete. This is the single
/// place tracing observes the operator boundary — the same boundary the
/// governor checkpoints at — and where deep plans move to a fresh stack.
fn eval_rec(expr: &RaExpr, db: &Database, cx: &mut EvalCtx<'_>) -> Result<Relation, EvalError> {
    cx.depth += 1;
    let res = if cx.depth.is_multiple_of(STACK_SEGMENT_LEVELS) {
        on_fresh_stack(|| eval_span(expr, db, cx))
    } else {
        eval_span(expr, db, cx)
    };
    cx.depth -= 1;
    res
}

fn eval_span(expr: &RaExpr, db: &Database, cx: &mut EvalCtx<'_>) -> Result<Relation, EvalError> {
    cx.tracer.open(expr);
    let res = eval_node(expr, db, cx);
    cx.tracer.close(res.as_ref().ok());
    res
}

fn eval_node(expr: &RaExpr, db: &Database, cx: &mut EvalCtx<'_>) -> Result<Relation, EvalError> {
    let budget = cx.budget;
    let mut lanes = Lanes::new(budget, Stage::Eval);
    let out = match expr {
        RaExpr::Scan { pred, pattern } => {
            let base = db
                .relation(*pred)
                .ok_or(EvalError::MissingRelation(*pred))?;
            if base.arity() != pattern.len() {
                return Err(EvalError::ArityMismatch {
                    pred: *pred,
                    stored: base.arity(),
                    pattern: pattern.len(),
                });
            }
            cx.tracer.note_input(base.len());
            lanes.scan(base, pattern, &expr.cols())?
        }
        RaExpr::Single { value, .. } => Relation::singleton(vec![*value].into_boxed_slice()),
        RaExpr::Unit => Relation::unit(),
        RaExpr::Empty { cols } => Relation::new(cols.len()),
        RaExpr::Join(l, r) => {
            let lrel = eval_child(l, db, cx)?;
            let rrel = eval_child(r, db, cx)?;
            cx.tracer.note_input(lrel.len());
            cx.tracer.note_input(rrel.len());
            let layout = JoinLayout::new(&l.cols(), &r.cols());
            if !lrel.is_empty() && !rrel.is_empty() {
                lanes.parts = partition_plan(lrel.len().max(rrel.len()), budget);
            }
            if lanes.parts > 1 && !layout.l_shared.is_empty() && !layout.r_extra.is_empty() {
                // Hash join: co-partition both sides on the shared key, so
                // matching rows meet in the same partition.
                let parts = lanes.parts;
                let lp = lrel.partition_by(&layout.l_shared, parts);
                let rp = rrel.partition_by(&layout.r_shared, parts);
                let joined = lanes.run(|k, gov| hash_join(&lp[k], &rp[k], &layout, None, gov))?;
                lanes.merge(layout.arity(&lrel), joined)?
            } else {
                lanes.join(&lrel, &rrel, &layout, None)?
            }
        }
        RaExpr::Union(l, r) => {
            let lrel = eval_child(l, db, cx)?;
            let rrel = eval_child(r, db, cx)?;
            cx.tracer.note_input(lrel.len());
            cx.tracer.note_input(rrel.len());
            cx.tracer.note_raw((lrel.len() + rrel.len()) as u64);
            let perm = positions(&r.cols(), &l.cols());
            let same_order = is_identity(&perm, lrel.arity());
            let rrel = lanes.project(&rrel, &perm)?;
            if same_order && lrel.arity() > 0 && !lrel.is_empty() && !rrel.is_empty() {
                lanes.parts = partition_plan(lrel.len().max(rrel.len()), budget);
            }
            lanes.union(&lrel, &rrel)?
        }
        RaExpr::Diff(l, r) => {
            let lrel = eval_child(l, db, cx)?;
            let rrel = eval_child(r, db, cx)?;
            cx.tracer.note_input(lrel.len());
            cx.tracer.note_input(rrel.len());
            let layout = JoinLayout::new(&l.cols(), &r.cols());
            if lrel.arity() > 0 && !lrel.is_empty() && !rrel.is_empty() {
                lanes.parts = partition_plan(lrel.len().max(rrel.len()), budget);
            }
            if is_identity(&layout.l_shared, lrel.arity()) {
                // Same columns, same order: plain sorted-merge difference.
                lanes.minus(&lrel, &rrel)?
            } else {
                lanes.antijoin(&lrel, &rrel, &layout, None)?
            }
        }
        RaExpr::Project { input, cols } => {
            let rel = eval_child(input, db, cx)?;
            cx.tracer.note_input(rel.len());
            cx.tracer.note_raw(rel.len() as u64);
            if !rel.is_empty() && !cols.is_empty() {
                lanes.parts = partition_plan(rel.len(), budget);
            }
            lanes.project(&rel, &positions(&input.cols(), cols))?
        }
        RaExpr::Select { input, pred } => {
            let rel = eval_child(input, db, cx)?;
            cx.tracer.note_input(rel.len());
            if !rel.is_empty() {
                lanes.parts = partition_plan(rel.len(), budget);
            }
            lanes.filter(&rel, select_pred(*pred, &input.cols()))?
        }
        RaExpr::Duplicate { input, src, .. } => {
            let rel = eval_child(input, db, cx)?;
            cx.tracer.note_input(rel.len());
            // Every column, then a copy of `src`.
            let icols = input.cols();
            let mut proj: Vec<usize> = (0..icols.len()).collect();
            proj.push(positions(&icols, &[*src])[0]);
            lanes.project(&rel, &proj)?
        }
    };
    cx.tracer.note_partitions(&lanes.sizes);
    cx.stats.record(&out);
    cx.stats.budget_checks += lanes.checks() + 1;
    cx.tracer.note_kernel_rows(lanes.ticks() as u64);
    budget.checkpoint(Stage::Eval)?;
    budget.charge_tuples(Stage::Eval, out.len() as u64)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::FaultInjector;
    use crate::relation::tuple;
    use std::sync::Arc;

    fn db() -> Database {
        Database::from_facts("P(1, 2)\nP(2, 3)\nP(3, 3)\nQ(2)\nQ(3)\nR(1)\nS(1, 2)\nS(9, 9)")
            .unwrap()
    }

    #[test]
    fn scan_plain() {
        let e = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        let r = eval(&e, &db(), &mut EvalCtx::default()).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn scan_with_constant_selects() {
        // P(x, 3)
        let e = RaExpr::scan("P", vec![Term::var("x"), Term::val(3)]);
        let r = eval(&e, &db(), &mut EvalCtx::default()).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[Value::int(2)]));
        assert!(r.contains(&[Value::int(3)]));
    }

    #[test]
    fn scan_with_repeated_var_selects_diagonal() {
        // P(x, x)
        let e = RaExpr::scan("P", vec![Term::var("x"), Term::var("x")]);
        let r = eval(&e, &db(), &mut EvalCtx::default()).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[Value::int(3)]));
    }

    #[test]
    fn natural_join_on_shared_column() {
        // P(x, y) ⋈ Q(y)
        let e = RaExpr::join(
            RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("Q", vec![Term::var("y")]),
        );
        let r = eval(&e, &db(), &mut EvalCtx::default()).unwrap();
        assert_eq!(e.cols(), vec![Var::new("x"), Var::new("y")]);
        assert_eq!(r.len(), 3); // (1,2), (2,3), (3,3)
    }

    #[test]
    fn cross_product_when_no_shared_columns() {
        let e = RaExpr::join(
            RaExpr::scan("Q", vec![Term::var("x")]),
            RaExpr::scan("R", vec![Term::var("z")]),
        );
        let r = eval(&e, &db(), &mut EvalCtx::default()).unwrap();
        assert_eq!(r.len(), 2); // {2,3} × {1}
    }

    #[test]
    fn join_with_extra_columns_on_both_sides() {
        // P(x, y) ⋈ S(y, z): shared y, extra z from the right.
        let mut d = db();
        d.insert_fact("T", tuple([2i64, 7])).unwrap();
        d.insert_fact("T", tuple([3i64, 8])).unwrap();
        let e = RaExpr::join(
            RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("T", vec![Term::var("y"), Term::var("z")]),
        );
        let r = eval(&e, &d, &mut EvalCtx::default()).unwrap();
        assert_eq!(e.cols(), vec![Var::new("x"), Var::new("y"), Var::new("z")]);
        assert_eq!(r.len(), 3);
        assert!(r.contains(&[Value::int(1), Value::int(2), Value::int(7)]));
        assert!(r.contains(&[Value::int(2), Value::int(3), Value::int(8)]));
        assert!(r.contains(&[Value::int(3), Value::int(3), Value::int(8)]));
    }

    #[test]
    fn union_permutes_columns() {
        // P(x, y) ∪ S(y, x): S rows must be flipped.
        let e = RaExpr::union(
            RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("S", vec![Term::var("y"), Term::var("x")]),
        );
        let r = eval(&e, &db(), &mut EvalCtx::default()).unwrap();
        // S(1,2) flipped is (x=2, y=1); S(9,9) is (9,9).
        assert!(r.contains(&[Value::int(2), Value::int(1)]));
        assert!(r.contains(&[Value::int(9), Value::int(9)]));
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn diff_is_antijoin_on_subset_columns() {
        // P(x, y) diff Q(y): keep P-rows whose y is not in Q.
        let e = RaExpr::diff(
            RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("Q", vec![Term::var("y")]),
        );
        let r = eval(&e, &db(), &mut EvalCtx::default()).unwrap();
        assert!(r.is_empty()); // every P.y ∈ {2,3} = Q
        let e2 = RaExpr::diff(
            RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("R", vec![Term::var("y")]),
        );
        let r2 = eval(&e2, &db(), &mut EvalCtx::default()).unwrap();
        assert_eq!(r2.len(), 3); // no P.y is 1
    }

    #[test]
    fn project_deduplicates() {
        // π_y P(x, y) = {2, 3}
        let e = RaExpr::project(
            RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]),
            vec![Var::new("y")],
        );
        let r = eval(&e, &db(), &mut EvalCtx::default()).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn select_variants() {
        let p = RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]);
        let eq = eval(
            &RaExpr::select(p.clone(), SelPred::EqCols(Var::new("x"), Var::new("y"))),
            &db(),
            &mut EvalCtx::default(),
        )
        .unwrap();
        assert_eq!(eq.len(), 1);
        let neq = eval(
            &RaExpr::select(p.clone(), SelPred::NeqCols(Var::new("x"), Var::new("y"))),
            &db(),
            &mut EvalCtx::default(),
        )
        .unwrap();
        assert_eq!(neq.len(), 2);
        let eqc = eval(
            &RaExpr::select(p.clone(), SelPred::EqConst(Var::new("x"), Value::int(2))),
            &db(),
            &mut EvalCtx::default(),
        )
        .unwrap();
        assert_eq!(eqc.len(), 1);
        let neqc = eval(
            &RaExpr::select(p, SelPred::NeqConst(Var::new("x"), Value::int(2))),
            &db(),
            &mut EvalCtx::default(),
        )
        .unwrap();
        assert_eq!(neqc.len(), 2);
    }

    #[test]
    fn duplicate_copies_column() {
        let e = RaExpr::Duplicate {
            input: Arc::new(RaExpr::scan("Q", vec![Term::var("x")])),
            src: Var::new("x"),
            dst: Var::new("x2"),
        };
        let r = eval(&e, &db(), &mut EvalCtx::default()).unwrap();
        assert!(r.contains(&[Value::int(2), Value::int(2)]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn unit_and_single() {
        assert_eq!(
            eval(&RaExpr::Unit, &db(), &mut EvalCtx::default())
                .unwrap()
                .as_bool(),
            Some(true)
        );
        let s = eval(
            &RaExpr::Single {
                var: Var::new("x"),
                value: Value::str("none"),
            },
            &db(),
            &mut EvalCtx::default(),
        )
        .unwrap();
        assert!(s.contains(&[Value::str("none")]));
    }

    #[test]
    fn missing_relation_errors() {
        let e = RaExpr::scan("Zzz", vec![Term::var("x")]);
        assert!(matches!(
            eval(&e, &db(), &mut EvalCtx::default()),
            Err(EvalError::MissingRelation(_))
        ));
    }

    #[test]
    fn stats_accumulate() {
        let e = RaExpr::join(
            RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("Q", vec![Term::var("y")]),
        );
        let mut cx = EvalCtx::default();
        let r = eval(&e, &db(), &mut cx).unwrap();
        let stats = cx.stats;
        assert_eq!(stats.operators, 3);
        assert_eq!(stats.tuples_produced, (3 + 2 + r.len()) as u64);
        assert!(stats.max_intermediate >= r.len());
    }

    #[test]
    fn stats_merge_is_componentwise() {
        let mut a = EvalStats {
            operators: 2,
            tuples_produced: 10,
            max_intermediate: 7,
            budget_checks: 1,
            memo_hits: 1,
        };
        a.merge(EvalStats {
            operators: 3,
            tuples_produced: 4,
            max_intermediate: 9,
            budget_checks: 2,
            memo_hits: 2,
        });
        assert_eq!(
            a,
            EvalStats {
                operators: 5,
                tuples_produced: 14,
                max_intermediate: 9,
                budget_checks: 3,
                memo_hits: 3,
            }
        );
    }

    #[test]
    fn empty_tuple_relation_roundtrip() {
        let mut d = Database::new();
        d.insert_relation("B", Relation::unit());
        let e = RaExpr::scan("B", vec![]);
        assert_eq!(
            eval(&e, &d, &mut EvalCtx::default()).unwrap().as_bool(),
            Some(true)
        );
        let _ = tuple([1i64]); // silence unused import when tests shrink
    }

    /// A database big enough for interesting partition splits, with keys
    /// shared between `A` and `B` and half of `A` mirrored into `A2`.
    fn partition_db() -> Database {
        let mut d = Database::new();
        let mut a = RelationBuilder::new(2);
        let mut a2 = RelationBuilder::new(2);
        let mut b = RelationBuilder::new(2);
        let mut c = RelationBuilder::new(1);
        for i in 0..500i64 {
            a.push_row(&[Value::int(i), Value::int(i % 23)]);
            b.push_row(&[Value::int(i % 23), Value::int(i % 7)]);
            if i % 2 == 0 {
                a2.push_row(&[Value::int(i), Value::int(i % 23)]);
            }
            if i < 5 {
                c.push_row(&[Value::int(i)]);
            }
        }
        d.insert_relation("A", a.finish());
        d.insert_relation("A2", a2.finish());
        d.insert_relation("B", b.finish());
        d.insert_relation("C", c.finish());
        d
    }

    /// One expression per partitioned kernel family: hash join, semijoin,
    /// cross product, sorted-merge union and difference, anti-join,
    /// projection, selection.
    fn kernel_family_plans() -> Vec<RaExpr> {
        let a = RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]);
        let a2 = RaExpr::scan("A2", vec![Term::var("x"), Term::var("y")]);
        let b = RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]);
        let c = RaExpr::scan("C", vec![Term::var("u")]);
        vec![
            RaExpr::join(a.clone(), b.clone()),
            RaExpr::join(a.clone(), RaExpr::project(b.clone(), vec![Var::new("y")])),
            RaExpr::join(c, a.clone()),
            RaExpr::union(a.clone(), a2.clone()),
            RaExpr::diff(a.clone(), a2),
            RaExpr::diff(a.clone(), RaExpr::project(b, vec![Var::new("y")])),
            RaExpr::project(a.clone(), vec![Var::new("y")]),
            RaExpr::select(a, SelPred::NeqCols(Var::new("x"), Var::new("y"))),
        ]
    }

    #[test]
    fn forced_partitions_are_invisible_in_results() {
        let d = partition_db();
        for e in kernel_family_plans() {
            let seq = Budget::new().with_partitions(1);
            let want = eval(&e, &d, &mut EvalCtx::new(&seq)).unwrap();
            for n in [2usize, 3, 7, 1000] {
                let budget = Budget::new().with_partitions(n);
                let got = eval(&e, &d, &mut EvalCtx::new(&budget)).unwrap();
                assert_eq!(want, got, "partitions={n} plan={e}");
                assert_eq!(want.to_string(), got.to_string(), "partitions={n}");
            }
        }
    }

    #[test]
    fn forced_partitions_reproduce_stats_and_spans() {
        let d = partition_db();
        for e in kernel_family_plans() {
            let budget = Budget::new().with_partitions(4);
            let mut c1 = EvalCtx::new(&budget).with_tracer(Tracer::on());
            let mut c2 = EvalCtx::new(&budget).with_tracer(Tracer::on());
            let r1 = eval(&e, &d, &mut c1).unwrap();
            let r2 = eval(&e, &d, &mut c2).unwrap();
            assert_eq!(r1, r2);
            assert_eq!(
                c1.stats, c2.stats,
                "stats must reproduce under a fixed count"
            );
            let (p1, p2) = (c1.tracer.finish().unwrap(), c2.tracer.finish().unwrap());
            assert_eq!(
                p1.partitioned_projection(),
                p2.partitioned_projection(),
                "per-partition spans must reproduce under a fixed count"
            );
            assert!(p1.any_parallel(), "plan {e} never partitioned");
        }
    }

    #[test]
    fn spawn_denial_beats_partition_override() {
        let d = partition_db();
        let e = RaExpr::join(
            RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]),
        );
        let fault = FaultInjector::new();
        fault.deny_thread_spawn(true);
        let denied = Budget::new().with_partitions(8).with_fault_injector(fault);
        let mut cx = EvalCtx::new(&denied).with_tracer(Tracer::on());
        let got = eval(&e, &d, &mut cx).unwrap();
        let root = cx.tracer.finish().unwrap();
        assert!(!root.any_parallel(), "denied spawn must stay sequential");
        let plain = eval(&e, &d, &mut EvalCtx::default()).unwrap();
        assert_eq!(got, plain);
    }

    #[test]
    fn partitioned_budget_trip_is_clean_and_engine_reusable() {
        let d = partition_db();
        let e = RaExpr::join(
            RaExpr::scan("A", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("B", vec![Term::var("y"), Term::var("z")]),
        );
        let tight = Budget::new().with_partitions(4).with_max_tuples(100);
        let err = eval(&e, &d, &mut EvalCtx::new(&tight))
            .expect_err("tuple cap must trip inside the partitioned join");
        assert!(matches!(err, EvalError::Budget(_)));
        // The tripped run left nothing behind: the same database serves a
        // fresh run.
        let ok = eval(&e, &d, &mut EvalCtx::default()).unwrap();
        assert!(!ok.is_empty());
    }

    /// A plan whose join subtree appears in both union branches (under
    /// different selections, so union dedup cannot collapse them).
    fn shared_subtree_plan() -> RaExpr {
        let j = RaExpr::join(
            RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("Q", vec![Term::var("y")]),
        );
        RaExpr::union(
            RaExpr::select(j.clone(), SelPred::EqCols(Var::new("x"), Var::new("y"))),
            RaExpr::select(j, SelPred::NeqCols(Var::new("x"), Var::new("y"))),
        )
    }

    #[test]
    fn shared_subplans_evaluate_once_and_count_hits() {
        let d = db();
        let e = shared_subtree_plan();
        let want = crate::baseline::eval_baseline(&e, &d).unwrap();
        let mut cx = EvalCtx::default().with_tracer(Tracer::on());
        let got = eval(&e, &d, &mut cx).unwrap();
        let stats = cx.stats;
        assert_eq!(want, got);
        // The join subtree (join + 2 scans) is computed once and served
        // once: one memo hit, and only the 6 distinct DAG nodes count as
        // evaluated operators (the tree has 9).
        assert_eq!(stats.memo_hits, 1);
        assert_eq!(stats.operators, 6);
        assert_eq!(e.node_count(), 9);
        let root = cx.tracer.finish().expect("span tree");
        fn count_hits(s: &OpSpan) -> usize {
            s.cache_hit as usize + s.children.iter().map(count_hits).sum::<usize>()
        }
        use crate::trace::OpSpan;
        assert_eq!(count_hits(&root), 1);
        // The hit span is a leaf reporting the memoized cardinality.
        fn find_hit(s: &OpSpan) -> Option<&OpSpan> {
            if s.cache_hit {
                return Some(s);
            }
            s.children.iter().find_map(find_hit)
        }
        let hit = find_hit(&root).expect("cache-hit span");
        assert!(hit.children.is_empty());
        assert!(hit.completed);
        assert_eq!(hit.op, "join");
    }

    #[test]
    fn unshared_plans_have_no_memo_hits() {
        let d = db();
        let e = RaExpr::diff(
            RaExpr::scan("P", vec![Term::var("x"), Term::var("y")]),
            RaExpr::scan("S", vec![Term::var("x"), Term::var("y")]),
        );
        let mut cx = EvalCtx::default();
        let got = eval(&e, &d, &mut cx).unwrap();
        assert_eq!(got, crate::baseline::eval_baseline(&e, &d).unwrap());
        assert_eq!(cx.stats.memo_hits, 0);
        assert_eq!(cx.stats.operators, 3);
    }

    #[test]
    fn memo_hits_still_charge_the_tuple_budget() {
        let d = db();
        let e = shared_subtree_plan();
        // Ungoverned: find out how many tuples the run charges.
        let mut cx = EvalCtx::default();
        eval(&e, &d, &mut cx).unwrap();
        assert_eq!(cx.stats.memo_hits, 1);
        let full = Budget::new().with_max_tuples(1_000_000);
        eval(&e, &d, &mut EvalCtx::new(&full)).unwrap();
        let charged = full.tuples_used();
        assert!(charged > 0);
        // A budget one short of that must trip — even though the final
        // tuples flow through a memo hit, the hit still charges its
        // materialized cardinality.
        let tight = Budget::new().with_max_tuples(charged - 1);
        let err = eval(&e, &d, &mut EvalCtx::new(&tight)).expect_err("tuple cap must trip");
        assert!(matches!(err, EvalError::Budget(_)), "got {err:?}");
    }
}

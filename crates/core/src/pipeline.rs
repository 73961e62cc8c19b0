//! The end-to-end query pipeline: classify → (equality-reduce) → `genify`
//! → `ranf` → translate → simplify → evaluate.
//!
//! This is the public face of the reproduction: given any relational
//! calculus formula, [`compile_for`] either produces a Dom-free relational
//! algebra expression computing its answer, or rejects it with the reason
//! it is unsafe. Unlike the approaches the paper criticizes (Sec. 3), the
//! pipeline never silently reinterprets a formula: every transformation
//! preserves logical equivalence, and unsafety is reported, not papered
//! over.
//!
//! [`serve`] is the one way to run a query text end to end: plan lookup →
//! result lookup → IVM refresh → evaluation, through any [`PlanStore`]
//! (a [`rc_relalg::PlanCache`], shareable across threads, or the
//! retain-nothing
//! [`rc_relalg::NoCache`]), in
//! [`Mode::Safe`] or — via safe pairs ([`crate::anyrc`]) — [`Mode::Any`].

use crate::anyrc::Guard;
use crate::classes::{check_evaluable, is_allowed, SafetyViolation};
use crate::eqreduce::equality_reduce;
use crate::generator::ConjunctChoice;
use crate::genify::{genify_reported, GenifyError};
use crate::ranf::{ranf_reported, RanfError};
use crate::translate::{translate_reported, TranslateError};
use rc_formula::ast::Formula;
use rc_formula::parser::ParseError;
use rc_formula::term::Var;
use rc_formula::vars::{free_vars, is_rectified, rectified};
use rc_relalg::govern::{Budget, BudgetExceeded, Stage};
use rc_relalg::{
    eval, refresh, worth_refreshing, Database, Estimator, EvalCtx, EvalError, EvalStats,
    MaintainedView, OpSpan, PipelineTrace, PlanCache, PlanStore, RaExpr, RefreshError, Relation,
    SharedPlanCache, StageTracer, TraceSink, Tracer,
};
use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The safety classes of the paper, most restrictive first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SafetyClass {
    /// Allowed (Def. 5.3) — directly translatable.
    Allowed,
    /// Evaluable (Def. 5.2) but not allowed — needs `genify`.
    Evaluable,
    /// Wide-sense evaluable (Def. A.1) — needs equality reduction first.
    WideSenseEvaluable,
    /// Not recognized as safe (may or may not be domain independent —
    /// the general question is undecidable, Sec. 2.2).
    NotRecognized,
}

impl fmt::Display for SafetyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyClass::Allowed => write!(f, "allowed"),
            SafetyClass::Evaluable => write!(f, "evaluable"),
            SafetyClass::WideSenseEvaluable => write!(f, "wide-sense evaluable"),
            SafetyClass::NotRecognized => write!(f, "not recognized as safe"),
        }
    }
}

/// Classify a formula into the paper's hierarchy.
///
/// The class checks (Defs. 5.2/5.3 via `gen`/`con`) assume a *rectified*
/// formula — distinct bound variables, none shadowing a free one — so the
/// input is rectified here first (classes are invariant under renaming of
/// bound variables, and the rest of the pipeline compiles the rectified
/// form anyway). On raw shadowed input the checks are conservative, never
/// unsound: `gen` refuses to cross a binder that rebinds the queried
/// variable, so an unrectified formula could only be *downgraded* (e.g.
/// `Q(x) ∨ ¬∃x true` reporting `NotRecognized` for what is plainly
/// `Q(x)`), never accepted into a class it does not belong to.
pub fn classify(f: &Formula) -> SafetyClass {
    let renamed;
    let f = if is_rectified(f) {
        f
    } else {
        renamed = rectified(f);
        &renamed
    };
    if is_allowed(f) {
        SafetyClass::Allowed
    } else if check_evaluable(f).is_ok() {
        SafetyClass::Evaluable
    } else if crate::eqreduce::is_wide_sense_evaluable(f) {
        SafetyClass::WideSenseEvaluable
    } else {
        SafetyClass::NotRecognized
    }
}

/// Options for [`compile_with`] and [`serve`].
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Attempt equality reduction (Alg. A.1) when the formula is not
    /// strict-sense evaluable.
    pub equality_reduction: bool,
    /// Run the algebraic simplifier on the final expression.
    pub optimize: bool,
    /// Resource budget governing every stage (subsumes the old
    /// `RanfBudget`: set [`Budget::with_max_nodes`] to bound formula
    /// blowup). The default is unlimited apart from `ranf`'s built-in
    /// distribution backstop.
    pub budget: Budget,
    /// Resolution of the Fig. 5 conjunction nondeterminism in `genify`.
    pub generator_choice: ConjunctChoice,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            equality_reduction: true,
            optimize: true,
            budget: Budget::new(),
            generator_choice: ConjunctChoice::Smallest,
        }
    }
}

impl CompileOptions {
    /// Fingerprint of the *semantic* options — the ones that change what
    /// plan a query text compiles to. Used as part of the
    /// [`PlanCache`] plan key so that toggling, say, the optimizer cannot
    /// serve a plan compiled under different options. The budget is
    /// deliberately excluded: it bounds resources, never the plan.
    pub fn cache_key(&self) -> u64 {
        let mut h = rc_formula::fxhash::FxHasher::default();
        self.equality_reduction.hash(&mut h);
        self.optimize.hash(&mut h);
        match self.generator_choice {
            ConjunctChoice::Smallest => 0u8.hash(&mut h),
            ConjunctChoice::First => 1u8.hash(&mut h),
        }
        h.finish()
    }
}

/// A compiled query: every intermediate stage is kept for inspection.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The (rectified) input formula.
    pub original: Formula,
    /// Its safety class.
    pub class: SafetyClass,
    /// The equality-reduced form, when that stage ran.
    pub reduced: Option<Formula>,
    /// The allowed form produced by `genify` (Alg. 8.1).
    pub allowed_form: Formula,
    /// The RANF form (Alg. 9.1).
    pub ranf_form: Formula,
    /// The final relational algebra expression.
    pub expr: RaExpr,
    /// Answer columns: the free variables of the input, in first-occurrence
    /// order.
    pub columns: Vec<Var>,
}

/// Compilation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    /// The formula is not in any recognized safe class.
    NotSafe(SafetyViolation),
    /// A resource bound tripped; carries the stage, bound, and consumption.
    Budget(BudgetExceeded),
    /// `ranf` failed internally.
    Ranf(RanfError),
    /// Translation failed (should not happen on `ranf` output).
    Translate(TranslateError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NotSafe(v) => write!(f, "query is not safe: {v}"),
            CompileError::Budget(b) => write!(f, "budget exceeded: {b}"),
            CompileError::Ranf(e) => write!(f, "normalization failed: {e}"),
            CompileError::Translate(e) => write!(f, "translation failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<GenifyError> for CompileError {
    fn from(e: GenifyError) -> Self {
        match e {
            GenifyError::NotEvaluable(v) => CompileError::NotSafe(v),
            GenifyError::Budget(b) => CompileError::Budget(b),
        }
    }
}

impl From<RanfError> for CompileError {
    fn from(e: RanfError) -> Self {
        match e {
            RanfError::Budget(b) => CompileError::Budget(b),
            other => CompileError::Ranf(other),
        }
    }
}

impl From<TranslateError> for CompileError {
    fn from(e: TranslateError) -> Self {
        match e {
            TranslateError::Budget(b) => CompileError::Budget(b),
            other => CompileError::Translate(other),
        }
    }
}

/// Compile a formula into a Dom-free relational algebra expression.
///
/// Without a target database the final stage runs the statistics-free
/// [`rc_relalg::simplify`]; use [`compile_for`] to get cost-based join
/// reordering against a concrete database's statistics.
pub fn compile_with(f: &Formula, opts: CompileOptions) -> Result<Compiled, CompileError> {
    compile_traced_for(f, opts, None, &mut StageTracer::off())
}

/// [`compile_with`] against a target database: when `opts.optimize` is on,
/// the final stage runs the full cost-based planner
/// ([`rc_relalg::optimize()`]) — cardinality estimation from `db`'s
/// statistics (and any trace-fed observed cardinalities), join reordering,
/// and cost-gated projection placement. The compiled plan is still
/// portable: it evaluates correctly against any database, it is merely
/// *tuned* for this one.
pub fn compile_for(
    f: &Formula,
    opts: CompileOptions,
    db: &Database,
) -> Result<Compiled, CompileError> {
    compile_traced_for(f, opts, Some(db), &mut StageTracer::off())
}

/// The compiler: every stage from classification to the optimized,
/// hash-consed plan, with an optional target database enabling the
/// cost-based planner (see [`compile_for`]). One
/// [`rc_relalg::StageSpan`] per stage is recorded into `st` (node counts,
/// wall time, and a deterministic stage detail such as `class=` or
/// `repairs=`); on an error the open span is left for
/// [`StageTracer::into_trace`] to seal as failed, so a partial trace names
/// the stage that tripped.
pub fn compile_traced_for(
    f: &Formula,
    opts: CompileOptions,
    db: Option<&Database>,
    st: &mut StageTracer,
) -> Result<Compiled, CompileError> {
    let original = rectified(f);
    let columns = free_vars(&original);

    // Stage 1: find an evaluable form.
    st.begin(Stage::Classify, original.node_count() as u64);
    let (class, evaluable_form, reduced) = match check_evaluable(&original) {
        Ok(()) => {
            let class = if is_allowed(&original) {
                SafetyClass::Allowed
            } else {
                SafetyClass::Evaluable
            };
            (class, original.clone(), None)
        }
        Err(violation) => {
            if opts.equality_reduction {
                let r = equality_reduce(&original);
                if check_evaluable(&r).is_ok() {
                    (SafetyClass::WideSenseEvaluable, r.clone(), Some(r))
                } else {
                    return Err(CompileError::NotSafe(violation));
                }
            } else {
                return Err(CompileError::NotSafe(violation));
            }
        }
    };
    st.end(evaluable_form.node_count() as u64, format!("class={class}"));

    // Stage 2: evaluable → allowed (Alg. 8.1).
    st.begin(Stage::Genify, evaluable_form.node_count() as u64);
    let (allowed_form, genify_report) =
        genify_reported(&evaluable_form, opts.generator_choice, &opts.budget)?;
    st.end(
        allowed_form.node_count() as u64,
        format!("repairs={}", genify_report.repairs),
    );

    // Stage 3: allowed → RANF (Alg. 9.1).
    st.begin(Stage::Ranf, allowed_form.node_count() as u64);
    let (ranf_form, ranf_report) = ranf_reported(&allowed_form, &opts.budget)?;
    st.end(
        ranf_form.node_count() as u64,
        format!("step1_nodes={}", ranf_report.nodes_step1),
    );

    // Stage 4: RANF → algebra (Sec. 9.3).
    st.begin(Stage::Translate, ranf_form.node_count() as u64);
    let (raw, ops_emitted) = translate_reported(&ranf_form, &opts.budget)?;
    st.end(
        raw.node_count() as u64,
        format!("ops_emitted={ops_emitted}"),
    );

    // Stage 5: impose the answer column order, optimize (cost-based when a
    // target database's statistics are in reach, plain simplification
    // otherwise), then hash-cons into a DAG so genify/RANF-duplicated
    // subplans are physically shared (the memoizing evaluator computes
    // each shared node once; the stage detail reports the chosen planner
    // and how many tree nodes the interner folded away).
    st.begin(Stage::Optimize, raw.node_count() as u64);
    let expr = impose_columns(raw, &columns, &ranf_form)?;
    let (expr, planner) = match (opts.optimize, db) {
        (true, Some(db)) => (rc_relalg::optimize(&expr, db), "cost"),
        (true, None) => (rc_relalg::simplify(&expr), "simplify"),
        (false, _) => (expr, "off"),
    };
    let (expr, intern_stats) = rc_relalg::intern(&expr);
    st.end(
        expr.node_count() as u64,
        format!("planner={planner} shared={}", intern_stats.shared_nodes()),
    );

    Ok(Compiled {
        original,
        class,
        reduced,
        allowed_form,
        ranf_form,
        expr,
        columns,
    })
}

fn impose_columns(
    raw: RaExpr,
    columns: &[Var],
    ranf_form: &Formula,
) -> Result<RaExpr, CompileError> {
    let have = raw.cols();
    if have == columns {
        return Ok(raw);
    }
    if columns.iter().all(|v| have.contains(v)) {
        return Ok(RaExpr::project(raw, columns.to_vec()));
    }
    // A free variable's column can only vanish when simplification proved
    // the formula unsatisfiable; anything else means a transformation
    // changed the free variables, which would silently reinterpret the
    // query — refuse instead.
    if ranf_form.is_false() {
        Ok(RaExpr::Empty {
            cols: columns.to_vec(),
        })
    } else {
        Err(CompileError::Ranf(RanfError::Stuck(format!(
            "free-variable columns {columns:?} not all present in {have:?}"
        ))))
    }
}

impl Compiled {
    /// A human-readable report of every compilation stage — what the REPL's
    /// `explain` command prints.
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "query:    {}", self.original);
        let _ = writeln!(out, "class:    {}", self.class);
        if let Some(r) = &self.reduced {
            let _ = writeln!(out, "reduced:  {r}   (Alg. A.1 equality reduction)");
        }
        if self.allowed_form != self.original {
            let _ = writeln!(out, "allowed:  {}   (Alg. 8.1 genify)", self.allowed_form);
        } else {
            let _ = writeln!(out, "allowed:  (input already allowed)");
        }
        if self.ranf_form != self.allowed_form {
            let _ = writeln!(out, "ranf:     {}   (Alg. 9.1)", self.ranf_form);
        } else {
            let _ = writeln!(out, "ranf:     (allowed form already in RANF)");
        }
        let _ = writeln!(out, "algebra:  {}", self.expr);
        let cols: Vec<String> = self.columns.iter().map(|v| v.to_string()).collect();
        let _ = writeln!(out, "columns:  ({})", cols.join(", "));
        out
    }

    /// Evaluate the compiled plan against `db` — uncached, under `cx`'s
    /// budget, tracer and memo (see [`EvalCtx`]).
    pub fn run(&self, db: &Database, cx: &mut EvalCtx<'_>) -> Result<Relation, EvalError> {
        eval(&self.expr, &prepare(db, &self.original), cx)
    }

    /// [`Compiled::run`] with a recording memo, returning the standing
    /// query ([`MaintainedView`]) stamped `base_version` alongside the
    /// answer.
    pub fn run_maintained(
        &self,
        db: &Database,
        base_version: u64,
        stats: &mut EvalStats,
        budget: &Budget,
        tracer: &mut Tracer,
    ) -> Result<(Relation, MaintainedView), EvalError> {
        let mut cx = EvalCtx::new(budget)
            .with_tracer(std::mem::take(tracer))
            .memoized();
        let out = self.run(db, &mut cx);
        stats.merge(cx.stats);
        *tracer = std::mem::take(&mut cx.tracer);
        Ok((
            out?,
            MaintainedView::recorded(&mut cx, base_version).expect("memoized run"),
        ))
    }
}

/// Make missing query predicates evaluate as empty relations rather than
/// errors (matching the logical semantics of an absent relation).
fn prepare(db: &Database, f: &Formula) -> Database {
    let mut out = db.clone();
    for (p, arity) in f.predicates() {
        out.declare(p, arity);
    }
    out
}

/// Unified failure taxonomy for the whole pipeline
/// (parse → classify → genify → ranf → translate → eval), with resource
/// trips carried as structured [`BudgetExceeded`] reports.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The formula is not in any recognized safe class.
    NotSafe(SafetyViolation),
    /// A resource bound tripped; carries the stage, bound, and consumption.
    Budget(BudgetExceeded),
    /// `ranf` failed internally.
    Ranf(RanfError),
    /// Translation failed (should not happen on `ranf` output).
    Translate(TranslateError),
    /// Evaluation failed for a non-budget reason.
    Eval(EvalError),
}

impl PipelineError {
    /// The pipeline stage this error is attributed to.
    pub fn stage(&self) -> Stage {
        match self {
            PipelineError::Parse(_) => Stage::Parse,
            PipelineError::NotSafe(_) => Stage::Classify,
            PipelineError::Budget(b) => b.stage,
            PipelineError::Ranf(_) => Stage::Ranf,
            PipelineError::Translate(_) => Stage::Translate,
            PipelineError::Eval(_) => Stage::Eval,
        }
    }

    /// The structured budget report, when a resource bound tripped.
    pub fn budget(&self) -> Option<&BudgetExceeded> {
        match self {
            PipelineError::Budget(b) => Some(b),
            _ => None,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse error: {e}"),
            PipelineError::NotSafe(v) => write!(f, "query is not safe: {v}"),
            PipelineError::Budget(b) => write!(f, "budget exceeded: {b}"),
            PipelineError::Ranf(e) => write!(f, "normalization failed: {e}"),
            PipelineError::Translate(e) => write!(f, "translation failed: {e}"),
            PipelineError::Eval(e) => write!(f, "evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CompileError> for PipelineError {
    fn from(e: CompileError) -> Self {
        match e {
            CompileError::NotSafe(v) => PipelineError::NotSafe(v),
            CompileError::Budget(b) => PipelineError::Budget(b),
            CompileError::Ranf(e) => PipelineError::Ranf(e),
            CompileError::Translate(e) => PipelineError::Translate(e),
        }
    }
}

impl From<EvalError> for PipelineError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::Budget(b) => PipelineError::Budget(b),
            other => PipelineError::Eval(other),
        }
    }
}

/// Which answer a [`Request`] asks for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mode {
    /// The paper's pipeline: a formula outside every recognized safe class
    /// is rejected with the reason.
    #[default]
    Safe,
    /// Any formula: recognized formulas are served exactly as in
    /// [`Mode::Safe`], everything else through the safe pair of
    /// [`crate::anyrc`] — the active-domain answer plus per-column
    /// infiniteness.
    Any,
}

/// One query for [`serve`].
#[derive(Clone, Debug)]
pub struct Request<'a> {
    /// The query text (also the plan-cache key).
    pub text: &'a str,
    /// Compilation options; `opts.budget` governs the whole serve.
    pub opts: CompileOptions,
    /// Safe-class or any-formula answer.
    pub mode: Mode,
    /// When set, the serve records its [`PipelineTrace`] here — on failure
    /// too, so a partial trace names the stage and operator that tripped.
    pub trace: Option<&'a RefCell<PipelineTrace>>,
}

impl<'a> Request<'a> {
    /// An untraced [`Mode::Safe`] request.
    pub fn new(text: &'a str, opts: CompileOptions) -> Request<'a> {
        Request {
            text,
            opts,
            mode: Mode::Safe,
            trace: None,
        }
    }
}

/// What [`serve`] produces: the answer, its plan, evaluation counters, and
/// which store layers were hit. For a safe pair the flags are conjunctions
/// over both legs (`plan_cached`, `result_cached`) or a disjunction
/// (`result_refreshed`) — a pair is only "cached" when both halves were.
#[derive(Clone, Debug)]
pub struct Served {
    /// The compiled plan, shared with the store (for a safe pair, the fin
    /// leg's plan).
    pub compiled: Arc<Compiled>,
    /// The classifier's verdict on the query.
    pub class: SafetyClass,
    /// The answer; for a safe pair, the active-domain answer.
    pub relation: Relation,
    /// The structural hash keying the plan's result-cache entry (for a
    /// safe pair, the fin leg's): with `relation` it finds the entry's
    /// memoised body ([`rc_relalg::PlanCache::result_body`]).
    pub plan_hash: u64,
    /// Evaluation counters, summed over both legs of a safe pair. On a
    /// result hit only the governance charge is recorded.
    pub stats: EvalStats,
    /// Was parse → … → optimize skipped via the plan cache?
    pub plan_cached: bool,
    /// Was evaluation skipped via the result cache? Also true when a stale
    /// entry was delta-refreshed (see `result_refreshed`).
    pub result_cached: bool,
    /// Was a stale cached result *refreshed* by delta propagation
    /// ([`rc_relalg::ivm`]) rather than served verbatim or recomputed?
    pub result_refreshed: bool,
    /// Did the safe-pair construction run?
    pub safe_pair: bool,
    /// Per-column infiniteness: `per_variable[j]` is `true` when some
    /// infinite-domain answer tuple carries a non-active-domain value in
    /// column `j`. All `false` unless a safe pair found such a tuple.
    pub per_variable: Vec<bool>,
}

impl Served {
    /// Does the answer under an infinite domain contain tuples outside the
    /// active domain?
    pub fn maybe_infinite(&self) -> bool {
        self.per_variable.contains(&true)
    }
}

/// Serve a query text end to end through `store`: plan lookup → result
/// lookup → IVM refresh → evaluation, once per leg (one leg for
/// [`Mode::Safe`] and recognized [`Mode::Any`] formulas, the two legs of
/// a safe pair otherwise).
///
/// Key and invalidation contract (see [`rc_relalg::cache`]):
///
/// * plans are keyed by `(text, opts.cache_key(), stats epoch)` — the
///   epoch ([`Database::stats_epoch`]) only moves when trace feedback
///   changes the statistics store, so plans need no in-place invalidation
///   and a re-plan against fresh statistics lands under a fresh key;
/// * results are keyed by the interned plan's structural hash and the
///   [`Database::version`] observed *before* evaluation; any mutation
///   bumps the version, so stale results can never be served — a stale
///   entry whose view the journalled delta chain can advance is refreshed
///   instead of recomputed.
///
/// Budget semantics are preserved: a cached or refreshed serve still
/// passes a checkpoint (so deadlines and cancellation fire) and charges
/// the answer's cardinality against the tuple budget, before anything is
/// installed — a trip leaves the store exactly as it was.
///
/// A store that retains things evaluates through the memoizing evaluator
/// ([`EvalCtx::memoized`]), recording the view it keeps;
/// [`rc_relalg::NoCache`] gets
/// plain evaluation (no memo, subtree and partition parallelism allowed).
/// A traced request ([`Request::trace`]) records one stage span per
/// pipeline stage and the operator tree of the evaluation; on success the
/// tree's actual cardinalities feed `db`'s statistics store
/// ([`rc_relalg::harvest_actuals`], safe pairs excepted), so later
/// compilations re-plan against observed truth.
///
/// ```
/// use rc_relalg::{Database, NoCache, PlanCache};
/// use rc_safety::pipeline::{serve, CompileOptions, Request};
///
/// let db = Database::from_facts("P(1, 1)\nP(1, 2)\nP(3, 3)\nQ(1)").unwrap();
/// let req = Request::new("P(x, y) & ~Q(y)", CompileOptions::default());
/// let out = serve(&req, &db, NoCache).unwrap();
/// assert_eq!(out.relation.len(), 2); // (1,2) and (3,3)
///
/// let cache = PlanCache::new();
/// let cold = serve(&req, &db, &cache).unwrap();
/// let warm = serve(&req, &db, &cache).unwrap();
/// assert!(!cold.plan_cached && warm.plan_cached && warm.result_cached);
/// assert_eq!(cold.relation, warm.relation);
/// ```
pub fn serve<S: PlanStore<Compiled>>(
    req: &Request<'_>,
    db: &Database,
    mut store: S,
) -> Result<Served, PipelineError> {
    let sink = match req.trace {
        Some(_) => TraceSink::Tree,
        None => TraceSink::Off,
    };
    let mut st = StageTracer::new(sink);
    let mut root = None;
    let res = match req.mode {
        Mode::Safe => leg(req, None, 0, None, db, &mut store, &mut st, Some(&mut root)),
        Mode::Any => crate::anyrc::serve_any(req, db, &mut store, &mut st, &mut root),
    };
    if let Some(slot) = req.trace {
        let trace = st.into_trace(root);
        if let Ok(out) = &res {
            if !out.safe_pair {
                rc_relalg::harvest_actuals(&out.compiled.expr, trace.root.as_ref(), db);
            }
        }
        *slot.borrow_mut() = trace;
    }
    res
}

/// Serve one evaluation of the pipeline: plan lookup → result lookup →
/// IVM refresh → evaluation. `formula` is the parsed query when the
/// caller has one ([`Mode::Any`] parses to classify; [`Mode::Safe`]
/// parses only on a plan miss). `salt` separates the plan keys of the
/// safe-pair legs, which share the query text. A `guard` leg evaluates
/// over a copy of `db` carrying the guard table, built only on a miss;
/// its results and views are still stamped with `db`'s version. The
/// operator tree goes to `ops` when `st` collects.
#[allow(clippy::too_many_arguments)]
pub(crate) fn leg<S: PlanStore<Compiled>>(
    req: &Request<'_>,
    formula: Option<&Formula>,
    salt: u64,
    guard: Option<&Guard<'_>>,
    db: &Database,
    store: &mut S,
    st: &mut StageTracer,
    ops: Option<&mut Option<OpSpan>>,
) -> Result<Served, PipelineError> {
    let opts = &req.opts;
    let budget = &opts.budget;
    let guarded = guard.zip(formula);
    // Capture the version before `prepare` clones-and-declares inside the
    // eval path; the clone's declares must not disturb our key.
    let db_version = db.version();
    let opts_key = opts.cache_key() ^ salt;
    // Plans compiled without the cost-based planner never read statistics,
    // so they share the epoch-0 key space regardless of feedback.
    let stats_epoch = if opts.optimize { db.stats_epoch() } else { 0 };
    let mut aug: Option<Database> = None;
    let (compiled, plan_hash, plan_cached) =
        match store.lookup_plan(req.text, opts_key, stats_epoch) {
            Some((compiled, hash)) => (compiled, hash, true),
            None => {
                let parsed;
                let f = match formula {
                    Some(f) => f,
                    None => {
                        st.begin(Stage::Parse, req.text.len() as u64);
                        parsed = rc_formula::parse(req.text).map_err(PipelineError::Parse)?;
                        st.end(parsed.node_count() as u64, String::new());
                        &parsed
                    }
                };
                let target = match guarded {
                    Some((g, f)) => &*aug.insert(g.augment(db, f)),
                    None => db,
                };
                let compiled = compile_traced_for(f, opts.clone(), Some(target), st)?;
                let hash = rc_relalg::plan_hash(&compiled.expr);
                let compiled = store.insert_plan(req.text, opts_key, stats_epoch, compiled, hash);
                (compiled, hash, false)
            }
        };
    let mut stats = EvalStats::default();
    let (relation, stats, result_cached, result_refreshed) = 'served: {
        if let Some(relation) = store.lookup_result(plan_hash, db_version) {
            charge_served(budget, &mut stats, &relation)?;
            break 'served (relation, stats, true, false);
        }
        // The result entry missed (cold, or stale by some mutation). Before
        // re-evaluating, try to *advance* the registered view by the delta
        // chain bridging its version to ours: O(|Δ|·fanout) merge work instead
        // of a full evaluation. Skipped when the chain is unknown or the cost
        // gate says the delta is too large; abandoned — with the store left
        // exactly as it was — on a budget trip or an unsupported shape.
        if let Some(view) = store.view_snapshot(plan_hash) {
            let chain = (view.base_version() != db_version)
                .then(|| db.delta_chain(view.base_version(), db_version))
                .flatten();
            let chain = match (chain, guarded) {
                (Some(mut chain), Some((g, f))) => {
                    g.splice(&view, db, f, &mut chain).map(|()| chain)
                }
                (chain, _) => chain,
            };
            // Lazy: a trickle-sized delta refreshes without ever asking the
            // estimator (whose statistics the mutation just invalidated).
            let full_cost = || Estimator::new(db).cost(&compiled.expr);
            if let Some(chain) = chain.filter(|c| worth_refreshing(&view, c, full_cost)) {
                let off = &mut Tracer::off();
                match refresh(&view, &chain, db_version, &mut stats, budget, off) {
                    Ok((view, relation)) => {
                        charge_served(budget, &mut stats, &relation)?;
                        store.install_view(plan_hash, view, relation.clone(), true);
                        break 'served (relation, stats, true, true);
                    }
                    Err(RefreshError::Budget(b)) => return Err(PipelineError::Budget(b)),
                    Err(RefreshError::Unsupported(_)) => {}
                }
            }
        }
        let target = match guarded {
            Some((g, f)) => &*aug.get_or_insert_with(|| g.augment(db, f)),
            None => db,
        };
        let tracer = match ops {
            Some(_) if st.is_on() => Tracer::on(),
            _ => Tracer::off(),
        };
        let mut cx = EvalCtx::new(budget).with_tracer(tracer);
        if store.retains() {
            cx = cx.memoized();
        }
        st.begin(Stage::Eval, compiled.expr.node_count() as u64);
        let out = compiled.run(target, &mut cx);
        if let Some(ops) = ops {
            *ops = std::mem::take(&mut cx.tracer).finish();
        }
        let relation = out?;
        st.end(
            relation.len() as u64,
            format!("tuples_produced={}", cx.stats.tuples_produced),
        );
        if let Some(view) = MaintainedView::recorded(&mut cx, db_version) {
            store.install_view(plan_hash, view, relation.clone(), false);
        }
        (relation, cx.stats, false, false)
    };
    Ok(Served {
        class: compiled.class,
        per_variable: vec![false; compiled.columns.len()],
        compiled,
        relation,
        plan_hash,
        stats,
        plan_cached,
        result_cached,
        result_refreshed,
        safe_pair: false,
    })
}

/// Serving from the store — verbatim or refreshed — still consumes
/// governance: one checkpoint (deadline/cancellation) plus the answer's
/// cardinality against the tuple budget, so a small delta cannot smuggle a
/// large cached relation past the limits.
fn charge_served(
    budget: &Budget,
    stats: &mut EvalStats,
    relation: &Relation,
) -> Result<(), PipelineError> {
    stats.budget_checks += 1;
    budget
        .checkpoint(Stage::Eval)
        .and_then(|()| budget.charge_tuples(Stage::Eval, relation.len() as u64))
        .map_err(PipelineError::Budget)
}

/// [`serve`] through `cache`.
pub fn compile_and_eval_cached(
    text: &str,
    db: &Database,
    opts: CompileOptions,
    cache: &mut PlanCache<Compiled>,
) -> Result<Served, PipelineError> {
    serve(&Request::new(text, opts), db, &*cache)
}

/// [`serve`] through `cache`.
pub fn compile_and_eval_shared(
    text: &str,
    db: &Database,
    opts: CompileOptions,
    cache: &SharedPlanCache<Compiled>,
) -> Result<Served, PipelineError> {
    serve(&Request::new(text, opts), db, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_formula::{parse, Value};
    use rc_relalg::{Database, NoCache};

    fn query(text: &str, db: &Database) -> Result<Relation, PipelineError> {
        let req = Request::new(text, CompileOptions::default());
        serve(&req, db, NoCache).map(|out| out.relation)
    }

    fn db() -> Database {
        Database::from_facts(
            "Part('bolt')\nPart('nut')\nPart('screw')\n\
             Supplies('acme', 'bolt')\nSupplies('acme', 'nut')\nSupplies('acme', 'screw')\n\
             Supplies('busy', 'bolt')",
        )
        .unwrap()
    }

    #[test]
    fn supplier_supplying_all_parts() {
        // Example 5.2's G: ∃y ∀x (¬Part(x) ∨ Supplies(y, x)) — boolean.
        let ans = query("exists y. forall x. (!Part(x) | Supplies(y, x))", &db()).unwrap();
        assert_eq!(ans.as_bool(), Some(true));
        // Which suppliers? Make y free but generated.
        let ans2 = query(
            "exists p. Supplies(y, p) & forall x. (!Part(x) | Supplies(y, x))",
            &db(),
        )
        .unwrap();
        assert_eq!(ans2.len(), 1);
        assert!(ans2.contains(&[Value::str("acme")]));
    }

    #[test]
    fn classify_rectifies_shadowed_input() {
        use crate::classes::check_evaluable;
        use rc_formula::vars::is_rectified;
        // `Q(x) ∨ ¬∃x true`: x is free in the first disjunct and rebound
        // in the second. The raw gen check refuses to cross the shadowing
        // binder, so checking the unrectified formula directly reports a
        // violation — even though the formula is plainly equivalent to
        // `Q(x) ∨ ¬true ≡ Q(x)` and evaluable. `classify` must rectify
        // first (this used to report NotRecognized).
        let raw = parse("Q(x) | !(exists x. true)").unwrap();
        assert!(!is_rectified(&raw));
        assert!(check_evaluable(&raw).is_err(), "raw check is conservative");
        assert_eq!(classify(&raw), SafetyClass::Evaluable);
        // Classification is invariant under rectification across shadowed
        // shapes (the conservative direction: raw never upgrades).
        for s in [
            "Q(x) | !(exists x. true)",
            "P(x) & exists x. Q(x)",
            "exists x. (P(x) & exists x. Q(x))",
            "Q(x) & forall x. !(P(x) & !Q(x))",
        ] {
            let f = parse(s).unwrap();
            assert_eq!(classify(&f), classify(&rectified(&f)), "on {s}");
        }
    }

    #[test]
    fn unsafe_queries_are_rejected_with_reasons() {
        let err = query("!Part(x)", &db()).unwrap_err();
        assert!(matches!(err, PipelineError::NotSafe(_)));
        assert!(query("Part(x) | Supplies(y, x)", &db()).is_err());
    }

    #[test]
    fn classification_hierarchy() {
        assert_eq!(
            classify(&parse("P(x, y) & (Q(x) | R(y))").unwrap()),
            SafetyClass::Allowed
        );
        assert_eq!(
            classify(&parse("exists x. ((P(x, y) | Q(y)) & !R(y))").unwrap()),
            SafetyClass::Evaluable
        );
        assert_eq!(
            classify(
                &parse("exists z. (P(x, z) & (x = y | Q(x, y, z)) & !(z = y | R(y, z)))").unwrap()
            ),
            SafetyClass::WideSenseEvaluable
        );
        assert_eq!(
            classify(&parse("!P(x)").unwrap()),
            SafetyClass::NotRecognized
        );
    }

    #[test]
    fn compiled_stages_are_exposed() {
        let f = parse("exists y. (P(x) | Q(x, y))").unwrap();
        let c = compile_with(&f, CompileOptions::default()).unwrap();
        assert_eq!(c.class, SafetyClass::Evaluable);
        assert!(crate::classes::is_allowed(&c.allowed_form));
        assert!(crate::ranf::is_ranf(&c.ranf_form));
        assert_eq!(c.columns, vec![Var::new("x")]);
        assert!(c.reduced.is_none());
    }

    #[test]
    fn default_value_query_end_to_end() {
        // Sec. 5.3: suppliers per part, defaulting to 'none' for parts
        // nobody supplies.
        let mut d =
            Database::from_facts("Part('bolt')\nPart('widget')\nSupplies('acme', 'bolt')").unwrap();
        d.declare("Nothing", 0);
        let ans = query(
            "Part(x) & (Supplies(y, x) | (forall z. !Supplies(z, x)) & y = 'none')",
            &d,
        )
        .unwrap();
        assert_eq!(ans.len(), 2);
        assert!(ans.contains(&[Value::str("bolt"), Value::str("acme")]));
        assert!(ans.contains(&[Value::str("widget"), Value::str("none")]));
    }

    #[test]
    fn wide_sense_query_compiles_via_reduction() {
        let f = parse("Q(y, y) & (x = y | P(x))").unwrap();
        let c = compile_with(&f, CompileOptions::default()).unwrap();
        assert_eq!(c.class, SafetyClass::WideSenseEvaluable);
        assert!(c.reduced.is_some());
        let mut d = Database::new();
        d.load_facts("Q(1, 1)\nQ(2, 2)\nP(7)").unwrap();
        let ans = c.run(&d, &mut EvalCtx::default()).unwrap();
        // Columns are (y, x) — free variables in first-occurrence order.
        // x = y cases: (1,1), (2,2); P cases: (1,7), (2,7).
        assert_eq!(c.columns, vec![Var::new("y"), Var::new("x")]);
        assert_eq!(ans.len(), 4);
        assert!(ans.contains(&[Value::int(1), Value::int(1)]));
        assert!(ans.contains(&[Value::int(2), Value::int(7)]));
        assert_eq!(ans, crate::dom_baseline::eval_brute_force(&c.original, &d));
    }

    #[test]
    fn missing_relations_are_empty() {
        let ans = query("Part(x) & !Discontinued(x)", &db()).unwrap();
        assert_eq!(ans.len(), 3);
    }

    #[test]
    fn answers_match_brute_force_oracle() {
        use crate::dom_baseline::eval_brute_force;
        let d = db();
        for s in [
            "Part(x) & !Supplies('busy', x)",
            "Supplies(y, x) & Part(x)",
            "exists p. (Supplies(y, p) & !Part(p))",
            "Part(x) & forall y. (!Supplies(y, x) | Supplies(y, 'bolt'))",
        ] {
            let f = parse(s).unwrap();
            let c = compile_with(&f, CompileOptions::default()).unwrap();
            let ours = c.run(&d, &mut EvalCtx::default()).unwrap();
            let oracle = eval_brute_force(&f, &d);
            assert_eq!(ours, oracle, "{s}");
        }
    }

    #[test]
    fn column_order_follows_free_variable_order() {
        let c = compile_with(
            &parse("Supplies(y, x) & Part(x)").unwrap(),
            CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(c.columns, vec![Var::new("y"), Var::new("x")]);
        let d = db();
        let ans = c.run(&d, &mut EvalCtx::default()).unwrap();
        assert!(ans.contains(&[Value::str("acme"), Value::str("bolt")]));
    }
}

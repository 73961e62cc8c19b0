//! Evaluate **arbitrary** relational calculus queries via safe-pair
//! translation — including formulas every recognizer in this crate
//! rejects.
//!
//! The paper's classes (evaluable, allowed, wide-sense evaluable) are
//! decidable under-approximations of domain independence: a formula
//! outside all of them may still be a perfectly sensible query, and even
//! a domain *dependent* formula has a well-defined answer once one fixes
//! the domain semantics. Following the safe-pair idea of Raszyk, Basin,
//! Krstić and Traytel ("translating arbitrary relational calculus
//! queries to safe pairs"), this module translates any rectified formula
//! `F` into **two** formulas inside the recognized classes:
//!
//! * the **fin** leg — `F` relativized to the guard `Dom#(·)` holding
//!   the active domain (every database constant plus the query's
//!   constants). Its answer is the classical *active-domain* answer,
//!   exactly what the [`crate::dom_baseline`] oracles compute — but
//!   produced by the paper's own Dom-free pipeline, because the
//!   relativized formula is evaluable by construction (every free
//!   variable and every quantified variable carries a positive guard
//!   atom).
//! * the **inf** leg — the same relativization against `DomPlus#(·)`,
//!   the active domain extended with `q` fresh "star" constants, where
//!   `q` is the number of (free plus bound) variables of `F`. By the
//!   genericity argument of Ailamazyan–Gilula–Stolboushkin–Schwartz, a
//!   formula with `q` variables cannot distinguish the elements outside
//!   the active domain from each other, and `q` representatives are
//!   enough: a star surviving into the answer at column `j` witnesses
//!   that *infinitely many* values (every non-active-domain value)
//!   satisfy the query at that column.
//!
//! The pair is packaged as an [`AnyAnswer`]: the finite (active-domain)
//! answer, a `maybe_infinite` flag, and a per-column infiniteness mask.
//! For formulas the classifier *does* recognize, the safe pair is
//! skipped entirely: recognized classes are domain independent, so the
//! ordinary pipeline answer is the whole answer and `maybe_infinite` is
//! `false` on every database.
//!
//! # Contract
//!
//! * [`AnyAnswer::finite`] is always the active-domain answer — it
//!   agrees with [`crate::dom_baseline::eval_brute_force`] and
//!   [`crate::dom_baseline::eval_dom`] on every formula, recognized or
//!   not.
//! * [`AnyAnswer::maybe_infinite`] is `true` iff the answer under an
//!   infinite domain contains tuples outside the active domain (for
//!   closed formulas it is always `false` — a 0-ary answer is never
//!   infinite, even when the truth value itself is domain dependent).
//! * Both legs run under **one** budget (`opts.budget` governs the pair
//!   as a single query), and both are served by the one serving path,
//!   [`crate::pipeline::serve`] in [`Mode::Any`]: the legs are keyed by
//!   the original query text under salted option keys, their results are
//!   keyed by the *base* database version, and stale cached legs are
//!   delta-refreshed ([`rc_relalg::ivm`]) — the guard tables, which the
//!   base database does not store, get a computed delta spliced into the
//!   mutation chain.

use crate::dom_baseline::dom_pred;
use crate::pipeline::{
    classify, leg, serve, CompileOptions, Compiled, Mode, PipelineError, Request, SafetyClass,
    Served,
};
use rc_formula::ast::Formula;
use rc_formula::term::Var;
use rc_formula::vars::{bound_vars, free_vars, is_rectified, rectified};
use rc_formula::{Symbol, Term, Value};
use rc_relalg::govern::Stage;
use rc_relalg::{
    Database, Delta, EvalStats, MaintainedView, NoCache, OpSpan, PipelineTrace, PlanStore,
    Relation, RelationBuilder, StageTracer, TableDelta,
};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The reserved name of the star-extended domain guard relation (the
/// active domain plus the fresh star constants), the `inf` counterpart
/// of [`dom_pred`].
pub fn dom_plus_pred() -> Symbol {
    Symbol::intern("DomPlus#")
}

/// Salt XORed into the option fingerprint for the fin leg's plan-cache
/// key, so both legs (and the ordinary pipeline) can share one cache
/// under the *original* query text without colliding.
const FIN_SALT: u64 = 0x5afe_9a12_f19f_0001;

/// Salt for the inf leg's plan-cache key (see [`FIN_SALT`]).
const INF_SALT: u64 = 0x5afe_9a12_f19f_0002;

/// The answer to an arbitrary relational calculus query, as a safe pair:
/// the finite (active-domain) part plus infiniteness witnesses.
#[derive(Clone, Debug)]
pub struct AnyAnswer {
    /// The answer columns — the query's free variables in first-occurrence
    /// order.
    pub columns: Vec<Var>,
    /// The classifier's verdict on the original formula.
    pub class: SafetyClass,
    /// `true` when the safe-pair construction actually ran; `false` when
    /// the formula was recognized and served by the ordinary pipeline
    /// (recognized ⇒ domain independent ⇒ the finite answer is total).
    pub safe_pair: bool,
    /// The active-domain answer — agrees with the brute-force and
    /// Dom-baseline oracles on every formula.
    pub finite: Relation,
    /// Does the answer under an infinite domain contain tuples outside
    /// the active domain? Always `false` for recognized (domain
    /// independent) formulas and for closed formulas.
    pub maybe_infinite: bool,
    /// Per-column infiniteness: `per_variable[j]` is `true` when some
    /// infinite-domain answer tuple carries a non-active-domain value in
    /// column `j`. All-`false` iff `maybe_infinite` is `false`.
    pub per_variable: Vec<bool>,
    /// Evaluation counters, summed over both legs (or the single
    /// fast-path evaluation).
    pub stats: EvalStats,
}

/// Relativize every quantifier of `f` to the guard predicate and leave
/// everything else structurally intact: `∃y G` becomes
/// `∃y (guard(y) ∧ rel(G))` and `∀y G` becomes
/// `¬∃y (guard(y) ∧ ¬rel(G))`.
fn relativize(f: &Formula, guard: Symbol) -> Formula {
    match f {
        Formula::Atom(_) | Formula::Eq(..) => f.clone(),
        Formula::Not(g) => Formula::not(relativize(g, guard)),
        Formula::And(fs) => Formula::and(fs.iter().map(|g| relativize(g, guard)).collect()),
        Formula::Or(fs) => Formula::or(fs.iter().map(|g| relativize(g, guard)).collect()),
        Formula::Exists(y, g) => Formula::exists(
            *y,
            Formula::and2(guard_atom(guard, *y), relativize(g, guard)),
        ),
        Formula::Forall(y, g) => Formula::not(Formula::exists(
            *y,
            Formula::and2(guard_atom(guard, *y), Formula::not(relativize(g, guard))),
        )),
    }
}

fn guard_atom(guard: Symbol, v: Var) -> Formula {
    Formula::atom(guard, vec![Term::Var(v)])
}

/// The full relativized query: a guard atom for every free variable
/// conjoined with the relativized body. Every free and quantified
/// variable then carries a positive guard atom, so the result is
/// evaluable (Def. 5.2) by construction and compiles through the
/// ordinary pipeline.
fn relativized_query(f: &Formula, guard: Symbol) -> Formula {
    let mut conj: Vec<Formula> = free_vars(f)
        .into_iter()
        .map(|v| guard_atom(guard, v))
        .collect();
    conj.push(relativize(f, guard));
    Formula::and(conj)
}

/// `q` fresh star constants, distinct from every active-domain value and
/// every query constant. The reserved `#` prefix keeps them out of any
/// parseable query text; collisions with programmatically inserted facts
/// are skipped over.
fn star_values(db: &Database, query: &Formula, q: usize) -> Vec<Value> {
    let consts: BTreeSet<Value> = query.constants().into_iter().collect();
    let adom = db.active_domain();
    let mut out = Vec::with_capacity(q);
    let mut i = 0usize;
    while out.len() < q {
        let v = Value::str(&format!("#*{i}"));
        i += 1;
        if adom.contains(&v) || consts.contains(&v) {
            continue;
        }
        out.push(v);
    }
    out
}

/// The guard table one safe-pair leg evaluates over: `Dom#` (no stars)
/// or `DomPlus#` (with the stars).
pub(crate) struct Guard<'a> {
    pred: Symbol,
    stars: &'a [Value],
}

impl Guard<'_> {
    /// The guard table contents for leg formula `leg`: active domain ∪
    /// query constants ∪ stars, with the `#default` element when
    /// everything is empty (first-order semantics needs a nonempty
    /// domain) — byte-compatible with
    /// [`crate::dom_baseline::augment_with_dom`]'s `Dom#` when there are
    /// no stars.
    fn relation(&self, db: &Database, leg: &Formula) -> Relation {
        let adom = db.active_domain();
        let mut b = RelationBuilder::with_capacity(1, adom.len() + self.stars.len());
        for &v in adom {
            b.push_row(&[v]);
        }
        for c in leg.constants() {
            b.push_row(&[c]);
        }
        for &s in self.stars {
            b.push_row(&[s]);
        }
        if b.is_empty() {
            b.push_row(&[Value::str("#default")]);
        }
        b.finish()
    }

    /// A copy of `db` with the leg's predicates declared and its guard
    /// table installed.
    pub(crate) fn augment(&self, db: &Database, leg: &Formula) -> Database {
        let mut out = db.clone();
        for (p, arity) in leg.predicates() {
            out.declare(p, arity);
        }
        out.insert_relation(self.pred, self.relation(db, leg));
        out
    }

    /// Splice the guard table's delta into `chain` before refreshing
    /// `view`. The guard lives only inside the view, so the base delta
    /// chain says nothing about it: recover the old contents from the
    /// view's materialized scan, build the new contents from `db`, and
    /// record the set difference. `None` when the guard is scanned but
    /// not recoverable (the optimizer rewrote the full-table scan away) —
    /// the leg then re-evaluates in full.
    pub(crate) fn splice(
        &self,
        view: &MaintainedView,
        db: &Database,
        leg: &Formula,
        chain: &mut Delta,
    ) -> Option<()> {
        if view.preds().contains(&self.pred) {
            let old = view.scan_contents(self.pred)?;
            let new = self.relation(db, leg);
            let delta = TableDelta {
                plus: new.minus(old),
                minus: old.minus(&new),
            };
            chain.insert_table(self.pred, delta);
        }
        Some(())
    }
}

/// Scan the inf leg's answer for star witnesses: the per-column mask.
fn star_mask(inf: &Relation, stars: &[Value], ncols: usize) -> Vec<bool> {
    let star_set: BTreeSet<Value> = stars.iter().copied().collect();
    let mut per_variable = vec![false; ncols];
    for row in inf.iter() {
        for (j, v) in row.iter().enumerate() {
            per_variable[j] |= star_set.contains(v);
        }
    }
    per_variable
}

/// [`Mode::Any`] serving: parse and classify, then serve a recognized
/// formula as one ordinary leg and anything else as the safe pair — the
/// fin leg under `Dom#`, the inf leg under `DomPlus#`, both through
/// [`leg`] under the original query text with salted keys. The stage spans
/// of each leg are tagged `anyrc=fin|inf`; the operator tree is the fin
/// leg's (the one producing the finite answer).
pub(crate) fn serve_any<S: PlanStore<Compiled>>(
    req: &Request<'_>,
    db: &Database,
    store: &mut S,
    st: &mut StageTracer,
    root: &mut Option<OpSpan>,
) -> Result<Served, PipelineError> {
    st.begin(Stage::Parse, req.text.len() as u64);
    let f = rc_formula::parse(req.text).map_err(PipelineError::Parse)?;
    st.end(f.node_count() as u64, String::new());
    let class = classify(&f);
    if class != SafetyClass::NotRecognized {
        let out = leg(req, Some(&f), 0, None, db, store, st, Some(root))?;
        return Ok(Served { class, ..out });
    }
    let rect = if is_rectified(&f) { f } else { rectified(&f) };
    let q = free_vars(&rect).len() + bound_vars(&rect).len();
    let stars = star_values(db, &rect, q);
    let fin_f = relativized_query(&rect, dom_pred());
    let inf_f = relativized_query(&rect, dom_plus_pred());
    let fin_guard = Guard {
        pred: dom_pred(),
        stars: &[],
    };
    let inf_guard = Guard {
        pred: dom_plus_pred(),
        stars: &stars,
    };
    let mut staged = Staged {
        inner: store,
        views: Vec::new(),
    };
    let fin = tagged(st, "fin", |st| {
        leg(
            req,
            Some(&fin_f),
            FIN_SALT,
            Some(&fin_guard),
            db,
            &mut staged,
            st,
            Some(root),
        )
    })?;
    let inf = tagged(st, "inf", |st| {
        leg(
            req,
            Some(&inf_f),
            INF_SALT,
            Some(&inf_guard),
            db,
            &mut staged,
            st,
            None,
        )
    })?;
    staged.commit();
    let mut stats = fin.stats;
    stats.merge(inf.stats);
    Ok(Served {
        class,
        safe_pair: true,
        per_variable: star_mask(&inf.relation, &stars, fin.compiled.columns.len()),
        stats,
        plan_cached: fin.plan_cached && inf.plan_cached,
        result_cached: fin.result_cached && inf.result_cached,
        result_refreshed: fin.result_refreshed || inf.result_refreshed,
        ..fin
    })
}

/// The store the two legs of a safe pair serve through: lookups and plan
/// inserts go to `inner`, view installs wait for [`Staged::commit`]. A
/// pair installs both legs' results or neither, so an `inf` leg that
/// trips the budget after the `fin` leg succeeded leaves the store as it
/// was.
struct Staged<'s, S> {
    inner: &'s mut S,
    views: Vec<(u64, MaintainedView, Relation, bool)>,
}

impl<S: PlanStore<Compiled>> Staged<'_, S> {
    fn commit(self) {
        for (hash, view, rel, refreshed) in self.views {
            self.inner.install_view(hash, view, rel, refreshed);
        }
    }
}

impl<S: PlanStore<Compiled>> PlanStore<Compiled> for Staged<'_, S> {
    fn lookup_plan(&mut self, text: &str, key: u64, epoch: u64) -> Option<(Arc<Compiled>, u64)> {
        self.inner.lookup_plan(text, key, epoch)
    }

    fn insert_plan(
        &mut self,
        text: &str,
        key: u64,
        epoch: u64,
        p: Compiled,
        hash: u64,
    ) -> Arc<Compiled> {
        self.inner.insert_plan(text, key, epoch, p, hash)
    }

    fn lookup_result(&mut self, plan_hash: u64, db_version: u64) -> Option<Relation> {
        self.inner.lookup_result(plan_hash, db_version)
    }

    fn view_snapshot(&self, plan_hash: u64) -> Option<MaintainedView> {
        self.inner.view_snapshot(plan_hash)
    }

    fn install_view(&mut self, hash: u64, view: MaintainedView, rel: Relation, refreshed: bool) {
        self.views.push((hash, view, rel, refreshed));
    }
}

/// Run one leg and tag the stage spans it recorded — including a span its
/// failure left open — with `anyrc=<tag>`.
fn tagged<T>(st: &mut StageTracer, tag: &str, leg: impl FnOnce(&mut StageTracer) -> T) -> T {
    let from = st.stages().len();
    let out = leg(st);
    st.fail();
    st.tag_since(from, &format!("anyrc={tag}"));
    out
}

impl From<Served> for AnyAnswer {
    fn from(s: Served) -> AnyAnswer {
        AnyAnswer {
            columns: s.compiled.columns.clone(),
            class: s.class,
            safe_pair: s.safe_pair,
            maybe_infinite: s.maybe_infinite(),
            finite: s.relation,
            per_variable: s.per_variable,
            stats: s.stats,
        }
    }
}

/// Evaluate an arbitrary relational calculus query, uncached: recognized
/// formulas go through the ordinary pipeline, everything else through the
/// safe-pair construction (see the module docs for the contract).
///
/// ```
/// use rc_safety::anyrc::compile_and_eval_any;
/// use rc_safety::pipeline::CompileOptions;
/// use rc_relalg::Database;
///
/// let db = Database::from_facts("P(1)\nP(2)\nQ(2)\nQ(3)").unwrap();
/// // `¬P(x)` is rejected by every recognizer, but has a perfectly good
/// // active-domain answer — and an infinite unrestricted-domain one.
/// let out = compile_and_eval_any("!P(x)", &db, CompileOptions::default()).unwrap();
/// assert_eq!(out.finite.len(), 1); // {3}
/// assert!(out.maybe_infinite);
/// ```
pub fn compile_and_eval_any(
    text: &str,
    db: &Database,
    opts: CompileOptions,
) -> Result<AnyAnswer, PipelineError> {
    let req = Request {
        mode: Mode::Any,
        ..Request::new(text, opts)
    };
    serve(&req, db, NoCache).map(AnyAnswer::from)
}

/// [`compile_and_eval_any`] with its [`PipelineTrace`] — populated on
/// failure too.
pub fn compile_and_eval_any_traced(
    text: &str,
    db: &Database,
    opts: CompileOptions,
) -> (Result<AnyAnswer, PipelineError>, PipelineTrace) {
    let trace = RefCell::default();
    let req = Request {
        mode: Mode::Any,
        trace: Some(&trace),
        ..Request::new(text, opts)
    };
    let out = serve(&req, db, NoCache).map(AnyAnswer::from);
    (out, trace.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom_baseline::eval_brute_force;
    use rc_formula::parse;
    use rc_relalg::PlanCache;

    fn db() -> Database {
        Database::from_facts("P(1)\nP(2)\nQ(2)\nQ(3)\nR(1, 2)\nR(3, 1)").unwrap()
    }

    fn any(text: &str, db: &Database) -> AnyAnswer {
        compile_and_eval_any(text, db, CompileOptions::default()).unwrap()
    }

    #[test]
    fn negation_matches_oracle_and_flags_infinite() {
        let out = any("!P(x)", &db());
        assert_eq!(out.class, SafetyClass::NotRecognized);
        assert!(out.safe_pair);
        assert_eq!(
            out.finite,
            eval_brute_force(&parse("!P(x)").unwrap(), &db())
        );
        assert!(out.maybe_infinite);
        assert_eq!(out.per_variable, vec![true]);
    }

    #[test]
    fn cross_disjunction_flags_both_columns() {
        let out = any("P(x) | Q(y)", &db());
        assert!(out.safe_pair);
        assert_eq!(
            out.finite,
            eval_brute_force(&parse("P(x) | Q(y)").unwrap(), &db())
        );
        assert!(out.maybe_infinite);
        assert_eq!(out.per_variable, vec![true, true]);
    }

    #[test]
    fn recognized_query_takes_fast_path() {
        let out = any("P(x) & !Q(x)", &db());
        assert_eq!(out.class, SafetyClass::Allowed);
        assert!(!out.safe_pair);
        assert!(!out.maybe_infinite);
        assert_eq!(
            out.finite,
            eval_brute_force(&parse("P(x) & !Q(x)").unwrap(), &db())
        );
    }

    #[test]
    fn closed_formula_is_never_infinite() {
        // Domain dependent truth value, but a 0-ary answer is finite.
        let out = any("forall y. P(y)", &db());
        assert!(out.safe_pair);
        assert!(!out.maybe_infinite);
        assert_eq!(out.per_variable, Vec::<bool>::new());
        assert_eq!(
            out.finite,
            eval_brute_force(&parse("forall y. P(y)").unwrap(), &db())
        );
    }

    #[test]
    fn finite_on_empty_database() {
        let empty = Database::new();
        let out = any("!P(x)", &empty);
        // Active domain is {#default}; P is empty, so ¬P holds of it.
        assert_eq!(out.finite.len(), 1);
        assert!(out.maybe_infinite);
    }

    #[test]
    fn guarded_but_unrecognized_formula_stays_finite() {
        // Example 6.3's G: domain independent but outside every class.
        let text = "forall x. exists y. ((R(y, z) & Q(x)) | (R(y, z) & !P(x)))";
        let out = any(text, &db());
        assert_eq!(out.class, SafetyClass::NotRecognized);
        assert!(out.safe_pair);
        assert!(!out.maybe_infinite, "DI formula must have no stars");
        assert_eq!(out.finite, eval_brute_force(&parse(text).unwrap(), &db()));
    }

    #[test]
    fn cached_pair_serves_and_refreshes() {
        let mut database = db();
        let cache = PlanCache::new();
        let text = "P(x) | Q(y)";
        let req = Request {
            mode: Mode::Any,
            ..Request::new(text, CompileOptions::default())
        };
        let cold = serve(&req, &database, &cache).unwrap();
        assert!(!cold.plan_cached && !cold.result_cached);
        let warm = serve(&req, &database, &cache).unwrap();
        assert!(warm.plan_cached && warm.result_cached && !warm.result_refreshed);
        assert_eq!(cold.relation, warm.relation);
        assert_eq!(cold.per_variable, warm.per_variable);
        // Mutate: the guard tables change with the active domain, so the
        // refresh path must splice computed guard deltas into the chain.
        database.apply_delta("P(7)").unwrap();
        let fresh = compile_and_eval_any(text, &database, CompileOptions::default()).unwrap();
        let served = serve(&req, &database, &cache).unwrap();
        assert!(served.result_refreshed);
        assert_eq!(served.relation, fresh.finite);
        assert_eq!(served.per_variable, fresh.per_variable);
    }

    /// A pair whose `inf` leg trips the tuple budget after the `fin` leg
    /// succeeded installs neither leg's result.
    #[test]
    fn inf_leg_trip_installs_nothing() {
        let text = "forall y. (P(y) | R(x, y))";
        let mut inf_trips = 0;
        for cap in 0..40 {
            let cache = PlanCache::new();
            let trace = RefCell::new(PipelineTrace::default());
            let opts = CompileOptions {
                budget: rc_relalg::Budget::new().with_max_tuples(cap),
                ..CompileOptions::default()
            };
            let req = Request {
                mode: Mode::Any,
                trace: Some(&trace),
                ..Request::new(text, opts)
            };
            if serve(&req, &db(), &cache).is_ok() {
                continue;
            }
            let trace = trace.borrow();
            let failed = trace.stages.iter().rfind(|s| !s.completed).unwrap();
            inf_trips += u32::from(failed.detail.contains("anyrc=inf"));
            assert_eq!(
                (cache.view_count(), cache.result_count()),
                (0, 0),
                "cap {cap}"
            );
        }
        assert!(inf_trips > 0, "no cap tripped the inf leg alone");
    }

    /// The `∀` leg divides instead of anti-joining a `Dom#` × `Dom#`
    /// product: counted work, so the bound holds on any host.
    #[test]
    fn forall_legs_do_linear_work() {
        let n = 2_000i64;
        let key = n / 3;
        let mut a = RelationBuilder::new(2);
        let mut b = RelationBuilder::new(2);
        let mut c = RelationBuilder::new(1);
        for i in 0..n {
            a.push_row(&[Value::int(i), Value::int(i % key)]);
            b.push_row(&[Value::int(i % key), Value::int(i % 97)]);
            c.push_row(&[Value::int(2 * (i % (n / 2)))]);
        }
        let mut db = Database::new();
        db.insert_relation("A", a.finish());
        db.insert_relation("B", b.finish());
        db.insert_relation("C", c.finish());
        let text = "forall y. (C(y) | B(x, y))";
        let out = any(text, &db);
        assert!(out.safe_pair);
        let adom = db.active_domain().len();
        assert!(
            out.stats.max_intermediate <= 4 * adom,
            "max intermediate {} exceeds 4·|adom| = {}",
            out.stats.max_intermediate,
            4 * adom
        );
        // Every odd value of the active domain is outside C, and no x has
        // more than 97 B-partners, so no x covers all 1000 of them.
        assert!(out.finite.is_empty());
    }

    #[test]
    fn traced_pair_tags_both_legs() {
        let (res, trace) = compile_and_eval_any_traced("!P(x)", &db(), CompileOptions::default());
        let out = res.unwrap();
        assert!(out.maybe_infinite);
        let rendered = trace.deterministic();
        assert!(rendered.contains("anyrc=fin"), "{rendered}");
        assert!(rendered.contains("anyrc=inf"), "{rendered}");
        assert!(trace.root.is_some());
    }
}

//! Seeded model test for the one serving path, `serve`.
//!
//! Each seed drives a random, replayable interleaving of serves and
//! `apply_delta` mutations against one database. Every serve picks its
//! own mode (`Safe` / `Any`), tracing on or off, a store (one of two
//! independent `PlanCache`s — `SharedPlanCache` is the same type — or
//! `NoCache`; each cache keeps its state for the whole interleaving), and
//! a budget: unlimited, a tight tuple cap, forced partitions, or both. Every answer is checked against
//! uncached `NoCache` serving under the same partition policy, and that
//! reference against the paper's oracles: finite-interpretation
//! satisfaction (`interp`) for both modes and the Dom-relativized algebra
//! (`dom_baseline`) for `Any`.
//!
//! Budget trips are checked for soundness (an answer larger than the
//! tuple cap must trip; a trip is a tuple-budget report) and for
//! atomicity: the next unbudgeted serve through the same store must still
//! be exact, and a tripped serve installs nothing.
//!
//! Every assertion message names the seed and step; `run_seed(seed)`
//! replays one interleaving.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcsafe::formula::vars::free_vars;
use rcsafe::relalg::govern::Resource;
use rcsafe::safety::dom_baseline::eval_dom;
use rcsafe::safety::interp::FiniteInterp;
use rcsafe::{
    parse, serve, Budget, CompileOptions, Compiled, Database, Mode, NoCache, PipelineError,
    PipelineTrace, PlanCache, Request, Schema, Served, SharedPlanCache, Value,
};
use std::cell::RefCell;

/// Query texts over `P/1`, `Q/1`, `R/2`: joins, anti-joins, unions,
/// quantifiers, and formulas only the safe pair can answer (`!P(x)`,
/// `P(x) | Q(y)`, `exists y. (P(x) | Q(y))`), whose guard tables change
/// whenever a mutation changes the active domain.
const TEXTS: [&str; 9] = [
    "R(x, y) & Q(y)",
    "R(x, y) & !Q(x)",
    "Q(x) | R(x, x)",
    "exists y. (R(x, y) & !P(y))",
    "P(x) & forall y. (!R(x, y) | Q(y))",
    "!P(x)",
    "P(x) | Q(y)",
    "exists y. (P(x) | Q(y))",
    "forall y. (P(y) | R(x, y))",
];

const SEEDS: u64 = 64;
const STEPS: usize = 40;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.declare("P", 1);
    s.declare("Q", 1);
    s.declare("R", 2);
    s
}

/// One to three facts inserted or deleted. Values range past the initial
/// domain (1–5) so mutations also grow and shrink the active domain.
fn random_delta(db: &Database, rng: &mut StdRng) -> String {
    let preds = schema().predicates();
    let mut lines = Vec::new();
    for _ in 0..rng.gen_range(1..=3) {
        let (p, arity) = preds[rng.gen_range(0..preds.len())];
        let existing = db.relation(p).filter(|r| !r.is_empty());
        let (sign, row): (&str, Vec<Value>) = match existing {
            Some(r) if rng.gen_bool(0.4) => ("-", r.row(rng.gen_range(0..r.len())).to_vec()),
            _ => (
                "",
                (0..arity)
                    .map(|_| Value::int(rng.gen_range(1..=8)))
                    .collect(),
            ),
        };
        let row: Vec<String> = row.iter().map(Value::to_string).collect();
        lines.push(format!("{sign}{p}({})", row.join(", ")));
    }
    lines.join("\n")
}

/// The store a serve goes through: one of two independent caches, each
/// keeping its state across the interleaving, or `NoCache` (`None`).
type Store = Option<usize>;

fn serve_via(
    caches: &[PlanCache<Compiled>; 2],
    store: Store,
    req: &Request,
    db: &Database,
) -> Result<Served, PipelineError> {
    match store {
        Some(i) => serve(req, db, &caches[i]),
        None => serve(req, db, NoCache),
    }
}

/// What a tripped serve must leave alone: the counters that move only when
/// something is installed.
fn installs(caches: &[PlanCache<Compiled>; 2]) -> Vec<(usize, usize, u64)> {
    let counts = |c: &PlanCache<Compiled>| {
        (
            c.view_count(),
            c.result_count(),
            c.stats().refreshed_results,
        )
    };
    caches.iter().map(counts).collect()
}

/// How often each serving path answered, summed over every seed: the
/// first cache's serves by path, and the second cache's result hits.
#[derive(Default)]
struct Coverage {
    refreshed: u64,
    verbatim: u64,
    evaluated: u64,
    second_hits: u64,
    safe_pairs: u64,
    traced: u64,
    trips: u64,
}

fn request(text: &str, mode: Mode, budget: Budget) -> Request<'_> {
    Request {
        mode,
        ..Request::new(
            text,
            CompileOptions {
                budget,
                ..CompileOptions::default()
            },
        )
    }
}

/// Check the uncached reference against the oracles.
fn check_oracles(text: &str, mode: Mode, db: &Database, reference: &Served, ctx: &str) {
    let f = parse(text).unwrap();
    let oracle = FiniteInterp::active(db, &f).answers(&f, &free_vars(&f));
    assert_eq!(
        reference.relation, oracle,
        "{ctx}: uncached answer vs interp"
    );
    if mode == Mode::Any {
        let dom = eval_dom(&f, db).expect("Dom baseline evaluates");
        assert_eq!(
            reference.relation, dom,
            "{ctx}: uncached answer vs dom_baseline"
        );
    }
}

fn same_answer(got: &Served, want: &Served, ctx: &str) {
    assert_eq!(got.relation, want.relation, "{ctx}: answer");
    assert_eq!(
        got.compiled.columns, want.compiled.columns,
        "{ctx}: columns"
    );
    assert_eq!(got.per_variable, want.per_variable, "{ctx}: infiniteness");
    assert_eq!(got.safe_pair, want.safe_pair, "{ctx}: safe pair");
    assert_eq!(got.class, want.class, "{ctx}: class");
}

/// One seeded interleaving.
fn run_seed(seed: u64, cov: &mut Coverage) {
    let mut rng = StdRng::seed_from_u64(seed);
    let domain: Vec<Value> = (1..=5).map(Value::int).collect();
    let mut db = Database::random(&schema(), &domain, 6, &mut rng);
    let caches = [PlanCache::new(), SharedPlanCache::new()];
    for step in 0..STEPS {
        let ctx = format!("seed {seed} step {step}");
        if rng.gen_bool(0.3) {
            let delta = random_delta(&db, &mut rng);
            db.apply_delta(&delta)
                .expect("generated deltas are well-formed");
            continue;
        }
        let text = TEXTS[rng.gen_range(0..TEXTS.len())];
        let mode = if rng.gen_bool(0.5) {
            Mode::Any
        } else {
            Mode::Safe
        };
        let store = [Some(0), Some(1), None][rng.gen_range(0..3)];
        let partitions = rng.gen_bool(0.3).then(|| rng.gen_range(1..=4usize));
        let cap = rng.gen_bool(0.3).then(|| rng.gen_range(0..8u64));
        let traced = rng.gen_bool(0.3);
        let ctx =
            format!("{ctx}: {mode:?} {text:?} via {store:?} parts={partitions:?} cap={cap:?}");

        let policy = || match partitions {
            Some(n) => Budget::new().with_partitions(n),
            None => Budget::new(),
        };
        let reference = serve(&request(text, mode, policy()), &db, NoCache);
        if let Ok(r) = &reference {
            check_oracles(text, mode, &db, r, &ctx);
        }

        let budget = match cap {
            Some(c) => policy().with_max_tuples(c),
            None => policy(),
        };
        let trace = RefCell::new(PipelineTrace::default());
        let req = Request {
            trace: traced.then_some(&trace),
            ..request(text, mode, budget)
        };
        let before = installs(&caches);
        let got = serve_via(&caches, store, &req, &db);
        match (&got, &reference) {
            (Ok(out), Ok(want)) => {
                same_answer(out, want, &ctx);
                if let Some(c) = cap {
                    assert!(
                        out.relation.len() as u64 <= c,
                        "{ctx}: answer exceeds the cap"
                    );
                }
                if traced {
                    cov.traced += 1;
                    let trace = trace.borrow();
                    assert_eq!(trace.failed_stage(), None, "{ctx}: failed stage on success");
                    if !out.result_cached {
                        assert!(trace.root.is_some(), "{ctx}: evaluation left no span tree");
                    }
                }
                cov.safe_pairs += u64::from(out.safe_pair);
                match store {
                    Some(0) => match (out.result_refreshed, out.result_cached) {
                        (true, _) => cov.refreshed += 1,
                        (false, true) => cov.verbatim += 1,
                        (false, false) => cov.evaluated += 1,
                    },
                    Some(_) => cov.second_hits += u64::from(out.result_cached),
                    None => assert!(!out.plan_cached && !out.result_cached, "{ctx}: NoCache hit"),
                }
            }
            (Err(PipelineError::Budget(b)), Ok(want)) => {
                cov.trips += 1;
                assert!(cap.is_some(), "{ctx}: unbudgeted serve tripped: {b}");
                assert_eq!(b.resource, Resource::Tuples, "{ctx}: {b}");
                if traced && store.is_none() {
                    assert!(
                        trace.borrow().failed_stage().is_some(),
                        "{ctx}: trip not traced"
                    );
                }
                assert_eq!(
                    installs(&caches),
                    before,
                    "{ctx}: a tripped serve installed"
                );
                // The abort left the store as it was: an unbudgeted serve
                // through the same store is exact.
                let again = serve_via(&caches, store, &request(text, mode, policy()), &db)
                    .unwrap_or_else(|e| panic!("{ctx}: serve after the trip failed: {e}"));
                same_answer(&again, want, &format!("{ctx} (after the trip)"));
            }
            (Err(e), Err(want)) => assert_eq!(e, want, "{ctx}: rejection differs"),
            (got, want) => panic!("{ctx}: served {got:?}, uncached {want:?}"),
        }
        if let (Some(c), Ok(want)) = (cap, &reference) {
            if want.relation.len() as u64 > c {
                assert!(
                    matches!(got, Err(PipelineError::Budget(_))),
                    "{ctx}: {} rows served under a cap of {c}",
                    want.relation.len()
                );
            }
        }
    }
    let stats = caches[0].stats();
    assert!(
        stats.refreshed_results <= stats.stale_results,
        "seed {seed}: every refresh starts from a stale lookup ({stats:?})"
    );
}

#[test]
fn serve_agrees_with_uncached_serving_and_the_oracles() {
    let mut cov = Coverage::default();
    for seed in 0..SEEDS {
        run_seed(seed, &mut cov);
    }
    // The interleavings must reach every path, not just the easy ones.
    assert!(cov.refreshed >= 20, "refreshes: {}", cov.refreshed);
    assert!(cov.verbatim >= 20, "verbatim hits: {}", cov.verbatim);
    assert!(cov.evaluated >= 3, "evaluations: {}", cov.evaluated);
    assert!(
        cov.second_hits >= 20,
        "second-cache hits: {}",
        cov.second_hits
    );
    assert!(cov.safe_pairs >= 50, "safe pairs: {}", cov.safe_pairs);
    assert!(cov.traced >= 50, "traced serves: {}", cov.traced);
    assert!(cov.trips >= 20, "budget trips: {}", cov.trips);
}

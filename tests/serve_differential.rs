//! Differential tests for the query server: a response served over the
//! wire must be **byte-identical** to the response assembled from
//! in-process cached serving — relation, statistics, cache bits, trace
//! JSON, and error attribution alike — over the whole paper corpus.
//!
//! The identity holds by construction (server and local callers share one
//! serving path, `serve`, and [`Response::encode`] is canonical);
//! these tests keep that construction honest end to end, TCP included.
//!
//! Setup invariant the suite leans on: `Server::start(db.clone(), ..)`
//! preserves the database version stamp and shares the statistics store,
//! so the server's snapshot *is* the test's database for response
//! purposes.

mod common;

use common::serve_traced;
use rc_serve::{
    Client, QueryOk, Request, Response, Server, ServerConfig, WireError, WireLimits, WireStats,
};
use rcsafe::relalg::govern::Resource;
use rcsafe::safety::corpus::{by_id, corpus, formula_of, random_db};
use rcsafe::safety::dom_baseline::eval_brute_force;
use rcsafe::safety::pipeline::{compile_and_eval_cached, CompileOptions, Compiled};
use rcsafe::{serve, Budget, Database, Mode, PipelineError, PlanCache};

/// Start a server on the given database (shared version + stats store)
/// and connect one client to it.
fn start(db: &Database) -> (Server, Client) {
    let server = Server::start(db.clone(), ServerConfig::default()).expect("bind server");
    let client = Client::connect(server.local_addr()).expect("connect client");
    (server, client)
}

/// The response the server *must* produce for a `query` (`Mode::Safe`)
/// or `any` (`Mode::Any`) verb, assembled from in-process cached serving.
fn expected(
    text: &str,
    db: &Database,
    mode: Mode,
    opts: CompileOptions,
    cache: &mut PlanCache<Compiled>,
) -> Response {
    let req = rcsafe::Request {
        mode,
        ..rcsafe::Request::new(text, opts)
    };
    match serve(&req, db, &*cache) {
        Ok(out) => {
            let any = mode == Mode::Any;
            Response::Query(QueryOk {
                version: db.version(),
                plan_cached: out.plan_cached,
                result_cached: out.result_cached,
                result_refreshed: out.result_refreshed,
                stats: WireStats::from(&out.stats),
                columns: out.compiled.columns.iter().map(|v| v.to_string()).collect(),
                trace_json: None,
                any_infinite: any.then(|| out.maybe_infinite()),
                any_infinite_vars: any.then_some(out.per_variable),
                relation: out.relation,
            })
        }
        Err(e) => Response::Error(WireError::from_pipeline(&e)),
    }
}

/// The acceptance differential: for every corpus formula — evaluable or
/// rejected — the wire response is byte-identical to in-process serving,
/// cold and warm (cache bits included), on both an empty and a random
/// database.
#[test]
fn served_query_responses_are_byte_identical_across_the_corpus() {
    let mut served_ok = 0;
    let mut served_err = 0;
    for entry in corpus() {
        for seed in [0u64, 3] {
            let db = random_db(&formula_of(&entry), seed);
            let (_server, mut client) = start(&db);
            // A fresh local cache mirrors the server's fresh shared cache:
            // both are cold on the first round, warm on the second.
            let mut cache: PlanCache<Compiled> = PlanCache::new();
            for round in ["cold", "warm"] {
                let expected = expected(
                    entry.text,
                    &db,
                    Mode::Safe,
                    CompileOptions::default(),
                    &mut cache,
                );
                let got = client
                    .query(entry.text)
                    .unwrap_or_else(|e| panic!("{}: transport failure: {e}", entry.id));
                assert_eq!(
                    got.encode(),
                    expected.encode(),
                    "{} (seed {seed}, {round}): wire bytes diverge from in-process serving",
                    entry.id
                );
                match got {
                    Response::Query(_) => served_ok += 1,
                    Response::Error(_) => served_err += 1,
                    other => panic!("{}: unexpected response {other:?}", entry.id),
                }
            }
        }
    }
    assert!(
        served_ok >= 40,
        "corpus must exercise the success path broadly (got {served_ok})"
    );
    assert!(
        served_err >= 4,
        "the corpus's rejected formulas must be served as errors too (got {served_err})"
    );
}

/// `analyze` differential: the served trace JSON equals the in-process
/// deterministic projection. The statistics feedback loop is converged
/// first (one harvesting run); re-recording the same observations does not
/// move the stats epoch, so the steady-state plan — and therefore the
/// trace — is identical in-process and over the wire.
#[test]
fn served_analyze_responses_match_in_process_traced_runs() {
    let mut compared = 0;
    for entry in corpus() {
        let db = random_db(&formula_of(&entry), 7);
        // Run 1 harvests observed cardinalities into the shared stats
        // store; run 2 is the converged reference the server must match.
        let _ = serve_traced(entry.text, &db, CompileOptions::default());
        let (result, trace) = serve_traced(entry.text, &db, CompileOptions::default());
        let expected = match result {
            Ok(out) => Response::Query(QueryOk {
                version: db.version(),
                plan_cached: false,
                result_cached: false,
                result_refreshed: false,
                stats: WireStats::from(&out.stats),
                columns: out.compiled.columns.iter().map(|v| v.to_string()).collect(),
                relation: out.relation,
                trace_json: Some(trace.to_json_deterministic()),
                any_infinite: None,
                any_infinite_vars: None,
            }),
            Err(e) => Response::Error(WireError::from_pipeline(&e)),
        };
        let (_server, mut client) = start(&db);
        let got = client
            .analyze(entry.text)
            .unwrap_or_else(|e| panic!("{}: transport failure: {e}", entry.id));
        assert_eq!(
            got.encode(),
            expected.encode(),
            "{}: served analyze diverges from the in-process traced run",
            entry.id
        );
        if let Response::Query(ok) = &got {
            assert!(
                ok.trace_json.is_some(),
                "{}: analyze must carry trace JSON",
                entry.id
            );
            compared += 1;
        }
    }
    assert!(compared >= 10, "corpus must exercise traced serving");
}

/// The `any` verb differential: every corpus formula — including every
/// classifier-rejected one — is served via safe-pair translation,
/// byte-identical to in-process cached serving, with the finite part
/// equal to the brute-force active-domain oracle and the infiniteness
/// flag surviving the wire round-trip.
#[test]
fn served_any_responses_are_byte_identical_and_match_the_oracle() {
    let mut served = 0;
    let mut rejected_served = 0;
    let mut flagged_infinite = 0;
    for entry in corpus() {
        for seed in [0u64, 3] {
            let db = random_db(&formula_of(&entry), seed);
            let (_server, mut client) = start(&db);
            let mut cache: PlanCache<Compiled> = PlanCache::new();
            for round in ["cold", "warm"] {
                let expected = expected(
                    entry.text,
                    &db,
                    Mode::Any,
                    CompileOptions::default(),
                    &mut cache,
                );
                let got = client
                    .any(entry.text)
                    .unwrap_or_else(|e| panic!("{}: transport failure: {e}", entry.id));
                assert_eq!(
                    got.encode(),
                    expected.encode(),
                    "{} (seed {seed}, {round}): any wire bytes diverge from in-process serving",
                    entry.id
                );
                let ok = match got {
                    Response::Query(ok) => ok,
                    other => panic!(
                        "{}: any must always serve an answer, got {other:?}",
                        entry.id
                    ),
                };
                assert!(
                    ok.any_infinite.is_some() && ok.any_infinite_vars.is_some(),
                    "{}: any responses must carry the infiniteness headers",
                    entry.id
                );
                // The finite part is the active-domain answer, exactly.
                let f = formula_of(&entry);
                assert_eq!(
                    ok.relation,
                    eval_brute_force(&f, &db),
                    "{} (seed {seed}): served finite part diverges from the oracle",
                    entry.id
                );
                // Known-DI entries can never be infinite, on any database.
                if entry.domain_independent {
                    assert_eq!(
                        ok.any_infinite,
                        Some(false),
                        "{} is domain independent; no stars allowed",
                        entry.id
                    );
                }
                served += 1;
                if !entry.evaluable && !entry.wide_sense {
                    rejected_served += 1;
                }
                if ok.any_infinite == Some(true) {
                    flagged_infinite += 1;
                }
            }
        }
    }
    assert!(served >= 100, "the whole corpus must serve (got {served})");
    assert!(
        rejected_served >= 40,
        "every classifier-rejected entry must serve via the safe pair (got {rejected_served})"
    );
    assert!(
        flagged_infinite > 0,
        "some rejected entries on nonempty databases must flag infiniteness"
    );
}

/// Budget trips must survive serialization byte-for-byte, and the client
/// must be able to reconstruct the exact [`BudgetExceeded`] — stage,
/// resource, limit, and consumption — the pipeline reported in-process.
#[test]
fn budget_error_attribution_survives_the_wire_byte_for_byte() {
    let db = Database::from_facts(
        "Part('bolt')\nPart('nut')\nSupplies('acme', 'bolt')\nSupplies('acme', 'nut')\nSupplies('busy', 'bolt')",
    )
    .unwrap();
    let (_server, mut client) = start(&db);

    // Tuple and node caps are deterministic (no clock involved); each
    // case trips in a different pipeline stage.
    let cases: &[(&str, WireLimits)] = &[
        (
            "Part(x)",
            WireLimits {
                tuples: Some(1),
                ..WireLimits::default()
            },
        ),
        (
            "Part(x) & Supplies(y, x)",
            WireLimits {
                tuples: Some(2),
                ..WireLimits::default()
            },
        ),
        (
            "exists y. forall x. (!Part(x) | Supplies(y, x))",
            WireLimits {
                nodes: Some(2),
                ..WireLimits::default()
            },
        ),
    ];
    for &(text, limits) in cases {
        let mut budget = Budget::new();
        if let Some(t) = limits.tuples {
            budget = budget.with_max_tuples(t);
        }
        if let Some(n) = limits.nodes {
            budget = budget.with_max_nodes(n);
        }
        let opts = CompileOptions {
            budget,
            ..CompileOptions::default()
        };
        // The in-process reference runs the same cold cached-serving path
        // the server uses.
        let mut cache: PlanCache<Compiled> = PlanCache::new();
        let err = compile_and_eval_cached(text, &db, opts, &mut cache)
            .expect_err("the cap is below the answer size; the budget must trip");
        let in_proc = match &err {
            PipelineError::Budget(b) => *b,
            other => panic!("{text}: expected a budget trip, got {other}"),
        };
        let expected = Response::Error(WireError::from_pipeline(&err));

        let req = Request {
            limits,
            ..Request::query(text)
        };
        let got = client.request(&req).expect("transport");
        assert_eq!(
            got.encode(),
            expected.encode(),
            "{text}: budget error bytes diverge"
        );
        match got {
            Response::Error(e) => {
                assert_eq!(e.kind, "budget", "{text}");
                assert_eq!(
                    e.to_budget(),
                    Some(in_proc),
                    "{text}: stage/resource/limit/used must survive serialization"
                );
            }
            other => panic!("{text}: expected a budget error, got {other:?}"),
        }
    }
}

/// Wall-clock trips involve the clock, so only the *attribution* (not the
/// elapsed reading) is pinned: an already-expired deadline must come back
/// as a reconstructible wallclock budget error.
#[test]
fn expired_deadline_reports_a_wallclock_trip_over_the_wire() {
    let db = Database::from_facts("Part('bolt')").unwrap();
    let (_server, mut client) = start(&db);
    let req = Request {
        limits: WireLimits {
            ms: Some(0),
            ..WireLimits::default()
        },
        ..Request::query("Part(x)")
    };
    match client.request(&req).expect("transport") {
        Response::Error(e) => {
            assert_eq!(e.kind, "budget");
            let b = e
                .to_budget()
                .expect("wallclock trips must be reconstructible");
            assert_eq!(b.resource, Resource::WallClock);
            assert_eq!(b.limit, 0);
        }
        other => panic!("expected a wallclock budget error, got {other:?}"),
    }
}

/// The plan/result cache is process-wide, not per-connection: a formula
/// compiled for one client is warm for every later client, and the warm
/// response is byte-identical across connections.
#[test]
fn the_shared_cache_spans_connections() {
    let entry = corpus()
        .into_iter()
        .find(|e| e.wide_sense)
        .expect("the corpus has servable entries");
    let db = random_db(&formula_of(&entry), 11);
    let text = entry.text;
    let (server, mut first) = start(&db);

    let cold = first.query(text).expect("cold serve");
    match &cold {
        Response::Query(ok) => assert!(!ok.plan_cached && !ok.result_cached),
        other => panic!("expected a query response, got {other:?}"),
    }
    let warm_same = first.query(text).expect("warm serve, same connection");

    let mut second = Client::connect(server.local_addr()).expect("second client");
    let warm_other = second.query(text).expect("warm serve, new connection");
    match &warm_other {
        Response::Query(ok) => assert!(
            ok.plan_cached && ok.result_cached,
            "a new connection must hit the process-wide cache"
        ),
        other => panic!("expected a query response, got {other:?}"),
    }
    assert_eq!(
        warm_other.encode(),
        warm_same.encode(),
        "warm responses must be byte-identical across connections"
    );
}

/// `analyze` runs the evaluation a cold `query` runs: on a plan that
/// shares a subtree (Ex. 9.1's translation scans `P` in both union
/// branches), both compute the shared scan once and report the same
/// `stats` header.
#[test]
fn analyze_reports_the_stats_of_a_cold_query() {
    let entry = by_id("ex9.1-a").expect("corpus entry");
    let db = random_db(&formula_of(&entry), 7);
    let (_server, mut client) = start(&db);
    let stats = |resp: Response| match resp {
        Response::Query(ok) => ok.stats,
        other => panic!("expected a query response, got {other:?}"),
    };
    let cold = stats(client.query(entry.text).expect("cold query"));
    let analyzed = stats(client.analyze(entry.text).expect("analyze"));
    assert_eq!(cold.memo_hits, 1, "the shared scan is served once");
    assert_eq!(analyzed, cold);
}

//! Concurrency tests for the query server: snapshot isolation under a
//! live mutator, read-your-writes version visibility (no lost
//! invalidations), deterministic single-client replay, byte-level
//! response determinism across racing warm clients, and a hundred
//! concurrent clients all served cleanly.
//!
//! The MVCC-lite contract under test: every query runs against exactly
//! one database version (the `Arc` snapshot it cloned at admission), the
//! version stamp in its response names that version, and a mutation's
//! returned version is visible to every query admitted after the mutate
//! response was sent.

use rc_serve::{Client, Request, Response, Server, ServerConfig};
use rcsafe::relalg::{tuple, RelationBuilder};
use rcsafe::{Database, Relation, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn expect_query(resp: Response, ctx: &str) -> (u64, Relation) {
    match resp {
        Response::Query(ok) => (ok.version, ok.relation),
        other => panic!("{ctx}: expected a query response, got {other:?}"),
    }
}

fn expect_mutate(resp: Response, ctx: &str) -> u64 {
    match resp {
        Response::Mutate { version, .. } => version,
        other => panic!("{ctx}: expected a mutate response, got {other:?}"),
    }
}

/// `S` holding exactly `0..=k`: the database contents after mutation `k`.
fn s_after(k: i64) -> Relation {
    Relation::from_rows(1, (0..=k).map(|i| tuple([i])))
}

/// Readers race a mutator. Every response must be *internally
/// consistent*: its version stamp names a state the mutator actually
/// published, and its relation is exactly that state's answer — never a
/// torn mix of two versions, never a version that was never current.
#[test]
fn responses_are_consistent_with_exactly_one_published_version() {
    const MUTATIONS: i64 = 24;
    const READERS: usize = 4;
    const READS: usize = 40;

    let db = Database::from_facts("S(0)").unwrap();
    let server = Server::start(db.clone(), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    // version → k (the state "S holds 0..=k"). Seed with the initial
    // version before any reader starts.
    let published: Arc<Mutex<HashMap<u64, i64>>> = Arc::default();
    {
        let mut client = Client::connect(addr).expect("connect");
        let (v0, r0) = expect_query(client.query("S(x)").expect("initial query"), "initial");
        assert_eq!(r0, s_after(0));
        published.lock().unwrap().insert(v0, 0);
    }

    let done = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for r in 0..READERS {
        let published = Arc::clone(&published);
        readers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("reader connect");
            let mut observed = Vec::new();
            for i in 0..READS {
                let resp = client
                    .query("S(x)")
                    .unwrap_or_else(|e| panic!("reader {r} read {i}: {e}"));
                observed.push(expect_query(resp, "reader"));
            }
            // Validate after the fact: the mutator records a version in
            // `published` *before* sending the mutate request, so every
            // version a reader can observe is in the map by then.
            let map = published.lock().unwrap();
            for (version, relation) in observed {
                let k = *map.get(&version).unwrap_or_else(|| {
                    panic!("reader {r} saw version {version} that was never published")
                });
                assert_eq!(
                    relation,
                    s_after(k),
                    "reader {r}: torn read at version {version} (expected S = 0..={k})"
                );
            }
        }));
    }

    // The mutator: read-your-writes after every mutation. The new fact's
    // version is pre-registered (the server assigns versions by cloning
    // our mirror's global counter order — we learn the actual stamp from
    // the response, so register it before any reader can observe it by
    // holding the map lock across the request).
    let mutator = {
        let published = Arc::clone(&published);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("mutator connect");
            for k in 1..=MUTATIONS {
                let version = {
                    // Holding the lock across the round trip means the
                    // version is in the map before the server can answer
                    // any reader from the new state.
                    let mut map = published.lock().unwrap();
                    let v = expect_mutate(
                        client
                            .mutate(&format!("S({k})"))
                            .unwrap_or_else(|e| panic!("mutation {k}: {e}")),
                        "mutate",
                    );
                    map.insert(v, k);
                    v
                };
                // No lost invalidations: a query issued after the mutate
                // response must see exactly the new version and the new
                // fact — the stale cached result must not be served.
                let (rv, rel) = expect_query(
                    client.query("S(x)").expect("read-your-writes query"),
                    "read-your-writes",
                );
                assert_eq!(
                    rv, version,
                    "mutation {k}: follow-up query saw version {rv}, expected {version}"
                );
                assert_eq!(rel, s_after(k), "mutation {k}: follow-up answer is stale");
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    mutator.join().expect("mutator panicked");
    for h in readers {
        h.join().expect("reader panicked");
    }
    assert!(done.load(Ordering::SeqCst));
    assert_eq!(
        published.lock().unwrap().len() as i64,
        MUTATIONS + 1,
        "every mutation must publish a distinct version"
    );
}

/// Mutation edge cases: inserting a fact that is already present and
/// deleting one that never was are *net no-ops* — the wire response
/// carries an empty delta summary, the version stamp does not move, and
/// warm cached results stay warm (no cold restart for a mutation that
/// changed nothing).
#[test]
fn duplicate_inserts_and_absent_deletes_are_no_op_deltas() {
    let db = Database::from_facts("S(0)\nS(1)").unwrap();
    let server = Server::start(db, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Prime the result cache: second serve is a warm hit.
    let (v0, _) = expect_query(client.query("S(x)").expect("prime"), "prime");
    match client.query("S(x)").expect("warm") {
        Response::Query(ok) => assert!(ok.result_cached, "priming must warm the result cache"),
        other => panic!("expected a query response, got {other:?}"),
    }

    // Duplicate insert and absent delete, separately and combined: every
    // one is a no-op with an empty summary and an unchanged version.
    for facts in ["S(1)", "-S(9)", "S(0)\n-S(7)"] {
        match client.mutate(facts).expect("no-op mutate") {
            Response::Mutate { version, delta } => {
                assert_eq!(
                    version, v0,
                    "{facts:?}: no-op must not publish a new version"
                );
                assert!(
                    delta.is_empty(),
                    "{facts:?}: expected empty summary, got {delta:?}"
                );
            }
            other => panic!("{facts:?}: expected a mutate response, got {other:?}"),
        }
    }

    // The cache never went cold: still a warm hit at the same version.
    match client.query("S(x)").expect("post no-op query") {
        Response::Query(ok) => {
            assert_eq!(ok.version, v0);
            assert!(
                ok.result_cached,
                "a no-op mutation must not invalidate cached results"
            );
            assert!(
                !ok.result_refreshed,
                "a no-op mutation leaves a verbatim hit, not a refresh"
            );
            assert_eq!(ok.relation, s_after(1));
        }
        other => panic!("expected a query response, got {other:?}"),
    }
}

/// A mutation racing an in-flight query never changes that query's
/// snapshot: the reader fires its request bytes, a mutation lands on
/// another connection *before* the reader collects its answer, and the
/// answer must still be internally consistent — version and relation
/// from exactly one published state, never a torn mix.
#[test]
fn in_flight_queries_keep_their_admission_snapshot() {
    const ROUNDS: i64 = 16;
    let db = Database::from_facts("S(0)").unwrap();
    let server = Server::start(db, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut reader = Client::connect(addr).expect("reader connect");
    let mut mutator = Client::connect(addr).expect("mutator connect");

    let (v0, r0) = expect_query(reader.query("S(x)").expect("initial"), "initial");
    assert_eq!(r0, s_after(0));
    let mut states = HashMap::from([(v0, 0i64)]);

    for k in 1..=ROUNDS {
        // Fire the query, then race a mutation behind it before reading
        // the reader's answer — the query is plausibly in flight when
        // the new version is published.
        reader
            .send_raw_frame(&Request::query("S(x)").encode())
            .expect("send query");
        let v_new = expect_mutate(
            mutator
                .mutate(&format!("S({k})"))
                .unwrap_or_else(|e| panic!("mutation {k}: {e}")),
            "racing mutate",
        );
        let (rv, rel) = expect_query(
            reader.read_response().expect("read raced query"),
            "raced query",
        );
        states.insert(v_new, k);
        let snapshot_k = *states
            .get(&rv)
            .unwrap_or_else(|| panic!("round {k}: version {rv} was never published"));
        assert_eq!(
            rel,
            s_after(snapshot_k),
            "round {k}: answer does not match its own version stamp {rv} — torn snapshot"
        );
    }
}

/// Replay determinism: one client, a fixed read-only request sequence,
/// four passes. Pass 1 warms the caches but its analyze also harvests
/// observed cardinalities, moving the statistics epoch — so pass 2 still
/// recompiles plans keyed on the old epoch. From pass 2 on the feedback
/// loop is stationary (re-recording identical observations does not move
/// the epoch), so passes 3 and 4 must be byte-identical, response by
/// response.
#[test]
fn single_client_replay_is_deterministic() {
    let db = Database::from_facts(
        "Part('bolt')\nPart('nut')\nSupplies('acme', 'bolt')\nSupplies('acme', 'nut')\nSupplies('busy', 'bolt')",
    )
    .unwrap();
    let server = Server::start(db, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let script: &[Request] = &[
        Request::query("Part(x)"),
        Request::query("exists y. forall x. (!Part(x) | Supplies(y, x))"),
        Request::analyze("Part(x) & Supplies(y, x)"),
        Request::query("Part(x) & !Supplies('busy', x)"),
        Request::query("Part(x)"),
    ];
    let run_pass = |client: &mut Client| -> Vec<Vec<u8>> {
        script
            .iter()
            .map(|req| client.request(req).expect("transport").encode())
            .collect()
    };
    // Two warm-up passes: caches filled, statistics feedback converged.
    let _cold = run_pass(&mut client);
    let _epoch_settles = run_pass(&mut client);
    let third = run_pass(&mut client);
    let fourth = run_pass(&mut client);
    assert_eq!(
        third, fourth,
        "warm replay must be byte-identical, request by request"
    );
}

/// Racing warm clients: after one priming query, every concurrent client
/// gets the *same bytes* — the shared cache serves all of them and no
/// interleaving can perturb a response.
#[test]
fn warm_responses_are_byte_identical_under_concurrency() {
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 10;
    let text = "Part(x) & Supplies(y, x)";

    let db = Database::from_facts(
        "Part('bolt')\nPart('nut')\nSupplies('acme', 'bolt')\nSupplies('busy', 'bolt')",
    )
    .unwrap();
    let server = Server::start(db, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let baseline = {
        let mut client = Client::connect(addr).expect("primer connect");
        let _cold = client.query(text).expect("priming serve");
        let warm = client.query(text).expect("warm baseline");
        match &warm {
            Response::Query(ok) => assert!(ok.plan_cached && ok.result_cached),
            other => panic!("expected a query response, got {other:?}"),
        }
        warm.encode()
    };

    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let baseline = baseline.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("client connect");
            for round in 0..ROUNDS {
                let got = client
                    .query(text)
                    .unwrap_or_else(|e| panic!("client {c} round {round}: {e}"))
                    .encode();
                assert_eq!(
                    got, baseline,
                    "client {c} round {round}: warm response bytes diverged"
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("client panicked");
    }

    // The server's own accounting agrees: all traffic was admitted, no
    // rejections, and everything has drained.
    let mut client = Client::connect(addr).expect("stats connect");
    let stats: HashMap<String, String> = client.stats().expect("stats").into_iter().collect();
    assert_eq!(stats["active"], "0");
    assert_eq!(stats["queued"], "0");
    assert_eq!(stats["rejected"], "0");
    let result_hits: u64 = stats["result_hits"].parse().unwrap();
    assert!(
        result_hits >= (CLIENTS * ROUNDS) as u64,
        "warm traffic must be served from the shared result cache (hits: {result_hits})"
    );
}

/// A deterministic `n`-row join database (`i mod k` patterns): `A` and
/// `B` join on a key shared by three rows, and `C` holds the even numbers
/// below `n`.
fn serve_db(n: usize) -> Database {
    let key = (n as i64 / 3).max(1);
    let mut a = RelationBuilder::with_capacity(2, n);
    let mut b = RelationBuilder::with_capacity(2, n);
    let mut c = RelationBuilder::with_capacity(1, n / 2);
    for i in 0..n as i64 {
        a.push_row(&[Value::int(i), Value::int(i % key)]);
        b.push_row(&[Value::int(i % key), Value::int(i % 97)]);
        if i < (n / 2) as i64 {
            c.push_row(&[Value::int(2 * i)]);
        }
    }
    let mut db = Database::new();
    db.insert_relation("A", a.finish());
    db.insert_relation("B", b.finish());
    db.insert_relation("C", c.finish());
    db
}

/// A hundred clients, each sending three rounds of a hot query set
/// (join, anti-join and quantified shapes) against a 2k-row database:
/// every request completes with an answer, the server counts no protocol
/// error, no connection fails, and the p99 latency stays under five
/// seconds.
#[test]
fn a_hundred_concurrent_clients_are_all_served() {
    const CLIENTS: usize = 100;
    const ROUNDS: usize = 3;
    const HOT: [&str; 4] = [
        "A(x, y) & B(y, z)",
        "A(x, y) & !C(x)",
        "exists z. (A(x, y) & B(y, z))",
        "A(x, y) & B(y, z) & !C(z)",
    ];
    let server = Server::start(serve_db(2_000), ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    {
        let mut primer = Client::connect(addr).expect("primer connect");
        for q in HOT {
            expect_query(primer.query(q).expect("priming serve"), q);
        }
    }

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr)
                    .unwrap_or_else(|e| panic!("client {c}: connect failed: {e}"));
                let mut latencies = Vec::with_capacity(ROUNDS * HOT.len());
                for round in 0..ROUNDS {
                    for q in HOT {
                        let t0 = Instant::now();
                        let resp = client
                            .query(q)
                            .unwrap_or_else(|e| panic!("client {c} round {round}: {e}"));
                        latencies.push(t0.elapsed());
                        expect_query(resp, q);
                    }
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client panicked"))
        .collect();

    assert_eq!(latencies.len(), CLIENTS * ROUNDS * HOT.len());
    assert_eq!(server.protocol_errors(), 0);
    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() - 1) * 99 / 100];
    assert!(p99 < Duration::from_secs(5), "p99 latency {p99:?}");
}

//! Wire-protocol robustness: hostile bytes must never panic the server,
//! hang its accept loop, or desynchronize an honest client. Truncated
//! frames, oversized length prefixes, and garbage payloads all come back
//! as structured `err proto` responses (or a clean close when the stream
//! itself is untrustworthy), and the server keeps serving afterwards.
//!
//! The round-trip halves are property tests: frames, requests, and
//! responses survive encode → parse for randomized inputs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rc_serve::{
    read_frame, write_frame, Client, ClientError, DeltaCount, FrameError, Priority, QueryOk,
    Request, Response, Server, ServerConfig, Verb, WireLimits, WireStats, MAX_REQUEST_FRAME,
};
use rcsafe::relalg::RelationBuilder;
use rcsafe::{Database, Relation, Value};
use std::time::Duration;

fn test_server() -> (Server, std::net::SocketAddr) {
    let db = Database::from_facts("Part('bolt')\nPart('nut')").unwrap();
    let server = Server::start(db, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    (server, addr)
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let mut c = Client::connect(addr).expect("connect");
    // Nothing in this suite should take seconds; a timeout turns a hung
    // accept loop into a test failure instead of a stuck run.
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

/// The server must stay reachable: a fresh client's ping round-trips.
fn assert_server_alive(addr: std::net::SocketAddr) {
    let mut probe = connect(addr);
    assert_eq!(probe.ping().expect("ping after abuse"), Response::Pong);
}

#[test]
fn truncated_frames_are_counted_and_isolated() {
    let (server, addr) = test_server();

    // EOF mid-length-prefix.
    let mut c = connect(addr);
    c.send_raw_bytes(&[0u8, 0]).unwrap();
    c.shutdown_write().unwrap();
    // EOF mid-payload: promise 64 bytes, deliver 3.
    let mut c2 = connect(addr);
    c2.send_raw_bytes(&64u32.to_be_bytes()).unwrap();
    c2.send_raw_bytes(b"abc").unwrap();
    c2.shutdown_write().unwrap();

    // Both connections close without a served response; the server counts
    // them and keeps accepting.
    assert_server_alive(addr);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.protocol_errors() < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "truncated frames were not counted (saw {})",
            server.protocol_errors()
        );
        std::thread::yield_now();
    }
}

#[test]
fn hostile_oversized_prefix_is_rejected_before_the_payload() {
    let (server, addr) = test_server();
    let mut c = connect(addr);
    // Declare 4 GiB; send nothing after the prefix. If the server tried
    // to read (or allocate) the payload it would hang here — instead the
    // cap check fires immediately and answers.
    c.send_raw_bytes(&u32::MAX.to_be_bytes()).unwrap();
    match c.read_response().expect("structured answer, not a hang") {
        Response::Error(e) => {
            assert_eq!(e.kind, "proto");
            assert!(
                e.message.contains("oversized"),
                "unexpected message: {}",
                e.message
            );
        }
        other => panic!("expected err proto, got {other:?}"),
    }
    // After a framing fault the stream is untrustworthy: the server
    // closes it rather than resynchronizing.
    match c.read_response() {
        Err(ClientError::Closed) | Err(ClientError::Frame(_)) => {}
        other => panic!("expected the connection to close, got {other:?}"),
    }
    assert_server_alive(addr);
    assert!(server.protocol_errors() >= 1);
}

/// A frame that arrives intact but does not parse keeps the stream in
/// sync: the server answers `err proto` and continues serving the same
/// connection.
#[test]
fn garbage_payloads_get_structured_errors_and_the_stream_survives() {
    let (server, addr) = test_server();
    let mut c = connect(addr);
    let garbage: &[&[u8]] = &[
        b"",                                // empty payload
        &[0xff, 0xfe, 0x00, 0x80],          // not UTF-8
        b"http GET /index.html\n.\n",       // wrong magic
        b"rc1 frobnicate\n.\n",             // unknown verb
        b"rc1 query\ntuples lots\n.\nP(x)", // bad header value
        b"rc1 query\nno separator at all",  // missing body separator
    ];
    for payload in garbage {
        c.send_raw_frame(payload).unwrap();
        match c.read_response().expect("structured answer") {
            Response::Error(e) => assert_eq!(e.kind, "proto", "payload {payload:?}"),
            other => panic!("payload {payload:?}: expected err proto, got {other:?}"),
        }
    }
    // The same connection still serves real queries.
    match c.query("Part(x)").expect("query after garbage") {
        Response::Query(ok) => assert_eq!(ok.relation.len(), 2),
        other => panic!("expected a query response, got {other:?}"),
    }
    assert_eq!(server.protocol_errors(), garbage.len() as u64);
}

/// A forced partition count above the wire ceiling is a structured
/// `err proto`, not a request the server tries to honour: a count in the
/// billions would size partition buffers in terabytes, and one in the
/// hundred thousands would spawn threads until the runtime aborts. The
/// connection keeps serving, and a count at the ceiling is still accepted.
#[test]
fn oversized_partition_counts_are_rejected_and_the_server_survives() {
    let mut db = Database::new();
    let mut a = RelationBuilder::new(2);
    let mut b = RelationBuilder::new(2);
    for i in 0..10_000i64 {
        a.push_row(&[Value::int(i), Value::int(i % 97)]);
        b.push_row(&[Value::int(i % 97), Value::int(i % 13)]);
    }
    db.insert_relation("A", a.finish());
    db.insert_relation("B", b.finish());
    let server = Server::start(db, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut c = connect(addr);
    let join = "A(x, y) & B(y, z)";
    for count in ["100000000000", "100000", "65"] {
        let payload = format!("rc1 query\npartitions {count}\n.\n{join}");
        c.send_raw_frame(payload.as_bytes()).unwrap();
        match c.read_response().expect("structured answer") {
            Response::Error(e) => {
                assert_eq!(e.kind, "proto", "partitions {count}");
                assert!(e.message.contains("partitions"), "{}", e.message);
            }
            other => panic!("partitions {count}: expected err proto, got {other:?}"),
        }
    }
    let at_ceiling = Request {
        limits: WireLimits {
            partitions: Some(64),
            ..WireLimits::default()
        },
        ..Request::query(join)
    };
    for req in [Request::query(join), at_ceiling] {
        match c.query_with(req).expect("query after rejected counts") {
            Response::Query(ok) => assert_eq!(ok.relation.len(), 10_000 * 13),
            other => panic!("expected a query response, got {other:?}"),
        }
    }
    assert_eq!(server.protocol_errors(), 3);
    assert_server_alive(addr);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random well-framed byte salads: every one gets *some* response
    /// (no hang, no crash), and the connection remains usable.
    #[test]
    fn random_garbage_frames_never_kill_the_server(seed in 0u64..5_000) {
        let (_server, addr) = test_server();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = connect(addr);
        for _ in 0..4 {
            let len = rng.gen_range(0usize..=160);
            let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0u8..=255)).collect();
            c.send_raw_frame(&payload).unwrap();
            // Any parsed response is acceptable — random bytes are
            // overwhelmingly `err proto`, but a fluke valid request is
            // fine too. What is not acceptable: a hang or a dead server.
            let resp = c.read_response();
            prop_assert!(resp.is_ok(), "no response to {payload:?}: {resp:?}");
        }
        let pong = c.ping();
        prop_assert_eq!(pong.ok(), Some(Response::Pong));
    }

    /// Frames round-trip through a byte buffer, and a randomly truncated
    /// buffer yields either complete frames then a structured truncation
    /// error, or a clean EOF exactly on a frame boundary.
    #[test]
    fn frame_roundtrip_and_truncation_are_structured(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frames: Vec<Vec<u8>> = (0..rng.gen_range(1usize..=5))
            .map(|_| {
                let len = rng.gen_range(0usize..=64);
                (0..len).map(|_| rng.gen_range(0u8..=255)).collect()
            })
            .collect();
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        // Intact: every frame comes back, then a clean EOF.
        let mut r = buf.as_slice();
        for f in &frames {
            let back = read_frame(&mut r, 4096).unwrap();
            prop_assert_eq!(back.as_ref(), Some(f));
        }
        prop_assert!(read_frame(&mut r, 4096).unwrap().is_none());

        // Truncated at a random point: complete prefix frames still
        // parse; the cut is either a clean boundary or a Truncated error
        // — never a panic, never a bogus frame.
        let cut = rng.gen_range(0usize..=buf.len());
        let mut r = &buf[..cut];
        loop {
            match read_frame(&mut r, 4096) {
                Ok(Some(f)) => prop_assert!(frames.contains(&f)),
                Ok(None) => break,
                Err(FrameError::Truncated { expected, got }) => {
                    prop_assert!(got < expected);
                    break;
                }
                Err(other) => return Err(TestCaseError::fail(format!("unexpected: {other}"))),
            }
        }
    }

    /// Requests round-trip: parse(encode(req)) == req for randomized
    /// verbs, priorities, limits, flags, and multi-line bodies.
    #[test]
    fn requests_roundtrip(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let verbs = [Verb::Query, Verb::Analyze, Verb::Mutate, Verb::Ping, Verb::Stats];
        let body_chars: Vec<char> =
            "abcxyzPQR01 ()&|!<=.,'\n".chars().collect();
        let body_len = rng.gen_range(0usize..=40);
        let body: String = (0..body_len)
            .map(|_| body_chars[rng.gen_range(0usize..body_chars.len())])
            .collect();
        let req = Request {
            verb: verbs[rng.gen_range(0usize..verbs.len())],
            priority: if rng.gen_bool(0.5) { Priority::High } else { Priority::Normal },
            limits: WireLimits {
                tuples: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..1 << 40)),
                nodes: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..1 << 40)),
                ms: rng.gen_bool(0.5).then(|| rng.gen_range(0u64..1 << 20)),
                partitions: rng.gen_bool(0.5).then(|| rng.gen_range(1usize..=64)),
            },
            optimize: rng.gen_bool(0.5),
            eqreduce: rng.gen_bool(0.5),
            body,
        };
        let parsed = Request::parse(&req.encode());
        prop_assert_eq!(parsed.as_ref().ok(), Some(&req));
    }

    /// Mutate responses round-trip: the applied-delta summary (including
    /// table names containing spaces, and the empty no-op summary)
    /// survives encode → parse.
    #[test]
    fn mutate_responses_roundtrip(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0usize..=4);
        let delta: Vec<DeltaCount> = (0..n)
            .map(|i| DeltaCount {
                table: if rng.gen_bool(0.3) { format!("Table {i}") } else { format!("T{i}") },
                inserted: rng.gen_range(0u64..1 << 40),
                deleted: rng.gen_range(0u64..1 << 40),
            })
            .collect();
        let resp = Response::Mutate {
            version: rng.gen_range(0u64..1 << 50),
            delta,
        };
        let parsed = Response::parse(&resp.encode());
        prop_assert_eq!(parsed.as_ref().ok(), Some(&resp));
    }

    /// Query responses round-trip: parse(encode(resp)) == resp for
    /// randomized stats, columns, relations (including the arity-0
    /// boolean codec, full-range ints, strings that need quotes or
    /// escapes, and bodies of hundreds of rows), and trace payloads.
    #[test]
    fn query_responses_roundtrip(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let resp = Response::Query(random_query_ok(&mut rng, true));
        let parsed = Response::parse(&resp.encode());
        prop_assert_eq!(parsed.as_ref().ok(), Some(&resp));
    }

    /// The codec writes the same bytes as the per-cell reference encoder
    /// below for every answer without control characters or backslashes.
    #[test]
    fn query_encoding_matches_the_reference_encoder(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ok = random_query_ok(&mut rng, false);
        prop_assert_eq!(Response::Query(ok.clone()).encode(), reference_encode(&ok));
    }
}

/// One random cell value. With `escapes` off the pool holds no control
/// character or backslash, so the reference encoder agrees on it.
fn random_value(rng: &mut StdRng, escapes: bool) -> Value {
    const INTS: [i64; 6] = [
        i64::MIN,
        i64::MIN + 1,
        i64::MAX,
        -1_000_000_000_000_000_000,
        1_000_000_000_000_000_000,
        0,
    ];
    const STRINGS: [&str; 18] = [
        "42",
        "-7",
        "+5",
        "007",
        " lead",
        "trail ",
        " both ",
        "'quote",
        "'",
        "''",
        "",
        "naïve",
        "日本語",
        "\u{a0}nbsp",
        "#hash",
        "9223372036854775808",
        "s0",
        "s1",
    ];
    const ESCAPED: [&str; 9] = [
        "a\tb",
        "line\nbreak",
        "cr\rhere",
        "back\\slash",
        "end\\",
        "\\",
        "\t",
        "'\\t'",
        " \\n ",
    ];
    match rng.gen_range(0u32..6) {
        0 => Value::int(rng.gen_range(i64::MIN..=i64::MAX)),
        1 => Value::int(INTS[rng.gen_range(0..INTS.len())]),
        2 => Value::int(rng.gen_range(-100i64..100)),
        3 if escapes => Value::str(ESCAPED[rng.gen_range(0..ESCAPED.len())]),
        _ => Value::str(STRINGS[rng.gen_range(0..STRINGS.len())]),
    }
}

fn random_query_ok(rng: &mut StdRng, escapes: bool) -> QueryOk {
    let arity = rng.gen_range(0usize..=3);
    let relation = if arity == 0 {
        if rng.gen_bool(0.5) {
            Relation::unit()
        } else {
            Relation::empty_nullary()
        }
    } else {
        let rows = if rng.gen_bool(0.2) {
            rng.gen_range(100usize..=400)
        } else {
            rng.gen_range(0usize..=6)
        };
        let mut b = RelationBuilder::new(arity);
        for _ in 0..rows {
            let row: Vec<Value> = (0..arity).map(|_| random_value(rng, escapes)).collect();
            b.push_row(&row);
        }
        b.finish()
    };
    QueryOk {
        version: rng.gen_range(0u64..1 << 50),
        plan_cached: rng.gen_bool(0.5),
        result_cached: rng.gen_bool(0.5),
        result_refreshed: rng.gen_bool(0.5),
        stats: WireStats {
            operators: rng.gen_range(0u64..1 << 30),
            tuples_produced: rng.gen_range(0u64..1 << 30),
            max_intermediate: rng.gen_range(0u64..1 << 30),
            budget_checks: rng.gen_range(0u64..1 << 30),
            memo_hits: rng.gen_range(0u64..1 << 30),
        },
        columns: (0..arity).map(|i| format!("c{i}")).collect(),
        relation,
        trace_json: rng
            .gen_bool(0.5)
            .then(|| format!("{{\"stages\":[],\"n\":{}}}", rng.gen_range(0u64..1000))),
        any_infinite: rng.gen_bool(0.5).then(|| rng.gen_bool(0.5)),
        any_infinite_vars: rng
            .gen_bool(0.5)
            .then(|| (0..arity).map(|_| rng.gen_bool(0.5)).collect()),
    }
}

/// A query response encoded cell by cell: every value formatted into its
/// own `String`, rows joined with tabs. The codec must match it byte for
/// byte wherever no value needs an escape.
fn reference_encode(ok: &QueryOk) -> Vec<u8> {
    use std::fmt::Write as _;
    fn cell(v: &Value) -> String {
        match v {
            Value::Int(i) => i.to_string(),
            Value::Str(s) => {
                let s = s.as_str();
                if s.parse::<i64>().is_ok()
                    || s.starts_with('\'')
                    || s.contains('\t')
                    || s != s.trim()
                {
                    format!("'{s}'")
                } else {
                    s.to_string()
                }
            }
        }
    }
    let flag = |b: bool| u8::from(b);
    let mut out = String::new();
    let _ = writeln!(out, "rc1 ok query");
    let _ = writeln!(out, "version {}", ok.version);
    let _ = writeln!(out, "plan_cached {}", flag(ok.plan_cached));
    let _ = writeln!(out, "result_cached {}", flag(ok.result_cached));
    let _ = writeln!(out, "result_refreshed {}", flag(ok.result_refreshed));
    let _ = writeln!(out, "operators {}", ok.stats.operators);
    let _ = writeln!(out, "tuples_produced {}", ok.stats.tuples_produced);
    let _ = writeln!(out, "max_intermediate {}", ok.stats.max_intermediate);
    let _ = writeln!(out, "budget_checks {}", ok.stats.budget_checks);
    let _ = writeln!(out, "memo_hits {}", ok.stats.memo_hits);
    if let Some(inf) = ok.any_infinite {
        let _ = writeln!(out, "any_infinite {}", flag(inf));
    }
    let list = |items: Vec<String>| {
        if items.is_empty() {
            "-".to_string()
        } else {
            items.join(",")
        }
    };
    if let Some(mask) = &ok.any_infinite_vars {
        let bits = mask.iter().map(|&b| flag(b).to_string()).collect();
        let _ = writeln!(out, "any_infinite_vars {}", list(bits));
    }
    let _ = writeln!(out, "columns {}", list(ok.columns.clone()));
    let _ = writeln!(out, "arity {}", ok.relation.arity());
    let _ = writeln!(out, "rows {}", ok.relation.len());
    out.push_str(".\n");
    if ok.relation.arity() > 0 {
        for row in ok.relation.iter() {
            let cells: Vec<String> = row.iter().map(cell).collect();
            let _ = writeln!(out, "{}", cells.join("\t"));
        }
    }
    if let Some(trace) = &ok.trace_json {
        let _ = writeln!(out, "{trace}");
    }
    out.into_bytes()
}

/// String values holding a tab, carriage return or backslash, loaded
/// through `mutate`, come back intact from a `query` on a live server.
#[test]
fn string_cells_with_delimiters_roundtrip_over_the_wire() {
    let (_server, addr) = test_server();
    let mut c = connect(addr);
    let values = ["a\tb", "x\ry", "c\\d", "\\t", " pad ", "42"];
    let facts: Vec<String> = values.iter().map(|v| format!("Tag('{v}')")).collect();
    match c.mutate(&facts.join("\n")).expect("mutate") {
        Response::Mutate { delta, .. } => assert_eq!(delta[0].inserted, values.len() as u64),
        other => panic!("expected a mutate response, got {other:?}"),
    }
    match c.query("Tag(x)").expect("query") {
        Response::Query(ok) => {
            let want = Relation::from_rows(1, values.iter().map(|v| vec![Value::str(v)].into()));
            assert_eq!(ok.relation, want);
        }
        other => panic!("expected a query response, got {other:?}"),
    }
}

/// The mutate verb's applied-delta summary round-trips over the wire
/// through a live server: per-table net insert/delete counts in the
/// response body, an empty summary (and an unchanged version stamp) for
/// net no-op mutations, and a follow-up query confirming the summary
/// described the state that is actually served.
#[test]
fn mutate_responses_report_the_applied_delta_over_the_wire() {
    let (_server, addr) = test_server();
    let mut c = connect(addr);

    let resp = c
        .mutate("Part('washer')\n-Part('nut')\nSupplies('acme', 'washer')")
        .expect("mutate");
    let version = match resp {
        Response::Mutate { version, delta } => {
            assert_eq!(
                delta,
                vec![
                    DeltaCount {
                        table: "Part".into(),
                        inserted: 1,
                        deleted: 1
                    },
                    DeltaCount {
                        table: "Supplies".into(),
                        inserted: 1,
                        deleted: 0
                    },
                ]
            );
            version
        }
        other => panic!("expected a mutate response, got {other:?}"),
    };

    // Net no-op: re-inserting a present fact and deleting an absent one
    // leaves the version stamp untouched and the summary empty.
    match c.mutate("Part('washer')\n-Part('gone')").expect("no-op") {
        Response::Mutate { version: v2, delta } => {
            assert_eq!(v2, version, "a net no-op must not publish a new version");
            assert!(delta.is_empty(), "no-op summary must be empty: {delta:?}");
        }
        other => panic!("expected a mutate response, got {other:?}"),
    }

    // The summary described the served state: 'nut' gone, 'washer' in.
    match c.query("Part(x)").expect("query after mutate") {
        Response::Query(ok) => {
            assert_eq!(ok.version, version);
            assert_eq!(ok.relation.len(), 2);
        }
        other => panic!("expected a query response, got {other:?}"),
    }
}

/// The `result_refreshed` header distinguishes the three warm-serve
/// shapes over the wire: a verbatim result hit (cached, not refreshed),
/// a delta-advanced serve after a small mutation (cached *and*
/// refreshed), and a cold serve (neither).
#[test]
fn refreshed_serves_are_distinguishable_over_the_wire() {
    let (_server, addr) = test_server();
    let mut c = connect(addr);
    let text = "Part(x) & Supplies(y, x)";

    // Seed the Supplies table (the fixture only preloads Part).
    match c.mutate("Supplies('acme', 'bolt')").expect("seed") {
        Response::Mutate { delta, .. } => assert!(!delta.is_empty()),
        other => panic!("expected a mutate response, got {other:?}"),
    }

    match c.query(text).expect("cold serve") {
        Response::Query(ok) => {
            assert!(!ok.result_cached && !ok.result_refreshed);
        }
        other => panic!("expected a query response, got {other:?}"),
    }
    match c.query(text).expect("verbatim warm serve") {
        Response::Query(ok) => {
            assert!(ok.result_cached, "second serve must hit the result cache");
            assert!(
                !ok.result_refreshed,
                "an unchanged database is a verbatim hit, not a refresh"
            );
        }
        other => panic!("expected a query response, got {other:?}"),
    }

    // One-row mutation: the next serve must advance the maintained view
    // through the delta journal, and say so on the wire.
    match c.mutate("Supplies('apex', 'nut')").expect("mutate") {
        Response::Mutate { delta, .. } => assert!(!delta.is_empty()),
        other => panic!("expected a mutate response, got {other:?}"),
    }
    match c.query(text).expect("refreshed serve") {
        Response::Query(ok) => {
            assert!(
                ok.result_cached && ok.result_refreshed,
                "a trickle mutation must be served by delta refresh, got \
                 cached={} refreshed={}",
                ok.result_cached,
                ok.result_refreshed
            );
            assert_eq!(
                ok.relation.len(),
                2,
                "the refreshed answer must include the new supplier row"
            );
        }
        other => panic!("expected a query response, got {other:?}"),
    }
}

/// A request frame exactly at the server's cap is served; one byte over
/// is rejected as oversized (the boundary of [`MAX_REQUEST_FRAME`]).
#[test]
fn request_frame_cap_is_exact() {
    let db = Database::from_facts("Part('bolt')").unwrap();
    let server = Server::start(
        db,
        ServerConfig {
            max_request_frame: 256,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    // Exactly at the cap: pad the body of a valid ping with spaces.
    let mut at_cap = Request::bare(Verb::Ping);
    let base = at_cap.encode().len();
    at_cap.body = " ".repeat(256 - base);
    assert_eq!(at_cap.encode().len(), 256);
    let mut c = connect(addr);
    assert_eq!(c.request(&at_cap).expect("at-cap frame"), Response::Pong);

    // One byte over: structured oversized rejection, before the payload.
    let mut over = connect(addr);
    over.send_raw_bytes(&257u32.to_be_bytes()).unwrap();
    match over.read_response().expect("structured answer") {
        Response::Error(e) => assert_eq!(e.kind, "proto"),
        other => panic!("expected err proto, got {other:?}"),
    }
    assert_server_alive(addr);
}

/// Interleaved valid and invalid traffic across several connections: the
/// per-connection error handling never bleeds into honest clients.
#[test]
fn abuse_on_one_connection_never_perturbs_another() {
    let (_server, addr) = test_server();
    let mut honest = connect(addr);
    let baseline = {
        let _prime = honest.query("Part(x)").expect("prime");
        honest.query("Part(x)").expect("warm baseline").encode()
    };
    for round in 0..6 {
        let mut abuser = connect(addr);
        if round % 2 == 0 {
            abuser.send_raw_frame(&[0xff; 16]).unwrap();
            let _ = abuser.read_response();
        } else {
            abuser.send_raw_bytes(&[0, 0, 1]).unwrap();
            abuser.shutdown_write().unwrap();
        }
        let got = honest
            .query("Part(x)")
            .unwrap_or_else(|e| panic!("honest client failed in round {round}: {e}"))
            .encode();
        assert_eq!(got, baseline, "round {round}: honest response perturbed");
    }
}

/// The client side rejects a response frame larger than its own cap —
/// symmetric protection (here exercised directly on the codec since the
/// server never emits oversized frames).
#[test]
fn client_side_cap_is_enforced_by_the_reader() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(MAX_REQUEST_FRAME + 1).to_be_bytes());
    let err = read_frame(&mut buf.as_slice(), MAX_REQUEST_FRAME).unwrap_err();
    assert_eq!(
        err,
        FrameError::Oversized {
            len: MAX_REQUEST_FRAME + 1,
            max: MAX_REQUEST_FRAME
        }
    );
}

//! A deep plan must not take the query server down.
//!
//! A 990-byte allowed query over a 190-fact database compiles to a
//! 41,843-node plan more than a thousand operators deep. Compiling and
//! evaluating it recurses past the 2 MiB default thread stack, and a stack
//! overflow aborts the whole server process — so the request must be
//! answered, and the server must keep serving afterwards.

use rc_serve::{Client, Response, Server, ServerConfig};
use rcsafe::Database;

/// The query: `rc_bench::allowed_formula_sized(114, 50)` with the
/// generator's reserved `#` renamed to `_`.
const QUERY: &str = concat!(
    "(((((Q(x, x) ∧ (∀q0 ¬(Q('a', 'a') ∧ (∃q1 R(q0, q1)))) ∧ (P(x) ∨ (S(x, x, x) ",
    "∨ Q(x, x) ∨ R(x, x)) ∧ (∃q0_1 P(q0_1))) ∨ (∃q0_2 ∃q1_3 Q(x, q0_2) ∧ R(q1_3, ",
    "q1_3))) ∧ ((R(x, x) ∨ S(x, x, x)) ∨ P(x) ∨ P('a') ∧ Q(x, x)) ∧ (Q(1, 1) ∨ S(",
    "'a', 1, 1)) ∧ ¬(S(1, 1, 'a') ∧ Q(1, 1)) ∨ P(x)) ∧ P('a') ∧ ¬S(1, 1, 1) ∧ (Q(",
    "x, x) ∧ (∀q0_4 ¬S(q0_4, q0_4, q0_4))) ∨ S(x, x, x) ∧ (∀q0_5 ¬(∃q1_6 ∃q2 S(q0",
    "_5, q1_6, q2)))) ∧ (((∃q0_7 S(x, q0_7, x)) ∨ Q(x, x)) ∨ Q(x, x)) ∨ S(x, x, x",
    ") ∧ (∀q0_8 ¬((∃q1_9 Q(q0_8, q1_9)) ∧ S('a', 'a', 'a') ∧ ¬S('a', 1, 'a')))) ∧",
    " P(x) ∨ R(x, x) ∧ (∀q0_10 ¬(S(q0_10, q0_10, q0_10) ∨ Q(q0_10, q0_10) ∨ Q(q0_",
    "10, q0_10))) ∨ (∃q1_11 R(q1_11, x) ∧ (∀q2_12 ¬P(q2_12))) ∨ (S(x, x, 1) ∨ P(x",
    "))) ∧ ((P(x) ∧ (∀q0_13 ¬R(q0_13, q0_13))) ∧ (∃q1_14 R(q1_14, q1_14)) ∨ ((∃q2",
    "_15 S(q2_15, q2_15, x)) ∨ (∃q3 R(x, q3)) ∨ R(x, x) ∧ (∀q4 ¬R(q4, q4))) ∨ R(x",
    ", x))"
);

/// `rc_bench::bench_db(24, 60, 7)`, one fact per whitespace-separated word.
const FACTS: &str = "
    P(0) P(1) P(2) P(3) P(4) P(5) P(6) P(7) P(8) P(9) P(10) P(11) P(12) P(13) P(14) P(16)
    P(17) P(18) P(19) P(20) P(22) P(23) Q(0,1) Q(0,23) Q(1,13) Q(1,14) Q(1,21) Q(2,21)
    Q(3,20) Q(3,23) Q(4,5) Q(4,7) Q(4,16) Q(4,17) Q(5,12) Q(5,16) Q(5,23) Q(6,6) Q(6,7)
    Q(7,0) Q(8,2) Q(8,9) Q(8,14) Q(9,7) Q(9,8) Q(10,5) Q(10,11) Q(10,12) Q(10,19) Q(10,22)
    Q(11,9) Q(11,10) Q(11,18) Q(11,20) Q(12,6) Q(12,8) Q(12,9) Q(12,15) Q(12,16) Q(12,20)
    Q(13,4) Q(13,22) Q(14,6) Q(14,13) Q(15,4) Q(15,16) Q(16,7) Q(16,19) Q(17,20) Q(18,0)
    Q(18,1) Q(19,11) Q(19,14) Q(19,15) Q(20,6) Q(20,11) Q(22,11) Q(23,0) Q(23,16) R(0,0)
    R(0,17) R(0,18) R(0,19) R(0,21) R(0,23) R(1,2) R(1,9) R(2,20) R(3,1) R(3,6) R(3,18)
    R(4,7) R(4,9) R(4,15) R(4,18) R(4,20) R(5,8) R(5,18) R(6,18) R(6,22) R(7,0) R(7,19)
    R(8,5) R(9,16) R(9,20) R(10,19) R(11,0) R(11,6) R(11,22) R(11,23) R(12,7) R(12,10)
    R(13,13) R(13,17) R(14,0) R(14,5) R(14,13) R(15,5) R(15,15) R(16,14) R(16,16) R(17,10)
    R(18,13) R(19,11) R(19,21) R(19,23) R(21,1) R(21,5) R(22,17) R(22,18) R(22,23) S(0,8,2)
    S(1,0,4) S(1,11,4) S(1,14,12) S(1,17,2) S(2,5,21) S(2,10,23) S(2,23,23) S(3,13,7)
    S(4,1,5) S(4,3,19) S(4,6,15) S(4,12,10) S(4,15,19) S(4,15,22) S(4,20,19) S(5,12,0)
    S(5,15,18) S(5,16,23) S(6,8,3) S(6,16,19) S(6,20,15) S(7,8,21) S(7,19,22) S(9,16,17)
    S(9,20,2) S(10,13,4) S(10,23,19) S(11,4,21) S(11,19,15) S(12,1,10) S(12,5,9) S(13,6,17)
    S(13,7,1) S(13,18,13) S(14,5,12) S(14,6,7) S(14,10,21) S(15,6,2) S(15,16,12) S(16,4,11)
    S(17,17,18) S(18,0,13) S(18,7,3) S(18,7,19) S(19,8,3) S(20,5,22) S(20,11,14) S(20,15,23)
    S(20,20,15) S(21,12,5) S(21,17,5) S(21,23,22) S(22,1,13) S(22,4,11) S(22,14,11)
    S(23,1,16) S(23,12,5) S(23,22,5)
";

/// The query's answer over `FACTS`.
const ANSWER: &str =
    "{(0), (1), (2), (3), (4), (5), (6), (7), (8), (9), (10), (11), (12), (13), (14), \
    (16), (17), (18), (19), (22)}";

#[test]
fn deep_plan_is_answered_and_the_server_keeps_serving() {
    let facts: Vec<&str> = FACTS.split_whitespace().collect();
    let db = Database::from_facts(&facts.join("\n")).unwrap();
    let server = Server::start(db, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.query(QUERY).unwrap() {
        Response::Query(ok) => assert_eq!(ok.relation.to_string(), ANSWER),
        other => panic!("expected an answer, got {other:?}"),
    }
    // The same connection, and a fresh one, still get served.
    assert_eq!(client.ping().unwrap(), Response::Pong);
    let mut other = Client::connect(server.local_addr()).unwrap();
    match other.query("P(x) & Q(x, x)").unwrap() {
        Response::Query(ok) => assert_eq!(ok.relation.to_string(), "{(6)}"),
        other => panic!("expected an answer, got {other:?}"),
    }
}

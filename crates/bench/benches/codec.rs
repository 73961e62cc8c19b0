//! The wire codec on the answers a warm server sends: `rc_relalg::io`'s
//! encoder (`append_tsv`) and decoder (`decode_tsv`), and the whole
//! response (`Response::encode`, `Response::parse`), each over the nine
//! answers of the `warm_serve` hot set on its 10k-row tables (3 to ~30k
//! rows, ~790 kB of TSV in all). One iteration handles all nine.
//!
//! `cargo bench -p rc-bench --bench codec`

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rc_relalg::io::{append_tsv, decode_tsv};
use rc_relalg::{Database, NoCache, Relation};
use rc_safety::pipeline::{serve, CompileOptions, Request};
use rc_serve::{QueryOk, Response, WireStats};
use std::fmt::Write as _;
use std::hint::black_box;

/// Rows of `A` and `B` in the `warm_serve` database.
const ROWS: usize = 10_000;

/// The `warm_serve` hot set (`rcbench/src/data.rs`).
const HOT: [&str; 9] = [
    "A(x, y) & B(y, z)",
    "A(x, y) & !C(x)",
    "exists z. (A(x, y) & B(y, z))",
    "A(x, y) & B(y, z) & !C(z)",
    "C(x) & exists y. A(x, y)",
    "B(y, 5) & A(x, y)",
    "A(x, 7)",
    "C(x) & !exists y. (A(x, y) & B(y, 0))",
    "exists y. (A(x, y) & !C(x))",
];

/// `A(i, i mod k)`, `B(i mod k, i mod 97)`, `C(2i)` for `i < n/2`, with
/// `k = n/3`: the `warm_serve` tables.
fn warm_db() -> Database {
    let key = ROWS / 3;
    let mut facts = String::new();
    for i in 0..ROWS {
        let _ = writeln!(facts, "A({i}, {})", i % key);
        let _ = writeln!(facts, "B({}, {})", i % key, i % 97);
        if i < ROWS / 2 {
            let _ = writeln!(facts, "C({})", 2 * i);
        }
    }
    Database::from_facts(&facts).expect("the tables load")
}

/// Each hot answer as the server sends it on a result hit.
fn hot_responses() -> Vec<Response> {
    let db = warm_db();
    HOT.iter()
        .map(|text| {
            let out = serve(&Request::new(text, CompileOptions::default()), &db, NoCache)
                .expect("hot texts serve");
            Response::Query(QueryOk {
                version: db.version(),
                plan_cached: true,
                result_cached: true,
                result_refreshed: false,
                stats: WireStats::default(),
                columns: out.compiled.columns.iter().map(|v| v.to_string()).collect(),
                relation: out.relation,
                trace_json: None,
                any_infinite: None,
                any_infinite_vars: None,
            })
        })
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let responses = hot_responses();
    let answers: Vec<&Relation> = responses
        .iter()
        .map(|r| match r {
            Response::Query(ok) => &ok.relation,
            _ => unreachable!("hot responses are query answers"),
        })
        .collect();
    let bodies: Vec<String> = answers
        .iter()
        .map(|rel| {
            let mut out = Vec::new();
            append_tsv(rel, &mut out);
            String::from_utf8(out).expect("TSV is UTF-8")
        })
        .collect();
    let payloads: Vec<Vec<u8>> = responses.iter().map(Response::encode).collect();
    let body_bytes: usize = bodies.iter().map(String::len).sum();
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();

    let mut group = c.benchmark_group("codec");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(body_bytes as u64));
    group.bench_function("append_tsv", |b| {
        b.iter(|| {
            for rel in &answers {
                let mut out = Vec::new();
                append_tsv(black_box(rel), &mut out);
                black_box(out);
            }
        })
    });
    group.bench_function("decode_tsv", |b| {
        b.iter(|| {
            for (body, rel) in bodies.iter().zip(&answers) {
                black_box(decode_tsv(black_box(body), rel.arity(), rel.len()).expect("decodes"));
            }
        })
    });
    group.throughput(Throughput::Bytes(payload_bytes as u64));
    group.bench_function("response_encode", |b| {
        b.iter(|| {
            for resp in &responses {
                black_box(black_box(resp).encode());
            }
        })
    });
    group.bench_function("response_parse", |b| {
        b.iter(|| {
            for payload in &payloads {
                black_box(Response::parse(black_box(payload)).expect("parses"));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);

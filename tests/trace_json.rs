//! Strict-parser round-trips for the hand-rolled JSON emitters.
//!
//! The workspace is dependency-free, so `PipelineTrace::to_json` and the
//! bench emitters build JSON by hand. These tests feed their output — and
//! the `TRACE_corpus.json` document `trace_export` writes — through a strict
//! recursive-descent JSON parser that rejects unescaped control
//! characters, bad escapes, trailing garbage, and unbalanced structure.
//! Operator labels embed `Symbol` names, so predicates named with quotes,
//! backslashes, and control characters must survive the trip.

use rcsafe::relalg::trace::json_str;
mod common;

use common::serve_traced;
use rcsafe::relalg::{eval, EvalCtx, Tracer};
use rcsafe::safety::corpus::trace_export;
use rcsafe::safety::pipeline::CompileOptions;
use rcsafe::{Database, RaExpr, Relation, Term};
use std::collections::BTreeMap;

// ------------------------------------------------- a strict JSON parser --

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Parse a complete JSON document, rejecting any trailing non-whitespace.
fn parse_json(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            if map.insert(key.clone(), val).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            // The emitters only \u-escape control chars, so
                            // surrogate pairs never occur; reject them.
                            out.push(
                                char::from_u32(cp)
                                    .ok_or(format!("surrogate \\u{hex} unsupported"))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("invalid escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte {c:#x} in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // at the next boundary is safe).
                    let s = std::str::from_utf8(&self.bytes[self.pos..]).unwrap();
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number {s:?}"))
    }
}

// ---------------------------------------------------------------- tests --

#[test]
fn the_parser_itself_is_strict() {
    assert!(parse_json("{\"a\": [1, true, null, \"x\"]}").is_ok());
    assert!(parse_json("{\"a\": 1} trailing").is_err());
    assert!(
        parse_json("{\"a\": 1, \"a\": 2}").is_err(),
        "duplicate keys"
    );
    assert!(parse_json("\"\u{1}\"").is_err(), "raw control byte");
    assert!(parse_json("\"\\q\"").is_err(), "invalid escape");
    assert!(parse_json("[1, 2").is_err(), "unbalanced");
}

#[test]
fn json_str_round_trips_hostile_strings() {
    for s in [
        "plain",
        "with \"quotes\" and \\backslashes\\",
        "newline\nand\ttab\rand\u{1}control\u{1f}",
        "unicode: λ → ∃∀ ≠",
        "",
        "\\u0041 is not an escape here",
    ] {
        let encoded = json_str(s);
        let parsed = parse_json(&encoded).unwrap_or_else(|e| panic!("{s:?}: {e}"));
        assert_eq!(parsed, Json::Str(s.to_string()), "round-trip of {s:?}");
    }
}

/// A traced pipeline run over predicates with hostile names must export
/// strictly valid JSON, and the labels must survive the round trip.
#[test]
fn traced_eval_with_hostile_symbols_exports_valid_json() {
    let nasty = "P\"quoted\\name\nwith\tcontrols\u{1}";
    let mut db = Database::new();
    let mut rel = Relation::new(1);
    rel.insert(vec![rcsafe::Value::int(1)].into_boxed_slice());
    db.insert_relation(nasty, rel);
    let expr = RaExpr::scan(nasty, vec![Term::var("x")]);

    let mut cx = EvalCtx::default().with_tracer(Tracer::on());
    eval(&expr, &db, &mut cx).unwrap();
    let root = cx.tracer.finish().expect("root span");
    let trace = rcsafe::relalg::PipelineTrace {
        stages: Vec::new(),
        root: Some(root),
    };
    let json = trace.to_json();
    let parsed = parse_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
    let op = parsed.get("eval").unwrap().get("op").unwrap().as_str();
    assert!(op.contains(nasty), "symbol mangled: {op:?}");
}

/// The full traced pipeline (stages + operator tree, `cache_hit` flags
/// included) parses strictly.
#[test]
fn pipeline_trace_json_parses_strictly() {
    let db = Database::from_facts("Part('bolt')\nSupplies('acme', 'bolt')").unwrap();
    let (result, trace) = serve_traced(
        "exists y. forall x. (!Part(x) | Supplies(y, x))",
        &db,
        CompileOptions::default(),
    );
    result.expect("query evaluates");
    let parsed = parse_json(&trace.to_json()).expect("strict parse");
    let stages = parsed.get("stages").unwrap().as_arr();
    assert!(stages.len() >= 6, "all pipeline stages present");
    for stage in stages {
        for key in ["stage", "nodes_in", "nodes_out", "detail", "completed"] {
            assert!(stage.get(key).is_some(), "stage missing {key}");
        }
    }
    fn check_span(span: &Json) {
        for key in ["op", "rows_in", "rows_out", "cache_hit", "completed"] {
            assert!(span.get(key).is_some(), "span missing {key}");
        }
        for c in span.get("children").unwrap().as_arr() {
            check_span(c);
        }
    }
    check_span(parsed.get("eval").unwrap());
}

/// The `TRACE_corpus.json` document `trace_export` writes (the artifact CI
/// uploads) must stay strictly valid — generated here in process, with the
/// binary's default corpus entry and seed.
#[test]
fn committed_trace_corpus_parses_strictly() {
    let text = trace_export("ex9.2-row2", 7).expect("default corpus entry exists");
    let parsed = parse_json(&text).expect("strict parse of TRACE_corpus.json");
    for key in ["corpus_id", "seed", "ok", "trace"] {
        assert!(parsed.get(key).is_some(), "missing {key}");
    }
    assert!(
        !parsed
            .get("trace")
            .unwrap()
            .get("stages")
            .unwrap()
            .as_arr()
            .is_empty(),
        "trace has stages"
    );
}

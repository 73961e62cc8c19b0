//! The wire protocol: length-prefixed frames carrying line-structured
//! requests and responses.
//!
//! ## Framing
//!
//! Every message is one *frame*: a 4-byte big-endian payload length
//! followed by that many payload bytes. Frames make message boundaries
//! explicit on a byte stream, so a reader never scans for terminators and
//! a declared-oversized message is rejected *before* its payload is read
//! ([`FrameError::Oversized`] — the defense against a hostile length
//! prefix). Requests are capped at [`MAX_REQUEST_FRAME`]; responses, which
//! carry whole relations, at the larger [`MAX_RESPONSE_FRAME`].
//! [`write_frame`] hands the length and the payload to the stream in one
//! vectored write, so the peer wakes once per frame, not once for the
//! length and again for the payload. [`write_frame_parts`] does the same
//! for a payload in several pieces, which is how a server sends a
//! memoised answer body behind freshly encoded headers without copying
//! it.
//!
//! ## Payloads
//!
//! Payloads are UTF-8 text with one shape: a first line `rc1 <kind>`, a
//! run of `key value` header lines, a `.` separator line, and a free-form
//! body. The body carries the query text (requests), fact text
//! (mutations), or the answer relation as TSV rows (responses). A request's
//! `partitions` header (a forced partition count) is capped at 64: a larger
//! count is a [`ProtoError::BadHeader`], because each partition costs the
//! server a worker thread and a buffer.
//!
//! Answer rows go through the engine's one TSV codec, so the wire shares
//! [`rc_relalg::io`]'s cell conventions. [`Response::encode`] writes the
//! headers ([`QueryOk::encode_head`]) and then the rows
//! ([`encode_answer`], [`rc_relalg::io::append_tsv`]) into one buffer; the
//! two halves are public so a server can memoise the rows and send them
//! again behind new headers. [`Response::parse`] borrows the body and
//! decodes it in one byte scan straight into a flat row buffer with
//! [`rc_relalg::io::decode_tsv`]. A string cell is single-quoted when it
//! would otherwise read back as an integer, lose whitespace or split a
//! row. Inside quotes `\t`, `\n`, `\r` and `\\` are backslash-escaped, so
//! every value, including one holding a tab or newline, round-trips. The
//! `rows` and `arity` headers are checked against the body, and are not
//! trusted to size allocations beyond what the body can hold. After the
//! last row the body may hold a trace JSON object and nothing else: rows
//! beyond the `rows` count are an error, not a trace.
//!
//! ## Determinism contract
//!
//! Encoding is canonical: a given [`Response`] value always encodes to the
//! same bytes, field order fixed. Combined with the engine's deterministic
//! evaluation and the deterministic trace projection
//! ([`rc_relalg::trace::PipelineTrace::to_json_deterministic`]), a served
//! response is byte-identical to one computed in-process — the property
//! `tests/serve_differential.rs` pins over the whole paper corpus.

use rc_relalg::govern::{BudgetExceeded, Resource, Stage};
use rc_relalg::io::{append_tsv, decode_tsv};
use rc_relalg::{EvalStats, Relation};
use rc_safety::pipeline::PipelineError;
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol magic: first token of every payload's first line.
pub const PROTOCOL_VERSION: &str = "rc1";

/// Largest request frame a server accepts (1 MiB — query and fact text).
pub const MAX_REQUEST_FRAME: u32 = 1 << 20;

/// Largest response frame a client accepts (64 MiB — whole relations).
pub const MAX_RESPONSE_FRAME: u32 = 1 << 26;

// ------------------------------------------------------------- framing --

/// A framing failure while reading from the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the stream mid-frame (after the length prefix or
    /// mid-payload) — a truncated frame.
    Truncated {
        /// Bytes the length prefix promised.
        expected: usize,
        /// Bytes actually received before EOF.
        got: usize,
    },
    /// The length prefix exceeds the reader's cap; the payload was *not*
    /// read (a hostile prefix cannot make the server allocate or stall).
    Oversized {
        /// The declared payload length.
        len: u32,
        /// The reader's cap.
        max: u32,
    },
    /// The read timed out (only with a read timeout configured).
    TimedOut,
    /// Any other I/O failure, stringified.
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: got {got} of {expected} payload bytes")
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: declared {len} bytes, cap is {max}")
            }
            FrameError::TimedOut => write!(f, "read timed out"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn io_frame_error(e: io::Error) -> FrameError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => FrameError::TimedOut,
        _ => FrameError::Io(e.to_string()),
    }
}

/// Write one frame: 4-byte big-endian length, then the payload.
///
/// Length and payload go out in one vectored write, so on a socket they
/// leave together: the reader is not woken for the length alone and then
/// again for the payload. Bytes that the writer does not take are written
/// again until the whole frame is out.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_parts(w, &[payload])
}

/// Write one frame whose payload is the concatenation of `parts`, without
/// copying them into one buffer: the length and every part go out in one
/// vectored write, exactly as [`write_frame`] sends the joined payload.
/// The server sends a memoised answer body this way, behind freshly
/// encoded headers.
pub fn write_frame_parts(w: &mut impl Write, parts: &[&[u8]]) -> io::Result<()> {
    let len = parts.iter().map(|p| p.len()).sum::<usize>();
    let len = u32::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let len = len.to_be_bytes();
    let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(1 + parts.len());
    slices.push(io::IoSlice::new(&len));
    slices.extend(parts.iter().map(|p| io::IoSlice::new(p)));
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => io::IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Read one frame with payloads capped at `max` bytes.
///
/// Returns `Ok(None)` on a clean close (EOF before any length byte) —
/// the peer is done, not broken. EOF anywhere later is a
/// [`FrameError::Truncated`]; a declared length beyond `max` is rejected
/// as [`FrameError::Oversized`] without reading the payload.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(FrameError::Truncated {
                        expected: 4,
                        got: filled,
                    })
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_frame_error(e)),
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    while got < payload.len() {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: len as usize,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_frame_error(e)),
        }
    }
    Ok(Some(payload))
}

// ------------------------------------------------------------ requests --

/// What a request asks the server to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// Compile and evaluate through the shared plan/result cache.
    Query,
    /// Compile and evaluate with tracing on; the response carries the
    /// deterministic trace JSON (the wire form of `explain analyze`).
    Analyze,
    /// Evaluate an *arbitrary* formula via safe-pair translation
    /// ([`rc_safety::anyrc`]): the response carries the finite
    /// (active-domain) answer plus the `any_infinite` /
    /// `any_infinite_vars` headers.
    Any,
    /// Load the body as fact text into the shared database (a new
    /// version; running queries keep their snapshots).
    Mutate,
    /// Liveness probe.
    Ping,
    /// Server/cache/admission statistics.
    Stats,
}

impl Verb {
    fn token(self) -> &'static str {
        match self {
            Verb::Query => "query",
            Verb::Analyze => "analyze",
            Verb::Any => "any",
            Verb::Mutate => "mutate",
            Verb::Ping => "ping",
            Verb::Stats => "stats",
        }
    }

    fn parse(tok: &str) -> Option<Verb> {
        Some(match tok {
            "query" => Verb::Query,
            "analyze" => Verb::Analyze,
            "any" => Verb::Any,
            "mutate" => Verb::Mutate,
            "ping" => Verb::Ping,
            "stats" => Verb::Stats,
            _ => return None,
        })
    }
}

/// Admission priority. High-priority requests are admitted before any
/// waiting normal-priority request (FIFO within each class).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// The default class.
    #[default]
    Normal,
    /// Admitted ahead of every waiting normal request.
    High,
}

/// Per-request resource limits, carried as header lines and armed into a
/// fresh [`rc_relalg::Budget`] server-side (budgets must never be reused:
/// deadlines start at arm time and tuple consumption is cumulative).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireLimits {
    /// Cap on cumulative intermediate tuples.
    pub tuples: Option<u64>,
    /// Cap on formula/plan nodes during rewriting.
    pub nodes: Option<u64>,
    /// Wall-clock deadline in milliseconds.
    pub ms: Option<u64>,
    /// Forced partition count (1 = sequential kernels).
    pub partitions: Option<usize>,
}

/// One parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// What to do.
    pub verb: Verb,
    /// Admission class.
    pub priority: Priority,
    /// Resource limits for this request.
    pub limits: WireLimits,
    /// Run the optimizer (plain queries default on).
    pub optimize: bool,
    /// Attempt equality reduction for wide-sense-evaluable formulas.
    pub eqreduce: bool,
    /// Query text, fact text, or empty (ping/stats).
    pub body: String,
}

impl Request {
    /// A plain query request with default options.
    pub fn query(text: impl Into<String>) -> Request {
        Request {
            verb: Verb::Query,
            priority: Priority::Normal,
            limits: WireLimits::default(),
            optimize: true,
            eqreduce: true,
            body: text.into(),
        }
    }

    /// An `analyze` request (traced evaluation) with default options.
    pub fn analyze(text: impl Into<String>) -> Request {
        Request {
            verb: Verb::Analyze,
            ..Request::query(text)
        }
    }

    /// An `any` request (safe-pair evaluation of an arbitrary formula)
    /// with default options.
    pub fn any(text: impl Into<String>) -> Request {
        Request {
            verb: Verb::Any,
            ..Request::query(text)
        }
    }

    /// A mutation request carrying fact text.
    pub fn mutate(facts: impl Into<String>) -> Request {
        Request {
            verb: Verb::Mutate,
            ..Request::query(facts)
        }
    }

    /// A bodyless request (ping/stats).
    pub fn bare(verb: Verb) -> Request {
        Request {
            verb,
            ..Request::query("")
        }
    }

    /// Canonical encoding (the byte-identity contract's request half:
    /// equal requests encode equal).
    pub fn encode(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{PROTOCOL_VERSION} {}", self.verb.token());
        if self.priority == Priority::High {
            out.push_str("pri high\n");
        }
        if let Some(t) = self.limits.tuples {
            let _ = writeln!(out, "tuples {t}");
        }
        if let Some(n) = self.limits.nodes {
            let _ = writeln!(out, "nodes {n}");
        }
        if let Some(ms) = self.limits.ms {
            let _ = writeln!(out, "ms {ms}");
        }
        if let Some(p) = self.limits.partitions {
            let _ = writeln!(out, "partitions {p}");
        }
        if !self.optimize {
            out.push_str("optimize off\n");
        }
        if !self.eqreduce {
            out.push_str("eqreduce off\n");
        }
        out.push_str(".\n");
        out.push_str(&self.body);
        out.into_bytes()
    }

    /// Parse a request payload; every malformation is a structured
    /// [`ProtoError`] the server answers with (never a panic).
    pub fn parse(payload: &[u8]) -> Result<Request, ProtoError> {
        let (verb_tok, headers, body) = split_payload(payload)?;
        let verb = Verb::parse(verb_tok).ok_or_else(|| ProtoError::BadVerb(verb_tok.into()))?;
        let mut req = Request {
            verb,
            ..Request::query(body)
        };
        for (key, value) in headers {
            match key {
                "pri" => {
                    req.priority = match value {
                        "high" => Priority::High,
                        "normal" => Priority::Normal,
                        other => return Err(ProtoError::BadHeader(format!("pri {other}"))),
                    }
                }
                "tuples" => req.limits.tuples = Some(parse_num(key, value)?),
                "nodes" => req.limits.nodes = Some(parse_num(key, value)?),
                "ms" => req.limits.ms = Some(parse_num(key, value)?),
                "partitions" => {
                    let n = parse_num(key, value)?;
                    if n > MAX_WIRE_PARTITIONS {
                        return Err(ProtoError::BadHeader(format!("{key} {value}")));
                    }
                    req.limits.partitions = Some(n.max(1) as usize)
                }
                "optimize" => req.optimize = parse_on_off(key, value)?,
                "eqreduce" => req.eqreduce = parse_on_off(key, value)?,
                other => return Err(ProtoError::BadHeader(other.into())),
            }
        }
        Ok(req)
    }
}

/// Ceiling on a request's `partitions` header. A forced count sizes the
/// partition buffers and spawns one worker thread per partition in every
/// partitioned kernel, so an unbounded count could exhaust the server's
/// memory or threads and abort it.
const MAX_WIRE_PARTITIONS: u64 = 64;

fn parse_num(key: &str, value: &str) -> Result<u64, ProtoError> {
    value
        .parse::<u64>()
        .map_err(|_| ProtoError::BadHeader(format!("{key} {value}")))
}

fn parse_on_off(key: &str, value: &str) -> Result<bool, ProtoError> {
    match value {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(ProtoError::BadHeader(format!("{key} {other}"))),
    }
}

/// A parsed payload: the first-line verb token, the header pairs, and
/// the body text.
type SplitPayload<'a> = (&'a str, Vec<(&'a str, &'a str)>, &'a str);

/// Split a payload into (first-line verb token, header pairs, body), all
/// borrowed from the payload. Shared by request and response parsing.
fn split_payload(payload: &[u8]) -> Result<SplitPayload<'_>, ProtoError> {
    let text = std::str::from_utf8(payload).map_err(|_| ProtoError::NotUtf8)?;
    let mut lines = text.split('\n');
    let first = lines.next().unwrap_or("");
    let mut first_words = first.splitn(2, ' ');
    let magic = first_words.next().unwrap_or("");
    if magic != PROTOCOL_VERSION {
        return Err(ProtoError::BadMagic(truncate_for_report(first)));
    }
    let verb = first_words.next().unwrap_or("").trim();
    let mut headers = Vec::new();
    let mut body_at = None;
    let mut consumed = first.len() + 1;
    for line in lines {
        if line == "." {
            body_at = Some(consumed + 2);
            break;
        }
        consumed += line.len() + 1;
        let mut words = line.splitn(2, ' ');
        let key = words.next().unwrap_or("");
        let value = words.next().unwrap_or("").trim_end_matches('\r');
        headers.push((key, value));
    }
    let body_at = body_at.ok_or(ProtoError::MissingBody)?;
    let body = text.get(body_at..).unwrap_or("");
    Ok((verb, headers, body))
}

fn truncate_for_report(s: &str) -> String {
    const LIMIT: usize = 64;
    if s.len() <= LIMIT {
        s.to_string()
    } else {
        let mut end = LIMIT;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

/// A malformed payload (the protocol layer's own error taxonomy; the
/// server answers these with an `err proto` response).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The payload is not UTF-8.
    NotUtf8,
    /// The first line does not start with the protocol magic.
    BadMagic(String),
    /// Unknown verb / response kind token.
    BadVerb(String),
    /// A header line failed to parse.
    BadHeader(String),
    /// The `.` body separator never appeared.
    MissingBody,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::NotUtf8 => write!(f, "payload is not UTF-8"),
            ProtoError::BadMagic(l) => write!(f, "bad magic line: {l:?}"),
            ProtoError::BadVerb(v) => write!(f, "unknown verb: {v:?}"),
            ProtoError::BadHeader(h) => write!(f, "bad header: {h:?}"),
            ProtoError::MissingBody => write!(f, "missing `.` body separator"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ----------------------------------------------------------- responses --

/// Evaluation counters on the wire — a faithful mirror of [`EvalStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Operator nodes evaluated.
    pub operators: u64,
    /// Total tuples produced (including intermediates).
    pub tuples_produced: u64,
    /// Largest intermediate relation observed.
    pub max_intermediate: u64,
    /// Cooperative budget checkpoints passed.
    pub budget_checks: u64,
    /// Subplans served from the evaluation's memo table
    /// ([`rc_relalg::EvalStats::memo_hits`]).
    pub memo_hits: u64,
}

impl From<&EvalStats> for WireStats {
    fn from(s: &EvalStats) -> WireStats {
        WireStats {
            operators: s.operators,
            tuples_produced: s.tuples_produced,
            max_intermediate: s.max_intermediate as u64,
            budget_checks: s.budget_checks,
            memo_hits: s.memo_hits,
        }
    }
}

/// A successful query/analyze response.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOk {
    /// The database version the query ran against (its MVCC-lite
    /// snapshot identity).
    pub version: u64,
    /// Was compilation skipped via the shared plan cache?
    pub plan_cached: bool,
    /// Was evaluation skipped via the shared result cache?
    pub result_cached: bool,
    /// Was the cached result *advanced* through the delta journal
    /// (incremental view maintenance, DESIGN.md §14) rather than served
    /// verbatim? Always implies `result_cached`; false on a verbatim hit
    /// or a full (re-)evaluation.
    pub result_refreshed: bool,
    /// Evaluation counters.
    pub stats: WireStats,
    /// Answer column names, in order (empty for boolean queries).
    pub columns: Vec<String>,
    /// The answer relation (canonical row order, so encoding is
    /// deterministic).
    pub relation: Relation,
    /// Deterministic trace JSON (`analyze` only).
    pub trace_json: Option<String>,
    /// Safe-pair infiniteness flag (`any` only): does the answer under
    /// an infinite domain contain tuples outside the active domain?
    /// `None` on ordinary query/analyze responses, so their encodings
    /// are unchanged.
    pub any_infinite: Option<bool>,
    /// Safe-pair per-column infiniteness mask (`any` only), parallel to
    /// `columns`.
    pub any_infinite_vars: Option<Vec<bool>>,
}

impl QueryOk {
    /// Append the response's first line and headers, through the `.`
    /// separator: everything [`Response::encode`] writes before the answer
    /// rows. A server holding the rows already encoded
    /// ([`encode_answer`]) sends these bytes in front of them.
    pub fn encode_head(&self, out: &mut Vec<u8>) {
        let _ = writeln!(out, "{PROTOCOL_VERSION} ok query");
        let _ = writeln!(out, "version {}", self.version);
        let _ = writeln!(out, "plan_cached {}", u8::from(self.plan_cached));
        let _ = writeln!(out, "result_cached {}", u8::from(self.result_cached));
        let _ = writeln!(out, "result_refreshed {}", u8::from(self.result_refreshed));
        let _ = writeln!(out, "operators {}", self.stats.operators);
        let _ = writeln!(out, "tuples_produced {}", self.stats.tuples_produced);
        let _ = writeln!(out, "max_intermediate {}", self.stats.max_intermediate);
        let _ = writeln!(out, "budget_checks {}", self.stats.budget_checks);
        let _ = writeln!(out, "memo_hits {}", self.stats.memo_hits);
        if let Some(inf) = self.any_infinite {
            let _ = writeln!(out, "any_infinite {}", u8::from(inf));
        }
        if let Some(mask) = &self.any_infinite_vars {
            let bits = if mask.is_empty() {
                "-".to_string()
            } else {
                mask.iter()
                    .map(|&b| if b { "1" } else { "0" })
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let _ = writeln!(out, "any_infinite_vars {bits}");
        }
        let cols = if self.columns.is_empty() {
            "-".to_string()
        } else {
            self.columns.join(",")
        };
        let _ = writeln!(out, "columns {cols}");
        let _ = writeln!(out, "arity {}", self.relation.arity());
        let _ = writeln!(out, "rows {}", self.relation.len());
        out.extend_from_slice(b".\n");
    }
}

/// Append an answer's rows as a query response body carries them: TSV rows
/// in canonical order, and nothing for a nullary answer, whose `rows`
/// header is the whole answer.
pub fn encode_answer(relation: &Relation, out: &mut Vec<u8>) {
    if relation.arity() > 0 {
        append_tsv(relation, out);
    }
}

/// A structured error response; `kind` names the failure class and the
/// budget fields survive serialization so a client can reconstruct the
/// exact [`BudgetExceeded`] attribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Failure class: `parse`, `notsafe`, `budget`, `ranf`, `translate`,
    /// `eval`, `load`, `proto`, `overloaded`, or `shutdown`.
    pub kind: String,
    /// The pipeline stage attributed (pipeline failures only).
    pub stage: Option<String>,
    /// The tripped resource token (budget failures only):
    /// `wallclock`/`tuples`/`nodes`/`cancelled`.
    pub resource: Option<String>,
    /// The configured limit (budget failures only).
    pub limit: Option<u64>,
    /// Consumption at the trip (budget failures only).
    pub used: Option<u64>,
    /// Human-readable message.
    pub message: String,
}

fn resource_token(r: Resource) -> &'static str {
    match r {
        Resource::WallClock => "wallclock",
        Resource::Tuples => "tuples",
        Resource::Nodes => "nodes",
        Resource::Cancelled => "cancelled",
    }
}

fn parse_resource(tok: &str) -> Option<Resource> {
    Some(match tok {
        "wallclock" => Resource::WallClock,
        "tuples" => Resource::Tuples,
        "nodes" => Resource::Nodes,
        "cancelled" => Resource::Cancelled,
        _ => return None,
    })
}

fn parse_stage(tok: &str) -> Option<Stage> {
    Some(match tok {
        "parse" => Stage::Parse,
        "classify" => Stage::Classify,
        "genify" => Stage::Genify,
        "ranf" => Stage::Ranf,
        "translate" => Stage::Translate,
        "optimize" => Stage::Optimize,
        "eval" => Stage::Eval,
        "maintain" => Stage::Maintain,
        _ => return None,
    })
}

impl WireError {
    /// The wire form of a pipeline failure: kind from the variant, stage
    /// attribution always, budget details when a resource tripped.
    pub fn from_pipeline(e: &PipelineError) -> WireError {
        let kind = match e {
            PipelineError::Parse(_) => "parse",
            PipelineError::NotSafe(_) => "notsafe",
            PipelineError::Budget(_) => "budget",
            PipelineError::Ranf(_) => "ranf",
            PipelineError::Translate(_) => "translate",
            PipelineError::Eval(_) => "eval",
        };
        let budget = e.budget();
        WireError {
            kind: kind.to_string(),
            stage: Some(e.stage().to_string()),
            resource: budget.map(|b| resource_token(b.resource).to_string()),
            limit: budget.map(|b| b.limit),
            used: budget.map(|b| b.used),
            message: e.to_string(),
        }
    }

    /// A protocol-layer error response.
    pub fn proto(e: &ProtoError) -> WireError {
        WireError {
            kind: "proto".to_string(),
            stage: None,
            resource: None,
            limit: None,
            used: None,
            message: e.to_string(),
        }
    }

    /// A server-condition error (e.g. `overloaded`, `shutdown`, `load`).
    pub fn server(kind: &str, message: impl Into<String>) -> WireError {
        WireError {
            kind: kind.to_string(),
            stage: None,
            resource: None,
            limit: None,
            used: None,
            message: message.into(),
        }
    }

    /// Reconstruct the structured [`BudgetExceeded`] this error carried,
    /// if it was a budget trip — the round-trip the differential suite
    /// asserts ("stage attribution survives serialization").
    pub fn to_budget(&self) -> Option<BudgetExceeded> {
        if self.kind != "budget" {
            return None;
        }
        Some(BudgetExceeded {
            stage: parse_stage(self.stage.as_deref()?)?,
            resource: parse_resource(self.resource.as_deref()?)?,
            limit: self.limit?,
            used: self.used?,
        })
    }
}

/// Net insert/delete counts for one table, as carried in a mutate
/// response body (`<table> +<inserted> -<deleted>` per line, sorted by
/// table name).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaCount {
    /// The table (predicate) name.
    pub table: String,
    /// Rows actually inserted (absent before, present after).
    pub inserted: u64,
    /// Rows actually deleted (present before, absent after).
    pub deleted: u64,
}

/// One parsed response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A served query/analyze answer.
    Query(QueryOk),
    /// A mutation applied; carries the new database version and the net
    /// per-table delta actually applied (empty for a no-op mutation,
    /// which also leaves the version unchanged).
    Mutate {
        /// The database version after the mutation.
        version: u64,
        /// Net per-table insert/delete counts, sorted by table name. A
        /// duplicate insert or an absent-fact delete nets out to nothing
        /// and so never appears here.
        delta: Vec<DeltaCount>,
    },
    /// Ping reply.
    Pong,
    /// Server statistics as ordered key/value pairs.
    Stats(Vec<(String, String)>),
    /// A structured failure.
    Error(WireError),
}

impl Response {
    /// Canonical encoding: equal responses encode to equal bytes (fixed
    /// field order, canonical relation row order, deterministic trace
    /// projection).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Query(ok) => {
                ok.encode_head(&mut out);
                encode_answer(&ok.relation, &mut out);
                if let Some(trace) = &ok.trace_json {
                    out.extend_from_slice(trace.as_bytes());
                    out.push(b'\n');
                }
            }
            Response::Mutate { version, delta } => {
                let _ = writeln!(out, "{PROTOCOL_VERSION} ok mutate");
                let _ = writeln!(out, "version {version}");
                out.extend_from_slice(b".\n");
                // Body: one `<table> +<inserted> -<deleted>` line per
                // table with a nonzero net change, in the (sorted) order
                // the server reported.
                for d in delta {
                    let _ = writeln!(out, "{} +{} -{}", d.table, d.inserted, d.deleted);
                }
            }
            Response::Pong => {
                let _ = writeln!(out, "{PROTOCOL_VERSION} ok pong");
                out.extend_from_slice(b".\n");
            }
            Response::Stats(pairs) => {
                let _ = writeln!(out, "{PROTOCOL_VERSION} ok stats");
                out.extend_from_slice(b".\n");
                for (k, v) in pairs {
                    let _ = writeln!(out, "{k} {v}");
                }
            }
            Response::Error(e) => {
                let _ = writeln!(out, "{PROTOCOL_VERSION} err {}", e.kind);
                if let Some(stage) = &e.stage {
                    let _ = writeln!(out, "stage {stage}");
                }
                if let Some(resource) = &e.resource {
                    let _ = writeln!(out, "resource {resource}");
                }
                if let Some(limit) = e.limit {
                    let _ = writeln!(out, "limit {limit}");
                }
                if let Some(used) = e.used {
                    let _ = writeln!(out, "used {used}");
                }
                out.extend_from_slice(b".\n");
                out.extend_from_slice(e.message.as_bytes());
            }
        }
        out
    }

    /// Parse a response payload.
    pub fn parse(payload: &[u8]) -> Result<Response, ProtoError> {
        let (kind_tok, headers, body) = split_payload(payload)?;
        let mut words = kind_tok.splitn(2, ' ');
        let status = words.next().unwrap_or("");
        let kind = words.next().unwrap_or("").trim();
        match status {
            "ok" => match kind {
                "query" => {
                    let (mut ok, rest) = parse_query_ok(&headers, body).ok_or_else(|| {
                        ProtoError::BadHeader("incomplete query response".to_string())
                    })?;
                    ok.trace_json = parse_trace(rest)?;
                    Ok(Response::Query(ok))
                }
                "mutate" => {
                    let version = header_num(&headers, "version")
                        .ok_or_else(|| ProtoError::BadHeader("version".to_string()))?;
                    let delta = body
                        .lines()
                        .filter(|l| !l.is_empty())
                        .map(parse_delta_count)
                        .collect::<Option<Vec<DeltaCount>>>()
                        .ok_or_else(|| ProtoError::BadHeader("delta summary".to_string()))?;
                    Ok(Response::Mutate { version, delta })
                }
                "pong" => Ok(Response::Pong),
                "stats" => Ok(Response::Stats(
                    body.lines()
                        .filter(|l| !l.is_empty())
                        .map(|l| {
                            let mut w = l.splitn(2, ' ');
                            (
                                w.next().unwrap_or("").to_string(),
                                w.next().unwrap_or("").to_string(),
                            )
                        })
                        .collect(),
                )),
                other => Err(ProtoError::BadVerb(other.into())),
            },
            "err" => {
                let e = WireError {
                    kind: kind.to_string(),
                    stage: header_str(&headers, "stage"),
                    resource: header_str(&headers, "resource"),
                    limit: header_num(&headers, "limit"),
                    used: header_num(&headers, "used"),
                    message: body.to_string(),
                };
                Ok(Response::Error(e))
            }
            other => Err(ProtoError::BadVerb(other.into())),
        }
    }
}

fn header_str(headers: &[(&str, &str)], key: &str) -> Option<String> {
    headers
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.to_string())
}

fn header_num(headers: &[(&str, &str)], key: &str) -> Option<u64> {
    header_str(headers, key)?.parse().ok()
}

/// Parse one `<table> +<inserted> -<deleted>` mutate-body line.
fn parse_delta_count(line: &str) -> Option<DeltaCount> {
    let mut parts = line.rsplitn(3, ' ');
    let deleted = parts.next()?.strip_prefix('-')?.parse().ok()?;
    let inserted = parts.next()?.strip_prefix('+')?.parse().ok()?;
    let table = parts.next()?.to_string();
    Some(DeltaCount {
        table,
        inserted,
        deleted,
    })
}

/// Parse a query response's headers and its `rows` answer rows. Returns the
/// response without its trace, and the body after the last row.
fn parse_query_ok<'a>(headers: &[(&str, &str)], body: &'a str) -> Option<(QueryOk, &'a str)> {
    let version = header_num(headers, "version")?;
    let plan_cached = header_num(headers, "plan_cached")? != 0;
    let result_cached = header_num(headers, "result_cached")? != 0;
    let result_refreshed = header_num(headers, "result_refreshed")? != 0;
    let stats = WireStats {
        operators: header_num(headers, "operators")?,
        tuples_produced: header_num(headers, "tuples_produced")?,
        max_intermediate: header_num(headers, "max_intermediate")?,
        budget_checks: header_num(headers, "budget_checks")?,
        memo_hits: header_num(headers, "memo_hits")?,
    };
    let cols_raw = header_str(headers, "columns")?;
    let columns: Vec<String> = if cols_raw == "-" {
        Vec::new()
    } else {
        cols_raw.split(',').map(|s| s.to_string()).collect()
    };
    let arity = usize::try_from(header_num(headers, "arity")?).ok()?;
    let rows = usize::try_from(header_num(headers, "rows")?).ok()?;
    // A nullary answer has no body rows: `rows` alone carries it.
    let (relation, rest) = match arity {
        0 if rows > 0 => (Relation::unit(), body),
        0 => (Relation::empty_nullary(), body),
        _ => decode_tsv(body, arity, rows)?,
    };
    let any_infinite = header_str(headers, "any_infinite").map(|v| v != "0");
    let any_infinite_vars = header_str(headers, "any_infinite_vars").map(|raw| {
        if raw == "-" {
            Vec::new()
        } else {
            raw.split(',').map(|b| b == "1").collect()
        }
    });
    let ok = QueryOk {
        version,
        plan_cached,
        result_cached,
        result_refreshed,
        stats,
        columns,
        relation,
        trace_json: None,
        any_infinite,
        any_infinite_vars,
    };
    Some((ok, rest))
}

/// The trace JSON after a query response's last row: nothing (blank lines
/// at most), or one JSON object. Anything else, such as rows beyond the
/// `rows` header's count, is an error rather than a trace.
fn parse_trace(rest: &str) -> Result<Option<String>, ProtoError> {
    let trace = rest.lines().collect::<Vec<_>>().join("\n");
    if trace.is_empty() {
        Ok(None)
    } else if trace.starts_with('{') && trace.ends_with('}') {
        Ok(Some(trace))
    } else {
        Err(ProtoError::BadHeader(
            "rows: the body holds more than the declared rows and a trace".to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_relalg::tuple;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    /// A writer that takes at most `cap` bytes per call and counts calls.
    struct Trickle {
        out: Vec<u8>,
        cap: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[io::IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut took = 0;
            for b in bufs {
                let n = b.len().min(self.cap - took);
                self.out.extend_from_slice(&b[..n]);
                took += n;
            }
            Ok(took)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frame_is_one_write_and_survives_short_writes() {
        let payload: Vec<u8> = (0..=255).collect();
        let mut want = Vec::new();
        want.extend_from_slice(&256u32.to_be_bytes());
        want.extend_from_slice(&payload);
        // A writer that takes everything sees the length and the payload
        // in one call.
        let mut w = Trickle {
            out: Vec::new(),
            cap: usize::MAX,
            calls: 0,
        };
        write_frame(&mut w, &payload).unwrap();
        assert_eq!((w.out, w.calls), (want.clone(), 1));
        // Short writes, including ones that end inside the length, resume
        // where the writer stopped.
        for cap in [1, 3, 4, 5, 100] {
            let mut w = Trickle {
                out: Vec::new(),
                cap,
                calls: 0,
            };
            write_frame(&mut w, &payload).unwrap();
            write_frame(&mut w, b"").unwrap();
            let mut r = w.out.as_slice();
            assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), payload);
            assert_eq!(read_frame(&mut r, 1024).unwrap().unwrap(), b"");
            assert!(r.is_empty(), "cap {cap}");
        }
        // A writer that takes nothing is an error, not a spin.
        let mut w = Trickle {
            out: Vec::new(),
            cap: 0,
            calls: 0,
        };
        let err = write_frame(&mut w, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn oversized_frame_rejected_without_reading_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        // No payload at all: the cap check must fire before any read.
        let err = read_frame(&mut buf.as_slice(), 1024).unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversized {
                len: u32::MAX,
                max: 1024
            }
        );
    }

    #[test]
    fn truncated_frames_are_structured_errors() {
        // EOF mid-length.
        let err = read_frame(&mut &[0u8, 0][..], 1024).unwrap_err();
        assert_eq!(
            err,
            FrameError::Truncated {
                expected: 4,
                got: 2
            }
        );
        // EOF mid-payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&8u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let err = read_frame(&mut buf.as_slice(), 1024).unwrap_err();
        assert_eq!(
            err,
            FrameError::Truncated {
                expected: 8,
                got: 3
            }
        );
    }

    #[test]
    fn request_roundtrip_all_fields() {
        let req = Request {
            verb: Verb::Analyze,
            priority: Priority::High,
            limits: WireLimits {
                tuples: Some(10),
                nodes: Some(20),
                ms: Some(30),
                partitions: Some(4),
            },
            optimize: false,
            eqreduce: false,
            body: "P(x) & Q(x, y)\nsecond line".to_string(),
        };
        assert_eq!(Request::parse(&req.encode()).unwrap(), req);
        let plain = Request::query("P(x)");
        assert_eq!(Request::parse(&plain.encode()).unwrap(), plain);
    }

    #[test]
    fn planner_header_is_no_longer_accepted() {
        // No planner is selectable: `planner` is an unknown header.
        assert_eq!(
            Request::parse(b"rc1 query\nplanner cost\n.\nP(x)"),
            Err(ProtoError::BadHeader("planner".into()))
        );
    }

    #[test]
    fn request_rejects_malformed_payloads() {
        assert_eq!(Request::parse(&[0xff, 0xfe]), Err(ProtoError::NotUtf8));
        assert!(matches!(
            Request::parse(b"http GET /\n.\n"),
            Err(ProtoError::BadMagic(_))
        ));
        assert!(matches!(
            Request::parse(b"rc1 frobnicate\n.\n"),
            Err(ProtoError::BadVerb(_))
        ));
        assert!(matches!(
            Request::parse(b"rc1 query\ntuples lots\n.\n"),
            Err(ProtoError::BadHeader(_))
        ));
        assert_eq!(
            Request::parse(b"rc1 query\nno separator"),
            Err(ProtoError::MissingBody)
        );
    }

    #[test]
    fn query_response_roundtrip() {
        let resp = Response::Query(QueryOk {
            version: 42,
            plan_cached: true,
            result_cached: false,
            result_refreshed: false,
            stats: WireStats {
                operators: 3,
                tuples_produced: 7,
                max_intermediate: 5,
                budget_checks: 4,
                memo_hits: 1,
            },
            columns: vec!["x".to_string(), "y".to_string()],
            relation: Relation::from_rows(2, [tuple([1i64, 2]), tuple([3i64, 4])]),
            trace_json: Some("{\"stages\":[],\"eval\":null}".to_string()),
            any_infinite: None,
            any_infinite_vars: None,
        });
        assert_eq!(Response::parse(&resp.encode()).unwrap(), resp);
    }

    /// A query response with the given `arity`/`rows` headers and body.
    fn query_payload(arity: u64, rows: u64, body: &str) -> Vec<u8> {
        format!(
            "rc1 ok query\nversion 1\nplan_cached 0\nresult_cached 0\n\
             result_refreshed 0\noperators 0\ntuples_produced 0\n\
             max_intermediate 0\nbudget_checks 0\nmemo_hits 0\ncolumns x,y\n\
             arity {arity}\nrows {rows}\n.\n{body}"
        )
        .into_bytes()
    }

    #[test]
    fn hostile_row_and_arity_headers_are_errors_not_allocations() {
        // Pre-sizing from these headers alone would ask for terabytes.
        for (arity, rows) in [(2, 100_000_000_000), (1 << 40, 1), (1 << 40, 1 << 40)] {
            assert_eq!(
                Response::parse(&query_payload(arity, rows, "1\t2\n")),
                Err(ProtoError::BadHeader("incomplete query response".into())),
                "arity {arity}, rows {rows}"
            );
        }
    }

    #[test]
    fn malformed_query_bodies_are_errors_never_panics() {
        let incomplete = Err(ProtoError::BadHeader("incomplete query response".into()));
        for (body, rows) in [
            ("1\n", 1),       // short row
            ("1\t2\t3\n", 1), // long row
            ("1\t2\t\n", 1),  // trailing tab
            ("1\t2\n", 2),    // fewer rows than `rows`
            ("", 1),          // no rows at all
        ] {
            assert_eq!(
                Response::parse(&query_payload(2, rows, body)),
                incomplete,
                "{body:?}"
            );
        }
        // Rows beyond the `rows` count are an error, not a trace.
        for (arity, body) in [(1, "1\n2\n3\n"), (1, "1\n2\n{}\n"), (2, "1\t2\n3\t4")] {
            assert!(
                matches!(
                    Response::parse(&query_payload(arity, 1, body)),
                    Err(ProtoError::BadHeader(_))
                ),
                "{body:?}"
            );
        }
        let mut not_utf8 = query_payload(2, 1, "1\t");
        not_utf8.extend_from_slice(b"\xff\xfe\n");
        assert_eq!(Response::parse(&not_utf8), Err(ProtoError::NotUtf8));
        // A missing final newline and CRLF row ends decode as usual.
        let want = Relation::from_rows(2, [tuple([1i64, 2]), tuple([3i64, 4])]);
        for body in ["1\t2\n3\t4", "1\t2\r\n3\t4\r\n"] {
            match Response::parse(&query_payload(2, 2, body)) {
                Ok(Response::Query(ok)) => {
                    assert_eq!(ok.relation, want, "{body:?}");
                    assert_eq!(ok.trace_json, None, "{body:?}");
                }
                other => panic!("{body:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn any_response_roundtrips_infiniteness_headers() {
        for (inf, mask) in [
            (true, vec![true, false]),
            (false, vec![false, false]),
            (false, Vec::new()),
        ] {
            let resp = Response::Query(QueryOk {
                version: 3,
                plan_cached: false,
                result_cached: false,
                result_refreshed: false,
                stats: WireStats::default(),
                columns: mask
                    .iter()
                    .enumerate()
                    .map(|(i, _)| format!("v{i}"))
                    .collect(),
                relation: if mask.is_empty() {
                    Relation::unit()
                } else {
                    Relation::from_rows(mask.len(), [tuple([1i64, 2])])
                },
                trace_json: None,
                any_infinite: Some(inf),
                any_infinite_vars: Some(mask),
            });
            assert_eq!(Response::parse(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn plain_query_encoding_has_no_any_headers() {
        let resp = Response::Query(QueryOk {
            version: 1,
            plan_cached: false,
            result_cached: false,
            result_refreshed: false,
            stats: WireStats::default(),
            columns: Vec::new(),
            relation: Relation::unit(),
            trace_json: None,
            any_infinite: None,
            any_infinite_vars: None,
        });
        let text = String::from_utf8(resp.encode()).unwrap();
        assert!(!text.contains("any_infinite"));
    }

    #[test]
    fn boolean_response_roundtrip() {
        for rel in [Relation::unit(), Relation::empty_nullary()] {
            let resp = Response::Query(QueryOk {
                version: 1,
                plan_cached: false,
                result_cached: false,
                result_refreshed: false,
                stats: WireStats::default(),
                columns: Vec::new(),
                relation: rel,
                trace_json: None,
                any_infinite: None,
                any_infinite_vars: None,
            });
            assert_eq!(Response::parse(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn budget_error_attribution_roundtrips() {
        let b = BudgetExceeded {
            stage: Stage::Eval,
            resource: Resource::Tuples,
            limit: 100,
            used: 105,
        };
        let wire = WireError::from_pipeline(&PipelineError::Budget(b));
        let enc = Response::Error(wire).encode();
        match Response::parse(&enc).unwrap() {
            Response::Error(e) => {
                assert_eq!(e.to_budget(), Some(b));
                assert_eq!(e.kind, "budget");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn stats_and_control_responses_roundtrip() {
        let stats = Response::Stats(vec![
            ("version".to_string(), "9".to_string()),
            ("plan_hits".to_string(), "3".to_string()),
        ]);
        assert_eq!(Response::parse(&stats.encode()).unwrap(), stats);
        assert_eq!(
            Response::parse(&Response::Pong.encode()).unwrap(),
            Response::Pong
        );
        let m = Response::Mutate {
            version: 7,
            delta: vec![],
        };
        assert_eq!(Response::parse(&m.encode()).unwrap(), m);
        let m = Response::Mutate {
            version: 9,
            delta: vec![
                DeltaCount {
                    table: "P".to_string(),
                    inserted: 3,
                    deleted: 1,
                },
                DeltaCount {
                    table: "Some Table".to_string(),
                    inserted: 0,
                    deleted: 2,
                },
            ],
        };
        assert_eq!(Response::parse(&m.encode()).unwrap(), m);
    }
}

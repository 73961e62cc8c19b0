//! The query server: accept → admit → snapshot → serve.
//!
//! ## Dataflow
//!
//! One accept-loop thread owns the listener. Each accepted connection is
//! handed to its own thread (thread-per-connection; requests on one
//! connection are served in order). When thread spawn is denied — by the
//! configured [`FaultInjector`] or by the OS — the server *degrades
//! instead of failing*: the connection is served inline on the accept
//! thread, sequentially, with identical responses (the fault suite pins
//! this fallback).
//!
//! Per request the connection thread:
//!
//! 1. **admits** through the shared [`Admission`] controller (bounded
//!    queue, high-priority first; overload is an immediate structured
//!    `err overloaded`, never a stalled accept loop);
//! 2. **snapshots** the database: a brief read-lock to clone the current
//!    `Arc<Database>` — O(1), never blocked by other queries, and the
//!    query runs against exactly this version for its whole life
//!    (MVCC-lite: concurrent mutation swaps the shared pointer and bumps
//!    the version; it never touches a snapshot in use);
//! 3. **serves** through the process-wide [`PlanCache`] via
//!    [`serve`] — the *same* code path in-process callers use, which is
//!    why served responses are byte-identical to local serving
//!    (`tests/serve_differential.rs`);
//! 4. **writes** the response frame. A plain `query` result hit sends the
//!    result entry's memoised body ([`PlanCache::result_body`]) behind
//!    freshly encoded headers, in one vectored write: the rows are
//!    encoded once per cached answer, not once per hit. Every other
//!    response is encoded whole. The `stats` verb counts both kinds
//!    (`bodies_reused`, `bodies_encoded`).
//!
//! Mutations serialize on a dedicated mutate lock and do the expensive
//! part — cloning the database (cheap: relations are `Arc`'d flat
//! buffers) and loading facts — *outside* the write lock; the write lock
//! is held only for the pointer swap. Readers therefore never wait on a
//! mutation in progress.

use crate::admit::{Admission, AdmissionConfig, AdmitError};
use crate::protocol::{
    encode_answer, read_frame, write_frame, write_frame_parts, DeltaCount, FrameError, QueryOk,
    Request, Response, Verb, WireError, WireLimits, WireStats, MAX_REQUEST_FRAME,
};
use rc_relalg::{Budget, Database, FaultInjector, NoCache, PlanCache};
use rc_safety::pipeline::{self, serve, CompileOptions, Compiled, Mode};
use std::cell::RefCell;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Stack size of the threads that serve requests. Compilation and
/// evaluation recurse over the formula and the plan; a one-kilobyte query
/// text can compile to a plan over a thousand operators deep, which
/// overflows the 2 MiB default before the evaluator's own stack
/// segmentation applies. Only the pages actually touched are committed.
const SERVE_STACK_BYTES: usize = 16 << 20;

/// Server construction options.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Admission limits.
    pub admission: AdmissionConfig,
    /// Per-connection read timeout (`None` = block indefinitely).
    pub read_timeout: Option<Duration>,
    /// Fault injector attached to every request budget *and* consulted
    /// for thread-spawn denial (test hook).
    pub fault: Option<FaultInjector>,
    /// Request frame cap (responses are the client's concern).
    pub max_request_frame: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            admission: AdmissionConfig::default(),
            read_timeout: None,
            fault: None,
            max_request_frame: MAX_REQUEST_FRAME,
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    /// The current database, swapped atomically by mutations. Queries
    /// clone the `Arc` under a brief read lock and keep their snapshot
    /// for the whole evaluation.
    db: RwLock<Arc<Database>>,
    /// Serializes mutators so clone+load happens outside the write lock.
    mutate_lock: Mutex<()>,
    /// The process-wide plan/result cache, shared by every client.
    cache: PlanCache<Compiled>,
    admission: Admission,
    fault: Option<FaultInjector>,
    max_request_frame: u32,
    shutdown: AtomicBool,
    // Monotonic counters, exposed via the `stats` verb.
    served: AtomicU64,
    protocol_errors: AtomicU64,
    inline_served: AtomicU64,
    mutations: AtomicU64,
    /// Query responses that sent their result entry's memoised body.
    bodies_reused: AtomicU64,
    /// Query responses that encoded their answer rows.
    bodies_encoded: AtomicU64,
}

/// A running query server. Dropping it shuts it down.
pub struct Server {
    state: Arc<Shared>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    /// Live connections: a stream clone, kept so shutdown can unblock
    /// reads, and the serving thread to join (`None` while a connection is
    /// served inline on the accept thread).
    conns: Conns,
}

type Conns = Arc<Mutex<Vec<(TcpStream, Option<JoinHandle<()>>)>>>;

impl Server {
    /// Bind and start serving `db`.
    ///
    /// Starting with `db.clone()` of a database you keep preserves the
    /// version stamp and shares the statistics store (clones share both
    /// until a mutation), so served responses line up with local serving
    /// against the original — the differential suite's setup.
    pub fn start(db: Database, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(Shared {
            db: RwLock::new(Arc::new(db)),
            mutate_lock: Mutex::new(()),
            cache: PlanCache::new(),
            admission: Admission::new(cfg.admission),
            fault: cfg.fault.clone(),
            max_request_frame: cfg.max_request_frame,
            shutdown: AtomicBool::new(false),
            served: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            inline_served: AtomicU64::new(0),
            mutations: AtomicU64::new(0),
            bodies_reused: AtomicU64::new(0),
            bodies_encoded: AtomicU64::new(0),
        });
        let conns: Conns = Arc::default();
        let accept_state = Arc::clone(&state);
        let accept_conns = Arc::clone(&conns);
        let read_timeout = cfg.read_timeout;
        let accept_handle = thread::Builder::new()
            .name("rc-serve-accept".to_string())
            .stack_size(SERVE_STACK_BYTES)
            .spawn(move || accept_loop(&listener, &accept_state, &accept_conns, read_timeout))?;
        Ok(Server {
            state,
            local_addr,
            accept_handle: Some(accept_handle),
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests served so far (any verb, including error responses).
    pub fn served(&self) -> u64 {
        self.state.served.load(Ordering::Relaxed)
    }

    /// Malformed frames/payloads answered with `err proto` so far.
    pub fn protocol_errors(&self) -> u64 {
        self.state.protocol_errors.load(Ordering::Relaxed)
    }

    /// Connections served inline on the accept thread because spawning a
    /// connection thread was denied or failed.
    pub fn inline_served(&self) -> u64 {
        self.state.inline_served.load(Ordering::Relaxed)
    }

    /// Stop accepting, wake all waiters and readers, and join every
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.state.admission.close();
        // Unblock the accept loop: it checks the flag after each accept.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Unblock connection reads, then join their threads.
        let conns: Vec<_> = lock(&self.conns).drain(..).collect();
        for (conn, _) in &conns {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        for h in conns.into_iter().filter_map(|(_, h)| h) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<Shared>,
    conns: &Conns,
    read_timeout: Option<Duration>,
) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = stream.set_read_timeout(read_timeout);
        let _ = stream.set_nodelay(true);
        // Forget connections that have closed since the last accept: only
        // live ones need unblocking at shutdown. Inline entries are always
        // finished here — inline serving runs on this thread.
        lock(conns).retain(|(_, h)| h.as_ref().is_some_and(|h| !h.is_finished()));
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        // Spawn denial (fault injector or OS) degrades to inline,
        // sequential serving on the accept thread: later clients wait
        // behind this one instead of being dropped.
        let spawn_denied = state
            .fault
            .as_ref()
            .is_some_and(|f| !Budget::new().with_fault_injector(f.clone()).spawn_allowed());
        let spawned = match (spawn_denied, stream.try_clone()) {
            (false, Ok(conn)) => {
                let conn_state = Arc::clone(state);
                thread::Builder::new()
                    .name("rc-serve-conn".to_string())
                    .stack_size(SERVE_STACK_BYTES)
                    .spawn(move || serve_connection(&conn_state, conn))
                    .ok()
            }
            _ => None,
        };
        let inline = spawned.is_none();
        lock(conns).push((clone, spawned));
        if inline {
            state.inline_served.fetch_add(1, Ordering::Relaxed);
            serve_connection(state, stream);
        }
    }
}

/// Serve one connection until clean close, fatal protocol error, or
/// shutdown.
fn serve_connection(state: &Arc<Shared>, mut stream: TcpStream) {
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let payload = match read_frame(&mut stream, state.max_request_frame) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close
            Err(e) => {
                // Structured error, then close: after a framing fault the
                // stream position is untrustworthy.
                state.protocol_errors.fetch_add(1, Ordering::Relaxed);
                if !matches!(e, FrameError::Io(_)) {
                    let resp = Response::Error(WireError::server("proto", e.to_string()));
                    let _ = write_frame(&mut stream, &resp.encode());
                }
                return;
            }
        };
        let reply = match Request::parse(&payload) {
            Ok(req) => dispatch(state, &req),
            Err(e) => {
                // The frame itself was sound, so the stream is still in
                // sync; answer and keep serving.
                state.protocol_errors.fetch_add(1, Ordering::Relaxed);
                Response::Error(WireError::proto(&e)).into()
            }
        };
        state.served.fetch_add(1, Ordering::Relaxed);
        let written = match (&reply.response, &reply.body) {
            (Response::Query(ok), Some(body)) => {
                let mut head = Vec::new();
                ok.encode_head(&mut head);
                write_frame_parts(&mut stream, &[&head, body])
            }
            (response, _) => write_frame(&mut stream, &response.encode()),
        };
        if written.is_err() {
            return; // client went away mid-response
        }
    }
}

/// A response, and for a query answered by a plain result hit, the
/// answer rows already encoded: the result entry's memoised body, which
/// goes out behind the response's headers without being copied.
struct Reply {
    response: Response,
    body: Option<Arc<[u8]>>,
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply {
            response,
            body: None,
        }
    }
}

fn dispatch(state: &Arc<Shared>, req: &Request) -> Reply {
    if state.shutdown.load(Ordering::SeqCst) {
        return Response::Error(WireError::server("shutdown", "server is shutting down")).into();
    }
    match req.verb {
        Verb::Ping => Response::Pong.into(),
        Verb::Stats => stats_response(state).into(),
        Verb::Mutate => mutate(state, &req.body).into(),
        Verb::Query | Verb::Analyze | Verb::Any => {
            // Admission first: the permit covers compile + eval, and its
            // Drop releases the slot on *every* exit path below.
            let _permit = match state.admission.admit(req.priority) {
                Ok(p) => p,
                Err(AdmitError::Overloaded) => {
                    return Response::Error(WireError::server(
                        "overloaded",
                        "admission queue is full; retry later",
                    ))
                    .into();
                }
                Err(AdmitError::Closed) => {
                    return Response::Error(WireError::server(
                        "shutdown",
                        "server is shutting down",
                    ))
                    .into();
                }
            };
            let snapshot: Arc<Database> = {
                let guard = state.db.read().unwrap_or_else(|p| p.into_inner());
                Arc::clone(&guard)
            };
            let opts = request_options(req, state.fault.as_ref());
            serve_query(state, req, &snapshot, opts)
        }
    }
}

/// Build [`CompileOptions`] from wire headers. A fresh [`Budget`] per
/// request: deadlines arm at construction and tuple counters are
/// cumulative, so budgets must never be shared across requests.
fn request_options(req: &Request, fault: Option<&FaultInjector>) -> CompileOptions {
    let WireLimits {
        tuples,
        nodes,
        ms,
        partitions,
    } = req.limits;
    let mut budget = Budget::new();
    if let Some(t) = tuples {
        budget = budget.with_max_tuples(t);
    }
    if let Some(n) = nodes {
        budget = budget.with_max_nodes(n);
    }
    if let Some(p) = partitions {
        budget = budget.with_partitions(p);
    }
    if let Some(f) = fault {
        budget = budget.with_fault_injector(f.clone());
    }
    if let Some(ms) = ms {
        // Arm the deadline last so construction cost is not on the clock.
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    CompileOptions {
        equality_reduction: req.eqreduce,
        optimize: req.optimize,
        budget,
        ..CompileOptions::default()
    }
}

fn serve_query(
    state: &Arc<Shared>,
    req: &Request,
    snapshot: &Database,
    opts: CompileOptions,
) -> Reply {
    // `analyze` is traced and uncached: the same serve as local `explain
    // analyze`, including the statistics feedback harvest (the snapshot
    // shares the live database's stats store until a mutation, so
    // observed cardinalities benefit later compilations exactly like
    // in-process analyze runs do). Safe-pair serving ([`rc_safety::anyrc`])
    // keys both legs under the request body with salted option keys.
    let trace = RefCell::default();
    let request = pipeline::Request {
        text: &req.body,
        opts,
        mode: if req.verb == Verb::Any {
            Mode::Any
        } else {
            Mode::Safe
        },
        trace: (req.verb == Verb::Analyze).then_some(&trace),
    };
    let served = match request.trace {
        Some(_) => serve(&request, snapshot, NoCache),
        None => serve(&request, snapshot, &state.cache),
    };
    match served {
        Ok(out) => {
            let any = request.mode == Mode::Any;
            // A plain hit serves the very relation the result entry holds,
            // so the entry's memoised body is its rows. Misses, refreshes,
            // `analyze` and `any` encode theirs.
            let body = (req.verb == Verb::Query && out.result_cached && !out.result_refreshed)
                .then(|| {
                    state.cache.result_body(out.plan_hash, &out.relation, || {
                        let mut rows = Vec::new();
                        encode_answer(&out.relation, &mut rows);
                        rows
                    })
                });
            let counter = match body {
                Some((_, true)) => &state.bodies_reused,
                _ => &state.bodies_encoded,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            let response = Response::Query(QueryOk {
                version: snapshot.version(),
                plan_cached: out.plan_cached,
                result_cached: out.result_cached,
                result_refreshed: out.result_refreshed,
                stats: WireStats::from(&out.stats),
                columns: out.compiled.columns.iter().map(|v| v.to_string()).collect(),
                trace_json: request.trace.map(|t| t.borrow().to_json_deterministic()),
                any_infinite: any.then(|| out.maybe_infinite()),
                any_infinite_vars: any.then_some(out.per_variable),
                relation: out.relation,
            });
            Reply {
                response,
                body: body.map(|(body, _)| body),
            }
        }
        Err(e) => Response::Error(WireError::from_pipeline(&e)).into(),
    }
}

fn mutate(state: &Arc<Shared>, facts: &str) -> Response {
    // Serialize mutators; the expensive clone+apply runs outside the write
    // lock so readers snapshotting concurrently never wait on it.
    let _mutating = state.mutate_lock.lock().unwrap_or_else(|p| p.into_inner());
    let base: Arc<Database> = {
        let guard = state.db.read().unwrap_or_else(|p| p.into_inner());
        Arc::clone(&guard)
    };
    let mut next = (*base).clone();
    // Delta application (rather than a bulk load) records the net change
    // in the clone-shared delta journal, which is what lets the cached
    // serving path *refresh* warm results across this mutation instead of
    // recomputing them. A net no-op leaves the version (and so every
    // cached result) untouched.
    let delta = match next.apply_delta(facts) {
        Ok(d) => d,
        Err(e) => return Response::Error(WireError::server("load", e.to_string())),
    };
    let version = next.version();
    {
        let mut guard = state.db.write().unwrap_or_else(|p| p.into_inner());
        *guard = Arc::new(next);
    }
    state.mutations.fetch_add(1, Ordering::Relaxed);
    Response::Mutate {
        version,
        delta: delta
            .summary()
            .into_iter()
            .map(|(table, inserted, deleted)| DeltaCount {
                table,
                inserted,
                deleted,
            })
            .collect(),
    }
}

fn stats_response(state: &Arc<Shared>) -> Response {
    let version = {
        let guard = state.db.read().unwrap_or_else(|p| p.into_inner());
        guard.version()
    };
    let cache = state.cache.stats();
    let adm = state.admission.stats();
    let pairs = vec![
        ("version".to_string(), version.to_string()),
        (
            "served".to_string(),
            state.served.load(Ordering::Relaxed).to_string(),
        ),
        (
            "mutations".to_string(),
            state.mutations.load(Ordering::Relaxed).to_string(),
        ),
        (
            "protocol_errors".to_string(),
            state.protocol_errors.load(Ordering::Relaxed).to_string(),
        ),
        (
            "inline_served".to_string(),
            state.inline_served.load(Ordering::Relaxed).to_string(),
        ),
        ("plan_hits".to_string(), cache.plan_hits.to_string()),
        ("plan_misses".to_string(), cache.plan_misses.to_string()),
        ("result_hits".to_string(), cache.result_hits.to_string()),
        ("result_misses".to_string(), cache.result_misses.to_string()),
        ("stale_results".to_string(), cache.stale_results.to_string()),
        (
            "refreshed_results".to_string(),
            cache.refreshed_results.to_string(),
        ),
        (
            "evicted_results".to_string(),
            cache.evicted_results.to_string(),
        ),
        (
            "bodies_reused".to_string(),
            state.bodies_reused.load(Ordering::Relaxed).to_string(),
        ),
        (
            "bodies_encoded".to_string(),
            state.bodies_encoded.load(Ordering::Relaxed).to_string(),
        ),
        ("plans".to_string(), state.cache.plan_count().to_string()),
        ("views".to_string(), state.cache.view_count().to_string()),
        (
            "results".to_string(),
            state.cache.result_count().to_string(),
        ),
        ("active".to_string(), adm.active.to_string()),
        ("queued".to_string(), adm.queued.to_string()),
        ("admitted".to_string(), adm.admitted.to_string()),
        ("rejected".to_string(), adm.rejected.to_string()),
        ("peak_active".to_string(), adm.peak_active.to_string()),
        ("peak_queued".to_string(), adm.peak_queued.to_string()),
    ];
    Response::Stats(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    #[test]
    fn closed_connections_are_not_retained() {
        let server = Server::start(Database::new(), ServerConfig::default()).unwrap();
        for _ in 0..200 {
            let mut client = Client::connect(server.local_addr()).unwrap();
            assert_eq!(client.ping().unwrap(), Response::Pong);
        }
        // Each accept forgets the connections that have closed, so only the
        // last few (whose threads may still be winding down) remain.
        let retained = lock(&server.conns).len();
        assert!(
            retained <= 8,
            "{retained} of 200 closed connections retained"
        );
    }
}

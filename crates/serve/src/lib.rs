//! # rc-serve
//!
//! A concurrent query-serving layer over the `rcsafe` pipeline: many
//! clients, one database, one process-wide plan cache.
//!
//! The paper's pipeline (classify → genify → ranf → translate → eval) is
//! a pure function of `(query text, database version, statistics epoch)`.
//! This crate exploits that purity to serve it concurrently without
//! changing its semantics:
//!
//! * **MVCC-lite snapshots** — the server holds the current
//!   [`rc_relalg::Database`] behind an `RwLock<Arc<_>>`. A query briefly
//!   read-locks to clone the `Arc` (O(1)) and then runs entirely against
//!   that snapshot; a mutation clones the database (cheap — relations are
//!   `Arc`'d flat buffers), loads facts, and swaps the pointer. Readers
//!   never block mutators and vice versa; every response names the
//!   version it ran against.
//! * **Shared plan cache** — all connections serve through one
//!   [`rc_relalg::PlanCache`] via [`rc_safety::pipeline::serve`]: a
//!   formula compiled
//!   for any client is warm for every client, and result entries are
//!   invalidated by version exactly as in-process serving does.
//! * **Admission control** — a bounded two-class priority queue
//!   ([`admit`]) caps concurrent query execution; overload is answered
//!   immediately with a structured error, and the RAII permit guarantees
//!   disconnects release their slot.
//! * **A deterministic wire protocol** — [`protocol`]: length-prefixed
//!   frames, canonical encodings, structured errors (including
//!   [`rc_relalg::govern::BudgetExceeded`] attribution). Served responses
//!   are byte-identical to in-process serving; the repo's differential
//!   suite pins this over the whole paper corpus.
//!
//! ## Quick start
//!
//! ```
//! use rc_relalg::Database;
//! use rc_serve::{Client, Response, Server, ServerConfig};
//!
//! let db = Database::from_facts("P(1)\nP(2)\nQ(1)").unwrap();
//! let server = Server::start(db, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! match client.query("P(x) & !Q(x)").unwrap() {
//!     Response::Query(ok) => assert_eq!(ok.relation.len(), 1),
//!     other => panic!("unexpected response: {other:?}"),
//! }
//! ```

#![deny(missing_docs)]

pub mod admit;
pub mod client;
pub mod protocol;
pub mod server;

pub use admit::{Admission, AdmissionConfig, AdmissionStats, AdmitError, Permit};
pub use client::{Client, ClientError};
pub use protocol::{
    encode_answer, read_frame, write_frame, write_frame_parts, DeltaCount, FrameError, Priority,
    ProtoError, QueryOk, Request, Response, Verb, WireError, WireLimits, WireStats,
    MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};

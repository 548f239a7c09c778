//! # netloc-service
//!
//! A concurrent HTTP/1.1 analysis server over the netloc pipeline — the
//! paper's trace → traffic matrix → topology replay chain, packaged so
//! many callers can query it without recomputing anything twice.
//!
//! Hand-rolled on `std::net` (the vendor tree is offline; no tokio/hyper):
//! an acceptor thread feeds a bounded [`queue::JobQueue`] drained by a
//! worker pool. Every request takes one path: [`http::read_request`]
//! frames it (`Content-Length` or chunked, into one body buffer) and
//! [`handlers::handle`] answers it. Two levels of shared state make
//! repeated queries cheap:
//!
//! 1. [`cache::TopoCache`] — one CSR [`netloc_topology::RouteTable`] per
//!    distinct canonical topology spec, built single-flight and shared
//!    across workers via `Arc<OnceLock<_>>`;
//! 2. [`cache::ResultCache`] — content-addressed response bytes keyed by
//!    `digest(trace)|topology|mapping` in canonical spelling, LRU-bounded
//!    by size, returning byte-identical JSON on a hit.
//!
//! Robustness is part of the contract: full queue → `429` +
//! `Retry-After` from the acceptor itself, oversized bodies → `413`,
//! malformed JSON → `400` with a byte offset, malformed traces → `400`
//! with the codec's own position info, and shutdown (API, signal, or
//! programmatic) drains every accepted request before the threads join.
//!
//! Durability and admission control layer on top of that:
//!
//! * [`store::DiskStore`] — a persistent content-addressed store under
//!   `--data-dir`. Results, serialized route tables, and registered
//!   trace uploads survive restarts as digest-named, digest-verified
//!   files; anything corrupt on disk reads as a miss and is quarantined,
//!   never trusted and never a panic. The in-memory caches become
//!   read-through/write-behind layers over it, and `POST /v1/traces`
//!   lets clients upload a trace once and reference it by digest.
//! * [`limit::RateLimiter`] — per-client token buckets in front of the
//!   queue, answering `429` + `Retry-After` on the acceptor thread.
//! * [`http::InflightBytes`] + progress deadlines — concurrent large
//!   uploads, with either framing, are bounded in total bytes, and
//!   slow-loris clients are shed with `408` instead of pinning workers.
//!
//! ```no_run
//! use netloc_service::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! println!("listening on http://{}", server.addr());
//! server.shutdown(); // drains in-flight work, joins all threads
//! ```
//!
//! Endpoints: `GET /v1/healthz`, `GET /v1/statusz`, `POST /v1/analyze`,
//! `POST /v1/sweep`, `POST /v1/stats`, `POST /v1/metrics`,
//! `POST /v1/traces`, `POST /v1/jobs` + `GET`/`DELETE /v1/jobs/{id}`
//! (resumable sweep jobs, see [`jobs`]), `POST /v1/shutdown`. See
//! `DESIGN.md` §8 for the wire format.

#![warn(missing_docs)]

pub mod cache;
pub mod handlers;
pub mod http;
pub mod jobs;
pub mod limit;
pub mod payload;
pub mod queue;
pub mod server;
pub mod store;

pub use server::{signal, AppState, RunningServer, Server, ServerConfig, Work};
pub use store::DiskStore;

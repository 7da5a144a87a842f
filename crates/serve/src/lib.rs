//! `xqjg-serve` — the query service layer over the join-graph-isolation
//! engine.
//!
//! A long-lived server owns one relational catalog (a prepared
//! [`xqjg_core::Processor`] behind an `Arc`) plus the shared cross-query
//! caches, and serves many concurrent sessions over a single TCP port that
//! speaks both a minimal line-oriented wire protocol and HTTP/1.1 (the
//! first request line decides which).  The per-query memory budget of the
//! execution layer is promoted into a *global admission controller*
//! ([`xqjg_store::AdmissionController`]): when the aggregate demand of the
//! active sessions would oversubscribe `XQJG_GLOBAL_BUDGET`, new queries
//! are queued (bounded FIFO, `XQJG_QUEUE_TIMEOUT`) and admitted with a
//! *reduced* grant that forces them to spill rather than fail.
//!
//! * [`engine`] — the [`Engine`]: shared processor + admission + session
//!   registry; the one execution path (`QueryRequest` underneath).
//! * [`session`] — per-session pinned [`xqjg_store::ExecConfig`] knobs,
//!   evaluation mode and cancellation token.
//! * [`response`] — the single typed [`Response`] enum every entry point
//!   returns, with line-protocol and JSON renderings.
//! * [`protocol`] — wire dispatch: `QUERY` / `EXPLAIN` / `SET` / `MODE` /
//!   `STATS` / `CANCEL` / `ID` / `PING` / `QUIT`, plus the HTTP routes
//!   `GET /health`, `GET /stats`, `POST /query`, `POST /explain`.
//! * [`server`] — the thread-pooled TCP [`Server`] with clean shutdown
//!   (drains the admission controller).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod protocol;
pub mod response;
pub mod server;
pub mod session;

pub use engine::{Engine, ServerStats};
pub use response::{QueryResult, Response, ServeError};
pub use server::{Server, DEFAULT_WORKERS};
pub use session::Session;

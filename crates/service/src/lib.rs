//! `chop-service` — CHOP as a long-running partitioning service.
//!
//! The `chop serve` subcommand (and any embedder of [`Server`]) exposes
//! the core [`chop_core::Session`] workflow over TCP: clients open named
//! sessions, explore them, move nodes between partitions and read
//! statistics, all over a newline-delimited JSON protocol
//! ([`protocol`], version [`protocol::PROTOCOL_VERSION`]).
//!
//! What the service adds over one-shot `chop check` runs:
//!
//! * **Concurrent named sessions** — a [`manager::SessionManager`] keeps
//!   every open session; explorations on different connections run in
//!   parallel on a bounded worker pool.
//! * **A shared prediction cache** — all sessions feed one
//!   [`chop_core::PredictionCache`], so opening the same spec twice (or
//!   re-exploring after a `repartition`) reuses prior BAD predictions
//!   across sessions and connections.
//! * **Readiness-driven serving** — one epoll reactor thread ([`net`])
//!   owns every connection's I/O, so tens of thousands of mostly-idle
//!   clients cost registrations, not threads; `--max-connections` and
//!   `--idle-timeout-ms` bound fd and buffer usage.
//! * **Typed backpressure and fault isolation** — past `--max-inflight`
//!   explorations clients get a `busy` response; a client that stops
//!   reading has its output queue capped and its reads paused; a
//!   panicking request becomes one `internal` error reply, never a dead
//!   server.
//! * **Graceful drain** — the `shutdown` request stops the accept loop,
//!   lets in-flight work finish and exits cleanly.
//! * **Warm-standby replication and failover** — `--peer` ships every
//!   committed journal record to a standby ([`replication`]), and
//!   `chop router` ([`router`]) consistent-hashes sessions over backend
//!   pairs, promoting the standby when a primary dies.
//!
//! The wire format is hand-rolled JSON ([`json`]) because this workspace
//! builds offline against a no-op `serde` stub.

#![deny(missing_docs)]
// `net::sys` holds the epoll/eventfd FFI (the approved dependency list
// has no `libc`); it opts back in with a module-level allow. Everything
// else stays `unsafe`-free.
#![deny(unsafe_code)]

#[cfg(feature = "fault-inject")]
pub mod chaos;
pub mod client;
pub mod journal;
pub mod json;
pub mod manager;
#[deny(clippy::unwrap_used)]
pub mod net;
mod pool;
pub mod protocol;
pub mod replication;
pub mod router;
pub mod server;

pub use client::{Client, ClientError, RetryPolicy, DEFAULT_CONNECT_TIMEOUT};
pub use journal::{Journal, JournalEntry, JournalScan};
pub use manager::{
    build_session, chip_count, memory_blocks, optimize_spec, resolve_node, RecoveryReport,
    SessionManager,
};
pub use net::ShutdownGate;
pub use protocol::{
    BudgetEnvelope, ErrorKind, ExploreParams, MoveSummary, OpenParams, OptimizeParams,
    OptimizeSummary, Request, Response, RunSummary, ServiceError, PROTOCOL_VERSION,
};
pub use replication::{ReplEvent, Replicator};
pub use router::{BackendSpec, HashRing, Router, RouterConfig};
pub use server::{ServeConfig, Server};

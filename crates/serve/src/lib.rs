//! `fgdram-serve`: a persistent multi-tenant simulation job server.
//!
//! Runs FGDRAM suite jobs as a long-lived daemon over a hand-rolled,
//! std-only HTTP/1.1 transport (the workspace keeps its zero registry
//! dependencies). A job is a [`fgdram_core::suite::SuiteSpec`] — the same
//! parameters `fgdram_sim suite` takes on the command line — and the
//! served final report is byte-identical to the CLI's output at any
//! worker count, because both front ends share the cell runner and
//! renderer in `fgdram_core::suite`.
//!
//! The layers, bottom up:
//!
//! - [`http`] — minimal HTTP/1.1: content-length and chunked framing,
//!   one request per connection, server and client halves sharing one
//!   head reader.
//! - [`error`] — the typed rejection/failure taxonomy: one error type,
//!   [`WireError`], and one table of wire `code` strings, HTTP statuses
//!   and `fgdram-client` exit codes, with [`fgdram_core::SimError`]
//!   mapped through unchanged.
//! - [`spec`] — the `key=value` wire job spec.
//! - [`spool`] — per-cell checkpoint files (exact-bit report encoding),
//!   so a killed daemon resumes without recomputing finished cells; the
//!   loader restores each job's [`spool::JobState`], the one lifecycle
//!   type the server keeps.
//! - [`server`] — admission control, overload shedding,
//!   deficit-round-robin fair-share scheduling, the worker pool, and the
//!   HTTP routes.
//! - [`chaos`] — seeded wire/disk fault injection (`--chaos`), the
//!   serving-layer sibling of `--faults`: every defense above ships with
//!   the deterministic attack that exercises it. One table names the
//!   eight fault classes; wire faults wrap the socket in one stream type,
//!   except `garble`, which flips bytes of the parsed request body.
//!
//! ## Wire protocol
//!
//! | Route | Meaning |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /stats` | counters: jobs, cells, rejects, per-tenant queues |
//! | `POST /jobs` | submit a job spec (`X-Tenant` header names the tenant) |
//! | `GET /jobs/{id}` | job status |
//! | `GET /jobs/{id}/report` | long-poll; the final suite report (text) |
//! | `GET /jobs/{id}/telemetry` | chunked JSONL stream, input-cell order |
//! | `DELETE /jobs/{id}` | cancel (queued cells dropped) |
//!
//! Errors are JSON bodies
//! `{"error":{"code":...,"exit_code":N,"message":...}}` with typed HTTP
//! statuses — see [`error::WireError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod error;
pub mod http;
pub mod server;
pub mod spec;
pub mod spool;

pub use chaos::{Chaos, ChaosSpec};
pub use error::WireError;
pub use server::{ServeConfig, Server};

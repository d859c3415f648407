//! `mbu-serve` — the long-running injection service substrate.
//!
//! A hand-rolled HTTP/1.1 server (the workspace build must resolve fully
//! offline, so no hyper/axum/tokio), a generic [`jobs::JobManager`] that
//! runs submitted jobs over a bounded worker pool with durable per-job
//! state directories, and a [`daemon`] that routes HTTP requests onto the
//! manager:
//!
//! * `POST /sweeps` — submit a job (validated by the [`jobs::JobBackend`])
//! * `GET /sweeps` / `GET /sweeps/{id}` — queue listing and job status
//! * `GET /sweeps/{id}/events` — live chunked event stream
//! * `POST /sweeps/{id}/cancel` — cooperative cancellation
//! * `GET /sweeps/{id}/{results,store,figures/N}` — backend artifacts
//!
//! The crate is deliberately generic: it knows nothing about fault
//! injection. The experiment harness (`mbu-bench`) plugs in a
//! [`jobs::JobBackend`] that validates sweep specs, drives the distributed
//! fabric, and serves merged result artifacts. Job state (spec, outcome)
//! is persisted under the manager's state directory, so a restarted daemon
//! re-adopts finished jobs and re-queues interrupted ones.

// `deny` (not `forbid`) so the one tiny, documented exception — the
// SIGTERM latch in [`signal`] — can opt in with a scoped `allow`.
#![deny(unsafe_code)]

pub mod daemon;
pub mod http;
pub mod jobs;
#[allow(unsafe_code)]
pub mod signal;
#[cfg(test)]
mod test_support;

pub use daemon::{serve, serve_with, HealthFn, ServeOptions};
pub use http::{Request, Response};
pub use jobs::{
    ApiError, Artifact, JobBackend, JobContext, JobManager, JobOutcome, JobState, Submission,
};

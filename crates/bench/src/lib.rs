//! Experiment harness regenerating every table and figure of the paper.
//!
//! The `repro` binary (`cargo run -p mbu-bench --release --bin repro -- <id>`)
//! drives the functions in this crate; the `tinybench`-based benches
//! (behind the `bench-harness` feature) reuse the same building blocks for
//! performance measurements and ablations.
//!
//! Campaign sweeps are crash-safe: [`Experiments::run_sweep`] skips
//! campaigns the [`ResultStore`] already holds and flushes each finished
//! campaign to the checkpoint CSV immediately, so an interrupted `measure`
//! resumes where it stopped.
//!
//! Environment knobs:
//!
//! * `MBU_RUNS` — injections per (component, cardinality, workload);
//!   default 150, paper scale 2000.
//! * `MBU_SEED` — campaign seed (default `0x6EF1_2019`).
//! * `MBU_THREADS` — worker threads (default: available parallelism).
//! * `MBU_WORKLOADS` — comma-separated subset of workload names.
//! * `MBU_ADAPTIVE_MARGIN` — target error margin (e.g. `0.0288`); enables
//!   margin-driven adaptive early stopping per campaign.
//! * `MBU_DEADLINE_SECS` — wall-clock budget for a whole sweep; on expiry
//!   the sweep stops cleanly with partial (checkpointed) results.
//! * `MBU_SNAPSHOTS` — `on` enables checkpoint/restore fast-forward
//!   injection (golden-run snapshots, nearest-checkpoint restore, early
//!   `Masked` reconvergence classification); classifications stay
//!   bit-identical to the plain path.
//! * `MBU_SNAPSHOT_INTERVAL` — snapshot interval in cycles (default:
//!   auto-tuned from each workload's fault-free execution time).
//! * `MBU_SNAPSHOT_MEM_MB` — hard cap on retained snapshot memory; over
//!   the cap the store thins itself to sparser intervals.
//! * `MBU_GOLDEN_CACHE` — `off` disables the sweep-wide golden-artifact
//!   cache (default on: one golden run + snapshot store per workload,
//!   shared across every campaign targeting it). Results are bit-identical
//!   either way; bypassing logs a sweep-level anomaly.
//! * `MBU_EQUIV` — `on` extends `repro exhaustive` past the small
//!   structures: the big data arrays (L1D/L1I/L2) are covered by
//!   class-weighted stratified sampling (draws proportional to
//!   live-interval mass, the dead stratum credited `Masked` exactly).
//! * `MBU_EXHAUSTIVE_MAX_CLASSES` — hard cap on live equivalence classes
//!   per exhaustive campaign (default 4 000 000); a larger partition is
//!   rejected with a typed error, never silently subsampled.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod equivbench;
pub mod experiments;
pub mod fabric;
pub mod io;
pub mod protocol;
pub mod service;
pub mod snapbench;
pub mod store;
pub mod supervisor;
#[cfg(test)]
mod test_support;
#[cfg(feature = "bench-harness")]
pub mod tinybench;

pub use chaos::{ChaosIo, ChaosPlan, WorkerChaos};
pub use equivbench::{EquivbenchReport, EquivbenchRow};
pub use experiments::{
    ComponentData, ConfigError, EquivReport, Experiments, SweepControl, SweepReport,
    EXHAUSTIVE_COMPONENTS, STRATIFIED_COMPONENTS,
};
pub use fabric::{plan_units, MergeReport, ShardAudit};
pub use io::{RealIo, RetryIo, RetryPolicy, StoreIo};
pub use protocol::{ExpSpec, Json, ProtocolError, ToSupervisor, ToWorker};
pub use service::{run_daemon, ServeConfig, SweepBackend};
pub use snapbench::{SnapbenchReport, SnapbenchRow, SweepbenchReport};
pub use store::{
    AnalyticalRow, AnalyticalStore, LoadAudit, QuarantinedRow, ResultStore, RowDefect, ShardRow,
    ShardStore, StoreError, StoreVersion,
};
pub use supervisor::{
    FabricConfig, FabricError, FabricEvent, FabricReport, Supervisor, SweepOptions, WorkerPool,
};

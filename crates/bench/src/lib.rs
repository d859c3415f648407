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
//! Every `MBU_*` environment knob is declared once, with its default and
//! validation, in [`config`]; `repro --help` lists them all.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod config;
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
pub use config::{Config, ConfigError};
pub use equivbench::{EquivbenchReport, EquivbenchRow};
pub use experiments::{
    ComponentData, EquivReport, Experiments, SweepControl, SweepReport, EXHAUSTIVE_COMPONENTS,
    STRATIFIED_COMPONENTS,
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

//! Statistical fault-injection campaigns (paper §III.A).
//!
//! A campaign fixes a (workload, component, fault cardinality) triple and
//! performs `runs` independent injection simulations:
//!
//! 1. one fault-free **golden run** establishes the reference output and the
//!    fault-free execution time `T`;
//! 2. each injection run draws a random injection cycle in `[0, T)` and a
//!    random fault mask, simulates up to the injection point, applies the
//!    bit flips, and continues until exit, crash, assert, or the timeout
//!    limit of `4 × T` (paper §III.C);
//! 3. outcomes are classified and aggregated into [`ClassCounts`].
//!
//! Runs are distributed over worker threads; results are deterministic for
//! a given seed regardless of thread count, because each run's RNG is
//! seeded from `(campaign seed, run index)`.
//!
//! # Resilience
//!
//! Long sweeps must survive individual bad runs, so the engine isolates
//! every injection run:
//!
//! * **Panic isolation** — each run executes under
//!   [`std::panic::catch_unwind`]. A panic inside the simulator is exactly
//!   what a hardware assert models (an internal invariant broken by the
//!   injected corruption), so a panicking run classifies as
//!   [`FaultEffect::Assert`] and the campaign keeps going. The panic payload
//!   and the run's seed are preserved in the campaign's [`AnomalyLog`] so
//!   the run can be replayed under a debugger.
//! * **Wall-clock deadline** — each run gets a deadline of
//!   [`CampaignConfig::run_wall_budget`] from its start, which the
//!   simulator polls every 1,024 cycles; a run stopped there classifies as
//!   [`FaultEffect::Timeout`] and is logged as an anomaly. No extra thread
//!   watches the runs, so a batch ends the moment its last run does.
//! * **Typed errors** — configuration problems and failed golden runs are
//!   reported as [`CampaignError`] through [`Campaign::try_new`] /
//!   [`Campaign::try_run`]; the panicking [`Campaign::new`] / \
//!   [`Campaign::run`] remain as conveniences for tests and examples.

use crate::classify::{classify, ClassCounts, FaultEffect};
use crate::error::CampaignError;
use crate::mask::{ClusterSpec, FaultMask, MaskGenerator};
use crate::stats;
use crate::tech::component_bits;
use mbu_ace::LivenessOracle;
use mbu_cpu::{CoreConfig, HwComponent, RunEnd, Simulator};
use mbu_isa::Program;
use mbu_snap::{GoldenArtifacts, SnapshotSpec, SnapshotStats, SnapshotStore};
use mbu_sram::{BitCoord, Geometry, Restorable};
use mbu_workloads::Workload;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

/// Which SRAM array of the target component to inject into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InjectionTarget {
    /// The component's storage/data array — the paper's target (Table VIII
    /// bit counts).
    #[default]
    DataArray,
    /// A cache's tag array (tag + valid + dirty bits) — the ablation target
    /// for tag-protection studies; only valid for the three caches.
    TagArray,
}

impl fmt::Display for InjectionTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectionTarget::DataArray => f.write_str("data array"),
            InjectionTarget::TagArray => f.write_str("tag array"),
        }
    }
}

/// A per-run hook: an arbitrary (possibly stateful) closure invoked with
/// the run index at the start of each injection run, inside the isolation
/// boundary. Cloning shares the underlying closure.
#[derive(Clone)]
pub struct RunHook(pub Arc<dyn Fn(usize) + Send + Sync>);

impl RunHook {
    /// Wraps a closure as a hook.
    pub fn new(hook: impl Fn(usize) + Send + Sync + 'static) -> Self {
        Self(Arc::new(hook))
    }
}

impl fmt::Debug for RunHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RunHook(..)")
    }
}

/// Margin-driven adaptive sampling (paper §III.A readjustment, applied
/// online): after each batch of runs the achieved error margin is
/// recomputed with the *measured* AVF as the probability estimate, and the
/// campaign stops early once the target margin is met. A mostly-masked
/// campaign (small `p`) reaches the paper's 2.88 % target far before the
/// fixed 2 000 runs; a highly vulnerable one keeps sampling up to the
/// configured maximum.
///
/// Early stopping depends only on the deterministic per-run outcomes, so
/// adaptive campaigns remain reproducible across thread counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSpec {
    /// Stop once the achieved margin is at or below this target (e.g. the
    /// paper's 0.0288).
    pub target_margin: f64,
    /// Confidence z-value for the margin ([`stats::Z_99`] in the paper).
    pub z: f64,
    /// Never stop before this many runs, however tight the margin looks.
    pub min_runs: usize,
    /// Margin is re-evaluated every `batch` runs.
    pub batch: usize,
}

impl AdaptiveSpec {
    /// The paper's sampling target: 2.88 % margin at 99 % confidence,
    /// re-evaluated every 100 runs after at least 100.
    pub fn paper() -> Self {
        Self {
            target_margin: 0.0288,
            z: stats::Z_99,
            min_runs: 100,
            batch: 100,
        }
    }

    fn validate(&self) -> Result<(), CampaignError> {
        let reason = if !(self.target_margin > 0.0 && self.target_margin < 1.0) {
            Some("target margin must be in (0, 1)")
        } else if !(self.z.is_finite() && self.z > 0.0) {
            Some("z must be a positive finite number")
        } else if self.min_runs == 0 {
            Some("min_runs must be nonzero")
        } else if self.batch == 0 {
            Some("batch must be nonzero")
        } else {
            None
        };
        match reason {
            Some(reason) => Err(CampaignError::InvalidAdaptiveSpec { reason }),
            None => Ok(()),
        }
    }
}

/// Configuration of one injection campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The workload to run.
    pub workload: Workload,
    /// The hardware structure to inject into.
    pub component: HwComponent,
    /// Fault cardinality (bits flipped per injection), 1–3 in the paper.
    pub faults: usize,
    /// Number of injection runs (the paper uses 2 000; see [`crate::stats`]).
    pub runs: usize,
    /// Campaign seed; same seed ⇒ same results.
    pub seed: u64,
    /// Cluster window for spatial multi-bit faults.
    pub cluster: ClusterSpec,
    /// Core configuration.
    pub core: CoreConfig,
    /// Timeout limit as a multiple of the fault-free execution time.
    pub timeout_factor: u64,
    /// Worker threads (0 ⇒ available parallelism).
    pub threads: usize,
    /// Which array of the component to inject into.
    pub target: InjectionTarget,
    /// Collect a per-run fault list ([`RunDetail`]) in the result.
    pub collect_details: bool,
    /// Wall-clock budget per injection run. A run past its budget is
    /// stopped at the simulator's next deadline poll and classified as
    /// [`FaultEffect::Timeout`]; `None` disables the deadline. Stopping
    /// depends on host speed, so it is the one knob that can make results
    /// non-deterministic — the generous default only fires on genuinely
    /// wedged runs.
    pub run_wall_budget: Option<Duration>,
    /// Consult a fault-free [`LivenessOracle`] before simulating each run:
    /// a mask whose flipped bits are all provably dead at the injection
    /// cycle classifies as [`FaultEffect::Masked`] without simulation. The
    /// oracle is conservative, so classifications are bit-identical with
    /// this on or off; skipped runs are counted in
    /// [`CampaignResult::oracle_skips`]. Only applies to
    /// [`InjectionTarget::DataArray`] campaigns.
    pub use_liveness_oracle: bool,
    /// Margin-driven adaptive sampling: when set, [`CampaignConfig::runs`]
    /// becomes the *maximum* and the campaign stops early once the achieved
    /// error margin (recomputed after every batch with the measured AVF as
    /// `p`) meets the target. `None` keeps the classic fixed-run behaviour.
    pub adaptive: Option<AdaptiveSpec>,
    /// Checkpointed fast-forward injection: record a [`SnapshotStore`] of
    /// golden-run checkpoints, start each injection run from the nearest
    /// checkpoint at or before its injection cycle, and stop a run early as
    /// `Masked` once a post-fault reconvergence check proves its reachable
    /// state identical to the golden run's. Classifications are
    /// bit-identical with this on or off (see `mbu_snap`); composes freely
    /// with [`CampaignConfig::use_liveness_oracle`] and
    /// [`CampaignConfig::adaptive`].
    pub use_snapshots: bool,
    /// Recording parameters (interval, memory cap) for the snapshot store;
    /// only consulted when [`CampaignConfig::use_snapshots`] is set.
    pub snapshot_spec: SnapshotSpec,
    /// Test-only fault hook, invoked with the run index at the start of each
    /// injection run *inside* the isolation boundary. Lets tests provoke
    /// panics and stalls in an otherwise healthy engine.
    #[doc(hidden)]
    pub run_hook: Option<RunHook>,
}

impl CampaignConfig {
    /// Creates a campaign with the paper's defaults (3 × 3 cluster,
    /// Cortex-A9-like core, 4 × timeout, 200 runs).
    pub fn new(workload: Workload, component: HwComponent, faults: usize) -> Self {
        Self {
            workload,
            component,
            faults,
            runs: 200,
            seed: 0x6EF1_2019,
            cluster: ClusterSpec::DEFAULT,
            core: CoreConfig::cortex_a9_like(),
            timeout_factor: 4,
            threads: 0,
            target: InjectionTarget::DataArray,
            collect_details: false,
            run_wall_budget: Some(Duration::from_secs(60)),
            use_liveness_oracle: false,
            adaptive: None,
            use_snapshots: false,
            snapshot_spec: SnapshotSpec::default(),
            run_hook: None,
        }
    }

    /// Sets the number of runs.
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the campaign seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the cluster window.
    pub fn cluster(mut self, cluster: ClusterSpec) -> Self {
        self.cluster = cluster;
        self
    }

    /// Targets the cache tag array instead of the data array (ablation).
    pub fn target(mut self, target: InjectionTarget) -> Self {
        self.target = target;
        self
    }

    /// Collects the per-run fault list in the result.
    pub fn collect_details(mut self, collect: bool) -> Self {
        self.collect_details = collect;
        self
    }

    /// Sets (or, with `None`, disables) the per-run wall-clock budget.
    pub fn run_wall_budget(mut self, budget: Option<Duration>) -> Self {
        self.run_wall_budget = budget;
        self
    }

    /// Enables (or disables) the provably-masked liveness-oracle fast path
    /// (see [`CampaignConfig::use_liveness_oracle`]).
    pub fn use_liveness_oracle(mut self, on: bool) -> Self {
        self.use_liveness_oracle = on;
        self
    }

    /// Enables (with `Some`) or disables margin-driven adaptive sampling
    /// (see [`CampaignConfig::adaptive`]).
    pub fn adaptive(mut self, spec: Option<AdaptiveSpec>) -> Self {
        self.adaptive = spec;
        self
    }

    /// Enables (or disables) checkpointed fast-forward injection
    /// (see [`CampaignConfig::use_snapshots`]).
    pub fn use_snapshots(mut self, on: bool) -> Self {
        self.use_snapshots = on;
        self
    }

    /// Sets the snapshot recording parameters
    /// (see [`CampaignConfig::snapshot_spec`]).
    pub fn snapshot_spec(mut self, spec: SnapshotSpec) -> Self {
        self.snapshot_spec = spec;
        self
    }

    /// Installs a test-only per-run hook (see [`CampaignConfig::run_hook`]).
    /// Accepts any `Fn(usize) + Send + Sync` — plain `fn` items and stateful
    /// capturing closures alike.
    #[doc(hidden)]
    pub fn with_run_hook(mut self, hook: impl Fn(usize) + Send + Sync + 'static) -> Self {
        self.run_hook = Some(RunHook::new(hook));
        self
    }
}

/// One injection run's record (the classic fault-list entry).
#[derive(Debug, Clone, PartialEq)]
pub struct RunDetail {
    /// Run index within the campaign.
    pub index: usize,
    /// Cycle the mask was applied at.
    pub inject_cycle: u64,
    /// The applied fault mask.
    pub mask: FaultMask,
    /// Classified outcome.
    pub effect: FaultEffect,
    /// Cycles the faulty run took.
    pub cycles: u64,
}

/// What kind of irregularity an [`Anomaly`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// The run panicked inside the isolation boundary; it was classified as
    /// [`FaultEffect::Assert`].
    Panic,
    /// The run exceeded its wall-clock budget and was stopped at its
    /// deadline; it was classified as [`FaultEffect::Timeout`].
    WallClock,
    /// The snapshot store hit its memory cap while recording and degraded
    /// to a sparser checkpoint interval (campaign-level, logged as run 0;
    /// classifications are unaffected, only the fast-forward granularity).
    SnapshotMemCap,
    /// The sweep-wide golden-artifact cache was disabled (`MBU_GOLDEN_CACHE`
    /// off), so every campaign re-ran its own golden execution (sweep-level,
    /// logged as run 0; classifications are unaffected, only wall-clock).
    GoldenCacheBypass,
    /// A distributed-sweep worker process died (exited, was killed, or its
    /// connection broke) while a work unit was in flight; the unit was
    /// retried on a surviving worker (fabric-level, logged with the unit's
    /// first run index; merged classifications are unaffected).
    WorkerLost,
    /// A distributed-sweep worker stopped heartbeating while a work unit was
    /// in flight and was declared dead by the supervisor's stall detector;
    /// the unit was retried on a surviving worker.
    WorkerStall,
    /// A distributed-sweep worker sent a frame the supervisor could not
    /// parse (garbage or truncated protocol data); the worker was dropped
    /// and its in-flight unit retried.
    ProtocolGarbage,
    /// A work unit failed deterministically on two or more distinct workers
    /// and was quarantined: the sweep completed *degraded* (the unit's runs
    /// are missing from the merged store) instead of aborting or silently
    /// retrying forever.
    UnitQuarantined,
    /// A TCP worker that had been declared lost reconnected with the same
    /// worker id and rejoined the pool; units it had persisted but never
    /// acknowledged were recovered from its shard store instead of re-run.
    WorkerRejoined,
    /// Free disk space under the shard directory fell below the configured
    /// watermark; the supervisor paused assigning new units (pending work
    /// queued, shard appends stopped) until space recovered, instead of
    /// running into raw ENOSPC mid-append.
    DiskPressure,
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnomalyKind::Panic => f.write_str("panic"),
            AnomalyKind::WallClock => f.write_str("wall-clock"),
            AnomalyKind::SnapshotMemCap => f.write_str("snapshot-mem-cap"),
            AnomalyKind::GoldenCacheBypass => f.write_str("golden-cache-bypass"),
            AnomalyKind::WorkerLost => f.write_str("worker-lost"),
            AnomalyKind::WorkerStall => f.write_str("worker-stall"),
            AnomalyKind::ProtocolGarbage => f.write_str("protocol-garbage"),
            AnomalyKind::UnitQuarantined => f.write_str("unit-quarantined"),
            AnomalyKind::WorkerRejoined => f.write_str("worker-rejoined"),
            AnomalyKind::DiskPressure => f.write_str("disk-pressure"),
        }
    }
}

/// One distributed-sweep work unit: a contiguous run-range
/// `[start, end)` of a single (component, workload, cardinality) campaign.
///
/// Run outcomes are deterministic per run index (`derive_run_seed`), so a
/// campaign's class counts are the sum of the counts of any disjoint
/// run-range cover — the shard planner exploits this to split campaigns
/// across worker processes, and the supervisor to split straggler tails for
/// work stealing. A full campaign is the unit `[0, runs)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitSpec {
    /// Target component.
    pub component: HwComponent,
    /// The workload to run.
    pub workload: Workload,
    /// Fault cardinality.
    pub faults: usize,
    /// First run index of the range (inclusive).
    pub start: usize,
    /// One past the last run index of the range (exclusive).
    pub end: usize,
}

impl UnitSpec {
    /// The unit covering a whole campaign.
    pub fn whole(component: HwComponent, workload: Workload, faults: usize, runs: usize) -> Self {
        Self {
            component,
            workload,
            faults,
            start: 0,
            end: runs,
        }
    }

    /// The campaign this unit belongs to.
    pub fn campaign_key(&self) -> (HwComponent, Workload, usize) {
        (self.component, self.workload, self.faults)
    }

    /// Number of runs in the range.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// The run-range as a `Range`.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    /// Splits the unit at run index `mid` (absolute, not relative) into
    /// `[start, mid)` and `[mid, end)`. Returns `None` unless `mid` falls
    /// strictly inside the range (both halves must be non-empty).
    pub fn split_at(&self, mid: usize) -> Option<(UnitSpec, UnitSpec)> {
        if mid <= self.start || mid >= self.end {
            return None;
        }
        let mut head = *self;
        let mut tail = *self;
        head.end = mid;
        tail.start = mid;
        Some((head, tail))
    }
}

impl fmt::Display for UnitSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}-bit[{}..{})",
            self.component, self.workload, self.faults, self.start, self.end
        )
    }
}

/// The achieved error margin of `counts` for a campaign targeting
/// `component`, over the component's per-execution fault population, with
/// the measured AVF (clamped to `[0.01, 0.99]`) as the probability
/// estimate.
///
/// This is the exact computation a campaign applies to its own counts at
/// the end of a run; it is exposed as a free function so the distributed
/// shard merge can recompute a campaign's margin from summed partial
/// counts and land on the bit-identical `f64` a single-process sweep would
/// have stored.
pub fn campaign_margin(
    component: HwComponent,
    counts: &ClassCounts,
    fault_free_cycles: u64,
    z: f64,
) -> Result<f64, CampaignError> {
    let population = stats::fault_population(component_bits(component), fault_free_cycles.max(1));
    let samples = counts.total().clamp(1, population);
    let p = counts.avf().clamp(0.01, 0.99);
    Ok(stats::error_margin(population, samples, z, p)?)
}

/// One irregular run: enough context to replay it in isolation
/// (`MaskGenerator::seeded(run_seed, cluster)` reproduces the exact fault).
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Run index within the campaign.
    pub run_index: usize,
    /// The run's derived RNG seed.
    pub run_seed: u64,
    /// What happened.
    pub kind: AnomalyKind,
    /// The panic payload, or a description of the deadline stop.
    pub message: String,
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run {} (seed 0x{:016x}) {}: {}",
            self.run_index, self.run_seed, self.kind, self.message
        )
    }
}

/// Per-campaign record of runs that panicked or blew their wall-clock
/// budget. Empty for a healthy campaign; entries are sorted by run index, so
/// the log is deterministic whenever the anomalies themselves are.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnomalyLog {
    entries: Vec<Anomaly>,
}

impl AnomalyLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an anomaly.
    pub fn record(&mut self, anomaly: Anomaly) {
        self.entries.push(anomaly);
    }

    /// The recorded anomalies, sorted by run index.
    pub fn entries(&self) -> &[Anomaly] {
        &self.entries
    }

    /// Number of recorded anomalies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the campaign was anomaly-free.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn merge(&mut self, other: AnomalyLog) {
        self.entries.extend(other.entries);
    }

    fn sort(&mut self) {
        self.entries.sort_by_key(|a| a.run_index);
    }
}

impl fmt::Display for AnomalyLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return f.write_str("no anomalies");
        }
        writeln!(f, "{} anomalous run(s):", self.entries.len())?;
        for a in &self.entries {
            writeln!(f, "  {a}")?;
        }
        Ok(())
    }
}

/// Aggregated result of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The configuration that produced this result.
    pub workload: Workload,
    /// Target component.
    pub component: HwComponent,
    /// Fault cardinality.
    pub faults: usize,
    /// Class counts over all runs.
    pub counts: ClassCounts,
    /// Fault-free execution time in cycles.
    pub fault_free_cycles: u64,
    /// Fault-free committed instructions.
    pub fault_free_instructions: u64,
    /// Per-run fault list, present when
    /// [`CampaignConfig::collect_details`] was enabled.
    pub details: Option<Vec<RunDetail>>,
    /// Runs that panicked or were stopped at their wall-clock deadline
    /// (empty for a healthy campaign).
    pub anomalies: AnomalyLog,
    /// Runs the liveness oracle classified as Masked without simulation
    /// (zero unless [`CampaignConfig::use_liveness_oracle`] was set).
    pub oracle_skips: u64,
    /// The error margin achieved by the executed runs, recomputed with the
    /// measured AVF as `p` (paper §III.A readjustment; the probability is
    /// clamped to `[0.01, 0.99]` so fully-masked campaigns stay
    /// computable). `None` for results loaded from pre-integrity (v1)
    /// checkpoint files.
    pub achieved_margin: Option<f64>,
    /// Snapshot-store bookkeeping — checkpoint count, interval, retained
    /// bytes, cap-forced thinning, fast-forwarded restores and early-Masked
    /// reconvergence exits. `None` unless
    /// [`CampaignConfig::use_snapshots`] was set.
    pub snapshot_stats: Option<SnapshotStats>,
}

impl CampaignResult {
    /// AVF of this campaign (`1 − masked fraction`).
    pub fn avf(&self) -> f64 {
        self.counts.avf()
    }
}

impl fmt::Display for CampaignResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} / {}-bit: {}",
            self.component, self.workload, self.faults, self.counts
        )?;
        if !self.anomalies.is_empty() {
            write!(f, " [{} anomalies]", self.anomalies.len())?;
        }
        Ok(())
    }
}

thread_local! {
    /// Set while a worker is inside the per-run isolation boundary: the
    /// process panic hook stays quiet for these expected panics.
    static IN_ISOLATED_RUN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Wraps the process panic hook (once) so panics inside isolated injection
/// runs don't spray backtraces — they are captured, classified and logged,
/// not crashes. Panics from anywhere else still reach the previous hook.
fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info: &panic::PanicHookInfo<'_>| {
            if !IN_ISOLATED_RUN.with(|f| f.get()) {
                previous(info);
            }
        }));
    });
}

/// Renders a `catch_unwind` payload as text.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The per-run seed derivation — shared by execution and anomaly reporting,
/// and relied on by checkpoint/resume (re-running index `i` under the same
/// campaign seed must regenerate the same fault).
fn derive_run_seed(campaign_seed: u64, run_index: usize) -> u64 {
    campaign_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(run_index as u64 + 1)
}

/// Per-run bookkeeping flags threaded out of the isolation boundary.
#[derive(Debug, Clone, Copy, Default)]
struct RunExtras {
    /// The liveness oracle proved the run masked without simulation.
    oracle_skip: bool,
    /// The run fast-forwarded from a golden checkpoint.
    snapshot_restore: bool,
    /// A reconvergence check proved the run masked before it finished.
    snapshot_early_masked: bool,
    /// The simulator stopped the run unfinished at its wall-clock deadline.
    deadline_hit: bool,
}

/// A runnable campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign from its configuration, validating it.
    pub fn try_new(config: CampaignConfig) -> Result<Self, CampaignError> {
        if config.runs == 0 {
            return Err(CampaignError::ZeroRuns);
        }
        if config.faults == 0 || config.faults > config.cluster.cells() {
            return Err(CampaignError::CardinalityTooLarge {
                faults: config.faults,
                cluster: config.cluster,
            });
        }
        if config.target == InjectionTarget::TagArray
            && !matches!(
                config.component,
                HwComponent::L1D | HwComponent::L1I | HwComponent::L2
            )
        {
            return Err(CampaignError::TagArrayUnsupported {
                component: config.component,
            });
        }
        if let Some(adaptive) = &config.adaptive {
            adaptive.validate()?;
        }
        Ok(Self { config })
    }

    /// Creates a campaign from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`Campaign::try_new`] for
    /// the non-panicking form).
    pub fn new(config: CampaignConfig) -> Self {
        match Self::try_new(config) {
            Ok(campaign) => campaign,
            Err(e) => panic!("{e}"),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Executes the golden run, reporting a non-clean exit as
    /// [`CampaignError::GoldenRunFailed`].
    fn golden(&self, program: &Program) -> Result<(Vec<u8>, u32, u64, u64), CampaignError> {
        let r = Simulator::new(self.config.core, program).run(u64::MAX / 8);
        match r.end {
            RunEnd::Exited { code } => Ok((r.output, code, r.cycles, r.instructions)),
            end => Err(CampaignError::GoldenRunFailed {
                workload: self.config.workload,
                end,
            }),
        }
    }

    /// Executes one injection run. Returns the run record plus the
    /// fast-path flags (oracle skip / snapshot restore / early mask).
    ///
    /// The oracle check is sound because a skipped run would have been
    /// cycle-identical to the golden run (see [`LivenessOracle`]): its
    /// detail record — `Masked`, `cycles == fault_free_cycles` — is exactly
    /// what full simulation would have produced. The reconvergence early
    /// exit is sound for the same reason, established *after* the fault
    /// instead of before it: once every reachable bit matches the golden
    /// checkpoint, determinism makes the rest of the run identical to the
    /// golden run, so it is `Masked` with exactly `fault_free_cycles`.
    #[allow(clippy::too_many_arguments)]
    fn one_run(
        &self,
        program: &Program,
        run_index: usize,
        fault_free_cycles: u64,
        golden_output: &[u8],
        golden_code: u32,
        geometry: Geometry,
        oracle: Option<&LivenessOracle>,
        snapshots: Option<&SnapshotStore>,
        deadline: Option<Instant>,
    ) -> (RunDetail, RunExtras) {
        let cfg = &self.config;
        if let Some(hook) = &cfg.run_hook {
            (hook.0)(run_index);
        }
        // Independent per-run RNG: deterministic under any thread schedule.
        // The draw order (injection cycle, then mask) must not depend on the
        // oracle or the snapshot store, so skipped, fast-forwarded and
        // fully-simulated runs all see identical faults.
        let run_seed = derive_run_seed(cfg.seed, run_index);
        let mut gen = MaskGenerator::seeded(run_seed, cfg.cluster);
        let inject_at = gen.injection_cycle(fault_free_cycles);
        let mask = gen.generate(geometry, cfg.faults);
        let mut extras = RunExtras::default();
        if let Some(o) = oracle {
            if o.provably_masked(&mask.coords, inject_at) {
                extras.oracle_skip = true;
                let detail = RunDetail {
                    index: run_index,
                    inject_cycle: inject_at,
                    mask,
                    effect: FaultEffect::Masked,
                    cycles: fault_free_cycles,
                };
                return (detail, extras);
            }
        }
        let (effect, cycles, run_extras) = self.run_injection(
            program,
            &mask.coords,
            inject_at,
            fault_free_cycles,
            golden_output,
            golden_code,
            snapshots,
            deadline,
        );
        extras.snapshot_restore = run_extras.snapshot_restore;
        extras.snapshot_early_masked = run_extras.snapshot_early_masked;
        extras.deadline_hit = run_extras.deadline_hit;
        let detail = RunDetail {
            index: run_index,
            inject_cycle: inject_at,
            mask,
            effect,
            cycles,
        };
        (detail, extras)
    }

    /// Simulates exactly one injection: flip `coords` at `inject_at` under
    /// the configured target, classify against the golden reference. The
    /// deterministic tail of [`Campaign::one_run`], and — via
    /// [`Campaign::probe_injection`] — the primitive the exhaustive
    /// (per-equivalence-class) engine drives with chosen fault sites
    /// instead of seed-drawn ones.
    #[allow(clippy::too_many_arguments)]
    fn run_injection(
        &self,
        program: &Program,
        coords: &[BitCoord],
        inject_at: u64,
        fault_free_cycles: u64,
        golden_output: &[u8],
        golden_code: u32,
        snapshots: Option<&SnapshotStore>,
        deadline: Option<Instant>,
    ) -> (FaultEffect, u64, RunExtras) {
        let cfg = &self.config;
        let mut extras = RunExtras::default();
        let mut sim = Simulator::new(cfg.core, program);
        if let Some(store) = snapshots {
            // Fast-forward: skip the fault-free prefix by restoring the
            // nearest golden checkpoint at or before the injection cycle.
            sim.restore(store.nearest_at_or_before(inject_at));
            extras.snapshot_restore = true;
        }
        if let Some(deadline) = deadline {
            sim.set_deadline(deadline);
        }
        let limit = fault_free_cycles * cfg.timeout_factor;
        // The injection point precedes the fault-free end, so the run cannot
        // have finished yet.
        if sim.run_until_cycle(inject_at).is_none() {
            match cfg.target {
                InjectionTarget::DataArray => sim.inject_flips(cfg.component, coords),
                InjectionTarget::TagArray => sim.inject_tag_flips(cfg.component, coords),
            }
        }
        let end = match snapshots {
            None => sim.run_until_cycle(limit),
            Some(store) => {
                let (end, early) = run_with_reconvergence(&mut sim, store, limit);
                if early {
                    extras.snapshot_early_masked = true;
                    return (FaultEffect::Masked, fault_free_cycles, extras);
                }
                end
            }
        };
        extras.deadline_hit = sim.deadline_hit();
        let result = mbu_cpu::RunResult {
            end: end.unwrap_or(RunEnd::CycleLimit),
            output: sim.output().to_vec(),
            cycles: sim.cycle(),
            instructions: sim.instructions(),
        };
        let effect = classify(&result, golden_output, golden_code);
        (effect, result.cycles, extras)
    }

    /// [`Campaign::run_injection`] inside the isolation boundary, for
    /// callers that choose the fault site deterministically (the exhaustive
    /// engine): panics inside the simulated run classify as
    /// [`FaultEffect::Assert`] with zero cycles, mirroring the sampled
    /// path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn probe_injection(
        &self,
        program: &Program,
        coords: &[BitCoord],
        inject_at: u64,
        fault_free_cycles: u64,
        golden_output: &[u8],
        golden_code: u32,
        snapshots: Option<&SnapshotStore>,
    ) -> (FaultEffect, u64) {
        install_quiet_panic_hook();
        let outcome = IN_ISOLATED_RUN.with(|flag| {
            flag.set(true);
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                self.run_injection(
                    program,
                    coords,
                    inject_at,
                    fault_free_cycles,
                    golden_output,
                    golden_code,
                    snapshots,
                    None,
                )
            }));
            flag.set(false);
            r
        });
        match outcome {
            Ok((effect, cycles, _)) => (effect, cycles),
            Err(_) => (FaultEffect::Assert, 0),
        }
    }

    /// Executes one injection run inside the isolation boundary: panics are
    /// captured (and classified as [`FaultEffect::Assert`]), runs stopped at
    /// their deadline are logged.
    ///
    /// `catch_unwind` unwind-safety audit: the closure captures `&self`
    /// (immutable configuration), `&Program` (immutable), the golden
    /// reference slices (immutable) and the deadline (`Copy`). All
    /// mutable state — simulator, mask generator — lives *inside* the
    /// closure and is dropped on unwind, so nothing observable can be left
    /// half-updated; the `AssertUnwindSafe` is sound.
    #[allow(clippy::too_many_arguments)]
    fn one_run_isolated(
        &self,
        program: &Program,
        run_index: usize,
        fault_free_cycles: u64,
        golden_output: &[u8],
        golden_code: u32,
        geometry: Geometry,
        oracle: Option<&LivenessOracle>,
        snapshots: Option<&SnapshotStore>,
        deadline: Option<Instant>,
    ) -> (RunDetail, RunExtras, Option<Anomaly>) {
        install_quiet_panic_hook();
        let outcome = IN_ISOLATED_RUN.with(|flag| {
            flag.set(true);
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                self.one_run(
                    program,
                    run_index,
                    fault_free_cycles,
                    golden_output,
                    golden_code,
                    geometry,
                    oracle,
                    snapshots,
                    deadline,
                )
            }));
            flag.set(false);
            r
        });
        match outcome {
            Ok((detail, extras)) => {
                // Logged exactly when the simulator stopped the run, so a
                // run that finished just before its deadline keeps its
                // normal classification and no anomaly.
                let anomaly = if extras.deadline_hit {
                    Some(Anomaly {
                        run_index,
                        run_seed: derive_run_seed(self.config.seed, run_index),
                        kind: AnomalyKind::WallClock,
                        message: format!(
                            "cancelled after exceeding the {:?} wall-clock budget",
                            self.config.run_wall_budget.unwrap_or_default()
                        ),
                    })
                } else {
                    None
                };
                (detail, extras, anomaly)
            }
            Err(payload) => {
                // A panic is the software image of a hardware assert: an
                // internal invariant tripped by the injected corruption.
                let detail = RunDetail {
                    index: run_index,
                    inject_cycle: 0,
                    mask: FaultMask {
                        coords: Vec::new(),
                        origin: BitCoord::new(0, 0),
                        cluster: self.config.cluster,
                    },
                    effect: FaultEffect::Assert,
                    cycles: 0,
                };
                let anomaly = Anomaly {
                    run_index,
                    run_seed: derive_run_seed(self.config.seed, run_index),
                    kind: AnomalyKind::Panic,
                    message: payload_message(payload.as_ref()),
                };
                (detail, RunExtras::default(), Some(anomaly))
            }
        }
    }

    /// Executes the injection runs `[start, end)` in parallel (work-stealing
    /// over an atomic index; deterministic for a given seed regardless of
    /// thread count), merging into the caller's accumulators.
    #[allow(clippy::too_many_arguments)]
    fn run_batch(
        &self,
        program: &Program,
        range: std::ops::Range<usize>,
        cycles: u64,
        golden_output: &[u8],
        golden_code: u32,
        geometry: Geometry,
        oracle: Option<&LivenessOracle>,
        snapshots: Option<&SnapshotStore>,
        counts: &mut ClassCounts,
        details: &mut Vec<RunDetail>,
        anomalies: &mut AnomalyLog,
        oracle_skips: &mut u64,
        snap_restores: &mut u64,
        snap_early_masked: &mut u64,
    ) -> Result<(), CampaignError> {
        let cfg = &self.config;
        let threads = if cfg.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            cfg.threads
        }
        .min(range.len())
        .max(1);
        let next = AtomicUsize::new(range.start);
        let mut worker_panicked = false;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..threads {
                let next = &next;
                let range = &range;
                handles.push(scope.spawn(move || {
                    let mut local = ClassCounts::new();
                    let mut local_details = Vec::new();
                    let mut local_anomalies = AnomalyLog::new();
                    let mut local_extras = (0u64, 0u64, 0u64);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= range.end {
                            break;
                        }
                        // Taken before the run hook, so time spent there
                        // counts against the budget.
                        let deadline = cfg
                            .run_wall_budget
                            .and_then(|budget| Instant::now().checked_add(budget));
                        let (detail, extras, anomaly) = self.one_run_isolated(
                            program,
                            i,
                            cycles,
                            golden_output,
                            golden_code,
                            geometry,
                            oracle,
                            snapshots,
                            deadline,
                        );
                        local.record(detail.effect);
                        local_extras.0 += u64::from(extras.oracle_skip);
                        local_extras.1 += u64::from(extras.snapshot_restore);
                        local_extras.2 += u64::from(extras.snapshot_early_masked);
                        if let Some(a) = anomaly {
                            local_anomalies.record(a);
                        }
                        if cfg.collect_details {
                            local_details.push(detail);
                        }
                    }
                    (local, local_details, local_anomalies, local_extras)
                }));
            }
            for h in handles {
                match h.join() {
                    Ok((local, local_details, local_anomalies, local_extras)) => {
                        counts.merge(&local);
                        details.extend(local_details);
                        anomalies.merge(local_anomalies);
                        *oracle_skips += local_extras.0;
                        *snap_restores += local_extras.1;
                        *snap_early_masked += local_extras.2;
                    }
                    // A panic *outside* the per-run isolation boundary is an
                    // engine bug; salvage the other workers' results and
                    // report it as a typed error below.
                    Err(_) => worker_panicked = true,
                }
            }
        });
        if worker_panicked {
            return Err(CampaignError::WorkerPanicked);
        }
        Ok(())
    }

    /// The achieved error margin of `counts` over the component's fault
    /// population, with the measured AVF (clamped to `[0.01, 0.99]`) as the
    /// probability estimate.
    fn achieved_margin(
        &self,
        counts: &ClassCounts,
        fault_free_cycles: u64,
        z: f64,
    ) -> Result<f64, CampaignError> {
        campaign_margin(self.config.component, counts, fault_free_cycles, z)
    }

    /// Runs the whole campaign (parallel, deterministic), reporting failures
    /// as [`CampaignError`] instead of panicking.
    ///
    /// With [`CampaignConfig::adaptive`] set, runs execute in batches and
    /// the campaign stops as soon as the achieved margin (measured AVF as
    /// `p`) meets the target — see [`AdaptiveSpec`].
    pub fn try_run(&self) -> Result<CampaignResult, CampaignError> {
        self.try_run_with_artifacts(None)
    }

    /// Builds the golden artifacts this campaign would otherwise compute
    /// inside [`Campaign::try_run`]: the fault-free output/counters and —
    /// when [`CampaignConfig::use_snapshots`] is set — a recorded
    /// [`SnapshotStore`] under [`CampaignConfig::snapshot_spec`].
    ///
    /// A sweep builds these once per `(core, workload)` pair and passes the
    /// same value to [`Campaign::try_run_with_artifacts`] for every campaign
    /// targeting that workload, eliminating the per-campaign golden and
    /// recording runs.
    pub fn build_artifacts(&self) -> Result<GoldenArtifacts, CampaignError> {
        let cfg = &self.config;
        let program = cfg.workload.program();
        let spec = cfg.use_snapshots.then_some(cfg.snapshot_spec);
        GoldenArtifacts::build(cfg.core, &program, spec).map_err(|end| {
            CampaignError::GoldenRunFailed {
                workload: cfg.workload,
                end,
            }
        })
    }

    /// [`Campaign::try_run`] with optional pre-built golden artifacts.
    ///
    /// With `Some(artifacts)` the golden run (and, with snapshots enabled,
    /// the recording run) is skipped: the reference output, counters and
    /// checkpoint store come from the artifacts. The simulator is
    /// deterministic, so the artifacts are bit-identical to what a private
    /// golden run would have produced — classifications, anomaly logs and
    /// details do not depend on which path supplied them. Artifacts built
    /// for a different core, program or snapshot spec are rejected with
    /// [`CampaignError::ArtifactMismatch`] rather than silently
    /// misclassifying every run.
    pub fn try_run_with_artifacts(
        &self,
        artifacts: Option<&GoldenArtifacts>,
    ) -> Result<CampaignResult, CampaignError> {
        self.execute(artifacts, None)
    }

    /// Runs only the run-range `range` of this campaign — the execution
    /// primitive behind distributed sweep shards.
    ///
    /// Per-run seeds derive from the campaign seed and the *absolute* run
    /// index alone, so the runs of `range` are classified bit-identically
    /// to the same indices inside a full [`Campaign::try_run`]; summing the
    /// [`ClassCounts`] of any disjoint cover of `0..runs` reproduces the
    /// full campaign's counts exactly. The returned result carries only the
    /// range's counts/details/anomalies (plus the golden counters, which
    /// are range-independent); its `achieved_margin` is over the partial
    /// counts and is recomputed from merged counts by the shard merge.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::InvalidRunRange`] for an empty or
    /// out-of-bounds range, and [`CampaignError::InvalidAdaptiveSpec`] for
    /// a partial range of an adaptive campaign: early stopping depends on
    /// the global run order, so adaptive campaigns are never split.
    pub fn try_run_range_with_artifacts(
        &self,
        range: std::ops::Range<usize>,
        artifacts: Option<&GoldenArtifacts>,
    ) -> Result<CampaignResult, CampaignError> {
        let cfg = &self.config;
        if range.start >= range.end || range.end > cfg.runs {
            return Err(CampaignError::InvalidRunRange {
                start: range.start,
                end: range.end,
                runs: cfg.runs,
            });
        }
        if cfg.adaptive.is_some() && (range.start != 0 || range.end != cfg.runs) {
            return Err(CampaignError::InvalidAdaptiveSpec {
                reason: "adaptive campaigns cannot be split into partial run-ranges",
            });
        }
        self.execute(artifacts, Some(range))
    }

    /// Rejects golden artifacts built for a different campaign (wrong core
    /// configuration, wrong program, or a missing/mismatched snapshot
    /// store) — shared by the sampled executor and the exhaustive engine.
    pub(crate) fn validate_artifacts(
        &self,
        program: &Program,
        artifacts: &GoldenArtifacts,
    ) -> Result<(), CampaignError> {
        let cfg = &self.config;
        if *artifacts.core() != cfg.core {
            return Err(CampaignError::ArtifactMismatch {
                reason: "artifacts were built for a different core configuration",
            });
        }
        if artifacts.program() != program {
            return Err(CampaignError::ArtifactMismatch {
                reason: "artifacts were built for a different program",
            });
        }
        if cfg.use_snapshots {
            if artifacts.snapshot_store().is_none() {
                return Err(CampaignError::ArtifactMismatch {
                    reason: "campaign uses snapshots but the artifacts carry no store",
                });
            }
            if artifacts.snapshot_spec() != Some(cfg.snapshot_spec) {
                return Err(CampaignError::ArtifactMismatch {
                    reason: "artifacts' snapshot store was recorded under a different spec",
                });
            }
        }
        Ok(())
    }

    /// Shared body of [`Campaign::try_run_with_artifacts`] (`range: None`)
    /// and [`Campaign::try_run_range_with_artifacts`] (`range: Some`).
    fn execute(
        &self,
        artifacts: Option<&GoldenArtifacts>,
        range: Option<std::ops::Range<usize>>,
    ) -> Result<CampaignResult, CampaignError> {
        let cfg = &self.config;
        let program = cfg.workload.program();
        if let Some(a) = artifacts {
            self.validate_artifacts(&program, a)?;
        }
        // Golden reference: from the shared artifacts, or one private run.
        let owned_golden = match artifacts {
            Some(_) => None,
            None => Some(self.golden(&program)?),
        };
        let (golden_output, golden_code, cycles, instructions): (&[u8], u32, u64, u64) =
            match (&owned_golden, artifacts) {
                (Some((o, c, cy, i)), _) => (o, *c, *cy, *i),
                (None, Some(a)) => (a.output(), a.exit_code(), a.cycles(), a.instructions()),
                (None, None) => unreachable!("one golden source always exists"),
            };
        // Target geometry is config-determined; compute it once instead of
        // per run so the oracle fast path can skip Simulator construction.
        let geometry = {
            let sim = Simulator::new(cfg.core, &program);
            match cfg.target {
                InjectionTarget::DataArray => sim.component_geometry(cfg.component),
                InjectionTarget::TagArray => sim.tag_geometry(cfg.component),
            }
        };
        // One fault-free observation run buys the provably-masked pre-filter
        // for every injection run. Build failures (e.g. an observation run
        // that does not exit cleanly) silently disable the fast path: the
        // campaign is then merely slower, never wrong.
        let oracle = if cfg.use_liveness_oracle && cfg.target == InjectionTarget::DataArray {
            LivenessOracle::build(cfg.core, &program, cfg.component).ok()
        } else {
            None
        };
        let oracle = oracle.as_ref();
        // One extra golden (recording) run buys checkpointed fast-forwarding
        // and reconvergence-based early exit for every injection run — paid
        // here only when no shared store came with the artifacts.
        let owned_store = if cfg.use_snapshots && artifacts.is_none() {
            Some(SnapshotStore::record_golden(
                cfg.core,
                &program,
                cycles,
                cfg.snapshot_spec,
            ))
        } else {
            None
        };
        let snapshots: Option<&SnapshotStore> = if cfg.use_snapshots {
            match artifacts {
                Some(a) => a.snapshot_store().map(|s| s.as_ref()),
                None => owned_store.as_ref(),
            }
        } else {
            None
        };
        let mut counts = ClassCounts::new();
        let mut details: Vec<RunDetail> = Vec::new();
        let mut anomalies = AnomalyLog::new();
        if let Some(store) = snapshots {
            let thinned = store.stats().thinned;
            if thinned > 0 {
                anomalies.record(Anomaly {
                    run_index: 0,
                    run_seed: cfg.seed,
                    kind: AnomalyKind::SnapshotMemCap,
                    message: format!(
                        "snapshot store exceeded its {} byte cap; thinned {}× to a {}-cycle \
                         interval ({} checkpoints, {} bytes retained)",
                        cfg.snapshot_spec.mem_cap_bytes.unwrap_or(0),
                        thinned,
                        store.interval(),
                        store.len(),
                        store.retained_bytes(),
                    ),
                });
            }
        }
        let mut oracle_skips = 0u64;
        let mut snap_restores = 0u64;
        let mut snap_early_masked = 0u64;
        let (range_start, range_end) = match &range {
            Some(r) => (r.start, r.end),
            None => (0, cfg.runs),
        };
        let mut executed = range_start;
        while executed < range_end {
            let end = match &cfg.adaptive {
                None => range_end,
                Some(a) => (executed + a.batch).min(range_end),
            };
            self.run_batch(
                &program,
                executed..end,
                cycles,
                golden_output,
                golden_code,
                geometry,
                oracle,
                snapshots,
                &mut counts,
                &mut details,
                &mut anomalies,
                &mut oracle_skips,
                &mut snap_restores,
                &mut snap_early_masked,
            )?;
            executed = end;
            if let Some(a) = &cfg.adaptive {
                if executed >= a.min_runs
                    && self.achieved_margin(&counts, cycles, a.z)? <= a.target_margin
                {
                    break;
                }
            }
        }
        let z = cfg.adaptive.as_ref().map(|a| a.z).unwrap_or(stats::Z_99);
        let achieved_margin = Some(self.achieved_margin(&counts, cycles, z)?);
        details.sort_by_key(|d| d.index);
        anomalies.sort();
        Ok(CampaignResult {
            workload: cfg.workload,
            component: cfg.component,
            faults: cfg.faults,
            counts,
            fault_free_cycles: cycles,
            fault_free_instructions: instructions,
            details: if cfg.collect_details {
                Some(details)
            } else {
                None
            },
            anomalies,
            oracle_skips,
            achieved_margin,
            snapshot_stats: snapshots.map(|s| SnapshotStats {
                restores: snap_restores,
                early_masked: snap_early_masked,
                ..s.stats()
            }),
        })
    }

    /// Runs the whole campaign (parallel, deterministic).
    ///
    /// # Panics
    ///
    /// Panics if the golden run fails or a worker dies (see
    /// [`Campaign::try_run`] for the non-panicking form).
    pub fn run(&self) -> CampaignResult {
        match self.try_run() {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Runs a post-injection simulator to `limit`, pausing at every golden
/// checkpoint cycle for a reconvergence check. Returns the run end (if the
/// machine finished) and whether a check proved the run masked.
///
/// The stall-fuse counter is owned here and threaded through every segment
/// ([`Simulator::run_until_cycle_resumable`]), so a livelocked run trips
/// the fuse after exactly as many commit-less cycles as an unsegmented
/// [`Simulator::run_until_cycle`] call would — segmentation cannot change
/// a classification.
fn run_with_reconvergence(
    sim: &mut Simulator,
    store: &SnapshotStore,
    limit: u64,
) -> (Option<RunEnd>, bool) {
    let mut stalled = 0u64;
    loop {
        match store.next_check_after(sim.cycle()).filter(|&c| c < limit) {
            None => return (sim.run_until_cycle_resumable(limit, &mut stalled), false),
            Some(check) => {
                let end = sim.run_until_cycle_resumable(check, &mut stalled);
                if end.is_some() {
                    return (end, false);
                }
                if sim.deadline_hit() {
                    // The run deadline passed mid-segment: surface the
                    // unfinished run the same way `run_until_cycle` does.
                    return (None, false);
                }
                if let Some(golden) = store.golden_at(check) {
                    if sim.converged_with(golden) {
                        return (None, true);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(workload: Workload, component: HwComponent, faults: usize) -> CampaignResult {
        Campaign::new(
            CampaignConfig::new(workload, component, faults)
                .runs(24)
                .seed(7),
        )
        .run()
    }

    #[test]
    fn campaign_counts_match_run_count() {
        let r = small(Workload::Stringsearch, HwComponent::RegFile, 1);
        assert_eq!(r.counts.total(), 24);
        assert!(r.fault_free_cycles > 1000);
        assert!(
            r.anomalies.is_empty(),
            "healthy campaign must be anomaly-free"
        );
    }

    #[test]
    fn results_are_deterministic_across_thread_counts() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::L1D, 2)
            .runs(16)
            .seed(123);
        let a = Campaign::new(base.clone().threads(1)).run();
        let b = Campaign::new(base.threads(4)).run();
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn run_hook_accepts_stateful_closures() {
        // The hook takes any `Fn` closure, not just fn pointers: capture an
        // atomic counter and check every run index was observed exactly once.
        let seen = Arc::new(AtomicUsize::new(0));
        let seen_in_hook = Arc::clone(&seen);
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
                .runs(12)
                .seed(7)
                .threads(3)
                .with_run_hook(move |_| {
                    seen_in_hook.fetch_add(1, Ordering::Relaxed);
                }),
        )
        .run();
        assert_eq!(r.counts.total(), 12);
        assert_eq!(seen.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn different_seeds_generally_differ() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::DTlb, 3).runs(32);
        let a = Campaign::new(base.clone().seed(1)).run();
        let b = Campaign::new(base.seed(2)).run();
        // Not guaranteed in principle, but overwhelmingly likely for a
        // vulnerable component.
        assert!(a.counts != b.counts || a.counts.masked == 32);
    }

    #[test]
    fn large_structures_mostly_mask_single_bits() {
        // The L2 is 4 Mbit; a short workload touches a tiny fraction, so
        // most single-bit faults must be masked.
        let r = small(Workload::Stringsearch, HwComponent::L2, 1);
        assert!(
            r.counts.fraction(FaultEffect::Masked) > 0.7,
            "expected mostly masked, got {}",
            r.counts
        );
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let _ = Campaign::new(CampaignConfig::new(Workload::Sha, HwComponent::L1D, 1).runs(0));
    }

    #[test]
    #[should_panic(expected = "fit the cluster")]
    fn oversized_cardinality_rejected() {
        let _ = Campaign::new(CampaignConfig::new(Workload::Sha, HwComponent::L1D, 10));
    }

    #[test]
    fn try_new_reports_typed_errors() {
        let zero =
            Campaign::try_new(CampaignConfig::new(Workload::Sha, HwComponent::L1D, 1).runs(0));
        assert_eq!(zero.unwrap_err(), CampaignError::ZeroRuns);
        let oversized = Campaign::try_new(CampaignConfig::new(Workload::Sha, HwComponent::L1D, 10));
        assert!(matches!(
            oversized.unwrap_err(),
            CampaignError::CardinalityTooLarge { faults: 10, .. }
        ));
        let tags = Campaign::try_new(
            CampaignConfig::new(Workload::Sha, HwComponent::ITlb, 1)
                .target(InjectionTarget::TagArray),
        );
        assert_eq!(
            tags.unwrap_err(),
            CampaignError::TagArrayUnsupported {
                component: HwComponent::ITlb
            }
        );
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    #[test]
    fn tag_array_campaign_runs_and_classifies() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::L1D, 2)
                .runs(16)
                .seed(31)
                .target(InjectionTarget::TagArray),
        )
        .run();
        assert_eq!(r.counts.total(), 16);
    }

    #[test]
    #[should_panic(expected = "only defined for caches")]
    fn tag_array_rejected_for_tlbs() {
        let _ = Campaign::new(
            CampaignConfig::new(Workload::Sha, HwComponent::DTlb, 1)
                .target(InjectionTarget::TagArray),
        );
    }

    #[test]
    fn in_order_core_is_slower_but_correct() {
        let p = Workload::Stringsearch.program();
        let ooo = Simulator::new(CoreConfig::cortex_a9_like(), &p).run(u64::MAX / 8);
        let ino = Simulator::new(CoreConfig::in_order_a9(), &p).run(u64::MAX / 8);
        assert_eq!(ooo.output, ino.output, "architectural results must agree");
        assert!(
            ino.cycles > ooo.cycles,
            "in-order issue must cost cycles ({} vs {})",
            ino.cycles,
            ooo.cycles
        );
    }

    #[test]
    fn quad_bit_campaign_is_supported() {
        // The paper folds >=4-bit rates into the triple class; the injector
        // itself supports any cardinality that fits the cluster.
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 4)
                .runs(12)
                .seed(8),
        )
        .run();
        assert_eq!(r.counts.total(), 12);
    }
}

#[cfg(test)]
mod detail_tests {
    use super::*;

    #[test]
    fn details_cover_every_run_in_order() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 2)
                .runs(20)
                .seed(11)
                .collect_details(true),
        )
        .run();
        let details = r.details.as_ref().expect("details requested");
        assert_eq!(details.len(), 20);
        for (i, d) in details.iter().enumerate() {
            assert_eq!(d.index, i);
            assert_eq!(d.mask.cardinality(), 2);
            assert!(d.inject_cycle < r.fault_free_cycles);
            assert!(d.cycles <= r.fault_free_cycles * 4 + 1);
        }
        // The class counts must agree with the detail records.
        let mut counts = ClassCounts::new();
        for d in details {
            counts.record(d.effect);
        }
        assert_eq!(counts, r.counts);
    }

    #[test]
    fn details_absent_by_default() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1).runs(4),
        )
        .run();
        assert!(r.details.is_none());
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;

    fn panic_every_fifth(index: usize) {
        if index.is_multiple_of(5) {
            panic!("mock simulator invariant violated in run {index}");
        }
    }

    #[test]
    fn panicking_runs_classify_as_assert_and_campaign_completes() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
                .runs(20)
                .seed(5)
                .with_run_hook(panic_every_fifth)
                .collect_details(true),
        )
        .run();
        // Every run completes; indices 0, 5, 10, 15 panicked.
        assert_eq!(r.counts.total(), 20);
        assert!(
            r.counts.assert_ >= 4,
            "panicked runs classify as Assert: {}",
            r.counts
        );
        assert_eq!(r.anomalies.len(), 4);
        for (a, expected_index) in r.anomalies.entries().iter().zip([0usize, 5, 10, 15]) {
            assert_eq!(a.run_index, expected_index);
            assert_eq!(a.kind, AnomalyKind::Panic);
            assert_eq!(a.run_seed, derive_run_seed(5, expected_index));
            assert!(
                a.message.contains("mock simulator invariant"),
                "payload preserved: {}",
                a.message
            );
        }
        let details = r.details.as_ref().expect("details requested");
        for d in details {
            if d.index.is_multiple_of(5) {
                assert_eq!(d.effect, FaultEffect::Assert);
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts_with_panicking_runs() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 2)
            .runs(24)
            .seed(9)
            .with_run_hook(panic_every_fifth)
            .collect_details(true);
        let one = Campaign::new(base.clone().threads(1)).run();
        let two = Campaign::new(base.clone().threads(2)).run();
        let eight = Campaign::new(base.threads(8)).run();
        assert_eq!(one, two);
        assert_eq!(one, eight);
    }

    #[test]
    fn golden_run_failure_is_a_typed_error() {
        // An absurd timeout factor cannot make the golden run fail — instead
        // exercise the path directly through a config whose workload is
        // healthy but whose golden result is checked: the error type is
        // already covered by unit tests in `error`; here we make sure a
        // healthy golden run does NOT error.
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1).runs(2),
        )
        .try_run();
        assert!(r.is_ok());
    }

    fn stall_hard(index: usize) {
        if index == 1 {
            // Sleeps through the whole 100 ms budget before the run starts,
            // so its deadline has passed by the first poll.
            std::thread::sleep(Duration::from_millis(600));
        }
    }

    #[test]
    fn watchdog_cancels_over_budget_runs() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
                .runs(3)
                .seed(2)
                .threads(1)
                .run_wall_budget(Some(Duration::from_millis(100)))
                .collect_details(true)
                .with_run_hook(stall_hard),
        )
        .run();
        assert_eq!(r.counts.total(), 3);
        // Run 1 slept through its budget: stopped → Timeout + anomaly.
        // (A slow or loaded host may additionally stop a healthy run, so
        // assert containment, not exact equality.)
        assert!(
            r.counts.timeout >= 1,
            "the deadline must stop the stalled run: {}",
            r.counts
        );
        let wall: Vec<_> = r
            .anomalies
            .entries()
            .iter()
            .filter(|a| a.kind == AnomalyKind::WallClock)
            .collect();
        assert!(!wall.is_empty(), "cancellation must be logged");
        assert!(
            wall.iter().any(|a| a.run_index == 1),
            "the stalled run must be among the stopped: {:?}",
            wall
        );
        // A wall-clock anomaly is logged only for a run the deadline cut
        // short, so each one is a Timeout — never a normally finished run.
        let details = r.details.as_ref().expect("details collected");
        for a in &wall {
            let run = details.iter().find(|d| d.index == a.run_index);
            assert_eq!(
                run.map(|d| d.effect),
                Some(FaultEffect::Timeout),
                "run {} logged as wall-clock but not counted as Timeout",
                a.run_index
            );
        }
    }

    #[test]
    fn watchdog_disabled_means_no_wall_clock_anomalies() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
                .runs(4)
                .seed(3)
                .run_wall_budget(None),
        )
        .run();
        assert!(r.anomalies.is_empty());
    }
}

#[cfg(test)]
mod snapshot_campaign_tests {
    use super::*;

    #[test]
    fn snapshot_campaign_is_bit_identical_to_plain() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 2)
            .runs(20)
            .seed(41)
            .collect_details(true);
        let plain = Campaign::new(base.clone()).run();
        let fast = Campaign::new(base.use_snapshots(true)).run();
        assert_eq!(plain.counts, fast.counts);
        assert_eq!(plain.details, fast.details);
        assert_eq!(plain.anomalies, fast.anomalies);
        let stats = fast.snapshot_stats.expect("stats present when enabled");
        assert!(stats.snapshots >= 2);
        assert!(stats.restores > 0, "runs must fast-forward: {stats:?}");
        assert!(plain.snapshot_stats.is_none());
    }

    #[test]
    fn snapshot_mem_cap_degrades_gracefully_and_is_logged() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::DTlb, 1)
            .runs(12)
            .seed(5)
            .collect_details(true);
        let plain = Campaign::new(base.clone()).run();
        let capped = Campaign::new(base.use_snapshots(true).snapshot_spec(SnapshotSpec {
            interval: Some(512),
            // Far below what a 512-cycle interval retains: forces thinning.
            mem_cap_bytes: Some(100_000),
        }))
        .run();
        assert_eq!(plain.counts, capped.counts, "thinning never reclassifies");
        assert_eq!(plain.details, capped.details);
        let stats = capped.snapshot_stats.expect("stats present");
        assert!(stats.thinned >= 1, "cap must thin the store: {stats:?}");
        assert!(
            capped
                .anomalies
                .entries()
                .iter()
                .any(|a| a.kind == AnomalyKind::SnapshotMemCap),
            "cap degradation must be surfaced in the anomaly log"
        );
    }

    #[test]
    fn early_masked_runs_report_golden_cycles() {
        // A large, mostly-dead structure: most faults mask, so reconvergence
        // must fire and the early-exited runs must record exactly the golden
        // cycle count (what full simulation of a masked run produces).
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::L2, 1)
                .runs(16)
                .seed(13)
                .use_snapshots(true)
                .collect_details(true),
        )
        .run();
        let stats = r.snapshot_stats.expect("stats present");
        assert!(
            stats.early_masked > 0,
            "mostly-masked L2 campaign must reconverge early: {stats:?}"
        );
        for d in r.details.as_ref().unwrap() {
            if d.effect == FaultEffect::Masked {
                assert_eq!(d.cycles, r.fault_free_cycles);
            }
        }
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;

    #[test]
    fn invalid_adaptive_specs_are_rejected() {
        let base = || CampaignConfig::new(Workload::Stringsearch, HwComponent::L1D, 1).runs(100);
        let bad_margin = AdaptiveSpec {
            target_margin: 0.0,
            ..AdaptiveSpec::paper()
        };
        assert!(matches!(
            Campaign::try_new(base().adaptive(Some(bad_margin))).unwrap_err(),
            CampaignError::InvalidAdaptiveSpec { .. }
        ));
        let bad_z = AdaptiveSpec {
            z: -1.0,
            ..AdaptiveSpec::paper()
        };
        assert!(matches!(
            Campaign::try_new(base().adaptive(Some(bad_z))).unwrap_err(),
            CampaignError::InvalidAdaptiveSpec { .. }
        ));
        let bad_batch = AdaptiveSpec {
            batch: 0,
            ..AdaptiveSpec::paper()
        };
        assert!(matches!(
            Campaign::try_new(base().adaptive(Some(bad_batch))).unwrap_err(),
            CampaignError::InvalidAdaptiveSpec { .. }
        ));
        let bad_min = AdaptiveSpec {
            min_runs: 0,
            ..AdaptiveSpec::paper()
        };
        assert!(matches!(
            Campaign::try_new(base().adaptive(Some(bad_min))).unwrap_err(),
            CampaignError::InvalidAdaptiveSpec { .. }
        ));
        assert!(Campaign::try_new(base().adaptive(Some(AdaptiveSpec::paper()))).is_ok());
    }

    /// ISSUE 3 acceptance: a high-mask campaign under adaptive sampling
    /// stops measurably earlier than the paper's fixed 2 000 runs while
    /// still achieving the paper's 2.88 % margin.
    #[test]
    fn adaptive_stops_high_mask_campaign_early_with_paper_margin() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::L2, 1)
                .runs(2000)
                .seed(17)
                .use_liveness_oracle(true)
                .adaptive(Some(AdaptiveSpec::paper())),
        )
        .run();
        let margin = r.achieved_margin.expect("margin always computed");
        assert!(
            r.counts.total() < 2000,
            "adaptive sampling must stop early, ran all {} runs",
            r.counts.total()
        );
        assert!(
            margin <= 0.0288,
            "achieved margin {margin} must meet the paper's 2.88 % target"
        );
        // Near-fully-masked L2 campaigns converge fast: one or two batches.
        assert!(
            r.counts.total() <= 400,
            "expected convergence within a few batches, got {}",
            r.counts.total()
        );
    }

    #[test]
    fn adaptive_campaign_is_deterministic_across_thread_counts() {
        let base = CampaignConfig::new(Workload::Stringsearch, HwComponent::L2, 1)
            .runs(600)
            .seed(23)
            .adaptive(Some(AdaptiveSpec {
                target_margin: 0.0288,
                z: stats::Z_99,
                min_runs: 50,
                batch: 50,
            }));
        let a = Campaign::new(base.clone().threads(1)).run();
        let b = Campaign::new(base.threads(4)).run();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.achieved_margin, b.achieved_margin);
    }

    #[test]
    fn fixed_campaigns_still_report_achieved_margin() {
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 1)
                .runs(24)
                .seed(7),
        )
        .run();
        assert_eq!(r.counts.total(), 24);
        let margin = r
            .achieved_margin
            .expect("fixed campaigns report margin too");
        assert!(margin > 0.0 && margin < 1.0, "got {margin}");
    }

    #[test]
    fn adaptive_never_exceeds_configured_runs_cap() {
        // A small, vulnerable structure with a loose cap: the margin check
        // may never trigger, but the cap still bounds the campaign.
        let r = Campaign::new(
            CampaignConfig::new(Workload::Stringsearch, HwComponent::RegFile, 2)
                .runs(120)
                .seed(29)
                .adaptive(Some(AdaptiveSpec {
                    target_margin: 0.001,
                    z: stats::Z_99,
                    min_runs: 40,
                    batch: 40,
                })),
        )
        .run();
        assert_eq!(r.counts.total(), 120, "cap must bound adaptive campaigns");
    }
}

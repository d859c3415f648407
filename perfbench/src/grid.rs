//! `grid-sampled`: the paper's sampled grid — every component × fault
//! cardinality 1–3 over three MiBench workloads — from cycle 0 with
//! snapshots off, through `Experiments::run_sweep_with` and a real
//! checkpoint. The seed permutes the component and workload order; the
//! campaigns (and so their recorded digests) are the same for every seed.

use crate::stats::digest;
use crate::trace::{TimingIo, Tracer};
use crate::{shuffled, Bench, Ctx, Phase};
use mbu_bench::store::component_slug;
use mbu_bench::{Experiments, ResultStore, SweepControl};
use mbu_cpu::HwComponent;
use mbu_gefin::{golden_fingerprint, Campaign, CampaignConfig, CampaignResult, GoldenFingerprint};
use mbu_workloads::Workload;
use std::collections::BTreeMap;

/// The paper's default campaign seed (`repro measure`'s `MBU_SEED`).
pub const CAMPAIGN_SEED: u64 = 0x6EF1_2019;
/// Injection runs per campaign.
const RUNS: usize = 20;
/// Threads per campaign (and per class range). One: on a shared two-vCPU
/// host the second vCPU's availability swings from run to run, which made
/// two-thread throughput spread about three times wider than one thread's.
pub const THREADS: usize = 1;
/// A short run (stringsearch, 20 k cycles), a medium one at fast Mcyc/s
/// (qsort) and one at slow Mcyc/s (gsm_dec).
const WORKLOADS: [Workload; 3] = [Workload::Stringsearch, Workload::Qsort, Workload::GsmDec];

/// Golden-run fingerprints per workload: the reference every stored row
/// must carry.
pub type Fingerprints = BTreeMap<Workload, GoldenFingerprint>;

/// The fingerprints of `workloads`' golden runs, computed in-process.
pub fn golden_fingerprints(
    tracer: &Tracer,
    workloads: &[Workload],
) -> Result<Fingerprints, String> {
    let core = mbu_cpu::CoreConfig::cortex_a9_like();
    workloads
        .iter()
        .map(|&w| {
            tracer
                .span("cpu.golden_fingerprint", || golden_fingerprint(core, w))
                .map(|fp| (w, fp))
                .map_err(|e| format!("{w} golden run: {e}"))
        })
        .collect()
}

/// The grid workload's state.
#[derive(Default)]
pub struct Grid {
    fingerprints: Fingerprints,
}

/// Operation key of one campaign.
pub fn campaign_key(c: HwComponent, w: Workload, faults: usize) -> String {
    format!("{}/{}/{faults}", component_slug(c), w.name())
}

/// Digest of one campaign's simulated statistics: its key, class counts,
/// and golden cycles and instructions.
pub fn campaign_digest(r: &CampaignResult) -> String {
    let c = &r.counts;
    digest(
        format!(
            "{} {} {} {} {} {} {} {}",
            campaign_key(r.component, r.workload, r.faults),
            c.masked,
            c.sdc,
            c.crash,
            c.timeout,
            c.assert_,
            r.fault_free_cycles,
            r.fault_free_instructions
        )
        .as_bytes(),
    )
}

/// A campaign result as an operation outcome: anomalies fail it.
pub fn campaign_outcome(r: &CampaignResult) -> Result<String, String> {
    if r.anomalies.is_empty() {
        Ok(campaign_digest(r))
    } else {
        Err(format!("{} anomalies", r.anomalies.len()))
    }
}

fn experiments(workloads: Vec<Workload>) -> Experiments {
    Experiments {
        runs: RUNS,
        seed: CAMPAIGN_SEED,
        threads: THREADS,
        workloads,
        use_snapshots: false,
        ..Experiments::default()
    }
}

/// The configuration `Experiments::run_sweep_with` gives each campaign of
/// the grid, rebuilt for the traced per-campaign path.
fn campaign_config(c: HwComponent, w: Workload, faults: usize) -> CampaignConfig {
    CampaignConfig::new(w, c, faults)
        .runs(RUNS)
        .seed(CAMPAIGN_SEED)
        .threads(THREADS)
        .adaptive(None)
        .use_snapshots(false)
}

impl Grid {
    /// The untraced pass: one `run_sweep_with` call over the whole grid.
    fn sweep_pass(
        &self,
        ctx: &Ctx,
        tracer: &Tracer,
        order: u64,
        out: &mut Phase,
    ) -> Result<(), String> {
        let comps = shuffled(&HwComponent::ALL, order);
        let exp = experiments(shuffled(&WORKLOADS, order ^ 1));
        let path = ctx.work.join(format!("grid-{order:016x}.csv"));
        let io = TimingIo::new(tracer);
        let control = SweepControl {
            io: &io,
            ..SweepControl::default()
        };
        let mut store = ResultStore::new();
        let start = tracer.now();
        let report = exp
            .run_sweep_with(&comps, &mut store, Some(&path), &control)
            .map_err(|e| format!("checkpoint: {e}"))?;
        let mut last = start;
        let ends = io.append_ends();
        // Campaigns append in sweep order: component, workload, faults.
        let mut finished = Vec::new();
        for &c in &comps {
            for &w in &exp.workloads {
                for faults in exp.cardinalities() {
                    if let Some(r) = store.get(c, w, faults) {
                        finished.push(r.clone());
                    }
                }
            }
        }
        if finished.len() != ends.len() {
            return Err(format!(
                "{} campaigns but {} checkpoint appends",
                finished.len(),
                ends.len()
            ));
        }
        for (r, end) in finished.iter().zip(ends) {
            let key = campaign_key(r.component, r.workload, r.faults);
            out.count_campaign(r);
            let outcome = if store.fingerprint(r.component, r.workload, r.faults)
                == self.fingerprints.get(&r.workload).copied()
            {
                campaign_outcome(r)
            } else {
                Err("golden fingerprint differs from this build's".into())
            };
            out.record(key, outcome, end - last, r.counts.total());
            last = end;
        }
        for ((c, w, faults), e) in &report.failed {
            out.record(campaign_key(*c, *w, *faults), Err(e.to_string()), 0.0, 0);
        }
        let (_, audit) = ResultStore::recover(&path).map_err(|e| format!("recover: {e}"))?;
        if !audit.quarantined.is_empty() {
            return Err(format!(
                "{} defective checkpoint rows",
                audit.quarantined.len()
            ));
        }
        Ok(())
    }

    /// The traced pass: the same grid in the same order, through the
    /// public per-campaign calls, each wrapped in a span.
    fn traced_pass(
        &self,
        ctx: &Ctx,
        tracer: &Tracer,
        order: u64,
        out: &mut Phase,
    ) -> Result<(), String> {
        let comps = shuffled(&HwComponent::ALL, order);
        let workloads = shuffled(&WORKLOADS, order ^ 1);
        let path = ctx.work.join(format!("grid-traced-{order:016x}.csv"));
        let io = TimingIo::new(tracer);
        let mut artifacts = BTreeMap::new();
        for &c in &comps {
            for &w in &workloads {
                for faults in 1..=3 {
                    out.next_op(tracer);
                    let start = tracer.now();
                    let r = tracer.span("op.campaign", || {
                        let a = artifacts.entry(w).or_insert_with(|| {
                            tracer.span("cpu.build_artifacts", || {
                                Campaign::try_new(campaign_config(HwComponent::RegFile, w, 1))
                                    .and_then(|c| c.build_artifacts())
                            })
                        });
                        let a = a.as_ref().map_err(|e| e.to_string())?;
                        let r = tracer
                            .span(
                                &format!("campaign.try_run_with_artifacts.{}", component_slug(c)),
                                || {
                                    Campaign::try_new(campaign_config(c, w, faults))
                                        .and_then(|camp| camp.try_run_with_artifacts(Some(a)))
                                },
                            )
                            .map_err(|e| e.to_string())?;
                        tracer
                            .span("store.append_row", || {
                                ResultStore::append_row_with(
                                    &io,
                                    &path,
                                    &r,
                                    self.fingerprints.get(&w).copied(),
                                )
                            })
                            .map_err(|e| format!("checkpoint: {e}"))?;
                        Ok::<_, String>(r)
                    });
                    let key = campaign_key(c, w, faults);
                    match r {
                        Ok(r) => {
                            out.count_campaign(&r);
                            out.record(
                                key,
                                campaign_outcome(&r),
                                tracer.now() - start,
                                r.counts.total(),
                            )
                        }
                        Err(e) => out.record(key, Err(e), tracer.now() - start, 0),
                    }
                }
            }
        }
        let (_, audit) = tracer
            .span("store.recover", || ResultStore::recover(&path))
            .map_err(|e| format!("recover: {e}"))?;
        if !audit.quarantined.is_empty() {
            return Err(format!(
                "{} defective checkpoint rows",
                audit.quarantined.len()
            ));
        }
        Ok(())
    }
}

impl Bench for Grid {
    fn reaches(&self) -> &'static [&'static str] {
        &["campaign", "store"]
    }

    fn setup(&mut self, _ctx: &Ctx, tracer: &Tracer) -> Result<(), String> {
        // The checkpoint rows of both passes must carry these.
        self.fingerprints = golden_fingerprints(tracer, &WORKLOADS)?;
        Ok(())
    }

    fn pass(
        &mut self,
        ctx: &Ctx,
        tracer: &Tracer,
        order: u64,
        out: &mut Phase,
    ) -> Result<(), String> {
        if tracer.on() {
            self.traced_pass(ctx, tracer, order, out)
        } else {
            self.sweep_pass(ctx, tracer, order, out)
        }
    }
}

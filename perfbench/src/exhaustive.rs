//! `exhaustive-tlb`: `repro exhaustive`-style equivalence-class plans for
//! the DTLB, ITLB and physical register file on stringsearch, with
//! snapshots on. Each operation is one `ExhaustivePlan::run_class_range`
//! call over a fixed range; the ranges are spread across each live index
//! (a prefix is not representative) and the seed permutes their order.

use crate::grid::{CAMPAIGN_SEED, THREADS};
use crate::stats::digest;
use crate::trace::Tracer;
use crate::{shuffled, Bench, Ctx, Phase};
use mbu_bench::store::component_slug;
use mbu_cpu::HwComponent;
use mbu_gefin::{
    Campaign, CampaignConfig, ClassOutcome, ExhaustivePlan, ExhaustiveSpec, GoldenArtifacts,
};
use mbu_workloads::Workload;

const WORKLOAD: Workload = Workload::Stringsearch;
/// The structures `repro exhaustive` enumerates.
pub const COMPONENTS: [HwComponent; 3] =
    [HwComponent::DTlb, HwComponent::ITlb, HwComponent::RegFile];
/// Class ranges per component, evenly spread across its live index.
const RANGES: usize = 24;
/// Live classes per range.
const RANGE_LEN: usize = 160;

/// The configuration `repro exhaustive` gives each plan: the sampled-path
/// campaign configuration at one bit, never adaptive, snapshots on.
pub fn plan_config(c: HwComponent) -> CampaignConfig {
    CampaignConfig::new(WORKLOAD, c, 1)
        .seed(CAMPAIGN_SEED)
        .threads(THREADS)
        .adaptive(None)
        .use_snapshots(true)
}

/// Short name used in operation keys and metric names (`prf` for the
/// physical register file).
pub fn short(c: HwComponent) -> &'static str {
    match c {
        HwComponent::RegFile => "prf",
        other => component_slug(other),
    }
}

/// Digest of a class range: every outcome's class id, weight, class and
/// run length, plus the golden cycles and instructions. The injected
/// member cycle is left out: any member gives the same outcome.
pub fn range_digest(key: &str, outcomes: &[ClassOutcome], golden: &GoldenArtifacts) -> String {
    let mut text = format!("{key} {} {}\n", golden.cycles(), golden.instructions());
    for o in outcomes {
        text.push_str(&format!(
            "{} {} {} {}\n",
            o.class_id, o.weight, o.effect, o.cycles
        ));
    }
    digest(text.as_bytes())
}

/// Evenly spread range starts over a live index of `live` classes.
pub fn range_starts(live: usize, ranges: usize, len: usize) -> Vec<usize> {
    if live <= len {
        return vec![0];
    }
    let span = live - len;
    (0..ranges)
        .map(|k| {
            if ranges == 1 {
                0
            } else {
                k * span / (ranges - 1)
            }
        })
        .collect()
}

/// The compiled plans and shared golden artifacts.
#[derive(Default)]
pub struct Exhaustive {
    artifacts: Option<GoldenArtifacts>,
    plans: Vec<(HwComponent, ExhaustivePlan)>,
}

impl Exhaustive {
    /// The compiled plans.
    pub fn plans(&self) -> &[(HwComponent, ExhaustivePlan)] {
        &self.plans
    }

    /// Compiles every plan (segment-capture golden run, partition, live
    /// index) and records the shared snapshot store.
    pub fn compile(tracer: &Tracer) -> Result<Self, String> {
        let artifacts = tracer
            .span("snap.build_artifacts", || {
                Campaign::try_new(plan_config(HwComponent::RegFile))
                    .and_then(|c| c.build_artifacts())
            })
            .map_err(|e| format!("golden artifacts: {e}"))?;
        let mut plans = Vec::new();
        for c in COMPONENTS {
            let plan = tracer
                .span("exhaustive.try_new", || {
                    ExhaustivePlan::try_new(plan_config(c), ExhaustiveSpec::default())
                })
                .map_err(|e| format!("{} plan: {e}", short(c)))?;
            plans.push((c, plan));
        }
        Ok(Exhaustive {
            artifacts: Some(artifacts),
            plans,
        })
    }

    /// Runs one class range of component `c` as an operation.
    pub fn run_range(
        &self,
        tracer: &Tracer,
        plan: &ExhaustivePlan,
        c: HwComponent,
        start: usize,
        out: &mut Phase,
    ) {
        let artifacts = self.artifacts.as_ref().expect("compiled before running");
        let end = (start + RANGE_LEN).min(plan.live_classes());
        let key = format!("{}/{start}-{end}", short(c));
        out.next_op(tracer);
        let t0 = tracer.now();
        let r = tracer.span("op.range", || {
            tracer.span(&format!("exhaustive.run_class_range.{}", short(c)), || {
                plan.run_class_range(start..end, Some(artifacts))
            })
        });
        let secs = tracer.now() - t0;
        match r {
            Ok(outcomes) => {
                let cycles: u64 = outcomes.iter().map(|o| o.cycles).sum();
                out.count(&format!("exhaustive.{}.cycles", short(c)), cycles);
                out.count(
                    &format!("exhaustive.{}.classes", short(c)),
                    outcomes.len() as u64,
                );
                let d = range_digest(&key, &outcomes, artifacts);
                out.record(key, Ok(d), secs, outcomes.len() as u64);
            }
            Err(e) => out.record(key, Err(e.to_string()), secs, 0),
        }
    }
}

impl Bench for Exhaustive {
    fn reaches(&self) -> &'static [&'static str] {
        &["exhaustive"]
    }

    fn setup(&mut self, _ctx: &Ctx, tracer: &Tracer) -> Result<(), String> {
        *self = Exhaustive::compile(tracer)?;
        Ok(())
    }

    fn pass(
        &mut self,
        _ctx: &Ctx,
        tracer: &Tracer,
        order: u64,
        out: &mut Phase,
    ) -> Result<(), String> {
        let mut ranges = Vec::new();
        for (i, (_, plan)) in self.plans.iter().enumerate() {
            for start in range_starts(plan.live_classes(), RANGES, RANGE_LEN) {
                ranges.push((i, start));
            }
        }
        for (i, start) in shuffled(&ranges, order) {
            let (c, plan) = &self.plans[i];
            self.run_range(tracer, plan, *c, start, out);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_starts_spread_across_the_live_index() {
        assert_eq!(range_starts(1000, 5, 100), vec![0, 225, 450, 675, 900]);
        assert_eq!(range_starts(50, 5, 100), vec![0]);
        assert_eq!(range_starts(1000, 1, 100), vec![0]);
    }
}

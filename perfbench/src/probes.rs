//! Fixed-work probes of single layers, each timed from outside through
//! the layer's public functions. Every traced run executes the probes of
//! the layers its own loop does not reach, so every traced run reports
//! every per-layer metric.

use crate::exhaustive::Exhaustive;
use crate::grid::{campaign_outcome, CAMPAIGN_SEED};
use crate::service::Service;
use crate::trace::{TimingIo, Tracer};
use crate::{Ctx, Phase};
use mbu_bench::protocol::{read_frame, write_frame, ExpSpec};
use mbu_bench::store::component_slug;
use mbu_bench::{ResultStore, ShardRow, ToSupervisor, ToWorker};
use mbu_cpu::{CoreConfig, HwComponent, Simulator};
use mbu_gefin::{
    Campaign, CampaignConfig, CampaignResult, GoldenArtifacts, GoldenFingerprint, SnapshotSpec,
    UnitSpec,
};
use mbu_mem::MemorySystem;
use mbu_workloads::Workload;
use std::io::Cursor;

/// Repeats of the whole-suite golden runs.
const CPU_REPEATS: usize = 3;
/// Accesses replayed per memory operation kind.
pub const MEM_ACCESSES: u32 = 200_000;
/// Frame round trips.
pub const FRAMES: usize = 2_000;
/// Runs per probe campaign.
const PROBE_RUNS: usize = 20;
/// Workloads the snapshot probe records: the grid's.
const SNAP_WORKLOADS: [Workload; 3] = [Workload::Stringsearch, Workload::Qsort, Workload::GsmDec];

/// Runs every always-on probe, then the probe of each layer in
/// `[campaign, store, exhaustive, serve]` the workload's loop does not
/// reach.
pub fn run(ctx: &Ctx, tracer: &Tracer, reached: &[&str], out: &mut Phase) -> Result<(), String> {
    out.next_op(tracer);
    cpu_and_programs(tracer, out)?;
    out.next_op(tracer);
    memory(tracer, out)?;
    out.next_op(tracer);
    snapshots(tracer, out)?;
    out.next_op(tracer);
    protocol(tracer)?;
    let results = if reached.contains(&"campaign") {
        Vec::new()
    } else {
        campaigns(tracer, out)?
    };
    if !reached.contains(&"store") {
        store(ctx, tracer, &results)?;
    }
    if !reached.contains(&"exhaustive") {
        let ex = Exhaustive::compile(tracer)?;
        let mut probe = out.probe();
        for (c, plan) in ex.plans() {
            ex.run_range(tracer, plan, *c, plan.live_classes() / 2, &mut probe);
        }
        absorb_probe(out, &probe, "exhaustive")?;
    }
    if !reached.contains(&"serve") {
        let mut probe = out.probe();
        Service::probe(ctx, tracer, &mut probe)?;
        absorb_probe(out, &probe, "service")?;
    }
    Ok(())
}

/// Folds a probe's counts into `out`; a probe operation that failed fails
/// the run.
fn absorb_probe(out: &mut Phase, probe: &Phase, what: &str) -> Result<(), String> {
    if probe.tally.failed > 0 {
        return Err(format!("{what} probe: {:?}", probe.tally.reasons));
    }
    out.absorb_counts(probe);
    Ok(())
}

/// `Simulator::run` over all 15 workloads, and `Workload::program`.
fn cpu_and_programs(tracer: &Tracer, out: &mut Phase) -> Result<(), String> {
    let core = CoreConfig::cortex_a9_like();
    for _ in 0..CPU_REPEATS {
        for w in Workload::ALL {
            let p = tracer.span("workloads.program", || w.program());
            let t0 = tracer.now();
            let r = tracer.span("cpu.run", || Simulator::new(core, &p).run(u64::MAX / 8));
            let secs = tracer.now() - t0;
            if !matches!(r.end, mbu_cpu::RunEnd::Exited { code: 0 }) {
                return Err(format!("{w} golden run ended {:?}", r.end));
            }
            out.count(&format!("cpu.cycles.{}", w.name()), r.cycles);
            out.sample(&format!("cpu.secs.{}", w.name()), secs);
        }
    }
    Ok(())
}

/// Replays a workload-derived address stream through
/// `MemorySystem::{fetch, read, write}`: fetches walk qsort's text in
/// basic blocks of eight instructions, loads and stores hit its data
/// segment at pseudo-random word offsets.
fn memory(tracer: &Tracer, out: &mut Phase) -> Result<(), String> {
    let program = Workload::Qsort.program();
    let mut ms = MemorySystem::for_program(CoreConfig::cortex_a9_like().mem, &program);
    let text_words = program.text.len() as u32;
    let data_words = (program.data.len() as u32 / 4).max(1);
    let mut rng = crate::SplitMix(0x6EF1_2019);
    let mut pc = 0u32;
    let fault = |e: mbu_mem::MemFault| format!("memory probe: {e:?}");
    tracer.span("mem.fetch", || {
        for i in 0..MEM_ACCESSES {
            if i % 8 == 0 {
                pc = (rng.next_u64() % u64::from(text_words)) as u32;
            }
            let va = mbu_isa::TEXT_BASE + 4 * (pc % text_words);
            std::hint::black_box(ms.fetch(va).map_err(fault)?);
            pc += 1;
        }
        Ok::<_, String>(())
    })?;
    let before = ms.l1d.stats();
    tracer.span("mem.read", || {
        for _ in 0..MEM_ACCESSES {
            let va = mbu_isa::DATA_BASE + 4 * (rng.next_u64() % u64::from(data_words)) as u32;
            std::hint::black_box(ms.read(va, 4).map_err(fault)?);
        }
        Ok::<_, String>(())
    })?;
    tracer.span("mem.write", || {
        for i in 0..MEM_ACCESSES {
            let va = mbu_isa::DATA_BASE + 4 * (rng.next_u64() % u64::from(data_words)) as u32;
            ms.write(va, 4, i).map_err(fault)?;
        }
        Ok::<_, String>(())
    })?;
    let after = ms.l1d.stats();
    out.count("mem.l1d_hits", after.hits - before.hits);
    out.count("mem.l1d_misses", after.misses - before.misses);
    Ok(())
}

/// `GoldenArtifacts::build` with and without a snapshot spec, and
/// `Simulator::converged_with` against every recorded checkpoint.
fn snapshots(tracer: &Tracer, out: &mut Phase) -> Result<(), String> {
    let core = CoreConfig::cortex_a9_like();
    for w in SNAP_WORKLOADS {
        let p = w.program();
        let t0 = tracer.now();
        tracer
            .span("cpu.golden", || GoldenArtifacts::build(core, &p, None))
            .map_err(|e| format!("{w}: {e:?}"))?;
        let t1 = tracer.now();
        let a = tracer
            .span("snap.build_with_snapshots", || {
                GoldenArtifacts::build(core, &p, Some(SnapshotSpec::default()))
            })
            .map_err(|e| format!("{w}: {e:?}"))?;
        let t2 = tracer.now();
        out.sample("snap.record_s", (t2 - t1) - (t1 - t0));
        let store = a.snapshot_store().ok_or("no snapshot store recorded")?;
        out.count("snap.retained_bytes", store.retained_bytes());
        let mut sim = Simulator::new(core, &p);
        let mut cycle = 0;
        while let Some(next) = store.next_check_after(cycle) {
            cycle = next;
            sim.run_until_cycle(cycle);
            let golden = store.golden_at(cycle).ok_or("checkpoint vanished")?;
            let t = tracer.now();
            let same = tracer.span("snap.converged_with", || sim.converged_with(golden));
            out.sample("snap.converged_s", tracer.now() - t);
            if !same {
                return Err(format!("{w}: fault-free rerun diverged at cycle {cycle}"));
            }
        }
    }
    Ok(())
}

/// `write_frame` + `read_frame` round trips of an assign and a done
/// message of realistic size.
fn protocol(tracer: &Tracer) -> Result<(), String> {
    let unit = UnitSpec::whole(HwComponent::L1D, Workload::Qsort, 2, 2000);
    let assign = ToWorker::Assign {
        unit_id: 41,
        unit,
        exp: ExpSpec {
            runs: 2000,
            seed: CAMPAIGN_SEED,
            threads: 1,
            adaptive: None,
            use_snapshots: true,
            snapshot_interval: None,
            snapshot_mem_mb: None,
            use_golden_cache: true,
            equiv: None,
        },
    }
    .to_json();
    let done = ToSupervisor::Done {
        unit_id: 41,
        row: ShardRow {
            unit,
            seed: CAMPAIGN_SEED,
            counts: mbu_gefin::ClassCounts {
                masked: 1712,
                sdc: 161,
                crash: 98,
                timeout: 21,
                assert_: 8,
            },
            fault_free_cycles: 141_944,
            fault_free_instructions: 97_664,
            fingerprint: GoldenFingerprint(0x0123_4567_89ab_cdef),
            exhaustive: None,
        },
        anomalies: 0,
    }
    .to_json();
    let mut buf = Vec::new();
    tracer.span("protocol.frame_roundtrip", || {
        for _ in 0..FRAMES {
            for msg in [&assign, &done] {
                buf.clear();
                write_frame(&mut buf, msg).map_err(|e| e.to_string())?;
                let back = read_frame(&mut Cursor::new(&buf)).map_err(|e| format!("{e:?}"))?;
                if std::hint::black_box(&back) != msg {
                    return Err("frame round trip changed the message".to_string());
                }
            }
        }
        Ok(())
    })
}

/// One stringsearch campaign per component through
/// `Campaign::try_run_with_artifacts`, snapshots on.
fn campaigns(tracer: &Tracer, out: &mut Phase) -> Result<Vec<CampaignResult>, String> {
    let config = |c: HwComponent| {
        CampaignConfig::new(Workload::Stringsearch, c, 1)
            .runs(PROBE_RUNS)
            .seed(CAMPAIGN_SEED)
            .threads(crate::grid::THREADS)
            .use_snapshots(true)
    };
    let artifacts = tracer
        .span("campaign.build_artifacts", || {
            Campaign::try_new(config(HwComponent::RegFile)).and_then(|c| c.build_artifacts())
        })
        .map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for c in HwComponent::ALL {
        let r = tracer
            .span(
                &format!("campaign.try_run_with_artifacts.{}", component_slug(c)),
                || {
                    Campaign::try_new(config(c))
                        .and_then(|camp| camp.try_run_with_artifacts(Some(&artifacts)))
                },
            )
            .map_err(|e| e.to_string())?;
        campaign_outcome(&r)?;
        out.count_campaign(&r);
        results.push(r);
    }
    Ok(results)
}

/// Checkpoint appends through the timing `StoreIo`, then
/// `ResultStore::recover`.
fn store(ctx: &Ctx, tracer: &Tracer, results: &[CampaignResult]) -> Result<(), String> {
    let path = ctx.work.join("probe-store.csv");
    let io = TimingIo::new(tracer);
    for _ in 0..9 {
        for r in results {
            tracer
                .span("store.append_row", || {
                    ResultStore::append_row_with(&io, &path, r, None)
                })
                .map_err(|e| e.to_string())?;
        }
    }
    let (store, audit) = tracer
        .span("store.recover", || ResultStore::recover(&path))
        .map_err(|e| e.to_string())?;
    if !audit.quarantined.is_empty() || store.len() != results.len() {
        return Err("store probe read back a different store".into());
    }
    Ok(())
}

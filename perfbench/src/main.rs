//! The repository's benchmark: three workloads, timed end to end, with a
//! separate traced run that times each layer from outside.
//!
//! ```text
//! perfbench --workload <grid-sampled|exhaustive-tlb|service-jobs>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --repro <path to the built repro binary>
//!           --expected <path to expected.json> [--record]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones, and writes every
//! span and raw operation duration to `.perfbench/trace-<workload>-<seed>.json`.
//! `--record` runs one pass and stores its digests as the expected ones.

mod exhaustive;
mod grid;
mod probes;
mod service;
mod stats;
mod trace;

use mbu_bench::Json;
use stats::{layer_self_times, median, pass_digest, percentile, Tally};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// What every workload is given.
pub struct Ctx {
    /// Seconds to measure for.
    pub seconds: f64,
    /// Scratch directory inside the checkout, removed at the end.
    pub work: PathBuf,
    /// The built `repro` binary.
    pub repro: PathBuf,
}

/// What the operations of one measured phase produced.
#[derive(Default)]
pub struct Phase {
    /// Digests to check operations against; `None` for probes.
    expected: Option<BTreeMap<String, String>>,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Simulations classified.
    pub sims: u64,
    /// Raw duration of every operation, in run order.
    pub op_secs: Vec<f64>,
    /// First digest seen per operation key.
    pub ops: BTreeMap<String, String>,
    /// Event counts from the layers.
    pub counts: BTreeMap<String, u64>,
    /// Sampled quantities from the layers.
    pub samples: BTreeMap<String, Vec<f64>>,
    next_op: u64,
}

impl Phase {
    fn checked(expected: BTreeMap<String, String>) -> Phase {
        Phase {
            expected: Some(expected),
            ..Phase::default()
        }
    }

    /// Starts a new operation: spans recorded from here on carry its id.
    pub fn next_op(&mut self, tracer: &Tracer) {
        self.next_op += 1;
        tracer.set_op(self.next_op);
    }

    /// Records one finished operation and checks its digest.
    pub fn record(&mut self, key: String, got: Result<String, String>, secs: f64, sims: u64) {
        self.tally.check(
            &key,
            got.as_deref().map_err(String::as_str),
            self.expected.as_ref(),
        );
        self.op_secs.push(secs);
        self.sims += sims;
        if let Ok(d) = got {
            self.ops.entry(key).or_insert(d);
        }
    }

    /// Adds to an event count.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += n;
    }

    /// Adds a sample.
    pub fn sample(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    /// Counts a finished campaign's runs and early-`Masked` exits.
    pub fn count_campaign(&mut self, r: &mbu_gefin::CampaignResult) {
        self.count("campaign.runs", r.counts.total());
        let early = r.snapshot_stats.map_or(0, |s| s.early_masked);
        self.count("campaign.early_masked", early);
    }

    /// An unchecked phase for a probe, continuing this phase's operation
    /// ids.
    pub fn probe(&self) -> Phase {
        Phase {
            next_op: self.next_op,
            ..Phase::default()
        }
    }

    /// Folds a probe's counts, samples and operation ids into this phase.
    pub fn absorb_counts(&mut self, other: &Phase) {
        self.next_op = self.next_op.max(other.next_op);
        for (k, v) in &other.counts {
            self.count(k, *v);
        }
        for (k, v) in &other.samples {
            self.samples.entry(k.clone()).or_default().extend(v);
        }
    }
}

/// One benchmark workload.
pub trait Bench {
    /// Layers its own loop reaches; probes cover the others.
    fn reaches(&self) -> &'static [&'static str];
    /// Everything before the first timed operation.
    fn setup(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<(), String>;
    /// One pass over the workload's fixed operations, in the order `order`
    /// picks.
    fn pass(
        &mut self,
        ctx: &Ctx,
        tracer: &Tracer,
        order: u64,
        out: &mut Phase,
    ) -> Result<(), String>;
    /// Peak resident memory of the measured process, when it is not this
    /// one.
    fn peak_rss_mb(&self) -> Option<f64> {
        None
    }
    /// Releases what `setup` started.
    fn teardown(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// SplitMix64: the benchmark's own seeded generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `items` in a seeded Fisher–Yates order.
pub fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    let mut rng = SplitMix(seed);
    for i in (1..out.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs whole passes for about `seconds`: another pass starts only while
/// it would end nearer to `seconds` than stopping now.
fn measure(
    bench: &mut dyn Bench,
    ctx: &Ctx,
    tracer: &Tracer,
    seed: u64,
    out: &mut Phase,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut rng = SplitMix(seed);
    let mut passes = 0.0;
    loop {
        bench.pass(ctx, tracer, rng.next_u64(), out)?;
        passes += 1.0;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed + elapsed / passes / 2.0 >= ctx.seconds {
            return Ok(elapsed);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    expected: PathBuf,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut get = BTreeMap::new();
    let mut record = false;
    while let Some(a) = args.next() {
        if a == "--record" {
            record = true;
            continue;
        }
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = args.next().ok_or_else(|| format!("{a} needs a value"))?;
        get.insert(key.to_string(), value);
    }
    let mut take = |k: &str| get.remove(k).ok_or_else(|| format!("missing --{k}"));
    let parsed = Args {
        workload: take("workload")?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        repro: take("repro")?.into(),
        expected: take("expected")?.into(),
        record,
    };
    if let Some(k) = get.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    if !parsed.seconds.is_finite() || parsed.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn bench_for(workload: &str) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "grid-sampled" => Box::new(grid::Grid::default()),
        "exhaustive-tlb" => Box::new(exhaustive::Exhaustive::default()),
        "service-jobs" => Box::new(service::Service::default()),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The recorded digests of every workload.
fn load_expected(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn expected_ops(all: &Json, workload: &str) -> (BTreeMap<String, String>, Option<String>) {
    let entry = all.get(workload);
    let ops = entry
        .and_then(|e| match e.get("ops") {
            Some(Json::Obj(fields)) => Some(
                fields
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                    .collect(),
            ),
            _ => None,
        })
        .unwrap_or_default();
    let digest = entry
        .and_then(|e| e.get("digest"))
        .and_then(Json::as_str)
        .map(str::to_string);
    (ops, digest)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::f64(value)),
        ("unit".into(), Json::str(unit)),
    ])
}

fn sims_per_s(phase: &Phase, elapsed: f64) -> f64 {
    phase.sims as f64 / elapsed
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    bench: &mut dyn Bench,
    ctx: &Ctx,
    seed: u64,
    phase: &mut Phase,
) -> Result<Vec<(String, Json)>, String> {
    let tracer = Tracer::new(false);
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        if rep > 0 {
            bench.teardown()?;
        }
        let t0 = Instant::now();
        bench.setup(ctx, &tracer)?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    let elapsed = measure(bench, ctx, &tracer, seed, phase)?;
    let rss = match bench.peak_rss_mb() {
        Some(mb) => mb,
        None => peak_rss_mb("/proc/self/status").ok_or("no VmHWM in /proc/self/status")?,
    };
    let p50 = percentile(&phase.op_secs, 50.0).ok_or("no operation finished")?;
    let p90 = percentile(&phase.op_secs, 90.0).ok_or("no operation finished")?;
    eprintln!(
        "perfbench: {} operations in {elapsed:.3} s on {} core(s); over {} samples \
         p50 {:.4} s, p90 {:.4} s; failed_frac {}",
        phase.tally.attempted,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        p50.samples,
        p50.value,
        p90.value,
        phase.tally.failed_frac()
    );
    Ok(vec![
        (
            "sims_per_s".into(),
            metric(sims_per_s(phase, elapsed), "1/s"),
        ),
        ("op_mean_s".into(), metric(mean(&phase.op_secs), "s")),
        (
            "setup_s".into(),
            metric(median(&setups).expect("SETUP_REPS > 0"), "s"),
        ),
        ("peak_rss_mb".into(), metric(rss, "MiB")),
    ])
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Layers self time is reported for (`op` is the benchmark's own loop).
const LAYERS: [&str; 11] = [
    "op",
    "cpu",
    "mem",
    "snap",
    "exhaustive",
    "campaign",
    "workloads",
    "store",
    "protocol",
    "fabric",
    "serve",
];

/// The per-layer metrics of a traced run.
fn per_layer(tracer: &Tracer, phase: &Phase, overhead: f64) -> Vec<(String, Json)> {
    let mut m: Vec<(String, Json)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &str| m.push((name.to_string(), metric(value, unit)));
    let d = |name: &str| tracer.durations(name);
    let count = |name: &str| phase.counts.get(name).copied().unwrap_or(0) as f64;
    let samples = |name: &str| phase.samples.get(name).cloned().unwrap_or_default();

    let (mut cycles, mut secs, mut slowest) = (0.0, 0.0, f64::INFINITY);
    for w in mbu_workloads::Workload::ALL {
        let c = count(&format!("cpu.cycles.{}", w.name()));
        let s: f64 = samples(&format!("cpu.secs.{}", w.name())).iter().sum();
        cycles += c;
        secs += s;
        slowest = slowest.min(c / s / 1e6);
    }
    put("cpu.golden_mcyc_per_s", cycles / secs / 1e6, "Mcyc/s");
    put("cpu.golden_mcyc_per_s.min", slowest, "Mcyc/s");
    let per_access =
        |name: &str| d(name).iter().sum::<f64>() / f64::from(probes::MEM_ACCESSES) * 1e9;
    put("mem.fetch_ns", per_access("mem.fetch"), "ns");
    put("mem.read_ns", per_access("mem.read"), "ns");
    put("mem.write_ns", per_access("mem.write"), "ns");
    let (hits, misses) = (count("mem.l1d_hits"), count("mem.l1d_misses"));
    put("mem.l1d_hit_rate", hits / (hits + misses), "ratio");
    put(
        "snap.record_s",
        median(&samples("snap.record_s")).unwrap_or(0.0),
        "s",
    );
    put(
        "snap.retained_mb",
        count("snap.retained_bytes") / 1_048_576.0,
        "MiB",
    );
    put(
        "snap.converged_us",
        mean(&samples("snap.converged_s")) * 1e6,
        "us",
    );
    put("exhaustive.compile_s", mean(&d("exhaustive.try_new")), "s");
    for c in exhaustive::COMPONENTS {
        let s = exhaustive::short(c);
        let busy: f64 = d(&format!("exhaustive.run_class_range.{s}")).iter().sum();
        let classes = count(&format!("exhaustive.{s}.classes"));
        put(
            &format!("exhaustive.{s}.classes_per_s"),
            classes / busy,
            "1/s",
        );
        put(
            &format!("exhaustive.{s}.mean_cycles"),
            count(&format!("exhaustive.{s}.cycles")) / classes,
            "cycles",
        );
    }
    let mut all_calls = Vec::new();
    for c in mbu_cpu::HwComponent::ALL {
        let slug = mbu_bench::store::component_slug(c);
        let calls = d(&format!("campaign.try_run_with_artifacts.{slug}"));
        let p = |q| percentile(&calls, q).map_or(0.0, |p| p.value);
        put(&format!("campaign.call_p50_s.{slug}"), p(50.0), "s");
        put(&format!("campaign.call_p90_s.{slug}"), p(90.0), "s");
        all_calls.extend(calls);
    }
    let runs = count("campaign.runs");
    put(
        "campaign.ms_per_run",
        all_calls.iter().sum::<f64>() / runs * 1e3,
        "ms",
    );
    put(
        "campaign.early_masked_frac",
        count("campaign.early_masked") / runs,
        "ratio",
    );
    put(
        "workloads.program_ms",
        mean(&d("workloads.program")) * 1e3,
        "ms",
    );
    let appends = d("store.append");
    put("store.append_ms", mean(&appends) * 1e3, "ms");
    put("store.appends", appends.len() as f64, "count");
    put("store.recover_ms", mean(&d("store.recover")) * 1e3, "ms");
    let frames = d("protocol.frame_roundtrip").iter().sum::<f64>();
    put(
        "protocol.frame_us",
        frames / probes::FRAMES as f64 * 1e6,
        "us",
    );
    let jobs = d("op.job").len() as f64;
    put("fabric.merge_ms", mean(&d("fabric.merge")) * 1e3, "ms");
    put("fabric.units", count("fabric.units") / jobs, "count");
    put("fabric.retries", count("fabric.retries") / jobs, "count");
    put("fabric.steals", count("fabric.steals") / jobs, "count");
    put("serve.submit_ms", mean(&d("serve.submit")) * 1e3, "ms");
    put("serve.status_ms", mean(&d("serve.status")) * 1e3, "ms");
    put("serve.fetch_ms", mean(&d("serve.fetch")) * 1e3, "ms");
    put(
        "serve.queue_s",
        median(&samples("serve.queue_s")).unwrap_or(0.0),
        "s",
    );
    for (q, name) in [(50.0, "op.p50_s"), (90.0, "op.p90_s")] {
        put(
            name,
            percentile(&phase.op_secs, q).map_or(0.0, |p| p.value),
            "s",
        );
    }
    put("op.samples", phase.op_secs.len() as f64, "count");
    let self_times = layer_self_times(&tracer.spans());
    for layer in LAYERS {
        put(
            &format!("self.{layer}_s"),
            self_times.get(layer).copied().unwrap_or(0.0),
            "s",
        );
    }
    put("trace.overhead", overhead, "ratio");
    m
}

/// The traced run: an untraced phase and a traced phase of the same
/// length (their `sims_per_s` ratio is the tracing overhead), then the
/// probes of the layers the workload does not reach.
fn traced(
    bench: &mut dyn Bench,
    ctx: &Ctx,
    seed: u64,
    phase: &mut Phase,
    trace_path: &Path,
) -> Result<Vec<(String, Json)>, String> {
    let tracer = Tracer::new(true);
    phase.next_op(&tracer);
    tracer.span("op.setup", || bench.setup(ctx, &tracer))?;
    let mut plain = Phase::checked(phase.expected.clone().unwrap_or_default());
    let plain_elapsed = measure(bench, ctx, &Tracer::new(false), seed, &mut plain)?;
    let loop_start = tracer.now();
    let elapsed = measure(bench, ctx, &tracer, seed, phase)?;
    let overhead = sims_per_s(phase, elapsed) / sims_per_s(&plain, plain_elapsed);
    phase.tally.attempted += plain.tally.attempted;
    phase.tally.failed += plain.tally.failed;
    phase.tally.reasons.extend(plain.tally.reasons);
    let probes_start = tracer.now();
    probes::run(ctx, &tracer, bench.reaches(), phase)?;
    let metrics = per_layer(&tracer, phase, overhead);
    let spans: Vec<Json> = tracer
        .spans()
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::str(&s.name)),
                ("op".into(), Json::u64(s.op)),
                ("parent".into(), s.parent.map_or(Json::Null, Json::usize)),
                ("start".into(), Json::f64(s.start)),
                ("end".into(), Json::f64(s.end)),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("loop_start_s".into(), Json::f64(loop_start)),
        ("probes_start_s".into(), Json::f64(probes_start)),
        (
            "op_secs".into(),
            Json::Arr(phase.op_secs.iter().map(|&s| Json::f64(s)).collect()),
        ),
        (
            "untraced_op_secs".into(),
            Json::Arr(plain.op_secs.iter().map(|&s| Json::f64(s)).collect()),
        ),
        ("metrics".into(), Json::Obj(metrics.clone())),
        ("spans".into(), Json::Arr(spans)),
    ]);
    std::fs::write(trace_path, doc.encode())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    eprintln!("perfbench: trace written to {}", trace_path.display());
    Ok(metrics)
}

/// Runs one pass and stores its digests as the expected ones.
fn record(bench: &mut dyn Bench, ctx: &Ctx, args: &Args) -> Result<(), String> {
    let tracer = Tracer::new(false);
    bench.setup(ctx, &tracer)?;
    let mut phase = Phase::default();
    bench.pass(ctx, &tracer, args.seed, &mut phase)?;
    if phase.tally.failed > 0 {
        return Err(format!(
            "cannot record a failing pass: {:?}",
            phase.tally.reasons
        ));
    }
    let mut all = match load_expected(&args.expected) {
        Ok(Json::Obj(fields)) => fields,
        _ => Vec::new(),
    };
    let entry = Json::Obj(vec![
        ("digest".into(), Json::str(pass_digest(&phase.ops))),
        (
            "ops".into(),
            Json::Obj(
                phase
                    .ops
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v)))
                    .collect(),
            ),
        ),
    ]);
    all.retain(|(k, _)| k != &args.workload);
    all.push((args.workload.clone(), entry));
    all.sort_by(|a, b| a.0.cmp(&b.0));
    std::fs::write(&args.expected, Json::Obj(all).encode() + "\n").map_err(|e| e.to_string())
}

/// A run's failure tally, whether the pass digest matched, and its metrics;
/// `None` after `--record`.
type Outcome = Option<(Tally, bool, Vec<(String, Json)>)>;

fn run(args: &Args, ctx: &Ctx) -> Result<Outcome, String> {
    let mut bench = bench_for(&args.workload)?;
    if args.record {
        let recorded = record(bench.as_mut(), ctx, args);
        bench.teardown()?;
        recorded?;
        return Ok(None);
    }
    let (ops, digest) = expected_ops(&load_expected(&args.expected)?, &args.workload);
    let digest = digest.ok_or_else(|| format!("no recorded digest for {}", args.workload))?;
    let mut phase = Phase::checked(ops.clone());
    let metrics = if args.trace {
        let path = ctx
            .work
            .parent()
            .expect("work dir has a parent")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        traced(bench.as_mut(), ctx, args.seed, &mut phase, &path)
    } else {
        end_to_end(bench.as_mut(), ctx, args.seed, &mut phase)
    };
    let stopped = bench.teardown();
    let metrics = metrics?;
    stopped?;
    // Every key of the recorded pass ran, with the recorded digests.
    let got = pass_digest(&phase.ops);
    let digest_ok = got == digest && phase.ops.len() == ops.len();
    eprintln!(
        "perfbench: {} digest {got} ({})",
        args.workload,
        if digest_ok {
            "matches the recorded one"
        } else {
            "DIFFERS from the recorded one"
        }
    );
    for r in phase.tally.reasons.iter().take(10) {
        eprintln!("perfbench: failed: {r}");
    }
    Ok(Some((phase.tally, digest_ok, metrics)))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let ctx = Ctx {
        seconds: args.seconds,
        work: root.join(format!("work-{}", std::process::id())),
        repro: args.repro.clone(),
    };
    let made = std::fs::create_dir_all(&ctx.work).map_err(|e| e.to_string());
    let result = made.and_then(|()| run(&args, &ctx));
    let _ = std::fs::remove_dir_all(&ctx.work);
    match result {
        Ok(None) => eprintln!("perfbench: recorded {}", args.expected.display()),
        Ok(Some((tally, digest_ok, metrics))) => {
            let out = Json::Obj(vec![
                (
                    "correct".into(),
                    Json::Bool(digest_ok && tally.failed == 0 && tally.attempted > 0),
                ),
                ("attempted".into(), Json::u64(tally.attempted)),
                ("failed".into(), Json::u64(tally.failed)),
                ("metrics".into(), Json::Obj(metrics)),
            ]);
            println!("{}", out.encode());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

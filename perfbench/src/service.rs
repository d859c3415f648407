//! `service-jobs`: one client drives a `repro daemon` (the built binary,
//! two spawned fabric workers, one thread each). Each job is a small
//! sampled sweep with snapshots on; the client submits it, waits on its
//! event stream, fetches the merged store, verifies it, and only then
//! submits the next (a closed loop of one client).

use crate::grid::{
    campaign_digest, campaign_key, golden_fingerprints, Fingerprints, CAMPAIGN_SEED,
};
use crate::stats::digest;
use crate::trace::Tracer;
use crate::{shuffled, Bench, Ctx, Phase};
use mbu_bench::fabric::{load_shard_dir, merge_rows};
use mbu_bench::store::component_slug;
use mbu_bench::{Experiments, Json, RealIo, ResultStore};
use mbu_cpu::HwComponent;
use mbu_serve::http;
use mbu_workloads::Workload;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Injection runs per campaign of a job.
const RUNS: usize = 30;
const CARDINALITY: usize = 3;
/// One job per (component, workload): a short and a medium workload.
const WORKLOADS: [Workload; 2] = [Workload::Stringsearch, Workload::Qsort];

/// One job's submission: a sampled sweep of one component on one
/// workload, cardinalities 1–3, snapshots on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// The component swept.
    pub component: HwComponent,
    /// The workload swept.
    pub workload: Workload,
    /// Injection runs per campaign.
    pub runs: usize,
}

impl JobSpec {
    /// Operation key.
    pub fn key(&self) -> String {
        format!(
            "{}/{}",
            component_slug(self.component),
            self.workload.name()
        )
    }

    fn body(&self) -> String {
        Json::Obj(vec![
            (
                "components".into(),
                Json::Arr(vec![Json::str(component_slug(self.component))]),
            ),
            (
                "workloads".into(),
                Json::Arr(vec![Json::str(self.workload.name())]),
            ),
            ("runs".into(), Json::usize(self.runs)),
            ("seed".into(), Json::u64(CAMPAIGN_SEED)),
            ("cardinality".into(), Json::usize(CARDINALITY)),
            ("snapshots".into(), Json::Bool(true)),
        ])
        .encode()
    }
}

/// Every job of one pass.
fn jobs() -> Vec<JobSpec> {
    let mut out = Vec::new();
    for component in HwComponent::ALL {
        for workload in WORKLOADS {
            out.push(JobSpec {
                component,
                workload,
                runs: RUNS,
            });
        }
    }
    out
}

/// A running `repro daemon` on an ephemeral port.
pub struct Daemon {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
    /// Its state directory.
    pub state: PathBuf,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl Daemon {
    /// Starts the daemon with two workers of one thread each and waits for
    /// its listening line.
    pub fn start(repro: &Path, state: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&state);
        let mut cmd = Command::new(repro);
        // A clean `MBU_*` environment: only what this benchmark sets.
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("MBU_") {
                cmd.env_remove(k);
            }
        }
        let mut child = cmd
            .args(["daemon", "--listen", "127.0.0.1:0", "--state"])
            .arg(&state)
            .env("MBU_WORKERS", "2")
            .env("MBU_THREADS", "1")
            .env("MBU_HTTP_MAX_JOBS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let _ = reader.read_line(&mut line);
        let Some(addr) = line.strip_prefix("mbu-serve: listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not start: {line:?}"));
        };
        let addr = addr.trim().to_string();
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            rest
        });
        Ok(Daemon {
            child,
            addr,
            state,
            stderr: Some(stderr),
        })
    }

    /// Peak resident memory of the daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the daemon to drain (SIGTERM) and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    /// SIGTERM, then SIGKILL if the drain has not ended within ten
    /// seconds; always waits for the process.
    fn shutdown(&mut self) -> Result<(), String> {
        let pid = self.child.id().to_string();
        let term = Command::new("kill").args(["-TERM", &pid]).status();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut status = None;
        while term.as_ref().is_ok_and(|s| s.success()) && Instant::now() < deadline {
            status = self.child.try_wait().map_err(|e| e.to_string())?;
            if status.is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let status = match status {
            Some(s) => s,
            None => {
                let _ = self.child.kill();
                self.child.wait().map_err(|e| e.to_string())?
            }
        };
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            let _ = self.shutdown();
        }
    }
}

/// Digest of a fetched store: every campaign's digest in key order.
fn store_digest(key: &str, store: &ResultStore) -> String {
    let mut text = format!("{key}\n");
    let mut rows: Vec<_> = store.iter().collect();
    rows.sort_by_key(|r| campaign_key(r.component, r.workload, r.faults));
    for r in rows {
        text.push_str(&campaign_digest(r));
        text.push('\n');
    }
    digest(text.as_bytes())
}

fn parse_json(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    Json::parse(text).map_err(|e| format!("bad JSON reply: {e}"))
}

/// Runs one job end to end as an operation: submit, wait on the events
/// stream, read the status, fetch and verify the store.
fn run_job(tracer: &Tracer, daemon: &Daemon, fps: &Fingerprints, job: JobSpec, out: &mut Phase) {
    out.next_op(tracer);
    let t0 = tracer.now();
    let r = tracer.span("op.job", || job_once(tracer, daemon, fps, job, out));
    let secs = tracer.now() - t0;
    let sims = (job.runs * CARDINALITY) as u64;
    match r {
        Ok(d) => out.record(job.key(), Ok(d), secs, sims),
        Err(e) => out.record(job.key(), Err(e), secs, 0),
    }
}

fn job_once(
    tracer: &Tracer,
    daemon: &Daemon,
    fps: &Fingerprints,
    job: JobSpec,
    out: &mut Phase,
) -> Result<String, String> {
    let addr = &daemon.addr;
    let submitted = tracer.now();
    let (status, reply) = tracer
        .span("serve.submit", || {
            http::request(addr, "POST", "/sweeps", Some(job.body().as_bytes()))
        })
        .map_err(|e| format!("submit: {e}"))?;
    let reply = parse_json(&reply)?;
    if status != 201 {
        return Err(format!("submit answered {status}: {}", reply.encode()));
    }
    let id = reply
        .get("id")
        .and_then(Json::as_str)
        .ok_or("submit reply has no id")?
        .to_string();
    // The events stream closes once the job is terminal.
    let mut tail = String::new();
    let mut running_at = None;
    let status = tracer
        .span("serve.events", || {
            http::request_stream(
                addr,
                "GET",
                &format!("/sweeps/{id}/events?from=0"),
                |chunk| {
                    tail.push_str(&String::from_utf8_lossy(chunk));
                    while let Some(pos) = tail.find('\n') {
                        let line: String = tail.drain(..=pos).collect();
                        let running = Json::parse(line.trim()).is_ok_and(|ev| {
                            ev.get("kind").and_then(Json::as_str) == Some("state")
                                && ev.get("data").and_then(Json::as_str) == Some("running")
                        });
                        if running && running_at.is_none() {
                            running_at = Some(tracer.now());
                        }
                    }
                    true
                },
            )
        })
        .map_err(|e| format!("events: {e}"))?;
    if status != 200 {
        return Err(format!("events answered {status}"));
    }
    if let Some(t) = running_at {
        out.sample("serve.queue_s", t - submitted);
    }
    let (status, body) = tracer
        .span("serve.status", || {
            http::request(addr, "GET", &format!("/sweeps/{id}"), None)
        })
        .map_err(|e| format!("status: {e}"))?;
    let doc = parse_json(&body)?;
    let outcome = doc.get("outcome").ok_or("job has no outcome")?;
    if status != 200 || outcome.get("state").and_then(Json::as_str) != Some("done") {
        return Err(format!("job ended {}", outcome.encode()));
    }
    let summary = outcome.get("summary").ok_or("outcome has no summary")?;
    if summary.get("clean").and_then(Json::as_bool) != Some(true) {
        return Err(format!("job not clean: {}", summary.encode()));
    }
    for (field, name) in [
        ("units_planned", "fabric.units"),
        ("retries", "fabric.retries"),
        ("steals", "fabric.steals"),
    ] {
        let v = summary.get(field).and_then(Json::as_u64).unwrap_or(0);
        out.count(name, v);
    }
    let (status, csv) = tracer
        .span("serve.fetch", || {
            http::request(addr, "GET", &format!("/sweeps/{id}/store"), None)
        })
        .map_err(|e| format!("fetch: {e}"))?;
    if status != 200 {
        return Err(format!("fetch answered {status}"));
    }
    let csv = String::from_utf8(csv).map_err(|e| e.to_string())?;
    let (store, audit) = ResultStore::from_csv_lossy(&csv).map_err(|e| format!("store: {e}"))?;
    if !audit.quarantined.is_empty() || store.len() != CARDINALITY {
        return Err(format!(
            "store has {} campaigns and {} defective rows",
            store.len(),
            audit.quarantined.len()
        ));
    }
    let want = fps.get(&job.workload).copied();
    for r in store.iter() {
        if !r.anomalies.is_empty() {
            return Err(format!("{r}: anomalies"));
        }
        if store.fingerprint(r.component, r.workload, r.faults) != want {
            return Err(format!("{r}: golden fingerprint differs from this build's"));
        }
    }
    let digest = store_digest(&job.key(), &store);
    if tracer.on() {
        merge_shards(tracer, daemon, fps, &id, job, &digest)?;
    }
    Ok(digest)
}

/// Re-merges the job's shard files from outside the daemon, timing the
/// fabric's `load_shard_dir` + `merge_rows`; the result must equal the
/// fetched store.
fn merge_shards(
    tracer: &Tracer,
    daemon: &Daemon,
    fps: &Fingerprints,
    id: &str,
    job: JobSpec,
    fetched: &str,
) -> Result<(), String> {
    let dir = daemon.state.join("jobs").join(id).join("shards");
    let exp = Experiments {
        runs: job.runs,
        seed: CAMPAIGN_SEED,
        workloads: vec![job.workload],
        use_snapshots: true,
        ..Experiments::default()
    };
    let keys: Vec<_> = (1..=CARDINALITY)
        .map(|f| (job.component, job.workload, f))
        .collect();
    let (store, report) = tracer.span("fabric.merge", || {
        let (rows, _) = load_shard_dir(&RealIo, &dir).map_err(|e| format!("shards: {e}"))?;
        Ok::<_, String>(merge_rows(&exp, &keys, &rows, fps))
    })?;
    if store_digest(&job.key(), &store) != fetched {
        return Err(format!(
            "shard merge differs from the fetched store: {report:?}"
        ));
    }
    Ok(())
}

/// The service workload: a daemon that lives for the whole run.
#[derive(Default)]
pub struct Service {
    daemon: Option<Daemon>,
    fingerprints: Fingerprints,
}

impl Service {
    /// Runs one small job on a fresh daemon: the layer probe for
    /// workloads that do not reach the service.
    pub fn probe(ctx: &Ctx, tracer: &Tracer, out: &mut Phase) -> Result<(), String> {
        let daemon = tracer.span("serve.daemon_start", || {
            Daemon::start(&ctx.repro, ctx.work.join("probe-daemon"))
        })?;
        let job = JobSpec {
            component: HwComponent::RegFile,
            workload: Workload::Stringsearch,
            runs: RUNS,
        };
        let fps = golden_fingerprints(tracer, &[job.workload])?;
        run_job(tracer, &daemon, &fps, job, out);
        daemon.stop()
    }
}

impl Bench for Service {
    fn reaches(&self) -> &'static [&'static str] {
        &["serve", "fabric"]
    }

    fn setup(&mut self, ctx: &Ctx, tracer: &Tracer) -> Result<(), String> {
        // The reference the fetched rows are checked against.
        self.fingerprints = golden_fingerprints(tracer, &WORKLOADS)?;
        let daemon = tracer.span("serve.daemon_start", || {
            Daemon::start(&ctx.repro, ctx.work.join("daemon"))
        })?;
        // Ready means answering requests, not just bound.
        let (status, _) = http::request(&daemon.addr, "GET", "/healthz", None)
            .map_err(|e| format!("healthz: {e}"))?;
        if status != 200 {
            return Err(format!("healthz answered {status}"));
        }
        self.daemon = Some(daemon);
        Ok(())
    }

    fn pass(
        &mut self,
        _ctx: &Ctx,
        tracer: &Tracer,
        order: u64,
        out: &mut Phase,
    ) -> Result<(), String> {
        let daemon = self.daemon.as_ref().ok_or("daemon not started")?;
        for job in shuffled(&jobs(), order) {
            run_job(tracer, daemon, &self.fingerprints, job, out);
        }
        Ok(())
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        self.daemon.as_ref().and_then(Daemon::peak_rss_mb)
    }

    fn teardown(&mut self) -> Result<(), String> {
        self.daemon.take().map_or(Ok(()), Daemon::stop)
    }
}

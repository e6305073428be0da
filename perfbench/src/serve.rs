//! The serve layer measured from outside: a `ptsim-serve` daemon in its
//! own process (result cache off), driven over HTTP by a closed loop, with
//! `/metrics` scraped around the measured window and an in-process replay
//! of the same request bytes through the public functions the daemon calls.

use crate::SplitMix64;
use ptsim_serve::client::HttpClient;
use ptsim_serve::server::{start, ServeConfig};
use pytorchsim::common::config::SimConfig;
use pytorchsim::common::json::{parse_json, FromJson, Json, ToJson};
use pytorchsim::togsim::SimReport;
use pytorchsim::trace::MetricsRegistry;
use pytorchsim::{CompileCache, ModelRequest, RunSpec, Simulator};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulation workers of the daemon.
pub const WORKERS: usize = 2;

/// The flag that turns the benchmark executable into the daemon.
pub const DAEMON_FLAG: &str = "--serve-daemon";

/// The request catalog: distinct tiny-config specs, so every request runs
/// the full path (HTTP, JSON, queue, compile-cache lookup, engine, encode)
/// while the engine stays a small share of it.
pub fn catalog() -> Vec<RunSpec> {
    let mut models: Vec<ModelRequest> = (1..=8).map(|i| ModelRequest::Gemm { n: 8 * i }).collect();
    models.extend([
        ModelRequest::GemmRect { m: 16, k: 32, n: 64 },
        ModelRequest::GemmRect { m: 64, k: 16, n: 32 },
        ModelRequest::Mlp { batch: 4, hidden: 32 },
        ModelRequest::Mlp { batch: 8, hidden: 64 },
        ModelRequest::LayerNorm { rows: 16, cols: 64 },
        ModelRequest::LayerNorm { rows: 32, cols: 32 },
        ModelRequest::Softmax { rows: 16, cols: 64 },
        ModelRequest::Softmax { rows: 32, cols: 32 },
    ]);
    models.into_iter().map(|m| RunSpec::new(m).with_config(SimConfig::tiny())).collect()
}

/// The wire body of every catalog entry.
pub fn wire_bodies(catalog: &[RunSpec]) -> Vec<String> {
    catalog.iter().map(RunSpec::to_json_string).collect()
}

/// The catalog indices connection `conn` of `conns` sends under `seed`, in
/// order. Each connection draws from its own share of the catalog, so two
/// connections never send the same spec at once and no request is
/// coalesced into another. The stream is endless; a run takes as many as
/// its window allows.
pub fn request_stream(seed: u64, conn: usize, conns: usize) -> impl Iterator<Item = usize> {
    let share: Vec<usize> = (conn..catalog().len()).step_by(conns).collect();
    let mut rng = SplitMix64::new(seed ^ (conn as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    std::iter::repeat_with(move || share[rng.below(share.len())])
}

/// The simulate response body the daemon must return for `spec`.
pub fn response_body(spec: &RunSpec, report: &SimReport) -> String {
    Json::obj()
        .set("fingerprint", Json::str(format!("{:016x}", spec.fingerprint())))
        .set("report", report.to_json())
        .render()
}

/// What each catalog entry must answer, from in-process direct runs.
#[derive(Debug, Clone)]
pub struct Expected {
    bodies: Vec<String>,
}

impl Expected {
    /// Runs every catalog spec directly.
    ///
    /// # Errors
    ///
    /// Compilation or simulation failures.
    pub fn direct(catalog: &[RunSpec]) -> pytorchsim::common::Result<Expected> {
        let cache = CompileCache::shared();
        let bodies = catalog
            .iter()
            .map(|spec| Ok(response_body(spec, &spec.run(&cache)?)))
            .collect::<pytorchsim::common::Result<_>>()?;
        Ok(Expected { bodies })
    }

    /// Whether `body` answers catalog entry `i`: byte-equal to the direct
    /// run's rendering.
    pub fn matches(&self, i: usize, body: &str) -> bool {
        body == self.bodies[i]
    }
}

/// The daemon's entry point (`DAEMON_FLAG`): serve with the result cache
/// off until `POST /admin/shutdown` drains it.
pub fn daemon_main() -> ExitCode {
    let cfg = ServeConfig { workers: WORKERS, result_cache_mb: 0, ..ServeConfig::default() };
    let handle = match start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr();
    println!("listening on http://{addr}");
    let _ = std::io::stdout().flush();
    // The benchmark holds this process's stdin; end of input means the
    // benchmark has gone, so drain instead of outliving it.
    std::thread::spawn(move || {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        let _ = ptsim_serve::client::post(addr, "/admin/shutdown", "");
    });
    handle.join();
    ExitCode::SUCCESS
}

/// A daemon child process; killed and reaped on drop if still running.
pub struct Daemon {
    child: Child,
    _stdin: ChildStdin,
    _stdout: BufReader<ChildStdout>,
    /// The daemon's bound address.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `exe DAEMON_FLAG` and waits for its address.
    ///
    /// # Errors
    ///
    /// If the child cannot start or never announces an address.
    pub fn spawn(exe: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .arg(DAEMON_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening on http://")?.parse().ok());
        match addr {
            Some(addr) => Ok(Daemon { child, _stdin: stdin, _stdout: stdout, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not announce an address: {line:?}"))
            }
        }
    }

    /// Polls `/healthz` until it answers 200.
    ///
    /// # Errors
    ///
    /// If it does not within ten seconds.
    pub fn wait_healthy(&self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match ptsim_serve::client::get(self.addr, "/healthz") {
                Ok(r) if r.status == 200 => return Ok(()),
                _ if Instant::now() > deadline => return Err("daemon never became healthy".into()),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Peak resident set of the daemon, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::peak_rss_mb(&self.child.id().to_string())
    }

    /// Drains the daemon through `/admin/shutdown` and reaps it.
    ///
    /// # Errors
    ///
    /// If it does not exit cleanly within thirty seconds (it is killed).
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = ptsim_serve::client::post(self.addr, "/admin/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("daemon did not drain in time".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Sends every catalog body once, serially (the daemon's cold compiles),
/// returning how many answers were wrong.
///
/// # Errors
///
/// Transport failures.
pub fn catalog_pass(
    addr: SocketAddr,
    bodies: &[String],
    expected: &Expected,
) -> Result<u64, String> {
    let mut client = HttpClient::new(addr);
    let mut failed = 0;
    for (i, body) in bodies.iter().enumerate() {
        let r = client.post("/v1/simulate", body)?;
        if r.status != 200 || !expected.matches(i, &r.body) {
            failed += 1;
        }
    }
    Ok(failed)
}

/// Outcome of one closed-loop window.
#[derive(Debug, Clone, Default)]
pub struct LoopResult {
    /// Client latency of every request, nanoseconds.
    pub latencies_ns: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered non-200, failed in transport, or answered wrong.
    pub failed: u64,
    /// Window length, seconds.
    pub window_s: f64,
}

/// A closed loop over `conns` keep-alive connections for `duration`: each
/// connection sends its next request when the previous one is answered,
/// drawing bodies from its own `request_stream(seed, conn, conns)`.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    expected: &Expected,
    seed: u64,
    conns: usize,
    duration: Duration,
) -> LoopResult {
    let started = Instant::now();
    let deadline = started + duration;
    let parts: Vec<LoopResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                s.spawn(move || {
                    let mut out = LoopResult::default();
                    let mut client = HttpClient::new(addr);
                    for i in request_stream(seed, conn, conns) {
                        if Instant::now() >= deadline {
                            break;
                        }
                        out.attempted += 1;
                        let t0 = Instant::now();
                        let resp = client.post("/v1/simulate", &bodies[i]);
                        out.latencies_ns.push(t0.elapsed().as_nanos() as f64);
                        match resp {
                            Ok(r) if r.status == 200 && expected.matches(i, &r.body) => {}
                            _ => out.failed += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut total =
        LoopResult { window_s: started.elapsed().as_secs_f64(), ..LoopResult::default() };
    for p in parts {
        total.attempted += p.attempted;
        total.failed += p.failed;
        total.latencies_ns.extend(p.latencies_ns);
    }
    total
}

/// One `/metrics` scrape: every sample line of the Prometheus text, by
/// name (histogram buckets skipped).
pub fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let r = ptsim_serve::client::get(addr, "/metrics")?;
    if r.status != 200 {
        return Err(format!("/metrics answered {}", r.status));
    }
    Ok(r.body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// A scraped sample, zero when the daemon has not registered it yet.
pub fn sample(m: &BTreeMap<String, f64>, name: &str) -> f64 {
    m.get(name).copied().unwrap_or(0.0)
}

/// Windowed mean of histogram `name` (µs samples) between two scrapes, ns.
pub fn window_mean_ns(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    name: &str,
) -> i64 {
    let count = sample(after, &format!("{name}_count")) - sample(before, &format!("{name}_count"));
    let sum_us = sample(after, &format!("{name}_sum")) - sample(before, &format!("{name}_sum"));
    if count > 0.0 {
        (sum_us * 1000.0 / count).round() as i64
    } else {
        0
    }
}

/// Mean request latency over one window, split where the daemon measures
/// it: transport (client minus endpoint), queue and wire (endpoint minus
/// run), and run. The three parts sum to the client mean exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Client-observed mean latency, ns.
    pub client_ns: i64,
    /// HTTP read/write and the socket, ns.
    pub transport_ns: i64,
    /// Request parse, admission queue, slot hand-off and encode, ns.
    pub queue_wire_ns: i64,
    /// The worker's compile lookup plus engine run, ns.
    pub run_ns: i64,
}

impl Split {
    /// Splits `client_ns` using the daemon's windowed endpoint and run
    /// means.
    pub fn new(client_ns: i64, endpoint_ns: i64, run_ns: i64) -> Split {
        Split {
            client_ns,
            transport_ns: client_ns - endpoint_ns,
            queue_wire_ns: endpoint_ns - run_ns,
            run_ns,
        }
    }

    /// Whether the parts sum to the client latency, each inside the one
    /// that contains it (run within endpoint within client).
    pub fn closes(&self) -> bool {
        self.transport_ns >= 0
            && self.queue_wire_ns >= 0
            && self.run_ns >= 0
            && self.transport_ns + self.queue_wire_ns + self.run_ns == self.client_ns
    }
}

/// Per-stage host time of the in-process replay, ns per request.
#[derive(Debug, Clone, Default)]
pub struct ReplayStages {
    /// JSON parse plus `RunSpec::parse_wire`.
    pub parse_ns: Vec<f64>,
    /// Model build plus the warm `CompileCache` lookup.
    pub compile_ns: Vec<f64>,
    /// `Simulator::run_compiled`.
    pub engine_ns: Vec<f64>,
    /// The same run with the engine's phase counters attached
    /// (`RunOptions::with_metrics`).
    pub traced_engine_ns: Vec<f64>,
    /// Response rendering (`SimReport::to_json`).
    pub encode_ns: Vec<f64>,
    /// Replayed requests whose result differed from the direct run (or
    /// whose traced run differed from the untraced one).
    pub mismatches: u64,
}

/// Replays request `indices` in process, through a cache warmed over the
/// catalog like the daemon's, timing each stage the daemon's worker runs.
///
/// # Errors
///
/// Parse, compile or simulation failures.
pub fn replay(
    bodies: &[String],
    indices: &[usize],
    expected: &Expected,
) -> pytorchsim::common::Result<ReplayStages> {
    use pytorchsim::common::Error;
    let cache = CompileCache::shared();
    for body in bodies {
        let spec = RunSpec::from_json_str(body).map_err(Error::Serde)?;
        spec.run(&cache)?;
    }
    let mut out = ReplayStages::default();
    for &i in indices {
        let t0 = Instant::now();
        let spec = RunSpec::parse_wire(&parse_json(&bodies[i]).map_err(Error::Serde)?)?;
        let t1 = Instant::now();
        let model_spec = spec.model.build()?;
        let sim = Simulator::builder(spec.config.clone())
            .compiler_options(spec.options.clone())
            .shared_cache(Arc::clone(&cache))
            .build();
        let model = sim.compile(&model_spec)?;
        let t2 = Instant::now();
        let report = sim.run_compiled(&model, &spec.run_options())?;
        let t3 = Instant::now();
        let body = response_body(&spec, &report);
        let t4 = Instant::now();
        let traced_opts = spec.run_options().with_metrics(Arc::new(MetricsRegistry::new()));
        let t5 = Instant::now();
        let traced = sim.run_compiled(&model, &traced_opts)?;
        let t6 = Instant::now();
        if !expected.matches(i, &body) || traced != report {
            out.mismatches += 1;
        }
        out.parse_ns.push((t1 - t0).as_nanos() as f64);
        out.compile_ns.push((t2 - t1).as_nanos() as f64);
        out.engine_ns.push((t3 - t2).as_nanos() as f64);
        out.encode_ns.push((t4 - t3).as_nanos() as f64);
        out.traced_engine_ns.push((t6 - t5).as_nanos() as f64);
    }
    Ok(out)
}

/// `p50`/`p99` (µs) of each histogram in `names`, from one
/// `/metrics.json` scrape.
pub fn histogram_percentiles(addr: SocketAddr, names: &[&str]) -> Result<Vec<(f64, f64)>, String> {
    let r = ptsim_serve::client::get(addr, "/metrics.json")?;
    let v = parse_json(&r.body)?;
    names
        .iter()
        .map(|name| {
            let h = v.get(name).ok_or_else(|| format!("/metrics.json has no {name}"))?;
            Ok((h.req_num("p50")?, h.req_num("p99")?))
        })
        .collect()
}

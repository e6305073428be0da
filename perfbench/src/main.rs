//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the repository benchmark, checks its outputs, and
//! prints a context line (host, work counters, fingerprints) followed by
//! the result line. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer split. See `README.md` in this directory.

use perfbench::serve::{self, Daemon, Expected, Split};
use perfbench::sim::{self, Phases, Work, DRAM_VARIANTS};
use perfbench::stats::{mean, median, quiet, tail};
use perfbench::{metrics, nproc, peak_rss_mb};
use pytorchsim::common::json::{parse_json, Json};
use pytorchsim::compiler::KernelStore;
use pytorchsim::models::ModelSpec;
use pytorchsim::togsim::SimReport;
use pytorchsim::trace::MetricsRegistry;
use pytorchsim::{CompileCache, SweepOptions};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pinned `SimReport` fingerprints and cycle counts of each `dram_sweep`
/// point.
const PINS: &str = include_str!("../pins.json");

/// Every workload this program runs, as `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["dram_sweep", "serve_uncached"];

/// Windows an untraced `serve_uncached` run is cut into; each end-to-end
/// latency metric is measured per window and reported with `stats::quiet`.
const WINDOWS: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one workload run measured.
#[derive(Default)]
struct Outcome {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    /// Benchmark self-checks (pins, closure) that did not hold.
    problems: Vec<String>,
    work: Work,
    fingerprints: BTreeMap<String, String>,
    samples: usize,
    /// Host seconds of every measured operation (simulation workloads).
    op_seconds: Vec<f64>,
    /// Every window's end-to-end latency metrics, in order.
    windows: Vec<Window>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts a run error as an attempted and failed operation.
    fn note_error(&mut self, error: Option<String>) {
        if let Some(e) = error {
            self.attempted += 1;
            self.failed += 1;
            self.problems.push(format!("run failed: {e}"));
        }
    }

    /// Whether `report` matches the pin at `path` (e.g. `["dram_sweep",
    /// "ch16_q32"]`); a mismatch is recorded as a problem.
    fn check_pin(&mut self, pins: &Json, path: &[&str], report: &SimReport) -> bool {
        let fp = format!("{:016x}", sim::report_fingerprint(report));
        let pin = path.iter().try_fold(pins, |v, k| v.get(k));
        let ok = pin.is_some_and(|p| {
            p.get("fingerprint").and_then(Json::as_str) == Some(fp.as_str())
                && p.get("total_cycles").and_then(Json::as_num) == Some(report.total_cycles as f64)
        });
        let key = path.join(".");
        let problem = format!(
            "{key}: fingerprint {fp} / {} cycles differs from the pin",
            report.total_cycles
        );
        if !ok && !self.problems.contains(&problem) {
            self.problems.push(problem);
        }
        self.fingerprints.insert(key, fp);
        ok
    }

    /// The latency-shaped end-to-end metrics: measured per window, and
    /// reported as the run's quiet value over the windows.
    fn set_windows(&mut self, windows: Vec<Window>) {
        for (i, (name, lower_is_better)) in WINDOW_METRICS.into_iter().enumerate() {
            self.set(
                name,
                quiet(&windows.iter().map(|w| w[i]).collect::<Vec<_>>(), lower_is_better),
            );
        }
        self.windows = windows;
    }
}

/// The end-to-end metrics measured per window, and whether lower is
/// better for each.
const WINDOW_METRICS: [(&str, bool); 4] =
    [("wall_s", true), ("req_per_s", false), ("p50_ms", true), ("p99_ms", true)];

/// One window's values of `WINDOW_METRICS`, in order.
type Window = [f64; 4];

/// Repeats `op` (returning a product and its host seconds) until
/// `budget` is spent, never starting one predicted to overrun it (the
/// first always runs). Stops at the first error and returns it alongside
/// what completed.
fn repeat_for<T>(
    budget: Duration,
    mut op: impl FnMut() -> pytorchsim::common::Result<(T, f64)>,
) -> (Vec<T>, Vec<f64>, Option<String>) {
    let start = Instant::now();
    let (mut products, mut walls) = (Vec::new(), Vec::new());
    while walls.is_empty() || start.elapsed().as_secs_f64() + median(&walls) <= budget.as_secs_f64()
    {
        match op() {
            Ok((p, w)) => {
                products.push(p);
                walls.push(w);
            }
            Err(e) => return (products, walls, Some(e.to_string())),
        }
    }
    (products, walls, None)
}

/// Repeats `setup` for `budget` (at least `min` times, at most `max`),
/// returning the last set-up's product and the median seconds.
fn repeat_setup<T>(
    budget: Duration,
    (min, max): (usize, usize),
    mut setup: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, f64), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let (product, secs) = setup()?;
        times.push(secs);
        if times.len() >= max || (times.len() >= min && start.elapsed() >= budget) {
            return Ok((product, median(&times)));
        }
    }
}

fn ns_s(ns: impl Into<f64>) -> f64 {
    ns.into() / 1e9
}

fn set_phases(out: &mut Outcome, prefix: &str, p: &Phases) {
    out.set(&format!("{prefix}.traced_wall_s"), ns_s(p.wall_ns as f64));
    out.set(&format!("{prefix}.issue_s"), ns_s(p.issue_ns as f64));
    out.set(&format!("{prefix}.dram_s"), ns_s(p.dram_ns as f64));
    out.set(&format!("{prefix}.noc_s"), ns_s(p.noc_ns as f64));
    out.set(&format!("{prefix}.collect_s"), ns_s(p.collect_ns as f64));
    out.set(&format!("{prefix}.other_s"), ns_s(p.other_ns as f64));
    if !p.closes() {
        out.problems.push(format!("{prefix}: engine phases do not close to the traced wall"));
    }
}

/// Per-layer metrics shared by every simulation workload: engine counts,
/// DRAM and NoC work and host time per unit of it.
fn set_engine_layers(out: &mut Outcome, p: &Phases, report_work: &Work, untraced_ns: f64) {
    let w = |k: &str| report_work.get(k).copied().unwrap_or(0) as f64;
    out.set("togsim.iterations", p.iterations as f64);
    out.set("togsim.events_drained", p.events_drained as f64);
    out.set("togsim.cores_woken", p.cores_woken as f64);
    out.set("togsim.ns_per_event", untraced_ns / (p.events_drained.max(1) as f64));
    for k in [
        "dram.reads",
        "dram.writes",
        "dram.row_hits",
        "dram.row_misses",
        "dram.row_conflicts",
        "noc.messages",
    ] {
        out.set(k, w(k));
    }
    out.set(
        "dram.ns_per_request",
        p.dram_ns as f64 / (w("dram.reads") + w("dram.writes")).max(1.0),
    );
    out.set("noc.ns_per_message", p.noc_ns as f64 / w("noc.messages").max(1.0));
}

fn set_compile_layers(out: &mut Outcome, stages: &[sim::CompileStages]) {
    let med = |f: fn(&sim::CompileStages) -> u64| {
        median(&stages.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    out.set("compile.capture_s", ns_s(med(|s| s.capture_ns)));
    out.set("compile.plan_s", ns_s(med(|s| s.plan_ns)));
    out.set("compile.emit_s", ns_s(med(|s| s.emit_ns)));
    out.set("compile.kernels_measured", med(|s| s.kernels_measured));
}

fn set_cache_layers(out: &mut Outcome) {
    let work = out.work.clone();
    for (k, v) in work.iter().filter(|(k, _)| k.starts_with("compile_cache.")) {
        out.set(k, *v as f64);
    }
    let hits = work.get("compile_cache.kernel_hits").copied().unwrap_or(0) as f64;
    let misses = work.get("compile_cache.kernel_misses").copied().unwrap_or(0) as f64;
    out.set("compile_cache.kernel_hit_ratio", hits / (hits + misses).max(1.0));
}

/// Timed compile stages of `spec` over `reps` cold compiles.
fn compile_stages(spec: &ModelSpec, reps: usize) -> Result<Vec<sim::CompileStages>, String> {
    (0..reps)
        .map(|_| {
            sim::staged_compile(&sim::base_config(), spec, &KernelStore::new()).map(|(_, s)| s)
        })
        .collect::<pytorchsim::common::Result<_>>()
        .map_err(|e| e.to_string())
}

/// `dram_sweep`: `sim::sweep_model` over three DRAM variants through one shared
/// cold `CompileCache` per sweep.
fn run_sweep(args: &Args, pins: &Json) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = sim::base_config();
    let (_, model, first_setup) =
        sim::cold_setup(&cfg, sim::sweep_model).map_err(|e| e.to_string())?;
    // Set-up is timed again before every sweep, so its median spans the
    // run's host states rather than one moment of them.
    let mut setups = vec![first_setup];
    out.work.insert("togsim.tog_nodes".into(), model.stats.tog_nodes as u64);
    let spec = sim::sweep_model();
    let jobs = nproc().min(2);
    out.work.insert("sweep.jobs".into(), jobs as u64);

    let budget =
        Duration::from_secs_f64(if args.trace { args.seconds / 2.0 } else { args.seconds });
    let plain = sim::dram_sweep(&spec, None);
    let (reports, walls, error) = repeat_for(budget, || {
        setups.push(sim::cold_setup(&cfg, sim::sweep_model)?.2);
        let t0 = Instant::now();
        let r = plain.run(&SweepOptions::with_jobs(jobs).with_cache(CompileCache::shared()))?;
        Ok((r, t0.elapsed().as_secs_f64()))
    });
    out.set("setup_s", median(&setups));
    out.note_error(error);
    out.attempted += reports.len() as u64;
    for r in &reports {
        let mut ok = true;
        for (v, point) in DRAM_VARIANTS.iter().zip(&r.results) {
            ok &= out.check_pin(pins, &["dram_sweep", v.key], &point.report);
        }
        out.failed += u64::from(!ok);
    }
    let Some(first) = reports.first() else { return Err("no sweep completed".into()) };
    for (v, point) in DRAM_VARIANTS.iter().zip(&first.results) {
        let mut w = Work::new();
        sim::record_report_work(&point.report, &mut w);
        out.work.extend(w.into_iter().map(|(k, n)| (format!("{}.{k}", v.key), n)));
    }
    sim::record_cache_work(&first.cache, &mut out.work);
    // A sweep takes half a second, so each one is a window of its own.
    out.set_windows(walls.iter().map(|&w| [w, 1.0 / w, w * 1e3, w * 1e3]).collect());
    out.samples = walls.len();
    out.op_seconds = walls.clone();
    out.set("success_rate", (out.attempted - out.failed) as f64 / out.attempted as f64);
    out.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));

    if args.trace {
        set_compile_layers(&mut out, &compile_stages(&spec, 3)?);
        set_cache_layers(&mut out);
        // Untraced per-point walls and efficiency of the median sweep.
        let mid = {
            let mut idx: Vec<usize> = (0..walls.len()).collect();
            idx.sort_by(|&a, &b| walls[a].total_cmp(&walls[b]));
            idx[idx.len() / 2]
        };
        let median_sweep = &reports[mid];
        let point_sum: f64 = median_sweep.results.iter().map(|p| p.wall_seconds).sum();
        out.set("sweep.efficiency", point_sum / (jobs as f64 * walls[mid]));
        for (v, p) in DRAM_VARIANTS.iter().zip(&median_sweep.results) {
            out.set(&format!("sweep.{}.wall_s", v.key), p.wall_seconds);
        }

        let (mut traced, _, error) = repeat_for(budget, || {
            let regs: Vec<Arc<MetricsRegistry>> =
                DRAM_VARIANTS.iter().map(|_| Arc::new(MetricsRegistry::new())).collect();
            let sweep = sim::dram_sweep(&spec, Some(&regs));
            let t0 = Instant::now();
            let r = sweep.run(&SweepOptions::with_jobs(jobs).with_cache(CompileCache::shared()))?;
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let phases: Vec<Phases> = r
                .results
                .iter()
                .zip(&regs)
                .map(|(p, reg)| Phases::from_registry(reg, (p.wall_seconds * 1e9).round() as u64))
                .collect();
            let reports: Vec<SimReport> = r.results.into_iter().map(|p| p.report).collect();
            Ok(((wall_ns, phases, reports), ns_s(wall_ns as f64)))
        });
        out.note_error(error);
        if traced.is_empty() {
            return Err("traced sweep failed".into());
        }
        out.attempted += traced.len() as u64;
        traced.sort_by_key(|t| t.0);
        let (wall_ns, phases, treports) = &traced[traced.len() / 2];
        let mut total = Phases::default();
        let mut ok = true;
        for ((v, p), r) in DRAM_VARIANTS.iter().zip(phases).zip(treports) {
            ok &= out.check_pin(pins, &["dram_sweep", v.key], r);
            set_phases(&mut out, &format!("sweep.{}", v.key), p);
            total.add(p);
        }
        out.failed += u64::from(!ok);
        set_phases(&mut out, "togsim", &total);
        total.record_work(&mut out.work);
        let mut report_work = Work::new();
        for r in treports {
            let mut w = Work::new();
            sim::record_report_work(r, &mut w);
            for (k, n) in w {
                *report_work.entry(k).or_insert(0) += n;
            }
        }
        set_engine_layers(&mut out, &total, &report_work, point_sum * 1e9);
        out.set("togsim.tog_nodes", model.stats.tog_nodes as f64);
        out.set("trace_overhead_ratio", *wall_ns as f64 / (walls[mid] * 1e9));
    }
    Ok(out)
}

/// `serve_uncached`: a daemon with the result cache off under a closed
/// loop of `min(2, nproc)` connections.
fn run_serve(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let catalog = serve::catalog();
    let bodies = serve::wire_bodies(&catalog);
    let expected = Expected::direct(&catalog).map_err(|e| e.to_string())?;
    let conns = nproc().min(2);
    out.work.insert("serve.catalog".into(), catalog.len() as u64);
    out.work.insert("serve.conns".into(), conns as u64);

    let (mut setup_attempted, mut setup_failed) = (0, 0);
    let mut spawned: Vec<Daemon> = Vec::new();
    // The traced run does not report `setup_s`: one set-up.
    let (budget, limits) =
        if args.trace { (Duration::ZERO, (1, 1)) } else { (Duration::from_secs(2), (3, 25)) };
    let (daemon, setup_s) = repeat_setup(budget, limits, || {
        // Only the last set-up's daemon is measured; drain the previous.
        if let Some(d) = spawned.pop() {
            d.shutdown()?;
        }
        let t0 = Instant::now();
        let d = Daemon::spawn(&exe)?;
        d.wait_healthy()?;
        setup_failed += serve::catalog_pass(d.addr, &bodies, &expected)?;
        setup_attempted += bodies.len() as u64;
        let secs = t0.elapsed().as_secs_f64();
        spawned.push(d);
        Ok(((), secs))
    })
    .map(|((), s)| (spawned.pop().expect("a set-up ran"), s))?;
    out.set("setup_s", setup_s);
    let addr = daemon.addr;

    // The untraced run measures WINDOWS windows (`Outcome::set_windows`);
    // the traced run splits one.
    let slices = if args.trace { 1 } else { WINDOWS };
    let slice =
        Duration::from_secs_f64(args.seconds / if args.trace { 2.0 } else { slices as f64 });
    let mut windows = Vec::new();
    for i in 0..slices {
        let slice_seed = args.seed.wrapping_add(i as u64 * 0x9e37_79b9_7f4a_7c15);
        let before = serve::scrape(addr)?;
        let lr = serve::closed_loop(addr, &bodies, &expected, slice_seed, conns, slice);
        let after = serve::scrape(addr)?;
        let requests = serve::sample(&after, "ptsim_serve_simulate_requests")
            - serve::sample(&before, "ptsim_serve_simulate_requests");
        if requests != lr.attempted as f64 {
            out.problems
                .push(format!("daemon counted {requests} requests, client sent {}", lr.attempted));
        }
        windows.push((lr, before, after));
    }
    out.attempted = windows.iter().map(|w| w.0.attempted).sum::<u64>() + setup_attempted;
    out.failed = windows.iter().map(|w| w.0.failed).sum::<u64>() + setup_failed;
    if setup_failed > 0 {
        out.problems.push(format!("{setup_failed} catalog answers differ from direct runs"));
    }
    let per_window: Vec<Window> = windows
        .iter()
        .map(|(lr, b, a)| {
            [
                ns_s(serve::window_mean_ns(b, a, "ptsim_serve_simulate_run_us") as f64),
                lr.attempted as f64 / lr.window_s,
                median(&lr.latencies_ns) / 1e6,
                tail(&lr.latencies_ns).0 / 1e6,
            ]
        })
        .collect();
    out.set_windows(per_window);
    out.samples = windows.iter().map(|w| w.0.latencies_ns.len()).sum();
    let beyond = windows.iter().map(|w| tail(&w.0.latencies_ns).1).min().unwrap_or(0);
    out.work.insert("serve.p99_samples_beyond".into(), beyond as u64);
    let (lr, before, after) = windows.pop().expect("at least one window");
    out.set("success_rate", (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64);
    out.set("peak_rss_mb", daemon.peak_rss_mb().unwrap_or(0.0));
    for stage in ["graph", "plan", "kernel", "model"] {
        for kind in ["hits", "misses"] {
            let v = serve::sample(&after, &format!("ptsim_compile_cache_{stage}_{kind}"));
            out.work.insert(format!("compile_cache.{stage}_{kind}"), v as u64);
        }
    }
    out.work.insert("compile_cache.compiles".into(), out.work["compile_cache.model_misses"]);

    if args.trace {
        let client_ns = mean(&lr.latencies_ns).round() as i64;
        let endpoint_ns = serve::window_mean_ns(&before, &after, "ptsim_serve_simulate_latency_us");
        let run_ns = serve::window_mean_ns(&before, &after, "ptsim_serve_simulate_run_us");
        let split = Split::new(client_ns, endpoint_ns, run_ns);
        if !split.closes() {
            out.problems.push("serve split does not close to the client latency".into());
        }
        let ms = |ns: i64| ns as f64 / 1e6;
        out.set("serve.requests", lr.attempted as f64);
        out.set("serve.client_mean_ms", ms(split.client_ns));
        out.set("serve.transport_ms", ms(split.transport_ns));
        out.set("serve.queue_wire_ms", ms(split.queue_wire_ns));
        out.set("serve.run_ms", ms(split.run_ns));
        let p = serve::histogram_percentiles(
            addr,
            &["serve.simulate.latency_us", "serve.simulate.run_us"],
        )?;
        let ((e50, e99), (r50, r99)) = (p[0], p[1]);
        out.set("serve.endpoint_p50_ms", e50 / 1e3);
        out.set("serve.endpoint_p99_ms", e99 / 1e3);
        out.set("serve.run_p50_ms", r50 / 1e3);
        out.set("serve.run_p99_ms", r99 / 1e3);
        out.set("serve.queue_depth", serve::sample(&after, "ptsim_serve_queue_depth"));
        let rejected = after
            .iter()
            .filter(|(k, _)| k.starts_with("ptsim_serve_rejected_"))
            .fold(0.0, |acc, (_, v)| acc + v);
        out.set("serve.rejected", rejected);
        out.set(
            "serve.coalesced",
            serve::sample(&after, "ptsim_serve_coalesced")
                - serve::sample(&before, "ptsim_serve_coalesced"),
        );
        let indices: Vec<usize> = serve::request_stream(args.seed, 0, 1).take(300).collect();
        let stages = serve::replay(&bodies, &indices, &expected).map_err(|e| e.to_string())?;
        out.attempted += indices.len() as u64;
        out.failed += stages.mismatches;
        out.set("serve.parse_ms", median(&stages.parse_ns) / 1e6);
        out.set("serve.compile_ms", median(&stages.compile_ns) / 1e6);
        out.set("serve.engine_ms", median(&stages.engine_ns) / 1e6);
        out.set("serve.encode_ms", median(&stages.encode_ns) / 1e6);
        // The daemon runs untraced; the replay times each engine run with
        // and without the phase counters attached.
        out.set(
            "trace_overhead_ratio",
            median(&stages.traced_engine_ns) / median(&stages.engine_ns),
        );
        // Cold compile stages over the catalog through one kernel store,
        // as the daemon's cache compiles them.
        let store = KernelStore::new();
        let mut total = sim::CompileStages::default();
        for spec in &catalog {
            let model = spec.model.build().map_err(|e| e.to_string())?;
            let (_, s) =
                sim::staged_compile(&spec.config, &model, &store).map_err(|e| e.to_string())?;
            total.add(&s);
        }
        set_compile_layers(&mut out, &[total]);
        set_cache_layers(&mut out);
    }
    daemon.shutdown()?;
    Ok(out)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

fn host_context() -> Json {
    // Only a checkout's own `.git`: git would otherwise search upwards and
    // could report an enclosing repository's commit.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))?
                .split_once(':')
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj()
        .set("nproc", Json::u64(nproc() as u64))
        .set("cpu", Json::str(cpu))
        .set("rustc", Json::str(command_line("rustc", &["-V"])))
        .set("commit", Json::str(commit))
        .set("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" }))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(serve::DAEMON_FLAG) {
        return serve::daemon_main();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pins = parse_json(PINS).expect("pins.json is valid JSON");
    let result = match args.workload.as_str() {
        "dram_sweep" => run_sweep(&args, &pins),
        _ => run_serve(&args),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let declared = if args.trace { metrics::per_layer() } else { metrics::end_to_end() };
    let mut problems = out.problems.clone();
    for (name, _) in &declared {
        if !args.trace && !out.values.get(name).is_some_and(|v| v.is_finite() && *v > 0.0) {
            problems.push(format!("end-to-end metric {name} was not measured"));
        }
    }
    let windows = WINDOW_METRICS.iter().enumerate().fold(Json::obj(), |j, (i, (name, _))| {
        j.set(name, Json::Arr(out.windows.iter().map(|w| Json::num(w[i])).collect()))
    });
    let work = Json::Obj(out.work.iter().map(|(k, v)| (k.clone(), Json::u64(*v))).collect());
    let fps = Json::Obj(out.fingerprints.iter().map(|(k, v)| (k.clone(), Json::str(v))).collect());
    let context = Json::obj()
        .set("workload", Json::str(&args.workload))
        .set("seed", Json::u64(args.seed))
        .set("seconds", Json::num(args.seconds))
        .set("trace", Json::Bool(args.trace))
        .set("latency_samples", Json::u64(out.samples as u64))
        .set("op_seconds", Json::Arr(out.op_seconds.iter().map(|&s| Json::num(s)).collect()))
        .set("windows", windows)
        .set("host", host_context())
        .set("work", work)
        .set("fingerprints", fps)
        .set("problems", Json::Arr(problems.iter().map(Json::str).collect()));
    for p in &problems {
        eprintln!("perfbench: {}: {p}", args.workload);
    }
    for (name, unit) in &declared {
        eprintln!("  {name:<32} {:>16.6} {unit}", out.values.get(name).copied().unwrap_or(0.0));
    }
    println!("{}", Json::obj().set("perfbench", context).render());
    let correct = problems.is_empty() && out.failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, out.attempted, out.failed, &declared, &out.values)
    );
    ExitCode::SUCCESS
}

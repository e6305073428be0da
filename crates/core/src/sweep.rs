//! The parallel sweep harness.
//!
//! Design-space exploration — the workload PyTorchSim's speed argument
//! (§3.7–3.8) exists to serve — runs grids of
//! `(model × config × compiler options × fidelity)` points. Every point is
//! an independent simulation, so a sweep parallelizes embarrassingly; what
//! must be shared is the *compiler* work, which the harness deduplicates
//! through one [`CompileCache`]: each unique (model, batch, config,
//! options) combination compiles exactly once no matter how many points or
//! worker threads request it.
//!
//! Guarantees:
//!
//! - **Determinism**: simulation is single-threaded *per point*; workers
//!   never share mutable simulator state. A sweep's [`SweepReport`] is
//!   bit-identical whatever `jobs` count executed it (wall-clock fields
//!   excepted), and results always come back in input order.
//! - **No external dependencies**: the pool is scoped `std::thread`.
//! - **Tracing under parallelism**: attach one tracer per point via
//!   [`RunOptions::with_tracer`]; each point's events land in its own
//!   timeline, so concurrent points never interleave their traces.
//!
//! # Examples
//!
//! ```
//! use ptsim_common::config::SimConfig;
//! use pytorchsim::sweep::{Sweep, SweepOptions, SweepPoint};
//!
//! let mut sweep = Sweep::new();
//! for n in [16, 32] {
//!     sweep.push(SweepPoint::model(ptsim_models::gemm(n), SimConfig::tiny()));
//! }
//! let report = sweep.run(&SweepOptions::with_jobs(2))?;
//! assert_eq!(report.results.len(), 2);
//! assert_eq!(report.cache.compiles, 2);
//! # Ok::<(), ptsim_common::Error>(())
//! ```

use crate::cache::{CompileCache, CompileCacheStats};
use crate::simulator::{RunOptions, Simulator};
use ptsim_common::config::SimConfig;
use ptsim_common::json::{FromJson, Json, ToJson};
use ptsim_common::{CancelToken, Result};
use ptsim_compiler::CompilerOptions;
use ptsim_models::ModelSpec;
use ptsim_tog::ExecutableTog;
use ptsim_togsim::{ExecutionBackend, JobSpec, SimReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one simulated job of a sweep point executes.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// A model compiled through the shared cache (the common case).
    Spec(ModelSpec),
    /// A pre-built executable TOG, bypassing compilation (sparse lowering,
    /// hand-built NUMA streams, ...).
    Tog(Arc<ExecutableTog>),
}

/// One job of a point: its work plus its placement on the NPU.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// The work to execute.
    pub source: JobSource,
    /// Partition, tag, and arrival time.
    pub placement: JobSpec,
}

/// One point of the sweep grid: a full simulation setup.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Display label (defaults to the first job's model name).
    pub label: String,
    /// NPU configuration.
    pub cfg: SimConfig,
    /// Compiler options.
    pub opts: CompilerOptions,
    /// Fidelity, tracer, and safety limit.
    pub run: RunOptions,
    /// The jobs simulated together on this point's NPU.
    pub jobs: Vec<SweepJob>,
}

impl SweepPoint {
    /// The common single-model point: one inference of `spec` on the full
    /// NPU with default compiler options at TLS fidelity.
    pub fn model(spec: ModelSpec, cfg: SimConfig) -> Self {
        SweepPoint {
            label: spec.name.clone(),
            cfg,
            opts: CompilerOptions::default(),
            run: RunOptions::tls(),
            jobs: vec![SweepJob { source: JobSource::Spec(spec), placement: JobSpec::default() }],
        }
    }

    /// A multi-tenant point: several models co-resident on one NPU, each
    /// compiled through the shared cache.
    pub fn tenants(
        label: impl Into<String>,
        cfg: SimConfig,
        tenants: impl IntoIterator<Item = (ModelSpec, JobSpec)>,
    ) -> Self {
        SweepPoint {
            label: label.into(),
            cfg,
            opts: CompilerOptions::default(),
            run: RunOptions::tls(),
            jobs: tenants
                .into_iter()
                .map(|(spec, placement)| SweepJob { source: JobSource::Spec(spec), placement })
                .collect(),
        }
    }

    /// A point over pre-built TOGs (no compilation).
    pub fn raw(
        label: impl Into<String>,
        cfg: SimConfig,
        jobs: impl IntoIterator<Item = (Arc<ExecutableTog>, JobSpec)>,
    ) -> Self {
        SweepPoint {
            label: label.into(),
            cfg,
            opts: CompilerOptions::default(),
            run: RunOptions::tls(),
            jobs: jobs
                .into_iter()
                .map(|(tog, placement)| SweepJob { source: JobSource::Tog(tog), placement })
                .collect(),
        }
    }

    /// Overrides the label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Overrides the compiler options.
    #[must_use]
    pub fn with_options(mut self, opts: CompilerOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Overrides the run options (fidelity, execution backend, tracer,
    /// safety limit).
    #[must_use]
    pub fn with_run(mut self, run: RunOptions) -> Self {
        self.run = run;
        self
    }

    /// Adds a further job to the point.
    #[must_use]
    pub fn with_job(mut self, source: JobSource, placement: JobSpec) -> Self {
        self.jobs.push(SweepJob { source, placement });
        self
    }

    /// Executes this point against a shared compile cache. A sweep-level
    /// `cancel` token (from [`SweepOptions::cancel`]) is checked before
    /// the point starts and threaded into its compile and simulation; a
    /// point-level [`RunOptions::cancel`] takes precedence.
    fn execute(
        &self,
        cache: &Arc<CompileCache>,
        cancel: Option<&CancelToken>,
    ) -> Result<PointResult> {
        let started = Instant::now();
        let mut run = self.run.clone();
        if run.cancel.is_none() {
            run.cancel = cancel.cloned();
        }
        if let Some(token) = &run.cancel {
            token.checkpoint(0, "sweep")?;
        }
        self.cfg.validate()?;
        let sim = Simulator::builder(self.cfg.clone())
            .compiler_options(self.opts.clone())
            .shared_cache(Arc::clone(cache))
            .build();
        let mut togsim = sim.new_togsim(&run);
        for job in &self.jobs {
            match &job.source {
                JobSource::Spec(spec) => {
                    let model = sim.compile_with_cancel(spec, run.cancel.as_ref())?;
                    let mut placement = job.placement.clone();
                    if run.needs_kernels() && placement.kernels.is_none() {
                        placement.kernels = Some(Arc::new(model.kernels.clone()));
                    }
                    togsim.add_shared_job(Arc::new(model.tog.clone()), placement);
                }
                JobSource::Tog(tog) => {
                    togsim.add_shared_job(Arc::clone(tog), job.placement.clone());
                }
            }
        }
        let report = togsim.run_with(run.backend)?;
        Ok(PointResult {
            label: self.label.clone(),
            report,
            wall_seconds: started.elapsed().as_secs_f64(),
        })
    }
}

/// Execution parameters of [`Sweep::run`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads (0 or 1 = serial). Capped at the point count.
    pub jobs: usize,
    /// Share this cache instead of a sweep-private one — chain sweeps to
    /// reuse compilations, or pre-warm a cache for later simulators.
    pub cache: Option<Arc<CompileCache>>,
    /// Cooperative cancellation for the whole sweep: the token is checked
    /// before each point starts and propagated into every point's compile
    /// and simulation (points with their own [`RunOptions::cancel`] keep
    /// it). Once fired, remaining points fail fast with
    /// [`ptsim_common::Error::Cancelled`].
    pub cancel: Option<CancelToken>,
}

impl SweepOptions {
    /// A sweep over `jobs` worker threads.
    pub fn with_jobs(jobs: usize) -> Self {
        SweepOptions { jobs, ..SweepOptions::default() }
    }

    /// Shares `cache` with the sweep.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Arms cooperative cancellation for every point of the sweep.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// One point's outcome.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PointResult {
    /// The point's label.
    pub label: String,
    /// The simulation report.
    pub report: SimReport,
    /// Wall-clock seconds this point took (compile, when it was the first
    /// to request its model, plus simulation). Excluded from determinism
    /// guarantees.
    pub wall_seconds: f64,
}

/// The collected results of a sweep, in input order.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SweepReport {
    /// Per-point results, index-aligned with the submitted points.
    pub results: Vec<PointResult>,
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall-clock seconds.
    pub wall_seconds: f64,
    /// Compile-cache counters for the sweep: `compiles` is the number of
    /// unique (model, batch, config, options) combinations.
    pub cache: CompileCacheStats,
}

impl SweepReport {
    /// The simulation reports alone (no wall-clock fields): two sweeps of
    /// the same grid must compare equal here whatever their `jobs` counts.
    pub fn sim_reports(&self) -> Vec<&SimReport> {
        self.results.iter().map(|r| &r.report).collect()
    }
}

impl ToJson for PointResult {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("label", Json::str(&self.label))
            .set("report", self.report.to_json())
            .set("wall_seconds", Json::num(self.wall_seconds))
    }
}

impl FromJson for PointResult {
    fn from_json(v: &Json) -> std::result::Result<Self, String> {
        Ok(PointResult {
            label: v.req_str("label")?.to_string(),
            report: SimReport::from_json(v.req("report")?)?,
            wall_seconds: v.req_num("wall_seconds")?,
        })
    }
}

impl ToJson for SweepReport {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("results", self.results.to_json())
            .set("jobs", Json::u64(self.jobs as u64))
            .set("wall_seconds", Json::num(self.wall_seconds))
            .set("cache", self.cache.to_json())
    }
}

impl FromJson for SweepReport {
    fn from_json(v: &Json) -> std::result::Result<Self, String> {
        Ok(SweepReport {
            results: Vec::from_json(v.req("results")?)?,
            jobs: v.req_usize("jobs")?,
            wall_seconds: v.req_num("wall_seconds")?,
            cache: crate::cache::CompileCacheStats::from_json(v.req("cache")?)?,
        })
    }
}

/// A declared grid of simulation points, executed by a worker pool with
/// deterministic, input-ordered collection.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    points: Vec<SweepPoint>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep::default()
    }

    /// A sweep over the cross product `specs × configs` at TLS fidelity —
    /// the everyday exploration grid. Point labels are
    /// `"{spec}@{config label}"`.
    pub fn grid(
        specs: impl IntoIterator<Item = ModelSpec>,
        configs: &[(String, SimConfig)],
    ) -> Self {
        let mut sweep = Sweep::new();
        for spec in specs {
            for (cfg_label, cfg) in configs {
                let label = format!("{}@{cfg_label}", spec.name);
                sweep.push(SweepPoint::model(spec.clone(), cfg.clone()).with_label(label));
            }
        }
        sweep
    }

    /// Applies `backend` to every point declared so far — how a whole
    /// exploration grid opts into the parallel (or reference) execution
    /// backend in one place. Points pushed afterwards keep their own run
    /// options. Reports stay bit-identical across backends.
    #[must_use]
    pub fn with_backend(mut self, backend: ExecutionBackend) -> Self {
        for point in &mut self.points {
            point.run.backend = backend;
        }
        self
    }

    /// Adds a point, returning its index.
    pub fn push(&mut self, point: SweepPoint) -> usize {
        self.points.push(point);
        self.points.len() - 1
    }

    /// The declared points.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Number of declared points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are declared.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Executes every point and collects results in input order.
    ///
    /// Workers pull points off a shared queue, so long points do not
    /// stall short ones; each worker simulates its point in isolation
    /// (only the compile cache is shared, and compiled models are
    /// immutable). On a point error the sweep still drains, then returns
    /// the first error in input order.
    ///
    /// # Errors
    ///
    /// Returns the first failing point's compilation or simulation error.
    pub fn run(&self, options: &SweepOptions) -> Result<SweepReport> {
        let cache = options.cache.clone().unwrap_or_default();
        let jobs = options.jobs.clamp(1, self.points.len().max(1));
        let started = Instant::now();
        let hits_before = cache.stats();

        let slots: Vec<Mutex<Option<Result<PointResult>>>> =
            self.points.iter().map(|_| Mutex::new(None)).collect();
        let cancel = options.cancel.as_ref();
        let next = AtomicUsize::new(0);
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(point) = self.points.get(i) else { break };
            let result = point.execute(&cache, cancel);
            *slots[i].lock().expect("sweep slot poisoned") = Some(result);
        };
        // The calling thread is one of the `jobs` workers (the only one when
        // `jobs == 1`), so a sweep spawns `jobs - 1` threads.
        std::thread::scope(|scope| {
            for _ in 1..jobs {
                scope.spawn(worker);
            }
            worker();
        });

        let mut results = Vec::with_capacity(self.points.len());
        for slot in slots {
            let result = slot
                .into_inner()
                .expect("sweep slot poisoned")
                .expect("scoped workers fill every slot");
            results.push(result?);
        }
        let after = cache.stats();
        Ok(SweepReport {
            results,
            jobs,
            wall_seconds: started.elapsed().as_secs_f64(),
            cache: after.delta(hits_before),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptsim_models::gemm;

    fn small_grid() -> Sweep {
        let configs = vec![("tiny".to_string(), SimConfig::tiny())];
        Sweep::grid([gemm(16), gemm(32), gemm(48)], &configs)
    }

    #[test]
    fn cancelled_sweep_fails_every_remaining_point_fast() {
        let sweep = small_grid();
        let token = CancelToken::new();
        token.cancel();
        let err = sweep.run(&SweepOptions::with_jobs(2).with_cancel(token)).unwrap_err();
        assert!(matches!(err, ptsim_common::Error::Cancelled { .. }), "{err}");
    }

    #[test]
    fn unfired_sweep_token_changes_nothing() {
        let sweep = small_grid();
        let plain = sweep.run(&SweepOptions::with_jobs(1)).unwrap();
        let armed = sweep.run(&SweepOptions::with_jobs(1).with_cancel(CancelToken::new())).unwrap();
        assert_eq!(plain.sim_reports(), armed.sim_reports());
    }

    #[test]
    fn serial_and_parallel_sweeps_agree() {
        let sweep = small_grid();
        let serial = sweep.run(&SweepOptions::with_jobs(1)).unwrap();
        let parallel = sweep.run(&SweepOptions::with_jobs(3)).unwrap();
        assert_eq!(serial.sim_reports(), parallel.sim_reports());
        assert_eq!(serial.results.len(), 3);
        assert_eq!(parallel.jobs, 3);
    }

    #[test]
    fn duplicate_points_compile_once() {
        let mut sweep = Sweep::new();
        for _ in 0..4 {
            sweep.push(SweepPoint::model(gemm(16), SimConfig::tiny()));
        }
        let report = sweep.run(&SweepOptions::with_jobs(4)).unwrap();
        assert_eq!(report.cache.compiles, 1, "one unique point");
        assert_eq!(report.cache.hits, 3);
        let first = &report.results[0].report;
        assert!(report.results.iter().all(|r| &r.report == first));
    }

    #[test]
    fn backend_choice_does_not_change_sweep_results() {
        use ptsim_togsim::ExecutionBackend;
        let configs = vec![("tiny".to_string(), SimConfig::tiny())];
        let serial = Sweep::grid([gemm(16), gemm(32)], &configs);
        let mut parallel = Sweep::new();
        for point in serial.points() {
            parallel.push(point.clone().with_run(
                RunOptions::tls().with_backend(ExecutionBackend::Parallel { workers: 2 }),
            ));
        }
        let a = serial.run(&SweepOptions::with_jobs(1)).unwrap();
        let b = parallel.run(&SweepOptions::with_jobs(1)).unwrap();
        assert_eq!(a.sim_reports(), b.sim_reports());
    }

    #[test]
    fn jobs_zero_runs_serially() {
        let sweep = small_grid();
        let report = sweep.run(&SweepOptions::default()).unwrap();
        assert_eq!(report.jobs, 1);
        assert_eq!(report.results.len(), 3);
    }

    #[test]
    fn shared_cache_survives_across_sweeps() {
        let cache = CompileCache::shared();
        let sweep = small_grid();
        let opts = SweepOptions::with_jobs(2).with_cache(Arc::clone(&cache));
        let first = sweep.run(&opts).unwrap();
        let second = sweep.run(&opts).unwrap();
        assert_eq!(first.cache.compiles, 3);
        assert_eq!(second.cache.compiles, 0, "second sweep reuses every model");
        assert_eq!(second.cache.hits, 3);
        assert_eq!(first.sim_reports(), second.sim_reports());
    }

    #[test]
    fn point_errors_surface_in_input_order() {
        // An impossible safety limit forces a simulation fault.
        let mut sweep = Sweep::new();
        sweep.push(SweepPoint::model(gemm(16), SimConfig::tiny()));
        sweep.push(
            SweepPoint::model(gemm(32), SimConfig::tiny())
                .with_run(RunOptions::tls().with_max_cycles(1)),
        );
        let err = sweep.run(&SweepOptions::with_jobs(2));
        assert!(err.is_err());
    }
}

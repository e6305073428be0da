//! The simulation layers measured from outside: the staged compiler
//! (`Compiler::capture/plan/emit`), the `CompileCache`, the TOGSim engine
//! (`Simulator::run_compiled` with the `RunOptions::with_metrics` phase
//! counters), and the sweep harness (`Sweep::run`).

use pytorchsim::common::config::{MemSchedulerPolicy, SimConfig};
use pytorchsim::common::fingerprint::fnv1a;
use pytorchsim::common::json::ToJson;
use pytorchsim::common::Result;
use pytorchsim::compiler::{CompiledModel, Compiler, CompilerOptions, KernelStore};
use pytorchsim::models::{self, ModelSpec};
use pytorchsim::togsim::SimReport;
use pytorchsim::trace::MetricsRegistry;
use pytorchsim::{CompileCache, CompileCacheStats, RunOptions, Simulator, Sweep, SweepPoint};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic work counters of one result, by name.
pub type Work = BTreeMap<String, u64>;

/// The NPU every simulation workload runs on.
pub fn base_config() -> SimConfig {
    SimConfig::tpu_v3_single_core()
}

/// The `dram_sweep` model: one encoder layer of BERT-Mini's shape (hidden
/// 256, 4 heads, feed-forward 1024) at sequence length 128. A sweep takes
/// about half a second, so a run holds dozens of them, and its DRAM
/// variants still split into a DRAM-bound (`ch16_q128`) and an
/// issue-bound (`ch4_fcfs`) point.
pub fn sweep_model() -> ModelSpec {
    let cfg = models::BertConfig {
        hidden: 256,
        layers: 1,
        heads: 4,
        intermediate: 1024,
        ..models::BertConfig::base(128, 1)
    };
    models::bert(cfg, "bert_mini_layer")
}

/// One DRAM configuration of the `dram_sweep` workload.
#[derive(Debug, Clone, Copy)]
pub struct DramVariant {
    /// Metric-name key of the point.
    pub key: &'static str,
    /// DRAM channels.
    pub channels: usize,
    /// Per-channel request queue depth.
    pub queue_depth: usize,
    /// Command scheduling policy.
    pub policy: MemSchedulerPolicy,
}

/// The sweep's points: the default HBM2 setup, the same with deep queues
/// (stresses the FR-FCFS scan), and four FCFS channels (moves host time
/// into issue backpressure).
pub const DRAM_VARIANTS: [DramVariant; 3] = [
    DramVariant {
        key: "ch16_q32",
        channels: 16,
        queue_depth: 32,
        policy: MemSchedulerPolicy::FrFcfs,
    },
    DramVariant {
        key: "ch16_q128",
        channels: 16,
        queue_depth: 128,
        policy: MemSchedulerPolicy::FrFcfs,
    },
    DramVariant { key: "ch4_fcfs", channels: 4, queue_depth: 32, policy: MemSchedulerPolicy::Fcfs },
];

impl DramVariant {
    /// The base configuration with this DRAM variant applied.
    pub fn config(&self) -> SimConfig {
        let mut cfg = base_config();
        cfg.dram.channels = self.channels;
        cfg.dram.queue_depth = self.queue_depth;
        cfg.dram.scheduler = self.policy;
        cfg
    }
}

/// FNV-1a over the report's canonical JSON: equal fingerprints mean
/// bit-identical reports.
pub fn report_fingerprint(report: &SimReport) -> u64 {
    fnv1a(report.to_json_string().as_bytes())
}

/// Host nanoseconds of one traced run, split by engine phase. `other_ns`
/// is the traced wall minus the four phases, so the split closes exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    /// Wall time around the traced call.
    pub wall_ns: u64,
    /// `togsim.issue_ns`.
    pub issue_ns: u64,
    /// `togsim.dram_advance_ns`.
    pub dram_ns: u64,
    /// `togsim.noc_advance_ns`.
    pub noc_ns: u64,
    /// `togsim.collect_ns`.
    pub collect_ns: u64,
    /// Everything else inside the wall (scheduler, drain steps, report).
    pub other_ns: i64,
    /// `togsim.iterations`.
    pub iterations: u64,
    /// `togsim.events_drained`.
    pub events_drained: u64,
    /// `togsim.cores_woken`.
    pub cores_woken: u64,
}

impl Phases {
    /// Reads the engine's phase counters out of `registry` for a run that
    /// took `wall_ns`.
    pub fn from_registry(registry: &MetricsRegistry, wall_ns: u64) -> Phases {
        let get = |name: &str| registry.counter(name).get();
        let mut p = Phases {
            wall_ns,
            issue_ns: get("togsim.issue_ns"),
            dram_ns: get("togsim.dram_advance_ns"),
            noc_ns: get("togsim.noc_advance_ns"),
            collect_ns: get("togsim.collect_ns"),
            other_ns: 0,
            iterations: get("togsim.iterations"),
            events_drained: get("togsim.events_drained"),
            cores_woken: get("togsim.cores_woken"),
        };
        p.other_ns = wall_ns as i64 - p.timed_ns() as i64;
        p
    }

    /// Sum of the four timed phases.
    pub fn timed_ns(&self) -> u64 {
        self.issue_ns + self.dram_ns + self.noc_ns + self.collect_ns
    }

    /// Whether the phases plus `other` equal the wall, with every phase
    /// inside it.
    pub fn closes(&self) -> bool {
        self.other_ns >= 0 && self.timed_ns() as i64 + self.other_ns == self.wall_ns as i64
    }

    /// Accumulates another run's split (sweep totals).
    pub fn add(&mut self, o: &Phases) {
        self.wall_ns += o.wall_ns;
        self.issue_ns += o.issue_ns;
        self.dram_ns += o.dram_ns;
        self.noc_ns += o.noc_ns;
        self.collect_ns += o.collect_ns;
        self.other_ns += o.other_ns;
        self.iterations += o.iterations;
        self.events_drained += o.events_drained;
        self.cores_woken += o.cores_woken;
    }

    /// The engine work counters.
    pub fn record_work(&self, work: &mut Work) {
        work.insert("togsim.iterations".into(), self.iterations);
        work.insert("togsim.events_drained".into(), self.events_drained);
        work.insert("togsim.cores_woken".into(), self.cores_woken);
    }
}

/// One untraced `run_compiled`, returning the report and host seconds.
///
/// # Errors
///
/// Simulation failures.
pub fn timed_run(sim: &Simulator, model: &CompiledModel) -> Result<(SimReport, f64)> {
    let t0 = Instant::now();
    let report = sim.run_compiled(model, &RunOptions::tls())?;
    Ok((report, t0.elapsed().as_secs_f64()))
}

/// One `run_compiled` with the engine's phase counters attached.
///
/// # Errors
///
/// Simulation failures.
pub fn traced_run(sim: &Simulator, model: &CompiledModel) -> Result<(SimReport, Phases)> {
    let registry = Arc::new(MetricsRegistry::new());
    let opts = RunOptions::tls().with_metrics(Arc::clone(&registry));
    let t0 = Instant::now();
    let report = sim.run_compiled(model, &opts)?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    Ok((report, Phases::from_registry(&registry, wall_ns)))
}

/// Model build plus a cold compile through a fresh `CompileCache`: the
/// set-up a first simulation of `build()` pays.
///
/// # Errors
///
/// Compilation failures.
pub fn cold_setup(
    cfg: &SimConfig,
    build: impl Fn() -> ModelSpec,
) -> Result<(Simulator, Arc<CompiledModel>, f64)> {
    let t0 = Instant::now();
    let spec = build();
    let sim = Simulator::builder(cfg.clone()).shared_cache(CompileCache::shared()).build();
    let model = sim.compile(&spec)?;
    Ok((sim, model, t0.elapsed().as_secs_f64()))
}

/// Host nanoseconds of each compiler stage for one cold compile.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileStages {
    /// `Compiler::capture`.
    pub capture_ns: u64,
    /// `Compiler::plan`.
    pub plan_ns: u64,
    /// `Compiler::emit` (kernel measurement plus TOG emission).
    pub emit_ns: u64,
    /// Kernels the timing simulator measured (store misses).
    pub kernels_measured: u64,
}

impl CompileStages {
    /// Accumulates another compile's stages.
    pub fn add(&mut self, o: &CompileStages) {
        self.capture_ns += o.capture_ns;
        self.plan_ns += o.plan_ns;
        self.emit_ns += o.emit_ns;
        self.kernels_measured += o.kernels_measured;
    }
}

/// Compiles `spec` stage by stage through `store`, timing each stage.
///
/// # Errors
///
/// Compilation failures.
pub fn staged_compile(
    cfg: &SimConfig,
    spec: &ModelSpec,
    store: &KernelStore,
) -> Result<(CompiledModel, CompileStages)> {
    let compiler = Compiler::new(cfg.clone(), CompilerOptions::default());
    let measured_before = store.stats().misses;
    let t0 = Instant::now();
    compiler.capture(&spec.graph)?;
    let t1 = Instant::now();
    let plan = compiler.plan(&spec.graph, store)?;
    let t2 = Instant::now();
    let model = compiler.emit(&spec.graph, &spec.name, 1, &plan, store)?;
    let t3 = Instant::now();
    let stages = CompileStages {
        capture_ns: (t1 - t0).as_nanos() as u64,
        plan_ns: (t2 - t1).as_nanos() as u64,
        emit_ns: (t3 - t2).as_nanos() as u64,
        kernels_measured: store.stats().misses - measured_before,
    };
    Ok((model, stages))
}

/// The counters a `SimReport` carries.
pub fn record_report_work(report: &SimReport, work: &mut Work) {
    work.insert("total_cycles".into(), report.total_cycles);
    work.insert("dram.reads".into(), report.dram.reads);
    work.insert("dram.writes".into(), report.dram.writes);
    work.insert("dram.row_hits".into(), report.dram.row_hits);
    work.insert("dram.row_misses".into(), report.dram.row_misses);
    work.insert("dram.row_conflicts".into(), report.dram.row_conflicts);
    work.insert("noc.messages".into(), report.noc.messages);
}

/// The compile cache's per-stage hits and misses.
pub fn record_cache_work(stats: &CompileCacheStats, work: &mut Work) {
    work.insert("compile_cache.compiles".into(), stats.compiles);
    for (stage, s) in [
        ("graph", stats.graph),
        ("plan", stats.plan),
        ("kernel", stats.kernel),
        ("model", stats.model),
    ] {
        work.insert(format!("compile_cache.{stage}_hits"), s.hits);
        work.insert(format!("compile_cache.{stage}_misses"), s.misses);
    }
}

/// Every deterministic counter of one cold compile plus one traced run of
/// `spec` on `cfg`: the numbers two runs must reproduce exactly.
///
/// # Errors
///
/// Compilation or simulation failures.
pub fn work_counts(cfg: &SimConfig, spec: &ModelSpec) -> Result<Work> {
    let mut work = Work::new();
    let (_, stages) = staged_compile(cfg, spec, &KernelStore::new())?;
    work.insert("compile.kernels_measured".into(), stages.kernels_measured);
    let (sim, model, _) = cold_setup(cfg, || spec.clone())?;
    record_cache_work(&sim.cache().stats(), &mut work);
    work.insert("togsim.tog_nodes".into(), model.stats.tog_nodes as u64);
    let (report, phases) = traced_run(&sim, &model)?;
    record_report_work(&report, &mut work);
    phases.record_work(&mut work);
    Ok(work)
}

/// The `dram_sweep` grid over `spec`; with `registries`, each point runs
/// with its own metrics registry attached (the traced sweep).
pub fn dram_sweep(spec: &ModelSpec, registries: Option<&[Arc<MetricsRegistry>]>) -> Sweep {
    let mut sweep = Sweep::new();
    for (i, v) in DRAM_VARIANTS.iter().enumerate() {
        let mut point = SweepPoint::model(spec.clone(), v.config()).with_label(v.key);
        if let Some(regs) = registries {
            point = point.with_run(RunOptions::tls().with_metrics(Arc::clone(&regs[i])));
        }
        sweep.push(point);
    }
    sweep
}

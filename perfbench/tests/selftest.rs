//! Self-tests of the benchmark: its work counters repeat exactly, its
//! host-time splits close exactly, its request streams replay from a
//! seed, and its metric catalogue matches `BENCHMARK.json`.

use perfbench::metrics;
use perfbench::serve::{self, Expected, Split};
use perfbench::sim::{self, DRAM_VARIANTS};
use ptsim_serve::server::{start, ServeConfig};
use pytorchsim::common::json::{parse_json, Json};
use pytorchsim::models::{self, BertConfig, ModelSpec};
use std::time::Duration;

fn small_models() -> Vec<ModelSpec> {
    vec![
        models::gemm(256),
        models::bert(BertConfig { layers: 1, ..BertConfig::base(32, 1) }, "bert_tiny"),
    ]
}

#[test]
fn two_runs_give_identical_work_counts() {
    for spec in small_models() {
        let a = sim::work_counts(&sim::base_config(), &spec).unwrap();
        let b = sim::work_counts(&sim::base_config(), &spec).unwrap();
        assert_eq!(a, b, "{}: work counters must repeat exactly", spec.name);
        for key in
            ["togsim.iterations", "togsim.events_drained", "dram.reads", "compile.kernels_measured"]
        {
            assert!(a[key] > 0, "{}: {key} was not counted", spec.name);
        }
    }
}

#[test]
fn engine_phases_close_to_the_traced_wall() {
    for spec in small_models() {
        let (sim, model, _) = sim::cold_setup(&sim::base_config(), || spec.clone()).unwrap();
        let (report, p) = sim::traced_run(&sim, &model).unwrap();
        assert!(p.closes(), "{}: {p:?}", spec.name);
        assert_eq!(
            p.issue_ns + p.dram_ns + p.noc_ns + p.collect_ns + p.other_ns as u64,
            p.wall_ns,
            "{}",
            spec.name
        );
        let (plain, _) = sim::timed_run(&sim, &model).unwrap();
        assert_eq!(report, plain, "tracing must not change the report");
    }
}

#[test]
fn traced_sweep_points_close_and_match_untraced_points() {
    let spec = models::gemm(256);
    let regs: Vec<_> = DRAM_VARIANTS
        .iter()
        .map(|_| std::sync::Arc::new(pytorchsim::trace::MetricsRegistry::new()))
        .collect();
    let traced =
        sim::dram_sweep(&spec, Some(&regs)).run(&pytorchsim::SweepOptions::with_jobs(2)).unwrap();
    let plain = sim::dram_sweep(&spec, None).run(&pytorchsim::SweepOptions::with_jobs(2)).unwrap();
    assert_eq!(traced.sim_reports(), plain.sim_reports());
    assert_eq!(plain.cache.compiles, 1, "DRAM variants share one compile");
    for (point, reg) in traced.results.iter().zip(&regs) {
        let p = sim::Phases::from_registry(reg, (point.wall_seconds * 1e9).round() as u64);
        assert!(p.closes(), "{}: {p:?}", point.label);
        assert!(p.iterations > 0, "{}: the point's registry saw its engine", point.label);
    }
}

#[test]
fn staged_compile_matches_the_cached_compile() {
    let spec = models::gemm(256);
    let (staged, stages) =
        sim::staged_compile(&sim::base_config(), &spec, &pytorchsim::compiler::KernelStore::new())
            .unwrap();
    let (sim, cached, _) = sim::cold_setup(&sim::base_config(), || spec.clone()).unwrap();
    assert_eq!(staged.stats.tog_nodes, cached.stats.tog_nodes);
    assert_eq!(stages.kernels_measured, sim.cache().stats().kernel.misses);
    let a = sim.run_compiled(&staged, &pytorchsim::RunOptions::tls()).unwrap();
    let b = sim.run_compiled(&cached, &pytorchsim::RunOptions::tls()).unwrap();
    assert_eq!(sim::report_fingerprint(&a), sim::report_fingerprint(&b));
}

#[test]
fn a_seed_replays_the_same_request_bytes() {
    let bodies = serve::wire_bodies(&serve::catalog());
    let stream = |seed: u64, conn: usize| -> Vec<&str> {
        serve::request_stream(seed, conn, 2).take(200).map(|i| bodies[i].as_str()).collect()
    };
    assert_eq!(stream(7, 0), stream(7, 0));
    assert_eq!(stream(7, 1), stream(7, 1));
    assert_ne!(stream(7, 0), stream(8, 0), "another seed draws another stream");
    assert_ne!(stream(7, 0), stream(7, 1));
    // The two connections' shares are disjoint: nothing can coalesce.
    let s0: std::collections::BTreeSet<_> = stream(7, 0).into_iter().collect();
    assert!(stream(7, 1).iter().all(|b| !s0.contains(b)));
    assert!(s0.len() > 1);
}

#[test]
fn serve_split_closes_to_the_client_latency() {
    let catalog = serve::catalog();
    let bodies = serve::wire_bodies(&catalog);
    let expected = Expected::direct(&catalog).unwrap();
    let handle =
        start(ServeConfig { workers: 2, result_cache_mb: 0, ..ServeConfig::default() }).unwrap();
    let addr = handle.addr();
    assert_eq!(serve::catalog_pass(addr, &bodies, &expected).unwrap(), 0);
    let before = serve::scrape(addr).unwrap();
    let lr = serve::closed_loop(addr, &bodies, &expected, 3, 2, Duration::from_millis(300));
    let after = serve::scrape(addr).unwrap();
    assert!(lr.attempted > 0);
    assert_eq!(lr.failed, 0, "every answer equals the direct run");
    let requests = serve::sample(&after, "ptsim_serve_simulate_requests")
        - serve::sample(&before, "ptsim_serve_simulate_requests");
    assert_eq!(requests, lr.attempted as f64, "the window holds exactly the loop's requests");
    let client = perfbench::stats::mean(&lr.latencies_ns).round() as i64;
    let split = Split::new(
        client,
        serve::window_mean_ns(&before, &after, "ptsim_serve_simulate_latency_us"),
        serve::window_mean_ns(&before, &after, "ptsim_serve_simulate_run_us"),
    );
    assert!(split.closes(), "{split:?}");
    assert_eq!(split.transport_ns + split.queue_wire_ns + split.run_ns, client);
    assert!(split.run_ns > 0 && split.transport_ns > 0, "{split:?}");
    let stages = serve::replay(&bodies, &[0, 5, 9, 15], &expected).unwrap();
    assert_eq!(stages.mismatches, 0, "replayed and traced runs equal the direct runs");
    assert_eq!(stages.engine_ns.len(), 4);
    assert_eq!(stages.traced_engine_ns.len(), 4);
    handle.shutdown();
    handle.join();
}

#[test]
fn serve_split_rejects_a_part_outside_its_window() {
    assert!(Split::new(1000, 600, 200).closes());
    assert!(!Split::new(1000, 1200, 200).closes(), "endpoint longer than the client");
    assert!(!Split::new(1000, 600, 700).closes(), "run longer than the endpoint");
    assert!(!Split::new(1000, 600, -1).closes(), "negative run");
}

/// The catalogue in the code is the one `BENCHMARK.json` declares.
#[test]
fn metric_catalogue_matches_benchmark_json() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let bench = parse_json(&text).unwrap();
    let declared = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (m.req_str("name").unwrap().to_string(), m.req_str("unit").unwrap().to_string())
            })
            .collect()
    };
    let code = |v: Vec<metrics::Declared>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(declared("end_to_end"), code(metrics::end_to_end()));
    assert_eq!(declared("per_layer"), code(metrics::per_layer()));
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.req_str("name").unwrap())
        .collect();
    assert_eq!(workloads, ["dram_sweep", "serve_uncached"]);
}

#[test]
fn every_sweep_point_is_pinned() {
    let pins = parse_json(include_str!("../pins.json")).unwrap();
    for v in DRAM_VARIANTS {
        let p = pins.get("dram_sweep").and_then(|s| s.get(v.key)).expect(v.key);
        assert_eq!(p.req_str("fingerprint").unwrap().len(), 16, "{}", v.key);
        assert!(p.req_u64("total_cycles").unwrap() > 0, "{}", v.key);
    }
}

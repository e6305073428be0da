//! The metric catalogue (names and units, mirrored by `BENCHMARK.json`)
//! and the result line.

use crate::sim::DRAM_VARIANTS;
use pytorchsim::common::json::Json;
use std::collections::BTreeMap;

/// A metric's name and unit.
pub type Declared = (String, &'static str);

/// Metrics a user of the system sees, reported with `--trace 0`.
pub fn end_to_end() -> Vec<Declared> {
    [
        ("wall_s", "s"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MiB"),
        ("success_rate", "ratio"),
        ("req_per_s", "1/s"),
        ("p50_ms", "ms"),
        ("p99_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// Single-layer metrics, reported with `--trace 1`. A workload that does
/// not exercise a layer reports zero for it.
pub fn per_layer() -> Vec<Declared> {
    fn group(unit: &'static str, names: &[&str]) -> Vec<Declared> {
        names.iter().map(|n| (n.to_string(), unit)).collect()
    }
    let phases = ["traced_wall_s", "issue_s", "dram_s", "noc_s", "collect_s", "other_s"];
    let mut out: Vec<Declared> = phases.iter().map(|p| (format!("togsim.{p}"), "s")).collect();
    out.extend(group(
        "count",
        &["togsim.iterations", "togsim.events_drained", "togsim.cores_woken", "togsim.tog_nodes"],
    ));
    out.extend(group("ns", &["togsim.ns_per_event"]));
    out.extend(group(
        "count",
        &["dram.reads", "dram.writes", "dram.row_hits", "dram.row_misses", "dram.row_conflicts"],
    ));
    out.extend(group("ns", &["dram.ns_per_request"]));
    out.extend(group("count", &["noc.messages"]));
    out.extend(group("ns", &["noc.ns_per_message"]));
    out.extend(group("s", &["compile.capture_s", "compile.plan_s", "compile.emit_s"]));
    out.extend(group("count", &["compile.kernels_measured", "compile_cache.compiles"]));
    out.extend(group("ratio", &["compile_cache.kernel_hit_ratio"]));
    for stage in ["graph", "plan", "kernel", "model"] {
        out.push((format!("compile_cache.{stage}_hits"), "count"));
        out.push((format!("compile_cache.{stage}_misses"), "count"));
    }
    out.extend(group("ratio", &["sweep.efficiency"]));
    for v in DRAM_VARIANTS {
        out.push((format!("sweep.{}.wall_s", v.key), "s"));
        out.extend(phases.iter().map(|p| (format!("sweep.{}.{p}", v.key), "s")));
    }
    out.extend(group("count", &["serve.requests"]));
    out.extend(group(
        "ms",
        &[
            "serve.client_mean_ms",
            "serve.transport_ms",
            "serve.queue_wire_ms",
            "serve.run_ms",
            "serve.endpoint_p50_ms",
            "serve.endpoint_p99_ms",
            "serve.run_p50_ms",
            "serve.run_p99_ms",
            "serve.parse_ms",
            "serve.compile_ms",
            "serve.engine_ms",
            "serve.encode_ms",
        ],
    ));
    out.extend(group("count", &["serve.queue_depth", "serve.rejected", "serve.coalesced"]));
    out.extend(group("ratio", &["trace_overhead_ratio"]));
    out
}

/// The last line of a run: `correct`, `attempted`, `failed`, and every
/// `declared` metric from `values` (undeclared values are dropped; a
/// declared one never set reads zero).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[Declared],
    values: &BTreeMap<String, f64>,
) -> String {
    let mut metrics = Json::obj();
    for (name, unit) in declared {
        let value = values.get(name).copied().unwrap_or(0.0);
        metrics = metrics
            .set(name, Json::obj().set("value", Json::num(value)).set("unit", Json::str(*unit)));
    }
    Json::obj()
        .set("correct", Json::Bool(correct))
        .set("attempted", Json::u64(attempted))
        .set("failed", Json::u64(failed))
        .set("metrics", metrics)
        .render()
}

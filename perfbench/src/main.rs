//! The MacroSS reproduction's benchmark: three workloads, each driven from
//! outside through the crates' public functions, measured end to end
//! (untraced runs) or layer by layer (traced runs).
//!
//! Usage:
//! `macross-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every output is checked
//! against an independent reference; any mismatch makes `correct` false
//! and the exit code 1. See `README.md` for the workloads and metrics.

mod check;
mod churn;
mod service;
mod stats;
mod steady;
mod suite;
mod threaded;
mod trace;

use std::time::{Duration, Instant};

/// End-to-end metrics, reported by every workload on untraced runs.
pub const E2E: [(&str, &str); 8] = [
    ("outputs_per_s", "1/s"),
    ("compile_ms_p50", "ms"),
    ("compile_ms_p95", "ms"),
    ("sessions_per_s", "1/s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported on traced runs. A workload that does not
/// measure one of them says so with [`Report::unmeasured`], which makes
/// it read 0; any other metric it leaves unset fails the run.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("core.self_ms", "ms"),
    ("core.simdize_ms", "ms"),
    ("core.actors_vectorized", "count"),
    ("core.skipped_unprofitable", "count"),
    ("core.scale_factor", "count"),
    ("core.simd_speedup_measured", "x"),
    ("core.simd_speedup_modelled", "x"),
    ("sdf.self_ms", "ms"),
    ("sdf.schedule_ms", "ms"),
    ("sdf.firings_per_iter", "count"),
    ("streamir.self_ms", "ms"),
    ("vm.self_ms", "ms"),
    ("vm.compile_ms", "ms"),
    ("vm.kernels", "count"),
    ("vm.bytecode_coverage", "share"),
    ("vm.setup_ms", "ms"),
    ("vm.init_ms", "ms"),
    ("vm.ns_per_firing", "ns"),
    ("vm.firings_per_output", "count"),
    ("vm.kernel_speedup", "x"),
    ("vm.vector_filter_share", "share"),
    ("vm.scalar_filter_share", "share"),
    ("vm.splitjoin_share", "share"),
    ("runtime.self_ms", "ms"),
    ("runtime.worker_overhead", "x"),
    ("runtime.stalls", "count"),
    ("runtime.stall_ms", "ms"),
    ("runtime.ring_traffic", "count"),
    ("runtime.batched_share", "share"),
    ("runtime.core_busy_share", "share"),
    ("multicore.self_ms", "ms"),
    ("multicore.calibrate_ms", "ms"),
    ("multicore.plan_ms", "ms"),
    ("multicore.cores_used", "count"),
    ("multicore.cut_edges", "count"),
    ("multicore.fused_groups", "count"),
    ("multicore.fissioned", "count"),
    ("multicore.modelled_speedup", "x"),
    ("multicore.measured_speedup", "x"),
    ("service.self_ms", "ms"),
    ("service.submit_ms_hit", "ms"),
    ("service.submit_ms_miss", "ms"),
    ("service.cache_hit_rate", "share"),
    ("service.evictions", "count"),
    ("service.close_wait_ms", "ms"),
    ("service.rejected", "count"),
    ("pdf.self_ms", "ms"),
    ("pdf.set_param_ms", "ms"),
    ("pdf.swaps", "count"),
    ("pdf.scache_hit_rate", "share"),
    ("harness.self_ms", "ms"),
    ("harness.attributed_share", "share"),
];

/// Harness-level traced metrics: the attribution check, tracing
/// overhead, the A/A control row and the measurement conditions.
pub const HARNESS: [(&str, &str); 10] = [
    ("harness.tracing_overhead", "share"),
    ("harness.aa_ratio", "x"),
    ("harness.aa_spread", "share"),
    ("cond.nproc", "count"),
    ("cond.kernel_tier_bits", "bits"),
    ("cond.comm_cycles_per_element", "cycles"),
    ("cond.comm_sync_per_edge", "cycles"),
    ("cond.parallel_plans", "count"),
    ("cond.plan_signature", "hash"),
    ("cond.setup_passes", "count"),
];

/// Per-benchmark SIMD speedups (measured and modelled) on traced
/// `steady_suite` runs, named `core.speedup_measured.<bench>` and
/// `core.speedup_modelled.<bench>`.
pub fn per_bench_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for b in macross_benchsuite::all() {
        out.push((format!("core.speedup_measured.{}", b.name), "x"));
        out.push((format!("core.speedup_modelled.{}", b.name), "x"));
    }
    out
}

/// Every metric a traced run prints, in order.
pub fn traced_metrics() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .chain(HARNESS.iter())
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_bench_metrics())
        .collect()
}

/// The traced run's attribution tolerance: the system's layers must
/// account for at least this share of the traced end-to-end time.
pub const ATTRIBUTION_FLOOR: f64 = 0.90;

/// Set-up passes per run; `setup_s` reports their median.
pub const SETUP_PASSES: usize = 5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// Count one checked operation.
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("FAILED {what}: {e}");
            }
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// `<prefix>_ms_p50` and `<prefix>_ms_p95` from millisecond samples.
    pub fn latency(&mut self, prefix: &str, samples_ms: &[f64]) {
        self.set(&format!("{prefix}_ms_p50"), stats::median(samples_ms));
        self.set(
            &format!("{prefix}_ms_p95"),
            stats::quantile(samples_ms, 0.95),
        );
    }

    /// `setup_s` and `cond.setup_passes` from the one-off set-up cost and
    /// the durations of the repeated passes.
    pub fn setup(&mut self, once_s: f64, passes_s: &[f64]) {
        self.set("setup_s", once_s + stats::median(passes_s));
        self.set("cond.setup_passes", passes_s.len() as f64);
    }

    /// The traced run's attribution: per-layer self times of the layers
    /// that recorded spans, the share of the traced end-to-end time they
    /// account for, and the check. The traced end-to-end time is the sum
    /// of the `roots` root spans the workload opened, one over each
    /// traced block (or over its whole window), with everything the
    /// workload did in them underneath.
    pub fn attribution(&mut self, tracer: &trace::Tracer, roots: usize) {
        let a = tracer.attribution();
        for layer in trace::Layer::ALL {
            if a.layer_spans(layer) > 0 {
                self.set(&format!("{}.self_ms", layer.label()), a.layer_ms(layer));
            }
        }
        let share = a.attributed_share();
        self.set("harness.attributed_share", share);
        for line in tracer.summary_lines() {
            println!("{line}");
        }
        println!(
            "attribution: layers account for {:.2}% of {:.3} ms traced end-to-end in {} root span(s) (floor {:.0}%)",
            share * 100.0,
            a.total_ns as f64 / 1e6,
            a.roots,
            ATTRIBUTION_FLOOR * 100.0
        );
        let check = if a.roots != roots {
            Err(format!(
                "{} root spans, but {roots} traced blocks were opened",
                a.roots
            ))
        } else if share < ATTRIBUTION_FLOOR {
            Err(format!(
                "layers account for {:.2}% of the traced time, below {:.0}%",
                share * 100.0,
                ATTRIBUTION_FLOOR * 100.0
            ))
        } else {
            Ok(())
        };
        self.op("attribution", check);
    }

    /// Declare the traced metrics this workload does not measure: each
    /// name, or every metric under a prefix ending in `.` or `_`, reads 0.
    /// Fails if one of them was measured after all, so the list stays true.
    pub fn unmeasured(&mut self, names: &[&str]) -> Result<(), String> {
        for (metric, _) in traced_metrics() {
            let listed = names.iter().any(|&n| {
                if n.ends_with(['.', '_']) {
                    metric.starts_with(n)
                } else {
                    metric == n
                }
            });
            if !listed {
                continue;
            }
            if self.get(&metric).is_some() {
                return Err(format!("{metric} is listed as unmeasured but was measured"));
            }
            self.set(&metric, 0.0);
        }
        println!(
            "not measured by this workload (reported as 0): {}",
            names.join(", ")
        );
        Ok(())
    }
}

/// Run `pass` [`SETUP_PASSES`] times, keeping the last result and every
/// pass's duration in seconds.
pub fn repeated_setup<T>(
    mut pass: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut durations = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_PASSES {
        let t = Instant::now();
        last = Some(pass()?);
        durations.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one pass"), durations))
}

/// Record the kernel tier and CPU count every result was measured under.
pub fn host_conditions(report: &mut Report) {
    let tier = macross_vm::select_tier();
    report.set("cond.nproc", stats::nproc() as f64);
    report.set("cond.kernel_tier_bits", tier.width_bits() as f64);
    println!(
        "conditions: nproc {} kernel_tier {}",
        stats::nproc(),
        tier.label()
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: macross-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    host_conditions(&mut report);
    // Every workload runs on one CPU (see `CpuPin`); the service's client
    // and shard share it, and `steady_suite` releases it for its threaded
    // phase.
    let pin = stats::CpuPin::first();
    match &pin {
        Some(p) => println!("conditions: pinned to cpu {}", p.cpu),
        None => println!("conditions: could not pin to one cpu, running unpinned"),
    }
    let run = match args.workload.as_str() {
        "steady_suite" => steady::run(&args, started, pin, &mut report),
        "compile_churn" => churn::run(&args, started, &mut report),
        "service_mixed" => service::run(&args, started, &mut report),
        other => Err(format!(
            "unknown workload '{other}' (steady_suite, compile_churn, service_mixed)"
        )),
    };
    if let Err(e) = run {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    report.set("peak_rss_mb", stats::peak_rss_mb());
    if report.attempted == 0 {
        report.op("window", Err("no operation completed".into()));
    }
    let failed_share = report.failed as f64 / report.attempted as f64;
    println!(
        "operations: {} attempted, {} failed (failed_share {failed_share})",
        report.attempted, report.failed
    );
    let selected: Vec<(String, &str)> = if args.trace {
        traced_metrics()
    } else {
        E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in &selected {
        let value = match report.get(name) {
            Some(v) => v,
            None => {
                eprintln!("error: workload did not report {name}");
                std::process::exit(2);
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root lists exactly the metrics this
    /// binary prints.
    #[test]
    fn benchmark_json_matches_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let end = body.find(']').unwrap();
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap().to_string())
                .collect()
        };
        let e2e: Vec<String> = E2E.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<String> = traced_metrics().into_iter().map(|(n, _)| n).collect();
        assert_eq!(section("per_layer"), layers);
    }
}

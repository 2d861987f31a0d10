//! `compile_churn`: a seeded sequence of `compile_graph` calls over every
//! suite graph and every valuation of the dynamic templates, under three
//! option sets. Each artifact runs init plus one steady iteration, and
//! that output is checked against the scalar graph on the tree walker.

use crate::check::{check_prefix, outputs_per_iter, sink_rows};
use crate::stats::{median, Rng};
use crate::suite::{self, ms_since, ArtifactCounts};
use crate::trace::{in_traced_block, Layer, Tracer};
use crate::{repeated_setup, Args, Report};
use macross::{compile_graph, macro_simdize, modelled_steady_cost, SimdizeOptions};
use macross_sdf::Schedule;
use macross_streamir::graph::Graph;
use macross_streamir::shash::structural_hash;
use macross_streamir::types::Value;
use macross_vm::{CompiledPrograms, ExecMode, Executor, Machine};
use std::time::Instant;

type OptionSet = (&'static str, fn() -> SimdizeOptions);

/// Traced metrics this workload does not measure (see
/// `Report::unmeasured`): it runs one steady iteration per artifact and
/// no threaded, service or dynamic-rate path.
const UNMEASURED: [&str; 16] = [
    "core.simd_speedup_",
    "core.speedup_",
    "vm.ns_per_firing",
    "vm.firings_per_output",
    "vm.kernel_speedup",
    "vm.vector_filter_share",
    "vm.scalar_filter_share",
    "vm.splitjoin_share",
    "runtime.",
    "multicore.",
    "service.",
    "pdf.",
    "harness.aa_",
    "cond.comm_",
    "cond.parallel_plans",
    "cond.plan_signature",
];

const OPTION_SETS: [OptionSet; 3] = [
    ("all", SimdizeOptions::all),
    ("single_only", SimdizeOptions::single_only),
    ("no_reorder", SimdizeOptions::no_reorder),
];

struct Source {
    name: String,
    graph: Graph,
    reference: Vec<Vec<Value>>,
}

struct Config {
    source: usize,
    opts: usize,
}

/// One request's timings and its sink rows.
struct Served {
    compile_ms: f64,
    request_ms: f64,
    outputs: Vec<Vec<Value>>,
}

/// The suite graphs plus every valuation of every dynamic template.
fn sources() -> Result<Vec<(String, Graph)>, String> {
    let mut out: Vec<(String, Graph)> = macross_benchsuite::all()
        .iter()
        .map(|b| (b.name.to_string(), (b.build)()))
        .collect();
    for d in macross_benchsuite::dynamic::dynamic() {
        let template = (d.template)();
        for v in template.domain().valuations() {
            let g = template
                .instantiate(&v)
                .map_err(|e| format!("{} {}: {e}", d.name, v.canon()))?;
            out.push((format!("{}{{{}}}", d.name, v.canon()), g));
        }
    }
    Ok(out)
}

/// The sources with their references, the configurations, and the
/// compile-side counts over all configurations.
fn setup(machine: &Machine) -> Result<(Vec<Source>, Vec<Config>, ArtifactCounts), String> {
    let mut srcs = Vec::new();
    let mut configs = Vec::new();
    let mut counts = ArtifactCounts::default();
    for (i, (name, graph)) in sources()?.into_iter().enumerate() {
        let sched = Schedule::compute(&graph).map_err(|e| format!("{name}: {e}"))?;
        // Cover init plus one steady iteration of every option set.
        let mut covered = 0;
        for (k, (label, opts)) in OPTION_SETS.iter().enumerate() {
            let art = compile_graph(&graph, machine, &opts(), ExecMode::Bytecode)
                .map_err(|e| format!("{name}/{label}: {e}"))?;
            let s = &art.schedule;
            covered = covered.max(
                outputs_per_iter(&art.graph, &s.init_reps) + outputs_per_iter(&art.graph, &s.reps),
            );
            counts.add(&art);
            configs.push(Config { source: i, opts: k });
        }
        let reference = suite::treewalk_reference(&graph, &sched, machine, covered)?;
        srcs.push(Source {
            name,
            graph,
            reference,
        });
    }
    Ok((srcs, configs, counts))
}

/// Compile with `compile_graph`, then run init and one steady iteration.
fn request(graph: &Graph, opts: &SimdizeOptions, machine: &Machine) -> Result<Served, String> {
    let t = Instant::now();
    let art = compile_graph(graph, machine, opts, ExecMode::Bytecode).map_err(|e| e.to_string())?;
    let compile_ms = ms_since(t);
    let mut ex = Executor::with_programs(&art.graph, &art.schedule, machine, &art.programs);
    ex.run(1).map_err(|e| e.to_string())?;
    let request_ms = ms_since(t);
    Ok(Served {
        compile_ms,
        request_ms,
        outputs: sink_rows(&art.graph, ex.outputs()),
    })
}

/// Per-step timings of a traced request.
#[derive(Default)]
struct Steps {
    simdize_ms: Vec<f64>,
    schedule_ms: Vec<f64>,
    programs_ms: Vec<f64>,
    setup_ms: Vec<f64>,
    init_ms: Vec<f64>,
}

/// The same request through `compile_graph`'s public steps, each in its
/// own span, plus the source schedule so the `sdf` layer is measured.
fn traced_request(
    graph: &Graph,
    opts: &SimdizeOptions,
    machine: &Machine,
    tracer: &mut Tracer,
    steps: &mut Steps,
) -> Result<Served, String> {
    let t = Instant::now();
    tracer.span("structural_hash", Layer::Streamir, || {
        structural_hash(graph)
    });
    let s = Instant::now();
    tracer
        .span("Schedule::compute", Layer::Sdf, || Schedule::compute(graph))
        .map_err(|e| e.to_string())?;
    steps.schedule_ms.push(ms_since(s));
    let s = Instant::now();
    let simd = tracer
        .span("macro_simdize", Layer::Core, || {
            macro_simdize(graph, machine, opts)
        })
        .map_err(|e| e.to_string())?;
    steps.simdize_ms.push(ms_since(s));
    tracer.span("modelled_steady_cost", Layer::Core, || {
        modelled_steady_cost(&simd, machine)
    });
    let s = Instant::now();
    let programs = tracer.span("CompiledPrograms::compile", Layer::Vm, || {
        CompiledPrograms::compile(&simd.graph, machine, ExecMode::Bytecode)
    });
    steps.programs_ms.push(ms_since(s));
    let compile_ms = ms_since(t);
    let s = Instant::now();
    let mut ex = tracer.span("Executor::with_programs", Layer::Vm, || {
        Executor::with_programs(&simd.graph, &simd.schedule, machine, &programs)
    });
    steps.setup_ms.push(ms_since(s));
    let s = Instant::now();
    tracer
        .span("Executor::run_init", Layer::Vm, || ex.run_init())
        .map_err(|e| e.to_string())?;
    steps.init_ms.push(ms_since(s));
    tracer
        .span("Executor::run_steady", Layer::Vm, || ex.run_steady(1))
        .map_err(|e| e.to_string())?;
    let request_ms = ms_since(t);
    Ok(Served {
        compile_ms,
        request_ms,
        outputs: sink_rows(&simd.graph, ex.outputs()),
    })
}

pub fn run(args: &Args, started: Instant, report: &mut Report) -> Result<(), String> {
    let machine = Machine::core_i7();
    let once_s = started.elapsed().as_secs_f64();
    let ((srcs, mut configs, counts), passes) = repeated_setup(|| setup(&machine))?;
    report.setup(once_s, &passes);
    println!(
        "{} configurations: {} graphs x {} option sets",
        configs.len(),
        srcs.len(),
        OPTION_SETS.len()
    );

    let mut rng = Rng::new(args.seed);
    let mut tracer = Tracer::new(args.trace);
    let mut steps = Steps::default();
    let (mut compile_ms, mut request_ms, mut values) = (Vec::new(), Vec::new(), 0u64);
    let mut traced_ms = Vec::new();
    let start = Instant::now();
    let deadline = start + args.window();
    // A traced run alternates untraced and traced blocks (`trace::BLOCK`);
    // each traced block runs under one root span that also covers the
    // checks. The ratio of the two kinds' median request times is the
    // tracing overhead.
    let mut block = None;
    let mut blocks = 0;
    'window: loop {
        rng.shuffle(&mut configs);
        for c in &configs {
            let now = Instant::now();
            if now >= deadline {
                break 'window;
            }
            let traced = args.trace && in_traced_block(start, now);
            if traced && block.is_none() {
                block = Some(tracer.enter("traced block", Layer::Harness));
                blocks += 1;
            } else if !traced {
                if let Some(open) = block.take() {
                    tracer.exit(open);
                }
            }
            let src = &srcs[c.source];
            let (label, opts) = OPTION_SETS[c.opts];
            let opts = opts();
            let served = if traced {
                traced_request(&src.graph, &opts, &machine, &mut tracer, &mut steps)
            } else {
                request(&src.graph, &opts, &machine)
            };
            let outcome = served.and_then(|s| {
                check_prefix(&src.reference, &s.outputs)?;
                if traced {
                    traced_ms.push(s.request_ms);
                } else {
                    compile_ms.push(s.compile_ms);
                    request_ms.push(s.request_ms);
                    values += s.outputs.iter().map(|r| r.len() as u64).sum::<u64>();
                }
                Ok(())
            });
            report.op(&format!("{}/{label}", src.name), outcome);
        }
    }
    if let Some(open) = block {
        tracer.exit(open);
    }
    if request_ms.is_empty() {
        return Err("window too short: no request completed".into());
    }
    let total_s: f64 = request_ms.iter().sum::<f64>() / 1e3;
    report.latency("compile", &compile_ms);
    report.latency("session", &request_ms);
    report.set("sessions_per_s", request_ms.len() as f64 / total_s);
    report.set("outputs_per_s", values as f64 / total_s);
    println!(
        "{} requests: compile p50 {:.3} ms, request p50 {:.3} ms",
        request_ms.len(),
        median(&compile_ms),
        median(&request_ms)
    );
    if args.trace {
        report.set("core.simdize_ms", median(&steps.simdize_ms));
        report.set("sdf.schedule_ms", median(&steps.schedule_ms));
        report.set("vm.compile_ms", median(&steps.programs_ms));
        report.set("vm.setup_ms", median(&steps.setup_ms));
        report.set("vm.init_ms", median(&steps.init_ms));
        counts.report(report);
        report.set(
            "harness.tracing_overhead",
            median(&traced_ms) / median(&request_ms) - 1.0,
        );
        report.attribution(&tracer, blocks);
        report.unmeasured(&UNMEASURED)?;
    }
    Ok(())
}

//! `steady_suite`: steady state of all 16 suite graphs on the sequential
//! `Executor`, SIMDized and scalar interleaved in pairs, plus an A/A
//! control row run through the same pairs. Compile, set-up and init stay
//! outside the timed batches. Traced runs add a threaded phase that
//! measures the `runtime` and `multicore` layers on the same graphs.

use crate::check::{check_prefix, sink_rows};
use crate::stats::{geomean, median, quantile, rel_iqr, CpuPin, Rng};
use crate::suite::{self, ms_since, Prepared};
use crate::threaded;
use crate::trace::{Layer, Tracer};
use crate::{repeated_setup, Args, Report};
use macross::{compile_graph, SimdizeOptions};
use macross_multicore::CommModel;
use macross_sdf::Schedule;
use macross_streamir::graph::{Graph, Node};
use macross_streamir::types::Ty;
use macross_vm::{CompiledPrograms, ExecMode, Executor, Machine};
use std::time::Instant;

/// The A/A control graph: a scalar suite graph compiled without kernel
/// fusion (`suite::prepare_aa`), placed in both slots of a pair.
const AA_GRAPH: &str = "DCT";

/// A/A pairs per round of the suite, and the fewest the check judges:
/// with a handful of pairs, 1.00 falls outside their interquartile range
/// by chance.
const AA_PER_ROUND: usize = 2;
const AA_MIN_PAIRS: usize = 10;

/// Share of a traced run's window spent on the steady pairs; the rest
/// goes to the threaded phase.
const STEADY_SHARE: f64 = 0.6;

/// Traced metrics this workload does not measure (see
/// `Report::unmeasured`): compile is sampled whole through
/// `compile_graph`, so its steps are measured by `compile_churn`.
const UNMEASURED: [&str; 7] = [
    "core.simdize_ms",
    "sdf.self_ms",
    "sdf.schedule_ms",
    "streamir.",
    "vm.compile_ms",
    "service.",
    "pdf.",
];

/// Every this many rounds, each benchmark is recompiled before its pair
/// to sample `compile_graph` latency.
const COMPILE_EVERY: usize = 4;

/// Node categories whose steady self time the traced run splits.
const CATEGORIES: [&str; 4] = [
    "Executor::fire[vector_filter]",
    "Executor::fire[scalar_filter]",
    "Executor::fire[splitjoin]",
    "Executor::fire[sink]",
];

struct State {
    benches: Vec<Prepared>,
    /// SIMDized graphs compiled without kernel fusion (traced runs only).
    nofuse: Vec<CompiledPrograms>,
    aa: Prepared,
}

#[derive(Default)]
struct Samples {
    simd_ns: Vec<f64>,
    scalar_ns: Vec<f64>,
    /// Traced only: the SIMDized side driven firing by firing.
    fired_ns: Vec<f64>,
    nofuse_ns: Vec<f64>,
    setup_ms: Vec<f64>,
    init_ms: Vec<f64>,
}

fn setup(machine: &Machine, traced: bool) -> Result<State, String> {
    let benches = macross_benchsuite::all()
        .iter()
        .map(|b| suite::prepare(b, machine))
        .collect::<Result<Vec<_>, _>>()?;
    let nofuse = if traced {
        benches
            .iter()
            .map(|p| CompiledPrograms::compile(&p.art.graph, machine, ExecMode::BytecodeNoFuse))
            .collect()
    } else {
        Vec::new()
    };
    let b = macross_benchsuite::by_name(AA_GRAPH).expect("A/A graph is in the suite");
    let aa = suite::prepare_aa(&b, machine)?;
    Ok(State {
        benches,
        nofuse,
        aa,
    })
}

fn category(graph: &Graph, id: macross_streamir::NodeId) -> usize {
    match graph.node(id) {
        Node::Filter(f) => {
            let vector_state = f
                .vars
                .iter()
                .any(|v| matches!(v.ty, Ty::Vector(..) | Ty::VectorArray(..)));
            let vector_tape = graph
                .edges()
                .any(|(_, e)| (e.src == id || e.dst == id) && e.width > 1);
            if vector_state || vector_tape {
                0
            } else {
                1
            }
        }
        Node::Sink => 3,
        _ => 2,
    }
}

/// Build an executor, run init and one warm-up iteration; returns the
/// executor with its construction and init milliseconds.
fn ready<'a>(
    graph: &'a Graph,
    sched: &'a Schedule,
    machine: &'a Machine,
    programs: &CompiledPrograms,
    tracer: &mut Tracer,
) -> Result<(Executor<'a>, f64, f64), String> {
    let t = Instant::now();
    let mut ex = tracer.span("Executor::with_programs", Layer::Vm, || {
        Executor::with_programs(graph, sched, machine, programs)
    });
    let setup_ms = ms_since(t);
    let t = Instant::now();
    tracer
        .span("Executor::run_init", Layer::Vm, || ex.run_init())
        .map_err(|e| format!("init: {e}"))?;
    let init_ms = ms_since(t);
    tracer
        .span("Executor::run_steady", Layer::Vm, || ex.run_steady(1))
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok((ex, setup_ms, init_ms))
}

/// Time `iters` steady iterations in one `run_steady` call.
fn timed(ex: &mut Executor, iters: u64, tracer: &mut Tracer) -> Result<f64, String> {
    let t = Instant::now();
    tracer
        .span("Executor::run_steady", Layer::Vm, || ex.run_steady(iters))
        .map_err(|e| format!("steady: {e}"))?;
    Ok(t.elapsed().as_nanos() as f64)
}

/// Drive `iters` steady iterations through `Executor::fire` in the
/// public schedule order, timing every firing into its node category.
fn fired(
    ex: &mut Executor,
    graph: &Graph,
    sched: &Schedule,
    iters: u64,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let cats: Vec<usize> = graph.node_ids().map(|id| category(graph, id)).collect();
    let mut acc = [0u64; 4];
    let mut count = [0u64; 4];
    let start_ns = tracer.now_ns();
    let t = Instant::now();
    let mut prev = t;
    for _ in 0..iters {
        for &id in &sched.order {
            let c = cats[id.0 as usize];
            for _ in 0..sched.reps[id.0 as usize] {
                ex.fire(id).map_err(|e| format!("fire: {e}"))?;
                let now = Instant::now();
                acc[c] += (now - prev).as_nanos() as u64;
                count[c] += 1;
                prev = now;
            }
        }
    }
    let total = t.elapsed().as_nanos() as f64;
    for c in 0..4 {
        tracer.aggregate(CATEGORIES[c], Layer::Vm, start_ns, acc[c], count[c]);
    }
    Ok(total)
}

/// One interleaved pair: the sides run in a seeded order, and each is
/// built, initialised and warmed right before it is timed, so no side
/// inherits another's warm caches. Outputs are checked afterwards. The
/// A/A control runs through here too, with the same programs in both
/// slots, so a bias tied to a slot's role shows in its ratio.
fn pair(
    p: &Prepared,
    nofuse: Option<&CompiledPrograms>,
    machine: &Machine,
    rng: &mut Rng,
    tracer: &mut Tracer,
    s: &mut Samples,
) -> Result<(), String> {
    let (simd_graph, simd_sched) = (&*p.art.graph, &*p.art.schedule);
    let mut sides: Vec<usize> = (0..if nofuse.is_some() { 4 } else { 2 }).collect();
    rng.shuffle(&mut sides);
    let mut done = Vec::new();
    let root = tracer.enter("steady pair", Layer::Harness);
    let run_sides = || -> Result<(), String> {
        for side in sides {
            let (label, programs, graph, sched) = match side {
                0 => ("SIMDized", &p.art.programs, simd_graph, simd_sched),
                1 => ("scalar", &p.scalar, &p.graph, &p.sched),
                2 => ("fired", &p.art.programs, simd_graph, simd_sched),
                _ => (
                    "no-fuse",
                    nofuse.expect("traced side"),
                    simd_graph,
                    simd_sched,
                ),
            };
            let (mut ex, setup_ms, init_ms) = ready(graph, sched, machine, programs, tracer)?;
            match side {
                0 => {
                    s.simd_ns.push(timed(&mut ex, p.n_simd, tracer)?);
                    s.setup_ms.push(setup_ms);
                    s.init_ms.push(init_ms);
                }
                1 => s.scalar_ns.push(timed(&mut ex, p.n_scalar, tracer)?),
                2 => s
                    .fired_ns
                    .push(fired(&mut ex, graph, sched, p.n_simd, tracer)?),
                _ => s.nofuse_ns.push(timed(&mut ex, p.n_simd, tracer)?),
            }
            done.push((label, ex, graph));
        }
        Ok(())
    };
    let outcome = run_sides();
    tracer.exit(root);
    outcome?;
    for (label, ex, graph) in &done {
        check_prefix(&p.reference, &sink_rows(graph, ex.outputs()))
            .map_err(|e| format!("{label}: {e}"))?;
    }
    Ok(())
}

pub fn run(
    args: &Args,
    started: Instant,
    pin: Option<CpuPin>,
    report: &mut Report,
) -> Result<(), String> {
    let machine = Machine::core_i7();
    let once_s = started.elapsed().as_secs_f64();
    let (state, passes) = repeated_setup(|| setup(&machine, args.trace))?;
    report.setup(once_s, &passes);

    let mut rng = Rng::new(args.seed);
    let mut tracer = Tracer::new(args.trace);
    let mut samples: Vec<Samples> = state.benches.iter().map(|_| Samples::default()).collect();
    let mut aa = Samples::default();
    let mut aa_ratios = Vec::new();
    let n = state.benches.len();
    let mut compile_ms = vec![Vec::new(); n];
    let start = Instant::now();
    // A traced run traces its whole window under one root span: pairs,
    // checks, compile samples and the threaded phase, which gets the last
    // part of the window (see `threaded_phase`).
    let window = tracer.enter("traced window", Layer::Harness);
    let share = if args.trace { STEADY_SHARE } else { 1.0 };
    let deadline = start + args.window().mul_f64(share);
    'window: for round in 0.. {
        let mut order: Vec<usize> = (0..n + AA_PER_ROUND).collect();
        rng.shuffle(&mut order);
        for i in order {
            if Instant::now() >= deadline {
                break 'window;
            }
            if i >= n {
                let outcome = pair(&state.aa, None, &machine, &mut rng, &mut tracer, &mut aa);
                if outcome.is_ok() {
                    // SIMDized slot over scalar slot, always in that order.
                    aa_ratios.push(
                        aa.simd_ns[aa.simd_ns.len() - 1] / aa.scalar_ns[aa.scalar_ns.len() - 1],
                    );
                }
                report.op("A/A pair", outcome);
                continue;
            }
            let p = &state.benches[i];
            if round % COMPILE_EVERY == 0 {
                // Compile latency is sampled across the window, outside
                // the pairs, so it sees the same host as they do.
                let t = Instant::now();
                let art = tracer.span("compile_graph", Layer::Core, || {
                    compile_graph(
                        &p.graph,
                        &machine,
                        &SimdizeOptions::all(),
                        ExecMode::Bytecode,
                    )
                });
                compile_ms[i].push(ms_since(t));
                let same = art.is_ok_and(|a| a.steady_cost == p.art.steady_cost);
                report.op(
                    p.name,
                    same.then_some(())
                        .ok_or("recompiled artifact differs".into()),
                );
            }
            let outcome = pair(
                p,
                state.nofuse.get(i),
                &machine,
                &mut rng,
                &mut tracer,
                &mut samples[i],
            );
            report.op(p.name, outcome);
        }
    }
    // The threaded phase needs both CPUs: calibration and placements run
    // two threads.
    drop(pin);
    let threaded = if args.trace {
        threaded_phase(
            &state.benches,
            &machine,
            start + args.window(),
            &mut rng,
            &mut tracer,
            report,
        )
    } else {
        Ok(())
    };
    tracer.exit(window);
    threaded?;
    if samples.iter().any(|s| s.simd_ns.is_empty()) {
        return Err("window too short: a benchmark got no pair".into());
    }

    // End to end: SIMDized steady-state throughput per benchmark. A
    // "session" is one SIMDized batch; its rate is taken at each
    // benchmark's median batch time.
    let mut per_s = Vec::new();
    let mut median_ms = Vec::new();
    for (p, s) in state.benches.iter().zip(&samples) {
        per_s.push(p.batch_outputs() as f64 * 1e9 / median(&s.simd_ns));
        median_ms.push(median(&s.simd_ns) / 1e6);
    }
    report.set("outputs_per_s", geomean(&per_s));
    // Latency quantiles are over per-graph medians: pooled samples
    // cluster by graph, so a pooled quantile at a cluster edge jumps
    // between runs, and a pooled tail tracks the host's interference
    // (about twice the shift of throughput) more than the code.
    let compile: Vec<f64> = compile_ms.iter().map(|c| median(c)).collect();
    report.latency("compile", &compile);
    report.latency("session", &median_ms);
    report.set(
        "sessions_per_s",
        median_ms.len() as f64 * 1e3 / median_ms.iter().sum::<f64>(),
    );

    // The A/A control: 1.00 must lie inside its own interquartile range.
    let aa_ratio = median(&aa_ratios);
    let (q1, q3) = (quantile(&aa_ratios, 0.25), quantile(&aa_ratios, 0.75));
    report.set("harness.aa_ratio", aa_ratio);
    report.set("harness.aa_spread", rel_iqr(&aa_ratios));
    println!(
        "A/A control ({AA_GRAPH}, kernel-free, SIMDized slot / scalar slot): ratio {aa_ratio:.4}, IQR [{q1:.4}, {q3:.4}] over {} pairs",
        aa_ratios.len()
    );
    if aa_ratios.len() < AA_MIN_PAIRS {
        println!("A/A control: too few pairs to judge (window too short)");
    } else {
        let aa_check = if q1 <= 1.0 && 1.0 <= q3 {
            Ok(())
        } else {
            Err(format!("1.00 outside its IQR [{q1:.4}, {q3:.4}]"))
        };
        report.op("A/A control", aa_check);
    }

    println!(
        "{:<16} {:>6} {:>6} {:>12} {:>9} {:>9}",
        "benchmark", "pairs", "iters", "simd ns/out", "measured", "modelled"
    );
    let mut measured = Vec::new();
    let mut modelled = Vec::new();
    for (p, s) in state.benches.iter().zip(&samples) {
        let speedup = median(&s.scalar_ns) / median(&s.simd_ns);
        let model = p.modelled_speedup(&machine);
        measured.push(speedup);
        modelled.push(model);
        println!(
            "{:<16} {:>6} {:>6} {:>12.2} {:>8.3}x {:>8.3}x{}",
            p.name,
            s.simd_ns.len(),
            p.n_simd,
            median(&s.simd_ns) / p.batch_outputs() as f64,
            speedup,
            model,
            if (speedup < 1.0) != (model < 1.0) {
                "  <- measured and modelled disagree in sign"
            } else {
                ""
            }
        );
        report.set(&format!("core.speedup_measured.{}", p.name), speedup);
        report.set(&format!("core.speedup_modelled.{}", p.name), model);
    }
    report.set("core.simd_speedup_measured", geomean(&measured));
    report.set("core.simd_speedup_modelled", geomean(&modelled));
    println!(
        "geomean SIMD speedup: measured {:.3}x, modelled {:.3}x",
        geomean(&measured),
        geomean(&modelled)
    );
    if args.trace {
        traced_metrics(&state, &samples, &tracer, report);
        report.attribution(&tracer, 1);
        report.unmeasured(&UNMEASURED)?;
    }
    Ok(())
}

/// The `runtime` and `multicore` layers, measured on the same SIMDized
/// graphs until `until`: calibrate the comm model, plan at two workers,
/// and run planned, one-worker and sequential placements interleaved.
fn threaded_phase(
    benches: &[Prepared],
    machine: &Machine,
    until: Instant,
    rng: &mut Rng,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let t = Instant::now();
    let comm = tracer.span(
        "CommModel::calibrated",
        Layer::Multicore,
        CommModel::calibrated,
    );
    report.set("multicore.calibrate_ms", ms_since(t));
    let planned: Vec<threaded::Planned> = benches
        .iter()
        .map(|p| threaded::plan(p, machine, &comm, tracer))
        .collect();
    threaded::conditions(&comm, &planned, report);
    threaded::traced_phase(&planned, machine, until, rng, tracer, report)
}

fn traced_metrics(state: &State, samples: &[Samples], tracer: &Tracer, report: &mut Report) {
    let benches = &state.benches;
    let mut counts = suite::ArtifactCounts::default();
    for p in benches {
        counts.add(&p.art);
    }
    counts.report(report);
    let mut ns_per_firing = Vec::new();
    let mut firings_per_output = Vec::new();
    let mut kernel_speedup = Vec::new();
    let mut overhead = Vec::new();
    let (mut setup_ms, mut init_ms) = (0.0, 0.0);
    for (p, s) in benches.iter().zip(samples) {
        let firings = p.art.schedule.total_firings() as f64;
        let simd = median(&s.simd_ns);
        ns_per_firing.push(simd / (firings * p.n_simd as f64));
        firings_per_output.push(firings / p.out_simd as f64);
        kernel_speedup.push(median(&s.nofuse_ns) / simd);
        overhead.push(median(&s.fired_ns) / simd);
        setup_ms += median(&s.setup_ms);
        init_ms += median(&s.init_ms);
    }
    report.set("vm.ns_per_firing", geomean(&ns_per_firing));
    report.set("vm.firings_per_output", geomean(&firings_per_output));
    report.set("vm.kernel_speedup", geomean(&kernel_speedup));
    report.set("vm.setup_ms", setup_ms);
    report.set("vm.init_ms", init_ms);
    report.set("harness.tracing_overhead", geomean(&overhead) - 1.0);
    let mut cat_ns = [0u64; 4];
    for span in tracer.spans() {
        if let Some(c) = CATEGORIES.iter().position(|&n| n == span.name) {
            cat_ns[c] += span.dur_ns();
        }
    }
    let fired: u64 = cat_ns.iter().sum();
    let share = |c: usize| cat_ns[c] as f64 / fired.max(1) as f64;
    report.set("vm.vector_filter_share", share(0));
    report.set("vm.scalar_filter_share", share(1));
    report.set("vm.splitjoin_share", share(2));
    println!(
        "steady self time: vector filters {:.3}, scalar filters {:.3}, split/join {:.3}, sinks {:.3}",
        share(0),
        share(1),
        share(2),
        share(3)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use macross_streamir::types::Value;

    /// The pair check passes on real output and fails once one value
    /// of the SIMDized output is corrupted.
    #[test]
    fn corrupted_output_is_caught() {
        let machine = Machine::core_i7();
        let b = macross_benchsuite::by_name("FMRadio").unwrap();
        let p = suite::prepare(&b, &machine).unwrap();
        let mut off = Tracer::new(false);
        let (mut ex, _, _) = ready(
            &p.art.graph,
            &p.art.schedule,
            &machine,
            &p.art.programs,
            &mut off,
        )
        .unwrap();
        timed(&mut ex, p.n_simd, &mut off).unwrap();
        let mut rows = sink_rows(&p.art.graph, ex.outputs());
        assert!(check_prefix(&p.reference, &rows).is_ok());
        let last = rows[0].len() - 1;
        rows[0][last] = match rows[0][last] {
            Value::F32(x) => Value::F32(x + 1.0),
            Value::I32(x) => Value::I32(x ^ 1),
            other => panic!("unexpected sink value {other:?}"),
        };
        assert!(check_prefix(&p.reference, &rows).is_err());
    }
}

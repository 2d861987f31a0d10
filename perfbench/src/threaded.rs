//! The threaded phase of `steady_suite`'s traced run: every SIMDized
//! suite graph placed by `plan_placement` at a 2-worker budget with the
//! calibrated `CommModel`, run by `run_threaded_placed` interleaved with a
//! one-worker whole-stage placement and the sequential `Executor` on the
//! same graph. Outputs are checked against the scalar graph on the tree
//! walker. It measures the `runtime` and `multicore` layers.

use crate::check::{check_prefix, sink_rows};
use crate::stats::{geomean, median, Rng};
use crate::suite::{ms_since, Prepared};
use crate::trace::{Layer, Tracer};
use crate::Report;
use macross_multicore::{plan_placement, CommModel, PlacementPlan};
use macross_runtime::{run_threaded_placed, Placement, RuntimeReport};
use macross_vm::{Executor, Machine};
use std::time::Instant;

/// Worker budget the planner places onto.
const BUDGET: usize = 2;

/// A suite benchmark with its planned and one-worker placements. Every
/// run covers one timed batch (`n_simd` steady iterations).
pub struct Planned<'a> {
    pub p: &'a Prepared,
    pub plan: PlacementPlan,
    pub one: Placement,
    pub plan_ms: f64,
}

/// Place `p`'s SIMDized graph with `plan_placement` at [`BUDGET`]
/// workers, priced by modelled node weights and `comm`.
pub fn plan<'a>(
    p: &'a Prepared,
    machine: &Machine,
    comm: &CommModel,
    tracer: &mut Tracer,
) -> Planned<'a> {
    let (graph, sched) = (&*p.art.graph, &*p.art.schedule);
    let weights = macross::steady_node_weights(graph, sched, machine);
    let t = Instant::now();
    let plan = tracer.span("plan_placement", Layer::Multicore, || {
        plan_placement(graph, sched, &weights, BUDGET, comm)
    });
    Planned {
        p,
        plan,
        one: Placement::whole_stage(vec![0; graph.node_count()]),
        plan_ms: ms_since(t),
    }
}

#[derive(Default)]
struct Samples {
    planned_ns: Vec<f64>,
    one_ns: Vec<f64>,
    /// The sequential `Executor` on the same graph.
    seq_ns: Vec<f64>,
    reports: Vec<RuntimeReport>,
}

/// One threaded run; returns the steady-loop wall nanoseconds.
fn threaded(
    b: &Planned,
    placement: &Placement,
    machine: &Machine,
    tracer: &mut Tracer,
) -> Result<(f64, RuntimeReport), String> {
    let (graph, sched) = (&*b.p.art.graph, &*b.p.art.schedule);
    let run = tracer
        .span("run_threaded_placed", Layer::Runtime, || {
            run_threaded_placed(graph, sched, machine, placement, b.p.n_simd)
        })
        .map_err(|e| e.to_string())?;
    check_prefix(&b.p.reference, &sink_rows(graph, &run.outputs))?;
    Ok((run.report.wall_nanos as f64, run.report))
}

/// The same steady iterations on the sequential `Executor`.
fn sequential(b: &Planned, machine: &Machine, tracer: &mut Tracer) -> Result<f64, String> {
    let (graph, sched) = (&*b.p.art.graph, &*b.p.art.schedule);
    let mut ex = tracer.span("Executor::with_programs", Layer::Vm, || {
        Executor::with_programs(graph, sched, machine, &b.p.art.programs)
    });
    tracer
        .span("Executor::run_init", Layer::Vm, || ex.run_init())
        .map_err(|e| e.to_string())?;
    let t = Instant::now();
    tracer
        .span("Executor::run_steady", Layer::Vm, || {
            ex.run_steady(b.p.n_simd)
        })
        .map_err(|e| e.to_string())?;
    let ns = t.elapsed().as_nanos() as f64;
    check_prefix(&b.p.reference, &sink_rows(graph, ex.outputs()))?;
    Ok(ns)
}

/// Planned, one-worker and sequential runs of `b` in a seeded order.
fn pair(
    b: &Planned,
    machine: &Machine,
    rng: &mut Rng,
    tracer: &mut Tracer,
    s: &mut Samples,
) -> Result<(), String> {
    let root = tracer.enter("threaded pair", Layer::Harness);
    let mut sides = [0, 1, 2];
    rng.shuffle(&mut sides);
    let mut outcome = Ok(());
    for side in sides {
        let step = match side {
            0 => threaded(b, &b.plan.placement, machine, tracer).map(|(ns, report)| {
                s.planned_ns.push(ns);
                s.reports.push(report);
            }),
            1 => threaded(b, &b.one, machine, tracer).map(|(ns, _)| s.one_ns.push(ns)),
            _ => sequential(b, machine, tracer).map(|ns| s.seq_ns.push(ns)),
        };
        if let Err(e) = step {
            outcome = Err(e);
            break;
        }
    }
    tracer.exit(root);
    outcome
}

/// FNV-1a over every benchmark's plan verdict, folded to 24 bits so it
/// survives as an exact JSON number.
fn plan_signature(benches: &[Planned]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in benches {
        for x in [b.plan.cores_used, b.plan.cut_edges, b.plan.fissioned] {
            h = (h ^ x as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    (h ^ (h >> 24) ^ (h >> 48)) & 0xff_ffff
}

/// Run pairs over the suite in seeded rounds until `until`.
fn drive(
    benches: &[Planned],
    machine: &Machine,
    until: Instant,
    rng: &mut Rng,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Vec<Samples> {
    let mut samples: Vec<Samples> = benches.iter().map(|_| Samples::default()).collect();
    'window: loop {
        let mut order: Vec<usize> = (0..benches.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            if Instant::now() >= until {
                break 'window;
            }
            let outcome = pair(&benches[i], machine, rng, tracer, &mut samples[i]);
            report.op(benches[i].p.name, outcome);
        }
    }
    samples
}

/// Record the comm model and plan verdicts the threaded results were
/// measured under, so a plan flip shows as a changed condition.
pub fn conditions(comm: &CommModel, benches: &[Planned], report: &mut Report) {
    let parallel = benches.iter().filter(|b| b.plan.cores_used > 1).count();
    let signature = plan_signature(benches);
    report.set(
        "cond.comm_cycles_per_element",
        comm.cycles_per_element as f64,
    );
    report.set("cond.comm_sync_per_edge", comm.sync_per_edge as f64);
    report.set("cond.parallel_plans", parallel as f64);
    report.set("cond.plan_signature", signature as f64);
    println!(
        "conditions: comm model {}/{} (cycles per element / sync per edge), {parallel} of {} plans parallel, plan signature {signature:06x}",
        comm.cycles_per_element,
        comm.sync_per_edge,
        benches.len(),
    );
}

/// Per-benchmark planned-vs-one-worker speedups, printed beside the
/// planner's modelled verdict.
fn speedups(benches: &[Planned], samples: &[Samples]) -> Vec<f64> {
    println!(
        "{:<16} {:>5} {:>5} {:>5} {:>9} {:>9}",
        "benchmark", "pairs", "cores", "cuts", "measured", "modelled"
    );
    let mut measured = Vec::new();
    for (b, s) in benches.iter().zip(samples) {
        let speedup = median(&s.one_ns) / median(&s.planned_ns);
        measured.push(speedup);
        println!(
            "{:<16} {:>5} {:>5} {:>5} {:>8.3}x {:>8.3}x{}",
            b.p.name,
            s.planned_ns.len(),
            b.plan.cores_used,
            b.plan.cut_edges,
            speedup,
            b.plan.modelled_speedup(),
            if b.plan.cores_used > 1 && speedup < 1.0 {
                "  <- planned placement slower than one worker"
            } else {
                ""
            }
        );
    }
    measured
}

/// Traced pairs until `until`: planned, one-worker and sequential runs
/// of every benchmark. Sets the `runtime.*` and `multicore.*` metrics.
pub fn traced_phase(
    benches: &[Planned],
    machine: &Machine,
    until: Instant,
    rng: &mut Rng,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let samples = drive(benches, machine, until, rng, tracer, report);
    if samples.iter().any(|s| s.planned_ns.is_empty()) {
        return Err("window too short: a benchmark got no traced threaded pair".into());
    }
    let measured = speedups(benches, &samples);
    let mut overhead = Vec::new();
    let (mut stalls, mut stall_ms, mut traffic) = (0.0, 0.0, 0.0);
    let (mut firings, mut batched, mut busy, mut capacity) = (0u64, 0u64, 0.0, 0.0);
    for s in &samples {
        overhead.push(median(&s.one_ns) / median(&s.seq_ns));
        let per_run = |f: &dyn Fn(&RuntimeReport) -> f64| {
            median(&s.reports.iter().map(f).collect::<Vec<_>>())
        };
        stalls += per_run(&|r| r.total_stalls() as f64);
        stall_ms += per_run(&|r| r.total_stall_nanos() as f64 / 1e6);
        traffic += per_run(&|r| r.ring_traffic() as f64);
        for r in &s.reports {
            firings += r.stages.iter().map(|st| st.firings).sum::<u64>();
            batched += r.stages.iter().map(|st| st.batched_firings).sum::<u64>();
            for (core, &ns) in r.core_nanos.iter().enumerate() {
                if ns == 0 {
                    continue;
                }
                let stalled: u64 = r
                    .stages
                    .iter()
                    .filter(|st| st.core as usize == core)
                    .map(|st| st.stall_nanos)
                    .sum();
                busy += ns.saturating_sub(stalled) as f64;
                capacity += r.wall_nanos as f64;
            }
        }
    }
    report.set("runtime.worker_overhead", geomean(&overhead));
    report.set("runtime.stalls", stalls);
    report.set("runtime.stall_ms", stall_ms);
    report.set("runtime.ring_traffic", traffic);
    report.set(
        "runtime.batched_share",
        batched as f64 / firings.max(1) as f64,
    );
    report.set("runtime.core_busy_share", busy / capacity.max(1.0));
    let sum = |f: &dyn Fn(&PlacementPlan) -> usize| {
        benches.iter().map(|b| f(&b.plan)).sum::<usize>() as f64
    };
    report.set("multicore.plan_ms", benches.iter().map(|b| b.plan_ms).sum());
    report.set("multicore.cores_used", sum(&|p| p.cores_used));
    report.set("multicore.cut_edges", sum(&|p| p.cut_edges));
    report.set("multicore.fused_groups", sum(&|p| p.fused_groups));
    report.set("multicore.fissioned", sum(&|p| p.fissioned));
    let modelled: Vec<f64> = benches.iter().map(|b| b.plan.modelled_speedup()).collect();
    report.set("multicore.modelled_speedup", geomean(&modelled));
    report.set("multicore.measured_speedup", geomean(&measured));
    Ok(())
}

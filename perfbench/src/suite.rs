//! Set-up shared by the suite workloads: SIMDize and compile each
//! benchmark once, size its batches, and compute its reference output
//! with the scalar graph on the tree-walking interpreter.

use crate::check::{outputs_per_iter, sink_rows};
use crate::Report;
use macross::{compile_graph, CompiledGraph, SimdizeOptions, SimdizeReport};
use macross_benchsuite::Benchmark;
use macross_sdf::Schedule;
use macross_streamir::graph::{Graph, Node};
use macross_streamir::shash::structural_hash;
use macross_streamir::types::Value;
use macross_vm::{CompiledPrograms, ExecMode, Executor, Machine};
use std::sync::Arc;
use std::time::Instant;

/// Modelled cycles of SIMDized steady state per timed batch. Batch
/// iteration counts derive from it and the graph alone, never from a
/// clock, so every run times the same work.
pub const BATCH_CYCLES: u64 = 400_000;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One suite benchmark, compiled and sized.
pub struct Prepared {
    pub name: &'static str,
    /// The scalar source graph and its schedule.
    pub graph: Graph,
    pub sched: Schedule,
    /// The SIMDized artifact (bytecode with fused kernels).
    pub art: CompiledGraph,
    /// The scalar graph's programs, same engine.
    pub scalar: CompiledPrograms,
    /// SIMDized steady iterations per timed batch.
    pub n_simd: u64,
    /// Scalar steady iterations producing the same number of outputs.
    pub n_scalar: u64,
    /// Sink values per SIMDized steady iteration.
    pub out_simd: u64,
    /// Sink values per scalar steady iteration.
    pub out_scalar: u64,
    /// Scalar graph on the tree walker, long enough to cover init, the
    /// warm-up iteration and one timed batch.
    pub reference: Vec<Vec<Value>>,
}

impl Prepared {
    /// Sink values of one timed batch (either side).
    pub fn batch_outputs(&self) -> u64 {
        self.n_simd * self.out_simd
    }

    /// Modelled cycles per sink value: scalar over SIMDized.
    pub fn modelled_speedup(&self, machine: &Machine) -> f64 {
        let scalar: u64 = macross::steady_node_weights(&self.graph, &self.sched, machine)
            .iter()
            .sum();
        (scalar as f64 / self.out_scalar as f64)
            / (self.art.steady_cost as f64 / self.out_simd as f64)
    }
}

/// What the compile-side layers did to a set of artifacts: counts
/// summed over them.
#[derive(Default)]
pub struct ArtifactCounts {
    vectorized: usize,
    skipped: usize,
    scale: u64,
    firings: u64,
    kernels: usize,
    compiled: usize,
    filters: usize,
}

impl ArtifactCounts {
    pub fn add(&mut self, art: &CompiledGraph) {
        let r = &art.report;
        self.vectorized +=
            r.single_actors.len() + r.region_actors.len() + r.horizontal_groups.len();
        self.skipped += r.skipped_unprofitable.len();
        self.scale += r.scale_factor;
        self.firings += art.schedule.total_firings();
        self.kernels += art.programs.kernel_total();
        self.compiled += art.programs.compiled_count();
        self.filters += art
            .graph
            .nodes()
            .filter(|(_, n)| matches!(n, Node::Filter(_)))
            .count();
    }

    pub fn report(&self, report: &mut Report) {
        report.set("core.actors_vectorized", self.vectorized as f64);
        report.set("core.skipped_unprofitable", self.skipped as f64);
        report.set("core.scale_factor", self.scale as f64);
        report.set("sdf.firings_per_iter", self.firings as f64);
        report.set("vm.kernels", self.kernels as f64);
        report.set(
            "vm.bytecode_coverage",
            self.compiled as f64 / self.filters.max(1) as f64,
        );
    }
}

/// Sink values produced by the init schedule.
pub fn init_outputs(graph: &Graph, sched: &Schedule) -> u64 {
    outputs_per_iter(graph, &sched.init_reps)
}

/// The scalar graph on the tree walker: init plus enough steady
/// iterations to cover `values` sink values.
pub fn treewalk_reference(
    graph: &Graph,
    sched: &Schedule,
    machine: &Machine,
    values: u64,
) -> Result<Vec<Vec<Value>>, String> {
    let per_iter = outputs_per_iter(graph, &sched.reps).max(1);
    let iters = values
        .saturating_sub(init_outputs(graph, sched))
        .div_ceil(per_iter);
    let mut ex = Executor::with_mode(graph, sched, machine, ExecMode::TreeWalk);
    ex.run_init().map_err(|e| format!("reference init: {e}"))?;
    ex.run_steady(iters)
        .map_err(|e| format!("reference steady: {e}"))?;
    Ok(sink_rows(graph, ex.outputs()))
}

/// SIMDize and compile `b`, size its batches, and compute its reference.
pub fn prepare(b: &Benchmark, machine: &Machine) -> Result<Prepared, String> {
    let graph = (b.build)();
    let sched = Schedule::compute(&graph).map_err(|e| format!("{}: schedule: {e}", b.name))?;
    let art = compile_graph(&graph, machine, &SimdizeOptions::all(), ExecMode::Bytecode)
        .map_err(|e| format!("{}: simdize: {e}", b.name))?;
    let scalar = CompiledPrograms::compile(&graph, machine, ExecMode::Bytecode);
    sized(b.name, graph, sched, art, scalar, machine)
}

/// The A/A control: `b`'s scalar graph in both slots of a pair, compiled
/// without kernel fusion, so the SIMDized slot and the scalar slot run
/// identical, kernel-free code.
pub fn prepare_aa(b: &Benchmark, machine: &Machine) -> Result<Prepared, String> {
    let graph = (b.build)();
    let sched = Schedule::compute(&graph).map_err(|e| format!("{}: schedule: {e}", b.name))?;
    let programs = CompiledPrograms::compile(&graph, machine, ExecMode::BytecodeNoFuse);
    if programs.kernel_total() != 0 {
        return Err(format!("{}: A/A graph is not kernel-free", b.name));
    }
    let art = CompiledGraph {
        source_hash: structural_hash(&graph),
        report: SimdizeReport::default(),
        graph: Arc::new(graph.clone()),
        schedule: Arc::new(sched.clone()),
        programs: programs.clone(),
        mode: ExecMode::BytecodeNoFuse,
        steady_cost: macross::steady_node_weights(&graph, &sched, machine)
            .iter()
            .sum(),
    };
    sized(b.name, graph, sched, art, programs, machine)
}

/// Size the batches of a compiled benchmark and compute a reference
/// covering init, the warm-up iteration and one timed batch.
fn sized(
    name: &'static str,
    graph: Graph,
    sched: Schedule,
    art: CompiledGraph,
    scalar: CompiledPrograms,
    machine: &Machine,
) -> Result<Prepared, String> {
    let out_simd = outputs_per_iter(&art.graph, &art.schedule.reps);
    let out_scalar = outputs_per_iter(&graph, &sched.reps);
    if out_simd == 0 || out_scalar == 0 || !out_simd.is_multiple_of(out_scalar) {
        return Err(format!(
            "{name}: {out_simd} SIMDized vs {out_scalar} scalar sink values per iteration"
        ));
    }
    let n_simd = BATCH_CYCLES.div_ceil(art.steady_cost.max(1));
    let n_scalar = n_simd * (out_simd / out_scalar);
    // The scalar side runs the same number of sink values per iteration
    // count, so one bound covers both sides.
    let init = init_outputs(&art.graph, &art.schedule).max(init_outputs(&graph, &sched));
    let covered = init + (n_simd + 1) * out_simd;
    let reference = treewalk_reference(&graph, &sched, machine, covered)?;
    Ok(Prepared {
        name,
        graph,
        sched,
        art,
        scalar,
        n_simd,
        n_scalar,
        out_simd,
        out_scalar,
        reference,
    })
}

//! `service_mixed`: a closed loop of a few outstanding sessions against a
//! one-shard `StreamService`. Most sessions are static suite graphs; some
//! are dynamic-rate sessions with seeded `set_param` swaps. The compile
//! cache is smaller than the number of shapes, so misses keep happening
//! beside hits. Static sessions are checked against a solo sequential
//! run, dynamic ones against the scratch-recompile oracle.

use crate::check::check_exact;
use crate::stats::{median, Rng};
use crate::suite::ms_since;
use crate::trace::{Layer, Tracer, BLOCK};
use crate::{repeated_setup, Args, Report};
use macross::{compile_graph, SimdizeOptions};
use macross_benchsuite::dynamic::{dynamic, DynBenchmark};
use macross_pdf::{oracle_replay, ParamGraph, ParamTrace};
use macross_runtime::FaultPlan;
use macross_service::{ServiceConfig, StreamService};
use macross_streamir::graph::Graph;
use macross_streamir::types::Value;
use macross_streamir::Valuation;
use macross_vm::{ExecMode, Executor, Machine};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Sessions kept outstanding by the client.
const OUTSTANDING: usize = 4;
/// Compile-cache bound, below the 16 static shapes.
const CACHE_CAPACITY: usize = 12;
/// One session in this many is dynamic-rate.
const DYNAMIC_ONE_IN: usize = 5;
/// Seeded parameter traces per dynamic template.
const TRACES_PER_TEMPLATE: usize = 24;

/// Traced metrics this workload does not measure (see
/// `Report::unmeasured`). The service calls `core`, `sdf`, `vm` and
/// `runtime` from its shard thread, where no span is recorded; their
/// time shows as `service.self_ms`.
const UNMEASURED: [&str; 10] = [
    "core.",
    "sdf.",
    "streamir.",
    "vm.",
    "runtime.",
    "multicore.",
    "harness.aa_",
    "cond.comm_",
    "cond.parallel_plans",
    "cond.plan_signature",
];

struct Static {
    name: &'static str,
    graph: Graph,
    iters: u64,
    /// The solo sequential run's output, flattened into one row.
    reference: Vec<Vec<Value>>,
}

struct Dynamic {
    name: &'static str,
    template: Arc<ParamGraph>,
    init: Valuation,
    trace: ParamTrace,
    reference: Vec<Vec<Value>>,
}

struct State {
    statics: Vec<Static>,
    dynamics: Vec<Dynamic>,
}

/// A seeded trace over `template`'s domain: a first segment at the
/// initial valuation, then segments that each set one parameter.
fn seeded_trace(template: &ParamGraph, rng: &mut Rng, label: String) -> ParamTrace {
    let mut trace = ParamTrace::new(label).then(&[], 2 + rng.below(6) as u64);
    let params: Vec<(String, u64, u64)> = template
        .domain()
        .iter()
        .map(|(n, r)| (n.to_string(), r.lo, r.hi))
        .collect();
    for _ in 0..2 + rng.below(3) {
        let (name, lo, hi) = &params[rng.below(params.len())];
        let value = lo + rng.below((hi - lo + 1) as usize) as u64;
        trace = trace.then(&[(name.as_str(), value)], 2 + rng.below(6) as u64);
    }
    trace
}

fn setup(machine: &Machine, seed: u64) -> Result<State, String> {
    let opts = SimdizeOptions::all();
    let mut statics = Vec::new();
    for b in macross_benchsuite::all() {
        let graph = (b.build)();
        let art = compile_graph(&graph, machine, &opts, ExecMode::Bytecode)
            .map_err(|e| format!("{}: {e}", b.name))?;
        let mut ex = Executor::with_programs(&art.graph, &art.schedule, machine, &art.programs);
        ex.run(b.iters)
            .map_err(|e| format!("{}: solo run: {e}", b.name))?;
        statics.push(Static {
            name: b.name,
            graph,
            iters: b.iters,
            reference: vec![ex.output_flat()],
        });
    }
    let mut rng = Rng::new(seed ^ 0xD1);
    let mut dynamics = Vec::new();
    for d in dynamic() {
        let DynBenchmark {
            name,
            template,
            init,
            ..
        } = d;
        let template = Arc::new(template());
        for k in 0..TRACES_PER_TEMPLATE {
            let trace = seeded_trace(&template, &mut rng, format!("{name}#{k}"));
            let reference = oracle_replay(
                &template,
                &init(),
                &trace,
                machine,
                &opts,
                ExecMode::Bytecode,
            )
            .map_err(|e| format!("{}: oracle: {e}", trace.name))?;
            dynamics.push(Dynamic {
                name,
                template: template.clone(),
                init: init(),
                trace,
                reference,
            });
        }
    }
    Ok(State { statics, dynamics })
}

enum Kind {
    Static(usize),
    Dynamic(usize),
}

struct Open {
    id: u64,
    kind: Kind,
    submitted: Instant,
}

#[derive(Default)]
struct Stats {
    session_ms: Vec<f64>,
    submit_hit_ms: Vec<f64>,
    submit_miss_ms: Vec<f64>,
    /// Missed-submit latency per static graph.
    miss_by_graph: Vec<Vec<f64>>,
    close_ms: Vec<f64>,
    set_param_ms: Vec<f64>,
    values: u64,
    closed: u64,
    swaps: u64,
}

impl Stats {
    fn for_graphs(graphs: usize) -> Stats {
        Stats {
            miss_by_graph: vec![Vec::new(); graphs],
            ..Stats::default()
        }
    }
}

struct Client<'a> {
    service: &'a StreamService,
    state: &'a State,
    rng: Rng,
    tracer: Tracer,
}

impl Client<'_> {
    fn open(&mut self, stats: &mut Stats) -> Result<Open, String> {
        let svc = self.service;
        let submitted = Instant::now();
        if self.rng.below(DYNAMIC_ONE_IN) == 0 {
            let i = self.rng.below(self.state.dynamics.len());
            let d = &self.state.dynamics[i];
            let id = self
                .tracer
                .span("StreamService::submit_dynamic", Layer::Service, || {
                    svc.submit_dynamic(d.name, &d.template, &d.init, FaultPlan::none())
                })
                .map_err(|e| format!("submit_dynamic: {e}"))?;
            for step in &d.trace.steps {
                for (name, value) in &step.sets {
                    let t = Instant::now();
                    self.tracer
                        .span("StreamService::set_param", Layer::Pdf, || {
                            svc.set_param(id, name, *value)
                        })
                        .map_err(|e| format!("set_param: {e}"))?;
                    stats.set_param_ms.push(ms_since(t));
                }
                self.tracer
                    .span("StreamService::feed", Layer::Service, || {
                        svc.feed(id, step.iters)
                    })
                    .map_err(|e| format!("feed: {e}"))?;
            }
            stats.swaps += d.trace.reconfigurations();
            return Ok(Open {
                id,
                kind: Kind::Dynamic(i),
                submitted,
            });
        }
        let i = self.rng.below(self.state.statics.len());
        let s = &self.state.statics[i];
        let hits = svc.cache_stats().hits;
        let id = self
            .tracer
            .span("StreamService::submit", Layer::Service, || {
                svc.submit(s.name, &s.graph, FaultPlan::none())
            })
            .map_err(|e| format!("submit: {e}"))?;
        let submit_ms = ms_since(submitted);
        if svc.cache_stats().hits > hits {
            stats.submit_hit_ms.push(submit_ms);
        } else {
            stats.submit_miss_ms.push(submit_ms);
            stats.miss_by_graph[i].push(submit_ms);
        }
        self.tracer
            .span("StreamService::feed", Layer::Service, || {
                svc.feed(id, s.iters)
            })
            .map_err(|e| format!("feed: {e}"))?;
        Ok(Open {
            id,
            kind: Kind::Static(i),
            submitted,
        })
    }

    /// Close a session, check its output; returns the session latency
    /// (ms) and the sink values it delivered.
    fn close(&mut self, open: &Open, stats: &mut Stats) -> Result<(f64, u64), String> {
        let svc = self.service;
        let t = Instant::now();
        let closed = self
            .tracer
            .span("StreamService::close", Layer::Service, || {
                svc.close(open.id)
            })
            .map_err(|e| format!("close: {e}"))?;
        stats.close_ms.push(ms_since(t));
        let session_ms = ms_since(open.submitted);
        if closed.faulted {
            return Err(format!("faulted: {:?}", closed.failures));
        }
        let values = closed.outputs.iter().map(|r| r.len() as u64).sum();
        match open.kind {
            Kind::Static(i) => {
                let flat: Vec<Value> = closed.outputs.into_iter().flatten().collect();
                check_exact(&self.state.statics[i].reference, &[flat])?
            }
            Kind::Dynamic(i) => check_exact(&self.state.dynamics[i].reference, &closed.outputs)?,
        };
        Ok((session_ms, values))
    }

    /// Run the closed loop until `until`, then drain what is open. Only
    /// sessions closed before `until` count in `stats`.
    fn drive(&mut self, until: Instant, report: &mut Report, stats: &mut Stats) -> f64 {
        let start = Instant::now();
        let root = self.tracer.enter("traced block", Layer::Harness);
        let mut open: VecDeque<Open> = VecDeque::new();
        let mut last_close = start;
        loop {
            let now = Instant::now();
            while now < until && open.len() < OUTSTANDING {
                match self.open(stats) {
                    Ok(o) => open.push_back(o),
                    Err(e) => {
                        report.op("open session", Err(e));
                        break;
                    }
                }
            }
            let Some(o) = open.pop_front() else { break };
            let counted = Instant::now() < until;
            let outcome = self.close(&o, stats).map(|(ms, values)| {
                if counted {
                    stats.session_ms.push(ms);
                    stats.values += values;
                    stats.closed += 1;
                    last_close = Instant::now();
                }
            });
            report.op("session", outcome);
        }
        self.tracer.exit(root);
        (last_close - start).as_secs_f64()
    }
}

pub fn run(args: &Args, started: Instant, report: &mut Report) -> Result<(), String> {
    let machine = Machine::core_i7();
    let once_s = started.elapsed().as_secs_f64();
    let (state, passes) = repeated_setup(|| setup(&machine, args.seed))?;
    report.setup(once_s, &passes);

    let service = StreamService::new(
        machine,
        ServiceConfig {
            workers: 1,
            cache_capacity: CACHE_CAPACITY,
            mode: ExecMode::Bytecode,
            opts: SimdizeOptions::all(),
            ..ServiceConfig::default()
        },
    );
    let mut client = Client {
        service: &service,
        state: &state,
        rng: Rng::new(args.seed),
        tracer: Tracer::new(false),
    };
    let mut stats = Stats::for_graphs(state.statics.len());
    let window = args.window();
    // Swapped into the client for the traced blocks.
    let mut tracer = Tracer::new(true);
    let mut blocks = 0;
    let (elapsed, traced_rate) = if args.trace {
        // Alternating untraced and traced blocks (`trace::BLOCK`), each
        // traced block under one root span: the ratio of the two kinds'
        // session throughput is the tracing overhead.
        let end = Instant::now() + window;
        let (mut busy, mut closed) = ([0.0; 2], [0u64; 2]);
        for k in 0.. {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let traced = k % 2;
            if traced == 1 {
                std::mem::swap(&mut client.tracer, &mut tracer);
                blocks += 1;
            }
            let before = stats.closed;
            busy[traced] += client.drive((now + BLOCK).min(end), report, &mut stats);
            closed[traced] += stats.closed - before;
            if traced == 1 {
                std::mem::swap(&mut client.tracer, &mut tracer);
            }
        }
        let rate = |i: usize| closed[i] as f64 / busy[i];
        report.set("harness.tracing_overhead", rate(0) / rate(1) - 1.0);
        (busy[0] + busy[1], Some(rate(1)))
    } else {
        (
            client.drive(Instant::now() + window, report, &mut stats),
            None,
        )
    };
    let cache = service.cache_stats();
    let scache = service.schedule_cache_stats();
    let shut = service.shutdown("perfbench_service_mixed");
    if stats.closed == 0 || elapsed <= 0.0 {
        return Err("window too short: no session closed".into());
    }
    report.latency("session", &stats.session_ms);
    // The service compiles on a cache miss: a missed submit is the
    // compile latency its users see. Quantiles are over per-graph
    // medians, as in `steady_suite`.
    let compile: Vec<f64> = stats
        .miss_by_graph
        .iter()
        .filter(|m| !m.is_empty())
        .map(|m| median(m))
        .collect();
    report.latency("compile", &compile);
    report.set("sessions_per_s", stats.closed as f64 / elapsed);
    report.set("outputs_per_s", stats.values as f64 / elapsed);
    let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "{} sessions closed: p50 {:.3} ms; cache {} hits / {} misses / {} evictions; schedule cache {} hits / {} misses; {} swaps{}",
        stats.closed,
        median(&stats.session_ms),
        cache.hits,
        cache.misses,
        cache.evictions,
        scache.hits,
        scache.misses,
        stats.swaps,
        traced_rate.map_or(String::new(), |r| format!("; traced blocks {r:.1} sessions/s"))
    );
    if args.trace {
        report.set("service.submit_ms_hit", median(&stats.submit_hit_ms));
        report.set("service.submit_ms_miss", median(&stats.submit_miss_ms));
        report.set("service.cache_hit_rate", rate(cache.hits, cache.misses));
        report.set("service.evictions", cache.evictions as f64);
        report.set("service.close_wait_ms", median(&stats.close_ms));
        report.set(
            "service.rejected",
            (shut.admission.rejected_sessions + shut.admission.rejected_feeds) as f64,
        );
        report.set("pdf.set_param_ms", median(&stats.set_param_ms));
        report.set("pdf.swaps", stats.swaps as f64);
        report.set("pdf.scache_hit_rate", rate(scache.hits, scache.misses));
        report.attribution(&tracer, blocks);
        report.unmeasured(&UNMEASURED)?;
    }
    Ok(())
}

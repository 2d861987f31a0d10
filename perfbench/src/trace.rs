//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around calls into the crates'
//! public functions: name, layer (the crate called), start, end and
//! parent. They stay in memory and are summarised when the run ends.
//! Hot calls that are far too frequent for one span each
//! (`Executor::fire`) are recorded as one aggregate span per parent and
//! category, carrying the summed duration and the call count.

use std::time::{Duration, Instant};

/// Length of the alternating untraced and traced blocks that
/// `compile_churn` and `service_mixed` split a traced run's window into.
/// The traced blocks, each under one root span, are the traced window;
/// the untraced ones give the tracing overhead on interleaved samples,
/// so neither host drift nor a cold start lands on one side only.
pub const BLOCK: Duration = Duration::from_secs(1);

/// Whether `now` falls in a traced block of a window begun at `start`
/// (blocks alternate, untraced first).
pub fn in_traced_block(start: Instant, now: Instant) -> bool {
    (now - start).as_nanos() / BLOCK.as_nanos() % 2 == 1
}

/// A crate of the system, or the benchmark itself (`Harness`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Harness,
    Streamir,
    Sdf,
    Core,
    Vm,
    Runtime,
    Multicore,
    Service,
    Pdf,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Harness,
        Layer::Streamir,
        Layer::Sdf,
        Layer::Core,
        Layer::Vm,
        Layer::Runtime,
        Layer::Multicore,
        Layer::Service,
        Layer::Pdf,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Streamir => "streamir",
            Layer::Sdf => "sdf",
            Layer::Core => "core",
            Layer::Vm => "vm",
            Layer::Runtime => "runtime",
            Layer::Multicore => "multicore",
            Layer::Service => "service",
            Layer::Pdf => "pdf",
        }
    }

    fn index(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).unwrap()
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Calls folded into this span (1 unless aggregate).
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, layer: Layer) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            count: 1,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans must nest");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span (just run it when tracing is off).
    pub fn span<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, layer);
        let out = f();
        self.exit(open);
        out
    }

    /// Record an aggregate child of the innermost open span: `count`
    /// calls totalling `dur_ns`, starting at `start_ns`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        layer: Layer,
        start_ns: u64,
        dur_ns: u64,
        count: u64,
    ) {
        if self.on && count > 0 {
            self.spans.push(Span {
                name,
                layer,
                start_ns,
                end_ns: start_ns + dur_ns,
                parent: self.stack.last().copied(),
                count,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// The attribution of everything recorded so far.
    pub fn attribution(&self) -> Attribution {
        let mut layer_ns = [0u64; Layer::ALL.len()];
        let mut layer_spans = [0u64; Layer::ALL.len()];
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            layer_ns[s.layer.index()] += own;
            layer_spans[s.layer.index()] += s.count;
        }
        let roots: Vec<&Span> = self.spans.iter().filter(|s| s.parent.is_none()).collect();
        Attribution {
            layer_ns,
            layer_spans,
            total_ns: roots.iter().map(|s| s.dur_ns()).sum(),
            roots: roots.len(),
        }
    }

    /// One line per span name: calls, total and self milliseconds.
    pub fn summary_lines(&self) -> Vec<String> {
        let own = self.self_ns();
        let mut rows: Vec<(&'static str, Layer, u64, u64, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.2 += s.count;
                    r.3 += s.dur_ns();
                    r.4 += own;
                }
                None => rows.push((s.name, s.layer, s.count, s.dur_ns(), own)),
            }
        }
        rows.iter()
            .map(|(name, layer, count, total, own)| {
                format!(
                    "span {name:<40} {:<9} calls {count:>10} total_ms {:>10.3} self_ms {:>10.3}",
                    layer.label(),
                    *total as f64 / 1e6,
                    *own as f64 / 1e6
                )
            })
            .collect()
    }
}

/// Per-layer self time of a traced run against its end-to-end time (the
/// summed duration of the root spans: one per traced block, or one over
/// the whole window).
#[derive(Debug, Clone, Copy)]
pub struct Attribution {
    pub layer_ns: [u64; Layer::ALL.len()],
    /// Calls recorded per layer.
    pub layer_spans: [u64; Layer::ALL.len()],
    pub total_ns: u64,
    pub roots: usize,
}

impl Attribution {
    pub fn layer_ms(&self, layer: Layer) -> f64 {
        self.layer_ns[layer.index()] as f64 / 1e6
    }

    pub fn layer_spans(&self, layer: Layer) -> u64 {
        self.layer_spans[layer.index()]
    }

    /// Share of the end-to-end time that the system's layers account
    /// for (everything but the benchmark's own code).
    pub fn attributed_share(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        let sys: u64 = Layer::ALL
            .iter()
            .filter(|&&l| l != Layer::Harness)
            .map(|&l| self.layer_ns[l.index()])
            .sum();
        sys as f64 / self.total_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("root", Layer::Harness);
        t.span("child", Layer::Core, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let now = t.now_ns();
        t.aggregate("fires", Layer::Vm, now, 0, 3);
        t.exit(root);
        let a = t.attribution();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(a.total_ns, spans[0].dur_ns());
        assert_eq!(a.roots, 1);
        assert_eq!(a.layer_spans(Layer::Vm), 3);
        assert_eq!(a.layer_spans(Layer::Sdf), 0);
        let sum: u64 = a.layer_ns.iter().sum();
        assert_eq!(sum, a.total_ns);
        assert!(a.layer_ms(Layer::Core) >= 2.0);
        assert!(a.attributed_share() > 0.5);
    }

    #[test]
    fn blocks_alternate_and_each_is_a_root() {
        let start = Instant::now();
        assert!(!in_traced_block(start, start));
        assert!(in_traced_block(start, start + BLOCK));
        assert!(!in_traced_block(start, start + BLOCK * 2));
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            let block = t.enter("traced block", Layer::Harness);
            t.span("child", Layer::Sdf, || ());
            t.exit(block);
        }
        let a = t.attribution();
        assert_eq!(a.roots, 2);
        assert_eq!(a.total_ns, t.spans()[0].dur_ns() + t.spans()[2].dur_ns());
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("x", Layer::Core, || 5);
        assert_eq!(x, 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.attribution().total_ns, 0);
    }
}

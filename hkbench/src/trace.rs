//! Spans around the benchmark's calls into each layer.
//!
//! A traced pass wraps every call the benchmark makes into a crate in a
//! span (name, layer, start, end, parent). Durations the solver already
//! measures inside a call (`PhaseStats`: symbolic execution, Ackermann,
//! bit-blasting, CDCL search, proof checking) are attached to the
//! enclosing span as attributed durations. Everything stays in memory
//! until the pass ends.
//!
//! A span's self time is its duration minus its child spans and its
//! attributed durations. Self time of spans in the glue layers (the
//! benchmark's own root span and `hk-core`) is what no named layer
//! accounts for: `unattributed_s`.

use std::fmt::Write;
use std::time::{Duration, Instant};

/// The layers a traced pass attributes time to, by crate. The last two
/// are glue: their self time is reported as `unattributed_s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `hk-kernel`/`hk-hcc`: compiling the HyperC sources to an image.
    Build,
    /// `hk-hir`: static analysis (finiteness, UB lints, loop bounds).
    Analysis,
    /// `hk-spec`: specification shapes, states, transitions, properties.
    Spec,
    /// `hk-symx`: symbolic execution of handlers and the invariant.
    Symx,
    /// `hk-smt`: Ackermann reduction.
    Ack,
    /// `hk-smt`: bit-blasting to CNF.
    Bitblast,
    /// `hk-smt`: CDCL search.
    Solve,
    /// `hk-proof`: independent DRAT checking.
    ProofCheck,
    /// `hk-smt` cache: loading the disk snapshot.
    SnapshotLoad,
    /// `hk-smt` cache: saving the disk snapshot.
    SnapshotSave,
    /// `hk-core` testgen: replaying a counterexample on the interpreter.
    Replay,
    /// `hk-core` orchestration around the solver (obligation building,
    /// cache lookups, model validation, test-case extraction).
    Core,
    /// The benchmark itself.
    Bench,
}

impl Layer {
    /// Layers with a metric of their own, in report order.
    pub const NAMED: [Layer; 11] = [
        Layer::Build,
        Layer::Analysis,
        Layer::Spec,
        Layer::Symx,
        Layer::Ack,
        Layer::Bitblast,
        Layer::Solve,
        Layer::ProofCheck,
        Layer::SnapshotLoad,
        Layer::SnapshotSave,
        Layer::Replay,
    ];

    /// The per-layer metric this layer's self time is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Build => "build_s",
            Layer::Analysis => "analysis_s",
            Layer::Spec => "spec_s",
            Layer::Symx => "symx_s",
            Layer::Ack => "ack_s",
            Layer::Bitblast => "bitblast_s",
            Layer::Solve => "solve_s",
            Layer::ProofCheck => "proof_check_s",
            Layer::SnapshotLoad => "snapshot_load_s",
            Layer::SnapshotSave => "snapshot_save_s",
            Layer::Replay => "replay_s",
            Layer::Core => "core_self_s",
            Layer::Bench => "bench_self_s",
        }
    }

    fn crate_name(self) -> &'static str {
        match self {
            Layer::Build => "hk-kernel",
            Layer::Analysis => "hk-hir",
            Layer::Spec => "hk-spec",
            Layer::Symx => "hk-symx",
            Layer::Ack | Layer::Bitblast | Layer::Solve => "hk-smt",
            Layer::SnapshotLoad | Layer::SnapshotSave => "hk-smt",
            Layer::ProofCheck => "hk-proof",
            Layer::Replay | Layer::Core => "hk-core",
            Layer::Bench => "hkbench",
        }
    }
}

struct Span {
    name: String,
    layer: Layer,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    /// Durations measured inside this span by the layer itself.
    attributed: Vec<(Layer, Duration)>,
}

/// Records spans when enabled; otherwise every method is a plain call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &str, layer: Layer, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            attributed: Vec::new(),
        });
        self.open.push(idx);
        let out = f(self);
        self.spans[idx].end = self.origin.elapsed();
        self.open.pop();
        out
    }

    /// Attaches a duration the layer measured itself to the innermost
    /// open span.
    pub fn attribute(&mut self, layer: Layer, d: Duration) {
        if !self.enabled || d.is_zero() {
            return;
        }
        let idx = *self.open.last().expect("attribute inside a span");
        self.spans[idx].attributed.push((layer, d));
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer over every recorded span, and the duration
    /// of the root spans (the traced wall).
    pub fn breakdown(&self) -> Breakdown {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = Breakdown::default();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = (s.end - s.start).as_secs_f64();
            if s.parent.is_none() {
                out.wall_s += dur;
            }
            let attributed: f64 = s.attributed.iter().map(|(_, d)| d.as_secs_f64()).sum();
            let own = dur - child_time[i].as_secs_f64() - attributed;
            if own < -1e-6 {
                out.negative_self.push(s.name.clone());
            }
            out.add(s.layer, own);
            for &(layer, d) in &s.attributed {
                out.add(layer, d.as_secs_f64());
            }
        }
        out
    }

    /// The spans as JSON: one object per span, with start and end in
    /// seconds from the tracer's creation.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let attributed: Vec<String> = s
                .attributed
                .iter()
                .map(|(l, d)| {
                    format!(
                        "{{\"layer\": \"{}\", \"s\": {:.9}}}",
                        l.metric(),
                        d.as_secs_f64()
                    )
                })
                .collect();
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"crate\": \"{}\", \
                 \"parent\": {parent}, \"start_s\": {:.9}, \"end_s\": {:.9}, \"attributed\": [{}]}}",
                s.name,
                s.layer.metric(),
                s.layer.crate_name(),
                s.start.as_secs_f64(),
                s.end.as_secs_f64(),
                attributed.join(", ")
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time per layer over a traced pass.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Sum of root-span durations: the traced wall.
    pub wall_s: f64,
    /// Self time per layer, indexed like [`Layer::NAMED`].
    pub named_s: [f64; Layer::NAMED.len()],
    /// Self time of the glue layers (`hk-core` and the benchmark).
    pub glue_s: f64,
    /// Spans whose children and attributed durations exceed their own
    /// duration (time counted twice).
    pub negative_self: Vec<String>,
}

impl Breakdown {
    fn add(&mut self, layer: Layer, s: f64) {
        match Layer::NAMED.iter().position(|&l| l == layer) {
            Some(i) => self.named_s[i] += s,
            None => self.glue_s += s,
        }
    }

    /// Wall time no named layer accounts for.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s - self.named_s.iter().sum::<f64>()
    }

    /// True when the named layers plus the glue self time add up to the
    /// traced wall and no span's self time is negative.
    pub fn consistent(&self) -> bool {
        let total: f64 = self.named_s.iter().sum::<f64>() + self.glue_s;
        self.negative_self.is_empty() && (total - self.wall_s).abs() <= 1e-6 * self.wall_s.max(1.0)
    }
}

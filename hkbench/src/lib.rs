//! Push-button verification benchmark.
//!
//! Four workloads drive the verifier through its public entry points
//! only, each from inputs generated from a seed, and check every verdict
//! against a known answer:
//!
//! * `t1_sweep`: Theorem 1 over the 30 fastest handlers, uncertified,
//!   cold in-memory query cache.
//! * `t1_certified`: Theorem 1 with every Unsat answer DRAT-certified.
//! * `t2_decl`: Theorem 2 for one transition against all declarative
//!   properties — one huge oneshot query.
//! * `edit_loop`: the developer's edit→verify loop, with the query cache
//!   carried between cycles in a disk snapshot.
//!
//! See `README.md` beside this crate for why each workload exists.

pub mod edits;
pub mod sys;
pub mod trace;

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hk_abi::{KernelParams, Sysno};
use hk_core::refine::VerifyCtx;
use hk_core::testgen::ReplayResult;
use hk_core::{
    verify_handler, verify_image, EventSink, HandlerOutcome, HandlerReport, PhaseStats,
    VerifyConfig, VerifyEvent,
};
use hk_kernel::{Kernel, KernelImage, KernelLayout};
use hk_smt::{Ctx, QueryCache, SatResult, Solver, SolverConfig, SolverStats, Sort, TermId};
use hk_spec::{GlobalShape, SpecState};
use hk_symx::SymxConfig;

use crate::edits::{Expect, EDITS};
use crate::sys::Rng;
use crate::trace::{Layer, Tracer};

/// Capacity of each in-memory query cache (what `verify_image` uses by
/// default).
const CACHE_CAPACITY: usize = 1 << 14;

/// The 30 handlers that verify fastest, uncertified (each at most a
/// few seconds on one core).
pub const SWEEP: [Sysno; 30] = [
    Sysno::Nop,
    Sysno::AckIntr,
    Sysno::SetRunnable,
    Sysno::Switch,
    Sysno::Reap,
    Sysno::Reparent,
    Sysno::FreePdpt,
    Sysno::FreePd,
    Sysno::FreePt,
    Sysno::CreateFile,
    Sysno::Close,
    Sysno::Dup,
    Sysno::Pipe,
    Sysno::TransferFd,
    Sysno::Yield,
    Sysno::Uptime,
    Sysno::AllocIommuPdpt,
    Sysno::AllocIommuPd,
    Sysno::AllocIommuPt,
    Sysno::FreeIommuRoot,
    Sysno::AllocPort,
    Sysno::ReclaimPort,
    Sysno::AllocVector,
    Sysno::ReclaimVector,
    Sysno::AllocIntremap,
    Sysno::ReclaimIntremap,
    Sysno::TrapTimer,
    Sysno::TrapIrq,
    Sysno::TrapDebugPrint,
    Sysno::TrapInvalid,
];

/// Handlers of the certified run: two light handlers whose proof
/// checking is all re-checking of the session proof, and one with many
/// conflicts (`sys_reclaim_port`), so proof logging during search is
/// exercised as well.
pub const CERTIFIED: [Sysno; 3] = [Sysno::AckIntr, Sysno::Dup, Sysno::ReclaimPort];

/// The 18 handlers of [`SWEEP`] that verify fastest (each well under a
/// second): the edit loop's handler set.
pub const EDIT_SET: [Sysno; 18] = [
    Sysno::Nop,
    Sysno::AckIntr,
    Sysno::SetRunnable,
    Sysno::Switch,
    Sysno::Reap,
    Sysno::CreateFile,
    Sysno::Dup,
    Sysno::Pipe,
    Sysno::TransferFd,
    Sysno::Yield,
    Sysno::Uptime,
    Sysno::AllocPort,
    Sysno::AllocVector,
    Sysno::AllocIntremap,
    Sysno::TrapTimer,
    Sysno::TrapIrq,
    Sysno::TrapDebugPrint,
    Sysno::TrapInvalid,
];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    T1Sweep,
    T1Certified,
    T2Decl,
    EditLoop,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::T1Sweep,
        Workload::T1Certified,
        Workload::T2Decl,
        Workload::EditLoop,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::T1Sweep => "t1_sweep",
            Workload::T1Certified => "t1_certified",
            Workload::T2Decl => "t2_decl",
            Workload::EditLoop => "edit_loop",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's inputs for `seed`: the seed fixes handler order
    /// and edit order.
    pub fn plan(self, seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        match self {
            Workload::T1Sweep | Workload::T1Certified => {
                let certify = self == Workload::T1Certified;
                let mut handlers = if certify {
                    CERTIFIED.to_vec()
                } else {
                    SWEEP.to_vec()
                };
                rng.shuffle(&mut handlers);
                Plan::Theorem1 { handlers, certify }
            }
            Workload::T2Decl => Plan::Theorem2 {
                transition: Sysno::Nop,
            },
            Workload::EditLoop => {
                // Handlers stay in trap-number order, as `verify_image`
                // runs them; the seed orders the edits.
                let handlers = EDIT_SET.to_vec();
                let mut edits: Vec<usize> = (0..EDITS.len()).collect();
                rng.shuffle(&mut edits);
                // Cycle 0 verifies the stock image cold.
                let cycles = std::iter::once(None)
                    .chain(edits.into_iter().map(Some))
                    .collect();
                Plan::EditLoop { handlers, cycles }
            }
        }
    }
}

/// The generated inputs of one workload.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Verify `handlers` in this order with one solver configuration.
    Theorem1 { handlers: Vec<Sysno>, certify: bool },
    /// Check every declarative property against one transition.
    Theorem2 { transition: Sysno },
    /// Each cycle builds a fresh image (stock, or with one edit from
    /// [`EDITS`]) and verifies `handlers` plus the edit's target.
    EditLoop {
        handlers: Vec<Sysno>,
        cycles: Vec<Option<usize>>,
    },
}

impl Plan {
    /// Handlers whose code the set-up analyses.
    fn roots(&self) -> Vec<Sysno> {
        match self {
            Plan::Theorem1 { handlers, .. } | Plan::EditLoop { handlers, .. } => handlers.clone(),
            Plan::Theorem2 { transition } => vec![*transition],
        }
    }
}

/// Counts that must repeat exactly for a given seed: a drift means the
/// work changed, not the machine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub symx_paths: u64,
    pub terms: u64,
    pub cnf_clauses: u64,
    pub cnf_vars: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub proof_steps: u64,
    pub proof_bytes: u64,
    pub proof_core_steps: u64,
    pub queries: u64,
}

impl Counts {
    /// Folds in what a Theorem 1 handler report exposes. `cnf_clauses`
    /// is the report's largest single-call encoding and `conflicts` its
    /// refinement-query conflicts; variables, decisions and
    /// propagations are not reported per handler.
    fn absorb_handler(&mut self, r: &HandlerReport) {
        let p = &r.phases;
        self.symx_paths += r.paths as u64;
        self.cnf_clauses += r.cnf_clauses as u64;
        self.conflicts += r.conflicts;
        self.queries += p.queries;
        self.cache_hits += p.cache_hits;
        self.cache_misses += p.cache_misses;
        self.proof_steps += p.proof_steps;
        self.proof_bytes += p.proof_bytes;
        self.proof_core_steps += p.proof_core_steps;
    }

    /// Folds in one solver call's statistics.
    fn absorb_solver(&mut self, s: &SolverStats) {
        self.cnf_clauses += s.cnf_clauses as u64;
        self.cnf_vars += u64::from(s.cnf_vars);
        self.conflicts += s.conflicts;
        self.decisions += s.decisions;
        self.propagations += s.propagations;
        self.queries += 1;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.proof_steps += s.proof_steps;
        self.proof_bytes += s.proof_bytes;
        self.proof_core_steps += s.proof_core_steps;
    }

    /// `(name, value)` pairs in report order.
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("symx_paths", self.symx_paths),
            ("terms", self.terms),
            ("cnf_clauses", self.cnf_clauses),
            ("cnf_vars", self.cnf_vars),
            ("conflicts", self.conflicts),
            ("decisions", self.decisions),
            ("propagations", self.propagations),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("proof_steps", self.proof_steps),
            ("proof_bytes", self.proof_bytes),
            ("proof_core_steps", self.proof_core_steps),
            ("queries", self.queries),
        ]
    }
}

/// Verdicts checked against their known answers.
#[derive(Debug, Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Oracle {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One pass of a workload: set-up, then the timed verification work.
#[derive(Debug)]
pub struct Pass {
    /// Each set-up's time, in the order they ran.
    pub setup_s: Vec<f64>,
    /// Verification time: the sum of the units' wall times.
    pub wall_s: f64,
    /// Wall and CPU time of each unit of the pass's work.
    pub units: Units,
    pub oracle: Oracle,
    pub counts: Counts,
}

/// Wall and CPU time of each unit of a pass's work — a handler, the
/// Theorem 2 query, an edit cycle — in plan order, so that a run of
/// several passes can take the median of each unit.
#[derive(Debug, Default)]
pub struct Units {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// Set-up times sampled after each unit, when sampling.
    setup_s: Vec<f64>,
    /// Handlers the sampled set-ups analyse; `None` = no sampling.
    sample_roots: Option<Vec<Sysno>>,
}

impl Units {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (cpu0, t0) = (sys::cpu_s(), Instant::now());
        let out = f();
        self.wall_s.push(t0.elapsed().as_secs_f64());
        self.cpu_s.push(sys::cpu_s() - cpu0);
        if let Some(roots) = &self.sample_roots {
            self.setup_s.push(timed_setup(&mut Tracer::off(), roots).0);
        }
        out
    }
}

/// How a pass samples set-up time.
#[derive(Clone, Copy, Debug)]
pub struct Setups {
    /// Set-ups before the work; the last one's image is verified.
    pub burst: usize,
    /// One more set-up after each unit of work, outside the units' time,
    /// so that the samples spread over the whole pass: the host's speed
    /// drifts over seconds, and a burst sees only one moment of it.
    pub between_units: bool,
}

impl Setups {
    /// One set-up, nothing sampled: the traced run and the tests.
    pub const ONCE: Setups = Setups {
        burst: 1,
        between_units: false,
    };
}

/// What every workload builds before its first query: the kernel image
/// (`hk-kernel`/`hk-hcc`), its static analysis (`hk-hir`), and the
/// specification's state shapes (`hk-spec`).
struct FrontEnd {
    image: KernelImage,
    bounds: hk_hir::LoopBounds,
    shapes: Vec<GlobalShape>,
    findings: usize,
}

fn front_end(tr: &mut Tracer, handlers: &[Sysno]) -> FrontEnd {
    let image = tr.span("KernelImage::build", Layer::Build, |_| {
        KernelImage::build(KernelParams::verification()).expect("stock kernel builds")
    });
    let mut roots: Vec<hk_hir::FuncId> = handlers.iter().map(|&s| image.handler(s)).collect();
    roots.push(image.rep_invariant);
    roots.sort_unstable();
    roots.dedup();
    let analysis = tr.span("analyze_module", Layer::Analysis, |_| {
        let config = hk_kernel::analysis_config(&image.params);
        hk_hir::analysis::analyze_module(&image.module, &roots, &config)
    });
    let shapes = tr.span("shapes_of", Layer::Spec, |_| {
        hk_spec::shapes_of(&image.module)
    });
    FrontEnd {
        findings: analysis.unsuppressed().count(),
        bounds: analysis.bounds,
        image,
        shapes,
    }
}

fn timed_setup(tr: &mut Tracer, roots: &[Sysno]) -> (f64, FrontEnd) {
    let t = Instant::now();
    let fe = front_end(tr, roots);
    (t.elapsed().as_secs_f64(), fe)
}

/// Attaches the durations a handler's solver measured to the open span.
fn attribute_phases(tr: &mut Tracer, p: &PhaseStats) {
    tr.attribute(Layer::Symx, p.symx_time);
    tr.attribute(Layer::Ack, p.ack_time);
    tr.attribute(Layer::Bitblast, p.bitblast_time);
    tr.attribute(Layer::Solve, p.solve_time);
    tr.attribute(Layer::ProofCheck, p.proof_check_time);
}

/// Runs one pass: set-ups, then the workload. `out_dir` holds the edit
/// loop's cache snapshot.
pub fn run_pass(plan: &Plan, setups: Setups, out_dir: &Path, tr: &mut Tracer) -> Pass {
    tr.span("pass", Layer::Bench, |tr| {
        let roots = plan.roots();
        let mut setup_s = Vec::new();
        let mut fe = None;
        for _ in 0..setups.burst.max(1) {
            // Drop the previous set-up first so each one starts alike.
            drop(fe.take());
            let (t, next) = timed_setup(tr, &roots);
            setup_s.push(t);
            fe = Some(next);
        }
        let fe = fe.expect("at least one set-up");
        let mut oracle = Oracle::default();
        oracle.check(fe.findings == 0, || {
            format!(
                "{} static-analysis findings on the stock image",
                fe.findings
            )
        });
        let mut counts = Counts::default();
        let mut units = Units {
            sample_roots: setups.between_units.then(|| roots.clone()),
            ..Units::default()
        };
        match plan {
            Plan::Theorem1 { handlers, certify } => {
                theorem1(
                    tr,
                    &mut units,
                    &fe,
                    handlers,
                    *certify,
                    &mut oracle,
                    &mut counts,
                );
            }
            Plan::Theorem2 { transition } => {
                units.time(|| theorem2(tr, &fe, *transition, &mut oracle, &mut counts));
            }
            Plan::EditLoop { handlers, cycles } => {
                let snapshot = out_dir.join(format!("edit_loop-{}.qcache", std::process::id()));
                edit_loop(
                    tr,
                    &mut units,
                    handlers,
                    cycles,
                    &snapshot,
                    &mut oracle,
                    &mut counts,
                );
                let _ = std::fs::remove_file(&snapshot);
                let _ = std::fs::remove_file(snapshot.with_extension("lock"));
            }
        }
        setup_s.append(&mut units.setup_s);
        Pass {
            setup_s,
            wall_s: units.wall_s.iter().sum(),
            units,
            oracle,
            counts,
        }
    })
}

fn theorem1(
    tr: &mut Tracer,
    units: &mut Units,
    fe: &FrontEnd,
    handlers: &[Sysno],
    certify: bool,
    oracle: &mut Oracle,
    counts: &mut Counts,
) {
    let handler_fn = |s: Sysno| fe.image.handler(s);
    let vctx = VerifyCtx {
        module: &fe.image.module,
        shapes: &fe.shapes,
        params: fe.image.params,
        handler: &handler_fn,
        rep_invariant: fe.image.rep_invariant,
        solver: SolverConfig {
            cache: Some(Arc::new(QueryCache::new(CACHE_CAPACITY))),
            certify,
            ..SolverConfig::default()
        },
        symx: SymxConfig::default(),
        bounds: Some(&fe.bounds),
        budget: None,
    };
    for &s in handlers {
        let r = units.time(|| {
            tr.span(s.func_name(), Layer::Core, |tr| {
                let r = verify_handler(&vctx, s);
                attribute_phases(tr, &r.phases);
                r
            })
        });
        counts.absorb_handler(&r);
        oracle.check(r.outcome.is_verified(), || {
            format!("{}: expected ok, got {}", s.func_name(), r.verdict())
        });
        if certify {
            let p = &r.phases;
            oracle.check(
                p.unsat_queries > 0 && p.certified_unsat == p.unsat_queries,
                || {
                    format!(
                        "{}: {} of {} Unsat answers certified",
                        s.func_name(),
                        p.certified_unsat,
                        p.unsat_queries
                    )
                },
            );
        }
    }
}

/// Theorem 2 for one transition. This is the composition
/// `hk_core::xcut::check_transition` makes, step by step, so that
/// building the specification terms and solving are timed apart.
fn theorem2(
    tr: &mut Tracer,
    fe: &FrontEnd,
    sysno: Sysno,
    oracle: &mut Oracle,
    counts: &mut Counts,
) {
    let holds = tr.span("check_transition", Layer::Core, |tr| {
        let mut ctx = Ctx::new();
        let params = fe.image.params;
        let (p_pre, violated) = tr.span("declarative properties", Layer::Spec, |_| {
            let props = hk_spec::decl::all_properties();
            let mut st0 = SpecState::fresh(&mut ctx, &fe.shapes, params);
            let p_pre = hk_spec::decl::conjunction(&mut ctx, &mut st0, &props);
            let args: Vec<TermId> = (0..sysno.arg_count())
                .map(|i| ctx.var(format!("arg{i}"), Sort::Bv(64)))
                .collect();
            let mut post = st0.clone();
            let _ret = hk_spec::spec_transition(&mut ctx, &mut post, sysno, &args);
            let post_terms: Vec<TermId> = props
                .iter()
                .map(|p| (p.build)(&mut ctx, &mut post))
                .collect();
            let p_post = ctx.and(&post_terms);
            let violated = ctx.not(p_post);
            (p_pre, violated)
        });
        counts.terms += ctx.num_terms() as u64;
        let mut solver = Solver::with_config(SolverConfig::default());
        let result = tr.span("Solver::check", Layer::Core, |tr| {
            solver.assert(&mut ctx, p_pre);
            solver.assert(&mut ctx, violated);
            let result = solver.check(&mut ctx);
            let s = &solver.stats;
            tr.attribute(Layer::Ack, s.ack_time);
            tr.attribute(Layer::Bitblast, s.bitblast_time);
            tr.attribute(Layer::Solve, s.solve_time);
            tr.attribute(Layer::ProofCheck, s.proof_check_time);
            result
        });
        counts.absorb_solver(&solver.stats);
        matches!(result, SatResult::Unsat | SatResult::StaticallyDischarged)
    });
    oracle.check(holds, || {
        format!(
            "{}: declarative properties not preserved",
            sysno.func_name()
        )
    });
}

fn edit_loop(
    tr: &mut Tracer,
    units: &mut Units,
    handlers: &[Sysno],
    cycles: &[Option<usize>],
    snapshot: &Path,
    oracle: &mut Oracle,
    counts: &mut Counts,
) {
    let _ = std::fs::remove_file(snapshot);
    for (ci, &cycle) in cycles.iter().enumerate() {
        units.time(|| edit_cycle(tr, handlers, ci, cycle, snapshot, oracle, counts));
    }
}

/// One edit→verify cycle: cycle `ci` applies `cycle` (an index into
/// [`EDITS`], `None` = stock) to the stock sources.
fn edit_cycle(
    tr: &mut Tracer,
    handlers: &[Sysno],
    ci: usize,
    cycle: Option<usize>,
    snapshot: &Path,
    oracle: &mut Oracle,
    counts: &mut Counts,
) {
    let edit = cycle.map(|i| &EDITS[i]);
    let label = edit.map_or("stock", |e| e.name);
    let image = tr.span("KernelImage::build_with_sources", Layer::Build, |_| {
        KernelImage::build_with_sources(KernelParams::verification(), edits::sources(edit))
            .expect("edited kernel builds")
    });
    let cache = Arc::new(QueryCache::new(CACHE_CAPACITY));
    let loaded = tr.span("QueryCache::load_snapshot", Layer::SnapshotLoad, |_| {
        cache.load_snapshot(snapshot)
    });
    // Cycle 0 starts cold; every later cycle must find the snapshot.
    if ci > 0 {
        oracle.check(loaded.is_ok(), || {
            format!("{label}: snapshot load failed: {loaded:?}")
        });
    }
    let mut only = handlers.to_vec();
    if let Some(e) = edit {
        if !only.contains(&e.target) {
            only.push(e.target);
        }
    }
    let analysis_time = Arc::new(Mutex::new(Duration::ZERO));
    let sink_time = analysis_time.clone();
    let config = VerifyConfig {
        params: image.params,
        threads: 1,
        solver: SolverConfig {
            cache: Some(cache.clone()),
            ..SolverConfig::default()
        },
        symx: SymxConfig::default(),
        only,
        events: EventSink::new(move |ev| {
            if let VerifyEvent::AnalysisFinished { time, .. } = ev {
                *sink_time.lock().expect("event sink lock") += *time;
            }
        }),
        cache_snapshot: None,
    };
    let report = tr.span("verify_image", Layer::Core, |tr| {
        let report = verify_image(&image, &config);
        tr.attribute(
            Layer::Analysis,
            *analysis_time.lock().expect("event sink lock"),
        );
        for h in &report.handlers {
            attribute_phases(tr, &h.phases);
        }
        report
    });
    let lint = edit.is_some_and(|e| e.lint);
    oracle.check(report.analysis_findings.is_empty() != lint, || {
        format!(
            "{label}: expected {} static-analysis findings, got {:?}",
            if lint { "some" } else { "no" },
            report.analysis_findings
        )
    });
    let saved = tr.span("QueryCache::save_snapshot", Layer::SnapshotSave, |_| {
        cache.save_snapshot(snapshot)
    });
    oracle.check(saved.is_ok(), || {
        format!("{label}: snapshot save failed: {saved:?}")
    });
    let kernel = Kernel {
        layout: KernelLayout::new(&image.module),
        image,
    };
    for h in &report.handlers {
        counts.absorb_handler(h);
        let expect = match edit {
            Some(e) if e.target == h.sysno => e.expect,
            _ => Expect::Verified,
        };
        let class_ok = matches!(
            (&h.outcome, expect),
            (HandlerOutcome::Verified, Expect::Verified)
                | (
                    HandlerOutcome::RefinementBug { .. },
                    Expect::RefinementBug | Expect::AnyBug
                )
                | (HandlerOutcome::UbBug { .. }, Expect::UbBug | Expect::AnyBug)
        );
        oracle.check(class_ok, || {
            format!(
                "{label}: {} expected {expect:?}, got {}",
                h.sysno.func_name(),
                h.verdict()
            )
        });
        // A counterexample must replay on a kernel built from the
        // edited image: UB concretely for a UB bug, a run (or UB)
        // for a refinement bug.
        let replay = match &h.outcome {
            HandlerOutcome::UbBug { test_case, .. }
            | HandlerOutcome::RefinementBug { test_case, .. } => {
                tr.span("TestCase::replay", Layer::Replay, |_| {
                    test_case.replay(&kernel)
                })
            }
            _ => continue,
        };
        let replay_ok = match &h.outcome {
            HandlerOutcome::UbBug { .. } => matches!(replay, ReplayResult::Ub { .. }),
            _ => true,
        };
        oracle.check(replay_ok, || {
            format!(
                "{label}: {} counterexample replayed as {replay:?}",
                h.sysno.func_name()
            )
        });
    }
}

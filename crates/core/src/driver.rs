//! Orchestration: verify all 50 handlers, optionally in parallel.
//!
//! Matches the paper's workflow (§6.3): one solver instance per handler,
//! embarrassingly parallel across cores. Both paths report through the
//! configured [`EventSink`] — the parallel path buffers finished
//! handlers and emits in submission order, so the event stream is
//! byte-identical regardless of thread count.
//!
//! Every run shares one content-addressed verification-condition cache
//! (a per-run cache is created when the configuration does not supply
//! one), so re-verifying an unchanged kernel image answers most queries
//! without touching the SAT solver.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hk_abi::{KernelParams, Sysno};
use hk_kernel::KernelImage;
use hk_smt::{CacheStats, CoreBudget, QueryCache, SolverConfig};
use hk_spec::shapes_of;
use hk_symx::SymxConfig;

use crate::event::{EventSink, VerifyEvent};
use crate::refine::{verify_handler, HandlerOutcome, HandlerReport, VerifyCtx};

/// Default capacity of the per-run verification-condition cache.
const DEFAULT_CACHE_CAPACITY: usize = 1 << 14;

/// Verification configuration.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Kernel size parameters (use [`KernelParams::verification`]).
    pub params: KernelParams,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Solver configuration. If `solver.cache` is `None`, `verify_image`
    /// installs a fresh per-run cache so refinement batches within one
    /// run can still share verdicts. `solver.incremental` (on by
    /// default) makes each handler reuse one solver across its UB query
    /// and every refinement batch — the invariant is encoded once and
    /// learnt clauses carry over; disable it to get the
    /// fresh-solver-per-query baseline.
    pub solver: SolverConfig,
    /// Symbolic execution configuration.
    pub symx: SymxConfig,
    /// Restrict to these handlers (empty = all 50).
    pub only: Vec<Sysno>,
    /// Progress events (defaults to one line per handler on stderr).
    pub events: EventSink,
    /// If set, the query cache is loaded from this file before the run
    /// and saved back afterwards, making verdicts persist across
    /// processes. Missing or corrupt snapshots are ignored.
    pub cache_snapshot: Option<PathBuf>,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            params: KernelParams::verification(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            solver: SolverConfig::default(),
            symx: SymxConfig::default(),
            only: Vec::new(),
            events: EventSink::stderr(),
            cache_snapshot: None,
        }
    }
}

/// Aggregate report.
#[derive(Debug)]
pub struct VerifyReport {
    /// Unsuppressed static-analysis findings (rendered with their
    /// HyperC source locations). Nonzero fails the run: a kernel that
    /// trips the finiteness or UB lints is not push-button verifiable.
    pub analysis_findings: Vec<String>,
    /// Loops the static analysis proved a constant bound for (the
    /// bounds themselves are consumed by the symbolic executor).
    pub loop_bounds: usize,
    /// Per-handler reports, in trap-number order.
    pub handlers: Vec<HandlerReport>,
    /// Total wall-clock time.
    pub total_time: Duration,
    /// Query-cache counters at the end of the run (lifetime totals of
    /// the cache object, which may span several runs).
    pub cache: CacheStats,
    /// Entries resident in the cache at the end of the run.
    pub cache_entries: usize,
}

impl VerifyReport {
    /// True if static analysis came back clean and every handler
    /// verified.
    pub fn all_verified(&self) -> bool {
        self.analysis_findings.is_empty() && self.handlers.iter().all(|h| h.outcome.is_verified())
    }

    /// Solver queries answered from the cache *during this run*.
    pub fn cache_hits(&self) -> u64 {
        self.handlers.iter().map(|h| h.phases.cache_hits).sum()
    }

    /// Solver queries that missed the cache *during this run*.
    pub fn cache_misses(&self) -> u64 {
        self.handlers.iter().map(|h| h.phases.cache_misses).sum()
    }

    /// Unsat answers across all handlers *during this run*.
    pub fn unsat_queries(&self) -> u64 {
        self.handlers.iter().map(|h| h.phases.unsat_queries).sum()
    }

    /// Unsat answers confirmed by the independent proof checker (or
    /// vacuously, for trivially-false queries) *during this run*.
    pub fn certified_unsat(&self) -> u64 {
        self.handlers.iter().map(|h| h.phases.certified_unsat).sum()
    }

    /// True when the run was certified: every Unsat answer re-checked.
    /// (Trivially false on uncertified runs, which certify nothing.)
    pub fn fully_certified(&self) -> bool {
        self.unsat_queries() > 0 && self.certified_unsat() == self.unsat_queries()
    }

    /// Cache hit rate over this run's queries (0.0 when no queries ran).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_hits();
        let total = hits + self.cache_misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// A rendered summary table.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for f in &self.analysis_findings {
            let _ = writeln!(out, "analysis: {f}");
        }
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>7} {:>9} {:>10} {:>9} {:>9}",
            "handler", "verdict", "paths", "checks", "clauses", "cached", "time"
        );
        for h in &self.handlers {
            let verdict = match &h.outcome {
                HandlerOutcome::Verified => "ok",
                HandlerOutcome::UbBug { .. } => "UB!",
                HandlerOutcome::RefinementBug { .. } => "BUG!",
                HandlerOutcome::SymxFailed(_) => "symx!",
                HandlerOutcome::Unknown => "?",
            };
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>7} {:>9} {:>10} {:>4}/{:<4} {:>8.2}s",
                h.sysno.func_name(),
                verdict,
                h.paths,
                h.side_checks,
                h.cnf_clauses,
                h.phases.cache_hits,
                h.phases.queries,
                h.time.as_secs_f64()
            );
        }
        let _ = writeln!(
            out,
            "total: {:.1}s, {} / {} verified",
            self.total_time.as_secs_f64(),
            self.handlers
                .iter()
                .filter(|h| h.outcome.is_verified())
                .count(),
            self.handlers.len()
        );
        let _ = writeln!(
            out,
            "cache: {} hits / {} misses this run ({:.0}% hit rate), {} entries resident",
            self.cache_hits(),
            self.cache_misses(),
            self.cache_hit_rate() * 100.0,
            self.cache_entries
        );
        if self.certified_unsat() > 0 {
            let (steps, core, bytes, check) =
                self.handlers
                    .iter()
                    .fold((0u64, 0u64, 0u64, Duration::ZERO), |(s, c, b, t), h| {
                        (
                            s + h.phases.proof_steps,
                            c + h.phases.proof_core_steps,
                            b + h.phases.proof_bytes,
                            t + h.phases.proof_check_time,
                        )
                    });
            let _ = writeln!(
                out,
                "proof: {}/{} unsat answers certified ({} DRAT steps, {} core, {} bytes, {:.2}s checking)",
                self.certified_unsat(),
                self.unsat_queries(),
                steps,
                core,
                bytes,
                check.as_secs_f64()
            );
        }
        let races: u64 = self.handlers.iter().map(|h| h.phases.races).sum();
        if races > 0 {
            let workers: u64 = self.handlers.iter().map(|h| h.phases.race_workers).sum();
            let cubes: u64 = self.handlers.iter().map(|h| h.phases.cubes_solved).sum();
            let _ = writeln!(
                out,
                "portfolio: {races} races across {workers} workers, {cubes} cubes solved"
            );
        }
        let rewrites: u64 = self
            .handlers
            .iter()
            .map(|h| h.phases.simplify_rewrites)
            .sum();
        let discharged: u64 = self
            .handlers
            .iter()
            .map(|h| h.phases.statically_discharged)
            .sum();
        if rewrites > 0 || discharged > 0 {
            let dropped: u64 = self
                .handlers
                .iter()
                .map(|h| h.phases.simplify_coi_dropped)
                .sum();
            let time: Duration = self.handlers.iter().map(|h| h.phases.simplify_time).sum();
            let _ = writeln!(
                out,
                "simplify: {rewrites} rewrites, {dropped} conjuncts COI-dropped, {discharged} queries statically discharged ({:.2}s)",
                time.as_secs_f64()
            );
        }
        out
    }

    /// The report as a JSON document (machine-readable counterpart of
    /// [`VerifyReport::summary`]).
    ///
    /// Layout:
    ///
    /// ```json
    /// {
    ///   "total_time_s": 1.5,
    ///   "verified": 50, "total": 50,
    ///   "cache": { "hits": 120, "misses": 8, "hit_rate": 0.9375, "entries": 128 },
    ///   "proof": { "unsat_queries": 96, "certified_unsat": 96, "proofs_checked": 94,
    ///              "steps": 48211, "core_steps": 1204, "bytes": 190331,
    ///              "check_time_s": 0.4 },
    ///   "sat": { "restarts": 40, "db_reductions": 3, "learnts_removed": 1200,
    ///            "scope_gc_clauses": 800, "probe_units": 12, "subsumed": 30,
    ///            "strengthened": 9, "escalations": 0 },
    ///   "parallel": { "races": 2, "race_workers": 7,
    ///                 "wins": { "base": 1, "flip-reduce": 0, "invert-phase": 1,
    ///                           "no-restarts": 0, "cube": 0 },
    ///                 "cubes_total": 8, "cubes_solved": 8 },
    ///   "simplify": { "terms": 5200, "rewrites": 140, "bits_pinned": 96,
    ///                 "conjuncts_before": 210, "conjuncts_after": 180,
    ///                 "coi_dropped": 12, "statically_discharged": 2,
    ///                 "time_s": 0.05 },
    ///   "handlers": [
    ///     { "name": "sys_dup", "trap": 23, "verdict": "verified", "detail": null,
    ///       "paths": 4, "side_checks": 9, "cnf_clauses": 1042, "conflicts": 3,
    ///       "time_s": 0.2,
    ///       "phases": { "symx_s": 0.1, "encode_s": 0.05, "ack_s": 0.01,
    ///                   "bitblast_s": 0.04, "solve_s": 0.05, "queries": 6,
    ///                   "cache_hits": 5, "cache_misses": 1 },
    ///       "proof": { "unsat_queries": 6, "certified_unsat": 6, "proofs_checked": 6,
    ///                  "steps": 3120, "core_steps": 88, "bytes": 12044,
    ///                  "check_time_s": 0.02 } }
    ///   ]
    /// }
    /// ```
    ///
    /// The `proof` sections are always present; on uncertified runs
    /// every counter except `unsat_queries` is zero.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"total_time_s\": {:.6},",
            self.total_time.as_secs_f64()
        );
        let _ = writeln!(
            out,
            "  \"verified\": {},",
            self.handlers
                .iter()
                .filter(|h| h.outcome.is_verified())
                .count()
        );
        let _ = writeln!(out, "  \"total\": {},", self.handlers.len());
        let findings: Vec<String> = self
            .analysis_findings
            .iter()
            .map(|f| format!("\"{}\"", json_escape(f)))
            .collect();
        let _ = writeln!(
            out,
            "  \"analysis\": {{ \"findings\": [{}], \"loop_bounds\": {} }},",
            findings.join(", "),
            self.loop_bounds
        );
        let _ = writeln!(
            out,
            "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.6}, \"entries\": {} }},",
            self.cache_hits(),
            self.cache_misses(),
            self.cache_hit_rate(),
            self.cache_entries
        );
        let (steps, core, bytes, checked, check_time) = self.handlers.iter().fold(
            (0u64, 0u64, 0u64, 0u64, Duration::ZERO),
            |(s, c, b, n, t), h| {
                (
                    s + h.phases.proof_steps,
                    c + h.phases.proof_core_steps,
                    b + h.phases.proof_bytes,
                    n + h.phases.proofs_checked,
                    t + h.phases.proof_check_time,
                )
            },
        );
        let _ = writeln!(
            out,
            "  \"proof\": {{ \"unsat_queries\": {}, \"certified_unsat\": {}, \
             \"proofs_checked\": {checked}, \"steps\": {steps}, \"core_steps\": {core}, \
             \"bytes\": {bytes}, \"check_time_s\": {:.6} }},",
            self.unsat_queries(),
            self.certified_unsat(),
            check_time.as_secs_f64()
        );
        let sat = self.handlers.iter().fold([0u64; 8], |acc, h| {
            let p = &h.phases;
            [
                acc[0] + p.restarts,
                acc[1] + p.db_reductions,
                acc[2] + p.learnts_removed,
                acc[3] + p.scope_gc_clauses,
                acc[4] + p.probe_units,
                acc[5] + p.subsumed,
                acc[6] + p.strengthened,
                acc[7] + p.escalations,
            ]
        });
        let _ = writeln!(
            out,
            "  \"sat\": {{ \"restarts\": {}, \"db_reductions\": {}, \"learnts_removed\": {}, \
             \"scope_gc_clauses\": {}, \"probe_units\": {}, \"subsumed\": {}, \
             \"strengthened\": {}, \"escalations\": {} }},",
            sat[0], sat[1], sat[2], sat[3], sat[4], sat[5], sat[6], sat[7]
        );
        let par = self.handlers.iter().fold(
            (0u64, 0u64, [0u64; hk_smt::STRATEGY_NAMES.len()], 0u64, 0u64),
            |(r, w, mut wins, ct, cs), h| {
                let p = &h.phases;
                for (t, v) in wins.iter_mut().zip(p.race_wins.iter()) {
                    *t += v;
                }
                (
                    r + p.races,
                    w + p.race_workers,
                    wins,
                    ct + p.cubes_total,
                    cs + p.cubes_solved,
                )
            },
        );
        let wins_json: Vec<String> = hk_smt::STRATEGY_NAMES
            .iter()
            .zip(par.2.iter())
            .map(|(n, w)| format!("\"{n}\": {w}"))
            .collect();
        let _ = writeln!(
            out,
            "  \"parallel\": {{ \"races\": {}, \"race_workers\": {}, \"wins\": {{ {} }}, \
             \"cubes_total\": {}, \"cubes_solved\": {} }},",
            par.0,
            par.1,
            wins_json.join(", "),
            par.3,
            par.4
        );
        let simp = self
            .handlers
            .iter()
            .fold(([0u64; 7], Duration::ZERO), |(acc, t), h| {
                let p = &h.phases;
                (
                    [
                        acc[0] + p.simplify_terms,
                        acc[1] + p.simplify_rewrites,
                        acc[2] + p.simplify_bits_pinned,
                        acc[3] + p.simplify_conjuncts_before,
                        acc[4] + p.simplify_conjuncts_after,
                        acc[5] + p.simplify_coi_dropped,
                        acc[6] + p.statically_discharged,
                    ],
                    t + p.simplify_time,
                )
            });
        let _ = writeln!(
            out,
            "  \"simplify\": {{ \"terms\": {}, \"rewrites\": {}, \"bits_pinned\": {}, \
             \"conjuncts_before\": {}, \"conjuncts_after\": {}, \"coi_dropped\": {}, \
             \"statically_discharged\": {}, \"time_s\": {:.6} }},",
            simp.0[0],
            simp.0[1],
            simp.0[2],
            simp.0[3],
            simp.0[4],
            simp.0[5],
            simp.0[6],
            simp.1.as_secs_f64()
        );
        out.push_str("  \"handlers\": [\n");
        for (i, h) in self.handlers.iter().enumerate() {
            let (verdict, detail) = match &h.outcome {
                HandlerOutcome::Verified => ("verified", None),
                HandlerOutcome::UbBug { kind, .. } => ("ub_bug", Some(kind.as_str())),
                HandlerOutcome::RefinementBug { detail, .. } => {
                    ("refinement_bug", Some(detail.as_str()))
                }
                HandlerOutcome::SymxFailed(e) => ("symx_failed", Some(e.as_str())),
                HandlerOutcome::Unknown => ("unknown", None),
            };
            let detail_json = match detail {
                Some(d) => format!("\"{}\"", json_escape(d)),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "    {{ \"name\": \"{}\", \"trap\": {}, \"verdict\": \"{}\", \"detail\": {}, \
                 \"paths\": {}, \"side_checks\": {}, \"cnf_clauses\": {}, \"conflicts\": {}, \
                 \"time_s\": {:.6}, \"phases\": {{ \"symx_s\": {:.6}, \"encode_s\": {:.6}, \
                 \"ack_s\": {:.6}, \"bitblast_s\": {:.6}, \"solve_s\": {:.6}, \"queries\": {}, \
                 \"cache_hits\": {}, \"cache_misses\": {} }}, \
                 \"proof\": {{ \"unsat_queries\": {}, \"certified_unsat\": {}, \
                 \"proofs_checked\": {}, \"steps\": {}, \"core_steps\": {}, \"bytes\": {}, \
                 \"check_time_s\": {:.6} }}, \
                 \"sat\": {{ \"restarts\": {}, \"db_reductions\": {}, \"learnts_removed\": {}, \
                 \"scope_gc_clauses\": {}, \"probe_units\": {}, \"subsumed\": {}, \
                 \"strengthened\": {}, \"escalations\": {} }}, \
                 \"parallel\": {{ \"races\": {}, \"race_workers\": {}, \"cubes_total\": {}, \
                 \"cubes_solved\": {} }}, \
                 \"simplify\": {{ \"terms\": {}, \"rewrites\": {}, \"bits_pinned\": {}, \
                 \"conjuncts_before\": {}, \"conjuncts_after\": {}, \"coi_dropped\": {}, \
                 \"statically_discharged\": {}, \"time_s\": {:.6} }} }}",
                json_escape(h.sysno.func_name()),
                h.sysno.number(),
                verdict,
                detail_json,
                h.paths,
                h.side_checks,
                h.cnf_clauses,
                h.conflicts,
                h.time.as_secs_f64(),
                h.phases.symx_time.as_secs_f64(),
                h.phases.encode_time.as_secs_f64(),
                h.phases.ack_time.as_secs_f64(),
                h.phases.bitblast_time.as_secs_f64(),
                h.phases.solve_time.as_secs_f64(),
                h.phases.queries,
                h.phases.cache_hits,
                h.phases.cache_misses,
                h.phases.unsat_queries,
                h.phases.certified_unsat,
                h.phases.proofs_checked,
                h.phases.proof_steps,
                h.phases.proof_core_steps,
                h.phases.proof_bytes,
                h.phases.proof_check_time.as_secs_f64(),
                h.phases.restarts,
                h.phases.db_reductions,
                h.phases.learnts_removed,
                h.phases.scope_gc_clauses,
                h.phases.probe_units,
                h.phases.subsumed,
                h.phases.strengthened,
                h.phases.escalations,
                h.phases.races,
                h.phases.race_workers,
                h.phases.cubes_total,
                h.phases.cubes_solved,
                h.phases.simplify_terms,
                h.phases.simplify_rewrites,
                h.phases.simplify_bits_pinned,
                h.phases.simplify_conjuncts_before,
                h.phases.simplify_conjuncts_after,
                h.phases.simplify_coi_dropped,
                h.phases.statically_discharged,
                h.phases.simplify_time.as_secs_f64()
            );
            out.push_str(if i + 1 < self.handlers.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string for embedding in a JSON literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Verifies the kernel (Theorem 1 for every selected handler).
///
/// # Panics
///
/// Panics if the kernel image fails to build (a build error, not a
/// verification result).
pub fn verify_all(config: &VerifyConfig) -> VerifyReport {
    let image = KernelImage::build(config.params).expect("kernel build");
    verify_image(&image, config)
}

fn emit_finished(
    events: &EventSink,
    index: usize,
    total: usize,
    report: &HandlerReport,
    certify: bool,
) {
    events.emit(&VerifyEvent::HandlerFinished {
        sysno: report.sysno,
        index,
        total,
        verdict: report.verdict(),
        time: report.time,
        paths: report.paths,
        side_checks: report.side_checks,
        phases: Box::new(report.phases),
    });
    if report.phases.races > 0 {
        // Reported only when the handler actually raced: whether a
        // query races depends on spare budget capacity at the moment it
        // runs, so this event is timing-dependent by design and stays
        // out of determinism comparisons (the verdicts above do not).
        let p = &report.phases;
        events.emit(&VerifyEvent::PortfolioStarted {
            sysno: report.sysno,
            index,
            total,
            races: p.races,
            workers: p.race_workers,
            wins: p.race_wins,
            cubes_total: p.cubes_total,
            cubes_solved: p.cubes_solved,
        });
    }
    if certify {
        // In certified mode every Unsat answer must have been confirmed
        // by the independent checker (or vacuously, for trivially-false
        // queries). The solver already panics when a check *fails*; this
        // guards the accounting — an Unsat that slipped past
        // certification entirely would silently weaken the trust story.
        let p = &report.phases;
        assert_eq!(
            p.certified_unsat,
            p.unsat_queries,
            "{}: {} of {} Unsat answers left uncertified",
            report.sysno.func_name(),
            p.unsat_queries - p.certified_unsat,
            p.unsat_queries
        );
        events.emit(&VerifyEvent::HandlerCertified {
            sysno: report.sysno,
            index,
            total,
            unsat_queries: p.unsat_queries,
            certified: p.certified_unsat,
            proof_steps: p.proof_steps,
            core_steps: p.proof_core_steps,
            proof_bytes: p.proof_bytes,
            check_time: p.proof_check_time,
        });
    }
}

/// Verifies an explicit (possibly deliberately broken) kernel image —
/// the entry point the bug-injection experiments use.
pub fn verify_image(image: &KernelImage, config: &VerifyConfig) -> VerifyReport {
    let start = Instant::now();
    let shapes = shapes_of(&image.module);
    let targets: Vec<Sysno> = if config.only.is_empty() {
        Sysno::ALL.to_vec()
    } else {
        config.only.clone()
    };
    // Every handler in the run shares one cache; if the caller did not
    // provide a long-lived one, a per-run cache still lets refinement
    // batches reuse each other's verdicts.
    let mut solver_config = config.solver.clone();
    let cache = match &solver_config.cache {
        Some(c) => c.clone(),
        None => {
            let c = Arc::new(QueryCache::new(DEFAULT_CACHE_CAPACITY));
            solver_config.cache = Some(c.clone());
            c
        }
    };
    if let Some(path) = &config.cache_snapshot {
        let _ = cache.load_snapshot(path);
    }
    let events = &config.events;
    // ---- Static-analysis phase (paper's finite-interface discipline,
    // checked up front): finiteness, definite initialization, and UB
    // lints over every selected handler plus the representation
    // invariant. Findings fail the run; the proven loop bounds feed the
    // symbolic executor so it asserts unrolling limits instead of
    // probing the solver at every back edge.
    let analysis_start = Instant::now();
    let mut roots: Vec<hk_hir::FuncId> = targets.iter().map(|&s| image.handler(s)).collect();
    roots.push(image.rep_invariant);
    roots.sort_unstable();
    roots.dedup();
    events.emit(&VerifyEvent::AnalysisStarted { roots: roots.len() });
    let analysis_cfg = hk_kernel::analysis_config(&image.params);
    let analysis = hk_hir::analysis::analyze_module(&image.module, &roots, &analysis_cfg);
    let mut analysis_findings = Vec::new();
    let mut allowlisted = 0usize;
    for d in &analysis.diagnostics {
        let rendered = d.render(&image.module);
        events.emit(&VerifyEvent::AnalysisFinding {
            rendered: rendered.clone(),
            allowlisted: d.allowlisted,
        });
        if d.allowlisted {
            allowlisted += 1;
        } else {
            analysis_findings.push(rendered);
        }
    }
    events.emit(&VerifyEvent::AnalysisFinished {
        findings: analysis_findings.len(),
        allowlisted,
        loop_bounds: analysis.bounds.len(),
        time: analysis_start.elapsed(),
    });
    let bounds = analysis.bounds;
    let handler_fn = |s: Sysno| image.handler(s);
    // One core budget for the whole run, shared between the handler
    // pool and intra-query portfolio racing: handler workers hold one
    // core each while they have work and release it when their queue
    // runs dry, so late hard queries race across the freed cores. A
    // single-threaded run gets no budget and stays strictly sequential.
    let budget = if config.threads > 1 {
        Some(Arc::new(CoreBudget::new(config.threads)))
    } else {
        None
    };
    let vctx = VerifyCtx {
        module: &image.module,
        shapes: &shapes,
        params: config.params,
        handler: &handler_fn,
        rep_invariant: image.rep_invariant,
        solver: solver_config,
        symx: config.symx,
        bounds: Some(&bounds),
        budget: budget.clone(),
    };
    let total = targets.len();
    let certify = config.solver.certify;
    events.emit(&VerifyEvent::RunStarted {
        total,
        threads: config.threads.max(1),
    });
    let mut handlers: Vec<HandlerReport> = if config.threads <= 1 {
        targets
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                events.emit(&VerifyEvent::HandlerStarted {
                    sysno: s,
                    index: i,
                    total,
                });
                let r = verify_handler(&vctx, s);
                emit_finished(events, i, total, &r, certify);
                r
            })
            .collect()
    } else {
        // Work-stealing via an atomic index over the target list.
        // Finished reports land in per-index slots; whichever worker
        // completes the next-in-order slot drains it (and any ready
        // successors) while holding the lock, so events appear in
        // exactly the sequential order.
        struct Drain {
            slots: Vec<Option<HandlerReport>>,
            emitted: Vec<HandlerReport>,
            next_emit: usize,
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let drain = std::sync::Mutex::new(Drain {
            slots: (0..total).map(|_| None).collect(),
            emitted: Vec::with_capacity(total),
            next_emit: 0,
        });
        let workers = config.threads.min(total);
        // Handler workers occupy `workers` cores; whatever the budget
        // has left over (threads > targets) is immediately available to
        // query-level racing.
        if let Some(b) = &budget {
            let got = b.try_acquire(workers);
            debug_assert_eq!(got, workers);
        }
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    if i >= total {
                        // This worker is done for good: hand its core to
                        // the portfolio so still-running whales can race
                        // wider.
                        if let Some(b) = budget.as_ref() {
                            b.release(1);
                        }
                        break;
                    }
                    let report = verify_handler(&vctx, targets[i]);
                    let mut d = drain.lock().unwrap();
                    d.slots[i] = Some(report);
                    while d.next_emit < total {
                        let idx = d.next_emit;
                        let Some(r) = d.slots[idx].take() else { break };
                        events.emit(&VerifyEvent::HandlerStarted {
                            sysno: r.sysno,
                            index: idx,
                            total,
                        });
                        emit_finished(events, idx, total, &r, certify);
                        d.emitted.push(r);
                        d.next_emit += 1;
                    }
                });
            }
        });
        drain.into_inner().unwrap().emitted
    };
    handlers.sort_by_key(|h| h.sysno.number());
    if let Some(path) = &config.cache_snapshot {
        let _ = cache.save_snapshot(path);
    }
    let report = VerifyReport {
        analysis_findings,
        loop_bounds: bounds.len(),
        handlers,
        total_time: start.elapsed(),
        cache: cache.stats(),
        cache_entries: cache.len(),
    };
    events.emit(&VerifyEvent::RunFinished {
        verified: report
            .handlers
            .iter()
            .filter(|h| h.outcome.is_verified())
            .count(),
        total,
        total_time: report.total_time,
        cache: report.cache,
    });
    report
}

//! Intra-query parallel solving: portfolio racing and cube-and-conquer.
//!
//! The driver already spreads *handlers* across threads; this module
//! spends idle cores *inside* a single hard query:
//!
//! * **Portfolio racing** — a query that survives a bounded probe solve
//!   (the conflict threshold) is handed to 2–4 cloned solvers with
//!   deliberately diverse heuristics (LBD vs activity reduction,
//!   inverted phase, no restarts). The first worker to reach a verdict
//!   wins; the rest observe a shared cancel flag, checked once per CDCL
//!   loop round, and stand down. The winning solver — proof stream,
//!   learnt clauses, phases and all — replaces the caller's solver, so
//!   an incremental session continues from the winner's state and a
//!   certified run re-checks the winner's own DRAT stream. Workers
//!   exchange no clauses, so each proof stream is its worker's own
//!   complete derivation.
//! * **Cube-and-conquer** — part of the worker pool splits the query on
//!   the probe's top-activity (VSIDS) variables into `2^k` cubes and
//!   solves them as independent assumption jobs pulled from a shared
//!   work queue. Any Sat cube answers the query; all cubes Unsat
//!   refutes it. Under certification each cube's conclusion is a
//!   prefix of its worker's proof stream and is checked per cube
//!   (see `Solver::certify_cubes`).
//!
//! Parallelism is budgeted: racing only happens when a [`CoreBudget`]
//! (shared with the driver's handler-level thread pool) has spare
//! cores, so query-level and handler-level parallelism never
//! oversubscribe the machine.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::sat::{SatOutcome, SatSolver};

/// A machine-wide core budget shared between handler-level workers and
/// query-level portfolio racing. Handler threads hold one core each and
/// release it when they run out of work; a racing query opportunistically
/// grabs whatever is spare and returns it when the race ends.
#[derive(Debug)]
pub struct CoreBudget {
    spare: AtomicUsize,
}

impl CoreBudget {
    /// A budget with `total` cores available.
    pub fn new(total: usize) -> CoreBudget {
        CoreBudget {
            spare: AtomicUsize::new(total),
        }
    }

    /// Acquires up to `want` cores, returning how many were actually
    /// obtained (possibly zero). Never blocks.
    pub fn try_acquire(&self, want: usize) -> usize {
        let mut cur = self.spare.load(Ordering::Relaxed);
        loop {
            let take = cur.min(want);
            if take == 0 {
                return 0;
            }
            match self.spare.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns `n` cores to the budget.
    pub fn release(&self, n: usize) {
        self.spare.fetch_add(n, Ordering::AcqRel);
    }

    /// Cores currently spare (advisory; may change immediately).
    pub fn available(&self) -> usize {
        self.spare.load(Ordering::Relaxed)
    }
}

/// Portfolio strategy labels, indexed by the strategy id recorded in
/// [`RaceReport::winner`] and the `race_wins` stats arrays.
pub const STRATEGY_NAMES: [&str; 5] =
    ["base", "flip-reduce", "invert-phase", "no-restarts", "cube"];

const STRAT_BASE: usize = 0;
const STRAT_CUBE: usize = 4;

/// Query-level parallelism knobs (see `SolverConfig.parallel`).
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Maximum solver workers racing one query (including the caller's
    /// own core). `0` or `1` disables intra-query parallelism.
    pub workers: usize,
    /// Conflicts granted to the sequential probe before a query is
    /// declared hard and raced. `0` races every query (test use).
    pub conflict_threshold: u64,
    /// Split hard queries on this many top-VSIDS variables into `2^k`
    /// cube jobs; `0` disables cube-and-conquer.
    pub cube_split_vars: u32,
    /// Make every worker a cube solver (no config racers). Diagnostic
    /// knob for deterministically exercising the cube path in tests.
    pub cube_only: bool,
    /// The shared core budget. `None` disables racing entirely — the
    /// budget is how the driver tells the solver that spare cores may
    /// exist at all.
    pub budget: Option<Arc<CoreBudget>>,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 4,
            conflict_threshold: 30_000,
            cube_split_vars: 3,
            cube_only: false,
            budget: None,
        }
    }
}

/// One cube's certification payload: its worker's full proof stream,
/// the byte length of the stream when the cube concluded (the prefix up
/// to and including the cube's final lemma is itself a complete,
/// checkable DRAT stream), the cube literals, and the failed-assumption
/// set the conclusion claims.
#[derive(Debug, Clone)]
pub struct CubeCert {
    /// The cube worker's proof stream (shared across its cubes).
    pub proof: Arc<Vec<u8>>,
    /// Stream length at this cube's conclusion.
    pub prefix: usize,
    /// The cube's assumption literals.
    pub cube: Vec<i32>,
    /// Failed assumptions reported for this cube (subset of the query
    /// assumptions plus the cube literals).
    pub failed: Vec<i32>,
}

/// What one (possibly raced) solve did, for stats and certification.
#[derive(Debug, Clone, Default)]
pub struct RaceReport {
    /// Whether a portfolio race actually ran.
    pub raced: bool,
    /// Workers in the race (0 when not raced).
    pub workers: u64,
    /// Winning strategy index into [`STRATEGY_NAMES`], if any worker
    /// reached a verdict.
    pub winner: Option<usize>,
    /// Cube jobs generated (0 unless a cube team ran).
    pub cubes_total: u64,
    /// Cube jobs that reached a verdict.
    pub cubes_solved: u64,
    /// Per-cube proof payloads, present only when a cube team won an
    /// Unsat race with proof logging on.
    pub cube_certs: Vec<CubeCert>,
}

/// What one worker brought back from the race.
struct WorkerOut {
    strat: usize,
    solver: SatSolver,
    /// `(proof_prefix_len, cube, failed)` per concluded Unsat cube.
    cube_concls: Vec<(usize, Vec<i32>, Vec<i32>)>,
}

/// A diverse heuristic variant of `base` for strategy `strat`.
fn variant_config(base: &crate::sat::SatConfig, strat: usize) -> crate::sat::SatConfig {
    use crate::sat::ReduceStrategy;
    let mut c = base.clone();
    match strat {
        1 => {
            // Flip the clause-DB reduction policy: LBD and activity
            // keep very different clause populations alive.
            c.reduce_strategy = match c.reduce_strategy {
                ReduceStrategy::Lbd => ReduceStrategy::Activity,
                ReduceStrategy::Activity => ReduceStrategy::Lbd,
            };
        }
        2 => {
            // Invert the default phase and restart more aggressively:
            // drives the search into the complementary half of the
            // assignment space.
            c.default_phase = !c.default_phase;
            c.restart_base = (c.restart_base / 2).max(10);
        }
        3 => {
            // No restarts: deep dives win on some refutations that
            // restart-heavy configs keep abandoning.
            c.restarts = false;
        }
        _ => {}
    }
    c
}

/// Builds the `2^k` cube assumption sets from the probe-warmed solver's
/// top-activity variables (assumption variables excluded). Returns an
/// empty list when no split variables are available.
fn make_cubes(sat: &SatSolver, assumptions: &[i32], k: u32) -> Vec<Vec<i32>> {
    let skip: Vec<u32> = assumptions.iter().map(|l| l.unsigned_abs()).collect();
    let k = k.min(6) as usize; // 64 cubes is already far past useful
    let vars = sat.top_activity_vars(k, &skip);
    if vars.is_empty() {
        return Vec::new();
    }
    let n = vars.len();
    (0..(1usize << n))
        .map(|m| {
            vars.iter()
                .enumerate()
                .map(|(i, &v)| {
                    if (m >> i) & 1 == 1 {
                        v as i32
                    } else {
                        -(v as i32)
                    }
                })
                .collect()
        })
        .collect()
}

/// Solves under `assumptions`, racing a portfolio when the query proves
/// hard and the core budget has spare capacity. On return the caller's
/// solver is the winning worker (or the base worker after an
/// all-Unknown race), with its cancel flag cleared.
pub fn solve_maybe_racing(
    sat: &mut SatSolver,
    assumptions: &[i32],
    cfg: &ParallelConfig,
) -> (SatOutcome, RaceReport) {
    let no_race = RaceReport::default();
    let Some(budget) = cfg.budget.as_ref() else {
        return (sat.solve_with_assumptions(assumptions), no_race);
    };
    if cfg.workers < 2 {
        return (sat.solve_with_assumptions(assumptions), no_race);
    }
    // Sequential probe under a bounded conflict budget: cheap queries
    // never pay for cloning, and the probe warms the VSIDS activity
    // that cube splitting reads.
    let full_budget = sat.config().max_conflicts;
    if cfg.conflict_threshold > 0 {
        let probe = match full_budget {
            Some(b) => b.min(cfg.conflict_threshold),
            None => cfg.conflict_threshold,
        };
        sat.set_max_conflicts(Some(probe));
        let out = sat.solve_with_assumptions(assumptions);
        sat.set_max_conflicts(full_budget);
        if out != SatOutcome::Unknown {
            return (out, no_race);
        }
    }
    let extra = budget.try_acquire(cfg.workers.saturating_sub(1));
    if extra == 0 {
        // No spare cores: resume sequentially (probe learnts are kept).
        return (sat.solve_with_assumptions(assumptions), no_race);
    }
    let n = extra + 1;
    // Strategy assignment. Worker 0 continues the base config; with a
    // cube split the tail workers form the cube team; the middle cycles
    // through the heuristic variants.
    let cubes: Vec<Vec<i32>> = if cfg.cube_split_vars > 0 {
        make_cubes(sat, assumptions, cfg.cube_split_vars)
    } else {
        Vec::new()
    };
    let mut strategies: Vec<usize> = Vec::with_capacity(n);
    if cfg.cube_only && !cubes.is_empty() {
        strategies.resize(n, STRAT_CUBE);
    } else {
        let cube_workers = if cubes.is_empty() {
            0
        } else if n >= 4 {
            n - 3
        } else {
            1
        };
        strategies.push(STRAT_BASE);
        for i in 1..n.saturating_sub(cube_workers) {
            strategies.push(1 + (i - 1) % 3);
        }
        strategies.resize(n, STRAT_CUBE);
    }
    let has_cube_team = strategies.contains(&STRAT_CUBE);
    let proof_on = sat.proof().is_some();
    let cancel = Arc::new(AtomicBool::new(false));
    let winner: Mutex<Option<(usize, SatOutcome)>> = Mutex::new(None);
    let next_cube = AtomicUsize::new(0);
    let cubes_unsat = AtomicUsize::new(0);
    let cubes_solved = AtomicU64::new(0);
    let claim = |idx: usize, out: SatOutcome| -> bool {
        let mut w = winner.lock().unwrap();
        if w.is_none() {
            *w = Some((idx, out));
            cancel.store(true, Ordering::SeqCst);
            true
        } else {
            false
        }
    };
    let mut outs: Vec<Option<WorkerOut>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (idx, &strat) in strategies.iter().enumerate() {
            let mut w = sat.clone();
            if strat != STRAT_BASE && strat != STRAT_CUBE {
                *w.config_mut() = variant_config(sat.config(), strat);
            }
            w.set_cancel(Some(cancel.clone()));
            let cubes = &cubes;
            let claim = &claim;
            let next_cube = &next_cube;
            let cubes_unsat = &cubes_unsat;
            let cubes_solved = &cubes_solved;
            let cancel = &cancel;
            handles.push(scope.spawn(move || {
                if strat != STRAT_CUBE {
                    let outcome = w.solve_with_assumptions(assumptions);
                    if outcome != SatOutcome::Unknown {
                        claim(idx, outcome);
                    }
                    return WorkerOut {
                        strat,
                        solver: w,
                        cube_concls: Vec::new(),
                    };
                }
                // Cube worker: pull jobs until the queue is dry, a
                // verdict is reached, or the budget runs out.
                let mut concls = Vec::new();
                loop {
                    if cancel.load(Ordering::Relaxed) {
                        break;
                    }
                    let ci = next_cube.fetch_add(1, Ordering::SeqCst);
                    if ci >= cubes.len() {
                        break;
                    }
                    let mut a = assumptions.to_vec();
                    a.extend_from_slice(&cubes[ci]);
                    match w.solve_with_assumptions(&a) {
                        SatOutcome::Sat => {
                            // Any satisfied cube satisfies the query.
                            cubes_solved.fetch_add(1, Ordering::Relaxed);
                            claim(idx, SatOutcome::Sat);
                            break;
                        }
                        SatOutcome::Unsat => {
                            cubes_solved.fetch_add(1, Ordering::Relaxed);
                            if let Some(pr) = w.proof() {
                                concls.push((
                                    pr.byte_len(),
                                    cubes[ci].clone(),
                                    w.failed_assumptions().to_vec(),
                                ));
                            }
                            if !w.is_ok() {
                                // Refuted independently of assumptions:
                                // the whole query is Unsat outright.
                                claim(idx, SatOutcome::Unsat);
                                break;
                            }
                            let done = cubes_unsat.fetch_add(1, Ordering::SeqCst) + 1;
                            if done == cubes.len() {
                                // Every cube refuted: the team wins.
                                claim(idx, SatOutcome::Unsat);
                                break;
                            }
                        }
                        SatOutcome::Unknown => break, // cancelled or out of budget
                    }
                }
                WorkerOut {
                    strat,
                    solver: w,
                    cube_concls: concls,
                }
            }));
        }
        for h in handles {
            outs.push(Some(h.join().expect("portfolio worker panicked")));
        }
    });
    budget.release(extra);
    let decided = winner.into_inner().unwrap();
    let mut report = RaceReport {
        raced: true,
        workers: n as u64,
        winner: None,
        cubes_total: if has_cube_team { cubes.len() as u64 } else { 0 },
        cubes_solved: cubes_solved.load(Ordering::Relaxed),
        cube_certs: Vec::new(),
    };
    let outcome = match decided {
        Some((widx, out)) => {
            let strat = outs[widx].as_ref().expect("winner present").strat;
            report.winner = Some(strat);
            if strat == STRAT_CUBE && out == SatOutcome::Unsat && proof_on {
                // Collect every cube worker's conclusions (the refutation
                // is distributed across the team, not just the claimant).
                for w in outs.iter().flatten() {
                    if w.strat != STRAT_CUBE || w.cube_concls.is_empty() {
                        continue;
                    }
                    let bytes = Arc::new(
                        w.solver
                            .proof()
                            .map(|p| p.bytes().to_vec())
                            .unwrap_or_default(),
                    );
                    for (prefix, cube, failed) in &w.cube_concls {
                        report.cube_certs.push(CubeCert {
                            proof: bytes.clone(),
                            prefix: *prefix,
                            cube: cube.clone(),
                            failed: failed.clone(),
                        });
                    }
                }
            }
            *sat = outs[widx].take().expect("winner present").solver;
            out
        }
        None => {
            // Every worker exhausted its budget. Keep the base worker's
            // state (its learnts feed a possible escalation retry).
            let base = strategies
                .iter()
                .position(|&s| s == STRAT_BASE)
                .unwrap_or(0);
            *sat = outs[base].take().expect("base present").solver;
            SatOutcome::Unknown
        }
    };
    // The written-back solver must not keep a stale cancel flag: it is
    // set, and a later solve would instantly return Unknown.
    sat.set_cancel(None);
    (outcome, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_acquire_release() {
        let b = CoreBudget::new(4);
        assert_eq!(b.try_acquire(3), 3);
        assert_eq!(b.available(), 1);
        assert_eq!(b.try_acquire(3), 1);
        assert_eq!(b.try_acquire(1), 0);
        b.release(2);
        assert_eq!(b.try_acquire(5), 2);
        b.release(4);
        assert_eq!(b.available(), 4);
    }

    #[test]
    fn strategy_variants_differ_from_base() {
        let base = crate::sat::SatConfig::default();
        let flip = variant_config(&base, 1);
        assert_ne!(flip.reduce_strategy, base.reduce_strategy);
        let phase = variant_config(&base, 2);
        assert_ne!(phase.default_phase, base.default_phase);
        let norestart = variant_config(&base, 3);
        assert!(!norestart.restarts);
    }
}

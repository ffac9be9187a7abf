//! Tests for intra-query parallel solving: portfolio racing,
//! cube-and-conquer, cancellation hygiene, and stats attribution under
//! races.
//!
//! * **Race-vs-sequential differential**: randomized CNF instances are
//!   solved sequentially and by a forced 4-way race (conflict threshold
//!   zero, spare budget); verdicts must agree, Sat models must satisfy
//!   the instance, and every Unsat must certify — whole winning stream
//!   for config winners, per-cube stream prefixes with an exhaustive
//!   sign-cover check for cube winners.
//! * **Cancellation hygiene**: a solver with a pre-set cancel flag
//!   returns `Unknown` without burning the conflict budget; a flag
//!   raised mid-solve on a hard pigeonhole instance stops the solver
//!   promptly; detaching the flag restores normal solving.
//! * **Stats hygiene**: on the term-level `Solver`, lifetime totals
//!   absorb each raced check exactly once — `checks` counts `check`
//!   calls and the race counters in `totals` equal the sum of the
//!   per-call deltas, so no worker's counters are merged twice.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::XorShift64;
use hk_proof::check_proof;
use hk_smt::parallel::{solve_maybe_racing, CubeCert, ParallelConfig, RaceReport};
use hk_smt::sat::SatOutcome;
use hk_smt::{
    CmpOp, CoreBudget, Ctx, SatConfig, SatResult, SatSolver, Solver, SolverConfig, Sort,
    STRATEGY_NAMES,
};

/// A random CNF instance around the 3-SAT hardness ratio (same shape as
/// the CDCL differential suite) so both verdicts occur across seeds.
fn random_cnf(rng: &mut XorShift64, nvars: u64, nclauses: u64) -> Vec<Vec<i32>> {
    let mut clauses = Vec::with_capacity(nclauses as usize);
    for _ in 0..nclauses {
        let len = if rng.chance(1, 4) { 2 } else { 3 };
        let mut clause = Vec::with_capacity(len);
        while clause.len() < len {
            let v = rng.below(nvars) as i32 + 1;
            let lit = if rng.chance(1, 2) { v } else { -v };
            if !clause.contains(&lit) && !clause.contains(&-lit) {
                clause.push(lit);
            }
        }
        clauses.push(clause);
    }
    clauses
}

fn model_satisfies(s: &SatSolver, clauses: &[Vec<i32>]) -> bool {
    clauses.iter().all(|c| {
        c.iter()
            .any(|&l| s.model_value(l.unsigned_abs()) == (l > 0))
    })
}

/// The pigeonhole principle PHP(pigeons, holes): unsatisfiable when
/// `pigeons > holes`, and exponentially hard for resolution/CDCL, which
/// makes it a reliable "will not finish in milliseconds" instance.
fn pigeonhole(pigeons: i32, holes: i32) -> (u32, Vec<Vec<i32>>) {
    let p = |i: i32, j: i32| i * holes + j + 1;
    let mut clauses = Vec::new();
    for i in 0..pigeons {
        clauses.push((0..holes).map(|j| p(i, j)).collect());
    }
    for j in 0..holes {
        for i in 0..pigeons {
            for i2 in (i + 1)..pigeons {
                clauses.push(vec![-p(i, j), -p(i2, j)]);
            }
        }
    }
    ((pigeons * holes) as u32, clauses)
}

fn load(clauses: &[Vec<i32>], proof: bool) -> SatSolver {
    let mut s = SatSolver::with_config(SatConfig::default());
    if proof {
        s.start_proof();
    }
    for c in clauses {
        if !s.add_clause(c) {
            break;
        }
    }
    s
}

/// A parallel config that forces a race on every query: no probe
/// threshold and a budget with spare cores.
fn forced_race(cores: usize) -> ParallelConfig {
    ParallelConfig {
        workers: 4,
        conflict_threshold: 0,
        cube_split_vars: 2,
        budget: Some(Arc::new(CoreBudget::new(cores))),
        ..ParallelConfig::default()
    }
}

/// Checks the per-cube certification payload of a cube-team Unsat win:
/// every recorded conclusion must be a checkable DRAT stream prefix
/// whose final clause negates the failed assumptions, and unless some
/// cube refuted the inputs outright, the solved cubes must exhaustively
/// cover all `2^k` sign combinations of one variable set.
fn verify_cube_certs(certs: &[CubeCert], report: &RaceReport, case: u64) {
    assert!(!certs.is_empty(), "case {case}: cube win without certs");
    let mut globally_refuted = false;
    let mut cube_vars: Vec<Vec<i32>> = Vec::new();
    let mut distinct: Vec<Vec<i32>> = Vec::new();
    for cert in certs {
        let out = check_proof(&cert.proof[..cert.prefix])
            .unwrap_or_else(|e| panic!("case {case}: cube proof prefix rejected: {e}"));
        for &f in &cert.failed {
            assert!(
                cert.cube.contains(&f),
                "case {case}: failed literal {f} is not a cube literal"
            );
        }
        let mut want: Vec<i32> = cert.failed.iter().map(|&l| -l).collect();
        want.sort_unstable();
        want.dedup();
        if out.final_clause.is_empty() {
            globally_refuted = true;
        } else {
            assert_eq!(
                out.final_clause, want,
                "case {case}: cube conclusion does not negate its failed assumptions"
            );
        }
        let mut vars: Vec<i32> = cert.cube.iter().map(|l| l.abs()).collect();
        vars.sort_unstable();
        cube_vars.push(vars);
        let mut cube = cert.cube.clone();
        cube.sort_unstable();
        if !distinct.contains(&cube) {
            distinct.push(cube);
        }
    }
    if !globally_refuted {
        // Exhaustive cover: one split-variable set, all 2^k cubes.
        assert!(
            cube_vars.windows(2).all(|w| w[0] == w[1]),
            "case {case}: cubes split on different variable sets"
        );
        assert_eq!(
            distinct.len() as u64,
            report.cubes_total,
            "case {case}: solved cubes do not cover the full sign expansion"
        );
        assert_eq!(
            1u64 << cube_vars[0].len(),
            report.cubes_total,
            "case {case}: cube count is not 2^k"
        );
    }
}

/// Certifies a raced Unsat: per-cube prefixes for a cube-team win, the
/// winner's whole stream otherwise.
fn certify_raced_unsat(sat: &SatSolver, report: &RaceReport, case: u64) {
    if report.cube_certs.is_empty() {
        let proof = sat.proof().expect("proof logging was started");
        let out = check_proof(proof.bytes())
            .unwrap_or_else(|e| panic!("case {case}: winner proof rejected: {e}"));
        assert!(
            out.final_clause.is_empty(),
            "case {case}: refutation did not conclude the empty clause"
        );
    } else {
        verify_cube_certs(&report.cube_certs, report, case);
    }
}

/// Forced races must agree with the sequential verdict on randomized
/// instances, and every raced Unsat must certify via the independent
/// proof checker — whichever strategy wins.
#[test]
fn racing_agrees_with_sequential_and_certifies() {
    let mut rng = XorShift64::new(0x007a_11e7);
    let mut raced_at_least_once = false;
    let mut cube_wins = 0u64;
    for case in 0..12 {
        let nvars = 24 + rng.below(16);
        let nclauses = nvars * 4 + rng.below(nvars);
        let clauses = random_cnf(&mut rng, nvars, nclauses);

        let mut seq = load(&clauses, false);
        let want = seq.solve();
        assert_ne!(want, SatOutcome::Unknown, "case {case}: baseline Unknown");

        let mut sat = load(&clauses, true);
        let cfg = forced_race(8);
        let (got, report) = solve_maybe_racing(&mut sat, &[], &cfg);
        assert_eq!(got, want, "case {case}: raced verdict disagrees");
        assert!(report.raced, "case {case}: race did not start");
        assert!(report.workers >= 2, "case {case}: race ran solo");
        raced_at_least_once = true;
        match got {
            SatOutcome::Sat => assert!(
                model_satisfies(&sat, &clauses),
                "case {case}: raced model does not satisfy the instance"
            ),
            SatOutcome::Unsat => {
                certify_raced_unsat(&sat, &report, case);
                if report.winner == Some(STRATEGY_NAMES.len() - 1) {
                    cube_wins += 1;
                }
            }
            SatOutcome::Unknown => unreachable!(),
        }

        // The winner was written back with its parallel hooks detached:
        // a repeat solve on the same solver must reproduce the verdict
        // instead of tripping a stale cancel flag.
        assert_eq!(sat.solve(), want, "case {case}: post-race re-solve broke");
    }
    assert!(raced_at_least_once);
    let _ = cube_wins; // timing-dependent; any split of wins is fine
}

/// The cube-only diagnostic mode must refute an unsatisfiable instance
/// through the cube team and produce a full per-cube certification
/// payload (exhaustive sign cover or an outright refutation).
#[test]
fn cube_only_unsat_race_is_certified() {
    let (_, clauses) = pigeonhole(6, 5);
    let mut sat = load(&clauses, true);
    let cfg = ParallelConfig {
        cube_only: true,
        cube_split_vars: 2,
        workers: 3,
        ..forced_race(4)
    };
    let (got, report) = solve_maybe_racing(&mut sat, &[], &cfg);
    assert_eq!(got, SatOutcome::Unsat);
    assert!(report.raced);
    assert_eq!(
        report.winner,
        Some(STRATEGY_NAMES.len() - 1),
        "cube-only race must be won by the cube strategy"
    );
    assert!(report.cubes_total >= 1);
    assert!(report.cubes_solved >= 1);
    verify_cube_certs(&report.cube_certs, &report, 0);
}

/// A solver whose cancel flag is already set answers `Unknown` within
/// its first restart interval (the flag is polled once per CDCL round),
/// and a lowered or detached flag restores normal solving.
#[test]
fn preset_cancel_flag_stops_within_first_round() {
    // Far beyond the solver's reach, so search cannot finish before the
    // first cancel poll.
    let (_, hard) = pigeonhole(12, 11);
    let mut s = load(&hard, false);
    let flag = Arc::new(AtomicBool::new(true));
    s.set_cancel(Some(flag.clone()));
    let start = Instant::now();
    assert_eq!(s.solve(), SatOutcome::Unknown);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "preset cancel took {:?}",
        start.elapsed()
    );

    // A lowered flag never trips; detaching works the same way.
    let mut rng = XorShift64::new(0xc0ffee);
    let clauses = random_cnf(&mut rng, 30, 126);
    let mut s = load(&clauses, false);
    s.set_cancel(Some(flag.clone()));
    flag.store(false, Ordering::SeqCst);
    let first = s.solve();
    assert_ne!(first, SatOutcome::Unknown);
    s.set_cancel(None);
    assert_eq!(s.solve(), first);
}

/// A cancel flag raised mid-solve stops a worker within one CDCL round:
/// on a pigeonhole instance far beyond the solver's reach, the verdict
/// is `Unknown` long before the instance could possibly be solved.
#[test]
fn cancellation_mid_solve_is_prompt() {
    let (_, clauses) = pigeonhole(12, 11);
    let mut s = load(&clauses, false);
    let flag = Arc::new(AtomicBool::new(false));
    s.set_cancel(Some(flag.clone()));

    let start = Instant::now();
    let canceller = {
        let flag = flag.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            flag.store(true, Ordering::SeqCst);
        })
    };
    let out = s.solve();
    canceller.join().unwrap();
    assert_eq!(
        out,
        SatOutcome::Unknown,
        "cancelled solve must answer Unknown"
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "solver ignored the cancel flag for {:?}",
        start.elapsed()
    );
}

/// Term-level stats hygiene under racing: every `check` is absorbed
/// into the lifetime totals exactly once — `totals.checks` counts the
/// calls, and the race counters in the totals equal the sum of the
/// per-call deltas, so no losing worker's counters leak in twice.
#[test]
fn raced_checks_keep_stats_hygiene() {
    let mut ctx = Ctx::new();
    let x = ctx.var("x", Sort::Bv(8));
    let y = ctx.var("y", Sort::Bv(8));

    let config = SolverConfig {
        certify: true,
        parallel: forced_race(4),
        ..SolverConfig::default()
    };
    let mut s = Solver::with_config(config);
    let mut seq = Solver::with_config(SolverConfig {
        certify: true,
        ..SolverConfig::default()
    });

    let ne = ctx.ne(x, y);
    let eq = ctx.eq(x, y);
    let xy = ctx.cmp(CmpOp::Ult, x, y);
    let yx = ctx.cmp(CmpOp::Ult, y, x);

    let mut checks = 0u64;
    let mut races = 0u64;
    let mut race_workers = 0u64;
    let mut wins = 0u64;
    let mut cubes_solved = 0u64;
    let mut run = |s: &mut Solver, seq: &mut Solver, ctx: &mut Ctx, sat: bool| {
        let got = s.check(ctx);
        let want = seq.check(ctx);
        match (&got, &want, sat) {
            (SatResult::Sat(_), SatResult::Sat(_), true) => {}
            (SatResult::Unsat, SatResult::Unsat, false) => {}
            _ => panic!("raced check disagrees with sequential (expected sat={sat})"),
        }
        checks += 1;
        races += s.stats.races;
        race_workers += s.stats.race_workers;
        wins += s.stats.race_wins.iter().sum::<u64>();
        cubes_solved += s.stats.cubes_solved;
    };

    s.assert(&mut ctx, ne);
    seq.assert(&mut ctx, ne);
    run(&mut s, &mut seq, &mut ctx, true);

    s.push();
    seq.push();
    s.assert(&mut ctx, eq);
    seq.assert(&mut ctx, eq);
    run(&mut s, &mut seq, &mut ctx, false);
    s.pop();
    seq.pop();

    s.push();
    seq.push();
    s.assert(&mut ctx, xy);
    seq.assert(&mut ctx, xy);
    s.assert(&mut ctx, yx);
    seq.assert(&mut ctx, yx);
    run(&mut s, &mut seq, &mut ctx, false);
    s.pop();
    seq.pop();

    assert_eq!(
        s.totals.checks, checks,
        "totals.checks must count check calls"
    );
    assert_eq!(
        s.totals.races, races,
        "race totals != sum of per-call deltas"
    );
    assert_eq!(s.totals.race_workers, race_workers);
    assert_eq!(s.totals.race_wins.iter().sum::<u64>(), wins);
    assert_eq!(s.totals.cubes_solved, cubes_solved);
    assert!(races >= 1, "forced-race config never raced");
    assert!(wins <= races, "more race wins than races");
    assert!(
        race_workers >= 2 * races,
        "every race must involve at least two workers"
    );
    // Sequential mirror never races.
    assert_eq!(seq.totals.races, 0);
}

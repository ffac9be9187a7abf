//! Differential testing of the word-level static-analysis pass.
//!
//! Two obligations, checked on randomly generated term DAGs biased
//! toward the constructs the pass reasons hardest about (`Ite`,
//! `Extract`, `Concat`, shifts), and on equalities that would rewrite
//! each other (`x = y ∧ x = c`, `x = y ∧ y = x`, `x = t(y) ∧ y = s(x)`):
//!
//! * **Eval agreement**: `analysis::simplify_query` only rewrites a
//!   conjunct using facts implied by the *other* conjuncts, so on any
//!   assignment satisfying the whole original set, every rewritten
//!   conjunct must evaluate exactly like its original. (On assignments
//!   falsifying some original the sets may legitimately differ — the
//!   guarantee is conjunction-level equivalence, not term-level.)
//! * **Verdict equality**: the full solver must answer identically in
//!   the oneshot pipeline with the pass on and off and in the
//!   incremental pipeline (which does not run the pass), across 1/2
//!   worker configurations, and every Unsat under `certify` must come
//!   back with a checked DRAT proof (`StaticallyDischarged` never
//!   escapes a certified run).
//!
//! Everything runs on the vendored PRNG — no network, no external
//! crates.

mod common;

use std::sync::Arc;

use common::XorShift64;
use hk_smt::analysis::{self, SimplifyOutcome};
use hk_smt::eval::{eval_bool, Assignment, Value};
use hk_smt::term::TermData;
use hk_smt::{
    BvBinOp, CmpOp, CoreBudget, Ctx, ParallelConfig, SatResult, Solver, SolverConfig, Sort, TermId,
    VarId,
};

const WIDTH: u32 = 8;

struct Vocab {
    bv_vars: Vec<(TermId, VarId)>,
    bool_var: (TermId, VarId),
}

fn vocab(ctx: &mut Ctx) -> Vocab {
    let var_id = |ctx: &Ctx, t: TermId| match ctx.data(t) {
        TermData::Var(v) => *v,
        _ => unreachable!("fresh var"),
    };
    let x = ctx.var("x", Sort::Bv(WIDTH));
    let y = ctx.var("y", Sort::Bv(WIDTH));
    let b = ctx.var("b", Sort::Bool);
    Vocab {
        bv_vars: vec![(x, var_id(ctx, x)), (y, var_id(ctx, y))],
        bool_var: (b, var_id(ctx, b)),
    }
}

const BIN_OPS: [BvBinOp; 11] = [
    BvBinOp::Add,
    BvBinOp::Sub,
    BvBinOp::Mul,
    BvBinOp::Udiv,
    BvBinOp::Urem,
    BvBinOp::And,
    BvBinOp::Or,
    BvBinOp::Xor,
    BvBinOp::Shl,
    BvBinOp::Lshr,
    BvBinOp::Ashr,
];

/// Bit-vector generator biased (cases 4–6) toward the width-changing
/// and branching operators the abstract domains track through.
fn gen_bv(ctx: &mut Ctx, rng: &mut XorShift64, v: &Vocab, depth: u32) -> TermId {
    if depth == 0 {
        return if rng.chance(1, 2) {
            v.bv_vars[rng.below(v.bv_vars.len() as u64) as usize].0
        } else {
            let c = rng.below(1 << WIDTH);
            ctx.bv_const(WIDTH, c)
        };
    }
    match rng.below(8) {
        0 => {
            let c = rng.below(1 << WIDTH);
            ctx.bv_const(WIDTH, c)
        }
        1 => v.bv_vars[rng.below(v.bv_vars.len() as u64) as usize].0,
        2 | 3 => {
            let op = BIN_OPS[rng.below(BIN_OPS.len() as u64) as usize];
            let a = gen_bv(ctx, rng, v, depth - 1);
            let b = gen_bv(ctx, rng, v, depth - 1);
            ctx.bv_bin(op, a, b)
        }
        4 => {
            let c = gen_bool(ctx, rng, v, depth - 1);
            let t = gen_bv(ctx, rng, v, depth - 1);
            let e = gen_bv(ctx, rng, v, depth - 1);
            ctx.ite(c, t, e)
        }
        5 => {
            // Extract a random proper sub-range, then pad back to WIDTH
            // so the vocabulary stays single-width.
            let a = gen_bv(ctx, rng, v, depth - 1);
            let lo = rng.below(u64::from(WIDTH) - 1) as u32;
            let hi = lo + rng.below(u64::from(WIDTH - 1 - lo)) as u32;
            let ex = ctx.extract(a, hi, lo);
            if rng.chance(1, 2) {
                ctx.zext(ex, WIDTH)
            } else {
                ctx.sext(ex, WIDTH)
            }
        }
        6 => {
            // Concat two halves back to WIDTH bits.
            let a = gen_bv(ctx, rng, v, depth - 1);
            let b = gen_bv(ctx, rng, v, depth - 1);
            let hi = ctx.extract(a, WIDTH - 1, WIDTH / 2);
            let lo = ctx.extract(b, WIDTH / 2 - 1, 0);
            ctx.concat(hi, lo)
        }
        _ => {
            let a = gen_bv(ctx, rng, v, depth - 1);
            ctx.bv_not(a)
        }
    }
}

fn gen_bool(ctx: &mut Ctx, rng: &mut XorShift64, v: &Vocab, depth: u32) -> TermId {
    if depth == 0 {
        return if rng.chance(1, 2) {
            v.bool_var.0
        } else {
            let b = rng.chance(1, 2);
            ctx.bool_const(b)
        };
    }
    match rng.below(6) {
        0 => {
            let ops = [CmpOp::Ult, CmpOp::Ule, CmpOp::Slt, CmpOp::Sle];
            let op = ops[rng.below(4) as usize];
            let a = gen_bv(ctx, rng, v, depth - 1);
            let b = gen_bv(ctx, rng, v, depth - 1);
            ctx.cmp(op, a, b)
        }
        1 => {
            let a = gen_bv(ctx, rng, v, depth - 1);
            let b = gen_bv(ctx, rng, v, depth - 1);
            if rng.chance(1, 2) {
                ctx.eq(a, b)
            } else {
                ctx.ne(a, b)
            }
        }
        2 => {
            let a = gen_bool(ctx, rng, v, depth - 1);
            let b = gen_bool(ctx, rng, v, depth - 1);
            ctx.and(&[a, b])
        }
        3 => {
            let a = gen_bool(ctx, rng, v, depth - 1);
            let b = gen_bool(ctx, rng, v, depth - 1);
            ctx.or(&[a, b])
        }
        4 => {
            let a = gen_bool(ctx, rng, v, depth - 1);
            ctx.not(a)
        }
        _ => v.bool_var.0,
    }
}

/// Two equalities that each rewrite the other when both are harvested
/// as facts — `x = y ∧ x = c`, `x = y ∧ y = x`, or `x = t(y) ∧ y = s(x)`
/// (variables in random order, each equality in random orientation) —
/// plus the constants they mention, where their models tend to lie.
fn gen_mutual_eqs(ctx: &mut Ctx, rng: &mut XorShift64, v: &Vocab) -> (Vec<TermId>, Vec<u64>) {
    let (mut x, mut y) = (v.bv_vars[0].0, v.bv_vars[1].0);
    if rng.chance(1, 2) {
        std::mem::swap(&mut x, &mut y);
    }
    let mut pool = Vec::new();
    let mut constant = |ctx: &mut Ctx, rng: &mut XorShift64| {
        let c = rng.below(1 << WIDTH);
        pool.push(c);
        ctx.bv_const(WIDTH, c)
    };
    let sides = match rng.below(3) {
        0 => {
            let c = constant(ctx, rng);
            [(x, y), (x, c)]
        }
        1 => [(x, y), (y, x)],
        _ => {
            let op = BIN_OPS[rng.below(BIN_OPS.len() as u64) as usize];
            let c = constant(ctx, rng);
            let t = ctx.bv_bin(op, y, c);
            let op = BIN_OPS[rng.below(BIN_OPS.len() as u64) as usize];
            let c = constant(ctx, rng);
            let s = ctx.bv_bin(op, x, c);
            [(x, t), (y, s)]
        }
    };
    let pair = sides
        .into_iter()
        .map(|(a, b)| {
            if rng.chance(1, 2) {
                ctx.eq(a, b)
            } else {
                ctx.eq(b, a)
            }
        })
        .collect();
    (pair, pool)
}

/// The assertions of one case: up to `max_random` random conjuncts, or
/// a mutual-equality pair with up to one random conjunct beside it.
/// Also returns the constants worth sampling.
fn gen_case(
    ctx: &mut Ctx,
    rng: &mut XorShift64,
    v: &Vocab,
    mutual: bool,
    max_random: u64,
) -> (Vec<TermId>, Vec<u64>) {
    if !mutual {
        let n = 1 + rng.below(max_random);
        let assertions = (0..n).map(|_| gen_bool(ctx, rng, v, 4)).collect();
        return (assertions, Vec::new());
    }
    let (mut assertions, pool) = gen_mutual_eqs(ctx, rng, v);
    if rng.chance(1, 2) {
        assertions.push(gen_bool(ctx, rng, v, 3));
    }
    (assertions, pool)
}

/// One point of the 2^17 domain: uniform, or with each bit-vector
/// variable drawn from `pool` half the time, so that models of
/// equalities with constants get sampled.
fn sample_point(rng: &mut XorShift64, v: &Vocab, pool: &[u64]) -> u64 {
    let mut point = rng.below(1 << (v.bv_vars.len() as u32 * WIDTH + 1));
    if !pool.is_empty() {
        for i in 0..v.bv_vars.len() as u32 {
            if rng.chance(1, 2) {
                let c = pool[rng.below(pool.len() as u64) as usize];
                point &= !(((1 << WIDTH) - 1) << (i * WIDTH));
                point |= c << (i * WIDTH);
            }
        }
    }
    point
}

/// The assignment `{x, y := bits, b := bit}` for one point of the
/// 2^17 domain.
fn assignment_at(v: &Vocab, point: u64) -> Assignment {
    let mut asg = Assignment::new();
    for (i, &(_, var)) in v.bv_vars.iter().enumerate() {
        asg.set_var(
            var,
            Value::Bv(point >> (i as u32 * WIDTH) & ((1 << WIDTH) - 1)),
        );
    }
    asg.set_var(
        v.bool_var.1,
        Value::Bool(point >> (v.bv_vars.len() as u32 * WIDTH) & 1 == 1),
    );
    asg
}

/// On every sampled assignment, the original conjunction and the
/// simplified conjunction must agree; a `Discharged` outcome must mean
/// no sampled assignment satisfies the originals.
#[test]
fn simplify_preserves_conjunction_semantics() {
    let mut rng = XorShift64::new(0x51a7);
    // 192 random cases, then 64 around mutual equalities.
    for case in 0..256u64 {
        let mut ctx = Ctx::new();
        let v = vocab(&mut ctx);
        let (assertions, pool) = gen_case(&mut ctx, &mut rng, &v, case >= 192, 4);
        // COI off: dropped conjuncts would (soundly) weaken the
        // conjunction, which is exactly the case this oracle can't
        // score. The solver-level test below covers COI.
        let outcome = analysis::simplify_query(&mut ctx, &assertions, assertions.len(), false);
        let simplified: Option<Vec<TermId>> = match outcome {
            SimplifyOutcome::Discharged(_) => None,
            SimplifyOutcome::Simplified { assertions, .. } => Some(assertions),
        };
        for _ in 0..256 {
            let point = sample_point(&mut rng, &v, &pool);
            let asg = assignment_at(&v, point);
            let orig = assertions.iter().all(|&t| eval_bool(&ctx, t, &asg));
            match &simplified {
                None => assert!(
                    !orig,
                    "case {case}: discharged as Unsat but assignment {point:#x} satisfies \
                     the originals"
                ),
                Some(s) => {
                    let simp = s.iter().all(|&t| eval_bool(&ctx, t, &asg));
                    assert_eq!(
                        orig, simp,
                        "case {case}: original and simplified conjunctions disagree on \
                         assignment {point:#x}"
                    );
                }
            }
        }
    }
}

/// The full solver answers identically with the pass on and off in the
/// oneshot pipeline and in the incremental one (which ignores it), at 1
/// and 2 workers; every Unsat under `certify` carries a checked proof.
#[test]
fn verdicts_agree_with_simplify_on_and_off() {
    // (incremental, simplify): incremental sessions never run the pass.
    const SHAPES: [(bool, bool); 3] = [(false, false), (false, true), (true, false)];
    let mut rng = XorShift64::new(0xc01e);
    // 48 random cases, then 16 around mutual equalities.
    for case in 0..64u64 {
        let mut ctx = Ctx::new();
        let v = vocab(&mut ctx);
        let (assertions, _) = gen_case(&mut ctx, &mut rng, &v, case >= 48, 3);
        let mut baseline: Option<bool> = None;
        for workers in [1usize, 2] {
            for (incremental, simplify) in SHAPES {
                for certify in [false, true] {
                    let parallel = ParallelConfig {
                        workers,
                        conflict_threshold: 0,
                        budget: (workers > 1).then(|| Arc::new(CoreBudget::new(workers))),
                        ..ParallelConfig::default()
                    };
                    let mut s = Solver::with_config(SolverConfig {
                        incremental,
                        simplify,
                        certify,
                        parallel,
                        ..SolverConfig::default()
                    });
                    for &t in &assertions {
                        s.assert(&mut ctx, t);
                    }
                    let r = s.check(&mut ctx);
                    if certify {
                        assert!(
                            !matches!(r, SatResult::StaticallyDischarged),
                            "case {case}: StaticallyDischarged escaped a certified run"
                        );
                        assert_eq!(
                            s.stats.certified_unsat, s.stats.unsat_queries,
                            "case {case}: Unsat left uncertified \
                             (incremental={incremental} simplify={simplify})"
                        );
                    }
                    let sat = match r {
                        SatResult::Sat(m) => {
                            for &t in &assertions {
                                assert!(
                                    eval_bool(&ctx, t, &m.assignment),
                                    "case {case}: model fails an original assertion \
                                     (incremental={incremental} simplify={simplify})"
                                );
                            }
                            true
                        }
                        SatResult::Unsat | SatResult::StaticallyDischarged => false,
                        SatResult::Unknown => panic!("case {case}: unexpected unknown"),
                    };
                    match baseline {
                        None => baseline = Some(sat),
                        Some(b) => assert_eq!(
                            b, sat,
                            "case {case}: verdict flipped (workers={workers} \
                             incremental={incremental} simplify={simplify} \
                             certify={certify})"
                        ),
                    }
                }
            }
        }
    }
}

//! Word-level static analysis of the term DAG, run per query before
//! Ackermannization and bit-blasting.
//!
//! Three cooperating pieces (see DESIGN.md §12):
//!
//! * [`domain`] — abstract interpretation with a known-bits lattice and
//!   unsigned intervals, seeded from asserted facts;
//! * [`rewrite`] — fact-directed simplification of each conjunct, with
//!   equality substitution and own-origin exclusion;
//! * [`coi`] — cone-of-influence reduction dropping asserted conjuncts
//!   whose uninterpreted symbols never reach the goal.
//!
//! The entry point is [`simplify_query`]: full rewrite, disjunct
//! refutation and COI over a oneshot query. It can report the whole
//! query *statically discharged* when the abstraction alone proves the
//! active conjunction unsatisfiable. Incremental sessions do not run
//! the pass.

pub mod coi;
pub mod domain;
pub mod rewrite;

use std::collections::{HashMap, HashSet};

use crate::term::{CmpOp, Ctx, Sort, TermData, TermId};

use domain::{Analysis, SeedView, Seeds};
use rewrite::{Facts, RewriteStats, Rewriter};

/// Origin tag for facts injected during disjunct refutation; any value
/// distinct from real conjunct indices and [`domain::MULTI_ORIGIN`].
const REFUTE_ORIGIN: u32 = u32::MAX - 1;

/// Counters from one simplification run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimplifyStats {
    /// Terms visited by the abstract analyses.
    pub terms_visited: u64,
    /// Nodes replaced by a different term.
    pub rewrites: u64,
    /// Bits of bit-vector terms pinned to constants.
    pub bits_pinned: u64,
    /// Conjuncts going in (after flattening top-level `And`s).
    pub conjuncts_before: u64,
    /// Conjuncts surviving rewriting + reduction.
    pub conjuncts_after: u64,
    /// Conjuncts dropped by cone-of-influence reduction.
    pub coi_dropped: u64,
}

impl SimplifyStats {
    fn absorb_rewrite(&mut self, rw: &RewriteStats) {
        self.rewrites += rw.rewrites;
        self.bits_pinned += rw.bits_pinned;
        self.terms_visited += rw.visited;
    }
}

/// Result of simplifying a whole (oneshot) query.
#[derive(Debug)]
pub enum SimplifyOutcome {
    /// The abstraction proved the active conjunction unsatisfiable.
    Discharged(SimplifyStats),
    /// The rewritten assertion set to solve instead of the original.
    Simplified {
        /// Surviving conjuncts (conjunction of these ⟺ original, except
        /// for COI drops — see `coi_dropped_any`).
        assertions: Vec<TermId>,
        /// True when COI dropped conjuncts: an Unsat verdict on
        /// `assertions` still holds for the original, but a Sat verdict
        /// requires re-solving the full set.
        coi_dropped_any: bool,
        /// Run counters.
        stats: SimplifyStats,
    },
}

/// Simplifies a oneshot query. `active` is the full assertion list;
/// assertions at index `goal_start` and beyond are the goal (scoped)
/// part that cone-of-influence reduction anchors on. With
/// `use_coi == false` no conjunct is ever dropped by reduction.
pub fn simplify_query(
    ctx: &mut Ctx,
    active: &[TermId],
    goal_start: usize,
    use_coi: bool,
) -> SimplifyOutcome {
    let mut stats = SimplifyStats::default();

    // Flatten top-level conjunctions and deduplicate, tracking which
    // conjuncts belong to the goal.
    let mut conjuncts: Vec<TermId> = Vec::new();
    let mut is_goal: Vec<bool> = Vec::new();
    let mut seen: HashSet<TermId> = HashSet::new();
    for (ai, &a) in active.iter().enumerate() {
        let goal = ai >= goal_start;
        match ctx.data(a) {
            TermData::And(args) => {
                for &c in args.clone().iter() {
                    if seen.insert(c) {
                        conjuncts.push(c);
                        is_goal.push(goal);
                    }
                }
            }
            _ => {
                if seen.insert(a) {
                    conjuncts.push(a);
                    is_goal.push(goal);
                }
            }
        }
    }
    stats.conjuncts_before = conjuncts.len() as u64;

    let mut facts = Facts::default();
    for (i, &c) in conjuncts.iter().enumerate() {
        facts.harvest(ctx, c, i as u32);
    }

    // Rewrite each conjunct with its own facts hidden. An equality whose
    // substitution rewrote conjunct `i` must not itself be rewritten with
    // `i`'s facts (see `rewrite`): each such pair hides `i` from the
    // equality, which is then redone. Hidden sets only grow, so this
    // ends.
    let n = conjuncts.len();
    let mut hidden: Vec<Vec<u32>> = (0..n as u32).map(|i| vec![i]).collect();
    let mut rewritten: Vec<(TermId, RewriteStats, Vec<u32>)> = (0..n)
        .map(|i| rewrite_conjunct(ctx, &facts, conjuncts[i], &hidden[i]))
        .collect();
    let mut todo: Vec<usize> = (0..n).collect();
    loop {
        let mut redo: Vec<usize> = Vec::new();
        for &i in &todo {
            let (_, _, used) = &rewritten[i];
            for &e in used {
                let e = e as usize;
                if !hidden[e].contains(&(i as u32)) {
                    hidden[e].push(i as u32);
                    if !redo.contains(&e) {
                        redo.push(e);
                    }
                }
            }
        }
        if redo.is_empty() {
            break;
        }
        for &e in &redo {
            rewritten[e] = rewrite_conjunct(ctx, &facts, conjuncts[e], &hidden[e]);
        }
        todo = redo;
    }

    let mut out: Vec<TermId> = Vec::new();
    let mut out_goal: Vec<bool> = Vec::new();
    for (i, (r, rw_stats, _)) in rewritten.iter().enumerate() {
        stats.absorb_rewrite(rw_stats);
        let mut r = *r;
        if matches!(ctx.data(r), TermData::Or(_)) {
            r = refute_disjuncts(ctx, &facts.seeds, r, &mut stats);
        }
        match ctx.const_bool(r) {
            Some(false) => {
                stats.conjuncts_after = 0;
                return SimplifyOutcome::Discharged(stats);
            }
            Some(true) => continue, // implied by the others: drop
            None => {
                out.push(r);
                out_goal.push(is_goal[i]);
            }
        }
    }

    // Whole-conjunction discharge check on the rewritten set.
    if conjunction_contradicts(ctx, &out, &mut stats) {
        stats.conjuncts_after = 0;
        return SimplifyOutcome::Discharged(stats);
    }

    // Cone-of-influence reduction anchored on the goal conjuncts.
    let mut coi_dropped_any = false;
    if use_coi {
        let keep = coi::reduce(ctx, &out, &out_goal);
        let mut kept = Vec::with_capacity(out.len());
        for (i, &k) in keep.iter().enumerate() {
            if k {
                kept.push(out[i]);
            } else {
                stats.coi_dropped += 1;
                coi_dropped_any = true;
            }
        }
        out = kept;
    }

    stats.conjuncts_after = out.len() as u64;
    SimplifyOutcome::Simplified {
        assertions: out,
        coi_dropped_any,
        stats,
    }
}

/// Rewrites conjunct `c` with the facts of the origins in `hidden` out
/// of view. Returns the result, its counters, and the origins of the
/// substitutions it applied.
fn rewrite_conjunct(
    ctx: &mut Ctx,
    facts: &Facts,
    c: TermId,
    hidden: &[u32],
) -> (TermId, RewriteStats, Vec<u32>) {
    let mut rw = Rewriter::new(facts, SeedView::Rewriting { hidden });
    let r = rw.rewrite(ctx, c);
    (r, rw.stats, rw.used_substitutions().to_vec())
}

/// Refutes disjuncts of the `Or` conjunct `t` one at a time: a disjunct
/// whose facts contradict the active facts cannot hold in any model, so
/// it is deleted from the disjunction. Returns the (possibly) shrunken
/// disjunction.
fn refute_disjuncts(ctx: &mut Ctx, seeds: &Seeds, t: TermId, stats: &mut SimplifyStats) -> TermId {
    let TermData::Or(args) = ctx.data(t) else {
        return t;
    };
    let args: Vec<TermId> = args.to_vec();
    let mut survivors = Vec::with_capacity(args.len());
    for &d in &args {
        // A clash already in `seeds` is the whole-conjunction check's to
        // report; here it would refute every disjunct alike.
        let mut s2 = Seeds {
            conflict: false,
            ..seeds.clone()
        };
        s2.add_fact(ctx, d, REFUTE_ORIGIN, true);
        let refuted = s2.conflict
            || s2.bv.values().any(|e| e.abs.is_empty())
            || cmp_pairs_contradict(ctx, &s2)
            || {
                let mut an = Analysis::new(&s2, SeedView::Full);
                an.abs(ctx, d);
                stats.terms_visited += an.visited;
                an.contradiction
            };
        if !refuted {
            survivors.push(d);
        }
    }
    if survivors.len() == args.len() {
        return t;
    }
    stats.rewrites += (args.len() - survivors.len()) as u64;
    ctx.or(&survivors)
}

/// Full-view contradiction check over a conjunction: harvests fresh
/// facts from `conjuncts` and looks for an empty abstraction, a boolean
/// fact asserted both ways, or a complementary comparison pair.
fn conjunction_contradicts(ctx: &Ctx, conjuncts: &[TermId], stats: &mut SimplifyStats) -> bool {
    let mut seeds = Seeds::default();
    for (i, &c) in conjuncts.iter().enumerate() {
        seeds.add_fact(ctx, c, i as u32, true);
    }
    if seeds.conflict || seeds.bv.values().any(|e| e.abs.is_empty()) {
        return true;
    }
    if cmp_pairs_contradict(ctx, &seeds) {
        return true;
    }
    let mut an = Analysis::new(&seeds, SeedView::Full);
    for &c in conjuncts {
        an.abs(ctx, c);
        if an.contradiction {
            stats.terms_visited += an.visited;
            return true;
        }
    }
    stats.terms_visited += an.visited;
    false
}

/// Positive normal form of an asserted comparison atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Atom {
    Ult(TermId, TermId),
    Ule(TermId, TermId),
    Slt(TermId, TermId),
    Sle(TermId, TermId),
    EqBv(TermId, TermId),
}

/// Detects pairs of asserted facts that are jointly unsatisfiable
/// without any interval information: `a < b ∧ b ≤ a`, `a < b ∧ b < a`,
/// and `a = b ∧ a < b` (each in unsigned and signed form).
fn cmp_pairs_contradict(ctx: &Ctx, seeds: &Seeds) -> bool {
    let mut atoms: HashMap<Atom, ()> = HashMap::new();
    for (&t, e) in &seeds.bools {
        let atom = match ctx.data(t) {
            TermData::Cmp(op, a, b) => {
                let (a, b) = (*a, *b);
                match (op, e.value) {
                    (CmpOp::Ult, true) => Atom::Ult(a, b),
                    (CmpOp::Ult, false) => Atom::Ule(b, a),
                    (CmpOp::Ule, true) => Atom::Ule(a, b),
                    (CmpOp::Ule, false) => Atom::Ult(b, a),
                    (CmpOp::Slt, true) => Atom::Slt(a, b),
                    (CmpOp::Slt, false) => Atom::Sle(b, a),
                    (CmpOp::Sle, true) => Atom::Sle(a, b),
                    (CmpOp::Sle, false) => Atom::Slt(b, a),
                }
            }
            TermData::Eq(a, b) if e.value && ctx.sort(*a) != Sort::Bool => {
                Atom::EqBv(*(a.min(b)), *(a.max(b)))
            }
            _ => continue,
        };
        atoms.insert(atom, ());
    }
    for atom in atoms.keys() {
        let contra = match *atom {
            Atom::Ult(a, b) => {
                atoms.contains_key(&Atom::Ule(b, a))
                    || atoms.contains_key(&Atom::Ult(b, a))
                    || atoms.contains_key(&Atom::EqBv(a.min(b), a.max(b)))
            }
            Atom::Slt(a, b) => {
                atoms.contains_key(&Atom::Sle(b, a))
                    || atoms.contains_key(&Atom::Slt(b, a))
                    || atoms.contains_key(&Atom::EqBv(a.min(b), a.max(b)))
            }
            _ => false,
        };
        if contra {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;

    #[test]
    fn discharges_contradictory_bounds() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let five = ctx.bv_const(16, 5);
        let ten = ctx.bv_const(16, 10);
        let lo = ctx.ult(x, five); // x < 5
        let hi = ctx.ule(ten, x); // x >= 10
        match simplify_query(&mut ctx, &[lo, hi], 1, true) {
            SimplifyOutcome::Discharged(_) => {}
            other => panic!("expected discharge, got {other:?}"),
        }
    }

    #[test]
    fn discharges_complementary_cmp_pair() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let y = ctx.var("y", Sort::Bv(16));
        let a = ctx.ult(x, y);
        let b = ctx.ule(y, x);
        match simplify_query(&mut ctx, &[a, b], 1, true) {
            SimplifyOutcome::Discharged(_) => {}
            other => panic!("expected discharge, got {other:?}"),
        }
    }

    #[test]
    fn coi_drops_unrelated_conjuncts() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(8));
        let y = ctx.var("y", Sort::Bv(8));
        let z = ctx.var("z", Sort::Bv(8));
        let inv1 = ctx.ult(x, y); // unrelated to the goal
        let c3 = ctx.bv_const(8, 3);
        let goal = ctx.ult(c3, z); // goal touches z only
        match simplify_query(&mut ctx, &[inv1, goal], 1, true) {
            SimplifyOutcome::Simplified {
                assertions,
                coi_dropped_any,
                stats,
            } => {
                assert_eq!(assertions, vec![goal]);
                assert!(coi_dropped_any);
                assert_eq!(stats.coi_dropped, 1);
            }
            other => panic!("expected simplified, got {other:?}"),
        }
    }

    #[test]
    fn refutes_impossible_disjuncts() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let c10 = ctx.bv_const(16, 10);
        let c5 = ctx.bv_const(16, 5);
        let c20 = ctx.bv_const(16, 20);
        let base = ctx.ult(x, c10); // x < 10
        let d1 = ctx.ule(c20, x); // x >= 20: impossible under base
        let y = ctx.var("y", Sort::Bv(16));
        let d2 = ctx.ult(y, c5); // independent: not refutable
        let goal = ctx.or2(d1, d2);
        match simplify_query(&mut ctx, &[base, goal], 1, false) {
            SimplifyOutcome::Simplified { assertions, .. } => {
                assert!(assertions.contains(&d2), "d1 refuted, goal collapses to d2");
                assert!(!assertions.contains(&goal));
            }
            other => panic!("expected simplified, got {other:?}"),
        }
    }

    #[test]
    fn all_disjuncts_refuted_discharges() {
        let mut ctx = Ctx::new();
        let x = ctx.var("x", Sort::Bv(16));
        let c10 = ctx.bv_const(16, 10);
        let c20 = ctx.bv_const(16, 20);
        let c30 = ctx.bv_const(16, 30);
        let base = ctx.ult(x, c10); // x < 10
        let d1 = ctx.ule(c20, x); // x >= 20
        let d2 = ctx.ule(c30, x); // x >= 30
        let goal = ctx.or2(d1, d2);
        match simplify_query(&mut ctx, &[base, goal], 1, true) {
            SimplifyOutcome::Discharged(_) => {}
            other => panic!("expected discharge, got {other:?}"),
        }
    }
}

//! Abstract domains for word-level static analysis: a per-bit
//! known-bits lattice and an unsigned interval domain, computed together
//! over the hash-consed term DAG.
//!
//! Every bit-vector term gets an [`AbsBv`]: `ones`/`zeros` masks of bits
//! proven constant plus an inclusive unsigned range `[lo, hi]`. The two
//! views cross-pollinate in [`AbsBv::normalize`]: known high-zero bits
//! tighten the range, a tight range pins the common leading bits, and an
//! empty meet (`ones & zeros != 0` or `lo > hi`) is the domain-level
//! signature of an unsatisfiable fact set. Boolean terms abstract to
//! `Option<bool>` — `Some` when the abstraction alone decides them.
//!
//! Soundness invariant: for every term `t` and every assignment
//! satisfying the seeded facts, the concrete value of `t` lies in
//! `abs(t)`. Transfer functions may only over-approximate; the
//! differential fuzz suite (`tests/simplify_differential.rs`) checks the
//! invariant against the ground evaluator on random DAGs.

use std::collections::HashMap;

use crate::term::{mask, sext_to_64, BvBinOp, CmpOp, Ctx, Sort, TermData, TermId};

/// Known-bits + unsigned-interval abstraction of one bit-vector term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsBv {
    /// Width of the abstracted term.
    pub width: u32,
    /// Bits proven to be one.
    pub ones: u64,
    /// Bits proven to be zero.
    pub zeros: u64,
    /// Inclusive unsigned lower bound.
    pub lo: u64,
    /// Inclusive unsigned upper bound.
    pub hi: u64,
}

impl AbsBv {
    /// The unconstrained element: nothing known.
    pub fn top(width: u32) -> AbsBv {
        AbsBv {
            width,
            ones: 0,
            zeros: 0,
            lo: 0,
            hi: mask(width),
        }
    }

    /// The exact abstraction of a constant.
    pub fn exact(width: u32, v: u64) -> AbsBv {
        let v = v & mask(width);
        AbsBv {
            width,
            ones: v,
            zeros: !v & mask(width),
            lo: v,
            hi: v,
        }
    }

    /// Bits not yet pinned either way.
    pub fn unknown_mask(&self) -> u64 {
        mask(self.width) & !self.ones & !self.zeros
    }

    /// Number of bits pinned to a constant.
    pub fn known_bits(&self) -> u32 {
        ((self.ones | self.zeros) & mask(self.width)).count_ones()
    }

    /// True when no concrete value is compatible: the fact set that
    /// seeded this abstraction is unsatisfiable.
    pub fn is_empty(&self) -> bool {
        self.ones & self.zeros != 0 || self.lo > self.hi
    }

    /// The single compatible value, if the abstraction pins one.
    pub fn as_const(&self) -> Option<u64> {
        if self.is_empty() {
            return None;
        }
        if self.lo == self.hi {
            return Some(self.lo);
        }
        if (self.ones | self.zeros) == mask(self.width) {
            return Some(self.ones);
        }
        None
    }

    /// Cross-pollinates the two views to a local fixpoint: bits tighten
    /// the range, the range pins the common leading bits of `lo`/`hi`.
    pub fn normalize(mut self) -> AbsBv {
        let m = mask(self.width);
        for _ in 0..3 {
            let before = self;
            // Bits → range: the smallest compatible value sets every
            // unknown bit to 0, the largest sets them all to 1.
            self.lo = self.lo.max(self.ones);
            self.hi = self.hi.min(m & !self.zeros);
            if self.lo > self.hi {
                return self;
            }
            // Range → bits: lo and hi agree above their highest
            // differing bit, so those leading bits are pinned.
            let diff = self.lo ^ self.hi;
            let fixed_above = if diff == 0 {
                u64::MAX
            } else {
                !(u64::MAX >> diff.leading_zeros())
            };
            let fixed = fixed_above & m;
            self.ones |= self.lo & fixed;
            self.zeros |= !self.lo & fixed;
            if self == before {
                break;
            }
        }
        self
    }

    /// Greatest lower bound: both constraints hold. An empty result
    /// means the constraints contradict.
    pub fn meet(&self, other: &AbsBv) -> AbsBv {
        debug_assert_eq!(self.width, other.width);
        AbsBv {
            width: self.width,
            ones: self.ones | other.ones,
            zeros: self.zeros | other.zeros,
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
        .normalize()
    }

    /// Least upper bound: either constraint may hold (`ite` join).
    pub fn join(&self, other: &AbsBv) -> AbsBv {
        debug_assert_eq!(self.width, other.width);
        AbsBv {
            width: self.width,
            ones: self.ones & other.ones,
            zeros: self.zeros & other.zeros,
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
        .normalize()
    }

    /// Signed bounds, when the unsigned range does not straddle the
    /// sign boundary.
    fn signed_bounds(&self) -> Option<(i64, i64)> {
        let sign = 1u64 << (self.width - 1);
        if self.hi < sign || self.lo >= sign {
            Some((
                sext_to_64(self.lo, self.width) as i64,
                sext_to_64(self.hi, self.width) as i64,
            ))
        } else {
            None
        }
    }
}

// ----------------------------------------------------------------------
// Transfer functions.
// ----------------------------------------------------------------------

fn tf_bv_not(a: &AbsBv) -> AbsBv {
    let m = mask(a.width);
    AbsBv {
        width: a.width,
        ones: a.zeros,
        zeros: a.ones,
        lo: m - a.hi,
        hi: m - a.lo,
    }
    .normalize()
}

/// Known-bits addition: ripple the carry while both addend bits and the
/// carry stay known; the first unknown poisons everything above it.
fn add_known_bits(a: &AbsBv, b: &AbsBv, width: u32) -> (u64, u64) {
    let (mut ones, mut zeros) = (0u64, 0u64);
    let mut carry = Some(0u64);
    for i in 0..width {
        let bit = 1u64 << i;
        let ka = (a.ones | a.zeros) & bit != 0;
        let kb = (b.ones | b.zeros) & bit != 0;
        match (ka, kb, carry) {
            (true, true, Some(c)) => {
                let va = (a.ones >> i) & 1;
                let vb = (b.ones >> i) & 1;
                let s = va + vb + c;
                if s & 1 == 1 {
                    ones |= bit;
                } else {
                    zeros |= bit;
                }
                carry = Some(s >> 1);
            }
            _ => break,
        }
    }
    (ones, zeros)
}

fn tf_bv_bin(op: BvBinOp, a: &AbsBv, b: &AbsBv) -> AbsBv {
    let w = a.width;
    let m = mask(w);
    let mut r = AbsBv::top(w);
    match op {
        BvBinOp::Add => {
            (r.ones, r.zeros) = add_known_bits(a, b, w);
            if a.hi.checked_add(b.hi).is_some_and(|s| s <= m) {
                r.lo = a.lo + b.lo;
                r.hi = a.hi + b.hi;
            }
        }
        BvBinOp::Sub => {
            if a.lo >= b.hi {
                r.lo = a.lo - b.hi;
                r.hi = a.hi - b.lo;
            }
        }
        BvBinOp::Mul => {
            // Trailing known zeros accumulate through multiplication.
            let tz = trailing_known_zeros(a) + trailing_known_zeros(b);
            if tz >= w {
                return AbsBv::exact(w, 0);
            }
            r.zeros |= mask(tz);
            if a.hi.checked_mul(b.hi).is_some_and(|p| p <= m) {
                r.lo = a.lo * b.lo;
                r.hi = a.hi * b.hi;
            }
        }
        BvBinOp::Udiv => {
            // A nonzero divisor lower bound makes both checked divisions
            // succeed; `b.lo == 0` short-circuits to the top element.
            if let (Some(lo), Some(hi)) = (a.lo.checked_div(b.hi), a.hi.checked_div(b.lo)) {
                r.lo = lo;
                r.hi = hi;
            }
            // A possibly-zero divisor yields all-ones (SMT-LIB), so the
            // top element already covers it.
        }
        BvBinOp::Urem => {
            // The remainder never exceeds the dividend; with a provably
            // nonzero divisor it is also below the divisor.
            r.lo = 0;
            r.hi = if b.lo > 0 { a.hi.min(b.hi - 1) } else { a.hi };
        }
        BvBinOp::And => {
            r.ones = a.ones & b.ones;
            r.zeros = a.zeros | b.zeros;
        }
        BvBinOp::Or => {
            r.ones = a.ones | b.ones;
            r.zeros = a.zeros & b.zeros;
        }
        BvBinOp::Xor => {
            let known = (a.ones | a.zeros) & (b.ones | b.zeros);
            let v = (a.ones ^ b.ones) & known;
            r.ones = v;
            r.zeros = known & !v;
        }
        BvBinOp::Shl => {
            if let Some(sh) = b.as_const() {
                if sh >= w as u64 {
                    return AbsBv::exact(w, 0);
                }
                let sh = sh as u32;
                r.ones = (a.ones << sh) & m;
                r.zeros = ((a.zeros << sh) | mask(sh)) & m;
                if a.hi <= m >> sh {
                    r.lo = a.lo << sh;
                    r.hi = a.hi << sh;
                }
            } else if b.lo < w as u64 {
                // Every feasible shift clears at least `b.lo` low bits;
                // larger shifts clear more (or produce 0, which also
                // has them clear).
                r.zeros |= mask(b.lo as u32);
            } else {
                return AbsBv::exact(w, 0);
            }
        }
        BvBinOp::Lshr => {
            if let Some(sh) = b.as_const() {
                if sh >= w as u64 {
                    return AbsBv::exact(w, 0);
                }
                let sh = sh as u32;
                r.ones = a.ones >> sh;
                r.zeros = (a.zeros >> sh) | (!(m >> sh) & m);
                r.lo = a.lo >> sh;
                r.hi = a.hi >> sh;
            } else {
                r.lo = 0;
                r.hi = a.hi >> b.lo.min(63);
            }
        }
        BvBinOp::Ashr => {
            if a.zeros >> (w - 1) & 1 == 1 {
                // Known non-negative: identical to a logical shift.
                return tf_bv_bin(BvBinOp::Lshr, a, b);
            }
            if let (Some(sh), true) = (b.as_const(), a.ones >> (w - 1) & 1 == 1) {
                // Known negative, constant shift: sign fill with ones.
                if sh >= w as u64 {
                    return AbsBv::exact(w, m);
                }
                let sh = sh as u32;
                let fill = m & !(m >> sh);
                r.ones = (a.ones >> sh) | fill;
                r.zeros = (a.zeros >> sh) & !fill;
            }
        }
    }
    r.normalize()
}

fn trailing_known_zeros(a: &AbsBv) -> u32 {
    (a.zeros | !mask(a.width)).trailing_ones().min(a.width)
}

fn tf_zext(a: &AbsBv, width: u32) -> AbsBv {
    AbsBv {
        width,
        ones: a.ones,
        zeros: a.zeros | (mask(width) & !mask(a.width)),
        lo: a.lo,
        hi: a.hi,
    }
    .normalize()
}

fn tf_sext(a: &AbsBv, width: u32) -> AbsBv {
    let sign = 1u64 << (a.width - 1);
    let high = mask(width) & !mask(a.width);
    if a.zeros & sign != 0 {
        return tf_zext(a, width);
    }
    let mut r = AbsBv::top(width);
    r.ones = a.ones & mask(a.width);
    r.zeros = a.zeros & mask(a.width);
    if a.ones & sign != 0 {
        // Known negative: the extension bits are ones and the value
        // stays in the high (negative) band of the wider width.
        r.ones |= high;
        r.lo = (a.lo | high) & mask(width);
        r.hi = (a.hi | high) & mask(width);
    } else {
        // Sign unknown: the copied low bits are all that survives (the
        // high bits all mirror the unknown sign).
        r.ones &= mask(a.width - 1);
        r.zeros &= mask(a.width - 1);
    }
    r.normalize()
}

fn tf_extract(a: &AbsBv, hi: u32, lo: u32) -> AbsBv {
    let w = hi - lo + 1;
    let mut r = AbsBv {
        width: w,
        ones: (a.ones >> lo) & mask(w),
        zeros: (a.zeros >> lo) & mask(w),
        lo: 0,
        hi: mask(w),
    };
    if hi == a.width - 1 {
        // Extracting through the top bit is a plain right shift, which
        // is monotone, so the range carries over.
        r.lo = a.lo >> lo;
        r.hi = a.hi >> lo;
    }
    r.normalize()
}

fn tf_concat(a: &AbsBv, b: &AbsBv) -> AbsBv {
    let w = a.width + b.width;
    let sh = b.width;
    AbsBv {
        width: w,
        ones: (a.ones << sh) | b.ones,
        zeros: (a.zeros << sh) | b.zeros,
        lo: (a.lo << sh) + b.lo,
        hi: (a.hi << sh) + b.hi,
    }
    .normalize()
}

fn tf_cmp(op: CmpOp, a: &AbsBv, b: &AbsBv) -> Option<bool> {
    match op {
        CmpOp::Ult => {
            if a.hi < b.lo {
                Some(true)
            } else if a.lo >= b.hi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Ule => {
            if a.hi <= b.lo {
                Some(true)
            } else if a.lo > b.hi {
                Some(false)
            } else {
                None
            }
        }
        CmpOp::Slt | CmpOp::Sle => {
            let (alo, ahi) = a.signed_bounds()?;
            let (blo, bhi) = b.signed_bounds()?;
            if op == CmpOp::Slt {
                if ahi < blo {
                    Some(true)
                } else if alo >= bhi {
                    Some(false)
                } else {
                    None
                }
            } else if ahi <= blo {
                Some(true)
            } else if alo > bhi {
                Some(false)
            } else {
                None
            }
        }
    }
}

fn tf_eq_bv(a: &AbsBv, b: &AbsBv) -> Option<bool> {
    if a.hi < b.lo || b.hi < a.lo {
        return Some(false);
    }
    if a.ones & b.zeros != 0 || b.ones & a.zeros != 0 {
        return Some(false);
    }
    if let (Some(va), Some(vb)) = (a.as_const(), b.as_const()) {
        return Some(va == vb);
    }
    None
}

// ----------------------------------------------------------------------
// The analysis engine.
// ----------------------------------------------------------------------

/// The abstract value of one term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abs {
    /// A boolean term: `Some` when decided by the abstraction.
    Bool(Option<bool>),
    /// A bit-vector term.
    Bv(AbsBv),
}

impl Abs {
    /// The decided boolean value, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Abs::Bool(b) => *b,
            Abs::Bv(_) => None,
        }
    }

    /// The bit-vector abstraction, if this is a bit-vector term.
    pub fn as_bv(&self) -> Option<&AbsBv> {
        match self {
            Abs::Bv(a) => Some(a),
            Abs::Bool(_) => None,
        }
    }
}

/// Marker origin for facts contributed by more than one conjunct. Such
/// facts participate in whole-conjunction contradiction checks but are
/// hidden during rewriting: letting conjunct `i` see a fact it helped
/// establish would permit circular self-simplification (the classic
/// `p ∧ p → true ∧ true` trap).
pub const MULTI_ORIGIN: u32 = u32::MAX;

/// Which seeded facts one analysis run may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedView<'v> {
    /// Every seeded fact applies: checking the whole active conjunction
    /// for a contradiction (nothing is rewritten, so circularity is not
    /// a concern).
    Full,
    /// Rewriting one conjunct: facts from the conjuncts in `hidden` (the
    /// conjunct itself, plus any it must not be rewritten by) and facts
    /// owned by several conjuncts are hidden.
    Rewriting {
        /// Origins whose facts this rewrite may not use.
        hidden: &'v [u32],
    },
}

impl SeedView<'_> {
    /// Whether a fact from `origin` is visible in this view.
    pub(super) fn admits(self, origin: u32) -> bool {
        match self {
            SeedView::Full => true,
            SeedView::Rewriting { hidden } => origin != MULTI_ORIGIN && !hidden.contains(&origin),
        }
    }
}

/// A range/bit constraint seeded on one bit-vector term.
#[derive(Debug, Clone, Copy)]
pub struct SeedBv {
    /// Conjunct index the constraint came from (or [`MULTI_ORIGIN`]).
    pub origin: u32,
    /// The constraint itself.
    pub abs: AbsBv,
}

/// A truth value forced on one boolean term.
#[derive(Debug, Clone, Copy)]
pub struct SeedBool {
    /// Conjunct index the fact came from (or [`MULTI_ORIGIN`]).
    pub origin: u32,
    /// The forced value.
    pub value: bool,
}

/// Seeded constraints: what asserted facts say about specific terms.
/// Every entry carries the conjunct it came from, so a [`SeedView`] can
/// hide facts a rewrite must not use.
#[derive(Debug, Default, Clone)]
pub struct Seeds {
    /// Range/bit constraints on bit-vector terms.
    pub bv: HashMap<TermId, SeedBv>,
    /// Truth values forced on boolean terms.
    pub bools: HashMap<TermId, SeedBool>,
    /// Two conjuncts asserted opposite truth values for one term: the
    /// conjunction is unsatisfiable outright.
    pub conflict: bool,
}

impl Seeds {
    /// Adds (meets) a bit-vector constraint from conjunct `origin`.
    pub fn constrain_bv(&mut self, t: TermId, origin: u32, c: AbsBv) {
        match self.bv.get_mut(&t) {
            Some(e) => {
                e.abs = e.abs.meet(&c);
                if e.origin != origin {
                    e.origin = MULTI_ORIGIN;
                }
            }
            None => {
                self.bv.insert(t, SeedBv { origin, abs: c });
            }
        }
    }

    /// Forces a boolean term's truth value from conjunct `origin`.
    pub fn constrain_bool(&mut self, t: TermId, origin: u32, v: bool) {
        match self.bools.get_mut(&t) {
            Some(e) => {
                if e.value != v {
                    self.conflict = true;
                }
                if e.origin != origin {
                    e.origin = MULTI_ORIGIN;
                }
            }
            None => {
                self.bools.insert(t, SeedBool { origin, value: v });
            }
        }
    }

    /// Harvests constraints from one asserted conjunct. `positive`
    /// starts true; `Not` flips it on the way down.
    pub fn add_fact(&mut self, ctx: &Ctx, t: TermId, origin: u32, positive: bool) {
        self.constrain_bool(t, origin, positive);
        match ctx.data(t) {
            TermData::Not(a) => self.add_fact(ctx, *a, origin, !positive),
            TermData::And(args) if positive => {
                for &a in args.iter() {
                    self.add_fact(ctx, a, origin, true);
                }
            }
            TermData::Or(args) if !positive => {
                for &a in args.iter() {
                    self.add_fact(ctx, a, origin, false);
                }
            }
            TermData::Cmp(op, a, b) => {
                self.add_cmp_fact(ctx, *op, *a, *b, origin, positive);
            }
            TermData::Eq(a, b) if positive => {
                let (a, b) = (*a, *b);
                if ctx.sort(a) != Sort::Bool {
                    if let Some(v) = ctx.const_value(b) {
                        self.constrain_bv(a, origin, AbsBv::exact(ctx.width(a), v));
                    } else if let Some(v) = ctx.const_value(a) {
                        self.constrain_bv(b, origin, AbsBv::exact(ctx.width(b), v));
                    }
                }
            }
            _ => {}
        }
    }

    fn add_cmp_fact(
        &mut self,
        ctx: &Ctx,
        op: CmpOp,
        a: TermId,
        b: TermId,
        origin: u32,
        positive: bool,
    ) {
        // Normalize to a positive unsigned bound: ¬(a < b) is b <= a,
        // ¬(a <= b) is b < a. Signed bounds are not harvested (the
        // interval domain is unsigned); the comparison itself is still
        // decided by `tf_cmp` when the operand signs pin down.
        let (op, a, b) = if positive {
            (op, a, b)
        } else {
            match op {
                CmpOp::Ult => (CmpOp::Ule, b, a),
                CmpOp::Ule => (CmpOp::Ult, b, a),
                CmpOp::Slt | CmpOp::Sle => return,
            }
        };
        let w = ctx.width(a);
        let mut top = AbsBv::top(w);
        match op {
            CmpOp::Ult => {
                if let Some(vb) = ctx.const_value(b) {
                    top.hi = vb.saturating_sub(1);
                    if vb == 0 {
                        top.lo = 1; // empty: a < 0 is unsatisfiable
                    }
                    self.constrain_bv(a, origin, top.normalize());
                } else if let Some(va) = ctx.const_value(a) {
                    let mut tb = AbsBv::top(w);
                    tb.lo = va.saturating_add(1).min(mask(w));
                    if va == mask(w) {
                        tb.hi = 0;
                        tb.lo = 1; // empty: max < b is unsatisfiable
                    }
                    self.constrain_bv(b, origin, tb.normalize());
                }
            }
            CmpOp::Ule => {
                if let Some(vb) = ctx.const_value(b) {
                    top.hi = vb;
                    self.constrain_bv(a, origin, top.normalize());
                } else if let Some(va) = ctx.const_value(a) {
                    let mut tb = AbsBv::top(w);
                    tb.lo = va;
                    self.constrain_bv(b, origin, tb.normalize());
                }
            }
            CmpOp::Slt | CmpOp::Sle => {}
        }
    }
}

/// One analysis run: abstract values for every visited term under a
/// fixed seed set and view.
#[derive(Debug)]
pub struct Analysis<'s> {
    seeds: &'s Seeds,
    view: SeedView<'s>,
    values: HashMap<TermId, Abs>,
    /// A term's abstraction became empty, or a seed clashed with a
    /// computed value: the visible fact set is unsatisfiable.
    pub contradiction: bool,
    /// Terms visited by this run.
    pub visited: u64,
}

impl<'s> Analysis<'s> {
    /// Creates an analysis over the given seeds, restricted to `view`.
    pub fn new(seeds: &'s Seeds, view: SeedView<'s>) -> Analysis<'s> {
        Analysis {
            seeds,
            view,
            values: HashMap::new(),
            contradiction: false,
            visited: 0,
        }
    }

    /// The abstract value of `t`, computing it (and its cone) on first
    /// use.
    pub fn abs(&mut self, ctx: &Ctx, t: TermId) -> Abs {
        if let Some(v) = self.values.get(&t) {
            return *v;
        }
        // Iterative post-order: children before parents, each node once.
        let mut stack = vec![(t, false)];
        while let Some((n, ready)) = stack.pop() {
            if self.values.contains_key(&n) {
                continue;
            }
            if !ready {
                stack.push((n, true));
                for c in crate::bitblast::term_children(ctx, n) {
                    if !self.values.contains_key(&c) {
                        stack.push((c, false));
                    }
                }
                continue;
            }
            let v = self.transfer(ctx, n);
            let v = self.apply_seeds(n, v);
            self.visited += 1;
            self.values.insert(n, v);
        }
        self.values[&t]
    }

    fn apply_seeds(&mut self, t: TermId, v: Abs) -> Abs {
        match v {
            Abs::Bv(a) => {
                let mut a = a;
                if let Some(e) = self.seeds.bv.get(&t) {
                    if self.view.admits(e.origin) {
                        a = a.meet(&e.abs);
                    }
                }
                if a.is_empty() {
                    self.contradiction = true;
                }
                Abs::Bv(a)
            }
            Abs::Bool(b) => {
                let seed = self.seeds.bools.get(&t).and_then(|e| {
                    if self.view.admits(e.origin) {
                        Some(e.value)
                    } else {
                        None
                    }
                });
                match (b, seed) {
                    (Some(x), Some(y)) if x != y => {
                        self.contradiction = true;
                        Abs::Bool(Some(x))
                    }
                    (None, Some(y)) => Abs::Bool(Some(y)),
                    _ => Abs::Bool(b),
                }
            }
        }
    }

    fn bv(&self, t: TermId) -> AbsBv {
        match self.values[&t] {
            Abs::Bv(a) => a,
            Abs::Bool(_) => unreachable!("bool term where bv expected"),
        }
    }

    fn boolean(&self, t: TermId) -> Option<bool> {
        match self.values[&t] {
            Abs::Bool(b) => b,
            Abs::Bv(_) => unreachable!("bv term where bool expected"),
        }
    }

    fn transfer(&mut self, ctx: &Ctx, t: TermId) -> Abs {
        match ctx.data(t) {
            TermData::True => Abs::Bool(Some(true)),
            TermData::False => Abs::Bool(Some(false)),
            TermData::BvConst { width, value } => Abs::Bv(AbsBv::exact(*width, *value)),
            TermData::Var(_) | TermData::Apply(..) => match ctx.sort(t) {
                Sort::Bool => Abs::Bool(None),
                Sort::Bv(w) => Abs::Bv(AbsBv::top(w)),
            },
            TermData::Not(a) => Abs::Bool(self.boolean(*a).map(|b| !b)),
            TermData::And(args) => {
                let mut all = Some(true);
                for &a in args.iter() {
                    match self.boolean(a) {
                        Some(false) => return Abs::Bool(Some(false)),
                        Some(true) => {}
                        None => all = None,
                    }
                }
                Abs::Bool(all)
            }
            TermData::Or(args) => {
                let mut all = Some(false);
                for &a in args.iter() {
                    match self.boolean(a) {
                        Some(true) => return Abs::Bool(Some(true)),
                        Some(false) => {}
                        None => all = None,
                    }
                }
                Abs::Bool(all)
            }
            TermData::Eq(a, b) => match ctx.sort(*a) {
                Sort::Bool => match (self.boolean(*a), self.boolean(*b)) {
                    (Some(x), Some(y)) => Abs::Bool(Some(x == y)),
                    _ => Abs::Bool(None),
                },
                Sort::Bv(_) => Abs::Bool(tf_eq_bv(&self.bv(*a), &self.bv(*b))),
            },
            TermData::Ite(c, th, el) => {
                let cond = self.boolean(*c);
                match ctx.sort(t) {
                    Sort::Bool => match cond {
                        Some(true) => Abs::Bool(self.boolean(*th)),
                        Some(false) => Abs::Bool(self.boolean(*el)),
                        None => match (self.boolean(*th), self.boolean(*el)) {
                            (Some(x), Some(y)) if x == y => Abs::Bool(Some(x)),
                            _ => Abs::Bool(None),
                        },
                    },
                    Sort::Bv(_) => match cond {
                        Some(true) => Abs::Bv(self.bv(*th)),
                        Some(false) => Abs::Bv(self.bv(*el)),
                        None => Abs::Bv(self.bv(*th).join(&self.bv(*el))),
                    },
                }
            }
            TermData::BvNot(a) => Abs::Bv(tf_bv_not(&self.bv(*a))),
            TermData::BvBin(op, a, b) => Abs::Bv(tf_bv_bin(*op, &self.bv(*a), &self.bv(*b))),
            TermData::Cmp(op, a, b) => Abs::Bool(tf_cmp(*op, &self.bv(*a), &self.bv(*b))),
            TermData::ZExt(a, w) => Abs::Bv(tf_zext(&self.bv(*a), *w)),
            TermData::SExt(a, w) => Abs::Bv(tf_sext(&self.bv(*a), *w)),
            TermData::Extract(a, hi, lo) => Abs::Bv(tf_extract(&self.bv(*a), *hi, *lo)),
            TermData::Concat(a, b) => Abs::Bv(tf_concat(&self.bv(*a), &self.bv(*b))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_roundtrip() {
        let a = AbsBv::exact(8, 0xa5);
        assert_eq!(a.as_const(), Some(0xa5));
        assert!(!a.is_empty());
        assert_eq!(a.known_bits(), 8);
    }

    #[test]
    fn normalize_links_bits_and_range() {
        // hi < 16 pins the four high bits of an 8-bit value to zero.
        let a = AbsBv {
            width: 8,
            ones: 0,
            zeros: 0,
            lo: 0,
            hi: 15,
        }
        .normalize();
        assert_eq!(a.zeros & 0xf0, 0xf0);
        // Known high zeros tighten the range.
        let b = AbsBv {
            width: 8,
            ones: 0,
            zeros: 0xc0,
            lo: 0,
            hi: 255,
        }
        .normalize();
        assert_eq!(b.hi, 0x3f);
    }

    #[test]
    fn meet_contradiction() {
        let lt5 = AbsBv {
            width: 16,
            ones: 0,
            zeros: 0,
            lo: 0,
            hi: 4,
        };
        let gt10 = AbsBv {
            width: 16,
            ones: 0,
            zeros: 0,
            lo: 11,
            hi: mask(16),
        };
        assert!(lt5.meet(&gt10).is_empty());
    }

    #[test]
    fn add_interval_and_bits() {
        let a = AbsBv::exact(8, 3);
        let b = AbsBv {
            width: 8,
            ones: 0,
            zeros: 0,
            lo: 0,
            hi: 10,
        }
        .normalize();
        let s = tf_bv_bin(BvBinOp::Add, &a, &b);
        assert_eq!(s.lo, 3);
        assert_eq!(s.hi, 13);
        // Wrap risk kills the range.
        let big = AbsBv::top(8);
        let s2 = tf_bv_bin(BvBinOp::Add, &big, &big);
        assert_eq!((s2.lo, s2.hi), (0, 255));
    }

    #[test]
    fn shift_and_extract_bits() {
        let a = AbsBv::exact(8, 0b1010_0001);
        let sh = AbsBv::exact(8, 4);
        let r = tf_bv_bin(BvBinOp::Lshr, &a, &sh);
        assert_eq!(r.as_const(), Some(0b1010));
        let e = tf_extract(&a, 3, 0);
        assert_eq!(e.as_const(), Some(0b0001));
        let c = tf_concat(&AbsBv::exact(4, 0xa), &AbsBv::exact(4, 0x1));
        assert_eq!(c.as_const(), Some(0xa1));
    }

    #[test]
    fn cmp_decided_by_intervals() {
        let small = AbsBv {
            width: 8,
            ones: 0,
            zeros: 0,
            lo: 0,
            hi: 3,
        };
        let big = AbsBv {
            width: 8,
            ones: 0,
            zeros: 0,
            lo: 10,
            hi: 20,
        };
        assert_eq!(tf_cmp(CmpOp::Ult, &small, &big), Some(true));
        assert_eq!(tf_cmp(CmpOp::Ult, &big, &small), Some(false));
        assert_eq!(tf_eq_bv(&small, &big), Some(false));
    }
}

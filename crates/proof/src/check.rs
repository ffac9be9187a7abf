//! The independent backward DRAT checker.
//!
//! The checker rebuilds the clause database by replaying the proof
//! forward (resolving each deletion to a concrete clause copy), then
//! walks the proof **backwards** from the final lemma. A lemma is
//! RUP-checked only if some later check used it as an antecedent — the
//! rest of the proof is dead weight and is skipped, which is both the
//! classic performance trick and the *trimming* output: the marked core
//! is exactly the part of the proof the refutation needs. The walk stops
//! as soon as no marked lemma is left below it.
//!
//! A RUP (reverse unit propagation) check of clause `C` asserts the
//! negation of every literal of `C` on top of the persistent root trail
//! and requires unit propagation to derive a conflict. Propagation uses
//! two watched literals per clause; clauses leave and re-enter the
//! database as the backward pass crosses addition and deletion steps, so
//! watch entries carry a generation stamp and are dropped lazily when
//! stale. When a clause that currently *forces* a root literal is
//! deactivated, the trail is truncated from that literal and the
//! propagation queue is rewound to zero — re-scanning the surviving
//! prefix is what keeps the watch invariants sound across mid-trail
//! truncation, which ordinary CDCL backtracking never does.
//!
//! Input clauses (`i` steps) are axioms: they stay active at every
//! position, so a lemma may freely use inputs that appear later in the
//! stream (the incremental solver grows the formula between solve
//! calls), while lemmas may only use *earlier* lemmas — the backward
//! pass deactivates each lemma before checking it, which rules out
//! circular justification structurally.
//!
//! **Sessions.** An incremental solver certifies many answers from one
//! append-only stream, so [`SessionChecker`] keeps its work between
//! calls: each call checks that the bytes it consumed before are a
//! byte-exact prefix of the new stream (otherwise it starts over with
//! nothing remembered), parses and forward-replays only the appended
//! steps, and skips the RUP check of every lemma an earlier successful
//! call verified. The memo is sound because the prefix is unchanged:
//! the clauses active at a verified lemma's step are the same as before
//! plus any inputs the suffix added, and RUP is monotone in the clause
//! set. Equivalently, every lemma a successful call verifies is implied
//! by that call's inputs, and later calls only add inputs. A failed call
//! forgets everything, so the memo never holds a lemma whose antecedents
//! went unchecked. [`check_proof`] is the one-call case.

use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};

use crate::parse::{decode_step, StepKind};
use crate::ProofError;

const UNDEF: u8 = 2;
const TRUE: u8 = 1;
const FALSE: u8 = 0;

const NO_REASON: u32 = u32::MAX;

/// What a successful check reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Total proof steps.
    pub steps: usize,
    /// Input (`i`) steps.
    pub inputs: usize,
    /// Lemma (`a`) steps.
    pub lemmas: usize,
    /// Deletion (`d`) steps.
    pub deletions: usize,
    /// Core lemmas this call verified. A fresh check verifies the whole
    /// core; a session call skips lemmas an earlier call verified.
    pub core_lemmas: usize,
    /// Input clauses this call's RUP checks used.
    pub core_inputs: usize,
    /// The certified final clause (sorted), i.e. the last lemma of the
    /// stream. Empty means the inputs were refuted outright; non-empty
    /// is the assumption-conflict clause of an incremental query.
    pub final_clause: Vec<i32>,
}

impl CheckOutcome {
    /// Fraction of the lemmas this call verified; for a fresh check,
    /// `1.0 - trim_ratio()` is the share of the proof that trimming
    /// discards.
    pub fn trim_ratio(&self) -> f64 {
        if self.lemmas == 0 {
            0.0
        } else {
            self.core_lemmas as f64 / self.lemmas as f64
        }
    }
}

#[derive(Debug)]
struct CClause {
    /// Literals sorted by (variable, sign) and deduplicated.
    lits: Vec<i32>,
    /// The two watched literals (meaningful for watched clauses only).
    w0: i32,
    w1: i32,
    active: bool,
    /// Retired by a deletion step of the stream: inactive at its end.
    deleted: bool,
    /// RUP-verified at its step by a successful call (lemmas only).
    verified: bool,
    /// Byte offset of the step that added the clause.
    offset: usize,
    /// Bumped on every reactivation; watch entries with an older stamp
    /// are stale and dropped lazily.
    gen: u32,
    core: bool,
    input: bool,
    /// Contains both `l` and `¬l`: trivially valid and propagationally
    /// inert, so never watched and never RUP-checked.
    tautology: bool,
    /// Variable this clause currently forces on the trail (0 = none);
    /// checked against `reason[var]` before trusting it.
    reason_var: i32,
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: u32,
    gen: u32,
    blocker: i32,
}

/// A propagation conflict: the falsified clause (if any) and the literal
/// whose enqueue failed (0 when the clause was found falsified outright).
#[derive(Debug, Clone, Copy)]
struct Conflict {
    cause: Option<u32>,
    lit: i32,
}

#[inline]
fn enc(l: i32) -> usize {
    ((l.unsigned_abs() as usize - 1) << 1) | usize::from(l < 0)
}

/// Sorts by (variable, sign), dedups, and reports whether the clause is
/// a tautology.
fn normalize(lits: &[i32]) -> (Vec<i32>, bool) {
    let mut out = lits.to_vec();
    out.sort_unstable_by_key(|&l| (l.unsigned_abs(), l < 0));
    out.dedup();
    let taut = out
        .windows(2)
        .any(|w| w[0].unsigned_abs() == w[1].unsigned_abs());
    (out, taut)
}

#[derive(Debug, Default)]
struct Checker {
    clauses: Vec<CClause>,
    /// `watches[enc(x)]`: clauses currently watching literal `x`.
    watches: Vec<Vec<Watch>>,
    /// Truth value per variable (1-based index).
    assign: Vec<u8>,
    reason: Vec<u32>,
    trail_pos: Vec<usize>,
    trail: Vec<i32>,
    qhead: usize,
    /// Active size-1 clauses; re-enqueued after trail truncation (unit
    /// clauses have no watches, so nothing else would re-derive them).
    unit_crefs: Vec<u32>,
    /// Clauses suspected falsified under the root assignment; validated
    /// lazily before each use.
    falsified: Vec<u32>,
    /// A truncation happened since the last unit re-enqueue.
    dirty: bool,
    mark: Vec<u32>,
    stamp: u32,
    /// Core lemmas below the backward walk still awaiting a check.
    pending: usize,
    /// Input clauses marked core in this call.
    core_inputs: usize,
}

impl Checker {
    fn reserve(&mut self, lits: &[i32]) {
        let maxv = lits.iter().map(|l| l.unsigned_abs()).max().unwrap_or(0) as usize;
        if maxv >= self.assign.len() {
            self.assign.resize(maxv + 1, UNDEF);
            self.reason.resize(maxv + 1, NO_REASON);
            self.trail_pos.resize(maxv + 1, 0);
            self.mark.resize(maxv + 1, 0);
            self.watches.resize(2 * maxv, Vec::new());
        }
    }

    fn new_clause(&mut self, lits: Vec<i32>, input: bool, tautology: bool, offset: usize) -> u32 {
        self.reserve(&lits);
        let cref = self.clauses.len() as u32;
        self.clauses.push(CClause {
            lits,
            w0: 0,
            w1: 0,
            active: true,
            deleted: false,
            verified: false,
            offset,
            gen: 0,
            core: false,
            input,
            tautology,
            reason_var: 0,
        });
        cref
    }

    #[inline]
    fn value(&self, l: i32) -> u8 {
        let a = self.assign[l.unsigned_abs() as usize];
        if a == UNDEF {
            UNDEF
        } else if l < 0 {
            a ^ 1
        } else {
            a
        }
    }

    #[inline]
    fn assign_lit(&mut self, l: i32, r: u32) {
        let v = l.unsigned_abs() as usize;
        debug_assert_eq!(self.assign[v], UNDEF);
        self.assign[v] = if l < 0 { FALSE } else { TRUE };
        self.reason[v] = r;
        self.trail_pos[v] = self.trail.len();
        self.trail.push(l);
        if r != NO_REASON {
            self.clauses[r as usize].reason_var = v as i32;
        }
    }

    fn watch(&mut self, cref: u32, a: i32, b: i32) {
        let gen = self.clauses[cref as usize].gen;
        self.clauses[cref as usize].w0 = a;
        self.clauses[cref as usize].w1 = b;
        self.watches[enc(a)].push(Watch {
            cref,
            gen,
            blocker: b,
        });
        self.watches[enc(b)].push(Watch {
            cref,
            gen,
            blocker: a,
        });
    }

    /// Forgets the previous call's backward pass: every clause not
    /// retired by a deletion is active again, nothing is assigned,
    /// watched or marked core.
    fn rewind(&mut self) {
        for c in &mut self.clauses {
            c.active = !c.deleted;
            c.gen = 0;
            c.core = false;
            c.reason_var = 0;
        }
        for ws in &mut self.watches {
            ws.clear();
        }
        self.assign.fill(UNDEF);
        self.reason.fill(NO_REASON);
        self.trail.clear();
        self.qhead = 0;
        self.unit_crefs.clear();
        self.falsified.clear();
        self.dirty = false;
        self.pending = 0;
        self.core_inputs = 0;
    }

    /// Marks a clause core, counting new inputs and lemmas still due.
    fn set_core(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        if c.core {
            return;
        }
        c.core = true;
        if c.input {
            self.core_inputs += 1;
        } else if !c.verified {
            self.pending += 1;
        }
    }

    /// Builds watches and enqueues units over the clauses active at the
    /// end of the forward replay.
    fn init(&mut self) {
        for cref in 0..self.clauses.len() as u32 {
            let c = &self.clauses[cref as usize];
            if !c.active || c.tautology {
                continue;
            }
            match c.lits.len() {
                0 => self.falsified.push(cref),
                1 => {
                    self.unit_crefs.push(cref);
                    let l = self.clauses[cref as usize].lits[0];
                    match self.value(l) {
                        UNDEF => self.assign_lit(l, cref),
                        FALSE => self.falsified.push(cref),
                        _ => {}
                    }
                }
                _ => {
                    let (a, b) = {
                        let c = &self.clauses[cref as usize];
                        (c.lits[0], c.lits[1])
                    };
                    self.watch(cref, a, b);
                }
            }
        }
    }

    /// Unassigns the trail suffix from `pos` and rewinds the propagation
    /// queue to zero: the surviving prefix is self-justified (reasons only
    /// point backwards), but units it implied may have been cut out, so
    /// the whole prefix must be re-scanned for propagation completeness.
    fn truncate_from(&mut self, pos: usize) {
        for i in pos..self.trail.len() {
            let v = self.trail[i].unsigned_abs() as usize;
            self.assign[v] = UNDEF;
            self.reason[v] = NO_REASON;
        }
        self.trail.truncate(pos);
        self.qhead = 0;
        self.dirty = true;
    }

    fn deactivate(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        c.active = false;
        let rv = c.reason_var;
        c.reason_var = 0;
        if rv != 0 {
            let v = rv as usize;
            if self.assign[v] != UNDEF && self.reason[v] == cref {
                self.truncate_from(self.trail_pos[v]);
            }
        }
    }

    /// Re-enters a clause crossed backwards over its deletion step,
    /// re-establishing the watch/unit invariants under the *current*
    /// root assignment.
    fn reactivate(&mut self, cref: u32) {
        {
            let c = &mut self.clauses[cref as usize];
            c.gen += 1;
            c.active = true;
            if c.tautology {
                return;
            }
        }
        let lits = self.clauses[cref as usize].lits.clone();
        match lits.len() {
            0 => self.falsified.push(cref),
            1 => {
                self.unit_crefs.push(cref);
                match self.value(lits[0]) {
                    UNDEF => self.assign_lit(lits[0], cref),
                    FALSE => self.falsified.push(cref),
                    _ => {}
                }
            }
            _ => {
                let mut free = lits.iter().copied().filter(|&y| self.value(y) != FALSE);
                match (free.next(), free.next()) {
                    (Some(a), Some(b)) => self.watch(cref, a, b),
                    (Some(a), None) => {
                        // Unit (or satisfied): the second watch is a
                        // falsified literal, which is safe because any
                        // later truncation rewinds the queue to zero and
                        // re-scans the falsifier.
                        let b = lits.iter().copied().find(|&y| y != a).expect("len >= 2");
                        self.watch(cref, a, b);
                        if self.value(a) == UNDEF {
                            self.assign_lit(a, cref);
                        }
                    }
                    (None, _) => {
                        self.watch(cref, lits[0], lits[1]);
                        self.falsified.push(cref);
                    }
                }
            }
        }
    }

    /// Two-watched-literal unit propagation. On conflict the queue is
    /// left pointing at the triggering literal so the conflict is
    /// re-findable after the database changes.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            let widx = enc(-p);
            let mut ws = std::mem::take(&mut self.watches[widx]);
            let mut i = 0;
            let mut j = 0;
            let mut confl: Option<Conflict> = None;
            'entries: while i < ws.len() {
                let w = ws[i];
                i += 1;
                {
                    let c = &self.clauses[w.cref as usize];
                    if !c.active || c.gen != w.gen {
                        continue; // stale entry: drop
                    }
                }
                if self.value(w.blocker) == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let (other, falsified_is_w0) = {
                    let c = &self.clauses[w.cref as usize];
                    if c.w0 == -p {
                        (c.w1, true)
                    } else {
                        (c.w0, false)
                    }
                };
                if self.value(other) == TRUE {
                    ws[j] = Watch {
                        blocker: other,
                        ..w
                    };
                    j += 1;
                    continue;
                }
                let replacement = {
                    let c = &self.clauses[w.cref as usize];
                    c.lits
                        .iter()
                        .copied()
                        .find(|&y| y != c.w0 && y != c.w1 && self.value(y) != FALSE)
                };
                if let Some(y) = replacement {
                    {
                        let c = &mut self.clauses[w.cref as usize];
                        if falsified_is_w0 {
                            c.w0 = y;
                        } else {
                            c.w1 = y;
                        }
                    }
                    self.watches[enc(y)].push(Watch {
                        blocker: other,
                        ..w
                    });
                    continue; // moved off this list
                }
                // Unit or conflicting on `other`.
                ws[j] = Watch {
                    blocker: other,
                    ..w
                };
                j += 1;
                if self.value(other) == FALSE {
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    confl = Some(Conflict {
                        cause: Some(w.cref),
                        lit: other,
                    });
                    break 'entries;
                }
                self.assign_lit(other, w.cref);
            }
            ws.truncate(j);
            self.watches[widx] = ws;
            if confl.is_some() {
                // Leave qhead at `p`: re-propagation re-finds the
                // conflict for as long as it persists.
                return confl;
            }
            self.qhead += 1;
        }
        None
    }

    /// Brings the root assignment to a propagation fixpoint, reporting a
    /// conflict if the active database is propagationally unsatisfiable.
    fn root_conflict(&mut self) -> Option<Conflict> {
        // Validate suspected-falsified clauses lazily, draining stale
        // entries until one is confirmed (kept for re-discovery) or the
        // list is empty.
        while let Some(&cref) = self.falsified.last() {
            let c = &self.clauses[cref as usize];
            if c.active && c.lits.iter().all(|&l| self.value(l) == FALSE) {
                return Some(Conflict {
                    cause: Some(cref),
                    lit: 0,
                });
            }
            self.falsified.pop();
        }
        if self.dirty {
            self.dirty = false;
            let units = std::mem::take(&mut self.unit_crefs);
            let mut confl = None;
            for &cref in &units {
                let c = &self.clauses[cref as usize];
                if !c.active {
                    continue;
                }
                let l = c.lits[0];
                match self.value(l) {
                    UNDEF => self.assign_lit(l, cref),
                    FALSE => {
                        self.falsified.push(cref);
                        confl = Some(Conflict {
                            cause: Some(cref),
                            lit: 0,
                        });
                    }
                    _ => {}
                }
            }
            self.unit_crefs = units
                .into_iter()
                .filter(|&c| self.clauses[c as usize].active)
                .collect();
            if confl.is_some() {
                return confl;
            }
        }
        if let Some(c) = self.propagate() {
            if let Some(cref) = c.cause {
                // Found at the root: a genuinely falsified clause.
                self.falsified.push(cref);
            }
            return Some(c);
        }
        None
    }

    /// Marks the conflict's antecedent cone: the falsified clause plus
    /// every reason clause reachable through the implication graph.
    fn mark_core(&mut self, confl: &Conflict) {
        self.stamp += 1;
        let mut stack: Vec<usize> = Vec::new();
        if let Some(cref) = confl.cause {
            self.set_core(cref);
            for &l in &self.clauses[cref as usize].lits {
                stack.push(l.unsigned_abs() as usize);
            }
        }
        if confl.lit != 0 {
            stack.push(confl.lit.unsigned_abs() as usize);
        }
        while let Some(v) = stack.pop() {
            if self.mark[v] == self.stamp {
                continue;
            }
            self.mark[v] = self.stamp;
            if self.assign[v] == UNDEF {
                continue;
            }
            let r = self.reason[v];
            if r == NO_REASON {
                continue;
            }
            self.set_core(r);
            for &l in &self.clauses[r as usize].lits {
                stack.push(l.unsigned_abs() as usize);
            }
        }
    }

    /// RUP check of `lits` against the currently active database,
    /// marking antecedents core on success.
    fn rup_check(&mut self, lits: &[i32]) -> bool {
        if let Some(c) = self.root_conflict() {
            self.mark_core(&c);
            return true;
        }
        let root_len = self.trail.len();
        debug_assert_eq!(self.qhead, root_len);
        let mut confl: Option<Conflict> = None;
        for &l in lits {
            match self.value(l) {
                // Asserting ¬l contradicts the root-propagated l: the
                // conflict is l's own reason chain.
                TRUE => {
                    confl = Some(Conflict {
                        cause: None,
                        lit: l,
                    });
                    break;
                }
                FALSE => {}
                _ => self.assign_lit(-l, NO_REASON),
            }
        }
        if confl.is_none() {
            confl = self.propagate();
        }
        // Mark before undoing: marking walks the live reason graph.
        let ok = match &confl {
            Some(c) => {
                self.mark_core(c);
                true
            }
            None => false,
        };
        for i in root_len..self.trail.len() {
            let v = self.trail[i].unsigned_abs() as usize;
            self.assign[v] = UNDEF;
            self.reason[v] = NO_REASON;
        }
        self.trail.truncate(root_len);
        self.qhead = root_len;
        ok
    }
}

/// Checks a complete binary-DRAT stream.
///
/// The certified claim on success: the conjunction of the stream's input
/// clauses implies [`CheckOutcome::final_clause`] (the last lemma). An
/// empty final clause certifies the inputs unsatisfiable.
pub fn check_proof(bytes: &[u8]) -> Result<CheckOutcome, ProofError> {
    SessionChecker::default().check(bytes)
}

/// A backward checker that persists across calls on one growing stream
/// (see the module docs for what it remembers and why that is sound).
///
/// Each [`check`](Self::check) certifies the same claim as
/// [`check_proof`] on the same bytes, with the same error variants, step
/// indices and byte offsets, all absolute within the stream.
#[derive(Debug, Default)]
pub struct SessionChecker {
    /// The stream bytes consumed so far; the next call must extend them.
    consumed: Vec<u8>,
    db: Checker,
    /// Per step: its kind and the clause it adds or retires.
    steps: Vec<(StepKind, u32)>,
    /// Clause copies with no deletion yet, bucketed by normalized-clause
    /// hash in insertion order (deletions resolve against this multiset).
    by_key: HashMap<u64, Vec<u32>>,
    key_hasher: RandomState,
    last_lemma: Option<usize>,
    inputs: usize,
    lemmas: usize,
    deletions: usize,
}

impl SessionChecker {
    /// Creates a checker that has consumed nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks the whole stream `bytes`, doing only the work its new
    /// suffix requires when it extends the stream of the previous call.
    pub fn check(&mut self, bytes: &[u8]) -> Result<CheckOutcome, ProofError> {
        if !bytes.starts_with(&self.consumed) {
            // The consumed prefix changed: nothing learnt from it holds.
            *self = Self::default();
        }
        let out = self
            .replay_suffix(bytes)
            .and_then(|()| self.check_backward(bytes));
        if out.is_err() {
            *self = Self::default();
        }
        out
    }

    /// Forward replay of the unconsumed suffix: adds its clauses and
    /// resolves each deletion to a concrete clause copy (multiset
    /// semantics).
    fn replay_suffix(&mut self, bytes: &[u8]) -> Result<(), ProofError> {
        let mut pos = self.consumed.len();
        let mut lits = Vec::new();
        while pos < bytes.len() {
            let offset = pos;
            lits.clear();
            let (kind, next) = decode_step(bytes, offset, &mut lits)?;
            pos = next;
            let step = self.steps.len();
            let (key, taut) = normalize(&lits);
            let hash = self.key_hasher.hash_one(&key);
            match kind {
                StepKind::Input | StepKind::Add => {
                    let is_input = kind == StepKind::Input;
                    let cref = self.db.new_clause(key, is_input, taut, offset);
                    self.by_key.entry(hash).or_default().push(cref);
                    self.steps.push((kind, cref));
                    if is_input {
                        self.inputs += 1;
                    } else {
                        self.lemmas += 1;
                        self.last_lemma = Some(step);
                    }
                }
                StepKind::Delete => {
                    self.deletions += 1;
                    let clauses = &self.db.clauses;
                    let same = |c: &u32| clauses[*c as usize].lits == key;
                    // Prefer retiring a lemma copy over an input copy
                    // (inputs are axioms; when the producer's root-level
                    // GC deletes an input clause, its level-0-stripped
                    // form was also logged as a lemma, so the lemma copy
                    // is the one to spend).
                    let found = self.by_key.get_mut(&hash).and_then(|list| {
                        list.iter()
                            .rposition(|c| same(c) && !clauses[*c as usize].input)
                            .or_else(|| list.iter().rposition(same))
                            .map(|at| list.remove(at))
                    });
                    let Some(cref) = found else {
                        return Err(ProofError::BogusDeletion { step, clause: lits });
                    };
                    self.db.clauses[cref as usize].deleted = true;
                    self.steps.push((kind, cref));
                }
            }
        }
        self.consumed
            .extend_from_slice(&bytes[self.consumed.len()..]);
        Ok(())
    }

    /// Backward pass: reactivate deletions, deactivate lemmas, RUP-check
    /// the core ones no earlier call verified. Inputs stay active
    /// throughout (axioms).
    fn check_backward(&mut self, bytes: &[u8]) -> Result<CheckOutcome, ProofError> {
        let target = self.last_lemma.ok_or(ProofError::NoLemma)?;
        let db = &mut self.db;
        db.rewind();
        db.init();
        let target_cref = self.steps[target].1;
        db.set_core(target_cref);
        let mut core_lemmas = 0;
        for i in (0..self.steps.len()).rev() {
            if db.pending == 0 {
                break;
            }
            let (kind, cref) = self.steps[i];
            match kind {
                StepKind::Delete => db.reactivate(cref),
                StepKind::Input => {}
                StepKind::Add => {
                    let c = &db.clauses[cref as usize];
                    let due = c.core && !c.verified;
                    db.deactivate(cref);
                    if !due {
                        continue;
                    }
                    db.pending -= 1;
                    core_lemmas += 1;
                    let c = &db.clauses[cref as usize];
                    if !c.tautology {
                        let (lits, offset) = (c.lits.clone(), c.offset);
                        if !db.rup_check(&lits) {
                            let mut clause = Vec::new();
                            decode_step(bytes, offset, &mut clause)?;
                            return Err(ProofError::LemmaNotImplied { step: i, clause });
                        }
                    }
                    db.clauses[cref as usize].verified = true;
                }
            }
        }
        let mut final_clause = db.clauses[target_cref as usize].lits.clone();
        final_clause.sort_unstable();
        Ok(CheckOutcome {
            steps: self.steps.len(),
            inputs: self.inputs,
            lemmas: self.lemmas,
            deletions: self.deletions,
            core_lemmas,
            core_inputs: db.core_inputs,
            final_clause,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProofWriter;

    #[test]
    fn simple_refutation_is_accepted_and_fully_core() {
        let mut w = ProofWriter::new();
        w.add_input(&[1, 2]);
        w.add_input(&[-1, 2]);
        w.add_input(&[1, -2]);
        w.add_input(&[-1, -2]);
        w.add_lemma(&[2]);
        w.add_lemma(&[]);
        let out = check_proof(w.bytes()).expect("valid refutation");
        assert_eq!(out.steps, 6);
        assert_eq!((out.inputs, out.lemmas, out.deletions), (4, 2, 0));
        assert_eq!(out.core_lemmas, 2);
        assert_eq!(out.core_inputs, 4);
        assert!(out.final_clause.is_empty());
        assert!((out.trim_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unused_lemmas_are_trimmed() {
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[-1]);
        w.add_input(&[7, 8]); // irrelevant input
        w.add_lemma(&[7]); // RUP? assert -7: no conflict... must be implied!
        w.add_lemma(&[]);
        // Lemma [7] is NOT implied, but it is also not on the core, so
        // backward checking never examines it: trimming in action.
        let out = check_proof(w.bytes()).expect("refutation via units");
        assert_eq!(out.core_lemmas, 1);
        assert_eq!(out.core_inputs, 2);
        assert!(out.trim_ratio() < 1.0);
    }

    #[test]
    fn non_core_bogus_lemma_still_requires_core_to_hold() {
        // Same stream but with the refutation broken: now the checker
        // must reject, proving the trim does not skip *needed* steps.
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[7, 8]);
        w.add_lemma(&[]);
        match check_proof(w.bytes()) {
            Err(ProofError::LemmaNotImplied { step, .. }) => assert_eq!(step, 2),
            other => panic!("expected LemmaNotImplied at step 2, got {other:?}"),
        }
    }

    #[test]
    fn final_nonempty_lemma_is_certified() {
        // The assumption-conflict shape: the stream ends with a
        // non-empty clause implied by the inputs.
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[-1, 2]);
        w.add_lemma(&[2]);
        let out = check_proof(w.bytes()).expect("implied unit");
        assert_eq!(out.final_clause, vec![2]);
        assert_eq!(out.core_inputs, 2);
    }

    #[test]
    fn tautology_lemma_is_trivially_valid() {
        let mut w = ProofWriter::new();
        w.add_input(&[5]);
        w.add_lemma(&[2, -2]);
        let out = check_proof(w.bytes()).expect("tautology");
        assert_eq!(out.final_clause, vec![-2, 2]);
        assert_eq!(out.core_inputs, 0);
    }

    #[test]
    fn deletion_before_use_is_rejected() {
        let mut w = ProofWriter::new();
        w.add_input(&[1, 2]);
        w.add_input(&[-1, 2]);
        w.add_input(&[-2, 3]);
        w.add_input(&[-2, -3]);
        w.add_lemma(&[2]);
        w.delete(&[2]); // retire the lemma...
        w.add_lemma(&[]); // ...then use it: without [2] nothing propagates
        match check_proof(w.bytes()) {
            Err(ProofError::LemmaNotImplied { step, .. }) => assert_eq!(step, 6),
            other => panic!("expected LemmaNotImplied at step 6, got {other:?}"),
        }
    }

    #[test]
    fn deletion_after_use_is_accepted() {
        let mut w = ProofWriter::new();
        w.add_input(&[1, 2]);
        w.add_input(&[-1, 2]);
        w.add_input(&[-2, 3]);
        w.add_input(&[-2, -3]);
        w.add_lemma(&[2]);
        w.add_lemma(&[3]);
        w.delete(&[2]);
        w.add_lemma(&[]);
        let out = check_proof(w.bytes()).expect("deletion after use");
        assert_eq!(out.deletions, 1);
        assert_eq!(out.core_lemmas, 3);
    }

    #[test]
    fn bogus_deletion_is_rejected_with_step_index() {
        let mut w = ProofWriter::new();
        w.add_input(&[1, 2]);
        w.delete(&[3, 4]);
        w.add_lemma(&[]);
        match check_proof(w.bytes()) {
            Err(ProofError::BogusDeletion { step, clause }) => {
                assert_eq!(step, 1);
                assert_eq!(clause, vec![3, 4]);
            }
            other => panic!("expected BogusDeletion at step 1, got {other:?}"),
        }
    }

    #[test]
    fn double_deletion_of_single_copy_is_bogus() {
        let mut w = ProofWriter::new();
        w.add_input(&[-1]);
        w.add_lemma(&[1, 2]); // not implied, but never on the core
        w.delete(&[1, 2]);
        w.delete(&[2, 1]); // same clause modulo order: no copy left
        w.add_lemma(&[]);
        match check_proof(w.bytes()) {
            Err(ProofError::BogusDeletion { step, .. }) => assert_eq!(step, 3),
            other => panic!("expected BogusDeletion at step 3, got {other:?}"),
        }
    }

    #[test]
    fn multiset_deletion_consumes_one_copy_at_a_time() {
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[-1, 2]);
        w.add_lemma(&[2]);
        w.add_lemma(&[2]); // second copy of the same lemma
        w.delete(&[2]); // removes one copy; the other remains usable
        w.add_input(&[-2]);
        w.add_lemma(&[]);
        let out = check_proof(w.bytes()).expect("one copy survives");
        assert_eq!(out.deletions, 1);
    }

    #[test]
    fn empty_stream_and_lemma_free_stream_are_rejected() {
        assert_eq!(check_proof(&[]), Err(ProofError::NoLemma));
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[-1]);
        assert_eq!(check_proof(w.bytes()), Err(ProofError::NoLemma));
    }

    #[test]
    fn contradictory_unit_inputs_refute() {
        let mut w = ProofWriter::new();
        w.add_input(&[4]);
        w.add_input(&[-4]);
        w.add_lemma(&[]);
        let out = check_proof(w.bytes()).expect("unit clash");
        assert_eq!(out.core_inputs, 2);
    }

    #[test]
    fn inputs_after_lemmas_are_usable_axioms() {
        // The incremental stream shape: a lemma from an early solve call,
        // then formula growth, then a refutation using both.
        let mut w = ProofWriter::new();
        w.add_input(&[1, 2]);
        w.add_input(&[-1, 2]);
        w.add_lemma(&[2]); // call 1 derives this
        w.add_input(&[-2]); // formula grows between calls
        w.add_lemma(&[]); // call 2 refutes
        let out = check_proof(w.bytes()).expect("incremental shape");
        assert_eq!(out.core_lemmas, 2);
        assert_eq!(out.core_inputs, 3);
    }

    #[test]
    fn pigeonhole_resolution_chain_is_accepted() {
        // 3 pigeons / 2 holes with a hand-built resolution-style DRUP
        // derivation; every lemma is RUP at its position.
        // Vars: p(i,j) = i*2 + j + 1 for pigeon i, hole j.
        let v = |i: i32, j: i32| i * 2 + j + 1;
        let mut w = ProofWriter::new();
        for i in 0..3 {
            w.add_input(&[v(i, 0), v(i, 1)]);
        }
        for j in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    w.add_input(&[-v(a, j), -v(b, j)]);
                }
            }
        }
        // Assume pigeon 0 in hole 0: pigeons 1,2 must share hole 1.
        w.add_lemma(&[-v(0, 0), v(1, 1)]);
        w.add_lemma(&[-v(0, 0), v(2, 1)]);
        w.add_lemma(&[-v(0, 0)]);
        // So pigeon 0 is in hole 1; pigeons 1,2 must share hole 0.
        w.add_lemma(&[v(0, 1)]);
        w.add_lemma(&[v(1, 0)]);
        w.add_lemma(&[v(2, 0)]);
        w.add_lemma(&[]);
        let out = check_proof(w.bytes()).expect("pigeonhole refutation");
        assert!(out.final_clause.is_empty());
        assert!(out.core_lemmas >= 4);
    }

    #[test]
    fn flipped_literal_in_core_lemma_is_rejected_at_its_step() {
        // Chain 1→2→3: [3] is implied, the flipped [-3] is not.
        let mut w = ProofWriter::new();
        w.add_input(&[1]);
        w.add_input(&[-1, 2]);
        w.add_input(&[-2, 3]);
        w.add_lemma(&[-3]);
        match check_proof(w.bytes()) {
            Err(ProofError::LemmaNotImplied { step, clause }) => {
                assert_eq!(step, 3);
                assert_eq!(clause, vec![-3]);
            }
            other => panic!("expected LemmaNotImplied at step 3, got {other:?}"),
        }
    }
}

//! The session checker against fresh checks of the same bytes.
//!
//! A [`SessionChecker`] fed a growing stream call by call must give
//! exactly what [`check_proof`] gives on each prefix: the same
//! accept/reject, final clause, error variant, step index and byte
//! offset. The randomized half builds streams shaped like an incremental
//! session (inputs interleaved with lemmas, deletions, and one
//! concluding lemma per call) and corrupts some calls' suffixes. The
//! fixtures pin the cases the lemma memo and the prefix check exist for.

use hk_proof::{check_proof, CheckOutcome, ProofError, ProofWriter, SessionChecker, StepKind};

/// Deterministic xorshift64* PRNG (no external crates).
struct XorShift64(u64);

impl XorShift64 {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn lit(&mut self, vars: usize) -> i32 {
        let v = self.below(vars) as i32 + 1;
        if self.below(2) == 0 {
            v
        } else {
            -v
        }
    }
}

/// Asserts that a session call and a fresh check agree on everything a
/// caller can rely on (`core_lemmas`/`core_inputs` count this call's
/// work, so they may differ).
fn assert_agree(
    session: &Result<CheckOutcome, ProofError>,
    fresh: &Result<CheckOutcome, ProofError>,
    what: &str,
) {
    match (session, fresh) {
        (Ok(s), Ok(f)) => {
            assert_eq!(s.final_clause, f.final_clause, "{what}: final clause");
            assert_eq!(
                (s.steps, s.inputs, s.lemmas, s.deletions),
                (f.steps, f.inputs, f.lemmas, f.deletions),
                "{what}: step counts"
            );
        }
        (Err(s), Err(f)) => assert_eq!(s, f, "{what}: error"),
        _ => panic!("{what}: session gave {session:?}, fresh gave {fresh:?}"),
    }
}

fn serialize(steps: &[(StepKind, Vec<i32>)]) -> Vec<u8> {
    let mut w = ProofWriter::new();
    for (kind, lits) in steps {
        match kind {
            StepKind::Input => w.add_input(lits),
            StepKind::Add => w.add_lemma(lits),
            StepKind::Delete => w.delete(lits),
        }
    }
    w.bytes().to_vec()
}

/// Builds an honest session stream call by call. Every lemma is a
/// resolvent or a weakening of clauses active at its step, so it is RUP
/// there and stays RUP as the stream grows.
struct SessionGen {
    rng: XorShift64,
    vars: usize,
    /// Clauses active at the end of the stream (inputs and lemma copies).
    active: Vec<Vec<i32>>,
    /// Indices into `active` that are lemma copies (deletable).
    lemma_copies: Vec<usize>,
    steps: Vec<(StepKind, Vec<i32>)>,
}

impl SessionGen {
    fn new(seed: u64) -> Self {
        let mut rng = XorShift64(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1);
        let vars = 6 + rng.below(6);
        Self {
            rng,
            vars,
            active: Vec::new(),
            lemma_copies: Vec::new(),
            steps: Vec::new(),
        }
    }

    fn random_clause(&mut self) -> Vec<i32> {
        loop {
            let width = 2 + self.rng.below(2);
            let c: Vec<i32> = (0..width).map(|_| self.rng.lit(self.vars)).collect();
            if !c.iter().any(|&l| c.contains(&-l)) {
                return c;
            }
        }
    }

    /// A clause implied by the active set: a resolvent when a clashing
    /// pair turns up, else a weakening of an active clause.
    fn implied_clause(&mut self) -> Vec<i32> {
        for _ in 0..20 {
            let a = self.active[self.rng.below(self.active.len())].clone();
            let b = self.active[self.rng.below(self.active.len())].clone();
            let Some(&pivot) = a.iter().find(|&&l| b.contains(&-l)) else {
                continue;
            };
            let mut r: Vec<i32> = a.iter().copied().filter(|&l| l != pivot).collect();
            r.extend(b.iter().copied().filter(|&l| l != -pivot));
            if !r.iter().any(|&l| r.contains(&-l)) {
                self.shuffle(&mut r);
                return r;
            }
        }
        let mut c = self.active[self.rng.below(self.active.len())].clone();
        c.push(self.rng.lit(self.vars));
        c
    }

    fn shuffle(&mut self, c: &mut [i32]) {
        for i in (1..c.len()).rev() {
            c.swap(i, self.rng.below(i + 1));
        }
    }

    fn input(&mut self, c: Vec<i32>) {
        self.active.push(c.clone());
        self.steps.push((StepKind::Input, c));
    }

    fn lemma(&mut self, c: Vec<i32>) {
        self.lemma_copies.push(self.active.len());
        self.active.push(c.clone());
        self.steps.push((StepKind::Add, c));
    }

    /// Appends one solve call's worth of steps; returns its first index.
    fn call(&mut self) -> usize {
        let start = self.steps.len();
        let inputs = if self.active.is_empty() {
            6
        } else {
            1 + self.rng.below(4)
        };
        for _ in 0..inputs {
            let c = self.random_clause();
            self.input(c);
        }
        for _ in 0..self.rng.below(5) {
            match self.rng.below(6) {
                0 if !self.lemma_copies.is_empty() => {
                    // Retire a lemma copy (swap-remove keeps indices dense).
                    let k = self.rng.below(self.lemma_copies.len());
                    let idx = self.lemma_copies.swap_remove(k);
                    let c = self.active.swap_remove(idx);
                    let moved = self.active.len();
                    for i in &mut self.lemma_copies {
                        if *i == moved {
                            *i = idx;
                        }
                    }
                    self.steps.push((StepKind::Delete, c));
                }
                1 if !self.lemma_copies.is_empty() => {
                    // A duplicate copy of an existing lemma.
                    let k = self.lemma_copies[self.rng.below(self.lemma_copies.len())];
                    let c = self.active[k].clone();
                    self.lemma(c);
                }
                _ => {
                    let c = self.implied_clause();
                    self.lemma(c);
                }
            }
        }
        let concl = self.implied_clause();
        self.lemma(concl);
        start
    }
}

/// One way to spoil a call's suffix `steps[from..]`, at the step or the
/// byte level.
fn corrupt(
    rng: &mut XorShift64,
    steps: &[(StepKind, Vec<i32>)],
    from: usize,
    vars: usize,
) -> Vec<u8> {
    let mut steps = steps.to_vec();
    let pick = from + rng.below(steps.len() - from);
    match rng.below(6) {
        0 => {
            // Flip one literal of a step of the suffix.
            let c = &mut steps[pick].1;
            if !c.is_empty() {
                let i = rng.below(c.len());
                c[i] = -c[i];
            }
        }
        1 => {
            steps.remove(pick);
        }
        2 => {
            // Replace the concluding lemma with a random clause.
            let last = steps.len() - 1;
            steps[last].1 = (0..1 + rng.below(2)).map(|_| rng.lit(vars)).collect();
        }
        3 => {
            // Delete a clause that is (most likely) not there.
            let c = (0..3).map(|_| rng.lit(vars)).collect();
            steps.insert(pick + 1, (StepKind::Delete, c));
        }
        4 => {
            let mut bytes = serialize(&steps);
            bytes.pop(); // drop the last terminator
            return bytes;
        }
        _ => {
            let mut bytes = serialize(&steps);
            let prefix = serialize(&steps[..pick]).len();
            bytes[prefix] = b'x'; // clobber a suffix step's tag
            return bytes;
        }
    }
    serialize(&steps)
}

#[test]
fn session_matches_fresh_checks_on_random_sessions() {
    let (mut session_core, mut fresh_core) = (0usize, 0usize);
    let mut rejected = 0;
    for seed in 0..300u64 {
        let mut g = SessionGen::new(seed);
        let mut checker = SessionChecker::new();
        let calls = 3 + g.rng.below(6);
        let corrupt_at = g.rng.below(calls + 2); // sometimes never
        for call in 0..calls {
            let from = g.call();
            if call == corrupt_at {
                // Probe a spoiled suffix, then carry on with the honest
                // stream: its prefix no longer matches what the session
                // consumed, so it must start over.
                let bad = corrupt(&mut g.rng, &g.steps, from, g.vars);
                let (s, f) = (checker.check(&bad), check_proof(&bad));
                assert_agree(&s, &f, &format!("seed {seed} call {call} (corrupted)"));
                rejected += usize::from(f.is_err());
            }
            let bytes = serialize(&g.steps);
            let (s, f) = (checker.check(&bytes), check_proof(&bytes));
            assert_agree(&s, &f, &format!("seed {seed} call {call}"));
            let (s, f) = (s.expect("honest stream checks"), f.expect("honest"));
            session_core += s.core_lemmas;
            fresh_core += f.core_lemmas;
        }
    }
    assert!(
        rejected >= 50,
        "too few corruptions were caught: {rejected}"
    );
    assert!(
        session_core < fresh_core,
        "the memo never saved a check ({session_core} vs {fresh_core})"
    );
}

// --- Fixtures -------------------------------------------------------

/// Propagation stalls without lemmas: `1` follows only from case splits
/// on `2` and `3`, and `¬1` only from splits on `4` and `5`.
const INPUTS: [[i32; 3]; 8] = [
    [1, 2, 3],
    [1, 2, -3],
    [1, -2, 3],
    [1, -2, -3],
    [-1, 4, 5],
    [-1, 4, -5],
    [-1, -4, 5],
    [-1, -4, -5],
];

/// Call 1: the inputs (steps 0..8), then `[1, 2]` (step 8) and the
/// concluding `[1]` (step 9).
fn call1() -> ProofWriter {
    let mut w = ProofWriter::new();
    for c in &INPUTS {
        w.add_input(c);
    }
    w.add_lemma(&[1, 2]);
    w.add_lemma(&[1]);
    w
}

#[test]
fn memo_skips_only_lemmas_verified_earlier() {
    let mut checker = SessionChecker::new();
    let out = checker.check(call1().bytes()).expect("call 1");
    assert_eq!((out.core_lemmas, out.final_clause.clone()), (2, vec![1]));
    let mut w = call1();
    w.add_lemma(&[4]); // step 10: RUP from [1] and the inputs
    let out = checker.check(w.bytes()).expect("call 2");
    assert_eq!(out.final_clause, vec![4]);
    assert_eq!(out.core_lemmas, 1, "[1] and [1, 2] were verified by call 1");
    assert_eq!(check_proof(w.bytes()).expect("fresh").core_lemmas, 3);
    // Nothing appended: the conclusion is already verified.
    let out = checker.check(w.bytes()).expect("call 3");
    assert_eq!((out.core_lemmas, out.final_clause), (0, vec![4]));
}

#[test]
fn verified_lemma_deleted_in_the_suffix_is_not_available() {
    let mut checker = SessionChecker::new();
    checker.check(call1().bytes()).expect("call 1");
    let mut w = call1();
    w.delete(&[1]); // step 10: retire the lemma call 1 verified...
    w.add_lemma(&[4]); // step 11: ...which this refutation needs
    let want = Err(ProofError::LemmaNotImplied {
        step: 11,
        clause: vec![4],
    });
    assert_eq!(checker.check(w.bytes()), want);
    assert_eq!(check_proof(w.bytes()), want);
}

/// A stream whose step 9 is `[-1]` (not implied) and whose conclusion
/// leans on it: input `[1, 6]` (step 10), lemma `[6]` (step 11).
fn flipped_then_used() -> ProofWriter {
    let mut w = ProofWriter::new();
    for c in &INPUTS {
        w.add_input(c);
    }
    w.add_lemma(&[1, 2]);
    w.add_lemma(&[-1]);
    w.add_input(&[1, 6]);
    w.add_lemma(&[6]);
    w
}

#[test]
fn flipped_literal_in_a_verified_lemma_is_caught() {
    let mut checker = SessionChecker::new();
    checker
        .check(call1().bytes())
        .expect("call 1 verifies step 9 = [1]");
    let w = flipped_then_used();
    let want = Err(ProofError::LemmaNotImplied {
        step: 9,
        clause: vec![-1],
    });
    assert_eq!(check_proof(w.bytes()), want);
    assert_eq!(
        checker.check(w.bytes()),
        want,
        "memo trusted a changed step"
    );
}

#[test]
fn divergent_tail_is_checked_from_scratch() {
    // As after a race swap-in: the new stream shares steps 0..9 with
    // call 1, then goes its own way.
    let mut checker = SessionChecker::new();
    checker.check(call1().bytes()).expect("call 1");
    let mut w = ProofWriter::new();
    for c in &INPUTS {
        w.add_input(c);
    }
    w.add_lemma(&[1, 2]);
    w.add_lemma(&[1, 3]); // step 9 differs from call 1's [1]
    w.add_lemma(&[1]);
    w.add_lemma(&[4]);
    let fresh = check_proof(w.bytes()).expect("fresh");
    let out = checker.check(w.bytes()).expect("session");
    assert_eq!(out, fresh, "nothing from call 1 may be reused");
    // A shorter stream is a changed prefix too.
    assert_eq!(checker.check(call1().bytes()), check_proof(call1().bytes()));
}

#[test]
fn malformed_suffix_reports_its_absolute_offset() {
    let base = call1();
    let mut checker = SessionChecker::new();
    checker.check(base.bytes()).expect("call 1");
    let mut bytes = base.bytes().to_vec();
    let mut w = ProofWriter::new();
    w.add_lemma(&[4]);
    bytes.extend_from_slice(w.bytes());
    let bad_tag = bytes.len();
    bytes.push(0x7f);
    let want = Err(ProofError::Malformed {
        offset: bad_tag,
        detail: "unknown step tag",
    });
    assert_eq!(checker.check(&bytes), want);
    assert_eq!(check_proof(&bytes), want);
    // A failed call forgets everything; the honest stream still checks.
    bytes.pop();
    assert_eq!(checker.check(&bytes), check_proof(&bytes));
    // A truncated varint in the suffix: the offset points past call 1.
    checker.check(base.bytes()).expect("call 1 again");
    bytes.push(b'a');
    bytes.push(0x85);
    match checker.check(&bytes) {
        Err(ProofError::Malformed { offset, .. }) => {
            assert!(offset > base.byte_len(), "offset {offset} is not absolute");
            assert_eq!(checker.check(&bytes), check_proof(&bytes));
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}

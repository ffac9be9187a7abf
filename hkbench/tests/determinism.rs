//! Two runs at the same seed must do the same work: identical conflicts,
//! propagations, CNF sizes, proof steps, cache hits and queries. A drift
//! here means the work changed, not the machine. Every verdict must also
//! match its known answer, and the traced pass's layer self times plus
//! `unattributed_s` must add up to its traced wall.
//!
//! The Theorem 1 plans are cut to a few handlers to keep the test short;
//! `t2_decl` and `edit_loop` run in full. Run with
//! `cargo test --release --manifest-path hkbench/Cargo.toml`.

use std::path::Path;

use hkbench::trace::Tracer;
use hkbench::{run_pass, Counts, Plan, Setups, Workload};

const SEED: u64 = 7;

fn twice(plan: &Plan) -> (Counts, Counts) {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let a = run_pass(plan, Setups::ONCE, out_dir, &mut Tracer::off());
    let mut tracer = Tracer::on();
    let b = run_pass(plan, Setups::ONCE, out_dir, &mut tracer);
    let breakdown = tracer.breakdown();
    assert!(
        breakdown.consistent(),
        "layer times do not add up: {breakdown:?}"
    );
    assert!(
        a.oracle.failures.is_empty(),
        "wrong verdicts: {:?}",
        a.oracle.failures
    );
    assert!(
        b.oracle.failures.is_empty(),
        "wrong verdicts: {:?}",
        b.oracle.failures
    );
    (a.counts, b.counts)
}

fn truncated(plan: Plan, n: usize) -> Plan {
    match plan {
        Plan::Theorem1 {
            mut handlers,
            certify,
        } => {
            handlers.truncate(n);
            Plan::Theorem1 { handlers, certify }
        }
        other => other,
    }
}

#[test]
fn t1_sweep_counts_repeat() {
    let (a, b) = twice(&truncated(Workload::T1Sweep.plan(SEED), 8));
    assert!(a.queries > 0 && a.conflicts > 0);
    assert_eq!(a, b);
}

#[test]
fn t1_certified_counts_repeat() {
    let (a, b) = twice(&truncated(Workload::T1Certified.plan(SEED), 1));
    assert!(a.proof_steps > 0);
    assert_eq!(a, b);
}

#[test]
fn t2_decl_counts_repeat() {
    let (a, b) = twice(&Workload::T2Decl.plan(SEED));
    assert!(a.propagations > 0 && a.cnf_clauses > 0);
    assert_eq!(a, b);
}

#[test]
fn edit_loop_counts_repeat() {
    let (a, b) = twice(&Workload::EditLoop.plan(SEED));
    assert!(a.cache_hits > 0);
    assert_eq!(a, b);
}

#[test]
fn seed_fixes_the_plan() {
    for w in Workload::ALL {
        assert_eq!(format!("{:?}", w.plan(SEED)), format!("{:?}", w.plan(SEED)));
    }
    assert_ne!(
        format!("{:?}", Workload::EditLoop.plan(1)),
        format!("{:?}", Workload::EditLoop.plan(2))
    );
}

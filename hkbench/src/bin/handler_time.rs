//! Times Theorem 1 for single handlers the way `t1_sweep` verifies them:
//! default solver, fresh in-memory cache, one thread. This is how the
//! sweep's handler set was chosen; run each handler under `timeout` to
//! cap the slow ones:
//!
//! ```text
//! timeout 60 hkbench/target/release/handler_time sys_kill
//! ```

use std::path::Path;

use hk_abi::Sysno;
use hkbench::trace::Tracer;
use hkbench::{run_pass, Plan, Setups};

fn main() {
    for name in std::env::args().skip(1) {
        let Some(sysno) = Sysno::ALL.into_iter().find(|s| s.func_name() == name) else {
            eprintln!("handler_time: unknown handler {name}");
            std::process::exit(2);
        };
        let plan = Plan::Theorem1 {
            handlers: vec![sysno],
            certify: false,
        };
        let pass = run_pass(&plan, Setups::ONCE, Path::new("."), &mut Tracer::off());
        let verdict = if pass.oracle.failures.is_empty() {
            "ok"
        } else {
            "WRONG"
        };
        println!(
            "{name} {verdict} {:.2} s, {} conflicts",
            pass.wall_s, pass.counts.conflicts
        );
    }
}

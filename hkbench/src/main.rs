//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! hkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run repeats untraced passes of the workload
//! until `--seconds` have been spent verifying (at least one pass) and
//! reports the end-to-end metrics: for each unit of work (a handler, an
//! edit cycle) the median over passes, summed; and the median of
//! several set-ups. With `--trace 1` it runs one untraced and
//! one traced pass, writes the spans to `hkbench/out/`, and reports the
//! per-layer metrics of the traced pass. The last line of standard
//! output is the JSON result.

use std::fmt::Write;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use hkbench::sys::{self, median};
use hkbench::trace::{Layer, Tracer};
use hkbench::{run_pass, Pass, Setups, Units, Workload};

/// Set-ups before the first untraced pass. Each untraced pass also
/// samples one set-up after every unit of work; `setup_s` is the median
/// of all samples.
const SETUP_BURST: usize = 9;

/// Where spans and the edit loop's cache snapshot go, relative to the
/// checkout root the benchmark runs from.
const OUT_DIR: &str = "hkbench/out";

/// Build profile the benchmark is compiled with.
const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A metric line of the result: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hkbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("hkbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let plan = args.workload.plan(args.seed);
    eprintln!(
        "hkbench: {} seed {}: {plan:?}",
        args.workload.name(),
        args.seed
    );
    let (passes, mut metrics, consistent) = if args.trace {
        traced(&args, &plan, out_dir)
    } else {
        untraced(&args, &plan, out_dir)
    };
    // Every pass of a run does the same work: its counts must agree.
    let deterministic = passes.windows(2).all(|w| w[0].counts == w[1].counts);
    let attempted: u64 = passes.iter().map(|p| p.oracle.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.oracle.failures.len() as u64).sum();
    if !args.trace {
        let share = (attempted - failed) as f64 / attempted as f64;
        metrics.push(("correct_share", share, "share"));
    }
    for f in passes.iter().flat_map(|p| &p.oracle.failures) {
        eprintln!("hkbench: WRONG: {f}");
    }
    if !deterministic {
        eprintln!("hkbench: counts differ between passes of one run");
    }
    if !consistent {
        eprintln!("hkbench: traced layer times do not add up to the traced wall");
    }
    let info: Vec<String> = passes[0]
        .counts
        .fields()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"pass_wall_s\": {:?}, \"cores_detected\": {}, \
         \"threads\": 1, \"profile\": \"{PROFILE}\", \"counts\": {{{}}}}}}}",
        args.workload.name(),
        args.seed,
        passes.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        sys::cores_detected(),
        info.join(", ")
    );
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0 && deterministic && consistent
    );
    ExitCode::SUCCESS
}

/// End-to-end metrics but `correct_share`: untraced passes until
/// `--seconds` of verification have run.
fn untraced(args: &Args, plan: &hkbench::Plan, out_dir: &Path) -> (Vec<Pass>, Vec<Metric>, bool) {
    let mut passes = Vec::new();
    let mut spent = 0.0;
    // Start another pass only while it is expected to end within budget.
    while passes.is_empty() || spent + spent / passes.len() as f64 <= args.seconds {
        let setups = Setups {
            burst: if passes.is_empty() { SETUP_BURST } else { 1 },
            between_units: true,
        };
        let pass = run_pass(plan, setups, out_dir, &mut Tracer::off());
        spent += pass.wall_s;
        passes.push(pass);
    }
    // Sum over units of work (handlers, edit cycles) of each unit's
    // median over passes: a burst of host noise in one pass is voted out
    // unit by unit.
    let per_unit = |pick: fn(&Units) -> &Vec<f64>| -> f64 {
        (0..pick(&passes[0].units).len())
            .map(|u| median(&passes.iter().map(|p| pick(&p.units)[u]).collect::<Vec<_>>()))
            .sum()
    };
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    let metrics = vec![
        ("wall_s", per_unit(|u| &u.wall_s), "s"),
        ("cpu_s", per_unit(|u| &u.cpu_s), "s"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
    ];
    (passes, metrics, true)
}

/// Per-layer metrics: one untraced pass, then one traced pass whose spans
/// attribute the traced wall to layers.
fn traced(args: &Args, plan: &hkbench::Plan, out_dir: &Path) -> (Vec<Pass>, Vec<Metric>, bool) {
    let t = Instant::now();
    let plain = run_pass(plan, Setups::ONCE, out_dir, &mut Tracer::off());
    let untraced_s = t.elapsed().as_secs_f64();
    let mut tracer = Tracer::on();
    let pass = run_pass(plan, Setups::ONCE, out_dir, &mut tracer);
    let b = tracer.breakdown();
    let spans_path = out_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = std::fs::write(&spans_path, tracer.to_json()) {
        eprintln!("hkbench: cannot write {}: {e}", spans_path.display());
    }
    let named = |l: Layer| {
        b.named_s[Layer::NAMED
            .iter()
            .position(|&x| x == l)
            .expect("named layer")]
    };
    let rate = |n: u64, s: f64| if s > 0.0 { n as f64 / s } else { 0.0 };
    let c = &pass.counts;
    let mut metrics: Vec<Metric> = Layer::NAMED
        .iter()
        .map(|&l| (l.metric(), named(l), "s"))
        .collect();
    metrics.push(("unattributed_s", b.unattributed_s(), "s"));
    metrics.push(("traced_wall_s", b.wall_s, "s"));
    metrics.push(("trace_overhead_s", b.wall_s - untraced_s, "s"));
    for (name, value) in c.fields() {
        let unit = if name == "proof_bytes" {
            "bytes"
        } else {
            "count"
        };
        metrics.push((name, value as f64, unit));
    }
    metrics.push((
        "props_per_s",
        rate(c.propagations, named(Layer::Solve)),
        "1/s",
    ));
    metrics.push((
        "conflicts_per_s",
        rate(c.conflicts, named(Layer::Solve)),
        "1/s",
    ));
    metrics.push((
        "proof_steps_per_s",
        rate(c.proof_steps, named(Layer::ProofCheck)),
        "1/s",
    ));
    eprintln!(
        "hkbench: traced {:.3}s = named layers {:.3}s + unattributed {:.3}s; untraced {:.3}s; {} spans in {}",
        b.wall_s,
        b.named_s.iter().sum::<f64>(),
        b.unattributed_s(),
        untraced_s,
        tracer.span_count(),
        spans_path.display()
    );
    let consistent = b.consistent();
    (vec![plain, pass], metrics, consistent)
}

//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (normally through `perfbench/run.py`,
//! which builds it first). The untraced run prints the end-to-end
//! metrics, the traced run the per-layer ones; the last line of standard
//! output is the result object. The exit code is nonzero when any price
//! differs from an in-process `compute()` of the same problem. See
//! `perfbench/README.md` for the workloads and the metric map.

mod metrics;
mod probes;
mod provenance;
mod spans;
mod stats;
mod workloads;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use spans::Tracer;
use stats::median;
use std::path::{Path, PathBuf};
use workloads::{Kind, Measured, Run};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <1..=60> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad("an integer"))?;
                if !(1..=60).contains(&s) {
                    return Err(bad("1 to 60"));
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
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

/// Mean serialized size of the workload's problems.
fn mean_problem_bytes(m: &Measured) -> f64 {
    let sample = &m.problems[..m.problems.len().min(1000)];
    let total: usize = sample
        .iter()
        .map(|p| xdrser::serialize_to_bytes(&p.to_value()).len())
        .sum();
    total as f64 / sample.len().max(1) as f64
}

fn end_to_end(m: &Measured, metrics: &mut Metrics) {
    metrics.set("setup_s", median(&m.setup_s));
    metrics.set("wall_s", median(&m.pass_s));
    metrics.set("jobs_per_s", median(&m.throughput));
    metrics.set("peak_rss_mb", median(&m.pass_rss_mb));
}

fn per_layer(kind: Kind, m: &Measured, metrics: &mut Metrics) {
    let l = &m.layer;
    metrics.set("pricing.busy_share", m.ref_compute_s / m.window_s);
    metrics.set("farm.prepare_us", l.prepare_s * 1e6);
    metrics.set("farm.wire_us", l.wire_s * 1e6);
    metrics.set("farm.wait_us", l.wait_s * 1e6);
    metrics.set("farm.compute_us", l.compute_s * 1e6);
    metrics.set("farm.trace_overhead", l.trace_overhead);
    let serving = kind == Kind::ServeIntraday;
    metrics.set("serve.submit_us", l.submit_s * 1e6);
    metrics.set("serve.memo_hit_rate", l.memo_hit_rate);
    let p99 = if serving {
        stats::admissible_percentile(&m.pass_s, 99.0).expect("at least MIN_REQUESTS requests")
    } else {
        0.0
    };
    metrics.set("serve.request_p99_ms", p99 * 1e3);
    metrics.set("serve.shed", l.shed as f64);
    metrics.set("serve.failed", l.failed as f64);
}

/// Human-readable lines: every figure of the run, including those the
/// result object does not carry.
fn report(name: &str, kind: Kind, m: &Measured, metrics: &Metrics) -> Vec<String> {
    let mut lines = vec![format!("workload {name}")];
    lines.extend(m.notes.iter().map(|n| format!("  {n}")));
    let timing = |what: &str, xs: &[f64], scale: f64, unit: &str| {
        let tail = stats::tail(xs).map_or_else(
            || "no tail: fewer than 11 samples".to_string(),
            |t| format!("p{:.2} {:.4} {unit}", t.percentile, t.value * scale),
        );
        format!(
            "  {what}: median {:.4} {unit}, {tail}, n = {}",
            median(xs) * scale,
            xs.len()
        )
    };
    lines.push(timing("setup", &m.setup_s, 1.0, "s"));
    let pass = if kind == Kind::ServeIntraday {
        "request"
    } else {
        "pass"
    };
    lines.push(timing(pass, &m.pass_s, 1e3, "ms"));
    if m.pass_s.len() <= 100 {
        let each: Vec<String> = m.pass_s.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
        lines.push(format!("  each {pass} (ms): {}", each.join(" ")));
    }
    if let Some(strategy) = name.strip_prefix("toy_comm.") {
        let per_s = median(&m.throughput);
        lines.push(format!("  jobs_per_s.{strategy}: {per_s:.1} 1/s"));
    }
    if kind == Kind::ServeIntraday {
        lines.push(format!(
            "  request_p50_ms: {:.4} ms",
            median(&m.pass_s) * 1e3
        ));
        if let Some(p99) = stats::admissible_percentile(&m.pass_s, 99.0) {
            lines.push(format!(
                "  request_p99_ms: {:.4} ms (n = {})",
                p99 * 1e3,
                m.pass_s.len()
            ));
        }
        lines.push(format!(
            "  requests_per_s: {:.1} 1/s",
            m.pass_s.len() as f64 / m.window_s
        ));
    }
    lines.push(format!(
        "  failed_frac: {} ({} of {} problems)",
        m.failed as f64 / m.attempted.max(1) as f64,
        m.failed,
        m.attempted
    ));
    for (metric, value) in [END_TO_END, PER_LAYER]
        .iter()
        .flat_map(|c| c.iter())
        .filter_map(|(n, u)| metrics.get(n).map(|v| (format!("{n} [{u}]"), v)))
    {
        lines.push(format!("  {metric:<44} {value}"));
    }
    lines
}

fn run(args: &Args, root: &Path, work: &Path) -> Result<i32, String> {
    let kind = workloads::by_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}\n{}", args.workload, usage()))?;
    let slaves = provenance::nproc().saturating_sub(1).max(1);
    let tracer = Tracer::new(args.trace);
    let r = Run {
        seed: args.seed,
        seconds: args.seconds,
        slaves,
        inputs: root.join(".perfbench").join("inputs").join(&args.workload),
        tracer: &tracer,
    };
    let measured = workloads::run(kind, &r);
    std::env::set_current_dir(root).map_err(|e| e.to_string())?;
    let m = measured?;

    let mut metrics = Metrics::default();
    let catalogue = if args.trace {
        per_layer(kind, &m, &mut metrics);
        let probe = probes::Probe {
            problems: &m.problems,
            slaves,
            work,
            tracer: &tracer,
        };
        probes::run_all(&probe, &mut metrics)?;
        PER_LAYER
    } else {
        end_to_end(&m, &mut metrics);
        END_TO_END
    };
    metrics.check_complete(catalogue)?;

    let working_set = (mean_problem_bytes(&m) * m.inputs as f64) as u64;
    let prov = provenance::Provenance::collect(&args.workload, args.seed, slaves, working_set);
    for line in report(&args.workload, kind, &m, &metrics) {
        println!("{line}");
    }
    println!("provenance: {}", prov.to_json());
    if args.trace {
        let path = root
            .join(".perfbench")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&path, tracer.chrome_json(&prov.to_json()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("trace: {} ({} spans)", path.display(), tracer.spans().len());
    }
    let correct = m.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        m.attempted,
        m.failed,
        metrics.to_json()
    );
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    let code = match parse_args() {
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            2
        }
        Ok(args) => {
            let root: PathBuf = std::env::current_dir().expect("a working directory");
            let work = root
                .join(".perfbench")
                .join(format!("work-{}", std::process::id()));
            let made = std::fs::create_dir_all(&work).map_err(|e| e.to_string());
            let out = made.and_then(|_| run(&args, &root, &work));
            let _ = std::fs::remove_dir_all(&work);
            match out {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    2
                }
            }
        }
    };
    std::process::exit(code);
}

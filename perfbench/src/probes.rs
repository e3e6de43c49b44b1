//! Layer probes of the traced run: each times one layer's public calls in
//! isolation, the same way on every workload, so a change to that layer
//! shows here even when the workload's end-to-end figure hides it.

use crate::metrics::{Metrics, PER_LAYER};
use crate::spans::{Tracer, NO_ITEM, ROOT};
use crate::stats::median;
use crate::workloads::{run_fig4, save_fig4_portfolio, toy_jobs, FIG4_JOBS, TOY_JOBS};
use exec::ExecPolicy;
use farm::{class_name, JobClass, PortfolioScale};
use minimpi::World;
use pricing::{MethodSpec, PremiaProblem};
use sched::{Action, Event, SchedConfig, Scheduler};
use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;
use store::{DirStore, ProblemStore};

/// Problems timed per class by the class-cost probe.
const PER_CLASS: usize = 15;
/// Problem files timed by the store/XDR probe.
pub const XDR_FILES: usize = 500;
/// Round trips of the small-message ping-pong.
const PINGS: usize = 2000;
/// Payload of the bandwidth ping-pong.
const BIG_BYTES: usize = 1 << 20;
/// Round trips of the bandwidth ping-pong.
const BIG_PINGS: usize = 40;
/// Iterations of the scalar `while` loop probe.
const LOOP_ITERS: usize = 200_000;

/// Inputs of the probes.
pub struct Probe<'a> {
    /// The workload's problems (store/XDR probe input).
    pub problems: &'a [PremiaProblem],
    /// Slave ranks.
    pub slaves: usize,
    /// Scratch directory (absolute).
    pub work: &'a Path,
    /// Span sink.
    pub tracer: &'a Tracer,
}

/// Run every probe into `m`.
pub fn run_all(p: &Probe, m: &mut Metrics) -> Result<(), String> {
    class_costs(p, m)?;
    lanes(p, m)?;
    store_xdr(p, m)?;
    minimpi_pingpong(p, m);
    sched_walk(p, m);
    nsplang(p, m)?;
    Ok(())
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// `pricing.compute_us.<class>`: median `compute()` per class of the
/// realistic portfolio.
fn class_costs(p: &Probe, m: &mut Metrics) -> Result<(), String> {
    let span = p.tracer.span("probe.pricing_classes", ROOT, NO_ITEM);
    let jobs = farm::realistic_portfolio(PortfolioScale::Quick, 1);
    for (name, _) in PER_LAYER {
        let Some(class) = name.strip_prefix("pricing.compute_us.") else {
            continue;
        };
        let mut us = Vec::new();
        for job in jobs
            .iter()
            .filter(|j| class_name(j.class) == class)
            .take(PER_CLASS)
        {
            let _g = p.tracer.span("pricing.compute", span.id(), job.id as i64);
            let t = Instant::now();
            std::hint::black_box(job.problem.compute()).map_err(|e| e.to_string())?;
            us.push(micros(t));
        }
        if us.is_empty() {
            return Err(format!("no {class} job in the realistic portfolio"));
        }
        m.set(name, median(&us));
    }
    Ok(())
}

/// `pricing.ns_per_path_step.<class>.w<lanes>`: `compute_with` at a lane
/// width over paths × steps of the class's representative problem.
fn lanes(p: &Probe, m: &mut Metrics) -> Result<(), String> {
    let span = p.tracer.span("probe.pricing_lanes", ROOT, NO_ITEM);
    for class in [
        JobClass::LocalVolMc,
        JobClass::BasketMc,
        JobClass::AmericanBasketLsm,
    ] {
        let problem = farm::representative_problem(class, PortfolioScale::Quick).problem;
        let path_steps = match problem.method {
            MethodSpec::MonteCarlo {
                paths, time_steps, ..
            } => paths * time_steps,
            MethodSpec::Lsm {
                paths,
                exercise_dates,
                ..
            } => paths * exercise_dates,
            ref other => return Err(format!("{other:?} has no path loop")),
        };
        for width in [1, 4] {
            let pol = ExecPolicy::sequential().lanes(width);
            let mut ns = Vec::new();
            for rep in 0..5 {
                let _g = p.tracer.span("pricing.compute_with", span.id(), rep);
                let t = Instant::now();
                std::hint::black_box(problem.compute_with(&pol)).map_err(|e| e.to_string())?;
                ns.push(t.elapsed().as_secs_f64() * 1e9 / path_steps as f64);
            }
            let name = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| *n == format!("pricing.ns_per_path_step.{}.w{width}", class_name(class)))
                .expect("catalogued lane metric");
            m.set(name, median(&ns));
        }
    }
    Ok(())
}

/// `store.fetch_us`, `xdr.*`: per problem file of the workload.
fn store_xdr(p: &Probe, m: &mut Metrics) -> Result<(), String> {
    let span = p.tracer.span("probe.store_xdr", ROOT, NO_ITEM);
    let dir = p.work.join("probe-xdr");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let sample = &p.problems[..p.problems.len().min(XDR_FILES)];
    let mut paths = Vec::with_capacity(sample.len());
    for (i, problem) in sample.iter().enumerate() {
        let path = dir.join(format!("pb-{i}.bin"));
        xdrser::save(&path, &problem.to_value()).map_err(|e| e.to_string())?;
        paths.push(path);
    }
    let store = DirStore::new();
    let (mut fetch, mut sload, mut unser, mut ser, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), 0usize);
    for (i, path) in paths.iter().enumerate() {
        let item = i as i64;
        let t = Instant::now();
        let fetched = p
            .tracer
            .time("store.fetch", span.id(), item, || store.fetch(path))
            .map_err(|e| e.to_string())?;
        fetch.push(micros(t));
        let t = Instant::now();
        let serial = p
            .tracer
            .time("xdr.sload", span.id(), item, || xdrser::sload(path))
            .map_err(|e| e.to_string())?;
        sload.push(micros(t));
        let t = Instant::now();
        let value = p
            .tracer
            .time("xdr.unserialize", span.id(), item, || {
                xdrser::unserialize(&serial)
            })
            .map_err(|e| e.to_string())?;
        unser.push(micros(t));
        let t = Instant::now();
        let again = p.tracer.time("xdr.serialize", span.id(), item, || {
            xdrser::serialize(&value)
        });
        ser.push(micros(t));
        if again.bytes() != fetched.serial.bytes() {
            return Err(format!(
                "{}: serialize(unserialize(file)) != file",
                path.display()
            ));
        }
        bytes += serial.len();
    }
    m.set("store.fetch_us", median(&fetch));
    m.set("xdr.sload_us", median(&sload));
    m.set("xdr.unserialize_us", median(&unser));
    m.set("xdr.serialize_us", median(&ser));
    m.set("xdr.problem_bytes", bytes as f64 / paths.len() as f64);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Median round-trip seconds of `rounds` send/recv ping-pongs of
/// `bytes` between two ranks.
fn pingpong(bytes: usize, rounds: usize) -> f64 {
    const TAG: i32 = 3;
    let out = World::run(2, |comm| {
        let payload = vec![0x5Au8; bytes];
        let mut rtt = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            if comm.rank() == 0 {
                let t = Instant::now();
                comm.send(&payload, 1, TAG).expect("ping send");
                let (back, _) = comm.recv(1, TAG).expect("pong recv");
                rtt.push(t.elapsed().as_secs_f64());
                assert_eq!(back.len(), bytes, "echo length");
            } else {
                let (msg, _) = comm.recv(0, TAG).expect("ping recv");
                comm.send(&msg, 0, TAG).expect("pong send");
            }
        }
        rtt
    });
    median(&out[0])
}

/// `minimpi.rtt_us` at the toy problem's serial size and
/// `minimpi.ns_per_byte` from a 1 MiB payload.
fn minimpi_pingpong(p: &Probe, m: &mut Metrics) {
    let small = xdrser::serialize_to_bytes(&farm::toy_portfolio(1)[0].problem.to_value()).len();
    let rtt = p.tracer.time("minimpi.pingpong", ROOT, small as i64, || {
        pingpong(small, PINGS)
    });
    let big = p
        .tracer
        .time("minimpi.pingpong", ROOT, BIG_BYTES as i64, || {
            pingpong(BIG_BYTES, BIG_PINGS)
        });
    m.set("minimpi.rtt_us", rtt * 1e6);
    m.set(
        "minimpi.ns_per_byte",
        ((big - rtt) / (2.0 * (BIG_BYTES - small) as f64) * 1e9).max(0.0),
    );
}

/// `sched.decision_ns`: mean `Scheduler::on` time over a FIFO walk of
/// the toy job count, answers arriving in dispatch order.
fn sched_walk(p: &Probe, m: &mut Metrics) {
    let span = p.tracer.span("probe.sched", ROOT, NO_ITEM);
    let mut per_call = Vec::new();
    for rep in 0..5 {
        let _g = p.tracer.span("sched.walk", span.id(), rep);
        let mut s = Scheduler::new(SchedConfig::plain(TOY_JOBS, p.slaves)).expect("plain config");
        let mut inflight = VecDeque::new();
        let mut calls = 0u64;
        let t = Instant::now();
        for slave in 1..=p.slaves {
            calls += 1;
            inflight.extend(s.on(Event::SlaveReady { slave }, 0));
        }
        while let Some(action) = inflight.pop_front() {
            if let Action::Dispatch { job, slave, .. } = action {
                calls += 1;
                inflight.extend(s.on(Event::Answer { job, slave }, 0));
            }
        }
        let ns = t.elapsed().as_secs_f64() * 1e9;
        assert!(s.finished() && s.done_count() == TOY_JOBS, "walk finished");
        per_call.push(ns / calls as f64);
    }
    m.set("sched.decision_ns", median(&per_call));
}

/// Seconds `src` takes on a fresh interpreter with the default engine.
fn time_script(src: &str) -> Result<f64, String> {
    let mut interp = nsplang::Interp::new();
    let t = Instant::now();
    interp.run(src).map_err(|e| e.to_string())?;
    Ok(t.elapsed().as_secs_f64())
}

fn add_last_us(n: usize) -> Result<f64, String> {
    let src = format!("L = list()\nfor k = 1:{n} do\n  L.add_last[k]\nend\n");
    Ok(time_script(&src)? * 1e6 / n as f64)
}

/// `nsplang.*`: `add_last` cost per append at the Fig. 4 job count and
/// half of it, a scalar `while` loop, and the exponent of Fig. 4 time in
/// job count between half and full size.
fn nsplang(p: &Probe, m: &mut Metrics) -> Result<(), String> {
    let span = p.tracer.span("probe.nsplang", ROOT, NO_ITEM);
    let full = p
        .tracer
        .time("nsplang.add_last", span.id(), FIG4_JOBS as i64, || {
            add_last_us(FIG4_JOBS)
        })?;
    let half = p
        .tracer
        .time("nsplang.add_last", span.id(), FIG4_JOBS as i64 / 2, || {
            add_last_us(FIG4_JOBS / 2)
        })?;
    m.set("nsplang.add_last_us", full);
    m.set("nsplang.add_last_us.half", half);
    let src = format!("i = 0\nwhile i < {LOOP_ITERS} do\n  i = i + 1\nend\n");
    let secs = p
        .tracer
        .time("nsplang.while", span.id(), LOOP_ITERS as i64, || {
            time_script(&src)
        })?;
    m.set("nsplang.loop_ns_per_iter", secs * 1e9 / LOOP_ITERS as f64);

    let dir = p.work.join("probe-fig4");
    save_fig4_portfolio(&toy_jobs(0, FIG4_JOBS), &dir)?;
    // Run the script where its relative `portfolio/` names resolve.
    let here = std::env::current_dir().map_err(|e| e.to_string())?;
    std::env::set_current_dir(&dir).map_err(|e| e.to_string())?;
    let time_fig4 = |n: usize| -> Result<f64, String> {
        let _g = p.tracer.span("nsplang.run", span.id(), n as i64);
        let t = Instant::now();
        let got = run_fig4(p.slaves, n, None)?;
        if got.len() != n {
            return Err(format!("fig4 over {n} jobs answered {}", got.len()));
        }
        Ok(t.elapsed().as_secs_f64())
    };
    let timed = time_fig4(FIG4_JOBS / 2).and_then(|h| Ok((h, time_fig4(FIG4_JOBS)?)));
    std::env::set_current_dir(here).map_err(|e| e.to_string())?;
    let (t_half, t_full) = timed?;
    m.set("nsplang.fig4_exponent", (t_full / t_half).log2());
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

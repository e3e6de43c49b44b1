//! The PR-5 tentpole proof: the live threaded farm and the discrete-event
//! cluster simulator drive the *same* [`sched::Scheduler`] state machine,
//! so on a matched workload they must render **byte-identical** decision
//! traces — fault-free and under a seeded fault plan alike.
//!
//! The trace is timestamp-free (events and actions only), so the two
//! worlds agree iff they feed the scheduler the same event sequence. The
//! workload is engineered to make that sequence timing-robust:
//!
//! * per-job compute costs are integer multiples (`COSTS`, in "grains")
//!   of a runtime-calibrated Monte-Carlo unit, so every pair of competing
//!   completion thresholds is separated by at least one full grain;
//! * under fair processor sharing (the 1-core CI box) event order follows
//!   per-slave *cumulative-CPU* thresholds, which a uniform slowdown
//!   cannot reorder;
//! * the seeded fault kills slave 4 at its first result send — two full
//!   grains away from the nearest neighbouring answers on either side —
//!   so the burial lands in the same inter-answer gap in both worlds.

use riskbench::clustersim::{simulate, SimCaches, SimFault, SimJob, SimSpec};
use riskbench::prelude::*;
use riskbench::pricing::models::BlackScholes;
use riskbench::sched::Supervision;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-job compute costs in grains. Slave 4 is primed with the 20-grain
/// straggler (job 3); everyone else climbs a ladder with >= 1-grain gaps
/// between any two competing completion thresholds.
const COSTS: [usize; 16] = [1, 2, 3, 20, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
const SLAVES: usize = 4;

/// Target wall-clock per grain of Monte-Carlo compute.
const GRAIN_S: f64 = 0.025;

/// One grain of Monte-Carlo work, calibrated at runtime: time a probe,
/// then scale the path count so one grain costs ~[`GRAIN_S`] of CPU.
fn paths_per_grain() -> usize {
    let probe = mc_problem(50_000, 7);
    probe.compute().unwrap(); // warm up (code paths, allocator)
    let t0 = Instant::now();
    probe.compute().unwrap();
    let t = t0.elapsed().as_secs_f64().max(1e-6);
    ((GRAIN_S / t * 50_000.0) as usize).clamp(2_000, 2_000_000)
}

fn mc_problem(paths: usize, seed: u64) -> PremiaProblem {
    PremiaProblem::new(
        ModelSpec::BlackScholes(BlackScholes::new(100.0, 0.2, 0.05, 0.0)),
        OptionSpec::Call {
            strike: 95.0,
            maturity: 1.0,
        },
        MethodSpec::MonteCarlo {
            paths,
            time_steps: 8,
            antithetic: false,
            seed,
        },
    )
}

/// Matched workload: live problem files whose compute costs are
/// `COSTS[k] * unit` Monte-Carlo paths, and sim jobs whose compute is
/// `COSTS[k]` simulated seconds — same ratios, same decision sequence.
fn matched_workload(dir: &std::path::Path) -> (Vec<PathBuf>, Vec<SimJob>) {
    let unit = paths_per_grain();
    let jobs: Vec<PortfolioJob> = COSTS
        .iter()
        .enumerate()
        .map(|(k, &c)| PortfolioJob {
            id: k,
            class: JobClass::LocalVolMc,
            problem: mc_problem(c * unit, 100 + k as u64),
        })
        .collect();
    let files = save_portfolio(&jobs, dir).unwrap();
    let sim_jobs: Vec<SimJob> = jobs
        .iter()
        .enumerate()
        .map(|(k, j)| SimJob {
            id: k,
            class: j.class,
            bytes: riskbench::xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
            compute: COSTS[k] as f64,
        })
        .collect();
    (files, sim_jobs)
}

fn sim_trace(jobs: &[SimJob], spec: &SimSpec) -> String {
    let out = simulate(jobs, spec, &mut SimCaches::new(), None).unwrap();
    assert_eq!(out.per_slave.iter().sum::<usize>(), COSTS.len());
    out.trace.expect("record_trace was set").render()
}

#[test]
fn fault_free_live_and_sim_traces_are_byte_identical() {
    let dir = std::env::temp_dir().join("it_sched_parity_plain");
    let _ = std::fs::remove_dir_all(&dir);
    let (files, sim_jobs) = matched_workload(&dir);

    let live = run(
        &files,
        &FarmConfig::new(SLAVES, Transmission::SerializedLoad).record_trace(true),
    )
    .unwrap();
    assert_eq!(live.completed(), COSTS.len());
    let live_trace = live.trace.expect("record_trace was set").render();

    let sim = sim_trace(
        &sim_jobs,
        &SimSpec {
            record_trace: true,
            ..SimSpec::new(SLAVES, Transmission::SerializedLoad)
        },
    );

    // The tentpole claim, literally: byte identity.
    assert_eq!(
        live_trace, sim,
        "plain-farm decision traces diverged\n-- live --\n{live_trace}\n-- sim --\n{sim}"
    );
    // Sanity: the trace starts with the Fig. 4 priming round.
    assert!(
        live_trace.starts_with("ready(1) -> dispatch(0->1)\nready(2) -> dispatch(1->2)\n"),
        "unexpected priming: {live_trace}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn staged_rounds_live_and_sim_traces_are_byte_identical() {
    // The same matched 16-job ladder, now split into four declared
    // rounds of four. The round barrier parks finished slaves until the
    // straggler of each round answers, then refills them all — the
    // staged machine's decisions must agree byte for byte between the
    // live farm and the staged simulation.
    let dir = std::env::temp_dir().join("it_sched_parity_staged");
    let _ = std::fs::remove_dir_all(&dir);
    let (files, sim_jobs) = matched_workload(&dir);
    let rounds: Vec<usize> = (0..COSTS.len()).map(|k| k / SLAVES).collect();

    let live = run(
        &files,
        &FarmConfig::new(SLAVES, Transmission::SerializedLoad)
            .rounds(rounds.clone())
            .record_trace(true),
    )
    .unwrap();
    assert_eq!(live.completed(), COSTS.len());
    let live_trace = live.trace.expect("record_trace was set").render();

    let sim = sim_trace(
        &sim_jobs,
        &SimSpec {
            record_trace: true,
            rounds: Some(rounds),
            ..SimSpec::new(SLAVES, Transmission::SerializedLoad)
        },
    );
    assert_eq!(
        live_trace, sim,
        "staged decision traces diverged\n-- live --\n{live_trace}\n-- sim --\n{sim}"
    );
    // The barrier is visible: job 4 (round 1) is dispatched by the
    // answer of job 3, the 20-grain straggler of round 0 — never by the
    // earlier answers of jobs 0..2.
    assert!(
        live_trace.contains("answer(3,4) -> accept(3,4) dispatch(4->"),
        "round barrier missing from trace: {live_trace}"
    );
    for early in ["accept(0,1) dispatch", "accept(1,2) dispatch"] {
        assert!(
            !live_trace.contains(early),
            "round-blocked job dispatched early: {live_trace}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn staged_bsde_picard_live_and_sim_traces_are_byte_identical() {
    // The dependency-aware workload itself: a 3-round Labart–Lelong
    // Picard iteration, one single-sweep job per round, each round's
    // dispatch patched with the previous round's price. The patching is
    // payload-only, so the live decision trace must still match the
    // staged simulation byte for byte.
    use riskbench::farm::workload::Workload;
    use riskbench::pricing::methods::bsde::{bsde_picard_iterates, BsdeConfig};
    use riskbench::pricing::options::Vanilla;

    let picard_rounds = 3;
    let problem = PremiaProblem::new(
        ModelSpec::BlackScholes(BlackScholes::new(100.0, 0.2, 0.05, 0.0)),
        OptionSpec::Call {
            strike: 100.0,
            maturity: 1.0,
        },
        MethodSpec::Bsde {
            paths: 4_000,
            time_steps: 12,
            rate_spread: 0.05,
            picard_rounds,
            y_prev: 0.0,
            seed: 99,
        },
    );
    let w = Workload::bsde_picard(problem).unwrap();
    assert_eq!(w.round_count(), picard_rounds, ">= 2 dependent rounds");

    let dir = std::env::temp_dir().join("it_sched_parity_bsde");
    let _ = std::fs::remove_dir_all(&dir);
    let live = riskbench::farm::run_workload(
        &w,
        &dir,
        &FarmConfig::new(SLAVES, Transmission::SerializedLoad).record_trace(true),
    )
    .unwrap();
    assert_eq!(live.completed(), picard_rounds);
    let live_trace = live.trace.as_ref().expect("record_trace was set").render();

    let sim_jobs: Vec<SimJob> = w
        .jobs()
        .iter()
        .map(|j| SimJob {
            id: j.id,
            class: j.class,
            bytes: riskbench::xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
            compute: 1.0,
        })
        .collect();
    let out = simulate(
        &sim_jobs,
        &SimSpec {
            record_trace: true,
            rounds: w.rounds().map(|r| r.to_vec()),
            ..SimSpec::new(SLAVES, Transmission::SerializedLoad)
        },
        &mut SimCaches::new(),
        None,
    )
    .unwrap();
    assert_eq!(out.per_slave.iter().sum::<usize>(), picard_rounds);
    let sim = out.trace.expect("record_trace was set").render();
    assert_eq!(
        live_trace, sim,
        "BSDE staged traces diverged\n-- live --\n{live_trace}\n-- sim --\n{sim}"
    );

    // And the farm's staged answers are the in-process Picard iterates,
    // bit for bit — the data flow crossed the rounds correctly.
    let cfg = BsdeConfig {
        paths: 4_000,
        time_steps: 12,
        rate_spread: 0.05,
        picard_rounds,
        y_prev: 0.0,
        seed: 99,
    };
    let m = BlackScholes::new(100.0, 0.2, 0.05, 0.0);
    let iterates = bsde_picard_iterates(&m, &Vanilla::european_call(100.0, 1.0), &cfg, None);
    let by_job = live.by_job();
    for (r, it) in iterates.iter().enumerate() {
        let (job, got, _) = by_job[r];
        assert_eq!(job, r);
        assert_eq!(got.to_bits(), it.price.to_bits(), "round {r} iterate");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_fault_live_and_sim_traces_are_byte_identical() {
    let dir = std::env::temp_dir().join("it_sched_parity_fault");
    let _ = std::fs::remove_dir_all(&dir);
    let (files, sim_jobs) = matched_workload(&dir);

    // Slave rank 4 (primed with the 20-grain job 3) dies at comm op 2 —
    // its first result send, i.e. *after* computing. Generous deadlines
    // and timeouts keep the deadline/idle machinery out of the trace; a
    // zero backoff makes the requeued job eligible at the next answer.
    let sup = SupervisorConfig {
        job_deadline: Duration::from_secs(60),
        max_attempts: 4,
        backoff_base: Duration::ZERO,
        poll: Duration::from_millis(5),
        slave_idle_timeout: Duration::from_secs(60),
        payload_timeout: Duration::from_secs(10),
    };
    let plan = Arc::new(FaultPlan::new(1).kill_rank_at_op(4, 2));
    let live = run(
        &files,
        &FarmConfig::new(SLAVES, Transmission::SerializedLoad)
            .supervisor(sup)
            .fault_plan(plan)
            .record_trace(true),
    )
    .unwrap();
    assert_eq!(live.completed(), COSTS.len(), "all jobs recovered");
    assert_eq!(live.dead_slaves, vec![4]);
    assert_eq!(live.retries, 1);
    assert!(live.failed_jobs.is_empty());
    let live_trace = live.trace.expect("record_trace was set").render();

    // Simulated twin: 0-based slave 3 dies answering its first dispatch,
    // detected half a (simulated) grain later — inside the same
    // inter-answer gap (18, 22) the live poll lands in.
    let sim = sim_trace(
        &sim_jobs,
        &SimSpec {
            supervision: Some(Supervision {
                deadline_ns: 3_600_000_000_000,
                max_attempts: 4,
                backoff_base_ns: 0,
            }),
            record_trace: true,
            faults: vec![SimFault {
                slave: 3,
                fatal_dispatch: 0,
                detect_delay_s: 0.5,
            }],
            ..SimSpec::new(SLAVES, Transmission::SerializedLoad)
        },
    );

    // The burial must appear, verbatim, in both traces...
    for (world, trace) in [("live", &live_trace), ("sim", &sim)] {
        assert!(
            trace.contains("dead(4) -> bury(4) requeue(3)\n"),
            "{world} trace lacks the burial: {trace}"
        );
    }
    // ...and the traces must agree byte for byte.
    assert_eq!(
        live_trace, sim,
        "supervised decision traces diverged\n-- live --\n{live_trace}\n-- sim --\n{sim}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

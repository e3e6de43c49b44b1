//! Heterogeneous-workload smoke benchmark (`BENCH_10.json`).
//!
//! Exercises the typed job model end to end on one machine and writes the
//! artifact `bench_gate` re-validates:
//!
//! * a **mixed-class portfolio** (vanillas through Bermudan-max LSM, BSDE
//!   Picard and XVA/CVA) priced live on [`SLAVES`] slaves with an `obs`
//!   recorder attached — every class in the mix must show up in the
//!   per-class compute breakdown with positive seconds;
//! * the same portfolio replayed in the calibrated cluster simulator
//!   under FIFO and LPT dispatch, with per-job costs from the paper's
//!   [`CostModel`] — LPT must not lose to FIFO on makespan (the
//!   straggler-tail claim the per-class calibration exists to buy);
//! * a **staged BSDE Picard workload** ([`BSDE_ROUNDS`] dependent rounds,
//!   each round's dispatch patched with the previous answer) run through
//!   the live farm with trace recording, byte-compared against the
//!   staged simulator driving the same scheduler.
//!
//! Emits a flat-key `JSON:` artifact line that `scripts/ci.sh` captures
//! as `BENCH_10.json`.

use clustersim::{simulate, SimCaches, SimJob, SimSpec};
use farm::calibrate::paper_costs;
use farm::portfolio::{mixed_portfolio, save_portfolio, PortfolioScale};
use farm::workload::{per_class_compute, Workload};
use farm::{run, run_workload, DispatchPolicy, FarmConfig, Transmission};
use obs::Recorder;
use pricing::models::BlackScholes;
use pricing::{MethodSpec, ModelSpec, OptionSpec, PremiaProblem};
use std::process::exit;
use std::sync::Arc;

/// Slave count of every live run and both simulator replays.
const SLAVES: usize = 8;
/// Mixed-portfolio groups (12 jobs each, 6 distinct classes).
const GROUPS: usize = 2;
/// Dependent Picard rounds of the staged BSDE workload.
const BSDE_ROUNDS: usize = 3;

fn fail(msg: &str) -> ! {
    eprintln!("workload_smoke: FAIL: {msg}");
    exit(1);
}

fn main() {
    let jobs = mixed_portfolio(PortfolioScale::Quick, GROUPS);
    let dir = std::env::temp_dir().join("riskbench_workload_smoke");
    let _ = std::fs::remove_dir_all(&dir);
    let files = save_portfolio(&jobs, &dir).unwrap_or_else(|e| fail(&format!("save: {e}")));
    let model = paper_costs();

    // ---- live mixed-class runs: FIFO with a recorder, then LPT ----------
    let rec = Arc::new(Recorder::new(SLAVES + 1));
    let fifo_cfg = Transmission::SerializedLoad;
    let report = run(
        &files,
        &FarmConfig::new(SLAVES, fifo_cfg).recorder(rec.clone()),
    )
    .unwrap_or_else(|e| fail(&format!("live FIFO run: {e}")));
    if report.completed() != jobs.len() {
        fail(&format!(
            "live FIFO run completed {} of {} jobs",
            report.completed(),
            jobs.len()
        ));
    }
    let fifo_live_s = report.elapsed.as_secs_f64();

    let by_class = per_class_compute(&rec.events(), &jobs);
    for (name, &(count, secs)) in &by_class {
        if count == 0 || secs <= 0.0 {
            fail(&format!(
                "class {name} has no recorded compute ({count} events, {secs}s)"
            ));
        }
    }
    let mix = Workload::batch(jobs.clone()).class_mix();
    if by_class.len() != mix.len() {
        fail(&format!(
            "breakdown saw {} classes, the portfolio holds {}",
            by_class.len(),
            mix.len()
        ));
    }

    let lpt = DispatchPolicy::Lpt {
        costs: model.lpt_costs(&jobs),
    };
    let report = run(
        &files,
        &FarmConfig::new(SLAVES, fifo_cfg).order(lpt.clone()),
    )
    .unwrap_or_else(|e| fail(&format!("live LPT run: {e}")));
    if report.completed() != jobs.len() {
        fail(&format!(
            "live LPT run completed {} of {} jobs",
            report.completed(),
            jobs.len()
        ));
    }
    let lpt_live_s = report.elapsed.as_secs_f64();

    // ---- simulated makespans under both policies (deterministic) --------
    let sim_jobs: Vec<SimJob> = jobs
        .iter()
        .map(|j| SimJob {
            id: j.id,
            class: j.class,
            bytes: riskbench::xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
            compute: model.grain_seconds(j.class),
        })
        .collect();
    let makespan = |policy: DispatchPolicy| {
        let spec = SimSpec {
            policy,
            ..SimSpec::new(SLAVES, fifo_cfg)
        };
        simulate(&sim_jobs, &spec, &mut SimCaches::new(), None)
            .unwrap_or_else(|e| fail(&format!("simulator: {e}")))
            .makespan
    };
    let fifo_sim = makespan(DispatchPolicy::Fifo);
    let lpt_sim = makespan(lpt);
    if fifo_sim <= 0.0 || lpt_sim <= 0.0 {
        fail(&format!(
            "degenerate simulated makespans (FIFO {fifo_sim}s, LPT {lpt_sim}s)"
        ));
    }
    if lpt_sim > fifo_sim {
        fail(&format!(
            "LPT makespan {lpt_sim:.3}s above FIFO's {fifo_sim:.3}s on the mixed portfolio"
        ));
    }
    let improvement = (fifo_sim - lpt_sim) / fifo_sim;

    // ---- staged BSDE: live farm vs staged simulator, byte for byte ------
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
            picard_rounds: BSDE_ROUNDS,
            y_prev: 0.0,
            seed: 7,
        },
    );
    let w = Workload::bsde_picard(problem).unwrap_or_else(|e| fail(&format!("workload: {e}")));
    let staged_dir = dir.join("staged");
    let live = run_workload(
        &w,
        &staged_dir,
        &FarmConfig::new(SLAVES, fifo_cfg).record_trace(true),
    )
    .unwrap_or_else(|e| fail(&format!("staged live run: {e}")));
    let staged_completed = live.completed();
    if staged_completed != BSDE_ROUNDS {
        fail(&format!(
            "staged run completed {staged_completed} of {BSDE_ROUNDS} rounds"
        ));
    }
    let live_trace = live
        .trace
        .as_ref()
        .unwrap_or_else(|| fail("staged run recorded no trace"))
        .render();
    let staged_sim_jobs: Vec<SimJob> = w
        .jobs()
        .iter()
        .map(|j| SimJob {
            id: j.id,
            class: j.class,
            bytes: riskbench::xdrser::serialize_to_bytes(&j.problem.to_value()).len(),
            compute: 1.0,
        })
        .collect();
    let staged = SimSpec {
        record_trace: true,
        rounds: w.rounds().map(|r| r.to_vec()),
        ..SimSpec::new(SLAVES, fifo_cfg)
    };
    let sim_trace = simulate(&staged_sim_jobs, &staged, &mut SimCaches::new(), None)
        .unwrap_or_else(|e| fail(&format!("staged sim: {e}")))
        .trace
        .unwrap_or_else(|| fail("staged sim recorded no trace"))
        .render();
    if live_trace != sim_trace {
        fail(&format!(
            "staged traces diverged\n-- live --\n{live_trace}\n-- sim --\n{sim_trace}"
        ));
    }
    std::fs::remove_dir_all(&dir).ok();

    println!(
        "workload_smoke: {} jobs x {} classes on {SLAVES} slaves; \
         sim FIFO {fifo_sim:.2}s vs LPT {lpt_sim:.2}s ({:.1}% better); \
         staged BSDE {BSDE_ROUNDS} rounds, traces byte-identical",
        jobs.len(),
        by_class.len(),
        improvement * 100.0
    );

    let mut classes_json = String::new();
    for (name, &(count, secs)) in &by_class {
        classes_json.push_str(&format!(
            "\"class_{name}_jobs\":{count},\"class_{name}_s\":{secs:.9},"
        ));
    }
    println!(
        "JSON: {{\"title\":\"Heterogeneous workload smoke\",\"jobs\":{},\"slaves\":{SLAVES},\
         \"classes\":{},{classes_json}\"fifo_sim_makespan_s\":{fifo_sim:.9},\
         \"lpt_sim_makespan_s\":{lpt_sim:.9},\"lpt_improvement\":{improvement:.6},\
         \"fifo_live_s\":{fifo_live_s:.9},\"lpt_live_s\":{lpt_live_s:.9},\
         \"staged_rounds\":{BSDE_ROUNDS},\"staged_completed\":{staged_completed},\
         \"staged_trace_identical\":1}}",
        jobs.len(),
        by_class.len(),
    );
}

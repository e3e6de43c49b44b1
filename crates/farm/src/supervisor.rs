//! A supervised Robin-Hood master: the Fig. 4 farm hardened against the
//! failure modes the fault layer ([`minimpi::FaultPlan`]) can inject.
//!
//! The plain master of [`crate::robin_hood`] trusts its slaves: a lost
//! message stalls the refeed loop forever and a dead slave strands its
//! job. The supervised master instead
//!
//! * gives every dispatched job a **deadline** (calibrated from the
//!   [`crate::calibrate`] cost model via
//!   [`SupervisorConfig::from_cost_model`]), after which the job is
//!   requeued with exponential backoff and a bounded retry budget;
//! * detects **dead slaves** — both eagerly, when a send fails fast with
//!   [`minimpi::MpiError::Poisoned`], and by polling rank liveness — and
//!   immediately requeues their in-flight jobs;
//! * **deduplicates** late results: if a presumed-lost job is answered
//!   after being reassigned, the first answer wins and the straggler's
//!   copy is dropped;
//! * **degrades gracefully**: jobs that exhaust their retry budget land
//!   in [`FarmReport::failed_jobs`] instead of aborting the run, and only
//!   the collapse of *every* slave aborts, with
//!   [`FarmError::AllSlavesDead`] rather than a hang.
//!
//! Under an inert fault plan the supervised farm prices exactly the same
//! portfolio to exactly the same values as the plain one — the zero-fault
//! equivalence checked by `tests/sim_vs_live.rs` and `tests/farm_chaos.rs`.

use crate::calibrate::CostModel;
use crate::config::{RunCtx, SchedKnobs};
use crate::driver;
use crate::instrument;
use crate::portfolio::JobClass;
use crate::robin_hood::{send_job, FarmError, FarmReport, TAG};
use crate::strategy::{recover_problem_recorded, Transmission};
use crate::wire::{Answer, JobMsg};
use minimpi::{Comm, FaultPlan, MpiBuf, MpiError, World};
use obs::Recorder;
use sched::{SchedConfig, Supervision};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of the supervised master. Start from
/// [`SupervisorConfig::default`] (test-scale timings) or
/// [`SupervisorConfig::from_cost_model`] (calibrated for a real
/// portfolio) and override fields as needed.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Per-dispatch deadline: a job unanswered for this long is presumed
    /// lost and requeued.
    pub job_deadline: Duration,
    /// Maximum dispatch attempts per job before it is abandoned into
    /// [`FarmReport::failed_jobs`]. Must be at least 1.
    pub max_attempts: usize,
    /// Base of the exponential backoff between re-dispatches of the same
    /// job: attempt *n* waits `backoff_base * 2^(n-1)` after its failure.
    pub backoff_base: Duration,
    /// Master poll granularity: the longest the master blocks in one
    /// receive before re-checking deadlines and liveness.
    pub poll: Duration,
    /// Slave-side patience: how long an idle slave waits for traffic from
    /// the master before concluding it was orphaned and exiting. This
    /// bounds shutdown even if the stop sentinel itself is injected away.
    pub slave_idle_timeout: Duration,
    /// Slave-side deadline for the packed payload that follows a name
    /// message under the loaded strategies; on expiry the slave reports a
    /// failure for that job instead of blocking the farm.
    pub payload_timeout: Duration,
}

impl Default for SupervisorConfig {
    /// Aggressive, test-scale timings (tens of milliseconds): right for
    /// the toy portfolio whose jobs price in microseconds.
    fn default() -> Self {
        SupervisorConfig {
            job_deadline: Duration::from_millis(200),
            max_attempts: 4,
            backoff_base: Duration::from_millis(5),
            poll: Duration::from_millis(20),
            slave_idle_timeout: Duration::from_secs(2),
            payload_timeout: Duration::from_millis(200),
        }
    }
}

impl SupervisorConfig {
    /// Calibrate deadlines from a [`CostModel`]: the job deadline is
    /// `safety ×` the *worst-case* single-job cost across all job
    /// classes (floored at 50 ms so message latency never triggers a
    /// spurious retry), and the slave idle timeout is sized so a slave
    /// outlives a full master poll cycle plus one worst-case job.
    pub fn from_cost_model(model: &CostModel, safety: f64) -> Self {
        assert!(safety >= 1.0, "safety factor must be >= 1");
        let worst = JobClass::ALL
            .iter()
            .map(|&c| model.cost_range(c).1)
            .fold(0.0f64, f64::max);
        let deadline = Duration::from_secs_f64((worst * safety).max(0.05));
        SupervisorConfig {
            job_deadline: deadline,
            slave_idle_timeout: deadline * 4,
            payload_timeout: deadline,
            ..SupervisorConfig::default()
        }
    }
}

/// `true` for the comm errors that mean "this endpoint is finished" as
/// opposed to a protocol bug.
fn is_fatal_comm(e: &MpiError) -> bool {
    matches!(e, MpiError::Poisoned(_) | MpiError::Disconnected)
}

/// Supervised slave loop: same wire protocol as Fig. 4, but every blocking
/// wait is bounded and every local failure is *reported* (or at worst
/// abandoned to the master's deadline) instead of panicking the world.
fn supervised_slave(
    comm: &Comm,
    ctx: &RunCtx,
    strategy: Transmission,
    cfg: &SupervisorConfig,
) -> Result<usize, FarmError> {
    let mut done = 0usize;
    loop {
        comm.set_job(None);
        let msg = match comm.recv_obj_timeout(0, TAG, cfg.slave_idle_timeout) {
            // Silence for a whole idle window: the master is gone (or our
            // stop sentinel was injected away). Exit instead of hanging.
            Ok(None) => return Ok(done),
            Ok(Some((msg, _st))) => msg,
            // A fault-truncated name message: clear the mangled frame and
            // wait for the retry.
            Err(MpiError::Truncated { .. }) => {
                let _ = comm.discard(0, TAG);
                continue;
            }
            Err(e) if is_fatal_comm(&e) => return Ok(done),
            Err(e) => return Err(e.into()),
        };
        if msg.is_empty_matrix() {
            return Ok(done); // stop sentinel
        }
        // Name message ([`JobMsg`]). A frame that unserializes but is no
        // job request (e.g. a payload whose name message was dropped)
        // cannot be attributed to a job; drop it and let the deadline
        // requeue.
        let Some(JobMsg { idx, name }) = JobMsg::decode(&msg) else {
            continue;
        };
        comm.set_job(Some(idx));

        let payload = match strategy {
            Transmission::Nfs => None,
            _ => match comm.recv_timeout(0, TAG, cfg.payload_timeout) {
                Ok(Some((bytes, _st))) => match comm.unpack(&MpiBuf::from_bytes(bytes)) {
                    Ok(v) if v.is_empty_matrix() => {
                        // The payload was lost and the frame we consumed
                        // is our own stop sentinel: shut down.
                        return Ok(done);
                    }
                    Ok(v) => Some(v),
                    Err(_) => {
                        report_failure(comm, idx, "payload undecodable")?;
                        continue;
                    }
                },
                Ok(None) => {
                    report_failure(comm, idx, "payload timeout")?;
                    continue;
                }
                Err(MpiError::Truncated { .. }) => {
                    let _ = comm.discard(0, TAG);
                    report_failure(comm, idx, "payload truncated")?;
                    continue;
                }
                Err(e) if is_fatal_comm(&e) => return Ok(done),
                Err(e) => return Err(e.into()),
            },
        };

        let computed = recover_problem_recorded(comm, ctx, strategy, &name, payload.as_ref())
            .map_err(|e| e.to_string())
            .and_then(|p| {
                instrument::compute_recorded(comm, ctx, &p)
                    .map_err(|e| format!("compute failed: {e}"))
            });
        let reply = match &computed {
            Ok(result) => Answer::priced(idx, result).to_value(),
            Err(why) => Answer::failed(idx, why.clone()).to_value(),
        };
        match comm.send_obj(&reply, 0, TAG) {
            Ok(()) => {
                if computed.is_ok() {
                    done += 1;
                }
            }
            Err(e) if is_fatal_comm(&e) => return Ok(done),
            Err(e) => return Err(e.into()),
        }
    }
}

/// Send a failure report, treating a dead master as a clean exit signal.
fn report_failure(comm: &Comm, job: usize, why: &str) -> Result<(), FarmError> {
    match comm.send_obj(&Answer::failed(job, why).to_value(), 0, TAG) {
        Ok(()) => Ok(()),
        Err(e) if is_fatal_comm(&e) => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Translate the wall-clock [`SupervisorConfig`] timings into the pure
/// scheduler's [`Supervision`] parameters (nanosecond semantics are
/// identical: attempt `n` backs off `backoff_base << min(n-1, 16)`).
fn supervision_of(cfg: &SupervisorConfig) -> Supervision {
    Supervision {
        deadline_ns: cfg.job_deadline.as_nanos() as u64,
        max_attempts: cfg.max_attempts as u32,
        backoff_base_ns: cfg.backoff_base.as_nanos() as u64,
    }
}

/// Supervised master loop, as a thin [`driver`] of the shared
/// [`sched::Scheduler`]: this function only moves bytes and reads
/// clocks; every decision (deadlines, retries with backoff, first-
/// answer dedup, burial, all-dead abort) comes from the state machine.
/// Returns the enriched [`FarmReport`]; errors only on unrecoverable
/// conditions (every slave dead, or the master's own endpoint failing).
fn supervised_master(
    comm: &Comm,
    ctx: &RunCtx,
    files: &[PathBuf],
    strategy: Transmission,
    cfg: &SupervisorConfig,
    knobs: &SchedKnobs,
) -> Result<FarmReport, FarmError> {
    let slaves = comm.size() - 1;
    let start = Instant::now();
    // Reused pack buffer for loaded payloads (see `send_job`).
    let mut scratch = MpiBuf::with_capacity(0);
    let mut scfg = SchedConfig::plain(files.len(), slaves)
        .policy(knobs.policy.clone())
        .supervised(supervision_of(cfg));
    if knobs.record_trace {
        scfg = scfg.record_trace();
    }
    let run = driver::drive_supervised(comm, TAG, scfg, cfg.poll, |job, slave| {
        send_job(comm, ctx, slave, job, &files[job], strategy, &mut scratch)?;
        // Slide the prefetch window past this job (monotonic: retries
        // of earlier jobs don't pull it back).
        ctx.advance(job + 1);
        Ok(())
    })?;
    Ok(FarmReport {
        outcomes: run.outcomes,
        elapsed: start.elapsed(),
        per_slave: run.per_slave,
        strategy,
        failed_jobs: run.failed_jobs,
        retries: run.retries,
        dead_slaves: run.dead_slaves,
        trace: run.trace,
    })
}

/// The supervised route behind [`crate::run`]: the validated entry point
/// with fault injection and phase-level observability threaded through.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_supervised_inner(
    files: &[PathBuf],
    slaves: usize,
    strategy: Transmission,
    cfg: &SupervisorConfig,
    plan: Option<Arc<FaultPlan>>,
    recorder: Option<Arc<Recorder>>,
    ctx: &RunCtx,
    knobs: &SchedKnobs,
) -> Result<FarmReport, FarmError> {
    let body = |comm: Comm| {
        if comm.rank() == 0 {
            Some(supervised_master(&comm, ctx, files, strategy, cfg, knobs))
        } else {
            // A supervised slave never panics the world: local failures
            // are reported upstream, comm failures end the loop.
            match supervised_slave(&comm, ctx, strategy, cfg) {
                Ok(_) | Err(_) => None,
            }
        }
    };
    let results = World::run_instrumented(slaves + 1, plan, recorder, body);
    results
        .into_iter()
        .next()
        .flatten()
        .expect("master produces the report")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{run, FarmConfig};
    use crate::portfolio::{save_portfolio, toy_portfolio};

    /// Shorthand routed through the unified [`crate::run`] entry point.
    fn run_supervised(
        files: &[PathBuf],
        slaves: usize,
        strategy: Transmission,
        cfg: &SupervisorConfig,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<FarmReport, FarmError> {
        let mut fc = FarmConfig::new(slaves, strategy).supervisor(cfg.clone());
        if let Some(plan) = plan {
            fc = fc.fault_plan(plan);
        }
        run(files, &fc)
    }

    fn setup(count: usize, tag: &str) -> (Vec<PathBuf>, Vec<f64>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("farm_sup_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = toy_portfolio(count);
        let paths = save_portfolio(&jobs, &dir).unwrap();
        let expected: Vec<f64> = jobs
            .iter()
            .map(|j| j.problem.compute().unwrap().price)
            .collect();
        (paths, expected, dir)
    }

    #[test]
    fn fault_free_supervised_farm_prices_everything() {
        let (paths, expected, dir) = setup(30, "clean");
        let cfg = SupervisorConfig::default();
        let report = run_supervised(&paths, 3, Transmission::SerializedLoad, &cfg, None).unwrap();
        assert_eq!(report.completed(), expected.len());
        assert!(report.failed_jobs.is_empty());
        assert_eq!(report.retries, 0);
        assert!(report.dead_slaves.is_empty());
        for o in &report.outcomes {
            assert!((o.price - expected[o.job]).abs() < 1e-12);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_slaves_rejected() {
        assert!(matches!(
            run_supervised(
                &[],
                0,
                Transmission::Nfs,
                &SupervisorConfig::default(),
                None
            ),
            Err(FarmError::NoSlaves)
        ));
    }

    #[test]
    fn config_from_cost_model_calibrates_deadline() {
        let cfg = SupervisorConfig::from_cost_model(&crate::calibrate::paper_costs(), 3.0);
        // Paper costs top out above 60 s (American MC), so the deadline
        // is far above the floor and scaled by the safety factor.
        assert!(cfg.job_deadline >= Duration::from_secs(60));
        assert!(cfg.slave_idle_timeout > cfg.job_deadline);
    }

    #[test]
    fn deadline_floor_protects_fast_jobs() {
        let cfg =
            SupervisorConfig::from_cost_model(&crate::calibrate::paper_costs().scaled(1e-9), 1.0);
        assert!(cfg.job_deadline >= Duration::from_millis(50));
    }
}

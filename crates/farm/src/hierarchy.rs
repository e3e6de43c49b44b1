//! Hierarchical (sub-master) farm — the second §5 improvement: "divide
//! the nodes into sub-groups, each group having its own master. Then, each
//! sub-master could apply a naive load balancing but since it has fewer
//! slave processes to monitor the speedups would be better."
//!
//! Topology: the global master (rank 0) splits the file list into
//! contiguous chunks, one per sub-master; each sub-master runs a private
//! Robin-Hood loop over its own slaves and reports its collected results
//! back to the global master when its chunk is drained.
//!
//! Sub-masters and their slaves speak the flat farm's Fig. 4 protocol
//! ([`crate::robin_hood`]'s `send_job` / `slave_loop`); only the rank
//! acting as master differs.

use crate::config::RunCtx;
use crate::driver::{self, JobMap, RecvStyle};
use crate::robin_hood::{send_job, send_stop, slave_loop, FarmError, FarmReport, JobOutcome, TAG};
use crate::strategy::Transmission;
use crate::wire::{Answer, JobMsg};
use minimpi::{Comm, MpiBuf, World};
use nspval::{List, Value};
use obs::Recorder;
use sched::SchedConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Rank layout for `groups` sub-masters with `slaves_per_group` slaves
/// each: rank 0 = global master; ranks `1 + g*(slaves_per_group+1)` are
/// sub-masters; the following `slaves_per_group` ranks are their slaves.
#[derive(Debug, Clone, Copy)]
struct Topology {
    groups: usize,
    slaves_per_group: usize,
}

impl Topology {
    fn world_size(&self) -> usize {
        1 + self.groups * (self.slaves_per_group + 1)
    }

    fn sub_master_rank(&self, g: usize) -> usize {
        1 + g * (self.slaves_per_group + 1)
    }

    /// Which group a rank belongs to, and whether it is the sub-master.
    fn classify(&self, rank: usize) -> (usize, bool) {
        debug_assert!(rank >= 1);
        let g = (rank - 1) / (self.slaves_per_group + 1);
        let is_sub_master = (rank - 1).is_multiple_of(self.slaves_per_group + 1);
        (g, is_sub_master)
    }
}

/// Run the hierarchical farm: `groups` sub-masters, each with
/// `slaves_per_group` compute slaves.
pub fn run_hierarchical_farm(
    files: &[PathBuf],
    groups: usize,
    slaves_per_group: usize,
    strategy: Transmission,
) -> Result<FarmReport, FarmError> {
    run_hierarchical_farm_recorded(files, groups, slaves_per_group, strategy, None)
}

/// [`run_hierarchical_farm`] with phase-level observability: every rank's
/// comm traffic plus sub-master prepare and slave compute phases land in
/// `recorder` (size it with at least the world size:
/// `1 + groups * (slaves_per_group + 1)` ranks).
pub fn run_hierarchical_farm_recorded(
    files: &[PathBuf],
    groups: usize,
    slaves_per_group: usize,
    strategy: Transmission,
    recorder: Option<Arc<Recorder>>,
) -> Result<FarmReport, FarmError> {
    if groups == 0 || slaves_per_group == 0 {
        return Err(FarmError::NoSlaves);
    }
    let topo = Topology {
        groups,
        slaves_per_group,
    };
    if let Some(rec) = &recorder {
        if rec.ranks() < topo.world_size() {
            return Err(FarmError::Config(exec::ConfigIssues::one(
                "recorder",
                format!(
                    "covers {} ranks but the hierarchy needs {}",
                    rec.ranks(),
                    topo.world_size()
                ),
            )));
        }
    }
    let ctx = RunCtx::default_ctx();
    let results = World::run_instrumented(topo.world_size(), None, recorder, |comm| {
        let rank = comm.rank();
        if rank == 0 {
            Some(global_master(&comm, files, topo, strategy))
        } else {
            let (g, is_sub) = topo.classify(rank);
            if is_sub {
                sub_master(&comm, &ctx, topo, strategy).expect("sub-master failed");
            } else {
                slave_loop(&comm, &ctx, strategy, topo.sub_master_rank(g)).expect("slave failed");
            }
            None
        }
    });
    results
        .into_iter()
        .next()
        .flatten()
        .expect("global master produces the report")
}

/// Global master: chunk the portfolio, send one chunk (a list of
/// [`JobMsg`]s) to each sub-master, gather their result lists.
fn global_master(
    comm: &Comm,
    files: &[PathBuf],
    topo: Topology,
    strategy: Transmission,
) -> Result<FarmReport, FarmError> {
    let start = Instant::now();
    // Contiguous chunking, remainder spread over the first groups.
    let base = files.len() / topo.groups;
    let rem = files.len() % topo.groups;
    let mut begin = 0;
    for g in 0..topo.groups {
        let len = base + usize::from(g < rem);
        let chunk: Vec<Value> = (begin..begin + len)
            .map(|idx| {
                let name = files[idx].to_string_lossy().into_owned();
                JobMsg { idx, name }.to_value()
            })
            .collect();
        begin += len;
        comm.send_obj(&Value::list(chunk), topo.sub_master_rank(g) as i32, TAG)?;
    }
    // Gather per-group reports.
    let mut outcomes = Vec::with_capacity(files.len());
    let mut per_slave = vec![0usize; comm.size()];
    for _ in 0..topo.groups {
        let (v, _st) = driver::recv_any(comm, TAG)?;
        let list = v
            .as_list()
            .ok_or_else(|| FarmError::Protocol(format!("undecodable group report: {v}")))?;
        for item in list.iter() {
            // A priced answer plus the rank that priced it.
            let bad = || FarmError::Protocol(format!("undecodable group report item: {item}"));
            let slave = item
                .as_hash()
                .and_then(|h| h.get("slave"))
                .and_then(|x| x.as_scalar())
                .map(|s| s as usize)
                .filter(|&s| s < per_slave.len())
                .ok_or_else(bad)?;
            let Some(Answer::Priced {
                job,
                price,
                std_error,
            }) = Answer::decode(item)
            else {
                return Err(bad());
            };
            outcomes.push(JobOutcome {
                job,
                slave,
                price,
                std_error,
            });
            per_slave[slave] += 1;
        }
    }
    Ok(FarmReport {
        outcomes,
        elapsed: start.elapsed(),
        per_slave,
        failed_jobs: Vec::new(),
        retries: 0,
        dead_slaves: Vec::new(),
        strategy,
        trace: None,
    })
}

/// Sub-master: Robin-Hood over its own slaves for its chunk, then one
/// aggregated report to the global master.
fn sub_master(
    comm: &Comm,
    ctx: &RunCtx,
    topo: Topology,
    strategy: Transmission,
) -> Result<(), FarmError> {
    let (chunk, _) = comm.recv_obj(0, TAG)?;
    let jobs: Vec<JobMsg> = chunk
        .as_list()
        .and_then(|l| l.iter().map(JobMsg::decode).collect())
        .ok_or_else(|| FarmError::Protocol(format!("undecodable job chunk: {chunk}")))?;

    let my_rank = comm.rank();
    // Scheduler slave `s` is MPI rank `my_rank + s`; sched job `j` is
    // global job `base + j` (chunks are contiguous).
    let mut ranks = vec![my_rank];
    ranks.extend((1..=topo.slaves_per_group).map(|k| my_rank + k));
    let base = jobs.first().map_or(0, |j| j.idx);
    let mut scratch = MpiBuf::with_capacity(0);

    let cfg = SchedConfig::plain(jobs.len(), topo.slaves_per_group);
    let run = driver::drive_plain(
        comm,
        TAG,
        cfg,
        &ranks,
        RecvStyle::Obj,
        JobMap::Offset(base),
        None,
        |job, rank, _batch| {
            let JobMsg { idx, name } = &jobs[job];
            send_job(comm, ctx, rank, *idx, Path::new(name), strategy, &mut scratch)
        },
        |rank| send_stop(comm, rank),
    )?;

    // Aggregate report for the global master, in completion order: each
    // item is a priced `Answer` plus the `slave` rank that priced it.
    let mut results = List::new();
    for o in &run.outcomes {
        let mut item = Answer::Priced {
            job: o.job,
            price: o.price,
            std_error: o.std_error,
        }
        .to_value();
        if let Value::Hash(h) = &mut item {
            h.set("slave", Value::scalar(o.slave as f64));
        }
        results.add_last(item);
    }
    comm.send_obj(&Value::List(results), 0, TAG)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::{save_portfolio, toy_portfolio};

    fn setup(count: usize, tag: &str) -> (Vec<PathBuf>, Vec<f64>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("farm_hier_{tag}"));
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
    fn hierarchical_farm_completes_portfolio() {
        let (paths, expected, dir) = setup(30, "complete");
        let report = run_hierarchical_farm(&paths, 2, 3, Transmission::SerializedLoad).unwrap();
        assert_eq!(report.completed(), 30);
        let mut seen = [false; 30];
        for o in &report.outcomes {
            assert!(!seen[o.job]);
            seen[o.job] = true;
            assert!((o.price - expected[o.job]).abs() < 1e-12);
        }
        assert!(seen.iter().all(|&s| s));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn work_spreads_across_groups() {
        let (paths, _, dir) = setup(40, "spread");
        let report = run_hierarchical_farm(&paths, 2, 2, Transmission::Nfs).unwrap();
        // Topology: rank 0 global, 1 sub, 2-3 slaves, 4 sub, 5-6 slaves.
        let g1: usize = report.per_slave[2] + report.per_slave[3];
        let g2: usize = report.per_slave[5] + report.per_slave[6];
        assert_eq!(g1 + g2, 40);
        assert!(g1 > 0 && g2 > 0, "one group idle: {g1}/{g2}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_group_matches_flat_farm_semantics() {
        let (paths, expected, dir) = setup(12, "flat_equiv");
        let report = run_hierarchical_farm(&paths, 1, 2, Transmission::FullLoad).unwrap();
        assert_eq!(report.completed(), 12);
        for o in &report.outcomes {
            assert!((o.price - expected[o.job]).abs() < 1e-12);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_empty_topology() {
        assert!(run_hierarchical_farm(&[], 0, 3, Transmission::Nfs).is_err());
        assert!(run_hierarchical_farm(&[], 3, 0, Transmission::Nfs).is_err());
    }

    #[test]
    fn malformed_chunk_is_a_protocol_error() {
        let topo = Topology {
            groups: 1,
            slaves_per_group: 1,
        };
        let ctx = RunCtx::default_ctx();
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                let junk = Value::list(vec![Value::scalar(1.0)]);
                comm.send_obj(&junk, 1, TAG).unwrap();
                None
            } else {
                Some(sub_master(&comm, &ctx, topo, Transmission::Nfs))
            }
        });
        assert!(matches!(results[1], Some(Err(FarmError::Protocol(_)))));
    }

    #[test]
    fn more_groups_than_jobs() {
        let (paths, _, dir) = setup(3, "sparse");
        let report = run_hierarchical_farm(&paths, 4, 2, Transmission::SerializedLoad).unwrap();
        assert_eq!(report.completed(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}

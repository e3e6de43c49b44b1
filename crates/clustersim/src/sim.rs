//! The Robin-Hood replay: event-driven simulation of Fig. 4's protocol
//! over the [`crate::params`] performance model.
//!
//! The simulator holds **no scheduling logic of its own**: every
//! dispatch decision comes from the same pure [`sched::Scheduler`] state
//! machine the live `minimpi` masters drive. The simulator's job is the
//! *performance model* — what each decision costs in master CPU, NIC
//! occupancy, NFS queueing and slave compute — plus the event heap that
//! turns those costs back into the scheduler's event stream. A live run
//! and a simulated run of the same workload therefore render
//! byte-identical decision [`Trace`]s (`tests/sched_parity.rs`).

use crate::params::SimConfig;
use crate::resource::Resource;
use farm::strategy::Transmission;
use farm::JobClass;
use obs::{Event, EventKind, Recorder, NO_JOB};
use sched::{
    Action, DispatchPolicy, Event as SchedEvent, SchedConfig, SchedError, Scheduler, Supervision,
    Trace,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// One job as the simulator sees it: a class (for bookkeeping), the size
/// of its problem file on the wire, and a pre-drawn compute duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimJob {
    /// Stable job identifier.
    pub id: usize,
    /// §4.3 product class (the cost-model key).
    pub class: JobClass,
    /// Problem-file size on the wire.
    pub bytes: usize,
    /// Compute duration in seconds.
    pub compute: f64,
}

/// A set of problem files already resident in one cache. [`SimCaches`]
/// holds two: the NFS server's block cache and the farm's client-side
/// problem cache.
#[derive(Debug, Default, Clone)]
pub struct FileCache {
    files: HashSet<usize>,
}

impl FileCache {
    /// Record an access; returns true if the file was already resident.
    fn access(&mut self, file: usize) -> bool {
        !self.files.insert(file)
    }

    /// Number of resident files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

/// Both caches a simulated run can carry across calls. Pass the same
/// value again to model a warm re-run; pass a fresh one for cold.
#[derive(Debug, Default, Clone)]
pub struct SimCaches {
    /// NFS server block cache: only the NFS strategy's slave reads touch
    /// it. Kept across consecutive runs, it makes the §4.2 "huge
    /// difference in computation time between 2 and 4 nodes"
    /// reproducible: the first sweep point warms it for the rest.
    pub nfs: FileCache,
    /// Client-side problem cache (`store::CachingStore` as the simulator
    /// models it): with `StoreParams::client_cache` on, it sits in front
    /// of every fetch the farm makes, whichever strategy runs.
    pub client: FileCache,
}

impl SimCaches {
    /// Fresh cold caches.
    pub fn new() -> Self {
        SimCaches::default()
    }
}

/// Simulation result for one farm run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Wall-clock makespan in (simulated) seconds.
    pub makespan: f64,
    /// Jobs completed per slave.
    pub per_slave: Vec<usize>,
    /// Fraction of the run the master spent busy (the §4.2/§5 bottleneck
    /// diagnostic).
    pub master_utilisation: f64,
    /// The scheduler's timestamp-free decision trace, when
    /// [`SimSpec::record_trace`] is set.
    pub trace: Option<Trace>,
}

/// A scripted slave death for [`simulate`]: the simulated
/// counterpart of `minimpi`'s `FaultPlan::kill_rank_at_op`. The slave
/// computes its fatal job in full but dies *sending the result* — the
/// answer never reaches the master, whose liveness sweep notices the
/// death `detect_delay_s` simulated seconds later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFault {
    /// Slave index, `0..slaves` (MPI rank `slave + 1`).
    pub slave: usize,
    /// Dies answering the `fatal_dispatch`-th dispatch it receives
    /// (0-based count of dispatches to this slave).
    pub fatal_dispatch: usize,
    /// Simulated master-side detection latency after the fatal send
    /// began (the live analogue is one supervisor poll interval).
    pub detect_delay_s: f64,
}

/// One simulated farm run: the farm's shape, the performance model and
/// the scheduler's knobs. [`SimSpec::new`] gives the plain Fig. 4
/// master — FIFO, unsupervised, untraced, fault-free, flat — on the
/// default model; set other fields with struct-update syntax.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Worker ranks (the paper's tables count `slaves + 1` CPUs).
    pub slaves: usize,
    /// How problems reach the slaves.
    pub strategy: Transmission,
    /// The performance model.
    pub model: SimConfig,
    /// Dispatch order for queued jobs.
    pub policy: DispatchPolicy,
    /// `Some` runs the supervised master; required for `faults`.
    pub supervision: Option<Supervision>,
    /// Record the scheduler's decision trace into [`SimOutcome::trace`].
    pub record_trace: bool,
    /// Scripted slave deaths (at most one can fire per slave).
    pub faults: Vec<SimFault>,
    /// `Some(r)` declares staged rounds (`r[job]` = round index): no
    /// job of round `k + 1` is dispatched before round `k` drains — the
    /// Picard-iteration shape of the BSDE workloads. `None` is the flat
    /// historical machine.
    pub rounds: Option<Vec<usize>>,
}

impl SimSpec {
    /// The plain Fig. 4 master on `slaves` slaves over the default model.
    pub fn new(slaves: usize, strategy: Transmission) -> Self {
        SimSpec {
            slaves,
            strategy,
            model: SimConfig::default(),
            policy: DispatchPolicy::Fifo,
            supervision: None,
            record_trace: false,
            faults: Vec::new(),
            rounds: None,
        }
    }
}

/// Total f64 ordering wrapper for the event heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Replay one Robin-Hood farm run.
///
/// Every dispatch decision comes from the [`sched::Scheduler`] configured
/// by `spec`; the performance model in `spec.model` prices each one. The
/// caches persist across calls when the same `caches` is passed again —
/// pass fresh ones for a cold run.
///
/// With a `recorder`, every simulated phase lands in it as the *same*
/// [`obs::EventKind`] stream the live instrumented farm produces (master
/// prep as `Serialize`/`Sload`, NIC occupancy as `Send`, slave-side
/// `Probe`/`Recv`/`Unpack` or `NfsRead`, then `Compute` and the reply),
/// with simulated seconds mapped to nanosecond timestamps, so simulated
/// and live runs are diffable per phase through one [`obs::Breakdown`].
/// When `client_cache` is on, every fetch also lands as a zero-duration
/// `CacheHit`/`CacheMiss` mark on the rank that fetched (master for
/// loaded strategies, the slave for NFS). Rank 0 is the master and slave
/// *s* is rank `s + 1`: size the recorder with at least `slaves + 1`
/// ranks.
///
/// # Errors
///
/// The scheduler's configuration errors, e.g. [`SchedError::NoSlaves`]
/// for `slaves == 0` or a `rounds` vector of the wrong length.
///
/// # Panics
///
/// When `spec.faults` is non-empty without `spec.supervision`: the plain
/// master would wait forever for a dead slave's answer.
pub fn simulate(
    jobs: &[SimJob],
    spec: &SimSpec,
    caches: &mut SimCaches,
    recorder: Option<&Recorder>,
) -> Result<SimOutcome, SchedError> {
    assert!(
        spec.faults.is_empty() || spec.supervision.is_some(),
        "scripted slave deaths require supervision (the plain master would hang)"
    );
    // The scheduler: the same pure state machine the live masters drive.
    let mut sched = Scheduler::new(SchedConfig {
        jobs: jobs.len(),
        slaves: spec.slaves,
        batch: 1,
        policy: spec.policy.clone(),
        supervision: spec.supervision,
        rounds: spec.rounds.clone(),
        record_trace: spec.record_trace,
    })?;
    let (slaves, strategy, cfg) = (spec.slaves, spec.strategy, &spec.model);
    // Simulated-seconds → event-record adapter. All events funnel through
    // here so disabling the recorder costs exactly one branch.
    let emit = |kind: EventKind, rank: usize, job: i64, start_s: f64, dur_s: f64, bytes: usize| {
        if let Some(rec) = recorder {
            rec.record(Event {
                kind,
                rank: rank as u16,
                job,
                start_ns: (start_s * 1e9) as u64,
                dur_ns: (dur_s * 1e9) as u64,
                bytes: bytes as u64,
            });
        }
    };
    let mut master = Resource::new();
    let mut nfs = Resource::new();
    let mut slave_res: Vec<Resource> = (0..slaves).map(|_| Resource::new()).collect();
    let mut per_slave = vec![0usize; slaves];

    // (arrival-at-master, slave, ANSWER/DEAD, job) min-heap. The slave
    // index is the tie-breaker for simultaneous arrivals, exactly as in
    // the pre-scheduler replay loop.
    const ANSWER: u8 = 0;
    const DEAD: u8 = 1;
    let mut heap: BinaryHeap<Reverse<(Time, usize, u8, usize)>> = BinaryHeap::new();

    let master_prep = |strategy: Transmission| -> f64 {
        match strategy {
            Transmission::FullLoad => cfg.master.full_load_prep,
            Transmission::SerializedLoad => cfg.master.sload_prep,
            Transmission::Nfs => cfg.master.nfs_prep,
        }
    };
    // Name messages are tiny; loaded strategies ship the file bytes too.
    let wire_bytes = |strategy: Transmission, job: &SimJob| -> usize {
        match strategy {
            Transmission::Nfs => 64,
            Transmission::FullLoad | Transmission::SerializedLoad => 96 + job.bytes,
        }
    };
    // Result messages are small fixed-size records.
    const RESULT_BYTES: usize = 96;
    // Transport-backend overhead on top of the raw network time; zero
    // with the default [`crate::params::TransportParams`], keeping the
    // baseline model bit-identical.
    let result_wire = cfg.network.transfer_time(RESULT_BYTES) + cfg.transport.cost(RESULT_BYTES);

    let store = cfg.store;
    // Dispatch job to slave starting from master-ready time; returns the
    // time the result lands back at the master.
    let dispatch = |job: &SimJob,
                    s: usize,
                    ready: f64,
                    master: &mut Resource,
                    nfs: &mut Resource,
                    slave_res: &mut [Resource],
                    caches: &mut SimCaches|
     -> f64 {
        let jid = job.id as i64;
        let srank = s + 1;
        let base_prep = master_prep(strategy);
        let name_prep = cfg.master.nfs_prep.min(base_prep);
        // The strategy-specific fetch+materialise span beyond the tiny
        // name-message build.
        let uncached_span = base_prep - name_prep;
        // Client cache (loaded strategies, master side): a warm hit
        // shrinks the *fetch* part of the span to `hit_fetch`; full
        // load's materialisation (unserialize + rebuild + reserialize)
        // is CPU work the cache cannot skip and is paid either way.
        let (fetch_span, master_hit) = if store.client_cache && strategy != Transmission::Nfs {
            let hit = caches.client.access(job.id);
            let materialise = match strategy {
                Transmission::FullLoad => {
                    (cfg.master.full_load_prep - cfg.master.sload_prep).max(0.0)
                }
                _ => 0.0,
            };
            let fetch = if hit {
                store.hit_fetch
            } else {
                (uncached_span - materialise).max(0.0)
            };
            (materialise + fetch, Some(hit))
        } else {
            (uncached_span, None)
        };
        let prep = name_prep + fetch_span;
        // Wire compression (loaded strategies, payload over threshold):
        // the payload shrinks by `compress_ratio`, the master pays
        // per-byte compression CPU, the slave pays decompression.
        let raw_wire = wire_bytes(strategy, job);
        let (wire, compress_cpu, decompress_cpu) = if store.compress
            && strategy != Transmission::Nfs
            && job.bytes >= store.compress_threshold
        {
            let compressed = 96 + (job.bytes as f64 * store.compress_ratio).ceil() as usize;
            (
                compressed.min(raw_wire),
                store.compress_cpu * job.bytes as f64,
                store.decompress_cpu * job.bytes as f64,
            )
        } else {
            (raw_wire, 0.0, 0.0)
        };
        let transfer = cfg.network.transfer_time(wire) + cfg.transport.cost(wire);
        // Master: prep (+ compression) + NIC occupancy (serialised on
        // the master).
        let send_done = master.acquire(ready, prep + compress_cpu + transfer);
        // Master-side phases, mirroring the live farm's event stream:
        // strategy prep (Serialize / Sload), then the tiny name-message
        // Serialize, Pack (free: the payload is already serial bytes),
        // and the NIC occupancy as Send.
        let t0 = send_done - prep - compress_cpu - transfer;
        match strategy {
            Transmission::FullLoad => {
                emit(EventKind::Serialize, 0, jid, t0, fetch_span, job.bytes);
            }
            Transmission::SerializedLoad => {
                emit(EventKind::Sload, 0, jid, t0, fetch_span, job.bytes);
            }
            Transmission::Nfs => {}
        }
        if let Some(hit) = master_hit {
            let kind = if hit {
                EventKind::CacheHit
            } else {
                EventKind::CacheMiss
            };
            emit(kind, 0, jid, t0 + fetch_span, 0.0, job.bytes);
        }
        emit(EventKind::Serialize, 0, jid, t0 + fetch_span, name_prep, 64);
        if compress_cpu > 0.0 {
            emit(
                EventKind::Compress,
                0,
                jid,
                t0 + prep,
                compress_cpu,
                raw_wire - wire,
            );
        }
        if strategy != Transmission::Nfs {
            emit(
                EventKind::Pack,
                0,
                jid,
                t0 + prep + compress_cpu,
                0.0,
                job.bytes,
            );
        }
        emit(
            EventKind::Send,
            0,
            jid,
            t0 + prep + compress_cpu,
            transfer,
            wire,
        );
        // Slave receives and recovers the problem.
        let mut t = slave_res[s].acquire(send_done, 0.0);
        if strategy == Transmission::Nfs {
            if store.client_cache && caches.client.access(job.id) {
                // Warm client cache: the slave's fetch never leaves the
                // node — no NFS server trip, no FIFO queueing.
                t += store.hit_fetch;
                emit(
                    EventKind::NfsRead,
                    srank,
                    jid,
                    t - store.hit_fetch,
                    store.hit_fetch,
                    job.bytes,
                );
                emit(EventKind::CacheHit, srank, jid, t, 0.0, job.bytes);
            } else {
                // Slave reads the file from the NFS server (FIFO + cache).
                let service = if caches.nfs.access(job.id) {
                    cfg.nfs.warm_read
                } else {
                    cfg.nfs.cold_read
                };
                t = nfs.acquire(t, service);
                emit(
                    EventKind::NfsRead,
                    srank,
                    jid,
                    t - service,
                    service,
                    job.bytes,
                );
                if store.client_cache {
                    emit(EventKind::CacheMiss, srank, jid, t, 0.0, job.bytes);
                }
            }
        } else {
            emit(EventKind::Probe, srank, jid, t, 0.0, wire);
            emit(EventKind::Recv, srank, jid, t, 0.0, wire);
            if decompress_cpu > 0.0 {
                emit(
                    EventKind::Decompress,
                    srank,
                    jid,
                    t,
                    decompress_cpu,
                    job.bytes,
                );
                t += decompress_cpu;
            }
            emit(
                EventKind::Unpack,
                srank,
                jid,
                t,
                cfg.slave.unpack,
                job.bytes,
            );
            t += cfg.slave.unpack;
        }
        // Compute + result send. With `cfg.exec.threads >= 2` the drawn
        // compute cost shrinks by the intra-slave executor's Amdahl
        // speedup. A `SimJob` carries a pre-drawn duration, not a pricing
        // method, so the model applies uniformly — the *live* farm only
        // routes the path-chunked Monte-Carlo/LSM kernels through the
        // executor (`JobClass::chunked_kernel`), which is exactly the
        // compute the simulator's per-class costs stand in for.
        let (compute_wall, chunk_cpu) = cfg.exec.apply(job.compute);
        let done = slave_res[s].acquire(t, compute_wall + cfg.slave.result_prep);
        let compute_start = done - compute_wall - cfg.slave.result_prep;
        emit(
            EventKind::Compute,
            srank,
            jid,
            compute_start,
            compute_wall,
            0,
        );
        if chunk_cpu > 0.0 {
            // Mirror the live farm's post-join diagnostics: one
            // `ComputeChunk` span per worker thread covering its share of
            // the parallel worker-CPU seconds. Like the live stream these
            // overlap the `Compute` wall span and are excluded from
            // `Breakdown::total_s` (see `EventKind::DIAGNOSTIC`).
            let per_thread = chunk_cpu / cfg.exec.threads.max(1) as f64;
            for _ in 0..cfg.exec.threads.max(1) {
                emit(
                    EventKind::ComputeChunk,
                    srank,
                    jid,
                    compute_start,
                    per_thread,
                    0,
                );
            }
        }
        if cfg.exec.lanes > 1 {
            // Mirror the live executor's lane self-check mark: one
            // zero-duration `LaneBatch` per compute, bytes = lane width.
            emit(
                EventKind::LaneBatch,
                srank,
                jid,
                compute_start,
                0.0,
                cfg.exec.lanes,
            );
        }
        emit(
            EventKind::Serialize,
            srank,
            jid,
            compute_start + compute_wall,
            cfg.slave.result_prep,
            RESULT_BYTES,
        );
        emit(EventKind::Send, srank, jid, done, result_wire, RESULT_BYTES);
        done + result_wire
    };

    // Per-slave dispatch counter, for matching scripted faults.
    let mut dispatched = vec![0usize; slaves];
    let ns = |t: f64| -> u64 { (t * 1e9) as u64 };

    // Execute one action batch: dispatches run the performance model and
    // push their arrival (or scripted death) onto the heap; supervision
    // actions mirror the live driver's master-side marks.
    let run_actions = |actions: Vec<Action>,
                       now: f64,
                       master: &mut Resource,
                       nfs: &mut Resource,
                       slave_res: &mut [Resource],
                       caches: &mut SimCaches,
                       heap: &mut BinaryHeap<Reverse<(Time, usize, u8, usize)>>,
                       per_slave: &mut [usize],
                       dispatched: &mut [usize]| {
        for a in actions {
            match a {
                Action::Dispatch { job, slave, .. } => {
                    let s = slave - 1;
                    let nth = dispatched[s];
                    dispatched[s] += 1;
                    let arrival = dispatch(&jobs[job], s, now, master, nfs, slave_res, caches);
                    let fault = spec
                        .faults
                        .iter()
                        .find(|f| f.slave == s && f.fatal_dispatch == nth);
                    match fault {
                        Some(f) => {
                            // The slave dies *sending* this result: the
                            // answer never arrives, and the master's
                            // liveness sweep notices `detect_delay_s`
                            // after the fatal send began.
                            let death = arrival - result_wire;
                            heap.push(Reverse((Time(death + f.detect_delay_s), s, DEAD, job)));
                        }
                        None => heap.push(Reverse((Time(arrival), s, ANSWER, job))),
                    }
                }
                // Stop sentinels and terminal markers are free in the
                // performance model.
                Action::Stop { .. } | Action::AllSlavesDead | Action::Finish => {}
                Action::Accept { slave, .. } => per_slave[slave - 1] += 1,
                // The live supervised driver's master-side marks.
                Action::Expire { job, .. } => {
                    emit(EventKind::Deadline, 0, jobs[job].id as i64, now, 0.0, 0)
                }
                Action::Requeue { job } => {
                    emit(EventKind::Retry, 0, jobs[job].id as i64, now, 0.0, 0)
                }
                Action::Bury { slave } => emit(EventKind::SlaveDeath, 0, NO_JOB, now, 0.0, slave),
            }
        }
    };

    // Priming: one SlaveReady per slave, in rank order (Fig. 4).
    for s in 1..=slaves {
        let acts = sched.on(SchedEvent::SlaveReady { slave: s }, 0);
        run_actions(
            acts,
            0.0,
            &mut master,
            &mut nfs,
            &mut slave_res,
            caches,
            &mut heap,
            &mut per_slave,
            &mut dispatched,
        );
    }

    // Drain: pop arrivals and deaths, feed the scheduler, execute its
    // decisions. Under supervision a deadline tick rides on every pop
    // (the live master ticks before every receive); when the heap runs
    // dry with embargoed retries pending, simulated time skips forward
    // in doubling steps until a backoff or deadline fires.
    let mut makespan: f64 = 0.0;
    let mut now: f64 = 0.0;
    let mut idle_step = 1e-3;
    while !sched.is_terminal() {
        let Some(Reverse((Time(t), s, kind, job))) = heap.pop() else {
            if spec.supervision.is_none() {
                break; // plain runs finish through the answer stream alone
            }
            now += idle_step;
            idle_step *= 2.0;
            let acts = sched.on(SchedEvent::Deadline, ns(now));
            run_actions(
                acts,
                now,
                &mut master,
                &mut nfs,
                &mut slave_res,
                caches,
                &mut heap,
                &mut per_slave,
                &mut dispatched,
            );
            continue;
        };
        idle_step = 1e-3;
        now = now.max(t);
        if spec.supervision.is_some() {
            let acts = sched.on(SchedEvent::Deadline, ns(now));
            run_actions(
                acts,
                now,
                &mut master,
                &mut nfs,
                &mut slave_res,
                caches,
                &mut heap,
                &mut per_slave,
                &mut dispatched,
            );
            if sched.is_terminal() {
                break;
            }
        }
        if kind == ANSWER {
            // Master takes the result off the wire. Like the live
            // master's ANY_SOURCE result receive, this is not attributed
            // to a job.
            let handled = master.acquire(t, cfg.master.result_handle);
            emit(
                EventKind::Recv,
                0,
                NO_JOB,
                handled - cfg.master.result_handle,
                cfg.master.result_handle,
                RESULT_BYTES,
            );
            makespan = makespan.max(handled);
            now = now.max(handled);
            let acts = sched.on(SchedEvent::Answer { job, slave: s + 1 }, ns(handled));
            run_actions(
                acts,
                handled,
                &mut master,
                &mut nfs,
                &mut slave_res,
                caches,
                &mut heap,
                &mut per_slave,
                &mut dispatched,
            );
        } else {
            let acts = sched.on(SchedEvent::SlaveDead { slave: s + 1 }, ns(t));
            run_actions(
                acts,
                t,
                &mut master,
                &mut nfs,
                &mut slave_res,
                caches,
                &mut heap,
                &mut per_slave,
                &mut dispatched,
            );
        }
    }

    let util = if makespan > 0.0 {
        master.busy_total() / makespan
    } else {
        0.0
    };
    Ok(SimOutcome {
        makespan,
        per_slave,
        master_utilisation: util,
        trace: sched.take_trace(),
    })
}

// ---------------------------------------------------------------------------
// Sharded peer masters: the simulated counterpart of `farm::shard`
// ---------------------------------------------------------------------------

/// Configuration of a sharded simulated run — the model-side mirror of
/// the live `farm::shard::ShardConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSimConfig {
    /// Number of peer masters, each with a private slave farm.
    pub shards: usize,
    /// Compute slaves per shard.
    pub slaves_per_shard: usize,
    /// Jobs a master leases per round; `0` leases the whole shard at
    /// once (which also leaves nothing to steal).
    pub lease: usize,
    /// Steal from the richest peer pool when the own pool drains.
    pub steal: bool,
}

/// What a sharded simulated run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSimOutcome {
    /// Wall-clock makespan: the last shard to drain, simulated seconds.
    pub makespan: f64,
    /// Jobs computed under each shard's master (stolen ones included).
    pub per_shard_jobs: Vec<usize>,
    /// Per-shard busy time (that shard's last round end).
    pub per_shard_time: Vec<f64>,
    /// Number of steal rounds performed.
    pub steals: usize,
}

/// Replay a sharded peer-master run against the performance model.
///
/// Each shard is an independent simulated farm (its own master, NIC,
/// slaves and caches) advancing on its own virtual clock; the *globally
/// earliest-free* master leases its next round, exactly mirroring the
/// live `farm::shard` round structure: lease from the own pool's front,
/// steal from the richest peer's back once dry. Deterministic — ties
/// break on the lowest shard index — so sweep tables are reproducible.
///
/// With `shards == 1` and `lease == 0` this is one plain farm run: the
/// outcome is bit-identical to [`simulate`] on the same jobs. This is how Tables I–III extend to 512-core sharded runs (64
/// peer masters × 8 slaves) without a global master in the model.
pub fn simulate_sharded(
    jobs: &[SimJob],
    cfg: &ShardSimConfig,
    strategy: Transmission,
    sim: &SimConfig,
) -> ShardSimOutcome {
    assert!(cfg.shards >= 1, "need at least one shard");
    assert!(cfg.slaves_per_shard >= 1, "need at least one slave per shard");
    let shards = cfg.shards;
    // Contiguous pools, remainder spread over the first shards — the
    // same chunking the live seed_pools performs.
    let base = jobs.len() / shards;
    let rem = jobs.len() % shards;
    let mut begin = 0usize;
    let mut pools: Vec<std::collections::VecDeque<usize>> = (0..shards)
        .map(|s| {
            let len = base + usize::from(s < rem);
            let pool = (begin..begin + len).collect();
            begin += len;
            pool
        })
        .collect();

    let mut t = vec![0.0f64; shards];
    let mut caches: Vec<SimCaches> = (0..shards).map(|_| SimCaches::new()).collect();
    let spec = SimSpec {
        model: *sim,
        ..SimSpec::new(cfg.slaves_per_shard, strategy)
    };
    let mut out = ShardSimOutcome {
        makespan: 0.0,
        per_shard_jobs: vec![0; shards],
        per_shard_time: vec![0.0; shards],
        steals: 0,
    };
    let want = |pool_len: usize| if cfg.lease == 0 { pool_len } else { cfg.lease };

    loop {
        // The earliest-free master that can still obtain work leases the
        // next round (lowest index on clock ties).
        let next = (0..shards)
            .filter(|&s| {
                !pools[s].is_empty() || (cfg.steal && pools.iter().any(|p| !p.is_empty()))
            })
            .min_by(|&a, &b| t[a].total_cmp(&t[b]).then(a.cmp(&b)));
        let Some(s) = next else { break };
        let round: Vec<usize> = if !pools[s].is_empty() {
            let n = want(pools[s].len()).min(pools[s].len());
            pools[s].drain(..n).collect()
        } else {
            let victim = (0..shards)
                .filter(|&p| p != s && !pools[p].is_empty())
                .max_by(|&a, &b| pools[a].len().cmp(&pools[b].len()).then(b.cmp(&a)))
                .expect("steal filter guarantees a victim");
            let n = want(pools[victim].len()).min(pools[victim].len());
            let at = pools[victim].len() - n;
            out.steals += 1;
            pools[victim].drain(at..).collect()
        };
        let round_jobs: Vec<SimJob> = round.iter().map(|&i| jobs[i]).collect();
        let run = simulate(&round_jobs, &spec, &mut caches[s], None)
            .expect("a plain run on at least one slave is always valid");
        t[s] += run.makespan;
        out.per_shard_jobs[s] += round.len();
        out.per_shard_time[s] = t[s];
        out.makespan = out.makespan.max(t[s]);
    }
    out
}

// ---------------------------------------------------------------------------
// Open-loop serving: the simulated counterpart of `serve::Session`
// ---------------------------------------------------------------------------

/// One request arriving at the simulated pricing service: the open-loop
/// counterpart of a live `serve::Request`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// Arrival time in simulated seconds (requests are processed in
    /// arrival order; the slice must be sorted by this field).
    pub arrival_s: f64,
    /// The portfolio: job ids double as content fingerprints, so two
    /// jobs with the same id are "identical problems" for coalescing
    /// and memoisation.
    pub jobs: Vec<SimJob>,
    /// Priority class, 0 most urgent. Class `p` may hold at most
    /// `queue_depth >> p` queue slots (floored at one), mirroring the
    /// live admission control.
    pub priority: u8,
}

/// What happened to one open-loop serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSimOutcome {
    /// End-to-end latency per *answered* request, indexed by position
    /// in the input slice (`None` for shed requests).
    pub latency_s: Vec<Option<f64>>,
    /// Requests turned away at admission.
    pub shed: usize,
    /// Problems answered without a fresh compute (memo or coalescing).
    pub memo_hits: usize,
    /// Unique problems actually computed on the slaves.
    pub computed: usize,
    /// Time the last answer left the service.
    pub makespan_s: f64,
}

/// Replay an open-loop arrival stream against a resident simulated
/// farm, mirroring the live `serve::Session` front loop: requests that
/// arrive while a batch is in flight queue up (subject to per-priority
/// admission shares over `queue_depth`) and are served as the next
/// coalesced batch; job ids already computed are memo hits and cost no
/// slave time.
///
/// With a `recorder`, every request lands in the same `obs` schema the
/// live session emits — an `Enqueue` span for queue residency, an
/// `Admit` span for end-to-end latency, `Shed` and `MemoHit` marks —
/// so one [`obs::Breakdown`] reports p50/p99 for either world. Batch
/// compute events are *not* re-emitted per batch (the inner farm replay
/// restarts its clock per run); the request-level SLO stream is the
/// parity surface.
pub fn simulate_serve(
    requests: &[SimRequest],
    slaves: usize,
    strategy: Transmission,
    cfg: &SimConfig,
    queue_depth: usize,
    recorder: Option<&Recorder>,
) -> ServeSimOutcome {
    assert!(slaves >= 1, "need at least one slave");
    assert!(queue_depth >= 1, "need at least one queue slot");
    assert!(
        requests
            .windows(2)
            .all(|w| w[0].arrival_s <= w[1].arrival_s),
        "requests must be sorted by arrival time"
    );
    let emit = |kind: EventKind, job: i64, start_s: f64, dur_s: f64, bytes: usize| {
        if let Some(rec) = recorder {
            rec.record(Event {
                kind,
                rank: 0,
                job,
                start_ns: (start_s * 1e9) as u64,
                dur_ns: (dur_s * 1e9) as u64,
                bytes: bytes as u64,
            });
        }
    };
    let depth_limit =
        |priority: u8| -> usize { (queue_depth >> (priority as usize).min(63)).max(1) };

    let mut out = ServeSimOutcome {
        latency_s: vec![None; requests.len()],
        shed: 0,
        memo_hits: 0,
        computed: 0,
        makespan_s: 0.0,
    };
    // The resident world's caches persist across batches, exactly as a
    // live session's slaves keep their NFS client state warm.
    let mut caches = SimCaches::new();
    let spec = SimSpec {
        model: *cfg,
        ..SimSpec::new(slaves, strategy)
    };
    let mut memo: HashSet<usize> = HashSet::new();

    let mut clock = 0.0f64;
    let mut queued: Vec<usize> = Vec::new(); // request indices
    let mut class_load = vec![0usize; 256];
    let mut next = 0usize;

    loop {
        // Admit every arrival up to the current clock (they arrived
        // while the previous batch was in flight).
        while next < requests.len() && requests[next].arrival_s <= clock {
            let r = &requests[next];
            let class = r.priority as usize;
            if class_load[class] + 1 > depth_limit(r.priority) {
                emit(EventKind::Shed, NO_JOB, r.arrival_s, 0.0, r.jobs.len());
                out.shed += 1;
            } else {
                class_load[class] += 1;
                queued.push(next);
            }
            next += 1;
        }
        if queued.is_empty() {
            // Idle: jump to the next arrival, or finish.
            match requests.get(next) {
                Some(r) => {
                    clock = clock.max(r.arrival_s);
                    continue;
                }
                None => break,
            }
        }

        // Serve the queue as one coalesced batch.
        let batch = std::mem::take(&mut queued);
        let batch_start = clock;
        let mut unique: Vec<SimJob> = Vec::new();
        let mut seen: HashSet<usize> = HashSet::new();
        for &ri in &batch {
            let r = &requests[ri];
            for job in &r.jobs {
                if memo.contains(&job.id) || !seen.insert(job.id) {
                    emit(EventKind::MemoHit, job.id as i64, batch_start, 0.0, 1);
                    out.memo_hits += 1;
                } else {
                    unique.push(*job);
                }
            }
        }
        if !unique.is_empty() {
            let batch_out = simulate(&unique, &spec, &mut caches, None)
                .expect("a plain run on at least one slave is always valid");
            clock += batch_out.makespan;
            out.computed += unique.len();
            for job in &unique {
                memo.insert(job.id);
            }
        }
        for &ri in &batch {
            let r = &requests[ri];
            class_load[r.priority as usize] -= 1;
            let latency = clock - r.arrival_s;
            emit(
                EventKind::Enqueue,
                NO_JOB,
                r.arrival_s,
                batch_start - r.arrival_s,
                r.jobs.iter().map(|j| j.bytes).sum(),
            );
            emit(EventKind::Admit, NO_JOB, r.arrival_s, latency, r.jobs.len());
            out.latency_s[ri] = Some(latency);
        }
        out.makespan_s = clock;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cheap_jobs(n: usize, compute: f64) -> Vec<SimJob> {
        (0..n)
            .map(|id| SimJob {
                id,
                class: JobClass::VanillaClosedForm,
                bytes: 600,
                compute,
            })
            .collect()
    }

    fn cfg() -> SimConfig {
        SimConfig::default()
    }

    fn spec(slaves: usize, strategy: Transmission, model: SimConfig) -> SimSpec {
        SimSpec {
            model,
            ..SimSpec::new(slaves, strategy)
        }
    }

    /// One run from cold caches, unrecorded.
    fn cold_run(jobs: &[SimJob], spec: &SimSpec) -> SimOutcome {
        simulate(jobs, spec, &mut SimCaches::new(), None).unwrap()
    }

    #[test]
    fn single_slave_time_is_roughly_serial_sum() {
        let jobs = cheap_jobs(1000, 1e-3);
        let out = cold_run(&jobs, &SimSpec::new(1, Transmission::SerializedLoad));
        // ≥ total compute, ≤ total compute + modest overhead.
        assert!(out.makespan >= 1.0, "makespan {}", out.makespan);
        assert!(out.makespan < 1.6, "makespan {}", out.makespan);
        assert_eq!(out.per_slave, vec![1000]);
    }

    #[test]
    fn compute_bound_workload_scales_nearly_linearly() {
        // 20 s jobs: communication is negligible → near-linear speedup.
        let jobs: Vec<SimJob> = (0..512)
            .map(|id| SimJob {
                id,
                class: JobClass::BarrierPde,
                bytes: 700,
                compute: 20.0,
            })
            .collect();
        let t1 = cold_run(&jobs, &SimSpec::new(1, Transmission::SerializedLoad)).makespan;
        let t16 = cold_run(&jobs, &SimSpec::new(16, Transmission::SerializedLoad)).makespan;
        let speedup = t1 / t16;
        assert!(speedup > 15.0, "speedup {speedup}");
    }

    #[test]
    fn communication_bound_workload_saturates() {
        // Sub-millisecond jobs: the master serialises all sends, so
        // adding slaves beyond a few must not help (§4.2's regime).
        let jobs = cheap_jobs(5000, 0.3e-3);
        let t4 = cold_run(&jobs, &SimSpec::new(4, Transmission::FullLoad)).makespan;
        let t50 = cold_run(&jobs, &SimSpec::new(50, Transmission::FullLoad)).makespan;
        assert!(
            t50 > 0.6 * t4,
            "full-load farm kept scaling implausibly: t4={t4} t50={t50}"
        );
    }

    #[test]
    fn full_load_costs_master_more_than_sload() {
        let jobs = cheap_jobs(5000, 0.3e-3);
        let full = cold_run(&jobs, &SimSpec::new(20, Transmission::FullLoad));
        let sload = cold_run(&jobs, &SimSpec::new(20, Transmission::SerializedLoad));
        assert!(
            sload.makespan < full.makespan,
            "sload {} !< full {}",
            sload.makespan,
            full.makespan
        );
    }

    #[test]
    fn nfs_cache_warms_across_runs() {
        let jobs = cheap_jobs(2000, 0.3e-3);
        let nfs = SimSpec::new(1, Transmission::Nfs);
        let mut caches = SimCaches::new();
        let cold = simulate(&jobs, &nfs, &mut caches, None).unwrap().makespan;
        let warm = simulate(&jobs, &nfs, &mut caches, None).unwrap().makespan;
        assert!(
            warm < cold * 0.7,
            "cache had no effect: cold {cold} warm {warm}"
        );
        assert_eq!(caches.nfs.len(), 2000);
    }

    #[test]
    fn work_is_balanced_for_homogeneous_jobs() {
        let jobs = cheap_jobs(1000, 5e-3);
        let out = cold_run(&jobs, &SimSpec::new(10, Transmission::SerializedLoad));
        let total: usize = out.per_slave.iter().sum();
        assert_eq!(total, 1000);
        for &c in &out.per_slave {
            assert!(c > 50, "starved slave: {:?}", out.per_slave);
        }
    }

    #[test]
    fn makespan_bounded_below_by_longest_job() {
        let mut jobs = cheap_jobs(50, 1e-3);
        jobs[17].compute = 33.0;
        let out = cold_run(&jobs, &SimSpec::new(64, Transmission::SerializedLoad));
        assert!(out.makespan >= 33.0);
        assert!(out.makespan < 34.0);
    }

    #[test]
    fn master_utilisation_reported() {
        let jobs = cheap_jobs(2000, 0.2e-3);
        let out = cold_run(&jobs, &SimSpec::new(40, Transmission::FullLoad));
        assert!(
            out.master_utilisation > 0.5,
            "util {}",
            out.master_utilisation
        );
        let heavy: Vec<SimJob> = (0..100)
            .map(|id| SimJob {
                id,
                class: JobClass::AmericanPde,
                bytes: 700,
                compute: 30.0,
            })
            .collect();
        let out2 = cold_run(&heavy, &SimSpec::new(4, Transmission::SerializedLoad));
        assert!(
            out2.master_utilisation < 0.05,
            "util {}",
            out2.master_utilisation
        );
    }

    #[test]
    fn recorded_replay_matches_unrecorded_and_emits_live_schema() {
        use std::collections::BTreeSet;
        let jobs = cheap_jobs(12, 2e-3);
        for strategy in Transmission::ALL {
            let plain = cold_run(&jobs, &SimSpec::new(2, strategy));
            let rec = Recorder::new(3);
            let recorded = simulate(
                &jobs,
                &SimSpec::new(2, strategy),
                &mut SimCaches::new(),
                Some(&rec),
            )
            .unwrap();
            // Observability must not perturb the simulated schedule.
            assert_eq!(plain, recorded, "{strategy}");
            let events = rec.events();
            assert_eq!(rec.dropped(), 0);
            // Per-job kind sets match the live instrumented farm schema.
            let expect: BTreeSet<EventKind> = match strategy {
                Transmission::FullLoad => [
                    EventKind::Serialize,
                    EventKind::Pack,
                    EventKind::Send,
                    EventKind::Probe,
                    EventKind::Recv,
                    EventKind::Unpack,
                    EventKind::Compute,
                ]
                .into_iter()
                .collect(),
                Transmission::SerializedLoad => [
                    EventKind::Sload,
                    EventKind::Serialize,
                    EventKind::Pack,
                    EventKind::Send,
                    EventKind::Probe,
                    EventKind::Recv,
                    EventKind::Unpack,
                    EventKind::Compute,
                ]
                .into_iter()
                .collect(),
                Transmission::Nfs => [
                    EventKind::Serialize,
                    EventKind::Send,
                    EventKind::NfsRead,
                    EventKind::Compute,
                ]
                .into_iter()
                .collect(),
            };
            for job in 0..jobs.len() as i64 {
                let kinds: BTreeSet<EventKind> = events
                    .iter()
                    .filter(|e| e.job == job)
                    .map(|e| e.kind)
                    .collect();
                assert_eq!(kinds, expect, "{strategy} job {job}");
            }
            // Compute seconds aggregate exactly to the drawn costs.
            let compute_s: f64 = events
                .iter()
                .filter(|e| e.kind == EventKind::Compute)
                .map(|e| e.dur_s())
                .sum();
            assert!(
                (compute_s - 12.0 * 2e-3).abs() < 1e-9,
                "{strategy}: {compute_s}"
            );
        }
    }

    #[test]
    fn warm_client_cache_cuts_prepare_not_compute() {
        use obs::Breakdown;
        let jobs = cheap_jobs(800, 0.5e-3);
        let mut config = cfg();
        config.store.client_cache = true;
        for strategy in Transmission::ALL {
            let spec = spec(2, strategy, config);
            let mut caches = SimCaches::new();
            let rec_cold = Recorder::with_capacity(3, 1 << 16);
            let cold = simulate(&jobs, &spec, &mut caches, Some(&rec_cold)).unwrap();
            let rec_warm = Recorder::with_capacity(3, 1 << 16);
            let warm = simulate(&jobs, &spec, &mut caches, Some(&rec_warm)).unwrap();
            let bd_cold = Breakdown::from_events(&rec_cold.events());
            let bd_warm = Breakdown::from_events(&rec_warm.events());
            assert!(
                bd_warm.prepare_s() < bd_cold.prepare_s(),
                "{strategy}: warm prepare {} !< cold {}",
                bd_warm.prepare_s(),
                bd_cold.prepare_s()
            );
            assert!(
                (bd_warm.compute_s() - bd_cold.compute_s()).abs() < 1e-9,
                "{strategy}: compute changed"
            );
            assert!(warm.makespan <= cold.makespan, "{strategy}");
            // The cold pass misses every file, the warm pass hits it.
            assert_eq!(bd_cold.cache_hit_rate(), 0.0, "{strategy}");
            assert_eq!(bd_warm.cache_hit_rate(), 1.0, "{strategy}");
            assert_eq!(rec_cold.dropped() + rec_warm.dropped(), 0);
        }
    }

    #[test]
    fn compressed_wire_trades_bandwidth_for_cpu() {
        use obs::Breakdown;
        // Big payloads on a slow link: halving the bytes must shorten
        // the wire phase; the codec CPU shows up under store_s.
        let jobs: Vec<SimJob> = (0..600)
            .map(|id| SimJob {
                id,
                class: JobClass::VanillaClosedForm,
                bytes: 60_000,
                compute: 0.5e-3,
            })
            .collect();
        let mut config = cfg();
        config.network.bandwidth = 10e6; // stress the link
        let record = |c: &SimConfig| {
            let rec = Recorder::with_capacity(3, 1 << 16);
            let out = simulate(
                &jobs,
                &spec(2, Transmission::SerializedLoad, *c),
                &mut SimCaches::new(),
                Some(&rec),
            )
            .unwrap();
            (out, Breakdown::from_events(&rec.events()))
        };
        let (raw_out, raw_bd) = record(&config);
        config.store.compress = true;
        let (z_out, z_bd) = record(&config);
        assert!(
            z_bd.wire_s() < 0.7 * raw_bd.wire_s(),
            "compression did not shrink wire: {} vs {}",
            z_bd.wire_s(),
            raw_bd.wire_s()
        );
        assert!(z_bd.store_s() > 0.0, "no codec time recorded");
        assert_eq!(raw_bd.store_s(), 0.0);
        assert!(
            z_out.makespan < raw_out.makespan,
            "compression should win on a slow link: {} vs {}",
            z_out.makespan,
            raw_out.makespan
        );
        // Compute untouched.
        assert!((z_bd.compute_s() - raw_bd.compute_s()).abs() < 1e-9);
    }

    #[test]
    fn small_payloads_below_threshold_stay_raw() {
        let jobs = cheap_jobs(200, 0.3e-3); // 600-byte files
        let mut config = cfg();
        config.store.compress = true;
        config.store.compress_threshold = 4096; // above the payloads
        let plain = cold_run(&jobs, &SimSpec::new(2, Transmission::SerializedLoad));
        let gated = cold_run(&jobs, &spec(2, Transmission::SerializedLoad, config));
        assert_eq!(plain, gated, "threshold gate leaked compression");
    }

    #[test]
    fn exec_threads_one_is_bit_identical_to_base_model() {
        let mut mixed: Vec<SimJob> = cheap_jobs(300, 0.5e-3);
        for (i, j) in mixed.iter_mut().enumerate() {
            if i % 3 == 0 {
                j.class = JobClass::LocalVolMc;
                j.compute = 5e-3;
            }
        }
        let mut config = cfg();
        config.exec = crate::params::ExecParams::default(); // threads = 1
        for strategy in Transmission::ALL {
            let base = cold_run(&mixed, &SimSpec::new(4, strategy));
            let with_exec = cold_run(&mixed, &spec(4, strategy, config));
            assert_eq!(base, with_exec, "{strategy}");
        }
    }

    #[test]
    fn intra_slave_threads_cut_compute_not_prepare() {
        use obs::Breakdown;
        // Heavy MC jobs: compute dominates, so the Amdahl speedup must
        // show up in compute_s and the makespan while the comm phases
        // stay put.
        let jobs: Vec<SimJob> = (0..64)
            .map(|id| SimJob {
                id,
                class: JobClass::BasketMc,
                bytes: 700,
                compute: 20.0,
            })
            .collect();
        let record = |c: &SimConfig| {
            let rec = Recorder::with_capacity(5, 1 << 16);
            let out = simulate(
                &jobs,
                &spec(4, Transmission::SerializedLoad, *c),
                &mut SimCaches::new(),
                Some(&rec),
            )
            .unwrap();
            assert_eq!(rec.dropped(), 0);
            (out, Breakdown::from_events(&rec.events()))
        };
        let (seq_out, seq_bd) = record(&cfg());
        let mut config = cfg();
        config.exec.threads = 8;
        let (par_out, par_bd) = record(&config);
        let speedup = seq_bd.compute_s() / par_bd.compute_s();
        assert!(
            speedup > 4.0 && speedup < 8.0,
            "compute speedup {speedup} outside the Amdahl window"
        );
        assert!(par_out.makespan < seq_out.makespan / 4.0);
        // Communication phases untouched by intra-slave threads.
        assert!((par_bd.prepare_s() - seq_bd.prepare_s()).abs() < 1e-9);
        assert!((par_bd.wire_s() - seq_bd.wire_s()).abs() < 1e-9);
        // Diagnostics: worker-CPU chunk seconds appear and never inflate
        // the wall-clock phase budget.
        assert_eq!(seq_bd.parallel_s(), 0.0);
        assert!(par_bd.parallel_s() > 0.0);
        assert!(par_bd.parallelism() > 4.0, "x{}", par_bd.parallelism());
        assert!(par_bd.total_s() < seq_bd.total_s());
    }

    #[test]
    fn thread_speedup_is_amdahl_bounded() {
        // Doubling threads can never double throughput: the serial
        // fraction and the spawn overhead both bite.
        let jobs = cheap_jobs(100, 10e-3);
        let makespan = |threads: usize| {
            let mut config = cfg();
            config.exec.threads = threads;
            cold_run(&jobs, &spec(2, Transmission::SerializedLoad, config)).makespan
        };
        let t1 = makespan(1);
        let t8 = makespan(8);
        let speedup = t1 / t8;
        assert!(speedup > 1.0, "threads did nothing: {speedup}");
        assert!(speedup < 8.0, "superlinear compute speedup: {speedup}");
    }

    #[test]
    fn scripted_death_requeues_onto_survivors() {
        let jobs = cheap_jobs(10, 5e-3);
        let out = cold_run(
            &jobs,
            &SimSpec {
                supervision: Some(Supervision {
                    deadline_ns: 10_000_000_000,
                    max_attempts: 4,
                    backoff_base_ns: 0,
                }),
                record_trace: true,
                faults: vec![SimFault {
                    slave: 1,
                    fatal_dispatch: 0,
                    detect_delay_s: 0.02,
                }],
                ..SimSpec::new(2, Transmission::SerializedLoad)
            },
        );
        // Every job completes despite the death; the dead slave (which
        // perished sending its first answer) contributes nothing.
        assert_eq!(out.per_slave.iter().sum::<usize>(), 10);
        assert_eq!(out.per_slave[1], 0, "{:?}", out.per_slave);
        let text = out.trace.unwrap().render();
        assert!(
            text.contains("dead(2) -> bury(2) requeue("),
            "no burial decision in:\n{text}"
        );
    }

    #[test]
    fn lpt_dispatches_longest_job_first_and_beats_fifo_on_a_straggler() {
        let mut jobs = cheap_jobs(6, 1e-3);
        jobs[5].compute = 1.0; // the straggler FIFO leaves for last
        let costs: Vec<f64> = jobs.iter().map(|j| j.compute).collect();
        let lpt = cold_run(
            &jobs,
            &SimSpec {
                policy: DispatchPolicy::Lpt { costs },
                record_trace: true,
                ..SimSpec::new(2, Transmission::SerializedLoad)
            },
        );
        let text = lpt.trace.unwrap().render();
        assert!(
            text.starts_with("ready(1) -> dispatch(5->1)\n"),
            "LPT did not lead with the straggler:\n{text}"
        );
        let fifo = cold_run(&jobs, &SimSpec::new(2, Transmission::SerializedLoad));
        assert!(
            lpt.makespan < fifo.makespan,
            "LPT {} !< FIFO {}",
            lpt.makespan,
            fifo.makespan
        );
    }

    #[test]
    fn empty_job_list_is_zero_makespan() {
        let out = cold_run(&[], &SimSpec::new(5, Transmission::Nfs));
        assert_eq!(out.makespan, 0.0);
    }

    #[test]
    fn zero_slaves_is_a_scheduler_error_not_a_panic() {
        let jobs = cheap_jobs(3, 1e-3);
        let got = simulate(
            &jobs,
            &SimSpec::new(0, Transmission::Nfs),
            &mut SimCaches::new(),
            None,
        );
        assert_eq!(got, Err(SchedError::NoSlaves));
    }

    // -- sharded peer masters ------------------------------------------------

    #[test]
    fn one_shard_whole_lease_is_bit_identical_to_the_plain_farm() {
        let jobs = cheap_jobs(200, 2e-3);
        let plain = cold_run(&jobs, &SimSpec::new(4, Transmission::SerializedLoad));
        let sharded = simulate_sharded(
            &jobs,
            &ShardSimConfig {
                shards: 1,
                slaves_per_shard: 4,
                lease: 0,
                steal: false,
            },
            Transmission::SerializedLoad,
            &cfg(),
        );
        assert_eq!(sharded.makespan.to_bits(), plain.makespan.to_bits());
        assert_eq!(sharded.per_shard_jobs, vec![200]);
        assert_eq!(sharded.steals, 0);
    }

    #[test]
    fn stealing_rebalances_a_heavy_tailed_split() {
        // All the heavy jobs land in shard 0's contiguous chunk: without
        // stealing shard 1 idles; with stealing it takes over the tail.
        let mut jobs = cheap_jobs(64, 1e-3);
        for j in jobs.iter_mut().take(32) {
            j.compute = 0.25;
        }
        let base = ShardSimConfig {
            shards: 2,
            slaves_per_shard: 2,
            lease: 4,
            steal: false,
        };
        let no_steal = simulate_sharded(&jobs, &base, Transmission::SerializedLoad, &cfg());
        let steal = simulate_sharded(
            &jobs,
            &ShardSimConfig {
                steal: true,
                ..base
            },
            Transmission::SerializedLoad,
            &cfg(),
        );
        assert_eq!(no_steal.steals, 0);
        assert!(steal.steals > 0, "heavy tail must trigger steals");
        assert!(
            steal.makespan < no_steal.makespan,
            "stealing must shorten the run: {} !< {}",
            steal.makespan,
            no_steal.makespan
        );
        assert_eq!(steal.per_shard_jobs.iter().sum::<usize>(), 64);
    }

    #[test]
    fn more_shards_never_slow_the_sharded_model() {
        let mut jobs = cheap_jobs(256, 5e-3);
        for (i, j) in jobs.iter_mut().enumerate() {
            if i % 7 == 0 {
                j.compute = 0.1;
            }
        }
        let mut prev = f64::INFINITY;
        for shards in [1usize, 2, 4, 8] {
            let out = simulate_sharded(
                &jobs,
                &ShardSimConfig {
                    shards,
                    slaves_per_shard: 4,
                    lease: 8,
                    steal: true,
                },
                Transmission::SerializedLoad,
                &cfg(),
            );
            assert!(
                out.makespan <= prev,
                "{shards} shards slower: {} > {prev}",
                out.makespan
            );
            prev = out.makespan;
        }
    }

    #[test]
    fn sharded_512_core_run_completes_and_transport_cost_shows() {
        // The paper's 512-core scale as 64 peer masters × 8 slaves.
        let jobs = cheap_jobs(4096, 10e-3);
        let shape = ShardSimConfig {
            shards: 64,
            slaves_per_shard: 8,
            lease: 16,
            steal: true,
        };
        let free = simulate_sharded(&jobs, &shape, Transmission::SerializedLoad, &cfg());
        assert_eq!(free.per_shard_jobs.iter().sum::<usize>(), 4096);
        let mut socket = cfg();
        socket.transport = crate::params::TransportParams::socket();
        let priced = simulate_sharded(&jobs, &shape, Transmission::SerializedLoad, &socket);
        assert!(
            priced.makespan > free.makespan,
            "socket transport overhead must surface: {} !> {}",
            priced.makespan,
            free.makespan
        );
    }

    #[test]
    fn transport_params_zero_keeps_the_flat_model_bit_identical() {
        let jobs = cheap_jobs(300, 1e-3);
        for strategy in Transmission::ALL {
            let base = cold_run(&jobs, &SimSpec::new(4, strategy));
            let mut explicit = cfg();
            explicit.transport = crate::params::TransportParams::default();
            let with_zero = cold_run(&jobs, &spec(4, strategy, explicit));
            assert_eq!(base, with_zero, "{strategy}");
            let mut channel = cfg();
            channel.transport = crate::params::TransportParams::channel();
            let with_channel = cold_run(&jobs, &spec(4, strategy, channel));
            assert!(with_channel.makespan > base.makespan, "{strategy}");
        }
    }

    // -- open-loop serving ---------------------------------------------------

    fn request(arrival_s: f64, ids: std::ops::Range<usize>, priority: u8) -> SimRequest {
        SimRequest {
            arrival_s,
            jobs: ids
                .map(|id| SimJob {
                    id,
                    class: JobClass::VanillaClosedForm,
                    bytes: 600,
                    compute: 0.05,
                })
                .collect(),
            priority,
        }
    }

    #[test]
    fn serve_answers_every_admitted_request_and_memoises_repeats() {
        let requests = vec![
            request(0.0, 0..8, 0),
            request(0.0, 0..8, 0),  // identical: fully coalesced/memoised
            request(10.0, 0..8, 0), // repeat much later: memo hit
        ];
        let out = simulate_serve(&requests, 2, Transmission::SerializedLoad, &cfg(), 8, None);
        assert_eq!(out.shed, 0);
        assert!(out.latency_s.iter().all(Option::is_some));
        assert_eq!(out.computed, 8, "each unique problem computes once");
        assert_eq!(out.memo_hits, 16, "both repeats served without compute");
        // The late repeat is answered instantly: nothing to compute.
        assert_eq!(out.latency_s[2], Some(0.0));
    }

    #[test]
    fn serve_sheds_over_admission_share_and_prefers_urgent_class() {
        // queue_depth 4: class 0 keeps 4 slots, class 1 only 2. A burst
        // of five class-1 arrivals while the first batch runs must shed.
        let mut requests = vec![request(0.0, 0..64, 1)];
        for i in 0..5 {
            requests.push(request(0.001 + i as f64 * 1e-4, 100..132, 1));
        }
        let out = simulate_serve(&requests, 2, Transmission::SerializedLoad, &cfg(), 4, None);
        assert!(out.shed >= 3, "class 1 holds 2 slots, 5 arrived: {out:?}");
        // Shed requests carry no latency; admitted ones all do.
        let answered = out.latency_s.iter().flatten().count();
        assert_eq!(answered + out.shed, requests.len());
    }

    #[test]
    fn serve_emits_the_live_session_slo_schema() {
        let rec = Recorder::new(1);
        let requests = vec![
            request(0.0, 0..4, 0),
            request(0.0, 0..4, 0),
            request(5.0, 0..4, 0),
        ];
        simulate_serve(
            &requests,
            2,
            Transmission::SerializedLoad,
            &cfg(),
            8,
            Some(&rec),
        );
        let b = obs::Breakdown::from_events(&rec.events());
        assert_eq!(b.request_count(), 3);
        assert!(b.request_p99_s() >= b.request_p50_s());
        assert!(b.memo_hits() >= 8, "repeats must surface as MemoHit");
        // Queue residency (Enqueue) spans exist for every request.
        let enq = rec
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Enqueue)
            .count();
        assert_eq!(enq, 3);
    }

    #[test]
    fn serve_latency_includes_queue_wait_behind_a_running_batch() {
        // A huge first batch, then a tiny request arriving just after it
        // starts: the tiny one waits for the batch and its latency shows
        // it (open-loop queueing delay).
        let requests = vec![request(0.0, 0..512, 0), request(0.01, 1000..1001, 0)];
        let out = simulate_serve(&requests, 2, Transmission::SerializedLoad, &cfg(), 8, None);
        let first = out.latency_s[0].unwrap();
        let second = out.latency_s[1].unwrap();
        assert!(
            second > first * 0.5,
            "queued request must wait out the big batch: {second} vs {first}"
        );
    }
}

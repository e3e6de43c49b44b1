//! Golden pins for the Robin-Hood replay.
//!
//! Every configuration the simulator serves — plain runs per
//! transmission strategy, a shared NFS cache, warm client-cache re-runs,
//! compression, the intra-slave executor, LPT, a supervised run with a
//! scripted death, staged rounds, sharded masters and the open-loop
//! service — renders to one line of exact bits: makespan and master
//! utilisation as `f64::to_bits`, jobs per slave, and FNV-1a hashes of
//! the rendered decision [`Trace`] and of the recorded event stream. A
//! change to the model's arithmetic, to what it feeds the scheduler, or
//! to the events it emits changes a line.

use clustersim::{
    simulate, simulate_serve, simulate_sharded, DispatchPolicy, ShardSimConfig, SimCaches,
    SimConfig, SimFault, SimJob, SimOutcome, SimRequest, SimSpec, Supervision, Trace,
};
use farm::strategy::Transmission;
use farm::JobClass;
use obs::{Event, Recorder};

const CLASSES: [JobClass; 4] = [
    JobClass::VanillaClosedForm,
    JobClass::BarrierPde,
    JobClass::LocalVolMc,
    JobClass::AmericanBasketLsm,
];

/// 24 jobs of mixed class, size and cost; deterministic in the id.
fn jobs() -> Vec<SimJob> {
    (0..24)
        .map(|id| SimJob {
            id,
            class: CLASSES[id % CLASSES.len()],
            bytes: 500 + (id * 397) % 4500,
            compute: 1e-3 * (1 + (id * 7) % 11) as f64,
        })
        .collect()
}

/// Slaves of every flat row (the recorder sizes itself to `SLAVES + 1`).
const SLAVES: usize = 3;

/// The scheduling side of one golden row.
#[derive(Default)]
struct Sched {
    policy: Option<DispatchPolicy>,
    supervision: Option<Supervision>,
    faults: Vec<SimFault>,
    rounds: Option<Vec<usize>>,
}

/// One flat simulator call, always traced and recorded.
fn run(
    jobs: &[SimJob],
    strategy: Transmission,
    cfg: &SimConfig,
    caches: &mut SimCaches,
    rec: &Recorder,
    sched: Sched,
) -> (SimOutcome, Option<Trace>) {
    let spec = SimSpec {
        model: *cfg,
        policy: sched.policy.unwrap_or(DispatchPolicy::Fifo),
        supervision: sched.supervision,
        record_trace: true,
        faults: sched.faults,
        rounds: sched.rounds,
        ..SimSpec::new(SLAVES, strategy)
    };
    let mut out = simulate(jobs, &spec, caches, Some(rec)).expect("golden rows are valid");
    let trace = out.trace.take();
    (out, trace)
}

/// 64-bit FNV-1a.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn events_hash(events: &[Event]) -> u64 {
    fnv(events.iter().flat_map(|e| {
        [
            u64::from(e.kind as u8),
            u64::from(e.rank),
            e.job as u64,
            e.start_ns,
            e.dur_ns,
            e.bytes,
        ]
        .into_iter()
        .flat_map(u64::to_le_bytes)
    }))
}

fn row(name: &str, out: &SimOutcome, trace: Option<Trace>, rec: &Recorder) -> String {
    assert_eq!(rec.dropped(), 0, "{name}: recorder wrapped");
    let trace = trace.expect("record_trace was set").render();
    format!(
        "{name} makespan={:016x} util={:016x} per_slave={:?} trace={:016x} events={:016x}\n",
        out.makespan.to_bits(),
        out.master_utilisation.to_bits(),
        out.per_slave,
        fnv(trace.bytes()),
        events_hash(&rec.events()),
    )
}

fn recorder() -> Recorder {
    Recorder::with_capacity(SLAVES + 1, 1 << 12)
}

/// Run one row from cold caches.
fn cold(name: &str, strategy: Transmission, cfg: &SimConfig, s: Sched) -> String {
    let rec = recorder();
    let (out, trace) = run(&jobs(), strategy, cfg, &mut SimCaches::new(), &rec, s);
    row(name, &out, trace, &rec)
}

fn flat_rows() -> String {
    let jobs = jobs();
    let base = SimConfig::default();
    let mut out = String::new();
    for strategy in Transmission::ALL {
        out += &cold(
            &format!("plain/{strategy}"),
            strategy,
            &base,
            Sched::default(),
        );
    }
    // Consecutive runs sharing the NFS server's block cache (the table
    // sweeps' warm points).
    let mut caches = SimCaches::new();
    for pass in ["cold", "warm"] {
        let rec = recorder();
        let (o, t) = run(
            &jobs,
            Transmission::Nfs,
            &base,
            &mut caches,
            &rec,
            Sched::default(),
        );
        out += &row(&format!("nfs-shared/{pass}"), &o, t, &rec);
    }
    let mut client = base;
    client.store.client_cache = true;
    for strategy in Transmission::ALL {
        let mut caches = SimCaches::new();
        for pass in ["cold", "warm"] {
            let rec = recorder();
            let (o, t) = run(
                &jobs,
                strategy,
                &client,
                &mut caches,
                &rec,
                Sched::default(),
            );
            out += &row(&format!("client-cache/{strategy}/{pass}"), &o, t, &rec);
        }
    }
    let mut zip = base;
    zip.store.compress = true;
    zip.store.compress_threshold = 2048;
    zip.network.bandwidth = 10e6;
    for strategy in [Transmission::FullLoad, Transmission::SerializedLoad] {
        out += &cold(
            &format!("compress/{strategy}"),
            strategy,
            &zip,
            Sched::default(),
        );
    }
    let mut exec = base;
    exec.exec.threads = 8;
    exec.exec.lanes = 4;
    out += &cold("exec/x8x4", Transmission::FullLoad, &exec, Sched::default());
    let lpt = Sched {
        policy: Some(DispatchPolicy::Lpt {
            costs: jobs.iter().map(|j| j.compute).collect(),
        }),
        ..Sched::default()
    };
    out += &cold("lpt", Transmission::SerializedLoad, &base, lpt);
    let fault = Sched {
        supervision: Some(Supervision {
            deadline_ns: 10_000_000_000,
            max_attempts: 4,
            backoff_base_ns: 0,
        }),
        faults: vec![SimFault {
            slave: 1,
            fatal_dispatch: 0,
            detect_delay_s: 0.02,
        }],
        ..Sched::default()
    };
    out += &cold(
        "supervised-fault",
        Transmission::SerializedLoad,
        &base,
        fault,
    );
    let staged = Sched {
        rounds: Some((0..jobs.len()).map(|i| i % 3).collect()),
        ..Sched::default()
    };
    out += &cold("rounds", Transmission::SerializedLoad, &base, staged);
    out
}

fn sharded_row() -> String {
    let shape = ShardSimConfig {
        shards: 2,
        slaves_per_shard: 2,
        lease: 4,
        steal: true,
    };
    // Heavy jobs all in shard 0's contiguous pool, so shard 1 steals.
    let mut jobs = jobs();
    for j in jobs.iter_mut().take(8) {
        j.compute = 0.05;
    }
    let out = simulate_sharded(
        &jobs,
        &shape,
        Transmission::SerializedLoad,
        &SimConfig::default(),
    );
    let times: Vec<String> = out
        .per_shard_time
        .iter()
        .map(|t| format!("{:016x}", t.to_bits()))
        .collect();
    let times = times.join(",");
    format!(
        "sharded makespan={:016x} per_shard={:?} times=[{times}] steals={}\n",
        out.makespan.to_bits(),
        out.per_shard_jobs,
        out.steals,
    )
}

fn serve_row() -> String {
    let all = jobs();
    let requests = vec![
        SimRequest {
            arrival_s: 0.0,
            jobs: all[..12].to_vec(),
            priority: 0,
        },
        SimRequest {
            arrival_s: 0.001,
            jobs: all[6..18].to_vec(),
            priority: 1,
        },
        SimRequest {
            arrival_s: 0.5,
            jobs: all[12..].to_vec(),
            priority: 0,
        },
    ];
    let rec = Recorder::new(1);
    let out = simulate_serve(
        &requests,
        3,
        Transmission::SerializedLoad,
        &SimConfig::default(),
        4,
        Some(&rec),
    );
    let latency: Vec<String> = out
        .latency_s
        .iter()
        .map(|l| l.map_or("-".into(), |l| format!("{:016x}", l.to_bits())))
        .collect();
    let latency = latency.join(",");
    format!(
        "serve makespan={:016x} latency=[{latency}] shed={} memo={} computed={} events={:016x}\n",
        out.makespan_s.to_bits(),
        out.shed,
        out.memo_hits,
        out.computed,
        events_hash(&rec.events()),
    )
}

const GOLDEN: &str = "\
plain/full load makespan=3fadc581a9e3beae util=3fca82a0a312ed4c per_slave=[7, 9, 8] trace=64b616a8ff7140f9 events=bcbbd7d03b1a5d23
plain/NFS makespan=3fb0cd3a2ffc9cf4 util=3fa2d18de7f282be per_slave=[8, 9, 7] trace=f90bb2b7ea98720b events=198e188527d3cef5
plain/serialized load makespan=3fac568141083302 util=3fb89ee1deb45d9a per_slave=[7, 9, 8] trace=7068d0f4096d8675 events=ea519a0c413e9626
nfs-shared/cold makespan=3fb0cd3a2ffc9cf4 util=3fa2d18de7f282be per_slave=[8, 9, 7] trace=f90bb2b7ea98720b events=198e188527d3cef5
nfs-shared/warm makespan=3fabde83ea96f35b util=3fa6b0c6559c49fa per_slave=[7, 9, 8] trace=7068d0f4096d8675 events=296efef67f40f32f
client-cache/full load/cold makespan=3fadc581a9e3beae util=3fca82a0a312ed4c per_slave=[7, 9, 8] trace=64b616a8ff7140f9 events=8ff42d5f0e41508d
client-cache/full load/warm makespan=3fad4f8aacc1bf80 util=3fc618f46d0d3bef per_slave=[7, 9, 8] trace=64b616a8ff7140f9 events=5504fb558a3d591a
client-cache/NFS/cold makespan=3fb0cd3a2ffc9cf4 util=3fa2d18de7f282be per_slave=[8, 9, 7] trace=f90bb2b7ea98720b events=4c73165169fe725b
client-cache/NFS/warm makespan=3fab8bf09fcbf3f0 util=3fa6f4cb0b6b18ed per_slave=[7, 9, 8] trace=7068d0f4096d8675 events=940fe1492efb1d1e
client-cache/serialized load/cold makespan=3fac568141083302 util=3fb89ee1deb45d9a per_slave=[7, 9, 8] trace=7068d0f4096d8675 events=d6ee0ddc561c1c3c
client-cache/serialized load/warm makespan=3fabe08a43e633d4 util=3fadbe57ca7aaa85 per_slave=[7, 9, 8] trace=7068d0f4096d8675 events=0ef95e82adf9f191
compress/full load makespan=3fae7e151d8d486f util=3fd0dc61a2f0aee8 per_slave=[8, 9, 7] trace=f90bb2b7ea98720b events=9c9ef5e8ed98f7e2
compress/serialized load makespan=3fad0f14b4b1bcc3 util=3fc43ad9659054dd per_slave=[7, 9, 8] trace=64b616a8ff7140f9 events=b33bd25927a61e8b
exec/x8x4 makespan=3f8acc69bf502649 util=3fed7388ff651f5e per_slave=[8, 8, 8] trace=b9f5377a05bff516 events=996e1e76bb9bd795
lpt makespan=3fa9c210417cde35 util=3fbb1628edcba855 per_slave=[8, 8, 8] trace=a9e98965e3dc9bfe events=174b553d3c5aa827
supervised-fault makespan=3fb37ddfb2604295 util=3fb2877a77ba0894 per_slave=[9, 0, 15] trace=25e9c7cad24ae087 events=28996ab7c315bd6e
rounds makespan=3fae62c4ceda20d4 util=3fb6f616a17de408 per_slave=[9, 8, 7] trace=6942bd2948a6035a events=dcade3bc1a48c570
sharded makespan=3fc3ad55e40d303f per_shard=[4, 20] times=[3fb9d40a2dd65208,3fc3ad55e40d303f] steals=2
serve makespan=3fe08395ea402dcb latency=[3f98fdcc62de605f,3fa744dab6ab896a,3f9072bd4805b960] shed=0 memo=12 computed=24 events=a0ba32ff770768a3
";

#[test]
fn every_configuration_replays_to_its_pinned_bits() {
    let got = flat_rows() + &sharded_row() + &serve_row();
    for (g, want) in got.lines().zip(GOLDEN.lines()) {
        assert_eq!(g, want, "a golden row changed; full output:\n{got}");
    }
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "golden row count changed; full output:\n{got}"
    );
}

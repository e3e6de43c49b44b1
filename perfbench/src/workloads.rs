//! The benchmark's workloads: input generators (a pure function of the
//! seed) and the runs that drive the program's public entry points.
//!
//! The seed only permutes job order and draws the service requests; the
//! program receives nothing but the generated inputs. Every price the
//! program returns is compared bit for bit with an in-process
//! `PremiaProblem::compute()` of the same problem.

use crate::spans::{Tracer, NO_ITEM, ROOT};
use crate::stats::median;
use farm::{FarmConfig, FarmReport, JobClass, PortfolioJob, PortfolioScale, Transmission};
use minimpi::World;
use nsplang::{Interp, NValue};
use obs::{Breakdown, Recorder};
use pricing::{OptionSpec, PremiaProblem};
use serve::{Request, ServeConfig, Session};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Toy portfolio size of the `toy_comm.*` workloads.
pub const TOY_JOBS: usize = 5000;
/// Job count of the `nsp_fig4` workload.
pub const FIG4_JOBS: usize = 2000;
/// Size of the service's hot set (problems every request may repeat).
pub const HOT_SET: usize = 8;
/// Problems per service request drawn from the hot set (memo reads).
pub const HOT_PER_REQUEST: usize = 2;
/// Fresh problems per service request (computes and memo writes).
pub const FRESH_PER_REQUEST: usize = 2;
/// The serve workload runs at least this many requests, so its p99
/// has ten samples beyond it.
pub const MIN_REQUESTS: usize = 1000;
/// Consecutive requests per service throughput sample.
pub const REQUESTS_PER_BLOCK: usize = 100;
/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPS: usize = 5;
/// Every batch workload measures at least this many passes.
pub const MIN_PASSES: usize = 2;

/// The Fig. 4 master/slave pricer, run as written.
pub const FIG4_SCRIPT: &str = include_str!("../../scripts/fig4_farm.nsp");

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// The §4.2 toy portfolio through `farm::run` with one strategy.
    Toy(Transmission),
    /// The §4.3 realistic portfolio through `farm::run`, serialized load.
    Realistic,
    /// A resident `serve::Session` fed by one closed-loop client.
    ServeIntraday,
    /// `scripts/fig4_farm.nsp` on a `minimpi::World`.
    NspFig4,
}

/// Every workload, by the name `--workload` takes.
pub const WORKLOADS: &[(&str, Kind)] = &[
    ("toy_comm.full_load", Kind::Toy(Transmission::FullLoad)),
    ("toy_comm.nfs", Kind::Toy(Transmission::Nfs)),
    ("toy_comm.sload", Kind::Toy(Transmission::SerializedLoad)),
    ("realistic", Kind::Realistic),
    ("serve_intraday", Kind::ServeIntraday),
    ("nsp_fig4", Kind::NspFig4),
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Kind> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, k)| *k)
}

// ---------------------------------------------------------------------------
// Seeded input generation
// ---------------------------------------------------------------------------

/// SplitMix64: a small, seedable, platform-independent generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The toy portfolio of `count` jobs in seeded order.
pub fn toy_jobs(seed: u64, count: usize) -> Vec<PortfolioJob> {
    let mut jobs = farm::toy_portfolio(count);
    SplitMix::new(seed).shuffle(&mut jobs);
    jobs
}

/// The 7 931-job realistic portfolio in seeded order.
pub fn realistic_jobs(seed: u64) -> Vec<PortfolioJob> {
    let mut jobs = farm::realistic_portfolio(PortfolioScale::Quick, 1);
    SplitMix::new(seed).shuffle(&mut jobs);
    jobs
}

/// The service's request stream: a small hot set that every request
/// draws from (memo reads; one seeded job per class in turn, so warming it
/// costs the same for every seed) plus a never-repeating stream of fresh
/// problems (memo writes). Fresh problems walk the realistic portfolio in
/// a seeded order, one whole portfolio per cycle, so the class mix of any
/// long run is the portfolio's; cycle `c` scales every strike by
/// `1 + c·1e-7`, which keeps the cost but makes the problem new.
#[derive(Debug, Clone)]
pub struct ServePlan {
    pool: Vec<PortfolioJob>,
    hot: Vec<PremiaProblem>,
    rng: SplitMix,
    order: Vec<usize>,
    next_fresh: usize,
}

/// One generated request: its problems plus, per problem, where it came
/// from (`Ok(hot index)` or `Err(fresh sequence number)`).
pub type PlannedRequest = (Vec<PremiaProblem>, Vec<Result<usize, usize>>);

impl ServePlan {
    /// The plan for `seed`.
    pub fn new(seed: u64) -> Self {
        let pool = farm::realistic_portfolio(PortfolioScale::Quick, 1);
        let mut rng = SplitMix::new(seed);
        let classes: Vec<JobClass> = pool.iter().map(|j| j.class).fold(Vec::new(), |mut v, c| {
            if !v.contains(&c) {
                v.push(c);
            }
            v
        });
        let hot = (0..HOT_SET)
            .map(|h| {
                let of_class: Vec<&PortfolioJob> = pool
                    .iter()
                    .filter(|j| j.class == classes[h % classes.len()])
                    .collect();
                of_class[rng.below(of_class.len())].problem.clone()
            })
            .collect();
        ServePlan {
            pool,
            hot,
            rng,
            order: Vec::new(),
            next_fresh: 0,
        }
    }

    /// The hot set.
    pub fn hot(&self) -> &[PremiaProblem] {
        &self.hot
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> PlannedRequest {
        let mut problems = Vec::with_capacity(HOT_PER_REQUEST + FRESH_PER_REQUEST);
        let mut origin = Vec::with_capacity(HOT_PER_REQUEST + FRESH_PER_REQUEST);
        for _ in 0..HOT_PER_REQUEST {
            let h = self.rng.below(self.hot.len());
            problems.push(self.hot[h].clone());
            origin.push(Ok(h));
        }
        for _ in 0..FRESH_PER_REQUEST {
            let (k, problem) = self.next_fresh();
            problems.push(problem);
            origin.push(Err(k));
        }
        (problems, origin)
    }

    fn next_fresh(&mut self) -> (usize, PremiaProblem) {
        let n = self.pool.len();
        let k = self.next_fresh;
        if k.is_multiple_of(n) {
            self.order = (0..n).collect();
            self.rng.shuffle(&mut self.order);
        }
        self.next_fresh += 1;
        let cycle = k / n;
        let problem = nudge(&self.pool[self.order[k % n]].problem, cycle + 1);
        (k, problem)
    }
}

/// `p` with every strike scaled by `1 + variant·1e-7`.
fn nudge(p: &PremiaProblem, variant: usize) -> PremiaProblem {
    let f = 1.0 + variant as f64 * 1e-7;
    let mut p = p.clone();
    match &mut p.option {
        OptionSpec::Call { strike, .. }
        | OptionSpec::Put { strike, .. }
        | OptionSpec::DownOutCall { strike, .. }
        | OptionSpec::AmericanPut { strike, .. }
        | OptionSpec::BasketPut { strike, .. }
        | OptionSpec::AmericanBasketPut { strike, .. } => *strike *= f,
        other => panic!("no strike to nudge in {other:?}"),
    }
    p
}

// ---------------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------------

/// Settings of one run.
pub struct Run<'a> {
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Slave ranks (`nproc - 1`, at least 1).
    pub slaves: usize,
    /// This workload's input directory (absolute). Input files keep
    /// their names from run to run and are overwritten, not deleted.
    pub inputs: PathBuf,
    /// Span sink (enabled in the traced run).
    pub tracer: &'a Tracer,
}

impl Run<'_> {
    fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Measuring time of each phase: the whole run untraced; in the
    /// traced run, half untraced (the overhead baseline) and half traced.
    fn phase_seconds(&self) -> f64 {
        if self.traced() {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Workload-observed per-layer figures (traced run only).
#[derive(Debug, Default, Clone)]
pub struct LayerFigures {
    /// Per-job seconds of the program's own phase breakdown.
    pub prepare_s: f64,
    /// Per-job wire seconds.
    pub wire_s: f64,
    /// Per-job wait seconds.
    pub wait_s: f64,
    /// Per-job compute seconds.
    pub compute_s: f64,
    /// Traced pass time over untraced pass time, minus one.
    pub trace_overhead: f64,
    /// Median `Session::submit` seconds (service only).
    pub submit_s: f64,
    /// Memo-served share of problems (service only).
    pub memo_hit_rate: f64,
    /// Requests shed (service only).
    pub shed: u64,
    /// Problems the service abandoned (service only).
    pub failed: u64,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of each untraced pass (a request, for the service).
    pub pass_s: Vec<f64>,
    /// Peak resident MB of each untraced pass (for the service, of its
    /// first [`MIN_REQUESTS`] requests, so the benchmark's own record of
    /// answers, which grows with the request count, stays out of it).
    pub pass_rss_mb: Vec<f64>,
    /// Problems per second of each untraced pass (for the service, of
    /// each block of [`REQUESTS_PER_BLOCK`] requests, client time
    /// included).
    pub throughput: Vec<f64>,
    /// Wall seconds the untraced passes took.
    pub window_s: f64,
    /// Problems attempted across every measured pass.
    pub attempted: u64,
    /// Problems failed, shed or priced differently from the reference.
    pub failed: u64,
    /// Summed in-process compute seconds of the problems priced in the
    /// untraced passes, for the busy share.
    pub ref_compute_s: f64,
    /// The workload's problems, or a sample of them for the service
    /// (inputs of the store/xdr probe and the working-set estimate).
    pub problems: Vec<PremiaProblem>,
    /// Distinct problems the workload ships.
    pub inputs: u64,
    /// Traced-run figures.
    pub layer: LayerFigures,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Run `kind`.
pub fn run(kind: Kind, r: &Run) -> Result<Measured, String> {
    match kind {
        Kind::Toy(strategy) => farm_workload(r, strategy, |s| toy_jobs(s, TOY_JOBS)),
        Kind::Realistic => farm_workload(r, Transmission::SerializedLoad, realistic_jobs),
        Kind::ServeIntraday => serve_workload(r),
        Kind::NspFig4 => fig4_workload(r),
    }
}

/// Run passes until `seconds` would be exceeded by one more (at least
/// [`MIN_PASSES`]); returns each pass's seconds.
fn passes(
    seconds: f64,
    mut pass: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let t0 = Instant::now();
    let mut times = Vec::new();
    loop {
        times.push(pass(times.len())?);
        let next = median(&times);
        if times.len() >= MIN_PASSES && t0.elapsed().as_secs_f64() + next > seconds {
            return Ok(times);
        }
    }
}

/// Repeat `setup(excluded, parent span)` [`SETUP_REPS`] times, timing
/// each, and keep the last result. Seconds the set-up adds to `excluded`
/// (writing input files, see [`write_inputs`]) are not counted.
fn repeat_setup<T>(
    r: &Run,
    mut setup: impl FnMut(&mut f64, u64) -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let span = r.tracer.span("bench.setup", ROOT, rep as i64);
        let t = Instant::now();
        let mut excluded = 0.0;
        let out = setup(&mut excluded, span.id())?;
        times.push(t.elapsed().as_secs_f64() - excluded);
        last = Some(out);
    }
    Ok((times, last.expect("at least one set-up")))
}

/// Make sure each input file holds its serialized bytes, writing only
/// the files that differ; returns the seconds it took. This is the
/// benchmark's own I/O and stays out of `setup_s`: how long creating
/// thousands of small files takes on a journaling filesystem depends on
/// what earlier runs wrote and deleted (the same 7 931 files took 0.16 s
/// in one run and 2.7 s in another), not on the program. Leaving files
/// that already match untouched also keeps writeback of the last run's
/// inputs from competing with this run's passes.
fn write_inputs(r: &Run, parent: u64, files: &[(PathBuf, Vec<u8>)]) -> Result<f64, String> {
    let _g = r.tracer.span("bench.write_inputs", parent, NO_ITEM);
    let t = Instant::now();
    for (path, bytes) in files {
        if std::fs::read(path).is_ok_and(|old| old == *bytes) {
            continue;
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Serialize `jobs` to the files `name(position, job)` under `dir`: the
/// program's half of saving a portfolio, timed in `setup_s`.
fn serialize_inputs(
    r: &Run,
    parent: u64,
    jobs: &[PortfolioJob],
    dir: &Path,
    name: impl Fn(usize, &PortfolioJob) -> String,
) -> Vec<(PathBuf, Vec<u8>)> {
    r.tracer.time("xdr.serialize", parent, NO_ITEM, || {
        jobs.iter()
            .enumerate()
            .map(|(k, j)| {
                let bytes = xdrser::serialize_to_bytes(&j.problem.to_value());
                (dir.join(name(k, j)), bytes)
            })
            .collect()
    })
}

/// Reset the process's peak resident set to its current size.
fn reset_peak_rss() {
    // Writing 5 to clear_refs resets VmHWM (Linux 4.0+); without it the
    // figure is the peak since process start, which is still an upper
    // bound.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last reset, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reference prices: in-process `compute()` of each problem, with the
/// summed compute seconds.
fn reference(r: &Run, problems: &[PremiaProblem]) -> Result<(Vec<f64>, f64), String> {
    let span = r.tracer.span("bench.reference", ROOT, NO_ITEM);
    let mut prices = Vec::with_capacity(problems.len());
    let mut busy = 0.0;
    for (i, p) in problems.iter().enumerate() {
        let _g = r.tracer.span("pricing.compute", span.id(), i as i64);
        let t = Instant::now();
        let res = p.compute().map_err(|e| format!("reference compute: {e}"))?;
        busy += t.elapsed().as_secs_f64();
        prices.push(res.price);
    }
    Ok((prices, busy))
}

/// The traced half of a traced batch run: passes of `n` jobs, each with
/// a fresh recorder, folded into per-job phase figures and the tracing
/// overhead against the `untraced` pass times.
fn traced_passes(
    r: &Run,
    n: u64,
    untraced: &[f64],
    layer: &mut LayerFigures,
    mut pass: impl FnMut(Arc<Recorder>, usize) -> Result<f64, String>,
) -> Result<(), String> {
    let mut events = Vec::new();
    let traced = passes(r.phase_seconds(), |i| {
        let rec = recorder(r.slaves + 1);
        let dt = pass(rec.clone(), untraced.len() + i)?;
        events.extend(rec.events());
        Ok(dt)
    })?;
    per_job(
        &Breakdown::from_events(&events),
        n * traced.len() as u64,
        layer,
    );
    layer.trace_overhead = median(&traced) / median(untraced) - 1.0;
    Ok(())
}

fn per_job(b: &Breakdown, jobs: u64, into: &mut LayerFigures) {
    let n = jobs.max(1) as f64;
    into.prepare_s = b.prepare_s() / n;
    into.wire_s = b.wire_s() / n;
    into.wait_s = b.wait_s() / n;
    into.compute_s = b.compute_s() / n;
}

fn recorder(ranks: usize) -> Arc<Recorder> {
    Arc::new(Recorder::with_capacity(ranks, 1 << 18))
}

// --- farm: toy_comm.* and realistic ---------------------------------------

/// Mismatched, duplicated or missing answers of one farm pass.
fn farm_failures(report: &FarmReport, reference: &[f64]) -> u64 {
    let mut seen = vec![false; reference.len()];
    let mut bad = 0;
    for o in &report.outcomes {
        match seen.get_mut(o.job) {
            Some(s) if !*s => {
                *s = true;
                if o.price.to_bits() != reference[o.job].to_bits() {
                    bad += 1;
                }
            }
            _ => bad += 1,
        }
    }
    bad + seen.iter().filter(|s| !**s).count() as u64
}

fn farm_workload(
    r: &Run,
    strategy: Transmission,
    generate: fn(u64) -> Vec<PortfolioJob>,
) -> Result<Measured, String> {
    let cfg = FarmConfig::new(r.slaves, strategy);
    let (setup_s, (jobs, paths)) = repeat_setup(r, |excluded, parent| {
        let jobs = r
            .tracer
            .time("farm.generate", parent, NO_ITEM, || generate(r.seed));
        // File names follow farm::portfolio::save_portfolio.
        let files = serialize_inputs(r, parent, &jobs, &r.inputs, |_, j| {
            format!("pb-{:05}.bin", j.id)
        });
        *excluded += write_inputs(r, parent, &files)?;
        let paths: Vec<PathBuf> = files.into_iter().map(|(p, _)| p).collect();
        // Warm-up: the lowest-id job of every class, whatever the seed,
        // touches every code path of the farm at a seed-independent cost.
        let mut first: BTreeMap<usize, (usize, PathBuf)> = BTreeMap::new();
        for (j, p) in jobs.iter().zip(&paths) {
            let slot = first.entry(j.class as usize).or_insert((j.id, p.clone()));
            if j.id < slot.0 {
                *slot = (j.id, p.clone());
            }
        }
        let warm: Vec<PathBuf> = first.into_values().map(|(_, p)| p).collect();
        r.tracer
            .time("farm.run", parent, NO_ITEM, || farm::run(&warm, &cfg))
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok((jobs, paths))
    })?;
    let problems: Vec<PremiaProblem> = jobs.iter().map(|j| j.problem.clone()).collect();
    let (prices, pass_compute_s) = reference(r, &problems)?;
    let n = paths.len() as u64;

    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let mut failed = 0;
    let mut attempted = 0;
    let mut rss = Vec::new();
    let mut run_pass = |cfg: &FarmConfig, i: usize| -> Result<(f64, FarmReport), String> {
        let span = r.tracer.span("farm.run", ROOT, i as i64);
        reset_peak_rss();
        let t = Instant::now();
        let report = farm::run(&paths, cfg).map_err(|e| format!("farm run: {e}"))?;
        let dt = t.elapsed().as_secs_f64();
        rss.push(peak_rss_mb());
        drop(span);
        attempted += n;
        failed += farm_failures(&report, &prices);
        Ok((dt, report))
    };
    m.pass_s = passes(r.phase_seconds(), |i| Ok(run_pass(&cfg, i)?.0))?;
    m.throughput = m.pass_s.iter().map(|t| n as f64 / t).collect();
    m.window_s = m.pass_s.iter().sum();
    m.ref_compute_s = pass_compute_s * m.pass_s.len() as f64;

    if r.traced() {
        traced_passes(r, n, &m.pass_s, &mut m.layer, |rec, i| {
            Ok(run_pass(&cfg.clone().recorder(rec), i)?.0)
        })?;
    }
    m.pass_rss_mb = rss[..m.pass_s.len()].to_vec();
    m.attempted = attempted;
    m.failed = failed;
    m.problems = problems;
    m.inputs = n;
    m.notes.push(format!(
        "strategy {}: {} jobs per pass, {} passes",
        strategy.label(),
        n,
        m.pass_s.len()
    ));
    Ok(m)
}

// --- nsp_fig4 ------------------------------------------------------------

/// Run the Fig. 4 script once on `slaves + 1` ranks from the current
/// directory; returns rank 0's `res` prices in answer order.
pub fn run_fig4(
    slaves: usize,
    n_jobs: usize,
    recorder: Option<Arc<Recorder>>,
) -> Result<Vec<f64>, String> {
    let out = World::run_instrumented(slaves + 1, None, recorder, |comm| {
        let rank = comm.rank();
        let mut interp = Interp::with_comm(Rc::new(comm));
        interp.set("n_jobs", NValue::scalar(n_jobs as f64));
        if let Err(e) = interp.run(FIG4_SCRIPT) {
            // Panicking poisons the world, so the other ranks unblock.
            panic!("fig4 script, rank {rank}: {e}");
        }
        (rank == 0).then(|| interp.get_value("res"))
    });
    let res = out
        .into_iter()
        .next()
        .flatten()
        .flatten()
        .ok_or("fig4 script left no `res`")?;
    let list = res.as_list().ok_or("`res` is not a list")?;
    list.iter()
        .map(|entry| {
            entry
                .as_list()
                .and_then(|pair| pair.get(1))
                .and_then(|v| v.as_scalar())
                .ok_or_else(|| "malformed `res` entry".to_string())
        })
        .collect()
}

/// Save `jobs` as `<dir>/portfolio/pb-1.bin ..` (the script's layout).
pub fn save_fig4_portfolio(jobs: &[PortfolioJob], dir: &Path) -> Result<(), String> {
    let pdir = dir.join("portfolio");
    std::fs::create_dir_all(&pdir).map_err(|e| e.to_string())?;
    for (k, job) in jobs.iter().enumerate() {
        xdrser::save(
            pdir.join(format!("pb-{}.bin", k + 1)),
            &job.problem.to_value(),
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Prices compared as multisets of bit patterns (the script's answers
/// arrive in completion order), plus the totals of both in one order.
fn fig4_failures(got: &[f64], reference: &[f64]) -> (u64, f64, f64) {
    let bits = |xs: &[f64]| {
        let mut b: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
        b.sort_unstable();
        b
    };
    let (g, w) = (bits(got), bits(reference));
    // Size of the multiset intersection, by merging the sorted lists.
    let (mut i, mut j, mut matched) = (0, 0, 0);
    while i < g.len() && j < w.len() {
        match g[i].cmp(&w[j]) {
            std::cmp::Ordering::Equal => {
                matched += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    let bad = (w.len().max(g.len()) - matched) as u64;
    let total = |b: &[u64]| b.iter().map(|&x| f64::from_bits(x)).sum::<f64>();
    (bad, total(&g), total(&w))
}

fn fig4_workload(r: &Run) -> Result<Measured, String> {
    let (setup_s, jobs) = repeat_setup(r, |excluded, parent| {
        let jobs = r.tracer.time("farm.generate", parent, NO_ITEM, || {
            toy_jobs(r.seed, FIG4_JOBS)
        });
        let files = serialize_inputs(r, parent, &jobs, &r.inputs.join("portfolio"), |k, _| {
            format!("pb-{}.bin", k + 1)
        });
        *excluded += write_inputs(r, parent, &files)?;
        // The script names its files relative to the working directory.
        std::env::set_current_dir(&r.inputs).map_err(|e| e.to_string())?;
        r.tracer.time("nsplang.run", parent, NO_ITEM, || {
            run_fig4(r.slaves, 2 * r.slaves, None)
        })?;
        Ok(jobs)
    })?;
    let problems: Vec<PremiaProblem> = jobs.iter().map(|j| j.problem.clone()).collect();
    let (prices, pass_compute_s) = reference(r, &problems)?;
    let n = problems.len() as u64;
    let mut m = Measured {
        setup_s,
        ..Measured::default()
    };
    let mut failed = 0;
    let mut attempted = 0;
    let mut totals = (0.0, 0.0);
    let mut rss = Vec::new();
    let mut run_pass = |rec: Option<Arc<Recorder>>, i: usize| -> Result<f64, String> {
        let span = r.tracer.span("nsplang.run", ROOT, i as i64);
        reset_peak_rss();
        let t = Instant::now();
        let got = run_fig4(r.slaves, FIG4_JOBS, rec)?;
        let dt = t.elapsed().as_secs_f64();
        rss.push(peak_rss_mb());
        drop(span);
        let (bad, scripted, rust) = fig4_failures(&got, &prices);
        attempted += n;
        failed += bad;
        totals = (scripted, rust);
        Ok(dt)
    };
    m.pass_s = passes(r.phase_seconds(), |i| run_pass(None, i))?;
    m.throughput = m.pass_s.iter().map(|t| n as f64 / t).collect();
    m.window_s = m.pass_s.iter().sum();
    m.ref_compute_s = pass_compute_s * m.pass_s.len() as f64;
    if r.traced() {
        traced_passes(r, n, &m.pass_s, &mut m.layer, |rec, i| {
            run_pass(Some(rec), i)
        })?;
    }
    if totals.0 != totals.1 {
        failed += 1;
    }
    m.pass_rss_mb = rss[..m.pass_s.len()].to_vec();
    m.attempted = attempted;
    m.failed = failed;
    m.problems = problems;
    m.inputs = n;
    m.notes.push(format!(
        "fig4: {} jobs per pass, {} passes, scripted total {} vs Rust total {}",
        n,
        m.pass_s.len(),
        totals.0,
        totals.1
    ));
    Ok(m)
}

// --- serve_intraday --------------------------------------------------------

/// Latencies and answers of one closed-loop phase.
struct LoopOutcome {
    latencies: Vec<f64>,
    /// Seconds from the start of the loop to each answer.
    done_at: Vec<f64>,
    submit_s: Vec<f64>,
    window_s: f64,
    problems: u64,
    memoised: u64,
    /// Per answered problem: origin and price (`None` when it failed).
    answers: Vec<(Result<usize, usize>, Option<f64>)>,
    shed: u64,
    /// Peak resident MB over the first [`MIN_REQUESTS`] requests.
    rss_mb: f64,
}

/// Start a session and warm it: the hot set is priced once, so the
/// memo holds it before timing starts.
fn start_session(cfg: ServeConfig, plan: &ServePlan) -> Result<Session, String> {
    let session = Session::start(cfg).map_err(|e| format!("session start: {e}"))?;
    session
        .submit(Request::new(plan.hot().to_vec()))
        .and_then(|t| t.wait())
        .map_err(|e| format!("warm-up request: {e}"))?;
    Ok(session)
}

/// One client, one request in flight: submit, wait, repeat, for
/// `seconds` and at least [`MIN_REQUESTS`] requests.
fn closed_loop(
    r: &Run,
    session: &Session,
    plan: &mut ServePlan,
    seconds: f64,
) -> Result<LoopOutcome, String> {
    let mut out = LoopOutcome {
        latencies: Vec::new(),
        done_at: Vec::new(),
        submit_s: Vec::new(),
        window_s: 0.0,
        problems: 0,
        memoised: 0,
        answers: Vec::new(),
        shed: 0,
        rss_mb: 0.0,
    };
    reset_peak_rss();
    let t0 = Instant::now();
    while out.latencies.len() < MIN_REQUESTS || t0.elapsed().as_secs_f64() < seconds {
        let (problems, origin) = plan.next_request();
        let id = out.latencies.len() as i64;
        let span = r.tracer.span("serve.request", ROOT, id);
        let t = Instant::now();
        let submitted = {
            let _g = r.tracer.span("serve.submit", span.id(), id);
            session.submit(Request::new(problems))
        };
        let ts = t.elapsed().as_secs_f64();
        let ticket = match submitted {
            Ok(ticket) => ticket,
            Err(_) => {
                out.shed += 1;
                out.answers.extend(origin.into_iter().map(|o| (o, None)));
                continue;
            }
        };
        let resp = {
            let _g = r.tracer.span("serve.wait", span.id(), id);
            ticket.wait().map_err(|e| format!("request {id}: {e}"))?
        };
        out.latencies.push(t.elapsed().as_secs_f64());
        out.done_at.push(t0.elapsed().as_secs_f64());
        out.submit_s.push(ts);
        out.problems += origin.len() as u64;
        out.memoised += resp.memoised_count() as u64;
        for (o, res) in origin.into_iter().zip(resp.results) {
            out.answers.push((o, res.ok().map(|p| p.price)));
        }
        if out.latencies.len() == MIN_REQUESTS {
            out.rss_mb = peak_rss_mb();
        }
    }
    out.window_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

fn serve_workload(r: &Run) -> Result<Measured, String> {
    let (setup_s, (mut plan, session)) = repeat_setup(r, |_, parent| {
        let plan = r
            .tracer
            .time("serve.plan", parent, NO_ITEM, || ServePlan::new(r.seed));
        let session = r.tracer.time("serve.start", parent, NO_ITEM, || {
            start_session(ServeConfig::new(r.slaves), &plan)
        })?;
        Ok((plan, session))
    })?;
    let untraced = closed_loop(r, &session, &mut plan, r.phase_seconds())?;
    let report = session.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    let mut shed = untraced.shed + report.shed;
    let mut abandoned = report.failed;

    let mut m = Measured {
        setup_s,
        pass_s: untraced.latencies.clone(),
        pass_rss_mb: vec![untraced.rss_mb],
        throughput: untraced
            .done_at
            .chunks_exact(REQUESTS_PER_BLOCK)
            .scan(0.0, |start, block| {
                let end = block[block.len() - 1];
                let secs = end - std::mem::replace(start, end);
                Some((REQUESTS_PER_BLOCK * (HOT_PER_REQUEST + FRESH_PER_REQUEST)) as f64 / secs)
            })
            .collect(),
        window_s: untraced.window_s,
        ..Measured::default()
    };
    let mut loops = vec![untraced];
    if r.traced() {
        let rec = recorder(r.slaves + 1);
        let session = start_session(ServeConfig::new(r.slaves).recorder(rec.clone()), &plan)?;
        let traced = closed_loop(r, &session, &mut plan, r.phase_seconds())?;
        let report = session.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        shed += traced.shed + report.shed;
        abandoned += report.failed;
        per_job(
            &Breakdown::from_events(&rec.events()),
            traced.problems,
            &mut m.layer,
        );
        m.layer.trace_overhead = median(&traced.latencies) / median(&loops[0].latencies) - 1.0;
        m.layer.submit_s = median(&traced.submit_s);
        m.layer.memo_hit_rate = traced.memoised as f64 / traced.problems.max(1) as f64;
        loops.push(traced);
    }
    m.layer.shed = shed;
    m.layer.failed = abandoned;

    // Check every answer against an in-process compute of its problem.
    let span = r.tracer.span("bench.reference", ROOT, NO_ITEM);
    let hot_ref: Vec<f64> = plan
        .hot()
        .iter()
        .map(|p| p.compute().map(|x| x.price))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference compute: {e}"))?;
    let fresh_count = loops
        .iter()
        .flat_map(|l| &l.answers)
        .filter(|(o, _)| o.is_err())
        .count();
    let mut replay = ServePlan::new(r.seed);
    let mut fresh_ref = Vec::with_capacity(fresh_count);
    // The served problems, hot set first, for the store/xdr probe.
    let mut served = plan.hot().to_vec();
    let mut window_compute = 0.0;
    while fresh_ref.len() < fresh_count {
        let (problems, origin) = replay.next_request();
        for (p, o) in problems.iter().zip(origin) {
            if let Err(k) = o {
                let _g = r.tracer.span("pricing.compute", span.id(), k as i64);
                let t = Instant::now();
                let price = p
                    .compute()
                    .map_err(|e| format!("reference compute: {e}"))?
                    .price;
                if k < FRESH_PER_REQUEST * loops[0].latencies.len() {
                    window_compute += t.elapsed().as_secs_f64();
                }
                fresh_ref.push(price);
                if served.len() < crate::probes::XDR_FILES {
                    served.push(p.clone());
                }
            }
        }
    }
    drop(span);
    m.ref_compute_s = window_compute;
    let mut failed = 0;
    let mut attempted = 0;
    for (origin, price) in loops.iter().flat_map(|l| &l.answers) {
        attempted += 1;
        let want = match origin {
            Ok(h) => hot_ref[*h],
            Err(k) => fresh_ref[*k],
        };
        if price.map(f64::to_bits) != Some(want.to_bits()) {
            failed += 1;
        }
    }
    m.attempted = attempted;
    m.failed = failed;
    m.inputs = (HOT_SET + fresh_count) as u64;
    let lat = &loops[0].latencies;
    let memo = loops[0].memoised as f64 / loops[0].problems.max(1) as f64;
    m.notes.push(format!(
        "serve: {} requests of {} hot + {} fresh problems, memo hit rate {:.3}",
        lat.len(),
        HOT_PER_REQUEST,
        FRESH_PER_REQUEST,
        memo
    ));
    m.problems = served;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(jobs: &[PortfolioJob]) -> Vec<usize> {
        jobs.iter().map(|j| j.id).collect()
    }

    #[test]
    fn batch_generators_are_deterministic_per_seed() {
        assert_eq!(labels(&toy_jobs(7, 300)), labels(&toy_jobs(7, 300)));
        assert_ne!(labels(&toy_jobs(7, 300)), labels(&toy_jobs(8, 300)));
        assert_eq!(labels(&realistic_jobs(3)), labels(&realistic_jobs(3)));
        assert_ne!(labels(&realistic_jobs(3)), labels(&realistic_jobs(4)));
        let mut ids = labels(&realistic_jobs(3));
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..7931).collect::<Vec<_>>(),
            "a permutation, not a resample"
        );
    }

    #[test]
    fn serve_stream_is_deterministic_per_seed_and_fresh_never_repeats() {
        let stream = |seed| {
            let mut plan = ServePlan::new(seed);
            (0..50).map(|_| plan.next_request()).collect::<Vec<_>>()
        };
        let (a, b, c) = (stream(11), stream(11), stream(12));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut fresh: Vec<Vec<u8>> = a
            .iter()
            .flat_map(|(ps, origin)| ps.iter().zip(origin))
            .filter(|(_, o)| o.is_err())
            .map(|(p, _)| xdrser::serialize_to_bytes(&p.to_value()))
            .collect();
        let n = fresh.len();
        fresh.sort();
        fresh.dedup();
        assert_eq!(fresh.len(), n);
    }

    #[test]
    fn fresh_cycles_differ_from_the_portfolio_and_each_other() {
        for job in farm::realistic_portfolio(PortfolioScale::Quick, 500) {
            let (one, two) = (nudge(&job.problem, 1), nudge(&job.problem, 2));
            assert_ne!(one, job.problem);
            assert_ne!(one, two);
            assert_eq!(one.method, job.problem.method, "same cost");
        }
    }

    #[test]
    fn fig4_check_is_order_free_but_bit_exact() {
        let want = [1.0, 2.5, 3.25];
        assert_eq!(fig4_failures(&[3.25, 1.0, 2.5], &want).0, 0);
        assert_eq!(fig4_failures(&[3.25, 1.0], &want).0, 1);
        let off = f64::from_bits(2.5f64.to_bits() + 1);
        assert_eq!(fig4_failures(&[3.25, 1.0, off], &want).0, 1);
    }

    #[test]
    fn every_workload_name_is_legal() {
        for (name, _) in WORKLOADS {
            assert!(crate::metrics::valid_name(name), "{name}");
        }
    }
}

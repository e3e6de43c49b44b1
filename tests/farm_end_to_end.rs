//! Integration: the full Fig. 4/5 pipeline across crates — portfolio
//! files on disk → master → minimpi transmission (all three strategies) →
//! slave compute → results — checked against serial evaluation.

use riskbench::prelude::*;

/// Plain farm via the unified [`farm::run`] entry point.
fn run_plain_farm(
    files: &[std::path::PathBuf],
    slaves: usize,
    strategy: Transmission,
) -> Result<FarmReport, FarmError> {
    run(files, &FarmConfig::new(slaves, strategy))
}

fn setup(tag: &str, count: usize) -> (Vec<std::path::PathBuf>, Vec<f64>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("it_farm_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = toy_portfolio(count);
    let files = save_portfolio(&jobs, &dir).unwrap();
    let expected: Vec<f64> = jobs
        .iter()
        .map(|j| j.problem.compute().unwrap().price)
        .collect();
    (files, expected, dir)
}

#[test]
fn all_strategies_price_identically_to_serial() {
    let (files, expected, dir) = setup("strategies", 60);
    for strategy in Transmission::ALL {
        let report = run_plain_farm(&files, 3, strategy).unwrap();
        assert_eq!(report.completed(), 60, "{strategy}");
        for o in &report.outcomes {
            assert_eq!(
                o.price.to_bits(),
                expected[o.job].to_bits(),
                "{strategy}: job {} differs from serial",
                o.job
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heterogeneous_portfolio_through_the_farm() {
    // A strided §4.3 portfolio: every method family crosses the wire.
    let dir = std::env::temp_dir().join("it_farm_hetero");
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = realistic_portfolio(PortfolioScale::Quick, 300);
    assert!(jobs.len() >= 20, "stride too coarse: {}", jobs.len());
    let files = save_portfolio(&jobs, &dir).unwrap();
    let report = run_plain_farm(&files, 4, Transmission::SerializedLoad).unwrap();
    assert_eq!(report.completed(), jobs.len());
    // Spot-check a few against direct computation.
    for o in report.outcomes.iter().take(5) {
        let direct = jobs[o.job].problem.compute().unwrap().price;
        assert_eq!(o.price.to_bits(), direct.to_bits());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn regression_suite_through_the_farm_like_table1() {
    // §4.1: the non-regression tests, parallelised.
    let dir = std::env::temp_dir().join("it_farm_regression");
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = regression_portfolio(PortfolioScale::Quick);
    let files = save_portfolio(&jobs, &dir).unwrap();
    let report = run_plain_farm(&files, 4, Transmission::SerializedLoad).unwrap();
    assert_eq!(report.completed(), jobs.len());
    // Every job answered exactly once with a finite price.
    let mut seen = vec![false; jobs.len()];
    for o in &report.outcomes {
        assert!(!seen[o.job]);
        seen[o.job] = true;
        assert!(o.price.is_finite());
    }
    assert!(seen.iter().all(|&s| s));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batched_and_hierarchical_agree_with_flat_farm() {
    // Flat, hierarchy and shard masters share one Fig. 4 protocol: every
    // master shape prices bit-identically to serial and reports the
    // strategy it ran.
    let (files, expected, dir) = setup("variants", 24);
    for strategy in Transmission::ALL {
        let batched = run(&files, &FarmConfig::new(3, strategy).batch_size(5)).unwrap();
        let hier = farm::hierarchy::run_hierarchical_farm(&files, 2, 2, strategy).unwrap();
        let mut shard_cfg = farm::ShardConfig::new(2, 2);
        shard_cfg.strategy = strategy;
        let sharded = farm::run_sharded(&files, &shard_cfg)
            .unwrap()
            .into_farm_report(strategy);
        for (shape, report) in [("batched", batched), ("hierarchy", hier), ("shard", sharded)] {
            assert_eq!(report.completed(), 24, "{shape} {strategy}");
            assert_eq!(report.strategy, strategy, "{shape} reported the wrong strategy");
            for o in &report.outcomes {
                assert_eq!(
                    o.price.to_bits(),
                    expected[o.job].to_bits(),
                    "{shape} {strategy}: job {} differs from serial",
                    o.job
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn farm_scales_on_real_cores() {
    // Wall-clock sanity: with compute-heavy jobs, 4 slaves should beat 1
    // slave clearly (not asserting a precise ratio — CI machines vary).
    if std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        < 4
    {
        eprintln!("skipping: fewer than 4 cores");
        return;
    }
    let dir = std::env::temp_dir().join("it_farm_scaling");
    let _ = std::fs::remove_dir_all(&dir);
    // American PDE problems are the heavy class.
    let jobs: Vec<PortfolioJob> = realistic_portfolio(PortfolioScale::Quick, 40)
        .into_iter()
        .filter(|j| j.class == JobClass::AmericanPde)
        .take(16)
        .collect();
    let files: Vec<_> = {
        std::fs::create_dir_all(&dir).unwrap();
        jobs.iter()
            .map(|j| {
                let p = dir.join(format!("pb-{}.bin", j.id));
                riskbench::xdrser::save(&p, &j.problem.to_value()).unwrap();
                p
            })
            .collect()
    };
    let t1 = run_plain_farm(&files, 1, Transmission::SerializedLoad)
        .unwrap()
        .elapsed;
    let t4 = run_plain_farm(&files, 4, Transmission::SerializedLoad)
        .unwrap()
        .elapsed;
    assert!(
        t4.as_secs_f64() < 0.75 * t1.as_secs_f64(),
        "no speedup: 1 slave {t1:?}, 4 slaves {t4:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn risk_sweep_through_the_farm() {
    // §1 end to end: sweep a small book, farm it, aggregate Greeks.
    use farm::risk::{aggregate_risk, outcomes_to_prices, risk_sweep, BumpSpec};
    let dir = std::env::temp_dir().join("it_farm_risk");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let claims = toy_portfolio(6);
    let bump = BumpSpec::default();
    let sweep = risk_sweep(&claims, &bump);
    let files: Vec<_> = sweep
        .iter()
        .enumerate()
        .map(|(k, j)| {
            let p = dir.join(format!("pb-{k}.bin"));
            riskbench::xdrser::save(&p, &j.problem.to_value()).unwrap();
            p
        })
        .collect();
    let report = run_plain_farm(&files, 3, Transmission::SerializedLoad).unwrap();
    assert_eq!(report.completed(), sweep.len());
    let prices = outcomes_to_prices(sweep.len(), &report.outcomes);
    assert!(prices.iter().all(|p| p.is_finite()));
    let risks = aggregate_risk(&sweep, &prices, &bump, &|_| 100.0);
    assert_eq!(risks.len(), 6);
    // Calls: positive delta in (0,1], positive vega.
    for r in &risks {
        assert!(r.delta > 0.0 && r.delta <= 1.0 + 1e-9, "delta {}", r.delta);
        assert!(r.vega >= 0.0, "vega {}", r.vega);
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! `sim-grid`: the paper's Fig. 13 grid on the simulator, one row at a time.

use crate::layers::{median_of, Metrics, SimLayers};
use crate::sim::{build_plain, on_fresh_thread, replay, run_public, run_traced, Summary};
use crate::stats::{geomean, median, peak_rss_mb, weighted_percentile, SplitMix};
use crate::{Args, Outcome};
use std::time::{Duration, Instant};
use wbft_consensus::{Scenario, SweepSpec};

/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 100;

/// All eight deployments single-hop (`SweepSpec::fig13`: 2 epochs of
/// 24-tx batches at n = 4) plus the five batched deployments in the 4x4
/// multi-hop topology. The multi-hop baselines are left out for run time
/// only (tens of seconds each, and some hit the deadline).
pub fn rows() -> Vec<Scenario> {
    let mut rows = SweepSpec::fig13("sim-grid", false, 7).expand();
    rows.extend(
        SweepSpec::fig13("sim-grid", true, 7)
            .expand()
            .into_iter()
            .filter(|s| s.cfg.protocol.is_batched()),
    );
    rows
}

/// Median wall time of building every row's deployment, each pass on a
/// fresh thread.
pub fn setup_s(cfgs: &[&wbft_consensus::TestbedConfig]) -> f64 {
    let passes: Vec<f64> = (0..SETUP_PASSES)
        .map(|_| {
            on_fresh_thread(|| {
                let t = Instant::now();
                for cfg in cfgs {
                    build_plain(cfg);
                }
                t.elapsed().as_secs_f64()
            })
            .expect("set-up pass")
        })
        .collect();
    median(&passes)
}

/// Checks that a deployment completed and that its simulated outputs
/// equal those of its first run.
pub fn check(label: &str, s: &Summary, reference: &mut Option<Summary>, out: &mut Outcome) {
    if !s.completed {
        eprintln!("{label} did not complete");
        out.failed += 1;
    }
    match reference {
        None => *reference = Some(s.clone()),
        Some(r) if r.fingerprint() != s.fingerprint() => {
            eprintln!("{label}: simulated outputs differ between repetitions");
            out.failed += 1;
        }
        Some(_) => {}
    }
}

pub fn run(args: &Args) -> Outcome {
    let rows = rows();
    // The seed only orders the rows: the simulated inputs stay those of
    // the paper's grid, so the simulated-plane metrics never move with it.
    let order = SplitMix(args.seed).permutation(rows.len());
    let cfgs: Vec<_> = order.iter().map(|&i| &rows[i].cfg).collect();
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let setup = setup_s(&cfgs);

    let mut out = Outcome::default();
    let mut refs: Vec<Option<Summary>> = vec![None; rows.len()];
    let mut walls = Vec::new();
    let mut row_ms: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    let mut passes: Vec<Metrics> = Vec::new();
    loop {
        // Untraced pass: `testbed::run` per row, each on a fresh thread.
        let mut wall = Duration::ZERO;
        for &i in &order {
            out.attempted += 1;
            let Some((s, d)) = run_public(&rows[i].cfg) else {
                eprintln!("sim-grid: {} panicked", rows[i].label);
                out.failed += 1;
                continue;
            };
            check(&rows[i].label, &s, &mut refs[i], &mut out);
            row_ms[i].push(d.as_secs_f64() * 1e3);
            wall += d;
        }
        walls.push(wall.as_secs_f64());
        if args.trace {
            passes.push(traced_pass(&rows, &order, &refs, wall, &mut out));
        }
        if started.elapsed() >= budget {
            break;
        }
    }

    let summaries: Vec<&Summary> = refs.iter().flatten().collect();
    let mut m = Metrics::new();
    if args.trace {
        m = median_of(&passes);
    } else {
        m.insert("wall_s", median(&walls));
        m.insert("setup_s", setup);
        m.insert("peak_rss_mb", peak_rss_mb());
        commit_latency(&mut m, &row_ms, &refs);
        sim_plane(&mut m, &summaries);
    }
    out.metrics = m;
    out
}

/// Commit latency of simulated deployments: a run's transactions are due
/// at its start and reach the user when the run returns its report, so
/// each transaction waits its run's median wall time. Percentiles are
/// taken over transactions.
pub fn commit_latency(m: &mut Metrics, run_ms: &[Vec<f64>], refs: &[Option<Summary>]) {
    let samples: Vec<(f64, u64)> = run_ms
        .iter()
        .zip(refs)
        .filter_map(|(ms, s)| Some((median(ms), s.as_ref()?.total_txs)))
        .collect();
    m.insert("commit_p50_ms", weighted_percentile(&samples, 0.50));
    m.insert("commit_p99_ms", weighted_percentile(&samples, 0.99));
}

/// Geometric means of the simulated-plane outputs over a workload's runs.
pub fn sim_plane(m: &mut Metrics, summaries: &[&Summary]) {
    let of = |f: fn(&Summary) -> f64| geomean(&summaries.iter().map(|s| f(s)).collect::<Vec<_>>());
    m.insert("sim_latency_s", of(|s| s.mean_latency_s));
    m.insert("sim_tpm", of(|s| s.throughput_tpm));
    m.insert(
        "channel_accesses_per_node",
        of(|s| s.channel_accesses_per_node),
    );
}

/// One traced pass over every row: the rows rebuilt under the timing
/// shims (checked against the untraced reports), then the single-hop
/// rows' frames replayed through the net/crypto layers.
fn traced_pass(
    rows: &[Scenario],
    order: &[usize],
    refs: &[Option<Summary>],
    untraced: Duration,
    out: &mut Outcome,
) -> Metrics {
    let mut layers = SimLayers::default();
    let mut traced_wall = Duration::ZERO;
    for &i in order {
        let cfg = &rows[i].cfg;
        let single_hop = cfg.clusters.is_none();
        out.attempted += 1;
        let Some(t) = on_fresh_thread(|| run_traced(cfg, single_hop)) else {
            eprintln!("sim-grid: traced {} panicked", rows[i].label);
            out.failed += 1;
            continue;
        };
        traced_wall += t.total;
        if refs[i].as_ref() != Some(&t.summary) || t.disagreement {
            eprintln!(
                "sim-grid: traced rebuild of {} differs from testbed::run",
                rows[i].label
            );
            out.failed += 1;
        }
        layers.add_run(&t);
        if single_hop {
            let r = replay(&t.spans, &t.crypto);
            if r.bad > 0 {
                eprintln!(
                    "sim-grid: {} replayed frames of {} failed",
                    r.bad, rows[i].label
                );
                out.failed += 1;
            }
            layers.replay.add(&r);
        }
    }
    let mut m = layers.metrics();
    m.insert(
        "trace.overhead_ratio",
        traced_wall.as_secs_f64() / untraced.as_secs_f64(),
    );
    m
}

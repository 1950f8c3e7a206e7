//! `fuzz-campaign`: the fixed-seed 200-scenario CI smoke campaign.

use crate::grid::{check, commit_latency, setup_s, sim_plane};
use crate::layers::{median_of, Metrics, SimLayers};
use crate::sim::{on_fresh_thread, replay, run_case_traced, run_public, Summary};
use crate::stats::{median, peak_rss_mb, SplitMix};
use crate::{Args, Outcome};
use std::time::{Duration, Instant};
use wbft_consensus::fuzz::{
    base_case, campaign, coin_starvation_case, crash_restart_case, membership_churn_case, run_case,
    FuzzCase, FuzzConfig, FuzzVerdict,
};

/// Scenarios per campaign (the CI smoke shape).
const SCENARIOS: u32 = 200;
/// Runs of each seed-corpus scenario per campaign: they take tens of
/// milliseconds each, so their medians need more samples than one.
const PROBE_PASSES: usize = 5;

/// The campaign's seed corpus, tagged with its kind: per protocol a base
/// case, a coin-starvation schedule and a crash-restart case, plus a
/// membership swap for protocols that support churn.
fn seed_corpus(cfg: &FuzzConfig) -> Vec<(&'static str, FuzzCase)> {
    let b = cfg.event_budget;
    let mut cases = Vec::new();
    for &p in &cfg.protocols {
        cases.push(("base", base_case(p, b)));
        cases.push(("starve", coin_starvation_case(p, b)));
        cases.push(("crash", crash_restart_case(p, b)));
        if p.supports_churn() {
            cases.push(("churn", membership_churn_case(p, b)));
        }
    }
    cases
}

/// Coverage keys and corpus size of one campaign, checked for a clean
/// verdict on every scenario.
fn one_campaign(cfg: &FuzzConfig, out: &mut Outcome) -> Option<(Duration, usize, usize)> {
    out.attempted += cfg.scenarios as u64;
    let Some((report, wall)) = on_fresh_thread(|| {
        let t = Instant::now();
        let report = campaign(cfg);
        (report, t.elapsed())
    }) else {
        eprintln!("fuzz-campaign: campaign panicked");
        out.failed += cfg.scenarios as u64;
        return None;
    };
    for f in &report.failures {
        eprintln!(
            "fuzz-campaign: {} ended {:?}",
            f.case.label, f.outcome.verdict
        );
    }
    out.failed += report.failures.len() as u64 + (cfg.scenarios - report.executed) as u64;
    Some((wall, report.coverage, report.corpus))
}

pub fn run(args: &Args) -> Outcome {
    let cfg = FuzzConfig::smoke(SCENARIOS);
    let mut cases = seed_corpus(&cfg);
    // The campaign itself is fixed-seed (its coverage is a simulated-plane
    // output); the seed orders the seed-corpus probes around it.
    let order = SplitMix(args.seed).permutation(cases.len());
    cases = order.into_iter().map(|i| cases[i].clone()).collect();
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut out = Outcome::default();
    if args.trace {
        out.metrics = traced(&cfg, &cases, started, budget, &mut out);
        return out;
    }

    let setup = setup_s(&cases.iter().map(|(_, c)| &c.cfg).collect::<Vec<_>>());
    let mut walls = Vec::new();
    let mut coverage = None;
    let mut refs: Vec<Option<Summary>> = vec![None; cases.len()];
    let mut case_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    loop {
        if let Some((wall, keys, corpus)) = one_campaign(&cfg, &mut out) {
            walls.push(wall.as_secs_f64());
            match coverage {
                None => coverage = Some((keys, corpus)),
                Some(c) if c != (keys, corpus) => {
                    eprintln!("fuzz-campaign: coverage {c:?} then {:?}", (keys, corpus));
                    out.failed += 1;
                }
                Some(_) => {}
            }
        }
        // The seed corpus through `testbed::run`: the workload's simulated
        // plane, and the wall time until each scenario's commits return.
        for (i, (_, case)) in (0..PROBE_PASSES).flat_map(|_| cases.iter().enumerate()) {
            out.attempted += 1;
            let Some((s, d)) = run_public(&case.cfg) else {
                eprintln!("fuzz-campaign: {} panicked", case.label);
                out.failed += 1;
                continue;
            };
            check(&case.label, &s, &mut refs[i], &mut out);
            case_ms[i].push(d.as_secs_f64() * 1e3);
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    let mut m = Metrics::new();
    m.insert("wall_s", median(&walls));
    m.insert("setup_s", setup);
    m.insert("peak_rss_mb", peak_rss_mb());
    commit_latency(&mut m, &case_ms, &refs);
    sim_plane(&mut m, &refs.iter().flatten().collect::<Vec<_>>());
    out.metrics = m;
    out
}

/// The traced run: one campaign for its coverage, then repeated passes
/// timing `run_case` per seed kind and rebuilding the plain single-hop
/// seeds (base and coin-starvation) under the timing shims.
fn traced(
    cfg: &FuzzConfig,
    cases: &[(&'static str, FuzzCase)],
    started: Instant,
    budget: Duration,
    out: &mut Outcome,
) -> Metrics {
    let (keys, corpus) = one_campaign(cfg, out).map(|c| (c.1, c.2)).unwrap_or((0, 0));
    let mut passes = Vec::new();
    loop {
        let mut layers = SimLayers::default();
        let mut m = Metrics::new();
        let (mut traced_wall, mut plain_wall) = (Duration::ZERO, Duration::ZERO);
        for (kind, case) in cases {
            out.attempted += 1;
            let Some((outcome, d)) = on_fresh_thread(|| {
                let t = Instant::now();
                let o = run_case(case);
                (o, t.elapsed())
            }) else {
                eprintln!("fuzz-campaign: run_case({}) panicked", case.label);
                out.failed += 1;
                continue;
            };
            if outcome.verdict != FuzzVerdict::Ok {
                eprintln!("fuzz-campaign: {} ended {:?}", case.label, outcome.verdict);
                out.failed += 1;
            }
            let key: &'static str = match *kind {
                "base" => "fuzz.base_case_s",
                "starve" => "fuzz.starve_case_s",
                "crash" => "fuzz.crash_case_s",
                _ => "fuzz.churn_case_s",
            };
            *m.entry(key).or_insert(0.0) += d.as_secs_f64();
            if !matches!(*kind, "base" | "starve") {
                continue;
            }
            out.attempted += 1;
            let Some((rebuilt, t)) = on_fresh_thread(|| run_case_traced(case)) else {
                eprintln!("fuzz-campaign: traced {} panicked", case.label);
                out.failed += 1;
                continue;
            };
            if rebuilt != outcome {
                eprintln!(
                    "fuzz-campaign: traced rebuild of {} differs from run_case",
                    case.label
                );
                out.failed += 1;
            }
            plain_wall += d;
            traced_wall += t.total;
            layers.add_run(&t);
            let r = replay(&t.spans, &t.crypto);
            if r.bad > 0 {
                eprintln!(
                    "fuzz-campaign: {} replayed frames of {} failed",
                    r.bad, case.label
                );
                out.failed += 1;
            }
            layers.replay.add(&r);
        }
        m.extend(layers.metrics());
        m.insert(
            "trace.overhead_ratio",
            traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
        );
        m.insert("fuzz.coverage_keys", keys as f64);
        m.insert("fuzz.corpus", corpus as f64);
        passes.push(m);
        if started.elapsed() >= budget {
            break;
        }
    }
    median_of(&passes)
}

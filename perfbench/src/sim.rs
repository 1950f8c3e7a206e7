//! Simulated deployments: building them from the public constructors,
//! running them plain or under the timing shims, summarising their
//! simulated-plane outputs, and replaying their frames through the
//! net/crypto layers.

use crate::trace::{span_log, Clock, SpanLog, Spans, TimedEngine, TimedNode};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use wbft_components::{deal_node_crypto, NodeCrypto};
use wbft_consensus::multihop::ClusterNode;
use wbft_consensus::service::block_digests;
use wbft_consensus::{
    build_scheduler, Engine, FuzzCase, FuzzOutcome, FuzzVerdict, ProtocolNode, RunReport,
    TestbedConfig,
};
use wbft_crypto::schnorr::Signature;
use wbft_crypto::{GroupElem, Scalar};
use wbft_net::{Envelope, Sizing};
use wbft_wireless::{
    ChannelId, Frame, Metrics, NodeBehavior, SimConfig, SimDuration, SimTime, Simulator, Topology,
};

/// The simulated-plane outputs of one run, as `testbed::run` reports them.
/// Deterministic: any difference between two runs of one config is a
/// behaviour change.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub completed: bool,
    pub elapsed_us: u64,
    pub epoch_latencies_us: Vec<u64>,
    pub total_txs: u64,
    pub mean_latency_s: f64,
    pub throughput_tpm: f64,
    pub channel_accesses_per_node: f64,
    pub bytes_on_air: u64,
    pub collisions: u64,
}

impl Summary {
    pub fn of_report(r: &RunReport) -> Self {
        Summary {
            completed: r.completed,
            elapsed_us: r.elapsed.as_micros(),
            epoch_latencies_us: r.epoch_latencies.iter().map(|d| d.as_micros()).collect(),
            total_txs: r.total_txs,
            mean_latency_s: r.mean_latency_s,
            throughput_tpm: r.throughput_tpm,
            channel_accesses_per_node: r.channel_accesses_per_node,
            bytes_on_air: r.bytes_on_air,
            collisions: r.collisions,
        }
    }

    /// The same aggregation `testbed::run` applies to a finished simulator.
    fn of_run(
        completed: bool,
        elapsed: SimDuration,
        decision_times: &[Vec<SimTime>],
        total_txs: u64,
        metrics: &Metrics,
        epochs: u64,
    ) -> Self {
        let mut lat = Vec::new();
        let mut prev = SimTime::ZERO;
        for e in 0..epochs as usize {
            let Some(t) = decision_times
                .iter()
                .filter_map(|t| t.get(e))
                .max()
                .copied()
            else {
                break;
            };
            lat.push(t.saturating_since(prev));
            prev = t;
        }
        let mean_latency_s = if lat.is_empty() {
            f64::NAN
        } else {
            lat.iter().map(|d| d.as_secs_f64()).sum::<f64>() / lat.len() as f64
        };
        let minutes = elapsed.as_secs_f64() / 60.0;
        Summary {
            completed,
            elapsed_us: elapsed.as_micros(),
            epoch_latencies_us: lat.iter().map(|d| d.as_micros()).collect(),
            total_txs,
            mean_latency_s,
            throughput_tpm: if minutes > 0.0 {
                total_txs as f64 / minutes
            } else {
                0.0
            },
            channel_accesses_per_node: metrics.mean_channel_accesses(),
            bytes_on_air: metrics.total_bytes_sent(),
            collisions: metrics.collisions,
        }
    }

    /// Byte-exact text form used for the identical-across-repetitions check.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}|{}|{:?}|{}|{:x}|{:x}|{:x}|{}|{}",
            self.completed,
            self.elapsed_us,
            self.epoch_latencies_us,
            self.total_txs,
            self.mean_latency_s.to_bits(),
            self.throughput_tpm.to_bits(),
            self.channel_accesses_per_node.to_bits(),
            self.bytes_on_air,
            self.collisions
        )
    }
}

/// Runs `f` on a fresh thread, so the thread-local subgroup and Lagrange
/// memos of the crypto crate start empty, as they do in a one-off run.
/// A panic (a failed internal invariant) comes back as `None`.
pub fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> Option<R> {
    std::thread::scope(|s| s.spawn(f).join().ok())
}

/// `testbed::run` on a fresh thread: the summary and the call's wall time.
pub fn run_public(cfg: &TestbedConfig) -> Option<(Summary, Duration)> {
    on_fresh_thread(|| {
        let t = Instant::now();
        let report = wbft_consensus::run(cfg);
        (Summary::of_report(&report), t.elapsed())
    })
}

fn sim_config(cfg: &TestbedConfig) -> SimConfig {
    SimConfig {
        radio: cfg.radio,
        csma: cfg.csma,
        dma: cfg.dma,
        loss: cfg.loss.clone(),
        adversary: cfg.adversary.clone(),
        seed: cfg.seed,
    }
}

/// Deals and builds a single-hop deployment the way `testbed::run` does
/// for a config without crash, churn or Byzantine plans; `wrap` turns each
/// node's engine into its behavior.
pub fn build_single_hop<B: NodeBehavior>(
    cfg: &TestbedConfig,
    mut wrap: impl FnMut(usize, Box<dyn Engine>, NodeCrypto) -> B,
) -> (Simulator<B>, Vec<NodeCrypto>) {
    use rand::SeedableRng;
    assert!(cfg.byzantine.is_empty() && cfg.crash.is_none() && cfg.churn.is_none());
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xdea1);
    let crypto = deal_node_crypto(cfg.n, cfg.suite, &mut rng);
    let behaviors: Vec<B> = crypto
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let engine = cfg.protocol.engine_at_depth(
                c.clone(),
                cfg.workload.clone(),
                cfg.epochs,
                cfg.pipeline_depth,
            );
            wrap(i, engine, c.clone())
        })
        .collect();
    let mut sim = Simulator::new(sim_config(cfg), Topology::single_hop(cfg.n), behaviors);
    if let Some(sched) = &cfg.sched {
        sim.set_scheduler(build_scheduler(sched));
    }
    (sim, crypto)
}

/// Deals and builds a clustered multi-hop deployment the way
/// `testbed::run` does.
pub fn build_multi_hop<B: NodeBehavior>(
    cfg: &TestbedConfig,
    mut wrap: impl FnMut(usize, ClusterNode) -> B,
) -> Simulator<B> {
    use rand::SeedableRng;
    let m = cfg.clusters.expect("multi-hop config");
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xc1u64);
    let global_crypto = deal_node_crypto(m, cfg.suite, &mut rng);
    let mut behaviors = Vec::with_capacity(m * cfg.n);
    for (cluster, global) in global_crypto.into_iter().enumerate() {
        let local_crypto = deal_node_crypto(cfg.n, cfg.suite, &mut rng);
        for (member, c) in local_crypto.into_iter().enumerate() {
            let node = ClusterNode::new(
                cluster,
                member,
                cfg.n,
                cfg.protocol,
                cfg.workload.clone(),
                cfg.epochs,
                c,
                global.clone(),
            );
            behaviors.push(wrap(behaviors.len(), node));
        }
    }
    Simulator::new(sim_config(cfg), Topology::clustered(m, cfg.n), behaviors)
}

/// Builds (and drops) the plain deployment of `cfg`: the set-up work a run
/// pays before its first event.
pub fn build_plain(cfg: &TestbedConfig) {
    if cfg.clusters.is_some() {
        std::hint::black_box(build_multi_hop(cfg, |_, n| n));
    } else {
        let plain = TestbedConfig {
            crash: None,
            churn: None,
            ..cfg.clone()
        };
        std::hint::black_box(build_single_hop(&plain, |_, e, c| {
            ProtocolNode::new(e, c, ChannelId(0))
        }));
    }
}

type TracedNode = TimedNode<ProtocolNode<Box<dyn Engine>>>;

fn traced_single_hop(
    cfg: &TestbedConfig,
    log: &SpanLog,
) -> (Simulator<TracedNode>, Vec<NodeCrypto>) {
    build_single_hop(cfg, |i, engine, c| {
        let engine: Box<dyn Engine> = Box::new(TimedEngine::new(engine, log.clone()));
        TimedNode::new(ProtocolNode::new(engine, c, ChannelId(0)), i, log.clone())
    })
}

/// What one traced run measured.
pub struct Traced {
    pub summary: Summary,
    /// Wall time of the event loop (construction excluded).
    pub run: Duration,
    /// Wall time of construction plus event loop.
    pub total: Duration,
    pub events: u64,
    pub spans: Spans,
    /// Keys for the replay (single-hop only).
    pub crypto: Vec<NodeCrypto>,
    /// Honest nodes disagreed on their chains.
    pub disagreement: bool,
}

/// Runs `cfg` rebuilt from the public constructors with every node and
/// engine wrapped in the timing shims. Must reproduce `testbed::run`.
pub fn run_traced(cfg: &TestbedConfig, capture: bool) -> Traced {
    let log = span_log(Clock::Wall, capture);
    let deadline = SimTime::ZERO + cfg.deadline;
    let built = Instant::now();
    if cfg.clusters.is_some() {
        let mut sim = build_multi_hop(cfg, |i, node| TimedNode::new(node, i, log.clone()));
        let t = Instant::now();
        let completed =
            sim.run_until_pred(deadline, |s| s.behaviors().all(|(_, b)| b.inner.is_done()));
        let run = t.elapsed();
        let total = built.elapsed();
        let decisions: Vec<Vec<SimTime>> = sim
            .behaviors()
            .map(|(_, b)| b.inner.decided_at.clone())
            .collect();
        let first = &sim.behavior(wbft_wireless::NodeId(0)).inner;
        let disagreement = completed
            && sim
                .behaviors()
                .any(|(_, b)| b.inner.global_decisions != first.global_decisions);
        let summary = Summary::of_run(
            completed,
            sim.now().saturating_since(SimTime::ZERO),
            &decisions,
            first.global_tx_total(),
            sim.metrics(),
            cfg.epochs,
        );
        let events = sim.events_processed();
        drop(sim);
        let spans = take(log);
        return Traced {
            summary,
            run,
            total,
            events,
            spans,
            crypto: Vec::new(),
            disagreement,
        };
    }
    let (mut sim, crypto) = traced_single_hop(cfg, &log);
    let t = Instant::now();
    let completed = sim.run_until_pred(deadline, |s| s.behaviors().all(|(_, b)| b.inner.is_done()));
    let run = t.elapsed();
    let total = built.elapsed();
    let decisions: Vec<Vec<SimTime>> = sim
        .behaviors()
        .map(|(_, b)| b.inner.clock().completed.clone())
        .collect();
    let reference = sim
        .behaviors()
        .next()
        .map(|(_, b)| b.inner.blocks().to_vec())
        .unwrap_or_default();
    let disagreement = completed
        && sim
            .behaviors()
            .any(|(_, b)| b.inner.blocks() != &reference[..]);
    let total_txs = reference.iter().map(|b| b.txs.len() as u64).sum();
    let summary = Summary::of_run(
        completed,
        sim.now().saturating_since(SimTime::ZERO),
        &decisions,
        total_txs,
        sim.metrics(),
        cfg.epochs,
    );
    let events = sim.events_processed();
    drop(sim);
    Traced {
        summary,
        run,
        total,
        events,
        spans: take(log),
        crypto,
        disagreement,
    }
}

/// Runs a seed-corpus fuzz case rebuilt under the timing shims, judged the
/// way `fuzz::run_case` judges it. Must reproduce `run_case`'s outcome.
pub fn run_case_traced(case: &FuzzCase) -> (FuzzOutcome, Traced) {
    let cfg = &case.cfg;
    let log = span_log(Clock::Wall, true);
    let built = Instant::now();
    let (mut sim, crypto) = traced_single_hop(cfg, &log);
    let budget = case.event_budget;
    let t = Instant::now();
    sim.run_until_pred(SimTime::ZERO + cfg.deadline, |s| {
        s.events_processed() >= budget || s.behaviors().all(|(_, b)| b.inner.is_done())
    });
    let run = t.elapsed();
    let total = built.elapsed();
    let done = sim.behaviors().all(|(_, b)| b.inner.is_done());
    let chains: Vec<_> = sim
        .behaviors()
        .map(|(_, b)| block_digests(b.inner.blocks()))
        .collect();
    let reference = chains.first().cloned().unwrap_or_default();
    let divergent = chains.iter().any(|c| {
        let common = c.len().min(reference.len());
        c[..common] != reference[..common]
    });
    let verdict = match (divergent, done) {
        (true, _) => FuzzVerdict::Divergence,
        (false, false) => FuzzVerdict::Stall,
        (false, true) => FuzzVerdict::Ok,
    };
    let blocks: Vec<_> = sim
        .behaviors()
        .next()
        .map(|(_, b)| b.inner.blocks().to_vec())
        .unwrap_or_default();
    let decisions: Vec<Vec<SimTime>> = sim
        .behaviors()
        .map(|(_, b)| b.inner.clock().completed.clone())
        .collect();
    let summary = Summary::of_run(
        done,
        sim.now().saturating_since(SimTime::ZERO),
        &decisions,
        blocks.iter().map(|b| b.txs.len() as u64).sum(),
        sim.metrics(),
        cfg.epochs,
    );
    let outcome = FuzzOutcome {
        verdict,
        events: sim.events_processed(),
        blocks: chains.iter().map(|c| c.len() as u64).max().unwrap_or(0),
        collisions: sim.metrics().collisions,
        chain: reference,
    };
    let events = sim.events_processed();
    drop(sim);
    let spans = take(log);
    let traced = Traced {
        summary,
        run,
        total,
        events,
        spans,
        crypto,
        disagreement: divergent,
    };
    (outcome, traced)
}

fn take(log: SpanLog) -> Spans {
    std::mem::take(&mut *log.borrow_mut())
}

/// Net/crypto layer times from replaying a run's frames.
#[derive(Default, Clone, Debug)]
pub struct Replay {
    pub open: Duration,
    pub decode: Duration,
    pub verify: Duration,
    pub seal: Duration,
    pub frames: u64,
    pub distinct_r: u64,
    /// Frames that failed to open, verify or re-seal to the same bytes.
    pub bad: u64,
}

impl Replay {
    pub fn add(&mut self, o: &Replay) {
        self.open += o.open;
        self.decode += o.decode;
        self.verify += o.verify;
        self.seal += o.seal;
        self.frames += o.frames;
        self.distinct_r += o.distinct_r;
        self.bad += o.bad;
    }
}

fn sig_parts(bytes: &[u8]) -> Option<(&[u8], [u8; 32], [u8; 32])> {
    let split = bytes.len().checked_sub(64)?;
    let (signed, sig) = bytes.split_at(split);
    Some((
        signed,
        sig[..32].try_into().ok()?,
        sig[32..].try_into().ok()?,
    ))
}

/// Replays delivered consensus frames (channel 0; anti-entropy sync
/// traffic is unsigned), in delivery order, through
/// `Envelope::open_tagged`, `GroupElem::from_bytes` and
/// `PublicKey::verify`, and re-seals every sent frame with
/// `Envelope::seal_tagged`. Each pass runs on a fresh thread so it starts
/// with cold memos, as the run did, and is timed on the run's clock.
pub fn replay(spans: &Spans, crypto: &[NodeCrypto]) -> Replay {
    let clock = spans.clock;
    let since = |t: u64| Duration::from_nanos(clock.now_ns().saturating_sub(t));
    let keys = &crypto[0].peer_keys;
    let delivered: Vec<&Frame> = spans
        .delivered
        .iter()
        .filter(|f| f.channel == ChannelId(0))
        .collect();
    let frames: Vec<&[u8]> = delivered.iter().map(|f| &f.payload[..]).collect();
    let mut out = Replay {
        frames: frames.len() as u64,
        ..Replay::default()
    };
    let mut bad = 0u64;

    let (open, open_bad) = on_fresh_thread(|| {
        let mut bad = 0;
        let t = clock.now_ns();
        for f in &frames {
            let opened = Envelope::open_tagged(f, |src| keys.get(src as usize).copied());
            if !matches!(opened, Ok((_, _, true))) {
                bad += 1;
            }
        }
        (since(t), bad)
    })
    .expect("open replay");
    out.open = open;
    bad += open_bad;

    let rs: Vec<[u8; 32]> = frames
        .iter()
        .filter_map(|f| sig_parts(f).map(|p| p.1))
        .collect();
    out.distinct_r = rs.iter().collect::<BTreeSet<_>>().len() as u64;
    out.decode = on_fresh_thread(|| {
        let t = clock.now_ns();
        for r in &rs {
            let _ = std::hint::black_box(GroupElem::from_bytes(r));
        }
        since(t)
    })
    .expect("decode replay");

    // Signatures are assembled outside the timed loop with the memo-free
    // decoder, so the verify pass times exactly `PublicKey::verify`.
    let sigs: Vec<_> = delivered
        .iter()
        .filter_map(|f| {
            let (signed, r, z) = sig_parts(&f.payload)?;
            let r = GroupElem::from_bytes_uncached(&r).ok()?;
            let pk = keys.get(f.src.index()).copied()?;
            Some((
                pk,
                signed,
                Signature {
                    r,
                    z: Scalar::from_bytes_reduced(&z),
                },
            ))
        })
        .collect();
    bad += frames.len() as u64 - sigs.len() as u64;
    let (verify, verify_bad) = on_fresh_thread(|| {
        let mut bad = 0;
        let t = clock.now_ns();
        for (pk, signed, sig) in &sigs {
            if pk.verify(signed, sig).is_err() {
                bad += 1;
            }
        }
        (since(t), bad)
    })
    .expect("verify replay");
    out.verify = verify;
    bad += verify_bad;

    let (seal, seal_bad) = on_fresh_thread(|| {
        let mut bad = 0;
        let mut total = Duration::ZERO;
        for (node, _, bytes) in spans.sent.iter().filter(|s| s.1 == ChannelId(0)) {
            let Ok((env, tag, _)) = Envelope::open_tagged(bytes, |_| None) else {
                bad += 1;
                continue;
            };
            let c = &crypto[*node];
            let sizing = Sizing {
                n: c.peer_keys.len(),
                suite: c.suite,
            };
            let t = clock.now_ns();
            let sealed = env.seal_tagged(&c.keypair, &sizing, tag);
            total += since(t);
            if !matches!(sealed, Ok((b, _)) if b[..] == bytes[..]) {
                bad += 1;
            }
        }
        (total, bad)
    })
    .expect("seal replay");
    out.seal = seal;
    out.bad = bad + seal_bad;
    out
}

//! The asynchronous wireless BFT consensus testbed (paper §V-C).
//!
//! One configuration struct describes an experiment — protocol, node count,
//! workload, radio/CSMA/DMA parameters, loss, adversary, crypto suite,
//! single-hop or clustered multi-hop — and [`run`] executes it on the
//! discrete-event simulator, returning the quantities the paper's figures
//! plot: per-epoch latency, throughput in transactions per minute (TPM),
//! channel accesses per node, bytes on air, collisions and CPU time.

use crate::byzantine::{ByzantineEngine, ByzantineMode};
use crate::driver::{Block, Engine, ProtocolNode};
use crate::fuzz::FuzzVerdict;
use crate::membership::MembershipCtl;
use crate::multihop::ClusterNode;
use crate::protocol::Protocol;
use crate::recovery::BlockJournal;
use crate::service::{ConsensusHandle, ServiceConfig, ServiceReport, ServiceStats, StopCondition};
use crate::workload::Workload;
use wbft_components::{deal_node_crypto, deal_node_crypto_with_joiners, NodeCrypto};
use wbft_crypto::CryptoSuite;
use wbft_membership::{MembershipOp, ACTIVATION_DELAY};
use wbft_journal::SharedMem;
use wbft_transport::SYNC_CHANNEL;
use wbft_wireless::{
    AdversaryConfig, ChannelId, CsmaParams, DmaParams, LossModel, Metrics, NodeId, RadioParams,
    SchedConfig, SimConfig, SimDuration, SimTime, Simulator, Topology,
};

/// One crash-restart event on the churn timeline: the node's process dies
/// at `at_us` (losing all volatile state, cutting its in-flight frames)
/// and a fresh incarnation boots at `restart_us`, recovering its committed
/// prefix from the durable journal and catching the rest up through the
/// anti-entropy sync channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// Node to crash (must be honest).
    pub node: usize,
    /// Simulated microseconds from start at which the node dies.
    pub at_us: u64,
    /// Simulated microseconds at which it restarts (`> at_us`).
    pub restart_us: u64,
}

/// A seed-deterministic crash/churn schedule: crash/restart is a fault
/// axis like loss or Byzantine behaviour, not a separate harness. With a
/// plan installed every node journals its commits to an in-memory durable
/// store and listens on the reserved sync channel, so restarted nodes
/// recover their prefix and converge with the survivors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashPlan {
    /// Crash events; at most one per node, nodes disjoint from `byzantine`.
    pub crashes: Vec<CrashEvent>,
}

/// A consensus-ordered membership change: from `from_epoch` on, the
/// genesis members inject the listed join/leave ops into their proposals
/// as reserved-class transactions. Whatever epoch `e` the ops commit in,
/// the change activates at `e + ACTIVATION_DELAY`, after the old
/// committee's canonical dealers have reshared the threshold keys to the
/// new committee — so the simulated nodes cover the genesis committee
/// *and* every joiner, and the run only completes once all of them hold
/// the agreed chain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnPlan {
    /// Epoch from which the ops enter proposals. They commit together as
    /// one configuration change.
    pub from_epoch: u64,
    /// The membership operations of the change.
    pub ops: Vec<MembershipOp>,
}

/// Full description of one testbed experiment.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Protocol deployment under test.
    pub protocol: Protocol,
    /// Nodes in a single-hop run; nodes *per cluster* in multi-hop.
    pub n: usize,
    /// Epochs to run.
    pub epochs: u64,
    /// Transaction workload.
    pub workload: Workload,
    /// Curve deployments.
    pub suite: CryptoSuite,
    /// Simulation seed.
    pub seed: u64,
    /// Frame-loss model.
    pub loss: LossModel,
    /// Radio parameters.
    pub radio: RadioParams,
    /// Medium-access parameters.
    pub csma: CsmaParams,
    /// DMA delivery model.
    pub dma: DmaParams,
    /// Adversarial delivery scheduling.
    pub adversary: AdversaryConfig,
    /// `Some` = worst-case delivery scheduler: an active adversary that
    /// inspects each deliverable frame and holds it back within a hard
    /// per-delivery budget (see [`wbft_wireless::sched`]). Built by
    /// [`crate::fuzz::build_scheduler`], which also handles the
    /// protocol-aware policies the wireless layer cannot decode.
    pub sched: Option<SchedConfig>,
    /// Byzantine nodes: `(node id, behaviour)`. Single-hop only.
    pub byzantine: Vec<(usize, ByzantineMode)>,
    /// Simulated-time budget.
    pub deadline: SimDuration,
    /// `Some(m)` = multi-hop with `m` clusters of `n` nodes each.
    pub clusters: Option<usize>,
    /// `Some` = live-service run: epochs pull proposals from client-fed
    /// mempools under an open-loop arrival schedule instead of the
    /// pre-seeded workload, and the report gains a [`ServiceReport`]
    /// (single-hop only; `epochs` is ignored in favour of the service's
    /// `max_epochs`).
    pub service: Option<ServiceConfig>,
    /// Pipeline depth `W`: how many epochs keep their dissemination in
    /// flight while earlier epochs finish agreement. `1` (the default) is
    /// the strictly sequential engine; absent from the JSON encoding at 1
    /// so pre-pipelining configs keep their exact bytes. Single-hop only.
    pub pipeline_depth: u64,
    /// `Some` = crash/churn schedule: nodes journal commits durably, the
    /// listed nodes are killed and restarted at the scheduled times, and
    /// the run only completes once the restarted nodes have recovered and
    /// caught up. Absent from the JSON encoding when `None` so pre-churn
    /// configs keep their exact bytes. Single-hop, non-service only.
    pub crash: Option<CrashPlan>,
    /// `Some` = dynamic-membership schedule: join/leave ops ride the
    /// ordered transaction path, quorum math follows the chain-derived
    /// committee view, and threshold keys are reshared to the new
    /// committee before activation. Absent from the JSON encoding when
    /// `None` so pre-membership configs keep their exact bytes.
    /// Single-hop, non-service, depth-1, HoneyBadger-family only.
    pub churn: Option<ChurnPlan>,
}

impl TestbedConfig {
    /// The paper's single-hop setting: 4 nodes, LoRa radio, light suite.
    pub fn single_hop(protocol: Protocol) -> Self {
        TestbedConfig {
            protocol,
            n: 4,
            epochs: 2,
            workload: Workload { batch_size: 32, tx_bytes: 16, seed: 1 },
            suite: CryptoSuite::light(),
            seed: 7,
            loss: LossModel::None,
            radio: RadioParams::lora_sf7(),
            csma: CsmaParams::lora_class(),
            dma: DmaParams::aligned(),
            adversary: AdversaryConfig::benign(),
            sched: None,
            byzantine: Vec::new(),
            deadline: SimDuration::from_secs(3_600),
            clusters: None,
            service: None,
            pipeline_depth: 1,
            crash: None,
            churn: None,
        }
    }

    /// The paper's multi-hop setting: 16 nodes in 4 clusters of 4.
    pub fn multi_hop(protocol: Protocol) -> Self {
        TestbedConfig { clusters: Some(4), ..Self::single_hop(protocol) }
    }
}

/// Measured outcome of one run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// All honest nodes finished every epoch before the deadline.
    pub completed: bool,
    /// Simulated time at completion (or deadline).
    pub elapsed: SimDuration,
    /// Per-epoch latency: slowest honest node's decision time for the
    /// epoch, minus the previous epoch's.
    pub epoch_latencies: Vec<SimDuration>,
    /// Mean of `epoch_latencies` in seconds.
    pub mean_latency_s: f64,
    /// Committed transactions per minute of simulated time.
    pub throughput_tpm: f64,
    /// Total transactions committed (node 0's chain; multi-hop: global).
    pub total_txs: u64,
    /// Mean channel accesses per node — the Table I statistic.
    pub channel_accesses_per_node: f64,
    /// Nominal bytes transmitted.
    pub bytes_on_air: u64,
    /// Medium collision events.
    pub collisions: u64,
    /// Full per-node simulator counters (airtime, losses, CPU time) for
    /// scriptable figure regeneration from the JSON reports.
    pub metrics: Metrics,
    /// Service-mode statistics: submission/backpressure counters and
    /// per-transaction commit-latency percentiles. `None` on fixed-epoch
    /// runs (and absent from their JSON, keeping them byte-identical to
    /// pre-service reports).
    pub service: Option<ServiceReport>,
}

// Pure aggregation step shared by the single- and multi-hop simulator
// paths and the UDP runner (`netrun`).
pub(crate) fn finish_report(
    completed: bool,
    elapsed: SimDuration,
    decision_times: Vec<Vec<SimTime>>,
    total_txs: u64,
    metrics: Metrics,
    epochs: u64,
) -> RunReport {
    // Per-epoch latency: max over honest nodes, differenced between epochs.
    let mut epoch_latencies = Vec::new();
    let mut prev = SimTime::ZERO;
    for e in 0..epochs as usize {
        let slowest = decision_times
            .iter()
            .filter_map(|times| times.get(e))
            .max()
            .copied();
        match slowest {
            Some(t) => {
                epoch_latencies.push(t.saturating_since(prev));
                prev = t;
            }
            None => break,
        }
    }
    let mean_latency_s = if epoch_latencies.is_empty() {
        f64::NAN
    } else {
        epoch_latencies.iter().map(|d| d.as_secs_f64()).sum::<f64>()
            / epoch_latencies.len() as f64
    };
    let minutes = elapsed.as_secs_f64() / 60.0;
    let throughput_tpm = if minutes > 0.0 { total_txs as f64 / minutes } else { 0.0 };
    RunReport {
        completed,
        elapsed,
        epoch_latencies,
        mean_latency_s,
        throughput_tpm,
        total_txs,
        channel_accesses_per_node: metrics.mean_channel_accesses(),
        bytes_on_air: metrics.total_bytes_sent(),
        collisions: metrics.collisions,
        metrics,
        service: None,
    }
}

/// Checks a config describes a simulable scenario: the loss model must
/// leave eventual delivery intact, the adversary must be honest about its
/// delay bound, any scheduler config must be well-formed, and the fault and
/// workload axes must compose. Returns the reason for the first rejection —
/// a scenario that breaks the model's standing assumptions would produce a
/// report whose correctness claims are vacuous, so [`run`] panics on it.
pub fn validate(cfg: &TestbedConfig) -> Result<(), String> {
    if cfg.service.is_some() && cfg.clusters.is_some() {
        return Err("service runs are single-hop only (clustered service is a follow-on)".into());
    }
    cfg.loss.validate().map_err(|e| format!("invalid loss config: {e}"))?;
    cfg.adversary.validate().map_err(|e| format!("invalid adversary config: {e}"))?;
    if let Some(sched) = &cfg.sched {
        sched.validate().map_err(|e| format!("invalid scheduler config: {e}"))?;
    }
    if cfg.pipeline_depth == 0 {
        return Err("invalid pipeline depth: 0 (W >= 1; W = 1 is sequential)".into());
    }
    if cfg.clusters.is_some() && cfg.pipeline_depth != 1 {
        return Err(
            "pipelined epochs are single-hop only (clustered pipelining is a follow-on)".into()
        );
    }
    if let Some(plan) = &cfg.crash {
        if cfg.clusters.is_some() {
            return Err("crash plans are single-hop only".into());
        }
        if cfg.service.is_some() {
            return Err("crash plans do not compose with service mode (follow-on)".into());
        }
        if plan.crashes.is_empty() {
            return Err("crash plan has no events (use crash: None for no churn)".into());
        }
        let deadline_us = cfg.deadline.as_micros();
        let mut seen: Vec<usize> = Vec::new();
        for ev in &plan.crashes {
            if ev.node >= cfg.n {
                return Err(format!("crash event names node {} but n = {}", ev.node, cfg.n));
            }
            if ev.restart_us <= ev.at_us {
                return Err(format!(
                    "crash of node {} restarts at {}us, not after {}us",
                    ev.node, ev.restart_us, ev.at_us
                ));
            }
            if ev.restart_us >= deadline_us {
                return Err(format!(
                    "crash of node {} restarts after the {}us deadline",
                    ev.node, deadline_us
                ));
            }
            if cfg.byzantine.iter().any(|(b, _)| *b == ev.node) {
                return Err(format!("node {} is both Byzantine and crash-scheduled", ev.node));
            }
            if seen.contains(&ev.node) {
                return Err(format!(
                    "node {} crashes more than once (one event per node)",
                    ev.node
                ));
            }
            seen.push(ev.node);
        }
        // A down node is indistinguishable from a silent faulty one, so
        // crashed + Byzantine together must stay within the f the quorum
        // sizes tolerate or the liveness claim is vacuous.
        let f = cfg.n.saturating_sub(1) / 3;
        if seen.len() + cfg.byzantine.len() > f {
            return Err(format!(
                "{} crashed + {} Byzantine nodes exceed f = {} for n = {}",
                seen.len(),
                cfg.byzantine.len(),
                f,
                cfg.n
            ));
        }
    }
    if let Some(plan) = &cfg.churn {
        if cfg.clusters.is_some() {
            return Err("churn plans are single-hop only (clustered churn is a follow-on)".into());
        }
        if cfg.service.is_some() {
            return Err("churn plans do not compose with service mode (follow-on)".into());
        }
        if cfg.pipeline_depth != 1 {
            return Err(
                "churn plans require pipeline depth 1 (pipelined churn is a follow-on)".into()
            );
        }
        if !cfg.byzantine.is_empty() {
            return Err("churn plans do not compose with Byzantine nodes (follow-on)".into());
        }
        if cfg.crash.is_some() {
            return Err("churn plans do not compose with crash plans (follow-on)".into());
        }
        if !cfg.protocol.supports_churn() {
            return Err("dynamic membership is HoneyBadger-family only for now \
                 (Dumbo churn is a follow-on)"
                .into());
        }
        if plan.ops.is_empty() {
            return Err("churn plan has no ops (use churn: None for a static committee)".into());
        }
        for (i, op) in plan.ops.iter().enumerate() {
            if plan.ops[..i].contains(op) {
                return Err(format!("churn plan repeats {op}"));
            }
        }
        let mut join_ids: Vec<usize> = Vec::new();
        let mut leaves = 0usize;
        for op in &plan.ops {
            match op {
                MembershipOp::Join(id) => {
                    if (*id as usize) < cfg.n {
                        return Err(format!(
                            "churn {op} names a genesis member (ids below n = {})",
                            cfg.n
                        ));
                    }
                    join_ids.push(*id as usize);
                }
                MembershipOp::Leave(id) => {
                    if (*id as usize) >= cfg.n {
                        return Err(format!(
                            "churn {op} names a node outside the genesis committee (n = {})",
                            cfg.n
                        ));
                    }
                    leaves += 1;
                }
            }
        }
        // Joins must use contiguous fresh ids: every simulated node has to
        // end up a member eventually, or the run can never complete (a
        // dealt-but-never-joining node would idle at the stop forever).
        join_ids.sort_unstable();
        for (k, id) in join_ids.iter().enumerate() {
            if *id != cfg.n + k {
                return Err(format!(
                    "churn joins must use contiguous fresh ids from n = {} (got join({id}))",
                    cfg.n
                ));
            }
        }
        let new_n = cfg.n + join_ids.len() - leaves;
        if new_n < 4 || !(new_n - 1).is_multiple_of(3) {
            return Err(format!(
                "churn plan leaves an invalid committee size {new_n} (need 3f+1 >= 4)"
            ));
        }
        // The change commits no earlier than `from_epoch` and activates
        // ACTIVATION_DELAY epochs later; at least one epoch must run under
        // the new committee or the plan is dead weight.
        if plan.from_epoch + ACTIVATION_DELAY >= cfg.epochs {
            return Err(format!(
                "churn from epoch {} cannot activate within {} epochs \
                 (activation = commit + {ACTIVATION_DELAY})",
                plan.from_epoch, cfg.epochs
            ));
        }
    }
    Ok(())
}

/// Executes one experiment.
///
/// # Panics
///
/// Panics with [`validate`]'s reason on an invalid config, and on a broken
/// single-hop run invariant: an honest chain that disagrees with the
/// reference, a crashed node's journal that does not replay to it, or — once
/// the run completed — chains that are not level or a churn op that never
/// committed.
pub fn run(cfg: &TestbedConfig) -> RunReport {
    if let Err(e) = validate(cfg) {
        panic!("{e}");
    }
    match cfg.clusters {
        Some(m) => run_multi_hop(cfg, m),
        None => {
            let run = SingleHop::run(cfg, u64::MAX);
            if let Err((_, violation)) = run.judge(cfg) {
                panic!("{violation}");
            }
            run.report(cfg)
        }
    }
}

/// Installs the configured delivery scheduler, if any.
fn install_scheduler<B: wbft_wireless::NodeBehavior>(cfg: &TestbedConfig, sim: &mut Simulator<B>) {
    if let Some(sched) = &cfg.sched {
        sim.set_scheduler(crate::fuzz::build_scheduler(sched));
    }
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

type Node = ProtocolNode<Box<dyn Engine>>;

/// A single-hop run of any config — plain, Byzantine, pipelined, service,
/// crash or churn — built, run and judged the same way for [`run`] and
/// [`crate::fuzz::run_case`].
pub(crate) struct SingleHop {
    pub(crate) sim: Simulator<Node>,
    /// Every node but the Byzantine placements.
    honest: Vec<bool>,
    /// The completion predicate held when the run stopped.
    pub(crate) completed: bool,
    /// Dealt identities: a restart re-instantiates a node with its own.
    crypto: Vec<NodeCrypto>,
    /// Durable per-node stores (crash plans only) — the sim's stand-in for
    /// each node's disk, outliving the crashed incarnations.
    stores: Vec<SharedMem>,
    /// Per-node service handles (service loads only).
    handles: Vec<ConsensusHandle>,
}

impl SingleHop {
    /// Deals and builds `cfg`, executes its crash plan, then runs until the
    /// completion predicate holds, the deadline passes, or the simulator
    /// has processed `event_budget` events.
    pub(crate) fn run(cfg: &TestbedConfig, event_budget: u64) -> Self {
        use rand::SeedableRng;
        // A churn run simulates every scheduled joiner from the start.
        let n_total = cfg
            .churn
            .iter()
            .flat_map(|plan| &plan.ops)
            .filter_map(|op| match op {
                MembershipOp::Join(id) => Some(*id as usize + 1),
                MembershipOp::Leave(_) => None,
            })
            .fold(cfg.n, usize::max);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xdea1);
        let crypto = deal_node_crypto_with_joiners(cfg.n, n_total, cfg.suite, &mut rng);
        let honest: Vec<bool> =
            (0..n_total).map(|i| !cfg.byzantine.iter().any(|(b, _)| *b == i)).collect();
        let stores: Vec<SharedMem> = match cfg.crash {
            Some(_) => (0..cfg.n).map(|_| SharedMem::new()).collect(),
            None => Vec::new(),
        };
        let handles: Vec<ConsensusHandle> = match &cfg.service {
            Some(svc) => (0..cfg.n).map(|_| ConsensusHandle::new(svc.mempool_capacity)).collect(),
            None => Vec::new(),
        };
        let nodes: Vec<Node> = crypto
            .iter()
            .enumerate()
            .map(|(i, c)| build_node(cfg, c.clone(), stores.get(i), handles.get(i)))
            .collect();
        let mut topo = Topology::single_hop(n_total);
        if cfg.crash.is_some() || cfg.churn.is_some() {
            for i in 0..n_total {
                topo.join_channel(NodeId(i as u16), ChannelId(SYNC_CHANNEL));
            }
        }
        let mut sim = Simulator::new(sim_config(cfg), topo, nodes);
        install_scheduler(cfg, &mut sim);
        let mut run = SingleHop { sim, honest, completed: false, crypto, stores, handles };
        run.crash_timeline(cfg);
        let deadline = SimTime::ZERO + cfg.deadline;
        run.sim.run_until_pred(deadline, |s| {
            s.events_processed() >= event_budget || complete(cfg, &run.honest, &run.handles, s)
        });
        run.completed = complete(cfg, &run.honest, &run.handles, &run.sim);
        run
    }

    /// Phased execution of the crash plan: advances simulated time to each
    /// crash and restart in order and performs it. On return every node is
    /// up again.
    fn crash_timeline(&mut self, cfg: &TestbedConfig) {
        let Some(plan) = &cfg.crash else { return };
        let mut actions: Vec<(u64, usize, bool)> = plan
            .crashes
            .iter()
            .flat_map(|ev| [(ev.at_us, ev.node, false), (ev.restart_us, ev.node, true)])
            .collect();
        actions.sort_by_key(|(t, ..)| *t);
        for (t, i, restart) in actions {
            self.sim.run_until(SimTime::ZERO + SimDuration::from_micros(t));
            if restart {
                let crypto = self.crypto[i].clone();
                let node = build_node(cfg, crypto, self.stores.get(i), self.handles.get(i));
                self.sim.restart_node(NodeId(i as u16), node);
            } else {
                self.sim.crash_node(NodeId(i as u16));
            }
        }
    }

    /// The honest nodes, in id order.
    pub(crate) fn honest_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.sim.behaviors().filter(|(id, _)| self.honest[id.index()])
    }

    /// The agreement reference: the chain of the first honest node that
    /// never crashes and never leaves the committee — it follows the whole
    /// run natively.
    pub(crate) fn reference(&self, cfg: &TestbedConfig) -> &[Block] {
        let crashes = |i: usize| cfg.crash.iter().flat_map(|p| &p.crashes).any(|ev| ev.node == i);
        let leaves =
            |i: usize| cfg.churn.iter().any(|p| p.ops.contains(&MembershipOp::Leave(i as u16)));
        self.honest_nodes()
            .find(|(id, _)| !crashes(id.index()) && !leaves(id.index()))
            .map_or(&[], |(_, b)| b.blocks())
    }

    /// Checks the run's invariants against the reference chain: every
    /// honest chain is a prefix of it (or extends it), every crashed node's
    /// journal replays to it, and — once the run completed — every honest
    /// chain is level with it and every churn op sits committed in it.
    /// A violation comes back as the fuzz verdict it amounts to plus the
    /// message [`run`] panics with.
    pub(crate) fn judge(&self, cfg: &TestbedConfig) -> Result<(), (FuzzVerdict, String)> {
        let reference = self.reference(cfg);
        let agrees = |chain: &[Block]| {
            let common = chain.len().min(reference.len());
            chain[..common] == reference[..common]
        };
        if let Some((id, _)) = self.honest_nodes().find(|(_, b)| !agrees(b.blocks())) {
            return Err((FuzzVerdict::Divergence, format!("agreement violated at {id}")));
        }
        // The durable stores must themselves replay to the agreed chain —
        // the journal is the recovery story, so check it, not just the
        // engines.
        for ev in cfg.crash.iter().flat_map(|p| &p.crashes) {
            let replayed = BlockJournal::open(Box::new(self.stores[ev.node].clone()));
            if !replayed.is_ok_and(|(_, blocks)| agrees(&blocks)) {
                let msg = format!("journal of node {} diverged from the agreed chain", ev.node);
                return Err((FuzzVerdict::Divergence, msg));
            }
        }
        if !self.completed {
            return Ok(());
        }
        let unlevel = self.honest_nodes().find(|(_, b)| b.blocks().len() != reference.len());
        if let Some((id, _)) = unlevel {
            return Err((FuzzVerdict::Stall, format!("chains not level at {id}")));
        }
        // A membership plan must actually have bitten inside the run.
        for op in cfg.churn.iter().flat_map(|p| &p.ops) {
            let committed = reference
                .iter()
                .flat_map(|b| &b.txs)
                .any(|tx| wbft_membership::decode_op(tx.as_ref()) == Some(*op));
            if !committed {
                return Err((FuzzVerdict::Stall, format!("churn op {op} never committed")));
            }
        }
        Ok(())
    }

    /// The run's figures: per-epoch latency over the honest nodes, the
    /// reference chain's transactions, and under a service load the honest
    /// handles' aggregated statistics.
    fn report(&self, cfg: &TestbedConfig) -> RunReport {
        let decision_times: Vec<Vec<SimTime>> =
            self.honest_nodes().map(|(_, b)| b.clock().completed.clone()).collect();
        let reference = self.reference(cfg);
        let total_txs: u64 = reference.iter().map(|b| b.txs.len() as u64).sum();
        // A service run's epoch count is whatever its load needed.
        let epochs = if cfg.service.is_some() { reference.len() as u64 } else { cfg.epochs };
        let mut report = finish_report(
            self.completed,
            self.sim.now().saturating_since(SimTime::ZERO),
            decision_times,
            total_txs,
            self.sim.metrics().clone(),
            epochs,
        );
        if cfg.service.is_some() {
            let stats: Vec<ServiceStats> = self
                .handles
                .iter()
                .zip(&self.honest)
                .filter(|(_, honest)| **honest)
                .map(|(h, _)| h.stats())
                .collect();
            report.service = Some(ServiceReport::aggregate(&stats));
        }
        report
    }
}

/// Builds single-hop node `crypto.me` as `cfg` wires it — the one node
/// constructor, at boot and at restart alike. The engine follows the
/// config's workload: mempool-fed under a service load, fixed-epoch
/// otherwise, and membership-aware under a churn plan. A Byzantine placement wraps
/// it; a crash plan adds the durable journal (`store`), whose recovered
/// prefix the engine replays before it starts; a crash or churn plan adds
/// the anti-entropy sync channel; a service load binds the node's handle
/// and arrival schedule.
fn build_node(
    cfg: &TestbedConfig,
    crypto: NodeCrypto,
    store: Option<&SharedMem>,
    handle: Option<&ConsensusHandle>,
) -> Node {
    let i = crypto.me;
    let mut engine = if let (Some(svc), Some(h)) = (&cfg.service, handle) {
        cfg.protocol.service_engine_at_depth(
            crypto.clone(),
            h.clone(),
            cfg.workload.batch_size,
            svc.max_epochs,
            cfg.pipeline_depth,
        )
    } else {
        let membership = cfg.churn.as_ref().map(|plan| {
            let mut ctl = MembershipCtl::new(crypto.clone(), cfg.n);
            // Genesis members sponsor the change; joiners cannot propose
            // until they are members, so they schedule nothing.
            if i < cfg.n {
                for op in &plan.ops {
                    ctl.schedule_op(plan.from_epoch, *op);
                }
            }
            ctl
        });
        cfg.protocol.build_engine(
            crypto.clone(),
            cfg.workload.clone().into(),
            StopCondition::Epochs(cfg.epochs),
            cfg.pipeline_depth,
            membership,
        )
    };
    let journal = store.map(|store| {
        let (journal, blocks) =
            BlockJournal::open(Box::new(store.clone())).expect("durable journal recovery failed");
        let recovered = blocks.len();
        engine.restore_chain(blocks);
        (journal, recovered)
    });
    if let Some((_, mode)) = cfg.byzantine.iter().find(|(b, _)| *b == i) {
        engine = Box::new(ByzantineEngine::new(engine, *mode));
    }
    let mut node = ProtocolNode::new(engine, crypto, ChannelId(0));
    if let Some((journal, recovered)) = journal {
        node = node.with_recovered(recovered).with_journal(journal);
    }
    if cfg.crash.is_some() || cfg.churn.is_some() {
        node = node.with_sync(ChannelId(SYNC_CHANNEL));
    }
    if let (Some(svc), Some(h)) = (&cfg.service, handle) {
        node = node.with_service(h.clone(), svc.arrivals.schedule(i));
    }
    node
}

/// The completion predicate, checked after every simulator event — so it
/// neither hashes nor allocates. Every honest node is done; under a
/// service load "done" means it saw its whole arrival schedule and resolved
/// every admitted transaction into a block, and the honest chains must be
/// level too (no node still waiting on the final commit).
fn complete(
    cfg: &TestbedConfig,
    honest: &[bool],
    handles: &[ConsensusHandle],
    sim: &Simulator<Node>,
) -> bool {
    let Some(svc) = &cfg.service else {
        return sim.behaviors().all(|(id, b)| !honest[id.index()] || b.is_done());
    };
    let drained = handles
        .iter()
        .zip(honest)
        .all(|(h, ok)| !ok || (h.submissions() == svc.arrivals.per_node && h.drained()));
    drained && {
        let mut lens =
            sim.behaviors().filter(|(id, _)| honest[id.index()]).map(|(_, b)| b.blocks().len());
        let first = lens.next().unwrap_or(0);
        lens.all(|l| l == first)
    }
}

fn run_multi_hop(cfg: &TestbedConfig, m: usize) -> RunReport {
    use rand::SeedableRng;
    assert!(m >= 4, "global tier needs at least 4 clusters (3f+1)");
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xc1u64);
    // Per-cluster key sets plus one global set among cluster slots.
    let global_crypto = deal_node_crypto(m, cfg.suite, &mut rng);
    let mut behaviors = Vec::with_capacity(m * cfg.n);
    for (cluster, global) in global_crypto.into_iter().enumerate() {
        let local_crypto = deal_node_crypto(cfg.n, cfg.suite, &mut rng);
        for (member, c) in local_crypto.into_iter().enumerate() {
            behaviors.push(ClusterNode::new(
                cluster,
                member,
                cfg.n,
                cfg.protocol,
                cfg.workload.clone(),
                cfg.epochs,
                c,
                global.clone(),
            ));
        }
    }
    let topo = Topology::clustered(m, cfg.n);
    let mut sim = Simulator::new(sim_config(cfg), topo, behaviors);
    install_scheduler(cfg, &mut sim);
    let deadline = SimTime::ZERO + cfg.deadline;
    let completed = sim.run_until_pred(deadline, |s| s.behaviors().all(|(_, b)| b.is_done()));
    let elapsed = sim.now().saturating_since(SimTime::ZERO);
    let decision_times: Vec<Vec<SimTime>> =
        sim.behaviors().map(|(_, b)| b.decided_at.clone()).collect();
    let total_txs = sim.behavior(NodeId(0)).global_tx_total();
    finish_report(completed, elapsed, decision_times, total_txs, sim.metrics().clone(), cfg.epochs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_hop_beat_reports_sane_numbers() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.epochs = 1;
        cfg.workload.batch_size = 8;
        let report = run(&cfg);
        assert!(report.completed, "BEAT must finish");
        assert_eq!(report.epoch_latencies.len(), 1);
        assert!(report.mean_latency_s > 1.0, "LoRa consensus cannot be sub-second");
        assert!(report.mean_latency_s < 600.0);
        assert!(report.total_txs > 0);
        assert!(report.throughput_tpm > 0.0);
        assert!(report.channel_accesses_per_node > 0.0);
    }

    #[test]
    fn crash_restart_converges() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.epochs = 2;
        cfg.workload.batch_size = 8;
        cfg.crash = Some(CrashPlan {
            crashes: vec![CrashEvent {
                node: 2,
                at_us: 5_000_000,
                restart_us: 30_000_000,
            }],
        });
        let report = run(&cfg);
        assert!(report.completed, "crash-restart run must converge");
        assert_eq!(report.epoch_latencies.len(), 2);
        assert!(report.total_txs > 0);
    }

    #[test]
    fn crash_plan_beyond_f_is_rejected() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.crash = Some(CrashPlan {
            crashes: vec![
                CrashEvent { node: 0, at_us: 1, restart_us: 2 },
                CrashEvent { node: 1, at_us: 1, restart_us: 2 },
            ],
        });
        let err = validate(&cfg).unwrap_err();
        assert!(err.contains("exceed f"), "{err}");
    }

    #[test]
    fn membership_swap_commits_under_new_committee() {
        // The issue's headline scenario: node n joins and node 0 leaves
        // mid-run; the run keeps committing epochs under the new
        // committee's quorum math and every node — the leaver and the
        // joiner included — converges on the same chain.
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.epochs = 5;
        cfg.workload.batch_size = 8;
        cfg.churn = Some(ChurnPlan {
            from_epoch: 1,
            ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
        });
        let report = run(&cfg);
        assert!(report.completed, "churn run must converge");
        assert_eq!(report.epoch_latencies.len(), 5);
        assert!(report.total_txs > 0);
    }

    #[test]
    fn churn_without_activation_room_is_rejected() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        // Default epochs = 2: a change from epoch 0 activates at 2 at the
        // earliest, past the stop.
        cfg.churn = Some(ChurnPlan {
            from_epoch: 0,
            ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
        });
        let err = validate(&cfg).unwrap_err();
        assert!(err.contains("cannot activate"), "{err}");
    }

    #[test]
    fn churn_to_invalid_size_is_rejected() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.epochs = 8;
        cfg.churn = Some(ChurnPlan { from_epoch: 1, ops: vec![MembershipOp::Leave(0)] });
        let err = validate(&cfg).unwrap_err();
        assert!(err.contains("invalid committee size"), "{err}");
    }

    #[test]
    fn dumbo_churn_is_rejected() {
        let mut cfg = TestbedConfig::single_hop(Protocol::DumboSc);
        cfg.epochs = 8;
        cfg.churn = Some(ChurnPlan {
            from_epoch: 1,
            ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
        });
        let err = validate(&cfg).unwrap_err();
        assert!(err.contains("HoneyBadger-family only"), "{err}");
    }

    #[test]
    fn churn_and_crash_together_are_rejected() {
        let mut cfg = TestbedConfig::single_hop(Protocol::Beat);
        cfg.epochs = 8;
        cfg.churn = Some(ChurnPlan {
            from_epoch: 1,
            ops: vec![MembershipOp::Join(4), MembershipOp::Leave(0)],
        });
        cfg.crash = Some(CrashPlan {
            crashes: vec![CrashEvent { node: 1, at_us: 1_000, restart_us: 2_000 }],
        });
        let err = validate(&cfg).unwrap_err();
        assert!(err.contains("do not compose with crash plans"), "{err}");
    }

    #[test]
    fn service_multi_hop_is_rejected() {
        let mut cfg = TestbedConfig::multi_hop(Protocol::HoneyBadgerSc);
        cfg.service = Some(ServiceConfig::small());
        let err = validate(&cfg).unwrap_err();
        assert!(err.contains("service runs are single-hop only"), "{err}");
    }

    #[test]
    fn multi_hop_hb_sc_completes() {
        let mut cfg = TestbedConfig::multi_hop(Protocol::HoneyBadgerSc);
        cfg.epochs = 1;
        cfg.workload.batch_size = 8;
        let report = run(&cfg);
        assert!(report.completed, "multi-hop HB-SC must finish");
        // Four clusters contribute: global tx count covers all clusters.
        assert!(report.total_txs >= 4 * 8, "got {}", report.total_txs);
    }
}

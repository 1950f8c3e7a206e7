//! `udp-service`: four `run_udp_service_node` processes on loopback UDP,
//! driven by a single-threaded, single-socket open-loop client.
//!
//! Each repetition launches fresh node processes (this same binary in its
//! `node` mode), so no process starts with warm crypto memos and no memo is
//! shared across nodes. No delay is injected: commit latency is processor
//! time plus protocol round trips.

use crate::grid::sim_plane;
use crate::layers::Metrics;
use crate::sim::{replay, run_public};
use crate::stats::{cpu_seconds, host_ticks, median, peak_rss_mb, percentile, SplitMix};
use crate::trace::{span_log, Clock, TimedEngine, TimedNode};
use crate::{Args, Outcome};
use std::collections::{BTreeMap, VecDeque};
use std::io::BufRead;
use std::net::{SocketAddr, UdpSocket};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use wbft_components::deal_node_crypto;
use wbft_consensus::netrun::{run_udp_service_node, ServiceGateway, ServiceNodeOpts};
use wbft_consensus::service::{block_digests, tx_digest};
use wbft_consensus::{
    ArrivalSpec, ConsensusHandle, Engine, Protocol, ProtocolNode, ServiceConfig, ServiceReport,
    TestbedConfig,
};
use wbft_net::Datagram;
use wbft_report::Json;
use wbft_transport::{
    ClientMsg, PeerTable, SubmitVerdict, UdpRuntime, CLIENT_CHANNEL, CLIENT_SRC, SYNC_CHANNEL,
};
use wbft_wireless::ChannelId;

const N: usize = 4;
/// Nodes that must stream a transaction before it counts as committed.
const QUORUM: usize = (N - 1) / 3 + 1;
const PROTOCOL: Protocol = Protocol::HoneyBadgerSc;
/// Per-node, per-epoch mempool pull cap.
const BATCH: usize = 16;
/// Offered load: below the cluster's capacity on two cores.
const RATE_PER_S: u64 = 150;
/// Repetitions per run. Each reports its own percentiles and the run
/// reports their medians, so a burst of host interference that hits one
/// repetition does not set the run's tail.
const REPS: u32 = 3;
/// A repetition during which the hypervisor stole more than this share of
/// the host's CPU time does not count towards `REPS`: the nodes keep most
/// of both cores busy, so stolen time goes straight into commit latency.
const STEAL_LIMIT: f64 = 0.05;
/// Per-repetition time outside the offered schedule: launch, warm-up,
/// drain and the nodes' linger.
const REP_OVERHEAD: Duration = Duration::from_millis(2_500);
const TX_BYTES: usize = 32;
/// A submission with no `SubmitReply` after this long is sent again.
const REPLY_TIMEOUT: Duration = Duration::from_millis(500);
const MAX_ATTEMPTS: u32 = 4;
/// How long after the last due time commits are still awaited.
const DRAIN: Duration = Duration::from_secs(5);
/// Launch to every node answering, and warm-up until the probes commit.
const STARTUP_LIMIT: Duration = Duration::from_secs(20);
/// Hard wall-clock guard handed to every node process.
const NODE_WALL: Duration = Duration::from_secs(30);
/// How long a stopped node keeps answering its peers' retransmission
/// requests, so that peers still finishing the last epoch can finish it.
const LINGER: Duration = Duration::from_secs(2);
const MEMPOOL_CAPACITY: usize = 4_096;

fn testbed_config(seed: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::single_hop(PROTOCOL);
    cfg.n = N;
    cfg.seed = seed;
    cfg.workload.batch_size = BATCH;
    cfg
}

fn node_opts() -> ServiceNodeOpts {
    ServiceNodeOpts {
        wall: NODE_WALL,
        linger: LINGER,
        max_epochs: 1_000_000,
        mempool_capacity: MEMPOOL_CAPACITY,
        journal: None,
        late_peers: Vec::new(),
    }
}

/// The same deployment on the simulator, with the simulator's small
/// open-loop arrival schedule: the workload's simulated plane.
fn simulated_twin() -> TestbedConfig {
    let mut cfg = testbed_config(7);
    cfg.service = Some(ServiceConfig {
        arrivals: ArrivalSpec::small(),
        mempool_capacity: MEMPOOL_CAPACITY,
        max_epochs: 64,
    });
    cfg
}

// ------------------------------------------------------------------
// Node process.

fn fail(msg: &str) -> ! {
    eprintln!("perfbench node: {msg}");
    std::process::exit(3);
}

/// `node --me I --ports P0,P1,P2,P3 --seed S --trace 0|1`: runs one service
/// node and prints its outcome as one JSON line.
pub fn node_main(argv: &[String]) -> ! {
    let mut me = None;
    let mut ports: Vec<u16> = Vec::new();
    let (mut seed, mut trace) = (0u64, false);
    let mut it = argv.iter();
    while let (Some(flag), Some(value)) = (it.next(), it.next()) {
        match flag.as_str() {
            "--me" => me = value.parse::<usize>().ok(),
            "--ports" => ports = value.split(',').filter_map(|p| p.parse().ok()).collect(),
            "--seed" => seed = value.parse().unwrap_or_else(|_| fail("bad --seed")),
            "--trace" => trace = value == "1",
            _ => fail("unknown flag"),
        }
    }
    let me = me
        .filter(|&m| m < N && ports.len() == N)
        .unwrap_or_else(|| fail("bad --me/--ports"));
    let cfg = testbed_config(seed);
    let peers = PeerTable::loopback(&ports);
    let started = Instant::now();
    let mut fields = if trace {
        traced_node(&cfg, peers, me, started)
    } else {
        let out = run_udp_service_node(&cfg, peers, me, &node_opts())
            .unwrap_or_else(|e| fail(&format!("node {me}: {e}")));
        let service = out
            .report
            .service
            .clone()
            .expect("service node reports service stats");
        node_fields(started, out.report.completed, &out.block_digests, &service)
    };
    fields.push(("rss_mb".into(), Json::f64(peak_rss_mb())));
    println!("{}", Json::Obj(fields));
    std::process::exit(0);
}

/// The node's outcome; CPU and wall time are read at the call, so callers
/// make it right after the run.
fn node_fields(
    started: Instant,
    completed: bool,
    digests: &[wbft_crypto::Digest32],
    service: &ServiceReport,
) -> Vec<(String, Json)> {
    vec![
        ("completed".into(), Json::Bool(completed)),
        ("cpu_s".into(), Json::f64(cpu_seconds())),
        ("wall_s".into(), Json::f64(started.elapsed().as_secs_f64())),
        (
            "chain".into(),
            Json::arr(digests.iter().map(|d| Json::str(hex(&d.0)))),
        ),
        ("admitted".into(), Json::u64(service.admitted)),
        ("rejected_dup".into(), Json::u64(service.rejected_dup)),
        ("rejected_full".into(), Json::u64(service.rejected_full)),
        ("peak_occupancy".into(), Json::u64(service.peak_occupancy)),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `run_udp_service_node` rebuilt from its public parts with the driver
/// and engine wrapped in the timing shims; after the run the node's
/// delivered frames are replayed through the net/crypto layers.
fn traced_node(
    cfg: &TestbedConfig,
    peers: PeerTable,
    me: usize,
    started: Instant,
) -> Vec<(String, Json)> {
    use rand::SeedableRng;
    let opts = node_opts();
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xdea1);
    let crypto = deal_node_crypto(cfg.n, cfg.suite, &mut rng);
    let log = span_log(Clock::ThreadCpu, true);
    let handle = ConsensusHandle::new(opts.mempool_capacity);
    let engine = cfg.protocol.service_engine_at_depth(
        crypto[me].clone(),
        handle.clone(),
        cfg.workload.batch_size,
        opts.max_epochs,
        cfg.pipeline_depth,
    );
    let engine: Box<dyn Engine> = Box::new(TimedEngine::new(engine, log.clone()));
    let node = ProtocolNode::new(engine, crypto[me].clone(), ChannelId(0))
        .with_service(handle.clone(), Vec::new())
        .with_sync(ChannelId(SYNC_CHANNEL));
    let rng_seed = cfg.seed ^ ((me as u64) << 32) ^ 0x11d9;
    let node = TimedNode::new(node, me, log.clone());
    let mut runtime = UdpRuntime::new(peers, me as u16, node, rng_seed)
        .unwrap_or_else(|e| fail(&format!("node {me}: {e}")));
    runtime.set_client_gateway(Box::new(ServiceGateway::new(handle.clone())));
    let completed = runtime
        .run_until(opts.wall, opts.linger, |n| n.inner.is_done())
        .unwrap_or_else(|e| fail(&format!("node {me}: {e}")));
    let inner = &runtime.behavior().inner;
    let service = ServiceReport::aggregate(&[handle.stats()]);
    let mut fields = node_fields(started, completed, &block_digests(inner.blocks()), &service);
    let epochs = inner.blocks().len() as u64;
    let spans = std::mem::take(&mut *log.borrow_mut());
    let r = replay(&spans, &crypto);
    for (k, v) in [
        ("driver_s", spans.driver_ns as f64 / 1e9),
        ("engine_s", spans.engine_ns as f64 / 1e9),
        ("shim_s", spans.shim_ns as f64 / 1e9),
        ("open_s", r.open.as_secs_f64()),
        ("seal_s", r.seal.as_secs_f64()),
        ("decode_s", r.decode.as_secs_f64()),
        ("verify_s", r.verify.as_secs_f64()),
    ] {
        fields.push((k.into(), Json::f64(v)));
    }
    for (k, v) in [
        ("engine_calls", spans.engine_calls),
        ("frames_out", spans.frames_out),
        ("replayed", r.frames),
        ("distinct_r", r.distinct_r),
        ("replay_bad", r.bad),
        ("epochs", epochs),
    ] {
        fields.push((k.into(), Json::u64(v)));
    }
    fields
}

// ------------------------------------------------------------------
// Client and launcher.

struct TxState {
    body: bytes::Bytes,
    due: Instant,
    attempts: u32,
    /// Nodes that answered the submission.
    replied: [bool; N],
    /// Epoch each node streamed it in.
    seen: [Option<u64>; N],
    committed: Option<Instant>,
    probe: bool,
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    /// Share of the host's CPU time stolen by the hypervisor meanwhile.
    steal: f64,
    setup: Duration,
    wall: Duration,
    latencies_ms: Vec<f64>,
    send_lag_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    nodes: Vec<Json>,
}

struct Client {
    socket: UdpSocket,
    addrs: Vec<SocketAddr>,
    txs: Vec<TxState>,
    index: BTreeMap<[u8; 32], usize>,
    /// `(reply deadline, tx)` in send order.
    awaiting: VecDeque<(Instant, usize)>,
    committed: usize,
    streaming: [bool; N],
    failures: u64,
}

impl Client {
    fn send(&self, node: usize, msg: &ClientMsg) {
        let datagram = Datagram {
            src: CLIENT_SRC,
            channel: CLIENT_CHANNEL,
            nominal_len: 0,
            payload: msg.encode().expect("client messages fit a datagram"),
        };
        let bytes = datagram.encode().expect("client datagrams encode");
        let _ = self.socket.send_to(&bytes, self.addrs[node]);
    }

    fn add_tx(&mut self, body: bytes::Bytes, due: Instant, probe: bool) -> usize {
        let digest = tx_digest(&body).0;
        let i = self.txs.len();
        self.index.insert(digest, i);
        self.txs.push(TxState {
            body,
            due,
            attempts: 0,
            replied: [false; N],
            seen: [None; N],
            committed: None,
            probe,
        });
        i
    }

    /// Sends transaction `i` to every node that has not answered it yet.
    /// Every node gets every transaction: a HoneyBadger epoch commits only
    /// N - f of the N proposals, so a transaction held by one node alone
    /// can be left out of every epoch.
    fn submit(&mut self, i: usize, now: Instant) {
        let tx = &mut self.txs[i];
        tx.attempts += 1;
        let msg = ClientMsg::Submit {
            tx: tx.body.clone(),
        };
        for node in (0..N).filter(|&n| !self.txs[i].replied[n]) {
            self.send(node, &msg);
        }
        self.awaiting.push_back((now + REPLY_TIMEOUT, i));
    }

    /// Resends submissions that got no `SubmitReply` in time. A reply of
    /// any kind ends resubmission: commits are never resent.
    fn resubmit_unanswered(&mut self, now: Instant) {
        while let Some(&(deadline, i)) = self.awaiting.front() {
            if deadline > now {
                break;
            }
            self.awaiting.pop_front();
            let tx = &self.txs[i];
            if tx.replied.iter().any(|r| !r) && tx.attempts < MAX_ATTEMPTS {
                self.submit(i, now);
            }
        }
    }

    /// Receives for at most `wait`, handling one datagram.
    fn poll(&mut self, wait: Duration, buf: &mut [u8]) {
        let wait = wait.max(Duration::from_micros(100));
        self.socket
            .set_read_timeout(Some(wait))
            .expect("set client timeout");
        let Ok((n, from)) = self.socket.recv_from(buf) else {
            return;
        };
        let now = Instant::now();
        let Some(node) = self.addrs.iter().position(|a| *a == from) else {
            return;
        };
        let Ok(datagram) = Datagram::decode(&buf[..n]) else {
            return;
        };
        if datagram.channel != CLIENT_CHANNEL {
            return;
        }
        match ClientMsg::decode(&datagram.payload) {
            Some(ClientMsg::SubmitReply { verdict, digest }) => {
                if let Some(&i) = self.index.get(&digest) {
                    self.txs[i].replied[node] = true;
                    if verdict == SubmitVerdict::Full {
                        eprintln!("udp-service: node {node} rejected a submission (mempool full)");
                    }
                }
            }
            Some(ClientMsg::Block { epoch, digests }) => {
                self.streaming[node] = true;
                for d in digests {
                    let Some(&i) = self.index.get(&d) else {
                        eprintln!(
                            "udp-service: node {node} committed a transaction never submitted"
                        );
                        self.failures += 1;
                        continue;
                    };
                    let tx = &mut self.txs[i];
                    match tx.seen[node] {
                        Some(e) if e != epoch => {
                            eprintln!("udp-service: node {node} committed a transaction twice");
                            self.failures += 1;
                        }
                        Some(_) => {}
                        None => {
                            tx.seen[node] = Some(epoch);
                            let count = tx.seen.iter().filter(|s| s.is_some()).count();
                            if count == QUORUM {
                                tx.committed = Some(now);
                                self.committed += 1;
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Binds `N` ephemeral loopback ports and releases them for the nodes.
fn free_ports() -> Vec<u16> {
    let sockets: Vec<UdpSocket> = (0..N)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    sockets
        .iter()
        .map(|s| s.local_addr().expect("bound address").port())
        .collect()
}

/// The node processes of one repetition. Dropping it kills and reaps any
/// that are still running, so no process outlives its repetition.
struct Cluster(Vec<Child>);

impl Cluster {
    fn spawn(ports: &[u16], seed: u64, trace: bool) -> Cluster {
        let exe = std::env::current_exe().expect("own executable");
        let ports: Vec<String> = ports.iter().map(u16::to_string).collect();
        let children = (0..N)
            .map(|me| {
                Command::new(&exe)
                    .args(["node", "--me", &me.to_string(), "--ports", &ports.join(",")])
                    .args([
                        "--seed",
                        &seed.to_string(),
                        "--trace",
                        if trace { "1" } else { "0" },
                    ])
                    .stdout(Stdio::piped())
                    .spawn()
                    .expect("spawn node process")
            })
            .collect();
        Cluster(children)
    }

    /// Waits for every node to exit, killing any still running at
    /// `guard`, and parses the JSON line each printed last.
    fn collect(mut self, guard: Instant) -> Vec<Option<Json>> {
        // Readers drain the pipes while the nodes run, so a node never
        // blocks on a full pipe.
        let readers: Vec<_> = self
            .0
            .iter_mut()
            .map(|child| {
                let stdout = child.stdout.take().expect("piped stdout");
                std::thread::spawn(move || {
                    std::io::BufReader::new(stdout)
                        .lines()
                        .map_while(Result::ok)
                        .last()
                })
            })
            .collect();
        let mut ok = Vec::new();
        for child in &mut self.0 {
            let status = loop {
                match child.try_wait() {
                    Ok(Some(status)) => break Some(status),
                    Ok(None) if Instant::now() < guard => {
                        std::thread::sleep(Duration::from_millis(10))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break None;
                    }
                }
            };
            ok.push(status.is_some_and(|s| s.success()));
        }
        readers
            .into_iter()
            .zip(ok)
            .map(|(reader, ok)| {
                let line = reader.join().expect("stdout reader")?;
                ok.then(|| wbft_report::parse(&line).ok()).flatten()
            })
            .collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.0 {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

fn tx_body(rng: &mut SplitMix) -> bytes::Bytes {
    let mut body = Vec::with_capacity(TX_BYTES);
    while body.len() < TX_BYTES {
        body.extend_from_slice(&rng.next().to_le_bytes());
    }
    bytes::Bytes::from(body)
}

/// One repetition: launch, warm up, offer the open-loop schedule, drain,
/// stop, and check.
fn one_rep(rng: &mut SplitMix, txs: usize, trace: bool) -> Rep {
    let mut rep = Rep::default();
    // The client binds first, so its ephemeral port cannot be one of the
    // ports just released for the nodes.
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind client socket");
    let ports = free_ports();
    let addrs: Vec<SocketAddr> = ports
        .iter()
        .map(|p| SocketAddr::from(([127, 0, 0, 1], *p)))
        .collect();
    let launched = Instant::now();
    let cluster = Cluster::spawn(&ports, rng.next(), trace);
    let mut c = Client {
        socket,
        addrs,
        txs: Vec::new(),
        index: BTreeMap::new(),
        awaiting: VecDeque::new(),
        committed: 0,
        streaming: [false; N],
        failures: 0,
    };
    let mut buf = vec![0u8; 65_536];

    // Set-up: a probe transaction, resent every 20 ms to each node that
    // has not answered it yet; a node that answers is subscribed to.
    let probe = c.add_tx(tx_body(rng), launched, true);
    let mut subscribed = [false; N];
    let mut last_probe = launched - Duration::from_secs(1);
    while subscribed.iter().any(|s| !s) && launched.elapsed() < STARTUP_LIMIT {
        for (n, sub) in subscribed.iter_mut().enumerate() {
            if c.txs[probe].replied[n] && !*sub {
                *sub = true;
                c.send(n, &ClientMsg::Subscribe);
            }
        }
        if last_probe.elapsed() >= Duration::from_millis(20) {
            last_probe = Instant::now();
            c.submit(probe, last_probe);
            c.awaiting.clear();
        }
        c.poll(Duration::from_millis(5), &mut buf);
    }
    rep.setup = launched.elapsed();
    // Warm-up: the schedule starts once the probe has committed, so the
    // start-up barrier is not charged to the first transactions.
    let mut last_subscribe = Instant::now();
    while c.txs[probe].committed.is_none() && launched.elapsed() < STARTUP_LIMIT {
        if last_subscribe.elapsed() >= Duration::from_millis(200) {
            last_subscribe = Instant::now();
            for n in (0..N).filter(|&n| !c.streaming[n]) {
                c.send(n, &ClientMsg::Subscribe);
            }
        }
        c.poll(Duration::from_millis(5), &mut buf);
    }

    // The open loop: transaction k is due at start + k / rate, whatever
    // the cluster's progress.
    let start = Instant::now() + Duration::from_millis(10);
    let interval = Duration::from_nanos(1_000_000_000 / RATE_PER_S);
    let first = c.txs.len();
    for k in 0..txs {
        let due = start + interval * k as u32;
        c.add_tx(tx_body(rng), due, false);
    }
    let last_due = c.txs.last().map(|t| t.due).unwrap_or(start);
    let mut next = first;
    loop {
        let now = Instant::now();
        while next < c.txs.len() && c.txs[next].due <= now {
            c.submit(next, now);
            rep.send_lag_ms
                .push(now.duration_since(c.txs[next].due).as_secs_f64() * 1e3);
            next += 1;
        }
        c.resubmit_unanswered(now);
        let all_in = next == c.txs.len() && c.committed == c.txs.len();
        if all_in || now >= last_due + DRAIN {
            break;
        }
        let until_due = c
            .txs
            .get(next)
            .map(|t| t.due.saturating_duration_since(now));
        c.poll(
            until_due
                .unwrap_or(Duration::from_millis(5))
                .min(Duration::from_millis(5)),
            &mut buf,
        );
    }
    for _ in 0..3 {
        for n in 0..N {
            c.send(n, &ClientMsg::Stop);
        }
        std::thread::sleep(Duration::from_millis(30));
    }
    let nodes = cluster.collect(Instant::now() + NODE_WALL);
    rep.wall = launched.elapsed();

    for tx in c.txs.iter() {
        rep.attempted += 1;
        match tx.committed {
            Some(at) => {
                if !tx.probe {
                    rep.latencies_ms
                        .push(at.duration_since(tx.due).as_secs_f64() * 1e3);
                }
            }
            _ => rep.failed += 1,
        }
    }
    if rep.failed > 0 {
        eprintln!("udp-service: {} submissions did not commit", rep.failed);
    }
    rep.failed += c.failures;
    rep.failed += check_nodes(&nodes);
    rep.nodes = nodes.into_iter().flatten().collect();
    rep
}

/// Every node exited cleanly, and the nodes' block digest chains agree on
/// their common prefix.
fn check_nodes(nodes: &[Option<Json>]) -> u64 {
    let mut failed = 0;
    let chains: Vec<Vec<String>> = nodes
        .iter()
        .enumerate()
        .filter_map(|(i, n)| {
            let chain = n
                .as_ref()
                .and_then(|n| n.get("chain"))
                .and_then(Json::as_arr);
            let completed = n
                .as_ref()
                .and_then(|n| n.get("completed"))
                .and_then(Json::as_bool);
            if chain.is_none() || completed != Some(true) {
                eprintln!("udp-service: node {i} failed, did not stop, or printed no result");
                failed += 1;
            }
            chain.map(|c| {
                c.iter()
                    .filter_map(|d| d.as_str().map(String::from))
                    .collect()
            })
        })
        .collect();
    for (i, chain) in chains.iter().enumerate() {
        let common = chain.len().min(chains[0].len());
        if chain.is_empty() || chain[..common] != chains[0][..common] {
            eprintln!("udp-service: node chains disagree ({i} vs 0)");
            failed += 1;
        }
    }
    failed
}

fn sum(nodes: &[Json], key: &str) -> f64 {
    nodes
        .iter()
        .filter_map(|n| n.get(key).and_then(Json::as_f64))
        .sum()
}

fn max(nodes: &[Json], key: &str) -> f64 {
    nodes
        .iter()
        .filter_map(|n| n.get(key).and_then(Json::as_f64))
        .fold(0.0, f64::max)
}

/// Per-layer metrics of one traced repetition, summed over the nodes.
fn layer_metrics(rep: &Rep, untraced_cpu_s: f64) -> Metrics {
    let nodes = &rep.nodes;
    let cpu = sum(nodes, "cpu_s");
    let driver = sum(nodes, "driver_s");
    let engine = sum(nodes, "engine_s");
    let txs = rep.latencies_ms.len().max(1) as f64;
    Metrics::from([
        ("driver.self_s", driver - engine),
        ("driver.frames_out_per_tx", sum(nodes, "frames_out") / txs),
        ("engine.self_s", engine),
        (
            "engine.us_per_call",
            engine * 1e6 / sum(nodes, "engine_calls").max(1.0),
        ),
        ("net.open_s", sum(nodes, "open_s")),
        ("net.seal_s", sum(nodes, "seal_s")),
        ("crypto.point_decode_s", sum(nodes, "decode_s")),
        ("crypto.sig_verify_s", sum(nodes, "verify_s")),
        (
            "crypto.r_distinct_ratio",
            sum(nodes, "distinct_r") / sum(nodes, "replayed").max(1.0),
        ),
        ("transport.busy_s", cpu - driver - sum(nodes, "shim_s")),
        ("node.cpu_util", cpu / max(nodes, "wall_s").max(1e-9)),
        ("service.admitted", sum(nodes, "admitted")),
        ("service.rejected_dup", sum(nodes, "rejected_dup")),
        ("service.rejected_full", sum(nodes, "rejected_full")),
        ("service.peak_occupancy", max(nodes, "peak_occupancy")),
        ("service.epochs", max(nodes, "epochs")),
        ("client.send_lag_p99_ms", percentile(&rep.send_lag_ms, 0.99)),
        ("trace.overhead_ratio", cpu / untraced_cpu_s.max(1e-9)),
    ])
}

pub fn run(args: &Args) -> Outcome {
    let mut rng = SplitMix(args.seed);
    let mut out = Outcome::default();
    // The offered schedule fills the run: REPS repetitions untraced, or
    // one untraced and one traced repetition of the same length.
    let traffic = (Duration::from_secs(args.seconds) / REPS).saturating_sub(REP_OVERHEAD);
    let txs = ((traffic.as_secs_f64() * RATE_PER_S as f64) as usize).max(RATE_PER_S as usize);
    // A run adds repetitions, up to 1.5 x --seconds, until `wanted` ran
    // with little steal, and keeps the least-stolen ones.
    let deadline = Instant::now() + Duration::from_secs(args.seconds) * 3 / 2;
    let wanted = if args.trace { 1 } else { REPS as usize };
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < wanted
        || (reps.iter().filter(|r| r.steal < STEAL_LIMIT).count() < wanted
            && Instant::now() < deadline)
    {
        let (steal0, total0) = host_ticks();
        let mut rep = one_rep(&mut rng, txs, false);
        let (steal1, total1) = host_ticks();
        rep.steal =
            steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64;
        out.attempted += rep.attempted;
        out.failed += rep.failed;
        reps.push(rep);
    }
    reps.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    reps.truncate(wanted);
    if args.trace {
        let untraced_cpu = sum(&reps[0].nodes, "cpu_s");
        let traced = one_rep(&mut rng, txs, true);
        out.attempted += traced.attempted;
        out.failed += traced.failed + sum(&traced.nodes, "replay_bad") as u64;
        out.metrics = layer_metrics(&traced, untraced_cpu);
        return out;
    }
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::new();
    m.insert("wall_s", med(&|r| r.wall.as_secs_f64()));
    m.insert("setup_s", med(&|r| r.setup.as_secs_f64()));
    m.insert("peak_rss_mb", med(&|r| max(&r.nodes, "rss_mb")));
    // At --seconds 30 a repetition holds 1,125 samples, so its p99 has at
    // least ten beyond it.
    m.insert("commit_p50_ms", med(&|r| percentile(&r.latencies_ms, 0.50)));
    m.insert("commit_p99_ms", med(&|r| percentile(&r.latencies_ms, 0.99)));
    out.attempted += 1;
    match run_public(&simulated_twin()) {
        Some((s, _)) if s.completed => sim_plane(&mut m, &[&s]),
        _ => {
            eprintln!("udp-service: the simulated twin did not complete");
            out.failed += 1;
        }
    }
    out.metrics = m;
    out
}

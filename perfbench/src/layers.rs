//! Per-layer totals of the traced simulated runs, and their conversion
//! into the per-layer metrics.

use crate::sim::{Replay, Traced};
use crate::stats::median;
use std::collections::BTreeMap;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Layer totals over one traced pass of a workload's simulated runs.
#[derive(Default)]
pub struct SimLayers {
    /// Event-loop wall time minus node callbacks and shim overhead.
    pub wireless_ns: u64,
    pub events: u64,
    pub collisions: u64,
    pub bytes_on_air: u64,
    pub txs: u64,
    pub driver_self_ns: u64,
    pub frames_out: u64,
    pub engine_ns: u64,
    pub engine_calls: u64,
    pub replay: Replay,
}

impl SimLayers {
    pub fn add_run(&mut self, t: &Traced) {
        let s = &t.spans;
        let run_ns = t.run.as_nanos() as u64;
        self.wireless_ns += run_ns.saturating_sub(s.driver_ns + s.shim_ns);
        self.events += t.events;
        self.collisions += t.summary.collisions;
        self.bytes_on_air += t.summary.bytes_on_air;
        self.txs += t.summary.total_txs;
        self.driver_self_ns += s.driver_ns.saturating_sub(s.engine_ns);
        self.frames_out += s.frames_out;
        self.engine_ns += s.engine_ns;
        self.engine_calls += s.engine_calls;
    }

    pub fn metrics(&self) -> Metrics {
        let txs = self.txs.max(1) as f64;
        let r = &self.replay;
        BTreeMap::from([
            ("wireless.self_s", self.wireless_ns as f64 / 1e9),
            ("wireless.events", self.events as f64),
            ("wireless.collisions", self.collisions as f64),
            (
                "wireless.bytes_on_air_per_tx",
                self.bytes_on_air as f64 / txs,
            ),
            ("driver.self_s", self.driver_self_ns as f64 / 1e9),
            ("driver.frames_out_per_tx", self.frames_out as f64 / txs),
            ("engine.self_s", self.engine_ns as f64 / 1e9),
            (
                "engine.us_per_call",
                self.engine_ns as f64 / 1e3 / self.engine_calls.max(1) as f64,
            ),
            ("net.open_s", r.open.as_secs_f64()),
            ("net.seal_s", r.seal.as_secs_f64()),
            ("crypto.point_decode_s", r.decode.as_secs_f64()),
            ("crypto.sig_verify_s", r.verify.as_secs_f64()),
            (
                "crypto.r_distinct_ratio",
                r.distinct_r as f64 / r.frames.max(1) as f64,
            ),
        ])
    }
}

/// Key-wise median over repeated passes.
pub fn median_of(passes: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = passes.first() {
        for key in first.keys() {
            let values: Vec<f64> = passes.iter().filter_map(|m| m.get(key).copied()).collect();
            out.insert(key, median(&values));
        }
    }
    out
}

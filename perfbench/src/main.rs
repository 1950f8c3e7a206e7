//! The repository benchmark. See README.md for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <sim-grid|fuzz-campaign|udp-service> --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a header line, one line per metric, and as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when a
//! correctness check failed, 2 on bad arguments.

mod fuzz;
mod grid;
mod layers;
mod sim;
mod stats;
mod trace;
mod udp;

use layers::Metrics;
use wbft_report::Json;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// from its untraced run.
const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("sim_latency_s", "sim_s"),
    ("sim_tpm", "tx/sim_min"),
    ("channel_accesses_per_node", "count"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of them
/// from its traced run; a layer the workload does not run reads 0.
const PER_LAYER: [(&str, &str); 28] = [
    ("wireless.self_s", "s"),
    ("wireless.events", "count"),
    ("wireless.collisions", "count"),
    ("wireless.bytes_on_air_per_tx", "B/tx"),
    ("driver.self_s", "s"),
    ("driver.frames_out_per_tx", "frames/tx"),
    ("engine.self_s", "s"),
    ("engine.us_per_call", "us"),
    ("net.open_s", "s"),
    ("net.seal_s", "s"),
    ("crypto.point_decode_s", "s"),
    ("crypto.sig_verify_s", "s"),
    ("crypto.r_distinct_ratio", "ratio"),
    ("fuzz.base_case_s", "s"),
    ("fuzz.starve_case_s", "s"),
    ("fuzz.crash_case_s", "s"),
    ("fuzz.churn_case_s", "s"),
    ("fuzz.coverage_keys", "count"),
    ("fuzz.corpus", "count"),
    ("transport.busy_s", "s"),
    ("node.cpu_util", "cores"),
    ("service.admitted", "count"),
    ("service.rejected_dup", "count"),
    ("service.rejected_full", "count"),
    ("service.peak_occupancy", "count"),
    ("service.epochs", "count"),
    ("client.send_lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Command-line arguments of a benchmark run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <sim-grid|fuzz-campaign|udp-service> --seed N \
         --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and build a result was measured on.
fn header(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("workload", Json::str(args.workload.clone())),
        ("seed", Json::u64(args.seed)),
        ("seconds", Json::u64(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::u64(nproc as u64)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(command_output("rustc", &["--version"]))),
        (
            "commit",
            Json::str(command_output("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("node") {
        udp::node_main(&argv[1..]);
    }
    let args = parse_args(&argv);
    let run = match args.workload.as_str() {
        "sim-grid" => grid::run,
        "fuzz-campaign" => fuzz::run,
        "udp-service" => udp::run,
        _ => usage(),
    };
    println!("{}", Json::obj([("header", header(&args))]));
    let mut outcome = run(&args);
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in catalog {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            // Only layers a workload does not run may be absent.
            None if args.trace => 0.0,
            None => panic!("{} reported no {name}", args.workload),
        };
        // No samples (every submission failed) leaves a metric undefined.
        let value = if value.is_finite() {
            value
        } else {
            eprintln!("{name} has no value");
            outcome.failed += 1;
            0.0
        };
        println!("{name} = {value} {unit}");
        metrics.push((
            name,
            Json::obj([("value", Json::f64(value)), ("unit", Json::str(unit))]),
        ));
    }
    let correct = outcome.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::u64(outcome.attempted)),
        ("failed", Json::u64(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    std::process::exit(if correct { 0 } else { 1 });
}

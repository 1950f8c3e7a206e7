//! Crash-restart recovery battery: churn as a first-class fault axis.
//!
//! A crashed node loses every bit of volatile state — engine, driver,
//! timers, in-flight frames — and keeps only its durable block journal.
//! On restart it must (a) replay the journal into the exact committed
//! prefix it had, (b) catch up the commits it missed through the
//! anti-entropy sync channel, and (c) end byte-identical to the survivors'
//! chains. `wbft_consensus::testbed` enforces (a)–(c) with hard asserts on
//! every crash run (prefix agreement always, level chains on completion,
//! and a post-run journal replay check against the agreed chain), so these
//! tests drive whole scenarios through `run` / `run_case` and would panic
//! on any recovery bug.
//!
//! The canonical churn scenario is pinned as replayable fixtures
//! (`tests/fixtures/fuzz/crash-restart.{beat,hb-sc,dumbo-sc}.json`) that
//! `fuzz_regressions.rs` replays with the rest of the set; the encoding
//! drift guard here keeps those files coupled to the fuzzer's own
//! `crash_restart_case`.

use std::path::{Path, PathBuf};
use wbft_consensus::fuzz::{
    crash_restart_case, fixture_string, run_case, FuzzVerdict, DEFAULT_EVENT_BUDGET,
};
use wbft_consensus::{run, CrashEvent, CrashPlan, Protocol, TestbedConfig};

/// The deployments whose canonical crash-restart case is pinned as a
/// fixture: two HoneyBadger-family engines and one Dumbo engine, so both
/// lanes' restore/adopt paths replay in tier-1.
const CRASH_FIXTURE_PROTOCOLS: [Protocol; 3] =
    [Protocol::Beat, Protocol::HoneyBadgerSc, Protocol::DumboSc];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fuzz")
}

fn churn_cfg(protocol: Protocol, node: usize) -> TestbedConfig {
    let mut cfg = TestbedConfig::single_hop(protocol);
    cfg.epochs = 2;
    cfg.workload.batch_size = 8;
    cfg.crash = Some(CrashPlan {
        crashes: vec![CrashEvent { node, at_us: 5_000_000, restart_us: 30_000_000 }],
    });
    cfg
}

#[test]
fn restarted_node_recovers_journal_and_converges() {
    // run() asserts prefix agreement for every honest node, level chains
    // on completion, and that the crashed node's durable journal replays
    // to the agreed chain — completing at all means recovery worked.
    let report = run(&churn_cfg(Protocol::Beat, 2));
    assert!(report.completed, "crash-restart run must converge");
    assert_eq!(report.epoch_latencies.len(), 2);
    assert!(report.total_txs > 0);
}

#[test]
fn churn_tolerates_a_concurrent_byzantine_free_axis_mix() {
    // The crash axis composes with loss: recovery must not depend on a
    // clean channel. (Byzantine + crash together would exceed f at n = 4
    // and is rejected by validation — see the unit battery.)
    let mut cfg = churn_cfg(Protocol::HoneyBadgerSc, 1);
    cfg.loss = wbft_wireless::LossModel::Uniform { p: 0.05 };
    let report = run(&cfg);
    assert!(report.completed, "churn under loss must still converge");
}

#[test]
fn crash_case_is_deterministic_across_replays() {
    for p in CRASH_FIXTURE_PROTOCOLS {
        let case = crash_restart_case(p, DEFAULT_EVENT_BUDGET);
        let a = run_case(&case);
        let b = run_case(&case);
        assert_eq!(a, b, "{}: crash replay diverged", case.label);
        assert_eq!(a.verdict, FuzzVerdict::Ok, "{}: events={}", case.label, a.events);
        assert_eq!(a.blocks, 2, "{}: both epochs must commit", case.label);
    }
}

#[test]
fn crash_fixtures_match_the_canonical_encoding() {
    // The committed files are exactly what `fixture_string` produces for
    // the canonical crash-restart cases, so encoder drift (which would
    // silently decouple the fixtures from the fuzzer) fails loudly. The
    // replay itself happens in fuzz_regressions.rs with the full set.
    for p in CRASH_FIXTURE_PROTOCOLS {
        let case = crash_restart_case(p, DEFAULT_EVENT_BUDGET);
        let disk =
            std::fs::read_to_string(fixture_dir().join(format!("{}.json", case.label))).unwrap();
        assert_eq!(fixture_string(&case, FuzzVerdict::Ok), disk, "{} drifted", case.label);
        assert!(disk.contains("\"crash\""), "{}: plan must be encoded", case.label);
    }
}

/// Regenerates the pinned crash fixtures. Run explicitly after an
/// intentional encoding change:
/// `cargo test --test crash_recovery regen_crash_fixtures -- --ignored`
#[test]
#[ignore]
fn regen_crash_fixtures() {
    for p in CRASH_FIXTURE_PROTOCOLS {
        let case = crash_restart_case(p, DEFAULT_EVENT_BUDGET);
        let path = fixture_dir().join(format!("{}.json", case.label));
        std::fs::write(&path, fixture_string(&case, FuzzVerdict::Ok)).unwrap();
        println!("wrote {}", path.display());
    }
}

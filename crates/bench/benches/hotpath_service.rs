//! Hotpath service microbench — the mempool and wire-codec counterpart of
//! `hotpath_crypto`.
//!
//! Times the per-transaction costs on the client-facing service path:
//! mempool admission (fresh, duplicate-reject, full-reject), the
//! pull/commit cycle, the client-channel codec, datagram framing, and
//! envelope seal/open (the per-packet consensus cost every submission
//! ultimately pays n² times). Prints the table and writes a JSON report to
//! `target/reports/hotpath/` so CI tracks the numbers across PRs.
//!
//! Envelope open is timed warm (one envelope re-opened) and cold (distinct
//! envelopes, each opened once on a fresh thread), with a key's comb-table
//! build as its own row. Reseal times the retransmission of an unchanged
//! packet: encoding it and finding the previous frame still valid.
//!
//! Acceptance gates are deliberately loose (shared runners are noisy):
//! admission must stay under 50µs/tx, the codecs under 100µs/op and a cold
//! envelope open under 25µs.

use rand::SeedableRng;
use std::time::Instant;
use wbft_bench::{banner, report_dir, row, write_json};
use wbft_consensus::service::Mempool;
use wbft_consensus::Block;
use wbft_crypto::CryptoSuite;
use wbft_net::{Body, Envelope, Sizing};
use wbft_report::Json;
use wbft_transport::ClientMsg;
use wbft_wireless::SimTime;

/// Mean microseconds per call over `reps` calls (one warmup call first).
fn time_us<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn tx_of(tag: u64) -> bytes::Bytes {
    let mut v = vec![0u8; 64];
    v[..8].copy_from_slice(&tag.to_le_bytes());
    bytes::Bytes::from(v)
}

fn main() {
    let reps: u32 = std::env::var("WBFT_HOTPATH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);

    // ------------------------------------------------------------ mempool
    banner(
        "Hotpath 1 — mempool admission and commit cycle (µs/tx)",
        "bounded digest-dedup FIFO pool, 64-byte transactions",
    );
    // Fresh admissions into a large pool (each rep admits a new tx).
    let mut pool = Mempool::new(1 << 20);
    let mut tag = 0u64;
    let admit_us = time_us(reps, || {
        tag += 1;
        pool.admit(tx_of(tag), SimTime::from_micros(tag))
    });
    // Duplicate rejects (same tx every time, pool already holds it).
    let dup = tx_of(1);
    let dup_reject_us = time_us(reps, || pool.admit(dup.clone(), SimTime::ZERO));
    // Full rejects against a saturated 1-slot pool.
    let mut tiny = Mempool::new(1);
    tiny.admit(tx_of(1), SimTime::ZERO);
    let mut tag2 = 1_000_000u64;
    let full_reject_us = time_us(reps, || {
        tag2 += 1;
        tiny.admit(tx_of(tag2), SimTime::ZERO)
    });
    // The full service cycle: admit a 16-tx wave, pull it, commit it.
    let mut cycle_pool = Mempool::new(1 << 20);
    let mut epoch = 0u64;
    let mut base = 2_000_000u64;
    let cycle_us = time_us(reps, || {
        for i in 0..16 {
            cycle_pool.admit(tx_of(base + i), SimTime::from_micros(base));
        }
        let batch = cycle_pool.next_batch(epoch, 16);
        cycle_pool.record_commit(
            &Block { epoch, txs: batch },
            SimTime::from_micros(base + 50),
        );
        epoch += 1;
        base += 16;
    }) / 16.0;
    println!("  admit (fresh)       {admit_us:9.2}");
    println!("  admit (dup reject)  {dup_reject_us:9.2}");
    println!("  admit (full reject) {full_reject_us:9.2}");
    println!("  pull+commit cycle   {cycle_us:9.2}  (per tx, 16-tx epochs)");

    // ------------------------------------------------------------- codecs
    banner(
        "Hotpath 2 — wire encode/decode (µs/op)",
        "client channel, datagram framing, and sealed consensus envelopes",
    );
    let widths = [22usize, 10, 10];
    println!("{}", row(&["codec".into(), "encode".into(), "decode".into()], &widths));

    let submit = ClientMsg::Submit { tx: tx_of(77) };
    let submit_bytes = submit.encode().expect("fits");
    let client_enc_us = time_us(reps, || submit.encode().expect("fits"));
    let client_dec_us = time_us(reps, || ClientMsg::decode(&submit_bytes).expect("valid"));
    println!(
        "{}",
        row(
            &[
                "client submit".into(),
                format!("{client_enc_us:.2}"),
                format!("{client_dec_us:.2}")
            ],
            &widths
        )
    );

    let datagram = wbft_net::datagram::Datagram {
        src: 2,
        channel: 0,
        nominal_len: 200,
        payload: submit_bytes.clone(),
    };
    let datagram_bytes = datagram.encode().expect("fits");
    let dgram_enc_us = time_us(reps, || datagram.encode().expect("fits"));
    let dgram_dec_us =
        time_us(reps, || wbft_net::datagram::Datagram::decode(&datagram_bytes).expect("valid"));
    println!(
        "{}",
        row(
            &["datagram".into(), format!("{dgram_enc_us:.2}"), format!("{dgram_dec_us:.2}")],
            &widths
        )
    );

    // Envelope seal/open: the real per-packet cost (ECDSA-class sign and
    // verify over the body) every proposal, vote and share pays.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5e41);
    let crypto = wbft_components::deal_node_crypto(4, CryptoSuite::light(), &mut rng).remove(0);
    let sizing = Sizing { n: 4, suite: crypto.suite };
    let env = Envelope {
        src: 0,
        session: 16,
        body: Body::RbcEchoReady {
            roots: vec![wbft_crypto::Digest32([0; 32]); 4],
            echo: wbft_net::Bitmap::new(4),
            ready: wbft_net::Bitmap::new(4),
            echo_nack: wbft_net::Bitmap::new(4),
            ready_nack: wbft_net::Bitmap::new(4),
            init_nack: wbft_net::Bitmap::new(4),
        },
    };
    let (sealed, _) = env.seal(&crypto.keypair, &sizing).expect("seals");
    let seal_us = time_us(reps, || env.seal(&crypto.keypair, &sizing).expect("seals"));
    let reseal_us = time_us(reps, || {
        env.reseal_tagged(&crypto.keypair, &sizing, 0, Some(&sealed)).expect("seals")
    });
    let peer_keys = crypto.peer_keys.clone();
    let open = |bytes: &[u8]| {
        let (_, sig_ok) =
            Envelope::open(bytes, |src| peer_keys.get(src as usize).copied()).expect("opens");
        assert!(sig_ok, "a sealed envelope failed to verify");
    };
    // Warm: the same envelope over and over, as a retransmission would be.
    let open_warm_us = time_us(reps, || open(&sealed));
    // Cold: `reps` distinct envelopes (distinct sessions, so distinct
    // signature commitments), each opened once on a thread whose memos
    // start empty — the cost of real traffic. The sender's key table is
    // built by one untimed open first; its cost is the row below.
    let fresh: Vec<_> = (0..=reps as u64)
        .map(|i| {
            let env = Envelope { session: 1_000 + i, ..env.clone() };
            env.seal(&crypto.keypair, &sizing).expect("seals").0
        })
        .collect();
    let open_cold_us = std::thread::scope(|s| {
        s.spawn(|| {
            open(&fresh[0]);
            let t0 = Instant::now();
            for bytes in &fresh[1..] {
                open(bytes);
            }
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .join()
        .expect("cold open thread")
    });
    // First contact with a key: building its comb table.
    let key_point = wbft_crypto::GroupElem::from_exponent(&wbft_crypto::Scalar::from_u64(0x5e41));
    let table_build_us = time_us(reps, || wbft_crypto::group::CombTable::new(&key_point));
    for (name, seal, open) in [
        ("envelope (warm open)", format!("{seal_us:.2}"), format!("{open_warm_us:.2}")),
        ("envelope (reseal)", format!("{reseal_us:.2}"), "-".into()),
        ("envelope (cold open)", "-".into(), format!("{open_cold_us:.2}")),
        ("key table build", "-".into(), format!("{table_build_us:.2}")),
    ] {
        println!("{}", row(&[name.into(), seal, open], &widths));
    }

    // ------------------------------------------------------------- report
    let report = Json::obj([
        ("kind", Json::str("hotpath-service")),
        ("reps", Json::u64(reps as u64)),
        (
            "mempool",
            Json::obj([
                ("admit_us", Json::f64(admit_us)),
                ("dup_reject_us", Json::f64(dup_reject_us)),
                ("full_reject_us", Json::f64(full_reject_us)),
                ("cycle_per_tx_us", Json::f64(cycle_us)),
            ]),
        ),
        (
            "wire",
            Json::obj([
                ("client_encode_us", Json::f64(client_enc_us)),
                ("client_decode_us", Json::f64(client_dec_us)),
                ("datagram_encode_us", Json::f64(dgram_enc_us)),
                ("datagram_decode_us", Json::f64(dgram_dec_us)),
                ("envelope_seal_us", Json::f64(seal_us)),
                ("envelope_reseal_us", Json::f64(reseal_us)),
                ("envelope_open_warm_us", Json::f64(open_warm_us)),
                ("envelope_open_cold_us", Json::f64(open_cold_us)),
                ("schnorr_table_build_us", Json::f64(table_build_us)),
            ]),
        ),
    ]);
    let path = report_dir("hotpath").join("hotpath_service.json");
    write_json(&path, &report);
    println!("\nreport: {}", path.display());

    // Loose floors; the JSON above tracks the real trajectory.
    for (name, us, floor) in [
        ("mempool admit", admit_us, 50.0),
        ("dup reject", dup_reject_us, 50.0),
        ("full reject", full_reject_us, 50.0),
        ("cycle per tx", cycle_us, 50.0),
        ("client encode", client_enc_us, 100.0),
        ("client decode", client_dec_us, 100.0),
        ("datagram encode", dgram_enc_us, 100.0),
        ("datagram decode", dgram_dec_us, 100.0),
        ("envelope cold open", open_cold_us, 25.0),
    ] {
        assert!(us < floor, "{name} regressed to {us:.1}µs (floor {floor}µs)");
    }
    println!(
        "[hotpath_service] OK (admit {admit_us:.2}µs/tx, seal {seal_us:.1}µs, \
         cold open {open_cold_us:.1}µs)"
    );
}

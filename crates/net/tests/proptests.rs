//! Property-based tests for the wire layer: arbitrary packets roundtrip,
//! nominal sizes are consistent, bitmaps behave like sets of bits.

use bytes::Bytes;
use proptest::prelude::*;
use wbft_crypto::hash::Digest32;
use wbft_net::packets::{AbaLcInst, AbaScInst};
use wbft_net::wire::{ByteSink, CountSink, Sizing, WireReader};
use wbft_net::{BinValues, Bitmap, Body, CoinFlavor, Envelope, Vote};

fn arb_vote() -> impl Strategy<Value = Vote> {
    (0u8..4).prop_map(Vote::from_code)
}

fn arb_bitmap(len: usize) -> impl Strategy<Value = Bitmap> {
    any::<u64>().prop_map(move |raw| Bitmap::from_raw(raw, len))
}

fn arb_digest() -> impl Strategy<Value = Digest32> {
    any::<[u8; 32]>().prop_map(Digest32)
}

fn arb_body() -> impl Strategy<Value = Body> {
    let n = 4usize;
    prop_oneof![
        // RBC INIT with arbitrary fragment payloads.
        (any::<u8>(), 0u8..4, 1u8..5, arb_digest(), any::<Vec<u8>>(), arb_bitmap(n)).prop_map(
            |(instance, frag, frag_total, root, data, init_nack)| Body::RbcInit {
                instance,
                frag: frag % frag_total,
                frag_total,
                root,
                data: Bytes::from(data),
                init_nack,
            }
        ),
        // Batched ER packets.
        (
            proptest::collection::vec(arb_digest(), n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n)
        )
            .prop_map(|(roots, echo, ready, echo_nack, ready_nack, init_nack)| {
                Body::RbcEchoReady { roots, echo, ready, echo_nack, ready_nack, init_nack }
            }),
        // RBC-small vote packets.
        (
            proptest::collection::vec(arb_vote(), n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n),
            arb_bitmap(n)
        )
            .prop_map(|(values, echo, ready, init_nack, echo_nack, ready_nack)| {
                Body::RbcSmall { values, echo, ready, init_nack, echo_nack, ready_nack }
            }),
        // Bracha-ABA report lattices.
        (
            any::<u8>(),
            any::<u16>(),
            proptest::collection::vec(arb_vote(), n),
            proptest::collection::vec(arb_vote(), n),
            proptest::collection::vec(arb_vote(), n),
            arb_vote()
        )
            .prop_map(|(instance, round, p1, p2, p3, decided)| Body::AbaLc {
                insts: vec![AbaLcInst { instance, round, reports: [p1, p2, p3], decided }],
            }),
        // Shared-coin ABA vote packets (no coin shares — covered by unit
        // tests with real group elements).
        (any::<u8>(), any::<u16>(), 0u8..4, arb_vote(), arb_vote(), arb_bitmap(n)).prop_map(
            |(instance, round, bval, aux, decided, share_nack)| Body::AbaSc {
                flavor: CoinFlavor::ThreshSig,
                insts: vec![AbaScInst {
                    instance,
                    round,
                    bval: BinValues::from_code(bval),
                    aux,
                    decided,
                }],
                coin_shares: vec![],
                share_nack,
            }
        ),
        // Baseline votes.
        (any::<u8>(), any::<u16>(), any::<bool>()).prop_map(|(i, r, v)| Body::BaseAbaBval {
            instance: i,
            round: r,
            value: v
        }),
        (any::<u8>(), any::<u16>(), 0u8..3, any::<u8>(), arb_vote()).prop_map(
            |(instance, round, phase, voter, value)| Body::BaseAbaLcReport {
                instance,
                round,
                phase,
                voter,
                value
            }
        ),
        (any::<u64>(), any::<u16>(), arb_digest()).prop_map(|(epoch, accused, digest)| {
            Body::Complaint { epoch, accused, digest }
        }),
        (any::<u64>(), arb_digest(), any::<u32>()).prop_map(|(epoch, digest, tx_count)| {
            Body::GlobalDecision { epoch, digest, tx_count }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bodies_roundtrip(body in arb_body()) {
        let mut sink = ByteSink::new();
        body.encode_into(&mut sink).expect("encode");
        let bytes = sink.into_bytes();
        let mut reader = WireReader::new(&bytes);
        let decoded = Body::decode(&mut reader).expect("decode");
        prop_assert_eq!(decoded, body);
        prop_assert_eq!(reader.remaining(), 0);
    }

    #[test]
    fn nominal_length_is_positive_and_stable(body in arb_body()) {
        let sizing = Sizing::light(4);
        let mut a = CountSink::new(sizing);
        body.encode_into(&mut a).expect("count encode");
        let mut b = CountSink::new(sizing);
        body.encode_into(&mut b).expect("count encode");
        prop_assert_eq!(a.total(), b.total());
        prop_assert!(a.total() > 0);
    }

    #[test]
    fn slot_keys_are_stable_and_kind_distinct(body in arb_body()) {
        prop_assert_eq!(body.slot_key(), body.slot_key());
        // Slot keys embed the packet kind in the high bits, so two bodies of
        // different variants never collide.
        let other = Body::Complaint {
            epoch: 0,
            accused: 0,
            digest: Digest32::zero(),
        };
        if std::mem::discriminant(&body) != std::mem::discriminant(&other) {
            prop_assert_ne!(body.slot_key() >> 48, other.slot_key() >> 48);
        }
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut reader = WireReader::new(&bytes);
        let _ = Body::decode(&mut reader); // must return Err, not panic
    }

    #[test]
    fn bitmap_set_get_consistency(raw in any::<u64>(), len in 1usize..=64) {
        let b = Bitmap::from_raw(raw, len);
        let count = (0..len).filter(|&i| b.get(i)).count();
        prop_assert_eq!(count, b.count());
        let mut rebuilt = Bitmap::new(len);
        for i in b.iter_set() {
            rebuilt.set(i, true);
        }
        prop_assert_eq!(rebuilt, b);
    }

    #[test]
    fn bitmap_union_is_commutative(a in any::<u64>(), b in any::<u64>(), len in 1usize..=64) {
        let x = Bitmap::from_raw(a, len);
        let y = Bitmap::from_raw(b, len);
        prop_assert_eq!(x.union(&y), y.union(&x));
        prop_assert!(x.union(&y).count() >= x.count().max(y.count()));
    }
}

fn keypair(seed: u64) -> wbft_crypto::schnorr::KeyPair {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    wbft_crypto::schnorr::KeyPair::generate(wbft_crypto::EcdsaCurve::Secp160r1, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Resealing reuses the previous frame exactly when nothing signed
    /// changed, and otherwise signs afresh: either way the result is the
    /// frame `seal_tagged` produces.
    #[test]
    fn reseal_reuses_only_an_unchanged_frame(
        body in arb_body(),
        other in arb_body(),
        session in any::<u64>(),
        tag in 0u64..3,
        seed in any::<u64>(),
    ) {
        let sizing = Sizing::light(4);
        let (kp, other_kp) = (keypair(seed), keypair(seed ^ 1));
        let env = Envelope { src: 1, session, body };
        let prev = env.seal_tagged(&kp, &sizing, tag).expect("seals");
        let again = env.reseal_tagged(&kp, &sizing, tag, Some(&prev.0)).expect("seals");
        prop_assert_eq!(&again, &prev);
        let changed = [
            (Envelope { session: session ^ 1, ..env.clone() }, tag, &kp),
            (Envelope { src: 2, ..env.clone() }, tag, &kp),
            (Envelope { body: other, ..env.clone() }, tag, &kp),
            (env.clone(), tag + 1, &kp),
            // Another signer sealing changed content. `prev` under another
            // key with the content unchanged is outside the contract.
            (Envelope { session: session ^ 1, ..env.clone() }, tag, &other_kp),
        ];
        for (e, t, signer) in changed {
            let fresh = e.seal_tagged(signer, &sizing, t).expect("seals");
            let resealed = e.reseal_tagged(signer, &sizing, t, Some(&prev.0)).expect("seals");
            prop_assert_eq!(resealed, fresh);
        }
    }
}

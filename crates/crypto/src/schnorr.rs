//! Per-packet digital signatures (the `Signature` field every
//! ConsensusBatcher packet carries — paper §IV-B1).
//!
//! Deterministic Schnorr over the prime-order group: `R = g^k`,
//! `e = H(R ‖ pk ‖ m)`, `z = k + e·x`. This is a real signature (its
//! security reduces to discrete log in the simulation group; the group
//! itself is undersized for production use, which is fine for a testbed),
//! unlike the threshold module. The *charged* cost and wire size come from
//! the selected micro-ecc curve profile.
//!
//! ## Verification
//!
//! [`PublicKey::verify_encoded`] works on the received bytes of `R`: it
//! hashes them as they arrived, `e = H(r_bytes ‖ pk ‖ m)`, recomputes
//! `R' = g^z · pk^(q−e)` and accepts iff `R'`'s canonical encoding equals
//! `r_bytes`. That is the textbook `g^z == R · pk^e` for a canonical `R`,
//! without decoding `R` (no subgroup check): `R'` is always a canonical
//! subgroup element, so a non-member or non-canonical `r_bytes` can never
//! match. `z` must be canonical too (`z < q`): the wire decoder uses
//! [`Scalar::from_canonical_bytes`]. With both encodings strict, a
//! signature has exactly one accepted byte form.
//!
//! `g^z` comes from the process-wide generator table; `pk^(q−e)` from a
//! per-key [`CombTable`], built on a key's first verify and kept in a
//! bounded thread-local map.

use crate::field::Scalar;
use crate::group::{CombTable, GroupElem};
use crate::hash::hash_to_scalar;
use crate::profile::EcdsaCurve;
use rand::RngCore;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// A signing keypair for one node.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct KeyPair {
    sk: Scalar,
    pk: GroupElem,
    curve: EcdsaCurve,
}

/// A public verification key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PublicKey {
    point: GroupElem,
    curve: EcdsaCurve,
}

/// A Schnorr signature `(R, z)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Signature {
    /// Commitment `g^k`.
    pub r: GroupElem,
    /// Response `k + e·x`.
    pub z: Scalar,
}

/// Error returned when a signature fails verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidSignature;

impl core::fmt::Display for InvalidSignature {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid packet signature")
    }
}

impl std::error::Error for InvalidSignature {}

impl KeyPair {
    /// Generates a keypair; `curve` selects the cost/size profile charged
    /// for its operations.
    pub fn generate(curve: EcdsaCurve, rng: &mut impl RngCore) -> Self {
        let sk = Scalar::random(rng);
        let pk = GroupElem::from_exponent(&sk);
        KeyPair { sk, pk, curve }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        PublicKey { point: self.pk, curve: self.curve }
    }

    /// Signs a message (deterministic nonce, RFC-6979 style).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let k = hash_to_scalar("wbft/schnorr/nonce", &[&self.sk.to_bytes(), msg]);
        let r = GroupElem::from_exponent(&k);
        let e = challenge(&r.to_bytes(), &self.pk.to_bytes(), msg);
        let z = k.add(&e.mul(&self.sk));
        Signature { r, z }
    }

    /// The curve profile this keypair charges.
    pub fn curve(&self) -> EcdsaCurve {
        self.curve
    }
}

impl PublicKey {
    /// Verifies `sig` over `msg`: [`Self::verify_encoded`] on the canonical
    /// encoding of `sig.r`.
    ///
    /// # Errors
    ///
    /// [`InvalidSignature`] on mismatch.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), InvalidSignature> {
        self.verify_encoded(msg, &sig.r.to_bytes(), &sig.z)
    }

    /// Verifies a signature given as the received bytes of `R` and the
    /// response `z`, by recomputing `R` (see the module docs).
    ///
    /// # Errors
    ///
    /// [`InvalidSignature`] unless `g^z · pk^(q−e)` encodes to `r_bytes`.
    pub fn verify_encoded(
        &self,
        msg: &[u8],
        r_bytes: &[u8; 32],
        z: &Scalar,
    ) -> Result<(), InvalidSignature> {
        let pk_bytes = self.point.to_bytes();
        let e = challenge(r_bytes, &pk_bytes, msg);
        let pk_neg_e = KEY_TABLES.with(|tables| {
            let mut tables = tables.borrow_mut();
            if tables.len() >= KEY_TABLES_CAP && !tables.contains_key(&pk_bytes) {
                tables.clear();
            }
            tables.entry(pk_bytes).or_insert_with(|| CombTable::new(&self.point)).pow(&e.neg())
        });
        if GroupElem::from_exponent(z).mul(&pk_neg_e).to_bytes() == *r_bytes {
            Ok(())
        } else {
            Err(InvalidSignature)
        }
    }

    /// The wire size charged for signatures under this key.
    pub fn signature_wire_bytes(&self) -> usize {
        self.curve.profile().signature_bytes
    }
}

thread_local! {
    /// Comb tables of the keys this thread verifies against, keyed by the
    /// key's encoding. Entries are pure functions of the key, so per-thread
    /// maps never affect determinism; thread-local storage keeps the
    /// parallel sweep executor's workers off a shared lock. Cleared
    /// wholesale when full.
    static KEY_TABLES: RefCell<BTreeMap<[u8; 32], CombTable>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Max keys holding a table per thread (8 KiB each). A 4×4 multi-hop run
/// verifies against 20 keys.
const KEY_TABLES_CAP: usize = 32;

fn challenge(r: &[u8; 32], pk: &[u8; 32], msg: &[u8]) -> Scalar {
    hash_to_scalar("wbft/schnorr/e", &[r, pk, msg])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn keypair() -> KeyPair {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let sig = kp.sign(b"packet bytes");
        kp.public().verify(b"packet bytes", &sig).unwrap();
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = keypair();
        let sig = kp.sign(b"m1");
        assert_eq!(kp.public().verify(b"m2", &sig), Err(InvalidSignature));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let kp1 = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
        let kp2 = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
        let sig = kp1.sign(b"m");
        assert_eq!(kp2.public().verify(b"m", &sig), Err(InvalidSignature));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = keypair();
        let mut sig = kp.sign(b"m");
        sig.z = sig.z.add(&Scalar::ONE);
        assert_eq!(kp.public().verify(b"m", &sig), Err(InvalidSignature));
    }

    /// The textbook equation on a decoded `R`: `g^z == R · pk^e`.
    fn textbook_verify(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
        let e = challenge(&sig.r.to_bytes(), &pk.point.to_bytes(), msg);
        GroupElem::from_exponent(&sig.z) == sig.r.mul(&pk.point.pow(&e))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn byte_path_accepts_exactly_the_textbook_equation(
            seed in proptest::prelude::any::<u64>(),
            msg in proptest::prelude::any::<Vec<u8>>(),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let kp = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
            let other = KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng);
            let sig = kp.sign(&msg);
            let mut tampered_msg = msg.clone();
            tampered_msg.push(1);
            let random_r = GroupElem::from_exponent(&Scalar::random(&mut rng));
            let cases = [
                (kp.public(), msg.clone(), sig, true),
                (kp.public(), tampered_msg, sig, false),
                (other.public(), msg.clone(), sig, false),
                (kp.public(), msg.clone(), Signature { r: random_r, ..sig }, false),
                (kp.public(), msg.clone(), Signature { z: sig.z.add(&Scalar::ONE), ..sig }, false),
            ];
            for (pk, m, s, valid) in cases {
                proptest::prop_assert_eq!(textbook_verify(&pk, &m, &s), valid);
                proptest::prop_assert_eq!(pk.verify(&m, &s).is_ok(), valid);
            }
        }
    }

    #[test]
    fn non_member_r_rejected() {
        use crate::field::Fe;
        use rand::RngCore;
        let kp = keypair();
        let sig = kp.sign(b"m");
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut non_members = 0;
        while non_members < 8 {
            let mut r_bytes = [0u8; 32];
            rng.fill_bytes(&mut r_bytes);
            let fe = Fe::from_bytes_reduced(&r_bytes);
            if fe.to_bytes() == r_bytes && !fe.is_in_subgroup() {
                non_members += 1;
                let verdict = kp.public().verify_encoded(b"m", &r_bytes, &sig.z);
                assert_eq!(verdict, Err(InvalidSignature));
            }
        }
        kp.public().verify_encoded(b"m", &sig.r.to_bytes(), &sig.z).unwrap();
    }

    #[test]
    fn key_tables_stay_correct_across_evictions() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let keys: Vec<KeyPair> = (0..3 * KEY_TABLES_CAP)
            .map(|_| KeyPair::generate(EcdsaCurve::Secp160r1, &mut rng))
            .collect();
        let sigs: Vec<Signature> = keys.iter().map(|k| k.sign(b"round robin")).collect();
        for _ in 0..2 {
            for (i, kp) in keys.iter().enumerate() {
                kp.public().verify(b"round robin", &sigs[i]).unwrap();
                let neighbour = &sigs[(i + 1) % keys.len()];
                assert_eq!(kp.public().verify(b"round robin", neighbour), Err(InvalidSignature));
                assert!(KEY_TABLES.with(|t| t.borrow().len()) <= KEY_TABLES_CAP);
            }
        }
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = keypair();
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
        assert_ne!(kp.sign(b"m"), kp.sign(b"n"));
    }

    #[test]
    fn wire_bytes_follow_curve_profile() {
        let kp = keypair();
        assert_eq!(kp.public().signature_wire_bytes(), 40);
    }
}

//! Wireless HoneyBadgerBFT (and BEAT) — paper §V-A, Fig. 7a.
//!
//! Per epoch: every node threshold-encrypts its transaction batch and
//! proposes it through one of N batched RBC instances; once `2f+1` RBC
//! instances deliver, the node inputs 1 to the ABAs of the delivered
//! instances and 0 to the rest, starting **all ABA instances
//! simultaneously** — the paper's liveness rule that stops Byzantine nodes
//! from learning the (shared) round coin before the votes are bound. The
//! union of proposals whose ABA decided 1 forms the epoch set; nodes then
//! exchange threshold-decryption shares (batched into one packet per
//! channel access) and commit the decrypted union as the block.
//!
//! This module is one such epoch, [`HbLane`], run under the shared
//! [`EpochPipeline`] shell. The lane is generic over the broadcast and
//! agreement deployments, so the same code yields HoneyBadgerBFT-LC / -SC,
//! BEAT (coin-flipping ABA), and the unbatched `*-baseline` variants.

use crate::driver::{sessions, Block, EngineOut, Tx};
use crate::pipeline::{extend_unique, Committee, EpochLane, EpochPipeline};
use crate::service::StopCondition;
use crate::workload::{decode_batch, encode_batch, BatchSource};
#[cfg(test)]
use crate::workload::Workload;
use bytes::Bytes;
use rand_chacha::ChaCha12Rng;
use wbft_components::aba_lc::AbaLcBatch;
use wbft_components::aba_sc::AbaScBatch;
use wbft_components::baseline::{BaselineAbaSet, BaselineRbcSet};
use wbft_components::rbc::RbcBatch;
use wbft_components::{Actions, BinaryAgreement, Broadcaster, NodeCrypto, Params};
use wbft_crypto::thresh_enc::{Ciphertext, DecShare};
use wbft_crypto::GroupElem;
use wbft_net::{Bitmap, Body, CoinFlavor, RetransmitPolicy};

const TIMER_DEC_RETX: u32 = 0;

// ------------------------------------------------------------------
// Ciphertext wire helpers (no binary serde in the dependency set).

/// Encodes a threshold ciphertext into proposal bytes.
pub fn encode_ciphertext(ct: &Ciphertext) -> Bytes {
    let mut out = Vec::with_capacity(ct.wire_len());
    out.extend_from_slice(&ct.u.to_bytes());
    out.extend_from_slice(ct.tag.as_bytes());
    out.extend_from_slice(&ct.body);
    Bytes::from(out)
}

/// Decodes proposal bytes back into a ciphertext (`None` = malformed).
pub fn decode_ciphertext(data: &[u8]) -> Option<Ciphertext> {
    if data.len() < 64 {
        return None;
    }
    let u_bytes: [u8; 32] = data[..32].try_into().ok()?;
    let u = GroupElem::from_bytes(&u_bytes).ok()?;
    let tag = wbft_crypto::Digest32(data[32..64].try_into().ok()?);
    Some(Ciphertext { u, tag, body: data[64..].to_vec() })
}

/// The decryption-label of a proposer's epoch ciphertext.
fn ct_label(epoch: u64, proposer: usize) -> Vec<u8> {
    let mut l = Vec::with_capacity(24);
    l.extend_from_slice(b"wbft/hb/ct");
    l.extend_from_slice(&epoch.to_le_bytes());
    l.extend_from_slice(&(proposer as u64).to_le_bytes());
    l
}

// ------------------------------------------------------------------
// Decryption stage.

/// Collects and serves threshold-decryption shares for the epoch's accepted
/// ciphertexts. Batched mode ships one [`Body::DecShareBatch`] per channel
/// access; baseline mode one [`Body::BaseDecShare`] per proposer.
#[derive(Debug)]
struct DecStage {
    p: Params,
    epoch: u64,
    batched: bool,
    cts: Vec<Option<Ciphertext>>,
    active: Vec<bool>,
    my_sent: Vec<bool>,
    /// This node's own share per proposer, cached so retransmission-heavy
    /// flushes don't recompute the DLEQ proof every packet build.
    my_shares: Vec<Option<DecShare>>,
    shares: Vec<Vec<DecShare>>,
    reporters: Vec<u64>,
    plaintexts: Vec<Option<Vec<u8>>>,
    dirty: bool,
    timer_armed: bool,
    retx: wbft_components::context::RetxState,
}

impl DecStage {
    fn new(p: Params, epoch: u64, batched: bool) -> Self {
        DecStage {
            epoch,
            batched,
            cts: vec![None; p.n],
            active: vec![false; p.n],
            my_sent: vec![false; p.n],
            my_shares: vec![None; p.n],
            shares: vec![Vec::new(); p.n],
            reporters: vec![0; p.n],
            plaintexts: vec![None; p.n],
            dirty: false,
            timer_armed: false,
            retx: wbft_components::context::RetxState::new(
                RetransmitPolicy::lora_class(),
                &p,
            ),
            p,
        }
    }

    /// Activates decryption of proposer `j`'s ciphertext.
    fn activate(&mut self, j: usize, ct: Ciphertext, crypto: &NodeCrypto, acts: &mut Actions) {
        if self.active[j] {
            return;
        }
        self.active[j] = true;
        let my_share = (!self.my_sent[j]).then(|| crypto.enc_sec.dec_share(&ct));
        self.cts[j] = Some(ct);
        if let Some(share) = my_share {
            self.my_sent[j] = true;
            // Producing a decryption share costs one share-signing op.
            acts.charge(crypto.suite.threshold.signature_profile().sign_share_us);
            self.my_shares[j] = Some(share);
            self.record(j, share, crypto, acts, true);
            self.dirty = true;
        }
        self.flush(acts);
    }

    fn record(
        &mut self,
        j: usize,
        share: DecShare,
        crypto: &NodeCrypto,
        acts: &mut Actions,
        own: bool,
    ) {
        if j >= self.p.n || self.plaintexts[j].is_some() {
            return;
        }
        let Some(ct) = &self.cts[j] else {
            // Shares may arrive before our RBC delivered the ciphertext;
            // they are re-served by peers' retransmissions once it does.
            return;
        };
        // The wire layer accepts any non-zero index; one outside the
        // committee names no reporter bit (and would overflow the shift).
        let index = share.index.value() as usize;
        if !(1..=self.p.n).contains(&index) {
            return;
        }
        let bit = 1u64 << (index - 1);
        if self.reporters[j] & bit != 0 {
            return;
        }
        if !own {
            acts.charge(crypto.suite.threshold.signature_profile().verify_share_us);
        }
        if crypto.enc_pub.verify_share(ct, &share).is_err() {
            return;
        }
        self.reporters[j] |= bit;
        self.shares[j].push(share);
        if self.shares[j].len() > self.p.f {
            acts.charge(crypto.suite.threshold.signature_profile().combine_us);
            let label = ct_label(self.epoch, j);
            if let Ok(pt) = crypto.enc_pub.decrypt(&label, ct, &self.shares[j]) {
                self.plaintexts[j] = Some(pt);
                self.dirty = true;
            } else {
                // A corrupt share poisoned the combination; drop collected
                // shares and rebuild from retransmissions.
                self.shares[j].clear();
                self.reporters[j] = 0;
                if self.my_sent[j] {
                    if let Some(share) = self.my_shares[j] {
                        self.record(j, share, crypto, acts, true);
                    }
                }
            }
        }
    }

    fn build(&self) -> Vec<Body> {
        if self.batched {
            let mut shares = Vec::new();
            let mut dec_nack = Bitmap::new(self.p.n);
            for j in 0..self.p.n {
                if self.my_sent[j] {
                    if let Some(share) = self.my_shares[j] {
                        shares.push((j as u8, share));
                    }
                }
                if self.active[j] && self.plaintexts[j].is_none() {
                    dec_nack.set(j, true);
                }
            }
            vec![Body::DecShareBatch { shares, dec_nack }]
        } else {
            let mut out = Vec::new();
            for j in 0..self.p.n {
                if self.my_sent[j] {
                    if let Some(share) = self.my_shares[j] {
                        out.push(Body::BaseDecShare { proposer: j as u8, share });
                    }
                }
            }
            out
        }
    }

    fn flush(&mut self, acts: &mut Actions) {
        if self.dirty {
            for body in self.build() {
                acts.send(body);
            }
            self.dirty = false;
            self.retx.reset();
        }
        if !self.timer_armed {
            self.timer_armed = true;
            let d = self.retx.next_delay();
            acts.timer(d, TIMER_DEC_RETX);
        }
    }

    fn complete_for(&self, accepted: &[usize]) -> bool {
        accepted.iter().all(|&j| self.plaintexts[j].is_some())
    }

    fn handle(&mut self, body: &Body, crypto: &NodeCrypto, acts: &mut Actions) {
        match body {
            Body::DecShareBatch { shares, dec_nack } => {
                for (j, share) in shares {
                    self.record(*j as usize, *share, crypto, acts, false);
                }
                if dec_nack.len() == self.p.n
                    && dec_nack.iter_set().any(|j| self.my_sent[j])
                {
                    self.retx.peer_behind = true;
                }
            }
            Body::BaseDecShare { proposer, share } => {
                self.record(*proposer as usize, *share, crypto, acts, false);
            }
            _ => {}
        }
        self.flush(acts);
    }

    fn on_timer(&mut self, local: u32, accepted: Option<&[usize]>, acts: &mut Actions) {
        if local != TIMER_DEC_RETX {
            return;
        }
        let complete = accepted.map(|a| self.complete_for(a)).unwrap_or(false);
        if self.active.iter().any(|a| *a) && self.retx.should_send(complete) {
            for body in self.build() {
                acts.send(body);
            }
            self.retx.peer_behind = false;
        }
        let d = self.retx.next_delay();
        acts.timer(d, TIMER_DEC_RETX);
    }
}

// ------------------------------------------------------------------
// The lane.

/// Per-epoch ABA factory: builds a fresh agreement instance from the
/// epoch's committee parameters and the node's (key-epoch-aware) crypto.
type MakeAba<A> = Box<dyn FnMut(Params, &NodeCrypto) -> A + Send>;

/// Component factories of a HoneyBadger-family engine.
pub struct HbSpec<B, A> {
    make_rbc: Box<dyn FnMut(Params) -> B + Send>,
    make_aba: MakeAba<A>,
    /// One batched decryption packet per channel access, or one packet per
    /// proposer (the baselines).
    batched_dec: bool,
}

/// One HoneyBadgerBFT/BEAT epoch: N reliable broadcasts of threshold
/// ciphertexts, N parallel ABAs, then threshold decryption of the
/// accepted proposals.
pub struct HbLane<B, A> {
    epoch: u64,
    /// Committee of this epoch (varies across a membership change).
    committee: Committee,
    rbc: B,
    aba: A,
    dec: DecStage,
    aba_inputs_sent: bool,
    accepted: Option<Vec<usize>>,
    decided: bool,
}

/// HoneyBadgerBFT/BEAT engine, generic over deployment style.
pub type HbEngine<B, A> = EpochPipeline<HbLane<B, A>>;

impl<B: Broadcaster, A: BinaryAgreement> HbLane<B, A> {
    /// Starts decryption of proposer `j`'s delivered proposal; a malformed
    /// ciphertext from a Byzantine proposer counts as an empty contribution.
    fn activate_dec(&mut self, j: usize, crypto: &NodeCrypto, out: &mut EngineOut) {
        if self.dec.active[j] {
            return;
        }
        let Some(bytes) = self.rbc.delivered(j) else { return };
        if let Some(ct) = decode_ciphertext(bytes) {
            let mut acts = Actions::new();
            self.dec.activate(j, ct, crypto, &mut acts);
            out.absorb(sessions::of(self.epoch, sessions::DEC), &mut acts);
        } else {
            self.dec.active[j] = true;
            self.dec.plaintexts[j] = Some(encode_batch(&[]).to_vec());
        }
    }
}

impl<B: Broadcaster, A: BinaryAgreement> EpochLane for HbLane<B, A> {
    type Spec = HbSpec<B, A>;

    fn open(
        spec: &mut HbSpec<B, A>,
        epoch: u64,
        committee: Committee,
        crypto: &NodeCrypto,
        txs: &[Tx],
        rng: &mut ChaCha12Rng,
        out: &mut EngineOut,
    ) -> Self {
        let p_rbc = committee.params(epoch, sessions::BROADCAST);
        let mut rbc = (spec.make_rbc)(p_rbc);
        let aba = (spec.make_aba)(committee.params(epoch, sessions::ABA), crypto);
        let dec = DecStage::new(committee.params(epoch, sessions::DEC), epoch, spec.batched_dec);
        // Threshold-encrypt the batch (censorship resilience), charged as
        // one share-signing-class operation.
        let mut acts = Actions::new();
        acts.charge(crypto.suite.threshold.signature_profile().sign_share_us);
        let ct = crypto.enc_pub.encrypt(&ct_label(epoch, committee.me), &encode_batch(txs), rng);
        rbc.start(encode_ciphertext(&ct), &mut acts);
        out.absorb(p_rbc.session, &mut acts);
        HbLane {
            epoch,
            committee,
            rbc,
            aba,
            dec,
            aba_inputs_sent: false,
            accepted: None,
            decided: false,
        }
    }

    fn handle(
        &mut self,
        role: u64,
        from: usize,
        body: &Body,
        crypto: &NodeCrypto,
        acts: &mut Actions,
    ) {
        match role {
            sessions::BROADCAST => self.rbc.handle(from, body, acts),
            sessions::ABA => self.aba.handle(from, body, acts),
            sessions::DEC => self.dec.handle(body, crypto, acts),
            _ => {}
        }
    }

    fn on_timer(&mut self, role: u64, local: u32, _crypto: &NodeCrypto, acts: &mut Actions) {
        match role {
            sessions::BROADCAST => self.rbc.on_timer(local, acts),
            sessions::ABA => self.aba.on_timer(local, acts),
            sessions::DEC => self.dec.on_timer(local, self.accepted.as_deref(), acts),
            _ => {}
        }
    }

    fn poll(
        &mut self,
        released: bool,
        pipelined: bool,
        crypto: &NodeCrypto,
        out: &mut EngineOut,
    ) -> Option<Block> {
        let n = self.committee.n;
        // 1. Feed ABA inputs when 2f+1 RBCs delivered — all at once.
        if !self.aba_inputs_sent
            && self.rbc.delivered_count() >= self.committee.quorum()
            && released
        {
            self.aba_inputs_sent = true;
            let mut acts = Actions::new();
            for j in 0..n {
                let input = self.rbc.delivered(j).is_some();
                self.aba.set_input(j, input, &mut acts);
            }
            out.absorb(sessions::of(self.epoch, sessions::ABA), &mut acts);
        }
        // 1b. Early-commit fast path (pipelined depths only): once our ABA
        //     inputs are bound, n−f of them are unanimously 1, so start
        //     exchanging decryption shares for every delivered instance the
        //     ABAs have not rejected instead of waiting for the full
        //     accepted set to freeze. Commit still waits for stage 2's
        //     frozen set; shares for instances that end up rejected are
        //     simply never combined.
        if pipelined && self.aba_inputs_sent && self.accepted.is_none() {
            for j in 0..n {
                if self.aba.decided(j) != Some(false) {
                    self.activate_dec(j, crypto, out);
                }
            }
        }
        // 2. Freeze the accepted set when all ABAs decided.
        if self.accepted.is_none() && self.aba_inputs_sent && self.aba.decided_count() == n {
            self.accepted = Some((0..n).filter(|&j| self.aba.decided(j) == Some(true)).collect());
        }
        // 3. Activate decryption for accepted instances whose value we hold.
        if let Some(accepted) = self.accepted.clone() {
            for j in accepted {
                self.activate_dec(j, crypto, out);
            }
        }
        // 4. Decide the epoch once every accepted proposal decrypted.
        let accepted = self.accepted.as_ref()?;
        if self.decided || !self.dec.complete_for(accepted) {
            return None;
        }
        self.decided = true;
        let mut txs: Vec<Tx> = Vec::new();
        for &j in accepted {
            if let Some(batch) = self.dec.plaintexts[j].as_deref().and_then(decode_batch) {
                extend_unique(&mut txs, batch);
            }
        }
        Some(Block { epoch: self.epoch, txs })
    }
}

// ------------------------------------------------------------------
// Variant constructors.

/// Wireless HoneyBadgerBFT-SC: batched RBC + batched shared-coin ABA
/// (threshold signatures).
pub fn hb_sc(
    crypto: NodeCrypto,
    source: impl Into<BatchSource>,
    stop: StopCondition,
) -> HbEngine<RbcBatch, AbaScBatch> {
    HbEngine::new(
        crypto,
        HbSpec {
            make_rbc: Box::new(RbcBatch::new),
            make_aba: Box::new(|p, c: &NodeCrypto| {
                AbaScBatch::new_parallel(p, CoinFlavor::ThreshSig, c.coin_pub.clone(), c.coin_sec.clone())
            }),
            batched_dec: true,
        },
        source,
        stop,
    )
}

/// Wireless HoneyBadgerBFT-LC: batched RBC + batched local-coin (Bracha)
/// ABA.
pub fn hb_lc(
    crypto: NodeCrypto,
    source: impl Into<BatchSource>,
    stop: StopCondition,
) -> HbEngine<RbcBatch, AbaLcBatch> {
    HbEngine::new(
        crypto,
        HbSpec {
            make_rbc: Box::new(RbcBatch::new),
            make_aba: Box::new(|p, _: &NodeCrypto| AbaLcBatch::new(p)),
            batched_dec: true,
        },
        source,
        stop,
    )
}

/// Wireless BEAT (BEAT0): HoneyBadger structure with threshold
/// coin-flipping ABA.
pub fn beat(
    crypto: NodeCrypto,
    source: impl Into<BatchSource>,
    stop: StopCondition,
) -> HbEngine<RbcBatch, AbaScBatch> {
    HbEngine::new(
        crypto,
        HbSpec {
            make_rbc: Box::new(RbcBatch::new),
            make_aba: Box::new(|p, c: &NodeCrypto| {
                AbaScBatch::new_parallel(p, CoinFlavor::CoinFlip, c.coin_pub.clone(), c.coin_sec.clone())
            }),
            batched_dec: true,
        },
        source,
        stop,
    )
}

/// Unbatched HoneyBadgerBFT-SC baseline.
pub fn hb_sc_baseline(
    crypto: NodeCrypto,
    source: impl Into<BatchSource>,
    stop: StopCondition,
) -> HbEngine<BaselineRbcSet, BaselineAbaSet> {
    HbEngine::new(
        crypto,
        HbSpec {
            make_rbc: Box::new(BaselineRbcSet::new),
            make_aba: Box::new(|p, c: &NodeCrypto| {
                BaselineAbaSet::new(p, CoinFlavor::ThreshSig, c.coin_pub.clone(), c.coin_sec.clone())
            }),
            batched_dec: false,
        },
        source,
        stop,
    )
}

/// Unbatched BEAT baseline.
pub fn beat_baseline(
    crypto: NodeCrypto,
    source: impl Into<BatchSource>,
    stop: StopCondition,
) -> HbEngine<BaselineRbcSet, BaselineAbaSet> {
    HbEngine::new(
        crypto,
        HbSpec {
            make_rbc: Box::new(BaselineRbcSet::new),
            make_aba: Box::new(|p, c: &NodeCrypto| {
                BaselineAbaSet::new(p, CoinFlavor::CoinFlip, c.coin_pub.clone(), c.coin_sec.clone())
            }),
            batched_dec: false,
        },
        source,
        stop,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ProtocolNode;
    use rand::SeedableRng;
    use wbft_components::deal_node_crypto;
    use wbft_crypto::CryptoSuite;
    use wbft_wireless::{ChannelId, SimConfig, SimTime, Simulator, Topology};

    fn run_hb_sc(seed: u64, epochs: u64) -> Vec<Vec<Block>> {
        run_hb_sc_at_depth(seed, epochs, 1)
    }

    fn run_hb_sc_at_depth(seed: u64, epochs: u64, depth: u64) -> Vec<Vec<Block>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let workload = Workload::small();
        let behaviors: Vec<_> = crypto
            .into_iter()
            .map(|c| {
                let engine = hb_sc(c.clone(), workload.clone(), StopCondition::Epochs(epochs))
                    .with_depth(depth);
                ProtocolNode::new(engine, c, ChannelId(0))
            })
            .collect();
        let cfg = SimConfig { seed, ..SimConfig::default() };
        let mut sim = Simulator::new(cfg, Topology::single_hop(4), behaviors);
        let ok = sim.run_until_pred(SimTime::from_micros(3_600_000_000), |s| {
            s.behaviors().all(|(_, b)| b.is_done())
        });
        assert!(ok, "HB-SC did not complete {epochs} epochs in simulated hour");
        sim.behaviors().map(|(_, b)| b.blocks().to_vec()).collect()
    }

    #[test]
    fn hb_sc_single_epoch_agreement() {
        let all_blocks = run_hb_sc(5, 1);
        let first = &all_blocks[0];
        assert_eq!(first.len(), 1);
        assert!(!first[0].txs.is_empty(), "block should carry transactions");
        for blocks in &all_blocks {
            assert_eq!(blocks, first, "all nodes must commit identical blocks");
        }
    }

    #[test]
    fn hb_sc_multi_epoch_progress() {
        let all_blocks = run_hb_sc(6, 2);
        for blocks in &all_blocks {
            assert_eq!(blocks.len(), 2);
            assert_eq!(blocks[0].epoch, 0);
            assert_eq!(blocks[1].epoch, 1);
            assert_ne!(blocks[0].txs, blocks[1].txs, "epochs carry fresh batches");
        }
        assert_eq!(all_blocks[0], all_blocks[3]);
    }

    #[test]
    fn hb_sc_pipelined_depths_agree_and_commit_in_order() {
        for depth in [2u64, 4] {
            let all_blocks = run_hb_sc_at_depth(6, 4, depth);
            let first = &all_blocks[0];
            assert_eq!(first.len(), 4, "depth {depth}: all epochs commit");
            for (e, b) in first.iter().enumerate() {
                assert_eq!(b.epoch, e as u64, "depth {depth}: chain is in epoch order");
            }
            for blocks in &all_blocks {
                assert_eq!(blocks, first, "depth {depth}: all nodes agree");
            }
        }
    }

    /// A peer's decryption share whose index lies outside the committee
    /// (the wire accepts any non-zero u16) is dropped before it can touch
    /// the reporter bitmask; honest shares still combine afterwards.
    #[test]
    fn out_of_committee_share_index_is_dropped() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let crypto = deal_node_crypto(4, CryptoSuite::light(), &mut rng);
        let p = Params::new(4, 0, sessions::of(0, sessions::DEC));
        let mut dec = DecStage::new(p, 0, true);
        let ct = crypto[1].enc_pub.encrypt(&ct_label(0, 1), &encode_batch(&[]), &mut rng);
        let mut acts = Actions::new();
        dec.activate(1, ct.clone(), &crypto[0], &mut acts);
        let batch = |share| Body::DecShareBatch { shares: vec![(1, share)], dec_nack: Bitmap::new(4) };
        let mut forged = crypto[2].enc_sec.dec_share(&ct);
        for index in [5, 64, 65, u16::MAX] {
            forged.index = wbft_crypto::ShareIndex::new(index).unwrap();
            dec.handle(&batch(forged), &crypto[0], &mut acts);
        }
        assert_eq!(dec.reporters[1], 0b1, "only this node's own share reported");
        assert!(dec.plaintexts[1].is_none());
        dec.handle(&batch(crypto[2].enc_sec.dec_share(&ct)), &crypto[0], &mut acts);
        assert_eq!(dec.plaintexts[1].as_deref(), Some(&encode_batch(&[])[..]));
    }

    #[test]
    fn ciphertext_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (enc, _) = wbft_crypto::thresh_enc::deal_enc(
            4,
            1,
            wbft_crypto::ThresholdCurve::Bn158,
            &mut rng,
        );
        let ct = enc.encrypt(b"label", b"some payload", &mut rng);
        let enc_bytes = encode_ciphertext(&ct);
        assert_eq!(decode_ciphertext(&enc_bytes), Some(ct));
        assert_eq!(decode_ciphertext(&[0u8; 10]), None);
    }
}

//! The epoch-pipeline shell shared by the HoneyBadger-family and Dumbo
//! engines.
//!
//! Every deployment of the paper has one epoch shape: N parallel
//! dissemination instances, then agreement, then block assembly. An
//! [`EpochLane`] is one epoch of that shape for one protocol;
//! [`EpochPipeline`] is everything around it, kept in exactly one place:
//!
//! * the committed chain and the `started` watermark;
//! * the W-window: up to `W` epochs in flight past the chain head, plus
//!   one finalized epoch kept alive as a NACK responder (`W + 1` lanes);
//! * lazy opening: the epoch right past the head always opens, extra
//!   pipelined epochs only while the source has work;
//! * head parking: a lane's agreement stage runs only once it is
//!   released (`W = 1`, or its epoch is the chain head);
//! * in-order finalize, resolving each block in the mempool before the
//!   next epoch pulls its batch;
//! * dynamic membership: the `can_open` gate, committee slots, per-epoch
//!   threshold keys, resharing deals and their retransmission;
//! * journal restore and anti-entropy adoption.

use crate::driver::{sessions, Block, Engine, EngineOut, Tx};
use crate::membership::MembershipCtl;
use crate::service::StopCondition;
use crate::workload::BatchSource;
use rand_chacha::ChaCha12Rng;
use std::collections::VecDeque;
use wbft_components::{Actions, NodeCrypto, Params};
use wbft_net::Body;

/// Retransmission timer of this node's resharing deal (reshare sessions).
const TIMER_RESHARE_RETX: u32 = 0;

/// Cadence at which a canonical dealer re-serves its deal set. Deals are
/// idempotent (duplicates drop at the ceremony), so a fixed cadence is
/// enough; it keeps running until the dealer's engine is done because a
/// lagging receiver — a joiner still bootstrapping its chain — may need
/// the deal long after the chain passed the activation epoch.
const RESHARE_RETX_DELAY: wbft_wireless::SimDuration =
    wbft_wireless::SimDuration::from_millis(700);

/// This node's view of one epoch's committee.
#[derive(Clone, Copy, Debug)]
pub struct Committee {
    /// Committee size.
    pub n: usize,
    /// Fault budget `(n - 1) / 3`.
    pub f: usize,
    /// This node's committee slot.
    pub me: usize,
}

impl Committee {
    /// Component parameters of session `role` in `epoch`.
    pub fn params(&self, epoch: u64, role: u64) -> Params {
        Params::new(self.n, self.me, sessions::of(epoch, role))
    }

    /// The Byzantine quorum `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.f + 1
    }
}

/// Appends the transactions of `more` not already in `txs`, in order (a
/// block is the deduplicated union of its accepted proposals).
pub(crate) fn extend_unique(txs: &mut Vec<Tx>, more: Vec<Tx>) {
    for tx in more {
        if !txs.contains(&tx) {
            txs.push(tx);
        }
    }
}

/// One epoch of a protocol: its dissemination, agreement and
/// block-assembly components, driven by an [`EpochPipeline`].
pub trait EpochLane {
    /// Per-engine factory state the lane is built from.
    type Spec;

    /// Opens `epoch`: builds the lane's components for `committee` under
    /// the epoch's threshold keys and starts dissemination of `txs`.
    fn open(
        spec: &mut Self::Spec,
        epoch: u64,
        committee: Committee,
        crypto: &NodeCrypto,
        txs: &[Tx],
        rng: &mut ChaCha12Rng,
        out: &mut EngineOut,
    ) -> Self;

    /// Routes a verified body of session `role` from committee slot `from`.
    fn handle(
        &mut self,
        role: u64,
        from: usize,
        body: &Body,
        crypto: &NodeCrypto,
        acts: &mut Actions,
    );

    /// Handles a timer of session `role`.
    fn on_timer(&mut self, role: u64, local: u32, crypto: &NodeCrypto, acts: &mut Actions);

    /// Advances the lane after any progress. `released` is the head-parking
    /// rule: the agreement stage may bind its inputs. `pipelined` is
    /// `W > 1`. Returns the decided block exactly once.
    fn poll(
        &mut self,
        released: bool,
        pipelined: bool,
        crypto: &NodeCrypto,
        out: &mut EngineOut,
    ) -> Option<Block>;
}

/// A live lane and its decided block awaiting in-order finalization
/// (pipelined epochs may decide out of order; the chain commits strictly
/// by epoch).
struct Slot<L> {
    epoch: u64,
    lane: L,
    decided: Option<Block>,
}

/// The engine shell around a protocol's [`EpochLane`] (see module docs).
pub struct EpochPipeline<L: EpochLane> {
    crypto: NodeCrypto,
    spec: L::Spec,
    source: BatchSource,
    stop: StopCondition,
    /// Epochs opened so far (`is_done` compares against committed blocks).
    started: u64,
    /// Pipeline depth `W`: epochs allowed in flight past the committed
    /// chain. `W = 1` is the strictly sequential behavior.
    depth: u64,
    slots: VecDeque<Slot<L>>,
    blocks: Vec<Block>,
    rng: ChaCha12Rng,
    /// Dynamic membership (`None` = the fixed genesis committee forever).
    membership: Option<MembershipCtl>,
}

/// The crypto bundle in effect at `epoch`: the membership controller's
/// per-key-epoch bundle, falling back to the fixed genesis bundle (the only
/// bundle there is without membership; with it, open epochs are gated on
/// the controller's bundle existing).
fn epoch_crypto<'a>(
    base: &'a NodeCrypto,
    membership: &'a Option<MembershipCtl>,
    epoch: u64,
) -> &'a NodeCrypto {
    match membership {
        Some(ctl) => ctl.crypto_at(epoch).unwrap_or(base),
        None => base,
    }
}

impl<L: EpochLane> EpochPipeline<L> {
    /// Creates the engine; `spec` builds a fresh lane per epoch.
    pub fn new(
        crypto: NodeCrypto,
        spec: L::Spec,
        source: impl Into<BatchSource>,
        stop: StopCondition,
    ) -> Self {
        use rand::SeedableRng;
        let rng = ChaCha12Rng::seed_from_u64(0xb0b0 ^ ((crypto.me as u64) << 16));
        EpochPipeline {
            crypto,
            spec,
            source: source.into(),
            stop,
            started: 0,
            depth: 1,
            slots: VecDeque::new(),
            blocks: Vec::new(),
            rng,
            membership: None,
        }
    }

    /// Mutable access to the proposal source (the multi-hop tier installs
    /// fixed proposals before starting an epoch).
    pub fn source_mut(&mut self) -> &mut BatchSource {
        &mut self.source
    }

    /// Sets the pipeline depth `W` (clamped to at least 1). Call before
    /// `start`; `W = 1` reproduces the sequential engine byte for byte.
    pub fn with_depth(mut self, depth: u64) -> Self {
        self.depth = depth.max(1);
        self
    }

    /// Enables dynamic membership: per-epoch committee parameters and
    /// threshold keys come from the chain-derived controller instead of
    /// the fixed genesis deal. Schedule the node's own join/leave ops on
    /// the controller before passing it in.
    pub fn with_membership(mut self, ctl: MembershipCtl) -> Self {
        self.membership = Some(ctl);
        self
    }

    fn begin_epoch(&mut self, epoch: u64, out: &mut EngineOut) {
        self.started = self.started.max(epoch + 1);
        let committee = match &self.membership {
            Some(ctl) => match ctl.committee_at(epoch) {
                Some((n, f, me)) => Committee { n, f, me },
                // `open_epochs` gates on `can_open`; reaching this means a
                // logic bug upstream — refuse to open rather than panic.
                None => return,
            },
            None => {
                let n = self.crypto.peer_keys.len();
                Committee { n, f: (n - 1) / 3, me: self.crypto.me }
            }
        };
        // Membership ops this node wants committed ride along as reserved
        // transactions (deduplicated by the block assembly, like any tx).
        let mut txs = self.source.batch(epoch, committee.me);
        if let Some(ctl) = &self.membership {
            extend_unique(&mut txs, ctl.injectable(epoch));
        }
        let crypto = epoch_crypto(&self.crypto, &self.membership, epoch);
        let lane = L::open(&mut self.spec, epoch, committee, crypto, &txs, &mut self.rng, out);
        self.slots.push_back(Slot { epoch, lane, decided: None });
        // Keep one finalized epoch beyond the pipeline window alive as a
        // NACK responder for lagging peers.
        let keep = self.depth as usize + 1;
        while self.slots.len() > keep {
            self.slots.pop_front();
        }
    }

    /// Opens dissemination for new epochs until `depth` are in flight past
    /// the committed chain (or the stop condition refuses). The epoch
    /// right past the chain head always opens — that is the sequential
    /// cadence every depth shares — but *extra* pipelined epochs open only
    /// while the source has work for them: an eager open on an idle
    /// mempool would spend a full epoch of airtime on an empty proposal.
    fn open_epochs(&mut self, out: &mut EngineOut) {
        while self.started < self.blocks.len() as u64 + self.depth && self.stop.allows(self.started)
        {
            // Membership gate: only committee members open an epoch, and
            // only once its key epoch's threshold keys exist (a running
            // resharing ceremony holds the activation epoch back; a
            // leaver stops here for good and finishes by sync adoption).
            if let Some(ctl) = &self.membership {
                if !ctl.can_open(self.started) {
                    break;
                }
            }
            if self.started > self.blocks.len() as u64 && !self.source.has_work() {
                break;
            }
            let next = self.started;
            self.begin_epoch(next, out);
        }
    }

    /// Runs `epoch`'s lane after any progress, then finalizes.
    fn poll(&mut self, epoch: u64, out: &mut EngineOut) {
        let Some(slot) = self.slots.iter_mut().find(|s| s.epoch == epoch) else { return };
        // At pipelined depths a *future* epoch's agreement stays parked
        // until the epoch reaches the chain head: its dissemination
        // overlaps the head's agreement, but binding agreement inputs while
        // proposals are still in flight behind pipelined traffic would
        // exclude slow proposers and requeue whole batches.
        let released = self.depth == 1 || epoch == self.blocks.len() as u64;
        let crypto = epoch_crypto(&self.crypto, &self.membership, epoch);
        if let Some(block) = slot.lane.poll(released, self.depth > 1, crypto, out) {
            slot.decided = Some(block);
        }
        self.finalize_in_order(out);
    }

    /// Appends decided epochs to the chain strictly in epoch order — the
    /// committed digest chain stays a common prefix even when a later
    /// pipelined epoch decides before an earlier one — then refills the
    /// dissemination pipeline.
    fn finalize_in_order(&mut self, out: &mut EngineOut) {
        let mut advanced = false;
        loop {
            let next = self.blocks.len() as u64;
            let Some(slot) = self.slots.iter_mut().find(|s| s.epoch == next) else { break };
            let Some(block) = slot.decided.take() else { break };
            self.commit(block, out);
            advanced = true;
        }
        if advanced {
            self.refill(out);
        }
    }

    /// Appends `block` at the chain head. Service mode resolves the commit
    /// in the mempool *before* the next epoch pulls its batch, so a
    /// peer-committed transaction cannot ride again. Membership runs fold
    /// the block's ops into the committee log and, when a change lands,
    /// broadcast this node's resharing deal (if it is a canonical dealer)
    /// on the activation epoch's reshare session, with a retransmission
    /// timer.
    fn commit(&mut self, block: Block, out: &mut EngineOut) {
        if let BatchSource::Service { handle, .. } = &self.source {
            handle.resolve_commit(&block);
        }
        if let Some(ctl) = &mut self.membership {
            if ctl.on_commit(block.epoch, &block.txs).is_some() {
                if let Some((activation, key_epoch, deal)) = ctl.make_my_deal(&mut self.rng) {
                    let session = sessions::of(activation, sessions::RESHARE);
                    out.sends.push((
                        session,
                        Body::Reshare { key_epoch, dealer: ctl.me_global(), deal },
                    ));
                    out.timers.push((session, TIMER_RESHARE_RETX, RESHARE_RETX_DELAY));
                }
            }
        }
        self.blocks.push(block);
    }

    /// Fills the window past a new chain head and releases the head's
    /// parked agreement (a no-op when it has no dissemination quorum yet,
    /// or at depth 1, where the head is the only open epoch).
    fn refill(&mut self, out: &mut EngineOut) {
        self.open_epochs(out);
        let head = self.blocks.len() as u64;
        self.poll(head, out);
    }

    /// Absorbs a dealer's reshare deal set. When the deal completes the
    /// ceremony, the new key epoch's bundle just became available and the
    /// epochs blocked on it can open.
    fn on_reshare(&mut self, from: usize, body: &Body, out: &mut EngineOut) {
        let Some(ctl) = &mut self.membership else { return };
        let Body::Reshare { key_epoch, dealer, deal } = body else { return };
        // The envelope signature authenticated `from`; a deal claiming a
        // different dealer identity is forged (or corrupt) — drop it.
        if *dealer as usize != from {
            return;
        }
        let Some(deal) = wbft_membership::DealSet::decode(deal) else { return };
        if deal.dealer != *dealer {
            return;
        }
        if ctl.absorb_deal(*key_epoch, deal) {
            self.refill(out);
        }
    }
}

impl<L: EpochLane> Engine for EpochPipeline<L> {
    fn start(&mut self, out: &mut EngineOut) {
        self.open_epochs(out);
    }

    fn on_work_available(&mut self, out: &mut EngineOut) {
        // A fresh local submission: fill the pipeline window now instead
        // of waiting for the next commit. Sequential depth (W = 1) never
        // has window slack here, so this is a no-op for it.
        self.open_epochs(out);
    }

    fn restore_chain(&mut self, blocks: Vec<Block>) {
        // Adopt the recovered prefix as already-committed history; `start`
        // then opens the first live epoch right past it (epochs are opened
        // relative to `blocks.len()`, so no per-epoch state is needed).
        self.started = self.started.max(blocks.len() as u64);
        // Membership runs: refold the committee log from the restored
        // prefix. No deals can be broadcast from here (pre-start, nothing
        // to send through); a restart landing mid-ceremony relies on the
        // other dealers' retransmissions or anti-entropy adoption.
        if let Some(ctl) = &mut self.membership {
            for block in &blocks {
                ctl.on_commit(block.epoch, &block.txs);
            }
        }
        self.blocks = blocks;
    }

    fn adopt_chain(&mut self, blocks: Vec<Block>, out: &mut EngineOut) {
        let mut advanced = false;
        for block in blocks {
            if block.epoch != self.blocks.len() as u64 {
                continue;
            }
            // Drop the live lane of the adopted epoch: its agreement is
            // moot and it must not commit a second copy.
            self.slots.retain(|s| s.epoch != block.epoch);
            self.commit(block, out);
            advanced = true;
        }
        if advanced {
            self.started = self.started.max(self.blocks.len() as u64);
            self.refill(out);
        }
    }

    fn handle(&mut self, session: u64, from: usize, body: &Body, out: &mut EngineOut) {
        let (epoch, role) = sessions::split(session);
        if role == sessions::RESHARE {
            self.on_reshare(from, body, out);
            return;
        }
        // Envelopes carry global node ids; lanes speak committee slots.
        // Without membership the two coincide.
        let from = match &self.membership {
            Some(ctl) => match ctl.slot_at(epoch, from as u16) {
                Some(slot) => slot,
                // Not a member of this epoch's committee (e.g. a leaver's
                // stale traffic): nothing a lane could attribute.
                None => return,
            },
            None => from,
        };
        let Some(slot) = self.slots.iter_mut().find(|s| s.epoch == epoch) else { return };
        let crypto = epoch_crypto(&self.crypto, &self.membership, epoch);
        let mut acts = Actions::new();
        slot.lane.handle(role, from, body, crypto, &mut acts);
        out.absorb(session, &mut acts);
        self.poll(epoch, out);
    }

    fn on_timer(&mut self, session: u64, local: u32, out: &mut EngineOut) {
        let (epoch, role) = sessions::split(session);
        if role == sessions::RESHARE {
            if local != TIMER_RESHARE_RETX || self.is_done() {
                return;
            }
            let Some(ctl) = &self.membership else { return };
            let Some((_, key_epoch, deal)) = ctl.retx_deal() else { return };
            out.sends.push((session, Body::Reshare { key_epoch, dealer: ctl.me_global(), deal }));
            out.timers.push((session, TIMER_RESHARE_RETX, RESHARE_RETX_DELAY));
            return;
        }
        let Some(slot) = self.slots.iter_mut().find(|s| s.epoch == epoch) else { return };
        let crypto = epoch_crypto(&self.crypto, &self.membership, epoch);
        let mut acts = Actions::new();
        slot.lane.on_timer(role, local, crypto, &mut acts);
        out.absorb(session, &mut acts);
        self.poll(epoch, out);
    }

    fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    fn key_epoch(&self, session: u64) -> u64 {
        match &self.membership {
            Some(ctl) => ctl.wire_key_epoch(session),
            None => 0,
        }
    }

    fn is_done(&self) -> bool {
        let committed = self.blocks.len() as u64;
        if self.stop.is_done(self.started, committed) {
            return true;
        }
        // Membership runs: a node outside the committee at its chain head
        // (a leaver past activation, a joiner before it) opens nothing
        // itself — it finishes by sync adoption once the chain it adopts
        // reaches the stop.
        self.membership
            .as_ref()
            .is_some_and(|ctl| !ctl.member_at(committed) && !self.stop.allows(committed))
    }
}

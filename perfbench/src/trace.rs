//! Timing shims wrapped around the workspace's public layer seams.
//!
//! [`TimedNode`] wraps any [`NodeBehavior`] (the `driver` layer: a
//! `ProtocolNode` or a multi-hop `ClusterNode`) and [`TimedEngine`] wraps an
//! [`Engine`] (the `engine` layer: HB/Dumbo engines, their components and
//! the threshold crypto they call). Both are pure pass-throughs: the node
//! shim runs the inner callback against a context of its own and forwards
//! the commands it issued, in order, to the runtime's context, so the
//! runtime sees exactly the commands and CPU charges it would see without
//! the shim. The time the forwarding itself takes is booked separately as
//! tracing overhead, never to a layer.

use bytes::Bytes;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::Instant;
use wbft_consensus::{Block, Engine, EngineOut};
use wbft_net::Body;
use wbft_wireless::{ChannelId, Command, Frame, NodeBehavior, NodeCtx};

/// What a span's duration measures.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub enum Clock {
    /// Elapsed wall time: right where the process owns a core, as the
    /// single-threaded simulator does.
    #[default]
    Wall,
    /// CPU time of the calling thread: right where processes share cores
    /// and a callback's wall time would include time spent preempted.
    ThreadCpu,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

impl Clock {
    /// A reading in nanoseconds; only differences are meaningful.
    pub fn now_ns(self) -> u64 {
        match self {
            Clock::Wall => {
                static BASE: OnceLock<Instant> = OnceLock::new();
                BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
            }
            Clock::ThreadCpu => {
                let mut ts = Timespec {
                    tv_sec: 0,
                    tv_nsec: 0,
                };
                // SAFETY: `ts` is a valid, writable `struct timespec` (two
                // 64-bit fields on the 64-bit Linux targets this builds
                // for) and the clock id is a constant the kernel defines.
                let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
                assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
                ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
            }
        }
    }
}

/// Everything the shims record during one run.
#[derive(Default)]
pub struct Spans {
    /// The clock every span below is read from.
    pub clock: Clock,
    /// Time inside node callbacks, engine time included.
    pub driver_ns: u64,
    /// Time inside engine calls.
    pub engine_ns: u64,
    pub engine_calls: u64,
    /// Time spent by the shims themselves (context forwarding, capture).
    pub shim_ns: u64,
    /// Broadcasts issued by nodes.
    pub frames_out: u64,
    /// When set, frames are kept for the replay of the net/crypto layers.
    pub capture: bool,
    /// Frames in delivery order.
    pub delivered: Vec<Frame>,
    /// `(sending node, channel, sealed payload)` in issue order.
    pub sent: Vec<(usize, ChannelId, Bytes)>,
}

pub type SpanLog = Rc<RefCell<Spans>>;

pub fn span_log(clock: Clock, capture: bool) -> SpanLog {
    Rc::new(RefCell::new(Spans {
        clock,
        capture,
        ..Spans::default()
    }))
}

/// Times every call into an [`Engine`].
pub struct TimedEngine<E> {
    inner: E,
    log: SpanLog,
}

impl<E: Engine> TimedEngine<E> {
    pub fn new(inner: E, log: SpanLog) -> Self {
        TimedEngine { inner, log }
    }

    fn timed(&mut self, f: impl FnOnce(&mut E)) {
        let clock = self.log.borrow().clock;
        let t = clock.now_ns();
        f(&mut self.inner);
        let ns = clock.now_ns().saturating_sub(t);
        let mut log = self.log.borrow_mut();
        log.engine_ns += ns;
        log.engine_calls += 1;
    }
}

impl<E: Engine> Engine for TimedEngine<E> {
    fn start(&mut self, out: &mut EngineOut) {
        self.timed(|e| e.start(out))
    }
    fn handle(&mut self, session: u64, from: usize, body: &Body, out: &mut EngineOut) {
        self.timed(|e| e.handle(session, from, body, out))
    }
    fn on_timer(&mut self, session: u64, local: u32, out: &mut EngineOut) {
        self.timed(|e| e.on_timer(session, local, out))
    }
    fn on_work_available(&mut self, out: &mut EngineOut) {
        self.timed(|e| e.on_work_available(out))
    }
    fn restore_chain(&mut self, blocks: Vec<Block>) {
        self.inner.restore_chain(blocks)
    }
    fn adopt_chain(&mut self, blocks: Vec<Block>, out: &mut EngineOut) {
        self.timed(|e| e.adopt_chain(blocks, out))
    }
    fn key_epoch(&self, session: u64) -> u64 {
        self.inner.key_epoch(session)
    }
    fn blocks(&self) -> &[Block] {
        self.inner.blocks()
    }
    fn is_done(&self) -> bool {
        self.inner.is_done()
    }
}

/// Times every callback of a [`NodeBehavior`].
pub struct TimedNode<B> {
    pub inner: B,
    me: usize,
    log: SpanLog,
}

impl<B: NodeBehavior> TimedNode<B> {
    pub fn new(inner: B, me: usize, log: SpanLog) -> Self {
        TimedNode { inner, me, log }
    }

    fn call(&mut self, ctx: &mut NodeCtx, entered: u64, f: impl FnOnce(&mut B, &mut NodeCtx)) {
        let clock = self.log.borrow().clock;
        let (now, node) = (ctx.now(), ctx.node_id());
        let t = clock.now_ns();
        let (cmds, charged) = {
            let mut inner_ctx = NodeCtx::external(now, node, ctx.rng());
            f(&mut self.inner, &mut inner_ctx);
            inner_ctx.finish()
        };
        let callback_ns = clock.now_ns().saturating_sub(t);
        ctx.charge_cpu(charged);
        let mut log = self.log.borrow_mut();
        for cmd in cmds {
            match cmd {
                Command::Broadcast {
                    channel,
                    payload,
                    nominal_len,
                    slot,
                } => {
                    log.frames_out += 1;
                    if log.capture {
                        log.sent.push((self.me, channel, payload.clone()));
                    }
                    match slot {
                        Some(slot) => ctx.broadcast_slot(channel, payload, nominal_len, slot),
                        None => ctx.broadcast(channel, payload, nominal_len),
                    }
                }
                Command::SetTimer { after, id } => ctx.set_timer(after, id),
                Command::JoinChannel(ch) => ctx.join_channel(ch),
                Command::LeaveChannel(ch) => ctx.leave_channel(ch),
            }
        }
        log.driver_ns += callback_ns;
        log.shim_ns += clock
            .now_ns()
            .saturating_sub(entered)
            .saturating_sub(callback_ns);
    }
}

impl<B: NodeBehavior> NodeBehavior for TimedNode<B> {
    fn on_start(&mut self, ctx: &mut NodeCtx) {
        let entered = self.log.borrow().clock.now_ns();
        self.call(ctx, entered, |b, c| b.on_start(c))
    }

    fn on_frame(&mut self, frame: &Frame, ctx: &mut NodeCtx) {
        let entered = {
            let mut log = self.log.borrow_mut();
            let entered = log.clock.now_ns();
            if log.capture {
                log.delivered.push(frame.clone());
            }
            entered
        };
        self.call(ctx, entered, |b, c| b.on_frame(frame, c))
    }

    fn on_timer(&mut self, id: u64, ctx: &mut NodeCtx) {
        let entered = self.log.borrow().clock.now_ns();
        self.call(ctx, entered, |b, c| b.on_timer(id, c))
    }
}

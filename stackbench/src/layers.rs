//! Forwarding wrappers around the stack's public layer boundaries.
//!
//! The traced run assembles the stack by hand from the public
//! constructors and slips one wrapper into each boundary:
//!
//! * [`TracedNode`] — `NodeProgram` around `MappingHost` (layer 1 → 3),
//! * [`TracedHandler`] — `TicketHandler` around `RecursionHost`
//!   (layer 3 → 4), which hands the host a [`TracedCtx`] so the calls
//!   layer 4 makes back down into layer 3 (`call`, `reply`, ...) are
//!   timed too,
//! * [`TracedFactory`]/[`TracedMapper`] — the per-node mapper,
//! * [`TracedApp`] — `RecProgram` around the application (layer 4 → 5).
//!
//! Each wrapper times the inclusive wall time of the calls it forwards
//! and counts them. A layer's self time is its inclusive time minus the
//! time of the layers it calls (see [`Totals`]). Nothing here changes
//! what the stack computes: every wrapper forwards its arguments and
//! results untouched.
//!
//! Accumulators are per thread — the sharded engine calls the wrappers
//! from its shard threads — and only their owning thread writes them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hyperspace_mapping::{
    CallCtx, MapView, Mapper, MapperFactory, Target, Ticket, TicketHandler, Weight,
};
use hyperspace_recursion::{RecProgram, Resumed, Spawn, Step};
use hyperspace_sim::{InitCtx, NodeId, NodeProgram, Outbox};

/// The timed boundaries.
#[derive(Clone, Copy)]
enum Timer {
    /// `NodeProgram::on_message`/`on_tick` of the mapping host.
    Node,
    /// `TicketHandler` callbacks of the recursion host.
    Handler,
    /// `CallCtx` calls the recursion host makes into layer 3.
    Ctx,
    /// `Mapper::choose`.
    Choose,
    /// `RecProgram::start`/`resume` of the application.
    App,
}

const TIMERS: usize = 5;

/// One thread's running totals.
#[derive(Default)]
struct ThreadTotals {
    ns: [AtomicU64; TIMERS],
    calls: [AtomicU64; TIMERS],
}

impl ThreadTotals {
    /// Adds one call of `ns` nanoseconds. Only the owning thread writes,
    /// so a load and a store suffice; readers sum the totals after the
    /// solve's threads have been joined.
    #[inline]
    fn add(&self, timer: Timer, ns: u64) {
        let i = timer as usize;
        self.ns[i].store(self.ns[i].load(Ordering::Relaxed) + ns, Ordering::Relaxed);
        self.calls[i].store(self.calls[i].load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// Every thread's totals, kept alive after the thread exits.
static THREADS: Mutex<Vec<Arc<ThreadTotals>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<ThreadTotals> = {
        let totals = Arc::new(ThreadTotals::default());
        THREADS
            .lock()
            .expect("totals registry poisoned")
            .push(Arc::clone(&totals));
        totals
    };
}

#[inline]
fn timed<R>(timer: Timer, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    LOCAL.with(|totals| totals.add(timer, ns));
    out
}

/// Inclusive nanoseconds and call counts per boundary, summed over
/// threads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    ns: [u64; TIMERS],
    calls: [u64; TIMERS],
}

impl Totals {
    /// The current totals of every thread that ever recorded.
    pub fn now() -> Totals {
        let mut out = Totals::default();
        for t in THREADS.lock().expect("totals registry poisoned").iter() {
            for i in 0..TIMERS {
                out.ns[i] += t.ns[i].load(Ordering::Relaxed);
                out.calls[i] += t.calls[i].load(Ordering::Relaxed);
            }
        }
        out
    }

    /// What was recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut out = Totals::default();
        for i in 0..TIMERS {
            out.ns[i] = self.ns[i] - earlier.ns[i];
            out.calls[i] = self.calls[i] - earlier.calls[i];
        }
        out
    }

    fn ns(&self, timer: Timer) -> u64 {
        self.ns[timer as usize]
    }

    /// Thread-nanoseconds spent in layer 3 (mapping host and mapper), outside
    /// the layer-4 callbacks it drives but including the calls layer 4
    /// makes back into it.
    pub fn mapping_self_ns(&self) -> u64 {
        self.ns(Timer::Node) - self.ns(Timer::Handler) + self.ns(Timer::Ctx)
    }

    /// Thread-nanoseconds spent in layer 4 (recursion host) itself.
    pub fn recursion_self_ns(&self) -> u64 {
        self.ns(Timer::Handler) - self.ns(Timer::Ctx) - self.ns(Timer::App)
    }

    /// Thread-nanoseconds spent in the application's `start`/`resume`.
    pub fn app_ns(&self) -> u64 {
        self.ns(Timer::App)
    }

    /// Thread-nanoseconds spent below the engine (everything the node
    /// program does).
    pub fn node_ns(&self) -> u64 {
        self.ns(Timer::Node)
    }

    /// Thread-nanoseconds spent in `Mapper::choose`.
    pub fn choose_ns(&self) -> u64 {
        self.ns(Timer::Choose)
    }

    /// `Mapper::choose` calls.
    pub fn choose_calls(&self) -> u64 {
        self.calls[Timer::Choose as usize]
    }

    /// `RecProgram::start` plus `resume` calls.
    pub fn app_calls(&self) -> u64 {
        self.calls[Timer::App as usize]
    }
}

/// Layer 1 → 3: the node program around the mapping host.
pub struct TracedNode<P>(pub P);

impl<P: NodeProgram> NodeProgram for TracedNode<P> {
    type Msg = P::Msg;
    type State = P::State;

    fn init(&self, node: NodeId, ctx: &InitCtx) -> P::State {
        self.0.init(node, ctx)
    }

    fn on_message(&self, state: &mut P::State, msg: P::Msg, ctx: &mut Outbox<'_, P::Msg>) {
        timed(Timer::Node, || self.0.on_message(state, msg, ctx))
    }

    fn on_tick(&self, state: &mut P::State, ctx: &mut Outbox<'_, P::Msg>) {
        timed(Timer::Node, || self.0.on_tick(state, ctx))
    }

    fn is_idle(&self, state: &P::State) -> bool {
        self.0.is_idle(state)
    }
}

/// Layer 3 → 4: the ticket handler around the recursion host.
pub struct TracedHandler<H>(pub H);

impl<H: TicketHandler> TicketHandler for TracedHandler<H> {
    type Req = H::Req;
    type Resp = H::Resp;
    type State = H::State;

    fn init(&self, node: NodeId) -> H::State {
        self.0.init(node)
    }

    fn on_request(
        &self,
        state: &mut H::State,
        req: H::Req,
        reply_to: Ticket,
        ctx: &mut dyn CallCtx<H::Req, H::Resp>,
    ) {
        timed(Timer::Handler, || {
            self.0.on_request(state, req, reply_to, &mut TracedCtx(ctx))
        })
    }

    fn on_reply(
        &self,
        state: &mut H::State,
        ticket: Ticket,
        resp: H::Resp,
        ctx: &mut dyn CallCtx<H::Req, H::Resp>,
    ) {
        timed(Timer::Handler, || {
            self.0.on_reply(state, ticket, resp, &mut TracedCtx(ctx))
        })
    }

    fn on_cancel(
        &self,
        state: &mut H::State,
        reply_to: Ticket,
        ctx: &mut dyn CallCtx<H::Req, H::Resp>,
    ) {
        timed(Timer::Handler, || {
            self.0.on_cancel(state, reply_to, &mut TracedCtx(ctx))
        })
    }

    fn on_bound(&self, state: &mut H::State, value: i64, ctx: &mut dyn CallCtx<H::Req, H::Resp>) {
        timed(Timer::Handler, || {
            self.0.on_bound(state, value, &mut TracedCtx(ctx))
        })
    }
}

/// Layer 4 → 3: the call context the recursion host issues calls on.
struct TracedCtx<'a, Q, R>(&'a mut dyn CallCtx<Q, R>);

impl<Q, R> CallCtx<Q, R> for TracedCtx<'_, Q, R> {
    fn call_hint(&mut self, req: Q, hint: Weight) -> Ticket {
        timed(Timer::Ctx, || self.0.call_hint(req, hint))
    }

    fn reply(&mut self, ticket: Ticket, resp: R) {
        timed(Timer::Ctx, || self.0.reply(ticket, resp))
    }

    fn cancel(&mut self, ticket: Ticket) {
        timed(Timer::Ctx, || self.0.cancel(ticket))
    }

    fn share_bound(&mut self, value: i64) {
        timed(Timer::Ctx, || self.0.share_bound(value))
    }

    fn step(&self) -> u64 {
        self.0.step()
    }

    fn halt(&mut self) {
        self.0.halt()
    }
}

/// The mapper factory, building a [`TracedMapper`] per node.
pub struct TracedFactory<F>(pub F);

impl<F: MapperFactory> MapperFactory for TracedFactory<F> {
    type M = TracedMapper<F::M>;

    fn build(&self, node: NodeId, degree: usize) -> TracedMapper<F::M> {
        TracedMapper(self.0.build(node, degree))
    }
}

/// A node's mapper, with `choose` timed.
pub struct TracedMapper<M>(M);

impl<M: Mapper> Mapper for TracedMapper<M> {
    fn choose(&mut self, view: &MapView) -> Target {
        timed(Timer::Choose, || self.0.choose(view))
    }

    fn observe(&mut self, port: usize, load: u64) {
        self.0.observe(port, load)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// Layer 4 → 5: the application program.
pub struct TracedApp<P>(pub P);

/// Re-labels a step of the inner program as a step of the wrapper (the
/// argument, result and frame types are the same).
fn lift<P: RecProgram>(step: Step<P>) -> Step<TracedApp<P>> {
    match step {
        Step::Done(out) => Step::Done(out),
        Step::Spawn(Spawn { calls, join, frame }) => Step::Spawn(Spawn { calls, join, frame }),
    }
}

impl<P: RecProgram> RecProgram for TracedApp<P> {
    type Arg = P::Arg;
    type Out = P::Out;
    type Frame = P::Frame;

    fn start(&self, arg: P::Arg) -> Step<Self> {
        lift(timed(Timer::App, || self.0.start(arg)))
    }

    fn resume(&self, frame: P::Frame, results: Resumed<P::Out>) -> Step<Self> {
        lift(timed(Timer::App, || self.0.resume(frame, results)))
    }

    fn weight(&self, arg: &P::Arg) -> Weight {
        self.0.weight(arg)
    }

    fn solution_value(&self, out: &P::Out) -> Option<i64> {
        self.0.solution_value(out)
    }

    fn bound(&self, arg: &P::Arg) -> Option<i64> {
        self.0.bound(arg)
    }

    fn pruned(&self, arg: &P::Arg) -> Option<P::Out> {
        self.0.pruned(arg)
    }
}

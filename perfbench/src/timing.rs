//! Wall-clock attribution from outside the program: timing wrappers around
//! the two callback seams the kernel exposes (the client `World` and each
//! server's `AppHandler`), plus a ledger the workloads add their own
//! outer timers to.
//!
//! Wrapped calls never nest inside each other (the kernel calls the world
//! and the servers, never one from the other), so a layer's self time is
//! its outer timer minus the wrapped calls made under it.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use sched::TaskId;
use simcore::Nanos;
use simnet::Packet;
use simos::{AppEvent, AppHandler, SysCtx, World, WorldAction};

/// Accumulated wall time and call count of one timed seam.
#[derive(Default)]
pub struct Seam {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Seam {
    fn add(&self, since: Instant) {
        self.ns
            .set(self.ns.get() + since.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }

    /// Total wall time in seconds.
    pub fn secs(&self) -> f64 {
        self.ns.get() as f64 * 1e-9
    }

    /// Number of timed calls.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    fn reset(&self) {
        self.ns.set(0);
        self.calls.set(0);
    }

    /// Times `f` into this seam.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(t);
        out
    }
}

/// Every seam the benchmark times.
#[derive(Default)]
pub struct Ledger {
    /// Client-world callbacks (`World::on_packet` / `on_timer`).
    pub world: Seam,
    /// Server upcalls (`AppHandler::on_event`), including the syscalls
    /// each upcall issues.
    pub upcall: Seam,
    /// Outer calls into the simulator: `Kernel::step_until` for a single
    /// kernel, `simcluster::World::run` for the cluster.
    pub step: Seam,
    /// `GlobalShare::rebalance` calls.
    pub rebalance: Seam,
    /// `Orchestrator::tick` calls.
    pub tick: Seam,
}

impl Ledger {
    /// Zeroes every seam (at the start of the measured window).
    pub fn reset(&self) {
        for s in [
            &self.world,
            &self.upcall,
            &self.step,
            &self.rebalance,
            &self.tick,
        ] {
            s.reset();
        }
    }
}

/// A `World` whose callbacks are timed into a [`Ledger`].
pub struct TimedWorld {
    inner: Box<dyn World>,
    ledger: Rc<Ledger>,
}

impl TimedWorld {
    pub fn new(inner: Box<dyn World>, ledger: Rc<Ledger>) -> Self {
        TimedWorld { inner, ledger }
    }
}

impl World for TimedWorld {
    fn on_packet(&mut self, pkt: Packet, now: Nanos, actions: &mut Vec<WorldAction>) {
        let t = Instant::now();
        self.inner.on_packet(pkt, now, actions);
        self.ledger.world.add(t);
    }

    fn on_timer(&mut self, tag: u64, now: Nanos, actions: &mut Vec<WorldAction>) {
        let t = Instant::now();
        self.inner.on_timer(tag, now, actions);
        self.ledger.world.add(t);
    }
}

/// An `AppHandler` whose upcalls are timed into a [`Ledger`].
pub struct TimedApp {
    inner: Box<dyn AppHandler>,
    ledger: Rc<Ledger>,
}

impl AppHandler for TimedApp {
    fn on_event(&mut self, sys: &mut SysCtx<'_>, thread: TaskId, event: AppEvent) {
        let t = Instant::now();
        self.inner.on_event(sys, thread, event);
        self.ledger.upcall.add(t);
    }
}

/// Wraps a server in a timing shim when a ledger is present.
pub fn app(inner: Box<dyn AppHandler>, ledger: &Option<Rc<Ledger>>) -> Box<dyn AppHandler> {
    match ledger {
        Some(l) => Box::new(TimedApp {
            inner,
            ledger: Rc::clone(l),
        }),
        None => inner,
    }
}

/// Wraps a client world in a timing shim when a ledger is present.
pub fn world(inner: Box<dyn World>, ledger: &Option<Rc<Ledger>>) -> Box<dyn World> {
    match ledger {
        Some(l) => Box::new(TimedWorld::new(inner, Rc::clone(l))),
        None => inner,
    }
}

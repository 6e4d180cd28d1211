//! The simulation kernel: event dispatch loop and scheduling context.

use crate::event::{EventQueue, WheelGeometry};
use crate::time::{SimDuration, SimTime};

/// A complete simulated system.
///
/// The whole network — routers, links, network adapters, traffic sources —
/// is one `Model` with a single event enum. This keeps dispatch monomorphic
/// and avoids shared-ownership webs between components.
pub trait Model {
    /// The event type dispatched to this model.
    type Event;

    /// Handles one event at the current simulation time.
    fn handle(&mut self, event: Self::Event, ctx: &mut Ctx<Self::Event>);

    /// Reports whether the model is quiescent (has no outstanding work)
    /// when the event queue drains.
    ///
    /// A model that still has work pending (e.g. flits buffered in a
    /// deadlocked network) should return `false` so
    /// [`Kernel::run_to_quiescence`] can report a stall instead of
    /// silently terminating. The default is `true`.
    fn quiescent(&self) -> bool {
        true
    }

    /// Display names for the event kinds reported by
    /// [`Model::event_kind`], indexed by kind. Used only by the kernel
    /// profiler ([`Kernel::enable_profiling`]).
    fn event_kind_names(&self) -> &'static [&'static str] {
        &["event"]
    }

    /// Classifies an event into a kind index (`< event_kind_names().len()`)
    /// for per-kind dispatch counts in the kernel profiler. The default
    /// lumps everything into one kind.
    fn event_kind(&self, _event: &Self::Event) -> usize {
        0
    }
}

/// Scheduling context handed to [`Model::handle`].
///
/// Allows the model to read the current time and schedule future events.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Ctx<'a, E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — clockless hardware is causal.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {now})",
            now = self.now
        );
        self.queue.push(at, event);
    }

    /// Number of events currently pending in the queue (not counting the
    /// one being handled). Lets a self-rescheduling housekeeping event
    /// (e.g. a telemetry sampler) stop when it is the only thing keeping
    /// the simulation alive.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl<'a, E> std::fmt::Debug for Ctx<'a, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("now", &self.now).finish()
    }
}

/// Why a [`Kernel`] run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The time horizon was reached with events still pending.
    HorizonReached,
    /// The event queue drained and the model reported itself quiescent.
    Quiescent,
    /// The event queue drained but the model still has outstanding work —
    /// the simulated system is stalled (e.g. deadlocked).
    Stalled,
    /// The event budget was exhausted before the horizon.
    EventBudgetExhausted,
}

impl RunOutcome {
    /// True for the healthy terminations (`HorizonReached` / `Quiescent`).
    pub fn is_ok(self) -> bool {
        matches!(self, RunOutcome::HorizonReached | RunOutcome::Quiescent)
    }
}

/// Kernel self-profiling data: per-event-kind dispatch counts and event
/// queue occupancy statistics, sampled at every dispatch.
///
/// Collected only when [`Kernel::enable_profiling`] has been called;
/// otherwise the hot loop pays a single branch on a `None`.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    kind_names: &'static [&'static str],
    kind_counts: Vec<u64>,
    queue_len_sum: u128,
    queue_len_max: usize,
    occupied_sum: u128,
    occupied_max: usize,
    samples: u64,
}

impl KernelProfile {
    fn new(kind_names: &'static [&'static str]) -> Self {
        KernelProfile {
            kind_names,
            kind_counts: vec![0; kind_names.len()],
            queue_len_sum: 0,
            queue_len_max: 0,
            occupied_sum: 0,
            occupied_max: 0,
            samples: 0,
        }
    }

    #[inline]
    fn record(&mut self, kind: usize, queue_len: usize, occupied: usize) {
        self.kind_counts[kind] += 1;
        self.queue_len_sum += queue_len as u128;
        self.queue_len_max = self.queue_len_max.max(queue_len);
        self.occupied_sum += occupied as u128;
        self.occupied_max = self.occupied_max.max(occupied);
        self.samples += 1;
    }

    /// `(name, dispatch count)` per event kind, in kind-index order.
    pub fn kind_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kind_names
            .iter()
            .copied()
            .zip(self.kind_counts.iter().copied())
    }

    /// Number of dispatches sampled.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean pending-event count observed at dispatch.
    pub fn queue_len_mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.queue_len_sum as f64 / self.samples as f64
        }
    }

    /// Maximum pending-event count observed at dispatch.
    pub fn queue_len_max(&self) -> usize {
        self.queue_len_max
    }

    /// Mean number of occupied wheel buckets observed at dispatch.
    pub fn occupied_buckets_mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.occupied_sum as f64 / self.samples as f64
        }
    }

    /// Maximum number of occupied wheel buckets observed at dispatch.
    pub fn occupied_buckets_max(&self) -> usize {
        self.occupied_max
    }
}

/// The discrete-event simulation kernel.
///
/// Owns the model and the event queue and runs the dispatch loop.
pub struct Kernel<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    processed: u64,
    profile: Option<Box<KernelProfile>>,
}

impl<M: Model> Kernel<M> {
    /// Creates a kernel for `model` at time zero with an empty queue of
    /// the default wheel geometry.
    pub fn new(model: M) -> Self {
        Self::with_geometry(model, WheelGeometry::DEFAULT)
    }

    /// Creates a kernel whose event queue uses `geometry` — chosen per
    /// scenario via [`WheelGeometry::for_mesh`] (delivery order, and thus
    /// every simulation result, is geometry-independent; only throughput
    /// changes).
    pub fn with_geometry(model: M, geometry: WheelGeometry) -> Self {
        Kernel {
            model,
            queue: EventQueue::with_geometry(geometry),
            now: SimTime::ZERO,
            processed: 0,
            profile: None,
        }
    }

    /// Turns on kernel self-profiling: per-kind dispatch counts (via
    /// [`Model::event_kind`]) and queue occupancy statistics. Resets any
    /// previously collected profile.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Box::new(KernelProfile::new(self.model.event_kind_names())));
    }

    /// The collected profile, if [`Kernel::enable_profiling`] was called.
    pub fn profile(&self) -> Option<&KernelProfile> {
        self.profile.as_deref()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events currently pending.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// The wheel geometry of the event queue.
    pub fn queue_geometry(&self) -> WheelGeometry {
        self.queue.geometry()
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the kernel, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, event: M::Event) {
        self.queue.push(self.now + delay, event);
    }

    /// Dispatches events until `horizon` (exclusive for later events: the
    /// clock stops exactly at `horizon` if events remain beyond it).
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.run_inner(horizon, u64::MAX)
    }

    /// Dispatches events for `span` of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration) -> RunOutcome {
        self.run_until(self.now + span)
    }

    /// Dispatches events until the queue drains, reporting whether the model
    /// ended quiescent or stalled.
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.run_inner(SimTime::MAX, u64::MAX)
    }

    /// Dispatches at most `budget` further events (or until drain/horizon).
    ///
    /// Useful as a runaway backstop in tests that would otherwise hang on a
    /// livelocked model.
    pub fn run_with_budget(&mut self, horizon: SimTime, budget: u64) -> RunOutcome {
        self.run_inner(horizon, budget)
    }

    fn run_inner(&mut self, horizon: SimTime, budget: u64) -> RunOutcome {
        let mut remaining = budget;
        loop {
            if remaining == 0 {
                // Exhaustion only counts if an event was actually due;
                // drain/horizon outcomes take precedence (rare path —
                // real runs use an unlimited budget).
                return match self.queue.peek_time() {
                    None => self.drained_outcome(horizon),
                    Some(t) if t > horizon => {
                        self.now = horizon;
                        RunOutcome::HorizonReached
                    }
                    Some(_) => RunOutcome::EventBudgetExhausted,
                };
            }
            let Some((t, ev)) = self.queue.pop_at_or_before(horizon) else {
                if self.queue.is_empty() {
                    return self.drained_outcome(horizon);
                }
                self.now = horizon;
                return RunOutcome::HorizonReached;
            };
            remaining -= 1;
            debug_assert!(t >= self.now, "event queue delivered out of order");
            self.now = t;
            if self.profile.is_some() {
                self.record_profile_sample(&ev);
            }
            let mut ctx = Ctx {
                now: t,
                queue: &mut self.queue,
            };
            self.model.handle(ev, &mut ctx);
            self.processed += 1;
        }
    }

    /// One profiler sample, outlined so the dispatch loop carries only
    /// the `is_some` branch — `event_kind` dispatch and the wheel
    /// occupancy scan must not bloat the hot path they measure.
    #[cold]
    #[inline(never)]
    fn record_profile_sample(&mut self, ev: &M::Event) {
        let kind = self.model.event_kind(ev);
        let p = self.profile.as_deref_mut().expect("checked by caller");
        p.record(kind, self.queue.len(), self.queue.occupied_buckets());
    }

    /// The outcome when the queue drained: advance the clock to a finite
    /// horizon so back-to-back runs see consistent time, and report
    /// whether the model has outstanding work.
    fn drained_outcome(&mut self, horizon: SimTime) -> RunOutcome {
        if horizon != SimTime::MAX {
            self.now = horizon;
        }
        if self.model.quiescent() {
            RunOutcome::Quiescent
        } else {
            RunOutcome::Stalled
        }
    }
}

impl<M: Model> std::fmt::Debug for Kernel<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("pending", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that relays N ping-pong events with 10 ps spacing.
    struct PingPong {
        remaining: u32,
        done: bool,
        log: Vec<(SimTime, u32)>,
    }

    enum Ev {
        Ping(u32),
    }

    impl Model for PingPong {
        type Event = Ev;
        fn handle(&mut self, Ev::Ping(id): Ev, ctx: &mut Ctx<Ev>) {
            self.log.push((ctx.now(), id));
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule(SimDuration::from_ps(10), Ev::Ping(id + 1));
            } else {
                self.done = true;
            }
        }
        fn quiescent(&self) -> bool {
            self.done
        }
    }

    fn kernel(n: u32) -> Kernel<PingPong> {
        let mut k = Kernel::new(PingPong {
            remaining: n,
            done: false,
            log: Vec::new(),
        });
        k.schedule(SimDuration::ZERO, Ev::Ping(0));
        k
    }

    /// A kernel over a `Send` model must itself be `Send`: parallel
    /// parameter sweeps hand one kernel to each worker thread.
    #[test]
    fn kernel_is_send_for_send_models() {
        fn assert_send<T: Send>() {}
        assert_send::<Kernel<PingPong>>();
    }

    #[test]
    fn runs_to_quiescence() {
        let mut k = kernel(5);
        assert_eq!(k.run_to_quiescence(), RunOutcome::Quiescent);
        assert_eq!(k.events_processed(), 6);
        assert_eq!(k.now(), SimTime::from_ps(50));
        assert_eq!(k.model().log.len(), 6);
    }

    #[test]
    fn horizon_stops_the_clock_exactly() {
        let mut k = kernel(100);
        assert_eq!(
            k.run_until(SimTime::from_ps(25)),
            RunOutcome::HorizonReached
        );
        assert_eq!(k.now(), SimTime::from_ps(25));
        // Events at 0, 10, 20 fired; 30+ pending.
        assert_eq!(k.events_processed(), 3);
        assert_eq!(
            k.run_until(SimTime::from_ps(30)),
            RunOutcome::HorizonReached
        );
        assert_eq!(k.events_processed(), 4);
    }

    #[test]
    fn event_at_horizon_is_delivered() {
        let mut k = kernel(3);
        // Events at 0,10,20,30. Horizon exactly 30 must include the last one.
        assert_eq!(k.run_until(SimTime::from_ps(30)), RunOutcome::Quiescent);
        assert_eq!(k.events_processed(), 4);
    }

    #[test]
    fn stall_detected_when_model_not_quiescent() {
        struct Stuck;
        impl Model for Stuck {
            type Event = ();
            fn handle(&mut self, _: (), _: &mut Ctx<()>) {}
            fn quiescent(&self) -> bool {
                false // pretends to always have outstanding work
            }
        }
        let mut k = Kernel::new(Stuck);
        k.schedule(SimDuration::ZERO, ());
        assert_eq!(k.run_to_quiescence(), RunOutcome::Stalled);
    }

    #[test]
    fn event_budget_is_a_backstop() {
        let mut k = kernel(1_000_000);
        assert_eq!(
            k.run_with_budget(SimTime::MAX, 10),
            RunOutcome::EventBudgetExhausted
        );
        assert_eq!(k.events_processed(), 10);
    }

    #[test]
    fn same_seed_same_trace() {
        let run = || {
            let mut k = kernel(50);
            k.run_to_quiescence();
            k.into_model().log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_for_advances_relative_to_now() {
        let mut k = kernel(100);
        k.run_for(SimDuration::from_ps(15));
        assert_eq!(k.now(), SimTime::from_ps(15));
        k.run_for(SimDuration::from_ps(15));
        assert_eq!(k.now(), SimTime::from_ps(30));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _: (), ctx: &mut Ctx<()>) {
                ctx.schedule_at(SimTime::ZERO, ());
            }
        }
        let mut k = Kernel::new(Bad);
        k.schedule(SimDuration::from_ps(5), ());
        k.run_to_quiescence();
    }

    #[test]
    fn profiling_counts_every_dispatch() {
        let mut k = kernel(5);
        k.enable_profiling();
        k.run_to_quiescence();
        let p = k.profile().expect("profiling enabled");
        assert_eq!(p.samples(), 6);
        let counts: Vec<_> = p.kind_counts().collect();
        assert_eq!(counts, vec![("event", 6)]);
        // The per-kind census must cover every dispatch exactly once —
        // no event may be dropped from or double-counted in the profile.
        let census: u64 = p.kind_counts().map(|(_, c)| c).sum();
        assert_eq!(census, p.samples());
        assert_eq!(census, k.events_processed());
        // Ping-pong keeps at most one event pending; occupancy stats are
        // sampled after the pop, so everything is tiny but well-defined.
        assert!(p.queue_len_max() <= 1);
        assert!(p.queue_len_mean() <= 1.0);
        assert!(p.occupied_buckets_max() <= 1);
    }

    #[test]
    fn profiling_off_collects_nothing() {
        let mut k = kernel(5);
        k.run_to_quiescence();
        assert!(k.profile().is_none());
    }

    #[test]
    fn quiescent_drain_advances_clock_to_finite_horizon() {
        let mut k = kernel(2); // events at 0,10,20
        assert_eq!(k.run_until(SimTime::from_ps(1000)), RunOutcome::Quiescent);
        assert_eq!(k.now(), SimTime::from_ps(1000));
    }
}

//! The simulation kernel: event dispatch loop and scheduling context.

use crate::event::{EventQueue, Slot, WheelGeometry};
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

    /// Display names for the kinds of reserved slot the model passes to
    /// [`Ctx::reserve`] / [`Ctx::schedule_reserved`], indexed by kind.
    /// Used only by the kernel profiler; the default has none.
    fn slot_kind_names(&self) -> &'static [&'static str] {
        &[]
    }

    /// The event queue drained: every event keyed at or below `upto`
    /// has fired. A model that holds reserved slots it never queued
    /// settles the ones at or below `upto` here, before
    /// [`Model::quiescent`] is asked. The default does nothing.
    fn settle(&mut self, _upto: Slot) {}
}

/// Scheduling context handed to [`Model::handle`].
///
/// Allows the model to read the current time and schedule future events
/// — or to [`reserve`](Ctx::reserve) an event's place in the order and
/// decide later whether it needs to fire at all.
pub struct Ctx<'a, E> {
    stamp: Slot,
    horizon: SimTime,
    queue: &'a mut EventQueue<E>,
    profile: Option<&'a mut KernelProfile>,
}

impl<'a, E> Ctx<'a, E> {
    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.stamp.time()
    }

    /// Ends the run once every event due now has fired, as a horizon at
    /// now would.
    #[inline]
    pub fn halt(&mut self) {
        self.horizon = self.now();
    }

    /// The key of the event being handled. Every event keyed below it
    /// has fired; a reserved slot at or below it is one whose event, had
    /// it been queued, would have fired already.
    #[inline]
    pub fn stamp(&self) -> Slot {
        self.stamp
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now() + delay, event);
    }

    /// Schedules `event` at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — clockless hardware is causal.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now(),
            "cannot schedule into the past ({at} < {now})",
            now = self.now()
        );
        self.queue.push(at, event);
    }

    /// Takes the place in the event order that an event of slot kind
    /// `kind` (see [`Model::slot_kind_names`]) scheduled now with `delay`
    /// would get — the next sequence number — without queueing anything.
    /// Every later [`schedule`](Ctx::schedule) orders exactly as if the
    /// event were pending.
    #[inline]
    pub fn reserve(&mut self, kind: usize, delay: SimDuration) -> Slot {
        if let Some(p) = self.profile.as_deref_mut() {
            p.slots_reserved[kind] += 1;
        }
        self.queue.reserve(self.stamp.time() + delay)
    }

    /// Queues `event` at a slot [`reserve`](Ctx::reserve)d earlier: it
    /// fires exactly where it would have, had it been scheduled at
    /// reservation time. The slot must still be ahead — one at or below
    /// [`stamp`](Ctx::stamp) has lapsed, and the holder settles it on the
    /// spot instead.
    #[inline]
    pub fn schedule_reserved(&mut self, kind: usize, slot: Slot, event: E) {
        debug_assert!(slot > self.stamp, "reserved slot {slot:?} already lapsed");
        if let Some(p) = self.profile.as_deref_mut() {
            p.slots_queued[kind] += 1;
        }
        self.queue.insert(slot, event);
    }

    /// True if any event other than the one being handled is still to
    /// fire — queued, or reserved at a key still ahead (whether or not it
    /// will ever be queued: the answer is the one a queue holding every
    /// reserved slot would give). Lets a self-rescheduling housekeeping
    /// event (e.g. a telemetry sampler) stop when it is the only thing
    /// keeping the simulation alive.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty() || self.queue.latest_reserved() > self.stamp
    }
}

impl<'a, E> std::fmt::Debug for Ctx<'a, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("stamp", &self.stamp).finish()
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
}

impl RunOutcome {
    /// True for the healthy terminations (`HorizonReached` / `Quiescent`).
    pub fn is_ok(self) -> bool {
        matches!(self, RunOutcome::HorizonReached | RunOutcome::Quiescent)
    }
}

/// Kernel self-profiling data: per-event-kind dispatch counts, reserved
/// vs queued slots per slot kind, and event queue occupancy statistics
/// sampled at every dispatch.
///
/// Collected only when [`Kernel::enable_profiling`] has been called;
/// otherwise the hot loop pays a single branch on a `None`.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    kind_names: &'static [&'static str],
    kind_counts: Vec<u64>,
    slot_names: &'static [&'static str],
    slots_reserved: Vec<u64>,
    slots_queued: Vec<u64>,
    queue_len_sum: u128,
    queue_len_max: usize,
    occupied_sum: u128,
    occupied_max: usize,
    wheel_entries: usize,
    samples: u64,
}

impl KernelProfile {
    fn new(kind_names: &'static [&'static str], slot_names: &'static [&'static str]) -> Self {
        KernelProfile {
            kind_names,
            kind_counts: vec![0; kind_names.len()],
            slot_names,
            slots_reserved: vec![0; slot_names.len()],
            slots_queued: vec![0; slot_names.len()],
            queue_len_sum: 0,
            queue_len_max: 0,
            occupied_sum: 0,
            occupied_max: 0,
            wheel_entries: 0,
            samples: 0,
        }
    }

    #[inline]
    fn record(&mut self, kind: usize, queue: &EventQueue<impl Sized>) {
        let (queue_len, occupied) = (queue.len(), queue.occupied_buckets());
        self.kind_counts[kind] += 1;
        self.queue_len_sum += queue_len as u128;
        self.queue_len_max = self.queue_len_max.max(queue_len);
        self.occupied_sum += occupied as u128;
        self.occupied_max = self.occupied_max.max(occupied);
        self.wheel_entries = queue.entry_high_water();
        self.samples += 1;
    }

    /// `(name, dispatch count)` per event kind, in kind-index order.
    pub fn kind_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kind_names
            .iter()
            .copied()
            .zip(self.kind_counts.iter().copied())
    }

    /// `(name, reserved, queued)` per slot kind, in kind-index order:
    /// how many slots [`Ctx::reserve`] handed out and how many of them
    /// [`Ctx::schedule_reserved`] turned into events. The difference is
    /// the events that were never dispatched — and are in no
    /// [`kind_counts`](Self::kind_counts) row.
    pub fn slot_counts(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        (0..self.slot_names.len()).map(|k| {
            (
                self.slot_names[k],
                self.slots_reserved[k],
                self.slots_queued[k],
            )
        })
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

    /// The wheel's entry high-water mark at the last dispatch: the most
    /// events its buckets held at once since the queue was built, which
    /// is the number of entry slots it keeps
    /// ([`EventQueue::entry_high_water`]).
    pub fn wheel_entries_max(&self) -> usize {
        self.wheel_entries
    }
}

/// The discrete-event simulation kernel.
///
/// Owns the model and the event queue and runs the dispatch loop.
pub struct Kernel<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    /// The key every fired event is at or below: the last pop's, or the
    /// end of the horizon instant once a run has reached it.
    stamp: Slot,
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
            stamp: Slot::MIN,
            processed: 0,
            profile: None,
        }
    }

    /// Turns on kernel self-profiling: per-kind dispatch counts (via
    /// [`Model::event_kind`]) and queue occupancy statistics. Resets any
    /// previously collected profile.
    pub fn enable_profiling(&mut self) {
        self.profile = Some(Box::new(KernelProfile::new(
            self.model.event_kind_names(),
            self.model.slot_kind_names(),
        )));
    }

    /// The collected profile, if [`Kernel::enable_profiling`] was called.
    pub fn profile(&self) -> Option<&KernelProfile> {
        self.profile.as_deref()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.stamp.time()
    }

    /// The key every fired event is at or below (see [`Ctx::stamp`]):
    /// what a model holding reserved slots settles them against between
    /// runs.
    pub fn stamp(&self) -> Slot {
        self.stamp
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events currently queued (reserved slots nobody queued
    /// are not events).
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Slots reserved and never queued so far: the events a model that
    /// queued every slot would have dispatched on top of
    /// [`events_processed`](Self::events_processed) once drained.
    pub fn slots_never_queued(&self) -> u64 {
        self.queue.reserved_total() - self.queue.scheduled_total()
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
        self.queue.push(self.now() + delay, event);
    }

    /// Dispatches events until `horizon` (exclusive for later events: the
    /// clock stops exactly at `horizon` if events remain beyond it), or to
    /// the end of the instant a handler [halts](Ctx::halt) in.
    pub fn run_until(&mut self, mut horizon: SimTime) -> RunOutcome {
        while let Some((slot, ev)) = self.queue.pop_at_or_before(horizon) {
            debug_assert!(
                slot.time() >= self.now(),
                "event queue delivered out of order"
            );
            self.stamp = slot;
            if self.profile.is_some() {
                self.record_profile_sample(&ev);
            }
            let mut ctx = Ctx {
                stamp: slot,
                horizon,
                queue: &mut self.queue,
                profile: self.profile.as_deref_mut(),
            };
            self.model.handle(ev, &mut ctx);
            horizon = ctx.horizon;
            self.processed += 1;
        }
        self.idle_outcome(horizon)
    }

    /// Dispatches events for `span` of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration) -> RunOutcome {
        self.run_until(self.now() + span)
    }

    /// Dispatches events until the queue drains, reporting whether the model
    /// ended quiescent or stalled.
    pub fn run_to_quiescence(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }

    /// One profiler sample, outlined so the dispatch loop carries only
    /// the `is_some` branch — `event_kind` dispatch and the wheel
    /// occupancy scan must not bloat the hot path they measure.
    #[cold]
    #[inline(never)]
    fn record_profile_sample(&mut self, ev: &M::Event) {
        let kind = self.model.event_kind(ev);
        let p = self.profile.as_deref_mut().expect("checked by caller");
        p.record(kind, &self.queue);
    }

    /// The outcome when nothing at or before `horizon` is left to pop.
    /// Reserved slots count as the events they stand for: one still due
    /// beyond the horizon means the horizon was reached, not that the
    /// queue drained; and a drain with no horizon ends at the instant of
    /// the last slot, queued or not. Either way every event at or before
    /// the new clock has fired.
    fn idle_outcome(&mut self, horizon: SimTime) -> RunOutcome {
        let last = self.queue.latest_reserved().time();
        if !self.queue.is_empty() || last > horizon {
            self.stamp = Slot::end_of(horizon);
            return RunOutcome::HorizonReached;
        }
        // Advance the clock to a finite horizon so back-to-back runs see
        // consistent time.
        let end = if horizon == SimTime::MAX {
            last.max(self.now())
        } else {
            horizon
        };
        self.stamp = Slot::end_of(end);
        self.model.settle(self.stamp);
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
            .field("now", &self.now())
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

    /// A halt ends the run at the end of the halting instant: events
    /// still due then fire, later ones wait for the next run.
    #[test]
    fn halt_finishes_the_instant_and_stops_there() {
        struct Halts {
            log: Vec<(SimTime, u32)>,
        }
        impl Model for Halts {
            type Event = u32;
            fn handle(&mut self, id: u32, ctx: &mut Ctx<u32>) {
                self.log.push((ctx.now(), id));
                if id == 1 {
                    ctx.halt();
                }
            }
        }
        let mut k = Kernel::new(Halts { log: Vec::new() });
        for (at, id) in [(10, 0), (20, 1), (20, 2), (30, 3)] {
            k.schedule(SimDuration::from_ps(at), id);
        }
        assert_eq!(k.run_to_quiescence(), RunOutcome::HorizonReached);
        assert_eq!(k.stamp(), Slot::end_of(SimTime::from_ps(20)));
        assert_eq!(k.model().log.len(), 3, "event 2 shares the halting instant");
        assert_eq!(k.run_until(SimTime::from_ps(100)), RunOutcome::Quiescent);
        assert_eq!(k.model().log.last(), Some(&(SimTime::from_ps(30), 3)));
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

    /// A model whose every ping owes an acknowledgment 35 ps later that
    /// changes nothing when it arrives. `eager` queues the ack as an
    /// event (what the parent commit did for credits, unlock toggles and
    /// link-free ticks); otherwise only its slot is reserved. `Probe`
    /// records [`Ctx::has_pending`] — the telemetry sampler's re-arm
    /// rule.
    struct Acked {
        eager: bool,
        pings: u32,
        pending_seen: Vec<(SimTime, bool)>,
    }

    enum AckEv {
        Ping,
        Ack,
        Probe,
    }

    impl Model for Acked {
        type Event = AckEv;
        fn handle(&mut self, ev: AckEv, ctx: &mut Ctx<AckEv>) {
            match ev {
                AckEv::Ping => {
                    self.pings -= 1;
                    if self.pings > 0 {
                        ctx.schedule(SimDuration::from_ps(10), AckEv::Ping);
                    }
                    let slot = ctx.reserve(0, SimDuration::from_ps(35));
                    if self.eager {
                        ctx.schedule_reserved(0, slot, AckEv::Ack);
                    }
                }
                AckEv::Ack => {}
                AckEv::Probe => self.pending_seen.push((ctx.now(), ctx.has_pending())),
            }
        }
        fn slot_kind_names(&self) -> &'static [&'static str] {
            &["ack"]
        }
    }

    fn acked(eager: bool) -> Kernel<Acked> {
        let mut k = Kernel::new(Acked {
            eager,
            pings: 3,
            pending_seen: Vec::new(),
        });
        // Pings at 0, 10, 20; acks due at 35, 45, 55.
        k.schedule(SimDuration::ZERO, AckEv::Ping);
        for at in [20, 50, 55, 60] {
            k.schedule(SimDuration::from_ps(at), AckEv::Probe);
        }
        k
    }

    /// Slots nobody queued still count as the events they stand for:
    /// the run ends when the last of them would have fired, a horizon in
    /// front of one is reached rather than drained to, and `has_pending`
    /// answers as if they were queued. The expected values are the eager
    /// model's, i.e. the parent commit's.
    #[test]
    fn unqueued_slots_keep_drain_and_pending_semantics() {
        for eager in [true, false] {
            let mut k = acked(eager);
            k.enable_profiling();
            // Ack 55 is still ahead of a 52 ps horizon.
            assert_eq!(
                k.run_until(SimTime::from_ps(52)),
                RunOutcome::HorizonReached,
                "eager={eager}"
            );
            assert_eq!(k.now(), SimTime::from_ps(52));
            assert_eq!(k.run_to_quiescence(), RunOutcome::Quiescent);
            assert_eq!(k.now(), SimTime::from_ps(60), "eager={eager}");
            let (acks, never) = if eager { (3, 0) } else { (0, 3) };
            assert_eq!(k.events_processed(), 3 + 4 + acks);
            assert_eq!(k.slots_never_queued(), never);
            let slots: Vec<_> = k.profile().expect("enabled").slot_counts().collect();
            assert_eq!(slots, vec![("ack", 3, acks)]);
            // At 20 the ping of that instant (scheduled first) has
            // already reserved ack 55; at 55 the probe was scheduled
            // before the ack was reserved, so the ack is still ahead.
            let ps = SimTime::from_ps;
            assert_eq!(
                k.model().pending_seen,
                vec![
                    (ps(20), true),
                    (ps(50), true),
                    (ps(55), true),
                    (ps(60), false)
                ],
                "eager={eager}"
            );
        }
        // With no probe behind it, the drain ends on the last ack.
        for eager in [true, false] {
            let mut k = Kernel::new(Acked {
                eager,
                pings: 3,
                pending_seen: Vec::new(),
            });
            k.schedule(SimDuration::ZERO, AckEv::Ping);
            assert_eq!(k.run_to_quiescence(), RunOutcome::Quiescent);
            assert_eq!(k.now(), SimTime::from_ps(55), "eager={eager}");
            assert_eq!(k.stamp(), Slot::end_of(SimTime::from_ps(55)));
        }
    }

    /// `settle` runs when the queue drains, before `quiescent` is asked,
    /// with the key everything has fired up to.
    #[test]
    fn settle_precedes_the_quiescence_check() {
        struct Settles {
            settled: Option<Slot>,
        }
        impl Model for Settles {
            type Event = ();
            fn handle(&mut self, _: (), ctx: &mut Ctx<()>) {
                ctx.reserve(0, SimDuration::from_ps(7));
            }
            fn settle(&mut self, upto: Slot) {
                self.settled = Some(upto);
            }
            fn quiescent(&self) -> bool {
                self.settled.is_some()
            }
        }
        let mut k = Kernel::new(Settles { settled: None });
        k.schedule(SimDuration::from_ps(5), ());
        assert_eq!(
            k.run_until(SimTime::from_ps(10)),
            RunOutcome::HorizonReached
        );
        assert_eq!(k.model().settled, None);
        assert_eq!(k.run_until(SimTime::from_ps(20)), RunOutcome::Quiescent);
        assert_eq!(k.model().settled, Some(Slot::end_of(SimTime::from_ps(20))));
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

//! The time-ordered event queue: a deterministic two-level calendar queue
//! with a runtime-chosen wheel geometry.
//!
//! # Design
//!
//! The queue is the hottest structure in the simulator — every flit hop is
//! at least one push/pop pair — so it is built as a classic discrete-event
//! *calendar queue* (a time wheel) instead of a binary heap:
//!
//! * **Near future — the wheel.** A ring of `num_buckets` buckets, each
//!   covering a window of `2^width_log2` picoseconds, spans the wheel's
//!   *span* from the current *epoch* (the window start of the bucket under
//!   the cursor). An event due at `t` lands in bucket
//!   `(t / width) mod buckets`, linked at the head of that bucket's chain
//!   — O(1), no sifting. A 64-bit occupancy bitmap per 64 buckets lets
//!   the cursor skip runs of empty buckets in a few instructions.
//! * **One entry slab.** Every bucket's events live in one slab of slots
//!   shared by all buckets; a bucket is a `u32` chain head, and a popped
//!   event's slot goes on a free list that the next push takes first (so
//!   it is cache-warm). Each event is copied in once, on push, and out
//!   once, on pop. The slab holds as many slots as the wheel ever held
//!   events at once ([`EventQueue::entry_high_water`]), not the sum of
//!   every bucket's largest burst, which matters because in the
//!   clockless model every stage delay is fixed, so events pile up on
//!   identical picoseconds: a 16×16 mesh's start-up wave puts hundreds
//!   into one bucket.
//! * **Far future — the overflow heap.** Events at or beyond
//!   `epoch + span` go to a binary heap. Whenever the epoch advances,
//!   every overflow event that now falls inside the span is promoted into
//!   its bucket, so the heap only ever handles the sparse far-future tail
//!   (source ticks, watchdogs), not per-hop traffic.
//!
//! # The epoch is never ahead of the caller's clock
//!
//! The cursor moves in one place, and only when a pop finds its bucket
//! empty and the next occupied window starts at or before the pop's
//! horizon. A pop that empties the cursor bucket leaves the cursor where
//! it is — the popped event's handler has yet to schedule its follow-ups,
//! and they may be due before anything else in the wheel — and a pop that
//! returns nothing leaves the epoch at or below the horizon it was asked
//! about. So for a caller that, like the kernel, never schedules before
//! the last event it popped or the last horizon it ran to, every insert
//! is at or after the epoch and lands in one of the two tiers.
//!
//! The API stays total for callers that keep no such clock (tests and
//! reference-model comparisons push at arbitrary times): an insert below
//! the epoch joins the cursor bucket's sorted run, which pops before the
//! cursor moves again.
//!
//! # Geometry
//!
//! The wheel shape is a [`WheelGeometry`] chosen at construction.
//! [`WheelGeometry::DEFAULT`] (2048 × 32 ps) is the tuned shape;
//! [`WheelGeometry::for_mesh`] keeps its bucket count for every mesh and
//! derives only the window width from the model's timing corner (see its
//! docs for the measurement). Geometry affects performance only:
//! delivery order is a pure function of `(time, sequence)` for every
//! legal geometry, which a property test pins by driving adversarial
//! schedules through divergent geometries.
//!
//! # Reserved slots
//!
//! A push is two steps, and a caller may take them apart:
//! [`EventQueue::reserve`] takes the next sequence number and returns
//! the event's key — its [`Slot`] — without storing anything;
//! [`EventQueue::insert`] puts an event at a reserved slot later, or
//! never. The model uses this for events that only matter if somebody is
//! waiting on them when they fire (`mango_net`'s credits, unlock toggles
//! and link-free ticks): the slot is held where the event would have
//! acted and compared with the key of the event being handled instead.
//! Both tiers order by the full key, so a late insert with an old
//! sequence number needs no machinery of its own — it lands in a wheel
//! bucket (the cursor's sorted run or an unsorted later one) or in
//! `overflow` like any push — and every other event pops exactly where
//! it would have with the slot's event queued from the start. The queue
//! remembers the largest slot it ever reserved
//! ([`EventQueue::latest_reserved`]) so the kernel can end a run, and
//! answer "is anything still pending", as if every slot had been filled.
//!
//! # Determinism
//!
//! Delivery order is a pure function of `(time, sequence)`: the bucket
//! under the cursor is kept sorted by that pair (its chain relinked in
//! order once when the cursor arrives, same-window pushes linked in at
//! their place while it drains), the overflow heap orders by the same
//! pair, every later bucket and the heap hold only later times, and
//! every pop takes the cursor bucket's minimum.
//! Two events at the same instant therefore pop in the order they were
//! scheduled — the same guarantee the previous `BinaryHeap` core gave —
//! regardless of which tier an event passed through, which makes
//! simulations bit-for-bit reproducible.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem::MaybeUninit;

/// The shape of the calendar wheel: bucket count × bucket width.
///
/// The two parameters trade cache footprint against per-bucket occupancy:
///
/// * `width` (2^`width_log2` ps) should sit **below the minimum event
///   spacing** of the model so consecutive events of one causal chain land
///   in distinct buckets and per-bucket sorts stay one or two elements
///   deep. The paper's shortest stage delay is 180 ps (typical-corner
///   buffer advance), so the default 32 ps window keeps even
///   worst-case-derated chains apart.
/// * `num_buckets` fixes the span (`buckets × width`) and the chain-head
///   array (4 bytes a bucket). More buckets spread a denser
///   concurrent-event population thinner (shorter per-bucket sorts) at
///   the price of cache footprint — past ~64 K heads every push is a
///   cache miss, which costs more than the sort it saves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WheelGeometry {
    /// Number of wheel buckets (a power of two).
    pub num_buckets: usize,
    /// log2 of the bucket window width in picoseconds.
    pub width_log2: u32,
}

impl WheelGeometry {
    /// The tuned default: 2048 buckets × 32 ps (span ≈ 65 ns).
    ///
    /// Chosen by sweeping the 4×4 `network_sim` benchmark: 2048×32 ps beat
    /// 1024×256 ps by ~8% and 4096×64 ps by ~6%. The span covers hop
    /// latencies and CBR source periods; slower periodic work (BE
    /// background at hundreds of ns, watchdogs) batches through the
    /// overflow heap.
    pub const DEFAULT: WheelGeometry = WheelGeometry {
        num_buckets: 2048,
        width_log2: 5,
    };

    /// The geometry for a mesh scenario: [`WheelGeometry::DEFAULT`]'s
    /// bucket count with the window width taken from the model's timing.
    ///
    /// * **Width from timing.** Consecutive events of one causal chain are
    ///   at least `min_event_delay_ps` apart (the model's shortest stage
    ///   delay). The width is the largest power of two not above a quarter
    ///   of that, clamped to [8 ps, 256 ps] — comfortably below the chain
    ///   spacing, so same-bucket collisions come only from *independent*
    ///   chains. For the paper's 180 ps minimum stage delay this yields
    ///   the default 32 ps; worst-case-derated timing (277 ps) gets 64 ps.
    /// * **Buckets are a constant.** A count grown with `nodes` (it used
    ///   to be `20 × nodes`, up to 32 768) measured no faster than 2048
    ///   on any mesh it changed — 32×32 ran 176 → 126 ns/event with the
    ///   count forced back to 2048: the bucket heads fall out of cache
    ///   long before per-bucket sorts get deep. Entry storage does not
    ///   grow with the count; it follows the pending events. `nodes`
    ///   stays in the signature for its callers.
    pub fn for_mesh(_nodes: usize, min_event_delay_ps: u64) -> WheelGeometry {
        WheelGeometry {
            width_log2: (min_event_delay_ps / 4).max(1).ilog2().clamp(3, 8),
            ..WheelGeometry::DEFAULT
        }
    }

    /// Validates the geometry: a power-of-two bucket count in
    /// [64, 2^20], width in [1 ps, 2^20 ps], and a span that fits `u64`
    /// time arithmetic.
    fn validate(self) {
        assert!(
            self.num_buckets.is_power_of_two() && (64..=1 << 20).contains(&self.num_buckets),
            "wheel bucket count must be a power of two in [64, 2^20], got {}",
            self.num_buckets
        );
        assert!(
            self.width_log2 <= 20,
            "wheel bucket width must be at most 2^20 ps, got 2^{}",
            self.width_log2
        );
    }

    /// The bucket window width in picoseconds.
    pub fn width_ps(self) -> u64 {
        1 << self.width_log2
    }

    /// The total near-future span the wheel covers, in picoseconds.
    pub fn span_ps(self) -> u64 {
        (self.num_buckets as u64) << self.width_log2
    }
}

impl Default for WheelGeometry {
    fn default() -> Self {
        WheelGeometry::DEFAULT
    }
}

/// The `(time, sequence)` key of an event: its place in the one total
/// order every event pops in.
///
/// [`EventQueue::reserve`] hands out a slot without queueing anything;
/// [`EventQueue::insert`] puts an event at a reserved slot later — or
/// never, if whoever holds the slot finds that the event would have
/// changed nothing. A slot compares like the event it stands for, so
/// "has this fired yet?" is `slot <= stamp` against the key of the event
/// being handled ([`crate::Ctx::stamp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot {
    time: SimTime,
    seq: u64,
}

impl Slot {
    /// Below every reserved slot: "fired before anything else".
    pub const MIN: Slot = Slot {
        time: SimTime::ZERO,
        seq: 0,
    };

    /// Above every reserved slot: "not before being told otherwise".
    pub const NEVER: Slot = Slot {
        time: SimTime::MAX,
        seq: u64::MAX,
    };

    /// The key past every event due at or before `time`.
    pub const fn end_of(time: SimTime) -> Slot {
        Slot {
            time,
            seq: u64::MAX,
        }
    }

    /// The instant the slot is due.
    pub const fn time(self) -> SimTime {
        self.time
    }
}

/// Ends a bucket chain and the free list: no slab slot has this index.
const NIL: u32 = u32::MAX;

/// The insertion-sort walk steps after which a cursor chain is sorted
/// by key instead: a chain of ~16 events in random order (the
/// `sim.queue_hold_ns.occ32k` probe holds ~250 a bucket).
const SORT_WALK_MAX: u32 = 64;

/// An event queue ordered by `(time, sequence)`.
///
/// Two events scheduled for the same instant are delivered in the order
/// they were scheduled, which makes simulations bit-for-bit reproducible
/// regardless of queue internals. See the module docs for the calendar
/// layout.
pub struct EventQueue<E> {
    /// Every wheel event, in one slab all buckets share. The slab never
    /// shrinks; every index in `heads`, `free` and a [`Node::next`] is
    /// `NIL` or below its length, and every slot is on exactly one list:
    /// a bucket's chain, where its event is initialised, or the free
    /// list, where it is not. It grows only when the free list is empty,
    /// so its length is the most events the wheel ever held at once.
    slab: Vec<Node<E>>,
    /// Head of the free list (`NIL` when empty).
    free: u32,
    /// Chain head per bucket (`NIL` when empty). The cursor bucket's
    /// chain is sorted ascending by `(time, seq)`; other chains are in
    /// no order.
    heads: Box<[u32]>,
    /// Scratch for sorting a long cursor chain, kept for its capacity.
    run: Vec<(Slot, u32)>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupancy: Box<[u64]>,
    /// Number of set occupancy bits, maintained on transitions so the
    /// profiler reads it in O(1) instead of popcounting the bitmap on
    /// every dispatch.
    occupied: usize,
    /// `num_buckets - 1`: bucket index mask.
    bucket_mask: usize,
    /// log2 of the bucket window width in picoseconds.
    width_log2: u32,
    /// `num_buckets × width`: the wheel's near-future span.
    span_ps: u64,
    /// Index of the bucket currently being drained.
    cursor: usize,
    /// Window start (ps, aligned to the bucket width) of the cursor
    /// bucket. Only [`advance`](Self::advance) moves it.
    epoch: u64,
    /// Events currently in the wheel.
    near_count: usize,
    /// Events at or beyond `epoch + span`.
    overflow: BinaryHeap<Entry<E>>,
    /// Cached `overflow` minimum time (`u64::MAX` when empty), so the
    /// per-advance promotion check is one compare instead of a heap peek.
    overflow_min: u64,
    next_seq: u64,
    /// The largest key [`reserve`](Self::reserve) ever handed out (a
    /// pushed event sits in the queue until it pops; only a slot that
    /// may never be filled needs remembering). Sequence numbers only
    /// grow, so a new slot is the largest iff its time is not below this
    /// one's.
    latest: Slot,
    scheduled_total: u64,
}

/// A slab slot: a wheel event and the next slot of its chain.
///
/// The event is `MaybeUninit` and the pop and push paths index the slab
/// unchecked: with an `Option` per slot and checked indexing, a
/// push/pop hold loop at 24 pending events (the 4×4 fabric's mean) ran
/// ~10 % slower than with neither. The `slab` field's invariant is what
/// both rely on.
struct Node<E> {
    slot: Slot,
    /// Initialised iff the slot is on a bucket chain.
    event: MaybeUninit<E>,
    next: u32,
}

/// An overflow-heap event.
struct Entry<E> {
    slot: Slot,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.slot == other.slot
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.slot.cmp(&self.slot)
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the default wheel geometry.
    pub fn new() -> Self {
        Self::with_geometry(WheelGeometry::DEFAULT)
    }

    /// Creates an empty queue with the given wheel geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is out of range: the bucket count must be a
    /// power of two in [64, 2^20] and the width at most 2^20 ps.
    pub fn with_geometry(geometry: WheelGeometry) -> Self {
        geometry.validate();
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            heads: vec![NIL; geometry.num_buckets].into_boxed_slice(),
            run: Vec::new(),
            occupancy: vec![0u64; geometry.num_buckets / 64].into_boxed_slice(),
            occupied: 0,
            bucket_mask: geometry.num_buckets - 1,
            width_log2: geometry.width_log2,
            span_ps: geometry.span_ps(),
            cursor: 0,
            epoch: 0,
            near_count: 0,
            overflow: BinaryHeap::new(),
            overflow_min: u64::MAX,
            next_seq: 0,
            latest: Slot::MIN,
            scheduled_total: 0,
        }
    }

    /// The wheel geometry this queue was built with.
    pub fn geometry(&self) -> WheelGeometry {
        WheelGeometry {
            num_buckets: self.bucket_mask + 1,
            width_log2: self.width_log2,
        }
    }

    #[inline]
    fn bucket_of(&self, time_ps: u64) -> usize {
        ((time_ps >> self.width_log2) as usize) & self.bucket_mask
    }

    #[inline]
    fn align_down(&self, time_ps: u64) -> u64 {
        time_ps & !((1u64 << self.width_log2) - 1)
    }

    /// Inserts `event` at absolute time `time`: [`reserve`](Self::reserve)
    /// and [`insert`](Self::insert) in one step.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let slot = self.next_slot(time);
        self.insert(slot, event);
    }

    /// The key of the next event scheduled for `time`.
    #[inline]
    fn next_slot(&mut self, time: SimTime) -> Slot {
        let seq = self.next_seq;
        self.next_seq += 1;
        Slot { time, seq }
    }

    /// Takes the next sequence number for an event due at `time` and
    /// returns its key without queueing anything. The caller either
    /// [`insert`](Self::insert)s an event there later or lets the slot
    /// lapse; either way every other event keeps the order it would have
    /// had with the event queued.
    #[inline]
    pub fn reserve(&mut self, time: SimTime) -> Slot {
        let slot = self.next_slot(time);
        if time >= self.latest.time {
            self.latest = slot;
        }
        slot
    }

    /// Inserts `event` at a key [`reserve`](Self::reserve) handed out —
    /// possibly long ago: both tiers order by the full key, so a late
    /// insert with an old sequence number pops exactly where an event
    /// pushed at reservation time would have.
    pub fn insert(&mut self, slot: Slot, event: E) {
        self.scheduled_total += 1;
        let t = slot.time.as_ps();

        let b = match t.checked_sub(self.epoch) {
            Some(ahead) if ahead < self.span_ps => self.bucket_of(t),
            Some(_) => {
                self.overflow_min = self.overflow_min.min(t);
                self.overflow.push(Entry { slot, event });
                return;
            }
            // Below the epoch (the module docs say who pushes one): the
            // cursor bucket's run pops before the cursor moves again.
            None => self.cursor,
        };
        if b == self.cursor {
            // The draining bucket stays sorted ascending by (time, seq):
            // the new event goes behind every smaller key, so a
            // later-scheduled tie pops later, preserving FIFO.
            let mut prev = NIL;
            let mut next = self.heads[b];
            while next != NIL && self.slab[next as usize].slot < slot {
                prev = next;
                next = self.slab[next as usize].next;
            }
            let i = self.alloc(slot, event, next);
            match prev {
                NIL => self.heads[b] = i,
                p => self.slab[p as usize].next = i,
            }
        } else {
            self.push_front(b, slot, event);
        }
        self.set_bit(b);
        self.near_count += 1;
    }

    /// Links a new slot holding `event` at the head of bucket `b`'s chain.
    #[inline]
    fn push_front(&mut self, b: usize, slot: Slot, event: E) {
        let i = self.alloc(slot, event, self.heads[b]);
        self.heads[b] = i;
    }

    /// Fills a free slot — the last one freed, so a cache-warm one — or
    /// grows the slab if none is free, and returns its index.
    #[inline]
    fn alloc(&mut self, slot: Slot, event: E, next: u32) -> u32 {
        let node = Node {
            slot,
            event: MaybeUninit::new(event),
            next,
        };
        let i = self.free;
        if i == NIL {
            let i = self.slab.len();
            assert!(i < NIL as usize, "event wheel full: {i} pending events");
            self.slab.push(node);
            return i as u32;
        }
        // SAFETY: `free` is not `NIL`, so it indexes the slab (the
        // `slab` field's invariant). The slot is on the free list, so
        // overwriting it drops no event.
        let free = unsafe { self.slab.get_unchecked_mut(i as usize) };
        self.free = free.next;
        *free = node;
        i
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::MAX)
            .map(|(slot, event)| (slot.time, event))
    }

    /// Removes and returns the earliest event if its time is at or before
    /// `horizon`, with its key — the kernel's fused peek-and-pop, one
    /// probe per event instead of two.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(Slot, E)> {
        if self.heads[self.cursor] == NIL && !self.advance(horizon) {
            return None;
        }
        let i = self.heads[self.cursor];
        // SAFETY: the cursor bucket is non-empty here, so its head is not
        // `NIL` and indexes the slab (the `slab` field's invariant).
        let node = unsafe { self.slab.get_unchecked_mut(i as usize) };
        if node.slot.time > horizon {
            return None;
        }
        let (slot, next) = (node.slot, node.next);
        self.heads[self.cursor] = next;
        node.next = self.free;
        self.free = i;
        // SAFETY: the slot headed a bucket chain, so its event is
        // initialised; it is on the free list now, so nothing reads or
        // drops the event again.
        let event = unsafe { node.event.assume_init_read() };
        self.near_count -= 1;
        if next == NIL {
            self.clear_bit(self.cursor);
        }
        Some((slot, event))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        // The cursor bucket is sorted ascending, so its minimum is first.
        if let Some(first) = self.chain(self.cursor).next() {
            return Some(first.slot.time);
        }
        if self.near_count > 0 {
            let next = self.next_occupied_after(self.cursor);
            return self.chain(next).map(|n| n.slot.time).min();
        }
        (!self.overflow.is_empty()).then(|| SimTime::from_ps(self.overflow_min))
    }

    /// The slots of bucket `b`, in chain order.
    fn chain(&self, b: usize) -> impl Iterator<Item = &Node<E>> {
        let node = |i: u32| (i != NIL).then(|| &self.slab[i as usize]);
        std::iter::successors(node(self.heads[b]), move |n| node(n.next))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near_count + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever queued (pushed, or inserted at a
    /// reserved slot).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of slots ever reserved; those never followed by an
    /// [`insert`](Self::insert) are `reserved_total() - scheduled_total()`.
    pub fn reserved_total(&self) -> u64 {
        self.next_seq
    }

    /// The largest key [`reserve`](Self::reserve) ever handed out
    /// ([`Slot::MIN`] before the first): together with the queued events,
    /// what a queue that held every reserved slot would pop last.
    pub fn latest_reserved(&self) -> Slot {
        self.latest
    }

    /// Number of non-empty wheel buckets (excludes the overflow tier). A
    /// kernel-profiler statistic: together with [`len`](Self::len) it
    /// shows how densely the near-future window is populated.
    pub fn occupied_buckets(&self) -> usize {
        self.occupied
    }

    /// The most events the wheel (not the overflow heap) ever held at
    /// once: the number of entry slots its storage holds.
    pub fn entry_high_water(&self) -> usize {
        self.slab.len()
    }

    #[inline]
    fn set_bit(&mut self, bucket: usize) {
        let (word, mask) = (bucket / 64, 1u64 << (bucket % 64));
        self.occupied += usize::from(self.occupancy[word] & mask == 0);
        self.occupancy[word] |= mask;
    }

    #[inline]
    fn clear_bit(&mut self, bucket: usize) {
        let (word, mask) = (bucket / 64, 1u64 << (bucket % 64));
        self.occupied -= usize::from(self.occupancy[word] & mask != 0);
        self.occupancy[word] &= !mask;
    }

    /// Moves the cursor off its empty bucket to the next occupied one —
    /// or, with the wheel empty, to the window of the earliest overflow
    /// event — unless that window starts after `horizon`. True if the
    /// cursor moved; its bucket is then non-empty and sorted.
    fn advance(&mut self, horizon: SimTime) -> bool {
        debug_assert_eq!(self.heads[self.cursor], NIL);
        let (epoch, cursor) = if self.near_count > 0 {
            let next = self.next_occupied_after(self.cursor);
            let dist = next.wrapping_sub(self.cursor) & self.bucket_mask;
            (self.epoch + ((dist as u64) << self.width_log2), next)
        } else if self.overflow.is_empty() {
            // Not left to the horizon compare: `overflow_min` is then
            // `u64::MAX`, which is also `SimTime::MAX`, the horizon of an
            // unbounded pop.
            return false;
        } else {
            let t = self.overflow_min;
            (self.align_down(t), self.bucket_of(t))
        };
        if epoch > horizon.as_ps() {
            return false;
        }
        self.epoch = epoch;
        self.cursor = cursor;
        if self.overflow_min - self.epoch < self.span_ps {
            self.promote_overflow();
        }
        self.sort_cursor_bucket();
        true
    }

    /// Moves every overflow event now inside the wheel span into its
    /// bucket, refreshing the cached minimum.
    fn promote_overflow(&mut self) {
        while let Some(min) = self.overflow.peek() {
            let t = min.slot.time.as_ps();
            debug_assert!(t >= self.epoch);
            if t - self.epoch >= self.span_ps {
                self.overflow_min = t;
                return;
            }
            let Entry { slot, event } = self.overflow.pop().expect("peeked entry vanished");
            let b = self.bucket_of(t);
            self.push_front(b, slot, event);
            self.set_bit(b);
            self.near_count += 1;
        }
        self.overflow_min = u64::MAX;
    }

    /// Relinks the cursor bucket's chain in ascending `(time, seq)`
    /// order; no event moves, and `(time, seq)` pairs are unique, so the
    /// order is deterministic. A chain is pushed at its head, so it holds
    /// same-instant events newest first and insertion sort mostly
    /// prepends; once its walks pass [`SORT_WALK_MAX`] steps, the chain
    /// is sorted by key instead, so a dense bucket in random order does
    /// not hit insertion sort's quadratic worst case.
    fn sort_cursor_bucket(&mut self) {
        let mut rest = self.heads[self.cursor];
        if self.slab[rest as usize].next == NIL {
            return;
        }
        let mut sorted = NIL;
        let mut walked = 0;
        while rest != NIL {
            let i = rest;
            let key = self.slab[i as usize].slot;
            rest = self.slab[i as usize].next;
            if sorted == NIL || key < self.slab[sorted as usize].slot {
                self.slab[i as usize].next = sorted;
                sorted = i;
                continue;
            }
            let mut prev = sorted;
            loop {
                let next = self.slab[prev as usize].next;
                if next == NIL || key < self.slab[next as usize].slot {
                    break;
                }
                prev = next;
                walked += 1;
            }
            self.slab[i as usize].next = self.slab[prev as usize].next;
            self.slab[prev as usize].next = i;
            if walked > SORT_WALK_MAX {
                return self.sort_by_key(sorted, rest);
            }
        }
        self.heads[self.cursor] = sorted;
    }

    /// Makes the cursor bucket the two chains `a` and `b` together, in
    /// order: sorts their `(key, index)` pairs and relinks them.
    #[cold]
    #[inline(never)]
    fn sort_by_key(&mut self, a: u32, b: u32) {
        let mut run = std::mem::take(&mut self.run);
        for mut i in [a, b] {
            while i != NIL {
                run.push((self.slab[i as usize].slot, i));
                i = self.slab[i as usize].next;
            }
        }
        run.sort_unstable_by_key(|&(slot, _)| slot);
        let mut next = NIL;
        for &(_, i) in run.iter().rev() {
            self.slab[i as usize].next = next;
            next = i;
        }
        self.heads[self.cursor] = next;
        run.clear();
        self.run = run;
    }

    /// The next non-empty bucket strictly after `start` in ring order.
    /// Requires at least one set occupancy bit.
    fn next_occupied_after(&self, start: usize) -> usize {
        let begin = (start + 1) & self.bucket_mask;
        // The word count is a power of two (num_buckets ≥ 64 is), so the
        // circular walk wraps with a mask, not a division.
        let word_mask = self.occupancy.len() - 1;
        let mut word = begin / 64;
        // Mask off bits below `begin` within its word, then walk words
        // circularly; the search wraps back over `start`'s word if needed.
        let mut bits = self.occupancy[word] & (!0u64 << (begin % 64));
        for _ in 0..=word_mask + 1 {
            if bits != 0 {
                return word * 64 + bits.trailing_zeros() as usize;
            }
            word = (word + 1) & word_mask;
            bits = self.occupancy[word];
        }
        unreachable!("next_occupied_after called on an empty wheel");
    }
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        if !std::mem::needs_drop::<E>() {
            return;
        }
        for b in 0..self.heads.len() {
            let mut i = self.heads[b];
            while i != NIL {
                let node = &mut self.slab[i as usize];
                // SAFETY: the slot is on a bucket chain, so its event is
                // initialised, and each slot is on one chain only, so it
                // is dropped once.
                unsafe { node.event.assume_init_drop() };
                i = node.next;
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("geometry", &self.geometry())
            .field("pending", &self.len())
            .field("near", &self.near_count)
            .field("overflow", &self.overflow.len())
            .field("scheduled_total", &self.scheduled_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPAN_PS: u64 = WheelGeometry::DEFAULT.num_buckets as u64 * 32;
    const BUCKET_WIDTH_PS: u64 = 32;

    /// The reference implementation the calendar queue must match: the
    /// previous `BinaryHeap` core with an explicit sequence tiebreak.
    struct RefQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> RefQueue<E> {
        fn new() -> Self {
            RefQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }
        fn push(&mut self, time: SimTime, event: E) {
            let slot = self.reserve(time);
            self.insert(slot, event);
        }
        fn reserve(&mut self, time: SimTime) -> Slot {
            let seq = self.next_seq;
            self.next_seq += 1;
            Slot { time, seq }
        }
        fn insert(&mut self, slot: Slot, event: E) {
            self.heap.push(Entry { slot, event });
        }
        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.pop_keyed().map(|(slot, event)| (slot.time, event))
        }
        fn pop_keyed(&mut self) -> Option<(Slot, E)> {
            self.heap.pop().map(|e| (e.slot, e.event))
        }
        fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(Slot, E)> {
            if self.heap.peek()?.slot.time > horizon {
                return None;
            }
            self.pop_keyed()
        }
    }

    /// An overflow entry is time + tiebreak sequence + the event; a wheel
    /// slot adds the chain link. Written on every push and read on every
    /// pop: with a 16-byte event (the network's `NetEvent`) they are 32
    /// and 40 bytes; a 17th event byte would round the entry up to 40, a
    /// 21st the slot up to 48.
    #[test]
    fn entry_with_a_16_byte_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Entry<[u64; 2]>>(), 32);
        assert_eq!(std::mem::size_of::<Node<[u64; 2]>>(), 40);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(30), "c");
        q.push(SimTime::from_ps(10), "a");
        q.push(SimTime::from_ps(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_ps(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_ps(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_ps(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ps(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_and_len_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ps(7), ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(7)));
        assert_eq!(q.scheduled_total(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 1);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(10), 1);
        q.push(SimTime::from_ps(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_ps(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn far_future_events_route_through_overflow() {
        let mut q = EventQueue::new();
        // Far beyond the wheel span from time zero.
        q.push(SimTime::from_ps(10 * SPAN_PS), "far");
        q.push(SimTime::from_ps(1), "near");
        q.push(SimTime::from_ps(10 * SPAN_PS), "far2");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "near");
        // Same far instant: scheduling order must survive promotion.
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "far2");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_promotion_preserves_ties_with_wheel_events() {
        // An event pushed directly into the wheel and one promoted from
        // overflow can never share an instant while both are pending
        // (tiers are disjoint), but a promoted event CAN tie with a
        // later direct push once the wheel has advanced. Build that case.
        let mut q = EventQueue::new();
        let t = SimTime::from_ps(SPAN_PS + 100);
        q.push(SimTime::from_ps(0), 0u32); // anchors epoch at 0
        q.push(t, 1); // beyond span → overflow
        assert_eq!(q.pop().unwrap().1, 0); // wheel drains, rebases onto t
        q.push(t, 2); // same instant, direct wheel push
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn wheel_wrap_boundaries_stay_ordered() {
        let mut q = EventQueue::new();
        // Straddle several wrap points: events at k·SPAN ± width.
        let mut expect = Vec::new();
        for k in 1..5u64 {
            for dt in [0, 1, BUCKET_WIDTH_PS - 1, BUCKET_WIDTH_PS] {
                let t = k * SPAN_PS + dt;
                expect.push(t);
            }
        }
        // Push in reverse so nothing arrives pre-sorted.
        for &t in expect.iter().rev() {
            q.push(SimTime::from_ps(t), t);
        }
        for &t in &expect {
            assert_eq!(q.pop(), Some((SimTime::from_ps(t), t)));
        }
    }

    #[test]
    fn pushes_before_epoch_are_still_delivered_first() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(1000), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        // The epoch now sits at ~1000 ps; push earlier events.
        q.push(SimTime::from_ps(2000), "c");
        q.push(SimTime::from_ps(3), "a");
        q.push(SimTime::from_ps(3), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn matches_reference_heap_on_random_churn() {
        // Hold-model churn with kernel-like monotone times across many
        // magnitudes: every pop must agree with the reference heap.
        let mut rng = crate::rng::SimRng::new(0x5EED);
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        let mut now = 0u64;
        for i in 0..50_000u64 {
            let delta = match rng.gen_range(10) {
                0 => 0,                                 // same-instant tie
                1..=6 => 100 + rng.gen_range(2_900),    // hop latency
                7 | 8 => rng.gen_range(2 * SPAN_PS),    // around the span
                _ => SPAN_PS * (2 + rng.gen_range(20)), // far future
            };
            let t = SimTime::from_ps(now + delta);
            q.push(t, i);
            r.push(t, i);
            if rng.gen_range(3) != 0 {
                let got = q.pop();
                let want = r.pop();
                assert_eq!(got, want, "divergence at step {i}");
                if let Some((t, _)) = got {
                    now = t.as_ps();
                }
            }
            assert_eq!(q.peek_time(), r.heap.peek().map(|e| e.slot.time));
            assert_eq!(q.len(), r.heap.len());
        }
        loop {
            let got = q.pop();
            let want = r.pop();
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn matches_reference_heap_on_arbitrary_times() {
        // Non-monotone pushes (allowed by the API): times below the epoch
        // join the cursor bucket's sorted run.
        let mut rng = crate::rng::SimRng::new(0xDECAF);
        let mut q = EventQueue::new();
        let mut r = RefQueue::new();
        for i in 0..20_000u64 {
            let t = SimTime::from_ps(rng.gen_range(3 * SPAN_PS));
            q.push(t, i);
            r.push(t, i);
            if rng.gen_range(2) == 0 {
                assert_eq!(q.pop(), r.pop(), "divergence at step {i}");
            }
        }
        loop {
            let got = q.pop();
            assert_eq!(got, r.pop());
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pushes_below_the_epoch_mix_with_wheel_pushes() {
        let mut q = EventQueue::new();
        // Move the epoch up, then push below it, interleaved with more
        // wheel pushes.
        q.push(SimTime::from_ps(2 * SPAN_PS), "first");
        assert_eq!(q.pop().unwrap().1, "first");
        q.push(SimTime::from_ps(2 * SPAN_PS), "anchor");
        assert_eq!(q.epoch, 2 * SPAN_PS);
        q.push(SimTime::from_ps(10), "p1");
        q.push(SimTime::from_ps(20), "p2");
        q.push(SimTime::from_ps(2 * SPAN_PS + 999_000), "w");
        assert_eq!(q.pop().unwrap().1, "p1");
        q.push(SimTime::from_ps(15), "p3");
        assert_eq!(q.pop().unwrap().1, "p3");
        assert_eq!(q.pop().unwrap().1, "p2");
        assert_eq!(q.pop().unwrap().1, "anchor");
        assert_eq!(q.pop().unwrap().1, "w");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn emptied_queue_reanchors_cleanly() {
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            let base = round * 7 * SPAN_PS / 3;
            q.push(SimTime::from_ps(base + 5), round);
            q.push(SimTime::from_ps(base), round + 1000);
            assert_eq!(q.pop().unwrap().1, round + 1000);
            assert_eq!(q.pop().unwrap().1, round);
            assert!(q.is_empty());
        }
    }

    // ------------------------------------------------------------------
    // Geometry
    // ------------------------------------------------------------------

    /// The mesh heuristic must reproduce the tuned default for the 4×4
    /// probe (and every mesh the historical repro goldens cover), with
    /// the paper's 180 ps minimum stage delay.
    #[test]
    fn mesh_heuristic_reproduces_default_for_small_meshes() {
        for nodes in [16usize, 36, 64] {
            assert_eq!(
                WheelGeometry::for_mesh(nodes, 180),
                WheelGeometry::DEFAULT,
                "heuristic must give the tuned default for {nodes}-node meshes"
            );
        }
    }

    /// The bucket count is the tuned constant for every mesh size; only
    /// the window width follows the timing corner.
    #[test]
    fn mesh_geometry_is_default_buckets_with_timing_width() {
        for nodes in [16usize, 256, 1024, 1 << 20] {
            assert_eq!(WheelGeometry::for_mesh(nodes, 180), WheelGeometry::DEFAULT);
            // Derated worst-case timing widens the window one notch.
            assert_eq!(
                WheelGeometry::for_mesh(nodes, 277),
                WheelGeometry {
                    width_log2: 6,
                    ..WheelGeometry::DEFAULT
                }
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn invalid_geometry_rejected() {
        let _ = EventQueue::<u32>::with_geometry(WheelGeometry {
            num_buckets: 1000,
            width_log2: 5,
        });
    }

    /// Maximally different wheel shapes, and the bucket counts `for_mesh`
    /// used to pick for 16×16 and 32×32 (replacing them with 2048 cannot
    /// move a pop).
    const GEOMETRIES: [WheelGeometry; 5] = [
        WheelGeometry::DEFAULT,
        WheelGeometry {
            num_buckets: 64,
            width_log2: 0,
        },
        WheelGeometry {
            num_buckets: 8192,
            width_log2: 10,
        },
        WheelGeometry {
            num_buckets: 8192,
            width_log2: 5,
        },
        WheelGeometry {
            num_buckets: 32_768,
            width_log2: 5,
        },
    ];

    /// Identical schedules through maximally different geometries must
    /// pop identically (order is a pure function of `(time, seq)`) — also
    /// when plain pushes interleave with reserved slots that are inserted
    /// late, at their old sequence number, or never: into the draining
    /// cursor bucket behind same-instant events pushed after the
    /// reservation, and into `overflow`. The schedule is kernel-legal —
    /// nothing is inserted below the key of the last pop — so no insert
    /// may find the epoch ahead of it.
    #[test]
    fn divergent_geometries_pop_identically() {
        let mut queues = GEOMETRIES.map(EventQueue::<u64>::with_geometry);
        let mut r = RefQueue::new();
        let mut rng = crate::rng::SimRng::new(0x6E0);
        let mut now = 0u64;
        // Reserved, not (yet) inserted; and the key of the last pop,
        // below which the kernel never inserts.
        let mut held: Vec<Slot> = Vec::new();
        let mut stamp = Slot::MIN;
        // Late inserts seen: [cursor bucket, below the epoch, overflow].
        let mut late = [0u32; 3];
        let mut lapsed = 0u32;
        for i in 0..30_000u64 {
            let delta = match rng.gen_range(8) {
                0 | 1 => 0, // same instant as the event just popped
                2..=5 => rng.gen_range(3_000),
                6 => rng.gen_range(100_000),
                _ => 65_536 * (1 + rng.gen_range(40)), // past every span but one
            };
            let t = SimTime::from_ps(now + delta);
            if rng.gen_range(4) == 0 {
                let slot = r.reserve(t);
                for q in &mut queues {
                    assert_eq!(q.reserve(t), slot);
                }
                held.push(slot);
            } else {
                for q in &mut queues {
                    q.push(t, i);
                }
                r.push(t, i);
            }
            if !held.is_empty() && rng.gen_range(3) == 0 {
                let k = rng.gen_range(held.len() as u64) as usize;
                let slot = held.swap_remove(k);
                if slot > stamp {
                    let ev = 1_000_000 + i;
                    for q in &mut queues {
                        let overflow = q.overflow.len();
                        let t = slot.time.as_ps();
                        let draining = t >= q.epoch
                            && t - q.epoch < q.span_ps
                            && q.bucket_of(t) == q.cursor
                            && q.heads[q.cursor] != NIL;
                        late[1] += u32::from(t < q.epoch);
                        q.insert(slot, ev);
                        late[0] += u32::from(draining);
                        late[2] += (q.overflow.len() - overflow) as u32;
                    }
                    r.insert(slot, ev);
                } else {
                    // Due before the event being handled: whoever held it
                    // let it lapse.
                    lapsed += 1;
                }
            }
            if rng.gen_range(3) != 0 {
                let want = r.pop_keyed();
                for q in &mut queues {
                    assert_eq!(
                        q.pop_at_or_before(SimTime::MAX),
                        want,
                        "geometry divergence at step {i}"
                    );
                }
                if let Some((slot, _)) = want {
                    stamp = slot;
                    now = slot.time.as_ps();
                }
            }
            for q in &queues {
                assert_eq!(q.len(), r.heap.len());
                assert_eq!(q.latest_reserved(), queues[0].latest_reserved());
            }
        }
        assert!(
            late[0] > 100 && late[1] == 0 && late[2] > 100 && lapsed > 100,
            "both tiers must see late inserts, none below the epoch, and some slots none: \
             {late:?} {lapsed}"
        );
        loop {
            let want = r.pop_keyed();
            for q in &mut queues {
                assert_eq!(q.pop_at_or_before(SimTime::MAX), want);
            }
            if want.is_none() {
                break;
            }
        }
        for q in &queues {
            assert_eq!(
                q.reserved_total() - q.scheduled_total(),
                u64::from(lapsed) + held.len() as u64
            );
        }
    }

    /// Bursts of hundreds of events on one instant — the start-up wave
    /// of a mesh whose sources all emit together — or scattered in random
    /// order over one 32 ps window pop identically on every geometry:
    /// bursts pushed into the draining cursor bucket or a later one,
    /// bursts parked in `overflow` and promoted into the cursor bucket by
    /// one advance, and a burst's reserved slots inserted late into the
    /// cursor run while it drains.
    #[test]
    fn same_instant_bursts_pop_identically() {
        let mut queues = GEOMETRIES.map(EventQueue::<u64>::with_geometry);
        let mut r = RefQueue::new();
        let mut rng = crate::rng::SimRng::new(0xB0257);
        let mut stamp = Slot::MIN;
        let mut held: Vec<Slot> = Vec::new();
        // [bursts promoted into the cursor bucket, late inserts into a
        // cursor run at least 100 long]
        let mut seen = [0u32; 2];
        for i in 0..300u64 {
            let now = stamp.time.as_ps();
            let start = match rng.gen_range(3) {
                0 => now,
                1 => now + rng.gen_range(3_000),
                _ => now + 65_536 * (1 + rng.gen_range(8)), // past every span but one
            };
            let spread = [1, 32][rng.gen_index(2)];
            for k in 0..200 + rng.gen_range(300) {
                let t = SimTime::from_ps(start + rng.gen_range(spread));
                if rng.gen_range(4) == 0 {
                    let slot = r.reserve(t);
                    for q in &mut queues {
                        assert_eq!(q.reserve(t), slot);
                    }
                    held.push(slot);
                } else {
                    for q in &mut queues {
                        q.push(t, i << 20 | k);
                    }
                    r.push(t, i << 20 | k);
                }
            }
            for _ in 0..rng.gen_range(800) {
                if !held.is_empty() && rng.gen_range(2) == 0 {
                    let slot = held.swap_remove(rng.gen_index(held.len()));
                    if slot > stamp {
                        for q in &mut queues {
                            let t = slot.time.as_ps();
                            seen[1] += u32::from(
                                t - q.epoch < q.span_ps
                                    && q.bucket_of(t) == q.cursor
                                    && q.chain(q.cursor).count() >= 100,
                            );
                            q.insert(slot, u64::MAX);
                        }
                        r.insert(slot, u64::MAX);
                    }
                }
                let want = r.pop_keyed();
                for q in &mut queues {
                    let overflow = q.overflow.len();
                    assert_eq!(
                        q.pop_at_or_before(SimTime::MAX),
                        want,
                        "burst divergence at round {i}"
                    );
                    seen[0] += u32::from(
                        overflow - q.overflow.len() >= 100 && q.chain(q.cursor).count() >= 99,
                    );
                }
                let Some((slot, _)) = want else { break };
                stamp = slot;
            }
        }
        assert!(seen.iter().all(|&n| n > 20), "thin coverage {seen:?}");
        loop {
            let want = r.pop_keyed();
            for q in &mut queues {
                assert_eq!(q.pop_at_or_before(SimTime::MAX), want);
            }
            if want.is_none() {
                break;
            }
        }
    }

    /// The wheel's entry storage follows the most events pending at
    /// once, not the sum of every bucket's largest burst: a 500-event
    /// same-instant wave into one bucket, drained, then steady traffic
    /// over every bucket for ten wheel laps leave it at the wave's size.
    #[test]
    fn entry_storage_tracks_peak_pending_not_bucket_peaks() {
        const WAVE: u64 = 950;
        let mut q = EventQueue::new();
        for i in 0..500 {
            q.push(SimTime::from_ps(WAVE), i);
        }
        let mut peak = q.near_count;
        while q.pop().is_some() {}
        let mut rng = crate::rng::SimRng::new(0x5A1B);
        let mut gap = move || 180 + rng.gen_range(4_000);
        for i in 0..64 {
            q.push(SimTime::from_ps(WAVE + gap()), i);
        }
        let mut visited = vec![false; WheelGeometry::DEFAULT.num_buckets];
        while let Some((t, i)) = q.pop().filter(|(t, _)| t.as_ps() < WAVE + 10 * SPAN_PS) {
            visited[q.cursor] = true;
            q.push(t + crate::time::SimDuration::from_ps(gap()), i);
            peak = peak.max(q.near_count);
        }
        assert!(visited.iter().filter(|&&v| v).count() > 2_000);
        assert_eq!(q.entry_high_water(), peak);
        assert!(
            q.slab.capacity() <= 2 * peak,
            "{} slots for {peak} pending",
            q.slab.capacity()
        );
    }

    /// Every event is dropped exactly once: popped ones by the caller,
    /// pending ones — in either tier, in fresh or reused slots — with
    /// the queue.
    #[test]
    fn pending_events_drop_with_the_queue() {
        let token = std::rc::Rc::new(());
        let mut q = EventQueue::new();
        for k in 0..200 {
            let far = k / 100 * 2 * SPAN_PS;
            q.push(SimTime::from_ps(k * 37 % 1_000 + far), token.clone());
        }
        for _ in 0..50 {
            q.pop();
        }
        for k in 0..20 {
            q.push(SimTime::from_ps(2_000 + k), token.clone());
        }
        assert_eq!(std::rc::Rc::strong_count(&token), 171);
        drop(q);
        assert_eq!(std::rc::Rc::strong_count(&token), 1);
    }

    /// A slot inserted late pops ahead of same-instant events that were
    /// pushed after it was reserved, and behind those pushed before.
    #[test]
    fn late_insert_keeps_its_reserved_place_among_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ps(500);
        q.push(t, "before");
        let slot = q.reserve(t);
        q.push(t, "after");
        q.push(SimTime::from_ps(490), "earlier");
        assert_eq!(q.latest_reserved().time(), t);
        assert_eq!(q.pop().unwrap().1, "earlier"); // the cursor now drains t's bucket
        q.insert(slot, "late");
        assert_eq!(q.pop().unwrap().1, "before");
        assert_eq!(q.pop().unwrap().1, "late");
        assert_eq!(q.pop().unwrap().1, "after");
        assert_eq!((q.reserved_total(), q.scheduled_total()), (4, 4));
    }

    /// The invariant that lets the queue do without a tier for times
    /// below its epoch: a caller that never schedules before the key of
    /// its last pop, nor before the last horizon a pop came back empty
    /// from — the kernel — never finds the epoch ahead of its clock, so
    /// none of its inserts is below the epoch. Runs to random finite
    /// horizons (on a pending event, just short of one — between two
    /// events, or inside the window of the bucket the cursor moves to —
    /// and anywhere), handlers that drain the queue and then schedule
    /// far-then-near, reserved slots inserted late, and pushes at the
    /// horizon between runs, on every geometry against the reference heap.
    #[test]
    fn kernel_legal_traffic_never_finds_the_epoch_ahead() {
        for (g, geometry) in GEOMETRIES.into_iter().enumerate() {
            let mut q = EventQueue::with_geometry(geometry);
            let mut r = RefQueue::new();
            let mut rng = crate::rng::SimRng::new(0xC10C + g as u64);
            let (width, span) = (geometry.width_ps(), geometry.span_ps());
            // The kernel's stamp: the key of the last pop, or the end of
            // the last horizon a run stopped at.
            let mut clock = Slot::MIN;
            let mut held: Vec<Slot> = Vec::new();
            let mut id = 0u64;
            // [runs that stopped short of a pending event, pushes at the
            // horizon, drained far-then-near handlers, late inserts]
            let mut seen = [0u32; 4];
            let mut schedule = |q: &mut EventQueue<u64>, r: &mut RefQueue<u64>, t: u64| {
                assert!(t >= q.epoch, "{geometry:?}: push at {t} below the epoch");
                id += 1;
                q.push(SimTime::from_ps(t), id);
                r.push(SimTime::from_ps(t), id);
            };
            for _ in 0..3_000 {
                let now = clock.time.as_ps();
                // Between runs: the kernel's own `schedule`, from the
                // horizon the last run stopped at.
                for _ in 0..rng.gen_range(3) {
                    let delta = match rng.gen_range(4) {
                        0 | 1 => 0,
                        2 => rng.gen_range(4 * width),
                        _ => rng.gen_range(3 * span),
                    };
                    seen[1] += u32::from(delta == 0 && !q.is_empty());
                    schedule(&mut q, &mut r, now + delta);
                }
                let next = r.heap.peek().map_or(now, |e| e.slot.time.as_ps());
                let horizon = match rng.gen_range(8) {
                    0 => next,
                    1 | 2 => next.saturating_sub(1 + rng.gen_range(2 * width)).max(now),
                    3 => next + rng.gen_range(3_000),
                    4 => now + rng.gen_range(2 * span),
                    5 | 6 => now + 40 * span,
                    _ => now,
                };
                let horizon = SimTime::from_ps(horizon);
                loop {
                    let want = r.pop_at_or_before(horizon);
                    assert_eq!(q.pop_at_or_before(horizon), want, "{geometry:?}");
                    let Some((slot, _)) = want else {
                        clock = Slot::end_of(horizon);
                        seen[0] += u32::from(!q.is_empty());
                        break;
                    };
                    clock = slot;
                    assert!(
                        q.epoch <= clock.time.as_ps(),
                        "{geometry:?}: epoch past a pop"
                    );
                    // The handler: a branching process just short of
                    // critical, so the queue keeps draining and being
                    // re-seeded.
                    let now = slot.time.as_ps();
                    let drained = q.is_empty();
                    let fanout = [0, 0, 0, 0, 1, 1, 2, 3][rng.gen_index(8)];
                    seen[2] += u32::from(drained && fanout >= 2);
                    for k in 0..fanout {
                        let delta = match rng.gen_range(8) {
                            // A drained queue: far first, then near.
                            _ if drained && k == 0 => span * (1 + rng.gen_range(3)),
                            _ if drained => rng.gen_range(2 * width),
                            0 => 0,
                            1..=4 => 100 + rng.gen_range(2_900),
                            5 | 6 => rng.gen_range(2 * span),
                            _ => span * (1 + rng.gen_range(20)),
                        };
                        if rng.gen_range(4) == 0 {
                            let t = SimTime::from_ps(now + delta);
                            let slot = r.reserve(t);
                            assert_eq!(q.reserve(t), slot);
                            held.push(slot);
                        } else {
                            schedule(&mut q, &mut r, now + delta);
                        }
                    }
                    if !held.is_empty() && rng.gen_range(2) == 0 {
                        let slot = held.swap_remove(rng.gen_index(held.len()));
                        if slot > clock {
                            assert!(slot.time.as_ps() >= q.epoch, "{geometry:?}: late insert");
                            q.insert(slot, 0);
                            r.insert(slot, 0);
                            seen[3] += 1;
                        }
                    }
                }
                assert!(
                    q.epoch <= clock.time.as_ps(),
                    "{geometry:?}: epoch past a horizon"
                );
                assert_eq!(q.len(), r.heap.len());
            }
            assert!(
                seen.iter().all(|&n| n > 50),
                "{geometry:?}: thin coverage {seen:?}"
            );
            // An unbounded pop of a drained queue must not mistake the
            // empty overflow's `u64::MAX` minimum for a time to jump to.
            while let Some(want) = r.pop_keyed() {
                assert_eq!(q.pop_at_or_before(SimTime::MAX), Some(want));
                clock = want.0;
            }
            assert_eq!(q.pop_at_or_before(SimTime::MAX), None);
            assert!(
                q.epoch <= clock.time.as_ps(),
                "{geometry:?}: epoch past the drain"
            );
        }
    }
}

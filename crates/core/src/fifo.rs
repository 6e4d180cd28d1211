//! A bounded FIFO — the buffer of the reference twins in [`crate::vc`]
//! and `crate::be::reference`.
//!
//! Router buffers in MANGO are tiny (one flit deep plus the unsharebox
//! latch), so overflow is a *protocol violation*, not a load condition —
//! pushing into a full [`Fifo`] panics to surface flow-control bugs
//! immediately.

use std::collections::VecDeque;

/// A bounded first-in-first-out queue.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Fifo capacity must be positive");
        Fifo {
            items: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Appends an item.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full — in this codebase that always indicates a
    /// flow-control protocol violation upstream.
    pub fn push(&mut self, item: T) {
        assert!(
            self.items.len() < self.capacity,
            "Fifo overflow: flow control violated (capacity {})",
            self.capacity
        );
        self.items.push_back(item);
    }

    /// Removes and returns the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// A reference to the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// A mutable reference to the oldest item (used by the BE router to
    /// rotate a header in place).
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.items.front_mut()
    }

    /// Current number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Remaining free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over queued items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ordering() {
        let mut f = Fifo::new(3);
        f.push(1);
        f.push(2);
        f.push(3);
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn tracks_capacity() {
        let mut f = Fifo::new(2);
        assert!(f.is_empty());
        assert_eq!(f.free(), 2);
        f.push('a');
        f.push('b');
        assert!(f.is_full());
        assert_eq!(f.free(), 0);
        f.pop();
        assert_eq!(f.free(), 1);
        assert_eq!(f.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "Fifo overflow")]
    fn overflow_panics() {
        let mut f = Fifo::new(1);
        f.push(0);
        f.push(1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Fifo::<u8>::new(0);
    }

    #[test]
    fn front_peeks_without_removing() {
        let mut f = Fifo::new(2);
        f.push(7);
        assert_eq!(f.front(), Some(&7));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn iter_is_oldest_first() {
        let mut f = Fifo::new(4);
        for i in 0..4 {
            f.push(i);
        }
        let collected: Vec<_> = f.iter().copied().collect();
        assert_eq!(collected, vec![0, 1, 2, 3]);
    }
}

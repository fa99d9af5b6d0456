//! The simulation event queue.
//!
//! A binary heap keyed by `(Time, sequence)`: events at the same virtual time
//! pop in insertion order, which makes the whole simulation deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ubft_types::Time;

/// A deterministic time-ordered event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, event }));
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever pushed (diagnostics / runaway detection).
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubft_types::Duration;

    fn at(us: u64) -> Time {
        Time::ZERO + Duration::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(at(3), 'c');
        q.push(at(1), 'a');
        q.push(at(2), 'b');
        assert_eq!(q.pop(), Some((at(1), 'a')));
        assert_eq!(q.pop(), Some((at(2), 'b')));
        assert_eq!(q.pop(), Some((at(3), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(at(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((at(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_fifo() {
        let mut q = EventQueue::new();
        q.push(at(1), "first");
        assert_eq!(q.pop().unwrap().1, "first");
        q.push(at(1), "second");
        q.push(at(1), "third");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(at(9), ());
        q.push(at(4), ());
        assert_eq!(q.peek_time(), Some(at(4)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pushed(), 2);
    }
}

//! A minimal discrete-event simulation core.
//!
//! Events are ordered by virtual time with a monotone sequence number as the
//! tiebreaker, so simultaneous events pop in scheduling order and runs are
//! fully deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic future-event list.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(KeyWrapper, u64)>>,
    events: Vec<Option<E>>,
    clock: f64,
    seq: u64,
}

/// Newtype so `Key` can live inside the heap tuple (BinaryHeap needs Ord).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct KeyWrapper(
    u64, /* time bits, monotone-mapped */
    u64, /* seq */
);

/// Maps an f64 time to monotone-comparable bits (times are non-negative in
/// a simulation, but the mapping handles the general case).
fn time_bits(t: f64) -> u64 {
    let bits = t.to_bits();
    if t >= 0.0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            clock: 0.0,
            seq: 0,
        }
    }

    /// Current virtual time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at` (must be ≥ `now`).
    pub fn schedule(&mut self, at: f64, event: E) {
        assert!(at.is_finite(), "event time must be finite");
        assert!(
            at >= self.clock,
            "cannot schedule into the past: {at} < {}",
            self.clock
        );
        let idx = self.events.len() as u64;
        self.events.push(Some(event));
        self.heap
            .push(Reverse((KeyWrapper(time_bits(at), self.seq), idx)));
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let Reverse((KeyWrapper(tb, _), idx)) = self.heap.pop()?;
        let time = bits_time(tb);
        self.clock = time;
        let event = self.events[idx as usize]
            .take()
            .expect("event popped twice");
        Some((time, event))
    }
}

fn bits_time(bits: u64) -> f64 {
    if bits & (1 << 63) != 0 {
        f64::from_bits(bits & !(1 << 63))
    } else {
        f64::from_bits(!bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_in_scheduling_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.schedule(2.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 2.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(1.0, ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(4.0, 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule(2.0, 2);
        q.schedule(3.0, 3);
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![2, 3, 4]);
        assert_eq!(q.len(), 0);
    }
}

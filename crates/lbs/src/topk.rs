//! Bounded top-k selection under the crate's kNN order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(squared distance, id)` pair, ordered by `total_cmp` on the distance
/// and then by id — the total order every kNN answer in this crate ranks by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scored(pub f64, pub u32);

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Scored {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Scored {}

/// The k smallest pairs offered so far, in a max-heap of at most k entries:
/// once full, an offer costs one float comparison against the kept k-th,
/// plus O(log k) when it displaces it. Because the order is total, the kept
/// set — and its sorted order — is exactly the prefix that sorting every
/// offer and truncating to k would give, without sorting the offers.
#[derive(Debug)]
pub(crate) struct TopK {
    k: usize,
    heap: BinaryHeap<Scored>,
    /// The kept k-th distance once the heap is full, +∞ before: an offer
    /// farther than this cannot displace anything.
    bound: f64,
}

impl Default for TopK {
    fn default() -> Self {
        TopK {
            k: 0,
            heap: BinaryHeap::new(),
            bound: f64::INFINITY,
        }
    }
}

impl TopK {
    /// Empties the selection and sets its bound, keeping the allocation.
    pub(crate) fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
        self.bound = f64::INFINITY;
    }

    /// False when a pair at squared distance `d_sq` cannot be kept — a
    /// cheaper test than [`TopK::offer`] for callers that must do more work
    /// before offering. Only a distance known to exceed the bound is turned
    /// away, so a NaN distance still reaches the full `total_cmp` comparison.
    #[inline]
    pub(crate) fn admits(&self, d_sq: f64) -> bool {
        d_sq.partial_cmp(&self.bound) != Some(Ordering::Greater)
    }

    /// Offers one pair.
    #[inline]
    pub(crate) fn offer(&mut self, d_sq: f64, id: u32) {
        if !self.admits(d_sq) {
            return;
        }
        let s = Scored(d_sq, id);
        if self.heap.len() < self.k {
            self.heap.push(s);
        } else if let Some(mut kth) = self.heap.peek_mut() {
            if s < *kth {
                *kth = s;
            }
        }
        if self.heap.len() == self.k {
            self.bound = self.heap.peek().map_or(f64::INFINITY, |s| s.0);
        }
    }

    /// The largest kept pair — the k-th nearest once k pairs were offered.
    pub(crate) fn kth(&self) -> Option<Scored> {
        self.heap.peek().copied()
    }

    /// The kept ids, nearest first, in a `Vec` of exactly their number.
    /// Leaves the selection empty with its buffer kept, so a selection
    /// reused after [`TopK::reset`] allocates only this `Vec`.
    pub(crate) fn take_ids(&mut self) -> Vec<u32> {
        let mut sorted = std::mem::take(&mut self.heap).into_sorted_vec();
        let ids = sorted.iter().map(|s| s.1).collect();
        sorted.clear();
        self.heap = BinaryHeap::from(sorted);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_sorted_prefix_with_id_tiebreak() {
        let offers = [(0.5, 7), (0.1, 9), (0.5, 2), (0.3, 4), (0.1, 3), (0.9, 1)];
        for k in 0..=offers.len() + 1 {
            let mut top = TopK::default();
            top.reset(k);
            for &(d, id) in &offers {
                top.offer(d, id);
            }
            let mut expect = offers.to_vec();
            expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            expect.truncate(k);
            assert_eq!(top.kth().map(|s| s.1), expect.last().map(|e| e.1), "k={k}");
            let ids: Vec<u32> = expect.iter().map(|e| e.1).collect();
            assert_eq!(top.take_ids(), ids, "k={k}");
        }
    }
}

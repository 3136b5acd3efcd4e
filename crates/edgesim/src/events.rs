//! Preallocated index-based binary event heap for the discrete-event cores.
//!
//! `std::collections::BinaryHeap` served the first engine well, but at
//! million-event scale its costs add up: every event is moved through the
//! sift as a whole struct, the backing `Vec` is sized for *all* arrivals up
//! front, and the max-heap inversion trick (`Ord` flipped so the earliest
//! event pops first) buries the actual ordering contract inside a trait
//! impl. [`EventHeap`] replaces it with an explicit `Vec`-backed binary
//! **min**-heap over `(time_ms, seq)` keys:
//!
//! * **Same total order.** Events pop in ascending `(time_ms, seq)` order —
//!   `time_ms` compared by `f64::total_cmp`, ties broken by the engine's
//!   monotone sequence number. Because every `(time, seq)` pair is unique,
//!   the pop order is a *total* order: any correct heap implementation
//!   yields the identical event sequence, which is what keeps the rebuilt
//!   simulator bit-identical to the `BinaryHeap` original (pinned by the
//!   `matches_std_binary_heap_*` tests below and the reference-loop
//!   conformance suites).
//! * **Steady-state allocation-free.** The backing `Vec` is preallocated by
//!   [`EventHeap::with_capacity`] and only ever grows to the run's
//!   high-water mark of *outstanding* events (O(servers + tiers + in-flight
//!   transfers), not O(requests) — arrivals never enter the heap, they are
//!   consumed from the workload slab through a cursor). Pops truncate, the
//!   freed tail slots are reused by later pushes, and [`EventHeap::clear`]
//!   keeps the storage across runs, so the post-warmup push/pop cycle
//!   performs no allocation (`tests/alloc_guard.rs` proves it).
//!
//! The payload `K` is a small `Copy` event descriptor (server/tier indices),
//! so sifts move 24–32 byte entries with no drops, clones or boxing.

/// One heap entry: the `(time, seq)` ordering key plus a `Copy` payload.
#[derive(Debug, Clone, Copy)]
struct Entry<K> {
    time_ms: f64,
    seq: u64,
    kind: K,
}

/// A `Vec`-backed binary min-heap of timestamped events, ordered by
/// `(time_ms, seq)` ascending. See the [module docs](self) for the ordering
/// and allocation contracts.
#[derive(Debug)]
pub struct EventHeap<K> {
    entries: Vec<Entry<K>>,
}

impl<K: Copy> EventHeap<K> {
    /// A heap with room for `capacity` outstanding events. Cold path: this
    /// is the one place the heap allocates; steady-state push/pop below the
    /// high-water mark never does.
    pub fn with_capacity(capacity: usize) -> EventHeap<K> {
        EventHeap {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Number of outstanding events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the heap empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current slot capacity (diagnostics; the run high-water mark once
    /// warm).
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Drop every outstanding event but keep the allocated storage — what
    /// run-to-run reuse (`reset`) calls so repeated runs stay
    /// allocation-free.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Does entry `a` order strictly before entry `b`? `(time, seq)`
    /// lexicographic, times compared by `total_cmp` (the simulator only
    /// produces finite times, where `total_cmp` agrees with `<`).
    fn before(a: &Entry<K>, b: &Entry<K>) -> bool {
        match a.time_ms.total_cmp(&b.time_ms) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a.seq < b.seq,
        }
    }

    /// Push an event. Allocation-free below the preallocated capacity /
    /// high-water mark (amortized `Vec` growth above it, reached at most
    /// once per run shape).
    pub fn push(&mut self, time_ms: f64, seq: u64, kind: K) {
        self.entries.push(Entry { time_ms, seq, kind });
        self.sift_up(self.entries.len() - 1);
    }

    /// The earliest event's `(time_ms, seq)` key without removing it.
    /// Allocation-free; `None` when empty.
    pub fn peek(&self) -> Option<(f64, u64)> {
        self.entries.first().map(|e| (e.time_ms, e.seq))
    }

    /// Remove and return the earliest event as `(time_ms, seq, kind)`.
    /// Allocation-free: the last slot swaps into the root and sifts down,
    /// and the freed tail slot is reused by the next push.
    pub fn pop(&mut self) -> Option<(f64, u64, K)> {
        let last = self.entries.len().checked_sub(1)?;
        self.entries.swap(0, last);
        let top = self.entries.pop()?;
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        Some((top.time_ms, top.seq, top.kind))
    }

    /// Restore the heap invariant upward from slot `i` (post-push).
    /// Allocation-free: in-place swaps on the backing storage.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(&self.entries[i], &self.entries[parent]) {
                break;
            }
            self.entries.swap(i, parent);
            i = parent;
        }
    }

    /// Restore the heap invariant downward from slot `i` (post-pop).
    /// Allocation-free: in-place swaps on the backing storage.
    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let mut child = left;
            if right < n && Self::before(&self.entries[right], &self.entries[left]) {
                child = right;
            }
            if !Self::before(&self.entries[child], &self.entries[i]) {
                break;
            }
            self.entries.swap(i, child);
            i = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// The original engine's event ordering, verbatim: a max-heap entry
    /// whose `Ord` is inverted so the earliest `(time, seq)` pops first.
    #[derive(Debug, PartialEq)]
    struct StdEvent {
        time_ms: f64,
        seq: u64,
    }
    impl Eq for StdEvent {}
    impl PartialOrd for StdEvent {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for StdEvent {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .time_ms
                .total_cmp(&self.time_ms)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// Interleaved pushes and pops over both heaps must yield the same
    /// sequence. `times` deliberately includes heavy ties — the index heap
    /// must reproduce the `BinaryHeap` order through the seq tiebreak alone.
    fn pin_against_std(ops: &[(bool, f64)]) {
        let mut ours: EventHeap<u32> = EventHeap::with_capacity(4);
        let mut std_heap: BinaryHeap<StdEvent> = BinaryHeap::new();
        let mut seq = 0u64;
        for &(is_push, time) in ops {
            if is_push {
                ours.push(time, seq, seq as u32);
                std_heap.push(StdEvent { time_ms: time, seq });
                seq += 1;
            } else {
                let got = ours.pop();
                let want = std_heap.pop();
                match (got, want) {
                    (None, None) => {}
                    (Some((t, s, k)), Some(w)) => {
                        assert_eq!((t, s), (w.time_ms, w.seq));
                        assert_eq!(k as u64, s, "payload rides with its key");
                    }
                    (g, w) => panic!("heap divergence: ours {g:?} vs std {w:?}"),
                }
            }
        }
        // Drain both completely: the tails must agree too.
        while let Some(w) = std_heap.pop() {
            let (t, s, _) = ours.pop().expect("ours drained early");
            assert_eq!((t, s), (w.time_ms, w.seq));
        }
        assert!(ours.pop().is_none());
    }

    #[test]
    fn matches_std_binary_heap_on_tie_heavy_workloads() {
        // All-ties: every event at t=5, order decided purely by seq.
        let all_ties: Vec<(bool, f64)> = (0..64).map(|_| (true, 5.0)).collect();
        pin_against_std(&all_ties);

        // Two timestamps, interleaved pushes and pops.
        let mut ops = Vec::new();
        for i in 0..200 {
            ops.push((true, if i % 3 == 0 { 1.0 } else { 2.0 }));
            if i % 4 == 3 {
                ops.push((false, 0.0));
            }
        }
        pin_against_std(&ops);
    }

    #[test]
    fn matches_std_binary_heap_on_mixed_times() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let ops: Vec<(bool, f64)> = (0..300)
                .map(|_| {
                    let push = rng.gen::<f64>() < 0.6;
                    // Coarse quantization forces frequent exact ties.
                    let t = (rng.gen::<f64>() * 8.0).floor();
                    (push, t)
                })
                .collect();
            pin_against_std(&ops);
        }
    }

    #[test]
    fn steady_state_reuses_freed_slots_without_growth() {
        let mut h: EventHeap<u8> = EventHeap::with_capacity(8);
        let cap = h.capacity();
        // Warm to the high-water mark, then cycle push/pop far past it.
        for i in 0..8u64 {
            h.push(i as f64, i, 0);
        }
        for i in 8..10_000u64 {
            let popped = h.pop().expect("nonempty");
            assert!(popped.0 <= i as f64);
            h.push(i as f64, i, 0);
            assert_eq!(h.capacity(), cap, "steady-state push/pop must not grow");
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.capacity(), cap, "clear keeps storage for reuse");
    }
}

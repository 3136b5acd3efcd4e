//! Flat-index request storage for the million-event simulator.
//!
//! The first event loop moved owned data through its hot path: every
//! dispatch allocated a fresh `Vec<Request>` (even for singleton FIFO
//! service), every busy server held a boxed batch, and every queue
//! discipline lived behind `Box<dyn Scheduler>` virtual dispatch (that loop
//! survives as [`crate::reference`]). This module replaces all of that with
//! flat `u32` indices into one slab:
//!
//! * [`RequestArena`] — the single [`Request`] slab, plus one shared `next`
//!   link array that turns any subset of the slab into intrusive
//!   singly-linked lists. Requests are addressed by `u32` id (their slab
//!   index); nothing is ever cloned or re-boxed after construction.
//! * [`IndexQueue`] — a waiting queue as `(head, tail, len)` indices into
//!   the arena. Push/pop/batch-detach are pointer swizzles on the shared
//!   link array: allocation-free, and a freed request's link slot is reused
//!   the next time any queue touches that id. One `IndexQueue` per server
//!   group acts as the steal pool — every idle server pulls its next chain
//!   from the shared queue regardless of which server went idle, so work
//!   stealing falls out of the representation instead of needing a
//!   rebalancing pass.
//! * [`Chain`] — a detached run of queued requests, the allocation-free
//!   replacement for an owned `Vec<Request>` batch: two `u32`s (head id +
//!   count) that a server carries as its in-flight batch.
//! * [`Discipline`] — the `Copy` monomorphized form of
//!   [`SchedulerKind`], resolved once before
//!   the loop (mirroring how `ForwardPlan` resolves its `ComputeBackend`
//!   once rather than branching per call). Its `dispatch` reproduces the
//!   boxed schedulers' decisions exactly — same selection, same tie-breaks,
//!   same batch deadlines — which is what keeps
//!   [`crate::fleet::FleetSim`] bit-identical to the reference loop.
//!
//! Everything here except the constructors is steady-state allocation-free;
//! the `hot-path-alloc` lint rule and `tests/alloc_guard.rs` both enforce
//! that.

use crate::fleet::SchedulerKind;

/// One request as a tier's queue sees it: the arena slot. The fleet fills
/// it on admission, when the request's tier-local arrival time and its
/// service requirement there are known; the disciplines read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival index (0-based, in gateway-arrival order).
    pub id: usize,
    /// Arrival at the tier's queue, ms (after any network transfer).
    pub arrival_ms: f64,
    /// Service requirement at the tier, ms — priced at the gateway from
    /// the tier's [`crate::cost::CostProfile`] (for an early-exit model it
    /// encodes which path the request takes), so disciplines may use it as
    /// the request's expected service time.
    pub service_ms: f64,
}

/// The null index: no request / end of chain. `u32::MAX` leaves room for
/// slabs of up to ~4.29 billion requests, far past the 10⁶–10⁷ sweeps the
/// simulator targets.
pub const NIL: u32 = u32::MAX;

/// The request slab plus the shared intrusive link array. See the
/// [module docs](self) for the representation.
#[derive(Debug)]
pub struct RequestArena {
    slab: Vec<Request>,
    next: Vec<u32>,
}

impl RequestArena {
    /// An arena of `n` placeholder slots to be filled in later with
    /// [`set`](RequestArena::set) — a request's tier-local arrival time and
    /// service draw are only known when it reaches its tier. Cold path:
    /// allocates both arrays once; every later operation is index
    /// arithmetic on this storage.
    ///
    /// # Panics
    /// Panics if `n` is [`NIL`] or more.
    pub fn with_capacity(n: usize) -> RequestArena {
        assert!(n < NIL as usize, "arena capped at u32::MAX - 1 requests");
        let slab = vec![
            Request {
                id: 0,
                arrival_ms: 0.0,
                service_ms: 0.0,
            };
            n
        ];
        let next = vec![NIL; n];
        RequestArena { slab, next }
    }

    /// Number of slots in the slab.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Is the slab empty?
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Copy out the request at `id`.
    #[inline]
    pub fn get(&self, id: u32) -> Request {
        self.slab[id as usize]
    }

    /// Overwrite the slot at `id` (fleet tier admission).
    #[inline]
    pub fn set(&mut self, id: u32, req: Request) {
        self.slab[id as usize] = req;
    }

    /// The id chained after `id` ([`NIL`] at a chain end).
    #[inline]
    pub fn next_of(&self, id: u32) -> u32 {
        self.next[id as usize]
    }

    /// Relink `id` to point at `next`.
    #[inline]
    pub fn set_next(&mut self, id: u32, next: u32) {
        self.next[id as usize] = next;
    }
}

/// A detached run of `count` requests starting at `head`, linked through the
/// arena — the allocation-free batch representation a server carries while
/// the batch is in flight. `Copy`: two `u32`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chain {
    /// First request id ([`NIL`] only when `count == 0`).
    pub head: u32,
    /// Number of requests in the chain.
    pub count: u32,
}

impl Chain {
    /// The empty chain (an idle server's in-flight slot).
    pub const EMPTY: Chain = Chain {
        head: NIL,
        count: 0,
    };

    /// A single-request chain.
    pub fn solo(id: u32) -> Chain {
        Chain { head: id, count: 1 }
    }

    /// Walk the chain's ids in queue order. Allocation-free.
    pub fn iter<'a>(&self, arena: &'a RequestArena) -> ChainIter<'a> {
        ChainIter {
            arena,
            cur: self.head,
            remaining: self.count,
        }
    }
}

/// Iterator over a [`Chain`]'s request ids, in queue order.
#[derive(Debug)]
pub struct ChainIter<'a> {
    arena: &'a RequestArena,
    cur: u32,
    remaining: u32,
}

impl Iterator for ChainIter<'_> {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        let id = self.cur;
        self.cur = self.arena.next_of(id);
        self.remaining -= 1;
        Some(id)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for ChainIter<'_> {}

/// A FIFO waiting queue as head/tail indices into the arena's shared link
/// array. Every mutation is a pointer swizzle — allocation-free — and
/// detaching the front as a [`Chain`] is O(k) link walks with no copying.
#[derive(Debug, Clone, Copy)]
pub struct IndexQueue {
    head: u32,
    tail: u32,
    len: u32,
}

impl IndexQueue {
    /// An empty queue. Allocation-free (`Copy` struct of three `u32`s; the
    /// storage lives in the arena).
    pub fn new() -> IndexQueue {
        IndexQueue {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Requests currently waiting.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Is the queue empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The oldest queued id ([`NIL`] when empty).
    #[inline]
    pub fn front(&self) -> u32 {
        self.head
    }

    /// Forget the queue's contents (run-to-run reuse). Allocation-free: the
    /// arena's links are rewritten lazily by the next pushes.
    pub fn clear(&mut self) {
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// Append `id` at the tail. Allocation-free link swizzle.
    pub fn push_back(&mut self, arena: &mut RequestArena, id: u32) {
        arena.set_next(id, NIL);
        if self.tail == NIL {
            self.head = id;
        } else {
            arena.set_next(self.tail, id);
        }
        self.tail = id;
        self.len += 1;
    }

    /// Detach the oldest `k` requests as a [`Chain`] (FIFO batch dispatch).
    /// Allocation-free: walks `k` links and cuts once.
    ///
    /// # Panics
    /// Panics (debug assertion) unless `1 ≤ k ≤ len`.
    pub fn take_front(&mut self, arena: &mut RequestArena, k: u32) -> Chain {
        debug_assert!(
            k >= 1 && k <= self.len,
            "take_front k={k} of len={}",
            self.len
        );
        let head = self.head;
        let mut last = head;
        for _ in 1..k {
            last = arena.next_of(last);
        }
        self.head = arena.next_of(last);
        arena.set_next(last, NIL);
        if self.head == NIL {
            self.tail = NIL;
        }
        self.len -= k;
        Chain { head, count: k }
    }

    /// Unlink and return the queued id with the smallest
    /// `(service_ms, id)` — the shortest-expected-service discipline's
    /// selection, tie-broken by arrival order exactly like the reference
    /// loop's boxed shortest-service scheduler (the key is unique per
    /// request, so a linear scan picks the same element regardless of queue
    /// order). Allocation-free.
    pub fn remove_min_service(&mut self, arena: &mut RequestArena) -> Option<u32> {
        if self.head == NIL {
            return None;
        }
        let mut best = self.head;
        let mut best_req = arena.get(best);
        let mut best_prev = NIL;
        let mut prev = self.head;
        let mut cur = arena.next_of(self.head);
        while cur != NIL {
            let req = arena.get(cur);
            if req
                .service_ms
                .total_cmp(&best_req.service_ms)
                .then(req.id.cmp(&best_req.id))
                .is_lt()
            {
                best = cur;
                best_req = req;
                best_prev = prev;
            }
            prev = cur;
            cur = arena.next_of(cur);
        }
        if best_prev == NIL {
            self.head = arena.next_of(best);
        } else {
            arena.set_next(best_prev, arena.next_of(best));
        }
        if self.tail == best {
            self.tail = best_prev;
        }
        arena.set_next(best, NIL);
        self.len -= 1;
        Some(best)
    }
}

impl Default for IndexQueue {
    fn default() -> Self {
        IndexQueue::new()
    }
}

/// What a [`Discipline`] tells an idle server to do — the index-based
/// mirror of the reference loop's dispatch decision, with the owned
/// `Vec<Request>` batch replaced by a detached [`Chain`]. `Copy`: no
/// allocation per service event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Run this detached chain as one batch.
    Serve(Chain),
    /// Something is queued but not ready: re-ask at this time.
    WaitUntil(f64),
    /// Queue empty.
    Idle,
}

/// The monomorphized queue discipline: [`SchedulerKind`] resolved once into
/// a `Copy` handle before the event loop, so the hot path branches on a
/// three-way enum instead of calling through a `Box<dyn Scheduler>`. Each
/// variant reproduces its boxed counterpart in [`crate::reference`] exactly
/// (selection, tie-breaks, batch deadline arithmetic) — the conformance
/// suites pin the resulting reports bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Discipline {
    /// First-in-first-out, one request per dispatch.
    Fifo,
    /// Smallest `(service_ms, id)` first.
    ShortestService,
    /// Accumulate up to `max_batch`, launch early when the oldest queued
    /// request has waited `max_wait_ms`.
    Batch {
        /// Largest batch one dispatch may fuse.
        max_batch: u32,
        /// Longest a partial batch may hold its oldest request, ms.
        max_wait_ms: f64,
    },
}

impl Discipline {
    /// Resolve a [`SchedulerKind`] into its monomorphized discipline,
    /// rejecting a batch size of 0 or a negative or non-finite wait — the
    /// check [`crate::fleet::FleetConfig::try_valid`] runs per tier. Cold
    /// path: runs once per simulation.
    pub fn from_kind(kind: SchedulerKind) -> Result<Discipline, String> {
        match kind {
            SchedulerKind::Fifo => Ok(Discipline::Fifo),
            SchedulerKind::ShortestService => Ok(Discipline::ShortestService),
            SchedulerKind::Batch {
                max_batch,
                max_wait_ms,
            } => {
                if max_batch < 1 {
                    return Err("batch size must be at least 1".into());
                }
                if !(max_wait_ms >= 0.0 && max_wait_ms.is_finite()) {
                    return Err("max wait must be non-negative and finite".into());
                }
                Ok(Discipline::Batch {
                    max_batch: max_batch.min(NIL as usize) as u32,
                    max_wait_ms,
                })
            }
        }
    }

    /// Decide what a server idle at `now_ms` should run from `queue` —
    /// the allocation-free mirror of the boxed schedulers' dispatch: a
    /// served batch is detached from the queue as a [`Chain`], never
    /// collected into a `Vec`.
    pub fn dispatch(
        &self,
        queue: &mut IndexQueue,
        arena: &mut RequestArena,
        now_ms: f64,
    ) -> Action {
        match *self {
            Discipline::Fifo => {
                if queue.is_empty() {
                    Action::Idle
                } else {
                    Action::Serve(queue.take_front(arena, 1))
                }
            }
            Discipline::ShortestService => match queue.remove_min_service(arena) {
                Some(id) => Action::Serve(Chain::solo(id)),
                None => Action::Idle,
            },
            Discipline::Batch {
                max_batch,
                max_wait_ms,
            } => {
                let front = queue.front();
                if front == NIL {
                    return Action::Idle;
                }
                let deadline = arena.get(front).arrival_ms + max_wait_ms;
                if queue.len >= max_batch || now_ms >= deadline {
                    let k = queue.len.min(max_batch);
                    Action::Serve(queue.take_front(arena, k))
                } else {
                    Action::WaitUntil(deadline)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An arena of `n` requests arriving every 0.5 ms.
    fn arena(n: usize) -> RequestArena {
        let mut arena = RequestArena::with_capacity(n);
        for i in 0..n {
            arena.set(
                i as u32,
                Request {
                    id: i,
                    arrival_ms: i as f64 * 0.5,
                    service_ms: 1.0 + (i % 5) as f64,
                },
            );
        }
        arena
    }

    #[test]
    fn queue_is_fifo_and_reuses_link_slots() {
        let mut arena = arena(6);
        let mut q = IndexQueue::new();
        for id in 0..6u32 {
            q.push_back(&mut arena, id);
        }
        assert_eq!(q.len(), 6);
        let first_two = q.take_front(&mut arena, 2);
        assert_eq!(first_two.iter(&arena).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(q.front(), 2);
        // Freed ids can be requeued: their link slots are simply rewritten.
        q.push_back(&mut arena, 0);
        let rest = q.take_front(&mut arena, 5);
        assert_eq!(rest.iter(&arena).collect::<Vec<_>>(), vec![2, 3, 4, 5, 0]);
        assert!(q.is_empty());
        assert_eq!(q.front(), NIL);
    }

    #[test]
    fn take_front_of_full_queue_resets_tail() {
        let mut arena = arena(3);
        let mut q = IndexQueue::new();
        for id in 0..3u32 {
            q.push_back(&mut arena, id);
        }
        let all = q.take_front(&mut arena, 3);
        assert_eq!(all.count, 3);
        assert!(q.is_empty());
        // The emptied queue must accept new pushes with a fresh head.
        q.push_back(&mut arena, 1);
        assert_eq!(q.front(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn from_kind_validates_batch_parameters() {
        assert_eq!(
            Discipline::from_kind(SchedulerKind::Batch {
                max_batch: 0,
                max_wait_ms: 1.0
            })
            .unwrap_err(),
            "batch size must be at least 1"
        );
        assert_eq!(
            Discipline::from_kind(SchedulerKind::Batch {
                max_batch: 4,
                max_wait_ms: f64::NAN
            })
            .unwrap_err(),
            "max wait must be non-negative and finite"
        );
        assert_eq!(
            Discipline::from_kind(SchedulerKind::Fifo).unwrap(),
            Discipline::Fifo
        );
    }

    #[test]
    fn chain_iter_is_exact_size() {
        let mut arena = arena(4);
        let mut q = IndexQueue::new();
        for id in 0..4u32 {
            q.push_back(&mut arena, id);
        }
        let chain = q.take_front(&mut arena, 4);
        let it = chain.iter(&arena);
        assert_eq!(it.len(), 4);
        assert_eq!(Chain::EMPTY.iter(&arena).count(), 0);
        assert_eq!(Chain::solo(2).iter(&arena).collect::<Vec<_>>(), vec![2]);
    }
}

//! The embedded client stub and per-replica mempool.
//!
//! Clients in the paper are separate machines that pick a responsible replica with the
//! deterministic function `µ(req)` and re-submit on timeout. In this reproduction the
//! client stub is co-located with each replica (see `DESIGN.md` §3): it injects
//! synthetic requests into the local mempool at the configured rate and measures the
//! submission → execution latency of exactly the requests it injected.

use leopard_simnet::SimTime;
use leopard_types::{ClientId, FastMap, Request, RequestId};
use std::collections::VecDeque;

/// Pending-request buffer plus the client stub's latency bookkeeping.
#[derive(Debug)]
pub struct Mempool {
    client: ClientId,
    payload_size: u32,
    next_seq: u64,
    queue: VecDeque<Request>,
    /// Requests injected by the local client stub that have not been executed yet,
    /// keyed by id, with their submission time.
    outstanding: FastMap<RequestId, SimTime>,
}

impl Mempool {
    /// Creates an empty mempool whose client stub signs requests as `client`.
    pub fn new(client: ClientId, payload_size: u32) -> Self {
        Self {
            client,
            payload_size,
            next_seq: 0,
            queue: VecDeque::new(),
            outstanding: FastMap::default(),
        }
    }

    /// Number of pending (not yet batched) requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of injected requests whose acknowledgement is still outstanding.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Injects `count` synthetic requests at time `now`.
    pub fn inject(&mut self, count: usize, now: SimTime) {
        for _ in 0..count {
            let request = Request::new_synthetic(self.client, self.next_seq, self.payload_size);
            self.outstanding.insert(request.id, now);
            self.queue.push_back(request);
            self.next_seq += 1;
        }
    }

    /// Extracts up to `max` requests for a new datablock.
    pub fn take_batch(&mut self, max: usize) -> Vec<Request> {
        let take = max.min(self.queue.len());
        self.queue.drain(..take).collect()
    }

    /// Marks a request as executed; returns the submission-to-execution latency if the
    /// request was injected by the local client stub.
    pub fn acknowledge(&mut self, id: &RequestId, now: SimTime) -> Option<u64> {
        self.outstanding
            .remove(id)
            .map(|submitted| now.saturating_since(submitted).as_nanos())
    }

    /// Total injected so far (for tests).
    pub fn injected(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_and_batch() {
        let mut pool = Mempool::new(ClientId(3), 128);
        assert!(pool.is_empty());
        pool.inject(10, SimTime(0));
        assert_eq!(pool.len(), 10);
        assert_eq!(pool.outstanding(), 10);
        assert_eq!(pool.injected(), 10);

        let batch = pool.take_batch(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(pool.len(), 6);
        // Batch extraction does not complete requests.
        assert_eq!(pool.outstanding(), 10);
        // Request ids are unique and owned by this client.
        assert!(batch.iter().all(|r| r.id.client == ClientId(3)));
    }

    #[test]
    fn take_batch_larger_than_queue_drains_it() {
        let mut pool = Mempool::new(ClientId(0), 128);
        pool.inject(3, SimTime(0));
        assert_eq!(pool.take_batch(100).len(), 3);
        assert!(pool.is_empty());
        assert!(pool.take_batch(5).is_empty());
    }

    #[test]
    fn acknowledge_measures_latency_for_own_requests_only() {
        let mut pool = Mempool::new(ClientId(1), 128);
        pool.inject(1, SimTime(1_000));
        let request = pool.take_batch(1).remove(0);
        assert_eq!(pool.acknowledge(&request.id, SimTime(5_000)), Some(4_000));
        // Second acknowledgement of the same request is ignored.
        assert_eq!(pool.acknowledge(&request.id, SimTime(9_000)), None);
        // Requests from other clients are not ours.
        let foreign = RequestId::new(ClientId(9), 0);
        assert_eq!(pool.acknowledge(&foreign, SimTime(9_000)), None);
    }
}

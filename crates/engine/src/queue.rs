//! The shard hand-off: one bounded batch queue per shard, router → worker.
//!
//! A `std::sync::mpsc::sync_channel` wakes a router parked on a full
//! queue as soon as one slot frees. Under load the queue is always full,
//! so the router and the worker ping-pong: one sleep and one wake-up per
//! batch, on both threads. This queue instead lets the router sleep
//! until the worker has drained it to half (the **low-water wake**), so a
//! wake-up buys the router half a queue of batches to route without
//! blocking again. The worker is woken on the first batch after it found
//! the queue empty, as before.
//!
//! The queue also **recycles the batch buffers**: the worker hands each
//! drained tuple `Vec` back on its next receive, and the router fills a
//! returned buffer instead of allocating one, so a run allocates at most
//! `capacity + 2` buffers per shard however many batches it routes.
//!
//! Besides tuple batches the queue carries the engine's **control
//! items** ([`Item::Control`]: barriers, with or without a save step,
//! and end of stream) in the same FIFO order, so a control item is seen
//! only after every batch routed before it.
//!
//! Either end going away is seen by the other: dropping the
//! [`BatchSender`] closes the queue (the worker drains what is queued,
//! then sees the end), and dropping the [`BatchReceiver`] — a worker that
//! returned or panicked — fails the router's next or current
//! [`hand_off`](BatchSender::hand_off) instead of parking it forever.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One routed message: tuples plus the router's watermark at flush time.
/// No tuple in this batch — or any later batch to this shard — has a
/// timestamp below the watermark; on the arrival-order path it is 0
/// forever, so a count tuple stays 16 bytes and the worker pays one
/// integer compare per batch for it.
pub(crate) struct Batch<E> {
    pub(crate) watermark: u64,
    /// `(key, payload)` in routing order.
    pub(crate) tuples: Vec<E>,
}

/// One queue entry: a batch of tuples, or a control item of type `C`.
pub(crate) enum Item<E, C> {
    Batch(Batch<E>),
    Control(C),
}

struct State<E, C> {
    queue: VecDeque<Item<E, C>>,
    /// Emptied tuple buffers the worker handed back, for the router to
    /// fill next.
    spares: Vec<Vec<E>>,
    /// The router is parked on a full queue, waiting for the low-water
    /// mark.
    router_parked: bool,
    /// The worker is parked on an empty queue.
    worker_parked: bool,
    /// The sender is gone: nothing follows what is queued.
    closed: bool,
    /// The receiver is gone: nothing will drain the queue again.
    abandoned: bool,
}

struct Shared<E, C> {
    state: Mutex<State<E, C>>,
    /// Signalled when a batch arrives for a parked worker, or on close.
    filled: Condvar,
    /// Signalled when the queue drains to the low-water mark under a
    /// parked router, or when the receiver goes away.
    drained: Condvar,
    capacity: usize,
    low_water: usize,
}

impl<E, C> Shared<E, C> {
    /// The queue state. Every update under the lock is a single field
    /// write or one queue operation, so the state is valid at every step
    /// and a panic elsewhere cannot leave it torn: a poisoned lock is
    /// taken over as is.
    fn locked(&self) -> MutexGuard<'_, State<E, C>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The router's end of a shard's [`batch_queue`].
pub(crate) struct BatchSender<E, C>(Arc<Shared<E, C>>);

/// The worker's end of a shard's [`batch_queue`].
pub(crate) struct BatchReceiver<E, C>(Arc<Shared<E, C>>);

/// A queue holding at most `capacity` (≥ 1) items in flight.
pub(crate) fn batch_queue<E, C>(capacity: usize) -> (BatchSender<E, C>, BatchReceiver<E, C>) {
    debug_assert!(capacity >= 1);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            // At most `capacity` queued, one being processed and one
            // being filled: no more buffers ever exist.
            spares: Vec::with_capacity(capacity + 2),
            router_parked: false,
            worker_parked: false,
            closed: false,
            abandoned: false,
        }),
        filled: Condvar::new(),
        drained: Condvar::new(),
        capacity,
        low_water: capacity / 2,
    });
    (BatchSender(Arc::clone(&shared)), BatchReceiver(shared))
}

impl<E, C> BatchSender<E, C> {
    /// Queue `item` behind the ones already queued, parking while the
    /// queue is full until the worker drains it to half. For a batch,
    /// returns an emptied buffer the worker handed back, if one is
    /// waiting, for the router to fill next (a control item gives no
    /// buffer away, so it takes none); `Err(item)` once the receiver is
    /// gone.
    pub(crate) fn hand_off(&self, item: Item<E, C>) -> Result<Option<Vec<E>>, Item<E, C>> {
        let refill = matches!(item, Item::Batch(_));
        let shared = &*self.0;
        let mut state = shared.locked();
        if state.queue.len() >= shared.capacity {
            // Parked until the worker clears the flag at the low-water
            // mark; a spurious wake-up parks again.
            state.router_parked = true;
            while state.router_parked && !state.abandoned {
                state = shared
                    .drained
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        if state.abandoned {
            return Err(item);
        }
        // Never grows: the router only gets here below the capacity the
        // queue was built with.
        state.queue.push_back(item); // alloc:amortized bounded by the preallocated capacity
        if state.worker_parked {
            state.worker_parked = false;
            shared.filled.notify_one();
        }
        Ok(if refill { state.spares.pop() } else { None })
    }
}

impl<E, C> Drop for BatchSender<E, C> {
    /// End of stream: the worker drains what is queued, then stops. The
    /// router fills no more buffers, so the spares are freed now rather
    /// than held to the end of the run.
    fn drop(&mut self) {
        let mut state = self.0.locked();
        state.closed = true;
        state.spares = Vec::new();
        self.0.filled.notify_one();
    }
}

impl<E, C> BatchReceiver<E, C> {
    /// The oldest queued item, parking while the queue is empty; `None`
    /// once the sender is gone and the queue is drained. `spent` is the
    /// tuple buffer of the batch processed last, handed back (emptied)
    /// for the router to reuse, or freed once the sender is gone.
    pub(crate) fn next_batch(&self, spent: Option<Vec<E>>) -> Option<Item<E, C>> {
        let shared = &*self.0;
        let spent = spent.map(|mut buf| {
            buf.clear();
            buf
        });
        let mut state = shared.locked();
        if let Some(buf) = spent.filter(|_| !state.closed) {
            // Never grows: every buffer in circulation fits the
            // capacity reserved at construction.
            state.spares.push(buf); // alloc:amortized bounded by the preallocated capacity
        }
        loop {
            if let Some(item) = state.queue.pop_front() {
                if state.router_parked && state.queue.len() <= shared.low_water {
                    state.router_parked = false;
                    shared.drained.notify_one();
                }
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.worker_parked = true;
            state = shared
                .filled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<E, C> Drop for BatchReceiver<E, C> {
    /// The worker is gone (returned or unwinding): release a parked
    /// router and fail every later hand-off.
    fn drop(&mut self) {
        let mut state = self.0.locked();
        state.abandoned = true;
        self.0.drained.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::thread;
    use std::time::Duration;

    type Q = Item<u32, &'static str>;

    fn batch(watermark: u64, tuples: Vec<u32>) -> Q {
        Item::Batch(Batch { watermark, tuples })
    }

    /// The batch inside `item`; panics on a control item.
    fn unbatch(item: Q) -> Batch<u32> {
        match item {
            Item::Batch(b) => b,
            Item::Control(c) => panic!("expected a batch, got control {c:?}"),
        }
    }

    /// Wait (with a generous deadline) until `cond` holds on the queue
    /// state: how the tests below learn that the other end is parked
    /// without sleeping for a guessed interval.
    fn wait_for(shared: &Shared<u32, &str>, cond: impl Fn(&State<u32, &str>) -> bool) {
        for _ in 0..30_000 {
            if cond(&shared.locked()) {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
        panic!("queue state never reached the expected condition");
    }

    #[test]
    fn batches_arrive_in_fifo_order_then_the_end() {
        let (tx, rx) = batch_queue::<u32, &str>(9);
        for i in 0..8 {
            assert!(tx.hand_off(batch(i, vec![i as u32])).is_ok());
        }
        assert!(tx.hand_off(Item::Control("barrier")).is_ok());
        drop(tx);
        for i in 0..8 {
            let got = unbatch(rx.next_batch(None).expect("queued batch"));
            assert_eq!((got.watermark, got.tuples), (i, vec![i as u32]));
        }
        // A control item keeps its place in the FIFO: after every batch
        // queued before it.
        assert!(matches!(
            rx.next_batch(None),
            Some(Item::Control("barrier"))
        ));
        assert!(rx.next_batch(None).is_none(), "closed and drained");
    }

    #[test]
    fn a_parked_router_wakes_only_at_the_low_water_mark() {
        let (tx, rx) = batch_queue::<u32, &str>(4);
        let shared = Arc::clone(&rx.0);
        for i in 0..4 {
            assert!(tx.hand_off(batch(i, Vec::new())).is_ok());
        }
        let (done_tx, done_rx) = channel();
        let router = thread::spawn(move || {
            let sent = tx.hand_off(batch(4, Vec::new())).is_ok();
            done_tx.send(sent).expect("test thread listens");
        });
        wait_for(&shared, |s| s.router_parked);
        // One pop leaves 3 queued, above the low-water mark of 2: the
        // router must stay parked.
        assert_eq!(rx.next_batch(None).map(|b| unbatch(b).watermark), Some(0));
        assert!(shared.locked().router_parked, "woken above low water");
        assert!(done_rx.try_recv().is_err());
        // The second pop reaches 2 queued: the router is woken and lands
        // its batch behind the rest.
        assert_eq!(rx.next_batch(None).map(|b| unbatch(b).watermark), Some(1));
        assert_eq!(done_rx.recv(), Ok(true));
        router.join().expect("router thread");
        let rest: Vec<u64> = std::iter::from_fn(|| rx.next_batch(None))
            .map(|b| unbatch(b).watermark)
            .collect();
        assert_eq!(rest, vec![2, 3, 4]);
    }

    #[test]
    fn spent_buffers_come_back_to_the_router_emptied() {
        let (tx, rx) = batch_queue::<u32, &str>(2);
        assert_eq!(
            tx.hand_off(batch(0, Vec::with_capacity(16))).ok(),
            Some(None)
        );
        let first = unbatch(rx.next_batch(None).expect("queued"));
        let buf_ptr = first.tuples.as_ptr();
        let mut spent = first.tuples;
        spent.extend([1, 2, 3]);
        assert!(tx.hand_off(batch(1, vec![9])).is_ok());
        assert!(rx.next_batch(Some(spent)).is_some());
        // The next hand-off returns the very buffer the worker spent,
        // cleared and with its capacity.
        let back = tx
            .hand_off(batch(2, Vec::new()))
            .ok()
            .flatten()
            .expect("a spare buffer is waiting");
        assert!(back.is_empty() && back.capacity() >= 16);
        assert_eq!(back.as_ptr(), buf_ptr);
        assert_eq!(tx.hand_off(batch(3, Vec::new())).ok(), Some(None));
    }

    /// A control item gives no buffer away, so it takes no spare back:
    /// the spare waits for the next batch.
    #[test]
    fn control_items_leave_the_spares_to_batches() {
        let (tx, rx) = batch_queue::<u32, &str>(4);
        assert!(tx.hand_off(batch(0, Vec::with_capacity(8))).is_ok());
        let first = unbatch(rx.next_batch(None).expect("queued"));
        assert!(tx.hand_off(Item::Control("barrier")).is_ok());
        assert!(rx.next_batch(Some(first.tuples)).is_some());
        assert_eq!(tx.hand_off(Item::Control("again")).ok(), Some(None));
        let back = tx.hand_off(batch(1, vec![1])).ok().flatten();
        assert!(back.is_some_and(|b| b.is_empty() && b.capacity() >= 8));
    }

    #[test]
    fn closing_the_sender_wakes_a_parked_worker() {
        let (tx, rx) = batch_queue::<u32, &str>(2);
        let shared = Arc::clone(&tx.0);
        let worker = thread::spawn(move || rx.next_batch(None).is_none());
        wait_for(&shared, |s| s.worker_parked);
        drop(tx);
        assert!(worker.join().expect("worker thread"), "the end, no batch");
    }

    #[test]
    fn dropping_the_receiver_fails_a_parked_router() {
        let (tx, rx) = batch_queue::<u32, &str>(1);
        let shared = Arc::clone(&tx.0);
        assert!(tx.hand_off(batch(0, Vec::new())).is_ok());
        let router = thread::spawn(move || {
            let parked = tx.hand_off(batch(1, vec![7]));
            let later = tx.hand_off(batch(2, Vec::new()));
            (parked.err().map(|b| unbatch(b).tuples), later.is_err())
        });
        wait_for(&shared, |s| s.router_parked);
        drop(rx);
        let (returned, later_failed) = router.join().expect("router thread");
        assert_eq!(returned, Some(vec![7]), "the refused batch comes back");
        assert!(later_failed, "every later hand-off fails too");
    }
}

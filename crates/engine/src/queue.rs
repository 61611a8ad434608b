//! The shard hand-off: one bounded batch queue per shard, router → worker.
//!
//! A `std::sync::mpsc::sync_channel` wakes a router parked on a full
//! queue as soon as one slot frees. Under load the queue is always full,
//! so the router and the worker ping-pong: one sleep and one wake-up per
//! batch, on both threads. This queue instead lets the router sleep
//! until the worker has drained it to half (the **low-water wake**), so a
//! wake-up buys the router half a queue of batches to route without
//! blocking again. A worker waiting for its next drain is woken by each
//! batch that arrives while it waits.
//!
//! The worker takes batches in **drains** of a fixed size, the bound the
//! queue is built with, so it groups and advances once per drain instead
//! of once per batch. A drain is cut short only where the stream cuts
//! it: at a control item or at the end. Which batches share a drain is
//! then a property of the stream, not of timing, so a processor sees the
//! same calls on every run — and its windows reach the same memory — as
//! an allocation gate needs. A worker waits for a drain to fill; every
//! stretch of the stream ends in a control item or the end, so none waits
//! forever. Batches it holds count against the capacity until it hands
//! them back, so queued plus held batches never pass it.
//!
//! The queue also **recycles the batch buffers**: the worker hands each
//! drain's tuple `Vec`s back on its next take, and the router fills a
//! returned buffer instead of allocating one, so a run allocates at most
//! `capacity + 2` buffers per shard however many batches it routes.
//!
//! Besides tuple batches the queue carries the engine's **control
//! items** ([`Item::Control`]: barriers, with or without a save step,
//! and end of stream) in the same FIFO order, so a control item is seen
//! only after every batch routed before it, always alone: a drain never
//! crosses one.
//!
//! Either end going away is seen by the other: dropping the
//! [`BatchSender`] closes the queue (the worker drains what is queued,
//! then sees the end), and dropping the [`BatchReceiver`] — a worker that
//! returned or panicked — fails the router's next or current
//! [`hand_off`](BatchSender::hand_off) instead of parking it forever.
//!
//! Every transition is one call of the pure [`queue_step`] on the queue's
//! [`State`]; the two ends only run it under the lock and carry out the
//! [`Effects`] it returns (notify the other end, or park and step again).
//! The unit tests explore every interleaving of one router and one
//! worker on small queues through `queue_step` alone.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One routed message: tuples plus the router's watermark at flush time.
/// No tuple in this batch — or any later batch to this shard — has a
/// timestamp below the watermark; on the arrival-order path it is 0
/// forever, so a count tuple stays 16 bytes and the worker pays one
/// integer compare per drain for it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Batch<E> {
    pub(crate) watermark: u64,
    /// `(key, payload)` in routing order.
    pub(crate) tuples: Vec<E>,
}

/// One queue entry: a batch of tuples, or a control item of type `C`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Item<E, C> {
    Batch(Batch<E>),
    Control(C),
}

/// Everything [`queue_step`] reads and writes: the queued items, the spare
/// buffers, and who is parked.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State<E, C> {
    queue: VecDeque<Item<E, C>>,
    /// Emptied tuple buffers the worker handed back, for the router to
    /// fill next.
    spares: Vec<Vec<E>>,
    /// Batches the worker has taken and not handed back yet: they count
    /// against the capacity until their buffers come back.
    held: usize,
    /// The router is parked on a full queue, waiting for the low-water
    /// mark.
    router_parked: bool,
    /// The worker is parked on an empty queue.
    worker_parked: bool,
    /// The sender is gone: nothing follows what is queued.
    closed: bool,
    /// The receiver is gone: nothing will drain the queue again.
    abandoned: bool,
    /// Most items queued plus batches held (≥ 1).
    capacity: usize,
    /// Batches in a whole drain (≥ 1).
    drain: usize,
}

impl<E, C> State<E, C> {
    /// An open, empty queue.
    fn new(capacity: usize, drain: usize) -> Self {
        debug_assert!(capacity >= 1 && drain >= 1);
        State {
            queue: VecDeque::with_capacity(capacity),
            // At most `capacity` queued or held, one being filled and one
            // being handed off: no more buffers ever exist.
            spares: Vec::with_capacity(capacity + 2),
            held: 0,
            router_parked: false,
            worker_parked: false,
            closed: false,
            abandoned: false,
            capacity,
            // A drain the router could not fill without parking would
            // wait on a router that waits for the low-water mark.
            drain: drain.min(capacity / 2 + 1),
        }
    }

    /// Release a parked router once queued plus held items are down to
    /// the low-water mark, half the capacity; returns whether to wake it.
    fn ebb(&mut self) -> bool {
        let wake = self.router_parked && self.queue.len() + self.held <= self.capacity / 2;
        if wake {
            self.router_parked = false;
        }
        wake
    }
}

/// One transition of the queue, made by one end under the lock.
enum Event<'a, E, C> {
    /// The router offers the item in `item`. It is queued — `item` left
    /// empty and, for a batch, a spare buffer put in `spare` — unless the
    /// queued and held items fill the capacity or the router still waits
    /// for the low-water mark: then the router parks. Once the receiver
    /// is gone the item stays in `item`, refused.
    HandOff {
        item: &'a mut Option<Item<E, C>>,
        spare: &'a mut Option<Vec<E>>,
    },
    /// The worker asks for its next drain: the control item at the head
    /// alone, into `control`, or else a whole drain of batches, or the
    /// fewer queued ahead of a control item or the end, into `batches`
    /// (empty: the worker hands its batches back first). The worker parks
    /// until one of those is queued; with both left empty and no park, the
    /// queue is closed and drained.
    Next {
        batches: &'a mut Vec<Batch<E>>,
        control: &'a mut Option<C>,
    },
    /// The worker hands back the batches in the `Vec`, leaving it empty;
    /// their buffers, cleared, become spares while the sender lives.
    HandBack(&'a mut Vec<Batch<E>>),
    /// The receiver is gone.
    Abandon,
    /// The sender is gone.
    Close,
}

/// What a [`queue_step`] asks of the thread that made it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Effects {
    /// Notify the worker parked on an empty queue.
    wake_worker: bool,
    /// Notify the router parked on a full queue.
    wake_router: bool,
    /// Wait to be notified, then make the same request again.
    park: bool,
}

/// Apply `event` to `state`: the queue's one transition function.
fn queue_step<E, C>(state: &mut State<E, C>, event: Event<'_, E, C>) -> Effects {
    let mut fx = Effects::default();
    match event {
        Event::HandOff { item, spare } => {
            if state.abandoned {
                return fx;
            }
            // Parked until the worker clears the flag at the low-water
            // mark; a spurious wake-up parks again.
            if state.router_parked || state.queue.len() + state.held >= state.capacity {
                state.router_parked = true;
                fx.park = true;
                return fx;
            }
            let Some(item) = item.take() else {
                return fx;
            };
            // A control item gives no buffer away, so it takes none.
            if let Item::Batch(_) = item {
                *spare = state.spares.pop();
            }
            // Never grows: queued plus held items stay within the
            // capacity the queue was built with.
            state.queue.push_back(item); // alloc:amortized bounded by the preallocated capacity
            fx.wake_worker = std::mem::take(&mut state.worker_parked);
        }
        Event::Next { batches, control } => {
            let ready = (state.queue.iter().take(state.drain))
                .take_while(|item| matches!(item, Item::Batch(_)))
                .count();
            if ready == 0 {
                // The head is a control item, or nothing is queued.
                if let Some(Item::Control(c)) = state.queue.pop_front() {
                    *control = Some(c);
                    fx.wake_router = state.ebb();
                } else if !state.closed {
                    state.worker_parked = true;
                    fx.park = true;
                }
            } else if ready == state.drain || ready < state.queue.len() || state.closed {
                debug_assert!(batches.is_empty(), "a drain is handed back first");
                for item in state.queue.drain(..ready) {
                    if let Item::Batch(batch) = item {
                        // Never grows: the worker reserves the drain bound.
                        batches.push(batch); // alloc:amortized bounded by the worker's reserved drain
                    }
                }
                state.held += ready;
            } else {
                // Part of a drain, with nothing behind it yet.
                state.worker_parked = true;
                fx.park = true;
            }
        }
        Event::HandBack(batches) => {
            state.held -= batches.len();
            for Batch { mut tuples, .. } in batches.drain(..) {
                if !state.closed {
                    tuples.clear();
                    // Never grows: every buffer in circulation fits the
                    // capacity reserved at construction.
                    state.spares.push(tuples); // alloc:amortized bounded by the preallocated capacity
                }
            }
            fx.wake_router = state.ebb();
        }
        Event::Abandon => {
            state.abandoned = true;
            fx.wake_router = true;
        }
        Event::Close => {
            // The router fills no more buffers, so the spares are freed
            // now rather than held to the end of the run.
            state.closed = true;
            state.spares = Vec::new();
            fx.wake_worker = true;
        }
    }
    fx
}

struct Shared<E, C> {
    state: Mutex<State<E, C>>,
    /// Notified when a batch arrives for a parked worker, or on close.
    filled: Condvar,
    /// Notified when the queue drains to the low-water mark under a
    /// parked router, or when the receiver goes away.
    drained: Condvar,
}

impl<E, C> Shared<E, C> {
    /// The queue state. Every transition is one [`queue_step`], which leaves
    /// the state valid whatever it does, so a panic elsewhere cannot
    /// leave it torn: a poisoned lock is taken over as is.
    fn locked(&self) -> MutexGuard<'_, State<E, C>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Make `event` under the held lock and notify whom its effects
    /// name; returns whether the caller must park.
    fn apply(&self, state: &mut State<E, C>, event: Event<'_, E, C>) -> bool {
        let fx = queue_step(state, event);
        if fx.wake_worker {
            self.filled.notify_one();
        }
        if fx.wake_router {
            self.drained.notify_one();
        }
        fx.park
    }
}

/// The router's end of a shard's [`batch_queue`].
pub(crate) struct BatchSender<E, C>(Arc<Shared<E, C>>);

/// The worker's end of a shard's [`batch_queue`].
pub(crate) struct BatchReceiver<E, C>(Arc<Shared<E, C>>);

/// What [`BatchReceiver::take_drain`] took.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Taken<C> {
    /// One or more batches, in the caller's `Vec`.
    Batches,
    /// A control item, alone.
    Control(C),
    /// The sender is gone and everything queued was taken.
    End,
}

/// A queue holding at most `capacity` (≥ 1) items queued or held, whose
/// worker takes batches in drains of `drain` (≥ 1), or of
/// `capacity / 2 + 1` if that is fewer.
pub(crate) fn batch_queue<E, C>(
    capacity: usize,
    drain: usize,
) -> (BatchSender<E, C>, BatchReceiver<E, C>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::new(capacity, drain)),
        filled: Condvar::new(),
        drained: Condvar::new(),
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
        let shared = &*self.0;
        let (mut item, mut spare) = (Some(item), None);
        let mut state = shared.locked();
        while shared.apply(
            &mut state,
            Event::HandOff {
                item: &mut item,
                spare: &mut spare,
            },
        ) {
            state = shared
                .drained
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        item.map_or(Ok(spare), Err)
    }
}

impl<E, C> Drop for BatchSender<E, C> {
    /// End of stream: the worker drains what is queued, then stops.
    fn drop(&mut self) {
        let shared = &*self.0;
        shared.apply(&mut shared.locked(), Event::Close);
    }
}

impl<E, C> BatchReceiver<E, C> {
    /// Hand back the batches in `drain` (their buffers emptied, for the
    /// router to reuse, or freed once the sender is gone) and take the
    /// next: the oldest queued item if it is a control item, else a
    /// whole drain of batches, or the fewer queued ahead of a control item
    /// or the end, into `drain` in FIFO order. Parks until one of those
    /// is queued.
    pub(crate) fn take_drain(&self, drain: &mut Vec<Batch<E>>) -> Taken<C> {
        let shared = &*self.0;
        let mut control = None;
        let mut state = shared.locked();
        shared.apply(&mut state, Event::HandBack(drain));
        while shared.apply(
            &mut state,
            Event::Next {
                batches: drain,
                control: &mut control,
            },
        ) {
            state = shared
                .filled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        match control {
            Some(c) => Taken::Control(c),
            None if drain.is_empty() => Taken::End,
            None => Taken::Batches,
        }
    }
}

impl<E, C> Drop for BatchReceiver<E, C> {
    /// The worker is gone (returned or unwinding): release a parked
    /// router and fail every later hand-off.
    fn drop(&mut self) {
        let shared = &*self.0;
        shared.apply(&mut shared.locked(), Event::Abandon);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::mpsc::channel;
    use std::thread;
    use std::time::Duration;

    type Q = Item<u32, &'static str>;

    fn batch(watermark: u64, tuples: Vec<u32>) -> Q {
        Item::Batch(Batch { watermark, tuples })
    }

    /// Take the next drain into `drain` and return its watermarks; panics
    /// on anything but batches.
    fn take_marks(rx: &BatchReceiver<u32, &str>, drain: &mut Vec<Batch<u32>>) -> Vec<u64> {
        match rx.take_drain(drain) {
            Taken::Batches => drain.iter().map(|b| b.watermark).collect(),
            other => panic!("expected batches, got {other:?}"),
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
        let (tx, rx) = batch_queue::<u32, &str>(9, 4);
        for i in 0..8 {
            assert!(tx.hand_off(batch(i, vec![i as u32])).is_ok());
        }
        assert!(tx.hand_off(Item::Control("barrier")).is_ok());
        drop(tx);
        let mut drain = Vec::new();
        for first in [0, 4] {
            assert_eq!(rx.take_drain(&mut drain), Taken::Batches);
            let got: Vec<(u64, Vec<u32>)> = drain
                .iter()
                .map(|b| (b.watermark, b.tuples.clone()))
                .collect();
            let want: Vec<(u64, Vec<u32>)> =
                (first..first + 4).map(|i| (i, vec![i as u32])).collect();
            assert_eq!(got, want);
        }
        // A control item keeps its place in the FIFO: after every batch
        // queued before it.
        assert_eq!(rx.take_drain(&mut drain), Taken::Control("barrier"));
        assert_eq!(rx.take_drain(&mut drain), Taken::End, "closed and drained");
        assert!(drain.is_empty());
    }

    #[test]
    fn a_parked_router_wakes_only_at_the_low_water_mark() {
        let (tx, rx) = batch_queue::<u32, &str>(4, 1);
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
        let mut drain = Vec::new();
        // A held batch still counts: 3 queued and 1 held, then 2 queued,
        // 1 held and one handed back — both above the low-water mark of
        // 2, so the router must stay parked.
        assert_eq!(take_marks(&rx, &mut drain), vec![0]);
        assert_eq!(take_marks(&rx, &mut drain), vec![1]);
        assert!(shared.locked().router_parked, "woken above low water");
        assert!(done_rx.try_recv().is_err());
        // Handing batch 1 back leaves 2 queued and none held: the router
        // is woken and lands its batch behind the rest.
        assert_eq!(take_marks(&rx, &mut drain), vec![2]);
        assert_eq!(done_rx.recv(), Ok(true));
        router.join().expect("router thread");
        let rest: Vec<u64> = std::iter::from_fn(|| match rx.take_drain(&mut drain) {
            Taken::Batches => Some(drain[0].watermark),
            _ => None,
        })
        .collect();
        assert_eq!(rest, vec![3, 4]);
    }

    #[test]
    fn spent_buffers_come_back_to_the_router_emptied() {
        // Room for two queued batches beside the one the worker holds.
        let (tx, rx) = batch_queue::<u32, &str>(3, 1);
        assert_eq!(
            tx.hand_off(batch(0, Vec::with_capacity(16))).ok(),
            Some(None)
        );
        let mut drain = Vec::new();
        assert_eq!(take_marks(&rx, &mut drain), vec![0]);
        let buf_ptr = drain[0].tuples.as_ptr();
        drain[0].tuples.extend([1, 2, 3]);
        assert!(tx.hand_off(batch(1, vec![9])).is_ok());
        assert_eq!(take_marks(&rx, &mut drain), vec![1]);
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
        let (tx, rx) = batch_queue::<u32, &str>(4, 1);
        assert!(tx.hand_off(batch(0, Vec::with_capacity(8))).is_ok());
        let mut drain = Vec::new();
        assert_eq!(take_marks(&rx, &mut drain), vec![0]);
        assert!(tx.hand_off(Item::Control("barrier")).is_ok());
        assert_eq!(rx.take_drain(&mut drain), Taken::Control("barrier"));
        assert_eq!(tx.hand_off(Item::Control("again")).ok(), Some(None));
        let back = tx.hand_off(batch(1, vec![1])).ok().flatten();
        assert!(back.is_some_and(|b| b.is_empty() && b.capacity() >= 8));
    }

    #[test]
    fn closing_the_sender_wakes_a_parked_worker() {
        let (tx, rx) = batch_queue::<u32, &str>(2, 4);
        let shared = Arc::clone(&tx.0);
        let worker = thread::spawn(move || rx.take_drain(&mut Vec::new()) == Taken::End);
        wait_for(&shared, |s| s.worker_parked);
        drop(tx);
        assert!(worker.join().expect("worker thread"), "the end, no batch");
    }

    #[test]
    fn dropping_the_receiver_fails_a_parked_router() {
        let (tx, rx) = batch_queue::<u32, &str>(1, 4);
        let shared = Arc::clone(&tx.0);
        assert!(tx.hand_off(batch(0, Vec::new())).is_ok());
        let router = thread::spawn(move || {
            let parked = tx.hand_off(batch(1, vec![7]));
            let later = tx.hand_off(batch(2, Vec::new()));
            (parked.err(), later.is_err())
        });
        wait_for(&shared, |s| s.router_parked);
        drop(rx);
        let (returned, later_failed) = router.join().expect("router thread");
        assert_eq!(
            returned,
            Some(batch(1, vec![7])),
            "the refused batch comes back"
        );
        assert!(later_failed, "every later hand-off fails too");
    }

    #[test]
    fn a_drain_stops_at_a_control_item() {
        let (tx, rx) = batch_queue::<u32, &str>(8, 4);
        for item in [
            batch(0, vec![]),
            batch(1, vec![]),
            Item::Control("barrier"),
            batch(2, vec![]),
            batch(3, vec![]),
            batch(4, vec![]),
            batch(5, vec![]),
            batch(6, vec![]),
        ] {
            assert!(tx.hand_off(item).is_ok());
        }
        drop(tx);
        let mut drain = Vec::new();
        assert_eq!(take_marks(&rx, &mut drain), vec![0, 1]);
        assert_eq!(rx.take_drain(&mut drain), Taken::Control("barrier"));
        assert!(drain.is_empty(), "a control item is taken alone");
        assert_eq!(take_marks(&rx, &mut drain), vec![2, 3, 4, 5], "the bound");
        assert_eq!(take_marks(&rx, &mut drain), vec![6]);
        assert_eq!(rx.take_drain(&mut drain), Taken::End);
    }

    #[test]
    fn the_router_parks_once_queued_plus_held_batches_reach_capacity() {
        let (tx, rx) = batch_queue::<u32, &str>(4, 2);
        let shared = Arc::clone(&rx.0);
        for i in 0..4 {
            assert!(tx.hand_off(batch(i, Vec::new())).is_ok());
        }
        let mut drain = Vec::new();
        assert_eq!(take_marks(&rx, &mut drain), vec![0, 1]);
        // Two slots of the queue are free, but the worker holds two
        // batches: the router parks.
        let (done_tx, done_rx) = channel();
        let router = thread::spawn(move || {
            let sent = tx.hand_off(batch(4, Vec::new())).is_ok();
            done_tx.send(sent).expect("test thread listens");
        });
        wait_for(&shared, |s| s.router_parked);
        assert_eq!(shared.locked().queue.len(), 2);
        assert!(done_rx.try_recv().is_err());
        // Handing both back reaches the low-water mark.
        assert_eq!(take_marks(&rx, &mut drain), vec![2, 3]);
        assert_eq!(done_rx.recv(), Ok(true));
        router.join().expect("router thread");
        assert_eq!(take_marks(&rx, &mut drain), vec![4]);
    }

    /// The router's hand-off of batch `i`, made on `state` directly.
    fn offer(state: &mut State<u32, &'static str>, i: u64) -> Effects {
        let (mut item, mut spare) = (Some(batch(i, Vec::new())), None);
        let fx = queue_step(
            state,
            Event::HandOff {
                item: &mut item,
                spare: &mut spare,
            },
        );
        assert_eq!(item.is_some(), fx.park, "queued unless parked");
        fx
    }

    /// The worker's request for a drain, made on `state` directly.
    fn next(state: &mut State<u32, &'static str>, drain: &mut Vec<Batch<u32>>) -> Effects {
        queue_step(
            state,
            Event::Next {
                batches: drain,
                control: &mut None,
            },
        )
    }

    #[test]
    fn hand_back_wakes_a_parked_router_only_at_the_low_water_mark() {
        let mut state = State::new(6, 2);
        for i in 0..6 {
            assert_eq!(offer(&mut state, i), Effects::default());
        }
        let mut drain = Vec::new();
        assert_eq!(next(&mut state, &mut drain), Effects::default());
        let parked = offer(&mut state, 6);
        assert!(parked.park && state.router_parked);
        // 4 queued after the hand-back: above the low-water mark of 3.
        let back = queue_step(&mut state, Event::HandBack(&mut drain));
        assert!(!back.wake_router && state.router_parked);
        assert_eq!(next(&mut state, &mut drain), Effects::default());
        assert_eq!((state.queue.len(), state.held), (2, 2));
        // Handing those two back leaves 2: the router is woken, once.
        let back = queue_step(&mut state, Event::HandBack(&mut drain));
        assert!(back.wake_router && !state.router_parked);
        assert_eq!(state.spares.len(), 4, "every buffer came back");
        assert!(!queue_step(&mut state, Event::HandBack(&mut drain)).wake_router);
    }

    /// The model explorer's script: what the router sends, in order.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Send {
        Batch,
        Control,
    }

    /// Where the modelled router is: about to offer script item `i` (or
    /// close, past the end), parked offering it, closing its end, done.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    enum Router {
        Offer(usize),
        Parked(usize),
        Closing,
        Done,
    }

    /// Where the modelled worker is: about to hand back and take, parked
    /// on an empty queue, woken to take again, dropping its end, done.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum WorkerPc {
        Take,
        Parked,
        Again,
        Dropping,
        Done,
    }

    /// One reachable configuration: the queue's state, both threads, and
    /// what the checks need to remember.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Node {
        queue: State<(), usize>,
        router: Router,
        /// Buffers the router allocated: its first open batch, then one
        /// per hand-off that brought no spare back.
        allocated: usize,
        worker: WorkerPc,
        /// The batches the worker holds (their watermarks are script
        /// positions).
        held: Vec<Batch<()>>,
        /// The script position the worker expects next.
        expect: usize,
        /// Batches taken since the last control item.
        since_control: usize,
    }

    impl Node {
        fn wake(&mut self, fx: Effects) {
            if let (true, Router::Parked(i)) = (fx.wake_router, &self.router) {
                self.router = Router::Offer(*i);
            }
            if fx.wake_worker && self.worker == WorkerPc::Parked {
                self.worker = WorkerPc::Again;
            }
        }

        /// The worker's request for its next drain, then the checks on
        /// what it got.
        fn take(&mut self, script: &[Send]) -> Result<(), String> {
            let mut control = None;
            let fx = queue_step(
                &mut self.queue,
                Event::Next {
                    batches: &mut self.held,
                    control: &mut control,
                },
            );
            self.wake(fx);
            if fx.park {
                self.worker = WorkerPc::Parked;
                return Ok(());
            }
            self.worker = WorkerPc::Take;
            if let Some(c) = control {
                let since = script[..c].iter().rev();
                let sent = since.take_while(|&&s| s == Send::Batch).count();
                if c != self.expect || script[c] != Send::Control || self.since_control != sent {
                    return Err(format!(
                        "control {c} taken at position {} after {} batches, {sent} sent",
                        self.expect, self.since_control
                    ));
                }
                self.expect += 1;
                self.since_control = 0;
            } else if self.held.is_empty() {
                if self.expect != script.len() {
                    return Err(format!("the end after {} of {}", self.expect, script.len()));
                }
                self.worker = WorkerPc::Dropping;
            } else {
                for b in &self.held {
                    let at = b.watermark as usize;
                    if at != self.expect || script[at] != Send::Batch {
                        return Err(format!("batch {at} taken at {}", self.expect));
                    }
                    self.expect += 1;
                }
                // A whole drain, or one cut short by the next control
                // item or the end of the stream.
                let whole = self.queue.drain.min(self.queue.capacity / 2 + 1);
                let cut = matches!(self.queue.queue.front(), Some(Item::Control(_)))
                    || self.queue.closed && self.queue.queue.is_empty();
                if self.held.len() > whole || self.held.len() < whole && !cut {
                    return Err(format!("a drain of {} batches", self.held.len()));
                }
                self.since_control += self.held.len();
            }
            Ok(())
        }

        /// Every successor: `(node, spurious)`, where a spurious one is a
        /// wake-up nobody notified.
        fn successors(&self, script: &[Send]) -> Result<Vec<(Node, bool)>, String> {
            let mut out = Vec::new();
            match self.router {
                Router::Offer(i) if i == script.len() => {
                    let mut n = self.clone();
                    n.router = Router::Closing;
                    out.push((n, false));
                }
                Router::Offer(i) => {
                    let mut n = self.clone();
                    let mut item = Some(match script[i] {
                        Send::Batch => Item::Batch(Batch {
                            watermark: i as u64,
                            tuples: Vec::new(),
                        }),
                        Send::Control => Item::Control(i),
                    });
                    let mut spare = None;
                    let fx = queue_step(
                        &mut n.queue,
                        Event::HandOff {
                            item: &mut item,
                            spare: &mut spare,
                        },
                    );
                    n.wake(fx);
                    n.router = match (fx.park, item) {
                        (true, _) => Router::Parked(i),
                        (false, Some(_)) => Router::Closing,
                        (false, None) => {
                            if script[i] == Send::Batch && spare.is_none() {
                                n.allocated += 1;
                            }
                            Router::Offer(i + 1)
                        }
                    };
                    out.push((n, false));
                }
                Router::Parked(i) => {
                    let mut n = self.clone();
                    n.router = Router::Offer(i);
                    out.push((n, true));
                }
                Router::Closing => {
                    let mut n = self.clone();
                    let fx = queue_step(&mut n.queue, Event::Close);
                    n.wake(fx);
                    n.router = Router::Done;
                    out.push((n, false));
                }
                Router::Done => {}
            }
            match self.worker {
                WorkerPc::Take => {
                    let mut n = self.clone();
                    let fx = queue_step(&mut n.queue, Event::HandBack(&mut n.held));
                    n.wake(fx);
                    n.take(script)?;
                    out.push((n, false));
                    // Or the worker panics between drains, holding its
                    // batches: its end is dropped.
                    let mut n = self.clone();
                    n.worker = WorkerPc::Dropping;
                    out.push((n, false));
                }
                WorkerPc::Again => {
                    let mut n = self.clone();
                    n.take(script)?;
                    out.push((n, false));
                }
                WorkerPc::Parked => {
                    let mut n = self.clone();
                    n.worker = WorkerPc::Again;
                    out.push((n, true));
                }
                WorkerPc::Dropping => {
                    let mut n = self.clone();
                    let fx = queue_step(&mut n.queue, Event::Abandon);
                    n.wake(fx);
                    n.worker = WorkerPc::Done;
                    out.push((n, false));
                }
                WorkerPc::Done => {}
            }
            Ok(out)
        }

        /// The bounds every reachable state keeps.
        fn check(&self) -> Result<(), String> {
            let q = &self.queue;
            if q.queue.len() + q.held > q.capacity {
                return Err(format!("{} queued and {} held", q.queue.len(), q.held));
            }
            if self.worker != WorkerPc::Done && q.held != self.held.len() {
                return Err(format!("{} held, {} counted", self.held.len(), q.held));
            }
            if self.allocated > q.capacity + 2 {
                return Err(format!("{} buffers allocated", self.allocated));
            }
            Ok(())
        }
    }

    /// Explore every interleaving of one router sending `script` and one
    /// worker taking drains on a queue of `capacity` and `drain`; returns
    /// the number of states reached, or the first violation with the
    /// configuration that shows it.
    fn explore(script: &[Send], capacity: usize, drain: usize) -> Result<usize, String> {
        let start = Node {
            queue: State::new(capacity, drain),
            router: Router::Offer(0),
            allocated: 1,
            worker: WorkerPc::Take,
            held: Vec::new(),
            expect: 0,
            since_control: 0,
        };
        let fail = |why: String, node: &Node| {
            format!("{why}\n  script {script:?}, capacity {capacity}, drain {drain}\n  at {node:?}")
        };
        let mut index = HashMap::from([(start.clone(), 0)]);
        let mut nodes = vec![start];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new()];
        let mut done = Vec::new();
        let mut at = 0;
        while at < nodes.len() {
            let node = nodes[at].clone();
            node.check().map_err(|why| fail(why, &node))?;
            let next = node.successors(script).map_err(|why| fail(why, &node))?;
            if next.is_empty() {
                done.push(at);
            } else if next.iter().all(|&(_, spurious)| spurious) {
                return Err(fail("a lost wake-up: both ends wait".into(), &node));
            }
            for (succ, _) in next {
                let id = *index.entry(succ.clone()).or_insert_with(|| {
                    nodes.push(succ);
                    preds.push(Vec::new());
                    nodes.len() - 1
                });
                preds[id].push(at);
            }
            at += 1;
        }
        // Shutdown completes from every state: walk back from the ends.
        let mut ends = vec![false; nodes.len()];
        let mut stack = done;
        while let Some(id) = stack.pop() {
            if !std::mem::replace(&mut ends[id], true) {
                stack.extend(&preds[id]);
            }
        }
        match ends.iter().position(|&reaches| !reaches) {
            Some(stuck) => Err(fail("no way to shut down".into(), &nodes[stuck])),
            None => Ok(nodes.len()),
        }
    }

    /// Every script of up to `len` items.
    fn scripts(len: usize) -> Vec<Vec<Send>> {
        let mut all = vec![Vec::new()];
        let mut last = vec![Vec::new()];
        for _ in 0..len {
            last = last
                .iter()
                .flat_map(|s: &Vec<Send>| {
                    [Send::Batch, Send::Control].map(|next| [s.as_slice(), &[next]].concat())
                })
                .collect();
            all.extend(last.iter().cloned());
        }
        all
    }

    /// Every interleaving of one router and one worker, with every
    /// script of batches and control items up to six long, on queues of
    /// capacity 2 and 3 with drains of 1, 2 and 3 (3 is cut to 2 by the
    /// low-water clamp), the worker free to panic between any two drains.
    /// Checked in every state: queued plus held items within the
    /// capacity, at most `capacity + 2` buffers, no lost wake-up (both
    /// ends parked), and a way to shut down; on every take: FIFO order, a
    /// control item alone and after exactly the batches sent since the
    /// last, a drain that is whole or cut short by a control item or the
    /// end; at the end, every item.
    #[test]
    fn every_interleaving_keeps_order_bounds_and_wake_ups() {
        let mut explored = 0;
        for capacity in [2, 3] {
            for drain in [1, 2, 3] {
                let mut states = 0;
                for script in scripts(6) {
                    states += explore(&script, capacity, drain).unwrap_or_else(|e| panic!("{e}"));
                }
                eprintln!("capacity {capacity}, drain {drain}: {states} states explored");
                explored += states;
            }
        }
        eprintln!("{explored} states explored in all");
        assert!(
            explored > 10_000,
            "the explorer reached only {explored} states"
        );
    }
}

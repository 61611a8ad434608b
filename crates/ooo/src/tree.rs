//! The finger B-tree aggregator: event-time-keyed window state.
//!
//! Layout: an arena (`Vec<Node>` + free list) of B-tree nodes. Leaves hold
//! `(timestamp, partial)` entries sorted by timestamp (ties in arrival
//! order); internal nodes hold child indices. Every node caches
//!
//! * `min_ts` / `max_ts` — bounds of its subtree (the `max_ts` of nodes on
//!   the **right spine** is allowed to go stale-low so that in-order
//!   appends never walk to the root; descents treat the rightmost child as
//!   unbounded, which makes the staleness unobservable, and queries repair
//!   the spine in O(height) first),
//! * `agg` + `dirty` — the subtree aggregate, repaired lazily on query.
//!
//! Eviction is prefix-only (sliding windows evict the old end): whole
//! leftmost leaves are unlinked without rebalancing, and a root left with
//! a single child collapses, so the height tracks the live size. Interior
//! nodes away from the left spine keep their insertion-time occupancy,
//! which bounds the height at O(log_B n).
//!
//! A warm tree makes no allocator call: a freed node keeps its `entries`
//! and `children` buffers on the free list, a node taken from the arena
//! has room for a full node in the role it takes, an emptied tree keeps
//! its last leaf, reads walk nodes by index without copying them, and an
//! unsorted batch is ordered in a scratch buffer the tree keeps. The heap
//! thus tracks the tree's high-water size.

use swag_core::aggregator::MemoryFootprint;
use swag_core::ops::AggregateOp;
use swag_core::InvariantViolation;

/// Event timestamps (the tree's key): milliseconds, ticks — any `u64`.
pub type Timestamp = u64;

/// Maximum entries per leaf / children per internal node; a node splits
/// in half when it exceeds this.
const MAX_FANOUT: usize = 16;

/// Room a node's buffers need: a node holds one item over
/// [`MAX_FANOUT`] until it splits.
const NODE_ROOM: usize = MAX_FANOUT + 1;

/// Arena "null" index.
const NONE: u32 = u32::MAX;

/// One arena node. `children.is_empty()` ⇔ leaf.
#[derive(Debug, Clone)]
struct Node<P> {
    parent: u32,
    /// Smallest timestamp in the subtree. Always accurate.
    min_ts: Timestamp,
    /// Largest timestamp in the subtree. May be stale-low on the right
    /// spine (see module docs); accurate everywhere else.
    max_ts: Timestamp,
    /// Cached subtree aggregate; valid iff `!dirty`.
    agg: P,
    dirty: bool,
    /// Leaf payload: `(ts, partial)` sorted by `ts`, ties in arrival order.
    entries: Vec<(Timestamp, P)>,
    /// Internal payload: child indices in timestamp order.
    children: Vec<u32>,
}

impl<P> Node<P> {
    fn empty_leaf(identity: P) -> Self {
        Node {
            parent: NONE,
            min_ts: Timestamp::MAX,
            max_ts: 0,
            agg: identity,
            dirty: false,
            entries: Vec::new(),
            children: Vec::new(),
        }
    }

    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// A FiBA-style finger B-tree aggregator keyed by event timestamp.
///
/// * [`insert`](Self::insert) — amortized O(1) for in-order arrivals,
///   O(log d) for arrivals displaced by distance `d`;
/// * [`evict_older_than`](Self::evict_older_than) /
///   [`bulk_evict`](Self::bulk_evict) — amortized O(1) per evicted entry;
/// * [`query`](Self::query) / [`query_range`](Self::query_range) —
///   O(height) beyond the deferred up-spine repair work.
///
/// Combine order is timestamp order (ties: arrival order), so the window
/// aggregate is independent of the arrival permutation.
#[derive(Debug, Clone)]
pub struct FingerBTree<O: AggregateOp> {
    op: O,
    nodes: Vec<Node<O::Partial>>,
    free: Vec<u32>,
    root: u32,
    /// Left finger: the leftmost leaf.
    head: u32,
    /// Right finger: the rightmost leaf.
    tail: u32,
    len: usize,
    /// Levels in the tree; a lone leaf root is height 1.
    height: usize,
    /// `bulk_insert`'s ordering scratch: `(ts, batch index)` of the
    /// entries to insert.
    order: Vec<(Timestamp, usize)>,
}

impl<O: AggregateOp> FingerBTree<O> {
    /// An empty tree aggregating with `op`.
    pub fn new(op: O) -> Self {
        let leaf = Node::empty_leaf(op.identity());
        FingerBTree {
            op,
            nodes: vec![leaf],
            free: Vec::new(),
            root: 0,
            head: 0,
            tail: 0,
            len: 0,
            height: 1,
            order: Vec::new(),
        }
    }

    /// The aggregate operation.
    pub fn op(&self) -> &O {
        &self.op
    }

    /// Live entries in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tree's height in levels (1 = a lone leaf), for tests and
    /// reports.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Smallest live timestamp, or `None` when empty.
    pub fn min_ts(&self) -> Option<Timestamp> {
        self.node(self.head).entries.first().map(|e| e.0)
    }

    /// Largest live timestamp, or `None` when empty.
    pub fn max_ts(&self) -> Option<Timestamp> {
        self.node(self.tail).entries.last().map(|e| e.0)
    }

    fn node(&self, n: u32) -> &Node<O::Partial> {
        &self.nodes[n as usize] // check:allow node ids index the live arena by construction
    }

    fn node_mut(&mut self, n: u32) -> &mut Node<O::Partial> {
        &mut self.nodes[n as usize] // check:allow node ids index the live arena by construction
    }

    /// An empty, dirty node under `parent` with room for a full leaf or
    /// a full internal node: a recycled one from the free list, else a
    /// new one. Each arena node reserves each buffer once, on its first
    /// use in that role.
    fn take_node(&mut self, parent: u32, leaf: bool) -> u32 {
        let n = match self.free.pop() {
            Some(n) => n,
            None => {
                // alloc:amortized the arena grows to the tree's high-water node count once
                self.nodes.push(Node::empty_leaf(self.op.identity()));
                (self.nodes.len() - 1) as u32
            }
        };
        let node = self.node_mut(n);
        node.parent = parent;
        node.dirty = true;
        // alloc:amortized a no-op but on an arena node's first use in a role: buffers survive the free list
        match leaf {
            true => node.entries.reserve_exact(NODE_ROOM),
            false => node.children.reserve_exact(NODE_ROOM),
        }
        n
    }

    /// Put `n` on the free list, emptied but keeping its buffers.
    fn free_node(&mut self, n: u32) {
        let identity = self.op.identity();
        let node = self.node_mut(n);
        node.entries.clear();
        node.children.clear();
        node.parent = NONE;
        node.agg = identity;
        node.dirty = false;
        self.free.push(n); // alloc:amortized the free list grows to the tree's high-water node count once
    }

    fn leftmost_leaf(&self, mut n: u32) -> u32 {
        while let Some(&c) = self.node(n).children.first() {
            n = c;
        }
        n
    }

    /// Mark the spine above (and including) `n` dirty, stopping at the
    /// first ancestor that is already dirty with bounds covering `ts` —
    /// the FiBA trick that makes a run of appends amortized O(1).
    /// `update_bounds` is false on the append fast path: the new maximum
    /// is deliberately *not* pushed up (right-spine staleness).
    fn mark_dirty_up(&mut self, start: u32, ts: Timestamp, update_bounds: bool) {
        let mut n = start;
        loop {
            let node = self.node_mut(n);
            let mut changed = !node.dirty;
            node.dirty = true;
            if update_bounds {
                if ts < node.min_ts {
                    node.min_ts = ts;
                    changed = true;
                }
                if ts > node.max_ts {
                    node.max_ts = ts;
                    changed = true;
                }
            }
            let parent = node.parent;
            if !changed || parent == NONE {
                return;
            }
            n = parent;
        }
    }

    /// Finger search: the smallest subtree, found from a finger, that
    /// must contain position `ts`. Costs O(log d) for displacement `d`.
    fn find_subtree(&self, ts: Timestamp) -> u32 {
        // Left finger: older than everything → the head leaf front.
        if ts < self.node(self.head).min_ts {
            return self.head;
        }
        // Right finger: walk up from the tail until the subtree's minimum
        // covers ts. Tail ancestors are rightmost at their level, so the
        // first one whose min_ts ≤ ts contains ts's position.
        let mut n = self.tail;
        while self.node(n).min_ts > ts {
            let p = self.node(n).parent;
            if p == NONE {
                break;
            }
            n = p;
        }
        n
    }

    /// Descend from `n` to the leaf where `ts` belongs. The rightmost
    /// child is the fallback, which makes stale right-spine `max_ts`
    /// harmless.
    fn descend(&self, mut n: u32, ts: Timestamp) -> u32 {
        loop {
            let node = self.node(n);
            if node.is_leaf() {
                return n;
            }
            let mut chosen = node.children[node.children.len() - 1];
            for &c in &node.children {
                if ts < self.node(c).max_ts {
                    chosen = c;
                    break;
                }
            }
            n = chosen;
        }
    }

    /// Insert one partial at event time `ts`. Amortized O(1) when `ts` is
    /// ≥ every live timestamp (the common in-order case), O(log d) when
    /// displaced by `d`. Ties insert after existing equal-`ts` entries.
    pub fn insert(&mut self, ts: Timestamp, partial: O::Partial) {
        if self.len == 0 {
            let root = self.root;
            let node = self.node_mut(root);
            node.entries.push((ts, partial)); // alloc:amortized a lone root leaf doubles to a full leaf once; split leaves have room
            node.min_ts = ts;
            node.max_ts = ts;
            node.dirty = true;
            self.len = 1;
            strict_check!(self);
            return;
        }
        let tail = self.tail;
        let in_order = self
            .node(tail)
            .entries
            .last()
            .is_none_or(|&(last, _)| last <= ts);
        if in_order {
            // Append at the right finger; the spine above only gets its
            // dirty bit, not the new max (stale-low is harmless).
            let node = self.node_mut(tail);
            node.entries.push((ts, partial)); // alloc:amortized a lone root leaf doubles to a full leaf once; split leaves have room
            node.max_ts = ts;
            self.len += 1;
            self.mark_dirty_up(tail, ts, false);
            if self.node(tail).entries.len() > MAX_FANOUT {
                self.split(tail);
            }
        } else {
            let top = self.find_subtree(ts);
            let leaf = self.descend(top, ts);
            let node = self.node_mut(leaf);
            let pos = node.entries.partition_point(|&(t, _)| t <= ts);
            node.entries.insert(pos, (ts, partial)); // alloc:amortized a lone root leaf doubles to a full leaf once; split leaves have room
            self.len += 1;
            // Bounds must be updated inside the walk: doing it here first
            // would make an already-dirty leaf look unchanged and stop the
            // walk before ancestors learn the new minimum.
            self.mark_dirty_up(leaf, ts, true);
            if self.node(leaf).entries.len() > MAX_FANOUT {
                self.split(leaf);
            }
        }
        strict_check!(self);
    }

    /// Lift `value` with the tree's op and insert it at `ts`.
    pub fn insert_value(&mut self, ts: Timestamp, value: &O::Input) {
        let lifted = self.op.lift(value);
        self.insert(ts, lifted); // alloc:amortized reaches insert's leaf pushes, waived there
    }

    /// Batch insert, mirroring the PR 2 bulk API. The batch is handled in
    /// stable timestamp order, so the tree's contents — and every answer
    /// of an exact op — are those of inserting the entries one by one in
    /// any order; the node shape follows the order taken. A pre-sorted
    /// batch of in-order arrivals rides the right-finger append path end
    /// to end.
    pub fn bulk_insert(&mut self, batch: &[(Timestamp, O::Partial)]) {
        self.bulk_insert_from(batch, 0);
    }

    /// [`bulk_insert`](Self::bulk_insert) of only the entries stamped at
    /// or after `floor`; returns how many that was. An unsorted batch is
    /// ordered by `(ts, batch index)` in scratch the tree keeps, which is
    /// the stable timestamp order without allocating.
    pub fn bulk_insert_from(
        &mut self,
        batch: &[(Timestamp, O::Partial)],
        floor: Timestamp,
    ) -> usize {
        let kept = || (0..).zip(batch).filter(move |(_, e)| e.0 >= floor);
        if kept().is_sorted_by_key(|(_, e)| e.0) {
            let mut count = 0;
            for (_, (ts, p)) in kept() {
                self.insert(*ts, p.clone()); // alloc:amortized reaches insert's leaf pushes, waived there
                count += 1;
            }
            return count;
        }
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        // alloc:amortized the ordering scratch grows to the largest unsorted batch once
        order.extend(kept().map(|(i, e)| (e.0, i)));
        order.sort_unstable();
        for &(ts, i) in &order {
            if let Some((_, p)) = batch.get(i) {
                self.insert(ts, p.clone()); // alloc:amortized reaches insert's leaf pushes, waived there
            }
        }
        let count = order.len();
        self.order = order;
        count
    }

    /// Split an over-full node in half, moving the right half into a
    /// node taken from the arena and attaching it to the parent
    /// (splitting it in turn if needed). Grows a new root — the only way
    /// the tree gains height.
    fn split(&mut self, n: u32) {
        let parent = self.node(n).parent;
        let leaf = self.node(n).is_leaf();
        let right = self.take_node(parent, leaf);
        if leaf {
            let mut moved = std::mem::take(&mut self.node_mut(right).entries);
            let from = &mut self.node_mut(n).entries;
            moved.extend(from.drain(from.len() / 2..)); // alloc:amortized into a taken node's reserved room
            self.node_mut(right).entries = moved;
            if n == self.tail {
                self.tail = right;
            }
        } else {
            let mut moved = std::mem::take(&mut self.node_mut(right).children);
            let from = &mut self.node_mut(n).children;
            moved.extend(from.drain(from.len() / 2..)); // alloc:amortized into a taken node's reserved room
            for &c in &moved {
                self.node_mut(c).parent = right;
            }
            self.node_mut(right).children = moved;
        }
        self.fit_bounds(n);
        self.fit_bounds(right);
        if parent == NONE {
            let root = self.take_node(NONE, false);
            // alloc:amortized into a taken node's reserved room
            self.node_mut(root).children.extend([n, right]);
            self.fit_bounds(root);
            self.node_mut(n).parent = root;
            self.node_mut(right).parent = root;
            self.root = root;
            self.height += 1;
        } else {
            let pos = {
                let kids = &self.node(parent).children;
                kids.iter()
                    .position(|&c| c == n)
                    .map_or(kids.len(), |i| i + 1)
            };
            self.node_mut(parent).children.insert(pos, right); // alloc:amortized a parent below MAX_FANOUT children has room: every internal node was taken with it
            if self.node(parent).children.len() > MAX_FANOUT {
                self.split(parent);
            }
        }
    }

    /// Set a non-empty node's bounds from its first and last entry or
    /// child, and mark it dirty.
    fn fit_bounds(&mut self, n: u32) {
        let node = self.node(n);
        let (min_ts, max_ts) = match (node.children.first(), node.children.last()) {
            (Some(&first), Some(&last)) => (self.node(first).min_ts, self.node(last).max_ts),
            _ => (
                node.entries.first().map_or(0, |e| e.0),
                node.entries.last().map_or(0, |e| e.0),
            ),
        };
        let node = self.node_mut(n);
        node.min_ts = min_ts;
        node.max_ts = max_ts;
        node.dirty = true;
    }

    /// Evict every entry with timestamp `< cutoff`; returns how many went.
    /// Whole leftmost leaves are dropped without rebalancing, amortized
    /// O(1) per evicted entry plus O(height) once.
    pub fn evict_older_than(&mut self, cutoff: Timestamp) -> usize {
        let mut evicted = 0usize;
        while self.len > 0 {
            let head = self.head;
            let (k, leaf_len) = {
                let entries = &self.node(head).entries;
                (entries.partition_point(|&(t, _)| t < cutoff), entries.len())
            };
            if k == 0 {
                break;
            }
            evicted += k;
            self.len -= k;
            if k < leaf_len {
                let node = self.node_mut(head);
                node.entries.drain(..k);
                node.dirty = true;
                self.refresh_left_spine();
                break;
            }
            if self.len == 0 {
                self.reset_empty();
                break;
            }
            self.unlink_head_leaf();
        }
        if evicted > 0 {
            strict_check!(self);
        }
        evicted
    }

    /// Evict the `n` oldest entries (fewer if the tree is smaller);
    /// returns how many went. The count-based sibling of
    /// [`evict_older_than`](Self::evict_older_than), mirroring the PR 2
    /// `bulk_evict(n)` shape.
    pub fn bulk_evict(&mut self, n: usize) -> usize {
        let mut budget = n;
        let mut evicted = 0usize;
        while budget > 0 && self.len > 0 {
            let head = self.head;
            let leaf_len = self.node(head).entries.len();
            let k = leaf_len.min(budget);
            evicted += k;
            budget -= k;
            self.len -= k;
            if k < leaf_len {
                let node = self.node_mut(head);
                node.entries.drain(..k);
                node.dirty = true;
                self.refresh_left_spine();
                break;
            }
            if self.len == 0 {
                self.reset_empty();
                break;
            }
            self.unlink_head_leaf();
        }
        if evicted > 0 {
            strict_check!(self);
        }
        evicted
    }

    /// Unlink the (fully evicted) head leaf, cascading through emptied
    /// ancestors, collapsing a single-child root, and re-deriving the left
    /// finger and the left spine's bounds. Only called while other leaves
    /// hold data.
    fn unlink_head_leaf(&mut self) {
        let mut n = self.head;
        loop {
            let p = self.node(n).parent;
            self.free_node(n);
            if p == NONE {
                break;
            }
            let node = self.node_mut(p);
            node.children.remove(0);
            if node.children.is_empty() {
                n = p;
                continue;
            }
            break;
        }
        loop {
            let root = self.root;
            let lone = {
                let node = self.node(root);
                if !node.is_leaf() && node.children.len() == 1 {
                    Some(node.children[0])
                } else {
                    None
                }
            };
            match lone {
                Some(c) => {
                    self.free_node(root);
                    self.node_mut(c).parent = NONE;
                    self.root = c;
                    self.height -= 1;
                }
                None => break,
            }
        }
        self.head = self.leftmost_leaf(self.root);
        self.refresh_left_spine();
    }

    /// Re-derive `min_ts` along the left spine (head leaf → root) after an
    /// eviction and mark it dirty. The spine's minimum is exactly the head
    /// leaf's first entry.
    fn refresh_left_spine(&mut self) {
        let head = self.head;
        let spine_min = self
            .node(head)
            .entries
            .first()
            .map_or(Timestamp::MAX, |e| e.0);
        let mut n = head;
        loop {
            let node = self.node_mut(n);
            node.min_ts = spine_min;
            node.dirty = true;
            let p = node.parent;
            if p == NONE {
                break;
            }
            n = p;
        }
    }

    /// Back to a single empty leaf once the last entry went: the head
    /// leaf — then the only leaf — stays as the root, keeping its buffer,
    /// and its ancestors go to the free list.
    fn reset_empty(&mut self) {
        let leaf = self.head;
        let mut up = self.node(leaf).parent;
        while up != NONE {
            let next = self.node(up).parent;
            self.free_node(up);
            up = next;
        }
        let identity = self.op.identity();
        let node = self.node_mut(leaf);
        node.entries.clear();
        node.parent = NONE;
        node.min_ts = Timestamp::MAX;
        node.max_ts = 0;
        node.agg = identity;
        node.dirty = false;
        self.root = leaf;
        self.tail = leaf;
        self.height = 1;
        self.len = 0;
    }

    /// Repair the cached aggregate of `n`'s subtree (recursing only into
    /// dirty children) and clear its dirty bit.
    fn repair(&mut self, n: u32) {
        if !self.node(n).dirty {
            return;
        }
        let kids = self.node(n).children.len();
        for i in 0..kids {
            let c = self.node(n).children[i];
            self.repair(c);
        }
        let node = self.node(n);
        let agg = if node.is_leaf() {
            match node.entries.split_first() {
                None => self.op.identity(),
                Some(((_, first), rest)) => {
                    let mut acc = first.clone();
                    for (_, p) in rest {
                        acc = self.op.combine(&acc, p);
                    }
                    acc
                }
            }
        } else {
            match node.children.split_first() {
                None => self.op.identity(),
                Some((&first, rest)) => {
                    let mut acc = self.node(first).agg.clone();
                    for &c in rest {
                        acc = self.op.combine(&acc, &self.node(c).agg);
                    }
                    acc
                }
            }
        };
        let node = self.node_mut(n);
        node.agg = agg;
        node.dirty = false;
    }

    /// Fix the stale-low `max_ts` along the right spine, bottom-up from
    /// the tail leaf by parent pointers. O(height); run before any
    /// bounds-sensitive walk.
    fn repair_spine_max(&mut self) {
        if self.len == 0 {
            return;
        }
        let mut n = self.tail;
        while n != NONE {
            let node = self.node(n);
            let fixed = if node.is_leaf() {
                node.entries.last().map_or(node.max_ts, |e| e.0)
            } else {
                (node.children.iter())
                    .map(|&c| self.node(c).max_ts)
                    .max()
                    .unwrap_or(node.max_ts)
            };
            let node = self.node_mut(n);
            node.max_ts = fixed;
            n = node.parent;
        }
    }

    /// Aggregate of everything live, in timestamp order. Repairs the dirty
    /// spine (deferred combine work) and reads the root cache.
    pub fn query(&mut self) -> O::Partial {
        if self.len == 0 {
            return self.op.identity();
        }
        self.repair(self.root);
        self.node(self.root).agg.clone()
    }

    /// Aggregate of the half-open event-time range `[lo, hi)`, in
    /// timestamp order. O(fanout · height) plus deferred repair work:
    /// fully covered subtrees contribute their cached aggregate.
    pub fn query_range(&mut self, lo: Timestamp, hi: Timestamp) -> O::Partial {
        if self.len == 0 || lo >= hi {
            return self.op.identity();
        }
        self.repair_spine_max();
        let root = self.root;
        match self.range_agg(root, lo, hi) {
            Some(agg) => agg,
            None => self.op.identity(),
        }
    }

    fn range_agg(&mut self, n: u32, lo: Timestamp, hi: Timestamp) -> Option<O::Partial> {
        let (min_ts, max_ts, kids) = {
            let node = self.node(n);
            (node.min_ts, node.max_ts, node.children.len())
        };
        if max_ts < lo || min_ts >= hi {
            return None;
        }
        if lo <= min_ts && max_ts < hi {
            self.repair(n);
            return Some(self.node(n).agg.clone());
        }
        let mut acc: Option<O::Partial> = None;
        if kids == 0 {
            for (t, p) in &self.node(n).entries {
                if *t >= lo && *t < hi {
                    acc = Some(match acc {
                        None => p.clone(),
                        Some(a) => self.op.combine(&a, p),
                    });
                }
            }
        } else {
            for i in 0..kids {
                let c = self.node(n).children[i];
                if let Some(part) = self.range_agg(c, lo, hi) {
                    acc = Some(match acc {
                        None => part,
                        Some(a) => self.op.combine(&a, &part),
                    });
                }
            }
        }
        acc
    }

    /// Validate the tree's structural invariants: global timestamp order,
    /// accurate node bounds (after right-spine repair), uniform leaf
    /// depth, fanout limits, parent/finger pointers, the live count, and
    /// cached aggregate = subtree refold. O(n); wired to every mutating
    /// operation under the `strict-invariants` feature.
    pub fn check_invariants(&mut self) -> Result<(), InvariantViolation> {
        const ALG: &str = "finger-btree";
        if self.len == 0 {
            let node = self.node(self.root);
            if !node.is_leaf() || !node.entries.is_empty() {
                return Err(InvariantViolation::new(
                    ALG,
                    "empty-shape",
                    format!(
                        "empty tree must be a lone empty leaf (leaf={}, entries={})",
                        node.is_leaf(),
                        node.entries.len()
                    ),
                ));
            }
            return Ok(());
        }
        self.repair_spine_max();
        self.repair(self.root);
        let summary = self.validate(self.root, NONE, 1)?;
        if summary.count != self.len {
            return Err(InvariantViolation::new(
                ALG,
                "live-count",
                format!("len says {} but leaves hold {}", self.len, summary.count),
            ));
        }
        if summary.depth != self.height {
            return Err(InvariantViolation::new(
                ALG,
                "height",
                format!(
                    "height says {} but leaves sit at {}",
                    self.height, summary.depth
                ),
            ));
        }
        if self.head != self.leftmost_leaf(self.root) {
            return Err(InvariantViolation::new(
                ALG,
                "left-finger",
                format!("head finger {} is not the leftmost leaf", self.head),
            ));
        }
        let mut rightmost = self.root;
        while let Some(&c) = self.node(rightmost).children.last() {
            rightmost = c;
        }
        if self.tail != rightmost {
            return Err(InvariantViolation::new(
                ALG,
                "right-finger",
                format!("tail finger {} is not the rightmost leaf", self.tail),
            ));
        }
        Ok(())
    }

    fn validate(
        &self,
        n: u32,
        parent: u32,
        depth: usize,
    ) -> Result<SubtreeSummary<O::Partial>, InvariantViolation> {
        const ALG: &str = "finger-btree";
        let node = self.node(n);
        if node.parent != parent {
            return Err(InvariantViolation::new(
                ALG,
                "parent-pointer",
                format!("node {n}: parent says {} expected {parent}", node.parent),
            ));
        }
        if node.is_leaf() {
            if node.entries.is_empty() {
                return Err(InvariantViolation::new(
                    ALG,
                    "leaf-occupancy",
                    format!("leaf {n} is empty in a non-empty tree"),
                ));
            }
            if node.entries.len() > MAX_FANOUT {
                return Err(InvariantViolation::new(
                    ALG,
                    "fanout",
                    format!("leaf {n} holds {} > {MAX_FANOUT}", node.entries.len()),
                ));
            }
            if !node.entries.windows(2).all(|w| w[0].0 <= w[1].0) {
                return Err(InvariantViolation::new(
                    ALG,
                    "timestamp-order",
                    format!("leaf {n} entries out of order"),
                ));
            }
            let min = node.entries[0].0;
            let max = node.entries[node.entries.len() - 1].0;
            if node.min_ts != min || node.max_ts != max {
                return Err(InvariantViolation::new(
                    ALG,
                    "bounds",
                    format!(
                        "leaf {n}: stored [{}, {}] actual [{min}, {max}]",
                        node.min_ts, node.max_ts
                    ),
                ));
            }
            let mut fold = node.entries[0].1.clone();
            for (_, p) in &node.entries[1..] {
                fold = self.op.combine(&fold, p);
            }
            if !node.dirty && !partials_agree(&node.agg, &fold) {
                return Err(InvariantViolation::new(
                    ALG,
                    "cache-refold",
                    format!("leaf {n}: cached {:?} refold {:?}", node.agg, fold),
                ));
            }
            return Ok(SubtreeSummary {
                min,
                max,
                depth,
                count: node.entries.len(),
                fold,
            });
        }
        if node.children.len() > MAX_FANOUT {
            return Err(InvariantViolation::new(
                ALG,
                "fanout",
                format!(
                    "node {n} has {} > {MAX_FANOUT} children",
                    node.children.len()
                ),
            ));
        }
        if n == self.root && node.children.len() < 2 {
            return Err(InvariantViolation::new(
                ALG,
                "root-collapse",
                format!("internal root {n} kept {} child(ren)", node.children.len()),
            ));
        }
        let mut summaries = Vec::with_capacity(node.children.len());
        for &c in &node.children {
            summaries.push(self.validate(c, n, depth + 1)?);
        }
        for w in summaries.windows(2) {
            if w[0].max > w[1].min {
                return Err(InvariantViolation::new(
                    ALG,
                    "timestamp-order",
                    format!(
                        "node {n}: sibling ranges overlap ({} > {})",
                        w[0].max, w[1].min
                    ),
                ));
            }
        }
        let min = summaries[0].min;
        let max = summaries[summaries.len() - 1].max;
        if node.min_ts != min || node.max_ts != max {
            return Err(InvariantViolation::new(
                ALG,
                "bounds",
                format!(
                    "node {n}: stored [{}, {}] actual [{min}, {max}]",
                    node.min_ts, node.max_ts
                ),
            ));
        }
        let depths: Vec<usize> = summaries.iter().map(|s| s.depth).collect();
        if depths.iter().any(|&d| d != depths[0]) {
            return Err(InvariantViolation::new(
                ALG,
                "uniform-depth",
                format!("node {n}: leaf depths differ ({depths:?})"),
            ));
        }
        let mut fold = summaries[0].fold.clone();
        for s in &summaries[1..] {
            fold = self.op.combine(&fold, &s.fold);
        }
        if !node.dirty && !partials_agree(&node.agg, &fold) {
            return Err(InvariantViolation::new(
                ALG,
                "cache-refold",
                format!("node {n}: cached {:?} refold {:?}", node.agg, fold),
            ));
        }
        Ok(SubtreeSummary {
            min,
            max,
            depth: depths[0],
            count: summaries.iter().map(|s| s.count).sum(),
            fold,
        })
    }
}

/// What a subtree validation pass derives bottom-up.
struct SubtreeSummary<P> {
    min: Timestamp,
    max: Timestamp,
    /// Leaf depth under this subtree (uniform or the check fails).
    depth: usize,
    count: usize,
    fold: P,
}

/// Checker equality: plain `PartialEq`, except two self-unequal values
/// (NaN partials) agree — same policy as `swag-core`'s checkers.
fn partials_agree<P: PartialEq>(a: &P, b: &P) -> bool {
    #[allow(clippy::eq_op)]
    {
        a == b || (a != a && b != b)
    }
}

impl<O: AggregateOp> MemoryFootprint for FingerBTree<O> {
    fn heap_bytes(&self) -> usize {
        let per_node: usize = self
            .nodes
            .iter()
            .map(|n| {
                n.entries.capacity() * std::mem::size_of::<(Timestamp, O::Partial)>()
                    + n.children.capacity() * std::mem::size_of::<u32>()
            })
            .sum();
        self.nodes.capacity() * std::mem::size_of::<Node<O::Partial>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.order.capacity() * std::mem::size_of::<(Timestamp, usize)>()
            + per_node
    }
}

impl<O: AggregateOp> FingerBTree<O> {
    /// All live `(timestamp, partial)` entries in timestamp order (ties
    /// in arrival order) — the tree's logical contents, read for
    /// snapshotting. Reads raw leaf payloads only, so lazily-deferred
    /// aggregate repairs need not run first. O(n).
    pub fn entries(&self) -> Vec<(Timestamp, O::Partial)> {
        let mut out = Vec::with_capacity(self.len);
        if self.len == 0 {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = self.node(n);
            if node.is_leaf() {
                out.extend(node.entries.iter().cloned()); // alloc:amortized snapshot buffer growth is amortized O(1) doubling
            } else {
                // Reverse push so the leftmost child is visited first.
                for &c in node.children.iter().rev() {
                    stack.push(c); // alloc:amortized snapshot buffer growth is amortized O(1) doubling
                }
            }
        }
        out
    }

    /// Build a tree holding exactly `entries` (timestamp order, as
    /// produced by [`entries`](Self::entries)).
    ///
    /// The rebuilt tree holds the same logical contents but its node
    /// shape — and therefore its combine association — follows the bulk
    /// in-order build, not the original insertion history. Answers are
    /// bitwise-identical for exact (integer-valued) streams; general
    /// floating-point streams can differ in low bits, the same stance
    /// `tests/ooo_equivalence.rs` takes when comparing FiBA against the
    /// count-based algorithms.
    pub fn from_entries(op: O, entries: &[(Timestamp, O::Partial)]) -> Self {
        let mut tree = Self::new(op);
        tree.bulk_insert(entries);
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use swag_core::ops::{Last, Max, MaxF64, Sum};

    /// Reference: a BTreeMap of ts → partials in arrival order.
    fn oracle_fold<O: AggregateOp>(op: &O, oracle: &BTreeMap<u64, Vec<O::Partial>>) -> O::Partial {
        let mut acc = op.identity();
        for ps in oracle.values() {
            for p in ps {
                acc = op.combine(&acc, p);
            }
        }
        acc
    }

    fn oracle_range<O: AggregateOp>(
        op: &O,
        oracle: &BTreeMap<u64, Vec<O::Partial>>,
        lo: u64,
        hi: u64,
    ) -> O::Partial {
        let mut acc = op.identity();
        for (_, ps) in oracle.range(lo..hi) {
            for p in ps {
                acc = op.combine(&acc, p);
            }
        }
        acc
    }

    #[test]
    fn in_order_inserts_match_linear_fold() {
        let op = Sum::<i64>::new();
        let mut tree = FingerBTree::new(op);
        let mut sum = 0i64;
        for i in 0..1000u64 {
            let v = (i as i64 * 37) % 101;
            tree.insert(i, v);
            sum += v;
            assert_eq!(tree.query(), sum);
            tree.check_invariants().unwrap();
        }
        assert_eq!(tree.len(), 1000);
        assert_eq!(tree.min_ts(), Some(0));
        assert_eq!(tree.max_ts(), Some(999));
    }

    #[test]
    fn shuffled_inserts_match_oracle() {
        let op = Sum::<i64>::new();
        let mut tree = FingerBTree::new(op);
        let mut oracle: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
        // A deterministic shuffle: stride through residues.
        for i in 0..2000u64 {
            let ts = (i * 769) % 2048;
            let v = i as i64;
            tree.insert(ts, v);
            oracle.entry(ts).or_default().push(v);
        }
        assert_eq!(tree.query(), oracle_fold(&op, &oracle));
        tree.check_invariants().unwrap();
        for (lo, hi) in [(0, 2048), (100, 900), (7, 8), (2000, 2100), (500, 500)] {
            assert_eq!(
                tree.query_range(lo, hi),
                oracle_range(&op, &oracle, lo, hi),
                "range [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn eviction_tracks_oracle() {
        let op = Sum::<i64>::new();
        let mut tree = FingerBTree::new(op);
        let mut oracle: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
        for i in 0..4096u64 {
            let ts = (i * 271) % 4096;
            tree.insert(ts, 1 + ts as i64);
            oracle.entry(ts).or_default().push(1 + ts as i64);
        }
        for cutoff in [1, 100, 101, 1024, 4000, 4096, 9000] {
            let expected: usize = oracle.range(..cutoff).map(|(_, ps)| ps.len()).sum();
            let got = tree.evict_older_than(cutoff);
            assert_eq!(got, expected, "cutoff {cutoff}");
            oracle.retain(|&ts, _| ts >= cutoff);
            assert_eq!(tree.len(), oracle.values().map(Vec::len).sum::<usize>());
            assert_eq!(tree.query(), oracle_fold(&op, &oracle));
            tree.check_invariants().unwrap();
        }
        assert!(tree.is_empty());
        assert_eq!(tree.query(), 0);
        // The tree stays usable after a full drain.
        tree.insert(7, 7);
        assert_eq!(tree.query(), 7);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn bulk_evict_takes_the_oldest() {
        let op = Max::<i64>::new();
        let mut tree = FingerBTree::new(op);
        for i in 0..500u64 {
            tree.insert(i, Some(500 - i as i64));
        }
        assert_eq!(tree.bulk_evict(100), 100);
        assert_eq!(tree.min_ts(), Some(100));
        assert_eq!(tree.len(), 400);
        assert_eq!(tree.query(), Some(400));
        tree.check_invariants().unwrap();
        assert_eq!(tree.bulk_evict(1000), 400);
        assert!(tree.is_empty());
    }

    #[test]
    fn bulk_insert_matches_singles_bitwise() {
        let op = MaxF64::new();
        let batch: Vec<(u64, f64)> = (0..300u64)
            .map(|i| ((i * 113) % 331, ((i * 7919) % 1000) as f64 / 7.0))
            .collect();
        let mut singles = FingerBTree::new(op);
        for &(ts, v) in &batch {
            singles.insert(ts, v);
        }
        let mut bulk = FingerBTree::new(op);
        bulk.bulk_insert(&batch);
        assert_eq!(bulk.len(), singles.len());
        assert_eq!(bulk.query().to_bits(), singles.query().to_bits());
        bulk.check_invariants().unwrap();
        for (lo, hi) in [(0, 400), (50, 200), (330, 331)] {
            assert_eq!(
                bulk.query_range(lo, hi).to_bits(),
                singles.query_range(lo, hi).to_bits()
            );
        }
    }

    #[test]
    fn equal_timestamps_keep_arrival_order() {
        let op = Last::<i64>::new();
        let mut tree = FingerBTree::new(op);
        tree.insert(5, Some(1));
        tree.insert(3, Some(0));
        tree.insert(5, Some(2));
        tree.insert(5, Some(3));
        // Combine order: ts 3, then ts 5 in arrival order 1, 2, 3.
        assert_eq!(tree.query(), Some(3));
        assert_eq!(tree.query_range(5, 6), Some(3));
        assert_eq!(tree.query_range(3, 5), Some(0));
        tree.check_invariants().unwrap();
    }

    #[test]
    fn answers_are_arrival_order_insensitive() {
        let op = Sum::<i64>::new();
        let entries: Vec<(u64, i64)> = (0..512u64).map(|i| (i, (i as i64 % 97) - 48)).collect();
        let mut in_order = FingerBTree::new(op);
        for &(ts, v) in &entries {
            in_order.insert(ts, v);
        }
        // A bounded-displacement permutation: swap blocks of 16.
        let mut shuffled = entries.clone();
        for pair in shuffled.chunks_mut(32) {
            pair.reverse();
        }
        let mut ooo = FingerBTree::new(op);
        for &(ts, v) in &shuffled {
            ooo.insert(ts, v);
        }
        assert_eq!(in_order.query(), ooo.query());
        for (lo, hi) in [(0, 512), (17, 100), (31, 33)] {
            assert_eq!(in_order.query_range(lo, hi), ooo.query_range(lo, hi));
        }
        ooo.check_invariants().unwrap();
    }

    #[test]
    fn tree_grows_and_shrinks_height() {
        let mut tree = FingerBTree::new(Sum::<i64>::new());
        for i in 0..10_000u64 {
            tree.insert(i, 1);
        }
        assert!(tree.height() >= 3, "height {}", tree.height());
        let h = tree.height();
        tree.evict_older_than(9_990);
        assert!(
            tree.height() < h,
            "root must collapse after prefix eviction"
        );
        assert_eq!(tree.query(), 10);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn memory_footprint_is_reported() {
        let mut tree = FingerBTree::new(Sum::<i64>::new());
        let empty = tree.heap_bytes();
        for i in 0..1000u64 {
            tree.insert(i, 1);
        }
        assert!(tree.heap_bytes() > empty);
    }

    #[test]
    fn mixed_program_against_oracle() {
        // A miniature in-process version of the fuzz binary's program.
        let op = Sum::<i64>::new();
        let mut tree = FingerBTree::new(op);
        let mut oracle: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut low = 0u64;
        for step in 0..5000u64 {
            match rng() % 10 {
                0..=5 => {
                    let ts = low + rng() % 512;
                    let v = (rng() % 1000) as i64 - 500;
                    tree.insert(ts, v);
                    oracle.entry(ts).or_default().push(v);
                }
                6 | 7 => {
                    let cutoff = low + rng() % 64;
                    let expect: usize = oracle.range(..cutoff).map(|(_, p)| p.len()).sum();
                    assert_eq!(tree.evict_older_than(cutoff), expect);
                    oracle.retain(|&t, _| t >= cutoff);
                    low = low.max(cutoff);
                }
                8 => {
                    let lo = low + rng() % 512;
                    let hi = lo + rng() % 128;
                    assert_eq!(tree.query_range(lo, hi), oracle_range(&op, &oracle, lo, hi));
                }
                _ => {
                    assert_eq!(tree.query(), oracle_fold(&op, &oracle), "step {step}");
                }
            }
            if step % 512 == 0 {
                tree.check_invariants().unwrap();
            }
        }
        assert_eq!(tree.len(), oracle.values().map(Vec::len).sum::<usize>());
    }
}

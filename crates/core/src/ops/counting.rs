//! Instrumented operation wrapper used to reproduce Table 1 of the paper.
//!
//! The paper evaluates each algorithm's time complexity "in terms of the
//! number of aggregate operations it performs per slide" (§4.1). Wrapping an
//! operation in [`CountingOp`] makes every `combine` / `inverse_combine`
//! call bump a shared [`OpCounter`], so the measured per-slide operation
//! counts can be compared directly against the paper's closed forms.

use super::{AggregateOp, CommutativeOp, InvertibleOp, SelectiveOp};
use std::cell::Cell;
use std::rc::Rc;

/// A shared counter of aggregate operations.
///
/// Cloning an `OpCounter` yields a handle to the same underlying count
/// (single-threaded `Rc<Cell<_>>`; the experiment harness is
/// single-threaded by design, matching the paper's stand-alone platform).
#[derive(Debug, Clone, Default)]
pub struct OpCounter(Rc<Cell<u64>>);

impl OpCounter {
    /// Create a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of aggregate operations recorded so far.
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Reset the counter to zero.
    pub fn reset(&self) {
        self.0.set(0);
    }

    /// Read the counter and reset it — convenient for per-slide accounting.
    pub fn take(&self) -> u64 {
        let v = self.0.get();
        self.0.set(0);
        v
    }

    #[inline]
    fn bump(&self) {
        self.0.set(self.0.get() + 1);
    }
}

/// Wraps an [`AggregateOp`], counting every ⊕ and ⊖ invocation.
///
/// `lift` and `lower` are *not* counted: the paper counts aggregate
/// operations "applied directly to the input data", i.e. the binary
/// combines, which is also what its closed forms in §4.1 enumerate.
#[derive(Debug, Clone)]
pub struct CountingOp<O> {
    inner: O,
    counter: OpCounter,
}

impl<O> CountingOp<O> {
    /// Wrap `inner`, bumping `counter` on every combine.
    pub fn new(inner: O, counter: OpCounter) -> Self {
        CountingOp { inner, counter }
    }

    /// A handle to the shared counter.
    pub fn counter(&self) -> OpCounter {
        self.counter.clone()
    }

    /// The wrapped operation.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

// Deliberately does NOT forward the slice kernels (`fold_slice`,
// `prefix_scan_into`, …): the defaults loop over `combine`, so every ⊕ a
// batch kernel performs is still counted and the ops-count experiments keep
// measuring algebraic work, not wall-clock shortcuts.
impl<O: AggregateOp> AggregateOp for CountingOp<O> {
    type Input = O::Input;
    type Partial = O::Partial;
    type Output = O::Output;

    #[inline]
    fn identity(&self) -> Self::Partial {
        self.inner.identity()
    }

    #[inline]
    fn lift(&self, input: &Self::Input) -> Self::Partial {
        self.inner.lift(input)
    }

    #[inline]
    fn combine(&self, a: &Self::Partial, b: &Self::Partial) -> Self::Partial {
        self.counter.bump();
        self.inner.combine(a, b)
    }

    #[inline]
    fn lower(&self, agg: &Self::Partial) -> Self::Output {
        self.inner.lower(agg)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<O: InvertibleOp> InvertibleOp for CountingOp<O> {
    #[inline]
    fn inverse_combine(&self, a: &Self::Partial, b: &Self::Partial) -> Self::Partial {
        self.counter.bump();
        self.inner.inverse_combine(a, b)
    }
}

impl<O: SelectiveOp> SelectiveOp for CountingOp<O> {
    /// One dominance test is one aggregate operation — what the default
    /// (`combine` + `PartialEq`) counted — decided by the wrapped
    /// operation's own `defeats`, so its order (the `total_cmp` NaN policy
    /// of `MaxF64`/`MinF64`) survives the wrapper.
    #[inline]
    fn defeats(&self, new: &Self::Partial, old: &Self::Partial) -> bool {
        self.counter.bump();
        self.inner.defeats(new, old)
    }
}
impl<O: CommutativeOp> CommutativeOp for CountingOp<O> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Max, Sum};

    #[test]
    fn counts_combines() {
        let counter = OpCounter::new();
        let op = CountingOp::new(Sum::<i64>::new(), counter.clone());
        let _ = op.combine(&1, &2);
        let _ = op.combine(&3, &4);
        assert_eq!(counter.get(), 2);
        let _ = op.inverse_combine(&7, &4);
        assert_eq!(counter.get(), 3);
    }

    #[test]
    fn lift_and_lower_are_free() {
        let counter = OpCounter::new();
        let op = CountingOp::new(Max::<i64>::new(), counter.clone());
        let p = op.lift(&42);
        let _ = op.lower(&p);
        assert_eq!(counter.get(), 0);
    }

    #[test]
    fn defeats_keeps_the_wrapped_order_and_counts_once() {
        use crate::ops::MaxF64;
        let counter = OpCounter::new();
        let op = CountingOp::new(MaxF64::new(), counter.clone());
        // `NaN != NaN`, so `combine` + `PartialEq` would never let one NaN
        // retire another; `MaxF64::defeats` compares by `total_cmp`.
        assert!(op.defeats(&f64::NAN, &f64::NAN));
        assert!(op.defeats(&f64::NAN, &5.0));
        assert!(!op.defeats(&5.0, &f64::NAN));
        assert_eq!(counter.get(), 3);
    }

    #[test]
    fn take_resets() {
        let counter = OpCounter::new();
        let op = CountingOp::new(Sum::<i64>::new(), counter.clone());
        let _ = op.combine(&1, &2);
        assert_eq!(counter.take(), 1);
        assert_eq!(counter.get(), 0);
    }

    #[test]
    fn clones_share_the_count() {
        let counter = OpCounter::new();
        let op1 = CountingOp::new(Sum::<i64>::new(), counter.clone());
        let op2 = op1.clone();
        let _ = op1.combine(&1, &2);
        let _ = op2.combine(&1, &2);
        assert_eq!(counter.get(), 2);
    }
}

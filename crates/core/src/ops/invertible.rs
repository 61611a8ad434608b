//! Invertible (differential) aggregate operations: Sum, Count, Product,
//! SumSquares, and the algebraic aggregations built on them (Mean, Variance,
//! StdDev, GeometricMean).
//!
//! These are the operations SlickDeque (Inv) — the paper's extension of
//! Panes (Inv) / Subtract-on-Evict — processes with exactly two operations
//! per slide.

use super::{
    lane_fold, scan_prefix_with, scan_suffix_with, AggregateOp, CommutativeOp, InvertibleOp,
};
use core::fmt::Debug;
use core::marker::PhantomData;

/// Numeric carrier for [`Sum`]-like operations: a commutative group under
/// addition.
///
/// Implemented for the signed integers and floats. Unsigned integers are
/// deliberately excluded: the inverse (`sub`) of a windowed sum can transit
/// through states that would underflow an unsigned carrier.
pub trait Additive: Clone + PartialEq + Debug {
    /// The additive identity.
    fn zero() -> Self;
    /// `self + other`.
    fn add(&self, other: &Self) -> Self;
    /// `self - other`.
    fn sub(&self, other: &Self) -> Self;
    /// `self * self` widened into the carrier (used by [`SumSquares`]).
    fn square(&self) -> Self;
}

macro_rules! impl_additive {
    ($($t:ty),*) => {$(
        impl Additive for $t {
            #[inline]
            fn zero() -> Self { 0 as $t }
            #[inline]
            fn add(&self, other: &Self) -> Self { self + other }
            #[inline]
            fn sub(&self, other: &Self) -> Self { self - other }
            #[inline]
            fn square(&self) -> Self { self * self }
        }
    )*};
}

impl_additive!(i32, i64, i128, f32, f64);

/// Windowed sum. Invertible with ⊖ = subtraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sum<T>(PhantomData<T>);

impl<T> Sum<T> {
    /// Create the Sum operation.
    pub fn new() -> Self {
        Sum(PhantomData)
    }
}

impl<T: Additive> AggregateOp for Sum<T> {
    type Input = T;
    type Partial = T;
    type Output = T;

    #[inline]
    fn identity(&self) -> T {
        T::zero()
    }
    #[inline]
    fn lift(&self, input: &T) -> T {
        input.clone()
    }
    #[inline]
    fn combine(&self, a: &T, b: &T) -> T {
        a.add(b)
    }
    #[inline]
    fn lower(&self, agg: &T) -> T {
        agg.clone()
    }
    fn name(&self) -> &'static str {
        "sum"
    }
    fn fold_slice(&self, init: &T, slice: &[T]) -> T {
        // Lane reordering is sound: addition is commutative.
        lane_fold(init, slice, |a, b| a.add(b))
    }
    fn prefix_scan_into(&self, slice: &[T], out: &mut Vec<T>) {
        scan_prefix_with(slice, out, |a, b| a.add(b));
    }
    fn suffix_scan_into(&self, slice: &[T], out: &mut Vec<T>) {
        scan_suffix_with(slice, out, |a, b| a.add(b));
    }
    fn lift_slice_into(&self, inputs: &[T], out: &mut Vec<T>) {
        // Lift is the identity on the carrier: one memcpy.
        out.clear();
        out.extend_from_slice(inputs);
    }
}

impl<T: Additive> InvertibleOp for Sum<T> {
    #[inline]
    fn inverse_combine(&self, a: &T, b: &T) -> T {
        a.sub(b)
    }
}

impl<T: Additive> CommutativeOp for Sum<T> {}

/// Windowed sum of squares (a distributive building block of Variance).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SumSquares<T>(PhantomData<T>);

impl<T> SumSquares<T> {
    /// Create the SumSquares operation.
    pub fn new() -> Self {
        SumSquares(PhantomData)
    }
}

impl<T: Additive> AggregateOp for SumSquares<T> {
    type Input = T;
    type Partial = T;
    type Output = T;

    #[inline]
    fn identity(&self) -> T {
        T::zero()
    }
    #[inline]
    fn lift(&self, input: &T) -> T {
        input.square()
    }
    #[inline]
    fn combine(&self, a: &T, b: &T) -> T {
        a.add(b)
    }
    #[inline]
    fn lower(&self, agg: &T) -> T {
        agg.clone()
    }
    fn name(&self) -> &'static str {
        "sum_squares"
    }
    fn fold_slice(&self, init: &T, slice: &[T]) -> T {
        // Partials are already squared; the fold is a commutative sum.
        lane_fold(init, slice, |a, b| a.add(b))
    }
    fn prefix_scan_into(&self, slice: &[T], out: &mut Vec<T>) {
        scan_prefix_with(slice, out, |a, b| a.add(b));
    }
    fn suffix_scan_into(&self, slice: &[T], out: &mut Vec<T>) {
        scan_suffix_with(slice, out, |a, b| a.add(b));
    }
}

impl<T: Additive> InvertibleOp for SumSquares<T> {
    #[inline]
    fn inverse_combine(&self, a: &T, b: &T) -> T {
        a.sub(b)
    }
}

impl<T: Additive> CommutativeOp for SumSquares<T> {}

/// Windowed count of tuples. Invertible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Count<T>(PhantomData<T>);

impl<T> Count<T> {
    /// Create the Count operation.
    pub fn new() -> Self {
        Count(PhantomData)
    }
}

impl<T: Clone> AggregateOp for Count<T> {
    type Input = T;
    type Partial = u64;
    type Output = u64;

    #[inline]
    fn identity(&self) -> u64 {
        0
    }
    #[inline]
    fn lift(&self, _input: &T) -> u64 {
        1
    }
    #[inline]
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        a + b
    }
    #[inline]
    fn lower(&self, agg: &u64) -> u64 {
        *agg
    }
    fn name(&self) -> &'static str {
        "count"
    }
    fn fold_slice(&self, init: &u64, slice: &[u64]) -> u64 {
        // Integer addition is exact, so a straight reduce is bitwise safe.
        init + slice.iter().sum::<u64>()
    }
    fn prefix_scan_into(&self, slice: &[u64], out: &mut Vec<u64>) {
        scan_prefix_with(slice, out, |a, b| a + b);
    }
    fn suffix_scan_into(&self, slice: &[u64], out: &mut Vec<u64>) {
        scan_suffix_with(slice, out, |a, b| a + b);
    }
    fn lift_slice_into(&self, inputs: &[T], out: &mut Vec<u64>) {
        // Every input lifts to 1: one memset.
        out.clear();
        out.resize(inputs.len(), 1);
    }
}

impl<T: Clone> InvertibleOp for Count<T> {
    #[inline]
    fn inverse_combine(&self, a: &u64, b: &u64) -> u64 {
        a - b
    }
}

impl<T: Clone> CommutativeOp for Count<T> {}

/// Partial aggregate for [`Product`]: the product of the non-zero factors
/// plus a count of zero factors.
///
/// Plain floating-point division cannot undo multiplication by zero, so a
/// naive `Partial = f64` Product would *not* be invertible (0/0 = NaN). This
/// representation restores genuine invertibility, keeping Product in the
/// invertible class exactly as the paper assumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProductPartial {
    /// Product of the non-zero factors in this partial.
    pub nonzero_product: f64,
    /// Number of zero factors folded into this partial.
    pub zero_count: u32,
}

/// Windowed product over `f64`, invertible even in the presence of zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Product;

impl Product {
    /// Create the Product operation.
    pub fn new() -> Self {
        Product
    }
}

impl AggregateOp for Product {
    type Input = f64;
    type Partial = ProductPartial;
    type Output = f64;

    #[inline]
    fn identity(&self) -> ProductPartial {
        ProductPartial {
            nonzero_product: 1.0,
            zero_count: 0,
        }
    }

    #[inline]
    fn lift(&self, input: &f64) -> ProductPartial {
        if *input == 0.0 {
            ProductPartial {
                nonzero_product: 1.0,
                zero_count: 1,
            }
        } else {
            ProductPartial {
                nonzero_product: *input,
                zero_count: 0,
            }
        }
    }

    #[inline]
    fn combine(&self, a: &ProductPartial, b: &ProductPartial) -> ProductPartial {
        ProductPartial {
            nonzero_product: a.nonzero_product * b.nonzero_product,
            zero_count: a.zero_count + b.zero_count,
        }
    }

    #[inline]
    fn lower(&self, agg: &ProductPartial) -> f64 {
        if agg.zero_count > 0 {
            0.0
        } else {
            agg.nonzero_product
        }
    }

    fn name(&self) -> &'static str {
        "product"
    }
    fn fold_slice(&self, init: &ProductPartial, slice: &[ProductPartial]) -> ProductPartial {
        // Lane reordering is sound: multiplication is commutative.
        lane_fold(init, slice, |a, b| self.combine(a, b))
    }
    fn prefix_scan_into(&self, slice: &[ProductPartial], out: &mut Vec<ProductPartial>) {
        scan_prefix_with(slice, out, |a, b| self.combine(a, b));
    }
    fn suffix_scan_into(&self, slice: &[ProductPartial], out: &mut Vec<ProductPartial>) {
        scan_suffix_with(slice, out, |a, b| self.combine(a, b));
    }
}

impl InvertibleOp for Product {
    #[inline]
    fn inverse_combine(&self, a: &ProductPartial, b: &ProductPartial) -> ProductPartial {
        ProductPartial {
            nonzero_product: a.nonzero_product / b.nonzero_product,
            zero_count: a.zero_count - b.zero_count,
        }
    }
}

impl CommutativeOp for Product {}

/// Partial aggregate for [`Mean`]: a sum and a count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanPartial {
    /// Sum of the values folded into this partial.
    pub sum: f64,
    /// Number of values folded into this partial.
    pub count: u64,
}

/// Windowed arithmetic mean — the paper's canonical *algebraic* aggregation,
/// computed from the distributive Sum and Count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mean;

impl Mean {
    /// Create the Mean operation.
    pub fn new() -> Self {
        Mean
    }
}

impl AggregateOp for Mean {
    type Input = f64;
    type Partial = MeanPartial;
    type Output = f64;

    #[inline]
    fn identity(&self) -> MeanPartial {
        MeanPartial { sum: 0.0, count: 0 }
    }
    #[inline]
    fn lift(&self, input: &f64) -> MeanPartial {
        MeanPartial {
            sum: *input,
            count: 1,
        }
    }
    #[inline]
    fn combine(&self, a: &MeanPartial, b: &MeanPartial) -> MeanPartial {
        MeanPartial {
            sum: a.sum + b.sum,
            count: a.count + b.count,
        }
    }
    #[inline]
    fn lower(&self, agg: &MeanPartial) -> f64 {
        if agg.count == 0 {
            f64::NAN
        } else {
            agg.sum / agg.count as f64
        }
    }
    fn name(&self) -> &'static str {
        "mean"
    }
    fn fold_slice(&self, init: &MeanPartial, slice: &[MeanPartial]) -> MeanPartial {
        // Field-wise commutative sums; lanes vectorize both fields at once.
        lane_fold(init, slice, |a, b| self.combine(a, b))
    }
    fn prefix_scan_into(&self, slice: &[MeanPartial], out: &mut Vec<MeanPartial>) {
        scan_prefix_with(slice, out, |a, b| self.combine(a, b));
    }
    fn suffix_scan_into(&self, slice: &[MeanPartial], out: &mut Vec<MeanPartial>) {
        scan_suffix_with(slice, out, |a, b| self.combine(a, b));
    }
}

impl InvertibleOp for Mean {
    #[inline]
    fn inverse_combine(&self, a: &MeanPartial, b: &MeanPartial) -> MeanPartial {
        MeanPartial {
            sum: a.sum - b.sum,
            count: a.count - b.count,
        }
    }
}

impl CommutativeOp for Mean {}

/// Partial aggregate for [`Variance`] / [`StdDev`]: sum, sum of squares, and
/// count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariancePartial {
    /// Sum of the values folded into this partial.
    pub sum: f64,
    /// Sum of the squared values folded into this partial.
    pub sum_squares: f64,
    /// Number of values folded into this partial.
    pub count: u64,
}

impl VariancePartial {
    #[inline]
    fn merge(a: &Self, b: &Self) -> Self {
        VariancePartial {
            sum: a.sum + b.sum,
            sum_squares: a.sum_squares + b.sum_squares,
            count: a.count + b.count,
        }
    }
}

/// Windowed population variance ([`Variance`]) or standard deviation
/// ([`StdDev`], its square root when `ROOT`) — algebraic: SumSquares, Sum,
/// Count. The two share the partial, ⊕ and ⊖, and differ only in the
/// lowering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dispersion<const ROOT: bool>;

/// Windowed population variance (see [`Dispersion`]).
pub type Variance = Dispersion<false>;

/// Windowed population standard deviation (see [`Dispersion`]).
pub type StdDev = Dispersion<true>;

impl<const ROOT: bool> Dispersion<ROOT> {
    /// Create the operation.
    pub fn new() -> Self {
        Dispersion
    }
}

impl<const ROOT: bool> AggregateOp for Dispersion<ROOT> {
    type Input = f64;
    type Partial = VariancePartial;
    type Output = f64;

    #[inline]
    fn identity(&self) -> VariancePartial {
        VariancePartial {
            sum: 0.0,
            sum_squares: 0.0,
            count: 0,
        }
    }
    #[inline]
    fn lift(&self, input: &f64) -> VariancePartial {
        VariancePartial {
            sum: *input,
            sum_squares: input * input,
            count: 1,
        }
    }
    #[inline]
    fn combine(&self, a: &VariancePartial, b: &VariancePartial) -> VariancePartial {
        VariancePartial::merge(a, b)
    }
    #[inline]
    fn lower(&self, agg: &VariancePartial) -> f64 {
        if agg.count == 0 {
            return f64::NAN;
        }
        let n = agg.count as f64;
        let mean = agg.sum / n;
        // Population variance; clamp tiny negative values from cancellation.
        let variance = (agg.sum_squares / n - mean * mean).max(0.0);
        if ROOT {
            variance.sqrt()
        } else {
            variance
        }
    }
    fn name(&self) -> &'static str {
        if ROOT {
            "std_dev"
        } else {
            "variance"
        }
    }
    fn fold_slice(&self, init: &VariancePartial, slice: &[VariancePartial]) -> VariancePartial {
        lane_fold(init, slice, VariancePartial::merge)
    }
    fn prefix_scan_into(&self, slice: &[VariancePartial], out: &mut Vec<VariancePartial>) {
        scan_prefix_with(slice, out, VariancePartial::merge);
    }
    fn suffix_scan_into(&self, slice: &[VariancePartial], out: &mut Vec<VariancePartial>) {
        scan_suffix_with(slice, out, VariancePartial::merge);
    }
}

impl<const ROOT: bool> InvertibleOp for Dispersion<ROOT> {
    #[inline]
    fn inverse_combine(&self, a: &VariancePartial, b: &VariancePartial) -> VariancePartial {
        VariancePartial {
            sum: a.sum - b.sum,
            sum_squares: a.sum_squares - b.sum_squares,
            count: a.count - b.count,
        }
    }
}

impl<const ROOT: bool> CommutativeOp for Dispersion<ROOT> {}

/// Windowed geometric mean over positive inputs (algebraic: log-sum and
/// count; zeros tracked separately so the operation stays invertible).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GeometricMean;

/// Partial aggregate for [`GeometricMean`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoMeanPartial {
    /// Sum of `ln(x)` over the non-zero values folded into this partial.
    pub log_sum: f64,
    /// Number of values folded into this partial.
    pub count: u64,
    /// Number of zero values folded into this partial.
    pub zero_count: u32,
}

impl GeometricMean {
    /// Create the GeometricMean operation.
    pub fn new() -> Self {
        GeometricMean
    }
}

impl AggregateOp for GeometricMean {
    type Input = f64;
    type Partial = GeoMeanPartial;
    type Output = f64;

    #[inline]
    fn identity(&self) -> GeoMeanPartial {
        GeoMeanPartial {
            log_sum: 0.0,
            count: 0,
            zero_count: 0,
        }
    }

    #[inline]
    fn lift(&self, input: &f64) -> GeoMeanPartial {
        if *input == 0.0 {
            GeoMeanPartial {
                log_sum: 0.0,
                count: 1,
                zero_count: 1,
            }
        } else {
            GeoMeanPartial {
                log_sum: input.abs().ln(),
                count: 1,
                zero_count: 0,
            }
        }
    }

    #[inline]
    fn combine(&self, a: &GeoMeanPartial, b: &GeoMeanPartial) -> GeoMeanPartial {
        GeoMeanPartial {
            log_sum: a.log_sum + b.log_sum,
            count: a.count + b.count,
            zero_count: a.zero_count + b.zero_count,
        }
    }

    #[inline]
    fn lower(&self, agg: &GeoMeanPartial) -> f64 {
        if agg.count == 0 {
            f64::NAN
        } else if agg.zero_count > 0 {
            0.0
        } else {
            (agg.log_sum / agg.count as f64).exp()
        }
    }

    fn name(&self) -> &'static str {
        "geometric_mean"
    }
    fn fold_slice(&self, init: &GeoMeanPartial, slice: &[GeoMeanPartial]) -> GeoMeanPartial {
        lane_fold(init, slice, |a, b| self.combine(a, b))
    }
    fn prefix_scan_into(&self, slice: &[GeoMeanPartial], out: &mut Vec<GeoMeanPartial>) {
        scan_prefix_with(slice, out, |a, b| self.combine(a, b));
    }
    fn suffix_scan_into(&self, slice: &[GeoMeanPartial], out: &mut Vec<GeoMeanPartial>) {
        scan_suffix_with(slice, out, |a, b| self.combine(a, b));
    }
}

impl InvertibleOp for GeometricMean {
    #[inline]
    fn inverse_combine(&self, a: &GeoMeanPartial, b: &GeoMeanPartial) -> GeoMeanPartial {
        GeoMeanPartial {
            log_sum: a.log_sum - b.log_sum,
            count: a.count - b.count,
            zero_count: a.zero_count - b.zero_count,
        }
    }
}

impl CommutativeOp for GeometricMean {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_basic() {
        let op = Sum::<i64>::new();
        assert_eq!(op.identity(), 0);
        assert_eq!(op.combine(&3, &4), 7);
        assert_eq!(op.inverse_combine(&7, &4), 3);
        assert_eq!(op.lift(&5), 5);
        assert_eq!(op.lower(&5), 5);
    }

    #[test]
    fn sum_squares_lifts_square() {
        let op = SumSquares::<i64>::new();
        assert_eq!(op.lift(&-3), 9);
        assert_eq!(op.combine(&9, &16), 25);
    }

    #[test]
    fn count_ignores_value() {
        let op = Count::<f64>::new();
        assert_eq!(op.lift(&123.0), 1);
        assert_eq!(op.combine(&2, &3), 5);
        assert_eq!(op.inverse_combine(&5, &3), 2);
    }

    #[test]
    fn product_survives_zero() {
        let op = Product::new();
        let a = op.lift(&3.0);
        let z = op.lift(&0.0);
        let az = op.combine(&a, &z);
        assert_eq!(op.lower(&az), 0.0);
        // Removing the zero restores the non-zero product exactly.
        let back = op.inverse_combine(&az, &z);
        assert_eq!(op.lower(&back), 3.0);
    }

    #[test]
    fn product_inverse_law_with_zeros() {
        let op = Product::new();
        let vals = [2.0, 0.0, 5.0, 0.0, 3.0];
        let mut acc = op.identity();
        for v in &vals {
            acc = op.combine(&acc, &op.lift(v));
        }
        assert_eq!(op.lower(&acc), 0.0);
        // Remove both zeros.
        acc = op.inverse_combine(&acc, &op.lift(&0.0));
        assert_eq!(op.lower(&acc), 0.0);
        acc = op.inverse_combine(&acc, &op.lift(&0.0));
        assert!((op.lower(&acc) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn mean_of_window() {
        let op = Mean::new();
        let mut acc = op.identity();
        for v in [1.0, 2.0, 3.0, 4.0] {
            acc = op.combine(&acc, &op.lift(&v));
        }
        assert_eq!(op.lower(&acc), 2.5);
        acc = op.inverse_combine(&acc, &op.lift(&4.0));
        assert_eq!(op.lower(&acc), 2.0);
    }

    #[test]
    fn mean_empty_is_nan() {
        let op = Mean::new();
        assert!(op.lower(&op.identity()).is_nan());
    }

    #[test]
    fn variance_matches_direct_computation() {
        let op = Variance::new();
        let vals = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut acc = op.identity();
        for v in &vals {
            acc = op.combine(&acc, &op.lift(v));
        }
        // Known example: population variance 4, std-dev 2.
        assert!((op.lower(&acc) - 4.0).abs() < 1e-9);
        let sd = StdDev::new();
        assert!((sd.lower(&acc) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn variance_constant_input_is_zero() {
        let op = Variance::new();
        let mut acc = op.identity();
        for _ in 0..100 {
            acc = op.combine(&acc, &op.lift(&3.25));
        }
        assert_eq!(op.lower(&acc), 0.0);
    }

    #[test]
    fn kernels_match_scalar_loops_on_exact_inputs() {
        use crate::ops::law_tests::check_kernel_laws;
        // Integer-valued f64 sums (and power-of-two products) are exact in
        // any order, so even the reordering lane folds must agree bitwise.
        check_kernel_laws(&Sum::<f64>::new(), &[-5.0, -1.0, 0.0, 1.0, 3.0, 100.0]);
        check_kernel_laws(&SumSquares::<f64>::new(), &[-5.0, -1.0, 0.0, 1.0, 3.0]);
        check_kernel_laws(&Count::<f64>::new(), &[1.0, 2.0, 3.0]);
        check_kernel_laws(&Product::new(), &[0.5, 2.0, 1.0, 0.0, 4.0]);
        check_kernel_laws(&Mean::new(), &[-5.0, -1.0, 0.0, 1.0, 3.0, 100.0]);
        check_kernel_laws(&Variance::new(), &[-5.0, -1.0, 0.0, 1.0, 3.0]);
        check_kernel_laws(&StdDev::new(), &[-5.0, -1.0, 0.0, 1.0, 3.0]);
        check_kernel_laws(&GeometricMean::new(), &[1.0, 0.0, 1.0]);
    }

    #[test]
    fn geometric_mean_basic() {
        let op = GeometricMean::new();
        let mut acc = op.identity();
        for v in [2.0, 8.0] {
            acc = op.combine(&acc, &op.lift(&v));
        }
        assert!((op.lower(&acc) - 4.0).abs() < 1e-9);
        acc = op.combine(&acc, &op.lift(&0.0));
        assert_eq!(op.lower(&acc), 0.0);
        acc = op.inverse_combine(&acc, &op.lift(&0.0));
        assert!((op.lower(&acc) - 4.0).abs() < 1e-9);
    }
}

//! Tests of the multi-ACQ time-based windows
//! ([`algorithms::time_windows`](crate::algorithms) holds the types).

#[cfg(test)]
mod tests {
    use crate::algorithms::time_windows::tests::irregular_stream;
    use crate::multi::{MultiTimeSlickDequeInv, MultiTimeSlickDequeNonInv};
    use crate::ops::{AggregateOp, Max, Sum};

    #[test]
    fn inv_matches_brute_force_per_range() {
        let ranges = [500u64, 100, 10];
        let stream = irregular_stream();
        let op = Sum::<i64>::new();
        let mut agg = MultiTimeSlickDequeInv::new(op, &ranges);
        let mut out = Vec::new();
        for (i, &(ts, v)) in stream.iter().enumerate() {
            agg.insert(ts, v, &mut out);
            for (k, &r) in agg.ranges_ms().iter().enumerate() {
                let expect: i64 = stream[..=i]
                    .iter()
                    .filter(|(t, _)| (*t as i128) > ts as i128 - r as i128)
                    .map(|(_, v)| v)
                    .sum();
                assert_eq!(out[k], expect, "tuple {i} range {r}");
            }
        }
    }

    #[test]
    fn noninv_matches_brute_force_per_range() {
        let ranges = [500u64, 100, 10];
        let stream = irregular_stream();
        let op = Max::<i64>::new();
        let mut agg = MultiTimeSlickDequeNonInv::new(op, &ranges);
        let mut out = Vec::new();
        for (i, &(ts, v)) in stream.iter().enumerate() {
            agg.insert(ts, op.lift(&v), &mut out);
            for (k, &r) in agg.ranges_ms().iter().enumerate() {
                let expect = stream[..=i]
                    .iter()
                    .filter(|(t, _)| (*t as i128) > ts as i128 - r as i128)
                    .map(|(_, v)| *v)
                    .max();
                assert_eq!(out[k], expect, "tuple {i} range {r}");
            }
        }
    }

    #[test]
    fn ranges_are_deduplicated_and_descending() {
        let op = Sum::<i64>::new();
        let agg = MultiTimeSlickDequeInv::new(op, &[10, 500, 10, 100]);
        assert_eq!(agg.ranges_ms(), &[500, 100, 10]);
    }

    #[test]
    fn shared_fifo_drains_to_largest_range() {
        let op = Sum::<i64>::new();
        let mut agg = MultiTimeSlickDequeInv::new(op, &[100, 10]);
        let mut out = Vec::new();
        agg.insert(0, 1, &mut out);
        agg.insert(50, 2, &mut out);
        agg.insert(200, 4, &mut out);
        // Everything older than 100 ms left the FIFO.
        assert_eq!(agg.len(), 1);
        assert_eq!(out, vec![4, 4]);
    }

    #[test]
    fn burst_timestamps_served() {
        let op = Max::<i64>::new();
        let mut agg = MultiTimeSlickDequeNonInv::new(op, &[100, 1]);
        let mut out = Vec::new();
        agg.insert(10, op.lift(&5), &mut out);
        agg.insert(10, op.lift(&3), &mut out);
        // Range 1 ms covers (9, 10]: both tuples; range 100 likewise.
        assert_eq!(out, vec![Some(5), Some(5)]);
        agg.insert(12, op.lift(&1), &mut out);
        // Range 1 covers (11, 12]: only the new tuple.
        assert_eq!(out, vec![Some(5), Some(1)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_range_rejected() {
        MultiTimeSlickDequeInv::new(Sum::<i64>::new(), &[0]);
    }
}

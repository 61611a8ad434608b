//! Open-loop accounting: a fixed-rate frame schedule, and the rule that a
//! frame's latency runs from when it was **due**, not from when a stalled
//! generator managed to send it.

/// A fixed-rate schedule of equal frames, in nanoseconds from the
/// segment's start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Tuples per frame.
    pub frame_tuples: u64,
    /// Tuples per second.
    pub rate: f64,
}

impl Schedule {
    /// When frame `frame`'s last tuple is due — the instant the generator
    /// should send the frame, and the start of its latency.
    pub fn due_ns(&self, frame: u64) -> u64 {
        (((frame + 1) * self.frame_tuples) as f64 * 1e9 / self.rate) as u64
    }

    /// Frames whose due time falls within `seconds`.
    pub fn frames_within(&self, seconds: f64) -> u64 {
        (seconds * self.rate / self.frame_tuples as f64) as u64
    }
}

/// One settled frame: when it was due and when its answers were seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settled {
    /// Due time, ns from segment start.
    pub due_ns: u64,
    /// Observation time of a processed count covering the frame.
    pub done_ns: u64,
}

impl Settled {
    /// Due-to-done latency.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// Turns observations of the service's processed-tuple count into
/// per-frame completion times. Needs nothing from the generator: the
/// schedule fixes every frame's due time and cumulative tuple count.
#[derive(Debug)]
pub struct Settler {
    schedule: Schedule,
    total_frames: u64,
    settled: Vec<Settled>,
}

impl Settler {
    /// A settler for the first `total_frames` frames of `schedule`.
    pub fn new(schedule: Schedule, total_frames: u64) -> Self {
        Settler {
            schedule,
            total_frames,
            settled: Vec::with_capacity(total_frames as usize),
        }
    }

    /// `processed` tuples of this segment were covered at `now_ns`: every
    /// unsettled frame lying wholly within them completes now.
    pub fn observe(&mut self, processed: u64, now_ns: u64) {
        while (self.settled.len() as u64) < self.total_frames {
            let frame = self.settled.len() as u64;
            if (frame + 1) * self.schedule.frame_tuples > processed {
                break;
            }
            self.settled.push(Settled {
                due_ns: self.schedule.due_ns(frame),
                done_ns: now_ns,
            });
        }
    }

    /// Whether every frame has settled.
    pub fn complete(&self) -> bool {
        self.settled.len() as u64 == self.total_frames
    }

    /// The settled frames, in frame order.
    pub fn settled(&self) -> &[Settled] {
        &self.settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEDULE: Schedule = Schedule {
        frame_tuples: 100,
        rate: 1e10, // one frame every 10 ns
    };

    #[test]
    fn frames_are_due_when_their_last_tuple_is() {
        assert_eq!(SCHEDULE.due_ns(0), 10);
        assert_eq!(SCHEDULE.due_ns(3), 40);
        assert_eq!(SCHEDULE.frames_within(45e-9), 4);
    }

    #[test]
    fn a_stall_is_charged_to_the_frames_due_during_it() {
        // Frames due at 10, 20, 30, 40. The service (or a blocked send)
        // stalls: nothing is covered until t = 45, when all four are.
        let mut s = Settler::new(SCHEDULE, 4);
        s.observe(0, 12);
        s.observe(0, 31);
        assert!(s.settled().is_empty());
        s.observe(400, 45);
        let lat: Vec<u64> = s.settled().iter().map(Settled::latency_ns).collect();
        // Each frame waited from its own due time, not from a send time
        // the stall pushed back: 35, 25, 15, 5 — not four times 5.
        assert_eq!(lat, vec![35, 25, 15, 5]);
        assert!(s.complete());
    }

    #[test]
    fn partial_coverage_settles_only_whole_frames() {
        let mut s = Settler::new(SCHEDULE, 3);
        s.observe(199, 25); // frame 0 whole, frame 1 one tuple short
        assert_eq!(s.settled().len(), 1);
        assert_eq!(s.settled()[0].latency_ns(), 15);
        s.observe(250, 33);
        assert_eq!(s.settled().len(), 2);
        assert_eq!(s.settled()[1].latency_ns(), 13);
        // Counts beyond the segment's frames settle nothing extra.
        s.observe(10_000, 50);
        assert_eq!(s.settled().len(), 3);
    }
}

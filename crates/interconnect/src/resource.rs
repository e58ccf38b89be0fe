//! Booked-next-free-time modelling of bandwidth-limited resources.

use gps_types::{Bandwidth, Cycle};

/// A serialising, bandwidth-limited resource (a link direction, a DRAM
/// channel group, ...).
///
/// Work is *booked*: a request for `bytes` at time `now` begins when the
/// resource frees up (`max(now, next_free)`), occupies the resource for
/// `bytes / bandwidth` cycles, and pushes `next_free` forward. This models
/// FIFO serialisation at full line rate — the standard system-level
/// treatment of links and DRAM in trace-driven simulators — while remaining
/// O(1) per request and fully deterministic.
///
/// Occupancy is tracked at *fractional* cycle resolution internally so that
/// streams of small requests (single 128 B cache lines against a 900 B/cy
/// DRAM) are not quantised up to one cycle each; only the completion times
/// reported to callers are rounded up to whole cycles.
///
/// ```
/// use gps_interconnect::BandwidthResource;
/// use gps_types::{Bandwidth, Cycle};
///
/// let mut dram = BandwidthResource::new(Bandwidth::gb_per_sec(128.0));
/// // Two back-to-back 1280-byte requests at t=0: each serialises for 10 cy.
/// assert_eq!(dram.book(1280, Cycle::new(0)), Cycle::new(10));
/// assert_eq!(dram.book(1280, Cycle::new(0)), Cycle::new(20));
/// // A request after the queue drains starts immediately.
/// assert_eq!(dram.book(1280, Cycle::new(100)), Cycle::new(110));
/// // Small requests accumulate fractionally: 8 lines of 16 bytes at
/// // 128 B/cy finish within the same cycle, not after 8 cycles.
/// let mut link = BandwidthResource::new(Bandwidth::gb_per_sec(128.0));
/// let done = (0..8).map(|_| link.book(16, Cycle::new(0))).last().unwrap();
/// assert_eq!(done, Cycle::new(1));
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthResource {
    bandwidth: Bandwidth,
    /// Fractional next-free time in cycles.
    next_free: f64,
    total_bytes: u64,
    /// Fractional busy time in cycles.
    busy: f64,
}

impl BandwidthResource {
    /// Creates an idle resource with the given bandwidth.
    pub fn new(bandwidth: Bandwidth) -> Self {
        Self {
            bandwidth,
            next_free: 0.0,
            total_bytes: 0,
            busy: 0.0,
        }
    }

    /// The resource's bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Total bytes ever booked.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total cycles the resource has spent busy (rounded to nearest).
    pub fn busy_cycles(&self) -> u64 {
        self.busy.round() as u64
    }

    fn duration(&self, bytes: u64) -> f64 {
        if self.bandwidth.is_infinite() || bytes == 0 {
            0.0
        } else {
            bytes as f64 / self.bandwidth.bytes_per_cycle()
        }
    }

    /// Books `bytes` arriving at `now`; returns the completion time.
    /// Zero-duration bookings (zero bytes or infinite bandwidth) do not
    /// occupy the resource.
    pub fn book(&mut self, bytes: u64, now: Cycle) -> Cycle {
        let start = self.next_free.max(now.as_u64() as f64);
        let dur = self.duration(bytes);
        let end = start + dur;
        if dur > 0.0 {
            self.next_free = end;
        }
        self.total_bytes += bytes;
        self.busy += dur;
        Cycle::new(end.ceil() as u64)
    }

    /// Books `bytes` but lets the request start no earlier than
    /// `not_before`; returns `(start, end)` (start rounded down, end rounded
    /// up). Used for cut-through transfers whose second hop cannot begin
    /// before the first.
    pub fn book_from(&mut self, bytes: u64, not_before: Cycle) -> (Cycle, Cycle) {
        let start = self.next_free.max(not_before.as_u64() as f64);
        let dur = self.duration(bytes);
        let end = start + dur;
        if dur > 0.0 {
            self.next_free = end;
        }
        self.total_bytes += bytes;
        self.busy += dur;
        (Cycle::new(start as u64), Cycle::new(end.ceil() as u64))
    }

    /// Utilisation in `[0, 1]` over the window `[0, horizon]`.
    pub fn utilisation(&self, horizon: Cycle) -> f64 {
        if horizon == Cycle::ZERO {
            0.0
        } else {
            (self.busy / horizon.as_u64() as f64).min(1.0)
        }
    }

    /// Forgets all bookings and counters (new simulation epoch).
    pub fn reset(&mut self) {
        self.next_free = 0.0;
        self.total_bytes = 0;
        self.busy = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_serialises() {
        let mut r = BandwidthResource::new(Bandwidth::gb_per_sec(10.0));
        let a = r.book(100, Cycle::new(0));
        let b = r.book(100, Cycle::new(0));
        assert_eq!(a, Cycle::new(10));
        assert_eq!(b, Cycle::new(20));
        assert_eq!(r.total_bytes(), 200);
        assert_eq!(r.busy_cycles(), 20);
    }

    #[test]
    fn idle_gaps_are_not_compressed() {
        let mut r = BandwidthResource::new(Bandwidth::gb_per_sec(10.0));
        r.book(100, Cycle::new(0));
        let late = r.book(100, Cycle::new(1000));
        assert_eq!(late, Cycle::new(1010));
    }

    #[test]
    fn small_requests_are_not_quantised() {
        // 900 B/cy DRAM, 128 B lines: 7 lines fit in one cycle.
        let mut r = BandwidthResource::new(Bandwidth::gb_per_sec(900.0));
        for _ in 0..7 {
            r.book(128, Cycle::new(0));
        }
        // A zero-byte probe completes when the resource frees up.
        assert_eq!(r.book(0, Cycle::ZERO), Cycle::new(1));
        // 900 lines take 128 cycles, not 900.
        let mut r = BandwidthResource::new(Bandwidth::gb_per_sec(900.0));
        let mut last = Cycle::ZERO;
        for _ in 0..900 {
            last = r.book(128, Cycle::new(0));
        }
        assert_eq!(last, Cycle::new(128));
    }

    #[test]
    fn infinite_bandwidth_never_delays() {
        let mut r = BandwidthResource::new(Bandwidth::INFINITE);
        assert_eq!(r.book(1 << 40, Cycle::new(5)), Cycle::new(5));
        assert_eq!(r.busy_cycles(), 0);
    }

    #[test]
    fn book_from_respects_lower_bound() {
        let mut r = BandwidthResource::new(Bandwidth::gb_per_sec(10.0));
        let (s, e) = r.book_from(100, Cycle::new(50));
        assert_eq!(s, Cycle::new(50));
        assert_eq!(e, Cycle::new(60));
        // Second booking queues behind the first even with an earlier bound.
        let (s2, _) = r.book_from(100, Cycle::new(0));
        assert_eq!(s2, Cycle::new(60));
    }

    #[test]
    fn utilisation_is_bounded() {
        let mut r = BandwidthResource::new(Bandwidth::gb_per_sec(1.0));
        r.book(100, Cycle::new(0));
        assert!((r.utilisation(Cycle::new(200)) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilisation(Cycle::ZERO), 0.0);
        assert_eq!(r.utilisation(Cycle::new(50)), 1.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = BandwidthResource::new(Bandwidth::gb_per_sec(1.0));
        r.book(100, Cycle::new(0));
        r.reset();
        assert_eq!(r.book(0, Cycle::ZERO), Cycle::ZERO);
        assert_eq!(r.total_bytes(), 0);
    }

    #[test]
    fn zero_byte_booking_is_free() {
        let mut r = BandwidthResource::new(Bandwidth::gb_per_sec(1.0));
        assert_eq!(r.book(0, Cycle::new(7)), Cycle::new(7));
    }
}

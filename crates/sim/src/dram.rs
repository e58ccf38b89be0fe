//! Device-memory (HBM) timing model.

use gps_interconnect::BandwidthResource;
use gps_obs::{names, BucketSums, ProbeHandle, Track};
use gps_types::{Bandwidth, Cycle, Latency};

/// One GPU's device memory: a bandwidth resource plus a fixed access
/// latency.
///
/// Reads pay serialisation *and* latency (the requesting warp waits for the
/// data); writes only book serialisation (the store path is fire-and-
/// forget, the exact property GPS exploits, §1: "remote stores do not stall
/// execution").
///
/// ```
/// use gps_sim::DramModel;
/// use gps_types::{Bandwidth, Cycle, Latency};
///
/// let mut dram = DramModel::new(Bandwidth::gb_per_sec(128.0), Latency::from_nanos(240));
/// let ready = dram.read(128, Cycle::ZERO);
/// assert_eq!(ready, Cycle::new(1 + 240));
/// dram.write(128, Cycle::ZERO);
/// assert_eq!(dram.read_bytes(), 128);
/// assert_eq!(dram.write_bytes(), 128);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    channel: BandwidthResource,
    latency: Latency,
    read_bytes: u64,
    write_bytes: u64,
    /// Telemetry: bytes read and written per bucket since the last
    /// [`flush_telemetry`](DramModel::flush_telemetry).
    read_sums: BucketSums,
    write_sums: BucketSums,
}

impl DramModel {
    /// Creates an idle DRAM model.
    pub fn new(bandwidth: Bandwidth, latency: Latency) -> Self {
        Self {
            channel: BandwidthResource::new(bandwidth),
            latency,
            read_bytes: 0,
            write_bytes: 0,
            read_sums: BucketSums::default(),
            write_sums: BucketSums::default(),
        }
    }

    /// Starts summing read and write bytes per telemetry bucket, for
    /// [`flush_telemetry`](DramModel::flush_telemetry).
    pub fn enable_telemetry(&mut self) {
        self.read_sums = BucketSums::enabled();
        self.write_sums = BucketSums::enabled();
    }

    /// Emits the bytes read and written since the last flush as
    /// `dram_read_bytes` / `dram_write_bytes` counters on `track`, one
    /// call per touched bucket.
    pub fn flush_telemetry(&mut self, probe: &ProbeHandle, track: Track) {
        for (at, bytes) in self.read_sums.drain() {
            probe.counter(track, names::DRAM_READ_BYTES, at, bytes as f64);
        }
        for (at, bytes) in self.write_sums.drain() {
            probe.counter(track, names::DRAM_WRITE_BYTES, at, bytes as f64);
        }
    }

    /// Books a read of `bytes` issued at `now`; returns when the data is
    /// available.
    pub fn read(&mut self, bytes: u64, now: Cycle) -> Cycle {
        self.read_bytes += bytes;
        self.read_sums.add(now, bytes);
        self.channel.book(bytes, now) + self.latency
    }

    /// Books a write of `bytes` issued at `now` (fire-and-forget).
    pub fn write(&mut self, bytes: u64, now: Cycle) {
        self.write_bytes += bytes;
        self.write_sums.add(now, bytes);
        let _ = self.channel.book(bytes, now);
    }

    /// Total bytes read.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Total bytes written.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Cycles the channel has spent busy.
    pub fn busy_cycles(&self) -> u64 {
        self.channel.busy_cycles()
    }

    /// Resets bookings and counters.
    pub fn reset(&mut self) {
        self.channel.reset();
        self.read_bytes = 0;
        self.write_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> DramModel {
        DramModel::new(Bandwidth::gb_per_sec(128.0), Latency::from_nanos(200))
    }

    #[test]
    fn reads_pay_latency_and_serialisation() {
        let mut d = dram();
        // 1280 bytes at 128 B/cy = 10 cy + 200 latency.
        assert_eq!(d.read(1280, Cycle::ZERO), Cycle::new(210));
    }

    #[test]
    fn reads_and_writes_share_the_channel() {
        let mut d = dram();
        d.write(1280, Cycle::ZERO); // occupies [0, 10)
        let ready = d.read(1280, Cycle::ZERO); // queues behind
        assert_eq!(ready, Cycle::new(20 + 200));
    }

    #[test]
    fn counters_split_reads_and_writes() {
        let mut d = dram();
        d.read(100, Cycle::ZERO);
        d.write(50, Cycle::ZERO);
        d.write(50, Cycle::ZERO);
        assert_eq!(d.read_bytes(), 100);
        assert_eq!(d.write_bytes(), 100);
        d.reset();
        assert_eq!(d.read_bytes() + d.write_bytes(), 0);
    }
}

//! The switch-attached multi-GPU fabric.

use gps_obs::{names, BucketSums, ProbeHandle, Track};
use gps_types::{Cycle, GpsError, GpuId, Latency, Result};

use crate::counters::TrafficCounters;
use crate::resource::BandwidthResource;
use crate::spec::LinkGen;

/// Fixed traversal latency of an explicit NVSwitch crossbar hop, on top of
/// the link generation's wire latency (public NVSwitch microbenchmarks put
/// the switch port-to-port penalty at ~100 ns).
pub const NVSWITCH_HOP_LATENCY: Latency = Latency::from_nanos(100);

/// GPUs per leaf switch in the 2-tier PCIe tree topology (DGX-style
/// systems hang 4 GPUs off each PCIe switch, which uplinks to a root
/// complex).
pub const PCIE_TREE_LEAF_SIZE: usize = 4;

/// Physical arrangement of the inter-GPU links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// A non-blocking central switch (PCIe switch / NVSwitch): every GPU
    /// owns one ingress and one egress link; any pair communicates in one
    /// hop. This is the paper's evaluated topology.
    #[default]
    Switch,
    /// A bidirectional ring (NVLink bridges without a switch): each GPU
    /// has a clockwise and a counter-clockwise link; transfers take the
    /// shortest path and consume bandwidth on every transit link.
    Ring,
    /// An explicit NVSwitch crossbar (the paper's 16-GPU GV100 platform):
    /// full bisection bandwidth like [`Topology::Switch`], but every
    /// transfer additionally pays the switch's fixed port-to-port
    /// traversal latency ([`NVSWITCH_HOP_LATENCY`]).
    NvSwitch,
    /// A 2-tier PCIe tree: GPUs attach in leaves of
    /// [`PCIE_TREE_LEAF_SIZE`] to per-leaf switches which uplink to a root
    /// complex. Intra-leaf transfers behave like [`Topology::Switch`];
    /// cross-leaf transfers additionally serialise on the source leaf's
    /// shared uplink and the destination leaf's shared downlink (each at
    /// one link generation of bandwidth, so 4 GPUs contend for it) and pay
    /// two hop latencies.
    PcieTree,
}

impl Topology {
    /// Stable lowercase label (CLI values, run keys, store records).
    pub fn label(self) -> &'static str {
        match self {
            Topology::Switch => "switch",
            Topology::Ring => "ring",
            Topology::NvSwitch => "nvswitch",
            Topology::PcieTree => "pcietree",
        }
    }

    /// Every topology, in label order.
    pub const ALL: [Topology; 4] = [
        Topology::Switch,
        Topology::Ring,
        Topology::NvSwitch,
        Topology::PcieTree,
    ];

    /// The smallest latency any cross-GPU payload can experience on this
    /// topology over `link`: a lower bound on how early one GPU's action
    /// can become visible to another, and therefore a safe conservative
    /// epoch for parallel lane simulation. Zero on latency-free links
    /// (`LinkGen::Infinite`).
    pub fn min_cross_gpu_latency(self, link: LinkGen) -> Latency {
        match self {
            Topology::Switch | Topology::Ring | Topology::PcieTree => link.latency(),
            Topology::NvSwitch => {
                if link.latency() == Latency::ZERO {
                    Latency::ZERO
                } else {
                    link.latency() + NVSWITCH_HOP_LATENCY
                }
            }
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Topology {
    type Err = GpsError;

    fn from_str(s: &str) -> Result<Self> {
        Topology::ALL
            .into_iter()
            .find(|t| t.label() == s)
            .ok_or_else(|| GpsError::Parse {
                what: "topology",
                input: s.to_owned(),
            })
    }
}

/// Configuration of a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Number of GPUs attached to the fabric.
    pub gpu_count: usize,
    /// Interconnect generation: sets per-direction bandwidth and latency.
    pub link: LinkGen,
    /// Link arrangement.
    pub topology: Topology,
    /// How many tenants split each link's bandwidth. `1` (the default)
    /// gives every link its full generation bandwidth; `n > 1` models fair
    /// per-tenant bandwidth partitioning by provisioning each link at
    /// `1/n` of the generation's rate. Infinite links stay infinite. Hop
    /// latency is unaffected — tenancy shares throughput, not distance.
    pub bandwidth_share: u32,
}

impl FabricConfig {
    /// Creates a switch configuration (the paper's topology).
    pub fn new(gpu_count: usize, link: LinkGen) -> Self {
        Self {
            gpu_count,
            link,
            topology: Topology::Switch,
            bandwidth_share: 1,
        }
    }

    /// Replaces the topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Splits each link's bandwidth across `share` tenants (zero is
    /// treated as one).
    pub fn with_bandwidth_share(mut self, share: u32) -> Self {
        self.bandwidth_share = share.max(1);
        self
    }
}

/// The booked times of one transfer through the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the payload left the source (egress serialisation complete).
    pub departed: Cycle,
    /// When the payload is fully visible at the destination.
    pub arrived: Cycle,
}

/// A non-blocking switch topology: every GPU owns one egress and one ingress
/// link of the configured generation, as in a PCIe-switch or NVSwitch
/// system.
///
/// Transfers are cut-through: a transfer from `src` to `dst` occupies
/// `src`'s egress link and `dst`'s ingress link for its serialisation time;
/// if the ingress link is busy, the start is delayed and the egress link is
/// backpressured to the same schedule. Completion additionally pays the
/// generation's hop latency. The switch core itself is non-blocking
/// (bisection bandwidth is never the bottleneck in the modelled systems, and
/// the paper's PCIe results are per-GPU-link-bound).
///
/// ```
/// use gps_interconnect::{Fabric, FabricConfig, LinkGen};
/// use gps_types::{Cycle, GpuId};
///
/// let mut fabric = Fabric::new(FabricConfig::new(4, LinkGen::Pcie3));
/// let t = fabric.transfer(GpuId::new(0), GpuId::new(1), 1300, Cycle::ZERO)?;
/// // 1300 bytes at 13 B/cy = 100 cy serialisation + 1300 ns hop latency.
/// assert_eq!(t.arrived, Cycle::new(100 + 1300));
/// assert_eq!(fabric.counters().total_bytes(), 1300);
/// # Ok::<(), gps_types::GpsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    config: FabricConfig,
    egress: Vec<BandwidthResource>,
    ingress: Vec<BandwidthResource>,
    /// Ring topology only: clockwise links `cw[i]`: i -> (i+1) % N, and
    /// counter-clockwise links `ccw[i]`: i -> (i-1) % N.
    cw: Vec<BandwidthResource>,
    ccw: Vec<BandwidthResource>,
    /// PCIe-tree topology only: per-leaf shared links to/from the root
    /// complex (`uplink[l]`: leaf l -> root, `downlink[l]`: root -> leaf l).
    uplink: Vec<BandwidthResource>,
    downlink: Vec<BandwidthResource>,
    counters: TrafficCounters,
    /// Telemetry: bytes out of and into each GPU per bucket since the last
    /// [`flush_link_telemetry`](Fabric::flush_link_telemetry).
    egress_sums: Vec<BucketSums>,
    ingress_sums: Vec<BucketSums>,
}

/// The leaf switch GPU `index` hangs off in the PCIe-tree topology.
fn leaf_of(index: usize) -> usize {
    index / PCIE_TREE_LEAF_SIZE
}

impl Fabric {
    /// Creates an idle fabric.
    pub fn new(config: FabricConfig) -> Self {
        let bw = if config.bandwidth_share > 1 {
            config
                .link
                .bandwidth()
                .scaled(1.0 / f64::from(config.bandwidth_share))
        } else {
            config.link.bandwidth()
        };
        let ring_links = if config.topology == Topology::Ring {
            config.gpu_count
        } else {
            0
        };
        let leaves = if config.topology == Topology::PcieTree {
            config.gpu_count.div_ceil(PCIE_TREE_LEAF_SIZE)
        } else {
            0
        };
        Self {
            config,
            egress: (0..config.gpu_count)
                .map(|_| BandwidthResource::new(bw))
                .collect(),
            ingress: (0..config.gpu_count)
                .map(|_| BandwidthResource::new(bw))
                .collect(),
            cw: (0..ring_links)
                .map(|_| BandwidthResource::new(bw))
                .collect(),
            ccw: (0..ring_links)
                .map(|_| BandwidthResource::new(bw))
                .collect(),
            uplink: (0..leaves).map(|_| BandwidthResource::new(bw)).collect(),
            downlink: (0..leaves).map(|_| BandwidthResource::new(bw)).collect(),
            counters: TrafficCounters::new(config.gpu_count),
            egress_sums: vec![BucketSums::default(); config.gpu_count],
            ingress_sums: vec![BucketSums::default(); config.gpu_count],
        }
    }

    /// Starts summing every GPU's egress and ingress bytes per telemetry
    /// bucket, for [`flush_link_telemetry`](Fabric::flush_link_telemetry).
    pub fn enable_telemetry(&mut self) {
        for sums in self.egress_sums.iter_mut().chain(&mut self.ingress_sums) {
            *sums = BucketSums::enabled();
        }
    }

    /// Emits each GPU's link bytes since the last flush as
    /// `link_egress_bytes` / `link_ingress_bytes` counters on its track
    /// (a transfer counts at its request time on both endpoints), one
    /// call per touched bucket.
    pub fn flush_link_telemetry(&mut self, probe: &ProbeHandle) {
        for (g, sums) in self.egress_sums.iter_mut().enumerate() {
            for (at, bytes) in sums.drain() {
                probe.counter(Track::gpu(g), names::LINK_EGRESS_BYTES, at, bytes as f64);
            }
        }
        for (g, sums) in self.ingress_sums.iter_mut().enumerate() {
            for (at, bytes) in sums.drain() {
                probe.counter(Track::gpu(g), names::LINK_INGRESS_BYTES, at, bytes as f64);
            }
        }
    }

    /// The fabric configuration.
    pub fn config(&self) -> FabricConfig {
        self.config
    }

    /// The interconnect generation.
    pub fn link(&self) -> LinkGen {
        self.config.link
    }

    /// Traffic counters accumulated so far.
    pub fn counters(&self) -> &TrafficCounters {
        &self.counters
    }

    /// Counts one booked transfer in the traffic counters and the link
    /// telemetry sums.
    fn count_transfer(&mut self, src: GpuId, dst: GpuId, bytes: u64, now: Cycle) {
        self.counters.record(src, dst, bytes);
        if let Some(sums) = self.egress_sums.get_mut(src.index()) {
            sums.add(now, bytes);
        }
        if let Some(sums) = self.ingress_sums.get_mut(dst.index()) {
            sums.add(now, bytes);
        }
    }

    fn check(&self, gpu: GpuId) -> Result<()> {
        if gpu.index() >= self.config.gpu_count {
            Err(GpsError::UnknownGpu {
                gpu,
                system_size: self.config.gpu_count,
            })
        } else {
            Ok(())
        }
    }

    /// Books a `bytes`-sized transfer from `src` to `dst` arriving at the
    /// fabric at time `now`.
    ///
    /// # Errors
    ///
    /// * [`GpsError::UnknownGpu`] if either endpoint is out of range.
    /// * [`GpsError::InvalidRange`] if `src == dst` (local copies never
    ///   touch the fabric).
    pub fn transfer(&mut self, src: GpuId, dst: GpuId, bytes: u64, now: Cycle) -> Result<Transfer> {
        self.check(src)?;
        self.check(dst)?;
        if src == dst {
            return Err(GpsError::InvalidRange {
                reason: format!("transfer from {src} to itself"),
            });
        }
        match self.config.topology {
            Topology::Switch | Topology::NvSwitch => {
                // Claim the egress link, then the ingress link no earlier
                // than the egress start (cut-through). Per-destination
                // egress queues with credit-based flow control mean a busy
                // destination does not block the source link for other
                // destinations. An explicit NVSwitch crossbar keeps the
                // full-bisection booking but adds its fixed port-to-port
                // traversal time on top of the wire latency.
                let (egress_start, _egress_end) = self.egress[src.index()].book_from(bytes, now);
                let (_, ingress_end) = self.ingress[dst.index()].book_from(bytes, egress_start);
                self.count_transfer(src, dst, bytes, now);
                let latency = if self.config.topology == Topology::NvSwitch
                    && self.config.link.latency() != Latency::ZERO
                {
                    // Latency-free links (`Infinite`) elide the switch hop
                    // too — they model "all transfer costs removed".
                    self.config.link.latency() + NVSWITCH_HOP_LATENCY
                } else {
                    self.config.link.latency()
                };
                Ok(Transfer {
                    departed: ingress_end,
                    arrived: ingress_end + latency,
                })
            }
            Topology::PcieTree => {
                // Same cut-through chaining as the flat switch, but a
                // cross-leaf payload also serialises on the source leaf's
                // shared uplink and the destination leaf's shared downlink
                // (4 GPUs contend for each) and traverses two switches.
                let (src_leaf, dst_leaf) = (leaf_of(src.index()), leaf_of(dst.index()));
                let (egress_start, _) = self.egress[src.index()].book_from(bytes, now);
                let (before_ingress, hops) = if src_leaf == dst_leaf {
                    (egress_start, 1)
                } else {
                    let (up_start, _) = self.uplink[src_leaf].book_from(bytes, egress_start);
                    let (down_start, _) = self.downlink[dst_leaf].book_from(bytes, up_start);
                    (down_start, 2)
                };
                let (_, ingress_end) = self.ingress[dst.index()].book_from(bytes, before_ingress);
                self.count_transfer(src, dst, bytes, now);
                Ok(Transfer {
                    departed: ingress_end,
                    arrived: ingress_end + self.config.link.latency() * hops,
                })
            }
            Topology::Ring => {
                // Shortest direction around the ring; each hop books its
                // directed link in sequence (store-and-forward at link
                // granularity — conservative) and pays one hop latency.
                let n = self.config.gpu_count;
                let fwd = (dst.index() + n - src.index()) % n;
                let bwd = (src.index() + n - dst.index()) % n;
                let clockwise = fwd <= bwd;
                let hops = fwd.min(bwd);
                let mut at = now;
                let mut node = src.index();
                for _ in 0..hops {
                    at = if clockwise {
                        let end = self.cw[node].book(bytes, at);
                        node = (node + 1) % n;
                        end
                    } else {
                        node = (node + n - 1) % n;
                        self.ccw[(node + 1) % n].book(bytes, at)
                    } + self.config.link.latency();
                }
                self.count_transfer(src, dst, bytes, now);
                Ok(Transfer {
                    departed: at,
                    arrived: at,
                })
            }
        }
    }

    /// Books the same payload from `src` to every GPU in `dsts`
    /// (skipping `src` itself); returns the latest arrival.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Fabric::transfer`].
    pub fn broadcast<I>(&mut self, src: GpuId, dsts: I, bytes: u64, now: Cycle) -> Result<Cycle>
    where
        I: IntoIterator<Item = GpuId>,
    {
        let mut latest = now;
        for dst in dsts {
            if dst == src {
                continue;
            }
            let t = self.transfer(src, dst, bytes, now)?;
            latest = latest.max(t.arrived);
        }
        Ok(latest)
    }

    /// Resets all link schedules and counters.
    pub fn reset(&mut self) {
        for r in self
            .egress
            .iter_mut()
            .chain(self.ingress.iter_mut())
            .chain(self.cw.iter_mut())
            .chain(self.ccw.iter_mut())
            .chain(self.uplink.iter_mut())
            .chain(self.downlink.iter_mut())
        {
            r.reset();
        }
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcie3_4gpu() -> Fabric {
        Fabric::new(FabricConfig::new(4, LinkGen::Pcie3))
    }

    const G0: GpuId = GpuId::new(0);
    const G1: GpuId = GpuId::new(1);
    const G2: GpuId = GpuId::new(2);
    const G3: GpuId = GpuId::new(3);

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut f = pcie3_4gpu();
        let a = f.transfer(G0, G1, 1300, Cycle::ZERO).unwrap();
        let b = f.transfer(G2, G3, 1300, Cycle::ZERO).unwrap();
        assert_eq!(a.arrived, b.arrived, "independent links run in parallel");
    }

    #[test]
    fn shared_egress_serialises() {
        let mut f = pcie3_4gpu();
        let a = f.transfer(G0, G1, 1300, Cycle::ZERO).unwrap();
        let b = f.transfer(G0, G2, 1300, Cycle::ZERO).unwrap();
        assert_eq!(b.arrived - a.arrived, gps_types::Latency::new(100));
    }

    #[test]
    fn shared_ingress_serialises() {
        let mut f = pcie3_4gpu();
        let a = f.transfer(G1, G0, 1300, Cycle::ZERO).unwrap();
        let b = f.transfer(G2, G0, 1300, Cycle::ZERO).unwrap();
        assert!(b.arrived > a.arrived);
    }

    #[test]
    fn self_transfer_rejected() {
        let mut f = pcie3_4gpu();
        assert!(matches!(
            f.transfer(G0, G0, 1, Cycle::ZERO),
            Err(GpsError::InvalidRange { .. })
        ));
    }

    #[test]
    fn unknown_gpu_rejected() {
        let mut f = pcie3_4gpu();
        let err = f.transfer(GpuId::new(7), G0, 1, Cycle::ZERO).unwrap_err();
        assert!(matches!(err, GpsError::UnknownGpu { .. }));
    }

    #[test]
    fn broadcast_reaches_everyone_but_source() {
        let mut f = pcie3_4gpu();
        let latest = f.broadcast(G0, GpuId::all(4), 130, Cycle::ZERO).unwrap();
        assert_eq!(f.counters().total_bytes(), 3 * 130);
        assert_eq!(f.counters().pair_bytes(G0, G0), 0);
        // Three serialised sends on G0's egress: 10 cy each + latency.
        assert_eq!(latest, Cycle::new(30 + 1300));
    }

    #[test]
    fn infinite_fabric_only_pays_latency() {
        let mut f = Fabric::new(FabricConfig::new(2, LinkGen::Infinite));
        let t = f.transfer(G0, G1, 1 << 30, Cycle::new(5)).unwrap();
        assert_eq!(t.arrived, Cycle::new(5));
    }

    #[test]
    fn ring_neighbours_take_one_hop() {
        let cfg = FabricConfig::new(4, LinkGen::Pcie3).with_topology(Topology::Ring);
        let mut f = Fabric::new(cfg);
        let t = f.transfer(G0, G1, 1300, Cycle::ZERO).unwrap();
        // One hop: 100 cy serialisation + one hop latency.
        assert_eq!(t.arrived, Cycle::new(100 + 1300));
    }

    #[test]
    fn ring_opposite_corner_takes_two_hops() {
        let cfg = FabricConfig::new(4, LinkGen::Pcie3).with_topology(Topology::Ring);
        let mut f = Fabric::new(cfg);
        let t = f.transfer(G0, G2, 1300, Cycle::ZERO).unwrap();
        // Two hops, each 100 cy serialisation + latency (store-and-forward).
        assert_eq!(t.arrived, Cycle::new(2 * (100 + 1300)));
    }

    #[test]
    fn ring_transit_traffic_contends_with_neighbour_traffic() {
        let cfg = FabricConfig::new(4, LinkGen::Pcie3).with_topology(Topology::Ring);
        let mut f = Fabric::new(cfg);
        // G0 -> G2 transits the G0->G1 link...
        f.transfer(G0, G2, 1300, Cycle::ZERO).unwrap();
        // ...so a subsequent G0 -> G1 transfer queues behind it.
        let t = f.transfer(G0, G1, 1300, Cycle::ZERO).unwrap();
        assert!(t.arrived > Cycle::new(100 + 1300));
    }

    #[test]
    fn ring_uses_shortest_direction() {
        let cfg = FabricConfig::new(4, LinkGen::Pcie3).with_topology(Topology::Ring);
        let mut f = Fabric::new(cfg);
        // G3 -> G0 is one counter... clockwise hop (3 -> 0), not three.
        let t = f.transfer(G3, G0, 1300, Cycle::ZERO).unwrap();
        assert_eq!(t.arrived, Cycle::new(100 + 1300));
    }

    #[test]
    fn bandwidth_share_halves_link_rate() {
        let mut shared = Fabric::new(FabricConfig::new(2, LinkGen::Pcie3).with_bandwidth_share(2));
        let t = shared.transfer(G0, G1, 1300, Cycle::ZERO).unwrap();
        // 1300 bytes at 6.5 B/cy = 200 cy serialisation + hop latency,
        // double the exclusive fabric's 100 cy.
        assert_eq!(t.arrived, Cycle::new(200 + 1300));
        // Share of one (or zero) leaves the fabric untouched.
        let mut solo = Fabric::new(FabricConfig::new(2, LinkGen::Pcie3).with_bandwidth_share(0));
        let t = solo.transfer(G0, G1, 1300, Cycle::ZERO).unwrap();
        assert_eq!(t.arrived, Cycle::new(100 + 1300));
        // Infinite links stay free no matter how many tenants share them.
        let mut inf = Fabric::new(FabricConfig::new(2, LinkGen::Infinite).with_bandwidth_share(4));
        let t = inf.transfer(G0, G1, 1 << 30, Cycle::ZERO).unwrap();
        assert_eq!(t.arrived, Cycle::ZERO);
    }

    #[test]
    fn nvswitch_adds_fixed_hop_latency() {
        let cfg = FabricConfig::new(4, LinkGen::Pcie3).with_topology(Topology::NvSwitch);
        let mut f = Fabric::new(cfg);
        let t = f.transfer(G0, G1, 1300, Cycle::ZERO).unwrap();
        // Same booking as the flat switch plus the 100 ns crossbar hop.
        assert_eq!(t.arrived, Cycle::new(100 + 1300 + 100));
        // Latency-free links elide the switch hop too.
        let mut inf =
            Fabric::new(FabricConfig::new(2, LinkGen::Infinite).with_topology(Topology::NvSwitch));
        let t = inf.transfer(G0, G1, 1 << 20, Cycle::new(5)).unwrap();
        assert_eq!(t.arrived, Cycle::new(5));
    }

    #[test]
    fn pcie_tree_intra_leaf_matches_flat_switch() {
        let cfg = FabricConfig::new(8, LinkGen::Pcie3).with_topology(Topology::PcieTree);
        let mut f = Fabric::new(cfg);
        // G0 and G1 share a leaf: one hop, no uplink involvement.
        let t = f.transfer(G0, G1, 1300, Cycle::ZERO).unwrap();
        assert_eq!(t.arrived, Cycle::new(100 + 1300));
    }

    #[test]
    fn pcie_tree_cross_leaf_pays_two_hops() {
        let cfg = FabricConfig::new(8, LinkGen::Pcie3).with_topology(Topology::PcieTree);
        let mut f = Fabric::new(cfg);
        // G0 (leaf 0) -> G4 (leaf 1): egress, uplink, downlink, ingress all
        // free, so serialisation overlaps cut-through; two hop latencies.
        let t = f.transfer(G0, GpuId::new(4), 1300, Cycle::ZERO).unwrap();
        assert_eq!(t.arrived, Cycle::new(100 + 2 * 1300));
    }

    #[test]
    fn pcie_tree_leaf_uplink_is_shared() {
        let cfg = FabricConfig::new(8, LinkGen::Pcie3).with_topology(Topology::PcieTree);
        let mut f = Fabric::new(cfg);
        // Two different sources in leaf 0 both cross leaves: their private
        // egress links are free but the shared uplink serialises them.
        let a = f.transfer(G0, GpuId::new(4), 1300, Cycle::ZERO).unwrap();
        let b = f.transfer(G1, GpuId::new(5), 1300, Cycle::ZERO).unwrap();
        assert_eq!(a.arrived, Cycle::new(100 + 2 * 1300));
        assert_eq!(b.arrived, Cycle::new(200 + 2 * 1300));
    }

    #[test]
    fn topology_labels_roundtrip() {
        for (i, t) in Topology::ALL.into_iter().enumerate() {
            assert_eq!(t as usize, i, "ALL skips or reorders a variant");
            assert_eq!(t.label().parse::<Topology>().unwrap(), t);
            assert_eq!(t.to_string(), t.label());
        }
        assert!("mesh".parse::<Topology>().is_err());
    }

    #[test]
    fn min_cross_gpu_latency_tracks_topology() {
        use gps_types::Latency;
        let link = LinkGen::Pcie3;
        assert_eq!(
            Topology::Switch.min_cross_gpu_latency(link),
            Latency::new(1300)
        );
        assert_eq!(
            Topology::Ring.min_cross_gpu_latency(link),
            Latency::new(1300)
        );
        assert_eq!(
            Topology::PcieTree.min_cross_gpu_latency(link),
            Latency::new(1300)
        );
        assert_eq!(
            Topology::NvSwitch.min_cross_gpu_latency(link),
            Latency::new(1400)
        );
        for t in Topology::ALL {
            assert_eq!(t.min_cross_gpu_latency(LinkGen::Infinite), Latency::ZERO);
        }
    }

    #[test]
    fn counters_track_all_traffic() {
        let mut f = pcie3_4gpu();
        let first = f.transfer(G0, G1, 100, Cycle::ZERO).unwrap();
        f.transfer(G1, G0, 50, Cycle::ZERO).unwrap();
        assert_eq!(f.counters().total_bytes(), 150);
        f.reset();
        assert_eq!(f.counters().total_bytes(), 0);
        // The link schedules are free again: the same transfer lands as
        // early as on a fresh fabric.
        let again = f.transfer(G0, G1, 100, Cycle::ZERO).unwrap();
        assert_eq!(again.arrived, first.arrived);
    }
}

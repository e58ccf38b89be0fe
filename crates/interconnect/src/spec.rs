//! Interconnect generations and the Figure 3 platform table.

use std::fmt;
use std::str::FromStr;

use gps_types::{Bandwidth, GpsError, Latency};

/// An inter-GPU interconnect generation.
///
/// Bandwidths are *effective per-direction, per-GPU* figures (protocol
/// overheads already deducted), matching the operating points the paper
/// simulates: Figure 13 sweeps PCIe 3.0 through a projected PCIe 6.0, and
/// §7.3 fixes the 16-GPU study at "a projected PCIe 6.0 interconnect
/// (operating at 128GB/s)".
///
/// ```
/// use gps_interconnect::LinkGen;
/// assert_eq!(LinkGen::Pcie6.bandwidth().as_gb_per_sec(), 128.0);
/// assert!(LinkGen::Infinite.bandwidth().is_infinite());
/// assert!(LinkGen::NvLink3.bandwidth() > LinkGen::Pcie6.bandwidth());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkGen {
    /// PCIe 3.0 x16: ~13 GB/s effective per direction.
    Pcie3,
    /// PCIe 4.0 x16: ~26 GB/s effective per direction.
    Pcie4,
    /// PCIe 5.0 x16: ~52 GB/s effective per direction.
    Pcie5,
    /// Projected PCIe 6.0 x16 operating at 128 GB/s (§7.3).
    Pcie6,
    /// NVLink 1 (4 links, Pascal): ~80 GB/s per direction.
    NvLink1,
    /// NVLink 2 (6 links, Volta): ~150 GB/s per direction.
    NvLink2,
    /// NVLink 3 + NVSwitch (Ampere): ~300 GB/s per direction.
    NvLink3,
    /// The infinite-bandwidth upper bound used throughout the evaluation.
    Infinite,
}

impl LinkGen {
    /// Every generation, in declaration order.
    pub const ALL: [LinkGen; 8] = [
        LinkGen::Pcie3,
        LinkGen::Pcie4,
        LinkGen::Pcie5,
        LinkGen::Pcie6,
        LinkGen::NvLink1,
        LinkGen::NvLink2,
        LinkGen::NvLink3,
        LinkGen::Infinite,
    ];

    /// The PCIe sweep of Figure 13, slowest first.
    pub const PCIE_SWEEP: [LinkGen; 4] = [
        LinkGen::Pcie3,
        LinkGen::Pcie4,
        LinkGen::Pcie5,
        LinkGen::Pcie6,
    ];

    /// Effective per-direction, per-GPU bandwidth.
    pub fn bandwidth(self) -> Bandwidth {
        match self {
            LinkGen::Pcie3 => Bandwidth::gb_per_sec(13.0),
            LinkGen::Pcie4 => Bandwidth::gb_per_sec(26.0),
            LinkGen::Pcie5 => Bandwidth::gb_per_sec(52.0),
            LinkGen::Pcie6 => Bandwidth::gb_per_sec(128.0),
            LinkGen::NvLink1 => Bandwidth::gb_per_sec(80.0),
            LinkGen::NvLink2 => Bandwidth::gb_per_sec(150.0),
            LinkGen::NvLink3 => Bandwidth::gb_per_sec(300.0),
            LinkGen::Infinite => Bandwidth::INFINITE,
        }
    }

    /// One-way hop latency (serialisation excluded).
    ///
    /// PCIe peer-to-peer traverses the root/switch complex (~1.3 us);
    /// NVLink is markedly lower. The infinite model is also latency-free:
    /// the paper obtains it "by eliding the data transfer time" entirely.
    pub fn latency(self) -> Latency {
        match self {
            LinkGen::Pcie3 | LinkGen::Pcie4 | LinkGen::Pcie5 | LinkGen::Pcie6 => {
                Latency::from_nanos(1_300)
            }
            LinkGen::NvLink1 | LinkGen::NvLink2 | LinkGen::NvLink3 => Latency::from_nanos(700),
            LinkGen::Infinite => Latency::ZERO,
        }
    }

    /// Short machine-friendly name (used in result tables).
    pub fn label(self) -> &'static str {
        match self {
            LinkGen::Pcie3 => "pcie3",
            LinkGen::Pcie4 => "pcie4",
            LinkGen::Pcie5 => "pcie5",
            LinkGen::Pcie6 => "pcie6",
            LinkGen::NvLink1 => "nvlink1",
            LinkGen::NvLink2 => "nvlink2",
            LinkGen::NvLink3 => "nvlink3",
            LinkGen::Infinite => "infinite",
        }
    }
}

impl fmt::Display for LinkGen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkGen::Pcie3 => write!(f, "PCIe 3.0"),
            LinkGen::Pcie4 => write!(f, "PCIe 4.0"),
            LinkGen::Pcie5 => write!(f, "PCIe 5.0"),
            LinkGen::Pcie6 => write!(f, "PCIe 6.0 (projected)"),
            LinkGen::NvLink1 => write!(f, "NVLink 1"),
            LinkGen::NvLink2 => write!(f, "NVLink 2"),
            LinkGen::NvLink3 => write!(f, "NVLink 3 + NVSwitch"),
            LinkGen::Infinite => write!(f, "Infinite bandwidth"),
        }
    }
}

impl FromStr for LinkGen {
    type Err = GpsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "pcie3" | "pcie3.0" => Ok(LinkGen::Pcie3),
            "pcie4" | "pcie4.0" => Ok(LinkGen::Pcie4),
            "pcie5" | "pcie5.0" => Ok(LinkGen::Pcie5),
            "pcie6" | "pcie6.0" => Ok(LinkGen::Pcie6),
            "nvlink1" => Ok(LinkGen::NvLink1),
            "nvlink2" => Ok(LinkGen::NvLink2),
            "nvlink3" => Ok(LinkGen::NvLink3),
            "infinite" | "inf" => Ok(LinkGen::Infinite),
            other => Err(GpsError::Parse {
                what: "interconnect generation",
                input: other.to_owned(),
            }),
        }
    }
}

/// One row of the Figure 3 platform table: aggregate local HBM bandwidth vs
/// aggregate remote (inter-GPU) bandwidth per GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformSpec {
    /// Platform / GPU / interconnect label as printed in Figure 3.
    pub name: &'static str,
    /// Local GPU memory bandwidth in GB/s.
    pub local_gbps: f64,
    /// Remote (inter-GPU) bandwidth in GB/s (bidirectional aggregate).
    pub remote_gbps: f64,
}

impl PlatformSpec {
    /// Ratio of local to remote bandwidth — the gap Figure 3 shows
    /// persisting at roughly 3x on the newest platform.
    pub fn gap(&self) -> f64 {
        self.local_gbps / self.remote_gbps
    }
}

/// The five platforms of Figure 3, oldest first.
pub const PLATFORMS: [PlatformSpec; 5] = [
    PlatformSpec {
        name: "Discrete/Kepler/PCIe",
        local_gbps: 250.0,
        remote_gbps: 16.0,
    },
    PlatformSpec {
        name: "DGX-1/Pascal/NVLink 1",
        local_gbps: 720.0,
        remote_gbps: 80.0,
    },
    PlatformSpec {
        name: "DGX-1V/Volta/NVLink 2",
        local_gbps: 900.0,
        remote_gbps: 150.0,
    },
    PlatformSpec {
        name: "DGX-2/Volta/NVLink 2 + NVSwitch",
        local_gbps: 900.0,
        remote_gbps: 300.0,
    },
    PlatformSpec {
        name: "DGX-A100/Ampere/NVLink 3 + NVSwitch",
        local_gbps: 1555.0,
        remote_gbps: 600.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcie_sweep_doubles_each_generation() {
        let bws: Vec<f64> = LinkGen::PCIE_SWEEP
            .iter()
            .map(|g| g.bandwidth().as_gb_per_sec())
            .collect();
        assert!(bws.windows(2).all(|w| w[1] >= 1.9 * w[0]));
    }

    #[test]
    fn figure3_gap_is_roughly_3x_on_newest_platform() {
        let newest = PLATFORMS.last().unwrap();
        assert!(newest.gap() > 2.0 && newest.gap() < 3.5);
    }

    #[test]
    fn figure3_remote_improved_38x_from_pcie_to_nvswitch() {
        let improvement = PLATFORMS.last().unwrap().remote_gbps / PLATFORMS[0].remote_gbps;
        assert!((improvement - 37.5).abs() < 2.5, "got {improvement}");
    }

    #[test]
    fn parse_roundtrip() {
        for (i, gen) in LinkGen::ALL.into_iter().enumerate() {
            assert_eq!(gen as usize, i, "ALL skips or reorders a variant");
            assert_eq!(gen.label().parse::<LinkGen>().unwrap(), gen);
        }
        assert!("pcie7".parse::<LinkGen>().is_err());
    }

    #[test]
    fn infinite_is_free() {
        assert!(LinkGen::Infinite.bandwidth().is_infinite());
        assert_eq!(LinkGen::Infinite.latency(), Latency::ZERO);
    }

    #[test]
    fn nvlink_latency_beats_pcie() {
        assert!(LinkGen::NvLink3.latency() < LinkGen::Pcie3.latency());
    }
}

//! Shared paradigm vocabulary and cost constants.

use std::fmt;
use std::str::FromStr;

use gps_types::{GpsError, Latency};

/// The paradigms compared throughout the evaluation (Figures 1, 8, 10-13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Paradigm {
    /// Unified Memory without hints: fault-based migration.
    Um,
    /// Unified Memory with expert placement/prefetch hints.
    UmHints,
    /// Remote demand loads to each page's last writer.
    Rdl,
    /// Bulk-synchronous replication via `cudaMemcpy` at barriers.
    Memcpy,
    /// The GPS publish-subscribe proposal.
    Gps,
    /// GPS with subscription tracking disabled (Figure 11 ablation).
    GpsNoSubscription,
    /// GPS under memory oversubscription (§8 future work): per-GPU
    /// capacity is sized below the subscription demand given by
    /// `SimConfig::memory_pressure`, and the driver swaps replicas out.
    GpsOversub,
    /// The infinite-bandwidth upper bound.
    InfiniteBw,
}

impl Paradigm {
    /// Every paradigm, in declaration order.
    pub const ALL: [Paradigm; 8] = [
        Paradigm::Um,
        Paradigm::UmHints,
        Paradigm::Rdl,
        Paradigm::Memcpy,
        Paradigm::Gps,
        Paradigm::GpsNoSubscription,
        Paradigm::GpsOversub,
        Paradigm::InfiniteBw,
    ];

    /// The paradigms of the headline comparison (Figure 8), in the paper's
    /// bar order.
    pub const FIGURE8: [Paradigm; 6] = [
        Paradigm::Um,
        Paradigm::UmHints,
        Paradigm::Rdl,
        Paradigm::Memcpy,
        Paradigm::Gps,
        Paradigm::InfiniteBw,
    ];

    /// Short machine-friendly label.
    pub fn label(self) -> &'static str {
        match self {
            Paradigm::Um => "um",
            Paradigm::UmHints => "um+hints",
            Paradigm::Rdl => "rdl",
            Paradigm::Memcpy => "memcpy",
            Paradigm::Gps => "gps",
            Paradigm::GpsNoSubscription => "gps-nosub",
            Paradigm::GpsOversub => "gps-oversub",
            Paradigm::InfiniteBw => "infinite-bw",
        }
    }
}

impl fmt::Display for Paradigm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Paradigm::Um => write!(f, "UM"),
            Paradigm::UmHints => write!(f, "UM + hints"),
            Paradigm::Rdl => write!(f, "RDL"),
            Paradigm::Memcpy => write!(f, "Memcpy"),
            Paradigm::Gps => write!(f, "GPS"),
            Paradigm::GpsNoSubscription => write!(f, "GPS w/o subscription"),
            Paradigm::GpsOversub => write!(f, "GPS oversubscribed"),
            Paradigm::InfiniteBw => write!(f, "Infinite BW"),
        }
    }
}

impl FromStr for Paradigm {
    type Err = GpsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "um" => Ok(Paradigm::Um),
            "um+hints" | "umhints" | "um-hints" => Ok(Paradigm::UmHints),
            "rdl" => Ok(Paradigm::Rdl),
            "memcpy" => Ok(Paradigm::Memcpy),
            "gps" => Ok(Paradigm::Gps),
            "gps-nosub" | "gpsnosub" => Ok(Paradigm::GpsNoSubscription),
            "gps-oversub" | "gpsoversub" | "gps-oversubscribed" => Ok(Paradigm::GpsOversub),
            "infinite-bw" | "infinite" | "inf" => Ok(Paradigm::InfiniteBw),
            other => Err(GpsError::Parse {
                what: "paradigm",
                input: other.to_owned(),
            }),
        }
    }
}

/// Fixed cost of servicing one GPU page fault (driver round trip, unmap,
/// remap), excluding the data transfer: tens of microseconds (§2.1: "the
/// page fault handling overheads are often performance prohibitive"),
/// calibrated to publicly reported UM behaviour on Volta. Shared by um,
/// um+hints and gps-oversub.
pub const FAULT_OVERHEAD: Latency = Latency::from_micros(25);

/// Cost of a TLB shootdown when a replicated page collapses to one copy:
/// cheaper than a fault but far from free (§7.1).
pub const SHOOTDOWN: Latency = Latency::from_micros(2);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for (i, p) in Paradigm::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i, "ALL skips or reorders a variant");
            assert_eq!(p.label().parse::<Paradigm>().unwrap(), p);
        }
        assert!("carrier-pigeon".parse::<Paradigm>().is_err());
    }

    #[test]
    fn figure8_order_matches_paper_legend() {
        assert_eq!(Paradigm::FIGURE8[0], Paradigm::Um);
        assert_eq!(Paradigm::FIGURE8[4], Paradigm::Gps);
        assert_eq!(Paradigm::FIGURE8[5], Paradigm::InfiniteBw);
    }

    #[test]
    fn fault_costs_are_microseconds() {
        assert!(FAULT_OVERHEAD >= Latency::from_micros(10));
        assert!(SHOOTDOWN < FAULT_OVERHEAD);
    }
}

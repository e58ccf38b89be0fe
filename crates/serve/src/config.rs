//! The full configuration of one serving run.

use gps_interconnect::LinkGen;
use gps_paradigms::Paradigm;
use gps_workloads::{suite, ScaleProfile};

use crate::arrival::ArrivalModel;

/// Everything that determines a serving run's report.
///
/// The `Debug` rendering participates in the harness's content-addressed
/// run keys, so every field here perturbs the key.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Application mix; job `j` runs `mix[j % mix.len()]` (deterministic
    /// round-robin, decoupled from the arrival RNG so changing the seed
    /// never changes which application a given job runs).
    pub mix: Vec<String>,
    /// Memory-management paradigm every job runs under.
    pub paradigm: Paradigm,
    /// GPUs in the shared machine.
    pub gpus: usize,
    /// Inter-GPU interconnect generation.
    pub link: LinkGen,
    /// Workload scale profile.
    pub scale: ScaleProfile,
    /// Seed of the arrival process (service times are deterministic given
    /// the mix and occupancy; only interarrival gaps draw from the RNG).
    pub seed: u64,
    /// Open or closed arrival model.
    pub arrival: ArrivalModel,
    /// Total jobs to submit.
    pub jobs: u64,
    /// Tenant slots: the maximum number of jobs in service at once.
    pub slots: u32,
}

impl Default for ServeConfig {
    /// The smoke-test mix: Jacobi + Pagerank, closed at concurrency 2 on
    /// a 4-GPU PCIe 3 machine, 16 tiny jobs, seed 42.
    fn default() -> Self {
        ServeConfig {
            mix: vec!["jacobi".to_owned(), "pagerank".to_owned()],
            paradigm: Paradigm::Gps,
            gpus: 4,
            link: LinkGen::Pcie3,
            scale: ScaleProfile::Tiny,
            seed: 42,
            arrival: ArrivalModel::Closed { concurrency: 2 },
            jobs: 16,
            slots: 2,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found: an empty or
    /// unknown mix, a zero job/slot/GPU count, a closed concurrency
    /// exceeding the slot count, or a zero open interarrival mean.
    pub fn validate(&self) -> Result<(), String> {
        if self.mix.is_empty() {
            return Err("mix must name at least one application".to_owned());
        }
        for app in &self.mix {
            if suite::by_name(app).is_none() {
                return Err(format!(
                    "unknown application '{app}' (see `gps-run sweep` usage for the suite)"
                ));
            }
        }
        if self.gpus == 0 {
            return Err("gpus must be positive".to_owned());
        }
        // GPU ids are 16-bit; checked here, before any workload is built.
        if self.gpus > usize::from(u16::MAX) {
            return Err(format!("gpus must be at most {}", u16::MAX));
        }
        if self.jobs == 0 {
            return Err("jobs must be positive".to_owned());
        }
        if self.slots == 0 {
            return Err("slots must be positive".to_owned());
        }
        match self.arrival {
            ArrivalModel::Open { mean_interarrival } => {
                if mean_interarrival == 0 {
                    return Err("open-mode mean interarrival must be positive".to_owned());
                }
            }
            ArrivalModel::Closed { concurrency } => {
                if concurrency == 0 {
                    return Err("closed-mode concurrency must be positive".to_owned());
                }
                if concurrency > self.slots {
                    return Err(format!(
                        "closed-mode concurrency {concurrency} exceeds the {} tenant slot(s)",
                        self.slots
                    ));
                }
            }
        }
        Ok(())
    }

    /// The application of job `j`: round-robin over the mix.
    pub fn app_of(&self, job: u64) -> &str {
        // gps-lint: allow(no_slice_index) -- index is modulo mix.len(); validate() rejects an empty mix
        &self.mix[(job % self.mix.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut c = ServeConfig::default();
        c.mix.clear();
        assert!(c.validate().is_err());

        let c = ServeConfig {
            mix: vec!["doom".to_owned()],
            ..ServeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("doom"));

        let c = ServeConfig {
            jobs: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());

        let c = ServeConfig {
            gpus: usize::from(u16::MAX) + 1,
            ..ServeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("at most 65535"));

        let c = ServeConfig {
            slots: 0,
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());

        let c = ServeConfig {
            arrival: ArrivalModel::Closed { concurrency: 3 },
            ..ServeConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("exceeds"));

        let c = ServeConfig {
            arrival: ArrivalModel::Open {
                mean_interarrival: 0,
            },
            ..ServeConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn jobs_round_robin_over_the_mix() {
        let c = ServeConfig::default();
        assert_eq!(c.app_of(0), "jacobi");
        assert_eq!(c.app_of(1), "pagerank");
        assert_eq!(c.app_of(2), "jacobi");
        assert_eq!(c.app_of(5), "pagerank");
    }
}

//! Content-addressed run keys.
//!
//! Every run in a sweep is identified by a stable 128-bit hash of
//! everything that determines its result: the application name, the
//! [`RunSpec`] (paradigm, GPU count, link, scale), the full
//! [`SimConfig`] of the simulated machine and the per-GPU constants of
//! [`GpuConfig::gv100`]. The key is the address of the run in the result
//! store: a sweep resumes by skipping keys that already have a completed
//! record, and a machine change (say, a different L2 size in `gv100()`)
//! changes every affected key, so stale results can never be replayed as
//! fresh ones.
//!
//! [`RunSpec`]: crate::RunSpec
//! [`SimConfig`]: gps_sim::SimConfig
//! [`GpuConfig::gv100`]: gps_sim::GpuConfig::gv100

use gps_serve::ServeConfig;
use gps_sim::{GpuConfig, SimConfig};

use crate::runner::RunSpec;

/// Bump when the canonical encoding below changes shape, so old stores
/// are invalidated rather than silently misread.
///
/// v2: `SimConfig` grew a `memory_pressure` field (its Debug rendering —
/// and therefore every key — changed shape).
///
/// v3: `SimConfig` grew a `tenants` field (multi-tenant serving), again
/// changing the Debug rendering every key hashes.
///
/// v4: `SimConfig` grew `topology` and `parallel_workers` (switch-based
/// fabrics + the parallel lane engine), and the canonical encoding started
/// normalising `parallel_workers` to at most 1 (worker counts beyond 1 are
/// enforced to be result-invariant, so they must share a key).
///
/// v5: `SimConfig` lost its trace-expansion depth field (the overlapped
/// expansion pipeline was removed), changing the Debug rendering again.
///
/// v6: `SimConfig` lost its `gpu` field (the GV100 is the only machine);
/// the encoding appends `|gpu=` and the Debug rendering of
/// [`GpuConfig::gv100`] instead, so the Table-1 constants still key runs.
///
/// v7: `MemoryPressure` lost its victim-policy field (LRU-approximate is
/// the only victim policy), which changes the `SimConfig` Debug rendering.
const KEY_VERSION: u32 = 7;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The canonical byte encoding a run key hashes: key version, app, spec
/// labels, and the debug rendering of the machine configuration and of the
/// per-GPU constants (stable for a given field set; any change to either
/// perturbs it).
fn canonical(app: &str, spec: RunSpec, config: &SimConfig) -> String {
    // `parallel_workers` is half a knob: 0 vs ≥1 selects the lane shape
    // (the epoch tiers legitimately deviate from the reference lane, so
    // the two must not share a key), but the count beyond 1 is pure
    // wall-clock (worker-invariance is enforced by test) and collapses to 1.
    let mut config = *config;
    config.parallel_workers = config.parallel_workers.min(1);
    let config = &config;
    format!(
        "v{KEY_VERSION}|app={app}|paradigm={}|gpus={}|link={}|scale={}|config={config:?}|gpu={:?}",
        spec.paradigm.label(),
        spec.gpus,
        spec.link.label(),
        spec.scale.label(),
        GpuConfig::gv100(),
    )
}

/// Computes the content-addressed key of one run as 32 lowercase hex
/// digits (two independently seeded 64-bit FNV-1a lanes).
pub fn run_key(app: &str, spec: RunSpec, config: &SimConfig) -> String {
    digest(&canonical(app, spec, config))
}

/// Computes the content-addressed key of one serving run: the mix,
/// arrival model, seed and slot count all participate, plus the Debug
/// rendering of the base machine (before per-level tenancy is applied by
/// the service-time oracle) and of the per-GPU constants.
pub fn serve_key(cfg: &ServeConfig) -> String {
    digest(&serve_canonical(cfg))
}

/// The canonical byte encoding a serve key hashes.
fn serve_canonical(cfg: &ServeConfig) -> String {
    let machine = SimConfig::gv100_system(cfg.gpus);
    format!(
        "v{KEY_VERSION}|serve|mix={}|paradigm={}|gpus={}|link={}|scale={}|seed={}|arrival={:?}|jobs={}|slots={}|config={machine:?}|gpu={:?}",
        cfg.mix.join("+"),
        cfg.paradigm.label(),
        cfg.gpus,
        cfg.link.label(),
        cfg.scale.label(),
        cfg.seed,
        cfg.arrival,
        cfg.jobs,
        cfg.slots,
        GpuConfig::gv100(),
    )
}

fn digest(payload: &str) -> String {
    let lo = fnv1a(FNV_OFFSET, payload.as_bytes());
    // Second lane: different seed, walked over the same bytes, decorrelated
    // by folding the first lane in.
    let hi = fnv1a(
        FNV_OFFSET ^ lo.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15,
        payload.as_bytes(),
    );
    format!("{hi:016x}{lo:016x}")
}

/// The key of the machine a [`RunSpec`] implies ([`RunSpec::machine`]: the
/// GV100 system of the paper at the spec's GPU count with pressure,
/// topology and engine selection applied; the workload's page size is
/// applied by the runner).
pub fn run_key_default_machine(app: &str, spec: RunSpec) -> String {
    run_key(app, spec, &spec.machine())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_interconnect::LinkGen;
    use gps_paradigms::Paradigm;
    use gps_workloads::ScaleProfile;

    fn spec() -> RunSpec {
        RunSpec {
            paradigm: Paradigm::Gps,
            gpus: 4,
            link: LinkGen::Pcie3,
            scale: ScaleProfile::Tiny,
            pressure: gps_sim::MemoryPressure::NONE,
            topology: gps_interconnect::Topology::Switch,
            parallel: 0,
        }
    }

    #[test]
    fn keys_are_stable_and_well_formed() {
        let a = run_key_default_machine("jacobi", spec());
        let b = run_key_default_machine("jacobi", spec());
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn every_spec_dimension_perturbs_the_key() {
        let base = run_key_default_machine("jacobi", spec());
        assert_ne!(base, run_key_default_machine("pagerank", spec()));

        let mut s = spec();
        s.paradigm = Paradigm::Um;
        assert_ne!(base, run_key_default_machine("jacobi", s));

        let mut s = spec();
        s.gpus = 16;
        assert_ne!(base, run_key_default_machine("jacobi", s));

        let mut s = spec();
        s.link = LinkGen::Pcie6;
        assert_ne!(base, run_key_default_machine("jacobi", s));

        let mut s = spec();
        s.scale = ScaleProfile::Small;
        assert_ne!(base, run_key_default_machine("jacobi", s));

        let mut s = spec();
        s.pressure = gps_sim::MemoryPressure::from_ratio(1.5);
        assert_ne!(base, run_key_default_machine("jacobi", s));
    }

    #[test]
    fn topology_perturbs_the_key() {
        use gps_interconnect::Topology;
        let base = run_key_default_machine("jacobi", spec());
        for topology in [Topology::Ring, Topology::NvSwitch, Topology::PcieTree] {
            let mut s = spec();
            s.topology = topology;
            assert_ne!(
                base,
                run_key_default_machine("jacobi", s),
                "{topology} key collided with switch"
            );
        }
    }

    #[test]
    fn engine_selection_perturbs_but_worker_count_does_not() {
        // 0 → reference lane, ≥1 → per-GPU lanes: distinct results for the
        // epoch tier, so distinct keys. The count beyond 1 is pure
        // wall-clock and must normalise away.
        let sequential = run_key_default_machine("jacobi", spec());
        let mut s = spec();
        s.parallel = 1;
        let lanes = run_key_default_machine("jacobi", s);
        assert_ne!(sequential, lanes);
        for workers in [2usize, 4, 16] {
            let mut s = spec();
            s.parallel = workers;
            assert_eq!(
                lanes,
                run_key_default_machine("jacobi", s),
                "worker count {workers} leaked into the key"
            );
        }
    }

    #[test]
    fn machine_config_perturbs_the_key() {
        let mut config = gps_sim::SimConfig::gv100_system(4);
        let base = run_key("jacobi", spec(), &config);
        config.tenants = 2;
        assert_ne!(base, run_key("jacobi", spec(), &config));
    }

    #[test]
    fn gpu_constants_are_hashed_into_every_key() {
        // Editing a Table-1 constant in `gv100()` must re-key every run.
        let gpu = format!("{:?}", GpuConfig::gv100());
        let config = gps_sim::SimConfig::gv100_system(4);
        assert!(canonical("jacobi", spec(), &config).contains(&gpu));
        assert!(serve_canonical(&gps_serve::ServeConfig::default()).contains(&gpu));
    }

    #[test]
    fn serve_keys_hash_mix_and_arrival_params() {
        let cfg = gps_serve::ServeConfig::default();
        let base = serve_key(&cfg);
        assert_eq!(base, serve_key(&cfg));
        assert_eq!(base.len(), 32);

        let mut c = gps_serve::ServeConfig::default();
        c.seed += 1;
        assert_ne!(base, serve_key(&c));

        let c = gps_serve::ServeConfig {
            mix: vec!["jacobi".into()],
            ..gps_serve::ServeConfig::default()
        };
        assert_ne!(base, serve_key(&c));

        let c = gps_serve::ServeConfig {
            arrival: gps_serve::ArrivalModel::Open {
                mean_interarrival: 1_000_000,
            },
            ..gps_serve::ServeConfig::default()
        };
        assert_ne!(base, serve_key(&c));

        let mut c = gps_serve::ServeConfig::default();
        c.jobs += 8;
        assert_ne!(base, serve_key(&c));
    }
}

//! Randomised (deterministically seeded) tests of the GPS hardware units.

use gps_core::{AllocationKind, GpsConfig, GpsRuntime, InsertOutcome, RemoteWriteQueue};
use gps_types::rng::SmallRng;
use gps_types::{GpuId, LineAddr, PageSize, Scope};

/// The remote write queue never exceeds its capacity, never loses a line
/// (every insert is eventually drained exactly once or still buffered),
/// and coalesced hits never generate drains.
#[test]
fn rwq_conserves_lines() {
    let mut rng = SmallRng::seed_from_u64(31);
    for _ in 0..40 {
        let capacity = rng.gen_range_usize(1..64);
        let mut q = RemoteWriteQueue::new(capacity, capacity - 1);
        let mut drained: Vec<u64> = Vec::new();
        let mut inserted = std::collections::HashSet::new();
        let mut insert_events = 0usize;
        for _ in 0..rng.gen_range(1..400) {
            let line = rng.gen_range(0..96);
            let (outcome, drain) = q.insert(LineAddr::new(line), Scope::Weak);
            match outcome {
                InsertOutcome::Coalesced => {
                    assert!(inserted.contains(&line));
                    assert!(drain.is_none());
                }
                InsertOutcome::Inserted => {
                    insert_events += 1;
                    inserted.insert(line);
                    if let Some(d) = drain {
                        assert!(inserted.remove(&d.as_u64()), "drained unknown line");
                        drained.push(d.as_u64());
                    }
                }
                InsertOutcome::Bypassed => panic!("weak store bypassed"),
            }
            assert!(q.len() <= capacity);
        }
        let flushed = q.flush();
        assert!(q.is_empty());
        for line in &flushed {
            assert!(inserted.remove(&line.as_u64()), "flushed unknown line");
        }
        assert!(inserted.is_empty(), "lines lost: {inserted:?}");
        // Conservation: every allocated entry drains exactly once (at the
        // watermark or at the flush) — a line re-inserted after a drain
        // allocates, and drains, again.
        assert_eq!(drained.len() + flushed.len(), insert_events);
    }
}

/// Sys-scoped stores always bypass; weak/cta/gpu always enter.
#[test]
fn rwq_scope_discipline() {
    let mut rng = SmallRng::seed_from_u64(32);
    for _ in 0..20 {
        let mut q = RemoteWriteQueue::new(1024, 1023);
        for i in 0..rng.gen_range(1..100) {
            let scope = match rng.gen_range(0..4) {
                0 => Scope::Weak,
                1 => Scope::Cta,
                2 => Scope::Gpu,
                _ => Scope::Sys,
            };
            let (outcome, _) = q.insert(LineAddr::new(i), scope);
            if scope == Scope::Sys {
                assert_eq!(outcome, InsertOutcome::Bypassed);
            } else {
                assert_eq!(outcome, InsertOutcome::Inserted);
            }
        }
    }
}

/// Runtime subscription scripts keep frames balanced: every subscription
/// allocates exactly one frame, every unsubscription frees exactly one,
/// and free() returns the runtime to its initial state.
#[test]
fn runtime_frame_balance() {
    let mut rng = SmallRng::seed_from_u64(33);
    for _ in 0..30 {
        let pages = rng.gen_range(1..6);
        let mut rt = GpsRuntime::new(4, PageSize::Standard64K);
        let region = rt
            .malloc_gps(pages * 65536, AllocationKind::Automatic)
            .unwrap();
        let vpn = region.base().vpn(PageSize::Standard64K);
        let mut subs: std::collections::BTreeSet<u16> = (0..4).collect();
        for _ in 0..rng.gen_range(0..120) {
            let gpu = rng.gen_range(0..4) as u16;
            let g = GpuId::new(gpu);
            if rng.gen_bool(0.5) {
                rt.subscribe_page(vpn, g).unwrap();
                subs.insert(gpu);
            } else {
                let res = rt.unsubscribe_page(vpn, g);
                if subs.contains(&gpu) && subs.len() > 1 {
                    assert!(res.is_ok());
                    subs.remove(&gpu);
                } else {
                    assert!(res.is_err());
                }
            }
            let got: Vec<u16> = rt
                .subscribers(vpn)
                .unwrap()
                .subscribers()
                .map(|g| g.raw())
                .collect();
            let want: Vec<u16> = subs.iter().copied().collect();
            assert_eq!(got, want);
            // GPS bit tracks multi-subscriber status.
            assert_eq!(rt.view().page_state(vpn).unwrap().gps_bit, subs.len() > 1);
        }
        rt.free(&region).unwrap();
        assert!(rt.allocations().next().is_none());
    }
}

/// Tracking with an arbitrary touch matrix always leaves every page with
/// at least one subscriber, and a page keeps exactly its touchers when at
/// least one GPU touched it.
#[test]
fn tracking_stop_respects_touch_matrix() {
    let mut rng = SmallRng::seed_from_u64(34);
    for _ in 0..30 {
        let config = GpsConfig::paper();
        let mut sys = gps_core::GpsSystem::new(4, PageSize::Standard64K, config).unwrap();
        let region = sys.malloc_gps(4 * 65536).unwrap();
        let first = region.base().vpn(PageSize::Standard64K);
        sys.tracking_start().unwrap();
        let mut matrix: std::collections::HashMap<u64, std::collections::BTreeSet<u16>> =
            std::collections::HashMap::new();
        for _ in 0..rng.gen_range(0..40) {
            let gpu = rng.gen_range(0..4) as u16;
            let page = rng.gen_range(0..4);
            sys.tlb_miss(GpuId::new(gpu), first.offset(page));
            matrix.entry(page).or_default().insert(gpu);
        }
        sys.tracking_stop().unwrap();
        for page in 0..4u64 {
            let entry = sys.runtime().subscribers(first.offset(page)).unwrap();
            assert!(entry.subscriber_count() >= 1);
            if let Some(touchers) = matrix.get(&page) {
                let got: Vec<u16> = entry.subscribers().map(|g| g.raw()).collect();
                let want: Vec<u16> = touchers.iter().copied().collect();
                assert_eq!(got, want, "page {page}");
            } else {
                assert_eq!(entry.subscriber_count(), 1, "untouched page keeps one");
            }
        }
    }
}

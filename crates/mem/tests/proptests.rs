//! Randomised (deterministically seeded) tests of the memory substrate.
//! Each test replays scripted operation sequences generated from a fixed
//! seed against a simple reference model.

use gps_mem::{AccessBitmap, FrameAllocator, GpsPageTable, ResidencyMap, Tlb, TlbConfig, VaSpace};
use gps_types::rng::SmallRng;
use gps_types::{GpuId, PageSize, Ppn, VirtAddr, Vpn};

/// VA allocations never overlap and are always page-aligned.
#[test]
fn va_allocations_are_disjoint_and_aligned() {
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..30 {
        let mut space = VaSpace::new(PageSize::Standard64K);
        let mut ranges = Vec::new();
        for _ in 0..rng.gen_range(1..40) {
            let bytes = rng.gen_range(1..4 * 1024 * 1024);
            let r = space.allocate(bytes).unwrap();
            assert!(r.base().is_aligned(65536));
            assert!(r.bytes() >= bytes);
            assert!(r.bytes().is_multiple_of(65536));
            for prev in &ranges {
                assert!(disjoint(prev, &r));
            }
            ranges.push(r);
        }
        // Every byte belongs to at most one range.
        for r in &ranges {
            assert_eq!(space.range_of(r.base()), Some(r));
        }
    }
}

/// The TLB is a strict subset of what was inserted, never exceeds its
/// capacity, and always contains the most recently inserted entry.
#[test]
fn tlb_capacity_and_recency() {
    let mut rng = SmallRng::seed_from_u64(13);
    for _ in 0..30 {
        let cfg = TlbConfig { sets: 8, ways: 4 };
        let mut tlb: Tlb<u64> = Tlb::new(cfg);
        let mut inserted = std::collections::HashSet::new();
        for i in 0..rng.gen_range(1..300) {
            let vpn = rng.gen_range(0..4096);
            tlb.insert(Vpn::new(vpn), i);
            inserted.insert(vpn);
            assert!(tlb.len() <= cfg.entries());
            // The just-inserted entry must be resident with the new payload.
            assert_eq!(tlb.peek(Vpn::new(vpn)), Some(&i));
        }
        // Nothing resident that was never inserted.
        for vpn in 0u64..4096 {
            if tlb.peek(Vpn::new(vpn)).is_some() {
                assert!(inserted.contains(&vpn));
            }
        }
    }
}

/// Frame allocator never double-allocates and frees restore capacity.
#[test]
fn frame_allocator_is_sound() {
    let mut rng = SmallRng::seed_from_u64(14);
    for _ in 0..30 {
        let mut fa = FrameAllocator::new(GpuId::new(0), 64 * 65536, PageSize::Standard64K);
        let mut live = std::collections::HashSet::new();
        for _ in 0..rng.gen_range(1..300) {
            if rng.gen_bool(0.5) || live.is_empty() {
                match fa.allocate() {
                    Ok(ppn) => assert!(live.insert(ppn), "double allocation"),
                    Err(_) => assert_eq!(live.len() as u64, fa.total_pages()),
                }
            } else {
                let &ppn = live.iter().next().unwrap();
                live.remove(&ppn);
                fa.free(ppn);
            }
            assert_eq!(fa.allocated_pages() as usize, live.len());
        }
    }
}

/// GPS page table: subscriber sets match a reference model and the
/// last-subscriber invariant holds under arbitrary scripts.
#[test]
fn gps_page_table_invariants() {
    let mut rng = SmallRng::seed_from_u64(15);
    for _ in 0..30 {
        let mut table = GpsPageTable::new();
        let mut model: std::collections::HashMap<u64, std::collections::BTreeSet<u16>> =
            std::collections::HashMap::new();
        for _ in 0..rng.gen_range(1..300) {
            let vpn = rng.gen_range(0..32);
            let gpu = rng.gen_range(0..4) as u16;
            let v = Vpn::new(vpn);
            let g = GpuId::new(gpu);
            if rng.gen_bool(0.5) {
                let res = table.unsubscribe(v, g);
                let entry = model.entry(vpn).or_default();
                if entry.contains(&gpu) && entry.len() > 1 {
                    assert!(res.is_ok());
                    entry.remove(&gpu);
                } else {
                    assert!(res.is_err());
                }
            } else {
                table.subscribe(v, g, Ppn::new(vpn));
                model.entry(vpn).or_default().insert(gpu);
            }
            // Invariant: every page that exists has >= 1 subscriber.
            if let Some(e) = table.entry(v) {
                assert!(e.subscriber_count() >= 1);
                let got: Vec<u16> = e.subscribers().map(|g| g.raw()).collect();
                let want: Vec<u16> = model[&vpn].iter().copied().collect();
                assert_eq!(got, want);
            }
        }
    }
}

/// Access bitmap: set/get matches a reference set, count matches.
#[test]
fn bitmap_matches_reference() {
    let mut rng = SmallRng::seed_from_u64(16);
    for _ in 0..50 {
        let base = rng.gen_range(0..1000);
        let pages = rng.gen_range(1..300);
        let mut bm = AccessBitmap::new(Vpn::new(base), pages);
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..rng.gen_range(0..200) {
            let t = rng.gen_range(0..1500);
            bm.set(Vpn::new(t));
            if t >= base && t < base + pages {
                model.insert(t);
            }
        }
        assert_eq!(bm.count_set(), model.len() as u64);
        let got: Vec<u64> = bm.iter_set().map(|v| v.as_u64()).collect();
        let want: Vec<u64> = model.iter().copied().collect();
        assert_eq!(got, want);
        assert_eq!(bm.iter_clear().count() as u64, pages - model.len() as u64);
    }
}

/// UM residency: exactly one owner at all times; a writer always ends up
/// owning the page; readable_by(owner) always holds.
#[test]
fn residency_owner_is_unique_and_writers_own() {
    let mut rng = SmallRng::seed_from_u64(17);
    for _ in 0..30 {
        let mut m = ResidencyMap::new();
        for _ in 0..rng.gen_range(1..200) {
            let v = Vpn::new(rng.gen_range(0..16));
            let g = GpuId::new(rng.gen_range(0..4) as u16);
            if rng.gen_bool(0.5) {
                m.write(v, g);
                assert_eq!(m.state(v).unwrap().owner, g);
            } else {
                m.read_migrate(v, g);
                assert!(m.state(v).unwrap().readable_by(g));
            }
            let s = m.state(v).unwrap();
            assert!(s.readable_by(s.owner));
            // Owner never appears in its own reader list.
            assert!(!s.readers.contains(&s.owner));
        }
    }
}

fn disjoint(a: &gps_mem::VaRange, b: &gps_mem::VaRange) -> bool {
    a.end() <= b.base() || b.end() <= a.base()
}

#[test]
fn va_range_at_is_inside() {
    let mut space = VaSpace::new(PageSize::Standard64K);
    let r = space.allocate(100).unwrap();
    assert!(r.contains(r.at(0)));
    assert!(r.contains(r.at(r.bytes() - 1)));
    assert!(!r.contains(VirtAddr::new(r.end().as_u64())));
}

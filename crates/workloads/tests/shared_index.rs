//! The page-indexed `SharedIndex` classifies lines exactly as a sorted
//! interval search over the allocations does, for every app of the suite
//! at every page size.

use gps_sim::Workload;
use gps_types::{LineAddr, PageSize};
use gps_workloads::{suite, ScaleProfile};

/// Line intervals `(first, end, alloc index, shared)` sorted by first line,
/// searched by bisection: the classifier the page table replaced.
struct Intervals(Vec<(u64, u64, usize, bool)>);

impl Intervals {
    fn new(wl: &Workload) -> Self {
        let mut spans: Vec<_> = wl
            .allocs
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let first = a.range.base().line().as_u64();
                (first, first + a.range.lines(), i, a.shared)
            })
            .collect();
        spans.sort_unstable_by_key(|s| s.0);
        Self(spans)
    }

    fn find(&self, line: LineAddr) -> Option<(usize, bool)> {
        let l = line.as_u64();
        let i = self.0.partition_point(|s| s.0 <= l).checked_sub(1)?;
        let (_, end, alloc, shared) = self.0[i];
        (l < end).then_some((alloc, shared))
    }
}

#[test]
fn page_table_agrees_with_interval_search_on_every_app() {
    for app in suite::all() {
        for page_size in PageSize::ALL {
            let wl = (app.build_paged)(4, ScaleProfile::Tiny, page_size);
            let index = wl.index();
            assert!(!wl.allocs.is_empty(), "{} allocates nothing", app.name);
            let reference = Intervals::new(&wl);
            let per_page = page_size.lines();
            for a in &wl.allocs {
                let first = a.range.base().line().as_u64();
                let last = first + a.range.lines() - 1;
                // Each end of the allocation from both sides, a page
                // boundary inside it and its middle line.
                let probes = [
                    first.saturating_sub(1),
                    first,
                    first + 1,
                    (first + per_page - 1).min(last),
                    (first + per_page).min(last),
                    first + (last - first) / 2,
                    last - 1,
                    last,
                    last + 1,
                ];
                for line in probes.map(LineAddr::new) {
                    let want = reference.find(line);
                    let ctx = format!("{} {page_size:?} {} {line:?}", app.name, a.name);
                    assert_eq!(index.alloc_of(line), want.map(|w| w.0), "{ctx}");
                    assert_eq!(index.is_shared(line), want.is_some_and(|w| w.1), "{ctx}");
                    assert_eq!(
                        index.is_shared_page(line.vpn(page_size)),
                        want.is_some_and(|w| w.1),
                        "{ctx}"
                    );
                }
            }
        }
    }
}

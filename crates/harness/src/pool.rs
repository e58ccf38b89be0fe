//! A work-stealing worker pool with per-job panic isolation.
//!
//! Workers are scoped OS threads ([`std::thread::scope`]) pulling job
//! indices from a shared atomic counter — the classic self-scheduling
//! loop, so a slow simulation never leaves siblings idle behind a static
//! partition. Each job attempt runs under [`std::panic::catch_unwind`]:
//! a panicking configuration is retried a bounded number of times and then
//! *quarantined* — reported as a failed result — instead of poisoning the
//! pool or killing the sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The outcome of one job after retries.
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult<T> {
    /// The job produced a value on attempt number `attempts` (1-based).
    Ok {
        /// The job's output.
        value: T,
        /// Attempts consumed (1 = first try).
        attempts: u32,
    },
    /// Every attempt panicked; the job is quarantined.
    Quarantined {
        /// Attempts consumed (retries exhausted).
        attempts: u32,
        /// Panic payload of the last attempt, stringified.
        error: String,
    },
}

impl<T> JobResult<T> {
    /// The value, if the job succeeded.
    pub fn ok(self) -> Option<T> {
        match self {
            JobResult::Ok { value, .. } => Some(value),
            JobResult::Quarantined { .. } => None,
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `job` once per item on `workers` threads, retrying each panicking
/// item up to `retries` extra times before quarantining it.
///
/// Results are returned in item order regardless of completion order, so
/// the output is independent of the worker count — the determinism the
/// sweep tests pin down. `on_complete` fires once per finished item (from
/// worker threads, in completion order) for progress display and
/// incremental persistence; it must be `Sync`.
///
/// Panics *of the job* are isolated; a panic in `on_complete` itself is a
/// harness bug and propagates.
pub fn run_jobs<I, T, F, C>(
    items: &[I],
    workers: usize,
    retries: u32,
    job: F,
    on_complete: C,
) -> Vec<JobResult<T>>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
    C: Fn(usize, &JobResult<T>) + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // gps-lint: allow(relaxed_atomic_ordering) -- pure work-claim counter: only claim uniqueness matters, each result lands in its own slot
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // gps-lint: allow(no_slice_index) -- i < n checked by the break above
                let item = &items[i];
                let mut attempts = 0u32;
                let result = loop {
                    attempts += 1;
                    match catch_unwind(AssertUnwindSafe(|| job(item))) {
                        Ok(value) => break JobResult::Ok { value, attempts },
                        Err(payload) => {
                            if attempts > retries {
                                break JobResult::Quarantined {
                                    attempts,
                                    error: panic_message(payload),
                                };
                            }
                        }
                    }
                };
                on_complete(i, &result);
                // Slot writes happen under catch_unwind, so the mutex can only
                // be poisoned by a panic in on_complete — which already aborts
                // the run; unwinding again is the right response.
                // gps-lint: allow(no_slice_index, no_expect) -- i < n checked above; poison implies a prior panic
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                // gps-lint: allow(no_expect) -- poison implies a prior panic that already failed the run
                .expect("result slot poisoned")
                // gps-lint: allow(no_expect) -- the scope joined every worker; all n indices were claimed
                .expect("every job ran")
        })
        .collect()
}

/// Runs `jobs` closures in parallel (self-scheduled across the host's
/// available parallelism) and returns the results in order.
///
/// This is the simple fire-and-collect entry point the figure harness
/// uses; panics propagate (a figure cannot be rendered from partial data).
pub fn parallel_map<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    // The guard drops before the job runs, so a panicking job never
    // poisons its slot; `run_jobs` hands each index to exactly one worker.
    let run = |job: &Mutex<Option<F>>| job.lock().ok().and_then(|mut f| f.take()).map(|f| f());
    run_jobs(&jobs, parallelism, 0, run, |_, _| {})
        .into_iter()
        .map(|result| match result {
            JobResult::Ok {
                value: Some(value), ..
            } => value,
            JobResult::Ok { value: None, .. } => panic!("job claimed twice"),
            JobResult::Quarantined { error, .. } => panic!("{error}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = parallel_map(jobs);
        assert_eq!(out, (0..20usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom in job 1")]
    fn parallel_map_propagates_job_panics() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 0), Box::new(|| panic!("boom in job 1"))];
        parallel_map(jobs);
    }

    #[test]
    fn run_jobs_returns_in_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..50).collect();
        for workers in [1, 3, 8] {
            let out = run_jobs(&items, workers, 0, |&i| i * 10, |_, _| {});
            let values: Vec<u64> = out.into_iter().map(|r| r.ok().unwrap()).collect();
            assert_eq!(values, (0..50).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panicking_jobs_are_quarantined_without_killing_the_pool() {
        let items: Vec<u32> = (0..10).collect();
        let out = run_jobs(
            &items,
            4,
            2,
            |&i| {
                if i == 3 {
                    panic!("boom on {i}");
                }
                i
            },
            |_, _| {},
        );
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                match r {
                    JobResult::Quarantined { attempts, error } => {
                        assert_eq!(*attempts, 3, "1 try + 2 retries");
                        assert!(error.contains("boom on 3"));
                    }
                    other => panic!("expected quarantine, got {other:?}"),
                }
            } else {
                assert_eq!(r.clone().ok(), Some(i as u32));
            }
        }
    }

    #[test]
    fn flaky_jobs_succeed_within_retry_budget() {
        let tries = AtomicU32::new(0);
        let items = [()];
        let out = run_jobs(
            &items,
            1,
            3,
            |_| {
                if tries.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("transient");
                }
                7u32
            },
            |_, _| {},
        );
        match &out[0] {
            JobResult::Ok { value, attempts } => {
                assert_eq!(*value, 7);
                assert_eq!(*attempts, 3);
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn on_complete_fires_once_per_item() {
        let count = AtomicU32::new(0);
        let items: Vec<u32> = (0..17).collect();
        run_jobs(
            &items,
            4,
            0,
            |&i| i,
            |_, _| {
                count.fetch_add(1, Ordering::SeqCst);
            },
        );
        assert_eq!(count.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn empty_job_set_is_fine() {
        let out: Vec<JobResult<u32>> = run_jobs(&[] as &[u32], 4, 1, |&i| i, |_, _| {});
        assert!(out.is_empty());
    }
}

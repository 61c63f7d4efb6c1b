//! Index-ordered fan-out over scoped threads — the workspace's single
//! parallel execution engine (vendored shim culture: no crates.io, no
//! rayon).
//!
//! # Model
//!
//! [`ThreadPool::map_indexed`] runs `f(0..n)` on `min(threads, n)`
//! claimers: the calling thread plus `min(threads, n) − 1` helper
//! threads spawned under [`std::thread::scope`] for that one call. Every
//! claimer takes the next unclaimed index from one shared counter until
//! none is left, so a claimer that finishes early simply claims more.
//! `threads` therefore counts every thread that runs tasks, caller
//! included; width 1 runs every index on the caller, in order.
//!
//! # Determinism contract
//!
//! Results come back in index order whichever claimer ran which index,
//! and the pool offers no reduction of its own. A task that is a pure
//! function of its index (plus shared read-only state) therefore yields
//! the same vector at every width: scheduling chooses only *when* a task
//! runs, never what it computes or how results combine.
//!
//! # Panics
//!
//! A panic in a task is caught for that index; every other index still
//! runs, and then the panic of the lowest panicking index is re-raised
//! on the caller.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread;

/// Aggregate pool counters (see [`ThreadPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Claimers per fan-out, caller included.
    pub threads: usize,
    /// Tasks run since the pool was created, panicked ones included.
    pub executed: u64,
    /// Always 0: claimers share one index counter and never steal. Kept
    /// because the end-to-end benchmark reads it.
    pub stolen: u64,
}

/// A fan-out width plus its task counter. Cheap to clone; clones share
/// the counter. Holds no threads between calls.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
    executed: Arc<AtomicU64>,
}

impl ThreadPool {
    /// A pool of `threads` claimers, caller included (0 is clamped to 1).
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool {
            threads: threads.max(1),
            executed: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Claimers per fan-out, caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Counters since pool creation, shared by every clone.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            executed: self.executed.load(Ordering::Relaxed),
            stolen: 0,
        }
    }

    /// Runs `f`. Nothing on the calling thread resolves a pool
    /// implicitly; kept because the end-to-end benchmark calls it.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Computes `f(0..n)` on `min(threads, n)` claimers and returns the
    /// results **in index order**. If any task panics, the rest still
    /// run and the lowest panicking index's payload is re-raised.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // The counter only hands out indices; results travel back
        // through `join`, which synchronizes, so `Relaxed` suffices.
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut ran = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    return ran;
                }
                ran.push((index, catch_unwind(AssertUnwindSafe(|| f(index)))));
            }
        };
        let mut ran = thread::scope(|scope| {
            let helpers: Vec<_> = (1..self.threads.min(n))
                .map(|k| {
                    thread::Builder::new()
                        .name(format!("qdn-pool-{k}"))
                        .spawn_scoped(scope, claim)
                        .expect("spawn pool helper thread")
                })
                .collect();
            let mut ran = claim();
            for helper in helpers {
                ran.extend(helper.join().expect("claimers catch task panics"));
            }
            ran
        });
        ran.sort_unstable_by_key(|&(index, _)| index);
        self.executed.fetch_add(n as u64, Ordering::Relaxed);
        let mut out = Vec::with_capacity(n);
        let mut first_panic = None;
        for (_, result) in ran {
            match result {
                Ok(value) => out.push(value),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        out
    }
}

/// The process-wide pool of width `threads` (`0` = one claimer per
/// available CPU). Every call with the same width returns a handle to
/// one shared task counter, so a reader of [`ThreadPool::stats`] sees
/// every fan-out run at that width.
pub fn global_with(threads: usize) -> ThreadPool {
    static REGISTRY: OnceLock<Mutex<Vec<ThreadPool>>> = OnceLock::new();
    let width = if threads == 0 {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };
    // The only update is one push, so a poisoned registry is still whole.
    let mut pools = REGISTRY
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(pool) = pools.iter().find(|p| p.threads == width) {
        return pool.clone();
    }
    let pool = ThreadPool::new(width);
    pools.push(pool.clone());
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn index_order_with_exactly_threads_claimers() {
        for width in [1, 2, 4] {
            for n in [0, 1, 3, 1000] {
                let pool = ThreadPool::new(width);
                let claimers = width.min(n);
                // Each of the first `claimers` tasks blocks until that
                // many threads hold one, so fewer claimers would hang
                // here. The set of thread ids bounds them from above:
                // 1000 tasks outlast the start-up of a surplus helper.
                let barrier = Barrier::new(claimers.max(1));
                let out = pool.map_indexed(n, |i| {
                    if i < claimers {
                        barrier.wait();
                    }
                    (i * i, thread::current().id())
                });
                let values: Vec<usize> = out.iter().map(|(v, _)| *v).collect();
                assert_eq!(values, (0..n).map(|i| i * i).collect::<Vec<_>>());
                let ids: HashSet<thread::ThreadId> = out.iter().map(|(_, id)| *id).collect();
                assert_eq!(ids.len(), claimers, "width {width}, n {n}");
                if n > 0 {
                    let caller = thread::current().id();
                    assert!(ids.contains(&caller), "the caller is a claimer");
                }
                let stats = pool.stats();
                assert_eq!(
                    (stats.threads, stats.executed, stats.stolen),
                    (width, n as u64, 0)
                );
            }
        }
    }

    #[test]
    fn lowest_panic_is_reraised_after_every_other_index_runs() {
        for width in [1, 2, 4] {
            let pool = ThreadPool::new(width);
            let ran = AtomicUsize::new(0);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                pool.map_indexed(8, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    assert!(i != 2 && i != 5, "boom at {i}");
                    i
                })
            }))
            .expect_err("a task panicked");
            assert_eq!(ran.load(Ordering::Relaxed), 8, "width {width}");
            assert_eq!(payload.downcast_ref::<String>().unwrap(), "boom at 2");
            assert_eq!(pool.map_indexed(3, |i| i + 1), vec![1, 2, 3]);
        }
    }

    #[test]
    fn global_with_shares_one_counter_per_width() {
        let a = global_with(3);
        let (b, other) = (global_with(3), global_with(5));
        let (before, other_before) = (b.stats().executed, other.stats().executed);
        a.map_indexed(7, |i| i);
        assert_eq!(b.stats().executed - before, 7);
        assert_eq!(other.stats().executed, other_before);
        let cpus = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(global_with(0).threads(), cpus);
    }
}

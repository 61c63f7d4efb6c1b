//! A small work-stealing thread pool — the workspace's single parallel
//! execution engine (vendored shim culture: no crates.io, no rayon).
//!
//! # Model
//!
//! A [`ThreadPool`] owns a fixed set of persistent worker threads. Each
//! worker has its own deque; tasks spawned *by* a worker go to its own
//! deque (LIFO, cache-friendly), tasks submitted from outside go to a
//! shared injector (FIFO, fair). An idle worker first drains its own
//! deque, then the injector, then steals the oldest task from another
//! worker's deque — classic work stealing, implemented under one pool
//! mutex (tasks in this workspace are whole Gibbs chains, component
//! solves, and trials: microseconds to milliseconds each, so scheduler
//! lock traffic is noise and the lock-free deque unsafety is not worth
//! buying).
//!
//! # Determinism contract
//!
//! The pool deliberately provides **no** reduction primitive of its own:
//! [`ThreadPool::map_indexed`] returns results in index order regardless
//! of execution order, and [`ThreadPool::scope`] lets callers write into
//! per-index slots. Callers reduce in fixed index order, so any result
//! computed through this pool is bit-identical at every pool width —
//! scheduling chooses only *when* a task runs, never what it computes or
//! how results combine.
//!
//! # Blocking and nesting
//!
//! A thread waiting on a [`ThreadPool::scope`] does not sleep while work
//! is queued: it *helps*, executing pending tasks (its own scope's or any
//! other's). Nested scopes from inside pool tasks therefore cannot
//! deadlock, even on a one-worker pool — the waiter runs the queue dry
//! itself before parking.

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::time::Duration;

/// A lifetime-erased queued task. Soundness of the erasure is owed by
/// [`ThreadPool::scope`]: it never returns (normally or by unwind)
/// before every task it spawned has finished running.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Scheduler state: the shared injector plus one deque per worker.
struct Sched {
    injector: VecDeque<Task>,
    locals: Vec<VecDeque<Task>>,
    shutdown: bool,
}

struct Inner {
    sched: Mutex<Sched>,
    work_cv: Condvar,
    threads: usize,
    executed: AtomicU64,
    stolen: AtomicU64,
    exited: AtomicUsize,
}

/// Owning side of a pool: dropping the last [`ThreadPool`] clone that
/// holds it signals shutdown and joins every worker.
struct PoolHandle {
    inner: Arc<Inner>,
    joins: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        lock(&self.inner.sched).shutdown = true;
        self.inner.work_cv.notify_all();
        for join in lock(&self.joins).drain(..) {
            let _ = join.join();
        }
    }
}

/// Aggregate pool counters (see [`ThreadPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker count.
    pub threads: usize,
    /// Tasks executed since pool creation (by workers and by helping
    /// scope waiters alike).
    pub executed: u64,
    /// Tasks a worker took from *another* worker's deque — the
    /// work-stealing utilization signal.
    pub stolen: u64,
}

/// The payload of a task that panicked, surfaced as an error by
/// [`ThreadPool::try_map_indexed`].
#[derive(Debug)]
pub struct TaskPanic;

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a pool task panicked")
    }
}

impl std::error::Error for TaskPanic {}

/// A work-stealing pool with persistent workers. Cheap to clone (the
/// clone shares the same workers); the workers shut down and join when
/// the last owning clone drops.
pub struct ThreadPool {
    inner: Arc<Inner>,
    /// `Some` on owning clones; `None` on the non-owning references
    /// [`current`] hands out (so a task holding one cannot deadlock a
    /// drop-join against itself).
    handle: Option<Arc<PoolHandle>>,
}

impl Clone for ThreadPool {
    fn clone(&self) -> Self {
        ThreadPool {
            inner: Arc::clone(&self.inner),
            handle: self.handle.clone(),
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.inner.threads)
            .finish()
    }
}

/// Worker identity, stored thread-locally inside worker threads.
struct WorkerId {
    inner: Weak<Inner>,
    index: usize,
}

thread_local! {
    static WORKER: RefCell<Option<WorkerId>> = const { RefCell::new(None) };
    static INSTALLED: RefCell<Vec<Weak<Inner>>> = const { RefCell::new(Vec::new()) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Tasks run outside the scheduler lock and panics are caught before
    // they can unwind through it, so poison here only means "some
    // unrelated thread died"; the state itself is consistent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ThreadPool {
    /// Spawns a pool with `threads` persistent workers (0 is clamped
    /// to 1).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            sched: Mutex::new(Sched {
                injector: VecDeque::new(),
                locals: (0..threads).map(|_| VecDeque::new()).collect(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            threads,
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            exited: AtomicUsize::new(0),
        });
        let joins = (0..threads)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("qdn-pool-{index}"))
                    .spawn(move || worker_loop(&inner, index))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            handle: Some(Arc::new(PoolHandle {
                inner: Arc::clone(&inner),
                joins: Mutex::new(joins),
            })),
            inner,
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Aggregate execution counters since pool creation.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.inner.threads,
            executed: self.inner.executed.load(Ordering::Relaxed),
            stolen: self.inner.stolen.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` with this pool as the calling thread's current pool:
    /// within `f` (on this thread), [`current`] resolves here, so nested
    /// parallel stages use these workers. Tasks running *on* the pool
    /// already resolve to their own pool without an install.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        INSTALLED.with(|st| st.borrow_mut().push(Arc::downgrade(&self.inner)));
        struct Uninstall;
        impl Drop for Uninstall {
            fn drop(&mut self) {
                INSTALLED.with(|st| {
                    st.borrow_mut().pop();
                });
            }
        }
        let _guard = Uninstall;
        f()
    }

    /// Structured fork/join: tasks spawned on the [`Scope`] may borrow
    /// anything outliving the call (`'env`); `scope` does not return
    /// until every spawned task has finished. A panicking task is
    /// re-raised here, after the remaining tasks drain — never a hang.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            pending: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            scope_marker: PhantomData,
            env_marker: PhantomData,
        };
        // The body may panic after spawning; the spawned tasks still
        // borrow `'env`, so they must complete before the unwind
        // continues past this frame.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.help_until_done(&state);
        let task_panic = lock(&state.panic).take();
        match (result, task_panic) {
            (Err(body), _) => resume_unwind(body),
            (_, Some(task)) => resume_unwind(task),
            (Ok(r), None) => r,
        }
    }

    /// Parallel indexed map: computes `f(0..n)` on the pool and returns
    /// the results **in index order** — the deterministic-reduction
    /// primitive every parallel stage in this workspace is built on.
    /// Panics if `f` panics (first panic wins; the rest still run).
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // Width-1 fast path: with no sibling to steal from, task boxing
        // and scheduler lock traffic buy nothing — run inline in index
        // order (bit-identical by the determinism contract). `install`
        // keeps `current()` resolving to this pool for nested stages,
        // and panic semantics match the pooled path: first panic wins,
        // the remaining tasks still run.
        if self.threads() == 1 {
            return self.install(|| {
                let mut first_panic = None;
                let mut out = Vec::with_capacity(n);
                for index in 0..n {
                    match catch_unwind(AssertUnwindSafe(|| f(index))) {
                        Ok(value) => out.push(value),
                        Err(payload) => {
                            first_panic.get_or_insert(payload);
                        }
                    }
                }
                self.inner.executed.fetch_add(n as u64, Ordering::Relaxed);
                if let Some(payload) = first_panic {
                    resume_unwind(payload);
                }
                out
            });
        }
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        self.scope(|scope| {
            for (index, slot) in slots.iter_mut().enumerate() {
                let f = &f;
                scope.spawn(move || {
                    *slot = Some(f(index));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("scope ran every task"))
            .collect()
    }

    /// [`ThreadPool::map_indexed`], but a panicking task surfaces as
    /// `Err(TaskPanic)` instead of propagating the unwind.
    pub fn try_map_indexed<T, F>(&self, n: usize, f: F) -> Result<Vec<T>, TaskPanic>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        catch_unwind(AssertUnwindSafe(|| self.map_indexed(n, &f))).map_err(|_| TaskPanic)
    }

    /// Runs `a` on the pool and `b` inline, returning both results.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        RA: Send,
        B: FnOnce() -> RB,
    {
        let mut ra = None;
        let rb = self.scope(|scope| {
            scope.spawn(|| {
                ra = Some(a());
            });
            b()
        });
        (ra.expect("scope ran the spawned half"), rb)
    }

    /// Enqueues an erased task: a worker pushes to its own deque (when
    /// the worker belongs to *this* pool), anything else to the
    /// injector.
    fn push_task(&self, task: Task) {
        let own_index = WORKER.with(|w| {
            w.borrow()
                .as_ref()
                .and_then(|id| (id.inner.as_ptr() == Arc::as_ptr(&self.inner)).then_some(id.index))
        });
        {
            let mut sched = lock(&self.inner.sched);
            match own_index {
                Some(i) => sched.locals[i].push_back(task),
                None => sched.injector.push_back(task),
            }
        }
        self.inner.work_cv.notify_one();
    }

    /// Help-first wait: executes queued tasks (any scope's) until
    /// `state.pending` reaches zero, parking only when the queues are
    /// dry. The short park timeout re-arms helping when tasks appear
    /// while this thread slept — cheap insurance against lost-wakeup
    /// orderings between the scope and scheduler locks.
    fn help_until_done(&self, state: &ScopeState) {
        let my_index = WORKER.with(|w| {
            w.borrow()
                .as_ref()
                .and_then(|id| (id.inner.as_ptr() == Arc::as_ptr(&self.inner)).then_some(id.index))
        });
        loop {
            if *lock(&state.pending) == 0 {
                return;
            }
            let task = take_task(&mut lock(&self.inner.sched), my_index, &self.inner);
            if let Some(task) = task {
                // Counted before running: the task's last act releases
                // its scope, so a count taken afterwards could land after
                // the scope owner has already read the stats.
                self.inner.executed.fetch_add(1, Ordering::Relaxed);
                if my_index.is_some() {
                    task();
                } else {
                    // A non-worker helper (the thread that called
                    // `scope` from outside the pool) must still count as
                    // "inside" the pool while it runs the task, so that
                    // `current()` in nested stages resolves here and not
                    // to the global pool.
                    self.install(task);
                }
                continue;
            }
            let pending = lock(&state.pending);
            if *pending == 0 {
                return;
            }
            let (pending, _) = state
                .done_cv
                .wait_timeout(pending, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner);
            if *pending == 0 {
                return;
            }
        }
    }

    #[cfg(test)]
    fn exited_workers(&self) -> Arc<Inner> {
        Arc::clone(&self.inner)
    }
}

/// Per-scope completion state, shared by the scope waiter and its tasks.
struct ScopeState {
    pending: Mutex<usize>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// Handle for spawning borrowing tasks inside [`ThreadPool::scope`].
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope ThreadPool,
    state: Arc<ScopeState>,
    scope_marker: PhantomData<&'scope mut &'scope ()>,
    env_marker: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from `'env`. Panics inside the task
    /// are caught and re-raised by the owning `scope` call.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        *lock(&self.state.pending) += 1;
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                lock(&state.panic).get_or_insert(payload);
            }
            let mut pending = lock(&state.pending);
            *pending -= 1;
            if *pending == 0 {
                state.done_cv.notify_all();
            }
        });
        // SAFETY: the task's borrows live at least `'env`; `scope` (and
        // its unwind path) blocks until `pending == 0`, i.e. until this
        // closure has run to completion, so the erased lifetime is never
        // outlived. This is the same argument std::thread::scope makes.
        #[allow(unsafe_code)]
        let task: Task = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(task)
        };
        self.pool.push_task(task);
    }
}

/// Pops a task: own deque first (newest first), then the injector
/// (oldest first), then steal the oldest task from another worker.
fn take_task(sched: &mut Sched, my_index: Option<usize>, inner: &Inner) -> Option<Task> {
    if let Some(i) = my_index {
        if let Some(task) = sched.locals[i].pop_back() {
            return Some(task);
        }
    }
    if let Some(task) = sched.injector.pop_front() {
        return Some(task);
    }
    let n = sched.locals.len();
    let start = my_index.map_or(0, |i| i + 1);
    for k in 0..n {
        let victim = (start + k) % n;
        if Some(victim) == my_index {
            continue;
        }
        if let Some(task) = sched.locals[victim].pop_front() {
            if my_index.is_some() {
                inner.stolen.fetch_add(1, Ordering::Relaxed);
            }
            return Some(task);
        }
    }
    None
}

fn worker_loop(inner: &Arc<Inner>, index: usize) {
    WORKER.with(|w| {
        *w.borrow_mut() = Some(WorkerId {
            inner: Arc::downgrade(inner),
            index,
        });
    });
    loop {
        let task = {
            let mut sched = lock(&inner.sched);
            loop {
                if let Some(task) = take_task(&mut sched, Some(index), inner) {
                    break Some(task);
                }
                if sched.shutdown {
                    break None;
                }
                sched = inner
                    .work_cv
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(task) = task else { break };
        // Counted before running, as in `help_until_done`.
        inner.executed.fetch_add(1, Ordering::Relaxed);
        task();
    }
    inner.exited.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// Current-pool resolution and the global registry
// ---------------------------------------------------------------------

/// One worker per available core (the `threads = 0` meaning in configs).
pub fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Process-wide pools keyed by width, created on first use and kept for
/// the process lifetime. `threads == 0` means [`auto_threads`]. Configs
/// with a `threads` field resolve through here, so every engine in the
/// process with the same width shares one set of workers.
pub fn global_with(threads: usize) -> ThreadPool {
    static REGISTRY: OnceLock<Mutex<Vec<(usize, ThreadPool)>>> = OnceLock::new();
    let width = if threads == 0 {
        auto_threads()
    } else {
        threads
    };
    let registry = REGISTRY.get_or_init(|| Mutex::new(Vec::new()));
    let mut pools = lock(registry);
    if let Some((_, pool)) = pools.iter().find(|(w, _)| *w == width) {
        return pool.clone();
    }
    let pool = ThreadPool::new(width);
    pools.push((width, pool.clone()));
    pool
}

/// The calling context's pool: a worker thread resolves to its own pool,
/// a thread inside [`ThreadPool::install`] to the installed pool, and
/// anything else to the auto-width global pool. The returned handle is
/// non-owning for the first two cases — dropping it never joins workers.
pub fn current() -> ThreadPool {
    let own = WORKER.with(|w| {
        w.borrow()
            .as_ref()
            .and_then(|id| id.inner.upgrade())
            .map(|inner| ThreadPool {
                inner,
                handle: None,
            })
    });
    if let Some(pool) = own {
        return pool;
    }
    let installed = INSTALLED.with(|st| {
        st.borrow()
            .iter()
            .rev()
            .find_map(Weak::upgrade)
            .map(|inner| ThreadPool {
                inner,
                handle: None,
            })
    });
    if let Some(pool) = installed {
        return pool;
    }
    global_with(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn map_indexed_returns_in_index_order() {
        let pool = ThreadPool::new(4);
        let out = pool.map_indexed(64, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn results_identical_across_pool_widths() {
        let reference: Vec<u64> = (0..40u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        for width in [1, 2, 4] {
            let pool = ThreadPool::new(width);
            let got = pool.map_indexed(40, |i| (i as u64).wrapping_mul(0x9E37_79B9));
            assert_eq!(got, reference, "width {width}");
        }
    }

    #[test]
    fn work_stealing_under_skewed_task_sizes() {
        // One worker spawns many small children into its own deque and
        // then holds its thread (maximal skew: one long task, 64 short
        // ones) until every child has run; the scope owner does the
        // same. Neither can execute a child, so the remaining workers
        // must steal all 64.
        let pool = ThreadPool::new(4);
        let done = AtomicU32::new(0);
        pool.scope(|outer| {
            outer.spawn(|| {
                // Runs on some worker; nested spawns land in that
                // worker's local deque.
                current().scope(|inner_scope| {
                    for _ in 0..64 {
                        inner_scope.spawn(|| {
                            done.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    while done.load(Ordering::Relaxed) < 64 {
                        std::thread::yield_now();
                    }
                });
            });
            while done.load(Ordering::Relaxed) < 64 {
                std::thread::yield_now();
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 64);
        let stats = pool.stats();
        assert!(stats.executed >= 65, "executed {}", stats.executed);
        assert!(
            stats.stolen >= 64,
            "expected every child stolen under skew, stats {stats:?}"
        );
    }

    #[test]
    fn width_one_inline_path_keeps_the_contract() {
        // The inline fast path must be indistinguishable from the
        // pooled one: index order, `current()` resolution, executed
        // accounting, and run-the-rest-then-panic semantics.
        let pool = ThreadPool::new(1);
        let out = pool.map_indexed(16, |i| {
            assert_eq!(current().threads(), 1);
            i * 3
        });
        assert_eq!(out, (0..16).map(|i| i * 3).collect::<Vec<_>>());
        assert!(pool.stats().executed >= 16);
        let ran = AtomicU32::new(0);
        let result = pool.try_map_indexed(8, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert!(i != 2, "boom at {i}");
            i
        });
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 8, "remaining tasks still run");
        assert_eq!(pool.map_indexed(3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn panic_in_task_surfaces_as_err_not_a_hang() {
        let pool = ThreadPool::new(2);
        let result = pool.try_map_indexed(8, |i| {
            assert!(i != 5, "boom at {i}");
            i
        });
        assert!(result.is_err());
        // The pool survives and keeps scheduling.
        assert_eq!(pool.map_indexed(4, |i| i + 1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn scope_body_panic_still_drains_tasks() {
        let pool = ThreadPool::new(2);
        let ran = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                for _ in 0..16 {
                    scope.spawn(|| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("body panics after spawning");
            });
        }));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 16, "tasks drained first");
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = ThreadPool::new(3);
        let _ = pool.map_indexed(8, |i| i);
        let probe = pool.exited_workers();
        drop(pool);
        assert_eq!(probe.exited.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn nested_scopes_on_one_worker_do_not_deadlock() {
        let pool = ThreadPool::new(1);
        let total: usize = pool
            .map_indexed(4, |i| {
                let inner: Vec<usize> = current().map_indexed(4, move |j| i * 4 + j);
                inner.into_iter().sum::<usize>()
            })
            .into_iter()
            .sum();
        assert_eq!(total, (0..16).sum());
    }

    #[test]
    fn join_runs_both_sides() {
        let pool = ThreadPool::new(2);
        let (a, b) = pool.join(|| 2 + 2, || "inline");
        assert_eq!((a, b), (4, "inline"));
    }

    #[test]
    fn install_scopes_current_to_the_pool() {
        let pool = ThreadPool::new(2);
        let outside = current().threads();
        let inside = pool.install(|| current().threads());
        assert_eq!(inside, 2);
        // Restored after install returns.
        assert_eq!(current().threads(), outside);
    }

    #[test]
    fn current_on_a_worker_is_its_own_pool() {
        let pool = ThreadPool::new(3);
        let widths = pool.map_indexed(6, |_| current().threads());
        assert!(widths.iter().all(|&w| w == 3), "{widths:?}");
    }

    #[test]
    fn global_registry_reuses_by_width() {
        let a = global_with(2);
        let b = global_with(2);
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        let c = global_with(3);
        assert!(!Arc::ptr_eq(&a.inner, &c.inner));
        assert_eq!(global_with(0).threads(), auto_threads());
    }
}

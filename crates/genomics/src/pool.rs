//! The thread pool behind `--runThreadN`: persistent workers, one pool per thread
//! count for the whole process ([`Pool::shared`]), and one blocking call
//! ([`Pool::fill`]).
//!
//! # Protocol
//!
//! A pool of `n` threads owns `n - 1` persistent OS workers; the thread that calls
//! [`Pool::fill`] is the `n`-th. A call over `len` indices becomes one `Job` on the
//! caller's stack. The caller publishes a pointer to it under the pool mutex, wakes
//! the workers, and then claims chunks itself; every participant takes the next
//! `chunk` indices from one atomic counter until none are left (items differ in cost,
//! so there is no static split). When the caller runs out of chunks it retracts the
//! job and blocks until the last worker that entered it has left — only then does the
//! call return, which is what lets the job borrow the caller's stack. Both waits
//! (a worker's for the next job, the caller's for the last worker) poll the pool
//! state for some tens of microseconds, yielding between polls, before they park on
//! a condition variable: alignment batches follow each other within microseconds,
//! and a futex sleep plus wake-up per batch would cost a small batch its speed-up.
//!
//! Slot `i` of the output receives `f(i)`, a pure function of `i`, so output order
//! equals input order whatever the schedule, and a one-thread pool, a busy pool and
//! an eight-thread pool produce identical values.
//!
//! A call runs alone on the calling thread when the pool has one thread, when there
//! are fewer than two items, or when the pool is already running a job — another
//! caller's, or this one's when the call is nested inside a job (concurrent callers
//! share the pool without ever waiting on each other, so they cannot deadlock). A
//! panic in `f` stops further claims, is re-raised on the caller once every
//! participant has left the job, and leaves the pool usable.

use std::any::Any;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Chunks per participating thread a job is cut into: small enough that the slowest
/// chunk bounds the idle tail at a few percent, large enough to amortise the claim.
const CHUNKS_PER_THREAD: usize = 8;
/// Upper bound on a chunk, so long cheap loops still balance.
const MAX_CHUNK: usize = 1024;

/// Polls (one `yield_now` each) a waiting thread makes before it parks: some tens of
/// microseconds on an idle core, and a yielded time slice each on a busy one.
const POLLS_BEFORE_PARKING: usize = 64;

/// OS worker threads spawned by every pool in this process so far.
static WORKERS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// How many pool worker threads this process has spawned so far. Diagnostic: a
/// value that stays put across runs shows they reused threads.
pub fn workers_spawned() -> usize {
    WORKERS_SPAWNED.load(Ordering::Relaxed)
}

/// One parallel call: `body` is to run once on each chunk of `0..len`.
struct Job<'a> {
    body: &'a (dyn Fn(Range<usize>) + Sync),
    len: usize,
    chunk: usize,
    /// First index nobody has claimed. `Relaxed` everywhere: it publishes no data —
    /// what `body` reads was published by the pool mutex when the job was posted, and
    /// what it writes is published by the same mutex when a worker leaves.
    next: AtomicUsize,
    /// Payload of the first panic raised by `body`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claim and run chunks until none are left. Never unwinds: a panic in `body` is
    /// parked in `self.panic` and ends everybody's claiming.
    fn work(&self) {
        let claimed = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.len {
                break;
            }
            (self.body)(start..(start + self.chunk).min(self.len));
        }));
        if let Err(payload) = claimed {
            self.next.store(self.len, Ordering::Relaxed);
            self.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    }
}

/// A published job with its lifetime erased; see the SAFETY argument in
/// [`Pool::run`] for why workers may dereference it.
#[derive(Clone, Copy)]
struct JobPtr(*const Job<'static>);

// SAFETY: the pointer is only a `&Job` in disguise, and `Job` is `Sync` (its body is
// `Sync`, the rest is atomics and a mutex), so handing it to another thread is what
// sharing `&Job` would be.
unsafe impl Send for JobPtr {}

struct State {
    /// The job workers may enter; `None` between jobs and from the moment its caller
    /// has run out of chunks.
    job: Option<JobPtr>,
    /// Bumped per job, so a worker that has left a job does not enter it again.
    epoch: u64,
    /// Workers that entered the current job and have not left it yet.
    inside: usize,
    /// Set only when building the pool failed part-way: its workers exit.
    shutdown: bool,
}

/// A pool of `n` threads: `n - 1` persistent workers plus whichever thread calls in.
/// Pools are built by [`Pool::shared`] and live as long as the process.
pub struct Pool {
    threads: usize,
    state: Mutex<State>,
    /// Workers park here between jobs.
    job_posted: Condvar,
    /// A job's caller parks here until `inside` is back to zero.
    workers_left: Condvar,
}

/// The output slice of a [`Pool::fill`], shared by its participants.
struct Slots<T>(*mut T);

// SAFETY: `fill` hands each index to exactly one participant, so the threads sharing
// a `Slots` write disjoint elements — what sending one `&mut T` per element to
// another thread would allow, which needs `T: Send`.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// Pointer to element `i`. A method rather than a field read, so the closure in
    /// `fill` captures the whole (`Sync`) `Slots` and not its raw pointer.
    fn at(&self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

impl Pool {
    /// The process-wide pool of `threads` threads, built with its workers on first
    /// use. Building one spawns OS threads — doing that per run wastes startup time
    /// and discards the per-thread scratch the workers have warmed up — so every
    /// caller asking for the same count shares one pool. A count of 0 behaves as 1.
    /// Fails only when the OS refuses a worker; the workers already started then
    /// exit, and the next call tries again.
    pub fn shared(threads: usize) -> std::io::Result<Arc<Pool>> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<Pool>>>> = OnceLock::new();
        // Poisoning is ignored: no user code runs under this lock, and the map only
        // ever holds fully built pools.
        let mut pools = POOLS.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pool) = pools.get(&threads) {
            return Ok(Arc::clone(pool));
        }
        let pool = Arc::new(Pool {
            threads,
            state: Mutex::new(State { job: None, epoch: 0, inside: 0, shutdown: false }),
            job_posted: Condvar::new(),
            workers_left: Condvar::new(),
        });
        let mut workers = Vec::new();
        for i in 1..threads {
            let shared = Arc::clone(&pool);
            let spawned = std::thread::Builder::new()
                .name(format!("pool{threads}-{i}"))
                .spawn(move || shared.worker_loop());
            match spawned {
                Ok(worker) => workers.push(worker),
                Err(e) => {
                    pool.lock().shutdown = true;
                    pool.job_posted.notify_all();
                    for worker in workers {
                        // A worker cannot panic (`Job::work` catches): nothing to report.
                        let _ = worker.join();
                    }
                    return Err(e);
                }
            }
            WORKERS_SPAWNED.fetch_add(1, Ordering::Relaxed);
        }
        // The handles are dropped, detaching the workers: the pool lives as long as
        // the process, and a worker has no panic to report.
        pools.insert(threads, Arc::clone(&pool));
        Ok(pool)
    }

    /// Set `out[i] = f(i)` for every index, in parallel on this pool and the calling
    /// thread. If `f` panics the panic is re-raised here; every slot then holds
    /// either its old value or its new one.
    pub fn fill<T: Send>(&self, out: &mut [T], f: impl Fn(usize) -> T + Sync) {
        let len = out.len();
        let slots = Slots(out.as_mut_ptr());
        self.run(len, &|range| {
            for i in range {
                let value = f(i);
                // SAFETY: `run` covers each index of `0..len` at most once, so no two
                // participants touch this element, and `out`, borrowed mutably for
                // the whole call, outlives every participant (`run` returns only once
                // all have left). `i < len` keeps the write inside the slice.
                unsafe { *slots.at(i) = value };
            }
        });
    }

    /// The state lock. Poisoning is ignored: no user code runs under this lock and
    /// every update is a single field store, so the state is valid at every step.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `body` once on each chunk of a partition of `0..len`, on this pool's
    /// workers and the calling thread. Every index is covered at most once, and
    /// exactly once unless `body` panics (the panic is then re-raised here).
    fn run(&self, len: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
        if len < 2 || self.threads <= 1 {
            return body(0..len);
        }
        // `next` overshoots `len` by at most one chunk per participant; this keeps
        // that sum from wrapping, which would hand an index out twice.
        assert!(len <= isize::MAX as usize, "parallel call over more than isize::MAX items");
        let mut state = self.lock();
        if state.job.is_some() || state.inside > 0 {
            // Another caller's job is on the pool (or this is a call nested in our
            // own): do not wait for it, run alone.
            drop(state);
            return body(0..len);
        }
        let job = Job {
            body,
            len,
            chunk: (len / (self.threads * CHUNKS_PER_THREAD)).clamp(1, MAX_CHUNK),
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        // SAFETY: this erases the job's lifetime so the pointer can sit in the pool's
        // state; it is sound because no worker dereferences it after this function
        // returns. A worker dereferences the pointer only between incrementing and
        // decrementing `inside`, and does both under the state lock, the increment
        // only while `state.job` still holds the pointer. `Retract::drop` below runs
        // on every path out of this function once the pointer is published — normal
        // return or unwinding; nothing between the publication and the guard's
        // construction can unwind — and under that same lock first clears
        // `state.job` (no worker can enter any more) and then waits for
        // `inside == 0` (every worker that entered has left). `job`, and everything
        // `body` borrows, is declared before the guard and so outlives that wait.
        let erased = JobPtr(unsafe { std::mem::transmute::<*const Job<'_>, *const Job<'static>>(&job) });
        struct Retract<'p>(&'p Pool);
        impl Drop for Retract<'_> {
            fn drop(&mut self) {
                let mut state = self.0.lock();
                state.job = None;
                drop(self.0.wait_until(state, &self.0.workers_left, |s| s.inside == 0));
            }
        }
        state.job = Some(erased);
        state.epoch += 1;
        drop(state);
        let retract = Retract(self);
        self.job_posted.notify_all();
        job.work();
        drop(retract);
        if let Some(payload) = job.panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
            panic::resume_unwind(payload);
        }
    }

    /// Block until `ready(state)`. What is waited for — the next batch, the last
    /// worker leaving — is usually microseconds away, less than a futex sleep and
    /// wake-up cost, so poll the state for a bounded while before parking on `parked`.
    /// Polls yield rather than spin, so an oversubscribed pool's waiters hand their
    /// core to the threads that still have work.
    fn wait_until<'s>(
        &'s self,
        mut state: MutexGuard<'s, State>,
        parked: &Condvar,
        ready: impl Fn(&State) -> bool,
    ) -> MutexGuard<'s, State> {
        let mut polls = 0;
        while !ready(&state) {
            if polls < POLLS_BEFORE_PARKING {
                polls += 1;
                drop(state);
                std::thread::yield_now();
                state = self.lock();
            } else {
                state = parked.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        }
        state
    }

    fn worker_loop(&self) {
        let mut seen = 0u64;
        let mut state = self.lock();
        loop {
            state = self.wait_until(state, &self.job_posted, |s| {
                s.shutdown || (s.job.is_some() && s.epoch != seen)
            });
            let Some(job) = state.job.filter(|_| !state.shutdown) else {
                return;
            };
            seen = state.epoch;
            state.inside += 1;
            drop(state);
            // SAFETY: `inside` was incremented under the lock while `state.job` held
            // this pointer, so the job's caller is still inside `Pool::run` and stays
            // there until the decrement below (see the argument there). `work` does
            // not unwind.
            unsafe { (*job.0).work() };
            state = self.lock();
            state.inside -= 1;
            if state.inside == 0 {
                self.workers_left.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! Pools are shared per thread count across this test binary, so a test that
    //! needs a pool to itself — one that asserts the pool is idle or needs its
    //! workers to join — uses a count no other test uses: 5, 6 and 7 are taken.

    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn pool(threads: usize) -> Arc<Pool> {
        Pool::shared(threads).unwrap()
    }

    /// The registry builds a pool once per count, with `threads - 1` workers.
    #[test]
    fn shared_pools_are_built_once_per_thread_count() {
        let before = workers_spawned();
        let first = pool(7);
        assert!(workers_spawned() >= before + 6);
        assert!(Arc::ptr_eq(&first, &pool(7)));
        assert_eq!(first.threads, 7);
    }

    /// Below two items, and on a one-thread pool, the call never leaves the caller.
    #[test]
    fn one_thread_pool_fills_on_the_caller() {
        let caller = std::thread::current().id();
        let mut ids = vec![None; 100];
        pool(1).fill(&mut ids, |_| Some(std::thread::current().id()));
        assert!(ids.iter().all(|&id| id == Some(caller)));
        let mut one = [None];
        pool(8).fill(&mut one, |_| Some(std::thread::current().id()));
        assert_eq!(one, [Some(caller)]);
    }

    /// Two items that each wait for the other: finishes only if two threads really
    /// run the job at the same time.
    #[test]
    fn two_threads_run_one_job_concurrently() {
        let rendezvous = Barrier::new(2);
        pool(6).fill(&mut [(), ()], |_| {
            rendezvous.wait();
        });
    }

    /// The caller holds its first item until some worker has run one, so the nested
    /// call below is guaranteed to be made from inside a worker.
    #[test]
    fn nested_fill_inside_a_worker_completes() {
        let pool = pool(4);
        let caller = std::thread::current().id();
        let worker_ran = AtomicBool::new(false);
        let mut sums = vec![0u64; 64];
        pool.fill(&mut sums, |i| {
            if std::thread::current().id() == caller {
                while !worker_ran.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            let mut inner = vec![0u64; 100];
            pool.fill(&mut inner, |j| i as u64 * j as u64);
            worker_ran.fetch_or(std::thread::current().id() != caller, Ordering::SeqCst);
            inner.iter().sum()
        });
        assert_eq!(sums, (0..64u64).map(|i| i * 4_950).collect::<Vec<_>>());
    }

    /// Four callers start together on one pool; whoever finds it busy runs alone.
    #[test]
    fn concurrent_fills_on_one_pool_are_safe() {
        let pool = pool(3);
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for caller in 0..4u64 {
                let (pool, start) = (&pool, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut got = vec![0u64; 257];
                    for round in 0..200u64 {
                        pool.fill(&mut got, |i| i as u64 * caller + round);
                        assert!(got.iter().zip(0..).all(|(&g, i)| g == i * caller + round));
                    }
                });
            }
        });
    }

    /// Counts its own drops per identity, so a double drop and a leak both show.
    struct Tracked<'a> {
        id: usize,
        drops: &'a [AtomicUsize],
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.drops[self.id].fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn panic_reaches_the_caller_drops_items_once_and_leaves_the_pool_usable() {
        let pool = pool(5);
        let drops: Vec<AtomicUsize> = (0..2_000).map(|_| AtomicUsize::new(0)).collect();
        let created: Vec<AtomicUsize> = (0..2_000).map(|_| AtomicUsize::new(0)).collect();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut out: Vec<Option<Tracked>> = (0..2_000).map(|_| None).collect();
            pool.fill(&mut out, |id| {
                if id == 1_237 {
                    panic!("boom at {id}");
                }
                created[id].fetch_add(1, Ordering::SeqCst);
                Some(Tracked { id, drops: &drops })
            });
        }));
        let payload = outcome.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("boom at 1237"));
        for id in 0..2_000 {
            let (made, dropped) = (created[id].load(Ordering::SeqCst), drops[id].load(Ordering::SeqCst));
            assert!(made <= 1, "item {id} produced {made} times");
            assert_eq!(made, dropped, "item {id}: produced {made}, dropped {dropped}");
        }
        assert_eq!(created[1_237].load(Ordering::SeqCst), 0);
        // Same pool, same workers, next job.
        let mut after = vec![0usize; 2_000];
        pool.fill(&mut after, |i| i);
        assert_eq!(after, (0..2_000).collect::<Vec<_>>());
        let state = pool.lock();
        assert!(state.job.is_none() && state.inside == 0 && !state.shutdown);
    }
}

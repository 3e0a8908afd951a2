//! Offline shim for `rayon`.
//!
//! Exposes the parallel-iterator surface this workspace uses — `par_iter` /
//! `par_iter_mut` over slices (and, by deref, `Vec`s), `into_par_iter` over unsigned
//! integer ranges, `.map`, `.enumerate`, `.for_each`, `.collect` into `Vec<T>` and
//! `Result<Vec<T>, E>`, `ThreadPoolBuilder` / `ThreadPool::install` — on a real,
//! std-only work-sharing pool.
//!
//! # Protocol
//!
//! A pool of `n` threads owns `n - 1` persistent OS workers; the thread that makes a
//! parallel call is the `n`-th. A call over `len` indices becomes one [`Job`] on the
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
//! Every parallel iterator here is indexed: item `i` is a pure function of `i`, and
//! `collect` writes item `i` to slot `i`. Output order therefore equals input order
//! whatever the schedule, and a one-thread pool, a busy pool and an eight-thread pool
//! produce identical values.
//!
//! A call runs inline on the calling thread when the pool in force has one thread,
//! when there are fewer than two items, when it is made from inside a pool worker
//! (nested parallelism), or when the pool is already running another caller's job
//! (concurrent `install`s share the pool without ever waiting on each other, so they
//! cannot deadlock). Calls outside any [`ThreadPool::install`] use a lazily-built
//! global pool of `available_parallelism()` threads. A panic in a closure stops
//! further claims, is re-raised on the caller once every participant has left the
//! job, and leaves the pool usable.
//!
//! Beyond rayon's API: [`workers_spawned`], a process-wide diagnostic counter that
//! tests use to show that repeated runs reuse threads.

#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

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

/// How many pool worker threads this process has spawned so far (all pools, the
/// global one included). Diagnostic: a value that stays put across runs shows they
/// reused threads. Not part of rayon's API.
pub fn workers_spawned() -> usize {
    WORKERS_SPAWNED.load(Ordering::Relaxed)
}

thread_local! {
    /// The pool `install` put in force on this thread, innermost first.
    static INSTALLED: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
    /// Set for the life of a pool worker: parallel calls it makes run inline.
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
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

    /// Re-raise on the caller what `work` parked.
    fn finish(self) {
        if let Some(payload) = self
            .panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            panic::resume_unwind(payload);
        }
    }
}

/// A published job with its lifetime erased; see the SAFETY argument in
/// [`Shared::run`] for why workers may dereference it.
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
    shutdown: bool,
}

struct Shared {
    threads: usize,
    state: Mutex<State>,
    /// Workers park here between jobs.
    job_posted: Condvar,
    /// A job's caller parks here until `inside` is back to zero.
    workers_left: Condvar,
}

impl Shared {
    fn new(threads: usize) -> Shared {
        Shared {
            threads,
            state: Mutex::new(State {
                job: None,
                epoch: 0,
                inside: 0,
                shutdown: false,
            }),
            job_posted: Condvar::new(),
            workers_left: Condvar::new(),
        }
    }

    /// The state lock. Poisoning is ignored: no user code runs under this lock and
    /// every update is a single field store, so the state is valid at every step.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `body` over `0..len` on this pool's workers and the calling thread.
    fn run(&self, len: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
        // `next` overshoots `len` by at most one chunk per participant; this keeps
        // that sum from wrapping, which would hand an index out twice.
        assert!(
            len <= isize::MAX as usize,
            "parallel call over more than isize::MAX items"
        );
        let chunk = (len / (self.threads * CHUNKS_PER_THREAD)).clamp(1, MAX_CHUNK);
        let job = Job {
            body,
            len,
            chunk,
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };

        let mut state = self.lock();
        if state.job.is_some() || state.inside > 0 {
            // Another caller's job is on the pool (or this is a call nested in our
            // own): do not wait for it, run alone.
            drop(state);
            job.work();
            return job.finish();
        }
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
        let erased =
            JobPtr(unsafe { std::mem::transmute::<*const Job<'_>, *const Job<'static>>(&job) });
        struct Retract<'p>(&'p Shared);
        impl Drop for Retract<'_> {
            fn drop(&mut self) {
                let mut state = self.0.lock();
                state.job = None;
                drop(
                    self.0
                        .wait_until(state, &self.0.workers_left, |s| s.inside == 0),
                );
            }
        }
        state.job = Some(erased);
        state.epoch += 1;
        drop(state);
        let retract = Retract(self);
        self.job_posted.notify_all();
        job.work();
        drop(retract);
        job.finish();
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
        IS_WORKER.with(|flag| flag.set(true));
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
            // this pointer, so the job's caller is still inside `Shared::run` and
            // stays there until the decrement below (see the argument there). `work`
            // does not unwind.
            unsafe { (*job.0).work() };
            state = self.lock();
            state.inside -= 1;
            if state.inside == 0 {
                self.workers_left.notify_one();
            }
        }
    }
}

/// Run `body` once on each chunk of a partition of `0..len`, in parallel on the pool
/// in force. Every index is covered at most once, and exactly once unless `body`
/// panics (the panic is then re-raised here).
fn for_each_chunk(len: usize, body: &(dyn Fn(Range<usize>) + Sync)) {
    if len < 2 || IS_WORKER.with(Cell::get) {
        return body(0..len);
    }
    let installed = INSTALLED.with(|pool| pool.borrow().clone());
    let pool = installed
        .as_deref()
        .unwrap_or_else(|| &*global_pool().shared);
    if pool.threads == 1 {
        return body(0..len);
    }
    pool.run(len, body);
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The pool behind parallel calls made outside any `install`.
fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        // A host that cannot spawn threads still gets correct (inline) execution.
        ThreadPoolBuilder::new()
            .build()
            .unwrap_or_else(|_| ThreadPool {
                shared: Arc::new(Shared::new(1)),
                workers: Vec::new(),
            })
    })
}

/// Error from [`ThreadPoolBuilder::build`]: the OS refused to spawn a worker.
#[derive(Debug)]
pub struct ThreadPoolBuildError(std::io::Error);

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread pool build error: {}", self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// A pool of `n` threads: `n - 1` persistent workers plus whichever thread calls in.
/// Dropping it stops and joins the workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.shared.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Run `op` on the calling thread with this pool in force: parallel calls `op`
    /// makes are shared with this pool's workers.
    pub fn install<R, F: FnOnce() -> R>(&self, op: F) -> R {
        struct Restore(Option<Arc<Shared>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|pool| *pool.borrow_mut() = self.0.take());
            }
        }
        let previous = INSTALLED.with(|pool| pool.borrow_mut().replace(Arc::clone(&self.shared)));
        let _restore = Restore(previous);
        op()
    }

    /// Threads a parallel call on this pool is shared between.
    pub fn current_num_threads(&self) -> usize {
        self.shared.threads
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.job_posted.notify_all();
        for worker in self.workers.drain(..) {
            // A worker cannot panic (`Job::work` catches); nothing to report here.
            let _ = worker.join();
        }
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    /// A fresh builder.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Request a thread count; 0 (the default) means `available_parallelism()`.
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.threads = n;
        self
    }

    /// Build the pool, spawning its workers.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.threads == 0 {
            available_threads()
        } else {
            self.threads
        };
        // Built empty and filled in place, so a failed spawn drops (stops and joins)
        // the workers that did start.
        let mut pool = ThreadPool {
            shared: Arc::new(Shared::new(threads)),
            workers: Vec::new(),
        };
        for i in 1..threads {
            let shared = Arc::clone(&pool.shared);
            let worker = std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || shared.worker_loop())
                .map_err(ThreadPoolBuildError)?;
            WORKERS_SPAWNED.fetch_add(1, Ordering::Relaxed);
            pool.workers.push(worker);
        }
        Ok(pool)
    }
}

// ---------------------------------------------------------------------------
// Parallel iterators
// ---------------------------------------------------------------------------

/// An indexed parallel iterator: item `i` is a function of `i` alone, which is what
/// makes every result independent of the schedule.
pub trait ParallelIterator: Sized + Sync {
    /// Item type.
    type Item: Send;

    /// Number of items.
    #[doc(hidden)]
    fn item_count(&self) -> usize;

    /// Produce item `index`.
    ///
    /// # Safety
    /// `index < self.item_count()`, and no index is asked for twice over the life of
    /// `self` (an item may be a `&mut` into a slice).
    #[doc(hidden)]
    unsafe fn item(&self, index: usize) -> Self::Item;

    /// Apply `f` to every item.
    fn map<R: Send, F: Fn(Self::Item) -> R + Sync>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Pair every item with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Run `op` on every item, in parallel.
    fn for_each<F: Fn(Self::Item) + Sync>(self, op: F) {
        for_each_chunk(self.item_count(), &|range| {
            for i in range {
                // SAFETY: `for_each_chunk` covers each index of `0..item_count()` at
                // most once, and `self` is consumed by this call.
                op(unsafe { self.item(i) });
            }
        });
    }

    /// Collect the items, in input order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }
}

/// Collections a parallel iterator can be collected into.
pub trait FromParallelIterator<T: Send> {
    /// Build the collection; element `i` comes from item `i`.
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Vec<T> {
        // Each item is written in place at its own index. The slots are `Option`s so
        // that a panic mid-way unwinds through an ordinary `Vec` drop: exactly the
        // items already produced are dropped, once.
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(iter.item_count(), || None);
        slots.par_iter_mut().enumerate().for_each(|(i, slot)| {
            // SAFETY: `enumerate` over the slots yields each index of
            // `0..item_count()` once, and `iter` is consumed by this call.
            *slot = Some(unsafe { iter.item(i) });
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every index was produced"))
            .collect()
    }
}

/// The first error in input order wins, whatever the schedule.
impl<T: Send, E: Send> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_par_iter<I: ParallelIterator<Item = Result<T, E>>>(iter: I) -> Result<Vec<T>, E> {
        Vec::<Result<T, E>>::from_par_iter(iter)
            .into_iter()
            .collect()
    }
}

/// Parallel iterator over `&[T]`.
#[derive(Debug)]
pub struct Iter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for Iter<'data, T> {
    type Item = &'data T;

    fn item_count(&self) -> usize {
        self.slice.len()
    }

    unsafe fn item(&self, index: usize) -> &'data T {
        &self.slice[index]
    }
}

/// Parallel iterator over `&mut [T]`.
#[derive(Debug)]
pub struct IterMut<'data, T> {
    start: *mut T,
    len: usize,
    borrow: PhantomData<&'data mut [T]>,
}

// SAFETY: an `IterMut` is a `&'data mut [T]` split by index. Sharing it between
// threads lets each take `&mut T`s to distinct elements (`item`'s contract forbids
// asking for an index twice), which needs exactly what sending `&mut T` needs:
// `T: Send`. `start` and `len` are never written after construction.
unsafe impl<T: Send> Sync for IterMut<'_, T> {}

impl<'data, T: Send> ParallelIterator for IterMut<'data, T> {
    type Item = &'data mut T;

    fn item_count(&self) -> usize {
        self.len
    }

    unsafe fn item(&self, index: usize) -> &'data mut T {
        assert!(index < self.len, "index {index} out of {}", self.len);
        // SAFETY: `start..start+len` is the slice mutably borrowed for `'data`, the
        // index was just checked, and the caller guarantees no other `&mut` to this
        // element exists (each index is asked for at most once).
        unsafe { &mut *self.start.add(index) }
    }
}

/// Parallel iterator over an unsigned integer range.
#[derive(Debug)]
pub struct RangeIter<T> {
    start: T,
    len: usize,
}

/// See [`ParallelIterator::map`].
#[derive(Debug)]
pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I: ParallelIterator, R: Send, F: Fn(I::Item) -> R + Sync> ParallelIterator for Map<I, F> {
    type Item = R;

    fn item_count(&self) -> usize {
        self.base.item_count()
    }

    unsafe fn item(&self, index: usize) -> R {
        // SAFETY: the caller's contract is passed through unchanged.
        (self.f)(unsafe { self.base.item(index) })
    }
}

/// See [`ParallelIterator::enumerate`].
#[derive(Debug)]
pub struct Enumerate<I> {
    base: I,
}

impl<I: ParallelIterator> ParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn item_count(&self) -> usize {
        self.base.item_count()
    }

    unsafe fn item(&self, index: usize) -> (usize, I::Item) {
        // SAFETY: the caller's contract is passed through unchanged.
        (index, unsafe { self.base.item(index) })
    }
}

/// Consuming conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

macro_rules! range_into_par_iter {
    ($($int:ty)*) => {$(
        impl ParallelIterator for RangeIter<$int> {
            type Item = $int;

            fn item_count(&self) -> usize {
                self.len
            }

            unsafe fn item(&self, index: usize) -> $int {
                // `index < len`, and `start + len` is the range's end: no overflow.
                self.start + index as $int
            }
        }

        impl IntoParallelIterator for Range<$int> {
            type Item = $int;
            type Iter = RangeIter<$int>;

            fn into_par_iter(self) -> RangeIter<$int> {
                let len = usize::try_from(self.end.saturating_sub(self.start))
                    .expect("range longer than usize::MAX");
                RangeIter { start: self.start, len }
            }
        }
    )*};
}

range_into_par_iter!(u32 u64 usize);

/// Borrowing conversion: `par_iter`.
pub trait IntoParallelRefIterator<'data> {
    /// Item type.
    type Item: Send + 'data;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Iterate by reference.
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Iter = Iter<'data, T>;

    fn par_iter(&'data self) -> Iter<'data, T> {
        Iter { slice: self }
    }
}

/// Mutably borrowing conversion: `par_iter_mut`.
pub trait IntoParallelRefMutIterator<'data> {
    /// Item type.
    type Item: Send + 'data;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Iterate by mutable reference.
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Item = &'data mut T;
    type Iter = IterMut<'data, T>;

    fn par_iter_mut(&'data mut self) -> IterMut<'data, T> {
        IterMut {
            start: self.as_mut_ptr(),
            len: self.len(),
            borrow: PhantomData,
        }
    }
}

pub mod prelude {
    //! The traits, mirroring `rayon::prelude`.
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn par_iter_matches_sequential() {
        let v: Vec<i32> = (1..=4).collect();
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn par_iter_mut_updates_in_place() {
        let mut v = vec![3u32, 1, 2];
        v.par_iter_mut().for_each(|x| *x *= 10);
        assert_eq!(v, vec![30, 10, 20]);
    }

    #[test]
    fn into_par_iter_over_range() {
        let squares: Vec<usize> = (0..5usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);
        let offset: Vec<u64> = (7..10u64).into_par_iter().collect();
        assert_eq!(offset, vec![7, 8, 9]);
        let (from, to) = (9u32, 3u32);
        let backwards: Vec<u32> = (from..to).into_par_iter().collect();
        assert!(backwards.is_empty());
    }

    #[test]
    fn pool_installs_inline() {
        let pool = pool(4);
        assert_eq!(pool.current_num_threads(), 4);
        let caller = std::thread::current().id();
        assert_eq!(
            pool.install(|| (7, std::thread::current().id())),
            (7, caller)
        );
    }

    #[test]
    fn install_nests_and_restores() {
        let in_force = || INSTALLED.with(|p| p.borrow().as_ref().map(Arc::as_ptr));
        let (outer, inner) = (pool(2), pool(3));
        assert_eq!(in_force(), None);
        outer.install(|| {
            assert_eq!(in_force(), Some(Arc::as_ptr(&outer.shared)));
            inner.install(|| assert_eq!(in_force(), Some(Arc::as_ptr(&inner.shared))));
            assert_eq!(in_force(), Some(Arc::as_ptr(&outer.shared)));
        });
        assert_eq!(in_force(), None);
    }

    #[test]
    fn every_length_and_thread_count_matches_sequential() {
        for threads in [1, 2, 3, 8] {
            let pool = pool(threads);
            for len in [0usize, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1_000, 8_193, 20_001] {
                let want: Vec<usize> = (0..len).map(|i| i * 3 + 1).collect();
                let got: Vec<usize> =
                    pool.install(|| (0..len).into_par_iter().map(|i| i * 3 + 1).collect());
                assert_eq!(got, want, "threads {threads} len {len}");
                let input: Vec<usize> = (0..len).collect();
                let got: Vec<usize> =
                    pool.install(|| input.par_iter().map(|&i| i * 3 + 1).collect());
                assert_eq!(got, want, "threads {threads} len {len}");
            }
        }
    }

    #[test]
    fn par_iter_mut_enumerate_touches_every_index_once() {
        let pool = pool(4);
        let mut v = vec![0u32; 10_007];
        pool.install(|| {
            v.par_iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x += i as u32 + 1)
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1));
    }

    #[test]
    fn result_collect_returns_the_first_error_in_input_order() {
        let pool = pool(4);
        let run = |bad: fn(u32) -> bool| -> Result<Vec<u32>, u32> {
            pool.install(|| {
                (0..5_000u32)
                    .into_par_iter()
                    .map(|i| if bad(i) { Err(i) } else { Ok(i) })
                    .collect()
            })
        };
        assert_eq!(run(|i| i % 1_000 == 777), Err(777));
        assert_eq!(run(|_| false), Ok((0..5_000).collect()));
    }

    /// Two items that each wait for the other: finishes only if two threads really
    /// run the job at the same time.
    #[test]
    fn two_threads_run_one_job_concurrently() {
        let pool = pool(2);
        let rendezvous = Barrier::new(2);
        pool.install(|| {
            (0..2usize).into_par_iter().for_each(|_| {
                rendezvous.wait();
            })
        });
    }

    #[test]
    fn calls_outside_install_use_the_global_pool() {
        let sum: Vec<u64> = (0..10_000u64).into_par_iter().map(|i| i % 7).collect();
        assert_eq!(
            sum.iter().sum::<u64>(),
            (0..10_000u64).map(|i| i % 7).sum::<u64>()
        );
        assert_eq!(global_pool().current_num_threads(), available_threads());
        assert!(workers_spawned() >= available_threads() - 1);
    }

    /// The caller holds its first item until some worker has run one, so the nested
    /// call below is guaranteed to be made from inside a worker.
    #[test]
    fn nested_par_iter_inside_a_worker_completes() {
        let pool = pool(4);
        let caller = std::thread::current().id();
        let worker_ran = AtomicBool::new(false);
        let sums: Vec<u64> = pool.install(|| {
            (0..64u64)
                .into_par_iter()
                .map(|i| {
                    if std::thread::current().id() == caller {
                        while !worker_ran.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    } else {
                        assert!(IS_WORKER.with(Cell::get));
                    }
                    let inner: Vec<u64> = (0..100u64).into_par_iter().map(|j| i * j).collect();
                    worker_ran.fetch_or(std::thread::current().id() != caller, Ordering::SeqCst);
                    inner.iter().sum()
                })
                .collect()
        });
        assert_eq!(sums, (0..64u64).map(|i| i * 4_950).collect::<Vec<_>>());
    }

    /// Four callers start together on one pool; whoever finds it busy runs alone.
    #[test]
    fn concurrent_installs_on_one_pool_are_safe() {
        let pool = pool(3);
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for caller in 0..4u64 {
                let (pool, start) = (&pool, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..200u64 {
                        let got: Vec<u64> = pool.install(|| {
                            (0..257u64)
                                .into_par_iter()
                                .map(|i| i * caller + round)
                                .collect()
                        });
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
        let pool = pool(4);
        let drops: Vec<AtomicUsize> = (0..2_000).map(|_| AtomicUsize::new(0)).collect();
        let created: Vec<AtomicUsize> = (0..2_000).map(|_| AtomicUsize::new(0)).collect();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                (0..2_000usize)
                    .into_par_iter()
                    .map(|id| {
                        if id == 1_237 {
                            panic!("boom at {id}");
                        }
                        created[id].fetch_add(1, Ordering::SeqCst);
                        Tracked { id, drops: &drops }
                    })
                    .collect::<Vec<_>>()
            })
        }));
        let payload = outcome.err().expect("the panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("boom at 1237")
        );
        for id in 0..2_000 {
            let (made, dropped) = (
                created[id].load(Ordering::SeqCst),
                drops[id].load(Ordering::SeqCst),
            );
            assert!(made <= 1, "item {id} produced {made} times");
            assert_eq!(
                made, dropped,
                "item {id}: produced {made}, dropped {dropped}"
            );
        }
        assert_eq!(created[1_237].load(Ordering::SeqCst), 0);
        // Same pool, same workers, next job.
        let after: Vec<usize> = pool.install(|| (0..2_000usize).into_par_iter().collect());
        assert_eq!(after, (0..2_000).collect::<Vec<_>>());
        let state = pool.shared.lock();
        assert!(state.job.is_none() && state.inside == 0 && !state.shutdown);
    }

    /// Every worker holds one strong reference to the shared state for as long as it
    /// lives, so the strong count is a live-worker counter.
    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let before = workers_spawned();
        let pool = pool(4);
        assert!(workers_spawned() >= before + 3);
        let shared = Arc::downgrade(&pool.shared);
        pool.install(|| (0..100usize).into_par_iter().for_each(|_| {}));
        assert_eq!(shared.strong_count(), 4, "the pool and its three workers");
        drop(pool);
        assert_eq!(
            shared.strong_count(),
            0,
            "drop returned before every worker exited"
        );
    }
}

//! Counting global allocator for the allocation-bound tests: `zero_alloc`,
//! `hostile_index`, `hostile_checkpoint`, `deep_prefix_alloc` and `index_build_alloc`
//! here, and — including this file by path — `sra`'s `hostile_archive`,
//! `telemetry`'s `hostile_json` and the integration suite's `observer_cost`.
//!
//! Wraps the system allocator; while a [`tracked`] closure runs it counts every
//! `alloc`/`realloc` call made by the closure's own thread, records the bytes
//! requested, and follows the bytes live on that thread (an `alloc` adds its size, a
//! `dealloc` subtracts it, a `realloc` adds the difference) to report their high-water
//! mark. Another thread's requests are not the closure's: libtest's main thread
//! is still allocating when a test starts, which moved `observer_cost`'s first cell by
//! 3-4 calls in about one run in ten. The counters are process-wide, so a test binary
//! that installs it holds a single `#[test]`. Each binary installs it itself:
//! `#[global_allocator] static ALLOCATOR: CountingAlloc = CountingAlloc;`

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

pub struct CountingAlloc;

thread_local! {
    /// Const-initialised and without a destructor: reading it never allocates.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}
static CALLS: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);
/// Bytes allocated minus bytes freed since tracking began; signed, because the
/// closure may free what was allocated before it started.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn tracking() -> bool {
    TRACKING.try_with(Cell::get).unwrap_or(false)
}

fn note(bytes: usize) {
    if tracking() {
        CALLS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(bytes, Ordering::Relaxed);
        TOTAL.fetch_add(bytes, Ordering::Relaxed);
    }
}

fn live(delta: i64) {
    if tracking() {
        let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

/// What the allocator saw while a [`tracked`] closure ran.
#[derive(Clone, Copy, Debug)]
#[allow(dead_code)] // each including test reads the fields it bounds
pub struct Allocations {
    /// `alloc` + `realloc` calls.
    pub calls: u64,
    /// Largest single request, in bytes.
    pub largest: usize,
    /// Sum of all requests, in bytes.
    pub total: usize,
    /// High-water mark of the bytes the closure's thread held live, counted from
    /// zero when the closure started.
    pub peak_live: usize,
}

/// Run `f` with tracking on and report what it asked the allocator for.
pub fn tracked<R>(f: impl FnOnce() -> R) -> (R, Allocations) {
    CALLS.store(0, Ordering::SeqCst);
    LARGEST.store(0, Ordering::SeqCst);
    TOTAL.store(0, Ordering::SeqCst);
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    TRACKING.with(|t| t.set(true));
    let result = f();
    TRACKING.with(|t| t.set(false));
    let seen = Allocations {
        calls: CALLS.load(Ordering::SeqCst),
        largest: LARGEST.load(Ordering::SeqCst),
        total: TOTAL.load(Ordering::SeqCst),
        peak_live: PEAK.load(Ordering::SeqCst).max(0) as usize,
    };
    (result, seen)
}

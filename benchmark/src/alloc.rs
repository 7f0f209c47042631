//! A counting wrapper over the system allocator.
//!
//! The simulator's heap traffic per cycle is deterministic, so
//! allocations per cycle compare exactly between two commits where a
//! stopwatch cannot. The `qosbench` binary installs [`CountingAlloc`] as
//! its global allocator and arms it only around the measured loops of
//! the traced pass, on a single thread; everything else (and every
//! binary that does not install it) sees the plain system allocator and
//! reads zeros.
//!
//! This is the only `unsafe` in the repository, confined to the
//! benchmark: `GlobalAlloc` is an unsafe trait.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: they publish no other data, so `Relaxed` is enough.
// The counters are bumped with a load and a store, not `fetch_add`: they
// are armed only while a single thread allocates, and a locked
// instruction on every allocation would slow the loop being measured.
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting calls and bytes while armed.
pub struct CountingAlloc;

#[inline]
fn count(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.store(ALLOCS.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        BYTES.store(
            BYTES.load(Ordering::Relaxed) + bytes as u64,
            Ordering::Relaxed,
        );
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's obligations for `realloc` are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations for `dealloc` are passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap requests made while the counter was armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCount {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

/// Runs `f` with the counter armed and returns what it allocated. `f`
/// must allocate on the calling thread only (see the counters' note).
/// Reads zeros unless the running binary installed [`CountingAlloc`].
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    let count = AllocCount {
        allocs: ALLOCS.load(Ordering::Relaxed) - before.0,
        bytes: BYTES.load(Ordering::Relaxed) - before.1,
    };
    (out, count)
}

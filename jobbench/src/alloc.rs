//! A counting global allocator that counts only while switched on, so the
//! untraced runs pay one relaxed load per allocation and nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus an allocation counter that [`count`] arms.
pub struct GatedCounter;

// SAFETY: every operation is delegated verbatim to `System`; the counter
// is a pair of relaxed atomics that neither allocate nor panic.
unsafe impl GlobalAlloc for GatedCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc usually moves to a fresh block; count it like
        // `ampc_runtime::alloc_count` does, so the figures compare.
        if new_size > layout.size() {
            tally();
        }
        System.realloc(ptr, layout, new_size)
    }
}

fn tally() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f` and returns its result with the heap allocations made while it
/// ran, on every thread (pool workers included). Calls must not nest or
/// overlap.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let result = f();
    COUNTING.store(false, Ordering::SeqCst);
    (result, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// [`count`] when `on`, otherwise just `f` (with zero allocations).
pub fn count_if<R>(on: bool, f: impl FnOnce() -> R) -> (R, u64) {
    if on {
        count(f)
    } else {
        (f(), 0)
    }
}

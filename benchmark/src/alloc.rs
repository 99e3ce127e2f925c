//! A counting global allocator, so the traced run can state how many heap
//! allocations a steady-state engine slice makes (`core.system.allocs_per_slice`;
//! the engine's contract, held by `tests/zero_alloc.rs`, is zero).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts `alloc`/`alloc_zeroed`/`realloc` calls and defers to the system
/// allocator.
pub struct Counting;

// SAFETY: every operation is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are exactly `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are exactly `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls made by the whole process so far.
pub fn count() -> u64 {
    ALLOCS.load(Relaxed)
}

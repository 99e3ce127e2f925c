//! Steady-state allocation audit for the engine hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; each
//! bench cell (STREAM/GUPS × QB-HBM/FGDRAM) warms a `System` up past its
//! high-water queue occupancy, snapshots the allocation counters, and
//! then runs a measurement window. The step loop must make **zero**
//! `alloc`/`realloc` calls in that window: every queue, scratch buffer,
//! and arena is pre-sized at build or reaches steady capacity during
//! warmup, and per-step work recycles pooled storage.
//!
//! The cells run inside one `#[test]` (not four) so no concurrent test
//! thread can attribute its allocations to a measurement window.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use fgdram::core::SystemBuilder;
use fgdram::model::config::DramKind;
use fgdram::workloads::suites;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers every operation to the system allocator; the counters
// are plain relaxed atomics with no other side effects.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const WARMUP: u64 = 3_000;
const WINDOW: u64 = 10_000;

/// The FGDRAM cells get the benchmark's horizon (`benchmark/` warms up
/// for 20 000 ns and counts allocations per slice after it). GUPS: the
/// in-flight fill table used to be a `HashMap` whose tombstones forced a
/// 1.1 MB regrow-and-rehash about 100 000 simulated ns in, far beyond the
/// short window the other cells use. STREAM: it parks the most events on
/// one ns (about 30 fills), so it is the cell that sizes the event
/// wheel's sorted-batch buffer.
const LONG_WARMUP: u64 = 20_000;
const LONG_WINDOW: u64 = 100_000;

#[test]
fn steady_state_step_loop_makes_no_allocations() {
    for kind in [DramKind::QbHbm, DramKind::Fgdram] {
        for workload in ["STREAM", "GUPS"] {
            let (warmup, window) = if kind == DramKind::Fgdram {
                (LONG_WARMUP, LONG_WINDOW)
            } else {
                (WARMUP, WINDOW)
            };
            let w = suites::by_name(workload).expect("suite exists");
            let mut sys = SystemBuilder::new(kind).workload(w).build().expect("system builds");
            sys.run_for(warmup).expect("warmup runs");

            let allocs_before = ALLOCS.load(Relaxed);
            let reallocs_before = REALLOCS.load(Relaxed);
            sys.run_for(window).expect("window runs");
            let allocs = ALLOCS.load(Relaxed) - allocs_before;
            let reallocs = REALLOCS.load(Relaxed) - reallocs_before;

            assert_eq!(
                (allocs, reallocs),
                (0, 0),
                "steady-state step loop allocated: kind {kind:?} workload {workload} \
                 ({allocs} allocs, {reallocs} reallocs over {window} simulated ns)"
            );
        }
    }
}

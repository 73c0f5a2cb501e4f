//! Allocation counting for the traced run's `alloc.per_req`.
//!
//! A pass-through global allocator that, once [`enable`] has been called,
//! counts allocation events (mallocs and reallocs) per thread. Untraced
//! runs never enable it and pay one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

pub struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialised and without a destructor, so the allocator can
    // touch it at any point of a thread's life without allocating.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ENABLED.load(Ordering::Relaxed) {
        let _ = EVENTS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter neither allocates nor touches memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller's guarantees for `layout` and `new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start counting (for the rest of the process).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Allocation events on this thread since counting started.
pub fn events() -> u64 {
    EVENTS.with(Cell::get)
}

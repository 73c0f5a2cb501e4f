//! Allocation gate for building a model graph: recording an op costs one
//! heap allocation (its exact-length name; inputs and dims are inline),
//! and a layer adds its name prefixes. The gate allows one allocation per
//! op plus two per layer plus 64 for the graph's own lists.
//!
//! A `#[global_allocator]` applies to the whole test binary, so this file
//! is its own binary. The allocator counts alloc and realloc events only on
//! a thread that has switched counting on, so tests running on other
//! threads add nothing to a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use whale_graph::{models, Graph, GraphError};

struct CountingAlloc;

thread_local! {
    /// Alloc and realloc events on this thread while counting is on.
    /// `const`-initialized with no destructor, so reading it from inside
    /// the allocator allocates nothing.
    static EVENTS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_event() {
    EVENTS.with(|events| {
        if let Some(n) = events.get() {
            events.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; counting neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        // SAFETY: as for `dealloc`, and the caller's guarantees on
        // `new_size` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Build a graph, counting the allocation events the build makes on this
/// thread, and assert at most one per op plus two per layer plus 64.
fn assert_allocations_bounded(name: &str, build: impl FnOnce() -> Result<Graph, GraphError>) {
    EVENTS.with(|events| events.set(Some(0)));
    let graph = build();
    let events = EVENTS.with(|events| events.take()).unwrap();
    let graph = graph.unwrap();
    let ops = graph.len() as u64;
    let layers = graph.per_layer_costs().len() as u64;
    let bound = ops + 2 * layers + 64;
    println!("{name}: {events} allocations for {ops} ops and {layers} layers (bound {bound})");
    assert!(
        events <= bound,
        "{name}: {events} allocations for {ops} ops and {layers} layers, over the bound {bound}"
    );
}

#[test]
fn building_a_graph_allocates_once_per_op_plus_twice_per_layer() {
    assert_allocations_bounded("m6-moe-1t-deep@64", || models::m6_moe_1t_deep(64));
    assert_allocations_bounded("bert-large@128", || models::bert_large(128, 128));
}

//! Counter-exact incrementality tests for the interned graph core.
//!
//! The interner instruments itself with monotonic counters
//! ([`whale_graph::intern::counters`]) so these tests can assert that work
//! *didn't* happen — a block wasn't re-fingerprinted, adjacency wasn't
//! rebuilt — instead of trying to time it. The counters and the intern
//! table are process-global, so every test takes one lock and builds
//! blocks with shapes no other test uses; this file stays its own test
//! binary so unrelated integration tests can't run in the same process.

use std::sync::Mutex;

use whale_graph::graph::Graph;
use whale_graph::intern::counters;
use whale_graph::models;
use whale_graph::{set_default_interning, GraphBuilder};

static GUARD: Mutex<()> = Mutex::new(());

/// A small interned encoder stack. The `intermediate` width doubles as a
/// test-local namespace: templates are content-addressed (the instance
/// prefix is *not* part of the template), so distinct widths are the only
/// way to keep one test's blocks out of another's interner buckets.
fn encoder(name: &str, layers: usize, intermediate: usize) -> Graph {
    let mut b = GraphBuilder::with_interning(name, true);
    let mut h = b.input("x", &[2, 16, 64]).unwrap();
    for i in 0..layers {
        h = b
            .encoder_layer(&format!("enc.{i}"), h, 2, 16, 64, 4, intermediate)
            .unwrap();
    }
    b.finish()
}

#[test]
fn identical_layers_intern_to_one_allocation() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());

    let (h0, m0) = (counters::intern_hits(), counters::intern_misses());
    let g = encoder("hits", 8, 288);
    assert_eq!(g.block_count(), 8);
    // One miss creates the template; the other seven layers hit it.
    assert_eq!(counters::intern_misses() - m0, 1);
    assert_eq!(counters::intern_hits() - h0, 7);

    // A second build of the same shapes allocates no new template at all.
    let (h1, m1) = (counters::intern_hits(), counters::intern_misses());
    let again = encoder("hits-again", 8, 288);
    assert_eq!(counters::intern_misses() - m1, 0);
    assert_eq!(counters::intern_hits() - h1, 8);
    assert_eq!(again.block_count(), 8);
}

#[test]
fn a_run_of_equal_layers_is_looked_up_once_per_run() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());

    // Layers A, B, A, A. A and B are new to the process: two misses. The
    // second A misses the block before it (B) and hits A in the table;
    // the third matches the block before it, with no table lookup.
    let (h0, m0) = (counters::intern_hits(), counters::intern_misses());
    let mut b = GraphBuilder::with_interning("aba", true);
    let mut h = b.input("x", &[2, 16, 64]).unwrap();
    for (i, intermediate) in [416, 448, 416, 416].into_iter().enumerate() {
        h = b
            .encoder_layer(&format!("enc.{i}"), h, 2, 16, 64, 4, intermediate)
            .unwrap();
    }
    assert_eq!(b.finish().block_count(), 4);
    assert_eq!(counters::intern_misses() - m0, 2);
    assert_eq!(counters::intern_hits() - h0, 2);
}

#[test]
fn refingerprint_is_free_and_a_block_edit_rehashes_exactly_one_block() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());

    let g = encoder("inc", 6, 320);
    let c0 = counters::inst_sum_computes();
    let first = g.fingerprint();
    // Cold fingerprint: one content-sum per block instance.
    assert_eq!(counters::inst_sum_computes() - c0, 6);

    // Warm re-fingerprints — of the graph and of a clone — hit the per-
    // instance memo and recompute nothing.
    let c1 = counters::inst_sum_computes();
    assert_eq!(g.fingerprint(), first);
    assert_eq!(g.clone().fingerprint(), first);
    assert_eq!(counters::inst_sum_computes() - c1, 0);

    // Splice in one edited layer: re-fingerprinting the result computes a
    // content sum for the *new* instance only; the five untouched blocks
    // keep their memoized subtotals through the structural copy.
    let donor = encoder("inc-donor", 1, 352);
    let edited = g.with_block_replaced(3, &donor, 0).unwrap();
    let c2 = counters::inst_sum_computes();
    let efp = edited.fingerprint();
    assert_eq!(counters::inst_sum_computes() - c2, 1);
    assert_ne!(efp, first);

    // And the incremental result is bit-identical to a flat re-hash.
    let mut reference = Graph::new("inc");
    for op in edited.ops() {
        reference
            .add_op(
                op.name.clone(),
                op.kind.clone(),
                op.inputs.iter().copied(),
                op.output.clone(),
                op.phase,
                op.layer,
            )
            .unwrap();
    }
    assert_eq!(efp, reference.fingerprint());
}

#[test]
fn block_adjacency_is_built_once_and_shared_across_graphs() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());

    let a = encoder("adj-a", 5, 384);
    let b0 = counters::block_adj_builds();
    let _ = a.consumers();
    // Five instances of one distinct block: one adjacency build.
    assert_eq!(counters::block_adj_builds() - b0, 1);

    // A second graph interning the same block reuses that adjacency — zero
    // builds — because the template allocation itself is shared.
    let b = encoder("adj-b", 5, 384);
    let b1 = counters::block_adj_builds();
    let _ = b.consumers();
    assert_eq!(counters::block_adj_builds() - b1, 0);
    assert_eq!(a.consumers(), b.consumers());
}

#[test]
fn default_interning_is_transparent_across_the_zoo() {
    let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());

    // Interned and flat builds of the same model must produce the same
    // ops and the same fingerprint — the representation is invisible to
    // every consumer except the allocator.
    let was = set_default_interning(true);
    let build: &[fn() -> Graph] = &[
        || models::bert_base(4, 32).unwrap(),
        || models::gpt2_xl(2, 32).unwrap(),
        || models::m6_moe(models::MoeConfig::tiny(), 8).unwrap(),
        || models::resnet50(8).unwrap(),
    ];
    let mut fingerprints = Vec::new();
    for make in build {
        set_default_interning(true);
        let interned = make();
        set_default_interning(false);
        let flat = make();
        assert_eq!(flat.block_count(), 0);
        assert_eq!(interned.ops(), flat.ops());
        assert_eq!(interned.fingerprint(), flat.fingerprint());
        fingerprints.push(interned.fingerprint());
    }
    set_default_interning(was);

    // Collision sanity across the zoo members above.
    for i in 0..fingerprints.len() {
        for j in i + 1..fingerprints.len() {
            assert_ne!(fingerprints[i], fingerprints[j], "members {i} and {j}");
        }
    }
}

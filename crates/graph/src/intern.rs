//! The block interner's three counters, kept so that reqbench's
//! `cold-plan` workload (`reqbench/src/cold_plan.rs`) still builds: it reads
//! them into its `graph.intern_*` trace rows. A graph is one flat op list
//! (see [`crate::graph`]) and nothing is interned, so each returns 0.
//! reqbench is the repo's declared benchmark (`BENCHMARK.json` `paths`),
//! whose code changes only together with the benchmark; this module goes
//! once it stops reading them.

/// The interner's counters. Nothing is interned, so each returns 0.
pub mod counters {
    /// Interner lookups that returned an existing block: always 0. Kept
    /// because `reqbench/src/cold_plan.rs` reads it.
    pub fn intern_hits() -> u64 {
        0
    }

    /// Interner lookups that created a new block: always 0. Kept because
    /// `reqbench/src/cold_plan.rs` reads it.
    pub fn intern_misses() -> u64 {
        0
    }

    /// Per-block fingerprint subtotals computed: always 0. Kept because
    /// `reqbench/src/cold_plan.rs` reads it.
    pub fn inst_sum_computes() -> u64 {
        0
    }
}

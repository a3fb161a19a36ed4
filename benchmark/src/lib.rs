//! The nomad benchmark of record. See `README.md` beside `Cargo.toml`.

pub mod alloc_count;
pub mod payload;
pub mod probes;
pub mod registry;
pub mod report;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

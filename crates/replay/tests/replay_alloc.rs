//! Replay's allocation contract: reading a trace line costs parsing,
//! not allocation. The JSON reader keeps its slot vector and its side
//! string for escaped text across lines, and the validator and the
//! decoder read the borrowed view it hands back. What replay still
//! allocates is the report it rebuilds: growth of the trace's event
//! list and maps, and the span bookkeeping of the schema check.
//!
//! Ordinary tests cannot see allocations, so this binary installs a
//! counting `#[global_allocator]` and runs from `main()` without the
//! libtest harness (`harness = false`): no harness thread can allocate
//! while a window is open.

mod common;

use rb_obs::json::JsonReader;
use rb_replay::replay_jsonl;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation events (alloc / alloc_zeroed / realloc) since process
/// start.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation events made while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The most allocation events `replay_jsonl` may make per line of the
/// faulted trace, and what it made while every line was parsed into an
/// owned tree.
const PER_LINE: (f64, f64) = (1.0, 15.25);

fn main() {
    let trace = common::faulted_trace();

    // A warmed reader reads an escape-free line in place.
    let mut reader = JsonReader::default();
    for line in trace.lines() {
        reader.read(line).expect("every trace line is JSON");
    }
    let plain: Vec<&str> = trace.lines().filter(|l| !l.contains('\\')).collect();
    assert!(!plain.is_empty(), "the trace has escape-free lines");
    let ((), allocs) = allocations_during(|| {
        for line in &plain {
            let doc = reader.read(line).expect("every trace line is JSON");
            assert!(doc.is_obj());
        }
    });
    println!(
        "warmed reader: {allocs} allocations over {} lines",
        plain.len()
    );
    assert_eq!(
        allocs, 0,
        "a warmed reader must not allocate on an escape-free line"
    );

    let lines = trace.lines().count();
    let (run, allocs) = allocations_during(|| replay_jsonl(&trace));
    run.expect("the faulted trace replays");
    let per_line = allocs as f64 / lines as f64;
    let (bound, before) = PER_LINE;
    println!(
        "replay_jsonl: {allocs} allocations over {lines} lines, {per_line:.2} per line \
         (was {before})"
    );
    assert!(
        per_line <= bound,
        "replay_jsonl must allocate at most {bound} times per line on average \
         ({per_line:.2} per line)"
    );
}

//! Heap accounting for the `peak_heap_mb` metric.
//!
//! The benchmark's global allocator forwards to the system allocator
//! and counts, per thread, the bytes allocated less the bytes freed.
//! A trial runs on one thread of the `run_trials` pool from set-up to
//! its last protocol run, so that thread's peak over the trial is the
//! most heap the trial held at once. It is a property of the program:
//! it does not depend on how the system allocator keeps freed memory
//! resident (with glibc the resident peak depends on which arena each
//! fresh pool thread inherits, and moved by a third between runs of
//! the same code), nor on how two concurrent trials happen to overlap.
//! Counting per thread also keeps the pool's threads from contending
//! on a shared counter.
//!
//! Heap that a trial's code allocates on other threads (medium shards,
//! when a slot splits) is not counted in the trial.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes allocated less bytes freed on this thread; negative when
    /// the thread frees what another allocated.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, with a per-thread count of live bytes.
pub struct Counting;

#[global_allocator]
static COUNTING: Counting = Counting;

fn moved(bytes: isize) {
    // `try_with` rather than `with`: an allocation made while the
    // thread is being torn down is forwarded but not counted.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        if bytes > 0 {
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe sizes and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            moved(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            moved(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        moved(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            moved(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Start a new peak window on this thread; returns the bytes it holds
/// now, the base for [`peak_since`].
pub fn reset_peak() -> isize {
    let live = LIVE.get();
    PEAK.set(live);
    live
}

/// The most bytes this thread held at once since [`reset_peak`]
/// returned `base`, beyond `base`.
pub fn peak_since(base: isize) -> usize {
    (PEAK.get() - base).max(0) as usize
}

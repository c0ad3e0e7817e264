//! Process-level measurements: CPU time and peak memory from `getrusage`,
//! and a count of heap allocations from a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::raw::c_int;

// `struct rusage` below is declared with Linux's LP64 layout.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage with the 64-bit Linux struct layout");
use std::sync::atomic::{AtomicU64, Ordering};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

fn rusage() -> Rusage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `r` is a live, writable `struct rusage` with Linux's layout,
    // and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid buffer");
    r
}

/// User plus system CPU time of the whole process, all threads, in µs.
pub fn cpu_us() -> i64 {
    let r = rusage();
    let us = |t: &Timeval| t.sec * 1_000_000 + t.usec;
    us(&r.utime) + us(&r.stime)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss_kb as f64 / 1024.0
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations (including reallocations) made so far, by any thread.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The system allocator, counting calls. The count is a statistic and
/// publishes no other data, so `Relaxed` suffices.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

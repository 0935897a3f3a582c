//! A counting global allocator. Every allocation and reallocation bumps
//! two process-wide counters; the traced run snapshots them around each
//! handler call to attribute allocations to layers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with allocation counters in front of it.
pub struct Counting;

fn record(size: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// that publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` was returned by `System` for `layout` and
        // `new_size` satisfies `realloc`'s contract, as the caller
        // guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant, or the difference of two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation and reallocation calls.
    pub count: u64,
    /// Bytes requested by those calls (the new size, for reallocations).
    pub bytes: u64,
}

impl Allocs {
    /// The counters now.
    pub fn now() -> Allocs {
        Allocs {
            count: COUNT.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }
}

impl Sub for Allocs {
    type Output = Allocs;
    fn sub(self, rhs: Allocs) -> Allocs {
        Allocs {
            count: self.count - rhs.count,
            bytes: self.bytes - rhs.bytes,
        }
    }
}

impl std::ops::AddAssign for Allocs {
    fn add_assign(&mut self, rhs: Allocs) {
        self.count += rhs.count;
        self.bytes += rhs.bytes;
    }
}

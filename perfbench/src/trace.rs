//! The traced run's instruments: spans recorded around the public calls
//! the benchmark makes, and an allocation counter.
//!
//! Spans live in memory (a few per operation; per-step timings go to
//! histograms instead) and are written out once the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a count of allocations made while
/// [`set_counting`] is on. Only the traced binary installs it, so timed
/// runs keep the plain system allocator.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic and publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` via this allocator with `layout`;
        // the caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off (a no-op for the count unless
/// [`CountingAlloc`] is the global allocator).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (including reallocations) counted so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One timed call: which operation it belonged to, the layer it
/// entered, and when.
struct Span {
    op: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span log for one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Records a span that started at `start` and lasted `dur_ns`.
    pub fn record(&mut self, op: u64, name: &'static str, start: Instant, dur_ns: u64) {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            op,
            name,
            start_ns,
            dur_ns,
        });
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span; every span's parent is its
    /// operation, whose own span is named `op`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.op,
                s.name,
                if s.name == "op" { "null" } else { "\"op\"" },
                s.start_ns,
                s.dur_ns
            )?;
        }
        w.flush()
    }
}

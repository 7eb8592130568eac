//! Recording into warmed handles and a full journal allocates nothing.
//!
//! A counting `#[global_allocator]` tallies allocations per thread, so
//! the harness's other test threads cannot pollute the count.

use qns_obs::{catalog, Counter, EventKind, Gauge, Histogram, Journal, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocation calls per thread.
struct CountingAlloc;

fn count() {
    // `try_with`: the slot is gone while a thread tears down its TLS.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counter never touches the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One round of every record-side operation a handle offers.
fn record_round(i: u64, counters: &[Counter], gauge: &Gauge, histograms: &[Histogram]) {
    for c in counters {
        c.inc();
        c.add(i);
    }
    gauge.add(3);
    gauge.inc();
    gauge.dec();
    gauge.set(i as i64);
    gauge.set_max(i as i64 + 1);
    gauge.set_if_unset(i as i64);
    for h in histograms {
        h.record(i);
    }
}

#[test]
fn warmed_handles_record_without_allocating() {
    let reg = Registry::new();
    // Fetching handles registers labeled children: that is the
    // allocating step, done once up front.
    let counters = [
        reg.counter(&catalog::SERVE_JOBS_SUBMITTED_TOTAL),
        reg.counter_labeled(&catalog::SERVE_BACKEND_JOBS_TOTAL, "approx"),
    ];
    let gauges = [
        reg.gauge(&catalog::SERVE_QUEUE_DEPTH),
        reg.gauge_labeled(&catalog::SERVE_BREAKER_STATE, "approx"),
        Gauge::detached(),
    ];
    let histograms = [
        reg.histogram(&catalog::SERVE_QUEUE_WAIT_MICROS),
        reg.histogram_labeled(&catalog::TNET_REPLAY_MICROS, "delta"),
        Histogram::detached(),
    ];
    let counted = allocations_in(|| {
        for i in 0..10_000u64 {
            for g in &gauges {
                record_round(i, &counters, g, &histograms);
            }
        }
    });
    assert_eq!(counted, 0, "the record path allocated");
    assert_eq!(
        reg.snapshot()
            .counter_value("qns_serve_jobs_submitted_total"),
        Some(30_000 + 3 * (0..10_000u64).sum::<u64>())
    );
}

#[test]
fn journal_records_without_allocating_before_and_at_capacity() {
    let mut journal = Journal::with_capacity(64).with_drop_counter(Counter::detached());
    let counted = allocations_in(|| {
        // Fill the preallocated ring, then keep recording over the
        // oldest events.
        for i in 0..1_000u64 {
            journal.record(
                i,
                EventKind::Executed {
                    engine: "approx",
                    micros: i,
                    ok: true,
                },
            );
        }
    });
    assert_eq!(counted, 0, "Journal::record allocated");
    assert_eq!(journal.len(), 64);
    assert_eq!(journal.dropped(), 1_000 - 64);
}

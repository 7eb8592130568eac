//! Registry and journal behavior under concurrency: totals conserved,
//! snapshots are consistent monotone views, ring overflow is counted,
//! and the steady-state record path never allocates.

use qns_obs::{catalog, EventKind, Journal, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

const WRITERS: usize = 8;
const OPS_PER_WRITER: u64 = 20_000;

#[test]
fn totals_conserved_while_reader_snapshots() {
    let reg = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));

    // Reader: snapshots must be monotone per series even mid-race.
    let reader = {
        let reg = Arc::clone(&reg);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut last_counter = 0u64;
            let mut last_hist_count = 0u64;
            let mut snaps = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let snap = reg.snapshot();
                let c = snap
                    .counter_value("qns_serve_jobs_submitted_total")
                    .expect("catalog counter");
                assert!(
                    c >= last_counter,
                    "counter went backwards: {c} < {last_counter}"
                );
                last_counter = c;

                let h = snap
                    .histogram_value("qns_serve_queue_wait_micros")
                    .expect("catalog histogram");
                let count = h.count();
                assert!(
                    count >= last_hist_count,
                    "histogram count went backwards: {count} < {last_hist_count}"
                );
                // count() is derived from the buckets, so "every counted
                // sample is in exactly one bucket" holds by construction;
                // the high-water mark never trails the live value.
                let g = snap
                    .gauge_value("qns_serve_refine_active")
                    .expect("catalog gauge");
                assert!(g.high_water >= g.value);
                last_hist_count = count;
                snaps += 1;
            }
            snaps
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let counter = reg.counter(&catalog::SERVE_JOBS_SUBMITTED_TOTAL);
                let hist = reg.histogram(&catalog::SERVE_QUEUE_WAIT_MICROS);
                let gauge = reg.gauge(&catalog::SERVE_REFINE_ACTIVE);
                let labeled = reg.counter_labeled(
                    &catalog::SERVE_BACKEND_JOBS_TOTAL,
                    if w % 2 == 0 { "a" } else { "b" },
                );
                for i in 0..OPS_PER_WRITER {
                    counter.inc();
                    hist.record(i % 4096);
                    gauge.inc();
                    labeled.inc();
                    gauge.dec();
                }
            })
        })
        .collect();

    for t in writers {
        t.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    let snaps = reader.join().expect("reader");
    assert!(snaps > 0, "reader took at least one snapshot");

    let total = WRITERS as u64 * OPS_PER_WRITER;
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter_value("qns_serve_jobs_submitted_total"),
        Some(total)
    );
    let h = snap
        .histogram_value("qns_serve_queue_wait_micros")
        .expect("histogram");
    assert_eq!(h.count(), total, "no sample lost");
    let per_label: u64 = [
        snap.counter_value_labeled("qns_serve_backend_jobs_total", "a"),
        snap.counter_value_labeled("qns_serve_backend_jobs_total", "b"),
    ]
    .into_iter()
    .flatten()
    .sum();
    assert_eq!(per_label, total, "labeled children conserve totals");
    let g = snap.gauge_value("qns_serve_refine_active").expect("gauge");
    assert_eq!(g.value, 0, "every inc paired with a dec");
    assert!(g.high_water >= 1);
}

#[test]
fn steady_state_recording_never_allocates() {
    let reg = Registry::new();
    // Warm-up: touch every handle the hot loop will use (labeled
    // children register here, exactly once).
    let counter = reg.counter(&catalog::SERVE_JOBS_EXECUTED_TOTAL);
    let hist = reg.histogram(&catalog::SERVE_E2E_LATENCY_MICROS);
    let labeled = reg.counter_labeled(&catalog::SERVE_BACKEND_MICROS_TOTAL, "approx");
    let warm = reg.allocation_events();

    let mut journal = Journal::with_capacity(256);
    for i in 0..10_000u64 {
        counter.inc();
        hist.record(i);
        labeled.add(i);
        reg.counter_labeled(&catalog::SERVE_BACKEND_MICROS_TOTAL, "approx")
            .inc();
        journal.record(
            i,
            EventKind::Executed {
                engine: "approx",
                micros: i,
                ok: true,
            },
        );
    }

    // Asserted the same way as the PR 5/6 zero-alloc kernels: the
    // allocation-event counters are flat across the steady state.
    assert_eq!(
        reg.allocation_events(),
        warm,
        "registry allocated on the record path"
    );
    assert_eq!(journal.allocation_events(), 0, "journal ring grew");
    assert_eq!(
        journal.dropped(),
        10_000 - 256,
        "overflow counted, not silent"
    );
}

#[test]
fn journal_conserves_event_count_under_contention() {
    let journal = Arc::new(Mutex::new(Journal::with_capacity(512)));
    let threads: Vec<_> = (0..WRITERS)
        .map(|w| {
            let journal = Arc::clone(&journal);
            thread::spawn(move || {
                for i in 0..1_000u64 {
                    journal
                        .lock()
                        .expect("journal lock")
                        .record(w as u64 * 1_000 + i, EventKind::Submitted);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("writer");
    }
    let mut journal = journal.lock().expect("journal lock");
    let buffered = journal.len() as u64;
    let drained = journal.drain();
    assert_eq!(drained.events.len() as u64, buffered);
    assert_eq!(
        buffered + drained.dropped,
        WRITERS as u64 * 1_000,
        "buffered + dropped = recorded"
    );
    // Sequence numbers are unique and strictly increasing in the drain.
    for pair in drained.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
}

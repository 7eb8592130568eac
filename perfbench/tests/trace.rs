//! Self time is a span's duration minus the union of its children's
//! intervals, clipped to the span.

use qns_perfbench::trace::{self_times, totals_by_name, Span, Tracer};

fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        req: 7,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn overlapping_and_overhanging_children_are_counted_once() {
    let spans = [
        span(1, None, "request", 0, 100),
        span(2, Some(1), "submit", 10, 30),
        // Overlaps `submit` (parallel worker).
        span(3, Some(1), "backend", 20, 50),
        // Ends after its parent; only 90..100 is inside it.
        span(4, Some(1), "wait", 90, 120),
        span(5, Some(3), "kernel", 25, 35),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 100 - 40 - 10);
    assert_eq!(selfs[&2], 20);
    assert_eq!(selfs[&3], 30 - 10);
    assert_eq!(selfs[&4], 30);
    assert_eq!(selfs[&5], 10);
}

#[test]
fn leaf_self_time_is_its_duration_and_totals_aggregate_by_name() {
    let spans = [
        span(1, None, "job", 0, 50),
        span(2, Some(1), "level", 0, 20),
        span(3, Some(1), "level", 20, 45),
    ];
    let t = totals_by_name(&spans);
    assert_eq!(t["job"].count, 1);
    assert_eq!(t["job"].self_ns, 5);
    assert_eq!(t["level"].count, 2);
    assert_eq!(t["level"].total_ns, 45);
    assert_eq!(t["level"].self_ns, 45);
}

#[test]
fn tracer_links_children_to_their_parent() {
    let tracer = Tracer::new(true);
    let v = tracer.span("outer", None, 3, |id| {
        tracer.span("inner", id, 3, |_| 40) + 2
    });
    assert_eq!(v, 42);
    let spans = tracer.spans();
    assert_eq!(spans.len(), 2);
    let (inner, outer) = (&spans[0], &spans[1]);
    assert_eq!((inner.name, outer.name), ("inner", "outer"));
    assert_eq!(inner.parent, Some(outer.id));
    assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    let selfs = self_times(&spans);
    assert_eq!(selfs[&outer.id], outer.duration_ns() - inner.duration_ns());
}

#[test]
fn disabled_tracer_records_nothing() {
    let tracer = Tracer::new(false);
    let v = tracer.span("outer", None, 1, |id| {
        assert_eq!(id, None);
        5
    });
    assert_eq!(v, 5);
    assert!(tracer.spans().is_empty());
}

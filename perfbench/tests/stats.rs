//! Percentiles come from the sorted samples by nearest rank, and the
//! reported tail is the highest percentile with ten samples beyond it.

use qns_perfbench::stats::{
    beyond, interquartile_mean, median, percentile, rank, tail_quantile, Samples,
};
use std::time::Duration;

#[test]
fn nearest_rank_percentiles_of_one_to_hundred() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 0.50), 50);
    assert_eq!(percentile(&v, 0.95), 95);
    assert_eq!(percentile(&v, 0.99), 99);
    assert_eq!(percentile(&v, 1.0), 100);
    assert_eq!(percentile(&v, 0.001), 1);
    assert_eq!(percentile(&[7], 0.95), 7);
}

#[test]
fn rank_and_samples_beyond() {
    assert_eq!(rank(20, 0.5), 10);
    assert_eq!(rank(21, 0.5), 11);
    assert_eq!(rank(3, 0.0), 1);
    assert_eq!(beyond(100, 0.95), 5);
    assert_eq!(beyond(200, 0.95), 10);
    assert_eq!(beyond(1, 0.5), 0);
}

#[test]
fn tail_is_highest_percentile_with_ten_beyond() {
    assert_eq!(tail_quantile(1000), Some(0.99));
    assert_eq!(tail_quantile(999), Some(0.95));
    assert_eq!(tail_quantile(200), Some(0.95));
    assert_eq!(tail_quantile(100), Some(0.90));
    assert_eq!(tail_quantile(40), Some(0.75));
    assert_eq!(tail_quantile(20), Some(0.50));
    assert_eq!(tail_quantile(19), None);
}

#[test]
fn summary_reports_counts_and_exact_milliseconds() {
    let mut s = Samples::default();
    assert!(s.summary().is_none());
    // 1..=400 µs, pushed in reverse to exercise the sort.
    for us in (1..=400u64).rev() {
        s.push(Duration::from_micros(us));
    }
    let sum = s.summary().expect("samples recorded");
    assert_eq!(sum.count, 400);
    assert_eq!(sum.p50_ms, 0.2);
    assert_eq!(sum.p95_ms, 0.38);
    assert_eq!(sum.p95_beyond, 20);
    assert_eq!(sum.tail, Some((0.95, 0.38)));
}

#[test]
fn sub_microsecond_samples_are_not_rounded_to_zero() {
    let mut s = Samples::default();
    for ns in [300u64, 500, 700] {
        s.push(Duration::from_nanos(ns));
    }
    let sum = s.summary().expect("samples recorded");
    assert_eq!(sum.p50_ms, 0.0005);
    assert_eq!(sum.tail, None);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn interquartile_mean_drops_each_outer_quarter() {
    // Eight values: the two lowest and the two highest are dropped.
    assert_eq!(
        interquartile_mean(&[100.0, 4.0, 1.0, 3.0, 5.0, 6.0, -50.0, 2.0]),
        3.5
    );
    // Fewer than four values: nothing is dropped.
    assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
    assert!(interquartile_mean(&[]).is_nan());
    // Values split between two levels: moves by one step per value
    // changing level, where the median would jump from 1 to 2.
    assert_eq!(
        interquartile_mean(&[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]),
        1.5
    );
    assert_eq!(
        interquartile_mean(&[1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0]),
        1.75
    );
}

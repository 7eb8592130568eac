//! Inputs depend on the seed alone: a fixed seed gives identical specs
//! (by fingerprint) and request sequences, another seed different ones.

use qns_perfbench::gen::{self, SERVE_OBSERVABLES};
use qns_serve::Route;
use std::collections::BTreeSet;

fn fingerprints<R>(inputs: &gen::ServeInputs<R>) -> Vec<u128> {
    inputs
        .specs
        .iter()
        .map(|s| s.spec.fingerprint().as_u128())
        .collect()
}

#[test]
fn deep_sum_jobs_repeat_for_a_seed() {
    let fp = |seed| -> Vec<u128> {
        gen::deep_sum_jobs(seed)
            .iter()
            .map(|j| j.spec.fingerprint().as_u128())
            .collect()
    };
    assert_eq!(fp(11), fp(11));
    assert_ne!(fp(11), fp(12));
    assert_eq!(gen::deep_sum_jobs(11).len(), gen::DEEP_SUM_JOBS.len());
}

#[test]
fn serve_mixed_repeats_for_a_seed() {
    let (a, b, c) = (
        gen::serve_mixed(5),
        gen::serve_mixed(5),
        gen::serve_mixed(6),
    );
    assert_eq!(fingerprints(&a), fingerprints(&b));
    assert_eq!(a.requests, b.requests);
    assert_ne!(fingerprints(&a), fingerprints(&c));
    assert_ne!(a.requests, c.requests);
}

#[test]
fn serve_mixed_shape() {
    let inputs = gen::serve_mixed(5);
    let distinct: usize = gen::SERVE_MIX.iter().map(|&(_, n)| n).sum::<usize>() * SERVE_OBSERVABLES;
    assert_eq!(inputs.specs.len(), distinct);
    let fps: BTreeSet<u128> = fingerprints(&inputs).into_iter().collect();
    assert_eq!(
        fps.len(),
        distinct,
        "observables of one circuit are distinct"
    );
    let auto: Vec<_> = inputs
        .requests
        .iter()
        .filter(|r| r.route == Route::Auto)
        .collect();
    let pinned = inputs.requests.len() - auto.len();
    let repeats = auto.len() - distinct;
    let total = inputs.requests.len() as f64;
    assert!(
        (0.2..0.3).contains(&(repeats as f64 / total)),
        "{repeats} repeats of {total}"
    );
    assert!(
        (0.03..0.07).contains(&(pinned as f64 / total)),
        "{pinned} pinned of {total}"
    );
    // Every spec is submitted through Auto at least once.
    let seen: BTreeSet<usize> = auto.iter().map(|r| r.spec).collect();
    assert_eq!(seen.len(), distinct);
}

#[test]
fn refine_stream_repeats_for_a_seed_and_resubmits_after_the_first_calls() {
    let (a, b, c) = (
        gen::refine_stream(9),
        gen::refine_stream(9),
        gen::refine_stream(10),
    );
    assert_eq!(fingerprints(&a), fingerprints(&b));
    assert_eq!(a.requests, b.requests);
    assert_ne!(fingerprints(&a), fingerprints(&c));
    assert_ne!(a.requests, c.requests);
    let distinct = a.specs.len();
    let (first, repeats) = a.requests.split_at(distinct);
    let firsts: BTreeSet<usize> = first.iter().map(|r| r.spec).collect();
    assert_eq!(firsts.len(), distinct, "every spec is called once first");
    let mut deeper = 0;
    for r in repeats {
        assert_eq!(r.max_level, 3);
        let l = first
            .iter()
            .find(|f| f.spec == r.spec)
            .expect("repeat of a first call")
            .max_level;
        deeper += usize::from(l < 3);
    }
    assert_eq!(
        repeats.len() * 3,
        a.requests.len(),
        "a third of the calls repeat"
    );
    assert_eq!(deeper * 2, repeats.len(), "half the repeats go deeper");
    // Which specs repeat does not depend on the seed.
    let repeated = |inputs: &gen::ServeInputs<gen::RefineCall>| -> BTreeSet<usize> {
        inputs.requests[inputs.specs.len()..]
            .iter()
            .map(|r| r.spec)
            .collect()
    };
    assert_eq!(repeated(&a), repeated(&c));
    assert!(
        distinct <= 128,
        "every spec fits the default partial-sum cache"
    );
    for r in first {
        assert!((2..=3).contains(&r.max_level));
        let n = a.specs[r.spec].spec.noisy().noise_count();
        assert!((6..=10).contains(&n));
    }
}

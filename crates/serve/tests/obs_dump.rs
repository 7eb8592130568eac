//! A service's full metrics dump: with the tnet replay profiler
//! installed on the service's own registry, the JSON export of a
//! snapshot parses with the workspace's reader, carries exactly the
//! catalog's families, and counts full plan replays and environment
//! sweeps. The jobs run levels 0 and 1: level 0 replays the plan in
//! full and level 1 sweeps that same pattern, so no delta replay runs
//! (delta replays are counted by `qns-tnet`'s `zero_alloc` tests and
//! `contract_bench`'s delta section).
//!
//! One test function on purpose: the profiler switch is process-global,
//! so this binary must not run concurrent replays with it installed.

use qns_api::ApproxBackend;
use qns_circuit::generators::ghz;
use qns_noise::{channels, NoisyCircuit};
use qns_obs::{catalog, export, json};
use qns_serve::{JobSpec, ServiceBuilder};
use std::sync::Arc;

#[test]
fn profiled_service_dump_parses_covers_the_catalog_and_counts_replays() {
    let noisy = Arc::new(NoisyCircuit::inject_random(
        ghz(3),
        &channels::thermal_relaxation(30.0, 40.0, 25.0),
        3,
        5,
    ));
    let specs: Vec<JobSpec> = (0..2)
        .map(|bits| {
            JobSpec::new(
                Arc::clone(&noisy),
                qns_api::InitialState::zeros(3),
                qns_api::Observable::basis(3, bits),
            )
            .unwrap()
        })
        .collect();
    let service = ServiceBuilder::new()
        .workers(2)
        .engines(vec![Arc::new(ApproxBackend::level(1))])
        .build();

    qns_tnet::profile::install(&service.metrics_registry());
    // Each job twice at once (joins or cache hits), then once more
    // after everything resolved (cache hits).
    let handles: Vec<_> = specs
        .iter()
        .chain(&specs)
        .map(|spec| service.submit(spec).unwrap())
        .collect();
    for h in &handles {
        h.wait().unwrap();
    }
    for spec in &specs {
        service.submit(spec).unwrap().wait().unwrap();
    }
    qns_tnet::profile::uninstall();

    let snap = service.metrics_snapshot();
    let doc = json::parse(&export::to_json(&snap)).unwrap();
    let mut names: Vec<&str> = doc
        .get("metrics")
        .and_then(|m| m.as_array())
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap())
        .collect();
    let mut expected: Vec<&str> = catalog::CATALOG.iter().map(|d| d.name).collect();
    names.sort_unstable();
    expected.sort_unstable();
    assert_eq!(names, expected, "the dump carries exactly the catalog");

    let replays = |mode| {
        snap.counter_value_labeled("qns_tnet_replays_total", mode)
            .unwrap_or(0)
    };
    assert!(replays("full") > 0, "approx jobs replay compiled plans");
    assert!(
        replays("sweep") > 0,
        "the pattern sum's top level sweeps the installed parent"
    );
}

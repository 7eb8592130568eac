//! Cost-based routing: which engine runs which job.
//!
//! The router leans on the two hooks every [`Backend`] exposes:
//! [`Backend::supports`] (hard feasibility — the dense engine's qubit
//! cap, the approximation's term budget) and [`Backend::cost_hint`]
//! (a deterministic relative cost model). `Route::Auto` picks the
//! cheapest feasible engine; `Route::Fixed` pins one by name and lets
//! its own feasibility error surface.

use qns_api::{Backend, ExpectationJob, Fingerprint, QnsError};
use std::sync::Arc;

/// A backend shared across the service's worker threads.
pub type SharedBackend = Arc<dyn Backend + Send + Sync>;

/// The routing policy of a submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Pick the cheapest feasible engine by cost model (never an
    /// engine whose [`Backend::supports`] rejects the job).
    Auto,
    /// Pin the engine with this [`Backend::name`] (e.g. `"tdd"`).
    /// Unknown names and infeasible jobs surface as errors on the
    /// job's handle.
    Fixed(&'static str),
}

impl Route {
    /// Folds the route into a job fingerprint to form the service's
    /// cache key: the same job pinned to different engines may
    /// legitimately produce different estimates (approximation levels,
    /// sampling), so each route caches separately.
    pub fn cache_key(&self, fingerprint: Fingerprint) -> u128 {
        match self {
            Route::Auto => fingerprint.mix_str("route/auto").as_u128(),
            Route::Fixed(name) => fingerprint.mix_str("route/fixed").mix_str(name).as_u128(),
        }
    }
}

/// Selects the engine for `job` under `route`, returning its index
/// into `engines`.
///
/// `Route::Auto` keeps only engines whose [`Backend::supports`]
/// accepts the job, orders them by [`Backend::cost_hint`] (engines
/// without a model sort last), and breaks ties by registration order.
/// The selection is fully deterministic.
///
/// # Errors
///
/// [`QnsError::Unsupported`] when no engine can run the job (or a
/// fixed route names an unregistered engine); the fixed engine's own
/// feasibility error when it declines the job.
pub fn route_job(
    engines: &[SharedBackend],
    job: &ExpectationJob<'_>,
    route: Route,
) -> Result<usize, QnsError> {
    route_job_masked(engines, job, route, |_| true)
}

/// [`route_job`] with an availability mask: `Route::Auto` prefers
/// engines for which `allowed(index)` holds (the fault-tolerance layer
/// passes "breaker not open and not already failed for this job").
///
/// The mask is a *preference*, not a veto: if it disqualifies every
/// feasible engine, Auto falls back to the unmasked cheapest feasible
/// one — an open breaker or an exhausted failover list must degrade to
/// "try the best engine anyway", never to an artificial
/// [`QnsError::Unsupported`] for a job the fleet can run.
/// `Route::Fixed` ignores the mask entirely: a pinned engine is pinned
/// through its own breaker, and retries of a fixed route re-run the
/// same engine by design.
///
/// # Errors
///
/// As for [`route_job`].
pub fn route_job_masked(
    engines: &[SharedBackend],
    job: &ExpectationJob<'_>,
    route: Route,
    allowed: impl Fn(usize) -> bool,
) -> Result<usize, QnsError> {
    match route {
        Route::Fixed(name) => {
            let idx = engines
                .iter()
                .position(|e| e.name() == name)
                .ok_or_else(|| QnsError::Unsupported {
                    backend: "serve-router",
                    reason: format!("no engine named `{name}` is registered"),
                })?;
            engines[idx].supports(job)?;
            Ok(idx)
        }
        Route::Auto => {
            let cheapest_feasible = |mask: &dyn Fn(usize) -> bool| {
                engines
                    .iter()
                    .enumerate()
                    .filter(|(i, e)| mask(*i) && e.supports(job).is_ok())
                    // Engines without a cost model are last-resort
                    // candidates.
                    .min_by_key(|(_, e)| e.cost_hint(job).unwrap_or(u128::MAX))
                    .map(|(i, _)| i)
            };
            cheapest_feasible(&|i| allowed(i))
                .or_else(|| cheapest_feasible(&|_| true))
                .ok_or_else(|| QnsError::Unsupported {
                    backend: "serve-router",
                    reason: format!(
                        "none of the {} registered engines supports this job",
                        engines.len()
                    ),
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qns_api::{ApproxBackend, DensityBackend, Simulation, TnetBackend};
    use qns_circuit::generators::ghz;
    use qns_noise::{channels, NoisyCircuit};

    fn engines() -> Vec<SharedBackend> {
        vec![
            Arc::new(DensityBackend::new()),
            Arc::new(ApproxBackend::level(1)),
            Arc::new(TnetBackend::new()),
        ]
    }

    #[test]
    fn auto_never_selects_an_unsupported_engine() {
        // 16 qubits: beyond the dense cap (12); Auto must route around
        // it even though dense is registered first.
        let noisy = NoisyCircuit::inject_random(ghz(16), &channels::depolarizing(1e-3), 4, 11);
        let job = Simulation::new(&noisy).build().unwrap();
        let engines = engines();
        assert!(
            engines[0].supports(&job).is_err(),
            "premise: dense declines"
        );
        let picked = route_job(&engines, &job, Route::Auto).unwrap();
        assert_ne!(engines[picked].name(), "density");
    }

    #[test]
    fn auto_picks_the_cheapest_feasible_engine() {
        let noisy = NoisyCircuit::inject_random(ghz(6), &channels::depolarizing(1e-3), 8, 11);
        let job = Simulation::new(&noisy).build().unwrap();
        let engines = engines();
        let picked = route_job(&engines, &job, Route::Auto).unwrap();
        let cost = |i: usize| engines[i].cost_hint(&job).unwrap_or(u128::MAX);
        for i in 0..engines.len() {
            assert!(cost(picked) <= cost(i), "{} beat by {}", picked, i);
        }
        // Deterministic: routing twice picks the same engine.
        assert_eq!(picked, route_job(&engines, &job, Route::Auto).unwrap());
    }

    #[test]
    fn fixed_routes_by_name_and_surfaces_feasibility() {
        let noisy = NoisyCircuit::inject_random(ghz(16), &channels::depolarizing(1e-3), 2, 11);
        let job = Simulation::new(&noisy).build().unwrap();
        let engines = engines();

        let idx = route_job(&engines, &job, Route::Fixed("tnet")).unwrap();
        assert_eq!(engines[idx].name(), "tnet");

        // Pinning the infeasible dense engine errors instead of routing
        // around it — Fixed means fixed.
        assert!(matches!(
            route_job(&engines, &job, Route::Fixed("density")),
            Err(QnsError::Unsupported {
                backend: "density",
                ..
            })
        ));

        assert!(matches!(
            route_job(&engines, &job, Route::Fixed("nonesuch")),
            Err(QnsError::Unsupported {
                backend: "serve-router",
                ..
            })
        ));
    }

    #[test]
    fn mask_excludes_engines_but_never_strands_a_feasible_job() {
        let noisy = NoisyCircuit::inject_random(ghz(6), &channels::depolarizing(1e-3), 8, 11);
        let job = Simulation::new(&noisy).build().unwrap();
        let engines = engines();
        let cheapest = route_job(&engines, &job, Route::Auto).unwrap();

        // Excluding the winner re-routes to the next-cheapest engine.
        let second = route_job_masked(&engines, &job, Route::Auto, |i| i != cheapest).unwrap();
        assert_ne!(second, cheapest);

        // Excluding everything falls back to the unmasked winner
        // instead of erroring — the mask is a preference, not a veto.
        let fallback = route_job_masked(&engines, &job, Route::Auto, |_| false).unwrap();
        assert_eq!(fallback, cheapest);

        // Fixed ignores the mask: pinned is pinned.
        let pinned = route_job_masked(&engines, &job, Route::Fixed("tnet"), |_| false).unwrap();
        assert_eq!(engines[pinned].name(), "tnet");
    }

    #[test]
    fn default_engines_rank_approx_then_tnet_on_paper_jobs() {
        use crate::service::default_engines;
        use qns_circuit::generators::{hf_vqe, qaoa_grid_random};

        // The registry's hf_12 and qaoa_25 circuits with 4 thermal
        // sites: Auto runs approx, and the first failover is the exact
        // tensor-network engine on both.
        let channel = channels::thermal_relaxation(30.0, 40.0, 25.0);
        let engines = default_engines();
        for circuit in [hf_vqe(12, 6, 13), qaoa_grid_random(5, 5, 2, 23)] {
            let noisy = NoisyCircuit::inject_random(circuit, &channel, 4, 7);
            let job = Simulation::new(&noisy).build().unwrap();
            let first = route_job(&engines, &job, Route::Auto).unwrap();
            let second = route_job_masked(&engines, &job, Route::Auto, |i| i != first).unwrap();
            assert_eq!(
                [engines[first].name(), engines[second].name()],
                ["approx", "tnet"],
                "{} qubits",
                job.n_qubits()
            );
        }
    }

    #[test]
    fn routes_cache_under_distinct_keys() {
        let noisy = NoisyCircuit::noiseless(ghz(3));
        let fp = Simulation::new(&noisy).build().unwrap().fingerprint();
        let auto = Route::Auto.cache_key(fp);
        let fixed = Route::Fixed("tdd").cache_key(fp);
        let fixed2 = Route::Fixed("tnet").cache_key(fp);
        assert_ne!(auto, fixed);
        assert_ne!(fixed, fixed2);
        // …but the keys are stable across calls.
        assert_eq!(auto, Route::Auto.cache_key(fp));
    }
}

//! Seeded workload inputs. Everything a workload sends to the program
//! under test is generated here from the `--seed` argument alone.
//!
//! The seed picks observables, submission order and, in `serve_mixed`,
//! which requests repeat and which are pinned to an exact engine. The
//! circuits, noise counts and noise placements are part of the workload
//! and fixed: placement sets the contraction width, hence a job's cost,
//! so fixing it keeps the work of a pass independent of the seed and
//! the run-to-run spread small.

use qns_api::{InitialState, Observable};
use qns_bench::registry::{default_set, full_set};
use qns_circuit::Circuit;
use qns_noise::{channels, Kraus, NoisyCircuit};
use qns_serve::{JobSpec, Route};
use std::sync::Arc;

/// SplitMix64 (Steele, Lea and Flood): a tiny seeded generator.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The noise channel of every workload (T1 = 30 µs, T2 = 40 µs,
/// 25 ns gates), as in the serving benches.
pub fn channel() -> Kraus {
    channels::thermal_relaxation(30.0, 40.0, 25.0)
}

fn registry_circuit(set: &[qns_bench::registry::BenchCircuit], name: &str) -> Circuit {
    set.iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("registry has no circuit {name}"))
        .circuit
        .clone()
}

/// `count` distinct random basis states of `n` qubits.
fn distinct_bits(rng: &mut SplitMix64, n: usize, count: usize) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(count);
    while out.len() < count {
        let b = rng.below(1 << n);
        if !out.contains(&b) {
            out.push(b);
        }
    }
    out
}

/// One `deep_sum` job: a paper-family circuit with a fixed noise
/// placement, its approximation level and a seeded observable.
#[derive(Clone, Debug)]
pub struct DeepJob {
    /// Registry name of the circuit.
    pub name: &'static str,
    /// The job (noisy circuit, `|0…0⟩` input, basis observable).
    pub spec: JobSpec,
    /// Approximation level.
    pub level: usize,
}

/// `(circuit, noises, level, placement seed)` of the `deep_sum` pass.
/// Balanced so no job takes more than about 40 % of the pass on two
/// threads. The placements keep the exact double-network contraction
/// of every job up to 16 qubits narrow (at most 2^18-element
/// intermediates), so each answer can be checked in well under a
/// second.
pub const DEEP_SUM_JOBS: [(&str, usize, usize, u64); 5] = [
    ("qaoa_16", 12, 3, 0xD5EE),
    ("inst_4x4_16", 9, 3, 0xD5F0),
    ("hf_12", 12, 3, 0xD5EE),
    ("qaoa_25", 12, 2, 0xD5EB),
    ("inst_3x4_8", 32, 3, 0xD5E9),
];

/// The `deep_sum` job list. Noise placement is fixed per job (it sets
/// the network shape, hence the cost); the seed picks the observables.
pub fn deep_sum_jobs(seed: u64) -> Vec<DeepJob> {
    let set = full_set();
    let mut rng = SplitMix64::new(seed);
    let ch = channel();
    DEEP_SUM_JOBS
        .iter()
        .map(|&(name, noises, level, placement)| {
            let noisy =
                NoisyCircuit::inject_random(registry_circuit(&set, name), &ch, noises, placement);
            let n = noisy.n_qubits();
            let bits = rng.below(1 << n);
            let spec = JobSpec::new(noisy, InitialState::zeros(n), Observable::basis(n, bits))
                .expect("qubit counts match by construction");
            DeepJob { name, spec, level }
        })
        .collect()
}

/// A distinct job of a service workload.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// Registry name of the circuit.
    pub name: &'static str,
    /// The job.
    pub spec: JobSpec,
}

/// One `serve_mixed` submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Submission {
    /// Index into [`ServeInputs::specs`].
    pub spec: usize,
    /// `Route::Auto`, or an exact engine pinned by name.
    pub route: Route,
}

/// One `refine_stream` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefineCall {
    /// Index into [`ServeInputs::specs`].
    pub spec: usize,
    /// Deepest level requested.
    pub max_level: usize,
}

/// Distinct jobs plus the request sequence of one pass.
#[derive(Clone, Debug)]
pub struct ServeInputs<R> {
    /// Distinct jobs.
    pub specs: Vec<ServeSpec>,
    /// Requests in submission order.
    pub requests: Vec<R>,
}

/// Noisy circuits per `default_set` circuit in `serve_mixed`; each
/// carries [`SERVE_OBSERVABLES`] observables. The weights put the
/// median request inside the 4–7 ms group (`hf_8`, `inst_3x3_8`,
/// `inst_3x4_8`) and the 95th percentile inside the ~30 ms `qaoa_12`
/// group, away from the steps between groups, so both percentiles are
/// steady from run to run.
pub const SERVE_MIX: [(&str, usize); 9] = [
    ("hf_6", 6),
    ("inst_2x3_8", 6),
    ("hf_8", 12),
    ("inst_3x3_8", 12),
    ("inst_3x4_8", 12),
    ("qaoa_9", 6),
    ("hf_10", 6),
    ("qaoa_12", 12),
    ("qaoa_16", 1),
];

/// Observables per noisy circuit in `serve_mixed`: specs that share a
/// noisy circuit have the same network topology.
pub const SERVE_OBSERVABLES: usize = 3;

/// Circuits whose exact `tnet` (resp. `density`) run takes well under
/// 100 ms, so pinning them measures the exact baselines cheaply.
const TNET_PINNABLE: [&str; 5] = ["hf_6", "hf_8", "inst_2x3_8", "inst_3x3_8", "inst_3x4_8"];
const DENSITY_PINNABLE: [&str; 3] = ["hf_6", "hf_8", "inst_2x3_8"];

/// Noisy circuits per `default_set` circuit in `refine_stream` (two
/// observables each, so 128 specs: every one fits the service's default
/// 128-entry partial-sum cache, and every repeat finds its levels). The
/// slow `qaoa_12`/`qaoa_16` are left out so a level-3 pass stays near a
/// second. Even counts give each circuit as many deeper as same-level
/// repeats.
pub const REFINE_MIX: [(&str, usize); 7] = [
    ("hf_6", 12),
    ("hf_8", 10),
    ("hf_10", 4),
    ("qaoa_9", 6),
    ("inst_2x3_8", 12),
    ("inst_3x3_8", 12),
    ("inst_3x4_8", 8),
];

/// Base of the fixed noise-placement seeds of the service mixes.
const PLACEMENT_SEED: u64 = 0x5E17E;

/// Builds the distinct specs of a mix: noise counts cycle through
/// `noises` across the mix, placements are fixed per noisy circuit and
/// observables are drawn from `rng`.
fn mix_specs(
    rng: &mut SplitMix64,
    mix: &[(&'static str, usize)],
    noises: std::ops::RangeInclusive<usize>,
    observables: usize,
) -> Vec<ServeSpec> {
    let set = default_set();
    let ch = channel();
    let noise_counts: Vec<usize> = noises.collect();
    let mut k = 0;
    let mut specs = Vec::new();
    for &(name, copies) in mix {
        let circuit = registry_circuit(&set, name);
        for _ in 0..copies {
            let n_noise = noise_counts[k % noise_counts.len()];
            k += 1;
            let noisy = Arc::new(NoisyCircuit::inject_random(
                circuit.clone(),
                &ch,
                n_noise,
                PLACEMENT_SEED + k as u64,
            ));
            let n = noisy.n_qubits();
            for bits in distinct_bits(rng, n, observables) {
                let spec = JobSpec::new(
                    Arc::clone(&noisy),
                    InitialState::zeros(n),
                    Observable::basis(n, bits),
                )
                .expect("qubit counts match by construction");
                specs.push(ServeSpec { name, spec });
            }
        }
    }
    specs
}

/// Orders `originals` randomly and adds `repeats` copies of random
/// originals, each placed after its original: half of them right
/// behind it, the others after a random later original.
fn interleave(
    rng: &mut SplitMix64,
    mut originals: Vec<Submission>,
    repeats: usize,
) -> Vec<Submission> {
    rng.shuffle(&mut originals);
    let n = originals.len();
    // Keys: original `i` sorts at `4i`; an adjacent repeat at `4i + 1`;
    // a later repeat at `4j + 2` for a random later original `j`.
    let mut keyed: Vec<(usize, Submission)> = originals
        .iter()
        .enumerate()
        .map(|(i, &r)| (4 * i, r))
        .collect();
    for _ in 0..repeats {
        let i = rng.below(n);
        let adjacent = rng.below(2) == 0;
        let key = if adjacent || i + 1 == n {
            4 * i + 1
        } else {
            4 * (i + 1 + rng.below(n - i - 1)) + 2
        };
        keyed.push((key, originals[i]));
    }
    keyed.sort_by_key(|&(k, _)| k);
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// The `serve_mixed` pass: level-1 jobs on `default_set` circuits with
/// 2–8 noises. A quarter of the submissions repeat an earlier spec
/// (half of them right behind it, so they may join it in flight), and
/// about 5 % pin an exact engine on a cheap circuit.
pub fn serve_mixed(seed: u64) -> ServeInputs<Submission> {
    let mut rng = SplitMix64::new(seed);
    let specs = mix_specs(&mut rng, &SERVE_MIX, 2..=8, SERVE_OBSERVABLES);
    let originals: Vec<Submission> = (0..specs.len())
        .map(|spec| Submission {
            spec,
            route: Route::Auto,
        })
        .collect();
    let repeats = specs.len() / 3;
    let pinned = (specs.len() + repeats) / 19;
    let mut requests = interleave(&mut rng, originals, repeats);
    // Pins cycle through the (engine, circuit) pairs so every seed pins
    // the same circuits; the seed picks the observable and position.
    let pairs: Vec<(&'static str, &'static str)> = TNET_PINNABLE
        .iter()
        .map(|&c| ("tnet", c))
        .chain(DENSITY_PINNABLE.iter().map(|&c| ("density", c)))
        .collect();
    for k in 0..pinned {
        let (engine, circuit) = pairs[k % pairs.len()];
        let candidates: Vec<usize> = (0..specs.len())
            .filter(|&i| specs[i].name == circuit)
            .collect();
        let spec = candidates[rng.below(candidates.len())];
        let at = rng.below(requests.len() + 1);
        requests.insert(
            at,
            Submission {
                spec,
                route: Route::Fixed(engine),
            },
        );
    }
    ServeInputs { specs, requests }
}

/// The `refine_stream` pass: refinements of `default_set` jobs with
/// 6–10 noises. First calls ask for level 2 or 3, alternately. Then,
/// after every first call has been answered, half of the specs are
/// resubmitted at level 3 (a third of all calls): per noisy circuit
/// alternately its level-2 spec, which resumes from the cached levels
/// 0–2 and computes level 3, and its level-3 spec, which is served
/// from the cache alone. Which specs repeat is fixed, so every seed does
/// the same work; the seed picks observables and the order within each
/// phase. `requests[..specs.len()]` are the first calls.
pub fn refine_stream(seed: u64) -> ServeInputs<RefineCall> {
    let mut rng = SplitMix64::new(seed);
    let specs = mix_specs(&mut rng, &REFINE_MIX, 6..=10, 2);
    let mut requests: Vec<RefineCall> = (0..specs.len())
        .map(|spec| RefineCall {
            spec,
            max_level: 2 + spec % 2,
        })
        .collect();
    // Specs 2k and 2k+1 share noisy circuit k: repeat 2k for even k,
    // 2k+1 for odd k.
    let mut repeats: Vec<RefineCall> = (0..specs.len())
        .filter(|&spec| spec % 4 == 0 || spec % 4 == 3)
        .map(|spec| RefineCall { spec, max_level: 3 })
        .collect();
    rng.shuffle(&mut requests);
    rng.shuffle(&mut repeats);
    requests.extend(repeats);
    ServeInputs { specs, requests }
}

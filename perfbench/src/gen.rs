//! Seed-to-workload generation. Everything a run feeds the system —
//! tuning seeds, the daemon's request stream and program shapes, the VM's
//! input tensors — is a pure function of the `--seed` argument and the
//! workload name.

use tir::{DataType, PrimFunc};
use tir_exec::{Machine, Tensor};
use tir_graph::{models, ModelSpec};
use tir_workloads::ops;

/// SplitMix64: a small, well-mixed generator, so generation does not
/// depend on any crate under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent sub-seed for one use of the run seed.
pub fn derive(seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    Rng::new(h).next_u64()
}

/// The two workloads: one simulated machine each, with its data type and
/// its evaluation models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// SimGpu in float16 (tensor-core intrinsics).
    Gpu,
    /// SimArm in int8 (dot-product intrinsics).
    Arm,
}

impl Target {
    pub const ALL: [Target; 2] = [Target::Gpu, Target::Arm];

    pub fn name(self) -> &'static str {
        match self {
            Target::Gpu => "gpu_f16",
            Target::Arm => "arm_int8",
        }
    }

    pub fn from_name(name: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.name() == name)
    }

    pub fn machine(self) -> Machine {
        match self {
            Target::Gpu => Machine::sim_gpu(),
            Target::Arm => Machine::sim_arm(),
        }
    }

    /// Machine name on the daemon's wire protocol.
    pub fn wire(self) -> &'static str {
        match self {
            Target::Gpu => "gpu",
            Target::Arm => "arm",
        }
    }

    pub fn dtype(self) -> DataType {
        match self {
            Target::Gpu => DataType::float16(),
            Target::Arm => DataType::int8(),
        }
    }

    /// The models the compile phase builds: the paper's GPU models in
    /// float16, or its ARM models in int8.
    pub fn models(self) -> Vec<ModelSpec> {
        let dt = self.dtype();
        match self {
            Target::Gpu => vec![
                models::resnet50(dt),
                models::bert_large(dt),
                models::vit_base(dt),
            ],
            Target::Arm => vec![models::mobilenet_v2(dt), models::resnet50(dt)],
        }
    }

    /// The four operators the VM phase runs, unscheduled. Fixed shapes:
    /// only their input values depend on the seed.
    pub fn vm_ops(self) -> Vec<PrimFunc> {
        let dt = self.dtype();
        vec![
            ops::gmm(128, 128, 128, dt, ops::accumulator_of(dt)),
            ops::c2d(1, 18, 18, 32, 32, 3, 3, 1, dt),
            ops::c1d(4, 66, 64, 64, 3, 1, dt),
            ops::dep(1, 32, 32, 16, 3, 3, 1, dt),
        ]
    }
}

/// One operator shape the daemon is asked to tune.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Shape {
    Gmm { m: i64, n: i64, k: i64 },
    C1d { l: i64, ci: i64, co: i64 },
    C2d { h: i64, ci: i64, co: i64 },
    Dep { h: i64, c: i64 },
}

impl Shape {
    pub fn func(self, dt: DataType) -> PrimFunc {
        match self {
            Shape::Gmm { m, n, k } => ops::gmm(m, n, k, dt, ops::accumulator_of(dt)),
            Shape::C1d { l, ci, co } => ops::c1d(1, l + 2, ci, co, 3, 1, dt),
            Shape::C2d { h, ci, co } => ops::c2d(1, h + 2, h + 2, ci, co, 3, 3, 1, dt),
            Shape::Dep { h, c } => ops::dep(1, h + 2, h + 2, c, 3, 3, 1, dt),
        }
    }
}

/// Every shape the daemon may see, in a seeded order. The first
/// [`WARM_SET`] are tuned during set-up and form the warm set; the rest
/// are handed out once each to cold requests, so every cold request is a
/// fingerprint the database has never seen.
pub fn shape_pool(seed: u64) -> Vec<Shape> {
    let dims = [16i64, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192];
    let chans = [16i64, 32, 48, 64];
    let mut pool = Vec::new();
    for &m in &dims {
        for &n in &dims {
            for &k in &dims {
                pool.push(Shape::Gmm { m, n, k });
            }
        }
    }
    for l in [16i64, 32, 64] {
        for &ci in &chans {
            for &co in &chans {
                pool.push(Shape::C1d { l, ci, co });
            }
        }
    }
    for h in [8i64, 12, 16] {
        for &ci in &chans {
            for &co in &chans {
                pool.push(Shape::C2d { h, ci, co });
            }
        }
    }
    for h in [16i64, 32, 64] {
        for c in [16i64, 32, 48, 64, 96] {
            pool.push(Shape::Dep { h, c });
        }
    }
    let mut rng = Rng::new(derive(seed, "shape_pool"));
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i + 1));
    }
    pool
}

/// Fingerprints tuned in set-up and asked for again by warm requests.
pub const WARM_SET: usize = 8;
/// One request in this many is a cold tune of a fresh shape (~3%). Cold
/// requests are spaced evenly, at a seeded phase: with random spacing
/// the number of warm requests between two colds is geometric, and a
/// time-boxed loop's request count would mostly measure that draw.
pub const COLD_EVERY: usize = 33;

/// One request of the daemon's closed-loop stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// A warm-set fingerprint, as a `query` or as a `tune` at the stored
    /// budget.
    Warm { idx: usize, tune: bool },
    /// The next fresh shape of the pool, as a `tune`.
    Cold,
}

/// The first `n` requests of the seeded stream. The clients take them in
/// order from a shared cursor, so the stream, not the clients' timing,
/// decides what is asked.
pub fn request_stream(seed: u64, n: usize) -> Vec<Req> {
    let mut rng = Rng::new(derive(seed, "request_stream"));
    let phase = rng.below(COLD_EVERY);
    (0..n)
        .map(|i| {
            if i % COLD_EVERY == phase {
                Req::Cold
            } else {
                Req::Warm {
                    idx: rng.below(WARM_SET),
                    tune: rng.below(2) == 0,
                }
            }
        })
        .collect()
}

/// Seeded random inputs for `func` (zeros for the output, its last
/// parameter).
pub fn vm_inputs(func: &PrimFunc, seed: u64) -> Vec<Tensor> {
    let base = derive(seed, &func.name);
    let last = func.params.len() - 1;
    func.params
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if i == last {
                Tensor::zeros(p.dtype(), p.shape())
            } else {
                Tensor::random(p.dtype(), p.shape(), base.wrapping_add(i as u64))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_and_pool() {
        assert_eq!(request_stream(7, 5000), request_stream(7, 5000));
        assert_eq!(shape_pool(7), shape_pool(7));
        let f = Target::Arm.vm_ops().remove(0);
        assert_eq!(vm_inputs(&f, 7), vm_inputs(&f, 7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(request_stream(7, 5000), request_stream(8, 5000));
        assert_ne!(shape_pool(7)[..WARM_SET], shape_pool(8)[..WARM_SET]);
        let f = Target::Gpu.vm_ops().remove(0);
        assert_ne!(vm_inputs(&f, 7), vm_inputs(&f, 8));
        assert_ne!(derive(7, "a"), derive(8, "a"));
        assert_ne!(derive(7, "a"), derive(7, "b"));
    }

    #[test]
    fn stream_mix_and_pool_freshness() {
        let s = request_stream(3, 20_000);
        let cold: Vec<usize> = (0..s.len()).filter(|&i| s[i] == Req::Cold).collect();
        assert!(cold.windows(2).all(|w| w[1] - w[0] == COLD_EVERY));
        assert_eq!(cold.len(), s.len() / COLD_EVERY);
        let warm: HashSet<usize> = s
            .iter()
            .filter_map(|r| match r {
                Req::Warm { idx, .. } => Some(*idx),
                Req::Cold => None,
            })
            .collect();
        assert_eq!(warm.len(), WARM_SET);
        let pool = shape_pool(3);
        let distinct: HashSet<Shape> = pool.iter().copied().collect();
        assert_eq!(distinct.len(), pool.len(), "every pool shape is fresh");
        assert!(pool.len() > 1800);
    }

    #[test]
    fn workload_names_round_trip() {
        for t in Target::ALL {
            assert_eq!(Target::from_name(t.name()), Some(t));
        }
        assert_eq!(Target::from_name("nope"), None);
    }
}

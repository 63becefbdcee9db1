//! Golden outputs of candidate materialization and search.
//!
//! Every schedule primitive must produce exactly the program it produced
//! when these digests were recorded: a faster rewrite path, a different
//! rollback strategy or a change in how the target node is found may not
//! move a single statement. Each sketch materializes 32 seeded decision
//! vectors (`SketchRule::apply`), and each workload runs a 64-trial tune;
//! the digests cover the structural hash and the printed text of every
//! program, which candidates fail, the best program and the bit patterns
//! of `best_time` and `history`.
//!
//! The table holds in both build profiles: debug builds re-verify the
//! program after every primitive (`Schedule::auto_verify`) and keep a
//! rollback snapshot, release builds do neither. On a mismatch the test
//! prints the full table it computed.

use tir::structural::structural_hash;
use tir::{DataType, PrimFunc};
use tir_autoschedule::{build_sketches, tune_workload, Strategy, TuneOptions};
use tir_exec::Machine;
use tir_rand::{rngs::StdRng, SeedableRng};
use tir_tensorize::builtin_registry;
use tir_workloads::{c2d, fuse_epilogue, gmm, t2d, Epilogue};

const DECISION_VECTORS: usize = 32;

/// FNV-1a over a sequence of words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Structural hash plus a hash of the printed text, which also pins
/// variable and block names.
fn program_words(f: &PrimFunc) -> [u64; 2] {
    [
        structural_hash(f),
        digest(f.to_string().bytes().map(u64::from)),
    ]
}

fn cases() -> Vec<(&'static str, PrimFunc, Machine, Strategy)> {
    let f16 = DataType::float16();
    let i8 = DataType::int8();
    let conv_f16 = c2d(1, 10, 10, 32, 32, 3, 3, 1, f16);
    vec![
        (
            "gmm/gpu",
            gmm(64, 64, 64, f16, DataType::float32()),
            Machine::sim_gpu(),
            Strategy::TensorIr,
        ),
        (
            "gmm/arm",
            gmm(64, 64, 64, i8, DataType::int32()),
            Machine::sim_arm(),
            Strategy::TensorIr,
        ),
        (
            "c2d/gpu",
            conv_f16.clone(),
            Machine::sim_gpu(),
            Strategy::TensorIr,
        ),
        (
            "c2d/arm",
            c2d(1, 10, 10, 32, 32, 3, 3, 1, i8),
            Machine::sim_arm(),
            Strategy::TensorIr,
        ),
        (
            "c2d_bias_relu/gpu",
            fuse_epilogue(
                &conv_f16,
                &[Epilogue::BiasAdd, Epilogue::Relu],
                "c2d_bias_relu",
            ),
            Machine::sim_gpu(),
            Strategy::TensorIr,
        ),
        (
            "t2d/gpu-scalar",
            t2d(1, 6, 6, 16, 16, 4, 4, 2, DataType::float32()),
            Machine::sim_gpu(),
            Strategy::Ansor,
        ),
    ]
}

fn compute_table() -> Vec<(String, u64)> {
    let registry = builtin_registry();
    let mut table = Vec::new();
    for (label, func, machine, strategy) in cases() {
        let sketches = build_sketches(&func, &machine, &registry, strategy);
        for (k, sketch) in sketches.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x601d + k as u64);
            let mut words = Vec::new();
            for _ in 0..DECISION_VECTORS {
                let decisions = sketch.sample(&mut rng);
                match sketch.apply(&decisions) {
                    Ok(f) => words.extend(program_words(&f)),
                    Err(_) => words.push(0),
                }
            }
            table.push((
                format!("{label} apply {}#{k}", sketch.name()),
                digest(words),
            ));
        }
        let opts = TuneOptions {
            trials: 64,
            num_threads: 1,
            ..TuneOptions::default()
        };
        let r = tune_workload(&func, &machine, &registry, strategy, &opts);
        let best = r.best.as_ref().expect("every golden workload tunes");
        let mut words = program_words(best).to_vec();
        words.push(r.best_time.to_bits());
        words.push(r.tuning_cost_s.to_bits());
        words.extend(r.history.iter().map(|t| t.to_bits()));
        table.push((format!("{label} tune"), digest(words)));
    }
    table
}

const GOLDEN: &[(&str, u64)] = &[
    (
        "gmm/gpu apply gpu-tensor[dot_4x4x4_f32]#0",
        0xbdc191d2241dfa25,
    ),
    ("gmm/gpu apply gpu-scalar#1", 0x696090841ac3d7df),
    ("gmm/gpu tune", 0xa1c24b7e54817fef),
    (
        "gmm/arm apply cpu-tensor[sdot_4x4x4_i8]#0",
        0x608f42ecea07936b,
    ),
    ("gmm/arm apply cpu-scalar#1", 0xb5231eb51fb9e3fb),
    ("gmm/arm tune", 0x419980d18b25068a),
    (
        "c2d/gpu apply gpu-tensor[wmma_16x16x16_f16]#0",
        0x63e7e4fab4fde3a0,
    ),
    ("c2d/gpu apply gpu-scalar#1", 0x5bb38efe7e24f822),
    ("c2d/gpu tune", 0x43e23f21fcf264e4),
    (
        "c2d/arm apply cpu-tensor[sdot_4x4x4_i8]#0",
        0x4a5e02c2a837c615,
    ),
    ("c2d/arm apply cpu-scalar#1", 0x655ecc2be0151756),
    ("c2d/arm tune", 0x4df811e7991ac660),
    (
        "c2d_bias_relu/gpu apply gpu-tensor[wmma_16x16x16_f16]#0",
        0xed5aa39cfad60808,
    ),
    ("c2d_bias_relu/gpu apply gpu-scalar#1", 0x74b3c89b5ead63f4),
    ("c2d_bias_relu/gpu tune", 0x9a2271e1a182e119),
    ("t2d/gpu-scalar apply gpu-scalar#0", 0x8f421ff7d1ffc9f6),
    ("t2d/gpu-scalar tune", 0x5f27e4b5376b0dbd),
];

#[test]
fn materialization_and_search_match_the_golden_digests() {
    let actual = compute_table();
    let same = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|((name, d), (en, ed))| name == en && d == ed);
    if !same {
        let rows: String = actual
            .iter()
            .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
            .collect();
        panic!("golden digests differ; computed table:\n&[\n{rows}]");
    }
}

//! The search is a pure function of its inputs within one process: two
//! identical `tune_workload` calls must agree bit for bit. The roofline
//! model sums per-scope traffic and per-intrinsic MACs in floating point,
//! so any iteration order that varies between map instances (a randomly
//! seeded `HashMap`) leaks into the cost model and the search trajectory.

use tir::DataType;
use tir_autoschedule::{tune_workload, Strategy, TuneOptions};
use tir_exec::Machine;
use tir_graph::{fuse_graph, resnet50};
use tir_tensorize::builtin_registry;

#[test]
fn repeated_tunes_in_one_process_are_bit_identical() {
    let kernel = fuse_graph(&resnet50(DataType::float16()))
        .into_iter()
        .find(|g| g.name == "r50_s1_c3_add_relu")
        .and_then(|g| g.func)
        .expect("ResNet-50 fuses r50_s1_c3 with its residual add and relu");
    let machine = Machine::sim_gpu();
    let registry = builtin_registry();
    let opts = TuneOptions {
        num_threads: 1,
        ..TuneOptions::default()
    };
    let tune = || tune_workload(&kernel, &machine, &registry, Strategy::TensorIr, &opts);
    let (a, b) = (tune(), tune());
    let bits = |h: &[f64]| h.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.history), bits(&b.history), "history differs");
    assert_eq!(a.best_time.to_bits(), b.best_time.to_bits());
    assert_eq!(a.tuning_cost_s.to_bits(), b.tuning_cost_s.to_bits());
    assert_eq!(
        a.best.map(|f| f.to_string()),
        b.best.map(|f| f.to_string()),
        "best program differs"
    );
}

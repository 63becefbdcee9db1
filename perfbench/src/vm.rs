//! VM phase: `run_with(.., ExecBackend::Vm, ..)` over four operators, each
//! unscheduled and as its tuned best program, checked against the
//! tree-walking interpreter on the unscheduled program.

use std::time::Instant;

use tir::PrimFunc;
use tir_autoschedule::{tune_workload, Strategy, TuneOptions};
use tir_exec::{
    compile, compile_optimized, run_with, ExecBackend, InstrMixProfile, Machine, Tensor,
};
use tir_tensorize::IntrinRegistry;

use crate::gen;
use crate::report::{Metrics, Tally};
use crate::stats::{geomean, median};

/// Seed of the set-up tunes: the tuned programs are the same in every
/// run, only their inputs follow the run seed.
const TUNE_SEED: u64 = 42;
/// Timed repetitions of each bytecode compile in the traced run.
const COMPILE_REPS: usize = 5;
/// Superinstructions the bytecode optimizer emits.
const FUSED_OPS: [&str; 6] = [
    "load_cast",
    "bin_store",
    "store_const",
    "fused_acc",
    "fused_mac",
    "mac_lanes",
];

pub struct VmProg {
    pub name: String,
    pub tuned: bool,
    pub func: PrimFunc,
    pub args: Vec<Tensor>,
}

/// Tunes each operator with the fixed seed and pairs both forms with the
/// run's seeded inputs.
pub fn setup(
    ops: Vec<PrimFunc>,
    machine: &Machine,
    intrins: &IntrinRegistry,
    seed: u64,
) -> Result<Vec<VmProg>, String> {
    let opts = TuneOptions {
        num_threads: 1,
        seed: TUNE_SEED,
        ..Default::default()
    };
    let mut progs = Vec::new();
    for f in ops {
        let r = tune_workload(&f, machine, intrins, Strategy::TensorIr, &opts);
        let best = r
            .best
            .ok_or_else(|| format!("set-up tune of {} found no program", f.name))?;
        let args = gen::vm_inputs(&f, seed);
        progs.push(VmProg {
            name: f.name.clone(),
            tuned: true,
            func: best,
            args: args.clone(),
        });
        progs.push(VmProg {
            name: f.name.clone(),
            tuned: false,
            func: f,
            args,
        });
    }
    Ok(progs)
}

pub struct VmOut {
    /// Per program: ns per step of every run.
    pub ns_per_step: Vec<Vec<f64>>,
    /// Per program: outputs and step count of the first successful run.
    pub first: Vec<Option<(Vec<Tensor>, u64)>>,
    /// The program the next window starts with.
    next: usize,
}

impl VmOut {
    pub fn new(programs: usize) -> VmOut {
        VmOut {
            ns_per_step: vec![Vec::new(); programs],
            first: vec![None; programs],
            next: 0,
        }
    }

    /// Geomean over one population of each program's median ns/step.
    pub fn geomean_ns(&self, progs: &[VmProg], tuned: bool) -> f64 {
        let medians: Vec<f64> = progs
            .iter()
            .zip(&self.ns_per_step)
            .filter(|(p, _)| p.tuned == tuned)
            .map(|(_, s)| median(s))
            .collect();
        geomean(&medians)
    }

    pub fn samples(&self) -> usize {
        self.ns_per_step.iter().map(Vec::len).sum()
    }
}

/// Runs program `i` once on the optimized VM, recording its time per step
/// and checking that it repeats its first outputs and step count.
fn run_one(p: &VmProg, i: usize, out: &mut VmOut, tally: &mut Tally) {
    let args = p.args.clone();
    tally.attempted += 1;
    let t = Instant::now();
    let r = run_with(&p.func, args, ExecBackend::Vm, None);
    let ns = t.elapsed().as_nanos() as f64;
    match r {
        Ok(o) => {
            out.ns_per_step[i].push(ns / o.steps.max(1) as f64);
            match &out.first[i] {
                None => out.first[i] = Some((o.outputs, o.steps)),
                Some((outputs, steps)) => {
                    if *outputs != o.outputs || *steps != o.steps {
                        tally.mismatch(format!("{} ({}) is not repeatable", p.name, kind(p)));
                    }
                }
            }
        }
        Err(e) => tally.fail(format!("{} ({}): {e}", p.name, kind(p))),
    }
}

/// One window of VM runs: the programs in turn, continuing where the last
/// window stopped, until `seconds` have elapsed (at least one run).
pub fn run(progs: &[VmProg], seconds: f64, out: &mut VmOut, tally: &mut Tally) {
    let t0 = Instant::now();
    loop {
        let i = out.next;
        out.next = (i + 1) % progs.len();
        run_one(&progs[i], i, out, tally);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Runs once every program no window reached, so that each has a sample.
pub fn complete(progs: &[VmProg], out: &mut VmOut, tally: &mut Tally) {
    for (i, p) in progs.iter().enumerate() {
        if out.ns_per_step[i].is_empty() {
            run_one(p, i, out, tally);
        }
    }
}

fn kind(p: &VmProg) -> &'static str {
    if p.tuned {
        "tuned"
    } else {
        "unscheduled"
    }
}

/// Checks every VM output against the tree-walker run of the unscheduled
/// program on the same inputs, and the unscheduled program's step count
/// against the tree-walker's. Untimed.
pub fn check_reference(progs: &[VmProg], out: &VmOut, tally: &mut Tally) {
    for p in progs.iter().filter(|p| !p.tuned) {
        let reference = match run_with(&p.func, p.args.clone(), ExecBackend::TreeWalk, None) {
            Ok(r) => r,
            Err(e) => {
                tally.mismatch(format!("tree-walker failed on {}: {e}", p.name));
                continue;
            }
        };
        for (q, first) in progs.iter().zip(&out.first) {
            if q.name != p.name {
                continue;
            }
            let Some((outputs, steps)) = first else {
                continue;
            };
            if *outputs != reference.outputs {
                tally.mismatch(format!(
                    "{} ({}) differs from the tree-walker",
                    q.name,
                    kind(q)
                ));
            }
            if !q.tuned && *steps != reference.steps {
                tally.mismatch(format!(
                    "{}: VM took {steps} steps, the tree-walker {}",
                    q.name, reference.steps
                ));
            }
        }
    }
}

/// Per-layer metrics of the VM: bytecode compile and optimize, the
/// unoptimized VM as the optimizer's base, and the dispatched
/// instruction mix.
pub fn trace(progs: &[VmProg], out: &VmOut, tally: &mut Tally, m: &mut Metrics) {
    let (mut compile_us, mut optimize_us) = (Vec::new(), Vec::new());
    let mut unopt = [Vec::new(), Vec::new()];
    let mut dispatches = [Vec::new(), Vec::new()];
    let mut fused = [Vec::new(), Vec::new()];
    let mut steps = [0u64, 0];
    let (mut split_ns, mut whole_ns) = (0.0, 0.0);
    for (i, (p, first)) in progs.iter().zip(&out.first).enumerate() {
        let Some((outputs, want_steps)) = first else {
            continue;
        };
        let pop = usize::from(p.tuned);
        let time_us = |f: &dyn Fn()| {
            let us: Vec<f64> = (0..COMPILE_REPS)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&us)
        };
        let c = time_us(&|| {
            std::hint::black_box(compile(&p.func).ok());
        });
        let o = time_us(&|| {
            std::hint::black_box(compile_optimized(&p.func).ok());
        });
        compile_us.push(c);
        optimize_us.push(o - c);

        let t = Instant::now();
        let r = run_with(&p.func, p.args.clone(), ExecBackend::VmUnopt, None);
        let ns = t.elapsed().as_nanos() as f64;
        match r {
            Ok(r) if r.outputs == *outputs && r.steps == *want_steps => {
                unopt[pop].push(ns / r.steps.max(1) as f64)
            }
            Ok(_) => tally.mismatch(format!("{} ({}): unoptimized VM differs", p.name, kind(p))),
            Err(e) => tally.fail(format!("{} ({}) unoptimized: {e}", p.name, kind(p))),
        }

        // The traced optimized path: `compile_optimized` and a profiled
        // run, against the untraced `run_with` median of the same program;
        // the difference is the profile's overhead.
        let t = Instant::now();
        let Ok(prog) = compile_optimized(&p.func) else {
            tally.mismatch(format!("{} ({}): bytecode compile failed", p.name, kind(p)));
            continue;
        };
        let compiled = t.elapsed().as_nanos() as f64;
        let mut mix = InstrMixProfile::new();
        let t = Instant::now();
        let r = prog.run_profiled(p.args.clone(), u64::MAX, &mut mix);
        let ran = t.elapsed().as_nanos() as f64;
        match r {
            Ok(r) if r.outputs == *outputs && r.steps == *want_steps => {
                let total = mix.total() as f64;
                let fused_n: u64 = mix
                    .mix()
                    .iter()
                    .filter(|(op, _)| FUSED_OPS.contains(op))
                    .map(|(_, n)| n)
                    .sum();
                dispatches[pop].push(total / r.steps.max(1) as f64);
                fused[pop].push(fused_n as f64 / total.max(1.0));
                steps[pop] += r.steps;
                split_ns += compiled + ran;
                whole_ns += median(&out.ns_per_step[i]) * r.steps as f64;
            }
            Ok(_) => tally.mismatch(format!("{} ({}): profiled VM differs", p.name, kind(p))),
            Err(e) => tally.fail(format!("{} ({}) profiled: {e}", p.name, kind(p))),
        }
    }
    m.add("vm.compile_us", "us", median(&compile_us), compile_us.len());
    m.add(
        "vm.optimize_us",
        "us",
        median(&optimize_us),
        optimize_us.len(),
    );
    m.add(
        "vm.unopt_tuned_ns_per_step",
        "ns",
        geomean(&unopt[1]),
        unopt[1].len(),
    );
    m.add(
        "vm.unopt_naive_ns_per_step",
        "ns",
        geomean(&unopt[0]),
        unopt[0].len(),
    );
    m.add(
        "vm.tuned.dispatches_per_step",
        "count",
        geomean(&dispatches[1]),
        dispatches[1].len(),
    );
    m.add(
        "vm.naive.dispatches_per_step",
        "count",
        geomean(&dispatches[0]),
        dispatches[0].len(),
    );
    m.add(
        "vm.tuned.fused_share",
        "ratio",
        median(&fused[1]),
        fused[1].len(),
    );
    m.add(
        "vm.naive.fused_share",
        "ratio",
        median(&fused[0]),
        fused[0].len(),
    );
    m.add(
        "vm.tuned.steps",
        "count",
        steps[1] as f64,
        dispatches[1].len(),
    );
    m.add(
        "vm.naive.steps",
        "count",
        steps[0] as f64,
        dispatches[0].len(),
    );
    m.add(
        "trace.vm_overhead_share",
        "ratio",
        (split_ns - whole_ns) / whole_ns,
        dispatches[0].len() + dispatches[1].len(),
    );
}

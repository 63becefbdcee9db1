//! `perfbench` — the repository benchmark.
//!
//! One run builds the inputs of one workload from `--seed`, sets up
//! (three times; `setup_s` is the median), then times three phases that
//! drive the system only through public entry points:
//!
//! 1. model compile — `compile_model_with` cold into a fresh tuning
//!    database, warm re-compiles, `evaluate_model_with`;
//! 2. daemon traffic — `Server` in-process and one `Client` in a closed
//!    loop, then shutdown and restarts on the same database;
//! 3. VM execution — `run_with(.., ExecBackend::Vm, ..)` on unscheduled
//!    and tuned programs.
//!
//! It checks every output, and prints a table and, as its last line, one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See `README.md` in this directory.

mod affinity;
mod gen;
mod model;
mod report;
mod serve;
mod stats;
mod vm;
mod wrap;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use tir_autoschedule::TuneOptions;
use tir_tensorize::builtin_registry;

use affinity::Affinity;
use gen::{Req, Shape, Target, WARM_SET};
use model::ModelPhase;
use report::{peak_rss_mb, Metrics, Tally};
use serve::ServeSetup;
use stats::{geomean, median, percentile};
use vm::VmProg;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds of timing windows per run (see `run`).
const ROUNDS: usize = 5;
/// Requests generated for the daemon loop: far more than any loop sends.
const STREAM_LEN: usize = 1_000_000;

const USAGE: &str =
    "usage: perfbench --workload <gpu_f16|arm_int8> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    target: Target,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut target = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                target = Some(
                    Target::from_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        target: target.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Everything a run needs before its first timed operation.
struct Setup {
    model: ModelPhase,
    serve: ServeSetup,
    vm: Vec<VmProg>,
    stream: Vec<Req>,
    pool: Vec<Shape>,
}

fn setup(a: &Args, dir: &Path) -> Result<Setup, String> {
    let t = a.target;
    let machine = t.machine();
    let intrins = builtin_registry();
    let pool = gen::shape_pool(a.seed);
    let stream = gen::request_stream(a.seed, STREAM_LEN);
    let warm: Vec<String> = pool[..WARM_SET]
        .iter()
        .map(|s| s.func(t.dtype()).to_string())
        .collect();
    let serve = serve::setup(dir, t.wire(), &warm)?;
    let vm = vm::setup(t.vm_ops(), &machine, &intrins, a.seed)?;
    let model = ModelPhase {
        machine,
        models: t.models(),
        opts: TuneOptions {
            num_threads: 1,
            seed: gen::derive(a.seed, "model_tune"),
            ..Default::default()
        },
        intrins,
    };
    Ok(Setup {
        model,
        serve,
        vm,
        stream,
        pool,
    })
}

/// The run's scratch directory inside the working directory, removed when
/// the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if empty
        }
    }
}

/// Runs one workload; returns the result line and whether every output
/// was correct.
fn run(a: &Args) -> Result<(String, bool), String> {
    let scratch =
        Scratch(PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id())));
    let mut tally = Tally::default();
    // Pinned while the daemon's threads are started, so that they stay
    // on one processor (see `affinity`).
    let cpu = Affinity::current();
    cpu.pin();
    let mut setup_s = Vec::new();
    let mut ready: Option<Setup> = None;
    for i in 0..SETUP_REPS {
        if let Some(prev) = ready.take() {
            prev.serve.discard();
        }
        let t = Instant::now();
        let s = setup(a, &scratch.0.join(format!("setup-{i}")))?;
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let s = ready.expect("at least one set-up");
    let t = a.target;

    println!(
        "perfbench {} seed {} seconds {} trace {}; daemon windows on processor {:?}",
        t.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        cpu.cpu()
    );
    // The daemon loop, the VM runs and the warm re-compiles are timed in
    // windows spread over the whole run, round after round, so that each
    // metric samples the machine at several moments rather than one
    // stretch of it. The cold compiles run once, in the first round.
    let window = a.seconds / 2.0 / ROUNDS as f64;
    let mut v_out = vm::VmOut::new(s.vm.len());
    let mut serve = serve::ServeLoop::new(s.serve, t.wire(), t.dtype(), &s.stream, &s.pool)?;
    let mut m_out = None;
    for _ in 0..ROUNDS {
        cpu.unpin();
        vm::run(&s.vm, window, &mut v_out, &mut tally);
        match &mut m_out {
            None => m_out = Some(s.model.run(&mut tally)),
            Some(m) => s.model.warm(m, &mut tally),
        }
        cpu.pin();
        serve.run(window, &mut tally);
    }
    let m_out = m_out.expect("at least one round");
    let s_out = serve.finish(&mut tally)?;
    cpu.unpin();
    vm::complete(&s.vm, &mut v_out, &mut tally);
    vm::check_reference(&s.vm, &v_out, &mut tally);
    if s_out.pool_exhausted {
        println!("note: every fresh shape was used; the daemon loop ended early");
    }

    let mut e2e = Metrics::default();
    e2e.add_samples("setup_s", "s", median(&setup_s), &setup_s);
    let attempted = tally.attempted.max(1);
    e2e.add(
        "success_ratio",
        "ratio",
        1.0 - tally.failed as f64 / attempted as f64,
        attempted as usize,
    );
    e2e.add_samples("compile_s", "s", median(&m_out.compile_s), &m_out.compile_s);
    e2e.add("sim_tuning_cost_s", "sim_s", m_out.tuning_cost_s, 1);
    e2e.pct("cold_ms_p50", "ms", percentile(&s_out.cold_ms, 0.5));
    e2e.pct("cold_ms_p90", "ms", percentile(&s_out.cold_ms, 0.9));
    e2e.add(
        "serve_rps",
        "1/s",
        (s_out.warm_ms.len() + s_out.cold_ms.len()) as f64 / s_out.wall_s,
        s_out.warm_ms.len() + s_out.cold_ms.len(),
    );
    e2e.add(
        "vm_tuned_ns_per_step",
        "ns",
        v_out.geomean_ns(&s.vm, true),
        v_out.samples() / 2,
    );
    e2e.add(
        "vm_naive_ns_per_step",
        "ns",
        v_out.geomean_ns(&s.vm, false),
        v_out.samples() / 2,
    );

    let mut layers = Metrics::default();
    if a.trace {
        // Measured in every run, but not end-to-end metrics: over ten runs
        // on the reference machine their spreads reached 0.26 to 0.43,
        // beyond any bound the benchmark may set (see README.md).
        layers.add_samples(
            "model.warm_compile_ms",
            "ms",
            median(&m_out.warm_ms),
            &m_out.warm_ms,
        );
        // The simulated latency converges to one value for every seed on
        // SimArm, and a result that reads the same in every run cannot
        // serve as a measured end-to-end metric.
        layers.add(
            "model.latency_ms",
            "sim_ms",
            geomean(&m_out.latency_ms),
            m_out.latency_ms.len(),
        );
        layers.pct("serve.warm_ms_p50", "ms", percentile(&s_out.warm_ms, 0.5));
        layers.pct("serve.warm_ms_p99", "ms", percentile(&s_out.warm_ms, 0.99));
        layers.add_samples(
            "serve.restart_ms",
            "ms",
            median(&s_out.restart_ms),
            &s_out.restart_ms,
        );
        s.model.trace(&m_out, a.seed, &mut tally, &mut layers);
        serve::trace(
            &s_out,
            &s.model.machine.name,
            t.dtype(),
            &s.pool,
            &scratch.0,
            &mut layers,
        )?;
        vm::trace(&s.vm, &v_out, &mut tally, &mut layers);
    }
    e2e.add("peak_rss_mb", "MB", peak_rss_mb(), 1);

    println!(
        "operations: {} attempted, {} failed; failed_ratio {:.6}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for f in tally.failures() {
        println!("  failed: {f}");
    }
    println!("end-to-end metrics:");
    e2e.print_table();
    if a.trace {
        println!("per-layer metrics:");
        layers.print_table();
    }
    let shown = if a.trace { &layers } else { &e2e };
    let mut correct = tally.mismatches.is_empty();
    for m in &tally.mismatches {
        eprintln!("perfbench: output mismatch: {m}");
    }
    for m in shown.0.iter().filter(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} has no value", m.name);
        correct = false;
    }
    Ok((shown.json(correct, &tally), correct))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

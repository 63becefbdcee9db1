//! Model phase: cold compile of the workload's models into a fresh tuning
//! database through `compile_model_with`, a warm re-compile and
//! `evaluate_model_with` on the filled database. The traced variant
//! replays the cold compile kernel by kernel through `tune_multi_with`
//! with timing wrappers around the sketches and the measurer.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use tir::PrimFunc;
use tir_autoschedule::{
    build_sketches, tune_multi_with, workload_key, SimMeasurer, SketchRule, Strategy, TuneOptions,
    TuningDatabase, TuningRecord,
};
use tir_exec::Machine;
use tir_graph::{compile_model_with, evaluate_model_with, fuse_graph, ModelSpec};
use tir_tensorize::IntrinRegistry;

use crate::report::{Metrics, Tally};
use crate::stats::{geomean, median, percentile};
use crate::wrap::{Clock, Sampler, TimedMeasurer, TimedSketch};

/// Cold compiles are repeated while they fit in this many seconds (at
/// least one); `compile_s` is their median.
const COLD_MIN_S: f64 = 8.0;
/// Timed warm re-compiles per round; `model.warm_compile_ms` is the median of
/// all.
const WARM_REPS: usize = 24;
/// Untimed warm re-compiles at the start of each round.
const WARM_UNTIMED: usize = 2;
/// Candidates kept for the per-candidate replays.
const SAMPLE_CAP: usize = 48;

pub struct ModelPhase {
    pub machine: Machine,
    pub models: Vec<ModelSpec>,
    pub opts: TuneOptions,
    pub intrins: IntrinRegistry,
}

pub struct ModelOut {
    /// Wall time of each cold compile.
    pub compile_s: Vec<f64>,
    pub warm_ms: Vec<f64>,
    pub latency_ms: Vec<f64>,
    pub tuning_cost_s: f64,
    pub trials: usize,
    /// The filled database (warm runs add no records).
    pub db: TuningDatabase,
    /// The kernels of the last cold compile, per model.
    cold: Vec<Option<BTreeMap<String, PrimFunc>>>,
}

impl ModelPhase {
    fn compile(
        &self,
        m: &ModelSpec,
        db: &mut TuningDatabase,
        tally: &mut Tally,
    ) -> Option<tir_graph::CompiledModel> {
        tally.attempted += 1;
        let out = compile_model_with(
            m,
            &self.machine,
            &self.intrins,
            Strategy::TensorIr,
            &self.opts,
            db,
        );
        match out {
            Ok(c) => Some(c),
            Err(e) => {
                tally.fail(format!("compile {}: {e}", m.name));
                None
            }
        }
    }

    /// Cold compiles into fresh databases, repeated while the next one is
    /// expected to end within `COLD_MIN_S` (the last is kept), then a
    /// first slice of warm re-compiles and `evaluate_model_with` on the
    /// filled database.
    pub fn run(&self, tally: &mut Tally) -> ModelOut {
        let mut compile_s = Vec::new();
        let (mut db, mut cold) = (TuningDatabase::new(), Vec::new());
        for i in 1.. {
            db = TuningDatabase::new();
            let t = Instant::now();
            cold = self
                .models
                .iter()
                .map(|m| self.compile(m, &mut db, tally))
                .collect();
            compile_s.push(t.elapsed().as_secs_f64());
            let total: f64 = compile_s.iter().sum();
            if total * (i + 1) as f64 / i as f64 > COLD_MIN_S {
                break;
            }
        }
        let mut out = ModelOut {
            compile_s,
            warm_ms: Vec::new(),
            latency_ms: Vec::new(),
            tuning_cost_s: cold.iter().flatten().map(|c| c.tuning_cost_s).sum(),
            trials: cold.iter().flatten().map(|c| c.trials).sum(),
            db,
            cold: cold
                .into_iter()
                .map(|c| c.map(|c| c.module.functions))
                .collect(),
        };
        self.warm(&mut out, tally);

        for m in &self.models {
            tally.attempted += 1;
            let r = evaluate_model_with(
                m,
                &self.machine,
                &self.intrins,
                Strategy::TensorIr,
                &self.opts,
                &mut out.db,
                true,
            );
            match r {
                Ok(r) => {
                    if r.trials != 0 {
                        tally.mismatch(format!(
                            "evaluate of {} after compile ran {} trials",
                            m.name, r.trials
                        ));
                    }
                    out.latency_ms.push(r.latency_s * 1e3);
                }
                Err(e) => tally.fail(format!("evaluate {}: {e}", m.name)),
            }
        }
        out
    }

    /// One slice of warm re-compiles on the filled database. The first
    /// `WARM_UNTIMED` of a slice only warm the caches after the work before
    /// it. Every re-compile must perform no trial; the last one's kernels
    /// are compared with the cold compile's once the slice is timed, so
    /// that comparing neither disturbs the caches between timed
    /// re-compiles nor keeps their results in memory.
    pub fn warm(&self, out: &mut ModelOut, tally: &mut Tally) {
        let mut last = Vec::new();
        for i in 0..WARM_UNTIMED + WARM_REPS {
            let t = Instant::now();
            last = self
                .models
                .iter()
                .map(|m| self.compile(m, &mut out.db, tally))
                .collect();
            if i >= WARM_UNTIMED {
                out.warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            for (m, w) in self.models.iter().zip(&last) {
                if let Some(w) = w
                    .as_ref()
                    .filter(|w| w.trials != 0 || w.tuning_cost_s != 0.0)
                {
                    tally.mismatch(format!(
                        "warm re-compile of {} ran {} trials",
                        m.name, w.trials
                    ));
                }
            }
        }
        for ((m, w), c) in self.models.iter().zip(&last).zip(&out.cold) {
            if let (Some(w), Some(c)) = (w, c) {
                if w.module.functions != *c {
                    tally.mismatch(format!(
                        "warm re-compile of {} returned different functions",
                        m.name
                    ));
                }
            }
        }
    }

    /// Replays the cold compile with every layer timed from outside,
    /// compares it with the untraced compile, and records the per-layer
    /// metrics.
    ///
    /// The search is meant to be a pure function of its inputs, so the
    /// replay should match the untraced compile bit for bit. It does not
    /// always: two tunes of one kernel in one process can differ in cache
    /// hits, filtered candidates and tuning cost. Each difference is
    /// printed and counted in `search.replay_diffs` rather than failing
    /// the run, so the defect stays visible without making the benchmark
    /// unusable.
    pub fn trace(&self, base: &ModelOut, seed: u64, tally: &mut Tally, out: &mut Metrics) {
        let apply = Clock::default();
        let measure = Clock::default();
        let sampler = Sampler::new(53, seed, SAMPLE_CAP);
        let mut db = TuningDatabase::new();
        let mut kernels: Vec<PrimFunc> = Vec::new();
        let mut kernel_ms = Vec::new();
        let (mut fuse_s, mut build_s, mut tune_s) = (0.0, 0.0, 0.0);
        let (mut measured, mut trials, mut cache_hits, mut invalid) = (0usize, 0usize, 0, 0);
        let mut cost_s = 0.0;
        let mut first_kernels: Vec<(PrimFunc, Vec<f64>)> = Vec::new();
        let mut diffs: Vec<String> = Vec::new();
        let name = &self.machine.name;

        let wall = Instant::now();
        for m in &self.models {
            let t = Instant::now();
            let groups = fuse_graph(m);
            fuse_s += t.elapsed().as_secs_f64();
            let mut seen = HashSet::new();
            let mut model_cost = 0.0;
            for g in groups {
                let Some(func) = g.func else { continue };
                if !seen.insert(g.name.clone()) {
                    continue;
                }
                let key = workload_key(&func);
                if db.peek(name, Strategy::TensorIr, &key).is_some() {
                    continue;
                }
                let t = Instant::now();
                let sketches =
                    build_sketches(&func, &self.machine, &self.intrins, Strategy::TensorIr);
                build_s += t.elapsed().as_secs_f64();
                let wrapped: Vec<TimedSketch> = sketches
                    .iter()
                    .map(|s| TimedSketch {
                        inner: s.as_ref(),
                        apply: &apply,
                        sample: &sampler,
                    })
                    .collect();
                let refs: Vec<&dyn SketchRule> =
                    wrapped.iter().map(|s| s as &dyn SketchRule).collect();
                let timed = TimedMeasurer {
                    inner: SimMeasurer,
                    clock: &measure,
                };
                let t = Instant::now();
                let r = tune_multi_with(&refs, &self.machine, &self.opts, &timed);
                let dt = t.elapsed().as_secs_f64();
                tune_s += dt;
                kernel_ms.push(dt * 1e3);
                measured += r.trials_measured;
                trials += r.trials_measured + r.wasted_measurements;
                cache_hits += r.cache_hits;
                invalid += r.invalid_filtered;
                model_cost += r.tuning_cost_s;
                if first_kernels.len() < 2 {
                    first_kernels.push((func.clone(), r.history.clone()));
                }
                let Some(best) = r.best else {
                    tally.mismatch(format!("traced tune of {} found no program", g.name));
                    continue;
                };
                // Fresh schedules carry fresh variable identities, so the
                // programs are compared as printed text.
                match base.db.peek(name, Strategy::TensorIr, &key) {
                    Some(rec)
                        if rec.best_time.to_bits() == r.best_time.to_bits()
                            && rec.best.to_string() == best.to_string() => {}
                    _ => diffs.push(format!("kernel {} tuned to a different program", g.name)),
                }
                db.insert(
                    name,
                    Strategy::TensorIr,
                    key,
                    TuningRecord {
                        best,
                        best_time: r.best_time,
                        trials: r.trials_measured,
                        budget: self.opts.trials,
                        tuning_cost_s: r.tuning_cost_s,
                    },
                );
                kernels.push(func);
            }
            cost_s += model_cost;
        }
        let wall_s = wall.elapsed().as_secs_f64();

        if cost_s.to_bits() != base.tuning_cost_s.to_bits() || trials != base.trials {
            diffs.push(format!(
                "traced compile cost {cost_s} s / {trials} trials, untraced {} s / {} trials",
                base.tuning_cost_s, base.trials
            ));
        }
        if db.len() != base.db.len() {
            diffs.push(format!(
                "traced compile tuned {} kernels, untraced {}",
                db.len(),
                base.db.len()
            ));
        }
        for (func, history) in &first_kernels {
            let sketches = build_sketches(func, &self.machine, &self.intrins, Strategy::TensorIr);
            let refs: Vec<&dyn SketchRule> = sketches.iter().map(|s| s.as_ref()).collect();
            let r = tune_multi_with(&refs, &self.machine, &self.opts, &SimMeasurer);
            let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if bits(&r.history) != bits(history) {
                diffs.push(format!("search history of {} differs", func.name));
            }
        }
        let mut latency_ms = Vec::new();
        let t = Instant::now();
        for m in &self.models {
            let r = evaluate_model_with(
                m,
                &self.machine,
                &self.intrins,
                Strategy::TensorIr,
                &self.opts,
                &mut db,
                true,
            );
            if let Ok(r) = r {
                latency_ms.push(r.latency_s * 1e3);
            }
        }
        let evaluate_ms = t.elapsed().as_secs_f64() * 1e3;
        let lat = geomean(&latency_ms);
        if lat.to_bits() != geomean(&base.latency_ms).to_bits() {
            diffs.push(format!("model latency {lat} ms differs"));
        }

        // Warm lookups of every kernel on the filled database.
        let mut lookup_us = Vec::new();
        for f in &kernels {
            let t = Instant::now();
            let r = db.tune_cached(
                f,
                &self.machine,
                &self.intrins,
                Strategy::TensorIr,
                &self.opts,
            );
            lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
            if r.trials_measured != 0 {
                tally.mismatch(format!("warm lookup of {} re-tuned", f.name));
            }
        }

        // Per-candidate layers, replayed on the sampled candidates.
        let sample = sampler.kept.into_inner().expect("sample lock");
        let per_call = |f: &dyn Fn(&PrimFunc)| -> f64 {
            let us: Vec<f64> = sample
                .iter()
                .map(|c| {
                    let t = Instant::now();
                    f(c);
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&us)
        };
        let hash_us = per_call(&|c| {
            std::hint::black_box(tir::structural::structural_hash(c));
        });
        let feat_us = per_call(&|c| {
            std::hint::black_box(tir_autoschedule::feature::extract_features(c));
        });
        let verify_us = per_call(&|c| {
            std::hint::black_box(tir_analysis::analyze(c));
        });

        for d in &diffs {
            println!("note: traced replay differs from the untraced compile: {d}");
        }

        let apply_s = apply.secs();
        let measure_s = measure.secs();
        let other_s = tune_s - apply_s - measure_s;
        let residual_s = wall_s - fuse_s - build_s - tune_s;
        println!(
            "model phase, traced replay: {wall_s:.3} s wall ({} kernels)",
            kernels.len()
        );
        for (row, s) in [
            ("graph.fuse", fuse_s),
            ("sketch.build", build_s),
            ("sketch.apply", apply_s),
            ("measure.sim", measure_s),
            ("search.other", other_s),
            ("residual", residual_s),
        ] {
            println!("  {row:<14} {s:>9.4} s  {:>6.2}%", 100.0 * s / wall_s);
        }
        println!(
            "  {:<14} {:>9.4} s  (untraced compile {:.4} s)",
            "sum",
            fuse_s + build_s + apply_s + measure_s + other_s + residual_s,
            median(&base.compile_s)
        );
        let n_kernels = kernels.len().max(1) as f64;
        let p50 = percentile(&kernel_ms, 0.5);
        let p90 = percentile(&kernel_ms, 0.9);
        out.add(
            "sketch.apply_us",
            "us",
            apply_s * 1e6 / apply.calls().max(1) as f64,
            apply.calls() as usize,
        );
        out.add("sketch.apply_share", "ratio", apply_s / wall_s, 1);
        out.add("sketch.candidates", "count", apply.calls() as f64, 1);
        out.add(
            "sketch.build_us",
            "us",
            build_s * 1e6 / n_kernels,
            kernels.len(),
        );
        out.pct("search.kernel_tune_ms_p50", "ms", p50);
        out.pct("search.kernel_tune_ms_p90", "ms", p90);
        out.add("search.other_share", "ratio", other_s / wall_s, 1);
        out.add(
            "search.useful_ratio",
            "ratio",
            measured as f64 / apply.calls().max(1) as f64,
            1,
        );
        out.add("search.cache_hits", "count", cache_hits as f64, 1);
        out.add("search.invalid_filtered", "count", invalid as f64, 1);
        out.add(
            "measure.sim_us",
            "us",
            measure_s * 1e6 / measure.calls().max(1) as f64,
            measure.calls() as usize,
        );
        out.add("measure.calls", "count", measure.calls() as f64, 1);
        out.add("tir.structural_hash_us", "us", hash_us, sample.len());
        out.add("feature.extract_us", "us", feat_us, sample.len());
        out.add("analysis.verify_us", "us", verify_us, sample.len());
        out.add(
            "graph.fuse_us",
            "us",
            fuse_s * 1e6 / self.models.len() as f64,
            self.models.len(),
        );
        out.add("graph.evaluate_ms", "ms", evaluate_ms, 1);
        out.add(
            "db.warm_lookup_us",
            "us",
            median(&lookup_us),
            lookup_us.len(),
        );
        out.add("model.residual_share", "ratio", residual_s / wall_s, 1);
        out.add(
            "search.replay_diffs",
            "count",
            diffs.len() as f64,
            kernels.len(),
        );
        out.add(
            "trace.compile_overhead_share",
            "ratio",
            (wall_s - median(&base.compile_s)) / median(&base.compile_s),
            1,
        );
    }
}

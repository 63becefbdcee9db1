//! Delegating wrappers around the tuner's public traits. They time each
//! call into the layer from outside and change nothing the search sees:
//! every method forwards to the wrapped value.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tir::PrimFunc;
use tir_autoschedule::{Decision, DecisionKind, MeasureCtx, MeasureError, Measurer, SketchRule};
use tir_exec::Machine;
use tir_rand::rngs::StdRng;
use tir_schedule::ScheduleError;

/// Wall nanoseconds and call count of one wrapped entry point.
#[derive(Default)]
pub struct Clock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Clock {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// Every `stride`-th materialized candidate, starting at `offset`, up to
/// `cap` of them: the sample the per-candidate layers are replayed on.
pub struct Sampler {
    stride: u64,
    offset: u64,
    cap: usize,
    seen: AtomicU64,
    pub kept: Mutex<Vec<PrimFunc>>,
}

impl Sampler {
    pub fn new(stride: u64, offset: u64, cap: usize) -> Sampler {
        Sampler {
            stride,
            offset: offset % stride,
            cap,
            seen: AtomicU64::new(0),
            kept: Mutex::new(Vec::new()),
        }
    }

    fn offer(&self, f: &PrimFunc) {
        let i = self.seen.fetch_add(1, Ordering::Relaxed);
        if i % self.stride == self.offset {
            let mut kept = self.kept.lock().expect("sample lock");
            if kept.len() < self.cap {
                kept.push(f.clone());
            }
        }
    }
}

/// A [`SketchRule`] that times [`SketchRule::apply`] (candidate
/// materialization through `tir-schedule`).
pub struct TimedSketch<'a> {
    pub inner: &'a dyn SketchRule,
    pub apply: &'a Clock,
    pub sample: &'a Sampler,
}

impl SketchRule for TimedSketch<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn space(&self) -> Vec<DecisionKind> {
        self.inner.space()
    }

    fn apply(&self, decisions: &[Decision]) -> Result<PrimFunc, ScheduleError> {
        let out = self.apply.time(|| self.inner.apply(decisions));
        if let Ok(f) = &out {
            self.sample.offer(f);
        }
        out
    }

    fn sample(&self, rng: &mut StdRng) -> Vec<Decision> {
        self.inner.sample(rng)
    }

    fn mutate(&self, decisions: &[Decision], rng: &mut StdRng) -> Vec<Decision> {
        self.inner.mutate(decisions, rng)
    }

    fn crossover(&self, a: &[Decision], b: &[Decision], rng: &mut StdRng) -> Vec<Decision> {
        self.inner.crossover(a, b, rng)
    }
}

/// A [`Measurer`] that times each simulated measurement.
pub struct TimedMeasurer<'a, M> {
    pub inner: M,
    pub clock: &'a Clock,
}

impl<M: Measurer> Measurer for TimedMeasurer<'_, M> {
    fn measure(
        &self,
        func: &PrimFunc,
        machine: &Machine,
        ctx: &MeasureCtx,
    ) -> Result<f64, MeasureError> {
        self.clock.time(|| self.inner.measure(func, machine, ctx))
    }

    fn min_agreeing_readings(&self) -> usize {
        self.inner.min_agreeing_readings()
    }
}

//! Serve phase: an in-process tuning daemon with default settings, driven
//! by one client in a closed loop with the seeded request stream, in
//! windows spread over the run; then shut down and restarted on the same
//! database.

use std::path::Path;
use std::time::{Duration, Instant};

use tir::parser::parse_func;
use tir::{DataType, PrimFunc};
use tir_autoschedule::{
    journal_path_for, workload_key, DiskIo, JournaledDb, Strategy, TuningRecord,
};
use tir_serve::{Client, ServeConfig, Server, Source, TuneReply};
use tir_trace::TraceReport;

use crate::gen::{Req, Shape, WARM_SET};
use crate::report::{Metrics, Tally};
use crate::stats::median;

/// Trial budget of every tune the daemon is asked for: the warm set in
/// set-up, warm re-tunes and cold tunes.
pub const TRIALS: usize = 12;
/// Daemon restarts after the loop; `restart_ms` is their median.
pub const RESTARTS: usize = 15;
const STRATEGY: &str = "tensorir";
const PRIORITY: u8 = 5;
/// Per-request deadlines: a request that misses its deadline fails.
const WARM_DEADLINE: Duration = Duration::from_secs(2);
const COLD_DEADLINE: Duration = Duration::from_secs(30);
/// Replays of each warm request's text layers in the traced run.
const TEXT_REPS: usize = 25;
/// Journal opens timed in the traced run (publishes: four times as many).
const JOURNAL_REPS: usize = 5;

/// A started daemon whose warm set is tuned.
pub struct ServeSetup {
    pub cfg: ServeConfig,
    server: Server,
    pub warm_texts: Vec<String>,
    answers: Vec<TuneReply>,
}

fn connect(path: &Path) -> Result<Client, String> {
    Client::connect(path).map_err(|e| format!("connect to daemon: {e}"))
}

/// Starts a daemon with `ServeConfig::new` defaults on a fresh database
/// in `dir` and tunes the warm set through a client.
pub fn setup(dir: &Path, wire: &str, warm: &[String]) -> Result<ServeSetup, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cfg = ServeConfig::new(dir.join("daemon.sock"), dir.join("tuning.db"));
    let server = Server::start(cfg.clone()).map_err(|e| format!("start daemon: {e:?}"))?;
    let mut client = connect(&cfg.socket_path)?;
    let mut answers = Vec::new();
    for text in warm {
        let r = client
            .tune(wire, STRATEGY, TRIALS, PRIORITY, text)
            .map_err(|e| format!("set-up tune: {e}"))?;
        if r.source != Source::Tuned {
            return Err(format!("set-up tune answered {:?}, not tuned", r.source));
        }
        answers.push(r);
    }
    Ok(ServeSetup {
        cfg,
        server,
        warm_texts: warm.to_vec(),
        answers,
    })
}

impl ServeSetup {
    /// Stops the daemon and removes its files.
    pub fn discard(self) {
        self.server.request_shutdown();
        self.server.join();
        if let Some(dir) = self.cfg.db_path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Whether `r` is the warm answer for a fingerprint whose set-up tune
/// answered `first`: same program and time, bit for bit, at no cost.
fn is_warm_answer(r: &TuneReply, first: &TuneReply) -> bool {
    r.source == Source::Warm
        && r.trials == 0
        && r.tuning_cost_s.to_bits() == 0.0f64.to_bits()
        && r.best_time.to_bits() == first.best_time.to_bits()
        && r.func_text == first.func_text
}

/// The closed loop: one client connection sends the stream's requests one
/// after another, each after the previous answer. One connection rather
/// than one per core: with two, the loop kept both cores of the reference
/// machine busy and its latencies followed the load of other machines on
/// the same host (run-to-run spreads of 0.3 to 0.8).
pub struct ServeLoop<'a> {
    setup: ServeSetup,
    client: Client,
    wire: &'a str,
    dt: DataType,
    stream: &'a [Req],
    pool: &'a [Shape],
    next: usize,
    next_cold: usize,
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    /// Time spent in the loop's windows.
    wall_s: f64,
    /// True when the loop stopped early because every fresh shape was used.
    pool_exhausted: bool,
}

/// What the loop leaves for the metrics once the daemon has stopped.
pub struct ServeOut {
    pub warm_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub wall_s: f64,
    pub restart_ms: Vec<f64>,
    /// The daemon's own report of the loop (wall-clock `serve.*` spans).
    pub report: TraceReport,
    pub pool_exhausted: bool,
    pub cfg: ServeConfig,
    pub warm_texts: Vec<String>,
    /// The set-up tunes' program texts, as the daemon sent them.
    pub reply_texts: Vec<String>,
}

impl<'a> ServeLoop<'a> {
    pub fn new(
        setup: ServeSetup,
        wire: &'a str,
        dt: DataType,
        stream: &'a [Req],
        pool: &'a [Shape],
    ) -> Result<ServeLoop<'a>, String> {
        let client = connect(&setup.cfg.socket_path)?;
        Ok(ServeLoop {
            setup,
            client,
            wire,
            dt,
            stream,
            pool,
            next: 0,
            next_cold: WARM_SET,
            warm_ms: Vec::new(),
            cold_ms: Vec::new(),
            wall_s: 0.0,
            pool_exhausted: false,
        })
    }

    /// Sends requests for one window of `seconds`.
    pub fn run(&mut self, seconds: f64, tally: &mut Tally) {
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds && !self.pool_exhausted {
            let Some(&req) = self.stream.get(self.next) else {
                break;
            };
            self.next += 1;
            match req {
                Req::Warm { idx, tune } => self.warm(idx, tune, tally),
                Req::Cold => self.cold(tally),
            }
        }
        self.wall_s += t0.elapsed().as_secs_f64();
    }

    fn warm(&mut self, idx: usize, tune: bool, tally: &mut Tally) {
        let text = &self.setup.warm_texts[idx];
        self.client.set_deadline(Some(WARM_DEADLINE));
        tally.attempted += 1;
        let t = Instant::now();
        let r = if tune {
            self.client
                .tune(self.wire, STRATEGY, TRIALS, PRIORITY, text)
                .map(Some)
        } else {
            self.client.query(self.wire, STRATEGY, text)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(Some(r)) if is_warm_answer(&r, &self.setup.answers[idx]) => self.warm_ms.push(ms),
            Ok(r) => tally.mismatch(format!(
                "warm request for set-up fingerprint {idx} answered {:?}",
                r.map(|r| (r.source, r.trials))
            )),
            Err(e) => tally.fail(format!("warm request: {e}")),
        }
    }

    fn cold(&mut self, tally: &mut Tally) {
        let Some(shape) = self.pool.get(self.next_cold) else {
            self.pool_exhausted = true;
            return;
        };
        self.next_cold += 1;
        let text = shape.func(self.dt).to_string();
        self.client.set_deadline(Some(COLD_DEADLINE));
        tally.attempted += 1;
        let t = Instant::now();
        let r = self
            .client
            .tune(self.wire, STRATEGY, TRIALS, PRIORITY, &text);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match r {
            Ok(r) if matches!(r.source, Source::Tuned | Source::Dedup) => self.cold_ms.push(ms),
            Ok(r) => tally.mismatch(format!("cold tune of {shape:?} answered {:?}", r.source)),
            Err(e) => tally.fail(format!("cold tune: {e}")),
        }
    }

    /// Shuts the daemon down, then restarts it [`RESTARTS`] times on the
    /// same database, timing each restart to its first warm answer.
    pub fn finish(mut self, tally: &mut Tally) -> Result<ServeOut, String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let ServeSetup {
            cfg,
            server,
            warm_texts,
            answers,
        } = self.setup;
        let report = server.join();

        let mut restart_ms = Vec::new();
        for i in 0..RESTARTS {
            let idx = i % WARM_SET;
            let t = Instant::now();
            let server =
                Server::start(cfg.clone()).map_err(|e| format!("restart daemon: {e:?}"))?;
            let mut client = connect(&cfg.socket_path)?;
            tally.attempted += 1;
            match client.query(self.wire, STRATEGY, &warm_texts[idx]) {
                Ok(Some(r)) if is_warm_answer(&r, &answers[idx]) => {
                    restart_ms.push(t.elapsed().as_secs_f64() * 1e3)
                }
                Ok(r) => tally.mismatch(format!(
                    "restarted daemon answered fingerprint {idx} with {:?}",
                    r.map(|r| (r.source, r.trials))
                )),
                Err(e) => tally.fail(format!("first request after restart: {e}")),
            }
            client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            server.join();
        }
        Ok(ServeOut {
            warm_ms: self.warm_ms,
            cold_ms: self.cold_ms,
            wall_s: self.wall_s,
            restart_ms,
            report,
            pool_exhausted: self.pool_exhausted,
            cfg,
            warm_texts,
            reply_texts: answers.into_iter().map(|a| a.func_text).collect(),
        })
    }
}

/// Per-layer metrics of the serve phase: the daemon's own wall-clock
/// spans and counters, the text layers replayed on the request and reply
/// texts, and the journal timed on copies of the run's database.
pub fn trace(
    out: &ServeOut,
    machine: &str,
    dt: DataType,
    pool: &[Shape],
    scratch: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let r = &out.report;
    let mean = |name: &str| {
        r.phase(name).map_or((0.0, 0), |p| {
            (p.sim_s / p.spans.max(1) as f64, p.spans as usize)
        })
    };
    for (metric, phase, unit, scale) in [
        ("serve.admission_us", "serve.admission", "us", 1e6),
        ("serve.db_lookup_us", "serve.db_lookup", "us", 1e6),
        ("serve.queue_wait_ms", "serve.queue_wait", "ms", 1e3),
        ("serve.tune_ms", "serve.tune", "ms", 1e3),
        ("serve.respond_us", "serve.respond", "us", 1e6),
    ] {
        let (s, n) = mean(phase);
        m.add(metric, unit, s * scale, n);
    }
    let rejected: u64 = r
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("serve.reject."))
        .map(|(_, v)| v)
        .sum();
    m.add(
        "serve.dedup_joins",
        "count",
        r.counter("serve.dedup_joins") as f64,
        1,
    );
    m.add("serve.rejected", "count", rejected as f64, 1);
    m.add(
        "serve.db_save_failures",
        "count",
        r.counter("serve.db_save_failures") as f64,
        1,
    );

    // Text layers of a warm request, replayed on its texts.
    let (mut parse_us, mut key_us, mut print_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TEXT_REPS {
        for (req, reply) in out.warm_texts.iter().zip(&out.reply_texts) {
            let t = Instant::now();
            let f = parse_func(req).map_err(|e| format!("parse request: {e}"))?;
            parse_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            std::hint::black_box(workload_key(&f));
            key_us.push(t.elapsed().as_secs_f64() * 1e6);
            let best = parse_func(reply).map_err(|e| format!("parse reply: {e}"))?;
            let t = Instant::now();
            std::hint::black_box(best.to_string());
            print_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let (parse, key, print) = (median(&parse_us), median(&key_us), median(&print_us));
    m.add("tir.parse_us", "us", parse, parse_us.len());
    m.add("db.key_us", "us", key, key_us.len());
    m.add("tir.print_us", "us", print, print_us.len());
    let warm_p50_us = median(&out.warm_ms) * 1e3;
    m.add(
        "serve.warm_other_share",
        "ratio",
        (warm_p50_us - parse - key - print) / warm_p50_us,
        out.warm_ms.len(),
    );

    // Journal: publish into, and open, copies of the run's database.
    let copy = scratch.join("journal-probe.db");
    std::fs::copy(&out.cfg.db_path, &copy).map_err(|e| format!("copy database: {e}"))?;
    let mut open_ms = Vec::new();
    for _ in 0..JOURNAL_REPS {
        let t = Instant::now();
        JournaledDb::open(Box::new(DiskIo::new()), &copy).map_err(|e| format!("open: {e}"))?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.add("journal.open_ms", "ms", median(&open_ms), open_ms.len());
    let (mut db, _) =
        JournaledDb::open(Box::new(DiskIo::new()), &copy).map_err(|e| format!("open: {e}"))?;
    // Records as large as real ones: tuned programs under fresh keys.
    let tuned: Vec<PrimFunc> = out
        .reply_texts
        .iter()
        .map(|t| parse_func(t).map_err(|e| format!("parse reply: {e}")))
        .collect::<Result<_, _>>()?;
    let mut publish_us = Vec::new();
    for (shape, best) in pool
        .iter()
        .rev()
        .zip(tuned.iter().cycle())
        .take(JOURNAL_REPS * 4)
    {
        let f = shape.func(dt);
        let record = TuningRecord {
            best: best.clone(),
            best_time: 1e-3,
            trials: TRIALS,
            budget: TRIALS,
            tuning_cost_s: 1.0,
        };
        let t = Instant::now();
        db.publish(machine, Strategy::TensorIr, workload_key(&f), record)
            .map_err(|e| format!("publish: {e}"))?;
        publish_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.add(
        "journal.publish_us",
        "us",
        median(&publish_us),
        publish_us.len(),
    );
    let _ = std::fs::remove_file(&copy);
    let _ = std::fs::remove_file(journal_path_for(&copy));
    Ok(())
}

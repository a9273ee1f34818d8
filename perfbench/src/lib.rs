//! # perfbench
//!
//! The repository benchmark: seeded `accelctl` workloads timed end to
//! end with tracing off, and a separate traced run that splits the same
//! work across the program's layers by calling each layer's public
//! functions from outside. See `perfbench/README.md` for the metric →
//! layer → workload table and for how to read a traced run.

#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod spans;
pub mod sys;
mod workloads;

use spans::Recorder;
use sys::HostStamp;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["fault-long", "table6", "profile-kernels"];

/// End-to-end metrics (tracing off): the `--trace 0` result line.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// End-to-end figures the `--trace 0` result line does not carry: the
/// tail (too noisy across runs on a shared host to gate with a bound)
/// and figures that apply to some workloads only or can be 0. Printed in
/// the `--trace 0` report, and (all but `failed_frac`, which the result
/// line carries as `failed` ÷ `attempted`) on the traced run's result
/// line, measured in its untraced half.
pub const REPORTED: &[(&str, &str)] = &[
    ("wall_s.tail", "s"),
    ("failed_frac", "ratio"),
    ("sim_req_per_s", "req/s"),
    ("model_err_pts", "pts"),
    ("paper_err_pts", "pts"),
    ("profile_samples_per_s", "samples/s"),
    ("kernel_mb_per_s", "MB/s"),
];

/// Per-layer metrics (traced run): the `--trace 1` result line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.draw_s", "s"),
    ("trace.requests", "count"),
    ("trace.mb", "MB"),
    ("engine.run_s", "s"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.sifts_per_event", "count"),
    ("engine.batch_hit_rate", "ratio"),
    ("engine.peak_live_requests", "count"),
    ("engine.replayed_frac", "ratio"),
    ("engine.sampling_share", "ratio"),
    ("metrics.percentiles_s", "s"),
    ("fault.attempts", "count"),
    ("fault.retries", "count"),
    ("fault.fallbacks", "count"),
    ("fault.useful_ratio", "ratio"),
    ("pool.items", "count"),
    ("pool.efficiency", "ratio"),
    ("shard.w1_s", "s"),
    ("shard.w2_s", "s"),
    ("shard.event_spread", "ratio"),
    ("shard.tput_err_pct", "%"),
    ("shard.p99_err_pct", "%"),
    ("abtest.aes-ni_s", "s"),
    ("abtest.encryption_s", "s"),
    ("abtest.inference_s", "s"),
    ("abtest.fallback_s", "s"),
    ("model.estimate_s", "s"),
    ("registry.load_s", "s"),
    ("profiler.generate_s", "s"),
    ("profiler.analyze_s", "s"),
    ("profiler.ns_per_sample", "ns"),
    ("profiler.mb", "MB"),
    ("kernels.aes.mb_per_s", "MB/s"),
    ("kernels.sha256.mb_per_s", "MB/s"),
    ("kernels.lz.mb_per_s", "MB/s"),
    ("kernels.mlp.mb_per_s", "MB/s"),
    ("render.s", "s"),
    ("render.bytes", "bytes"),
    ("unattributed_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("wall_s.tail", "s"),
    ("sim_req_per_s", "req/s"),
    ("model_err_pts", "pts"),
    ("paper_err_pts", "pts"),
    ("profile_samples_per_s", "samples/s"),
    ("kernel_mb_per_s", "MB/s"),
];

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// `false`: end-to-end run; `true`: traced per-layer run.
    pub trace: bool,
    /// The repository checkout the inputs are read from.
    pub root: PathBuf,
    /// Shrinks every input so the self-test runs in seconds. Tiny runs
    /// check no pinned digests.
    pub tiny: bool,
    /// Corrupts the output of this timed iteration (0-based) before it
    /// is checked: the self-test's proof that a bad output is counted.
    pub corrupt_iteration: Option<usize>,
    /// The `perfbench` executable, re-run with `--rss-probe` to measure
    /// peak RSS in a fresh process.
    pub exe: PathBuf,
}

/// Fresh processes whose peak RSS `peak_rss_mb` takes the median of.
const RSS_PROBES: usize = 3;

/// The `--rss-probe` mode: one iteration of the workload in this fresh
/// process, then this process's peak RSS in MB — what one `accelctl`
/// invocation (plus the benchmark's generated inputs) holds at most.
///
/// # Errors
///
/// Returns a message when the inputs cannot be built or the iteration
/// fails.
pub fn rss_probe(opts: &Options) -> Result<f64, String> {
    let mut workload = workloads::build(opts)?;
    let mut secs = vec![0.0; workload.parts().len()];
    workload.iterate(&mut secs)?;
    Ok(sys::peak_rss_mb())
}

/// Runs `opts.exe --rss-probe` once and reads the MB it prints.
fn child_rss(opts: &Options) -> Result<f64, String> {
    let seed = opts.seed.to_string();
    let mut args = vec!["--workload", &opts.workload, "--seed", &seed];
    args.extend(["--seconds", "1", "--trace", "0", "--rss-probe"]);
    if opts.tiny {
        args.push("--tiny");
    }
    let out = std::process::Command::new(&opts.exe)
        .args(&args)
        .current_dir(&opts.root)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", opts.exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "rss probe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .ok_or_else(|| format!("rss probe printed no number: {stdout}"))
}

/// A metric value, or the reason it does not apply to this workload.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Result<f64, String>,
    /// How the value was taken (sample count, percentile, ISA tier, …).
    pub note: String,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable report, printed before the result line.
    pub report: Vec<String>,
}

impl Outcome {
    /// The result line: the metrics of this run's mode (`END_TO_END` or
    /// `PER_LAYER`), N/A ones as 0 (their reason is in the report).
    #[must_use]
    pub fn result_line(&self, trace: bool) -> String {
        let names = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<(String, serde_json::Value)> = names
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .and_then(|m| m.value.as_ref().ok().copied())
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                (
                    (*name).to_owned(),
                    serde_json::json!({"value": value, "unit": *unit}),
                )
            })
            .collect();
        serde_json::json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics),
        })
        .to_string()
    }
}

/// Per-layer values pushed by a traced iteration, keyed by metric.
pub(crate) type Values = BTreeMap<&'static str, Vec<f64>>;

/// End-to-end facts a workload reads off a checked output.
#[derive(Debug, Default)]
pub(crate) struct Facts {
    pub model_err_pts: Option<f64>,
    pub paper_err_pts: Option<f64>,
    /// `(metric, work per iteration, index of the timed part doing it)`:
    /// the metric is work ÷ that part's median wall time.
    pub throughput: Vec<(&'static str, f64, usize)>,
}

/// One workload: seeded inputs, the timed iteration, its checks, and
/// its traced decomposition.
pub(crate) trait Workload {
    /// Loads and validates the inputs the program reads before its first
    /// simulated event or sample (timed before every iteration for
    /// `setup_s`).
    fn setup(&self) -> Result<(), String>;
    /// Names of the timed parts of one iteration.
    fn parts(&self) -> &'static [&'static str];
    /// Runs one iteration, storing each part's wall time in `secs`.
    fn iterate(&mut self, secs: &mut [f64]) -> Result<(), String>;
    /// The last iteration's output bytes (untimed).
    fn output(&mut self) -> Vec<u8>;
    /// Checks the invariants on the last iteration's output (untimed).
    fn verify(&mut self, output: &[u8]) -> Result<Facts, String>;
    /// SHA-256 (hex) the output must have at seed 0, full scale.
    fn pinned_digest(&self) -> &'static str;
    /// Memory probes, run first in a traced run while the heap is fresh.
    fn probe_memory(&mut self, _values: &mut Values) -> Result<(), String> {
        Ok(())
    }
    /// One traced iteration; fails when an output differs from
    /// `reference`.
    fn traced(
        &mut self,
        rec: &mut Recorder,
        values: &mut Values,
        reference: &[u8],
    ) -> Result<(), String>;
    /// Why `metric` has no value on this workload.
    fn not_applicable(&self, metric: &str) -> &'static str;
}

/// Maps a benchmark seed to a program seed on `stream`; seed 0 gives
/// the CLI's own default.
pub(crate) fn program_seed(seed: u64, stream: u64, default: u64) -> u64 {
    if seed == 0 {
        default
    } else {
        // Below 2^32: the CLI parses `--seed` through an f64.
        sys::mix(seed, stream) >> 32
    }
}

/// Runs `accelctl` in process, exactly as its `main` would.
pub(crate) fn accelctl(args: &[String]) -> Result<String, String> {
    accelerometer_cli::run(args)
}

/// Hex form of a digest.
pub(crate) fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

/// Where runs leave their spans, collapsed stacks and result records.
#[must_use]
pub fn out_dir(root: &Path) -> PathBuf {
    root.join("perfbench").join("out")
}

/// Runs one benchmark run.
///
/// # Errors
///
/// Returns a message when the inputs cannot be read or generated; a
/// failing program output is counted in `failed`, not returned.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    for input in ["configs/services", "configs/faults-heavy-fallback.json"] {
        if !opts.root.join(input).exists() {
            return Err(format!(
                "{input} not found under {}: run from the repository root",
                opts.root.display()
            ));
        }
    }
    std::fs::create_dir_all(out_dir(&opts.root))
        .map_err(|e| format!("cannot create {}: {e}", out_dir(&opts.root).display()))?;
    let host = HostStamp::collect();
    let mut workload = workloads::build(opts)?;
    let mut run = Run::new(opts, host);
    if opts.trace {
        run.traced(workload.as_mut())?;
    } else {
        run.end_to_end(workload.as_mut())?;
    }
    Ok(run.finish())
}

/// Timings of the untraced iterations.
#[derive(Debug, Default)]
struct Timings {
    setup: Vec<f64>,
    wall: Vec<f64>,
    cpu: Vec<f64>,
    parts: Vec<Vec<f64>>,
}

struct Run<'a> {
    opts: &'a Options,
    host: HostStamp,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    reference: Vec<u8>,
    /// The reference output passed its checks (and, at seed 0, its pin):
    /// iterations that repeat a failing reference fail too.
    reference_ok: bool,
    facts: Facts,
    timings: Timings,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl<'a> Run<'a> {
    fn new(opts: &'a Options, host: HostStamp) -> Self {
        Self {
            opts,
            host,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            reference: Vec::new(),
            reference_ok: false,
            facts: Facts::default(),
            timings: Timings::default(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// A run-level check failed: the run is not correct.
    fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    fn metric(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: Result<f64, String>,
        note: String,
    ) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            note,
        });
    }

    /// The untimed first iteration: warms caches and lazy set-up, and
    /// yields the reference output every later iteration must repeat.
    fn warm_up(&mut self, wl: &mut dyn Workload) -> Result<(), String> {
        let mut secs = vec![0.0; wl.parts().len()];
        wl.iterate(&mut secs)?;
        self.reference = wl.output();
        self.reference_ok = true;
        match wl.verify(&self.reference.clone()) {
            Ok(facts) => self.facts = facts,
            Err(e) => {
                self.reference_ok = false;
                self.error(format!("output check: {e}"));
            }
        }
        let digest = hex(&accelerometer_kernels::hash::sha256(&self.reference));
        if self.opts.seed == 0 && !self.opts.tiny && digest != wl.pinned_digest() {
            self.reference_ok = false;
            self.error(format!(
                "output digest {digest} differs from the pinned {}",
                wl.pinned_digest()
            ));
        }
        self.notes.push(format!("output sha256 {digest}"));
        Ok(())
    }

    /// Untraced iterations until `seconds` have passed (at least
    /// `min`), each checked against the reference outside its timing.
    /// Each one is preceded by a timed set-up, so `setup_s` samples the
    /// host over the same stretch of time as `wall_s`.
    fn timed_loop(
        &mut self,
        wl: &mut dyn Workload,
        seconds: f64,
        min: usize,
    ) -> Result<(), String> {
        let parts = wl.parts().len();
        self.timings.parts = vec![Vec::new(); parts];
        let mut secs = vec![0.0; parts];
        let begin = Instant::now();
        let mut i = 0;
        while i < min || begin.elapsed().as_secs_f64() < seconds {
            let t0 = Instant::now();
            wl.setup()?;
            self.timings.setup.push(t0.elapsed().as_secs_f64());
            self.attempted += 1;
            let cpu0 = sys::process_cpu();
            let t0 = Instant::now();
            let result = wl.iterate(&mut secs);
            let wall = t0.elapsed().as_secs_f64();
            let cpu = (sys::process_cpu() - cpu0).as_secs_f64();
            let ok = match result {
                Ok(()) => {
                    let mut output = wl.output();
                    if self.opts.corrupt_iteration == Some(i) {
                        if let Some(byte) = output.last_mut() {
                            *byte ^= 0x20;
                        }
                    }
                    self.reference_ok && output == self.reference
                }
                Err(_) => false,
            };
            if ok {
                self.timings.wall.push(wall);
                self.timings.cpu.push(cpu);
                for (store, s) in self.timings.parts.iter_mut().zip(&secs) {
                    store.push(*s);
                }
            } else {
                self.failed += 1;
            }
            i += 1;
        }
        Ok(())
    }

    fn end_to_end(&mut self, wl: &mut dyn Workload) -> Result<(), String> {
        self.warm_up(wl)?;
        self.timed_loop(wl, self.opts.seconds, 2)?;
        let t = &self.timings;
        let n = t.wall.len();
        let wall = sys::median(&t.wall);
        let cpu = sys::median(&t.cpu);
        self.metric("wall_s", "s", Ok(wall), format!("median of {n} iterations"));
        self.metric(
            "cpu_s",
            "s",
            Ok(cpu),
            format!("median of {n} iterations, user+sys, all threads"),
        );
        let rss = (0..RSS_PROBES)
            .map(|_| child_rss(self.opts))
            .collect::<Result<Vec<_>, _>>()?;
        self.metric(
            "peak_rss_mb",
            "MB",
            Ok(sys::median(&rss)),
            format!("median VmHWM of {RSS_PROBES} fresh processes running one iteration"),
        );
        let setups = &self.timings.setup;
        self.metric(
            "setup_s",
            "s",
            Ok(sys::median(setups)),
            format!(
                "median of {} set-ups, one before each iteration",
                setups.len()
            ),
        );
        self.reported(wl);
        Ok(())
    }

    /// The figures in `REPORTED` (and, in a traced run, the result line).
    fn reported(&mut self, wl: &dyn Workload) {
        let n = self.timings.wall.len();
        let (tail, pct, beyond) = sys::tail(&self.timings.wall);
        let tail_note = if beyond == 0 {
            format!("maximum: fewer than 11 iterations ({n})")
        } else {
            format!("p{pct:.1}: {beyond} of {n} iterations beyond it")
        };
        self.metric("wall_s.tail", "s", Ok(tail), tail_note);
        let frac = if self.attempted == 0 {
            Err("no iteration attempted".to_owned())
        } else {
            Ok(self.failed as f64 / self.attempted as f64)
        };
        let note = format!("{} of {} iterations", self.failed, self.attempted);
        self.metric("failed_frac", "ratio", frac, note);
        let na = |name: &str| wl.not_applicable(name).to_owned();
        let model = self.facts.model_err_pts.ok_or_else(|| na("model_err_pts"));
        self.metric(
            "model_err_pts",
            "pts",
            model,
            "max |model - simulated| over the output's rows".to_owned(),
        );
        let paper = self.facts.paper_err_pts.ok_or_else(|| na("paper_err_pts"));
        self.metric(
            "paper_err_pts",
            "pts",
            paper,
            "max |simulated - paper real| over Table 6".to_owned(),
        );
        for (name, unit) in [
            ("sim_req_per_s", "req/s"),
            ("profile_samples_per_s", "samples/s"),
            ("kernel_mb_per_s", "MB/s"),
        ] {
            let found = self
                .facts
                .throughput
                .iter()
                .find(|(m, _, _)| *m == name)
                .copied();
            let (value, note) = match found {
                Some((_, work, part)) => {
                    let secs = sys::median(&self.timings.parts[part]);
                    (
                        Ok(work / secs),
                        format!("{work} per iteration / median '{}' wall", wl.parts()[part]),
                    )
                }
                None => (Err(na(name)), String::new()),
            };
            self.metric(name, unit, value, note);
        }
    }

    fn traced(&mut self, wl: &mut dyn Workload) -> Result<(), String> {
        let mut values = Values::new();
        wl.probe_memory(&mut values)?;
        self.warm_up(wl)?;
        let half = self.opts.seconds / 2.0;
        self.timed_loop(wl, half, 2)?;
        let untraced = sys::median(&self.timings.wall);

        let mut rec = Recorder::new();
        let begin = Instant::now();
        while rec.iterations() < 2 || begin.elapsed().as_secs_f64() < half {
            rec.next_iteration();
            self.attempted += 1;
            match wl.traced(&mut rec, &mut values, &self.reference) {
                Ok(()) if self.reference_ok => {}
                Ok(()) => self.failed += 1,
                Err(e) => {
                    self.failed += 1;
                    self.error(format!("traced iteration {}: {e}", rec.iterations()));
                }
            }
        }
        self.reported(wl);
        let iterations = rec.iterations() as usize;
        // Per iteration: Σ self time per span name, Σ self time of hidden
        // calls, and the wall time of the user-level calls.
        let own = rec.self_times();
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut unattributed = vec![0.0; iterations];
        let mut user = vec![0.0; iterations];
        for (span, own) in rec.spans().iter().zip(&own) {
            let it = span.iteration as usize - 1;
            by_name
                .entry(&span.name)
                .or_insert_with(|| vec![0.0; iterations])[it] += own;
            if span.hidden {
                unattributed[it] += own;
            }
            if span.parent.is_none()
                && (span.name.starts_with("cli.") || span.name.starts_with("kernels."))
            {
                user[it] += span.duration();
            }
        }
        values.insert("unattributed_s", unattributed);
        values.insert(
            "bench.trace_overhead",
            vec![sys::median(&user) / untraced - 1.0],
        );
        for (name, unit) in PER_LAYER {
            if self.metrics.iter().any(|m| m.name == *name) {
                continue;
            }
            let span = name.strip_suffix("_s").or_else(|| name.strip_suffix(".s"));
            let samples = values
                .get(name)
                .or_else(|| span.and_then(|s| by_name.get(s)))
                .filter(|v| !v.is_empty());
            let (value, note) = match samples {
                Some(v) => {
                    let mut note = format!("median of {} values", v.len());
                    if let Some(tier) = self.host.kernel_tier(name) {
                        note += &format!(", {tier} tier");
                    }
                    (Ok(sys::median(v)), note)
                }
                None => (Err(wl.not_applicable(name).to_owned()), String::new()),
            };
            self.metric(name, unit, value, note);
        }
        self.write_trace(&rec)
    }

    /// Writes the spans and their collapsed stacks, and checks the
    /// profiler's folded-stack reader parses every line back.
    fn write_trace(&mut self, rec: &Recorder) -> Result<(), String> {
        let stem = self.stem();
        let folded = rec.folded();
        let parsed = accelerometer_profiler::from_folded(&folded);
        if parsed.is_empty() || parsed.len() != folded.lines().count() {
            self.error(format!(
                "from_folded parsed {} of {} collapsed-stack lines",
                parsed.len(),
                folded.lines().count()
            ));
        }
        let spans = serde_json::to_string_pretty(&rec.to_json()).map_err(|e| e.to_string())?;
        for (suffix, text) in [("spans.json", spans), ("folded", folded)] {
            let path = out_dir(&self.opts.root).join(format!("{stem}.{suffix}"));
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            self.notes.push(format!("wrote {}", path.display()));
        }
        Ok(())
    }

    fn stem(&self) -> String {
        format!(
            "{}-seed{}-trace{}",
            self.opts.workload,
            self.opts.seed,
            u8::from(self.opts.trace)
        )
    }

    fn finish(mut self) -> Outcome {
        let mode = if self.opts.trace {
            "traced per-layer"
        } else {
            "end-to-end"
        };
        let mut report = vec![
            format!(
                "# perfbench {mode} run: workload {} seed {} seconds {}",
                self.opts.workload, self.opts.seed, self.opts.seconds
            ),
            format!(
                "# host: nproc {} | isa {} | {} | commit {}",
                self.host.nproc, self.host.isa, self.host.rustc, self.host.commit
            ),
            format!(
                "# kernel tiers: {}",
                self.host
                    .kernel_tiers
                    .iter()
                    .map(|(k, t)| format!("{k} {t}"))
                    .collect::<Vec<_>>()
                    .join(" | ")
            ),
        ];
        for m in &self.metrics {
            report.push(match &m.value {
                Ok(v) => format!("metric {} = {v} {} ({})", m.name, m.unit, m.note),
                Err(reason) => format!("metric {} = N/A {} ({reason})", m.name, m.unit),
            });
        }
        report.extend(self.notes.iter().map(|n| format!("# {n}")));
        report.extend(self.errors.iter().map(|e| format!("# CHECK FAILED: {e}")));
        let record = serde_json::json!({
            "workload": self.opts.workload,
            "seed": self.opts.seed,
            "seconds": self.opts.seconds,
            "trace": self.opts.trace,
            "host": serde_json::json!({
                "nproc": self.host.nproc,
                "isa": self.host.isa,
                "rustc": self.host.rustc,
                "commit": self.host.commit,
                "kernel_tiers": serde_json::Value::Object(self.host.kernel_tiers.iter().map(|(k, t)| ((*k).to_owned(), serde_json::json!(*t))).collect()),
            }),
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
            "iteration_wall_s": self.timings.wall,
            "iteration_cpu_s": self.timings.cpu,
            "metrics": serde_json::Value::Array(self.metrics.iter().map(|m| serde_json::json!({
                "name": m.name,
                "unit": m.unit,
                "value": m.value.as_ref().ok().copied(),
                "not_applicable": m.value.as_ref().err().cloned(),
                "note": m.note,
            })).collect()),
        });
        let path = out_dir(&self.opts.root).join(format!("{}.result.json", self.stem()));
        match serde_json::to_string_pretty(&record) {
            Ok(text) => {
                if let Err(e) = std::fs::write(&path, text) {
                    self.errors
                        .push(format!("cannot write {}: {e}", path.display()));
                }
            }
            Err(e) => self.errors.push(e.to_string()),
        }
        Outcome {
            correct: self.errors.is_empty() && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: self.metrics,
            report,
        }
    }
}

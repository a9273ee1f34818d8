//! `fault-long`: `accelctl --jobs 2 faults <scenario>` on the
//! heavy-fallback scenario with its horizon raised to 1e9 cycles — three
//! runs (healthy, no-recovery, heavy-fallback at 60 % injected failures)
//! of about 3.9 M events each. The engine's event loop, fault sagas,
//! percentile finish and trace memory do the work; the service registry,
//! profiler and kernels do none.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use accelerometer_sim::{
    run_fault_sweep_with, run_sharded_instrumented, ExecPool, FaultPlan, FaultScenario,
    FaultSweepReport, FrozenTrace, LatencyStats, RecoveryPolicy, SimConfig, SimMetrics, Simulator,
};

use super::{same, within_capacity};
use crate::spans::{Link, Recorder};
use crate::sys::{self, Rng};
use crate::{accelctl, out_dir, program_seed, Facts, Options, Values, Workload};

/// About a million requests per run: the pre-drawn trace's 2^20-request
/// cap is just reached, so trace memory is at its largest.
const HORIZON: f64 = 1.0e9;
const TINY_HORIZON: f64 = 2.0e6;

/// SHA-256 of the `accelctl faults` output at seed 0.
const PINNED: &str = "739b3f8243ae8f5cf8eec90c33d9cb219e53dc6f70298264e259288a80a679ff";

pub(crate) struct FaultLong {
    path: PathBuf,
    args: Vec<String>,
    output: String,
}

/// The runs a fault sweep makes, per [`FaultScenario`]'s documented
/// contract: a healthy reference (no faults, no recovery), then one run
/// per policy under the scenario's plan.
fn sweep_configs(scenario: &FaultScenario) -> Vec<SimConfig> {
    let mut healthy = scenario.base.clone();
    healthy.fault = FaultPlan::none();
    healthy.recovery = RecoveryPolicy::none();
    let faulted = scenario.policies.iter().map(|named| {
        let mut cfg = scenario.base.clone();
        cfg.fault = scenario.plan.clone();
        cfg.recovery = named.policy;
        cfg
    });
    std::iter::once(healthy).chain(faulted).collect()
}

impl FaultLong {
    pub(crate) fn new(opts: &Options) -> Result<Self, String> {
        let source = opts.root.join("configs/faults-heavy-fallback.json");
        let text = std::fs::read_to_string(&source)
            .map_err(|e| format!("cannot read {}: {e}", source.display()))?;
        let mut scenario: FaultScenario =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", source.display()))?;
        scenario.base.horizon = if opts.tiny { TINY_HORIZON } else { HORIZON };
        scenario.base.seed = program_seed(opts.seed, 1, scenario.base.seed);
        scenario.plan.seed = program_seed(opts.seed, 2, scenario.plan.seed);
        let scale = if opts.tiny { "-tiny" } else { "" };
        let path =
            out_dir(&opts.root).join(format!("fault-long-seed{}{scale}.scenario.json", opts.seed));
        let json = serde_json::to_string_pretty(&scenario).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let args = ["--jobs", "2", "faults"]
            .into_iter()
            .map(str::to_owned)
            .chain([path.display().to_string()])
            .collect();
        Ok(Self {
            path,
            args,
            output: String::new(),
        })
    }

    /// Reads, parses and validates the generated scenario, as the CLI
    /// and the sweep do before the first event.
    fn load(&self) -> Result<(FaultScenario, Vec<SimConfig>), String> {
        let text = std::fs::read_to_string(&self.path).map_err(|e| e.to_string())?;
        let scenario: FaultScenario = serde_json::from_str(&text).map_err(|e| e.to_string())?;
        scenario.plan.validate().map_err(|e| e.to_string())?;
        for named in &scenario.policies {
            named.policy.validate().map_err(|e| e.to_string())?;
        }
        let configs = sweep_configs(&scenario);
        for cfg in &configs {
            cfg.validate().map_err(|e| e.to_string())?;
        }
        Ok((scenario, configs))
    }
}

/// Every `SimMetrics` in a sweep report, healthy run first.
fn all_metrics(report: &FaultSweepReport) -> impl Iterator<Item = &SimMetrics> {
    std::iter::once(&report.healthy).chain(report.outcomes.iter().map(|o| &o.metrics))
}

/// Latency-like samples to time the percentile finish on: as many as the
/// run completed, exponentially spread around its mean.
fn synthetic_latencies(metrics: &SimMetrics, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    (0..metrics.latency.count)
        .map(|_| -metrics.latency.mean * (1.0 - rng.unit()).ln())
        .collect()
}

impl Workload for FaultLong {
    fn setup(&self) -> Result<(), String> {
        let (_, configs) = self.load()?;
        let trace = FrozenTrace::for_config(&configs[0]);
        std::hint::black_box(trace.len());
        Ok(())
    }

    fn parts(&self) -> &'static [&'static str] {
        &["faults"]
    }

    fn iterate(&mut self, secs: &mut [f64]) -> Result<(), String> {
        let t0 = Instant::now();
        self.output = accelctl(&self.args)?;
        secs[0] = t0.elapsed().as_secs_f64();
        Ok(())
    }

    fn output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.output).into_bytes()
    }

    fn verify(&mut self, output: &[u8]) -> Result<Facts, String> {
        let text = std::str::from_utf8(output).map_err(|e| e.to_string())?;
        let report: FaultSweepReport = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let (scenario, _) = self.load()?;
        let names: Vec<&str> = report.outcomes.iter().map(|o| o.policy.as_str()).collect();
        let want: Vec<&str> = scenario.policies.iter().map(|p| p.name.as_str()).collect();
        if names != want {
            return Err(format!("policies {names:?}, expected {want:?}"));
        }
        let mut requests = 0.0;
        for m in all_metrics(&report) {
            if !within_capacity(m.core_utilization) {
                return Err(format!("core_utilization {} > 1", m.core_utilization));
            }
            if m.completed_requests == 0 {
                return Err("a run completed no requests".to_owned());
            }
            requests += m.completed_requests as f64;
        }
        let mut model_err: f64 = 0.0;
        for outcome in &report.outcomes {
            let check = outcome
                .model_check
                .as_ref()
                .ok_or_else(|| format!("policy {} has no model check", outcome.policy))?;
            model_err = model_err.max(check.error_points);
        }
        Ok(Facts {
            model_err_pts: Some(model_err),
            paper_err_pts: None,
            throughput: vec![("sim_req_per_s", requests, 0)],
        })
    }

    fn pinned_digest(&self) -> &'static str {
        PINNED
    }

    fn probe_memory(&mut self, values: &mut Values) -> Result<(), String> {
        let (_, configs) = self.load()?;
        let before = sys::rss_mb();
        let trace = FrozenTrace::for_config(&configs[0]);
        values
            .entry("trace.mb")
            .or_default()
            .push(sys::rss_mb() - before);
        std::hint::black_box(trace.len());
        Ok(())
    }

    fn traced(
        &mut self,
        rec: &mut Recorder,
        values: &mut Values,
        reference: &[u8],
    ) -> Result<(), String> {
        // The user's call, then the public calls it hides, on its inputs.
        let (cli, output) =
            rec.time_hidden("cli.faults", None, Link::Nested, || accelctl(&self.args));
        same("accelctl faults", output?.as_bytes(), reference)?;
        let (_, loaded) = rec.time("scenario.parse", Some(cli), Link::Replay, || self.load());
        let (scenario, configs) = loaded?;
        let pool = ExecPool::new(2);
        let (sweep, report) = rec.time_hidden("faultsweep", Some(cli), Link::Replay, || {
            run_fault_sweep_with(&pool, &scenario)
        });
        let report = report.map_err(|e| e.to_string())?;

        // The sweep's constituents: one trace draw shared by every run
        // (they share seed and workload), and the runs on a 2-wide pool.
        let (_, trace) = rec.time("trace.draw", Some(sweep), Link::Replay, || {
            Arc::new(FrozenTrace::for_config(&configs[0]))
        });
        values
            .entry("trace.requests")
            .or_default()
            .push(trace.len() as f64);
        let map_start = Instant::now();
        let runs = pool.map(&configs, |_, cfg| {
            let start = Instant::now();
            let run = Simulator::try_new_with_trace(cfg.clone(), Some(Arc::clone(&trace)))
                .map(Simulator::run_instrumented);
            (start, Instant::now(), run)
        });
        let map_end = Instant::now();
        let map = rec.record("pool.map", Some(sweep), Link::Replay, map_start, map_end);
        let mut busy = 0.0;
        let mut loop_s = 0.0;
        let mut stats = Vec::new();
        for ((start, end, run), (want, seed)) in runs.into_iter().zip(all_metrics(&report).zip(1..))
        {
            let (metrics, engine) = run.map_err(|e| e.to_string())?;
            if &metrics != want {
                return Err(
                    "an engine run differs from the sweep's run on the same config".to_owned(),
                );
            }
            let id = rec.record("engine.run", Some(map), Link::Nested, start, end);
            busy += (end - start).as_secs_f64();
            let samples = synthetic_latencies(&metrics, seed);
            let (pct, _) = rec.time("metrics.percentiles", Some(id), Link::Replay, || {
                LatencyStats::from_samples_scratch(&samples, &mut Vec::new())
            });
            loop_s += (end - start).as_secs_f64() - rec.spans()[pct].duration();
            stats.push((metrics, engine));
        }
        values
            .entry("pool.items")
            .or_default()
            .push(configs.len() as f64);
        values
            .entry("pool.efficiency")
            .or_default()
            .push(busy / (pool.jobs() as f64 * (map_end - map_start).as_secs_f64()));

        let events: u64 = stats.iter().map(|(_, e)| e.events_processed).sum();
        let sifts: u64 = stats
            .iter()
            .map(|(_, e)| e.heap_sift_ups + e.heap_sift_downs)
            .sum();
        let batches: u64 = stats.iter().map(|(_, e)| e.batch_runs).sum();
        let multi: u64 = stats.iter().map(|(_, e)| e.multi_event_batches).sum();
        let replayed: u64 = stats.iter().map(|(_, e)| e.trace_requests_replayed).sum();
        let completed: u64 = stats.iter().map(|(m, _)| m.completed_requests).sum();
        let peak = stats
            .iter()
            .map(|(_, e)| e.peak_live_requests)
            .max()
            .unwrap_or(0);
        let ev = events as f64;
        for (name, value) in [
            ("engine.events", ev),
            ("engine.ns_per_event", loop_s * 1e9 / ev),
            ("engine.sifts_per_event", sifts as f64 / ev),
            ("engine.batch_hit_rate", multi as f64 / batches as f64),
            ("engine.peak_live_requests", peak as f64),
            ("engine.replayed_frac", replayed as f64 / completed as f64),
        ] {
            values.entry(name).or_default().push(value);
        }

        // Fault sagas: every dispatched offload is one saga of 1 + retries
        // attempts, ending in a result, a host fallback, or abandonment.
        let (mut attempts, mut useful, mut retries, mut fallbacks) = (0u64, 0u64, 0u64, 0u64);
        for o in &report.outcomes {
            let (m, f) = (&o.metrics, &o.metrics.faults);
            attempts += m.offloads_dispatched + f.retries;
            useful += m
                .offloads_dispatched
                .saturating_sub(f.fallbacks + f.abandoned_offloads);
            retries += f.retries;
            fallbacks += f.fallbacks;
        }
        for (name, value) in [
            ("fault.attempts", attempts as f64),
            ("fault.retries", retries as f64),
            ("fault.fallbacks", fallbacks as f64),
            ("fault.useful_ratio", useful as f64 / attempts as f64),
        ] {
            values.entry(name).or_default().push(value);
        }

        let (_, rendered) = rec.time("render", Some(cli), Link::Replay, || {
            serde_json::to_string_pretty(&report)
        });
        let rendered = rendered.map_err(|e| e.to_string())?;
        same("rendered sweep report", rendered.as_bytes(), reference)?;
        values
            .entry("render.bytes")
            .or_default()
            .push(rendered.len() as f64);

        // Ablation: the healthy run with live draws vs replaying the
        // pre-drawn trace, each alone on the host.
        let healthy = &configs[0];
        let (live, _) = rec.time("probe.engine.live", None, Link::Nested, || {
            Simulator::try_new(healthy.clone()).map(Simulator::run_instrumented)
        });
        let (replay, _) = rec.time("probe.engine.replay", None, Link::Nested, || {
            Simulator::try_new_with_trace(healthy.clone(), Some(Arc::clone(&trace)))
                .map(Simulator::run_instrumented)
        });
        let live_s = rec.spans()[live].duration();
        values
            .entry("engine.sampling_share")
            .or_default()
            .push((live_s - rec.spans()[replay].duration()) / live_s);

        // Sharded mode against the exact engine, on the healthy config.
        let mono = &stats[0].0;
        for (name, width) in [("shard.w1", 1), ("shard.w2", 2)] {
            let (_, sharded) = rec.time(name, None, Link::Nested, || {
                run_sharded_instrumented(&ExecPool::new(width), healthy)
            });
            let (metrics, shard) = sharded.map_err(|e| e.to_string())?;
            if width == 1 {
                let max = shard.per_shard_events.iter().copied().max().unwrap_or(0) as f64;
                let min = shard.per_shard_events.iter().copied().min().unwrap_or(0) as f64;
                let err = |a: f64, b: f64| 100.0 * (a - b).abs() / b;
                for (metric, value) in [
                    ("shard.event_spread", max / min),
                    (
                        "shard.tput_err_pct",
                        err(metrics.throughput_per_gcycle, mono.throughput_per_gcycle),
                    ),
                    (
                        "shard.p99_err_pct",
                        err(metrics.latency.p99, mono.latency.p99),
                    ),
                ] {
                    values.entry(metric).or_default().push(value);
                }
            }
        }
        Ok(())
    }

    fn not_applicable(&self, metric: &str) -> &'static str {
        match metric.split('.').next().unwrap_or(metric) {
            "abtest" | "paper_err_pts" => "no Table 6 case study runs in a fault sweep",
            "model" => "the sweep's model check is internal to faultsweep and is not re-derived",
            "registry" => "a fault scenario reads no service packs",
            "profiler" | "profile_samples_per_s" => "the profiler does no work here",
            "kernels" | "kernel_mb_per_s" => "the kernels do no work here",
            _ => "not exercised by this workload",
        }
    }
}

//! # accelctl
//!
//! The Accelerometer artifact workflow as a command-line tool
//! (Appendix A.5 of the paper): "(a) identify model parameters for the
//! accelerator under test, (b) input these model parameters into a
//! configuration file, and (c) run the Accelerometer model for these
//! model parameters to estimate speedup from acceleration."
//!
//! Commands:
//!
//! * `accelctl estimate <config.json>` — evaluate every scenario in a
//!   parameter file (see [`accelerometer::config`] for the format);
//! * `accelctl breakeven --cb <c/B> --a <A> [--o0 N] [--l N] [--q N]
//!   [--o1 N] [--design D] [--strategy S]` — minimum lucrative `g`;
//! * `accelctl sweep <config.json> --axis <axis> --from <x> --to <x>
//!   [--points N]` — sweep one parameter of the file's first scenario;
//! * `accelctl project` — the §5 acceleration recommendations (Fig. 20);
//! * `accelctl characterize <service> [--samples N] [--seed N]` — run the
//!   synthetic profiler and print the §2 breakdowns;
//! * `accelctl validate [--seed N] [--case C]` — run the Table 6 A/B
//!   validation in the simulator (optionally a single case study, or
//!   `--case fallback` for the fault-capacity validation table);
//! * `accelctl faults [scenario.json] [--seed N]` — sweep a fault
//!   scenario across recovery policies and emit a JSON report
//!   (deterministic at any `--jobs` width);
//! * `accelctl timeline <design>` — render the Figs. 12–14 offload
//!   timeline for a threading design;
//! * `accelctl bounds <config.json>` — decompose each scenario's cycle
//!   budget and name the dominant performance bound;
//! * `accelctl slo <config.json> [--min-reduction R]` — latency-SLO
//!   guardrails: tolerable L, n, and required A per scenario;
//! * `accelctl tables <id ...|all>` — regenerate the paper's tables;
//! * `accelctl figures [id ...|all] [--json]` — regenerate the paper's
//!   figures (and the extra `design-space` heatmap);
//! * `accelctl ablations [--seed N]` — run the three modeling ablations;
//! * `accelctl services list|validate <path>|export <dir>` — inspect,
//!   check, or regenerate the data-driven service profiles under
//!   `configs/services/`.
//!
//! Global flags are parsed once, ahead of the command: `--jobs N` builds
//! the worker pool every pool-backed command is handed, and the global
//! `--services <dir|file>` flag loads service profiles from JSON and
//! routes every command through them instead of the built-in
//! constructors — byte-identically for the shipped files, which the
//! golden equivalence suite pins. Whole-number flags (`--jobs`,
//! `--shards`, `--seed`, `--points`, `--samples`) are parsed as integers
//! within stated bounds; anything else is a structured error.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::{Display, Write as _};
use std::fs;
use std::ops::RangeInclusive;
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use accelerometer::units::cycles_per_byte;
use accelerometer::{
    bounds, project, slo, sweep, throughput_breakeven, AccelerationStrategy, BreakEven,
    ConfigFile, Cycles, DriverMode, KernelCost, LatencySlo, OffloadContext, OffloadOverheads,
    Scenario, ThreadingDesign, Timeline, TimelineSpec,
};
use accelerometer_bench::{design_space, figure, figure_json, FIGURE_IDS, TABLE_IDS};
use accelerometer_fleet::params::all_recommendations;
use accelerometer_fleet::{
    active_registry, all_case_studies, profile, set_active_registry, ServiceId, ServiceRegistry,
};
use accelerometer_kernels::dispatch;
use accelerometer_profiler::{analyze, to_folded, TraceGenerator};
use accelerometer_sim::faultsweep::demo_scenario;
use accelerometer_sim::parallel::available_jobs;
use accelerometer_sim::{
    run_fault_sweep_with, set_default_shards, simulate, validate_all_with, validate_fallback_with,
    Calibrator, ExecPool, FaultScenario, SimError, CASE_STUDY_NAMES,
};

/// Top-level usage text.
pub const USAGE: &str = "usage: accelctl [--jobs N] [--shards N] [--isa scalar|auto] [--services <dir|file>] <command> [args]
global flags:
  --jobs N                        worker threads for independent runs, 1 to
                                  1024 (default: available parallelism;
                                  results are byte-identical at any N)
  --shards N                      shard each simulation across N worker
                                  threads, 1 to 1024 (default: off). The
                                  shard count is derived from the
                                  configuration, so output is byte-identical
                                  at any N; sharded output is a different
                                  (documented) decomposition than the
                                  unsharded engine
  --isa scalar|auto               pin the measured kernels' ISA dispatch
                                  (default: auto, or KERNELS_FORCE_SCALAR=1).
                                  Kernel outputs are bit-identical either
                                  way; only wall-clock changes, which is
                                  what `calibrate` measures
  --services <dir|file>           load service profiles from JSON spec
                                  files (see configs/services/) instead of
                                  the built-in constructors; services
                                  without a file keep their builtin. The
                                  shipped files reproduce the builtin
                                  output byte-for-byte
commands:
  estimate <config.json>          evaluate scenarios from a parameter file
  breakeven --cb <c/B> --a <A> [--o0 N] [--l N] [--q N] [--o1 N]
            [--design D] [--strategy S]
  sweep <config.json> --axis <peak-speedup|interface-latency|offloads|
        kernel-fraction|queueing|thread-switch> --from X --to X [--points N]
                                  (N: 2 to 10000, default 10)
  project                         Section 5 recommendations (Fig. 20)
  characterize <service> [--samples N] [--seed N] [--folded]
                                  (N: 1 to 1000000 samples, default 50000)
  validate [--seed N] [--case C]  Table 6 A/B validation in the simulator
                                  (C: aes-ni | encryption | inference |
                                  fallback — the fault-capacity table:
                                  model fallback-load term vs simulated
                                  A/B per failure probability)
  calibrate                       measure the case-study kernels on this
                                  host, both ISA tiers paired in the same
                                  session; prints per-kernel cycles/byte
                                  and the measured acceleration factor
  faults [scenario.json] [--seed N]   fault-injection sweep across recovery
                                  policies; JSON report, byte-identical at
                                  any --jobs width
  timeline <sync|sync-os|async-same-thread|async-distinct-thread|
            async-no-response>
  bounds <config.json>            dominant performance bound per scenario
  slo <config.json> [--min-reduction R]   latency-SLO guardrails
  tables <id ...|all>             regenerate the paper's tables
                                  (table1 .. table7)
  figures [id ...|all] [--json]   regenerate the paper's figures (fig1 ..
                                  fig22, plus design-space; default all).
                                  --json prints each figure's data series;
                                  the text-only timeline figures (fig11 ..
                                  fig14) are skipped by all --json
  ablations [--seed N]            the three modeling ablations, simulated
  services list                   service ids, slugs, and profile sources
  services validate <dir|file>    parse + validate profile JSON; exits
                                  non-zero on the first malformed spec
  services export <dir>           write every builtin profile as
                                  <dir>/<slug>.json (the generator for
                                  configs/services/)
every --seed N is a whole number from 0 to 18446744073709551615";

/// Runs the CLI on pre-split arguments (excluding the program name),
/// returning the text to print.
///
/// # Errors
///
/// Returns a human-readable error message for unknown commands, missing
/// arguments, unreadable files, or invalid parameters.
pub fn run(args: &[String]) -> Result<String, String> {
    let (pool, args) = parse_globals(args)?;
    let args = args.as_slice();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("estimate") => cmd_estimate(&pool, rest),
        Some("calibrate") => Ok(cmd_calibrate()),
        Some("breakeven") => cmd_breakeven(rest),
        Some("sweep") => cmd_sweep(rest),
        Some("project") => Ok(cmd_project()),
        Some("characterize") => cmd_characterize(rest),
        Some("validate") => cmd_validate(&pool, rest),
        Some("faults") => cmd_faults(&pool, rest),
        Some("timeline") => cmd_timeline(rest),
        Some("bounds") => cmd_bounds(rest),
        Some("slo") => cmd_slo(rest),
        Some("tables") => cmd_tables(&pool, rest),
        Some("figures") => cmd_figures(&pool, rest),
        Some("ablations") => cmd_ablations(&pool, rest),
        Some("services") => cmd_services(rest),
        Some("help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

/// The most worker threads `--jobs` or `--shards` may ask for.
const MAX_WORKERS: usize = 1024;

/// Every `u64` is a valid seed.
const SEEDS: RangeInclusive<u64> = 0..=u64::MAX;

/// Takes the global flags out of `args`, wherever they appear, and
/// returns the worker pool `--jobs` asks for (default: the machine's
/// available parallelism) with the command's own arguments.
///
/// `--jobs` only affects wall-clock time, never results. `--shards`,
/// `--isa` and `--services` are process-wide settings: sharded
/// simulation, the kernels' ISA dispatch (outputs are bit-identical
/// either way), and the active service registry.
fn parse_globals(args: &[String]) -> Result<(ExecPool, Vec<String>), String> {
    let mut jobs = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg.as_str();
        if !matches!(name, "--jobs" | "--shards" | "--isa" | "--services") {
            rest.push(arg.clone());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{name} requires a value"))?;
        match name {
            "--jobs" => jobs = Some(whole(name, value, 1..=MAX_WORKERS)?),
            "--shards" => set_default_shards(whole(name, value, 1..=MAX_WORKERS)?),
            "--isa" => dispatch::set_isa_mode(match value.as_str() {
                "scalar" => dispatch::IsaMode::Scalar,
                "auto" => dispatch::IsaMode::Auto,
                other => return Err(format!("--isa expects 'scalar' or 'auto', got '{other}'")),
            }),
            _ => {
                let registry = ServiceRegistry::load_path(Path::new(value))
                    .map_err(|e| format!("--services {value}: {e}"))?;
                set_active_registry(Some(Arc::new(registry)));
            }
        }
    }
    let pool = ExecPool::new(jobs.unwrap_or_else(available_jobs));
    Ok((pool, rest))
}

/// `accelctl calibrate`: measure every case-study kernel on this host,
/// pairing the dispatched and scalar tiers in the same session so the
/// printed acceleration factor is a genuine A/B (same buffers, same
/// driver, same scheduler weather). Numbers are timing-dependent by
/// nature — this command is the interactive companion to the committed
/// `BENCH_kernels.json` medians, not a golden output.
fn cmd_calibrate() -> String {
    // The paper's 2 GHz busy frequency; matches the harness convention.
    let cal = Calibrator::new(2.0e9, 32, 16);
    let mut out = String::new();
    out.push_str(&format!(
        "host ISA: detected {} | active {}\n",
        dispatch::detected_summary(),
        dispatch::active_summary()
    ));
    out.push_str(&format!(
        "{:<12} {:>16} {:>16} {:>8}\n",
        "kernel", "dispatched c/B", "scalar c/B", "factor"
    ));
    for pair in cal.paired_case_studies() {
        out.push_str(&format!(
            "{:<12} {:>16.4} {:>16.4} {:>7.2}x\n",
            pair.dispatched.name,
            pair.dispatched.cycles_per_byte().get(),
            pair.scalar.cycles_per_byte().get(),
            pair.acceleration_factor()
        ));
    }
    out.push_str(
        "factor = scalar/dispatched cycles per byte; < 1.00x means the\n\
         SIMD path loses at this granularity (reported honestly).",
    );
    out
}

/// The value following flag `name`, if the flag is present.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{name} requires a value")),
        None => Ok(None),
    }
}

fn parse_f64(args: &[String], name: &str, default: Option<f64>) -> Result<f64, String> {
    match flag_value(args, name)? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects a number, got '{v}'")),
        None => default.ok_or_else(|| format!("missing required flag {name}")),
    }
}

/// `value` (given for flag `name`) as a whole number within `bounds`.
fn whole<T>(name: &str, value: &str, bounds: RangeInclusive<T>) -> Result<T, String>
where
    T: FromStr + PartialOrd + Display,
{
    value
        .parse()
        .ok()
        .filter(|n| bounds.contains(n))
        .ok_or_else(|| {
            format!(
                "{name} expects a whole number from {} to {}, got '{value}'",
                bounds.start(),
                bounds.end()
            )
        })
}

/// Flag `name` as a whole number within `bounds`, if present.
fn int_flag<T>(args: &[String], name: &str, bounds: RangeInclusive<T>) -> Result<Option<T>, String>
where
    T: FromStr + PartialOrd + Display,
{
    flag_value(args, name)?
        .map(|v| whole(name, v, bounds))
        .transpose()
}

fn parse_design(value: &str) -> Result<ThreadingDesign, String> {
    serde_json::from_value(serde_json::Value::String(value.to_owned()))
        .map_err(|_| format!("unknown threading design '{value}'"))
}

fn parse_strategy(value: &str) -> Result<AccelerationStrategy, String> {
    serde_json::from_value(serde_json::Value::String(value.to_owned()))
        .map_err(|_| format!("unknown strategy '{value}'"))
}

fn parse_service(value: &str) -> Result<ServiceId, String> {
    ServiceId::ALL
        .into_iter()
        .find(|s| s.to_string().eq_ignore_ascii_case(value))
        .ok_or_else(|| format!("unknown service '{value}' (expected Web, Feed1, ..., Cache3)"))
}

fn load_config(path: &str) -> Result<ConfigFile, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ConfigFile::from_json(&text).map_err(|e| e.to_string())
}

fn format_scenario_estimate(
    name: &str,
    scenario: &Scenario,
    est: &accelerometer::Estimate,
) -> String {
    format!(
        "{name}: throughput speedup {:.4}x ({:+.2}%), latency reduction {:.4}x ({:+.2}%)  [{} / {}]",
        est.throughput_speedup,
        est.throughput_gain_percent(),
        est.latency_reduction,
        est.latency_gain_percent(),
        scenario.design,
        scenario.strategy,
    )
}

fn cmd_estimate(pool: &ExecPool, args: &[String]) -> Result<String, String> {
    let path = args
        .first()
        .ok_or("estimate requires a config file path")?;
    let cfg = load_config(path)?;
    let scenarios = cfg.to_scenarios().map_err(|e| e.to_string())?;
    if scenarios.is_empty() {
        return Err("config contains no scenarios".to_owned());
    }
    let bare: Vec<Scenario> = scenarios.iter().map(|(_, s)| *s).collect();
    let estimates = sweep::estimate_batch_with(pool, &bare);
    let mut out = String::new();
    for ((name, scenario), est) in scenarios.iter().zip(&estimates) {
        let _ = writeln!(out, "{}", format_scenario_estimate(name, scenario, est));
    }
    Ok(out)
}

fn cmd_breakeven(args: &[String]) -> Result<String, String> {
    let cb = parse_f64(args, "--cb", None)?;
    let a = parse_f64(args, "--a", None)?;
    let o0 = parse_f64(args, "--o0", Some(0.0))?;
    let l = parse_f64(args, "--l", Some(0.0))?;
    let q = parse_f64(args, "--q", Some(0.0))?;
    let o1 = parse_f64(args, "--o1", Some(0.0))?;
    let design = match flag_value(args, "--design")? {
        Some(d) => parse_design(d)?,
        None => ThreadingDesign::Sync,
    };
    let strategy = match flag_value(args, "--strategy")? {
        Some(s) => parse_strategy(s)?,
        None => AccelerationStrategy::OffChip,
    };
    let ctx = OffloadContext::new(OffloadOverheads::new(o0, l, q, o1), a, design, strategy);
    let cost = KernelCost::linear(cycles_per_byte(cb));
    let be = throughput_breakeven(&cost, &ctx);
    Ok(match be {
        BreakEven::AtLeast(g) => format!(
            "offloads improve throughput when g >= {:.1} B  [{design} / {strategy}]",
            g.get()
        ),
        BreakEven::Always => format!("every offload improves throughput  [{design} / {strategy}]"),
        BreakEven::Never => format!(
            "no granularity improves throughput (A = {a} cannot recoup overheads)  [{design} / {strategy}]"
        ),
    })
}

/// The most grid points `sweep --points` may ask for.
const MAX_POINTS: usize = 10_000;

fn cmd_sweep(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("sweep requires a config file path")?;
    let cfg = load_config(path)?;
    let (name, scenario) = cfg
        .to_scenarios()
        .map_err(|e| e.to_string())?
        .into_iter()
        .next()
        .ok_or("config contains no scenarios")?;
    let axis_name = flag_value(args, "--axis")?.ok_or("missing required flag --axis")?;
    let axis: sweep::SweepAxis =
        serde_json::from_value(serde_json::Value::String(axis_name.to_owned()))
            .map_err(|_| format!("unknown sweep axis '{axis_name}'"))?;
    let from = parse_f64(args, "--from", None)?;
    let to = parse_f64(args, "--to", None)?;
    let points = int_flag(args, "--points", 2..=MAX_POINTS)?.unwrap_or(10);
    if !(from.is_finite() && to.is_finite() && from < to) {
        return Err("sweep requires finite --from < --to".to_owned());
    }
    let values = if from > 0.0 {
        sweep::log_space(from, to, points)
    } else {
        sweep::lin_space(from, to, points)
    };
    let mut out = format!("sweep of {axis_name} for scenario '{name}':\n");
    for point in sweep::sweep(&scenario, axis, &values) {
        let _ = writeln!(
            out,
            "  {axis_name} = {:>12.2}: speedup {:.4}x, latency reduction {:.4}x",
            point.x, point.estimate.throughput_speedup, point.estimate.latency_reduction
        );
    }
    Ok(out)
}

fn cmd_project() -> String {
    let mut out = String::from("Section 5 acceleration recommendations (Fig. 20):\n");
    for rec in all_recommendations() {
        let _ = writeln!(out, "{} (ideal {:.1}%):", rec.name, rec.paper_ideal_percent);
        for cfg in &rec.configs {
            let p = project(&rec.profile, &cfg.accelerator, cfg.design, cfg.policy)
                .expect("static recommendation parameters are valid");
            let breakeven = match p.breakeven {
                BreakEven::AtLeast(g) => format!("g >= {:.0} B", g.get()),
                BreakEven::Always => "all offloads".to_owned(),
                BreakEven::Never => "never lucrative".to_owned(),
            };
            let _ = writeln!(
                out,
                "  {:<18} speedup {:>6.2}%  latency {:>6.2}%  n = {:>9.0}  ({breakeven})",
                cfg.label,
                p.estimate.throughput_gain_percent(),
                p.estimate.latency_gain_percent(),
                p.selection.offloads,
            );
        }
    }
    out
}

/// The most traces `characterize --samples` may ask for. Every trace is
/// held in memory until it is analyzed or folded (a few owned frame
/// strings each, ~270 B), so the bound caps the run's memory: at
/// `--samples 1000000` the release binary peaks at 270–280 MB RSS for
/// each of the 11 shipped services, with or without `--folded` (x86-64
/// Linux, glibc malloc).
const MAX_SAMPLES: usize = 1_000_000;

fn cmd_characterize(args: &[String]) -> Result<String, String> {
    let service = parse_service(args.first().ok_or("characterize requires a service name")?)?;
    let samples = int_flag(args, "--samples", 1..=MAX_SAMPLES)?.unwrap_or(50_000);
    let seed = int_flag(args, "--seed", SEEDS)?.unwrap_or(42);
    let mut generator = TraceGenerator::new(profile(service), seed);
    let traces = generator.generate(samples);
    if args.iter().any(|a| a == "--folded") {
        // Collapsed-stack output for flamegraph tooling.
        return Ok(to_folded(&traces));
    }
    let report = analyze(&traces, generator.registry());
    Ok(format!("characterization of {service}:\n{}", report.render()))
}

fn cmd_validate(pool: &ExecPool, args: &[String]) -> Result<String, String> {
    let seed = int_flag(args, "--seed", SEEDS)?.unwrap_or(20_260_706);
    if let Some(name) = flag_value(args, "--case")? {
        if name == "fallback" {
            // Not a Table 6 row: the fault-capacity analogue. Model's
            // fallback-load term vs a simulated A/B per failure rate.
            let mut out = String::from(
                "fallback-capacity validation (model vs simulated A/B; retries 1, fallback-to-host):\n",
            );
            for r in validate_fallback_with(pool, seed) {
                let _ = writeln!(
                    out,
                    "  p = {:.1}  E[a] {:.2}  p_fb {:.3}  model {:>6.2}%  simulated {:>6.2}%  fallbacks {:>5}  core util {:.4}  (model-vs-sim {:.2} pts)",
                    r.failure_probability,
                    r.expected_attempts,
                    r.fallback_probability,
                    r.model_gain_percent,
                    r.simulated_gain_percent,
                    r.fallbacks,
                    r.core_utilization,
                    r.model_vs_simulated_points(),
                );
            }
            out.push_str(
                "fallback re-executions are scheduled core slices: the model's\n\
                 p_fb*alpha load term tracks the simulator within 2 points\n",
            );
            return Ok(out);
        }
        let studies = all_case_studies();
        let Some(study) = studies.iter().find(|s| s.name == name) else {
            // `fallback` is a CLI-level case (handled above), not a sim
            // case study, so append it to the sim error's valid list.
            return Err(format!(
                "{}; 'fallback' selects the fault-capacity table",
                SimError::UnknownCaseStudy {
                    name: name.to_owned(),
                    valid: CASE_STUDY_NAMES,
                }
            ));
        };
        let (v, _ab) = simulate(study, seed).map_err(|e| e.to_string())?;
        return Ok(format!(
            "case study {}: model {:.2}%  simulated {:.2}%  paper est {:.1}% real {:.2}%  (model-vs-sim {:.2} pts)\n",
            v.name,
            v.model_estimate_percent,
            v.simulated_percent,
            v.paper_estimated_percent,
            v.paper_real_percent,
            v.model_vs_simulated_points(),
        ));
    }
    let mut out = String::from("Table 6 validation (model vs simulated A/B vs paper):\n");
    for v in validate_all_with(pool, seed) {
        let _ = writeln!(
            out,
            "  {:<11} model {:>6.2}%  simulated {:>6.2}%  paper est {:>5.1}% real {:>6.2}%  (model-vs-sim {:.2} pts)",
            v.name,
            v.model_estimate_percent,
            v.simulated_percent,
            v.paper_estimated_percent,
            v.paper_real_percent,
            v.model_vs_simulated_points(),
        );
    }
    out.push_str("paper's bound: model estimates real speedup with <= 3.7% error\n");
    Ok(out)
}

/// `accelctl faults [scenario.json] [--seed N]`: run the fault sweep —
/// the built-in degradation scenario by default, or one loaded from a
/// JSON file — and emit the report as pretty-printed JSON. Every run is
/// an independent seeded simulation, so output is byte-identical at any
/// `--jobs` width.
fn cmd_faults(pool: &ExecPool, args: &[String]) -> Result<String, String> {
    let seed = int_flag(args, "--seed", SEEDS)?;
    let scenario = match args.first().filter(|a| !a.starts_with("--")) {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut scenario: FaultScenario = serde_json::from_str(&text)
                .map_err(|e| format!("invalid fault scenario {path}: {e}"))?;
            // --seed overrides the file's seed; otherwise the file wins.
            if let Some(seed) = seed {
                scenario.base.seed = seed;
            }
            scenario
        }
        None => demo_scenario(seed.unwrap_or(20_260_806)),
    };
    let report = run_fault_sweep_with(pool, &scenario).map_err(|e| e.to_string())?;
    serde_json::to_string_pretty(&report).map_err(|e| e.to_string())
}

fn cmd_timeline(args: &[String]) -> Result<String, String> {
    let design = parse_design(args.first().ok_or("timeline requires a threading design")?)?;
    let spec = TimelineSpec {
        kernel_cycles: Cycles::new(10_000.0),
        peak_speedup: 10.0,
        overheads: OffloadOverheads::new(300.0, 600.0, 200.0, 500.0),
        design,
        strategy: AccelerationStrategy::OffChip,
        driver: DriverMode::AwaitsAck,
    };
    Ok(format!(
        "offload timeline for {design}:\n{}",
        Timeline::build(spec).render_ascii(70)
    ))
}

fn cmd_bounds(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("bounds requires a config file path")?;
    let cfg = load_config(path)?;
    let scenarios = cfg.to_scenarios().map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (name, scenario) in &scenarios {
        let report = bounds::diagnose(scenario);
        let _ = writeln!(out, "{name}:");
        for line in report.render().lines() {
            let _ = writeln!(out, "  {line}");
        }
    }
    Ok(out)
}

fn cmd_slo(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("slo requires a config file path")?;
    let cfg = load_config(path)?;
    let min_reduction = parse_f64(args, "--min-reduction", Some(1.0))?;
    let target = LatencySlo::at_least(min_reduction).map_err(|e| e.to_string())?;
    let scenarios = cfg.to_scenarios().map_err(|e| e.to_string())?;
    let mut out = format!("latency SLO: require C/CL >= {min_reduction}\n");
    for (name, scenario) in &scenarios {
        let met = if target.is_met_by(scenario) { "MET" } else { "VIOLATED" };
        let max_l = slo::max_interface_latency(scenario, target)
            .map_or("infeasible".to_owned(), |c| format!("{:.0} cycles", c.get()));
        let max_n = slo::max_offload_rate(scenario, target)
            .map_or("infeasible".to_owned(), |n| {
                if n.is_infinite() {
                    "unbounded".to_owned()
                } else {
                    format!("{n:.0}/window")
                }
            });
        let min_a = slo::min_peak_speedup(scenario, target)
            .map_or("infeasible".to_owned(), |a| format!("{a:.2}"));
        let _ = writeln!(
            out,
            "  {name}: {met}; max L = {max_l}; max n = {max_n}; min A = {min_a}"
        );
        if slo::gains_throughput_but_slows_requests(scenario) {
            let _ = writeln!(
                out,
                "    warning: gains throughput while slowing individual requests (Sync-OS hazard)"
            );
        }
    }
    Ok(out)
}

/// `accelctl tables <id ...|all>`: regenerate the paper's tables through
/// whatever profile data is active — built-in constructors by default,
/// or JSON specs when `--services` is given. The tier-1 gate diffs the
/// two paths byte-for-byte.
fn cmd_tables(pool: &ExecPool, args: &[String]) -> Result<String, String> {
    let id = args
        .first()
        .ok_or("tables requires a table id (table1 .. table7) or 'all'")?;
    if id == "all" {
        let mut out = String::new();
        for id in TABLE_IDS {
            out.push_str(&accelerometer_bench::render_table(pool, id).expect("known table id"));
            out.push('\n');
        }
        return Ok(out);
    }
    let tables = args
        .iter()
        .map(|id| {
            accelerometer_bench::render_table(pool, id)
                .ok_or_else(|| format!("unknown table '{id}' (expected table1 .. table7 or all)"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(tables.join("\n"))
}

/// `accelctl figures [id ...|all] [--json]`: regenerate the paper's
/// figures, rendered in parallel on `pool` and printed in request order.
/// With `--json`, each figure prints its data series instead; naming a
/// text-only figure then is an error, while `all` skips them.
fn cmd_figures(pool: &ExecPool, args: &[String]) -> Result<String, String> {
    let json = args.iter().any(|a| a == "--json");
    let requested: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--json")
        .collect();
    let all = requested.is_empty() || requested.contains(&"all");
    let ids = if all { FIGURE_IDS.to_vec() } else { requested };
    if let Some(id) = ids
        .iter()
        .find(|id| **id != "design-space" && !FIGURE_IDS.contains(id))
    {
        return Err(format!(
            "unknown figure id: {id} (expected fig1 .. fig22, design-space or all)"
        ));
    }
    let rendered = pool.map(&ids, |_, id| render_figure(pool, id, json));
    let mut out = Vec::with_capacity(ids.len());
    for (id, text) in ids.iter().zip(rendered) {
        match text {
            Some(text) => out.push(text),
            None if all => {}
            None => {
                return Err(format!(
                    "no JSON series for {id} (the timeline figures are text-only)"
                ))
            }
        }
    }
    Ok(out.join("\n"))
}

/// One known figure as text, or as its pretty-printed JSON series
/// (`None` for a figure that has none).
fn render_figure(pool: &ExecPool, id: &str, json: bool) -> Option<String> {
    if json {
        let series = serde_json::json!({ id: figure_json(id)? });
        Some(serde_json::to_string_pretty(&series).expect("figure data serializes"))
    } else if id == "design-space" {
        // Extra (non-paper) figure: the A x L heatmap per design.
        let designs = [
            ThreadingDesign::Sync,
            ThreadingDesign::SyncOs,
            ThreadingDesign::AsyncNoResponse,
        ];
        let maps = designs.map(|design| design_space::render(pool, 2.3e9, 0.15, 15_008.0, design));
        Some(maps.join("\n"))
    } else {
        figure(id)
    }
}

/// `accelctl ablations [--seed N]`: the three modeling ablations, their
/// A/B experiments run on `pool`.
fn cmd_ablations(pool: &ExecPool, args: &[String]) -> Result<String, String> {
    let seed = int_flag(args, "--seed", SEEDS)?.unwrap_or(20_260_706);
    Ok(accelerometer_bench::ablations::render_all(pool, seed))
}

/// `accelctl services list|validate <dir|file>|export <dir>`: the
/// data-driven profile toolkit. `validate` is the CI gate over
/// `configs/services/`; `export` regenerates those files from the
/// built-in constructors.
fn cmd_services(args: &[String]) -> Result<String, String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            let active = active_registry();
            let registry = active
                .as_deref()
                .map_or_else(ServiceRegistry::builtin, Clone::clone);
            let mut out = format!(
                "{:<14} {:<14} {:<13} source\n",
                "service", "slug", "domain"
            );
            for id in ServiceId::ALL {
                let source = if registry.loaded_services().contains(&id) {
                    "loaded file"
                } else {
                    "builtin"
                };
                let _ = writeln!(
                    out,
                    "{:<14} {:<14} {:<13} {source}",
                    id.to_string(),
                    id.slug(),
                    format!("{:?}", id.domain()),
                );
            }
            Ok(out)
        }
        Some("validate") => {
            let path = args
                .get(1)
                .ok_or("services validate requires a path (profile dir or file)")?;
            let registry = ServiceRegistry::load_path(std::path::Path::new(path))
                .map_err(|e| e.to_string())?;
            let loaded: Vec<&str> = registry
                .loaded_services()
                .iter()
                .map(|id| id.slug())
                .collect();
            Ok(format!(
                "ok: {} valid service spec(s): {}\n",
                loaded.len(),
                loaded.join(", ")
            ))
        }
        Some("export") => {
            let dir = args
                .get(1)
                .ok_or("services export requires a target directory")?;
            let written = ServiceRegistry::export_dir(std::path::Path::new(dir))
                .map_err(|e| e.to_string())?;
            let mut out = String::new();
            for path in &written {
                let _ = writeln!(out, "wrote {}", path.display());
            }
            Ok(out)
        }
        _ => Err("services requires a subcommand: list | validate <dir|file> | export <dir>"
            .to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, PoisonError};

    use super::*;

    /// Serializes tests that mutate or depend on the process-wide
    /// `--shards` default, so parallel test threads cannot observe each
    /// other's global state.
    static SHARDS_GLOBAL: Mutex<()> = Mutex::new(());

    fn lock_shards_global() -> std::sync::MutexGuard<'static, ()> {
        SHARDS_GLOBAL
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    /// Writes the case-study config to a temp file no other test shares.
    fn write_config() -> String {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let name = format!("accelctl-test-{}-{n}.json", std::process::id());
        let path = std::env::temp_dir().join(name);
        fs::write(
            &path,
            r#"{"scenarios": [{
                "name": "aes-ni-cache1",
                "c": 2.0e9, "alpha": 0.165844, "n": 298951,
                "o0": 10, "l": 3, "a": 6,
                "design": "sync", "strategy": "on-chip"
            }]}"#,
        )
        .expect("temp file writable");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&[]).unwrap().contains("usage"));
        assert!(run(&args(&["help"])).unwrap().contains("estimate"));
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn jobs_flag_is_global_and_validated() {
        let path = write_config();
        let out = run(&args(&["--jobs", "2", "estimate", &path])).unwrap();
        fs::remove_file(&path).ok();
        assert!(out.contains("aes-ni-cache1"), "{out}");
        assert!(out.contains("+15.7"), "{out}");
        // Missing / non-positive values are rejected before dispatch.
        assert!(run(&args(&["--jobs"])).unwrap_err().contains("--jobs"));
        for bad in ["zero", "0", "1025", "2.5", "-1"] {
            let err = run(&args(&["--jobs", bad, "help"])).unwrap_err();
            assert!(
                err.contains("--jobs expects a whole number from 1 to 1024"),
                "{bad}: {err}"
            );
        }
        // Global flags are taken out wherever they appear.
        let path = write_config();
        let out = run(&args(&["estimate", &path, "--jobs", "1"])).unwrap();
        fs::remove_file(&path).ok();
        assert!(out.contains("+15.7"), "{out}");
    }

    /// `--seed` is a whole number: fractions, negatives and words are
    /// structured errors, never truncated or defaulted.
    fn assert_seed_rejected(command: &[&str]) {
        for bad in ["2.7", "-5", "abc", "1e3"] {
            let mut list = command.to_vec();
            list.extend(["--seed", bad]);
            let err = run(&args(&list)).unwrap_err();
            assert!(
                err.contains(&format!(
                    "--seed expects a whole number from 0 to {}, got '{bad}'",
                    u64::MAX
                )),
                "{list:?}: {err}"
            );
        }
    }

    #[test]
    fn characterize_rejects_non_integer_seeds() {
        assert_seed_rejected(&["characterize", "web", "--samples", "10"]);
    }

    #[test]
    fn validate_rejects_non_integer_seeds() {
        assert_seed_rejected(&["validate"]);
    }

    #[test]
    fn faults_rejects_non_integer_seeds() {
        assert_seed_rejected(&["faults"]);
    }

    #[test]
    fn ablations_rejects_non_integer_seeds() {
        assert_seed_rejected(&["ablations"]);
    }

    #[test]
    fn flags_without_values_are_errors() {
        for list in [
            &["characterize", "web", "--samples"][..],
            &["validate", "--seed"],
            &["validate", "--case"],
            &["breakeven", "--cb", "5", "--a"],
        ] {
            let err = run(&args(list)).unwrap_err();
            assert!(err.contains("requires a value"), "{list:?}: {err}");
        }
    }

    #[test]
    fn tables_render_one_or_several_ids() {
        let pool = ExecPool::new(1);
        let one = |id| accelerometer_bench::render_table(&pool, id).unwrap();
        assert_eq!(run(&args(&["tables", "table1"])).unwrap(), one("table1"));
        let both = run(&args(&["tables", "table1", "table5"])).unwrap();
        assert_eq!(both, format!("{}\n{}", one("table1"), one("table5")));
        let err = run(&args(&["tables", "table1", "table99"])).unwrap_err();
        assert!(err.contains("unknown table 'table99'"), "{err}");
        assert!(run(&args(&["tables"])).is_err());
    }

    #[test]
    fn figures_render_text_and_json() {
        let out = run(&args(&["figures", "fig20", "fig3"])).unwrap();
        assert!(out.starts_with(&figure("fig20").unwrap()), "{out}");
        assert!(out.ends_with(&figure("fig3").unwrap()), "{out}");
        let out = run(&args(&["figures", "fig19", "--json"])).unwrap();
        assert!(out.starts_with("{\n  \"fig19\""), "{out}");
        let out = run(&args(&["--jobs", "1", "figures", "design-space"])).unwrap();
        assert_eq!(out.matches("== Design space").count(), 3, "{out}");
        // Naming a text-only figure with --json, or an unknown id, fails.
        let err = run(&args(&["figures", "fig12", "--json"])).unwrap_err();
        assert!(err.contains("no JSON series for fig12"), "{err}");
        let err = run(&args(&["figures", "fig99"])).unwrap_err();
        assert!(err.contains("unknown figure id: fig99"), "{err}");
    }

    #[test]
    fn figures_all_json_skips_the_timeline_figures() {
        let out = run(&args(&["figures", "all", "--json"])).unwrap();
        for id in ["\"fig1\"", "\"fig10\"", "\"fig15\"", "\"fig22\""] {
            assert!(out.contains(id), "missing {id}");
        }
        for id in ["\"fig11\"", "\"fig14\""] {
            assert!(!out.contains(id), "text-only {id} printed");
        }
    }

    #[test]
    fn isa_flag_is_global_and_validated() {
        // The flag must strip cleanly ahead of any command and reject
        // unknown modes before dispatch. Outputs are bit-identical at
        // either setting (the kernels' equivalence suite proves that),
        // so `help` is a sufficient carrier command here.
        let out = run(&args(&["--isa", "scalar", "help"])).unwrap();
        assert!(out.contains("usage:"), "{out}");
        let out = run(&args(&["--isa", "auto", "help"])).unwrap();
        assert!(out.contains("usage:"), "{out}");
        assert!(run(&args(&["--isa"])).unwrap_err().contains("--isa"));
        assert!(run(&args(&["--isa", "avx512", "help"]))
            .unwrap_err()
            .contains("avx512"));
        // Leave the process in auto mode for any test that runs after.
        dispatch::set_isa_mode(dispatch::IsaMode::Auto);
    }

    #[test]
    fn calibrate_reports_all_paired_kernels() {
        let out = run(&args(&["calibrate"])).unwrap();
        for kernel in ["encryption", "compression", "hashing", "inference"] {
            assert!(out.contains(kernel), "missing {kernel}:\n{out}");
        }
        assert!(out.contains("host ISA: detected"), "{out}");
        // Honest-reporting footer: losses are printed, not hidden.
        assert!(out.contains("reported honestly"), "{out}");
    }

    #[test]
    fn estimate_reproduces_case_study_1() {
        let path = write_config();
        let out = run(&args(&["estimate", &path])).unwrap();
        fs::remove_file(&path).ok();
        assert!(out.contains("aes-ni-cache1"), "{out}");
        assert!(out.contains("+15.7"), "{out}");
    }

    #[test]
    fn estimate_errors_on_missing_file() {
        let err = run(&args(&["estimate", "/nonexistent/file.json"])).unwrap_err();
        assert!(err.contains("cannot read"));
        assert!(run(&args(&["estimate"])).is_err());
    }

    #[test]
    fn breakeven_reports_425_bytes() {
        let out = run(&args(&[
            "breakeven", "--cb", "5.62", "--a", "27", "--l", "2300",
        ]))
        .unwrap();
        assert!(out.contains("425"), "{out}");
        // Async variant: threshold drops to ~409 B.
        let out = run(&args(&[
            "breakeven",
            "--cb",
            "5.62",
            "--a",
            "27",
            "--l",
            "2300",
            "--design",
            "async-no-response",
        ]))
        .unwrap();
        assert!(out.contains("409"), "{out}");
    }

    #[test]
    fn breakeven_requires_cb_and_a() {
        assert!(run(&args(&["breakeven", "--cb", "5.0"])).is_err());
        assert!(run(&args(&["breakeven", "--a", "6"])).is_err());
        assert!(run(&args(&["breakeven", "--cb", "x", "--a", "6"])).is_err());
    }

    #[test]
    fn sweep_runs_over_config() {
        let path = write_config();
        let out = run(&args(&[
            "sweep", &path, "--axis", "peak-speedup", "--from", "2", "--to", "32", "--points", "5",
        ]))
        .unwrap();
        fs::remove_file(&path).ok();
        assert_eq!(out.lines().count(), 6, "{out}");
        assert!(out.contains("speedup"));
        // --points is a whole number from 2 to 10 000.
        for bad in ["1", "10001", "1e18", "2.5"] {
            let path = write_config();
            let err = run(&args(&[
                "sweep",
                &path,
                "--axis",
                "peak-speedup",
                "--from",
                "2",
                "--to",
                "32",
                "--points",
                bad,
            ]))
            .unwrap_err();
            fs::remove_file(&path).ok();
            assert!(
                err.contains("--points expects a whole number from 2 to 10000"),
                "{bad}: {err}"
            );
        }
        // A NaN bound once reached `lin_space`'s assertion and panicked.
        for (from, to) in [("nan", "32"), ("-inf", "32"), ("2", "inf"), ("32", "2")] {
            let path = write_config();
            let list = ["sweep", &path, "--axis", "peak-speedup", "--from", from, "--to", to];
            let err = run(&args(&list)).unwrap_err();
            fs::remove_file(&path).ok();
            assert!(err.contains("finite --from < --to"), "{from}..{to}: {err}");
        }
        // Bad axis.
        let err = run(&args(&["sweep", "/nonexistent", "--axis", "x"])).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn project_prints_fig20_numbers() {
        let out = cmd_project();
        assert!(out.contains("Feed1: Compression"));
        assert!(out.contains("13.6"), "{out}");
        assert!(out.contains("g >= 425 B"), "{out}");
    }

    #[test]
    fn characterize_runs_profiler() {
        let out = run(&args(&["characterize", "web", "--samples", "5000"])).unwrap();
        assert!(out.contains("characterization of Web"));
        assert!(out.contains("Logging"));
        let err = run(&args(&["characterize", "nope"])).unwrap_err();
        assert!(err.contains("unknown service"));
    }

    #[test]
    fn bounds_names_the_dominant_term() {
        let path = write_config();
        let out = run(&args(&["bounds", &path])).unwrap();
        fs::remove_file(&path).ok();
        assert!(out.contains("aes-ni-cache1"), "{out}");
        assert!(out.contains("accelerator time on host path"), "{out}");
        assert!(out.contains("ceiling"), "{out}");
    }

    #[test]
    fn slo_reports_guardrails() {
        let path = write_config();
        let out = run(&args(&["slo", &path])).unwrap();
        fs::remove_file(&path).ok();
        assert!(out.contains("MET"), "{out}");
        assert!(out.contains("max L"), "{out}");
        // An unreachable SLO reports infeasibility.
        let path = write_config();
        let out = run(&args(&["slo", &path, "--min-reduction", "3.0"])).unwrap();
        fs::remove_file(&path).ok();
        assert!(out.contains("VIOLATED"), "{out}");
        assert!(out.contains("infeasible"), "{out}");
    }

    #[test]
    fn characterize_folded_emits_collapsed_stacks() {
        let out = run(&args(&["characterize", "cache1", "--samples", "500", "--folded"])).unwrap();
        assert!(out.lines().count() > 20, "{out}");
        let first = out.lines().next().unwrap();
        assert!(first.contains(';'), "{first}");
        assert!(first.rsplit(' ').next().unwrap().parse::<u64>().is_ok());
    }

    #[test]
    fn validate_runs_a_single_case_and_rejects_unknown_names() {
        let out = run(&args(&["validate", "--case", "aes-ni"])).unwrap();
        assert!(out.contains("case study aes-ni"), "{out}");
        assert!(out.contains("model"), "{out}");
        // Regression: an unknown name used to panic inside the sim
        // crate; it must now surface the structured error listing the
        // valid names.
        let err = run(&args(&["validate", "--case", "bogus"])).unwrap_err();
        assert!(err.contains("unknown case study 'bogus'"), "{err}");
        assert!(err.contains("aes-ni, encryption, inference"), "{err}");
        assert!(err.contains("'fallback'"), "{err}");
    }

    #[test]
    fn validate_fallback_prints_the_fault_capacity_table() {
        let out = run(&args(&["validate", "--case", "fallback"])).unwrap();
        assert!(out.contains("fallback-capacity validation"), "{out}");
        // One row per swept probability, healthy row included.
        for p in ["p = 0.0", "p = 0.2", "p = 0.5", "p = 0.8"] {
            assert!(out.contains(p), "missing {p}:\n{out}");
        }
        assert!(out.contains("model-vs-sim"), "{out}");
    }

    #[test]
    fn shards_flag_is_global_and_validated() {
        let _guard = lock_shards_global();
        let one = run(&args(&["--shards", "1", "faults"])).unwrap();
        let four = run(&args(&["--shards", "4", "faults"])).unwrap();
        set_default_shards(0);
        assert_eq!(one, four, "faults report must not depend on --shards width");
        let classic = run(&args(&["faults"])).unwrap();
        assert_ne!(
            one, classic,
            "the demo scenario decomposes into 2 shards, a different run"
        );
        // Missing / non-positive values are rejected before dispatch.
        assert!(run(&args(&["--shards"])).unwrap_err().contains("--shards"));
        assert!(run(&args(&["--shards", "zero", "help"])).is_err());
        assert!(run(&args(&["--shards", "0", "help"])).is_err());
    }

    #[test]
    fn faults_sweep_reports_every_policy() {
        let _guard = lock_shards_global();
        let out = run(&args(&["faults", "--seed", "11"])).unwrap();
        for policy in ["no-recovery", "retry", "retry-fallback", "admission", "full"] {
            assert!(out.contains(&format!("\"{policy}\"")), "{policy} missing");
        }
        assert!(out.contains("goodput_per_gcycle"), "{out}");
        assert!(out.contains("slo_met"), "{out}");
        assert!(run(&args(&["faults", "/nonexistent.json"]))
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    fn faults_config_file_matches_the_builtin_scenario() {
        let _guard = lock_shards_global();
        let builtin = run(&args(&["faults"])).unwrap();
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/faults-degradation.json"
        );
        let from_file = run(&args(&["faults", path])).unwrap();
        assert_eq!(builtin, from_file);
    }

    #[test]
    fn timeline_renders_designs() {
        let out = run(&args(&["timeline", "sync-os"])).unwrap();
        assert!(out.contains("accelerator"));
        assert!(run(&args(&["timeline", "bogus"])).is_err());
    }
}

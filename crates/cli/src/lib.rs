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
//! * `accelctl tables <id|all>` — regenerate the paper's tables;
//! * `accelctl services list|validate <path>|export <dir>` — inspect,
//!   check, or regenerate the data-driven service profiles under
//!   `configs/services/`.
//!
//! The global `--services <dir|file>` flag loads service profiles from
//! JSON and routes every command through them instead of the built-in
//! constructors — byte-identically for the shipped files, which the
//! golden equivalence suite pins.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::fs;

use accelerometer::units::cycles_per_byte;
use accelerometer::{
    bounds, project, slo, sweep, throughput_breakeven, AccelerationStrategy, BreakEven,
    ConfigFile, Cycles, DriverMode, KernelCost, LatencySlo, OffloadContext, OffloadOverheads,
    Scenario, ThreadingDesign, Timeline, TimelineSpec,
};
use accelerometer_fleet::params::all_recommendations;
use accelerometer_fleet::{
    active_registry, all_case_studies, profile, ServiceId, ServiceRegistry,
};
use accelerometer_kernels::dispatch;
use accelerometer_profiler::{analyze, to_folded, TraceGenerator};
use accelerometer_sim::faultsweep::demo_scenario;
use accelerometer_sim::{
    run_fault_sweep, set_default_shards, set_trace_reuse, simulate, validate_all,
    validate_fallback, Calibrator, FaultScenario, SimError, CASE_STUDY_NAMES,
};

/// Top-level usage text.
pub const USAGE: &str = "usage: accelctl [--jobs N] [--shards N] [--trace-reuse on|off] [--isa scalar|auto] [--services <dir|file>] <command> [args]
global flags:
  --jobs N                        worker threads for independent runs
                                  (default: available parallelism; results
                                  are byte-identical at any N)
  --shards N                      shard each simulation across worker
                                  threads (default: off). The shard count
                                  is derived from the configuration, so
                                  output is byte-identical at any N >= 1;
                                  sharded output is a different (documented)
                                  decomposition than the unsharded engine
  --trace-reuse on|off            reuse one frozen workload trace across a
                                  sweep's grid points (default: on). Both
                                  settings are byte-identical; off exists
                                  to prove it and to measure the sampling
                                  cost it removes
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
  project                         Section 5 recommendations (Fig. 20)
  characterize <service> [--samples N] [--seed N] [--folded]
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
  tables <id|all>                 regenerate the paper's tables
                                  (table1 .. table7)
  services list                   service ids, slugs, and profile sources
  services validate <dir|file>    parse + validate profile JSON; exits
                                  non-zero on the first malformed spec
  services export <dir>           write every builtin profile as
                                  <dir>/<slug>.json (the generator for
                                  configs/services/)";

/// Runs the CLI on pre-split arguments (excluding the program name),
/// returning the text to print.
///
/// # Errors
///
/// Returns a human-readable error message for unknown commands, missing
/// arguments, unreadable files, or invalid parameters.
pub fn run(args: &[String]) -> Result<String, String> {
    let args = apply_jobs_flag(args)?;
    let args = apply_shards_flag(&args)?;
    let args = apply_trace_reuse_flag(&args)?;
    let mut args = apply_isa_flag(&args)?;
    accelerometer_fleet::apply_services_flag(&mut args)?;
    let args = args.as_slice();
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("calibrate") => Ok(cmd_calibrate()),
        Some("breakeven") => cmd_breakeven(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("project") => Ok(cmd_project()),
        Some("characterize") => cmd_characterize(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("faults") => cmd_faults(&args[1..]),
        Some("timeline") => cmd_timeline(&args[1..]),
        Some("bounds") => cmd_bounds(&args[1..]),
        Some("slo") => cmd_slo(&args[1..]),
        Some("tables") => cmd_tables(&args[1..]),
        Some("services") => cmd_services(&args[1..]),
        Some("help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(format!("unknown command '{other}'\n{USAGE}")),
    }
}

/// Strips the global `--jobs N` flag, installing `N` as the default
/// worker count for every pool-backed command (`validate`, `estimate`,
/// batch sweeps). Jobs only affect wall-clock time, never results.
fn apply_jobs_flag(args: &[String]) -> Result<Vec<String>, String> {
    let mut args = args.to_vec();
    let Some(i) = args.iter().position(|a| a == "--jobs") else {
        return Ok(args);
    };
    let value = args
        .get(i + 1)
        .ok_or("--jobs requires a value (worker thread count)")?;
    let jobs: usize = value
        .parse()
        .map_err(|_| format!("--jobs expects a positive integer, got '{value}'"))?;
    if jobs == 0 {
        return Err("--jobs expects a positive integer, got 0".to_owned());
    }
    accelerometer::exec::set_default_jobs(jobs);
    args.drain(i..=i + 1);
    Ok(args)
}

/// Strips the global `--shards N` flag, routing every simulation-backed
/// command through the sharded runner. `N` picks only the worker-thread
/// width — the shard decomposition itself is derived from each
/// configuration — so any `N >= 1` produces byte-identical output.
fn apply_shards_flag(args: &[String]) -> Result<Vec<String>, String> {
    let mut args = args.to_vec();
    let Some(i) = args.iter().position(|a| a == "--shards") else {
        return Ok(args);
    };
    let value = args
        .get(i + 1)
        .ok_or("--shards requires a value (worker thread count)")?;
    let shards: usize = value
        .parse()
        .map_err(|_| format!("--shards expects a positive integer, got '{value}'"))?;
    if shards == 0 {
        return Err("--shards expects a positive integer, got 0".to_owned());
    }
    set_default_shards(shards);
    args.drain(i..=i + 1);
    Ok(args)
}

/// Strips the global `--trace-reuse on|off` flag, toggling cross-point
/// frozen-trace reuse in the sweep runners. Both settings produce
/// byte-identical output (the tier-1 smoke diffs them); `off` exists to
/// prove that and to measure the sampling cost reuse removes.
fn apply_trace_reuse_flag(args: &[String]) -> Result<Vec<String>, String> {
    let mut args = args.to_vec();
    let Some(i) = args.iter().position(|a| a == "--trace-reuse") else {
        return Ok(args);
    };
    let value = args
        .get(i + 1)
        .ok_or("--trace-reuse requires a value (on or off)")?;
    match value.as_str() {
        "on" => set_trace_reuse(true),
        "off" => set_trace_reuse(false),
        other => return Err(format!("--trace-reuse expects 'on' or 'off', got '{other}'")),
    }
    args.drain(i..=i + 1);
    Ok(args)
}

/// Strips the global `--isa scalar|auto` flag, pinning the kernel
/// crate's runtime ISA dispatch. `scalar` forces every kernel onto its
/// scalar reference path (the same effect as `KERNELS_FORCE_SCALAR=1`);
/// `auto` uses whatever the host exposes. Kernel outputs are
/// bit-identical either way — the mode changes only wall-clock, which
/// is exactly what `calibrate` measures.
fn apply_isa_flag(args: &[String]) -> Result<Vec<String>, String> {
    let mut args = args.to_vec();
    let Some(i) = args.iter().position(|a| a == "--isa") else {
        return Ok(args);
    };
    let value = args
        .get(i + 1)
        .ok_or("--isa requires a value (scalar or auto)")?;
    match value.as_str() {
        "scalar" => dispatch::set_isa_mode(dispatch::IsaMode::Scalar),
        "auto" => dispatch::set_isa_mode(dispatch::IsaMode::Auto),
        other => return Err(format!("--isa expects 'scalar' or 'auto', got '{other}'")),
    }
    args.drain(i..=i + 1);
    Ok(args)
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

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_f64(args: &[String], name: &str, default: Option<f64>) -> Result<f64, String> {
    match flag_value(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} expects a number, got '{v}'")),
        None => default.ok_or_else(|| format!("missing required flag {name}")),
    }
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

fn cmd_estimate(args: &[String]) -> Result<String, String> {
    let path = args
        .first()
        .ok_or("estimate requires a config file path")?;
    let cfg = load_config(path)?;
    let scenarios = cfg.to_scenarios().map_err(|e| e.to_string())?;
    if scenarios.is_empty() {
        return Err("config contains no scenarios".to_owned());
    }
    // Evaluate all scenarios through the worker pool (honors --jobs).
    let bare: Vec<Scenario> = scenarios.iter().map(|(_, s)| *s).collect();
    let estimates = sweep::estimate_batch(&bare);
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
    let design = match flag_value(args, "--design") {
        Some(d) => parse_design(&d)?,
        None => ThreadingDesign::Sync,
    };
    let strategy = match flag_value(args, "--strategy") {
        Some(s) => parse_strategy(&s)?,
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

fn cmd_sweep(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("sweep requires a config file path")?;
    let cfg = load_config(path)?;
    let (name, scenario) = cfg
        .to_scenarios()
        .map_err(|e| e.to_string())?
        .into_iter()
        .next()
        .ok_or("config contains no scenarios")?;
    let axis_name = flag_value(args, "--axis").ok_or("missing required flag --axis")?;
    let axis: sweep::SweepAxis =
        serde_json::from_value(serde_json::Value::String(axis_name.clone()))
            .map_err(|_| format!("unknown sweep axis '{axis_name}'"))?;
    let from = parse_f64(args, "--from", None)?;
    let to = parse_f64(args, "--to", None)?;
    let points = parse_f64(args, "--points", Some(10.0))? as usize;
    if from >= to || points < 2 {
        return Err("sweep requires --from < --to and --points >= 2".to_owned());
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

/// `--samples` as a whole number in `1..=MAX_SAMPLES` (default 50 000).
fn parse_samples(args: &[String]) -> Result<usize, String> {
    let Some(v) = flag_value(args, "--samples") else {
        return Ok(50_000);
    };
    v.parse()
        .ok()
        .filter(|n| (1..=MAX_SAMPLES).contains(n))
        .ok_or_else(|| format!("--samples expects a whole number from 1 to {MAX_SAMPLES}, got '{v}'"))
}

fn cmd_characterize(args: &[String]) -> Result<String, String> {
    let service = parse_service(args.first().ok_or("characterize requires a service name")?)?;
    let samples = parse_samples(args)?;
    let seed = parse_f64(args, "--seed", Some(42.0))? as u64;
    let mut generator = TraceGenerator::new(profile(service), seed);
    let traces = generator.generate(samples);
    if args.iter().any(|a| a == "--folded") {
        // Collapsed-stack output for flamegraph tooling.
        return Ok(to_folded(&traces));
    }
    let report = analyze(&traces, generator.registry());
    Ok(format!("characterization of {service}:\n{}", report.render()))
}

fn cmd_validate(args: &[String]) -> Result<String, String> {
    let seed = parse_f64(args, "--seed", Some(20_260_706.0))? as u64;
    if let Some(name) = flag_value(args, "--case") {
        if name == "fallback" {
            // Not a Table 6 row: the fault-capacity analogue. Model's
            // fallback-load term vs a simulated A/B per failure rate.
            let mut out = String::from(
                "fallback-capacity validation (model vs simulated A/B; retries 1, fallback-to-host):\n",
            );
            for r in validate_fallback(seed) {
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
                    name,
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
    for v in validate_all(seed) {
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
fn cmd_faults(args: &[String]) -> Result<String, String> {
    let seed = parse_f64(args, "--seed", Some(20_260_806.0))? as u64;
    let scenario = match args.first().filter(|a| !a.starts_with("--")) {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut scenario: FaultScenario = serde_json::from_str(&text)
                .map_err(|e| format!("invalid fault scenario {path}: {e}"))?;
            // --seed overrides the file's seed; otherwise the file wins.
            if flag_value(args, "--seed").is_some() {
                scenario.base.seed = seed;
            }
            scenario
        }
        None => demo_scenario(seed),
    };
    let report = run_fault_sweep(&scenario).map_err(|e| e.to_string())?;
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

/// `accelctl tables <id|all>`: regenerate the paper's tables through
/// whatever profile data is active — built-in constructors by default,
/// or JSON specs when `--services` is given. The tier-1 gate diffs the
/// two paths byte-for-byte.
fn cmd_tables(args: &[String]) -> Result<String, String> {
    let id = args
        .first()
        .ok_or("tables requires a table id (table1 .. table7) or 'all'")?;
    if id == "all" {
        let mut out = String::new();
        for id in accelerometer_bench::TABLE_IDS {
            out.push_str(&accelerometer_bench::render_table(id).expect("known table id"));
            out.push('\n');
        }
        return Ok(out);
    }
    accelerometer_bench::render_table(id)
        .ok_or_else(|| format!("unknown table '{id}' (expected table1 .. table7 or all)"))
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

    fn write_config() -> String {
        let path = std::env::temp_dir().join(format!("accelctl-test-{}.json", std::process::id()));
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
        assert!(run(&args(&["--jobs", "zero", "help"])).is_err());
        assert!(run(&args(&["--jobs", "0", "help"])).is_err());
        accelerometer::exec::set_default_jobs(0);
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
    fn trace_reuse_flag_is_global_validated_and_byte_exact() {
        let _guard = lock_shards_global();
        // The sweep-level bit-exactness contract: a full fault sweep's
        // JSON must not change by a byte whether grid points share one
        // frozen trace (default) or redraw their streams per point.
        let reused = run(&args(&["--trace-reuse", "on", "faults"])).unwrap();
        let redrawn = run(&args(&["--trace-reuse", "off", "faults"])).unwrap();
        set_trace_reuse(true);
        assert_eq!(reused, redrawn, "trace reuse changed sweep output");
        // And under sharding, where traces are per derived shard seed.
        let reused = run(&args(&["--trace-reuse", "on", "--shards", "2", "faults"])).unwrap();
        let redrawn = run(&args(&["--trace-reuse", "off", "--shards", "2", "faults"])).unwrap();
        set_default_shards(0);
        set_trace_reuse(true);
        assert_eq!(reused, redrawn, "trace reuse changed sharded sweep output");
        // Missing / unknown values are rejected before dispatch.
        assert!(run(&args(&["--trace-reuse"]))
            .unwrap_err()
            .contains("--trace-reuse"));
        assert!(run(&args(&["--trace-reuse", "maybe", "help"])).is_err());
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

//! `table6`: `accelctl --jobs 2 --services configs/services validate
//! --seed S`, then the same with `--case fallback` — the paper's Table 6
//! and the fallback-capacity table, 10 independent A/B simulations
//! across the Sync on-chip, Sync-OS off-chip and Async remote designs.
//! Fault-free runs (but the fallback rows), traces drawn per A/B, heavy
//! scheduling, a different config per run, and a real registry load.

use std::time::Instant;

use accelerometer_fleet::{all_case_studies, ServiceRegistry};
use accelerometer_sim::{simulate, validate_fallback_with, ExecPool, CASE_STUDY_NAMES};

use super::{field, same, within_capacity};
use crate::spans::{Link, Recorder};
use crate::{accelctl, program_seed, Facts, Options, Values, Workload};

/// The CLI's default `validate` seed.
const CLI_SEED: u64 = 20_260_706;

/// SHA-256 of the two `validate` outputs at seed 0.
const PINNED: &str = "5754f60d18d4e6a32fbc688e3f2cf44391af10191841b653a6bc036d6450ac24";

pub(crate) struct Table6 {
    services: std::path::PathBuf,
    seed: u64,
    validate: Vec<String>,
    fallback: Vec<String>,
    outputs: [String; 2],
}

impl Table6 {
    pub(crate) fn new(opts: &Options) -> Self {
        let services = opts.root.join("configs/services");
        let seed = program_seed(opts.seed, 3, CLI_SEED);
        let args = |case: &[&str]| -> Vec<String> {
            let mut args: Vec<String> = ["--jobs", "2", "--services"].map(str::to_owned).to_vec();
            args.push(services.display().to_string());
            args.push("validate".to_owned());
            args.extend(case.iter().map(|s| (*s).to_owned()));
            args.extend(["--seed".to_owned(), seed.to_string()]);
            args
        };
        Self {
            validate: args(&[]),
            fallback: args(&["--case", "fallback"]),
            services,
            seed,
            outputs: [String::new(), String::new()],
        }
    }

    fn load_registry(&self) -> Result<ServiceRegistry, String> {
        ServiceRegistry::load_path(&self.services).map_err(|e| e.to_string())
    }
}

/// One printed row: `(model-vs-sim points, simulated %, paper real %)`.
struct Row {
    model_vs_sim: f64,
    simulated: f64,
    real: Option<f64>,
    core_util: Option<f64>,
}

fn table6_rows(text: &str) -> Result<Vec<Row>, String> {
    CASE_STUDY_NAMES
        .iter()
        .map(|name| {
            let line = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name))
                .ok_or_else(|| format!("Table 6 row '{name}' missing"))?;
            Ok(Row {
                model_vs_sim: field(line, "(model-vs-sim")?,
                simulated: field(line, "simulated")?,
                real: Some(field(line, "real")?),
                core_util: None,
            })
        })
        .collect()
}

fn fallback_rows(text: &str) -> Result<Vec<Row>, String> {
    let rows: Vec<Row> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("p = "))
        .map(|line| {
            Ok(Row {
                model_vs_sim: field(line, "(model-vs-sim")?,
                simulated: field(line, "simulated")?,
                real: None,
                core_util: Some(field(line, "util")?),
            })
        })
        .collect::<Result<_, String>>()?;
    if rows.len() == accelerometer_sim::FALLBACK_VALIDATION_PROBABILITIES.len() {
        Ok(rows)
    } else {
        Err(format!("{} fallback rows, expected 4", rows.len()))
    }
}

/// The two decimals the CLI prints.
fn printed(x: f64) -> String {
    format!("{x:.2}")
}

impl Workload for Table6 {
    fn setup(&self) -> Result<(), String> {
        self.load_registry().map(|_| ())
    }

    fn parts(&self) -> &'static [&'static str] {
        &["validate", "fallback"]
    }

    fn iterate(&mut self, secs: &mut [f64]) -> Result<(), String> {
        for (i, args) in [&self.validate, &self.fallback].into_iter().enumerate() {
            let t0 = Instant::now();
            self.outputs[i] = accelctl(args)?;
            secs[i] = t0.elapsed().as_secs_f64();
        }
        Ok(())
    }

    fn output(&mut self) -> Vec<u8> {
        let [a, b] = std::mem::take(&mut self.outputs);
        (a + &b).into_bytes()
    }

    fn verify(&mut self, output: &[u8]) -> Result<Facts, String> {
        let text = std::str::from_utf8(output).map_err(|e| e.to_string())?;
        let table = table6_rows(text)?;
        let fallback = fallback_rows(text)?;
        for row in &fallback {
            let util = row.core_util.unwrap_or(f64::NAN);
            if !within_capacity(util) {
                return Err(format!("fallback row core util {util} > 1"));
            }
        }
        // The A/B metrics behind the Table 6 rows: every run's core
        // utilization, and the simulated requests the rows cost.
        let mut requests = 0.0;
        for (study, row) in all_case_studies().iter().zip(&table) {
            let (v, ab) = simulate(study, self.seed).map_err(|e| e.to_string())?;
            if printed(v.simulated_percent) != printed(row.simulated) {
                return Err(format!(
                    "{}: simulate() disagrees with the printed row",
                    study.name
                ));
            }
            for m in [&ab.baseline, &ab.treatment] {
                if !within_capacity(m.core_utilization) {
                    return Err(format!(
                        "{}: core_utilization {} > 1",
                        study.name, m.core_utilization
                    ));
                }
                requests += m.completed_requests as f64;
            }
        }
        let model_err = table
            .iter()
            .chain(&fallback)
            .map(|r| r.model_vs_sim)
            .fold(0.0, f64::max);
        let paper_err = table
            .iter()
            .filter_map(|r| r.real.map(|real| (r.simulated - real).abs()))
            .fold(0.0, f64::max);
        Ok(Facts {
            model_err_pts: Some(model_err),
            paper_err_pts: Some(paper_err),
            throughput: vec![("sim_req_per_s", requests, 0)],
        })
    }

    fn pinned_digest(&self) -> &'static str {
        PINNED
    }

    fn traced(
        &mut self,
        rec: &mut Recorder,
        values: &mut Values,
        reference: &[u8],
    ) -> Result<(), String> {
        let (cli, validate) = rec.time_hidden("cli.validate", None, Link::Nested, || {
            accelctl(&self.validate)
        });
        let validate = validate?;
        rec.time("registry.load", Some(cli), Link::Replay, || {
            self.load_registry()
        })
        .1?;
        // `validate` maps the three case studies over the default pool;
        // each A/B hides its engine runs (casestudy keeps their configs
        // private), so each item is a hidden span.
        let pool = ExecPool::new(2);
        let studies = all_case_studies();
        let map_start = Instant::now();
        let items = pool.map(&studies, |_, study| {
            let start = Instant::now();
            let result = simulate(study, self.seed);
            (start, Instant::now(), result)
        });
        let map_end = Instant::now();
        let map = rec.record("pool.map", Some(cli), Link::Replay, map_start, map_end);
        let table = table6_rows(&validate)?;
        let mut busy = 0.0;
        for ((start, end, result), (study, row)) in
            items.into_iter().zip(studies.iter().zip(&table))
        {
            let (v, _) = result.map_err(|e| e.to_string())?;
            if printed(v.model_vs_simulated_points()) != printed(row.model_vs_sim) {
                return Err(format!(
                    "{}: simulate() disagrees with the printed row",
                    study.name
                ));
            }
            let item = rec.record(
                &format!("abtest.{}", study.name),
                Some(map),
                Link::Nested,
                start,
                end,
            );
            rec.hide(item);
            busy += (end - start).as_secs_f64();
            rec.time("model.estimate", Some(item), Link::Replay, || {
                study.scenario.estimate()
            });
        }
        values
            .entry("pool.items")
            .or_default()
            .push(studies.len() as f64);
        values
            .entry("pool.efficiency")
            .or_default()
            .push(busy / (pool.jobs() as f64 * (map_end - map_start).as_secs_f64()));

        let (cli, fallback) = rec.time_hidden("cli.validate_fallback", None, Link::Nested, || {
            accelctl(&self.fallback)
        });
        let fallback = fallback?;
        rec.time("registry.load", Some(cli), Link::Replay, || {
            self.load_registry()
        })
        .1?;
        let (_, rows) = rec.time_hidden("abtest.fallback", Some(cli), Link::Replay, || {
            validate_fallback_with(&pool, self.seed)
        });
        for (row, printed_row) in rows.iter().zip(fallback_rows(&fallback)?) {
            if printed(row.model_vs_simulated_points()) != printed(printed_row.model_vs_sim) {
                return Err("validate_fallback_with() disagrees with the printed rows".to_owned());
            }
        }
        same(
            "accelctl validate",
            (validate + &fallback).as_bytes(),
            reference,
        )
    }

    fn not_applicable(&self, metric: &str) -> &'static str {
        match metric.split('.').next().unwrap_or(metric) {
            "trace" | "engine" | "metrics" | "shard" => {
                "casestudy keeps its A/B configs private, so this layer's time stays inside abtest.* (unattributed_s)"
            }
            "fault" => "the fallback rows expose no fault counters beyond the printed table",
            "profiler" | "profile_samples_per_s" => "the profiler does no work here",
            "kernels" | "kernel_mb_per_s" => "the kernels do no work here",
            "render" => "validate's text rendering is internal to the CLI",
            _ => "not exercised by this workload",
        }
    }
}

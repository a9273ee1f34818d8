//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one benchmark run from the repository root and prints its
//! report, then the result line (one JSON object) last.

use std::process::ExitCode;

use perfbench::{rss_probe, run, Options, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <fault-long|table6|profile-kernels> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number".to_owned())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
    };
    Ok(Options {
        workload,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed expects a non-negative integer".to_owned())?,
        seconds,
        trace,
        root: std::env::current_dir().map_err(|e| e.to_string())?,
        tiny: args.iter().any(|a| a == "--tiny"),
        corrupt_iteration: None,
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.iter().any(|a| a == "--rss-probe") {
        return match rss_probe(&opts) {
            Ok(mb) => {
                println!("{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&opts) {
        Ok(outcome) => {
            for line in &outcome.report {
                println!("{line}");
            }
            println!("{}", outcome.result_line(opts.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

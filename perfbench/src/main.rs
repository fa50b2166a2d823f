//! `ciao_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a context line (environment, inputs, operation counts) and,
//! last, the result line. Exits 1 when a check fails or the arguments
//! are wrong.

use ciao_perfbench::spec::{Scale, Workload};
use ciao_perfbench::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: ciao_perfbench --workload <ycsb_load|yelp_query|winlog_drift> \
--seed <n> --seconds <s> --trace <0|1> [--shards <n>] [--out <dir>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let (mut shards, mut out_dir) = (2, PathBuf::from("perfbench/out"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--shards" => {
                shards = value.parse::<usize>().map_err(|_| bad())?;
                if !(1..=8).contains(&shards) {
                    return Err(bad());
                }
            }
            "--out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale: Scale::full(workload),
        shards,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let report = run(&opts);
    for failure in &report.failures {
        eprintln!("check failed: {failure}");
    }
    if let Some(path) = &report.trace_file {
        eprintln!("chrome trace: {}", path.display());
    }
    println!("{}", report.context_json());
    println!("{}", report.result_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload, prints every metric of the mode by name and unit,
//! and ends with one JSON result line. Exits 1 when an output check
//! fails, 2 on bad arguments. A traced run also writes its wall spans to
//! `.perfbench/<workload>.spans.csv` under the working directory.

use std::path::PathBuf;
use std::process::ExitCode;

use cagc_perfbench::metric::catalogue;
use cagc_perfbench::{run, Plan, Workload};

const USAGE: &str = "usage: perfbench --workload <mail_replay|mail_traced|webvm_host|fleet_mixes> \
                     [--seed N (7)] [--seconds S (10)] [--trace 0|1 (0)]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 7, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad(&"outside [0, 3600]"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, traced })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::full(args.workload, args.seed);
    let out = run(&plan, args.traced, args.seconds);

    println!("# workload {} seed {} traced {}", args.workload.name(), args.seed, args.traced);
    for note in &out.notes {
        println!("# {note}");
    }
    for d in catalogue(args.traced) {
        let v = out.metrics.get(d.name).unwrap_or(0.0);
        println!("{:<28} {:>18.6} {}", d.name, v, d.unit);
    }
    if args.traced {
        println!("# span self time: calls, total ms, self ms");
        for (name, t) in out.spans.self_times() {
            println!(
                "#   {name:<26} {:>9} {:>12.3} {:>12.3}",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = PathBuf::from(".perfbench").join(format!("{}.spans.csv", args.workload.name()));
        if let Err(e) = out.spans.write_csv(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
        println!("# spans written to {}", path.display());
    }
    for p in &out.problems {
        println!("# CHECK FAILED: {p}");
    }
    println!("{}", out.result_json(args.traced));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

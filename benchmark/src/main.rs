//! The repo's benchmark: `slide-benchmark --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`. See README.md beside this package.

mod fixture;
mod harness;
mod layers;
mod micro;
mod probe;
mod serve;
mod spec;
mod trace;
mod train;

use harness::{Args, Ctx};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: slide-benchmark --workload <train_xc|train_w2v|serve_inproc|serve_net_i8> \
[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] | --print-spec";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        if flag == "--print-spec" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err(bad("between 1 and 60"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !spec::WORKLOADS.iter().any(|w| w.0 == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("slide-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(args);
    match ctx.args.workload.as_str() {
        "train_xc" => train::run(&mut ctx, &train::XC),
        "train_w2v" => train::run(&mut ctx, &train::W2V),
        "serve_inproc" => serve::run(&mut ctx, serve::ServeWorkload::InProc),
        "serve_net_i8" => serve::run(&mut ctx, serve::ServeWorkload::NetI8),
        other => unreachable!("parse() admitted workload {other}"),
    }
    if ctx.finish() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

use sdds_benchmark::engine;
use sdds_benchmark::report::{END_TO_END, PER_LAYER};
use sdds_benchmark::spec::{self, Options, WORKLOADS};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: sdds-benchmark [run] --workload ingest|point|search|durable|tcp_mixed|all \
[--seed N] [--seconds S] [--trace 0|1] [--quick]";

/// `--key value` pairs; a key without a value (`--quick`) maps to "".
fn flags(args: &[String]) -> Result<HashMap<&str, &str>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {:?}", args[i]))?;
        match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(value) => {
                out.insert(key, value.as_str());
                i += 2;
            }
            None => {
                out.insert(key, "");
                i += 1;
            }
        }
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} {v:?} is not a number")),
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "serve-rank")) => (c, &args[1..]),
        _ => ("run", args),
    };
    let flags = flags(rest)?;
    // before any thread or serving rank exists: they inherit it
    if sdds_benchmark::pin::to_one_cpu().is_none() {
        eprintln!("could not confine the run to one processor; times will include wake-ups across processors");
    }
    if command == "serve-rank" {
        let registry = flags.get("registry").ok_or("serve-rank needs --registry")?;
        sdds_benchmark::env::serve_rank(
            Path::new(registry),
            number(&flags, "rank", 0)?,
            number(&flags, "seed", 42)?,
            number(&flags, "trace", 0u8)? == 1,
        )?;
        return Ok(true);
    }
    let workload = *flags.get("workload").ok_or(USAGE)?;
    let opts = Options {
        seed: number(&flags, "seed", 42)?,
        seconds: number(&flags, "seconds", 10)?,
        traced: number(&flags, "trace", 0u8)? == 1,
        quick: flags.contains_key("quick"),
        exe: std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?,
    };
    if !(1..=60).contains(&opts.seconds) {
        return Err("--seconds takes 1 to 60".into());
    }
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload]
    };
    let mut correct = true;
    for name in names {
        let spec = spec::spec(name).ok_or_else(|| format!("no workload {name:?}\n{USAGE}"))?;
        let report = engine::run(&spec, &opts)?;
        correct &= report.correct();
        // the driver reads the last line of a single-workload run
        println!(
            "{}",
            report.json_line(if opts.traced { PER_LAYER } else { END_TO_END })
        );
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

//! perfbench: the repository's benchmark.
//!
//! ```text
//! perfbench --workload <paper_all|census_faulted|serve_mix|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench compare <parent-output> <change-output> [--benchmark BENCHMARK.json]
//! ```
//!
//! A run prints a human-readable report, a `RECORD` line for
//! `compare`, and as its last line one JSON result object. It exits 1
//! when an output check fails and 2 on a usage error. See README.md.

mod batch;
mod compare;
mod loadgen;
mod probes;
mod report;
mod serve_mix;
mod stats;
mod sys;
mod tracer;

use report::Outcome;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tracer::Tracer;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["paper_all", "census_faulted", "serve_mix"];

/// Seed of the simulated Internet every workload scans and of
/// `census_faulted`'s fault plan: the reproduction's canonical world,
/// the one every committed baseline uses. `--seed` drives everything
/// else (scan permutations and transaction ids, the query stream), so
/// seeds vary the inputs without varying how much work a run is — a
/// seeded world varies `paper_all`'s clustering work quadratically in
/// its unique pages, and seeded fault draws move `census_faulted`'s
/// records by a fifth (see README.md).
const WORLD_SEED: u64 = 20151028;

/// Where runs keep their stores and write their span files.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]\n       \
         perfbench compare <parent-output> <change-output> [--benchmark BENCHMARK.json]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 20151028,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

fn run_workload(name: &str, a: &Args, tr: &Tracer, work: &Path) -> Outcome {
    match name {
        "paper_all" => batch::run(&batch::Spec::paper_all(), a.seed, a.seconds, tr, work),
        "census_faulted" => batch::run(&batch::Spec::census_faulted(), a.seed, a.seconds, tr, work),
        _ => serve_mix::run(a.seed, a.seconds, tr, work),
    }
}

/// Runs one workload and prints its report; returns whether every
/// output check passed.
fn run_one(name: &str, a: &Args) -> bool {
    let work = PathBuf::from(WORK_DIR).join(format!("{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return false;
    }
    let tr = Tracer::new(a.trace);
    let out = run_workload(name, a, &tr, &work);
    let _ = std::fs::remove_dir_all(&work);

    let stamp = report::stamp(name, a.seed, a.seconds, a.trace, &out);
    report::print_human(name, &out, &stamp);
    let (metrics, units): (BTreeMap<String, f64>, BTreeMap<String, &str>) = if a.trace {
        let layers = report::per_layer();
        (
            layers
                .iter()
                .map(|(n, _)| (n.clone(), out.layers.get(n).copied().unwrap_or(0.0)))
                .collect(),
            layers.into_iter().collect(),
        )
    } else {
        (
            out.end_to_end()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            report::END_TO_END
                .iter()
                .map(|&(k, u)| (k.to_string(), u))
                .collect(),
        )
    };
    if a.trace {
        let spans = tr.spans();
        println!("# spans (count, total s, self s)");
        for (name, (count, total, own)) in tracer::self_times(&spans) {
            println!(
                "span {name:<28} {count:>6} {:>10.4} {:>10.4}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = PathBuf::from(WORK_DIR).join(format!("trace-{name}-{}.jsonl", a.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report::record(&stamp, &out, &metrics));
    println!("{}", report::result_line(&out, &metrics, &units));
    out.correct()
}

fn compare_main(argv: &[String]) -> ExitCode {
    let (mut files, mut benchmark) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            match it.next() {
                Some(b) => benchmark = b.clone(),
                None => return usage("--benchmark needs a value"),
            }
        } else {
            files.push(a.clone());
        }
    }
    let [parent, change] = files.as_slice() else {
        return usage("compare takes a parent and a change output file");
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let table = read(parent).and_then(|p| {
        let c = read(change)?;
        let b = read(&benchmark)?;
        compare::render(&p, &c, &b)
    });
    match table {
        Ok(t) => {
            print!("{t}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_main(&argv[1..]);
    }
    let a = match parse(&argv) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    telemetry::set_verbosity(telemetry::Level::Error);
    let names: Vec<&str> = if a.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![a.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        ok &= run_one(name, &a);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists in `BENCHMARK.json` are the ones this program
    /// prints, in name and unit.
    #[test]
    fn benchmark_json_names_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let serde_json::Value::Object(top) = v else {
            panic!("not an object")
        };
        let list = |key: &str| -> Vec<(String, String)> {
            let Some(serde_json::Value::Array(items)) = top.get(key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|m| {
                    let serde_json::Value::Object(m) = m else {
                        panic!("entry not an object")
                    };
                    let s = |k: &str| match m.get(k) {
                        Some(serde_json::Value::String(s)) => s.clone(),
                        _ => panic!("{k} missing"),
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let layers: Vec<(String, String)> = report::per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(list("per_layer"), layers);
        let workloads: Vec<String> = list_names(&top);
        assert_eq!(workloads, WORKLOADS);
    }

    fn list_names(top: &BTreeMap<String, serde_json::Value>) -> Vec<String> {
        let Some(serde_json::Value::Array(items)) = top.get("workloads") else {
            panic!("workloads missing")
        };
        items
            .iter()
            .map(|w| match w {
                serde_json::Value::Object(m) => match m.get("name") {
                    Some(serde_json::Value::String(s)) => s.clone(),
                    _ => panic!("workload without a name"),
                },
                _ => panic!("workload not an object"),
            })
            .collect()
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse(&args("--workload serve_mix --seed 7 --seconds 3 --trace 1")).expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload all --trace 2")).is_err());
        assert!(parse(&args("--workload all --seconds 0")).is_err());
        assert!(parse(&args("--workload all --seed")).is_err());
    }
}

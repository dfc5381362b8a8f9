//! Command-line entry point of the sttcache benchmark.
//!
//! ```text
//! sttbench --workload <paper-figures|affine-replay|chase-shared-l2|all>
//!          --seed <n> --seconds <n> --trace <0|1>
//! sttbench --list-metrics
//! sttbench --write-reference
//! ```
//!
//! Prints context lines starting with `#`, then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 2 on bad
//! arguments or when any `STTCACHE_*` variable is set (each would change
//! the measured configuration), 1 when the run cannot complete.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::SystemTime;
use sttbench::metrics::{self, MetricDef, Values};
use sttbench::run::{self, Options, Outcome};
use sttbench::{job, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("sttbench: {msg}");
    eprintln!(
        "usage: sttbench --workload <paper-figures|affine-replay|chase-shared-l2|all> \
         --seed <n> --seconds <n> --trace <0|1>\n       sttbench --list-metrics\n       \
         sttbench --write-reference"
    );
    ExitCode::from(2)
}

fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"))
        .join("sttbench")
}

fn main() -> ExitCode {
    let started = SystemTime::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(job::CHILD_FLAG) {
        return match job::child_main(started) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sttbench child: {e}");
                ExitCode::from(1)
            }
        };
    }
    let pinned: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("STTCACHE_"))
        .collect();
    if !pinned.is_empty() {
        eprintln!(
            "sttbench: refusing to run with {} set: the benchmark measures the default \
             configuration only",
            pinned.join(", ")
        );
        return ExitCode::from(2);
    }
    if args.iter().any(|a| a == "--list-metrics") {
        list_metrics();
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--write-reference") {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference");
        return match run::write_reference(&dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("sttbench: {e}");
                ExitCode::from(1)
            }
        };
    }

    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(None),
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(Some(w)),
                None => return usage(&format!("unknown workload '{value}'")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed '{value}'")),
            },
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) => seconds = Some(s),
                _ => return usage(&format!("--seconds must be 1..=600, got '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => traced = Some(false),
                "1" => traced = Some(true),
                _ => return usage(&format!("--trace must be 0 or 1, got '{value}'")),
            },
            other => return usage(&format!("unknown flag '{other}'")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("sttbench: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let table: &[MetricDef] = if traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let workloads: Vec<Workload> = workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut total = Outcome::default();
    for w in &workloads {
        let opts = Options {
            workload: *w,
            seed,
            seconds,
            traced,
            out_dir: out_dir(),
            exe: exe.clone(),
        };
        let outcome = match run::run(&opts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("sttbench: {}: {e}", w.name());
                return ExitCode::from(1);
            }
        };
        if let Err(e) = outcome.values.check_against(table) {
            eprintln!("sttbench: {}: {e}", w.name());
            return ExitCode::from(1);
        }
        print_summary(*w, seed, traced, &outcome, table);
        for (name, value) in &outcome.values.0 {
            let name = if workloads.len() > 1 {
                format!("{}/{name}", w.name())
            } else {
                name.clone()
            };
            total.values.0.push((name, *value));
        }
        total.checks.merge(outcome.checks);
    }
    let metrics_json = if workloads.len() > 1 {
        all_json(&total.values, table)
    } else {
        total.values.to_json(table)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        total.checks.failed == 0 && total.checks.attempted > 0,
        total.checks.attempted.max(1),
        total.checks.failed,
    );
    ExitCode::SUCCESS
}

/// Prints every metric with its unit, direction and what it applies to
/// or should move.
fn list_metrics() {
    for (title, table) in [
        ("end-to-end (--trace 0)", metrics::END_TO_END),
        ("per-layer (--trace 1)", metrics::PER_LAYER),
    ] {
        println!("{title}:");
        for d in table {
            println!("  {:<38} {:<6} {:<7} {}", d.name, d.unit, d.better, d.note);
        }
    }
}

fn print_summary(w: Workload, seed: u64, traced: bool, o: &Outcome, table: &[MetricDef]) {
    println!(
        "# sttbench {} seed={seed} trace={}",
        w.name(),
        u8::from(traced)
    );
    for note in &o.notes {
        println!("# {note}");
    }
    for d in table {
        let v = o.values.get(d.name).unwrap_or(f64::NAN);
        println!("# {:<40} {:>16.6} {}", d.name, v, d.unit);
    }
    println!(
        "# {:<40} {:>16.6} ratio ({} of {} results mismatched{})",
        "failed_share",
        o.checks.failed_share(),
        o.checks.failed,
        o.checks.attempted,
        if o.checks.mismatches.is_empty() {
            String::new()
        } else {
            format!(": {}", o.checks.mismatches.join(", "))
        }
    );
}

/// The metrics of several workloads, keyed `<workload>/<metric>`.
fn all_json(values: &Values, table: &[MetricDef]) -> String {
    let parts: Vec<String> = values
        .0
        .iter()
        .map(|(name, v)| {
            let base = name.rsplit('/').next().unwrap_or(name);
            let unit = table.iter().find(|d| d.name == base).map_or("", |d| d.unit);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                metrics::json_number(*v)
            )
        })
        .collect();
    format!("{{{}}}", parts.join(", "))
}

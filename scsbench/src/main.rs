//! `scsbench` — the scale-1, layer-by-layer benchmark of the significant
//! (α,β)-community search system.
//!
//! ```text
//! scsbench --workload <en-refine|dti-http-zipf|ml-update-mix> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root, for instance through
//! `cargo run --release --manifest-path scsbench/Cargo.toml -- ...`.
//! It writes the workload's scale-1 graph to an edge list under
//! `.scsbench/`, measures the workload, checks every answer, prints
//! human-readable detail on standard error and, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics traced). It exits 1 when a check fails and 2 on an error.
//! See `README.md` beside this crate for the workloads and metrics.

mod check;
mod drive;
mod gen;
mod http;
mod measure;
mod run;
mod trace;

use run::{Options, Outcome, Workload};
use std::path::Path;
use std::process::ExitCode;

/// End-to-end metrics, printed by an untraced run, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("write_visible_ms", "ms"),
];

/// Per-layer metrics, printed by a traced run, with their units.
const PER_LAYER: [(&str, &str); 30] = [
    ("load.parse_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.bytes", "bytes"),
    ("index.delta", "count"),
    ("retrieve.mean_us", "us"),
    ("retrieve.p99_us", "us"),
    ("retrieve.community_edges", "count"),
    ("refine.peel.mean_us", "us"),
    ("refine.expand.mean_us", "us"),
    ("refine.binary.mean_us", "us"),
    ("kernel.auto.mean_us", "us"),
    ("refine.answer_edges", "count"),
    ("refine.auto_regret", "ratio"),
    ("read.kernel_share", "ratio"),
    ("engine.overhead_us", "us"),
    ("engine.install_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("engine.coalesced_frac", "ratio"),
    ("server.overhead_us", "us"),
    ("batcher.wait_us", "us"),
    ("batcher.mean_batch", "count"),
    ("admission.shed_frac", "ratio"),
    ("read.frontend_share", "ratio"),
    ("update.insert_ms", "ms"),
    ("update.remove_ms", "ms"),
    ("update.snapshot_ms", "ms"),
    ("gen.late_ms", "ms"),
    ("proc.fds", "count"),
    ("proc.threads", "count"),
    ("trace.overhead_us", "us"),
];

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line: every metric of the run's tier, with its unit.
fn result_json(out: &Outcome, tier: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in tier {
        let value = out
            .metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--gen") {
        let [_, dataset, seed, path] = args.as_slice() else {
            eprintln!("usage: scsbench --gen <dataset> <seed> <path>");
            return ExitCode::from(2);
        };
        let generated = seed
            .parse()
            .map_err(|_| format!("bad seed {seed}"))
            .and_then(|seed| run::generate(dataset, seed, Path::new(path)));
        return match generated {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: scsbench --workload <en-refine|dti-http-zipf|ml-update-mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let tier: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let line = run::run(&opts).and_then(|out| Ok((result_json(&out, tier)?, out)));
    match line {
        Ok((line, out)) => {
            for note in &out.notes {
                eprintln!("{note}");
            }
            for (name, unit) in tier {
                eprintln!("{name:<26} {:>16.4} {unit}", out.metrics[name]);
            }
            for p in &out.problems {
                eprintln!("FAILED: {p}");
            }
            println!("{line}");
            if out.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_match_the_benchmark_file() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let mut names: Vec<_> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args: Vec<String> = "--workload en-refine --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::EnRefine, 3, 10.0, true)
        );
        assert!(parse_args(&args[..2]).is_err());
    }
}

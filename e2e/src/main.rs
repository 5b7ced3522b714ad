//! `e2e` — the repository's benchmark. One workload per process:
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! e2e --smoke
//! e2e --compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics, with `--trace 1`
//! the per-layer ones; either way it checks every output and prints, last,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! README.md has the workloads, the metric table and the comparison
//! protocol.

mod compare;
mod json;
mod ladder;
mod rss;
mod spec;
mod stats;
mod trace;
mod workloads;

use ladder::{Metric, Metrics};
use spec::Spec;
use stats::{highest_supported_percentile, summarize, window_count, windowed_percentile};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Budget, Outcome, Workload, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct RunOptions {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(RunOptions),
    Smoke,
    Compare(String, String),
}

const USAGE: &str = "usage: e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]\n       e2e --smoke\n       e2e --compare <parent.jsonl> <change.jsonl>";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut smoke = false;
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                seed = Some(
                    value("a number")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value("a number")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace is 0 or 1, not {other}")),
                })
            }
            "--out" => out = Some(value("a path")?),
            "--smoke" => smoke = true,
            "--compare" => return Ok(Command::Compare(value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; one of {}",
                WORKLOADS.join(", ")
            ));
        }
    }
    if smoke {
        if workload.is_some() {
            return Err("--smoke runs every workload; it takes no --workload".into());
        }
        return Ok(Command::Smoke);
    }
    Ok(Command::Run(RunOptions {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke: false,
        out,
    }))
}

fn main() -> ExitCode {
    let command = match parse_args(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match command {
        Command::Run(opts) => run(&opts),
        Command::Smoke => smoke(),
        Command::Compare(parent, change) => match compare::run(&parent, &change) {
            Ok(clean) => clean,
            Err(e) => {
                eprintln!("e2e: {e}");
                return ExitCode::from(2);
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = Vec::new();
        macro_rules! probe {
            ($($feature:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($feature) {
                    found.push($feature);
                }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "avx512f", "pclmulqdq");
        found.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

/// Where trace files go: `e2e-trace/` beside the profile directory the
/// binary was built into (`target/e2e-trace/` for a default build), so
/// they stay inside the build directory wherever that is.
fn trace_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the binary knows its own path");
    let profile_dir = exe.parent().expect("the binary is in a directory");
    profile_dir
        .parent()
        .unwrap_or(profile_dir)
        .join("e2e-trace")
}

/// Runs one workload and prints its report; whether every check passed.
fn run(opts: &RunOptions) -> bool {
    let spec = Spec::load();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cluster = distme_cluster::ClusterConfig::laptop();
    let worker_cap = cluster
        .total_slots()
        .min(nproc * cluster.host_worker_oversubscription);
    println!(
        "# e2e workload={} seed={} seconds={} trace={} smoke={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8, opts.smoke
    );
    let host = format!(
        "nproc={nproc} worker_thread_cap={worker_cap} cluster=laptop({}x{}) crc_tier={} cpu={}",
        cluster.nodes,
        cluster.tasks_per_node,
        distme_matrix::codec::active_crc_tier().name(),
        cpu_features()
    );
    println!("# host: {host}");

    // Set-up, several times over: its median is a metric of its own, so
    // work moved out of the measured part and into set-up still shows.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let t = Instant::now();
        workload = workloads::set_up(&opts.workload, opts.seed, opts.smoke);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("the workload name was checked");
    println!("# sizes: {}", workload.sizes());

    let tracer = Tracer::new();
    let budget = Budget {
        seconds: opts.seconds,
        max_ops: if opts.smoke { 3 } else { usize::MAX },
        alternate_tracing: opts.trace,
    };
    let mut outcome = workload.measure(budget, &tracer);

    let mut metrics = Metrics::default();
    if opts.trace {
        let spans = tracer.spans();
        tracer.set_enabled(true);
        ladder::run(
            &workload.ladder_input(),
            &outcome.own,
            &spans,
            &tracer,
            opts.smoke,
            &mut metrics,
        );
        tracer.set_enabled(false);
    }
    workload.verify(&mut outcome);

    let tail = tail_percentile(opts.seconds, workload.nominal_op_secs());
    let ops = outcome.op_secs.len() + outcome.traced_op_secs.len();
    println!(
        "# reps: setups={SETUPS} operations={ops} (untraced {}, traced {}) checks_and_operations={} failed={}",
        outcome.op_secs.len(),
        outcome.traced_op_secs.len(),
        outcome.attempted,
        outcome.failed
    );
    let end_to_end = end_to_end_metrics(&setups, &outcome, tail);
    if opts.trace {
        let lookups = outcome.cache.hits + outcome.cache.misses;
        metrics.put(
            "core.plan_cache.hit_ratio",
            outcome.cache.hits as f64 / lookups.max(1) as f64,
            "ratio",
        );
        metrics.put(
            "bench.trace_overhead_pct",
            ladder::trace_overhead_pct(&outcome.op_secs, &outcome.traced_op_secs),
            "%",
        );
        println!("# end-to-end, from this run's untraced operations (not a result: measure those with --trace 0)");
        print_metrics(&end_to_end.0);
        println!("# per-layer");
    }
    let reported = if opts.trace { metrics } else { end_to_end };
    print_metrics(&reported.0);
    if let Some(e) = &outcome.first_error {
        println!("# first failure: {e}");
    }

    if opts.trace {
        write_trace(&tracer, &opts.workload);
    }

    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let body = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
        outcome.attempted,
        outcome.failed,
        reported
            .0
            .iter()
            .map(|m| format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(m.unit)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if let Some(path) = &opts.out {
        // The same record plus what identifies the run, one line per run,
        // appended: the input of `--compare`.
        let op = summarize(outcome.untraced_op_secs());
        let line = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"sizes\": {}, \
             \"operations\": {}, \"op_s\": {{\"q1\": {}, \"median\": {}, \"q3\": {}}}, \"tail_percentile\": {tail}, {body}}}\n",
            json::quote(&opts.workload),
            opts.seed,
            json::number(opts.seconds),
            opts.trace,
            json::quote(&host),
            json::quote(&workload.sizes()),
            op.n,
            json::number(op.q1),
            json::number(op.median),
            json::number(op.q3),
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("e2e: could not append to {path}: {e}");
        }
    }
    let result_line = format!("{{{body}}}");
    if let Err(e) = validate_result_line(&spec, opts.trace, &result_line) {
        panic!("this run's result does not match BENCHMARK.json: {e}");
    }
    println!("{result_line}");
    correct
}

/// The percentile `op_tail_ms` reports: the highest of p90, p75 and p50
/// that a run of `seconds`, at `nominal_op_secs` an operation, makes two
/// windows of, each with ten samples beyond it; the median when the run is
/// too short for any (a smoke run).
fn tail_percentile(seconds: f64, nominal_op_secs: f64) -> u32 {
    highest_supported_percentile((seconds / nominal_op_secs) as usize).unwrap_or(50)
}

fn write_trace(tracer: &Tracer, workload: &str) {
    let dir = trace_dir();
    let path = dir.join(format!("{workload}.trace.jsonl"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut f = std::io::BufWriter::new(f);
            tracer.write_jsonl(workload, &mut f)?;
            f.flush()
        });
    match written {
        Ok(()) => println!(
            "# trace: {} spans in {}",
            tracer.span_count(),
            path.display()
        ),
        Err(e) => eprintln!("e2e: could not write {}: {e}", path.display()),
    }
}

/// The five end-to-end metrics, from the untraced operations only.
fn end_to_end_metrics(setups: &[f64], outcome: &Outcome, tail: u32) -> Metrics {
    let mut m = Metrics::default();
    let setup = summarize(setups);
    println!(
        "# setup_s: q1={:.6} q3={:.6} n={}",
        setup.q1, setup.q3, setup.n
    );
    m.put("setup_s", setup.median, "s");
    let ops = outcome.untraced_op_secs();
    let op = summarize(ops);
    println!(
        "# op_ms: q1={:.6} q3={:.6} n={}; op_tail_ms is the median p{tail} of {} consecutive windows of these",
        op.q1 * 1e3,
        op.q3 * 1e3,
        op.n,
        window_count(op.n, tail),
    );
    m.put("op_ms", op.median * 1e3, "ms");
    m.put("op_tail_ms", windowed_percentile(ops, tail) * 1e3, "ms");
    let all = outcome.op_secs.len() + outcome.traced_op_secs.len();
    m.put("ops_per_s", all as f64 / outcome.busy_secs.max(1e-9), "1/s");
    let rss = summarize(&outcome.rss_peaks_mb);
    println!(
        "# peak_rss_mb: q1={:.3} q3={:.3} over n={} stretches of measuring (n=1: VmHWM resets unavailable, so the process-wide peak)",
        rss.q1, rss.q3, rss.n,
    );
    m.put("peak_rss_mb", rss.median, "MB");
    m
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {}", m.name, json::number(m.value), m.unit);
    }
}

/// Every workload at tiny shapes, at most three operations, untraced and
/// traced, through the same code as a full run — including the check of
/// each result line against `BENCHMARK.json`.
fn smoke() -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            ok &= run(&RunOptions {
                workload: workload.to_string(),
                seed: 1,
                seconds: 0.05,
                trace,
                smoke: true,
                out: None,
            });
        }
    }
    println!("# smoke: {}", if ok { "ok" } else { "FAILED" });
    ok
}

/// Checks a result line the way its reader will: it parses, has exactly
/// the four keys, and its metrics are exactly the declared ones, units
/// included.
fn validate_result_line(spec: &Spec, trace: bool, line: &str) -> Result<(), String> {
    let doc = json::Json::parse(line)?;
    let keys: Vec<&str> = doc
        .as_obj()
        .ok_or("the result is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    let attempted = doc
        .get("attempted")
        .and_then(json::Json::as_f64)
        .ok_or("attempted")?;
    if attempted < 1.0 || attempted.fract() != 0.0 {
        return Err(format!("attempted is {attempted}"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(json::Json::as_obj)
        .ok_or("metrics")?;
    let declared = spec.declared(trace);
    for d in declared {
        let mut named = metrics.iter().filter(|(name, _)| *name == d.name);
        let (Some((_, m)), None) = (named.next(), named.next()) else {
            return Err(format!("{} must appear exactly once", d.name));
        };
        if m.get("unit").and_then(json::Json::as_str) != Some(d.unit.as_str()) {
            return Err(format!("{} is declared in {}", d.name, d.unit));
        }
        m.get("value")
            .and_then(json::Json::as_f64)
            .ok_or(format!("{} has no value", d.name))?;
    }
    if metrics.len() != declared.len() {
        return Err(format!(
            "{} metrics printed, {} declared",
            metrics.len(),
            declared.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Command, String> {
        parse_args(text.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_three_command_lines() {
        assert_eq!(
            args("--workload serve_c4 --seed 7 --seconds 12 --trace 1 --out runs.jsonl"),
            Ok(Command::Run(RunOptions {
                workload: "serve_c4".into(),
                seed: 7,
                seconds: 12.0,
                trace: true,
                smoke: false,
                out: Some("runs.jsonl".into()),
            }))
        );
        assert_eq!(args("--smoke"), Ok(Command::Smoke));
        assert_eq!(
            args("--compare a.jsonl b.jsonl"),
            Ok(Command::Compare("a.jsonl".into(), "b.jsonl".into()))
        );
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_c4 --seed 1 --seconds 1",
            "--workload serve_c4 --seed 1 --seconds 0 --trace 0",
            "--workload serve_c4 --seed x --seconds 1 --trace 0",
            "--workload serve_c4 --seed 1 --seconds 1 --trace 2",
            "--compare a.jsonl",
            "--smoke --workload gnmf_sparse",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn tail_percentile_follows_the_run_length() {
        let tails = |seconds: f64| -> Vec<u32> {
            WORKLOADS
                .iter()
                .map(|name| {
                    let workload = workloads::set_up(name, 1, true).expect("a known workload");
                    tail_percentile(seconds, workload.nominal_op_secs())
                })
                .collect()
        };
        // In WORKLOADS order, at the `run_seconds` of BENCHMARK.json.
        assert_eq!(tails(18.0), [50, 50, 50, 90, 90, 75]);
        assert_eq!(tails(0.05), [50; 6]);
    }

    /// The names this binary prints are the names `BENCHMARK.json`
    /// declares: `run` reads every result line back and panics on any
    /// difference. Also the CI smoke run.
    #[test]
    fn smoke_run_prints_exactly_the_declared_metrics() {
        assert!(smoke());
    }

    #[test]
    fn result_lines_with_missing_extra_or_mislabelled_metrics_are_rejected() {
        let spec = Spec::load();
        let line = |metrics: &[(&str, &str)]| {
            let body: Vec<String> = metrics
                .iter()
                .map(|(name, unit)| format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"))
                .collect();
            format!(
                "{{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{{}}}}}",
                body.join(", ")
            )
        };
        let mut declared: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|d| (d.name.as_str(), d.unit.as_str()))
            .collect();
        assert_eq!(validate_result_line(&spec, false, &line(&declared)), Ok(()));
        assert!(validate_result_line(&spec, true, &line(&declared)).is_err());
        let dropped = declared.pop().expect("at least one metric");
        assert!(validate_result_line(&spec, false, &line(&declared)).is_err());
        declared.push((dropped.0, "furlongs"));
        assert!(validate_result_line(&spec, false, &line(&declared)).is_err());
        declared.pop();
        declared.push(dropped);
        declared.push(("invented", "s"));
        assert!(validate_result_line(&spec, false, &line(&declared)).is_err());
        assert!(validate_result_line(&spec, false, "{\"correct\": true}").is_err());
    }
}

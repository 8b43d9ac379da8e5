//! `benchmark` — one benchmark for every engine of the reproduction.
//!
//! ```text
//! benchmark --workload fig6|serve|crash|mc [--seed N] [--seconds S]
//!           [--trace 0|1] [--trace-out FILE] [--out FILE] [--smoke]
//! ```
//!
//! Each run executes one workload in its own single-threaded process:
//! it builds the workload's inputs from `--seed` (several times, to time
//! set-up), then runs timed passes over the workload's operations until
//! `--seconds` would be exceeded (always at least one pass). An untraced
//! run prints the end-to-end metrics; `--trace 1` also records a span
//! around every call into a layer, runs the layer probes, prints the
//! per-layer metrics and writes the spans as Chrome-trace JSON. Host
//! times are the main thread's CPU time, scaled to a nominal host speed
//! (see `host.rs`). Every metric is printed as `workload metric value
//! unit`, and the last line of standard output is the JSON result.
//!
//! Exit codes: 0 after a run (failed operations make `correct` false),
//! 1 when the benchmark's own consistency checks fail (passes that
//! disagree), 2 for a usage error. See README.md in this directory.

mod crash;
mod fig6;
mod host;
mod mc;
mod metrics;
mod probes;
mod serve;
mod trace;

use metrics::{Pass, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str = "usage: benchmark --workload fig6|serve|crash|mc [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out FILE] [--out FILE] [--smoke]";

/// Set-up is repeated at least this many times, and until this much time
/// has gone by; `setup_s` is the fastest one. The host's speed changes
/// over seconds, so a shorter phase catches one slow spell whole.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Fig6,
    Serve,
    Crash,
    Mc,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Fig6,
        Workload::Serve,
        Workload::Crash,
        Workload::Mc,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Fig6 => "fig6",
            Workload::Serve => "serve",
            Workload::Crash => "crash",
            Workload::Mc => "mc",
        }
    }
}

/// A workload with its inputs built.
enum Bench {
    Fig6(fig6::Fig6),
    Serve(serve::Serve),
    Crash(crash::Crash),
    Mc(mc::Mc),
}

impl Bench {
    fn setup(w: Workload, smoke: bool, seed: u64, tr: &mut Tracer) -> Bench {
        match w {
            Workload::Fig6 => Bench::Fig6(fig6::setup(smoke, seed, tr)),
            Workload::Serve => Bench::Serve(serve::setup(smoke, seed)),
            Workload::Crash => Bench::Crash(crash::setup(smoke, seed)),
            Workload::Mc => Bench::Mc(mc::setup(smoke, seed, tr)),
        }
    }

    fn pass(&self, tr: &mut Tracer) -> Pass {
        match self {
            Bench::Fig6(b) => b.pass(tr),
            Bench::Serve(b) => b.pass(tr),
            Bench::Crash(b) => b.pass(tr),
            Bench::Mc(b) => b.pass(tr),
        }
    }
}

#[derive(Clone, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    /// Small GPU and inputs, one pass, short probes: for tests.
    smoke: bool,
}

/// Parses the flags; `Ok(None)` asks for the usage text.
fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Fig6,
        seed: 42,
        seconds: 0.0,
        trace: false,
        trace_out: None,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::ALL.into_iter().find(|w| w.name() == v.as_str());
                workload = Some(w.ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed must be an unsigned integer, got {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds must be a non-negative number, got {v:?}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                };
            }
            "--trace-out" => parsed.trace_out = Some(value()?.into()),
            "--out" => parsed.out = Some(value()?.into()),
            "--smoke" => parsed.smoke = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(Some(parsed))
}

/// Everything one run measured.
struct Report {
    workload: Workload,
    seed: u64,
    traced: bool,
    passes: usize,
    /// Operations attempted, over all passes.
    attempted: u64,
    /// Failures outside the documented defects, over all passes.
    unexpected: u64,
    /// The first pass: its failures and exact counts, which every other
    /// pass must repeat.
    first: Pass,
    /// Metrics in print order: (name, value, unit).
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Why the passes disagreed, if they did.
    inconsistent: Option<String>,
    /// The host-speed reference's median time during the passes, as
    /// measured; `None` when sampling is off.
    host_ref_s: Option<f64>,
    tracer: Tracer,
}

impl Report {
    fn correct(&self) -> bool {
        self.unexpected == 0 && self.inconsistent.is_none()
    }

    /// The metrics the JSON result carries: end-to-end ones untraced,
    /// per-layer ones traced.
    fn result_metrics(&self) -> impl Iterator<Item = &(&'static str, f64, &'static str)> {
        let traced = self.traced;
        self.metrics
            .iter()
            .filter(move |m| traced != END_TO_END.iter().any(|e| e.0 == m.0))
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Why two passes' results differ, if they do. Counts compare bit for
/// bit: the simulators are deterministic.
fn disagreement(a: &Pass, b: &Pass) -> Option<String> {
    if a.attempted != b.attempted {
        return Some(format!("attempted {} vs {}", a.attempted, b.attempted));
    }
    if a.failures != b.failures {
        return Some("the failed operations differ".into());
    }
    let keys: std::collections::BTreeSet<_> = a.counts.keys().chain(b.counts.keys()).collect();
    keys.into_iter().find_map(|k| {
        let (x, y) = (a.counts.get(k), b.counts.get(k));
        (x.map(|v| v.to_bits()) != y.map(|v| v.to_bits())).then(|| format!("{k}: {x:?} vs {y:?}"))
    })
}

fn run(args: &Args) -> Report {
    let mut tr = Tracer::new(args.trace);
    let setup = |tr: &mut Tracer| {
        let t = host::now();
        let bench = Bench::setup(args.workload, args.smoke, args.seed, tr);
        (bench, (host::now() - t).as_secs_f64())
    };
    // Only the last set-up, whose inputs the passes use, is traced. The
    // set-ups are scaled by the host speed sampled while they ran, not
    // by the speed during the passes: `setup_s`, the fastest set-up, by
    // the fastest reference round, and the traced set-up's spans by the
    // median one.
    let setup_from = host::taken();
    let mut setup_times = Vec::new();
    let setup_start = Instant::now();
    while setup_times.len() + 1 < MIN_SETUPS || setup_start.elapsed() < SETUP_BUDGET {
        setup_times.push(setup(&mut Tracer::new(false)).1);
    }
    let (bench, t) = setup(&mut tr);
    setup_times.push(t);
    let setup_s = setup_times.iter().copied().fold(f64::INFINITY, f64::min)
        * host::fastest_scale(setup_from, host::taken());
    let setup_scale = host::scale(setup_from, host::taken());
    let setup_end = tr.len();

    let mut pass_times = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let pass_from = host::taken();
    let start = Instant::now();
    loop {
        let (t, wall) = (host::now(), Instant::now());
        passes.push(bench.pass(&mut tr));
        let dt = (host::now() - t).as_secs_f64();
        pass_times.push(dt);
        eprintln!(
            "benchmark: {} pass {} took {dt:.3} s of CPU time",
            args.workload.name(),
            pass_times.len()
        );
        // Stop unless another pass as long as this one still fits.
        if (start.elapsed() + wall.elapsed()).as_secs_f64() > args.seconds {
            break;
        }
    }
    let pass_to = host::taken();
    let pass_end = tr.len();
    let first = &passes[0];
    let inconsistent = passes[1..].iter().find_map(|p| disagreement(first, p));
    let unexpected = first.failures.iter().filter(|f| !f.known).count() as u64;

    // Host times below are in nominal-speed seconds, rates per such second.
    let scale = host::scale(pass_from, pass_to);
    let host_ref_s = host::ref_s(pass_from, pass_to);
    let mut metrics = vec![
        ("setup_s", setup_s, "s"),
        ("cpu_s", median(&pass_times) * scale, "s"),
    ];
    if args.trace {
        let probe_time = Duration::from_millis(if args.smoke { 10 } else { 1000 });
        let probes = probes::run(args.seed, probe_time, &mut tr);
        let per_setup = tr.self_seconds(0, setup_end);
        let per_pass = tr.self_seconds(setup_end, pass_end);
        let span_s = |span: &str| {
            setup_scale * per_setup.get(span).copied().unwrap_or(0.0)
                + scale * per_pass.get(span).copied().unwrap_or(0.0) / passes.len() as f64
        };
        let count = |name: &str| first.counts.get(name).copied().unwrap_or(0.0);
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        for (name, unit) in PER_LAYER {
            let value = match name {
                "host.ref_s" => host_ref_s.unwrap_or(0.0),
                "sim.minstr_per_s" => per(count("sm.instructions") / 1e6, span_s("sim.run")),
                "sim.kcycles_per_s" => per(count("sim.cycles") / 1e3, span_s("sim.run")),
                "harness.serve.req_per_s" => {
                    per(count("harness.serve.requests"), span_s("harness.serve"))
                }
                "mc.states_per_s" => per(count("mc.states"), span_s("mc.explore")),
                "failed_frac" => per(first.failures.len() as f64, first.attempted as f64),
                _ if unit == "s" => {
                    span_s(name.strip_suffix("_s").expect("time metrics end in _s"))
                }
                _ => probes.get(name).map_or_else(|| count(name), |r| r / scale),
            };
            metrics.push((name, value, unit));
        }
    }
    metrics.push(("peak_rss_mb", peak_rss_mb(), "MB"));

    Report {
        workload: args.workload,
        seed: args.seed,
        traced: args.trace,
        passes: passes.len(),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        unexpected: unexpected * passes.len() as u64,
        first: passes.swap_remove(0),
        metrics,
        inconsistent,
        host_ref_s,
        tracer: tr,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line JSON result.
fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .result_metrics()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.unexpected,
        metrics.join(", ")
    )
}

/// The `--out` document: the result, the host-speed reference time (the
/// result's host times divided by `NOMINAL_S / host_ref_s` are the raw
/// ones), the exact counts and every failure, so two runs can be
/// compared count by count.
fn out_json(r: &Report) -> String {
    let counts: Vec<String> = r
        .first
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
        .collect();
    let failures: Vec<String> = r
        .first
        .failures
        .iter()
        .map(|f| {
            format!(
                "{{\"op\": {}, \"detail\": {}, \"known\": {}}}",
                json_str(&f.op),
                json_str(&f.detail),
                f.known
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"passes\": {}, \"result\": {},\n \"host_ref_s\": {},\n \"counts\": {{{}}},\n \"failures\": [{}]}}\n",
        r.workload.name(),
        r.seed,
        r.passes,
        result_json(r),
        json_num(r.host_ref_s.unwrap_or(f64::NAN)),
        counts.join(", "),
        failures.join(", ")
    )
}

fn write_file(path: &PathBuf, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Runs the command line and returns the process exit code.
fn cli(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return 0;
        }
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    let r = run(&args);
    let name = r.workload.name();
    for f in &r.first.failures {
        let tag = if f.known { " (known defect)" } else { "" };
        println!("{name} failure {}: {}{tag}", f.op, f.detail);
    }
    for (metric, v, unit) in &r.metrics {
        println!("{name} {metric} {} {unit}", json_num(*v));
    }
    if args.trace {
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("target/benchmark/{name}.trace.json")));
        match write_file(&path, &r.tracer.to_chrome_json()) {
            Ok(()) => eprintln!(
                "benchmark: wrote {} spans to {}",
                r.tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("benchmark: {e}"),
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = write_file(path, &out_json(&r)) {
            eprintln!("benchmark: {e}");
        }
    }
    if let Some(why) = &r.inconsistent {
        eprintln!("benchmark: passes disagree: {why}");
    }
    println!("{}", result_json(&r));
    i32::from(r.inconsistent.is_some())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    host::start();
    std::process::exit(cli(&args));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, trace: bool) -> Report {
        run(&Args {
            workload,
            seed: 42,
            seconds: 0.0,
            trace,
            trace_out: None,
            out: None,
            smoke: true,
        })
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_the_code_prints() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let entries = json.matches("\"name\":").count();
        assert_eq!(
            entries,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for w in Workload::ALL {
            assert!(
                json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
                "{}",
                w.name()
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn every_workload_prints_exactly_its_metrics_and_tracing_changes_no_count() {
        let e2e: Vec<_> = END_TO_END.iter().map(|m| m.0).collect();
        let layer: Vec<_> = PER_LAYER.iter().map(|m| m.0).collect();
        for w in Workload::ALL {
            let plain = smoke(w, false);
            let traced = smoke(w, true);
            for r in [&plain, &traced] {
                assert!(
                    r.correct(),
                    "{}: {:?} {:?}",
                    w.name(),
                    r.first.failures,
                    r.inconsistent
                );
            }
            let names = |r: &Report| {
                let mut n: Vec<_> = r.result_metrics().map(|m| m.0).collect();
                n.sort_unstable();
                n
            };
            let mut want = e2e.clone();
            want.sort_unstable();
            assert_eq!(names(&plain), want, "{}", w.name());
            let mut want = layer.clone();
            want.sort_unstable();
            assert_eq!(names(&traced), want, "{}", w.name());
            assert!(result_json(&traced).contains("\"unit\": \"s\""));
            assert_eq!(
                disagreement(&plain.first, &traced.first),
                None,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn fig6_cells_match_run_workload() {
        let fig6 = fig6::setup(true, 42, &mut Tracer::new(false));
        for (spec, stats) in fig6.run_cells() {
            let want = sbrp_harness::run_workload(&spec).expect("cell runs");
            assert!(want.verified);
            assert_eq!(
                stats.expect("cell runs").to_json(),
                want.stats.to_json(),
                "{}",
                spec.cell_name()
            );
        }
    }

    #[test]
    fn known_defects_are_reported_but_not_counted_as_failed() {
        let r = smoke(Workload::Crash, false);
        assert!(r.correct());
        let baseline = r
            .first
            .failures
            .iter()
            .find(|f| f.op == "campaign Red Sbrp/far baseline")
            .expect("the Reduction SBRP-far baseline fails the formal check");
        assert!(baseline.known && baseline.detail.starts_with("baseline formal"));
        assert!(r.first.failures.iter().all(|f| f.known));
    }

    #[test]
    fn usage_errors_exit_2() {
        for bad in [
            &["--workload", "nope"][..],
            &["--bogus"],
            &["--seed"],
            &["--workload", "mc", "--seed", "-1"],
            &["--workload", "mc", "--trace", "yes"],
            &["--workload", "mc", "--seconds", "-3"],
            &["--seed", "7"],
        ] {
            assert_eq!(cli(&strings(bad)), 2, "{bad:?}");
        }
        assert_eq!(cli(&strings(&["--help"])), 0);
        let args = parse_args(&strings(&[
            "--workload",
            "serve",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .expect("valid")
        .expect("not --help");
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (Workload::Serve, 7, 2.5, true)
        );
    }
}

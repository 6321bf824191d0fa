//! `ccsbench` — the repository benchmark.
//!
//! ```text
//! ccsbench --workload <plan_paper|plan_scale|online_contended|service_mixed>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. The untraced run (`--trace 0`)
//! measures the end-to-end metrics with telemetry off; the traced run
//! (`--trace 1`) measures the per-layer metrics (see `layers`). Each run
//! checks every output it produces with the independent checks of `check`;
//! an operation whose output fails a check counts as failed. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! A human summary, including the tail latency and any failure, goes to
//! standard error.

mod alloc;
mod check;
mod layers;
mod online;
mod plan;
mod service;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-up repetitions per run: at least [`SETUP_REPS`], more until
/// [`SETUP_SECS`] have passed, at most [`SETUP_MAX_REPS`]; `setup_s` is
/// their median. Set-ups of a few milliseconds then repeat often enough
/// that one stall of the host does not move the median.
const SETUP_REPS: usize = 11;
const SETUP_SECS: f64 = 1.0;
const SETUP_MAX_REPS: usize = 101;

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: get("--workload")?.clone(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
    })
}

/// SplitMix64: decorrelates the per-instance seeds drawn from `--seed`.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The machine's parallelism (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// What one timed phase of a workload measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every operation, in ms.
    pub lat_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check, counted by failure message.
    pub failures: BTreeMap<String, u64>,
    /// Items processed (devices planned, arrivals, plan items answered).
    pub items: f64,
    /// The time the items took, in seconds.
    pub item_secs: f64,
    /// Items per second of each round, where a round of several requests
    /// is the unit of throughput; when present, `items_per_s` is their
    /// median, which a passing stall of the host does not move.
    pub round_rates: Vec<f64>,
    /// Sum of the per-device comprehensive costs of the checked plans.
    pub cost_sum: f64,
    /// Devices the costs cover.
    pub cost_devices: f64,
    /// Peak heap of each operation, in MB (operations run one at a time).
    pub peaks_mb: Vec<f64>,
}

impl Phase {
    /// Counts `ops` failed operations under `why`.
    pub fn fail(&mut self, why: &str, ops: u64) {
        *self.failures.entry(why.to_string()).or_insert(0) += ops;
    }
}

/// A workload the benchmark can time.
pub trait Workload {
    /// Runs whole operations until `seconds` have passed (at least one),
    /// starting from the first input of the seeded pool.
    fn phase(&mut self, seconds: f64) -> Phase;

    /// Workload-specific figures for the human summary.
    fn summary(&self) -> String {
        String::new()
    }

    /// Times the public layer functions on this workload's inputs and
    /// outputs, after the traced phase.
    fn probe_layers(&mut self, layers: &mut layers::Layers);
}

/// Runs `setup` repeatedly (see [`SETUP_REPS`]); returns the last result
/// and the median set-up time in seconds.
fn timed_setup<W>(mut setup: impl FnMut() -> W) -> (W, f64) {
    let mut times = Vec::new();
    let mut last = None;
    let began = Instant::now();
    while times.len() < SETUP_REPS
        || (times.len() < SETUP_MAX_REPS && began.elapsed().as_secs_f64() < SETUP_SECS)
    {
        // Drop the previous repetition first, so each set-up starts clean.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up"),
        stats::median(&times).expect("nonempty"),
    )
}

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("items_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
    ("cost_per_device", "cost"),
];

/// One printed metric.
type Metric = (&'static str, f64, &'static str);

struct Output {
    attempted: u64,
    failures: BTreeMap<String, u64>,
    metrics: Vec<Metric>,
}

fn end_to_end<W: Workload>(mut w: W, setup_s: f64, seconds: f64) -> Output {
    alloc::reset_peak();
    let p = w.phase(seconds);
    // The median operation's peak: the run-wide maximum would be an extreme
    // value over whichever inputs the run reached.
    let peak_heap_mb = stats::median(&p.peaks_mb).unwrap_or(f64::NAN);
    let p50 = stats::median(&p.lat_ms).unwrap_or(f64::NAN);
    let tail = stats::tail(&p.lat_ms)
        .map_or("n/a (fewer than 40 operations)".to_string(), |(pct, v)| {
            format!("p{pct:.1} {v:.3} ms")
        });
    eprintln!(
        "ops {}, p50 {p50:.3} ms, tail {tail}{}",
        p.attempted,
        w.summary()
    );
    Output {
        attempted: p.attempted,
        failures: p.failures,
        metrics: END_TO_END
            .iter()
            .zip([
                setup_s,
                p50,
                stats::median(&p.round_rates).unwrap_or(p.items / p.item_secs),
                peak_heap_mb,
                p.cost_sum / p.cost_devices,
            ])
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect(),
    }
}

/// The traced run: an untraced phase, a traced phase over the same inputs
/// and an untraced phase at `nproc` pool threads, each a third of the run;
/// then the layer probes.
fn per_layer<W: Workload>(mut w: W, seconds: f64) -> Output {
    let third = seconds / 3.0;
    let untraced = w.phase(third);
    let registry = ccs_telemetry::global();
    registry.reset();
    registry.enable();
    let traced = w.phase(third);
    let report = registry.report();
    registry.disable();
    registry.reset();
    ccs_par::set_threads(nproc());
    let parallel = w.phase(third);
    ccs_par::set_threads(1);

    let mut l = layers::Layers::new();
    l.read_report(&report, traced.attempted);
    l.set("run.ops_traced", traced.attempted as f64);
    if let Some((_, ms)) = stats::tail(&untraced.lat_ms) {
        l.set("run.op_ms_tail", ms);
    }
    // Both phases start from the same inputs, so operation i of one is
    // operation i of the other: the median of the paired ratios.
    let ratios: Vec<f64> = untraced
        .lat_ms
        .iter()
        .zip(&traced.lat_ms)
        .map(|(a, b)| b / a)
        .collect();
    if let Some(r) = stats::median(&ratios) {
        l.set("telemetry.overhead_pct", (r - 1.0) * 100.0);
    }
    let k = untraced.lat_ms.len().min(parallel.lat_ms.len());
    let serial: f64 = untraced.lat_ms[..k].iter().sum();
    let par: f64 = parallel.lat_ms[..k].iter().sum();
    if par > 0.0 {
        l.set("par.speedup", serial / par);
    }
    w.probe_layers(&mut l);
    let mut failures = untraced.failures;
    for (why, n) in traced.failures.into_iter().chain(parallel.failures) {
        *failures.entry(why).or_insert(0) += n;
    }
    Output {
        attempted: untraced.attempted + traced.attempted + parallel.attempted,
        failures,
        metrics: l.into_metrics(),
    }
}

fn run<W: Workload>(args: &Args, setup: impl FnMut() -> W) -> Output {
    ccs_par::set_threads(1);
    let (w, setup_s) = timed_setup(setup);
    if args.trace {
        per_layer(w, args.seconds)
    } else {
        end_to_end(w, setup_s, args.seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ccsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    let out = match args.workload.as_str() {
        "plan_paper" => run(&args, || plan::Paper::setup(seed)),
        "plan_scale" => run(&args, || plan::Scale::setup(seed)),
        "online_contended" => run(&args, || online::Contended::setup(seed)),
        "service_mixed" => run(&args, || service::Mixed::setup(seed)),
        other => {
            eprintln!("ccsbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    for (why, n) in &out.failures {
        eprintln!("FAILED x{n}: {why}");
    }
    // A metric that could not be measured makes the run incorrect rather
    // than printing a number that was never measured.
    let mut measured = true;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            if !value.is_finite() {
                eprintln!("ccsbench: metric {name} is not finite ({value})");
                measured = false;
            }
            // `+ 0.0` turns an empty sum's -0.0 into 0.0.
            let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
            format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#)
        })
        .collect();
    // Only the named fault may fail: any other failure is a wrong output.
    let only_named = out
        .failures
        .keys()
        .all(|why| why.starts_with(plan::NAMED_FAULT));
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        only_named && measured,
        out.attempted,
        out.failures.values().sum::<u64>(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The untraced run prints exactly the end-to-end metrics
    /// `BENCHMARK.json` declares, with the same units.
    #[test]
    fn end_to_end_metrics_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let def: serde::value::Value = serde_json::from_str(&text).expect("valid JSON");
        let serde::value::Value::Array(metrics) = def.field("end_to_end") else {
            panic!("end_to_end is an array");
        };
        let declared: Vec<(String, String)> = metrics
            .iter()
            .map(|m| match (m.field("name"), m.field("unit")) {
                (serde::value::Value::String(n), serde::value::Value::String(u)) => {
                    (n.clone(), u.clone())
                }
                _ => panic!("end_to_end entry without name/unit"),
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn instance_seeds_differ_per_seed_and_index() {
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
    }
}

//! The repository benchmark: end-to-end host time of the GaaS-X simulator
//! and its query server on four workloads, a traced per-layer split of
//! that time, and a correctness check of every answer.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark [--seed N] [--seconds S] [--out PATH] [--check PATH] [--smoke]
//! ```
//!
//! With `--workload` it measures one workload in this process, prints
//! `workload metric value unit` for every metric and, as the last line,
//! `{"correct", "attempted", "failed", "metrics"}` as JSON: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without `--workload` it runs every workload, untraced and
//! then traced, each in a fresh child process of itself, one at a time;
//! writes the whole set as JSON to `--out`; and with `--check` compares
//! the set's end-to-end metrics against an earlier set within each
//! metric's bound. It exits nonzero on any wrong answer, failed run or
//! regression. See README.md for the workloads and metrics.

mod heap;
mod json;
mod layers;
mod oneshot;
mod serve;
mod spec;
mod stats;
mod timed;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Value;
use spec::{Better, Metric, END_TO_END, WORKLOADS};
use stats::Calibration;

/// Seconds each measurement runs by default (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;
const SMOKE_SECONDS: f64 = 0.3;
const DEFAULT_SEED: u64 = 29;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Traced runs per workload, at least.
const MIN_TRACED: usize = 5;
/// However few samples a loop has, it stops this long after its deadline,
/// so every run ends well within three minutes.
const OVERRUN_CAP: Duration = Duration::from_secs(60);

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--out PATH] [--check PATH] [--smoke]";

/// Operations attempted and failed, plus broken invariants. The first few
/// failures are printed to standard error.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub broken: u64,
}

impl Tally {
    /// Records one attempted operation: a run or a query.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.report(&e);
        }
    }

    /// Records a check that is not itself an operation.
    pub fn invariant(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.broken += 1;
            self.report(&e);
        }
    }

    fn report(&self, e: &str) {
        if self.failed + self.broken <= 5 {
            eprintln!("benchmark: {e}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken == 0 && self.attempted > 0
    }
}

/// What one workload measured.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Calls `step` right after a calibration sample until `deadline`, and
/// until at least `min` samples exist, then takes one more calibration
/// sample. `step` returns the raw seconds of what it timed, which this
/// returns with the index of the calibration sample before it. A step
/// that times several things takes a calibration sample before each of
/// the later ones. A step that would end past the deadline is not started
/// once `min` is met.
pub fn sample_loop(
    cal: &mut Calibration,
    deadline: Instant,
    min: usize,
    mut step: impl FnMut(&mut Calibration) -> f64,
) -> Vec<(f64, usize)> {
    let mut samples = Vec::new();
    let mut last = Duration::ZERO;
    loop {
        let now = Instant::now();
        if (samples.len() >= min && now + last > deadline) || now > deadline + OVERRUN_CAP {
            cal.sample();
            return samples;
        }
        let at = cal.sample();
        samples.push((step(cal), at));
        last = now.elapsed();
    }
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if spec::workload(&name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => parsed.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => parsed.out = Some(value()?.into()),
            "--check" => parsed.check = Some(value()?.into()),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload.is_some() && (parsed.out.is_some() || parsed.check.is_some()) {
        return Err("--out and --check apply to a whole set, not to --workload".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match &args.workload {
        Some(name) => run_workload(name, &args),
        None => run_set(&args),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn seconds(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    })
}

/// Orders `measured` like `table` and renders the result line; fails on a
/// missing, extra or non-finite metric.
fn result_line(outcome: &Outcome, table: &[Metric]) -> Result<Value, String> {
    if outcome.metrics.len() != table.len() {
        return Err(format!(
            "{} metrics measured, {} declared",
            outcome.metrics.len(),
            table.len()
        ));
    }
    let mut metrics = Vec::with_capacity(table.len());
    for m in table {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", m.name));
        }
        metrics.push((
            m.name,
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(m.unit.into())),
            ]),
        ));
    }
    let t = &outcome.tally;
    Ok(Value::obj([
        ("correct", Value::Bool(t.correct())),
        ("attempted", Value::Num(t.attempted as f64)),
        ("failed", Value::Num(t.failed as f64)),
        ("metrics", Value::obj(metrics)),
    ]))
}

fn print_metrics(workload: &str, metrics: &Value) {
    for (name, m) in metrics.as_object().unwrap_or_default() {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("?");
        println!("{workload} {name} {value} {unit}");
    }
}

fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let outcome = if name == "serve-mixed" {
        serve::run(seed, seconds(args), args.trace, args.smoke)?
    } else {
        oneshot::run(name, seed, seconds(args), args.trace, args.smoke)?
    };
    let line = result_line(&outcome, spec::metrics(args.trace))?;
    if let Some(metrics) = line.get("metrics") {
        print_metrics(name, metrics);
    }
    println!("{}", line.render());
    Ok(outcome.tally.correct())
}

/// Runs one workload in a child process and returns its result line.
fn child(exe: &PathBuf, workload: &str, args: &Args, trace: bool) -> Result<Value, String> {
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &args.seed.unwrap_or(DEFAULT_SEED).to_string()])
    .args(["--seconds", &seconds(args).to_string()])
    .stdin(Stdio::null())
    .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    json::parse(last).map_err(|e| {
        format!(
            "{workload} (trace {}): no result line ({e}); exit {}",
            u8::from(trace),
            out.status
        )
    })
}

fn run_set(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let e2e = child(&exe, w.name, args, false)?;
        let layers = child(&exe, w.name, args, true)?;
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let correct = [&e2e, &layers]
            .iter()
            .all(|v| v.get("correct").and_then(Value::as_bool) == Some(true));
        all_correct &= correct;
        let metrics = |v: &Value| v.get("metrics").cloned().unwrap_or(Value::Null);
        print_metrics(w.name, &metrics(&e2e));
        print_metrics(w.name, &metrics(&layers));
        workloads.push(Value::obj([
            ("name", Value::Str(w.name.into())),
            ("why", Value::Str(w.why.into())),
            ("correct", Value::Bool(correct)),
            (
                "attempted",
                Value::Num(field(&e2e, "attempted") + field(&layers, "attempted")),
            ),
            (
                "failed",
                Value::Num(field(&e2e, "failed") + field(&layers, "failed")),
            ),
            ("end_to_end", metrics(&e2e)),
            ("per_layer", metrics(&layers)),
        ]));
    }
    let set = Value::obj([
        ("seed", Value::Num(args.seed.unwrap_or(DEFAULT_SEED) as f64)),
        ("seconds", Value::Num(seconds(args))),
        ("smoke", Value::Bool(args.smoke)),
        ("cal_ref_s", Value::Num(spec::CAL_REF_S)),
        ("workloads", Value::Arr(workloads)),
    ]);
    if let Some(path) = &args.out {
        // One metric per line, so two sets diff line by line.
        let text = set.render_pretty(4) + "\n";
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if !all_correct {
        eprintln!("benchmark: a workload failed its correctness checks");
    }
    let within = match &args.check {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let previous = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let diffs = check(&previous, &set)?;
            for d in &diffs {
                println!("REGRESSION {d}");
            }
            println!(
                "check against {}: {} regression(s)",
                path.display(),
                diffs.len()
            );
            diffs.is_empty()
        }
        None => true,
    };
    Ok(all_correct && within)
}

/// Set parameters two sets must share to be compared.
const SET_PARAMETERS: [&str; 4] = ["seed", "seconds", "smoke", "cal_ref_s"];

/// End-to-end metrics of `current` that are worse than in `previous` by
/// more than their bound, one line per (workload, metric), skipping each
/// workload's derived metrics; also any workload whose correctness or
/// failure count got worse. Sets made with different parameters are not
/// compared: each differing parameter is a line of its own.
fn check(previous: &Value, current: &Value) -> Result<Vec<String>, String> {
    let render = |v: Option<&Value>| v.map_or_else(|| "missing".into(), Value::render);
    let mismatched: Vec<String> = SET_PARAMETERS
        .iter()
        .filter(|&&key| previous.get(key).is_none() || previous.get(key) != current.get(key))
        .map(|&key| {
            format!(
                "set parameter {key}: {} -> {}; the sets are not comparable",
                render(previous.get(key)),
                render(current.get(key))
            )
        })
        .collect();
    if !mismatched.is_empty() {
        return Ok(mismatched);
    }
    let find = |set: &Value, name: &str| -> Option<Value> {
        set.get("workloads")?
            .as_array()?
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
            .cloned()
    };
    let mut diffs = Vec::new();
    for w in &WORKLOADS {
        let (Some(old), Some(new)) = (find(previous, w.name), find(current, w.name)) else {
            diffs.push(format!("{}: missing from one of the sets", w.name));
            continue;
        };
        if new.get("correct").and_then(Value::as_bool) != Some(true) {
            diffs.push(format!("{}: not correct", w.name));
        }
        let failed = |v: &Value| {
            v.get("failed")
                .and_then(Value::as_f64)
                .unwrap_or(f64::INFINITY)
        };
        if failed(&new) > failed(&old) {
            diffs.push(format!(
                "{}: failed {} -> {}",
                w.name,
                failed(&old),
                failed(&new)
            ));
        }
        for m in END_TO_END.iter().filter(|m| !w.derived.contains(&m.name)) {
            let value = |v: &Value| v.get("end_to_end")?.get(m.name)?.get("value")?.as_f64();
            let (Some(a), Some(b)) = (value(&old), value(&new)) else {
                diffs.push(format!("{} {}: missing", w.name, m.name));
                continue;
            };
            if let Some(d) = regression(m, a, b) {
                diffs.push(format!("{} {}: {d}", w.name, m.name));
            }
        }
    }
    Ok(diffs)
}

/// `Some(description)` when `new` is worse than `old` by more than the
/// metric's bound.
fn regression(m: &Metric, old: f64, new: f64) -> Option<String> {
    let bound = m.bound?;
    let change = if old == 0.0 {
        0.0
    } else {
        (new - old) / old.abs()
    };
    let worse = match m.better {
        Better::Lower => change > bound,
        Better::Higher => -change > bound,
    };
    worse.then(|| {
        format!(
            "{old} -> {new} {} ({:+.1}%; {} is better; bound {:.0}%)",
            m.unit,
            change * 100.0,
            m.better.name(),
            bound * 100.0
        )
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use spec::PER_LAYER;

    fn outcome(metrics: &[Metric]) -> Outcome {
        Outcome {
            tally: Tally {
                attempted: 3,
                ..Tally::default()
            },
            metrics: metrics.iter().rev().map(|m| (m.name, 1.5)).collect(),
        }
    }

    #[test]
    fn result_line_lists_every_declared_metric_in_order() {
        for table in [&END_TO_END[..], &PER_LAYER[..]] {
            let line = result_line(&outcome(table), table).unwrap();
            let text = line.render();
            let back = json::parse(&text).unwrap();
            let keys: Vec<&str> = back
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let names: Vec<&str> = back
                .get("metrics")
                .unwrap()
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(names, want);
            assert_eq!(back.get("correct").unwrap().as_bool(), Some(true));
        }
    }

    #[test]
    fn result_line_rejects_missing_and_non_finite_metrics() {
        let mut o = outcome(&END_TO_END);
        o.metrics.pop();
        assert!(result_line(&o, &END_TO_END).is_err());
        let mut o = outcome(&END_TO_END);
        o.metrics[0].1 = f64::NAN;
        assert!(result_line(&o, &END_TO_END).is_err());
    }

    #[test]
    fn regressions_respect_direction_and_bound() {
        let run = END_TO_END[0];
        let qps = END_TO_END
            .iter()
            .find(|m| m.name == "qps")
            .copied()
            .unwrap();
        assert!(regression(&run, 1.0, 1.24).is_none());
        assert!(regression(&run, 1.0, 1.26).is_some());
        assert!(regression(&run, 1.0, 0.5).is_none());
        assert!(regression(&qps, 100.0, 76.0).is_none());
        assert!(regression(&qps, 100.0, 74.0).is_some());
        assert!(regression(&qps, 100.0, 200.0).is_none());
    }

    /// A set whose metric `scaled` reads `scale` and every other 1.
    fn set(scaled: &str, scale: f64, failed: f64) -> Value {
        let workloads = WORKLOADS
            .iter()
            .map(|w| {
                let e2e = END_TO_END.iter().map(|m| {
                    let v = if m.name == scaled { scale } else { 1.0 };
                    (m.name, Value::obj([("value", Value::Num(v))]))
                });
                Value::obj([
                    ("name", Value::Str(w.name.into())),
                    ("correct", Value::Bool(true)),
                    ("failed", Value::Num(failed)),
                    ("end_to_end", Value::obj(e2e)),
                ])
            })
            .collect();
        with_workloads(Value::Arr(workloads))
    }

    fn with_workloads(workloads: Value) -> Value {
        Value::obj([
            ("seed", Value::Num(29.0)),
            ("seconds", Value::Num(25.0)),
            ("smoke", Value::Bool(false)),
            ("cal_ref_s", Value::Num(spec::CAL_REF_S)),
            ("workloads", workloads),
        ])
    }

    #[test]
    fn check_flags_regressions_and_missing_workloads() {
        let base = set("", 1.0, 0.0);
        assert!(check(&base, &set("run_s_p75", 1.2, 0.0))
            .unwrap()
            .is_empty());
        let slower = check(&base, &set("run_s_p75", 1.3, 0.0)).unwrap();
        assert_eq!(slower.len(), WORKLOADS.len());
        assert_eq!(
            check(&base, &set("", 1.0, 1.0)).unwrap().len(),
            WORKLOADS.len()
        );
        let empty = with_workloads(Value::Arr(vec![]));
        assert_eq!(check(&base, &empty).unwrap().len(), WORKLOADS.len());
    }

    #[test]
    fn check_skips_derived_metrics() {
        let base = set("", 1.0, 0.0);
        // `qps` is derived on the one-shot workloads, `run_s_p50` on the
        // serving one.
        let flagged = check(&base, &set("qps", 0.5, 0.0)).unwrap();
        assert_eq!(flagged.len(), 1);
        assert!(flagged[0].starts_with("serve-mixed qps"), "{flagged:?}");
        let flagged = check(&base, &set("run_s_p50", 2.0, 0.0)).unwrap();
        assert_eq!(flagged.len(), WORKLOADS.len() - 1);
        assert!(flagged.iter().all(|d| !d.starts_with("serve-mixed")));
    }

    #[test]
    fn check_refuses_sets_made_with_other_parameters() {
        let base = set("", 1.0, 0.0);
        for (key, value) in [
            ("seed", Value::Num(30.0)),
            ("seconds", Value::Num(5.0)),
            ("smoke", Value::Bool(true)),
            ("cal_ref_s", Value::Num(1.0)),
        ] {
            let Value::Obj(mut fields) = set("run_s_p75", 9.0, 0.0) else {
                unreachable!()
            };
            for (k, v) in &mut fields {
                if k == key {
                    *v = value.clone();
                }
            }
            let diffs = check(&base, &Value::Obj(fields)).unwrap();
            assert_eq!(diffs.len(), 1, "{key}: {diffs:?}");
            assert!(diffs[0].contains(key), "{diffs:?}");
        }
        let old_format = Value::obj([("workloads", Value::Arr(vec![]))]);
        assert_eq!(
            check(&old_format, &base).unwrap().len(),
            SET_PARAMETERS.len()
        );
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload bfs-deep-j2 --seed 3 --seconds 2 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("bfs-deep-j2"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(3), Some(2.0), true));
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--bogus",
            "--seed",
            "--workload serve-mixed --out x.json",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}

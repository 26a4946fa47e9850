//! Regenerates the paper's tables and figures and runs the self-checking
//! reports, by name.
//!
//! ```text
//! experiments [--smoke] [--check] [--cap N] [--iters N] [--jobs N]
//!             [--trace P] [--timeline-out P] [NAME...]
//! ```
//!
//! With no names it runs every `results/` section (Tables I–III, Figs 5
//! and 11–17, the GAPBS comparison, the phase table and the trace demo),
//! writes each to `results/<name>.md` plus `results/all.md`, and prints
//! them. Figs 11–14 and `phases` share one simulation matrix; Figs 15, 16
//! and `gapbs` share one modeled baseline pass, and their `_host` halves
//! one pass of CPU kernels timed on the host.
//!
//! * `--cap N` — per-dataset edge cap (default 300 000);
//! * `--iters N` — PageRank iterations (default 10);
//! * `--jobs N` — shard worker threads for the matrix and
//!   `scaling_study` (default 1), and the largest worker count of
//!   `jobs_scaling` (default 4); modeled totals are bit-identical at any
//!   count;
//! * `--smoke` — CI sizes: `jobs_scaling` at 20 000 edges, `trace_export`
//!   at 8 000 edges × 3 iterations, and the smoke subsets of
//!   `fault_campaign` and `serve_soak`; `--cap`/`--iters` still override;
//! * `--check` — regenerates the selected deterministic sections (all of
//!   them when no names are given; every section but the `_host` ones) and
//!   diffs each against its `results/<name>.md` instead of writing it;
//!   exits nonzero on any difference;
//! * `--trace P` — the JSONL event file `trace_demo` writes and
//!   `trace_summary` reads;
//! * `--timeline-out P` — the Chrome-trace file of `trace_demo` and
//!   `trace_export` (default for `trace_export`: `results/trace.json`).
//!
//! An unknown flag or name exits nonzero and lists the registry.

#![allow(clippy::unwrap_used)]
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gaasx_bench::experiments::{
    self as exp, BenchResult, CfComparison, HostEntry, MatrixEntry, SoftwareEntry,
};
use gaasx_bench::{DEFAULT_CAP_EDGES, DEFAULT_PR_ITERS};

mod ablations;
mod fault_campaign;
mod jobs_scaling;
mod serve_soak;
mod trace;

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Settings {
    smoke: bool,
    check: bool,
    cap: Option<usize>,
    iters: Option<u32>,
    jobs: Option<usize>,
    trace: Option<PathBuf>,
    timeline: Option<PathBuf>,
}

impl Settings {
    fn cap(&self) -> usize {
        self.cap_or(DEFAULT_CAP_EDGES)
    }

    fn iters(&self) -> u32 {
        self.iters_or(DEFAULT_PR_ITERS)
    }

    fn jobs(&self) -> usize {
        self.jobs.unwrap_or(1)
    }

    /// The edge cap, or `smoke` under `--smoke` when no `--cap` is given.
    fn cap_or(&self, smoke: usize) -> usize {
        self.cap
            .unwrap_or(if self.smoke { smoke } else { DEFAULT_CAP_EDGES })
    }

    /// The iteration count, or `smoke` under `--smoke` when no `--iters`
    /// is given.
    fn iters_or(&self, smoke: u32) -> u32 {
        self.iters
            .unwrap_or(if self.smoke { smoke } else { DEFAULT_PR_ITERS })
    }
}

/// Shared state of one invocation: the settings plus the expensive
/// passes, each run at most once however many entries read it.
struct Ctx {
    s: Settings,
    matrix: Option<Vec<MatrixEntry>>,
    software: Option<Vec<SoftwareEntry>>,
    host: Option<Vec<HostEntry>>,
    cf: Option<CfComparison>,
}

impl Ctx {
    fn matrix(&mut self) -> BenchResult<&[MatrixEntry]> {
        let matrix = match self.matrix.take() {
            Some(m) => m,
            None => {
                let (cap, jobs) = (self.s.cap(), self.s.jobs());
                eprintln!(
                    "[experiments] simulating GaaS-X + GraphR matrix \
                     (cap {cap} edges, {jobs} job(s))..."
                );
                exp::run_matrix(cap, self.s.iters(), jobs)?
            }
        };
        Ok(self.matrix.insert(matrix))
    }

    fn software(&mut self) -> BenchResult<&[SoftwareEntry]> {
        let software = match self.software.take() {
            Some(sw) => sw,
            None => {
                let (cap, iters) = (self.s.cap(), self.s.iters());
                let matrix = self.matrix()?;
                eprintln!("[experiments] running modeled baselines...");
                exp::run_software(matrix, cap, iters)?
            }
        };
        Ok(self.software.insert(software))
    }

    /// The modeled baseline pass and the CPU kernels timed on it.
    fn host(&mut self) -> BenchResult<(&[SoftwareEntry], &[HostEntry])> {
        self.software()?;
        if self.host.is_none() {
            eprintln!("[experiments] timing CPU baselines on the host...");
            self.host = Some(exp::run_host_baselines(self.s.cap(), self.s.iters())?);
        }
        match (&self.software, &self.host) {
            (Some(sw), Some(host)) => Ok((sw, host)),
            _ => unreachable!("both passes ran above"),
        }
    }

    fn cf(&mut self) -> BenchResult<&CfComparison> {
        let cf = match self.cf.take() {
            Some(cf) => cf,
            // CF simulates per-rating feature MACs; cap ratings below the
            // graph cap.
            None => exp::run_cf((self.s.cap() / 6).max(2_000), 32, 3)?,
        };
        Ok(self.cf.insert(cf))
    }
}

/// What an entry's text is and where it goes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Output {
    /// A `results/<name>.md` section that replays byte for byte.
    Modeled,
    /// A `results/<name>.md` section with host wall-clock cells.
    Measured,
    /// Stdout only; the entry checks its own claims and errors on a
    /// violation.
    Report,
}
use Output::{Measured, Modeled, Report};

type Run = fn(&mut Ctx) -> BenchResult<String>;

struct Entry {
    name: &'static str,
    output: Output,
    run: Run,
}

const fn entry(name: &'static str, output: Output, run: Run) -> Entry {
    Entry { name, output, run }
}

/// Every experiment by name. The sections come first, in the order a
/// no-name run writes them.
const REGISTRY: &[Entry] = &[
    entry("table1", Modeled, |_| Ok(exp::table1())),
    entry("table2", Modeled, |cx| exp::table2(cx.s.cap())),
    entry("table3", Modeled, |_| Ok(exp::table3())),
    entry("fig5", Modeled, |cx| exp::fig5(cx.s.cap())),
    entry("fig11", Modeled, |cx| Ok(exp::fig11(cx.matrix()?))),
    entry("fig12", Modeled, |cx| Ok(exp::fig12(cx.matrix()?))),
    entry("fig13", Modeled, |cx| Ok(exp::fig13(cx.matrix()?))),
    entry("fig14", Modeled, |cx| Ok(exp::fig14(cx.matrix()?))),
    entry("phases", Modeled, |cx| Ok(exp::phase_table(cx.matrix()?))),
    entry("trace_demo", Modeled, |cx| {
        exp::trace_demo(cx.s.trace.as_deref(), cx.s.timeline.as_deref())
    }),
    entry("fig15", Modeled, |cx| Ok(exp::fig15(cx.software()?))),
    entry("fig15_host", Measured, |cx| {
        let (sw, host) = cx.host()?;
        Ok(exp::fig15_host(sw, host))
    }),
    entry("fig16", Modeled, |cx| Ok(exp::fig16(cx.software()?))),
    entry("fig16_host", Measured, |cx| {
        let (sw, host) = cx.host()?;
        Ok(exp::fig16_host(sw, host))
    }),
    entry("gapbs", Modeled, |cx| Ok(exp::gapbs(cx.software()?))),
    entry("gapbs_host", Measured, |cx| {
        let (sw, host) = cx.host()?;
        Ok(exp::gapbs_host(sw, host))
    }),
    entry("fig17", Modeled, |cx| Ok(exp::fig17(cx.cf()?))),
    entry("fig17_host", Measured, |cx| exp::fig17_host(cx.cf()?)),
    entry("ablation_locality", Report, ablations::locality),
    entry("ablation_row_cap", Report, ablations::row_cap),
    entry("ablation_write_cost", Report, ablations::write_cost),
    entry("scaling_study", Report, ablations::scaling_study),
    entry("jobs_scaling", Report, jobs_scaling::run),
    entry("fault_campaign", Report, fault_campaign::run),
    entry("serve_soak", Report, serve_soak::run),
    entry("trace_export", Report, |cx| trace::export(cx, false)),
    entry("trace_export_deep", Report, |cx| trace::export(cx, true)),
    entry("trace_summary", Report, trace::summary),
];

fn usage() -> String {
    let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    format!(
        "usage: experiments [--smoke] [--check] [--cap N] [--iters N] [--jobs N] \
         [--trace P] [--timeline-out P] [NAME...]\nnames: {}",
        names.join(" ")
    )
}

/// Parses the command line into settings and the named entries, in
/// command-line order (empty when none are named).
fn parse<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(Settings, Vec<&'static Entry>), String> {
    fn count<T: std::str::FromStr + PartialOrd + From<u8>>(
        flag: &str,
        v: Option<String>,
    ) -> Result<T, String> {
        v.and_then(|v| v.parse().ok())
            .filter(|n| *n >= T::from(1))
            .ok_or_else(|| format!("{flag} requires a count >= 1"))
    }
    fn path(flag: &str, v: Option<String>) -> Result<PathBuf, String> {
        v.map(PathBuf::from)
            .ok_or_else(|| format!("{flag} requires a path"))
    }
    let mut s = Settings::default();
    let mut selected = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => s.smoke = true,
            "--check" => s.check = true,
            "--cap" => s.cap = Some(count("--cap", args.next())?),
            "--iters" => s.iters = Some(count("--iters", args.next())?),
            "--jobs" => s.jobs = Some(count("--jobs", args.next())?),
            "--trace" => s.trace = Some(path("--trace", args.next())?),
            "--timeline-out" => s.timeline = Some(path("--timeline-out", args.next())?),
            name => match REGISTRY.iter().find(|e| e.name == name) {
                Some(e) => selected.push(e),
                None if name.starts_with('-') => return Err(format!("unknown flag `{name}`")),
                None => return Err(format!("unknown experiment `{name}`")),
            },
        }
    }
    if let Some(e) = selected.iter().find(|e| s.check && e.output != Modeled) {
        return Err(format!(
            "--check: `{}` has no deterministic results/ section",
            e.name
        ));
    }
    Ok((s, selected))
}

/// What a no-name run selects: every section, or only the deterministic
/// ones under `--check`.
fn default_set(check: bool) -> Vec<&'static Entry> {
    REGISTRY
        .iter()
        .filter(|e| e.output == Modeled || (!check && e.output == Measured))
        .collect()
}

/// Where `body` first differs from `expected`, as a short report.
fn first_difference(expected: &str, body: &str) -> String {
    let (mut want, mut got) = (expected.lines(), body.lines());
    let mut line = 1;
    loop {
        match (want.next(), got.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (None, None) => return "the trailing newlines".into(),
            (a, b) => {
                return format!(
                    "line {line}\n  results: {}\n  now:     {}",
                    a.unwrap_or("<end of file>"),
                    b.unwrap_or("<end of output>")
                )
            }
        }
    }
}

fn run(s: Settings, named: Vec<&Entry>) -> BenchResult<()> {
    let start = Instant::now();
    let check = s.check;
    // A no-name run also writes the concatenated `results/all.md`.
    let write_all = named.is_empty() && !check;
    let selected = if named.is_empty() {
        default_set(check)
    } else {
        named
    };
    let mut cx = Ctx {
        s,
        matrix: None,
        software: None,
        host: None,
        cf: None,
    };
    let mut combined = String::new();
    let mut differing = Vec::new();
    for e in &selected {
        eprintln!("[experiments] {}...", e.name);
        let body = (e.run)(&mut cx)?;
        let path = format!("results/{}.md", e.name);
        if check {
            let expected = std::fs::read_to_string(&path)
                .map_err(|err| format!("--check: cannot read {path}: {err}"))?;
            if expected == body {
                println!("{}: matches {path}", e.name);
            } else {
                println!(
                    "{}: differs from {path} at {}",
                    e.name,
                    first_difference(&expected, &body)
                );
                differing.push(e.name);
            }
            continue;
        }
        print!("{body}");
        if e.output != Report {
            std::fs::create_dir_all("results")?;
            std::fs::write(&path, &body)?;
            combined.push_str(&body);
            combined.push_str("\n\n");
            // trace_demo's stdout stays byte-equal to its results file;
            // every other section ends with one more newline.
            if e.name != "trace_demo" {
                println!();
            }
        }
    }
    if write_all {
        std::fs::write("results/all.md", &combined)?;
    }
    eprintln!(
        "[experiments] done in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    if differing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} section(s) differ from results/: {}",
            differing.len(),
            differing.join(", ")
        )
        .into())
    }
}

fn main() -> ExitCode {
    let (s, named) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("experiments: {err}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(s, named) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("experiments: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn names(line: &str) -> Result<Vec<&'static str>, String> {
        parse(args(line)).map(|(_, sel)| sel.iter().map(|e| e.name).collect())
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len());
    }

    #[test]
    fn no_names_selects_every_section_and_check_only_the_modeled_ones() {
        assert_eq!(names("--cap 5"), Ok(vec![]));
        let all: Vec<&str> = default_set(false).iter().map(|e| e.name).collect();
        assert_eq!(all.first(), Some(&"table1"));
        assert_eq!(all.last(), Some(&"fig17_host"));
        assert!(all.contains(&"fig15_host") && !all.contains(&"fault_campaign"));
        let checked: Vec<&str> = default_set(true).iter().map(|e| e.name).collect();
        assert!(checked.contains(&"trace_demo") && checked.contains(&"phases"));
        assert!(checked.contains(&"fig15") && checked.contains(&"gapbs"));
        assert!(!checked.iter().any(|name| name.ends_with("_host")));
    }

    #[test]
    fn flags_parse_in_any_position() {
        let (s, sel) = parse(args(
            "fig11 --cap 20000 --iters 3 --jobs 2 --smoke --trace t.jsonl \
             --timeline-out t.json jobs_scaling",
        ))
        .unwrap();
        assert_eq!(
            s,
            Settings {
                smoke: true,
                check: false,
                cap: Some(20_000),
                iters: Some(3),
                jobs: Some(2),
                trace: Some("t.jsonl".into()),
                timeline: Some("t.json".into()),
            }
        );
        assert_eq!(sel.len(), 2);
        assert_eq!((s.cap_or(1), s.iters_or(1)), (20_000, 3));
        let smoke = parse(args("--smoke")).unwrap().0;
        assert_eq!((smoke.cap_or(8_000), smoke.iters_or(3)), (8_000, 3));
        // Entries without a smoke size keep the defaults under --smoke.
        assert_eq!(
            (smoke.cap(), smoke.iters(), smoke.jobs()),
            (DEFAULT_CAP_EDGES, DEFAULT_PR_ITERS, 1)
        );
    }

    #[test]
    fn bad_input_is_rejected_with_a_reason() {
        for (line, want) in [
            ("--edges 5", "unknown flag `--edges`"),
            ("--deep", "unknown flag `--deep`"),
            ("run_all", "unknown experiment `run_all`"),
            ("--jobs 0", "--jobs requires a count >= 1"),
            ("--cap", "--cap requires a count >= 1"),
            ("--iters x", "--iters requires a count >= 1"),
            ("--trace", "--trace requires a path"),
            (
                "--check fig15_host",
                "--check: `fig15_host` has no deterministic results/ section",
            ),
        ] {
            assert_eq!(names(line).unwrap_err(), want, "{line}");
        }
        assert!(usage().contains("trace_export_deep"));
    }

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(
            first_difference("a\nb\n", "a\nc\n"),
            "line 2\n  results: b\n  now:     c"
        );
        assert!(first_difference("a\n", "a\nb\n").contains("<end of file>"));
        assert_eq!(first_difference("a\n", "a"), "the trailing newlines");
    }
}

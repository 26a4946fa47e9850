//! Search-mode identity snapshot: runs the standard workload matrix —
//! PageRank, SSSP, BFS, and connected components, each at jobs ∈ {1, 4}
//! with fault injection off and on — under [`SearchMode::Linear`],
//! [`SearchMode::Indexed`], and the cost-modeled [`SearchMode::Auto`]
//! default, asserts the merged `RunReport` and the algorithm output are
//! **bit-identical** across all three modes for every combination, and
//! writes the host wall-clock comparison to `results/BENCH_05.json`.
//!
//! The matrix covers both bank geometries: the Table I configuration
//! (128-row banks) and the [`GaasXConfig::deep_bank`] design point
//! (2048-row banks, same resident edges). At 128 rows the linear host
//! scan is nearly as cheap as the shared per-search accounting, so the
//! indexed win is modest (and the frontier traversals lose outright —
//! the BENCH_06 regression Auto exists to fix); at 2048 rows the O(rows)
//! scan dominates and the O(hits) path pulls far ahead. Auto must track
//! the better fixed mode per row: the full run exits nonzero when any
//! Auto row falls below `--auto-floor` (default 0.95) of
//! `min(linear, indexed)`, on any report divergence, and — without
//! `--baseline` — when Indexed fails the absolute 3× deep-bank PageRank
//! gate. Full-mode wall clocks are the min of five runs per mode, with
//! reps interleaved across modes, so the ratio gates measure the code,
//! not scheduler jitter. Rows that still fall below a ratio floor are
//! re-timed (up to three extra rounds, walls min-merged, before the
//! artifact is written): a transient host spell re-measures clean while
//! a reproducible regression keeps failing.
//!
//! `--smoke` runs a reduced matrix for CI: identity checks only (all
//! three modes), a small graph, no JSON artifact, no speedup gates. `GAASX_CAP_EDGES` caps the full-matrix edge count
//! and `GAASX_PR_ITERS` the PageRank iterations.
//!
//! `--baseline <path>` switches the full run into perf-regression mode:
//! the artifact is written to `results/BENCH_08.json` (override with
//! `--out <path>`) and every matrix row's Indexed-over-Linear speedup is
//! gated against the `(algorithm, bank, jobs, fault)`-keyed row of the
//! baseline artifact — the run fails when any matched row drops below
//! `baseline * (1 - tolerance)` (`--tolerance`, default 0.5; speedup
//! *ratios* are far more stable than raw wall clocks, but CI machines
//! still jitter). Rows present on only one side are *reported* as
//! added/missing rather than mis-paired or failed, so the row set can
//! evolve across snapshots — BENCH_08 rows key cleanly against the
//! BENCH_07 baseline because the key tuple is unchanged. The artifact's
//! two optional scalar-kernel columns stay empty: there is one CAM
//! matcher to time, and only BENCH_08 carries them.

#![allow(clippy::unwrap_used)]
use std::time::Instant;

use gaasx_core::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp};
use gaasx_core::{GaasX, GaasXConfig, RecoveryPolicy, RunOutcome, SearchMode, ShardableAlgorithm};
use gaasx_graph::generators::{rmat, RmatConfig};
use gaasx_sim::table::{count, Table};
use gaasx_xbar::FaultModel;

/// One cell of the workload matrix, measured in all three modes.
struct Row {
    algorithm: &'static str,
    /// Bank geometry: "paper" (128-row) or "deep" (2048-row).
    bank: &'static str,
    jobs: usize,
    fault: bool,
    linear_s: f64,
    indexed_s: f64,
    auto_s: f64,
}

impl Row {
    /// Indexed-over-Linear speedup (the baseline-gated ratio).
    fn speedup(&self) -> f64 {
        self.linear_s / self.indexed_s.max(f64::MIN_POSITIVE)
    }

    /// Wall time of the better fixed mode.
    fn best_fixed_s(&self) -> f64 {
        self.linear_s.min(self.indexed_s)
    }

    /// How Auto compares to the better fixed mode: `best / auto`, so 1.0
    /// is parity, above 1.0 Auto wins, below the floor it regressed.
    fn auto_vs_best(&self) -> f64 {
        self.best_fixed_s() / self.auto_s.max(f64::MIN_POSITIVE)
    }
}

fn config(bank: &str, mode: SearchMode, fault: bool) -> GaasXConfig {
    let mut c = if bank == "deep" {
        GaasXConfig::deep_bank()
    } else {
        GaasXConfig::paper()
    };
    c.search_mode = mode;
    if fault {
        // Mild stuck-cell + transient-write model with the standard
        // write-verify/spare-row recovery: runs complete, the fault RNG
        // draws on every programming op, and blocks program through the
        // per-slot verify loop — the strictest identity regime.
        c.fault = FaultModel {
            seed: 0xBE05,
            cam_stuck_ber: 1e-4,
            mac_stuck_ber: 1e-4,
            write_fail_rate: 1e-3,
            ..FaultModel::none()
        };
        c.recovery = RecoveryPolicy::standard();
    }
    c
}

fn run_once<A: ShardableAlgorithm>(
    algorithm: &A,
    input: &A::Input,
    jobs: usize,
    cfg: GaasXConfig,
) -> Result<(RunOutcome<A::Output>, f64), String> {
    let mut accel = GaasX::new(cfg);
    let start = Instant::now();
    let outcome = if jobs > 1 {
        accel.run_sharded(algorithm, input, jobs)
    } else {
        accel.run(algorithm, input)
    }
    .map_err(|e| e.to_string())?;
    Ok((outcome, start.elapsed().as_secs_f64()))
}

/// Runs one matrix cell in all three modes and checks bit-identity of
/// Indexed and Auto against the Linear reference.
///
/// Timing takes the minimum of `timing_reps` wall clocks per mode, with
/// the reps *interleaved* across modes (L,I,A, L,I,A, ...) rather than
/// run back-to-back per mode: the runs are deterministic, so repeats
/// only squeeze out host scheduling noise, and interleaving ensures a
/// slow spell on the host machine hits every mode alike instead of
/// skewing whichever mode it landed on.
fn run_pair<A>(
    name: &'static str,
    bank: &'static str,
    algorithm: &A,
    input: &A::Input,
    jobs: usize,
    fault: bool,
    timing_reps: usize,
) -> Result<Row, String>
where
    A: ShardableAlgorithm,
    A::Output: PartialEq,
{
    const MODES: [SearchMode; 3] = [SearchMode::Linear, SearchMode::Indexed, SearchMode::Auto];
    // First rep: functional outcomes + identity checks.
    let (lin, linear_s) = run_once(algorithm, input, jobs, config(bank, MODES[0], fault))?;
    let mut walls = [linear_s, 0.0, 0.0];
    for (i, mode) in MODES.into_iter().enumerate().skip(1) {
        let (got, wall) = run_once(algorithm, input, jobs, config(bank, mode, fault))?;
        if lin.report != got.report {
            return Err(format!(
                "{name}: bank={bank} jobs={jobs} fault={fault}: {mode} report diverged from \
                 Linear (ops {:?} vs {:?}, elapsed {} vs {} ns, energy {} vs {} nJ)",
                got.report.ops,
                lin.report.ops,
                got.report.elapsed_ns,
                lin.report.elapsed_ns,
                got.report.energy.total_nj(),
                lin.report.energy.total_nj(),
            ));
        }
        if lin.result != got.result {
            return Err(format!(
                "{name}: bank={bank} jobs={jobs} fault={fault}: {mode} output diverged from Linear"
            ));
        }
        walls[i] = wall;
    }
    // Remaining reps: timing only.
    for _ in 1..timing_reps.max(1) {
        for (i, mode) in MODES.into_iter().enumerate() {
            let (_, wall) = run_once(algorithm, input, jobs, config(bank, mode, fault))?;
            walls[i] = walls[i].min(wall);
        }
    }
    Ok(Row {
        algorithm: name,
        bank,
        jobs,
        fault,
        linear_s: walls[0],
        indexed_s: walls[1],
        auto_s: walls[2],
    })
}

/// One `(algorithm, bank, jobs, fault)` row recovered from a baseline
/// artifact, with its recorded speedup.
struct BaselineRow {
    algorithm: String,
    bank: String,
    jobs: usize,
    fault: bool,
    speedup: f64,
}

use gaasx_bench::artifact::{self, field, SearchModeArtifact, SearchModeRow};

/// Parses the `runs` rows out of a `BENCH_0x.json` artifact. Lines that
/// don't carry an `algorithm` field (header, brackets) are skipped.
fn parse_baseline(text: &str) -> Vec<BaselineRow> {
    text.lines()
        .filter_map(|line| {
            Some(BaselineRow {
                algorithm: field(line, "algorithm")?.to_string(),
                bank: field(line, "bank")?.to_string(),
                jobs: field(line, "jobs")?.parse().ok()?,
                fault: field(line, "fault")?.parse().ok()?,
                speedup: field(line, "speedup")?.parse().ok()?,
            })
        })
        .collect()
}

/// Ratio floors get this many *extra* timing rounds on rows that fail:
/// a transient host spell re-measures clean and the min-merge clears the
/// floor, while a reproducible regression keeps failing every round.
/// Retries cost only the failing rows (reps × three configs each), so
/// three rounds stay cheap even when several rows sit near a floor.
const GATE_RETRY_ROUNDS: usize = 3;

/// Pairs every current row with the baseline row sharing its
/// `(algorithm, bank, jobs, fault)` key, returning `(row index, baseline
/// speedup)` pairs. Rows present on only one side are reported as
/// added/missing and never mis-paired; pairing happens once, before the
/// retry rounds re-evaluate the ratios.
fn pair_baseline(rows: &[Row], baseline: &[BaselineRow]) -> Vec<(usize, f64)> {
    let mut matched = Vec::new();
    let mut added = 0usize;
    for (i, r) in rows.iter().enumerate() {
        let key = (r.algorithm, r.bank, r.jobs, r.fault);
        match baseline
            .iter()
            .find(|b| (b.algorithm.as_str(), b.bank.as_str(), b.jobs, b.fault) == key)
        {
            Some(b) => matched.push((i, b.speedup)),
            None => {
                added += 1;
                println!(
                    "perf-gate: row {} bank={} jobs={} fault={} added since baseline — not gated",
                    r.algorithm, r.bank, r.jobs, r.fault
                );
            }
        }
    }
    let mut missing = 0usize;
    for b in baseline {
        let here = rows.iter().any(|r| {
            (r.algorithm, r.bank, r.jobs, r.fault)
                == (b.algorithm.as_str(), b.bank.as_str(), b.jobs, b.fault)
        });
        if !here {
            missing += 1;
            println!(
                "perf-gate: baseline row {} bank={} jobs={} fault={} missing from this run",
                b.algorithm, b.bank, b.jobs, b.fault
            );
        }
    }
    if added + missing > 0 {
        println!("perf-gate: row-set drift vs baseline: {added} added, {missing} missing.");
    }
    matched
}

/// Matched rows whose Indexed-over-Linear speedup fell below
/// `baseline * (1 - tolerance)`, as `(row index, baseline speedup)`.
fn baseline_failures(rows: &[Row], matched: &[(usize, f64)], tolerance: f64) -> Vec<(usize, f64)> {
    matched
        .iter()
        .filter(|&&(i, base)| rows[i].speedup() < base * (1.0 - tolerance))
        .copied()
        .collect()
}

fn describe_baseline_failure(r: &Row, base: f64, tolerance: f64) -> String {
    format!(
        "{} bank={} jobs={} fault={}: speedup {:.3}x fell below {:.3}x \
         (baseline {:.3}x, tolerance {:.0}%)",
        r.algorithm,
        r.bank,
        r.jobs,
        r.fault,
        r.speedup(),
        base * (1.0 - tolerance),
        base,
        100.0 * tolerance,
    )
}

/// Rows where Auto fell below `floor` of the better fixed mode.
fn auto_floor_failures(rows: &[Row], floor: f64) -> Vec<usize> {
    rows.iter()
        .enumerate()
        .filter(|(_, r)| r.auto_vs_best() < floor)
        .map(|(i, _)| i)
        .collect()
}

fn describe_auto_failure(r: &Row, floor: f64) -> String {
    format!(
        "{} bank={} jobs={} fault={}: auto {:.3}s is {:.3}x of the better fixed mode \
         {:.3}s (floor {floor:.2}x)",
        r.algorithm,
        r.bank,
        r.jobs,
        r.fault,
        r.auto_s,
        r.auto_vs_best(),
        r.best_fixed_s(),
    )
}

/// Bridges the timing rows into the shared serialization contract
/// ([`gaasx_bench::artifact`]) so the committed artifact and this
/// writer can never drift apart.
fn json_artifact(rows: &[Row], edges: u64, pr_iters: u32) -> String {
    artifact::render(&SearchModeArtifact {
        edges,
        pr_iterations: pr_iters,
        rows: rows
            .iter()
            .map(|r| SearchModeRow {
                algorithm: r.algorithm.to_string(),
                bank: r.bank.to_string(),
                jobs: r.jobs,
                fault: r.fault,
                linear_wall_s: r.linear_s,
                indexed_wall_s: r.indexed_s,
                auto_wall_s: r.auto_s,
                speedup: r.speedup(),
                auto_vs_best: r.auto_vs_best(),
                scalar_linear_wall_s: None,
                packed_vs_scalar: None,
            })
            .collect(),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut smoke = false;
    let mut baseline_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut tolerance = 0.5f64;
    let mut auto_floor = 0.95f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--baseline" => {
                baseline_path = Some(args.next().ok_or("--baseline requires a path argument")?);
            }
            "--out" => {
                out_path = Some(args.next().ok_or("--out requires a path argument")?);
            }
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|t| (0.0..1.0).contains(t))
                    .ok_or("--tolerance requires a fraction in [0, 1)")?;
            }
            "--auto-floor" => {
                auto_floor = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or("--auto-floor requires a fraction in [0, 1]")?;
            }
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }
    let (cap, pr_iters, jobs_list): (usize, u32, &[usize]) = if smoke {
        (4_000, 3, &[1, 2])
    } else {
        (
            gaasx_bench::cap_edges(),
            gaasx_bench::pr_iterations(),
            &[1, 4],
        )
    };
    // Smoke checks identity only; full runs time each mode five times
    // (interleaved across modes, min kept) so the ratio gates are stable
    // against host jitter.
    let timing_reps = if smoke { 1 } else { 5 };
    let vertices = (cap / 16).clamp(64, 1 << 17).next_power_of_two();
    let graph = rmat(&RmatConfig::new(vertices as u32, cap).with_seed(29))?;
    let src = gaasx_bench::traversal_source(&graph);
    println!(
        "Search-mode snapshot — RMAT |V|={} |E|={}, PageRank x{pr_iters}, \
         jobs {jobs_list:?}, fault off/on{}\nEvery cell runs Linear, Indexed, and Auto \
         and is checked bit-identical (full RunReport + output).\n",
        count(graph.num_vertices() as u64),
        count(graph.num_edges() as u64),
        if smoke { " (smoke)" } else { "" },
    );

    let pagerank = PageRank::fixed_iterations(pr_iters);
    // Dispatches one matrix cell by algorithm name, so the gate-retry
    // rounds can re-measure exactly the rows that failed a ratio floor.
    let measure = |name: &'static str, bank: &'static str, jobs, fault| -> Result<Row, String> {
        match name {
            "pagerank" => run_pair(name, bank, &pagerank, &graph, jobs, fault, timing_reps),
            "sssp" => run_pair(
                name,
                bank,
                &Sssp::from_source(src),
                &graph,
                jobs,
                fault,
                timing_reps,
            ),
            "bfs" => run_pair(
                name,
                bank,
                &Bfs::from_source(src),
                &graph,
                jobs,
                fault,
                timing_reps,
            ),
            "cc" => run_pair(
                name,
                bank,
                &ConnectedComponents::new(),
                &graph,
                jobs,
                fault,
                timing_reps,
            ),
            other => Err(format!("unknown algorithm `{other}`")),
        }
    };
    let mut rows: Vec<Row> = Vec::new();
    for &jobs in jobs_list {
        for fault in [false, true] {
            for alg in ["pagerank", "sssp", "bfs", "cc"] {
                rows.push(measure(alg, "paper", jobs, fault)?);
            }
        }
    }
    // The deep-bank design point (2048-row banks): the regime where the
    // linear scan's O(rows) cost dominates the shared per-search work.
    for &jobs in jobs_list {
        for fault in [false, true] {
            rows.push(measure("pagerank", "deep", jobs, fault)?);
        }
    }

    // Ratio floors are noise-hardened: rows that fail get re-timed with
    // the same interleaved min-of-reps protocol and their walls
    // min-merged before the verdict (and before the artifact is
    // written), so a transient host spell cannot fail the run while a
    // regression that reproduces across rounds still does.
    let matched: Vec<(usize, f64)> = if smoke {
        Vec::new()
    } else if let Some(bpath) = &baseline_path {
        let text = std::fs::read_to_string(bpath)
            .map_err(|e| format!("cannot read baseline {bpath}: {e}"))?;
        let baseline = parse_baseline(&text);
        if baseline.is_empty() {
            return Err(format!("baseline {bpath} holds no parseable runs").into());
        }
        pair_baseline(&rows, &baseline)
    } else {
        Vec::new()
    };
    if !smoke {
        for round in 1..=GATE_RETRY_ROUNDS {
            let mut retry: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
            retry.extend(auto_floor_failures(&rows, auto_floor));
            retry.extend(
                baseline_failures(&rows, &matched, tolerance)
                    .iter()
                    .map(|&(i, _)| i),
            );
            if retry.is_empty() {
                break;
            }
            println!(
                "gate-retry round {round}/{GATE_RETRY_ROUNDS}: re-timing {} row(s) below a \
                 ratio floor.",
                retry.len()
            );
            for &i in &retry {
                let fresh = measure(rows[i].algorithm, rows[i].bank, rows[i].jobs, rows[i].fault)?;
                let r = &mut rows[i];
                r.linear_s = r.linear_s.min(fresh.linear_s);
                r.indexed_s = r.indexed_s.min(fresh.indexed_s);
                r.auto_s = r.auto_s.min(fresh.auto_s);
            }
        }
    }

    let mut t = Table::new(&[
        "algorithm",
        "bank",
        "jobs",
        "fault",
        "linear (s)",
        "indexed (s)",
        "auto (s)",
        "speedup",
        "auto/best",
        "report",
    ]);
    for r in &rows {
        t.row_owned(vec![
            r.algorithm.into(),
            r.bank.into(),
            r.jobs.to_string(),
            if r.fault { "on" } else { "off" }.into(),
            format!("{:.3}", r.linear_s),
            format!("{:.3}", r.indexed_s),
            format!("{:.3}", r.auto_s),
            format!("{:.2}x", r.speedup()),
            format!("{:.2}x", r.auto_vs_best()),
            "identical".into(),
        ]);
    }
    println!("{t}");

    if !smoke {
        let path = out_path.as_deref().unwrap_or(if baseline_path.is_some() {
            "results/BENCH_08.json"
        } else {
            "results/BENCH_05.json"
        });
        std::fs::write(
            path,
            json_artifact(&rows, graph.num_edges() as u64, pr_iters),
        )?;
        println!("Wrote {path}");
        let pick = |bank: &str| {
            rows.iter()
                .find(|r| r.algorithm == "pagerank" && r.bank == bank && r.jobs == 1 && !r.fault)
                .expect("pagerank jobs=1 fault=off row")
        };
        let paper = pick("paper");
        let deep = pick("deep");
        println!(
            "PageRank, paper banks (128-row): Indexed {:.2}x faster than Linear \
             (Amdahl-limited: the 128-entry scan costs about as much as the \
             shared per-search accounting).",
            paper.speedup()
        );
        let auto_failures = auto_floor_failures(&rows, auto_floor);
        if !auto_failures.is_empty() {
            return Err(format!(
                "auto-gate: {} row(s) below {auto_floor:.2}x of the better fixed mode:\n  {}",
                auto_failures.len(),
                auto_failures
                    .iter()
                    .map(|&i| describe_auto_failure(&rows[i], auto_floor))
                    .collect::<Vec<_>>()
                    .join("\n  "),
            )
            .into());
        }
        println!("auto-gate: every Auto row within {auto_floor:.2}x of the better fixed mode.");
        if let Some(bpath) = &baseline_path {
            let failures = baseline_failures(&rows, &matched, tolerance);
            if !failures.is_empty() {
                return Err(format!(
                    "perf-gate: {} row(s) regressed vs {bpath}:\n  {}",
                    failures.len(),
                    failures
                        .iter()
                        .map(|&(i, base)| describe_baseline_failure(&rows[i], base, tolerance))
                        .collect::<Vec<_>>()
                        .join("\n  "),
                )
                .into());
            }
            println!(
                "perf-gate: all matched rows within {:.0}% of {bpath}.",
                100.0 * tolerance
            );
        } else if deep.speedup() < 3.0 {
            return Err(format!(
                "deep-bank PageRank Indexed speedup {:.2}x below the 3x gate \
                 (linear {:.3}s, indexed {:.3}s)",
                deep.speedup(),
                deep.linear_s,
                deep.indexed_s,
            )
            .into());
        }
        if baseline_path.is_none() {
            println!(
                "PageRank matrix workload, deep banks (2048-row): Indexed {:.2}x \
                 faster than Linear (gate: >= 3x).",
                deep.speedup()
            );
        }
    }
    println!("All search-mode runs matched bit-for-bit.");
    Ok(())
}

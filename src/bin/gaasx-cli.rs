//! `gaasx-cli` — run graph analytics on the simulated GaaS-X accelerator
//! from the command line.
//!
//! ```text
//! gaasx-cli generate rmat --vertices 4096 --edges 40000 --out g.txt
//! gaasx-cli info g.txt
//! gaasx-cli pagerank g.txt --iters 10 --top 5
//! gaasx-cli sssp g.txt --source 0
//! gaasx-cli bfs g.txt --source 0
//! gaasx-cli cc g.txt
//! gaasx-cli compare g.txt --iters 10    # GaaS-X vs GraphR
//! ```
//!
//! Graphs are text edge lists (`src dst [weight]`, `#` comments) or the
//! library's binary format (`.bin`).

#![allow(clippy::unwrap_used)]
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use gaasx::baselines::{GraphR, GraphRConfig};
use gaasx::core::algorithms::{Bfs, ConnectedComponents, PageRank, Sssp};
use gaasx::core::{GaasX, GaasXConfig};
use gaasx::graph::generators::{erdos_renyi, rmat, ErdosRenyiConfig, RmatConfig};
use gaasx::graph::stats::{GraphSummary, TileDensityProfile};
use gaasx::graph::{io as gio, CooGraph, VertexId};
use gaasx::sim::RunReport;

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("info") => cmd_info(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("pagerank") => cmd_pagerank(&args[1..]),
        Some("sssp") => cmd_traversal(&args[1..], false),
        Some("bfs") => cmd_traversal(&args[1..], true),
        Some("cc") => cmd_cc(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'; try 'gaasx-cli help'").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "gaasx-cli — graph analytics on the simulated GaaS-X accelerator\n\n\
         USAGE:\n  gaasx-cli <command> [args]\n\n\
         COMMANDS:\n\
         \x20 info <file>                         graph statistics and tile sparsity\n\
         \x20 generate <rmat|er> --vertices N --edges M [--seed S] [--out FILE]\n\
         \x20 pagerank <file> [--iters N] [--top K]\n\
         \x20 sssp <file> --source V\n\
         \x20 bfs <file> --source V\n\
         \x20 cc <file>                           weakly connected components\n\
         \x20 compare <file> [--iters N]          GaaS-X vs GraphR on PageRank\n\n\
         Options go before or after the positional argument; each takes a\n\
         value. An option the command does not list is an error.\n"
    );
}

/// A command's arguments: one positional argument plus the `--flag value`
/// pairs it reads, in any order.
struct Args<'a> {
    positional: &'a str,
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Splits `args` into `--flag value` pairs and one positional argument
    /// named `what`. A flag outside `known`, a flag without a value, and a
    /// missing or second positional argument are errors.
    fn parse(args: &'a [String], known: &[&str], what: &str) -> Result<Self, String> {
        let mut positional = None;
        let mut flags = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if arg.starts_with("--") {
                if !known.contains(&arg.as_str()) {
                    return Err(format!("unknown option '{arg}'; try 'gaasx-cli help'"));
                }
                let value = rest
                    .next()
                    .ok_or_else(|| format!("{arg} requires a value"))?;
                flags.push((arg.as_str(), value.as_str()));
            } else if positional.replace(arg.as_str()).is_some() {
                return Err(format!("unexpected argument '{arg}'"));
            }
        }
        let positional = positional.ok_or_else(|| format!("missing <{what}> argument"))?;
        Ok(Args { positional, flags })
    }

    /// The value of the first `name` flag, if given.
    fn flag(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().find(|(f, _)| *f == name).map(|&(_, v)| v)
    }

    fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for {name}")),
        }
    }
}

fn load(path: &str) -> Result<CooGraph, Box<dyn std::error::Error>> {
    if path.ends_with(".bin") {
        Ok(gio::from_binary(&std::fs::read(path)?)?)
    } else {
        Ok(gio::read_edge_list(BufReader::new(File::open(path)?))?)
    }
}

fn report_line(r: &RunReport) {
    println!(
        "engine={} algorithm={} iterations={} time={:.3}ms energy={:.3}mJ \
         mac_ops={} cam_searches={} cells_written={}",
        r.engine,
        r.algorithm,
        r.iterations,
        r.time_ms(),
        r.energy_mj(),
        r.ops.mac_ops,
        r.ops.cam_searches,
        r.ops.cells_written,
    );
}

fn cmd_info(args: &[String]) -> CliResult {
    let graph = load(Args::parse(args, &[], "file")?.positional)?;
    let summary = GraphSummary::compute(&graph)?;
    println!(
        "vertices: {}\nedges: {}\ndensity: {:.3e}",
        summary.num_vertices, summary.num_edges, summary.density
    );
    println!(
        "out-degree: min {} max {} mean {:.2} (skew {:.1})",
        summary.out_degrees.min,
        summary.out_degrees.max,
        summary.out_degrees.mean,
        summary.out_degrees.skew()
    );
    let profile = TileDensityProfile::compute(&graph, 16)?;
    println!(
        "16x16 tiles: {} non-empty of {} ({:.1}% under 10% density, mean nnz/tile {:.2})",
        profile.nonzero_tiles,
        profile.total_tiles,
        100.0 * profile.fraction_below(0.10),
        summary.num_edges as f64 / profile.nonzero_tiles.max(1) as f64,
    );
    Ok(())
}

fn cmd_generate(args: &[String]) -> CliResult {
    let args = Args::parse(
        args,
        &["--vertices", "--edges", "--seed", "--out"],
        "rmat|er",
    )?;
    let n: u32 = args.flag_parse("--vertices", 1024)?;
    let m: usize = args.flag_parse("--edges", 10_000)?;
    let seed: u64 = args.flag_parse("--seed", 1)?;
    let graph = match args.positional {
        "rmat" => rmat(&RmatConfig::new(n, m).with_seed(seed))?,
        "er" => erdos_renyi(&ErdosRenyiConfig::new(n, m).with_seed(seed))?,
        other => return Err(format!("unknown generator '{other}' (rmat | er)").into()),
    };
    match args.flag("--out") {
        Some(path) if path.ends_with(".bin") => {
            std::fs::write(path, gio::to_binary(&graph))?;
            println!("wrote {} edges to {path} (binary)", graph.num_edges());
        }
        Some(path) => {
            gio::write_edge_list(BufWriter::new(File::create(path)?), &graph)?;
            println!("wrote {} edges to {path}", graph.num_edges());
        }
        None => gio::write_edge_list(std::io::stdout().lock(), &graph)?,
    }
    Ok(())
}

fn cmd_pagerank(args: &[String]) -> CliResult {
    let args = Args::parse(args, &["--iters", "--top"], "file")?;
    let graph = load(args.positional)?;
    let iters: u32 = args.flag_parse("--iters", 20)?;
    let top: usize = args.flag_parse("--top", 10)?;
    let mut accel = GaasX::new(GaasXConfig::paper());
    let out = accel.run(&PageRank::fixed_iterations(iters), &graph)?;
    report_line(&out.report);
    let mut ranked: Vec<(usize, f64)> = out.result.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (v, r) in ranked.iter().take(top) {
        println!("v{v}\t{r:.6}");
    }
    Ok(())
}

fn cmd_traversal(args: &[String], bfs: bool) -> CliResult {
    let args = Args::parse(args, &["--source"], "file")?;
    let graph = load(args.positional)?;
    let source: u32 = args.flag_parse("--source", 0)?;
    let src = VertexId::new(source);
    let mut accel = GaasX::new(GaasXConfig::paper());
    let (report, dist) = if bfs {
        let out = accel.run(&Bfs::from_source(src), &graph)?;
        (out.report, out.result)
    } else {
        let out = accel.run(&Sssp::from_source(src), &graph)?;
        (out.report, out.result)
    };
    report_line(&report);
    let reached = dist.iter().filter(|d| d.is_finite()).count();
    let max = dist
        .iter()
        .filter(|d| d.is_finite())
        .fold(0.0f64, |m, &d| m.max(d));
    println!(
        "reached {} of {} vertices; eccentricity {}",
        reached,
        graph.num_vertices(),
        max
    );
    Ok(())
}

fn cmd_cc(args: &[String]) -> CliResult {
    let graph = load(Args::parse(args, &[], "file")?.positional)?.symmetrized();
    let mut accel = GaasX::new(GaasXConfig::paper());
    let out = accel.run(&ConnectedComponents::new(), &graph)?;
    report_line(&out.report);
    let mut labels = out.result;
    labels.sort_unstable();
    labels.dedup();
    println!("{} weakly connected components", labels.len());
    Ok(())
}

fn cmd_compare(args: &[String]) -> CliResult {
    let args = Args::parse(args, &["--iters"], "file")?;
    let graph = load(args.positional)?;
    let iters: u32 = args.flag_parse("--iters", 10)?;
    let mut accel = GaasX::new(GaasXConfig::paper());
    let a = accel
        .run(&PageRank::fixed_iterations(iters), &graph)?
        .report;
    let mut dense = GraphR::new(GraphRConfig::paper());
    let b = dense.pagerank(&graph, 0.85, iters)?.report;
    report_line(&a);
    report_line(&b);
    println!(
        "GaaS-X vs GraphR: {:.2}x speedup, {:.2}x energy savings",
        a.speedup_over(&b),
        a.energy_savings_over(&b)
    );
    Ok(())
}

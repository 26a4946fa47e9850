//! The three ablations and the scaling study: fixed-size sweeps, each
//! rendered as one table.

use gaasx_baselines::{reference, GraphR, GraphRConfig};
use gaasx_bench::experiments::BenchResult;
use gaasx_core::algorithms::PageRank;
use gaasx_core::{GaasX, GaasXConfig};
use gaasx_graph::datasets::PaperDataset;
use gaasx_graph::generators::{localize, rmat, LocalityConfig, RmatConfig};
use gaasx_graph::partition::GridPartition;
use gaasx_graph::{reorder, CooGraph};
use gaasx_sim::table::{count, ratio, Table};
use gaasx_sim::{Nanos, Picojoules, RunReport};
use gaasx_xbar::energy::DeviceEnergyModel;
use gaasx_xbar::Fidelity;

use crate::Ctx;

/// Ablation: how the sparse-mapping advantage depends on workload
/// structure — community locality and vertex ordering.
///
/// Sweeps the locality fraction of an LJ-class graph and applies the
/// reordering transforms the paper's related work cites (§VI), reporting
/// tile occupancy and the GaaS-X-vs-GraphR ratios at each point. The
/// crossover story: with no locality, tiles are near-singleton and dense
/// mapping is maximally wasteful; fully local graphs densify tiles and
/// shrink the gap; random reordering destroys whatever locality existed.
pub fn locality(_: &mut Ctx) -> BenchResult<String> {
    fn measure(graph: &CooGraph, units: usize) -> BenchResult<(f64, f64, f64)> {
        let grid = GridPartition::new(graph, 16)?;
        let nnz = graph.num_edges() as f64 / grid.num_nonempty_shards().max(1) as f64;
        let mut gx = GaasX::new(GaasXConfig {
            num_banks: units,
            ..GaasXConfig::paper()
        });
        let a = gx.run(&PageRank::fixed_iterations(5), graph)?.report;
        let mut gr = GraphR::new(GraphRConfig {
            num_pe: units,
            ..GraphRConfig::paper()
        });
        let b = gr.pagerank(graph, 0.85, 5)?.report;
        Ok((nnz, a.speedup_over(&b), a.energy_savings_over(&b)))
    }

    let base = rmat(&RmatConfig::new(1 << 15, 300_000).with_seed(0x1f01))?;
    let units = 16;
    let mut t = Table::new(&["workload variant", "nnz/tile", "speedup", "energy savings"]);
    for p in [0.0, 0.3, 0.6, 0.9] {
        let g = localize(&base, &LocalityConfig::new(p).with_hub_exponent(1.4))?;
        let (nnz, s, e) = measure(&g, units)?;
        t.row_owned(vec![
            format!("locality p={p:.1}"),
            format!("{nnz:.2}"),
            ratio(s),
            ratio(e),
        ]);
    }
    let local = localize(&base, &LocalityConfig::new(0.6).with_hub_exponent(1.4))?;
    for (name, g) in [
        ("p=0.6 randomly reordered", reorder::random(&local, 3)),
        (
            "p=0.6 degree reordered",
            reorder::by_degree_descending(&local),
        ),
    ] {
        let (nnz, s, e) = measure(&g, units)?;
        t.row_owned(vec![name.into(), format!("{nnz:.2}"), ratio(s), ratio(e)]);
    }
    Ok(format!(
        "Ablation — workload locality vs the sparse-mapping advantage\n\
         (LJ-class R-MAT, 300K edges, PageRank ×5, {units} units each)\n\n{t}\n"
    ))
}

/// Ablation: the ≤16-row accumulation cap vs ADC resolution (the Table I
/// design point: "We activate only up to 16 wordlines in each compute
/// operation ... hence, a 6-bit ADC is sufficient").
///
/// Under quantized (ADC-saturating) fidelity, raising the cap without
/// raising ADC bits clips large accumulations; this sweep shows the
/// accuracy/efficiency trade that motivates the paper's 16-row/6-bit
/// choice.
pub fn row_cap(_: &mut Ctx) -> BenchResult<String> {
    let graph = PaperDataset::WikiVote.instantiate_graph(0.3)?;
    let oracle = reference::pagerank(&graph, 0.85, 6);
    let pr = PageRank::fixed_iterations(6);

    let mut t = Table::new(&[
        "max rows/MAC",
        "ADC bits",
        "MAC bursts",
        "mean |err| vs oracle",
        "energy (mJ)",
    ]);
    for (cap, adc_bits) in [(4usize, 6u32), (8, 6), (16, 6), (32, 6), (32, 8), (64, 8)] {
        let mut config = GaasXConfig {
            fidelity: Fidelity::Quantized,
            ..GaasXConfig::paper()
        };
        config.mac_geometry.max_active_rows = cap;
        config.mac_geometry.adc_bits = adc_bits;
        let out = GaasX::new(config).run(&pr, &graph)?;
        let err: f64 = out
            .result
            .iter()
            .zip(&oracle)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / oracle.len() as f64;
        t.row_owned(vec![
            cap.to_string(),
            adc_bits.to_string(),
            out.report.ops.mac_ops.to_string(),
            format!("{err:.4}"),
            format!("{:.3}", out.report.energy_mj()),
        ]);
    }
    Ok(format!(
        "Ablation — accumulation cap vs ADC resolution (WV @ 0.3 scale, \
         PageRank ×6, quantized periphery)\n\n{t}\n"
    ))
}

/// Ablation: sensitivity of the headline ratios to the calibrated
/// programming-cost constants (DESIGN.md §4b items 1–2).
///
/// The per-value program latency and the MLC write energy are the two
/// device constants the paper does not publish; this sweep shows how the
/// GaaS-X-vs-GraphR comparison moves across their plausible ranges, so a
/// reader can judge how much of the result is calibration.
pub fn write_cost(_: &mut Ctx) -> BenchResult<String> {
    let graph = PaperDataset::Slashdot.instantiate_graph(0.3)?;
    let units = (2048.0 * 0.3) as usize;

    let mut t = Table::new(&[
        "value_program_ns",
        "cell_write_pJ",
        "speedup",
        "energy savings",
    ]);
    for vp in [0.0, 5.0, 10.0, 20.0] {
        for wp in [5.0, 20.0, 50.0] {
            let mut energy = DeviceEnergyModel::paper();
            energy.value_program_ns = Nanos::from_ns(vp);
            energy.cell_write_pj = Picojoules::from_pj(wp);
            let mut gx = GaasX::new(GaasXConfig {
                num_banks: units,
                energy,
                ..GaasXConfig::paper()
            });
            let a = gx.run(&PageRank::fixed_iterations(5), &graph)?.report;
            let mut gr = GraphR::new(GraphRConfig {
                num_pe: units,
                energy,
                ..GraphRConfig::paper()
            });
            let b = gr.pagerank(&graph, 0.85, 5)?.report;
            t.row_owned(vec![
                format!("{vp:.0}"),
                format!("{wp:.0}"),
                ratio(a.speedup_over(&b)),
                ratio(a.energy_savings_over(&b)),
            ]);
        }
    }
    Ok(format!(
        "Ablation — programming-cost sensitivity (SD @ 0.3 scale, PageRank ×5)\n\
         Paper-calibrated point: value_program_ns=10, cell_write_pJ=20.\n\n{t}\n"
    ))
}

/// Scaling study: how simulated time and energy per edge evolve as the
/// workload grows from far-below to far-above the accelerator's resident
/// capacity (2048 banks × 128 edges = 262 144 edges).
///
/// Below capacity the chip is underutilized (per-edge cost falls as waves
/// fill); above it, cost per edge flattens — the wave pipeline is saturated
/// and throughput scales linearly, which is the regime every full-size
/// figure of the paper lives in. `--jobs` runs the GaaS-X side on the
/// sharded engine; the simulated numbers are bit-identical either way.
pub fn scaling_study(cx: &mut Ctx) -> BenchResult<String> {
    let iters = 5;
    let jobs = cx.s.jobs();
    let mut t = Table::new(&[
        "edges",
        "GaaS-X ns/edge/iter",
        "GraphR ns/edge/iter",
        "speedup",
        "energy savings",
    ]);
    for cap in [30_000usize, 100_000, 300_000, 1_000_000] {
        let scale = (cap as f64 / PaperDataset::LiveJournal.full_edges() as f64).min(1.0);
        let graph = PaperDataset::LiveJournal.instantiate_graph(scale)?;
        let mut gx = GaasX::new(GaasXConfig::paper());
        let pr = PageRank::fixed_iterations(iters);
        let a = if jobs > 1 {
            gx.run_labeled_sharded(&pr, &graph, "LJ", jobs)?.report
        } else {
            gx.run_labeled(&pr, &graph, "LJ")?.report
        };
        let mut gr = GraphR::new(GraphRConfig::paper());
        let b = gr.pagerank(&graph, 0.85, iters)?.report;
        let per = |r: &RunReport| r.elapsed_ns / (r.num_edges as f64 * f64::from(iters));
        t.row_owned(vec![
            count(graph.num_edges() as u64),
            format!("{:.3}", per(&a)),
            format!("{:.3}", per(&b)),
            ratio(a.speedup_over(&b)),
            ratio(a.energy_savings_over(&b)),
        ]);
    }
    Ok(format!(
        "Scaling study — LiveJournal-class graphs across the 262 K-edge \
         resident capacity (PageRank ×{iters}, full 2048-unit configuration \
         for both engines, {jobs} GaaS-X job(s))\n\n{t}\n"
    ))
}

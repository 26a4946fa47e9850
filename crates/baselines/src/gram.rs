//! GRAM: the digital-PIM baseline (Zhou et al., ASP-DAC 2019), modeled
//! through its published ratios relative to GraphR.
//!
//! GRAM computes with digital in-memory primitives (compare-and-swap,
//! parallel reduction) on crossbar arrays — a radically different
//! microarchitecture. The GaaS-X paper therefore does not re-simulate it:
//! "Since GRAM uses a radically different architecture than the one we
//! model in detail, we only compare with GRAM in terms of the previously
//! reported end-to-end relative performance and energy improvements with
//! respect to GraphR" (§V-A). We do exactly the same: a [`GramModel`]
//! rescales a GraphR [`RunReport`] by the published per-algorithm ratios.

use gaasx_sim::RunReport;
use serde::{Deserialize, Serialize};

/// Published GRAM-vs-GraphR improvement ratios for one algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GramModel {
    /// End-to-end speedup of GRAM over GraphR.
    pub perf_vs_graphr: f64,
    /// End-to-end energy improvement of GRAM over GraphR.
    pub energy_vs_graphr: f64,
}

impl GramModel {
    /// Ratios for an algorithm, from the GRAM paper's AZ/WV/LJ evaluation
    /// as cited by GaaS-X. The digital compare-and-swap pipeline favours
    /// traversal algorithms slightly over PageRank.
    ///
    /// Returns `None` for algorithms GRAM was not evaluated on (the
    /// GaaS-X paper itself could not compare CF: "the latter was not
    /// evaluated on this algorithm") so callers skip the comparison
    /// instead of aborting a whole figure run.
    pub fn for_algorithm(algorithm: &str) -> Option<Self> {
        match algorithm {
            "pagerank" => Some(GramModel {
                perf_vs_graphr: 2.8,
                energy_vs_graphr: 4.0,
            }),
            "bfs" => Some(GramModel {
                perf_vs_graphr: 3.3,
                energy_vs_graphr: 4.4,
            }),
            "sssp" => Some(GramModel {
                perf_vs_graphr: 3.2,
                energy_vs_graphr: 4.3,
            }),
            _ => None,
        }
    }

    /// Derives a GRAM report from a GraphR report of the same run.
    pub fn report_from_graphr(&self, graphr: &RunReport) -> RunReport {
        let mut report = graphr.clone();
        report.engine = "gram".into();
        report.elapsed_ns = report.elapsed_ns.scale(1.0 / self.perf_vs_graphr);
        let scale = 1.0 / self.energy_vs_graphr;
        let e = &mut report.energy;
        for nj in [
            &mut e.mac_nj,
            &mut e.cam_nj,
            &mut e.write_nj,
            &mut e.sfu_nj,
            &mut e.buffer_nj,
            &mut e.static_nj,
        ] {
            *nj = nj.scale(scale);
        }
        // Operation counts are GraphR's; GRAM's digital op mix is not
        // directly comparable, so we clear the crossbar-specific fields.
        report.ops.mac_ops = 0;
        report.ops.cam_searches = 0;
        report.rows_per_mac = gaasx_sim::Histogram::new(1);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaasx_sim::{Nanojoules, Nanos};

    fn graphr_report() -> RunReport {
        let mut r = RunReport::new("graphr", "pagerank", "AZ");
        r.elapsed_ns = Nanos::from_ns(2.8e6);
        r.energy.mac_nj = Nanojoules::from_nj(4.0e6);
        r.iterations = 10;
        r.num_edges = 1000;
        r
    }

    #[test]
    fn rescales_time_and_energy() {
        let g = graphr_report();
        let m = GramModel::for_algorithm("pagerank").expect("published");
        let gram = m.report_from_graphr(&g);
        assert_eq!(gram.engine, "gram");
        assert!((gram.elapsed_ns.ns() - 1e6).abs() < 1.0);
        assert!((gram.energy.total_nj().nj() - 1e6).abs() < 1.0);
        // Workload metadata is preserved.
        assert_eq!(gram.workload, "AZ");
        assert_eq!(gram.iterations, 10);
    }

    #[test]
    fn traversal_ratios_exceed_pagerank() {
        let pr = GramModel::for_algorithm("pagerank").expect("published");
        let bfs = GramModel::for_algorithm("bfs").expect("published");
        assert!(bfs.perf_vs_graphr > pr.perf_vs_graphr);
    }

    #[test]
    fn cf_is_unsupported() {
        assert!(GramModel::for_algorithm("cf").is_none());
    }
}

//! Analytical GPU baseline: Gunrock (graph kernels) and cuMF (CF) on a
//! Titan-V-class part.
//!
//! No GPU exists in this environment, so Table III's GPU column is
//! reproduced with a roofline model (see DESIGN.md §5). Graph kernels on
//! GPUs are memory-bandwidth-bound with poor access efficiency — random
//! vertex gathers waste most of each 64-byte transaction — so time is
//! modeled as frontier bytes over effective bandwidth plus a per-kernel
//! launch overhead, and energy as dynamic (idle-subtracted) board power ×
//! time, matching the paper's nvidia-smi methodology.

use gaasx_core::RunOutcome;
use gaasx_graph::bipartite::BipartiteGraph;
use gaasx_graph::{CooGraph, GraphError, VertexId};
use gaasx_sim::{Nanojoules, Nanos, RunReport};
use serde::{Deserialize, Serialize};

use crate::reference;

/// Roofline parameters of the modeled GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    /// Peak HBM2 bandwidth, GB/s.
    pub mem_bw_gbps: f64,
    /// Idle-subtracted board power under memory-bound graph load, W.
    /// (The paper subtracts idle power from its nvidia-smi readings; a
    /// memory-bound kernel on a 250 W part draws ≈35 W above idle.)
    pub dynamic_power_w: f64,
    /// Per-kernel-launch overhead, ns (one launch per frontier/iteration).
    pub kernel_overhead_ns: f64,
    /// Effective-bandwidth derating for irregular gathers: random 4–8-byte
    /// vertex accesses ride 64-byte transactions, wasting ≈ 8×.
    pub access_inefficiency: f64,
    /// Memory traffic in bytes per processed edge (edge record + both endpoint values).
    pub bytes_per_edge: f64,
    /// Peak FP32 throughput for the dense CF kernels, GFLOP/s.
    pub fp32_gflops: f64,
    /// Efficiency derating of the SGD matrix-factorization kernels: cuMF's
    /// Hogwild-style updates contend on atomics and stride feature rows, so
    /// achieved bandwidth sits well under the streaming roofline.
    pub cf_inefficiency: f64,
}

impl GpuModel {
    /// The Titan V of Table III (Volta, 12 GB HBM2 at 652 GB/s, 5120 CUDA
    /// cores ≈ 13.8 TFLOP/s FP32).
    pub fn titan_v() -> Self {
        GpuModel {
            mem_bw_gbps: 652.0,
            dynamic_power_w: 35.0,
            kernel_overhead_ns: 8_000.0,
            access_inefficiency: 8.0,
            bytes_per_edge: 16.0,
            fp32_gflops: 13_800.0,
            cf_inefficiency: 4.0,
        }
    }

    /// Time to stream `edges` edge-computations through the memory system.
    fn edge_sweep_ns(&self, edges: f64) -> f64 {
        edges * self.bytes_per_edge * self.access_inefficiency / self.mem_bw_gbps
    }

    fn report(
        &self,
        engine: &str,
        algorithm: &str,
        elapsed_ns: f64,
        iterations: u32,
        num_edges: u64,
    ) -> RunReport {
        let mut r = RunReport::new(engine, algorithm, "unlabeled");
        // The roofline math above is dimensionless ratios of model
        // parameters; the result enters the typed accounting here.
        r.elapsed_ns = Nanos::from_ns(elapsed_ns);
        r.iterations = iterations;
        r.num_edges = num_edges;
        r.energy.static_nj = Nanojoules::from_nj(self.dynamic_power_w * r.elapsed_ns.ns());
        r
    }

    /// Gunrock PageRank: one full edge sweep per iteration.
    pub fn pagerank(&self, graph: &CooGraph, iterations: u32) -> RunReport {
        let per_iter = self.kernel_overhead_ns + self.edge_sweep_ns(graph.num_edges() as f64);
        self.report(
            "gpu-gunrock",
            "pagerank",
            f64::from(iterations) * per_iter,
            iterations,
            graph.num_edges() as u64,
        )
    }

    /// Gunrock BFS: frontier-centric — each level sweeps only the
    /// frontier's out-edges.
    ///
    /// # Errors
    ///
    /// Returns a graph error for an out-of-range source.
    pub fn bfs(&self, graph: &CooGraph, source: VertexId) -> Result<RunReport, GraphError> {
        if source.raw() >= graph.num_vertices() {
            return Err(GraphError::VertexOutOfRange {
                vertex: source.raw(),
                num_vertices: graph.num_vertices(),
            });
        }
        let (_, frontiers) = reference::bfs_with_frontiers(graph, source);
        let elapsed: f64 = frontiers
            .iter()
            .map(|&e| self.kernel_overhead_ns + self.edge_sweep_ns(e as f64))
            .sum();
        Ok(self.report(
            "gpu-gunrock",
            "bfs",
            elapsed,
            frontiers.len() as u32,
            graph.num_edges() as u64,
        ))
    }

    /// Gunrock SSSP: per-round relaxation sweeps over the active sets.
    ///
    /// # Errors
    ///
    /// Returns a graph error for an out-of-range source.
    pub fn sssp(&self, graph: &CooGraph, source: VertexId) -> Result<RunReport, GraphError> {
        if source.raw() >= graph.num_vertices() {
            return Err(GraphError::VertexOutOfRange {
                vertex: source.raw(),
                num_vertices: graph.num_vertices(),
            });
        }
        let (_, rounds) = reference::sssp_with_rounds(graph, source);
        let elapsed: f64 = rounds
            .iter()
            .map(|&e| self.kernel_overhead_ns + self.edge_sweep_ns(e as f64))
            .sum();
        Ok(self.report(
            "gpu-gunrock",
            "sssp",
            elapsed,
            rounds.len() as u32,
            graph.num_edges() as u64,
        ))
    }

    /// cuMF SGD matrix factorization: per epoch, every rating moves both
    /// feature vectors (coalesced much better than graph gathers — the CF
    /// kernels are dense-friendly, inefficiency ≈ 2) and performs `8f`
    /// flops.
    pub fn cf(&self, ratings: &BipartiteGraph, features: usize, epochs: u32) -> RunReport {
        let r = ratings.num_ratings() as f64;
        let bytes = r * (2.0 * features as f64 * 4.0) * 2.0;
        let mem_ns = bytes * self.cf_inefficiency / self.mem_bw_gbps;
        let flop_ns = r * 8.0 * features as f64 / self.fp32_gflops;
        let per_epoch = self.kernel_overhead_ns + mem_ns.max(flop_ns);
        self.report(
            "gpu-cumf",
            "cf",
            f64::from(epochs) * per_epoch,
            epochs,
            ratings.num_ratings() as u64,
        )
    }

    /// Convenience wrapper producing a [`RunOutcome`] whose functional
    /// result comes from the oracle (the GPU model is timing-only).
    ///
    /// # Errors
    ///
    /// Returns a graph error for an out-of-range source.
    pub fn bfs_outcome(
        &self,
        graph: &CooGraph,
        source: VertexId,
    ) -> Result<RunOutcome<Vec<f64>>, GraphError> {
        let report = self.bfs(graph, source)?;
        Ok(RunOutcome {
            result: reference::bfs(graph, source),
            report,
        })
    }
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel::titan_v()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaasx_graph::generators;

    #[test]
    fn pagerank_time_scales_with_edges_and_iterations() {
        let gpu = GpuModel::titan_v();
        // Sizes chosen so the edge sweep dominates the 8 µs launch overhead.
        let small =
            generators::rmat(&generators::RmatConfig::new(1 << 10, 100_000).with_seed(1)).unwrap();
        let big = generators::rmat(&generators::RmatConfig::new(1 << 10, 1_000_000).with_seed(1))
            .unwrap();
        let t_small = gpu.pagerank(&small, 10).elapsed_ns;
        let t_big = gpu.pagerank(&big, 10).elapsed_ns;
        assert!(t_big > t_small * 5);
        assert!((gpu.pagerank(&small, 20).elapsed_ns / t_small - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bfs_work_is_frontier_proportional() {
        let gpu = GpuModel::titan_v();
        // From the tail of a path, BFS touches 2 vertices; from the head,
        // all of them — the latter must cost more.
        let g = generators::path_graph(500);
        let from_head = gpu.bfs(&g, VertexId::new(0)).unwrap().elapsed_ns;
        let from_tail = gpu.bfs(&g, VertexId::new(498)).unwrap().elapsed_ns;
        assert!(from_head > from_tail);
    }

    #[test]
    fn energy_is_power_times_time() {
        let gpu = GpuModel::titan_v();
        let g = generators::paper_fig7_graph();
        let r = gpu.pagerank(&g, 5);
        assert!((r.energy.total_nj().nj() - gpu.dynamic_power_w * r.elapsed_ns.ns()).abs() < 1e-9);
    }

    #[test]
    fn cf_time_scales_with_ratings() {
        let gpu = GpuModel::titan_v();
        let small = BipartiteGraph::synthetic(100, 20, 10_000, 1).unwrap();
        let big = BipartiteGraph::synthetic(100, 20, 1_000_000, 1).unwrap();
        assert!(gpu.cf(&big, 32, 1).elapsed_ns > gpu.cf(&small, 32, 1).elapsed_ns * 10);
    }

    #[test]
    fn rejects_bad_source() {
        let gpu = GpuModel::titan_v();
        let g = generators::path_graph(3);
        assert!(gpu.bfs(&g, VertexId::new(9)).is_err());
        assert!(gpu.sssp(&g, VertexId::new(9)).is_err());
    }
}

//! The GraphR simulator: dense tile mapping with GaaS-X's device substrate.

use gaasx_core::algorithms::CfModel;
use gaasx_core::config::SFU_LANES;
use gaasx_core::RunOutcome;
use gaasx_graph::bipartite::BipartiteGraph;
use gaasx_graph::partition::{GridPartition, TraversalOrder};
use gaasx_graph::CooGraph;
use gaasx_sim::pipeline::{wave_schedule, BlockStages};
use gaasx_sim::{
    attribute_makespan, EnergyBreakdown, Histogram, Nanojoules, Nanos, OpSummary, Phase, RunReport,
    SramBuffer, Tracer,
};
use gaasx_xbar::energy::DeviceEnergyModel;

/// Configuration of the GraphR baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphRConfig {
    /// Dense tile side length (the paper's Fig 5 uses 16×16).
    pub tile_size: u32,
    /// Parallel compute elements — kept at 2048 for parity with GaaS-X.
    pub num_pe: usize,
    /// Device energy/latency model (same substrate as GaaS-X).
    pub energy: DeviceEnergyModel,
    /// Bit slices per stored value (same 16-bit weights as GaaS-X).
    pub slices: u64,
    /// Bandwidth streaming COO data from the memory ReRAMs, GB/s.
    pub stream_bandwidth_gbps: f64,
    /// Bytes per streamed COO edge record.
    pub edge_record_bytes: u64,
}

impl GraphRConfig {
    /// The configuration used throughout the paper's comparison.
    pub fn paper() -> Self {
        GraphRConfig {
            tile_size: 16,
            num_pe: 2048,
            energy: DeviceEnergyModel::paper(),
            slices: 8,
            stream_bandwidth_gbps: 128.0,
            edge_record_bytes: 12,
        }
    }

    /// A small configuration for fast tests (8 PEs).
    pub fn small() -> Self {
        GraphRConfig {
            num_pe: 8,
            ..GraphRConfig::paper()
        }
    }
}

impl Default for GraphRConfig {
    fn default() -> Self {
        GraphRConfig::paper()
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TileCost {
    stream_ns: Nanos,
    program_ns: Nanos,
    compute_ns: Nanos,
}

/// Cost tally shared by all GraphR algorithm runs.
#[derive(Debug)]
struct Tally {
    config: GraphRConfig,
    /// Stream time of one edge record, rounded once.
    edge_stream_ns: Nanos,
    /// Programming time of one dense tile (`T` rows of `T` values),
    /// rounded once.
    tile_program_ns: Nanos,
    /// One scalar op's share of an sALU lane, rounded once.
    salu_lane_ns: Nanos,
    costs: Vec<TileCost>,
    current: TileCost,
    in_tile: bool,
    mac_ops: u64,
    rows_per_mac: Histogram,
    cells_written: u64,
    row_writes: u64,
    sfu_ops: u64,
    compute_items: u64,
    extra_parallel_ns: Nanos,
    input_buf: SramBuffer,
    attr_buf: SramBuffer,
    output_buf: SramBuffer,
    tracer: Tracer,
    /// Functional (serial) time cursor for span placement.
    cursor_ns: Nanos,
    phase_busy: [Nanos; 7],
    phase_counts: [u64; 7],
}

impl Tally {
    fn new(config: GraphRConfig, tracer: Tracer) -> Self {
        let t = u64::from(config.tile_size);
        Tally {
            rows_per_mac: Histogram::new(config.tile_size as usize),
            edge_stream_ns: Nanos::from_ns(
                config.edge_record_bytes as f64 / config.stream_bandwidth_gbps,
            ),
            tile_program_ns: config.energy.row_program_ns(config.tile_size as usize) * t,
            // GraphR's sALUs are as parallel as GaaS-X's SFU lanes.
            salu_lane_ns: config.energy.sfu_op_ns / SFU_LANES,
            config,
            costs: Vec::new(),
            current: TileCost::default(),
            in_tile: false,
            mac_ops: 0,
            cells_written: 0,
            row_writes: 0,
            sfu_ops: 0,
            compute_items: 0,
            extra_parallel_ns: Nanos::ZERO,
            input_buf: SramBuffer::input_16kb(),
            attr_buf: SramBuffer::attribute_512kb(),
            output_buf: SramBuffer::output_64kb(),
            tracer,
            cursor_ns: Nanos::ZERO,
            phase_busy: [Nanos::ZERO; 7],
            phase_counts: [0; 7],
        }
    }

    /// Tallies one operation's busy time and emits its span on the
    /// functional (serial) time axis.
    fn trace_op(&mut self, phase: Phase, dur_ns: Nanos, count: u64) {
        self.phase_busy[phase.index()] += dur_ns;
        self.phase_counts[phase.index()] += count;
        let start = self.cursor_ns;
        self.cursor_ns += dur_ns;
        // The span/telemetry boundary is untyped; `.ns()` marks the exit
        // from the typed accounting, and costs a conversion per op, so only
        // a live tracer pays it.
        if self.tracer.enabled() {
            self.tracer.emit(phase, start.ns(), dur_ns.ns());
        }
    }

    /// Sparse→dense conversion and programming of one tile holding `nnz`
    /// edges: the full `T²` dense image is written.
    fn load_tile(&mut self, nnz: usize) {
        self.end_tile();
        self.in_tile = true;
        let t = u64::from(self.config.tile_size);
        self.input_buf
            .write(nnz as u64 * self.config.edge_record_bytes);
        let stream_ns = self.edge_stream_ns * nnz as u64;
        self.current.stream_ns = stream_ns;
        // Every dense row programs all T values (zeros included): the
        // timing face of the Fig 5 write redundancy.
        self.current.program_ns = self.tile_program_ns;
        self.row_writes += t;
        self.cells_written += t * t * self.config.slices;
        self.trace_op(Phase::LoadBlock, stream_ns + self.current.program_ns, 1);
    }

    /// One MAC burst activating `rows` tile rows; every activated row
    /// computes all `T` of its cells, zeros included.
    fn mac(&mut self, rows: usize) {
        debug_assert!(self.in_tile, "mac outside a loaded tile");
        self.mac_ops += 1;
        self.rows_per_mac.record(rows.max(1));
        let ns = self.config.energy.mac_op_ns;
        self.current.compute_ns += ns;
        self.trace_op(Phase::MacGather, ns, 1);
        self.compute_items += rows as u64 * u64::from(self.config.tile_size);
    }

    fn sfu(&mut self, ops: u64) {
        let ns = self.salu_lane_ns * ops;
        if self.in_tile {
            self.current.compute_ns += ns;
        }
        self.sfu_ops += ops;
        self.trace_op(Phase::Sfu, ns, ops);
    }

    /// Charges loading `rows` attribute rows of `values` logical values
    /// each into the *current tile's* PE. GraphR's tile-at-a-time dataflow
    /// co-locates the feature vectors with the PE processing the tile, so
    /// every tile re-loads its occupied lines' vectors — the CF face of the
    /// dense-mapping write redundancy.
    fn load_tile_features(&mut self, rows: u64, values: usize) {
        debug_assert!(self.in_tile, "feature load outside a tile");
        self.row_writes += rows;
        self.cells_written += rows * values as u64 * self.config.slices;
        let ns = self.config.energy.row_program_ns(values) * rows;
        self.current.program_ns += ns;
        self.trace_op(Phase::LoadBlock, ns, 1);
    }

    fn end_tile(&mut self) {
        if self.in_tile {
            self.costs.push(self.current);
            self.current = TileCost::default();
            self.in_tile = false;
        }
    }

    fn finish(mut self, algorithm: &str, iterations: u32, num_edges: u64) -> RunReport {
        self.end_tile();
        let stages = |t: &TileCost| BlockStages {
            stream: t.stream_ns,
            program: t.program_ns,
            compute: t.compute_ns,
        };
        let tiles = wave_schedule(&self.costs, self.config.num_pe.max(1), stages, |wave| {
            if self.tracer.enabled() {
                // One dispatch event per tile; PE = position in the wave.
                let compute_start = wave.compute_start;
                for (i, t) in wave.blocks.iter().enumerate() {
                    self.tracer
                        .span(
                            Phase::Dispatch,
                            (compute_start - t.program_ns).max(Nanos::ZERO).ns(),
                        )
                        .bank(i as u32)
                        .attr("tile", wave.first + i)
                        .attr("wave", wave.index)
                        .end((compute_start + t.compute_ns).ns());
                }
            }
        });
        let makespan = tiles + self.extra_parallel_ns;
        let e = &self.config.energy;
        let buffer_nj =
            self.input_buf.energy_nj() + self.attr_buf.energy_nj() + self.output_buf.energy_nj();
        let energy = EnergyBreakdown {
            mac_nj: (e.mac_op_pj * self.mac_ops).to_nanojoules(),
            cam_nj: Nanojoules::ZERO,
            write_nj: (e.cell_write_pj * self.cells_written).to_nanojoules(),
            sfu_nj: (e.sfu_op_pj * self.sfu_ops).to_nanojoules(),
            buffer_nj,
            static_nj: e.static_energy_nj(makespan),
        };
        let ops = OpSummary {
            mac_ops: self.mac_ops,
            cam_searches: 0,
            cells_written: self.cells_written,
            row_writes: self.row_writes,
            verify_reads: 0,
            sfu_ops: self.sfu_ops,
            buffer_accesses: self.input_buf.accesses()
                + self.attr_buf.accesses()
                + self.output_buf.accesses(),
            compute_items: self.compute_items,
        };
        let tallies: Vec<(Phase, Nanos, u64)> = Phase::ALL
            .iter()
            .filter(|&&p| p != Phase::Dispatch)
            .map(|&p| (p, self.phase_busy[p.index()], self.phase_counts[p.index()]))
            .collect();
        let phases = attribute_makespan(makespan, &tallies);
        if let Some(metrics) = self.tracer.metrics() {
            metrics.publish_op_summary(&ops);
        }
        self.tracer.gauge_set("elapsed_ns", makespan.ns());
        self.tracer
            .gauge_set("energy_total_nj", energy.total_nj().nj());
        self.tracer.flush();

        let mut report = RunReport::new("graphr", algorithm, "unlabeled");
        report.iterations = iterations;
        report.elapsed_ns = makespan;
        report.energy = energy;
        report.ops = ops;
        report.rows_per_mac = self.rows_per_mac;
        report.num_edges = num_edges;
        report.phases = phases;
        report
    }
}

/// The GraphR baseline accelerator.
#[derive(Debug, Clone)]
pub struct GraphR {
    config: GraphRConfig,
    tracer: Tracer,
}

impl GraphR {
    /// Creates a GraphR instance.
    pub fn new(config: GraphRConfig) -> Self {
        GraphR {
            config,
            tracer: Tracer::null(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GraphRConfig {
        &self.config
    }

    /// Attaches a tracer that every subsequent run inherits (builder form).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Attaches a tracer that every subsequent run inherits.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// PageRank: one full-tile MVM per non-empty tile per iteration.
    ///
    /// # Errors
    ///
    /// Returns a graph error for an empty graph.
    pub fn pagerank(
        &mut self,
        graph: &CooGraph,
        damping: f64,
        iterations: u32,
    ) -> Result<RunOutcome<Vec<f64>>, gaasx_graph::GraphError> {
        let grid = GridPartition::new(graph, self.config.tile_size)?;
        let n = graph.num_vertices() as usize;
        let deg = graph.out_degrees();
        let mut tally = Tally::new(self.config.clone(), self.tracer.clone());
        let mut ranks = vec![1.0f64; n];

        for _ in 0..iterations {
            let mut acc = vec![0.0f64; n];
            for shard in grid.stream(TraversalOrder::ColumnMajor) {
                tally.load_tile(shard.num_edges());
                // One MVM covers the whole tile: inputs are the source
                // ranks, cells the dense 1/outdeg image.
                tally.mac(self.config.tile_size as usize);
                let mut dsts = 0u64;
                let mut last_dst = u32::MAX;
                for e in shard.edges() {
                    acc[e.dst.index()] +=
                        ranks[e.src.index()] / f64::from(deg[e.src.index()].max(1));
                    if e.dst.raw() != last_dst {
                        dsts += 1;
                        last_dst = e.dst.raw();
                    }
                }
                tally.sfu(dsts);
                tally.attr_buf.write(8 * dsts);
            }
            tally.end_tile();
            for v in 0..n {
                ranks[v] = (1.0 - damping) + damping * acc[v];
            }
            tally.sfu(2 * n as u64);
            tally.output_buf.write(8 * n as u64);
        }

        let report = tally.finish("pagerank", iterations, graph.num_edges() as u64);
        Ok(RunOutcome {
            result: ranks,
            report,
        })
    }

    /// SSSP: row-serial tile processing, re-streaming every tile each
    /// superstep (no CAM to locate active sources).
    ///
    /// # Errors
    ///
    /// Returns a graph error for an empty graph or out-of-range source.
    pub fn sssp(
        &mut self,
        graph: &CooGraph,
        source: gaasx_graph::VertexId,
    ) -> Result<RunOutcome<Vec<f64>>, gaasx_graph::GraphError> {
        self.traversal(graph, source, false)
    }

    /// BFS: identical structure to SSSP with unit weights.
    ///
    /// # Errors
    ///
    /// Returns a graph error for an empty graph or out-of-range source.
    pub fn bfs(
        &mut self,
        graph: &CooGraph,
        source: gaasx_graph::VertexId,
    ) -> Result<RunOutcome<Vec<f64>>, gaasx_graph::GraphError> {
        self.traversal(graph, source, true)
    }

    fn traversal(
        &mut self,
        graph: &CooGraph,
        source: gaasx_graph::VertexId,
        unit_weights: bool,
    ) -> Result<RunOutcome<Vec<f64>>, gaasx_graph::GraphError> {
        if source.raw() >= graph.num_vertices() {
            return Err(gaasx_graph::GraphError::VertexOutOfRange {
                vertex: source.raw(),
                num_vertices: graph.num_vertices(),
            });
        }
        let grid = GridPartition::new(graph, self.config.tile_size)?;
        let n = graph.num_vertices() as usize;
        let mut tally = Tally::new(self.config.clone(), self.tracer.clone());
        let mut dist = vec![f64::INFINITY; n];
        dist[source.index()] = 0.0;
        let mut supersteps = 0u32;

        loop {
            let mut changed = false;
            for shard in grid.stream(TraversalOrder::RowMajor) {
                tally.load_tile(shard.num_edges());
                // Row-serial: one MAC burst per occupied tile row,
                // regardless of whether its source is active. (Shard edges
                // are sorted by destination, so count distinct sources.)
                let mut srcs: Vec<u32> = shard.edges().iter().map(|e| e.src.raw()).collect();
                srcs.sort_unstable();
                srcs.dedup();
                let rows = srcs.len() as u64;
                for _ in 0..rows {
                    tally.mac(1);
                }
                tally.sfu(rows * u64::from(self.config.tile_size));

                for e in shard.edges() {
                    let dv = dist[e.src.index()];
                    if !dv.is_finite() {
                        continue;
                    }
                    let w = if unit_weights {
                        1.0
                    } else {
                        f64::from(e.weight)
                    };
                    let cand = dv + w;
                    if cand < dist[e.dst.index()] {
                        dist[e.dst.index()] = cand;
                        tally.attr_buf.write(8);
                        changed = true;
                    }
                }
            }
            tally.end_tile();
            supersteps += 1;
            if !changed || supersteps as usize >= n {
                break;
            }
        }
        tally.output_buf.write(8 * n as u64);

        let name = if unit_weights { "bfs" } else { "sssp" };
        let report = tally.finish(name, supersteps, graph.num_edges() as u64);
        Ok(RunOutcome {
            result: dist,
            report,
        })
    }

    /// Collaborative filtering: dense-mapped rating tiles with the paper's
    /// two-phase update. The redundancy factor is the dense tile image —
    /// every user–item pair of an occupied tile row/column computes,
    /// rated or not.
    ///
    /// # Errors
    ///
    /// Returns a graph error for an empty rating set.
    pub fn cf(
        &mut self,
        ratings: &BipartiteGraph,
        features: usize,
        epochs: u32,
        learning_rate: f64,
        regularization: f64,
        seed: u64,
    ) -> Result<RunOutcome<CfModel>, gaasx_graph::GraphError> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let t = self.config.tile_size;
        let mut tally = Tally::new(self.config.clone(), self.tracer.clone());
        let mut rng = SmallRng::seed_from_u64(seed);
        let scale = 0.5 / (features as f32).sqrt();
        let mut init = |n: u32| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| (0..features).map(|_| rng.gen_range(0.0..scale)).collect())
                .collect()
        };
        let mut user_f = init(ratings.num_users());
        let mut item_f = init(ratings.num_items());
        let segs = features.div_ceil(8) as u64;
        let rows_per_vector = (2 * features).div_ceil(16) as u64;

        // Tile the (user × item) rating matrix.
        let coo = ratings.to_coo();
        let grid = GridPartition::new(&coo, t)?;

        for _ in 0..epochs {
            for shard in grid.stream(TraversalOrder::ColumnMajor) {
                tally.load_tile(shard.num_edges());
                let mut items: Vec<u32> = shard.edges().iter().map(|e| e.dst.raw()).collect();
                items.sort_unstable();
                items.dedup();
                let mut users: Vec<u32> = shard.edges().iter().map(|e| e.src.raw()).collect();
                users.sort_unstable();
                users.dedup();
                // The tile's occupied lines bring their feature vectors
                // into this PE's attribute crossbars.
                tally.load_tile_features((users.len() + items.len()) as u64 * rows_per_vector, 16);

                // Dense feature MACs: per phase, per occupied line, the
                // engine runs dual-rail feature ops across all T
                // counterpart rows — rated or not.
                for _ in 0..(items.len() + users.len()) {
                    for _ in 0..(segs * 2) {
                        tally.mac(t as usize);
                    }
                }
                tally.sfu((items.len() + users.len()) as u64 * features as u64 * 3);

                // Functional SGD on the actual ratings only.
                for e in shard.edges() {
                    let u = e.src.index();
                    let i = e.dst.index() - ratings.num_users() as usize;
                    let pred: f64 = user_f[u]
                        .iter()
                        .zip(&item_f[i])
                        .map(|(&a, &b)| f64::from(a) * f64::from(b))
                        .sum();
                    let err = f64::from(e.weight) - pred;
                    for k in 0..features {
                        let pu = f64::from(user_f[u][k]);
                        let pi = f64::from(item_f[i][k]);
                        user_f[u][k] =
                            (pu + learning_rate * (err * pi - regularization * pu)) as f32;
                        item_f[i][k] =
                            (pi + learning_rate * (err * pu - regularization * pi)) as f32;
                    }
                    tally.attr_buf.write(8 * features as u64);
                }
            }
            tally.end_tile();
        }

        let report = tally.finish("cf", epochs, ratings.num_ratings() as u64);
        Ok(RunOutcome {
            result: CfModel::from_parts(user_f, item_f),
            report,
        })
    }
}

impl Default for GraphR {
    fn default() -> Self {
        GraphR::new(GraphRConfig::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gaasx_graph::{generators, VertexId};

    #[test]
    fn pagerank_matches_oracle_exactly() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 7, 800).with_seed(2)).unwrap();
        let mut gr = GraphR::new(GraphRConfig::small());
        let out = gr.pagerank(&g, 0.85, 6).unwrap();
        let want = reference::pagerank(&g, 0.85, 6);
        for (a, b) in out.result.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn sssp_matches_dijkstra() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 7, 800).with_seed(3)).unwrap();
        let mut gr = GraphR::new(GraphRConfig::small());
        let out = gr.sssp(&g, VertexId::new(0)).unwrap();
        assert_eq!(out.result, reference::dijkstra(&g, VertexId::new(0)));
    }

    #[test]
    fn bfs_matches_reference() {
        let g = generators::rmat(&generators::RmatConfig::new(1 << 6, 400).with_seed(4)).unwrap();
        let mut gr = GraphR::new(GraphRConfig::small());
        let out = gr.bfs(&g, VertexId::new(0)).unwrap();
        assert_eq!(out.result, reference::bfs(&g, VertexId::new(0)));
    }

    #[test]
    fn dense_mapping_writes_full_tiles() {
        let g = generators::path_graph(32); // 31 edges
        let mut gr = GraphR::new(GraphRConfig::small());
        let out = gr.pagerank(&g, 0.85, 1).unwrap();
        // Non-empty tiles at T=16: diagonal 2 + 1 crossing = 3 tiles;
        // each writes 16×16×8 device cells.
        assert_eq!(out.report.ops.cells_written, 3 * 256 * 8);
        // Dense compute: 3 tiles × 256 cells ≫ 31 edges.
        assert_eq!(out.report.ops.compute_items, 3 * 256);
    }

    #[test]
    fn traversal_reloads_every_superstep() {
        // A reversed path defeats the in-superstep Gauss–Seidel effect of
        // ascending-destination edge order, forcing one superstep per hop.
        let g = generators::path_graph(16).transposed();
        let mut gr = GraphR::new(GraphRConfig::small());
        let out = gr.bfs(&g, VertexId::new(15)).unwrap();
        assert!(out.report.iterations >= 15, "{}", out.report.iterations);
        assert_eq!(
            out.report.ops.cells_written,
            u64::from(out.report.iterations) * 256 * 8
        );
    }

    #[test]
    fn report_is_well_formed() {
        let g = generators::paper_fig7_graph();
        let mut gr = GraphR::new(GraphRConfig::small());
        let out = gr.pagerank(&g, 0.85, 2).unwrap();
        assert_eq!(out.report.engine, "graphr");
        assert!(out.report.elapsed_ns.ns() > 0.0);
        assert!(out.report.energy.total_nj().nj() > 0.0);
        assert_eq!(out.report.energy.cam_nj, Nanojoules::ZERO);
    }

    #[test]
    fn cf_training_reduces_rmse() {
        let ratings = BipartiteGraph::synthetic(30, 12, 300, 5).unwrap();
        let mut gr = GraphR::new(GraphRConfig::small());
        let before = gr
            .cf(&ratings, 8, 0, 0.02, 0.02, 7)
            .unwrap()
            .result
            .rmse(&ratings)
            .unwrap();
        let after = gr
            .cf(&ratings, 8, 5, 0.02, 0.02, 7)
            .unwrap()
            .result
            .rmse(&ratings)
            .unwrap();
        assert!(after < before, "rmse {before} -> {after}");
    }

    #[test]
    fn rejects_bad_source() {
        let g = generators::path_graph(4);
        let mut gr = GraphR::new(GraphRConfig::small());
        assert!(gr.sssp(&g, VertexId::new(9)).is_err());
    }
}

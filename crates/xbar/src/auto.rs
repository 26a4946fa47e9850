//! Analytical cost model resolving [`SearchMode::Auto`] to a concrete
//! host search algorithm per loaded block.
//!
//! [`SearchMode`] is a pure host-speed knob — both fixed modes produce
//! bit-identical hit vectors and device accounting — but neither fixed
//! choice is uniformly fastest. `results/BENCH_06.json` measured the
//! Indexed default *slowing down* three of four algorithms on the Table I
//! geometry fault-free (BFS to 0.60×) while winning 2.6–3.9× on deep
//! banks: whether an exact-match [`FieldIndex`](crate::CamCrossbar) pays
//! for itself depends on how many searches amortize its build.
//!
//! [`SearchCostModel`] captures that trade-off analytically. For one
//! loaded block it estimates
//!
//! * the **linear** host cost: every physical search scans all geometry
//!   rows, `Q × rows × scan_row_ns`;
//! * the **indexed** host cost: one index build over the block's valid
//!   entries plus `Q` hash probes and their hit enumeration,
//!   `occupancy × index_build_row_ns + Q × (index_probe_ns +
//!   (occupancy / distinct_keys) × index_hit_ns)`;
//!
//! where `Q`, the expected physical searches per block visit, comes from
//! the algorithm's declared [`SearchProfile`] (dense sweeps search every
//! distinct key; frontier traversals search a sparse active subset) times
//! the physical-per-logical multiplier (3 under CAM majority voting,
//! else 1). The per-op constants are calibrated as fractions of the
//! device time base ([`DeviceEnergyModel::cam_search_ns`], the same
//! 4 ns unit `energy`/`periphery` bill a search at), chosen so the
//! model reproduces the measured winner on every `bench_snapshot` row —
//! see [`SearchCostModel::calibrated`]. Since the index became a chained,
//! allocation-free structure, Indexed wins every row of that matrix, and
//! Linear survives only for blocks with very few distinct search keys.
//!
//! The engine resolves `Auto` at block-program time, so a single run can
//! mix modes block-by-block; billing is mode-independent, so reports stay
//! bit-identical to both fixed modes no matter how blocks resolve.

use serde::{Deserialize, Serialize};

use gaasx_sim::Nanos;

use crate::cam::SearchMode;
use crate::energy::DeviceEnergyModel;

/// How an algorithm queries the blocks it loads — the access-pattern
/// input of the [`SearchCostModel`], and nothing else: it only steers how
/// an `Auto` engine resolves each block, never what a run computes or
/// bills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SearchProfile {
    /// One search per distinct key in the block on every visit — the
    /// dense sweep shape (PageRank, SpMV, GCN, collaborative filtering
    /// gather every distinct destination each iteration).
    #[default]
    OnePerKey,
    /// Searches only an algorithm-maintained active subset of the
    /// block's keys per visit (BFS/SSSP/CC expand frontier sources
    /// only). Modeled as `sqrt(distinct_keys)` expected searches: the
    /// frontier sweeps from a handful of sources to (rarely) all of
    /// them, and the geometric middle reproduces the measured BENCH_06
    /// decisions on both bank geometries.
    Frontier,
}

/// Shape of one loaded block, as the cost model sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockShape {
    /// Geometry rows the linear scan walks per search (scan length is
    /// the bank depth, not the occupancy — invalid rows still cost a
    /// compare).
    pub rows: usize,
    /// Valid entries in the block (index build size).
    pub occupancy: usize,
    /// Distinct values of the searched key field in the block.
    pub distinct_keys: usize,
    /// Physical searches issued per logical search: 3 when CAM
    /// majority voting re-searches under an active fault model, else 1.
    pub physical_per_logical: u32,
    /// The querying algorithm's declared access pattern.
    pub profile: SearchProfile,
}

/// Host-side per-operation costs of the two search algorithms, in
/// nanoseconds of host work. See the module docs for the decision rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchCostModel {
    /// Cost to compare one stored row in the linear scan.
    pub scan_row_ns: Nanos,
    /// Cost to hash-insert one valid entry while (re)building a
    /// [`FieldIndex`](crate::CamCrossbar) after a block load.
    pub index_build_row_ns: Nanos,
    /// Cost of one exact-match index probe.
    pub index_probe_ns: Nanos,
    /// Cost to enumerate one hit row out of a probe's match set.
    pub index_hit_ns: Nanos,
}

impl SearchCostModel {
    /// The model calibrated against the device time base: every constant
    /// is a fixed fraction of `energy.cam_search_ns` (4 ns in the Table I
    /// model), so sweeping the device model rescales the host model
    /// coherently. The fractions — scan 0.15×, build 0.5×, probe 5×,
    /// hit-enumeration 0.5× — reproduce the measured faster mode on all
    /// 20 rows of the `bench_snapshot` matrix: Indexed on every row
    /// (1.15–1.94× over Linear at the CI settings), because the chained
    /// field index rebuilds with one hash insert per valid row and no
    /// allocation. Larger build fractions send fault-free paper-bank
    /// frontier blocks to Linear: on those rows Auto measured 0.68–0.95×
    /// of Indexed at 2× and 0.77–1.01× at 1×. `scan_row_ns` is not a literal compare cost but absorbs
    /// the per-search work the word-parallel matcher cannot touch
    /// (hit-vector reset, stats, fault-RNG draws); a 1/16 scan discount
    /// flips paper dense and fault blocks to Linear and regressed Auto to
    /// 0.70–0.95× of the better fixed mode.
    pub fn calibrated(energy: &DeviceEnergyModel) -> Self {
        let unit = energy.cam_search_ns;
        SearchCostModel {
            scan_row_ns: 0.15 * unit,
            index_build_row_ns: 0.5 * unit,
            index_probe_ns: 5.0 * unit,
            index_hit_ns: 0.5 * unit,
        }
    }

    /// Expected physical searches against the block per visit: the
    /// profile's logical-search estimate times the
    /// [`physical_per_logical`](BlockShape::physical_per_logical)
    /// multiplier.
    pub fn expected_searches(&self, shape: &BlockShape) -> f64 {
        let d = shape.distinct_keys.max(1) as f64;
        let logical = match shape.profile {
            SearchProfile::OnePerKey => d,
            SearchProfile::Frontier => d.sqrt(),
        };
        logical * f64::from(shape.physical_per_logical.max(1))
    }

    /// Modeled host cost of serving one block visit with the linear scan.
    pub fn linear_ns(&self, shape: &BlockShape) -> Nanos {
        (self.expected_searches(shape) * shape.rows as f64) * self.scan_row_ns
    }

    /// Modeled host cost of serving one block visit through the index:
    /// one build over the valid entries, then per-search probe plus hit
    /// enumeration (average hits per probe = occupancy / distinct keys).
    pub fn indexed_ns(&self, shape: &BlockShape) -> Nanos {
        let d = shape.distinct_keys.max(1) as f64;
        let hits_per_probe = shape.occupancy as f64 / d;
        shape.occupancy as f64 * self.index_build_row_ns
            + self.expected_searches(shape)
                * (self.index_probe_ns + hits_per_probe * self.index_hit_ns)
    }

    /// Resolves a block to the cheaper concrete mode. Never returns
    /// [`SearchMode::Auto`].
    pub fn resolve(&self, shape: &BlockShape) -> SearchMode {
        if self.indexed_ns(shape) < self.linear_ns(shape) {
            SearchMode::Indexed
        } else {
            SearchMode::Linear
        }
    }
}

impl Default for SearchCostModel {
    fn default() -> Self {
        SearchCostModel::calibrated(&DeviceEnergyModel::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SearchCostModel {
        SearchCostModel::calibrated(&DeviceEnergyModel::paper())
    }

    /// A full paper-geometry block as the `bench_snapshot` workload shapes it:
    /// 128 rows, fully occupied, ~96 distinct values in the searched field.
    fn paper_block(profile: SearchProfile, voting: u32) -> BlockShape {
        BlockShape {
            rows: 128,
            occupancy: 128,
            distinct_keys: 96,
            physical_per_logical: voting,
            profile,
        }
    }

    #[test]
    fn paper_frontier_traversals_resolve_indexed() {
        // Fault-free BFS/CC/SSSP on Table I banks: the chained index made
        // Indexed 1.19-1.26x faster than Linear on these bench rows (it
        // was up to 1.66x slower while a rebuild allocated per value).
        let m = model();
        assert_eq!(
            m.resolve(&paper_block(SearchProfile::Frontier, 1)),
            SearchMode::Indexed
        );
    }

    #[test]
    fn paper_dense_sweeps_resolve_indexed() {
        // Paper-bank PageRank measured 1.04-1.14x faster under Indexed:
        // a dense sweep issues one search per distinct key, enough to
        // amortize the build even at 128 rows.
        let m = model();
        assert_eq!(
            m.resolve(&paper_block(SearchProfile::OnePerKey, 1)),
            SearchMode::Indexed
        );
    }

    #[test]
    fn cam_majority_voting_flips_frontier_blocks_to_indexed() {
        // A frontier block with few distinct sources sees too few
        // searches to amortize its build, until 3-way search voting
        // triples the physical searches per logical one.
        let m = model();
        let sparse = |voting| BlockShape {
            distinct_keys: 24,
            ..paper_block(SearchProfile::Frontier, voting)
        };
        assert_eq!(m.resolve(&sparse(1)), SearchMode::Linear);
        assert_eq!(m.resolve(&sparse(3)), SearchMode::Indexed);
    }

    #[test]
    fn deep_banks_resolve_indexed() {
        // The deep-bank PageRank rows (2.6-3.9x Indexed wins): at 2048
        // rows the O(rows) scan dwarfs everything else.
        let m = model();
        let deep = BlockShape {
            rows: 2048,
            occupancy: 2048,
            distinct_keys: 1200,
            physical_per_logical: 1,
            profile: SearchProfile::OnePerKey,
        };
        assert_eq!(m.resolve(&deep), SearchMode::Indexed);
    }

    #[test]
    fn degenerate_key_sets_resolve_linear_even_for_dense_sweeps() {
        // A block whose searched field holds 2 distinct values sees 2
        // searches per visit: no number of hits amortizes a 128-entry
        // build. (This is the shape the engine's mixed-bank resolver
        // regression test uses.)
        let m = model();
        let skewed = BlockShape {
            distinct_keys: 2,
            ..paper_block(SearchProfile::OnePerKey, 1)
        };
        assert_eq!(m.resolve(&skewed), SearchMode::Linear);
    }

    #[test]
    fn resolution_is_monotone_in_search_count() {
        // More expected searches can only make the index more attractive:
        // once a shape resolves Indexed, scaling distinct_keys up (dense
        // profile: queries scale with it faster than hit enumeration
        // shrinks) never flips it back.
        let m = model();
        let mut last_indexed = false;
        for d in [1usize, 2, 4, 8, 16, 32, 64, 128] {
            let shape = BlockShape {
                distinct_keys: d,
                ..paper_block(SearchProfile::OnePerKey, 1)
            };
            let indexed = m.resolve(&shape) == SearchMode::Indexed;
            assert!(indexed || !last_indexed, "resolution flipped back at d={d}");
            last_indexed = indexed;
        }
        assert!(last_indexed, "full-width dense block must resolve Indexed");
    }

    #[test]
    fn costs_scale_with_the_device_time_base() {
        // Calibration contract: constants are fractions of cam_search_ns,
        // so a 2x device model yields exactly 2x host estimates and the
        // same decisions.
        let paper = DeviceEnergyModel::paper();
        let slow = DeviceEnergyModel {
            cam_search_ns: 2.0 * paper.cam_search_ns,
            ..paper
        };
        let (a, b) = (
            SearchCostModel::calibrated(&paper),
            SearchCostModel::calibrated(&slow),
        );
        let shape = paper_block(SearchProfile::OnePerKey, 1);
        assert!((b.linear_ns(&shape) - 2.0 * a.linear_ns(&shape)).ns().abs() < 1e-9);
        assert!(
            (b.indexed_ns(&shape) - 2.0 * a.indexed_ns(&shape))
                .ns()
                .abs()
                < 1e-9
        );
        assert_eq!(a.resolve(&shape), b.resolve(&shape));
    }
}

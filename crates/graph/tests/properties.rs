//! Property-based tests of the graph substrate.

#![allow(clippy::unwrap_used)]
use proptest::prelude::*;

use gaasx_graph::generators::{self, RmatConfig};
use gaasx_graph::io;
use gaasx_graph::partition::GridPartition;
use gaasx_graph::{reorder, CooGraph, Csc, Csr, GraphError, VertexId};

fn arb_graph() -> impl Strategy<Value = CooGraph> {
    (2u32..80, 0usize..300, any::<u64>()).prop_map(|(n, m, seed)| {
        generators::rmat(&RmatConfig::new(n, m.max(1)).with_seed(seed)).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn binary_io_roundtrips(g in arb_graph()) {
        prop_assert_eq!(io::from_binary(&io::to_binary(&g)).unwrap(), g);
    }

    #[test]
    fn text_io_preserves_edges(g in arb_graph()) {
        let mut buf = Vec::new();
        io::write_edge_list(&mut buf, &g).unwrap();
        let back = io::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(back.num_edges(), g.num_edges());
        // Text reader infers the vertex count from max id; edges match.
        prop_assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn degree_sums_equal_edge_count(g in arb_graph()) {
        let out: u64 = g.out_degrees().iter().map(|&d| u64::from(d)).sum();
        let inn: u64 = g.in_degrees().iter().map(|&d| u64::from(d)).sum();
        prop_assert_eq!(out, g.num_edges() as u64);
        prop_assert_eq!(inn, g.num_edges() as u64);
    }

    #[test]
    fn csr_csc_agree_on_edge_multiset(g in arb_graph()) {
        let csr = Csr::from_coo(&g);
        let csc = Csc::from_coo(&g);
        let mut fwd: Vec<(u32, u32)> = Vec::new();
        let mut bwd: Vec<(u32, u32)> = Vec::new();
        for v in VertexId::all(g.num_vertices()) {
            for (u, _) in csr.neighbors(v) {
                fwd.push((v.raw(), u.raw()));
            }
            for (u, _) in csc.in_neighbors(v) {
                bwd.push((u.raw(), v.raw()));
            }
        }
        fwd.sort_unstable();
        bwd.sort_unstable();
        prop_assert_eq!(fwd, bwd);
    }

    #[test]
    fn partition_tiles_cover_all_edges(g in arb_graph(), interval in 1u32..40) {
        let grid = GridPartition::new(&g, interval).unwrap();
        prop_assert_eq!(grid.total_edges(), g.num_edges());
        prop_assert!(grid.num_nonempty_shards() <= g.num_edges().max(1));
    }

    #[test]
    fn symmetrize_is_idempotent(g in arb_graph()) {
        let s = g.symmetrized();
        prop_assert_eq!(s.symmetrized(), s.clone());
        // Symmetric graphs have equal in/out degrees.
        prop_assert_eq!(s.out_degrees(), s.in_degrees());
    }

    #[test]
    fn random_reorder_preserves_degree_multiset(g in arb_graph(), seed in any::<u64>()) {
        let r = reorder::random(&g, seed);
        let mut a = g.out_degrees();
        let mut b = r.out_degrees();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn dedup_never_grows(g in arb_graph()) {
        let d = g.deduplicated();
        prop_assert!(d.num_edges() <= g.num_edges());
        prop_assert_eq!(d.deduplicated().num_edges(), d.num_edges());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn binary_decoder_survives_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..120)) {
        // A graph or one of the decoder's typed errors; anything else, or
        // a panic, fails.
        let verdict = io::from_binary(&data);
        prop_assert!(
            matches!(
                verdict,
                Ok(_) | Err(GraphError::MalformedBinary(_) | GraphError::VertexOutOfRange { .. })
            ),
            "untyped rejection: {verdict:?}"
        );
    }

    /// A valid magic and version followed by any vertex count and any
    /// edge count up to `u64::MAX`: a count the bytes cannot hold is a
    /// truncation, not an allocation of that many edges; otherwise every
    /// declared record decodes or a vertex is out of range.
    #[test]
    fn binary_decoder_checks_declared_edge_counts(
        num_vertices in any::<u32>(),
        count in any::<u64>(),
        shift in 0u32..64,
        records in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        let declared = if shift == 0 { u64::MAX } else { count >> shift };
        let mut data = io::to_binary(&CooGraph::from_edges(0, Vec::new()).unwrap());
        data.truncate(8);
        data.extend_from_slice(&num_vertices.to_le_bytes());
        data.extend_from_slice(&declared.to_le_bytes());
        data.extend_from_slice(&records);
        let fits = declared <= (records.len() / 12) as u64;
        match io::from_binary(&data) {
            Ok(g) => {
                prop_assert!(fits);
                prop_assert_eq!(g.num_edges() as u64, declared);
                prop_assert_eq!(g.num_vertices(), num_vertices);
            }
            Err(GraphError::MalformedBinary(_)) => prop_assert!(!fits),
            Err(GraphError::VertexOutOfRange { num_vertices: n, .. }) => {
                prop_assert!(fits);
                prop_assert_eq!(n, num_vertices);
            }
            Err(e) => prop_assert!(false, "untyped rejection: {e:?}"),
        }
    }
}

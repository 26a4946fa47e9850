//! CAM search (§III-B): one billed physical search per vote, an
//! escalating majority vote against transient upsets, and hits reported
//! at logical block slots.

use gaasx_graph::VertexId;
use gaasx_sim::Phase;
use gaasx_xbar::HitVector;

use super::Engine;

/// A CAM majority vote searches on until every row's majority leads by
/// this many votes…
const VOTE_MARGIN: u32 = 3;
/// …or it has taken this many votes (odd, so no row ties).
const MAX_VOTES: u32 = 9;

impl Engine {
    /// CAM search for all edges of the loaded block with the given source
    /// (row-wise key field), into a caller-owned buffer so hot loops
    /// allocate nothing. `hits` is overwritten.
    pub fn search_src_into(&mut self, src: VertexId, hits: &mut HitVector) {
        self.searched_into(u128::from(src.raw()) << 32, 0xFFFF_FFFF_0000_0000, hits);
    }

    /// CAM search for all edges of the loaded block with the given
    /// destination, into a caller-owned buffer. `hits` is overwritten.
    pub fn search_dst_into(&mut self, dst: VertexId, hits: &mut HitVector) {
        self.searched_into(u128::from(dst.raw()), 0xFFFF_FFFF, hits);
    }

    /// Bills one physical CAM search (time, energy and the trace).
    #[inline]
    fn bill_search(&mut self) {
        let ns = self.config.energy.cam_search_ns;
        self.ledger
            .current
            .add_phase(Phase::CamSearch, ns, self.record_ops);
        self.trace_op(Phase::CamSearch, ns);
    }

    /// Issues a CAM search, optionally majority-voted against transient
    /// upsets, and translates physical hit rows back to logical slots.
    ///
    /// Every vote is billed as one physical search. A vote takes three
    /// rounds; while they disagree it searches on, two rounds at a time,
    /// until every row's majority leads by [`VOTE_MARGIN`] or
    /// [`MAX_VOTES`] were taken. Each round draws its own upset.
    fn searched_into(&mut self, key: u128, mask: u128, out: &mut HitVector) {
        self.bill_search();
        self.cam.search_into(key, mask, out);
        if self.fault_active && self.config.recovery.cam_double_check {
            // Two extra searches, each charged like the first.
            self.bill_search();
            self.bill_search();
            if self.cam.search_draws() {
                let (b, c) = (&mut self.scratch.vote_b, &mut self.scratch.vote_c);
                self.cam.search_round_into(key, mask, 1, b);
                self.cam.search_round_into(key, mask, 2, c);
                if out != b || out != c {
                    self.vote_on(key, mask, out);
                }
            } else {
                // Without upsets the re-searches are exact copies of the
                // first and the vote is unanimous: bill them, skip the work.
                self.cam.count_replayed_search();
                self.cam.count_replayed_search();
            }
            let checks = &mut self.ledger.faults.cam_double_checks;
            *checks = checks.saturating_add(1);
        }
        self.rows.translate_hits(&self.cam, out);
    }

    /// Settles a CAM vote whose first three rounds (`out`, `vote_b`,
    /// `vote_c`) disagree: searches two more rounds at a time until the
    /// tally settles or reaches [`MAX_VOTES`], then writes the per-row
    /// majority into `out`.
    #[cold]
    fn vote_on(&mut self, key: u128, mask: u128, out: &mut HitVector) {
        let mut tally = std::mem::take(&mut self.scratch.tally);
        tally.clear();
        for vote in [&*out, &self.scratch.vote_b, &self.scratch.vote_c] {
            tally.add(vote);
        }
        while tally.votes() < MAX_VOTES && !tally.settled(VOTE_MARGIN) {
            for _ in 0..2 {
                self.bill_search();
                let round = &mut self.scratch.vote_b;
                self.cam.search_round_into(key, mask, tally.votes(), round);
                tally.add(round);
            }
        }
        tally.majority_into(out);
        self.scratch.tally = tally;
    }
}

#[cfg(test)]
mod tests {
    use crate::algorithms::SearchProfile;
    use crate::config::RecoveryPolicy;
    use crate::engine::tests::*;
    use crate::engine::CellLayout;
    use gaasx_graph::{Edge, VertexId};
    use gaasx_sim::{Phase, RunReport};
    use gaasx_xbar::FaultModel;

    #[test]
    fn search_dst_matches_in_edges() {
        let mut e = engine();
        let b = fig7_block(&mut e);
        // Vertex 2 (1-based) = id 1 has in-edges from 1, 3, 4 (Fig 7).
        let hits = dst_hits(&mut e, 1);
        assert_eq!(hits.rows().len(), 3);
        for &row in hits.rows() {
            assert_eq!(b[row].dst, VertexId::new(1));
        }
    }

    #[test]
    fn search_src_matches_out_edges() {
        let mut e = engine();
        let b = fig7_block(&mut e);
        let hits = src_hits(&mut e, 4); // vertex 5, out-edges to 3 and 4
        assert_eq!(hits.rows().len(), 2);
        for &row in hits.rows() {
            assert_eq!(b[row].src, VertexId::new(4));
        }
    }

    /// Searches after remaps, with every search glitched by an upset,
    /// voted or not: each hit list ascends, holds only slots of the loaded
    /// block on valid rows, and differs from the true matches by at most
    /// one line: the toggled one, or once voted, a line two of the three
    /// votes toggled alike. Four sources share the block, so remapped
    /// slots sit among unmoved ones in one list.
    #[test]
    fn remapped_and_upset_searches_return_ascending_valid_slots() {
        for cam_double_check in [false, true] {
            let fault = FaultModel {
                cam_stuck_ber: 1e-3,
                mac_stuck_ber: 1e-3,
                cam_upset_rate: 1.0,
                seed: 7,
                ..FaultModel::none()
            };
            let recovery = RecoveryPolicy {
                cam_double_check,
                ..RecoveryPolicy::standard()
            };
            let mut e = faulty(fault, recovery);
            // 28 true hits per source on a 128-row bank.
            let edges: Vec<Edge> = (0..e.block_capacity() as u32)
                .map(|i| Edge::new(i % 4, 1000 + i, 3.0))
                .collect();
            let mut moved_among_others = false;
            // 32 searches over eight loads: a load keys the upsets anew.
            for _ in 0..8 {
                e.load_block(&edges, WEIGHT_AND_ONE).unwrap();
                let moved = (0..edges.len()).any(|s| e.rows.phys(s) != s);
                assert!(moved, "seed must exercise remapping");
                for src in 0..4 {
                    let hits = src_hits(&mut e, src);
                    let rows = hits.rows();
                    assert!(rows.windows(2).all(|w| w[0] < w[1]), "{rows:?}");
                    for &slot in rows {
                        assert!(slot < edges.len(), "slot {slot} past the block");
                        assert!(e.cam.read(e.rows.phys(slot)).unwrap().valid);
                    }
                    let wrong = (0..edges.len())
                        .filter(|&s| rows.contains(&s) != (edges[s].src.raw() == src))
                        .count();
                    // One upset per search; a vote keeps every hit.
                    let allowed = usize::from(!cam_double_check);
                    assert!(wrong <= allowed, "src {src}: {rows:?}");
                    moved_among_others |=
                        rows.len() > 1 && rows.iter().any(|&s| e.rows.phys(s) != s);
                }
            }
            assert!(moved_among_others, "a remapped slot must share a hit list");
        }
    }

    #[test]
    fn cam_double_check_masks_transient_upsets() {
        let fault = FaultModel {
            cam_upset_rate: 1.0, // every search glitches one row
            seed: 11,
            ..FaultModel::none()
        };
        let mut e = faulty(fault, RecoveryPolicy::standard());
        let b = fig7_block(&mut e);
        // Vertex 2 (1-based) has in-edges from rows storing dst=1; the
        // majority vote over three searches masks the per-search glitch.
        let hits = dst_hits(&mut e, 1);
        assert_eq!(hits.rows().len(), 3);
        for &row in hits.rows() {
            assert_eq!(b[row].dst, VertexId::new(1));
        }
        let r = e.finish("t", "t", "t", 1, 8);
        assert_eq!(r.faults.cam_double_checks, 1);
        // Every round glitches a row, so the first three disagree and the
        // vote searches on, two rounds at a time, up to nine.
        assert!(
            [5, 7, 9].contains(&r.ops.cam_searches),
            "{} physical searches",
            r.ops.cam_searches
        );
        assert_eq!(
            r.phase(Phase::CamSearch).unwrap().count,
            r.ops.cam_searches,
            "every round is billed"
        );
    }

    /// At an upset rate of 1.0 every search round toggles one match line.
    /// Over 20,000 voted searches on a 128-row bank, at most 10 voted hit
    /// lists may be wrong: a wrong list needs three unanimous upsets of
    /// one row (about 1/128² per search) or a majority of up to nine
    /// rounds on one row. A three-way vote that never compares its votes
    /// gets about one list in 40 wrong.
    #[test]
    fn escalating_votes_keep_upset_hit_lists_right() {
        let fault = FaultModel {
            cam_upset_rate: 1.0,
            seed: 29,
            ..FaultModel::none()
        };
        let mut e = faulty(fault, RecoveryPolicy::standard());
        let edges: Vec<Edge> = (0..e.block_capacity() as u32)
            .map(|i| Edge::new(i % 7, 1000 + i % 5, 3.0))
            .collect();
        let (mut searches, mut wrong) = (0, 0);
        while searches < 20_000 {
            e.load_block(&edges, WEIGHT_AND_ONE).unwrap();
            for v in 0..12u32 {
                let (hits, want): (_, Vec<usize>) = if v < 7 {
                    let want = (0..edges.len()).filter(|&s| edges[s].src.raw() == v);
                    (src_hits(&mut e, v), want.collect())
                } else {
                    let dst = 1000 + v - 7;
                    let want = (0..edges.len()).filter(|&s| edges[s].dst.raw() == dst);
                    (dst_hits(&mut e, dst), want.collect())
                };
                searches += 1;
                wrong += usize::from(hits.rows() != want);
            }
        }
        assert!(wrong <= 10, "{wrong} of {searches} voted hit lists wrong");
    }

    #[test]
    fn upset_free_votes_replay_but_bill_three_searches() {
        let fault = FaultModel {
            cam_stuck_ber: 2e-3,
            mac_stuck_ber: 2e-3,
            write_fail_rate: 0.2,
            seed: 17,
            ..FaultModel::none()
        };
        let mut e = faulty(fault, RecoveryPolicy::standard());
        let mut clean = engine();
        let b = fig7_block(&mut e);
        let _ = fig7_block(&mut clean);
        let mut logical = 0u64;
        for v in 0..5 {
            let dst = dst_hits(&mut e, v);
            assert_eq!(dst, dst_hits(&mut clean, v), "dst {v}");
            assert_eq!(dst, dst_hits(&mut e, v), "repeat dst {v}");
            let _ = dst_hits(&mut clean, v);
            let src = src_hits(&mut e, v);
            assert_eq!(src, src_hits(&mut clean, v), "src {v}");
            for &row in src.rows() {
                assert_eq!(b[row].src, VertexId::new(v));
            }
            logical += 3;
        }
        let r = e.finish("t", "t", "t", 1, 8);
        assert_eq!(r.ops.cam_searches, 3 * logical);
        assert_eq!(r.faults.cam_double_checks, logical);
        let cam_ns = |r: &RunReport| {
            r.phases
                .iter()
                .find(|p| p.phase == Phase::CamSearch)
                .map(|p| p.busy_ns)
        };
        let c = clean.finish("t", "t", "t", 1, 8);
        assert_eq!(c.ops.cam_searches, logical);
        assert!(cam_ns(&r) > cam_ns(&c), "re-searches bill device time");
    }

    #[test]
    fn search_profile_never_changes_a_report_across_reloads() {
        // The declared profile is the only difference between the two
        // engines: the hits and the report must not depend on it, across
        // a reload of the block.
        let block: Vec<Edge> = (0..128u32)
            .map(|i| Edge::new(i % 16, 1000 + i % 32, 1.0))
            .collect();
        let run = |profile: SearchProfile| {
            let mut e = engine();
            e.set_search_profile(profile);
            let mut hits = Vec::new();
            for _visit in 0..2 {
                e.load_block(&block, CellLayout::Preset).unwrap();
                for v in 0..32u32 {
                    hits.push(dst_hits(&mut e, 1000 + v));
                }
            }
            (hits, e.finish("t", "t", "t", 1, 8))
        };
        let (frontier_hits, frontier_report) = run(SearchProfile::Frontier);
        let (dense_hits, dense_report) = run(SearchProfile::OnePerKey);
        assert_eq!(frontier_hits, dense_hits);
        assert!(frontier_hits.iter().all(|h| h.rows().len() == 4));
        assert_eq!(frontier_report, dense_report);
    }
}

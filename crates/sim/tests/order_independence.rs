//! Order independence of the modeled accounting: billing the same per-op
//! costs and tenant records in any order gives identical per-tenant
//! bills, totals, phase busy sums and makespan attributions, and the
//! attribution's shares sum to the makespan exactly. Also the unit
//! newtypes' formatting and ordering.

#![allow(clippy::unwrap_used)]

use gaasx_sim::timeline::LOAD_LANE;
use gaasx_sim::{
    attribute_makespan, Nanojoules, Nanos, OpSummary, Phase, TenantLedger, Timeline,
    CONTROLLER_BANK,
};
use proptest::collection::vec;
use proptest::prelude::*;

const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

/// One billed operation: `(ns, nJ, tenant, phase, key_a, key_b)`. The
/// two keys give two independent random permutations of the stream.
type Op = (f64, f64, usize, usize, u64, u64);

/// Everything billed from one ordering of the stream.
#[derive(Debug, PartialEq)]
struct Bill {
    tenants: Vec<(Nanos, Nanojoules)>,
    total_ns: Nanos,
    total_nj: Nanojoules,
    busy: [Nanos; 7],
    shares: Vec<Nanos>,
}

fn bill(ops: &[Op], key: impl Fn(&Op) -> u64, makespan: Nanos) -> Bill {
    let mut order: Vec<&Op> = ops.iter().collect();
    order.sort_by_key(|op| key(op));
    let mut ledger = TenantLedger::new();
    let mut timeline = Timeline::new(makespan);
    for &&(ns, nj, tenant, phase, _, _) in &order {
        let ns = Nanos::from_ns(ns);
        let nj = Nanojoules::from_nj(nj);
        ledger.record_billed(TENANTS[tenant], ns, nj, &OpSummary::new());
        let phase = Phase::ALL[phase];
        timeline.push(CONTROLLER_BANK, LOAD_LANE, phase, Nanos::ZERO, ns, None);
    }
    let busy = timeline.phase_busy_ns();
    let tallies: Vec<(Phase, Nanos, u64)> = Phase::ALL
        .iter()
        .map(|&p| (p, busy[p.index()], 1))
        .collect();
    Bill {
        tenants: TENANTS
            .iter()
            .map(|t| {
                let u = ledger.usage(t).copied().unwrap_or_default();
                (u.billed_ns, u.energy_nj)
            })
            .collect(),
        total_ns: ledger.total_billed_ns(),
        total_nj: ledger.total_energy_nj(),
        busy,
        shares: attribute_makespan(makespan, &tallies)
            .iter()
            .map(|p| p.sched_ns)
            .collect(),
    }
}

fn shares_sum(makespan: Nanos, busy: &[(Phase, Nanos, u64)]) -> Nanos {
    attribute_makespan(makespan, busy)
        .iter()
        .map(|p| p.sched_ns)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn billing_is_identical_in_any_order(
        ops in vec((0.0f64..1000.0, 0.0f64..100.0, 0usize..3, 0usize..7, any::<u64>(), any::<u64>()), 2..200),
        makespan_ns in 1.0f64..1e9,
    ) {
        let makespan = Nanos::from_ns(makespan_ns);
        let a = bill(&ops, |op| op.4, makespan);
        let b = bill(&ops, |op| op.5, makespan);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.shares.iter().sum::<Nanos>(), makespan);
    }

    #[test]
    fn display_formats_the_f64_magnitude(fs in -1_000_000_000_000_000i64..1_000_000_000_000_000) {
        let t = Nanos::from_fs(fs);
        prop_assert_eq!(format!("{t:.6}"), format!("{:.6}", fs as f64 / 1e6));
        prop_assert_eq!(format!("{t}"), format!("{}", t.ns()));
        let e = Nanojoules::from_aj(i128::from(fs));
        prop_assert_eq!(format!("{e:.3}"), format!("{:.3}", e.nj()));
    }

    #[test]
    fn min_max_follow_the_tick_order(a in any::<i64>(), b in any::<i64>()) {
        let (x, y) = (Nanos::from_fs(a), Nanos::from_fs(b));
        prop_assert_eq!(x.max(y).fs(), a.max(b));
        prop_assert_eq!(x.min(y).fs(), a.min(b));
        prop_assert_eq!(x < y, a < b);
    }
}

/// Makespans that defeated a float share-pinning search: odd tick counts
/// split over equal busy times (every exact share a tie), a makespan at
/// the top of the range, and tiny busy times beside huge ones.
#[test]
fn adversarial_makespans_split_exactly() {
    let fs = Nanos::from_fs;
    let two = |busy| [(Phase::CamSearch, busy, 1), (Phase::MacGather, busy, 1)];
    for m in [1, 3, 101, 1_000_001, i64::MAX] {
        let shares: Vec<Nanos> = attribute_makespan(fs(m), &two(fs(7)))
            .iter()
            .map(|p| p.sched_ns)
            .collect();
        assert_eq!(shares, [fs(m / 2 + 1), fs(m / 2)], "makespan {m} fs");
    }
    let ns = Nanos::from_ns;
    let skewed = [
        (Phase::LoadBlock, ns(300.0), 10),
        (Phase::CamSearch, ns(0.1), 3),
        (Phase::MacGather, ns(7000.0), 99),
        (Phase::Sfu, ns(0.062_5), 4),
    ];
    for m in [1234.567, 1e11, 0.000_003, 999_999_999.999_999] {
        assert_eq!(shares_sum(ns(m), &skewed), ns(m), "makespan {m} ns");
    }
    assert_eq!(shares_sum(Nanos::MAX, &skewed), Nanos::MAX);
}

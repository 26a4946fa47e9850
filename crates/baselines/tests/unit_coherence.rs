//! Unit-coherence regression tests over the baseline cost models.
//!
//! Every baseline converts between wall-clock (`Nanos`) and energy
//! (`Nanojoules`) through exactly one dimensional door — power × time —
//! and rescales the two lanes with *independent* dimensionless ratios.
//! These tests pin that separation: a regression that leaks one unit
//! into the other's lane (the class of bug `gaasx-lint`'s `mixed-units`
//! pass exists to catch statically) breaks a linearity identity here at
//! runtime, even if the magnitudes still look plausible.

#![allow(clippy::unwrap_used)]

use gaasx_baselines::cpu::HostPowerModel;
use gaasx_baselines::gpu::GpuModel;
use gaasx_baselines::gram::GramModel;
use gaasx_graph::generators;
use gaasx_sim::{Nanojoules, Nanos, RunReport};

fn graphr_report(elapsed_ns: f64, mac_nj: f64) -> RunReport {
    let mut r = RunReport::new("graphr", "pagerank", "AZ");
    r.elapsed_ns = Nanos::from_ns(elapsed_ns);
    r.energy.mac_nj = Nanojoules::from_nj(mac_nj);
    r.iterations = 10;
    r.num_edges = 1000;
    r
}

/// The host model's single time→energy door is `W × ns = nJ`, exactly.
#[test]
fn host_power_energy_is_power_times_time() {
    let host = HostPowerModel::xeon_bronze();
    let elapsed = Nanos::from_ns(3.25e9);
    let r = host.report("gapbs", "pagerank", elapsed, 10, 1_000);
    assert_eq!(
        r.energy.total_nj().nj(),
        host.dynamic_power_w * elapsed.ns()
    );
    // Doubling time exactly doubles energy — no constant term leaks in.
    let r2 = host.report("gapbs", "pagerank", elapsed * 2, 10, 1_000);
    assert_eq!(r2.energy.total_nj().nj(), 2.0 * r.energy.total_nj().nj());
}

/// The GPU model honours the same door across its analytic runtime.
#[test]
fn gpu_energy_tracks_elapsed_linearly() {
    let gpu = GpuModel::titan_v();
    let g = generators::paper_fig7_graph();
    let r5 = gpu.pagerank(&g, 5);
    let r10 = gpu.pagerank(&g, 10);
    // Energy/time ratio is the (constant) dynamic power in both runs:
    // any unit mixed into either lane would skew one ratio.
    let p5 = r5.energy.total_nj().nj() / r5.elapsed_ns.ns();
    let p10 = r10.energy.total_nj().nj() / r10.elapsed_ns.ns();
    assert!((p5 - gpu.dynamic_power_w).abs() < 1e-9, "{p5}");
    assert!((p10 - gpu.dynamic_power_w).abs() < 1e-9, "{p10}");
}

/// GRAM's published perf and energy ratios rescale their own lanes and
/// never cross: elapsed × perf and energy × energy-ratio both recover
/// the GraphR report.
#[test]
fn gram_rescales_time_and_energy_lanes_independently() {
    let model = GramModel::for_algorithm("pagerank").unwrap();
    let graphr = graphr_report(2.8e6, 4.0e6);
    let gram = model.report_from_graphr(&graphr);
    assert!(
        (gram.elapsed_ns.ns() * model.perf_vs_graphr / graphr.elapsed_ns.ns() - 1.0).abs() < 1e-12
    );
    assert!(
        (gram.energy.total_nj().nj() * model.energy_vs_graphr / graphr.energy.total_nj().nj()
            - 1.0)
            .abs()
            < 1e-12
    );
}

/// Scaling only the *time* lane of the input leaves GRAM's energy lane
/// bit-identical — the regression a time/energy mix-up would break.
#[test]
fn gram_time_lane_does_not_leak_into_energy() {
    let model = GramModel::for_algorithm("bfs").unwrap();
    let base = model.report_from_graphr(&graphr_report(1.0e6, 5.0e6));
    let slow = model.report_from_graphr(&graphr_report(7.0e6, 5.0e6));
    assert_eq!(
        base.energy.total_nj().nj().to_bits(),
        slow.energy.total_nj().nj().to_bits()
    );
    // Each scaled time rounds once to the femtosecond tick, so seven
    // times the base lands within 0.5 + 7 × 0.5 ticks of the slow run.
    assert!((slow.elapsed_ns.fs() - 7 * base.elapsed_ns.fs()).abs() <= 4);
    // And symmetrically: scaling only energy leaves time untouched.
    let hot = model.report_from_graphr(&graphr_report(1.0e6, 15.0e6));
    assert_eq!(
        base.elapsed_ns.ns().to_bits(),
        hot.elapsed_ns.ns().to_bits()
    );
    assert!((hot.energy.total_nj() / base.energy.total_nj() - 3.0).abs() < 1e-12);
}

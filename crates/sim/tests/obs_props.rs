//! Property tests for the tracing layer: the `AggregateSink` rollup must
//! be a pure function of the emitted span set, independent of how spans
//! nest, and the makespan attribution must sum to the makespan exactly.

#![allow(clippy::unwrap_used)]
use std::sync::Arc;

use gaasx_sim::{attribute_makespan, AggregateSink, Nanos, Phase, Tracer};
use proptest::collection::vec;
use proptest::prelude::*;

/// Replays `spans` through a fresh tracer. `nested[i]` selects whether
/// span `i` opens as a child on the open stack (closed at the end, LIFO)
/// or is emitted as a closed leaf immediately.
fn replay(spans: &[(usize, f64)], nested: &[bool]) -> Vec<(Phase, f64, u64)> {
    let sink = Arc::new(AggregateSink::new());
    let tracer = Tracer::with_sink(sink.clone());
    let mut cursor = 0.0;
    let mut open = Vec::new();
    for (&(phase_idx, dur), &nest) in spans.iter().zip(nested) {
        let phase = Phase::ALL[phase_idx % Phase::ALL.len()];
        if nest {
            open.push((tracer.span(phase, cursor), cursor + dur));
        } else {
            tracer.emit(phase, cursor, dur);
        }
        cursor += dur;
    }
    while let Some((handle, end)) = open.pop() {
        handle.end(end);
    }
    sink.phase_rollup()
        .into_iter()
        .map(|p| (p.phase, p.busy_ns.ns(), p.count))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aggregate_totals_equal_span_sums_regardless_of_nesting(
        spans in vec((0usize..7, 0.0f64..1000.0), 1..40),
        nest_bits in vec(0u8..2, 40),
    ) {
        let nested: Vec<bool> = nest_bits.iter().map(|&b| b == 1).collect();
        let rollup = replay(&spans, &nested);

        // Expected: straight per-phase sums over the input, no nesting
        // involved at all.
        let mut busy = [0.0f64; 7];
        let mut counts = [0u64; 7];
        for &(phase_idx, dur) in &spans {
            busy[phase_idx % 7] += dur;
            counts[phase_idx % 7] += 1;
        }

        for &(phase, got_busy, got_count) in &rollup {
            let i = phase.index();
            prop_assert!(
                (got_busy - busy[i]).abs() <= 1e-6 * busy[i].max(1.0),
                "{phase:?}: sink busy {got_busy} vs span sum {}", busy[i]
            );
            prop_assert_eq!(got_count, counts[i]);
        }
        // Every phase that saw a span appears in the rollup.
        let reported: u64 = rollup.iter().map(|&(_, _, c)| c).sum();
        prop_assert_eq!(reported, spans.len() as u64);

        // And the all-leaf replay agrees with the nested one (up to
        // floating-point summation order).
        let flat = replay(&spans, &vec![false; spans.len()]);
        prop_assert_eq!(rollup.len(), flat.len());
        for (&(p_a, busy_a, count_a), &(p_b, busy_b, count_b)) in rollup.iter().zip(&flat) {
            prop_assert_eq!(p_a, p_b);
            prop_assert_eq!(count_a, count_b);
            prop_assert!((busy_a - busy_b).abs() <= 1e-6 * busy_a.max(1.0));
        }
    }

    #[test]
    fn attribution_sums_to_the_makespan_exactly(
        magnitude in 2.0f64..11.0,
        load in 0.05f64..1.05,
        weights in vec(0.0f64..1.0, 1..7),
    ) {
        // A makespan of 1e2..1e11 ns at 5-105% of the total busy time,
        // split over up to six phases.
        let makespan = Nanos::from_ns(10f64.powf(magnitude));
        let busy_total = makespan.ns() / load;
        let weight_total: f64 = weights.iter().sum();
        let tallies: Vec<(Phase, Nanos, u64)> = weights
            .iter()
            .zip(Phase::ALL)
            .map(|(&w, phase)| (phase, Nanos::from_ns(busy_total * w / weight_total), 1))
            .collect();
        let phases = attribute_makespan(makespan, &tallies);
        prop_assert_eq!(phases.len(), tallies.len());
        let total: Nanos = phases.iter().map(|p| p.sched_ns).sum();
        prop_assert_eq!(total, makespan, "tallies {:?}", tallies);
    }
}

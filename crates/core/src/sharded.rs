//! Parallel sharded execution: one block stream, many worker engines.
//!
//! The grid partition's shard stream is embarrassingly parallel on the
//! *functional* side — each shard's blocks load into their own bank pair
//! and never touch another shard's device state — while the *timing* side
//! (wave scheduling, static energy, phase attribution) is a global fold
//! over the block-cost stream in canonical order. [`ShardedEngine`]
//! exploits exactly that split:
//!
//! * shards are dealt round-robin to `jobs` worker [`Engine`]s; worker 0
//!   runs its share on the calling thread and workers `1..jobs` each on a
//!   scoped OS thread (no `'static` bounds needed), so a single-worker
//!   pass spawns no thread at all;
//! * every worker keeps its shards' committed `BlockCost`s in its own
//!   reused cost vector, marking where each shard's costs end, and after the
//!   pass the merge drains them into the full-bank *primary* engine in
//!   canonical shard-stream order;
//! * worker device stats, SFU counters, buffer traffic, and histograms
//!   are absorbed into the primary, whose single `finish` then computes
//!   the makespan and energy exactly as a serial run would.
//!
//! The merged [`gaasx_sim::RunReport`] is bit-identical to the serial
//! one: the block-cost sequence — the only input to the scheduler, whose
//! wave placement walks blocks in order — is reassembled in the same
//! order, and every counter and modeled time or energy is an integer sum,
//! exact in any order. Device randomness does not depend on the engine
//! either: stuck-cell maps are positional, and every transient fault
//! (write failures, search upsets, ADC flips) and every noise sample is
//! a draw keyed by the runner's pass ordinal, the shard's stream position
//! and the chunk's index in the shard (see [`Engine::load_block`]), never
//! by which worker ran the shard or what it ran before. Two things remain
//! per engine and can still split a faulty sharded run from the serial
//! one: the spare-row pool a stuck row remaps onto, and the endurance
//! wear map.
//!
//! Algorithms opt in through [`ShardRunner`]: they express each superstep
//! as a *pure-per-shard* pass (snapshot state in, candidate updates out)
//! followed by a sequential reduce on the primary engine. [`Engine`]
//! itself implements the trait by running shards inline, so the serial
//! and sharded paths share one algorithm body.

use std::sync::Arc;

use gaasx_graph::partition::{GridPartition, Shard, TraversalOrder};
use gaasx_sim::{MemorySink, Nanos, RunReport, Tracer};

use crate::algorithms::SearchProfile;
use crate::config::GaasXConfig;
use crate::engine::{Engine, WearSnapshot};
use crate::error::CoreError;

/// Executes the per-shard passes of a shardable algorithm.
///
/// Not object-safe (the shard callback is generic); algorithms take
/// `&mut R where R: ShardRunner` instead of a trait object.
pub trait ShardRunner {
    /// The engine that owns the merged schedule and runs the sequential
    /// reduce / apply phases between shard passes.
    fn engine(&mut self) -> &mut Engine;

    /// Presets every MAC weight cell on *all* engines (primary and
    /// workers) to `code`, billing one post-preset audit — see
    /// [`Engine::preset_mac`].
    ///
    /// # Errors
    ///
    /// Returns a device error if `code` exceeds the cell range.
    fn preset_mac(&mut self, code: u32) -> Result<(), CoreError>;

    /// Runs `f` once per non-empty shard of `grid` in the given streaming
    /// order and returns the per-shard results in canonical stream order.
    ///
    /// `f` must be pure with respect to shared algorithm state: it may
    /// read captured snapshots but must report updates through its return
    /// value — shards may execute concurrently on different engines.
    ///
    /// # Errors
    ///
    /// Propagates the first shard failure (by canonical order within the
    /// lowest-indexed failing worker).
    fn for_each_shard<T, F>(
        &mut self,
        grid: &GridPartition,
        order: TraversalOrder,
        f: F,
    ) -> Result<Vec<T>, CoreError>
    where
        T: Send,
        F: Fn(&mut Engine, &Shard) -> Result<T, CoreError> + Sync;
}

impl ShardRunner for Engine {
    fn engine(&mut self) -> &mut Engine {
        self
    }

    fn preset_mac(&mut self, code: u32) -> Result<(), CoreError> {
        Engine::preset_mac(self, code)
    }

    fn for_each_shard<T, F>(
        &mut self,
        grid: &GridPartition,
        order: TraversalOrder,
        f: F,
    ) -> Result<Vec<T>, CoreError>
    where
        T: Send,
        F: Fn(&mut Engine, &Shard) -> Result<T, CoreError> + Sync,
    {
        let mut results = Vec::with_capacity(grid.num_nonempty_shards());
        let pass = self.next_pass();
        for (pos, shard) in grid.stream(order).enumerate() {
            self.begin_shard(pass, pos);
            let r = f(self, shard);
            self.end_shard();
            let r = r?;
            // Close the shard's trailing block so the serial cost stream
            // has the same block boundaries the sharded merge reassembles.
            self.end_block();
            results.push(r);
        }
        Ok(results)
    }
}

/// A primary engine plus `jobs` worker engines executing the shard stream
/// in parallel (see the module docs for the merge model).
#[derive(Debug)]
pub struct ShardedEngine {
    primary: Engine,
    workers: Vec<Engine>,
    /// One span buffer per worker, present only while the primary tracer
    /// observes spans; drained (in worker order) into the primary's sinks
    /// at finish.
    sinks: Vec<Option<Arc<MemorySink>>>,
}

impl ShardedEngine {
    /// Builds a sharded engine: a primary with the full bank count and
    /// `jobs` workers with `num_banks / jobs` banks each (at least one).
    /// `jobs == 0` is clamped to 1.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn new(config: GaasXConfig, jobs: usize) -> Result<Self, CoreError> {
        let jobs = jobs.max(1);
        let primary = Engine::new(config.clone())?;
        let worker_config = GaasXConfig {
            num_banks: (config.num_banks / jobs).max(1),
            ..config
        };
        let workers = (0..jobs)
            .map(|_| Engine::new(worker_config.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedEngine {
            primary,
            workers,
            sinks: vec![None; jobs],
        })
    }

    /// Number of worker engines the shard stream fans out over (worker 0
    /// runs on the calling thread, each other worker on its own thread).
    pub fn jobs(&self) -> usize {
        self.workers.len()
    }

    /// Attaches a tracer to the primary engine. When it observes spans,
    /// each worker records its spans into a private [`MemorySink`] whose
    /// events are replayed through the primary tracer at [`finish`]
    /// (worker order, so the merged stream is deterministic).
    ///
    /// [`finish`]: ShardedEngine::finish
    pub fn set_tracer(&mut self, tracer: Tracer) {
        let record_spans = tracer.observes_spans();
        let record_intervals = tracer.observes_intervals();
        self.primary.set_tracer(tracer);
        for (worker, slot) in self.workers.iter_mut().zip(self.sinks.iter_mut()) {
            if record_spans {
                let sink = Arc::new(MemorySink::new());
                worker.set_tracer(Tracer::with_sink(sink.clone()));
                *slot = Some(sink);
            } else {
                worker.set_tracer(Tracer::null());
                *slot = None;
            }
            // After set_tracer: the worker's own tracer never observes
            // intervals, but its block costs must still carry the per-op
            // ledger the primary's timeline is built from.
            worker.set_record_ops(record_intervals);
        }
    }

    /// Accepts an algorithm's declared [`SearchProfile`] and ignores it,
    /// like [`Engine::set_search_profile`]. Nothing in the library calls
    /// this; it stays for callers that still declare a profile.
    pub fn set_search_profile(&mut self, _profile: SearchProfile) {}

    /// Sets (or clears) the per-query modeled-time budget on the primary
    /// and every worker engine (see [`Engine::set_deadline`]).
    ///
    /// Each engine checks its *own* functional cursor at block
    /// boundaries. With `jobs > 1` the shard stream is split across
    /// workers, so per-engine serial time grows `jobs`× slower than the
    /// total work performed — the budget is conservative under
    /// parallelism (a sharded run cancels no earlier than a serial run of
    /// the same budget would).
    pub fn set_deadline(&mut self, deadline: Option<Nanos>) {
        self.primary.set_deadline(deadline);
        for worker in &mut self.workers {
            worker.set_deadline(deadline);
        }
    }

    /// Clears per-run accounting on the primary and every worker so a
    /// resident sharded engine can serve its next query with a clean
    /// report (see [`Engine::reset_accounting`] — device state and wear
    /// survive).
    ///
    /// Worker tracers are re-attached from the primary's tracer: `finish`
    /// folds worker metric registries into the primary *without* clearing
    /// them, so keeping the old worker tracers across queries would
    /// re-merge (double-count) the first query's metrics at the next
    /// finish. Re-attaching gives each worker a fresh registry and span
    /// buffer while the primary's registry keeps aggregating.
    pub fn reset_accounting(&mut self) {
        self.primary.reset_accounting();
        for worker in &mut self.workers {
            worker.reset_accounting();
        }
        let tracer = self.primary.tracer().clone();
        self.set_tracer(tracer);
    }

    /// Keys the transient fault draws of the runs that follow as attempt
    /// `attempt` at their query, on the primary and every worker (see
    /// [`Engine::set_attempt`]).
    pub fn set_attempt(&mut self, attempt: u32) {
        self.primary.set_attempt(attempt);
        for worker in &mut self.workers {
            worker.set_attempt(attempt);
        }
    }

    /// Captures the endurance wear of every engine (primary first, then
    /// workers in order), for carry-over into a replacement
    /// `ShardedEngine` on the same modeled banks.
    pub fn wear_snapshots(&self) -> Vec<WearSnapshot> {
        std::iter::once(&self.primary)
            .chain(self.workers.iter())
            .map(Engine::wear_snapshot)
            .collect()
    }

    /// Restores wear snapshots captured by
    /// [`wear_snapshots`](ShardedEngine::wear_snapshots) (primary first).
    /// Extra or missing entries are ignored, as are geometry mismatches.
    pub fn restore_wear(&mut self, snapshots: &[WearSnapshot]) {
        for (engine, snapshot) in std::iter::once(&mut self.primary)
            .chain(self.workers.iter_mut())
            .zip(snapshots.iter())
        {
            engine.restore_wear(snapshot);
        }
    }

    /// Merges every worker into the primary and assembles the final
    /// report — see [`Engine::finish`].
    pub fn finish(
        &mut self,
        engine: &str,
        algorithm: &str,
        workload: &str,
        iterations: u32,
        num_edges: u64,
    ) -> RunReport {
        self.primary.end_block();
        for worker in &mut self.workers {
            // Normally a no-op — shard costs drain in stream order during
            // `for_each_shard` — but after a run aborted by a device fault
            // this salvages costs stranded on the failing worker, so the
            // partial report still accounts for the work done.
            self.primary.append_costs(worker.drain_costs());
        }
        for worker in &self.workers {
            self.primary.absorb_functional(worker);
        }
        // Fold worker-tracer metrics into the primary registry so nothing
        // recorded on a worker (counters, histograms) is lost at merge.
        if let Some(primary_metrics) = self.primary.tracer().metrics() {
            for worker in &self.workers {
                if let Some(worker_metrics) = worker.tracer().metrics() {
                    primary_metrics.merge_from(worker_metrics);
                }
            }
        }
        for sink in self.sinks.iter().flatten() {
            for event in sink.take_events() {
                self.primary.tracer().replay_span(&event);
            }
        }
        self.primary
            .finish(engine, algorithm, workload, iterations, num_edges)
    }
}

impl ShardRunner for ShardedEngine {
    fn engine(&mut self) -> &mut Engine {
        &mut self.primary
    }

    fn preset_mac(&mut self, code: u32) -> Result<(), CoreError> {
        // Every engine presets its bank, but the audit is billed once, on
        // the primary, as a serial engine bills it.
        self.primary.preset_mac(code)?;
        for worker in &mut self.workers {
            worker.preset_mac_billed(code, false)?;
        }
        Ok(())
    }

    fn for_each_shard<T, F>(
        &mut self,
        grid: &GridPartition,
        order: TraversalOrder,
        f: F,
    ) -> Result<Vec<T>, CoreError>
    where
        T: Send,
        F: Fn(&mut Engine, &Shard) -> Result<T, CoreError> + Sync,
    {
        let total = grid.num_nonempty_shards();
        let jobs = self.workers.len();
        let pass = self.primary.next_pass();
        let f = &f;

        // Worker `j` takes shards j, j+J, j+2J, ... — round-robin keeps
        // the assignment independent of worker speed, so reassembly needs
        // no bookkeeping beyond the shard's stream position. A worker keeps
        // every shard's block costs in its own cost vector and yields, per
        // shard, where its costs end; the merge below drains them in
        // stream order, so a pass allocates per worker, not per shard.
        type ShardYield<T> = Vec<(usize, T)>;
        let run_share = |j: usize, worker: &mut Engine| {
            let mut yielded: ShardYield<T> =
                Vec::with_capacity(total.saturating_sub(j).div_ceil(jobs));
            for (pos, shard) in grid.stream(order).enumerate().skip(j).step_by(jobs) {
                worker.begin_shard(pass, pos);
                let shard_result = f(worker, shard);
                worker.end_shard();
                match shard_result {
                    Ok(result) => yielded.push((worker.committed_costs(), result)),
                    Err(e) => return (yielded, Some(e)),
                }
            }
            (yielded, None)
        };
        let run_share = &run_share;
        // Worker 0 runs its share on the calling thread; only workers
        // 1..J get a scoped thread, so a single-worker pass spawns none.
        let mut workers = self.workers.iter_mut();
        let first = workers.next();
        let per_worker: Vec<(ShardYield<T>, Option<CoreError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .enumerate()
                .map(|(j, worker)| scope.spawn(move || run_share(j + 1, worker)))
                .collect();
            let mut outcomes: Vec<_> = first
                .map(|worker| run_share(0, worker))
                .into_iter()
                .collect();
            outcomes.extend(
                handles
                    .into_iter()
                    // gaasx-lint: allow(panic-in-lib) -- a panicked worker has already torn down the run; re-raising on join is the only sound option
                    .map(|h| h.join().expect("shard worker panicked")),
            );
            outcomes
        });

        // Re-append every committed cost in stream order: the completed
        // shards of every worker and, after a failure, the failing shard's
        // partial costs (its open block closed here), so `finish` prices
        // an aborted run's real work.
        // Keep the error of the lowest-indexed failing worker (workers run
        // their shard subsets independently, so this choice is
        // deterministic).
        let mut aborted: Option<CoreError> = None;
        let mut shares = Vec::with_capacity(jobs);
        for ((yielded, error), worker) in per_worker.into_iter().zip(&mut self.workers) {
            let partial = error.is_some().then(|| worker.committed_costs());
            if aborted.is_none() {
                aborted = error;
            }
            shares.push((yielded.into_iter(), partial, 0, worker.drain_costs()));
        }
        let mut results = Vec::with_capacity(total);
        for pos in 0..total {
            let (yielded, partial, start, costs) = &mut shares[pos % jobs];
            let end = match yielded.next() {
                Some((end, result)) => {
                    results.push(result);
                    end
                }
                None => match partial.take() {
                    Some(end) => end,
                    None => continue,
                },
            };
            self.primary.append_costs(costs.by_ref().take(end - *start));
            *start = end;
        }
        match aborted {
            Some(e) => Err(e),
            None => Ok(results),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaasx_graph::{generators, Edge};
    use gaasx_sim::AggregateSink;

    use crate::engine::{CellLayout, Keys};

    fn grid(edges: usize, seed: u64) -> (gaasx_graph::CooGraph, GridPartition) {
        let g =
            generators::rmat(&generators::RmatConfig::new(1 << 7, edges).with_seed(seed)).unwrap();
        let grid = crate::engine::partition_for_streaming(&g).unwrap();
        (g, grid)
    }

    /// One gather pass over every shard, counting hits per shard.
    fn gather_pass<R: ShardRunner>(runner: &mut R, grid: &GridPartition) -> Vec<u64> {
        runner
            .for_each_shard(grid, TraversalOrder::ColumnMajor, |engine, shard| {
                let mut total = 0u64;
                let mut hits = gaasx_xbar::HitVector::new(0);
                let cells = |edges: &[Edge], c: &mut Vec<u32>| {
                    for e in edges {
                        c.extend_from_slice(&[e.weight as u32, 1]);
                    }
                };
                engine.sweep(
                    shard.edges(),
                    CellLayout::PerEdge {
                        width: 2,
                        fill: &cells,
                    },
                    Keys::Dsts,
                    |_| true,
                    |engine, block| {
                        for dst in block.dsts() {
                            engine.search_dst_into(dst, &mut hits);
                            total += engine.gather_rows(&hits, |_| 1, 0)?;
                        }
                        Ok(())
                    },
                )?;
                Ok(total)
            })
            .unwrap()
    }

    #[test]
    fn sharded_report_is_bit_identical_to_serial() {
        let (_, grid) = grid(1500, 7);
        let mut serial = Engine::new(GaasXConfig::small()).unwrap();
        let want_totals = gather_pass(&mut serial, &grid);
        let want = serial.finish("t", "t", "t", 1, 1500);

        for jobs in [1, 2, 4] {
            let mut sharded = ShardedEngine::new(GaasXConfig::small(), jobs).unwrap();
            let got_totals = gather_pass(&mut sharded, &grid);
            let got = sharded.finish("t", "t", "t", 1, 1500);
            assert_eq!(got_totals, want_totals, "jobs={jobs}");
            assert_eq!(got.ops, want.ops, "jobs={jobs}");
            assert_eq!(got.elapsed_ns, want.elapsed_ns, "jobs={jobs}");
            assert_eq!(got.energy.total_nj(), want.energy.total_nj(), "jobs={jobs}");
            assert_eq!(got.rows_per_mac, want.rows_per_mac, "jobs={jobs}");
            for (a, b) in got.phases.iter().zip(want.phases.iter()) {
                assert_eq!(a.phase, b.phase);
                assert_eq!(a.sched_ns, b.sched_ns, "jobs={jobs} phase {:?}", a.phase);
                assert_eq!(a.count, b.count);
            }
        }
    }

    #[test]
    fn sharded_merge_conserves_the_phase_makespan() {
        let (_, grid) = grid(1200, 11);
        for jobs in [1, 3] {
            let mut sharded = ShardedEngine::new(GaasXConfig::small(), jobs).unwrap();
            gather_pass(&mut sharded, &grid);
            let report = sharded.finish("t", "t", "t", 1, 1200);
            assert!(!report.phases.is_empty(), "jobs={jobs}");
            // The choke-point `debug_assert!` in `Engine::finish` enforces
            // this for every run; pin it here for release builds too.
            assert_eq!(
                report.phases_total_sched_ns(),
                report.elapsed_ns,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn more_jobs_than_shards_still_covers_every_shard() {
        let (_, g) = grid(300, 3);
        let shards = g.num_nonempty_shards();
        let mut sharded = ShardedEngine::new(GaasXConfig::small(), shards + 5).unwrap();
        let totals = gather_pass(&mut sharded, &g);
        assert_eq!(totals.len(), shards);
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        let sharded = ShardedEngine::new(GaasXConfig::small(), 0).unwrap();
        assert_eq!(sharded.jobs(), 1);
    }

    #[test]
    fn worker_errors_surface() {
        let (_, g) = grid(400, 9);
        let mut sharded = ShardedEngine::new(GaasXConfig::small(), 2).unwrap();
        let r = sharded.for_each_shard(&g, TraversalOrder::RowMajor, |engine, shard| {
            // Force a block-capacity failure on a real shard.
            let too_big = vec![Edge::unweighted(0, 1); engine.block_capacity() + 1];
            let _ = shard;
            engine.load_block(&too_big, CellLayout::Preset).map(|_| ())
        });
        assert!(matches!(r, Err(CoreError::InvalidInput(_))));
    }

    #[test]
    fn aborted_runs_salvage_completed_shard_costs() {
        // A failure partway through the stream must not strand the costs
        // of already-completed shards: the partial report bills them.
        let (_, g) = grid(900, 13);
        for jobs in [1, 2] {
            let mut sharded = ShardedEngine::new(GaasXConfig::small(), jobs).unwrap();
            let seen = std::sync::atomic::AtomicUsize::new(0);
            let r = sharded.for_each_shard(&g, TraversalOrder::RowMajor, |engine, shard| {
                if seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst) >= jobs {
                    return Err(CoreError::InvalidInput("synthetic abort".into()));
                }
                engine.sweep(
                    shard.edges(),
                    CellLayout::Preset,
                    Keys::Srcs,
                    |_| true,
                    |_, _| Ok(()),
                )
            });
            assert!(r.is_err(), "jobs={jobs}");
            let partial = sharded.finish("t", "t", "t", 0, 900);
            assert!(
                partial.elapsed_ns > Nanos::ZERO,
                "jobs={jobs}: completed-shard costs were dropped"
            );
            assert!(partial.ops.cells_written > 0, "jobs={jobs}");
        }
    }

    #[test]
    fn worker_zero_runs_on_the_calling_thread() {
        let (_, g) = grid(600, 19);
        let caller = std::thread::current().id();
        for jobs in [1, 2, 3] {
            let mut sharded = ShardedEngine::new(GaasXConfig::small(), jobs).unwrap();
            // Results come back in stream order, so entry `pos` names the
            // thread that ran stream position `pos`.
            let ran_on = sharded
                .for_each_shard(&g, TraversalOrder::RowMajor, |_, _| {
                    Ok(std::thread::current().id())
                })
                .unwrap();
            assert!(ran_on.len() > jobs, "jobs={jobs}");
            for (pos, thread) in ran_on.iter().enumerate() {
                assert_eq!(*thread == caller, pos % jobs == 0, "jobs={jobs} pos={pos}");
            }
        }
    }

    #[test]
    fn shard_panics_unwind_to_a_catch_around_the_pass() {
        let (_, g) = grid(600, 23);
        let stream: Vec<&Shard> = g.stream(TraversalOrder::RowMajor).collect();
        // Positions 0 run on the calling thread; (2, 1) and (3, 2) panic on
        // a spawned worker.
        for (jobs, panic_at) in [(1, 0), (2, 0), (2, 1), (3, 2)] {
            let mut sharded = ShardedEngine::new(GaasXConfig::small(), jobs).unwrap();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sharded.for_each_shard(&g, TraversalOrder::RowMajor, |_, shard| {
                    let pos = stream.iter().position(|s| std::ptr::eq(*s, shard));
                    assert_ne!(pos, Some(panic_at), "synthetic shard panic");
                    Ok(())
                })
            }));
            assert!(outcome.is_err(), "jobs={jobs} panic_at={panic_at}");
        }
    }

    #[test]
    fn worker_spans_replay_through_the_primary_tracer() {
        let (_, g) = grid(600, 11);
        let agg = Arc::new(AggregateSink::new());
        let mut serial = Engine::new(GaasXConfig::small()).unwrap();
        let _ = gather_pass(&mut serial, &g);
        let serial_report = serial.finish("t", "t", "t", 1, 600);

        let mut sharded = ShardedEngine::new(GaasXConfig::small(), 3).unwrap();
        sharded.set_tracer(Tracer::with_sink(agg.clone()));
        let _ = gather_pass(&mut sharded, &g);
        let report = sharded.finish("t", "t", "t", 1, 600);
        assert_eq!(report.ops, serial_report.ops);

        // Span counts per phase match the merged report's op tallies.
        let rollup = agg.phase_rollup();
        for phase in [gaasx_sim::Phase::CamSearch, gaasx_sim::Phase::MacGather] {
            let seen = rollup.iter().find(|p| p.phase == phase).unwrap();
            assert_eq!(seen.count, report.phase(phase).unwrap().count, "{phase:?}");
        }
        // The metrics registry carries the merged op counters.
        assert_eq!(
            sharded.primary.tracer().metrics().unwrap().op_summary(),
            report.ops
        );
    }

    #[test]
    fn sharded_timelines_are_bit_identical_to_serial() {
        use gaasx_sim::TimelineSink;
        let (_, g) = grid(900, 5);
        let serial_sink = Arc::new(TimelineSink::new());
        let mut serial = Engine::new(GaasXConfig::small()).unwrap();
        serial.set_tracer(Tracer::with_sink(serial_sink.clone()));
        let _ = gather_pass(&mut serial, &g);
        let want = serial.finish("t", "t", "t", 1, 900);
        let want_util = want.utilization.clone().unwrap();
        let want_intervals = serial_sink.take();

        for jobs in [1, 2, 4] {
            let sink = Arc::new(TimelineSink::new());
            let mut sharded = ShardedEngine::new(GaasXConfig::small(), jobs).unwrap();
            sharded.set_tracer(Tracer::with_sink(sink.clone()));
            let _ = gather_pass(&mut sharded, &g);
            let got = sharded.finish("t", "t", "t", 1, 900);
            let got_util = got.utilization.clone().unwrap();
            assert_eq!(got_util, want_util, "jobs={jobs}");
            assert_eq!(sink.take(), want_intervals, "jobs={jobs}");
            // Conservation against the merged phase attribution.
            for p in &got.phases {
                assert_eq!(
                    got_util.phase_busy_ns[p.phase.index()],
                    p.busy_ns,
                    "jobs={jobs} {:?}",
                    p.phase
                );
            }
        }
    }

    #[test]
    fn worker_metrics_merge_losslessly_into_the_primary() {
        let (_, g) = grid(700, 17);
        let run = |jobs: usize| {
            let mut sharded = ShardedEngine::new(GaasXConfig::small(), jobs).unwrap();
            sharded.set_tracer(Tracer::with_sink(Arc::new(AggregateSink::new())));
            sharded
                .for_each_shard(&g, TraversalOrder::ColumnMajor, |engine, shard| {
                    let mut hits = gaasx_xbar::HitVector::new(0);
                    engine.sweep(
                        shard.edges(),
                        CellLayout::Preset,
                        Keys::Dsts,
                        |_| true,
                        |engine, block| {
                            for dst in block.dsts() {
                                engine.search_dst_into(dst, &mut hits);
                                // Worker-side metrics: these land in the
                                // worker tracer's registry and must survive
                                // the merge.
                                engine.tracer().counter_add("shard_probes", 1);
                                engine
                                    .tracer()
                                    .histogram_record("hits_per_search", hits.rows().len().max(1));
                            }
                            Ok(())
                        },
                    )
                })
                .unwrap();
            let _ = sharded.finish("t", "t", "t", 1, 700);
            let metrics = sharded.primary.tracer().metrics().unwrap();
            (
                metrics.counter("shard_probes").get(),
                metrics.histogram("hits_per_search").lock().clone(),
            )
        };
        let (whole_count, whole_hist) = run(1);
        assert!(whole_count > 0);
        assert!(whole_hist.total() > 0);
        for jobs in [2, 4] {
            let (count, hist) = run(jobs);
            assert_eq!(count, whole_count, "jobs={jobs}");
            assert_eq!(hist, whole_hist, "jobs={jobs}: merged quantiles diverge");
            for q in [0.25, 0.5, 0.95] {
                assert_eq!(
                    hist.value_at_quantile(q),
                    whole_hist.value_at_quantile(q),
                    "jobs={jobs} q={q}"
                );
            }
        }
    }
}

//! Deterministic, seeded device-fault injection.
//!
//! ReRAM arrays fail in ways ordinary DRAM does not: individual cells get
//! stuck at their minimum or maximum conductance (GMIN/GMAX), programming
//! pulses fail transiently, cells wear out after a bounded number of SET/RESET
//! cycles, CAM match lines glitch into false hits or misses, and ADC samples
//! flip bits. Because GaaS-X stores the *graph itself* in the crossbars, any
//! of these silently corrupts edges or weights for every later iteration —
//! which is why the engine layers write-verify / retry / spare-row remapping
//! on top of this module (see `gaasx-core`).
//!
//! Everything here is deterministic given [`FaultModel::seed`], and no
//! outcome depends on the order of host operations:
//!
//! * **Stuck-at maps** are *positional* — whether device `(row, col, slice)`
//!   (MAC) or bit `(row, bit)` (CAM) is stuck, and at which polarity, is a
//!   pure hash of `(seed, domain, position)`. Two crossbars built from the
//!   same model agree on every stuck device, so sharded engines that model
//!   the same physical bank see the same defects.
//! * **Transient events** (write failures, CAM search upsets, ADC flips)
//!   are counter-based draws in the manner of Salmon et al., "Parallel
//!   Random Numbers: As Easy as 1, 2, 3" (SC'11): each is a hash of the
//!   seed, the mechanism and a *key* naming the event, never the next
//!   value of a stream. The caller names the load being programmed with a
//!   draw key ([`CamFaultState::set_key`], [`MacFaultState::set_key`]);
//!   a write failure keys on it plus the physical row and the attempt (how
//!   often that row was programmed under the key), a search upset on it
//!   plus the searched key, mask and vote round, and an ADC flip on a
//!   sample key built from it by the crossbar (burst, line, step, slice).
//!   Two crossbars given the same keys draw the same events however their
//!   operations interleave.
//!
//! The model composes with [`NoiseModel`](crate::noise::NoiseModel): noise
//! perturbs analog MAC sums, faults corrupt stored state and digital samples.
//! A [`FaultModel::none`] model injects nothing and costs nothing.

use serde::{Deserialize, Serialize};

use crate::error::XbarError;
use crate::geometry::{CamGeometry, MacGeometry};
use crate::hit_vector::HitVector;

/// Configuration for seeded device-fault injection.
///
/// All rates are probabilities in `[0, 1]`. The default (and
/// [`FaultModel::none`]) is all-zero: no faults, no draws, no cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Seed for the positional stuck maps and the transient-event streams.
    pub seed: u64,
    /// Per-device probability that a MAC cell `(row, col, slice)` is stuck
    /// at GMIN (reads all-zeros) or GMAX (reads all-ones).
    pub mac_stuck_ber: f64,
    /// Per-bit probability that a CAM cell is stuck at 0 or 1. A stuck CAM
    /// bit turns into a false miss or false hit for every key that differs
    /// from the stuck value at that position.
    pub cam_stuck_ber: f64,
    /// Per-row-write probability that the programming burst fails
    /// transiently, corrupting one random bit of the written row. A retry
    /// redraws, so verify-and-retry recovers these.
    pub write_fail_rate: f64,
    /// SET/RESET cycles a device endures before dying stuck-at-GMIN.
    /// `0` means unlimited endurance (wear tracking disabled).
    pub endurance: u64,
    /// Per-search probability that one random CAM row's match line glitches,
    /// toggling its hit bit (false hit or false miss) for that search only.
    pub cam_upset_rate: f64,
    /// Per-sample probability that an ADC conversion flips one random output
    /// bit. Only observable under quantized fidelity, where real ADCs sit on
    /// the datapath.
    pub adc_flip_rate: f64,
}

impl FaultModel {
    /// A model that injects nothing. [`FaultModel::is_none`] returns `true`.
    pub fn none() -> Self {
        FaultModel {
            seed: 0,
            mac_stuck_ber: 0.0,
            cam_stuck_ber: 0.0,
            write_fail_rate: 0.0,
            endurance: 0,
            cam_upset_rate: 0.0,
            adc_flip_rate: 0.0,
        }
    }

    /// `true` when every fault mechanism is disabled; crossbars skip all
    /// fault bookkeeping for such a model.
    pub fn is_none(&self) -> bool {
        self.mac_stuck_ber == 0.0
            && self.cam_stuck_ber == 0.0
            && self.write_fail_rate == 0.0
            && self.endurance == 0
            && self.cam_upset_rate == 0.0
            && self.adc_flip_rate == 0.0
    }

    /// Validates that every rate is a probability.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] if any rate is not a finite
    /// value in `[0, 1]`.
    pub fn validate(&self) -> Result<(), XbarError> {
        let rates = [
            ("mac_stuck_ber", self.mac_stuck_ber),
            ("cam_stuck_ber", self.cam_stuck_ber),
            ("write_fail_rate", self.write_fail_rate),
            ("cam_upset_rate", self.cam_upset_rate),
            ("adc_flip_rate", self.adc_flip_rate),
        ];
        for (name, rate) in rates {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(XbarError::InvalidParameter(format!(
                    "fault model: {name} {rate} outside [0, 1]"
                )));
            }
        }
        Ok(())
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::none()
    }
}

/// Counts of injected fault events, for tests and diagnostics.
///
/// These count what the *device* did, not what the engine detected — the
/// recovery layer keeps its own detection/retry/remap counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient write bursts that corrupted a bit.
    pub transient_write_faults: u64,
    /// ADC samples that had a bit flipped.
    pub adc_flips: u64,
    /// CAM searches where a match line glitched.
    pub cam_upsets: u64,
    /// Devices (MAC cells or CAM rows) that exceeded their endurance and
    /// died stuck during this crossbar's lifetime.
    pub wear_deaths: u64,
}

impl FaultStats {
    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &FaultStats) {
        self.transient_write_faults = self
            .transient_write_faults
            .saturating_add(other.transient_write_faults);
        self.adc_flips = self.adc_flips.saturating_add(other.adc_flips);
        self.cam_upsets = self.cam_upsets.saturating_add(other.cam_upsets);
        self.wear_deaths = self.wear_deaths.saturating_add(other.wear_deaths);
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mix.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic hash of `(seed, domain, position)` for positional stuck
/// decisions. Bit 0 picks the stuck polarity; the remaining bits form a
/// 53-bit uniform for the Bernoulli roll.
#[inline]
fn stuck_hash(seed: u64, domain: u64, position: u64) -> u64 {
    mix64(mix64(seed ^ domain).wrapping_add(position))
}

/// Converts the top bits of a hash to a uniform in `[0, 1)`.
#[inline]
pub(crate) fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Folds one more part into a draw key: `mix64(key ^ mix64(part))`.
/// Chaining the parts of an event's name (a load, a burst, a line, …)
/// gives the key its draws hash; distinct part sequences give unrelated
/// keys.
#[inline]
pub fn chain_key(key: u64, part: u64) -> u64 {
    mix64(key ^ mix64(part))
}

/// A uniform index below `n` from a hash (multiply-shift, no modulo bias
/// beyond `n / 2^64`).
#[inline]
fn below(hash: u64, n: usize) -> usize {
    ((u128::from(hash) * n as u128) >> 64) as usize
}

/// The draw of one transient event: `prefix` (the seed, the mechanism's
/// domain and the load key, chained once per load) folded with the
/// event's parts, one [`mix64`] per part. The event happens when the
/// draw [`fires`] against its rate's [`threshold`]; [`mix64`] of the draw
/// picks what the event corrupts.
#[inline]
pub(crate) fn draw(prefix: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(prefix, |h, &p| mix64(h ^ p))
}

/// The draw threshold of a probability: a draw fires when it falls below
/// the threshold, which it does with probability `rate` (to within
/// 2^-64); at a rate of 1 every draw fires.
fn threshold(rate: f64) -> u64 {
    if rate >= 1.0 {
        u64::MAX
    } else {
        (rate * 18_446_744_073_709_551_616.0) as u64
    }
}

/// Whether a draw fires against a [`threshold`].
#[inline]
fn fires(hash: u64, threshold: u64) -> bool {
    hash < threshold || threshold == u64::MAX
}

/// A row and its attempt as one draw part.
#[inline]
fn row_attempt(row: usize, attempt: u32) -> u64 {
    row as u64 | u64::from(attempt) << 32
}

const MAC_DOMAIN: u64 = 0x6D61_635F_7374_7563; // "mac_stuc"
const CAM_DOMAIN: u64 = 0x6361_6D5F_7374_7563; // "cam_stuc"
const MAC_WRITE_DOMAIN: u64 = 0x6D61_635F_7772_6974; // "mac_writ"
const CAM_WRITE_DOMAIN: u64 = 0x6361_6D5F_7772_6974; // "cam_writ"
const CAM_UPSET_DOMAIN: u64 = 0x6361_6D5F_7570_7365; // "cam_upse"
const ADC_FLIP_DOMAIN: u64 = 0x6164_635F_666C_6970; // "adc_flip"

/// The write-failure draws of one crossbar under its current draw key.
///
/// A row burst's write fails with probability `write_fail_rate`, drawn on
/// `(key, row, attempt)`, where the attempt counts the bursts the row took
/// under the key. Each row is stamped with the key's generation when first
/// written under it; the few rows written again (retries) keep their count
/// in a short list.
#[derive(Debug, Clone)]
struct WriteDraws {
    /// The seed mixed with the mechanism's domain.
    base: u64,
    /// `base` chained with the current draw key.
    prefix: u64,
    /// The [`threshold`] of the rate.
    threshold: u64,
    /// The current key's generation (never 0).
    generation: u32,
    /// Per row: the generation it was first written under (0: never).
    /// Empty at a zero rate, when nothing ever fails.
    stamps: Vec<u32>,
    /// `(row, attempts after the first)` for every row written again.
    again: Vec<(usize, u32)>,
}

impl WriteDraws {
    /// Draws for `rows` rows at `rate`.
    fn new(base: u64, rate: f64, rows: usize) -> Self {
        WriteDraws {
            base,
            prefix: chain_key(base, 0),
            threshold: threshold(rate),
            generation: 1,
            stamps: if rate > 0.0 {
                vec![0; rows]
            } else {
                Vec::new()
            },
            again: Vec::new(),
        }
    }

    /// Whether writes can fail (a nonzero rate).
    #[inline]
    fn on(&self) -> bool {
        !self.stamps.is_empty()
    }

    /// Restarts every row at attempt 0 under `key`.
    fn set_key(&mut self, key: u64) {
        self.prefix = chain_key(self.base, key);
        self.again.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // The stamps wrapped: clear them so no old stamp matches.
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Counts one write of `row` and returns, when it fails, its draw (from
    /// which the caller picks the flipped bit); `None` when it latches.
    #[inline]
    fn failure(&mut self, row: usize) -> Option<u64> {
        let h = draw(self.prefix, &[row_attempt(row, self.next(row))]);
        fires(h, self.threshold).then(|| mix64(h))
    }

    /// Counts one write of `row` and returns its attempt number.
    #[inline]
    fn next(&mut self, row: usize) -> u32 {
        let stamp = &mut self.stamps[row];
        if *stamp != self.generation {
            *stamp = self.generation;
            return 0;
        }
        match self.again.iter_mut().find(|(r, _)| *r == row) {
            Some((_, n)) => {
                *n = n.saturating_add(1);
                *n
            }
            None => {
                self.again.push((row, 1));
                1
            }
        }
    }
}

/// Polarity of a stuck device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stuck {
    /// Minimum conductance — the cell reads as all-zero bits.
    Gmin,
    /// Maximum conductance — the cell reads as all-one bits.
    Gmax,
}

/// Runtime fault state attached to a [`MacCrossbar`](crate::MacCrossbar).
///
/// Stuck faults are applied *at write time*: the crossbar's cell array always
/// holds the post-fault view, so the hot MAC loops read it unchanged. The
/// positional stuck map is precomputed into per-cell set/clear masks, so
/// applying it to a code is two bit-ops. Wear is tracked per physical cell;
/// a worn-out cell becomes permanently stuck-at-GMIN, which the next verify
/// pass detects.
#[derive(Debug, Clone)]
pub struct MacFaultState {
    model: FaultModel,
    cols: usize,
    slices: usize,
    bits_per_cell: u32,
    adc_bits: u32,
    /// Per-cell mask of slice bits stuck at GMAX (set on every write),
    /// indexed `row * cols + col`; empty when `mac_stuck_ber` is zero.
    stuck_set: Vec<u32>,
    /// Per-cell mask of slice bits stuck at GMIN (cleared on every write).
    stuck_clear: Vec<u32>,
    /// Per-cell write counts, indexed `row * cols + col`; empty when
    /// endurance tracking is off.
    wear: Vec<u64>,
    /// Write-failure draws under the current draw key (see
    /// [`set_key`](Self::set_key)).
    writes: WriteDraws,
    /// The seed mixed with the ADC-flip domain, and the flip rate's
    /// [`threshold`].
    flip_base: u64,
    flip_threshold: u64,
    stats: FaultStats,
}

impl MacFaultState {
    /// Builds fault state for a crossbar of the given geometry, precomputing
    /// the positional stuck masks.
    pub fn new(model: FaultModel, geometry: &MacGeometry) -> Self {
        let cells = geometry.rows * geometry.cols;
        let wear = if model.endurance > 0 {
            vec![0u64; cells]
        } else {
            Vec::new()
        };
        let mut state = MacFaultState {
            model,
            cols: geometry.cols,
            slices: geometry.slices,
            bits_per_cell: geometry.bits_per_cell,
            adc_bits: geometry.adc_bits,
            stuck_set: Vec::new(),
            stuck_clear: Vec::new(),
            wear,
            writes: WriteDraws::new(
                mix64(model.seed ^ MAC_WRITE_DOMAIN),
                model.write_fail_rate,
                geometry.rows,
            ),
            flip_base: mix64(model.seed ^ ADC_FLIP_DOMAIN),
            flip_threshold: threshold(model.adc_flip_rate),
            stats: FaultStats::default(),
        };
        if model.mac_stuck_ber > 0.0 {
            let cell_mask = (1u32 << geometry.bits_per_cell) - 1;
            let (mut set, mut clear) = (vec![0u32; cells], vec![0u32; cells]);
            for cell in 0..cells {
                let (row, col) = (cell / geometry.cols, cell % geometry.cols);
                for slice in 0..geometry.slices {
                    let bits = cell_mask << (slice as u32 * geometry.bits_per_cell);
                    match state.stuck_slice(row, col, slice) {
                        None => {}
                        Some(Stuck::Gmin) => clear[cell] |= bits,
                        Some(Stuck::Gmax) => set[cell] |= bits,
                    }
                }
            }
            state.stuck_set = set;
            state.stuck_clear = clear;
        }
        state
    }

    /// Whether sampling a MAC read-out draws: `true` when the ADC-flip
    /// rate is nonzero. Stuck cells, wear and write failures act at write
    /// time and never draw during a burst.
    pub(crate) fn flips_samples(&self) -> bool {
        self.model.adc_flip_rate > 0.0
    }

    /// Names the load the next writes program: a write failure draws on
    /// this key, the physical row and the row's attempt under the key,
    /// which restarts at 0 for every row.
    pub fn set_key(&mut self, key: u64) {
        self.writes.set_key(key);
    }

    /// Injected-event counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Cumulative per-cell programming-pulse counts, indexed
    /// `row * cols + col`. Empty when endurance tracking is off.
    pub fn wear(&self) -> &[u64] {
        &self.wear
    }

    /// Restores a wear map snapshot taken from a previous incarnation of
    /// the same physical bank. A length mismatch (different geometry, or
    /// endurance tracking off on either side) leaves the map untouched —
    /// wear from a foreign geometry would land on the wrong cells.
    pub fn restore_wear(&mut self, wear: &[u64]) {
        if self.wear.len() == wear.len() {
            self.wear.copy_from_slice(wear);
        }
    }

    /// Clears the injected-event counters for a new accounting window,
    /// preserving the wear map. A bank that stays resident across queries
    /// resets stats per query while its physical degradation keeps
    /// accumulating.
    pub fn reset_stats(&mut self) {
        self.stats = FaultStats::default();
    }

    /// Positional stuck decision for one physical device (bit-slice cell).
    /// Builds the precomputed masks, and serves as their test oracle.
    fn stuck_slice(&self, row: usize, col: usize, slice: usize) -> Option<Stuck> {
        if self.model.mac_stuck_ber <= 0.0 {
            return None;
        }
        let position = ((row * self.cols + col) * self.slices + slice) as u64;
        let h = stuck_hash(self.model.seed, MAC_DOMAIN, position);
        if unit(h) < self.model.mac_stuck_ber {
            Some(if h & 1 == 0 { Stuck::Gmin } else { Stuck::Gmax })
        } else {
            None
        }
    }

    /// `true` once the cell's wear counter has exceeded its endurance.
    #[inline]
    fn worn_out(&self, row: usize, col: usize) -> bool {
        self.model.endurance > 0 && self.wear[row * self.cols + col] > self.model.endurance
    }

    /// Applies the positional stuck map (and wear death) to a code headed
    /// for `(row, col)`. Pure: no draw, no wear increment — this is the view
    /// the cell array must hold for both counted writes and preloads.
    #[inline]
    pub fn materialize(&self, row: usize, col: usize, code: u32) -> u32 {
        if self.worn_out(row, col) {
            return 0; // a dead cell holds GMIN in every slice
        }
        if self.stuck_set.is_empty() {
            return code;
        }
        let cell = row * self.cols + col;
        (code | self.stuck_set[cell]) & !self.stuck_clear[cell]
    }

    /// Programs one row burst: `dst[col]` latches `codes[col]` for every
    /// column of the burst. Each cell takes one programming pulse (bumping
    /// its wear, possibly killing it) and holds the stuck-map view of its
    /// code. Then the burst draws once on `(key, row, attempt)`: with
    /// probability `write_fail_rate` one bit of one written cell flips,
    /// and stuck devices still win over the glitch.
    #[inline(always)]
    pub(crate) fn program_row(&mut self, row: usize, codes: &[u32], dst: &mut [u32]) {
        debug_assert_eq!(codes.len(), dst.len());
        let cells = row * self.cols..row * self.cols + codes.len();
        if self.model.endurance > 0 {
            for w in &mut self.wear[cells.clone()] {
                let was_alive = *w <= self.model.endurance;
                *w = w.saturating_add(1);
                if was_alive && *w > self.model.endurance {
                    self.stats.wear_deaths = self.stats.wear_deaths.saturating_add(1);
                }
            }
            for (col, (d, &c)) in dst.iter_mut().zip(codes).enumerate() {
                *d = self.materialize(row, col, c);
            }
        } else if self.stuck_set.is_empty() {
            dst.copy_from_slice(codes);
        } else {
            let masks = self.stuck_set[cells.clone()]
                .iter()
                .zip(&self.stuck_clear[cells]);
            for ((d, &c), (&set, &clear)) in dst.iter_mut().zip(codes).zip(masks) {
                *d = (c | set) & !clear;
            }
        }
        if !self.writes.on() || codes.is_empty() {
            return;
        }
        if let Some(pick) = self.writes.failure(row) {
            let col = below(pick, codes.len());
            let weight_bits = self.slices * self.bits_per_cell as usize;
            let bit = below(mix64(pick), weight_bits);
            // Stuck devices win over the transient glitch.
            dst[col] = self.materialize(row, col, dst[col] ^ (1 << bit));
            self.stats.transient_write_faults = self.stats.transient_write_faults.saturating_add(1);
        }
    }

    /// Draws a transient ADC bit flip for one sampled partial sum, keyed
    /// by `sample_key` (the crossbar names the burst, line, step and
    /// slice).
    pub fn perturb_sample(&mut self, sampled: u64, sample_key: u64) -> u64 {
        if self.model.adc_flip_rate <= 0.0 {
            return sampled;
        }
        let h = draw(self.flip_base, &[sample_key]);
        if fires(h, self.flip_threshold) {
            self.stats.adc_flips = self.stats.adc_flips.saturating_add(1);
            sampled ^ (1 << below(mix64(h), self.adc_bits as usize))
        } else {
            sampled
        }
    }

    /// Folds a sibling crossbar's injected-event counters into this one.
    pub fn merge_stats(&mut self, other: &FaultStats) {
        self.stats.merge(other);
    }
}

/// Runtime fault state attached to a [`CamCrossbar`](crate::CamCrossbar).
///
/// Stuck bits are precomputed into per-row OR/AND-NOT masks so applying them
/// to a write is two bit-ops. Wear is tracked per row (an entry is programmed
/// as one burst); a worn-out row reads all-zeros, which verify detects.
#[derive(Debug, Clone)]
pub struct CamFaultState {
    model: FaultModel,
    rows: usize,
    width_bits: u32,
    /// Per-row mask of bits stuck at 0 (cleared on every write).
    stuck0: Vec<u128>,
    /// Per-row mask of bits stuck at 1 (set on every write).
    stuck1: Vec<u128>,
    /// Per-row write counts; empty when endurance tracking is off.
    wear: Vec<u64>,
    /// Write-failure draws under the current draw key (see
    /// [`set_key`](Self::set_key)).
    writes: WriteDraws,
    /// The seed mixed with the upset domain, the upset rate's
    /// [`threshold`], and the base chained with the current draw key.
    upset_base: u64,
    upset_threshold: u64,
    upset_prefix: u64,
    stats: FaultStats,
}

impl CamFaultState {
    /// Builds fault state for a crossbar of the given geometry, precomputing
    /// the positional stuck masks.
    pub fn new(model: FaultModel, geometry: &CamGeometry) -> Self {
        let (mut stuck0, mut stuck1) = (Vec::new(), Vec::new());
        if model.cam_stuck_ber > 0.0 {
            stuck0 = vec![0u128; geometry.rows];
            stuck1 = vec![0u128; geometry.rows];
            for row in 0..geometry.rows {
                for bit in 0..geometry.width_bits {
                    let position = row as u64 * u64::from(geometry.width_bits) + u64::from(bit);
                    let h = stuck_hash(model.seed, CAM_DOMAIN, position);
                    if unit(h) < model.cam_stuck_ber {
                        if h & 1 == 0 {
                            stuck0[row] |= 1u128 << bit;
                        } else {
                            stuck1[row] |= 1u128 << bit;
                        }
                    }
                }
            }
        }
        let wear = if model.endurance > 0 {
            vec![0u64; geometry.rows]
        } else {
            Vec::new()
        };
        CamFaultState {
            model,
            rows: geometry.rows,
            width_bits: geometry.width_bits,
            stuck0,
            stuck1,
            wear,
            writes: WriteDraws::new(
                mix64(model.seed ^ CAM_WRITE_DOMAIN),
                model.write_fail_rate,
                geometry.rows,
            ),
            upset_base: mix64(model.seed ^ CAM_UPSET_DOMAIN),
            upset_threshold: threshold(model.cam_upset_rate),
            upset_prefix: chain_key(mix64(model.seed ^ CAM_UPSET_DOMAIN), 0),
            stats: FaultStats::default(),
        }
    }

    /// Names the load the next writes program and the next searches
    /// probe: a write failure draws on this key, the physical row and the
    /// row's attempt under the key (restarted at 0 for every row), a
    /// search upset on this key, the searched key and mask, and the vote
    /// round.
    pub fn set_key(&mut self, key: u64) {
        self.writes.set_key(key);
        self.upset_prefix = chain_key(self.upset_base, key);
    }

    /// Injected-event counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Cumulative per-row programming-burst counts. Empty when endurance
    /// tracking is off.
    pub fn wear(&self) -> &[u64] {
        &self.wear
    }

    /// Restores a wear map snapshot taken from a previous incarnation of
    /// the same physical bank. A length mismatch (different geometry, or
    /// endurance tracking off on either side) leaves the map untouched —
    /// wear from a foreign geometry would land on the wrong rows.
    pub fn restore_wear(&mut self, wear: &[u64]) {
        if self.wear.len() == wear.len() {
            self.wear.copy_from_slice(wear);
        }
    }

    /// Clears the injected-event counters for a new accounting window,
    /// preserving the wear map. A bank that stays resident across queries
    /// resets stats per query while its physical degradation keeps
    /// accumulating.
    pub fn reset_stats(&mut self) {
        self.stats = FaultStats::default();
    }

    /// `true` once the row's wear counter has exceeded its endurance.
    #[inline]
    fn worn_out(&self, row: usize) -> bool {
        self.model.endurance > 0 && self.wear[row] > self.model.endurance
    }

    /// Records one entry-programming burst on `row`: bumps wear, applies the
    /// stuck masks, and draws once on `(key, row, attempt)` for a transient
    /// burst failure that flips one bit. Returns the bits the row actually
    /// latched.
    #[inline(always)]
    pub fn programmed(&mut self, row: usize, bits: u128) -> u128 {
        if self.model.endurance > 0 {
            let was_alive = self.wear[row] <= self.model.endurance;
            self.wear[row] = self.wear[row].saturating_add(1);
            if was_alive && self.wear[row] > self.model.endurance {
                self.stats.wear_deaths = self.stats.wear_deaths.saturating_add(1);
            }
        }
        if self.worn_out(row) {
            return 0; // a dead row reads GMIN everywhere
        }
        let mut out = bits;
        if self.model.cam_stuck_ber > 0.0 {
            out = (out | self.stuck1[row]) & !self.stuck0[row];
        }
        if self.writes.on() {
            if let Some(pick) = self.writes.failure(row) {
                out ^= 1u128 << below(pick, self.width_bits as usize);
                if self.model.cam_stuck_ber > 0.0 {
                    // Stuck devices win over transient glitches.
                    out = (out | self.stuck1[row]) & !self.stuck0[row];
                }
                self.stats.transient_write_faults =
                    self.stats.transient_write_faults.saturating_add(1);
            }
        }
        out
    }

    /// Whether a search draws: `true` when the match-line upset rate is
    /// nonzero. Without upsets a search is a pure function of the stored
    /// entries, whatever its round.
    pub(crate) fn upsets_searches(&self) -> bool {
        self.model.cam_upset_rate > 0.0
    }

    /// Draws a transient match-line upset for one search of `key` under
    /// `mask` in vote round `round`: with probability `cam_upset_rate`
    /// one row's match line, picked by the same draw, toggles in place.
    /// The same search in the same round under the same load key draws
    /// the same upset.
    #[inline(never)]
    pub fn upset(&mut self, hits: &mut HitVector, key: u128, mask: u128, round: u32) {
        if self.model.cam_upset_rate <= 0.0 {
            return;
        }
        let parts = [
            key as u64,
            (key >> 64) as u64,
            mask as u64,
            (mask >> 64) as u64,
            u64::from(round),
        ];
        let h = draw(self.upset_prefix, &parts);
        if fires(h, self.upset_threshold) {
            hits.toggle(below(mix64(h), self.rows));
            self.stats.cam_upsets = self.stats.cam_upsets.saturating_add(1);
        }
    }

    /// Folds a sibling crossbar's injected-event counters into this one.
    pub fn merge_stats(&mut self, other: &FaultStats) {
        self.stats.merge(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(f: impl FnOnce(&mut FaultModel)) -> FaultModel {
        let mut m = FaultModel {
            seed: 42,
            ..FaultModel::none()
        };
        f(&mut m);
        m
    }

    #[test]
    fn none_is_none_and_valid() {
        assert!(FaultModel::none().is_none());
        FaultModel::none().validate().unwrap();
        assert!(!model(|m| m.mac_stuck_ber = 0.1).is_none());
        assert!(!model(|m| m.endurance = 5).is_none());
    }

    #[test]
    fn out_of_range_rates_rejected() {
        assert!(model(|m| m.mac_stuck_ber = -0.1).validate().is_err());
        assert!(model(|m| m.cam_stuck_ber = 1.5).validate().is_err());
        assert!(model(|m| m.write_fail_rate = f64::NAN).validate().is_err());
        assert!(model(|m| m.adc_flip_rate = f64::INFINITY)
            .validate()
            .is_err());
        model(|m| m.cam_upset_rate = 1.0).validate().unwrap();
    }

    #[test]
    fn mac_stuck_map_is_positional_and_seeded() {
        let g = MacGeometry::paper();
        let m = model(|m| m.mac_stuck_ber = 0.05);
        let a = MacFaultState::new(m, &g);
        let b = MacFaultState::new(m, &g);
        let mut stuck = 0usize;
        for row in 0..g.rows {
            for col in 0..g.cols {
                let code = 0x5555u32;
                assert_eq!(a.materialize(row, col, code), b.materialize(row, col, code));
                if a.materialize(row, col, code) != code {
                    stuck += 1;
                }
            }
        }
        // 128×16 cells × 8 slices at 5%: expect plenty of stuck cells.
        assert!(stuck > 100, "only {stuck} cells touched by stuck faults");
        // A different seed yields a different map.
        let c = MacFaultState::new(
            model(|m| {
                m.seed = 43;
                m.mac_stuck_ber = 0.05;
            }),
            &g,
        );
        let differs = (0..g.rows).any(|r| {
            (0..g.cols).any(|co| a.materialize(r, co, 0x5555) != c.materialize(r, co, 0x5555))
        });
        assert!(differs);
    }

    /// The per-slice `stuck_hash` derivation the precomputed masks replace.
    fn materialize_per_slice(st: &MacFaultState, row: usize, col: usize, code: u32) -> u32 {
        if st.worn_out(row, col) {
            return 0;
        }
        let cell_mask = (1u32 << st.bits_per_cell) - 1;
        let mut out = code;
        for slice in 0..st.slices {
            let shift = slice as u32 * st.bits_per_cell;
            match st.stuck_slice(row, col, slice) {
                None => {}
                Some(Stuck::Gmin) => out &= !(cell_mask << shift),
                Some(Stuck::Gmax) => out |= cell_mask << shift,
            }
        }
        out
    }

    #[test]
    fn precomputed_stuck_masks_match_per_slice_hashes() {
        let g = MacGeometry::paper();
        let codes = [0u32, 0x5555, 0xAAAA, 0xFFFF, 0x1234, 0xBEEF];
        for seed in [0, 7, 42, 0xBE05] {
            for ber in [0.0, 1e-4, 0.01, 0.2, 1.0] {
                let mut st = MacFaultState::new(
                    model(|m| {
                        m.seed = seed;
                        m.mac_stuck_ber = ber;
                        m.endurance = 2;
                    }),
                    &g,
                );
                // Wear out the leading cells of every seventh row: three
                // pulses past an endurance of two.
                let mut dst = vec![0u32; g.cols];
                for row in (0..g.rows).step_by(7) {
                    let width = row % g.cols + 1;
                    for _ in 0..3 {
                        st.program_row(row, &vec![0; width], &mut dst[..width]);
                    }
                }
                assert!(st.stats().wear_deaths > 0);
                for row in 0..g.rows {
                    for col in 0..g.cols {
                        for &code in &codes {
                            assert_eq!(
                                st.materialize(row, col, code),
                                materialize_per_slice(&st, row, col, code),
                                "seed {seed} ber {ber} cell ({row}, {col}) code {code:#x}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mac_stuck_values_stay_in_code_range() {
        let g = MacGeometry::paper();
        let st = MacFaultState::new(model(|m| m.mac_stuck_ber = 0.2), &g);
        let max_code = (1u64 << g.weight_bits()) - 1;
        for row in 0..g.rows {
            for col in 0..g.cols {
                assert!(u64::from(st.materialize(row, col, 0)) <= max_code);
                assert!(u64::from(st.materialize(row, col, max_code as u32)) <= max_code);
            }
        }
    }

    /// Programs one row burst of `codes` and returns what it latched.
    fn program(st: &mut MacFaultState, row: usize, codes: &[u32]) -> Vec<u32> {
        let mut dst = vec![0; codes.len()];
        st.program_row(row, codes, &mut dst);
        dst
    }

    #[test]
    fn wear_kills_cells_at_endurance() {
        let g = MacGeometry::paper();
        let mut st = MacFaultState::new(model(|m| m.endurance = 3), &g);
        for _ in 0..3 {
            assert_eq!(program(&mut st, 0, &[7]), [7], "alive within endurance");
        }
        assert_eq!(program(&mut st, 0, &[7]), [0], "dead past endurance");
        assert_eq!(st.materialize(0, 0, 7), 0);
        assert_eq!(st.stats().wear_deaths, 1);
        assert_eq!(program(&mut st, 1, &[7]), [7], "neighbor row unaffected");
        assert_eq!(program(&mut st, 0, &[7, 7]), [0, 7], "next cell alive");
    }

    /// `events` Bernoulli(`rate`) trials fired `count` times: the count
    /// lies within four standard deviations of `rate × events`.
    fn assert_within_4_sigma(what: &str, count: u64, events: u64, rate: f64) {
        let mean = rate * events as f64;
        let sigma = (events as f64 * rate * (1.0 - rate)).sqrt();
        assert!(
            (count as f64 - mean).abs() <= 4.0 * sigma,
            "{what}: {count} of {events} events at rate {rate} (mean {mean}, sigma {sigma})"
        );
    }

    /// 10^5 row bursts over 1,000 load keys: one draw per burst, one
    /// corrupted cell per failed burst, counted in the stats.
    #[test]
    fn mac_write_failures_fire_once_per_row_burst_at_the_rate() {
        let g = MacGeometry::paper();
        let rate = 0.03;
        let mut st = MacFaultState::new(model(|m| m.write_fail_rate = rate), &g);
        let codes = [0x0F0Fu32; 4];
        let mut corrupted = 0u64;
        for key in 0..1_000u64 {
            st.set_key(key);
            for row in 0..100 {
                let got = program(&mut st, row, &codes);
                let wrong = got.iter().zip(&codes).filter(|(a, b)| a != b).count();
                assert!(wrong <= 1, "one cell per burst at most");
                if wrong == 1 {
                    let flipped = got.iter().zip(&codes).map(|(a, b)| a ^ b).sum::<u32>();
                    assert_eq!(flipped.count_ones(), 1, "one bit flips");
                }
                corrupted += wrong as u64;
            }
        }
        assert_eq!(st.stats().transient_write_faults, corrupted);
        assert_within_4_sigma("mac write failures", corrupted, 100_000, rate);
    }

    #[test]
    fn cam_write_failures_fire_at_the_rate() {
        let g = CamGeometry::paper();
        let rate = 0.02;
        let mut st = CamFaultState::new(model(|m| m.write_fail_rate = rate), &g);
        let mut corrupted = 0u64;
        for key in 0..1_000u64 {
            st.set_key(key);
            for row in 0..100 {
                let bits = 0xDEAD_BEEF_u128 << (row % 64);
                let got = st.programmed(row, bits);
                assert!((got ^ bits).count_ones() <= 1);
                corrupted += u64::from(got != bits);
            }
        }
        assert_eq!(st.stats().transient_write_faults, corrupted);
        assert_within_4_sigma("cam write failures", corrupted, 100_000, rate);
    }

    #[test]
    fn cam_upsets_fire_at_the_rate() {
        let g = CamGeometry::paper();
        let rate = 0.05;
        let mut st = CamFaultState::new(model(|m| m.cam_upset_rate = rate), &g);
        let mut hits = HitVector::new(g.rows);
        for key in 0..100u64 {
            st.set_key(key);
            for search in 0..1_000u128 {
                st.upset(&mut hits, search << 32, SRC_MASK_FOR_TESTS, 0);
            }
        }
        let upsets = st.stats().cam_upsets;
        assert_within_4_sigma("cam upsets", upsets, 100_000, rate);
    }

    #[test]
    fn adc_flips_fire_at_the_rate_and_only_when_enabled() {
        let g = MacGeometry::paper();
        let mut off = MacFaultState::new(model(|_| {}), &g);
        assert_eq!(off.perturb_sample(33, 1), 33);
        let mut on = MacFaultState::new(model(|m| m.adc_flip_rate = 1.0), &g);
        let flipped = on.perturb_sample(33, 1);
        assert_eq!((flipped ^ 33).count_ones(), 1);
        assert!(flipped < 1 << g.adc_bits.max(6));
        assert_eq!(on.stats().adc_flips, 1);
        assert_eq!(on.perturb_sample(33, 1), flipped, "one key, one draw");

        let rate = 0.01;
        let mut st = MacFaultState::new(model(|m| m.adc_flip_rate = rate), &g);
        let flips = (0..100_000u64)
            .filter(|&k| st.perturb_sample(5, chain_key(9, k)) != 5)
            .count() as u64;
        assert_eq!(st.stats().adc_flips, flips);
        assert_within_4_sigma("adc flips", flips, 100_000, rate);
    }

    /// A write failure keys on `(key, row, attempt)`: the same rows
    /// programmed in another order under the same key latch the same
    /// values, a retry (attempt 1) draws afresh, and a new key restarts
    /// every row at attempt 0.
    #[test]
    fn write_draws_follow_keys_rows_and_attempts_not_order() {
        let g = CamGeometry::paper();
        let m = model(|m| m.write_fail_rate = 0.5);
        let (mut a, mut b) = (CamFaultState::new(m, &g), CamFaultState::new(m, &g));
        a.set_key(77);
        b.set_key(77);
        let bits = |row: usize| (row as u128) << 40 | 0xABCD;
        let forward: Vec<u128> = (0..g.rows).map(|r| a.programmed(r, bits(r))).collect();
        let mut backward = vec![0; g.rows];
        for r in (0..g.rows).rev() {
            backward[r] = b.programmed(r, bits(r));
        }
        assert_eq!(forward, backward);
        assert_eq!(a.stats(), b.stats());
        let retries: Vec<u128> = (0..g.rows).map(|r| a.programmed(r, bits(r))).collect();
        assert_ne!(retries, forward, "attempt 1 draws afresh");
        a.set_key(77);
        let again: Vec<u128> = (0..g.rows).map(|r| a.programmed(r, bits(r))).collect();
        assert_eq!(again, forward, "a key restarts the attempts");
    }

    #[test]
    fn cam_stuck_masks_apply_on_write() {
        let g = CamGeometry::paper();
        let m = model(|m| m.cam_stuck_ber = 0.02);
        let mut st = CamFaultState::new(m, &g);
        let mut st2 = CamFaultState::new(m, &g);
        let mut touched = 0usize;
        for row in 0..g.rows {
            let bits = 0xDEAD_BEEF_u128 << (row % 64);
            let out = st.programmed(row, bits);
            assert_eq!(out, st2.programmed(row, bits), "positional determinism");
            if out != bits {
                touched += 1;
            }
        }
        // 128 rows × 128 bits at 2%: P(row untouched) ≈ 7.5%.
        assert!(touched > 64, "only {touched} rows touched");
    }

    const SRC_MASK_FOR_TESTS: u128 = 0xFFFF_FFFF_0000_0000;

    #[test]
    fn cam_upsets_toggle_exactly_one_row() {
        let g = CamGeometry::paper();
        let mut st = CamFaultState::new(model(|m| m.cam_upset_rate = 1.0), &g);
        let mut hits = HitVector::new(g.rows);
        hits.push(3);
        st.upset(&mut hits, 3 << 32, SRC_MASK_FOR_TESTS, 0);
        assert_eq!(st.stats().cam_upsets, 1);
        let delta: usize = (0..g.rows)
            .filter(|r| hits.rows().contains(r) != (*r == 3))
            .count();
        assert_eq!(delta, 1, "exactly one match line toggled");
    }

    #[test]
    fn cam_wear_kills_rows() {
        let g = CamGeometry::paper();
        let mut st = CamFaultState::new(model(|m| m.endurance = 2), &g);
        assert_eq!(st.programmed(5, u128::MAX >> 1), u128::MAX >> 1);
        assert_eq!(st.programmed(5, u128::MAX >> 1), u128::MAX >> 1);
        assert_eq!(
            st.programmed(5, u128::MAX >> 1),
            0,
            "row dead past endurance"
        );
        assert_eq!(st.stats().wear_deaths, 1);
    }

    #[test]
    fn stats_merge_saturates() {
        let mut a = FaultStats {
            transient_write_faults: u64::MAX,
            adc_flips: 1,
            cam_upsets: 2,
            wear_deaths: 3,
        };
        a.merge(&a.clone());
        assert_eq!(a.transient_write_faults, u64::MAX);
        assert_eq!(a.adc_flips, 2);
        assert_eq!(a.cam_upsets, 4);
        assert_eq!(a.wear_deaths, 6);
    }

    #[test]
    fn wear_survives_stats_reset_and_restores_across_incarnations() {
        let g = CamGeometry::paper();
        let m = model(|m| m.endurance = 2);
        let mut st = CamFaultState::new(m, &g);
        st.programmed(5, 1);
        st.programmed(5, 1);
        st.programmed(5, 1); // third write kills the row
        assert_eq!(st.stats().wear_deaths, 1);
        let snapshot = st.wear().to_vec();
        assert_eq!(snapshot[5], 3);

        st.reset_stats();
        assert_eq!(st.stats().wear_deaths, 0, "counters cleared");
        assert_eq!(st.wear()[5], 3, "wear preserved across stats reset");

        // A fresh incarnation of the same bank inherits the wear map: the
        // already-dead row stays dead on its first write.
        let mut fresh = CamFaultState::new(m, &g);
        fresh.restore_wear(&snapshot);
        assert_eq!(fresh.programmed(5, 1), 0, "inherited wear kills the row");
        assert_ne!(fresh.programmed(6, 1), 0, "unworn rows still live");
    }

    #[test]
    fn wear_restore_rejects_foreign_geometry() {
        let g = CamGeometry::paper();
        let mut st = CamFaultState::new(model(|m| m.endurance = 4), &g);
        st.restore_wear(&[9; 3]); // wrong length: ignored
        assert!(st.wear().iter().all(|&w| w == 0));

        let mg = MacGeometry::paper();
        let mut mac = MacFaultState::new(model(|m| m.endurance = 4), &mg);
        let cells = mac.wear().len();
        assert_eq!(cells, mg.rows * mg.cols);
        mac.restore_wear(&vec![7u64; cells]);
        assert!(mac.wear().iter().all(|&w| w == 7));
        mac.reset_stats();
        assert!(mac.wear().iter().all(|&w| w == 7));
    }
}

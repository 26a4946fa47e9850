//! On-chip SRAM buffer models.
//!
//! Table I lists three buffers: a 16 KB input buffer, a 64 KB output buffer,
//! and a 512 KB attribute buffer (the structure that localizes random vertex
//! updates on chip, §III-B). Access energies are CACTI-class 32 nm figures
//! scaled with capacity; the paper itself models these buffers with
//! CACTI (§V-A).

use serde::{Deserialize, Serialize};

use crate::units::{Nanojoules, Nanos, Picojoules};

/// Word width of one buffer access in bytes.
pub const ACCESS_WORD_BYTES: u64 = 32;

/// A banked SRAM scratch buffer with per-access energy accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SramBuffer {
    name: String,
    capacity_bytes: u64,
    read_energy_pj: Picojoules,
    write_energy_pj: Picojoules,
    access_ns: Nanos,
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
}

impl SramBuffer {
    /// Creates a buffer with explicit access costs.
    pub fn new(
        name: impl Into<String>,
        capacity_bytes: u64,
        read_energy_pj: Picojoules,
        write_energy_pj: Picojoules,
        access_ns: Nanos,
    ) -> Self {
        SramBuffer {
            name: name.into(),
            capacity_bytes,
            read_energy_pj,
            write_energy_pj,
            access_ns,
            reads: 0,
            writes: 0,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// The 16 KB input buffer of Table I.
    pub fn input_16kb() -> Self {
        SramBuffer::new(
            "input",
            16 * 1024,
            Picojoules::from_pj(5.0),
            Picojoules::from_pj(6.0),
            Nanos::from_ns(0.5),
        )
    }

    /// The 64 KB output buffer of Table I.
    pub fn output_64kb() -> Self {
        SramBuffer::new(
            "output",
            64 * 1024,
            Picojoules::from_pj(10.0),
            Picojoules::from_pj(12.0),
            Nanos::from_ns(0.7),
        )
    }

    /// The 512 KB attribute buffer of Table I.
    pub fn attribute_512kb() -> Self {
        SramBuffer::new(
            "attribute",
            512 * 1024,
            Picojoules::from_pj(35.0),
            Picojoules::from_pj(40.0),
            Nanos::from_ns(1.2),
        )
    }

    /// Buffer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Records a read of `bytes`, counted in 32-byte word accesses.
    pub fn read(&mut self, bytes: u64) {
        let accesses = bytes
            .div_ceil(ACCESS_WORD_BYTES)
            .max(if bytes > 0 { 1 } else { 0 });
        self.reads = self.reads.saturating_add(accesses);
        self.bytes_read = self.bytes_read.saturating_add(bytes);
    }

    /// Records a write of `bytes`, counted in 32-byte word accesses.
    pub fn write(&mut self, bytes: u64) {
        let accesses = bytes
            .div_ceil(ACCESS_WORD_BYTES)
            .max(if bytes > 0 { 1 } else { 0 });
        self.writes = self.writes.saturating_add(accesses);
        self.bytes_written = self.bytes_written.saturating_add(bytes);
    }

    /// Total word accesses so far.
    pub fn accesses(&self) -> u64 {
        self.reads.saturating_add(self.writes)
    }

    /// Total energy so far in nanojoules.
    pub fn energy_nj(&self) -> Nanojoules {
        let read_pj = self.read_energy_pj * self.reads;
        (read_pj + self.write_energy_pj * self.writes).to_nanojoules()
    }

    /// Serial access latency so far (buffers are banked, so engines
    /// typically hide most of this behind crossbar latency; the figure is
    /// exposed for pessimistic bounds).
    pub fn serial_latency_ns(&self) -> Nanos {
        self.access_ns * self.accesses()
    }

    /// Adds another buffer's access counters into this one (the
    /// configuration is untouched) — used when a primary engine absorbs
    /// the buffer traffic of sibling worker engines after a sharded run.
    pub fn merge(&mut self, other: &SramBuffer) {
        self.reads = self.reads.saturating_add(other.reads);
        self.writes = self.writes.saturating_add(other.writes);
        self.bytes_read = self.bytes_read.saturating_add(other.bytes_read);
        self.bytes_written = self.bytes_written.saturating_add(other.bytes_written);
    }

    /// Resets the counters, keeping the configuration.
    pub fn reset(&mut self) {
        self.reads = 0;
        self.writes = 0;
        self.bytes_read = 0;
        self.bytes_written = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_counting_rounds_to_words() {
        let mut b = SramBuffer::input_16kb();
        b.read(1); // 1 byte -> 1 word access
        b.read(64); // 64 bytes -> 2 word accesses
        b.write(33); // -> 2 word accesses
        assert_eq!(b.accesses(), 5);
    }

    #[test]
    fn zero_byte_access_is_free() {
        let mut b = SramBuffer::input_16kb();
        b.read(0);
        b.write(0);
        assert_eq!(b.accesses(), 0);
        assert_eq!(b.energy_nj(), Nanojoules::ZERO);
    }

    #[test]
    fn energy_scales_with_accesses() {
        let mut b = SramBuffer::new(
            "t",
            1024,
            Picojoules::from_pj(10.0),
            Picojoules::from_pj(20.0),
            Nanos::from_ns(1.0),
        );
        b.read(32);
        b.write(32);
        assert!((b.energy_nj().nj() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn presets_match_table1_capacities() {
        assert_eq!(SramBuffer::input_16kb().capacity_bytes(), 16 * 1024);
        assert_eq!(SramBuffer::output_64kb().capacity_bytes(), 64 * 1024);
        assert_eq!(SramBuffer::attribute_512kb().capacity_bytes(), 512 * 1024);
    }

    #[test]
    fn bigger_buffers_cost_more_per_access() {
        let small = SramBuffer::input_16kb();
        let big = SramBuffer::attribute_512kb();
        assert!(big.read_energy_pj > small.read_energy_pj);
    }

    #[test]
    fn merge_sums_counters_and_energy() {
        let mut a = SramBuffer::input_16kb();
        let mut b = SramBuffer::input_16kb();
        a.read(64);
        b.read(64);
        b.write(32);
        let solo_energy = a.energy_nj();
        a.merge(&b);
        assert_eq!(a.accesses(), 5);
        assert!(a.energy_nj() > solo_energy);
        // Merging is equivalent to having issued the accesses locally.
        let mut c = SramBuffer::input_16kb();
        c.read(64);
        c.read(64);
        c.write(32);
        assert_eq!(a, c);
    }

    #[test]
    fn reset_clears_counters() {
        let mut b = SramBuffer::output_64kb();
        b.read(100);
        b.reset();
        assert_eq!(b.accesses(), 0);
        assert_eq!(b.energy_nj(), Nanojoules::ZERO);
    }
}

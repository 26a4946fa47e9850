//! Per-tenant usage accounting for the serving layer.
//!
//! A multi-tenant server bills every query — completed, timed out, or
//! failed — to the tenant that issued it, in modeled nanoseconds of
//! device time plus the energy and operation counts behind them. The
//! ledger is the *single source of truth* for "how much did tenant X
//! consume": admission control reads it for quota checks, and the soak
//! harness cross-checks it against the per-response billing stream.
//!
//! # Exact conservation
//!
//! Bills are integer ticks ([`Nanos`], [`Nanojoules`]), whose sums are
//! exact and associative. Any recomputation from the same billing events,
//! grouped or ordered in any way, reproduces each tenant's bill and
//! [`TenantLedger::total_billed_ns`] exactly.

use std::collections::BTreeMap;

use crate::report::OpSummary;
use crate::units::{Nanojoules, Nanos};

/// Cumulative usage of one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantUsage {
    /// Queries admitted past admission control (whatever their outcome).
    pub admitted: u64,
    /// Queries that completed successfully.
    pub completed: u64,
    /// Queries rejected at admission (overload, quota, unknown graph or
    /// invalid timing) — never billed.
    pub rejected: u64,
    /// Admitted queries that ended in a typed failure (deadline, device
    /// fault, internal error). Partial work is still billed.
    pub failed: u64,
    /// Total modeled device time billed.
    pub billed_ns: Nanos,
    /// Total modeled energy billed.
    pub energy_nj: Nanojoules,
    /// Operation counts behind the bill.
    pub ops: OpSummary,
}

/// String-keyed per-tenant usage ledger (see module docs).
#[derive(Debug, Clone, Default)]
pub struct TenantLedger {
    tenants: BTreeMap<String, TenantUsage>,
}

impl TenantLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        TenantLedger::default()
    }

    fn entry(&mut self, tenant: &str) -> &mut TenantUsage {
        // Billing events are per-query, not per-op, so the key clone is
        // cheap relative to the work being billed.
        self.tenants.entry(tenant.to_string()).or_default()
    }

    /// Records an admitted query's bill: modeled time, energy, and the
    /// operation counts behind them. Call once per billing event.
    pub fn record_billed(&mut self, tenant: &str, ns: Nanos, energy: Nanojoules, ops: &OpSummary) {
        let u = self.entry(tenant);
        u.admitted = u.admitted.saturating_add(1);
        u.billed_ns += ns;
        u.energy_nj += energy;
        u.ops.merge(ops);
    }

    /// Marks the tenant's most recent billed query as completed.
    pub fn record_completed(&mut self, tenant: &str) {
        let u = self.entry(tenant);
        u.completed = u.completed.saturating_add(1);
    }

    /// Marks the tenant's most recent billed query as failed (typed
    /// error after admission; any partial bill was already recorded).
    pub fn record_failed(&mut self, tenant: &str) {
        let u = self.entry(tenant);
        u.failed = u.failed.saturating_add(1);
    }

    /// Records a rejection at admission control (no bill).
    pub fn record_rejected(&mut self, tenant: &str) {
        let u = self.entry(tenant);
        u.rejected = u.rejected.saturating_add(1);
    }

    /// The usage record for `tenant`, if it has appeared in the ledger.
    pub fn usage(&self, tenant: &str) -> Option<&TenantUsage> {
        self.tenants.get(tenant)
    }

    /// Total modeled time billed to `tenant` (zero if unseen).
    pub fn billed_ns(&self, tenant: &str) -> Nanos {
        self.tenants
            .get(tenant)
            .map_or(Nanos::ZERO, |u| u.billed_ns)
    }

    /// Total modeled time billed across all tenants.
    pub fn total_billed_ns(&self) -> Nanos {
        self.tenants.values().map(|u| u.billed_ns).sum()
    }

    /// Total energy billed across all tenants.
    pub fn total_energy_nj(&self) -> Nanojoules {
        self.tenants.values().map(|u| u.energy_nj).sum()
    }

    /// The fraction of all billed time consumed by `tenant` (0.0 when
    /// nothing has been billed yet) — the soak harness's utilization
    /// column.
    pub fn billed_share(&self, tenant: &str) -> f64 {
        let total = self.total_billed_ns();
        if total == Nanos::ZERO {
            0.0
        } else {
            self.billed_ns(tenant) / total
        }
    }

    /// Iterates tenants in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TenantUsage)> {
        self.tenants.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of tenants seen.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// `true` when no tenant has appeared yet.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bills_accumulate_per_tenant() {
        let mut ledger = TenantLedger::new();
        let ops = OpSummary {
            mac_ops: 3,
            ..OpSummary::new()
        };
        ledger.record_billed("acme", Nanos::from_ns(10.0), Nanojoules::from_nj(1.0), &ops);
        ledger.record_billed("acme", Nanos::from_ns(5.0), Nanojoules::from_nj(0.5), &ops);
        ledger.record_completed("acme");
        ledger.record_failed("acme");
        ledger.record_rejected("zeta");

        let acme = ledger.usage("acme").unwrap();
        assert_eq!(acme.admitted, 2);
        assert_eq!(acme.completed, 1);
        assert_eq!(acme.failed, 1);
        assert_eq!(acme.billed_ns, Nanos::from_ns(15.0));
        assert_eq!(acme.ops.mac_ops, 6);
        let zeta = ledger.usage("zeta").unwrap();
        assert_eq!(zeta.rejected, 1);
        assert_eq!(zeta.billed_ns, Nanos::ZERO);
        assert_eq!(ledger.billed_ns("ghost"), Nanos::ZERO);
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn total_and_share_over_tenants() {
        let mut ledger = TenantLedger::new();
        let zero = OpSummary::new();
        ledger.record_billed("gamma", Nanos::from_ns(0.3), Nanojoules::ZERO, &zero);
        ledger.record_billed("alpha", Nanos::from_ns(0.1), Nanojoules::ZERO, &zero);
        ledger.record_billed("beta", Nanos::from_ns(0.2), Nanojoules::ZERO, &zero);
        assert_eq!(ledger.total_billed_ns(), Nanos::from_ns(0.6));
        assert_eq!(ledger.billed_share("beta"), 1.0 / 3.0);
        assert_eq!(ledger.billed_share("ghost"), 0.0);
    }

    #[test]
    fn empty_ledger_has_zero_totals() {
        let ledger = TenantLedger::new();
        assert!(ledger.is_empty());
        assert_eq!(ledger.total_billed_ns(), Nanos::ZERO);
        assert_eq!(ledger.total_energy_nj(), Nanojoules::ZERO);
        assert_eq!(ledger.billed_share("anyone"), 0.0);
    }
}

package mem

import "sdrad/internal/telemetry"

// SetTelemetry attaches a recorder to the address space: raised faults
// are recorded as flight events, and the MMU's native counters (mapped
// bytes, fault total, TLB shootdowns) are mirrored into the registry via
// callbacks — the hot paths gain no writes. With no recorder attached the
// only added cost anywhere in this package is one atomic pointer load on
// the (already cold) fault path.
func (as *AddressSpace) SetTelemetry(rec *telemetry.Recorder) {
	as.tel.Store(rec)
	if rec == nil {
		return
	}
	reg := rec.Registry()
	reg.GaugeFunc("sdrad_mapped_bytes",
		"Mapped page bytes in the simulated address space (RSS analog).",
		func() int64 { return as.stats.MappedBytes.Load() })
	reg.CounterFunc("sdrad_mmu_faults_total",
		"Memory faults raised by the simulated MMU (all si_codes).",
		func() int64 { return as.stats.Faults.Load() })
	reg.CounterFunc("sdrad_tlb_shootdowns_total",
		"TLB shootdown IPIs broadcast by page-table mutators.",
		func() int64 { return as.shootdowns.Load() })
	reg.CounterFunc("sdrad_lease_grants_total",
		"Span leases granted after a full verification walk.",
		func() int64 { return as.leaseGrants.Load() })
	reg.CounterFunc("sdrad_lease_renewals_total",
		"Stale span leases renewed by a full re-verification walk.",
		func() int64 { return as.leaseRenewals.Load() })
	reg.CounterFunc("sdrad_lease_refusals_total",
		"Span lease grant/renew refusals (callers fell back to checked accessors).",
		func() int64 { return as.leaseRefusals.Load() })
	reg.CounterFunc("sdrad_lease_invalidations_total",
		"Address-space-wide lease invalidations (one per page-table shootdown).",
		func() int64 { return int64(as.leaseEpoch.Load()) })
}

// Telemetry returns the attached recorder, or nil.
func (as *AddressSpace) Telemetry() *telemetry.Recorder { return as.tel.Load() }

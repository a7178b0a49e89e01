package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/telemetry"
)

// faultGuard runs one guarded round in domain 1: malloc, enter, then
// either a store to an unmapped address (fault=true) or a clean exit.
func faultGuard(t *testing.T, l *Library, th *proc.Thread, addr mem.Addr, fault bool) error {
	t.Helper()
	return l.Guard(th, 1, func() error {
		if _, err := l.Malloc(th, 1, 64); err != nil {
			return err
		}
		if err := l.Enter(th, 1); err != nil {
			return err
		}
		if !fault {
			return l.Exit(th)
		}
		th.CPU().WriteU8(addr, 1)
		return nil
	}, Accessible())
}

func TestRewindForensicsReportFields(t *testing.T) {
	rec := telemetry.New(telemetry.Options{TransitionSampleShift: -1})
	p, l := newLib(t, WithTelemetry(rec))
	run(t, p, func(th *proc.Thread) error {
		err := faultGuard(t, l, th, 0xDEAD0000, true)
		var abn *AbnormalExit
		if !errors.As(err, &abn) {
			t.Fatalf("err = %v, want AbnormalExit", err)
		}
		if rec.Forensics().Added() != 1 {
			t.Fatalf("forensics Added() = %d, want 1", rec.Forensics().Added())
		}
		rep, ok := rec.Forensics().Last()
		if !ok {
			t.Fatal("no forensics report retained")
		}
		if rep.Seq != 1 || rep.RewindCount != 1 {
			t.Errorf("seq/rewind_count = %d/%d, want 1/1", rep.Seq, rep.RewindCount)
		}
		if rep.FailedUDI != int(abn.FailedUDI) || rep.FailedUDI != 1 {
			t.Errorf("failed_udi = %d, want %d", rep.FailedUDI, abn.FailedUDI)
		}
		if rep.SignalName != "SIGSEGV" || rep.Signal != int(sig.SIGSEGV) {
			t.Errorf("signal = %d/%q, want SIGSEGV", rep.Signal, rep.SignalName)
		}
		if rep.SiCode != int(mem.CodeMapErr) || rep.SiCodeName != "SEGV_MAPERR" {
			t.Errorf("si_code = %d/%q, want SEGV_MAPERR", rep.SiCode, rep.SiCodeName)
		}
		if rep.Addr != 0xDEAD0000 {
			t.Errorf("addr = %#x, want 0xDEAD0000", rep.Addr)
		}
		if n := len(rep.DomainStack); n == 0 || rep.DomainStack[n-1] != 1 {
			t.Errorf("domain_stack = %v, want failing domain 1 last", rep.DomainStack)
		}
		if rep.HeapBytes == 0 || rep.HeapPages == 0 || rep.StackBytes == 0 || rep.StackPages == 0 {
			t.Errorf("discard accounting empty: %+v", rep)
		}
		if rep.LiveAllocs != 1 {
			t.Errorf("live_allocs = %d, want 1 (one malloc, never freed)", rep.LiveAllocs)
		}
		if rep.Injected {
			t.Error("organic fault reported as injected")
		}
		if rep.TimeNs <= 0 {
			t.Errorf("time_ns = %d, want > 0", rep.TimeNs)
		}
		if rep.ThreadName != "main" {
			t.Errorf("thread_name = %q, want main", rep.ThreadName)
		}
		if rep.RewindLimit != 0 {
			t.Errorf("rewind_limit = %d, want 0 (unlimited)", rep.RewindLimit)
		}
		return nil
	})

	// The fault, the rewind, and the sampled transitions must all be on
	// the flight record; the rewind metric must carry the si_code label.
	kinds := map[string]bool{}
	for _, ev := range rec.Flight().Snapshot() {
		kinds[ev.Kind] = true
	}
	for _, k := range []string{"enter", "fault", "rewind"} {
		if !kinds[k] {
			t.Errorf("flight record missing %q event (have %v)", k, kinds)
		}
	}
	var b strings.Builder
	if err := rec.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`sdrad_rewinds_total{si_code="SEGV_MAPERR"} 1`,
		`sdrad_domain_faults_total{udi="1"} 1`,
		"sdrad_domain_transitions_total",
		"sdrad_monitor_calls_total",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestStackCanaryForensics(t *testing.T) {
	// A canary-detected rewind has no memory fault: the report must say
	// SIGABRT/STACK_CHK and carry no faulting address.
	rec := telemetry.New(telemetry.Options{})
	p, l := newLib(t, WithTelemetry(rec))
	run(t, p, func(th *proc.Thread) error {
		err := l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			d := l.state(th).current
			f, err := d.stk.PushFrame(th.CPU(), 32)
			if err != nil {
				return err
			}
			th.CPU().Memset(f.Locals(), 0x41, 32+8+8)
			return l.Exit(th)
		})
		var abn *AbnormalExit
		if !errors.As(err, &abn) {
			t.Fatalf("err = %v, want AbnormalExit", err)
		}
		return nil
	})
	rep, ok := rec.Forensics().Last()
	if !ok {
		t.Fatal("no forensics report for canary rewind")
	}
	if rep.SignalName != "SIGABRT" || rep.SiCodeName != "STACK_CHK" {
		t.Fatalf("canary report = %s/%s, want SIGABRT/STACK_CHK", rep.SignalName, rep.SiCodeName)
	}
}

// scenarioResult captures everything externally observable about a fault
// scenario: what the guards returned, what the MMU logged, and how many
// rewinds the monitor absorbed.
type scenarioResult struct {
	exits   []AbnormalExit
	faults  []mem.FaultRecord
	rewinds int64
}

// runFaultScenario drives a fixed schedule — fault, clean round, fault —
// against a fresh process built with opts.
func runFaultScenario(t *testing.T, opts ...SetupOption) scenarioResult {
	t.Helper()
	p, l := newLib(t, opts...)
	var res scenarioResult
	run(t, p, func(th *proc.Thread) error {
		for i, fault := range []bool{true, false, true} {
			err := faultGuard(t, l, th, 0xDEAD0000+mem.Addr(i)<<12, fault)
			if !fault {
				if err != nil {
					t.Fatalf("clean round %d failed: %v", i, err)
				}
				continue
			}
			var abn *AbnormalExit
			if !errors.As(err, &abn) {
				t.Fatalf("round %d: err = %v, want AbnormalExit", i, err)
			}
			cp := *abn
			cp.Cause = nil // pointer identity differs across runs by construction
			res.exits = append(res.exits, cp)
		}
		return nil
	})
	res.faults = p.AddressSpace().RecentFaults()
	res.rewinds = l.Stats().Rewinds.Load()
	return res
}

// TestFaultSemanticsUnchangedByTelemetry is the regression guard for the
// recorder's observer role: with an attached recorder (sampling every
// transition, the most intrusive setting) the guards must return
// bit-identical AbnormalExits, the MMU must log a bit-identical fault
// sequence, and the monitor must absorb the same number of rewinds as a
// run with telemetry off.
func TestFaultSemanticsUnchangedByTelemetry(t *testing.T) {
	plain := runFaultScenario(t)
	rec := telemetry.New(telemetry.Options{TransitionSampleShift: -1})
	traced := runFaultScenario(t, WithTelemetry(rec))

	if !reflect.DeepEqual(plain.exits, traced.exits) {
		t.Errorf("AbnormalExits diverge:\n plain: %+v\ntraced: %+v", plain.exits, traced.exits)
	}
	if !reflect.DeepEqual(plain.faults, traced.faults) {
		t.Errorf("MMU fault logs diverge:\n plain: %+v\ntraced: %+v", plain.faults, traced.faults)
	}
	if plain.rewinds != traced.rewinds {
		t.Errorf("rewind counts diverge: plain %d, traced %d", plain.rewinds, traced.rewinds)
	}
	// And the recorder saw what the run produced: one report per rewind,
	// each matching the logged fault that caused it.
	if got := rec.Forensics().Added(); got != traced.rewinds {
		t.Fatalf("forensics Added() = %d, want %d (one report per rewind)", got, traced.rewinds)
	}
	reports := rec.Forensics().Reports()
	if len(reports) != len(traced.exits) {
		t.Fatalf("retained %d reports, want %d", len(reports), len(traced.exits))
	}
	for i, rep := range reports {
		if rep.SiCode != traced.exits[i].Code || rep.Addr != traced.exits[i].Addr {
			t.Errorf("report %d (code=%d addr=%#x) does not match exit (code=%d addr=%#x)",
				i, rep.SiCode, rep.Addr, traced.exits[i].Code, traced.exits[i].Addr)
		}
	}
}

func TestSingleThreadedLoopFeedsEnterAndExitLatency(t *testing.T) {
	// Default sampling (1 transition pair in 16). One thread alternates
	// Enter and Exit, so Enter always sees an even switch count and Exit
	// an odd one: sampling keyed on the raw count never clocked an Exit.
	rec := telemetry.New(telemetry.Options{})
	p, l := newLib(t, WithTelemetry(rec))
	const rounds = 64
	run(t, p, func(th *proc.Thread) error {
		for i := 0; i < rounds; i++ {
			if err := faultGuard(t, l, th, 0, false); err != nil {
				return err
			}
		}
		return nil
	})
	reg := rec.Registry()
	enter := reg.Histogram("sdrad_enter_latency_ns", "").Count()
	exit := reg.Histogram("sdrad_exit_latency_ns", "").Count()
	if enter != rounds/16 || exit != rounds/16 {
		t.Fatalf("enter/exit latency samples = %d/%d over %d rounds, want %d each", enter, exit, rounds, rounds/16)
	}
}

func TestGuardScopeAllocatesNothingAndLeasesItsLedgerSlot(t *testing.T) {
	// One guard scope — Guard{Enter; Exit} — makes three monitor calls.
	// None allocates (the return record is held by value), and their
	// ledger records land through the thread's slot lease: the only
	// checked accesses left in a scope are the return record's canary
	// write and its verification.
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if err := guardScope(l, th); err != nil { // creates the domain
			return err
		}
		if n := testing.AllocsPerRun(100, func() { _ = guardScope(l, th) }); n != 0 {
			t.Errorf("guard scope allocates %.0f times, want 0", n)
		}
		const scopes = 50
		stats := p.AddressSpace().Stats()
		mem0, calls0 := stats.Snapshot(), l.Stats().MonitorCalls.Load()
		for i := 0; i < scopes; i++ {
			if err := guardScope(l, th); err != nil {
				return err
			}
		}
		d := stats.Snapshot().Sub(mem0)
		if d.Reads != scopes || d.Writes != scopes {
			t.Errorf("checked accesses over %d scopes: %d reads, %d writes; want one of each per scope",
				scopes, d.Reads, d.Writes)
		}
		if got := l.Stats().MonitorCalls.Load() - calls0; got != 3*scopes {
			t.Errorf("monitor calls = %d over %d scopes, want %d", got, scopes, 3*scopes)
		}
		if rep := l.Audit(th); !rep.Ok() || rep.LedgerCalls != uint64(rep.MonitorCalls) {
			t.Errorf("audit after leased ledger writes: ledger=%d stats=%d findings=%v",
				rep.LedgerCalls, rep.MonitorCalls, rep.Findings)
		}
		return nil
	})
}

func TestLedgerWriteStillTrapsUnderArmedInjector(t *testing.T) {
	// An armed injector refuses the ledger lease, so the record goes
	// through the checked accessors and an injected fault lands in the
	// ledger write exactly as it did before the lease existed. The thread
	// is in the root domain, so the trap is fatal to the process.
	p, l := newLib(t)
	monitorPage := l.MonitorBase() &^ (mem.PageSize - 1)
	err := p.Attach("main", func(th *proc.Thread) error {
		if err := guardScope(l, th); err != nil {
			return err
		}
		th.CPU().SetFaultInjector(func(addr mem.Addr, kind mem.AccessKind) *mem.Fault {
			if addr&^(mem.PageSize-1) != monitorPage || kind != mem.AccessWrite {
				return nil
			}
			return &mem.Fault{Kind: kind, Code: mem.CodePkuErr}
		})
		return guardScope(l, th)
	})
	var crash *proc.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want the injected ledger fault", err)
	}
	if info := crash.Info; info.Code != int(mem.CodePkuErr) || mem.Addr(info.Addr)&^(mem.PageSize-1) != monitorPage {
		t.Errorf("fault = %v, want a PKU fault on the ledger page", info)
	}
}

func TestShardedCountersSumAcrossThreadsAndSurviveExit(t *testing.T) {
	// Two threads run N scopes each, every increment on the thread's own
	// cells (run under -race: the cells are the only shared state the
	// scopes touch). The process totals are exact, agree with the ledger
	// page the audit sums, and keep a thread's share after it exits.
	p, l := newLib(t)
	const scopes = 200
	hold := make(chan struct{})
	worker := func(stay bool) func(th *proc.Thread) error {
		return func(th *proc.Thread) error {
			for i := 0; i < scopes; i++ {
				if err := guardScope(l, th); err != nil {
					return err
				}
			}
			if stay {
				<-hold
			}
			return nil
		}
	}
	h1 := p.Spawn("leaves", worker(false))
	h2 := p.Spawn("stays", worker(true))
	if err := h1.Join(); err != nil {
		t.Fatal(err)
	}
	// Thread 2 may still be running scopes: only thread 1's share is
	// settled here, and it must already sit in the retired base.
	if got := l.Stats().DomainSwitches.Load(); got < 2*scopes {
		t.Errorf("domain switches = %d after one thread finished and exited, want >= %d", got, 2*scopes)
	}
	close(hold)
	if err := h2.Join(); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if got := l.Stats().DomainSwitches.Load(); got != 4*scopes {
			t.Errorf("%s: domain switches = %d, want %d", when, got, 4*scopes)
		}
	}
	check("both threads exited")
	run(t, p, func(th *proc.Thread) error {
		check("auditing thread attached")
		rep := l.Audit(th)
		if !rep.Ok() {
			t.Errorf("audit: %v", rep.Findings)
		}
		if calls := l.Stats().MonitorCalls.Load(); calls != rep.MonitorCalls || uint64(calls) != rep.LedgerCalls {
			t.Errorf("monitor calls = %d, audit saw %d, ledger page sums to %d", calls, rep.MonitorCalls, rep.LedgerCalls)
		}
		// Two init calls and 3 per scope per thread.
		if want := int64(2 * (1 + 3*scopes)); rep.MonitorCalls != want {
			t.Errorf("monitor calls = %d, want %d", rep.MonitorCalls, want)
		}
		return nil
	})
}

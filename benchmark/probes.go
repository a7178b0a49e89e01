package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"sdrad/internal/cluster"
	"sdrad/internal/core"
	"sdrad/internal/cryptolib"
	"sdrad/internal/galloc"
	"sdrad/internal/mem"
	"sdrad/internal/memcache"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/sched"
	"sdrad/internal/stack"
	"sdrad/internal/telemetry"
	"sdrad/internal/tlsf"
	"sdrad/internal/ycsb"
)

const (
	// probeBatches is the batches each direct probe is timed over; the
	// least ns per call is reported. Noise on a shared box only ever adds
	// time, so the minimum tracks the cost a code change moves.
	probeBatches = 5
	// probeBatchTime is the length a batch is calibrated to last.
	probeBatchTime = 8 * time.Millisecond
)

// probeSink keeps the compiler from discarding a probed call's result.
var probeSink uint64

// prober times calls into each layer's public functions, each probe as a
// probe.<metric> span.
type prober struct {
	tracer *tracer
	batch  time.Duration // what a batch is calibrated to last
	out    map[string]float64
}

// time runs fn(n) — n calls of the probed function — in probeBatches
// calibrated batches and records the least ns per call under name.
func (p *prober) time(name string, fn func(n int)) float64 {
	defer p.tracer.enter("probe." + name)()
	n := 16
	for {
		t0 := time.Now()
		fn(n)
		if el := time.Since(t0); el >= p.batch/4 {
			n = max(1, int(float64(n)*float64(p.batch)/float64(el)))
			break
		}
		n *= 4
	}
	best := 0.0
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		fn(n)
		if ns := float64(time.Since(t0).Nanoseconds()) / float64(n); b == 0 || ns < best {
			best = ns
		}
	}
	p.out[name] = best
	return best
}

// onThread runs body on a thread of a fresh simulated process with the
// SDRaD library set up, the way every library call must run.
func onThread(name string, body func(t *proc.Thread, lib *core.Library) error, opts ...core.SetupOption) error {
	p := proc.NewProcess(name, proc.WithSeed(1))
	lib, err := core.Setup(p, opts...)
	if err != nil {
		return err
	}
	return p.Attach("probe", func(t *proc.Thread) error { return body(t, lib) })
}

// runProbes measures every direct per-layer metric. The probes are the
// same for every workload; seed only picks the mc_d1 request stream the
// memcache probes replay.
func runProbes(tr *tracer, seed int64, batch time.Duration) (map[string]float64, error) {
	defer tr.enter("probes")()
	p := &prober{tracer: tr, batch: batch, out: map[string]float64{}}
	for _, group := range []func() error{
		p.env, p.mem, p.allocators, p.core, p.control, p.crypto,
		func() error { return p.memcache(seed) },
	} {
		if err := group(); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	return p.out, nil
}

// env.calib_ns is a fixed ALU loop: the machine-speed witness to read the
// other nanosecond figures against.
func (p *prober) env() error {
	p.time("env.calib_ns", func(n int) {
		x := uint64(88172645463325252)
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		probeSink += x
	})
	return nil
}

func (p *prober) mem() error {
	as := mem.NewAddressSpace()
	// Twice the TLB's reach: a cyclic walk misses on every access.
	const missPages = 512
	addr, err := as.MapAnon(missPages*mem.PageSize, mem.ProtRW, 0)
	if err != nil {
		return err
	}
	c := as.NewCPU()
	p.time("mem.translate_hit_ns", func(n int) {
		for i := 0; i < n; i++ {
			probeSink += uint64(c.ReadU8(addr))
		}
	})
	p.time("mem.translate_miss_ns", func(n int) {
		for i := 0; i < n; i++ {
			probeSink += uint64(c.ReadU8(addr + mem.Addr(i%missPages)*mem.PageSize))
		}
	})
	p.time("mem.read_u64_ns", func(n int) {
		for i := 0; i < n; i++ {
			probeSink += c.ReadU64(addr + 8)
		}
	})
	p.time("mem.read_run_1k_ns", func(n int) {
		for i := 0; i < n; i++ {
			probeSink += uint64(len(c.ReadRun(addr, valueSize)))
		}
	})
	p.time("mem.write_run_1k_ns", func(n int) {
		for i := 0; i < n; i++ {
			probeSink += uint64(len(c.WriteRun(addr, valueSize)))
		}
	})
	const span = 16 * 1024 // a connection buffer
	p.time("mem.lease_new_ns", func(n int) {
		for i := 0; i < n; i++ {
			l := c.NewLease(addr, span, mem.AccessRead)
			probeSink += uint64(l.Len())
		}
	})
	l := c.NewLease(addr, span, mem.AccessRead)
	if !l.Valid() {
		return errors.New("mem: lease over a mapped span refused")
	}
	p.time("mem.lease_valid_ns", func(n int) {
		for i := 0; i < n; i++ {
			if l.Valid() {
				probeSink++
			}
		}
	})
	p.time("mem.lease_renew_ns", func(n int) {
		for i := 0; i < n; i++ {
			c.InvalidateLeases()
			if l.Renew() {
				probeSink++
			}
		}
	})
	p.time("mem.wrpkru_ns", func(n int) {
		for i := 0; i < n; i++ {
			c.WRPKRU(mem.PKRUInit ^ uint32(i&1)<<4)
		}
		c.WRPKRU(mem.PKRUInit)
	})
	return nil
}

func (p *prober) allocators() error {
	as := mem.NewAddressSpace()
	c := as.NewCPU()
	const region = 1 << 20
	tbase, err := as.MapAnon(3*region, mem.ProtRW, 0)
	if err != nil {
		return err
	}
	gbase, sbase := tbase+region, tbase+2*region
	th, err := tlsf.Init(c, tbase, region)
	if err != nil {
		return err
	}
	gh, err := galloc.Init(c, gbase, region)
	if err != nil {
		return err
	}
	var ferr error
	p.time("tlsf.alloc_free_1k_ns", func(n int) {
		for i := 0; i < n; i++ {
			ptr, err := th.Alloc(c, valueSize)
			if err == nil {
				err = th.Free(c, ptr)
			}
			if err != nil {
				ferr = err
			}
		}
	})
	p.time("galloc.alloc_free_1k_ns", func(n int) {
		for i := 0; i < n; i++ {
			ptr, err := gh.Alloc(c, valueSize)
			if err == nil {
				err = gh.Free(c, ptr)
			}
			if err != nil {
				ferr = err
			}
		}
	})
	stk := stack.New(sbase, region, 0x5d4ad)
	p.time("stack.frame_push_pop_ns", func(n int) {
		for i := 0; i < n; i++ {
			f, err := stk.PushFrame(c, 64)
			if err == nil {
				err = f.Pop(c)
			}
			if err != nil {
				ferr = err
			}
		}
	})
	return ferr
}

func (p *prober) core() error {
	return onThread("probe-core", func(t *proc.Thread, lib *core.Library) error {
		var ferr error
		scope := func() error {
			return lib.Guard(t, 1, func() error {
				if err := lib.Enter(t, 1); err != nil {
					return err
				}
				return lib.Exit(t)
			}, core.Accessible())
		}
		// One guard scope around one Enter/Exit round: what the hardened
		// servers pay per client event (memcache) or per request (httpd).
		p.time("core.guard_scope_ns", func(n int) {
			for i := 0; i < n; i++ {
				if err := scope(); err != nil {
					ferr = err
				}
			}
		})
		src, err := lib.Malloc(t, core.RootUDI, valueSize)
		if err != nil {
			return err
		}
		if gerr := lib.Guard(t, 1, func() error {
			dst, err := lib.Malloc(t, 1, valueSize)
			if err != nil {
				return err
			}
			// The conn-buffer deep copy: root memory into the event domain.
			p.time("core.copy_1k_ns", func(n int) {
				for i := 0; i < n; i++ {
					lib.Copy(t, dst, src, valueSize)
				}
			})
			return nil
		}, core.Accessible()); gerr != nil {
			return gerr
		}
		// Trap inside the domain: detect, unwind, discard; the next scope
		// re-initialises the domain, so one call is a whole rewind cycle.
		p.time("core.rewind_ns", func(n int) {
			for i := 0; i < n; i++ {
				gerr := lib.Guard(t, 1, func() error {
					if err := lib.Enter(t, 1); err != nil {
						return err
					}
					t.CPU().WriteU8(0xDEAD0000, 1)
					return nil
				}, core.Accessible())
				var abn *core.AbnormalExit
				if !errors.As(gerr, &abn) {
					ferr = fmt.Errorf("core: trap did not rewind: %v", gerr)
				}
			}
		})
		p.time("core.init_destroy_ns", func(n int) {
			for i := 0; i < n; i++ {
				err := lib.InitDomain(t, 2)
				if err == nil {
					err = lib.Destroy(t, 2, core.NoHeapMerge)
				}
				if err != nil {
					ferr = err
				}
			}
		})
		return ferr
	})
}

// control probes the decision code that is off by default (sched, policy)
// and the layers no serving workload reaches (cluster, telemetry).
func (p *prober) control() error {
	ctrl := sched.NewController(sched.Config{}, 16)
	p.time("sched.observe_round_ns", func(n int) {
		for i := 0; i < n; i++ {
			ctrl.ObserveRound(i&3, 8, 20000)
		}
	})
	loads := []sched.WorkerLoad{{Queue: 1, EWMAItemNs: 2500}, {Queue: 2, EWMAItemNs: 2400}}
	p.time("sched.placement_pick_ns", func(n int) {
		for i := 0; i < n; i++ {
			probeSink += uint64(sched.PlacementPick(loads, i))
		}
	})
	// A short window and unreachable thresholds keep the engine on the
	// path every healthy domain takes: admit, or count one more rewind.
	const never = 1 << 30
	eng := policy.New(policy.Config{Window: time.Millisecond, BackoffThreshold: never, QuarantineThreshold: never, ShedThreshold: -1})
	p.time("policy.admit_ns", func(n int) {
		for i := 0; i < n; i++ {
			if eng.Admit(1).Allowed() {
				probeSink++
			}
		}
	})
	p.time("policy.on_rewind_ns", func(n int) {
		for i := 0; i < n; i++ {
			if eng.OnRewind(1).Allowed() {
				probeSink++
			}
		}
	})

	ring, err := cluster.NewRing([]string{"b0", "b1", "b2"}, 0)
	if err != nil {
		return err
	}
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = ycsb.Key(i)
	}
	p.time("cluster.ring_primary_ns", func(n int) {
		for i := 0; i < n; i++ {
			probeSink += uint64(ring.Primary(keys[i%len(keys)]))
		}
	})

	rec := telemetry.New(telemetry.Options{})
	hist := rec.Registry().Histogram("benchmark_probe", "Probe observations.")
	p.time("telemetry.hist_observe_ns", func(n int) {
		for i := 0; i < n; i++ {
			hist.Observe(int64(i))
		}
	})
	p.time("telemetry.flight_record_ns", func(n int) {
		for i := 0; i < n; i++ {
			rec.RecordDomainInit(1, 1, 0, 4096)
		}
	})
	return nil
}

func (p *prober) crypto() error {
	key := bytes.Repeat([]byte{0x5A}, 32)
	for _, mode := range []cryptolib.Mode{cryptolib.ModeNative, cryptolib.ModeCopyOut, cryptolib.ModeCopyBoth, cryptolib.ModeShared} {
		err := onThread("probe-crypto", func(t *proc.Thread, lib *core.Library) error {
			cr, err := cryptolib.NewCrypto(t, lib, cryptolib.NewEngine(), mode, key, 65536)
			if err != nil {
				return err
			}
			in, out := cr.DataBuf(), cr.SharedOut()
			if mode != cryptolib.ModeShared {
				if in, err = lib.Malloc(t, core.RootUDI, valueSize); err != nil {
					return err
				}
				if out, err = lib.Malloc(t, core.RootUDI, valueSize+cryptolib.GCMTagSize); err != nil {
					return err
				}
			}
			t.CPU().Memset(in, 0x61, valueSize)
			var ferr error
			p.time("cryptolib.encrypt_1k_ns."+mode.String(), func(n int) {
				for i := 0; i < n; i++ {
					if _, err := cr.EncryptUpdate(t, out, in, valueSize); err != nil {
						ferr = err
					}
				}
			})
			return ferr
		}, core.WithRootHeapSize(4<<20))
		if err != nil {
			return err
		}
	}
	return onThread("probe-x509", func(t *proc.Thread, lib *core.Library) error {
		v := cryptolib.NewVerifier(lib, 4096)
		good := cryptolib.FormatCertificate("client", "client@example.org")
		evil := cryptolib.MaliciousCertificate()
		var ferr error
		p.time("cryptolib.verify_ns", func(n int) {
			for i := 0; i < n; i++ {
				if res, err := v.Verify(t, good); err != nil || !res.Valid {
					ferr = fmt.Errorf("cryptolib: good certificate rejected: %v", err)
				}
			}
		})
		p.time("cryptolib.verify_rewind_ns", func(n int) {
			for i := 0; i < n; i++ {
				_, err := v.Verify(t, evil)
				var abn *core.AbnormalExit
				if !errors.As(err, &abn) {
					ferr = fmt.Errorf("cryptolib: malicious certificate did not rewind: %v", err)
				}
			}
		})
		return ferr
	})
}

// memcache replays the mc_d1 stream against loaded servers without the
// worker hand-off (RunInline), with it (Conn.Do from one client), and
// calls Storage directly on a worker's thread.
func (p *prober) memcache(seed int64) error {
	w := findWorkload("mc_d1")
	st, err := newStream(w, seed)
	if err != nil {
		return err
	}
	// replay times do over the stream, checking every reply.
	replay := func(name string, do func(req []byte) ([]byte, bool, error)) (float64, error) {
		var ferr error
		pos := 0
		ns := p.time(name, func(n int) {
			for i := 0; i < n; i++ {
				var burst [1][]byte
				pos = st.fill(burst[:], 0, pos)
				resp, closed, err := do(burst[0])
				if closed, err = checkMemcache(burst[0], resp, closed, err, false); err != nil || closed {
					ferr = fmt.Errorf("%s: closed=%v err=%v", name, closed, err)
				}
			}
		})
		return ns, ferr
	}
	inline := func(name string, hardened bool) (*memcache.Server, float64, error) {
		srv, err := buildServer(w, st, hardened, nil)
		if err != nil {
			return nil, 0, err
		}
		s := srv.(*mcServer).s
		var ns float64
		err = s.RunInline("probe", func(newConn func() *memcache.Conn, do memcache.InlineDo) error {
			conn := newConn()
			var err error
			ns, err = replay(name, func(req []byte) ([]byte, bool, error) { return do(conn, req) })
			return err
		})
		return s, ns, err
	}
	vanilla, _, err := inline("memcache.inline_vanilla_ns", false)
	if vanilla != nil {
		vanilla.Stop()
	}
	if err != nil {
		return err
	}
	s, inlineNs, err := inline("memcache.inline_sdrad_ns", true)
	if s != nil {
		defer s.Stop()
	}
	if err != nil {
		return err
	}
	// The same stream through the worker's channel: what is left after
	// subtracting the inline cost is the hand-off.
	channelNs, err := replay("memcache.handoff_ns", s.NewConn().Do)
	if err != nil {
		return err
	}
	p.out["memcache.handoff_ns"] = channelNs - inlineNs
	return s.NewConn().Inspect(func(t *proc.Thread) error { return p.storage(t, s.Storage()) })
}

// storage calls the shared database directly, on the worker thread that
// owns the rights to it.
func (p *prober) storage(t *proc.Thread, st *memcache.Storage) error {
	c := t.CPU()
	const keys = 1024
	key := make([][]byte, keys)
	val := make([][]byte, keys)
	for i := range key {
		key[i], val[i] = []byte(ycsb.Key(i)), ycsb.Value(i, valueSize)
	}
	var ferr error
	p.time("storage.get_ns", func(n int) {
		for i := 0; i < n; i++ {
			v, _, ok := st.Get(c, key[i%keys])
			if !ok || len(v) != valueSize {
				ferr = fmt.Errorf("storage: get of loaded key %s missed", key[i%keys])
			}
		}
	})
	p.time("storage.set_ns", func(n int) {
		for i := 0; i < n; i++ {
			if err := st.Set(c, key[i%keys], val[i%keys], 0); err != nil {
				ferr = err
			}
		}
	})
	// One shard's share of a full batch: sixteen stores under one lock.
	shard := st.ShardFor(key[0])
	var ops []memcache.BatchOp
	for i := 0; i < keys && len(ops) < 16; i++ {
		if st.ShardFor(key[i]) == shard {
			ops = append(ops, memcache.BatchOp{Key: key[i], Value: val[i]})
		}
	}
	batch := p.time("storage.apply_batch_ns_per_op", func(n int) {
		for i := 0; i < n; i++ {
			if err := st.ApplyShardBatch(c, shard, ops); err != nil {
				ferr = err
			}
		}
	})
	p.out["storage.apply_batch_ns_per_op"] = batch / float64(len(ops))
	return ferr
}

// Command sdrad-memcached runs the SDRaD-hardened Memcached port as a
// real TCP server speaking (a subset of) the memcached text protocol.
//
// Usage:
//
//	sdrad-memcached [-addr 127.0.0.1:11311] [-workers 4] [-variant sdrad]
//
// Try it with a TCP client:
//
//	printf 'set k 0 0 5\r\nhello\r\n' | nc 127.0.0.1 11311
//	printf 'get k\r\n'                | nc 127.0.0.1 11311
//
// Attack it (CVE-2011-4971 analog) and watch it survive in sdrad mode —
// or die in vanilla mode:
//
//	printf 'bset k 67108864 0\r\n\r\n' | nc 127.0.0.1 11311
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"sdrad/internal/host"
	"sdrad/internal/memcache"
	"sdrad/internal/policy"
	"sdrad/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdrad-memcached:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdrad-memcached", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:11311", "listen address")
	workers := fs.Int("workers", 4, "worker threads")
	variantName := fs.String("variant", "sdrad", "build variant: vanilla, tlsf, or sdrad")
	cacheMB := fs.Int("cache-mb", 64, "cache memory limit (MiB)")
	shards := fs.Int("shards", 8, "lock-striped storage shards (power of two)")
	maxBatch := fs.Int("max-batch", 16, "ceiling of the adaptive per-worker drain bound: the most pipelined requests one guard scope ever handles")
	telAddr := fs.String("telemetry-addr", "", "serve /metrics and /flightrecorder on this address (empty = telemetry off)")
	usePolicy := fs.Bool("policy", false, "attach the resilience-policy engine: repeated rewinds of the event domain escalate to backoff, then quarantine (gets served as misses, mutations refused), then load shedding")
	if err := fs.Parse(args); err != nil {
		return err
	}
	variant, err := host.ParseVariant(*variantName)
	if err != nil {
		return err
	}
	var rec *telemetry.Recorder
	if *telAddr != "" {
		rec = telemetry.New(telemetry.Options{})
	}
	var eng *policy.Engine
	if *usePolicy {
		eng = policy.New(policy.Config{})
	}
	s, err := memcache.NewServer(memcache.Config{
		Variant:    variant,
		Workers:    *workers,
		CacheBytes: uint64(*cacheMB) << 20,
		Shards:     *shards,
		MaxBatch:   *maxBatch,
		Telemetry:  rec,
		Policy:     eng,
	})
	if err != nil {
		return err
	}
	defer s.Stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("sdrad-memcached (%s, %d workers) listening on %s\n", variant, *workers, ln.Addr())
	if eng != nil {
		pc := eng.Config()
		fmt.Printf("policy: backoff at %d, quarantine at %d, shed at %d rewinds per %s window\n",
			pc.BackoffThreshold, pc.QuarantineThreshold, pc.ShedThreshold, pc.Window)
	}
	if rec != nil {
		bound, err := rec.Serve(*telAddr)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		fmt.Printf("telemetry on http://%s/ (/metrics, /flightrecorder, /forensics)\n", bound)
	}
	serveErr := s.ServeListener(ln)
	if crashed, cause := s.Crashed(); crashed {
		fmt.Printf("server process CRASHED: %v\n", cause)
		fmt.Printf("rewinds before crash: %d\n", s.Rewinds())
		return cause
	}
	fmt.Printf("server stopped (rewinds absorbed: %d, degraded responses: %d)\n", s.Rewinds(), s.Degraded())
	return serveErr
}

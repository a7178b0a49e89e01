// Command sdrad-router fronts a fleet of sdrad-memcached backends with
// a consistent-hash router that speaks the same memcached text protocol.
// Keys hash onto a virtual-node ring; pipelined batches are split per
// backend, flushed concurrently, and reassembled in arrival order.
// Backends whose telemetry shows a quarantined policy ladder or a rewind
// storm are demoted — their keys spill to ring successors — and readmit
// through probation once they calm down: the rewind-and-discard ladder,
// one level up.
//
// Usage:
//
//	sdrad-router -addr 127.0.0.1:11300 \
//	    -backend b0=127.0.0.1:11311,metrics=http://127.0.0.1:9311/metrics.json \
//	    -backend b1=127.0.0.1:11312 \
//	    -backend b2=127.0.0.1:11313
//
// Then point any memcached client at the router:
//
//	printf 'set k 0 0 5\r\nhello\r\n' | nc 127.0.0.1 11300
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"sdrad/internal/cluster"
	"sdrad/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdrad-router:", err)
		os.Exit(1)
	}
}

// backendFlags collects repeated -backend values.
type backendFlags []cluster.Backend

func (b *backendFlags) String() string { return fmt.Sprintf("%d backends", len(*b)) }

// Set parses "name=host:port[,metrics=URL]".
func (b *backendFlags) Set(v string) error {
	spec, metrics, _ := strings.Cut(v, ",metrics=")
	name, addr, ok := strings.Cut(spec, "=")
	if !ok || name == "" || addr == "" {
		return fmt.Errorf("backend %q: want name=host:port[,metrics=URL]", v)
	}
	*b = append(*b, cluster.Backend{Name: name, Addr: addr, MetricsURL: metrics})
	return nil
}

// run serves until the listener fails; what it reports (first of all the
// address it bound, so -addr may name port 0) goes to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sdrad-router", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:11300", "listen address")
	var backends backendFlags
	fs.Var(&backends, "backend", "backend as name=host:port[,metrics=URL]; repeat per backend")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
	poolSize := fs.Int("pool", 2, "pooled connections per backend")
	pollInterval := fs.Duration("poll-interval", 2*time.Second, "backend telemetry poll period (0 = no polling)")
	failThreshold := fs.Int("fail-threshold", 3, "consecutive exchange failures that demote a backend")
	holdOff := fs.Duration("hold-off", time.Second, "initial demotion hold-off (doubles per probation strike)")
	holdOffMax := fs.Duration("hold-off-max", 30*time.Second, "hold-off ceiling")
	probationOKs := fs.Int("probation-oks", 8, "successes a readmitted backend needs to return to full health")
	rewindRate := fs.Float64("rewind-rate", 50, "rewinds/sec of backend telemetry that trigger demotion")
	telAddr := fs.String("telemetry-addr", "", "serve router /metrics on this address (empty = telemetry off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(backends) == 0 {
		return fmt.Errorf("at least one -backend required")
	}
	var rec *telemetry.Recorder
	if *telAddr != "" {
		rec = telemetry.New(telemetry.Options{})
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Backends:     backends,
		VirtualNodes: *vnodes,
		PoolSize:     *poolSize,
		PollInterval: *pollInterval,
		Health: cluster.HealthConfig{
			FailThreshold: *failThreshold,
			HoldOff:       *holdOff,
			HoldOffMax:    *holdOffMax,
			ProbationOKs:  *probationOKs,
			RewindRate:    *rewindRate,
		},
		Telemetry: rec,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(out, "router: "+format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	defer rt.Stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sdrad-router listening on %s (%d backends, %d vnodes each)\n",
		ln.Addr(), len(backends), *vnodes)
	for _, b := range backends {
		probe := "no telemetry"
		if b.MetricsURL != "" {
			probe = b.MetricsURL
		}
		fmt.Fprintf(out, "  backend %s at %s (%s)\n", b.Name, b.Addr, probe)
	}
	if rec != nil {
		bound, err := rec.Serve(*telAddr)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		fmt.Fprintf(out, "telemetry on http://%s/metrics\n", bound)
	}
	return rt.Serve(ln)
}

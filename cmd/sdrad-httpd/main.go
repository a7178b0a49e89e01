// Command sdrad-httpd runs the SDRaD-hardened NGINX-style web server as a
// real TCP server.
//
// Usage:
//
//	sdrad-httpd [-addr 127.0.0.1:8089] [-workers 2] [-variant sdrad]
//
// Try it:
//
//	curl -s http://127.0.0.1:8089/index.html | head -c 64
//
// Attack the parser (CVE-2009-2629 analog) and watch the hardened build
// close only that connection:
//
//	curl -s --path-as-is "http://127.0.0.1:8089/$(python3 -c 'print("../"*200)')"
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"sdrad/internal/host"
	"sdrad/internal/httpd"
	"sdrad/internal/policy"
	"sdrad/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdrad-httpd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdrad-httpd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8089", "listen address")
	workers := fs.Int("workers", 2, "worker processes")
	variantName := fs.String("variant", "sdrad", "build variant: vanilla, tlsf, or sdrad")
	maxBatch := fs.Int("max-batch", 16, "ceiling of the adaptive per-worker batch bound: the most pipelined requests one guard scope ever parses")
	telAddr := fs.String("telemetry-addr", "", "serve /metrics and /flightrecorder on this address (empty = telemetry off)")
	usePolicy := fs.Bool("policy", false, "attach the resilience-policy engine: repeated parser rewinds escalate to backoff, then quarantine (503 + Retry-After), then load shedding")
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
	m, err := httpd.NewMaster(httpd.Config{
		Variant:  variant,
		Workers:  *workers,
		MaxBatch: *maxBatch,
		Files: map[string]int{
			"/index.html": 1024,
			"/big.bin":    128 * 1024,
		},
		Telemetry: rec,
		Policy:    eng,
	})
	if err != nil {
		return err
	}
	defer m.Stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("sdrad-httpd (%s, %d workers) listening on %s\n", variant, *workers, ln.Addr())
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
	fmt.Println("files: /index.html (1KiB), /big.bin (128KiB)")
	return m.ServeListener(ln)
}

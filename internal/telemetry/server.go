package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
)

// Handler returns the recorder's HTTP surface:
//
//	/metrics        Prometheus text exposition
//	/metrics.json   JSON metrics snapshot
//	/flightrecorder flight-recorder events (JSON, sequence order)
//	/forensics      retained rewind post-mortem reports (JSON)
func (r *Recorder) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, r.reg.SnapshotJSON())
	})
	mux.HandleFunc("/flightrecorder", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{
			"capacity": r.flight.Capacity(),
			"written":  r.flight.Written(),
			"events":   r.flight.Snapshot(),
		})
	})
	mux.HandleFunc("/forensics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, map[string]any{
			"total":   r.store.Added(),
			"reports": r.store.Reports(),
		})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "sdrad telemetry: /metrics /metrics.json /flightrecorder /forensics")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Serve binds addr and serves Handler in a background goroutine,
// returning the bound address (useful with a ":0" port). The listener
// lives until process exit; telemetry endpoints have no shutdown
// ceremony.
func (r *Recorder) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: r.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

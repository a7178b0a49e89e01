package httpd

import (
	"bufio"
	"bytes"
	"net"
)

// ServeListener bridges real TCP (or net.Pipe) connections to the
// simulated workers, placed round-robin by PlaceWorker. It returns when
// the listener closes. Intended for the runnable examples and the cmd
// binary; benchmarks use Conn.Do directly.
func (m *Master) ServeListener(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		w := m.Worker(m.PlaceWorker())
		go serveNetConn(w, nc)
	}
}

// serveNetConn pumps HTTP requests from one network connection through a
// worker.
func serveNetConn(w *Worker, nc net.Conn) {
	defer func() { _ = nc.Close() }()
	conn := w.NewConn()
	r := bufio.NewReader(nc)
	for {
		req, err := readHTTPRequest(r)
		if err != nil {
			return
		}
		resp, closed, err := conn.Do(req)
		if err != nil {
			return
		}
		if _, err := nc.Write(resp); err != nil {
			return
		}
		if closed {
			return
		}
	}
}

// readHTTPRequest reads one request head (through the blank line). Bodies
// are not supported by the simulated server's GET/HEAD surface.
func readHTTPRequest(r *bufio.Reader) ([]byte, error) {
	var req []byte
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return nil, err
		}
		req = append(req, line...)
		if bytes.Equal(bytes.TrimRight(line, "\r\n"), nil) {
			return req, nil
		}
	}
}

// Package cli is the scaffolding every dsmtx command shares: the main
// frame (plain prefixed logging, flag parsing, fatal exit on error) and
// the live metrics endpoint any binary can serve during a run. Commands
// keep their parse/run pairs as pure functions — testable without a
// process — and hand them to Main.
package cli

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync"

	"dsmtx/internal/trace"
)

// Main is the command frame: configure the logger, parse os.Args[1:],
// run, and exit fatally on error. parse and run stay side-effect-free so
// command tests drive them directly.
func Main[O any](name string, parse func(args []string) (O, error), run func(O) error) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	opts, err := parse(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if err := run(opts); err != nil {
		log.Fatal(err)
	}
}

// ServeMetrics starts an HTTP listener publishing a live snapshot of a
// metrics registry as JSON at /metrics (expvar-style; instruments
// update atomically, so sampling mid-run is safe). It returns a shutdown
// function; binding failures (port taken, bad address) surface immediately
// rather than mid-run.
func ServeMetrics(addr string, m *trace.Metrics) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-metrics-addr: %v", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		m.WriteJSON(w)
	})
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	// Close the listener and wait for Serve to return before reporting the
	// port free: repeated invocations (tests, scripted sweeps) rebind the
	// same address immediately after stop().
	var once sync.Once
	return func() {
		once.Do(func() {
			srv.Close()
			<-done
		})
	}, nil
}

// Command dsmtxd serves DSMTX jobs, in two roles.
//
// As the net-backend rank daemon it hosts a contiguous range of ranks: a
// coordinator (dsmtxrun -backend net -net-join) distributes the job spec,
// which each daemon validates and tunes its ranks by (either paradigm, any
// config knob); daemons dial each other directly for rank-to-rank traffic
// and run the unmodified core runtime over TCP.
// Daemons are persistent — they accept successive jobs from successive
// coordinators until stopped:
//
//	dsmtxd -listen 10.0.0.1:7000      # on each cluster node
//	dsmtxrun -bench 164.gzip -cores 32 -backend net \
//	    -net-join 10.0.0.1:7000,10.0.0.2:7000
//
// Daemon order in -net-join is rank order, and the last address hosts the
// commit unit. With no flags at all the daemon binds a loopback ephemeral
// port, advertises it on stdout, and serves one coordinator session (the
// spawn-local mode dsmtxrun uses internally).
//
// As a job server (`dsmtxd serve`) it exposes the job engine over
// JSON/HTTP: bounded admission and a content-addressed result cache
// behind four endpoints on one listener (POST /jobs, GET /jobs/{id},
// GET /stats, GET /metrics — see internal/engine.Server):
//
//	dsmtxd serve -listen 127.0.0.1:7800
//	curl -s -XPOST 'localhost:7800/jobs?wait=1' \
//	    -d '{"bench":"crc32","cores":8,"verify":true}'
//
// Both roles drain gracefully on SIGINT/SIGTERM: listeners close, new
// submissions are rejected with a clear error, in-flight jobs finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"

	"dsmtx/internal/cli"
	"dsmtx/internal/engine"
	"dsmtx/internal/netrun"
)

// options are the parsed, validated command-line settings for both roles.
type options struct {
	serve  bool   // `dsmtxd serve`: the HTTP job server
	listen string // both roles; empty in daemon role = spawn-local mode

	// serve-role engine sizing.
	backend    string
	maxJobs    int
	queueDepth int
	coreBudget int
	cacheDir   string

	// onReady, when set (tests), receives the bound listen address.
	onReady func(addr string)
}

// defaultCacheDir places the serve-role result cache under the user cache
// directory; empty (caching disabled) when that cannot be determined.
func defaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "dsmtxd")
}

// parseFlags parses and validates args (without the program name). The
// first argument may be the "serve" subcommand; everything else is the
// net-backend daemon role.
func parseFlags(args []string) (*options, error) {
	o := &options{}
	if len(args) > 0 && args[0] == "serve" {
		o.serve = true
		fs := flag.NewFlagSet("dsmtxd serve", flag.ContinueOnError)
		fs.StringVar(&o.listen, "listen", "127.0.0.1:7800", "address to serve the JSON job API on")
		fs.StringVar(&o.backend, "backend", "host", "backend for jobs that do not name one: host (live goroutines) or vtime (deterministic simulator)")
		fs.IntVar(&o.maxJobs, "max-jobs", runtime.GOMAXPROCS(0), "jobs running concurrently (0 = unlimited)")
		fs.IntVar(&o.queueDepth, "queue-depth", 64, "jobs waiting for a slot before submissions are rejected with 503")
		fs.IntVar(&o.coreBudget, "core-budget", 0, "bound on the summed cores of running jobs (0 = unlimited)")
		fs.StringVar(&o.cacheDir, "cache", defaultCacheDir(), "directory for the content-addressed result cache (\"\" disables)")
		if err := fs.Parse(args[1:]); err != nil {
			return nil, err
		}
		if len(fs.Args()) > 0 {
			return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
		}
		if o.listen == "" {
			return nil, fmt.Errorf("serve needs -listen")
		}
		switch o.backend {
		case "host", "vtime":
		default:
			return nil, fmt.Errorf("unknown -backend %q (have host, vtime; net jobs name their own fleet)", o.backend)
		}
		if o.maxJobs < 0 || o.queueDepth < 0 || o.coreBudget < 0 {
			return nil, fmt.Errorf("-max-jobs, -queue-depth and -core-budget must be >= 0")
		}
		return o, nil
	}
	fs := flag.NewFlagSet("dsmtxd", flag.ContinueOnError)
	fs.StringVar(&o.listen, "listen", "", "address to serve ranks on (default loopback ephemeral, advertised on stdout)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return o, nil
}

func main() {
	if os.Getenv(netrun.DaemonEnv) == "1" {
		os.Exit(netrun.DaemonMain())
	}
	cli.Main("dsmtxd", parseFlags, func(o *options) error {
		stop := make(chan struct{})
		go func() {
			sig := make(chan os.Signal, 1)
			signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
			<-sig
			close(stop)
		}()
		return run(o, stop)
	})
}

// run executes the selected role, draining gracefully when stop closes.
func run(o *options, stop <-chan struct{}) error {
	if o.serve {
		return runServe(o, stop)
	}
	if o.listen == "" {
		// Spawn-local: one coordinator session, lifetime bound to it.
		if code := netrun.DaemonMain(); code != 0 {
			return fmt.Errorf("daemon exited with code %d", code)
		}
		return nil
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	fmt.Printf("dsmtxd: serving jobs on %s\n", ln.Addr())
	if o.onReady != nil {
		o.onReady(ln.Addr().String())
	}
	if code := netrun.ServeLoop(ln, stop); code != 0 {
		return fmt.Errorf("daemon exited with code %d", code)
	}
	fmt.Println("dsmtxd: drained")
	return nil
}

// runServe runs the HTTP job server until stop closes, then drains:
// the listener closes, queued and running jobs finish, late submissions
// get the engine's typed draining rejection.
func runServe(o *options, stop <-chan struct{}) error {
	cfg := engine.Config{
		MaxConcurrent: o.maxJobs,
		QueueDepth:    o.queueDepth,
		CoreBudget:    o.coreBudget,
		Cache:         engine.OpenResultCache(o.cacheDir, os.Stderr),
	}
	eng := engine.New(cfg)
	srv := engine.NewServer(eng)
	srv.DefaultBackend = o.backend

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	fmt.Printf("dsmtxd: serving jobs on http://%s\n", ln.Addr())
	if o.onReady != nil {
		o.onReady(ln.Addr().String())
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-stop:
	}
	fmt.Println("dsmtxd: draining (in-flight jobs finish, new submissions are rejected)")
	// Shutdown closes the listener and waits for in-flight handlers, whose
	// Submits the engine finishes; detached jobs drain via the server.
	shutdownDone := make(chan struct{})
	go func() {
		_ = hs.Shutdown(context.Background())
		close(shutdownDone)
	}()
	eng.Drain()
	srv.Drain()
	<-shutdownDone
	eng.Close()
	fmt.Println("dsmtxd: drained")
	return nil
}

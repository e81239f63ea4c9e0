// Command energyd serves the simulated database engines over TCP with
// per-session energy accounting: every query response carries the paper's
// Eq. 1 Active-energy breakdown for that statement, and the daemon keeps a
// running per-session and server-wide energy ledger.
//
// Usage:
//
//	energyd -addr :7683
//	dbshell -connect localhost:7683 -db sqlite -class 10MB
//
// Clients negotiate the engine profile, knob setting and dataset class in
// the handshake; table stores are provisioned lazily and shared between
// sessions that request the same combination. Statements execute in
// parallel on a pool of per-worker simulated machines (-workers, default
// GOMAXPROCS; -workers 1 reproduces the old fully-serialized server). Each
// worker runs one statement at a time, so per-session energy attribution
// stays exact, and takes its sessions' statements in the order they arrive,
// so a busy session cannot starve the others.
//
// With -metrics-addr set, energyd additionally serves /metrics (Prometheus
// text: statement latency/energy histograms, Eq. 1 component totals, the
// live L1D share, worker P-states) and /healthz on that address. The same
// snapshot is available in-band via the STATS wire command (dbshell
// \stats). -governor attaches the stall-aware DVFS policy to each worker
// machine.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"energydb/internal/rapl"
	"energydb/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":7683", "listen address")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /healthz over HTTP on this address (empty = off)")
		seed        = flag.Int64("seed", 42, "measurement-noise seed")
		noise       = flag.Float64("noise", rapl.DefaultNoise, "relative measurement error per session (negative disables)")
		scale       = flag.Float64("scale", 0.1, "calibration micro-benchmark scale (smaller starts faster)")
		workers     = flag.Int("workers", 0, "execution workers, each with a private simulated machine (0 = GOMAXPROCS)")
		governor    = flag.Bool("governor", false, "attach the stall-aware DVFS governor to each worker machine")
		stmtTO      = flag.Duration("stmt-timeout", 0, "cancel statements running longer than this (0 = no limit)")
		readTO      = flag.Duration("read-timeout", 0, "per-frame client read deadline (0 = no limit)")
		writeTO     = flag.Duration("write-timeout", 0, "per-response write deadline (0 = no limit)")
		quiet       = flag.Bool("quiet", false, "suppress per-session logging")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	log.Printf("calibrating the i7-4790 energy model (scale %g)...", *scale)
	srv, err := server.New(server.Config{
		Seed:         *seed,
		Noise:        *noise,
		Scale:        *scale,
		Workers:      *workers,
		Governor:     *governor,
		StmtTimeout:  *stmtTO,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		Logf:         logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "energyd:", err)
		os.Exit(1)
	}

	var msrv *http.Server
	if *metricsAddr != "" {
		msrv = &http.Server{Addr: *metricsAddr, Handler: srv.ObsHandler()}
		go func() {
			log.Printf("metrics on http://%s/metrics", *metricsAddr)
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	closed := make(chan struct{})
	go func() {
		<-sig
		srv.Close()
		close(closed)
	}()

	log.Printf("listening on %s (%d workers)", *addr, srv.Workers())
	err = srv.ListenAndServe(*addr)
	if err != nil && err != server.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "energyd:", err)
		os.Exit(1)
	}
	// ListenAndServe returns as soon as the listener closes; wait for Close
	// itself to finish so the totals read below happens after the workers
	// have drained and every executed statement is accounted. (The old
	// order — logging totals before Close — could miss statements still
	// retiring.)
	<-closed
	if msrv != nil {
		msrv.Close()
	}
	t := srv.Totals()
	log.Printf("shutting down: %d queries served, %.4g J active energy attributed (L1D share %.1f%%)",
		t.Queries, t.EActive, t.L1DShare()*100)
}

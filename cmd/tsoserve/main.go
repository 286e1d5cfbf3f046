// Command tsoserve runs the long-lived model-checking service: an HTTP
// daemon that accepts deque programs as jobs (POST /v1/jobs), shards each
// job's schedule frontier across a bounded worker pool, and serves
// results — including a replayable witness schedule when a job violates
// its spec — at GET /v1/jobs/{id}. Progress is checkpointed to a spool
// directory (one JSON record per job, frontiers in the binary checkpoint
// wire format) so a restarted server resumes unfinished jobs from where
// the previous process stopped; SIGTERM/SIGINT drain gracefully, spooling
// every in-flight frontier before exit.
//
// Usage:
//
//	tsoserve [-config FILE] [-listen ADDR] [-spool DIR] [-workers N] [-print-config]
//
// Flags override the config file. With -print-config the effective
// configuration is printed and the server does not start.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsoserve: ")
	cfgPath := flag.String("config", "", "JSON config file (see internal/serve.Config)")
	listen := flag.String("listen", "", "listen address (overrides the config file)")
	spool := flag.String("spool", "", "checkpoint spool directory (overrides the config file)")
	workers := flag.Int("workers", 0, "exploration workers (overrides the config file)")
	printConfig := flag.Bool("print-config", false, "print the effective config and exit")
	flag.Parse()

	cfg := serve.DefaultConfig()
	if *cfgPath != "" {
		loaded, err := serve.LoadConfig(*cfgPath)
		if err != nil {
			log.Fatal(err)
		}
		cfg = loaded
	}
	if *listen != "" {
		cfg.ListenAddr = *listen
	}
	if *spool != "" {
		cfg.SpoolDir = *spool
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	if *printConfig {
		fmt.Println(cfg.String())
		return
	}

	srv, err := serve.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Addr: cfg.ListenAddr, Handler: srv.Handler()}

	ctx, stop := serve.SignalDrain(context.Background())
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (spool %s, %d workers)", cfg.ListenAddr, cfg.SpoolDir, cfg.Workers)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Stop accepting connections, then drain: interrupt in-flight slices
	// at a run boundary and spool every unfinished frontier so the next
	// process resumes them.
	log.Print("draining: spooling unfinished jobs")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Print(err)
	}
	srv.Drain()
	log.Print("drained")
}

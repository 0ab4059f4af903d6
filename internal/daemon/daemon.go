// Package daemon runs an HTTP handler as a long-lived process: the listen,
// pprof-listener and signal-drain loop flixd and flixd-router share.
package daemon

import (
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ListenAndServe serves h on addr until SIGINT or SIGTERM, then stops
// accepting connections and drains in-flight requests for up to drain.  A
// non-empty debugAddr serves net/http/pprof on its own listener, so
// profiling access can be firewalled apart from the query API.  banner is
// logged once the listener starts.  It returns the listener's error, or the
// shutdown's unless the drain merely ran out of time.
func ListenAndServe(addr, debugAddr string, h http.Handler, drain time.Duration, banner string) error {
	if debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbgSrv := &http.Server{Addr: debugAddr, Handler: dbg}
		defer dbgSrv.Close()
		go func() {
			log.Printf("pprof on %s/debug/pprof/", debugAddr)
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug server: %v", err)
			}
		}()
	}

	srv := &http.Server{Addr: addr, Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Print(banner)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		return err
	case got := <-sig:
		log.Printf("%v: draining in-flight queries (max %s)", got, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		log.Print("bye")
		return nil
	}
}

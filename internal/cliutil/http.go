package cliutil

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"distda/internal/obs"
)

// Introspection is a running -http live introspection endpoint. It wraps
// the bound listener and server so callers can both discover the resolved
// address (":0" binds a real port) and stop the server cleanly — CLIs shut
// it down on exit and the distda-serve job server drains it together with
// the job API during graceful shutdown.
type Introspection struct {
	srv  *http.Server
	addr string
}

// Addr returns the bound address ("host:port"). Safe on nil.
func (s *Introspection) Addr() string {
	if s == nil {
		return ""
	}
	return s.addr
}

// Shutdown stops the introspection server gracefully: the listener closes
// immediately and in-flight requests get until ctx's deadline to finish.
// Safe on nil and after a previous shutdown.
func (s *Introspection) Shutdown(ctx context.Context) error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// ServeIntrospection starts the -http live introspection endpoint for long
// runs on addr (e.g. "localhost:6060") and returns a handle exposing the
// bound address and graceful Shutdown.
//
// Routes (all on a private mux — this does not touch http.DefaultServeMux):
//
//	/progress        JSON progress/ETA view fed by matrix cell completions
//	/debug/vars      expvar (Go runtime counters + published vars)
//	/debug/pprof/*   net/http/pprof handlers for the host process
//
// prog may be nil (the /progress route then serves the zero snapshot —
// useful for single-run tools that only want pprof/expvar).
func ServeIntrospection(addr string, prog *obs.Progress) (*Introspection, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cliutil: -http listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewIntrospectionMux(prog)}
	go func() {
		// Serve returns http.ErrServerClosed after Shutdown; anything else
		// is shutdown noise on a process that is exiting anyway.
		_ = srv.Serve(ln)
	}()
	return &Introspection{srv: srv, addr: ln.Addr().String()}, nil
}

// NewIntrospectionMux builds the introspection routes without binding a
// listener (ServeIntrospection's testable core; distda-serve mounts the
// same mux under its job API).
func NewIntrospectionMux(prog *obs.Progress) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(prog.Snapshot()) // nil-safe: zero snapshot
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

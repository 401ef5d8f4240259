package obs

import (
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
)

// Publish exposes the registry's Snapshot as one expvar variable, so it is
// served at /debug/vars under the given name (the commands use "surfknn").
// Publishing the same registry again is a no-op; publishing two registries
// under one name is a programming error (expvar would panic), so the second
// caller gets an error instead.
func (r *Registry) Publish(name string) error {
	return publish(&r.publishOnce, name, r.Snapshot)
}

// publish is every metric group's Publish: the first call through once
// exposes snapshot as the expvar variable name, a name already taken is an
// error, and later calls are no-ops.
func publish(once *sync.Once, name string, snapshot func() map[string]any) error {
	var err error
	once.Do(func() {
		if expvar.Get(name) != nil {
			err = fmt.Errorf("obs: expvar name %q is already taken", name)
			return
		}
		expvar.Publish(name, expvar.Func(func() any { return snapshot() }))
	})
	return err
}

// StartDebugServer serves the process debug endpoints — /debug/vars
// (expvar, including every published Registry) and /debug/pprof/* — on
// addr, in a background goroutine. It returns the resolved listen address
// (useful with ":0"). Call Shutdown on the returned server to stop it.
func StartDebugServer(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: debug listener: %w", err)
	}
	// The default mux carries the expvar and pprof registrations made at
	// import time.
	srv := &http.Server{Handler: http.DefaultServeMux}
	resolved := ln.Addr().String()
	go func() {
		if serr := srv.Serve(ln); serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			// The listener died underneath us; there is no caller left to
			// return the error to, so record it where expvar can show it.
			debugServeErrors.Add(1)
		}
	}()
	return srv, resolved, nil
}

// debugServeErrors counts debug servers that exited with an unexpected
// error (visible at /debug/vars as surfknn_debug_serve_errors).
var debugServeErrors = expvar.NewInt("surfknn_debug_serve_errors")

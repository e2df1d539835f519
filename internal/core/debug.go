package core

import (
	"context"
	"net"
	"net/http"
	"time"

	"specmine/internal/obs"
)

// MetricsRegistry is the low-overhead metrics registry the pipeline stages
// publish into. Create one with NewMetrics, hand it to stream.Config.Obs,
// store.Options.Obs and OutOfCoreOptions.Obs (the same registry can back all
// three — series names are disjoint), and expose it with ServeDebug or embed
// obs.Handler into an existing mux.
type MetricsRegistry = obs.Registry

// NewMetrics returns a fresh metrics registry. Registries are cheap; nil is
// always a valid "observability off" value everywhere one is accepted.
func NewMetrics() *MetricsRegistry { return obs.NewRegistry() }

// DebugServer is a running debug/metrics HTTP endpoint started by ServeDebug.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts an HTTP server on addr (for example "localhost:0" to pick
// a free loopback port) exposing the registry's observability surface:
//
//	/debug/metrics  Prometheus text exposition (version 0.0.4)
//	/debug/vars     expvar-style JSON snapshot of every series
//	/debug/ops      recent and slow traced operations as JSON
//	/debug/pprof/   the stdlib pprof handlers
//
// The endpoint is strictly opt-in: nothing is served unless ServeDebug is
// called, and the registry keeps working (snapshots, handler embedding) if it
// is not. Close the returned server to stop serving.
func ServeDebug(addr string, reg *MetricsRegistry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: obs.Handler(reg)}
	go func() {
		// Serve returns ErrServerClosed on Close; anything else means the
		// listener died, which the scraper will notice — nothing to do here.
		_ = srv.Serve(ln)
	}()
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the address the server is listening on — useful with
// "localhost:0" to discover the picked port.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the server, waiting briefly for in-flight scrapes to finish.
func (d *DebugServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

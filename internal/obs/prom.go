package obs

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), the format served on /metrics.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	// Snapshot the families and their series under the lock; registration
	// may append to both while the scrape renders.
	r.mu.Lock()
	fams := make([]family, len(r.families))
	for i, f := range r.families {
		fams[i] = family{name: f.name, help: f.help, typ: f.typ, series: append([]*series(nil), f.series...)}
	}
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			switch {
			case s.c != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.g != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, formatFloat(s.g.Value()))
			case s.h != nil:
				writeHistogram(bw, f.name, s.labels, s.h)
			}
		}
	}
	return bw.Flush()
}

func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	// Cumulative bucket counts, as the format requires.
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name,
			mergeLabels(labels, `le="`+formatFloat(bound)+`"`), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="+Inf"`), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

// mergeLabels splices an extra label pair into a pre-rendered label set.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry on any path.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// Server is a running metrics endpoint.
type Server struct {
	Addr string // the bound address, useful with ":0" listen specs
	ln   net.Listener
	srv  *http.Server
}

// Serve starts an HTTP server on addr exposing the registry at /metrics
// (the root path redirects there) and the standard pprof profiles under
// /debug/pprof/, so a live sweep can be profiled without restarting it
// with -cpuprofile. It returns once the listener is bound, with requests
// served on a background goroutine; Close shuts it down.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(reg))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", http.RedirectHandler("/metrics", http.StatusFound))
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s := &Server{Addr: ln.Addr().String(), ln: ln, srv: srv}
	go srv.Serve(ln)
	return s, nil
}

// Close stops the server and releases the listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

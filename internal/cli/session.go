package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"ebm/internal/ckpt"
	"ebm/internal/obs"
	"ebm/internal/simcache"
)

// Group selects the shared flags a Session registers beyond -version,
// which every command takes.
type Group uint8

const (
	// Cache registers -simcache and -ledger.
	Cache Group = 1 << iota
	// Ckpt registers -ckpt and -ckpt-max-bytes.
	Ckpt
	// Spans registers -trace-spans.
	Spans
	// Profile registers -cpuprofile and -memprofile.
	Profile
)

// Session is the flag group the ebm commands share, and what those
// flags open: the result cache, the checkpoint store, the provenance
// ledger, the span tracer and the pprof profiles. A command registers
// it on its FlagSet, parses with Parse, calls Open once and defers
// Close; everything else in its main is its own logic.
type Session struct {
	fs *flag.FlagSet

	version          bool
	simcache         string
	ledgers          ledgerFlag
	ckptDir          string
	ckptMax          int64
	spans            string
	cpuProf, memProf string

	cache  *simcache.Cache
	store  *ckpt.Store
	ledger *obs.Ledger
	tracer *obs.Tracer
	root   *obs.Span
	cpuF   *os.File
}

// NewSession registers -version and the given groups on fs.
// ledgerDefault is -ledger's default: "" (no ledger) or "auto".
func NewSession(fs *flag.FlagSet, groups Group, ledgerDefault string) *Session {
	s := &Session{fs: fs}
	fs.BoolVar(&s.version, "version", false, "print the build version and exit")
	if groups&Cache != 0 {
		fs.StringVar(&s.simcache, "simcache", "simcache", "simulation-result cache directory (empty disables)")
		if ledgerDefault != "" {
			s.ledgers.vals = []string{ledgerDefault}
		}
		fs.Var(&s.ledgers, "ledger",
			"append one provenance record per completed cached run to this JSONL `file` "+
				"(auto = ledger.jsonl beside the -simcache directory; empty disables; needs -simcache)")
	}
	if groups&Ckpt != 0 {
		fs.StringVar(&s.ckptDir, "ckpt", "", "fork uncached simulations from prefix checkpoints kept in this `dir` (empty disables)")
		fs.Int64Var(&s.ckptMax, "ckpt-max-bytes", 0, "checkpoint store byte cap, oldest evicted first (0 = unbounded)")
	}
	if groups&Spans != 0 {
		fs.StringVar(&s.spans, "trace-spans", "", "write the orchestration spans as a Chrome trace-event `file` at exit")
	}
	if groups&Profile != 0 {
		fs.StringVar(&s.cpuProf, "cpuprofile", "", "write a pprof CPU profile of the run to `file`")
		fs.StringVar(&s.memProf, "memprofile", "", "write a pprof heap profile at exit to `file`")
	}
	return s
}

// ledgerFlag is -ledger. It is repeatable so that sweep -explain can
// merge several ledgers; the first value given replaces the default.
type ledgerFlag struct {
	vals []string
	set  bool
}

func (l *ledgerFlag) String() string { return strings.Join(l.vals, ",") }

func (l *ledgerFlag) Set(v string) error {
	if !l.set {
		l.vals, l.set = nil, true
	}
	l.vals = append(l.vals, v)
	return nil
}

// Parse parses args. It reports done when the command should return
// err right away: on a parse error (a usage error, so an unknown or
// malformed flag exits 2; -h stays flag.ErrHelp), or after -version
// printed the build identity (err is then nil).
func (s *Session) Parse(args []string) (done bool, err error) {
	if err := s.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return true, err
		}
		return true, usageError{err}
	}
	if s.version {
		fmt.Println(s.fs.Name(), Version())
		return true, nil
	}
	return false, nil
}

// Beside returns name in the directory that holds -simcache, or "" when
// the cache is off: files that describe the cache (the ledger, sweepd's
// state checkpoint) live there so they travel with it.
func (s *Session) Beside(name string) string {
	if s.simcache == "" {
		return ""
	}
	return filepath.Join(filepath.Dir(s.simcache), name)
}

// LedgerPaths returns the -ledger values with auto resolved by Beside
// and empty values dropped.
func (s *Session) LedgerPaths() []string {
	var paths []string
	for _, v := range s.ledgers.vals {
		if v == "auto" {
			v = s.Beside("ledger.jsonl")
		}
		if v != "" {
			paths = append(paths, v)
		}
	}
	return paths
}

// Open starts the session. It checks the -ledger rules (a usage error
// for more than one -ledger, or for a ledger without -simcache), starts
// the CPU profile, and opens the result cache, the checkpoint store and
// the ledger, which it installs on the cache. With -trace-spans the
// returned context carries a tracer and a root span named after the
// command, with attrs. On error nothing is left open; otherwise the
// caller must Close the session.
func (s *Session) Open(ctx context.Context, attrs ...obs.Attr) (context.Context, error) {
	if len(s.ledgers.vals) > 1 {
		return ctx, Usagef("-ledger given %d times; only sweep -explain reads several ledgers", len(s.ledgers.vals))
	}
	paths := s.LedgerPaths()
	if len(paths) > 0 && s.simcache == "" {
		return ctx, Usagef("-ledger needs -simcache")
	}
	if s.cpuProf != "" {
		f, err := os.Create(s.cpuProf)
		if err != nil {
			return ctx, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return ctx, err
		}
		s.cpuF = f
	}
	if err := s.openStores(paths); err != nil {
		if s.cpuF != nil {
			pprof.StopCPUProfile()
			s.cpuF.Close()
		}
		return ctx, err
	}
	if s.spans != "" {
		s.tracer = obs.NewTracer()
		ctx, s.root = obs.StartSpan(obs.WithTracer(ctx, s.tracer), s.fs.Name(), attrs...)
	}
	return ctx, nil
}

// openStores opens the cache, the checkpoint store and the ledger (the
// one element of paths, if any), the ledger last so that a failure
// leaves no file open.
func (s *Session) openStores(paths []string) (err error) {
	if s.simcache != "" {
		if s.cache, err = simcache.Open(s.simcache); err != nil {
			return err
		}
	}
	if s.ckptDir != "" {
		if s.store, err = ckpt.Open(s.ckptDir); err != nil {
			return err
		}
		s.store.SetMaxBytes(s.ckptMax)
	}
	if len(paths) == 1 {
		if s.ledger, err = obs.OpenLedger(paths[0]); err != nil {
			return err
		}
		s.cache.SetLedger(s.ledger)
	}
	return nil
}

// Cache returns the result cache (nil under -simcache "").
func (s *Session) Cache() *simcache.Cache { return s.cache }

// Ckpt returns the checkpoint store (nil without -ckpt).
func (s *Session) Ckpt() *ckpt.Store { return s.store }

// Ledger returns the provenance ledger (nil when there is none).
func (s *Session) Ledger() *obs.Ledger { return s.ledger }

// Close ends the session in a fixed order: it reports and closes the
// ledger, ends the root span and writes -trace-spans, then stops the CPU
// profile and writes -memprofile. Its lines go to the FlagSet's output;
// every failure, including each file's Close, is returned.
func (s *Session) Close() error {
	out, name := s.fs.Output(), s.fs.Name()
	var errs []error
	if s.ledger != nil {
		fmt.Fprintf(out, "%s: %d provenance records appended to %s\n", name, s.ledger.Appends(), s.ledger.Path())
		errs = append(errs, s.ledger.Close())
	}
	if s.tracer != nil {
		s.root.End()
		err := writeFile(s.spans, func(w io.Writer) error { return obs.WriteSpanTrace(w, s.tracer) })
		if err == nil {
			fmt.Fprintf(out, "%s: wrote %d spans to %s\n", name, s.tracer.Len(), s.spans)
		}
		errs = append(errs, err)
	}
	if s.cpuF != nil {
		pprof.StopCPUProfile()
		errs = append(errs, s.cpuF.Close())
	}
	if s.memProf != "" {
		runtime.GC() // settle live-heap accounting before the snapshot
		errs = append(errs, writeFile(s.memProf, pprof.WriteHeapProfile))
	}
	return errors.Join(errs...)
}

// writeFile creates path, writes it and closes it, returning the first
// failure.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

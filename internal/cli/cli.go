// Package cli is the shared command scaffolding for the ebm binaries: a
// single run(ctx, args) entry point per command, the Session flag group
// every command shares, signal-driven cancellation, and one exit path
// with conventional codes. Commands parse flags with
// flag.ContinueOnError, wrap bad usage in Usagef, and do all their work
// under the context — on SIGINT/SIGTERM the context cancels, in-flight
// simulations abort at their next window boundary, and the process exits
// 130 after an orderly drain. A second signal kills the process
// immediately for the case where the drain itself wedges.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
)

// Exit codes.
const (
	ExitOK          = 0
	ExitError       = 1
	ExitUsage       = 2
	ExitInterrupted = 130 // 128 + SIGINT, the shell convention
)

// usageError marks an error as the caller's fault (bad flags or
// arguments): exit 2, and the message is prefixed with the command name.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// Usagef wraps a bad-usage condition so Run exits with ExitUsage.
func Usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// IsUsage reports whether err is a usage error.
func IsUsage(err error) bool {
	var u usageError
	return errors.As(err, &u)
}

// ExitCode maps a run(ctx) error to a process exit code.
func ExitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return ExitOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ExitInterrupted
	case IsUsage(err):
		return ExitUsage
	default:
		return ExitError
	}
}

// Version renders the build identity every binary reports under -version
// and workers exchange in the registration handshake: the module version
// when stamped, the VCS revision (short, with a +dirty marker) when the
// build carried one, and always the Go toolchain. Without build info
// (rare outside tests) it degrades to "devel".
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	v := bi.Main.Version
	if v == "" || v == "(devel)" {
		v = "devel"
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if dirty {
			rev += "+dirty"
		}
		v += " (" + rev + ")"
	}
	return v + " " + bi.GoVersion
}

// Run executes fn under a signal-cancelled context and returns the exit
// code. The context cancels on the first SIGINT/SIGTERM; a second signal
// bypasses the orderly drain and kills the process (exit 130) so a stuck
// shutdown can always be escaped. Errors are printed to stderr prefixed
// with the command name (flag.ErrHelp prints nothing — the FlagSet
// already wrote its usage text).
func Run(name string, stderr io.Writer, fn func(ctx context.Context) error) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop() // re-arm default disposition: the next signal terminates immediately
	}()

	err := fn(ctx)
	code := ExitCode(err)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
	}
	if code == ExitInterrupted {
		fmt.Fprintf(stderr, "%s: interrupted\n", name)
	}
	return code
}

// Main is Run over the process arguments plus os.Exit — the one-line
// body of every main().
func Main(name string, fn func(ctx context.Context, args []string) error) {
	os.Exit(Run(name, os.Stderr, func(ctx context.Context) error { return fn(ctx, os.Args[1:]) }))
}

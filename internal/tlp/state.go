package tlp

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Stater is implemented by managers whose internal decision state can be
// captured into and restored from an opaque byte string, which is what
// lets a simulation be checkpointed mid-run and forked. A manager that
// does not implement Stater cannot be checkpointed; the simulator reports
// that as a snapshot error and callers degrade to cold execution.
//
// StateBytes must not mutate the manager, and SetStateBytes must leave a
// freshly Initial()-ed manager in a state that continues bit-identically
// to the captured one.
type Stater interface {
	StateBytes() ([]byte, error)
	SetStateBytes(b []byte) error
}

// EncodeState gob-encodes a manager's mutable state (shared helper for
// the Stater implementations here and in internal/core). Managers keep
// that state in one struct with exported fields and encode it as is.
func EncodeState(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeState gob-decodes an EncodeState payload into a zero T and, on
// success, stores it in *dst. Gob leaves fields absent from the payload
// (it omits zero values) untouched, so decoding into a fresh value is
// what makes those fields come out zero.
func DecodeState[T any](b []byte, dst *T) error {
	var v T
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v); err != nil {
		return err
	}
	*dst = v
	return nil
}

// StateBytes implements Stater: static policies carry no mutable state.
func (s *Static) StateBytes() ([]byte, error) { return nil, nil }

// SetStateBytes implements Stater.
func (s *Static) SetStateBytes(b []byte) error {
	if len(b) != 0 {
		return fmt.Errorf("tlp: static manager restored with %d bytes of state", len(b))
	}
	return nil
}

// voteState is the mutable state of the vote-hysteresis managers (DynCTA,
// CCWS, WRS): per-app votes and the current decision.
type voteState struct {
	Votes []int // per app; the sign is the direction voted for
	Cur   Decision
}

// StateBytes implements Stater.
func (d *DynCTA) StateBytes() ([]byte, error) { return EncodeState(d.st) }

// SetStateBytes implements Stater.
func (d *DynCTA) SetStateBytes(b []byte) error {
	if err := DecodeState(b, &d.st); err != nil {
		return fmt.Errorf("tlp: dyncta state: %w", err)
	}
	return nil
}

// StateBytes implements Stater.
func (c *CCWS) StateBytes() ([]byte, error) { return EncodeState(c.st) }

// SetStateBytes implements Stater.
func (c *CCWS) SetStateBytes(b []byte) error {
	if err := DecodeState(b, &c.st); err != nil {
		return fmt.Errorf("tlp: ccws state: %w", err)
	}
	return nil
}

// StateBytes implements Stater.
func (w *WRS) StateBytes() ([]byte, error) { return EncodeState(w.st) }

// SetStateBytes implements Stater.
func (w *WRS) SetStateBytes(b []byte) error {
	if err := DecodeState(b, &w.st); err != nil {
		return fmt.Errorf("tlp: wrs state: %w", err)
	}
	return nil
}

// turnState is Batch's mutable state: the rotation clock plus the
// current decision.
type turnState struct {
	Win uint64 // completed sampling windows since Initial
	Cur Decision
}

// StateBytes implements Stater.
func (b *Batch) StateBytes() ([]byte, error) { return EncodeState(b.st) }

// SetStateBytes implements Stater.
func (b *Batch) SetStateBytes(bs []byte) error {
	if err := DecodeState(bs, &b.st); err != nil {
		return fmt.Errorf("tlp: batch state: %w", err)
	}
	return nil
}

// probeState is ModBypass's own mutable state: the bypass probation
// machine and the current decision.
type probeState struct {
	ProbeActive []bool
	Votes       []int
	Windows     []int
	Cur         Decision
}

// modBypassState pairs the wrapped modulator's state with ModBypass's own.
type modBypassState struct {
	Mod   voteState
	Probe probeState
}

// StateBytes implements Stater.
func (m *ModBypass) StateBytes() ([]byte, error) {
	return EncodeState(modBypassState{Mod: m.mod.st, Probe: m.st})
}

// SetStateBytes implements Stater.
func (m *ModBypass) SetStateBytes(b []byte) error {
	var st modBypassState
	if err := DecodeState(b, &st); err != nil {
		return fmt.Errorf("tlp: mod+bypass state: %w", err)
	}
	m.mod.st, m.st = st.Mod, st.Probe
	return nil
}

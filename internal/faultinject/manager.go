package faultinject

import (
	"fmt"

	"ebm/internal/tlp"
)

// faultyManager interposes the injector's PolicyDecision draw between
// the engine and a real TLP manager, so chaos runs can crash a policy
// mid-sweep and exercise the policy sandbox's recovery paths.
type faultyManager struct {
	inner tlp.Manager
	in    *Injector
	win   uint64
}

// WrapManager returns inner with PolicyDecision drawn before every
// OnSample. A nil injector returns inner unchanged. The wrapper is meant
// to sit *inside* a policy.Guard: the injected panics then surface as sandbox faults rather than crashing the run.
func WrapManager(inner tlp.Manager, in *Injector) tlp.Manager {
	if in == nil {
		return inner
	}
	return &faultyManager{inner: inner, in: in}
}

func (m *faultyManager) Name() string { return m.inner.Name() }

func (m *faultyManager) Initial(numApps int) tlp.Decision { return m.inner.Initial(numApps) }

func (m *faultyManager) OnSample(s tlp.Sample) tlp.Decision {
	m.win++
	m.in.PolicyDecision(m.win)
	return m.inner.OnSample(s)
}

// StateBytes / SetStateBytes delegate checkpointing to the inner manager
// when it supports it; the injector draw itself is stateless apart from
// the decision counter, which is deliberately not checkpointed (fault
// schedules are a property of the run, not of the simulated machine).
func (m *faultyManager) StateBytes() ([]byte, error) {
	if st, ok := m.inner.(tlp.Stater); ok {
		return st.StateBytes()
	}
	return nil, fmt.Errorf("faultinject: manager %q does not support checkpointing", m.inner.Name())
}

func (m *faultyManager) SetStateBytes(b []byte) error {
	if st, ok := m.inner.(tlp.Stater); ok {
		return st.SetStateBytes(b)
	}
	return fmt.Errorf("faultinject: manager %q does not support checkpointing", m.inner.Name())
}

package crypto

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// The paper's §III "System Integrity" discussion proposes a trusted hardware
// platform (e.g. a TPM) to (a) store the shared symmetric key K and (b)
// guarantee the integrity of off-chain components such as the Logging
// Interface. No physical TPM is available in this reproduction, so SoftTPM
// simulates the three capabilities the mitigation actually relies on:
//
//   - Measured boot: components are "measured" (hashed) into Platform
//     Configuration Registers (PCRs) using the standard extend operation
//     PCR' = H(PCR || measurement).
//   - Sealing: secrets are bound to the PCR state at seal time; Unseal fails
//     if any measured component has since changed.
//   - Attestation: signed quotes over the PCR state let a remote verifier
//     (the Analyser or an administrator) check component integrity.
//
// A tampered LI therefore (1) cannot recover K and (2) is remotely
// detectable — exactly the behaviour the paper's mitigation needs.

// ErrSealBroken is returned by Unseal when the current PCR state differs
// from the state the secret was sealed under.
var ErrSealBroken = errors.New("crypto: PCR state changed since sealing; unseal refused")

// ErrUnknownHandle is returned when a sealed-secret handle does not exist.
var ErrUnknownHandle = errors.New("crypto: unknown sealed-secret handle")

// NumPCRs is the number of platform configuration registers in a SoftTPM.
const NumPCRs = 8

// SoftTPM is a software simulation of a trusted platform module. It is safe
// for concurrent use.
//
//lint:ignore deadcode examples/trustedplatform runs it: the System Integrity mitigation of paper §III (measured boot, sealing, attestation)
type SoftTPM struct {
	mu     sync.Mutex
	pcrs   [NumPCRs]Digest
	sealed map[string]sealedSecret
	ident  *Identity // endorsement key for quotes
	nextID int
}

type sealedSecret struct {
	pcrMask  uint8 // bitmask of PCR indices the secret is bound to
	pcrState Digest
	secret   []byte
}

// NewSoftTPM constructs a SoftTPM with a fresh endorsement identity.
//
//lint:ignore deadcode examples/trustedplatform runs it: the System Integrity mitigation of paper §III (measured boot, sealing, attestation)
func NewSoftTPM(deviceName string) (*SoftTPM, error) {
	id, err := NewIdentity("tpm:" + deviceName)
	if err != nil {
		return nil, fmt.Errorf("crypto: new soft TPM: %w", err)
	}
	return &SoftTPM{sealed: make(map[string]sealedSecret), ident: id}, nil
}

// EndorsementKey returns the public endorsement identity used to sign quotes.
func (t *SoftTPM) EndorsementKey() PublicIdentity { return t.ident.Public() }

// Extend measures data into PCR index: PCR' = H(PCR || H(data)).
func (t *SoftTPM) Extend(index int, data []byte) error {
	if index < 0 || index >= NumPCRs {
		return fmt.Errorf("crypto: PCR index %d out of range [0,%d)", index, NumPCRs)
	}
	m := Sum(data)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pcrs[index] = SumAll(t.pcrs[index][:], m[:])
	return nil
}

// PCR returns the current value of the indexed register.
func (t *SoftTPM) PCR(index int) (Digest, error) {
	if index < 0 || index >= NumPCRs {
		return Digest{}, fmt.Errorf("crypto: PCR index %d out of range [0,%d)", index, NumPCRs)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pcrs[index], nil
}

// compositeLocked hashes the selected PCRs into one digest. Caller holds mu.
func (t *SoftTPM) compositeLocked(mask uint8) Digest {
	var chunks [][]byte
	for i := 0; i < NumPCRs; i++ {
		if mask&(1<<i) != 0 {
			chunks = append(chunks, t.pcrs[i].Bytes())
		}
	}
	return SumAll(chunks...)
}

// Seal binds secret to the current state of the PCRs selected by mask and
// returns an opaque handle for later Unseal.
func (t *SoftTPM) Seal(mask uint8, secret []byte) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	handle := fmt.Sprintf("seal-%d", t.nextID)
	cp := make([]byte, len(secret))
	copy(cp, secret)
	t.sealed[handle] = sealedSecret{pcrMask: mask, pcrState: t.compositeLocked(mask), secret: cp}
	return handle
}

// Unseal returns the secret bound to handle, but only if the selected PCRs
// still match their value at Seal time. A component that was re-measured
// after tampering gets ErrSealBroken.
func (t *SoftTPM) Unseal(handle string) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sealed[handle]
	if !ok {
		return nil, fmt.Errorf("crypto: unseal %q: %w", handle, ErrUnknownHandle)
	}
	if t.compositeLocked(s.pcrMask) != s.pcrState {
		return nil, ErrSealBroken
	}
	out := make([]byte, len(s.secret))
	copy(out, s.secret)
	return out, nil
}

// Quote is a signed attestation over a PCR selection and a caller nonce.
type Quote struct {
	Nonce     []byte   `json:"nonce"`
	PCRMask   uint8    `json:"pcrMask"`
	Composite Digest   `json:"composite"`
	PCRValues []Digest `json:"pcrValues"`
	Signature []byte   `json:"signature"`
}

// GenerateQuote produces a signed attestation of the PCRs selected by mask,
// bound to a verifier-chosen nonce to prevent replay.
func (t *SoftTPM) GenerateQuote(mask uint8, nonce []byte) Quote {
	t.mu.Lock()
	composite := t.compositeLocked(mask)
	var values []Digest
	for i := 0; i < NumPCRs; i++ {
		if mask&(1<<i) != 0 {
			values = append(values, t.pcrs[i])
		}
	}
	t.mu.Unlock()

	msg := quoteMessage(mask, composite, nonce)
	return Quote{
		Nonce:     append([]byte(nil), nonce...),
		PCRMask:   mask,
		Composite: composite,
		PCRValues: values,
		Signature: t.ident.Sign(msg),
	}
}

// VerifyQuote checks a quote's signature against the TPM's endorsement key
// and the expected composite PCR digest.
//
//lint:ignore deadcode examples/trustedplatform runs it: the System Integrity mitigation of paper §III (measured boot, sealing, attestation)
func VerifyQuote(ek PublicIdentity, q Quote, expectedComposite Digest, nonce []byte) error {
	if !ConstantTimeEqual(q.Nonce, nonce) {
		return errors.New("crypto: quote nonce mismatch (possible replay)")
	}
	msg := quoteMessage(q.PCRMask, q.Composite, q.Nonce)
	if !ek.Verify(msg, q.Signature) {
		return errors.New("crypto: quote signature invalid")
	}
	if q.Composite != expectedComposite {
		return fmt.Errorf("crypto: attested PCR composite %s differs from expected %s (component tampered)",
			q.Composite.Short(), expectedComposite.Short())
	}
	return nil
}

func quoteMessage(mask uint8, composite Digest, nonce []byte) []byte {
	return SumAll([]byte{mask}, composite[:], nonce).Bytes()
}

// MeasurementLog records which components were measured at "boot" so a
// verifier can recompute the expected PCR composite.
//
//lint:ignore deadcode examples/trustedplatform runs it: the System Integrity mitigation of paper §III (measured boot, sealing, attestation)
type MeasurementLog struct {
	mu      sync.Mutex
	entries []MeasurementEntry
}

// MeasurementEntry is one measured component.
type MeasurementEntry struct {
	PCRIndex  int    `json:"pcrIndex"`
	Component string `json:"component"`
	Digest    Digest `json:"digest"`
}

// Append records a measurement.
func (l *MeasurementLog) Append(pcrIndex int, component string, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, MeasurementEntry{PCRIndex: pcrIndex, Component: component, Digest: Sum(data)})
}

// Entries returns a copy of the log.
func (l *MeasurementLog) Entries() []MeasurementEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]MeasurementEntry, len(l.entries))
	copy(out, l.entries)
	return out
}

// ExpectedPCRs replays the measurement log to compute the PCR values a
// well-behaved platform should exhibit.
func (l *MeasurementLog) ExpectedPCRs() [NumPCRs]Digest {
	l.mu.Lock()
	defer l.mu.Unlock()
	var pcrs [NumPCRs]Digest
	for _, e := range l.entries {
		if e.PCRIndex < 0 || e.PCRIndex >= NumPCRs {
			continue
		}
		pcrs[e.PCRIndex] = SumAll(pcrs[e.PCRIndex][:], e.Digest[:])
	}
	return pcrs
}

// ExpectedComposite computes the composite digest over the PCRs selected by
// mask that a platform faithfully extending this log would attest to.
func (l *MeasurementLog) ExpectedComposite(mask uint8) Digest {
	pcrs := l.ExpectedPCRs()
	var chunks [][]byte
	for i := 0; i < NumPCRs; i++ {
		if mask&(1<<i) != 0 {
			chunks = append(chunks, pcrs[i].Bytes())
		}
	}
	return SumAll(chunks...)
}

// ComponentsByPCR lists measured component names grouped by register, sorted
// for stable display.
func (l *MeasurementLog) ComponentsByPCR() map[int][]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int][]string)
	for _, e := range l.entries {
		out[e.PCRIndex] = append(out[e.PCRIndex], e.Component)
	}
	for _, names := range out {
		sort.Strings(names)
	}
	return out
}

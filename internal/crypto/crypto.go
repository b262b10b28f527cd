// Package crypto supplies the cryptographic substrate of DRAMS:
//
//   - Digest: SHA-256 content digests used to fingerprint requests, responses,
//     policies and blocks.
//   - Cipher: AES-256-GCM authenticated symmetric encryption. The Logging
//     Interfaces share a symmetric key K and encrypt every log payload before
//     it reaches the blockchain, because on-chain data is visible to all
//     participants (paper §II).
//   - Identity / PublicIdentity: ed25519 signing identities for components
//     (agents, LIs, analyser, PAP). Every blockchain transaction is signed so
//     that log forgery by outsiders is rejected (attack A8).
//
// The §III "System Integrity" mitigation (measured boot, sealing K in a
// TPM) is a deployment measure and is not simulated here: K is a shared
// secret every member derives from the federation's seed.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// DigestSize is the size in bytes of a Digest.
const DigestSize = sha256.Size

// Digest is a SHA-256 hash value.
type Digest [DigestSize]byte

// Sum computes the digest of data.
func Sum(data []byte) Digest { return sha256.Sum256(data) }

// SumAll computes the digest of the concatenation of the given chunks, each
// prefixed by its length so the encoding is injective. The chunks are hashed
// where they lie; the hash state and the output stay on the stack.
func SumAll(chunks ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, c := range chunks {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(c)))
		h.Write(lenBuf[:])
		h.Write(c)
	}
	var d Digest
	h.Sum(d[:0])
	return d
}

// String renders the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short returns the first 8 hex characters for compact display.
func (d Digest) Short() string { return hex.EncodeToString(d[:4]) }

// IsZero reports whether the digest is all zeroes.
func (d Digest) IsZero() bool { return d == Digest{} }

// Bytes returns a copy of the digest as a slice.
func (d Digest) Bytes() []byte {
	out := make([]byte, DigestSize)
	copy(out, d[:])
	return out
}

// MarshalText renders the digest as 64 lowercase hex characters, so every
// JSON surface carries a digest as one string (and as a map key) instead of
// an array of 32 numbers.
func (d Digest) MarshalText() ([]byte, error) {
	return hex.AppendEncode(make([]byte, 0, 2*DigestSize), d[:]), nil
}

// UnmarshalText is the strict inverse of MarshalText: exactly 64 hex
// characters, anything else is an error and leaves d untouched.
func (d *Digest) UnmarshalText(text []byte) error {
	if len(text) != 2*DigestSize {
		return fmt.Errorf("crypto: parse digest: want %d hex characters, got %d", 2*DigestSize, len(text))
	}
	var out Digest
	if _, err := hex.Decode(out[:], text); err != nil {
		return fmt.Errorf("crypto: parse digest: %w", err)
	}
	*d = out
	return nil
}

// LeadingZeroBits counts the number of leading zero bits in the digest; this
// is the proof-of-work difficulty measure used by the blockchain.
func (d Digest) LeadingZeroBits() int {
	n := 0
	for _, b := range d {
		if b == 0 {
			n += 8
			continue
		}
		for mask := byte(0x80); mask != 0; mask >>= 1 {
			if b&mask != 0 {
				return n
			}
			n++
		}
	}
	return n
}

// KeySize is the AES-256 key size in bytes.
const KeySize = 32

// Key is a symmetric encryption key (the shared LI key K from the paper).
type Key [KeySize]byte

// DeriveKey deterministically derives a key from a passphrase and context
// label using HMAC-SHA256 (sufficient for simulation; not a password KDF).
func DeriveKey(passphrase, context string) Key {
	mac := hmac.New(sha256.New, []byte(passphrase))
	mac.Write([]byte(context))
	var k Key
	copy(k[:], mac.Sum(nil))
	return k
}

// ErrDecrypt is returned when a ciphertext fails authentication — either the
// wrong key was used or the ciphertext was tampered with.
var ErrDecrypt = errors.New("crypto: message authentication failed")

// Cipher performs AES-256-GCM authenticated encryption with a fixed key.
// It is safe for concurrent use.
type Cipher struct {
	aead cipher.AEAD
}

// NewCipher constructs a Cipher around key.
func NewCipher(key Key) (*Cipher, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("crypto: new cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("crypto: new GCM: %w", err)
	}
	return &Cipher{aead: aead}, nil
}

// Encrypt seals plaintext with a random nonce; the nonce is prepended to the
// returned ciphertext. additional is authenticated but not encrypted and must
// be presented again at decryption.
func (c *Cipher) Encrypt(plaintext, additional []byte) ([]byte, error) {
	nonce := make([]byte, c.aead.NonceSize(), c.aead.NonceSize()+len(plaintext)+c.aead.Overhead())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("crypto: nonce: %w", err)
	}
	return c.aead.Seal(nonce, nonce, plaintext, additional), nil
}

// Decrypt opens a ciphertext produced by Encrypt. It returns ErrDecrypt if
// authentication fails.
func (c *Cipher) Decrypt(ciphertext, additional []byte) ([]byte, error) {
	return c.DecryptTo(nil, ciphertext, additional)
}

// DecryptTo is Decrypt appending the plaintext to dst, whose spare capacity
// it uses, so a caller that opens one payload at a time reuses one buffer.
// dst must not overlap ciphertext.
func (c *Cipher) DecryptTo(dst, ciphertext, additional []byte) ([]byte, error) {
	ns := c.aead.NonceSize()
	if len(ciphertext) < ns {
		return nil, fmt.Errorf("crypto: ciphertext too short (%d bytes): %w", len(ciphertext), ErrDecrypt)
	}
	nonce, sealed := ciphertext[:ns], ciphertext[ns:]
	pt, err := c.aead.Open(dst, nonce, sealed, additional)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// Identity is an ed25519 signing identity for a DRAMS component. Both
// constructors derive the public key from the private one, and the fields
// are unexported, so every signature an Identity makes verifies under its
// Public() key. A chain member relies on this to admit its own Sender's
// transactions without verifying them (blockchain.TxVerifier.vouch).
type Identity struct {
	name string
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewIdentity generates a fresh identity with the given component name.
func NewIdentity(name string) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("crypto: generate identity %q: %w", name, err)
	}
	return &Identity{name: name, priv: priv, pub: pub}, nil
}

// NewIdentityFromSeed derives a deterministic identity from a 32-byte seed;
// used by simulations that must be reproducible.
func NewIdentityFromSeed(name string, seed [32]byte) *Identity {
	priv := ed25519.NewKeyFromSeed(seed[:])
	return &Identity{name: name, priv: priv, pub: priv.Public().(ed25519.PublicKey)}
}

// Name returns the component name bound to the identity.
func (id *Identity) Name() string { return id.name }

// Public returns the shareable half of the identity.
func (id *Identity) Public() PublicIdentity {
	pub := make(ed25519.PublicKey, len(id.pub))
	copy(pub, id.pub)
	return PublicIdentity{Name: id.name, Key: pub}
}

// Sign signs msg.
func (id *Identity) Sign(msg []byte) []byte {
	return ed25519.Sign(id.priv, msg)
}

// PublicIdentity is the verifying half of an Identity.
type PublicIdentity struct {
	Name string            `json:"name"`
	Key  ed25519.PublicKey `json:"key"`
}

// Verify reports whether sig is a valid signature over msg by this identity.
func (p PublicIdentity) Verify(msg, sig []byte) bool {
	if len(p.Key) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(p.Key, msg, sig)
}

// MACKey is a key prepared once for HMAC-SHA256 (RFC 2104): the key, padded
// to the SHA-256 block, XORed with the inner and with the outer pad. Sum
// copies the pads into a buffer of its own, so one MACKey serves concurrent
// callers, and a message of up to macInline bytes is MACed on the stack
// without allocating.
type MACKey struct {
	ipad, opad [sha256.BlockSize]byte
}

// macInline is the longest message Sum hashes in a stack buffer.
const macInline = 192

// NewMACKey prepares key for HMAC-SHA256.
func NewMACKey(key Key) MACKey {
	var mk MACKey
	for i := range mk.ipad {
		mk.ipad[i], mk.opad[i] = 0x36, 0x5c
	}
	for i, b := range key {
		mk.ipad[i] ^= b
		mk.opad[i] ^= b
	}
	return mk
}

// Sum computes HMAC-SHA256 of msg: SHA-256(opad || SHA-256(ipad || msg)).
func (mk *MACKey) Sum(msg []byte) Digest {
	var inner Digest
	if len(msg) <= macInline {
		var buf [sha256.BlockSize + macInline]byte
		copy(buf[:], mk.ipad[:])
		n := copy(buf[sha256.BlockSize:], msg)
		inner = sha256.Sum256(buf[:sha256.BlockSize+n])
	} else {
		inner = sha256.Sum256(append(append(make([]byte, 0, sha256.BlockSize+len(msg)), mk.ipad[:]...), msg...))
	}
	var outer [sha256.BlockSize + DigestSize]byte
	copy(outer[:], mk.opad[:])
	copy(outer[sha256.BlockSize:], inner[:])
	return sha256.Sum256(outer[:])
}

// ConstantTimeEqual compares two byte slices in constant time.
func ConstantTimeEqual(a, b []byte) bool {
	return hmac.Equal(a, b)
}

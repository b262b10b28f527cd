package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestSumDeterministic(t *testing.T) {
	a := Sum([]byte("hello"))
	b := Sum([]byte("hello"))
	if a != b {
		t.Fatal("Sum not deterministic")
	}
	if a == Sum([]byte("world")) {
		t.Fatal("different inputs collided")
	}
}

func TestSumAllInjectiveFraming(t *testing.T) {
	// ("ab","c") must differ from ("a","bc") — length framing makes the
	// encoding injective.
	if SumAll([]byte("ab"), []byte("c")) == SumAll([]byte("a"), []byte("bc")) {
		t.Fatal("SumAll framing is not injective")
	}
	if SumAll() == SumAll([]byte{}) {
		t.Fatal("zero chunks vs one empty chunk should differ")
	}
}

func TestDigestStringParseRoundTrip(t *testing.T) {
	d := Sum([]byte("round trip"))
	var parsed Digest
	if err := parsed.UnmarshalText([]byte(d.String())); err != nil {
		t.Fatal(err)
	}
	if parsed != d {
		t.Fatal("digest round trip mismatch")
	}
}

func TestParseDigestErrors(t *testing.T) {
	var d Digest
	if err := d.UnmarshalText([]byte("zz")); err == nil {
		t.Fatal("bad hex accepted")
	}
	if err := d.UnmarshalText([]byte("abcd")); err == nil {
		t.Fatal("short digest accepted")
	}
}

// A digest travels through JSON as one lowercase hex string, and only
// exactly 64 hex characters come back as a digest.
func TestDigestTextCodec(t *testing.T) {
	type carrier struct {
		D    Digest  `json:"d"`
		Zero Digest  `json:"zero,omitzero"`
		P    *Digest `json:"p"`
	}
	d := Sum([]byte("text codec"))
	enc, err := json.Marshal(carrier{D: d, P: &d})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`{"d":"%s","p":"%s"}`, d, d); string(enc) != want {
		t.Fatalf("encoded %s, want %s", enc, want)
	}
	var back carrier
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if back.D != d || *back.P != d || !back.Zero.IsZero() {
		t.Fatalf("round trip: %+v", back)
	}

	hexd := d.String()
	for name, text := range map[string]string{
		"empty":        "",
		"one short":    hexd[:63],
		"one long":     hexd + "0",
		"half":         hexd[:32],
		"non-hex":      "zz" + hexd[2:],
		"0x prefix":    "0x" + hexd[2:],
		"inner space":  hexd[:10] + " " + hexd[11:],
		"32 raw bytes": string(d[:]),
	} {
		got := d
		if err := got.UnmarshalText([]byte(text)); err == nil {
			t.Errorf("%s: %q accepted", name, text)
		}
		if got != d {
			t.Errorf("%s: failed parse overwrote the digest", name)
		}
	}
	// The old form, an array of 32 numbers, is no longer a digest.
	if err := json.Unmarshal([]byte(`{"d":[`+strings.Repeat("0,", 31)+`0]}`), &back); err == nil {
		t.Error("number-array digest accepted")
	}
}

func TestDigestZeroAndShort(t *testing.T) {
	var z Digest
	if !z.IsZero() {
		t.Fatal("zero digest not IsZero")
	}
	d := Sum([]byte("x"))
	if d.IsZero() {
		t.Fatal("real digest IsZero")
	}
	if len(d.Short()) != 8 {
		t.Fatalf("Short = %q", d.Short())
	}
	b := d.Bytes()
	b[0] ^= 0xff
	if d.Bytes()[0] == b[0] {
		t.Fatal("Bytes did not copy")
	}
}

func TestLeadingZeroBits(t *testing.T) {
	cases := []struct {
		d    Digest
		want int
	}{
		{Digest{0x80}, 0},
		{Digest{0x40}, 1},
		{Digest{0x01}, 7},
		{Digest{0x00, 0x80}, 8},
		{Digest{0x00, 0x00, 0x20}, 18},
	}
	for _, c := range cases {
		if got := c.d.LeadingZeroBits(); got != c.want {
			t.Errorf("LeadingZeroBits(% x...) = %d, want %d", c.d[:3], got, c.want)
		}
	}
	var all Digest
	if got := all.LeadingZeroBits(); got != 256 {
		t.Errorf("all-zero digest = %d, want 256", got)
	}
}

func TestCipherRoundTrip(t *testing.T) {
	c, err := NewCipher(DeriveKey("round-trip", "ctx"))
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("the PDP decided Permit for request 42")
	ad := []byte("tenant-1")
	ct, err := c.Encrypt(pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decrypt(ct, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip: got %q", got)
	}
}

func TestCipherTamperDetection(t *testing.T) {
	c, err := NewCipher(DeriveKey("pw", "ctx"))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := c.Encrypt([]byte("secret log entry"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ct); i += 7 {
		mutated := append([]byte(nil), ct...)
		mutated[i] ^= 0x01
		if _, err := c.Decrypt(mutated, nil); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("bit flip at %d not detected: %v", i, err)
		}
	}
}

func TestCipherWrongAdditionalData(t *testing.T) {
	c, _ := NewCipher(DeriveKey("pw", "ctx"))
	ct, _ := c.Encrypt([]byte("data"), []byte("ad1"))
	if _, err := c.Decrypt(ct, []byte("ad2")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong AD accepted: %v", err)
	}
}

func TestCipherWrongKey(t *testing.T) {
	c1, _ := NewCipher(DeriveKey("pw1", "ctx"))
	c2, _ := NewCipher(DeriveKey("pw2", "ctx"))
	ct, _ := c1.Encrypt([]byte("data"), nil)
	if _, err := c2.Decrypt(ct, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong key accepted: %v", err)
	}
}

func TestCipherShortCiphertext(t *testing.T) {
	c, _ := NewCipher(DeriveKey("pw", "ctx"))
	if _, err := c.Decrypt([]byte{1, 2, 3}, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("short ciphertext: %v", err)
	}
}

func TestCipherNonceUniqueness(t *testing.T) {
	c, _ := NewCipher(DeriveKey("pw", "ctx"))
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		ct, err := c.Encrypt([]byte("same plaintext"), nil)
		if err != nil {
			t.Fatal(err)
		}
		nonce := string(ct[:12])
		if seen[nonce] {
			t.Fatal("nonce reused")
		}
		seen[nonce] = true
	}
}

func TestCipherPropertyRoundTrip(t *testing.T) {
	c, _ := NewCipher(DeriveKey("quick", "prop"))
	if err := quick.Check(func(pt, ad []byte) bool {
		ct, err := c.Encrypt(pt, ad)
		if err != nil {
			return false
		}
		got, err := c.Decrypt(ct, ad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveKeyDeterministicAndContextual(t *testing.T) {
	if DeriveKey("a", "x") != DeriveKey("a", "x") {
		t.Fatal("DeriveKey not deterministic")
	}
	if DeriveKey("a", "x") == DeriveKey("a", "y") {
		t.Fatal("context does not separate keys")
	}
	if DeriveKey("a", "x") == DeriveKey("b", "x") {
		t.Fatal("passphrase does not separate keys")
	}
}

// Each constructor yields an Identity whose signatures verify under its
// Public() key, and only over the signed message.
func TestIdentitySignVerify(t *testing.T) {
	fresh, err := NewIdentity("pep-1")
	if err != nil {
		t.Fatal(err)
	}
	var seed [32]byte
	seed[0] = 7
	for _, id := range []*Identity{fresh, NewIdentityFromSeed("pep-2", seed)} {
		msg := []byte("log entry payload")
		sig := id.Sign(msg)
		pub := id.Public()
		if !pub.Verify(msg, sig) {
			t.Fatalf("%s: valid signature rejected", id.Name())
		}
		if pub.Verify([]byte("other"), sig) {
			t.Fatalf("%s: signature verified for wrong message", id.Name())
		}
		sig[0] ^= 1
		if pub.Verify(msg, sig) {
			t.Fatalf("%s: mutated signature accepted", id.Name())
		}
	}
}

func TestIdentityFromSeedDeterministic(t *testing.T) {
	var seed [32]byte
	seed[0] = 9
	a := NewIdentityFromSeed("n", seed)
	b := NewIdentityFromSeed("n", seed)
	msg := []byte("m")
	if !a.Public().Verify(msg, b.Sign(msg)) {
		t.Fatal("seeded identities differ")
	}
	if a.Name() != "n" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestPublicIdentityFingerprint(t *testing.T) {
	a, _ := NewIdentity("x")
	b, _ := NewIdentity("x")
	if bytes.Equal(a.Public().Key, b.Public().Key) {
		t.Fatal("two identities of one name share a key")
	}
	var empty PublicIdentity
	if empty.Verify([]byte("m"), []byte("sig")) {
		t.Fatal("empty identity verified something")
	}
}

func TestHMAC(t *testing.T) {
	k, k2 := NewMACKey(DeriveKey("k", "hmac")), NewMACKey(DeriveKey("k2", "hmac"))
	a := k.Sum([]byte("msg"))
	if a != k.Sum([]byte("msg")) {
		t.Fatal("HMAC not deterministic")
	}
	if a == k.Sum([]byte("msg2")) {
		t.Fatal("HMAC collision on different messages")
	}
	if a == k2.Sum([]byte("msg")) {
		t.Fatal("HMAC collision on different keys")
	}
}

func TestConstantTimeEqual(t *testing.T) {
	if !ConstantTimeEqual([]byte("ab"), []byte("ab")) {
		t.Fatal("equal slices unequal")
	}
	if ConstantTimeEqual([]byte("ab"), []byte("ac")) {
		t.Fatal("unequal slices equal")
	}
}

// TestMACKeyMatchesStdlib: the prepared key gives crypto/hmac's MAC for
// messages on both sides of the inline bound, and neither a short message's
// MAC nor a framed hash allocates.
func TestMACKeyMatchesStdlib(t *testing.T) {
	k := DeriveKey("k", "hmac")
	mk := NewMACKey(k)
	for _, n := range []int{0, 1, 55, 64, macInline, macInline + 1, 1000} {
		msg := bytes.Repeat([]byte{byte(n)}, n)
		ref := hmac.New(sha256.New, k[:])
		ref.Write(msg)
		if got := mk.Sum(msg); !bytes.Equal(got[:], ref.Sum(nil)) {
			t.Errorf("%d-byte message: MAC differs from crypto/hmac", n)
		}
	}
	msg := []byte("decision|req-1|2")
	chunk := bytes.Repeat([]byte("a"), 1500)
	for name, f := range map[string]func(){
		"MACKey.Sum": func() { _ = mk.Sum(msg) },
		"SumAll":     func() { _ = SumAll(msg, chunk) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.0f per call, want 0", name, n)
		}
	}
}

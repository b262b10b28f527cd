package xacml

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// Cache returns the attached decision cache, or nil.
func (p *PDP) Cache() *DecisionCache { return p.cache.Load() }

// cacheTestRequests builds a pool of generated requests against a generated
// policy set large enough that decisions vary.
func cacheTestRequests(n int) (*PolicySet, []*Request) {
	gen := NewGenerator(7, GenParams{Rules: 40, Policies: 2, Attrs: 4, ValuesPerAttr: 4, MaxCondDepth: 2})
	ps := gen.PolicySet("cache", "v1")
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = gen.Request(fmt.Sprintf("r%d", i))
	}
	return ps, reqs
}

// TestCachedPDPBitForBit checks a cached PDP returns exactly the results an
// uncached PDP produces — on cold misses, warm hits, and for requests that
// share attribute content but differ in correlation ID.
func TestCachedPDPBitForBit(t *testing.T) {
	ps, reqs := cacheTestRequests(64)
	plain := NewPDP(ps)
	cached := NewCachedPDP(ps, 1024)

	for round := 0; round < 2; round++ { // round 0 cold, round 1 warm
		for i, r := range reqs {
			want, err := plain.Evaluate(r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cached.Evaluate(r)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d req %d: cached %+v != plain %+v", round, i, got, want)
			}
		}
	}
	stats := cached.Cache().Stats()
	if stats.Hits != int64(len(reqs)) || stats.Misses != int64(len(reqs)) {
		t.Fatalf("stats = %+v, want %d hits / %d misses", stats, len(reqs), len(reqs))
	}

	// Same attributes under a fresh correlation ID: served from cache, with
	// the new ID stamped in.
	clone := reqs[0].Clone()
	clone.ID = "fresh-correlation-id"
	res, err := cached.Evaluate(clone)
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != "fresh-correlation-id" {
		t.Fatalf("cached result kept stale correlation ID %q", res.RequestID)
	}
	wantClone, _ := plain.Evaluate(clone)
	if !reflect.DeepEqual(wantClone, res) {
		t.Fatalf("re-correlated cached result diverged: %+v != %+v", res, wantClone)
	}
}

// TestCacheDigestInvalidation checks that loading a different policy set
// never serves decisions computed under the old one — both via the Load
// purge and via the per-entry policy-digest check.
func TestCacheDigestInvalidation(t *testing.T) {
	permit := &PolicySet{ID: "ps", Version: "v1", Alg: PermitUnlessDeny,
		Items: []PolicyItem{{Policy: &Policy{ID: "p", Alg: PermitUnlessDeny}}}}
	deny := &PolicySet{ID: "ps", Version: "v2", Alg: DenyUnlessPermit,
		Items: []PolicyItem{{Policy: &Policy{ID: "p", Alg: DenyUnlessPermit}}}}

	pdp := NewCachedPDP(permit, 64)
	req := NewRequest("r1").Add(CatSubject, "role", String("doctor"))
	res, err := pdp.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Permit {
		t.Fatalf("v1 decision = %v", res.Decision)
	}

	pdp.Load(deny)
	res, err = pdp.Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != Deny {
		t.Fatalf("stale cached decision after policy swap: %v", res.Decision)
	}
	if res.PolicyVersion != "v2" || res.PolicyDigest != deny.Digest() {
		t.Fatalf("result carries stale policy identity: %+v", res)
	}
	if pdp.Cache().Stats().Purges != 1 {
		t.Fatalf("purges = %d", pdp.Cache().Stats().Purges)
	}

	// Belt and braces: even an entry that survives a missed purge is
	// rejected by its policy digest.
	cache := NewDecisionCache(64)
	key := req.Digest()
	cache.Put(key, permit.Digest(), Result{Decision: Permit}, cache.Epoch())
	if _, ok := cache.Get(key, deny.Digest()); ok {
		t.Fatal("entry under old policy digest served for new digest")
	}
	if cache.Stats().Invalidations != 1 {
		t.Fatalf("invalidations = %d", cache.Stats().Invalidations)
	}
	if cache.Len() != 0 {
		t.Fatal("invalidated entry not discarded")
	}
}

// TestCacheEvictionBound checks the LRU bound holds under churn.
func TestCacheEvictionBound(t *testing.T) {
	ps, reqs := cacheTestRequests(512)
	pdp := NewCachedPDP(ps, 64)
	for _, r := range reqs {
		if _, err := pdp.Evaluate(r); err != nil {
			t.Fatal(err)
		}
	}
	c := pdp.Cache()
	if c.Len() > 64 {
		t.Fatalf("cache holds %d entries, bound 64", c.Len())
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded under churn")
	}
}

// TestCacheConcurrent evaluates a shared request pool from many goroutines
// with a concurrent policy reload mixed in; run under -race this checks the
// striped locking, and every result must be internally consistent (decision
// matching the policy digest it claims).
func TestCacheConcurrent(t *testing.T) {
	permit := &PolicySet{ID: "ps", Version: "v1", Alg: PermitUnlessDeny,
		Items: []PolicyItem{{Policy: &Policy{ID: "p", Alg: PermitUnlessDeny}}}}
	deny := &PolicySet{ID: "ps", Version: "v2", Alg: DenyUnlessPermit,
		Items: []PolicyItem{{Policy: &Policy{ID: "p", Alg: DenyUnlessPermit}}}}
	permitDigest, denyDigest := permit.Digest(), deny.Digest()

	pdp := NewCachedPDP(permit, 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				req := NewRequest(fmt.Sprintf("g%d-i%d", g, i)).
					Add(CatSubject, "user", String(fmt.Sprintf("u%d", i%16)))
				res, err := pdp.Evaluate(req)
				if err != nil {
					t.Error(err)
					return
				}
				switch res.PolicyDigest {
				case permitDigest:
					if res.Decision != Permit {
						t.Errorf("v1 result with decision %v", res.Decision)
					}
				case denyDigest:
					if res.Decision != Deny {
						t.Errorf("v2 result with decision %v", res.Decision)
					}
				default:
					t.Error("result with unknown policy digest")
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if i%2 == 0 {
				pdp.Load(deny)
			} else {
				pdp.Load(permit)
			}
		}
	}()
	wg.Wait()
}

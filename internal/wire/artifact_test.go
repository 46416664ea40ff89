package wire

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/tensor"
)

func artKey(snap uint64, member int, tag string) ArtifactKey {
	return ArtifactKey{Snapshot: snap, Member: member, Codec: tag}
}

// The store's bytes must be exactly what a direct refless encode of the
// same state produces — the pinning that keeps artifact-served runs
// bit-identical to per-client-encode runs.
func TestArtifactBytesMatchDirectEncode(t *testing.T) {
	st := randState(7)
	for _, tag := range []string{TagRaw, TagF32, TagQ8, TagDelta} {
		c, err := ByTag(tag)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := c.Encode(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := NewArtifactStore(0)
		art, err := s.Get(artKey(1, 0, tag), c, func() (nn.State, error) { return st, nil })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(art.Bytes, direct) {
			t.Fatalf("%s: artifact bytes diverge from direct encode", tag)
		}
		// State is the decoded round-trip — what a device would decode —
		// not the pre-encode input (they differ under lossy codecs).
		roundTrip, err := c.Decode(direct, nil)
		if err != nil {
			t.Fatal(err)
		}
		if nn.HashState(art.State) != nn.HashState(roundTrip) {
			t.Fatalf("%s: artifact state diverges from decoded round-trip", tag)
		}
	}
}

// Each key encodes exactly once no matter how many concurrent dispatch
// workers ask for it.
func TestArtifactEncodeOnce(t *testing.T) {
	st := randState(8)
	c, _ := ByTag(TagQ8)
	s := NewArtifactStore(0)
	var calls int
	var mu sync.Mutex
	stateFn := func() (nn.State, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return st, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Get(artKey(42, 1, TagQ8), c, stateFn); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("state extracted %d times, want 1", calls)
	}
	if s.Encodes() != 1 {
		t.Fatalf("Encodes() = %d, want 1", s.Encodes())
	}
	if s.Hits() != 15 {
		t.Fatalf("Hits() = %d, want 15", s.Hits())
	}
}

// Distinct (snapshot, member, codec) keys are distinct artifacts and
// distinct ETags.
func TestArtifactKeysAndETagsDistinct(t *testing.T) {
	keys := []ArtifactKey{
		{Snapshot: 1, Member: 0, Codec: TagQ8},
		{Snapshot: 2, Member: 0, Codec: TagQ8},
		{Snapshot: 1, Member: 1, Codec: TagQ8},
		{Snapshot: 1, Member: 0, Codec: TagDelta},
	}
	seen := map[string]bool{}
	for _, k := range keys {
		et := k.ETag()
		if seen[et] {
			t.Fatalf("duplicate ETag %s", et)
		}
		seen[et] = true
	}
}

func TestArtifactStoreEviction(t *testing.T) {
	st := randState(9)
	c, _ := ByTag(TagF32)
	s := NewArtifactStore(2)
	// get reports whether the Get of snap encoded, that is, missed.
	get := func(snap uint64) bool {
		before := s.Encodes()
		if _, err := s.Get(artKey(snap, 0, TagF32), c, func() (nn.State, error) { return st, nil }); err != nil {
			t.Fatal(err)
		}
		return s.Encodes() > before
	}
	get(1)
	get(2)
	get(3) // evicts 1
	if s.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", s.Len())
	}
	if !get(1) { // re-encode after eviction; evicts 2, the LRU victim
		t.Fatal("evicted artifact still resident")
	}
	if get(3) {
		t.Fatal("recently used artifact evicted")
	}
	if !get(2) {
		t.Fatal("LRU victim still resident")
	}
	if s.Encodes() != 5 {
		t.Fatalf("Encodes() = %d, want 5", s.Encodes())
	}
}

// A failed stateFn or encode leaves no poisoned entry: callers that were
// waiting on it share the error, and the next Get of the key starts over.
func TestArtifactStateFnError(t *testing.T) {
	c, _ := ByTag(TagRaw)
	s := NewArtifactStore(0)
	wantErr := fmt.Errorf("extract failed")
	_, err := s.Get(artKey(1, 0, TagRaw), c, func() (nn.State, error) { return nil, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if s.Len() != 0 || s.Encodes() != 0 {
		t.Fatal("failed encode left residue")
	}

	// A second caller that reaches Get while the failing call is inside
	// stateFn either queues behind the failing entry (and shares wantErr)
	// or arrives after it was dropped (and encodes for itself). It must
	// not hang, and must not get a nil artifact without an error.
	inside, calling := make(chan struct{}), make(chan struct{})
	type result struct {
		art *Artifact
		err error
	}
	second := make(chan result, 1)
	go func() {
		<-inside
		close(calling)
		art, err := s.Get(artKey(1, 0, TagRaw), c, func() (nn.State, error) { return randState(10), nil })
		second <- result{art, err}
	}()
	_, err = s.Get(artKey(1, 0, TagRaw), c, func() (nn.State, error) {
		close(inside)
		<-calling
		return nil, wantErr
	})
	if err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if r := <-second; (r.err == nil) == (r.art == nil) || (r.err != nil && r.err != wantErr) {
		t.Fatalf("second caller: art = %v, err = %v", r.art, r.err)
	}

	// An encode failure (Q8 refuses NaN) is dropped the same way.
	q8, _ := ByTag(TagQ8)
	bad := nn.State{"w": tensor.FromSlice([]float64{1, math.NaN()}, 2)}
	if _, err := s.Get(artKey(2, 0, TagQ8), q8, func() (nn.State, error) { return bad, nil }); err == nil {
		t.Fatal("NaN state encoded")
	}
	before := s.Encodes()
	art, err := s.Get(artKey(2, 0, TagQ8), q8, func() (nn.State, error) { return randState(10), nil })
	if err != nil || art == nil || len(art.Bytes) == 0 {
		t.Fatalf("retry after failure: art = %v, err = %v", art, err)
	}
	if s.Encodes() != before+1 {
		t.Fatal("failed encode is resident: the retry did not encode")
	}
}

// Misses on different keys must not serialise: both callers are inside
// their stateFn at the same time, and the counters stay readable meanwhile.
func TestArtifactDistinctKeysEncodeConcurrently(t *testing.T) {
	st := randState(11)
	c, _ := ByTag(TagF32)
	s := NewArtifactStore(0)
	var inside sync.WaitGroup
	inside.Add(2)
	both := make(chan struct{})
	go func() { inside.Wait(); close(both) }()
	var wg sync.WaitGroup
	for member := 0; member < 2; member++ {
		member := member
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Get(artKey(7, member, TagF32), c, func() (nn.State, error) {
				inside.Done()
				select {
				case <-both:
					_ = s.Hits() + s.Encodes() + int64(s.Len()) // must not block on a pending encode
					return st, nil
				case <-time.After(10 * time.Second):
					return nil, fmt.Errorf("member %d: the other key never entered stateFn", member)
				}
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if s.Encodes() != 2 || s.Len() != 2 {
		t.Fatalf("Encodes() = %d, Len() = %d, want 2, 2", s.Encodes(), s.Len())
	}
}

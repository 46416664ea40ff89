package wire

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"adaptivefl/internal/nn"
)

// ArtifactKey content-addresses one encoded downlink artifact: the bytes
// a (snapshot, width, codec) triple encodes to are a pure function of the
// key, so every client of a cohort can be served the same artifact and a
// client that already holds it can skip the body entirely.
type ArtifactKey struct {
	// Snapshot is the global-state hash (nn.HashState) the artifact was
	// extracted from. Any single-bit weight change yields a new key.
	Snapshot uint64
	// Member is the pool member (width) index the dispatch extracted.
	Member int
	// Codec is the wire codec tag the artifact is encoded with.
	Codec string
}

// ETag renders the key as a strong HTTP entity tag for the fednet
// downlink. Distinct keys render distinct tags.
func (k ArtifactKey) ETag() string {
	return fmt.Sprintf("\"%016x-%d-%s\"", k.Snapshot, k.Member, k.Codec)
}

// Artifact is one cached encode: the wire bytes plus the state they
// decode to. Both are shared across every consumer of the key —
// read-only; a trainer that mutates State corrupts the cohort.
type Artifact struct {
	Key ArtifactKey
	// Bytes is the encoded payload, byte-identical to what a direct
	// Codec.Encode of the extracted state would produce (the store pins
	// this).
	Bytes []byte
	// State is, bit for bit, what Decode of Bytes returns — exactly what a
	// remote device decodes, so serving it to in-process trainers keeps
	// them bit-identical to HTTP ones. It is also the uplink reference
	// both ends diff against for ref-using codecs. The store computes it
	// from the encoder's side, in the state stateFn returned, without
	// inflating Bytes.
	State nn.State
}

// DefaultArtifactCap bounds the artifact LRU: commits are serial and a
// pool has a handful of widths, so a small cap covers the live snapshot
// plus the stale in-flight tail.
const DefaultArtifactCap = 16

// ArtifactStore memoises encoded dispatch artifacts by key with LRU
// eviction. Residency is per key: the first Get of a key inserts a pending
// entry under the store lock and encodes outside it, later Gets of the
// same key wait on that entry — so each key is encoded exactly once per
// residency no matter how many dispatch workers race on it (the
// encode-once invariant the scheduler bench pins), while workers that miss
// on different keys encode side by side.
type ArtifactStore struct {
	mu      sync.Mutex
	capn    int
	index   map[ArtifactKey]*list.Element
	lru     *list.List // front = most recently used; value is *artEntry
	encodes atomic.Int64
	hits    atomic.Int64
}

// artEntry is one key's residency. art and err are written once, before
// ready is closed, and read only after it.
type artEntry struct {
	key   ArtifactKey
	ready chan struct{}
	art   *Artifact
	err   error
}

// NewArtifactStore builds a store holding at most capn artifacts
// (0 = DefaultArtifactCap).
func NewArtifactStore(capn int) *ArtifactStore {
	if capn <= 0 {
		capn = DefaultArtifactCap
	}
	return &ArtifactStore{capn: capn, index: map[ArtifactKey]*list.Element{}, lru: list.New()}
}

// Get returns the artifact for key, encoding it at most once: on a miss,
// stateFn supplies the state dict and c encodes it refless. The store owns
// the state stateFn returns: it rounds its values in place to what the
// bytes decode to and serves it as the artifact's State, so stateFn must
// hand over a state no one else reads or writes. c may wrap a shipped
// codec (a timing or fault-injecting wrapper): the round trip is that of
// the shipped codec with c's tag, and a tag no shipped codec has is an
// error. Concurrent
// callers of the same key wait for the first one's artifact instead of
// re-encoding, and share its error if it fails; a failed entry is dropped,
// so the next Get tries again.
func (s *ArtifactStore) Get(key ArtifactKey, c Codec, stateFn func() (nn.State, error)) (*Artifact, error) {
	s.mu.Lock()
	if el, ok := s.index[key]; ok {
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		e := el.Value.(*artEntry)
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		s.hits.Add(1)
		return e.art, nil
	}
	e := &artEntry{key: key, ready: make(chan struct{})}
	el := s.lru.PushFront(e)
	s.index[key] = el
	// Evicting a pending entry is harmless: its waiters hold the entry, not
	// the index slot.
	for s.lru.Len() > s.capn {
		back := s.lru.Back()
		delete(s.index, back.Value.(*artEntry).key)
		s.lru.Remove(back)
	}
	s.mu.Unlock()

	e.art, e.err = encodeArtifact(key, c, stateFn)
	if e.err != nil {
		s.mu.Lock()
		if s.index[key] == el {
			delete(s.index, key)
			s.lru.Remove(el)
		}
		s.mu.Unlock()
	} else {
		s.encodes.Add(1)
	}
	close(e.ready)
	return e.art, e.err
}

// encodeArtifact builds the artifact for key: the refless encode of
// stateFn's state, which the shipped codec's round trip then turns into
// the state the encode decodes to.
func encodeArtifact(key ArtifactKey, c Codec, stateFn func() (nn.State, error)) (*Artifact, error) {
	rt, ok := registry[c.Tag()]
	if !ok {
		return nil, fmt.Errorf("wire: codec %q is not shipped, so the artifact store cannot round-trip it", c.Tag())
	}
	st, err := stateFn()
	if err != nil {
		return nil, err
	}
	b, err := c.Encode(st, nil)
	if err != nil {
		return nil, err
	}
	if err := rt.roundTrip(st); err != nil {
		return nil, err
	}
	return &Artifact{Key: key, Bytes: b, State: st}, nil
}

// Encodes reports how many artifacts the store has encoded (misses).
func (s *ArtifactStore) Encodes() int64 { return s.encodes.Load() }

// Hits reports how many Get calls were served from cache.
func (s *ArtifactStore) Hits() int64 { return s.hits.Load() }

// Len reports the artifacts currently resident, counting those whose
// encode is in flight.
func (s *ArtifactStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

package core

import (
	"container/list"
	"fmt"
	"math/rand"
	"sync"

	"adaptivefl/internal/data"
	"adaptivefl/internal/obs"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/spec"
)

// Population abstracts the server's client fleet. The legacy path is an
// eager slice of fully-built clients; at AIoT fleet scale (the paper's
// massive resource-constrained deployments) the population is a parametric
// generator that builds a client's device when a dispatch first touches it
// and the client's data shard when one of its flights first trains, so
// server memory is O(active flights) instead of O(clients), and dropouts
// and capacity failures never cut a shard.
type Population interface {
	// Len is the population size.
	Len() int
	// Client returns client c, materialising it if necessary. The result
	// is stable while the client is pinned (has an open flight).
	Client(c int) *Client
}

// CandidateSampler is an optional Population capability: populations too
// large to permute per selection expose a bounded candidate sample
// instead. PlanSlots draws the sample from the server rng, so selection
// stays deterministic for a fixed seed.
type CandidateSampler interface {
	// SampleCandidates returns a deterministic, duplicate-free candidate
	// set sized for selecting k slots, consuming only rng draws.
	SampleCandidates(rng *rand.Rand, k int) []int
}

// Pinner is an optional Population capability: a lazily materialised
// client must not be evicted (and deterministically re-generated with a
// reset device rng) while a flight holds it. OpenFlight pins, Release
// unpins.
type Pinner interface {
	Pin(c int)
	Unpin(c int)
}

// EagerPopulation adapts the legacy fully-built client slice. Every
// existing construction path goes through it, bit-identically.
type EagerPopulation []*Client

// Len implements Population.
func (p EagerPopulation) Len() int { return len(p) }

// Client implements Population.
func (p EagerPopulation) Client(c int) *Client { return p[c] }

// mix64 is the SplitMix64 finaliser: a cheap, high-quality avalanche used
// to derive per-client streams from a population seed without storing
// per-client state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash derives a deterministic 64-bit stream value for client c under the
// given salt. Distinct salts decorrelate the spec's independent draws
// (class assignment, client seed, churn phases — internal/sched's PopTrace
// consumes salts too).
func (s PopulationSpec) Hash(c int, salt uint64) uint64 {
	return mix64(uint64(s.Seed) ^ mix64(uint64(c)^mix64(salt)))
}

// unitFloat maps a hash value to [0, 1).
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// PopulationSpec parameterises a generated client population: the
// capability mix (weak/medium/strong shares), the churn profile every
// client's availability timeline is drawn from, and the data-distribution
// family of the per-client shards. It is the population analogue of the
// sched trace grammar — ParsePopulation parses the spec string,
// LazyPopulation materialises clients from it on demand, and
// sched.PopTrace turns the churn profile into an O(1)-memory availability
// trace.
type PopulationSpec struct {
	// N is the population size.
	N int
	// Weak, Medium, Strong are the capability-mix shares (normalised).
	Weak, Medium, Strong float64
	// MeanOn / MeanOff parameterise the churn profile in virtual seconds:
	// mean on-window and mean off-window durations. MeanOff = 0 means
	// clients never go offline.
	MeanOn, MeanOff float64
	// SlowProb is the chance an on-window runs slowed by SlowFactor.
	SlowProb, SlowFactor float64
	// Samples is the per-client shard size.
	Samples int
	// Classes bounds the classes each client's shard covers (0 = the
	// dataset family's default).
	Classes int
	// Dataset names the synthetic data family ("widar", "cifar10", …).
	Dataset string
	// Seed drives every per-client derivation. Not part of the spec
	// string; callers set it the way ParseTrace takes a seed argument.
	Seed int64
}

// popDefaults is the parse-time default spec.
func popDefaults() PopulationSpec {
	return PopulationSpec{
		Weak: 0.4, Medium: 0.3, Strong: 0.3,
		MeanOn: 60, SlowFactor: 1,
		Samples: 20, Dataset: "widar",
	}
}

// ParsePopulation builds a PopulationSpec from a compact spec string, the
// population analogue of sched.ParseTrace:
//
//	"mix"                                  — the default 4:3:3 mix, no churn
//	"mix:n=1000000,weak=0.6,churn=20"      — 1M clients, weak-heavy,
//	    cycling on/off with 20 s mean off-windows
//	"mix:on=60,churn=20,slow=4,slowprob=0.1,samples=20,classes=8,data=widar"
//
// Unspecified class shares keep their defaults (weak=0.4, medium=0.3,
// strong=0.3); shares are normalised to sum to 1. The seed is not part of
// the grammar — set Spec.Seed after parsing.
func ParsePopulation(popSpec string) (PopulationSpec, error) {
	name, args, err := spec.Parse("core", "population", popSpec)
	if err != nil {
		return PopulationSpec{}, err
	}
	if name != "mix" {
		return PopulationSpec{}, fmt.Errorf("core: unknown population spec %q (want mix[:k=v,...])", name)
	}
	s := popDefaults()
	if v, raw, ok := args.Take("data"); ok {
		if v == "" {
			return PopulationSpec{}, fmt.Errorf("core: population param %q needs a dataset name", raw)
		}
		s.Dataset = v
	}
	s.N = args.Int("n", s.N)
	s.Weak = args.NonNeg("weak", s.Weak)
	s.Medium = args.NonNeg("medium", s.Medium)
	s.Strong = args.NonNeg("strong", s.Strong)
	s.MeanOn = args.NonNeg("on", s.MeanOn)
	s.MeanOff = args.NonNeg("churn", s.MeanOff)
	s.SlowFactor = args.NonNeg("slow", s.SlowFactor)
	s.SlowProb = args.NonNeg("slowprob", s.SlowProb)
	s.Samples = args.Int("samples", s.Samples)
	s.Classes = args.Int("classes", s.Classes)
	if err := args.Finish(); err != nil {
		return PopulationSpec{}, err
	}
	if err := s.normalise(); err != nil {
		return PopulationSpec{}, err
	}
	return s, nil
}

// normalise validates and canonicalises the spec (shares sum to 1).
func (s *PopulationSpec) normalise() error {
	total := s.Weak + s.Medium + s.Strong
	if total <= 0 {
		return fmt.Errorf("core: population class shares must sum to a positive value")
	}
	s.Weak, s.Medium, s.Strong = s.Weak/total, s.Medium/total, s.Strong/total
	if s.MeanOn <= 0 {
		return fmt.Errorf("core: population mean on-window must be positive")
	}
	if s.SlowFactor != 0 && s.SlowFactor < 1 {
		return fmt.Errorf("core: population slow factor must be >= 1")
	}
	if s.SlowFactor == 0 {
		s.SlowFactor = 1
	}
	if s.SlowProb > 1 {
		return fmt.Errorf("core: population slowprob must be <= 1")
	}
	if s.Samples <= 0 {
		return fmt.Errorf("core: population samples must be positive")
	}
	return nil
}

// String renders the canonical spec string; ParsePopulation round-trips it
// (Seed excepted — it is not part of the grammar).
func (s PopulationSpec) String() string {
	return spec.NewBuilder("mix").
		Int("n", s.N).
		Float("weak", s.Weak).Float("medium", s.Medium).Float("strong", s.Strong).
		Float("on", s.MeanOn).Float("churn", s.MeanOff).
		Float("slow", s.SlowFactor).Float("slowprob", s.SlowProb).
		Int("samples", s.Samples).Int("classes", s.Classes).
		Str("data", s.Dataset).
		String()
}

// Class salts for the spec's independent hash streams. sched.PopTrace owns
// the churn salts (10+); keep the ranges disjoint.
const (
	saltClass uint64 = 1
	saltSeed  uint64 = 2
)

// ClassOf returns client c's device class, drawn deterministically from
// the capability mix: the same (Seed, c) always lands in the same class,
// independent of which other clients were ever materialised.
func (s PopulationSpec) ClassOf(c int) DeviceClass {
	u := unitFloat(s.Hash(c, saltClass))
	switch {
	case u < s.Weak:
		return Weak
	case u < s.Weak+s.Medium:
		return Medium
	}
	return Strong
}

// ClientSeed returns the deterministic per-client seed all of client c's
// materialised state (device jitter stream, data shard) derives from.
func (s PopulationSpec) ClientSeed(c int) int64 {
	return int64(s.Hash(c, saltSeed) >> 1) // keep it non-negative for readability
}

// ShardGen generates one client's data shard from its deterministic seed.
// It runs at a lazy client's first training, on the executor worker that
// trains it, so it must be safe for concurrent calls; the shard must hold
// the spec's Samples samples. internal/exp wires data.WriterSampler here;
// tests can supply a stub.
type ShardGen func(c int, seed int64) *data.Dataset

// LazyPopulation materialises clients on first dispatch from a
// PopulationSpec and keeps at most Cap of them alive in an LRU. A
// materialised client holds its device; its shard is cut at its first
// training (Client.Shard) and lives as long as the client does. Clients
// with open flights are pinned outside the LRU (never evicted), so worker
// goroutines reading a flight's client can never race an eviction, and
// eviction order stays a pure function of the event loop's deterministic
// access sequence.
type LazyPopulation struct {
	spec    PopulationSpec
	bases   [3]int64
	jitter  float64
	datagen ShardGen
	capn    int

	mu    sync.Mutex
	cache map[int]*list.Element
	lru   *list.List // front = most recently used; element value is *lruEntry
	pins  map[int]*pinEntry
	made  int64 // total materialisations, for memory/regeneration audits
	obs   *obs.Observer
}

type lruEntry struct {
	c  int
	cl *Client
}

type pinEntry struct {
	cl *Client
	n  int
}

// DefaultLazyCap is the default LRU capacity: comfortably above any
// realistic in-flight set, small enough that a million-client run holds
// thousandths of its population in memory.
const DefaultLazyCap = 2048

// NewLazyPopulation builds a lazy population. The pool and device model
// fix the per-class capacity bases exactly as NewPopulation computes them;
// datagen supplies per-client shards (required — training reads them);
// cacheCap bounds the materialised-client LRU (0 = DefaultLazyCap).
func NewLazyPopulation(spec PopulationSpec, pool *prune.Pool, dm DeviceModel, datagen ShardGen, cacheCap int) (*LazyPopulation, error) {
	if spec.N < 1 {
		return nil, fmt.Errorf("core: lazy population needs n >= 1, got %d", spec.N)
	}
	if datagen == nil {
		return nil, fmt.Errorf("core: lazy population needs a shard generator")
	}
	if err := spec.normalise(); err != nil {
		return nil, err
	}
	if cacheCap <= 0 {
		cacheCap = DefaultLazyCap
	}
	return &LazyPopulation{
		spec:    spec,
		bases:   classBases(pool, dm),
		jitter:  dm.Jitter,
		datagen: datagen,
		capn:    cacheCap,
		cache:   map[int]*list.Element{},
		lru:     list.New(),
		pins:    map[int]*pinEntry{},
	}, nil
}

// Spec returns the population's parametric spec.
func (p *LazyPopulation) Spec() PopulationSpec { return p.spec }

// SetObserver attaches an observer for LRU materialise/evict spans and
// the live-client gauge. Safe because cache mutations happen only on the
// event-loop's access sequence (workers read pinned clients), so span
// order — and with it the JSONL trace — stays deterministic.
func (p *LazyPopulation) SetObserver(o *obs.Observer) {
	p.mu.Lock()
	p.obs = o
	p.mu.Unlock()
}

// observeLocked reports one cache event and refreshes the live gauge.
func (p *LazyPopulation) observeLocked(op string, c int) {
	if !p.obs.Enabled() {
		return
	}
	p.obs.Span(obs.Span{Kind: obs.KindLRU, Op: op, Client: c})
	p.obs.LRULive(int64(p.lru.Len() + len(p.pins)))
}

// Len implements Population.
func (p *LazyPopulation) Len() int { return p.spec.N }

// Client implements Population.
func (p *LazyPopulation) Client(c int) *Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clientLocked(c)
}

func (p *LazyPopulation) clientLocked(c int) *Client {
	if pe, ok := p.pins[c]; ok {
		return pe.cl
	}
	if el, ok := p.cache[c]; ok {
		p.lru.MoveToFront(el)
		return el.Value.(*lruEntry).cl
	}
	cl := p.materialise(c)
	p.cache[c] = p.lru.PushFront(&lruEntry{c: c, cl: cl})
	p.observeLocked(obs.OpMaterialise, c)
	p.evictLocked()
	return cl
}

// Pin implements Pinner: the client leaves the LRU and survives until the
// matching Unpin, however many other clients are materialised meanwhile.
func (p *LazyPopulation) Pin(c int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pe, ok := p.pins[c]; ok {
		pe.n++
		return
	}
	var cl *Client
	if el, ok := p.cache[c]; ok {
		cl = el.Value.(*lruEntry).cl
		p.lru.Remove(el)
		delete(p.cache, c)
	} else {
		cl = p.materialise(c)
		p.observeLocked(obs.OpMaterialise, c)
	}
	p.pins[c] = &pinEntry{cl: cl, n: 1}
}

// Unpin implements Pinner: when the last pin drops the client re-enters
// the LRU as most recently used.
func (p *LazyPopulation) Unpin(c int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pe, ok := p.pins[c]
	if !ok {
		return
	}
	if pe.n--; pe.n > 0 {
		return
	}
	delete(p.pins, c)
	p.cache[c] = p.lru.PushFront(&lruEntry{c: c, cl: pe.cl})
	p.evictLocked()
}

func (p *LazyPopulation) evictLocked() {
	for p.lru.Len() > p.capn {
		el := p.lru.Back()
		c := el.Value.(*lruEntry).c
		delete(p.cache, c)
		p.lru.Remove(el)
		p.observeLocked(obs.OpEvict, c)
	}
}

// materialise builds client c's device from its deterministic per-client
// streams and leaves the shard to its first Shard call, where a shard
// whose length differs from the spec's Samples is an error naming the
// client. Re-materialising after an eviction yields a bit-identical device
// and shard, with the device's capacity-jitter rng reset to the stream
// start; since eviction order is itself deterministic (pinning keeps
// worker accesses off the LRU), whole runs stay reproducible.
func (p *LazyPopulation) materialise(c int) *Client {
	seed := p.spec.ClientSeed(c)
	class := p.spec.ClassOf(c)
	gen, samples := p.datagen, p.spec.Samples
	p.made++
	return &Client{
		ID: c,
		Device: &Device{
			Class:  class,
			Base:   p.bases[class],
			Jitter: p.jitter,
			rng:    rand.New(rand.NewSource(seed)),
		},
		samples: samples,
		cut: sync.OnceValues(func() (*data.Dataset, error) {
			d := gen(c, seed)
			if n := d.Len(); n != samples {
				return nil, fmt.Errorf("core: shard generator cut %d samples for client %d, spec has %d", n, c, samples)
			}
			return d, nil
		}),
	}
}

// Materialized reports the live set (LRU + pinned) and the total number of
// materialisations so far; total − peak live is regeneration churn.
func (p *LazyPopulation) Materialized() (live int, total int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len() + len(p.pins), p.made
}

// SampleCandidates implements CandidateSampler: a duplicate-free sample of
// max(64, 8k) client ids (capped at the population) drawn from rng. A
// collision re-draws, so the result is a pure function of the rng stream;
// the attempt cap keeps pathological small-N cases bounded (the sample
// just comes back short, which PlanSlots already tolerates).
func (p *LazyPopulation) SampleCandidates(rng *rand.Rand, k int) []int {
	return sampleCandidates(rng, p.spec.N, k)
}

func sampleCandidates(rng *rand.Rand, n, k int) []int {
	target := 8 * k
	if target < 64 {
		target = 64
	}
	if target > n {
		target = n
	}
	seen := make(map[int]bool, target)
	out := make([]int, 0, target)
	for attempts := 0; len(out) < target && attempts < 16*target; attempts++ {
		c := rng.Intn(n)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// ShardPopulation exposes a contiguous id-range of a base population as a
// population of its own, remapping local ids [0, n) to base ids
// [offset, offset+n). The two-tier scheduler gives each edge aggregator
// one shard; pins, sampling and materialisation all pass through to the
// base, so shards of one LazyPopulation share its LRU.
type ShardPopulation struct {
	base   Population
	offset int
	n      int
}

// NewShardPopulation builds the [offset, offset+n) view of base.
func NewShardPopulation(base Population, offset, n int) (*ShardPopulation, error) {
	if offset < 0 || n < 1 || offset+n > base.Len() {
		return nil, fmt.Errorf("core: shard [%d, %d) outside population of %d", offset, offset+n, base.Len())
	}
	return &ShardPopulation{base: base, offset: offset, n: n}, nil
}

// Offset returns the shard's base-id offset.
func (p *ShardPopulation) Offset() int { return p.offset }

// Len implements Population.
func (p *ShardPopulation) Len() int { return p.n }

// Client implements Population.
func (p *ShardPopulation) Client(c int) *Client { return p.base.Client(p.offset + c) }

// Pin implements Pinner (a no-op for non-pinning bases).
func (p *ShardPopulation) Pin(c int) {
	if pin, ok := p.base.(Pinner); ok {
		pin.Pin(p.offset + c)
	}
}

// Unpin implements Pinner.
func (p *ShardPopulation) Unpin(c int) {
	if pin, ok := p.base.(Pinner); ok {
		pin.Unpin(p.offset + c)
	}
}

// SetObserver forwards to the base population: shards of one
// LazyPopulation share its LRU, so they share its cache spans too. LRU
// span client ids are base ids, matching how the cache actually behaves.
func (p *ShardPopulation) SetObserver(o *obs.Observer) {
	if op, ok := p.base.(observablePopulation); ok {
		op.SetObserver(o)
	}
}

// SampleCandidates implements CandidateSampler when the base samples:
// local ids are drawn over the shard's own range, so each edge's selection
// consumes only its own server's rng stream.
func (p *ShardPopulation) SampleCandidates(rng *rand.Rand, k int) []int {
	if _, ok := p.base.(CandidateSampler); !ok {
		// Eager base: PlanSlots would not have sampled either; mirror the
		// permutation path over the shard range.
		return rng.Perm(p.n)
	}
	return sampleCandidates(rng, p.n, k)
}

// MixCounts tallies the realised class mix of the first n clients of a
// spec — the determinism and mix tests read it, and popsim reports it.
func (s PopulationSpec) MixCounts(n int) [3]int {
	var counts [3]int
	for c := 0; c < n; c++ {
		counts[s.ClassOf(c)]++
	}
	return counts
}

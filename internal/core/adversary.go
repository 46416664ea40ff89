package core

import (
	"fmt"
	"math"
	"strings"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/spec"
	"adaptivefl/internal/tensor"
)

// Behavior classifies how a client acts when it uploads an update. Honest
// clients return their trained weights; the adversarial behaviors model
// the compromised, buggy and free-riding devices an AIoT fleet contains.
type Behavior int

// Client behaviors. The adversarial set covers the standard Byzantine
// model-poisoning repertoire plus the transport-level faults a hardened
// decode path must survive.
const (
	// Honest uploads the trained weights unchanged.
	Honest Behavior = iota
	// SignFlip uploads the negated update: ref − (trained − ref).
	SignFlip
	// ScaleAttack magnifies the update by a factor K: ref + K·(trained − ref).
	ScaleAttack
	// FreeRide uploads the dispatched weights untouched (no local work),
	// still claiming the full sample count.
	FreeRide
	// StaleReplay re-uploads the client's previous trained state instead
	// of the fresh one (honest on its first upload).
	StaleReplay
	// Corrupt flips bits in the encoded codec payload on the wire; without
	// a codec it poisons the raw upload with NaNs. Either way the server
	// must ledger a rejection, never panic or merge garbage.
	Corrupt
)

// numBehaviors counts the adversarial behaviors (Honest excluded).
const numBehaviors = 5

// behaviorNames maps the grammar tokens; index Behavior−1.
var behaviorNames = [numBehaviors]string{"signflip", "scale", "freeride", "stale-replay", "corrupt"}

// String returns the grammar token for b.
func (b Behavior) String() string {
	if b == Honest {
		return "honest"
	}
	if b >= SignFlip && b <= Corrupt {
		return behaviorNames[b-1]
	}
	return fmt.Sprintf("behavior(%d)", int(b))
}

// AdversarySpec parameterises a deterministic adversarial sub-population:
// a fraction of clients is adversarial, each drawing its behavior from a
// weighted mix. Both draws derive from splitmix64 per-client hash streams
// (the same generator the population grammar uses), so a given
// (Seed, spec) pair yields a bit-reproducible attacker set at any
// population size, through both the in-process and fednet HTTP paths.
type AdversarySpec struct {
	// Frac is the adversarial fraction of the population in [0, 1];
	// 0 disables the adversary entirely.
	Frac float64
	// Weights are the relative behavior-mix weights, indexed Behavior−1
	// (signflip, scale, freeride, stale-replay, corrupt). They need not
	// sum to 1; only ratios matter.
	Weights [numBehaviors]float64
	// K is the magnification factor of the scale attack (default 10).
	K float64
	// Seed drives the per-client role and behavior draws. Not part of the
	// grammar; callers set it the way ParseTrace takes a seed argument.
	Seed int64
}

// Enabled reports whether the spec describes any adversaries at all.
func (a AdversarySpec) Enabled() bool { return a.Frac > 0 }

// Salts for the adversary's independent hash streams. Population salts
// 1–2 and sched.PopTrace's 10+ stay disjoint.
const (
	saltAdvRole uint64 = 3
	saltAdvKind uint64 = 4
	saltAdvByte uint64 = 5
)

// advHash derives a per-client stream value without needing a full
// PopulationSpec — trace-driven runs carry only a seed.
func advHash(seed int64, c int, salt uint64) uint64 {
	return mix64(uint64(seed) ^ mix64(uint64(c)^mix64(salt)))
}

// BehaviorOf returns client c's behavior: Honest with probability
// 1−Frac, otherwise a weighted draw from the behavior mix. Pure in
// (Seed, c) — no state, no ordering dependence.
func (a AdversarySpec) BehaviorOf(c int) Behavior {
	if !a.Enabled() {
		return Honest
	}
	if unitFloat(advHash(a.Seed, c, saltAdvRole)) >= a.Frac {
		return Honest
	}
	total := 0.0
	for _, w := range a.Weights {
		total += w
	}
	if total <= 0 {
		return SignFlip
	}
	u := unitFloat(advHash(a.Seed, c, saltAdvKind)) * total
	for i, w := range a.Weights {
		if u < w {
			return Behavior(i + 1)
		}
		u -= w
	}
	return Corrupt
}

// CorruptPayload flips a handful of bits of an encoded payload in place,
// at positions drawn from client c's hash stream — deterministic, so the
// in-process and HTTP paths corrupt identical bytes identically.
func (a AdversarySpec) CorruptPayload(c int, p []byte) {
	if len(p) == 0 {
		return
	}
	h := advHash(a.Seed, c, saltAdvByte)
	for i := 0; i < 8; i++ {
		h = mix64(h)
		p[h%uint64(len(p))] ^= 1 << (h >> 61)
	}
}

// advDefaults is the parse-time default spec: a fifth of the fleet, scale
// attacks magnified 10×.
func advDefaults() AdversarySpec {
	return AdversarySpec{Frac: 0.2, K: 10}
}

// ParseAdversary builds an AdversarySpec from a compact spec string, the
// adversarial analogue of ParsePopulation:
//
//	"signflip"                          — 20% of clients sign-flip
//	"scale:frac=0.3,k=10"               — 30% magnify their update 10×
//	"freeride" | "stale-replay" | "corrupt"
//	"mix:frac=0.3,signflip=1,scale=1"   — 30% adversarial, split evenly
//	    between sign-flips and scale attacks (any behavior name is a
//	    weight key; k tunes the scale factor)
//
// The empty string parses to the zero spec (no adversaries). The seed is
// not part of the grammar — set Spec.Seed after parsing.
func ParseAdversary(advSpec string) (AdversarySpec, error) {
	if advSpec == "" {
		return AdversarySpec{}, nil
	}
	name, args, err := spec.Parse("core", "adversary", advSpec)
	if err != nil {
		return AdversarySpec{}, err
	}
	a := advDefaults()
	single := -1
	if name != "mix" {
		for i, bn := range behaviorNames {
			if name == bn {
				single = i
				break
			}
		}
		if single < 0 {
			return AdversarySpec{}, fmt.Errorf("core: unknown adversary spec %q (want mix|%s)", name, strings.Join(behaviorNames[:], "|"))
		}
		a.Weights[single] = 1
	}
	a.Frac = args.NonNeg("frac", a.Frac)
	a.K = args.NonNeg("k", a.K)
	for i, bn := range behaviorNames {
		if !args.Has(bn) {
			continue
		}
		if single >= 0 {
			args.Reject(bn, fmt.Errorf("core: behavior weight %q only applies to mix specs", bn))
			continue
		}
		a.Weights[i] = args.NonNeg(bn, 0)
	}
	if err := args.Finish(); err != nil {
		return AdversarySpec{}, err
	}
	if a.Frac > 1 {
		return AdversarySpec{}, fmt.Errorf("core: adversary frac must be <= 1 (got %v)", a.Frac)
	}
	if name == "mix" {
		total := 0.0
		for _, w := range a.Weights {
			total += w
		}
		if total <= 0 {
			// The default mix splits between the two model-poisoning attacks.
			a.Weights[SignFlip-1], a.Weights[ScaleAttack-1] = 1, 1
		}
	}
	if a.K < 1 {
		return AdversarySpec{}, fmt.Errorf("core: adversary scale factor k must be >= 1 (got %v)", a.K)
	}
	return a, nil
}

// String renders the canonical spec string; ParseAdversary round-trips it
// (Seed excepted — it is not part of the grammar). The zero spec renders
// empty.
func (a AdversarySpec) String() string {
	if !a.Enabled() {
		return ""
	}
	single, nonzero := -1, 0
	for i, w := range a.Weights {
		if w > 0 {
			single, nonzero = i, nonzero+1
		}
	}
	if nonzero == 1 && a.Weights[single] == 1 {
		b := spec.NewBuilder(behaviorNames[single]).Float("frac", a.Frac)
		if Behavior(single+1) == ScaleAttack {
			b.Float("k", a.K)
		}
		return b.String()
	}
	b := spec.NewBuilder("mix").Float("frac", a.Frac)
	for i, w := range a.Weights {
		if w > 0 {
			b.Float(behaviorNames[i], w)
		}
	}
	// k always renders in mix form so a non-default factor survives the
	// round trip even when the scale weight happens to be zero.
	b.Float("k", a.K)
	return b.String()
}

// CutAdversary splits a composite "trace;adversary" spec: the part after
// the first ';' parses as an adversary spec, the rest is returned for the
// trace (or population) grammar. Specs without a ';' come back unchanged
// with the zero AdversarySpec.
func CutAdversary(composite string) (string, AdversarySpec, error) {
	rest, advStr, found := strings.Cut(composite, ";")
	if !found {
		return composite, AdversarySpec{}, nil
	}
	a, err := ParseAdversary(strings.TrimSpace(advStr))
	if err != nil {
		return "", AdversarySpec{}, err
	}
	return strings.TrimSpace(rest), a, nil
}

// Mutate applies the stateless update transforms (sign flip, scale,
// free ride) to a trained state against its dispatched reference. The
// stateful behaviors — StaleReplay (needs a per-client cache) and Corrupt
// (acts on the encoded payload) — are the caller's to handle; Mutate
// passes them through unchanged; DeviceStep handles both.
func (a AdversarySpec) Mutate(b Behavior, trained, sent nn.State) nn.State {
	switch b {
	case SignFlip:
		return scaleUpdate(trained, sent, -1)
	case ScaleAttack:
		return scaleUpdate(trained, sent, a.K)
	case FreeRide:
		return scaleUpdate(trained, sent, 0)
	}
	return trained
}

// scaleUpdate returns ref + k·(trained − ref), where ref is the
// got-shaped prefix of the dispatched state — the update-direction
// transform behind sign flips (k = −1), scale attacks (k = K) and free
// rides (k = 0). Tensors the sent state does not cover pass through
// unchanged (the pool invariant makes that unreachable; staying total
// keeps the attacker code panic-free).
func scaleUpdate(trained, sent nn.State, k float64) nn.State {
	out := make(nn.State, len(trained))
	for name, tv := range trained {
		sv, ok := sent[name]
		if !ok || !tensor.PrefixFits(tv, sv) {
			out[name] = tv.Clone()
			continue
		}
		ref := tensor.ExtractPrefix(sv, tv.Shape)
		for i, r := range ref.Data {
			ref.Data[i] = r + k*(tv.Data[i]-r)
		}
		out[name] = ref
	}
	return out
}

// poisonState clones the trained state with a NaN written into every
// tensor — the codec-less corrupt behavior. The server's record-time
// finiteness guard must turn this into a ledgered rejection.
func poisonState(st nn.State) nn.State {
	out := st.Clone()
	for _, v := range out {
		if len(v.Data) > 0 {
			v.Data[0] = math.NaN()
		}
	}
	return out
}

// StateFinite reports whether every value of st is finite — the guard
// that keeps a poisoned or garbage-decoded upload out of the global
// model. A nil state is vacuously finite.
func StateFinite(st nn.State) bool {
	for _, v := range st {
		for _, x := range v.Data {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
	}
	return true
}

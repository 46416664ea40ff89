package baselines

import (
	"runtime"
	"testing"

	"adaptivefl/internal/nn"
	"adaptivefl/internal/prune"
	"adaptivefl/internal/tensor"
)

// globalsOf returns every global state a runner holds, in level order.
func globalsOf(r Runner) []nn.State { return r.(*Static).globals }

// TestGoldenBaselineRounds pins the bits of two rounds of each Table 2
// baseline on an 8-client setup: the hash of every global it holds and
// the exact Evaluate map. Each baseline runs at tensor parallelism 1 and
// 3 against the same constants, so local training must also be
// independent of how many trainers run at once. The constants were recorded before
// the four baseline round loops were folded into one runner, and must
// never be edited. amd64 only: elsewhere the compiler may fuse x*y+z into
// one FMA, which rounds differently.
func TestGoldenBaselineRounds(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded for amd64's unfused multiply-add")
	}
	cases := []struct {
		name   string
		build  func(Setup, *prune.Pool) (Runner, error)
		hashes []uint64 // nn.HashState of each global, in level order
		acc    map[string]float64
	}{
		{"All-Large", func(s Setup, _ *prune.Pool) (Runner, error) { return NewAllLarge(s) },
			[]uint64{0x13ed3eb3a9f0f794}, map[string]float64{"full": 0.25}},
		{"Decoupled", func(s Setup, p *prune.Pool) (Runner, error) { return NewDecoupled(s, p) },
			[]uint64{0x665b8e80a0f6c801, 0x5185a5fb93685a5e, 0xab937363e4ed59d5},
			map[string]float64{"S1": 0.3333333333333333, "M1": 0.25, "L1": 0.5, "full": 0.5}},
		{"HeteroFL", func(s Setup, _ *prune.Pool) (Runner, error) { return NewHeteroFL(s) },
			[]uint64{0x7cd22a1dda522f18}, map[string]float64{"S1": 0.25, "M1": 0.6, "L1": 0.5, "full": 0.5}},
		{"ScaleFL", func(s Setup, _ *prune.Pool) (Runner, error) { return NewScaleFL(s) },
			[]uint64{0x400a100235066408},
			map[string]float64{"S1": 0.25, "M1": 0.6, "L1": 0.48333333333333334, "full": 0.48333333333333334}},
	}
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	for _, c := range cases {
		for _, par := range []int{1, 3} {
			setup, pool, test := testSetup(t, 8)
			tensor.SetParallelism(par)
			r, err := c.build(setup, pool)
			if err != nil {
				t.Fatal(err)
			}
			if r.Name() != c.name {
				t.Fatalf("Name = %q, want %q", r.Name(), c.name)
			}
			for round := 0; round < 2; round++ {
				if err := r.Round(); err != nil {
					t.Fatal(err)
				}
			}
			globals := globalsOf(r)
			if len(globals) != len(c.hashes) {
				t.Fatalf("%s par=%d: %d globals, want %d", c.name, par, len(globals), len(c.hashes))
			}
			for i, g := range globals {
				if got := nn.HashState(g); got != c.hashes[i] {
					t.Errorf("%s par=%d: global %d hash %#016x, want %#016x", c.name, par, i, got, c.hashes[i])
				}
			}
			acc, err := r.Evaluate(test, 30)
			if err != nil {
				t.Fatal(err)
			}
			if len(acc) != len(c.acc) {
				t.Errorf("%s par=%d: Evaluate = %#v, want %#v", c.name, par, acc, c.acc)
			}
			for k, v := range c.acc {
				if g, ok := acc[k]; !ok || g != v {
					t.Errorf("%s par=%d: Evaluate = %#v, want %#v", c.name, par, acc, c.acc)
					break
				}
			}
		}
	}
}

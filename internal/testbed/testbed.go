// Package testbed simulates the paper's real AIoT test-bed (Table 5): a
// 17-device fleet of Raspberry Pi 4B, Jetson Nano and Jetson Xavier AGX
// boards training MobileNetV2 on Widar. Without the physical boards, the
// simulation assigns each device class an effective training throughput
// and network bandwidth and converts each FL round's dispatch ledger into
// simulated wall-clock time, which is what Figure 6 plots accuracy
// against.
package testbed

import (
	"fmt"

	"adaptivefl/internal/core"
)

// DeviceSpec describes one hardware class of the platform.
type DeviceSpec struct {
	Name  string
	Class core.DeviceClass
	// Throughput is effective training MACs per second. The defaults
	// encode the relative speeds of the boards (a Pi 4B CPU is roughly
	// 20× slower than a Nano's Maxwell GPU, which is roughly 5× slower
	// than a Xavier AGX at DNN training).
	Throughput float64
	// Bandwidth is the model up/down link in bytes per second.
	Bandwidth float64
	Count     int
}

// Table5Platform returns the paper's test-bed configuration: 4 weak
// Raspberry Pi 4B, 10 medium Jetson Nano, 3 strong Jetson Xavier AGX.
func Table5Platform() []DeviceSpec {
	return []DeviceSpec{
		{Name: "Raspberry Pi 4B", Class: core.Weak, Throughput: 0.5e9, Bandwidth: 10e6, Count: 4},
		{Name: "Jetson Nano", Class: core.Medium, Throughput: 10e9, Bandwidth: 25e6, Count: 10},
		{Name: "Jetson Xavier AGX", Class: core.Strong, Throughput: 50e9, Bandwidth: 50e6, Count: 3},
	}
}

// Sim converts round ledgers into simulated seconds.
type Sim struct {
	specs         map[core.DeviceClass]DeviceSpec
	BytesPerParam float64
	// TrainPassFactor scales a forward pass to a full training step
	// (forward + backward ≈ 3× forward MACs).
	TrainPassFactor float64
	clock           float64
}

// NewSim builds a simulator from device specs.
func NewSim(specs []DeviceSpec) (*Sim, error) {
	s := &Sim{specs: map[core.DeviceClass]DeviceSpec{}, BytesPerParam: 4, TrainPassFactor: 3}
	for _, sp := range specs {
		if sp.Throughput <= 0 || sp.Bandwidth <= 0 {
			return nil, fmt.Errorf("testbed: spec %q needs positive throughput and bandwidth", sp.Name)
		}
		s.specs[sp.Class] = sp
	}
	for _, class := range []core.DeviceClass{core.Weak, core.Medium, core.Strong} {
		if _, ok := s.specs[class]; !ok {
			return nil, fmt.Errorf("testbed: missing spec for %v devices", class)
		}
	}
	return s, nil
}

// TrainTime returns the seconds a device class needs for local training:
// TrainPassFactor · MACs/sample · samples · epochs / throughput.
func (s *Sim) TrainTime(class core.DeviceClass, macsPerSample int64, samples, epochs int) float64 {
	sp := s.specs[class]
	work := s.TrainPassFactor * float64(macsPerSample) * float64(samples) * float64(epochs)
	return work / sp.Throughput
}

// TransferTime returns the seconds to move a model of the given parameter
// count down and the returned model back up, using the BytesPerParam
// estimate. When the round ledger carries real encoded sizes (a wire
// codec was active), RoundTime uses TransferTimeBytes instead.
func (s *Sim) TransferTime(class core.DeviceClass, downParams, upParams int64) float64 {
	return s.TransferTimeBytes(class, int64(float64(downParams)*s.BytesPerParam), int64(float64(upParams)*s.BytesPerParam))
}

// TransferTimeBytes returns the seconds to move downBytes to the device
// and upBytes back.
func (s *Sim) TransferTimeBytes(class core.DeviceClass, downBytes, upBytes int64) float64 {
	sp := s.specs[class]
	return float64(downBytes+upBytes) / sp.Bandwidth
}

// DispatchTimes prices the three phases of one dispatch for the
// event-driven scheduler (internal/sched's CostModel): seconds to move the
// dispatched model down, train it locally, and move the result back up.
// Dispatches carrying real encoded byte counts are charged those bytes,
// and the BytesPerParam × params estimate covers the rest. Failed
// dispatches mirror RoundTime's accounting: no training, and the estimate
// path's full round trip (d.Got = d.Sent there) becomes an uplink of the
// sent size.
func (s *Sim) DispatchTimes(class core.DeviceClass, d core.Dispatch, samples, epochs int) (down, train, up float64) {
	sp := s.specs[class]
	if d.SentBytes > 0 {
		down = float64(d.SentBytes) / sp.Bandwidth
		upBytes := d.GotBytes
		if d.Failed {
			upBytes = d.SentBytes
		}
		up = float64(upBytes) / sp.Bandwidth
	} else {
		down = float64(d.Sent.Size) * s.BytesPerParam / sp.Bandwidth
		up = float64(d.Got.Size) * s.BytesPerParam / sp.Bandwidth
	}
	if !d.Failed {
		train = s.TrainTime(class, d.Got.MACs, samples, epochs)
	}
	return down, train, up
}

// RoundTime computes one synchronous round's wall-clock: the slowest
// selected client's transfer + training time. classOf maps client id to
// device class; samplesOf to local dataset size. Dispatches that carry
// real encoded byte counts (core.Config.Codec or an HTTP trainer was in
// play) are charged those bytes; otherwise the BytesPerParam × params
// estimate applies.
func (s *Sim) RoundTime(stats core.RoundStats, classOf func(int) core.DeviceClass, samplesOf func(int) int, epochs int) float64 {
	worst := 0.0
	for _, d := range stats.Dispatches {
		class := classOf(d.Client)
		var t float64
		if d.SentBytes > 0 {
			up := d.GotBytes
			if d.Failed {
				// The estimate path charges a failed dispatch the full
				// round trip (d.Got = d.Sent there); mirror that here so
				// codec-vs-estimate timing comparisons are not skewed by
				// different failure accounting.
				up = d.SentBytes
			}
			t = s.TransferTimeBytes(class, d.SentBytes, up)
		} else {
			t = s.TransferTime(class, d.Sent.Size, d.Got.Size)
		}
		if !d.Failed {
			t += s.TrainTime(class, d.Got.MACs, samplesOf(d.Client), epochs)
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}

// Advance adds seconds to the simulated clock and returns the new time.
func (s *Sim) Advance(seconds float64) float64 {
	s.clock += seconds
	return s.clock
}

// Clock returns the current simulated time in seconds.
func (s *Sim) Clock() float64 { return s.clock }

package baselines

import "fmt"

// SchedAdaptive is an Adaptive runner whose name carries its engine's
// aggregation policy ("AdaptiveFL[semiasync]"), for runs that chose one
// explicitly.
type SchedAdaptive struct {
	*Adaptive
}

// Name implements Runner.
func (s *SchedAdaptive) Name() string {
	return fmt.Sprintf("%s[%s]", s.Adaptive.Name(), s.Eng.Policy())
}

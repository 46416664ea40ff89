package core

// Fixtures for the external tests (package core_test). Tests that run
// rounds live there: rounds run on internal/sched's engine, which imports
// this package.
var (
	FixtureModel        = testModelCfg
	FixturePool         = testPool
	FixtureClients      = testClients
	FixtureCodecClients = codecTestClients
	FixtureTrain        = quickTrain
)

// K returns Config.ClientsPerRound, the width a test's engine runs at.
func (s *Server) K() int { return s.cfg.ClientsPerRound }

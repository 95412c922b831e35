package mc

import (
	"sync"
	"testing"

	"ahs/internal/san"
	"ahs/internal/sim"
	"ahs/internal/telemetry"
)

// memSink records Sink events under a lock, for exact assertions.
type memSink struct {
	mu       sync.Mutex
	counts   map[string]uint64 // metric \xff label -> n
	observed map[string]int    // metric -> number of observations
}

func newMemSink() *memSink {
	return &memSink{counts: map[string]uint64{}, observed: map[string]int{}}
}

func (s *memSink) Add(metric, label string, n uint64) {
	s.mu.Lock()
	s.counts[metric+"\xff"+label] += n
	s.mu.Unlock()
}

func (s *memSink) Observe(metric, _ string, _ float64) {
	s.mu.Lock()
	s.observed[metric]++
	s.mu.Unlock()
}

func (s *memSink) count(metric, label string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[metric+"\xff"+label]
}

func (s *memSink) observations(metric string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observed[metric]
}

func TestEstimateCurveRecordsTelemetry(t *testing.T) {
	const batches = 300
	m, alive := buildPureDeath(2)
	sink := newMemSink()
	dead := func(mk *san.Marking) bool { return mk.Tokens(alive) == 0 }
	_, err := EstimateCurve(Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 1, Stop: dead},
		Times:      []float64{0.5, 1},
		Value:      deadIndicator(alive),
		Seed:       7,
		MaxBatches: batches,
		Workers:    3,
		Telemetry:  sink,
		Cause: func(mk *san.Marking) string {
			if mk.Tokens(alive) == 0 {
				return "ST1"
			}
			return "none"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.count(telemetry.MetricTrajectories, ""); got != batches {
		t.Fatalf("trajectories = %d, want %d", got, batches)
	}
	if got := sink.observations(telemetry.MetricTrajectorySteps); got != batches {
		t.Fatalf("step observations = %d, want %d", got, batches)
	}
	// With rate 2 over a unit horizon most trajectories absorb; each stopped
	// one contributes a first-passage observation, one cause count and one
	// "die" firing via the propagated Sim.Sink.
	stopped := sink.observations(telemetry.MetricTimeToKO)
	if stopped == 0 || stopped > batches {
		t.Fatalf("time-to-KO observations = %d, want in [1, %d]", stopped, batches)
	}
	if got := sink.count(telemetry.MetricCatastrophes, "ST1"); got != uint64(stopped) {
		t.Fatalf("ST1 causes = %d, want %d (one per stopped trajectory)", got, stopped)
	}
	if got := sink.count(telemetry.MetricActivityFirings, "die"); got != uint64(stopped) {
		t.Fatalf("die firings = %d, want %d", got, stopped)
	}
}

// TestTelemetryNilIsInert pins the disabled contract: a nil sink must not
// change estimates (it is the same code path, just branch-skipped).
func TestTelemetryNilIsInert(t *testing.T) {
	m, alive := buildPureDeath(0.5)
	job := Job{
		Model:      m,
		Sim:        sim.Options{MaxTime: 2},
		Times:      []float64{1, 2},
		Value:      deadIndicator(alive),
		Seed:       11,
		MaxBatches: 500,
		Workers:    2,
	}
	base, err := EstimateCurve(job)
	if err != nil {
		t.Fatal(err)
	}
	job.Telemetry = newMemSink()
	instr, err := EstimateCurve(job)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Mean {
		if base.Mean[i] != instr.Mean[i] { //ahsvet:ignore floateq identical deterministic batches must agree bit-for-bit
			t.Fatalf("estimate changed under telemetry at %d: %v vs %v", i, base.Mean[i], instr.Mean[i])
		}
	}
}

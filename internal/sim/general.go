package sim

import (
	"fmt"

	"ahs/internal/des"
	"ahs/internal/rng"
	"ahs/internal/san"
	"ahs/internal/telemetry"
)

// GeneralRunner executes SAN trajectories with event-queue semantics,
// supporting arbitrary firing-delay distributions (san.Distribution) in
// addition to exponential rates.
//
// Reactivation policy ("restart"): an activity samples its completion time
// when it becomes enabled; if it is disabled before completing, the sampled
// clock is discarded, and a fresh delay is drawn on the next enabling. For
// marking-dependent exponential rates the rate is frozen at scheduling time
// (unlike the race-semantics Runner, which re-reads rates in every marking;
// the two coincide for constant rates, which is verified against the exact
// CTMC solver in the tests).
//
// Importance sampling is not supported here — likelihood ratios for general
// distributions are not available in closed form — so Options.Bias must be
// nil. A GeneralRunner is not safe for concurrent use.
type GeneralRunner struct {
	model    *san.Model
	opts     Options
	instants *instantEngine

	queue     *des.Queue
	scheduled []*des.Event // per timed-activity pending completion
	marking   *san.Marking
	initial   *san.Marking
}

// NewGeneralRunner validates options and returns an event-queue executor.
func NewGeneralRunner(model *san.Model, opts Options) (*GeneralRunner, error) {
	if !(opts.MaxTime > 0) {
		return nil, fmt.Errorf("sim: MaxTime must be positive, got %v", opts.MaxTime)
	}
	if !opts.Bias.IsNeutral() {
		return nil, fmt.Errorf("sim: importance sampling requires the race-semantics Runner (exponential models)")
	}
	opts.Bias = nil
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 50_000_000
	}
	if opts.MaxInstantFirings == 0 {
		opts.MaxInstantFirings = 100_000
	}
	g := &GeneralRunner{
		model:     model,
		opts:      opts,
		instants:  newInstantEngine(model, opts.MaxInstantFirings),
		queue:     des.NewQueue(),
		scheduled: make([]*des.Event, model.NumTimed()),
		initial:   model.InitialMarking(),
	}
	g.marking = g.initial.Clone()
	return g, nil
}

// Model returns the model being executed.
func (g *GeneralRunner) Model() *san.Model { return g.model }

// syncSchedule reconciles the event queue with the current marking: newly
// enabled activities sample and schedule a completion; disabled activities
// lose their pending event.
func (g *GeneralRunner) syncSchedule(now float64, stream *rng.Stream) error {
	for i := 0; i < g.model.NumTimed(); i++ {
		act := g.model.Timed(i)
		enabled := act.EnabledIn(g.marking)
		switch {
		case enabled && g.scheduled[i] == nil:
			var delay float64
			if act.Exponential() {
				rate, err := act.RateIn(g.marking)
				if err != nil {
					return err
				}
				delay = stream.Exp(rate)
			} else {
				delay = act.Delay.Sample(stream)
				if !(delay >= 0) {
					return fmt.Errorf("sim: activity %q sampled negative delay %v", act.Name, delay)
				}
			}
			g.scheduled[i] = g.queue.Schedule(now+delay, i)
		case !enabled && g.scheduled[i] != nil:
			g.queue.Cancel(g.scheduled[i])
			g.scheduled[i] = nil
		}
	}
	return nil
}

// Run executes one trajectory from the model's initial marking, filling the
// probes' Values (Weights are always 1: no importance sampling here).
func (g *GeneralRunner) Run(stream *rng.Stream, probes ...*Probe) (Result, error) {
	var res Result
	g.marking.CopyFrom(g.initial)
	g.queue.Clear()
	for i := range g.scheduled {
		g.scheduled[i] = nil
	}
	for _, p := range probes {
		if err := p.reset(); err != nil {
			return res, err
		}
		if n := len(p.Times); n > 0 && p.Times[n-1] > g.opts.MaxTime {
			return res, fmt.Errorf("sim: probe time %v beyond MaxTime %v", p.Times[n-1], g.opts.MaxTime)
		}
	}
	next := make([]int, len(probes))
	var clock des.Clock

	if err := g.instants.fireAll(g.marking, stream, &res); err != nil {
		return res, err
	}
	if g.opts.Stop != nil && g.opts.Stop(g.marking) {
		g.finish(&res, clock.Now(), probes, next, true)
		return res, nil
	}

	for {
		if err := g.syncSchedule(clock.Now(), stream); err != nil {
			return res, err
		}
		ev := g.queue.Pop()
		if ev == nil {
			g.fillUpTo(probes, next, g.opts.MaxTime, true)
			res.End = clock.Now()
			res.Deadlocked = true
			return res, nil
		}
		if ev.Time >= g.opts.MaxTime {
			g.fillUpTo(probes, next, g.opts.MaxTime, true)
			res.End = g.opts.MaxTime
			return res, nil
		}
		g.fillUpTo(probes, next, ev.Time, false)
		if err := clock.AdvanceTo(ev.Time); err != nil {
			return res, err
		}

		idx, ok := ev.Payload.(int)
		if !ok {
			return res, fmt.Errorf("sim: corrupt event payload %T", ev.Payload)
		}
		g.scheduled[idx] = nil
		act := g.model.Timed(idx)
		caseIdx, err := g.instants.chooseCase(act.Name, act.Cases, g.marking, stream)
		if err != nil {
			return res, err
		}
		san.FireTimed(act, caseIdx, g.marking)
		res.Steps++
		if g.opts.Sink != nil {
			g.opts.Sink.Add(telemetry.MetricActivityFirings, act.Name, 1) //ahsvet:ignore locklabel activity names are fixed at model build time
		}
		if g.opts.Observer != nil {
			g.opts.Observer.OnEvent(clock.Now(), act.Name, g.marking)
		}
		if err := g.instants.fireAll(g.marking, stream, &res); err != nil {
			return res, err
		}
		if g.opts.Stop != nil && g.opts.Stop(g.marking) {
			g.finish(&res, clock.Now(), probes, next, true)
			return res, nil
		}
		if res.Steps >= g.opts.MaxSteps {
			return res, fmt.Errorf("%w (%d steps at t=%v)", ErrStepLimit, res.Steps, clock.Now())
		}
	}
}

// fillUpTo records unsampled probe times below horizon ([.., horizon] when
// inclusive) against the current marking with unit weight.
func (g *GeneralRunner) fillUpTo(probes []*Probe, next []int, horizon float64, inclusive bool) {
	for pi, p := range probes {
		for next[pi] < len(p.Times) {
			tp := p.Times[next[pi]]
			if tp > horizon || (tp == horizon && !inclusive) { //ahsvet:ignore floateq probe grid deliberately matches the horizon bit-for-bit
				break
			}
			p.Values[next[pi]] = p.Value(g.marking)
			p.Weights[next[pi]] = 1
			next[pi]++
		}
	}
}

// finish handles stop-predicate termination.
func (g *GeneralRunner) finish(res *Result, t float64, probes []*Probe, next []int, stopped bool) {
	res.Stopped = stopped
	res.StopTime = t
	res.StopWeight = 1
	res.End = t
	for pi, p := range probes {
		v := p.Value(g.marking)
		for ; next[pi] < len(p.Times); next[pi]++ {
			p.Values[next[pi]] = v
			p.Weights[next[pi]] = 1
		}
	}
}

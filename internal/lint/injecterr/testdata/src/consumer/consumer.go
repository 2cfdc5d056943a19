package consumer

import (
	"sim"
	"telemetry"
)

func bad(inj sim.FaultInjector, c, o *telemetry.Collector, blob []byte) {
	inj.Inject(sim.Target{}, sim.Fault{}, 5) // want `sim\.Inject error is discarded`
	inj.Recover(sim.Target{}, 5)             // want `sim\.Recover error is discarded`
	c.Merge(o)                               // want `telemetry\.Merge error is discarded`
	c.UnmarshalBinary(blob)                  // want `telemetry\.UnmarshalBinary error is discarded`
	_ = c.Merge(o)                           // want `telemetry\.Merge error is discarded`
	go c.UnmarshalBinary(blob)               // want `telemetry\.UnmarshalBinary error is discarded`
	defer c.UnmarshalBinary(blob)            // want `telemetry\.UnmarshalBinary error is discarded`
}

func concrete(inj sim.Injector) {
	inj.Inject(sim.Target{}, sim.Fault{}, 5) // want `sim\.Inject error is discarded`
}

func good(inj sim.FaultInjector, s, so *telemetry.Sketch, c, o *telemetry.Collector, blob []byte) error {
	if err := inj.Inject(sim.Target{}, sim.Fault{}, 5); err != nil {
		return err
	}
	s.Merge(so) // good: this Merge returns no error
	err := c.Merge(o)
	if err != nil {
		return err
	}
	return c.UnmarshalBinary(blob)
}

func allowed(inj sim.FaultInjector) {
	inj.Recover(sim.Target{}, 5) //operalint:allow injecterr -- probing panic behavior only
}

type local struct{}

func (local) Inject() error { return nil }

func notWatched() {
	local{}.Inject() // good: not the sim package's Inject
}

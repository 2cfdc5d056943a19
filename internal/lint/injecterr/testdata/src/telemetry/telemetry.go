// Package telemetry is a fixture stand-in for internal/telemetry's
// merge and codec surface.
package telemetry

type Sketch struct{}

func (*Sketch) Merge(other *Sketch) {}

type Collector struct{}

func (*Collector) Merge(other *Collector) error { return nil }

func (*Collector) UnmarshalBinary(data []byte) error { return nil }

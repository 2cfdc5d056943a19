package scenario

import (
	"fmt"
	"math/rand"

	"github.com/opera-net/opera/internal/sim"
)

// This file is the Scenario's timed fault schedule. Together with tagged
// sources it lets the paper's beyond-FCT experiments — §5.2's app-tagged
// mixed workloads and §5.5's fault sweeps — be written as plain Scenario
// values and fanned out through RunScenarios like any other sweep.

// eventSeedSalt decorrelates the fault-schedule generator from the
// topology and workload generators, which consume Spec.Seed directly.
const eventSeedSalt = 0x5ca1ab1e

// schedule hands one fault event to the injector. Target errors (a switch
// target on the expander, a tier the fabric lacks) surface from the
// injector itself, wrapped with the event's name. fail-random-links fails
// the fraction of physical cables it names, chosen uniformly (the sampling
// of §5.5's link-failure sweeps) from rng, the Scenario-seeded generator:
// the same Scenario fails the same links. The sample space is the
// injector's Links() universe — one coordinate per physical cable on every
// fabric (the expander deduplicates its two-ended naming; the Clos spans
// both cable tiers), so the fraction counts cables, not endpoints.
func schedule(inj *sim.Faults, rng *rand.Rand, es EventSpec) error {
	if err := es.check(); err != nil {
		return err
	}
	var err error
	switch es.Op {
	case "recover":
		err = inj.Recover(es.Target, es.At)
	case "fail-random-links":
		links := inj.Links()
		k := min(int(es.Fraction*float64(len(links))+0.5), len(links))
		for _, idx := range rng.Perm(len(links))[:k] {
			if err = inj.Inject(links[idx], sim.DownFault(), es.At); err != nil {
				break
			}
		}
	default:
		err = inj.Inject(es.Target, es.Fault, es.At)
	}
	if err != nil {
		return fmt.Errorf("scenario: %s: %w", es.name(), err)
	}
	return nil
}

// name renders the event for error text.
func (es EventSpec) name() string {
	switch es.Op {
	case "recover":
		return fmt.Sprintf("recover(%v)", es.Target)
	case "fail-random-links":
		return fmt.Sprintf("fail-random-links(%g)", es.Fraction)
	}
	return fmt.Sprintf("inject(%v,%v)", es.Target, es.Fault)
}

package eventsim

import (
	"reflect"
	"sort"
)

// KindCounts is a Scheduler that tallies the events it serves by the type
// of their handler — where a run's events go, as a table instead of a
// profile. It wraps another Scheduler and changes nothing about what that
// one serves or in which order.
type KindCounts struct {
	Scheduler
	n map[reflect.Type]uint64
}

// CountKinds wraps s so that every event popped to fire is counted under
// its handler's type. The counting lives in the wrapper's Pop and PopDue:
// an engine built without one pays nothing, and Step has no branch for it.
// A stale timer event is not counted (it is re-keyed or dropped, not
// fired), so a timer re-armed any number of times counts once per firing;
// meta events are counted, under their observer's handler type.
func CountKinds(s Scheduler) *KindCounts {
	return &KindCounts{Scheduler: s, n: make(map[reflect.Type]uint64)}
}

func (k *KindCounts) Pop() *Event { return k.count(k.Scheduler.Pop()) }

func (k *KindCounts) PopDue(deadline Time) *Event { return k.count(k.Scheduler.PopDue(deadline)) }

func (k *KindCounts) count(ev *Event) *Event {
	if ev != nil && stale(ev) == nil {
		k.n[reflect.TypeOf(ev.h)]++
	}
	return ev
}

// SchedStats implements SchedulerStats by asking the wrapped scheduler.
func (k *KindCounts) SchedStats() SchedStats {
	if ss, ok := k.Scheduler.(SchedulerStats); ok {
		return ss.SchedStats()
	}
	return SchedStats{}
}

// Each calls fn once per handler type seen so far, most events first (ties
// by name), with the type as fmt's %T prints it, e.g. "*sim.portTxDone".
func (k *KindCounts) Each(fn func(kind string, events uint64)) {
	type row struct {
		kind   string
		events uint64
	}
	rows := make([]row, 0, len(k.n))
	for t, n := range k.n {
		rows = append(rows, row{t.String(), n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].events != rows[j].events {
			return rows[i].events > rows[j].events
		}
		return rows[i].kind < rows[j].kind
	})
	for _, r := range rows {
		fn(r.kind, r.events)
	}
}

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
	n map[kindKey]uint64
}

// kindKey is one row of the tally: a handler type, and the sub-kind its
// event's arg names (see EventKinder), empty for args without one.
type kindKey struct {
	h   reflect.Type
	sub string
}

// EventKinder is the optional interface of an event's arg that splits its
// handler's row in KindCounts: a port's delivery hop, for one, is counted
// per packet kind.
type EventKinder interface {
	EventKind() string
}

// CountKinds wraps s so that every event popped to fire is counted under
// its handler's type. The counting lives in the wrapper's PopDue; every
// other method is s's own, so the wrapper serves what s serves, lane
// included, and reports s's occupancy. An engine built without one pays
// nothing, and Step has no branch for it. A stale timer event is not
// counted (it is re-keyed or dropped, not fired), so a timer re-armed any
// number of times counts once per firing, under *eventsim.timerEvent;
// meta events are counted, under their observer's handler type.
func CountKinds(s Scheduler) *KindCounts {
	return &KindCounts{Scheduler: s, n: make(map[kindKey]uint64)}
}

func (k *KindCounts) PopDue(deadline Time) *Event {
	ev := k.Scheduler.PopDue(deadline)
	if ev != nil && stale(ev) == nil {
		key := kindKey{h: reflect.TypeOf(ev.h)}
		if a, ok := ev.arg.(EventKinder); ok {
			key.sub = a.EventKind()
		}
		k.n[key]++
	}
	return ev
}

// Each calls fn once per row seen so far, most events first (ties by
// name). A row is named by its handler's type as fmt's %T prints it, e.g.
// "*sim.portTxDone", followed by "/" and the sub-kind when the event's arg
// names one, e.g. "*sim.portDeliver/pull".
func (k *KindCounts) Each(fn func(kind string, events uint64)) {
	type row struct {
		kind   string
		events uint64
	}
	rows := make([]row, 0, len(k.n))
	for key, n := range k.n {
		kind := key.h.String()
		if key.sub != "" {
			kind += "/" + key.sub
		}
		rows = append(rows, row{kind, n})
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

package sim

import (
	"fmt"
	"io"
	"sort"

	"eventsim"
)

func badAppend(m map[string]int) []int {
	var out []int
	for _, v := range m { // want `appends to a slice in iteration order`
		out = append(out, v)
	}
	return out
}

func goodSorted(m map[string]int) []int {
	keys := make([]string, 0, len(m))
	for k := range m { // good: the canonical collect-and-sort idiom
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]int, 0, len(keys))
	for _, k := range keys { // good: ranging a sorted slice
		out = append(out, m[k])
	}
	return out
}

func badFloat(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `accumulates floating-point values`
		sum += v
	}
	return sum
}

func goodInt(m map[string]int) int {
	var n int
	for _, v := range m { // good: integer addition is associative
		n += v
	}
	return n
}

func badSchedule(eng *eventsim.Engine, m map[int]eventsim.Time) {
	for _, t := range m { // want `schedules engine events in iteration order`
		eng.AtCall(t, nil, nil)
	}
}

func badFixedHop(eng *eventsim.Engine, m map[int]eventsim.Handler) {
	for _, h := range m { // want `schedules engine events in iteration order`
		eng.ContinueFixedCall(500, h, nil)
	}
}

func badWrite(w io.Writer, m map[string]int) {
	for k, v := range m { // want `writes output in iteration order`
		fmt.Fprintf(w, "%s,%d\n", k, v)
	}
}

func badNested(m map[string][]float64) []float64 {
	var out []float64
	for _, vs := range m { // want `appends to a slice in iteration order`
		for _, v := range vs {
			out = append(out, v)
		}
	}
	return out
}

func allowedLoop(m map[string]int) []int {
	var out []int
	//operalint:allow maporder -- caller sorts the result before use
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func goodDisjoint(dst, src map[string]int) {
	for k, v := range src { // good: disjoint per-key writes are order-free
		dst[k] = v
	}
}

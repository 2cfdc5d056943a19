package workload

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"github.com/opera-net/opera/internal/eventsim"
)

// This file holds the composable open-loop generators the streaming
// Source API enables: weighted traffic blends (Mix), synchronized fan-in
// (Incast), and trace replay (Replay). All of them yield flows lazily from
// seeded randomness, so arbitrarily long windows cost O(1) memory.

// MixComponent is one ingredient of a Mix blend: a flow-size distribution
// plus the metadata its flows carry.
type MixComponent struct {
	// Dist draws this component's flow sizes.
	Dist *FlowSizeDist
	// Weight is the component's share of arrivals (relative, need not sum
	// to 1).
	Weight float64
	// Tag labels the component's flows ("" = untagged), so Result.ByTag
	// separates the blend.
	Tag string
	// Bulk application-tags the component's flows for bulk service (§3.4).
	Bulk bool
	// MaxFlowBytes caps sampled sizes (0 = unlimited).
	MaxFlowBytes int64
}

// Mix is a weighted blend of traffic classes over one open-loop Poisson
// arrival process — §5.2's mixed workloads (a bulk shuffle component under
// latency-sensitive websearch) as a single source. Each arrival is
// assigned to a component with probability proportional to its Weight and
// draws its size from that component's distribution; the aggregate rate is
// set by cfg.Load against the weighted mean flow size (cfg.Dist is
// ignored).
func Mix(cfg PoissonConfig, comps ...MixComponent) Source {
	var totalW, meanBits float64
	for _, c := range comps {
		totalW += c.Weight
		meanBits += c.Weight * c.Dist.Mean() * 8
	}
	if totalW <= 0 {
		return SourceFunc(func() (FlowSpec, bool) { return FlowSpec{}, false })
	}
	meanBits /= totalW

	rng := rand.New(rand.NewSource(cfg.Seed))
	bitsPerSec := cfg.Load * float64(cfg.NumHosts) * cfg.LinkRateGbps * 1e9
	flowsPerSec := bitsPerSec / meanBits
	if flowsPerSec <= 0 {
		return SourceFunc(func() (FlowSpec, bool) { return FlowSpec{}, false })
	}
	meanGapNs := 1e9 / flowsPerSec

	t := eventsim.Time(0)
	done := false
	return SourceFunc(func() (FlowSpec, bool) {
		if done {
			return FlowSpec{}, false
		}
		t += eventsim.Time(rng.ExpFloat64() * meanGapNs)
		if t >= cfg.Duration {
			done = true
			return FlowSpec{}, false
		}
		pick := rng.Float64() * totalW
		comp := comps[len(comps)-1]
		for _, c := range comps {
			if pick < c.Weight {
				comp = c
				break
			}
			pick -= c.Weight
		}
		src := rng.Intn(cfg.NumHosts)
		dst := rng.Intn(cfg.NumHosts)
		for dst == src {
			dst = rng.Intn(cfg.NumHosts)
		}
		bytes := comp.Dist.Sample(rng)
		if comp.MaxFlowBytes > 0 && bytes > comp.MaxFlowBytes {
			bytes = comp.MaxFlowBytes
		}
		return FlowSpec{Src: src, Dst: dst, Bytes: bytes, Arrival: t, Tag: comp.Tag, Bulk: comp.Bulk}, true
	})
}

// IncastConfig parameterizes periodic synchronized fan-in.
type IncastConfig struct {
	// NumHosts is the host pool senders and receivers are drawn from.
	NumHosts int
	// Fanin is how many senders fire per burst.
	Fanin int
	// Bytes is the per-sender payload.
	Bytes int64
	// Period spaces bursts; the first fires at Period.
	Period eventsim.Time
	// Bursts bounds the run (0 = unbounded; bound with Take or the
	// scenario deadline).
	Bursts int
	Seed   int64
}

// Incast generates the classic partition–aggregate pattern: every Period,
// Fanin random senders simultaneously send Bytes to one receiver, drawn
// afresh for each burst. Each burst's flows share one arrival instant,
// which is what stresses the receiver's downlink and the fabric's
// buffering.
func Incast(cfg IncastConfig) Source {
	rng := rand.New(rand.NewSource(cfg.Seed))
	burst := 0
	idx := 0
	var senders []int
	dst := 0
	return SourceFunc(func() (FlowSpec, bool) {
		if cfg.Fanin <= 0 || cfg.NumHosts < 2 || cfg.Period <= 0 {
			return FlowSpec{}, false
		}
		if idx == len(senders) { // start the next burst
			if cfg.Bursts > 0 && burst >= cfg.Bursts {
				return FlowSpec{}, false
			}
			burst++
			idx = 0
			dst = rng.Intn(cfg.NumHosts)
			fanin := cfg.Fanin
			if fanin > cfg.NumHosts-1 {
				fanin = cfg.NumHosts - 1
			}
			senders = senders[:0]
			for _, h := range rng.Perm(cfg.NumHosts) {
				if h == dst {
					continue
				}
				senders = append(senders, h)
				if len(senders) == fanin {
					break
				}
			}
		}
		src := senders[idx]
		idx++
		return FlowSpec{
			Src:     src,
			Dst:     dst,
			Bytes:   cfg.Bytes,
			Arrival: eventsim.Time(burst) * cfg.Period,
		}, true
	})
}

// ReplaySource streams flows from a trace. Like bufio.Scanner, it ends the
// stream on malformed input and reports the cause through Err.
type ReplaySource struct {
	// NumHosts, when positive, is the size of the cluster the trace feeds: a
	// host index at or beyond it ends the stream in error instead of
	// reaching the cluster.
	NumHosts int

	file *os.File // owned by ReplayFile sources; nil otherwise
	sc   *bufio.Scanner
	line int
	err  error
	last eventsim.Time
	done bool
}

// Replay reads a flow trace from r, one flow per line:
//
//	arrival_ns src dst bytes [tag] [bulk]
//
// Fields are whitespace-separated; blank lines and lines starting with '#'
// are skipped. Arrivals must be nondecreasing (the trace is replayed as an
// open-loop schedule). The trace is consumed lazily, so replaying a
// million-flow trace holds one line in memory at a time.
func Replay(r io.Reader) *ReplaySource {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	return &ReplaySource{sc: sc}
}

// ReplayFile is Replay over a file feeding a cluster of numHosts hosts.
// A file that cannot be opened yields an empty stream whose Err says why;
// Close the source once the simulation has drained it.
func ReplayFile(path string, numHosts int) *ReplaySource {
	f, err := os.Open(path)
	if err != nil {
		return &ReplaySource{done: true, err: err}
	}
	rs := Replay(f)
	rs.NumHosts, rs.file = numHosts, f
	return rs
}

// Close releases the file a ReplayFile source holds.
func (rs *ReplaySource) Close() error {
	if rs.file == nil {
		return nil
	}
	return rs.file.Close()
}

// Next implements Source.
func (rs *ReplaySource) Next() (FlowSpec, bool) {
	if rs.done {
		return FlowSpec{}, false
	}
	for rs.sc.Scan() {
		rs.line++
		text := strings.TrimSpace(rs.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 4 {
			return rs.fail(fmt.Errorf("workload: trace line %d: want 'arrival_ns src dst bytes [tag] [bulk]', got %q", rs.line, text))
		}
		at, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || at < 0 {
			return rs.fail(fmt.Errorf("workload: trace line %d: bad arrival %q", rs.line, fields[0]))
		}
		if eventsim.Time(at) < rs.last {
			return rs.fail(fmt.Errorf("workload: trace line %d: arrival %dns before previous %v", rs.line, at, rs.last))
		}
		src, err1 := strconv.Atoi(fields[1])
		dst, err2 := strconv.Atoi(fields[2])
		bytes, err3 := strconv.ParseInt(fields[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || src < 0 || dst < 0 || src == dst || bytes <= 0 {
			return rs.fail(fmt.Errorf("workload: trace line %d: bad src/dst/bytes in %q", rs.line, text))
		}
		if rs.NumHosts > 0 && (src >= rs.NumHosts || dst >= rs.NumHosts) {
			return rs.fail(fmt.Errorf("workload: trace line %d: flow %d->%d outside cluster with %d hosts", rs.line, src, dst, rs.NumHosts))
		}
		spec := FlowSpec{Src: src, Dst: dst, Bytes: bytes, Arrival: eventsim.Time(at)}
		if len(fields) > 4 {
			spec.Tag = fields[4]
		}
		if len(fields) > 5 && fields[5] == "bulk" {
			spec.Bulk = true
		}
		rs.last = spec.Arrival
		return spec, true
	}
	rs.done = true
	rs.err = rs.sc.Err()
	return FlowSpec{}, false
}

func (rs *ReplaySource) fail(err error) (FlowSpec, bool) {
	rs.done = true
	rs.err = err
	return FlowSpec{}, false
}

// Err returns the first parse or read error, or nil after a clean replay.
// Check it once Next has returned false.
func (rs *ReplaySource) Err() error { return rs.err }

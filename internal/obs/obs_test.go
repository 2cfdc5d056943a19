package obs_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/opera-net/opera/internal/obs"
	"github.com/opera-net/opera/internal/telemetry"
	"github.com/opera-net/opera/scenario"
)

func snap(seq uint64, done int) *obs.Snapshot {
	return &obs.Snapshot{Seq: seq, FlowsDone: done, FlowsTotal: done + 1}
}

func TestMailboxLatestWins(t *testing.T) {
	var box obs.Mailbox
	if s := box.Snapshot(); s != nil {
		t.Fatalf("empty mailbox returned %+v", s)
	}
	if data, seq := box.StatusSnapshot(); data != nil || seq != 0 {
		t.Fatalf("empty StatusSnapshot = (%v, %d)", data, seq)
	}
	box.Publish(snap(1, 10))
	box.Publish(snap(2, 20))
	s := box.Snapshot()
	if s.Seq != 2 || s.FlowsDone != 20 {
		t.Fatalf("want latest snapshot (2, 20), got (%d, %d)", s.Seq, s.FlowsDone)
	}
}

// TestStatusEndpoints exercises every endpoint kind the mux serves, with
// concurrent publishes racing the readers (the race lane makes this a
// mailbox safety proof).
// TestSnapshotEngineAndPoolNames pins the /status names of the engine
// counters and the NDP pool gauges, in order. Snapshot carries
// eventsim.EngineStats and ndp.PoolGauges as they are, so these names are
// those types' JSON tags.
func TestSnapshotEngineAndPoolNames(t *testing.T) {
	blob, err := json.Marshal(obs.Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	const want = `"engine":{"scheduled":0,"fired":0,"meta_fired":0,"cancelled":0,"pending":0,"free_pool":0,` +
		`"wheel_resident":0,"wheel_buckets":0,"overflow_heap":0},"pools":{"ndp_send_free":0,"ndp_recv_free":0}`
	if !strings.Contains(string(blob), want) {
		t.Fatalf("snapshot JSON\n%s\nlacks\n%s", blob, want)
	}
}

func TestStatusEndpoints(t *testing.T) {
	var box obs.Mailbox
	srv := httptest.NewServer(obs.NewMux(&box))
	defer srv.Close()

	// Before any publish: 503.
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty /status = %d, want 503", resp.StatusCode)
	}

	// Publisher goroutine racing all readers below.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			box.Publish(snap(i, int(i)))
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	// Wait until something is published, then check /status JSON shape.
	var got obs.Snapshot
	for tries := 0; ; tries++ {
		resp, err := http.Get(srv.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("/status Content-Type = %q", ct)
			}
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatalf("/status not JSON: %v\n%s", err, body)
			}
			var fields map[string]any
			json.Unmarshal(body, &fields)
			if _, ok := fields["flows_done"]; !ok {
				t.Fatalf("/status missing flows_done: %s", body)
			}
			break
		}
		if tries > 100 {
			t.Fatal("/status never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	if got.Seq == 0 || got.FlowsDone == 0 {
		t.Fatalf("unexpected snapshot: %+v", got)
	}

	// SSE: read one event frame off the stream.
	resp, err = http.Get(srv.URL + "/status/stream")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/status/stream Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading SSE frame: %v", err)
	}
	if !strings.HasPrefix(line, "data: ") {
		t.Fatalf("SSE frame = %q, want data: prefix", line)
	}
	var ev obs.Snapshot
	if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &ev); err != nil {
		t.Fatalf("SSE payload not JSON: %v", err)
	}

	// expvar carries opera_status.
	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["opera_status"]; !ok {
		t.Fatal("/debug/vars missing opera_status")
	}

	// pprof index answers.
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", resp.StatusCode)
	}
}

// TestSweepTracker folds a plausible progress sequence and checks the
// published status; a second mux registration proves the expvar hook
// tolerates multiple sources per process.
func TestSweepTracker(t *testing.T) {
	tr := obs.NewSweepTracker()
	if data, seq := tr.StatusSnapshot(); data != nil || seq != 0 {
		t.Fatalf("fresh tracker StatusSnapshot = (%v, %d)", data, seq)
	}

	tr.SweepStarted(8, 2, 4)
	tr.ShardDispatched(0, 0, []int{0, 1})
	tr.ShardDispatched(0, 1, []int{2, 3})
	tr.ShardDone(0, 1, []int{2, 3}, io.ErrUnexpectedEOF)
	tr.ShardDone(0, 0, []int{0, 1}, nil)
	tr.ShardDispatched(1, 0, []int{2, 3})
	tr.ShardDone(1, 0, []int{2, 3}, nil)
	tr.SweepDone(2, nil)

	data, seq := tr.StatusSnapshot()
	st, ok := data.(*obs.SweepStatus)
	if !ok {
		t.Fatalf("StatusSnapshot data = %T", data)
	}
	if seq == 0 || st.Seq != seq {
		t.Fatalf("seq mismatch: %d vs %d", seq, st.Seq)
	}
	if st.Specs != 8 || st.Workers != 2 || st.Shards != 4 {
		t.Fatalf("sizing: %+v", st)
	}
	if st.ShardsDispatched != 3 || st.ShardsCompleted != 2 || st.ShardsFailed != 1 || st.ShardsRetried != 1 {
		t.Fatalf("shard counters: %+v", st)
	}
	if st.Rounds != 2 || !st.Done {
		t.Fatalf("completion: %+v", st)
	}

	// Tracker serves through the same mux/expvar layer as Mailbox.
	srv := httptest.NewServer(obs.NewMux(tr))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var fields map[string]any
	if err := json.Unmarshal(body, &fields); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if _, ok := fields["shards_dispatched"]; !ok {
		t.Fatalf("/status missing shards_dispatched: %s", body)
	}
}

// TestSweepTrackerSkipsForeignSketchAlpha: a collector blob that fails to
// decode neither panics the tracker nor disturbs what it has pooled; later
// good blobs still pool. A sketch at another alpha than its collector's
// can be written only in the version-1 format, so the bad blobs are one
// labelled version 1 and one truncated.
func TestSweepTrackerSkipsForeignSketchAlpha(t *testing.T) {
	col := telemetry.NewCollector(telemetry.Opts{}, 3)
	for i, fct := range []float64{12, 40, 95, 300, 2500} {
		col.FlowDone(1+i%2, "", fct, 1500)
	}
	good, err := col.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte{}, good...)
	v1[1] = 1 // the version byte
	truncated := good[:len(good)-1]

	tr := obs.NewSweepTracker()
	tr.SweepStarted(5, 1, 0)
	quantiles := func() []obs.ClassQuantiles {
		data, _ := tr.StatusSnapshot()
		return data.(*obs.SweepStatus).Quantiles
	}
	tr.ResultDelivered(0, scenario.Result{}, v1)
	if got := quantiles(); got != nil {
		t.Fatalf("a version-1 blob alone pooled %+v", got)
	}
	tr.ResultDelivered(1, scenario.Result{}, good)
	want := quantiles()
	for i, bad := range [][]byte{v1, truncated} {
		tr.ResultDelivered(2+i, scenario.Result{}, bad)
		if got := quantiles(); len(got) != 1 || got[0] != want[0] {
			t.Fatalf("after bad blob %d: quantiles %+v, want %+v", i, got, want)
		}
	}
	tr.ResultDelivered(4, scenario.Result{}, good)
	if got := quantiles(); got[0].N != 2*want[0].N {
		t.Fatalf("after a second good blob: n = %d, want %d", got[0].N, 2*want[0].N)
	}
}

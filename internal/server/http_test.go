package server

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"streamgraph/internal/dshard"
)

// promLine accepts every non-comment line the exposition format allows
// here: bare or labeled series names followed by an integer value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?\d+$`)

// promType accepts `# TYPE <name> <kind>` headers.
var promType = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]*(_max)? (counter|gauge|summary)$`)

// TestDebugEndpointsMidStream is the end-to-end observability check:
// a durable server with a remote shard slot streams edges while an
// HTTP client scrapes /metrics, and the scrape must be well-formed
// Prometheus text exposing all four tiers — per-shard queue state,
// per-query match-lag quantiles, dshard wire traffic and edge-log
// fsync latency.
func TestDebugEndpointsMidStream(t *testing.T) {
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rsrv := dshard.NewServer()
	go rsrv.Serve(rln)
	t.Cleanup(rsrv.Close)

	srv, err := Open(Config{
		Window: 400, Shards: 1,
		Remotes: []string{rln.Addr().String()},
		DataDir: t.TempDir(), CheckpointEvery: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	web := httptest.NewServer(srv.DebugHandler())
	t.Cleanup(web.Close)

	// Two queries so both the local and the remote slot own one.
	c := dial(t, ln.Addr().String())
	registerTwoHop(c, "hop1")
	registerTwoHop(c, "hop2")

	// Stream matching two-hop pairs; enough edges to cross several
	// checkpoint boundaries (fsync samples) and emit matches on both
	// slots (match-lag samples).
	for i := 0; i < 200; i++ {
		ts := i * 2
		c.send(fmt.Sprintf("edge evil%d ip srv%d ip rdp %d", i, i, ts))
		c.expectPrefix("ok queued")
		c.send(fmt.Sprintf("edge srv%d ip nas%d ip ftp %d", i, i, ts+1))
		c.expectPrefix("ok queued")
	}

	// The ingest above is asynchronous; poll the scrape until every
	// tier's series has appeared (matches emitted, checkpoints run).
	want := []string{
		`sg_shard_queue_depth{shard="0"}`,
		`sg_shard_replica_vertices{shard="0"}`,
		`sg_shard_replica_vertex_slots{shard="0"}`,
		`sg_match_lag_ns{query="hop1",quantile="0.5"}`,
		`sg_match_lag_ns{query="hop2",quantile="0.5"}`,
		`sg_dshard_bytes_out_total{shard="1"}`,
		`sg_edlog_fsync_ns{quantile="0.99"}`,
		`sg_checkpoint_rounds_total`,
		`sg_server_match_buffer_depth`,
	}
	var body string
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(web.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		body = string(b)
		missing := 0
		for _, w := range want {
			if !strings.Contains(body, w) {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			for _, w := range want {
				if !strings.Contains(body, w) {
					t.Errorf("scrape missing %q", w)
				}
			}
			t.FailNow()
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Every line must parse as Prometheus text exposition.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !promLine.MatchString(line) && !promType.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}

	// pprof and expvar ride the same handler.
	resp, err := http.Get(web.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}
	resp, err = http.Get(web.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(vars), `"streamgraph"`) {
		t.Error("expvar output lacks the streamgraph registry map")
	}

	// The same registry over the wire: "stats full" lists every series
	// the scrape showed, and the bare "stats" reply is unchanged.
	c.send("stats full")
	head := c.expectPrefix("ok ")
	var n int
	if _, err := fmt.Sscanf(head, "ok %d", &n); err != nil {
		t.Fatalf("stats full header %q: %v", head, err)
	}
	if n == 0 {
		t.Fatal("stats full reported no series")
	}
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		line := c.expectPrefix("metric ")
		seen[strings.Fields(line)[1]] = true
	}
	for _, w := range []string{
		`sg_router_edges_admitted_total`, `sg_match_lag_ns{query="hop1"}`,
		`sg_shard_replica_vertices{shard="0"}`, `sg_shard_replica_vertex_slots{shard="0"}`,
	} {
		if !seen[w] {
			t.Errorf("stats full missing %s", w)
		}
	}
	c.send("stats")
	c.expectPrefix("ok shards=2 edges=400 queries=2")
}
